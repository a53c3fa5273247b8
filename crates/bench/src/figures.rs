//! Regenerates every table and figure of the paper's evaluation (§VI).
//!
//! Each function returns a CSV document (with `#`-prefixed commentary) so
//! the output can be both eyeballed and plotted. Absolute timings are
//! hardware-dependent; the *shape* facts asserted in `EXPERIMENTS.md` are
//! covered by the test suite.

use crate::workload::{hot_levels, paper_corpus, HOT_KEYWORD, LEVELS};
use rsse_analysis::{duplicate_stats, min_entropy, skewness, total_variation, Histogram};
use rsse_core::{Rsse, RsseParams};
use rsse_crypto::SecretKey;
use rsse_opse::range::{HalvingBound, LogBase, RangeSelector};
use rsse_opse::{Opm, OpseParams};
use std::fmt::Write as _;
use std::time::Instant;

/// Fig. 4 — distribution of relevance scores for keyword "network",
/// 1000 files, scores encoded into 128 levels.
pub fn fig4(seed: u64) -> String {
    let (_, index) = paper_corpus(seed);
    let levels: Vec<u64> = hot_levels(&index).into_iter().map(|(_, l)| l).collect();
    let hist = Histogram::of_u64(&levels, LEVELS as usize, 1, LEVELS);
    let raw: Vec<f64> = levels.iter().map(|&l| l as f64).collect();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig. 4: relevance score distribution for keyword \"{HOT_KEYWORD}\" \
         ({} files, {} levels)",
        levels.len(),
        LEVELS
    );
    let _ = writeln!(
        out,
        "# peak bin = {} (uniform share would be {:.1}); min-entropy = {:.2} bits; \
         skewness = {:.2}",
        hist.peak(),
        levels.len() as f64 / LEVELS as f64,
        min_entropy(hist.counts()).unwrap_or(0.0),
        skewness(&raw).unwrap_or(0.0),
    );
    let _ = writeln!(out, "level,count");
    for (i, c) in hist.counts().iter().enumerate() {
        let _ = writeln!(out, "{},{}", i + 1, c);
    }
    out
}

/// Fig. 5 — size selection of range `R` via eq. (4): both sides of the
/// inequality for the three `O(log M)` halving bounds, plus the resulting
/// crossings under the base-2 and base-10 min-entropy conventions.
pub fn fig5() -> String {
    let sel2 = RangeSelector::new(0.06, 128, 1.1);
    let sel10 = RangeSelector::new(0.06, 128, 1.1).with_log_base(LogBase::Ten);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig. 5: range-size selection, max/lambda = 0.06, M = 128, c = 1.1 \
         (all values log2)"
    );
    for (name, sel) in [("log2", &sel2), ("log10", &sel10)] {
        let _ = writeln!(
            out,
            "# crossings ({name} threshold): 5logM+12 -> k={:?}, 5logM -> k={:?}, \
             4logM -> k={:?} (paper: 46/34/27)",
            sel.min_range_bits(HalvingBound::FiveLogMPlus12),
            sel.min_range_bits(HalvingBound::FiveLogM),
            sel.min_range_bits(HalvingBound::FourLogM),
        );
    }
    let _ = writeln!(
        out,
        "k,lhs_5logM_plus12,lhs_5logM,lhs_4logM,rhs_log2,rhs_log10"
    );
    for p in sel2.fig5_series(52) {
        let _ = writeln!(
            out,
            "{},{:.3},{:.3},{:.3},{:.3},{:.3}",
            p.k,
            p.lhs_paper,
            p.lhs_five_log_m,
            p.lhs_four_log_m,
            p.rhs,
            sel10.rhs_log2(p.k),
        );
    }
    out
}

/// The Fig. 6 data: mapped values of the hot keyword's scores under two
/// independent keys, plus flatness statistics. Returned structured so both
/// the CSV printer and the tests can consume it.
pub struct Fig6Data {
    /// 128-container histogram under key 1.
    pub hist1: Histogram,
    /// 128-container histogram under key 2.
    pub hist2: Histogram,
    /// Min-entropy of the two mapped histograms (bits).
    pub mapped_min_entropy: (f64, f64),
    /// Min-entropy of the raw (Fig. 4) histogram for comparison.
    pub raw_min_entropy: f64,
    /// Total-variation distance between the two mapped histograms.
    pub tv_between_keys: f64,
    /// Number of duplicate mapped values (paper: none at |R| = 2^46).
    pub duplicates: usize,
}

/// Computes the Fig. 6 experiment.
pub fn fig6_data(seed: u64) -> Fig6Data {
    let (_, index) = paper_corpus(seed);
    let levels = hot_levels(&index);
    let raw: Vec<u64> = levels.iter().map(|&(_, l)| l).collect();
    let raw_hist = Histogram::of_u64(&raw, LEVELS as usize, 1, LEVELS);
    let params = OpseParams::paper_default();

    let map_under = |key_label: &str| -> Vec<u64> {
        let opm = Opm::new(SecretKey::derive(b"fig6", key_label), params);
        levels
            .iter()
            .map(|(f, l)| opm.encrypt(*l, f.as_u64()).expect("level in domain"))
            .collect()
    };
    let v1 = map_under("key-1");
    let v2 = map_under("key-2");
    let bins = LEVELS as usize;
    let hist1 = Histogram::of_u64(&v1, bins, 1, params.range_size());
    let hist2 = Histogram::of_u64(&v2, bins, 1, params.range_size());
    let s1 = duplicate_stats(&v1);
    let s2 = duplicate_stats(&v2);
    let dups = (s1.total - s1.distinct) + (s2.total - s2.distinct);
    Fig6Data {
        mapped_min_entropy: (
            min_entropy(hist1.counts()).unwrap_or(0.0),
            min_entropy(hist2.counts()).unwrap_or(0.0),
        ),
        raw_min_entropy: min_entropy(raw_hist.counts()).unwrap_or(0.0),
        tv_between_keys: total_variation(hist1.counts(), hist2.counts()).unwrap_or(0.0),
        duplicates: dups,
        hist1,
        hist2,
    }
}

/// Fig. 6 — one-to-many mapped score distributions under two keys,
/// 128 equally spaced containers, `|R| = 2^46`.
pub fn fig6(seed: u64) -> String {
    let d = fig6_data(seed);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig. 6: OPM-mapped score distribution for \"{HOT_KEYWORD}\" under two keys \
         (|R| = 2^46, 128 containers)"
    );
    let _ = writeln!(
        out,
        "# min-entropy: raw = {:.2} bits, key1 = {:.2}, key2 = {:.2}; \
         TV(key1, key2) = {:.3}; duplicate mapped values = {}",
        d.raw_min_entropy,
        d.mapped_min_entropy.0,
        d.mapped_min_entropy.1,
        d.tv_between_keys,
        d.duplicates
    );
    let _ = writeln!(out, "container,count_key1,count_key2");
    for (i, (a, b)) in d.hist1.counts().iter().zip(d.hist2.counts()).enumerate() {
        let _ = writeln!(out, "{},{},{}", i + 1, a, b);
    }
    out
}

/// One Fig. 7 measurement point.
pub struct Fig7Point {
    /// Domain size `M`.
    pub domain: u64,
    /// Range size in bits.
    pub range_bits: u32,
    /// Mean single-OPM-operation time in microseconds.
    pub mean_us: f64,
    /// Mean hypergeometric draws per operation.
    pub mean_hgd_draws: f64,
}

/// Computes the Fig. 7 sweep with `trials` operations per point.
pub fn fig7_data(trials: u32) -> Vec<Fig7Point> {
    let mut points = Vec::new();
    for &domain in &[64u64, 96, 128, 160, 192, 224, 256] {
        for &range_bits in &[27u32, 34, 46] {
            let params =
                OpseParams::new(domain, 1u64 << range_bits).expect("valid sweep parameters");
            let opm = Opm::new_uncached(
                SecretKey::derive(b"fig7", &format!("{domain}/{range_bits}")),
                params,
            );
            let mut total_draws = 0u64;
            let start = Instant::now();
            for i in 0..trials {
                let level = (i as u64 % domain) + 1;
                let (_, stats) = opm
                    .encrypt_with_stats(level, u64::from(i))
                    .expect("level in domain");
                total_draws += stats.hgd_draws;
            }
            let elapsed = start.elapsed();
            points.push(Fig7Point {
                domain,
                range_bits,
                mean_us: elapsed.as_secs_f64() * 1e6 / trials as f64,
                mean_hgd_draws: total_draws as f64 / trials as f64,
            });
        }
    }
    points
}

/// Fig. 7 — time cost of a single one-to-many order-preserving mapping
/// operation versus domain size `M` and range size `|R|` (mean of 100
/// trials, split cache disabled, as in the paper).
pub fn fig7() -> String {
    let points = fig7_data(100);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig. 7: single OPM operation cost vs domain size M, for \
         |R| in {{2^27, 2^34, 2^46}} (mean of 100 trials)"
    );
    let _ = writeln!(
        out,
        "# paper reference (2010 Xeon + MATLAB HYGEINV): <70 ms at M=128, |R|=2^46"
    );
    let _ = writeln!(out, "M,range_bits,mean_us,mean_hgd_draws");
    for p in points {
        let _ = writeln!(
            out,
            "{},{},{:.2},{:.1}",
            p.domain, p.range_bits, p.mean_us, p.mean_hgd_draws
        );
    }
    out
}

/// One Fig. 8 measurement point.
pub struct Fig8Point {
    /// Requested k.
    pub k: usize,
    /// Mean server-side search time in microseconds.
    pub mean_us: f64,
    /// Results actually returned.
    pub returned: usize,
}

/// Computes the Fig. 8 sweep (`iterations` searches per k).
pub fn fig8_data(seed: u64, iterations: u32) -> Vec<Fig8Point> {
    let (_corpus, index) = paper_corpus(seed);
    let scheme = Rsse::new(b"fig8 owner seed", RsseParams::default());
    let enc = scheme
        .build_index_from(&index)
        .expect("paper corpus is scorable");
    let trapdoor = scheme.trapdoor(HOT_KEYWORD).expect("non-empty keyword");
    let mut points = Vec::new();
    for k in (10..=300).step_by(10) {
        let start = Instant::now();
        let mut returned = 0usize;
        for _ in 0..iterations {
            returned = enc.search(&trapdoor, Some(k)).len();
        }
        let elapsed = start.elapsed();
        points.push(Fig8Point {
            k,
            mean_us: elapsed.as_secs_f64() * 1e6 / iterations as f64,
            returned,
        });
    }
    points
}

/// Fig. 8 — time cost for top-k retrieval against the 1000-entry posting
/// list (server-side: locate list, decrypt entries, heap-select top-k).
pub fn fig8(seed: u64) -> String {
    let points = fig8_data(seed, 20);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig. 8: top-k retrieval time over a posting list of 1000 entries \
         (mean of 20 searches)"
    );
    let _ = writeln!(out, "# paper reference: 0.1..1.6 ms over k in 10..300");
    let _ = writeln!(out, "k,mean_us,returned");
    for p in points {
        let _ = writeln!(out, "{},{:.2},{}", p.k, p.mean_us, p.returned);
    }
    out
}

/// Table I — index construction overhead for the 1000-file collection.
pub fn table1(seed: u64) -> String {
    let (corpus, index) = paper_corpus(seed);
    let scheme = Rsse::new(b"table1 owner seed", RsseParams::default());
    let (enc, report) = scheme
        .build_index_with_report(&index)
        .expect("paper corpus is scorable");
    let mut out = String::new();
    let _ = writeln!(out, "# Table I: index construction overhead, 1000 files");
    let _ = writeln!(
        out,
        "# paper reference: per-keyword list size 12.414 KB; per-keyword build \
         time 5.44 s (raw index 2.31 s); OPM dominates"
    );
    let _ = writeln!(
        out,
        "# the per-list stage ran on {} worker(s); shares are of CPU time \
         (raw index + per-list time summed over lists); the OPM share \
         includes the real entries' AES-CTR and each list's label and keys",
        report.workers
    );
    // CPU time of the whole build: the serial raw stage plus every list's
    // label and keys, OPM, entry encryption and padding.
    let cpu = (report.raw_index_time + report.list_time)
        .as_secs_f64()
        .max(1e-12);
    let _ = writeln!(out, "metric,value");
    let _ = writeln!(out, "files,{}", report.num_docs);
    let _ = writeln!(out, "corpus_bytes,{}", corpus.total_bytes());
    let _ = writeln!(out, "distinct_keywords,{}", report.num_keywords);
    let _ = writeln!(out, "padded_posting_len,{}", report.padded_len);
    let _ = writeln!(out, "index_bytes,{}", enc.size_bytes());
    let _ = writeln!(
        out,
        "per_keyword_list_bytes,{:.1}",
        report.per_keyword_bytes()
    );
    let _ = writeln!(
        out,
        "per_keyword_build_time_us,{:.1}",
        report.per_keyword_time().as_secs_f64() * 1e6
    );
    let _ = writeln!(out, "build_workers,{}", report.workers);
    let _ = writeln!(
        out,
        "total_build_time_s,{:.3}",
        report.build_time.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "raw_index_time_s,{:.3}",
        report.raw_index_time.as_secs_f64()
    );
    let _ = writeln!(out, "list_time_s,{:.3}", report.list_time.as_secs_f64());
    let _ = writeln!(
        out,
        "padding_time_s,{:.3}",
        report.padding_time.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "opm_time_share,{:.2}",
        (report.list_time - report.padding_time).as_secs_f64() / cpu
    );
    let _ = writeln!(
        out,
        "padding_time_share,{:.2}",
        report.padding_time.as_secs_f64() / cpu
    );
    let _ = writeln!(out, "opm_operations,{}", report.opm_operations);
    let _ = writeln!(out, "range_bits,{}", report.range_bits);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_is_skewed() {
        let out = fig4(42);
        assert!(out.contains("level,count"));
        // 128 data rows + 3 header lines.
        assert_eq!(out.lines().count(), 131);
        let d = fig6_data(42);
        // Raw histogram concentrated: min-entropy far below uniform 7 bits.
        assert!(d.raw_min_entropy < 5.0, "raw H_inf {}", d.raw_min_entropy);
    }

    #[test]
    fn fig5_crossing_columns() {
        let out = fig5();
        assert!(out.contains("crossings"));
        assert!(out.lines().filter(|l| !l.starts_with('#')).count() > 50);
    }

    #[test]
    fn fig6_randomizes_per_key_and_kills_duplicates() {
        let d = fig6_data(42);
        // The paper's observation at |R| = 2^46: *no* duplicate mapped
        // values — at value granularity the distribution is perfectly flat
        // (min-entropy log2(1000) ≈ 10 bits vs ~4.8 for the raw levels).
        assert_eq!(d.duplicates, 0);
        // Two keys produce genuinely different 128-container distributions
        // ("two differently randomized value distributions", Fig. 6).
        assert!(d.tv_between_keys > 0.25, "TV {}", d.tv_between_keys);
        // Both mapped distributions spread over much of the range, unlike a
        // deterministic mapping of 61 distinct levels which occupies at
        // most 61 containers with the raw multiplicity structure intact.
        assert!(d.hist1.occupied_bins() > 40, "{}", d.hist1.occupied_bins());
        assert!(d.hist2.occupied_bins() > 40, "{}", d.hist2.occupied_bins());
    }

    #[test]
    fn fig7_small_sweep_shape() {
        // Draw counts at 100 trials per point resolve the domain trend
        // (1,000-trial means: 7.3–7.5 at M = 64, 9.2–9.5 at M = 256, on
        // every range); at fixed M the range trend is flat at these sizes
        // and is not asserted. Timing itself is asserted nowhere.
        let points = fig7_data(100);
        assert_eq!(points.len(), 21);
        let draws = |domain: u64, bits: u32| {
            points
                .iter()
                .find(|p| p.domain == domain && p.range_bits == bits)
                .expect("swept point")
                .mean_hgd_draws
        };
        for bits in [27, 34, 46] {
            assert!(
                draws(256, bits) > draws(64, bits),
                "|R| = 2^{bits}: {} draws at M = 256, {} at M = 64",
                draws(256, bits),
                draws(64, bits)
            );
        }
        // The paper bounds the expected draw count by 5 log2 M + 12.
        for p in &points {
            let bound = 5.0 * (p.domain as f64).log2() + 12.0;
            assert!(
                p.mean_hgd_draws <= bound,
                "M = {}, |R| = 2^{}: {} draws",
                p.domain,
                p.range_bits,
                p.mean_hgd_draws
            );
        }
    }

    #[test]
    fn fig8_returns_expected_counts() {
        let points = fig8_data(42, 2);
        assert_eq!(points.len(), 30);
        for p in &points {
            assert_eq!(p.returned, p.k.min(1000));
        }
    }

    #[test]
    fn table1_contains_all_metrics() {
        let out = table1(42);
        for metric in [
            "files,1000",
            "per_keyword_list_bytes",
            "build_workers",
            "total_build_time_s",
            "raw_index_time_s",
            "padding_time_s",
            "opm_time_share",
            "padding_time_share",
            "opm_operations",
            "range_bits,46",
        ] {
            assert!(out.contains(metric), "missing {metric}:\n{out}");
        }
    }
}
