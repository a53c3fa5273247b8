//! End-to-end RSSE benchmark: one workload per process, measured from
//! outside the program.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml --bin e2e -- \
//!     --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1] \
//!     [--spans <file.jsonl>] [--smoke]
//! ```
//!
//! The run prints every number as a `name value unit` line, then, as its
//! last line, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics of `BENCHMARK.json` with
//! `--trace 0`, its per-layer metrics with `--trace 1`. Every reply is
//! checked; any wrong answer, failed identity or missing metric makes
//! `correct` false and the exit code 1. A debug build refuses to run
//! unless `--smoke` is given. One workload per process means the memory
//! metrics (`setup_peak_mb`, `peak_rss_mb`) belong to that workload
//! alone.
//!
//! # Workloads
//!
//! Every workload drives a closed loop from two client threads (the bench
//! host has two CPUs) over seed-derived inputs: a 1000-document corpus
//! that keeps the paper's ν = 1000, the query vocabulary V (its 256 most
//! frequent terms, queried Zipf(1.1)), top-k = 10 (see `workload.rs`).
//! Set-up is repeated three times and `setup_s` is the median. An
//! untimed warm-up (every V keyword once) precedes the timed phases. The
//! `light` phase keeps 1 request in flight per client, `loaded` 8 over
//! pipelined TCP; the TCP server runs 2 workers over a 64-deep backlog.
//! Each phase runs a fixed number of operations per client, scaled by
//! `--seconds` (at 10 s, sized to what the serving stack completed in
//! the phase's share of 10 s on a two-CPU host when this benchmark was
//! written), so compared commits do identical work; `qps` is operations
//! over wall time.
//!
//! | name | what | why |
//! |---|---|---|
//! | `paper_uncached` | In-memory index, ranking cache off, single-keyword searches over TCP, then an owner-update phase. | The paper's server: every search decrypts and ranks all 1000 padded entries, so `core` and crypto dominate. Cache, router and storage are bypassed. |
//! | `hot_cached` | The same log with the default 32 MiB ranking cache; all 256 rankings fit. | Server work drops to about a microsecond, so client decrypt, `tcp` and `codec` dominate. Predicts no change from entry-decrypt or rank speed-ups. |
//! | `churn_generational` | Generational on-disk store, default cache, over TCP; 7/8 searches, 1/8 owner updates (`Message::Update`, acked by `UpdateAck`). | Writes beside reads: the only workload that exercises `core::generation`, the read/write/space trade-off of compaction. |
//! | `sharded_mixed` | 2 shards × 2 replicas, label-filter pruning, 4 MiB router cache, in-process router, 1 op in flight per client. Per 8 ops: 4 Zipf-V searches, 1 rare-term search, 2 conjunctions, 1 update. | The only workload through `cloud::shard` and conjunctive intersection; it skips TCP and builds no basic-scheme index. |
//!
//! Every workload runs the same owner storage cadence (see `maint.rs`):
//! flush every 32 acknowledged updates, compact every 8th flush.
//!
//! # End-to-end metrics
//!
//! - `setup_s`: plaintext corpus in hand to first verified reply, median
//!   of three set-ups.
//! - `setup_peak_mb`: `VmHWM` when the first set-up has answered its
//!   first reply (owner, frames and server in a fresh process).
//! - `upload_mb`: bytes of the Outsource frames. Every seed gives the
//!   same keyword count and so the same padded index (`workload.rs`);
//!   only the file texts differ.
//! - `ndcg_at_10`: the served conjunctive rankings of the 253 pairs of
//!   V's 23 most frequent terms against the exact eq.-(1) ranking,
//!   measured once after setup.
//! - `complete_frac`: operations answered completely and correctly, over
//!   operations attempted. A wrong reply also fails the run; a torn reply
//!   (`check::Verdict::Torn`, a race in the program) only lowers this.
//!
//! A regression gate accepts an end-to-end metric only if, over ten
//! seeds, its spread (quartile distance over median) stays within its
//! bound, and no bound may exceed 0.25. `setup_s` is exempt from the
//! spread rule and has the largest bound. The other bounds are at least
//! three times the largest spread recorded in `e2ebench/results/`: 0.002
//! for `upload_mb` (spread up to 0.0004), 0.002 for `ndcg_at_10` (0.0005,
//! which comes from the corpora: four times as many query pairs barely
//! lower it), 0.0002 for `complete_frac` (0.00004).
//!
//! What a user waits for is measured on every run but listed per-layer,
//! without a regression bound: `lat_p50_ms` / `lat_p99_ms` (search
//! latency, light phase), `qps` (loaded phase; `sharded_mixed` has one
//! phase), `loaded_p99_ms`, `update_p50_ms` / `update_p99_ms` (owner
//! update, from building it to its acknowledgement). On the two-CPU
//! bench host the same CPU-bound work takes up to twice as long from one
//! minute to the next, in CPU time as well as wall time, so the CPU is
//! slower, not preempted. The drift outlasts a run: splitting the timed
//! phases into ten interleaved rounds and reporting the median, the best
//! quartile or the best round spread as widely. So each of these metrics
//! spreads by more than 0.1 of its median on some workload, whether the
//! ten runs have ten seeds or one, and `lat_p50_ms` and `qps` exceed
//! 0.25, the largest bound a gate may use, in some sets of ten
//! (`e2ebench/results/README.md` has the numbers). Compare them with the
//! paired-run rule instead: alternate the two commits, at least ten
//! pairs. Each latency also prints its sample count and the highest
//! percentile with ten samples beyond it. The whole-run `peak_rss_mb` is
//! per-layer too: in `sharded_mixed` glibc's per-thread arenas make it
//! spread by 0.06 across seeds, while the first set-up's peak spreads by
//! 0.005. Write and space amplification are per-layer as well
//! (`gen.*`): they exist only where a store does.
//!
//! # Per-layer metrics and the end-to-end metric each should move
//!
//! Layers are timed only from outside, by the spans the benchmark
//! records around its own calls (`trace.rs`); `--trace 1` records them,
//! `--trace 0` records nothing. Per-operation layer times are medians
//! over the operations of the phases with one request in flight (root
//! spans `search` and `update`), where `lat_p50_ms` and `update_p50_ms`
//! are measured; loaded-phase operations (`search.loaded`,
//! `update.loaded`) count toward self time and coverage only. A traced
//! run holds its spans in memory, so its `peak_rss_mb` includes them: a
//! fixed amount per workload, since the operation counts are fixed.
//!
//! | layer metrics | should move | on |
//! |---|---|---|
//! | `owner.outsource_s`, `codec.outsource_{encode,decode}_s`, `server.boot_s`, `client.first_reply_s` | `setup_s`, `setup_peak_mb` | all |
//! | build probe: `ir.index_s`, `core.build_s`, `core.opm_ops`, `sse.basic_build_s`, `files.encrypt_s` | `setup_s`, `upload_mb` | single-server workloads (`sharded_mixed` builds no basic index) |
//! | `client.request_us`, `client.read_us` | `qps`, `lat_p50_ms` | `hot_cached` |
//! | `client.wait_us`, `wire.bytes_{up,down}_per_op`, `server.queue_wire_us` | `lat_p50_ms` | `hot_cached` |
//! | `tcp.overloaded`, `tcp.garbled`, `tcp.backpressure_stalls` | failures | TCP workloads |
//! | `server.handle_us`, `core.search_us` (replay of sampled requests) | `qps`, `lat_p50_ms` | `paper_uncached`, `churn_generational`; nothing on `hot_cached` |
//! | `cache.hit_ratio`, `cache.conj_hit_ratio`, `audit.*` | `qps` | `hot_cached`, `churn_generational` |
//! | `gen.*`, `owner.update_build_us`, `owner.update_wait_us` | `loaded_p99_ms`, `update_p99_ms`, `peak_rss_mb` | `churn_generational` |
//! | `shard.*`, `core.conj_driver_entries_per_op` | `qps`, `lat_p50_ms` | `sharded_mixed` |
//! | `check.torn_replies` | `complete_frac` (a race in the program, see `check::Verdict::Torn`) | workloads with updates |
//!
//! The text lines of a traced run also carry what one transport or store
//! alone has (`tcp.send_us`, `tcp.wait_us`, `codec.reply_decode_us`,
//! `shard.search_us_hit`/`_miss`, `gen.install_pause_max_ms`) and every
//! span name's self time. The JSON keeps only metrics every workload
//! measures.
//!
//! # Public API the benchmark calls
//!
//! Refactors must keep these (or update this benchmark with them):
//! `DataOwner::{new, outsource, outsource_sharded_with_filters}`,
//! `Message::{encode, decode, wire_len}` and the `SearchRequest`,
//! `ConjunctiveRequest`, `Update`, `RsseResponse`, `ConjunctiveResponse`,
//! `UpdateAck` and `Error` variants,
//! `CloudServer::{from_outsource, from_outsource_with_cache,
//! from_outsource_generational, handle, rsse_index, apply_update,
//! flush_index, compact_index_background, generation_stats,
//! serving_report, install_label_filter, filter_watch,
//! conjunctive_stats, DEFAULT_CACHE_BUDGET}`,
//! `TcpServer::{spawn, addr, stats, shutdown}`, `TcpServerOptions::new`,
//! `TcpTransport::{new, dial}`, `Transport::traffic`,
//! `Connection::{send, recv_any}`, `User::{new, search_request,
//! conjunctive_request, shard_query, conjunctive_shard_query,
//! decrypt_files}`, `ServerHandle::{spawn_pool_shared, client,
//! shutdown}`, `PoolOptions::new`, `ShardRouter::{tuned, scatter,
//! scatter_conjunctive, merged_cache_stats,
//! conjunctive_merged_cache_stats, replica_routing}`,
//! `RouterOptions::{new, with_pruning, with_merged_cache,
//! with_replicas}`, `IndexPartitioner::{new, shard_of}`,
//! `FileCrypter::{new, encrypt, encrypt_collection}`,
//! `Rsse::{new, trapdoor, updater_for, build_index_with_report}`,
//! `IndexUpdater::add_document`, `IndexUpdate::into_parts`,
//! `RsseIndex::search`, `BasicScheme::{new, build_index}`,
//! `InvertedIndex::build`, `score_query`, `SyntheticCorpus::generate`,
//! and `rsse_bench::workload::{top_terms, rare_terms, ZipfSampler}`.

mod check;
mod maint;
mod sharded;
mod single;
mod stats;
mod trace;
mod workload;

use check::Verdict;
use stats::{median, Report, Samples};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Recorder;
use workload::{Inputs, Workload};

/// The owner's master secret (users are authorized with the same seed).
pub const MASTER: &[u8] = b"e2e bench owner";
/// Span op id of the setup root spans (setup `i` is `SETUP_OP + i`).
pub const SETUP_OP: u64 = 1 << 62;
/// Span op id of the replay spans.
pub const REPLAY_OP: u64 = (1 << 62) + (1 << 40);
/// Where runs keep temporary stores, relative to the working directory.
const TMP_DIR: &str = ".bench_tmp";

const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("setup_peak_mb", "MB"),
    ("upload_mb", "MB"),
    ("ndcg_at_10", "ratio"),
    ("complete_frac", "ratio"),
];

const PER_LAYER: [(&str, &str); 62] = [
    ("peak_rss_mb", "MB"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("qps", "1/s"),
    ("loaded_p99_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("update_p99_ms", "ms"),
    ("owner.outsource_s", "s"),
    ("codec.outsource_encode_s", "s"),
    ("codec.outsource_decode_s", "s"),
    ("server.boot_s", "s"),
    ("client.first_reply_s", "s"),
    ("ir.index_s", "s"),
    ("core.build_s", "s"),
    ("core.opm_ops", "count"),
    ("sse.basic_build_s", "s"),
    ("files.encrypt_s", "s"),
    ("client.request_us", "us"),
    ("client.wait_us", "us"),
    ("client.read_us", "us"),
    ("owner.update_build_us", "us"),
    ("owner.update_wait_us", "us"),
    ("server.handle_us", "us"),
    ("core.search_us", "us"),
    ("server.queue_wire_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.conj_hit_ratio", "ratio"),
    ("audit.searches", "count"),
    ("audit.conjunctive", "count"),
    ("audit.shard_queries", "count"),
    ("audit.updates", "count"),
    ("audit.filter_fetches", "count"),
    ("audit.rejected", "count"),
    ("audit.panics", "count"),
    ("tcp.overloaded", "count"),
    ("tcp.garbled", "count"),
    ("tcp.backpressure_stalls", "count"),
    ("wire.bytes_up_per_op", "bytes"),
    ("wire.bytes_down_per_op", "bytes"),
    ("gen.flushes", "count"),
    ("gen.flush_ms_p50", "ms"),
    ("gen.flush_ms_max", "ms"),
    ("gen.compactions", "count"),
    ("gen.compact_s", "s"),
    ("gen.compact_mb", "MB"),
    ("gen.segments_max", "count"),
    ("gen.overlay_entries_max", "count"),
    ("gen.disk_mb_end", "MB"),
    ("gen.write_amp", "ratio"),
    ("gen.space_amp", "ratio"),
    ("shard.legs_per_op", "count"),
    ("shard.pruned_per_op", "count"),
    ("shard.conj_legs_per_op", "count"),
    ("shard.filter_fetches_per_op", "count"),
    ("shard.router_hit_ratio", "ratio"),
    ("shard.router_conj_hit_ratio", "ratio"),
    ("shard.replica_imbalance", "ratio"),
    ("shard.no_leg_frac", "ratio"),
    ("core.conj_driver_entries_per_op", "count"),
    ("trace.op_coverage", "ratio"),
    ("trace.setup_coverage", "ratio"),
    ("check.torn_replies", "count"),
];

/// Suffix of the root span name of an operation in a loaded phase.
const LOADED: &str = ".loaded";
/// Children must cover this share of their root span.
const MIN_COVERAGE: f64 = 0.9;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    spans: Option<String>,
}

impl Config {
    fn parse(args: &[String]) -> Result<Config, String> {
        let mut workload = None;
        let mut seed = 42;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut smoke = false;
        let mut spans = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
                }
                "--seed" => seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                    if !(seconds > 0.0 && seconds <= 3600.0) {
                        return Err("--seconds must lie in (0, 3600]".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--spans" => spans = Some(value()?.clone()),
                "--smoke" => smoke = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Config {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            smoke,
            spans,
        })
    }

    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Operations one client runs in a phase whose budget at the nominal
    /// ten seconds is `nominal`.
    pub fn budget(&self, nominal: u64) -> u64 {
        if self.smoke {
            nominal.min(16)
        } else {
            (nominal as f64 * self.seconds / 10.0).ceil() as u64
        }
    }

    /// Sampled requests replayed straight into the server in traced runs.
    pub fn replay_ops(&self) -> usize {
        if self.smoke {
            16
        } else {
            2000
        }
    }

    /// A phase that has not spent its budget after this long stops
    /// anyway: five times its share of `--seconds`.
    pub fn phase_deadline(&self, share: f64) -> Duration {
        Duration::from_secs_f64(5.0 * self.seconds * share)
    }
}

/// One timed phase: how many requests each client keeps in flight, how
/// many operations each client runs at the nominal ten seconds, the
/// phase's share of `--seconds`, and whether it runs the owner-update
/// stream.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub window: usize,
    pub ops: u64,
    pub share: f64,
    pub updates_only: bool,
}

/// What the clients measured in one phase.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Latencies of search operations (single and conjunctive), ms.
    pub searches: Samples,
    /// Latencies of owner updates, ms.
    pub updates: Samples,
    pub ops: u64,
    pub failed: u64,
    /// Replies with a correct but incomplete set of files ([`Verdict::Torn`]).
    pub torn: u64,
    pub start: Option<Instant>,
    pub end: Option<Instant>,
}

impl PhaseResult {
    pub fn merge(&mut self, other: PhaseResult) {
        self.searches.extend(other.searches);
        self.updates.extend(other.updates);
        self.ops += other.ops;
        self.failed += other.failed;
        self.torn += other.torn;
        self.start = match (self.start, other.start) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.end = self.end.max(other.end);
    }

    pub fn judge(&mut self, verdict: Verdict) {
        match verdict {
            Verdict::Complete => {}
            Verdict::Torn => self.torn += 1,
            Verdict::Wrong => self.failed += 1,
        }
    }

    pub fn qps(&self) -> f64 {
        match (self.start, self.end) {
            (Some(a), Some(b)) if b > a => self.ops as f64 / (b - a).as_secs_f64(),
            _ => 0.0,
        }
    }
}

/// Operation counts and the outcome of every structural check.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub torn: u64,
    /// Human-readable reasons a check other than a reply failed.
    pub broken: Vec<String>,
}

impl Tally {
    pub fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            self.broken.push(what.to_string());
        }
    }

    pub fn judge(&mut self, verdict: Verdict) {
        match verdict {
            Verdict::Complete => {}
            Verdict::Torn => self.torn += 1,
            Verdict::Wrong => self.failed += 1,
        }
    }

    pub fn count(&mut self, phase: &PhaseResult) {
        self.attempted += phase.ops;
        self.failed += phase.failed;
        self.torn += phase.torn;
    }
}

/// A per-run directory under [`TMP_DIR`], removed on drop — also while
/// a panic unwinds.
pub struct TempStore(PathBuf);

impl TempStore {
    pub fn new(tag: &str) -> TempStore {
        let path = Path::new(TMP_DIR).join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create the temporary store directory");
        TempStore(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run keeps a store there.
        let _ = std::fs::remove_dir(TMP_DIR);
    }
}

/// The end-to-end metrics and the per-layer latency and throughput
/// every workload reports, from its phases: `light` (1 request in
/// flight), `loaded` (where `qps` is measured) and `updates` (the phase
/// whose owner updates are timed).
pub struct EndToEnd<'a> {
    pub setup_s: &'a [f64],
    /// `VmHWM` right after the first set-up.
    pub setup_peak_mb: f64,
    pub light: &'a PhaseResult,
    pub loaded: &'a PhaseResult,
    pub updates: &'a PhaseResult,
    pub upload_bytes: usize,
    pub ndcg: f64,
}

impl EndToEnd<'_> {
    fn emit(&self, report: &mut Report) {
        report.metric("setup_s", median(self.setup_s), "s");
        report.metric("setup_peak_mb", self.setup_peak_mb, "MB");
        report.metric("upload_mb", self.upload_bytes as f64 / 1e6, "MB");
        report.metric("ndcg_at_10", self.ndcg, "ratio");
        let (light, loaded, updates) = (
            &self.light.searches,
            &self.loaded.searches,
            &self.updates.updates,
        );
        report.metric("lat_p50_ms", light.pct(50.0), "ms");
        report.metric("lat_p99_ms", light.pct(99.0), "ms");
        light.report_tail(report, "lat");
        report.metric("qps", self.loaded.qps(), "1/s");
        report.metric("loaded_p99_ms", loaded.pct(99.0), "ms");
        loaded.report_tail(report, "loaded");
        report.metric("update_p50_ms", updates.pct(50.0), "ms");
        report.metric("update_p99_ms", updates.pct(99.0), "ms");
        updates.report_tail(report, "update");
    }
}

/// The server's request counters (summed over shards by the caller).
fn emit_audit(report: &mut Report, audit: &rsse_cloud::ServingReport) {
    report.metric("audit.searches", audit.searches as f64, "count");
    report.metric("audit.conjunctive", audit.conjunctive as f64, "count");
    let legs = audit.shard_queries + audit.conjunctive_shard_queries;
    report.metric("audit.shard_queries", legs as f64, "count");
    report.metric("audit.updates", audit.updates as f64, "count");
    report.metric("audit.filter_fetches", audit.filter_fetches as f64, "count");
    report.metric("audit.rejected", audit.rejected as f64, "count");
    report.metric("audit.panics", audit.panics as f64, "count");
}

/// The storage cadence's numbers; `update_bytes` are the bytes of every
/// `Update` frame sent (0 where updates are applied in process).
fn emit_store(report: &mut Report, store: &maint::StoreReport, update_bytes: u64) {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let flush_max = store.flush_ms.iter().copied().fold(0.0, f64::max);
    report.metric("gen.flushes", store.flush_ms.len() as f64, "count");
    report.metric("gen.flush_ms_p50", median(&store.flush_ms), "ms");
    report.metric("gen.flush_ms_max", flush_max, "ms");
    report.metric("gen.compactions", store.compactions as f64, "count");
    report.metric("gen.compact_s", store.compact_s, "s");
    report.metric("gen.compact_mb", store.compact_bytes as f64 / 1e6, "MB");
    report.metric("gen.install_pause_max_ms", store.install_pause_max_ms, "ms");
    report.metric("gen.segments_max", store.segments_max as f64, "count");
    report.metric(
        "gen.overlay_entries_max",
        store.overlay_entries_max as f64,
        "count",
    );
    report.metric("gen.disk_mb_end", store.disk_bytes_end as f64 / 1e6, "MB");
    report.metric(
        "gen.write_amp",
        ratio(store.written_bytes, update_bytes),
        "ratio",
    );
    report.metric(
        "gen.space_amp",
        ratio(store.disk_bytes_end, store.disk_bytes_setup),
        "ratio",
    );
}

/// Zeroes for per-layer metrics of a layer this workload bypasses.
fn emit_bypassed(report: &mut Report, names: &[&str]) {
    for name in names {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| n == name)
            .map_or("count", |(_, u)| *u);
        report.metric(name, 0.0, unit);
    }
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Times the stages `DataOwner::outsource` runs, each as its own public
/// call, on the workload's corpus; recorded as one `probe` root span.
fn build_probe(inputs: &Inputs, rec: &mut Recorder, report: &mut Report) {
    use rsse_core::{Rsse, RsseParams};
    let t0 = Instant::now();
    let index = rsse_ir::InvertedIndex::build(&inputs.docs);
    let t1 = Instant::now();
    let (_, build) = Rsse::new(MASTER, RsseParams::default())
        .build_index_with_report(&index)
        .expect("probe RSSE build");
    let t2 = Instant::now();
    rsse_sse::BasicScheme::new(MASTER)
        .build_index(&index, Default::default())
        .expect("probe basic-scheme build");
    let t3 = Instant::now();
    rsse_cloud::FileCrypter::new(MASTER).encrypt_collection(&inputs.docs);
    let t4 = Instant::now();
    rec.op(
        "probe",
        REPLAY_OP - 1,
        t0,
        t4,
        &[
            ("ir.index", t0, t1),
            ("core.build", t1, t2),
            ("sse.basic_build", t2, t3),
            ("files.encrypt", t3, t4),
        ],
    );
    report.metric("core.opm_ops", build.opm_operations as f64, "count");
}

/// Per-layer numbers derived from the recorded spans.
fn emit_span_layers(spans: &[trace::Span], report: &mut Report) {
    let summary = trace::summarize(spans);
    // Per-operation layer times come from the phases with one request in
    // flight, where `lat_p50_ms` and `update_p50_ms` are measured; ops of
    // a loaded phase count toward self time and coverage only.
    let med = |name: &str| {
        let durations: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| s.parent.is_none_or(|p| !spans[p].name.ends_with(LOADED)))
            .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
            .collect();
        median(&durations)
    };
    for (metric, span) in [
        ("owner.outsource_s", "owner.outsource"),
        ("codec.outsource_encode_s", "codec.outsource_encode"),
        ("codec.outsource_decode_s", "codec.outsource_decode"),
        ("server.boot_s", "server.boot"),
        ("client.first_reply_s", "client.first_reply"),
        ("ir.index_s", "ir.index"),
        ("core.build_s", "core.build"),
        ("sse.basic_build_s", "sse.basic_build"),
        ("files.encrypt_s", "files.encrypt"),
    ] {
        report.metric(metric, med(span) / 1e6, "s");
    }
    for (metric, span) in [
        ("client.request_us", "client.request"),
        ("client.read_us", "client.read"),
        ("owner.update_build_us", "owner.update_build"),
        ("server.handle_us", "server.handle"),
        ("core.search_us", "core.search"),
    ] {
        report.metric(metric, med(span), "us");
    }
    // Wait: everything between handing the request over and holding the
    // decoded reply, summed per operation.
    let wait = |root: &str| {
        let mut per_op: std::collections::HashMap<usize, f64> = Default::default();
        for s in spans {
            let Some(p) = s.parent else { continue };
            let waits = [
                "tcp.send",
                "tcp.wait",
                "tcp.update_wait",
                "codec.decode",
                "shard.search",
                "shard.apply_update",
            ];
            if spans[p].name == root && waits.contains(&s.name) {
                *per_op.entry(p).or_default() += (s.end - s.start).as_secs_f64() * 1e6;
            }
        }
        median(&per_op.into_values().collect::<Vec<_>>())
    };
    let client_wait = wait("search");
    report.metric("client.wait_us", client_wait, "us");
    report.metric("owner.update_wait_us", wait("update"), "us");
    report.metric(
        "server.queue_wire_us",
        client_wait - med("server.handle"),
        "us",
    );
    for (metric, span) in [
        ("tcp.send_us", "tcp.send"),
        ("tcp.wait_us", "tcp.wait"),
        ("codec.reply_decode_us", "codec.decode"),
    ] {
        if summary.iter().any(|(n, _)| *n == span) {
            report.metric(metric, med(span), "us");
        }
    }
    let is_op = |n: &str| matches!(n.trim_end_matches(LOADED), "search" | "update");
    let op_coverage = trace::coverage(spans, is_op);
    let setup_coverage = trace::coverage(spans, |n| n == "setup");
    report.metric("trace.op_coverage", op_coverage, "ratio");
    report.metric("trace.setup_coverage", setup_coverage, "ratio");
    for (name, s) in &summary {
        report.metric(&format!("span.{name}.count"), s.count as f64, "count");
        report.metric(&format!("span.{name}.self_s"), s.self_s, "s");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("e2e: {e}");
            std::process::exit(2);
        }
    };
    if cfg!(debug_assertions) && !cfg.smoke {
        eprintln!("e2e: refusing to measure a debug build; build with --release or pass --smoke");
        std::process::exit(2);
    }
    let (report, mut tally) = run(&cfg);
    report.print_lines();
    let set: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in set {
        tally.require(
            report.unit(name) == Some(unit),
            &format!("{name} measured in {unit}"),
        );
    }
    for b in &tally.broken {
        eprintln!("e2e: check failed: {b}");
    }
    let correct = tally.failed == 0 && tally.broken.is_empty();
    let names: Vec<&str> = set.iter().map(|(n, _)| *n).collect();
    println!(
        "{}",
        report.json(&names, correct, tally.attempted.max(1), tally.failed)
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Runs one workload and returns every number it produced.
pub fn run(cfg: &Config) -> (Report, Tally) {
    let inputs = Inputs::generate(cfg.workload, cfg.seed, cfg.smoke);
    let mut report = Report::default();
    println!("input_digest {} sha256", inputs.digest());
    println!("seed {} u64", cfg.seed);
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    report.metric("host_cpus", cpus as f64, "count");
    let mut rec = Recorder::new(cfg.trace);
    let epoch = Instant::now();
    let mut tally = match cfg.workload {
        Workload::ShardedMixed => sharded::run(cfg, &inputs, &mut report, &mut rec),
        _ => single::run(cfg, &inputs, &mut report, &mut rec),
    };
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric(
        "complete_frac",
        1.0 - (tally.failed + tally.torn) as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    report.metric("check.torn_replies", tally.torn as f64, "count");
    if cfg.trace {
        build_probe(&inputs, &mut rec, &mut report);
        emit_span_layers(rec.spans(), &mut report);
        for name in ["trace.op_coverage", "trace.setup_coverage"] {
            let share = report.get(name).unwrap_or(0.0);
            tally.require(
                share >= MIN_COVERAGE,
                &format!("{name} {share} below {MIN_COVERAGE}"),
            );
        }
        if let Some(path) = &cfg.spans {
            rec.write_jsonl(path, epoch).expect("write the span file");
        }
    }
    (report, tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke pass: every workload on a small corpus with a handful
    /// of operations; every reply and identity check must pass and every
    /// metric of both JSON sets must be printed with a unit.
    #[test]
    fn smoke_runs_every_workload_and_prints_every_metric() {
        for workload in Workload::ALL {
            let cfg = Config {
                workload,
                seed: 11,
                seconds: 1.0,
                trace: true,
                smoke: true,
                spans: None,
            };
            let (report, tally) = run(&cfg);
            assert_eq!(tally.failed, 0, "{}: failed replies", workload.name());
            assert!(
                tally.broken.is_empty(),
                "{}: {:?}",
                workload.name(),
                tally.broken
            );
            assert!(tally.attempted > 0);
            for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
                assert_eq!(
                    report.unit(name),
                    Some(*unit),
                    "{}: {name}",
                    workload.name()
                );
            }
        }
    }

    /// `BENCHMARK.json` names exactly the metrics this program emits, in
    /// the same units.
    #[test]
    fn benchmark_json_matches_the_metric_sets() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in Workload::ALL {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name())),
                "{}",
                w.name()
            );
        }
        let entries = json.matches("\"name\": ").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
    }

    #[test]
    fn config_rejects_bad_arguments() {
        let parse =
            |s: &str| Config::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let cfg = parse("--workload hot_cached --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (cfg.workload, cfg.seed, cfg.trace),
            (Workload::HotCached, 7, true)
        );
        assert!(parse("--seed 7").is_err(), "workload is required");
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload hot_cached --trace 2").is_err());
        assert!(parse("--workload hot_cached --seconds 0").is_err());
        assert!(parse("--workload hot_cached --bogus").is_err());
    }
}
