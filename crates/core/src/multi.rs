//! **Extension** — multi-keyword (conjunctive) ranked search.
//!
//! The paper's future-work section (§VIII) names this "the most promising"
//! direction and flags the open problem: once several keywords are
//! involved, the IDF factor matters and *sums of per-keyword
//! order-preserved values do not exactly preserve the order of summed
//! plaintext scores*. This module implements the construction the paper
//! sketches, with that caveat made explicit:
//!
//! * the server intersects the posting lists of all queried keywords and
//!   ranks by the **sum of per-keyword mapped scores** — a heuristic whose
//!   quality the tests quantify, not a guarantee;
//! * an authorized party holding the score key can *exactly* re-rank the
//!   candidate set by recovering quantized levels and applying the eq. (1)
//!   IDF weighting ([`Rsse::rerank_conjunctive`]).

use crate::entry::ENTRY_PLAIN_LEN;
use crate::error::RsseError;
use crate::index::{Label, RsseIndex, RsseTrapdoor};
use crate::scheme::Rsse;
use rsse_ir::FileId;
use rsse_opse::OpseParams;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A trapdoor per conjunctive query keyword.
#[derive(Debug, Clone)]
pub struct MultiTrapdoor {
    parts: Vec<RsseTrapdoor>,
}

impl MultiTrapdoor {
    /// Reassembles a conjunctive trapdoor from per-keyword parts (the wire
    /// path: the server receives the components, not the query).
    pub fn from_parts(parts: Vec<RsseTrapdoor>) -> Self {
        MultiTrapdoor { parts }
    }

    /// The per-keyword trapdoors, in query order.
    pub fn parts(&self) -> &[RsseTrapdoor] {
        &self.parts
    }

    /// Number of keywords in the conjunction.
    pub fn arity(&self) -> usize {
        self.parts.len()
    }
}

/// Counters of the conjunctive intersection-pushdown path (see
/// [`RsseIndex::search_conjunctive`]): how often the length probes ended a
/// query before any entry was decrypted, and how much smaller the driving
/// list was than the work the old materialize-everything path would have
/// done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConjunctiveStats {
    /// Conjunctive queries served.
    pub queries: u64,
    /// Posting-list length probes issued (up to the query arity each).
    pub lists_probed: u64,
    /// Queries answered empty straight from a length probe — a queried
    /// label had no list, so nothing was read or decrypted.
    pub probe_shortcuts: u64,
    /// Entries of the driving (smallest) posting lists walked.
    pub driver_entries: u64,
    /// Intersection members ranked.
    pub candidates: u64,
}

/// Shared mutable home of [`ConjunctiveStats`] — lives in an `Arc` so
/// index clones keep one counter set (cf. the batched-read counters in
/// [`crate::segment`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct ConjunctiveCounters(Arc<ConjunctiveCountersInner>);

#[derive(Debug, Default)]
struct ConjunctiveCountersInner {
    queries: AtomicU64,
    lists_probed: AtomicU64,
    probe_shortcuts: AtomicU64,
    driver_entries: AtomicU64,
    candidates: AtomicU64,
}

impl ConjunctiveCounters {
    fn snapshot(&self) -> ConjunctiveStats {
        ConjunctiveStats {
            queries: self.0.queries.load(Ordering::Relaxed),
            lists_probed: self.0.lists_probed.load(Ordering::Relaxed),
            probe_shortcuts: self.0.probe_shortcuts.load(Ordering::Relaxed),
            driver_entries: self.0.driver_entries.load(Ordering::Relaxed),
            candidates: self.0.candidates.load(Ordering::Relaxed),
        }
    }
}

/// Stable index order that sorts `labels` ascending — the canonical
/// keyword order the conjunctive caches key by. Shared here so every
/// layer (server cache, router merged cache) canonicalizes identically
/// and permuted queries for the same keyword set share one cache entry.
pub fn canonical_label_order(labels: &[Label]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..labels.len()).collect();
    order.sort_by_key(|&i| labels[i]);
    order
}

/// One conjunctive search result as the server sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConjunctiveResult {
    /// The file matching *all* keywords.
    pub file: FileId,
    /// Per-keyword mapped scores, in trapdoor order.
    pub mapped_scores: Vec<u64>,
    /// The ranking key: sum of mapped scores (heuristic, see module docs).
    pub score_sum: u128,
}

impl Rsse {
    /// `TrapdoorGen` for a conjunctive query: one trapdoor per distinct
    /// keyword surviving tokenization, in first-appearance order.
    ///
    /// # Errors
    ///
    /// [`RsseError::EmptyQuery`] if no keyword survives.
    pub fn multi_trapdoor(&self, query: &str) -> Result<MultiTrapdoor, RsseError> {
        let mut seen = std::collections::HashSet::new();
        let mut parts = Vec::new();
        for word in query.split_whitespace() {
            if let Ok(t) = self.trapdoor(word) {
                if seen.insert(*t.label()) {
                    parts.push(t);
                }
            }
        }
        if parts.is_empty() {
            return Err(RsseError::EmptyQuery);
        }
        Ok(MultiTrapdoor { parts })
    }

    /// Owner/user-side exact re-ranking of a conjunctive candidate set
    /// (the paper's eq. 1): recover each per-keyword quantized level with
    /// the score key and weight it by the IDF factor `ln(1 + N/f_t)`,
    /// where `f_t` is taken from the observed per-keyword match counts.
    ///
    /// `keywords` must align with the trapdoor order used for the search.
    ///
    /// # Errors
    ///
    /// Propagates level-decryption failures.
    pub fn rerank_conjunctive(
        &self,
        keywords: &[&str],
        results: &[ConjunctiveResult],
        opse: OpseParams,
        doc_frequencies: &[u64],
        num_docs: u64,
    ) -> Result<Vec<(FileId, f64)>, RsseError> {
        // One warm OPM per keyword across the whole candidate set, instead
        // of a cold rebuild per (result, keyword) pair.
        let decryptor = self.score_decryptor(opse);
        let mut exact: Vec<(FileId, f64)> = Vec::with_capacity(results.len());
        for r in results {
            let mut total = 0.0f64;
            for ((kw, &mapped), &df) in keywords.iter().zip(&r.mapped_scores).zip(doc_frequencies) {
                let level = decryptor.decrypt_level(kw, mapped)? as f64;
                let idf = if df > 0 {
                    (1.0 + num_docs as f64 / df as f64).ln()
                } else {
                    0.0
                };
                total += level * idf;
            }
            exact.push((r.file, total));
        }
        exact.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        Ok(exact)
    }
}

impl RsseIndex {
    /// Conjunctive ranked search: intersect the posting lists of every
    /// trapdoor, rank by the sum of mapped scores, return the top-k.
    ///
    /// Returns an empty vector when any keyword matches nothing (empty
    /// intersection) or the trapdoor set is empty.
    ///
    /// The evaluation is **intersection pushdown** through the backend,
    /// not per-keyword materialization: every label's list length is
    /// probed first (a label with no list answers the query empty with
    /// zero decryption work), all surviving lists are fetched in **one**
    /// [`RsseIndex::search_batch`] pass — on the on-disk store a single
    /// forward-only read schedule in file-offset order — and then the
    /// *smallest* list drives the intersection while the others are
    /// hash-probed. [`RsseIndex::conjunctive_stats`] counts what this
    /// saves.
    pub fn search_conjunctive(
        &self,
        trapdoor: &MultiTrapdoor,
        top_k: Option<usize>,
    ) -> Vec<ConjunctiveResult> {
        let mut scratch = Vec::with_capacity(ENTRY_PLAIN_LEN);
        self.search_conjunctive_with_scratch(trapdoor, top_k, &mut scratch)
    }

    /// [`Self::search_conjunctive`] decrypting into a caller-owned scratch
    /// buffer, like [`RsseIndex::search_with_scratch`]: after warm-up the
    /// hot path's allocation count depends only on the query arity and the
    /// intersection size, never on posting-list length (pinned by the
    /// `alloc_count` suite).
    pub fn search_conjunctive_with_scratch(
        &self,
        trapdoor: &MultiTrapdoor,
        top_k: Option<usize>,
        scratch: &mut Vec<u8>,
    ) -> Vec<ConjunctiveResult> {
        let parts = trapdoor.parts();
        if parts.is_empty() {
            return Vec::new();
        }
        let counters = &self.conjunctive.0;
        counters.queries.fetch_add(1, Ordering::Relaxed);
        // Length probes: a conjunction is empty as soon as one label has
        // no posting list, and the probe costs a directory lookup, not a
        // list read.
        for part in parts {
            counters.lists_probed.fetch_add(1, Ordering::Relaxed);
            if self.list_len(part.label()).is_none_or(|n| n == 0) {
                counters.probe_shortcuts.fetch_add(1, Ordering::Relaxed);
                return Vec::new();
            }
        }
        // One batched pass over every surviving list: the on-disk store
        // sorts the reads into file-offset order, so an n-keyword query
        // costs one forward sweep instead of n independent seeks.
        let rankings = self.search_batch_with_scratch(parts, None, scratch);
        let driver = (0..rankings.len())
            .min_by_key(|&i| rankings[i].len())
            .expect("non-empty parts");
        counters
            .driver_entries
            .fetch_add(rankings[driver].len() as u64, Ordering::Relaxed);
        if rankings[driver].is_empty() {
            return Vec::new();
        }
        // Hash-probe tables for the non-driver lists, sized up front so
        // the allocation count stays flat in list length.
        let probes: Vec<HashMap<FileId, u64>> = rankings
            .iter()
            .enumerate()
            .map(|(i, ranking)| {
                if i == driver {
                    return HashMap::new();
                }
                let mut map = HashMap::with_capacity(ranking.len());
                map.extend(ranking.iter().map(|r| (r.file, r.encrypted_score)));
                map
            })
            .collect();
        let mut results: Vec<ConjunctiveResult> = Vec::with_capacity(rankings[driver].len());
        'candidates: for entry in &rankings[driver] {
            // Membership first: a miss in any list must not cost a
            // mapped-scores allocation.
            for (i, probe) in probes.iter().enumerate() {
                if i != driver && !probe.contains_key(&entry.file) {
                    continue 'candidates;
                }
            }
            let mut mapped_scores = Vec::with_capacity(parts.len());
            for (i, probe) in probes.iter().enumerate() {
                mapped_scores.push(if i == driver {
                    entry.encrypted_score
                } else {
                    probe[&entry.file]
                });
            }
            results.push(ConjunctiveResult {
                score_sum: mapped_scores.iter().map(|&s| s as u128).sum(),
                file: entry.file,
                mapped_scores,
            });
        }
        counters
            .candidates
            .fetch_add(results.len() as u64, Ordering::Relaxed);
        // (score_sum, file) is a total order over distinct files, so the
        // unstable sort is deterministic — and allocation-free.
        results.sort_unstable_by(|a, b| b.score_sum.cmp(&a.score_sum).then(a.file.cmp(&b.file)));
        if let Some(k) = top_k {
            results.truncate(k);
        }
        results
    }

    /// Counters of the conjunctive pushdown path (zero until the first
    /// conjunctive query; shared across clones of this index).
    pub fn conjunctive_stats(&self) -> ConjunctiveStats {
        self.conjunctive.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RsseParams;
    use rsse_ir::{Document, InvertedIndex};

    fn docs() -> Vec<Document> {
        vec![
            Document::new(FileId::new(1), "network storage network storage network"),
            Document::new(FileId::new(2), "network only here"),
            Document::new(FileId::new(3), "storage only here"),
            Document::new(FileId::new(4), "network storage balanced pair words"),
            Document::new(FileId::new(5), "irrelevant filler content"),
        ]
    }

    fn scheme() -> Rsse {
        Rsse::new(b"multi seed", RsseParams::default())
    }

    #[test]
    fn conjunction_intersects_posting_lists() {
        let s = scheme();
        let enc = s.build_index(&docs()).unwrap();
        let t = s.multi_trapdoor("network storage").unwrap();
        assert_eq!(t.arity(), 2);
        let hits = enc.search_conjunctive(&t, None);
        let mut files: Vec<u64> = hits.iter().map(|r| r.file.as_u64()).collect();
        files.sort_unstable();
        assert_eq!(files, vec![1, 4]);
        for r in &hits {
            assert_eq!(r.mapped_scores.len(), 2);
            assert_eq!(
                r.score_sum,
                r.mapped_scores.iter().map(|&s| s as u128).sum::<u128>()
            );
        }
    }

    #[test]
    fn empty_intersection_and_unknown_keyword() {
        let s = scheme();
        let enc = s.build_index(&docs()).unwrap();
        let t = s.multi_trapdoor("network zebra").unwrap();
        assert!(enc.search_conjunctive(&t, None).is_empty());
        // "filler" and "network" never co-occur in the corpus.
        let t = s.multi_trapdoor("filler network").unwrap();
        assert_eq!(t.arity(), 2);
        assert!(enc.search_conjunctive(&t, None).is_empty());
    }

    #[test]
    fn single_keyword_conjunction_matches_plain_search() {
        let s = scheme();
        let enc = s.build_index(&docs()).unwrap();
        let multi = s.multi_trapdoor("network").unwrap();
        let single = s.trapdoor("network").unwrap();
        let a: Vec<FileId> = enc
            .search_conjunctive(&multi, None)
            .into_iter()
            .map(|r| r.file)
            .collect();
        let b: Vec<FileId> = enc
            .search(&single, None)
            .into_iter()
            .map(|r| r.file)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_keywords_deduplicated() {
        let s = scheme();
        let t = s.multi_trapdoor("network Network networks").unwrap();
        assert_eq!(t.arity(), 1);
    }

    #[test]
    fn stop_word_only_query_rejected() {
        let s = scheme();
        assert!(matches!(
            s.multi_trapdoor("the of and"),
            Err(RsseError::EmptyQuery)
        ));
    }

    #[test]
    fn top_k_truncates_conjunctive_results() {
        let s = scheme();
        let enc = s.build_index(&docs()).unwrap();
        let t = s.multi_trapdoor("network storage").unwrap();
        let all = enc.search_conjunctive(&t, None);
        let top1 = enc.search_conjunctive(&t, Some(1));
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0], all[0]);
    }

    #[test]
    fn exact_rerank_orders_by_idf_weighted_levels() {
        let s = scheme();
        let index = InvertedIndex::build(&docs());
        let enc = s.build_index_from(&index).unwrap();
        let opse = *enc.opse_params().unwrap();
        let t = s.multi_trapdoor("network storage").unwrap();
        let hits = enc.search_conjunctive(&t, None);
        let dfs = [
            index.document_frequency("network"),
            index.document_frequency("storage"),
        ];
        let exact = s
            .rerank_conjunctive(&["network", "storage"], &hits, opse, &dfs, index.num_docs())
            .unwrap();
        assert_eq!(exact.len(), hits.len());
        // Doc 1 dominates doc 4 in *both* per-keyword scores (higher tf,
        // same length), so every correct ranking puts it first.
        assert_eq!(exact[0].0, FileId::new(1));
        // Exact scores are strictly ordered.
        assert!(exact[0].1 > exact[1].1);
    }

    #[test]
    fn sum_heuristic_respects_dominance() {
        // If file A beats file B on every keyword, the mapped-sum ranking
        // must put A first (order preservation holds per keyword).
        let s = scheme();
        let enc = s.build_index(&docs()).unwrap();
        let t = s.multi_trapdoor("network storage").unwrap();
        let hits = enc.search_conjunctive(&t, None);
        let pos = |f: u64| hits.iter().position(|r| r.file.as_u64() == f).unwrap();
        assert!(
            pos(1) < pos(4),
            "dominated file ranked above dominating one"
        );
    }

    /// Reference implementation: per-keyword full materialization, the
    /// shape the pushdown replaced. The pushdown must stay byte-identical.
    fn reference_conjunctive(
        index: &RsseIndex,
        trapdoor: &MultiTrapdoor,
        top_k: Option<usize>,
    ) -> Vec<ConjunctiveResult> {
        let Some((first, rest)) = trapdoor.parts().split_first() else {
            return Vec::new();
        };
        let mut acc: HashMap<FileId, Vec<u64>> = index
            .search(first, None)
            .into_iter()
            .map(|r| (r.file, vec![r.encrypted_score]))
            .collect();
        for t in rest {
            let matches: HashMap<FileId, u64> = index
                .search(t, None)
                .into_iter()
                .map(|r| (r.file, r.encrypted_score))
                .collect();
            acc.retain(|file, scores| {
                if let Some(&s) = matches.get(file) {
                    scores.push(s);
                    true
                } else {
                    false
                }
            });
        }
        let mut results: Vec<ConjunctiveResult> = acc
            .into_iter()
            .map(|(file, mapped_scores)| ConjunctiveResult {
                score_sum: mapped_scores.iter().map(|&s| s as u128).sum(),
                file,
                mapped_scores,
            })
            .collect();
        results.sort_by(|a, b| b.score_sum.cmp(&a.score_sum).then(a.file.cmp(&b.file)));
        if let Some(k) = top_k {
            results.truncate(k);
        }
        results
    }

    #[test]
    fn pushdown_matches_reference_materialization() {
        let s = scheme();
        let enc = s.build_index(&docs()).unwrap();
        for query in [
            "network",
            "network storage",
            "storage network",
            "network filler",
            "network storage balanced",
        ] {
            let t = s.multi_trapdoor(query).unwrap();
            for top_k in [None, Some(0), Some(1), Some(10)] {
                assert_eq!(
                    enc.search_conjunctive(&t, top_k),
                    reference_conjunctive(&enc, &t, top_k),
                    "query {query:?} top_k {top_k:?}"
                );
            }
        }
    }

    #[test]
    fn scratch_variant_matches_and_stats_count_the_pushdown() {
        let s = scheme();
        let enc = s.build_index(&docs()).unwrap();
        assert_eq!(enc.conjunctive_stats(), ConjunctiveStats::default());

        let t = s.multi_trapdoor("network storage").unwrap();
        let plain = enc.search_conjunctive(&t, None);
        let mut scratch = Vec::new();
        assert_eq!(
            enc.search_conjunctive_with_scratch(&t, None, &mut scratch),
            plain
        );

        let stats = enc.conjunctive_stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.lists_probed, 4);
        assert_eq!(stats.probe_shortcuts, 0);
        // "storage" (3 files) drives over "network" (4 files), both times.
        assert_eq!(stats.driver_entries, 6);
        assert_eq!(stats.candidates, 4);

        // Clones share the tally (one logical index, one report).
        assert_eq!(enc.clone().conjunctive_stats(), stats);
    }

    #[test]
    fn unknown_label_takes_the_probe_shortcut() {
        let s = scheme();
        let enc = s.build_index(&docs()).unwrap();
        let t = s.multi_trapdoor("network zebra").unwrap();
        assert!(enc.search_conjunctive(&t, None).is_empty());
        let stats = enc.conjunctive_stats();
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.probe_shortcuts, 1);
        // The shortcut fires before any list is read.
        assert_eq!(stats.driver_entries, 0);
        assert_eq!(stats.candidates, 0);
    }

    #[test]
    fn canonical_label_order_sorts_and_inverts() {
        let labels: Vec<Label> = vec![[9u8; 20], [1u8; 20], [5u8; 20]];
        let order = canonical_label_order(&labels);
        assert_eq!(order, vec![1, 2, 0]);
        // Applying the permutation yields the sorted label vector.
        let sorted: Vec<Label> = order.iter().map(|&i| labels[i]).collect();
        let mut expect = labels.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
        // Duplicates keep first-appearance order (stable sort).
        let dup: Vec<Label> = vec![[3u8; 20], [3u8; 20], [0u8; 20]];
        assert_eq!(canonical_label_order(&dup), vec![2, 0, 1]);
    }
}
