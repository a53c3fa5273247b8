//! The RSSE encrypted index and server-side ranked search.
//!
//! Each posting list is stored under the label `π_x(w)`; entries are
//! `Enc_{f_y(w)}(0^l ‖ id(F) ‖ OPM_{f_z(w)}(S))`. At query time the server
//! uses the trapdoor's list key to unwrap entries, *sees the order-preserved
//! encrypted scores*, and ranks — the whole point of the scheme: ranking
//! happens server-side without revealing the scores themselves.
//!
//! The index dispatches over a pluggable storage engine (see
//! [`crate::backend`]): the in-memory [`MemBackend`] arena, or the on-disk
//! [`GenerationalBackend`] written by [`RsseIndex::save_generational`] and
//! reopened by [`RsseIndex::open_generational`].

use crate::backend::{BackendKind, IndexBackend, MemBackend};
use crate::entry::{decode_entry, ENTRY_CT_LEN, ENTRY_PLAIN_LEN};
use crate::generation::{GenerationPin, GenerationStats, GenerationalBackend, LiveCompaction};
use crate::persist::PersistError;
use crate::segio::{SegmentIo, StdIo};
use crate::segment::BatchReadStats;
use crate::store::PostingStore;
use rsse_crypto::{SecretKey, SemanticCipher};
use rsse_ir::FileId;
use rsse_opse::OpseParams;
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// A posting-list label `π_x(w)` (160 bits).
pub type Label = [u8; 20];

/// The search trapdoor `T_w = (π_x(w), f_y(w))`.
#[derive(Clone)]
pub struct RsseTrapdoor {
    label: Label,
    list_key: SecretKey,
}

impl core::fmt::Debug for RsseTrapdoor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "RsseTrapdoor {{ label: {:02x?}.., key: <redacted> }}",
            &self.label[..4]
        )
    }
}

impl RsseTrapdoor {
    /// Builds a trapdoor from its wire components.
    pub fn from_parts(label: Label, list_key: SecretKey) -> Self {
        RsseTrapdoor { label, list_key }
    }

    /// The posting-list label `π_x(w)`.
    pub fn label(&self) -> &Label {
        &self.label
    }

    /// The per-list entry key `f_y(w)`.
    pub fn list_key(&self) -> &SecretKey {
        &self.list_key
    }
}

/// One ranked search result as the *server* sees it: a file identifier and
/// its order-preserved encrypted score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankedResult {
    /// The matching file.
    pub file: FileId,
    /// The OPM-mapped relevance score (orderable, not decryptable by the
    /// server).
    pub encrypted_score: u64,
}

impl PartialOrd for RankedResult {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RankedResult {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Higher encrypted score = more relevant; ties broken by file id so
        // results are fully deterministic.
        self.encrypted_score
            .cmp(&other.encrypted_score)
            .then_with(|| other.file.cmp(&self.file))
    }
}

/// The storage engine behind an index (private: the public seam is the
/// [`IndexBackend`] trait plus [`RsseIndex`]'s constructors).
#[derive(Debug, Clone)]
enum Backend {
    Mem(MemBackend),
    Generational(GenerationalBackend),
}

impl Default for Backend {
    fn default() -> Self {
        Backend::Mem(MemBackend::new())
    }
}

/// The encrypted searchable index held by the cloud server.
///
/// Posting lists live behind a pluggable [`IndexBackend`]: by default the
/// flat [`MemBackend`] arena — one contiguous byte buffer plus a label
/// table, so a query walks a dense range with zero per-entry allocations
/// (see [`crate::store`]) — or, via [`RsseIndex::save_generational`] and
/// [`RsseIndex::open_generational`], the on-disk [`GenerationalBackend`]
/// that reads only the touched posting list per query and parks updates
/// in a delta overlay (see [`crate::generation`]).
#[derive(Debug, Clone, Default)]
pub struct RsseIndex {
    backend: Backend,
    opse_params: Option<OpseParams>,
    // Conjunctive-pushdown counters (see `crate::multi`); Arc-shared so
    // clones of the same logical index report one combined tally.
    pub(crate) conjunctive: crate::multi::ConjunctiveCounters,
}

impl RsseIndex {
    pub(crate) fn from_lists(lists: HashMap<Label, Vec<Vec<u8>>>, opse: OpseParams) -> Self {
        let mut backend = MemBackend::new();
        for (label, entries) in &lists {
            backend.append(*label, entries);
        }
        RsseIndex {
            backend: Backend::Mem(backend),
            opse_params: Some(opse),
            conjunctive: Default::default(),
        }
    }

    /// Reassembles an in-memory index from its wire parts (what the cloud
    /// server does on receiving the owner's `Outsource` message).
    pub fn from_parts(parts: Vec<(Label, Vec<Vec<u8>>)>, opse: OpseParams) -> Self {
        let mut backend = MemBackend::new();
        for (label, entries) in &parts {
            backend.append(*label, entries);
        }
        RsseIndex {
            backend: Backend::Mem(backend),
            opse_params: Some(opse),
            conjunctive: Default::default(),
        }
    }

    /// Opens an index served from a generational store directory (see
    /// [`crate::generation`]) *without* materializing it: only each
    /// generation's label→offset directory is read, and each query fetches
    /// exactly the touched posting list per generation — the warm-restart
    /// path, and the one that serves indexes larger than resident memory.
    ///
    /// # Errors
    ///
    /// Any [`PersistError`] on a malformed manifest or generation file.
    pub fn open_generational(dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        Self::open_generational_with_io(StdIo::shared(), dir)
    }

    /// [`Self::open_generational`] over an injected io layer — the
    /// crash-torture seam.
    pub fn open_generational_with_io(
        io: Arc<dyn SegmentIo>,
        dir: impl AsRef<Path>,
    ) -> Result<Self, PersistError> {
        let store = GenerationalBackend::open(io, dir)?;
        let opse = *store.opse_params();
        Ok(RsseIndex {
            backend: Backend::Generational(store),
            opse_params: Some(opse),
            conjunctive: Default::default(),
        })
    }

    /// Writes this index out as a new generational store at `dir` (base
    /// generation + manifest, durably) and returns the index now serving
    /// from it — the outsource path for on-disk deployments.
    ///
    /// # Errors
    ///
    /// Any [`PersistError`] writing or re-validating the store.
    pub fn save_generational(&self, dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        self.save_generational_with_io(StdIo::shared(), dir)
    }

    /// [`Self::save_generational`] over an injected io layer.
    pub fn save_generational_with_io(
        &self,
        io: Arc<dyn SegmentIo>,
        dir: impl AsRef<Path>,
    ) -> Result<Self, PersistError> {
        let store = GenerationalBackend::create(io, dir, self)?;
        let opse = *store.opse_params();
        Ok(RsseIndex {
            backend: Backend::Generational(store),
            opse_params: Some(opse),
            conjunctive: Default::default(),
        })
    }

    /// Which storage engine is serving this index.
    pub fn backend_kind(&self) -> BackendKind {
        match &self.backend {
            Backend::Mem(_) => BackendKind::Mem,
            Backend::Generational(_) => BackendKind::Generational,
        }
    }

    /// Entries appended since the store was opened or last flushed,
    /// still parked in the in-memory delta overlay. Always zero for the
    /// in-memory backend (appends land in the arena directly).
    pub fn pending_overlay_entries(&self) -> usize {
        match &self.backend {
            Backend::Mem(_) => 0,
            Backend::Generational(g) => g.overlay_entries(),
        }
    }

    /// Makes pending overlay updates durable without a full rewrite: on a
    /// generational backend this seals the overlay into an L0 delta
    /// generation (cost proportional to the overlay). Returns `true` when
    /// anything was written; always `false` for the in-memory backend.
    ///
    /// # Errors
    ///
    /// Any [`PersistError`] writing or fsyncing.
    pub fn flush_updates(&mut self) -> Result<bool, PersistError> {
        match &mut self.backend {
            Backend::Mem(_) => Ok(false),
            Backend::Generational(g) => g.flush(),
        }
    }

    /// Starts a live background compaction on a generational backend;
    /// `Ok(None)` for the in-memory backend or when there is nothing to
    /// merge. The returned job runs entirely off the serving path (see
    /// [`LiveCompaction::run`]); searches issued meanwhile never block on
    /// it.
    ///
    /// # Errors
    ///
    /// [`PersistError::CompactInProgress`] when a live compaction is
    /// already running — immediately, never blocking behind it.
    pub fn begin_live_compact(&self) -> Result<Option<LiveCompaction>, PersistError> {
        match &self.backend {
            Backend::Mem(_) => Ok(None),
            Backend::Generational(g) => g.begin_live_compact(),
        }
    }

    /// Shape of the generational store, if that is the active backend.
    pub fn generation_stats(&self) -> Option<GenerationStats> {
        match &self.backend {
            Backend::Generational(g) => Some(g.stats()),
            _ => None,
        }
    }

    /// Pins the current generation snapshot of a generational backend,
    /// exactly like an in-flight query would (reclaim waits for the pin).
    pub fn pin_generations(&self) -> Option<GenerationPin> {
        match &self.backend {
            Backend::Generational(g) => Some(g.pin()),
            _ => None,
        }
    }

    /// Folds pending updates back into compact on-disk form; returns
    /// `true` when a rewrite happened. The overlay is flushed and the
    /// whole generation stack is merged *inline* — the synchronous
    /// maintenance path; use [`Self::begin_live_compact`] to do the same
    /// work off the serving path. A no-op returning `false` for the
    /// in-memory backend or when there is nothing to fold. Callers
    /// holding derived state (e.g. a ranking cache) need no invalidation
    /// — compaction preserves every ranking — but the on-disk files
    /// change identity.
    ///
    /// # Errors
    ///
    /// [`PersistError::CompactInProgress`] when a live compaction is
    /// already running; any [`PersistError`] writing, renaming, or
    /// re-validating otherwise.
    pub fn compact(&mut self) -> Result<bool, PersistError> {
        match &mut self.backend {
            Backend::Mem(_) => Ok(false),
            Backend::Generational(g) => {
                if g.compact_in_progress() {
                    return Err(PersistError::CompactInProgress);
                }
                let flushed = g.flush()?;
                match g.begin_live_compact()? {
                    None => Ok(flushed),
                    Some(job) => {
                        job.run()?;
                        Ok(true)
                    }
                }
            }
        }
    }

    /// The active storage engine, as the trait object.
    fn backend(&self) -> &dyn IndexBackend {
        match &self.backend {
            Backend::Mem(m) => m,
            Backend::Generational(g) => g,
        }
    }

    /// Exports the index as `(label, entries)` pairs in label order (the
    /// owner's side of the `Outsource` message).
    pub fn export_parts(&self) -> Vec<(Label, Vec<Vec<u8>>)> {
        let mut labels = self.backend().labels();
        labels.sort_unstable();
        labels
            .into_iter()
            .map(|label| {
                let mut entries = Vec::new();
                self.backend()
                    .for_each_entry(&label, &mut |e| entries.push(e.to_vec()));
                (label, entries)
            })
            .collect()
    }

    /// The OPSE parameters the index was built with (published alongside the
    /// index so users and the owner agree on the domain; the range size is
    /// not secret).
    pub fn opse_params(&self) -> Option<&OpseParams> {
        self.opse_params.as_ref()
    }

    /// `SearchIndex(I, T_w)`: locate the list via `π_x(w)`, unwrap entries
    /// with `f_y(w)`, drop padding, and return results ranked best-first.
    ///
    /// With `top_k = Some(k)` a size-k min-heap is used, so the cost is
    /// `O(N_i log k)` rather than a full sort — this is the Fig. 8
    /// operation. Returns an empty vector for unknown labels.
    pub fn search(&self, trapdoor: &RsseTrapdoor, top_k: Option<usize>) -> Vec<RankedResult> {
        let mut scratch = Vec::with_capacity(ENTRY_PLAIN_LEN);
        self.search_with_scratch(trapdoor, top_k, &mut scratch)
    }

    /// [`Self::search`] decrypting into a caller-owned scratch buffer, so a
    /// serving loop issuing many queries allocates nothing per entry and
    /// (after warm-up) nothing per query beyond the result vector.
    ///
    /// On a generational backend the touched posting list is read off disk
    /// and ranked together with the delta overlay; the ranking is
    /// byte-identical to the in-memory backend's (see
    /// [`crate::generation`]).
    pub fn search_with_scratch(
        &self,
        trapdoor: &RsseTrapdoor,
        top_k: Option<usize>,
        scratch: &mut Vec<u8>,
    ) -> Vec<RankedResult> {
        match &self.backend {
            Backend::Mem(m) => {
                let Some(list) = m.store().list(trapdoor.label()) else {
                    return Vec::new();
                };
                let cipher = SemanticCipher::new(trapdoor.list_key());
                rank_entries(list.iter(), list.len(), &cipher, top_k, scratch)
            }
            Backend::Generational(g) => g.search(trapdoor, top_k, scratch),
        }
    }

    /// Serves a whole batch frame's queries in one call. On the disk
    /// backend every posting list the batch touches is fetched up front
    /// with the reads sorted into file-offset order (per generation file),
    /// so a batch that hops around the keyword space no longer drags the
    /// file cursor backwards between queries; [`Self::batch_read_stats`]
    /// counts the seeks this saves. Per-query results are byte-identical
    /// to calling [`Self::search`] per trapdoor — same bytes read, same
    /// ranking code — which is what keeps batch replies equal across the
    /// in-memory and disk backends.
    pub fn search_batch(
        &self,
        trapdoors: &[RsseTrapdoor],
        top_k: Option<usize>,
    ) -> Vec<Vec<RankedResult>> {
        let mut scratch = Vec::with_capacity(ENTRY_PLAIN_LEN);
        self.search_batch_with_scratch(trapdoors, top_k, &mut scratch)
    }

    /// [`Self::search_batch`] decrypting into a caller-owned scratch
    /// buffer, like [`Self::search_with_scratch`].
    pub fn search_batch_with_scratch(
        &self,
        trapdoors: &[RsseTrapdoor],
        top_k: Option<usize>,
        scratch: &mut Vec<u8>,
    ) -> Vec<Vec<RankedResult>> {
        match &self.backend {
            // The arena has no seeks to save: per-query dispatch.
            Backend::Mem(_) => trapdoors
                .iter()
                .map(|t| self.search_with_scratch(t, top_k, scratch))
                .collect(),
            Backend::Generational(g) => g.search_batch(trapdoors, top_k, scratch),
        }
    }

    /// Counters of the batched sorted-read path (always zero for the
    /// in-memory backend, which has no file cursor to schedule).
    pub fn batch_read_stats(&self) -> BatchReadStats {
        match &self.backend {
            Backend::Mem(_) => BatchReadStats::default(),
            Backend::Generational(g) => g.batch_read_stats(),
        }
    }

    /// Whether a list with this label exists (the access-pattern leakage of
    /// any SSE scheme — exposed explicitly for the adversary experiments).
    pub fn contains_label(&self, label: &Label) -> bool {
        self.backend().contains_label(label)
    }

    /// Number of posting lists (`m`, the number of distinct keywords).
    pub fn num_lists(&self) -> usize {
        self.backend().num_lists()
    }

    /// Length of the list stored under `label`, if present.
    pub fn list_len(&self, label: &Label) -> Option<usize> {
        self.backend().list_len(label)
    }

    /// Total index size in bytes (labels + entries; for a generational
    /// backend, every generation's payload plus the delta overlay).
    pub fn size_bytes(&self) -> usize {
        self.backend().size_bytes()
    }

    /// Labels whose posting lists hold at least one entry, in unspecified
    /// order. This is the *conservative* label-ownership export behind the
    /// shard-router label filters: a padding entry counts like a real one
    /// (the index cannot tell them apart without the per-list key), so the
    /// returned set is a superset of the labels with real postings — safe
    /// to prune against, never missing a label that could contribute to a
    /// ranking. Reads only the backend directory, no entry payloads.
    pub fn occupied_labels(&self) -> Vec<Label> {
        self.backend()
            .labels()
            .into_iter()
            .filter(|label| self.backend().list_len(label).is_some_and(|n| n > 0))
            .collect()
    }

    /// Appends freshly encrypted entries to a (possibly new) posting list —
    /// the *score dynamics* operation of §VII. Existing entries are never
    /// touched; OPM guarantees their order relative to the new ones stays
    /// correct. On a generational backend the entries land in the
    /// in-memory delta overlay (merged at query time) until
    /// [`Self::flush_updates`].
    ///
    /// Note: growth of a list is visible to the server (an inherent leakage
    /// of dynamic updates, acknowledged by the update literature).
    pub fn append_entries(&mut self, label: Label, entries: Vec<Vec<u8>>) {
        debug_assert!(entries.iter().all(|e| e.len() == ENTRY_CT_LEN));
        match &mut self.backend {
            Backend::Mem(m) => m.append(label, &entries),
            Backend::Generational(g) => g.append(label, &entries),
        }
    }

    /// Raw encrypted entries of one list (what an adversary observes
    /// *before* any trapdoor is issued). Owned bytes: a generational
    /// backend reads them off disk, so no borrow into an arena is possible.
    pub fn raw_list(&self, label: &Label) -> Option<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        self.backend()
            .for_each_entry(label, &mut |e| out.push(e.to_vec()))
            .then_some(out)
    }

    /// Splits the index into `n` shard-local (in-memory) indexes, routing
    /// entry `i` of the list under `label` through `route(label, i, entry)`.
    ///
    /// Every label exists on every shard (possibly with an empty list), so
    /// all shards present the same access-pattern shape and an unknown-label
    /// probe is answered identically everywhere. Entries keep their
    /// within-list order, and shards reuse the exact ciphertexts of this
    /// (already built) index — which is what makes sharded ranking
    /// byte-identical to the unsharded one: OPM scores are seeded per
    /// `(keyword, file)`, so re-encrypting per shard would *change* them.
    /// The OPSE parameters are replicated to every shard. A route outside
    /// `0..n` is clamped to the last shard rather than panicking.
    pub fn split_parts(
        &self,
        n: usize,
        mut route: impl FnMut(&Label, usize, &[u8]) -> usize,
    ) -> Vec<RsseIndex> {
        let n = n.max(1);
        let mut stores: Vec<PostingStore> = (0..n).map(|_| PostingStore::new()).collect();
        // Deterministic label order so shard arenas are reproducible.
        let mut labels = self.backend().labels();
        labels.sort_unstable();
        for label in &labels {
            let mut buckets: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n];
            let mut i = 0usize;
            self.backend().for_each_entry(label, &mut |entry| {
                buckets[route(label, i, entry).min(n - 1)].push(entry.to_vec());
                i += 1;
            });
            for (store, bucket) in stores.iter_mut().zip(buckets) {
                store.append(*label, &bucket);
            }
        }
        stores
            .into_iter()
            .map(|store| RsseIndex {
                backend: Backend::Mem(MemBackend::from_store(store)),
                opse_params: self.opse_params,
                conjunctive: Default::default(),
            })
            .collect()
    }
}

/// Decrypts and ranks one stream of encrypted posting entries — the shared
/// core of both backends' search paths. `reserve` sizes the full-sort
/// output vector (pass the entry count). Entries that fail to decrypt or
/// decode (padding, other shards' entries) are dropped, exactly as the
/// paper's server does.
pub(crate) fn rank_entries<'a>(
    entries: impl Iterator<Item = &'a [u8]>,
    reserve: usize,
    cipher: &SemanticCipher,
    top_k: Option<usize>,
    scratch: &mut Vec<u8>,
) -> Vec<RankedResult> {
    let decrypted = entries.filter_map(|ct| {
        cipher.decrypt_into(ct, scratch).ok()?;
        let (file, score) = decode_entry(scratch)?;
        Some(RankedResult {
            file,
            encrypted_score: score,
        })
    });
    match top_k {
        Some(k) => top_k_desc(decrypted, k),
        None => {
            let mut all: Vec<RankedResult> = Vec::with_capacity(reserve);
            all.extend(decrypted);
            all.sort_unstable_by(|a, b| b.cmp(a));
            all
        }
    }
}

/// Merges per-shard ranked result streams — each already sorted best-first,
/// i.e. descending by [`RankedResult`]'s `Ord` — into one globally ranked
/// list, truncated to `top_k` results when given.
///
/// This is the coordinator half of scatter-gather search: shards rank their
/// partition of a posting list locally, and because [`RankedResult`]'s order
/// is total (OPM score descending, ties broken toward the smaller file id),
/// a streaming k-way merge reproduces the single-server ranking exactly.
/// Exact duplicates across streams (impossible under a disjoint partition,
/// but reachable with a byzantine shard) drain in stream-index order, so
/// the output stays deterministic. The generational store leans on the
/// same property to merge its generations with the delta overlay.
///
/// The merge performs exactly two allocations — the O(#streams) head heap
/// and the output vector — never O(total results); the coordinator
/// alloc-count regression test pins this.
pub fn merge_ranked_streams(
    streams: &[&[RankedResult]],
    top_k: Option<usize>,
) -> Vec<RankedResult> {
    let total: usize = streams.iter().map(|s| s.len()).sum();
    let want = top_k.unwrap_or(total).min(total);
    let mut out = Vec::with_capacity(want);
    if want == 0 {
        return out;
    }
    // One head per stream: (head, Reverse(stream), position). The tuple
    // order makes the heap pop the globally best head, preferring the lower
    // stream index on exact ties.
    let mut heads: BinaryHeap<(RankedResult, core::cmp::Reverse<usize>, usize)> =
        BinaryHeap::with_capacity(streams.len());
    for (s, stream) in streams.iter().enumerate() {
        if let Some(&first) = stream.first() {
            heads.push((first, core::cmp::Reverse(s), 0));
        }
    }
    while let Some((best, core::cmp::Reverse(s), pos)) = heads.pop() {
        out.push(best);
        if out.len() == want {
            break;
        }
        if let Some(&next) = streams[s].get(pos + 1) {
            heads.push((next, core::cmp::Reverse(s), pos + 1));
        }
    }
    out
}

/// Serves a top-k request straight off an *already ranked* result vector —
/// the cache-hit half of a server-side ranking cache: the first search of a
/// trapdoor pays the full `O(N_i log k)` decrypt-and-rank, later searches
/// of the same label take the prefix of the cached descending ranking.
///
/// Cost is exactly one allocation (the output vector), independent of how
/// long the cached ranking is — zero per-entry work. The alloc-count
/// regression suite pins this.
///
/// `ranking` must be sorted best-first (descending by [`RankedResult`]'s
/// total order), which is what [`RsseIndex::search`] returns; debug builds
/// assert it.
pub fn ranked_prefix(ranking: &[RankedResult], top_k: Option<usize>) -> Vec<RankedResult> {
    debug_assert!(
        ranking.windows(2).all(|w| w[0] >= w[1]),
        "cached ranking must be sorted best-first"
    );
    let k = top_k.unwrap_or(ranking.len()).min(ranking.len());
    ranking[..k].to_vec()
}

/// Collects the `k` largest items of `iter` using a min-heap of size `k`.
fn top_k_desc(iter: impl Iterator<Item = RankedResult>, k: usize) -> Vec<RankedResult> {
    if k == 0 {
        return Vec::new();
    }
    // BinaryHeap is a max-heap; wrap in Reverse for a min-heap of the best k.
    let mut heap: BinaryHeap<core::cmp::Reverse<RankedResult>> = BinaryHeap::with_capacity(k + 1);
    for item in iter {
        if heap.len() < k {
            heap.push(core::cmp::Reverse(item));
        } else if let Some(min) = heap.peek() {
            if item > min.0 {
                heap.pop();
                heap.push(core::cmp::Reverse(item));
            }
        }
    }
    let mut out: Vec<RankedResult> = heap.into_iter().map(|r| r.0).collect();
    out.sort_by(|a, b| b.cmp(a));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rr(file: u64, score: u64) -> RankedResult {
        RankedResult {
            file: FileId::new(file),
            encrypted_score: score,
        }
    }

    #[test]
    fn ranked_result_ordering() {
        assert!(rr(1, 100) > rr(2, 50));
        // Equal scores: smaller file id ranks higher (compares greater).
        assert!(rr(1, 100) > rr(2, 100));
    }

    #[test]
    fn top_k_matches_sort_then_truncate() {
        let items: Vec<RankedResult> = (0..100).map(|i| rr(i, (i * 7919) % 101)).collect();
        for k in [0usize, 1, 5, 50, 100, 150] {
            let via_heap = top_k_desc(items.iter().copied(), k);
            let mut via_sort = items.clone();
            via_sort.sort_by(|a, b| b.cmp(a));
            via_sort.truncate(k);
            assert_eq!(via_heap, via_sort, "k={k}");
        }
    }

    #[test]
    fn merge_of_sorted_streams_matches_global_sort() {
        // Duplicate OPM scores across streams: the tie-break (smaller file
        // id ranks higher) must match the single-server sort exactly.
        let a = vec![rr(1, 90), rr(4, 90), rr(7, 10)];
        let b = vec![rr(2, 90), rr(5, 50)];
        let c = vec![rr(3, 90), rr(6, 50), rr(8, 10)];
        let mut global: Vec<RankedResult> = [a.clone(), b.clone(), c.clone()].concat();
        global.sort_by(|x, y| y.cmp(x));
        for k in [0usize, 1, 3, 5, 8, 20] {
            let merged = merge_ranked_streams(&[&a, &b, &c], Some(k));
            let mut want = global.clone();
            want.truncate(k);
            assert_eq!(merged, want, "k={k}");
        }
        assert_eq!(merge_ranked_streams(&[&a, &b, &c], None), global);
    }

    #[test]
    fn merge_handles_empty_streams_and_k_beyond_total() {
        let hits = vec![rr(3, 7), rr(1, 2)];
        let empty: Vec<RankedResult> = Vec::new();
        // Empty shards contribute nothing; k larger than the total hit
        // count returns every hit, still ranked.
        assert_eq!(
            merge_ranked_streams(&[&empty, &hits, &empty], Some(10)),
            hits
        );
        assert!(merge_ranked_streams(&[], Some(5)).is_empty());
        assert!(merge_ranked_streams(&[&empty, &empty], None).is_empty());
    }

    #[test]
    fn merge_keeps_exact_duplicates_deterministically() {
        // A byzantine shard could echo another shard's result; both copies
        // survive the merge in a stable order rather than corrupting it.
        let a = vec![rr(1, 5)];
        let b = vec![rr(1, 5), rr(2, 5)];
        assert_eq!(
            merge_ranked_streams(&[&a, &b], None),
            vec![rr(1, 5), rr(1, 5), rr(2, 5)]
        );
    }

    #[test]
    fn split_parts_keeps_every_label_on_every_shard() {
        let lists = vec![
            ([1u8; 20], vec![vec![0xA1; 8], vec![0xA2; 8], vec![0xA3; 8]]),
            ([2u8; 20], vec![vec![0xB1; 8]]),
        ];
        let idx = RsseIndex::from_parts(lists.clone(), OpseParams::default());
        let shards = idx.split_parts(3, |_, i, _| i % 3);
        assert_eq!(shards.len(), 3);
        for (s, shard) in shards.iter().enumerate() {
            // Both labels exist everywhere, even where the list is empty.
            assert!(shard.contains_label(&[1u8; 20]));
            assert!(shard.contains_label(&[2u8; 20]));
            assert_eq!(shard.opse_params(), idx.opse_params());
            let want: Vec<Vec<u8>> = lists[0].1.iter().skip(s).step_by(3).cloned().collect();
            assert_eq!(shard.raw_list(&[1u8; 20]).unwrap(), want);
        }
        // Entry counts across shards partition the originals exactly.
        let total: usize = shards.iter().filter_map(|s| s.list_len(&[1u8; 20])).sum();
        assert_eq!(total, 3);
        assert_eq!(shards[1].list_len(&[2u8; 20]), Some(0));
    }

    #[test]
    fn ranked_prefix_matches_sort_then_truncate() {
        let mut ranking: Vec<RankedResult> = (0..50).map(|i| rr(i, (i * 7919) % 101)).collect();
        ranking.sort_by(|a, b| b.cmp(a));
        for k in [0usize, 1, 10, 50, 99] {
            let mut want = ranking.clone();
            want.truncate(k);
            assert_eq!(ranked_prefix(&ranking, Some(k)), want, "k={k}");
        }
        assert_eq!(ranked_prefix(&ranking, None), ranking);
        assert!(ranked_prefix(&[], Some(5)).is_empty());
    }

    #[test]
    fn empty_index_searches_empty() {
        let idx = RsseIndex::default();
        let t = RsseTrapdoor::from_parts([0u8; 20], SecretKey::derive(b"k", "t"));
        assert!(idx.search(&t, None).is_empty());
        assert!(idx.search(&t, Some(5)).is_empty());
        assert_eq!(idx.size_bytes(), 0);
        assert!(idx.opse_params().is_none());
        assert_eq!(idx.backend_kind(), BackendKind::Mem);
        assert_eq!(idx.pending_overlay_entries(), 0);
    }
}
