//! The RSSE encrypted index and server-side ranked search.
//!
//! Each posting list is stored under the label `π_x(w)`; entries are
//! `Enc_{f_y(w)}(0^l ‖ id(F) ‖ OPM_{f_z(w)}(S))`. At query time the server
//! uses the trapdoor's list key to unwrap entries, *sees the order-preserved
//! encrypted scores*, and ranks — the whole point of the scheme: ranking
//! happens server-side without revealing the scores themselves.
//!
//! The index is one storage engine: resident lists (see [`crate::store`])
//! plus, for an index written by [`RsseIndex::save_generational`] or
//! reopened by [`RsseIndex::open_generational`], a stack of generation
//! files on disk (see [`crate::generation`]). Each method that reads
//! lists has one body: the generations if there are any, then the
//! resident lists.

use crate::entry::{real_entries, ENTRY_CT_LEN};
use crate::error::RsseError;
use crate::generation::{GenerationPin, GenerationStack, GenerationStats, LiveCompaction};
use crate::persist::PersistError;
use crate::segio::{SegmentIo, StdIo};
use crate::segment::{read_list, SegmentReader};
use crate::store::{entries, PostingStore};
use rsse_crypto::{SecretKey, SemanticCipher};
use rsse_ir::FileId;
use rsse_opse::OpseParams;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{BTreeSet, BinaryHeap};
use std::path::Path;
use std::sync::Arc;

/// A posting-list label `π_x(w)` (160 bits).
pub type Label = [u8; 20];

/// Posting lists in the one shape they travel in from builder to server:
/// per list `(label, entry_len, bytes)`, its `entry_len`-byte entries
/// back to back. The index admits a non-empty list only under an
/// `entry_len` of [`ENTRY_CT_LEN`], and exports every list under it.
pub type ListParts = Vec<(Label, u32, Vec<u8>)>;

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

/// The encrypted searchable index held by the cloud server.
///
/// One storage engine with two parts. The resident lists
/// ([`PostingStore`]) keep each posting list's entries back to back in one
/// buffer, so a query walks a dense range with zero per-entry allocations
/// (see [`crate::store`]). An index served from a store directory
/// ([`RsseIndex::save_generational`], [`RsseIndex::open_generational`])
/// also has a generation stack: immutable files, one positional read of
/// the touched list per query, holding every entry up to the last flush,
/// while the resident lists hold the entries appended since (see
/// [`crate::generation`]). Every read takes the generations, base first,
/// then the resident list.
#[derive(Debug, Clone, Default)]
pub struct RsseIndex {
    lists: PostingStore,
    generations: Option<GenerationStack>,
    opse_params: Option<OpseParams>,
    // Conjunctive-pushdown counters (see `crate::multi`); Arc-shared so
    // clones of the same logical index report one combined tally.
    pub(crate) conjunctive: crate::multi::ConjunctiveCounters,
}

/// One whole list as `(label, bytes)`, its bytes borrowed where they can
/// be.
type WholeList<'a> = (Label, Cow<'a, [u8]>);

/// Readers of the generation files `pin` holds, base first; none without
/// a pin.
fn readers(pin: &Option<GenerationPin>) -> impl Iterator<Item = &SegmentReader> {
    pin.iter().flat_map(GenerationPin::readers)
}

/// The door every list enters the index by, at
/// [`RsseIndex::from_parts`] and [`RsseIndex::append_entries`] (a file's
/// lists enter by `SegmentReader::from_file`): `bytes` must be whole
/// [`ENTRY_CT_LEN`]-byte entries under a wire `entry_len` of
/// [`ENTRY_CT_LEN`]. An empty list passes under any entry length.
fn admit(label: &Label, entry_len: u32, bytes: &[u8]) -> Result<(), RsseError> {
    let whole = entry_len as usize == ENTRY_CT_LEN && bytes.len().is_multiple_of(ENTRY_CT_LEN);
    if bytes.is_empty() || whole {
        Ok(())
    } else {
        Err(RsseError::MalformedList(*label))
    }
}

/// A list read's error as the index reports it: a scheme error as it is,
/// any other as [`RsseError::StoreRead`].
fn read_error(e: PersistError) -> RsseError {
    match e {
        PersistError::Rsse(e) => e,
        e => RsseError::StoreRead(e.to_string()),
    }
}

impl RsseIndex {
    /// Reassembles an in-memory index from its wire parts (what the cloud
    /// server does on receiving the owner's `Outsource` message): one
    /// `(label, entry_len, bytes)` triple per list, its `entry_len`-byte
    /// entries back to back. Each list's buffer is moved in, not copied;
    /// a repeated label appends.
    ///
    /// # Errors
    ///
    /// [`RsseError::MalformedList`] for the first non-empty list that is
    /// not whole [`ENTRY_CT_LEN`]-byte entries under an `entry_len` of
    /// [`ENTRY_CT_LEN`].
    pub fn from_parts(parts: ListParts, opse: OpseParams) -> Result<Self, RsseError> {
        let mut lists = PostingStore::new();
        for (label, entry_len, bytes) in parts {
            admit(&label, entry_len, &bytes)?;
            lists.insert(label, bytes);
        }
        Ok(RsseIndex {
            lists,
            generations: None,
            opse_params: Some(opse),
            conjunctive: Default::default(),
        })
    }

    /// An index served from `stack`, nothing resident yet.
    fn on_stack(stack: GenerationStack) -> Self {
        RsseIndex {
            lists: PostingStore::new(),
            opse_params: Some(*stack.opse_params()),
            generations: Some(stack),
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
    /// Any [`PersistError`] on a malformed manifest or generation file;
    /// [`PersistError::Rsse`] ([`RsseError::MalformedList`]) for a
    /// non-empty list of entries of another length than [`ENTRY_CT_LEN`].
    pub fn open_generational(dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        Self::open_generational_with_io(StdIo::shared(), dir)
    }

    /// [`Self::open_generational`] over an injected io layer — the
    /// crash-torture seam.
    pub fn open_generational_with_io(
        io: Arc<dyn SegmentIo>,
        dir: impl AsRef<Path>,
    ) -> Result<Self, PersistError> {
        GenerationStack::open(io, dir.as_ref()).map(Self::on_stack)
    }

    /// Writes this index out as a new generational store at `dir` (base
    /// generation + manifest, durably) and returns the index now serving
    /// from it — the outsource path for on-disk deployments. A list held
    /// only in memory is written straight from its buffer.
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
        let lists = self.whole_lists()?.into_iter();
        GenerationStack::create(io, dir.as_ref(), &self.opse_or_trivial(), lists)
            .map(Self::on_stack)
    }

    /// The OPSE parameters a file of this index is written under: its own,
    /// or 1/1 for an index that has none.
    pub(crate) fn opse_or_trivial(&self) -> OpseParams {
        self.opse_params
            .unwrap_or_else(|| OpseParams::new(1, 1).expect("1/1 is valid"))
    }

    /// Makes the entries appended since the store was opened or last
    /// flushed durable without a full rewrite: seals the resident lists
    /// into an L0 delta generation (cost proportional to them). Returns
    /// `true` when anything was written; always `false` for an index
    /// without a generational store. On an error the resident lists stay
    /// and keep serving.
    ///
    /// # Errors
    ///
    /// Any [`PersistError`] writing or fsyncing.
    pub fn flush_updates(&mut self) -> Result<bool, PersistError> {
        match &self.generations {
            Some(stack) if self.lists.num_lists() > 0 => {
                stack.flush(&self.lists)?;
                self.lists = PostingStore::new();
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Starts a live background compaction of the generation stack;
    /// `Ok(None)` for an index without one or when there is nothing to
    /// merge. The returned job runs entirely off the serving path (see
    /// [`LiveCompaction::run`]); searches issued meanwhile never block on
    /// it.
    ///
    /// # Errors
    ///
    /// [`PersistError::CompactInProgress`] when a live compaction is
    /// already running — immediately, never blocking behind it.
    pub fn begin_live_compact(&self) -> Result<Option<LiveCompaction>, PersistError> {
        match &self.generations {
            Some(stack) => stack.begin_live_compact(),
            None => Ok(None),
        }
    }

    /// Shape of the generational store, if the index has one.
    pub fn generation_stats(&self) -> Option<GenerationStats> {
        let resident = (self.lists.iter())
            .map(|(_, list)| entries(list).len())
            .sum();
        self.generations.as_ref().map(|stack| stack.stats(resident))
    }

    /// Pins the current generation snapshot of a generational store,
    /// exactly like an in-flight query does (reclaim waits for the pin).
    pub fn pin_generations(&self) -> Option<GenerationPin> {
        self.generations.as_ref().map(GenerationStack::pin)
    }

    /// Folds pending updates back into compact on-disk form; returns
    /// `true` when a rewrite happened. The resident lists are flushed and
    /// the whole generation stack is merged *inline* — the synchronous
    /// maintenance path; use [`Self::begin_live_compact`] to do the same
    /// work off the serving path. A no-op returning `false` for an index
    /// without a generational store or when there is nothing to fold.
    /// Callers holding derived state (e.g. a ranking cache) need no
    /// invalidation — compaction preserves every ranking — but the
    /// on-disk files change identity.
    ///
    /// # Errors
    ///
    /// [`PersistError::CompactInProgress`] when a live compaction is
    /// already running; any [`PersistError`] writing, renaming, or
    /// re-validating otherwise.
    pub fn compact(&mut self) -> Result<bool, PersistError> {
        if (self.generations.as_ref()).is_some_and(GenerationStack::compact_in_progress) {
            return Err(PersistError::CompactInProgress);
        }
        let flushed = self.flush_updates()?;
        match self.begin_live_compact()? {
            None => Ok(flushed),
            Some(job) => {
                job.run()?;
                Ok(true)
            }
        }
    }

    /// All labels, in label order.
    fn labels(&self) -> Vec<Label> {
        let pin = self.pin_generations();
        let mut labels: BTreeSet<Label> = self.lists.labels().copied().collect();
        for reader in readers(&pin) {
            labels.extend(reader.directory().keys());
        }
        labels.into_iter().collect()
    }

    /// The list under `label`, whole: borrowed from its resident buffer
    /// when no generation `pin` holds has a part of it, else its part in
    /// each generation, base first, then the resident one, read back to
    /// back into one buffer sized up front. An unknown list is empty.
    ///
    /// # Errors
    ///
    /// As [`read_list`]: [`PersistError::Rsse`] for an `RSSEIDX2` entry
    /// whose length prefix is not [`ENTRY_CT_LEN`], which only a hostile
    /// store can hold; [`PersistError::Io`] when a part fails to read.
    fn whole_list(
        &self,
        pin: &Option<GenerationPin>,
        label: &Label,
    ) -> Result<Cow<'_, [u8]>, PersistError> {
        let resident = self.lists.list(label).unwrap_or_default();
        if readers(pin).any(|r| r.directory().contains_key(label)) {
            read_list(readers(pin), label, resident).map(Cow::Owned)
        } else {
            Ok(Cow::Borrowed(resident))
        }
    }

    /// Every list as `(label, bytes)` in label order
    /// ([`Self::whole_list`]).
    ///
    /// # Errors
    ///
    /// As [`Self::whole_list`].
    pub(crate) fn whole_lists(&self) -> Result<Vec<WholeList<'_>>, PersistError> {
        let pin = self.pin_generations();
        (self.labels().into_iter())
            .map(|label| Ok((label, self.whole_list(&pin, &label)?)))
            .collect()
    }

    /// Exports the index as `(label, entry_len, bytes)` triples in label
    /// order (the owner's side of the `Outsource` message), every list
    /// under an `entry_len` of [`ENTRY_CT_LEN`].
    ///
    /// # Errors
    ///
    /// [`RsseError::MalformedList`] for an `RSSEIDX2` entry of a
    /// generational store whose length prefix is not [`ENTRY_CT_LEN`];
    /// [`RsseError::StoreRead`] when a list fails to read off its
    /// generation file. An in-memory index never fails.
    pub fn export_parts(&self) -> Result<ListParts, RsseError> {
        let lists = self.whole_lists().map_err(read_error)?;
        Ok(lists
            .into_iter()
            .map(|(label, bytes)| (label, ENTRY_CT_LEN as u32, bytes.into_owned()))
            .collect())
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
    /// operation. Returns an empty vector for unknown labels. Entries are
    /// decrypted four per cipher call into stack buffers, so a query
    /// allocates nothing per entry and nothing beyond its result vector
    /// (and, with `top_k`, the heap).
    ///
    /// With a generational store, the list's parts in the generations are
    /// read off disk into one buffer (one positional read per generation)
    /// with the resident part appended, and that buffer is ranked; the
    /// ranking is byte-identical to the one list in memory (see
    /// [`crate::generation`]). A list with no part on disk is ranked in
    /// its resident buffer, uncopied. A list that fails to read ranks as
    /// empty here; [`Self::try_search`] reports it. The search pins one
    /// snapshot of the generations up front, so a query in flight across
    /// a compaction's flip keeps ranking against that snapshot.
    pub fn search(&self, trapdoor: &RsseTrapdoor, top_k: Option<usize>) -> Vec<RankedResult> {
        self.try_search(trapdoor, top_k).unwrap_or_default()
    }

    /// [`Self::search`], failing where a list read fails — the server's
    /// form, so that an unreadable store never answers an empty ranking.
    ///
    /// # Errors
    ///
    /// [`RsseError::StoreRead`] when a part of the list fails to read off
    /// its generation file; [`RsseError::MalformedList`] for an
    /// `RSSEIDX2` entry whose length prefix is not [`ENTRY_CT_LEN`].
    pub fn try_search(
        &self,
        trapdoor: &RsseTrapdoor,
        top_k: Option<usize>,
    ) -> Result<Vec<RankedResult>, RsseError> {
        let pin = self.pin_generations();
        let list = self
            .whole_list(&pin, trapdoor.label())
            .map_err(read_error)?;
        if list.is_empty() {
            return Ok(Vec::new());
        }
        let cipher = SemanticCipher::new(trapdoor.list_key());
        Ok(rank_entries(entries(&list), &cipher, top_k))
    }

    /// Whether a list with this label exists (the access-pattern leakage of
    /// any SSE scheme — exposed explicitly for the adversary experiments).
    pub fn contains_label(&self, label: &Label) -> bool {
        self.list_len(label).is_some()
    }

    /// Number of posting lists (`m`, the number of distinct keywords).
    pub fn num_lists(&self) -> usize {
        self.labels().len()
    }

    /// Length of the list stored under `label`, if present: its entries
    /// in every generation plus the resident ones.
    pub fn list_len(&self, label: &Label) -> Option<usize> {
        let pin = self.pin_generations();
        let on_disk = readers(&pin).filter_map(|r| r.directory().get(label));
        (on_disk.map(|list| list.count as usize))
            .chain(self.lists.list_len(label))
            .reduce(|a, b| a + b)
    }

    /// Total index size in bytes: labels once per list, plus the entries
    /// of every generation and the resident ones.
    pub fn size_bytes(&self) -> usize {
        let pin = self.pin_generations();
        let on_disk: usize = readers(&pin).map(SegmentReader::base_payload).sum();
        let resident = self.lists.size_bytes() - 20 * self.lists.num_lists();
        20 * self.num_lists() + on_disk + resident
    }

    /// Labels whose posting lists hold at least one entry, in unspecified
    /// order. This is the *conservative* label-ownership export behind the
    /// shard-router label filters: a padding entry counts like a real one
    /// (the index cannot tell them apart without the per-list key), so the
    /// returned set is a superset of the labels with real postings — safe
    /// to prune against, never missing a label that could contribute to a
    /// ranking. Reads only list lengths, no entry payloads.
    pub fn occupied_labels(&self) -> Vec<Label> {
        self.labels()
            .into_iter()
            .filter(|label| self.list_len(label).is_some_and(|n| n > 0))
            .collect()
    }

    /// Appends freshly encrypted entries to a (possibly new) posting list —
    /// the *score dynamics* operation of §VII. Existing entries are never
    /// touched, and no other list moves; OPM guarantees their order
    /// relative to the new ones stays correct. The entries land in the
    /// resident list, and with a generational store stay there (merged at
    /// query time) until [`Self::flush_updates`].
    ///
    /// Note: growth of a list is visible to the server (an inherent leakage
    /// of dynamic updates, acknowledged by the update literature).
    ///
    /// # Errors
    ///
    /// [`RsseError::MalformedList`], with the index unchanged, when
    /// `bytes` is not empty and not whole [`ENTRY_CT_LEN`]-byte entries
    /// under an `entry_len` of [`ENTRY_CT_LEN`].
    pub fn append_entries(
        &mut self,
        label: Label,
        entry_len: u32,
        bytes: &[u8],
    ) -> Result<(), RsseError> {
        admit(&label, entry_len, bytes)?;
        self.lists.append(label, bytes);
        Ok(())
    }

    /// Raw encrypted entries of one list (what an adversary observes
    /// *before* any trapdoor is issued). Owned bytes: a generational
    /// store reads them off disk. `None` for an unknown label or a list
    /// that fails to read.
    pub fn raw_list(&self, label: &Label) -> Option<Vec<Vec<u8>>> {
        if !self.contains_label(label) {
            return None;
        }
        let list = self.whole_list(&self.pin_generations(), label).ok()?;
        Some(entries(&list).map(<[u8]>::to_vec).collect())
    }
}

/// Decrypts and ranks one stream of encrypted posting entries — the one
/// decrypt path of every search, batch and conjunctive included. The
/// entry count sizes the full-sort output vector. Entries that fail to
/// decode (padding, entries under another key or of another length) are
/// dropped, exactly as the paper's server does; the rest are decrypted
/// four per cipher call ([`real_entries`]).
pub(crate) fn rank_entries<'a>(
    entries: impl ExactSizeIterator<Item = &'a [u8]>,
    cipher: &SemanticCipher,
    top_k: Option<usize>,
) -> Vec<RankedResult> {
    let reserve = entries.len();
    let decrypted = real_entries(entries, cipher).map(|(file, encrypted_score)| RankedResult {
        file,
        encrypted_score,
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
    fn batched_rank_entries_equal_per_entry_decryption() {
        use crate::entry::{decode_entry, encode_entry, seal_entry};
        use rsse_crypto::Tape;
        let key = SecretKey::derive(b"k", "list");
        let cipher = SemanticCipher::new(&key);
        let other = SemanticCipher::new(&SecretKey::derive(b"k", "other list"));
        let mut coins = Tape::new(&key, b"entries");
        // Real entries (two of them share a score), padding, an entry under
        // another list's key, entries of 31, 33 and 16 bytes, and a real
        // entry in the 40-byte layout of a 16-byte nonce.
        let mut pool: Vec<Vec<u8>> = Vec::new();
        for i in 0..6u64 {
            let mut nonce = [0u8; 8];
            coins.fill_bytes(&mut nonce);
            let mut entry = Vec::new();
            seal_entry(
                &cipher,
                nonce,
                FileId::new(100 + i),
                1000 + i % 5,
                &mut entry,
            );
            pool.push(entry);
        }
        let mut padding = vec![0u8; ENTRY_CT_LEN];
        coins.fill_bytes(&mut padding);
        pool.push(padding);
        let mut foreign = Vec::new();
        seal_entry(&other, [9; 8], FileId::new(7), 5, &mut foreign);
        pool.push(foreign);
        let real = pool[0].clone();
        pool.push(real[..ENTRY_CT_LEN - 1].to_vec());
        pool.push([real.as_slice(), &[0]].concat());
        pool.push(real[..16].to_vec());
        pool.push(cipher.encrypt_with_nonce([3; 16], &encode_entry(FileId::new(8), 6)));
        let reference = |list: &[Vec<u8>], top_k: Option<usize>| {
            let mut scratch = Vec::new();
            let mut all: Vec<RankedResult> = list
                .iter()
                .filter_map(|ct| {
                    // Widen the entry's 8-byte nonce to the 16-byte counter
                    // block `nonce ‖ 0^64` that `SemanticCipher` reads.
                    let widened = [ct.get(..8)?, &[0u8; 8], &ct[8..]].concat();
                    cipher.decrypt_into(&widened, &mut scratch).ok()?;
                    let (file, encrypted_score) = decode_entry(&scratch)?;
                    Some(RankedResult {
                        file,
                        encrypted_score,
                    })
                })
                .collect();
            all.sort_by(|a, b| b.cmp(a));
            all.truncate(top_k.unwrap_or(usize::MAX));
            all
        };
        for len in 0..=9 {
            for start in 0..pool.len() {
                let list: Vec<Vec<u8>> = (0..len)
                    .map(|i| pool[(start + i * 7) % pool.len()].clone())
                    .collect();
                for top_k in [None, Some(0), Some(1), Some(3), Some(20)] {
                    let got = rank_entries(list.iter().map(Vec::as_slice), &cipher, top_k);
                    assert_eq!(
                        got,
                        reference(&list, top_k),
                        "len {len} start {start} top_k {top_k:?}"
                    );
                }
            }
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
    fn mem_index_round_trips_lists_through_the_storage_seam() {
        let label = |b: u8| -> Label { [b; 20] };
        let entries = vec![vec![1u8; ENTRY_CT_LEN], vec![2u8; ENTRY_CT_LEN]];
        let mut idx = RsseIndex::default();
        idx.append_entries(label(1), ENTRY_CT_LEN as u32, &entries.concat())
            .unwrap();
        idx.append_entries(label(2), 0, &[]).unwrap();
        assert!(idx.contains_label(&label(1)));
        assert!(
            idx.contains_label(&label(2)),
            "an empty list still materializes its label"
        );
        assert!(!idx.contains_label(&label(3)));
        assert_eq!(idx.num_lists(), 2);
        assert_eq!(idx.list_len(&label(1)), Some(2));
        assert_eq!(idx.list_len(&label(2)), Some(0));
        assert_eq!(idx.raw_list(&label(1)), Some(entries));
        assert_eq!(idx.raw_list(&label(9)), None);
        let mut labels = idx.labels();
        labels.sort_unstable();
        assert_eq!(labels, vec![label(1), label(2)]);
        assert_eq!(idx.occupied_labels(), vec![label(1)]);
    }

    #[test]
    fn hostile_lists_are_refused_whole() {
        let opse = OpseParams::default();
        let len = ENTRY_CT_LEN as u32;
        let good = ([9u8; 20], len, vec![1; 2 * ENTRY_CT_LEN]);
        let refused = [
            ([1u8; 20], 0, vec![7u8; 3]), // bytes under entry length 0
            ([2u8; 20], len, vec![7u8; ENTRY_CT_LEN + 1]), // not a whole number of entries
            ([3u8; 20], 40, vec![7u8; 80]), // whole, but 40-byte entries
            ([4u8; 20], 40, vec![7u8; 160]), // 40-byte entries whose bytes tile 32 too
        ];
        for (label, entry_len, bytes) in refused {
            let parts = vec![good.clone(), (label, entry_len, bytes.clone())];
            assert_eq!(
                RsseIndex::from_parts(parts, opse).unwrap_err(),
                RsseError::MalformedList(label)
            );
            let mut idx = RsseIndex::from_parts(vec![good.clone()], opse).unwrap();
            assert_eq!(
                idx.append_entries(label, entry_len, &bytes),
                Err(RsseError::MalformedList(label))
            );
            assert_eq!(idx.export_parts(), Ok(vec![good.clone()]));
        }
        // A repeated label appends, through the same door; an empty list
        // under any entry length is legal, iterates as empty and exports
        // under the scheme's.
        let twice = vec![good.clone(), (good.0, len, vec![2; ENTRY_CT_LEN])];
        let idx = RsseIndex::from_parts(twice, opse).unwrap();
        assert_eq!(idx.list_len(&good.0), Some(3));
        let twice = vec![good.clone(), (good.0, 8, vec![2; 8])];
        assert!(RsseIndex::from_parts(twice, opse).is_err());
        let idx = RsseIndex::from_parts(vec![([4u8; 20], 0, vec![])], opse).unwrap();
        assert_eq!(idx.raw_list(&[4u8; 20]), Some(vec![]));
        assert_eq!(idx.export_parts(), Ok(vec![([4u8; 20], len, vec![])]));
    }

    #[test]
    fn appends_take_only_whole_entries_on_either_engine() {
        let len = ENTRY_CT_LEN as u32;
        let (long, empty) = ([1u8; 20], [2u8; 20]);
        let parts = vec![(long, len, vec![7u8; 2 * ENTRY_CT_LEN]), (empty, 0, vec![])];
        let mut mem = RsseIndex::from_parts(parts, OpseParams::default()).unwrap();
        let io = crate::segio::MemIo::new();
        let mut gen = mem.save_generational_with_io(io.shared(), "/gen").unwrap();
        for index in [&mut mem, &mut gen] {
            let before = index.export_parts().unwrap();
            for (entry_len, bytes) in [(40, vec![9; 80]), (40, vec![9; 160]), (len, vec![9; 40])] {
                assert_eq!(
                    index.append_entries(long, entry_len, &bytes),
                    Err(RsseError::MalformedList(long)),
                    "{entry_len}-byte entries, {} bytes",
                    bytes.len()
                );
            }
            assert_eq!(index.export_parts(), Ok(before));
            assert_eq!(index.list_len(&long), Some(2));
            // An empty append takes any length, and an empty list takes
            // whole entries.
            index.append_entries(long, 40, &[]).unwrap();
            index
                .append_entries(empty, len, &[9; 2 * ENTRY_CT_LEN])
                .unwrap();
        }
        // What the generational index flushes and compacts stays whole.
        assert!(gen.flush_updates().unwrap());
        gen.append_entries(long, len, &[8; ENTRY_CT_LEN]).unwrap();
        mem.append_entries(long, len, &[8; ENTRY_CT_LEN]).unwrap();
        assert!(gen.compact().unwrap());
        assert_eq!(gen.export_parts(), mem.export_parts());
        let (mut saved_gen, mut saved_mem) = (Vec::new(), Vec::new());
        gen.save(&mut saved_gen).unwrap();
        mem.save(&mut saved_mem).unwrap();
        assert_eq!(saved_gen, saved_mem);
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
        assert!(idx.generation_stats().is_none());
    }
}
