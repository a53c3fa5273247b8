//! The pluggable index storage engine: [`IndexBackend`] and the in-memory
//! [`MemBackend`].
//!
//! Curtmola et al. (CCS'06) already treat the SSE index as an opaque
//! server-side data structure, and that is exactly the seam this trait
//! cuts along: the OPM-encrypted posting bytes are the contract between
//! the scheme and the server, the *container* holding them is an
//! implementation detail. [`crate::RsseIndex`] dispatches over two
//! containers:
//!
//! * [`MemBackend`] — the flat [`PostingStore`] arena, everything
//!   resident; zero per-entry allocations on the search path (pinned by
//!   the alloc-count regression suite).
//! * [`crate::generation::GenerationalBackend`] — a stack of persisted
//!   `RSSEIDX2` generation files, each served via a per-label offset
//!   directory that reads only the touched posting list per query, with
//!   score-dynamics appends parked in an in-memory delta overlay.
//!
//! Both containers hold the *same ciphertexts*, so every ranking they
//! serve is byte-identical — `tests/backend_equivalence.rs` proves it
//! under random search/update interleavings.

use crate::index::Label;
use crate::store::PostingStore;

/// A container for encrypted posting lists.
///
/// The trait is deliberately narrow: label-addressed entry streams plus
/// append. Ranking, padding, and every cryptographic decision stay above
/// the trait in [`crate::RsseIndex`] — a backend never sees a key and
/// cannot tell a real entry from a padding entry, so swapping backends
/// cannot change what the server learns (the access pattern it observes —
/// which label, how many entries — is identical either way).
pub trait IndexBackend: Send + Sync + core::fmt::Debug {
    /// Whether a list with this label exists.
    fn contains_label(&self, label: &Label) -> bool;

    /// Number of posting lists.
    fn num_lists(&self) -> usize;

    /// Entry count of the list under `label`, if present.
    fn list_len(&self, label: &Label) -> Option<usize>;

    /// Live bytes: labels plus entry payloads.
    fn size_bytes(&self) -> usize;

    /// All labels, in unspecified order.
    fn labels(&self) -> Vec<Label>;

    /// Appends `entries` to the (possibly new) list under `label`,
    /// materializing the label even when `entries` is empty.
    fn append(&mut self, label: Label, entries: &[Vec<u8>]);

    /// Visits every entry of the list under `label` in insertion order
    /// (on disk: generations base first, then the delta overlay).
    /// Returns `false` when the label is unknown.
    fn for_each_entry(&self, label: &Label, visit: &mut dyn FnMut(&[u8])) -> bool;
}

/// Which storage engine an index is running on (see
/// [`crate::RsseIndex::backend_kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The in-memory [`MemBackend`] arena.
    Mem,
    /// The on-disk [`crate::generation::GenerationalBackend`]: a stack of
    /// generation files with L0 delta flushes and live compaction.
    Generational,
}

/// The in-memory backend: the flat [`PostingStore`] arena.
#[derive(Debug, Clone, Default)]
pub struct MemBackend {
    store: PostingStore,
}

impl MemBackend {
    /// An empty backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an already-populated arena (the shard-split path).
    pub(crate) fn from_store(store: PostingStore) -> Self {
        MemBackend { store }
    }

    /// The underlying arena (borrowed; the zero-allocation search path
    /// reads entry ranges straight out of it).
    pub fn store(&self) -> &PostingStore {
        &self.store
    }
}

impl IndexBackend for MemBackend {
    fn contains_label(&self, label: &Label) -> bool {
        self.store.contains_label(label)
    }

    fn num_lists(&self) -> usize {
        self.store.num_lists()
    }

    fn list_len(&self, label: &Label) -> Option<usize> {
        self.store.list_len(label)
    }

    fn size_bytes(&self) -> usize {
        self.store.size_bytes()
    }

    fn labels(&self) -> Vec<Label> {
        self.store.labels().copied().collect()
    }

    fn append(&mut self, label: Label, entries: &[Vec<u8>]) {
        self.store.append(label, entries);
    }

    fn for_each_entry(&self, label: &Label, visit: &mut dyn FnMut(&[u8])) -> bool {
        let Some(list) = self.store.list(label) else {
            return false;
        };
        for entry in list.iter() {
            visit(entry);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn label(b: u8) -> Label {
        [b; 20]
    }

    #[test]
    fn mem_backend_round_trips_through_the_trait() {
        let mut backend = MemBackend::new();
        let entries = vec![vec![1u8; 4], vec![2u8; 4]];
        backend.append(label(1), &entries);
        backend.append(label(2), &[]);
        let b: &mut dyn IndexBackend = &mut backend;
        assert!(b.contains_label(&label(1)));
        assert!(b.contains_label(&label(2)));
        assert!(!b.contains_label(&label(3)));
        assert_eq!(b.num_lists(), 2);
        assert_eq!(b.list_len(&label(1)), Some(2));
        assert_eq!(b.list_len(&label(2)), Some(0));
        let mut seen = Vec::new();
        assert!(b.for_each_entry(&label(1), &mut |e| seen.push(e.to_vec())));
        assert_eq!(seen, entries);
        assert!(!b.for_each_entry(&label(9), &mut |_| panic!("no entries")));
        let mut labels = b.labels();
        labels.sort_unstable();
        assert_eq!(labels, vec![label(1), label(2)]);
    }
}
