//! Which storage engine an [`RsseIndex`](crate::RsseIndex) runs on.
//!
//! Curtmola et al. (CCS'06) already treat the SSE index as an opaque
//! server-side data structure, and that is exactly where the storage seam
//! is cut: the OPM-encrypted posting bytes are the contract between the
//! scheme and the server, the *container* holding them is an
//! implementation detail. The seam is a private enum inside
//! [`crate::RsseIndex`], matched wherever the index touches posting lists,
//! over two containers:
//!
//! * the flat [`crate::store::PostingStore`] arena, everything resident;
//!   zero per-entry allocations on the search path (pinned by the
//!   alloc-count regression suite).
//! * [`crate::generation::GenerationalBackend`] — a stack of persisted
//!   `RSSEIDX2` generation files, each served via a per-label offset
//!   directory that reads only the touched posting list per query, with
//!   score-dynamics appends parked in an in-memory delta overlay.
//!
//! Ranking, padding and every cryptographic decision stay in
//! [`crate::RsseIndex`]: a container never sees a key and cannot tell a
//! real entry from a padding entry, so swapping containers cannot change
//! what the server learns. Both hold the *same ciphertexts*, so every
//! ranking they serve is byte-identical — `tests/backend_equivalence.rs`
//! proves it under random search/update interleavings.

/// Which storage engine an index is running on (see
/// [`crate::RsseIndex::backend_kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The in-memory [`crate::store::PostingStore`] arena.
    Mem,
    /// The on-disk [`crate::generation::GenerationalBackend`]: a stack of
    /// generation files with L0 delta flushes and live compaction.
    Generational,
}
