//! **Ranked searchable symmetric encryption** — the efficient scheme of
//! *"Secure Ranked Keyword Search over Encrypted Cloud Data"* (ICDCS 2010).
//!
//! The basic scheme ([`rsse-sse`](../rsse_sse/index.html)) keeps scores
//! semantically encrypted, forcing client-side ranking and either full-list
//! transfers or a second round trip. This crate replaces the score cipher
//! with the **one-to-many order-preserving mapping**
//! ([`rsse-opse`](../rsse_opse/index.html)): the server unwraps posting
//! entries with the trapdoor's list key, compares mapped scores directly,
//! and returns only the top-k most relevant files in a single round.
//!
//! * [`Rsse`] — `KeyGen` / `BuildIndex` / `TrapdoorGen`, parallel index
//!   construction, owner-side score recovery;
//! * [`RsseIndex`] — the server-held encrypted index with heap-based top-k
//!   `SearchIndex`;
//! * [`IndexUpdater`] — the §VII *score dynamics*: new documents append to
//!   the index without perturbing any existing ciphertext;
//! * [`RsseParams`] — score levels `M`, range policy (fixed `2^46` or the
//!   §IV-C min-entropy auto-selection), and padding.
//!
//! # Example
//!
//! ```
//! use rsse_core::{Rsse, RsseParams};
//! use rsse_ir::{Document, FileId};
//!
//! # fn main() -> Result<(), rsse_core::RsseError> {
//! let docs = vec![
//!     Document::new(FileId::new(1), "cloud storage encryption"),
//!     Document::new(FileId::new(2), "encryption encryption keys"),
//! ];
//! let scheme = Rsse::new(b"master secret", RsseParams::default());
//! let index = scheme.build_index(&docs)?;
//! let trapdoor = scheme.trapdoor("encryption")?;
//! let top1 = index.search(&trapdoor, Some(1));
//! assert_eq!(top1[0].file, FileId::new(2)); // tf=2 outranks tf=1
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod entry;
pub mod error;
pub mod generation;
pub mod index;
pub mod multi;
pub mod params;
pub mod persist;
pub mod scheme;
pub mod segio;
pub mod segment;
pub mod store;

pub use backend::{BackendKind, IndexBackend, MemBackend};
pub use error::RsseError;
pub use generation::{
    CompactionStats, GenerationPin, GenerationStats, GenerationalBackend, LiveCompaction,
};
pub use index::{
    merge_ranked_streams, ranked_prefix, Label, RankedResult, RsseIndex, RsseTrapdoor,
};
pub use multi::{canonical_label_order, ConjunctiveResult, ConjunctiveStats, MultiTrapdoor};
pub use params::{Padding, RangePolicy, RsseParams};
pub use persist::PersistError;
pub use scheme::{BuildReport, IndexUpdate, IndexUpdater, Rsse, ScoreDecryptor};
pub use segio::{MemIo, SegmentIo, SegmentRead, SegmentWrite, StdIo};
pub use segment::BatchReadStats;
pub use store::{PostingIter, PostingList, PostingStore};
