//! The paper's **basic scheme** (§III-C): ranked keyword search with
//! unmodified SSE security.
//!
//! The server learns only the access pattern and search pattern — relevance
//! scores stay semantically encrypted — but therefore *cannot rank*: every
//! search returns the full padded posting list, and the user decrypts,
//! ranks, and (optionally, at the cost of a second round trip) fetches the
//! top-k files. This crate is both the correctness oracle for
//! [`rsse-core`](../rsse_core/index.html) and the baseline whose overheads
//! the efficient scheme eliminates.
//!
//! See [`BasicScheme`] for the entry point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod entry;
pub mod error;
pub mod scheme;

pub use error::SseError;
pub use scheme::{BasicEncryptedIndex, BasicScheme, Entries, PaddingPolicy, ScoredFile, Trapdoor};
