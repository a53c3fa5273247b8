//! # rsse — Ranked Searchable Symmetric Encryption
//!
//! Facade crate re-exporting the full RSSE workspace: a reproduction of
//! *"Secure Ranked Keyword Search over Encrypted Cloud Data"* (Wang, Cao,
//! Li, Ren, Lou — ICDCS 2010).
//!
//! The workspace is organised bottom-up:
//!
//! * [`crypto`] — SHA-1/SHA-256, HMAC, AES-CTR, ChaCha20, the `TapeGen` coin generator;
//! * [`hgd`] — exact hypergeometric sampling (`HYGEINV`);
//! * [`opse`] — order-preserving encryption and the one-to-many
//!   order-preserving mapping (OPM), the paper's core primitive;
//! * [`ir`] — tokenizer, inverted index, TF×IDF scoring, synthetic corpus;
//! * [`analysis`] — histograms, min-entropy, distribution distances;
//! * [`sse`] — the paper's *basic scheme* (client-side ranking);
//! * [`core`] — the efficient RSSE scheme (server-side ranking over OPM);
//! * [`baselines`] — related-work baselines for comparison benches;
//! * [`cloud`] — simulated owner/server/user deployment with a wire codec
//!   and bandwidth accounting.
//!
//! # Quickstart
//!
//! ```
//! use rsse::core::{Rsse, RsseParams};
//! use rsse::ir::corpus::{CorpusParams, SyntheticCorpus};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. The data owner generates keys and builds the secure index.
//! let corpus = SyntheticCorpus::generate(&CorpusParams::small(11));
//! let scheme = Rsse::new(b"owner master secret", RsseParams::default());
//! let index = scheme.build_index(corpus.documents())?;
//!
//! // 2. An authorized user asks for the top-5 files for a keyword.
//! let trapdoor = scheme.trapdoor("network")?;
//! let results = index.search(&trapdoor, Some(5));
//!
//! // 3. The server returned at most 5 file IDs, best match first.
//! assert!(results.len() <= 5);
//! # Ok(())
//! # }
//! ```

pub use rsse_analysis as analysis;
pub use rsse_baselines as baselines;
pub use rsse_cloud as cloud;
pub use rsse_core as core;
pub use rsse_crypto as crypto;
pub use rsse_hgd as hgd;
pub use rsse_ir as ir;
pub use rsse_opse as opse;
pub use rsse_oram as oram;
pub use rsse_sse as sse;
