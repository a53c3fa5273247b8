//! Order-preserving encryption for ranked searchable symmetric encryption.
//!
//! This crate implements the cryptographic heart of *"Secure Ranked Keyword
//! Search over Encrypted Cloud Data"* (ICDCS 2010):
//!
//! * [`OpseCipher`] — the deterministic order-preserving symmetric
//!   encryption of Boldyreva et al. (Eurocrypt'09), realized as a
//!   lazily-sampled binary search over a keyed hypergeometric tree;
//! * [`Opm`] — the paper's **one-to-many order-preserving mapping**
//!   (Algorithm 1), which seeds the final ciphertext choice with the file ID
//!   so duplicate relevance scores spread uniformly over their bucket;
//! * [`range`] — the min-entropy range-size selection of §IV-C (Fig. 5).
//!
//! # Example
//!
//! ```
//! use rsse_crypto::SecretKey;
//! use rsse_opse::{Opm, OpseParams};
//!
//! # fn main() -> Result<(), rsse_opse::OpseError> {
//! let opm = Opm::new(SecretKey::derive(b"seed", "w1"), OpseParams::paper_default());
//! let a = opm.encrypt(90, 1034)?;
//! let b = opm.encrypt(12, 2616)?;
//! // The cloud server ranks by comparing mapped values directly:
//! assert!(a > b);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod opm;
#[allow(clippy::module_inception)]
pub mod opse;
pub mod params;
pub mod range;
pub mod tree;

pub use error::OpseError;
pub use opm::Opm;
pub use opse::OpseCipher;
pub use params::{OpseParams, MAX_RANGE};
pub use range::{HalvingBound, RangeSelector};
pub use tree::{Bucket, SearchTree, WalkStats};
