//! From-scratch symmetric cryptographic primitives for the RSSE reproduction.
//!
//! The paper ("Secure Ranked Keyword Search over Encrypted Cloud Data",
//! ICDCS 2010) instantiates its scheme from four primitives:
//!
//! * a pseudo-random function `f : {0,1}^k x {0,1}* -> {0,1}^l` used to derive
//!   per-posting-list keys — here [`Prf`] (HMAC-SHA-256);
//! * a collision-resistant keyed hash `pi : {0,1}^k x {0,1}* -> {0,1}^p` used
//!   to label posting lists — here [`KeyedLabel`] (HMAC-SHA-1, `p = 160` bits,
//!   exactly the paper's suggested SHA-1 instantiation);
//! * a semantically secure symmetric cipher `E` used to encrypt relevance
//!   scores and index entries in the *basic* scheme — here [`SemanticCipher`]
//!   (AES-128 in CTR mode with a random per-message nonce);
//! * a random-coin generator `TapeGen` consumed by the order-preserving
//!   encryption binary search — here [`tape::Tape`] at a node's 128-bit
//!   address (XChaCha20: the ChaCha20 keystream of RFC 8439 under
//!   `HChaCha20(K, address)`).
//!
//! The same keystream, under a seed `HMAC(K, transcript)`, draws every
//! entry nonce and the padding that fills each posting list to ν (Fig. 3,
//! step 3).
//!
//! Everything is implemented in this crate from first principles (no external
//! crypto dependencies) and pinned by known-answer tests from the FIPS / RFC
//! test vectors.
//!
//! # Example
//!
//! ```
//! use rsse_crypto::{Prf, SecretKey};
//!
//! let key = SecretKey::from_bytes([7u8; 32]);
//! let prf = Prf::new(&key);
//! let tag1 = prf.eval(b"network");
//! let tag2 = prf.eval(b"network");
//! assert_eq!(tag1, tag2); // deterministic
//! assert_ne!(tag1, prf.eval(b"protocol"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod aes;
mod chacha;
pub mod ct;
pub mod ctr;
pub mod digest;
pub mod error;
pub mod hmac;
pub mod keys;
pub mod prf;
pub mod sha1;
pub mod sha256;
pub mod tape;

pub use aead::AuthenticatedCipher;
pub use aes::{Aes128, BLOCK_LEN};
pub use ct::ct_eq;
pub use ctr::SemanticCipher;
pub use digest::Digest;
pub use error::CryptoError;
pub use hmac::{hmac_sha1, hmac_sha256, Hmac};
pub use keys::{KeyMaterial, SecretKey};
pub use prf::{KeyedLabel, Prf};
pub use sha1::Sha1;
pub use sha256::Sha256;
pub use tape::Tape;
