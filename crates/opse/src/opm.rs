//! The paper's contribution: **one-to-many order-preserving mapping** (OPM).
//!
//! Algorithm 1 of the paper keeps OPSE's random plaintext-to-bucket
//! assignment but seeds the final ciphertext choice with the *file ID* in
//! addition to the plaintext: `coin <- TapeGen(K, (D, R, 1‖m, id(F)))`.
//! Here the choice's coins are the tape at the address `(m, id)` under
//! the tree key ([`crate::tree`]), so a file id is a `u64`. Equal
//! relevance scores attached to different files therefore map to
//! *different* (uniform) points of the same bucket, flattening the
//! keyword-specific score distribution the server could otherwise
//! fingerprint (paper Fig. 4 vs Fig. 6) while still preserving order.

use crate::error::OpseError;
use crate::params::OpseParams;
use crate::tree::{Bucket, SearchTree, WalkStats};
use rsse_crypto::SecretKey;

/// One-to-many order-preserving mapping.
///
/// # Example
///
/// ```
/// use rsse_crypto::SecretKey;
/// use rsse_opse::{Opm, OpseParams};
///
/// # fn main() -> Result<(), rsse_opse::OpseError> {
/// let opm = Opm::new(
///     SecretKey::derive(b"seed", "opm"),
///     OpseParams::new(128, 1 << 46)?,
/// );
/// // The same score in two files maps to two different ciphertexts ...
/// let c1 = opm.encrypt(42, 1)?;
/// let c2 = opm.encrypt(42, 2)?;
/// assert_ne!(c1, c2);
/// // ... but order against other scores is preserved for both,
/// let c3 = opm.encrypt(43, 3)?;
/// assert!(c1 < c3 && c2 < c3);
/// // ... and both decrypt to the original score.
/// assert_eq!(opm.decrypt(c1)?, 42);
/// assert_eq!(opm.decrypt(c2)?, 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Opm {
    tree: SearchTree,
}

impl Opm {
    /// Creates the mapping with memoized tree splits.
    pub fn new(key: SecretKey, params: OpseParams) -> Self {
        Opm {
            tree: SearchTree::new(key, params),
        }
    }

    /// Creates the mapping without the split cache (honest per-op cost for
    /// the Fig. 7 benchmark).
    pub fn new_uncached(key: SecretKey, params: OpseParams) -> Self {
        Opm {
            tree: SearchTree::new_uncached(key, params),
        }
    }

    /// The mapping's domain/range parameters.
    pub fn params(&self) -> &OpseParams {
        self.tree.params()
    }

    /// Maps score `m` for the file with id `file_id` into the range.
    ///
    /// Deterministic per `(m, file_id)` pair — re-encrypting the same score
    /// of the same file yields the same ciphertext (needed for index
    /// rebuild-free updates) — but different files spread across the bucket.
    ///
    /// # Errors
    ///
    /// Returns [`OpseError::PlaintextOutOfDomain`] for `m` outside `{1..M}`.
    pub fn encrypt(&self, m: u64, file_id: u64) -> Result<u64, OpseError> {
        let (bucket, _) = self.tree.bucket_of_plaintext(m)?;
        Ok(self.tree.choose_in_bucket(&bucket, Some(file_id)))
    }

    /// Like [`Self::encrypt`], additionally returning walk statistics.
    ///
    /// # Errors
    ///
    /// Same as [`Self::encrypt`].
    pub fn encrypt_with_stats(&self, m: u64, file_id: u64) -> Result<(u64, WalkStats), OpseError> {
        let (bucket, stats) = self.tree.bucket_of_plaintext(m)?;
        Ok((self.tree.choose_in_bucket(&bucket, Some(file_id)), stats))
    }

    /// Recovers the score from a mapped value (any ciphertext of the bucket
    /// decrypts to the bucket's plaintext — the data owner's view).
    ///
    /// # Errors
    ///
    /// Returns [`OpseError::CiphertextOutOfRange`] for values outside the
    /// range or in dead range space.
    pub fn decrypt(&self, c: u64) -> Result<u64, OpseError> {
        Ok(self.tree.bucket_of_ciphertext(c)?.0.plaintext)
    }

    /// The bucket assigned to score `m` — identical to the deterministic
    /// OPSE bucket under the same key, exposed for the security analysis.
    ///
    /// # Errors
    ///
    /// Same as [`Self::encrypt`].
    pub fn bucket(&self, m: u64) -> Result<Bucket, OpseError> {
        Ok(self.tree.bucket_of_plaintext(m)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opm() -> Opm {
        Opm::new(
            SecretKey::derive(b"opm tests", "k"),
            OpseParams::new(128, 1 << 40).unwrap(),
        )
    }

    #[test]
    fn one_to_many_same_score_different_files() {
        let o = opm();
        let mut seen = std::collections::HashSet::new();
        for i in 0..200u64 {
            let c = o.encrypt(64, i).unwrap();
            seen.insert(c);
        }
        // With a bucket of expected size 2^40/128 = 2^33, 200 draws collide
        // with probability ~2^-19; require near-total distinctness.
        assert!(
            seen.len() >= 199,
            "only {} distinct ciphertexts",
            seen.len()
        );
    }

    #[test]
    fn deterministic_per_file() {
        let o = opm();
        assert_eq!(o.encrypt(10, 0xa).unwrap(), o.encrypt(10, 0xa).unwrap());
    }

    #[test]
    fn order_preserved_across_files() {
        let o = opm();
        // Every ciphertext of score m must sort below every ciphertext of
        // score m' > m, regardless of the file IDs involved.
        for m in (1..120).step_by(13) {
            for df in 0..5u64 {
                let lo = o.encrypt(m, df).unwrap();
                let hi = o.encrypt(m + 1, 100 + df).unwrap();
                assert!(lo < hi, "m={m} df={df}");
            }
        }
    }

    #[test]
    fn decrypt_recovers_score_for_every_file() {
        let o = opm();
        for m in [1u64, 2, 64, 127, 128] {
            for f in 0..10u64 {
                let c = o.encrypt(m, f).unwrap();
                assert_eq!(o.decrypt(c).unwrap(), m);
            }
        }
    }

    #[test]
    fn ciphertexts_stay_in_their_bucket() {
        let o = opm();
        let bucket = o.bucket(77).unwrap();
        for f in 0..50u64 {
            let c = o.encrypt(77, f).unwrap();
            assert!(bucket.contains(c));
        }
    }

    #[test]
    fn same_bucket_as_deterministic_opse() {
        // OPM only changes the final ciphertext choice; the plaintext-to-
        // bucket assignment is inherited from OPSE under the same key.
        let key = SecretKey::derive(b"shared", "k");
        let params = OpseParams::new(64, 1 << 30).unwrap();
        let opm = Opm::new(key.clone(), params);
        let opse = crate::OpseCipher::new(key, params);
        for m in 1..=64 {
            assert_eq!(opm.bucket(m).unwrap(), opse.bucket(m).unwrap());
        }
    }

    #[test]
    fn score_dynamics_insertions_do_not_move_old_values() {
        // The section VII claim: mapping score s for a new file never
        // changes previously mapped values, because buckets are fixed by
        // (key, score) alone.
        let o = opm();
        let old: Vec<u64> = (1..=50).map(|m| o.encrypt(m, 7).unwrap()).collect();
        // "Insert" many new postings.
        for m in 1..=128 {
            for f in 100..120u64 {
                let _ = o.encrypt(m, f).unwrap();
            }
        }
        let again: Vec<u64> = (1..=50).map(|m| o.encrypt(m, 7).unwrap()).collect();
        assert_eq!(old, again);
    }

    #[test]
    fn rejects_out_of_domain() {
        let o = opm();
        assert!(o.encrypt(0, 1).is_err());
        assert!(o.encrypt(129, 1).is_err());
    }
}
