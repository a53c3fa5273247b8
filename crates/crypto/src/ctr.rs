//! Semantically secure symmetric encryption `E` (AES-128-CTR).
//!
//! This is the cipher the paper calls
//! `E : {0,1}^l' x {0,1}^r -> {0,1}^r` — used for every real posting
//! entry, for `E_z(S_ij)` score encryption in the basic scheme and for
//! file-content encryption in the cloud simulation. CTR mode with a fresh
//! nonce per message gives IND-CPA security; the nonce is carried in the
//! ciphertext header. Four counter blocks go through the bitsliced kernel
//! per call ([`crate::aes`]). The builders' padding carries no plaintext
//! and comes off the list's coin tape, a ChaCha20 keystream, instead
//! ([`crate::Tape::fill_bytes`]).

use crate::aes::{Aes128, BLOCK_LEN, PARALLEL_BLOCKS};
use crate::error::CryptoError;
use crate::keys::SecretKey;

/// Byte length of the per-message nonce prepended to each ciphertext.
pub const NONCE_LEN: usize = BLOCK_LEN;

/// AES-128-CTR cipher with explicit nonces.
///
/// The 256-bit [`SecretKey`] is compressed to the AES-128 key by taking its
/// first 16 bytes (the key is uniform, so any 128-bit substring is uniform).
///
/// # Example
///
/// ```
/// use rsse_crypto::{SecretKey, SemanticCipher};
///
/// let cipher = SemanticCipher::new(&SecretKey::derive(b"seed", "z"));
/// let ct = cipher.encrypt_with_nonce([9u8; 16], b"score=13.42");
/// assert_eq!(cipher.decrypt(&ct).unwrap(), b"score=13.42");
/// ```
#[derive(Clone)]
pub struct SemanticCipher {
    aes: Aes128,
}

impl core::fmt::Debug for SemanticCipher {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "SemanticCipher {{ key: <redacted> }}")
    }
}

impl SemanticCipher {
    /// Creates the cipher from a [`SecretKey`].
    pub fn new(key: &SecretKey) -> Self {
        SemanticCipher {
            aes: Aes128::new(&key.as_bytes()[..16]),
        }
    }

    /// XORs `data` with the keystream from counter `nonce` on, the
    /// counter a big-endian 128-bit integer that wraps at 2^128.
    fn keystream_xor(&self, nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
        let mut counter = u128::from_be_bytes(*nonce);
        for chunk in data.chunks_mut(PARALLEL_BLOCKS * BLOCK_LEN) {
            let mut blocks = [[0u8; BLOCK_LEN]; PARALLEL_BLOCKS];
            for block in &mut blocks {
                *block = counter.to_be_bytes();
                counter = counter.wrapping_add(1);
            }
            self.aes.encrypt_blocks(&mut blocks);
            for (d, k) in chunk.iter_mut().zip(blocks.as_flattened()) {
                *d ^= k;
            }
        }
    }

    /// Replaces each of four counter blocks with its keystream block
    /// `AES_k(counter)`: one kernel call for the first keystream blocks
    /// of four messages under different nonces, which is how the server
    /// decrypts posting entries four at a time.
    pub fn keystream_blocks(&self, counters: &mut [[u8; BLOCK_LEN]; PARALLEL_BLOCKS]) {
        self.aes.encrypt_blocks(counters);
    }

    /// Encrypts `plaintext` under the given `nonce`.
    ///
    /// The ciphertext layout is `nonce || plaintext ^ keystream`. The caller
    /// must never reuse a nonce under the same key; higher layers draw nonces
    /// from a [`crate::Tape`] or an OS RNG.
    pub fn encrypt_with_nonce(&self, nonce: [u8; NONCE_LEN], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(NONCE_LEN + plaintext.len());
        self.encrypt_with_nonce_into(nonce, plaintext, &mut out);
        out
    }

    /// [`Self::encrypt_with_nonce`] appending the ciphertext to `out`, so
    /// a caller laying many ciphertexts back to back (a posting list)
    /// allocates nothing per message.
    pub fn encrypt_with_nonce_into(
        &self,
        nonce: [u8; NONCE_LEN],
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) {
        let start = out.len();
        out.extend_from_slice(&nonce);
        out.extend_from_slice(plaintext);
        self.keystream_xor(&nonce, &mut out[start + NONCE_LEN..]);
    }

    /// Decrypts a ciphertext produced by [`Self::encrypt_with_nonce`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::CiphertextTooShort`] if `ciphertext` does not
    /// even contain the nonce header.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if ciphertext.len() < NONCE_LEN {
            return Err(CryptoError::CiphertextTooShort {
                got: ciphertext.len(),
                need: NONCE_LEN,
            });
        }
        let nonce: [u8; NONCE_LEN] = ciphertext[..NONCE_LEN].try_into().expect("checked above");
        let mut body = ciphertext[NONCE_LEN..].to_vec();
        self.keystream_xor(&nonce, &mut body);
        Ok(body)
    }

    /// Decrypts into a caller-provided scratch buffer, avoiding the per-call
    /// allocation of [`Self::decrypt`]. `scratch` is cleared and refilled
    /// with the plaintext; its capacity is reused across calls, so a hot
    /// loop decrypting fixed-size entries allocates only on the first call.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::CiphertextTooShort`] if `ciphertext` does not
    /// even contain the nonce header (leaving `scratch` empty).
    pub fn decrypt_into(
        &self,
        ciphertext: &[u8],
        scratch: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        scratch.clear();
        if ciphertext.len() < NONCE_LEN {
            return Err(CryptoError::CiphertextTooShort {
                got: ciphertext.len(),
                need: NONCE_LEN,
            });
        }
        let nonce: [u8; NONCE_LEN] = ciphertext[..NONCE_LEN].try_into().expect("checked above");
        scratch.extend_from_slice(&ciphertext[NONCE_LEN..]);
        self.keystream_xor(&nonce, scratch);
        Ok(())
    }
}

/// A stateful sealer guaranteeing unique nonces for one cipher instance.
///
/// Each [`Sealer`] combines a caller-chosen 64-bit `instance_id` with a
/// monotone message counter, so two sealers with distinct instance IDs never
/// collide, and one sealer never repeats. The data owner derives instance
/// IDs from its coin tape.
///
/// # Example
///
/// ```
/// use rsse_crypto::ctr::Sealer;
/// use rsse_crypto::{SecretKey, SemanticCipher};
///
/// let cipher = SemanticCipher::new(&SecretKey::derive(b"seed", "z"));
/// let mut sealer = Sealer::new(cipher.clone(), 7);
/// let c1 = sealer.seal(b"same message");
/// let c2 = sealer.seal(b"same message");
/// assert_ne!(c1, c2, "semantic security: equal plaintexts, distinct ciphertexts");
/// assert_eq!(cipher.decrypt(&c1).unwrap(), cipher.decrypt(&c2).unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct Sealer {
    cipher: SemanticCipher,
    instance_id: u64,
    counter: u64,
}

impl Sealer {
    /// Creates a sealer over `cipher` with a unique `instance_id`.
    pub fn new(cipher: SemanticCipher, instance_id: u64) -> Self {
        Sealer {
            cipher,
            instance_id,
            counter: 0,
        }
    }

    /// Encrypts `plaintext` with the next unique nonce.
    ///
    /// # Panics
    ///
    /// Panics after 2^64 messages (counter exhaustion), which is unreachable
    /// in practice.
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let mut nonce = [0u8; NONCE_LEN];
        nonce[..8].copy_from_slice(&self.instance_id.to_be_bytes());
        nonce[8..].copy_from_slice(&self.counter.to_be_bytes());
        self.counter = self
            .counter
            .checked_add(1)
            .expect("sealer counter exhausted");
        self.cipher.encrypt_with_nonce(nonce, plaintext)
    }

    /// Number of messages sealed so far.
    pub fn sealed_count(&self) -> u64 {
        self.counter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt.
    #[test]
    fn sp800_38a_ctr_aes128() {
        let key_bytes = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
        let mut key = [0u8; 32];
        key[..16].copy_from_slice(&key_bytes);
        // SemanticCipher uses the first 16 bytes of the 256-bit key.
        let cipher = SemanticCipher::new(&SecretKey::from_bytes(key));
        let nonce: [u8; 16] = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
            .try_into()
            .unwrap();
        let pt = from_hex(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
        );
        let ct = cipher.encrypt_with_nonce(nonce, &pt);
        assert_eq!(
            ct[NONCE_LEN..].to_vec(),
            from_hex(
                "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff\
                 5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee"
            )
        );
        assert_eq!(cipher.decrypt(&ct).unwrap(), pt);
    }

    #[test]
    fn roundtrip_various_lengths() {
        let cipher = SemanticCipher::new(&SecretKey::derive(b"k", "ctr"));
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 100, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = cipher.encrypt_with_nonce([len as u8; 16], &pt);
            assert_eq!(cipher.decrypt(&ct).unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn decrypt_into_matches_decrypt_and_reuses_buffer() {
        let cipher = SemanticCipher::new(&SecretKey::derive(b"k", "ctr"));
        let mut scratch = Vec::new();
        for len in [0usize, 1, 16, 33, 100] {
            let pt: Vec<u8> = (0..len).map(|i| i as u8 ^ 0x5A).collect();
            let ct = cipher.encrypt_with_nonce([len as u8; 16], &pt);
            cipher.decrypt_into(&ct, &mut scratch).unwrap();
            assert_eq!(scratch, cipher.decrypt(&ct).unwrap(), "len {len}");
        }
        let before_cap = scratch.capacity();
        let ct = cipher.encrypt_with_nonce([7; 16], &[1u8; 50]);
        cipher.decrypt_into(&ct, &mut scratch).unwrap();
        assert_eq!(scratch.capacity(), before_cap.max(50));
        assert!(cipher.decrypt_into(&[0u8; 3], &mut scratch).is_err());
        assert!(scratch.is_empty());
    }

    #[test]
    fn too_short_ciphertext_is_an_error() {
        let cipher = SemanticCipher::new(&SecretKey::derive(b"k", "ctr"));
        let err = cipher.decrypt(&[0u8; 5]).unwrap_err();
        assert_eq!(err, CryptoError::CiphertextTooShort { got: 5, need: 16 });
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let cipher = SemanticCipher::new(&SecretKey::derive(b"k", "ctr"));
        let ct = cipher.encrypt_with_nonce([1; 16], b"");
        assert_eq!(ct.len(), NONCE_LEN);
        assert_eq!(cipher.decrypt(&ct).unwrap(), b"");
    }

    #[test]
    fn sealer_nonces_never_repeat() {
        let cipher = SemanticCipher::new(&SecretKey::derive(b"k", "ctr"));
        let mut s = Sealer::new(cipher, 42);
        let mut headers = std::collections::HashSet::new();
        for _ in 0..100 {
            let ct = s.seal(b"x");
            assert!(headers.insert(ct[..NONCE_LEN].to_vec()));
        }
        assert_eq!(s.sealed_count(), 100);
    }

    #[test]
    fn distinct_instances_distinct_nonces() {
        let cipher = SemanticCipher::new(&SecretKey::derive(b"k", "ctr"));
        let mut a = Sealer::new(cipher.clone(), 1);
        let mut b = Sealer::new(cipher, 2);
        assert_ne!(a.seal(b"m")[..NONCE_LEN], b.seal(b"m")[..NONCE_LEN]);
    }

    /// The byte-wise oracle's CTR: one block per counter, one at a time.
    fn oracle_ctr(key: &[u8; 16], nonce: [u8; 16], data: &[u8]) -> Vec<u8> {
        let aes = crate::aes::oracle::Aes128::new(key);
        let mut counter = u128::from_be_bytes(nonce);
        let mut out = data.to_vec();
        for chunk in out.chunks_mut(BLOCK_LEN) {
            let mut block = counter.to_be_bytes();
            aes.encrypt_block(&mut block);
            chunk.iter_mut().zip(block).for_each(|(d, k)| *d ^= k);
            counter = counter.wrapping_add(1);
        }
        out
    }

    fn cipher_with(aes_key: &[u8; 16]) -> SemanticCipher {
        let mut key = [0u8; 32];
        key[..16].copy_from_slice(aes_key);
        SemanticCipher::new(&SecretKey::from_bytes(key))
    }

    #[test]
    fn random_keys_counters_and_lengths_match_the_oracle() {
        let mut coins = Tape::new(&SecretKey::derive(b"ctr oracle", "k"), b"cases");
        for case in 0..402 {
            let mut key = [0u8; 16];
            let mut nonce = [0u8; 16];
            coins.fill_bytes(&mut key);
            coins.fill_bytes(&mut nonce);
            // Every length 0..=200 twice: partial blocks, 1 to 13 blocks.
            let len = case % 201;
            let mut pt = vec![0u8; len];
            coins.fill_bytes(&mut pt);
            let cipher = cipher_with(&key);
            let ct = cipher.encrypt_with_nonce(nonce, &pt);
            assert_eq!(ct[NONCE_LEN..], oracle_ctr(&key, nonce, &pt), "len {len}");
            assert_eq!(cipher.decrypt(&ct).unwrap(), pt);
        }
    }

    #[test]
    fn counter_wraps_at_2_pow_128_inside_one_call() {
        let key = [0x3cu8; 16];
        // Counters 2^128 - 2, 2^128 - 1, 0, 1, 2: the wrap falls inside
        // the first four-block call.
        let nonce = (u128::MAX - 1).to_be_bytes();
        let pt = [0x5au8; 5 * BLOCK_LEN + 3];
        let ct = cipher_with(&key).encrypt_with_nonce(nonce, &pt);
        assert_eq!(ct[NONCE_LEN..], oracle_ctr(&key, nonce, &pt));
        let zero = cipher_with(&key).encrypt_with_nonce([0; 16], &pt[..BLOCK_LEN]);
        assert_eq!(
            ct[NONCE_LEN + 2 * BLOCK_LEN..][..BLOCK_LEN],
            zero[NONCE_LEN..]
        );
    }

    #[test]
    fn keystream_blocks_are_each_counters_first_block() {
        let key = [0x71u8; 16];
        let cipher = cipher_with(&key);
        let nonces = [[1u8; 16], [0xff; 16], [0; 16], [1u8; 16]];
        let mut blocks = nonces;
        cipher.keystream_blocks(&mut blocks);
        for (nonce, block) in nonces.iter().zip(&blocks) {
            assert_eq!(block.to_vec(), oracle_ctr(&key, *nonce, &[0; BLOCK_LEN]));
        }
    }

    #[test]
    fn debug_redacts_the_key() {
        let cipher = cipher_with(&[0x42; 16]);
        assert_eq!(format!("{cipher:?}"), "SemanticCipher { key: <redacted> }");
        let shown = format!("{:?}", Sealer::new(cipher, 1));
        assert!(
            !shown.contains("66") && shown.contains("<redacted>"),
            "{shown}"
        );
    }

    #[test]
    fn wrong_key_garbles() {
        let c1 = SemanticCipher::new(&SecretKey::derive(b"k1", "ctr"));
        let c2 = SemanticCipher::new(&SecretKey::derive(b"k2", "ctr"));
        let ct = c1.encrypt_with_nonce([3; 16], b"hello world!");
        assert_ne!(c2.decrypt(&ct).unwrap(), b"hello world!");
    }
}
