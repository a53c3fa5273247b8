//! `TapeGen` — the deterministic random-coin generator of the paper's
//! Algorithm 1.
//!
//! OPSE's lazy binary search needs, at every tree node, coins that are (a)
//! pseudorandom, (b) *identical* for every plaintext reaching that node, and
//! (c) committed to the whole transcript `(D, R, ...)` so different nodes are
//! independent. The paper writes `coin <- TapeGen(K, (D, R, 0||y))` for the
//! HGD draw and `coin <- TapeGen(K, (D, R, 1||m, id(F)))` for the final
//! one-to-many ciphertext choice.
//!
//! [`Tape`] is an HMAC-DRBG-style expander: `seed = HMAC(K, transcript)`,
//! block_i = `HMAC(seed, i)`. The tape keys one HMAC with the seed when it
//! is created and clones that keyed state for every block, so a 32-byte
//! block costs two SHA-256 compressions and no allocation; a caller
//! opening many tapes under one `K` keys `HMAC(K, ·)` once and hands it to
//! [`Tape::with_keyed`]. Bulk bytes (the builders' padding) come from a
//! ChaCha20 keystream keyed off the tape instead
//! ([`crate::chacha::pad_from_tape`]). [`Transcript`] provides the
//! canonical, injective encoding of the tuple.

use crate::hmac::Hmac;
use crate::keys::SecretKey;
use crate::Sha256;

/// Bytes per tape block: one HMAC-SHA-256 output.
const BLOCK: usize = 32;

/// Canonical injective encoder for `TapeGen` inputs.
///
/// Every field is tagged and length-delimited, so `("ab","c")` and
/// `("a","bc")` produce different transcripts.
///
/// # Example
///
/// ```
/// use rsse_crypto::tape::Transcript;
///
/// let t1 = Transcript::new("hgd").u64(1).u64(23).finish();
/// let t2 = Transcript::new("hgd").u64(12).u64(3).finish();
/// assert_ne!(t1, t2);
/// ```
#[derive(Debug, Clone)]
pub struct Transcript {
    buf: Vec<u8>,
}

impl Transcript {
    /// Starts a transcript with a domain-separation label.
    pub fn new(domain: &str) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&(domain.len() as u32).to_be_bytes());
        buf.extend_from_slice(domain.as_bytes());
        Transcript { buf }
    }

    /// Appends a `u64` field.
    #[must_use]
    pub fn u64(mut self, v: u64) -> Self {
        self.buf.push(1);
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a `u128` field (range endpoints can exceed 64 bits of
    /// intermediate arithmetic; stored wide for future-proofing).
    #[must_use]
    pub fn u128(mut self, v: u128) -> Self {
        self.buf.push(2);
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a length-delimited byte-string field.
    #[must_use]
    pub fn bytes(mut self, v: &[u8]) -> Self {
        self.buf.push(3);
        self.buf.extend_from_slice(&(v.len() as u64).to_be_bytes());
        self.buf.extend_from_slice(v);
        self
    }

    /// Returns the encoded transcript.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A deterministic pseudorandom coin tape keyed on `(key, transcript)`.
///
/// # Example
///
/// ```
/// use rsse_crypto::{SecretKey, Tape};
/// use rsse_crypto::tape::Transcript;
///
/// let key = SecretKey::derive(b"seed", "opse");
/// let t = Transcript::new("demo").u64(7).finish();
/// let mut a = Tape::new(&key, &t);
/// let mut b = Tape::new(&key, &t);
/// assert_eq!(a.next_u64(), b.next_u64()); // same transcript, same coins
/// ```
#[derive(Clone)]
pub struct Tape {
    /// `HMAC(seed, ·)` with the seed already absorbed into both pads.
    keyed: Hmac<Sha256>,
    block: [u8; BLOCK],
    block_index: u64,
    offset: usize,
}

/// Shows only how far the tape has run: the keyed state stands for the
/// seed, and the buffered block holds the next coins.
impl core::fmt::Debug for Tape {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Tape {{ block_index: {}, seed and block: <redacted> }}",
            self.block_index
        )
    }
}

impl Tape {
    /// Creates a tape from `key` and an encoded transcript.
    pub fn new(key: &SecretKey, transcript: &[u8]) -> Self {
        Self::with_keyed(&Hmac::new(key.as_bytes()), transcript)
    }

    /// [`Self::new`] from `HMAC(key, ·)` already keyed: a caller opening
    /// many tapes under one key (an OPSE search tree) keys it once and
    /// saves the two compressions of keying on every tape.
    pub fn with_keyed(keyed: &Hmac<Sha256>, transcript: &[u8]) -> Self {
        let mut mac = keyed.clone();
        mac.update(transcript);
        let seed = mac.finalize();
        let mut tape = Tape {
            keyed: Hmac::new(&seed),
            block: [0u8; BLOCK],
            block_index: 0,
            offset: BLOCK,
        };
        tape.refill();
        tape
    }

    fn refill(&mut self) {
        let mut mac = self.keyed.clone();
        mac.update(&self.block_index.to_be_bytes());
        self.block = mac.finalize();
        self.block_index += 1;
        self.offset = 0;
    }

    /// Fills `out` with pseudorandom bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        let mut filled = 0;
        while filled < out.len() {
            if self.offset == BLOCK {
                self.refill();
            }
            let n = (BLOCK - self.offset).min(out.len() - filled);
            out[filled..filled + n].copy_from_slice(&self.block[self.offset..self.offset + n]);
            self.offset += n;
            filled += n;
        }
    }

    /// Draws the next pseudorandom `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut buf = [0u8; 8];
        self.fill_bytes(&mut buf);
        u64::from_be_bytes(buf)
    }

    /// Draws the next pseudorandom `u128`.
    pub fn next_u128(&mut self) -> u128 {
        let mut buf = [0u8; 16];
        self.fill_bytes(&mut buf);
        u128::from_be_bytes(buf)
    }

    /// Draws a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Draws a uniform integer in `[0, n)` by rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "uniform_below(0) is meaningless");
        if n.is_power_of_two() {
            return self.next_u64() & (n - 1);
        }
        // Rejection sampling over the largest multiple of n below 2^64.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Draws a uniform integer in `[0, n)` for a 128-bit bound.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform_below_u128(&mut self, n: u128) -> u128 {
        assert!(n > 0, "uniform_below_u128(0) is meaningless");
        if n.is_power_of_two() {
            return self.next_u128() & (n - 1);
        }
        let zone = u128::MAX - (u128::MAX % n);
        loop {
            let v = self.next_u128();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Draws a uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        let span = (hi - lo) as u128 + 1;
        lo + self.uniform_below_u128(span) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmac::hmac_sha256;

    fn key() -> SecretKey {
        SecretKey::derive(b"tape test", "k")
    }

    #[test]
    fn deterministic_per_transcript() {
        let t = Transcript::new("t").u64(5).finish();
        let mut a = Tape::new(&key(), &t);
        let mut b = Tape::new(&key(), &t);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn pre_keyed_tapes_equal_keyed_per_tape() {
        let keyed = Hmac::<Sha256>::new(key().as_bytes());
        for i in 0..20u64 {
            let t = Transcript::new("t").u64(i).bytes(&[7; 70]).finish();
            let mut a = Tape::new(&key(), &t);
            let mut b = Tape::with_keyed(&keyed, &t);
            let (mut x, mut y) = ([0u8; 77], [0u8; 77]);
            a.fill_bytes(&mut x);
            b.fill_bytes(&mut y);
            assert_eq!(x, y, "transcript {i}");
        }
    }

    #[test]
    fn different_transcripts_diverge() {
        let mut a = Tape::new(&key(), &Transcript::new("t").u64(5).finish());
        let mut b = Tape::new(&key(), &Transcript::new("t").u64(6).finish());
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn different_keys_diverge() {
        let t = Transcript::new("t").u64(5).finish();
        let mut a = Tape::new(&SecretKey::derive(b"k1", "t"), &t);
        let mut b = Tape::new(&SecretKey::derive(b"k2", "t"), &t);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn transcript_encoding_is_injective_across_field_splits() {
        let t1 = Transcript::new("x").bytes(b"ab").bytes(b"c").finish();
        let t2 = Transcript::new("x").bytes(b"a").bytes(b"bc").finish();
        assert_ne!(t1, t2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut tape = Tape::new(&key(), b"f64");
        for _ in 0..1000 {
            let v = tape.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn f64_mean_is_roughly_half() {
        let mut tape = Tape::new(&key(), b"mean");
        let n = 10_000;
        let sum: f64 = (0..n).map(|_| tape.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn uniform_below_bounds_and_coverage() {
        let mut tape = Tape::new(&key(), b"ub");
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = tape.uniform_below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit in 1000 draws");
    }

    #[test]
    fn uniform_in_covers_inclusive_endpoints() {
        let mut tape = Tape::new(&key(), b"ui");
        let (mut lo_hit, mut hi_hit) = (false, false);
        for _ in 0..2000 {
            let v = tape.uniform_in(5, 8);
            assert!((5..=8).contains(&v));
            lo_hit |= v == 5;
            hi_hit |= v == 8;
        }
        assert!(lo_hit && hi_hit);
    }

    #[test]
    fn uniform_in_singleton() {
        let mut tape = Tape::new(&key(), b"s");
        assert_eq!(tape.uniform_in(7, 7), 7);
    }

    #[test]
    fn uniform_below_u128_large_bound() {
        let mut tape = Tape::new(&key(), b"u128");
        let n = 1u128 << 100;
        for _ in 0..100 {
            assert!(tape.uniform_below_u128(n) < n);
        }
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn uniform_below_zero_panics() {
        Tape::new(&key(), b"z").uniform_below(0);
    }

    #[test]
    fn fill_bytes_across_block_boundary() {
        let mut tape = Tape::new(&key(), b"fb");
        let mut a = vec![0u8; 100];
        tape.fill_bytes(&mut a);
        // Same stream read in odd-sized chunks must match.
        let mut tape2 = Tape::new(&key(), b"fb");
        let mut b = vec![0u8; 100];
        for chunk in b.chunks_mut(7) {
            tape2.fill_bytes(chunk);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn debug_redacts_the_seed_and_the_block() {
        let transcript = Transcript::new("t").u64(9).finish();
        let tape = Tape::new(&key(), &transcript);
        let seed = hmac_sha256(key().as_bytes(), &transcript);
        let mut block = [0u8; BLOCK];
        tape.clone().fill_bytes(&mut block);
        let shown = format!("{tape:?}");
        assert!(shown.contains("block_index: 1"), "{shown}");
        for secret in [seed, block] {
            for w in secret.windows(3) {
                let decimal = format!("{}, {}, {}", w[0], w[1], w[2]);
                let hex = format!("{:02x}{:02x}{:02x}", w[0], w[1], w[2]);
                assert!(
                    !shown.contains(&decimal) && !shown.contains(&hex),
                    "{shown}"
                );
            }
        }
    }
}
