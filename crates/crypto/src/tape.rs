//! `TapeGen` — the deterministic random-coin generator of the paper's
//! Algorithm 1.
//!
//! OPSE's lazy binary search needs, at every tree node, coins that are (a)
//! pseudorandom, (b) *identical* for every plaintext reaching that node, and
//! (c) independent from node to node. The paper writes `coin <- TapeGen(K,
//! (D, R, 0||y))` for the HGD draw and `coin <- TapeGen(K, (D, R, 1||m,
//! id(F)))` for the final one-to-many ciphertext choice.
//!
//! A [`Tape`] is the ChaCha20 keystream (RFC 8439, nonce 0, block counter
//! from 0) under a 256-bit key, opened one of two ways:
//!
//! - [`Tape::new`]`(K, transcript)` keys it with the seed `HMAC-SHA-256(K,
//!   transcript)`, for a transcript of any length; [`Transcript`] provides
//!   the canonical, injective encoding of a tuple. Each list's build and
//!   each owner update opens one, for its entry nonces and padding.
//! - [`Tape::at`]`(K, address)` keys it with `HChaCha20(K, address)` for a
//!   128-bit address: XChaCha20's keystream at the nonce `address ‖ 0^64`.
//!   Its twenty rounds cost about a third of an HMAC seed's two SHA-256
//!   compressions under a key hashed into the HMAC once, so the OPSE tree,
//!   which opens one tape per node split and per ciphertext choice,
//!   addresses every coin this way under a tree key from [`subkey_at`].
//!
//! Each 64 bytes of coins then cost one ChaCha20 block. The same stream
//! feeds every coin the owner draws: OPSE/OPM node coins, entry nonces
//! and, read in bulk, the padding that fills each posting list to ν.

use crate::chacha::{self, BLOCK_LEN, KEY_LEN, NONCE_LEN};
use crate::hmac::hmac_sha256;
use crate::keys::SecretKey;

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

/// A deterministic pseudorandom coin tape keyed on `(key, transcript)`
/// ([`Tape::new`]) or on `(key, address)` ([`Tape::at`]).
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
    /// The ChaCha20 input state: constants, the seed or subkey as key
    /// words, the next block's counter and nonce 0.
    state: [u32; 16],
    /// The last block drawn; the bytes from `offset` on are unread.
    block: [u8; BLOCK_LEN],
    offset: usize,
}

/// Shows only how far the tape has run: the state's key words are the
/// seed or subkey, and the buffered block holds the next coins.
impl core::fmt::Debug for Tape {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Tape {{ blocks: {}, seed and block: <redacted> }}",
            self.blocks()
        )
    }
}

impl Tape {
    /// Creates a tape from `key` and an encoded transcript: the keystream
    /// under the seed `HMAC-SHA-256(key, transcript)`.
    pub fn new(key: &SecretKey, transcript: &[u8]) -> Self {
        Self::keyed(&hmac_sha256(key.as_bytes(), transcript))
    }

    /// The tape at `address` under `key`: XChaCha20's keystream at the
    /// 24-byte nonce `address.to_le_bytes() ‖ 0^8`, which is the keystream
    /// under [`subkey_at`]`(key, address)`. Tapes at distinct addresses are
    /// independent as long as HChaCha20 is a PRF.
    pub fn at(key: &SecretKey, address: u128) -> Self {
        Self::keyed(&chacha::hchacha20(key.as_bytes(), address))
    }

    /// The keystream under the 256-bit `key`, nonce 0, before its first
    /// block.
    fn keyed(key: &[u8; KEY_LEN]) -> Self {
        Tape {
            state: chacha::initial_state(key, &[0; NONCE_LEN]),
            block: [0; BLOCK_LEN],
            offset: BLOCK_LEN,
        }
    }

    /// Blocks drawn so far: the block counter, whose 64 bits span state
    /// words 12 and 13.
    fn blocks(&self) -> u64 {
        u64::from(self.state[12]) | u64::from(self.state[13]) << 32
    }

    /// Writes the next keystream block into `out` and steps the counter.
    /// Past 2^32 blocks (256 GiB) it carries into word 13, the nonce's
    /// first word, as Bernstein's original 64-bit counter does, so the
    /// first 2^32 blocks are RFC 8439's keystream and the tape never
    /// repeats.
    fn next_block(state: &mut [u32; 16], out: &mut [u8; BLOCK_LEN]) {
        chacha::block(state, out);
        state[12] = state[12].wrapping_add(1);
        state[13] += u32::from(state[12] == 0);
    }

    /// Fills `out` with the tape's next bytes: what is left of the
    /// buffered block, then whole blocks written straight into `out`,
    /// then the head of one more block, whose rest stays buffered.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        let buffered = (BLOCK_LEN - self.offset).min(out.len());
        let (head, rest) = out.split_at_mut(buffered);
        head.copy_from_slice(&self.block[self.offset..self.offset + buffered]);
        self.offset += buffered;
        let mut whole = rest.chunks_exact_mut(BLOCK_LEN);
        for chunk in &mut whole {
            Self::next_block(&mut self.state, chunk.try_into().expect("one block"));
        }
        let tail = whole.into_remainder();
        if !tail.is_empty() {
            Self::next_block(&mut self.state, &mut self.block);
            tail.copy_from_slice(&self.block[..tail.len()]);
            self.offset = tail.len();
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

/// HChaCha20 of `key` at `address`, as a key: the subkey [`Tape::at`]
/// expands. An OPSE tree derives its tree key this way, once, from its
/// key and parameters.
pub fn subkey_at(key: &SecretKey, address: u128) -> SecretKey {
    SecretKey::from_bytes(chacha::hchacha20(key.as_bytes(), address))
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn different_addresses_and_keys_diverge() {
        let draw = |key: &SecretKey, address| Tape::at(key, address).next_u64();
        let other = SecretKey::derive(b"tape test", "other");
        assert_ne!(draw(&key(), 5), draw(&key(), 6));
        assert_ne!(draw(&key(), 5), draw(&key(), 5 << 64));
        assert_ne!(draw(&key(), 5), draw(&other, 5));
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
        let mut a = vec![0u8; 1000];
        tape.fill_bytes(&mut a);
        // The same stream read in chunks that start and end inside blocks
        // and span whole ones must match.
        for size in [1, 7, 63, 64, 65, 129, 300] {
            let mut tape2 = Tape::new(&key(), b"fb");
            let mut b = vec![0u8; 1000];
            for chunk in b.chunks_mut(size) {
                tape2.fill_bytes(chunk);
            }
            assert_eq!(a, b, "chunks of {size}");
        }
    }

    #[test]
    fn block_counter_carries_into_the_next_word() {
        let mut tape = Tape::new(&key(), b"carry");
        tape.state[12] = u32::MAX;
        tape.fill_bytes(&mut [0u8; 2 * BLOCK_LEN]);
        assert_eq!((tape.state[12], tape.state[13]), (1, 1));
        assert_eq!(tape.blocks(), (1 << 32) + 1);
    }

    #[test]
    fn debug_redacts_the_seed_and_the_block() {
        let transcript = Transcript::new("t").u64(9).finish();
        let mut tape = Tape::new(&key(), &transcript);
        tape.next_u64();
        let seed = hmac_sha256(key().as_bytes(), &transcript);
        let shown = format!("{tape:?}");
        assert!(shown.contains("blocks: 1"), "{shown}");
        for word in &tape.state[4..12] {
            assert!(
                !shown.contains(&word.to_string()) && !shown.contains(&format!("{word:x}")),
                "{shown}"
            );
        }
        for secret in [&seed[..], &tape.block[..]] {
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
