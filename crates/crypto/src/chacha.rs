//! The ChaCha20 block function (Bernstein 2008; RFC 8439) and HChaCha20,
//! XChaCha20's subkey step (draft-irtf-cfrg-xchacha-03 §2.2): the stream
//! behind every coin the owner draws.
//!
//! [`crate::Tape`] expands a 256-bit key into the ChaCha20 keystream under
//! it (nonce 0), so OPSE/OPM node coins, entry nonces and the padding that
//! fills each posting list to ν (Fig. 3, step 3) all come off this block
//! function. The key is an HMAC-SHA-256 seed of a transcript
//! ([`crate::Tape::new`]), or HChaCha20 of a key at a 128-bit address
//! ([`crate::Tape::at`], which is XChaCha20 at the nonce `address ‖ 0^64`).
//! Both are twenty rounds of 32-bit additions, rotations by constants and
//! XORs on a 16-word state, so they run fast in plain scalar code and are
//! constant-time by construction (no table, no secret-indexed load, no
//! secret-dependent branch). [`crate::SemanticCipher`] stays AES-128-CTR
//! for every real entry and file body.

/// ChaCha20 key length in bytes.
pub(crate) const KEY_LEN: usize = 32;

/// ChaCha20 nonce length in bytes (RFC 8439's 96-bit nonce).
pub(crate) const NONCE_LEN: usize = 12;

/// Bytes of keystream per block.
pub(crate) const BLOCK_LEN: usize = 64;

/// The state's first row: "expand 32-byte k" as four little-endian words.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// The quarter round (RFC 8439 §2.1) on state words `a`, `b`, `c`, `d`.
#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// The initial state (RFC 8439 §2.3): constants, key, block counter 0
/// (word 12) and nonce, each read as little-endian words.
pub(crate) fn initial_state(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
    let word = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4-byte chunk"));
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    for (s, k) in state[4..12].iter_mut().zip(key.chunks_exact(4)) {
        *s = word(k);
    }
    for (s, n) in state[13..].iter_mut().zip(nonce.chunks_exact(4)) {
        *s = word(n);
    }
    state
}

/// The twenty rounds: ten double rounds, each a column round then a
/// diagonal round.
#[inline(always)]
fn rounds(x: &mut [u32; 16]) {
    for _ in 0..10 {
        quarter_round(x, 0, 4, 8, 12);
        quarter_round(x, 1, 5, 9, 13);
        quarter_round(x, 2, 6, 10, 14);
        quarter_round(x, 3, 7, 11, 15);
        quarter_round(x, 0, 5, 10, 15);
        quarter_round(x, 1, 6, 11, 12);
        quarter_round(x, 2, 7, 8, 13);
        quarter_round(x, 3, 4, 9, 14);
    }
}

/// The block function on a prepared state: the twenty rounds, then the
/// input added word by word, written little-endian into `out`.
#[inline(always)]
pub(crate) fn block(input: &[u32; 16], out: &mut [u8; BLOCK_LEN]) {
    let mut x = *input;
    rounds(&mut x);
    for ((o, x), i) in out.chunks_exact_mut(4).zip(x).zip(input) {
        o.copy_from_slice(&x.wrapping_add(*i).to_le_bytes());
    }
}

/// HChaCha20 (draft-irtf-cfrg-xchacha-03 §2.2): the state of
/// [`initial_state`] with `input`'s 16 little-endian bytes in words
/// 12–15, put through the twenty rounds with no final addition; words
/// 0–3 and 12–15, little-endian, are the 256-bit output. A PRF on 128-bit
/// inputs, the assumption XChaCha20 rests on.
pub(crate) fn hchacha20(key: &[u8; KEY_LEN], input: u128) -> [u8; KEY_LEN] {
    let mut x = initial_state(key, &[0; NONCE_LEN]);
    for (i, word) in x[12..].iter_mut().enumerate() {
        *word = (input >> (32 * i)) as u32;
    }
    rounds(&mut x);
    let mut out = [0u8; KEY_LEN];
    for (o, x) in out.chunks_exact_mut(4).zip(x[..4].iter().chain(&x[12..])) {
        o.copy_from_slice(&x.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hmac_sha256, SecretKey, Tape};

    fn from_hex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The first `len` bytes of the keystream under `key` and `nonce`,
    /// block counter from 0 (RFC 8439 §2.4), one block at a time.
    fn keystream(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], len: usize) -> Vec<u8> {
        let mut state = initial_state(key, nonce);
        let mut stream = Vec::with_capacity(len.next_multiple_of(BLOCK_LEN));
        while stream.len() < len {
            let mut out = [0u8; BLOCK_LEN];
            block(&state, &mut out);
            stream.extend_from_slice(&out);
            state[12] += 1;
        }
        stream.truncate(len);
        stream
    }

    /// Key `00 01 .. 1f`, the key of RFC 8439's §2.3.2 and §2.4.2 vectors.
    fn rfc_key() -> [u8; KEY_LEN] {
        core::array::from_fn(|i| i as u8)
    }

    // RFC 8439 §2.1.1.
    #[test]
    fn rfc8439_quarter_round() {
        let mut s = [0u32; 16];
        s[..4].copy_from_slice(&[0x1111_1111, 0x0102_0304, 0x9b8d_6f43, 0x0123_4567]);
        quarter_round(&mut s, 0, 1, 2, 3);
        assert_eq!(s[..4], [0xea2a_92f4, 0xcb1c_f8ce, 0x4581_472e, 0x5881_c4bb]);
    }

    // RFC 8439 §2.3.2.
    #[test]
    fn rfc8439_block_function() {
        let nonce = from_hex("00 00 00 09 00 00 00 4a 00 00 00 00");
        let mut state = initial_state(&rfc_key(), nonce.as_slice().try_into().unwrap());
        state[12] = 1;
        let mut out = [0u8; BLOCK_LEN];
        block(&state, &mut out);
        assert_eq!(
            out.to_vec(),
            from_hex(
                "10 f1 e7 e4 d1 3b 59 15 50 0f dd 1f a3 20 71 c4
                 c7 d1 f4 c7 33 c0 68 03 04 22 aa 9a c3 d4 6c 4e
                 d2 82 64 46 07 9f aa 09 14 c2 d7 05 d9 8b 02 a2
                 b5 12 9c d1 de 16 4e b9 cb d0 83 e8 a2 50 3c 4e"
            )
        );
    }

    // RFC 8439 §2.4.2: the keystream from block counter 1 (here, from
    // byte 64 of the stream from counter 0) XORed onto the plaintext.
    #[test]
    fn rfc8439_keystream() {
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let nonce = from_hex("00 00 00 00 00 00 00 4a 00 00 00 00");
        let stream = keystream(
            &rfc_key(),
            nonce.as_slice().try_into().unwrap(),
            BLOCK_LEN + plaintext.len(),
        );
        let ciphertext: Vec<u8> = plaintext
            .iter()
            .zip(&stream[BLOCK_LEN..])
            .map(|(p, k)| p ^ k)
            .collect();
        assert_eq!(
            ciphertext,
            from_hex(
                "6e 2e 35 9a 25 68 f9 80 41 ba 07 28 dd 0d 69 81
                 e9 7e 7a ec 1d 43 60 c2 0a 27 af cc fd 9f ae 0b
                 f9 1b 65 c5 52 47 33 ab 8f 59 3d ab cd 62 b3 57
                 16 39 d6 24 e6 51 52 ab 8f 53 0c 35 9f 08 61 d8
                 07 ca 0d bf 50 0d 6a 61 56 a3 8e 08 8a 22 b6 5e
                 52 bc 51 4d 16 cc f8 06 81 8c e9 1a b7 79 37 36
                 5a f9 0b bf 74 a3 5b e6 b4 0b 8e ed f2 78 5e 42
                 87 4d"
            )
        );
    }

    // draft-irtf-cfrg-xchacha-03 §2.2.1: the key of RFC 8439's vectors
    // and the 16 input bytes 00000009 0000004a 00000000 31415927.
    #[test]
    fn xchacha_draft_hchacha20() {
        let input = from_hex("00 00 00 09 00 00 00 4a 00 00 00 00 31 41 59 27");
        let input = u128::from_le_bytes(input.as_slice().try_into().unwrap());
        assert_eq!(
            hchacha20(&rfc_key(), input).to_vec(),
            from_hex(
                "82 41 3b 42 27 b2 7b fe d3 0e 42 50 8a 87 7d 73
                 a0 f9 e4 d5 8a 74 a8 53 c1 2e c4 13 26 d3 ec dc"
            )
        );
    }

    /// The tape at an address is XChaCha20 there: the keystream under the
    /// subkey `HChaCha20(K, address)`, nonce 0, block counter from 0,
    /// however its reads cut the blocks.
    #[test]
    fn a_tape_at_an_address_is_the_keystream_under_its_subkey() {
        let key = SecretKey::derive(b"k", "at");
        for address in [0, 1, 1 << 126 | 7 << 64 | 9, u128::MAX] {
            let want = keystream(&hchacha20(key.as_bytes(), address), &[0; NONCE_LEN], 300);
            for size in [1, 7, 63, 64, 65, 129, 300] {
                let mut tape = Tape::at(&key, address);
                let mut got = vec![0u8; 300];
                for chunk in got.chunks_mut(size) {
                    tape.fill_bytes(chunk);
                }
                assert_eq!(got, want, "address {address:#x}, reads of {size}");
            }
        }
    }

    fn pin_tape() -> Tape {
        Tape::new(&SecretKey::derive(b"k", "pad"), b"list")
    }

    /// A list's padding, read in one call after its real entries' nonces,
    /// is the tape's next bytes: the ChaCha20 keystream under the seed
    /// `HMAC(K, transcript)`, nonce 0, from where the nonces stopped.
    #[test]
    fn padding_is_the_tapes_next_bytes() {
        let seed = hmac_sha256(SecretKey::derive(b"k", "pad").as_bytes(), b"list");
        let nonces = 3 * 16;
        let want = keystream(&seed, &[0; NONCE_LEN], nonces + 40_000);
        for len in (0..=300).chain([40_000]) {
            let mut tape = pin_tape();
            for _ in 0..3 {
                tape.fill_bytes(&mut [0u8; 16]);
            }
            let mut pad = vec![0xeeu8; len];
            tape.fill_bytes(&mut pad);
            assert_eq!(pad, want[nonces..nonces + len], "len {len}");
        }
    }

    #[test]
    fn empty_padding_draws_nothing() {
        let mut untouched = pin_tape();
        untouched.fill_bytes(&mut []);
        assert_eq!(untouched.next_u64(), pin_tape().next_u64());
        let (mut padded, mut plain) = (pin_tape(), pin_tape());
        padded.fill_bytes(&mut [0u8; 16]);
        padded.fill_bytes(&mut []);
        plain.fill_bytes(&mut [0u8; 16]);
        assert_eq!(padded.next_u64(), plain.next_u64());
    }
}
