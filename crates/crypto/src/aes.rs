//! AES-128 block cipher (FIPS 197), bitsliced and constant-time.
//!
//! This is the block cipher behind [`crate::SemanticCipher`] (AES-CTR), the
//! semantically secure encryption `E` of the paper's basic scheme, and the
//! kernel every real posting entry and file body runs through (padding
//! carries no plaintext and comes off the coin tape, [`crate::Tape`],
//! instead). It encrypts four independent blocks per call in the layout
//! of BearSSL's `aes_ct64`: the 512 bits of four blocks are transposed
//! into eight 64-bit words, word `j` holding bit `j` of every byte, so
//! each round is a fixed sequence of word-wide boolean operations.
//! The S-box is the Boyar–Peralta circuit (115 gates) evaluated on all 64
//! bytes at once; ShiftRows and MixColumns are shifts and rotations of the
//! words. No load is indexed by a key- or data-derived value and no branch
//! depends on one, key schedule included (its SubWord runs the same
//! circuit), so the cipher's timing and memory trace are independent of
//! key and data. CTR mode feeds it four counters per call, and the server's
//! search decrypts four posting entries' first blocks per call.

/// AES block length in bytes.
pub const BLOCK_LEN: usize = 16;

/// Blocks the kernel encrypts per call.
pub const PARALLEL_BLOCKS: usize = 4;

/// Rounds of AES-128; the key schedule yields `ROUNDS + 1` round keys.
const ROUNDS: usize = 10;

/// Four blocks in bitsliced form: word `j` holds bit `j` of all 64 bytes.
type State = [u64; 8];

/// AES with a 128-bit key (10 rounds), four blocks per call.
///
/// # Example
///
/// ```
/// use rsse_crypto::aes::Aes128;
///
/// let cipher = Aes128::new(&[0u8; 16]);
/// let mut blocks = [[0u8; 16], [1u8; 16], [0u8; 16], [2u8; 16]];
/// cipher.encrypt_blocks(&mut blocks);
/// assert_eq!(blocks[0], blocks[2], "ECB: equal blocks, equal ciphertexts");
/// assert_ne!(blocks[0], blocks[1]);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    /// Round keys `0..=10`, each copied into all four block slots and
    /// bitsliced like a [`State`], so a round adds its key word by word.
    round_keys: [State; ROUNDS + 1],
}

impl core::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Aes128 {{ key: <redacted> }}")
    }
}

impl Aes128 {
    /// Expands `key` into bitsliced round keys (FIPS 197 §5.2).
    ///
    /// # Panics
    ///
    /// Panics if `key.len() != 16`.
    pub fn new(key: &[u8]) -> Self {
        assert_eq!(key.len(), 16, "wrong key length for AES");
        const RCON: [u32; ROUNDS] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];
        // Key words little-endian, so byte 0 of a word is its low byte.
        let mut words = [0u32; 4 * (ROUNDS + 1)];
        for (w, bytes) in words.iter_mut().zip(key.chunks_exact(4)) {
            *w = u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        for i in 4..words.len() {
            let mut tmp = words[i - 1];
            if i % 4 == 0 {
                // RotWord moves byte 1 to byte 0: a right rotation here.
                tmp = sub_word(tmp.rotate_right(8)) ^ RCON[i / 4 - 1];
            }
            words[i] = words[i - 4] ^ tmp;
        }
        let mut round_keys = [[0u64; 8]; ROUNDS + 1];
        for (rk, w) in round_keys.iter_mut().zip(words.chunks_exact(4)) {
            let (lo, hi) = interleave_in([w[0], w[1], w[2], w[3]]);
            *rk = [lo, lo, lo, lo, hi, hi, hi, hi];
            ortho(rk);
        }
        Aes128 { round_keys }
    }

    /// Encrypts four independent 16-byte blocks in place.
    pub fn encrypt_blocks(&self, blocks: &mut [[u8; BLOCK_LEN]; PARALLEL_BLOCKS]) {
        let mut q = [0u64; 8];
        for (i, block) in blocks.iter().enumerate() {
            (q[i], q[i + 4]) = interleave_in(block_words(block));
        }
        ortho(&mut q);
        add_round_key(&mut q, &self.round_keys[0]);
        for rk in &self.round_keys[1..ROUNDS] {
            sub_bytes(&mut q);
            shift_rows(&mut q);
            mix_columns(&mut q);
            add_round_key(&mut q, rk);
        }
        sub_bytes(&mut q);
        shift_rows(&mut q);
        add_round_key(&mut q, &self.round_keys[ROUNDS]);
        ortho(&mut q);
        for (i, block) in blocks.iter_mut().enumerate() {
            let words = interleave_out(q[i], q[i + 4]);
            for (bytes, w) in block.chunks_exact_mut(4).zip(words) {
                bytes.copy_from_slice(&w.to_le_bytes());
            }
        }
    }
}

fn block_words(block: &[u8; BLOCK_LEN]) -> [u32; 4] {
    core::array::from_fn(|k| {
        u32::from_le_bytes(block[4 * k..4 * k + 4].try_into().expect("4 bytes"))
    })
}

/// SubBytes on the four bytes of one key-schedule word: the word takes one
/// slot of an otherwise empty state, so the same circuit serves.
fn sub_word(w: u32) -> u32 {
    let mut q = [0u64; 8];
    q[0] = u64::from(w);
    ortho(&mut q);
    sub_bytes(&mut q);
    ortho(&mut q);
    q[0] as u32
}

/// Spreads one block's four words over two words of the state: `w[0]`
/// and `w[2]` into the first, `w[1]` and `w[3]` into the second, their
/// bytes interleaved.
fn interleave_in(w: [u32; 4]) -> (u64, u64) {
    let spread = |x: u32| {
        let mut x = u64::from(x);
        x |= x << 16;
        x &= 0x0000_ffff_0000_ffff;
        x |= x << 8;
        x & 0x00ff_00ff_00ff_00ff
    };
    let [x0, x1, x2, x3] = w.map(spread);
    (x0 | (x2 << 8), x1 | (x3 << 8))
}

/// The inverse of [`interleave_in`].
fn interleave_out(q0: u64, q1: u64) -> [u32; 4] {
    let gather = |x: u64| {
        let mut x = x & 0x00ff_00ff_00ff_00ff;
        x |= x >> 8;
        x &= 0x0000_ffff_0000_ffff;
        (x as u32) | ((x >> 16) as u32)
    };
    [gather(q0), gather(q1), gather(q0 >> 8), gather(q1 >> 8)]
}

/// Transposes the state between the interleaved and the bitsliced layout;
/// its own inverse.
fn ortho(q: &mut State) {
    fn swap(q: &mut State, a: usize, b: usize, lo: u64, shift: u32) {
        let hi = !lo;
        let (x, y) = (q[a], q[b]);
        q[a] = (x & lo) | ((y & lo) << shift);
        q[b] = ((x & hi) >> shift) | (y & hi);
    }
    for (a, b) in [(0, 1), (2, 3), (4, 5), (6, 7)] {
        swap(q, a, b, 0x5555_5555_5555_5555, 1);
    }
    for (a, b) in [(0, 2), (1, 3), (4, 6), (5, 7)] {
        swap(q, a, b, 0x3333_3333_3333_3333, 2);
    }
    for (a, b) in [(0, 4), (1, 5), (2, 6), (3, 7)] {
        swap(q, a, b, 0x0f0f_0f0f_0f0f_0f0f, 4);
    }
}

fn add_round_key(q: &mut State, rk: &State) {
    for (x, k) in q.iter_mut().zip(rk) {
        *x ^= k;
    }
}

/// SubBytes on all 64 bytes: the Boyar–Peralta circuit ("A new
/// combinational logic minimization technique with applications to
/// cryptology", 2009): 32 ANDs and 83 XORs or XNORs. Inputs `x0..x7`
/// and outputs `s0..s7` run from the high bit to the low.
fn sub_bytes(q: &mut State) {
    let [x7, x6, x5, x4, x3, x2, x1, x0] = *q;

    // Top linear transformation.
    let y14 = x3 ^ x5;
    let y13 = x0 ^ x6;
    let y9 = x0 ^ x3;
    let y8 = x0 ^ x5;
    let t0 = x1 ^ x2;
    let y1 = t0 ^ x7;
    let y4 = y1 ^ x3;
    let y12 = y13 ^ y14;
    let y2 = y1 ^ x0;
    let y5 = y1 ^ x6;
    let y3 = y5 ^ y8;
    let t1 = x4 ^ y12;
    let y15 = t1 ^ x5;
    let y20 = t1 ^ x1;
    let y6 = y15 ^ x7;
    let y10 = y15 ^ t0;
    let y11 = y20 ^ y9;
    let y7 = x7 ^ y11;
    let y17 = y10 ^ y11;
    let y19 = y10 ^ y8;
    let y16 = t0 ^ y11;
    let y21 = y13 ^ y16;
    let y18 = x0 ^ y16;

    // Non-linear section.
    let t2 = y12 & y15;
    let t3 = y3 & y6;
    let t4 = t3 ^ t2;
    let t5 = y4 & x7;
    let t6 = t5 ^ t2;
    let t7 = y13 & y16;
    let t8 = y5 & y1;
    let t9 = t8 ^ t7;
    let t10 = y2 & y7;
    let t11 = t10 ^ t7;
    let t12 = y9 & y11;
    let t13 = y14 & y17;
    let t14 = t13 ^ t12;
    let t15 = y8 & y10;
    let t16 = t15 ^ t12;
    let t17 = t4 ^ t14;
    let t18 = t6 ^ t16;
    let t19 = t9 ^ t14;
    let t20 = t11 ^ t16;
    let t21 = t17 ^ y20;
    let t22 = t18 ^ y19;
    let t23 = t19 ^ y21;
    let t24 = t20 ^ y18;

    let t25 = t21 ^ t22;
    let t26 = t21 & t23;
    let t27 = t24 ^ t26;
    let t28 = t25 & t27;
    let t29 = t28 ^ t22;
    let t30 = t23 ^ t24;
    let t31 = t22 ^ t26;
    let t32 = t31 & t30;
    let t33 = t32 ^ t24;
    let t34 = t23 ^ t33;
    let t35 = t27 ^ t33;
    let t36 = t24 & t35;
    let t37 = t36 ^ t34;
    let t38 = t27 ^ t36;
    let t39 = t29 & t38;
    let t40 = t25 ^ t39;

    let t41 = t40 ^ t37;
    let t42 = t29 ^ t33;
    let t43 = t29 ^ t40;
    let t44 = t33 ^ t37;
    let t45 = t42 ^ t41;
    let z0 = t44 & y15;
    let z1 = t37 & y6;
    let z2 = t33 & x7;
    let z3 = t43 & y16;
    let z4 = t40 & y1;
    let z5 = t29 & y7;
    let z6 = t42 & y11;
    let z7 = t45 & y17;
    let z8 = t41 & y10;
    let z9 = t44 & y12;
    let z10 = t37 & y3;
    let z11 = t33 & y4;
    let z12 = t43 & y13;
    let z13 = t40 & y5;
    let z14 = t29 & y2;
    let z15 = t42 & y9;
    let z16 = t45 & y14;
    let z17 = t41 & y8;

    // Bottom linear transformation.
    let t46 = z15 ^ z16;
    let t47 = z10 ^ z11;
    let t48 = z5 ^ z13;
    let t49 = z9 ^ z10;
    let t50 = z2 ^ z12;
    let t51 = z2 ^ z5;
    let t52 = z7 ^ z8;
    let t53 = z0 ^ z3;
    let t54 = z6 ^ z7;
    let t55 = z16 ^ z17;
    let t56 = z12 ^ t48;
    let t57 = t50 ^ t53;
    let t58 = z4 ^ t46;
    let t59 = z3 ^ t54;
    let t60 = t46 ^ t57;
    let t61 = z14 ^ t57;
    let t62 = t52 ^ t58;
    let t63 = t49 ^ t58;
    let t64 = z4 ^ t59;
    let t65 = t61 ^ t62;
    let t66 = z1 ^ t63;
    let s0 = t59 ^ t63;
    let s6 = t56 ^ !t62;
    let s7 = t48 ^ !t60;
    let t67 = t64 ^ t65;
    let s3 = t53 ^ t66;
    let s4 = t51 ^ t66;
    let s5 = t47 ^ t65;
    let s1 = t64 ^ !s3;
    let s2 = t55 ^ !t67;

    *q = [s7, s6, s5, s4, s3, s2, s1, s0];
}

/// ShiftRows: within every bit-plane word, row `r` of each block rotates
/// left by `r` columns.
fn shift_rows(q: &mut State) {
    for x in q.iter_mut() {
        let v = *x;
        *x = (v & 0x0000_0000_0000_ffff)
            | ((v & 0x0000_0000_fff0_0000) >> 4)
            | ((v & 0x0000_0000_000f_0000) << 12)
            | ((v & 0x0000_ff00_0000_0000) >> 8)
            | ((v & 0x0000_00ff_0000_0000) << 8)
            | ((v & 0xf000_0000_0000_0000) >> 12)
            | ((v & 0x0fff_0000_0000_0000) << 4);
    }
}

/// MixColumns: each row is a 16-bit lane of every word, so rotating a
/// word by 16 moves every byte to the next row of its column, and the
/// doubling in GF(2^8) is a shift across words with the reduction folded
/// into bit planes 0, 1, 3 and 4.
fn mix_columns(q: &mut State) {
    let r: State = q.map(|x| x.rotate_right(16));
    let s: State = core::array::from_fn(|j| (q[j] ^ r[j]).rotate_right(32));
    let carry = q[7] ^ r[7];
    *q = [
        carry ^ r[0] ^ s[0],
        q[0] ^ r[0] ^ carry ^ r[1] ^ s[1],
        q[1] ^ r[1] ^ r[2] ^ s[2],
        q[2] ^ r[2] ^ carry ^ r[3] ^ s[3],
        q[3] ^ r[3] ^ carry ^ r[4] ^ s[4],
        q[4] ^ r[4] ^ r[5] ^ s[5],
        q[5] ^ r[5] ^ r[6] ^ s[6],
        q[6] ^ r[6] ^ r[7] ^ s[7],
    ];
}

/// The byte-wise AES-128 this kernel replaced, kept as the tests' oracle:
/// a table S-box computed from the GF(2^8) inverse and a column-major
/// round function, straight from FIPS 197.
#[cfg(test)]
pub(crate) mod oracle {
    fn xtime(a: u8) -> u8 {
        (a << 1) ^ (((a >> 7) & 1) * 0x1b)
    }

    fn gmul(mut a: u8, mut b: u8) -> u8 {
        let mut p = 0u8;
        for _ in 0..8 {
            if b & 1 == 1 {
                p ^= a;
            }
            a = xtime(a);
            b >>= 1;
        }
        p
    }

    /// The AES S-box: the inverse in GF(2^8) (`a^254`) followed by the
    /// affine transform.
    pub(crate) fn sbox() -> [u8; 256] {
        let mut sbox = [0u8; 256];
        for (i, s) in sbox.iter_mut().enumerate() {
            let a = i as u8;
            let (mut x, mut base, mut exp) = (1u8, a, 254u16);
            while exp > 0 {
                if exp & 1 == 1 {
                    x = gmul(x, base);
                }
                base = gmul(base, base);
                exp >>= 1;
            }
            let x = if a == 0 { 0 } else { x };
            *s = x
                ^ x.rotate_left(1)
                ^ x.rotate_left(2)
                ^ x.rotate_left(3)
                ^ x.rotate_left(4)
                ^ 0x63;
        }
        sbox
    }

    /// Expanded-key byte-wise AES-128.
    pub(crate) struct Aes128 {
        round_keys: Vec<[u8; 16]>,
        sbox: [u8; 256],
    }

    impl Aes128 {
        pub(crate) fn new(key: &[u8; 16]) -> Self {
            let sbox = sbox();
            let mut w: Vec<[u8; 4]> = key.chunks_exact(4).map(|c| c.try_into().unwrap()).collect();
            let mut rcon = 1u8;
            for i in 4..44 {
                let mut temp = w[i - 1];
                if i % 4 == 0 {
                    temp.rotate_left(1);
                    for b in &mut temp {
                        *b = sbox[*b as usize];
                    }
                    temp[0] ^= rcon;
                    rcon = xtime(rcon);
                }
                let prev = w[i - 4];
                w.push(core::array::from_fn(|j| prev[j] ^ temp[j]));
            }
            let round_keys = w
                .chunks_exact(4)
                .map(|c| c.concat().try_into().unwrap())
                .collect();
            Aes128 { round_keys, sbox }
        }

        pub(crate) fn encrypt_block(&self, block: &mut [u8; 16]) {
            let add =
                |s: &mut [u8; 16], rk: &[u8; 16]| s.iter_mut().zip(rk).for_each(|(s, k)| *s ^= k);
            add(block, &self.round_keys[0]);
            for round in 1..=10 {
                for b in block.iter_mut() {
                    *b = self.sbox[*b as usize];
                }
                // state[r + 4c] is row r, column c.
                let s = *block;
                for r in 1..4 {
                    for c in 0..4 {
                        block[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
                    }
                }
                if round < 10 {
                    for c in 0..4 {
                        let col: [u8; 4] = block[4 * c..4 * c + 4].try_into().unwrap();
                        for r in 0..4 {
                            block[4 * c + r] = gmul(col[r], 2)
                                ^ gmul(col[(r + 1) % 4], 3)
                                ^ col[(r + 2) % 4]
                                ^ col[(r + 3) % 4];
                        }
                    }
                }
                add(block, &self.round_keys[round]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use crate::SecretKey;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn sbox_matches_the_oracle_on_all_256_inputs() {
        let table = oracle::sbox();
        assert_eq!(table[0x00], 0x63);
        assert_eq!(table[0x53], 0xed, "FIPS 197 §5.1.1 worked example");
        // Four inputs a word, the word at every slot of the state.
        for base in (0..256).step_by(4) {
            let word = u32::from_le_bytes(core::array::from_fn(|i| (base + i) as u8));
            let got = sub_word(word).to_le_bytes();
            for (i, s) in got.iter().enumerate() {
                assert_eq!(*s, table[base + i], "S({:#04x})", base + i);
            }
        }
        // Sixty-four inputs a state, through the block layout.
        for base in (0..256).step_by(64) {
            let mut bytes = [[0u8; 16]; 4];
            for (i, b) in bytes.as_flattened_mut().iter_mut().enumerate() {
                *b = (base + i) as u8;
            }
            let mut q = [0u64; 8];
            for (i, block) in bytes.iter().enumerate() {
                (q[i], q[i + 4]) = interleave_in(block_words(block));
            }
            ortho(&mut q);
            sub_bytes(&mut q);
            ortho(&mut q);
            for (i, block) in bytes.iter().enumerate() {
                let words = interleave_out(q[i], q[i + 4]);
                let out: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
                let want: Vec<u8> = block.iter().map(|&b| table[b as usize]).collect();
                assert_eq!(out, want, "block slot {i}");
            }
        }
    }

    // FIPS 197 Appendix C.1 (AES-128), beside three blocks of filler.
    #[test]
    fn fips197_aes128() {
        let key = from_hex("000102030405060708090a0b0c0d0e0f");
        let want = from_hex("69c4e0d86a7b0430d8cdb78070b4c55a");
        let mut blocks = [[0xa5u8; 16]; 4];
        blocks[2].copy_from_slice(&from_hex("00112233445566778899aabbccddeeff"));
        let mut block = blocks[2];
        Aes128::new(&key).encrypt_blocks(&mut blocks);
        assert_eq!(blocks[2].to_vec(), want);
        oracle::Aes128::new(&key.try_into().unwrap()).encrypt_block(&mut block);
        assert_eq!(block.to_vec(), want);
    }

    // FIPS 197 Appendix A.1: the last round key of the expansion example.
    #[test]
    fn fips197_key_expansion() {
        let cipher = Aes128::new(&from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
        let mut rk = cipher.round_keys[ROUNDS];
        ortho(&mut rk);
        let words = interleave_out(rk[0], rk[4]);
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(bytes, from_hex("d014f9a8c9ee2589e13f0cc8b6630ca6"));
    }

    // NIST SP 800-38A F.1.1 ECB-AES128, all four blocks in one call.
    #[test]
    fn sp800_38a_ecb128() {
        let cipher = Aes128::new(&from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
        let pt = from_hex(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
        );
        let mut blocks = [[0u8; 16]; 4];
        blocks.as_flattened_mut().copy_from_slice(&pt);
        cipher.encrypt_blocks(&mut blocks);
        assert_eq!(
            blocks.as_flattened().to_vec(),
            from_hex(
                "3ad77bb40d7a3660a89ecaf32466ef97f5d3d58503b9699de785895a96fdbaaf\
                 43b1cd7f598ece23881b00e3ed0306887b0c785e27e8ad3f8223207104725dd4"
            )
        );
    }

    #[test]
    fn random_keys_and_blocks_match_the_oracle() {
        let mut coins = Tape::new(&SecretKey::derive(b"aes oracle", "k"), b"blocks");
        for _ in 0..500 {
            let mut key = [0u8; 16];
            coins.fill_bytes(&mut key);
            let mut blocks = [[0u8; 16]; 4];
            coins.fill_bytes(blocks.as_flattened_mut());
            let mut want = blocks;
            let reference = oracle::Aes128::new(&key);
            want.iter_mut().for_each(|b| reference.encrypt_block(b));
            Aes128::new(&key).encrypt_blocks(&mut blocks);
            assert_eq!(blocks, want, "key {key:02x?}");
        }
    }

    #[test]
    #[should_panic(expected = "wrong key length")]
    fn wrong_key_length_panics() {
        let _ = Aes128::new(&[0u8; 17]);
    }

    #[test]
    fn debug_redacts_key() {
        let c = Aes128::new(&[0u8; 16]);
        assert_eq!(format!("{c:?}"), "Aes128 { key: <redacted> }");
    }
}
