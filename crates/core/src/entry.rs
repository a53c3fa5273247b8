//! Posting-entry wire layout of the RSSE index.
//!
//! Unlike the basic scheme — whose entries carry a semantically encrypted
//! score the server can never read — RSSE entries carry the OPM-mapped
//! score as a plain `u64` *inside* the per-list encryption. Once the server
//! holds the trapdoor it unwraps the entry and can compare scores by
//! numeric order.
//!
//! An entry is 32 bytes:
//!
//! ```text
//! nonce (8) ‖ (0^64 ‖ id (8) ‖ OPM score (8)) ⊕ AES-CTR keystream
//! ```
//!
//! The keystream is `f_y(w)`'s AES-128-CTR from the 128-bit counter
//! block `nonce ‖ 0^64` on: block `nonce ‖ 0` covers the marker and the
//! id, block `nonce ‖ 1` the score. The low half of the counter never
//! carries into the nonce, so an entry is exactly
//! [`SemanticCipher::encrypt_with_nonce`] under the widened nonce
//! `nonce ‖ 0^64` with those 8 zero bytes left out of its header. Only
//! this module knows the layout: the builder writes entries with
//! [`seal_entries`], two per kernel call, the updater with [`seal_entry`],
//! and every search reads them with `real_entries`.

use rsse_crypto::aes::{BLOCK_LEN, PARALLEL_BLOCKS};
use rsse_crypto::SemanticCipher;
use rsse_ir::FileId;

/// Length of the all-zero validity marker (`0^l` in Fig. 3).
pub const MARKER_LEN: usize = 8;
/// Length of the encoded file identifier.
pub const ID_LEN: usize = 8;
/// Length of the OPM-mapped score (fits in a `u64`; ranges cap at `2^52`).
pub const SCORE_LEN: usize = 8;
/// Plaintext length of one posting entry.
pub const ENTRY_PLAIN_LEN: usize = MARKER_LEN + ID_LEN + SCORE_LEN;
/// Length of an entry's public nonce, the high half of its CTR counter
/// blocks.
pub const ENTRY_NONCE_LEN: usize = 8;
/// Ciphertext length of one posting entry (nonce + body).
pub const ENTRY_CT_LEN: usize = ENTRY_NONCE_LEN + ENTRY_PLAIN_LEN;

/// Encodes the entry plaintext `0^l ‖ id ‖ opm_score`.
pub fn encode_entry(file: FileId, opm_score: u64) -> [u8; ENTRY_PLAIN_LEN] {
    let mut out = [0u8; ENTRY_PLAIN_LEN];
    out[MARKER_LEN..MARKER_LEN + ID_LEN].copy_from_slice(&file.to_bytes());
    out[MARKER_LEN + ID_LEN..].copy_from_slice(&opm_score.to_be_bytes());
    out
}

/// Decodes an entry plaintext, returning `(file, opm_score)` if the
/// validity marker checks out, `None` for padding/garbage.
pub fn decode_entry(plain: &[u8]) -> Option<(FileId, u64)> {
    if plain.len() != ENTRY_PLAIN_LEN || plain[..MARKER_LEN] != [0u8; MARKER_LEN] {
        return None;
    }
    let id_bytes: [u8; ID_LEN] = plain[MARKER_LEN..MARKER_LEN + ID_LEN]
        .try_into()
        .expect("length checked");
    let score_bytes: [u8; SCORE_LEN] = plain[MARKER_LEN + ID_LEN..]
        .try_into()
        .expect("length checked");
    Some((
        FileId::from_bytes(id_bytes),
        u64::from_be_bytes(score_bytes),
    ))
}

// The first keystream block of an entry covers its marker and file id,
// the second its score; the nonce and the block index fill one counter.
const _: () = assert!(MARKER_LEN + ID_LEN == BLOCK_LEN && SCORE_LEN <= BLOCK_LEN);
const _: () = assert!(ENTRY_NONCE_LEN + 8 == BLOCK_LEN);

/// The counter block of keystream block `block` of the entry whose
/// ciphertext or nonce starts `nonce`: `nonce ‖ block`, big-endian.
fn counter(nonce: &[u8], block: u64) -> [u8; BLOCK_LEN] {
    let mut counter = [0u8; BLOCK_LEN];
    counter[..ENTRY_NONCE_LEN].copy_from_slice(&nonce[..ENTRY_NONCE_LEN]);
    counter[ENTRY_NONCE_LEN..].copy_from_slice(&block.to_be_bytes());
    counter
}

/// Entries sealed per kernel call: each takes two of its
/// [`PARALLEL_BLOCKS`] keystream blocks.
pub const ENTRIES_PER_CALL: usize = PARALLEL_BLOCKS / 2;

/// Seals the posting entry `(file, opm_score)` under `cipher` and
/// `nonce`, appending its [`ENTRY_CT_LEN`] bytes to `out`: the nonce,
/// then the plaintext of [`encode_entry`] XOR the keystream from counter
/// block `nonce ‖ 0^64` on. One kernel call, no heap buffer.
pub fn seal_entry(
    cipher: &SemanticCipher,
    nonce: [u8; ENTRY_NONCE_LEN],
    file: FileId,
    opm_score: u64,
    out: &mut Vec<u8>,
) {
    seal_entries(cipher, &[(nonce, file, opm_score)], |_, entry| {
        out.extend_from_slice(entry)
    });
}

/// Seals up to [`ENTRIES_PER_CALL`] entries `(nonce, file, opm_score)`
/// in one kernel call, handing each file and its sealed bytes, exactly
/// what [`seal_entry`] appends, to `out` in order. A builder seals a
/// list's real entries this way, two at a time.
///
/// # Panics
///
/// When given more than [`ENTRIES_PER_CALL`] entries.
pub fn seal_entries(
    cipher: &SemanticCipher,
    entries: &[([u8; ENTRY_NONCE_LEN], FileId, u64)],
    mut out: impl FnMut(FileId, &[u8; ENTRY_CT_LEN]),
) {
    assert!(
        entries.len() <= ENTRIES_PER_CALL,
        "one kernel call's entries"
    );
    let mut keystream = [[0u8; BLOCK_LEN]; PARALLEL_BLOCKS];
    for (blocks, (nonce, ..)) in keystream.chunks_exact_mut(2).zip(entries) {
        blocks[0] = counter(nonce, 0);
        blocks[1] = counter(nonce, 1);
    }
    cipher.keystream_blocks(&mut keystream);
    for (blocks, &(nonce, file, opm_score)) in keystream.chunks_exact(2).zip(entries) {
        let mut entry = [0u8; ENTRY_CT_LEN];
        entry[..ENTRY_NONCE_LEN].copy_from_slice(&nonce);
        let plain = encode_entry(file, opm_score);
        for ((e, p), k) in entry[ENTRY_NONCE_LEN..]
            .iter_mut()
            .zip(&plain)
            .zip(blocks.as_flattened())
        {
            *e = p ^ k;
        }
        out(file, &entry);
    }
}

/// The real entries of a posting list as `(file, opm_score)`, in list
/// order, decrypted four per kernel call with no heap buffer.
///
/// An entry's first keystream block covers the marker and the file id, so
/// one call decrypts four entries' first blocks and drops every entry whose
/// marker is not zero (padding, or an entry under another list's key); the
/// second block, which covers the score, is computed only for the entries
/// that pass, again four per call. Entries that are not [`ENTRY_CT_LEN`]
/// bytes long are dropped unread. The output equals
/// [`SemanticCipher::decrypt`] of each entry with its nonce widened to
/// `nonce ‖ 0^64`, then [`decode_entry`].
pub(crate) fn real_entries<'a, 'c, I: Iterator<Item = &'a [u8]>>(
    entries: I,
    cipher: &'c SemanticCipher,
) -> impl Iterator<Item = (FileId, u64)> + use<'a, 'c, I> {
    let mut entries = entries.filter(|ct| ct.len() == ENTRY_CT_LEN);
    std::iter::from_fn(move || {
        let mut batch: [&[u8]; PARALLEL_BLOCKS] = [&[]; PARALLEL_BLOCKS];
        // `zip` stops at the fifth slot without pulling a fifth entry.
        let mut n = 0;
        for (slot, ct) in batch.iter_mut().zip(entries.by_ref()) {
            *slot = ct;
            n += 1;
        }
        if n == 0 {
            return None;
        }
        let mut firsts = [[0u8; BLOCK_LEN]; PARALLEL_BLOCKS];
        for (block, ct) in firsts.iter_mut().zip(&batch[..n]) {
            *block = counter(ct, 0);
        }
        cipher.keystream_blocks(&mut firsts);
        let mut ready = [(FileId::default(), 0u64); PARALLEL_BLOCKS];
        let mut passed: [&[u8]; PARALLEL_BLOCKS] = [&[]; PARALLEL_BLOCKS];
        let mut seconds = [[0u8; BLOCK_LEN]; PARALLEL_BLOCKS];
        let mut len = 0;
        for (ct, keystream) in batch[..n].iter().zip(&firsts) {
            let body = &ct[ENTRY_NONCE_LEN..];
            let first: [u8; BLOCK_LEN] = core::array::from_fn(|i| body[i] ^ keystream[i]);
            if first[..MARKER_LEN] != [0u8; MARKER_LEN] {
                continue;
            }
            let id: [u8; ID_LEN] = first[MARKER_LEN..].try_into().expect("id fills the block");
            ready[len].0 = FileId::from_bytes(id);
            seconds[len] = counter(ct, 1);
            passed[len] = ct;
            len += 1;
        }
        if len > 0 {
            cipher.keystream_blocks(&mut seconds);
        }
        for ((slot, ct), keystream) in ready.iter_mut().zip(passed).zip(&seconds).take(len) {
            let score = &ct[ENTRY_NONCE_LEN + BLOCK_LEN..];
            slot.1 = u64::from_be_bytes(core::array::from_fn(|i| score[i] ^ keystream[i]));
        }
        Some((ready, len))
    })
    .flat_map(|(ready, len)| ready.into_iter().take(len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsse_crypto::{SecretKey, Tape};

    #[test]
    fn roundtrip() {
        let plain = encode_entry(FileId::new(9), 123_456_789);
        assert_eq!(plain.len(), ENTRY_PLAIN_LEN);
        assert_eq!(decode_entry(&plain), Some((FileId::new(9), 123_456_789)));
    }

    #[test]
    fn padding_and_garbage_rejected() {
        let mut broken = encode_entry(FileId::new(9), 1);
        broken[3] = 0xff;
        assert!(decode_entry(&broken).is_none());
        assert!(decode_entry(&[]).is_none());
        assert!(decode_entry(&[0u8; ENTRY_PLAIN_LEN - 1]).is_none());
    }

    /// A random entry key, nonce, file id and score off `coins`.
    fn random_entry(coins: &mut Tape) -> (SemanticCipher, [u8; ENTRY_NONCE_LEN], FileId, u64) {
        let mut key = [0u8; 32];
        coins.fill_bytes(&mut key);
        let mut nonce = [0u8; ENTRY_NONCE_LEN];
        coins.fill_bytes(&mut nonce);
        let cipher = SemanticCipher::new(&SecretKey::from_bytes(key));
        (
            cipher,
            nonce,
            FileId::new(coins.next_u64()),
            coins.next_u64(),
        )
    }

    fn sealed(
        cipher: &SemanticCipher,
        nonce: [u8; ENTRY_NONCE_LEN],
        file: FileId,
        score: u64,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        seal_entry(cipher, nonce, file, score, &mut out);
        out
    }

    #[test]
    fn seal_entry_is_ctr_under_the_widened_nonce_without_its_zero_half() {
        let mut coins = Tape::new(&SecretKey::derive(b"entry oracle", "k"), b"seal");
        for _ in 0..256 {
            let (cipher, nonce, file, score) = random_entry(&mut coins);
            let mut widened = [0u8; BLOCK_LEN];
            widened[..ENTRY_NONCE_LEN].copy_from_slice(&nonce);
            let mut want = cipher.encrypt_with_nonce(widened, &encode_entry(file, score));
            want.drain(ENTRY_NONCE_LEN..BLOCK_LEN);
            let mut out = vec![0xa5];
            seal_entry(&cipher, nonce, file, score, &mut out);
            assert_eq!(out[0], 0xa5, "seal_entry appends");
            assert_eq!(out[1..], want[..]);
            assert_eq!(out.len(), 1 + ENTRY_CT_LEN);
        }
    }

    #[test]
    fn sealing_two_per_call_equals_one_at_a_time() {
        let mut coins = Tape::new(&SecretKey::derive(b"entry oracle", "k"), b"pairs");
        for len in 0..=ENTRIES_PER_CALL {
            let (cipher, ..) = random_entry(&mut coins);
            let batch: Vec<_> = (0..len)
                .map(|_| {
                    let (_, nonce, file, score) = random_entry(&mut coins);
                    (nonce, file, score)
                })
                .collect();
            let mut got = Vec::new();
            seal_entries(&cipher, &batch, |file, entry| {
                got.push((file, entry.to_vec()))
            });
            let want: Vec<_> = batch
                .iter()
                .map(|&(nonce, file, score)| (file, sealed(&cipher, nonce, file, score)))
                .collect();
            assert_eq!(got, want, "len {len}");
        }
    }

    #[test]
    fn real_entries_return_exactly_the_sealed_pairs_in_order() {
        let mut coins = Tape::new(&SecretKey::derive(b"entry oracle", "k"), b"open");
        // Every list length 0..=9 crosses the four-entry batches.
        for len in 0..=9 {
            let (cipher, ..) = random_entry(&mut coins);
            let mut list = Vec::new();
            let mut want = Vec::new();
            for _ in 0..len {
                let (_, nonce, file, score) = random_entry(&mut coins);
                seal_entry(&cipher, nonce, file, score, &mut list);
                want.push((file, score));
            }
            let got: Vec<_> = real_entries(list.chunks_exact(ENTRY_CT_LEN), &cipher).collect();
            assert_eq!(got, want, "len {len}");
        }
    }

    #[test]
    fn random_foreign_and_old_layout_entries_are_dropped() {
        let mut coins = Tape::new(&SecretKey::derive(b"entry oracle", "k"), b"drop");
        for round in 0..64 {
            let (cipher, ..) = random_entry(&mut coins);
            let (other, ..) = random_entry(&mut coins);
            let mut list: Vec<Vec<u8>> = Vec::new();
            let mut want = Vec::new();
            for slot in 0..12 {
                let (_, nonce, file, score) = random_entry(&mut coins);
                match (round + slot) % 4 {
                    0 => {
                        list.push(sealed(&cipher, nonce, file, score));
                        want.push((file, score));
                    }
                    1 => {
                        let mut random = vec![0u8; ENTRY_CT_LEN];
                        coins.fill_bytes(&mut random);
                        list.push(random);
                    }
                    2 => list.push(sealed(&other, nonce, file, score)),
                    _ => {
                        // The 40-byte layout before 8-byte nonces: a
                        // 16-byte nonce, then the same body, same key.
                        let mut wide = [0u8; BLOCK_LEN];
                        coins.fill_bytes(&mut wide);
                        list.push(cipher.encrypt_with_nonce(wide, &encode_entry(file, score)));
                    }
                }
            }
            let got: Vec<_> = real_entries(list.iter().map(Vec::as_slice), &cipher).collect();
            assert_eq!(got, want, "round {round}");
        }
    }
}
