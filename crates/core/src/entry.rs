//! Posting-entry wire layout of the RSSE index.
//!
//! Unlike the basic scheme — whose entries carry a semantically encrypted
//! score the server can never read — RSSE entries carry the OPM-mapped
//! score as a plain `u64` *inside* the per-list encryption. Once the server
//! holds the trapdoor it unwraps the entry and can compare scores by
//! numeric order.

use rsse_crypto::aes::{BLOCK_LEN, PARALLEL_BLOCKS};
use rsse_crypto::ctr::NONCE_LEN;
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
/// Ciphertext length of one posting entry (nonce + body).
pub const ENTRY_CT_LEN: usize = NONCE_LEN + ENTRY_PLAIN_LEN;

/// Encodes the entry plaintext `0^l ‖ id ‖ opm_score`.
pub fn encode_entry(file: FileId, opm_score: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENTRY_PLAIN_LEN);
    out.extend_from_slice(&[0u8; MARKER_LEN]);
    out.extend_from_slice(&file.to_bytes());
    out.extend_from_slice(&opm_score.to_be_bytes());
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
// the second its score.
const _: () = assert!(MARKER_LEN + ID_LEN == BLOCK_LEN && SCORE_LEN <= BLOCK_LEN);

/// The real entries of a posting list as `(file, opm_score)`, in list
/// order, decrypted four per kernel call with no heap buffer.
///
/// An entry's first keystream block covers the marker and the file id, so
/// one call decrypts four entries' first blocks and drops every entry whose
/// marker is not zero (padding, or an entry under another list's key); the
/// second block, which covers the score, is computed only for the entries
/// that pass, again four per call. Entries that are not [`ENTRY_CT_LEN`]
/// bytes long are dropped unread. The output equals
/// [`SemanticCipher::decrypt_into`] then [`decode_entry`] on each entry.
pub(crate) fn real_entries<'a, 'c, I: Iterator<Item = &'a [u8]>>(
    entries: I,
    cipher: &'c SemanticCipher,
) -> impl Iterator<Item = (FileId, u64)> + use<'a, 'c, I> {
    let mut entries = entries.filter(|ct| ct.len() == ENTRY_CT_LEN);
    let nonce = |ct: &[u8]| -> [u8; NONCE_LEN] {
        ct[..NONCE_LEN].try_into().expect("entry length checked")
    };
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
            *block = nonce(ct);
        }
        cipher.keystream_blocks(&mut firsts);
        let mut ready = [(FileId::default(), 0u64); PARALLEL_BLOCKS];
        let mut passed: [&[u8]; PARALLEL_BLOCKS] = [&[]; PARALLEL_BLOCKS];
        let mut seconds = [[0u8; BLOCK_LEN]; PARALLEL_BLOCKS];
        let mut len = 0;
        for (ct, keystream) in batch[..n].iter().zip(&firsts) {
            let first: [u8; BLOCK_LEN] = core::array::from_fn(|i| ct[NONCE_LEN + i] ^ keystream[i]);
            if first[..MARKER_LEN] != [0u8; MARKER_LEN] {
                continue;
            }
            let id: [u8; ID_LEN] = first[MARKER_LEN..].try_into().expect("id fills the block");
            ready[len].0 = FileId::from_bytes(id);
            seconds[len] = u128::from_be_bytes(nonce(ct)).wrapping_add(1).to_be_bytes();
            passed[len] = ct;
            len += 1;
        }
        if len > 0 {
            cipher.keystream_blocks(&mut seconds);
        }
        for ((slot, ct), keystream) in ready.iter_mut().zip(passed).zip(&seconds).take(len) {
            let score = &ct[NONCE_LEN + BLOCK_LEN..];
            slot.1 = u64::from_be_bytes(core::array::from_fn(|i| score[i] ^ keystream[i]));
        }
        Some((ready, len))
    })
    .flat_map(|(ready, len)| ready.into_iter().take(len))
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
