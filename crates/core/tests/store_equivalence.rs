//! Property tests pinning the flat resident lists (`PostingStore`, one
//! buffer of back-to-back entries per label) to the semantics of the old
//! `HashMap<Label, Vec<Vec<u8>>>` index: for every corpus and every query,
//! the index's search must return **byte-identical** rankings to a
//! straightforward per-entry-boxed reference implementation.

use proptest::prelude::*;
use rsse_core::entry::decode_entry;
use rsse_core::store::entries;
use rsse_core::{RankedResult, Rsse, RsseIndex, RsseParams, RsseTrapdoor};
use rsse_crypto::SemanticCipher;
use rsse_ir::{Document, FileId, InvertedIndex};
use std::collections::HashMap;

/// A small closed vocabulary so posting lists overlap heavily.
const WORDS: [&str; 6] = ["network", "storage", "cipher", "index", "query", "cloud"];

fn docs_from(spec: &[Vec<usize>]) -> Vec<Document> {
    spec.iter()
        .enumerate()
        .map(|(i, words)| {
            let text: Vec<&str> = words.iter().map(|&w| WORDS[w % WORDS.len()]).collect();
            Document::new(FileId::new(i as u64 + 1), text.join(" "))
        })
        .collect()
}

/// Splits flat `(label, entry_len, bytes)` lists into the reference's
/// one-box-per-entry shape.
fn boxed(parts: &[([u8; 20], u32, Vec<u8>)]) -> HashMap<[u8; 20], Vec<Vec<u8>>> {
    parts
        .iter()
        .map(|(label, _, bytes)| (*label, entries(bytes).map(<[u8]>::to_vec).collect()))
        .collect()
}

/// The old per-entry index semantics: posting lists as `HashMap<Label,
/// Vec<Vec<u8>>>`, one heap box per entry, full sort then truncate.
fn reference_search(
    lists: &HashMap<[u8; 20], Vec<Vec<u8>>>,
    trapdoor: &RsseTrapdoor,
    top_k: Option<usize>,
) -> Vec<RankedResult> {
    let Some(entries) = lists.get(trapdoor.label()) else {
        return Vec::new();
    };
    let cipher = SemanticCipher::new(trapdoor.list_key());
    let mut all: Vec<RankedResult> = entries
        .iter()
        .filter_map(|ct| {
            // Widen the entry's 8-byte nonce to the 16-byte counter
            // block `nonce ‖ 0^64` that `SemanticCipher::decrypt` reads.
            let widened = [ct.get(..8)?, &[0u8; 8], &ct[8..]].concat();
            let plain = cipher.decrypt(&widened).ok()?;
            let (file, score) = decode_entry(&plain)?;
            Some(RankedResult {
                file,
                encrypted_score: score,
            })
        })
        .collect();
    all.sort_by(|a, b| b.cmp(a));
    if let Some(k) = top_k {
        all.truncate(k);
    }
    all
}

proptest! {
    #[test]
    fn posting_store_search_matches_hashmap_reference(
        spec in proptest::collection::vec(
            proptest::collection::vec(0usize..6, 1..30),
            1..16,
        ),
        k in 0usize..12,
    ) {
        let docs = docs_from(&spec);
        let scheme = Rsse::new(b"equivalence seed", RsseParams::default());
        let enc = scheme.build_index(&docs).unwrap();
        let opse = *enc.opse_params().unwrap();
        let parts = enc.export_parts().unwrap();
        let reference: HashMap<[u8; 20], Vec<Vec<u8>>> = boxed(&parts);
        // Rebuild through the wire path in reversed list order, so the
        // lists arrive in another order than the original build's.
        let mut reversed = parts;
        reversed.reverse();
        let rebuilt = RsseIndex::from_parts(reversed, opse).unwrap();

        for word in WORDS {
            let t = scheme.trapdoor(word).unwrap();
            for top_k in [None, Some(k)] {
                let expect = reference_search(&reference, &t, top_k);
                prop_assert_eq!(enc.search(&t, top_k), expect.clone());
                prop_assert_eq!(rebuilt.search(&t, top_k), expect);
            }
        }
    }

    #[test]
    fn posting_store_matches_reference_after_dynamics(
        spec in proptest::collection::vec(
            proptest::collection::vec(0usize..6, 1..20),
            2..10,
        ),
        extra in proptest::collection::vec(0usize..6, 1..20),
    ) {
        let docs = docs_from(&spec);
        let scheme = Rsse::new(b"dynamics equivalence", RsseParams::default());
        let plain_index = InvertedIndex::build(&docs);
        let mut enc = scheme.build_index_from(&plain_index).unwrap();
        let mut reference: HashMap<[u8; 20], Vec<Vec<u8>>> =
            boxed(&enc.export_parts().unwrap());

        // One §VII append, mirrored into the reference map.
        let updater = scheme.updater_for(&plain_index).unwrap();
        let text: Vec<&str> = extra.iter().map(|&w| WORDS[w % WORDS.len()]).collect();
        let new_doc = Document::new(FileId::new(9_999), text.join(" "));
        let update = updater.add_document(&new_doc).unwrap();
        for (label, entry_len, bytes) in update.into_parts() {
            reference.entry(label).or_default().extend(boxed(&[(label, entry_len, bytes.clone())]).remove(&label).unwrap());
            enc.append_entries(label, entry_len, &bytes).unwrap();
        }

        for word in WORDS {
            let t = scheme.trapdoor(word).unwrap();
            for top_k in [None, Some(3)] {
                prop_assert_eq!(
                    enc.search(&t, top_k),
                    reference_search(&reference, &t, top_k)
                );
            }
        }
    }
}
