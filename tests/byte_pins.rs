//! Byte pins: the exact bytes the owner's Setup writes.
//!
//! Coin tapes — the ChaCha20 keystream under an HMAC seed of a
//! transcript (each list's nonces and padding), or XChaCha20 at an OPSE
//! tree coin's address (every OPM value) — feed every OPM coin, every
//! entry nonce and, read in bulk, every list's padding; the two builders
//! turn these into the lists the server stores, so a change to either
//! that moves one byte changes every ciphertext the owner has ever
//! outsourced. These tests pin SHA-256 digests of a long tape read, of
//! 40,000 bytes of padding, of OPM values over every level, of one sealed
//! RSSE entry, of both builders' exported lists on a fixed corpus and
//! seed, whole and cut to their real entries, and of the sharded Setup's
//! per-shard frames and label filters. A speed-up of the tape, the
//! cipher or the build, or a change to how the build is cut into shards,
//! must leave them unchanged.

use rsse::cloud::{DataOwner, IndexPartitioner};
use rsse::core::entry::seal_entry;
use rsse::core::{Rsse, RsseParams};
use rsse::crypto::tape::Transcript;
use rsse::crypto::{Digest, KeyMaterial, KeyedLabel, SecretKey, SemanticCipher, Sha256, Tape};
use rsse::ir::corpus::{CorpusParams, SyntheticCorpus};
use rsse::ir::{FileId, InvertedIndex};
use rsse::opse::{Opm, OpseParams};
use rsse::sse::BasicScheme;
use std::collections::HashMap;

const MASTER_SEED: &[u8] = b"byte pin master seed";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// SHA-256 over `(label, entry_len, byte length, bytes)` of every list,
/// in the order given.
fn digest_lists(lists: &[([u8; 20], u32, Vec<u8>)]) -> String {
    let mut h = Sha256::new();
    for (label, entry_len, bytes) in lists {
        h.update(label);
        h.update(&entry_len.to_be_bytes());
        h.update(&(bytes.len() as u64).to_be_bytes());
        h.update(bytes);
    }
    hex(h.finalize().as_ref())
}

fn plaintext_index() -> InvertedIndex {
    InvertedIndex::build(SyntheticCorpus::generate(&CorpusParams::small(11)).documents())
}

fn tape() -> Tape {
    let key = SecretKey::derive(b"tape pin key", "tape");
    Tape::new(&key, &Transcript::new("pin").u64(42).bytes(b"x").finish())
}

#[test]
fn tape_stream_is_pinned() {
    // 100,003 bytes in chunks of 1, 3, 7, ... 97 bytes, so reads start and
    // end at every offset within a 64-byte block and cross whole blocks.
    let mut t = tape();
    let mut h = Sha256::new();
    let mut read = 0usize;
    let mut buf = [0u8; 97];
    for size in [1usize, 3, 7, 13, 31, 32, 33, 64, 97].iter().cycle() {
        let n = (*size).min(100_003 - read);
        t.fill_bytes(&mut buf[..n]);
        h.update(&buf[..n]);
        read += n;
        if read == 100_003 {
            break;
        }
    }
    assert_eq!(
        hex(h.finalize().as_ref()),
        "63fa7466d1d6475e90b827b5d4fcfb2e2dbc2da016234e5783ba170c48e2d810"
    );
    let draws = [
        t.next_u64(),
        t.next_u64(),
        t.uniform_below(1000),
        t.uniform_below(7),
    ];
    assert_eq!(draws, [17784108702861625538, 17279718836220685082, 602, 4]);
}

#[test]
fn tape_draws_are_pinned() {
    let mut t = tape();
    let draws = [
        t.next_u64(),
        t.uniform_below(10),
        t.next_u64(),
        t.uniform_below(1 << 20),
        t.uniform_below(3),
    ];
    assert_eq!(
        draws,
        [4280154761366982099, 7, 14595736682209956146, 745766, 2]
    );
}

#[test]
fn padding_keystream_is_pinned() {
    // 40,000 bytes of the pin tape read in one call after a 16-byte draw,
    // as a builder reads a list's padding after its entry nonces: here the
    // padding of 1,250 32-byte entries after two 8-byte nonces.
    let mut t = tape();
    t.fill_bytes(&mut [0u8; 16]);
    let mut out = vec![0u8; 40_000];
    t.fill_bytes(&mut out);
    assert_eq!(
        hex(Sha256::digest(&out).as_ref()),
        "b9c4ccb103f9538e85591103609fcf6ade2a85fcdcb5ffc99beab9020e334eb8"
    );
}

#[test]
fn opm_values_are_pinned() {
    // Every level of the paper's M = 128 under one key, for four file ids:
    // each value costs a walk's split coins and one bucket-choice coin.
    let opm = Opm::new(
        SecretKey::derive(b"opm pin key", "opm"),
        OpseParams::paper_default(),
    );
    let mut h = Sha256::new();
    for level in 1..=128u64 {
        for file in [0u64, 1, 1 << 40, u64::MAX] {
            let value = opm.encrypt(level, file).unwrap();
            h.update(&value.to_be_bytes());
        }
    }
    assert_eq!(
        hex(h.finalize().as_ref()),
        "160827600772a5b377da6cb1d04c65595d7652e54b213784379cb783517ddc5a"
    );
}

#[test]
fn rsse_build_is_pinned() {
    let scheme = Rsse::new(MASTER_SEED, RsseParams::default());
    let built = scheme.build_index_from(&plaintext_index()).unwrap();
    assert_eq!(
        digest_lists(&built.export_parts().unwrap()),
        "dc9a2c20893c6988a49054514ad61d9ddb2ec14217e46ab73df494291fff54b6"
    );
}

#[test]
fn rsse_entry_layout_is_pinned() {
    // One entry: an 8-byte nonce, then `0^64 ‖ id ‖ OPM score` XOR the
    // AES-CTR keystream from counter block `nonce ‖ 0^64`.
    let cipher = SemanticCipher::new(&SecretKey::derive(b"entry pin key", "entry"));
    let nonce = [0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7];
    let mut entry = Vec::new();
    seal_entry(&cipher, nonce, FileId::new(4_242), 1 << 40 | 7, &mut entry);
    assert_eq!(
        hex(&entry),
        "f0f1f2f3f4f5f6f7c9961ba40ef05280912f89d73db72103ff19d7b31b8f8589"
    );
}

#[test]
fn basic_build_is_pinned() {
    let scheme = BasicScheme::new(MASTER_SEED);
    let built = scheme
        .build_index(&plaintext_index(), Default::default())
        .unwrap();
    assert_eq!(
        digest_lists(&built.export_parts()),
        "08cc462072733972713e1ca39c32e42e32c8dadb50c949d270b1978479504fd5"
    );
}

/// Each list cut to its real entries: `count × entry_len` bytes, where
/// `count` is the length of the plaintext posting list behind the label.
/// Both builders label a keyword `π_x(w)` under the label key derived from
/// the same master seed, so one count table serves both.
fn real_prefixes(lists: Vec<([u8; 20], u32, Vec<u8>)>) -> Vec<([u8; 20], u32, Vec<u8>)> {
    let labels = KeyedLabel::new(KeyMaterial::from_master_seed(MASTER_SEED).label_key());
    let counts: HashMap<[u8; 20], usize> = plaintext_index()
        .iter()
        .map(|(term, postings)| (labels.label(term.as_bytes()), postings.len()))
        .collect();
    lists
        .into_iter()
        .map(|(label, entry_len, mut bytes)| {
            bytes.truncate(counts[&label] * entry_len as usize);
            (label, entry_len, bytes)
        })
        .collect()
}

#[test]
fn rsse_real_entries_are_pinned() {
    let scheme = Rsse::new(MASTER_SEED, RsseParams::default());
    let built = scheme.build_index_from(&plaintext_index()).unwrap();
    assert_eq!(
        digest_lists(&real_prefixes(built.export_parts().unwrap())),
        "6a389d7ca62697ca351d6029d516bd3eccc4cb9bcc883786eae3d864162622ce"
    );
}

#[test]
fn basic_real_entries_are_pinned() {
    let scheme = BasicScheme::new(MASTER_SEED);
    let built = scheme
        .build_index(&plaintext_index(), Default::default())
        .unwrap();
    assert_eq!(
        digest_lists(&real_prefixes(built.export_parts())),
        "174e6f33ebba724d7346f0dbc8cbea9dc0629cdf0f6f62631bdd12e0bf6b65ae"
    );
}

/// The sharded Setup at three shards: the SHA-256 of each shard's encoded
/// `Outsource` frame and of its label filter (the labels back to back).
/// One shard is the unsharded Setup, frame for frame.
#[test]
fn sharded_setup_is_pinned() {
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(11));
    let owner = DataOwner::new(MASTER_SEED, RsseParams::default());
    let (frames, filters) = owner
        .outsource_sharded_with_filters(corpus.documents(), &IndexPartitioner::new(3))
        .unwrap();
    let frames: Vec<String> = frames
        .iter()
        .map(|frame| hex(Sha256::digest(&frame.encode()).as_ref()))
        .collect();
    let filters: Vec<String> = filters
        .iter()
        .map(|labels| hex(Sha256::digest(&labels.concat()).as_ref()))
        .collect();
    assert_eq!(
        frames,
        [
            "277868c0c93d5f201a2d82eff5278d0a7412b7897042aba45379c0fa1f0c4f1d",
            "967746819325edaeb46d693859978c717f89bb28712ef084a34a62029ac9c8be",
            "e5f0c43e3c9098eb8a0a8dd50d7013a18282a97cf043e2c02fc363f3d5023f05",
        ]
    );
    assert_eq!(
        filters,
        [
            "96790b1ad89402187604f7213df739a77a52a8076b909d2cfd743cfc9d3d0424",
            "77b9fb1c1fa82ca8c6ceeec470e5654675a56f957d66a03782aab505e2d29477",
            "b4e66acbee6fa41b14b2f69a2c6576722d49bb608db5d920ded1dc6bb77e7ea7",
        ]
    );
    let (one, _) = owner
        .outsource_sharded_with_filters(corpus.documents(), &IndexPartitioner::new(1))
        .unwrap();
    assert_eq!(one.len(), 1);
    assert_eq!(
        one[0].encode(),
        owner.outsource(corpus.documents()).unwrap().encode()
    );
}
