//! Byte pins: the exact bytes the owner's Setup writes.
//!
//! The coin tape feeds every entry nonce and OPM coin, and the key and
//! nonce of each list's padding, which is the ChaCha20 keystream under
//! them; the two builders turn these into the lists the server stores, so
//! a change to either that moves one byte changes every ciphertext the
//! owner has ever outsourced. These tests pin SHA-256 digests of a long
//! tape read, of 40,000 bytes of padding, of both builders' exported
//! lists on a fixed corpus and seed, whole and cut to their real entries,
//! and of the sharded Setup's per-shard frames and label filters. A
//! speed-up of the tape, the cipher or the build, or a change to how the
//! build is cut into shards, must leave them unchanged; a change to how
//! padding is drawn moves only the whole-list and sharded-Setup pins, and
//! the real-entry pins show that no real entry moved with it.

use rsse::cloud::{DataOwner, IndexPartitioner};
use rsse::core::{Rsse, RsseParams};
use rsse::crypto::chacha::pad_from_tape;
use rsse::crypto::tape::Transcript;
use rsse::crypto::{Digest, KeyMaterial, KeyedLabel, SecretKey, Sha256, Tape};
use rsse::ir::corpus::{CorpusParams, SyntheticCorpus};
use rsse::ir::InvertedIndex;
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
    // end at every offset within a 32-byte block.
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
        "5cdf829270cc93dc5cebe95c6724ab502d372e96470f68b543df901200f9f894"
    );
    let draws = [
        t.next_u64(),
        t.next_u64(),
        t.uniform_below(1000),
        t.uniform_below(7),
    ];
    assert_eq!(draws, [8823657265020876936, 7269564618052145687, 882, 2]);
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
        [7326707642233341769, 5, 14726745858331398620, 677288, 0]
    );
}

#[test]
fn padding_keystream_is_pinned() {
    // One ν = 1000 list of 40-byte entries' padding off the pin tape.
    let mut out = vec![0u8; 40_000];
    pad_from_tape(&mut tape(), &mut out);
    assert_eq!(
        hex(Sha256::digest(&out).as_ref()),
        "d6160fb52d8ef5ee0c8c4d442d37e72ca5e0a32c14aab1bcfec6b1fac937238a"
    );
}

#[test]
fn rsse_build_is_pinned() {
    let scheme = Rsse::new(MASTER_SEED, RsseParams::default());
    let built = scheme.build_index_from(&plaintext_index()).unwrap();
    assert_eq!(
        digest_lists(&built.export_parts().unwrap()),
        "942cb31e89672fb489f81836e75b373548b364d7d78d1b0eb3988270d77d1257"
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
        "576da2e491f812692a5d783af7ebf0715b11332cd0aa28088acd8777f863d90c"
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
        "f703b95a9d7fe7906173d00348e7c223abaa7f2d2779911b0106bde660f4221e"
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
        "f75338816e920593db1c6d1c50b59e6a8a694d5ab74d664c5fbe6222eb49a1fa"
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
            "0c36f2240b805d076db9e04e145be2f7b00aff92fe8f64d48832e01dd26a4531",
            "56140f698902e28de15d6135550119e27f906ebd797c0ac6ca26802f36d4547a",
            "d02381fb10aa240a9e4c3370decb23e3724b15601108167d619e05768bf401fe",
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
