//! Byte pins: the exact bytes the owner's Setup writes.
//!
//! The coin tape feeds every padding entry, entry nonce and OPM coin, and
//! the two builders turn it into the lists the server stores, so a change
//! to either that moves one byte changes every ciphertext the owner has
//! ever outsourced. These tests pin SHA-256 digests of a long tape read
//! and of both builders' exported lists on a fixed corpus and seed. A
//! speed-up of the tape or of the build must leave them unchanged.

use rsse::core::{Rsse, RsseParams};
use rsse::crypto::tape::Transcript;
use rsse::crypto::{Digest, SecretKey, Sha256, Tape};
use rsse::ir::corpus::{CorpusParams, SyntheticCorpus};
use rsse::ir::InvertedIndex;
use rsse::sse::BasicScheme;

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
fn rsse_build_is_pinned() {
    let scheme = Rsse::new(MASTER_SEED, RsseParams::default());
    let built = scheme.build_index_from(&plaintext_index()).unwrap();
    assert_eq!(
        digest_lists(&built.export_parts().unwrap()),
        "1c5785673df70890d4ffda977a67e64e53fa29f7ef3832fd4d324c9a68649a7b"
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
        "ade54a81d9e50d328a17e105272aa4fe283355afe9f7d8405c1b22448739d72e"
    );
}
