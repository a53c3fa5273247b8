//! Persistence round-trip properties for the on-disk index format
//! (`crates/core/src/persist.rs`).
//!
//! The format must be lossless over *wire-shaped* indexes — ragged
//! per-list entry counts and entry lengths, empty lists, empty entries —
//! not just the uniform padded lists the scheme happens to produce. And a
//! loader fed hostile bytes (wrong magic, absurd length claims, files cut
//! off mid-entry) must fail with the matching [`PersistError`], never
//! panic or mis-load — both the materializing loader and the generational
//! store, whose every generation file is one `RSSEIDX2` file.

use proptest::collection::vec;
use proptest::prelude::*;
use rsse_core::persist::{PersistError, MAGIC, MAGIC_V2};
use rsse_core::{Label, Rsse, RsseIndex, RsseParams};
use rsse_ir::{Document, FileId};
use rsse_opse::OpseParams;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Unique temp paths so parallel tests never collide on a store.
fn temp_path(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rsse_roundtrip_{tag}_{}_{n}", std::process::id()))
}

/// Distinct 20-byte labels: proptest drives only the salt, the counter
/// guarantees distinctness so `from_parts` keeps lists separate.
fn label(i: usize, salt: u8) -> Label {
    let mut l = [salt; 20];
    l[..8].copy_from_slice(&(i as u64).to_be_bytes());
    l
}

fn ragged_index(lists: &[Vec<Vec<u8>>], salt: u8, domain: u64, extra: u64) -> RsseIndex {
    let parts = lists
        .iter()
        .enumerate()
        .map(|(i, entries)| (label(i, salt), entries.clone()))
        .collect();
    let opse = OpseParams::new(domain, domain + extra).unwrap();
    RsseIndex::from_parts(parts, opse)
}

fn scheme_built_index() -> (Rsse, RsseIndex) {
    let docs = vec![
        Document::new(FileId::new(1), "network storage network throughput"),
        Document::new(FileId::new(2), "network packet capture"),
        Document::new(FileId::new(3), "storage arrays and controllers"),
    ];
    let scheme = Rsse::new(b"roundtrip seed", RsseParams::default());
    let index = scheme.build_index(&docs).unwrap();
    (scheme, index)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Save→load is the identity on arbitrary ragged wire-shaped indexes:
    /// same OPSE parameters, same lists, same entries, byte for byte.
    #[test]
    fn save_load_is_identity_on_ragged_indexes(
        lists in vec(vec(vec(any::<u8>(), 0..40), 0..6), 0..8),
        salt in any::<u8>(),
        domain in 1u64..512,
        extra in 0u64..(1 << 40),
    ) {
        let index = ragged_index(&lists, salt, domain, extra);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let loaded = RsseIndex::load(&buf[..]).unwrap();
        prop_assert_eq!(loaded.opse_params(), index.opse_params());
        prop_assert_eq!(loaded.export_parts(), index.export_parts());

        // Determinism: the reloaded index re-saves to the same bytes, so
        // backups of backups stay comparable.
        let mut again = Vec::new();
        loaded.save(&mut again).unwrap();
        prop_assert_eq!(again, buf);
    }

    /// Any strict prefix of a valid file is an error — the loader never
    /// silently returns a partial index.
    #[test]
    fn any_truncation_is_rejected(
        lists in vec(vec(vec(any::<u8>(), 1..20), 1..4), 1..5),
        cut_seed in any::<u64>(),
    ) {
        let index = ragged_index(&lists, 7, 64, 64);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let cut = (cut_seed as usize) % buf.len();
        prop_assert!(RsseIndex::load(&buf[..cut]).is_err(), "cut at {}", cut);
    }
}

#[test]
fn scheme_built_index_roundtrips_search_results() {
    let (scheme, index) = scheme_built_index();
    let mut buf = Vec::new();
    index.save(&mut buf).unwrap();
    let loaded = RsseIndex::load(&buf[..]).unwrap();
    for kw in ["network", "storage", "packet", "throughput"] {
        let t = scheme.trapdoor(kw).unwrap();
        assert_eq!(loaded.search(&t, None), index.search(&t, None), "{kw}");
        assert_eq!(
            loaded.search(&t, Some(2)),
            index.search(&t, Some(2)),
            "{kw}"
        );
    }
}

#[test]
fn wrong_magic_is_bad_magic_not_io() {
    let (_, index) = scheme_built_index();
    let mut buf = Vec::new();
    index.save(&mut buf).unwrap();
    buf[0] ^= 0x20; // "rSSEIDX2"
    match RsseIndex::load(&buf[..]).unwrap_err() {
        PersistError::BadMagic(m) => assert_eq!(&m[1..], &MAGIC_V2[1..]),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

/// Hand-encodes a legacy `RSSEIDX1` file — written byte-for-byte the way
/// the pre-directory format did, with no reference to the current writer.
fn legacy_v1_bytes(lists: &[(Label, Vec<Vec<u8>>)], domain: u64, range: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&domain.to_be_bytes());
    buf.extend_from_slice(&range.to_be_bytes());
    buf.extend_from_slice(&(lists.len() as u64).to_be_bytes());
    for (label, entries) in lists {
        buf.extend_from_slice(label);
        buf.extend_from_slice(&(entries.len() as u64).to_be_bytes());
        for e in entries {
            buf.extend_from_slice(&(e.len() as u64).to_be_bytes());
            buf.extend_from_slice(e);
        }
    }
    buf
}

#[test]
fn rsseidx1_files_written_before_the_directory_still_load() {
    let lists = vec![
        (label(0, 9), vec![vec![0xA1; 12], vec![0xA2; 12]]),
        (label(1, 9), vec![]),
        (label(2, 9), vec![vec![0xB1; 3], vec![0xB2; 7]]),
    ];
    let buf = legacy_v1_bytes(&lists, 128, 1 << 46);

    // Through the materializing loader.
    let loaded = RsseIndex::load(&buf[..]).unwrap();
    assert_eq!(loaded.num_lists(), 3);
    for (l, entries) in &lists {
        assert_eq!(loaded.raw_list(l).as_ref(), Some(entries), "{l:02x?}");
    }
    // A reload re-saves in v2; the upgraded file round-trips losslessly.
    let mut upgraded = Vec::new();
    loaded.save(&mut upgraded).unwrap();
    assert_eq!(&upgraded[..8], MAGIC_V2);
    assert_eq!(
        RsseIndex::load(&upgraded[..]).unwrap().export_parts(),
        loaded.export_parts()
    );
}

/// The base generation's file name inside a store directory.
const BASE_GENERATION: &str = "gen-000000.seg";

/// Saves a generational store (one base generation), returning its
/// directory, the base generation's bytes, and the byte offset of their
/// directory, for the hostile-directory cases to patch.
fn saved_v2_with_dir_offset(tag: &str) -> (PathBuf, Vec<u8>, usize) {
    let lists = vec![
        vec![vec![0x11; 10], vec![0x12; 10]],
        vec![vec![0x21; 4]],
        vec![vec![0x31; 6], vec![0x32; 2], vec![0x33; 8]],
    ];
    let index = ragged_index(&lists, 5, 64, 64);
    let dir = temp_path(tag);
    drop(index.save_generational(&dir).unwrap());
    let buf = std::fs::read(dir.join(BASE_GENERATION)).unwrap();
    let dir_offset = u64::from_be_bytes(buf[buf.len() - 8..].try_into().unwrap()) as usize;
    (dir, buf, dir_offset)
}

/// Writes `bytes` as the base generation of the store in `dir` and
/// reopens the store, removing it afterwards.
fn open_with_base(dir: &Path, bytes: &[u8]) -> Result<RsseIndex, PersistError> {
    std::fs::write(dir.join(BASE_GENERATION), bytes).unwrap();
    let opened = RsseIndex::open_generational(dir);
    let _ = std::fs::remove_dir_all(dir);
    opened
}

/// A store whose base generation is `bytes` must reject with
/// `BadDirectory` at open — and in particular must neither panic nor
/// allocate from the hostile claims.
fn assert_bad_directory(dir: &Path, bytes: &[u8], what: &str) {
    match open_with_base(dir, bytes) {
        Err(PersistError::BadDirectory(_)) => {}
        other => panic!("{what}: expected BadDirectory, got {other:?}"),
    }
}

#[test]
fn hostile_directory_out_of_range_offsets_rejected() {
    let (path, mut buf, dir) = saved_v2_with_dir_offset("range");
    // First record's byte_len claims past the directory.
    buf[dir + 28..dir + 36].copy_from_slice(&(1u64 << 29).to_be_bytes());
    assert_bad_directory(&path, &buf, "out-of-range byte_len");

    let (path, mut buf, dir) = saved_v2_with_dir_offset("range2");
    // First record's offset points before the file header.
    buf[dir + 20..dir + 28].copy_from_slice(&3u64.to_be_bytes());
    assert_bad_directory(&path, &buf, "offset inside the header");
}

#[test]
fn hostile_directory_overlapping_or_unsorted_offsets_rejected() {
    let (path, mut buf, dir) = saved_v2_with_dir_offset("overlap");
    // Second record re-uses the first record's offset: overlapping ranges.
    let first_offset = buf[dir + 20..dir + 28].to_vec();
    buf[dir + 44 + 20..dir + 44 + 28].copy_from_slice(&first_offset);
    assert_bad_directory(&path, &buf, "overlapping ranges");

    let (path, mut buf, dir) = saved_v2_with_dir_offset("unsorted");
    // Swap the offsets of records 0 and 1: ranges run right to left.
    let (a, b) = (dir + 20, dir + 44 + 20);
    let first = buf[a..a + 8].to_vec();
    let second = buf[b..b + 8].to_vec();
    buf[a..a + 8].copy_from_slice(&second);
    buf[b..b + 8].copy_from_slice(&first);
    assert_bad_directory(&path, &buf, "unsorted offsets");
}

#[test]
fn hostile_directory_unsorted_labels_rejected() {
    let (path, mut buf, dir) = saved_v2_with_dir_offset("labels");
    // Swap the labels of records 0 and 1 (offsets untouched).
    let first = buf[dir..dir + 20].to_vec();
    let second = buf[dir + 44..dir + 44 + 20].to_vec();
    buf[dir..dir + 20].copy_from_slice(&second);
    buf[dir + 44..dir + 44 + 20].copy_from_slice(&first);
    assert_bad_directory(&path, &buf, "unsorted labels");
}

#[test]
fn hostile_directory_absurd_counts_never_over_allocate() {
    // Entry count over the sanity cap: Oversize, before any allocation.
    let (path, mut buf, dir) = saved_v2_with_dir_offset("count");
    buf[dir + 36..dir + 44].copy_from_slice(&(2u64 << 30).to_be_bytes());
    assert!(matches!(
        open_with_base(&path, &buf).unwrap_err(),
        PersistError::Oversize(_)
    ));

    // Entry count under the cap but impossible for its byte range (each
    // entry needs an 8-byte prefix): BadDirectory, and the count is never
    // trusted as an allocation size.
    let (path, mut buf, dir) = saved_v2_with_dir_offset("count2");
    buf[dir + 36..dir + 44].copy_from_slice(&(1u64 << 29).to_be_bytes());
    assert_bad_directory(&path, &buf, "count cannot fit its range");

    // A list-count header claiming far more records than the file holds.
    let (path, mut buf, _) = saved_v2_with_dir_offset("count3");
    buf[24..32].copy_from_slice(&(1u64 << 20).to_be_bytes());
    assert_bad_directory(&path, &buf, "list count beyond the file");
}

#[test]
fn hostile_trailer_rejected() {
    let (path, mut buf, _) = saved_v2_with_dir_offset("trailer");
    let len = buf.len();
    // Trailer pointing past the end of the file.
    buf[len - 8..].copy_from_slice(&(u64::MAX).to_be_bytes());
    assert_bad_directory(&path, &buf, "trailer out of range");

    // A file cut short: the last 8 bytes are no longer the trailer.
    let (path, buf, _) = saved_v2_with_dir_offset("truncated");
    assert_bad_directory(&path, &buf[..buf.len() - 3], "truncated tail");
}

#[test]
fn oversize_claims_are_rejected_at_every_depth() {
    // A length claim over the 1 GiB sanity cap must surface as Oversize —
    // whether it is the list count, an entry count, or an entry length.
    let huge = (2u64 << 30).to_be_bytes();

    // Hostile list count.
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&64u64.to_be_bytes());
    buf.extend_from_slice(&128u64.to_be_bytes());
    buf.extend_from_slice(&huge);
    assert!(matches!(
        RsseIndex::load(&buf[..]).unwrap_err(),
        PersistError::Oversize(_)
    ));

    // Hostile entry count inside the first list.
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&64u64.to_be_bytes());
    buf.extend_from_slice(&128u64.to_be_bytes());
    buf.extend_from_slice(&1u64.to_be_bytes());
    buf.extend_from_slice(&[0u8; 20]);
    buf.extend_from_slice(&huge);
    assert!(matches!(
        RsseIndex::load(&buf[..]).unwrap_err(),
        PersistError::Oversize(_)
    ));

    // Hostile entry length inside the first entry.
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&64u64.to_be_bytes());
    buf.extend_from_slice(&128u64.to_be_bytes());
    buf.extend_from_slice(&1u64.to_be_bytes());
    buf.extend_from_slice(&[0u8; 20]);
    buf.extend_from_slice(&1u64.to_be_bytes());
    buf.extend_from_slice(&huge);
    assert!(matches!(
        RsseIndex::load(&buf[..]).unwrap_err(),
        PersistError::Oversize(_)
    ));
}

#[test]
fn truncation_mid_entry_is_io_error() {
    // Cut inside the *payload* of the last entry: the header parses, the
    // entry length is honest, but the bytes run out partway through.
    let lists = vec![vec![vec![0xAB; 16], vec![0xCD; 16]]];
    let index = ragged_index(&lists, 3, 64, 64);
    let mut buf = Vec::new();
    index.save(&mut buf).unwrap();
    for missing in 1..16 {
        let cut = buf.len() - missing;
        match RsseIndex::load(&buf[..cut]).unwrap_err() {
            PersistError::Io(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut {cut}");
            }
            other => panic!("expected Io at cut {cut}, got {other:?}"),
        }
    }
}
