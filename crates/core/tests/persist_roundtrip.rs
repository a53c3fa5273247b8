//! Persistence round-trip properties for the on-disk index format
//! (`crates/core/src/persist.rs`).
//!
//! The format must be lossless over *wire-shaped* indexes — lists whose
//! entry counts differ from list to list, empty lists, arbitrary entry
//! bytes — not just the uniform padded lists the scheme happens to
//! produce. Every entry is `ENTRY_CT_LEN` bytes: that is the only list
//! shape an index admits, and a file list of any other entry length is
//! refused as `MalformedList`. One reader opens every file, behind the
//! materializing loader and behind each generation of a generational
//! store; fed hostile bytes (wrong magic, absurd length claims, cut-off
//! files, directories whose extents do not tile the body in whole
//! entries) it must fail with the matching [`PersistError`] through both
//! doors, never panic or mis-load.
//! `RSSEIDX2` files, which framed every entry with its length, still open
//! and rank as before; `RSSEIDX1` files are refused. A tracking allocator
//! checks that no door ever allocates much past the size of its input,
//! whatever lengths the file claims. (The lib crate forbids `unsafe`; this
//! integration-test crate hosts the allocator shim.)

use proptest::collection::vec;
use proptest::prelude::*;
use rsse_core::entry::ENTRY_CT_LEN;
use rsse_core::persist::{PersistError, MAGIC_V2, MAGIC_V3};
use rsse_core::{Label, MemIo, Rsse, RsseError, RsseIndex, RsseParams, RsseTrapdoor, SegmentIo};
use rsse_ir::{Document, FileId, InvertedIndex};
use rsse_opse::OpseParams;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// The largest single allocation this thread made since it was last
    /// reset to 0.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

struct TrackingAllocator;

// SAFETY: delegates directly to the system allocator; the tracking is a
// side effect on a thread-local `Cell` (constant-initialized, no
// destructor, so touching it never allocates) that never touches the
// returned memory.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static TRACKER: TrackingAllocator = TrackingAllocator;

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

/// One list per item of `lists`, under distinct labels, each cut to whole
/// `ENTRY_CT_LEN`-byte entries: lists differ in entry count.
fn ragged_index(lists: &[Vec<u8>], salt: u8, domain: u64, extra: u64) -> RsseIndex {
    let parts = lists
        .iter()
        .enumerate()
        .map(|(i, bytes)| {
            let whole = bytes.len() / ENTRY_CT_LEN * ENTRY_CT_LEN;
            (label(i, salt), ENTRY_CT_LEN as u32, bytes[..whole].to_vec())
        })
        .collect();
    let opse = OpseParams::new(domain, domain + extra).unwrap();
    RsseIndex::from_parts(parts, opse).unwrap()
}

fn docs() -> Vec<Document> {
    vec![
        Document::new(FileId::new(1), "network storage network throughput"),
        Document::new(FileId::new(2), "network packet capture"),
        Document::new(FileId::new(3), "storage arrays and controllers"),
    ]
}

fn scheme_built_index() -> (Rsse, RsseIndex) {
    let scheme = Rsse::new(b"roundtrip seed", RsseParams::default());
    let index = scheme.build_index(&docs()).unwrap();
    (scheme, index)
}

fn saved(index: &RsseIndex) -> Vec<u8> {
    let mut buf = Vec::new();
    index.save(&mut buf).unwrap();
    buf
}

fn be(bytes: &[u8]) -> usize {
    u64::from_be_bytes(bytes.try_into().unwrap()) as usize
}

/// Overwrites the u64 at `at`.
fn patch(buf: &mut [u8], at: usize, value: u64) {
    buf[at..at + 8].copy_from_slice(&value.to_be_bytes());
}

/// The base generation's path inside the store at `/gen`.
const BASE_GENERATION: &str = "/gen/gen-000000.seg";

/// A generational store in memory at `/gen` whose base generation is
/// `bytes`, opened.
fn store_with_base(bytes: &[u8]) -> (MemIo, Result<RsseIndex, PersistError>) {
    let io = MemIo::new();
    drop(RsseIndex::default().save_generational_with_io(io.shared(), "/gen"));
    let mut base = io.create(Path::new(BASE_GENERATION)).unwrap();
    base.write_all(bytes).unwrap();
    drop(base);
    let store = RsseIndex::open_generational_with_io(io.shared(), "/gen");
    (io, store)
}

/// The two doors of the one reader: the materializing loader, and a
/// store whose base generation the bytes are.
const DOORS: [&str; 2] = ["load", "open_generational"];

/// Opens `bytes` through both doors. Neither may allocate more than
/// twice the input in one piece (what `load` reads it into, or the store
/// holds it in), plus a few pages, whatever lengths the file claims.
fn open_both(bytes: &[u8]) -> [Result<RsseIndex, PersistError>; 2] {
    LARGEST.with(|largest| largest.set(0));
    let opened = [RsseIndex::load(bytes), store_with_base(bytes).1];
    let largest = LARGEST.with(Cell::get);
    let cap = 2 * bytes.len() + (16 << 10);
    assert!(
        largest <= cap,
        "allocated {largest} B for a {} B file",
        bytes.len()
    );
    opened
}

/// `bytes` must be refused through both doors with an error `want`
/// accepts — in particular, neither may panic or allocate from the
/// hostile claims.
fn assert_refused(bytes: &[u8], what: &str, want: fn(&PersistError) -> bool) {
    for (door, opened) in DOORS.iter().zip(open_both(bytes)) {
        match opened {
            Err(e) if want(&e) => {}
            other => panic!("{what} via {door}: got {other:?}"),
        }
    }
}

fn assert_bad_directory(bytes: &[u8], what: &str) {
    assert_refused(bytes, what, |e| matches!(e, PersistError::BadDirectory(_)));
}

fn assert_oversize(bytes: &[u8], what: &str) {
    assert_refused(bytes, what, |e| matches!(e, PersistError::Oversize(_)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Save→load is the identity on arbitrary wire-shaped indexes whose
    /// lists differ in entry count: same OPSE parameters, same lists, same
    /// entries, byte for byte.
    #[test]
    fn save_load_is_identity_on_ragged_indexes(
        lists in vec(vec(any::<u8>(), 0..240), 0..8),
        salt in any::<u8>(),
        domain in 1u64..512,
        extra in 0u64..(1 << 40),
    ) {
        let index = ragged_index(&lists, salt, domain, extra);
        let buf = saved(&index);
        let loaded = RsseIndex::load(&buf[..]).unwrap();
        prop_assert_eq!(loaded.opse_params(), index.opse_params());
        prop_assert_eq!(loaded.export_parts(), index.export_parts());

        // Determinism: the reloaded index re-saves to the same bytes, so
        // backups of backups stay comparable.
        prop_assert_eq!(saved(&loaded), buf);
    }

    /// Any strict prefix of a valid file is an error through both doors —
    /// neither ever returns a partial index.
    #[test]
    fn any_truncation_is_rejected(
        lists in vec(vec(any::<u8>(), 32..160), 1..5),
        cut_seed in any::<u64>(),
    ) {
        let buf = saved(&ragged_index(&lists, 7, 64, 64));
        let cut = (cut_seed as usize) % buf.len();
        for (door, opened) in DOORS.iter().zip(open_both(&buf[..cut])) {
            prop_assert!(opened.is_err(), "cut at {} via {}", cut, door);
        }
    }
}

#[test]
fn scheme_built_index_roundtrips_search_results() {
    let (scheme, index) = scheme_built_index();
    let loaded = RsseIndex::load(&saved(&index)[..]).unwrap();
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
    let mut buf = saved(&index);
    buf[0] ^= 0x20; // "rSSEIDX3"
    match RsseIndex::load(&buf[..]).unwrap_err() {
        PersistError::BadMagic(m) => assert_eq!(&m[1..], &MAGIC_V3[1..]),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

/// Hand-encodes an `RSSEIDX2` file — byte for byte the way the writer
/// before `RSSEIDX3` did, with no reference to the current writer: each
/// list as `label | u64 count` then its entries, each framed by its u64
/// length, then a directory whose record for a list (`label | offset |
/// byte-len | count`) covers its framed entries, then the directory's
/// offset.
fn legacy_v2_bytes(lists: &[(Label, Vec<Vec<u8>>)], opse: &OpseParams) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC_V2);
    buf.extend_from_slice(&opse.domain_size().to_be_bytes());
    buf.extend_from_slice(&opse.range_size().to_be_bytes());
    buf.extend_from_slice(&(lists.len() as u64).to_be_bytes());
    let mut directory = Vec::new();
    for (label, entries) in lists {
        buf.extend_from_slice(label);
        buf.extend_from_slice(&(entries.len() as u64).to_be_bytes());
        let offset = buf.len() as u64;
        for e in entries {
            buf.extend_from_slice(&(e.len() as u64).to_be_bytes());
            buf.extend_from_slice(e);
        }
        directory.extend_from_slice(label);
        directory.extend_from_slice(&offset.to_be_bytes());
        directory.extend_from_slice(&(buf.len() as u64 - offset).to_be_bytes());
        directory.extend_from_slice(&(entries.len() as u64).to_be_bytes());
    }
    let dir_offset = buf.len() as u64;
    buf.extend_from_slice(&directory);
    buf.extend_from_slice(&dir_offset.to_be_bytes());
    buf
}

/// An `RSSEIDX1` file: the `RSSEIDX2` body with its own magic and no
/// directory.
fn legacy_v1_bytes(lists: &[(Label, Vec<Vec<u8>>)], opse: &OpseParams) -> Vec<u8> {
    let v2 = legacy_v2_bytes(lists, opse);
    let dir_offset = be(&v2[v2.len() - 8..]);
    [&b"RSSEIDX1"[..], &v2[8..dir_offset]].concat()
}

/// Every list of `index` as its entries, one `Vec` each.
fn entry_lists(index: &RsseIndex) -> Vec<(Label, Vec<Vec<u8>>)> {
    let parts = index.export_parts().unwrap();
    let split = |bytes: Vec<u8>| {
        let chunks = bytes.chunks_exact(ENTRY_CT_LEN);
        chunks.map(<[u8]>::to_vec).collect()
    };
    (parts.into_iter())
        .map(|(label, _, bytes)| (label, split(bytes)))
        .collect()
}

#[test]
fn rsseidx1_files_are_bad_magic() {
    // Their entries are 40 bytes (a 16-byte nonce), a layout no index
    // has served since entries became 32 bytes.
    let lists = vec![
        (label(0, 9), vec![vec![0xA1; 40], vec![0xA2; 40]]),
        (label(1, 9), vec![]),
    ];
    let buf = legacy_v1_bytes(&lists, &OpseParams::new(128, 1 << 46).unwrap());
    assert_refused(
        &buf,
        "RSSEIDX1",
        |e| matches!(e, PersistError::BadMagic(m) if m == b"RSSEIDX1"),
    );
}

#[test]
fn rsseidx2_files_rank_alike_and_upgrade_to_rsseidx3() {
    let (scheme, mut mem) = scheme_built_index();
    let v2 = legacy_v2_bytes(&entry_lists(&mem), mem.opse_params().unwrap());
    let v3 = saved(&mem);
    let keywords = ["network", "storage", "packet", "throughput", "controllers"];
    let rankings = |index: &RsseIndex| {
        keywords.map(|kw| {
            let t = scheme.trapdoor(kw).unwrap();
            (index.search(&t, None), index.search(&t, Some(2)))
        })
    };
    let want = rankings(&RsseIndex::load(&v3[..]).unwrap());
    assert_eq!(want, rankings(&mem));

    // Read through `load` and as a store's base generation, the v2 file
    // ranks as the same lists saved as v3, and re-saves as those bytes.
    let loaded = RsseIndex::load(&v2[..]).unwrap();
    let (io, store) = store_with_base(&v2);
    let mut store = store.unwrap();
    assert_eq!(rankings(&loaded), want);
    assert_eq!(rankings(&store), want);
    assert_eq!(saved(&loaded), v3);
    assert_eq!(saved(&store), v3);

    // The v2 store takes an update; its flush writes a v3 delta.
    let updater = scheme.updater_for(&InvertedIndex::build(&docs())).unwrap();
    let doc = Document::new(FileId::new(77), "network storage storage");
    let update = updater.add_document(&doc).unwrap();
    update.clone().apply_to(&mut mem);
    update.apply_to(&mut store);
    assert!(store.flush_updates().unwrap());
    let delta = io.read(Path::new("/gen/gen-000001.seg")).unwrap();
    assert_eq!(&delta[..8], MAGIC_V3);
    assert_eq!(rankings(&store), rankings(&mem));

    // One compaction leaves a single v3 generation.
    assert!(store.compact().unwrap());
    let paths = store.pin_generations().unwrap().segment_paths();
    assert_eq!(paths.len(), 1);
    assert_eq!(&io.read(&paths[0]).unwrap()[..8], MAGIC_V3);
    assert_eq!(rankings(&store), rankings(&mem));
    assert_eq!(saved(&store), saved(&mem));
}

/// A saved index of four lists — two entries, one entry, three entries,
/// then an empty list — and the byte offset of its directory, for the
/// hostile cases to patch. Record `k` sits at `dir + 44·k`: label, then
/// offset at `+20`, byte length at `+28`, entry count at `+36`.
fn saved_with_dir_offset() -> (Vec<u8>, usize) {
    let entries =
        |tags: &[u8]| -> Vec<u8> { tags.iter().flat_map(|&tag| [tag; ENTRY_CT_LEN]).collect() };
    let lists = vec![
        entries(&[0x11, 0x12]),
        entries(&[0x21]),
        entries(&[0x31, 0x32, 0x33]),
        vec![],
    ];
    let buf = saved(&ragged_index(&lists, 5, 64, 64));
    let dir_offset = be(&buf[buf.len() - 8..]);
    (buf, dir_offset)
}

#[test]
fn hostile_directory_out_of_range_offsets_rejected() {
    let (mut buf, dir) = saved_with_dir_offset();
    // First record's byte_len claims past the directory.
    patch(&mut buf, dir + 28, 1 << 29);
    assert_bad_directory(&buf, "out-of-range byte_len");

    let (mut buf, dir) = saved_with_dir_offset();
    // First record's offset points into the file header.
    patch(&mut buf, dir + 20, 3);
    assert_bad_directory(&buf, "offset inside the header");
}

#[test]
fn hostile_directory_overlapping_or_unsorted_offsets_rejected() {
    let (mut buf, dir) = saved_with_dir_offset();
    // Second record re-uses the first record's offset: overlapping ranges.
    let first_offset = be(&buf[dir + 20..dir + 28]) as u64;
    patch(&mut buf, dir + 44 + 20, first_offset);
    assert_bad_directory(&buf, "overlapping ranges");

    let (mut buf, dir) = saved_with_dir_offset();
    // Swap the offsets of records 0 and 1: ranges run right to left.
    let (a, b) = (dir + 20, dir + 44 + 20);
    let (first, second) = (be(&buf[a..a + 8]) as u64, be(&buf[b..b + 8]) as u64);
    patch(&mut buf, a, second);
    patch(&mut buf, b, first);
    assert_bad_directory(&buf, "unsorted offsets");
}

#[test]
fn hostile_directory_unsorted_labels_rejected() {
    let (mut buf, dir) = saved_with_dir_offset();
    // Swap the labels of records 0 and 1 (offsets untouched).
    let first = buf[dir..dir + 20].to_vec();
    let second = buf[dir + 44..dir + 44 + 20].to_vec();
    buf[dir..dir + 20].copy_from_slice(&second);
    buf[dir + 44..dir + 44 + 20].copy_from_slice(&first);
    assert_bad_directory(&buf, "unsorted labels");
}

#[test]
fn hostile_directory_absurd_counts_never_over_allocate() {
    // Entry count over the sanity cap: Oversize, before any allocation.
    let (mut buf, dir) = saved_with_dir_offset();
    patch(&mut buf, dir + 36, 2 << 30);
    assert_oversize(&buf, "entry count over the cap");

    // Entry count under the cap but impossible for its byte range:
    // BadDirectory, and the count is never trusted as an allocation size.
    let (mut buf, dir) = saved_with_dir_offset();
    patch(&mut buf, dir + 36, 1 << 29);
    assert_bad_directory(&buf, "count cannot fit its range");

    // A list-count header claiming far more records than the file holds.
    let (mut buf, _) = saved_with_dir_offset();
    patch(&mut buf, 24, 1 << 20);
    assert_bad_directory(&buf, "list count beyond the file");
}

#[test]
fn hostile_directory_extents_must_hold_whole_entries_back_to_back() {
    // Two entries' bytes are not a whole number of 3 entries.
    let (mut buf, dir) = saved_with_dir_offset();
    patch(&mut buf, dir + 36, 3);
    assert_bad_directory(&buf, "byte length not a whole number of entries");

    // The empty list claims an entry in its 0 bytes.
    let (mut buf, dir) = saved_with_dir_offset();
    patch(&mut buf, dir + 3 * 44 + 36, 1);
    assert_bad_directory(&buf, "non-empty list of 0 bytes");

    // The second list, made empty, starts 4 bytes past the first one's
    // end; the third still starts where it ends.
    let (mut buf, dir) = saved_with_dir_offset();
    let offset = be(&buf[dir + 44 + 20..dir + 44 + 28]) as u64;
    patch(&mut buf, dir + 44 + 20, offset + 4);
    patch(&mut buf, dir + 44 + 28, 0);
    patch(&mut buf, dir + 44 + 36, 0);
    assert_bad_directory(&buf, "a gap between two extents");

    // The third list drops its last entry and the empty list follows
    // it, so the extents end one entry short of the directory.
    let (mut buf, dir) = saved_with_dir_offset();
    let entry = ENTRY_CT_LEN as u64;
    patch(&mut buf, dir + 2 * 44 + 28, 2 * entry);
    patch(&mut buf, dir + 2 * 44 + 36, 2);
    let offset = be(&buf[dir + 3 * 44 + 20..dir + 3 * 44 + 28]) as u64;
    patch(&mut buf, dir + 3 * 44 + 20, offset - entry);
    assert_bad_directory(&buf, "bytes after the last extent");
}

#[test]
fn hostile_trailer_rejected() {
    let (mut buf, _) = saved_with_dir_offset();
    let len = buf.len();
    // Trailer pointing past the end of the file.
    patch(&mut buf, len - 8, u64::MAX);
    assert_bad_directory(&buf, "trailer out of range");

    // A file cut short: the last 8 bytes are no longer the trailer.
    let (buf, _) = saved_with_dir_offset();
    assert_bad_directory(&buf[..buf.len() - 3], "truncated tail");
}

#[test]
fn oversize_claims_are_rejected_at_every_depth() {
    // A length claim over the 1 GiB sanity cap must surface as Oversize —
    // whether it is the list count, a list's entry count, or its byte
    // length (which gives its entry length).
    let huge = 2u64 << 30;
    let (mut buf, _) = saved_with_dir_offset();
    patch(&mut buf, 24, huge);
    assert_oversize(&buf, "list count");

    let (mut buf, dir) = saved_with_dir_offset();
    patch(&mut buf, dir + 36, huge);
    assert_oversize(&buf, "entry count");

    let (mut buf, dir) = saved_with_dir_offset();
    patch(&mut buf, dir + 28, huge);
    assert_oversize(&buf, "byte length");
}

#[test]
fn cut_off_tails_are_bad_directory() {
    // A file missing its last bytes: the trailer no longer locates a
    // directory that ends the file.
    let buf = saved(&ragged_index(
        &[[[0xAB; ENTRY_CT_LEN], [0xCD; ENTRY_CT_LEN]].concat()],
        3,
        64,
        64,
    ));
    for missing in 1..16 {
        assert_bad_directory(&buf[..buf.len() - missing], &format!("{missing} missing"));
    }
}

#[test]
fn stored_lists_that_mix_entry_lengths_are_a_typed_error() {
    // An `RSSEIDX2` list whose 24- and 40-byte entries frame like two
    // 32-byte ones: its directory record (byte length 80, count 2) is
    // consistent, only the entries' length prefixes disagree with it.
    let mixed = label(0, 8);
    let opse = OpseParams::new(64, 128).unwrap();
    let bytes = legacy_v2_bytes(&[(mixed, vec![vec![0x43; 24], vec![0x44; 40]])], &opse);
    let malformed = |e: &PersistError| matches!(e, PersistError::Rsse(RsseError::MalformedList(l)) if *l == mixed);
    // The materializing loader refuses the file.
    let err = RsseIndex::load(&bytes[..]).unwrap_err();
    assert!(malformed(&err), "load: {err:?}");

    // A generational store opens it (only the directory is read) and
    // serves it, but refuses to export or save it.
    let store = store_with_base(&bytes).1.unwrap();
    assert_eq!(store.list_len(&mixed), Some(2));
    assert_eq!(store.export_parts(), Err(RsseError::MalformedList(mixed)));
    let err = store.save(Vec::new()).unwrap_err();
    assert!(malformed(&err), "save: {err:?}");
    let (scheme, _) = scheme_built_index();
    let t = RsseTrapdoor::from_parts(
        mixed,
        scheme.trapdoor("network").unwrap().list_key().clone(),
    );
    assert!(store.search(&t, None).is_empty());
    assert_eq!(
        store.try_search(&t, None),
        Err(RsseError::MalformedList(mixed))
    );
}

#[test]
fn a_generation_cut_short_under_a_live_store_is_a_typed_error() {
    let docs: Vec<Document> = (1..=20)
        .map(|i| {
            let text = format!("network storage term{} term{} report", i % 3, i % 7);
            Document::new(FileId::new(i), &text)
        })
        .collect();
    let scheme = Rsse::new(b"cut short", RsseParams::default());
    let index = scheme.build_index(&docs).unwrap();
    let dir = temp_path("cut");
    let store = index.save_generational(&dir).unwrap();
    assert_eq!(store.export_parts(), index.export_parts());

    // Cut the base generation to its header behind the live handle.
    let base = std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join("gen-000000.seg"));
    base.unwrap().set_len(32).unwrap();
    let network = scheme.trapdoor("network").unwrap();
    let label = network.label();
    assert_eq!(store.list_len(label), index.list_len(label), "directory");
    assert!(matches!(store.export_parts(), Err(RsseError::StoreRead(_))));
    assert!(matches!(store.save(Vec::new()), Err(PersistError::Io(_))));
    let copy = temp_path("cut_copy");
    assert!(matches!(
        store.save_generational(&copy),
        Err(PersistError::Io(_))
    ));
    assert_eq!(store.raw_list(label), None);
    // A search ranks an unreadable part as empty; the server's form
    // reports it.
    assert!(store.search(&network, None).is_empty());
    assert!(matches!(
        store.try_search(&network, None),
        Err(RsseError::StoreRead(_))
    ));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&copy);
}
