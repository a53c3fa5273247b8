//! The generational store — an index's optional on-disk generation
//! stack: L0 delta flushes, live background compaction, and epoch-based
//! reclaim.
//!
//! An [`crate::RsseIndex`] is one engine: resident lists (see
//! [`crate::store`]) plus, for an index served from a store directory, a
//! small LSM-shaped **generation stack** of immutable `RSSEIDX3` files
//! (each read through [`crate::segment`], the one reader of the format),
//! so heavy update streams never force a full rewrite on the serving
//! path:
//!
//! ```text
//!  dir/MANIFEST        which generations exist, in merge order
//!  dir/gen-000000.seg  the base generation   (RSSEIDX3)
//!  dir/gen-000001.seg  an L0 delta           (RSSEIDX3)
//!  dir/gen-000002.seg  another delta ...
//! ```
//!
//! A store written as `RSSEIDX2` files still opens and serves: every
//! flush after that writes an `RSSEIDX3` delta, and a compaction rewrites
//! the stack as one `RSSEIDX3` generation.
//!
//! Score-dynamics updates land in the index's resident lists; a **flush**
//! seals them into a new delta generation (cheap: proportional to the
//! updates, not the index). A **live compaction** merges the whole stack
//! into one fresh generation on a background thread *while queries keep
//! serving* from the old stack plus the resident lists, then installs it
//! with an atomic pointer flip. A query reads the touched list's parts
//! with one positional read per generation into one buffer, its resident
//! part appended, and ranks that buffer. The generations plus the
//! resident lists hold disjoint *time slices* of each posting list —
//! exactly the ciphertexts an index without a store would hold — so,
//! because [`crate::RankedResult`]'s order is total (OPM score
//! descending, ties toward the smaller file id), the ranking is
//! byte-identical to the in-memory one.
//!
//! # The flip/reclaim protocol
//!
//! The serving state is one `Arc<GenerationSet>` behind an `RwLock`. A
//! query clones the `Arc` (instant read lock) and ranks against that
//! snapshot with no further coordination — searches never block on
//! compaction I/O, and an in-flight query keeps its generations alive no
//! matter what installs meanwhile. Install order is: (1) write + fsync
//! the merged generation file, (2) write the new `MANIFEST` durably
//! (temp file, fsync, rename, directory fsync), (3) swap the `Arc` and
//! mark the replaced generations **doomed**. The `Arc` refcount *is* the
//! epoch: when the last in-flight query releases a doomed generation,
//! its `Drop` deletes the file. Deletion is deliberately volatile — if
//! the machine dies first, the files resurrect as orphans and the next
//! open removes them (the manifest, not the directory listing, is the
//! source of truth).
//!
//! # Crash consistency
//!
//! Durable state changes only at fsync/rename boundaries, all of which
//! flow through [`SegmentIo`]. Every mutation follows the same
//! discipline: data file synced *before* the manifest references it,
//! manifest replaced atomically, directory fsynced so the rename itself
//! survives power loss; creating a store also fsyncs the parent of the
//! new directory, so the store itself cannot vanish. A crash at any
//! boundary therefore leaves the durable manifest at exactly the previous
//! or the next state — never a torn mix — which
//! `crates/core/tests/crash_torture.rs` proves by killing the writer at
//! *every* boundary and diffing rankings after reopen.
//!
//! # Leakage
//!
//! A delta generation makes the update pattern visible per generation:
//! the server sees which labels grew between two flushes and by how many
//! entries — exactly what the resident lists already reveal to the
//! server process, now persisted. Compaction folds the generations back
//! into one file whose layout is a deterministic function of the public
//! shape (label set + list lengths), so the steady state leaks nothing
//! beyond what an in-memory index reveals. See DESIGN.md §6.6.

use crate::index::Label;
use crate::persist::{write_lists, PersistError};
use crate::segio::{read_file, SegmentIo};
use crate::segment::{read_list, SegmentReader};
use crate::store::PostingStore;
use rsse_opse::OpseParams;
use std::collections::BTreeSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Magic of the generation-store manifest.
pub const MANIFEST_MAGIC: &[u8; 8] = b"RSSEGEN1";

const MANIFEST: &str = "MANIFEST";
const MANIFEST_TMP: &str = "MANIFEST.tmp";
/// Sanity cap on the generation count a manifest may claim.
const MAX_GENERATIONS: u64 = 1 << 16;

fn gen_file_name(seq: u64) -> String {
    format!("gen-{seq:06}.seg")
}

fn parse_gen_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("gen-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read<'a, T>(l: &'a RwLock<T>) -> std::sync::RwLockReadGuard<'a, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<'a, T>(l: &'a RwLock<T>) -> std::sync::RwLockWriteGuard<'a, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Writes the manifest durably: temp file, fsync, atomic rename over
/// `MANIFEST`, directory fsync. The three sync points are exactly the
/// boundaries the torture suite kills at.
fn write_manifest(
    io: &dyn SegmentIo,
    dir: &Path,
    epoch: u64,
    next_seq: u64,
    seqs: &[u64],
) -> Result<(), PersistError> {
    let mut body = Vec::with_capacity(40 + seqs.len() * 8);
    body.extend_from_slice(MANIFEST_MAGIC);
    body.extend_from_slice(&epoch.to_be_bytes());
    body.extend_from_slice(&next_seq.to_be_bytes());
    body.extend_from_slice(&(seqs.len() as u64).to_be_bytes());
    for seq in seqs {
        body.extend_from_slice(&seq.to_be_bytes());
    }
    let sum = fnv1a(&body);
    body.extend_from_slice(&sum.to_be_bytes());
    let tmp = dir.join(MANIFEST_TMP);
    let mut w = io.create(&tmp)?;
    w.write_all(&body)?;
    w.sync()?;
    drop(w);
    io.rename(&tmp, &dir.join(MANIFEST))?;
    io.fsync_dir(dir)?;
    Ok(())
}

/// Parses and validates a manifest: `(epoch, next_seq, generation seqs)`.
fn parse_manifest(bytes: &[u8]) -> Result<(u64, u64, Vec<u64>), PersistError> {
    use PersistError::BadManifest;
    if bytes.len() < 40 {
        return Err(BadManifest("truncated"));
    }
    if &bytes[..8] != MANIFEST_MAGIC {
        return Err(BadManifest("bad magic"));
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let sum = u64::from_be_bytes(sum_bytes.try_into().expect("8 bytes"));
    if fnv1a(body) != sum {
        return Err(BadManifest("checksum mismatch"));
    }
    let be = |range: core::ops::Range<usize>| {
        u64::from_be_bytes(bytes[range].try_into().expect("8 bytes"))
    };
    let epoch = be(8..16);
    let next_seq = be(16..24);
    let count = be(24..32);
    if count > MAX_GENERATIONS {
        return Err(BadManifest("generation count over the sanity cap"));
    }
    if body.len() as u64 != 32 + count * 8 {
        return Err(BadManifest("record list does not match the count"));
    }
    let seqs: Vec<u64> = (0..count as usize)
        .map(|i| be(32 + i * 8..40 + i * 8))
        .collect();
    if seqs.iter().collect::<BTreeSet<_>>().len() != seqs.len() {
        return Err(BadManifest("duplicate generation"));
    }
    if seqs.iter().any(|&s| s >= next_seq) {
        return Err(BadManifest("generation seq at or past next_seq"));
    }
    Ok((epoch, next_seq, seqs))
}

/// One immutable generation file: its validated reader plus reclaim
/// state. The `Arc` refcount around this struct is the reclaim epoch —
/// see the module docs.
#[derive(Debug)]
struct GenSegment {
    seq: u64,
    path: PathBuf,
    reader: SegmentReader,
    io: Arc<dyn SegmentIo>,
    /// Set once a compaction replaced this generation: the last holder
    /// deletes the file on drop.
    doomed: AtomicBool,
    reclaimed: Arc<AtomicU64>,
}

impl Drop for GenSegment {
    fn drop(&mut self) {
        if self.doomed.load(Ordering::SeqCst) {
            // Volatile on purpose: if this deletion is lost to a crash,
            // the file comes back as an orphan and open() removes it.
            let _ = self.io.remove_file(&self.path);
            self.reclaimed.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// An immutable snapshot of the generation stack, in merge order (base
/// first, newest delta last).
#[derive(Debug)]
pub(crate) struct GenerationSet {
    epoch: u64,
    segments: Vec<Arc<GenSegment>>,
}

/// State shared by every clone of a [`GenerationStack`] and by
/// in-flight [`LiveCompaction`] jobs.
#[derive(Debug)]
struct GenShared {
    /// The serving snapshot; queries clone the `Arc` under an instant
    /// read lock. Writers replace the pointer only after the manifest is
    /// durably on disk.
    current: RwLock<Arc<GenerationSet>>,
    /// Serializes manifest writers (flush and compaction install).
    writer: Mutex<WriterState>,
    /// Guards against concurrent live compactions — the double-compact
    /// race answers [`PersistError::CompactInProgress`], never blocks.
    compacting: AtomicBool,
    /// Generations whose files have been deleted after their last reader
    /// released them.
    reclaimed: Arc<AtomicU64>,
}

#[derive(Debug)]
struct WriterState {
    epoch: u64,
    next_seq: u64,
}

impl GenShared {
    fn current_set(&self) -> Arc<GenerationSet> {
        Arc::clone(&read(&self.current))
    }
}

/// Snapshot of a generational store's shape (observability for tests,
/// benches, and operators).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerationStats {
    /// Manifest epoch of the serving snapshot.
    pub epoch: u64,
    /// Generations in the serving snapshot (1 = fully compacted).
    pub segments: usize,
    /// Generation files deleted by epoch reclaim since open.
    pub reclaimed_segments: u64,
    /// Entries in the index's resident lists, not yet flushed into a
    /// generation.
    pub overlay_entries: usize,
    /// Whether a live compaction is running right now.
    pub compacting: bool,
}

/// Outcome of one live compaction pass.
#[derive(Debug, Clone, Copy)]
pub struct CompactionStats {
    /// Generations merged into the new one.
    pub merged_segments: usize,
    /// Posting entries in the merged generation.
    pub merged_entries: u64,
    /// Bytes of the merged generation file.
    pub bytes_written: u64,
    /// How long the serving pointer was write-locked during the flip —
    /// the only moment a query can wait on compaction at all.
    pub install_pause: Duration,
    /// Total wall time of the pass (merge + durable manifest + flip).
    pub wall: Duration,
}

/// Keeps one generation snapshot alive, like an in-flight query would:
/// doomed generations cannot be reclaimed while a pin holds them.
#[derive(Debug)]
pub struct GenerationPin {
    set: Arc<GenerationSet>,
}

impl GenerationPin {
    /// Paths of the pinned generation files, in merge order.
    pub fn segment_paths(&self) -> Vec<PathBuf> {
        self.set.segments.iter().map(|s| s.path.clone()).collect()
    }

    /// Readers of the pinned generation files, in merge order.
    pub(crate) fn readers(&self) -> impl Iterator<Item = &SegmentReader> {
        self.set.segments.iter().map(|s| &s.reader)
    }
}

/// The generation files behind an index served from a store directory —
/// see the module docs for layout and protocol. The index's resident
/// lists hold every entry not yet flushed into a generation.
///
/// Cloning shares the generation stack (and compaction state).
#[derive(Debug, Clone)]
pub(crate) struct GenerationStack {
    dir: PathBuf,
    io: Arc<dyn SegmentIo>,
    opse: OpseParams,
    shared: Arc<GenShared>,
}

impl GenerationStack {
    /// Creates a new store at `dir`: writes `lists` — whole lists in
    /// label order — as the base generation, then the initial manifest,
    /// all durably. The parent directory is fsynced before the first file
    /// sync, so the store directory's own entry survives power loss too.
    pub fn create(
        io: Arc<dyn SegmentIo>,
        dir: &Path,
        opse: &OpseParams,
        lists: impl ExactSizeIterator<Item = (Label, impl AsRef<[u8]>)>,
    ) -> Result<Self, PersistError> {
        io.create_dir_all(dir)?;
        let parent = dir
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .unwrap_or(Path::new("."));
        io.fsync_dir(parent)?;
        let file = io.create(&dir.join(gen_file_name(0)))?;
        let mut out = write_lists(file, opse, lists.map(Ok))?;
        out.sync()?;
        drop(out);
        write_manifest(io.as_ref(), dir, 1, 1, &[0])?;
        Self::open(io, dir)
    }

    /// Opens an existing store: reads the manifest, opens every listed
    /// generation, and removes orphan generation files a crash may have
    /// left behind (the manifest is the source of truth; the directory
    /// listing is not).
    ///
    /// # Errors
    ///
    /// [`PersistError::BadManifest`] on a malformed manifest; any
    /// [`PersistError`] validating a listed generation file. A listed
    /// generation that is missing or corrupt fails the open — the
    /// manifest only ever references files whose contents were fsynced
    /// before it, so that state indicates real corruption, not a crash.
    pub fn open(io: Arc<dyn SegmentIo>, dir: &Path) -> Result<Self, PersistError> {
        let dir = dir.to_path_buf();
        let manifest = read_file(io.as_ref(), &dir.join(MANIFEST))?;
        let (epoch, stored_next, seqs) = parse_manifest(&manifest)?;
        let reclaimed = Arc::new(AtomicU64::new(0));
        let mut segments = Vec::with_capacity(seqs.len());
        let mut opse: Option<OpseParams> = None;
        for &seq in &seqs {
            let path = dir.join(gen_file_name(seq));
            let reader = SegmentReader::open(io.as_ref(), &path)?;
            match opse {
                None => opse = Some(*reader.opse()),
                Some(ref p) if p != reader.opse() => {
                    return Err(PersistError::BadManifest(
                        "generations disagree on OPSE parameters",
                    ));
                }
                Some(_) => {}
            }
            segments.push(Arc::new(GenSegment {
                seq,
                path,
                reader,
                io: Arc::clone(&io),
                doomed: AtomicBool::new(false),
                reclaimed: Arc::clone(&reclaimed),
            }));
        }
        let opse = opse.unwrap_or_else(|| OpseParams::new(1, 1).expect("1/1 is valid"));
        // Sweep orphans: generation files not in the manifest (a crashed
        // flush/compaction or a lost reclaim) and a stale manifest temp.
        let referenced: BTreeSet<u64> = seqs.iter().copied().collect();
        if let Ok(names) = io.list_dir(&dir) {
            for name in names {
                if name == MANIFEST_TMP {
                    let _ = io.remove_file(&dir.join(&name));
                } else if let Some(seq) = parse_gen_file_name(&name) {
                    if !referenced.contains(&seq) {
                        let _ = io.remove_file(&dir.join(&name));
                    }
                }
            }
        }
        let next_seq = stored_next.max(seqs.iter().max().map_or(0, |m| m + 1));
        Ok(GenerationStack {
            dir,
            io,
            opse,
            shared: Arc::new(GenShared {
                current: RwLock::new(Arc::new(GenerationSet { epoch, segments })),
                writer: Mutex::new(WriterState { epoch, next_seq }),
                compacting: AtomicBool::new(false),
                reclaimed,
            }),
        })
    }

    /// The OPSE parameters shared by every generation.
    pub fn opse_params(&self) -> &OpseParams {
        &self.opse
    }

    /// Current shape of the store, with `overlay_entries` entries not yet
    /// flushed.
    pub fn stats(&self, overlay_entries: usize) -> GenerationStats {
        let set = self.shared.current_set();
        GenerationStats {
            epoch: set.epoch,
            segments: set.segments.len(),
            reclaimed_segments: self.shared.reclaimed.load(Ordering::SeqCst),
            overlay_entries,
            compacting: self.shared.compacting.load(Ordering::SeqCst),
        }
    }

    /// Pins the current generation snapshot (see [`GenerationPin`]).
    pub fn pin(&self) -> GenerationPin {
        GenerationPin {
            set: self.shared.current_set(),
        }
    }

    /// Whether a live compaction is running right now.
    pub fn compact_in_progress(&self) -> bool {
        self.shared.compacting.load(Ordering::SeqCst)
    }

    /// Seals `lists` — the entries appended since the last flush — into a
    /// new L0 delta generation, durably (data file fsync, then manifest:
    /// fsync + rename + dir fsync). Cost is proportional to `lists`, never
    /// the index. On any error the serving state is unchanged, so the
    /// caller keeps `lists` until this returns `Ok`.
    pub fn flush(&self, lists: &PostingStore) -> Result<(), PersistError> {
        let mut writer = lock(&self.shared.writer);
        let seq = writer.next_seq;
        let path = self.dir.join(gen_file_name(seq));
        let flat = lists.iter().map(|(label, list)| Ok((*label, list)));
        let mut out = write_lists(self.io.create(&path)?, &self.opse, flat)?;
        out.sync()?;
        drop(out);
        let reader = SegmentReader::open(self.io.as_ref(), &path)?;
        let cur = self.shared.current_set();
        let epoch = writer.epoch + 1;
        let mut segments = cur.segments.clone();
        segments.push(Arc::new(GenSegment {
            seq,
            path,
            reader,
            io: Arc::clone(&self.io),
            doomed: AtomicBool::new(false),
            reclaimed: Arc::clone(&self.shared.reclaimed),
        }));
        let seqs: Vec<u64> = segments.iter().map(|s| s.seq).collect();
        write_manifest(self.io.as_ref(), &self.dir, epoch, seq + 1, &seqs)?;
        writer.epoch = epoch;
        writer.next_seq = seq + 1;
        *write(&self.shared.current) = Arc::new(GenerationSet { epoch, segments });
        Ok(())
    }

    /// Starts a live compaction of the current generation stack.
    ///
    /// Returns `Ok(None)` when there is nothing to merge (fewer than two
    /// generations — flush first if the resident lists should be
    /// included). The returned job owns a snapshot of the stack and runs
    /// entirely off the serving path: hand it to a background thread and
    /// call [`LiveCompaction::run`]. Queries (and flushes) proceed
    /// untouched meanwhile; dropping the job without running it aborts
    /// cleanly.
    ///
    /// # Errors
    ///
    /// [`PersistError::CompactInProgress`] when another live compaction
    /// is already running — immediately, never blocking behind it.
    pub fn begin_live_compact(&self) -> Result<Option<LiveCompaction>, PersistError> {
        if self.shared.compacting.swap(true, Ordering::SeqCst) {
            return Err(PersistError::CompactInProgress);
        }
        let snapshot = self.shared.current_set();
        if snapshot.segments.len() < 2 {
            self.shared.compacting.store(false, Ordering::SeqCst);
            return Ok(None);
        }
        let out_seq = {
            let mut writer = lock(&self.shared.writer);
            let seq = writer.next_seq;
            writer.next_seq = seq + 1;
            seq
        };
        Ok(Some(LiveCompaction {
            dir: self.dir.clone(),
            io: Arc::clone(&self.io),
            opse: self.opse,
            shared: Arc::clone(&self.shared),
            snapshot,
            out_seq,
        }))
    }
}

/// An in-flight live compaction: merges a snapshot of the generation
/// stack into one new generation, then installs it. Obtained from
/// [`crate::RsseIndex::begin_live_compact`]; safe to move to a
/// background thread. Dropping without [`Self::run`] aborts cleanly
/// (the in-progress flag clears; a partially written file becomes an
/// orphan the next open sweeps).
#[derive(Debug)]
pub struct LiveCompaction {
    dir: PathBuf,
    io: Arc<dyn SegmentIo>,
    opse: OpseParams,
    shared: Arc<GenShared>,
    snapshot: Arc<GenerationSet>,
    out_seq: u64,
}

impl Drop for LiveCompaction {
    fn drop(&mut self) {
        // Runs both on abort and at the end of `run`: the store accepts
        // the next compaction only once this job is fully retired.
        self.shared.compacting.store(false, Ordering::SeqCst);
    }
}

impl LiveCompaction {
    /// Generations this pass will merge.
    pub fn merging(&self) -> usize {
        self.snapshot.segments.len()
    }

    /// Runs the merge and installs the new generation; see the module
    /// docs for the flip/reclaim protocol. No index lock is held at any
    /// point — queries and flushes proceed concurrently; the only
    /// serving-path wait is the pointer swap itself, reported as
    /// [`CompactionStats::install_pause`].
    ///
    /// # Errors
    ///
    /// Any [`PersistError`] writing, fsyncing, or re-validating. On
    /// error nothing is installed: the store keeps serving the old stack
    /// and the partial output file is swept as an orphan on next open.
    pub fn run(self) -> Result<CompactionStats, PersistError> {
        let t0 = Instant::now();
        let segs = &self.snapshot.segments;
        let readers = || segs.iter().map(|s| &s.reader);
        let labels: BTreeSet<&Label> = readers().flat_map(|r| r.directory().keys()).collect();
        let merged_entries = readers()
            .flat_map(|r| r.directory().values())
            .map(|l| l.count)
            .sum();
        // Each list is read whole, its parts joined in generation order,
        // and written before the next is read.
        let lists = labels
            .into_iter()
            .map(|label| Ok((*label, read_list(readers(), label, &[])?)));
        let path = self.dir.join(gen_file_name(self.out_seq));
        let mut out = write_lists(self.io.create(&path)?, &self.opse, lists)?;
        out.sync()?;
        drop(out);
        let reader = SegmentReader::open(self.io.as_ref(), &path)?;
        let bytes_written = reader.file_len()?;
        let merged = Arc::new(GenSegment {
            seq: self.out_seq,
            path,
            reader,
            io: Arc::clone(&self.io),
            doomed: AtomicBool::new(false),
            reclaimed: Arc::clone(&self.shared.reclaimed),
        });
        // Install: serialize with flushes, then swap the pointer. The
        // current stack may have grown deltas past our snapshot; they are
        // newer than everything merged, so they stay, in order, after the
        // merged generation.
        let mut writer = lock(&self.shared.writer);
        let cur = self.shared.current_set();
        debug_assert!(
            cur.segments
                .iter()
                .zip(segs.iter())
                .all(|(a, b)| a.seq == b.seq),
            "snapshot must be a prefix of the current stack"
        );
        let mut segments = Vec::with_capacity(1 + cur.segments.len() - segs.len());
        segments.push(merged);
        segments.extend(cur.segments[segs.len()..].iter().cloned());
        let epoch = writer.epoch + 1;
        let seqs: Vec<u64> = segments.iter().map(|s| s.seq).collect();
        write_manifest(self.io.as_ref(), &self.dir, epoch, writer.next_seq, &seqs)?;
        writer.epoch = epoch;
        let flip = Instant::now();
        {
            let mut cur_w = write(&self.shared.current);
            for seg in segs.iter() {
                seg.doomed.store(true, Ordering::SeqCst);
            }
            *cur_w = Arc::new(GenerationSet { epoch, segments });
        }
        let install_pause = flip.elapsed();
        Ok(CompactionStats {
            merged_segments: segs.len(),
            merged_entries,
            bytes_written,
            install_pause,
            wall: t0.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::ENTRY_CT_LEN;
    use crate::segio::MemIo;
    use crate::RsseIndex;
    use rsse_opse::OpseParams;

    const LEN: u32 = ENTRY_CT_LEN as u32;

    fn label(b: u8) -> Label {
        [b; 20]
    }

    /// `n` entries, the `i`-th all `tag + i`, back to back.
    fn entries(n: u8, tag: u8) -> Vec<u8> {
        (0..n).flat_map(|i| [tag + i; ENTRY_CT_LEN]).collect()
    }

    /// Appends one entry, all `tag`, to the list under `label(l)`.
    fn append(store: &mut RsseIndex, l: u8, tag: u8) {
        store
            .append_entries(label(l), LEN, &entries(1, tag))
            .unwrap();
    }

    fn sample_index() -> RsseIndex {
        RsseIndex::from_parts(
            vec![
                (label(1), LEN, entries(2, 0xA1)),
                (label(2), LEN, vec![]),
                (label(3), LEN, entries(2, 0xB1)),
            ],
            OpseParams::default(),
        )
        .unwrap()
    }

    fn mem_store() -> (MemIo, RsseIndex) {
        let io = MemIo::new();
        let store = sample_index()
            .save_generational_with_io(io.shared(), "/gen")
            .unwrap();
        (io, store)
    }

    fn reopen(io: &MemIo) -> RsseIndex {
        RsseIndex::open_generational_with_io(io.shared(), "/gen").unwrap()
    }

    fn segments(store: &RsseIndex) -> usize {
        store.generation_stats().expect("generational").segments
    }

    #[test]
    fn create_open_roundtrip_preserves_content() {
        let (io, store) = mem_store();
        assert_eq!(segments(&store), 1);
        assert_eq!(store.size_bytes(), sample_index().size_bytes());
        drop(store);
        let store = reopen(&io);
        assert_eq!(store.num_lists(), 3);
        assert_eq!(store.list_len(&label(1)), Some(2));
        assert_eq!(store.list_len(&label(2)), Some(0));
        assert_eq!(
            store.raw_list(&label(3)),
            Some(vec![vec![0xB1; ENTRY_CT_LEN], vec![0xB2; ENTRY_CT_LEN]])
        );
    }

    #[test]
    fn flush_seals_the_overlay_into_a_delta_generation() {
        let (io, mut store) = mem_store();
        assert!(
            !store.flush_updates().unwrap(),
            "nothing resident is a no-op"
        );
        append(&mut store, 1, 0xA3);
        append(&mut store, 9, 0xC1);
        assert!(store.flush_updates().unwrap());
        let stats = store.generation_stats().unwrap();
        assert_eq!(stats.overlay_entries, 0, "resident lists drained");
        assert_eq!(stats.segments, 2);
        assert_eq!(store.list_len(&label(1)), Some(3));
        assert_eq!(store.list_len(&label(9)), Some(1));
        // Durable: a power loss and reopen serve the same content.
        io.power_loss();
        let store = reopen(&io);
        assert_eq!(store.list_len(&label(1)), Some(3));
        assert_eq!(store.list_len(&label(9)), Some(1));
    }

    #[test]
    fn live_compaction_merges_and_reclaims_after_last_release() {
        let (io, mut store) = mem_store();
        append(&mut store, 1, 0xA3);
        store.flush_updates().unwrap();
        append(&mut store, 9, 0xC1);
        store.flush_updates().unwrap();
        assert_eq!(segments(&store), 3);
        let pin = store.pin_generations().unwrap(); // an "in-flight query" across the flip
        let old_paths = pin.segment_paths();
        let job = store.begin_live_compact().unwrap().expect("work to do");
        assert_eq!(job.merging(), 3);
        let stats = job.run().unwrap();
        assert_eq!(stats.merged_segments, 3);
        assert_eq!(segments(&store), 1);
        // The pin holds the old generations alive: files still present.
        for p in &old_paths {
            assert!(
                io.read(p).is_some(),
                "{} reclaimed under a pin",
                p.display()
            );
        }
        assert_eq!(store.generation_stats().unwrap().reclaimed_segments, 0);
        drop(pin);
        for p in &old_paths {
            assert!(io.read(p).is_none(), "{} not reclaimed", p.display());
        }
        assert_eq!(store.generation_stats().unwrap().reclaimed_segments, 3);
        assert_eq!(store.list_len(&label(1)), Some(3));
        assert_eq!(store.list_len(&label(9)), Some(1));
    }

    #[test]
    fn double_compact_gets_a_typed_error_not_a_block() {
        let (_io, mut store) = mem_store();
        append(&mut store, 1, 0xA3);
        store.flush_updates().unwrap();
        let job = store.begin_live_compact().unwrap().expect("work to do");
        assert!(matches!(
            store.begin_live_compact(),
            Err(PersistError::CompactInProgress)
        ));
        // Aborting the job (drop without run) releases the store.
        drop(job);
        let job = store.begin_live_compact().unwrap().expect("still two gens");
        job.run().unwrap();
        // After a completed pass the store accepts the next one.
        assert!(
            store.begin_live_compact().unwrap().is_none(),
            "one gen left"
        );
    }

    #[test]
    fn single_generation_has_nothing_to_merge() {
        let (_io, store) = mem_store();
        assert!(store.begin_live_compact().unwrap().is_none());
        assert!(
            !store.generation_stats().unwrap().compacting,
            "flag released on None"
        );
    }

    #[test]
    fn hostile_manifests_are_rejected() {
        let (io, store) = mem_store();
        drop(store);
        let manifest_path = Path::new("/gen").join(MANIFEST);
        let good = io.read(&manifest_path).unwrap();
        let mut checks = Vec::new();
        // Bit flip anywhere → checksum mismatch.
        let mut flipped = good.clone();
        flipped[9] ^= 1;
        checks.push(flipped);
        // Truncation.
        checks.push(good[..good.len() - 9].to_vec());
        // Wrong magic with a "valid" checksum.
        let mut bad_magic = good.clone();
        bad_magic[..8].copy_from_slice(b"NOTAGEN1");
        let body_len = bad_magic.len() - 8;
        let sum = fnv1a(&bad_magic[..body_len]);
        bad_magic[body_len..].copy_from_slice(&sum.to_be_bytes());
        checks.push(bad_magic);
        for bad in checks {
            use std::io::Write;
            let mut w = io.create(&manifest_path).unwrap();
            w.write_all(&bad).unwrap();
            drop(w);
            assert!(matches!(
                GenerationStack::open(io.shared(), Path::new("/gen")),
                Err(PersistError::BadManifest(_)) | Err(PersistError::Io(_))
            ));
        }
    }

    #[test]
    fn orphan_generation_files_are_swept_at_open() {
        let (io, mut store) = mem_store();
        append(&mut store, 1, 0xA3);
        store.flush_updates().unwrap();
        drop(store);
        // Fake a crashed compaction: an output file nothing references.
        {
            use std::io::Write;
            let mut w = io
                .create(&Path::new("/gen").join(gen_file_name(77)))
                .unwrap();
            w.write_all(b"partial garbage").unwrap();
            drop(w);
            let mut w = io.create(&Path::new("/gen").join(MANIFEST_TMP)).unwrap();
            w.write_all(b"stale").unwrap();
            drop(w);
        }
        let store = reopen(&io);
        assert!(io
            .read(&Path::new("/gen").join(gen_file_name(77)))
            .is_none());
        assert!(io.read(&Path::new("/gen").join(MANIFEST_TMP)).is_none());
        assert_eq!(segments(&store), 2);
    }
}
