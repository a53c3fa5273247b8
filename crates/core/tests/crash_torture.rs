//! Crash-torture for the storage engine: kill the writer at **every**
//! fsync/rename boundary and demand a clean recovery.
//!
//! The [`MemIo`] fault model (see `crates/core/src/segio.rs`) only
//! changes durable state at *sync points* — file fsync, directory
//! fsync, rename. So replaying one fixed op plan and injecting a crash
//! at sync point `k` for every `k ∈ 0..N` (plus the uncrashed run)
//! enumerates every distinct power-loss state the plan can leave on
//! disk. For each one the suite reboots (`power_loss`), reopens the
//! store, and demands:
//!
//! * the recovered content is **byte-identical** to the durable state
//!   just before or just after the interrupted operation — never a torn
//!   mix;
//! * rankings served from the recovered store are byte-identical to an
//!   in-memory index holding that same state;
//! * the recovered store stays fully writable (update → flush →
//!   compact still round-trips).
//!
//! Alongside the exhaustive sweep: the ordering of store creation's
//! fsyncs (the new directory's parent first), the double-compact typed
//! error, flushes proceeding during a live compaction, searches served
//! while a compaction is stalled mid-write, and pin-based reclaim.

use rsse_core::persist::PersistError;
use rsse_core::{
    IndexUpdate, Label, MemIo, RankedResult, Rsse, RsseIndex, RsseParams, SegmentIo, SegmentRead,
    SegmentWrite,
};
use rsse_ir::{Document, FileId, InvertedIndex};
use rsse_opse::OpseParams;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A small closed vocabulary so posting lists overlap heavily and every
/// operation touches contested labels.
const VOCAB: [&str; 5] = ["alpha", "beta", "gamma", "delta", "omega"];

type Parts = Vec<(Label, u32, Vec<u8>)>;

/// An index's lists in wire shape (every list here is whole).
fn parts(index: &RsseIndex) -> Parts {
    index.export_parts().expect("whole lists")
}

fn doc(id: u64, words: &[usize]) -> Document {
    let text: Vec<&str> = words.iter().map(|&w| VOCAB[w % VOCAB.len()]).collect();
    Document::new(FileId::new(id), text.join(" "))
}

/// Everything a replay needs, built once: the scheme, the outsourced
/// base index (as wire parts), and a deterministic update stream.
struct Fixture {
    scheme: Rsse,
    base_parts: Parts,
    opse: OpseParams,
    updates: Vec<IndexUpdate>,
}

fn fixture() -> Fixture {
    let scheme = Rsse::new(b"crash torture master secret", RsseParams::default());
    let base_docs = vec![
        doc(1, &[0, 0, 1, 2]),
        doc(2, &[0, 1, 1, 1]),
        doc(3, &[2, 2, 3]),
        doc(4, &[3, 4, 0]),
        doc(5, &[4, 4, 4, 1]),
        doc(6, &[0, 2, 4]),
    ];
    let base = scheme.build_index(&base_docs).expect("base index");
    let opse = *base.opse_params().expect("scheme-built index has params");
    let base_parts = parts(&base);
    let updater = scheme
        .updater_for(&InvertedIndex::build(&base_docs))
        .expect("updater");
    let updates = [
        doc(7, &[0, 0, 0, 3]),
        doc(8, &[1, 4, 4]),
        doc(9, &[2, 1, 1, 0]),
        doc(10, &[3, 3, 0, 2]),
    ]
    .iter()
    .map(|d| updater.add_document(d).expect("update"))
    .collect();
    Fixture {
        scheme,
        base_parts,
        opse,
        updates,
    }
}

impl Fixture {
    fn base(&self) -> RsseIndex {
        RsseIndex::from_parts(self.base_parts.clone(), self.opse).expect("whole lists")
    }

    fn apply(&self, i: usize, a: &mut RsseIndex, b: &mut RsseIndex) {
        self.updates[i].clone().apply_to(a);
        self.updates[i].clone().apply_to(b);
    }
}

/// Every ranking the fixture vocabulary can ask for, full and top-3,
/// must be byte-identical between the two indexes.
fn assert_same_rankings(scheme: &Rsse, got: &RsseIndex, want: &RsseIndex, ctx: &str) {
    for word in VOCAB {
        let td = scheme.trapdoor(word).expect("trapdoor");
        let full: Vec<RankedResult> = want.search(&td, None);
        assert_eq!(got.search(&td, None), full, "{ctx}: ranking for {word:?}");
        assert_eq!(
            got.search(&td, Some(3)),
            want.search(&td, Some(3)),
            "{ctx}: top-3 for {word:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// The exhaustive generational sweep.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Op {
    Update(usize),
    Flush,
    Compact,
}

/// Two flushed deltas, a full-stack compaction, then a compaction that
/// has to flush its own overlay first — every durable code path (create,
/// flush, merge, install) appears at least once, some twice.
const PLAN: &[Op] = &[
    Op::Update(0),
    Op::Flush,
    Op::Update(1),
    Op::Flush,
    Op::Compact,
    Op::Update(2),
    Op::Compact,
];

const GEN_DIR: &str = "/torture/gen";

/// What a (possibly crashed) replay left on disk.
enum Recovered {
    /// The crash hit store creation: nothing was ever durable, reopening
    /// must fail rather than serve a phantom store.
    NoStore,
    /// The durable state must be byte-identical to exactly one of these
    /// two snapshots — the content just before or just after the
    /// interrupted operation.
    States { pre: Parts, post: Parts },
}

/// Runs the op plan against a fresh [`MemIo`], mirroring every update
/// into an in-memory reference index, optionally killing the writer at
/// sync point `crash_at`. Stops at the first failed operation, like the
/// real process would.
fn replay(fx: &Fixture, crash_at: Option<u64>) -> (MemIo, Recovered) {
    let io = MemIo::new();
    if let Some(k) = crash_at {
        io.crash_at_sync_point(k);
    }
    let mut mem = fx.base();
    let mut store = match mem.save_generational_with_io(io.shared(), Path::new(GEN_DIR)) {
        Ok(store) => store,
        Err(_) => return (io, Recovered::NoStore),
    };
    let mut durable = parts(&mem);
    for op in PLAN {
        match *op {
            Op::Update(i) => fx.apply(i, &mut store, &mut mem),
            Op::Flush | Op::Compact => {
                // Both ops seal the whole overlay on success, so their
                // post state is the reference content at this instant.
                let post = parts(&mem);
                let result = match op {
                    Op::Flush => store.flush_updates().map(|_| ()),
                    Op::Compact => store.compact().map(|_| ()),
                    Op::Update(_) => unreachable!("updates never touch io"),
                };
                match result {
                    Ok(()) => durable = post,
                    Err(_) => return (io, Recovered::States { pre: durable, post }),
                }
            }
        }
    }
    let final_state = parts(&mem);
    (
        io,
        Recovered::States {
            pre: final_state.clone(),
            post: final_state,
        },
    )
}

/// Reboots, reopens, and checks the recovered store: exactly pre- or
/// post-state (never torn), rankings byte-identical to that state, and
/// the store still writable end-to-end.
fn verify_recovery(fx: &Fixture, io: &MemIo, recovered: Recovered, ctx: &str) {
    io.power_loss();
    let dir = Path::new(GEN_DIR);
    match recovered {
        Recovered::NoStore => {
            assert!(
                RsseIndex::open_generational_with_io(io.shared(), dir).is_err(),
                "{ctx}: creation never became durable, open must fail"
            );
        }
        Recovered::States { pre, post } => {
            let mut store = RsseIndex::open_generational_with_io(io.shared(), dir)
                .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
            let got = parts(&store);
            let matched = if got == post {
                post
            } else if got == pre {
                pre
            } else {
                panic!("{ctx}: recovered a torn state (neither pre- nor post-op)");
            };
            let mut memref = RsseIndex::from_parts(matched, fx.opse).expect("whole lists");
            assert_same_rankings(&fx.scheme, &store, &memref, ctx);
            // Recovery must leave a *working* store: one more update
            // must flush and compact cleanly.
            fx.apply(3, &mut store, &mut memref);
            store
                .flush_updates()
                .unwrap_or_else(|e| panic!("{ctx}: post-recovery flush failed: {e}"));
            store
                .compact()
                .unwrap_or_else(|e| panic!("{ctx}: post-recovery compaction failed: {e}"));
            assert_same_rankings(
                &fx.scheme,
                &store,
                &memref,
                &format!("{ctx}, after recovery"),
            );
        }
    }
}

#[test]
fn generational_store_survives_a_kill_at_every_sync_point() {
    let fx = fixture();
    // Uncrashed run: counts the kill boundaries and pins the happy path.
    let (io, recovered) = replay(&fx, None);
    assert!(!io.crash_fired());
    let boundaries = io.sync_points();
    assert!(
        boundaries >= 20,
        "the op plan must cross at least 20 fsync/rename boundaries, got {boundaries}"
    );
    verify_recovery(&fx, &io, recovered, "uncrashed");
    // Kill the writer at every single boundary.
    for k in 0..boundaries {
        let ctx = format!("crash at sync point {k}/{boundaries}");
        let (io, recovered) = replay(&fx, Some(k));
        assert!(io.crash_fired(), "{ctx}: boundary was never reached");
        verify_recovery(&fx, &io, recovered, &ctx);
    }
}

// ---------------------------------------------------------------------------
// Concurrency contracts: typed double-compact error, flushes during a
// live pass, searches while the compactor is stalled, pinned reclaim.
// ---------------------------------------------------------------------------

#[test]
fn double_compact_errors_while_flushes_proceed() {
    let fx = fixture();
    let io = MemIo::new();
    let mut mem = fx.base();
    let mut store = mem
        .save_generational_with_io(io.shared(), Path::new("/torture/dc"))
        .expect("create");
    fx.apply(0, &mut store, &mut mem);
    assert!(store.flush_updates().expect("flush"));
    fx.apply(1, &mut store, &mut mem);
    assert!(store.flush_updates().expect("flush"));
    assert_eq!(store.generation_stats().expect("generational").segments, 3);

    let job = store
        .begin_live_compact()
        .expect("begin")
        .expect("three generations to merge");
    // A second compaction answers immediately with the typed error —
    // both through the explicit API and the convenience entry point.
    assert!(matches!(
        store.begin_live_compact(),
        Err(PersistError::CompactInProgress)
    ));
    assert!(matches!(
        store.compact(),
        Err(PersistError::CompactInProgress)
    ));
    // Flushes are not blocked by the running job: the delta lands on
    // top of the stack and survives the install.
    fx.apply(2, &mut store, &mut mem);
    assert!(store.flush_updates().expect("flush during compaction"));
    assert_eq!(store.generation_stats().expect("generational").segments, 4);

    let stats = job.run().expect("compaction");
    assert_eq!(stats.merged_segments, 3);
    let shape = store.generation_stats().expect("generational");
    assert_eq!(
        shape.segments, 2,
        "merged generation + the delta flushed during the run"
    );
    assert!(!shape.compacting, "flag released after install");
    assert_same_rankings(&fx.scheme, &store, &mem, "after concurrent flush + compact");
    // And the store accepts the next pass.
    assert!(store.compact().expect("second compaction"));
    assert_eq!(store.generation_stats().expect("generational").segments, 1);
    assert_same_rankings(&fx.scheme, &store, &mem, "fully compacted");
}

#[test]
fn pinned_generations_survive_compaction_until_released() {
    let fx = fixture();
    let io = MemIo::new();
    let mut mem = fx.base();
    let mut store = mem
        .save_generational_with_io(io.shared(), Path::new("/torture/pin"))
        .expect("create");
    fx.apply(0, &mut store, &mut mem);
    store.flush_updates().expect("flush");
    fx.apply(1, &mut store, &mut mem);
    store.flush_updates().expect("flush");

    let pin = store.pin_generations().expect("generational store");
    let old_paths = pin.segment_paths();
    assert_eq!(old_paths.len(), 3);
    assert!(store.compact().expect("compaction"));
    let shape = store.generation_stats().expect("generational");
    assert_eq!(shape.segments, 1);
    assert_eq!(
        shape.reclaimed_segments, 0,
        "pinned generations must not be reclaimed"
    );
    for p in &old_paths {
        assert!(
            io.read(p).is_some(),
            "{} deleted under a live pin",
            p.display()
        );
    }
    drop(pin);
    assert_eq!(
        store
            .generation_stats()
            .expect("generational")
            .reclaimed_segments,
        3,
        "releasing the last pin reclaims the doomed generation files"
    );
    for p in &old_paths {
        assert!(io.read(p).is_none(), "{} never reclaimed", p.display());
    }
    assert_same_rankings(&fx.scheme, &store, &mem, "after pinned compaction");
}

// ---------------------------------------------------------------------------
// Probed io: store creation fsyncs in a durable order, and searches never
// block on compaction — stall the compactor mid-write and serve queries
// meanwhile.
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct GateState {
    armed: bool,
    open: bool,
    blocked: bool,
}

/// A one-shot gate: once armed, the next writer fsync parks until
/// [`Gate::release`], and the test can wait for that parking to happen.
#[derive(Debug, Default)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

impl Gate {
    fn arm(&self) {
        self.state.lock().unwrap().armed = true;
    }

    fn release(&self) {
        self.state.lock().unwrap().open = true;
        self.cv.notify_all();
    }

    /// Blocks the calling writer while the gate is armed and closed.
    fn pass(&self) {
        let mut s = self.state.lock().unwrap();
        if s.armed && !s.open {
            s.blocked = true;
            self.cv.notify_all();
            while !s.open {
                s = self.cv.wait(s).unwrap();
            }
            s.blocked = false;
        }
    }

    /// Waits until a writer is parked at the gate.
    fn wait_blocked(&self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut s = self.state.lock().unwrap();
        while !s.blocked {
            let left = deadline
                .checked_duration_since(Instant::now())
                .expect("compactor never reached its first fsync");
            s = self.cv.wait_timeout(s, left).unwrap().0;
        }
    }
}

/// What a [`ProbeIo`] observes and controls: the directory creations and
/// fsyncs it forwarded, in order, and the [`Gate`] its write handles
/// stall at.
#[derive(Debug, Default)]
struct Probe {
    gate: Gate,
    ops: Mutex<Vec<String>>,
}

impl Probe {
    fn note(&self, op: &str, path: &Path) {
        self.ops
            .lock()
            .unwrap()
            .push(format!("{op} {}", path.display()));
    }
}

/// Delegating [`SegmentIo`] that logs directory creations and fsyncs into
/// its [`Probe`] and whose write handles stall at the probe's [`Gate`] on
/// fsync — freezing a compactor mid-write without touching readers.
#[derive(Debug)]
struct ProbeIo {
    inner: Arc<dyn SegmentIo>,
    probe: Arc<Probe>,
}

struct ProbeWrite {
    inner: Box<dyn SegmentWrite>,
    path: PathBuf,
    probe: Arc<Probe>,
}

impl Write for ProbeWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl SegmentWrite for ProbeWrite {
    fn sync(&mut self) -> io::Result<()> {
        self.probe.gate.pass();
        self.probe.note("sync", &self.path);
        self.inner.sync()
    }
}

impl SegmentIo for ProbeIo {
    fn open_read(&self, path: &Path) -> io::Result<Arc<dyn SegmentRead>> {
        self.inner.open_read(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn SegmentWrite>> {
        Ok(Box::new(ProbeWrite {
            inner: self.inner.create(path)?,
            path: path.to_path_buf(),
            probe: Arc::clone(&self.probe),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        self.probe.note("fsync_dir", dir);
        self.inner.fsync_dir(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.probe.note("create_dir_all", dir);
        self.inner.create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list_dir(dir)
    }
}

fn probed(probe: &Arc<Probe>) -> Arc<dyn SegmentIo> {
    Arc::new(ProbeIo {
        inner: MemIo::new().shared(),
        probe: Arc::clone(probe),
    })
}

/// A freshly created store directory is an entry in its *parent*: unless
/// the parent is fsynced, power loss after a successful boot can drop the
/// whole store. The parent fsync must follow the directory creation and
/// precede the first file sync (so a crash there still recovers as "no
/// store"); a relative one-component path fsyncs `.`.
#[test]
fn store_creation_fsyncs_the_parent_before_any_file() {
    let fx = fixture();
    for (dir, parent) in [("/torture/new/store", "/torture/new"), ("store", ".")] {
        let probe = Arc::new(Probe::default());
        fx.base()
            .save_generational_with_io(probed(&probe), Path::new(dir))
            .expect("create");
        let ops = probe.ops.lock().unwrap().clone();
        let at = |op: &str| ops.iter().position(|o| o == op);
        let made = at(&format!("create_dir_all {dir}"));
        let parent_synced = at(&format!("fsync_dir {parent}"));
        let first_sync = ops.iter().position(|o| o.starts_with("sync "));
        assert!(
            made.is_some(),
            "{dir}: store directory never created: {ops:?}"
        );
        assert!(
            parent_synced > made && parent_synced < first_sync,
            "{dir}: parent {parent} must be fsynced after the directory is made \
             and before the first file sync: {ops:?}"
        );
    }
}

#[test]
fn searches_are_served_while_a_live_compaction_is_stalled() {
    let fx = fixture();
    let probe = Arc::new(Probe::default());
    let gate = &probe.gate;
    let io = probed(&probe);
    let dir = PathBuf::from("/torture/gate");
    let mut mem = fx.base();
    let mut store = mem
        .save_generational_with_io(Arc::clone(&io), &dir)
        .expect("create");
    fx.apply(0, &mut store, &mut mem);
    store.flush_updates().expect("flush");
    fx.apply(1, &mut store, &mut mem);
    store.flush_updates().expect("flush");
    assert_eq!(store.generation_stats().expect("generational").segments, 3);

    // Freeze the compactor at its first fsync (the merged file's) and
    // let it sit there on a background thread.
    gate.arm();
    let job = store
        .begin_live_compact()
        .expect("begin")
        .expect("three generations to merge");
    let compactor = std::thread::spawn(move || job.run());
    gate.wait_blocked();

    // The store is mid-compaction, writer frozen. Every query must be
    // answered now, from the old stack, byte-identical to memory.
    let shape = store.generation_stats().expect("generational");
    assert!(shape.compacting, "compaction is live");
    assert_eq!(shape.segments, 3, "old stack still serving");
    let served = Instant::now();
    assert_same_rankings(&fx.scheme, &store, &mem, "during stalled compaction");
    assert!(
        served.elapsed() < Duration::from_secs(5),
        "searches waited on a stalled compaction"
    );

    gate.release();
    let stats = compactor
        .join()
        .expect("compactor thread")
        .expect("compaction");
    assert_eq!(stats.merged_segments, 3);
    assert_eq!(store.generation_stats().expect("generational").segments, 1);
    assert_same_rankings(&fx.scheme, &store, &mem, "after released compaction");
}
