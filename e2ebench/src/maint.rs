//! The owner's storage cadence, identical on every workload: after every
//! [`FLUSH_EVERY`] acknowledged updates the servers flush their update
//! overlay, and every [`COMPACT_EVERY`]th flush starts a background
//! compaction (joining the previous one first). Flushes and compactions
//! follow the update count, not the clock, so both commits of a
//! comparison do the same storage work per update. On the in-memory
//! backend both calls return at once; on the generational store they
//! write L0 delta generations and merge them.
//!
//! A maintenance thread makes the calls, so client threads never stall
//! on them; it also measures the store from the outside, by listing its
//! directory.

use rsse_cloud::{CloudError, CloudServer};
use rsse_core::CompactionStats;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

pub const FLUSH_EVERY: u64 = 32;
pub const COMPACT_EVERY: u64 = 8;

/// What the maintenance thread measured.
#[derive(Debug, Default)]
pub struct StoreReport {
    pub flush_ms: Vec<f64>,
    /// Compactions that merged generations.
    pub compactions: u64,
    /// Time in compaction requests: the call, plus the merge's own wall
    /// time when one ran.
    pub compact_s: f64,
    pub compact_bytes: u64,
    pub install_pause_max_ms: f64,
    pub segments_max: u64,
    pub overlay_entries_max: u64,
    /// Bytes of generation files that appeared after setup.
    pub written_bytes: u64,
    pub disk_bytes_setup: u64,
    pub disk_bytes_end: u64,
    pub failures: u64,
}

/// Client side: count acknowledged updates.
#[derive(Debug)]
pub struct UpdateCounter {
    acked: AtomicU64,
    tx: mpsc::Sender<()>,
}

impl UpdateCounter {
    pub fn note_update(&self) {
        if (self.acked.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(FLUSH_EVERY) {
            // The receiver only hangs up after every client is done.
            let _ = self.tx.send(());
        }
    }
}

/// Starts the maintenance thread over `servers`, whose generational
/// stores (if any) live in `stores`. Dropping the returned counter ends
/// the thread once it has joined the last compaction.
pub fn spawn(
    servers: Vec<Arc<CloudServer>>,
    stores: Vec<PathBuf>,
) -> (UpdateCounter, JoinHandle<StoreReport>) {
    let (tx, rx) = mpsc::channel();
    let counter = UpdateCounter {
        acked: AtomicU64::new(0),
        tx,
    };
    let handle = std::thread::spawn(move || {
        let setup_files = stores
            .iter()
            .filter_map(|dir| std::fs::read_dir(dir).ok())
            .flat_map(|entries| entries.flatten().map(|e| e.path()))
            .collect();
        let mut m = Maint {
            setup_files,
            written: HashMap::new(),
            report: StoreReport::default(),
            servers,
            stores,
            pending: Vec::new(),
        };
        m.report.disk_bytes_setup = m.scan();
        let mut flushes = 0u64;
        while rx.recv().is_ok() {
            m.sample_generations();
            let t = Instant::now();
            for s in &m.servers {
                if s.flush_index().is_err() {
                    m.report.failures += 1;
                }
            }
            m.report.flush_ms.push(t.elapsed().as_secs_f64() * 1e3);
            flushes += 1;
            if flushes.is_multiple_of(COMPACT_EVERY) {
                m.join_compactions();
                m.start_compactions();
            }
            m.sample_generations();
            m.scan();
        }
        m.join_compactions();
        m.sample_generations();
        m.report.disk_bytes_end = m.scan();
        m.report.written_bytes = m.written.values().sum();
        m.report
    });
    (counter, handle)
}

type Compaction = JoinHandle<Result<CompactionStats, CloudError>>;

struct Maint {
    setup_files: HashSet<PathBuf>,
    written: HashMap<PathBuf, u64>,
    report: StoreReport,
    servers: Vec<Arc<CloudServer>>,
    stores: Vec<PathBuf>,
    pending: Vec<Compaction>,
}

impl Maint {
    fn start_compactions(&mut self) {
        for s in &self.servers {
            let t = Instant::now();
            match s.compact_index_background() {
                Ok(job) => self.pending.extend(job),
                Err(_) => self.report.failures += 1,
            }
            self.report.compact_s += t.elapsed().as_secs_f64();
        }
    }

    fn join_compactions(&mut self) {
        for job in self.pending.drain(..) {
            match job.join() {
                Ok(Ok(stats)) => {
                    let r = &mut self.report;
                    r.compactions += 1;
                    r.compact_s += stats.wall.as_secs_f64();
                    r.compact_bytes += stats.bytes_written;
                    r.install_pause_max_ms = r
                        .install_pause_max_ms
                        .max(stats.install_pause.as_secs_f64() * 1e3);
                }
                _ => self.report.failures += 1,
            }
        }
        self.scan();
    }

    fn sample_generations(&mut self) {
        for s in &self.servers {
            if let Some(g) = s.generation_stats() {
                let r = &mut self.report;
                r.segments_max = r.segments_max.max(g.segments as u64);
                r.overlay_entries_max = r.overlay_entries_max.max(g.overlay_entries as u64);
            }
        }
    }

    /// Records the largest size seen of every generation file that
    /// appeared after setup (a merge output may still be growing when a
    /// scan sees it) and returns the stores' total size.
    fn scan(&mut self) -> u64 {
        let mut total = 0;
        for dir in &self.stores {
            let Ok(entries) = std::fs::read_dir(dir) else {
                continue;
            };
            for e in entries.flatten() {
                let len = e.metadata().map_or(0, |m| m.len());
                total += len;
                let path = e.path();
                if path.extension().is_some_and(|x| x == "seg") && !self.setup_files.contains(&path)
                {
                    let seen = self.written.entry(path).or_insert(0);
                    *seen = (*seen).max(len);
                }
            }
        }
        total
    }
}
