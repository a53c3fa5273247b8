//! The injectable segment I/O layer: every byte the storage engine puts
//! on (or reads off) disk flows through the [`SegmentIo`] trait.
//!
//! Durability claims are only as good as the fsync discipline behind
//! them, and fsync discipline is exactly the thing ordinary tests cannot
//! see: a missing directory fsync loses nothing until the power does.
//! This module cuts the seam that makes the discipline *testable*:
//!
//! * [`StdIo`] — the production implementation over `std::fs`
//!   (positional reads, buffered writes, real `fsync`, real `rename`,
//!   and — on unix — directory fsync);
//! * [`MemIo`] — an in-memory filesystem that models the durable/volatile
//!   split explicitly. File writes and renames land in a *volatile* view;
//!   only `sync` and `sync_dir` promote them to the *durable* view, and
//!   [`MemIo::power_loss`] throws the volatile view away. A crash can be
//!   scheduled at any **sync point** (file fsync, directory fsync, or
//!   rename): the N-th such operation fails without taking effect and all
//!   later mutations fail too, modeling a writer killed at that boundary.
//!
//! Because the durable view only ever changes at sync points, injecting a
//! crash at every sync point `k ∈ 0..N` (plus the uncrashed run) covers
//! *every* distinct power-loss state a writer sequence can leave behind —
//! the exhaustiveness argument the crash-torture suite
//! (`crates/core/tests/crash_torture.rs`) is built on.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Positional reads over one open segment file. Implementations must be
/// safe to share across threads (a segment handle is read concurrently by
/// every in-flight query).
// `len` is fallible file metadata, not a collection size — an
// `is_empty` counterpart would be noise.
#[allow(clippy::len_without_is_empty)]
pub trait SegmentRead: Send + Sync + core::fmt::Debug {
    /// Fills `buf` from `offset`, failing on short reads.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;

    /// Current length of the file in bytes.
    fn len(&self) -> io::Result<u64>;
}

/// A write handle for one segment file being produced.
pub trait SegmentWrite: Write + Send {
    /// `fsync`: promote everything written so far to durable storage.
    fn sync(&mut self) -> io::Result<()>;
}

/// The filesystem surface the storage engine is allowed to touch:
/// open/create/pread/write/fsync/rename plus directory-level fsync and
/// listing. Narrow on purpose — if an operation is not here, the engine
/// cannot depend on it, and the fault-injecting [`MemIo`] can model all
/// of it.
pub trait SegmentIo: Send + Sync + core::fmt::Debug {
    /// Opens an existing file for positional reads.
    fn open_read(&self, path: &Path) -> io::Result<Arc<dyn SegmentRead>>;

    /// Creates (or truncates) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn SegmentWrite>>;

    /// Atomically renames `from` over `to` (a **sync point** for fault
    /// injection: the boundary where a crash leaves either name intact).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Fsyncs the directory itself, making renames/creates/removes under
    /// it durable. Without this a completed rename can vanish on power
    /// loss — the exact bug class the torture suite exists to catch.
    fn fsync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Removes a file (reclaim path; callers tolerate `NotFound`).
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// File names (not full paths) directly inside `dir`.
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>>;
}

/// A file already read into memory: how [`crate::RsseIndex::load`] opens
/// its input through the one segment reader.
impl SegmentRead for Vec<u8> {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let start = usize::try_from(offset).unwrap_or(usize::MAX);
        let src = start
            .checked_add(buf.len())
            .and_then(|end| self.get(start..end));
        match src {
            Some(src) => {
                buf.copy_from_slice(src);
                Ok(())
            }
            None => Err(io::Error::from(io::ErrorKind::UnexpectedEof)),
        }
    }

    fn len(&self) -> io::Result<u64> {
        Ok(Vec::len(self) as u64)
    }
}

/// Reads a whole file through the io layer.
pub(crate) fn read_file(io: &dyn SegmentIo, path: &Path) -> io::Result<Vec<u8>> {
    let r = io.open_read(path)?;
    let len = r.len()?;
    let mut buf = vec![0u8; len as usize];
    r.read_exact_at(&mut buf, 0)?;
    Ok(buf)
}

// ---------------------------------------------------------------------------
// StdIo: the production implementation.
// ---------------------------------------------------------------------------

/// The production [`SegmentIo`]: plain `std::fs` with buffered writes and
/// real fsyncs.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdIo;

impl StdIo {
    /// A shared handle to the production io layer.
    pub fn shared() -> Arc<dyn SegmentIo> {
        Arc::new(StdIo)
    }
}

#[derive(Debug)]
struct StdRead(std::fs::File);

impl SegmentRead for StdRead {
    #[cfg(unix)]
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.0.read_exact_at(buf, offset)
    }

    #[cfg(not(unix))]
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        // Fallback without positional reads: seek the shared handle.
        // Unlike the unix path this mutates the file cursor, so
        // concurrent readers of one handle must serialize externally.
        use std::io::{Read, Seek, SeekFrom};
        let mut f = &self.0;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }
}

struct StdWrite(io::BufWriter<std::fs::File>);

impl Write for StdWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl SegmentWrite for StdWrite {
    fn sync(&mut self) -> io::Result<()> {
        self.0.flush()?;
        self.0.get_ref().sync_all()
    }
}

impl SegmentIo for StdIo {
    fn open_read(&self, path: &Path) -> io::Result<Arc<dyn SegmentRead>> {
        Ok(Arc::new(StdRead(std::fs::File::open(path)?)))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn SegmentWrite>> {
        Ok(Box::new(StdWrite(io::BufWriter::new(
            std::fs::File::create(path)?,
        ))))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    #[cfg(unix)]
    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::File::open(dir)?.sync_all()
    }

    #[cfg(not(unix))]
    fn fsync_dir(&self, _dir: &Path) -> io::Result<()> {
        // Windows has no directory fsync; NTFS metadata updates are
        // journaled, so the rename itself is the durability point.
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        Ok(names)
    }
}

// ---------------------------------------------------------------------------
// MemIo: the fault-injecting in-memory filesystem.
// ---------------------------------------------------------------------------

/// One in-memory file: its volatile (page-cache) content and the prefix
/// of it that a completed `fsync` made durable.
#[derive(Debug, Default)]
struct Inode {
    content: Vec<u8>,
    durable: Vec<u8>,
}

type InodeRef = Arc<Mutex<Inode>>;

#[derive(Debug, Default)]
struct Namespace {
    /// The volatile view: what an uncrashed process observes.
    files: BTreeMap<PathBuf, InodeRef>,
    /// The durable view: what survives [`MemIo::power_loss`]. Directory
    /// operations (create/rename/remove) reach this map only through
    /// `fsync_dir` on the parent.
    durable: BTreeMap<PathBuf, InodeRef>,
}

/// An in-memory [`SegmentIo`] that models the durable/volatile split and
/// injects crashes at sync points — see the module docs for the model and
/// its exhaustiveness argument.
///
/// Cloning shares the filesystem, so a backend holding one clone and a
/// test holding another observe the same state.
#[derive(Debug, Clone, Default)]
pub struct MemIo {
    fs: Arc<MemFs>,
}

#[derive(Debug)]
struct MemFs {
    ns: Mutex<Namespace>,
    /// Sync points (file fsync, dir fsync, rename) executed so far.
    sync_points: AtomicU64,
    /// Index of the sync point scheduled to fail; `u64::MAX` = never.
    crash_at: AtomicU64,
    /// Set once a scheduled crash fired: the writer is dead, every later
    /// mutation fails. Reads keep working — in-flight queries hold their
    /// handles regardless of what happened to the writer.
    dead: AtomicBool,
}

impl Default for MemFs {
    fn default() -> Self {
        MemFs {
            ns: Mutex::new(Namespace::default()),
            sync_points: AtomicU64::new(0),
            crash_at: AtomicU64::new(u64::MAX),
            dead: AtomicBool::new(false),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn crashed() -> io::Error {
    io::Error::other("injected crash: writer killed at a sync point")
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("no such file: {}", path.display()),
    )
}

impl MemFs {
    fn check_dead(&self) -> io::Result<()> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(crashed());
        }
        Ok(())
    }

    /// Counts one sync point, firing the scheduled crash if this is it.
    /// A fired crash fails the operation *before* it takes effect.
    fn sync_point(&self) -> io::Result<()> {
        self.check_dead()?;
        let n = self.sync_points.fetch_add(1, Ordering::SeqCst);
        if n == self.crash_at.load(Ordering::SeqCst) {
            self.dead.store(true, Ordering::SeqCst);
            return Err(crashed());
        }
        Ok(())
    }
}

impl MemIo {
    /// An empty in-memory filesystem with no crash scheduled.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared handle usable wherever an `Arc<dyn SegmentIo>` is needed.
    pub fn shared(&self) -> Arc<dyn SegmentIo> {
        Arc::new(self.clone())
    }

    /// Schedules the `nth` upcoming sync point (0-based, counted from
    /// now) to fail and kill the writer.
    pub fn crash_at_sync_point(&self, nth: u64) {
        let base = self.fs.sync_points.load(Ordering::SeqCst);
        self.fs.crash_at.store(base + nth, Ordering::SeqCst);
    }

    /// Total sync points executed (or attempted) so far.
    pub fn sync_points(&self) -> u64 {
        self.fs.sync_points.load(Ordering::SeqCst)
    }

    /// Whether a scheduled crash has fired.
    pub fn crash_fired(&self) -> bool {
        self.fs.dead.load(Ordering::SeqCst)
    }

    /// Simulates power loss: the volatile view is discarded and the
    /// filesystem reverts to exactly what fsync/fsync_dir made durable.
    /// Clears the dead flag and any scheduled crash — the machine reboots
    /// and the store reopens.
    pub fn power_loss(&self) {
        let mut ns = lock(&self.fs.ns);
        ns.files = ns.durable.clone();
        for inode in ns.files.values() {
            let mut data = lock(inode);
            let durable = data.durable.clone();
            data.content = durable;
        }
        self.fs.crash_at.store(u64::MAX, Ordering::SeqCst);
        self.fs.dead.store(false, Ordering::SeqCst);
    }

    /// The volatile content of `path`, if present (test observability).
    pub fn read(&self, path: &Path) -> Option<Vec<u8>> {
        let ns = lock(&self.fs.ns);
        ns.files.get(path).map(|inode| lock(inode).content.clone())
    }

    /// Paths present in the volatile view (test observability).
    pub fn paths(&self) -> Vec<PathBuf> {
        lock(&self.fs.ns).files.keys().cloned().collect()
    }
}

#[derive(Debug)]
struct MemRead {
    inode: InodeRef,
}

impl SegmentRead for MemRead {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        lock(&self.inode).content.read_exact_at(buf, offset)
    }

    fn len(&self) -> io::Result<u64> {
        SegmentRead::len(&lock(&self.inode).content)
    }
}

struct MemWrite {
    fs: Arc<MemFs>,
    inode: InodeRef,
}

impl Write for MemWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.fs.check_dead()?;
        lock(&self.inode).content.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.fs.check_dead()
    }
}

impl SegmentWrite for MemWrite {
    fn sync(&mut self) -> io::Result<()> {
        self.fs.sync_point()?;
        let mut data = lock(&self.inode);
        let content = data.content.clone();
        data.durable = content;
        Ok(())
    }
}

impl SegmentIo for MemIo {
    fn open_read(&self, path: &Path) -> io::Result<Arc<dyn SegmentRead>> {
        let ns = lock(&self.fs.ns);
        let inode = ns.files.get(path).ok_or_else(|| not_found(path))?;
        Ok(Arc::new(MemRead {
            inode: Arc::clone(inode),
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn SegmentWrite>> {
        self.fs.check_dead()?;
        let mut ns = lock(&self.fs.ns);
        // `File::create` semantics: truncate in place if the name exists.
        // The truncation is volatile — the durable content of a previously
        // fsynced inode survives until the *directory entry* is re-synced,
        // which power_loss models by restoring the durable namespace.
        let inode = Arc::new(Mutex::new(Inode::default()));
        ns.files.insert(path.to_path_buf(), Arc::clone(&inode));
        Ok(Box::new(MemWrite {
            fs: Arc::clone(&self.fs),
            inode,
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.fs.sync_point()?;
        let mut ns = lock(&self.fs.ns);
        let inode = ns.files.remove(from).ok_or_else(|| not_found(from))?;
        ns.files.insert(to.to_path_buf(), inode);
        Ok(())
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        self.fs.sync_point()?;
        let mut ns = lock(&self.fs.ns);
        // Promote this directory's entries: creates, renames, and removes
        // under `dir` all become durable at once (matching POSIX, where
        // one directory fsync covers every pending entry change).
        let in_dir = |p: &Path| p.parent() == Some(dir);
        let fresh: Vec<(PathBuf, InodeRef)> = ns
            .files
            .iter()
            .filter(|(p, _)| in_dir(p))
            .map(|(p, i)| (p.clone(), Arc::clone(i)))
            .collect();
        ns.durable.retain(|p, _| !in_dir(p));
        ns.durable.extend(fresh);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.fs.check_dead()?;
        let mut ns = lock(&self.fs.ns);
        ns.files.remove(path).ok_or_else(|| not_found(path))?;
        Ok(())
    }

    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        // The namespace is flat; directories exist implicitly.
        self.fs.check_dead()
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let ns = lock(&self.fs.ns);
        Ok(ns
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(String::from))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_file(io: &MemIo, path: &Path, bytes: &[u8], sync: bool) -> io::Result<()> {
        let mut w = io.create(path)?;
        w.write_all(bytes)?;
        if sync {
            w.sync()?;
        }
        Ok(())
    }

    #[test]
    fn unsynced_writes_vanish_on_power_loss() {
        let io = MemIo::new();
        let dir = Path::new("/store");
        write_file(&io, &dir.join("a"), b"synced", true).unwrap();
        io.fsync_dir(dir).unwrap();
        write_file(&io, &dir.join("b"), b"volatile", false).unwrap();
        io.power_loss();
        assert_eq!(io.read(&dir.join("a")).unwrap(), b"synced");
        assert!(io.read(&dir.join("b")).is_none(), "never made durable");
    }

    #[test]
    fn rename_without_dir_fsync_is_not_durable() {
        let io = MemIo::new();
        let dir = Path::new("/store");
        write_file(&io, &dir.join("f.tmp"), b"v1", true).unwrap();
        io.fsync_dir(dir).unwrap();
        io.rename(&dir.join("f.tmp"), &dir.join("f")).unwrap();
        io.power_loss();
        // The rename was volatile: the old name comes back.
        assert_eq!(io.read(&dir.join("f.tmp")).unwrap(), b"v1");
        assert!(io.read(&dir.join("f")).is_none());
    }

    #[test]
    fn rename_with_dir_fsync_survives_power_loss() {
        let io = MemIo::new();
        let dir = Path::new("/store");
        write_file(&io, &dir.join("f.tmp"), b"v1", true).unwrap();
        io.rename(&dir.join("f.tmp"), &dir.join("f")).unwrap();
        io.fsync_dir(dir).unwrap();
        io.power_loss();
        assert!(io.read(&dir.join("f.tmp")).is_none());
        assert_eq!(io.read(&dir.join("f")).unwrap(), b"v1");
    }

    #[test]
    fn scheduled_crash_fails_the_op_without_effect_and_kills_later_writes() {
        let io = MemIo::new();
        let dir = Path::new("/store");
        write_file(&io, &dir.join("f.tmp"), b"v1", true).unwrap(); // sync point 0
        io.crash_at_sync_point(0); // next sync point (the rename) dies
        assert!(io.rename(&dir.join("f.tmp"), &dir.join("f")).is_err());
        assert!(io.crash_fired());
        // The rename did not take effect and further mutations fail.
        assert_eq!(io.read(&dir.join("f.tmp")).unwrap(), b"v1");
        assert!(write_file(&io, &dir.join("g"), b"x", false).is_err());
        // Reads keep working: in-flight queries outlive the dead writer.
        let r = io.open_read(&dir.join("f.tmp")).unwrap();
        assert_eq!(r.len().unwrap(), 2);
    }

    #[test]
    fn std_io_round_trips_and_fsyncs_directories() {
        let dir = std::env::temp_dir().join(format!("rsse_segio_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let io = StdIo;
        let path = dir.join("t.seg");
        let mut w = io.create(&path).unwrap();
        w.write_all(b"hello").unwrap();
        w.sync().unwrap();
        drop(w);
        io.rename(&path, &dir.join("t2.seg")).unwrap();
        io.fsync_dir(&dir).unwrap();
        let r = io.open_read(&dir.join("t2.seg")).unwrap();
        let mut buf = [0u8; 5];
        r.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"hello");
        assert_eq!(io.list_dir(&dir).unwrap(), vec!["t2.seg".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
