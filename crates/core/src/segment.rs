//! The read side of one immutable `RSSEIDX2` segment file: the unit the
//! generational store ([`crate::generation`]) stacks, one file per
//! generation.
//!
//! A segment reader keeps the file *on disk* and holds only its trailing
//! label→offset directory in memory (44 bytes per posting list). A query
//! resolves the trapdoor's label in the directory and issues one
//! positional read for exactly the touched posting list — the rest of the
//! file is never paged in, so a server restarts warm from its store and
//! can serve indexes larger than resident memory. Opening validates the
//! directory against the file before anything is served, so a hostile
//! length claim is rejected before any allocation larger than the file.
//!
//! All file access flows through the injectable [`SegmentIo`] layer (see
//! [`crate::segio`]), which is what lets the crash-torture suite kill the
//! writer at every fsync and rename boundary.
//!
//! Serving from disk leaks nothing beyond the in-memory backend: the
//! server already sees which label each trapdoor touches and how many
//! entries the list holds (the access pattern every SSE scheme reveals);
//! the file layout is a deterministic function of exactly that public
//! shape plus the ciphertexts the server stores either way.

use crate::index::Label;
use crate::persist::{PersistError, DIR_RECORD_LEN, HEADER_LEN, MAGIC_V2, MAX_LEN};
use crate::segio::{SegmentIo, SegmentRead};
use rsse_opse::OpseParams;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters of the batched posting-read path: how many query frames took
/// it, how many base lists it fetched, and how many backward file seeks
/// the offset-sort eliminated. Snapshot via
/// [`crate::RsseIndex::batch_read_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchReadStats {
    /// Batch frames served through the sorted-read path.
    pub batches: u64,
    /// Base posting lists fetched by those batches (one read each).
    pub lists_read: u64,
    /// Backward seeks the in-file-order read schedule eliminated: for
    /// each batch, the number of consecutive unique-label pairs whose
    /// request order would have moved the file cursor backwards.
    pub seeks_saved: u64,
}

/// Shared mutable home of [`BatchReadStats`] — lives in an `Arc` so
/// backend clones keep one counter set.
#[derive(Debug, Default)]
pub(crate) struct BatchReadCounters {
    batches: AtomicU64,
    lists_read: AtomicU64,
    seeks_saved: AtomicU64,
}

impl BatchReadCounters {
    pub fn note(&self, lists_read: u64, seeks_saved: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.lists_read.fetch_add(lists_read, Ordering::Relaxed);
        self.seeks_saved.fetch_add(seeks_saved, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> BatchReadStats {
        BatchReadStats {
            batches: self.batches.load(Ordering::Relaxed),
            lists_read: self.lists_read.load(Ordering::Relaxed),
            seeks_saved: self.seeks_saved.load(Ordering::Relaxed),
        }
    }
}

/// Where one posting list's entry records live in the segment file.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegmentList {
    /// Absolute offset of the first entry record.
    pub offset: u64,
    /// Total bytes of the entry records (length prefixes included).
    pub byte_len: u64,
    /// Number of entries.
    pub count: u64,
}

/// One posting list read out of the segment: the raw byte range plus the
/// parsed entry bounds.
pub(crate) struct ListBytes {
    buf: Vec<u8>,
    bounds: Vec<(usize, usize)>,
}

impl ListBytes {
    /// The degraded stand-in for a list that failed to read: it ranks to
    /// nothing.
    fn empty() -> Self {
        ListBytes {
            buf: Vec::new(),
            bounds: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    pub fn entries(&self) -> impl Iterator<Item = &[u8]> {
        self.bounds.iter().map(|&(s, e)| &self.buf[s..e])
    }
}

fn corrupt(why: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why)
}

/// The read side of one immutable segment file: its validated directory
/// plus a shared positional-read handle. Cloning is cheap (the directory
/// is 44 bytes per list; the handle is shared).
#[derive(Debug, Clone)]
pub(crate) struct SegmentReader {
    file: Arc<dyn SegmentRead>,
    directory: BTreeMap<Label, SegmentList>,
    /// Entry payload bytes in the file, net of length prefixes.
    base_payload: usize,
    opse: OpseParams,
}

impl SegmentReader {
    /// Opens a segment file through the io layer in O(directory) — three
    /// positional reads (header, directory, trailer), no posting payload
    /// touched — after validating the directory against the file: list
    /// ranges must be in bounds, non-overlapping, sorted, sized
    /// consistently with their entry counts, and account for the whole
    /// body.
    ///
    /// # Errors
    ///
    /// [`PersistError::BadDirectory`] on any directory inconsistency;
    /// `BadMagic` for anything but an `RSSEIDX2` file; `Oversize` /
    /// `BadParameters` / `Io` as for [`crate::RsseIndex::load`].
    pub fn open(io: &dyn SegmentIo, path: &Path) -> Result<Self, PersistError> {
        let file = io.open_read(path)?;
        let mut magic = [0u8; 8];
        file.read_exact_at(&mut magic, 0)?;
        if &magic != MAGIC_V2 {
            return Err(PersistError::BadMagic(magic));
        }
        let file_len = file.len()?;
        if file_len < HEADER_LEN + 8 {
            return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
        }
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact_at(&mut header, 0)?;
        let domain = u64::from_be_bytes(header[8..16].try_into().expect("8 bytes"));
        let range = u64::from_be_bytes(header[16..24].try_into().expect("8 bytes"));
        let opse = OpseParams::new(domain, range)
            .map_err(|_| PersistError::BadParameters { domain, range })?;
        let num_lists = u64::from_be_bytes(header[24..32].try_into().expect("8 bytes"));
        if num_lists > MAX_LEN {
            return Err(PersistError::Oversize(num_lists));
        }
        let mut trailer = [0u8; 8];
        file.read_exact_at(&mut trailer, file_len - 8)?;
        let dir_offset = u64::from_be_bytes(trailer);
        if dir_offset < HEADER_LEN || dir_offset > file_len - 8 {
            return Err(PersistError::BadDirectory("trailer offset out of range"));
        }
        let dir_size = num_lists
            .checked_mul(DIR_RECORD_LEN)
            .ok_or(PersistError::Oversize(num_lists))?;
        if dir_offset
            .checked_add(dir_size)
            .and_then(|v| v.checked_add(8))
            != Some(file_len)
        {
            return Err(PersistError::BadDirectory(
                "directory size does not match the file",
            ));
        }
        // Bounded by the actual file length (just verified), so a hostile
        // list count cannot force an over-allocation.
        let mut dir_buf = vec![0u8; dir_size as usize];
        file.read_exact_at(&mut dir_buf, dir_offset)?;
        let mut directory = BTreeMap::new();
        let mut base_payload = 0usize;
        let mut next_free = HEADER_LEN;
        let mut prev_label: Option<Label> = None;
        for rec in dir_buf.chunks_exact(DIR_RECORD_LEN as usize) {
            let mut label: Label = [0u8; 20];
            label.copy_from_slice(&rec[..20]);
            let offset = u64::from_be_bytes(rec[20..28].try_into().expect("8 bytes"));
            let byte_len = u64::from_be_bytes(rec[28..36].try_into().expect("8 bytes"));
            let count = u64::from_be_bytes(rec[36..44].try_into().expect("8 bytes"));
            if byte_len > MAX_LEN {
                return Err(PersistError::Oversize(byte_len));
            }
            if count > MAX_LEN {
                return Err(PersistError::Oversize(count));
            }
            if prev_label.is_some_and(|prev| label <= prev) {
                return Err(PersistError::BadDirectory(
                    "directory labels unsorted or duplicated",
                ));
            }
            prev_label = Some(label);
            // Each list's 28-byte header sits just before its entries;
            // ranges must tile the body left to right without overlap.
            let header_start = offset
                .checked_sub(28)
                .ok_or(PersistError::BadDirectory("list offset inside the header"))?;
            if header_start < next_free {
                return Err(PersistError::BadDirectory(
                    "list ranges overlap or offsets are unsorted",
                ));
            }
            let end = offset
                .checked_add(byte_len)
                .ok_or(PersistError::BadDirectory("list range overflows"))?;
            if end > dir_offset {
                return Err(PersistError::BadDirectory("list range out of bounds"));
            }
            if count == 0 && byte_len != 0 {
                return Err(PersistError::BadDirectory("empty list claims bytes"));
            }
            if count > 0 && count.checked_mul(8).is_none_or(|min| min > byte_len) {
                return Err(PersistError::BadDirectory(
                    "entry count cannot fit its byte range",
                ));
            }
            base_payload += (byte_len - 8 * count) as usize;
            next_free = end;
            directory.insert(
                label,
                SegmentList {
                    offset,
                    byte_len,
                    count,
                },
            );
        }
        Ok(SegmentReader {
            file,
            directory,
            base_payload,
            opse,
        })
    }

    pub fn opse(&self) -> &OpseParams {
        &self.opse
    }

    pub fn directory(&self) -> &BTreeMap<Label, SegmentList> {
        &self.directory
    }

    pub fn base_payload(&self) -> usize {
        self.base_payload
    }

    /// Reads one posting list's byte range off the file and parses the
    /// entry bounds, rejecting ranges whose length prefixes do not tile
    /// the range exactly.
    fn read_list(&self, meta: &SegmentList) -> io::Result<ListBytes> {
        let buf = self.read_raw(meta)?;
        let mut bounds = Vec::with_capacity(meta.count as usize);
        let mut pos = 0usize;
        for _ in 0..meta.count {
            let body = pos
                .checked_add(8)
                .filter(|&b| b <= buf.len())
                .ok_or_else(|| corrupt("entry prefix past the list range"))?;
            let len = u64::from_be_bytes(buf[pos..body].try_into().expect("8 bytes"));
            if len > MAX_LEN {
                return Err(corrupt("entry length over the sanity cap"));
            }
            let end = body
                .checked_add(len as usize)
                .filter(|&e| e <= buf.len())
                .ok_or_else(|| corrupt("entry payload past the list range"))?;
            bounds.push((body, end));
            pos = end;
        }
        if pos != buf.len() {
            return Err(corrupt("entry records do not tile the list range"));
        }
        Ok(ListBytes { buf, bounds })
    }

    /// Reads one list's entry records verbatim (still length-prefixed) —
    /// the compaction fast path: records are already in wire shape.
    pub fn read_raw(&self, meta: &SegmentList) -> io::Result<Vec<u8>> {
        let mut buf = vec![0u8; meta.byte_len as usize];
        self.file.read_exact_at(&mut buf, meta.offset)?;
        Ok(buf)
    }

    /// Reads this segment's list under `label`, if present. A list that
    /// fails to read (e.g. the file was truncated behind a live handle)
    /// degrades to an empty one rather than failing the query.
    pub fn read_label(&self, label: &Label) -> Option<ListBytes> {
        let meta = self.directory.get(label)?;
        Some(self.read_list(meta).unwrap_or_else(|_| ListBytes::empty()))
    }

    /// Reads every base list a batch of labels touches, **in file order**:
    /// unique present labels are collected in request order (to count the
    /// backward seeks that order would have cost), then sorted by their
    /// file offset before the reads are issued, so the disk cursor only
    /// ever moves forward within the segment. Returns the lists keyed by
    /// label plus the number of backward seeks eliminated; a list that
    /// fails to read degrades to an empty one, exactly like
    /// [`Self::read_label`].
    pub fn read_lists_sorted<'a>(
        &self,
        labels: impl Iterator<Item = &'a Label>,
    ) -> (HashMap<Label, ListBytes>, u64) {
        let mut seen: HashSet<Label> = HashSet::new();
        let mut metas: Vec<(Label, SegmentList)> = Vec::new();
        for label in labels {
            if seen.insert(*label) {
                if let Some(meta) = self.directory.get(label) {
                    metas.push((*label, *meta));
                }
            }
        }
        let seeks_saved = metas
            .windows(2)
            .filter(|w| w[1].1.offset < w[0].1.offset)
            .count() as u64;
        metas.sort_unstable_by_key(|(_, meta)| meta.offset);
        let mut lists = HashMap::with_capacity(metas.len());
        for (label, meta) in metas {
            let list = self.read_list(&meta).unwrap_or_else(|_| ListBytes::empty());
            lists.insert(label, list);
        }
        (lists, seeks_saved)
    }

    /// Visits every entry of the list under `label`, in file order.
    /// Returns `false` when the label is not in this segment; a failed
    /// read visits nothing (degraded, like the search path).
    pub fn for_each_entry(&self, label: &Label, visit: &mut dyn FnMut(&[u8])) -> bool {
        let Some(list) = self.read_label(label) else {
            return false;
        };
        for entry in list.entries() {
            visit(entry);
        }
        true
    }
}
