//! The one reader of the index file format ([`crate::persist`]): an
//! `RSSEIDX3` file — or an `RSSEIDX2` file written before it — opened
//! behind [`crate::RsseIndex::load`] and behind every generation of a
//! generational store ([`crate::generation`]), one file per generation.
//!
//! A segment reader keeps the file where it is and holds only its
//! trailing label→offset directory in memory (44 bytes per posting list).
//! A query resolves the trapdoor's label in the directory and issues one
//! positional read for exactly the touched posting list — the rest of the
//! file is never paged in, so a server restarts warm from its store and
//! can serve indexes larger than resident memory. Opening validates the
//! directory against the file before anything is served: the lists must
//! tile the body exactly, each a whole number of its entries, so a
//! hostile length claim is rejected before any allocation larger than
//! the file. Opening is also one of the index's doors: a non-empty list
//! of entries of any length but [`ENTRY_CT_LEN`] is refused as
//! [`RsseError::MalformedList`]. `load` reads its whole input and opens
//! it through the same validation.
//!
//! A list read returns its entries back to back — the bytes a list
//! travels as from the builder to the resident store. An `RSSEIDX2` list
//! reads into the same shape: each entry's 8-byte length prefix must be
//! [`ENTRY_CT_LEN`] and is dropped.
//!
//! All store file access flows through the injectable [`SegmentIo`] layer
//! (see [`crate::segio`]), which is what lets the crash-torture suite
//! kill the writer at every fsync and rename boundary.
//!
//! Serving from disk leaks nothing beyond an in-memory index: the
//! server already sees which label each trapdoor touches and how many
//! entries the list holds (the access pattern every SSE scheme reveals);
//! the file layout is a deterministic function of exactly that public
//! shape plus the ciphertexts the server stores either way.

use crate::entry::ENTRY_CT_LEN;
use crate::error::RsseError;
use crate::index::Label;
use crate::persist::{PersistError, DIR_RECORD_LEN, HEADER_LEN, MAGIC_V2, MAGIC_V3, MAX_LEN};
use crate::segio::{SegmentIo, SegmentRead};
use rsse_opse::OpseParams;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Where one posting list lives in the segment file.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegmentList {
    /// Absolute offset of the first entry (in `RSSEIDX2`, of its length
    /// prefix).
    offset: u64,
    /// Number of entries.
    pub count: u64,
}

/// The read side of one immutable segment file: its validated directory
/// plus a shared positional-read handle. Cloning is cheap (the directory
/// is 44 bytes per list; the handle is shared).
#[derive(Debug, Clone)]
pub(crate) struct SegmentReader {
    file: Arc<dyn SegmentRead>,
    directory: BTreeMap<Label, SegmentList>,
    /// Bytes framing each entry: its u64 length in `RSSEIDX2`, none in
    /// `RSSEIDX3`.
    entry_frame: u64,
    /// Entry bytes in the file, net of any framing.
    base_payload: usize,
    opse: OpseParams,
}

fn be_u64(bytes: &[u8]) -> u64 {
    u64::from_be_bytes(bytes.try_into().expect("8 bytes"))
}

impl SegmentReader {
    /// Opens a segment file through the io layer (see
    /// [`Self::from_file`]).
    pub fn open(io: &dyn SegmentIo, path: &Path) -> Result<Self, PersistError> {
        Self::from_file(io.open_read(path)?)
    }

    /// Opens a segment file in O(directory) — positional reads of the
    /// header, trailer and directory only, no posting payload touched —
    /// after validating the directory against the file: labels strictly
    /// increasing, list extents in bounds and tiling the body exactly in
    /// label order, each a whole number of entries of one non-zero length
    /// (an empty list holds no bytes), and that length [`ENTRY_CT_LEN`].
    ///
    /// # Errors
    ///
    /// `BadMagic` for anything but an `RSSEIDX3` or `RSSEIDX2` file;
    /// [`PersistError::BadDirectory`] on any directory inconsistency;
    /// [`PersistError::Rsse`] ([`RsseError::MalformedList`]) for a
    /// non-empty list of entries of another length; `Oversize` for a
    /// count or length past the 1 GiB cap; `BadParameters` for
    /// inconsistent OPSE parameters; `Io` for a file too short to hold a
    /// header and trailer, or a failed read.
    pub fn from_file(file: Arc<dyn SegmentRead>) -> Result<Self, PersistError> {
        let mut magic = [0u8; 8];
        file.read_exact_at(&mut magic, 0)?;
        // `RSSEIDX2` frames each list with `label | u64 count` and each
        // entry with its u64 length; `RSSEIDX3` frames neither.
        let (list_frame, entry_frame) = match &magic {
            m if m == MAGIC_V3 => (0, 0),
            m if m == MAGIC_V2 => (28, 8),
            _ => return Err(PersistError::BadMagic(magic)),
        };
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact_at(&mut header, 0)?;
        let (domain, range) = (be_u64(&header[8..16]), be_u64(&header[16..24]));
        let opse = OpseParams::new(domain, range)
            .map_err(|_| PersistError::BadParameters { domain, range })?;
        let num_lists = be_u64(&header[24..32]);
        if num_lists > MAX_LEN {
            return Err(PersistError::Oversize(num_lists));
        }
        let file_len = file.len()?;
        if file_len < HEADER_LEN + 8 {
            return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
        }
        let mut trailer = [0u8; 8];
        file.read_exact_at(&mut trailer, file_len - 8)?;
        let dir_offset = u64::from_be_bytes(trailer);
        if dir_offset < HEADER_LEN || dir_offset > file_len - 8 {
            return Err(PersistError::BadDirectory("trailer offset out of range"));
        }
        let dir_size = num_lists * DIR_RECORD_LEN;
        if dir_offset + dir_size + 8 != file_len {
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
        // Where the next list (its frame, in `RSSEIDX2`) must start.
        let mut next = HEADER_LEN;
        let mut prev_label: Option<Label> = None;
        for rec in dir_buf.chunks_exact(DIR_RECORD_LEN as usize) {
            let label: Label = rec[..20].try_into().expect("20 bytes");
            let (offset, byte_len, count) = (
                be_u64(&rec[20..28]),
                be_u64(&rec[28..36]),
                be_u64(&rec[36..44]),
            );
            if let Some(n) = [byte_len, count].into_iter().find(|&n| n > MAX_LEN) {
                return Err(PersistError::Oversize(n));
            }
            if prev_label.is_some_and(|prev| label <= prev) {
                return Err(PersistError::BadDirectory(
                    "directory labels unsorted or duplicated",
                ));
            }
            prev_label = Some(label);
            if offset.checked_sub(list_frame) != Some(next) {
                return Err(PersistError::BadDirectory(
                    "list extents do not tile the body",
                ));
            }
            next = offset + byte_len;
            if next > dir_offset {
                return Err(PersistError::BadDirectory("list extent out of bounds"));
            }
            let stride = byte_len.checked_div(count).unwrap_or(0);
            if stride * count != byte_len {
                return Err(PersistError::BadDirectory(
                    "byte length is not a whole number of entries",
                ));
            }
            if count > 0 && stride <= entry_frame {
                return Err(PersistError::BadDirectory("a list of empty entries"));
            }
            if count > 0 && stride != entry_frame + ENTRY_CT_LEN as u64 {
                return Err(RsseError::MalformedList(label).into());
            }
            base_payload += count as usize * ENTRY_CT_LEN;
            directory.insert(label, SegmentList { offset, count });
        }
        if next != dir_offset {
            return Err(PersistError::BadDirectory(
                "list extents do not tile the body",
            ));
        }
        Ok(SegmentReader {
            file,
            directory,
            entry_frame,
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

    /// Current length of the file in bytes.
    pub fn file_len(&self) -> io::Result<u64> {
        self.file.len()
    }

    /// Appends the entries of `list` (this segment's list under `label`)
    /// to `out`, back to back, with one positional read. An `RSSEIDX2`
    /// entry's length prefix must be [`ENTRY_CT_LEN`], and is dropped.
    fn read_into(
        &self,
        label: &Label,
        list: &SegmentList,
        out: &mut Vec<u8>,
    ) -> Result<(), PersistError> {
        let start = out.len();
        let frame = self.entry_frame as usize;
        out.resize(start + list.count as usize * (frame + ENTRY_CT_LEN), 0);
        self.file.read_exact_at(&mut out[start..], list.offset)?;
        if frame > 0 {
            let mut end = start;
            for from in (start..out.len()).step_by(frame + ENTRY_CT_LEN) {
                if be_u64(&out[from..from + frame]) != ENTRY_CT_LEN as u64 {
                    return Err(RsseError::MalformedList(*label).into());
                }
                out.copy_within(from + frame..from + frame + ENTRY_CT_LEN, end);
                end += ENTRY_CT_LEN;
            }
            out.truncate(end);
        }
        Ok(())
    }
}

/// The list under `label` as one buffer, sized up front: its part in each
/// of `segments`, in order, then `resident`. An unknown label is empty.
///
/// # Errors
///
/// [`PersistError::Rsse`] ([`RsseError::MalformedList`]) when an
/// `RSSEIDX2` entry's length prefix is not [`ENTRY_CT_LEN`];
/// [`PersistError::Io`] when a read fails.
pub(crate) fn read_list<'a>(
    segments: impl Iterator<Item = &'a SegmentReader>,
    label: &Label,
    resident: &[u8],
) -> Result<Vec<u8>, PersistError> {
    let parts: Vec<(&SegmentReader, &SegmentList)> = segments
        .filter_map(|segment| Some((segment, segment.directory.get(label)?)))
        .collect();
    let on_disk: u64 = parts.iter().map(|(_, list)| list.count).sum();
    let mut bytes = Vec::with_capacity(on_disk as usize * ENTRY_CT_LEN + resident.len());
    for (segment, list) in parts {
        segment.read_into(label, list, &mut bytes)?;
    }
    bytes.extend_from_slice(resident);
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::write_lists;

    fn opse() -> OpseParams {
        OpseParams::new(4, 16).unwrap()
    }

    /// `n` whole entries, the `i`-th all `tag + i`, back to back.
    fn entries(n: u8, tag: u8) -> Vec<u8> {
        (0..n).flat_map(|i| [tag + i; ENTRY_CT_LEN]).collect()
    }

    /// `lists` written as one `RSSEIDX3` file, opened.
    fn v3(lists: &[(Label, Vec<u8>)]) -> SegmentReader {
        let lists = lists.iter().map(|(label, bytes)| Ok((*label, bytes)));
        let file = write_lists(Vec::new(), &opse(), lists).unwrap();
        SegmentReader::from_file(Arc::new(file)).unwrap()
    }

    /// `lists` in the `RSSEIDX2` layout: `label | count` before each list,
    /// each entry's length before it.
    fn v2(lists: &[(Label, Vec<Vec<u8>>)]) -> Vec<u8> {
        let (mut body, mut dir) = (Vec::new(), Vec::new());
        for (label, entries) in lists {
            body.extend_from_slice(label);
            body.extend_from_slice(&(entries.len() as u64).to_be_bytes());
            let offset = HEADER_LEN + body.len() as u64;
            for entry in entries {
                body.extend_from_slice(&(entry.len() as u64).to_be_bytes());
                body.extend_from_slice(entry);
            }
            let byte_len = HEADER_LEN + body.len() as u64 - offset;
            dir.extend_from_slice(label);
            for field in [offset, byte_len, entries.len() as u64] {
                dir.extend_from_slice(&field.to_be_bytes());
            }
        }
        let header = [4, 16, lists.len() as u64].map(u64::to_be_bytes).concat();
        let trailer = (HEADER_LEN + body.len() as u64).to_be_bytes();
        [&MAGIC_V2[..], &header, &body, &dir, &trailer].concat()
    }

    fn malformed<T: std::fmt::Debug>(result: Result<T, PersistError>, label: Label) -> bool {
        matches!(result, Err(PersistError::Rsse(RsseError::MalformedList(l))) if l == label)
    }

    #[test]
    fn parts_join_in_order() {
        let (a, b, unknown) = ([1; 20], [2; 20], [9; 20]);
        let base = v3(&[(a, entries(2, 0x10)), (b, vec![])]);
        let delta = v3(&[(a, entries(1, 0x20)), (b, entries(1, 0x30))]);
        let resident = entries(1, 0x40);
        let both = || [&base, &delta].into_iter();
        let whole = read_list(both(), &a, &resident).unwrap();
        assert_eq!(
            whole,
            [entries(2, 0x10), entries(1, 0x20), resident].concat()
        );
        // An empty part adds nothing; an unknown label is empty.
        assert_eq!(read_list(both(), &b, &[]).unwrap(), entries(1, 0x30));
        assert_eq!(read_list(both(), &unknown, &[]).unwrap(), vec![]);
    }

    #[test]
    fn rsseidx2_lists_read_flat_once_their_prefixes_check_out() {
        let (a, b, mixed) = ([1; 20], [2; 20], [3; 20]);
        let lists = [
            (a, vec![entries(1, 1), entries(1, 2)]),
            (b, vec![]),
            // 24 + 40 bytes in two 8-byte frames: 80 bytes a record, so the
            // directory reads 32-byte entries and the prefixes disagree.
            (mixed, vec![vec![3; 24], vec![4; 40]]),
        ];
        let file = SegmentReader::from_file(Arc::new(v2(&lists))).unwrap();
        let counts: Vec<u64> = file.directory().values().map(|l| l.count).collect();
        assert_eq!(counts, [2, 0, 2]);
        assert_eq!(file.base_payload(), 4 * ENTRY_CT_LEN);
        let read = |label| read_list(std::iter::once(&file), label, &[]);
        assert_eq!(read(&a).unwrap(), entries(2, 1));
        assert_eq!(read(&b).unwrap(), vec![]);
        assert!(malformed(read(&mixed), mixed));
        // A list of entries of another length is refused at open.
        let old = v2(&[(a, vec![]), (b, vec![vec![1; 40], vec![2; 40]])]);
        assert!(malformed(SegmentReader::from_file(Arc::new(old)), b));
    }
}
