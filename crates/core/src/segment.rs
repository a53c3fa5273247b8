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
//! tile the body exactly, each a whole number of entries of one length,
//! so a hostile length claim is rejected before any allocation larger
//! than the file. `load` reads its whole input and opens it through the
//! same validation.
//!
//! A list read returns `(entry_len, bytes)`, the entries back to back —
//! the shape a list takes from the builder to the resident store. An
//! `RSSEIDX2` list reads into the same shape: each entry's 8-byte length
//! prefix must equal the record's entry length and is dropped.
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

use crate::error::RsseError;
use crate::index::Label;
use crate::persist::{PersistError, DIR_RECORD_LEN, HEADER_LEN, MAGIC_V2, MAGIC_V3, MAX_LEN};
use crate::segio::{SegmentIo, SegmentRead};
use crate::store::PostingList;
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
    /// Bytes of every entry; 0 for an empty list.
    pub entry_len: u64,
}

impl SegmentList {
    /// Whether the list takes `entry_len`-byte entries: an empty list
    /// takes any length.
    pub(crate) fn fits_entry_len(&self, entry_len: usize) -> bool {
        self.count == 0 || self.entry_len == entry_len as u64
    }
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
    /// (an empty list holds no bytes).
    ///
    /// # Errors
    ///
    /// `BadMagic` for anything but an `RSSEIDX3` or `RSSEIDX2` file;
    /// [`PersistError::BadDirectory`] on any directory inconsistency;
    /// `Oversize` for a count or length past the 1 GiB cap;
    /// `BadParameters` for inconsistent OPSE parameters; `Io` for a file
    /// too short to hold a header and trailer, or a failed read.
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
            let entry_len = stride.saturating_sub(entry_frame);
            base_payload += (count * entry_len) as usize;
            directory.insert(
                label,
                SegmentList {
                    offset,
                    count,
                    entry_len,
                },
            );
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
    /// entry's length prefix must equal the record's entry length, and is
    /// dropped.
    fn read_into(
        &self,
        label: &Label,
        list: &SegmentList,
        out: &mut Vec<u8>,
    ) -> Result<(), PersistError> {
        let start = out.len();
        let (frame, entry_len) = (self.entry_frame as usize, list.entry_len as usize);
        out.resize(start + list.count as usize * (frame + entry_len), 0);
        self.file.read_exact_at(&mut out[start..], list.offset)?;
        if frame > 0 {
            let mut end = start;
            for from in (start..out.len()).step_by(frame + entry_len) {
                if be_u64(&out[from..from + frame]) != list.entry_len {
                    return Err(RsseError::MalformedList(*label).into());
                }
                out.copy_within(from + frame..from + frame + entry_len, end);
                end += entry_len;
            }
            out.truncate(end);
        }
        Ok(())
    }
}

/// The list under `label` as one `(entry_len, bytes)` buffer, sized up
/// front: its part in each of `segments`, in order, then `resident`. An
/// unknown label is `(0, [])`.
///
/// # Errors
///
/// [`PersistError::Rsse`] ([`RsseError::MalformedList`]) when the
/// non-empty parts differ in entry length, or an `RSSEIDX2` entry's
/// length prefix differs from its record's; [`PersistError::Io`] when a
/// read fails.
pub(crate) fn read_list<'a>(
    segments: impl Iterator<Item = &'a SegmentReader>,
    label: &Label,
    resident: Option<PostingList<'_>>,
) -> Result<(u32, Vec<u8>), PersistError> {
    let parts: Vec<(&SegmentReader, &SegmentList)> = segments
        .filter_map(|segment| Some((segment, segment.directory.get(label)?)))
        .collect();
    let resident = resident.filter(|list| !list.is_empty());
    let mut lens = (parts.iter())
        .filter(|(_, list)| list.count > 0)
        .map(|(_, list)| list.entry_len as usize)
        .chain(resident.map(|list| list.entry_len()));
    let entry_len = lens.next().unwrap_or(0);
    if lens.any(|len| len != entry_len) {
        return Err(RsseError::MalformedList(*label).into());
    }
    let on_disk: u64 = parts.iter().map(|(_, l)| l.count * l.entry_len).sum();
    let mut bytes = Vec::with_capacity(on_disk as usize + resident.map_or(0, |l| l.bytes().len()));
    for (segment, list) in parts {
        segment.read_into(label, list, &mut bytes)?;
    }
    bytes.extend_from_slice(resident.map_or(&[], |list| list.bytes()));
    Ok((entry_len as u32, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::write_lists;
    use crate::store::PostingStore;

    fn opse() -> OpseParams {
        OpseParams::new(4, 16).unwrap()
    }

    /// `lists` written as one `RSSEIDX3` file, opened.
    fn v3(lists: &[(Label, u32, Vec<u8>)]) -> SegmentReader {
        let lists = lists
            .iter()
            .map(|(label, len, bytes)| Ok((*label, *len, bytes)));
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

    fn malformed(result: Result<(u32, Vec<u8>), PersistError>, label: Label) -> bool {
        matches!(result, Err(PersistError::Rsse(RsseError::MalformedList(l))) if l == label)
    }

    #[test]
    fn parts_join_in_order_and_share_one_entry_length() {
        let (a, b, unknown) = ([1; 20], [2; 20], [9; 20]);
        let base = v3(&[(a, 2, vec![1, 1, 2, 2]), (b, 0, vec![])]);
        let delta = v3(&[(a, 2, vec![3, 3]), (b, 3, vec![4, 4, 4])]);
        let mut resident = PostingStore::new();
        resident.append(a, 2, &[5, 5]).unwrap();
        let both = || [&base, &delta].into_iter();
        let whole = read_list(both(), &a, resident.list(&a)).unwrap();
        assert_eq!(whole, (2, vec![1, 1, 2, 2, 3, 3, 5, 5]));
        // An empty part takes any entry length; an unknown label is empty.
        assert_eq!(read_list(both(), &b, None).unwrap(), (3, vec![4, 4, 4]));
        assert_eq!(read_list(both(), &unknown, None).unwrap(), (0, vec![]));
        // Parts of different entry lengths, on disk or resident, are not
        // one list.
        let other = v3(&[(a, 3, vec![6, 6, 6])]);
        assert!(malformed(
            read_list([&base, &other].into_iter(), &a, None),
            a
        ));
        resident.append(b, 1, &[7]).unwrap();
        assert!(malformed(read_list(both(), &b, resident.list(&b)), b));
    }

    #[test]
    fn rsseidx2_lists_read_flat_once_their_prefixes_check_out() {
        let (a, b, mixed) = ([1; 20], [2; 20], [3; 20]);
        let lists = [
            (a, vec![vec![1, 1, 1], vec![2, 2, 2]]),
            (b, vec![]),
            // 2 + 4 bytes in two 8-byte frames: 11 bytes a record, so the
            // directory reads 3-byte entries and the prefixes disagree.
            (mixed, vec![vec![3, 3], vec![4, 4, 4, 4]]),
        ];
        let file = SegmentReader::from_file(Arc::new(v2(&lists))).unwrap();
        let entry_lens: Vec<u64> = file.directory().values().map(|l| l.entry_len).collect();
        assert_eq!(entry_lens, [3, 0, 3]);
        assert_eq!(file.base_payload(), 12);
        let read = |label| read_list(std::iter::once(&file), label, None);
        assert_eq!(read(&a).unwrap(), (3, vec![1, 1, 1, 2, 2, 2]));
        assert_eq!(read(&b).unwrap(), (0, vec![]));
        assert!(malformed(read(&mixed), mixed));
    }
}
