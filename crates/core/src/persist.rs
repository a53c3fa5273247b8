//! Index persistence: a stable on-disk format for the encrypted index.
//!
//! The owner builds an index once and may want to re-upload, back up, or
//! version it; the server wants to survive restarts — warm, without a
//! rebuild, from its generational store ([`crate::generation`]), every
//! generation of which is one file in this format. The current format is
//! `RSSEIDX2`: the `RSSEIDX1` body followed by a trailing label→offset
//! directory, so a segment reader can serve any single posting list with
//! one positional read instead of materializing the file:
//!
//! ```text
//! magic "RSSEIDX2" | u64 domain | u64 range | u64 list-count
//!   then per list (label order): 20-byte label | u64 entry-count
//!     then per entry: u64 len | bytes
//!   then per list (same order): 20-byte label | u64 offset | u64 byte-len
//!                               | u64 entry-count
//! u64 directory-offset
//! ```
//!
//! `offset` is the absolute file offset of the list's first entry record
//! (just past its label + entry-count header) and `byte-len` the total
//! size of its entry records, so `[offset, offset + byte-len)` is exactly
//! the slice a segment read needs. The final 8 bytes locate the
//! directory from the end of the file.
//!
//! `RSSEIDX1` files (no directory, no trailer) still load through
//! [`RsseIndex::load`]: the body layout is unchanged, so a v1 file is
//! converted on load by scanning it once. [`RsseIndex::save`] and every
//! generation file always write v2.
//!
//! Readers take `R: Read` and writers `W: Write` by value (a `&mut`
//! reference also works, per the std blanket impls); both are buffered
//! internally, so callers can hand over a bare `File`.

use crate::index::{Label, RsseIndex};
use rsse_opse::OpseParams;
use std::io::{self, BufReader, BufWriter, Read, Write};

/// The legacy v1 format magic (read-compat only; [`RsseIndex::save`]
/// writes [`MAGIC_V2`]).
pub const MAGIC: &[u8; 8] = b"RSSEIDX1";

/// The current format magic: v1 body plus a trailing label→offset
/// directory.
pub const MAGIC_V2: &[u8; 8] = b"RSSEIDX2";

/// Cap on any single length field (1 GiB) — guards hostile files.
pub(crate) const MAX_LEN: u64 = 1 << 30;

/// Bytes of the fixed header: magic, domain, range, list count.
pub(crate) const HEADER_LEN: u64 = 32;

/// Bytes of one directory record: label, offset, byte-len, entry count.
pub(crate) const DIR_RECORD_LEN: u64 = 44;

/// Errors from loading a persisted index.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the expected magic/version.
    BadMagic([u8; 8]),
    /// A length field exceeds the sanity cap.
    Oversize(u64),
    /// Stored OPSE parameters are inconsistent.
    BadParameters {
        /// Stored domain.
        domain: u64,
        /// Stored range.
        range: u64,
    },
    /// The v2 label→offset directory is inconsistent with the file:
    /// out-of-range, overlapping, or unsorted list ranges, counts that
    /// cannot fit their byte ranges, or records that contradict the body.
    BadDirectory(&'static str),
    /// A generational store's `MANIFEST` is malformed: bad magic, a
    /// truncated record list, a checksum mismatch, or generation entries
    /// that contradict each other.
    BadManifest(&'static str),
    /// A live compaction is already running on this store. The request is
    /// rejected immediately — compaction never blocks behind compaction —
    /// and can simply be retried once the running pass installs its
    /// generation.
    CompactInProgress,
}

impl core::fmt::Display for PersistError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o failure: {e}"),
            PersistError::BadMagic(m) => write!(f, "not an RSSE index file (magic {m:02x?})"),
            PersistError::Oversize(n) => write!(f, "length field {n} exceeds sanity cap"),
            PersistError::BadParameters { domain, range } => {
                write!(f, "inconsistent OPSE parameters: M={domain}, N={range}")
            }
            PersistError::BadDirectory(why) => write!(f, "corrupt segment directory: {why}"),
            PersistError::BadManifest(why) => write!(f, "corrupt generation manifest: {why}"),
            PersistError::CompactInProgress => {
                write!(f, "a live compaction is already running on this store")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn read_u64(mut r: impl Read) -> Result<u64, PersistError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_be_bytes(buf))
}

fn read_len(r: impl Read) -> Result<u64, PersistError> {
    let n = read_u64(r)?;
    if n > MAX_LEN {
        return Err(PersistError::Oversize(n));
    }
    Ok(n)
}

/// One directory record: where a list's entry records live in the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DirRecord {
    pub label: Label,
    /// Absolute offset of the first entry record.
    pub offset: u64,
    /// Total bytes of the entry records (length prefixes included).
    pub byte_len: u64,
    /// Number of entries.
    pub count: u64,
}

/// Streaming v2 writer shared by [`RsseIndex::save`] and the generational
/// store's create, flush, and compaction: tracks the write position,
/// accumulates the directory, and emits it (plus the trailer) on
/// [`SegmentWriter::finish`].
pub(crate) struct SegmentWriter<W: Write> {
    w: W,
    pos: u64,
    dir: Vec<DirRecord>,
    current: Option<(Label, u64, u64)>, // label, entry offset, entry count
}

impl<W: Write> SegmentWriter<W> {
    /// Writes the header and prepares for `begin_list` calls in label
    /// order.
    pub fn new(mut w: W, opse: &OpseParams, list_count: u64) -> io::Result<Self> {
        w.write_all(MAGIC_V2)?;
        w.write_all(&opse.domain_size().to_be_bytes())?;
        w.write_all(&opse.range_size().to_be_bytes())?;
        w.write_all(&list_count.to_be_bytes())?;
        Ok(SegmentWriter {
            w,
            pos: HEADER_LEN,
            dir: Vec::with_capacity(list_count as usize),
            current: None,
        })
    }

    /// Starts the list under `label`, which must sort after every list
    /// already written.
    pub fn begin_list(&mut self, label: Label, entry_count: u64) -> io::Result<()> {
        debug_assert!(self.current.is_none(), "previous list not ended");
        self.w.write_all(&label)?;
        self.w.write_all(&entry_count.to_be_bytes())?;
        self.pos += 20 + 8;
        self.current = Some((label, self.pos, entry_count));
        Ok(())
    }

    /// Writes one length-prefixed entry of the current list.
    pub fn write_entry(&mut self, entry: &[u8]) -> io::Result<()> {
        self.w.write_all(&(entry.len() as u64).to_be_bytes())?;
        self.w.write_all(entry)?;
        self.pos += 8 + entry.len() as u64;
        Ok(())
    }

    /// Copies pre-encoded entry records verbatim (the compaction fast
    /// path: a generation's list range is already in wire shape).
    pub fn write_raw_entries(&mut self, records: &[u8]) -> io::Result<()> {
        self.w.write_all(records)?;
        self.pos += records.len() as u64;
        Ok(())
    }

    /// Absolute write position: bytes emitted so far.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Ends the current list, recording its directory entry.
    pub fn end_list(&mut self) {
        let (label, offset, count) = self.current.take().expect("begin_list first");
        self.dir.push(DirRecord {
            label,
            offset,
            byte_len: self.pos - offset,
            count,
        });
    }

    /// Writes the directory and trailer, flushes, and returns the writer.
    pub fn finish(mut self) -> io::Result<W> {
        debug_assert!(self.current.is_none(), "last list not ended");
        let dir_offset = self.pos;
        for rec in &self.dir {
            self.w.write_all(&rec.label)?;
            self.w.write_all(&rec.offset.to_be_bytes())?;
            self.w.write_all(&rec.byte_len.to_be_bytes())?;
            self.w.write_all(&rec.count.to_be_bytes())?;
        }
        self.w.write_all(&dir_offset.to_be_bytes())?;
        self.w.flush()?;
        Ok(self.w)
    }
}

impl RsseIndex {
    /// Serializes the index to `writer` in the `RSSEIDX2` format.
    ///
    /// Lists are written in label order, so equal indexes produce
    /// byte-identical files. The writer is buffered internally; passing a
    /// bare `File` costs no per-field syscalls.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save<W: Write>(&self, writer: W) -> io::Result<()> {
        let opse = self
            .opse_params()
            .copied()
            .unwrap_or_else(|| OpseParams::new(1, 1).expect("1/1 is valid"));
        let parts = self.export_parts();
        let mut w = SegmentWriter::new(BufWriter::new(writer), &opse, parts.len() as u64)?;
        for (label, entries) in parts {
            w.begin_list(label, entries.len() as u64)?;
            for e in entries {
                w.write_entry(&e)?;
            }
            w.end_list();
        }
        w.finish()?;
        Ok(())
    }

    /// Deserializes an index from `reader`, materializing it in memory
    /// (the [`crate::backend::MemBackend`]). Accepts both `RSSEIDX2` and
    /// legacy `RSSEIDX1` files; to serve an index from disk *without*
    /// materializing it, write it out with [`RsseIndex::save_generational`]
    /// and reopen it with [`RsseIndex::open_generational`]. The reader is
    /// buffered internally.
    ///
    /// For v2 input the trailing directory is required to mirror the body
    /// exactly — a file whose directory disagrees with its lists is
    /// rejected, never part-loaded.
    ///
    /// # Errors
    ///
    /// Any [`PersistError`] on malformed or truncated input.
    pub fn load<R: Read>(reader: R) -> Result<Self, PersistError> {
        let mut reader = BufReader::new(reader);
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        let v2 = match &magic {
            m if m == MAGIC_V2 => true,
            m if m == MAGIC => false,
            _ => return Err(PersistError::BadMagic(magic)),
        };
        let domain = read_u64(&mut reader)?;
        let range = read_u64(&mut reader)?;
        let opse = OpseParams::new(domain, range)
            .map_err(|_| PersistError::BadParameters { domain, range })?;
        let num_lists = read_len(&mut reader)?;
        let mut pos = HEADER_LEN;
        let mut parts = Vec::with_capacity(num_lists.min(1 << 20) as usize);
        let mut body_dir: Vec<DirRecord> = Vec::new();
        for _ in 0..num_lists {
            let mut label: Label = [0u8; 20];
            reader.read_exact(&mut label)?;
            let num_entries = read_len(&mut reader)?;
            pos += 20 + 8;
            let offset = pos;
            let mut entries = Vec::with_capacity(num_entries.min(1 << 20) as usize);
            for _ in 0..num_entries {
                let len = read_len(&mut reader)? as usize;
                let mut e = vec![0u8; len];
                reader.read_exact(&mut e)?;
                pos += 8 + len as u64;
                entries.push(e);
            }
            if v2 {
                body_dir.push(DirRecord {
                    label,
                    offset,
                    byte_len: pos - offset,
                    count: num_entries,
                });
            }
            parts.push((label, entries));
        }
        if v2 {
            // The directory must mirror the body record for record; any
            // disagreement means the file was corrupted or tampered with.
            for want in &body_dir {
                let mut label: Label = [0u8; 20];
                reader.read_exact(&mut label)?;
                let got = DirRecord {
                    label,
                    offset: read_u64(&mut reader)?,
                    byte_len: read_u64(&mut reader)?,
                    count: read_u64(&mut reader)?,
                };
                if got != *want {
                    return Err(PersistError::BadDirectory(
                        "directory record does not match the body",
                    ));
                }
            }
            let dir_offset = read_u64(&mut reader)?;
            if dir_offset != pos {
                return Err(PersistError::BadDirectory(
                    "trailer offset does not match the body",
                ));
            }
        }
        Ok(RsseIndex::from_parts(parts, opse))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RsseParams;
    use crate::scheme::Rsse;
    use rsse_ir::{Document, FileId};

    fn sample_index() -> (Rsse, RsseIndex) {
        let docs = vec![
            Document::new(FileId::new(1), "network storage network"),
            Document::new(FileId::new(2), "network packet"),
            Document::new(FileId::new(3), "storage arrays"),
        ];
        let scheme = Rsse::new(b"persist seed", RsseParams::default());
        let index = scheme.build_index(&docs).unwrap();
        (scheme, index)
    }

    #[test]
    fn save_load_roundtrip_preserves_search_results() {
        let (scheme, index) = sample_index();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        assert_eq!(&buf[..8], MAGIC_V2);
        let loaded = RsseIndex::load(&buf[..]).unwrap();
        assert_eq!(loaded.opse_params(), index.opse_params());
        assert_eq!(loaded.num_lists(), index.num_lists());
        for kw in ["network", "storage", "packet"] {
            let t = scheme.trapdoor(kw).unwrap();
            assert_eq!(loaded.search(&t, None), index.search(&t, None), "{kw}");
        }
    }

    #[test]
    fn serialization_is_deterministic() {
        let (_, index) = sample_index();
        let mut a = Vec::new();
        let mut b = Vec::new();
        index.save(&mut a).unwrap();
        index.save(&mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn v2_layout_directory_locates_every_list() {
        let (_, index) = sample_index();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let dir_offset = u64::from_be_bytes(buf[buf.len() - 8..].try_into().unwrap()) as usize;
        let lists = index.num_lists();
        assert_eq!(
            buf.len(),
            dir_offset + lists * DIR_RECORD_LEN as usize + 8,
            "directory + trailer account for the file tail"
        );
        // Each record's range holds exactly its length-prefixed entries.
        for rec in buf[dir_offset..buf.len() - 8].chunks_exact(DIR_RECORD_LEN as usize) {
            let offset = u64::from_be_bytes(rec[20..28].try_into().unwrap()) as usize;
            let byte_len = u64::from_be_bytes(rec[28..36].try_into().unwrap()) as usize;
            let count = u64::from_be_bytes(rec[36..44].try_into().unwrap());
            let mut pos = offset;
            for _ in 0..count {
                let len = u64::from_be_bytes(buf[pos..pos + 8].try_into().unwrap()) as usize;
                pos += 8 + len;
            }
            assert_eq!(pos, offset + byte_len, "record range is exact");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let err = RsseIndex::load(&b"NOTANIDXrest"[..]).unwrap_err();
        assert!(matches!(err, PersistError::BadMagic(_)));
    }

    #[test]
    fn legacy_v1_body_still_loads() {
        // A pre-directory RSSEIDX1 file: same body, no tail.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&128u64.to_be_bytes());
        buf.extend_from_slice(&(1u64 << 46).to_be_bytes());
        buf.extend_from_slice(&1u64.to_be_bytes()); // one list
        buf.extend_from_slice(&[7u8; 20]);
        buf.extend_from_slice(&2u64.to_be_bytes()); // two entries
        for payload in [[0xAAu8; 4], [0xBBu8; 4]] {
            buf.extend_from_slice(&4u64.to_be_bytes());
            buf.extend_from_slice(&payload);
        }
        let loaded = RsseIndex::load(&buf[..]).unwrap();
        assert_eq!(loaded.num_lists(), 1);
        assert_eq!(
            loaded.raw_list(&[7u8; 20]).unwrap(),
            vec![vec![0xAA; 4], vec![0xBB; 4]]
        );
    }

    #[test]
    fn truncation_anywhere_is_an_error() {
        let (_, index) = sample_index();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let step = (buf.len() / 50).max(1);
        for cut in (0..buf.len()).step_by(step) {
            assert!(RsseIndex::load(&buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn hostile_length_fields_rejected() {
        for magic in [MAGIC, MAGIC_V2] {
            let mut buf = Vec::new();
            buf.extend_from_slice(magic);
            buf.extend_from_slice(&128u64.to_be_bytes());
            buf.extend_from_slice(&(1u64 << 46).to_be_bytes());
            buf.extend_from_slice(&u64::MAX.to_be_bytes()); // absurd list count
            assert!(matches!(
                RsseIndex::load(&buf[..]).unwrap_err(),
                PersistError::Oversize(_)
            ));
        }
    }

    #[test]
    fn inconsistent_parameters_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&128u64.to_be_bytes());
        buf.extend_from_slice(&2u64.to_be_bytes()); // range < domain
        buf.extend_from_slice(&0u64.to_be_bytes());
        assert!(matches!(
            RsseIndex::load(&buf[..]).unwrap_err(),
            PersistError::BadParameters { .. }
        ));
    }

    #[test]
    fn tampered_directory_rejected_by_load() {
        let (_, index) = sample_index();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let dir_offset = u64::from_be_bytes(buf[buf.len() - 8..].try_into().unwrap()) as usize;
        // Flip one bit in the first record's offset field.
        buf[dir_offset + 27] ^= 1;
        assert!(matches!(
            RsseIndex::load(&buf[..]).unwrap_err(),
            PersistError::BadDirectory(_)
        ));
    }

    #[test]
    fn file_roundtrip() {
        let (scheme, index) = sample_index();
        let path = std::env::temp_dir().join("rsse_persist_test.idx");
        index.save(std::fs::File::create(&path).unwrap()).unwrap();
        let loaded = RsseIndex::load(std::fs::File::open(&path).unwrap()).unwrap();
        let t = scheme.trapdoor("network").unwrap();
        assert_eq!(loaded.search(&t, Some(1)), index.search(&t, Some(1)));
        let _ = std::fs::remove_file(&path);
    }
}
