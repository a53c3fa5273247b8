//! Index persistence: a stable on-disk format for the encrypted index.
//!
//! The owner builds an index once and may want to re-upload, back up, or
//! version it; the server wants to survive restarts — warm, without a
//! rebuild, from its generational store ([`crate::generation`]), every
//! generation of which is one file in this format. The current format is
//! `RSSEIDX3`: each posting list's entries back to back, then a trailing
//! label→offset directory, so a segment reader can serve any single
//! posting list with one positional read instead of materializing the
//! file:
//!
//! ```text
//! magic "RSSEIDX3" | u64 domain | u64 range | u64 list-count
//!   then per list (label order): its entries back to back
//!   then per list (same order): 20-byte label | u64 offset | u64 byte-len
//!                               | u64 entry-count
//! u64 directory-offset
//! ```
//!
//! Every entry is [`ENTRY_CT_LEN`] bytes (a list is one run of entries,
//! padded to ν by the owner), so nothing frames a list or an entry: the
//! directory record alone gives a list's extent `[offset, offset +
//! byte-len)`, and its byte length is exactly `entry-count ×
//! ENTRY_CT_LEN`. A non-empty list of any other entry length is refused
//! as [`RsseError::MalformedList`]. The extents tile the body exactly, in
//! label order. The final 8 bytes locate the directory from the end of
//! the file.
//!
//! `segment::SegmentReader` is the one reader: [`RsseIndex::load`] and
//! every generation of a store open through it. It also reads the
//! previous format, `RSSEIDX2`, which put `label | u64 entry-count`
//! before each list and a u64 length before each entry (a record's
//! offset pointed past the list's frame, and its byte length counted the
//! entries' frames); a store in it serves as it is, and its next flush
//! and compaction write `RSSEIDX3`. `RSSEIDX1`, which had no directory,
//! is refused as [`PersistError::BadMagic`]: it predates 32-byte
//! entries, and no index serves its 40-byte ones.
//!
//! [`RsseIndex::save`] takes `W: Write` and [`RsseIndex::load`] `R: Read`
//! by value (a `&mut` reference also works, per the std blanket impls);
//! `save` buffers internally and `load` reads its input whole, so callers
//! can hand over a bare `File`.

use crate::entry::ENTRY_CT_LEN;
use crate::error::RsseError;
use crate::index::{Label, ListParts, RsseIndex};
use crate::segment::{read_list, SegmentReader};
use crate::store::entries;
use rsse_opse::OpseParams;
use std::io::{self, BufWriter, Read, Write};
use std::sync::Arc;

/// The format magic every writer emits.
pub const MAGIC_V3: &[u8; 8] = b"RSSEIDX3";

/// The previous format magic, still read: entries framed by their
/// lengths.
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
    /// The label→offset directory is inconsistent with the file: a
    /// trailer or record out of range, unsorted labels, list extents that
    /// do not tile the body, or a byte length that is not a whole number
    /// of its entries.
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
    /// The stored index breaks a scheme invariant: a non-empty posting
    /// list of entries of another length than [`ENTRY_CT_LEN`], or an
    /// `RSSEIDX2` entry whose length prefix is another
    /// ([`RsseError::MalformedList`]).
    Rsse(RsseError),
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
            PersistError::Rsse(e) => write!(f, "malformed stored index: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Rsse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<RsseError> for PersistError {
    fn from(e: RsseError) -> Self {
        PersistError::Rsse(e)
    }
}

/// Writes whole lists — `(label, bytes)` in label order, each its
/// [`ENTRY_CT_LEN`]-byte entries back to back — as one `RSSEIDX3` file
/// and returns the writer: the one writer loop behind [`RsseIndex::save`]
/// and a generational store's base generation, delta flushes and
/// compactions. A list that arrives as an error (a compaction's failed
/// read) ends the write with that error.
pub(crate) fn write_lists<W: Write, B: AsRef<[u8]>>(
    mut w: W,
    opse: &OpseParams,
    lists: impl ExactSizeIterator<Item = Result<(Label, B), PersistError>>,
) -> Result<W, PersistError> {
    w.write_all(MAGIC_V3)?;
    w.write_all(&opse.domain_size().to_be_bytes())?;
    w.write_all(&opse.range_size().to_be_bytes())?;
    w.write_all(&(lists.len() as u64).to_be_bytes())?;
    let mut directory = Vec::with_capacity(lists.len() * DIR_RECORD_LEN as usize);
    let mut offset = HEADER_LEN;
    for list in lists {
        let (label, bytes) = list?;
        let bytes = bytes.as_ref();
        let count = entries(bytes).len() as u64;
        w.write_all(bytes)?;
        directory.extend_from_slice(&label);
        for field in [offset, bytes.len() as u64, count] {
            directory.extend_from_slice(&field.to_be_bytes());
        }
        offset += bytes.len() as u64;
    }
    w.write_all(&directory)?;
    w.write_all(&offset.to_be_bytes())?;
    w.flush()?;
    Ok(w)
}

impl RsseIndex {
    /// Serializes the index to `writer` in the `RSSEIDX3` format.
    ///
    /// Lists are written in label order, so equal indexes produce
    /// byte-identical files. The writer is buffered internally; passing a
    /// bare `File` costs no per-field syscalls.
    ///
    /// # Errors
    ///
    /// Before anything is written: [`PersistError::Rsse`] for an
    /// `RSSEIDX2` entry of a generational store whose length prefix is
    /// not [`ENTRY_CT_LEN`] (see [`RsseIndex::export_parts`]), and
    /// [`PersistError::Io`] when a list fails to read off its generation
    /// file. [`PersistError::Io`] on a failed write.
    pub fn save<W: Write>(&self, writer: W) -> Result<(), PersistError> {
        let lists = self.whole_lists()?.into_iter().map(Ok);
        write_lists(BufWriter::new(writer), &self.opse_or_trivial(), lists)?;
        Ok(())
    }

    /// Deserializes an index from `reader`, materializing it in memory
    /// (one resident buffer per list, see [`crate::store`]). Reads the
    /// whole input, then opens it through the one reader, with the same
    /// directory validation as [`RsseIndex::open_generational`], so an
    /// `RSSEIDX3` or `RSSEIDX2` file loads whole or not at all. To serve
    /// an index from disk *without* materializing it, write it out with
    /// [`RsseIndex::save_generational`] and reopen it with
    /// [`RsseIndex::open_generational`].
    ///
    /// # Errors
    ///
    /// [`PersistError::Rsse`] for a non-empty list of entries of another
    /// length than [`ENTRY_CT_LEN`]; any other [`PersistError`] on
    /// malformed or truncated input (`BadMagic` for an `RSSEIDX1` file).
    pub fn load<R: Read>(mut reader: R) -> Result<Self, PersistError> {
        let mut file = Vec::new();
        reader.read_to_end(&mut file)?;
        let segment = SegmentReader::from_file(Arc::new(file))?;
        let parts = (segment.directory().keys())
            .map(|label| {
                let bytes = read_list(std::iter::once(&segment), label, &[])?;
                Ok((*label, ENTRY_CT_LEN as u32, bytes))
            })
            .collect::<Result<ListParts, PersistError>>()?;
        Ok(RsseIndex::from_parts(parts, *segment.opse())?)
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

    fn saved(index: &RsseIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        buf
    }

    fn be(bytes: &[u8]) -> usize {
        u64::from_be_bytes(bytes.try_into().unwrap()) as usize
    }

    #[test]
    fn save_load_roundtrip_preserves_search_results() {
        let (scheme, index) = sample_index();
        let buf = saved(&index);
        assert_eq!(&buf[..8], MAGIC_V3);
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
        assert_eq!(saved(&index), saved(&index));
    }

    /// One tiny index, byte for byte: a list of two entries, an empty
    /// list and a list of one entry. A field order changed alike in the
    /// writer and the reader still fails here.
    #[test]
    fn saved_bytes_are_pinned() {
        let len = ENTRY_CT_LEN as u32;
        let parts = vec![
            ([0x01; 20], len, [[0xA1; 32], [0xA2; 32]].concat()),
            ([0x02; 20], len, vec![]),
            ([0x03; 20], len, vec![0xB1; 32]),
        ];
        let opse = OpseParams::new(4, 16).unwrap();
        let index = RsseIndex::from_parts(parts.clone(), opse).unwrap();
        let label = |b: &str| b.repeat(20);
        let entry = |b: &str| b.repeat(32);
        let golden = [
            "5253534549445833", // magic "RSSEIDX3"
            "0000000000000004", // domain
            "0000000000000010", // range
            "0000000000000003", // list count
            &entry("a1"),       // list 01: two entries
            &entry("a2"),
            &entry("b1"),       // list 03: one entry
            &label("01"),       // directory: list 01
            "0000000000000020", //   offset 32
            "0000000000000040", //   byte length 64
            "0000000000000002", //   entry count
            &label("02"),       // list 02, empty
            "0000000000000060", //   offset 96
            "0000000000000000", //   byte length
            "0000000000000000", //   entry count
            &label("03"),       // list 03
            "0000000000000060", //   offset 96
            "0000000000000020", //   byte length 32
            "0000000000000001", //   entry count
            "0000000000000080", // directory offset 128
        ]
        .concat();
        let hex: String = saved(&index).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, golden);
        let loaded = RsseIndex::load(&saved(&index)[..]).unwrap();
        assert_eq!(loaded.export_parts(), Ok(parts));
        assert_eq!(loaded.opse_params(), Some(&opse));
    }

    #[test]
    fn directory_records_tile_the_body() {
        let (_, index) = sample_index();
        let buf = saved(&index);
        let dir_offset = be(&buf[buf.len() - 8..]);
        let lists = index.num_lists();
        assert_eq!(
            buf.len(),
            dir_offset + lists * DIR_RECORD_LEN as usize + 8,
            "directory + trailer account for the file tail"
        );
        // Each record's extent starts where the last one ended and holds
        // a whole number of entries, nothing else.
        let mut next = HEADER_LEN as usize;
        for rec in buf[dir_offset..buf.len() - 8].chunks_exact(DIR_RECORD_LEN as usize) {
            let (offset, byte_len, count) = (be(&rec[20..28]), be(&rec[28..36]), be(&rec[36..44]));
            assert_eq!(offset, next, "extents tile the body");
            assert_eq!(byte_len, count * ENTRY_CT_LEN);
            next = offset + byte_len;
        }
        assert_eq!(next, dir_offset);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = RsseIndex::load(&b"NOTANIDXrest"[..]).unwrap_err();
        assert!(matches!(err, PersistError::BadMagic(_)));
    }

    #[test]
    fn rsseidx1_is_bad_magic() {
        // A pre-directory RSSEIDX1 file: its entries are 40 bytes, a layout
        // no index serves.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"RSSEIDX1");
        buf.extend_from_slice(&128u64.to_be_bytes());
        buf.extend_from_slice(&(1u64 << 46).to_be_bytes());
        buf.extend_from_slice(&1u64.to_be_bytes()); // one list
        buf.extend_from_slice(&[7u8; 20]);
        buf.extend_from_slice(&1u64.to_be_bytes()); // one entry
        buf.extend_from_slice(&40u64.to_be_bytes());
        buf.extend_from_slice(&[0xAA; 40]);
        let err = RsseIndex::load(&buf[..]).unwrap_err();
        assert!(matches!(err, PersistError::BadMagic(m) if &m == b"RSSEIDX1"));
    }

    #[test]
    fn truncation_anywhere_is_an_error() {
        let (_, index) = sample_index();
        let buf = saved(&index);
        let step = (buf.len() / 50).max(1);
        for cut in (0..buf.len()).step_by(step) {
            assert!(RsseIndex::load(&buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn hostile_length_fields_rejected() {
        for magic in [MAGIC_V2, MAGIC_V3] {
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
        buf.extend_from_slice(MAGIC_V3);
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
        let mut buf = saved(&index);
        let dir_offset = be(&buf[buf.len() - 8..]);
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
