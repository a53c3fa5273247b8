//! Hand-rolled binary wire codec for the cloud protocol.
//!
//! Length-prefixed, tagged frames over [`bytes::BytesMut`]. The codec is
//! deliberately dependency-free (beyond `bytes`) so every byte on the
//! simulated wire is accounted for explicitly — the bandwidth numbers in
//! the protocol experiments are exact frame sizes, not estimates.
//!
//! A [`Message`] frame is one tag byte, then the variant's fields in a
//! fixed order. Each field shape has one encoding: integers big-endian,
//! byte arrays raw, an `Option` as a presence byte (0 or 1) then the
//! value, a `Vec` or `String` as a `u64` count then the items, tuples and
//! [`EncryptedFile`]s (id, ciphertext) as their parts back to back, and
//! [`SearchMode`] and [`ErrorKind`] as one byte. A posting list travels
//! as one `(label, entry_len, bytes)` tuple, its equal-length entries back
//! to back, so a whole list costs one `u64` length, not one per entry;
//! whether the bytes are a whole number of entries is checked where a
//! list is used, not here. A private trait writes
//! each shape once, and one table with a `tag => Variant { fields }` row
//! per variant generates [`Message::encode`], [`Message::decode`] and
//! [`Message::wire_len`], so the three cannot disagree.
//!
//! Decoding is strict: a presence, tag or enum byte out of range, invalid
//! UTF-8, a count over [`MAX_FRAME_LEN`], a short input or trailing bytes
//! is a [`CodecError`]. Every decodable frame therefore re-encodes to
//! exactly its input bytes. A claimed count never reserves more slots
//! than the remaining input could hold, so a hostile count in a short
//! frame cannot make the decoder allocate past the frame itself.
//!
//! On a byte stream each body travels in the envelope [`frame_message`]
//! builds and [`FrameAssembler`] reassembles.

use crate::files::EncryptedFile;
use bytes::{Buf, BufMut, BytesMut};
use rsse_ir::FileId;

/// A posting-list label on the wire.
pub type Label = [u8; 20];

/// Maximum accepted frame body (64 MiB) — guards against malicious length
/// prefixes.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// One query's result inside a [`Message::BatchReply`]: the ranked
/// `(file id, OPM score)` pairs plus the ranked encrypted files.
pub type BatchResult = (Vec<(u64, u64)>, Vec<EncryptedFile>);

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The buffer ended before the announced length.
    UnexpectedEof,
    /// Unknown message tag.
    BadTag(u8),
    /// A length prefix exceeded [`MAX_FRAME_LEN`].
    Oversize(u64),
    /// Trailing bytes after a complete message.
    TrailingBytes(usize),
    /// A string field was not valid UTF-8.
    BadString,
    /// A transport envelope header was malformed (its declared length
    /// cannot even cover the sequence id).
    BadEnvelope(u32),
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "frame truncated"),
            CodecError::BadTag(t) => write!(f, "unknown message tag {t}"),
            CodecError::Oversize(n) => write!(f, "length prefix {n} exceeds frame cap"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            CodecError::BadString => write!(f, "string field is not valid UTF-8"),
            CodecError::BadEnvelope(n) => {
                write!(f, "envelope length {n} cannot cover the sequence id")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Which retrieval protocol a search request selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// RSSE: the server ranks and returns top-k files in one round.
    Rsse,
    /// Basic scheme, naive: the server returns *all* matching files plus
    /// encrypted scores in one round (huge bandwidth).
    BasicFull,
    /// Basic scheme, two-round: round one returns only
    /// `(id, E_z(S))` pairs; the user ranks and fetches the top-k files in
    /// a second round.
    BasicEntries,
}

/// Failure category carried by a [`Message::Error`] frame, so clients can
/// react without parsing the human-readable detail string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request frame did not decode.
    BadFrame,
    /// A request referenced an unknown posting-list label. Reserved on the
    /// wire: this simulation answers unknown labels with empty result sets
    /// (thwarting keyword-existence probing), but deployments that treat
    /// them as errors need the kind to be representable.
    UnknownLabel,
    /// The message decoded but is out of protocol for the serving path.
    Rejected,
    /// The server shed the request because its backlog is full.
    Overloaded,
    /// The server failed internally (including a contained worker panic).
    Internal,
}

impl core::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            ErrorKind::BadFrame => "bad frame",
            ErrorKind::UnknownLabel => "unknown label",
            ErrorKind::Rejected => "rejected request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Internal => "internal error",
        })
    }
}

/// All protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Owner → server: the encrypted indexes and file collection.
    Outsource {
        /// RSSE posting lists `(π_x(w), entry_len, entries)`: each list's
        /// `entry_len`-byte entries back to back.
        rsse_lists: Vec<(Label, u32, Vec<u8>)>,
        /// Basic-scheme posting lists, same shape.
        basic_lists: Vec<(Label, u32, Vec<u8>)>,
        /// OPSE domain size `M` (public parameter).
        opse_domain: u64,
        /// OPSE range size `N` (public parameter).
        opse_range: u64,
        /// The encrypted files.
        files: Vec<EncryptedFile>,
    },
    /// User → server: a trapdoor plus protocol selection.
    SearchRequest {
        /// The posting-list label `π_x(w)`.
        label: Label,
        /// The per-list key `f_y(w)` bytes.
        list_key: [u8; 32],
        /// `Some(k)` requests only the top-k results.
        top_k: Option<u32>,
        /// Which protocol to run.
        mode: SearchMode,
    },
    /// Server → user (RSSE): ranked files, best first.
    RsseResponse {
        /// `(file id, OPM score)` in rank order.
        ranking: Vec<(u64, u64)>,
        /// The ranked encrypted files, same order.
        files: Vec<EncryptedFile>,
    },
    /// Server → user (basic, naive): every matching file + encrypted score.
    BasicFullResponse {
        /// `(file id, E_z(S))` pairs.
        scores: Vec<(u64, Vec<u8>)>,
        /// All matching encrypted files (unranked).
        files: Vec<EncryptedFile>,
    },
    /// Server → user (basic, round one): `(id, E_z(S))` pairs only.
    BasicEntriesResponse {
        /// `(file id, E_z(S))` pairs.
        scores: Vec<(u64, Vec<u8>)>,
    },
    /// User → server (basic, round two): fetch these files.
    FetchFiles {
        /// Requested file ids, in the user's rank order.
        ids: Vec<u64>,
    },
    /// User → server: conjunctive (multi-keyword) ranked search — the
    /// §VIII extension. One `(label, list key)` pair per keyword.
    ConjunctiveRequest {
        /// Per-keyword trapdoor components, in query order.
        trapdoors: Vec<(Label, [u8; 32])>,
        /// `Some(k)` requests only the top-k results.
        top_k: Option<u32>,
    },
    /// Server → user: conjunctive results ranked by mapped-score sum.
    ConjunctiveResponse {
        /// `(file id, per-keyword mapped scores)` in rank order.
        ranking: Vec<(u64, Vec<u64>)>,
        /// The ranked encrypted files, same order.
        files: Vec<EncryptedFile>,
    },
    /// Server → user (basic, round two): the requested files.
    FilesResponse {
        /// Files in the requested order (missing ids are skipped).
        files: Vec<EncryptedFile>,
    },
    /// Owner → server: a §VII score-dynamics update — new posting entries
    /// to append plus the newly encrypted files.
    Update {
        /// RSSE append operations `(π_x(w), entry_len, new entries)`,
        /// shaped like [`Message::Outsource`]'s lists.
        rsse_lists: Vec<(Label, u32, Vec<u8>)>,
        /// Encrypted files for the added documents.
        files: Vec<EncryptedFile>,
    },
    /// Server → owner: acknowledgement of an applied update.
    UpdateAck {
        /// Number of posting lists touched by the update.
        lists_touched: u64,
        /// Number of files ingested.
        files_added: u64,
    },
    /// Coordinator → shard: one scatter leg of a sharded ranked search.
    /// Carries the same trapdoor as a [`Message::SearchRequest`] plus the
    /// shard's identity, echoed back in the reply so legs can be correlated
    /// (and misdirected frames detected) without transport-level state.
    ShardQuery {
        /// The posting-list label `π_x(w)`.
        label: Label,
        /// The per-list key `f_y(w)` bytes.
        list_key: [u8; 32],
        /// `Some(k)` requests only the shard's local top-k (the global
        /// top-k is a subset of the per-shard top-k union under a disjoint
        /// file partition).
        top_k: Option<u32>,
        /// Which shard this leg addresses.
        shard_id: u32,
    },
    /// Shard → coordinator: the shard's locally ranked partial result —
    /// its own top-k over its partition of the posting list, files
    /// included. A failing shard answers [`Message::Error`] instead; the
    /// coordinator merges whatever replies arrive and reports the rest as
    /// degraded coverage.
    ShardReply {
        /// Echo of the queried shard's identity.
        shard_id: u32,
        /// `(file id, OPM score)` in the shard's local rank order.
        ranking: Vec<(u64, u64)>,
        /// The ranked encrypted files, same order.
        files: Vec<EncryptedFile>,
    },
    /// Client → server: several ranked searches amortized over **one**
    /// channel round trip. Per-request wire overhead (envelope queueing,
    /// reply rendezvous) dominates the `cpu` workload, so hot clients and
    /// the shard router coalesce their queries. With `shard_id` present the
    /// batch is one scatter leg of a sharded search (the id is echoed in
    /// the reply, like [`Message::ShardQuery`]); absent, it is a direct
    /// client batch.
    BatchRequest {
        /// Per-query trapdoor + top-k: `(π_x(w), f_y(w), top_k)`.
        queries: Vec<(Label, [u8; 32], Option<u32>)>,
        /// `Some(id)` marks a sharded scatter leg addressed to shard `id`.
        shard_id: Option<u32>,
    },
    /// Server → client: one [`BatchResult`] per query of the matching
    /// [`Message::BatchRequest`], in request order. A batch whose *handling*
    /// fails answers [`Message::Error`] instead; per-query "no match" is an
    /// empty result, exactly as in the single-query protocol.
    BatchReply {
        /// Echo of the request's `shard_id` (None for direct batches).
        shard_id: Option<u32>,
        /// Ranked results, one per query, in request order.
        results: Vec<BatchResult>,
    },
    /// Router → shard: fetch the shard's label filter — the set of
    /// posting-list labels it holds *real* (non-padding) postings for —
    /// so the router can prune scatter legs that provably cannot
    /// contribute to a merged ranking. Carrying the router's last-seen
    /// epoch lets an up-to-date shard answer with a label-free frame.
    FilterRequest {
        /// Which shard is being asked.
        shard_id: u32,
        /// The filter epoch the router already holds, if any; the shard
        /// omits the label set when it matches.
        known_epoch: Option<u64>,
    },
    /// Shard → router: the epoch-tagged label filter. `labels` is `None`
    /// when the requester's `known_epoch` is current (nothing to resend),
    /// otherwise the full sorted label set at `epoch`.
    FilterReply {
        /// Echo of the queried shard's identity.
        shard_id: u32,
        /// Filter epoch; bumped on every update or compaction, so a
        /// router holding this epoch may prune with the filter until the
        /// shard's epoch moves.
        epoch: u64,
        /// The sorted labels with real postings, or `None` when the
        /// requester's `known_epoch` is already current.
        labels: Option<Vec<Label>>,
    },
    /// Router → shard: one scatter leg of a sharded conjunctive search.
    /// Carries the same trapdoor set as a [`Message::ConjunctiveRequest`]
    /// plus the shard's identity, echoed back in the reply so legs can be
    /// correlated (like [`Message::ShardQuery`]). Under a disjoint file
    /// partition each shard intersects locally and the global conjunction
    /// is exactly the union of the per-shard ones.
    ConjunctiveShardQuery {
        /// Per-keyword trapdoor components, in query order.
        trapdoors: Vec<(Label, [u8; 32])>,
        /// `Some(k)` requests only the shard's local top-k (the global
        /// top-k is a subset of the per-shard top-k union under a disjoint
        /// file partition).
        top_k: Option<u32>,
        /// Which shard this leg addresses.
        shard_id: u32,
    },
    /// Shard → router: the shard's locally intersected and ranked partial
    /// conjunctive result, files included. A failing shard answers
    /// [`Message::Error`] instead, exactly like [`Message::ShardReply`].
    ConjunctiveShardReply {
        /// Echo of the queried shard's identity.
        shard_id: u32,
        /// `(file id, per-keyword mapped scores)` in the shard's local
        /// rank order (mapped-score sum descending, file id ascending).
        ranking: Vec<(u64, Vec<u64>)>,
        /// The ranked encrypted files, same order.
        files: Vec<EncryptedFile>,
    },
    /// Server → client: the request failed. Every request gets an answer
    /// frame — success or this — so failures are representable on a real
    /// transport and their bytes count in the bandwidth accounting.
    Error {
        /// Typed failure category.
        kind: ErrorKind,
        /// Human-readable detail, bounded by [`Message::MAX_ERROR_DETAIL`]
        /// when built through [`Message::error`].
        detail: String,
    },
}

/// One field shape on the wire, implemented once per shape. The frame
/// table below composes these into every [`Message`] layout.
trait Wire: Sized {
    /// Fewest bytes any value of this shape encodes to.
    const MIN_LEN: usize;

    fn put(&self, buf: &mut BytesMut);

    fn get(buf: &mut BytesMut) -> Result<Self, CodecError>;

    fn wire_len(&self) -> usize;

    /// A sequence: its `u64` count, then each item. `u8` overrides the
    /// three sequence methods with bulk copies.
    fn put_seq(items: &[Self], buf: &mut BytesMut) {
        (items.len() as u64).put(buf);
        for item in items {
            item.put(buf);
        }
    }

    /// The `n` items after a sequence's count. No container reserves more
    /// slots than the remaining input could encode at `MIN_LEN` bytes an
    /// item, so a hostile count in a short frame cannot make the decoder
    /// allocate past the frame itself.
    fn get_items(n: usize, buf: &mut BytesMut) -> Result<Vec<Self>, CodecError> {
        let mut items = Vec::with_capacity(n.min(buf.remaining() / Self::MIN_LEN + 1));
        for _ in 0..n {
            items.push(Self::get(buf)?);
        }
        Ok(items)
    }

    fn seq_len(items: &[Self]) -> usize {
        8 + items.iter().map(Self::wire_len).sum::<usize>()
    }
}

/// Unsigned integers, big-endian, with optional sequence overrides.
macro_rules! wire_uint {
    ($($ty:ty { $($seq:tt)* })+) => {$(
        impl Wire for $ty {
            const MIN_LEN: usize = core::mem::size_of::<$ty>();

            fn put(&self, buf: &mut BytesMut) {
                buf.put_slice(&self.to_be_bytes());
            }

            fn get(buf: &mut BytesMut) -> Result<Self, CodecError> {
                Wire::get(buf).map(<$ty>::from_be_bytes)
            }

            fn wire_len(&self) -> usize {
                Self::MIN_LEN
            }

            $($seq)*
        }
    )+};
}

wire_uint! {
    // Byte sequences move in one bulk copy, not byte by byte.
    u8 {
        fn put_seq(items: &[u8], buf: &mut BytesMut) {
            (items.len() as u64).put(buf);
            buf.put_slice(items);
        }

        fn get_items(n: usize, buf: &mut BytesMut) -> Result<Vec<u8>, CodecError> {
            if buf.remaining() < n {
                return Err(CodecError::UnexpectedEof);
            }
            let mut out = vec![0u8; n];
            buf.copy_to_slice(&mut out);
            Ok(out)
        }

        fn seq_len(items: &[u8]) -> usize {
            8 + items.len()
        }
    }
    u32 {}
    u64 {}
}

impl<const N: usize> Wire for [u8; N] {
    const MIN_LEN: usize = N;

    fn put(&self, buf: &mut BytesMut) {
        buf.put_slice(self);
    }

    fn get(buf: &mut BytesMut) -> Result<Self, CodecError> {
        if buf.remaining() < N {
            return Err(CodecError::UnexpectedEof);
        }
        let mut out = [0u8; N];
        buf.copy_to_slice(&mut out);
        Ok(out)
    }

    fn wire_len(&self) -> usize {
        N
    }
}

/// A presence byte, strictly 0 or 1, then the value if present.
impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;

    fn put(&self, buf: &mut BytesMut) {
        match self {
            Some(v) => {
                1u8.put(buf);
                v.put(buf);
            }
            None => 0u8.put(buf),
        }
    }

    fn get(buf: &mut BytesMut) -> Result<Self, CodecError> {
        match u8::get(buf)? {
            0 => Ok(None),
            1 => T::get(buf).map(Some),
            other => Err(CodecError::BadTag(other)),
        }
    }

    fn wire_len(&self) -> usize {
        1 + self.as_ref().map_or(0, T::wire_len)
    }
}

/// A `u64` count of at most [`MAX_FRAME_LEN`], then the items.
impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 8;

    fn put(&self, buf: &mut BytesMut) {
        T::put_seq(self, buf);
    }

    fn get(buf: &mut BytesMut) -> Result<Self, CodecError> {
        match u64::get(buf)? {
            n if n > MAX_FRAME_LEN as u64 => Err(CodecError::Oversize(n)),
            n => T::get_items(n as usize, buf),
        }
    }

    fn wire_len(&self) -> usize {
        T::seq_len(self)
    }
}

/// Tuples: their fields back to back.
macro_rules! wire_tuple {
    ($($t:ident . $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            const MIN_LEN: usize = 0 $(+ $t::MIN_LEN)+;

            fn put(&self, buf: &mut BytesMut) {
                $(self.$i.put(buf);)+
            }

            fn get(buf: &mut BytesMut) -> Result<Self, CodecError> {
                Ok(($($t::get(buf)?,)+))
            }

            fn wire_len(&self) -> usize {
                0 $(+ self.$i.wire_len())+
            }
        }
    };
}

wire_tuple!(A.0, B.1);
wire_tuple!(A.0, B.1, C.2);

/// UTF-8 bytes as a byte sequence.
impl Wire for String {
    const MIN_LEN: usize = 8;

    fn put(&self, buf: &mut BytesMut) {
        u8::put_seq(self.as_bytes(), buf);
    }

    fn get(buf: &mut BytesMut) -> Result<Self, CodecError> {
        String::from_utf8(Wire::get(buf)?).map_err(|_| CodecError::BadString)
    }

    fn wire_len(&self) -> usize {
        u8::seq_len(self.as_bytes())
    }
}

/// The file id, then the ciphertext as a byte sequence.
impl Wire for EncryptedFile {
    const MIN_LEN: usize = 16;

    fn put(&self, buf: &mut BytesMut) {
        self.id().as_u64().put(buf);
        u8::put_seq(self.ciphertext(), buf);
    }

    fn get(buf: &mut BytesMut) -> Result<Self, CodecError> {
        let (id, ciphertext) = <(u64, Vec<u8>)>::get(buf)?;
        Ok(EncryptedFile::new(FileId::new(id), ciphertext))
    }

    fn wire_len(&self) -> usize {
        8 + u8::seq_len(self.ciphertext())
    }
}

/// Field-less enums: one byte per variant; any other byte is
/// [`CodecError::BadTag`].
macro_rules! wire_byte_enum {
    ($($ty:ident { $($variant:ident = $byte:literal),+ })+) => {$(
        impl Wire for $ty {
            const MIN_LEN: usize = 1;

            fn put(&self, buf: &mut BytesMut) {
                buf.put_u8(match self {
                    $($ty::$variant => $byte,)+
                });
            }

            fn get(buf: &mut BytesMut) -> Result<Self, CodecError> {
                match u8::get(buf)? {
                    $($byte => Ok($ty::$variant),)+
                    other => Err(CodecError::BadTag(other)),
                }
            }

            fn wire_len(&self) -> usize {
                1
            }
        }
    )+};
}

wire_byte_enum! {
    SearchMode { Rsse = 0, BasicFull = 1, BasicEntries = 2 }
    ErrorKind { BadFrame = 0, UnknownLabel = 1, Rejected = 2, Overloaded = 3, Internal = 4 }
}

/// The frame table: one `tag => Variant { fields }` row per message. A
/// frame is its tag byte, then the row's fields in the row's order. The
/// three codec methods are generated from the table, so they cannot
/// disagree; their match patterns name every field, so the compiler
/// rejects a row that drops a field or a table that drops a variant.
macro_rules! frames {
    ($($tag:tt => $variant:ident { $($field:ident),+ },)+) => {
        impl Message {
            /// Serializes the message into a framed byte buffer.
            pub fn encode(&self) -> BytesMut {
                let mut buf = BytesMut::with_capacity(self.wire_len());
                match self {
                    $(Message::$variant { $($field),+ } => {
                        buf.put_u8($tag);
                        $($field.put(&mut buf);)+
                    })+
                }
                buf
            }

            /// Deserializes a message, requiring the buffer to be fully consumed.
            ///
            /// # Errors
            ///
            /// Any [`CodecError`] on malformed input.
            pub fn decode(mut buf: BytesMut) -> Result<Self, CodecError> {
                // Struct-literal fields evaluate in source order, which
                // is the row's wire order.
                let msg = match u8::get(&mut buf)? {
                    $($tag => Message::$variant { $($field: Wire::get(&mut buf)?),+ },)+
                    other => return Err(CodecError::BadTag(other)),
                };
                match buf.remaining() {
                    0 => Ok(msg),
                    n => Err(CodecError::TrailingBytes(n)),
                }
            }

            /// Size of the encoded message in bytes, computed
            /// arithmetically — no allocation, so bandwidth sampling stays
            /// cheap. Pinned to `encode().len()` for every variant by the
            /// codec tests.
            pub fn wire_len(&self) -> usize {
                match self {
                    $(Message::$variant { $($field),+ } => 1 $(+ $field.wire_len())+,)+
                }
            }
        }
    };
}

frames! {
    1 => Outsource { rsse_lists, basic_lists, opse_domain, opse_range, files },
    2 => SearchRequest { label, list_key, top_k, mode },
    3 => RsseResponse { ranking, files },
    4 => BasicFullResponse { scores, files },
    5 => BasicEntriesResponse { scores },
    6 => FetchFiles { ids },
    7 => FilesResponse { files },
    8 => ConjunctiveRequest { trapdoors, top_k },
    9 => ConjunctiveResponse { ranking, files },
    10 => Update { rsse_lists, files },
    11 => UpdateAck { lists_touched, files_added },
    ERROR_FRAME_TAG => Error { kind, detail },
    13 => ShardQuery { label, list_key, top_k, shard_id },
    14 => ShardReply { shard_id, ranking, files },
    15 => BatchRequest { queries, shard_id },
    16 => BatchReply { shard_id, results },
    17 => FilterRequest { shard_id, known_epoch },
    18 => FilterReply { shard_id, epoch, labels },
    19 => ConjunctiveShardQuery { trapdoors, top_k, shard_id },
    20 => ConjunctiveShardReply { shard_id, ranking, files },
}

impl Message {
    /// Longest detail string [`Message::error`] will put in an error frame.
    pub const MAX_ERROR_DETAIL: usize = 256;

    /// Builds an [`Message::Error`] frame, truncating `detail` to
    /// [`Message::MAX_ERROR_DETAIL`] bytes (on a char boundary) so error
    /// responses stay small even when wrapping a verbose failure.
    pub fn error(kind: ErrorKind, detail: impl Into<String>) -> Self {
        let mut detail: String = detail.into();
        if detail.len() > Self::MAX_ERROR_DETAIL {
            let mut cut = Self::MAX_ERROR_DETAIL;
            while !detail.is_char_boundary(cut) {
                cut -= 1;
            }
            detail.truncate(cut);
        }
        Message::Error { kind, detail }
    }
}

/// Wire tag of [`Message::Error`] frames — exposed crate-internally so
/// the transport layer can classify reply bodies for traffic metering
/// (one byte peek) without a full decode.
pub(crate) const ERROR_FRAME_TAG: u8 = 12;

/// Bytes of the transport envelope prepended to every message body on a
/// byte stream: a big-endian `u32` length (covering the sequence id and
/// the body) followed by the big-endian `u64` pipelining sequence id.
pub const FRAME_HEADER_LEN: usize = 12;

/// Builds one length-delimited wire frame: `u32 len | u64 seq | body`,
/// where `len = 8 + body.len()`. This is the *only* place frame bytes are
/// assembled, so both transports put byte-identical frames on their wire
/// and the traffic meters count the very same lengths.
///
/// # Panics
///
/// If `body` exceeds [`MAX_FRAME_LEN`]. Callers check first:
/// [`serve_frame`](crate::server_loop::serve_frame) answers an over-cap
/// reply with an [`ErrorKind::Rejected`] frame, and the TCP client refuses
/// an over-cap request with [`CodecError::Oversize`].
pub fn frame_message(seq: u64, body: &[u8]) -> Vec<u8> {
    assert!(body.len() <= MAX_FRAME_LEN, "frame body over the wire cap");
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + body.len());
    out.extend_from_slice(&(body.len() as u32 + 8).to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(body);
    out
}

/// Reassembles length-delimited frames from an arbitrarily split byte
/// stream — the read side of [`frame_message`].
///
/// Feed whatever chunk the socket produced with [`Self::feed`], then
/// drain complete frames with [`Self::next_frame`]. The declared length
/// is validated as soon as the four length bytes are visible: a frame
/// announcing more than [`MAX_FRAME_LEN`] (or less than the sequence id
/// it must carry) is rejected *before* its payload is buffered, so a
/// hostile peer cannot make the assembler allocate the lie. After an
/// error the stream is unsynchronized and the caller must drop the
/// connection; the assembler keeps returning the same error.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` — compacted away once it grows past a
    /// threshold or the buffer fully drains, so a long-lived connection
    /// does not accrete its history.
    pos: usize,
}

/// Consumed-prefix size past which [`FrameAssembler`] compacts its buffer.
const ASSEMBLER_COMPACT_THRESHOLD: usize = 64 << 10;

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        FrameAssembler::default()
    }

    /// Appends raw stream bytes (any split, including single bytes).
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pops the next complete frame as `(seq, body)`, or `None` when the
    /// stream has not yet delivered one.
    ///
    /// # Errors
    ///
    /// [`CodecError::Oversize`] when a header declares a body over
    /// [`MAX_FRAME_LEN`]; [`CodecError::BadEnvelope`] when it declares a
    /// length too short to carry the sequence id. Both fire before any
    /// payload bytes are required (or kept).
    pub fn next_frame(&mut self) -> Result<Option<(u64, Vec<u8>)>, CodecError> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            self.compact();
            return Ok(None);
        }
        let len_bytes: [u8; 4] = self.buf[self.pos..self.pos + 4]
            .try_into()
            .expect("4 bytes");
        let len = u32::from_be_bytes(len_bytes);
        if (len as usize) < 8 {
            return Err(CodecError::BadEnvelope(len));
        }
        let body_len = len as usize - 8;
        if body_len > MAX_FRAME_LEN {
            return Err(CodecError::Oversize(u64::from(len)));
        }
        if avail < 4 + len as usize {
            self.compact();
            return Ok(None);
        }
        let seq_at = self.pos + 4;
        let seq = u64::from_be_bytes(self.buf[seq_at..seq_at + 8].try_into().expect("8 bytes"));
        let body = self.buf[seq_at + 8..seq_at + 8 + body_len].to_vec();
        self.pos += 4 + len as usize;
        self.compact();
        Ok(Some((seq, body)))
    }

    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > ASSEMBLER_COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Outsource {
                rsse_lists: vec![([1u8; 20], 2, vec![1, 2, 3, 4])],
                basic_lists: vec![([2u8; 20], 40, vec![9; 40])],
                opse_domain: 128,
                opse_range: 1 << 46,
                files: vec![EncryptedFile::new(FileId::new(7), vec![0xaa; 100])],
            },
            Message::SearchRequest {
                label: [3u8; 20],
                list_key: [4u8; 32],
                top_k: Some(10),
                mode: SearchMode::Rsse,
            },
            Message::SearchRequest {
                label: [3u8; 20],
                list_key: [4u8; 32],
                top_k: None,
                mode: SearchMode::BasicEntries,
            },
            Message::RsseResponse {
                ranking: vec![(1, 999), (2, 500)],
                files: vec![EncryptedFile::new(FileId::new(1), vec![1, 2])],
            },
            Message::BasicFullResponse {
                scores: vec![(1, vec![5; 24])],
                files: vec![EncryptedFile::new(FileId::new(1), vec![7; 30])],
            },
            Message::BasicEntriesResponse {
                scores: vec![(1, vec![5; 24]), (9, vec![6; 24])],
            },
            Message::FetchFiles { ids: vec![3, 1, 2] },
            Message::FilesResponse {
                files: vec![
                    EncryptedFile::new(FileId::new(3), vec![1]),
                    EncryptedFile::new(FileId::new(1), vec![]),
                ],
            },
            Message::ConjunctiveRequest {
                trapdoors: vec![([7u8; 20], [8u8; 32]), ([9u8; 20], [10u8; 32])],
                top_k: Some(4),
            },
            Message::ConjunctiveResponse {
                ranking: vec![(1, vec![100, 200]), (2, vec![50, 60])],
                files: vec![EncryptedFile::new(FileId::new(1), vec![0xde, 0xad])],
            },
            Message::Update {
                rsse_lists: vec![([5u8; 20], 40, [[1; 40], [2; 40]].concat())],
                files: vec![EncryptedFile::new(FileId::new(12), vec![0xbe; 48])],
            },
            Message::UpdateAck {
                lists_touched: 3,
                files_added: 1,
            },
            Message::ShardQuery {
                label: [11u8; 20],
                list_key: [12u8; 32],
                top_k: Some(6),
                shard_id: 3,
            },
            Message::ShardQuery {
                label: [11u8; 20],
                list_key: [12u8; 32],
                top_k: None,
                shard_id: 0,
            },
            Message::ShardReply {
                shard_id: 3,
                ranking: vec![(4, 777), (9, 300)],
                files: vec![EncryptedFile::new(FileId::new(4), vec![0xcc; 18])],
            },
            Message::ShardReply {
                shard_id: 1,
                ranking: vec![],
                files: vec![],
            },
            Message::BatchRequest {
                queries: vec![
                    ([13u8; 20], [14u8; 32], Some(5)),
                    ([15u8; 20], [16u8; 32], None),
                ],
                shard_id: None,
            },
            Message::BatchRequest {
                queries: vec![([17u8; 20], [18u8; 32], Some(1))],
                shard_id: Some(2),
            },
            Message::BatchRequest {
                queries: vec![],
                shard_id: None,
            },
            Message::BatchReply {
                shard_id: None,
                results: vec![
                    (
                        vec![(1, 900), (2, 400)],
                        vec![EncryptedFile::new(FileId::new(1), vec![0xab; 12])],
                    ),
                    (vec![], vec![]),
                ],
            },
            Message::BatchReply {
                shard_id: Some(2),
                results: vec![(
                    vec![(8, 123)],
                    vec![EncryptedFile::new(FileId::new(8), vec![])],
                )],
            },
            Message::BatchReply {
                shard_id: None,
                results: vec![],
            },
            Message::FilterRequest {
                shard_id: 4,
                known_epoch: Some(9),
            },
            Message::FilterRequest {
                shard_id: 0,
                known_epoch: None,
            },
            Message::FilterReply {
                shard_id: 4,
                epoch: 10,
                labels: Some(vec![[19u8; 20], [20u8; 20]]),
            },
            Message::FilterReply {
                shard_id: 4,
                epoch: 10,
                labels: Some(vec![]),
            },
            Message::FilterReply {
                shard_id: 2,
                epoch: 9,
                labels: None,
            },
            Message::ConjunctiveShardQuery {
                trapdoors: vec![([21u8; 20], [22u8; 32]), ([23u8; 20], [24u8; 32])],
                top_k: Some(5),
                shard_id: 3,
            },
            Message::ConjunctiveShardQuery {
                trapdoors: vec![([25u8; 20], [26u8; 32])],
                top_k: None,
                shard_id: 0,
            },
            Message::ConjunctiveShardReply {
                shard_id: 3,
                ranking: vec![(4, vec![700, 80]), (9, vec![300, 20])],
                files: vec![EncryptedFile::new(FileId::new(4), vec![0xcd; 18])],
            },
            Message::ConjunctiveShardReply {
                shard_id: 1,
                ranking: vec![],
                files: vec![],
            },
            Message::Error {
                kind: ErrorKind::Rejected,
                detail: "expected a request".to_string(),
            },
            Message::Error {
                kind: ErrorKind::Overloaded,
                detail: String::new(),
            },
            Message::Error {
                kind: ErrorKind::Internal,
                detail: "wörker pänic".to_string(),
            },
        ]
    }

    #[test]
    fn roundtrip_every_variant() {
        for msg in sample_messages() {
            let encoded = msg.encode();
            let decoded = Message::decode(encoded).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    /// Pins the exact bytes of every sample frame, not just the round
    /// trip: a field order changed the same way in `encode` and `decode`
    /// would still round-trip, but not match these. For each of
    /// `sample_messages()`, in order: its `wire_len` and the SHA-256 of
    /// its encoding.
    #[test]
    fn golden_frames_are_byte_identical() {
        use rsse_crypto::{Digest, Sha256};
        const LENS: [usize; 34] = [
            265, 59, 55, 67, 103, 89, 33, 42, 118, 99, 193, 17, 62, 58, 87, 21, 120, 71, 10, 102,
            62, 10, 14, 6, 62, 22, 14, 122, 66, 119, 21, 28, 10, 24,
        ];
        const DIGESTS: [&str; 34] = [
            "381b9ec29457c531d1e1f9b463f64dbae1567b464d1f0981ab2227fd9f800646",
            "bc3d12992af6004e07107d00940cc065342ff8fb2236eb665fdbbbae6659c715",
            "abfbff85d60f6eb4367087ac27d5241da9d8208c6de76c13f728f3e66b90c6e0",
            "2fd622d8bfb7d6554e7056f21e4ceef349bdde0aa9261e7029516d5b8c6cb8bf",
            "f87c95257f3c3c4519bf1f2ff48a01ae77ecb95fac69f8b188b10a82b0846e6f",
            "a5190f1222892c4f2a68587aac27e389382e94aa30ca45692028bc9b9021525e",
            "88577626e3346c96f8ce3c62b9a5a6dfec1085a1d8c8f0e4a4da37cf03cf75b2",
            "3111ca928c90347984709ed4c6905b90048e7b28fdb4fedfbee83e695f6a40a5",
            "3b14ddf4f38472ee55f8069756b27c5c413d30aa5cbdce80d11ef48a0a814480",
            "caf976e533bca1a3fa148da0e085f3543ca1610929bcde23a4a888a6ed1d7508",
            "01ded58c8d8aad4550bc550d4cde3800f936d1c220d873ef1d16d499b0ce7956",
            "c7341d9def09c4cff49cf6cd3f69aaff0f2fe10e37ec4ffaa379514d302d4be4",
            "9684995d076f61e29befbbd2122e5ce2fce21469229dd07a746ed502b94e5ed0",
            "8ac6854f46fc82beb40d478be9d391e793f7b953d8164f8bfbeace6d5f7c5757",
            "eaa66216b335035f7be768e83168629f0daf455e05e74df7fbcb1af7092aaca1",
            "e15020c4598f1af3f5efa14bc44f24fd92e7a3923676ff3f04a4a014f8efa85b",
            "6a86dd04c2efa4b32404f50c71cfd648726326e6b62f64dec897a4befd62e192",
            "ecef198d51c56a665d9079f8cad2e4190af77adea701496ded3f87694df12257",
            "af75bdc43486df4e0877c8eebe597ec1d1bd1d6d3838075190d1fd0070a4c098",
            "ccc2c707cdec4b0f1ee88586903587afc6f5968eaef7984edbd75cc77962c80e",
            "05c10c580756007c86ddcac3e00b77b2d2625122a6accae6c30c802e0eb72efd",
            "816f8bab3a2420f412421c2dbcdef0bfcac325b6525c2be1a9e5e9248dacf542",
            "39cf099b268b4effb05f0d3b46fc27a00c7e24fa758f4fce33c2ece66ee7d18f",
            "ac180bd5834e6585c27bbec36e0803a09dd6273b942b6c8b85648a7003faae61",
            "a1bf341195e5c9329b7a3e5e3cc73181831f67bb206a79345204b549d1ad56d1",
            "885d4f3c8859b4d0fe8cb073901c4622f9d907fbbe47b29572515dccb3d6a2fa",
            "f14f8c7dc9691b75632fded4e68327b4d7868245b88c6a016e5ae3466efa9d51",
            "7957f5304336cad5fd1701d1d71c910e523ed624a825f949e054ba56e7a71f31",
            "6ed8f58b76843a6cfb1f7d9052d6e4c08fbe1a3074f4f6a2ade081ed6e3af5d0",
            "da254d051a6aeceee31c123fd277c0ac43aadd92f201f03a99a54c987b232c5d",
            "0f8e46faf1ab6eaab4e66ef96fc68d286ca64dded46ae1f6c967b6e96eb867e3",
            "9761921c55ee42633a02c321538c69ef3ac36a65af575db2b77e8676b4e3db1f",
            "bdb5392f298494e1a0d45495258eae408ff898d9784824ff24f17efd14e9b80b",
            "3de4f3ab7fd5fdd93058bba6a141035f1f83fca820c308bb8f0c2383ebe5cd7a",
        ];
        let msgs = sample_messages();
        assert_eq!(msgs.len(), LENS.len());
        for ((msg, len), digest) in msgs.iter().zip(LENS).zip(DIGESTS) {
            let encoded = msg.encode();
            let hex: String = Sha256::digest(&encoded)
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!((encoded.len(), hex.as_str()), (len, digest), "{msg:?}");
            assert_eq!(msg.wire_len(), len, "{msg:?}");
        }
    }

    #[test]
    fn truncation_at_every_boundary_is_an_error_not_a_panic() {
        for msg in sample_messages() {
            let encoded = msg.encode();
            for cut in 0..encoded.len() {
                let mut truncated = encoded.clone();
                truncated.truncate(cut);
                assert!(
                    Message::decode(truncated).is_err(),
                    "cut at {cut} must fail for {msg:?}"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut encoded = Message::FetchFiles { ids: vec![1] }.encode();
        encoded.put_u8(0xff);
        assert_eq!(Message::decode(encoded), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn bad_tag_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(99);
        assert_eq!(Message::decode(buf), Err(CodecError::BadTag(99)));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(6); // FetchFiles
        buf.put_u64(u64::MAX); // absurd count
        assert!(matches!(Message::decode(buf), Err(CodecError::Oversize(_))));
    }

    #[test]
    fn empty_buffer_rejected() {
        assert_eq!(
            Message::decode(BytesMut::new()),
            Err(CodecError::UnexpectedEof)
        );
    }

    #[test]
    fn wire_len_matches_encoding() {
        for msg in sample_messages() {
            assert_eq!(
                msg.wire_len(),
                msg.encode().len(),
                "arithmetic wire_len diverges for {msg:?}"
            );
        }
    }

    #[test]
    fn error_frame_detail_is_bounded_on_a_char_boundary() {
        let msg = Message::error(ErrorKind::Internal, "ä".repeat(300));
        let Message::Error { kind, detail } = &msg else {
            panic!("wrong variant");
        };
        assert_eq!(*kind, ErrorKind::Internal);
        assert!(detail.len() <= Message::MAX_ERROR_DETAIL);
        assert!(detail.chars().all(|c| c == 'ä'));
        let decoded = Message::decode(msg.encode()).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn error_frame_with_invalid_utf8_detail_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(12);
        ErrorKind::BadFrame.put(&mut buf);
        vec![0xffu8, 0xfe].put(&mut buf);
        assert_eq!(Message::decode(buf), Err(CodecError::BadString));
    }

    #[test]
    fn unknown_error_kind_byte_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(12);
        buf.put_u8(9);
        b"x".to_vec().put(&mut buf);
        assert_eq!(Message::decode(buf), Err(CodecError::BadTag(9)));
    }

    #[test]
    fn shard_query_presence_byte_is_strict() {
        // Same canonicality rule as SearchRequest: the has-top-k byte must
        // be exactly 0 or 1 or the frame is rejected.
        let mut encoded = Message::ShardQuery {
            label: [1u8; 20],
            list_key: [2u8; 32],
            top_k: None,
            shard_id: 5,
        }
        .encode();
        encoded[1 + 20 + 32] = 2;
        assert_eq!(Message::decode(encoded), Err(CodecError::BadTag(2)));
    }

    #[test]
    fn batch_request_presence_bytes_are_strict() {
        // Both the per-query has-top-k byte and the trailing has-shard-id
        // byte must be exactly 0 or 1 (canonical codec).
        let msg = Message::BatchRequest {
            queries: vec![([1u8; 20], [2u8; 32], None)],
            shard_id: None,
        };
        let per_query_offset = 1 + 8 + 20 + 32;
        let mut encoded = msg.encode();
        encoded[per_query_offset] = 3;
        assert_eq!(Message::decode(encoded), Err(CodecError::BadTag(3)));
        let mut encoded = msg.encode();
        encoded[per_query_offset + 1] = 4;
        assert_eq!(Message::decode(encoded), Err(CodecError::BadTag(4)));
    }

    #[test]
    fn batch_reply_shard_presence_byte_is_strict() {
        let mut encoded = Message::BatchReply {
            shard_id: None,
            results: vec![],
        }
        .encode();
        encoded[1] = 2;
        assert_eq!(Message::decode(encoded), Err(CodecError::BadTag(2)));
    }

    #[test]
    fn hostile_batch_counts_are_rejected_not_allocated() {
        // A huge query count in a tiny frame must fail cleanly.
        let mut buf = BytesMut::new();
        buf.put_u8(15);
        buf.put_u64(u64::MAX);
        assert!(matches!(Message::decode(buf), Err(CodecError::Oversize(_))));
        // A large-but-legal count with no payload behind it must hit EOF.
        let mut buf = BytesMut::new();
        buf.put_u8(15);
        buf.put_u64(1 << 20);
        assert_eq!(Message::decode(buf), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn filter_frame_presence_bytes_are_strict() {
        // FilterRequest's has-epoch byte and FilterReply's has-labels byte
        // must be exactly 0 or 1 (canonical codec).
        let mut encoded = Message::FilterRequest {
            shard_id: 1,
            known_epoch: None,
        }
        .encode();
        encoded[1 + 4] = 2;
        assert_eq!(Message::decode(encoded), Err(CodecError::BadTag(2)));
        let mut encoded = Message::FilterReply {
            shard_id: 1,
            epoch: 7,
            labels: None,
        }
        .encode();
        encoded[1 + 4 + 8] = 5;
        assert_eq!(Message::decode(encoded), Err(CodecError::BadTag(5)));
    }

    #[test]
    fn hostile_filter_label_counts_are_rejected_not_allocated() {
        // A huge label count in a tiny FilterReply must fail cleanly.
        let mut buf = BytesMut::new();
        buf.put_u8(18);
        buf.put_u32(0); // shard_id
        buf.put_u64(1); // epoch
        buf.put_u8(1); // labels present
        buf.put_u64(u64::MAX); // absurd count
        assert!(matches!(Message::decode(buf), Err(CodecError::Oversize(_))));
        // A large-but-legal count with no labels behind it must hit EOF.
        let mut buf = BytesMut::new();
        buf.put_u8(18);
        buf.put_u32(0);
        buf.put_u64(1);
        buf.put_u8(1);
        buf.put_u64(1 << 20);
        assert_eq!(Message::decode(buf), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn conjunctive_shard_query_presence_byte_is_strict() {
        // The has-top-k byte sits after the trapdoor vector; it must be
        // exactly 0 or 1 (canonical codec).
        let mut encoded = Message::ConjunctiveShardQuery {
            trapdoors: vec![([1u8; 20], [2u8; 32])],
            top_k: None,
            shard_id: 5,
        }
        .encode();
        encoded[1 + 8 + 52] = 2;
        assert_eq!(Message::decode(encoded), Err(CodecError::BadTag(2)));
    }

    #[test]
    fn hostile_conjunctive_shard_counts_are_rejected_not_allocated() {
        // A huge trapdoor count in a tiny leg frame must fail cleanly.
        let mut buf = BytesMut::new();
        buf.put_u8(19);
        buf.put_u64(u64::MAX);
        assert!(matches!(Message::decode(buf), Err(CodecError::Oversize(_))));
        // A huge ranking count in a tiny reply must fail cleanly too.
        let mut buf = BytesMut::new();
        buf.put_u8(20);
        buf.put_u32(0); // shard_id
        buf.put_u64(u64::MAX);
        assert!(matches!(Message::decode(buf), Err(CodecError::Oversize(_))));
        // A large-but-legal count with no payload behind it must hit EOF.
        let mut buf = BytesMut::new();
        buf.put_u8(20);
        buf.put_u32(0);
        buf.put_u64(1 << 20);
        assert_eq!(Message::decode(buf), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn non_boolean_top_k_presence_byte_is_rejected() {
        // A has-top-k byte other than 0/1 must fail, so every decodable
        // frame re-encodes to exactly its input bytes (canonical codec).
        let mut encoded = Message::SearchRequest {
            label: [3u8; 20],
            list_key: [4u8; 32],
            top_k: None,
            mode: SearchMode::Rsse,
        }
        .encode();
        let has_k_offset = 1 + 20 + 32;
        encoded[has_k_offset] = 7;
        assert_eq!(Message::decode(encoded), Err(CodecError::BadTag(7)));
    }

    #[test]
    fn frame_roundtrips_through_the_assembler() {
        let mut stream = Vec::new();
        let msgs = sample_messages();
        for (i, msg) in msgs.iter().enumerate() {
            stream.extend_from_slice(&frame_message(i as u64, &msg.encode()));
        }
        let mut asm = FrameAssembler::new();
        asm.feed(&stream);
        for (i, msg) in msgs.iter().enumerate() {
            let (seq, body) = asm.next_frame().unwrap().expect("frame complete");
            assert_eq!(seq, i as u64);
            assert_eq!(body, msg.encode().to_vec());
        }
        assert_eq!(asm.next_frame().unwrap(), None);
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn assembler_reassembles_from_single_byte_feeds() {
        let body = Message::FetchFiles { ids: vec![7, 9] }.encode();
        let frame = frame_message(0xDEAD_BEEF, &body);
        let mut asm = FrameAssembler::new();
        for (i, b) in frame.iter().enumerate() {
            assert_eq!(asm.next_frame().unwrap(), None, "complete at byte {i}?");
            asm.feed(std::slice::from_ref(b));
        }
        let (seq, got) = asm.next_frame().unwrap().expect("complete");
        assert_eq!(seq, 0xDEAD_BEEF);
        assert_eq!(got, body.to_vec());
    }

    #[test]
    fn oversize_header_is_rejected_before_the_payload_arrives() {
        let mut asm = FrameAssembler::new();
        // Only the four length bytes: a declared body over the cap must
        // already fail, with nothing buffered beyond the header.
        asm.feed(&(MAX_FRAME_LEN as u32 + 8 + 1).to_be_bytes());
        assert!(matches!(asm.next_frame(), Err(CodecError::Oversize(_))));
        // The error is sticky: the stream cannot resynchronize.
        assert!(matches!(asm.next_frame(), Err(CodecError::Oversize(_))));
    }

    #[test]
    fn envelope_too_short_for_the_sequence_id_is_rejected() {
        for len in [0u32, 1, 7] {
            let mut asm = FrameAssembler::new();
            asm.feed(&len.to_be_bytes());
            assert_eq!(asm.next_frame().unwrap_err(), CodecError::BadEnvelope(len));
        }
        // len == 8 is the smallest legal frame: an empty body.
        let mut asm = FrameAssembler::new();
        asm.feed(&frame_message(3, &[]));
        assert_eq!(asm.next_frame().unwrap(), Some((3, Vec::new())));
    }

    #[test]
    fn assembler_compacts_its_consumed_prefix() {
        let body = vec![0xABu8; 32 << 10];
        let frame = frame_message(1, &body);
        let mut asm = FrameAssembler::new();
        for i in 0..4 {
            asm.feed(&frame);
            let (_, got) = asm.next_frame().unwrap().expect("complete");
            assert_eq!(got, body, "iteration {i}");
            assert_eq!(asm.buffered(), 0);
        }
        // Internal buffer must not have accreted all four frames.
        assert!(asm.buf.capacity() < 4 * frame.len());
    }
}
