//! The transport seam: one byte-level contract over two wires.
//!
//! [`Connection`] is the client's view of a pipelined request/reply
//! stream: `send` puts an encoded message on the wire under a fresh
//! per-connection sequence id, `recv_any` hands back the next reply that
//! completed — not necessarily the oldest, since a pool serves frames
//! concurrently. Two implementations exist:
//!
//! * [`ChannelTransport`] — the deterministic in-process harness: frames
//!   are submitted straight to a [`crate::server_loop::ServerClient`]
//!   pool, and each reply is pushed onto its connection's completion
//!   queue as its worker finishes.
//! * [`crate::tcp::TcpTransport`] — real length-delimited frames over a
//!   loopback/remote TCP socket, served by the non-blocking event loop
//!   in `crate::tcp`, which submits to the same kind of pool.
//!
//! Both refuse a request over [`MAX_FRAME_LEN`] before it takes a
//! sequence id, and both return replies in completion order.
//!
//! Both put the *same bytes* on their wire: message bodies come from the
//! one canonical [`Message::encode`](crate::codec::Message::encode), and
//! the envelope from the one [`crate::codec::frame_message`]. The
//! equivalence suite (`tests/transport_equivalence.rs`) replays a shared
//! request log through both and requires byte-identical reply frames,
//! rankings, and [`TrafficReport`]s.
//!
//! # Metering
//!
//! Every connection meters **framed** lengths — header plus body, each
//! frame exactly once, at this layer — into the transport's shared
//! [`FrameMeter`]. The simulated channel has no real header bytes and
//! TCP has no simulated ones, so counting anywhere else would make the
//! two reports drift; counting here makes them equal by construction.

use crate::codec::{CodecError, Message, ERROR_FRAME_TAG, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use crate::error::CloudError;
use crate::network::TrafficReport;
use crate::server_loop::ServerClient;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Shared framed-byte accounting for one transport: every connection
/// created by the transport feeds the same meter, and [`Self::report`]
/// folds the counters into the protocol-level [`TrafficReport`] shape.
#[derive(Debug, Default)]
pub struct FrameMeter {
    bytes_up: AtomicUsize,
    bytes_down: AtomicUsize,
    round_trips: AtomicU32,
    error_frames: AtomicU32,
}

impl FrameMeter {
    /// A fresh meter with every counter at zero.
    pub fn new() -> Self {
        FrameMeter::default()
    }

    /// One request frame with `body_len` body bytes went up.
    pub(crate) fn note_up(&self, body_len: usize) {
        self.bytes_up
            .fetch_add(FRAME_HEADER_LEN + body_len, Ordering::Relaxed);
    }

    /// One reply frame came down: its framed bytes, one round trip, and
    /// an error tick when the body is an `Error` frame.
    pub(crate) fn note_down(&self, body: &[u8]) {
        self.bytes_down
            .fetch_add(FRAME_HEADER_LEN + body.len(), Ordering::Relaxed);
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        if body.first() == Some(&ERROR_FRAME_TAG) {
            self.error_frames.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The accumulated traffic as a [`TrafficReport`]. Only the fields a
    /// byte transport can observe are filled; the protocol-level counters
    /// (shard legs, batches, pruning) belong to the layers above.
    pub fn report(&self) -> TrafficReport {
        TrafficReport {
            bytes_up: self.bytes_up.load(Ordering::Relaxed),
            bytes_down: self.bytes_down.load(Ordering::Relaxed),
            round_trips: self.round_trips.load(Ordering::Relaxed),
            error_frames: self.error_frames.load(Ordering::Relaxed),
            ..TrafficReport::default()
        }
    }
}

/// One pipelined client connection: many requests may be in flight; each
/// reply carries the sequence id its request was sent under.
pub trait Connection: Send {
    /// Puts `request` on the wire and returns the sequence id its reply
    /// will carry. Does not wait for the reply — pipeline by sending
    /// again before receiving.
    ///
    /// # Errors
    ///
    /// [`CloudError::Transport`] when the connection or server is gone.
    /// Overload is *not* an error here: a shed request still gets its
    /// reply frame (the fast `Overloaded` error frame), delivered through
    /// [`Connection::recv_any`] like any other.
    fn send(&mut self, request: Message) -> Result<u64, CloudError>;

    /// Waits up to `timeout` for the next completed reply, in completion
    /// order, returning `(seq, reply body)`. Error frames are returned as
    /// bodies, not lifted into `Err` — the transport moves bytes; the
    /// caller interprets them.
    ///
    /// # Errors
    ///
    /// [`CloudError::Timeout`] when nothing completed in time,
    /// [`CloudError::Transport`] when the connection or server is gone.
    fn recv_any(&mut self, timeout: Duration) -> Result<(u64, Vec<u8>), CloudError>;
}

/// A factory of [`Connection`]s sharing one [`FrameMeter`].
pub trait Transport {
    /// Opens a new pipelined connection.
    ///
    /// # Errors
    ///
    /// [`CloudError::Transport`] when the server is unreachable.
    fn connect(&self) -> Result<Box<dyn Connection>, CloudError>;

    /// The framed traffic of every connection so far.
    fn traffic(&self) -> TrafficReport;
}

/// The in-process transport: connections submit to a [`ServerClient`]
/// pool, the same worker pool the TCP event loop serves through.
/// Deterministic (no sockets, no kernel buffers), which is exactly why it
/// stays around as the test harness.
#[derive(Debug)]
pub struct ChannelTransport {
    client: ServerClient,
    meter: Arc<FrameMeter>,
}

impl ChannelTransport {
    /// Wraps a pool client endpoint.
    pub fn new(client: ServerClient) -> Self {
        ChannelTransport {
            client,
            meter: Arc::new(FrameMeter::new()),
        }
    }
}

impl Transport for ChannelTransport {
    fn connect(&self) -> Result<Box<dyn Connection>, CloudError> {
        let (done_tx, done_rx) = mpsc::channel();
        Ok(Box::new(ChannelConnection {
            client: self.client.clone(),
            meter: Arc::clone(&self.meter),
            next_seq: 0,
            in_flight: 0,
            done_tx,
            done_rx,
        }))
    }

    fn traffic(&self) -> TrafficReport {
        self.meter.report()
    }
}

/// One channel-backed connection. Each request's reply sink pushes
/// `(seq, body)` onto the connection's completion queue, so `recv_any`
/// returns the next *completed* reply, as a socket does. The queue is an
/// unbounded `std` channel because the vendored crossbeam channel is
/// bounded only; each entry answers a request this connection sent, so
/// a worker never blocks on it.
struct ChannelConnection {
    client: ServerClient,
    meter: Arc<FrameMeter>,
    next_seq: u64,
    /// Requests sent whose reply `recv_any` has not returned yet.
    in_flight: usize,
    done_tx: mpsc::Sender<(u64, Vec<u8>)>,
    done_rx: mpsc::Receiver<(u64, Vec<u8>)>,
}

impl Connection for ChannelConnection {
    /// # Errors
    ///
    /// As [`Connection::send`], plus [`CodecError::Oversize`] (as
    /// [`CloudError::Codec`]) for a request over [`MAX_FRAME_LEN`], which
    /// no frame can carry; nothing is sent, exactly as over TCP.
    fn send(&mut self, request: Message) -> Result<u64, CloudError> {
        let len = request.wire_len();
        if len > MAX_FRAME_LEN {
            return Err(CodecError::Oversize(len as u64).into());
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let done = self.done_tx.clone();
        let sink = Box::new(move |body| {
            // A connection dropped with replies owed discards them.
            let _ = done.send((seq, body));
        });
        match self.client.submit(request.encode().to_vec(), sink) {
            Ok(()) => {}
            Err(CloudError::Server { kind, detail }) => {
                // The pool shed at admission: deliver the same frame the
                // TCP event loop writes for a full backlog.
                let shed = Message::error(kind, detail).encode().to_vec();
                let _ = self.done_tx.send((seq, shed));
            }
            Err(e) => return Err(e),
        }
        self.meter.note_up(len);
        self.in_flight += 1;
        Ok(seq)
    }

    fn recv_any(&mut self, timeout: Duration) -> Result<(u64, Vec<u8>), CloudError> {
        if self.in_flight == 0 {
            return Err(CloudError::Transport {
                context: "recv_any with no request in flight",
            });
        }
        // A timeout consumes nothing: the reply stays collectable by the
        // next call, exactly like unread socket bytes on the TCP side.
        // The connection holds a sender itself, so the queue never
        // disconnects; a reply whose worker died never arrives.
        let (seq, body) = self
            .done_rx
            .recv_timeout(timeout)
            .map_err(|_| CloudError::Timeout { after: timeout })?;
        self.in_flight -= 1;
        self.meter.note_down(&body);
        Ok((seq, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{ErrorKind, SearchMode};
    use crate::entities::{CloudServer, DataOwner};
    use crate::server_loop::{PoolOptions, ServerHandle};
    use rsse_core::RsseParams;
    use rsse_ir::corpus::{CorpusParams, SyntheticCorpus};

    fn spawn() -> (DataOwner, ServerHandle) {
        let corpus = SyntheticCorpus::generate(&CorpusParams::small(41));
        let owner = DataOwner::new(b"transport seed", RsseParams::default());
        let server =
            CloudServer::from_outsource(owner.outsource(corpus.documents()).unwrap()).unwrap();
        let handle = ServerHandle::spawn_pool_shared(Arc::new(server), PoolOptions::new(2, 32));
        (owner, handle)
    }

    #[test]
    fn pipelined_requests_complete_with_matching_seqs() {
        let (owner, handle) = spawn();
        let transport = ChannelTransport::new(handle.client());
        let mut conn = transport.connect().unwrap();
        let user = owner.authorize_user();
        let req = user
            .search_request("network", Some(3), SearchMode::Rsse)
            .unwrap();
        let mut sent = Vec::new();
        for _ in 0..8 {
            sent.push(conn.send(req.clone()).unwrap());
        }
        let mut got = Vec::new();
        for _ in 0..8 {
            let (seq, body) = conn.recv_any(Duration::from_secs(5)).unwrap();
            assert!(matches!(
                Message::decode(bytes::BytesMut::from(&body[..])).unwrap(),
                Message::RsseResponse { .. }
            ));
            got.push(seq);
        }
        got.sort_unstable();
        assert_eq!(got, sent);
        let traffic = transport.traffic();
        assert_eq!(traffic.round_trips, 8);
        assert_eq!(traffic.error_frames, 0);
        assert_eq!(
            traffic.bytes_up,
            8 * (FRAME_HEADER_LEN + req.wire_len()),
            "framed request bytes counted exactly once per frame"
        );
        handle.shutdown();
    }

    #[test]
    fn sheds_surface_as_overloaded_reply_frames_not_errors() {
        // A zero-worker-progress pool: one worker, tiny backlog, and a
        // burst bigger than both. The overflow requests must still each
        // get a reply — the fast Overloaded frame — through recv_any.
        let corpus = SyntheticCorpus::generate(&CorpusParams::small(41));
        let owner = DataOwner::new(b"transport seed", RsseParams::default());
        let server =
            CloudServer::from_outsource(owner.outsource(corpus.documents()).unwrap()).unwrap();
        let handle = ServerHandle::spawn_pool_shared(
            Arc::new(server),
            PoolOptions::new(1, 1).with_io_delay(Duration::from_millis(20)),
        );
        let transport = ChannelTransport::new(handle.client());
        let mut conn = transport.connect().unwrap();
        let owner_user = owner.authorize_user();
        let req = owner_user
            .search_request("network", Some(1), SearchMode::Rsse)
            .unwrap();
        for _ in 0..16 {
            conn.send(req.clone()).unwrap();
        }
        let mut sheds = 0;
        for _ in 0..16 {
            let (_, body) = conn.recv_any(Duration::from_secs(10)).unwrap();
            if let Message::Error { kind, .. } =
                Message::decode(bytes::BytesMut::from(&body[..])).unwrap()
            {
                assert_eq!(kind, ErrorKind::Overloaded);
                sheds += 1;
            }
        }
        assert!(sheds > 0, "burst must exceed the 1-slot backlog");
        assert_eq!(transport.traffic().error_frames, sheds);
        handle.shutdown();
    }
}
