//! Real byte-stream serving: a non-blocking TCP event loop with
//! pipelining and backpressure.
//!
//! One **event-loop thread** owns the listening socket and every client
//! connection; the ranking work is done by a [`ServerHandle`] worker
//! pool, the one pool the channel wire serves through too. No
//! thread-per-connection anywhere: 512 idle connections cost 512 socket
//! fds and their buffers, not 512 stacks.
//!
//! # Event loop
//!
//! All sockets are non-blocking. Each sweep the loop: accepts every
//! waiting connection; drains worker completions into per-connection
//! write buffers (frames go out in *completion* order — that is the
//! pipelining); flushes write buffers until the kernel pushes back;
//! reads every readable connection, reassembling frames with
//! [`FrameAssembler`] from whatever byte splits the stream produced, and
//! submits each complete frame to the pool with a reply sink that routes
//! the reply back to its connection. A sweep that moves no bytes parks
//! on the completion channel for a fraction of a millisecond — the only
//! blocking point — so a busy server on a single core yields the core to
//! its workers. Idle is not free: the loop still wakes after every park
//! and makes one non-blocking read per open connection. On a shared
//! 2-vCPU host an idle 2-worker server used 3–3.6% of a core, and 31%
//! with 512 idle connections open. This is level-triggered
//! readiness (`WouldBlock` = not ready) in safe std; the repo forbids
//! `unsafe`, which rules out `poll(2)` FFI, and the sweep is
//! behaviourally equivalent for the connection counts we serve.
//!
//! # Backpressure, composed
//!
//! Two independent pressure valves, one per resource:
//!
//! * **Worker overload** — admission is the pool's own bounded backlog.
//!   A full queue answers *immediately* with the same byte-identical
//!   `Overloaded` error frame the in-process path sheds with, so clients
//!   see one overload protocol on both transports.
//! * **Slow reader** — a connection whose un-flushed write buffer
//!   exceeds its budget stops being *read* until it drains. Its own
//!   pipeline stalls (and TCP flow control propagates the stall to the
//!   client's socket); every other connection keeps its latency. Replies
//!   already owed keep flowing — the budget bounds memory, it never
//!   drops frames.
//!
//! A frame that fails reassembly (hostile length, garbage bytes) closes
//! the connection: a byte stream that lost framing sync cannot be
//! trusted to carry another request.
//!
//! # Shutdown
//!
//! [`TcpServer::shutdown`] stops reading, drains the completion channel,
//! runs [`ServerHandle::shutdown`] (every admitted request is still
//! served, the same contract as the channel wire), then drains the
//! replies, flushes once and closes every connection.

use crate::codec::{frame_message, CodecError, ErrorKind, FrameAssembler, Message, MAX_FRAME_LEN};
use crate::entities::CloudServer;
use crate::error::CloudError;
use crate::network::TrafficReport;
use crate::server_loop::{PoolOptions, ServerClient, ServerHandle, OVERLOAD_DETAIL};
use crate::transport::{Connection, FrameMeter, Transport};
use crossbeam::channel::{bounded, Receiver, Sender};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Socket read chunk size (event loop and client side alike).
const READ_CHUNK: usize = 64 << 10;
/// Reads one connection may take per sweep before yielding to the next —
/// fairness against a firehose peer.
const READS_PER_SWEEP: usize = 4;
/// How long an idle sweep parks on the completion channel.
const IDLE_PARK: Duration = Duration::from_micros(500);
/// Consumed write-buffer prefix past which the buffer is compacted.
const WRITE_COMPACT_THRESHOLD: usize = 64 << 10;

/// Configuration of a [`TcpServer`].
#[derive(Debug, Clone)]
pub struct TcpServerOptions {
    /// Shape and fault injection of the worker pool the event loop
    /// submits to — a [`ServerHandle`] like any other.
    pub pool: PoolOptions,
    /// Per-connection write-buffer budget in bytes: above it the
    /// connection stops being read until the peer drains replies.
    pub write_budget: usize,
}

impl TcpServerOptions {
    /// `workers` threads over a `backlog`-bounded request queue, with a
    /// 256 KiB per-connection write budget.
    pub fn new(workers: usize, backlog: usize) -> Self {
        TcpServerOptions {
            pool: PoolOptions::new(workers, backlog),
            write_budget: 256 << 10,
        }
    }

    /// Replaces the whole worker-pool configuration.
    #[must_use]
    pub fn with_pool(mut self, pool: PoolOptions) -> Self {
        self.pool = pool;
        self
    }

    /// Sets the per-connection write-buffer budget.
    #[must_use]
    pub fn with_write_budget(mut self, budget: usize) -> Self {
        self.write_budget = budget.max(1);
        self
    }
}

/// Observable counters of a running [`TcpServer`] (monotone, lock-free).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpServerStats {
    /// Connections accepted since spawn.
    pub accepted: u64,
    /// Connections closed (peer EOF, write failure, or garbled stream).
    pub closed: u64,
    /// Connections closed because frame reassembly failed — hostile
    /// length prefix or lost sync.
    pub garbled: u64,
    /// Requests answered with the fast `Overloaded` frame because the
    /// worker backlog was full at arrival.
    pub overloaded: u64,
    /// Times a connection crossed its write budget and was paused — the
    /// slow-reader backpressure valve engaging.
    pub backpressure_stalls: u64,
}

#[derive(Debug, Default)]
struct SharedStats {
    accepted: AtomicU64,
    closed: AtomicU64,
    garbled: AtomicU64,
    overloaded: AtomicU64,
    backpressure_stalls: AtomicU64,
}

impl SharedStats {
    fn snapshot(&self) -> TcpServerStats {
        TcpServerStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            garbled: self.garbled.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            backpressure_stalls: self.backpressure_stalls.load(Ordering::Relaxed),
        }
    }
}

/// One reply routed back to the connection its request came from (the
/// `gen` guards against a connection slot being reused while the request
/// is in flight).
struct Completion {
    conn: usize,
    gen: u64,
    seq: u64,
    body: Vec<u8>,
}

/// Per-connection state owned by the event loop.
struct Conn {
    stream: TcpStream,
    gen: u64,
    asm: FrameAssembler,
    /// Reply bytes owed to the peer; `write_pos` marks the flushed
    /// prefix.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Whether the connection is currently paused by the write budget
    /// (tracked to count each stall once).
    paused: bool,
}

impl Conn {
    fn pending_write(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }
}

/// A ranked-search server behind a real TCP listener. Spawn with
/// [`TcpServer::spawn`], connect with [`TcpTransport`] (or any client
/// that speaks `u32 len | u64 seq | body` frames), shut down with
/// [`TcpServer::shutdown`].
#[derive(Debug)]
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<SharedStats>,
    event_loop: Option<JoinHandle<u64>>,
    server: Arc<CloudServer>,
}

impl TcpServer {
    /// Binds `127.0.0.1:0`, spawns a worker pool over the already-shared
    /// server ([`ServerHandle::spawn_pool_shared`], so replica pools over
    /// one `Arc<CloudServer>` compose exactly as on the channel wire) and
    /// the event loop that submits to it.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] binding the listener or reading its address.
    pub fn spawn(server: Arc<CloudServer>, options: TcpServerOptions) -> io::Result<TcpServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(SharedStats::default());
        // After a full drain at most backlog + workers admitted requests
        // still owe a reply, so once the loop drains before shutdown no
        // worker can block on this channel while the pool is joined.
        let (done_tx, done_rx) =
            bounded::<Completion>(options.pool.backlog.max(1) + options.pool.workers.max(1) + 1);
        let pool = ServerHandle::spawn_pool_shared(Arc::clone(&server), options.pool);
        let loop_stop = Arc::clone(&stop);
        let loop_stats = Arc::clone(&stats);
        let write_budget = options.write_budget.max(1);
        let event_loop = std::thread::spawn(move || {
            EventLoop {
                listener,
                conns: Vec::new(),
                free: Vec::new(),
                slot_gens: Vec::new(),
                client: pool.client(),
                done_tx: Arc::new(done_tx),
                done_rx,
                stop: loop_stop,
                stats: loop_stats,
                write_budget,
                scratch: vec![0u8; READ_CHUNK],
                overload_body: Message::error(ErrorKind::Overloaded, OVERLOAD_DETAIL)
                    .encode()
                    .to_vec(),
            }
            .run(pool)
        });
        Ok(TcpServer {
            addr,
            stop,
            stats,
            event_loop: Some(event_loop),
            server,
        })
    }

    /// The bound loopback address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared server behind the listener.
    pub fn server(&self) -> Arc<CloudServer> {
        Arc::clone(&self.server)
    }

    /// Current event-loop counters.
    pub fn stats(&self) -> TcpServerStats {
        self.stats.snapshot()
    }

    /// Stops reading, shuts the pool down with
    /// [`ServerHandle::shutdown`] (every admitted request is still
    /// served), flushes the owed replies best-effort, joins the loop, and
    /// returns the pool's served count.
    pub fn shutdown(mut self) -> u64 {
        self.stop.store(true, Ordering::Release);
        self.event_loop
            .take()
            .expect("event loop joined exactly once")
            .join()
            .expect("event loop panicked")
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.event_loop.take() {
            // The loop notices the flag within one idle park; joining
            // here keeps drop deterministic for tests.
            let _ = handle.join();
        }
    }
}

struct EventLoop {
    listener: TcpListener,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Per-slot generation counters, bumped on close, so a completion
    /// for a dead connection can never reach the slot's new tenant.
    slot_gens: Vec<u64>,
    client: ServerClient,
    /// Shared by every reply sink rather than cloned per request: a
    /// clone of the channel's sender takes the channel lock, and so would
    /// dropping it on the worker right after the send that wakes the loop.
    done_tx: Arc<Sender<Completion>>,
    done_rx: Receiver<Completion>,
    stop: Arc<AtomicBool>,
    stats: Arc<SharedStats>,
    write_budget: usize,
    scratch: Vec<u8>,
    overload_body: Vec<u8>,
}

impl EventLoop {
    fn run(mut self, pool: ServerHandle) -> u64 {
        while !self.stop.load(Ordering::Acquire) {
            let mut progress = false;
            progress |= self.accept_sweep();
            progress |= self.drain_completions();
            progress |= self.write_sweep();
            progress |= self.read_sweep();
            if !progress {
                // Idle: park on the completion channel so a finishing
                // worker wakes the loop instantly while a quiet server
                // burns no CPU. The loop holds a sender, so the channel
                // never disconnects.
                if let Ok(completion) = self.done_rx.recv_timeout(IDLE_PARK) {
                    self.queue_reply(completion);
                }
            }
        }
        // No frame is read any more; the pool serves what it admitted,
        // and those replies get one last flush before every socket closes.
        self.drain_completions();
        let served = pool.shutdown();
        self.drain_completions();
        self.write_sweep();
        for slot in 0..self.conns.len() {
            self.close(slot);
        }
        served
    }

    /// Accepts every connection waiting on the listener.
    fn accept_sweep(&mut self) -> bool {
        let mut progress = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    progress = true;
                    let slot = match self.free.pop() {
                        Some(slot) => slot,
                        None => {
                            self.conns.push(None);
                            self.slot_gens.push(0);
                            self.conns.len() - 1
                        }
                    };
                    self.conns[slot] = Some(Conn {
                        stream,
                        gen: self.slot_gens[slot],
                        asm: FrameAssembler::new(),
                        write_buf: Vec::new(),
                        write_pos: 0,
                        paused: false,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        progress
    }

    /// Moves every finished request's reply into its connection's write
    /// buffer.
    fn drain_completions(&mut self) -> bool {
        let mut progress = false;
        while let Ok(completion) = self.done_rx.recv_timeout(Duration::ZERO) {
            self.queue_reply(completion);
            progress = true;
        }
        progress
    }

    fn queue_reply(&mut self, completion: Completion) {
        let Completion {
            conn,
            gen,
            seq,
            body,
        } = completion;
        if let Some(Some(c)) = self.conns.get_mut(conn) {
            if c.gen == gen {
                c.write_buf.extend_from_slice(&frame_message(seq, &body));
            }
        }
    }

    /// Flushes every connection's owed bytes until the kernel pushes
    /// back.
    fn write_sweep(&mut self) -> bool {
        let mut progress = false;
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            let mut broken = false;
            while conn.write_pos < conn.write_buf.len() {
                match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                    Ok(0) => {
                        broken = true;
                        break;
                    }
                    Ok(n) => {
                        conn.write_pos += n;
                        progress = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
            if broken {
                self.close(slot);
                continue;
            }
            let conn = self.conns[slot].as_mut().expect("conn checked above");
            if conn.write_pos == conn.write_buf.len() {
                conn.write_buf.clear();
                conn.write_pos = 0;
            } else if conn.write_pos > WRITE_COMPACT_THRESHOLD {
                conn.write_buf.drain(..conn.write_pos);
                conn.write_pos = 0;
            }
        }
        progress
    }

    /// Reads every connection under its write budget, reassembles frames,
    /// and submits them to the pool (or sheds with the overload frame).
    fn read_sweep(&mut self) -> bool {
        let mut progress = false;
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            // Backpressure: a peer that is not draining replies stops
            // being read. TCP flow control then stalls the peer's sends,
            // bounding both sides without dropping a frame.
            if conn.pending_write() > self.write_budget {
                if !conn.paused {
                    conn.paused = true;
                    self.stats
                        .backpressure_stalls
                        .fetch_add(1, Ordering::Relaxed);
                }
                continue;
            }
            conn.paused = false;
            let mut eof = false;
            let mut io_dead = false;
            for _ in 0..READS_PER_SWEEP {
                match conn.stream.read(&mut self.scratch) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.asm.feed(&self.scratch[..n]);
                        progress = true;
                        if n < self.scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        io_dead = true;
                        break;
                    }
                }
            }
            let mut garbled = false;
            loop {
                let conn = self.conns[slot].as_mut().expect("conn present");
                match conn.asm.next_frame() {
                    Ok(Some((seq, frame))) => {
                        let gen = conn.gen;
                        self.submit(slot, gen, seq, frame);
                    }
                    Ok(None) => break,
                    Err(_) => {
                        garbled = true;
                        break;
                    }
                }
            }
            if garbled {
                self.stats.garbled.fetch_add(1, Ordering::Relaxed);
                self.close(slot);
            } else if eof || io_dead {
                self.close(slot);
            }
        }
        progress
    }

    /// Submits one frame to the pool, its reply routed back to this
    /// connection; a full backlog answers immediately with the
    /// byte-identical overload frame the channel wire sheds with.
    fn submit(&mut self, slot: usize, gen: u64, seq: u64, frame: Vec<u8>) {
        let done = Arc::clone(&self.done_tx);
        let sink = Box::new(move |body| {
            let _ = done.send(Completion {
                conn: slot,
                gen,
                seq,
                body,
            });
        });
        match self.client.submit(frame, sink) {
            Ok(()) => {}
            Err(CloudError::Server { .. }) => {
                self.stats.overloaded.fetch_add(1, Ordering::Relaxed);
                let reply = frame_message(seq, &self.overload_body);
                if let Some(Some(conn)) = self.conns.get_mut(slot) {
                    conn.write_buf.extend_from_slice(&reply);
                }
            }
            Err(_) => {
                // Every worker died: nothing can be served any more.
                self.stop.store(true, Ordering::Release);
            }
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            // Counted before the shutdown: a peer that reads EOF then
            // reads the count with its own close in it.
            self.stats.closed.fetch_add(1, Ordering::Relaxed);
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            self.slot_gens[slot] += 1;
            self.free.push(slot);
        }
    }
}

/// Client-side factory: opens pipelined [`TcpConnection`]s to one
/// server address, all metering into one shared [`FrameMeter`].
#[derive(Debug)]
pub struct TcpTransport {
    addr: SocketAddr,
    meter: Arc<FrameMeter>,
}

impl TcpTransport {
    /// A transport dialing `addr` (usually [`TcpServer::addr`]).
    pub fn new(addr: SocketAddr) -> Self {
        TcpTransport {
            addr,
            meter: Arc::new(FrameMeter::new()),
        }
    }

    /// [`Transport::connect`] returning the concrete connection type, for
    /// callers that need [`TcpConnection::recv_seq`].
    ///
    /// # Errors
    ///
    /// As [`Transport::connect`].
    pub fn dial(&self) -> Result<TcpConnection, CloudError> {
        TcpConnection::connect(self.addr, Arc::clone(&self.meter))
    }
}

impl Transport for TcpTransport {
    fn connect(&self) -> Result<Box<dyn Connection>, CloudError> {
        let conn = TcpConnection::connect(self.addr, Arc::clone(&self.meter))?;
        Ok(Box::new(conn))
    }

    fn traffic(&self) -> TrafficReport {
        self.meter.report()
    }
}

/// One pipelined client connection over a blocking socket: `send` writes
/// a frame and returns; replies are reassembled lazily by `recv_any` in
/// whatever order the server completed them.
#[derive(Debug)]
pub struct TcpConnection {
    stream: TcpStream,
    meter: Arc<FrameMeter>,
    next_seq: u64,
    asm: FrameAssembler,
    ready: VecDeque<(u64, Vec<u8>)>,
    scratch: Vec<u8>,
}

impl TcpConnection {
    fn connect(addr: SocketAddr, meter: Arc<FrameMeter>) -> Result<Self, CloudError> {
        let stream = TcpStream::connect(addr).map_err(|_| CloudError::Transport {
            context: "tcp connect failed",
        })?;
        stream
            .set_nodelay(true)
            .map_err(|_| CloudError::Transport {
                context: "tcp socket configuration failed",
            })?;
        Ok(TcpConnection {
            stream,
            meter,
            next_seq: 0,
            asm: FrameAssembler::new(),
            ready: VecDeque::new(),
            scratch: vec![0u8; READ_CHUNK],
        })
    }

    /// Waits for the reply to one specific sequence id, buffering any
    /// other completions that arrive first (they stay collectable by
    /// later calls) — the out-of-order matching hook tests pin down.
    ///
    /// # Errors
    ///
    /// As [`Connection::recv_any`].
    pub fn recv_seq(&mut self, want: u64, timeout: Duration) -> Result<Vec<u8>, CloudError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(at) = self.ready.iter().position(|(seq, _)| *seq == want) {
                let (_, body) = self.ready.remove(at).expect("position just found");
                self.meter.note_down(&body);
                return Ok(body);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(CloudError::Timeout { after: timeout });
            }
            self.fill_ready(remaining, timeout)?;
        }
    }

    /// Reads the socket until at least one frame lands in `ready`.
    fn fill_ready(&mut self, remaining: Duration, reported: Duration) -> Result<(), CloudError> {
        // Drain anything already buffered first.
        let mut got = false;
        while let Some((seq, body)) = self.asm.next_frame()? {
            self.ready.push_back((seq, body));
            got = true;
        }
        if got {
            return Ok(());
        }
        self.stream
            .set_read_timeout(Some(remaining))
            .map_err(|_| CloudError::Transport {
                context: "tcp socket configuration failed",
            })?;
        match self.stream.read(&mut self.scratch) {
            Ok(0) => Err(CloudError::Transport {
                context: "server closed the connection",
            }),
            Ok(n) => {
                self.asm.feed(&self.scratch[..n]);
                while let Some((seq, body)) = self.asm.next_frame()? {
                    self.ready.push_back((seq, body));
                }
                Ok(())
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Err(CloudError::Timeout { after: reported })
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(()),
            Err(_) => Err(CloudError::Transport {
                context: "tcp read failed",
            }),
        }
    }
}

impl Connection for TcpConnection {
    /// # Errors
    ///
    /// As [`Connection::send`], plus [`CodecError::Oversize`] (as
    /// [`CloudError::Codec`]) for a request over [`MAX_FRAME_LEN`], which
    /// no frame can carry; nothing is sent.
    fn send(&mut self, request: Message) -> Result<u64, CloudError> {
        let len = request.wire_len();
        if len > MAX_FRAME_LEN {
            return Err(CodecError::Oversize(len as u64).into());
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let body = request.encode();
        let frame = frame_message(seq, &body);
        self.stream
            .write_all(&frame)
            .map_err(|_| CloudError::Transport {
                context: "tcp write failed",
            })?;
        self.meter.note_up(body.len());
        Ok(seq)
    }

    fn recv_any(&mut self, timeout: Duration) -> Result<(u64, Vec<u8>), CloudError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some((seq, body)) = self.ready.pop_front() {
                self.meter.note_down(&body);
                return Ok((seq, body));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(CloudError::Timeout { after: timeout });
            }
            self.fill_ready(remaining, timeout)?;
        }
    }
}
