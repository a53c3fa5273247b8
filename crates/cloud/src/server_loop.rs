//! The server's one worker pool, fed by every wire.
//!
//! [`Deployment`](crate::entities::Deployment) calls the server in-process;
//! this module runs the [`CloudServer`] behind a bounded crossbeam queue so
//! many clients can talk to it concurrently through real encoded frames —
//! the closest this simulation gets to a deployed service, and the harness
//! for the multi-user and throughput experiments.
//!
//! [`ServerHandle::spawn_pool_shared`] starts **N worker threads** pulling
//! from one shared bounded MPMC request queue. Every worker serves from
//! the same `Arc<CloudServer>`: the server's mutable state (score-dynamics
//! appends, file store, caches) sits behind `parking_lot::RwLock`s, so
//! concurrent searches take read locks and never serialize against each
//! other.
//!
//! Each queued request carries a **reply sink**, the one thing that
//! differs between its callers: [`ServerClient::call_async`] hands the
//! reply to a one-shot rendezvous, a channel
//! [`Connection`](crate::transport::Connection) pushes it onto its
//! completion queue, and the TCP event loop (`crate::tcp`) routes it back
//! to the socket it came from. All three admit through one door,
//! `ServerClient::submit`, so both wires share one backlog, one shed
//! frame, one served count and one shutdown contract.
//!
//! # Failure semantics
//!
//! Failure is part of the protocol, not a side channel:
//!
//! * every request is answered with an encoded frame — a response on
//!   success, a [`Message::Error`] frame (typed [`ErrorKind`] + detail) on
//!   failure — so error bytes are countable on the wire like any response;
//! * a panic inside the serving path is contained per request
//!   ([`std::panic::catch_unwind`]): the client gets an
//!   [`ErrorKind::Internal`] frame, the worker keeps serving, and the
//!   audit log counts the panic ([`ServingReport::panics`]);
//! * clients shed instead of blocking: admission uses `try_send` against
//!   the bounded backlog and turns a full queue into a fast
//!   [`ErrorKind::Overloaded`] error; one retry loop with bounded backoff
//!   sits on top of it for [`ServerClient::call_with_retry`] and the shard
//!   router's legs alike;
//! * deadlines are per call: [`ServerClient::call_with_deadline`] and
//!   [`PendingReply::wait`] return [`CloudError::Timeout`] instead of
//!   hanging on a wedged worker.
//!
//! [`ServingReport::panics`]: crate::audit::ServingReport

use crate::codec::{ErrorKind, Message, MAX_FRAME_LEN};
use crate::entities::CloudServer;
use crate::error::CloudError;
use bytes::BytesMut;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Where a worker delivers one request's encoded reply. A sink dropped
/// unrun (its worker died) delivers nothing.
pub(crate) type ReplySink = Box<dyn FnOnce(Vec<u8>) + Send>;

/// A request frame paired with its reply sink, or the shutdown sentinel.
/// Clients hold cloned senders, so the queue never disconnects on its
/// own — the sentinels are what actually stop the workers (one sentinel
/// retires exactly one worker).
enum Envelope {
    Request { frame: Vec<u8>, reply: ReplySink },
    Shutdown,
}

/// A fault injected by [`PoolOptions::with_fault`], for proving the failure
/// semantics under test.
#[derive(Debug, Clone, Copy)]
pub enum Fault {
    /// Panic inside the serving path; the pool must contain it and answer
    /// with an [`ErrorKind::Internal`] frame.
    Panic(&'static str),
    /// Wedge the worker for the given duration (a stuck backend call);
    /// client deadlines must fire instead of hanging.
    Stall(Duration),
    /// Kill the worker thread outright — an *uncontained* death, for
    /// proving that shutdown and drop survive lost workers.
    KillWorker,
}

/// Fault-injection hook: inspects each decoded request and may return a
/// [`Fault`] to apply before it is served.
pub type FaultHook = Arc<dyn Fn(&Message) -> Option<Fault> + Send + Sync>;

/// Panic payload used by [`Fault::KillWorker`] so the containment layer can
/// tell an injected worker death apart from an ordinary serving panic.
struct WorkerDeath;

/// Tuning knobs for [`ServerHandle::spawn_pool_shared`].
#[derive(Clone)]
pub struct PoolOptions {
    /// Number of worker threads (clamped to at least 1).
    pub workers: usize,
    /// Bound of the shared request queue (clamped to at least 1).
    pub backlog: usize,
    /// Optional per-request stall simulating backend I/O (e.g. fetching
    /// file blocks from object storage). The throughput harness uses this
    /// to model the I/O-bound regime, where a pool overlaps stalls that a
    /// single serial loop must eat back to back.
    pub io_delay: Option<Duration>,
    /// Fault-injection hook, run against each decoded request.
    pub fault: Option<FaultHook>,
}

impl core::fmt::Debug for PoolOptions {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PoolOptions")
            .field("workers", &self.workers)
            .field("backlog", &self.backlog)
            .field("io_delay", &self.io_delay)
            .field("fault", &self.fault.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

impl PoolOptions {
    /// `workers` threads over a `backlog`-bounded queue, no simulated I/O,
    /// no faults.
    pub fn new(workers: usize, backlog: usize) -> Self {
        PoolOptions {
            workers,
            backlog,
            io_delay: None,
            fault: None,
        }
    }

    /// Adds a simulated per-request I/O stall.
    #[must_use]
    pub fn with_io_delay(mut self, delay: Duration) -> Self {
        self.io_delay = Some(delay);
        self
    }

    /// Installs a fault-injection hook (see [`Fault`]).
    #[must_use]
    pub fn with_fault(
        mut self,
        hook: impl Fn(&Message) -> Option<Fault> + Send + Sync + 'static,
    ) -> Self {
        self.fault = Some(Arc::new(hook));
        self
    }
}

/// Detail string of the `Overloaded` frame a full backlog sheds with.
/// [`ServerClient::submit`] sheds with it and every wire turns that into
/// the same frame, so the shed reply is byte-identical no matter which
/// transport carried the request.
pub(crate) const OVERLOAD_DETAIL: &str = "request backlog is full";

/// Serves one encoded request frame to one encoded response frame — the
/// single serving path shared by the pool workers and the in-process
/// [`Deployment`](crate::entities::Deployment) rounds.
///
/// Never returns an out-of-band error: decode failures become
/// [`ErrorKind::BadFrame`] frames, handler failures map through
/// [`CloudError::wire_kind`], a reply over [`MAX_FRAME_LEN`] becomes an
/// [`ErrorKind::Rejected`] frame, and a panic anywhere in the handler is
/// caught and answered with an [`ErrorKind::Internal`] frame (counted in
/// [`ServingReport::panics`](crate::audit::ServingReport::panics)).
///
/// # Panics
///
/// Re-raises only the [`Fault::KillWorker`] injection payload, which
/// simulates an uncontained worker death under test.
pub fn serve_frame(server: &CloudServer, frame: &[u8], fault: Option<&FaultHook>) -> Vec<u8> {
    let msg = match Message::decode(BytesMut::from(frame)) {
        Ok(msg) => msg,
        Err(e) => {
            server.note_bad_frame();
            return Message::error(ErrorKind::BadFrame, e.to_string())
                .encode()
                .to_vec();
        }
    };
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if let Some(hook) = fault {
            match hook(&msg) {
                Some(Fault::Panic(detail)) => panic!("injected fault: {detail}"),
                Some(Fault::Stall(wedge)) => std::thread::sleep(wedge),
                Some(Fault::KillWorker) => std::panic::panic_any(WorkerDeath),
                None => {}
            }
        }
        server.handle(msg)
    }));
    let mut response = match outcome {
        Ok(Ok(resp)) => resp,
        Ok(Err(e)) => Message::error(e.wire_kind(), e.to_string()),
        Err(payload) if payload.is::<WorkerDeath>() => std::panic::resume_unwind(payload),
        Err(_) => {
            server.note_panic();
            Message::error(
                ErrorKind::Internal,
                "worker panicked while serving the request",
            )
        }
    };
    let len = response.wire_len();
    if len > MAX_FRAME_LEN {
        // No byte stream can frame this reply, so no transport serves it.
        response = Message::error(
            ErrorKind::Rejected,
            format!("reply of {len} bytes exceeds the {MAX_FRAME_LEN}-byte frame cap"),
        );
    }
    response.encode().to_vec()
}

/// Handle to a running server worker pool.
///
/// Dropping the handle shuts the pool down ([`ServerHandle::shutdown`]
/// does so explicitly, joins every worker, and returns the total number of
/// requests served).
///
/// # Example
///
/// ```
/// use rsse_cloud::entities::{CloudServer, DataOwner};
/// use rsse_cloud::server_loop::{PoolOptions, ServerHandle};
/// use rsse_cloud::{Message, SearchMode};
/// use rsse_core::RsseParams;
/// use rsse_ir::{Document, FileId};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let owner = DataOwner::new(b"seed", RsseParams::default());
/// let docs = vec![Document::new(FileId::new(1), "network notes")];
/// let server = CloudServer::from_outsource(owner.outsource(&docs)?)?;
/// let handle = ServerHandle::spawn_pool_shared(Arc::new(server), PoolOptions::new(4, 8));
///
/// let client = handle.client();
/// let user = owner.authorize_user();
/// let request = user.search_request("network", Some(1), SearchMode::Rsse)?;
/// let response = client.call(request)?;
/// assert!(matches!(response, Message::RsseResponse { .. }));
///
/// handle.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ServerHandle {
    /// `Some` until `Drop` takes it to release the pool's own sender.
    requests: Option<Sender<Envelope>>,
    workers: Vec<JoinHandle<u64>>,
    server: Arc<CloudServer>,
}

/// A cheap, cloneable client endpoint for one server pool.
#[derive(Debug, Clone)]
pub struct ServerClient {
    requests: Sender<Envelope>,
}

fn worker_loop(
    rx: Receiver<Envelope>,
    server: Arc<CloudServer>,
    io_delay: Option<Duration>,
    fault: Option<FaultHook>,
) -> u64 {
    let mut served = 0u64;
    while let Ok(envelope) = rx.recv() {
        let (frame, reply) = match envelope {
            Envelope::Request { frame, reply } => (frame, reply),
            Envelope::Shutdown => break,
        };
        if let Some(delay) = io_delay {
            std::thread::sleep(delay);
        }
        let response = serve_frame(&server, &frame, fault.as_ref());
        served += 1;
        reply(response);
    }
    served
}

impl ServerHandle {
    /// Spawns `options.workers` server threads sharing one request queue
    /// bounded at `options.backlog` envelopes. Several pools over the same
    /// `Arc<CloudServer>` act as replicas of one shard: they serve from the
    /// same index, ranking cache and label filter, but each has its own
    /// request queue and worker threads — so a router can spread read legs
    /// across them.
    pub fn spawn_pool_shared(server: Arc<CloudServer>, options: PoolOptions) -> Self {
        let (tx, rx): (Sender<Envelope>, Receiver<Envelope>) = bounded(options.backlog.max(1));
        let workers = (0..options.workers.max(1))
            .map(|_| {
                let rx = rx.clone();
                let server = Arc::clone(&server);
                let io_delay = options.io_delay;
                let fault = options.fault.clone();
                std::thread::spawn(move || worker_loop(rx, server, io_delay, fault))
            })
            .collect();
        ServerHandle {
            requests: Some(tx),
            workers,
            server,
        }
    }

    /// Creates a client endpoint.
    pub fn client(&self) -> ServerClient {
        ServerClient {
            requests: self
                .requests
                .clone()
                .expect("sender live until Drop takes it"),
        }
    }

    /// Number of worker threads in the pool.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The shared server, e.g. to inspect the audit log or push updates
    /// out of band while the pool is serving.
    pub fn server(&self) -> Arc<CloudServer> {
        Arc::clone(&self.server)
    }

    /// Stops accepting requests and joins every worker, returning the
    /// total number of requests served across the pool. One shutdown
    /// sentinel is sent per worker, queued behind every request already
    /// admitted, so each of those is still served and its sink run before
    /// the workers retire; a request admitted after the sentinels is
    /// dropped unserved.
    ///
    /// A worker that died of an uncontained panic contributes `served = 0`
    /// (its count is lost with the thread); the remaining workers' counts
    /// are still summed and returned, and the loss is reported to stderr —
    /// one dead worker no longer poisons the caller.
    pub fn shutdown(mut self) -> u64 {
        let tx = self.requests.take().expect("sender live until shutdown");
        for _ in 0..self.workers.len() {
            // Errors only when every worker is already dead (no receivers).
            let _ = tx.send(Envelope::Shutdown);
        }
        drop(tx);
        self.workers
            .drain(..)
            .map(|t| {
                t.join().unwrap_or_else(|_| {
                    eprintln!("server worker panicked; its served count is lost");
                    0
                })
            })
            .sum()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let Some(tx) = self.requests.take() else {
            // `shutdown` already ran and joined everything.
            return;
        };
        // Best-effort sentinels: never block on a full backlog (the
        // workers may all be dead or wedged). A brief bounded retry covers
        // the common case of a momentarily full queue draining normally.
        'sentinels: for _ in 0..self.workers.len() {
            for attempt in 0..50 {
                match tx.try_send(Envelope::Shutdown) {
                    Ok(()) => continue 'sentinels,
                    Err(TrySendError::Disconnected(_)) => break 'sentinels,
                    Err(TrySendError::Full(_)) if attempt < 49 => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(TrySendError::Full(_)) => break 'sentinels,
                }
            }
        }
        // Detach rather than join: a sentinel-less worker exits only once
        // the last *client* sender drops, which may be after this handle
        // is gone — joining here could deadlock a drop against a wedged
        // pool, and drop must always return. (`shutdown` is the joining,
        // count-returning path.)
        drop(tx);
        self.workers.clear();
    }
}

impl ServerClient {
    /// The pool's one admission point: queues `frame` with the sink its
    /// reply goes to, without blocking. Every caller — the blocking and
    /// async calls, the channel transport and the TCP event loop — admits
    /// through here.
    ///
    /// # Errors
    ///
    /// [`CloudError::Server`] (Overloaded, [`OVERLOAD_DETAIL`]) when the
    /// bounded backlog is full: the pool sheds instead of blocking, and
    /// `reply` is dropped unrun. [`CloudError::Transport`] when the pool
    /// is shut down.
    pub(crate) fn submit(&self, frame: Vec<u8>, reply: ReplySink) -> Result<(), CloudError> {
        match self.requests.try_send(Envelope::Request { frame, reply }) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(CloudError::Server {
                kind: ErrorKind::Overloaded,
                detail: OVERLOAD_DETAIL.to_owned(),
            }),
            Err(TrySendError::Disconnected(_)) => Err(CloudError::Transport {
                context: "server pool is shut down",
            }),
        }
    }

    /// Sends a request message and waits, without a deadline, for the
    /// response.
    ///
    /// # Errors
    ///
    /// * [`CloudError::Server`] when the server answers with an error
    ///   frame — including [`ErrorKind::Overloaded`] when the bounded
    ///   backlog is full (the call sheds instead of blocking);
    /// * [`CloudError::Transport`] when the pool is shut down or the
    ///   serving worker died before replying.
    pub fn call(&self, request: Message) -> Result<Message, CloudError> {
        self.call_async(request)?.wait(None)
    }

    /// [`ServerClient::call`] with a per-call deadline: returns
    /// [`CloudError::Timeout`] if no reply arrives within `deadline`, so a
    /// wedged worker can never hang the client forever.
    ///
    /// # Errors
    ///
    /// As [`ServerClient::call`], plus [`CloudError::Timeout`].
    pub fn call_with_deadline(
        &self,
        request: Message,
        deadline: Duration,
    ) -> Result<Message, CloudError> {
        self.call_async(request)?.wait(Some(deadline))
    }

    /// [`ServerClient::call`] behind the pool's one shed-retry loop (the
    /// one the shard router runs per leg): a shed request is retried up
    /// to `attempts` times total, sleeping `backoff` (doubled each retry)
    /// between attempts, and the admitted one is waited for.
    ///
    /// # Errors
    ///
    /// The final [`ErrorKind::Overloaded`] error if every attempt shed, or
    /// any error of [`ServerClient::call`].
    pub fn call_with_retry(
        &self,
        request: Message,
        attempts: u32,
        backoff: Duration,
    ) -> Result<Message, CloudError> {
        self.queue_with_retry(&request, attempts, backoff, || {})?
            .wait(None)
    }

    /// Queues a request without waiting for its reply, returning a
    /// [`PendingReply`] to collect later. This is the scatter half of a
    /// scatter-gather query: a coordinator puts one leg on every shard's
    /// queue before blocking on any of them, so N shards serve in parallel
    /// without the coordinator spawning N threads.
    ///
    /// The admission decision happens *now*: a full backlog sheds with an
    /// [`ErrorKind::Overloaded`] error and a dead pool fails with
    /// [`CloudError::Transport`].
    ///
    /// # Errors
    ///
    /// [`CloudError::Server`] (Overloaded) when the backlog sheds the
    /// request, [`CloudError::Transport`] when the pool is shut down.
    pub fn call_async(&self, request: Message) -> Result<PendingReply, CloudError> {
        self.queue(request.encode().to_vec())
    }

    /// The one shed-retry loop: queues `request` like
    /// [`ServerClient::call_async`], and while the backlog sheds it, runs
    /// `on_shed` (where a caller prices the shed frame), sleeps `backoff`
    /// (doubled each retry) and tries again, up to `attempts` admissions
    /// in total.
    ///
    /// # Errors
    ///
    /// The final [`ErrorKind::Overloaded`] error if every attempt shed
    /// (`on_shed` has run for each), or [`CloudError::Transport`] when the
    /// pool is shut down.
    pub(crate) fn queue_with_retry(
        &self,
        request: &Message,
        attempts: u32,
        backoff: Duration,
        mut on_shed: impl FnMut(),
    ) -> Result<PendingReply, CloudError> {
        let frame = request.encode().to_vec();
        let mut wait = backoff;
        let mut attempt = 1;
        loop {
            let outcome = self.queue(frame.clone());
            if !matches!(
                outcome,
                Err(CloudError::Server {
                    kind: ErrorKind::Overloaded,
                    ..
                })
            ) {
                return outcome;
            }
            on_shed();
            if attempt >= attempts {
                return outcome;
            }
            attempt += 1;
            std::thread::sleep(wait);
            wait = wait.saturating_mul(2);
        }
    }

    /// Admits `frame` with a one-shot rendezvous as its sink.
    fn queue(&self, frame: Vec<u8>) -> Result<PendingReply, CloudError> {
        let (reply_tx, reply_rx) = bounded(1);
        self.submit(
            frame,
            Box::new(move |body| {
                // A caller that gave up waiting is not the server's problem.
                let _ = reply_tx.send(body);
            }),
        )?;
        Ok(PendingReply { reply_rx })
    }
}

/// An in-flight request issued by [`ServerClient::call_async`]: the
/// request is already on the server's queue; the reply is collected with
/// [`PendingReply::wait`].
#[derive(Debug)]
pub struct PendingReply {
    reply_rx: Receiver<Vec<u8>>,
}

impl PendingReply {
    /// Waits for the reply, up to `deadline` when one is given (`None`
    /// waits indefinitely).
    ///
    /// # Errors
    ///
    /// * [`CloudError::Server`] when the reply is an error frame;
    /// * [`CloudError::Timeout`] when `deadline` expires first;
    /// * [`CloudError::Transport`] when the serving worker died before
    ///   replying;
    /// * a codec error when the reply frame does not decode.
    pub fn wait(self, deadline: Option<Duration>) -> Result<Message, CloudError> {
        let died = CloudError::Transport {
            context: "worker died before replying",
        };
        let frame = match deadline {
            Some(limit) => self.reply_rx.recv_timeout(limit).map_err(|e| match e {
                RecvTimeoutError::Timeout => CloudError::Timeout { after: limit },
                RecvTimeoutError::Disconnected => died,
            })?,
            None => self.reply_rx.recv().map_err(|_| died)?,
        };
        match Message::decode(BytesMut::from(&frame[..]))? {
            Message::Error { kind, detail } => Err(CloudError::Server { kind, detail }),
            msg => Ok(msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::SearchMode;
    use crate::entities::DataOwner;
    use crate::files::FileCrypter;
    use rsse_core::{Rsse, RsseParams};
    use rsse_ir::corpus::{CorpusParams, SyntheticCorpus};
    use rsse_ir::{Document, FileId, InvertedIndex};

    fn spawn_server() -> (DataOwner, ServerHandle, usize) {
        spawn_with_workers(1)
    }

    fn spawn_with_workers(workers: usize) -> (DataOwner, ServerHandle, usize) {
        let corpus = SyntheticCorpus::generate(&CorpusParams::small(55));
        let owner = DataOwner::new(b"loop seed", RsseParams::default());
        let server =
            CloudServer::from_outsource(owner.outsource(corpus.documents()).unwrap()).unwrap();
        let n = corpus.documents().len();
        (
            owner,
            ServerHandle::spawn_pool_shared(Arc::new(server), PoolOptions::new(workers, 16)),
            n,
        )
    }

    #[test]
    fn serves_one_request() {
        let (owner, handle, _) = spawn_server();
        let client = handle.client();
        let user = owner.authorize_user();
        let req = user
            .search_request("network", Some(3), SearchMode::Rsse)
            .unwrap();
        let resp = client.call(req).unwrap();
        let Message::RsseResponse { ranking, files } = resp else {
            panic!("wrong response type");
        };
        assert_eq!(ranking.len(), 3);
        assert_eq!(files.len(), 3);
        assert_eq!(handle.shutdown(), 1);
    }

    #[test]
    fn batched_call_matches_individual_calls() {
        let (owner, handle, _) = spawn_server();
        let client = handle.client();
        let user = owner.authorize_user();
        let keywords = ["network", "data", "network"];

        // Reference: one round trip per keyword.
        let singles: Vec<(Vec<(u64, u64)>, usize)> = keywords
            .iter()
            .map(|kw| {
                let req = user.search_request(kw, Some(4), SearchMode::Rsse).unwrap();
                match client.call(req).unwrap() {
                    Message::RsseResponse { ranking, files } => (ranking, files.len()),
                    _ => panic!("wrong response type"),
                }
            })
            .collect();

        // Batched: all keywords in one frame.
        let batch = user.batch_search_request(&keywords, Some(4)).unwrap();
        let Message::BatchReply { results, .. } = client.call(batch).unwrap() else {
            panic!("wrong response type");
        };
        assert_eq!(results.len(), keywords.len());
        for ((ranking, files), (want_ranking, want_files)) in results.iter().zip(&singles) {
            assert_eq!(ranking, want_ranking, "batched ranking must be identical");
            assert_eq!(files.len(), *want_files);
        }

        let report = handle.server().serving_report();
        assert_eq!(report.batches, 1);
        assert_eq!(report.searches, 3);
        handle.shutdown();
    }

    #[test]
    fn many_concurrent_clients() {
        let (owner, handle, _) = spawn_server();
        let reference: Vec<u64> = {
            let client = handle.client();
            let user = owner.authorize_user();
            let req = user
                .search_request("network", Some(5), SearchMode::Rsse)
                .unwrap();
            match client.call(req).unwrap() {
                Message::RsseResponse { ranking, .. } => {
                    ranking.into_iter().map(|(id, _)| id).collect()
                }
                _ => panic!("wrong response type"),
            }
        };
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let client = handle.client();
                let user = owner.authorize_user();
                let reference = &reference;
                scope.spawn(move || {
                    for _ in 0..10 {
                        let req = user
                            .search_request("network", Some(5), SearchMode::Rsse)
                            .unwrap();
                        let Message::RsseResponse { ranking, .. } = client.call(req).unwrap()
                        else {
                            panic!("wrong response type");
                        };
                        let ids: Vec<u64> = ranking.into_iter().map(|(id, _)| id).collect();
                        assert_eq!(&ids, reference);
                    }
                });
            }
        });
        assert_eq!(handle.shutdown(), 81);
    }

    #[test]
    fn pool_of_four_serves_and_counts_across_workers() {
        let (owner, handle, _) = spawn_with_workers(4);
        assert_eq!(handle.num_workers(), 4);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let client = handle.client();
                let user = owner.authorize_user();
                scope.spawn(move || {
                    for _ in 0..10 {
                        let req = user
                            .search_request("network", Some(5), SearchMode::Rsse)
                            .unwrap();
                        assert!(matches!(
                            client.call(req).unwrap(),
                            Message::RsseResponse { .. }
                        ));
                    }
                });
            }
        });
        // Every reply was received before shutdown, so the per-worker
        // served counts must sum to exactly the number of calls.
        assert_eq!(handle.shutdown(), 80);
    }

    #[test]
    fn update_over_the_wire_is_visible_to_searches() {
        let corpus = SyntheticCorpus::generate(&CorpusParams::small(56));
        let seed: &[u8] = b"wire update seed";
        let owner = DataOwner::new(seed, RsseParams::default());
        let server =
            CloudServer::from_outsource(owner.outsource(corpus.documents()).unwrap()).unwrap();
        let handle = ServerHandle::spawn_pool_shared(Arc::new(server), PoolOptions::new(2, 8));
        let client = handle.client();
        let user = owner.authorize_user();

        let scheme = Rsse::new(seed, RsseParams::default());
        let plain_index = InvertedIndex::build(corpus.documents());
        let updater = scheme.updater_for(&plain_index).unwrap();
        let new_doc = Document::new(FileId::new(4242), "network wire update");
        let update = updater.add_document(&new_doc).unwrap();
        let crypter = FileCrypter::new(seed);
        let ack = client
            .call(Message::Update {
                rsse_lists: update.into_parts(),
                files: vec![crypter.encrypt(&new_doc)],
            })
            .unwrap();
        let Message::UpdateAck { files_added, .. } = ack else {
            panic!("wrong response type");
        };
        assert_eq!(files_added, 1);

        let req = user
            .search_request("network", None, SearchMode::Rsse)
            .unwrap();
        let Message::RsseResponse { ranking, .. } = client.call(req).unwrap() else {
            panic!("wrong response type");
        };
        assert!(ranking.iter().any(|(id, _)| *id == 4242));
        let report = handle.server().serving_report();
        assert_eq!(report.updates, 1);
        assert_eq!(report.searches, 1);
        handle.shutdown();
    }

    #[test]
    fn malformed_frames_are_rejected_not_fatal() {
        let (owner, handle, _) = spawn_server();
        let client = handle.client();
        // A raw out-of-protocol message: server must answer with a typed
        // error frame and keep serving.
        let err = client
            .call(Message::FilesResponse { files: vec![] })
            .unwrap_err();
        let CloudError::Server { kind, detail } = err else {
            panic!("expected a decoded error frame, got {err:?}");
        };
        assert_eq!(kind, ErrorKind::Rejected);
        assert!(
            detail.contains("expected"),
            "detail survives the wire: {detail}"
        );
        let user = owner.authorize_user();
        let req = user
            .search_request("network", Some(1), SearchMode::Rsse)
            .unwrap();
        assert!(client.call(req).is_ok());
        assert_eq!(handle.server().serving_report().rejected, 1);
        handle.shutdown();
    }

    #[test]
    fn undecodable_frames_come_back_as_bad_frame_errors() {
        let (_, handle, _) = spawn_server();
        let server = handle.server();
        let reply = serve_frame(&server, &[0xff, 0x00, 0x01], None);
        let Message::Error { kind, .. } = Message::decode(BytesMut::from(&reply[..])).unwrap()
        else {
            panic!("expected an error frame");
        };
        assert_eq!(kind, ErrorKind::BadFrame);
        assert_eq!(server.serving_report().rejected, 1);
        handle.shutdown();
    }

    #[test]
    fn async_calls_scatter_before_any_wait() {
        let (owner, handle, _) = spawn_with_workers(2);
        let client = handle.client();
        let user = owner.authorize_user();
        // Queue both legs before blocking on either — the scatter pattern.
        let legs: Vec<PendingReply> = (0..2)
            .map(|_| {
                let req = user
                    .search_request("network", Some(2), SearchMode::Rsse)
                    .unwrap();
                client.call_async(req).unwrap()
            })
            .collect();
        for leg in legs {
            assert!(matches!(
                leg.wait(Some(Duration::from_secs(5))).unwrap(),
                Message::RsseResponse { .. }
            ));
        }
        assert_eq!(handle.shutdown(), 2);
    }

    #[test]
    fn async_call_sheds_and_fails_like_the_blocking_path() {
        let (owner, handle, _) = spawn_server();
        let client = handle.client();
        let user = owner.authorize_user();
        let req = user
            .search_request("network", Some(1), SearchMode::Rsse)
            .unwrap();
        handle.shutdown();
        // The admission decision happens at call_async time.
        assert!(matches!(
            client.call_async(req),
            Err(CloudError::Transport { .. })
        ));
    }

    #[test]
    fn calls_after_shutdown_fail_cleanly() {
        let (owner, handle, _) = spawn_server();
        let client = handle.client();
        handle.shutdown();
        let user = owner.authorize_user();
        let req = user
            .search_request("network", Some(1), SearchMode::Rsse)
            .unwrap();
        assert!(matches!(
            client.call(req),
            Err(CloudError::Transport { .. })
        ));
    }
}
