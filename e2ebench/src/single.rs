//! The single-server workloads: one `CloudServer` behind the TCP event
//! loop, driven by two pipelined client connections.

use crate::check::{self, DocBook, Verdict};
use crate::maint::{self, UpdateCounter};
use crate::stats::Report;
use crate::trace::Recorder;
use crate::workload::{ndcg_pairs, Inputs, Op, Workload, CLIENT_THREADS, TOP_K};
use crate::{Config, EndToEnd, Phase, PhaseResult, Tally, TempStore, MASTER, REPLAY_OP, SETUP_OP};
use rsse_cloud::{
    CloudServer, Connection, DataOwner, FileCrypter, Message, SearchMode, TcpConnection, TcpServer,
    TcpServerOptions, TcpTransport, Transport, User,
};
use rsse_core::{IndexUpdater, Rsse, RsseParams};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const SERVER_WORKERS: usize = 2;
const BACKLOG: usize = 64;
/// A reply slower than this is a failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

fn phases(workload: Workload) -> Vec<Phase> {
    let phase = |window, ops, share, updates_only| Phase {
        window,
        ops,
        share,
        updates_only,
    };
    match workload {
        Workload::PaperUncached => vec![
            phase(1, 3_800, 0.4, false),
            phase(8, 6_400, 0.4, false),
            phase(1, 1_700, 0.2, true),
        ],
        Workload::HotCached => vec![
            phase(1, 6_500, 0.4, false),
            phase(8, 34_000, 0.4, false),
            phase(1, 1_700, 0.2, true),
        ],
        _ => vec![phase(1, 6_400, 0.5, false), phase(8, 8_700, 0.5, false)],
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Field order is drop order: the TCP server stops before the store
/// directory is removed.
struct Deployment {
    tcp: TcpServer,
    server: Arc<CloudServer>,
    /// Frames sent to this deployment.
    sent: AtomicU64,
    upload_bytes: usize,
    store: Option<TempStore>,
}

/// One set-up, plaintext corpus to first verified reply.
fn deploy(
    cfg: &Config,
    inputs: &Inputs,
    book: &DocBook,
    rec: &mut Recorder,
    rep: usize,
) -> (Deployment, Verdict, f64) {
    let t0 = Instant::now();
    let owner = DataOwner::new(MASTER, RsseParams::default());
    let outsource = owner
        .outsource(&inputs.docs)
        .expect("owner builds the Outsource message");
    let t1 = Instant::now();
    let frame = outsource.encode();
    drop(outsource);
    let upload_bytes = frame.len();
    let t2 = Instant::now();
    let msg = Message::decode(frame).expect("Outsource frame decodes");
    let t3 = Instant::now();
    let store =
        (cfg.workload == Workload::ChurnGenerational).then(|| TempStore::new(cfg.workload.name()));
    let server = match (&store, cfg.workload) {
        (Some(store), _) => CloudServer::from_outsource_generational(
            msg,
            store.path(),
            CloudServer::DEFAULT_CACHE_BUDGET,
        ),
        (None, Workload::PaperUncached) => CloudServer::from_outsource_with_cache(msg, 0),
        (None, _) => CloudServer::from_outsource_with_cache(msg, CloudServer::DEFAULT_CACHE_BUDGET),
    }
    .expect("server boots from the Outsource frame");
    let tcp = TcpServer::spawn(
        Arc::new(server),
        TcpServerOptions::new(SERVER_WORKERS, BACKLOG),
    )
    .expect("bind a loopback listener");
    let t4 = Instant::now();
    let d = Deployment {
        server: tcp.server(),
        tcp,
        sent: AtomicU64::new(0),
        upload_bytes,
        store,
    };
    let user = User::new(MASTER, RsseParams::default());
    let verdict = match TcpTransport::new(d.tcp.addr()).dial() {
        Ok(mut conn) => checked_search(&mut conn, &d.sent, &user, book, &inputs.vocab[0], None),
        Err(_) => Verdict::Wrong,
    };
    let t5 = Instant::now();
    rec.op(
        "setup",
        SETUP_OP + rep as u64,
        t0,
        t5,
        &[
            ("owner.outsource", t0, t1),
            ("codec.outsource_encode", t1, t2),
            ("codec.outsource_decode", t2, t3),
            ("server.boot", t3, t4),
            ("client.first_reply", t4, t5),
        ],
    );
    (d, verdict, (t5 - t0).as_secs_f64())
}

/// One request/reply round trip on an otherwise idle connection.
fn call(conn: &mut TcpConnection, sent: &AtomicU64, msg: Message) -> Option<Message> {
    conn.send(msg).ok()?;
    sent.fetch_add(1, Ordering::Relaxed);
    let (_, body) = conn.recv_any(REPLY_TIMEOUT).ok()?;
    Message::decode(body.into()).ok()
}

/// A checked single-keyword search for `term` on an idle connection.
fn checked_search(
    conn: &mut TcpConnection,
    sent: &AtomicU64,
    user: &User,
    book: &DocBook,
    term: &str,
    reference: Option<&[(u64, u64)]>,
) -> Verdict {
    let req = user
        .search_request(term, Some(TOP_K), SearchMode::Rsse)
        .expect("index terms make trapdoors");
    match call(conn, sent, req) {
        Some(Message::RsseResponse { ranking, files }) => match user.decrypt_files(&files) {
            Ok(docs) => check::ranked_reply(book, &ranking, &docs, term, reference),
            Err(_) => Verdict::Wrong,
        },
        _ => Verdict::Wrong,
    }
}

pub fn run(cfg: &Config, inputs: &Inputs, report: &mut Report, rec: &mut Recorder) -> Tally {
    let mut tally = Tally::default();
    let book = DocBook::new(&inputs.docs);
    let mut setup_s = Vec::new();
    let mut deployed = None;
    let mut setup_peak_mb = 0.0;
    for rep in 0..cfg.setup_reps() {
        // The previous deployment shuts down before the next is built.
        drop(deployed.take());
        let (d, verdict, secs) = deploy(cfg, inputs, &book, rec, rep);
        tally.attempted += 1;
        tally.judge(verdict);
        setup_s.push(secs);
        if rep == 0 {
            // Later set-ups land in the memory the previous one freed,
            // as unevenly as the allocator's per-thread arenas allow.
            setup_peak_mb = crate::peak_rss_mb();
        }
        deployed = Some(d);
    }
    let d = deployed.expect("at least one set-up");
    let scheme = Rsse::new(MASTER, RsseParams::default());
    let user = User::new(MASTER, RsseParams::default());
    let transport = TcpTransport::new(d.tcp.addr());
    let mut conn = transport.dial().expect("dial the server");

    // The read-only workloads' reference: each V keyword's ranking from
    // the index itself, computed before anything is cached.
    let reference: Option<Vec<Vec<(u64, u64)>>> = (cfg.workload != Workload::ChurnGenerational)
        .then(|| {
            let index = d.server.rsse_index();
            inputs
                .vocab
                .iter()
                .map(|term| {
                    let trapdoor = scheme.trapdoor(term).expect("index terms make trapdoors");
                    index
                        .search(&trapdoor, Some(TOP_K as usize))
                        .iter()
                        .map(|r| (r.file.as_u64(), r.encrypted_score))
                        .collect()
                })
                .collect()
        });

    let mut ndcg = Vec::new();
    for terms in ndcg_pairs(&inputs.vocab) {
        tally.attempted += 1;
        let req = user
            .conjunctive_request(&terms.join(" "), Some(TOP_K))
            .expect("index terms make trapdoors");
        let verdict = match call(&mut conn, &d.sent, req) {
            Some(Message::ConjunctiveResponse { ranking, files }) => {
                let ids: Vec<u64> = ranking.iter().map(|r| r.0).collect();
                ndcg.push(check::ndcg_at_10(&inputs.index, terms, &ids));
                match user.decrypt_files(&files) {
                    Ok(docs) => check::conjunctive_reply(&book, &ranking, &docs, &terms),
                    Err(_) => Verdict::Wrong,
                }
            }
            _ => Verdict::Wrong,
        };
        tally.judge(verdict);
    }

    // Untimed warm-up: every V keyword once.
    for (i, term) in inputs.vocab.iter().enumerate() {
        tally.attempted += 1;
        let reference = reference.as_ref().map(|r| r[i].as_slice());
        tally.judge(checked_search(
            &mut conn, &d.sent, &user, &book, term, reference,
        ));
    }
    drop(conn);

    let phases = phases(cfg.workload);
    let stores = d.store.iter().map(|s| s.path().to_path_buf()).collect();
    let (counter, maintenance) = maint::spawn(vec![Arc::clone(&d.server)], stores);
    let update_bytes = AtomicU64::new(0);
    let barrier = Barrier::new(CLIENT_THREADS);
    let ctx = ClientCtx {
        cfg,
        inputs,
        book: &book,
        reference: reference.as_deref(),
        transport: &transport,
        sent: &d.sent,
        counter: &counter,
        scheme: &scheme,
        barrier: &barrier,
        phases: &phases,
        update_bytes: &update_bytes,
    };
    let per_thread: Vec<(Vec<PhaseResult>, Recorder)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|t| {
                let ctx = &ctx;
                s.spawn(move || Client::new(ctx, t).run(ctx))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    drop(counter);
    let store = maintenance.join().expect("maintenance thread panicked");
    tally.require(store.failures == 0, "every flush and compaction succeeds");

    let mut merged: Vec<PhaseResult> = phases.iter().map(|_| PhaseResult::default()).collect();
    for (results, thread_rec) in per_thread {
        for (m, p) in merged.iter_mut().zip(results) {
            m.merge(p);
        }
        rec.absorb(thread_rec);
    }
    let mut acked_updates = 0;
    for p in &merged {
        tally.count(p);
        acked_updates += p.updates.len() as u64;
    }

    // Counter identities, read after the last reply.
    let tcp_stats = d.tcp.stats();
    let traffic = transport.traffic();
    let Deployment {
        tcp,
        server,
        sent,
        upload_bytes,
        store: store_dir,
    } = d;
    let frames = sent.load(Ordering::Relaxed);
    let served = tcp.shutdown();
    tally.require(
        served + tcp_stats.overloaded == frames,
        "pool served == frames sent",
    );
    let audit = server.serving_report();
    let lookups = if cfg.workload == Workload::PaperUncached {
        0
    } else {
        audit.searches + audit.conjunctive
    };
    tally.require(
        audit.cache_hits + audit.cache_misses == lookups,
        "cache hits + misses == lookups",
    );
    tally.require(
        audit.updates == acked_updates,
        "server applied every acknowledged update",
    );

    EndToEnd {
        setup_s: &setup_s,
        setup_peak_mb,
        light: &merged[0],
        loaded: &merged[1],
        // Owner updates are timed with one request in flight: beside the
        // light phase's searches, or in the update phase.
        updates: if cfg.workload == Workload::ChurnGenerational {
            &merged[0]
        } else {
            &merged[2]
        },
        upload_bytes,
        ndcg: crate::stats::mean(&ndcg),
    }
    .emit(report);

    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let cache = server.cache_stats();
    let conj_cache = server.conjunctive_cache_stats();
    report.metric(
        "cache.hit_ratio",
        ratio(cache.hits, cache.hits + cache.misses),
        "ratio",
    );
    report.metric(
        "cache.conj_hit_ratio",
        ratio(conj_cache.hits, conj_cache.hits + conj_cache.misses),
        "ratio",
    );
    crate::emit_audit(report, &audit);
    report.metric("tcp.overloaded", tcp_stats.overloaded as f64, "count");
    report.metric("tcp.garbled", tcp_stats.garbled as f64, "count");
    report.metric(
        "tcp.backpressure_stalls",
        tcp_stats.backpressure_stalls as f64,
        "count",
    );
    report.metric(
        "wire.bytes_up_per_op",
        ratio(traffic.bytes_up as u64, frames),
        "bytes",
    );
    report.metric(
        "wire.bytes_down_per_op",
        ratio(traffic.bytes_down as u64, frames),
        "bytes",
    );
    crate::emit_store(report, &store, update_bytes.load(Ordering::Relaxed));
    crate::emit_bypassed(
        report,
        &[
            "shard.legs_per_op",
            "shard.pruned_per_op",
            "shard.conj_legs_per_op",
            "shard.filter_fetches_per_op",
            "shard.router_hit_ratio",
            "shard.router_conj_hit_ratio",
            "shard.replica_imbalance",
            "shard.no_leg_frac",
        ],
    );
    let conj = server.conjunctive_stats();
    report.metric(
        "core.conj_driver_entries_per_op",
        ratio(conj.driver_entries, audit.conjunctive),
        "count",
    );

    if cfg.trace {
        tally.failed += replay(cfg, inputs, &server, &scheme, &user, rec);
        tally.attempted += cfg.replay_ops() as u64;
    }
    drop(server);
    drop(store_dir);
    tally
}

/// Replays sampled searches straight into `CloudServer::handle` and
/// `RsseIndex::search`, one after the other, to time the server and the
/// index without the wire. Returns the replies that were not rankings.
fn replay(
    cfg: &Config,
    inputs: &Inputs,
    server: &CloudServer,
    scheme: &Rsse,
    user: &User,
    rec: &mut Recorder,
) -> u64 {
    let mut failed = 0;
    let searches: Vec<usize> = inputs
        .streams
        .iter()
        .flat_map(|s| s.ops.iter())
        .filter_map(|op| match op {
            Op::Search(v) => Some(*v),
            _ => None,
        })
        .collect();
    for i in 0..cfg.replay_ops() {
        let term = &inputs.vocab[searches[(i * 7919) % searches.len()]];
        let req = user
            .search_request(term, Some(TOP_K), SearchMode::Rsse)
            .expect("index terms make trapdoors");
        let trapdoor = scheme.trapdoor(term).expect("index terms make trapdoors");
        let t0 = Instant::now();
        let reply = server.handle(req);
        let t1 = Instant::now();
        let hits = server.rsse_index().search(&trapdoor, Some(TOP_K as usize));
        let t2 = Instant::now();
        rec.op(
            "replay",
            REPLAY_OP + i as u64,
            t0,
            t2,
            &[("server.handle", t0, t1), ("core.search", t1, t2)],
        );
        let ok = matches!(reply, Ok(Message::RsseResponse { ranking, .. })
            if ranking.len() == hits.len());
        failed += u64::from(!ok);
    }
    failed
}

struct ClientCtx<'a> {
    cfg: &'a Config,
    inputs: &'a Inputs,
    book: &'a DocBook,
    reference: Option<&'a [Vec<(u64, u64)>]>,
    transport: &'a TcpTransport,
    sent: &'a AtomicU64,
    counter: &'a UpdateCounter,
    scheme: &'a Rsse,
    barrier: &'a Barrier,
    phases: &'a [Phase],
    /// Bytes of every `Update` frame sent.
    update_bytes: &'a AtomicU64,
}

enum Pending {
    Search(usize),
    Update,
}

struct InFlight {
    what: Pending,
    op: u64,
    /// Started, request built, request sent.
    t0: Instant,
    t1: Instant,
    t2: Instant,
}

/// One client thread: a user and the owner's update role, over one
/// pipelined connection.
struct Client<'a> {
    thread: usize,
    user: User,
    updater: IndexUpdater<'a>,
    crypter: FileCrypter,
    conn: Option<TcpConnection>,
    rec: Recorder,
    next_op: u64,
    updates_made: u64,
    /// Whether the current phase keeps more than one request in flight.
    loaded: bool,
}

impl<'a> Client<'a> {
    fn new(ctx: &ClientCtx<'a>, thread: usize) -> Client<'a> {
        Client {
            thread,
            user: User::new(MASTER, RsseParams::default()),
            updater: ctx
                .scheme
                .updater_for(&ctx.inputs.index)
                .expect("the owner's updater fits the corpus"),
            crypter: FileCrypter::new(MASTER),
            conn: ctx.transport.dial().ok(),
            rec: Recorder::new(ctx.cfg.trace),
            next_op: (thread as u64) << 40,
            updates_made: 0,
            loaded: false,
        }
    }

    fn run(mut self, ctx: &ClientCtx<'_>) -> (Vec<PhaseResult>, Recorder) {
        let stream = &ctx.inputs.streams[self.thread];
        let (mut next_read, mut next_update) = (0, 0);
        let mut results = Vec::new();
        for phase in ctx.phases {
            let (ops, cursor) = if phase.updates_only {
                (&stream.updates, &mut next_update)
            } else {
                (&stream.ops, &mut next_read)
            };
            ctx.barrier.wait();
            results.push(self.phase(ctx, phase, ops, cursor));
        }
        (results, self.rec)
    }

    /// A closed loop keeping `phase.window` requests in flight until the
    /// phase's budget is spent, then draining.
    fn phase(
        &mut self,
        ctx: &ClientCtx<'_>,
        phase: &Phase,
        ops: &[Op],
        cursor: &mut usize,
    ) -> PhaseResult {
        self.loaded = phase.window > 1;
        let start = Instant::now();
        let deadline = start + ctx.cfg.phase_deadline(phase.share);
        let budget = ctx.cfg.budget(phase.ops);
        let mut res = PhaseResult {
            start: Some(start),
            ..PhaseResult::default()
        };
        let mut pending: HashMap<u64, InFlight> = HashMap::new();
        let mut issued = 0;
        loop {
            while pending.len() < phase.window && issued < budget && Instant::now() < deadline {
                issued += 1;
                res.ops += 1;
                let op = ops[*cursor % ops.len()];
                *cursor += 1;
                match self.send(ctx, op) {
                    Some((seq, flight)) => {
                        pending.insert(seq, flight);
                    }
                    None => res.failed += 1,
                }
            }
            if pending.is_empty() {
                break;
            }
            let Some((seq, body)) = self
                .conn
                .as_mut()
                .and_then(|c| c.recv_any(REPLY_TIMEOUT).ok())
            else {
                // The connection is gone: everything in flight is lost.
                res.failed += pending.len() as u64;
                self.conn = None;
                break;
            };
            let t3 = Instant::now();
            let Some(flight) = pending.remove(&seq) else {
                res.failed += 1;
                continue;
            };
            let verdict = self.receive(ctx, flight, body, t3, &mut res);
            res.judge(verdict);
        }
        res.end = Some(Instant::now());
        res
    }

    fn send(&mut self, ctx: &ClientCtx<'_>, op: Op) -> Option<(u64, InFlight)> {
        let t0 = Instant::now();
        let (msg, what) = match op {
            Op::Search(v) => (
                self.user
                    .search_request(&ctx.inputs.vocab[v], Some(TOP_K), SearchMode::Rsse)
                    .expect("index terms make trapdoors"),
                Pending::Search(v),
            ),
            Op::Update(words) => {
                let doc = ctx.inputs.update_doc(self.thread, self.updates_made, words);
                self.updates_made += 1;
                let update = self
                    .updater
                    .add_document(&doc)
                    .expect("update documents tokenize");
                let file = self.crypter.encrypt(&doc);
                ctx.book.add(&doc);
                let msg = Message::Update {
                    rsse_lists: update.into_parts(),
                    files: vec![file],
                };
                ctx.update_bytes
                    .fetch_add(msg.wire_len() as u64, Ordering::Relaxed);
                (msg, Pending::Update)
            }
            Op::Rare(_) | Op::Conj(_) => {
                unreachable!("single-server streams hold searches and updates")
            }
        };
        let t1 = Instant::now();
        let seq = self.conn.as_mut()?.send(msg).ok()?;
        ctx.sent.fetch_add(1, Ordering::Relaxed);
        self.next_op += 1;
        let flight = InFlight {
            what,
            op: self.next_op,
            t0,
            t1,
            t2: Instant::now(),
        };
        Some((seq, flight))
    }

    /// Decodes, reads and checks one reply.
    fn receive(
        &mut self,
        ctx: &ClientCtx<'_>,
        f: InFlight,
        body: Vec<u8>,
        t3: Instant,
        res: &mut PhaseResult,
    ) -> Verdict {
        let reply = Message::decode(body.into());
        let t4 = Instant::now();
        match f.what {
            Pending::Search(v) => {
                let Ok(Message::RsseResponse { ranking, files }) = reply else {
                    return Verdict::Wrong;
                };
                let docs = self.user.decrypt_files(&files);
                let t5 = Instant::now();
                res.searches.push(ms(t5 - f.t0));
                self.rec.op(
                    if self.loaded {
                        "search.loaded"
                    } else {
                        "search"
                    },
                    f.op,
                    f.t0,
                    t5,
                    &[
                        ("client.request", f.t0, f.t1),
                        ("tcp.send", f.t1, f.t2),
                        ("tcp.wait", f.t2, t3),
                        ("codec.decode", t3, t4),
                        ("client.read", t4, t5),
                    ],
                );
                let reference = ctx.reference.map(|r| r[v].as_slice());
                match docs {
                    Ok(docs) => check::ranked_reply(
                        ctx.book,
                        &ranking,
                        &docs,
                        &ctx.inputs.vocab[v],
                        reference,
                    ),
                    Err(_) => Verdict::Wrong,
                }
            }
            Pending::Update => {
                if !matches!(reply, Ok(Message::UpdateAck { files_added: 1, .. })) {
                    return Verdict::Wrong;
                }
                ctx.counter.note_update();
                res.updates.push(ms(t4 - f.t0));
                self.rec.op(
                    if self.loaded {
                        "update.loaded"
                    } else {
                        "update"
                    },
                    f.op,
                    f.t0,
                    t4,
                    &[
                        ("owner.update_build", f.t0, f.t1),
                        ("tcp.send", f.t1, f.t2),
                        ("tcp.update_wait", f.t2, t3),
                        ("codec.decode", t3, t4),
                    ],
                );
                Verdict::Complete
            }
        }
    }
}
