//! Closed-loop multi-client throughput benchmark for the worker-pool
//! server ([`ServerHandle::spawn_pool_shared`]), over the paper-scale
//! corpus (1000 files, hot keyword in every one).
//!
//! ```text
//! cargo run --release -p rsse-bench --bin throughput -- [--smoke] [out.json] [seed]
//! ```
//!
//! Eight client threads issue RSSE top-10 searches back to back against
//! pools of 1/2/4/8 workers, in four regimes:
//!
//! * **cpu** — 16-query `BatchRequest` frames served flat out with the
//!   ranking cache disabled: the honest pure-compute scaling of the
//!   machine, with the per-frame channel overhead amortized across the
//!   batch. With the lock-free audit counters there is no shared write
//!   lock left on the hot path, so extra workers on a single core must
//!   not cost throughput (gated below).
//! * **io_sim** — each request carries a fixed 3 ms stall standing in for
//!   backend storage I/O (cf. the `NetworkParams` latency model). Stalls
//!   overlap across workers, so throughput scales with the pool — the
//!   regime the serving layer is built for.
//! * **hot_keywords** — single-query frames drawn Zipf(s = 1.1) from the
//!   corpus's most frequent terms, the paper-style skewed query log, run
//!   twice: with the ranking cache at its default budget and with the
//!   cache disabled. Cache hit/miss counts land in the JSON next to the
//!   throughput they bought; the cached leg must sustain at least 3x the
//!   uncached requests/s at the same worker count (gated below).
//! * **sharded** — the index is partitioned across 1/2/4/8 shards (the
//!   "workers" column is the shard count), each shard served by two
//!   replica pools, with the tuned router: label-filter pruning, the
//!   router-level merged-result cache, and power-of-two-choices replica
//!   reads. The workload is a Zipf query log over the hot vocabulary
//!   plus a rare-term tail (the prunable keywords), with a document
//!   update interleaved every few requests per client — the churny
//!   regime the routing layer is built for. Updates invalidate ranking
//!   state *shard-locally*, so at 8 shards a refill re-ranks one
//!   1/8-size posting list where the single shard re-ranks the full
//!   list; together with pruned legs on the rare tail this must hold
//!   8 shards at >= 1.0x the 1-shard requests/s even on a single core
//!   (gated below — the fan-out overhead may no longer swamp the
//!   routing wins).
//! * **cpu_segment** — the cpu scenario again, but the server serves
//!   straight from a one-generation on-disk store (one `RSSEIDX2` file,
//!   one positional read per posting list) instead of the in-memory
//!   arena. Steady state must hold at least 0.5x the mem backend's
//!   requests/s (gated below).
//! * **conjunctive** — multi-keyword intersection serving: single-frame
//!   `ConjunctiveRequest`s drawn Zipf from a small pool of two-keyword
//!   queries, run with the conjunctive result cache at its default
//!   budget and disabled (the cached leg must sustain at least 2x the
//!   uncached requests/s, gated below), plus a sharded arm over the
//!   tuned router (conjunctive scatter legs, merged-result cache,
//!   rare-pair pruning, churny updates). Every conjunctive row also
//!   carries NDCG@10 of the server's `score_sum` ranking heuristic
//!   against the owner's exact IDF re-rank
//!   (`Rsse::rerank_conjunctive`) over the same query pool — the rank
//!   quality the wire order actually delivers.
//! * **transport** — the connections-vs-workers axis: the compute-bound
//!   hot-keyword workload pipelined 4-deep over 8/64 client connections,
//!   once through the simulated channel transport (the baseline row) and
//!   once through real loopback TCP and the non-blocking event loop.
//!   TCP at 64 pipelined connections must hold at least 0.7x the channel
//!   transport's requests/s (gated below).
//! * **cpu_segment_churn** — the generational store under an
//!   update-heavy Zipf log: every client keeps appending fresh documents
//!   between its queries, run twice — once letting the overlay grow
//!   unflushed (the no-compaction baseline) and once with a background
//!   compactor thread continuously flushing the overlay into L0 delta
//!   segments and merging the generations down while the pool serves.
//!   The compact leg must hold at least 0.8x the baseline requests/s and
//!   its install pauses (the only instant a query can wait on
//!   compaction) land in the JSON (gated below).
//!
//! Before the closed loops, a **cold-start** pair times warm restarts:
//! fully loading a saved index into memory versus opening it as a
//! one-generation store (manifest and directory only), and rebuilding a
//! whole deployment from plaintext versus reopening it from that store —
//! each through its first answered query, results asserted identical.
//!
//! Results are written as `BENCH_throughput.json` (requests/s, p50/p99
//! latency, cache hits/misses, speedup vs the single-worker loop per
//! scenario). The run ends with a `cargo test --test shard_equivalence`
//! smoke gate: sharded numbers are published only alongside a passing
//! equivalence proof.
//!
//! `--smoke` shrinks every request count, skips the perf gates and the
//! subprocess equivalence suite, and writes to a scratch path — just
//! enough to prove the harness end to end in CI.

use rsse_bench::workload::{paper_corpus, rare_terms, top_terms, ZipfSampler, HOT_KEYWORD};
use rsse_cloud::entities::{CloudServer, DataOwner, Deployment, Storage};
use rsse_cloud::server_loop::{PoolOptions, ServerHandle};
use rsse_cloud::{
    ChannelTransport, CloudError, Connection, ErrorKind, FileCrypter, Message, RouterOptions,
    SearchMode, ShardedDeployment, TcpServer, TcpServerOptions, TcpTransport, Transport,
};
use rsse_core::{Rsse, RsseIndex, RsseParams};
use rsse_ir::{Document, FileId, InvertedIndex};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const BACKLOG: usize = 64;
const IO_DELAY: Duration = Duration::from_millis(3);
/// Queries per `BatchRequest` frame in the batched scenario.
const CPU_BATCH: usize = 16;
/// Zipf exponent of the skewed query log (`s` in `1/rank^s`).
const ZIPF_S: f64 = 1.1;
/// Candidate keywords for the Zipf workload.
const ZIPF_VOCAB: usize = 48;
/// Rare terms (df <= 2) appended to the sharded vocabulary — the tail
/// the label filters prune, since a 1-2 file term cannot occupy every
/// shard of a multi-shard deployment.
const SHARD_RARE_VOCAB: usize = 16;
/// Every this-many client iterations in the sharded scenario, the
/// client publishes a document update instead of a query.
const SHARD_UPDATE_PERIOD: usize = 8;
/// Distinct two-keyword query sets in the conjunctive pool — small
/// enough that the Zipf log revisits them and the conjunctive caches
/// have something to earn.
const CONJ_POOL: usize = 16;
/// Rank cutoff for the conjunctive NDCG column.
const NDCG_K: usize = 10;
/// Router merged-result cache budget for the sharded scenario.
const ROUTER_CACHE_BUDGET: usize = 4 << 20;
/// Replica pools per shard in the sharded scenario.
const SHARD_REPLICAS: usize = 2;
/// Every this-many client iterations in the churn scenarios, the client
/// appends a document to the generational store instead of querying.
const CHURN_UPDATE_PERIOD: usize = 4;
/// Cadence of the background compactor's overlay flushes in the
/// churn-compact leg: each pass turns the pending updates into one L0
/// delta generation.
const CHURN_COMPACT_PERIOD: Duration = Duration::from_millis(100);
/// Rate limit on full generation merges: a merge rewrites the whole
/// base generation (~0.4 GB here), so an unthrottled compactor would
/// spend the entire run merging and starve the serving path — the same
/// reason production LSM stores throttle compaction I/O. Between
/// merges the compactor only flushes.
const CHURN_MERGE_PERIOD: Duration = Duration::from_millis(1500);
/// Pipelining window per connection in the transport scenario.
const TRANSPORT_INFLIGHT: usize = 4;
/// Client threads driving the transport scenario's connections.
const TRANSPORT_CLIENT_THREADS: usize = 8;
/// Per-reply deadline in the transport scenario.
const TRANSPORT_TIMEOUT: Duration = Duration::from_secs(60);

struct Scenario {
    name: &'static str,
    io_delay: Option<Duration>,
    /// Frames per client; each frame carries `batch` queries.
    frames_per_client: usize,
    backlog: usize,
    /// Queries per frame: 1 sends plain `SearchRequest`s, more sends
    /// `BatchRequest`s.
    batch: usize,
    /// Ranking-cache byte budget (0 disables the cache).
    cache_budget: usize,
    /// Draw keywords Zipf-distributed from the top terms instead of
    /// hammering the single hot keyword.
    zipf: bool,
    /// Serve from a one-generation on-disk store instead of the in-memory
    /// arena.
    segment: bool,
    workers: &'static [usize],
}

/// Unique scratch path for a saved index file, so concurrent runs never
/// collide.
fn scratch_path(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "rsse_throughput_{tag}_{}_{n}.idx",
        std::process::id()
    ))
}

/// Unique scratch directory for a generational store.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "rsse_throughput_{tag}_{}_{n}.gen",
        std::process::id()
    ))
}

struct ConfigResult {
    scenario: &'static str,
    workers: usize,
    /// How request frames reach the server: `inproc` (direct pool
    /// client), `channel` (simulated byte transport), or `tcp` (real
    /// loopback sockets through the event loop).
    transport: &'static str,
    /// Pipelined client connections (0 for the in-process scenarios,
    /// whose clients call the pool directly).
    connections: usize,
    /// Requests each connection keeps in flight (0 for in-process).
    inflight_per_conn: usize,
    /// Individual queries served (frames x batch).
    requests: usize,
    wall_s: f64,
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    shed_retries: u64,
    /// Total scatter legs actually sent (0 for the single-server
    /// scenarios; with pruning, less than queries x shards).
    shard_legs: u64,
    /// Scatter legs skipped because a label filter proved the shard
    /// holds no postings for the query.
    pruned_legs: u64,
    /// Filter-exchange round trips spent keeping pruning fresh.
    filter_fetches: u64,
    /// Conjunctive scatter legs actually sent (0 outside the sharded
    /// conjunctive arm; metered apart from `shard_legs`).
    conjunctive_legs: u64,
    /// Queries that rode inside `BatchRequest` frames.
    batched_queries: u64,
    cache_hits: u64,
    cache_misses: u64,
    /// Per-shard, per-replica counts of legs routed by the
    /// power-of-two-choices picker (empty for single-server scenarios).
    replica_routed: Vec<Vec<u64>>,
    /// Background compaction passes that merged generations down
    /// (0 for every scenario without a compactor).
    compactions: u64,
    /// Longest reader-visible install pause across those passes —
    /// the only instant a query can wait on compaction at all.
    compact_max_pause_ms: f64,
    /// Segment bytes rewritten by the compactor.
    compact_bytes: u64,
    /// NDCG@10 of the server's `score_sum` conjunctive heuristic against
    /// the owner's exact IDF re-rank, averaged over the query pool
    /// (0 for non-conjunctive scenarios).
    ndcg_at_10: f64,
}

fn percentile_ms(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)].as_secs_f64() * 1e3
}

/// The client's next request under `scenario`: either one keyword or a
/// whole batch, hot or Zipf-sampled.
fn build_request(
    user: &rsse_cloud::User,
    vocab: &[String],
    sampler: &mut ZipfSampler,
    scenario: &Scenario,
) -> Message {
    let mut keyword = || -> &str {
        if scenario.zipf {
            &vocab[sampler.sample()]
        } else {
            HOT_KEYWORD
        }
    };
    if scenario.batch == 1 {
        user.search_request(keyword(), Some(10), SearchMode::Rsse)
            .expect("search request")
    } else {
        let kws: Vec<&str> = (0..scenario.batch).map(|_| keyword()).collect();
        user.batch_search_request(&kws, Some(10))
            .expect("batch request")
    }
}

fn run_config(
    outsource_frame: &bytes::BytesMut,
    owner: &DataOwner,
    vocab: &[String],
    scenario: &Scenario,
    workers: usize,
    seed: u64,
) -> ConfigResult {
    let msg = Message::decode(outsource_frame.clone()).unwrap();
    let (server, store_dir) = if scenario.segment {
        let dir = scratch_dir(scenario.name);
        let server = CloudServer::boot(
            msg,
            &Storage::Generational(dir.clone()),
            scenario.cache_budget,
        )
        .expect("outsource frame persists and boots the on-disk server");
        (server, Some(dir))
    } else {
        let server = CloudServer::from_outsource_with_cache(msg, scenario.cache_budget)
            .expect("outsource frame boots the server");
        (server, None)
    };
    let mut options = PoolOptions::new(workers, scenario.backlog);
    if let Some(delay) = scenario.io_delay {
        options = options.with_io_delay(delay);
    }
    let handle = ServerHandle::spawn_pool_shared(Arc::new(server), options);

    let start = Instant::now();
    let per_client: Vec<(Vec<Duration>, u64)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|client_idx| {
                let client = handle.client();
                let user = owner.authorize_user();
                let n = scenario.frames_per_client;
                scope.spawn(move || {
                    let mut sampler =
                        ZipfSampler::new(vocab.len(), ZIPF_S, seed ^ (client_idx as u64) << 17);
                    let mut lats = Vec::with_capacity(n);
                    let mut shed = 0u64;
                    for _ in 0..n {
                        let req = build_request(&user, vocab, &mut sampler, scenario);
                        // Closed loop with client-side admission retry: a
                        // shed (Overloaded frame) costs a short backoff and
                        // another attempt; latency is measured end to end,
                        // retries included, as a real client would see it.
                        let sent = Instant::now();
                        let mut backoff = Duration::from_micros(100);
                        let resp = loop {
                            match client.call(req.clone()) {
                                Ok(resp) => break resp,
                                Err(CloudError::Server {
                                    kind: ErrorKind::Overloaded,
                                    ..
                                }) => {
                                    shed += 1;
                                    std::thread::sleep(backoff);
                                    backoff = (backoff * 2).min(Duration::from_millis(5));
                                }
                                Err(e) => panic!("reply lost: {e}"),
                            }
                        };
                        lats.push(sent.elapsed());
                        match resp {
                            Message::RsseResponse { .. } => assert_eq!(scenario.batch, 1),
                            Message::BatchReply { results, .. } => {
                                assert_eq!(results.len(), scenario.batch)
                            }
                            other => panic!("unexpected reply {other:?}"),
                        }
                    }
                    (lats, shed)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let shed_retries: u64 = per_client.iter().map(|(_, s)| s).sum();
    let mut latencies: Vec<Duration> = per_client.into_iter().flat_map(|(l, _)| l).collect();

    let frames = CLIENTS * scenario.frames_per_client;
    let requests = frames * scenario.batch;
    let cache = handle.server().cache_stats();
    let served = handle.shutdown();
    assert_eq!(served, frames as u64, "pool lost or double-counted frames");
    if let Some(dir) = store_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    if scenario.cache_budget == 0 {
        assert_eq!(
            cache.hits + cache.misses,
            0,
            "disabled cache must not count"
        );
    }

    latencies.sort_unstable();
    ConfigResult {
        scenario: scenario.name,
        workers,
        transport: "inproc",
        connections: 0,
        inflight_per_conn: 0,
        requests,
        wall_s: wall.as_secs_f64(),
        rps: requests as f64 / wall.as_secs_f64(),
        p50_ms: percentile_ms(&latencies, 0.50),
        p99_ms: percentile_ms(&latencies, 0.99),
        shed_retries,
        shard_legs: 0,
        pruned_legs: 0,
        filter_fetches: 0,
        conjunctive_legs: 0,
        batched_queries: if scenario.batch > 1 {
            requests as u64
        } else {
            0
        },
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        replica_routed: Vec::new(),
        compactions: 0,
        compact_max_pause_ms: 0.0,
        compact_bytes: 0,
        ndcg_at_10: 0.0,
    }
}

/// The server end of one transport config — kept only so the run can
/// shut it down and collect the served-frame count.
enum TransportServer {
    Channel(ServerHandle),
    Tcp(TcpServer),
}

/// One transport config: `connections` pipelined client connections,
/// each keeping [`TRANSPORT_INFLIGHT`] hot-keyword top-10 searches in
/// flight against a `workers`-worker pool, over either the simulated
/// channel transport or real loopback TCP through the event loop. The
/// workload is compute-bound (ranking cache disabled, every query
/// re-ranks the full hot posting list) so the syscall and framing costs
/// are measured against real work, not against an idle server. Rows
/// share the `"transport"` scenario name; the channel row is pushed
/// first so the JSON speedup column reads as TCP's fraction of the
/// in-process channel baseline.
fn run_transport(
    outsource_frame: &bytes::BytesMut,
    owner: &DataOwner,
    tcp: bool,
    workers: usize,
    connections: usize,
    requests_per_conn: usize,
) -> ConfigResult {
    let msg = Message::decode(outsource_frame.clone()).unwrap();
    // Admission must outsize the aggregate pipeline window: this config
    // measures transport cost, not overload shedding (the overload path
    // has its own scenario and tests).
    let backlog = (connections * TRANSPORT_INFLIGHT).max(BACKLOG);
    let server = CloudServer::from_outsource_with_cache(msg, 0).expect("outsource boots server");
    let (transport, server): (Box<dyn Transport>, TransportServer) = if tcp {
        let srv = TcpServer::spawn(Arc::new(server), TcpServerOptions::new(workers, backlog))
            .expect("tcp server binds loopback");
        let t = TcpTransport::new(srv.addr());
        (Box::new(t), TransportServer::Tcp(srv))
    } else {
        let handle =
            ServerHandle::spawn_pool_shared(Arc::new(server), PoolOptions::new(workers, backlog));
        let t = ChannelTransport::new(handle.client());
        (Box::new(t), TransportServer::Channel(handle))
    };
    let req = owner
        .authorize_user()
        .search_request(HOT_KEYWORD, Some(10), SearchMode::Rsse)
        .expect("search request");

    // Dial every connection up front, then deal them round-robin to the
    // client threads — the measured window is steady-state pipelining,
    // not connection setup.
    let threads_n = TRANSPORT_CLIENT_THREADS.min(connections);
    let mut groups: Vec<Vec<Box<dyn Connection>>> = (0..threads_n).map(|_| Vec::new()).collect();
    for i in 0..connections {
        groups[i % threads_n].push(transport.connect().expect("connect"));
    }

    struct ConnState {
        conn: Box<dyn Connection>,
        sent_at: HashMap<u64, Instant>,
        to_send: usize,
        to_recv: usize,
    }

    let start = Instant::now();
    let per_thread: Vec<Vec<Duration>> = std::thread::scope(|scope| {
        let threads: Vec<_> = groups
            .into_iter()
            .map(|group| {
                let req = req.clone();
                scope.spawn(move || {
                    let mut states: Vec<ConnState> = group
                        .into_iter()
                        .map(|conn| ConnState {
                            conn,
                            sent_at: HashMap::new(),
                            to_send: requests_per_conn,
                            to_recv: requests_per_conn,
                        })
                        .collect();
                    // Prime every window, then slide: one reply in, one
                    // request out, round-robin across this thread's
                    // connections.
                    for s in &mut states {
                        for _ in 0..TRANSPORT_INFLIGHT.min(s.to_send) {
                            let seq = s.conn.send(req.clone()).expect("send");
                            s.sent_at.insert(seq, Instant::now());
                        }
                        s.to_send -= TRANSPORT_INFLIGHT.min(s.to_send);
                    }
                    let mut lats = Vec::with_capacity(states.len() * requests_per_conn);
                    loop {
                        let mut live = false;
                        for s in &mut states {
                            if s.to_recv == 0 {
                                continue;
                            }
                            live = true;
                            let (seq, body) =
                                s.conn.recv_any(TRANSPORT_TIMEOUT).expect("pipelined reply");
                            let sent = s.sent_at.remove(&seq).expect("unknown sequence id");
                            lats.push(sent.elapsed());
                            s.to_recv -= 1;
                            let reply = Message::decode(bytes::BytesMut::from(&body[..]))
                                .expect("reply decodes");
                            assert!(
                                matches!(reply, Message::RsseResponse { .. }),
                                "unexpected reply {reply:?}"
                            );
                            if s.to_send > 0 {
                                let seq = s.conn.send(req.clone()).expect("send");
                                s.sent_at.insert(seq, Instant::now());
                                s.to_send -= 1;
                            }
                        }
                        if !live {
                            break;
                        }
                    }
                    lats
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("transport client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut latencies: Vec<Duration> = per_thread.into_iter().flatten().collect();
    let requests = connections * requests_per_conn;
    assert!(
        transport.traffic().bytes_down > 0,
        "traffic must be metered"
    );

    let served = match server {
        TransportServer::Channel(handle) => handle.shutdown(),
        TransportServer::Tcp(srv) => {
            let stats = srv.stats();
            assert_eq!(stats.garbled, 0, "no reply may arrive garbled");
            assert_eq!(stats.overloaded, 0, "backlog was sized to never shed");
            srv.shutdown()
        }
    };
    assert_eq!(
        served, requests as u64,
        "transport lost or duplicated frames"
    );

    latencies.sort_unstable();
    ConfigResult {
        scenario: "transport",
        workers,
        transport: if tcp { "tcp" } else { "channel" },
        connections,
        inflight_per_conn: TRANSPORT_INFLIGHT,
        requests,
        wall_s: wall.as_secs_f64(),
        rps: requests as f64 / wall.as_secs_f64(),
        p50_ms: percentile_ms(&latencies, 0.50),
        p99_ms: percentile_ms(&latencies, 0.99),
        shed_retries: 0,
        shard_legs: 0,
        pruned_legs: 0,
        filter_fetches: 0,
        conjunctive_legs: 0,
        batched_queries: 0,
        cache_hits: 0,
        cache_misses: 0,
        replica_routed: Vec::new(),
        compactions: 0,
        compact_max_pause_ms: 0.0,
        compact_bytes: 0,
        ndcg_at_10: 0.0,
    }
}

/// What the background compactor thread hands back when the clients are
/// done.
#[derive(Default)]
struct CompactTally {
    compactions: u64,
    max_pause: Duration,
    bytes: u64,
}

/// The churn pair's per-config knobs (a [`Scenario`] would drag in the
/// fields `run_config` needs and this runner does not).
struct ChurnConfig {
    frames_per_client: usize,
    workers: usize,
    /// Run the live compactor thread beside the pool.
    compact: bool,
}

/// Update-heavy Zipf serving straight from the generational store:
/// every [`CHURN_UPDATE_PERIOD`]-th client iteration appends a fresh
/// few-keyword document instead of querying, so the delta overlay never
/// stops growing. With `compact` set, a compactor thread rides beside
/// the worker pool for the whole run, flushing the overlay into L0
/// delta segments and merging the generations down — queries keep being
/// served from the pinned old generation set while each merge runs, and
/// only the pointer flip (microseconds, reported as `install_pause`)
/// can ever make one wait. The compact leg is gated at >= 0.8x the
/// no-compaction baseline's requests/s.
fn run_churn(
    outsource_frame: &bytes::BytesMut,
    owner: &DataOwner,
    docs: &[Document],
    vocab: &[String],
    config: &ChurnConfig,
    seed: u64,
) -> ConfigResult {
    let ChurnConfig {
        frames_per_client,
        workers,
        compact,
    } = *config;
    let name: &'static str = if compact {
        "cpu_segment_churn_compact"
    } else {
        "cpu_segment_churn"
    };
    let msg = Message::decode(outsource_frame.clone()).unwrap();
    let dir = scratch_dir(name);
    let server = CloudServer::from_outsource_generational(msg, &dir, 0)
        .expect("outsource frame persists and boots the generational server");
    let handle =
        ServerHandle::spawn_pool_shared(Arc::new(server), PoolOptions::new(workers, BACKLOG));
    let server = handle.server();

    // Owner-side update machinery, shared by every client thread.
    let params = RsseParams::default();
    let scheme = Rsse::new(b"throughput seed", params);
    let plain_index = InvertedIndex::build(docs);
    let crypter = FileCrypter::new(b"throughput seed");

    let stop = AtomicBool::new(false);
    let start = Instant::now();
    // The wall clock stops when the *clients* are done: the compactor's
    // final drain pass (merging whatever the last updates left behind)
    // happens after the measured window, exactly like a real store
    // quiescing after the traffic stops.
    let (per_client, wall, compactor): (Vec<(Vec<Duration>, u64)>, Duration, CompactTally) =
        std::thread::scope(|scope| {
            let compactor = compact.then(|| {
                let (server, stop) = (&server, &stop);
                scope.spawn(move || {
                    let mut tally = CompactTally::default();
                    let mut note = |stats: Option<rsse_core::CompactionStats>| {
                        if let Some(stats) = stats {
                            tally.compactions += 1;
                            tally.max_pause = tally.max_pause.max(stats.install_pause);
                            tally.bytes += stats.bytes_written;
                        }
                    };
                    let mut last_merge = Instant::now();
                    while !stop.load(Ordering::Acquire) {
                        if last_merge.elapsed() >= CHURN_MERGE_PERIOD {
                            note(
                                server
                                    .compact_index_live()
                                    .expect("live compaction beside the pool"),
                            );
                            last_merge = Instant::now();
                        } else {
                            server.flush_index().expect("overlay flush beside the pool");
                        }
                        std::thread::sleep(CHURN_COMPACT_PERIOD);
                    }
                    // Quiesce after the measured window: merge whatever the
                    // last updates left behind, so every run — smoke
                    // included — measures at least one real compaction.
                    note(server.compact_index_live().expect("drain compaction"));
                    tally
                })
            });
            let threads: Vec<_> = (0..CLIENTS)
                .map(|client_idx| {
                    let client = handle.client();
                    let user = owner.authorize_user();
                    let (server, scheme, plain_index, crypter) =
                        (&server, &scheme, &plain_index, &crypter);
                    scope.spawn(move || {
                        // Same per-thread updater story as the sharded
                        // scenario: IndexUpdater memoizes OPM state behind a
                        // RefCell, so each client derives its own.
                        let updater = scheme.updater_for(plain_index).expect("updater");
                        let mut sampler =
                            ZipfSampler::new(vocab.len(), ZIPF_S, seed ^ (client_idx as u64) << 17);
                        let mut lats = Vec::with_capacity(frames_per_client);
                        let mut shed = 0u64;
                        for i in 0..frames_per_client {
                            if (i + 1) % CHURN_UPDATE_PERIOD == 0 {
                                // Churn: a fresh few-keyword document lands
                                // in the overlay; the compactor (if any)
                                // will flush it into an L0 delta segment.
                                let id = (1u64 << 41) | ((client_idx as u64) << 32) | i as u64;
                                let words: Vec<&str> =
                                    (0..4).map(|_| vocab[sampler.sample()].as_str()).collect();
                                let doc = Document::new(
                                    FileId::new(id),
                                    format!("{} churn{id}", words.join(" ")),
                                );
                                let update = updater.add_document(&doc).expect("update");
                                let file = crypter.encrypt(&doc);
                                server.apply_update(update, vec![file]);
                                continue;
                            }
                            let keyword = &vocab[sampler.sample()];
                            let req = user
                                .search_request(keyword, Some(10), SearchMode::Rsse)
                                .expect("search request");
                            let sent = Instant::now();
                            let mut backoff = Duration::from_micros(100);
                            let resp = loop {
                                match client.call(req.clone()) {
                                    Ok(resp) => break resp,
                                    Err(CloudError::Server {
                                        kind: ErrorKind::Overloaded,
                                        ..
                                    }) => {
                                        shed += 1;
                                        std::thread::sleep(backoff);
                                        backoff = (backoff * 2).min(Duration::from_millis(5));
                                    }
                                    Err(e) => panic!("reply lost: {e}"),
                                }
                            };
                            lats.push(sent.elapsed());
                            match resp {
                                Message::RsseResponse { .. } => {}
                                other => panic!("unexpected reply {other:?}"),
                            }
                        }
                        (lats, shed)
                    })
                })
                .collect();
            let per_client: Vec<(Vec<Duration>, u64)> = threads
                .into_iter()
                .map(|t| t.join().expect("client thread panicked"))
                .collect();
            let wall = start.elapsed();
            stop.store(true, Ordering::Release);
            let tally = compactor
                .map(|t| t.join().expect("compactor thread panicked"))
                .unwrap_or_default();
            (per_client, wall, tally)
        });
    let shed_retries: u64 = per_client.iter().map(|(_, s)| s).sum();
    let mut latencies: Vec<Duration> = per_client.into_iter().flat_map(|(l, _)| l).collect();

    let frames = latencies.len();
    let gen = server
        .generation_stats()
        .expect("churn server is generational");
    assert!(
        !gen.compacting,
        "no compaction may still be in flight after the final pass"
    );
    let served = handle.shutdown();
    assert_eq!(served, frames as u64, "pool lost or double-counted frames");
    let _ = std::fs::remove_dir_all(&dir);

    latencies.sort_unstable();
    ConfigResult {
        scenario: name,
        workers,
        transport: "inproc",
        connections: 0,
        inflight_per_conn: 0,
        requests: frames,
        wall_s: wall.as_secs_f64(),
        rps: frames as f64 / wall.as_secs_f64(),
        p50_ms: percentile_ms(&latencies, 0.50),
        p99_ms: percentile_ms(&latencies, 0.99),
        shed_retries,
        shard_legs: 0,
        pruned_legs: 0,
        filter_fetches: 0,
        conjunctive_legs: 0,
        batched_queries: 0,
        cache_hits: 0,
        cache_misses: 0,
        replica_routed: Vec::new(),
        compactions: compactor.compactions,
        compact_max_pause_ms: compactor.max_pause.as_secs_f64() * 1e3,
        compact_bytes: compactor.bytes,
        ndcg_at_10: 0.0,
    }
}

/// What one sharded client thread hands back: search latencies plus its
/// share of the scatter traffic counters.
struct ShardClientTally {
    lats: Vec<Duration>,
    shard_legs: u64,
    pruned_legs: u64,
    filter_fetches: u64,
}

/// Scatter-gather throughput over `shards` shards behind the tuned
/// router (label-filter pruning, merged-result cache, two replica pools
/// per shard). Each client iterates a Zipf query log over `vocab` —
/// hot head plus rare prunable tail — and every
/// [`SHARD_UPDATE_PERIOD`]-th iteration publishes a small document
/// update to the owning shard instead, churning the caches and filters
/// the way a live deployment would. Updates invalidate shard-locally:
/// the single-shard config re-ranks the full posting list on the next
/// miss where an 8-shard config re-ranks one 1/8-size list, which is
/// what lets the fan-out pay for itself even on one core.
fn run_sharded(
    docs: &[Document],
    vocab: &[String],
    iterations_per_client: usize,
    shards: usize,
    seed: u64,
) -> ConfigResult {
    let params = RsseParams::default();
    let cloud = ShardedDeployment::bootstrap(
        b"throughput seed",
        params,
        docs,
        shards,
        &Storage::Mem,
        PoolOptions::new(1, BACKLOG),
        RouterOptions::new()
            .with_pruning()
            .with_merged_cache(ROUTER_CACHE_BUDGET)
            .with_replicas(SHARD_REPLICAS),
    )
    .expect("sharded bootstrap");
    // Owner-side update machinery, shared by every client thread.
    let scheme = Rsse::new(b"throughput seed", params);
    let plain_index = InvertedIndex::build(docs);
    let crypter = FileCrypter::new(b"throughput seed");
    let partitioner = cloud.partitioner();

    let start = Instant::now();
    let per_client: Vec<ShardClientTally> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|client_idx| {
                let (cloud, scheme, plain_index, crypter) =
                    (&cloud, &scheme, &plain_index, &crypter);
                scope.spawn(move || {
                    // IndexUpdater memoizes OPM state behind a RefCell, so
                    // each client thread derives its own (same owner key,
                    // same index -> identical updates).
                    let updater = scheme.updater_for(plain_index).expect("updater");
                    let mut sampler =
                        ZipfSampler::new(vocab.len(), ZIPF_S, seed ^ (client_idx as u64) << 17);
                    let mut tally = ShardClientTally {
                        lats: Vec::with_capacity(iterations_per_client),
                        shard_legs: 0,
                        pruned_legs: 0,
                        filter_fetches: 0,
                    };
                    for i in 0..iterations_per_client {
                        if (i + 1) % SHARD_UPDATE_PERIOD == 0 {
                            // Churn: a fresh few-keyword document lands on
                            // its owning shard, bumping that shard's filter
                            // epoch and invalidating its touched rankings.
                            let id = (1u64 << 40) | ((client_idx as u64) << 32) | i as u64;
                            let words: Vec<&str> =
                                (0..4).map(|_| vocab[sampler.sample()].as_str()).collect();
                            let doc = Document::new(
                                FileId::new(id),
                                format!("{} churn{id}", words.join(" ")),
                            );
                            let update = updater.add_document(&doc).expect("update");
                            let file = crypter.encrypt(&doc);
                            let shard = partitioner.shard_of(doc.id());
                            cloud
                                .shard_server(shard)
                                .expect("shard exists")
                                .apply_update(update, vec![file]);
                            continue;
                        }
                        let keyword = &vocab[sampler.sample()];
                        let sent = Instant::now();
                        let (docs, outcome) = cloud
                            .rsse_search(keyword, Some(10))
                            .expect("scatter-gather query");
                        tally.lats.push(sent.elapsed());
                        assert!(docs.len() <= 10, "top-10 query returned {}", docs.len());
                        assert!(
                            outcome.is_complete(),
                            "no shard may degrade on a healthy deployment"
                        );
                        tally.shard_legs += outcome.traffic.shard_legs as u64;
                        tally.pruned_legs += outcome.traffic.pruned_legs as u64;
                        tally.filter_fetches += outcome.traffic.filter_fetches as u64;
                    }
                    tally
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();

    let requests: usize = per_client.iter().map(|t| t.lats.len()).sum();
    let shard_legs: u64 = per_client.iter().map(|t| t.shard_legs).sum();
    let pruned_legs: u64 = per_client.iter().map(|t| t.pruned_legs).sum();
    let filter_fetches: u64 = per_client.iter().map(|t| t.filter_fetches).sum();
    let mut latencies: Vec<Duration> = per_client.into_iter().flat_map(|t| t.lats).collect();

    // The sharded row's cache columns report the *router's* merged-result
    // cache — the per-shard ranking caches stay an implementation detail
    // below the routing layer this scenario measures.
    let merged = cloud.router().merged_cache_stats();
    let replica_routed = cloud.router().replica_routing();
    let served = cloud.shutdown();
    assert_eq!(
        served,
        shard_legs + filter_fetches,
        "every pool frame is a metered scatter leg or filter fetch"
    );

    latencies.sort_unstable();
    ConfigResult {
        scenario: "sharded",
        workers: shards,
        transport: "inproc",
        connections: 0,
        inflight_per_conn: 0,
        requests,
        wall_s: wall.as_secs_f64(),
        rps: requests as f64 / wall.as_secs_f64(),
        p50_ms: percentile_ms(&latencies, 0.50),
        p99_ms: percentile_ms(&latencies, 0.99),
        shed_retries: 0,
        shard_legs,
        pruned_legs,
        filter_fetches,
        conjunctive_legs: 0,
        batched_queries: 0,
        cache_hits: merged.hits,
        cache_misses: merged.misses,
        replica_routed,
        compactions: 0,
        compact_max_pause_ms: 0.0,
        compact_bytes: 0,
        ndcg_at_10: 0.0,
    }
}

/// [`CONJ_POOL`] two-keyword conjunctive queries over the hot
/// vocabulary, every pair a distinct keyword *set* (the stride-5 walk
/// below never revisits an unordered pair within the pool).
fn conjunctive_pool(vocab: &[String]) -> Vec<String> {
    let span = vocab.len().min(24);
    (0..CONJ_POOL.min(span))
        .map(|i| {
            let mut j = (i * 5 + 1) % span;
            if j == i {
                j = (j + 1) % span;
            }
            format!("{} {}", vocab[i], vocab[j])
        })
        .collect()
}

/// NDCG@[`NDCG_K`] of the server-side `score_sum` order against the
/// owner's exact IDF re-rank ([`Rsse::rerank_conjunctive`]), averaged
/// over the query pool. Gains are the exact IDF scores, so a perfect
/// heuristic scores 1.0 and any inversion inside the top k costs in
/// proportion to the relevance it misplaced.
fn measure_conjunctive_ndcg(
    scheme: &Rsse,
    index: &RsseIndex,
    plain_index: &InvertedIndex,
    pool: &[String],
) -> f64 {
    let opse = *index.opse_params().expect("index carries OPSE params");
    let mut total = 0.0;
    let mut counted = 0usize;
    for query in pool {
        let words: Vec<&str> = query.split_whitespace().collect();
        let trapdoor = scheme.multi_trapdoor(query).expect("conjunctive trapdoor");
        let hits = index.search_conjunctive(&trapdoor, None);
        if hits.is_empty() {
            continue;
        }
        let dfs: Vec<u64> = words
            .iter()
            .map(|w| plain_index.document_frequency(w))
            .collect();
        let exact = scheme
            .rerank_conjunctive(&words, &hits, opse, &dfs, plain_index.num_docs())
            .expect("exact re-rank");
        let gain: HashMap<u64, f64> = exact.iter().map(|(f, s)| (f.as_u64(), *s)).collect();
        let dcg: f64 = hits
            .iter()
            .take(NDCG_K)
            .enumerate()
            .map(|(i, h)| gain[&h.file.as_u64()] / (i as f64 + 2.0).log2())
            .sum();
        let idcg: f64 = exact
            .iter()
            .take(NDCG_K)
            .enumerate()
            .map(|(i, (_, s))| s / (i as f64 + 2.0).log2())
            .sum();
        if idcg > 0.0 {
            total += dcg / idcg;
            counted += 1;
        }
    }
    assert!(
        counted > 0,
        "conjunctive pool produced no non-empty intersections"
    );
    total / counted as f64
}

/// The conjunctive pair's per-config knobs (same story as
/// [`ChurnConfig`]: a [`Scenario`] would drag in fields this runner
/// does not use).
struct ConjConfig {
    /// Conjunctive result cache byte budget (0 disables it).
    cache_budget: usize,
    workers: usize,
    frames_per_client: usize,
}

/// The conjunctive serving pair: single-frame `ConjunctiveRequest`s
/// drawn Zipf(s = 1.1) from the two-keyword pool, served by the
/// in-process pool with the conjunctive result cache at its configured
/// budget. Same closed loop and overload-retry story as
/// `hot_keywords`, but every frame is a full multi-list intersection,
/// and the cache columns report the *conjunctive* cache — keyed by the
/// canonical (sorted) label set, so both keyword orders of a pair share
/// one entry.
fn run_conjunctive(
    outsource_frame: &bytes::BytesMut,
    owner: &DataOwner,
    pool: &[String],
    config: &ConjConfig,
    seed: u64,
    ndcg_at_10: f64,
) -> ConfigResult {
    let ConjConfig {
        cache_budget,
        workers,
        frames_per_client,
    } = *config;
    let name: &'static str = if cache_budget == 0 {
        "conjunctive_nocache"
    } else {
        "conjunctive"
    };
    let msg = Message::decode(outsource_frame.clone()).unwrap();
    let server = CloudServer::from_outsource_with_cache(msg, cache_budget)
        .expect("outsource frame boots the server");
    let handle =
        ServerHandle::spawn_pool_shared(Arc::new(server), PoolOptions::new(workers, BACKLOG));

    let start = Instant::now();
    let per_client: Vec<(Vec<Duration>, u64)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|client_idx| {
                let client = handle.client();
                let user = owner.authorize_user();
                scope.spawn(move || {
                    let mut sampler =
                        ZipfSampler::new(pool.len(), ZIPF_S, seed ^ (client_idx as u64) << 17);
                    let mut lats = Vec::with_capacity(frames_per_client);
                    let mut shed = 0u64;
                    for _ in 0..frames_per_client {
                        let query = &pool[sampler.sample()];
                        let req = user
                            .conjunctive_request(query, Some(10))
                            .expect("conjunctive request");
                        let sent = Instant::now();
                        let mut backoff = Duration::from_micros(100);
                        let resp = loop {
                            match client.call(req.clone()) {
                                Ok(resp) => break resp,
                                Err(CloudError::Server {
                                    kind: ErrorKind::Overloaded,
                                    ..
                                }) => {
                                    shed += 1;
                                    std::thread::sleep(backoff);
                                    backoff = (backoff * 2).min(Duration::from_millis(5));
                                }
                                Err(e) => panic!("reply lost: {e}"),
                            }
                        };
                        lats.push(sent.elapsed());
                        match resp {
                            Message::ConjunctiveResponse { .. } => {}
                            other => panic!("unexpected reply {other:?}"),
                        }
                    }
                    (lats, shed)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let shed_retries: u64 = per_client.iter().map(|(_, s)| s).sum();
    let mut latencies: Vec<Duration> = per_client.into_iter().flat_map(|(l, _)| l).collect();

    let frames = CLIENTS * frames_per_client;
    let cache = handle.server().conjunctive_cache_stats();
    let served = handle.shutdown();
    assert_eq!(served, frames as u64, "pool lost or double-counted frames");
    if cache_budget == 0 {
        assert_eq!(
            cache.hits + cache.misses,
            0,
            "disabled conjunctive cache must not count"
        );
    }

    latencies.sort_unstable();
    ConfigResult {
        scenario: name,
        workers,
        transport: "inproc",
        connections: 0,
        inflight_per_conn: 0,
        requests: frames,
        wall_s: wall.as_secs_f64(),
        rps: frames as f64 / wall.as_secs_f64(),
        p50_ms: percentile_ms(&latencies, 0.50),
        p99_ms: percentile_ms(&latencies, 0.99),
        shed_retries,
        shard_legs: 0,
        pruned_legs: 0,
        filter_fetches: 0,
        conjunctive_legs: 0,
        batched_queries: 0,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        replica_routed: Vec::new(),
        compactions: 0,
        compact_max_pause_ms: 0.0,
        compact_bytes: 0,
        ndcg_at_10,
    }
}

/// What one conjunctive sharded client hands back: latencies plus its
/// share of the conjunctive scatter counters.
struct ConjShardTally {
    lats: Vec<Duration>,
    conjunctive_legs: u64,
    pruned_legs: u64,
    filter_fetches: u64,
}

/// The sharded conjunctive arm: the same tuned router as `sharded`
/// (pruning, merged-result cache, two replica pools per shard), but
/// every query is a conjunctive scatter — one `ConjunctiveShardQuery`
/// leg per unpruned shard, partial intersections merged by `score_sum`
/// at the router, the merged ranking cached under the canonical label
/// set. The pool carries a rare-pair tail (a df <= 2 keyword in a
/// conjunction cannot intersect on every shard), and every
/// [`SHARD_UPDATE_PERIOD`]-th iteration publishes a document update,
/// churning filters and both cache layers.
fn run_conjunctive_sharded(
    docs: &[Document],
    pool: &[String],
    update_vocab: &[String],
    iterations_per_client: usize,
    shards: usize,
    seed: u64,
    ndcg_at_10: f64,
) -> ConfigResult {
    let params = RsseParams::default();
    let cloud = ShardedDeployment::bootstrap(
        b"throughput seed",
        params,
        docs,
        shards,
        &Storage::Mem,
        PoolOptions::new(1, BACKLOG),
        RouterOptions::new()
            .with_pruning()
            .with_merged_cache(ROUTER_CACHE_BUDGET)
            .with_replicas(SHARD_REPLICAS),
    )
    .expect("sharded bootstrap");
    let scheme = Rsse::new(b"throughput seed", params);
    let plain_index = InvertedIndex::build(docs);
    let crypter = FileCrypter::new(b"throughput seed");
    let partitioner = cloud.partitioner();

    let start = Instant::now();
    let per_client: Vec<ConjShardTally> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|client_idx| {
                let (cloud, scheme, plain_index, crypter) =
                    (&cloud, &scheme, &plain_index, &crypter);
                scope.spawn(move || {
                    let updater = scheme.updater_for(plain_index).expect("updater");
                    let mut query_sampler =
                        ZipfSampler::new(pool.len(), ZIPF_S, seed ^ (client_idx as u64) << 17);
                    let mut word_sampler = ZipfSampler::new(
                        update_vocab.len(),
                        ZIPF_S,
                        seed ^ (client_idx as u64) << 23,
                    );
                    let mut tally = ConjShardTally {
                        lats: Vec::with_capacity(iterations_per_client),
                        conjunctive_legs: 0,
                        pruned_legs: 0,
                        filter_fetches: 0,
                    };
                    for i in 0..iterations_per_client {
                        if (i + 1) % SHARD_UPDATE_PERIOD == 0 {
                            let id = (1u64 << 39) | ((client_idx as u64) << 32) | i as u64;
                            let words: Vec<&str> = (0..4)
                                .map(|_| update_vocab[word_sampler.sample()].as_str())
                                .collect();
                            let doc = Document::new(
                                FileId::new(id),
                                format!("{} churn{id}", words.join(" ")),
                            );
                            let update = updater.add_document(&doc).expect("update");
                            let file = crypter.encrypt(&doc);
                            let shard = partitioner.shard_of(doc.id());
                            cloud
                                .shard_server(shard)
                                .expect("shard exists")
                                .apply_update(update, vec![file]);
                            continue;
                        }
                        let query = &pool[query_sampler.sample()];
                        let sent = Instant::now();
                        let (docs, outcome) = cloud
                            .conjunctive_search(query, Some(10))
                            .expect("conjunctive scatter-gather query");
                        tally.lats.push(sent.elapsed());
                        assert!(docs.len() <= 10, "top-10 query returned {}", docs.len());
                        assert!(
                            outcome.is_complete(),
                            "no shard may degrade on a healthy deployment"
                        );
                        tally.conjunctive_legs += outcome.traffic.conjunctive_legs as u64;
                        tally.pruned_legs += outcome.traffic.pruned_legs as u64;
                        tally.filter_fetches += outcome.traffic.filter_fetches as u64;
                    }
                    tally
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();

    let requests: usize = per_client.iter().map(|t| t.lats.len()).sum();
    let conjunctive_legs: u64 = per_client.iter().map(|t| t.conjunctive_legs).sum();
    let pruned_legs: u64 = per_client.iter().map(|t| t.pruned_legs).sum();
    let filter_fetches: u64 = per_client.iter().map(|t| t.filter_fetches).sum();
    let mut latencies: Vec<Duration> = per_client.into_iter().flat_map(|t| t.lats).collect();

    // The cache columns report the router's *conjunctive* merged-result
    // cache; the per-shard conjunctive caches stay below the routing
    // layer this arm measures.
    let merged = cloud.router().conjunctive_merged_cache_stats();
    let replica_routed = cloud.router().replica_routing();
    let served = cloud.shutdown();
    assert_eq!(
        served,
        conjunctive_legs + filter_fetches,
        "every pool frame is a metered conjunctive leg or filter fetch"
    );

    latencies.sort_unstable();
    ConfigResult {
        scenario: "conjunctive_sharded",
        workers: shards,
        transport: "inproc",
        connections: 0,
        inflight_per_conn: 0,
        requests,
        wall_s: wall.as_secs_f64(),
        rps: requests as f64 / wall.as_secs_f64(),
        p50_ms: percentile_ms(&latencies, 0.50),
        p99_ms: percentile_ms(&latencies, 0.99),
        shed_retries: 0,
        shard_legs: 0,
        pruned_legs,
        filter_fetches,
        conjunctive_legs,
        batched_queries: 0,
        cache_hits: merged.hits,
        cache_misses: merged.misses,
        replica_routed,
        compactions: 0,
        compact_max_pause_ms: 0.0,
        compact_bytes: 0,
        ndcg_at_10,
    }
}

/// Warm-restart timings, each measured through the first answered query.
struct ColdStart {
    /// `RsseIndex::load` (full file into the in-memory arena) + search.
    index_full_load_s: f64,
    /// `RsseIndex::open_generational` on a one-generation store
    /// (manifest + directory only) + search.
    index_segment_open_s: f64,
    /// `Deployment::bootstrap` (index rebuilt from plaintext) + search.
    deploy_rebuild_s: f64,
    /// `Deployment::reopen` from that store (no index build) + search.
    deploy_from_segment_s: f64,
}

/// Time-to-first-query, mem versus on-disk store, at both layers. The mem
/// leg pays for materializing every posting list (index layer) or
/// rebuilding the whole encrypted index from plaintext (deployment
/// layer); the store leg opens a one-generation store and reads only the
/// one posting list the query touches. First-query results are asserted
/// identical before any number is published.
fn run_cold_start(docs: &[Document]) -> ColdStart {
    let params = RsseParams::default();
    let scheme = Rsse::new(b"throughput seed", params);
    let index = scheme.build_index(docs).expect("index build");
    let index_path = scratch_path("cold");
    index
        .save(std::fs::File::create(&index_path).expect("create index file"))
        .expect("save index");
    let store_dir = scratch_dir("cold");
    drop(index.save_generational(&store_dir).expect("save store"));
    let trapdoor = scheme.trapdoor(HOT_KEYWORD).expect("trapdoor");

    let t = Instant::now();
    let mem = RsseIndex::load(std::fs::File::open(&index_path).expect("open")).expect("load");
    let mem_first = mem.search(&trapdoor, Some(10));
    let index_full_load_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let seg = RsseIndex::open_generational(&store_dir).expect("open store");
    let seg_first = seg.search(&trapdoor, Some(10));
    let index_segment_open_s = t.elapsed().as_secs_f64();
    assert_eq!(
        seg_first, mem_first,
        "first queries must agree byte for byte"
    );

    let t = Instant::now();
    let rebuilt = Deployment::bootstrap(
        b"throughput seed",
        params,
        docs,
        &Storage::Mem,
        CloudServer::DEFAULT_CACHE_BUDGET,
    )
    .expect("bootstrap");
    let (rebuilt_docs, _) = rebuilt.rsse_search(HOT_KEYWORD, Some(10)).expect("query");
    let deploy_rebuild_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let warm = Deployment::reopen(
        b"throughput seed",
        params,
        docs,
        &store_dir,
        CloudServer::DEFAULT_CACHE_BUDGET,
    )
    .expect("reopen from the store");
    let (warm_docs, _) = warm.rsse_search(HOT_KEYWORD, Some(10)).expect("query");
    let deploy_from_segment_s = t.elapsed().as_secs_f64();
    assert_eq!(
        warm_docs, rebuilt_docs,
        "warm restart must retrieve the same ranked documents"
    );

    let _ = std::fs::remove_file(&index_path);
    let _ = std::fs::remove_dir_all(&store_dir);
    ColdStart {
        index_full_load_s,
        index_segment_open_s,
        deploy_rebuild_s,
        deploy_from_segment_s,
    }
}

fn write_json(path: &str, seed: u64, cold: &ColdStart, results: &[ConfigResult]) {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"server_pool_throughput\",\n");
    out.push_str("  \"corpus\": \"paper_1000\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"clients\": {CLIENTS},\n"));
    out.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    out.push_str(&format!(
        "  \"io_delay_ms\": {},\n",
        IO_DELAY.as_secs_f64() * 1e3
    ));
    out.push_str(&format!("  \"cpu_batch\": {CPU_BATCH},\n"));
    out.push_str(&format!("  \"zipf_s\": {ZIPF_S},\n"));
    out.push_str(&format!("  \"shard_rare_vocab\": {SHARD_RARE_VOCAB},\n"));
    out.push_str(&format!(
        "  \"shard_update_period\": {SHARD_UPDATE_PERIOD},\n"
    ));
    out.push_str(&format!("  \"shard_replicas\": {SHARD_REPLICAS},\n"));
    out.push_str(&format!(
        "  \"transport_inflight\": {TRANSPORT_INFLIGHT},\n"
    ));
    out.push_str(&format!(
        "  \"cold_start\": {{\"index_full_load_ms\": {:.3}, \
         \"index_segment_open_ms\": {:.3}, \"deploy_rebuild_ms\": {:.3}, \
         \"deploy_from_segment_ms\": {:.3}}},\n",
        cold.index_full_load_s * 1e3,
        cold.index_segment_open_s * 1e3,
        cold.deploy_rebuild_s * 1e3,
        cold.deploy_from_segment_s * 1e3,
    ));
    out.push_str("  \"configs\": [\n");
    for (i, r) in results.iter().enumerate() {
        let baseline = results
            .iter()
            .find(|b| b.scenario == r.scenario && b.workers == 1)
            .expect("single-worker baseline present");
        let replica_routed = r
            .replica_routed
            .iter()
            .map(|shard| {
                let counts = shard
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("[{counts}]")
            })
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"workers\": {}, \"transport\": \"{}\", \
             \"connections\": {}, \"inflight_per_conn\": {}, \"requests\": {}, \
             \"wall_s\": {:.4}, \"requests_per_s\": {:.1}, \"p50_ms\": {:.3}, \
             \"p99_ms\": {:.3}, \"shed_retries\": {}, \"shard_legs\": {}, \
             \"pruned_legs\": {}, \"filter_fetches\": {}, \
             \"conjunctive_legs\": {}, \
             \"batched_queries\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"replica_routed\": [{}], \"compactions\": {}, \
             \"compact_max_pause_ms\": {:.3}, \"compact_bytes\": {}, \
             \"ndcg_at_10\": {:.4}, \
             \"speedup_vs_1_worker\": {:.2}}}{}\n",
            r.scenario,
            r.workers,
            r.transport,
            r.connections,
            r.inflight_per_conn,
            r.requests,
            r.wall_s,
            r.rps,
            r.p50_ms,
            r.p99_ms,
            r.shed_retries,
            r.shard_legs,
            r.pruned_legs,
            r.filter_fetches,
            r.conjunctive_legs,
            r.batched_queries,
            r.cache_hits,
            r.cache_misses,
            replica_routed,
            r.compactions,
            r.compact_max_pause_ms,
            r.compact_bytes,
            r.ndcg_at_10,
            r.rps / baseline.rps,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write BENCH_throughput.json");
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let out_path = args.first().cloned().unwrap_or_else(|| {
        if smoke {
            "target/BENCH_throughput.smoke.json".to_string()
        } else {
            "results/BENCH_throughput.json".to_string()
        }
    });
    let seed: u64 = args
        .get(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(42);
    // Smoke mode: shrink every count to prove the harness, not the host.
    let scaled = |n: usize| if smoke { (n / 10).max(2) } else { n };

    eprintln!("building paper corpus (seed {seed})...");
    let (corpus, plain_index) = paper_corpus(seed);
    let vocab = top_terms(&plain_index, ZIPF_VOCAB);
    assert!(vocab.len() >= 2, "paper corpus vocabulary too small");
    // Sharded workload: the same hot head plus a rare (df <= 2) tail —
    // the keywords whose scatters the label filters can prune.
    let mut shard_vocab = vocab.clone();
    shard_vocab.extend(rare_terms(&plain_index, SHARD_RARE_VOCAB, 2));
    assert!(
        shard_vocab.len() > vocab.len(),
        "paper corpus must have rare terms for the prunable tail"
    );
    // Conjunctive query pools: a hot pool of two-keyword sets for the
    // serving pair, plus a rare-pair tail for the sharded arm (a
    // conjunction containing a df <= 2 keyword cannot intersect on every
    // shard, so its scatter legs are prunable).
    let conj_pool = conjunctive_pool(&vocab);
    let mut conj_shard_pool = conj_pool.clone();
    for (i, rare) in shard_vocab[vocab.len()..].iter().take(4).enumerate() {
        conj_shard_pool.push(format!("{rare} {}", vocab[i]));
    }
    let owner = DataOwner::new(b"throughput seed", RsseParams::default());
    let outsource_frame = owner
        .outsource(corpus.documents())
        .expect("outsource")
        .encode();

    eprintln!("measuring conjunctive rank quality (NDCG@{NDCG_K} vs exact re-rank)...");
    let ndcg = {
        let scheme = Rsse::new(b"throughput seed", RsseParams::default());
        let enc_index = scheme
            .build_index(corpus.documents())
            .expect("index build for NDCG");
        measure_conjunctive_ndcg(&scheme, &enc_index, &plain_index, &conj_pool)
    };
    eprintln!("conjunctive NDCG@{NDCG_K} (score_sum heuristic vs exact IDF re-rank): {ndcg:.4}");
    assert!(
        ndcg.is_finite() && ndcg > 0.0 && ndcg <= 1.0 + 1e-9,
        "NDCG@{NDCG_K} must land in (0, 1], got {ndcg}"
    );

    let scenarios = [
        Scenario {
            name: "cpu",
            io_delay: None,
            frames_per_client: scaled(20),
            backlog: BACKLOG,
            batch: CPU_BATCH,
            cache_budget: 0,
            zipf: false,
            segment: false,
            workers: &WORKER_COUNTS,
        },
        Scenario {
            name: "io_sim",
            io_delay: Some(IO_DELAY),
            frames_per_client: scaled(60),
            backlog: BACKLOG,
            batch: 1,
            cache_budget: CloudServer::DEFAULT_CACHE_BUDGET,
            zipf: false,
            segment: false,
            workers: &WORKER_COUNTS,
        },
        // Deliberately undersized admission queue: 8 clients against a
        // 2-slot backlog force overload shedding, exercising the
        // Overloaded error frame + client retry path under load.
        Scenario {
            name: "overload",
            io_delay: Some(Duration::from_millis(1)),
            frames_per_client: scaled(40),
            backlog: 2,
            batch: 1,
            cache_budget: CloudServer::DEFAULT_CACHE_BUDGET,
            zipf: false,
            segment: false,
            workers: &WORKER_COUNTS,
        },
        // The tentpole pair: a paper-style Zipf query log served with and
        // without the ranking cache, same corpus, same worker counts.
        Scenario {
            name: "hot_keywords",
            io_delay: None,
            frames_per_client: scaled(150),
            backlog: BACKLOG,
            batch: 1,
            cache_budget: CloudServer::DEFAULT_CACHE_BUDGET,
            zipf: true,
            segment: false,
            workers: &[1, 4],
        },
        Scenario {
            name: "hot_keywords_nocache",
            io_delay: None,
            frames_per_client: scaled(150),
            backlog: BACKLOG,
            batch: 1,
            cache_budget: 0,
            zipf: true,
            segment: false,
            workers: &[1, 4],
        },
        // The storage-engine pair to "cpu": same batched compute-bound
        // workload, but every posting list is read by position from a
        // one-generation on-disk store instead of the in-memory arena.
        Scenario {
            name: "cpu_segment",
            io_delay: None,
            frames_per_client: scaled(20),
            backlog: BACKLOG,
            batch: CPU_BATCH,
            cache_budget: 0,
            zipf: false,
            segment: true,
            workers: &[1, 4],
        },
    ];

    eprintln!("measuring cold start (mem load vs store open)...");
    let cold = run_cold_start(corpus.documents());
    eprintln!(
        "cold start: index load {:.1} ms vs store open {:.1} ms; \
         deployment rebuild {:.1} ms vs from-store {:.1} ms",
        cold.index_full_load_s * 1e3,
        cold.index_segment_open_s * 1e3,
        cold.deploy_rebuild_s * 1e3,
        cold.deploy_from_segment_s * 1e3,
    );

    let mut results = Vec::new();
    let print_row = |r: &ConfigResult| {
        println!(
            "{},{},{},{},{},{},{:.4},{:.1},{:.3},{:.3},{},{},{},{},{},{},{},{},{:.4}",
            r.scenario,
            r.workers,
            r.transport,
            r.connections,
            r.inflight_per_conn,
            r.requests,
            r.wall_s,
            r.rps,
            r.p50_ms,
            r.p99_ms,
            r.shed_retries,
            r.shard_legs,
            r.pruned_legs,
            r.filter_fetches,
            r.conjunctive_legs,
            r.cache_hits,
            r.cache_misses,
            r.compactions,
            r.ndcg_at_10
        );
    };
    println!(
        "scenario,workers,transport,connections,inflight_per_conn,requests,\
         wall_s,requests_per_s,p50_ms,p99_ms,shed_retries,shard_legs,\
         pruned_legs,filter_fetches,conjunctive_legs,cache_hits,\
         cache_misses,compactions,ndcg_at_10"
    );
    for scenario in &scenarios {
        for &workers in scenario.workers {
            let r = run_config(&outsource_frame, &owner, &vocab, scenario, workers, seed);
            print_row(&r);
            results.push(r);
        }
    }

    // Conjunctive serving pair: the Zipf two-keyword log with the
    // conjunctive result cache at its default budget and disabled —
    // pushed cached-leg-first so the JSON speedup column divides by the
    // cached single-worker baseline.
    for cache_budget in [CloudServer::DEFAULT_CACHE_BUDGET, 0] {
        for &workers in &[1usize, 4] {
            let config = ConjConfig {
                cache_budget,
                workers,
                frames_per_client: scaled(100),
            };
            let r = run_conjunctive(&outsource_frame, &owner, &conj_pool, &config, seed, ndcg);
            print_row(&r);
            results.push(r);
        }
    }

    // Generational-store churn pair: the same Zipf single-query log with
    // an update stream folded in, without and with the live compactor
    // riding beside the pool.
    for compact in [false, true] {
        for &workers in &[1usize, 4] {
            let config = ChurnConfig {
                frames_per_client: scaled(400),
                workers,
                compact,
            };
            let r = run_churn(
                &outsource_frame,
                &owner,
                corpus.documents(),
                &vocab,
                &config,
                seed,
            );
            print_row(&r);
            results.push(r);
        }
    }

    // Scatter-gather scenario: the "workers" column is the shard count
    // (two replica pools per shard).
    for &shards in &WORKER_COUNTS {
        let r = run_sharded(corpus.documents(), &shard_vocab, scaled(400), shards, seed);
        print_row(&r);
        results.push(r);
    }

    // Sharded conjunctive arm: the same tuned router serving the
    // two-keyword log as conjunctive scatters, rare-pair tail included.
    for &shards in &[1usize, 4] {
        let r = run_conjunctive_sharded(
            corpus.documents(),
            &conj_shard_pool,
            &vocab,
            scaled(200),
            shards,
            seed,
            ndcg,
        );
        print_row(&r);
        results.push(r);
    }

    // Transport axis: the same compute-bound hot-keyword workload over
    // the simulated channel transport (the baseline row, pushed first so
    // the JSON speedup column divides by it) and over real loopback TCP
    // at increasing connection counts and a deeper pool. All rows move
    // identical frames; only the wire differs.
    let transport_rows: [(bool, usize, usize); 4] = [
        (false, 1, 64), // channel baseline
        (true, 1, 8),
        (true, 1, 64), // gated against the channel row below
        (true, 2, 64),
    ];
    for &(tcp, workers, connections) in &transport_rows {
        let r = run_transport(
            &outsource_frame,
            &owner,
            tcp,
            workers,
            connections,
            scaled(40),
        );
        print_row(&r);
        results.push(r);
    }

    write_json(&out_path, seed, &cold, &results);
    eprintln!("wrote {out_path}");

    // Functional invariants hold even in smoke mode: the cached Zipf leg
    // must actually hit (every keyword past its first read is a prefix
    // copy), and the uncached leg must never count.
    let find = |scenario: &str, workers: usize| {
        results
            .iter()
            .find(|r| r.scenario == scenario && r.workers == workers)
            .unwrap_or_else(|| panic!("missing config {scenario}/{workers}"))
    };
    for &workers in &[1usize, 4] {
        let cached = find("hot_keywords", workers);
        assert!(
            cached.cache_hits > 0,
            "Zipf workload must hit the cache (workers={workers})"
        );
        // Misses are bounded by the vocabulary plus a small concurrency
        // slack: workers that race on the same cold label each count a
        // miss before the first fill lands (the epoch guard keeps the
        // *answers* coherent, not the counter).
        let miss_bound = ZIPF_VOCAB + workers;
        assert!(
            cached.cache_misses as usize <= miss_bound,
            "misses are bounded by vocabulary + workers: {} > {miss_bound}",
            cached.cache_misses
        );
        let uncached = find("hot_keywords_nocache", workers);
        assert_eq!(uncached.cache_hits + uncached.cache_misses, 0);
    }
    // Same invariants for the conjunctive pair: the cache is keyed by
    // the canonical label set, so misses are bounded by the pool's
    // distinct sets plus the same cold-fill concurrency slack.
    for &workers in &[1usize, 4] {
        let cached = find("conjunctive", workers);
        assert!(
            cached.cache_hits > 0,
            "conjunctive Zipf workload must hit the cache (workers={workers})"
        );
        let miss_bound = conj_pool.len() + workers;
        assert!(
            cached.cache_misses as usize <= miss_bound,
            "conjunctive misses are bounded by pool + workers: {} > {miss_bound}",
            cached.cache_misses
        );
        let uncached = find("conjunctive_nocache", workers);
        assert_eq!(uncached.cache_hits + uncached.cache_misses, 0);
    }
    // The sharded conjunctive arm's accounting must close: every pool
    // frame it paid for is a metered conjunctive leg or filter fetch
    // (asserted inside the run), and every scatter sent at most one leg
    // per shard.
    for &shards in &[1usize, 4] {
        let r = find("conjunctive_sharded", shards);
        assert!(
            r.conjunctive_legs + r.pruned_legs <= (r.requests * shards) as u64,
            "conjunctive scatters may not exceed one leg per shard per query"
        );
    }

    if smoke {
        eprintln!("smoke mode: skipping perf gates and equivalence suite");
        return;
    }

    // Smoke gate: a sharded throughput number is only worth publishing if
    // sharding provably never changes a ranking, so the bench refuses to
    // pass unless the equivalence harness does.
    eprintln!("running shard-equivalence smoke suite...");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = std::process::Command::new(cargo)
        .args(["test", "-q", "-p", "rsse", "--test", "shard_equivalence"])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .status()
        .expect("spawn cargo test");
    assert!(
        status.success(),
        "shard-equivalence smoke suite failed; sharded numbers are void"
    );

    // Acceptance gate 1: in the I/O-overlap regime a 4-worker pool must
    // sustain at least 2.5x the single-worker requests/s.
    let speedup = find("io_sim", 4).rps / find("io_sim", 1).rps;
    eprintln!("io_sim 4-worker speedup vs 1 worker: {speedup:.2}x");
    assert!(
        speedup >= 2.5,
        "4-worker pool must sustain >= 2.5x single-worker throughput, got {speedup:.2}x"
    );

    // Acceptance gate 2: with the audit lock gone and requests batched,
    // extra workers on the compute-bound path are no longer a *loss* —
    // workers=4 holds at least 90% of workers=1 even on a single core
    // (the old RwLock audit path dropped well below that).
    let cpu_ratio = find("cpu", 4).rps / find("cpu", 1).rps;
    eprintln!("cpu 4-worker throughput vs 1 worker: {cpu_ratio:.2}x");
    assert!(
        cpu_ratio >= 0.9,
        "4 workers must not lose to 1 on the batched compute path, got {cpu_ratio:.2}x"
    );

    // Acceptance gate 3: the ranking cache buys at least 3x on the Zipf
    // workload at the same worker count.
    for &workers in &[1usize, 4] {
        let gain = find("hot_keywords", workers).rps / find("hot_keywords_nocache", workers).rps;
        eprintln!("hot_keywords cache gain at {workers} worker(s): {gain:.2}x");
        assert!(
            gain >= 3.0,
            "ranking cache must buy >= 3x on the Zipf workload \
             (workers={workers}), got {gain:.2}x"
        );
    }

    // Acceptance gate 3b: the conjunctive result cache buys at least 2x
    // on the Zipf two-keyword log at the same worker count — a hit skips
    // the whole multi-list intersection, not just one ranking pass.
    for &workers in &[1usize, 4] {
        let gain = find("conjunctive", workers).rps / find("conjunctive_nocache", workers).rps;
        eprintln!("conjunctive cache gain at {workers} worker(s): {gain:.2}x");
        assert!(
            gain >= 2.0,
            "conjunctive cache must buy >= 2x on the Zipf two-keyword \
             workload (workers={workers}), got {gain:.2}x"
        );
    }

    // Acceptance gate 4: steady-state serving from a one-generation
    // on-disk store holds at least half the in-memory arena's throughput
    // on the compute-bound path — positional reads are the only
    // difference.
    for &workers in &[1usize, 4] {
        let ratio = find("cpu_segment", workers).rps / find("cpu", workers).rps;
        eprintln!("cpu_segment vs cpu at {workers} worker(s): {ratio:.2}x");
        assert!(
            ratio >= 0.5,
            "on-disk store must hold >= 0.5x mem throughput \
             (workers={workers}), got {ratio:.2}x"
        );
    }

    // Acceptance gate 4b: live compaction must never eat the serving
    // path. The churn leg with the compactor riding beside the pool
    // holds at least 0.8x the no-compaction baseline's requests/s, and
    // the compactor provably ran — generations merged, bytes rewritten,
    // install pauses measured.
    for &workers in &[1usize, 4] {
        let base = find("cpu_segment_churn", workers);
        let live = find("cpu_segment_churn_compact", workers);
        assert!(
            live.compactions > 0 && live.compact_bytes > 0,
            "the churn-compact leg must run real compactions (workers={workers})"
        );
        let ratio = live.rps / base.rps;
        eprintln!(
            "cpu_segment_churn with live compaction at {workers} worker(s): \
             {ratio:.2}x baseline, {} merges, max install pause {:.3} ms",
            live.compactions, live.compact_max_pause_ms
        );
        assert!(
            ratio >= 0.8,
            "live compaction must hold >= 0.8x the no-compaction churn \
             baseline (workers={workers}), got {ratio:.2}x"
        );
    }

    // Acceptance gate 5: the tuned router must make the fan-out pay for
    // itself — on the churny Zipf workload, 8 shards hold at least the
    // single-shard requests/s even on one core (pruned rare-tail legs,
    // merged-result hits, and shard-local invalidation versus full-list
    // re-ranks). A measurement too short to trust is also a failure:
    // every sharded config must run at least half a second.
    for &shards in &WORKER_COUNTS {
        let r = find("sharded", shards);
        assert!(
            r.wall_s >= 0.5,
            "sharded/{shards} ran only {:.3}s; scale the workload up",
            r.wall_s
        );
    }
    let sharded_speedup = find("sharded", 8).rps / find("sharded", 1).rps;
    eprintln!("sharded 8-shard throughput vs 1 shard: {sharded_speedup:.2}x");
    assert!(
        sharded_speedup >= 1.0,
        "8 shards must not lose to 1 on the churny Zipf workload, \
         got {sharded_speedup:.2}x"
    );
    let eight = find("sharded", 8);
    assert!(
        eight.pruned_legs > 0,
        "the rare-term tail must exercise label-filter pruning"
    );
    // Gate 5b: conjunctive pruning must fire too — a rare-pair query's
    // legs are provably empty on every shard missing the rare keyword,
    // so the 4-shard conjunctive arm must have skipped some.
    let conj_four = find("conjunctive_sharded", 4);
    assert!(
        conj_four.pruned_legs > 0,
        "the rare-pair tail must exercise conjunctive label-filter pruning"
    );

    // Acceptance gate 6: the warm restart actually is warm — opening the
    // store through the first query beats materializing the full index,
    // and a deployment reopened from the store beats rebuilding the
    // encrypted index from plaintext.
    assert!(
        cold.index_segment_open_s <= cold.index_full_load_s,
        "store open ({:.1} ms) must not exceed full load ({:.1} ms)",
        cold.index_segment_open_s * 1e3,
        cold.index_full_load_s * 1e3,
    );
    assert!(
        cold.deploy_from_segment_s < cold.deploy_rebuild_s,
        "reopen from the store ({:.1} ms) must beat a rebuild ({:.1} ms)",
        cold.deploy_from_segment_s * 1e3,
        cold.deploy_rebuild_s * 1e3,
    );

    // Acceptance gate 7: real sockets must not eat the serving layer.
    // At 64 pipelined loopback connections the TCP event loop holds at
    // least 0.7x the in-process channel transport's requests/s on the
    // identical compute-bound workload.
    let transport_row = |kind: &str, workers: usize, connections: usize| {
        results
            .iter()
            .find(|r| {
                r.scenario == "transport"
                    && r.transport == kind
                    && r.workers == workers
                    && r.connections == connections
            })
            .unwrap_or_else(|| panic!("missing transport row {kind}/{workers}/{connections}"))
    };
    let tcp_ratio = transport_row("tcp", 1, 64).rps / transport_row("channel", 1, 64).rps;
    eprintln!("tcp vs channel at 64 pipelined connections: {tcp_ratio:.2}x");
    assert!(
        tcp_ratio >= 0.7,
        "loopback TCP at 64 pipelined connections must hold >= 0.7x the \
         channel transport, got {tcp_ratio:.2}x"
    );
}
