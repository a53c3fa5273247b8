//! The sharded workload: two shards of two replica pools each behind the
//! in-process router, with label-filter pruning and the merged-result
//! cache, driven by two closed-loop clients.

use crate::check::{self, DocBook, Verdict};
use crate::maint::{self, UpdateCounter};
use crate::stats::{self, Report, Samples};
use crate::trace::Recorder;
use crate::workload::{ndcg_pairs, Inputs, Op, CLIENT_THREADS, TOP_K};
use crate::{Config, EndToEnd, PhaseResult, Tally, MASTER, REPLAY_OP, SETUP_OP};
use rsse_cloud::{
    CloudServer, DataOwner, FileCrypter, IndexPartitioner, Message, PoolOptions, RouterOptions,
    ServerHandle, ShardRouter, TrafficReport, User,
};
use rsse_core::{IndexUpdater, Rsse, RsseParams};
use rsse_ir::Document;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const REPLICAS: usize = 2;
const ROUTER_CACHE_BUDGET: usize = 4 << 20;
const POOL_WORKERS: usize = 1;
const POOL_BACKLOG: usize = 64;
/// Operations per client at the nominal ten seconds.
const OPS: u64 = 12_400;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Cluster {
    router: ShardRouter,
    handles: Vec<ServerHandle>,
    servers: Vec<Arc<CloudServer>>,
    partitioner: IndexPartitioner,
    upload_bytes: usize,
}

/// One set-up, plaintext corpus to first verified reply: the owner
/// partitions its index and files across the shards, each shard boots
/// from its own Outsource frame and installs the owner's label filter.
fn deploy(
    inputs: &Inputs,
    book: &DocBook,
    rec: &mut Recorder,
    rep: usize,
    traffic: &mut TrafficReport,
) -> (Cluster, Verdict, f64) {
    let t0 = Instant::now();
    let owner = DataOwner::new(MASTER, RsseParams::default());
    let partitioner = IndexPartitioner::new(SHARDS);
    let (outsource, labels) = owner
        .outsource_sharded_with_filters(&inputs.docs, &partitioner)
        .expect("owner builds the shard Outsource messages");
    let t1 = Instant::now();
    let frames: Vec<_> = outsource.into_iter().map(|m| m.encode()).collect();
    let upload_bytes = frames.iter().map(|f| f.len()).sum();
    let t2 = Instant::now();
    let decoded: Vec<Message> = frames
        .into_iter()
        .map(|f| Message::decode(f).expect("Outsource frame decodes"))
        .collect();
    let t3 = Instant::now();
    let mut servers = Vec::new();
    let mut handles = Vec::new();
    let mut replicas = Vec::new();
    for (msg, labels) in decoded.into_iter().zip(labels) {
        let server =
            Arc::new(CloudServer::from_outsource(msg).expect("shard boots from its frame"));
        server.install_label_filter(labels);
        let pools: Vec<ServerHandle> = (0..REPLICAS)
            .map(|_| {
                ServerHandle::spawn_pool_shared(
                    Arc::clone(&server),
                    PoolOptions::new(POOL_WORKERS, POOL_BACKLOG),
                )
            })
            .collect();
        replicas.push(pools.iter().map(ServerHandle::client).collect());
        handles.extend(pools);
        servers.push(server);
    }
    let watches = servers.iter().map(|s| s.filter_watch()).collect();
    let options = RouterOptions::new()
        .with_pruning()
        .with_merged_cache(ROUTER_CACHE_BUDGET)
        .with_replicas(REPLICAS);
    let router = ShardRouter::tuned(replicas, watches, options);
    let t4 = Instant::now();
    let cluster = Cluster {
        router,
        handles,
        servers,
        partitioner,
        upload_bytes,
    };
    let user = User::new(MASTER, RsseParams::default());
    let verdict = scatter(inputs, &cluster, &user, book, Op::Search(0), traffic).verdict;
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
    (cluster, verdict, (t5 - t0).as_secs_f64())
}

pub fn run(cfg: &Config, inputs: &Inputs, report: &mut Report, rec: &mut Recorder) -> Tally {
    let mut tally = Tally::default();
    let book = DocBook::new(&inputs.docs);
    let mut setup_s = Vec::new();
    let mut deployed: Option<Cluster> = None;
    // Traffic of every scatter against the final cluster.
    let mut traffic = TrafficReport::default();
    let mut setup_peak_mb = 0.0;
    for rep in 0..cfg.setup_reps() {
        if let Some(old) = deployed.take() {
            drop(old.router);
            for h in old.handles {
                h.shutdown();
            }
            traffic = TrafficReport::default();
        }
        let (c, verdict, secs) = deploy(inputs, &book, rec, rep, &mut traffic);
        tally.attempted += 1;
        tally.judge(verdict);
        setup_s.push(secs);
        if rep == 0 {
            // Later set-ups land in the memory the previous one freed,
            // as unevenly as the allocator's per-thread arenas allow.
            setup_peak_mb = crate::peak_rss_mb();
        }
        deployed = Some(c);
    }
    let c = deployed.expect("at least one set-up");
    let user = User::new(MASTER, RsseParams::default());
    let scheme = Rsse::new(MASTER, RsseParams::default());

    let mut ndcg = Vec::new();
    for terms in ndcg_pairs(&inputs.vocab) {
        tally.attempted += 1;
        let reply = scatter_conjunctive(&c, &user, &book, terms, &mut traffic);
        ndcg.push(check::ndcg_at_10(&inputs.index, terms, &reply.ids));
        tally.judge(reply.verdict);
    }
    for v in 0..inputs.vocab.len() {
        tally.attempted += 1;
        tally.judge(scatter(inputs, &c, &user, &book, Op::Search(v), &mut traffic).verdict);
    }

    let (counter, maintenance) = maint::spawn(c.servers.clone(), Vec::new());
    let barrier = Barrier::new(CLIENT_THREADS);
    let per_thread: Vec<ThreadResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|t| {
                let (c, book, counter, barrier, scheme) = (&c, &book, &counter, &barrier, &scheme);
                s.spawn(move || client(cfg, inputs, c, book, counter, barrier, scheme, t))
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

    let mut phase = PhaseResult::default();
    let mut phase_traffic = TrafficReport::default();
    let (mut singles, mut conjs, mut no_leg) = (0u64, 0u64, 0u64);
    let (mut hit_us, mut miss_us) = (Samples::default(), Samples::default());
    for t in per_thread {
        phase.merge(t.phase);
        phase_traffic.absorb(&t.traffic);
        singles += t.singles;
        conjs += t.conjs;
        no_leg += t.no_leg;
        hit_us.extend(t.hit_us);
        miss_us.extend(t.miss_us);
        rec.absorb(t.rec);
    }
    traffic.absorb(&phase_traffic);
    tally.count(&phase);

    let merged = c.router.merged_cache_stats();
    let conj_merged = c.router.conjunctive_merged_cache_stats();
    let routing = c.router.replica_routing();
    let mut audit = rsse_cloud::ServingReport::default();
    let (mut cache_hits, mut cache_lookups, mut driver_entries) = (0, 0, 0);
    let (mut conj_hits, mut conj_lookups) = (0, 0);
    for s in &c.servers {
        let r = s.serving_report();
        audit.searches += r.searches;
        audit.conjunctive += r.conjunctive;
        audit.shard_queries += r.shard_queries;
        audit.conjunctive_shard_queries += r.conjunctive_shard_queries;
        audit.updates += r.updates;
        audit.filter_fetches += r.filter_fetches;
        audit.rejected += r.rejected;
        audit.panics += r.panics;
        audit.cache_hits += r.cache_hits;
        audit.cache_misses += r.cache_misses;
        let cache = s.cache_stats();
        cache_hits += cache.hits;
        cache_lookups += cache.hits + cache.misses;
        let conj = s.conjunctive_cache_stats();
        conj_hits += conj.hits;
        conj_lookups += conj.hits + conj.misses;
        driver_entries += s.conjunctive_stats().driver_entries;
    }
    drop(c.router);
    let served: u64 = c.handles.into_iter().map(ServerHandle::shutdown).sum();
    let legs = u64::from(traffic.shard_legs + traffic.conjunctive_legs);
    tally.require(
        served == legs + u64::from(traffic.filter_fetches),
        "served == legs + filter_fetches",
    );
    tally.require(
        audit.cache_hits + audit.cache_misses
            == audit.shard_queries + audit.conjunctive_shard_queries,
        "cache hits + misses == lookups",
    );
    tally.require(
        audit.updates == 0,
        "updates reach the shards in process, not as frames",
    );

    EndToEnd {
        setup_s: &setup_s,
        setup_peak_mb,
        light: &phase,
        loaded: &phase,
        updates: &phase,
        upload_bytes: c.upload_bytes,
        ndcg: stats::mean(&ndcg),
    }
    .emit(report);

    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let searches = singles + conjs;
    report.metric("cache.hit_ratio", ratio(cache_hits, cache_lookups), "ratio");
    report.metric(
        "cache.conj_hit_ratio",
        ratio(conj_hits, conj_lookups),
        "ratio",
    );
    crate::emit_audit(report, &audit);
    crate::emit_bypassed(
        report,
        &["tcp.overloaded", "tcp.garbled", "tcp.backpressure_stalls"],
    );
    report.metric(
        "wire.bytes_up_per_op",
        ratio(phase_traffic.bytes_up as u64, searches),
        "bytes",
    );
    report.metric(
        "wire.bytes_down_per_op",
        ratio(phase_traffic.bytes_down as u64, searches),
        "bytes",
    );
    crate::emit_store(report, &store, 0);
    report.metric(
        "shard.legs_per_op",
        ratio(phase_traffic.shard_legs.into(), singles),
        "count",
    );
    report.metric(
        "shard.pruned_per_op",
        ratio(phase_traffic.pruned_legs.into(), searches),
        "count",
    );
    report.metric(
        "shard.conj_legs_per_op",
        ratio(phase_traffic.conjunctive_legs.into(), conjs),
        "count",
    );
    report.metric(
        "shard.filter_fetches_per_op",
        ratio(phase_traffic.filter_fetches.into(), searches),
        "count",
    );
    report.metric(
        "shard.router_hit_ratio",
        ratio(merged.hits, merged.hits + merged.misses),
        "ratio",
    );
    report.metric(
        "shard.router_conj_hit_ratio",
        ratio(conj_merged.hits, conj_merged.hits + conj_merged.misses),
        "ratio",
    );
    let imbalance = routing
        .iter()
        .map(|counts| {
            let max = counts.iter().copied().max().unwrap_or(0);
            ratio(max * counts.len() as u64, counts.iter().sum())
        })
        .fold(0.0, f64::max);
    report.metric("shard.replica_imbalance", imbalance, "ratio");
    report.metric("shard.no_leg_frac", ratio(no_leg, searches), "ratio");
    let conj_scatters = u64::from(traffic.conjunctive_queries);
    report.metric(
        "core.conj_driver_entries_per_op",
        ratio(driver_entries, conj_scatters),
        "count",
    );
    if cfg.trace {
        report.metric("shard.search_us_hit", hit_us.pct(50.0) * 1e3, "us");
        report.metric("shard.search_us_miss", miss_us.pct(50.0) * 1e3, "us");
        tally.failed += replay(cfg, inputs, &c.servers[0], &scheme, &user, rec);
        tally.attempted += cfg.replay_ops() as u64;
    }
    tally
}

/// Replays sampled single-keyword legs into shard 0's
/// `CloudServer::handle` and `RsseIndex::search`. Returns the replies
/// that were not shard rankings.
fn replay(
    cfg: &Config,
    inputs: &Inputs,
    server: &CloudServer,
    scheme: &Rsse,
    user: &User,
    rec: &mut Recorder,
) -> u64 {
    let mut failed = 0;
    for i in 0..cfg.replay_ops() {
        let term = &inputs.vocab[(i * 7919) % inputs.vocab.len()];
        let leg = user
            .shard_query(term, Some(TOP_K), SHARDS as u32)
            .expect("index terms make trapdoors")
            .swap_remove(0);
        let trapdoor = scheme.trapdoor(term).expect("index terms make trapdoors");
        let t0 = Instant::now();
        let reply = server.handle(leg);
        let t1 = Instant::now();
        server.rsse_index().search(&trapdoor, Some(TOP_K as usize));
        let t2 = Instant::now();
        rec.op(
            "replay",
            REPLAY_OP + i as u64,
            t0,
            t2,
            &[("server.handle", t0, t1), ("core.search", t1, t2)],
        );
        failed += u64::from(!matches!(reply, Ok(Message::ShardReply { .. })));
    }
    failed
}

struct ThreadResult {
    phase: PhaseResult,
    traffic: TrafficReport,
    singles: u64,
    conjs: u64,
    /// Searches answered without sending a leg (router cache or pruning).
    no_leg: u64,
    hit_us: Samples,
    miss_us: Samples,
    rec: Recorder,
}

#[allow(clippy::too_many_arguments)]
fn client(
    cfg: &Config,
    inputs: &Inputs,
    c: &Cluster,
    book: &DocBook,
    counter: &UpdateCounter,
    barrier: &Barrier,
    scheme: &Rsse,
    thread: usize,
) -> ThreadResult {
    let user = User::new(MASTER, RsseParams::default());
    let updater: IndexUpdater<'_> = scheme
        .updater_for(&inputs.index)
        .expect("the owner's updater fits the corpus");
    let crypter = FileCrypter::new(MASTER);
    let mut r = ThreadResult {
        phase: PhaseResult::default(),
        traffic: TrafficReport::default(),
        singles: 0,
        conjs: 0,
        no_leg: 0,
        hit_us: Samples::default(),
        miss_us: Samples::default(),
        rec: Recorder::new(cfg.trace),
    };
    let ops = &inputs.streams[thread].ops;
    let mut updates_made = 0;
    barrier.wait();
    let start = Instant::now();
    let deadline = start + cfg.phase_deadline(1.0);
    let phase = &mut r.phase;
    phase.start = Some(start);
    for i in 0..cfg.budget(OPS) as usize {
        if Instant::now() >= deadline {
            break;
        }
        let op_id = ((thread as u64) << 40) + i as u64;
        let op = ops[i % ops.len()];
        phase.ops += 1;
        let t0 = Instant::now();
        let verdict = match op {
            Op::Update(words) => {
                let doc: Document = inputs.update_doc(thread, updates_made, words);
                updates_made += 1;
                let update = updater
                    .add_document(&doc)
                    .expect("update documents tokenize");
                let file = crypter.encrypt(&doc);
                book.add(&doc);
                let t1 = Instant::now();
                c.servers[c.partitioner.shard_of(doc.id())].apply_update(update, vec![file]);
                let t2 = Instant::now();
                counter.note_update();
                phase.updates.push(ms(t2 - t0));
                r.rec.op(
                    "update",
                    op_id,
                    t0,
                    t2,
                    &[
                        ("owner.update_build", t0, t1),
                        ("shard.apply_update", t1, t2),
                    ],
                );
                Verdict::Complete
            }
            Op::Search(_) | Op::Rare(_) | Op::Conj(_) => {
                let Scattered {
                    verdict,
                    legs,
                    t1,
                    t2,
                    t3,
                    ..
                } = scatter(inputs, c, &user, book, op, &mut r.traffic);
                phase.searches.push(ms(t3 - t0));
                let call_ms = ms(t2 - t1);
                if legs == 0 {
                    r.no_leg += 1;
                    r.hit_us.push(call_ms);
                } else {
                    r.miss_us.push(call_ms);
                }
                if matches!(op, Op::Conj(_)) {
                    r.conjs += 1;
                } else {
                    r.singles += 1;
                }
                r.rec.op(
                    "search",
                    op_id,
                    t0,
                    t3,
                    &[
                        ("client.request", t0, t1),
                        ("shard.search", t1, t2),
                        ("client.read", t2, t3),
                    ],
                );
                verdict
            }
        };
        phase.judge(verdict);
    }
    phase.end = Some(Instant::now());
    r
}

/// One checked search through the router.
struct Scattered {
    verdict: Verdict,
    /// Legs the router sent (0: merged-cache hit or every shard pruned).
    legs: u32,
    /// Served file ids, best first.
    ids: Vec<u64>,
    /// Request built, router returned, documents decrypted.
    t1: Instant,
    t2: Instant,
    t3: Instant,
}

impl Scattered {
    fn failed(t: Instant) -> Scattered {
        Scattered {
            verdict: Verdict::Wrong,
            legs: 0,
            ids: Vec::new(),
            t1: t,
            t2: t,
            t3: t,
        }
    }
}

fn scatter(
    inputs: &Inputs,
    c: &Cluster,
    user: &User,
    book: &DocBook,
    op: Op,
    traffic: &mut TrafficReport,
) -> Scattered {
    match op {
        Op::Conj(p) => {
            let terms = [inputs.pairs[p][0].as_str(), inputs.pairs[p][1].as_str()];
            scatter_conjunctive(c, user, book, terms, traffic)
        }
        Op::Search(_) | Op::Rare(_) => {
            let term = match op {
                Op::Search(v) => &inputs.vocab[v],
                Op::Rare(r) => &inputs.rare[r],
                _ => unreachable!("matched above"),
            };
            let legs = user
                .shard_query(term, Some(TOP_K), SHARDS as u32)
                .expect("index terms make trapdoors");
            let t1 = Instant::now();
            let Ok(outcome) = c.router.scatter(legs, Some(TOP_K as usize)) else {
                return Scattered::failed(t1);
            };
            let t2 = Instant::now();
            let docs = user.decrypt_files(&outcome.files);
            let t3 = Instant::now();
            traffic.absorb(&outcome.traffic);
            let ranking: Vec<(u64, u64)> = outcome
                .ranking
                .iter()
                .map(|r| (r.file.as_u64(), r.encrypted_score))
                .collect();
            let verdict = match docs {
                Ok(d) if outcome.is_complete() => {
                    check::ranked_reply(book, &ranking, &d, term, None)
                }
                _ => Verdict::Wrong,
            };
            let ids = ranking.iter().map(|r| r.0).collect();
            Scattered {
                verdict,
                legs: outcome.traffic.shard_legs,
                ids,
                t1,
                t2,
                t3,
            }
        }
        Op::Update(_) => unreachable!("updates are not scatters"),
    }
}

fn scatter_conjunctive(
    c: &Cluster,
    user: &User,
    book: &DocBook,
    terms: [&str; 2],
    traffic: &mut TrafficReport,
) -> Scattered {
    let legs = user
        .conjunctive_shard_query(&terms.join(" "), Some(TOP_K), SHARDS as u32)
        .expect("index terms make trapdoors");
    let t1 = Instant::now();
    let Ok(outcome) = c.router.scatter_conjunctive(legs, Some(TOP_K as usize)) else {
        return Scattered::failed(t1);
    };
    let t2 = Instant::now();
    let docs = user.decrypt_files(&outcome.files);
    let t3 = Instant::now();
    traffic.absorb(&outcome.traffic);
    let verdict = match docs {
        Ok(d) if outcome.is_complete() => {
            check::conjunctive_reply(book, &outcome.ranking, &d, &terms)
        }
        _ => Verdict::Wrong,
    };
    let ids = outcome.ranking.iter().map(|r| r.0).collect();
    Scattered {
        verdict,
        legs: outcome.traffic.conjunctive_legs,
        ids,
        t1,
        t2,
        t3,
    }
}
