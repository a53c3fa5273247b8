//! Scatter-gather serving over a sharded encrypted index.
//!
//! The paper's server holds one encrypted inverted index; the ROADMAP
//! north-star is a deployment serving millions of users, which means the
//! index must scale *out*. This module partitions an already-built RSSE
//! index across N independent [`CloudServer`] shards and serves ranked
//! search by scattering the trapdoor to every shard and merging their
//! locally ranked partial results.
//!
//! # Why sharding cannot change a ranking
//!
//! Three facts make the sharded result byte-identical to the single-server
//! one:
//!
//! 1. **The partition reuses the global ciphertexts.** The owner builds
//!    the index once — scores computed against global collection
//!    statistics, each OPM value seeded per `(keyword, file)` — and then
//!    routes the *finished* entries to shards by file-id hash
//!    ([`DataOwner::outsource_sharded_with_filters`]). Rebuilding per
//!    shard would change IDF and OPM randomness, and with them the
//!    ranking.
//! 2. **Files partition disjointly**, so a shard's local top-k contains
//!    every one of its files that can appear in the global top-k: the
//!    union of per-shard top-k lists is a superset of the global top-k.
//! 3. **[`RankedResult`]'s order is total** (OPM score descending, ties
//!    toward the smaller file id), so the k-way merge
//!    ([`merge_shard_replies`]) reproduces the single-server sort exactly,
//!    tie-breaks included.
//!
//! The `tests/shard_equivalence.rs` proptest suite pins this equivalence
//! for shard counts 1–8 against random corpora.
//!
//! # Degraded results, not failed queries
//!
//! Each scatter leg is answered with *some* frame — a
//! [`Message::ShardReply`] or a typed [`Message::Error`] — and legs fail
//! independently: a dead shard removes its partition from the result set
//! and is reported in [`ScatterOutcome::degraded`], while the surviving
//! shards' results still merge. Only when **every** leg fails does the
//! query itself fail, with [`CloudError::AllShardsFailed`].
//!
//! # Routing efficiency: pruning, the merged cache, and replicas
//!
//! A naive scatter pays one leg per shard per query even though most
//! posting lists live on a few shards. Three opt-in features
//! ([`RouterOptions`], wired by [`ShardedDeployment::bootstrap`])
//! cut that fan-out without changing a single result byte — DESIGN.md
//! §6.5 carries the full protocol and leakage argument:
//!
//! * **Label-filter pruning** — each shard publishes an epoch-tagged set
//!   of the posting-list labels it owns *real* entries for. The router
//!   skips shards whose filter provably excludes the query label; a
//!   pruned shard could only have answered with padding entries, which
//!   ranking drops anyway, so the merge is unchanged. Filters are
//!   refreshed over the wire ([`Message::FilterRequest`]) whenever a
//!   shard's epoch watch moves, and a shard whose filter cannot be
//!   confirmed current is simply not pruned — staleness degrades to the
//!   full scatter, never to a wrong answer.
//! * **Merged-result cache** — the router caches whole merged outcomes
//!   keyed by `(label, top_k)` under the same epoch-guarded fill
//!   discipline as the per-shard ranking cache, so a hot keyword costs
//!   zero legs. Any observed epoch movement flushes it.
//! * **Replica reads** — each shard may be served by several worker pools
//!   sharing one `Arc<CloudServer>`; the router routes each leg to the
//!   less-loaded of two pseudo-randomly chosen replicas
//!   (power-of-two-choices on in-flight counts).

use crate::cache::{inverse_order, CacheStats, CacheWeight, EpochCache};
use crate::codec::{ErrorKind, Message};
use crate::entities::{CloudServer, DataOwner, Storage, User};
use crate::error::CloudError;
use crate::files::EncryptedFile;
use crate::network::TrafficReport;
use crate::server_loop::{PendingReply, PoolOptions, ServerClient, ServerHandle};
use parking_lot::{Mutex, RwLock};
use rsse_core::{canonical_label_order, Label, RankedResult, RsseParams};
use rsse_ir::{Document, FileId};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The partition rule: file → shard by hash of the file id.
///
/// The hash (SplitMix64) is keyless and public — *which shard holds a
/// file* is not a secret the scheme protects (the server already sees
/// file ids in every response), it only needs to spread load evenly and
/// deterministically so the owner and the router agree on placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexPartitioner {
    num_shards: usize,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl IndexPartitioner {
    /// A partitioner over `num_shards` shards (clamped to at least 1).
    pub fn new(num_shards: usize) -> Self {
        IndexPartitioner {
            num_shards: num_shards.max(1),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The shard owning `file`.
    pub fn shard_of(&self, file: FileId) -> usize {
        (splitmix64(file.as_u64()) % self.num_shards as u64) as usize
    }
}

/// Opt-in shard-routing efficiency knobs (all off by default: one
/// replica, and every query scatters to every shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterOptions {
    /// Skip scatter legs to shards whose label filter proves they hold no
    /// postings for the query label.
    pub pruning: bool,
    /// Byte budget of the router-level merged-result cache; `0` disables
    /// it.
    pub merged_cache_budget: usize,
    /// Serving pools per shard (clamped to at least 1). Only
    /// [`ShardedDeployment::bootstrap`] consumes this — a router
    /// built directly from clients takes its replica count from the
    /// client lists it is given.
    pub replicas: usize,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            pruning: false,
            merged_cache_budget: 0,
            replicas: 1,
        }
    }
}

impl RouterOptions {
    /// All features off: one replica, no pruning, no merged cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables label-filter pruning.
    #[must_use]
    pub fn with_pruning(mut self) -> Self {
        self.pruning = true;
        self
    }

    /// Sets the merged-result cache budget in bytes (`0` disables).
    #[must_use]
    pub fn with_merged_cache(mut self, budget_bytes: usize) -> Self {
        self.merged_cache_budget = budget_bytes;
        self
    }

    /// Sets the number of serving pools per shard.
    #[must_use]
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas.max(1);
        self
    }
}

/// A complete merged scatter outcome, cached at the router keyed by
/// `(label, top_k)` — exactly what the scatter returned, so a hit is
/// byte-identical by construction.
#[derive(Debug)]
struct MergedResult {
    ranking: Vec<RankedResult>,
    files: Vec<EncryptedFile>,
}

impl CacheWeight for MergedResult {
    fn weight_bytes(&self) -> usize {
        std::mem::size_of_val(self.ranking.as_slice())
            + self
                .files
                .iter()
                .map(|f| std::mem::size_of::<EncryptedFile>() + f.byte_len())
                .sum::<usize>()
    }
}

type MergedCache = EpochCache<(Label, Option<usize>), MergedResult>;

/// A complete merged *conjunctive* scatter outcome, cached keyed by
/// `(sorted label set, top_k)`. Per-keyword mapped scores are stored in
/// canonical (sorted-label) order so that any keyword ordering of the
/// same query shares one entry; a hit permutes them back to the asking
/// query's trapdoor order. `score_sum` is order-independent, so the
/// cached ranking itself is reused as-is.
#[derive(Debug)]
struct ConjunctiveMerged {
    /// Wire pairs `(file id, mapped scores in canonical label order)`,
    /// globally ranked by `score_sum` descending (file id ascending on
    /// ties).
    ranking: Vec<(u64, Vec<u64>)>,
    files: Vec<EncryptedFile>,
}

impl CacheWeight for ConjunctiveMerged {
    fn weight_bytes(&self) -> usize {
        std::mem::size_of_val(self.ranking.as_slice())
            + self
                .ranking
                .iter()
                .map(|(_, scores)| std::mem::size_of_val(scores.as_slice()))
                .sum::<usize>()
            + self
                .files
                .iter()
                .map(|f| std::mem::size_of::<EncryptedFile>() + f.byte_len())
                .sum::<usize>()
    }
}

type ConjunctiveMergedCache = EpochCache<(Vec<Label>, Option<usize>), ConjunctiveMerged>;

/// Holds one replica's in-flight count up while a leg is outstanding;
/// dropping the ticket releases it (error paths included).
struct LegTicket {
    in_flight: Arc<AtomicUsize>,
}

impl LegTicket {
    fn acquire(in_flight: Arc<AtomicUsize>) -> Self {
        in_flight.fetch_add(1, Ordering::Relaxed);
        LegTicket { in_flight }
    }
}

impl Drop for LegTicket {
    fn drop(&mut self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One shard's replica endpoints plus the load-balancing state shared by
/// every clone of the router.
#[derive(Debug, Clone)]
struct ReplicaSet {
    clients: Vec<ServerClient>,
    /// Legs currently outstanding per replica.
    in_flight: Vec<Arc<AtomicUsize>>,
    /// Total requests ever routed to each replica (bench visibility).
    routed: Vec<Arc<AtomicU64>>,
    /// Monotonic pick counter seeding the two pseudo-random choices.
    picks: Arc<AtomicU64>,
}

impl ReplicaSet {
    fn new(clients: Vec<ServerClient>) -> Self {
        assert!(!clients.is_empty(), "a shard needs at least one replica");
        let n = clients.len();
        ReplicaSet {
            clients,
            in_flight: (0..n).map(|_| Arc::new(AtomicUsize::new(0))).collect(),
            routed: (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect(),
            picks: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Power-of-two-choices: draw two replicas from the pick counter's
    /// SplitMix64 stream, send to the one with fewer in-flight legs (ties
    /// toward the lower index). Classic result: the max load stays within
    /// `O(log log n)` of the mean without any shared queue.
    fn pick(&self) -> usize {
        let n = self.clients.len() as u64;
        if n == 1 {
            return 0;
        }
        let tick = self.picks.fetch_add(1, Ordering::Relaxed);
        let a = (splitmix64(tick.wrapping_mul(2)) % n) as usize;
        let b = (splitmix64(tick.wrapping_mul(2).wrapping_add(1)) % n) as usize;
        let (load_a, load_b) = (
            self.in_flight[a].load(Ordering::Relaxed),
            self.in_flight[b].load(Ordering::Relaxed),
        );
        match load_a.cmp(&load_b) {
            std::cmp::Ordering::Less => a,
            std::cmp::Ordering::Greater => b,
            std::cmp::Ordering::Equal => a.min(b),
        }
    }

    fn ticket(&self, replica: usize) -> LegTicket {
        self.routed[replica].fetch_add(1, Ordering::Relaxed);
        LegTicket::acquire(Arc::clone(&self.in_flight[replica]))
    }
}

/// The router's view of one shard's label filter: the shard-side epoch
/// watch (shared in process; stands in for a cheap epoch side channel)
/// and the last filter actually fetched over the wire.
#[derive(Debug)]
struct FilterState {
    watch: Arc<AtomicU64>,
    cached: Mutex<CachedFilter>,
}

#[derive(Debug, Default)]
struct CachedFilter {
    /// Epoch the cached label set was fetched at; `None` until the first
    /// fetch succeeds. Pruning requires this to match the live watch.
    epoch: Option<u64>,
    labels: HashSet<Label>,
}

/// One failed scatter leg: which shard, and why.
#[derive(Debug)]
pub struct DegradedLeg {
    /// The shard that did not contribute results.
    pub shard_id: u32,
    /// What its leg failed with (an error frame, a timeout, a dead
    /// transport, or an out-of-protocol reply).
    pub error: CloudError,
}

/// The outcome of one scatter-gather query: single-keyword
/// ([`ShardRouter::scatter`]; entries are [`RankedResult`]s) or
/// conjunctive ([`ShardRouter::scatter_conjunctive`]; see
/// [`ConjunctiveScatterOutcome`]).
#[derive(Debug)]
pub struct ScatterOutcome<R = RankedResult> {
    /// Globally ranked results, best first — byte-identical to what the
    /// unsharded server would return *if no leg degraded*.
    pub ranking: Vec<R>,
    /// The ranked encrypted files, same order as `ranking`.
    pub files: Vec<EncryptedFile>,
    /// Aggregated traffic of every leg, shed attempts and error frames
    /// included ([`TrafficReport::shard_legs`] or
    /// [`TrafficReport::conjunctive_legs`] counts the legs).
    pub traffic: TrafficReport,
    /// Shards that answered with a usable reply (pruned shards included).
    pub shards_ok: u32,
    /// Legs that failed — degraded coverage, reported, never silent. Empty
    /// means the ranking is complete.
    pub degraded: Vec<DegradedLeg>,
}

impl<R> ScatterOutcome<R> {
    /// Whether every shard contributed (no degraded coverage).
    pub fn is_complete(&self) -> bool {
        self.degraded.is_empty()
    }
}

/// The outcome of one conjunctive scatter-gather: every shard intersects
/// its own disjoint file partition locally, and the router k-way merges
/// the partial rankings by `score_sum`. Entries are wire pairs `(file id,
/// per-keyword mapped scores in trapdoor order)`, best `score_sum` first
/// (file id ascending on ties).
pub type ConjunctiveScatterOutcome = ScatterOutcome<(u64, Vec<u64>)>;

/// The outcome of one *batched* scatter-gather
/// ([`ShardRouter::scatter_batch`]): several keywords resolved against
/// every shard in `num_shards` round trips total.
#[derive(Debug)]
pub struct BatchScatterOutcome {
    /// Per-query merged results, in batch order: each entry is the
    /// globally ranked list plus its aligned encrypted files — exactly
    /// what a [`ScatterOutcome`] would carry for that query alone.
    pub queries: Vec<(Vec<RankedResult>, Vec<EncryptedFile>)>,
    /// Aggregated traffic of every leg ([`TrafficReport::batched_queries`]
    /// counts the amortized queries).
    pub traffic: TrafficReport,
    /// Shards that answered with a usable reply.
    pub shards_ok: u32,
    /// Legs that failed — degraded coverage for *every* query in the
    /// batch, since a leg carries all of them.
    pub degraded: Vec<DegradedLeg>,
}

impl BatchScatterOutcome {
    /// Whether every shard contributed (no degraded coverage).
    pub fn is_complete(&self) -> bool {
        self.degraded.is_empty()
    }
}

/// Merges per-shard replies into one globally ranked list with the files
/// aligned to it — the coordinator half of every scatter.
///
/// `rankings[s]` and `files[s]` are shard `s`'s reply, already in its
/// local rank order (files aligned to its ranking); `rank` keys an entry,
/// greater first. Files partition disjointly across shards and each
/// family's order is total (file id breaks every score tie), so
/// repeatedly taking the best shard head reproduces the single-server
/// sort exactly, tie-breaks included; exact duplicates (reachable only
/// with a byzantine shard) drain toward the lower shard index. The cost
/// is O(shards) allocations, never O(results). Files are *moved* out of
/// the replies, not cloned. A shard's file is consumed only when it
/// matches the entry just merged: a file that does not match — a
/// misbehaving shard — is dropped rather than misattributed, and an
/// entry whose file is missing leaves the shard's later files in place.
fn merge_replies<R, K: Ord>(
    rankings: Vec<Vec<R>>,
    files: Vec<Vec<EncryptedFile>>,
    top_k: Option<usize>,
    rank: impl Fn(&R) -> K,
    file_id: impl Fn(&R) -> u64,
) -> (Vec<R>, Vec<EncryptedFile>) {
    let total: usize = rankings.iter().map(Vec::len).sum();
    let take = top_k.unwrap_or(total).min(total);
    let mut heads: Vec<_> = rankings
        .into_iter()
        .map(|ranking| ranking.into_iter().peekable())
        .collect();
    let mut file_iters: Vec<_> = files
        .into_iter()
        .map(|files| files.into_iter().peekable())
        .collect();
    let mut out = Vec::with_capacity(take);
    let mut out_files = Vec::with_capacity(take);
    while out.len() < take {
        let best = heads
            .iter_mut()
            .enumerate()
            .filter_map(|(s, head)| head.peek().map(|entry| (s, rank(entry))))
            .reduce(|best, next| if next.1 > best.1 { next } else { best });
        let Some((source, _)) = best else { break };
        let entry = heads[source].next().expect("picked a live head");
        out_files.extend(file_iters[source].next_if(|file| file.id().as_u64() == file_id(&entry)));
        out.push(entry);
    }
    (out, out_files)
}

/// `merge_replies` for single-keyword replies, ranked by
/// [`RankedResult`]'s order (OPM score descending, ties toward the
/// smaller file id).
pub fn merge_shard_replies(
    rankings: Vec<Vec<RankedResult>>,
    files: Vec<Vec<EncryptedFile>>,
    top_k: Option<usize>,
) -> (Vec<RankedResult>, Vec<EncryptedFile>) {
    merge_replies(rankings, files, top_k, |r| *r, |r| r.file.as_u64())
}

/// `merge_replies` for conjunctive wire entries `(file id, per-keyword
/// mapped scores)`, ranked by `score_sum` descending (widened so it
/// cannot overflow), ties toward the smaller file id.
pub fn merge_conjunctive_replies(
    rankings: Vec<Vec<(u64, Vec<u64>)>>,
    files: Vec<Vec<EncryptedFile>>,
    top_k: Option<usize>,
) -> (Vec<(u64, Vec<u64>)>, Vec<EncryptedFile>) {
    let rank = |(id, scores): &(u64, Vec<u64>)| {
        let score_sum: u128 = scores.iter().map(|&s| u128::from(s)).sum();
        (score_sum, std::cmp::Reverse(*id))
    };
    merge_replies(rankings, files, top_k, rank, |entry| entry.0)
}

/// Wire `(file id, OPM score)` pairs as ranked results.
fn ranked_results(ranking: Vec<(u64, u64)>) -> Vec<RankedResult> {
    ranking
        .into_iter()
        .map(|(id, encrypted_score)| RankedResult {
            file: FileId::new(id),
            encrypted_score,
        })
        .collect()
}

/// Prices one scatter attempt: `(bytes up, bytes down, is error frame)`.
type LegMeter = fn(usize, usize, bool) -> TrafficReport;

/// What [`ShardRouter::gather`] reports besides the replies, which its
/// `accept` callback keeps.
struct Gathered {
    /// Legs queued on a replica.
    sent: u32,
    /// Shards that answered with an accepted reply, plus pruned shards.
    shards_ok: u32,
    degraded: Vec<DegradedLeg>,
}

/// The scatter-gather coordinator: one replica set per shard, a per-leg
/// deadline, bounded retry against transient overload, and the opt-in
/// routing features of [`RouterOptions`]. Clones share all routing state
/// (load counters, filters, merged cache).
#[derive(Debug, Clone)]
pub struct ShardRouter {
    shards: Vec<ReplicaSet>,
    deadline: Duration,
    attempts: u32,
    backoff: Duration,
    pruning: bool,
    /// Per-shard filter state; empty when no epoch watches were wired.
    filters: Vec<Arc<FilterState>>,
    merged: Arc<RwLock<MergedCache>>,
    conjunctive_merged: Arc<RwLock<ConjunctiveMergedCache>>,
}

impl ShardRouter {
    /// A router over `replicas` (shard `i` is served by any client in
    /// `replicas[i]`) with a 5 s per-leg deadline, 3 overload-retry
    /// attempts at 2 ms base backoff, and `options`'s features armed.
    /// `watches[i]` is shard `i`'s filter-epoch watch
    /// ([`CloudServer::filter_watch`]); the router re-fetches a shard's
    /// label filter and flushes its merged cache whenever a watch moves.
    /// With [`RouterOptions::default`] the router scatters to every
    /// shard, every query.
    ///
    /// # Panics
    ///
    /// Panics when pruning or the merged cache is enabled without exactly
    /// one watch per shard — those features are only sound when every
    /// shard's epoch is observable.
    pub fn tuned(
        replicas: Vec<Vec<ServerClient>>,
        watches: Vec<Arc<AtomicU64>>,
        options: RouterOptions,
    ) -> Self {
        if options.pruning || options.merged_cache_budget > 0 {
            assert_eq!(
                watches.len(),
                replicas.len(),
                "pruning and the merged cache need one filter watch per shard"
            );
        }
        ShardRouter {
            shards: replicas.into_iter().map(ReplicaSet::new).collect(),
            deadline: Duration::from_secs(5),
            attempts: 3,
            backoff: Duration::from_millis(2),
            pruning: options.pruning,
            filters: watches
                .into_iter()
                .map(|watch| {
                    Arc::new(FilterState {
                        watch,
                        cached: Mutex::new(CachedFilter::default()),
                    })
                })
                .collect(),
            merged: Arc::new(RwLock::new(MergedCache::new(options.merged_cache_budget))),
            conjunctive_merged: Arc::new(RwLock::new(ConjunctiveMergedCache::new(
                options.merged_cache_budget,
            ))),
        }
    }

    /// Sets the per-leg gather deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the overload-retry budget: up to `attempts` enqueue attempts
    /// per leg, sleeping `backoff` (doubled each retry) between them.
    #[must_use]
    pub fn with_retry(mut self, attempts: u32, backoff: Duration) -> Self {
        self.attempts = attempts.max(1);
        self.backoff = backoff;
        self
    }

    /// Number of shards this router addresses.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard, per-replica counts of requests routed (query legs and
    /// filter fetches) — how a bench shows the replica spread.
    pub fn replica_routing(&self) -> Vec<Vec<u64>> {
        self.shards
            .iter()
            .map(|set| {
                set.routed
                    .iter()
                    .map(|count| count.load(Ordering::Relaxed))
                    .collect()
            })
            .collect()
    }

    /// Snapshot of the merged-result cache counters (all zero when the
    /// cache is disabled).
    pub fn merged_cache_stats(&self) -> CacheStats {
        self.merged.read().stats()
    }

    /// Snapshot of the conjunctive merged-result cache counters (all zero
    /// when the cache is disabled).
    pub fn conjunctive_merged_cache_stats(&self) -> CacheStats {
        self.conjunctive_merged.read().stats()
    }

    /// Compares every shard's cached filter epoch against its live watch;
    /// refreshes stale filters over the wire (pruning mode) or adopts the
    /// observed epoch (merged-cache-only mode), and flushes the merged
    /// cache if anything moved. Serves as this query's linearization
    /// point: a later cache hit is byte-identical to a full scatter
    /// executed right here.
    fn observe_filter_epochs(&self, traffic: &mut TrafficReport) {
        let mut moved = false;
        for (shard, state) in self.filters.iter().enumerate() {
            let current = state.watch.load(Ordering::Acquire);
            if state.cached.lock().epoch == Some(current) {
                continue;
            }
            moved = true;
            if self.pruning {
                self.refresh_filter(shard, state, traffic);
            } else {
                // No label set needed — only the epoch, to key the merged
                // cache's invalidation.
                state.cached.lock().epoch = Some(current);
            }
        }
        if moved {
            self.merged.write().invalidate_all();
            self.conjunctive_merged.write().invalidate_all();
        }
    }

    /// One [`Message::FilterRequest`] round trip to shard `shard`, metered
    /// as a filter fetch. Any failure leaves the cached epoch stale: the
    /// shard stays unprunable and the fetch retries on the next query —
    /// staleness can cost legs, never correctness.
    fn refresh_filter(&self, shard: usize, state: &FilterState, traffic: &mut TrafficReport) {
        let known_epoch = state.cached.lock().epoch;
        let request = Message::FilterRequest {
            shard_id: shard as u32,
            known_epoch,
        };
        let up = request.wire_len();
        let set = &self.shards[shard];
        let replica = set.pick();
        let _ticket = set.ticket(replica);
        let reply = set.clients[replica]
            .call_async(request)
            .and_then(|pending| pending.wait(Some(self.deadline)));
        let down = match reply {
            Ok(reply) => {
                let down = reply.wire_len();
                // A `labels: None` reply means "unchanged since
                // known_epoch" — the cached set already matches that
                // epoch, so there is nothing to store; any other reply
                // keeps the filter stale (and unprunable).
                if let Message::FilterReply {
                    shard_id,
                    epoch,
                    labels: Some(labels),
                } = reply
                {
                    if shard_id == shard as u32 {
                        let mut cached = state.cached.lock();
                        cached.labels = labels.into_iter().collect();
                        cached.epoch = Some(epoch);
                    }
                }
                down
            }
            Err(CloudError::Server { kind, detail }) => Message::Error { kind, detail }.wire_len(),
            Err(_) => 0,
        };
        traffic.absorb(&TrafficReport::filter_fetch(up, down));
    }

    /// The label set every leg queries, in trapdoor order, when the legs
    /// are all [`Message::ShardQuery`]s (a one-label set) or all
    /// [`Message::ConjunctiveShardQuery`]s carrying the same trapdoor
    /// sequence, with a `top_k` that agrees with the merge's. The set keys
    /// the routing features (pruning, merged cache). Anything else — mixed
    /// legs, hand-built legs, a `top_k` mismatch — falls back to the plain
    /// full scatter.
    ///
    /// # Panics
    ///
    /// Panics when `legs.len()` differs from the router's shard count —
    /// a misassembled scatter is a programming error, not a wire fault.
    fn query_labels(&self, legs: &[Message], top_k: Option<usize>) -> Option<Vec<Label>> {
        assert_eq!(
            legs.len(),
            self.shards.len(),
            "one leg per shard, in shard order"
        );
        let mut query: Option<Vec<Label>> = None;
        for leg in legs {
            let (labels, k) = match leg {
                Message::ShardQuery { label, top_k, .. } => (vec![*label], top_k),
                Message::ConjunctiveShardQuery {
                    trapdoors, top_k, ..
                } => (trapdoors.iter().map(|(label, _)| *label).collect(), top_k),
                _ => return None,
            };
            let same_kind = std::mem::discriminant(&legs[0]) == std::mem::discriminant(leg);
            if !same_kind || k.map(|k| k as usize) != top_k {
                return None;
            }
            match &query {
                None => query = Some(labels),
                Some(prev) if *prev == labels => {}
                Some(_) => return None,
            }
        }
        query.filter(|labels| !labels.is_empty())
    }

    /// Whether shard `shard` can be skipped for a query over `labels`:
    /// pruning armed, the shard's filter confirmed current against its
    /// live watch, and *any* queried label absent from it — a shard
    /// missing even one posting list holds no real entry for a
    /// single-keyword query and provably contributes an empty
    /// intersection to a conjunctive one. Filters only grow under
    /// updates, so a *stale* filter could miss a label the shard has
    /// since gained — which is why a stale filter never prunes.
    fn can_prune(&self, shard: usize, labels: Option<&[Label]>) -> bool {
        if !self.pruning {
            return false;
        }
        let (Some(labels), Some(state)) = (labels, self.filters.get(shard)) else {
            return false;
        };
        let cached = state.cached.lock();
        cached.epoch == Some(state.watch.load(Ordering::Acquire))
            && labels.iter().any(|label| !cached.labels.contains(label))
    }

    /// The one scatter-gather loop behind every query family.
    ///
    /// Prunes the shards whose current filter excludes `labels`, then
    /// queues every remaining leg (leg `i` to shard `i`, each to its
    /// least-loaded replica) before any reply is awaited
    /// ([`ServerClient::call_async`]), so shards serve in parallel. A leg
    /// shed by a full backlog is retried within the router's retry
    /// budget. Each queued leg is then gathered under the per-leg
    /// deadline. `accept(shard, reply)` keeps a reply and returns `true`
    /// when it is the family's reply addressed to `shard`; every other
    /// outcome — a refused (out-of-protocol or misaddressed) reply, an
    /// error frame, a deadline expiry, a dead worker — degrades that
    /// shard's coverage. Every attempt is priced with `meter`, error
    /// frames included; a timed-out leg contributes its upstream bytes
    /// and an empty downstream. A pruned leg costs zero bytes and counts
    /// in [`TrafficReport::pruned_legs`] and toward `shards_ok`, since an
    /// empty contribution is a complete answer.
    ///
    /// # Errors
    ///
    /// [`CloudError::AllShardsFailed`] when no shard produced a usable
    /// reply (pruned shards count as answered).
    fn gather(
        &self,
        legs: &[Message],
        labels: Option<&[Label]>,
        traffic: &mut TrafficReport,
        meter: LegMeter,
        expected: &'static str,
        mut accept: impl FnMut(u32, Message) -> bool,
    ) -> Result<Gathered, CloudError> {
        let mut pruned = 0u32;
        let mut sent = 0u32;
        let mut states: Vec<Option<(Result<PendingReply, CloudError>, LegTicket)>> =
            Vec::with_capacity(legs.len());
        for (shard, leg) in legs.iter().enumerate() {
            if self.can_prune(shard, labels) {
                traffic.absorb(&TrafficReport::pruned_leg());
                pruned += 1;
                states.push(None);
                continue;
            }
            let set = &self.shards[shard];
            let replica = set.pick();
            let ticket = set.ticket(replica);
            let state = self.queue_with_retry(&set.clients[replica], leg, traffic, meter);
            sent += u32::from(state.is_ok());
            states.push(Some((state, ticket)));
        }

        let mut accepted = 0u32;
        let mut degraded = Vec::new();
        for (shard, (state, leg)) in states.into_iter().zip(legs).enumerate() {
            let shard = shard as u32;
            let Some((state, _ticket)) = state else {
                continue; // pruned — nothing to gather
            };
            let error = match state.map(|pending| pending.wait(Some(self.deadline))) {
                // Never queued; the queueing attempts are already metered.
                Err(error) => error,
                Ok(Ok(reply)) => {
                    traffic.absorb(&meter(leg.wire_len(), reply.wire_len(), false));
                    if accept(shard, reply) {
                        accepted += 1;
                        continue;
                    }
                    CloudError::UnexpectedMessage { expected }
                }
                Ok(Err(CloudError::Server { kind, detail })) => {
                    // The codec is canonical, so rebuilding the frame
                    // reproduces its exact wire size.
                    let frame_len = Message::Error {
                        kind,
                        detail: detail.clone(),
                    }
                    .wire_len();
                    traffic.absorb(&meter(leg.wire_len(), frame_len, true));
                    CloudError::Server { kind, detail }
                }
                Ok(Err(error)) => {
                    traffic.absorb(&meter(leg.wire_len(), 0, false));
                    error
                }
            };
            degraded.push(DegradedLeg {
                shard_id: shard,
                error,
            });
        }

        // A pruned shard *did* answer — with the empty partial result its
        // filter proved — so it counts toward coverage; only a query
        // where every sent leg failed and nothing was pruned has no
        // usable answer at all.
        let shards_ok = accepted + pruned;
        if shards_ok == 0 {
            return Err(CloudError::AllShardsFailed {
                shards: self.shards.len() as u32,
            });
        }
        Ok(Gathered {
            sent,
            shards_ok,
            degraded,
        })
    }

    /// Scatters `legs` (leg `i` to shard `i`) and gathers the merged
    /// top-`top_k` ranking through the shared gather core's pruning, retry,
    /// deadline and degradation rules; a misaddressed reply degrades its
    /// leg, reported in [`ScatterOutcome::degraded`].
    ///
    /// With the merged-result cache armed, a whole query may be served
    /// from it (zero legs), byte-identical to the full scatter. A query
    /// whose every shard is pruned succeeds with an empty ranking.
    ///
    /// # Errors
    ///
    /// [`CloudError::AllShardsFailed`] when no shard produced a usable
    /// reply (pruned shards count as answered).
    ///
    /// # Panics
    ///
    /// Panics when `legs.len()` differs from the router's shard count —
    /// a misassembled scatter is a programming error, not a wire fault.
    pub fn scatter(
        &self,
        legs: Vec<Message>,
        top_k: Option<usize>,
    ) -> Result<ScatterOutcome, CloudError> {
        let mut traffic = TrafficReport::default();
        let labels = self.query_labels(&legs, top_k);
        let key = match (legs.first(), labels.as_deref()) {
            (Some(Message::ShardQuery { .. }), Some(&[label])) => Some((label, top_k)),
            _ => None,
        };

        // Routing features: observe shard epochs (refreshing any stale
        // filter), then try the merged cache — a hit costs zero legs.
        self.observe_filter_epochs(&mut traffic);
        let lookup = key.as_ref().map(|key| self.merged.read().lookup(key));
        let fill_epoch = match lookup {
            Some(Ok(hit)) => {
                return Ok(ScatterOutcome {
                    ranking: hit.ranking.clone(),
                    files: hit.files.clone(),
                    traffic,
                    shards_ok: self.shards.len() as u32,
                    degraded: Vec::new(),
                })
            }
            Some(Err(fill_epoch)) => fill_epoch,
            None => None,
        };

        let mut rankings = Vec::with_capacity(legs.len());
        let mut shard_files = Vec::with_capacity(legs.len());
        let gathered = self.gather(
            &legs,
            labels.as_deref(),
            &mut traffic,
            TrafficReport::shard_leg,
            "ShardReply addressed to this shard",
            |shard, reply| match reply {
                Message::ShardReply {
                    shard_id,
                    ranking,
                    files,
                } if shard_id == shard => {
                    rankings.push(ranked_results(ranking));
                    shard_files.push(files);
                    true
                }
                _ => false,
            },
        )?;
        let (ranking, files) = merge_shard_replies(rankings, shard_files, top_k);
        if let (true, Some(fill_epoch), Some(key)) = (gathered.degraded.is_empty(), fill_epoch, key)
        {
            // Complete outcomes only: a degraded merge is missing a
            // partition and must not be replayed from cache.
            self.merged.write().insert_if_current(
                key,
                Arc::new(MergedResult {
                    ranking: ranking.clone(),
                    files: files.clone(),
                }),
                fill_epoch,
            );
        }
        Ok(ScatterOutcome {
            ranking,
            files,
            traffic,
            shards_ok: gathered.shards_ok,
            degraded: gathered.degraded,
        })
    }

    /// Conjunctive scatter-gather: `legs[i]` is a
    /// [`Message::ConjunctiveShardQuery`] addressed to shard `i`, every
    /// leg carrying the same trapdoor set. Files partition disjointly, so
    /// each shard intersects its own partition locally and the merged
    /// `(score_sum desc, file asc)` ranking is byte-identical to the
    /// unsharded server's — a shard can neither add nor lose an
    /// intersection member another shard owns.
    ///
    /// With [`RouterOptions`] features armed, a shard whose current
    /// filter lacks *any* queried label is pruned (its local intersection
    /// is provably empty), and whole merged outcomes are cached keyed by
    /// `(sorted label set, top_k)` — the cached per-keyword scores live
    /// in canonical label order and are permuted back to the asking
    /// query's trapdoor order on a hit, so every keyword ordering of one
    /// conjunction shares one entry. Legs are metered as
    /// [`TrafficReport::conjunctive_legs`], never mixed into the
    /// single-keyword leg counters.
    ///
    /// # Errors
    ///
    /// [`CloudError::AllShardsFailed`] when no shard produced a usable
    /// reply (pruned shards count as answered).
    ///
    /// # Panics
    ///
    /// Panics when `legs.len()` differs from the router's shard count —
    /// a misassembled scatter is a programming error, not a wire fault.
    pub fn scatter_conjunctive(
        &self,
        legs: Vec<Message>,
        top_k: Option<usize>,
    ) -> Result<ConjunctiveScatterOutcome, CloudError> {
        let mut traffic = TrafficReport {
            conjunctive_queries: 1,
            ..TrafficReport::default()
        };
        let labels = self.query_labels(&legs, top_k);

        self.observe_filter_epochs(&mut traffic);
        // Cache key: the label multiset, order-erased. The stored scores
        // are canonical-ordered; `order`/`inv` translate between the
        // asking query's trapdoor order and the canonical one.
        let conjunctive_legs = matches!(legs.first(), Some(Message::ConjunctiveShardQuery { .. }));
        let canonical = labels.as_ref().filter(|_| conjunctive_legs).map(|labels| {
            let order = canonical_label_order(labels);
            let key: Vec<Label> = order.iter().map(|&i| labels[i]).collect();
            (order, key)
        });
        let lookup = canonical
            .as_ref()
            .map(|(_, key)| self.conjunctive_merged.read().lookup(&(key.clone(), top_k)));
        let fill_epoch = match (lookup, &canonical) {
            (Some(Ok(hit)), Some((order, _))) => {
                let inv = inverse_order(order);
                let ranking = hit
                    .ranking
                    .iter()
                    .map(|(id, scores)| (*id, inv.iter().map(|&k| scores[k]).collect()))
                    .collect();
                return Ok(ScatterOutcome {
                    ranking,
                    files: hit.files.clone(),
                    traffic,
                    shards_ok: self.shards.len() as u32,
                    degraded: Vec::new(),
                });
            }
            (Some(Err(fill_epoch)), _) => fill_epoch,
            _ => None,
        };

        let mut rankings = Vec::with_capacity(legs.len());
        let mut shard_files = Vec::with_capacity(legs.len());
        let gathered = self.gather(
            &legs,
            labels.as_deref(),
            &mut traffic,
            TrafficReport::conjunctive_leg,
            "ConjunctiveShardReply addressed to this shard",
            |shard, reply| match reply {
                Message::ConjunctiveShardReply {
                    shard_id,
                    ranking,
                    files,
                } if shard_id == shard => {
                    rankings.push(ranking);
                    shard_files.push(files);
                    true
                }
                _ => false,
            },
        )?;
        let (ranking, files) = merge_conjunctive_replies(rankings, shard_files, top_k);
        if let (true, Some(fill_epoch), Some((order, key))) =
            (gathered.degraded.is_empty(), fill_epoch, canonical)
        {
            // Complete outcomes only, scores permuted to canonical
            // label order so any keyword ordering can serve the entry.
            let canonical_ranking = ranking
                .iter()
                .map(|(id, scores)| (*id, order.iter().map(|&i| scores[i]).collect::<Vec<u64>>()))
                .collect();
            self.conjunctive_merged.write().insert_if_current(
                (key, top_k),
                Arc::new(ConjunctiveMerged {
                    ranking: canonical_ranking,
                    files: files.clone(),
                }),
                fill_epoch,
            );
        }
        Ok(ScatterOutcome {
            ranking,
            files,
            traffic,
            shards_ok: gathered.shards_ok,
            degraded: gathered.degraded,
        })
    }

    /// Queues one leg under the router's overload-retry budget, pricing
    /// every shed attempt with `meter`; `Err` is a leg that never got
    /// queued.
    fn queue_with_retry(
        &self,
        client: &ServerClient,
        leg: &Message,
        traffic: &mut TrafficReport,
        meter: LegMeter,
    ) -> Result<PendingReply, CloudError> {
        let shed_frame_len =
            Message::error(ErrorKind::Overloaded, "request backlog is full").wire_len();
        let up = leg.wire_len();
        let mut wait = self.backoff;
        let mut attempt = 0;
        loop {
            attempt += 1;
            match client.call_async(leg.clone()) {
                Ok(pending) => return Ok(pending),
                Err(
                    e @ CloudError::Server {
                        kind: ErrorKind::Overloaded,
                        ..
                    },
                ) => {
                    traffic.absorb(&meter(up, shed_frame_len, true));
                    if attempt >= self.attempts {
                        return Err(e);
                    }
                    std::thread::sleep(wait);
                    wait = wait.saturating_mul(2);
                }
                Err(e) => {
                    // Dead transport: the request never left; meter the
                    // attempted upstream bytes only.
                    traffic.absorb(&meter(up, 0, false));
                    return Err(e);
                }
            }
        }
    }

    /// Batched scatter-gather: `legs[i]` is a [`Message::BatchRequest`]
    /// addressed to shard `i` (`shard_id == Some(i)`), every leg carrying
    /// the *same* query sequence. Each query's per-shard partial rankings
    /// are merged exactly like [`ShardRouter::scatter`] merges a single
    /// query's, so every entry of [`BatchScatterOutcome::queries`] is
    /// byte-identical to what an unbatched scatter of that query would
    /// return — the whole batch costs one round trip per shard instead of
    /// one per `(query, shard)` pair.
    ///
    /// A reply that echoes the wrong shard id, carries `shard_id: None`,
    /// or answers a different number of queries than asked is out of
    /// protocol and degrades its leg.
    ///
    /// # Errors
    ///
    /// [`CloudError::AllShardsFailed`] when no shard produced a usable
    /// reply.
    ///
    /// # Panics
    ///
    /// Panics when `legs.len()` differs from the router's shard count, on
    /// a non-`BatchRequest` leg, or when legs disagree on the query
    /// sequence length — a misassembled scatter is a programming error,
    /// not a wire fault.
    pub fn scatter_batch(
        &self,
        legs: Vec<Message>,
        top_k: Option<usize>,
    ) -> Result<BatchScatterOutcome, CloudError> {
        let labels = self.query_labels(&legs, top_k);
        let num_queries = legs
            .iter()
            .map(|leg| match leg {
                Message::BatchRequest { queries, .. } => queries.len(),
                other => panic!("scatter_batch leg must be a BatchRequest, got {other:?}"),
            })
            .max()
            .unwrap_or(0);
        for leg in &legs {
            if let Message::BatchRequest { queries, .. } = leg {
                assert_eq!(
                    queries.len(),
                    num_queries,
                    "every shard's leg must carry the same query sequence"
                );
            }
        }
        let mut traffic = TrafficReport::default();
        let mut per_shard: Vec<Vec<crate::BatchResult>> = Vec::with_capacity(legs.len());
        let gathered = self.gather(
            &legs,
            labels.as_deref(),
            &mut traffic,
            TrafficReport::shard_leg,
            "BatchReply addressed to this shard",
            |shard, reply| match reply {
                Message::BatchReply { shard_id, results }
                    if shard_id == Some(shard) && results.len() == num_queries =>
                {
                    per_shard.push(results);
                    true
                }
                _ => false,
            },
        )?;
        traffic.batched_queries += gathered.sent * num_queries as u32;

        // Transpose shard-major replies into query-major merges: query q's
        // partial rankings across the surviving shards merge exactly like
        // a single scattered query's.
        let mut shard_iters: Vec<std::vec::IntoIter<crate::BatchResult>> =
            per_shard.into_iter().map(Vec::into_iter).collect();
        let mut queries = Vec::with_capacity(num_queries);
        for _ in 0..num_queries {
            let mut rankings: Vec<Vec<RankedResult>> = Vec::with_capacity(shard_iters.len());
            let mut files: Vec<Vec<EncryptedFile>> = Vec::with_capacity(shard_iters.len());
            for iter in &mut shard_iters {
                let (ranking, shard_files) = iter.next().expect("length validated at gather");
                rankings.push(ranked_results(ranking));
                files.push(shard_files);
            }
            queries.push(merge_shard_replies(rankings, files, top_k));
        }
        Ok(BatchScatterOutcome {
            queries,
            traffic,
            shards_ok: gathered.shards_ok,
            degraded: gathered.degraded,
        })
    }
}

/// A complete sharded deployment: owner, N shard server pools, router,
/// and one authorized user.
pub struct ShardedDeployment {
    owner: DataOwner,
    user: User,
    partitioner: IndexPartitioner,
    /// Flattened shard-major: replica `r` of shard `s` is
    /// `handles[s * replicas_per_shard + r]`.
    handles: Vec<ServerHandle>,
    replicas_per_shard: usize,
    router: ShardRouter,
}

impl core::fmt::Debug for ShardedDeployment {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ShardedDeployment {{ shards: {} }}",
            self.partitioner.num_shards()
        )
    }
}

impl ShardedDeployment {
    /// Bootstraps `num_shards` shards over `docs`. The owner builds the
    /// index once and partitions it; each shard boots from its own
    /// decoded Outsource frame onto `storage` ([`Storage::Generational`]
    /// names the directory holding every shard's `shard-<i>/` store) with
    /// the default cache budget, and gets the owner's exact label filter
    /// installed ([`CloudServer::install_label_filter`]).
    /// `router_options.replicas` serving pools with `options` (workers,
    /// backlog, deadline, faults) share each shard's one
    /// `Arc<CloudServer>`, and the router is wired with every shard's
    /// filter watch so pruning and the merged-result cache can invalidate
    /// on updates. Same ciphertexts on every storage, so sharded rankings
    /// stay byte-identical to the in-memory path; with
    /// [`RouterOptions::default`] every query scatters to every shard.
    ///
    /// # Errors
    ///
    /// Propagates index-construction and store I/O failures.
    pub fn bootstrap(
        master_seed: &[u8],
        params: RsseParams,
        docs: &[Document],
        num_shards: usize,
        storage: &Storage,
        options: PoolOptions,
        router_options: RouterOptions,
    ) -> Result<Self, CloudError> {
        let owner = DataOwner::new(master_seed, params);
        let partitioner = IndexPartitioner::new(num_shards);
        let replicas = router_options.replicas.max(1);
        let (frames, shard_labels) = owner.outsource_sharded_with_filters(docs, &partitioner)?;
        let mut handles = Vec::with_capacity(frames.len() * replicas);
        let mut replica_clients = Vec::with_capacity(frames.len());
        let mut watches = Vec::with_capacity(frames.len());
        for (shard, (outsource, labels)) in frames.into_iter().zip(shard_labels).enumerate() {
            // Over the wire exactly as deployed: each shard boots from
            // its own decoded Outsource frame.
            let frame = outsource.encode();
            let server = Arc::new(CloudServer::boot(
                Message::decode(frame)?,
                &storage.for_shard(shard),
                CloudServer::DEFAULT_CACHE_BUDGET,
            )?);
            server.install_label_filter(labels);
            watches.push(server.filter_watch());
            let clients: Vec<ServerClient> = (0..replicas)
                .map(|_| {
                    let handle =
                        ServerHandle::spawn_pool_shared(Arc::clone(&server), options.clone());
                    let client = handle.client();
                    handles.push(handle);
                    client
                })
                .collect();
            replica_clients.push(clients);
        }
        let router = ShardRouter::tuned(replica_clients, watches, router_options);
        let user = owner.authorize_user();
        Ok(ShardedDeployment {
            owner,
            user,
            partitioner,
            handles,
            replicas_per_shard: replicas,
            router,
        })
    }

    /// The authorized user.
    pub fn user(&self) -> &User {
        &self.user
    }

    /// The data owner.
    pub fn owner(&self) -> &DataOwner {
        &self.owner
    }

    /// The partition rule shards were populated under.
    pub fn partitioner(&self) -> IndexPartitioner {
        self.partitioner
    }

    /// The scatter-gather coordinator.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Shared handle to shard `i`'s server (audit log, raw index), if it
    /// exists. Under replicas this is the one server every replica pool
    /// of the shard serves from.
    pub fn shard_server(&self, shard: usize) -> Option<Arc<CloudServer>> {
        self.handles
            .get(shard * self.replicas_per_shard)
            .map(ServerHandle::server)
    }

    /// Sharded ranked search: scatter the keyword's trapdoor to every
    /// shard, merge, and decrypt the top-k files.
    ///
    /// # Errors
    ///
    /// Propagates trapdoor failures, and [`CloudError::AllShardsFailed`]
    /// when no shard replied.
    pub fn rsse_search(
        &self,
        keyword: &str,
        top_k: Option<u32>,
    ) -> Result<(Vec<Document>, ScatterOutcome), CloudError> {
        let legs = self
            .user
            .shard_query(keyword, top_k, self.router.num_shards() as u32)?;
        let outcome = self.router.scatter(legs, top_k.map(|k| k as usize))?;
        let docs = self.user.decrypt_files(&outcome.files)?;
        Ok((docs, outcome))
    }

    /// Batched sharded ranked search: every keyword's trapdoor rides the
    /// same scatter leg to each shard ([`User::batch_shard_query`]), and
    /// each keyword's merged ranking comes back byte-identical to a
    /// dedicated [`ShardedDeployment::rsse_search`] for it. Returns the
    /// decrypted top-k documents per keyword, in request order.
    ///
    /// # Errors
    ///
    /// Propagates trapdoor failures, and [`CloudError::AllShardsFailed`]
    /// when no shard replied.
    pub fn rsse_search_batch(
        &self,
        keywords: &[&str],
        top_k: Option<u32>,
    ) -> Result<(Vec<Vec<Document>>, BatchScatterOutcome), CloudError> {
        let legs = self
            .user
            .batch_shard_query(keywords, top_k, self.router.num_shards() as u32)?;
        let outcome = self.router.scatter_batch(legs, top_k.map(|k| k as usize))?;
        let docs = outcome
            .queries
            .iter()
            .map(|(_, files)| self.user.decrypt_files(files))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((docs, outcome))
    }

    /// Sharded conjunctive ranked search: scatter the query's trapdoor
    /// set to every shard ([`User::conjunctive_shard_query`]), merge the
    /// per-shard local intersections by `score_sum`, and decrypt the
    /// top-k files. Byte-identical to the unsharded
    /// [`Deployment::conjunctive_search`](crate::entities::Deployment::conjunctive_search)
    /// when no leg degrades.
    ///
    /// # Errors
    ///
    /// Propagates trapdoor failures, and [`CloudError::AllShardsFailed`]
    /// when no shard replied.
    pub fn conjunctive_search(
        &self,
        query: &str,
        top_k: Option<u32>,
    ) -> Result<(Vec<Document>, ConjunctiveScatterOutcome), CloudError> {
        let legs =
            self.user
                .conjunctive_shard_query(query, top_k, self.router.num_shards() as u32)?;
        let outcome = self
            .router
            .scatter_conjunctive(legs, top_k.map(|k| k as usize))?;
        let docs = self.user.decrypt_files(&outcome.files)?;
        Ok((docs, outcome))
    }

    /// Shuts every shard pool down, returning the total requests served
    /// across all shards.
    pub fn shutdown(self) -> u64 {
        self.handles.into_iter().map(ServerHandle::shutdown).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server_loop::Fault;
    use rsse_ir::corpus::{CorpusParams, SyntheticCorpus};
    use std::sync::Once;

    /// Silences the default panic printout for the panics this suite
    /// injects on purpose; genuine panics still print.
    fn quiet_injected_panics() {
        static HOOK: Once = Once::new();
        HOOK.call_once(|| {
            let default_hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains("injected fault"));
                if !injected {
                    default_hook(info);
                }
            }));
        });
    }

    fn rr(file: u64, score: u64) -> RankedResult {
        RankedResult {
            file: FileId::new(file),
            encrypted_score: score,
        }
    }

    fn ef(id: u64) -> EncryptedFile {
        EncryptedFile::new(FileId::new(id), vec![id as u8; 8])
    }

    #[test]
    fn partitioner_is_deterministic_and_covers_all_shards() {
        for n in 1..=8usize {
            let p = IndexPartitioner::new(n);
            assert_eq!(p.num_shards(), n);
            let mut hit = vec![false; n];
            for id in 0..256u64 {
                let s = p.shard_of(FileId::new(id));
                assert!(s < n);
                assert_eq!(s, p.shard_of(FileId::new(id)), "deterministic");
                hit[s] = true;
            }
            assert!(
                hit.iter().all(|&h| h),
                "256 files must touch all {n} shards"
            );
        }
        assert_eq!(IndexPartitioner::new(0).num_shards(), 1, "clamped");
    }

    #[test]
    fn merge_aligns_files_with_duplicate_scores_and_empty_shards() {
        // Shard 0 and 1 tie on score 90 (distinct files); shard 2 is empty.
        let rankings = vec![
            vec![rr(4, 90), rr(1, 10)],
            vec![rr(2, 90), rr(7, 50)],
            vec![],
        ];
        let files = vec![vec![ef(4), ef(1)], vec![ef(2), ef(7)], vec![]];
        let (ranking, out_files) = merge_shard_replies(rankings.clone(), files, Some(3));
        assert_eq!(ranking, vec![rr(2, 90), rr(4, 90), rr(7, 50)]);
        let ids: Vec<u64> = out_files.iter().map(|f| f.id().as_u64()).collect();
        assert_eq!(ids, vec![2, 4, 7], "files track the merged rank order");
        // k beyond the total returns everything, still aligned.
        let files = vec![vec![ef(4), ef(1)], vec![ef(2), ef(7)], vec![]];
        let (all, all_files) = merge_shard_replies(rankings, files, Some(99));
        assert_eq!(all.len(), 4);
        assert_eq!(all_files.len(), 4);
    }

    #[test]
    fn merge_drops_misaligned_files_instead_of_misattributing() {
        let rankings = vec![vec![rr(4, 90)]];
        // The shard claims result 4 but ships file 9.
        let files = vec![vec![ef(9)]];
        let (ranking, out_files) = merge_shard_replies(rankings, files, None);
        assert_eq!(ranking, vec![rr(4, 90)]);
        assert!(out_files.is_empty(), "a lying shard's file is dropped");
    }

    #[test]
    fn merge_keeps_later_files_after_a_missing_one() {
        // The shard ranks 1, 2, 3 but ships only the files of 2 and 3:
        // result 1 goes without its file, 2 and 3 keep theirs.
        let rankings = vec![vec![rr(1, 90), rr(2, 80), rr(3, 70)]];
        let (ranking, out_files) =
            merge_shard_replies(rankings.clone(), vec![vec![ef(2), ef(3)]], None);
        assert_eq!(ranking, rankings[0]);
        let ids: Vec<u64> = out_files.iter().map(|f| f.id().as_u64()).collect();
        assert_eq!(ids, vec![2, 3]);

        let conjunctive = vec![vec![(1, vec![90]), (2, vec![80]), (3, vec![70])]];
        let (ranking, out_files) =
            merge_conjunctive_replies(conjunctive.clone(), vec![vec![ef(2), ef(3)]], None);
        assert_eq!(ranking, conjunctive[0]);
        let ids: Vec<u64> = out_files.iter().map(|f| f.id().as_u64()).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    fn small_docs(seed: u64) -> SyntheticCorpus {
        SyntheticCorpus::generate(&CorpusParams::small(seed))
    }

    /// An in-memory deployment over `docs`: `shards` shards, single-worker
    /// pools with a `backlog`-deep queue, `router` features armed.
    fn deploy(
        seed: &[u8],
        docs: &[Document],
        shards: usize,
        backlog: usize,
        router: RouterOptions,
    ) -> ShardedDeployment {
        let pool = PoolOptions::new(1, backlog);
        let params = RsseParams::default();
        ShardedDeployment::bootstrap(seed, params, docs, shards, &Storage::Mem, pool, router)
            .unwrap()
    }

    #[test]
    fn sharded_search_round_trips_and_meters_legs() {
        let corpus = small_docs(71);
        let cloud = deploy(
            b"shard seed",
            corpus.documents(),
            3,
            8,
            RouterOptions::default(),
        );
        let (docs, outcome) = cloud.rsse_search("network", Some(5)).unwrap();
        assert_eq!(outcome.ranking.len(), 5);
        assert_eq!(docs.len(), 5);
        assert!(outcome.is_complete());
        assert_eq!(outcome.shards_ok, 3);
        assert_eq!(outcome.traffic.shard_legs, 3);
        assert_eq!(outcome.traffic.round_trips, 3);
        assert_eq!(outcome.traffic.error_frames, 0);
        assert!(outcome.traffic.bytes_down > 0);
        // Each shard audited exactly one scatter leg.
        for shard in 0..3 {
            let report = cloud.shard_server(shard).unwrap().serving_report();
            assert_eq!(report.shard_queries, 1, "shard {shard}");
        }
        assert_eq!(cloud.shutdown(), 3);
    }

    #[test]
    fn batched_scatter_matches_per_keyword_scatter() {
        let corpus = small_docs(75);
        let cloud = deploy(
            b"batch shard seed",
            corpus.documents(),
            3,
            16,
            RouterOptions::default(),
        );
        let keywords = ["network", "data"];

        // Reference: one scatter per keyword.
        let singles: Vec<Vec<RankedResult>> = keywords
            .iter()
            .map(|kw| cloud.rsse_search(kw, Some(5)).unwrap().1.ranking)
            .collect();

        let (docs, outcome) = cloud.rsse_search_batch(&keywords, Some(5)).unwrap();
        assert!(outcome.is_complete());
        assert_eq!(outcome.shards_ok, 3);
        assert_eq!(outcome.queries.len(), keywords.len());
        for (q, (ranking, files)) in outcome.queries.iter().enumerate() {
            assert_eq!(
                ranking, &singles[q],
                "batched merge must equal the dedicated scatter for query {q}"
            );
            assert_eq!(files.len(), ranking.len());
        }
        assert_eq!(docs.len(), keywords.len());
        // 2 keywords × 3 shards amortized into 3 legs / round trips.
        assert_eq!(outcome.traffic.shard_legs, 3);
        assert_eq!(outcome.traffic.round_trips, 3);
        assert_eq!(outcome.traffic.batched_queries, 6);
        cloud.shutdown();
    }

    #[test]
    fn batched_scatter_misaddressed_reply_degrades() {
        let corpus = small_docs(76);
        let cloud = deploy(
            b"batch misroute seed",
            corpus.documents(),
            2,
            8,
            RouterOptions::default(),
        );
        let mut legs = cloud
            .user()
            .batch_shard_query(&["network"], Some(3), 2)
            .unwrap();
        legs.swap(0, 1);
        let err = cloud.router().scatter_batch(legs, Some(3)).unwrap_err();
        assert!(matches!(err, CloudError::AllShardsFailed { shards: 2 }));
        cloud.shutdown();
    }

    #[test]
    fn one_faulted_shard_degrades_the_result_set_not_the_query() {
        quiet_injected_panics();
        let corpus = small_docs(72);
        let faulty = 1usize;
        let cloud = ShardedDeployment::bootstrap(
            b"degrade seed",
            RsseParams::default(),
            corpus.documents(),
            3,
            &Storage::Mem,
            PoolOptions::new(1, 8).with_fault(move |msg| {
                matches!(msg, Message::ShardQuery { shard_id, .. } if *shard_id == faulty as u32)
                    .then_some(Fault::Panic("boom"))
            }),
            RouterOptions::default(),
        )
        .unwrap();

        let (_, healthy) = cloud.rsse_search("network", None).unwrap();
        // Re-run with the fault armed on shard 1 only: the query still
        // succeeds, minus exactly shard 1's partition.
        let (docs, outcome) = cloud.rsse_search("network", None).unwrap();
        assert_eq!(outcome.shards_ok, 2);
        assert_eq!(outcome.degraded.len(), 1, "degradation is reported");
        let leg = &outcome.degraded[0];
        assert_eq!(leg.shard_id, faulty as u32);
        assert!(
            matches!(&leg.error, CloudError::Server { kind, .. } if *kind == ErrorKind::Internal),
            "the dead leg carries the shard's error frame: {:?}",
            leg.error
        );
        // The error frame's bytes are on the wire like any reply.
        assert_eq!(outcome.traffic.error_frames, 1);
        assert_eq!(outcome.traffic.shard_legs, 3);
        // Surviving shards' results are intact: the degraded ranking is
        // the healthy one minus the faulted shard's files.
        let p = cloud.partitioner();
        let expect: Vec<RankedResult> = healthy
            .ranking
            .iter()
            .copied()
            .filter(|r| p.shard_of(r.file) != faulty)
            .collect();
        assert_eq!(outcome.ranking, expect);
        assert_eq!(docs.len(), outcome.ranking.len());
        cloud.shutdown();
    }

    #[test]
    fn all_shards_failing_is_an_error_not_an_empty_result() {
        quiet_injected_panics();
        let corpus = small_docs(73);
        let cloud = ShardedDeployment::bootstrap(
            b"total loss seed",
            RsseParams::default(),
            corpus.documents(),
            2,
            &Storage::Mem,
            PoolOptions::new(1, 8).with_fault(|msg| {
                matches!(msg, Message::ShardQuery { .. }).then_some(Fault::Panic("boom"))
            }),
            RouterOptions::default(),
        )
        .unwrap();
        let err = cloud.rsse_search("network", Some(3)).unwrap_err();
        assert!(
            matches!(err, CloudError::AllShardsFailed { shards: 2 }),
            "got {err:?}"
        );
        cloud.shutdown();
    }

    /// Eight filler docs plus exactly one document holding the only
    /// "quasar" posting — so precisely one shard can answer a "quasar"
    /// query with real entries, whatever the shard count.
    fn pruning_corpus() -> Vec<Document> {
        let mut docs: Vec<Document> = (0..8u64)
            .map(|i| Document::new(FileId::new(100 + i), format!("alpha beta gamma doc {i}")))
            .collect();
        docs.push(Document::new(FileId::new(7), "quasar alpha".to_string()));
        docs
    }

    #[test]
    fn pruning_skips_filtered_shards_and_preserves_the_ranking() {
        let docs = pruning_corpus();
        let shards = 4usize;
        let plain = deploy(b"prune seed", &docs, shards, 16, RouterOptions::default());
        let tuned = deploy(
            b"prune seed",
            &docs,
            shards,
            16,
            RouterOptions::new().with_pruning(),
        );

        let (_, want) = plain.rsse_search("quasar", None).unwrap();
        let (_, got) = tuned.rsse_search("quasar", None).unwrap();
        assert_eq!(
            got.ranking, want.ranking,
            "pruned scatter must be byte-identical"
        );
        assert!(got.is_complete());
        assert_eq!(
            got.shards_ok, shards as u32,
            "pruned shards count as answered"
        );
        // Exactly one shard owns the only "quasar" posting; the rest
        // prove their emptiness and are pruned.
        assert_eq!(got.traffic.shard_legs, 1);
        assert_eq!(got.traffic.pruned_legs, shards as u32 - 1);
        // The first query pays one filter fetch per shard; a repeat,
        // with every filter current, pays none.
        assert_eq!(got.traffic.filter_fetches, shards as u32);
        let (_, again) = tuned.rsse_search("quasar", None).unwrap();
        assert_eq!(again.ranking, want.ranking);
        assert_eq!(again.traffic.filter_fetches, 0);

        // A keyword no document contains prunes every shard: an empty,
        // *complete* result, not an AllShardsFailed error.
        let (none_docs, all_pruned) = tuned.rsse_search("zyzzyva", None).unwrap();
        assert!(none_docs.is_empty());
        assert!(all_pruned.ranking.is_empty());
        assert!(all_pruned.is_complete());
        assert_eq!(all_pruned.shards_ok, shards as u32);
        assert_eq!(all_pruned.traffic.pruned_legs, shards as u32);
        assert_eq!(all_pruned.traffic.shard_legs, 0);
        plain.shutdown();
        tuned.shutdown();
    }

    #[test]
    fn merged_cache_hit_costs_zero_legs() {
        let docs = pruning_corpus();
        let tuned = deploy(
            b"merge cache seed",
            &docs,
            3,
            16,
            RouterOptions::new().with_merged_cache(1 << 20),
        );
        let (_, first) = tuned.rsse_search("alpha", Some(5)).unwrap();
        assert_eq!(first.traffic.shard_legs, 3);
        let (cached_docs, second) = tuned.rsse_search("alpha", Some(5)).unwrap();
        assert_eq!(
            second.ranking, first.ranking,
            "a cache hit replays the merge"
        );
        assert_eq!(second.traffic.shard_legs, 0, "a hit costs zero legs");
        assert_eq!(second.traffic.round_trips, 0);
        assert!(second.is_complete());
        assert_eq!(second.shards_ok, 3);
        assert_eq!(
            cached_docs.len(),
            second.ranking.len(),
            "cached files decrypt"
        );
        let stats = tuned.router().merged_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // A different top_k is a different cache key — served by a fresh
        // scatter whose ranking is the longer one's prefix.
        let (_, other_k) = tuned.rsse_search("alpha", Some(2)).unwrap();
        assert_eq!(other_k.traffic.shard_legs, 3);
        assert_eq!(other_k.ranking.len(), 2);
        assert_eq!(&first.ranking[..2], &other_k.ranking[..]);
        tuned.shutdown();
    }

    #[test]
    fn updates_invalidate_filters_and_merged_cache() {
        let docs = pruning_corpus();
        let shards = 4usize;
        let master = b"router coherence seed";
        let params = RsseParams::default();
        let tuned = deploy(
            master,
            &docs,
            shards,
            16,
            RouterOptions::new()
                .with_pruning()
                .with_merged_cache(1 << 20),
        );
        let partitioner = tuned.partitioner();

        let (_, first) = tuned.rsse_search("quasar", None).unwrap();
        assert_eq!(first.ranking.len(), 1);
        assert_eq!(first.traffic.shard_legs, 1);
        let quasar_shard = partitioner.shard_of(first.ranking[0].file);
        // Cached now: a repeat costs neither legs nor pruning decisions.
        let (_, cached) = tuned.rsse_search("quasar", None).unwrap();
        assert_eq!(cached.traffic.shard_legs, 0);
        assert_eq!(cached.traffic.pruned_legs, 0);

        // Grow "quasar" onto a *different* shard via a live update.
        let scheme = rsse_core::Rsse::new(master, params);
        let plain_index = rsse_ir::InvertedIndex::build(&docs);
        let updater = scheme.updater_for(&plain_index).unwrap();
        let crypter = crate::files::FileCrypter::new(master);
        let new_id = (1_000_000u64..)
            .find(|&id| partitioner.shard_of(FileId::new(id)) != quasar_shard)
            .unwrap();
        let doc = Document::new(FileId::new(new_id), "quasar sighting".to_string());
        let update = updater.add_document(&doc).unwrap();
        let shard = partitioner.shard_of(doc.id());
        tuned
            .shard_server(shard)
            .unwrap()
            .apply_update(update, vec![crypter.encrypt(&doc)]);

        // The touched shard's epoch moved: its filter is re-fetched, the
        // merged cache is flushed, and that shard is no longer pruned —
        // the new posting is served, never hidden by stale router state.
        let (_, after) = tuned.rsse_search("quasar", None).unwrap();
        assert_eq!(
            after.traffic.filter_fetches, 1,
            "only the updated shard re-fetches"
        );
        assert_eq!(after.traffic.shard_legs, 2);
        assert_eq!(after.traffic.pruned_legs, shards as u32 - 2);
        assert_eq!(after.ranking.len(), 2);
        assert!(after.ranking.iter().any(|r| r.file == doc.id()));
        tuned.shutdown();
    }

    #[test]
    fn replica_reads_spread_load_and_account_served_requests() {
        let corpus = small_docs(77);
        let shards = 2usize;
        let replicas = 3usize;
        let tuned = deploy(
            b"replica seed",
            corpus.documents(),
            shards,
            16,
            RouterOptions::new().with_replicas(replicas),
        );
        let queries = 30u64;
        let mut want: Option<Vec<RankedResult>> = None;
        for _ in 0..queries {
            let (_, outcome) = tuned.rsse_search("network", Some(5)).unwrap();
            assert!(outcome.is_complete());
            assert_eq!(outcome.traffic.shard_legs, shards as u32);
            match &want {
                None => want = Some(outcome.ranking),
                Some(w) => assert_eq!(&outcome.ranking, w, "replicas serve identical bytes"),
            }
        }
        let routing = tuned.router().replica_routing();
        assert_eq!(routing.len(), shards);
        for (shard, counts) in routing.iter().enumerate() {
            assert_eq!(counts.len(), replicas);
            assert_eq!(counts.iter().sum::<u64>(), queries, "shard {shard} total");
            let used = counts.iter().filter(|&&c| c > 0).count();
            assert!(
                used >= 2,
                "shard {shard} routed everything to one replica: {counts:?}"
            );
        }
        // Every routed leg was served by some replica pool of its shard.
        assert_eq!(tuned.shutdown(), queries * shards as u64);
    }

    #[test]
    fn sharded_conjunction_matches_the_unsharded_server() {
        let corpus = small_docs(78);
        let single = crate::entities::Deployment::bootstrap(
            b"conj shard seed",
            RsseParams::default(),
            corpus.documents(),
            &Storage::Mem,
            CloudServer::DEFAULT_CACHE_BUDGET,
        )
        .unwrap();
        let sharded = deploy(
            b"conj shard seed",
            corpus.documents(),
            3,
            8,
            RouterOptions::default(),
        );
        for top_k in [None, Some(1), Some(5), Some(100)] {
            let (want, want_docs, _) = single
                .conjunctive_search_ranked("network data", top_k)
                .unwrap();
            let (docs, outcome) = sharded.conjunctive_search("network data", top_k).unwrap();
            assert!(outcome.is_complete());
            assert_eq!(outcome.shards_ok, 3);
            assert_eq!(
                outcome.ranking, want,
                "sharded conjunctive merge must be byte-identical (top_k {top_k:?})"
            );
            let got_ids: Vec<_> = docs.iter().map(Document::id).collect();
            let want_ids: Vec<_> = want_docs.iter().map(Document::id).collect();
            assert_eq!(got_ids, want_ids);
        }
        // Legs are metered as conjunctive legs, never as shard legs.
        let (_, outcome) = sharded.conjunctive_search("network data", Some(5)).unwrap();
        assert_eq!(outcome.traffic.conjunctive_legs, 3);
        assert_eq!(outcome.traffic.conjunctive_queries, 1);
        assert_eq!(outcome.traffic.shard_legs, 0);
        assert_eq!(outcome.traffic.round_trips, 3);
        // Each shard audited its conjunctive scatter legs.
        let audited: u64 = (0..3)
            .map(|s| {
                sharded
                    .shard_server(s)
                    .unwrap()
                    .serving_report()
                    .conjunctive_shard_queries
            })
            .sum();
        assert_eq!(audited, 5 * 3);
        sharded.shutdown();
    }

    #[test]
    fn conjunctive_pruning_skips_shards_missing_any_label() {
        let docs = pruning_corpus();
        let shards = 4usize;
        let plain = deploy(
            b"conj prune seed",
            &docs,
            shards,
            16,
            RouterOptions::default(),
        );
        let tuned = deploy(
            b"conj prune seed",
            &docs,
            shards,
            16,
            RouterOptions::new().with_pruning(),
        );

        // Only one document holds "quasar", so only its shard can hold
        // both labels; every other shard's filter proves an empty
        // intersection and is pruned.
        let (_, want) = plain.conjunctive_search("quasar alpha", None).unwrap();
        let (_, got) = tuned.conjunctive_search("quasar alpha", None).unwrap();
        assert_eq!(
            got.ranking, want.ranking,
            "pruned conjunctive scatter must be byte-identical"
        );
        assert_eq!(got.ranking.len(), 1);
        assert!(got.is_complete());
        assert_eq!(got.shards_ok, shards as u32);
        assert_eq!(got.traffic.conjunctive_legs, 1);
        assert_eq!(got.traffic.pruned_legs, shards as u32 - 1);

        // A conjunction with an unknown keyword prunes every shard: an
        // empty, complete result, not an error.
        let (none_docs, all_pruned) = tuned.conjunctive_search("alpha zyzzyva", None).unwrap();
        assert!(none_docs.is_empty());
        assert!(all_pruned.ranking.is_empty());
        assert!(all_pruned.is_complete());
        assert_eq!(all_pruned.traffic.pruned_legs, shards as u32);
        assert_eq!(all_pruned.traffic.conjunctive_legs, 0);
        plain.shutdown();
        tuned.shutdown();
    }

    #[test]
    fn conjunctive_merged_cache_hits_share_keyword_orderings_and_invalidate_on_update() {
        let docs = pruning_corpus();
        let shards = 3usize;
        let master = b"conj cache seed";
        let params = RsseParams::default();
        let tuned = deploy(
            master,
            &docs,
            shards,
            16,
            RouterOptions::new().with_merged_cache(1 << 20),
        );

        let (_, first) = tuned.conjunctive_search("alpha beta", Some(5)).unwrap();
        assert_eq!(first.traffic.conjunctive_legs, shards as u32);
        let (cached_docs, second) = tuned.conjunctive_search("alpha beta", Some(5)).unwrap();
        assert_eq!(
            second.ranking, first.ranking,
            "a cache hit replays the merge"
        );
        assert_eq!(second.traffic.conjunctive_legs, 0, "a hit costs zero legs");
        assert_eq!(second.traffic.round_trips, 0);
        assert_eq!(cached_docs.len(), second.ranking.len());

        // The reversed keyword order shares the entry: same files, same
        // sums, per-keyword scores swapped back to the asking order.
        let (_, swapped) = tuned.conjunctive_search("beta alpha", Some(5)).unwrap();
        assert_eq!(
            swapped.traffic.conjunctive_legs, 0,
            "order-erased key shares the entry"
        );
        let unswapped: Vec<(u64, Vec<u64>)> = swapped
            .ranking
            .iter()
            .map(|(id, scores)| (*id, scores.iter().copied().rev().collect()))
            .collect();
        assert_eq!(unswapped, first.ranking);
        let stats = tuned.router().conjunctive_merged_cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));

        // A live update moves the shard's epoch: the cache flushes and
        // the new posting is served, never hidden by stale router state.
        let partitioner = tuned.partitioner();
        let scheme = rsse_core::Rsse::new(master, params);
        let plain_index = rsse_ir::InvertedIndex::build(&docs);
        let updater = scheme.updater_for(&plain_index).unwrap();
        let crypter = crate::files::FileCrypter::new(master);
        let doc = Document::new(FileId::new(2_000_000), "alpha beta reborn".to_string());
        let update = updater.add_document(&doc).unwrap();
        let shard = partitioner.shard_of(doc.id());
        tuned
            .shard_server(shard)
            .unwrap()
            .apply_update(update, vec![crypter.encrypt(&doc)]);

        let (_, after) = tuned.conjunctive_search("alpha beta", Some(20)).unwrap();
        assert_eq!(
            after.traffic.conjunctive_legs, shards as u32,
            "flushed: full scatter again"
        );
        assert!(after.ranking.iter().any(|(id, _)| *id == doc.id().as_u64()));
        tuned.shutdown();
    }

    #[test]
    fn misaddressed_reply_degrades_the_leg() {
        // A leg whose reply echoes the wrong shard id is out of protocol.
        let corpus = small_docs(74);
        let cloud = deploy(
            b"misroute seed",
            corpus.documents(),
            2,
            8,
            RouterOptions::default(),
        );
        // Hand-build legs that swap the shard ids: each shard answers with
        // an echo that fails the router's correlation check.
        let mut legs = cloud.user().shard_query("network", Some(3), 2).unwrap();
        legs.swap(0, 1);
        let err = cloud.router().scatter(legs, Some(3)).unwrap_err();
        assert!(matches!(err, CloudError::AllShardsFailed { shards: 2 }));
        cloud.shutdown();
    }
}
