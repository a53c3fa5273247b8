//! The three protocol entities of the paper's Fig. 1 — data owner, cloud
//! server, data user — and a [`Deployment`] harness that wires them through
//! the metered channel.
//!
//! Three retrieval protocols are implemented, matching the paper's
//! discussion:
//!
//! 1. **RSSE** (§IV): one round; the server ranks on OPM values and returns
//!    only the top-k files.
//! 2. **Basic, naive** (§III-C): one round; the server returns *every*
//!    matching file plus its semantically encrypted score; the user ranks.
//! 3. **Basic, two-round top-k** (§III-C discussion): round one transfers
//!    only `(id, E_z(S))` pairs; the user ranks and fetches top-k files in
//!    round two — saving bandwidth, paying an extra round trip.

use crate::audit::{AuditCounters, RequestKind, ServingReport};
use crate::cache::{inverse_order, CacheStats, ConjunctiveCache, RankingCache};
use crate::codec::{BatchResult, Label, Message, SearchMode};
use crate::error::CloudError;
use crate::files::{EncryptedFile, FileCrypter, FileStore};
use crate::network::{MeteredChannel, TrafficReport};
use crate::shard::IndexPartitioner;
use parking_lot::{RwLock, RwLockReadGuard};
use rsse_core::{
    canonical_label_order, ranked_prefix, CompactionStats, ConjunctiveResult, GenerationStats,
    MultiTrapdoor, RankedResult, Rsse, RsseIndex, RsseParams, RsseTrapdoor,
};
use rsse_crypto::SecretKey;
use rsse_ir::{Document, FileId, InvertedIndex};
use rsse_opse::OpseParams;
use rsse_sse::scheme::open_entries;
use rsse_sse::{BasicEncryptedIndex, BasicScheme};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The data owner: holds the master secret, builds the RSSE secure index
/// (and the basic scheme's, for a deployment that serves protocols 2 and
/// 3), encrypts the collection, and authorizes users by sharing the seed
/// (standing in for the paper's broadcast-encryption key distribution).
#[derive(Debug)]
pub struct DataOwner {
    master_seed: Vec<u8>,
    rsse: Rsse,
    basic: BasicScheme,
    files: FileCrypter,
}

impl DataOwner {
    /// Creates the owner from a master seed and RSSE parameters.
    pub fn new(master_seed: &[u8], params: RsseParams) -> Self {
        DataOwner {
            master_seed: master_seed.to_vec(),
            rsse: Rsse::new(master_seed, params),
            basic: BasicScheme::new(master_seed),
            files: FileCrypter::new(master_seed),
        }
    }

    /// The `Setup` phase: build the RSSE index, encrypt all files, and
    /// emit the `Outsource` message — the one-shard case of
    /// [`Self::outsource_sharded_with_filters`]. Its `basic_lists` are
    /// empty, so a server booted from it answers protocols 2 and 3 with
    /// `Rejected`; [`Deployment::bootstrap_with_basic`] ships the basic
    /// scheme's index too.
    ///
    /// # Errors
    ///
    /// Propagates index-construction failures.
    pub fn outsource(&self, docs: &[Document]) -> Result<Message, CloudError> {
        self.outsource_with(docs, false)
    }

    /// [`Self::outsource`], with the basic scheme's index in `basic_lists`
    /// when `basic` is set.
    fn outsource_with(&self, docs: &[Document], basic: bool) -> Result<Message, CloudError> {
        let (mut frames, _) = self.setup(docs, &IndexPartitioner::new(1), basic)?;
        Ok(frames.pop().expect("one shard, one frame"))
    }

    /// Authorizes a user: in the paper, the trapdoor-generation key is
    /// distributed via public-key crypto or broadcast encryption; here the
    /// credential is the master seed itself.
    pub fn authorize_user(&self) -> User {
        User::new(&self.master_seed, *self.rsse.params())
    }

    /// Encrypts the collection without touching either index — the
    /// warm-restart path: the server reopens its index from its on-disk
    /// store, and only the file ciphertexts (deterministic under the
    /// owner's key) need re-supplying.
    pub fn encrypt_files(&self, docs: &[Document]) -> Vec<EncryptedFile> {
        self.files.encrypt_collection(docs)
    }

    /// Sharded `Setup`: builds the global encrypted index **once**,
    /// routing each entry to its shard as the build writes it
    /// ([`Rsse::build_parts`]), and emits one `Outsource` message per
    /// shard plus the per-shard **exact** label filters. With one shard
    /// this is [`Self::outsource`], frame for frame.
    ///
    /// Partitioning the one build — rather than building one index per
    /// shard — is what makes sharded ranking byte-identical to the
    /// unsharded path: scores are computed against global collection
    /// statistics, and each OPM value is seeded per `(keyword, file)`, so
    /// a per-shard rebuild would change both. Entries are semantically
    /// encrypted, so only the owner can route them: a real entry goes to
    /// the shard owning its file, and padding entries (positions past the
    /// real postings) spread round-robin so every shard keeps cover
    /// traffic. Every label is on every shard. Each encrypted file is
    /// stored only on the shard owning its id; the basic-scheme index is
    /// not sharded (single-server protocols 2 and 3 stay on an unsharded
    /// [`Deployment::bootstrap_with_basic`]).
    ///
    /// A shard's filter is the sorted set of posting-list labels whose
    /// partition on that shard contains at least one *real* (non-padding)
    /// entry. Padding-only partitions rank to nothing
    /// (`RsseIndex::search` drops entries that fail authenticated
    /// decryption), so a router may skip any shard outside a label's
    /// filter without changing the merged ranking. Only the owner can
    /// compute these exactly — the build knows which entries are real,
    /// which the server-side conservative filter cannot tell.
    ///
    /// # Errors
    ///
    /// Propagates index-construction failures.
    pub fn outsource_sharded_with_filters(
        &self,
        docs: &[Document],
        partitioner: &IndexPartitioner,
    ) -> Result<(Vec<Message>, Vec<Vec<Label>>), CloudError> {
        self.setup(docs, partitioner, false)
    }

    /// The one `Setup` body behind [`Self::outsource`] and
    /// [`Self::outsource_sharded_with_filters`]: one build partitioned
    /// across the shards, and each file encrypted onto its shard. With
    /// `basic` set the basic scheme's index rides in the first frame, which
    /// only an unsharded deployment asks for.
    fn setup(
        &self,
        docs: &[Document],
        partitioner: &IndexPartitioner,
        basic: bool,
    ) -> Result<(Vec<Message>, Vec<Vec<Label>>), CloudError> {
        let plaintext_index = InvertedIndex::build(docs);
        let n = partitioner.num_shards();
        let built = self
            .rsse
            .build_parts(&plaintext_index, n, |file| partitioner.shard_of(file))?;
        let mut basic_lists = if basic {
            self.basic
                .build_index(&plaintext_index, Default::default())?
                .export_parts()
        } else {
            Vec::new()
        };
        let mut shard_files: Vec<Vec<EncryptedFile>> = vec![Vec::new(); n];
        for file in self.files.encrypt_collection(docs) {
            shard_files[partitioner.shard_of(file.id())].push(file);
        }
        let frames = built
            .shards
            .into_iter()
            .zip(shard_files)
            .map(|(rsse_lists, files)| Message::Outsource {
                rsse_lists,
                basic_lists: std::mem::take(&mut basic_lists),
                opse_domain: built.opse.domain_size(),
                opse_range: built.opse.range_size(),
                files,
            })
            .collect();
        Ok((frames, built.real_labels))
    }
}

/// One query of a [`Message::BatchRequest`]: `(label, list key, top_k)`.
type BatchQuery = (Label, [u8; 32], Option<u32>);

/// A conjunctive reply's ranking as wire `(file id, per-keyword scores)`
/// pairs, plus the ranked files.
type ConjunctiveReply = (Vec<(u64, Vec<u64>)>, Vec<EncryptedFile>);

/// Where a [`CloudServer`] keeps its encrypted index.
///
/// A sharded deployment reads the path as the directory holding every
/// shard's store, one `shard-<i>/` store per shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Storage {
    /// In memory, as the paper's server.
    Mem,
    /// A generational store (immutable generations under a manifest) in
    /// this directory: served from disk, updates held in memory until
    /// [`CloudServer::flush_index`].
    Generational(PathBuf),
}

impl Storage {
    /// Shard `shard`'s store under this one.
    pub(crate) fn for_shard(&self, shard: usize) -> Storage {
        match self {
            Storage::Mem => Storage::Mem,
            Storage::Generational(dir) => Storage::Generational(dir.join(format!("shard-{shard}"))),
        }
    }
}

/// The honest-but-curious cloud server.
///
/// All mutable state — the RSSE index (§VII score-dynamics appends), the
/// file store, and the ranking cache — sits behind `parking_lot` locks, so
/// `handle` takes `&self` and an `Arc<CloudServer>` can serve many worker
/// threads concurrently: searches take read locks and never serialize
/// against each other; only updates take the write side. Audit counters
/// are lock-free atomics ([`AuditCounters`]) — the per-request
/// `audit.write()` of earlier versions serialized the whole pool.
#[derive(Debug)]
pub struct CloudServer {
    rsse_index: RwLock<RsseIndex>,
    /// The basic scheme's index, for protocols 2 and 3 only: `None` when
    /// the Outsource frame carried no basic lists (a shard) and on a
    /// reopened store, which persists the RSSE index alone.
    basic_index: Option<BasicEncryptedIndex>,
    files: RwLock<FileStore>,
    counters: AuditCounters,
    /// Hot-keyword ranking cache (DESIGN.md §6.3). An `RwLock` whose read
    /// side carries the whole hit path: [`RankingCache::get`] takes
    /// `&self` (LRU clock and counters are atomics), so concurrent workers
    /// hit in parallel; only fills, invalidations, and eviction take the
    /// write side. The expensive ranking work on a miss happens *outside*
    /// the lock, guarded by the cache epoch.
    cache: RwLock<RankingCache>,
    /// Conjunctive-result cache, same epoch discipline as `cache`: full
    /// intersected rankings keyed by the **sorted** label set, with mapped
    /// scores stored in canonical (label-sorted) part order so every
    /// keyword ordering of one query shares one entry (DESIGN.md §6.8).
    /// Invalidated wholesale on updates and compactions — a conjunction
    /// touches several lists, so per-label surgical invalidation would
    /// need a reverse map for a path that is rebuilt in one batched read.
    conjunctive_cache: RwLock<ConjunctiveCache>,
    /// The shard-side label filter: which posting-list labels this server
    /// (treated as one shard of a sharded deployment) may hold real
    /// postings for, plus the epoch stamped into every `FilterReply`
    /// (DESIGN.md §6.5). Seeded conservatively from the index directory at
    /// boot, replaced by the owner's exact set at sharded bootstrap, grown
    /// by every update.
    filter: RwLock<LabelFilter>,
    /// Lock-free mirror of the filter epoch, shared with in-process
    /// routers so they can detect staleness with one atomic load per
    /// query instead of a filter-fetch round trip.
    filter_watch: Arc<AtomicU64>,
}

/// The label set behind [`Message::FilterReply`], with its epoch.
#[derive(Debug)]
struct LabelFilter {
    labels: BTreeSet<Label>,
    epoch: u64,
}

impl CloudServer {
    /// Default ranking-cache budget: plenty for every hot list of the
    /// simulated corpora while still exercising eviction under adversarial
    /// growth.
    pub const DEFAULT_CACHE_BUDGET: usize = 32 << 20;

    /// Boots the server from the owner's `Outsource` message onto
    /// `storage`, with a ranking-cache budget of `cache_budget_bytes`
    /// (`0` disables caching: every search ranks from the index).
    ///
    /// * [`Storage::Mem`] serves the received index from memory.
    /// * [`Storage::Generational`] persists it as a base generation plus
    ///   manifest and serves it from disk via each generation's
    ///   label→offset directory: a query reads only its posting list.
    ///   Later updates flush into cheap L0 delta generations
    ///   ([`CloudServer::flush_index`]) and fold back together with a
    ///   live compaction that never stops serving
    ///   ([`CloudServer::compact_index_live`]).
    ///
    /// A later restart can skip this step on the on-disk store with
    /// [`CloudServer::reopen`].
    ///
    /// Every non-empty posting list must be whole entries of its scheme's
    /// one entry length ([`rsse_core::entry::ENTRY_CT_LEN`] for an RSSE
    /// list, as [`RsseIndex::from_parts`] admits them). Nothing is stored
    /// or written before the lists pass.
    ///
    /// # Errors
    ///
    /// [`CloudError::UnexpectedMessage`] for any other message type, an
    /// OPSE parameter error for inconsistent public parameters,
    /// [`rsse_core::RsseError::MalformedList`] or
    /// [`rsse_sse::SseError::MalformedList`] for a list that is not whole,
    /// and [`CloudError::Persist`] for failures writing or reopening the
    /// store.
    pub fn boot(
        msg: Message,
        storage: &Storage,
        cache_budget_bytes: usize,
    ) -> Result<Self, CloudError> {
        let Message::Outsource {
            rsse_lists,
            basic_lists,
            opse_domain,
            opse_range,
            files,
        } = msg
        else {
            return Err(CloudError::UnexpectedMessage {
                expected: "Outsource",
            });
        };
        let opse = OpseParams::new(opse_domain, opse_range)
            .map_err(|e| CloudError::Rsse(rsse_core::RsseError::Opse(e)))?;
        let staged = RsseIndex::from_parts(rsse_lists, opse)?;
        let basic_index = (!basic_lists.is_empty())
            .then(|| BasicEncryptedIndex::from_parts(basic_lists))
            .transpose()?;
        let index = match storage {
            Storage::Mem => staged,
            Storage::Generational(dir) => staged.save_generational(dir)?,
        };
        Ok(Self::assemble(
            index,
            basic_index,
            files,
            cache_budget_bytes,
        ))
    }

    /// Warm restart from the generational store an earlier
    /// [`CloudServer::boot`] left on disk in `dir`. No `Outsource`
    /// message, no index rebuild; the first query is answerable as soon
    /// as the manifest and the generation directories are read.
    /// The basic-scheme index is not persisted (it exists for the paper's
    /// baseline protocols), so a reopened server serves the RSSE protocol
    /// only, and the owner re-supplies the file ciphertexts.
    ///
    /// The store's lists must hold [`rsse_core::entry::ENTRY_CT_LEN`]-byte
    /// entries, as [`CloudServer::boot`] requires of the `Outsource`
    /// lists; opening each generation checks its directory
    /// ([`RsseIndex::open_generational`]).
    ///
    /// # Errors
    ///
    /// [`CloudError::Persist`] on a malformed or unreadable store, and
    /// [`rsse_core::RsseError::MalformedList`] for a non-empty list of
    /// another entry length (a store written in an older entry layout).
    pub fn reopen(
        dir: impl AsRef<std::path::Path>,
        files: Vec<EncryptedFile>,
        cache_budget_bytes: usize,
    ) -> Result<Self, CloudError> {
        let index = RsseIndex::open_generational(dir)?;
        Ok(Self::assemble(index, None, files, cache_budget_bytes))
    }

    /// [`CloudServer::boot`] in memory with the default cache budget.
    ///
    /// # Errors
    ///
    /// As [`CloudServer::boot`].
    pub fn from_outsource(msg: Message) -> Result<Self, CloudError> {
        Self::boot(msg, &Storage::Mem, Self::DEFAULT_CACHE_BUDGET)
    }

    /// [`CloudServer::boot`] in memory.
    ///
    /// # Errors
    ///
    /// As [`CloudServer::boot`].
    pub fn from_outsource_with_cache(
        msg: Message,
        cache_budget_bytes: usize,
    ) -> Result<Self, CloudError> {
        Self::boot(msg, &Storage::Mem, cache_budget_bytes)
    }

    /// [`CloudServer::boot`] onto a generational store under `dir`.
    ///
    /// # Errors
    ///
    /// As [`CloudServer::boot`].
    pub fn from_outsource_generational(
        msg: Message,
        dir: impl AsRef<std::path::Path>,
        cache_budget_bytes: usize,
    ) -> Result<Self, CloudError> {
        Self::boot(
            msg,
            &Storage::Generational(dir.as_ref().into()),
            cache_budget_bytes,
        )
    }

    fn assemble(
        index: RsseIndex,
        basic_index: Option<BasicEncryptedIndex>,
        files: Vec<EncryptedFile>,
        cache_budget_bytes: usize,
    ) -> Self {
        let mut store = FileStore::new();
        store.ingest(files);
        // Conservative filter seed: every label whose list is non-empty.
        // Padding entries count (the server cannot tell them apart), so
        // this is a superset of the true posting owners — always safe to
        // prune against, just weaker than the owner's exact install.
        let labels: BTreeSet<Label> = index.occupied_labels().into_iter().collect();
        CloudServer {
            rsse_index: RwLock::new(index),
            basic_index,
            files: RwLock::new(store),
            counters: AuditCounters::new(),
            cache: RwLock::new(RankingCache::new(cache_budget_bytes)),
            conjunctive_cache: RwLock::new(ConjunctiveCache::new(cache_budget_bytes)),
            filter: RwLock::new(LabelFilter { labels, epoch: 0 }),
            filter_watch: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Replaces the label filter wholesale — the sharded-bootstrap path,
    /// where the owner supplies the **exact** per-shard label set from
    /// [`DataOwner::outsource_sharded_with_filters`]. Bumps the filter
    /// epoch so routers holding the conservative seed re-fetch.
    pub fn install_label_filter(&self, labels: Vec<Label>) {
        let mut filter = self.filter.write();
        filter.labels = labels.into_iter().collect();
        filter.epoch += 1;
        self.filter_watch.store(filter.epoch, Ordering::Release);
    }

    /// The lock-free filter-epoch watch. An in-process router holds a
    /// clone and compares it against the epoch of its cached filter before
    /// every pruning decision; a mismatch means "re-fetch over the
    /// protocol before trusting the filter again".
    pub fn filter_watch(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.filter_watch)
    }

    /// Dispatches one request message to one response message.
    ///
    /// Safe to call concurrently from many threads: searches and fetches
    /// take read locks only, while [`Message::Update`] briefly takes the
    /// write side.
    ///
    /// # Errors
    ///
    /// [`CloudError::UnexpectedMessage`] for non-request messages.
    pub fn handle(&self, msg: Message) -> Result<Message, CloudError> {
        let (kind, outcome) = self.dispatch(msg);
        self.counters.record(kind);
        outcome
    }

    /// One ranked search against the RSSE index, served from the ranking
    /// cache when possible.
    ///
    /// * **Hit** — the label's full ranking is cached; any `top_k` is a
    ///   prefix copy ([`ranked_prefix`]), zero per-entry work.
    /// * **Miss** — ranks the *entire* list (`top_k = None`) outside the
    ///   cache lock, then offers the result back under the epoch snapshot
    ///   taken before the index read, so a fill racing an invalidation can
    ///   never park stale data (see `crate::cache`).
    /// * **Disabled** (budget 0) — direct heap top-k search, as before the
    ///   cache existed; neither hits nor misses are counted.
    ///
    /// A list that fails to read off the store answers its error
    /// ([`RsseIndex::try_search`]) and fills no cache.
    fn ranked_search(
        &self,
        label: Label,
        list_key: [u8; 32],
        top_k: Option<usize>,
    ) -> Result<Vec<RankedResult>, CloudError> {
        let trapdoor = RsseTrapdoor::from_parts(label, SecretKey::from_bytes(list_key));
        // The hot path holds only the read lock: `lookup` takes `&self`,
        // so concurrent hits never serialize against each other.
        let lookup = self.cache.read().lookup(&label);
        let fill_epoch = match lookup {
            Ok(ranking) => {
                self.counters.record_cache(true);
                return Ok(ranked_prefix(&ranking, top_k));
            }
            Err(None) => return Ok(self.rsse_index.read().try_search(&trapdoor, top_k)?),
            Err(Some(epoch)) => epoch,
        };
        self.counters.record_cache(false);
        // Rank the full list so every later top-k is a prefix of this fill.
        let full = Arc::new(self.rsse_index.read().try_search(&trapdoor, None)?);
        let result = ranked_prefix(&full, top_k);
        self.cache
            .write()
            .insert_if_current(label, full, fill_epoch);
        Ok(result)
    }

    /// Ranked ids + the matching encrypted files for one query — the body
    /// shared by the single and sharded search arms.
    fn ranked_search_with_files(
        &self,
        label: Label,
        list_key: [u8; 32],
        top_k: Option<u32>,
    ) -> Result<BatchResult, CloudError> {
        let ranking = self.ranked_search(label, list_key, top_k.map(|k| k as usize))?;
        Ok(self.with_files(&ranking))
    }

    /// A ranking as wire `(file id, OPM score)` pairs plus the ranked
    /// files, fetched under one read lock.
    fn with_files(&self, results: &[RankedResult]) -> BatchResult {
        let ids: Vec<FileId> = results.iter().map(|r| r.file).collect();
        (
            results
                .iter()
                .map(|r| (r.file.as_u64(), r.encrypted_score))
                .collect(),
            self.files.read().fetch_many(&ids),
        )
    }

    /// Serves every query of one batch frame together: cache probes under
    /// one cache read guard, then each distinct missed label ranked once by
    /// [`RsseIndex::search`] under one index read guard — a label repeated
    /// within the frame is searched once, not once per copy.
    ///
    /// Per-query replies stay byte-identical to serial
    /// [`Self::ranked_search_with_files`] calls: cache hits take the same
    /// prefix copy; misses are full-list rankings (`top_k = None`) that
    /// answer via [`ranked_prefix`] — which equals the direct heap top-k
    /// by the sort-then-truncate property — and are offered back under
    /// one epoch snapshot taken before the index read, exactly like the
    /// single-query fill. Cache hit/miss counters follow serial order: a
    /// label missing at batch start counts one miss, its duplicates count
    /// hits (they would have hit the just-filled entry). The cache itself
    /// is probed once per missing label, so its miss count is the audit's.
    /// A list that fails to read answers the whole frame's error and fills
    /// no cache.
    fn ranked_search_batch(
        &self,
        queries: Vec<BatchQuery>,
    ) -> Result<Vec<BatchResult>, CloudError> {
        /// How one query of the batch resolves: a cached full ranking, or
        /// an index into the batched miss-fill rankings.
        enum Plan {
            Cached(Arc<Vec<RankedResult>>),
            Miss(usize),
        }
        let mut plans: Vec<Plan> = Vec::with_capacity(queries.len());
        let mut miss_trapdoors: Vec<RsseTrapdoor> = Vec::new();
        let mut miss_slot: HashMap<Label, usize> = HashMap::new();
        let cache_enabled;
        let fill_epoch;
        {
            let cache = self.cache.read();
            cache_enabled = cache.is_enabled();
            fill_epoch = cache.epoch();
            for (label, key, _) in &queries {
                // A copy of a label that already missed in this frame
                // would miss again under this guard: it is not probed, so
                // the cache counts the one miss the audit counts.
                if cache_enabled && !miss_slot.contains_key(label) {
                    if let Some(ranking) = cache.get(label) {
                        plans.push(Plan::Cached(ranking));
                        continue;
                    }
                }
                let slot = *miss_slot.entry(*label).or_insert_with(|| {
                    miss_trapdoors.push(RsseTrapdoor::from_parts(
                        *label,
                        SecretKey::from_bytes(*key),
                    ));
                    miss_trapdoors.len() - 1
                });
                plans.push(Plan::Miss(slot));
            }
        }
        // Counted before the index read, so a frame that fails counts
        // the probes the cache already counted.
        let mut filled: HashSet<Label> = HashSet::new();
        for ((label, ..), plan) in queries.iter().zip(&plans) {
            match plan {
                Plan::Cached(_) => self.counters.record_cache(true),
                // First sight of the label is the miss; its duplicates
                // would have hit the fresh fill.
                Plan::Miss(_) if cache_enabled => {
                    self.counters.record_cache(!filled.insert(*label));
                }
                Plan::Miss(_) => {}
            }
        }
        let full: Vec<Arc<Vec<RankedResult>>> = {
            let index = self.rsse_index.read();
            miss_trapdoors
                .iter()
                .map(|trapdoor| index.try_search(trapdoor, None).map(Arc::new))
                .collect::<Result<_, _>>()?
        };
        if cache_enabled && !full.is_empty() {
            let mut cache = self.cache.write();
            for (trapdoor, ranking) in miss_trapdoors.iter().zip(&full) {
                cache.insert_if_current(*trapdoor.label(), Arc::clone(ranking), fill_epoch);
            }
        }
        Ok(queries
            .iter()
            .zip(&plans)
            .map(|((_, _, top_k), plan)| {
                let ranking: &[RankedResult] = match plan {
                    Plan::Cached(ranking) => ranking,
                    Plan::Miss(slot) => &full[*slot],
                };
                self.with_files(&ranked_prefix(ranking, top_k.map(|k| k as usize)))
            })
            .collect())
    }

    /// Counters of the index's conjunctive pushdown path (zero until the
    /// first conjunctive query).
    pub fn conjunctive_stats(&self) -> rsse_core::ConjunctiveStats {
        self.rsse_index.read().conjunctive_stats()
    }

    /// One conjunctive search against the RSSE index, served from the
    /// conjunctive cache when possible.
    ///
    /// The cache key is the **sorted** label set, so every keyword
    /// ordering of one query shares a single entry; cached values keep
    /// their per-keyword scores in canonical (label-sorted) part order and
    /// the hit path permutes them back to the query's keyword order. Any
    /// `top_k` is a prefix of the cached full ranking — results are
    /// totally ordered by (score sum, file id), which is independent of
    /// keyword order. Same epoch discipline as [`Self::ranked_search`]:
    /// the intersection runs outside the cache lock and the fill is
    /// rejected if any invalidation happened in between. A list that fails
    /// to read answers its error and fills no cache.
    fn conjunctive_ranked_search(
        &self,
        trapdoors: Vec<(Label, [u8; 32])>,
        top_k: Option<usize>,
    ) -> Result<Vec<ConjunctiveResult>, CloudError> {
        let labels: Vec<Label> = trapdoors.iter().map(|(label, _)| *label).collect();
        let parts: Vec<RsseTrapdoor> = trapdoors
            .into_iter()
            .map(|(label, key)| RsseTrapdoor::from_parts(label, SecretKey::from_bytes(key)))
            .collect();
        let multi = MultiTrapdoor::from_parts(parts);
        if labels.is_empty() {
            return Ok(Vec::new());
        }
        let order = canonical_label_order(&labels);
        let key: Vec<Label> = order.iter().map(|&i| labels[i]).collect();
        let lookup = self.conjunctive_cache.read().lookup(&key);
        let fill_epoch = match lookup {
            Err(None) => return Ok(self.rsse_index.read().search_conjunctive(&multi, top_k)?),
            Err(Some(epoch)) => epoch,
            Ok(canonical) => {
                self.counters.record_cache(true);
                let inv = inverse_order(&order);
                let take = top_k.unwrap_or(canonical.len()).min(canonical.len());
                return Ok(canonical[..take]
                    .iter()
                    .map(|r| ConjunctiveResult {
                        file: r.file,
                        mapped_scores: inv.iter().map(|&k| r.mapped_scores[k]).collect(),
                        score_sum: r.score_sum,
                    })
                    .collect());
            }
        };
        self.counters.record_cache(false);
        // Intersect the full ranking so every later top-k is a prefix of
        // this fill.
        let full = self.rsse_index.read().search_conjunctive(&multi, None)?;
        let canonical: Vec<ConjunctiveResult> = full
            .iter()
            .map(|r| ConjunctiveResult {
                file: r.file,
                mapped_scores: order.iter().map(|&i| r.mapped_scores[i]).collect(),
                score_sum: r.score_sum,
            })
            .collect();
        self.conjunctive_cache
            .write()
            .insert_if_current(key, Arc::new(canonical), fill_epoch);
        let mut result = full;
        if let Some(k) = top_k {
            result.truncate(k);
        }
        Ok(result)
    }

    /// Ranked `(id, per-keyword scores)` pairs + the matching encrypted
    /// files for one conjunctive query — the body shared by the single and
    /// sharded conjunctive arms.
    fn conjunctive_search_with_files(
        &self,
        trapdoors: Vec<(Label, [u8; 32])>,
        top_k: Option<u32>,
    ) -> Result<ConjunctiveReply, CloudError> {
        let results = self.conjunctive_ranked_search(trapdoors, top_k.map(|k| k as usize))?;
        let ids: Vec<FileId> = results.iter().map(|r| r.file).collect();
        let files = self.files.read().fetch_many(&ids);
        Ok((
            results
                .into_iter()
                .map(|r| (r.file.as_u64(), r.mapped_scores))
                .collect(),
            files,
        ))
    }

    fn dispatch(&self, msg: Message) -> (RequestKind, Result<Message, CloudError>) {
        match msg {
            Message::SearchRequest {
                label,
                list_key,
                top_k,
                mode,
            } => {
                if mode == SearchMode::Rsse {
                    let reply = self.ranked_search_with_files(label, list_key, top_k);
                    return (
                        RequestKind::Search,
                        reply.map(|(ranking, files)| Message::RsseResponse { ranking, files }),
                    );
                }
                // Protocols 2 and 3 need the basic-scheme index; without
                // one, an empty reply would read as "no match".
                let Some(basic) = &self.basic_index else {
                    return (
                        RequestKind::Rejected,
                        Err(CloudError::UnexpectedMessage {
                            expected: "an RSSE search: this server holds no basic-scheme index",
                        }),
                    );
                };
                let opened = basic
                    .search(&label)
                    .map(|entries| open_entries(&SecretKey::from_bytes(list_key), entries))
                    .unwrap_or_default();
                let ids: Vec<FileId> = opened.iter().map(|(f, _)| *f).collect();
                let scores = opened.into_iter().map(|(f, ct)| (f.as_u64(), ct)).collect();
                let response = match mode {
                    SearchMode::BasicFull => Message::BasicFullResponse {
                        scores,
                        files: self.files.read().fetch_many(&ids),
                    },
                    _ => Message::BasicEntriesResponse { scores },
                };
                (RequestKind::Search, Ok(response))
            }
            Message::FetchFiles { ids } => {
                let ids: Vec<FileId> = ids.into_iter().map(FileId::new).collect();
                (
                    RequestKind::Fetch,
                    Ok(Message::FilesResponse {
                        files: self.files.read().fetch_many(&ids),
                    }),
                )
            }
            Message::ConjunctiveRequest { trapdoors, top_k } => {
                let reply = self.conjunctive_search_with_files(trapdoors, top_k);
                (
                    RequestKind::Conjunctive,
                    reply.map(|(ranking, files)| Message::ConjunctiveResponse { ranking, files }),
                )
            }
            Message::ConjunctiveShardQuery {
                trapdoors,
                top_k,
                shard_id,
            } => {
                // One conjunctive scatter leg: the disjoint file partition
                // makes this shard's local intersection exactly the global
                // intersection restricted to its files, so intersecting
                // locally and echoing the shard identity suffices — the
                // router k-way merges the per-shard rankings. Served
                // through the conjunctive cache like the direct arm, so
                // sharded conjunctions stay byte-identical with caching on.
                let reply = self.conjunctive_search_with_files(trapdoors, top_k);
                (
                    RequestKind::ConjunctiveShard,
                    reply.map(|(ranking, files)| Message::ConjunctiveShardReply {
                        shard_id,
                        ranking,
                        files,
                    }),
                )
            }
            Message::ShardQuery {
                label,
                list_key,
                top_k,
                shard_id,
            } => {
                // One scatter leg: rank this shard's partition of the list
                // locally and echo the shard identity for correlation. The
                // local top-k suffices globally because files partition
                // disjointly across shards. Routed through the ranking
                // cache like every other RSSE search, so sharded rankings
                // stay byte-identical with caching on (the cache stores
                // this shard's own partition ranking).
                let reply = self.ranked_search_with_files(label, list_key, top_k);
                (
                    RequestKind::ShardQuery,
                    reply.map(|(ranking, files)| Message::ShardReply {
                        shard_id,
                        ranking,
                        files,
                    }),
                )
            }
            Message::BatchRequest { queries, shard_id } => {
                let reply = self.ranked_search_batch(queries);
                (
                    RequestKind::Batch,
                    reply.map(|results| Message::BatchReply { shard_id, results }),
                )
            }
            Message::Update { rsse_lists, files } => {
                let lists_touched = rsse_lists.len() as u64;
                let files_added = files.len() as u64;
                // Checked whole before anything changes: a malformed
                // update is rejected with files, lists, caches and the
                // filter epoch untouched.
                match rsse_core::IndexUpdate::from_parts(rsse_lists) {
                    Ok(update) => self.apply_update(update, files),
                    Err(e) => return (RequestKind::Rejected, Err(e.into())),
                }
                (
                    RequestKind::Update,
                    Ok(Message::UpdateAck {
                        lists_touched,
                        files_added,
                    }),
                )
            }
            Message::FilterRequest {
                shard_id,
                known_epoch,
            } => {
                let filter = self.filter.read();
                // An up-to-date requester gets the epoch echo only; anyone
                // else gets the full sorted label set to prune with.
                let labels = (known_epoch != Some(filter.epoch))
                    .then(|| filter.labels.iter().copied().collect());
                (
                    RequestKind::Filter,
                    Ok(Message::FilterReply {
                        shard_id,
                        epoch: filter.epoch,
                        labels,
                    }),
                )
            }
            _ => (
                RequestKind::Rejected,
                Err(CloudError::UnexpectedMessage {
                    expected:
                        "SearchRequest, FetchFiles, ConjunctiveRequest, ConjunctiveShardQuery, \
                         ShardQuery, BatchRequest, FilterRequest or Update",
                }),
            ),
        }
    }

    /// The curious server's raw view of the RSSE index (for the adversary
    /// experiments). Holds the read lock for the guard's lifetime.
    pub fn rsse_index(&self) -> RwLockReadGuard<'_, RsseIndex> {
        self.rsse_index.read()
    }

    /// Applies an owner-issued score-dynamics update.
    ///
    /// Takes the write locks briefly; concurrent searches observe either
    /// the pre- or post-update index, never a torn state. The new files
    /// are stored *before* the index learns their postings, so a search
    /// that ranks a new file always finds its ciphertext. Ranking-cache
    /// entries for the touched labels are invalidated *after* the index
    /// write completes, so a concurrent miss-fill that snapshotted its
    /// epoch before this update either read the post-update index (valid
    /// fill) or is rejected by the epoch bump (stale fill) — it can never
    /// park a pre-update ranking.
    pub fn apply_update(&self, update: rsse_core::IndexUpdate, new_files: Vec<EncryptedFile>) {
        let touched: Vec<Label> = update.labels().copied().collect();
        self.files.write().ingest(new_files);
        update.apply_to(&mut self.rsse_index.write());
        {
            let mut cache = self.cache.write();
            for label in &touched {
                cache.invalidate(label);
            }
        }
        // A conjunction may span any label set including a touched one;
        // the cache stores no reverse map, so flush it wholesale (the
        // epoch bump also rejects in-flight fills that read pre-update).
        self.conjunctive_cache.write().invalidate_all();
        // Grow the label filter by the touched labels and bump its epoch —
        // *after* the index write, so a router that observes the new epoch
        // (and re-fetches) is guaranteed a filter covering this update.
        // The epoch bumps even when no label is new: routers also key
        // their merged-result caches off this watch, and those must see
        // every update.
        let mut filter = self.filter.write();
        filter.labels.extend(touched);
        filter.epoch += 1;
        self.filter_watch.store(filter.epoch, Ordering::Release);
    }

    /// Flushes pending updates to durable storage: on a generational
    /// index this seals the entries appended since the last flush into a
    /// new L0 delta generation under a brief write lock — cost
    /// proportional to *those entries*, never the index. The logical
    /// content is unchanged, so cached rankings stay valid and are kept.
    ///
    /// # Errors
    ///
    /// [`CloudError::Persist`] on I/O failures; pending updates stay in
    /// memory and keep serving.
    pub fn flush_index(&self) -> Result<bool, CloudError> {
        Ok(self.rsse_index.write().flush_updates()?)
    }

    /// Compacts a generational index **live**, on the calling thread:
    /// flushes pending updates (brief write lock), then merges the whole
    /// generation stack while searches keep serving from the old stack —
    /// no index lock is held during the merge; the only serving-path
    /// pause is the atomic pointer flip, reported as
    /// [`rsse_core::CompactionStats::install_pause`]. Returns the merge
    /// statistics, or `None` when there was nothing to merge (fewer than
    /// two generations, or an in-memory index).
    ///
    /// # Errors
    ///
    /// [`CloudError::Persist`] on I/O failures, and in particular
    /// [`rsse_core::PersistError::CompactInProgress`] — immediately,
    /// never queued — when a live compaction is already running.
    pub fn compact_index_live(&self) -> Result<Option<CompactionStats>, CloudError> {
        let flushed = self.rsse_index.write().flush_updates()?;
        let job = self.rsse_index.read().begin_live_compact()?;
        let stats = job.map(|job| job.run()).transpose()?;
        if flushed || stats.is_some() {
            self.note_index_rewrite();
        }
        Ok(stats)
    }

    /// [`CloudServer::compact_index_live`] on a background thread: the
    /// flush and the merge hand-off happen now (so a `None` return means
    /// nothing needed merging); the merge itself, the cache flush, and
    /// the filter-epoch bump run on the returned thread. Joining yields
    /// the merge statistics.
    ///
    /// # Errors
    ///
    /// As [`CloudServer::compact_index_live`]; errors inside the merge
    /// surface through the join handle.
    pub fn compact_index_background(
        self: &Arc<Self>,
    ) -> Result<Option<JoinHandle<Result<CompactionStats, CloudError>>>, CloudError> {
        let flushed = self.rsse_index.write().flush_updates()?;
        let job = match self.rsse_index.read().begin_live_compact()? {
            Some(job) => job,
            None => {
                if flushed {
                    self.note_index_rewrite();
                }
                return Ok(None);
            }
        };
        let server = Arc::clone(self);
        Ok(Some(std::thread::spawn(move || {
            let stats = job.run()?;
            server.note_index_rewrite();
            Ok(stats)
        })))
    }

    /// Shape of the generational store backing this server, if that is
    /// the backend in use.
    pub fn generation_stats(&self) -> Option<GenerationStats> {
        self.rsse_index.read().generation_stats()
    }

    /// After any durable index rewrite (generational flush + merge):
    /// flush the ranking cache and bump the filter epoch.
    /// Rewrites preserve every ranking and every label owner, but the
    /// conservative flush keeps the epoch story simple — a fill or a
    /// router decision racing the rewrite re-validates instead of
    /// straddling two file identities.
    fn note_index_rewrite(&self) {
        self.cache.write().invalidate_all();
        self.conjunctive_cache.write().invalidate_all();
        let mut filter = self.filter.write();
        filter.epoch += 1;
        self.filter_watch.store(filter.epoch, Ordering::Release);
    }

    /// Number of stored files.
    pub fn num_files(&self) -> usize {
        self.files.read().len()
    }

    /// Records a frame that failed to decode; counted with the rejected
    /// requests, since the server refused to handle it.
    pub fn note_bad_frame(&self) {
        self.counters.record(RequestKind::Rejected);
    }

    /// Records a contained serving panic (the client was answered with an
    /// `Internal` error frame).
    pub fn note_panic(&self) {
        self.counters.record(RequestKind::Panicked);
    }

    /// A copy of the aggregate serving counters, cache outcomes included.
    pub fn serving_report(&self) -> ServingReport {
        self.counters.report()
    }

    /// Point-in-time ranking-cache statistics (occupancy-level counters:
    /// evictions, invalidations, stale fills — hit/miss totals also appear
    /// in [`CloudServer::serving_report`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.read().stats()
    }

    /// Point-in-time conjunctive-cache statistics, the multi-keyword
    /// counterpart of [`CloudServer::cache_stats`].
    pub fn conjunctive_cache_stats(&self) -> CacheStats {
        self.conjunctive_cache.read().stats()
    }
}

/// An authorized data user.
#[derive(Debug)]
pub struct User {
    rsse: Rsse,
    basic: BasicScheme,
    files: FileCrypter,
}

impl User {
    /// Derives the user's keys from the distributed credential.
    pub fn new(master_seed: &[u8], params: RsseParams) -> Self {
        User {
            rsse: Rsse::new(master_seed, params),
            basic: BasicScheme::new(master_seed),
            files: FileCrypter::new(master_seed),
        }
    }

    /// Builds a search request for `keyword` under the chosen protocol.
    ///
    /// # Errors
    ///
    /// Propagates trapdoor failures (e.g. stop-word-only queries).
    pub fn search_request(
        &self,
        keyword: &str,
        top_k: Option<u32>,
        mode: SearchMode,
    ) -> Result<Message, CloudError> {
        let (label, key) = match mode {
            SearchMode::Rsse => {
                let t = self.rsse.trapdoor(keyword)?;
                (*t.label(), *t.list_key().as_bytes())
            }
            SearchMode::BasicFull | SearchMode::BasicEntries => {
                let t = self.basic.trapdoor(keyword)?;
                (*t.label(), *t.list_key().as_bytes())
            }
        };
        Ok(Message::SearchRequest {
            label,
            list_key: key,
            top_k,
            mode,
        })
    }

    /// Decrypts the files of an RSSE response (already ranked by the
    /// server).
    ///
    /// # Errors
    ///
    /// [`CloudError::UnexpectedMessage`] on any other message type.
    pub fn read_rsse_response(&self, msg: Message) -> Result<Vec<Document>, CloudError> {
        let Message::RsseResponse { files, .. } = msg else {
            return Err(CloudError::UnexpectedMessage {
                expected: "RsseResponse",
            });
        };
        self.decrypt_files(&files)
    }

    /// Ranks a basic-scheme response client-side (decrypting the scores
    /// with `z`) and returns `(ranked ids, decrypted files by id)`.
    ///
    /// # Errors
    ///
    /// [`CloudError::UnexpectedMessage`] on other message types.
    pub fn rank_basic_scores(&self, scores: &[(u64, Vec<u8>)]) -> Result<Vec<FileId>, CloudError> {
        use rsse_crypto::SemanticCipher;
        let cipher = SemanticCipher::new(self.basic.keys().score_key());
        let mut scored: Vec<(FileId, f64)> = scores
            .iter()
            .filter_map(|(id, ct)| {
                let plain = cipher.decrypt(ct).ok()?;
                let bytes: [u8; 8] = plain.try_into().ok()?;
                let s = f64::from_be_bytes(bytes);
                s.is_finite().then_some((FileId::new(*id), s))
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        Ok(scored.into_iter().map(|(f, _)| f).collect())
    }

    /// Decrypts fetched files.
    ///
    /// # Errors
    ///
    /// Propagates decryption failures.
    pub fn decrypt_files(&self, files: &[EncryptedFile]) -> Result<Vec<Document>, CloudError> {
        files
            .iter()
            .map(|f| self.files.decrypt(f).map_err(CloudError::from))
            .collect()
    }

    /// Builds the scatter legs of a sharded ranked search: one
    /// [`Message::ShardQuery`] per shard, all carrying the same trapdoor,
    /// each addressed to its shard id.
    ///
    /// # Errors
    ///
    /// Propagates trapdoor failures (e.g. stop-word-only queries).
    pub fn shard_query(
        &self,
        keyword: &str,
        top_k: Option<u32>,
        num_shards: u32,
    ) -> Result<Vec<Message>, CloudError> {
        let t = self.rsse.trapdoor(keyword)?;
        Ok((0..num_shards)
            .map(|shard_id| Message::ShardQuery {
                label: *t.label(),
                list_key: *t.list_key().as_bytes(),
                top_k,
                shard_id,
            })
            .collect())
    }

    /// Builds one [`Message::BatchRequest`] carrying an RSSE search for
    /// every keyword, all sharing one channel round trip.
    ///
    /// # Errors
    ///
    /// Propagates trapdoor failures (e.g. stop-word-only queries).
    pub fn batch_search_request(
        &self,
        keywords: &[&str],
        top_k: Option<u32>,
    ) -> Result<Message, CloudError> {
        Ok(Message::BatchRequest {
            queries: self.batch_queries(keywords, top_k)?,
            shard_id: None,
        })
    }

    /// One `(label, list key, top_k)` RSSE query per keyword.
    fn batch_queries(
        &self,
        keywords: &[&str],
        top_k: Option<u32>,
    ) -> Result<Vec<BatchQuery>, CloudError> {
        keywords
            .iter()
            .map(|kw| {
                let t = self.rsse.trapdoor(kw)?;
                Ok((*t.label(), *t.list_key().as_bytes(), top_k))
            })
            .collect()
    }

    /// Builds the batched scatter legs of a sharded multi-keyword search:
    /// one [`Message::BatchRequest`] per shard, each carrying *all* the
    /// keywords' trapdoors and addressed to its shard id — `num_shards`
    /// round trips total instead of `keywords × num_shards`.
    ///
    /// # Errors
    ///
    /// Propagates trapdoor failures (e.g. stop-word-only queries).
    pub fn batch_shard_query(
        &self,
        keywords: &[&str],
        top_k: Option<u32>,
        num_shards: u32,
    ) -> Result<Vec<Message>, CloudError> {
        let queries = self.batch_queries(keywords, top_k)?;
        Ok((0..num_shards)
            .map(|shard_id| Message::BatchRequest {
                queries: queries.clone(),
                shard_id: Some(shard_id),
            })
            .collect())
    }

    /// Builds a conjunctive (multi-keyword) search request — the §VIII
    /// extension over the wire.
    ///
    /// # Errors
    ///
    /// Propagates trapdoor failures (all-stop-word queries).
    pub fn conjunctive_request(
        &self,
        query: &str,
        top_k: Option<u32>,
    ) -> Result<Message, CloudError> {
        Ok(Message::ConjunctiveRequest {
            trapdoors: self.conjunctive_trapdoors(query)?,
            top_k,
        })
    }

    /// The `(label, list key)` trapdoor of every keyword of `query`.
    fn conjunctive_trapdoors(&self, query: &str) -> Result<Vec<(Label, [u8; 32])>, CloudError> {
        let multi = self.rsse.multi_trapdoor(query)?;
        Ok(multi
            .parts()
            .iter()
            .map(|t| (*t.label(), *t.list_key().as_bytes()))
            .collect())
    }

    /// Builds the scatter legs of a sharded conjunctive search: one
    /// [`Message::ConjunctiveShardQuery`] per shard, all carrying the same
    /// trapdoor set, each addressed to its shard id. Files are partitioned
    /// across shards, so each shard intersects locally and the router
    /// merges by `score_sum`.
    ///
    /// # Errors
    ///
    /// Propagates trapdoor failures (all-stop-word queries).
    pub fn conjunctive_shard_query(
        &self,
        query: &str,
        top_k: Option<u32>,
        num_shards: u32,
    ) -> Result<Vec<Message>, CloudError> {
        let trapdoors = self.conjunctive_trapdoors(query)?;
        Ok((0..num_shards)
            .map(|shard_id| Message::ConjunctiveShardQuery {
                trapdoors: trapdoors.clone(),
                top_k,
                shard_id,
            })
            .collect())
    }
}

/// A complete wired deployment: owner, shared server, one authorized user,
/// with all traffic metered.
pub struct Deployment {
    server: Arc<CloudServer>,
    user: User,
    owner: DataOwner,
    /// Traffic of the Setup (outsourcing) phase.
    pub setup_traffic: TrafficReport,
}

impl core::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Deployment {{ files: {} }}", self.server.num_files())
    }
}

impl Deployment {
    /// Bootstraps the whole system over `docs`: the owner builds and
    /// outsources the RSSE index across the metered wire
    /// ([`DataOwner::outsource`]), and the server boots from the decoded
    /// frame onto `storage` ([`CloudServer::boot`]). The server holds no
    /// basic-scheme index, so protocols 2 and 3 are `Rejected`.
    ///
    /// # Errors
    ///
    /// Propagates index-construction and store I/O failures.
    pub fn bootstrap(
        master_seed: &[u8],
        params: RsseParams,
        docs: &[Document],
        storage: &Storage,
        cache_budget_bytes: usize,
    ) -> Result<Self, CloudError> {
        Self::outsource_and_boot(
            master_seed,
            params,
            docs,
            storage,
            cache_budget_bytes,
            false,
        )
    }

    /// [`Self::bootstrap`] for a deployment that also serves the basic
    /// scheme's protocols 2 and 3 ([`Self::basic_search_full`],
    /// [`Self::basic_search_top_k`]): the owner builds the basic scheme's
    /// index as well and ships it in the same `Outsource` frame.
    ///
    /// # Errors
    ///
    /// Propagates index-construction and store I/O failures.
    pub fn bootstrap_with_basic(
        master_seed: &[u8],
        params: RsseParams,
        docs: &[Document],
        storage: &Storage,
        cache_budget_bytes: usize,
    ) -> Result<Self, CloudError> {
        Self::outsource_and_boot(master_seed, params, docs, storage, cache_budget_bytes, true)
    }

    fn outsource_and_boot(
        master_seed: &[u8],
        params: RsseParams,
        docs: &[Document],
        storage: &Storage,
        cache_budget_bytes: usize,
        basic: bool,
    ) -> Result<Self, CloudError> {
        let owner = DataOwner::new(master_seed, params);
        let mut channel = MeteredChannel::new();
        // Encode/decode across the metered wire, exactly as deployed.
        let frame = owner.outsource_with(docs, basic)?.encode();
        channel.send_up(frame.len());
        let server = CloudServer::boot(Message::decode(frame)?, storage, cache_budget_bytes)?;
        Ok(Self::wire(owner, server, channel.report()))
    }

    /// Warm restart from the generational store in `dir`
    /// ([`CloudServer::reopen`]): keys are re-derived from the seed and
    /// the file collection re-encrypted (deterministic under the owner's
    /// key), but the encrypted index is **not** rebuilt. `setup_traffic`
    /// is zero: nothing crossed the outsourcing wire.
    ///
    /// # Errors
    ///
    /// As [`CloudServer::reopen`].
    pub fn reopen(
        master_seed: &[u8],
        params: RsseParams,
        docs: &[Document],
        dir: impl AsRef<std::path::Path>,
        cache_budget_bytes: usize,
    ) -> Result<Self, CloudError> {
        let owner = DataOwner::new(master_seed, params);
        let server = CloudServer::reopen(dir, owner.encrypt_files(docs), cache_budget_bytes)?;
        Ok(Self::wire(owner, server, TrafficReport::default()))
    }

    fn wire(owner: DataOwner, server: CloudServer, setup_traffic: TrafficReport) -> Self {
        Deployment {
            server: Arc::new(server),
            user: owner.authorize_user(),
            owner,
            setup_traffic,
        }
    }

    /// The authorized user.
    pub fn user(&self) -> &User {
        &self.user
    }

    /// The data owner.
    pub fn owner(&self) -> &DataOwner {
        &self.owner
    }

    /// Shared handle to the server, for multi-user experiments. All
    /// locking is interior to [`CloudServer`].
    pub fn server(&self) -> Arc<CloudServer> {
        Arc::clone(&self.server)
    }

    /// One metered request/response round over the wire: encodes the
    /// request, serves it through the same fault-tolerant path the worker
    /// pool uses ([`crate::server_loop::serve_frame`]), and decodes the
    /// response frame. Every request is answered with *some* frame, so
    /// failures are priced like successes: an error frame's bytes land in
    /// [`TrafficReport::bytes_down`] and bump
    /// [`TrafficReport::error_frames`].
    ///
    /// # Errors
    ///
    /// [`CloudError::Server`] when the server answered with an error frame
    /// (carrying its wire [`crate::ErrorKind`] and detail), or a codec
    /// error if a frame cannot be decoded.
    pub fn round_trip(
        &self,
        channel: &mut MeteredChannel,
        request: Message,
    ) -> Result<Message, CloudError> {
        if let Message::BatchRequest { queries, .. } = &request {
            channel.note_batch(queries.len());
        }
        if matches!(&request, Message::ConjunctiveRequest { .. }) {
            channel.note_conjunctive();
        }
        let up = request.encode();
        channel.send_up(up.len());
        let down = crate::server_loop::serve_frame(&self.server, &up, None);
        let response = Message::decode(bytes::BytesMut::from(&down[..]))?;
        match response {
            Message::Error { kind, detail } => {
                channel.send_down_error(down.len());
                Err(CloudError::Server { kind, detail })
            }
            msg => {
                channel.send_down(down.len());
                Ok(msg)
            }
        }
    }

    /// Protocol 1 — RSSE one-round top-k retrieval.
    ///
    /// # Errors
    ///
    /// Propagates trapdoor/protocol failures.
    pub fn rsse_search(
        &self,
        keyword: &str,
        top_k: Option<u32>,
    ) -> Result<(Vec<Document>, TrafficReport), CloudError> {
        let mut channel = MeteredChannel::new();
        let request = self.user.search_request(keyword, top_k, SearchMode::Rsse)?;
        let response = self.round_trip(&mut channel, request)?;
        Ok((self.user.read_rsse_response(response)?, channel.report()))
    }

    /// Protocol 1, batched — several RSSE searches amortized over one
    /// round trip. Returns one ranked document list per keyword, in
    /// request order.
    ///
    /// # Errors
    ///
    /// Propagates trapdoor/protocol failures.
    pub fn rsse_search_batch(
        &self,
        keywords: &[&str],
        top_k: Option<u32>,
    ) -> Result<(Vec<Vec<Document>>, TrafficReport), CloudError> {
        let mut channel = MeteredChannel::new();
        let request = self.user.batch_search_request(keywords, top_k)?;
        let response = self.round_trip(&mut channel, request)?;
        let Message::BatchReply { results, .. } = response else {
            return Err(CloudError::UnexpectedMessage {
                expected: "BatchReply",
            });
        };
        let docs = results
            .iter()
            .map(|(_, files)| self.user.decrypt_files(files))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((docs, channel.report()))
    }

    /// Extension — conjunctive multi-keyword ranked search (one round).
    ///
    /// # Errors
    ///
    /// Propagates trapdoor/protocol failures.
    pub fn conjunctive_search(
        &self,
        query: &str,
        top_k: Option<u32>,
    ) -> Result<(Vec<Document>, TrafficReport), CloudError> {
        let (_, docs, traffic) = self.conjunctive_search_ranked(query, top_k)?;
        Ok((docs, traffic))
    }

    /// Extension — conjunctive search returning the server's wire ranking
    /// `(file id, per-keyword mapped scores)` alongside the decrypted
    /// documents, for equivalence tests and client-side exact re-ranking.
    ///
    /// # Errors
    ///
    /// Propagates trapdoor/protocol failures.
    #[allow(clippy::type_complexity)] // (wire ranking, documents, traffic) triple
    pub fn conjunctive_search_ranked(
        &self,
        query: &str,
        top_k: Option<u32>,
    ) -> Result<(Vec<(u64, Vec<u64>)>, Vec<Document>, TrafficReport), CloudError> {
        let mut channel = MeteredChannel::new();
        let request = self.user.conjunctive_request(query, top_k)?;
        let response = self.round_trip(&mut channel, request)?;
        let Message::ConjunctiveResponse { ranking, files } = response else {
            return Err(CloudError::UnexpectedMessage {
                expected: "ConjunctiveResponse",
            });
        };
        Ok((ranking, self.user.decrypt_files(&files)?, channel.report()))
    }

    /// Protocol 2 — basic scheme, naive: all matching files in one round,
    /// ranked client-side. Needs a deployment from
    /// [`Self::bootstrap_with_basic`].
    ///
    /// # Errors
    ///
    /// Propagates trapdoor/protocol failures; [`CloudError::Server`] with
    /// [`crate::ErrorKind::Rejected`] when the server holds no basic-scheme
    /// index.
    pub fn basic_search_full(
        &self,
        keyword: &str,
    ) -> Result<(Vec<Document>, TrafficReport), CloudError> {
        let mut channel = MeteredChannel::new();
        let request = self
            .user
            .search_request(keyword, None, SearchMode::BasicFull)?;
        let response = self.round_trip(&mut channel, request)?;
        let Message::BasicFullResponse { scores, files } = response else {
            return Err(CloudError::UnexpectedMessage {
                expected: "BasicFullResponse",
            });
        };
        let order = self.user.rank_basic_scores(&scores)?;
        let mut by_id: std::collections::HashMap<FileId, EncryptedFile> =
            files.into_iter().map(|f| (f.id(), f)).collect();
        let ranked_files: Vec<EncryptedFile> =
            order.iter().filter_map(|id| by_id.remove(id)).collect();
        Ok((self.user.decrypt_files(&ranked_files)?, channel.report()))
    }

    /// Protocol 3 — basic scheme, two-round top-k. Needs a deployment from
    /// [`Self::bootstrap_with_basic`].
    ///
    /// # Errors
    ///
    /// Propagates trapdoor/protocol failures; [`CloudError::Server`] with
    /// [`crate::ErrorKind::Rejected`] when the server holds no basic-scheme
    /// index.
    pub fn basic_search_top_k(
        &self,
        keyword: &str,
        k: usize,
    ) -> Result<(Vec<Document>, TrafficReport), CloudError> {
        let mut channel = MeteredChannel::new();
        let request = self
            .user
            .search_request(keyword, None, SearchMode::BasicEntries)?;
        let response = self.round_trip(&mut channel, request)?;
        let Message::BasicEntriesResponse { scores } = response else {
            return Err(CloudError::UnexpectedMessage {
                expected: "BasicEntriesResponse",
            });
        };
        let mut order = self.user.rank_basic_scores(&scores)?;
        order.truncate(k);
        let fetch = Message::FetchFiles {
            ids: order.iter().map(|f| f.as_u64()).collect(),
        };
        let response = self.round_trip(&mut channel, fetch)?;
        let Message::FilesResponse { files } = response else {
            return Err(CloudError::UnexpectedMessage {
                expected: "FilesResponse",
            });
        };
        Ok((self.user.decrypt_files(&files)?, channel.report()))
    }
}
