//! Epoch-guarded result caching: the server-side **hot-keyword ranking
//! cache** and the generic machinery behind the router-level merged-result
//! cache.
//!
//! The server's headline cost is ranking: `RsseIndex::search` AES-unwraps
//! the *entire* posting list behind a trapdoor's label on every request,
//! even when millions of users hammer the same popular keyword. But the
//! ranked result of a trapdoor is exactly the access pattern the scheme
//! already reveals to the server (Curtmola et al.'s SSE formalization
//! treats the (trapdoor, result) pair as legitimate leakage), so caching
//! it server-side leaks nothing new — see DESIGN.md §6.3.
//!
//! [`RankingCache`] maps a posting-list [`Label`] to the **full** ranked
//! `(FileId, encrypted_score)` vector produced by the first search of that
//! trapdoor. Any later `top_k` is then a prefix copy of the cached vector
//! ([`rsse_core::ranked_prefix`]) — zero per-entry cryptographic work.
//! Entries are LRU-evicted under a byte budget and invalidated when score
//! dynamics touch their label.
//!
//! The same discipline holds one level up: the shard router caches whole
//! *merged* scatter results keyed by `(label, top_k)` so a hot keyword
//! costs zero legs (DESIGN.md §6.5). Both caches are instances of
//! [`EpochCache`], generic over key and value; the value's budget charge
//! comes from its [`CacheWeight`] impl.
//!
//! # Stale-fill protection
//!
//! The expensive miss path (decrypt + sort the whole posting list, or a
//! full scatter-gather) must not run under the cache lock, which opens a
//! race: an update could invalidate a key *while* a miss is computing that
//! key's soon-to-be-stale value. The cache therefore carries a global
//! **epoch** counter, bumped by every invalidation. A filler snapshots the
//! epoch *before* reading the index and hands it back to
//! [`EpochCache::insert_if_current`], which rejects the fill if any
//! invalidation happened in between. Updates bump the epoch *after* the
//! index write completes, so a fill that passes the epoch check is
//! guaranteed to have read post-update (or untouched) state.
//!
//! # Lock split for contended readers
//!
//! [`EpochCache::get`] takes `&self`: the LRU clock and the hit/miss
//! counters are atomics, so concurrent readers can share the cache behind
//! an `RwLock` read guard and hit in parallel. Only fills, invalidations,
//! and eviction take `&mut self` (the write guard). This is what lets
//! `CloudServer` serve cache hits without serializing its worker pool.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rsse_core::{Label, RankedResult};

/// Point-in-time snapshot of a cache's effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served straight off a cached value.
    pub hits: u64,
    /// Lookups that had to compute from scratch.
    pub misses: u64,
    /// Entries dropped to stay under the byte budget.
    pub evictions: u64,
    /// Entries dropped because an update touched their key.
    pub invalidations: u64,
    /// Fills rejected because an invalidation raced the compute pass.
    pub stale_fills: u64,
    /// Fills that replaced an entry already cached: a lookup that missed
    /// while another filler was computing the same key fills it again.
    pub refills: u64,
}

/// Budget charge of a cached value: the approximate heap bytes it owns
/// (the fixed per-entry bookkeeping is added by the cache itself).
pub trait CacheWeight {
    /// Owned heap bytes of this value.
    fn weight_bytes(&self) -> usize;
}

impl CacheWeight for Vec<RankedResult> {
    fn weight_bytes(&self) -> usize {
        std::mem::size_of_val(self.as_slice())
    }
}

impl CacheWeight for Vec<rsse_core::ConjunctiveResult> {
    fn weight_bytes(&self) -> usize {
        // Each result owns its per-keyword mapped-scores vector.
        std::mem::size_of_val(self.as_slice())
            + self
                .iter()
                .map(|r| std::mem::size_of_val(r.mapped_scores.as_slice()))
                .sum::<usize>()
    }
}

#[derive(Debug)]
struct CacheEntry<V> {
    value: Arc<V>,
    bytes: usize,
    /// LRU stamp, atomic so shared-lock readers can refresh it.
    last_used: AtomicU64,
}

/// Byte-budgeted LRU cache of computed values with epoch-guarded fills.
///
/// A budget of `0` disables the cache entirely: [`EpochCache::get`] always
/// misses (without counting a miss) and fills are discarded.
#[derive(Debug)]
pub struct EpochCache<K, V> {
    entries: HashMap<K, CacheEntry<V>>,
    budget_bytes: usize,
    used_bytes: usize,
    /// Monotonic access clock driving LRU eviction.
    tick: AtomicU64,
    /// Bumped by every invalidation; guards against stale fills.
    epoch: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: u64,
    invalidations: u64,
    stale_fills: u64,
    refills: u64,
}

/// The server-side hot-keyword cache: full rankings keyed by label.
pub type RankingCache = EpochCache<Label, Vec<RankedResult>>;

/// The server-side conjunctive-result cache: full intersected rankings
/// keyed by the **sorted** label set (plus nothing else — any `top_k` is a
/// prefix of the full ranking, and the sorted key makes every keyword
/// ordering of the same query share one entry). Values hold mapped scores
/// in canonical (label-sorted) part order; the serving path permutes them
/// back to the query's order (see `rsse_core::canonical_label_order`).
pub type ConjunctiveCache = EpochCache<Vec<Label>, Vec<rsse_core::ConjunctiveResult>>;

/// Inverts a canonical label order: canonical slot `k` holds query part
/// `order[k]`, so query part `i` reads canonical slot `inverse[i]`.
pub(crate) fn inverse_order(order: &[usize]) -> Vec<usize> {
    let mut inverse = vec![0usize; order.len()];
    for (k, &i) in order.iter().enumerate() {
        inverse[i] = k;
    }
    inverse
}

/// Approximate budget charge of one cached entry.
fn entry_bytes<K, V: CacheWeight>(value: &V) -> usize {
    std::mem::size_of::<Arc<V>>()
        + std::mem::size_of::<K>()
        + std::mem::size_of::<CacheEntry<V>>()
        + value.weight_bytes()
}

impl<K: Eq + Hash + Clone, V: CacheWeight> EpochCache<K, V> {
    /// Creates a cache holding at most `budget_bytes` of entries.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            entries: HashMap::new(),
            budget_bytes,
            used_bytes: 0,
            tick: AtomicU64::new(0),
            epoch: 0,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: 0,
            invalidations: 0,
            stale_fills: 0,
            refills: 0,
        }
    }

    /// Whether the cache can ever hold an entry.
    pub fn is_enabled(&self) -> bool {
        self.budget_bytes > 0
    }

    /// The current invalidation epoch. Snapshot this *before* computing a
    /// missed value and pass it to [`Self::insert_if_current`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Looks up the value cached for `key`, refreshing its LRU position.
    /// Counts a hit or a miss; a disabled cache counts neither.
    ///
    /// Takes `&self`: the access clock and the counters are atomic, so any
    /// number of readers holding a shared lock can hit concurrently.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        if !self.is_enabled() {
            return None;
        }
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        match self.entries.get(key) {
            Some(entry) => {
                entry.last_used.store(tick, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.value))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// [`Self::get`] plus the fill discipline in one step: the cached
    /// value, or on a miss the epoch to pass to
    /// [`Self::insert_if_current`] — `None` when the cache is disabled and
    /// the caller should compute without filling.
    pub(crate) fn lookup(&self, key: &K) -> Result<Arc<V>, Option<u64>> {
        self.get(key)
            .ok_or_else(|| self.is_enabled().then_some(self.epoch))
    }

    /// Fills `key` with a value computed while the cache was at
    /// `fill_epoch`. Rejected (and counted as a stale fill) if any
    /// invalidation has happened since the snapshot; oversized values that
    /// could never fit the budget are silently skipped.
    pub fn insert_if_current(&mut self, key: K, value: Arc<V>, fill_epoch: u64) {
        if !self.is_enabled() {
            return;
        }
        if fill_epoch != self.epoch {
            self.stale_fills += 1;
            return;
        }
        let bytes = entry_bytes::<K, V>(&value);
        if bytes > self.budget_bytes {
            return;
        }
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(old) = self.entries.remove(&key) {
            self.used_bytes -= old.bytes;
            self.refills += 1;
        }
        while self.used_bytes + bytes > self.budget_bytes {
            self.evict_lru();
        }
        self.used_bytes += bytes;
        self.entries.insert(
            key,
            CacheEntry {
                value,
                bytes,
                last_used: AtomicU64::new(tick),
            },
        );
    }

    /// Drops the cached value for `key` (if any) and bumps the epoch so
    /// in-flight fills for *any* key are rejected. Call *after* the
    /// underlying mutation is visible.
    pub fn invalidate(&mut self, key: &K) {
        self.epoch += 1;
        if let Some(entry) = self.entries.remove(key) {
            self.used_bytes -= entry.bytes;
            self.invalidations += 1;
        }
    }

    /// Drops everything and bumps the epoch.
    pub fn invalidate_all(&mut self) {
        self.epoch += 1;
        self.invalidations += self.entries.len() as u64;
        self.used_bytes = 0;
        self.entries.clear();
    }

    /// Number of cached keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently charged against the budget.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Effectiveness counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions,
            invalidations: self.invalidations,
            stale_fills: self.stale_fills,
            refills: self.refills,
        }
    }

    fn evict_lru(&mut self) {
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, entry)| entry.last_used.load(Ordering::Relaxed))
            .map(|(key, _)| key.clone());
        let Some(key) = victim else {
            debug_assert!(false, "evict_lru called on an empty cache");
            self.used_bytes = 0;
            return;
        };
        let entry = self.entries.remove(&key).expect("victim exists");
        self.used_bytes -= entry.bytes;
        self.evictions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsse_ir::FileId;

    fn label(tag: u8) -> Label {
        [tag; 20]
    }

    fn ranking(len: usize) -> Arc<Vec<RankedResult>> {
        Arc::new(
            (0..len)
                .map(|i| RankedResult {
                    file: FileId::new(i as u64),
                    encrypted_score: (len - i) as u64,
                })
                .collect(),
        )
    }

    fn ranking_bytes(ranking: &Arc<Vec<RankedResult>>) -> usize {
        entry_bytes::<Label, Vec<RankedResult>>(ranking)
    }

    fn big_budget() -> usize {
        1 << 20
    }

    #[test]
    fn hit_after_fill_returns_same_ranking() {
        let mut cache = RankingCache::new(big_budget());
        let epoch = cache.epoch();
        assert!(cache.get(&label(1)).is_none());
        let r = ranking(10);
        cache.insert_if_current(label(1), Arc::clone(&r), epoch);
        let hit = cache.get(&label(1)).expect("filled entry should hit");
        assert_eq!(*hit, *r);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn zero_budget_disables_everything() {
        let mut cache = RankingCache::new(0);
        assert!(!cache.is_enabled());
        let epoch = cache.epoch();
        assert!(cache.get(&label(1)).is_none());
        cache.insert_if_current(label(1), ranking(4), epoch);
        assert!(cache.get(&label(1)).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn invalidate_drops_entry_and_rejects_inflight_fill() {
        let mut cache = RankingCache::new(big_budget());
        let epoch = cache.epoch();
        cache.insert_if_current(label(1), ranking(4), epoch);

        // A miss for label 2 snapshots the epoch, then an update lands.
        let fill_epoch = cache.epoch();
        cache.invalidate(&label(1));
        cache.insert_if_current(label(2), ranking(4), fill_epoch);

        assert!(cache.get(&label(1)).is_none(), "invalidated entry dropped");
        assert!(cache.get(&label(2)).is_none(), "stale fill rejected");
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.stale_fills, 1);
    }

    #[test]
    fn refill_after_invalidation_works() {
        let mut cache = RankingCache::new(big_budget());
        let epoch = cache.epoch();
        cache.insert_if_current(label(1), ranking(4), epoch);
        cache.invalidate(&label(1));
        let epoch = cache.epoch();
        cache.insert_if_current(label(1), ranking(6), epoch);
        let hit = cache.get(&label(1)).expect("refill should stick");
        assert_eq!(hit.len(), 6);
        assert_eq!(cache.stats().refills, 0, "the entry was gone");
    }

    #[test]
    fn lru_evicts_least_recently_used_under_budget() {
        // Budget fits exactly two 8-entry rankings, not three.
        let per_entry = ranking_bytes(&ranking(8));
        let mut cache = RankingCache::new(per_entry * 2);
        let epoch = cache.epoch();
        cache.insert_if_current(label(1), ranking(8), epoch);
        cache.insert_if_current(label(2), ranking(8), epoch);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(&label(1)).is_some());
        cache.insert_if_current(label(3), ranking(8), epoch);

        assert!(cache.get(&label(1)).is_some(), "recently used survives");
        assert!(cache.get(&label(2)).is_none(), "LRU victim evicted");
        assert!(cache.get(&label(3)).is_some(), "new entry resident");
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.used_bytes() <= cache.budget_bytes());
    }

    #[test]
    fn oversized_ranking_is_skipped_not_inserted() {
        let per_entry = ranking_bytes(&ranking(8));
        let mut cache = RankingCache::new(per_entry);
        let epoch = cache.epoch();
        cache.insert_if_current(label(1), ranking(1000), epoch);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn replacing_an_entry_recharges_bytes() {
        let mut cache = RankingCache::new(big_budget());
        let epoch = cache.epoch();
        cache.insert_if_current(label(1), ranking(100), epoch);
        let big = cache.used_bytes();
        cache.insert_if_current(label(1), ranking(10), epoch);
        assert!(cache.used_bytes() < big, "smaller refill shrinks usage");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().refills, 1);
    }

    #[test]
    fn invalidate_all_clears_and_bumps_epoch() {
        let mut cache = RankingCache::new(big_budget());
        let epoch = cache.epoch();
        cache.insert_if_current(label(1), ranking(4), epoch);
        cache.insert_if_current(label(2), ranking(4), epoch);
        cache.invalidate_all();
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
        assert_eq!(cache.stats().invalidations, 2);
        cache.insert_if_current(label(3), ranking(4), epoch);
        assert!(cache.is_empty(), "pre-clear epoch fill rejected");
    }

    #[test]
    fn compound_keys_are_cached_independently() {
        // The router's merged cache keys by (label, top_k): different
        // truncations of the same label are distinct entries.
        let mut cache: EpochCache<(Label, Option<usize>), Vec<RankedResult>> =
            EpochCache::new(big_budget());
        let epoch = cache.epoch();
        cache.insert_if_current((label(1), Some(5)), ranking(5), epoch);
        cache.insert_if_current((label(1), None), ranking(50), epoch);
        assert_eq!(cache.get(&(label(1), Some(5))).unwrap().len(), 5);
        assert_eq!(cache.get(&(label(1), None)).unwrap().len(), 50);
        assert!(cache.get(&(label(1), Some(9))).is_none());
        cache.invalidate(&(label(1), Some(5)));
        assert!(cache.get(&(label(1), Some(5))).is_none());
    }

    #[test]
    fn contended_readers_hit_in_parallel_through_a_shared_lock() {
        // The satellite guarantee behind the `Mutex` → `RwLock` switch in
        // `CloudServer`: `get` takes `&self`, so a read guard is enough to
        // hit, and the atomic counters stay exact under contention.
        let cache = {
            let mut cache = RankingCache::new(big_budget());
            let epoch = cache.epoch();
            cache.insert_if_current(label(1), ranking(16), epoch);
            cache.insert_if_current(label(2), ranking(16), epoch);
            parking_lot::RwLock::new(cache)
        };
        let cache = Arc::new(cache);
        const THREADS: u64 = 8;
        const READS: u64 = 1000;
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..READS {
                        let key = label(1 + ((t + i) % 2) as u8);
                        // All readers share the lock concurrently; every
                        // lookup must hit the prefilled entries.
                        let hit = cache.read().get(&key);
                        assert!(hit.is_some(), "prefilled entry must hit");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let stats = cache.read().stats();
        assert_eq!(stats.hits, THREADS * READS, "no hit lost under contention");
        assert_eq!(stats.misses, 0);
    }
}
