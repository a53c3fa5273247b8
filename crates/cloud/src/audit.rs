//! **Extension** — retrieval integrity via Merkle authentication, plus the
//! server-side audit counters.
//!
//! The paper's server is honest-but-curious, so it always returns the
//! right files. A deployable system should *verify* that: the owner
//! publishes a Merkle root over the encrypted collection at Setup; the
//! server accompanies every returned file with an inclusion proof; users
//! check proofs against the root they obtained out of band. Combined with
//! [`rsse_crypto::aead`] this upgrades storage to tamper-evident even
//! against a server that misbehaves on content (it can still withhold —
//! completeness needs further machinery).
//!
//! [`AuditCounters`] is the operational half: the server records every
//! handled request in lock-free counters so operators (and the
//! concurrency tests) can account for exactly what was served.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::files::EncryptedFile;
use rsse_crypto::{Digest, Sha256};

/// What kind of request an audit record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Single-keyword search (any of the three retrieval protocols).
    Search,
    /// A round-two file fetch.
    Fetch,
    /// Conjunctive multi-keyword search.
    Conjunctive,
    /// One scatter leg of a sharded search served by this shard.
    ShardQuery,
    /// One scatter leg of a sharded *conjunctive* search served by this
    /// shard.
    ConjunctiveShard,
    /// A batched frame carrying several searches in one round trip.
    Batch,
    /// A §VII score-dynamics update.
    Update,
    /// A label-filter fetch from the shard router.
    Filter,
    /// A message the server refused to handle.
    Rejected,
    /// A request whose handler panicked; the panic was contained and the
    /// client got an `Internal` error frame.
    Panicked,
}

/// Aggregated serving counters, cheap to copy out of [`AuditCounters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServingReport {
    /// Total requests handled (including rejected ones).
    pub total: u64,
    /// Single-keyword searches.
    pub searches: u64,
    /// Round-two file fetches.
    pub fetches: u64,
    /// Conjunctive searches.
    pub conjunctive: u64,
    /// Sharded-search scatter legs served by this shard.
    pub shard_queries: u64,
    /// Sharded-conjunctive scatter legs served by this shard.
    pub conjunctive_shard_queries: u64,
    /// Batched frames handled (each may carry many searches).
    pub batches: u64,
    /// Score-dynamics updates applied.
    pub updates: u64,
    /// Label-filter fetches served to the shard router.
    pub filter_fetches: u64,
    /// Requests rejected as out-of-protocol.
    pub rejected: u64,
    /// Contained worker panics (each answered with an `Internal` error
    /// frame; the worker kept serving).
    pub panics: u64,
    /// Searches served straight off the ranking cache.
    pub cache_hits: u64,
    /// Searches that ranked from the index (cache cold, disabled, or
    /// invalidated).
    pub cache_misses: u64,
}

/// Lock-free serving counters for the hot path.
///
/// Every worker thread calls [`AuditCounters::record`] once per request;
/// a write lock there serialized the whole pool on CPU-bound workloads
/// (the `cpu` throughput scenario scaled *negatively* past one worker).
/// Relaxed atomics cost one uncontended RMW per field and impose no
/// ordering on the serving path — the counters are statistics, not
/// synchronization.
#[derive(Debug, Default)]
pub struct AuditCounters {
    total: AtomicU64,
    searches: AtomicU64,
    fetches: AtomicU64,
    conjunctive: AtomicU64,
    shard_queries: AtomicU64,
    conjunctive_shard_queries: AtomicU64,
    batches: AtomicU64,
    updates: AtomicU64,
    filter_fetches: AtomicU64,
    rejected: AtomicU64,
    panics: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

impl AuditCounters {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one handled request. Lock-free; callable from any worker.
    pub fn record(&self, kind: RequestKind) {
        self.total.fetch_add(1, Ordering::Relaxed);
        let field = match kind {
            RequestKind::Search => &self.searches,
            RequestKind::Fetch => &self.fetches,
            RequestKind::Conjunctive => &self.conjunctive,
            RequestKind::ShardQuery => &self.shard_queries,
            RequestKind::ConjunctiveShard => &self.conjunctive_shard_queries,
            RequestKind::Batch => &self.batches,
            RequestKind::Update => &self.updates,
            RequestKind::Filter => &self.filter_fetches,
            RequestKind::Rejected => &self.rejected,
            RequestKind::Panicked => &self.panics,
        };
        field.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the outcome of one ranking-cache lookup.
    pub fn record_cache(&self, hit: bool) {
        if hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshots the counters. Individual loads are Relaxed, so a snapshot
    /// taken concurrently with traffic may be mid-request inconsistent;
    /// quiesced reads (after `shutdown`) are exact.
    pub fn report(&self) -> ServingReport {
        ServingReport {
            total: self.total.load(Ordering::Relaxed),
            searches: self.searches.load(Ordering::Relaxed),
            fetches: self.fetches.load(Ordering::Relaxed),
            conjunctive: self.conjunctive.load(Ordering::Relaxed),
            shard_queries: self.shard_queries.load(Ordering::Relaxed),
            conjunctive_shard_queries: self.conjunctive_shard_queries.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            filter_fetches: self.filter_fetches.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
        }
    }
}

/// A Merkle tree over the hashes of an encrypted file collection.
///
/// Leaves are `H(0x00 ‖ id ‖ ciphertext)`, inner nodes
/// `H(0x01 ‖ left ‖ right)`; the domain separation prevents
/// leaf/inner-node confusion attacks. Odd nodes are promoted unchanged.
///
/// # Example
///
/// ```
/// use rsse_cloud::audit::MerkleTree;
/// use rsse_cloud::EncryptedFile;
/// use rsse_ir::FileId;
///
/// let files: Vec<EncryptedFile> = (0..5)
///     .map(|i| EncryptedFile::new(FileId::new(i), vec![i as u8; 32]))
///     .collect();
/// let tree = MerkleTree::build(&files);
/// let proof = tree.prove(2).unwrap();
/// assert!(MerkleTree::verify(&tree.root(), &files[2], &proof));
/// ```
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// `levels[0]` = leaves, `levels.last()` = [root].
    levels: Vec<Vec<[u8; 32]>>,
}

/// An inclusion proof: sibling hashes from leaf to root, each tagged with
/// whether the sibling sits to the left.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub leaf_index: usize,
    /// `(sibling_hash, sibling_is_left)` pairs, leaf-level first.
    pub path: Vec<([u8; 32], bool)>,
}

fn leaf_hash(file: &EncryptedFile) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(&file.id().to_bytes());
    h.update(file.ciphertext());
    h.finalize()
}

fn inner_hash(left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(left);
    h.update(right);
    h.finalize()
}

impl MerkleTree {
    /// Builds the tree over `files` in the given (canonical) order.
    ///
    /// # Panics
    ///
    /// Panics on an empty collection — there is nothing to commit to.
    pub fn build(files: &[EncryptedFile]) -> Self {
        assert!(!files.is_empty(), "cannot commit to an empty collection");
        let mut levels = vec![files.iter().map(leaf_hash).collect::<Vec<_>>()];
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                next.push(match pair {
                    [l, r] => inner_hash(l, r),
                    [odd] => *odd, // promoted unchanged
                    _ => unreachable!("chunks(2) yields 1..=2 items"),
                });
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The published root commitment.
    pub fn root(&self) -> [u8; 32] {
        self.levels.last().expect("non-empty")[0]
    }

    /// Number of committed files.
    pub fn num_leaves(&self) -> usize {
        self.levels[0].len()
    }

    /// Produces the inclusion proof for the leaf at `index`, or `None` if
    /// out of range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.num_leaves() {
            return None;
        }
        let mut path = Vec::with_capacity(self.levels.len());
        let mut i = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = i ^ 1;
            if sibling < level.len() {
                path.push((level[sibling], sibling < i));
            }
            // An odd promoted node contributes no sibling at this level.
            i /= 2;
        }
        Some(MerkleProof {
            leaf_index: index,
            path,
        })
    }

    /// Verifies that `file` is committed under `root` by `proof`.
    pub fn verify(root: &[u8; 32], file: &EncryptedFile, proof: &MerkleProof) -> bool {
        let mut acc = leaf_hash(file);
        for (sibling, sibling_is_left) in &proof.path {
            acc = if *sibling_is_left {
                inner_hash(sibling, &acc)
            } else {
                inner_hash(&acc, sibling)
            };
        }
        &acc == root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsse_ir::FileId;

    fn files(n: u64) -> Vec<EncryptedFile> {
        (0..n)
            .map(|i| EncryptedFile::new(FileId::new(i), vec![i as u8; 24 + (i as usize % 5)]))
            .collect()
    }

    #[test]
    fn every_leaf_proves_for_various_sizes() {
        for n in [1u64, 2, 3, 4, 5, 7, 8, 9, 16, 33] {
            let fs = files(n);
            let tree = MerkleTree::build(&fs);
            for (i, f) in fs.iter().enumerate() {
                let proof = tree.prove(i).unwrap();
                assert!(
                    MerkleTree::verify(&tree.root(), f, &proof),
                    "n={n} leaf {i}"
                );
            }
        }
    }

    #[test]
    fn tampered_file_fails_verification() {
        let fs = files(8);
        let tree = MerkleTree::build(&fs);
        let proof = tree.prove(3).unwrap();
        let forged = EncryptedFile::new(fs[3].id(), {
            let mut c = fs[3].ciphertext().to_vec();
            c[0] ^= 1;
            c
        });
        assert!(!MerkleTree::verify(&tree.root(), &forged, &proof));
    }

    #[test]
    fn wrong_id_fails_verification() {
        let fs = files(8);
        let tree = MerkleTree::build(&fs);
        let proof = tree.prove(3).unwrap();
        let misattributed = EncryptedFile::new(FileId::new(99), fs[3].ciphertext().to_vec());
        assert!(!MerkleTree::verify(&tree.root(), &misattributed, &proof));
    }

    #[test]
    fn proof_for_one_leaf_rejects_another() {
        let fs = files(8);
        let tree = MerkleTree::build(&fs);
        let proof = tree.prove(3).unwrap();
        assert!(!MerkleTree::verify(&tree.root(), &fs[4], &proof));
    }

    #[test]
    fn truncated_proof_fails() {
        let fs = files(16);
        let tree = MerkleTree::build(&fs);
        let mut proof = tree.prove(5).unwrap();
        proof.path.pop();
        assert!(!MerkleTree::verify(&tree.root(), &fs[5], &proof));
    }

    #[test]
    fn roots_differ_when_any_file_differs() {
        let a = MerkleTree::build(&files(8));
        let mut changed = files(8);
        changed[7] = EncryptedFile::new(FileId::new(7), vec![0xFF; 10]);
        let b = MerkleTree::build(&changed);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn out_of_range_proof_is_none() {
        let tree = MerkleTree::build(&files(4));
        assert!(tree.prove(4).is_none());
    }

    #[test]
    fn single_file_tree() {
        let fs = files(1);
        let tree = MerkleTree::build(&fs);
        let proof = tree.prove(0).unwrap();
        assert!(proof.path.is_empty());
        assert!(MerkleTree::verify(&tree.root(), &fs[0], &proof));
    }

    #[test]
    #[should_panic(expected = "empty collection")]
    fn empty_collection_panics() {
        MerkleTree::build(&[]);
    }

    #[test]
    fn each_request_kind_bumps_exactly_its_own_counter() {
        type Field = fn(&mut ServingReport) -> &mut u64;
        let table: [(RequestKind, Field); 10] = [
            (RequestKind::Search, |r| &mut r.searches),
            (RequestKind::Fetch, |r| &mut r.fetches),
            (RequestKind::Conjunctive, |r| &mut r.conjunctive),
            (RequestKind::ShardQuery, |r| &mut r.shard_queries),
            (RequestKind::ConjunctiveShard, |r| {
                &mut r.conjunctive_shard_queries
            }),
            (RequestKind::Batch, |r| &mut r.batches),
            (RequestKind::Update, |r| &mut r.updates),
            (RequestKind::Filter, |r| &mut r.filter_fetches),
            (RequestKind::Rejected, |r| &mut r.rejected),
            (RequestKind::Panicked, |r| &mut r.panics),
        ];
        for (kind, field) in table {
            let counters = AuditCounters::new();
            counters.record(kind);
            let mut want = ServingReport {
                total: 1,
                ..ServingReport::default()
            };
            *field(&mut want) = 1;
            assert_eq!(counters.report(), want, "{kind:?}");
        }
    }

    #[test]
    fn cache_outcomes_are_counted_separately_from_requests() {
        let counters = AuditCounters::new();
        counters.record(RequestKind::Search);
        counters.record_cache(false);
        counters.record(RequestKind::Search);
        counters.record_cache(true);
        counters.record_cache(true);
        let report = counters.report();
        assert_eq!(report.total, 2, "cache outcomes are not requests");
        assert_eq!(report.cache_hits, 2);
        assert_eq!(report.cache_misses, 1);
    }

    #[test]
    fn counters_are_exact_across_threads() {
        let counters = std::sync::Arc::new(AuditCounters::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = std::sync::Arc::clone(&counters);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.record(RequestKind::Search);
                        c.record_cache(true);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let report = counters.report();
        assert_eq!(report.total, 4000);
        assert_eq!(report.searches, 4000);
        assert_eq!(report.cache_hits, 4000);
    }
}
