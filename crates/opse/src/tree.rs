//! The lazily-sampled binary search shared by OPSE and OPM.
//!
//! Both ciphers walk the same keyed tree (the paper's `BinarySearch`
//! procedure): at a node covering domain `D = {d+1..d+M}` and range
//! `R = {r+1..r+N}`, the range is halved at `y = r + N/2` and a
//! hypergeometric draw — with coins committed to the node — decides how
//! many domain points fall below `y`. The walk ends when a single
//! plaintext remains; the surviving range is that plaintext's *bucket*.
//!
//! Algorithm 1 asks only that `TapeGen` be a keyed PRF of the node, and
//! every coin fits a 128-bit address, so each coin tape is
//! [`Tape::at`]`(k_T, address)`: XChaCha20 under the tree key `k_T` at
//! that address, twenty rounds before its first block. Bits 126–127 tag
//! the address's kind:
//!
//! - the tree key `k_T = HChaCha20(K, M << 64 | N)`, tag 0, binds the
//!   tree to its parameters `(M, N)`, as the transcripts `(D, R, ..)` do
//!   in the paper;
//! - the split at node `(d, m, r, n)` is at `1 << 126 | r << 64 | n`:
//!   `(r, n)` identifies a node, because the range intervals strictly
//!   shrink down the tree, and `y` is a function of them;
//! - the ciphertext choice in plaintext `m`'s bucket is at
//!   `2 << 126 | 1 << 125 | m << 64 | id` with an OPM file id, and at
//!   `2 << 126 | m << 64` without one (deterministic OPSE).
//!
//! Every field fits its bits, since `1 <= M <= N <= 2^52`, `r < 2^52` and
//! `m <= M`, so no two coins share an address.
//!
//! Because the coins depend only on the node (not on the plaintext), every
//! plaintext deterministically sees the same splits, which is what makes the
//! resulting buckets non-overlapping and order-preserving — and what gives
//! the scheme its *score dynamics*: re-encrypting any value under the same
//! key always reaches the same bucket, so later insertions never perturb
//! earlier ciphertexts.

use crate::error::OpseError;
use crate::params::OpseParams;
use rsse_crypto::tape::subkey_at;
use rsse_crypto::{SecretKey, Tape};
use rsse_hgd::Hypergeometric;
use std::cell::RefCell;
use std::collections::HashMap;

/// The bucket (inclusive ciphertext sub-range) owned by one plaintext.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bucket {
    /// The plaintext owning this bucket.
    pub plaintext: u64,
    /// Smallest ciphertext in the bucket.
    pub lo: u64,
    /// Largest ciphertext in the bucket.
    pub hi: u64,
}

impl Bucket {
    /// Number of ciphertexts in the bucket.
    pub fn len(&self) -> u64 {
        self.hi - self.lo + 1
    }

    /// Buckets are never empty; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `c` falls inside the bucket.
    pub fn contains(&self, c: u64) -> bool {
        (self.lo..=self.hi).contains(&c)
    }
}

/// One node of the implicit search tree: `D = {d+1..d+M}`, `R = {r+1..r+N}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    d: u64,
    m: u64,
    r: u64,
    n: u64,
}

/// Statistics gathered during a walk — exposed so benches can report the
/// number of HGD draws (the paper bounds it by `5 log M + 12` on average).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Hypergeometric draws actually sampled.
    pub hgd_draws: u64,
    /// Node splits, and whole plaintext walks, answered from the memo.
    pub cache_hits: u64,
}

/// The memo of a [`SearchTree`]: node → split point, and plaintext → its
/// bucket, so a warm encrypt is one lookup instead of one per level.
#[derive(Debug, Default)]
struct Memo {
    splits: HashMap<Node, u64>,
    buckets: HashMap<u64, Bucket>,
}

/// The keyed search tree evaluator with an optional memo.
///
/// Each instance has its own memo, which is sound because splits and
/// buckets are a pure function of `(key, node)`. The memo takes no lock:
/// a tree belongs to the one thread that maps its list's scores, so it is
/// `Send` but not `Sync`.
#[derive(Debug)]
pub struct SearchTree {
    /// The tree key `k_T`: HChaCha20 of the caller's key at `(M, N)`.
    key: SecretKey,
    params: OpseParams,
    memo: Option<RefCell<Memo>>,
}

impl SearchTree {
    /// Creates a tree evaluator with memoized splits and buckets (the
    /// common case: encrypting many scores of one posting list under one
    /// key).
    pub fn new(key: SecretKey, params: OpseParams) -> Self {
        SearchTree {
            key: subkey_at(&key, tree_address(&params)),
            params,
            memo: Some(RefCell::default()),
        }
    }

    /// Creates a tree evaluator that re-samples every split — used by the
    /// Fig. 7 benchmarks to measure the honest per-operation cost.
    pub fn new_uncached(key: SecretKey, params: OpseParams) -> Self {
        SearchTree {
            memo: None,
            ..Self::new(key, params)
        }
    }

    /// The parameters this tree was built with.
    pub fn params(&self) -> &OpseParams {
        &self.params
    }

    /// The hypergeometric split of `node`: how many of its `m` domain points
    /// map below the midpoint `y`. Returns the absolute domain coordinate
    /// `x = d + HYGEINV(...)`.
    fn split(&self, node: Node, y: u64, stats: &mut WalkStats) -> u64 {
        if let Some(memo) = &self.memo {
            if let Some(&x) = memo.borrow().splits.get(&node) {
                stats.cache_hits += 1;
                return x;
            }
        }
        let mut tape = Tape::at(&self.key, split_address(node));
        let draws = y - node.r;
        let hgd = Hypergeometric::new(node.n, node.m, draws)
            .expect("node invariants guarantee valid HGD parameters");
        let k = hgd.sample(&mut tape);
        stats.hgd_draws += 1;
        let x = node.d + k;
        if let Some(memo) = &self.memo {
            memo.borrow_mut().splits.insert(node, x);
        }
        x
    }

    /// Walks down to the bucket of plaintext `m`.
    ///
    /// # Errors
    ///
    /// Returns [`OpseError::PlaintextOutOfDomain`] if `m` is outside
    /// `{1..M}`.
    pub fn bucket_of_plaintext(&self, m: u64) -> Result<(Bucket, WalkStats), OpseError> {
        self.params.check_plaintext(m)?;
        let mut stats = WalkStats::default();
        if let Some(memo) = &self.memo {
            if let Some(&bucket) = memo.borrow().buckets.get(&m) {
                stats.cache_hits += 1;
                return Ok((bucket, stats));
            }
        }
        let mut node = Node {
            d: 0,
            m: self.params.domain_size(),
            r: 0,
            n: self.params.range_size(),
        };
        while node.m > 1 {
            debug_assert!(node.n >= node.m, "range must dominate domain");
            let y = node.r + node.n / 2;
            let x = self.split(node, y, &mut stats);
            if m <= x {
                node = Node {
                    d: node.d,
                    m: x - node.d,
                    r: node.r,
                    n: y - node.r,
                };
            } else {
                node = Node {
                    d: x,
                    m: node.d + node.m - x,
                    r: y,
                    n: node.r + node.n - y,
                };
            }
        }
        debug_assert_eq!(node.d + 1, m);
        let bucket = Bucket {
            plaintext: m,
            lo: node.r + 1,
            hi: node.r + node.n,
        };
        if let Some(memo) = &self.memo {
            memo.borrow_mut().buckets.insert(m, bucket);
        }
        Ok((bucket, stats))
    }

    /// Walks down to the bucket containing ciphertext `c`, recovering the
    /// owning plaintext. This is OPSE/OPM decryption.
    ///
    /// # Errors
    ///
    /// Returns [`OpseError::CiphertextOutOfRange`] if `c` is outside
    /// `{1..N}`.
    pub fn bucket_of_ciphertext(&self, c: u64) -> Result<(Bucket, WalkStats), OpseError> {
        self.params.check_ciphertext(c)?;
        let mut stats = WalkStats::default();
        let mut node = Node {
            d: 0,
            m: self.params.domain_size(),
            r: 0,
            n: self.params.range_size(),
        };
        while node.m > 1 {
            let y = node.r + node.n / 2;
            let x = self.split(node, y, &mut stats);
            if c <= y {
                node = Node {
                    d: node.d,
                    m: x - node.d,
                    r: node.r,
                    n: y - node.r,
                };
            } else {
                node = Node {
                    d: x,
                    m: node.d + node.m - x,
                    r: y,
                    n: node.r + node.n - y,
                };
            }
            // A range half that owns zero domain points is dead space: no
            // bucket ever includes it, so no honestly produced ciphertext
            // lands there. Adversarially chosen c can, though — report it
            // as out of (valid) range rather than mis-decrypting.
            if node.m == 0 {
                return Err(OpseError::CiphertextOutOfRange {
                    ciphertext: c,
                    range: self.params.range_size(),
                });
            }
        }
        Ok((
            Bucket {
                plaintext: node.d + 1,
                lo: node.r + 1,
                hi: node.r + node.n,
            },
            stats,
        ))
    }

    /// Draws a ciphertext uniformly from `bucket`, with coins at the
    /// address of its plaintext's choice and, for OPM, the file `id`.
    pub fn choose_in_bucket(&self, bucket: &Bucket, id: Option<u64>) -> u64 {
        let mut tape = Tape::at(&self.key, choice_address(bucket.plaintext, id));
        bucket.lo + tape.uniform_below(bucket.len())
    }
}

/// The tag of a node split's address, in bits 126–127.
const SPLIT: u128 = 1 << 126;
/// The tag of a ciphertext choice's address.
const CHOICE: u128 = 2 << 126;
/// The flag of a choice whose low 64 bits hold a file id.
const WITH_ID: u128 = 1 << 125;

/// The address the tree key is derived at: `M << 64 | N`, tag 0.
fn tree_address(params: &OpseParams) -> u128 {
    u128::from(params.domain_size()) << 64 | u128::from(params.range_size())
}

/// The address of `node`'s HGD split coins: `(r, n)` under its tag.
fn split_address(node: Node) -> u128 {
    SPLIT | u128::from(node.r) << 64 | u128::from(node.n)
}

/// The address of the ciphertext choice in plaintext `m`'s bucket, with
/// the file `id` if there is one.
fn choice_address(m: u64, id: Option<u64>) -> u128 {
    let address = CHOICE | u128::from(m) << 64;
    match id {
        Some(id) => address | WITH_ID | u128::from(id),
        None => address,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(m: u64, n: u64) -> SearchTree {
        SearchTree::new(
            SecretKey::derive(b"tree tests", "k"),
            OpseParams::new(m, n).unwrap(),
        )
    }

    #[test]
    fn buckets_partition_the_walkable_range() {
        // Buckets must be pairwise disjoint and ordered by plaintext.
        let t = tree(16, 256);
        let mut prev_hi = 0u64;
        for m in 1..=16 {
            let (b, _) = t.bucket_of_plaintext(m).unwrap();
            assert!(b.lo > prev_hi, "bucket {m} overlaps or disorders");
            assert!(b.hi >= b.lo);
            prev_hi = b.hi;
        }
        assert!(prev_hi <= 256);
    }

    #[test]
    fn bucket_is_stable_across_calls() {
        let t = tree(64, 1 << 20);
        let (b1, _) = t.bucket_of_plaintext(37).unwrap();
        let (b2, _) = t.bucket_of_plaintext(37).unwrap();
        assert_eq!(b1, b2);
    }

    #[test]
    fn cached_and_uncached_agree() {
        // The memo of splits and buckets changes no coin: over every level
        // of the paper's M = 128 and four file ids, cold and then warm, a
        // memoized tree and an uncached one give the same buckets and
        // ciphertexts.
        let key = SecretKey::derive(b"tree tests", "k");
        let params = OpseParams::paper_default();
        let cached = SearchTree::new(key.clone(), params);
        let uncached = SearchTree::new_uncached(key, params);
        for pass in ["cold", "warm"] {
            for m in 1..=128 {
                let bucket = uncached.bucket_of_plaintext(m).unwrap().0;
                assert_eq!(
                    cached.bucket_of_plaintext(m).unwrap().0,
                    bucket,
                    "{pass} m={m}"
                );
                for id in [Some(0), Some(1), Some(1 << 40), Some(u64::MAX), None] {
                    assert_eq!(
                        cached.choose_in_bucket(&bucket, id),
                        uncached.choose_in_bucket(&bucket, id),
                        "{pass} m={m} id={id:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn cache_hits_accumulate() {
        let t = tree(32, 1 << 16);
        let (_, first) = t.bucket_of_plaintext(1).unwrap();
        assert_eq!(first.cache_hits, 0);
        let (_, second) = t.bucket_of_plaintext(1).unwrap();
        assert_eq!(second.hgd_draws, 0);
        assert_eq!(second.cache_hits, 1, "a warm walk is one bucket lookup");
        let (_, sibling) = t.bucket_of_plaintext(2).unwrap();
        assert!(sibling.cache_hits > 0, "a cold walk reuses memoized splits");
    }

    #[test]
    fn ciphertext_walk_inverts_plaintext_walk() {
        let t = tree(32, 1 << 16);
        for m in 1..=32 {
            let (b, _) = t.bucket_of_plaintext(m).unwrap();
            for c in [b.lo, (b.lo + b.hi) / 2, b.hi] {
                let (back, _) = t.bucket_of_ciphertext(c).unwrap();
                assert_eq!(back.plaintext, m, "c={c}");
                assert_eq!(back, b);
            }
        }
    }

    #[test]
    fn different_keys_give_different_trees() {
        let params = OpseParams::new(64, 1 << 24).unwrap();
        let t1 = SearchTree::new(SecretKey::derive(b"a", "k"), params);
        let t2 = SearchTree::new(SecretKey::derive(b"b", "k"), params);
        let differing = (1..=64)
            .filter(|&m| {
                t1.bucket_of_plaintext(m).unwrap().0 != t2.bucket_of_plaintext(m).unwrap().0
            })
            .count();
        assert!(differing > 32, "only {differing}/64 buckets differ");
    }

    #[test]
    fn out_of_domain_rejected() {
        let t = tree(16, 256);
        assert!(t.bucket_of_plaintext(0).is_err());
        assert!(t.bucket_of_plaintext(17).is_err());
        assert!(t.bucket_of_ciphertext(0).is_err());
        assert!(t.bucket_of_ciphertext(257).is_err());
    }

    #[test]
    fn degenerate_single_plaintext() {
        let t = tree(1, 1000);
        let (b, stats) = t.bucket_of_plaintext(1).unwrap();
        assert_eq!((b.lo, b.hi), (1, 1000));
        assert_eq!(stats.hgd_draws, 0, "no splits needed for |D| = 1");
    }

    #[test]
    fn permutation_when_domain_equals_range() {
        let t = tree(16, 16);
        let mut seen = std::collections::HashSet::new();
        for m in 1..=16 {
            let (b, _) = t.bucket_of_plaintext(m).unwrap();
            assert_eq!(b.lo, b.hi, "buckets must be singletons");
            assert!(seen.insert(b.lo));
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn choose_in_bucket_respects_bounds_and_seed() {
        let t = tree(8, 1 << 20);
        let (b, _) = t.bucket_of_plaintext(5).unwrap();
        let c1 = t.choose_in_bucket(&b, None);
        let c2 = t.choose_in_bucket(&b, None);
        assert_eq!(c1, c2, "same seed, same ciphertext");
        assert!(b.contains(c1));
        let c3 = t.choose_in_bucket(&b, Some(17));
        assert!(b.contains(c3));
    }

    #[test]
    fn hgd_draw_count_is_modest() {
        // The paper bounds the expected draw count by 5 log2 M + 12.
        let t = SearchTree::new_uncached(
            SecretKey::derive(b"draws", "k"),
            OpseParams::new(128, 1 << 46).unwrap(),
        );
        let mut total = 0u64;
        for m in 1..=128 {
            let (_, stats) = t.bucket_of_plaintext(m).unwrap();
            total += stats.hgd_draws;
        }
        let avg = total as f64 / 128.0;
        let bound = 5.0 * 128f64.log2() + 12.0;
        assert!(avg <= bound, "avg draws {avg} exceeds paper bound {bound}");
    }

    #[test]
    fn addresses_never_collide() {
        // Boundary fields: M = N = 2^52 at the root, the last node of the
        // range (r = 2^52 - 1), the whole range (n = 2^52), and the largest
        // plaintext (m = M) with id 0, id u64::MAX and no id. Bits 126-127
        // carry the kind and every field reads back from its own bits, so
        // the three kinds never collide and each kind is injective.
        let max = crate::MAX_RANGE;
        let low61 = |a: u128| (a >> 64) as u64 & ((1 << 61) - 1);
        let mut all = std::collections::HashSet::new();
        for (m, n) in [(max, max), (1, max), (1, 1)] {
            let a = tree_address(&OpseParams::new(m, n).unwrap());
            assert_eq!((a >> 126, low61(a), a as u64), (0, m, n), "{a:#x}");
            assert!(all.insert(a));
        }
        for (r, n) in [(0, max), (max - 1, 1), (0, 1)] {
            let a = split_address(Node { d: r, m: 1, r, n });
            assert_eq!((a >> 126, low61(a), a as u64), (1, r, n), "{a:#x}");
            assert!(all.insert(a));
        }
        for m in [max, 1] {
            for id in [Some(0), Some(u64::MAX), None] {
                let a = choice_address(m, id);
                assert_eq!((a >> 126, a & WITH_ID != 0), (2, id.is_some()), "{a:#x}");
                assert_eq!((low61(a), a as u64), (m, id.unwrap_or(0)), "{a:#x}");
                assert!(all.insert(a));
            }
        }
    }

    #[test]
    fn walk_terminates_on_adversarial_sizes() {
        // Non-power-of-two ranges and tight range/domain ratios.
        for &(m, n) in &[(3u64, 7u64), (5, 11), (100, 101), (128, 129), (2, 3)] {
            let t = tree(m, n);
            for p in 1..=m {
                let (b, _) = t.bucket_of_plaintext(p).unwrap();
                assert!(b.lo >= 1 && b.hi <= n);
            }
        }
    }
}
