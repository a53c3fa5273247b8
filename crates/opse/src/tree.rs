//! The lazily-sampled binary search shared by OPSE and OPM.
//!
//! Both ciphers walk the same keyed tree (the paper's `BinarySearch`
//! procedure): at a node covering domain `D = {d+1..d+M}` and range
//! `R = {r+1..r+N}`, the range is halved at `y = r + N/2` and a
//! hypergeometric draw — with coins committed to the node transcript
//! `(D, R)` — decides how many domain points fall below `y`. The walk
//! ends when a single plaintext remains; the surviving range is that
//! plaintext's *bucket*.
//!
//! The paper's transcripts `(D, R, 0‖y)` and `(D, R, 1‖m, id)` carry
//! fields the node already fixes: `y` is a function of `R`, a leaf's `D`
//! is `{m}`, and the `0`/`1` tags only separate the two uses, which the
//! domain labels `opse/hgd` and `opse/ct` already do. Without them each
//! transcript fits one SHA-256 block (at most 55 bytes with an 8-byte file
//! id), so a node's coin tape costs two compressions under the pre-keyed
//! HMAC.
//!
//! Because the coins depend only on the node (not on the plaintext), every
//! plaintext deterministically sees the same splits, which is what makes the
//! resulting buckets non-overlapping and order-preserving — and what gives
//! the scheme its *score dynamics*: re-encrypting any value under the same
//! key always reaches the same bucket, so later insertions never perturb
//! earlier ciphertexts.

use crate::error::OpseError;
use crate::params::OpseParams;
use rsse_crypto::tape::Transcript;
use rsse_crypto::{Hmac, SecretKey, Sha256, Tape};
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
    /// Node splits answered from the memo cache.
    pub cache_hits: u64,
}

/// The keyed search tree evaluator with an optional split memo-cache.
///
/// Each instance has its own cache, which maps node → split point and is
/// sound because splits are a pure function of `(key, node)`. The cache
/// takes no lock: a tree belongs to the one thread that maps its list's
/// scores, so it is `Send` but not `Sync`.
#[derive(Debug)]
pub struct SearchTree {
    /// `HMAC(key, ·)` keyed once; every node's coin tape clones it.
    keyed: Hmac<Sha256>,
    params: OpseParams,
    cache: Option<RefCell<HashMap<Node, u64>>>,
}

impl SearchTree {
    /// Creates a tree evaluator with memoized splits (the common case:
    /// encrypting many scores of one posting list under one key).
    pub fn new(key: SecretKey, params: OpseParams) -> Self {
        SearchTree {
            keyed: Hmac::new(key.as_bytes()),
            params,
            cache: Some(RefCell::new(HashMap::new())),
        }
    }

    /// Creates a tree evaluator that re-samples every split — used by the
    /// Fig. 7 benchmarks to measure the honest per-operation cost.
    pub fn new_uncached(key: SecretKey, params: OpseParams) -> Self {
        SearchTree {
            cache: None,
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
        if let Some(cache) = &self.cache {
            if let Some(&x) = cache.borrow().get(&node) {
                stats.cache_hits += 1;
                return x;
            }
        }
        let mut tape = Tape::with_keyed(&self.keyed, &split_transcript(node));
        let draws = y - node.r;
        let hgd = Hypergeometric::new(node.n, node.m, draws)
            .expect("node invariants guarantee valid HGD parameters");
        let k = hgd.sample(&mut tape);
        stats.hgd_draws += 1;
        let x = node.d + k;
        if let Some(cache) = &self.cache {
            cache.borrow_mut().insert(node, x);
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
        Ok((
            Bucket {
                plaintext: m,
                lo: node.r + 1,
                hi: node.r + node.n,
            },
            stats,
        ))
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

    /// Draws a ciphertext uniformly from `bucket`, with coins committed to
    /// `(m, bucket)` plus an optional seed extension (the OPM file ID).
    pub fn choose_in_bucket(&self, bucket: &Bucket, extra_seed: Option<&[u8]>) -> u64 {
        let mut tape = Tape::with_keyed(&self.keyed, &choice_transcript(bucket, extra_seed));
        bucket.lo + tape.uniform_below(bucket.len())
    }
}

/// The coin transcript of `node`'s HGD split: `("opse/hgd", d, m, r, n)`,
/// 48 bytes.
fn split_transcript(node: Node) -> Vec<u8> {
    Transcript::new("opse/hgd")
        .u64(node.d)
        .u64(node.m)
        .u64(node.r)
        .u64(node.n)
        .finish()
}

/// The coin transcript of the ciphertext choice in `bucket`:
/// `("opse/ct", m, lo, hi)`, then the seed extension if there is one; 55
/// bytes with an 8-byte file id.
fn choice_transcript(bucket: &Bucket, extra_seed: Option<&[u8]>) -> Vec<u8> {
    let t = Transcript::new("opse/ct")
        .u64(bucket.plaintext)
        .u64(bucket.lo)
        .u64(bucket.hi);
    match extra_seed {
        Some(seed) => t.bytes(seed),
        None => t,
    }
    .finish()
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
        let key = SecretKey::derive(b"tree tests", "k");
        let params = OpseParams::new(32, 1 << 16).unwrap();
        let cached = SearchTree::new(key.clone(), params);
        let uncached = SearchTree::new_uncached(key, params);
        for m in 1..=32 {
            assert_eq!(
                cached.bucket_of_plaintext(m).unwrap().0,
                uncached.bucket_of_plaintext(m).unwrap().0
            );
        }
    }

    #[test]
    fn cache_hits_accumulate() {
        let t = tree(32, 1 << 16);
        let (_, first) = t.bucket_of_plaintext(1).unwrap();
        assert_eq!(first.cache_hits, 0);
        let (_, second) = t.bucket_of_plaintext(1).unwrap();
        assert_eq!(second.hgd_draws, 0);
        assert!(second.cache_hits > 0);
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
        let c3 = t.choose_in_bucket(&b, Some(b"file-17"));
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
    fn transcripts_fit_one_sha256_block() {
        // One SHA-256 block holds 55 message bytes beside its padding, so
        // a pre-keyed HMAC seed costs two compressions.
        let node = Node {
            d: u64::MAX,
            m: u64::MAX,
            r: u64::MAX,
            n: u64::MAX,
        };
        assert_eq!(split_transcript(node).len(), 48);
        let bucket = Bucket {
            plaintext: u64::MAX,
            lo: u64::MAX,
            hi: u64::MAX,
        };
        let file_id = u64::MAX.to_be_bytes();
        assert_eq!(choice_transcript(&bucket, Some(&file_id)).len(), 55);
        assert_eq!(choice_transcript(&bucket, None).len(), 38);
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
