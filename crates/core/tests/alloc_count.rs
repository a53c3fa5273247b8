//! Heap-allocation accounting for the search path.
//!
//! Before flat posting lists, `RsseIndex::search` paid one heap allocation
//! per posting entry per query (a fresh plaintext `Vec` from `decrypt`).
//! With each list one resident buffer of back-to-back entries
//! (`PostingStore`) and entries decrypted four at a time into stack
//! buffers, the per-query allocation count must be a small constant,
//! *independent of list length* — O(1) per query instead of O(entries). A
//! counting global allocator verifies exactly that. (The lib crate forbids
//! `unsafe`; this integration-test crate hosts the allocator shim instead.)

use rsse_core::{ranked_prefix, RankedResult, Rsse, RsseParams};
use rsse_ir::{Document, FileId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates directly to the system allocator; the counter is a
// side effect that never touches the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCS.load(Ordering::Relaxed) - before, result)
}

/// `n` documents all containing the hot keyword, with a tiny vocabulary so
/// index build stays cheap even though every list is padded to length `n`.
fn corpus(n: u64) -> Vec<Document> {
    (0..n)
        .map(|i| {
            Document::new(
                FileId::new(i + 1),
                format!("network filler{} payload", i % 4),
            )
        })
        .collect()
}

// A single test function: the measurements must not interleave with other
// tests in this binary mutating the global counter.
#[test]
fn search_allocations_are_constant_in_list_length() {
    let scheme = Rsse::new(b"alloc seed", RsseParams::default());
    let small = scheme.build_index(&corpus(16)).unwrap();
    let large = scheme.build_index(&corpus(512)).unwrap();
    let trapdoor = scheme.trapdoor("network").unwrap();
    assert_eq!(small.list_len(trapdoor.label()), Some(16));
    assert_eq!(large.list_len(trapdoor.label()), Some(512));

    // Warm-up: anything allocated once per process is paid here.
    let warm = large.search(&trapdoor, Some(8));
    assert_eq!(warm.len(), 8);

    // Heap-based top-k: the only per-query allocations are the k-sized
    // heap and the result vector, regardless of how long the list is.
    let (allocs_small, hits_small) = allocations_during(|| small.search(&trapdoor, Some(8)));
    let (allocs_large, hits_large) = allocations_during(|| large.search(&trapdoor, Some(8)));
    assert_eq!(hits_small.len(), 8);
    assert_eq!(hits_large.len(), 8);
    assert_eq!(
        allocs_small, allocs_large,
        "top-k search allocations must not scale with list length \
         ({allocs_small} for 16 entries vs {allocs_large} for 512)"
    );
    assert!(
        allocs_large <= 8,
        "top-k search should stay within a small constant allocation \
         budget, got {allocs_large}"
    );

    // Full-sort branch: one pre-sized result vector; sort_unstable is
    // in-place, so the count is constant here too.
    let (full_small, _) = allocations_during(|| small.search(&trapdoor, None));
    let (full_large, _) = allocations_during(|| large.search(&trapdoor, None));
    assert_eq!(
        full_small, full_large,
        "full-sort search allocations must not scale with list length \
         ({full_small} for 16 entries vs {full_large} for 512)"
    );
    assert!(full_large <= 8, "full-sort budget exceeded: {full_large}");

    // Ranking-cache hit path: serving top-k off an already ranked cached
    // vector must cost exactly the output copy — ONE allocation, zero
    // per-entry work — no matter how long the cached ranking is. This is
    // the whole point of the hot-keyword cache: a hit skips every AES
    // unwrap and every comparison beyond the prefix memcpy.
    let cached_short = &shard_streams(1, 16)[0];
    let cached_long = &shard_streams(1, 4096)[0];
    let (hit_short, prefix_short) = allocations_during(|| ranked_prefix(cached_short, Some(8)));
    let (hit_long, prefix_long) = allocations_during(|| ranked_prefix(cached_long, Some(8)));
    assert_eq!(prefix_short.len(), 8);
    assert_eq!(prefix_long.len(), 8);
    assert_eq!(
        hit_short, hit_long,
        "cache-hit allocations must not scale with cached ranking length \
         ({hit_short} for 16 entries vs {hit_long} for 4096)"
    );
    assert!(
        hit_long <= 1,
        "a cache hit is one output allocation, got {hit_long}"
    );
    // k = 0 short-circuits without touching the heap at all.
    let (hit_empty, prefix_empty) = allocations_during(|| ranked_prefix(cached_long, Some(0)));
    assert!(prefix_empty.is_empty());
    assert!(
        hit_empty <= 1,
        "an empty prefix must not allocate per entry, got {hit_empty}"
    );

    // Conjunctive pushdown: with the intersection size and arity held
    // fixed, the per-query allocation count must not scale with the length
    // of the hash-probed list. The probe table is sized up front and a
    // driver miss never costs a mapped-scores vector, so growing the
    // "network" list 32x changes the table's *capacity*, not the number of
    // heap allocations.
    let conj = scheme.multi_trapdoor("network storage").unwrap();
    let conj_small = scheme.build_index(&conjunctive_corpus(16)).unwrap();
    let conj_large = scheme.build_index(&conjunctive_corpus(512)).unwrap();
    let warm = conj_large.search_conjunctive(&conj, None).unwrap();
    assert_eq!(warm.len(), 8);
    let (conj_allocs_small, conj_hits_small) =
        allocations_during(|| conj_small.search_conjunctive(&conj, None).unwrap());
    let (conj_allocs_large, conj_hits_large) =
        allocations_during(|| conj_large.search_conjunctive(&conj, None).unwrap());
    assert_eq!(conj_hits_small.len(), 8);
    assert_eq!(conj_hits_large.len(), 8);
    assert_eq!(
        conj_allocs_small, conj_allocs_large,
        "conjunctive pushdown allocations must not scale with probed list \
         length ({conj_allocs_small} for 16 entries vs {conj_allocs_large} \
         for 512)"
    );
    assert!(
        conj_allocs_large <= 40,
        "conjunctive pushdown budget exceeded: {conj_allocs_large}"
    );
}

/// `n` documents all containing "network", of which exactly the first 8
/// also contain "storage" — the intersection stays fixed while the probed
/// list grows with `n`.
fn conjunctive_corpus(n: u64) -> Vec<Document> {
    (0..n)
        .map(|i| {
            let text = if i < 8 {
                format!("network storage payload{}", i % 4)
            } else {
                format!("network filler{} payload", i % 4)
            };
            Document::new(FileId::new(i + 1), text)
        })
        .collect()
}

/// `shards` disjoint per-shard rankings of `len` results each, sorted
/// descending like a shard reply.
fn shard_streams(shards: usize, len: usize) -> Vec<Vec<RankedResult>> {
    (0..shards)
        .map(|s| {
            (0..len)
                .map(|i| RankedResult {
                    file: FileId::new((s * len + i) as u64),
                    encrypted_score: (1_000_000 - i * shards - s) as u64,
                })
                .collect()
        })
        .collect()
}
