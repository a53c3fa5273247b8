//! Allocation bounds for the decoder under hostile length prefixes.
//!
//! A frame can claim `u64::MAX` elements in eight bytes; a decoder that
//! pre-allocates what the prefix *claims* hands any client a memory DoS.
//! The codec instead caps every `Vec::with_capacity` by what the remaining
//! input bytes could actually hold, so rejecting a hostile frame must cost
//! no more memory than the frame itself. A counting global allocator
//! verifies the bound in bytes, not just in principle. (The lib crates
//! forbid `unsafe`; this integration-test crate hosts the allocator shim,
//! following `crates/core/tests/alloc_count.rs`.)

use bytes::{BufMut, BytesMut};
use rsse_cloud::Message;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates directly to the system allocator; the counter is a
// side effect that never touches the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES_ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES_ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES_ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn bytes_allocated_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = BYTES_ALLOCATED.load(Ordering::Relaxed);
    let result = f();
    (BYTES_ALLOCATED.load(Ordering::Relaxed) - before, result)
}

/// Hostile frames: tiny inputs whose length prefixes claim enormous
/// element counts, at several nesting depths of the protocol.
fn hostile_frames() -> Vec<(&'static str, Vec<u8>)> {
    let mut frames = Vec::new();

    // FetchFiles claiming 2^61 ids in a 9-byte frame.
    let mut b = BytesMut::new();
    b.put_u8(6);
    b.put_u64(1 << 61);
    frames.push(("fetch_files_huge_count", b.to_vec()));

    // Outsource claiming 2^20 posting lists with nothing behind them.
    let mut b = BytesMut::new();
    b.put_u8(1);
    b.put_u64(1 << 20);
    frames.push(("outsource_huge_list_count", b.to_vec()));

    // Outsource with one list whose byte length lies (inner prefix).
    let mut b = BytesMut::new();
    b.put_u8(1);
    b.put_u64(1); // one rsse list
    b.put_slice(&[0u8; 20]); // label
    b.put_u32(40); // entry length
    b.put_u64(1 << 40); // claimed list bytes
    frames.push(("outsource_huge_entry_count", b.to_vec()));

    // Update with one list whose byte length lies, the same way.
    let mut b = BytesMut::new();
    b.put_u8(10);
    b.put_u64(1); // one rsse list
    b.put_slice(&[0u8; 20]); // label
    b.put_u32(40); // entry length
    b.put_u64(1 << 40); // claimed list bytes
    frames.push(("update_huge_entry_count", b.to_vec()));

    // ConjunctiveRequest claiming 2^30 trapdoors.
    let mut b = BytesMut::new();
    b.put_u8(8);
    b.put_u64(1 << 30);
    frames.push(("conjunctive_huge_trapdoor_count", b.to_vec()));

    // ConjunctiveResponse claiming 2^40 ranking entries in a 9-byte frame.
    let mut b = BytesMut::new();
    b.put_u8(9);
    b.put_u64(1 << 40); // claimed ranking entries
    frames.push(("conjunctive_response_huge_ranking", b.to_vec()));

    // ConjunctiveResponse whose single entry claims 2^40 mapped scores.
    let mut b = BytesMut::new();
    b.put_u8(9);
    b.put_u64(1); // one ranking entry
    b.put_u64(4); // file id
    b.put_u64(1 << 40); // claimed per-keyword score count
    frames.push(("conjunctive_response_huge_score_count", b.to_vec()));

    // ConjunctiveResponse whose files claim a 2^50-byte ciphertext.
    let mut b = BytesMut::new();
    b.put_u8(9);
    b.put_u64(0); // empty ranking
    b.put_u64(1); // one file
    b.put_u64(4); // file id
    b.put_u64(1 << 50); // claimed ciphertext length
    frames.push(("conjunctive_response_huge_ciphertext", b.to_vec()));

    // ConjunctiveShardQuery claiming 2^30 trapdoors.
    let mut b = BytesMut::new();
    b.put_u8(19);
    b.put_u64(1 << 30);
    frames.push(("conjunctive_shard_query_huge_trapdoor_count", b.to_vec()));

    // ConjunctiveShardReply claiming 2^40 ranking entries.
    let mut b = BytesMut::new();
    b.put_u8(20);
    b.put_u32(1); // shard id
    b.put_u64(1 << 40); // claimed ranking entries
    frames.push(("conjunctive_shard_reply_huge_ranking", b.to_vec()));

    // ConjunctiveShardReply whose single entry claims 2^40 mapped scores.
    let mut b = BytesMut::new();
    b.put_u8(20);
    b.put_u32(1); // shard id
    b.put_u64(1); // one ranking entry
    b.put_u64(4); // file id
    b.put_u64(1 << 40); // claimed per-keyword score count
    frames.push(("conjunctive_shard_reply_huge_score_count", b.to_vec()));

    // RsseResponse whose files section claims a 2^50-byte ciphertext.
    let mut b = BytesMut::new();
    b.put_u8(3);
    b.put_u64(0); // empty ranking
    b.put_u64(1); // one file
    b.put_u64(7); // file id
    b.put_u64(1 << 50); // claimed ciphertext length
    frames.push(("rsse_response_huge_ciphertext", b.to_vec()));

    // Error frame claiming a 2^40-byte detail string.
    let mut b = BytesMut::new();
    b.put_u8(12);
    b.put_u8(0); // ErrorKind::BadFrame
    b.put_u64(1 << 40);
    frames.push(("error_frame_huge_detail", b.to_vec()));

    // ShardReply claiming 2^40 ranking pairs in a 13-byte frame.
    let mut b = BytesMut::new();
    b.put_u8(14);
    b.put_u32(0); // shard id
    b.put_u64(1 << 40); // claimed ranking pairs
    frames.push(("shard_reply_huge_ranking", b.to_vec()));

    // ShardReply whose files section claims a 2^50-byte ciphertext.
    let mut b = BytesMut::new();
    b.put_u8(14);
    b.put_u32(3); // shard id
    b.put_u64(0); // empty ranking
    b.put_u64(1); // one file
    b.put_u64(9); // file id
    b.put_u64(1 << 50); // claimed ciphertext length
    frames.push(("shard_reply_huge_ciphertext", b.to_vec()));

    // BatchRequest claiming 2^40 queries in a 9-byte frame.
    let mut b = BytesMut::new();
    b.put_u8(15);
    b.put_u64(1 << 40); // claimed query count
    frames.push(("batch_request_huge_query_count", b.to_vec()));

    // BatchReply claiming 2^40 per-query results with nothing behind them.
    let mut b = BytesMut::new();
    b.put_u8(16);
    b.put_u8(0); // no shard id
    b.put_u64(1 << 40); // claimed result count
    frames.push(("batch_reply_huge_result_count", b.to_vec()));

    // BatchReply whose single result claims 2^40 ranking pairs.
    let mut b = BytesMut::new();
    b.put_u8(16);
    b.put_u8(0); // no shard id
    b.put_u64(1); // one result
    b.put_u64(1 << 40); // claimed ranking pairs
    frames.push(("batch_reply_huge_inner_ranking", b.to_vec()));

    // BatchReply whose single result's files claim a 2^50-byte ciphertext.
    let mut b = BytesMut::new();
    b.put_u8(16);
    b.put_u8(1); // shard id present
    b.put_u32(7);
    b.put_u64(1); // one result
    b.put_u64(0); // empty ranking
    b.put_u64(1); // one file
    b.put_u64(5); // file id
    b.put_u64(1 << 50); // claimed ciphertext length
    frames.push(("batch_reply_huge_ciphertext", b.to_vec()));

    // FilterReply claiming 2^40 labels (20 bytes each) in a 22-byte frame.
    let mut b = BytesMut::new();
    b.put_u8(18);
    b.put_u32(0); // shard id
    b.put_u64(9); // epoch
    b.put_u8(1); // labels present
    b.put_u64(1 << 40); // claimed label count
    frames.push(("filter_reply_huge_label_count", b.to_vec()));

    frames
}

// A single test function: the measurements must not interleave with other
// tests in this binary mutating the global counter.
#[test]
fn hostile_length_prefixes_fail_without_over_allocating() {
    // Decoding budget: the input is well under 100 bytes, so a decoder
    // whose pre-allocation is bounded by the *input* stays within a few
    // KiB of bookkeeping. A decoder that trusts the claimed counts would
    // try to reserve gigabytes and blow straight through this.
    const BUDGET_BYTES: u64 = 4096;
    for (name, frame) in hostile_frames() {
        let (allocated, outcome) =
            bytes_allocated_during(|| Message::decode(BytesMut::from(&frame[..])));
        assert!(
            outcome.is_err(),
            "{name}: hostile frame must be rejected, got {outcome:?}"
        );
        assert!(
            allocated <= BUDGET_BYTES,
            "{name}: rejecting a {}-byte frame allocated {allocated} bytes \
             (budget {BUDGET_BYTES})",
            frame.len()
        );
    }
}
