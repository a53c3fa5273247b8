#!/usr/bin/env bash
# Pre-PR gate: everything CI runs, in one command.
#
#   $ scripts/check.sh
#
# Runs from the repo root regardless of the invocation directory.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# The end-to-end benchmark is its own workspace and builds against this
# repository's public API by path, so a refactor that breaks the API it
# calls fails here rather than at the next benchmark run.
echo "==> cargo build --release --manifest-path e2ebench/Cargo.toml"
cargo build --release --manifest-path e2ebench/Cargo.toml

echo "==> cargo test -q"
cargo test -q

# The serving-path hardening suites, named explicitly so a filtered local
# run cannot silently skip them: codec fuzzing (decode never panics, never
# over-allocates) and pool fault injection (contained panics, deadlines,
# overload shedding).
echo "==> cargo test -q -p rsse-cloud --test codec_fuzz --test decode_alloc"
cargo test -q -p rsse-cloud --test codec_fuzz --test decode_alloc

echo "==> cargo test -q --test pool_faults"
cargo test -q --test pool_faults

# The sharding layer's tentpole guarantees: scatter-gather ranking is
# byte-identical to the single-server search for shard counts 1-8, and
# tuned routing (label-filter pruning, merged-result cache, replica
# reads) is byte-identical to the full scatter under interleaved updates.
echo "==> cargo test -q --test shard_equivalence"
cargo test -q --test shard_equivalence

# The ranking cache's tentpole guarantee: cache on == cache off, byte for
# byte, under interleaved updates (sharded path included) — plus the
# persistence format's lossless round-trip and hostile-file rejection.
echo "==> cargo test -q --test cache_coherence"
cargo test -q --test cache_coherence

# The conjunctive serving path's tentpole guarantee: the intersection
# pushdown returns byte-identical rankings across the mem and
# generational backends, cache on vs off, and sharded vs single-node,
# under random search/update interleavings and both keyword orders.
echo "==> cargo test -q --test conjunctive"
cargo test -q --test conjunctive

echo "==> cargo test -q -p rsse-core --test persist_roundtrip"
cargo test -q -p rsse-core --test persist_roundtrip

# The storage engine's tentpole guarantee: mem and the generational
# on-disk store return byte-identical rankings under interleaved
# searches, updates, flushes, and live compactions — cached,
# warm-restarted, and sharded deployments included.
echo "==> cargo test -q --test backend_equivalence"
cargo test -q --test backend_equivalence

# The storage engine's crash-consistency guarantee: the writer is killed
# at every fsync/rename boundary of a create/flush/compact plan (25
# boundaries), and each reopened store must land on exactly the pre-op
# or post-op rankings — never a torn state — and keep accepting updates.
# Also pins that store creation fsyncs the new directory's parent before
# any file, the typed double-compact error, epoch-based generation
# reclaim, and that searches keep being served while a live compaction
# is stalled mid-merge.
echo "==> cargo test -q -p rsse-core --test crash_torture"
cargo test -q -p rsse-core --test crash_torture

# The transport layer's tentpole guarantees: the real TCP event loop and
# the simulated channel transport produce byte-identical reply frames,
# rankings, and traffic reports for the same pipelined request log; out-
# of-order completions re-pair by sequence id; a slow reader stalls only
# its own connection; overload sheds the canonical frame over TCP too.
echo "==> cargo test -q -p rsse-cloud --test transport_equivalence --test tcp_transport"
cargo test -q -p rsse-cloud --test transport_equivalence --test tcp_transport

# 512-connection loopback soak: 16 client threads, 4-deep pipelines of
# mixed search/fetch frames per connection, every reply re-paired by
# sequence id and type-checked — exits nonzero on any dropped, garbled,
# or misrouted frame. The full (non-smoke) soak runs more rounds.
echo "==> tcp_soak --smoke"
cargo run --release -q -p rsse-bench --bin tcp_soak -- --smoke

# Smoke the throughput harness end to end (tiny counts, no perf gates):
# boots every scenario including the Zipf hot_keywords cache pair, the
# batched cpu path, the generational churn pair (live compactor beside
# the pool), and the tuned sharded scenario (pruning + merged cache +
# replicas under churn), and checks the functional cache invariants.
# The full (non-smoke) run additionally gates sharded 8-shard
# throughput at >= 1.0x single-shard on the churny Zipf workload, the
# churn-compact leg at >= 0.8x the no-compaction baseline, and loopback
# TCP at 64 pipelined connections at >= 0.7x the channel transport,
# voiding the published numbers on failure.
echo "==> throughput --smoke"
cargo run --release -q -p rsse-bench --bin throughput -- --smoke

echo "==> cargo clippy --workspace --all-targets --release -- -D warnings"
cargo clippy --workspace --all-targets --release -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

# API docs: a stale or private intra-doc link fails here rather than
# rotting silently when an item it names is renamed or deleted.
echo "==> cargo doc --no-deps --workspace (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> all checks passed"
