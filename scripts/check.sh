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

# Its own tests drive all four workloads and check every reply, so a
# change that still compiles but breaks a frame the benchmark sends fails
# here too.
echo "==> cargo test -q --release --manifest-path e2ebench/Cargo.toml"
cargo test -q --release --manifest-path e2ebench/Cargo.toml

# Every crate's tests, not only the root package's: the serving layer's
# unit tests and each crate's property suites run nowhere else in this
# gate.
echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The core index's search-path pins, named explicitly so a filtered local
# run cannot silently skip them: a search allocates a constant number of
# times whatever its list's length (alloc_count), and the resident lists
# rank byte-identically to a per-entry-boxed reference index, before and
# after score-dynamics appends (store_equivalence).
echo "==> cargo test -q -p rsse-core --test alloc_count --test store_equivalence"
cargo test -q -p rsse-core --test alloc_count --test store_equivalence

# The serving-path hardening suites, named explicitly so a filtered local
# run cannot silently skip them: codec fuzzing (decode never panics, never
# over-allocates) and pool fault injection (contained panics, deadlines,
# overload shedding).
echo "==> cargo test -q -p rsse-cloud --test codec_fuzz --test decode_alloc"
cargo test -q -p rsse-cloud --test codec_fuzz --test decode_alloc

# The codec's unit tests, golden frames included: the exact bytes and
# wire_len of every sample frame, so a field order changed the same way
# in encode and decode still fails.
echo "==> cargo test -q -p rsse-cloud --lib codec::"
cargo test -q -p rsse-cloud --lib codec::

# The RSSE entry layout's oracle tests, named explicitly so a filtered
# local run cannot silently skip them: `seal_entry` equals AES-CTR under
# the nonce widened to `nonce ‖ 0^64` with the zero half left out of the
# header, `seal_entries` (the builder's two entries per kernel call)
# equals `seal_entry` one at a time, `real_entries` returns exactly the
# sealed pairs in order, and random strings, entries under another key
# and 40-byte entries of the earlier layout are all dropped.
echo "==> cargo test -q -p rsse-core --lib entry::"
cargo test -q -p rsse-core --lib entry::

# The file format's unit tests, named explicitly so a filtered local run
# cannot silently skip them: the exact bytes of one tiny saved index
# (so a field order changed alike in writer and reader still fails),
# directory records that tile the body, RSSEIDX1 refused as BadMagic,
# RSSEIDX2 lists read flat once their length prefixes say 32, a list of
# another entry length refused at open, and a list's parts joined in
# generation order.
echo "==> cargo test -q -p rsse-core --lib -- persist:: segment::"
cargo test -q -p rsse-core --lib -- persist:: segment::

# The byte pins: the coin tape's stream, a list's padding read off it,
# OPM values over every level, one sealed entry, the exact lists both
# index builders write on a fixed corpus and seed, whole and cut to
# their real entries, and the sharded Setup's per-shard Outsource frames
# and label filters, with one shard equal to the unsharded Setup frame
# for frame. Every coin is ChaCha20 keystream: entry nonces and padding
# off each list's tape under an HMAC-SHA-256 seed of its transcript, OPM
# coins off the OPSE tree's tapes, XChaCha20 at each node's or choice's
# address. An RSSE entry is 32 bytes: an 8-byte nonce, then the AES-CTR
# body from counter block `nonce ‖ 0^64`. So a speed-up of the tapes,
# the OPM walk, the AES kernel, the build or its partition that moves
# one ciphertext byte fails here.
echo "==> cargo test -q --test byte_pins"
cargo test -q --test byte_pins

# The AES-128 kernel and CTR mode against the FIPS-197 and SP 800-38A
# vectors and the byte-wise reference cipher kept in its tests, the
# ChaCha20 block function against the RFC 8439 vectors, HChaCha20
# against draft-irtf-cfrg-xchacha-03's, and the coin tapes against that
# keystream: under an HMAC seed (a list's nonces and padding) and under
# the HChaCha20 subkey at an address (the OPSE tree's coins). Every real
# entry and file body goes through the AES kernel; every OPM coin, nonce
# and padding byte through ChaCha20.
echo "==> cargo test -q -p rsse-crypto"
cargo test -q -p rsse-crypto

# The OPSE tree's contract, named explicitly so a filtered local run
# cannot silently skip it: order preservation, buckets that partition
# the range, decryption inverting encryption, a memoized tree equal to
# an uncached one (buckets and ciphertexts over all 128 levels and four
# file ids), coin addresses that never collide, and the OPSE/OPM
# property tests.
echo "==> cargo test -q -p rsse-opse"
cargo test -q -p rsse-opse

echo "==> cargo test -q --test pool_faults"
cargo test -q --test pool_faults

# The sharding layer's tentpole guarantees: scatter-gather ranking is
# byte-identical to the single-server search for shard counts 1-8, and
# tuned routing (label-filter pruning, merged-result cache, replica
# reads) is byte-identical to the full scatter under interleaved updates.
echo "==> cargo test -q --test shard_equivalence"
cargo test -q --test shard_equivalence

# The ranking cache's tentpole guarantee: cache on == cache off, byte for
# byte, under interleaved updates (sharded path included).
echo "==> cargo test -q --test cache_coherence"
cargo test -q --test cache_coherence

# The conjunctive serving path's tentpole guarantee: the intersection
# pushdown returns byte-identical rankings across the mem and
# generational backends, cache on vs off, and sharded vs single-node,
# under random search/update interleavings and both keyword orders.
echo "==> cargo test -q --test conjunctive"
cargo test -q --test conjunctive

# The persistence format's lossless round-trip and hostile-file
# rejection. An RSSEIDX3 file holds each posting list as one run of
# 32-byte entries with no per-entry length; the round-trip covers lists
# whose entry counts differ from list to list, and any other entry
# length is refused at every door of the index. Hostile files are
# refused by the one reader through both load and open_generational —
# never a panic or a partial load. RSSEIDX2 files still open, rank alike
# and upgrade to v3 on flush and compaction (a v2 list whose length
# prefixes disagree is a typed error from load, export, save and the
# server's search); RSSEIDX1 files are refused as BadMagic. A generation
# cut short under a live store is a typed error from export, save and
# the server's search, never an empty list.
echo "==> cargo test -q -p rsse-core --test persist_roundtrip"
cargo test -q -p rsse-core --test persist_roundtrip

# The index's one entry length, named explicitly so a filtered local run
# cannot silently skip it: a list of 40-byte entries beside one of the
# scheme's is refused as MalformedList naming it, with nothing changed
# and no store written, at every door a list enters an index by —
# from_parts, append_entries, load (RSSEIDX3 and RSSEIDX2 files written
# byte by byte), open_generational, boot, reopen and an Update frame.
# Beside it, every search arm of a server whose base generation is cut
# short answers an error frame, never an empty ranking, and fills no
# cache.
echo "==> cargo test -q --test failure_injection -- every_door_refuses_a_list_of_another_entry_length searches_over_a_generation_cut_short_answer_an_error"
cargo test -q --test failure_injection -- every_door_refuses_a_list_of_another_entry_length searches_over_a_generation_cut_short_answer_an_error

# The storage engine's tentpole guarantee: an index with and without a
# generational on-disk store returns byte-identical rankings under
# interleaved searches, updates, flushes, and live compactions — cached,
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
