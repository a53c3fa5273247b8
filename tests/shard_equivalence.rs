//! Shard-equivalence harness: the sharding layer's tentpole guarantee,
//! pinned property-based.
//!
//! For random corpora, keywords, result limits, and shard counts 1–8, the
//! sharded scatter-gather deployment must return a ranking
//! **byte-identical** to the single-server `search` under the same master
//! seed — same OPM ciphertexts, same tie-breaking, same truncation. This
//! holds because the owner partitions the *globally built* encrypted
//! index (per-`(keyword, file)` OPM seeding survives the split) and the
//! router's k-way merge reproduces `RankedResult`'s total order exactly;
//! see `crates/cloud/src/shard.rs` and DESIGN.md §6.2.

use proptest::collection::vec;
use proptest::prelude::*;
use rsse::cloud::{FileCrypter, PoolOptions, RouterOptions, ShardedDeployment, Storage};
use rsse::core::{Rsse, RsseParams};
use rsse::ir::{Document, FileId, InvertedIndex};

/// A tiny vocabulary, so random corpora collide on keywords and tie on
/// term frequencies — the regime where merge tie-breaking can actually go
/// wrong. Every word survives the tokenizer (3+ letters, no stop words).
const VOCAB: [&str; 6] = ["alpha", "beta", "gamma", "delta", "omega", "sigma"];

/// Documents with sparse, arbitrary-looking file ids (to exercise the
/// partitioner's hash, not just small consecutive ids) over `VOCAB`.
fn corpus(seed: u64, word_ids: &[Vec<usize>]) -> Vec<Document> {
    word_ids
        .iter()
        .enumerate()
        .map(|(i, ids)| {
            let text = ids.iter().map(|&w| VOCAB[w]).collect::<Vec<_>>().join(" ");
            // Odd multiplier: distinct ids for distinct i, scattered by seed.
            let id = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            Document::new(FileId::new(id), text)
        })
        .collect()
}

proptest! {
    // Each case boots up to 8 real worker pools; keep the case count
    // modest and the corpora small.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sharded scatter-gather ranking == single-server ranking, byte for
    /// byte, for shard counts 1–8.
    #[test]
    fn sharded_ranking_is_byte_identical_to_single_server(
        seed in any::<u64>(),
        word_ids in vec(vec(0usize..6, 1..12), 3..16),
        num_shards in 1usize..=8,
        keyword in 0usize..6,
        raw_k in 0u32..21,
    ) {
        // The vendored proptest shim has no Option strategy; fold the
        // "no limit" case into the top of the integer range instead.
        let k = (raw_k < 20).then_some(raw_k);
        let docs = corpus(seed, &word_ids);

        // Reference: the unsharded index searched directly.
        let scheme = Rsse::new(&seed.to_be_bytes(), RsseParams::default());
        let single = scheme.build_index(&docs).unwrap();
        let trapdoor = scheme.trapdoor(VOCAB[keyword]).unwrap();
        let reference = single.search(&trapdoor, k.map(|k| k as usize));

        // Same master seed, same corpus, partitioned across real pools.
        let cloud = ShardedDeployment::bootstrap(
            &seed.to_be_bytes(),
            RsseParams::default(),
            &docs,
            num_shards,
            &Storage::Mem,
            PoolOptions::new(1, 16),
            RouterOptions::default(),
        ).unwrap();
        let (ranked_docs, outcome) = cloud.rsse_search(VOCAB[keyword], k).unwrap();

        // Byte-identical ranking: file ids, OPM ciphertexts, tie order.
        prop_assert_eq!(&outcome.ranking, &reference);
        // The files ride along in exactly the merged rank order.
        let got_ids: Vec<u64> = ranked_docs.iter().map(|d| d.id().as_u64()).collect();
        let want_ids: Vec<u64> = reference.iter().map(|r| r.file.as_u64()).collect();
        prop_assert_eq!(got_ids, want_ids);
        // No degradation on a healthy deployment, and every shard metered.
        prop_assert!(outcome.is_complete());
        prop_assert_eq!(outcome.shards_ok as usize, num_shards);
        prop_assert_eq!(outcome.traffic.shard_legs as usize, num_shards);
        prop_assert_eq!(outcome.traffic.round_trips as usize, num_shards);
        prop_assert_eq!(outcome.traffic.error_frames, 0);

        // Scatter-gather is deterministic: a second query returns the same
        // bytes (worker scheduling must not leak into results).
        let (_, again) = cloud.rsse_search(VOCAB[keyword], k).unwrap();
        prop_assert_eq!(&again.ranking, &reference);

        cloud.shutdown();
    }
}

proptest! {
    // Each case boots two real deployments (one with replica pools); keep
    // the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Routing features on (label-filter pruning, merged-result cache,
    /// replica reads) == routing features off, byte for byte, across
    /// random search/update interleavings — including the windows where
    /// filters and the merged cache go stale mid-run.
    #[test]
    fn tuned_routing_is_byte_identical_under_interleaved_updates(
        seed in any::<u64>(),
        word_ids in vec(vec(0usize..6, 1..10), 3..12),
        num_shards in 1usize..=4,
        steps in vec((0u8..4, 0usize..6, 0u32..8), 1..16),
    ) {
        let docs = corpus(seed, &word_ids);
        let master = seed.to_be_bytes();
        let params = RsseParams::default();

        // Reference: the same corpus and master seed behind a plain
        // full-scatter router (all features off).
        let plain = ShardedDeployment::bootstrap(
            &master,
            params,
            &docs,
            num_shards,
            &Storage::Mem,
            PoolOptions::new(1, 16),
            RouterOptions::default(),
        ).unwrap();
        let tuned = ShardedDeployment::bootstrap(
            &master,
            params,
            &docs,
            num_shards,
            &Storage::Mem,
            PoolOptions::new(1, 16),
            RouterOptions::new().with_pruning().with_merged_cache(1 << 20).with_replicas(2),
        ).unwrap();
        let partitioner = tuned.partitioner();

        // Owner-side update machinery, shared: the same IndexUpdate
        // (cloned) lands on both deployments' owning shard.
        let scheme = Rsse::new(&master, params);
        let plain_index = InvertedIndex::build(&docs);
        let updater = scheme.updater_for(&plain_index).unwrap();
        let crypter = FileCrypter::new(&master);

        let mut next_id = 1u64 << 42;
        for &(kind, keyword, k) in &steps {
            let word = VOCAB[keyword];
            if kind % 2 == 0 {
                let top_k = (k > 0).then_some(k);
                let (_, want) = plain.rsse_search(word, top_k).unwrap();
                // Twice: the second tuned scatter may be a merged-cache
                // hit and/or prune differently — same bytes either way.
                for round in 0..2 {
                    let (_, got) = tuned.rsse_search(word, top_k).unwrap();
                    prop_assert!(got.is_complete());
                    prop_assert_eq!(
                        &got.ranking, &want.ranking,
                        "tuned ranking diverged for {} (round {})", word, round
                    );
                    // Every shard is accounted for: answered, pruned, or
                    // served from the merged cache (zero legs).
                    let legs = got.traffic.shard_legs + got.traffic.pruned_legs;
                    prop_assert!(
                        legs as usize == num_shards || legs == 0,
                        "unaccounted legs: {:?}", got.traffic
                    );
                }
            } else {
                let doc = Document::new(
                    FileId::new(next_id),
                    format!("{word} routed update {next_id}"),
                );
                next_id += 1;
                let update = updater.add_document(&doc).unwrap();
                let file = crypter.encrypt(&doc);
                let shard = partitioner.shard_of(doc.id());
                tuned.shard_server(shard).unwrap()
                    .apply_update(update.clone(), vec![file.clone()]);
                plain.shard_server(shard).unwrap()
                    .apply_update(update, vec![file]);
            }
        }

        // Final sweep: every keyword, unlimited — catches stale filter
        // or cache state the random schedule filled but never re-read.
        for word in VOCAB {
            let (_, want) = plain.rsse_search(word, None).unwrap();
            let (_, got) = tuned.rsse_search(word, None).unwrap();
            prop_assert_eq!(
                &got.ranking, &want.ranking,
                "final tuned ranking diverged for {}", word
            );
        }

        plain.shutdown();
        tuned.shutdown();
    }
}
