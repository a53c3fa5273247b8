//! Cache-coherence harness: the ranking cache must be *invisible* except
//! in the serving-cost counters.
//!
//! For random interleavings of searches and live index updates, a server
//! with the hot-keyword ranking cache enabled must return rankings
//! **byte-identical** to a cache-disabled server over the same corpus and
//! master seed — same OPM ciphertexts, same tie order, same truncation —
//! no matter how the interleaving lines up cache fills against
//! invalidations. The sharded deployment (whose shard servers cache by
//! default) is held to the same standard against an uncached single-index
//! reference, so the `shard_equivalence` guarantee survives caching; and
//! batched frames must agree with their per-keyword equivalents. See
//! `crates/cloud/src/cache.rs` and DESIGN.md §6.3.

use proptest::collection::vec;
use proptest::prelude::*;
use rsse::cloud::{
    CloudServer, Deployment, FileCrypter, Message, PoolOptions, RouterOptions, SearchMode,
    ShardedDeployment, Storage,
};
use rsse::core::{Rsse, RsseParams};
use rsse::ir::{Document, FileId, InvertedIndex};

/// A tiny vocabulary so random interleavings keep hitting the same
/// posting lists — the regime where a stale cache entry would actually
/// get served. Every word survives the tokenizer.
const VOCAB: [&str; 5] = ["alpha", "beta", "gamma", "delta", "omega"];

fn corpus(seed: u64, word_ids: &[Vec<usize>]) -> Vec<Document> {
    word_ids
        .iter()
        .enumerate()
        .map(|(i, ids)| {
            let text = ids.iter().map(|&w| VOCAB[w]).collect::<Vec<_>>().join(" ");
            let id = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            Document::new(FileId::new(id), text)
        })
        .collect()
}

// One step of a random schedule is `(kind, keyword, k)`: even `kind`
// searches `VOCAB[keyword]` with limit `k` (0 meaning unlimited); odd
// `kind` adds a fresh document mentioning `VOCAB[keyword]`, which must
// invalidate that keyword's cached ranking.

fn search_ranking(server: &rsse::cloud::CloudServer, request: Message) -> Vec<(u64, u64)> {
    match server.handle(request).unwrap() {
        Message::RsseResponse { ranking, .. } => ranking,
        other => panic!("expected RsseResponse, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random search/update interleavings: cache-on == cache-off, byte
    /// for byte, at every step.
    #[test]
    fn cached_rankings_match_uncached_under_interleaved_updates(
        seed in any::<u64>(),
        word_ids in vec(vec(0usize..5, 1..10), 3..12),
        steps in vec((0u8..4, 0usize..5, 0u32..8), 1..24),
    ) {
        let docs = corpus(seed, &word_ids);
        let master = seed.to_be_bytes();
        let params = RsseParams::default();

        let cached = Deployment::bootstrap(
            &master,
            params,
            &docs,
            &Storage::Mem,
            CloudServer::DEFAULT_CACHE_BUDGET,
        ).unwrap();
        let plain = Deployment::bootstrap(&master, params, &docs, &Storage::Mem, 0).unwrap();

        // Owner-side update machinery, shared by both servers: the *same*
        // IndexUpdate (cloned) lands on each, so any divergence in what a
        // search returns is the cache's fault alone.
        let scheme = Rsse::new(&master, params);
        let plain_index = InvertedIndex::build(&docs);
        let updater = scheme.updater_for(&plain_index).unwrap();
        let crypter = FileCrypter::new(&master);

        let mut next_id = 1u64 << 40;
        for &(kind, keyword, k) in &steps {
            let word = VOCAB[keyword];
            if kind % 2 == 0 {
                let top_k = (k > 0).then_some(k);
                let want = search_ranking(
                    &plain.server(),
                    plain.user().search_request(word, top_k, SearchMode::Rsse).unwrap(),
                );
                let got = search_ranking(
                    &cached.server(),
                    cached.user().search_request(word, top_k, SearchMode::Rsse).unwrap(),
                );
                prop_assert_eq!(got, want, "cached ranking diverged for {}", word);
            } else {
                let doc = Document::new(
                    FileId::new(next_id),
                    format!("{word} report number {next_id} about {word}"),
                );
                next_id += 1;
                let update = updater.add_document(&doc).unwrap();
                let file = crypter.encrypt(&doc);
                cached.server().apply_update(update.clone(), vec![file.clone()]);
                plain.server().apply_update(update, vec![file]);
            }
        }

        // Final sweep: every keyword, unlimited — catches a stale entry
        // the random schedule filled but never re-read.
        for word in VOCAB {
            let want = search_ranking(
                &plain.server(),
                plain.user().search_request(word, None, SearchMode::Rsse).unwrap(),
            );
            let got = search_ranking(
                &cached.server(),
                cached.user().search_request(word, None, SearchMode::Rsse).unwrap(),
            );
            prop_assert_eq!(got, want, "final ranking diverged for {}", word);

            // Batched == individual on the live, updated index.
            let batch = cached.user().batch_search_request(&[word, word], None).unwrap();
            let Message::BatchReply { results, .. } = cached.server().handle(batch).unwrap()
            else { panic!("expected BatchReply") };
            prop_assert_eq!(results.len(), 2);
            for (ranking, _) in &results {
                prop_assert_eq!(ranking, &want, "batched ranking diverged for {}", word);
            }
        }

        // The disabled cache must stay silent; the enabled one must have
        // actually been exercised by the sweep above.
        let off = plain.server().cache_stats();
        prop_assert_eq!(off.hits + off.misses, 0);
        let on = cached.server().cache_stats();
        prop_assert!(on.hits > 0, "sweep re-reads must hit: {:?}", on);
    }
}

proptest! {
    // Each case boots real worker pools; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sharded deployment with per-shard caches vs. an uncached single
    /// index, across interleaved updates routed to the owning shard.
    #[test]
    fn sharded_caching_preserves_byte_identical_rankings(
        seed in any::<u64>(),
        word_ids in vec(vec(0usize..5, 1..10), 3..12),
        num_shards in 1usize..=4,
        steps in vec((0u8..4, 0usize..5, 0u32..8), 1..12),
    ) {
        let docs = corpus(seed, &word_ids);
        let master = seed.to_be_bytes();
        let params = RsseParams::default();

        let sharded = ShardedDeployment::bootstrap(
            &master,
            params,
            &docs,
            num_shards,
            &Storage::Mem,
            PoolOptions::new(1, 16),
            RouterOptions::default(),
        ).unwrap();
        let partitioner = sharded.partitioner();

        // Reference: the unsharded, uncached index, updated in lockstep.
        let scheme = Rsse::new(&master, params);
        let mut reference = scheme.build_index(&docs).unwrap();
        let plain_index = InvertedIndex::build(&docs);
        let updater = scheme.updater_for(&plain_index).unwrap();
        let crypter = FileCrypter::new(&master);

        let mut next_id = 1u64 << 41;
        for &(kind, keyword, k) in &steps {
            let word = VOCAB[keyword];
            if kind % 2 == 0 {
                let top_k = (k > 0).then_some(k);
                let trapdoor = scheme.trapdoor(word).unwrap();
                let want = reference.search(&trapdoor, top_k.map(|k| k as usize));
                // Twice: the second scatter is served from shard caches.
                for _ in 0..2 {
                    let (_, outcome) = sharded.rsse_search(word, top_k).unwrap();
                    prop_assert!(outcome.is_complete());
                    prop_assert_eq!(&outcome.ranking, &want, "shard ranking diverged for {}", word);
                }
                // Batched scatter agrees with the dedicated scatters.
                let (_, batch) = sharded.rsse_search_batch(&[word], top_k).unwrap();
                prop_assert_eq!(&batch.queries[0].0, &want, "batched shard ranking diverged");
            } else {
                // A new document lives entirely on shard_of(id): every
                // posting entry is partitioned by file id.
                let doc = Document::new(
                    FileId::new(next_id),
                    format!("{word} shard update {next_id}"),
                );
                next_id += 1;
                let update = updater.add_document(&doc).unwrap();
                update.clone().apply_to(&mut reference);
                let shard = partitioner.shard_of(doc.id());
                let server = sharded.shard_server(shard).unwrap();
                server.apply_update(update, vec![crypter.encrypt(&doc)]);
            }
        }
        sharded.shutdown();
    }
}

/// A label repeated within one batch frame is one cold fill: the ranking
/// cache and the audit counters both count one miss for it, the frame's
/// other copies are served from that fill, and a second frame hits.
#[test]
fn repeated_batch_labels_count_one_cache_miss() {
    let docs = corpus(7, &[vec![0, 1], vec![0, 2], vec![1, 3, 4]]);
    let deployment = Deployment::bootstrap(
        b"batch misses",
        RsseParams::default(),
        &docs,
        &Storage::Mem,
        CloudServer::DEFAULT_CACHE_BUDGET,
    )
    .unwrap();
    let server = deployment.server();
    for round in 1..=2 {
        let batch = deployment
            .user()
            .batch_search_request(&["alpha", "alpha", "alpha"], None)
            .unwrap();
        let Message::BatchReply { results, .. } = server.handle(batch).unwrap() else {
            panic!("expected BatchReply")
        };
        assert_eq!(results.len(), 3);
        assert!(!results[0].0.is_empty());
        assert!(results.iter().all(|(ranking, _)| ranking == &results[0].0));
        let cache = server.cache_stats();
        let report = server.serving_report();
        assert_eq!(cache.misses, 1, "round {round}: {cache:?}");
        assert_eq!(report.cache_misses, 1, "round {round}: {report:?}");
        assert_eq!(report.cache_hits, 3 * round - 1, "round {round}");
        assert!(cache.misses - cache.refills <= 1, "one distinct key");
    }
}
