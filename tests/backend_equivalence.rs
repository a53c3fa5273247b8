//! Backend-equivalence harness: the storage engine must be *invisible*.
//!
//! The index layer dispatches over two containers — the in-memory
//! `MemBackend` arena and the on-disk generational store (generation
//! stack + delta overlay + L0 delta flushes + *live* compaction). Both
//! hold the same OPM ciphertexts, so for random interleavings of
//! searches, score-dynamics updates, flushes, and compactions they must
//! return rankings **byte-identical** in every respect: same files, same
//! encrypted scores, same tie order, same truncation — including
//! mid-flip: a search issued between `begin_live_compact` and the
//! install must match the in-memory ranking byte-for-byte. The cloud
//! layer too — a `Deployment` warm-restarted from a generation directory
//! must match the in-memory deployment down to the traffic counters, and
//! a sharded deployment serving one store per shard must match the
//! in-memory shards — caches enabled, exactly as deployed. See DESIGN.md
//! §6.4 and §6.6.

use proptest::collection::vec;
use proptest::prelude::*;
use rsse::cloud::{
    CloudServer, Deployment, FileCrypter, Message, PoolOptions, RouterOptions, SearchMode,
    ShardedDeployment, Storage,
};
use rsse::core::{BackendKind, Rsse, RsseIndex, RsseParams};
use rsse::ir::{Document, FileId, InvertedIndex};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A tiny vocabulary so random interleavings keep hitting the same
/// posting lists — the regime where overlay merges and compactions
/// actually interleave with reads. Every word survives the tokenizer.
const VOCAB: [&str; 5] = ["alpha", "beta", "gamma", "delta", "omega"];

/// Unique temp paths so parallel proptest cases never collide on a
/// store directory.
fn temp_path(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rsse_backend_eq_{tag}_{}_{n}", std::process::id()))
}

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

fn search_ranking(server: &CloudServer, request: Message) -> Vec<(u64, u64)> {
    match server.handle(request).unwrap() {
        Message::RsseResponse { ranking, .. } => ranking,
        other => panic!("expected RsseResponse, got {other:?}"),
    }
}

// One step of a random schedule is `(kind, keyword, k)`: `kind % 3 == 0`
// searches `VOCAB[keyword]` with limit `k` (0 meaning unlimited), `== 1`
// appends a fresh document mentioning it (landing in the store's delta
// overlay), and `== 2` flushes and compacts the store then searches — so
// reads hit every overlay state: empty, populated, and freshly folded.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Core level: an index served from a generational store that keeps
    /// flushing and compacting stays byte-identical to the in-memory
    /// original under interleaved searches and updates.
    #[test]
    fn mem_and_generational_rankings_are_byte_identical(
        seed in any::<u64>(),
        word_ids in vec(vec(0usize..5, 1..10), 3..12),
        steps in vec((0u8..6, 0usize..5, 0u32..8), 1..24),
    ) {
        let docs = corpus(seed, &word_ids);
        let master = seed.to_be_bytes();
        let params = RsseParams::default();
        let scheme = Rsse::new(&master, params);
        let mut mem = scheme.build_index(&docs).unwrap();

        let gen_dir = temp_path("core_gen");
        let mut gen = mem.save_generational(&gen_dir).unwrap();
        prop_assert_eq!(mem.backend_kind(), BackendKind::Mem);
        prop_assert_eq!(gen.backend_kind(), BackendKind::Generational);

        let plain_index = InvertedIndex::build(&docs);
        let updater = scheme.updater_for(&plain_index).unwrap();
        let mut next_id = 1u64 << 40;
        for &(kind, keyword, k) in &steps {
            let word = VOCAB[keyword];
            if kind % 3 == 1 {
                let doc = Document::new(
                    FileId::new(next_id),
                    format!("{word} report number {next_id} about {word}"),
                );
                next_id += 1;
                let update = updater.add_document(&doc).unwrap();
                update.clone().apply_to(&mut mem);
                update.apply_to(&mut gen);
                continue;
            }
            if kind % 3 == 2 {
                // Flush the overlay into an L0 delta, then run a *live*
                // pass — and search in the window between begin and
                // install, where the old stack still serves. The merged
                // view must not move by a byte.
                gen.flush_updates().unwrap();
                prop_assert_eq!(gen.pending_overlay_entries(), 0);
                if let Some(job) = gen.begin_live_compact().unwrap() {
                    let mid = scheme.trapdoor(word).unwrap();
                    prop_assert_eq!(
                        gen.search(&mid, None), mem.search(&mid, None),
                        "mid-compaction ranking diverged for {}", word
                    );
                    job.run().unwrap();
                }
            }
            let top_k = (k > 0).then_some(k as usize);
            let trapdoor = scheme.trapdoor(word).unwrap();
            let want = mem.search(&trapdoor, top_k);
            prop_assert_eq!(
                gen.search(&trapdoor, top_k), want,
                "generational ranking diverged for {} (k={:?})", word, top_k
            );
        }

        // Final sweep: every keyword, unlimited and truncated, plus the
        // full exported ciphertexts and the re-saved index bytes.
        for word in VOCAB {
            let t = scheme.trapdoor(word).unwrap();
            for top_k in [None, Some(3)] {
                let want = mem.search(&t, top_k);
                prop_assert_eq!(gen.search(&t, top_k), want, "{}", word);
            }
        }
        prop_assert_eq!(gen.export_parts(), mem.export_parts());
        let mut mem_bytes = Vec::new();
        mem.save(&mut mem_bytes).unwrap();
        let mut gen_bytes = Vec::new();
        gen.save(&mut gen_bytes).unwrap();
        prop_assert_eq!(gen_bytes, mem_bytes, "an index re-saved from disk must be byte-identical");
        // The generation directory is a durable replica of the same
        // content: flush the tail overlay and reopen cold.
        gen.flush_updates().unwrap();
        drop(gen);
        let reopened = RsseIndex::open_generational(&gen_dir).unwrap();
        prop_assert_eq!(reopened.export_parts(), mem.export_parts());

        let _ = std::fs::remove_dir_all(&gen_dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cloud level: a deployment warm-restarted from a generation
    /// directory matches the in-memory deployment — rankings *and*
    /// traffic counters — with the ranking cache enabled on both, across
    /// interleaved updates and live compactions.
    #[test]
    fn generational_deployments_match_mem_deployment_rankings_and_traffic(
        seed in any::<u64>(),
        word_ids in vec(vec(0usize..5, 1..10), 3..12),
        steps in vec((0u8..6, 0usize..5, 0u32..8), 1..16),
    ) {
        let docs = corpus(seed, &word_ids);
        let master = seed.to_be_bytes();
        let params = RsseParams::default();

        let mem = Deployment::bootstrap(
            &master,
            params,
            &docs,
            &Storage::Mem,
            CloudServer::DEFAULT_CACHE_BUDGET,
        ).unwrap();
        // A generational deployment: outsource onto the generation store,
        // shut it down, then warm-restart from the directory — no
        // Outsource message, no index rebuild; both generational boot
        // paths in one arm.
        let gen_dir = temp_path("deploy_gen");
        drop(Deployment::bootstrap(
            &master,
            params,
            &docs,
            &Storage::Generational(gen_dir.clone()),
            CloudServer::DEFAULT_CACHE_BUDGET,
        ).unwrap());
        let gen = Deployment::reopen(
            &master,
            params,
            &docs,
            &gen_dir,
            CloudServer::DEFAULT_CACHE_BUDGET,
        ).unwrap();
        prop_assert_eq!(gen.setup_traffic, Default::default(), "warm restart crosses no wire");

        let scheme = Rsse::new(&master, params);
        let plain_index = InvertedIndex::build(&docs);
        let updater = scheme.updater_for(&plain_index).unwrap();
        let crypter = FileCrypter::new(&master);

        let mut next_id = 1u64 << 42;
        for &(kind, keyword, k) in &steps {
            let word = VOCAB[keyword];
            if kind % 3 == 1 {
                let doc = Document::new(
                    FileId::new(next_id),
                    format!("{word} segment deployment update {next_id}"),
                );
                next_id += 1;
                let update = updater.add_document(&doc).unwrap();
                let file = crypter.encrypt(&doc);
                mem.server().apply_update(update.clone(), vec![file.clone()]);
                gen.server().apply_update(update, vec![file]);
                continue;
            }
            if kind % 3 == 2 {
                // Compaction must be invisible to every later search; the
                // mem server reports it as a no-op.
                prop_assert!(mem.server().compact_index_live().unwrap().is_none());
                // The generational server compacts *live* — foreground on
                // even kinds, on a background thread (joined, so the flip
                // lands before the next comparison) on odd ones.
                if kind % 2 == 0 {
                    gen.server().compact_index_live().unwrap();
                } else if let Some(merge) = gen.server().compact_index_background().unwrap() {
                    merge.join().unwrap().unwrap();
                }
            }
            let top_k = (k > 0).then_some(k);
            let want = search_ranking(
                &mem.server(),
                mem.user().search_request(word, top_k, SearchMode::Rsse).unwrap(),
            );
            let got = search_ranking(
                &gen.server(),
                gen.user().search_request(word, top_k, SearchMode::Rsse).unwrap(),
            );
            prop_assert_eq!(&got, &want, "gen ranking diverged for {}", word);
            // The full metered protocol run agrees down to the byte
            // counts: identical frames up, identical frames down.
            let (_, mem_traffic) = mem.rsse_search(word, top_k).unwrap();
            let (_, gen_traffic) = gen.rsse_search(word, top_k).unwrap();
            prop_assert_eq!(mem_traffic, gen_traffic, "generational traffic diverged for {}", word);
        }

        let _ = std::fs::remove_dir_all(&gen_dir);
    }
}

proptest! {
    // Each case boots two full sharded deployments with worker pools;
    // keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Sharded level: one generational store per shard must
    /// scatter-gather to the same merged rankings as in-memory shards,
    /// across lockstep updates routed to the owning shard and per-shard
    /// live compactions.
    #[test]
    fn sharded_generational_backends_match_mem_shards(
        seed in any::<u64>(),
        word_ids in vec(vec(0usize..5, 1..10), 3..12),
        num_shards in 1usize..=3,
        steps in vec((0u8..6, 0usize..5, 0u32..8), 1..10),
    ) {
        let docs = corpus(seed, &word_ids);
        let master = seed.to_be_bytes();
        let params = RsseParams::default();
        let options = PoolOptions::new(1, 16);

        let mem = ShardedDeployment::bootstrap(
            &master,
            params,
            &docs,
            num_shards,
            &Storage::Mem,
            options.clone(),
            RouterOptions::default(),
        ).unwrap();
        let gen_dir = temp_path("shards_gen");
        let gens = ShardedDeployment::bootstrap(
            &master,
            params,
            &docs,
            num_shards,
            &Storage::Generational(gen_dir.clone()),
            options,
            RouterOptions::default(),
        ).unwrap();
        let partitioner = mem.partitioner();

        let scheme = Rsse::new(&master, params);
        let plain_index = InvertedIndex::build(&docs);
        let updater = scheme.updater_for(&plain_index).unwrap();
        let crypter = FileCrypter::new(&master);

        let mut next_id = 1u64 << 43;
        for &(kind, keyword, k) in &steps {
            let word = VOCAB[keyword];
            if kind % 3 == 1 {
                let doc = Document::new(
                    FileId::new(next_id),
                    format!("{word} shard segment update {next_id}"),
                );
                next_id += 1;
                let update = updater.add_document(&doc).unwrap();
                let file = crypter.encrypt(&doc);
                let shard = partitioner.shard_of(doc.id());
                mem.shard_server(shard).unwrap().apply_update(update.clone(), vec![file.clone()]);
                gens.shard_server(shard).unwrap().apply_update(update, vec![file]);
                continue;
            }
            if kind % 3 == 2 {
                for shard in 0..num_shards {
                    // Live per-shard compaction under a serving pool.
                    gens.shard_server(shard).unwrap().compact_index_live().unwrap();
                }
            }
            let top_k = (k > 0).then_some(k);
            let (_, want) = mem.rsse_search(word, top_k).unwrap();
            prop_assert!(want.is_complete());
            let (_, got) = gens.rsse_search(word, top_k).unwrap();
            prop_assert!(got.is_complete());
            prop_assert_eq!(
                &got.ranking, &want.ranking,
                "sharded generational ranking diverged for {}", word
            );
            // Batched scatter agrees too (the cached path per shard).
            let (_, batch) = gens.rsse_search_batch(&[word], top_k).unwrap();
            prop_assert_eq!(
                &batch.queries[0].0, &want.ranking,
                "batched generational diverged for {}", word
            );
        }
        mem.shutdown();
        gens.shutdown();
        let _ = std::fs::remove_dir_all(&gen_dir);
    }
}
