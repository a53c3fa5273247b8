//! Conjunctive multi-keyword ranked search (the §VIII extension), end to
//! end through the deployment.

use rsse::cloud::{CloudServer, Deployment, Storage};
use rsse::core::{Rsse, RsseParams};
use rsse::ir::corpus::{CorpusParams, SyntheticCorpus};
use rsse::ir::InvertedIndex;

fn setup(seed: u64) -> (SyntheticCorpus, Deployment) {
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(seed));
    let cloud = Deployment::bootstrap(
        b"conjunctive master secret",
        RsseParams::default(),
        corpus.documents(),
        &Storage::Mem,
        CloudServer::DEFAULT_CACHE_BUDGET,
    )
    .unwrap();
    (corpus, cloud)
}

#[test]
fn conjunction_returns_exactly_the_intersection() {
    let (corpus, cloud) = setup(61);
    let index = InvertedIndex::build(corpus.documents());
    let (docs, traffic) = cloud.conjunctive_search("network protocol", None).unwrap();
    assert_eq!(traffic.round_trips, 1);

    // Oracle: files containing both keywords.
    let net: std::collections::HashSet<_> = index
        .postings("network")
        .unwrap()
        .iter()
        .map(|p| p.file)
        .collect();
    let proto: std::collections::HashSet<_> = index
        .postings("protocol")
        .unwrap()
        .iter()
        .map(|p| p.file)
        .collect();
    let expected: std::collections::HashSet<_> = net.intersection(&proto).copied().collect();
    let got: std::collections::HashSet<_> = docs.iter().map(|d| d.id()).collect();
    assert_eq!(got, expected);
}

#[test]
fn conjunctive_top_k_is_a_ranking_prefix() {
    let (_, cloud) = setup(62);
    let (all, _) = cloud.conjunctive_search("network protocol", None).unwrap();
    let (top, _) = cloud
        .conjunctive_search("network protocol", Some(3))
        .unwrap();
    assert_eq!(top.len(), 3.min(all.len()));
    for (a, b) in top.iter().zip(&all) {
        assert_eq!(a.id(), b.id());
    }
}

#[test]
fn single_keyword_conjunction_equals_plain_search_set() {
    let (_, cloud) = setup(63);
    let (conj, _) = cloud.conjunctive_search("network", None).unwrap();
    let (plain, _) = cloud.rsse_search("network", None).unwrap();
    let a: std::collections::HashSet<_> = conj.iter().map(|d| d.id()).collect();
    let b: std::collections::HashSet<_> = plain.iter().map(|d| d.id()).collect();
    assert_eq!(a, b);
}

#[test]
fn disjoint_keywords_yield_empty() {
    let (_, cloud) = setup(64);
    let (docs, _) = cloud
        .conjunctive_search("network zebrawordle", None)
        .unwrap();
    // "zebrawordle" has no posting list: intersection is empty.
    assert!(docs.is_empty());
    assert!(cloud.conjunctive_search("the of", None).is_err());
}

#[test]
fn exact_rerank_agrees_with_dominance() {
    // The owner-side exact re-ranking must respect per-keyword dominance.
    let (corpus, _) = setup(65);
    let index = InvertedIndex::build(corpus.documents());
    let scheme = Rsse::new(b"conjunctive master secret", RsseParams::default());
    let enc = scheme.build_index_from(&index).unwrap();
    let opse = *enc.opse_params().unwrap();
    let t = scheme.multi_trapdoor("network protocol").unwrap();
    let hits = enc.search_conjunctive(&t, None);
    if hits.len() < 2 {
        return; // corpus too sparse for this seed — covered by unit tests
    }
    let dfs = [
        index.document_frequency("network"),
        index.document_frequency("protocol"),
    ];
    let exact = scheme
        .rerank_conjunctive(
            &["network", "protocol"],
            &hits,
            opse,
            &dfs,
            index.num_docs(),
        )
        .unwrap();
    assert_eq!(exact.len(), hits.len());
    // Scores are finite and sorted descending.
    let mut prev = f64::INFINITY;
    for (_, s) in &exact {
        assert!(s.is_finite());
        assert!(*s <= prev);
        prev = *s;
    }
}

// ---------------------------------------------------------------------------
// Equivalence suite: the conjunctive pushdown must be invisible across
// every serving configuration. One random schedule of searches and
// updates drives four deployments built from the same corpus — in-memory
// with the conjunctive cache on, cache off, the generational on-disk
// store, and a sharded scatter-gather over 1–4 shards —
// and every conjunctive ranking must be byte-identical across all of
// them: same files, same per-keyword mapped scores, same tie order, same
// truncation.
// ---------------------------------------------------------------------------

use proptest::collection::vec;
use proptest::prelude::*;
use rsse::cloud::{FileCrypter, PoolOptions, RouterOptions, ShardedDeployment};
use rsse::ir::{Document, FileId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A tiny vocabulary so random conjunctions keep intersecting the same
/// posting lists; every word survives the tokenizer.
const VOCAB: [&str; 5] = ["alpha", "beta", "gamma", "delta", "omega"];

/// Unique temp paths so parallel proptest cases never collide.
fn temp_path(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rsse_conj_eq_{tag}_{}_{n}", std::process::id()))
}

fn vocab_corpus(seed: u64, word_ids: &[Vec<usize>]) -> Vec<Document> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn conjunctive_rankings_are_byte_identical_across_backends_caches_and_shards(
        seed in any::<u64>(),
        word_ids in vec(vec(0usize..5, 1..10), 4..14),
        steps in vec((0u8..6, 0usize..5, 0usize..5, 0u32..6), 1..12),
        num_shards in 1usize..5,
    ) {
        let docs = vocab_corpus(seed, &word_ids);
        let master = seed.to_be_bytes();
        let params = RsseParams::default();

        let mem = Deployment::bootstrap(
            &master,
            params,
            &docs,
            &Storage::Mem,
            CloudServer::DEFAULT_CACHE_BUDGET,
        ).unwrap();
        let nocache = Deployment::bootstrap(&master, params, &docs, &Storage::Mem, 0).unwrap();
        let gen_dir = temp_path("gen");
        let gen = Deployment::bootstrap(
            &master,
            params,
            &docs,
            &Storage::Generational(gen_dir.clone()),
            CloudServer::DEFAULT_CACHE_BUDGET,
        ).unwrap();
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

        let scheme = Rsse::new(&master, params);
        let plain_index = InvertedIndex::build(&docs);
        let updater = scheme.updater_for(&plain_index).unwrap();
        let crypter = FileCrypter::new(&master);

        let mut next_id = 1u64 << 41;
        for &(kind, w1, w2, k) in &steps {
            let query = format!("{} {}", VOCAB[w1], VOCAB[w2]);
            if kind % 3 == 1 {
                // Grow a document holding both words: it joins the
                // intersection, and every cache layer must notice.
                let doc = Document::new(
                    FileId::new(next_id),
                    format!("{} update {next_id} {}", VOCAB[w1], VOCAB[w2]),
                );
                next_id += 1;
                let update = updater.add_document(&doc).unwrap();
                let file = crypter.encrypt(&doc);
                mem.server().apply_update(update.clone(), vec![file.clone()]);
                nocache.server().apply_update(update.clone(), vec![file.clone()]);
                gen.server().apply_update(update.clone(), vec![file.clone()]);
                let shard = partitioner.shard_of(doc.id());
                sharded.shard_server(shard).unwrap().apply_update(update, vec![file]);
                continue;
            }
            // Search both keyword orders so cache hits serve permuted
            // entries; repeat queries hit the caches filled above.
            let top_k = (k > 0).then_some(k);
            let (want, want_docs, _) = mem.conjunctive_search_ranked(&query, top_k).unwrap();
            let (got, _, _) = nocache.conjunctive_search_ranked(&query, top_k).unwrap();
            prop_assert_eq!(&got, &want, "cache-off diverged for {:?}", &query);
            let (got, _, _) = gen.conjunctive_search_ranked(&query, top_k).unwrap();
            prop_assert_eq!(&got, &want, "generational diverged for {:?}", &query);
            let (sharded_docs, outcome) = sharded.conjunctive_search(&query, top_k).unwrap();
            prop_assert!(outcome.is_complete());
            prop_assert_eq!(&outcome.ranking, &want, "sharded diverged for {:?}", &query);
            let want_ids: Vec<_> = want_docs.iter().map(Document::id).collect();
            let got_ids: Vec<_> = sharded_docs.iter().map(Document::id).collect();
            prop_assert_eq!(got_ids, want_ids, "sharded files diverged for {:?}", &query);
        }

        // Final sweep: every two-word conjunction, unlimited and
        // truncated, in both keyword orders.
        for w1 in VOCAB {
            for w2 in VOCAB {
                let query = format!("{w1} {w2}");
                for top_k in [None, Some(2)] {
                    let (want, _, _) = mem.conjunctive_search_ranked(&query, top_k).unwrap();
                    let (got, _, _) = nocache.conjunctive_search_ranked(&query, top_k).unwrap();
                    prop_assert_eq!(&got, &want, "cache-off sweep {:?}", &query);
                    let (got, _, _) = gen.conjunctive_search_ranked(&query, top_k).unwrap();
                    prop_assert_eq!(&got, &want, "generational sweep {:?}", &query);
                    let (_, outcome) = sharded.conjunctive_search(&query, top_k).unwrap();
                    prop_assert_eq!(&outcome.ranking, &want, "sharded sweep {:?}", &query);
                }
            }
        }
        sharded.shutdown();
        let _ = std::fs::remove_dir_all(&gen_dir);
    }
}

/// The server-side conjunctive cache serves hits byte-identical to the
/// miss that filled them, shares one entry across keyword orderings, and
/// is flushed by updates — observable through its hit/miss counters.
#[test]
fn conjunctive_cache_counters_track_fills_hits_and_invalidation() {
    let (_, cloud) = setup(66);
    let stats = cloud.server().conjunctive_cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 0));

    let (first, _, _) = cloud
        .conjunctive_search_ranked("network protocol", Some(5))
        .unwrap();
    let stats = cloud.server().conjunctive_cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 1), "first query fills");

    let (again, _, _) = cloud
        .conjunctive_search_ranked("network protocol", Some(5))
        .unwrap();
    assert_eq!(again, first, "a hit must be byte-identical to its fill");
    let stats = cloud.server().conjunctive_cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));

    // The reversed keyword order shares the entry, scores permuted back.
    let (swapped, _, _) = cloud
        .conjunctive_search_ranked("protocol network", Some(5))
        .unwrap();
    let stats = cloud.server().conjunctive_cache_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (2, 1),
        "order-erased key shares the entry"
    );
    let unswapped: Vec<(u64, Vec<u64>)> = swapped
        .iter()
        .map(|(id, scores)| (*id, scores.iter().copied().rev().collect()))
        .collect();
    assert_eq!(unswapped, first);

    // A smaller top_k is served as a prefix of the cached full ranking.
    let (prefix, _, _) = cloud
        .conjunctive_search_ranked("network protocol", Some(2))
        .unwrap();
    assert_eq!(prefix.len(), 2.min(first.len()));
    assert_eq!(&first[..prefix.len()], &prefix[..]);

    // An update flushes the cache: the next query misses and re-fills.
    let scheme = Rsse::new(b"conjunctive master secret", RsseParams::default());
    let docs: Vec<Document> = vec![Document::new(
        FileId::new(1 << 43),
        "network protocol freshly added".to_string(),
    )];
    let plain = InvertedIndex::build(&docs);
    let updater = scheme.updater_for(&plain).unwrap();
    let crypter = FileCrypter::new(b"conjunctive master secret");
    let update = updater.add_document(&docs[0]).unwrap();
    cloud
        .server()
        .apply_update(update, vec![crypter.encrypt(&docs[0])]);
    let (after, _, _) = cloud
        .conjunctive_search_ranked("network protocol", Some(50))
        .unwrap();
    let stats = cloud.server().conjunctive_cache_stats();
    assert_eq!(stats.misses, 2, "update invalidated the entry");
    assert!(stats.invalidations >= 1);
    assert!(
        after.iter().any(|(id, _)| *id == 1u64 << 43),
        "new member served"
    );
}
