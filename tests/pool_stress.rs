//! Stress test for the worker-pool server loop: many client threads
//! hammering a 4-worker pool with a mix of searches and §VII score-dynamics
//! updates, verifying that every request gets a reply (none lost), that the
//! pool shuts down cleanly, and that the per-worker served counts account
//! for exactly the requests issued.

use rsse::cloud::entities::CloudServer;
use rsse::cloud::server_loop::{PoolOptions, ServerHandle};
use rsse::cloud::{Deployment, FileCrypter, Message, SearchMode, Storage};
use rsse::core::{Rsse, RsseParams};
use rsse::ir::corpus::{CorpusParams, SyntheticCorpus};
use rsse::ir::{Document, FileId, InvertedIndex};

const SEARCHER_THREADS: usize = 12;
const SEARCHES_PER_THREAD: usize = 15;
const UPDATER_THREADS: usize = 4;
const UPDATES_PER_THREAD: usize = 5;

#[test]
fn sixteen_threads_mixed_search_and_dynamics_against_four_workers() {
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(77));
    let seed: &[u8] = b"pool stress seed";
    let cloud = Deployment::bootstrap_with_basic(
        seed,
        RsseParams::default(),
        corpus.documents(),
        &Storage::Mem,
        CloudServer::DEFAULT_CACHE_BUDGET,
    )
    .unwrap();
    let owner = cloud.owner();
    let handle = ServerHandle::spawn_pool_shared(cloud.server(), PoolOptions::new(4, 32));
    assert_eq!(handle.num_workers(), 4);

    // 12 searcher threads + 4 updater threads = 16 concurrent clients.
    std::thread::scope(|scope| {
        for _ in 0..SEARCHER_THREADS {
            let client = handle.client();
            let user = owner.authorize_user();
            scope.spawn(move || {
                for i in 0..SEARCHES_PER_THREAD {
                    // Alternate protocols so read paths for both indexes
                    // are exercised under contention.
                    let mode = if i % 3 == 0 {
                        SearchMode::BasicEntries
                    } else {
                        SearchMode::Rsse
                    };
                    let req = user.search_request("network", Some(5), mode).unwrap();
                    let resp = client.call(req).expect("search reply lost");
                    match (mode, resp) {
                        (SearchMode::Rsse, Message::RsseResponse { ranking, .. }) => {
                            assert!(!ranking.is_empty());
                        }
                        (SearchMode::BasicEntries, Message::BasicEntriesResponse { scores }) => {
                            assert!(!scores.is_empty());
                        }
                        (_, other) => panic!("wrong response type: {other:?}"),
                    }
                }
            });
        }
        for t in 0..UPDATER_THREADS {
            let client = handle.client();
            let documents = corpus.documents();
            scope.spawn(move || {
                // Each updater owns its scheme/updater pair (they are not
                // Sync); all derive from the same master seed.
                let scheme = Rsse::new(seed, RsseParams::default());
                let plain_index = InvertedIndex::build(documents);
                let updater = scheme.updater_for(&plain_index).unwrap();
                let crypter = FileCrypter::new(seed);
                for u in 0..UPDATES_PER_THREAD {
                    let id = 100_000 + (t as u64) * 100 + u as u64;
                    let doc =
                        Document::new(FileId::new(id), format!("network stress update {t} {u}"));
                    let update = updater.add_document(&doc).unwrap();
                    let ack = client
                        .call(Message::Update {
                            rsse_lists: update.into_parts(),
                            files: vec![crypter.encrypt(&doc)],
                        })
                        .expect("update reply lost");
                    let Message::UpdateAck { files_added, .. } = ack else {
                        panic!("wrong response type: {ack:?}");
                    };
                    assert_eq!(files_added, 1);
                }
            });
        }
    });

    // After the storm: every update must be visible to a fresh search.
    let client = handle.client();
    let user = owner.authorize_user();
    let req = user
        .search_request("network", None, SearchMode::Rsse)
        .unwrap();
    let Message::RsseResponse { ranking, .. } = client.call(req).unwrap() else {
        panic!("wrong response type");
    };
    for t in 0..UPDATER_THREADS as u64 {
        for u in 0..UPDATES_PER_THREAD as u64 {
            let id = 100_000 + t * 100 + u;
            assert!(
                ranking.iter().any(|(f, _)| *f == id),
                "update {id} lost under concurrency"
            );
        }
    }

    // The audit log agrees with what the clients sent.
    let report = handle.server().serving_report();
    let searches = (SEARCHER_THREADS * SEARCHES_PER_THREAD) as u64 + 1;
    let updates = (UPDATER_THREADS * UPDATES_PER_THREAD) as u64;
    assert_eq!(report.searches, searches);
    assert_eq!(report.updates, updates);
    assert_eq!(report.rejected, 0);

    // Clean shutdown: all four workers join, and the summed served counts
    // equal the total number of calls — no request was dropped or double
    // counted.
    assert_eq!(handle.shutdown(), searches + updates);
}
