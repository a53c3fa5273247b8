//! Concurrent updates never tear a search reply.
//!
//! `CloudServer::apply_update` stores the new files before the index
//! learns their postings, so a search racing an update either misses the
//! new document entirely or returns it together with its ciphertext —
//! never a ranked id without its file. Two updater threads add documents
//! for the searched keyword while two searcher threads query it, on a
//! single server and on a sharded deployment, and every reply must carry
//! exactly one file per ranked entry.
//!
//! The single-server arm runs with the ranking cache off, so every search
//! ranks from the index and can land between an update's two writes;
//! with the files ingested after the index, it fails on most runs. The
//! sharded shards keep the default cache, so that arm mostly guards the
//! router's merge, which must keep every file a shard sends.

use rsse::cloud::{
    Deployment, FileCrypter, Message, PoolOptions, RouterOptions, SearchMode, ShardedDeployment,
    Storage,
};
use rsse::core::{IndexUpdate, Rsse, RsseParams};
use rsse::ir::corpus::{CorpusParams, SyntheticCorpus};
use rsse::ir::{Document, FileId, InvertedIndex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

const SEED: &[u8] = b"update visibility seed";
const KEYWORD: &str = "network";
const UPDATERS: u64 = 2;
const UPDATES_PER_THREAD: u64 = 150;

/// The updates updater `thread` pushes: one new "network" document each,
/// with ids disjoint across threads.
fn updates(corpus: &SyntheticCorpus, thread: u64) -> Vec<(IndexUpdate, Document)> {
    let scheme = Rsse::new(SEED, RsseParams::default());
    let plain_index = InvertedIndex::build(corpus.documents());
    let updater = scheme.updater_for(&plain_index).unwrap();
    (0..UPDATES_PER_THREAD)
        .map(|i| {
            let id = 1_000_000 + thread * UPDATES_PER_THREAD + i;
            let doc = Document::new(FileId::new(id), format!("{KEYWORD} bulletin {id}"));
            (updater.add_document(&doc).unwrap(), doc)
        })
        .collect()
}

/// Runs `UPDATERS` threads pushing updates through `apply` beside two
/// searcher threads calling `search` (which returns `(ranked entries,
/// files)` for one reply) until the updaters finish. A barrier releases
/// all four threads together, so searches overlap the updates from the
/// first one. Returns how many replies were checked.
fn race(
    corpus: &SyntheticCorpus,
    apply: impl Fn(IndexUpdate, Document) + Sync,
    search: impl Fn() -> (usize, usize) + Sync,
) -> u64 {
    let done = AtomicBool::new(false);
    let start = Barrier::new(2 + UPDATERS as usize);
    let mut checked = 0;
    std::thread::scope(|scope| {
        let searchers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    let mut replies = 0u64;
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let (ranked, files) = search();
                        assert_eq!(files, ranked, "a reply ranked an id without its file");
                        replies += 1;
                        if finished {
                            return replies;
                        }
                    }
                })
            })
            .collect();
        let updaters: Vec<_> = (0..UPDATERS)
            .map(|thread| {
                let batch = updates(corpus, thread);
                let (apply, start) = (&apply, &start);
                scope.spawn(move || {
                    start.wait();
                    for (update, doc) in batch {
                        apply(update, doc);
                    }
                })
            })
            .collect();
        for updater in updaters {
            updater.join().unwrap();
        }
        done.store(true, Ordering::Release);
        checked = searchers.into_iter().map(|s| s.join().unwrap()).sum();
    });
    checked
}

#[test]
fn single_server_replies_never_tear_under_concurrent_updates() {
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(91));
    // Cache off: every search ranks straight from the index, so every
    // search can land inside an update.
    let cloud = Deployment::bootstrap(
        SEED,
        RsseParams::default(),
        corpus.documents(),
        &Storage::Mem,
        0,
    )
    .unwrap();
    let server = cloud.server();
    let crypter = FileCrypter::new(SEED);
    let request = cloud
        .user()
        .search_request(KEYWORD, None, SearchMode::Rsse)
        .unwrap();
    let before = match server.handle(request.clone()).unwrap() {
        Message::RsseResponse { ranking, .. } => ranking.len(),
        other => panic!("expected RsseResponse, got {other:?}"),
    };
    let checked = race(
        &corpus,
        |update, doc| server.apply_update(update, vec![crypter.encrypt(&doc)]),
        || match server.handle(request.clone()).unwrap() {
            Message::RsseResponse { ranking, files } => (ranking.len(), files.len()),
            other => panic!("expected RsseResponse, got {other:?}"),
        },
    );
    assert!(checked >= 2, "each searcher checks at least one reply");
    let after = match server.handle(request).unwrap() {
        Message::RsseResponse { ranking, .. } => ranking.len(),
        other => panic!("expected RsseResponse, got {other:?}"),
    };
    assert_eq!(after, before + (UPDATERS * UPDATES_PER_THREAD) as usize);
}

#[test]
fn sharded_replies_never_tear_under_concurrent_updates() {
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(92));
    let cloud = ShardedDeployment::bootstrap(
        SEED,
        RsseParams::default(),
        corpus.documents(),
        2,
        &Storage::Mem,
        PoolOptions::new(1, 16),
        RouterOptions::default(),
    )
    .unwrap();
    let crypter = FileCrypter::new(SEED);
    let partitioner = cloud.partitioner();
    let before = cloud.rsse_search(KEYWORD, None).unwrap().1.ranking.len();
    let checked = race(
        &corpus,
        |update, doc| {
            cloud
                .shard_server(partitioner.shard_of(doc.id()))
                .unwrap()
                .apply_update(update, vec![crypter.encrypt(&doc)]);
        },
        || {
            let (_, outcome) = cloud.rsse_search(KEYWORD, None).unwrap();
            assert!(outcome.is_complete());
            (outcome.ranking.len(), outcome.files.len())
        },
    );
    assert!(checked >= 2, "each searcher checks at least one reply");
    let after = cloud.rsse_search(KEYWORD, None).unwrap().1.ranking.len();
    assert_eq!(after, before + (UPDATERS * UPDATES_PER_THREAD) as usize);
    cloud.shutdown();
}
