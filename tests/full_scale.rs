//! Full-scale run at the paper's complete corpus size (5563 documents,
//! the RFC database cardinality). Expensive, so ignored by default:
//!
//! ```text
//! cargo test --release --test full_scale -- --ignored
//! ```

use rsse::cloud::{CloudServer, Deployment, Storage};
use rsse::core::{Rsse, RsseParams};
use rsse::ir::corpus::{CorpusParams, SyntheticCorpus};
use rsse::ir::InvertedIndex;

#[test]
#[ignore = "builds a 5563-document index; run explicitly with --ignored"]
fn rfc_scale_index_and_search() {
    let corpus = SyntheticCorpus::generate(&CorpusParams::rfc_like(2026));
    assert_eq!(corpus.documents().len(), 5563);
    let index = InvertedIndex::build(corpus.documents());

    let scheme = Rsse::new(b"full scale seed", RsseParams::default());
    let (enc, report) = scheme.build_index_with_report(&index).unwrap();
    assert_eq!(report.num_docs, 5563);
    assert!(report.num_keywords > 5_000);

    // Hot-keyword search at scale: still sub-50ms per query.
    let t = scheme.trapdoor("network").unwrap();
    let started = std::time::Instant::now();
    let top = enc.search(&t, Some(50));
    let elapsed = started.elapsed();
    assert_eq!(top.len(), 50);
    assert!(
        elapsed.as_millis() < 500,
        "search took {elapsed:?} at RFC scale"
    );

    // Rare keyword behaves too.
    let t = scheme.trapdoor("multicast").unwrap();
    let hits = enc.search(&t, None);
    assert!(!hits.is_empty());
    assert!(hits.len() < 1000);
}

#[test]
#[ignore = "bootstraps a full deployment over 5563 documents"]
fn rfc_scale_deployment_protocols() {
    let corpus = SyntheticCorpus::generate(&CorpusParams::rfc_like(7));
    let cloud = Deployment::bootstrap_with_basic(
        b"full scale seed",
        RsseParams::default(),
        corpus.documents(),
        &Storage::Mem,
        CloudServer::DEFAULT_CACHE_BUDGET,
    )
    .unwrap();
    let (docs, traffic) = cloud.rsse_search("network", Some(20)).unwrap();
    assert_eq!(docs.len(), 20);
    assert_eq!(traffic.round_trips, 1);
    let (_, naive) = cloud.basic_search_full("multicast").unwrap();
    assert!(naive.total_bytes() > traffic.total_bytes() / 10);
}
