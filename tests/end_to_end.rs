//! End-to-end protocol tests over the full deployment: owner → server →
//! user, through the real wire codec.

use rsse::cloud::{CloudServer, Deployment, NetworkParams, Storage};
use rsse::core::RsseParams;
use rsse::ir::corpus::{CorpusParams, SyntheticCorpus};
use rsse::ir::InvertedIndex;
use rsse::sse::entry::ENTRY_CT_LEN;

fn deployment(seed: u64) -> (SyntheticCorpus, Deployment) {
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(seed));
    let cloud = Deployment::bootstrap_with_basic(
        b"integration master secret",
        RsseParams::default(),
        corpus.documents(),
        &Storage::Mem,
        CloudServer::DEFAULT_CACHE_BUDGET,
    )
    .expect("bootstrap");
    (corpus, cloud)
}

#[test]
fn rsse_and_basic_full_agree_on_result_sets() {
    let (corpus, cloud) = deployment(1);
    let index = InvertedIndex::build(corpus.documents());
    for kw in ["network", "protocol", "cipher"] {
        let (rsse_docs, _) = cloud.rsse_search(kw, None).unwrap();
        let (basic_docs, _) = cloud.basic_search_full(kw).unwrap();
        let mut a: Vec<u64> = rsse_docs.iter().map(|d| d.id().as_u64()).collect();
        let mut b: Vec<u64> = basic_docs.iter().map(|d| d.id().as_u64()).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "{kw}: schemes disagree on the match set");
        assert_eq!(a.len() as u64, index.document_frequency(kw), "{kw}");
    }
}

#[test]
fn retrieved_documents_decrypt_to_originals() {
    let (corpus, cloud) = deployment(2);
    let (docs, _) = cloud.rsse_search("network", Some(7)).unwrap();
    assert_eq!(docs.len(), 7);
    for doc in docs {
        let original = corpus
            .documents()
            .iter()
            .find(|d| d.id() == doc.id())
            .expect("retrieved an outsourced file");
        assert_eq!(original.text(), doc.text());
    }
}

#[test]
fn top_k_is_a_prefix_of_the_full_rsse_ranking() {
    let (_, cloud) = deployment(3);
    let (all, _) = cloud.rsse_search("network", None).unwrap();
    for k in [1u32, 5, 20, 100] {
        let (top, _) = cloud.rsse_search("network", Some(k)).unwrap();
        let want: Vec<u64> = all
            .iter()
            .take(k as usize)
            .map(|d| d.id().as_u64())
            .collect();
        let got: Vec<u64> = top.iter().map(|d| d.id().as_u64()).collect();
        assert_eq!(got, want, "k={k}");
    }
}

#[test]
fn basic_two_round_matches_basic_full_prefix() {
    let (_, cloud) = deployment(4);
    let k = 9;
    let (full, _) = cloud.basic_search_full("network").unwrap();
    let (two, _) = cloud.basic_search_top_k("network", k).unwrap();
    let want: Vec<u64> = full.iter().take(k).map(|d| d.id().as_u64()).collect();
    let got: Vec<u64> = two.iter().map(|d| d.id().as_u64()).collect();
    assert_eq!(got, want);
}

#[test]
fn protocol_cost_shape_matches_the_paper() {
    let (_, cloud) = deployment(5);
    let k = 10;
    let (_, rsse) = cloud.rsse_search("network", Some(k)).unwrap();
    let (_, naive) = cloud.basic_search_full("network").unwrap();
    let (_, two_round) = cloud.basic_search_top_k("network", k as usize).unwrap();

    // One round for RSSE and naive; two for the top-k basic protocol.
    assert_eq!(rsse.round_trips, 1);
    assert_eq!(naive.round_trips, 1);
    assert_eq!(two_round.round_trips, 2);

    // "network" matches all 200 docs, so naive hauls ~20x more bytes.
    assert!(
        naive.total_bytes() > 5 * rsse.total_bytes(),
        "naive {} vs rsse {}",
        naive.total_bytes(),
        rsse.total_bytes()
    );
    // The two-round protocol saves bandwidth over naive too.
    assert!(two_round.total_bytes() < naive.total_bytes());

    // On a WAN, the extra round trip costs the two-round protocol real
    // latency versus RSSE at equal k.
    let wan = NetworkParams::wan();
    assert!(two_round.simulated_time(&wan) > rsse.simulated_time(&wan));
}

#[test]
fn unknown_keyword_is_empty_everywhere() {
    let (_, cloud) = deployment(6);
    let (a, _) = cloud.rsse_search("xylophone", Some(5)).unwrap();
    let (b, _) = cloud.basic_search_full("xylophone").unwrap();
    let (c, _) = cloud.basic_search_top_k("xylophone", 5).unwrap();
    assert!(a.is_empty() && b.is_empty() && c.is_empty());
}

#[test]
fn stop_word_query_fails_cleanly() {
    let (_, cloud) = deployment(7);
    assert!(cloud.rsse_search("the", Some(5)).is_err());
    assert!(cloud.basic_search_full("of and").is_err());
}

#[test]
fn setup_traffic_accounts_for_index_and_files() {
    let (corpus, cloud) = deployment(8);
    // The outsourcing upload must at least carry the encrypted corpus.
    assert!(cloud.setup_traffic.bytes_up > corpus.total_bytes());
    assert_eq!(cloud.setup_traffic.bytes_down, 0);
    // Without protocols 2 and 3 the upload skips every padded basic list:
    // one per keyword, ν entries of 56 bytes each.
    let lean = Deployment::bootstrap(
        b"integration master secret",
        RsseParams::default(),
        corpus.documents(),
        &Storage::Mem,
        CloudServer::DEFAULT_CACHE_BUDGET,
    )
    .unwrap();
    let index = InvertedIndex::build(corpus.documents());
    let basic_bytes = index.num_keywords() * index.max_posting_len() * ENTRY_CT_LEN;
    assert!(
        lean.setup_traffic.bytes_up + basic_bytes <= cloud.setup_traffic.bytes_up,
        "{} + {basic_bytes} > {}",
        lean.setup_traffic.bytes_up,
        cloud.setup_traffic.bytes_up
    );
}

#[test]
fn concurrent_users_share_the_server() {
    let (_, cloud) = deployment(9);
    let reference: Vec<u64> = cloud
        .rsse_search("network", Some(10))
        .unwrap()
        .0
        .iter()
        .map(|d| d.id().as_u64())
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let cloud = &cloud;
            let reference = &reference;
            scope.spawn(move || {
                for _ in 0..5 {
                    let got: Vec<u64> = cloud
                        .rsse_search("network", Some(10))
                        .unwrap()
                        .0
                        .iter()
                        .map(|d| d.id().as_u64())
                        .collect();
                    assert_eq!(&got, reference);
                }
            });
        }
    });
}
