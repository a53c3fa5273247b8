//! Conjunctive multi-keyword ranked search — the paper's §VIII future-work
//! direction, deployed end to end.
//!
//! The server intersects the posting lists of all queried keywords and
//! ranks by the sum of the order-preserved mapped scores (the heuristic
//! the paper sketches, with its order-under-summation caveat); the owner
//! then re-ranks the candidates exactly with IDF weights.
//!
//! ```text
//! cargo run --release --example multi_keyword
//! ```

use rsse::cloud::{CloudServer, Deployment, Storage};
use rsse::core::{Rsse, RsseParams};
use rsse::ir::corpus::{CorpusParams, HotKeyword, SyntheticCorpus};
use rsse::ir::InvertedIndex;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let corpus = SyntheticCorpus::generate(&CorpusParams {
        num_docs: 300,
        vocab_size: 3000,
        zipf_exponent: 1.05,
        mean_doc_len: 160,
        hot_keywords: vec![
            HotKeyword::new("kubernetes", 0.35, 6.0),
            HotKeyword::new("outage", 0.30, 5.0),
            HotKeyword::new("billing", 0.25, 4.0),
        ],
        seed: 314,
    });
    let seed: &[u8] = b"multi keyword secret";
    let cloud = Deployment::bootstrap(
        seed,
        RsseParams::default(),
        corpus.documents(),
        &Storage::Mem,
        CloudServer::DEFAULT_CACHE_BUDGET,
    )?;

    let query = "kubernetes outage";
    let (docs, traffic) = cloud.conjunctive_search(query, Some(5))?;
    println!(
        "conjunctive query {query:?}: {} results in {} round trip(s), {} bytes",
        docs.len(),
        traffic.round_trips,
        traffic.total_bytes()
    );
    for d in &docs {
        println!("  {}", d.id());
    }

    // Verify against the plaintext oracle: every result contains both terms.
    let index = InvertedIndex::build(corpus.documents());
    let both = |id| {
        index
            .postings("kubernet")
            .is_some_and(|p| p.iter().any(|x| x.file == id))
            && index
                .postings("outag")
                .is_some_and(|p| p.iter().any(|x| x.file == id))
    };
    assert!(docs.iter().all(|d| both(d.id())));

    // Owner-side exact re-ranking with eq. (1) IDF weighting.
    let scheme = Rsse::new(seed, RsseParams::default());
    let enc = scheme.build_index_from(&index)?;
    let opse = *enc.opse_params().expect("built index carries parameters");
    let t = scheme.multi_trapdoor(query)?;
    let hits = enc.search_conjunctive(&t, None).unwrap();
    let dfs = [
        index.document_frequency("kubernet"),
        index.document_frequency("outag"),
    ];
    let exact = scheme.rerank_conjunctive(
        &["kubernetes", "outage"],
        &hits,
        opse,
        &dfs,
        index.num_docs(),
    )?;
    println!("\nowner-side exact re-rank (IDF-weighted levels), top 5:");
    for (file, score) in exact.iter().take(5) {
        println!("  {file} score {score:.2}");
    }
    assert_eq!(exact.len(), hits.len());
    println!(
        "\nintersection size {} of {} docs; server never saw a plaintext score.",
        hits.len(),
        corpus.documents().len()
    );
    Ok(())
}
