//! Multi-user personal-health-record hosting: concurrent authorized users
//! querying one shared cloud server.
//!
//! The paper's Fig. 1 shows many users against one cloud; this example
//! runs eight users in parallel threads against the shared (read-locked)
//! server and checks they all receive correct, consistently ranked
//! results.
//!
//! ```text
//! cargo run --release --example health_records
//! ```

use rsse::cloud::{CloudServer, Deployment, SearchMode, Storage};
use rsse::core::RsseParams;
use rsse::ir::corpus::{CorpusParams, HotKeyword, SyntheticCorpus};
use std::thread;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A synthetic PHR archive: lab reports, prescriptions, imaging notes.
    let corpus = SyntheticCorpus::generate(&CorpusParams {
        num_docs: 300,
        vocab_size: 3000,
        zipf_exponent: 1.05,
        mean_doc_len: 150,
        hot_keywords: vec![
            HotKeyword::new("glucose", 0.4, 5.0),
            HotKeyword::new("penicillin", 0.1, 3.0),
            HotKeyword::new("radiology", 0.2, 4.0),
        ],
        seed: 99,
    });
    let cloud = Deployment::bootstrap(
        b"clinic master secret",
        RsseParams::default(),
        corpus.documents(),
        &Storage::Mem,
        CloudServer::DEFAULT_CACHE_BUDGET,
    )?;
    println!("outsourced {} encrypted records", corpus.documents().len());

    // Eight users (threads) issue interleaved queries against the shared
    // server; each verifies its own results.
    let server = cloud.server();
    let owner = cloud.owner();
    let queries = ["glucose", "penicillin", "radiology", "glucose"];
    let reference: Vec<Vec<u64>> = queries
        .iter()
        .map(|q| {
            let user = owner.authorize_user();
            let request = user.search_request(q, Some(5), SearchMode::Rsse).unwrap();
            let response = server.handle(request).unwrap();
            match response {
                rsse::cloud::Message::RsseResponse { ranking, .. } => {
                    ranking.into_iter().map(|(id, _)| id).collect()
                }
                _ => unreachable!("server answered with the wrong message"),
            }
        })
        .collect();

    thread::scope(|scope| {
        for worker in 0..8usize {
            let server = cloud.server();
            let user = owner.authorize_user();
            let reference = &reference;
            scope.spawn(move || {
                for (qi, q) in queries.iter().enumerate() {
                    let request = user.search_request(q, Some(5), SearchMode::Rsse).unwrap();
                    let response = server.handle(request).unwrap();
                    let rsse::cloud::Message::RsseResponse { ranking, files } = response else {
                        panic!("unexpected response type");
                    };
                    let ids: Vec<u64> = ranking.iter().map(|(id, _)| *id).collect();
                    assert_eq!(
                        &ids, &reference[qi],
                        "user {worker}: ranking must be stable"
                    );
                    // Every user can decrypt the returned records.
                    let docs = user.decrypt_files(&files).unwrap();
                    assert_eq!(docs.len(), ids.len());
                }
            });
        }
    });

    println!(
        "8 concurrent users × {} queries: all rankings stable, all files decrypted.",
        queries.len()
    );
    Ok(())
}
