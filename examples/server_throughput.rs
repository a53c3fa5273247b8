//! Throughput of the threaded cloud server under concurrent load.
//!
//! Spawns the server loop on its own thread and hammers it from multiple
//! client threads through real encoded frames, reporting queries/second —
//! the operational face of Fig. 8's per-query latency.
//!
//! ```text
//! cargo run --release --example server_throughput
//! ```

use rsse::cloud::entities::{CloudServer, DataOwner};
use rsse::cloud::server_loop::{PoolOptions, ServerHandle};
use rsse::cloud::{Message, SearchMode};
use rsse::core::RsseParams;
use rsse::ir::corpus::{CorpusParams, SyntheticCorpus};
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(77));
    let owner = DataOwner::new(b"throughput secret", RsseParams::default());
    let server = CloudServer::from_outsource(owner.outsource(corpus.documents())?)?;
    let handle = ServerHandle::spawn_pool_shared(Arc::new(server), PoolOptions::new(1, 64));

    let clients = 6;
    let queries_per_client = 200;
    let keywords = ["network", "protocol", "cipher"];

    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let client = handle.client();
            let user = owner.authorize_user();
            scope.spawn(move || {
                for q in 0..queries_per_client {
                    let kw = keywords[(c + q) % keywords.len()];
                    let request = user
                        .search_request(kw, Some(10), SearchMode::Rsse)
                        .expect("valid keyword");
                    let response = client.call(request).expect("server up");
                    assert!(matches!(response, Message::RsseResponse { .. }));
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let total = (clients * queries_per_client) as f64;
    let served = handle.shutdown();

    println!(
        "{} clients x {} queries = {} ranked top-10 searches over {} docs",
        clients,
        queries_per_client,
        served,
        corpus.documents().len()
    );
    println!(
        "wall time {elapsed:?} -> {:.0} queries/second ({:.2} ms mean latency under load)",
        total / elapsed.as_secs_f64(),
        elapsed.as_secs_f64() * 1e3 / total * clients as f64,
    );
    assert_eq!(served, clients as u64 * queries_per_client as u64);
    Ok(())
}
