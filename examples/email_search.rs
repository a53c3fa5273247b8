//! Outsourced e-mail archive: the paper's motivating scenario.
//!
//! A company outsources its (encrypted) mail archive to a cloud provider.
//! This example bootstraps the full deployment — owner, honest-but-curious
//! server, authorized user — and compares the three retrieval protocols on
//! bandwidth and simulated WAN completion time:
//!
//! 1. RSSE one-round top-k (the paper's scheme),
//! 2. basic scheme, naive (all matching files in one round),
//! 3. basic scheme, two-round top-k.
//!
//! ```text
//! cargo run --release --example email_search
//! ```

use rsse::cloud::{CloudServer, Deployment, NetworkParams, Storage};
use rsse::core::RsseParams;
use rsse::ir::corpus::{CorpusParams, HotKeyword, SyntheticCorpus};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A synthetic mail archive: 400 messages; "invoice" appears in most
    // finance threads, "outage" only in the ops incidents.
    let corpus = SyntheticCorpus::generate(&CorpusParams {
        num_docs: 400,
        vocab_size: 4000,
        zipf_exponent: 1.05,
        mean_doc_len: 180,
        hot_keywords: vec![
            HotKeyword::new("invoice", 0.6, 6.0),
            HotKeyword::new("outage", 0.08, 3.0),
            HotKeyword::new("deadline", 0.3, 4.0),
        ],
        seed: 2026,
    });

    let cloud = Deployment::bootstrap_with_basic(
        b"acme-corp master secret",
        RsseParams::default(),
        corpus.documents(),
        &Storage::Mem,
        CloudServer::DEFAULT_CACHE_BUDGET,
    )?;
    println!(
        "setup: outsourced {} encrypted messages ({} KiB on the wire)\n",
        corpus.documents().len(),
        cloud.setup_traffic.total_bytes() / 1024
    );

    let wan = NetworkParams::wan();
    let k = 10;
    for keyword in ["invoice", "outage", "deadline"] {
        let (rsse_docs, rsse_traffic) = cloud.rsse_search(keyword, Some(k))?;
        let (full_docs, full_traffic) = cloud.basic_search_full(keyword)?;
        let (two_docs, two_traffic) = cloud.basic_search_top_k(keyword, k as usize)?;

        println!("query \"{keyword}\" (top-{k}):");
        println!(
            "  rsse one-round : {:3} files, {:7} B, {:1} RTT, {:6.1} ms simulated",
            rsse_docs.len(),
            rsse_traffic.total_bytes(),
            rsse_traffic.round_trips,
            rsse_traffic.simulated_time(&wan).as_secs_f64() * 1e3,
        );
        println!(
            "  basic naive    : {:3} files, {:7} B, {:1} RTT, {:6.1} ms simulated",
            full_docs.len(),
            full_traffic.total_bytes(),
            full_traffic.round_trips,
            full_traffic.simulated_time(&wan).as_secs_f64() * 1e3,
        );
        println!(
            "  basic two-round: {:3} files, {:7} B, {:1} RTT, {:6.1} ms simulated",
            two_docs.len(),
            two_traffic.total_bytes(),
            two_traffic.round_trips,
            two_traffic.simulated_time(&wan).as_secs_f64() * 1e3,
        );

        // The top-k protocols agree on the result set size; the naive
        // protocol ships every matching message.
        assert!(rsse_docs.len() <= k as usize);
        assert!(full_docs.len() >= rsse_docs.len());
        // And the RSSE protocol never uses more bandwidth than naive basic.
        assert!(rsse_traffic.total_bytes() <= full_traffic.total_bytes());
        println!();
    }

    println!(
        "RSSE wins on bandwidth vs naive and on round trips vs two-round — as the paper argues."
    );
    Ok(())
}
