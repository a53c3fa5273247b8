//! The Fig. 4 / Fig. 6 security story, made executable.
//!
//! An honest-but-curious server with background knowledge (candidate
//! keywords' plaintext score histograms) tries to reverse-engineer which
//! keyword a posting list belongs to, from the encrypted scores alone.
//!
//! * Against **deterministic OPSE** the duplicate structure of the scores
//!   survives encryption verbatim — the attack identifies the keyword.
//! * Against the paper's **one-to-many OPM** every mapped value is unique —
//!   the fingerprint is erased and the attack degrades to guessing.
//!
//! ```text
//! cargo run --release --example adversary_analysis
//! ```

use rsse::cloud::adversary::{duplicate_signature, FrequencyAttack};
use rsse::crypto::SecretKey;
use rsse::ir::corpus::{CorpusParams, SyntheticCorpus};
use rsse::ir::score::scores_for_term;
use rsse::ir::{InvertedIndex, ScoreQuantizer};
use rsse::opse::{Opm, OpseCipher, OpseParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let corpus = SyntheticCorpus::generate(&CorpusParams::paper_1000(7));
    let index = InvertedIndex::build(corpus.documents());
    let quantizer = ScoreQuantizer::fit_index(&index, 128).expect("scorable corpus");

    // Background knowledge: the adversary knows the quantized score
    // multisets of the candidate keywords (e.g. from a public corpus with
    // the same statistics).
    let candidates = ["network", "protocol", "header", "datagram", "checksum"];
    let background: Vec<(String, Vec<u64>)> = candidates
        .iter()
        .map(|kw| {
            let levels: Vec<u64> = scores_for_term(&index, kw)
                .into_iter()
                .map(|(_, s)| quantizer.level(s))
                .collect();
            (kw.to_string(), levels)
        })
        .collect();
    let attack = FrequencyAttack::new(background.clone());

    let params = OpseParams::paper_default();
    println!("candidates: {candidates:?}\n");
    let mut det_hits = 0;
    let mut opm_hits = 0;
    for (kw, levels) in &background {
        // --- deterministic OPSE: equal scores -> equal ciphertexts.
        let key = SecretKey::derive(b"victim", kw);
        let det = OpseCipher::new(key.clone(), params);
        let observed_det: Vec<u64> = levels
            .iter()
            .map(|&l| det.encrypt(l).expect("level in domain"))
            .collect();
        let guess_det = attack.guess(&observed_det).expect("candidates exist");

        // --- one-to-many OPM: the file id seeds the final draw.
        let opm = Opm::new(key, params);
        let observed_opm: Vec<u64> = levels
            .iter()
            .enumerate()
            .map(|(i, &l)| opm.encrypt(l, i as u64).expect("level in domain"))
            .collect();
        let guess_opm = attack.guess(&observed_opm).expect("candidates exist");

        let det_ok = guess_det.keyword == *kw && guess_det.is_confident();
        let opm_ok = guess_opm.keyword == *kw && guess_opm.is_confident();
        det_hits += u32::from(det_ok);
        opm_hits += u32::from(opm_ok);
        println!(
            "true keyword {kw:9} | OPSE guess: {:9} ({}) | OPM guess: {:9} ({})",
            guess_det.keyword,
            if det_ok { "IDENTIFIED" } else { "missed" },
            guess_opm.keyword,
            if opm_ok { "identified" } else { "DEFEATED" },
        );
        // OPM leaves an all-unique multiset: no duplicate fingerprint.
        assert_eq!(
            duplicate_signature(&observed_opm).iter().max(),
            Some(&1usize),
            "OPM produced a duplicate at |R| = 2^46"
        );
    }

    println!(
        "\ndeterministic OPSE: {det_hits}/{} keywords identified; one-to-many OPM: {opm_hits}/{}",
        background.len(),
        background.len()
    );
    assert!(
        det_hits >= 4,
        "the attack should succeed against deterministic OPSE"
    );
    assert_eq!(opm_hits, 0, "the attack must fail against OPM");
    Ok(())
}
