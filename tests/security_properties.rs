//! Security-property tests mirroring the paper's §V analysis.

use rsse::cloud::adversary::{duplicate_signature, shape_distance, FrequencyAttack};
use rsse::core::{Rsse, RsseParams};
use rsse::crypto::SecretKey;
use rsse::ir::corpus::{CorpusParams, SyntheticCorpus};
use rsse::ir::score::scores_for_term;
use rsse::ir::{InvertedIndex, ScoreQuantizer};
use rsse::opse::{Opm, OpseCipher, OpseParams};

fn attack_workload() -> (InvertedIndex, Vec<(String, Vec<u64>)>) {
    let corpus = SyntheticCorpus::generate(&CorpusParams::paper_1000(21));
    let index = InvertedIndex::build(corpus.documents());
    let quantizer = ScoreQuantizer::fit_index(&index, 128).unwrap();
    let background: Vec<(String, Vec<u64>)> = ["network", "protocol", "header", "datagram"]
        .iter()
        .map(|kw| {
            let levels = scores_for_term(&index, kw)
                .into_iter()
                .map(|(_, s)| quantizer.level(s))
                .collect();
            (kw.to_string(), levels)
        })
        .collect();
    (index, background)
}

#[test]
fn deterministic_opse_leaks_keyword_fingerprints() {
    let (_, background) = attack_workload();
    let attack = FrequencyAttack::new(background.clone());
    let params = OpseParams::paper_default();
    let mut identified = 0;
    for (kw, levels) in &background {
        let cipher = OpseCipher::new(SecretKey::derive(b"victim", kw), params);
        let observed: Vec<u64> = levels.iter().map(|&l| cipher.encrypt(l).unwrap()).collect();
        let guess = attack.guess(&observed).unwrap();
        if guess.keyword == *kw && guess.is_confident() {
            identified += 1;
        }
    }
    assert!(
        identified >= 3,
        "the fingerprint attack should beat deterministic OPSE ({identified}/4)"
    );
}

#[test]
fn opm_defeats_the_fingerprint_attack() {
    let (_, background) = attack_workload();
    let attack = FrequencyAttack::new(background.clone());
    let params = OpseParams::paper_default();
    for (kw, levels) in &background {
        let opm = Opm::new(SecretKey::derive(b"victim", kw), params);
        let observed: Vec<u64> = levels
            .iter()
            .enumerate()
            .map(|(i, &l)| opm.encrypt(l, i as u64).unwrap())
            .collect();
        // The OPM multiset carries no duplicate structure at all.
        assert_eq!(
            *duplicate_signature(&observed).iter().max().unwrap(),
            1,
            "{kw}"
        );
        let guess = attack.guess(&observed).unwrap();
        assert!(
            !(guess.keyword == *kw && guess.is_confident()),
            "{kw}: the attack should not confidently identify an OPM-protected list"
        );
    }
}

#[test]
fn opm_histogram_shape_is_key_randomized() {
    // The Fig. 6 claim: the same score set under two keys yields shapes at
    // least as far apart from each other as either is from the plaintext —
    // there is no stable shape to fingerprint.
    let (_, background) = attack_workload();
    let (kw, levels) = &background[0];
    let params = OpseParams::paper_default();
    let map = |label: &str| -> Vec<u64> {
        let opm = Opm::new(
            SecretKey::derive(b"shape", &format!("{kw}/{label}")),
            params,
        );
        levels
            .iter()
            .enumerate()
            .map(|(i, &l)| opm.encrypt(l, i as u64).unwrap())
            .collect()
    };
    let v1 = map("k1");
    let v2 = map("k2");
    let d12 = shape_distance(&v1, &v2, 32).unwrap();
    assert!(d12 > 0.2, "two keys look alike: TV {d12}");
    // Against deterministic OPSE the shape distance to the plaintext
    // histogram is much smaller than OPM's randomized shapes are to each
    // other, on average over bins of equal count.
    let det = OpseCipher::new(SecretKey::derive(b"shape", "det"), params);
    let det_values: Vec<u64> = levels.iter().map(|&l| det.encrypt(l).unwrap()).collect();
    // Deterministic mapping preserves the multiplicity multiset exactly.
    assert_eq!(
        duplicate_signature(&det_values),
        duplicate_signature(levels)
    );
}

#[test]
fn per_list_keys_randomize_identical_score_sets() {
    // §IV-B: different posting lists use different OPM keys, so identical
    // score multisets map to unrelated value sets.
    let params = OpseParams::paper_default();
    let levels: Vec<u64> = (1..=100).map(|i| (i % 30) + 1).collect();
    let map_with = |list_kw: &str| -> Vec<u64> {
        let key = SecretKey::derive(b"z-key", list_kw);
        let opm = Opm::new(key, params);
        levels
            .iter()
            .enumerate()
            .map(|(i, &l)| opm.encrypt(l, i as u64).unwrap())
            .collect()
    };
    let a = map_with("alpha");
    let b = map_with("beta");
    assert_ne!(a, b);
    let common = a.iter().filter(|v| b.contains(v)).count();
    assert!(common <= 2, "{common} shared mapped values across lists");
}

#[test]
fn index_reveals_nothing_before_a_trapdoor_is_issued() {
    // All posting lists have identical length and entry size; labels are
    // HMAC outputs. The only a-priori leakage is (m, ν, entry size).
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(22));
    let index = InvertedIndex::build(corpus.documents());
    let scheme = Rsse::new(b"leakage seed", RsseParams::default());
    let enc = scheme.build_index_from(&index).unwrap();
    let t1 = scheme.trapdoor("network").unwrap();
    let t2 = scheme.trapdoor("cipher").unwrap();
    assert_eq!(enc.list_len(t1.label()), enc.list_len(t2.label()));
    let l1 = enc.raw_list(t1.label()).unwrap();
    let l2 = enc.raw_list(t2.label()).unwrap();
    assert!(l1.iter().chain(l2.iter()).all(|e| e.len() == l1[0].len()));
}

#[test]
fn search_pattern_is_deterministic_by_design() {
    // The paper accepts search-pattern leakage: equal queries yield equal
    // trapdoors (the server can link repeated searches).
    let scheme = Rsse::new(b"pattern seed", RsseParams::default());
    let t1 = scheme.trapdoor("network").unwrap();
    let t2 = scheme.trapdoor("network").unwrap();
    assert_eq!(t1.label(), t2.label());
}

#[test]
fn different_owners_produce_unlinkable_indexes() {
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(23));
    let index = InvertedIndex::build(corpus.documents());
    let s1 = Rsse::new(b"owner one", RsseParams::default());
    let s2 = Rsse::new(b"owner two", RsseParams::default());
    let e1 = s1.build_index_from(&index).unwrap();
    let t1 = s1.trapdoor("network").unwrap();
    let t2 = s2.trapdoor("network").unwrap();
    assert_ne!(t1.label(), t2.label());
    // Owner 2's trapdoor finds nothing in owner 1's index.
    assert!(e1.search(&t2, None).is_empty());
}
