//! Property-based tests (proptest) over the core invariants.

use proptest::collection::vec;
use proptest::prelude::*;
use rsse::analysis::Histogram;
use rsse::cloud::Message;
use rsse::crypto::{SecretKey, Tape};
use rsse::hgd::Hypergeometric;
use rsse::ir::{Document, FileId, InvertedIndex, ScoreQuantizer, Tokenizer};
use rsse::opse::{Opm, OpseCipher, OpseParams};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// OPSE is strictly order-preserving over any valid (M, N, key).
    #[test]
    fn opse_order_preservation(
        domain in 2u64..=64,
        range_bits in 7u32..=30,
        seed in any::<u64>(),
    ) {
        let params = OpseParams::new(domain, 1u64 << range_bits).unwrap();
        let cipher = OpseCipher::new(SecretKey::derive(&seed.to_be_bytes(), "p"), params);
        let mut prev = 0u64;
        for m in 1..=domain {
            let c = cipher.encrypt(m).unwrap();
            prop_assert!(c > prev, "m={m}: {c} <= {prev}");
            prop_assert!(c >= 1 && c <= params.range_size());
            prev = c;
        }
    }

    /// Decrypt inverts encrypt for every plaintext and key.
    #[test]
    fn opse_roundtrip(
        domain in 1u64..=64,
        extra_bits in 0u32..=20,
        seed in any::<u64>(),
    ) {
        let range = (domain << extra_bits).max(domain);
        let params = OpseParams::new(domain, range).unwrap();
        let cipher = OpseCipher::new(SecretKey::derive(&seed.to_be_bytes(), "r"), params);
        for m in 1..=domain {
            prop_assert_eq!(cipher.decrypt(cipher.encrypt(m).unwrap()).unwrap(), m);
        }
    }

    /// OPM: order across distinct plaintexts holds for arbitrary file ids,
    /// and every ciphertext decrypts to its plaintext.
    #[test]
    fn opm_order_and_roundtrip(
        seed in any::<u64>(),
        pairs in vec((1u64..=32, any::<u64>()), 1..20),
    ) {
        let params = OpseParams::new(32, 1 << 26).unwrap();
        let opm = Opm::new(SecretKey::derive(&seed.to_be_bytes(), "o"), params);
        let mapped: Vec<(u64, u64)> = pairs
            .iter()
            .map(|&(m, fid)| (m, opm.encrypt(m, fid).unwrap()))
            .collect();
        for &(m1, c1) in &mapped {
            prop_assert_eq!(opm.decrypt(c1).unwrap(), m1);
            for &(m2, c2) in &mapped {
                if m1 < m2 {
                    prop_assert!(c1 < c2, "{m1}->{c1} !< {m2}->{c2}");
                }
            }
        }
    }

    /// Hypergeometric inverse CDF: monotone in u, in-support, deterministic.
    #[test]
    fn hgd_inverse_cdf_properties(
        pop_bits in 4u32..=40,
        m in 1u64..=64,
        u1 in 0.0f64..1.0,
        u2 in 0.0f64..1.0,
    ) {
        let n = 1u64 << pop_bits;
        let m = m.min(n);
        let h = Hypergeometric::new(n, m, n / 2).unwrap();
        let (lo, hi) = h.support();
        let (ua, ub) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        let ka = h.inverse_cdf(ua);
        let kb = h.inverse_cdf(ub);
        prop_assert!(ka <= kb);
        prop_assert!(ka >= lo && kb <= hi);
        prop_assert_eq!(ka, h.inverse_cdf(ua));
    }

    /// The quantizer is monotone and in-range for arbitrary score sets.
    #[test]
    fn quantizer_monotone(
        scores in vec(0.0f64..1e6, 1..50),
        levels in 1u64..=4096,
    ) {
        prop_assume!(scores.iter().any(|&s| s > 0.0));
        let q = ScoreQuantizer::fit(&scores, levels).unwrap();
        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0u64;
        for &s in &sorted {
            let l = q.level(s);
            prop_assert!((1..=levels).contains(&l));
            prop_assert!(l >= prev);
            prev = l;
        }
    }

    /// Wire codec: FetchFiles round-trips for arbitrary id lists.
    #[test]
    fn codec_fetch_roundtrip(ids in vec(any::<u64>(), 0..100)) {
        let msg = Message::FetchFiles { ids };
        let decoded = Message::decode(msg.encode()).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    /// Wire codec: arbitrary byte soup never panics the decoder.
    #[test]
    fn codec_never_panics_on_garbage(data in vec(any::<u8>(), 0..300)) {
        let _ = Message::decode(bytes::BytesMut::from(&data[..]));
    }

    /// Tape determinism and uniform_below bounds for arbitrary inputs.
    #[test]
    fn tape_uniformity_bounds(
        seed in any::<u64>(),
        transcript in vec(any::<u8>(), 0..64),
        n in 1u64..=u64::MAX,
    ) {
        let key = SecretKey::derive(&seed.to_be_bytes(), "tape");
        let mut t1 = Tape::new(&key, &transcript);
        let mut t2 = Tape::new(&key, &transcript);
        let v = t1.uniform_below(n);
        prop_assert!(v < n);
        prop_assert_eq!(v, t2.uniform_below(n));
    }

    /// Histogram totals: every finite in-range sample is counted once.
    #[test]
    fn histogram_conserves_mass(
        samples in vec(0u64..1000, 0..200),
        bins in 1usize..64,
    ) {
        let h = Histogram::of_u64(&samples, bins, 0, 1000);
        prop_assert_eq!(h.total(), samples.len() as u64);
    }

    /// Top-k equals sort-then-truncate for any k over any corpus slice.
    #[test]
    fn topk_equals_sorted_prefix(seed in any::<u64>(), k in 0usize..40) {
        let docs: Vec<Document> = (0..20)
            .map(|i| {
                let reps = (seed.wrapping_mul(i + 1) % 7) + 1;
                let mut text = "filler words ".repeat((i % 5 + 1) as usize);
                for _ in 0..reps {
                    text.push_str(" target");
                }
                Document::new(FileId::new(i), text)
            })
            .collect();
        let scheme = rsse::core::Rsse::new(
            &seed.to_be_bytes(),
            rsse::core::RsseParams::default(),
        );
        let enc = scheme.build_index(&docs).unwrap();
        let t = scheme.trapdoor("target").unwrap();
        let all = enc.search(&t, None);
        let top = enc.search(&t, Some(k));
        prop_assert_eq!(&top[..], &all[..k.min(all.len())]);
    }

    /// Tokenizer output is always lowercase, non-empty, stop-word-free.
    #[test]
    fn tokenizer_invariants(text in "\\PC{0,200}") {
        let tok = Tokenizer::new();
        for token in tok.tokenize(&text) {
            prop_assert!(!token.is_empty());
            prop_assert!(token.chars().count() >= 2);
            prop_assert_eq!(token.to_lowercase(), token.clone());
            prop_assert!(!Tokenizer::is_stop_word(&token));
        }
    }

    /// Index construction: posting lists and doc lengths stay consistent
    /// for arbitrary small corpora.
    #[test]
    fn inverted_index_consistency(texts in vec("[a-z]{2,8}( [a-z]{2,8}){0,20}", 1..10)) {
        let docs: Vec<Document> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| Document::new(FileId::new(i as u64), t.clone()))
            .collect();
        let index = InvertedIndex::build(&docs);
        for (term, postings) in index.iter() {
            prop_assert!(!term.is_empty());
            for p in postings {
                prop_assert!(p.term_frequency >= 1);
                let len = index.doc_length(p.file).unwrap();
                prop_assert!(p.term_frequency <= len);
            }
        }
    }
}
