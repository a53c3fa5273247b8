use super::*;
use crate::entry::decode_entry;
use crate::params::RangePolicy;
use rsse_crypto::SecretKey;
use rsse_ir::corpus::{CorpusParams, SyntheticCorpus};
use rsse_ir::score::scores_for_term;
use rsse_ir::FileId;

fn docs() -> Vec<Document> {
    vec![
        Document::new(FileId::new(1), "network routing network network packet"),
        Document::new(FileId::new(2), "network"),
        Document::new(FileId::new(3), "storage cloud cloud"),
        Document::new(FileId::new(4), "network cloud storage packet packet"),
        Document::new(FileId::new(5), "cloud network cloud packet"),
    ]
}

fn scheme() -> Rsse {
    Rsse::new(b"core test seed", RsseParams::default())
}

#[test]
fn server_side_ranking_matches_plaintext_order() {
    let s = scheme();
    let index = InvertedIndex::build(&docs());
    let enc = s.build_index_from(&index).unwrap();
    let t = s.trapdoor("network").unwrap();
    let got: Vec<FileId> = enc.search(&t, None).into_iter().map(|r| r.file).collect();

    // Oracle: rank by raw scores (descending), ties by quantized level are
    // possible, so compare *quantized level* order, which is what RSSE can
    // promise.
    let q = s.fit_quantizer(&index).unwrap();
    let mut plain = scores_for_term(&index, "network");
    plain.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let plain_levels: std::collections::HashMap<FileId, u64> =
        plain.iter().map(|(f, s)| (*f, q.level(*s))).collect();
    // The server's order must be non-increasing in true quantized level.
    let mut prev = u64::MAX;
    for f in &got {
        let lvl = plain_levels[f];
        assert!(lvl <= prev, "server order violates score order at {f}");
        prev = lvl;
    }
    assert_eq!(got.len(), plain.len());
}

#[test]
fn top_k_prefix_of_full_ranking() {
    let s = scheme();
    let enc = s.build_index(&docs()).unwrap();
    let t = s.trapdoor("network").unwrap();
    let all = enc.search(&t, None);
    for k in [0usize, 1, 2, 3, 10] {
        let top = enc.search(&t, Some(k));
        assert_eq!(top, all[..k.min(all.len())], "k={k}");
    }
}

#[test]
fn unknown_keyword_returns_empty() {
    let s = scheme();
    let enc = s.build_index(&docs()).unwrap();
    let t = s.trapdoor("zebra").unwrap();
    assert!(enc.search(&t, None).is_empty());
}

#[test]
fn padding_filtered_out() {
    let s = scheme();
    let enc = s.build_index(&docs()).unwrap();
    // "rout" appears once; list is padded to ν = 4 (network's length).
    let t = s.trapdoor("routing").unwrap();
    let hits = enc.search(&t, None);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].file, FileId::new(1));
}

#[test]
fn all_lists_share_padded_length() {
    let s = scheme();
    let enc = s.build_index(&docs()).unwrap();
    let lens: std::collections::HashSet<usize> = ["network", "cloud", "storage", "packet"]
        .iter()
        .map(|w| {
            let t = s.trapdoor(w).unwrap();
            enc.list_len(t.label()).unwrap()
        })
        .collect();
    assert_eq!(lens.len(), 1, "uniform ν expected, got {lens:?}");
}

#[test]
fn owner_can_decrypt_levels() {
    let s = scheme();
    let index = InvertedIndex::build(&docs());
    let enc = s.build_index_from(&index).unwrap();
    let opse = *enc.opse_params().unwrap();
    let t = s.trapdoor("network").unwrap();
    let q = s.fit_quantizer(&index).unwrap();
    for r in enc.search(&t, None) {
        let level = s.decrypt_level("network", opse, r.encrypted_score).unwrap();
        // The recovered level must equal the quantized plaintext score.
        let raw = scores_for_term(&index, "network")
            .into_iter()
            .find(|(f, _)| *f == r.file)
            .unwrap()
            .1;
        assert_eq!(level, q.level(raw), "file {}", r.file);
    }
}

#[test]
fn one_to_many_in_effect_across_lists() {
    // The same level mapped in different posting lists must use different
    // per-list keys and thus (almost surely) different values.
    let s = scheme();
    let index = InvertedIndex::build(&[
        Document::new(FileId::new(1), "alpha beta"),
        Document::new(FileId::new(2), "alpha beta"),
    ]);
    let enc = s.build_index_from(&index).unwrap();
    let ta = s.trapdoor("alpha").unwrap();
    let tb = s.trapdoor("beta").unwrap();
    let a: Vec<u64> = enc
        .search(&ta, None)
        .iter()
        .map(|r| r.encrypted_score)
        .collect();
    let b: Vec<u64> = enc
        .search(&tb, None)
        .iter()
        .map(|r| r.encrypted_score)
        .collect();
    assert_ne!(a, b, "per-list keys must randomize mapped values");
}

#[test]
fn build_report_statistics() {
    let s = scheme();
    let index = InvertedIndex::build(&docs());
    let (enc, report) = s.build_index_with_report(&index).unwrap();
    assert_eq!(report.num_keywords, index.num_keywords());
    assert_eq!(report.num_docs, 5);
    assert_eq!(report.index_bytes, enc.size_bytes());
    assert!(report.opm_operations > 0);
    assert_eq!(report.range_bits, 46);
    assert!(report.per_keyword_bytes() > 0.0);
    assert!(report.build_time >= report.raw_index_time);
}

#[test]
fn parallel_build_equals_serial_build() {
    // Enough lists that four workers interleave on the shared queue.
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(5));
    let index = InvertedIndex::build(corpus.documents());
    let s = scheme();
    let (serial, one) = s.build_on(&index, 1).unwrap();
    let (parallel, four) = s.build_on(&index, 4).unwrap();
    assert_eq!((one.workers, four.workers), (1, 4));
    assert_eq!(one.opm_operations, four.opm_operations);
    assert_eq!(
        serial.export_parts().unwrap(),
        parallel.export_parts().unwrap()
    );
}

#[test]
fn build_parts_are_the_built_index_exported() {
    // The owner ships `build_parts` where it used to export a built index:
    // same lists in the same order, same OPSE parameters, same report.
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(5));
    let index = InvertedIndex::build(corpus.documents());
    let s = scheme();
    let BuiltParts {
        shards,
        opse,
        report,
        ..
    } = s.build_parts(&index, 1, |_| 0).unwrap();
    let (built, built_report) = s.build_index_with_report(&index).unwrap();
    assert_eq!(shards, [built.export_parts().unwrap()]);
    assert_eq!(Some(&opse), built.opse_params());
    assert_eq!(report.index_bytes, built.size_bytes());
    assert_eq!(report.opm_operations, built_report.opm_operations);
    // §IV-C's duplicate ratio, from a quantizer fitted and terms scored
    // afresh: the largest multiplicity of one level in a list over λ.
    let p = s.params();
    let q = ScoreQuantizer::fit_index_with(&index, p.levels, p.scoring).unwrap();
    let max_dup = index
        .iter()
        .map(|(term, _)| {
            let mut counts = HashMap::new();
            for (_, score) in scores_for_term_with(&index, term, p.scoring) {
                *counts.entry(q.level(score)).or_insert(0usize) += 1;
            }
            counts.into_values().max().unwrap_or(0)
        })
        .max()
        .unwrap();
    assert_eq!(
        opse,
        p.resolve_opse(max_dup as f64 / index.avg_posting_len())
    );
    // The updater resolves the parameters the build did.
    assert_eq!(s.updater_for(&index).unwrap().opse_params(), opse);
    assert_eq!(
        s.updater_for(&index).unwrap().quantizer,
        s.fit_quantizer(&index).unwrap()
    );
}

/// An entry in the 16-byte-nonce layout `SemanticCipher::decrypt` reads:
/// its 8-byte nonce widened to `nonce ‖ 0^64`, then its body.
fn widened(entry: &[u8]) -> Vec<u8> {
    [&entry[..8], &[0u8; 8], &entry[8..]].concat()
}

#[test]
fn partitioned_build_deals_out_the_one_build() {
    // Cut into shards as it is encrypted, the build equals the unsharded
    // lists dealt out entry by entry: a real entry to its file's shard,
    // padding position p to shard p % n, list order kept, every label on
    // every shard (empty slices included), and a shard's filter naming
    // exactly the labels it holds a real entry for. One shard is the
    // whole build.
    let tiny = [
        Document::new(FileId::new(1), "alpha beta"),
        Document::new(FileId::new(2), "alpha gamma"),
        Document::new(FileId::new(3), "alpha delta"),
        Document::new(FileId::new(4), "epsilon"),
    ];
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(5));
    let s = scheme();
    let n = 3;
    let shard_of = |file: FileId| (file.as_u64() % n as u64) as usize;
    let mut empty_slices = 0;
    for docs in [&tiny[..], corpus.documents()] {
        let index = InvertedIndex::build(docs);
        let whole = s.build_index_with_report(&index).unwrap().0;
        let whole = whole.export_parts().unwrap();
        let one = s.build_parts(&index, 1, |_| 0).unwrap();
        assert_eq!(one.shards, std::slice::from_ref(&whole));
        let labels: Vec<Label> = whole.iter().map(|(label, ..)| *label).collect();
        assert_eq!(one.real_labels, [labels]);

        let built = s.build_parts(&index, n, shard_of).unwrap();
        assert_eq!(built.opse, one.opse);
        assert_eq!(built.report.index_bytes, one.report.index_bytes);
        // Real entries are the ones that decrypt under the list's key.
        let ciphers: HashMap<Label, SemanticCipher> = index
            .iter()
            .map(|(term, _)| {
                let label = KeyedLabel::new(s.keys.label_key()).label(term.as_bytes());
                let key = Prf::new(s.keys.entry_key()).derive_key(term.as_bytes());
                (label, SemanticCipher::new(&key))
            })
            .collect();
        let mut want: Vec<ListParts> = vec![Vec::new(); n];
        let mut want_real: Vec<Vec<Label>> = vec![Vec::new(); n];
        for (label, entry_len, list) in &whole {
            let mut slices = vec![Vec::new(); n];
            let mut real = vec![false; n];
            for (p, entry) in list.chunks_exact(ENTRY_CT_LEN).enumerate() {
                let plain = ciphers[label].decrypt(&widened(entry)).unwrap();
                let shard = match decode_entry(&plain) {
                    Some((file, _)) => shard_of(file),
                    None => p % n,
                };
                real[shard] |= decode_entry(&plain).is_some();
                slices[shard].extend_from_slice(entry);
            }
            for (shard, bytes) in slices.into_iter().enumerate() {
                if real[shard] {
                    want_real[shard].push(*label);
                }
                want[shard].push((*label, *entry_len, bytes));
            }
        }
        assert_eq!(built.shards, want);
        assert_eq!(built.real_labels, want_real);
        empty_slices += built
            .shards
            .iter()
            .flatten()
            .filter(|(_, _, bytes)| bytes.is_empty())
            .count();
    }
    assert!(empty_slices > 0, "some shard holds an empty slice");
}

#[test]
fn score_dynamics_append_preserves_old_entries_and_order() {
    let s = scheme();
    let index = InvertedIndex::build(&docs());
    let mut enc = s.build_index_from(&index).unwrap();
    let t = s.trapdoor("network").unwrap();
    let before = enc.search(&t, None);

    // Insert a new document containing "network" heavily: it should rank
    // first without disturbing the existing mapped values.
    let updater = s.updater_for(&index).unwrap();
    let new_doc = Document::new(
        FileId::new(99),
        "network network network network network network",
    );
    let update = updater.add_document(&new_doc).unwrap();
    assert!(update.num_ops() >= 1);
    update.apply_to(&mut enc);

    let after = enc.search(&t, None);
    assert_eq!(after.len(), before.len() + 1);
    // Old entries keep their exact mapped values.
    for old in &before {
        assert!(
            after.iter().any(|r| r == old),
            "old entry {old:?} was perturbed by the update"
        );
    }
    // The new all-network document has tf=6 over 6 terms → score (1+ln6)/6 ≈
    // 0.465 — not necessarily first, but it must be present and correctly
    // ordered: verify order by owner-side decryption.
    let opse = updater.opse_params();
    let mut prev = u64::MAX;
    for r in &after {
        let lvl = s.decrypt_level("network", opse, r.encrypted_score).unwrap();
        assert!(lvl <= prev);
        prev = lvl;
    }
    assert!(after.iter().any(|r| r.file == FileId::new(99)));
}

#[test]
fn empty_collection_is_unscorable() {
    let s = scheme();
    assert!(matches!(
        s.build_index(&[]),
        Err(RsseError::UnscorableCollection)
    ));
}

#[test]
fn fixed_padding_too_small_rejected() {
    let params = RsseParams {
        padding: Padding::Fixed(1),
        ..RsseParams::default()
    };
    let s = Rsse::new(b"seed", params);
    assert!(matches!(
        s.build_index(&docs()),
        Err(RsseError::PaddingTooSmall { .. })
    ));
}

#[test]
fn no_padding_mode_exposes_true_lengths() {
    let params = RsseParams {
        padding: Padding::None,
        ..RsseParams::default()
    };
    let s = Rsse::new(b"seed", params);
    let enc = s.build_index(&docs()).unwrap();
    let t_net = s.trapdoor("network").unwrap();
    let t_storage = s.trapdoor("storage").unwrap();
    assert_ne!(enc.list_len(t_net.label()), enc.list_len(t_storage.label()));
}

#[test]
fn auto_range_policy_builds() {
    let s = Rsse::new(b"seed", RsseParams::auto_range());
    let enc = s.build_index(&docs()).unwrap();
    let bits = enc.opse_params().unwrap().range_bits();
    assert!((7..=52).contains(&bits), "auto range {bits} bits");
    let t = s.trapdoor("network").unwrap();
    assert_eq!(enc.search(&t, None).len(), 4);
}

#[test]
fn stemmed_queries_hit_index_terms() {
    let s = scheme();
    let enc = s.build_index(&docs()).unwrap();
    for query in ["Networks", "networking", "NETWORK"] {
        let t = s.trapdoor(query).unwrap();
        assert!(!enc.search(&t, Some(1)).is_empty(), "{query}");
    }
    assert!(matches!(s.trapdoor("the and"), Err(RsseError::EmptyQuery)));
}

#[test]
fn wrong_list_key_reveals_nothing() {
    let s = scheme();
    let enc = s.build_index(&docs()).unwrap();
    let t = s.trapdoor("network").unwrap();
    let forged = RsseTrapdoor::from_parts(*t.label(), SecretKey::derive(b"wrong", "k"));
    assert!(enc.search(&forged, None).is_empty());
}

#[test]
fn deterministic_rebuild() {
    let s = scheme();
    let index = InvertedIndex::build(&docs());
    let a = s.build_index_from(&index).unwrap();
    let b = s.build_index_from(&index).unwrap();
    let t = s.trapdoor("cloud").unwrap();
    assert_eq!(a.raw_list(t.label()), b.raw_list(t.label()));
}

#[test]
fn custom_levels_respected() {
    let params = RsseParams {
        levels: 32,
        range: RangePolicy::Fixed(1 << 20),
        ..RsseParams::default()
    };
    let s = Rsse::new(b"seed", params);
    let index = InvertedIndex::build(&docs());
    let enc = s.build_index_from(&index).unwrap();
    let opse = enc.opse_params().unwrap();
    assert_eq!(opse.domain_size(), 32);
    assert_eq!(opse.range_size(), 1 << 20);
}
