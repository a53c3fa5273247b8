//! Score dynamics across the whole deployment (paper §VII): live updates
//! against the cloud server, and the rebuild costs of the static baselines.

use rsse::baselines::bucket::{BucketError, BucketMapper};
use rsse::baselines::cdf::CdfMapper;
use rsse::cloud::{CloudServer, DataOwner, Deployment, FileCrypter, Message, SearchMode, Storage};
use rsse::core::{Rsse, RsseParams};
use rsse::crypto::SecretKey;
use rsse::ir::corpus::{CorpusParams, SyntheticCorpus};
use rsse::ir::{Document, FileId, InvertedIndex};

#[test]
fn live_update_through_the_deployment() {
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(41));
    let seed: &[u8] = b"dynamics seed";
    let cloud = Deployment::bootstrap(
        seed,
        RsseParams::default(),
        corpus.documents(),
        &Storage::Mem,
        CloudServer::DEFAULT_CACHE_BUDGET,
    )
    .unwrap();

    let before: Vec<u64> = {
        let (docs, _) = cloud.rsse_search("network", None).unwrap();
        docs.iter().map(|d| d.id().as_u64()).collect()
    };

    // The owner prepares an update for a new document and pushes it (plus
    // the encrypted file) to the server.
    let owner_scheme = Rsse::new(seed, RsseParams::default());
    let plain_index = InvertedIndex::build(corpus.documents());
    let updater = owner_scheme.updater_for(&plain_index).unwrap();
    let new_doc = Document::new(FileId::new(9001), "network incident report network");
    let update = updater.add_document(&new_doc).unwrap();
    let crypter = FileCrypter::new(seed);
    cloud
        .server()
        .apply_update(update, vec![crypter.encrypt(&new_doc)]);

    let (after_docs, _) = cloud.rsse_search("network", None).unwrap();
    let after: Vec<u64> = after_docs.iter().map(|d| d.id().as_u64()).collect();
    assert_eq!(after.len(), before.len() + 1);
    assert!(after.contains(&9001));
    for id in &before {
        assert!(after.contains(id), "existing match {id} lost after update");
    }
    // The new document's content round-trips.
    let fetched = after_docs
        .iter()
        .find(|d| d.id() == FileId::new(9001))
        .unwrap();
    assert_eq!(fetched.text(), "network incident report network");
}

#[test]
fn many_updates_never_perturb_existing_mapped_values() {
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(42));
    let scheme = Rsse::new(b"stability seed", RsseParams::default());
    let plain_index = InvertedIndex::build(corpus.documents());
    let mut enc = scheme.build_index_from(&plain_index).unwrap();
    let t = scheme.trapdoor("network").unwrap();
    let baseline = enc.search(&t, None);

    let updater = scheme.updater_for(&plain_index).unwrap();
    for i in 0..50u64 {
        let doc = Document::new(
            FileId::new(10_000 + i),
            format!("network update number {i} with network traffic"),
        );
        updater.add_document(&doc).unwrap().apply_to(&mut enc);
    }
    let now = enc.search(&t, None);
    assert_eq!(now.len(), baseline.len() + 50);
    for old in &baseline {
        assert!(
            now.iter().any(|r| r == old),
            "entry {old:?} changed across 50 updates"
        );
    }
    // Order is still globally valid by owner-side decryption; hoist one
    // decryptor instead of rebuilding a cold OPM per entry.
    let decryptor = scheme.score_decryptor(updater.opse_params());
    let mut prev = u64::MAX;
    for r in &now {
        let lvl = decryptor
            .decrypt_level("network", r.encrypted_score)
            .unwrap();
        assert!(lvl <= prev);
        prev = lvl;
    }
}

#[test]
fn update_entries_are_indistinguishable_in_size() {
    // Appended entries must look like original ones (same ciphertext size).
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(43));
    let scheme = Rsse::new(b"size seed", RsseParams::default());
    let plain_index = InvertedIndex::build(corpus.documents());
    let mut enc = scheme.build_index_from(&plain_index).unwrap();
    let t = scheme.trapdoor("network").unwrap();
    let before_len = enc.raw_list(t.label()).unwrap()[0].len();

    let updater = scheme.updater_for(&plain_index).unwrap();
    let doc = Document::new(FileId::new(5555), "network network");
    updater.add_document(&doc).unwrap().apply_to(&mut enc);
    let list = enc.raw_list(t.label()).unwrap();
    assert!(list.iter().all(|e| e.len() == before_len));
}

#[test]
fn static_bucketization_requires_rebuild_where_opm_does_not() {
    // Fit both mappings to the same original scores, then insert a score
    // outside the original support.
    let original: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
    let key = SecretKey::derive(b"contrast", "k");
    let bucket = BucketMapper::fit(&original, 10, 1 << 40, key.clone()).unwrap();
    let cdf = CdfMapper::train(&original, 1 << 40, key.clone()).unwrap();

    let new_score = 5.0; // far above the fitted domain
    assert!(matches!(
        bucket.map(new_score, b"new"),
        Err(BucketError::NeedsRebuild { .. })
    ));
    assert!(cdf.map(new_score, b"new").is_err());
    assert!(cdf.needs_retraining(&[new_score], 0.2));

    // The OPM handles the same situation natively: the quantizer clamps to
    // the top level and the mapping needs no refitting.
    use rsse::ir::ScoreQuantizer;
    use rsse::opse::{Opm, OpseParams};
    let quantizer = ScoreQuantizer::fit(&original, 128).unwrap();
    let opm = Opm::new(key, OpseParams::paper_default());
    let level = quantizer.level(new_score);
    assert_eq!(level, 128, "out-of-range scores clamp to the top level");
    let mapped = opm.encrypt(level, 2).unwrap();
    // And it still compares correctly against previously mapped scores.
    let old_mapped = opm.encrypt(quantizer.level(0.5), 1).unwrap();
    assert!(mapped > old_mapped);
}

#[test]
fn owner_and_fresh_user_agree_after_updates() {
    // A user authorized *after* updates must see the updated collection.
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(44));
    let seed: &[u8] = b"late user seed";
    let cloud = Deployment::bootstrap(
        seed,
        RsseParams::default(),
        corpus.documents(),
        &Storage::Mem,
        CloudServer::DEFAULT_CACHE_BUDGET,
    )
    .unwrap();
    let owner = DataOwner::new(seed, RsseParams::default());

    let plain_index = InvertedIndex::build(corpus.documents());
    let scheme = Rsse::new(seed, RsseParams::default());
    let updater = scheme.updater_for(&plain_index).unwrap();
    let new_doc = Document::new(FileId::new(7777), "network late addition");
    let update = updater.add_document(&new_doc).unwrap();
    let crypter = FileCrypter::new(seed);
    cloud
        .server()
        .apply_update(update, vec![crypter.encrypt(&new_doc)]);

    let late_user = owner.authorize_user();
    let request = late_user
        .search_request("network", None, SearchMode::Rsse)
        .unwrap();
    let response = cloud.server().handle(request).unwrap();
    let Message::RsseResponse { ranking, .. } = response else {
        panic!("wrong response type");
    };
    assert!(ranking.iter().any(|(id, _)| *id == 7777));
}
