//! Failure injection: corrupted frames, forged credentials, hostile
//! inputs. Everything must fail closed — errors, never panics or silent
//! wrong answers.

use bytes_shim::corrupt_each_byte;
use rsse::cloud::{CloudServer, Deployment, Message, SearchMode, Storage};
use rsse::core::{Rsse, RsseParams, RsseTrapdoor};
use rsse::crypto::SecretKey;
use rsse::ir::corpus::{CorpusParams, SyntheticCorpus};
use rsse::ir::{Document, FileId};

mod bytes_shim {
    /// Yields copies of `frame` with one byte flipped at a sample of
    /// positions (full sweep is O(n²) on decode; sampling keeps CI fast).
    pub fn corrupt_each_byte(frame: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        let step = (frame.len() / 64).max(1);
        (0..frame.len()).step_by(step).map(move |i| {
            let mut copy = frame.to_vec();
            copy[i] ^= 0x01;
            copy
        })
    }
}

fn small_deployment(seed: u64) -> Deployment {
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(seed));
    Deployment::bootstrap(
        b"failure seed",
        RsseParams::default(),
        corpus.documents(),
        &Storage::Mem,
        CloudServer::DEFAULT_CACHE_BUDGET,
    )
    .unwrap()
}

#[test]
fn corrupted_search_frames_never_panic_the_server() {
    let cloud = small_deployment(31);
    let server = cloud.server();
    let request = cloud
        .user()
        .search_request("network", Some(5), SearchMode::Rsse)
        .unwrap();
    let frame = request.encode().to_vec();
    let mut decoded_ok = 0;
    for corrupted in corrupt_each_byte(&frame) {
        // Either the frame fails to decode, or it decodes to a (valid but
        // different) message the server answers without panicking.
        if let Ok(msg) = Message::decode(bytes::BytesMut::from(&corrupted[..])) {
            decoded_ok += 1;
            let _ = server.handle(msg);
        }
    }
    // Some corruptions only touch the label/key bytes and still decode.
    assert!(decoded_ok > 0, "sanity: some corruptions remain decodable");
}

#[test]
fn forged_trapdoor_key_yields_empty_results_not_garbage() {
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(32));
    let scheme = Rsse::new(b"victim seed", RsseParams::default());
    let enc = scheme.build_index(corpus.documents()).unwrap();
    let real = scheme.trapdoor("network").unwrap();
    // Right label, wrong key: entries decrypt to garbage; the validity
    // marker rejects every one.
    for guess in 0..20u64 {
        let forged = RsseTrapdoor::from_parts(
            *real.label(),
            SecretKey::derive(b"brute force", &guess.to_string()),
        );
        assert!(enc.search(&forged, None).is_empty(), "guess {guess}");
    }
}

#[test]
fn unauthorized_user_with_wrong_seed_finds_nothing() {
    let cloud = small_deployment(33);
    let intruder = rsse::cloud::User::new(b"not the real seed", RsseParams::default());
    let request = intruder
        .search_request("network", Some(5), SearchMode::Rsse)
        .unwrap();
    let response = cloud.server().handle(request).unwrap();
    let Message::RsseResponse { ranking, files } = response else {
        panic!("wrong response type");
    };
    assert!(ranking.is_empty() && files.is_empty());
}

#[test]
fn server_rejects_out_of_protocol_messages() {
    let cloud = small_deployment(34);
    // An Outsource message sent to the request handler is out of protocol.
    let bogus = Message::Outsource {
        rsse_lists: vec![],
        basic_lists: vec![],
        opse_domain: 128,
        opse_range: 1 << 46,
        files: vec![],
    };
    assert!(cloud.server().handle(bogus).is_err());
    // And a server cannot be booted from a non-Outsource message.
    assert!(CloudServer::from_outsource(Message::FetchFiles { ids: vec![] }).is_err());
}

#[test]
fn server_with_inconsistent_opse_parameters_fails_closed() {
    let bad = Message::Outsource {
        rsse_lists: vec![],
        basic_lists: vec![],
        opse_domain: 128,
        opse_range: 2, // range < domain
        files: vec![],
    };
    assert!(CloudServer::from_outsource(bad).is_err());
}

#[test]
fn fetch_of_unknown_files_returns_only_known_ones() {
    let cloud = small_deployment(35);
    let response = cloud
        .server()
        .handle(Message::FetchFiles {
            ids: vec![1, 999_999, 2],
        })
        .unwrap();
    let Message::FilesResponse { files } = response else {
        panic!("wrong response type");
    };
    let ids: Vec<u64> = files.iter().map(|f| f.id().as_u64()).collect();
    assert_eq!(ids, vec![1, 2]);
}

#[test]
fn empty_collection_is_rejected_at_build_time() {
    let scheme = Rsse::new(b"seed", RsseParams::default());
    assert!(scheme.build_index(&[]).is_err());
}

#[test]
fn degenerate_documents_survive_the_pipeline() {
    // Documents that tokenize to nothing must not break indexing of others.
    let docs = vec![
        Document::new(FileId::new(1), "!!! ??? ..."),
        Document::new(FileId::new(2), "the of and"),
        Document::new(FileId::new(3), "actual content words here"),
    ];
    let scheme = Rsse::new(b"seed", RsseParams::default());
    let enc = scheme.build_index(&docs).unwrap();
    let t = scheme.trapdoor("content").unwrap();
    let hits = enc.search(&t, None);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].file, FileId::new(3));
}

#[test]
fn hostile_opm_inputs_error_not_panic() {
    use rsse::opse::{Opm, OpseParams};
    let opm = Opm::new(
        SecretKey::derive(b"seed", "hostile"),
        OpseParams::new(16, 1 << 20).unwrap(),
    );
    assert!(opm.encrypt(0, b"f").is_err());
    assert!(opm.encrypt(17, b"f").is_err());
    assert!(opm.decrypt(0).is_err());
    assert!(opm.decrypt((1 << 20) + 1).is_err());
    // Sweep ciphertext space corners: all either decrypt or error cleanly.
    for c in [1u64, 2, (1 << 20) - 1, 1 << 20] {
        let _ = opm.decrypt(c);
    }
}

#[test]
fn update_for_unknown_empty_document_is_rejected() {
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(36));
    let scheme = Rsse::new(b"seed", RsseParams::default());
    let index = rsse::ir::InvertedIndex::build(corpus.documents());
    let updater = scheme.updater_for(&index).unwrap();
    let empty = Document::new(FileId::new(777), "the !!!");
    assert!(updater.add_document(&empty).is_err());
}
