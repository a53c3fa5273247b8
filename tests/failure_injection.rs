//! Failure injection: corrupted frames, forged credentials, hostile
//! inputs. Everything must fail closed — errors, never panics or silent
//! wrong answers.

use bytes_shim::corrupt_each_byte;
use rsse::cloud::{
    CloudError, CloudServer, DataOwner, Deployment, EncryptedFile, ErrorKind, Message,
    MeteredChannel, SearchMode, Storage,
};
use rsse::core::entry::ENTRY_CT_LEN;
use rsse::core::persist::{MAGIC_V2, MAGIC_V3};
use rsse::core::{Label, Rsse, RsseError, RsseIndex, RsseParams, RsseTrapdoor};
use rsse::crypto::SecretKey;
use rsse::ir::corpus::{CorpusParams, SyntheticCorpus};
use rsse::ir::{Document, FileId};
use rsse::opse::OpseParams;
use rsse::sse::SseError;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

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
    assert!(opm.encrypt(0, 1).is_err());
    assert!(opm.encrypt(17, 1).is_err());
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

/// The label a search for `keyword` asks the server about.
fn label_of(cloud: &Deployment, keyword: &str) -> Label {
    match cloud.user().search_request(keyword, None, SearchMode::Rsse) {
        Ok(Message::SearchRequest { label, .. }) => label,
        other => panic!("no search request for {keyword}: {other:?}"),
    }
}

#[test]
fn malformed_update_is_rejected_and_changes_nothing() {
    let cloud = small_deployment(37);
    let server = cloud.server();
    // Warm the ranking cache, then note everything an update touches.
    let (before, _) = cloud.rsse_search("network", Some(5)).unwrap();
    let label = label_of(&cloud, "network");
    let list_len = server.rsse_index().list_len(&label);
    let files = server.num_files();
    let epoch = server.filter_watch().load(Ordering::Acquire);
    let invalidations = server.cache_stats().invalidations;
    let rsse_len = ENTRY_CT_LEN as u32;
    let hostile = [
        (label, 40, vec![7u8; 80]), // 40-byte entries, the layout before 32
        (label, rsse_len, vec![7u8; ENTRY_CT_LEN + 10]), // not a whole number of entries
        (label, 0, vec![7u8; 3]),   // bytes under an entry length of 0
    ];
    for list in hostile {
        let update = Message::Update {
            rsse_lists: vec![list],
            files: vec![EncryptedFile::new(FileId::new(9_999), vec![1; 32])],
        };
        match cloud.round_trip(&mut MeteredChannel::new(), update) {
            Err(CloudError::Server {
                kind: ErrorKind::Rejected,
                ..
            }) => {}
            other => panic!("expected a Rejected error frame, got {other:?}"),
        }
    }
    assert_eq!(server.num_files(), files, "no file ingested");
    assert_eq!(server.rsse_index().list_len(&label), list_len, "no entry");
    assert_eq!(server.filter_watch().load(Ordering::Acquire), epoch);
    assert_eq!(server.cache_stats().invalidations, invalidations);
    let report = server.serving_report();
    assert_eq!((report.updates, report.rejected, report.panics), (0, 3, 0));
    let (after, _) = cloud.rsse_search("network", Some(5)).unwrap();
    assert_eq!(after, before);
}

#[test]
fn hostile_outsource_lists_fail_boot_with_a_typed_error() {
    let outsource = |rsse_lists: Vec<(Label, u32, Vec<u8>)>, basic_lists| Message::Outsource {
        rsse_lists,
        basic_lists,
        opse_domain: 128,
        opse_range: 1 << 46,
        files: vec![],
    };
    let rsse_len = ENTRY_CT_LEN as u32;
    let good = ([1u8; 20], rsse_len, vec![1u8; 2 * ENTRY_CT_LEN]);
    let rsse_cases = [
        ([2u8; 20], 0, vec![2u8; 3]), // bytes under an entry length of 0
        ([2u8; 20], rsse_len, vec![2u8; ENTRY_CT_LEN + 1]), // not a whole number of entries
        ([2u8; 20], 40, vec![2u8; 80]), // whole, but 40-byte entries, the layout before 32
    ];
    let dir = std::env::temp_dir().join(format!("rsse_hostile_boot_{}", std::process::id()));
    for bad in rsse_cases {
        let msg = outsource(vec![good.clone(), bad.clone()], vec![]);
        match CloudServer::boot(msg, &Storage::Generational(dir.clone()), 0) {
            Err(CloudError::Rsse(RsseError::MalformedList(label))) => assert_eq!(label, bad.0),
            other => panic!("expected MalformedList, got {other:?}"),
        }
        assert!(!dir.exists(), "a refused boot writes no store");
    }
    let basic_cases = [
        ([3u8; 20], 0, vec![3u8; 5]),   // bytes under an entry length of 0
        ([3u8; 20], 56, vec![3u8; 57]), // not a whole number of entries
        ([3u8; 20], 40, vec![3u8; 80]), // whole, but 40-byte entries
    ];
    for bad in basic_cases {
        let msg = outsource(vec![good.clone()], vec![bad]);
        assert!(matches!(
            CloudServer::from_outsource(msg),
            Err(CloudError::Sse(SseError::MalformedList(label))) if label == [3u8; 20]
        ));
    }
    // An empty list under entry length 0 stays legal.
    let empty = outsource(vec![good, ([4u8; 20], 0, vec![])], vec![]);
    let server = CloudServer::from_outsource(empty).unwrap();
    assert_eq!(server.rsse_index().list_len(&[4u8; 20]), Some(0));
}

/// A fresh temp path for this test process.
fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rsse_{tag}_{}", std::process::id()))
}

/// An index file of `lists` — `(label, entry length, entry count)`, every
/// byte of a list's entries its label's first byte — written byte by byte
/// from the format under `magic`. An `RSSEIDX3` list is its entries back
/// to back; an `RSSEIDX2` list has `label | u64 count` before it and each
/// entry's u64 length before the entry. Then one directory record per
/// list — label, offset of its first entry (or length prefix), byte
/// length, entry count — and the directory's offset.
fn index_file(magic: &[u8; 8], lists: &[(Label, usize, u64)]) -> Vec<u8> {
    let v2 = magic == MAGIC_V2;
    let header = [128, 1 << 46, lists.len() as u64].map(u64::to_be_bytes);
    let mut file = [&magic[..], &header.concat()].concat();
    let mut directory = Vec::new();
    for &(label, entry_len, count) in lists {
        if v2 {
            file.extend_from_slice(&label);
            file.extend_from_slice(&count.to_be_bytes());
        }
        let offset = file.len() as u64;
        for _ in 0..count {
            if v2 {
                file.extend_from_slice(&(entry_len as u64).to_be_bytes());
            }
            file.extend_from_slice(&vec![label[0]; entry_len]);
        }
        directory.extend_from_slice(&label);
        for field in [offset, file.len() as u64 - offset, count] {
            directory.extend_from_slice(&field.to_be_bytes());
        }
    }
    let dir_offset = (file.len() as u64).to_be_bytes();
    [file, directory, dir_offset.to_vec()].concat()
}

/// A generational store at a fresh temp path whose one generation, the
/// base, is the file `base`.
fn store_with_base(tag: &str, base: &[u8]) -> PathBuf {
    let dir = temp_path(tag);
    let _ = std::fs::remove_dir_all(&dir);
    RsseIndex::default().save_generational(&dir).unwrap();
    std::fs::write(dir.join("gen-000000.seg"), base).unwrap();
    dir
}

/// Every file of the store at `dir` with its bytes, by name.
fn store_files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<_> = (std::fs::read_dir(dir).unwrap())
        .map(|entry| entry.unwrap().path())
        .map(|path| (path.clone(), std::fs::read(path).unwrap()))
        .collect();
    files.sort();
    files
}

#[test]
fn reopen_refuses_a_store_of_another_entry_length() {
    // A store written in the 40-byte entry layout beside a list of the
    // scheme's entries: served, it would rank nothing from the first list
    // and panic on an update to it, so the warm restart refuses it.
    let (old, new) = ([1u8; 20], [2u8; 20]);
    let file = index_file(MAGIC_V3, &[(old, 40, 2), (new, ENTRY_CT_LEN, 2)]);
    let dir = store_with_base("reopen_old_layout", &file);
    match CloudServer::reopen(&dir, vec![], 0) {
        Err(CloudError::Rsse(RsseError::MalformedList(label))) => assert_eq!(label, old),
        other => panic!("expected MalformedList, got {other:?}"),
    }
    // The same lists as an Outsource frame fail boot with the same error.
    let msg = Message::Outsource {
        rsse_lists: vec![
            (old, 40, vec![1u8; 80]),
            (new, ENTRY_CT_LEN as u32, vec![2u8; 2 * ENTRY_CT_LEN]),
        ],
        basic_lists: vec![],
        opse_domain: 128,
        opse_range: 1 << 46,
        files: vec![],
    };
    assert!(matches!(
        CloudServer::from_outsource(msg),
        Err(CloudError::Rsse(RsseError::MalformedList(label))) if label == old
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_door_refuses_a_list_of_another_entry_length() {
    // A list of 40-byte entries, the layout before 32, beside one of the
    // scheme's entries, at every door a list enters an index by.
    let (good, old) = ([1u8; 20], [2u8; 20]);
    let good_list = (good, ENTRY_CT_LEN as u32, vec![1u8; 2 * ENTRY_CT_LEN]);
    let old_list = (old, 40, vec![2u8; 80]);
    let opse = OpseParams::new(128, 1 << 46).unwrap();
    let refused = |door: &str, result: Result<(), CloudError>| match result {
        Err(CloudError::Rsse(RsseError::MalformedList(label))) if label == old => {}
        other => panic!("{door}: expected MalformedList naming the list, got {other:?}"),
    };
    let outsource = |rsse_lists| Message::Outsource {
        rsse_lists,
        basic_lists: vec![],
        opse_domain: 128,
        opse_range: 1 << 46,
        files: vec![],
    };
    let both = vec![good_list.clone(), old_list.clone()];

    // The wire's doors: an Outsource frame's lists, an append, an Update.
    let parts = RsseIndex::from_parts(both.clone(), opse);
    refused("from_parts", parts.map(drop).map_err(Into::into));
    let boot = |storage| CloudServer::boot(outsource(both.clone()), storage, 0).map(drop);
    refused("boot in memory", boot(&Storage::Mem));
    let fresh = temp_path("door_boot");
    refused(
        "boot onto a store",
        boot(&Storage::Generational(fresh.clone())),
    );
    assert!(!fresh.exists(), "a refused boot writes no store");
    let mut index = RsseIndex::from_parts(vec![good_list.clone()], opse).unwrap();
    let before = index.export_parts();
    let append = index.append_entries(old, 40, &old_list.2);
    refused("append_entries", append.map_err(Into::into));
    assert_eq!(
        index.export_parts(),
        before,
        "a refused append changes nothing"
    );
    let server = CloudServer::from_outsource(outsource(vec![good_list.clone()])).unwrap();
    let update = Message::Update {
        rsse_lists: vec![old_list.clone()],
        files: vec![],
    };
    refused("an Update frame", server.handle(update).map(drop));
    assert_eq!(server.rsse_index().export_parts(), before);

    // The file's doors: the one reader behind load, open_generational and
    // reopen, in either format.
    for magic in [MAGIC_V3, MAGIC_V2] {
        let name = String::from_utf8_lossy(magic).into_owned();
        let file = index_file(magic, &[(good, ENTRY_CT_LEN, 2), (old, 40, 2)]);
        let load = RsseIndex::load(&file[..]).map(drop);
        refused(&format!("load {name}"), load.map_err(Into::into));
        let dir = store_with_base(&format!("door_{name}"), &file);
        let stored = store_files(&dir);
        let open = RsseIndex::open_generational(&dir).map(drop);
        refused(
            &format!("open_generational {name}"),
            open.map_err(Into::into),
        );
        let reopen = CloudServer::reopen(&dir, vec![], 0).map(drop);
        refused(&format!("reopen {name}"), reopen);
        assert_eq!(store_files(&dir), stored, "a refused open writes nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn searches_over_a_generation_cut_short_answer_an_error() {
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(39));
    let dir = temp_path("cut_short_server");
    let _ = std::fs::remove_dir_all(&dir);
    let cloud = Deployment::bootstrap(
        b"failure seed",
        RsseParams::default(),
        corpus.documents(),
        &Storage::Generational(dir.clone()),
        CloudServer::DEFAULT_CACHE_BUDGET,
    )
    .unwrap();
    let (server, user) = (cloud.server(), cloud.user());
    let search = || user.search_request("network", Some(5), SearchMode::Rsse);
    let Ok(Message::SearchRequest {
        label, list_key, ..
    }) = search()
    else {
        panic!("no search request");
    };
    let Ok(Message::ConjunctiveRequest { trapdoors, .. }) =
        user.conjunctive_request("network protocol", Some(5))
    else {
        panic!("no conjunctive request");
    };
    let requests = || {
        [
            ("SearchRequest", search().unwrap()),
            (
                "ShardQuery",
                Message::ShardQuery {
                    label,
                    list_key,
                    top_k: Some(5),
                    shard_id: 0,
                },
            ),
            (
                "BatchRequest",
                Message::BatchRequest {
                    queries: vec![(label, list_key, Some(5))],
                    shard_id: None,
                },
            ),
            (
                "ConjunctiveRequest",
                Message::ConjunctiveRequest {
                    trapdoors: trapdoors.clone(),
                    top_k: Some(5),
                },
            ),
            (
                "ConjunctiveShardQuery",
                Message::ConjunctiveShardQuery {
                    trapdoors: trapdoors.clone(),
                    top_k: Some(5),
                    shard_id: 0,
                },
            ),
        ]
    };

    // Cut the base generation to its header behind the live store. Each
    // arm answers twice: a first answer that filled a cache would make the
    // second a hit.
    let base = std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join("gen-000000.seg"));
    base.unwrap().set_len(32).unwrap();
    for _ in 0..2 {
        for (arm, request) in requests() {
            match server.handle(request) {
                Err(CloudError::Rsse(RsseError::StoreRead(_))) => {}
                other => panic!("{arm}: expected a StoreRead error, got {other:?}"),
            }
        }
    }
    let (ranking, conjunctive) = (server.cache_stats(), server.conjunctive_cache_stats());
    assert_eq!(
        ranking.hits + conjunctive.hits,
        0,
        "an unreadable list filled a cache"
    );
    // Every probe is counted once, in the caches and the audit alike,
    // failed frames included.
    let report = server.serving_report();
    let misses = ranking.misses + conjunctive.misses;
    assert_eq!(
        (report.cache_hits, report.cache_misses, misses),
        (0, 10, 10)
    );
    drop(cloud);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn servers_without_a_basic_index_reject_basic_searches() {
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(38));
    let seed: &[u8] = b"failure seed";
    let rejected = |r: Result<_, CloudError>| {
        matches!(
            r,
            Err(CloudError::Server {
                kind: ErrorKind::Rejected,
                ..
            })
        )
    };

    // By default the owner ships the RSSE index alone.
    let owner = DataOwner::new(seed, RsseParams::default());
    let Message::Outsource { basic_lists, .. } = owner.outsource(corpus.documents()).unwrap()
    else {
        panic!("outsource emits an Outsource frame");
    };
    assert!(basic_lists.is_empty());
    let lean = Deployment::bootstrap(
        seed,
        RsseParams::default(),
        corpus.documents(),
        &Storage::Mem,
        0,
    )
    .unwrap();
    assert!(rejected(lean.basic_search_full("network").map(|_| ())));
    assert!(rejected(lean.basic_search_top_k("network", 3).map(|_| ())));
    assert!(!lean.rsse_search("network", Some(3)).unwrap().0.is_empty());

    // A reopened store persists the RSSE index only.
    let dir = std::env::temp_dir().join(format!("rsse_reopen_basic_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let booted = Deployment::bootstrap_with_basic(
        seed,
        RsseParams::default(),
        corpus.documents(),
        &Storage::Generational(dir.clone()),
        0,
    )
    .unwrap();
    assert!(booted.basic_search_full("network").is_ok());
    drop(booted);
    let reopened =
        Deployment::reopen(seed, RsseParams::default(), corpus.documents(), &dir, 0).unwrap();
    assert!(rejected(reopened.basic_search_full("network").map(|_| ())));
    assert!(rejected(
        reopened.basic_search_top_k("network", 3).map(|_| ())
    ));
    assert!(!reopened
        .rsse_search("network", Some(3))
        .unwrap()
        .0
        .is_empty());
    let _ = std::fs::remove_dir_all(&dir);

    // A shard's Outsource frame carries no basic lists.
    let shard = CloudServer::from_outsource(Message::Outsource {
        rsse_lists: vec![],
        basic_lists: vec![],
        opse_domain: 128,
        opse_range: 1 << 46,
        files: vec![],
    })
    .unwrap();
    let request = reopened
        .user()
        .search_request("network", None, SearchMode::BasicEntries)
        .unwrap();
    let err = shard.handle(request).unwrap_err();
    assert_eq!(err.wire_kind(), ErrorKind::Rejected);
}
