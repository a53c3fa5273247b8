//! Behavioural tests of the TCP event loop: pipelined out-of-order
//! completion matched by sequence id, slow-reader backpressure isolated
//! to its own connection, overload shedding with the canonical frame,
//! garbled-stream hygiene, and replies or requests over the frame cap
//! (the last refused on the channel transport too).

use rsse_cloud::entities::{CloudServer, DataOwner};
use rsse_cloud::server_loop::{Fault, PoolOptions, ServerHandle};
use rsse_cloud::tcp::{TcpServer, TcpServerOptions, TcpTransport};
use rsse_cloud::transport::{ChannelTransport, Connection, Transport};
use rsse_cloud::{CloudError, CodecError, EncryptedFile, ErrorKind, Message, SearchMode};
use rsse_core::RsseParams;
use rsse_ir::corpus::{CorpusParams, SyntheticCorpus};
use rsse_ir::FileId;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: &[u8] = b"tcp transport seed";
const TIMEOUT: Duration = Duration::from_secs(30);

fn spawn(options: TcpServerOptions) -> (DataOwner, TcpServer) {
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(61));
    let owner = DataOwner::new(SEED, RsseParams::default());
    let server = Arc::new(
        CloudServer::from_outsource(owner.outsource(corpus.documents()).unwrap()).unwrap(),
    );
    let tcp = TcpServer::spawn(server, options).unwrap();
    (owner, tcp)
}

fn decode(body: &[u8]) -> Message {
    Message::decode(bytes::BytesMut::from(body)).unwrap()
}

#[test]
fn out_of_order_completions_are_matched_by_sequence_id() {
    // Two workers; FetchFiles requests are wedged for 300ms, so a search
    // pipelined *behind* a fetch completes first. The replies must carry
    // their request's sequence ids, and recv_seq must deliver the late
    // fetch even after the search overtook it.
    let options =
        TcpServerOptions::new(2, 32).with_pool(PoolOptions::new(2, 32).with_fault(|msg| {
            matches!(msg, Message::FetchFiles { .. })
                .then_some(Fault::Stall(Duration::from_millis(300)))
        }));
    let (owner, server) = spawn(options);
    let transport = TcpTransport::new(server.addr());
    let mut conn = transport.dial().unwrap();
    let user = owner.authorize_user();

    let slow_seq = conn.send(Message::FetchFiles { ids: vec![1] }).unwrap();
    let fast_seq = conn
        .send(
            user.search_request("network", Some(3), SearchMode::Rsse)
                .unwrap(),
        )
        .unwrap();
    assert_ne!(slow_seq, fast_seq);

    let (first_seq, first_body) = conn.recv_any(TIMEOUT).unwrap();
    assert_eq!(
        first_seq, fast_seq,
        "the unwedged search must overtake the stalled fetch"
    );
    assert!(matches!(decode(&first_body), Message::RsseResponse { .. }));

    let slow_body = conn.recv_seq(slow_seq, TIMEOUT).unwrap();
    assert!(matches!(decode(&slow_body), Message::FilesResponse { .. }));
    server.shutdown();
}

#[test]
fn slow_reader_stalls_only_its_own_connection() {
    // Connection A pipelines full-list searches (each reply carries ~200
    // encrypted files) and refuses to read; once the kernel buffers and
    // A's 16 KiB write budget fill, the event loop stops reading A.
    // Connection B must keep completing round trips meanwhile, and A's
    // replies must all still arrive intact once it finally drains.
    const SLOW_PIPELINE: usize = 100;
    let options = TcpServerOptions::new(1, 2 * SLOW_PIPELINE).with_write_budget(16 << 10);
    let (owner, server) = spawn(options);
    let transport = TcpTransport::new(server.addr());
    let user = owner.authorize_user();
    let full_search = user
        .search_request("network", None, SearchMode::Rsse)
        .unwrap();

    let mut slow = transport.dial().unwrap();
    for _ in 0..SLOW_PIPELINE {
        slow.send(full_search.clone()).unwrap();
    }

    // Wait until the backpressure valve actually engages on A.
    let deadline = Instant::now() + TIMEOUT;
    while server.stats().backpressure_stalls == 0 {
        assert!(
            Instant::now() < deadline,
            "write budget never engaged: stats = {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // B's latency is unaffected: fresh round trips complete promptly
    // while A sits stalled.
    let mut fast = transport.dial().unwrap();
    let quick = user
        .search_request("network", Some(2), SearchMode::Rsse)
        .unwrap();
    for _ in 0..20 {
        let seq = fast.send(quick.clone()).unwrap();
        let (got, body) = fast.recv_any(Duration::from_secs(5)).unwrap();
        assert_eq!(got, seq);
        assert!(matches!(decode(&body), Message::RsseResponse { .. }));
    }

    // A drains: every pipelined reply arrives, none dropped or garbled.
    let mut seqs: Vec<u64> = Vec::with_capacity(SLOW_PIPELINE);
    for _ in 0..SLOW_PIPELINE {
        let (seq, body) = slow.recv_any(TIMEOUT).unwrap();
        assert!(matches!(decode(&body), Message::RsseResponse { .. }));
        seqs.push(seq);
    }
    seqs.sort_unstable();
    assert_eq!(seqs, (0..SLOW_PIPELINE as u64).collect::<Vec<_>>());

    let stats = server.stats();
    assert!(stats.backpressure_stalls > 0);
    assert_eq!(stats.garbled, 0);
    assert_eq!(stats.overloaded, 0);
    server.shutdown();
}

#[test]
fn overload_sheds_the_canonical_frame_over_tcp() {
    // One wedged worker behind a one-slot backlog: a pipelined burst must
    // shed most requests immediately with the *same* Overloaded frame the
    // channel pool produces — not stall, not drop.
    let options = TcpServerOptions::new(1, 1)
        .with_pool(PoolOptions::new(1, 1).with_io_delay(Duration::from_millis(40)));
    let (owner, server) = spawn(options);
    let transport = TcpTransport::new(server.addr());
    let mut conn = transport.dial().unwrap();
    let user = owner.authorize_user();
    let req = user
        .search_request("network", Some(1), SearchMode::Rsse)
        .unwrap();
    const BURST: usize = 16;
    for _ in 0..BURST {
        conn.send(req.clone()).unwrap();
    }
    let canonical = Message::error(ErrorKind::Overloaded, "request backlog is full")
        .encode()
        .to_vec();
    let mut sheds = 0;
    for _ in 0..BURST {
        let (_, body) = conn.recv_any(TIMEOUT).unwrap();
        match decode(&body) {
            Message::Error { kind, .. } => {
                assert_eq!(kind, ErrorKind::Overloaded);
                assert_eq!(body, canonical, "shed frame must be byte-identical");
                sheds += 1;
            }
            Message::RsseResponse { .. } => {}
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    assert!(sheds > 0, "burst must exceed the one-slot backlog");
    assert_eq!(server.stats().overloaded, sheds);
    server.shutdown();
}

#[test]
fn garbled_length_prefix_closes_the_connection() {
    // A frame whose declared length exceeds the bounded-decode cap is
    // rejected from the 4 length bytes alone: the connection closes
    // before any payload could be buffered.
    let (_owner, server) = spawn(TcpServerOptions::new(1, 8));
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.write_all(&[0xFF; 12]).unwrap();
    raw.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut buf = [0u8; 16];
    // The server answers a hostile stream only with EOF.
    assert_eq!(raw.read(&mut buf).unwrap(), 0);
    let stats = server.stats();
    assert_eq!(stats.garbled, 1);
    assert!(stats.closed >= 1);
    server.shutdown();
}

#[test]
fn oversized_reply_is_rejected_and_the_server_keeps_serving() {
    // Five 13 MiB files: one fetch of all of them asks for a 65 MiB
    // reply, over the 64 MiB frame cap. The event loop must not die
    // framing it: the client gets a Rejected frame, other connections
    // keep being served, and shutdown returns.
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(61));
    let owner = DataOwner::new(SEED, RsseParams::default());
    let mut outsource = owner.outsource(corpus.documents()).unwrap();
    let Message::Outsource { files, .. } = &mut outsource else {
        panic!("outsource builds an Outsource message");
    };
    let big_ids: Vec<u64> = (1_000_000..1_000_005).collect();
    files.extend(
        big_ids
            .iter()
            .map(|&id| EncryptedFile::new(FileId::new(id), vec![0xab; 13 << 20])),
    );
    let server = Arc::new(CloudServer::from_outsource(outsource).unwrap());
    let server = TcpServer::spawn(server, TcpServerOptions::new(1, 8)).unwrap();
    let transport = TcpTransport::new(server.addr());

    let mut greedy = transport.dial().unwrap();
    let seq = greedy.send(Message::FetchFiles { ids: big_ids }).unwrap();
    let (got, body) = greedy.recv_any(TIMEOUT).unwrap();
    assert_eq!(got, seq);
    match decode(&body) {
        Message::Error { kind, .. } => assert_eq!(kind, ErrorKind::Rejected),
        other => panic!("expected a Rejected frame, got {other:?}"),
    }

    let mut other = transport.dial().unwrap();
    let user = owner.authorize_user();
    let seq = other
        .send(
            user.search_request("network", Some(3), SearchMode::Rsse)
                .unwrap(),
        )
        .unwrap();
    let (got, body) = other.recv_any(TIMEOUT).unwrap();
    assert_eq!(got, seq);
    assert!(matches!(decode(&body), Message::RsseResponse { .. }));
    server.shutdown();
}

#[test]
fn oversized_request_is_refused_before_it_is_framed() {
    // A 65 MiB update cannot travel in any frame: send refuses it with
    // the codec's Oversize error instead of panicking, puts nothing on
    // the wire, and the connection stays usable.
    let (_owner, server) = spawn(TcpServerOptions::new(1, 8));
    let transport = TcpTransport::new(server.addr());
    let mut conn = transport.dial().unwrap();
    let update = Message::Update {
        rsse_lists: vec![],
        files: vec![EncryptedFile::new(FileId::new(1), vec![0xcd; 65 << 20])],
    };
    let len = update.wire_len() as u64;
    match conn.send(update) {
        Err(CloudError::Codec(CodecError::Oversize(n))) => assert_eq!(n, len),
        other => panic!("expected an Oversize error, got {other:?}"),
    }
    assert_eq!(transport.traffic().bytes_up, 0);

    let seq = conn.send(Message::FetchFiles { ids: vec![1] }).unwrap();
    let (got, body) = conn.recv_any(TIMEOUT).unwrap();
    assert_eq!(got, seq);
    assert!(matches!(decode(&body), Message::FilesResponse { .. }));
    server.shutdown();
}

#[test]
fn oversized_request_is_refused_over_the_channel_too() {
    // The channel arm of the test above: the in-process wire refuses the
    // same 65 MiB update with the same error before it takes a sequence
    // id or meters a byte, and the connection still serves a search.
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(61));
    let owner = DataOwner::new(SEED, RsseParams::default());
    let server = CloudServer::from_outsource(owner.outsource(corpus.documents()).unwrap()).unwrap();
    let handle = ServerHandle::spawn_pool_shared(Arc::new(server), PoolOptions::new(1, 8));
    let transport = ChannelTransport::new(handle.client());
    let mut conn = transport.connect().unwrap();
    let update = Message::Update {
        rsse_lists: vec![],
        files: vec![EncryptedFile::new(FileId::new(1), vec![0xcd; 65 << 20])],
    };
    let len = update.wire_len() as u64;
    match conn.send(update) {
        Err(CloudError::Codec(CodecError::Oversize(n))) => assert_eq!(n, len),
        other => panic!("expected an Oversize error, got {other:?}"),
    }
    assert_eq!(transport.traffic().bytes_up, 0);

    let user = owner.authorize_user();
    let seq = conn
        .send(
            user.search_request("network", Some(3), SearchMode::Rsse)
                .unwrap(),
        )
        .unwrap();
    assert_eq!(seq, 0, "the refused request took no sequence id");
    let (got, body) = conn.recv_any(TIMEOUT).unwrap();
    assert_eq!(got, seq);
    assert!(matches!(decode(&body), Message::RsseResponse { .. }));
    assert_eq!(handle.shutdown(), 1);
}
