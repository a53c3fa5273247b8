//! Transport equivalence: the simulated channel transport and the real
//! TCP transport must produce **byte-identical** reply frames, rankings,
//! and traffic reports for the same request log.
//!
//! Two servers are built from the same `Outsource` message and driven
//! through the same phased request log (pipelined searches and batches,
//! a barriered update, more searches) over each transport. Reply bodies
//! are compared per sequence id; since both transports share the one
//! [`frame_message`] envelope, equal bodies make the full wire frames
//! equal too — asserted literally below. Both wires also hand replies
//! back in completion order, not request order.

use rsse_cloud::entities::{CloudServer, DataOwner};
use rsse_cloud::server_loop::{Fault, PoolOptions, ServerHandle};
use rsse_cloud::tcp::{TcpServer, TcpServerOptions, TcpTransport};
use rsse_cloud::transport::{ChannelTransport, Transport};
use rsse_cloud::{frame_message, FileCrypter, Message, SearchMode};
use rsse_core::{Rsse, RsseParams};
use rsse_ir::corpus::{CorpusParams, SyntheticCorpus};
use rsse_ir::{Document, FileId, InvertedIndex};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const SEED: &[u8] = b"equivalence seed";
const TIMEOUT: Duration = Duration::from_secs(30);

/// The shared request log, as phases: messages within a phase are
/// pipelined; phases are barriered (all replies collected first) so the
/// update serializes against the searches around it on both transports.
fn request_log(owner: &DataOwner, corpus: &SyntheticCorpus) -> Vec<Vec<Message>> {
    let user = owner.authorize_user();
    let scheme = Rsse::new(SEED, RsseParams::default());
    let plain_index = InvertedIndex::build(corpus.documents());
    let updater = scheme.updater_for(&plain_index).unwrap();
    let crypter = FileCrypter::new(SEED);
    let new_doc = Document::new(FileId::new(9001), "network cipher equivalence");
    let update = updater.add_document(&new_doc).unwrap();
    vec![
        vec![
            user.search_request("network", Some(5), SearchMode::Rsse)
                .unwrap(),
            user.search_request("protocol", None, SearchMode::Rsse)
                .unwrap(),
            user.search_request("cipher", Some(3), SearchMode::Rsse)
                .unwrap(),
            user.search_request("unindexedword", Some(5), SearchMode::Rsse)
                .unwrap(),
            user.batch_search_request(&["network", "protocol", "network"], Some(4))
                .unwrap(),
            Message::FetchFiles { ids: vec![1, 2, 3] },
        ],
        vec![Message::Update {
            rsse_lists: update.into_parts(),
            files: vec![crypter.encrypt(&new_doc)],
        }],
        vec![
            user.search_request("network", Some(8), SearchMode::Rsse)
                .unwrap(),
            user.batch_search_request(&["cipher", "network"], None)
                .unwrap(),
        ],
    ]
}

/// Replays the log over one connection of `transport`, returning the
/// reply body of every sequence id.
fn replay(transport: &dyn Transport, phases: &[Vec<Message>]) -> BTreeMap<u64, Vec<u8>> {
    let mut conn = transport.connect().unwrap();
    let mut replies = BTreeMap::new();
    for phase in phases {
        let mut outstanding = 0;
        for msg in phase {
            conn.send(msg.clone()).unwrap();
            outstanding += 1;
        }
        for _ in 0..outstanding {
            let (seq, body) = conn.recv_any(TIMEOUT).unwrap();
            assert!(
                replies.insert(seq, body).is_none(),
                "sequence id {seq} delivered twice"
            );
        }
    }
    replies
}

#[test]
fn tcp_and_channel_transports_are_byte_identical() {
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(77));
    let owner = DataOwner::new(SEED, RsseParams::default());
    let outsource = owner.outsource(corpus.documents()).unwrap();
    let phases = request_log(&owner, &corpus);
    let total_requests: usize = phases.iter().map(Vec::len).sum();

    let handle = ServerHandle::spawn_pool_shared(
        Arc::new(CloudServer::from_outsource(outsource.clone()).unwrap()),
        PoolOptions::new(2, 64),
    );
    let channel = ChannelTransport::new(handle.client());
    let channel_replies = replay(&channel, &phases);

    let tcp_server = TcpServer::spawn(
        Arc::new(CloudServer::from_outsource(outsource).unwrap()),
        TcpServerOptions::new(2, 64),
    )
    .unwrap();
    let tcp = TcpTransport::new(tcp_server.addr());
    let tcp_replies = replay(&tcp, &phases);

    // Byte-identical reply bodies per sequence id — and therefore
    // byte-identical wire frames, since both sides frame with the one
    // canonical frame_message.
    assert_eq!(channel_replies.len(), total_requests);
    assert_eq!(channel_replies, tcp_replies);
    for (seq, body) in &channel_replies {
        assert_eq!(
            frame_message(*seq, body),
            frame_message(*seq, &tcp_replies[seq])
        );
    }

    // Rankings decode equal and non-trivial (the byte comparison above
    // wasn't comparing empty responses).
    let first = Message::decode(bytes::BytesMut::from(&channel_replies[&0][..])).unwrap();
    let Message::RsseResponse { ranking, files } = first else {
        panic!("seq 0 should be the network search");
    };
    assert_eq!(ranking.len(), 5);
    assert_eq!(files.len(), 5);

    // Metering parity: framed bytes counted once at the framing layer on
    // both wires gives equal TrafficReports by construction.
    assert_eq!(channel.traffic(), tcp.traffic());
    assert!(channel.traffic().bytes_down > 0);

    let stats = tcp_server.stats();
    assert_eq!(stats.garbled, 0);
    assert_eq!(stats.overloaded, 0);
    assert_eq!(handle.shutdown(), total_requests as u64);
    assert_eq!(tcp_server.shutdown(), total_requests as u64);
}

/// Sends a fetch, then a search, on one connection and returns the
/// sequence ids in the order `recv_any` delivered them, checking each
/// reply's type against its request.
fn delivery_order(transport: &dyn Transport, owner: &DataOwner) -> (Vec<u64>, u64, u64) {
    let mut conn = transport.connect().unwrap();
    let user = owner.authorize_user();
    let fetch = conn.send(Message::FetchFiles { ids: vec![1] }).unwrap();
    let search = conn
        .send(
            user.search_request("network", Some(3), SearchMode::Rsse)
                .unwrap(),
        )
        .unwrap();
    let mut order = Vec::new();
    for _ in 0..2 {
        let (seq, body) = conn.recv_any(TIMEOUT).unwrap();
        let reply = Message::decode(bytes::BytesMut::from(&body[..])).unwrap();
        if seq == fetch {
            assert!(matches!(reply, Message::FilesResponse { .. }));
        } else {
            assert!(matches!(reply, Message::RsseResponse { .. }));
        }
        order.push(seq);
    }
    (order, fetch, search)
}

#[test]
fn both_wires_deliver_replies_in_completion_order() {
    // Two workers; FetchFiles is wedged for 300ms, so the search sent
    // behind the fetch completes first. On both wires recv_any must hand
    // back the search before the fetch.
    let pool = || {
        PoolOptions::new(2, 32).with_fault(|msg| {
            matches!(msg, Message::FetchFiles { .. })
                .then_some(Fault::Stall(Duration::from_millis(300)))
        })
    };
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(61));
    let owner = DataOwner::new(SEED, RsseParams::default());
    let outsource = owner.outsource(corpus.documents()).unwrap();

    let handle = ServerHandle::spawn_pool_shared(
        Arc::new(CloudServer::from_outsource(outsource.clone()).unwrap()),
        pool(),
    );
    let channel = ChannelTransport::new(handle.client());
    let tcp_server = TcpServer::spawn(
        Arc::new(CloudServer::from_outsource(outsource).unwrap()),
        TcpServerOptions::new(2, 32).with_pool(pool()),
    )
    .unwrap();
    let tcp = TcpTransport::new(tcp_server.addr());

    for (wire, transport) in [("channel", &channel as &dyn Transport), ("tcp", &tcp)] {
        let (order, fetch, search) = delivery_order(transport, &owner);
        assert_eq!(
            order,
            vec![search, fetch],
            "{wire}: the unwedged search must overtake the stalled fetch"
        );
    }
    assert_eq!(handle.shutdown(), 2);
    assert_eq!(tcp_server.shutdown(), 2);
}
