//! Fuzzing the wire codec with proptest: arbitrary bytes must never panic
//! the decoder, and anything the decoder *does* accept must be canonical —
//! re-encoding yields the input bytes exactly, and `wire_len` agrees with
//! the physical frame size. Canonicality is what makes these properties
//! strong: there is exactly one byte string per message, so a hostile
//! client cannot smuggle two readings of one frame past the byte-exact
//! traffic accounting. Decodable mutations of the two posting-list frames
//! (Outsource, Update) must also boot or be served without a panic, or
//! fail with a typed error.

use bytes::BytesMut;
use proptest::collection::vec;
use proptest::prelude::*;
use rsse_cloud::server_loop::serve_frame;
use rsse_cloud::{
    frame_message, CloudServer, CodecError, EncryptedFile, ErrorKind, FrameAssembler, Message,
    Storage, FRAME_HEADER_LEN, MAX_FRAME_LEN,
};
use rsse_core::entry::ENTRY_CT_LEN;
use rsse_ir::FileId;

/// An Outsource frame in the shape the owner sends: RSSE entries of
/// [`ENTRY_CT_LEN`] bytes, 56-byte basic-scheme entries, an empty list
/// under entry length 0.
fn outsource_seed() -> Message {
    Message::Outsource {
        rsse_lists: vec![
            ([1u8; 20], ENTRY_CT_LEN as u32, vec![0x11; 2 * ENTRY_CT_LEN]),
            ([2u8; 20], 0, vec![]),
        ],
        basic_lists: vec![([3u8; 20], 56, vec![0x33; 56])],
        opse_domain: 128,
        opse_range: 1 << 46,
        files: vec![EncryptedFile::new(FileId::new(1), vec![1, 2])],
    }
}

/// An Update frame appending one entry to a list of [`outsource_seed`].
fn update_seed() -> Message {
    Message::Update {
        rsse_lists: vec![([1u8; 20], ENTRY_CT_LEN as u32, vec![0x44; ENTRY_CT_LEN])],
        files: vec![EncryptedFile::new(FileId::new(2), vec![3, 4])],
    }
}

/// Encoded frames of every protocol variant, used as mutation seeds.
fn seed_frames() -> Vec<Vec<u8>> {
    use rsse_cloud::SearchMode;
    vec![
        outsource_seed(),
        update_seed(),
        Message::SearchRequest {
            label: [3u8; 20],
            list_key: [4u8; 32],
            top_k: Some(10),
            mode: SearchMode::Rsse,
        },
        Message::RsseResponse {
            ranking: vec![(1, 999), (2, 500)],
            files: vec![EncryptedFile::new(FileId::new(1), vec![1, 2])],
        },
        Message::FetchFiles { ids: vec![3, 1, 2] },
        Message::ConjunctiveRequest {
            trapdoors: vec![([7u8; 20], [8u8; 32])],
            top_k: None,
        },
        Message::ConjunctiveRequest {
            trapdoors: vec![([15u8; 20], [16u8; 32]), ([17u8; 20], [18u8; 32])],
            top_k: Some(8),
        },
        Message::ConjunctiveResponse {
            ranking: vec![(1, vec![900, 40]), (2, vec![500, 30])],
            files: vec![EncryptedFile::new(FileId::new(1), vec![1, 2])],
        },
        Message::ConjunctiveShardQuery {
            trapdoors: vec![([19u8; 20], [20u8; 32]), ([21u8; 20], [22u8; 32])],
            top_k: Some(10),
            shard_id: 2,
        },
        Message::ConjunctiveShardReply {
            shard_id: 2,
            ranking: vec![(1, vec![999, 70]), (2, vec![500, 60])],
            files: vec![EncryptedFile::new(FileId::new(1), vec![1, 2])],
        },
        Message::UpdateAck {
            lists_touched: 3,
            files_added: 1,
        },
        Message::error(ErrorKind::Overloaded, "request backlog is full"),
        Message::ShardQuery {
            label: [5u8; 20],
            list_key: [6u8; 32],
            top_k: Some(10),
            shard_id: 2,
        },
        Message::ShardReply {
            shard_id: 2,
            ranking: vec![(1, 999), (2, 500)],
            files: vec![EncryptedFile::new(FileId::new(1), vec![1, 2])],
        },
        Message::BatchRequest {
            queries: vec![
                ([9u8; 20], [10u8; 32], Some(5)),
                ([11u8; 20], [12u8; 32], None),
            ],
            shard_id: Some(1),
        },
        Message::BatchReply {
            shard_id: Some(1),
            results: vec![
                (
                    vec![(1, 999)],
                    vec![EncryptedFile::new(FileId::new(1), vec![1, 2])],
                ),
                (vec![], vec![]),
            ],
        },
        Message::FilterRequest {
            shard_id: 3,
            known_epoch: Some(41),
        },
        Message::FilterReply {
            shard_id: 3,
            epoch: 42,
            labels: Some(vec![[13u8; 20], [14u8; 20]]),
        },
    ]
    .into_iter()
    .map(|m| m.encode().to_vec())
    .collect()
}

/// Decode must be total over `bytes`: no panic, and on success the message
/// is canonical (re-encode reproduces the input, wire_len matches).
fn assert_decode_is_total_and_canonical(bytes: &[u8]) {
    if let Ok(msg) = Message::decode(BytesMut::from(bytes)) {
        let reencoded = msg.encode();
        assert_eq!(
            &reencoded[..],
            bytes,
            "accepted frames must be canonical: {msg:?}"
        );
        assert_eq!(msg.wire_len(), bytes.len(), "wire_len disagrees: {msg:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Pure garbage: arbitrary byte strings into the decoder.
    #[test]
    fn arbitrary_bytes_never_panic_decode(bytes in vec(any::<u8>(), 0..512)) {
        assert_decode_is_total_and_canonical(&bytes);
    }

    /// Structured garbage: take a real frame of each variant and corrupt
    /// one byte — exercises the deep decode paths that random bytes
    /// almost never reach past the tag.
    #[test]
    fn corrupted_real_frames_never_panic_decode(
        frame_choice in any::<u8>(),
        corrupt_at in any::<u16>(),
        corrupt_with in any::<u8>(),
    ) {
        let seeds = seed_frames();
        let mut frame = seeds[frame_choice as usize % seeds.len()].clone();
        let at = corrupt_at as usize % frame.len();
        frame[at] ^= corrupt_with;
        assert_decode_is_total_and_canonical(&frame);
    }

    /// Posting-list frames past the decoder: every decodable one-byte
    /// mutation of the Outsource seed boots or fails with a typed error,
    /// and every decodable mutation of the Update seed is served — an
    /// ack, or a typed error frame — without a contained panic.
    #[test]
    fn mutated_list_frames_boot_or_serve_or_fail_typed(
        update in any::<bool>(),
        corrupt_at in any::<u16>(),
        corrupt_with in 1u8..=255,
    ) {
        let seed = if update { update_seed() } else { outsource_seed() };
        let mut frame = seed.encode().to_vec();
        let at = corrupt_at as usize % frame.len();
        frame[at] ^= corrupt_with;
        let decoded = Message::decode(BytesMut::from(&frame[..]));
        prop_assume!(decoded.is_ok());
        let msg = decoded.unwrap();
        if update {
            let server = CloudServer::boot(outsource_seed(), &Storage::Mem, 1 << 20).unwrap();
            let reply = Message::decode(BytesMut::from(&serve_frame(&server, &frame, None)[..]));
            let reply = reply.expect("replies decode");
            if matches!(msg, Message::Update { .. }) {
                prop_assert!(
                    matches!(reply, Message::UpdateAck { .. } | Message::Error { .. }),
                    "{:?}",
                    reply
                );
            }
            prop_assert_eq!(server.serving_report().panics, 0);
        } else {
            // `boot` returns; a panic would fail the property.
            let _ = CloudServer::boot(msg, &Storage::Mem, 1 << 20);
        }
    }

    /// Truncation fuzz: every prefix of a corrupted frame is also handled.
    #[test]
    fn truncated_corrupted_frames_never_panic_decode(
        frame_choice in any::<u8>(),
        corrupt_at in any::<u16>(),
        cut in any::<u16>(),
    ) {
        let seeds = seed_frames();
        let mut frame = seeds[frame_choice as usize % seeds.len()].clone();
        let at = corrupt_at as usize % frame.len();
        frame[at] = frame[at].wrapping_add(1);
        frame.truncate(cut as usize % (frame.len() + 1));
        assert_decode_is_total_and_canonical(&frame);
    }

    /// Streaming fuzz: a wire stream of corrupted frame *bodies* (valid
    /// envelopes, hostile payloads) fed to the assembler in arbitrary
    /// chunk sizes must reassemble to exactly the bodies that were
    /// framed, and the recovered bodies must survive the same
    /// total-decode property as direct decoding.
    #[test]
    fn streaming_reassembly_of_corrupted_bodies_never_panics(
        frame_choice in any::<u8>(),
        corrupt_at in any::<u16>(),
        corrupt_with in any::<u8>(),
        chunk in 1usize..97,
    ) {
        let seeds = seed_frames();
        let mut body = seeds[frame_choice as usize % seeds.len()].clone();
        let at = corrupt_at as usize % body.len();
        body[at] ^= corrupt_with;
        let stream = frame_message(7, &body);
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            asm.feed(piece);
            while let Some((seq, body)) = asm.next_frame().unwrap() {
                got.push((seq, body));
            }
        }
        prop_assert_eq!(got.len(), 1);
        prop_assert_eq!(got[0].0, 7);
        prop_assert_eq!(&got[0].1, &body);
        assert_decode_is_total_and_canonical(&got[0].1);
    }
}

/// Every fuzz seed, framed and replayed through the streaming assembler
/// split at **every** byte boundary: for each split point the stream is
/// delivered as two reads, and the reassembled `(seq, body)` must equal
/// what was framed regardless of where the socket cut the bytes. The
/// whole concatenated log is also fed one byte at a time, exercising
/// every intra-frame boundary of every seed in one pass.
#[test]
fn every_seed_reassembles_at_every_split_boundary() {
    let seeds = seed_frames();

    // Two-read splits of each individual frame.
    for (i, body) in seeds.iter().enumerate() {
        let frame = frame_message(i as u64, body);
        for cut in 0..=frame.len() {
            let mut asm = FrameAssembler::new();
            asm.feed(&frame[..cut]);
            if cut < frame.len() {
                // An incomplete frame yields nothing yet — the partial
                // read must never surface a short or garbled frame.
                if cut < FRAME_HEADER_LEN {
                    assert!(asm.next_frame().unwrap().is_none());
                }
                asm.feed(&frame[cut..]);
            }
            let (seq, got) = asm.next_frame().unwrap().expect("one whole frame fed");
            assert_eq!(seq, i as u64, "split at {cut}");
            assert_eq!(&got, body, "split at {cut}");
            assert!(asm.next_frame().unwrap().is_none());
            assert_eq!(asm.buffered(), 0);
        }
    }

    // The full pipelined log, one byte per read.
    let stream: Vec<u8> = seeds
        .iter()
        .enumerate()
        .flat_map(|(i, body)| frame_message(i as u64, body))
        .collect();
    let mut asm = FrameAssembler::new();
    let mut got = Vec::new();
    for byte in &stream {
        asm.feed(std::slice::from_ref(byte));
        while let Some(frame) = asm.next_frame().unwrap() {
            got.push(frame);
        }
    }
    assert_eq!(got.len(), seeds.len());
    for (i, (seq, body)) in got.iter().enumerate() {
        assert_eq!(*seq, i as u64);
        assert_eq!(body, &seeds[i]);
    }
}

/// Hostile declared lengths are rejected from the four length bytes
/// alone — before any payload is buffered — and the error is sticky.
#[test]
fn hostile_declared_lengths_are_rejected_before_buffering() {
    // Over the bounded-decode cap: u32::MAX and exactly one past the cap.
    for hostile in [u32::MAX, (MAX_FRAME_LEN as u32) + 8 + 1] {
        let mut asm = FrameAssembler::new();
        asm.feed(&hostile.to_be_bytes());
        let err = asm.next_frame().unwrap_err();
        assert!(
            matches!(err, CodecError::Oversize(n) if n == u64::from(hostile)),
            "declared {hostile}: got {err:?}"
        );
        // Rejected without the payload: only the 4 header bytes were
        // ever retained, and the assembler refuses to resynchronize.
        assert_eq!(asm.buffered(), 4);
        asm.feed(&[0u8; 64]);
        assert!(asm.next_frame().is_err(), "error must be sticky");
    }

    // Too short to carry the sequence id the envelope promises.
    for hostile in 0u32..8 {
        let mut asm = FrameAssembler::new();
        asm.feed(&hostile.to_be_bytes());
        let err = asm.next_frame().unwrap_err();
        assert!(
            matches!(err, CodecError::BadEnvelope(n) if n == hostile),
            "declared {hostile}: got {err:?}"
        );
    }

    // The largest in-cap length is *not* rejected early: the assembler
    // waits for the payload instead, so the cap is exact.
    let mut asm = FrameAssembler::new();
    asm.feed(&((MAX_FRAME_LEN as u32) + 8).to_be_bytes());
    assert!(asm.next_frame().unwrap().is_none());
}
