//! Criterion micro-benchmarks of the from-scratch crypto primitives.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rsse_crypto::{hmac_sha256, Digest, SecretKey, SemanticCipher, Sha1, Sha256, Tape};
use std::hint::black_box;

fn bench_hashes(c: &mut Criterion) {
    let data = vec![0xabu8; 4096];
    let mut group = c.benchmark_group("hash_4k");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("sha256", |b| b.iter(|| black_box(Sha256::digest(&data))));
    group.bench_function("sha1", |b| b.iter(|| black_box(Sha1::digest(&data))));
    group.bench_function("hmac_sha256", |b| {
        b.iter(|| black_box(hmac_sha256(b"key", &data)))
    });
    group.finish();
}

fn bench_ctr(c: &mut Criterion) {
    let cipher = SemanticCipher::new(&SecretKey::derive(b"bench", "ctr"));
    let data = vec![0x11u8; 4096];
    let mut group = c.benchmark_group("aes_ctr_4k");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("encrypt", |b| {
        b.iter(|| black_box(cipher.encrypt_with_nonce([7; 16], &data)))
    });
    group.finish();
}

fn bench_tape(c: &mut Criterion) {
    c.bench_function("tape_setup_plus_64_bytes", |b| {
        let key = SecretKey::derive(b"bench", "tape");
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut tape = Tape::new(&key, &i.to_be_bytes());
            let mut out = [0u8; 64];
            tape.fill_bytes(&mut out);
            black_box(out)
        })
    });
    // The OPSE tree's coin tape: HChaCha20 of the tree key at a node's
    // address, then one ChaCha20 block; beside the HMAC-seeded tape above.
    c.bench_function("tape_at_plus_64_bytes", |b| {
        let key = SecretKey::derive(b"bench", "tape");
        let mut i = 0u128;
        b.iter(|| {
            i += 1;
            let mut tape = Tape::at(&key, i);
            let mut out = [0u8; 64];
            tape.fill_bytes(&mut out);
            black_box(out)
        })
    });
    // 40,000 bytes of padding (1,250 32-byte RSSE entries; a ν = 1000
    // list's is at most 32,000), as the builders draw it: the list's tape
    // read in bulk, a ChaCha20 keystream. The size is kept so the figure
    // compares with earlier runs.
    c.bench_function("padding_40000_bytes", |b| {
        let key = SecretKey::derive(b"bench", "tape");
        let mut out = vec![0u8; 40_000];
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            Tape::new(&key, &i.to_be_bytes()).fill_bytes(&mut out);
            black_box(out[out.len() - 1])
        })
    });
    // E's kernel over the same bytes: AES-128-CTR through `SemanticCipher`,
    // which every real entry and file body still uses.
    c.bench_function("aes_ctr_keystream_40000_bytes", |b| {
        let cipher = SemanticCipher::new(&SecretKey::derive(b"bench", "ctr"));
        let zeros = vec![0u8; 40_000];
        let mut out = Vec::with_capacity(16 + zeros.len());
        let mut i = 0u128;
        b.iter(|| {
            i += 1;
            out.clear();
            cipher.encrypt_with_nonce_into(i.to_be_bytes(), &zeros, &mut out);
            black_box(out[out.len() - 1])
        })
    });
}

criterion_group!(benches, bench_hashes, bench_ctr, bench_tape);
criterion_main!(benches);
