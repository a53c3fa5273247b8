//! Criterion benchmark behind Fig. 7: single one-to-many order-preserving
//! mapping operations across domain and range sizes, plus the cached-tree
//! ablation (amortized cost when encrypting a whole posting list under one
//! key) and a whole cold list as the Setup maps it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsse_crypto::SecretKey;
use rsse_opse::{Opm, OpseCipher, OpseParams};
use std::hint::black_box;

fn bench_opm_single(c: &mut Criterion) {
    let mut group = c.benchmark_group("opm_single_uncached");
    for &domain in &[64u64, 128, 256] {
        for &bits in &[27u32, 34, 46] {
            let params = OpseParams::new(domain, 1 << bits).unwrap();
            let opm = Opm::new_uncached(SecretKey::derive(b"bench", "opm"), params);
            let mut i = 0u64;
            group.bench_with_input(
                BenchmarkId::new(format!("M{domain}"), format!("R2^{bits}")),
                &opm,
                |b, opm| {
                    b.iter(|| {
                        i += 1;
                        let level = (i % domain) + 1;
                        black_box(opm.encrypt(level, i).unwrap())
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_opm_cached(c: &mut Criterion) {
    // Ablation: the split memo-cache amortizes tree sampling across a
    // posting list, the owner's real build-time pattern.
    let params = OpseParams::paper_default();
    let opm = Opm::new(SecretKey::derive(b"bench", "opm-cached"), params);
    // Warm the cache over the whole domain.
    for m in 1..=128 {
        opm.encrypt(m, 0).unwrap();
    }
    let mut i = 0u64;
    c.bench_function("opm_single_cached_M128_R2^46", |b| {
        b.iter(|| {
            i += 1;
            black_box(opm.encrypt((i % 128) + 1, i).unwrap())
        })
    });
}

fn bench_opm_list_cold(c: &mut Criterion) {
    // The Setup's per-list pattern: a fresh mapping (cold split memo) for
    // one posting list, mapping 1,000 (level, file) pairs.
    let params = OpseParams::paper_default();
    let key = SecretKey::derive(b"bench", "opm-list");
    c.bench_function("opm_list_cold_1000", |b| {
        b.iter(|| {
            let opm = Opm::new(key.clone(), params);
            for file in 0..1000u64 {
                let level = file * 37 % 128 + 1;
                black_box(opm.encrypt(level, file).unwrap());
            }
        })
    });
}

fn bench_opse_deterministic(c: &mut Criterion) {
    // Baseline ablation: deterministic OPSE (no file-ID seed) costs the
    // same tree walk; the delta is the final draw only.
    let params = OpseParams::paper_default();
    let opse = OpseCipher::new_uncached(SecretKey::derive(b"bench", "opse"), params);
    let mut i = 0u64;
    c.bench_function("opse_deterministic_M128_R2^46", |b| {
        b.iter(|| {
            i += 1;
            black_box(opse.encrypt((i % 128) + 1).unwrap())
        })
    });
}

fn bench_opm_decrypt(c: &mut Criterion) {
    let params = OpseParams::paper_default();
    let opm = Opm::new_uncached(SecretKey::derive(b"bench", "opm-dec"), params);
    let cts: Vec<u64> = (1..=128).map(|m| opm.encrypt(m, 0).unwrap()).collect();
    let mut i = 0usize;
    c.bench_function("opm_decrypt_M128_R2^46", |b| {
        b.iter(|| {
            i += 1;
            black_box(opm.decrypt(cts[i % cts.len()]).unwrap())
        })
    });
}

criterion_group!(
    benches,
    bench_opm_single,
    bench_opm_cached,
    bench_opm_list_cold,
    bench_opse_deterministic,
    bench_opm_decrypt
);
criterion_main!(benches);
