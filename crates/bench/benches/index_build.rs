//! Criterion benchmark behind Table I: secure index construction cost,
//! RSSE (its per-list stage on every core) versus the basic scheme.

use criterion::{criterion_group, criterion_main, Criterion};
use rsse_core::{Rsse, RsseParams};
use rsse_ir::corpus::{CorpusParams, SyntheticCorpus};
use rsse_ir::InvertedIndex;
use rsse_sse::BasicScheme;
use std::hint::black_box;

fn bench_index_build(c: &mut Criterion) {
    let corpus = SyntheticCorpus::generate(&CorpusParams::small(42));
    let index = InvertedIndex::build(corpus.documents());
    let rsse = Rsse::new(b"bench seed", RsseParams::default());
    let basic = BasicScheme::new(b"bench seed");

    let mut group = c.benchmark_group("index_build_200_docs");
    group.sample_size(10);
    group.bench_function("rsse", |b| {
        b.iter(|| black_box(rsse.build_index_from(&index).unwrap()))
    });
    group.bench_function("basic_scheme", |b| {
        b.iter(|| black_box(basic.build_index(&index, Default::default()).unwrap()))
    });
    group.bench_function("plaintext_inverted_index", |b| {
        b.iter(|| black_box(InvertedIndex::build(corpus.documents())))
    });
    group.finish();
}

criterion_group!(benches, bench_index_build);
criterion_main!(benches);
