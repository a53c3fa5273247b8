//! The benchmark's inputs: corpus, query vocabulary, query pools and the
//! per-thread operation streams, all derived from `--seed`.
//!
//! The corpus keeps the paper's ν = 1000 (1000 documents, "network" in
//! every one, so every padded posting list holds 1000 entries and an
//! uncached search decrypts and ranks 1000 entries, as in Fig. 8) but
//! draws short documents from a small vocabulary: 353 keywords, a 40 MB
//! upload and a set-up of about 2 s on a two-CPU host, where the full
//! `paper_1000` corpus (7917 keywords, 890 MB) takes 40 s to set up, too
//! long to repeat three times in a run of about 20 s. Planted rare
//! keywords (df 1 or 2) give the shard router a prunable tail. Every
//! seed yields the same number of keywords (every background word, the
//! five hot keywords of `paper_1000`, and every planted term), so the
//! padded index, and with it the upload, has the same size on every
//! seed: only the texts, and so the rankings, differ.

use rsse_bench::workload::{rare_terms, top_terms, ZipfSampler};
use rsse_crypto::{Digest, Sha256};
use rsse_ir::corpus::{vocab_word, CorpusParams, SyntheticCorpus};
use rsse_ir::{Document, FileId, InvertedIndex};

/// Results requested per search (the paper's top-k).
pub const TOP_K: u32 = 10;
/// Size of the query vocabulary V: the most frequent index terms.
pub const VOCAB: usize = 256;
/// Zipf exponent of every query log.
pub const ZIPF_S: f64 = 1.1;
/// Rare (df ≤ 2) terms in the sharded workload's single-keyword pool.
pub const RARE_TERMS: usize = 16;
/// Hot two-keyword conjunctions.
pub const HOT_PAIRS: usize = 16;
/// The nDCG query set is every pair of the [`NDCG_HEAD`] most frequent
/// terms (253 pairs). Across seeds their mean spreads by about 0.0005;
/// four times as many pairs barely lower that, since the spread comes
/// from the corpora.
pub const NDCG_HEAD: usize = 23;
/// Rare-term conjunctions appended to the sharded workload's pool.
pub const RARE_PAIRS: usize = 4;
/// Client threads driving every workload (the host has two CPUs).
pub const CLIENT_THREADS: usize = 2;
/// Pre-generated operations per thread; a phase cycles through them.
const STREAM_LEN: usize = 4096;
/// Keywords of the benchmark corpus's background vocabulary.
const BENCH_VOCAB: usize = 300;
/// Planted rare keywords, each in one or two documents.
const PLANTED_RARE: usize = 48;

/// The four workloads. See the table in `main.rs` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperUncached,
    HotCached,
    ChurnGenerational,
    ShardedMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperUncached,
        Workload::HotCached,
        Workload::ChurnGenerational,
        Workload::ShardedMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperUncached => "paper_uncached",
            Workload::HotCached => "hot_cached",
            Workload::ChurnGenerational => "churn_generational",
            Workload::ShardedMixed => "sharded_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One client operation. Indices point into [`Inputs`]' pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Single-keyword search for `vocab[i]`.
    Search(usize),
    /// Single-keyword search for `rare[i]`.
    Rare(usize),
    /// Conjunctive search for `pairs[i]`.
    Conj(usize),
    /// Owner update: a fresh document over these four `vocab` words.
    Update([usize; 4]),
}

/// One client thread's operations: `ops` drive the read (or mixed)
/// phases, `updates` the owner-update phase of the read-only workloads.
#[derive(Debug, Clone)]
pub struct Stream {
    pub ops: Vec<Op>,
    pub updates: Vec<Op>,
}

/// Everything a run consumes, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    pub docs: Vec<Document>,
    pub index: InvertedIndex,
    /// V: the [`VOCAB`] most frequent terms, queried Zipf.
    pub vocab: Vec<String>,
    /// Rare terms with df ≤ 2.
    pub rare: Vec<String>,
    /// Conjunctive pool: [`HOT_PAIRS`] hot pairs, then [`RARE_PAIRS`]
    /// rare ones.
    pub pairs: Vec<[String; 2]>,
    pub streams: Vec<Stream>,
}

/// The benchmark corpus (see the module docs), or `CorpusParams::small`
/// for smoke runs.
pub fn corpus(seed: u64, smoke: bool) -> Vec<Document> {
    if smoke {
        return SyntheticCorpus::generate(&CorpusParams::small(seed))
            .documents()
            .to_vec();
    }
    let params = CorpusParams {
        num_docs: 1000,
        vocab_size: BENCH_VOCAB,
        zipf_exponent: 1.05,
        mean_doc_len: 30,
        hot_keywords: CorpusParams::paper_1000(seed).hot_keywords,
        seed,
    };
    let mut docs = SyntheticCorpus::generate(&params).documents().to_vec();
    let mut rng = SplitMix(seed ^ 0x5eed_0003);
    let mut planted: Vec<Vec<String>> = vec![Vec::new(); docs.len()];
    for j in 0..PLANTED_RARE {
        let df = 1 + rng.below(2);
        let mut picked: Vec<usize> = Vec::new();
        while picked.len() < df {
            let d = rng.below(docs.len());
            if !picked.contains(&d) {
                picked.push(d);
            }
        }
        for d in picked {
            planted[d].push(vocab_word(60_000 + j));
        }
    }
    for (doc, words) in docs.iter_mut().zip(planted) {
        if !words.is_empty() {
            let text = format!("{} {}", doc.text(), words.join(" "));
            *doc = Document::new(doc.id(), text);
        }
    }
    docs
}

/// SplitMix64, for the planting choices.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, smoke: bool) -> Inputs {
        let docs = corpus(seed, smoke);
        let index = InvertedIndex::build(&docs);
        let vocab = top_terms(&index, VOCAB);
        let rare = rare_terms(&index, RARE_TERMS, 2);
        assert!(
            vocab.len() >= 24 && rare.len() >= RARE_PAIRS,
            "corpus too small for the query pools"
        );
        let mut pairs = hot_pairs(&vocab);
        pairs.extend((0..RARE_PAIRS).map(|i| [rare[i].clone(), vocab[i].clone()]));
        let streams = (0..CLIENT_THREADS)
            .map(|t| stream(workload, seed, t, vocab.len(), rare.len(), pairs.len()))
            .collect();
        Inputs {
            docs,
            index,
            vocab,
            rare,
            pairs,
            streams,
        }
    }

    /// SHA-256 over everything the program is fed: corpus texts, V, the
    /// query pools and every thread's operation stream. Runs whose
    /// digests differ saw different inputs and are not comparable.
    pub fn digest(&self) -> String {
        let mut h = Sha256::new();
        for d in &self.docs {
            h.update(&d.id().as_u64().to_le_bytes());
            h.update(d.text().as_bytes());
            h.update(&[0]);
        }
        for term in self
            .vocab
            .iter()
            .chain(&self.rare)
            .chain(self.pairs.iter().flatten())
        {
            h.update(term.as_bytes());
            h.update(&[0]);
        }
        for s in &self.streams {
            for op in s.ops.iter().chain(&s.updates) {
                h.update(format!("{op:?};").as_bytes());
            }
        }
        h.finalize().iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Owner update `n` of client thread `thread`: a fresh document over
    /// four V words. (No term of its own: the owner's `IndexUpdater`
    /// keeps one OPM per term it has seen, so a new term per update would
    /// make the owner's memory, not the server's, dominate `peak_rss_mb`.)
    pub fn update_doc(&self, thread: usize, n: u64, words: [usize; 4]) -> Document {
        let id = (1u64 << 40) | ((thread as u64) << 32) | n;
        let text: Vec<&str> = words.iter().map(|&w| self.vocab[w].as_str()).collect();
        Document::new(FileId::new(id), text.join(" "))
    }
}

/// The nDCG query set: every unordered pair of the head of V.
pub fn ndcg_pairs(vocab: &[String]) -> Vec<[&str; 2]> {
    let head = &vocab[..vocab.len().min(NDCG_HEAD)];
    head.iter()
        .enumerate()
        .flat_map(|(i, a)| head[i + 1..].iter().map(move |b| [a.as_str(), b.as_str()]))
        .collect()
}

/// [`HOT_PAIRS`] distinct two-keyword sets over the head of V (a stride-5
/// walk that never repeats an unordered pair).
fn hot_pairs(vocab: &[String]) -> Vec<[String; 2]> {
    let span = vocab.len().min(24);
    (0..HOT_PAIRS)
        .map(|i| {
            let mut j = (i * 5 + 1) % span;
            if j == i {
                j = (j + 1) % span;
            }
            [vocab[i].clone(), vocab[j].clone()]
        })
        .collect()
}

fn stream(
    workload: Workload,
    seed: u64,
    thread: usize,
    vocab: usize,
    rare: usize,
    pairs: usize,
) -> Stream {
    let salt = seed ^ ((thread as u64 + 1) << 17);
    let mut words = ZipfSampler::new(vocab, ZIPF_S, salt ^ 0x5eed_0001);
    let mut update = move || Op::Update([(); 4].map(|_| words.sample()));
    let mut keys = ZipfSampler::new(vocab, ZIPF_S, salt);
    let mut pair_keys = ZipfSampler::new(pairs, ZIPF_S, salt ^ 0x5eed_0002);
    let ops = (0..STREAM_LEN)
        .map(|i| match (workload, i % 8) {
            (Workload::PaperUncached | Workload::HotCached, _) => Op::Search(keys.sample()),
            (Workload::ChurnGenerational, 7) => update(),
            (Workload::ChurnGenerational, _) => Op::Search(keys.sample()),
            // Sharded mix per 8 ops: 4 Zipf-V searches, 1 rare-term
            // search, 2 conjunctions, 1 update.
            (Workload::ShardedMixed, 2 | 5) => Op::Conj(pair_keys.sample()),
            (Workload::ShardedMixed, 4) => Op::Rare((i / 8) % rare),
            (Workload::ShardedMixed, 7) => update(),
            (Workload::ShardedMixed, _) => Op::Search(keys.sample()),
        })
        .collect();
    let updates = match workload {
        Workload::PaperUncached | Workload::HotCached => {
            (0..STREAM_LEN).map(|_| update()).collect()
        }
        _ => Vec::new(),
    };
    Stream { ops, updates }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_corpus_keeps_the_paper_padding_and_a_rare_tail() {
        for seed in [3, 4] {
            let inputs = Inputs::generate(Workload::ShardedMixed, seed, false);
            assert_eq!(inputs.index.max_posting_len(), 1000, "ν must stay 1000");
            assert_eq!(
                inputs.index.num_keywords(),
                BENCH_VOCAB + 5 + PLANTED_RARE,
                "the same keyword count on every seed"
            );
            assert_eq!(inputs.vocab.len(), VOCAB);
            assert_eq!(inputs.rare.len(), RARE_TERMS);
            assert_eq!(inputs.pairs.len(), HOT_PAIRS + RARE_PAIRS);
            assert_eq!(ndcg_pairs(&inputs.vocab).len(), 253);
        }
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = Inputs::generate(Workload::ChurnGenerational, 5, true);
        let b = Inputs::generate(Workload::ChurnGenerational, 5, true);
        let c = Inputs::generate(Workload::ChurnGenerational, 6, true);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        let updates = a.streams[0]
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Update(_)));
        assert_eq!(updates.count(), STREAM_LEN / 8, "churn is 1/8 updates");
    }
}
