//! The RSSE scheme proper: `KeyGen` / `BuildIndex` / `TrapdoorGen`, the
//! owner-side decryption of mapped scores, and score dynamics.

use crate::entry::{seal_entries, seal_entry, ENTRIES_PER_CALL, ENTRY_CT_LEN, ENTRY_NONCE_LEN};
use crate::error::RsseError;
use crate::index::{Label, ListParts, RsseIndex, RsseTrapdoor};
use crate::params::{Padding, RsseParams};
use rsse_crypto::tape::Transcript;
use rsse_crypto::{KeyMaterial, KeyedLabel, Prf, SemanticCipher, Tape};
use rsse_ir::score::{scores_for_term_with, CollectionStats};
use rsse_ir::{Document, FileId, InvertedIndex, ScoreQuantizer, Tokenizer};
use rsse_opse::{Opm, OpseParams};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Statistics reported by [`Rsse::build_index_with_report`] and
/// [`Rsse::build_parts`] — the Table I quantities.
///
/// The build runs in two stages. A serial stage scores every term once,
/// fits the quantizer and the OPSE parameters to those scores, and
/// allocates every list's output buffers ([`Self::raw_index_time`]); the
/// per-list stage (the list's label, keys and tape, OPM, entry
/// encryption, padding) then runs on [`Self::workers`] threads. Its times
/// are summed over lists, so they are CPU time and may exceed the
/// wall-clock [`Self::build_time`] when the build ran on more than one
/// worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildReport {
    /// Number of distinct keywords `m`.
    pub num_keywords: usize,
    /// Number of documents `N`.
    pub num_docs: u64,
    /// Padded posting-list length ν (0 with [`Padding::None`]).
    pub padded_len: usize,
    /// Total index size in bytes: each list's label once, plus its
    /// entries.
    pub index_bytes: usize,
    /// One-to-many mapping operations performed.
    pub opm_operations: u64,
    /// Resolved OPSE range size in bits.
    pub range_bits: u32,
    /// Wall-clock time of the whole build (with
    /// [`Rsse::build_index_with_report`], the in-memory index's assembly
    /// included).
    pub build_time: Duration,
    /// Wall-clock time of the serial stage: scores, quantizer and OPSE
    /// parameters, and output buffers (the "raw index" cost, without OPM).
    pub raw_index_time: Duration,
    /// Time of the per-list stage (the list's label and keys, OPM, entry
    /// encryption and padding), summed over lists.
    pub list_time: Duration,
    /// The part of [`Self::list_time`] spent generating padding entries
    /// (each list's tape read in bulk, a ChaCha20 keystream), summed over
    /// lists.
    pub padding_time: Duration,
    /// Worker threads the per-list stage ran on.
    pub workers: usize,
}

impl BuildReport {
    /// Average per-keyword posting-list size in bytes (Table I row 2).
    pub fn per_keyword_bytes(&self) -> f64 {
        if self.num_keywords == 0 {
            return 0.0;
        }
        self.index_bytes as f64 / self.num_keywords as f64
    }

    /// Average per-keyword build time (Table I row 3).
    pub fn per_keyword_time(&self) -> Duration {
        if self.num_keywords == 0 {
            return Duration::ZERO;
        }
        self.build_time / self.num_keywords as u32
    }
}

/// `BuildIndex` as the owner ships it, cut into shards by
/// [`Rsse::build_parts`].
#[derive(Debug)]
pub struct BuiltParts {
    /// Per shard, its slice of every posting list as `(label, entry_len,
    /// bytes)` in label order (the order of [`RsseIndex::export_parts`]).
    /// Every label is on every shard, its slice possibly empty.
    pub shards: Vec<ListParts>,
    /// Per shard, the labels whose slice holds at least one real
    /// (non-padding) entry, in label order.
    pub real_labels: Vec<Vec<Label>>,
    /// The OPSE parameters the scores are mapped under.
    pub opse: OpseParams,
    /// The build's statistics.
    pub report: BuildReport,
}

/// The efficient ranked searchable symmetric encryption scheme (paper §IV).
///
/// # Example
///
/// ```
/// use rsse_core::{Rsse, RsseParams};
/// use rsse_ir::{Document, FileId};
///
/// # fn main() -> Result<(), rsse_core::RsseError> {
/// let docs = vec![
///     Document::new(FileId::new(1), "network routing network"),
///     Document::new(FileId::new(2), "network"),
///     Document::new(FileId::new(3), "storage systems"),
/// ];
/// let scheme = Rsse::new(b"owner master secret", RsseParams::default());
/// let index = scheme.build_index(&docs)?;
///
/// // The *server* ranks: doc 2 (tf=1 over 1 term) outranks doc 1.
/// let t = scheme.trapdoor("network")?;
/// let top = index.search(&t, Some(1));
/// assert_eq!(top[0].file, FileId::new(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Rsse {
    keys: KeyMaterial,
    params: RsseParams,
    tokenizer: Tokenizer,
}

impl Rsse {
    /// `KeyGen`: derives the key triple from a master seed.
    pub fn new(master_seed: &[u8], params: RsseParams) -> Self {
        Rsse {
            keys: KeyMaterial::from_master_seed(master_seed),
            params,
            tokenizer: Tokenizer::new(),
        }
    }

    /// Builds the scheme from explicit key material.
    pub fn with_keys(keys: KeyMaterial, params: RsseParams) -> Self {
        Rsse {
            keys,
            params,
            tokenizer: Tokenizer::new(),
        }
    }

    /// The scheme's key material (distributed to authorized users during
    /// Setup).
    pub fn keys(&self) -> &KeyMaterial {
        &self.keys
    }

    /// The scheme's parameters.
    pub fn params(&self) -> &RsseParams {
        &self.params
    }

    fn canonical_keyword(&self, query: &str) -> Result<String, RsseError> {
        self.tokenizer
            .tokenize(query)
            .into_iter()
            .next()
            .ok_or(RsseError::EmptyQuery)
    }

    /// `TrapdoorGen(w)`: `(π_x(w), f_y(w))` after case folding/stemming.
    ///
    /// # Errors
    ///
    /// [`RsseError::EmptyQuery`] if the query reduces to nothing.
    pub fn trapdoor(&self, query: &str) -> Result<RsseTrapdoor, RsseError> {
        let keyword = self.canonical_keyword(query)?;
        Ok(RsseTrapdoor::from_parts(
            KeyedLabel::new(self.keys.label_key()).label(keyword.as_bytes()),
            Prf::new(self.keys.entry_key()).derive_key(keyword.as_bytes()),
        ))
    }

    /// The per-keyword OPM instance `OPM_{f_z(w)}` (owner-side).
    pub fn opm_for(&self, keyword: &str, opse: OpseParams) -> Opm {
        let key = Prf::new(self.keys.score_key()).derive_key(keyword.as_bytes());
        Opm::new(key, opse)
    }

    /// Fits the score quantizer over a plaintext index — the owner's
    /// precomputation pass.
    ///
    /// # Errors
    ///
    /// [`RsseError::UnscorableCollection`] when no postings are scorable.
    pub fn fit_quantizer(&self, index: &InvertedIndex) -> Result<ScoreQuantizer, RsseError> {
        ScoreQuantizer::fit_index_with(index, self.params.levels, self.params.scoring)
            .ok_or(RsseError::UnscorableCollection)
    }

    /// `BuildIndex(K, C)` from raw documents (tokenizes and scores
    /// internally).
    ///
    /// # Errors
    ///
    /// Propagates quantizer and padding failures.
    pub fn build_index(&self, documents: &[Document]) -> Result<RsseIndex, RsseError> {
        let plaintext_index = InvertedIndex::build(documents);
        self.build_index_from(&plaintext_index)
    }

    /// `BuildIndex` from an existing plaintext inverted index.
    ///
    /// # Errors
    ///
    /// Propagates quantizer and padding failures.
    pub fn build_index_from(&self, index: &InvertedIndex) -> Result<RsseIndex, RsseError> {
        self.build_index_with_report(index).map(|(idx, _)| idx)
    }

    /// `BuildIndex` with full timing/size statistics (the Table I
    /// measurement entry point): [`Self::build_parts`] on one shard,
    /// assembled into an in-memory index. The per-list stage runs on one
    /// worker per available core, and the index is byte-identical whatever
    /// the worker count.
    ///
    /// # Errors
    ///
    /// Propagates quantizer and padding failures.
    pub fn build_index_with_report(
        &self,
        index: &InvertedIndex,
    ) -> Result<(RsseIndex, BuildReport), RsseError> {
        self.build_on(index, build_workers())
    }

    /// `BuildIndex` as the owner ships it, cut into `shards` shards as the
    /// lists are encrypted: real entry `i` of a list goes to
    /// `shard_of(file_i)`, and padding position `p` to shard `p % shards`,
    /// so every shard keeps cover traffic. Each shard's slice keeps the
    /// list's entry order and holds the very ciphertexts of the unsharded
    /// build — OPM values are seeded per `(keyword, file)` and scores use
    /// the global collection statistics, so a per-shard build would change
    /// both. Only the owner can route entries, since they are semantically
    /// encrypted; a server could not tell real entries from padding.
    ///
    /// With one shard the slices are the whole lists, in label order (the
    /// order of [`RsseIndex::export_parts`]), each written once into a
    /// buffer sized up front; no in-memory index is assembled, so an owner
    /// that only sends the lists copies none of them.
    ///
    /// # Errors
    ///
    /// Propagates quantizer and padding failures.
    ///
    /// # Panics
    ///
    /// When `shards` is 0, or `shard_of` names a shard at or past it.
    pub fn build_parts(
        &self,
        index: &InvertedIndex,
        shards: usize,
        shard_of: impl Fn(FileId) -> usize + Sync,
    ) -> Result<BuiltParts, RsseError> {
        self.parts_on(index, shards, &shard_of, build_workers())
    }

    /// [`Self::build_index_with_report`] on exactly `workers` threads.
    pub(crate) fn build_on(
        &self,
        index: &InvertedIndex,
        workers: usize,
    ) -> Result<(RsseIndex, BuildReport), RsseError> {
        let started = Instant::now();
        let BuiltParts {
            mut shards,
            opse,
            mut report,
            ..
        } = self.parts_on(index, 1, &|_| 0, workers)?;
        let built = RsseIndex::from_parts(shards.pop().expect("one shard"), opse)?;
        report.build_time = started.elapsed();
        Ok((built, report))
    }

    /// [`Self::build_parts`] on exactly `workers` threads.
    fn parts_on(
        &self,
        index: &InvertedIndex,
        shards: usize,
        shard_of: &ShardOf<'_>,
        workers: usize,
    ) -> Result<BuiltParts, RsseError> {
        let started = Instant::now();
        let scored = self.score_terms(index);
        let (quantizer, opse) = self.fit_scored(&scored)?;
        let nu = self.padding_target(index)?;
        let jobs: Vec<ListJob<'_>> = scored
            .into_iter()
            .map(|(term, scored)| self.list_job(term, scored, nu, shards, shard_of))
            .collect();
        let raw_index_time = started.elapsed();

        let mut built = fan_out(jobs, workers, |job| {
            self.encrypt_list(job, &quantizer, opse, nu, shard_of)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        built.sort_unstable_by_key(|(label, ..)| *label);
        let mut parts: Vec<ListParts> = (0..shards)
            .map(|_| Vec::with_capacity(built.len()))
            .collect();
        let mut real_labels = vec![Vec::new(); shards];
        let (mut opm_ops, mut list_time, mut padding_time) = (0, Duration::ZERO, Duration::ZERO);
        let mut index_bytes = 0;
        for (label, slices, stats) in built {
            opm_ops += stats.opm_ops;
            list_time += stats.time;
            padding_time += stats.padding_time;
            index_bytes += label.len();
            for (shard, (bytes, real)) in slices.into_iter().enumerate() {
                index_bytes += bytes.len();
                if real {
                    real_labels[shard].push(label);
                }
                parts[shard].push((label, ENTRY_CT_LEN as u32, bytes));
            }
        }
        let report = BuildReport {
            num_keywords: index.num_keywords(),
            num_docs: index.num_docs(),
            padded_len: nu,
            index_bytes,
            opm_operations: opm_ops,
            range_bits: opse.range_bits(),
            build_time: started.elapsed(),
            raw_index_time,
            list_time,
            padding_time,
            workers,
        };
        Ok(BuiltParts {
            shards: parts,
            real_labels,
            opse,
            report,
        })
    }

    /// Owner-side inversion: recover the quantized score level behind a
    /// mapped value returned by the server.
    ///
    /// # Errors
    ///
    /// Propagates OPSE decryption failures and [`RsseError::EmptyQuery`].
    pub fn decrypt_level(
        &self,
        keyword: &str,
        opse: OpseParams,
        encrypted_score: u64,
    ) -> Result<u64, RsseError> {
        self.score_decryptor(opse)
            .decrypt_level(keyword, encrypted_score)
    }

    /// A [`ScoreDecryptor`] reusing per-keyword [`Opm`] instances — the
    /// batch-friendly form of [`Self::decrypt_level`]. Callers decrypting
    /// more than one score per keyword should hoist a decryptor out of the
    /// loop; the one-shot form above routes through a throwaway decryptor
    /// and cannot amortize the OPM's tree-walk memo across calls.
    pub fn score_decryptor(&self, opse: OpseParams) -> ScoreDecryptor<'_> {
        ScoreDecryptor {
            scheme: self,
            opse,
            opms: std::cell::RefCell::new(HashMap::new()),
        }
    }

    /// Prepares the score-dynamics updater: holds the quantizer fitted at
    /// build time so later insertions are quantized consistently.
    ///
    /// # Errors
    ///
    /// Propagates quantizer fitting failures.
    pub fn updater_for(&self, index: &InvertedIndex) -> Result<IndexUpdater<'_>, RsseError> {
        let doc_frequencies = index
            .iter()
            .map(|(term, postings)| (term.to_string(), postings.len() as u64))
            .collect();
        let (quantizer, opse) = self.fit_scored(&self.score_terms(index))?;
        Ok(IndexUpdater {
            scheme: self,
            quantizer,
            opse,
            stats: CollectionStats::of(index),
            doc_frequencies,
            opms: std::cell::RefCell::new(HashMap::new()),
        })
    }

    /// Every term's `(file, raw score)` pairs in posting order: the one
    /// scoring pass of a build.
    fn score_terms<'i>(&self, index: &'i InvertedIndex) -> Vec<(&'i str, Vec<(FileId, f64)>)> {
        index
            .iter()
            .map(|(term, _)| (term, scores_for_term_with(index, term, self.params.scoring)))
            .collect()
    }

    /// The score quantizer ([`Self::fit_quantizer`]) and the OPSE
    /// parameters, both from the scores of [`Self::score_terms`].
    ///
    /// Duplicate statistics: per paper §IV-C, `max` is the largest number
    /// of identical quantized scores within any posting list, λ the
    /// average posting-list length.
    fn fit_scored(
        &self,
        scored: &[(&str, Vec<(FileId, f64)>)],
    ) -> Result<(ScoreQuantizer, OpseParams), RsseError> {
        let all: Vec<f64> = scored
            .iter()
            .flat_map(|(_, list)| list.iter().map(|(_, score)| *score))
            .collect();
        let quantizer =
            ScoreQuantizer::fit(&all, self.params.levels).ok_or(RsseError::UnscorableCollection)?;
        let max_dup = scored
            .iter()
            .map(|(_, list)| {
                let levels: Vec<u64> = list.iter().map(|(_, s)| quantizer.level(*s)).collect();
                rsse_analysis_free_duplicates(&levels)
            })
            .max()
            .unwrap_or(0);
        // A fitted quantizer saw at least one score, so λ > 0.
        let lambda = all.len() as f64 / scored.len() as f64;
        Ok((quantizer, self.params.resolve_opse(max_dup as f64 / lambda)))
    }

    fn padding_target(&self, index: &InvertedIndex) -> Result<usize, RsseError> {
        match self.params.padding {
            Padding::MaxPostingLen => Ok(index.max_posting_len()),
            Padding::Fixed(nu) => {
                if index.max_posting_len() > nu {
                    Err(RsseError::PaddingTooSmall {
                        configured: nu,
                        longest_list: index.max_posting_len(),
                    })
                } else {
                    Ok(nu)
                }
            }
            Padding::None => Ok(0),
        }
    }

    /// The serial part of one list's build: one output buffer per shard,
    /// sized for the entries the shard gets, beside the list's term and
    /// scored postings. The buffers are allocated here, on the calling
    /// thread, because they outlive the worker that fills them: freed once
    /// the list is stored or sent, they go back to this thread's heap
    /// instead of stranding in a finished worker's (on a 2-vCPU host,
    /// 12 MB of peak RSS in a sharded deployment's serving run).
    fn list_job<'t>(
        &self,
        term: &'t str,
        scored: Vec<(FileId, f64)>,
        nu: usize,
        shards: usize,
        shard_of: &ShardOf<'_>,
    ) -> ListJob<'t> {
        // Per shard: (entries, whether one of them is real).
        let mut counts = vec![(0usize, false); shards];
        for (file, _) in &scored {
            let (entries, real) = &mut counts[shard_of(*file)];
            *entries += 1;
            *real = true;
        }
        for p in scored.len()..nu {
            counts[p % shards].0 += 1;
        }
        ListJob {
            slices: counts
                .into_iter()
                .map(|(entries, real)| (Vec::with_capacity(entries * ENTRY_CT_LEN), real))
                .collect(),
            term,
            scored,
        }
    }

    /// The per-list part of one list's build: derive the list's label,
    /// entry cipher and coin tape, OPM-map and encrypt every real entry
    /// into its file's shard, two per AES kernel call, then pad to ν.
    fn encrypt_list(
        &self,
        job: ListJob<'_>,
        quantizer: &ScoreQuantizer,
        opse: OpseParams,
        nu: usize,
        shard_of: &ShardOf<'_>,
    ) -> Result<BuiltList, RsseError> {
        let started = Instant::now();
        let ListJob {
            term,
            scored,
            mut slices,
        } = job;
        let label = KeyedLabel::new(self.keys.label_key()).label(term.as_bytes());
        let cipher =
            SemanticCipher::new(&Prf::new(self.keys.entry_key()).derive_key(term.as_bytes()));
        let mut tape = Tape::new(
            self.keys.score_key(),
            &Transcript::new("rsse/build")
                .bytes(term.as_bytes())
                .finish(),
        );
        let opm = self.opm_for(term, opse);
        for pair in scored.chunks(ENTRIES_PER_CALL) {
            let mut batch = [([0u8; ENTRY_NONCE_LEN], FileId::default(), 0); ENTRIES_PER_CALL];
            for ((nonce, file, mapped), &(posting, score)) in batch.iter_mut().zip(pair) {
                *mapped = opm.encrypt(quantizer.level(score), posting.as_u64())?;
                tape.fill_bytes(nonce);
                *file = posting;
            }
            seal_entries(&cipher, &batch[..pair.len()], |file, entry| {
                slices[shard_of(file)].0.extend_from_slice(entry)
            });
        }
        let real = scored.len();
        // Pad to ν with random entries: the tape's next bytes after the
        // real entries' draws. One shard takes them in place; more deal
        // them out entry by entry.
        let padding_started = Instant::now();
        let padded = nu.max(real);
        match slices.as_mut_slice() {
            [(list, _)] => {
                list.resize(padded * ENTRY_CT_LEN, 0);
                tape.fill_bytes(&mut list[real * ENTRY_CT_LEN..]);
            }
            many => {
                for p in real..padded {
                    let (slice, _) = &mut many[p % many.len()];
                    let at = slice.len();
                    slice.resize(at + ENTRY_CT_LEN, 0);
                    tape.fill_bytes(&mut slice[at..]);
                }
            }
        }
        let padding_time = padding_started.elapsed();
        let stats = ListStats {
            opm_ops: real as u64,
            time: started.elapsed(),
            padding_time,
        };
        Ok((label, slices, stats))
    }
}

/// The file → shard map a build partitions its lists by.
type ShardOf<'f> = dyn Fn(FileId) -> usize + Sync + 'f;

/// One posting list's inputs to the per-list stage.
struct ListJob<'t> {
    term: &'t str,
    scored: Vec<(FileId, f64)>,
    /// Per shard: the output buffer, and whether a real entry lands in it.
    slices: Vec<(Vec<u8>, bool)>,
}

/// One built list: its label, per shard its slice and whether the slice
/// holds a real entry, and its statistics.
type BuiltList = (Label, Vec<(Vec<u8>, bool)>, ListStats);

struct ListStats {
    opm_ops: u64,
    time: Duration,
    padding_time: Duration,
}

/// Worker threads for a build's per-list stage: one per available core.
fn build_workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Maps `f` over `jobs` on `workers` scoped threads, each taking the next
/// job off a shared queue, and returns the results in job order. One
/// worker (or one job) runs inline.
fn fan_out<J: Send, R: Send>(jobs: Vec<J>, workers: usize, f: impl Fn(J) -> R + Sync) -> Vec<R> {
    if workers <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(f).collect();
    }
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let next = queue
                            .lock()
                            .expect("no worker panics holding the queue")
                            .next();
                        let Some((i, job)) = next else { break out };
                        out.push((i, f(job)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Largest multiplicity within a slice of levels (avoids a dependency on
/// the analysis crate from core).
fn rsse_analysis_free_duplicates(levels: &[u64]) -> usize {
    let mut counts: HashMap<u64, usize> = HashMap::new();
    for &l in levels {
        *counts.entry(l).or_insert(0) += 1;
    }
    counts.values().copied().max().unwrap_or(0)
}

/// Owner-side cache of per-keyword [`Opm`] instances for decrypting mapped
/// scores in bulk.
///
/// The one-shot [`Rsse::decrypt_level`] routes through a throwaway
/// decryptor, so its `Opm` — whose memoized search tree starts cold — is
/// rebuilt on *every* call and the same bucket walk is re-derived each
/// time. The experiment and score-dynamics paths decrypt many values per
/// keyword; this decryptor keeps one warm `Opm` per keyword for the
/// lifetime of a batch. Obtain via [`Rsse::score_decryptor`].
#[derive(Debug)]
pub struct ScoreDecryptor<'a> {
    pub(crate) scheme: &'a Rsse,
    pub(crate) opse: OpseParams,
    pub(crate) opms: std::cell::RefCell<HashMap<String, Opm>>,
}

impl ScoreDecryptor<'_> {
    /// Recovers the quantized score level behind `encrypted_score`, reusing
    /// the keyword's cached [`Opm`] (created on first use).
    ///
    /// # Errors
    ///
    /// Propagates OPSE decryption failures and [`RsseError::EmptyQuery`].
    pub fn decrypt_level(&self, keyword: &str, encrypted_score: u64) -> Result<u64, RsseError> {
        let keyword = self.scheme.canonical_keyword(keyword)?;
        let mut opms = self.opms.borrow_mut();
        let opm = opms
            .entry(keyword)
            .or_insert_with_key(|k| self.scheme.opm_for(k, self.opse));
        Ok(opm.decrypt(encrypted_score)?)
    }

    /// Number of keywords with a cached `Opm`.
    pub fn cached_keywords(&self) -> usize {
        self.opms.borrow().len()
    }
}

/// Owner-side score-dynamics helper: encrypts postings for newly added
/// documents without touching the existing index (§VII).
#[derive(Debug)]
pub struct IndexUpdater<'a> {
    scheme: &'a Rsse,
    quantizer: ScoreQuantizer,
    opse: OpseParams,
    /// Collection statistics frozen at fit time (BM25 normalization).
    stats: CollectionStats,
    /// Per-term document frequencies frozen at fit time; unseen terms
    /// default to 1 (most selective) when scoring an update.
    doc_frequencies: HashMap<String, u64>,
    /// Warm per-term OPM instances — updates for a stream of documents keep
    /// re-mapping scores under the same keywords.
    opms: std::cell::RefCell<HashMap<String, Opm>>,
}

/// A batch of encrypted posting-list appends produced by the owner: per
/// touched list, `(label, entry_len, bytes)` with `entry_len` always
/// [`ENTRY_CT_LEN`] and `bytes` a whole number of such entries.
#[derive(Debug, Clone, Default)]
pub struct IndexUpdate {
    ops: ListParts,
}

impl IndexUpdate {
    /// Number of `(label, entry_len, bytes)` operations in the batch.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Rebuilds an update from its wire parts (server side of the cloud
    /// `Update` message).
    ///
    /// # Errors
    ///
    /// [`RsseError::MalformedList`] for an operation whose `entry_len` is
    /// not [`ENTRY_CT_LEN`] or whose bytes are not a whole number of
    /// entries.
    pub fn from_parts(ops: ListParts) -> Result<Self, RsseError> {
        match ops.iter().find(|(_, entry_len, bytes)| {
            *entry_len as usize != ENTRY_CT_LEN || !bytes.len().is_multiple_of(ENTRY_CT_LEN)
        }) {
            Some((label, ..)) => Err(RsseError::MalformedList(*label)),
            None => Ok(IndexUpdate { ops }),
        }
    }

    /// Decomposes the update into `(label, entry_len, bytes)` triples for
    /// the wire.
    pub fn into_parts(self) -> ListParts {
        self.ops
    }

    /// The posting-list labels this update touches — what a serving-side
    /// ranking cache must invalidate before the update becomes visible.
    pub fn labels(&self) -> impl Iterator<Item = &Label> + '_ {
        self.ops.iter().map(|(label, ..)| label)
    }

    /// Applies the batch to a server-held index. Every operation is whole
    /// [`ENTRY_CT_LEN`]-byte entries (checked when the update was built or
    /// received), so [`RsseIndex::append_entries`] admits each.
    pub fn apply_to(self, index: &mut RsseIndex) {
        for (label, entry_len, bytes) in self.ops {
            index
                .append_entries(label, entry_len, &bytes)
                .expect("an update holds whole entries");
        }
    }
}

impl IndexUpdater<'_> {
    /// The OPSE parameters updates are mapped under (must match the built
    /// index).
    pub fn opse_params(&self) -> OpseParams {
        self.opse
    }

    /// Encrypts the postings of a new document into an [`IndexUpdate`].
    ///
    /// # Errors
    ///
    /// [`RsseError::UnknownDocument`] when the document tokenizes to
    /// nothing.
    pub fn add_document(&self, doc: &Document) -> Result<IndexUpdate, RsseError> {
        let tokens = self.scheme.tokenizer.tokenize(doc.text());
        if tokens.is_empty() {
            return Err(RsseError::UnknownDocument);
        }
        let doc_len = tokens.len() as u32;
        let mut tf: HashMap<&str, u32> = HashMap::new();
        for t in &tokens {
            *tf.entry(t.as_str()).or_insert(0) += 1;
        }
        let mut ops = Vec::with_capacity(tf.len());
        let mut terms: Vec<(&str, u32)> = tf.into_iter().collect();
        terms.sort_unstable(); // deterministic op order
        for (term, count) in terms {
            let label = KeyedLabel::new(self.scheme.keys.label_key()).label(term.as_bytes());
            let list_key = Prf::new(self.scheme.keys.entry_key()).derive_key(term.as_bytes());
            let entry_cipher = SemanticCipher::new(&list_key);
            let mut tape = Tape::new(
                self.scheme.keys.score_key(),
                &Transcript::new("rsse/update")
                    .bytes(term.as_bytes())
                    .u64(doc.id().as_u64())
                    .finish(),
            );
            let df = self.doc_frequencies.get(term).copied().unwrap_or(1);
            let score = self
                .scheme
                .params
                .scoring
                .score(count, doc_len, df, &self.stats);
            let level = self.quantizer.level(score);
            let mut opms = self.opms.borrow_mut();
            let opm = opms
                .entry(term.to_string())
                .or_insert_with(|| self.scheme.opm_for(term, self.opse));
            let mapped = opm.encrypt(level, doc.id().as_u64())?;
            drop(opms);
            let mut nonce = [0u8; ENTRY_NONCE_LEN];
            tape.fill_bytes(&mut nonce);
            let mut entry = Vec::with_capacity(ENTRY_CT_LEN);
            seal_entry(&entry_cipher, nonce, doc.id(), mapped, &mut entry);
            ops.push((label, ENTRY_CT_LEN as u32, entry));
        }
        Ok(IndexUpdate { ops })
    }
}

// Tests live in scheme_tests.rs to keep this file focused.
#[cfg(test)]
#[path = "scheme_tests.rs"]
mod tests;
