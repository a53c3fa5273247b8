//! The plaintext inverted index (postings file).
//!
//! `InvertedIndex` is the classical IR structure of the paper's Fig. 2: a
//! map from each distinct keyword `w_i` to its posting list `F(w_i)` of
//! `(file id, term frequency)` pairs, plus the per-document lengths `|F_d|`
//! needed by the scoring formula. The secure schemes (basic SSE and RSSE)
//! are built by encrypting this structure.

use crate::document::{Document, FileId};
use crate::text::Tokenizer;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// One entry of a posting list: a file containing the keyword, with its
/// term frequency `f_{d,t}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Posting {
    /// The containing file.
    pub file: FileId,
    /// Number of occurrences of the term in the file.
    pub term_frequency: u32,
}

/// The plaintext inverted index over a document collection.
///
/// # Example
///
/// ```
/// use rsse_ir::{Document, FileId, InvertedIndex};
///
/// let docs = vec![
///     Document::new(FileId::new(1), "cloud networks and cloud storage"),
///     Document::new(FileId::new(2), "network protocols"),
/// ];
/// let index = InvertedIndex::build(&docs);
/// let postings = index.postings("network").unwrap();
/// assert_eq!(postings.len(), 2); // both documents mention network(s)
/// assert!(index.postings("zebra").is_none());
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct InvertedIndex {
    /// Keyword → posting list, ordered for deterministic iteration.
    postings: BTreeMap<String, Vec<Posting>>,
    /// `|F_d|`: number of indexed terms per document.
    doc_lengths: HashMap<FileId, u32>,
    /// Total number of documents `N`.
    num_docs: u64,
}

impl InvertedIndex {
    /// Builds the index with the default tokenizer.
    pub fn build(documents: &[Document]) -> Self {
        Self::build_with(documents, &Tokenizer::new())
    }

    /// Builds the index with an explicit tokenizer.
    ///
    /// Each distinct raw token is normalized ([`Tokenizer::normalize`])
    /// once per build rather than once per occurrence, and term
    /// frequencies are counted by term id, so the index equals one built
    /// from [`Tokenizer::tokenize`] on every document.
    pub fn build_with(documents: &[Document], tokenizer: &Tokenizer) -> Self {
        // Raw token -> term id (`None`: dropped), and term -> term id.
        let mut raw_ids: HashMap<&str, Option<usize>> = HashMap::new();
        let mut term_ids: HashMap<String, usize> = HashMap::new();
        let mut lists: Vec<(String, Vec<Posting>)> = Vec::new();
        // This document's count per term id, and the ids it touched.
        let mut tf: Vec<u32> = Vec::new();
        let mut touched: Vec<usize> = Vec::new();
        let mut doc_lengths = HashMap::with_capacity(documents.len());
        for doc in documents {
            let mut len = 0u32;
            for raw in Tokenizer::raw_tokens(doc.text()) {
                let id = *raw_ids.entry(raw).or_insert_with(|| {
                    let term = tokenizer.normalize(raw)?;
                    Some(*term_ids.entry(term).or_insert_with_key(|term| {
                        lists.push((term.clone(), Vec::new()));
                        tf.push(0);
                        lists.len() - 1
                    }))
                });
                let Some(id) = id else { continue };
                if tf[id] == 0 {
                    touched.push(id);
                }
                tf[id] += 1;
                len += 1;
            }
            doc_lengths.insert(doc.id(), len);
            for id in touched.drain(..) {
                lists[id].1.push(Posting {
                    file: doc.id(),
                    term_frequency: std::mem::take(&mut tf[id]),
                });
            }
        }
        // Deterministic posting order: by file id.
        let postings = lists
            .into_iter()
            .map(|(term, mut list)| {
                list.sort_by_key(|p| p.file);
                (term, list)
            })
            .collect();
        InvertedIndex {
            postings,
            doc_lengths,
            num_docs: documents.len() as u64,
        }
    }

    /// The posting list `F(w)` for keyword `w` (already tokenized/stemmed),
    /// or `None` if no document contains it.
    pub fn postings(&self, term: &str) -> Option<&[Posting]> {
        self.postings.get(term).map(|v| v.as_slice())
    }

    /// Looks up a raw (unstemmed) keyword by running it through `tokenizer`
    /// first — what a user types versus what the index stores.
    pub fn postings_for_query(&self, query: &str, tokenizer: &Tokenizer) -> Option<&[Posting]> {
        let tokens = tokenizer.tokenize(query);
        let term = tokens.first()?;
        self.postings(term)
    }

    /// Iterates over `(keyword, posting list)` pairs in keyword order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[Posting])> {
        self.postings
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Number of distinct keywords `m`.
    pub fn num_keywords(&self) -> usize {
        self.postings.len()
    }

    /// Number of documents `N` in the collection.
    pub fn num_docs(&self) -> u64 {
        self.num_docs
    }

    /// `N_i = |F(w_i)|` for keyword `w`, or 0 if absent.
    pub fn document_frequency(&self, term: &str) -> u64 {
        self.postings.get(term).map_or(0, |v| v.len() as u64)
    }

    /// `|F_d|`: indexed length of document `d`, or `None` for unknown files.
    pub fn doc_length(&self, file: FileId) -> Option<u32> {
        self.doc_lengths.get(&file).copied()
    }

    /// The largest posting-list length `ν = max_i N_i` — the padding target
    /// of the paper's `BuildIndex`.
    pub fn max_posting_len(&self) -> usize {
        self.postings.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Mean indexed document length (the BM25 normalization input).
    pub fn avg_doc_len(&self) -> f64 {
        if self.doc_lengths.is_empty() {
            return 0.0;
        }
        self.doc_lengths.values().map(|&l| l as f64).sum::<f64>() / self.doc_lengths.len() as f64
    }

    /// The average posting-list length `λ` used by the range-size selection.
    pub fn avg_posting_len(&self) -> f64 {
        if self.postings.is_empty() {
            return 0.0;
        }
        self.postings.values().map(Vec::len).sum::<usize>() as f64 / self.postings.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_docs() -> Vec<Document> {
        vec![
            Document::new(
                FileId::new(1),
                "cloud computing and cloud storage in the cloud",
            ),
            Document::new(FileId::new(2), "network protocols for cloud networks"),
            Document::new(FileId::new(3), "database systems"),
        ]
    }

    #[test]
    fn term_frequencies_counted() {
        let idx = InvertedIndex::build(&sample_docs());
        let cloud = idx.postings("cloud").unwrap();
        let f1 = cloud.iter().find(|p| p.file == FileId::new(1)).unwrap();
        assert_eq!(f1.term_frequency, 3);
    }

    #[test]
    fn stemming_merges_variants() {
        let idx = InvertedIndex::build(&sample_docs());
        // "network" and "networks" both stem to "network".
        let net = idx.postings("network").unwrap();
        assert_eq!(net.len(), 1);
        assert_eq!(net[0].term_frequency, 2);
    }

    #[test]
    fn doc_lengths_recorded() {
        let idx = InvertedIndex::build(&sample_docs());
        // Doc 3: "database systems" → [databas, system] → length 2.
        assert_eq!(idx.doc_length(FileId::new(3)), Some(2));
        assert_eq!(idx.doc_length(FileId::new(99)), None);
    }

    #[test]
    fn document_frequency_and_counts() {
        let idx = InvertedIndex::build(&sample_docs());
        assert_eq!(idx.num_docs(), 3);
        assert_eq!(idx.document_frequency("cloud"), 2);
        assert_eq!(idx.document_frequency("zebra"), 0);
    }

    #[test]
    fn postings_sorted_by_file_id() {
        let docs = vec![
            Document::new(FileId::new(9), "alpha"),
            Document::new(FileId::new(2), "alpha"),
            Document::new(FileId::new(5), "alpha"),
        ];
        let idx = InvertedIndex::build(&docs);
        let files: Vec<u64> = idx
            .postings("alpha")
            .unwrap()
            .iter()
            .map(|p| p.file.as_u64())
            .collect();
        assert_eq!(files, vec![2, 5, 9]);
    }

    #[test]
    fn query_stemming_resolves_to_index_term() {
        let idx = InvertedIndex::build(&sample_docs());
        let t = Tokenizer::new();
        assert!(idx.postings_for_query("Networks", &t).is_some());
        assert!(idx.postings_for_query("networking", &t).is_some());
        assert!(
            idx.postings_for_query("the", &t).is_none(),
            "stop word only"
        );
    }

    #[test]
    fn build_equals_an_index_assembled_from_tokenize_per_document() {
        let docs = vec![
            Document::new(FileId::new(4), "Networks NETWORK networking; the NOS nos"),
            Document::new(FileId::new(1), "RFC-793 port=80, TCP/IP 80 x2 it's"),
            Document::new(FileId::new(7), "Café naïve CAFÉ über-fast ÜBER 東京 東京"),
            Document::new(FileId::new(2), "the of and to in"),
            Document::new(FileId::new(3), "running runs ran Runner's routing ROUTES"),
            Document::new(FileId::new(1), "a second document under file one"),
        ];
        let tokenizer = Tokenizer::new();
        let built = InvertedIndex::build_with(&docs, &tokenizer);
        let mut want: BTreeMap<String, Vec<Posting>> = BTreeMap::new();
        let mut lengths = HashMap::new();
        for doc in &docs {
            let tokens = tokenizer.tokenize(doc.text());
            lengths.insert(doc.id(), tokens.len() as u32);
            let mut tf: BTreeMap<&str, u32> = BTreeMap::new();
            for token in &tokens {
                *tf.entry(token).or_default() += 1;
            }
            for (term, term_frequency) in tf {
                want.entry(term.to_string()).or_default().push(Posting {
                    file: doc.id(),
                    term_frequency,
                });
            }
        }
        want.values_mut().for_each(|l| l.sort_by_key(|p| p.file));
        let got: BTreeMap<String, Vec<Posting>> = built
            .iter()
            .map(|(term, list)| (term.to_string(), list.to_vec()))
            .collect();
        assert_eq!(got, want);
        assert!(got.contains_key("network") && !got.contains_key("no"));
        for doc in &docs {
            assert_eq!(built.doc_length(doc.id()), lengths.get(&doc.id()).copied());
        }
        assert_eq!(built.num_docs(), docs.len() as u64);
    }

    #[test]
    fn empty_collection() {
        let idx = InvertedIndex::build(&[]);
        assert_eq!(idx.num_docs(), 0);
        assert_eq!(idx.num_keywords(), 0);
        assert_eq!(idx.max_posting_len(), 0);
        assert_eq!(idx.avg_posting_len(), 0.0);
    }

    #[test]
    fn padding_statistics() {
        let idx = InvertedIndex::build(&sample_docs());
        assert!(idx.max_posting_len() >= 2);
        assert!(idx.avg_posting_len() > 0.0);
    }
}
