//! Reply checks. Every served document must decrypt to the owner's
//! plaintext for that id and contain every query keyword; rankings must
//! be non-increasing; where a reference ranking exists, the reply must
//! equal it byte for byte.

use crate::workload::TOP_K;
use rsse_ir::score::score_query;
use rsse_ir::{Document, FileId, InvertedIndex, Tokenizer};
use std::collections::{HashMap, HashSet};
use std::sync::RwLock;

struct Entry {
    text: String,
    terms: HashSet<String>,
}

/// The owner's plaintext of every document the server may return: the
/// corpus, plus each update document as it is sent.
pub struct DocBook {
    base: HashMap<u64, Entry>,
    added: RwLock<HashMap<u64, Entry>>,
    tokenizer: Tokenizer,
}

impl DocBook {
    pub fn new(docs: &[Document]) -> DocBook {
        let tokenizer = Tokenizer::new();
        let base = docs
            .iter()
            .map(|d| (d.id().as_u64(), entry(&tokenizer, d)))
            .collect();
        DocBook {
            base,
            added: RwLock::new(HashMap::new()),
            tokenizer,
        }
    }

    pub fn add(&self, doc: &Document) {
        let e = entry(&self.tokenizer, doc);
        self.added
            .write()
            .expect("doc book lock poisoned by a panicked client")
            .insert(doc.id().as_u64(), e);
    }

    /// Whether `doc` is the owner's document with that id and contains
    /// every one of `terms`.
    pub fn holds(&self, doc: &Document, terms: &[&str]) -> bool {
        let ok = |e: &Entry| e.text == doc.text() && terms.iter().all(|t| e.terms.contains(*t));
        match self.base.get(&doc.id().as_u64()) {
            Some(e) => ok(e),
            None => self
                .added
                .read()
                .expect("doc book lock poisoned by a panicked client")
                .get(&doc.id().as_u64())
                .is_some_and(ok),
        }
    }
}

fn entry(tokenizer: &Tokenizer, doc: &Document) -> Entry {
    Entry {
        text: doc.text().to_string(),
        terms: tokenizer.tokenize(doc.text()).into_iter().collect(),
    }
}

fn non_increasing<T: PartialOrd>(values: impl IntoIterator<Item = T>) -> bool {
    let v: Vec<T> = values.into_iter().collect();
    v.windows(2).all(|w| w[0] >= w[1])
}

/// How a reply's documents relate to its ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// One correct document per ranked id, in rank order.
    Complete,
    /// Every delivered document is correct and in rank order, but some
    /// ranked ids came without their file. `CloudServer::apply_update`
    /// appends to the index before it stores the new file, so a search
    /// racing an update can rank a document the server cannot yet
    /// return (and the shard router's merge then drops that shard's
    /// later files). This is a bug of the program, not of the reply
    /// check: until the program closes the race, a torn reply does not
    /// fail the run, but it counts against the end-to-end
    /// `complete_frac`, whose bound stops the race from growing
    /// unnoticed, and in `check.torn_replies`.
    Torn,
    Wrong,
}

fn docs_verdict(book: &DocBook, ids: &[u64], docs: &[Document], terms: &[&str]) -> Verdict {
    if ids.len() > TOP_K as usize {
        return Verdict::Wrong;
    }
    let mut rest = ids.iter();
    for d in docs {
        let id = d.id().as_u64();
        if !rest.any(|&r| r == id) || !book.holds(d, terms) {
            return Verdict::Wrong;
        }
    }
    if docs.len() == ids.len() {
        Verdict::Complete
    } else {
        Verdict::Torn
    }
}

/// A single-keyword reply: `(file id, OPM score)` ranking plus its
/// decrypted documents. A reply with a reference ranking must equal it
/// and be complete.
pub fn ranked_reply(
    book: &DocBook,
    ranking: &[(u64, u64)],
    docs: &[Document],
    term: &str,
    reference: Option<&[(u64, u64)]>,
) -> Verdict {
    let ids: Vec<u64> = ranking.iter().map(|r| r.0).collect();
    match docs_verdict(book, &ids, docs, &[term]) {
        _ if !non_increasing(ranking.iter().map(|r| r.1)) => Verdict::Wrong,
        Verdict::Complete if reference.is_none_or(|r| r == ranking) => Verdict::Complete,
        Verdict::Torn if reference.is_none() => Verdict::Torn,
        _ => Verdict::Wrong,
    }
}

/// A conjunctive reply: `(file id, per-keyword mapped scores)` ranked
/// by score sum.
pub fn conjunctive_reply(
    book: &DocBook,
    ranking: &[(u64, Vec<u64>)],
    docs: &[Document],
    terms: &[&str],
) -> Verdict {
    let sums = ranking
        .iter()
        .map(|(_, s)| s.iter().map(|&x| u128::from(x)).sum::<u128>());
    if !non_increasing(sums) {
        return Verdict::Wrong;
    }
    let ids: Vec<u64> = ranking.iter().map(|r| r.0).collect();
    docs_verdict(book, &ids, docs, terms)
}

/// nDCG@10 of the served conjunctive ranking `served` (file ids, best
/// first) against the exact eq.-(1) ranking of `terms` over the
/// plaintext index: gains are the exact scores, so a served order equal
/// to the exact one scores 1.
pub fn ndcg_at_10(index: &InvertedIndex, terms: [&str; 2], served: &[u64]) -> f64 {
    let lists: Vec<HashMap<FileId, u32>> = terms
        .iter()
        .map(|t| {
            index
                .postings(t)
                .unwrap_or(&[])
                .iter()
                .map(|p| (p.file, p.term_frequency))
                .collect()
        })
        .collect();
    let dfs: Vec<u64> = lists.iter().map(|l| l.len() as u64).collect();
    let exact: HashMap<u64, f64> = lists[0]
        .iter()
        .filter_map(|(file, &tf0)| {
            let tf1 = *lists[1].get(file)?;
            let len = index.doc_length(*file)?;
            let score = score_query(&[(tf0, dfs[0]), (tf1, dfs[1])], len, index.num_docs());
            Some((file.as_u64(), score))
        })
        .collect();
    let discount = |i: usize| (i as f64 + 2.0).log2();
    let dcg: f64 = served
        .iter()
        .take(10)
        .enumerate()
        .map(|(i, id)| exact.get(id).copied().unwrap_or(0.0) / discount(i))
        .sum();
    let mut ideal: Vec<f64> = exact.into_values().collect();
    ideal.sort_by(|a, b| b.total_cmp(a));
    let idcg: f64 = ideal
        .iter()
        .take(10)
        .enumerate()
        .map(|(i, g)| g / discount(i))
        .sum();
    if idcg > 0.0 {
        dcg / idcg
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: u64, text: &str) -> Document {
        Document::new(FileId::new(id), text)
    }

    #[test]
    fn replies_must_match_the_owner_plaintext_and_keywords() {
        use Verdict::{Complete, Torn, Wrong};
        let book = DocBook::new(&[doc(1, "alpha beta"), doc(2, "alpha gamma")]);
        let docs = [doc(2, "alpha gamma"), doc(1, "alpha beta")];
        let ranking = [(2, 9), (1, 4)];
        assert_eq!(
            ranked_reply(&book, &ranking, &docs, "alpha", None),
            Complete
        );
        assert_eq!(
            ranked_reply(&book, &ranking, &docs, "alpha", Some(&ranking)),
            Complete
        );
        assert_eq!(
            ranked_reply(&book, &ranking, &docs, "alpha", Some(&[(2, 9)])),
            Wrong
        );
        assert_eq!(
            ranked_reply(&book, &ranking, &docs, "beta", None),
            Wrong,
            "doc 2 lacks beta"
        );
        let rising = [(1, 4), (2, 9)];
        assert_eq!(
            ranked_reply(
                &book,
                &rising,
                &[docs[1].clone(), docs[0].clone()],
                "alpha",
                None
            ),
            Wrong
        );
        let forged = [doc(2, "alpha delta"), doc(1, "alpha beta")];
        assert_eq!(ranked_reply(&book, &ranking, &forged, "alpha", None), Wrong);
        let missing_first = &docs[1..];
        assert_eq!(
            ranked_reply(&book, &ranking, missing_first, "alpha", None),
            Torn
        );
        assert_eq!(
            ranked_reply(&book, &ranking, missing_first, "alpha", Some(&ranking)),
            Wrong
        );
        let reordered = [docs[1].clone(), docs[0].clone()];
        assert_eq!(
            ranked_reply(&book, &ranking, &reordered, "alpha", None),
            Wrong
        );
        let update = doc(9, "gamma zeta");
        assert!(!book.holds(&update, &["zeta"]));
        book.add(&update);
        assert!(book.holds(&update, &["zeta", "gamma"]));
        let conj = [(9, vec![5, 5]), (2, vec![1, 2])];
        assert_eq!(
            conjunctive_reply(&book, &conj, &[update, docs[0].clone()], &["gamma"]),
            Complete
        );
    }

    #[test]
    fn ndcg_is_one_for_the_exact_order_and_less_otherwise() {
        let docs = [
            doc(1, "red blue"),
            doc(2, "red red red blue"),
            doc(3, "red blue blue green green green"),
            doc(4, "red"),
        ];
        let index = InvertedIndex::build(&docs);
        // Eq. (1): doc 1 = 0.770, doc 2 = 0.575, doc 3 = 0.354.
        let exact = ndcg_at_10(&index, ["red", "blue"], &[1, 2, 3]);
        assert!((exact - 1.0).abs() < 1e-12, "{exact}");
        let reversed = ndcg_at_10(&index, ["red", "blue"], &[3, 2, 1]);
        assert!(reversed < 0.95, "{reversed}");
        assert_eq!(
            ndcg_at_10(&index, ["red", "green"], &[]),
            0.0,
            "missed the only match"
        );
    }
}
