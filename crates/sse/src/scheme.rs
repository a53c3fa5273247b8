//! The paper's **basic scheme** (§III-C): ranked search with SSE-level
//! security, ranking done on the user side.
//!
//! `BuildIndex` follows Fig. 3 literally: per keyword `w_i`, every posting
//! `0^l ‖ id(F_ij) ‖ E_z(S_ij)` is encrypted under the per-list key
//! `f_y(w_i)`, the list is padded with random strings to the global maximum
//! length ν, and the keyword is replaced by the label `π_x(w_i)`. The server
//! learns only access and search patterns; relevance scores remain
//! semantically encrypted, which is why *the server cannot rank* and the
//! user pays post-processing and bandwidth (the inefficiency that motivates
//! RSSE).

use crate::entry::{decode_entry, encode_entry, ENTRY_CT_LEN, SCORE_CT_LEN};
use crate::error::SseError;
use rsse_crypto::ctr::NONCE_LEN;
use rsse_crypto::tape::Transcript;
use rsse_crypto::{KeyMaterial, KeyedLabel, Prf, SecretKey, SemanticCipher, Tape};
use rsse_ir::{FileId, InvertedIndex, Tokenizer};
use std::collections::HashMap;

/// A posting-list label `π_x(w)` (160 bits).
pub type Label = [u8; 20];

/// The entries of one posting list, each a borrowed slice of its flat
/// buffer.
pub type Entries<'a> = std::slice::ChunksExact<'a, u8>;

/// The search trapdoor `T_w = (π_x(w), f_y(w))`.
///
/// The second component is the per-list decryption key; the server uses the
/// label for lookup and — in the basic scheme — returns opaque entries the
/// *user* decrypts.
#[derive(Clone)]
pub struct Trapdoor {
    label: Label,
    list_key: SecretKey,
}

impl core::fmt::Debug for Trapdoor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Trapdoor {{ label: {:02x?}.., key: <redacted> }}",
            &self.label[..4]
        )
    }
}

impl Trapdoor {
    /// The posting-list label `π_x(w)`.
    pub fn label(&self) -> &Label {
        &self.label
    }

    /// The per-list key `f_y(w)`.
    pub fn list_key(&self) -> &SecretKey {
        &self.list_key
    }

    /// Reassembles a trapdoor from its wire components.
    pub fn from_parts(label: Label, list_key: SecretKey) -> Self {
        Trapdoor { label, list_key }
    }
}

/// Padding policy for `BuildIndex`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PaddingPolicy {
    /// Pad every list to the longest observed posting list (the paper's ν).
    #[default]
    MaxPostingLen,
    /// Pad to a fixed ν (fails if any list is longer).
    Fixed(usize),
}

/// A decrypted, ranked search result entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredFile {
    /// The matching file.
    pub file: FileId,
    /// Its raw relevance score (eq. 2).
    pub score: f64,
}

/// The encrypted searchable index held by the cloud server: per label,
/// the list's [`ENTRY_CT_LEN`]-byte entries back to back.
#[derive(Debug, Clone, Default)]
pub struct BasicEncryptedIndex {
    lists: HashMap<Label, Vec<u8>>,
}

impl BasicEncryptedIndex {
    /// Reassembles an index from its wire parts, one `(label, entry_len,
    /// bytes)` triple per list.
    ///
    /// # Errors
    ///
    /// [`SseError::MalformedList`] for a non-empty list that is not whole
    /// [`ENTRY_CT_LEN`]-byte entries under an `entry_len` of
    /// [`ENTRY_CT_LEN`]. An empty list passes under any entry length.
    pub fn from_parts(parts: Vec<(Label, u32, Vec<u8>)>) -> Result<Self, SseError> {
        let mut lists = HashMap::with_capacity(parts.len());
        for (label, entry_len, bytes) in parts {
            let whole =
                entry_len as usize == ENTRY_CT_LEN && bytes.len().is_multiple_of(ENTRY_CT_LEN);
            if !bytes.is_empty() && !whole {
                return Err(SseError::MalformedList(label));
            }
            lists.insert(label, bytes);
        }
        Ok(BasicEncryptedIndex { lists })
    }

    /// Exports the index as `(label, entry_len, bytes)` triples in label
    /// order, every list under an `entry_len` of [`ENTRY_CT_LEN`].
    pub fn export_parts(&self) -> Vec<(Label, u32, Vec<u8>)> {
        let mut parts: Vec<_> = self
            .lists
            .iter()
            .map(|(l, b)| (*l, ENTRY_CT_LEN as u32, b.clone()))
            .collect();
        parts.sort_by_key(|a| a.0);
        parts
    }

    /// Server-side `SearchIndex`: locate the posting list by label.
    ///
    /// The basic scheme's server cannot rank — it returns the whole
    /// (padded) list of opaque entries.
    pub fn search(&self, label: &Label) -> Option<Entries<'_>> {
        Some(self.lists.get(label)?.chunks_exact(ENTRY_CT_LEN))
    }

    /// Number of posting lists (`m`, the number of distinct keywords).
    pub fn num_lists(&self) -> usize {
        self.lists.len()
    }

    /// The uniform (padded) list length ν, or 0 when empty.
    pub fn padded_len(&self) -> usize {
        self.lists
            .values()
            .next()
            .map_or(0, |b| b.len() / ENTRY_CT_LEN)
    }

    /// Total index size in bytes (labels + entries).
    pub fn size_bytes(&self) -> usize {
        self.lists
            .iter()
            .map(|(k, bytes)| k.len() + bytes.len())
            .sum()
    }
}

/// The basic ranked-searchable-encryption scheme.
///
/// # Example
///
/// ```
/// use rsse_ir::{Document, FileId, InvertedIndex};
/// use rsse_sse::BasicScheme;
///
/// # fn main() -> Result<(), rsse_sse::SseError> {
/// let docs = vec![
///     Document::new(FileId::new(1), "network routing network"),
///     Document::new(FileId::new(2), "network"),
/// ];
/// let plaintext_index = InvertedIndex::build(&docs);
///
/// let scheme = BasicScheme::new(b"owner master secret");
/// let enc_index = scheme.build_index(&plaintext_index, Default::default())?;
///
/// // Retrieval: server lookup is blind; ranking happens client-side.
/// let trapdoor = scheme.trapdoor("networks")?; // stemming applied
/// let entries = enc_index.search(trapdoor.label()).unwrap();
/// let ranked = scheme.rank_entries(&trapdoor, entries);
/// assert_eq!(ranked.len(), 2);
/// assert!(ranked[0].score >= ranked[1].score);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BasicScheme {
    keys: KeyMaterial,
    tokenizer: Tokenizer,
}

impl BasicScheme {
    /// `KeyGen`: derives the key triple `{x, y, z}` from a master seed.
    pub fn new(master_seed: &[u8]) -> Self {
        BasicScheme {
            keys: KeyMaterial::from_master_seed(master_seed),
            tokenizer: Tokenizer::new(),
        }
    }

    /// Builds the scheme from explicit key material.
    pub fn with_keys(keys: KeyMaterial) -> Self {
        BasicScheme {
            keys,
            tokenizer: Tokenizer::new(),
        }
    }

    /// The scheme's key material (what `Setup` distributes to authorized
    /// users).
    pub fn keys(&self) -> &KeyMaterial {
        &self.keys
    }

    fn canonical_keyword(&self, query: &str) -> Result<String, SseError> {
        self.tokenizer
            .tokenize(query)
            .into_iter()
            .next()
            .ok_or(SseError::EmptyQuery)
    }

    /// `TrapdoorGen(w)`: the pair `(π_x(w), f_y(w))`. The raw query is
    /// case-folded and stemmed first so it matches index terms.
    ///
    /// # Errors
    ///
    /// [`SseError::EmptyQuery`] if the query reduces to nothing.
    pub fn trapdoor(&self, query: &str) -> Result<Trapdoor, SseError> {
        let keyword = self.canonical_keyword(query)?;
        let pi = KeyedLabel::new(self.keys.label_key());
        let f = Prf::new(self.keys.entry_key());
        Ok(Trapdoor {
            label: pi.label(keyword.as_bytes()),
            list_key: f.derive_key(keyword.as_bytes()),
        })
    }

    /// `BuildIndex(K, C)` per Fig. 3, from an already-built plaintext
    /// inverted index.
    ///
    /// # Errors
    ///
    /// [`SseError::PaddingTooSmall`] when a fixed ν is exceeded.
    pub fn build_index(
        &self,
        index: &InvertedIndex,
        padding: PaddingPolicy,
    ) -> Result<BasicEncryptedIndex, SseError> {
        let nu = match padding {
            PaddingPolicy::MaxPostingLen => index.max_posting_len(),
            PaddingPolicy::Fixed(nu) => {
                if index.max_posting_len() > nu {
                    return Err(SseError::PaddingTooSmall {
                        configured: nu,
                        longest_list: index.max_posting_len(),
                    });
                }
                nu
            }
        };
        let pi = KeyedLabel::new(self.keys.label_key());
        let f = Prf::new(self.keys.entry_key());
        let score_cipher = SemanticCipher::new(self.keys.score_key());

        let mut lists = HashMap::with_capacity(index.num_keywords());
        for (term, postings) in index.iter() {
            // Deterministic per-keyword randomness tape for nonces/padding.
            let mut tape = Tape::new(
                self.keys.score_key(),
                &Transcript::new("sse/build").bytes(term.as_bytes()).finish(),
            );
            let list_key = f.derive_key(term.as_bytes());
            let entry_cipher = SemanticCipher::new(&list_key);
            let list_len = nu.max(postings.len()) * ENTRY_CT_LEN;
            let mut list = Vec::with_capacity(list_len);
            for posting in postings {
                let len = index
                    .doc_length(posting.file)
                    .expect("posting refers to an indexed document");
                let score = rsse_ir::score_single(posting.term_frequency, len);
                let mut nonce = [0u8; NONCE_LEN];
                tape.fill_bytes(&mut nonce);
                let score_ct = score_cipher.encrypt_with_nonce(nonce, &score.to_be_bytes());
                debug_assert_eq!(score_ct.len(), SCORE_CT_LEN);
                let plain = encode_entry(posting.file, &score_ct);
                let mut entry_nonce = [0u8; NONCE_LEN];
                tape.fill_bytes(&mut entry_nonce);
                entry_cipher.encrypt_with_nonce_into(entry_nonce, &plain, &mut list);
            }
            // Pad with random strings of the same size (Fig. 3 step 3):
            // the tape's next bytes.
            let real = list.len();
            list.resize(list_len, 0);
            tape.fill_bytes(&mut list[real..]);
            lists.insert(pi.label(term.as_bytes()), list);
        }
        Ok(BasicEncryptedIndex { lists })
    }

    /// User-side post-processing: decrypt the returned entries, drop the
    /// padding, decrypt relevance scores with `z`, and rank (best first,
    /// ties broken by file id for determinism).
    pub fn rank_entries(&self, trapdoor: &Trapdoor, entries: Entries<'_>) -> Vec<ScoredFile> {
        let entry_cipher = SemanticCipher::new(trapdoor.list_key());
        let score_cipher = SemanticCipher::new(self.keys.score_key());
        // Two reused scratch buffers instead of two fresh Vecs per entry.
        let mut plain = Vec::new();
        let mut score_bytes = Vec::new();
        let mut out: Vec<ScoredFile> = Vec::with_capacity(entries.len());
        out.extend(entries.filter_map(|ct| {
            entry_cipher.decrypt_into(ct, &mut plain).ok()?;
            let (file, score_ct) = decode_entry(&plain)?;
            score_cipher.decrypt_into(score_ct, &mut score_bytes).ok()?;
            let bytes: [u8; 8] = score_bytes.as_slice().try_into().ok()?;
            let score = f64::from_be_bytes(bytes);
            if !score.is_finite() {
                return None;
            }
            Some(ScoredFile { file, score })
        }));
        out.sort_unstable_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("scores are finite")
                .then(a.file.cmp(&b.file))
        });
        out
    }

    /// Convenience: the full user-side top-k flow (decrypt, rank, truncate).
    pub fn top_k(&self, trapdoor: &Trapdoor, entries: Entries<'_>, k: usize) -> Vec<ScoredFile> {
        let mut ranked = self.rank_entries(trapdoor, entries);
        ranked.truncate(k);
        ranked
    }
}

/// The *server's* view during basic-scheme retrieval: unwrap entries with
/// the trapdoor's list key `f_y(w)`, learning `F(w)` (the access pattern)
/// and the still-encrypted scores `E_z(S)` — but not the scores themselves,
/// which is exactly why this server cannot rank.
pub fn open_entries(list_key: &SecretKey, entries: Entries<'_>) -> Vec<(FileId, Vec<u8>)> {
    let cipher = SemanticCipher::new(list_key);
    entries
        .filter_map(|ct| {
            let plain = cipher.decrypt(ct).ok()?;
            let (file, score_ct) = decode_entry(&plain)?;
            Some((file, score_ct.to_vec()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsse_ir::Document;

    fn sample_index() -> InvertedIndex {
        let docs = vec![
            Document::new(FileId::new(1), "network routing network network packet"),
            Document::new(FileId::new(2), "network"),
            Document::new(FileId::new(3), "storage cloud cloud"),
            Document::new(FileId::new(4), "network cloud storage packet packet"),
        ];
        InvertedIndex::build(&docs)
    }

    fn scheme() -> BasicScheme {
        BasicScheme::new(b"test master seed")
    }

    #[test]
    fn search_returns_correct_files() {
        let s = scheme();
        let enc = s.build_index(&sample_index(), Default::default()).unwrap();
        let t = s.trapdoor("network").unwrap();
        let ranked = s.rank_entries(&t, enc.search(t.label()).unwrap());
        let mut files: Vec<u64> = ranked.iter().map(|r| r.file.as_u64()).collect();
        files.sort_unstable();
        assert_eq!(files, vec![1, 2, 4]);
    }

    #[test]
    fn ranking_matches_plaintext_scores() {
        let s = scheme();
        let idx = sample_index();
        let enc = s.build_index(&idx, Default::default()).unwrap();
        let t = s.trapdoor("network").unwrap();
        let ranked = s.rank_entries(&t, enc.search(t.label()).unwrap());
        let mut plain = rsse_ir::score::scores_for_term(&idx, "network");
        plain.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let want: Vec<FileId> = plain.into_iter().map(|(f, _)| f).collect();
        let got: Vec<FileId> = ranked.into_iter().map(|r| r.file).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn all_lists_padded_to_same_length() {
        let s = scheme();
        let enc = s.build_index(&sample_index(), Default::default()).unwrap();
        let nu = enc.padded_len();
        assert!(nu >= 3);
        for term in ["network", "cloud", "storage", "packet", "rout"] {
            let t = s.trapdoor(term).unwrap();
            assert_eq!(enc.search(t.label()).map(|l| l.len()), Some(nu), "{term}");
        }
    }

    #[test]
    fn entries_are_uniform_size() {
        let s = scheme();
        let enc = s.build_index(&sample_index(), Default::default()).unwrap();
        let t = s.trapdoor("network").unwrap();
        for e in enc.search(t.label()).unwrap() {
            assert_eq!(e.len(), ENTRY_CT_LEN);
        }
    }

    #[test]
    fn unknown_keyword_misses() {
        let s = scheme();
        let enc = s.build_index(&sample_index(), Default::default()).unwrap();
        let t = s.trapdoor("zebra").unwrap();
        assert!(enc.search(t.label()).is_none());
    }

    #[test]
    fn wrong_trapdoor_key_yields_nothing() {
        // A trapdoor with the right label but wrong list key (e.g. an
        // unauthorized user guessing) decrypts every entry to garbage.
        let s = scheme();
        let enc = s.build_index(&sample_index(), Default::default()).unwrap();
        let t = s.trapdoor("network").unwrap();
        let forged = Trapdoor::from_parts(*t.label(), SecretKey::derive(b"wrong", "k"));
        let ranked = s.rank_entries(&forged, enc.search(t.label()).unwrap());
        assert!(ranked.is_empty());
    }

    #[test]
    fn padding_is_invisible_in_results() {
        let s = scheme();
        let enc = s.build_index(&sample_index(), Default::default()).unwrap();
        // "rout" appears in one document; the list is padded to ν but only
        // one valid entry must come back.
        let t = s.trapdoor("routing").unwrap();
        let ranked = s.rank_entries(&t, enc.search(t.label()).unwrap());
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].file, FileId::new(1));
    }

    #[test]
    fn fixed_padding_enforced() {
        let s = scheme();
        let err = s
            .build_index(&sample_index(), PaddingPolicy::Fixed(1))
            .unwrap_err();
        assert!(matches!(err, SseError::PaddingTooSmall { .. }));
        let ok = s
            .build_index(&sample_index(), PaddingPolicy::Fixed(10))
            .unwrap();
        assert_eq!(ok.padded_len(), 10);
    }

    #[test]
    fn top_k_truncates() {
        let s = scheme();
        let enc = s.build_index(&sample_index(), Default::default()).unwrap();
        let t = s.trapdoor("network").unwrap();
        let top1 = s.top_k(&t, enc.search(t.label()).unwrap(), 1);
        assert_eq!(top1.len(), 1);
        // Doc 2 has tf=1 over 1 term → score 1.0, the maximum.
        assert_eq!(top1[0].file, FileId::new(2));
    }

    #[test]
    fn trapdoor_deterministic_and_stemmed() {
        let s = scheme();
        let a = s.trapdoor("networks").unwrap();
        let b = s.trapdoor("Network").unwrap();
        assert_eq!(a.label(), b.label());
        assert!(s.trapdoor("the of and").is_err());
    }

    #[test]
    fn index_is_rebuildable_deterministically() {
        let s = scheme();
        let e1 = s.build_index(&sample_index(), Default::default()).unwrap();
        let e2 = s.build_index(&sample_index(), Default::default()).unwrap();
        let t = s.trapdoor("network").unwrap();
        assert!(e1
            .search(t.label())
            .unwrap()
            .eq(e2.search(t.label()).unwrap()));
    }

    #[test]
    fn different_seeds_different_labels() {
        let s1 = BasicScheme::new(b"seed one");
        let s2 = BasicScheme::new(b"seed two");
        assert_ne!(
            s1.trapdoor("network").unwrap().label(),
            s2.trapdoor("network").unwrap().label()
        );
    }

    #[test]
    fn parts_round_trip_and_malformed_lists_are_refused() {
        let s = scheme();
        let enc = s.build_index(&sample_index(), Default::default()).unwrap();
        let parts = enc.export_parts();
        assert!(parts
            .iter()
            .all(|(_, len, _)| *len as usize == ENTRY_CT_LEN));
        let back = BasicEncryptedIndex::from_parts(parts.clone()).unwrap();
        assert_eq!(back.export_parts(), parts);
        for (entry_len, bytes) in [(0, vec![1u8; 5]), (56, vec![1u8; 57]), (40, vec![1u8; 80])] {
            assert_eq!(
                BasicEncryptedIndex::from_parts(vec![([7; 20], entry_len, bytes)]).unwrap_err(),
                SseError::MalformedList([7; 20])
            );
        }
        let empty = BasicEncryptedIndex::from_parts(vec![([7; 20], 0, vec![])]).unwrap();
        assert_eq!(empty.search(&[7; 20]).map(|l| l.len()), Some(0));
    }

    #[test]
    fn size_accounting() {
        let s = scheme();
        let enc = s.build_index(&sample_index(), Default::default()).unwrap();
        let expected = enc.num_lists() * (20 + enc.padded_len() * ENTRY_CT_LEN);
        assert_eq!(enc.size_bytes(), expected);
    }
}
