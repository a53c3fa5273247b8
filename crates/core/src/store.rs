//! Resident posting lists backing [`crate::RsseIndex`].
//!
//! Every entry the scheme writes, padding included, is
//! [`ENTRY_CT_LEN`] bytes, so a list is one run of equal-length entries
//! and needs no per-entry heap box. The [`PostingStore`] keeps each list
//! as one buffer under its label, its entries back to back — the bytes a
//! list travels as on the wire and through every export. A query walks
//! one dense byte range with zero per-entry allocations.
//!
//! ```text
//!  A -> [ A entry0 | A entry1 | ... ]
//!  B -> [ B entry0 | ... ]
//! ```
//!
//! A received list is moved in whole (`PostingStore::insert`); a score
//! dynamics append (`PostingStore::append`) extends the one list it
//! touches, so no other list ever moves. The store checks nothing: its
//! lists come in through the index's doors
//! ([`crate::RsseIndex::from_parts`], [`crate::RsseIndex::append_entries`]),
//! which admit only whole [`ENTRY_CT_LEN`]-byte entries.

use crate::entry::ENTRY_CT_LEN;
use std::collections::BTreeMap;

/// A posting-list label `π_x(w)` (160 bits). Mirrors [`crate::Label`].
type Label = [u8; 20];

/// The [`ENTRY_CT_LEN`]-byte entries of a whole list, in order.
pub fn entries(bytes: &[u8]) -> PostingIter<'_> {
    bytes.chunks_exact(ENTRY_CT_LEN)
}

/// Iterator over the entries of a posting list.
pub type PostingIter<'a> = std::slice::ChunksExact<'a, u8>;

/// Resident posting lists, one buffer of back-to-back entries per label,
/// in label order.
#[derive(Debug, Clone, Default)]
pub struct PostingStore {
    lists: BTreeMap<Label, Vec<u8>>,
}

impl PostingStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of posting lists.
    pub fn num_lists(&self) -> usize {
        self.lists.len()
    }

    /// Whether a list with this label exists.
    pub fn contains_label(&self, label: &Label) -> bool {
        self.lists.contains_key(label)
    }

    /// Entry count of the list under `label`, if present.
    pub fn list_len(&self, label: &Label) -> Option<usize> {
        self.list(label).map(|list| entries(list).len())
    }

    /// The entries of the list under `label`, back to back, if present.
    pub fn list(&self, label: &Label) -> Option<&[u8]> {
        self.lists.get(label).map(Vec::as_slice)
    }

    /// Every list with its label, in label order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = (&Label, &[u8])> {
        self.lists
            .iter()
            .map(|(label, list)| (label, list.as_slice()))
    }

    /// Bytes held: labels plus entry payloads.
    pub fn size_bytes(&self) -> usize {
        self.iter().map(|(l, list)| l.len() + list.len()).sum()
    }

    /// All labels, in label order.
    pub fn labels(&self) -> impl Iterator<Item = &Label> {
        self.lists.keys()
    }

    /// Moves in the whole list `bytes` under `label`; a label already
    /// present takes it as an [`Self::append`].
    pub(crate) fn insert(&mut self, label: Label, bytes: Vec<u8>) {
        let list = self.lists.entry(label).or_default();
        if list.is_empty() {
            *list = bytes;
        } else {
            list.extend_from_slice(&bytes);
        }
    }

    /// Appends `bytes` — whole entries, back to back — to the (possibly
    /// new) list under `label`, extending that list's buffer alone. Empty
    /// `bytes` still materialize the label.
    pub(crate) fn append(&mut self, label: Label, bytes: &[u8]) {
        self.lists
            .entry(label)
            .or_default()
            .extend_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(n: usize, tag: u8) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![tag ^ i as u8; ENTRY_CT_LEN]).collect()
    }

    /// Appends whole `entries`.
    fn append(store: &mut PostingStore, l: Label, entries: &[Vec<u8>]) {
        store.append(l, &entries.concat());
    }

    fn label(b: u8) -> Label {
        [b; 20]
    }

    fn collect(store: &PostingStore, l: &Label) -> Vec<Vec<u8>> {
        store
            .list(l)
            .map(|list| super::entries(list).map(<[u8]>::to_vec).collect())
            .unwrap_or_default()
    }

    #[test]
    fn round_trips_uniform_lists() {
        let mut s = PostingStore::new();
        let a = entries(5, 0x10);
        let b = entries(3, 0x20);
        append(&mut s, label(1), &a);
        append(&mut s, label(2), &b);
        assert_eq!(collect(&s, &label(1)), a);
        assert_eq!(collect(&s, &label(2)), b);
        assert_eq!(s.list_len(&label(1)), Some(5));
        assert_eq!(s.num_lists(), 2);
        assert_eq!(
            s.size_bytes(),
            20 + 5 * ENTRY_CT_LEN + 20 + 3 * ENTRY_CT_LEN
        );
    }

    #[test]
    fn appending_to_an_earlier_list_preserves_order() {
        let mut s = PostingStore::new();
        let a1 = entries(2, 0x01);
        let b = entries(2, 0x02);
        let a2 = entries(2, 0x03);
        append(&mut s, label(1), &a1);
        append(&mut s, label(2), &b); // list 1 is no longer the last one written
        append(&mut s, label(1), &a2);
        let want: Vec<Vec<u8>> = a1.into_iter().chain(a2).collect();
        assert_eq!(collect(&s, &label(1)), want);
        assert_eq!(collect(&s, &label(2)), b);
    }

    #[test]
    fn interleaved_appends_lose_no_data() {
        let mut s = PostingStore::new();
        // Ping-pong between two lists: each append lands between two
        // appends to the other list.
        let mut want_a = Vec::new();
        let mut want_b = Vec::new();
        for round in 0..20u8 {
            let ea = entries(3, round);
            let eb = entries(2, round.wrapping_add(100));
            append(&mut s, label(1), &ea);
            append(&mut s, label(2), &eb);
            want_a.extend(ea);
            want_b.extend(eb);
        }
        assert_eq!(collect(&s, &label(1)), want_a);
        assert_eq!(collect(&s, &label(2)), want_b);
    }

    #[test]
    fn an_update_never_moves_another_list() {
        let mut s = PostingStore::new();
        let still = entries(4, 0x55);
        append(&mut s, label(1), &entries(1, 0x01));
        append(&mut s, label(2), &still);
        append(&mut s, label(3), &entries(1, 0x03));
        let first_entry = |s: &PostingStore| s.list(&label(2)).unwrap().as_ptr();
        let before = first_entry(&s);
        // Alternate appends to the lists either side of the untouched one,
        // enough for their buffers to reallocate many times over.
        for round in 0..64u8 {
            append(&mut s, label(1), &entries(2, round));
            append(&mut s, label(3), &entries(2, round ^ 0x80));
        }
        assert_eq!(first_entry(&s), before, "an untouched list moved");
        assert_eq!(collect(&s, &label(2)), still);
    }

    #[test]
    fn empty_append_materializes_label() {
        let mut s = PostingStore::new();
        s.append(label(7), &[]);
        assert!(s.contains_label(&label(7)));
        assert_eq!(s.list_len(&label(7)), Some(0));
        assert_eq!(collect(&s, &label(7)), Vec::<Vec<u8>>::new());
        // A later real append works.
        append(&mut s, label(7), &entries(2, 1));
        assert_eq!(s.list_len(&label(7)), Some(2));
    }

    #[test]
    fn missing_label_is_none() {
        let s = PostingStore::new();
        assert!(s.list(&label(3)).is_none());
        assert!(s.list_len(&label(3)).is_none());
        assert!(!s.contains_label(&label(3)));
    }
}
