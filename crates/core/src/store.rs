//! Resident posting lists backing [`crate::RsseIndex`].
//!
//! After padding, every entry of a posting list has the same ciphertext
//! size ([`crate::entry::ENTRY_CT_LEN`] for the scheme's lists), so a list
//! is one run of equal-length entries and needs no per-entry heap box.
//! The [`PostingStore`] keeps each list as one `(entry_len, bytes)`
//! buffer under its label, its entries back to back — the shape a list
//! travels in on the wire and through every export. A query walks one
//! dense byte range with zero per-entry allocations.
//!
//! ```text
//!  A -> (entry_len_A, [ A entry0 | A entry1 | ... ])
//!  B -> (entry_len_B, [ B entry0 | ... ])
//! ```
//!
//! A received list is moved in whole (`PostingStore::insert`); a score
//! dynamics append ([`PostingStore::append`]) extends the one list it
//! touches, so no other list ever moves. The store admits only whole
//! lists: it refuses, with [`RsseError::MalformedList`] and without
//! changing anything, bytes that are not a whole number of
//! `entry_len`-byte entries (any bytes at all under an entry length of 0)
//! and entries of another length than the list already holds.

use crate::error::RsseError;
use std::collections::BTreeMap;

/// A posting-list label `π_x(w)` (160 bits). Mirrors [`crate::Label`].
type Label = [u8; 20];

/// The `entry_len`-byte entries of a whole list, in order. An empty list
/// yields nothing whatever its entry length (`chunks_exact(0)` would
/// panic, so 0 reads as 1 — sound because a whole list under entry
/// length 0 holds no bytes).
pub fn entries(entry_len: usize, bytes: &[u8]) -> PostingIter<'_> {
    bytes.chunks_exact(entry_len.max(1))
}

/// Resident posting lists, one `(entry_len, bytes)` buffer per label, in
/// label order.
#[derive(Debug, Clone, Default)]
pub struct PostingStore {
    lists: BTreeMap<Label, (usize, Vec<u8>)>,
}

/// Borrowed view of one resident posting list.
#[derive(Debug, Clone, Copy)]
pub struct PostingList<'a> {
    data: &'a [u8],
    entry_len: usize,
}

impl<'a> PostingList<'a> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.iter().len()
    }

    /// True when the list holds no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of every entry in bytes; 0 for an empty list.
    pub(crate) fn entry_len(&self) -> usize {
        self.entry_len
    }

    /// The entries back to back.
    pub(crate) fn bytes(&self) -> &'a [u8] {
        self.data
    }

    /// Iterates the entries as borrowed byte slices, in insertion order.
    pub fn iter(&self) -> PostingIter<'a> {
        entries(self.entry_len, self.data)
    }
}

impl<'a> IntoIterator for PostingList<'a> {
    type Item = &'a [u8];
    type IntoIter = PostingIter<'a>;
    fn into_iter(self) -> PostingIter<'a> {
        self.iter()
    }
}

/// Iterator over the entries of a [`PostingList`].
pub type PostingIter<'a> = std::slice::ChunksExact<'a, u8>;

fn view((entry_len, data): &(usize, Vec<u8>)) -> PostingList<'_> {
    PostingList {
        data,
        entry_len: *entry_len,
    }
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
        self.list(label).map(|list| list.len())
    }

    /// Borrowed view of the list under `label`, if present.
    pub fn list(&self, label: &Label) -> Option<PostingList<'_>> {
        self.lists.get(label).map(view)
    }

    /// Every list with its label, in label order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = (&Label, PostingList<'_>)> {
        self.lists.iter().map(|(label, list)| (label, view(list)))
    }

    /// Bytes held: labels plus entry payloads.
    pub fn size_bytes(&self) -> usize {
        self.iter()
            .map(|(l, list)| l.len() + list.bytes().len())
            .sum()
    }

    /// All labels, in label order.
    pub fn labels(&self) -> impl Iterator<Item = &Label> {
        self.lists.keys()
    }

    /// Checks that `bytes` are whole `entry_len`-byte entries that fit the
    /// list under `label`: an empty list (or none) takes any length.
    fn check(&self, label: &Label, entry_len: usize, bytes: &[u8]) -> Result<(), RsseError> {
        // `is_multiple_of(0)` holds for 0 bytes alone.
        let fits = |list: PostingList<'_>| list.is_empty() || list.entry_len == entry_len;
        match bytes.len().is_multiple_of(entry_len)
            && (bytes.is_empty() || self.list(label).is_none_or(fits))
        {
            true => Ok(()),
            false => Err(RsseError::MalformedList(*label)),
        }
    }

    /// Moves in the whole list `bytes` under `label`; a label already
    /// present takes it as an [`Self::append`].
    ///
    /// # Errors
    ///
    /// As [`Self::append`].
    pub(crate) fn insert(
        &mut self,
        label: Label,
        entry_len: usize,
        bytes: Vec<u8>,
    ) -> Result<(), RsseError> {
        if self.contains_label(&label) {
            return self.append(label, entry_len, &bytes);
        }
        self.check(&label, entry_len, &bytes)?;
        let entry_len = if bytes.is_empty() { 0 } else { entry_len };
        self.lists.insert(label, (entry_len, bytes));
        Ok(())
    }

    /// Appends `bytes` — whole `entry_len`-byte entries, back to back —
    /// to the (possibly new) list under `label`, extending that list's
    /// buffer alone. Empty `bytes` still materialize the label.
    ///
    /// # Errors
    ///
    /// [`RsseError::MalformedList`], with the store unchanged, when
    /// `bytes` is not a whole number of entries or the list already holds
    /// entries of another length.
    pub fn append(
        &mut self,
        label: Label,
        entry_len: usize,
        bytes: &[u8],
    ) -> Result<(), RsseError> {
        self.check(&label, entry_len, bytes)?;
        let (len, data) = self.lists.entry(label).or_default();
        if !bytes.is_empty() {
            *len = entry_len;
            data.extend_from_slice(bytes);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(n: usize, len: usize, tag: u8) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![tag ^ i as u8; len]).collect()
    }

    /// Appends whole `entries`, all `len` bytes long.
    fn append(store: &mut PostingStore, l: Label, len: usize, entries: &[Vec<u8>]) {
        store.append(l, len, &entries.concat()).unwrap();
    }

    fn label(b: u8) -> Label {
        [b; 20]
    }

    fn collect(store: &PostingStore, l: &Label) -> Vec<Vec<u8>> {
        store
            .list(l)
            .map(|pl| pl.iter().map(<[u8]>::to_vec).collect())
            .unwrap_or_default()
    }

    #[test]
    fn round_trips_uniform_lists() {
        let mut s = PostingStore::new();
        let a = entries(5, 40, 0x10);
        let b = entries(3, 40, 0x20);
        append(&mut s, label(1), 40, &a);
        append(&mut s, label(2), 40, &b);
        assert_eq!(collect(&s, &label(1)), a);
        assert_eq!(collect(&s, &label(2)), b);
        assert_eq!(s.list_len(&label(1)), Some(5));
        assert_eq!(s.num_lists(), 2);
        assert_eq!(s.size_bytes(), 20 + 5 * 40 + 20 + 3 * 40);
    }

    #[test]
    fn appending_to_an_earlier_list_preserves_order() {
        let mut s = PostingStore::new();
        let a1 = entries(2, 40, 0x01);
        let b = entries(2, 40, 0x02);
        let a2 = entries(2, 40, 0x03);
        append(&mut s, label(1), 40, &a1);
        append(&mut s, label(2), 40, &b); // list 1 is no longer the last one written
        append(&mut s, label(1), 40, &a2);
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
            let ea = entries(3, 40, round);
            let eb = entries(2, 40, round.wrapping_add(100));
            append(&mut s, label(1), 40, &ea);
            append(&mut s, label(2), 40, &eb);
            want_a.extend(ea);
            want_b.extend(eb);
        }
        assert_eq!(collect(&s, &label(1)), want_a);
        assert_eq!(collect(&s, &label(2)), want_b);
    }

    #[test]
    fn an_update_never_moves_another_list() {
        let mut s = PostingStore::new();
        let still = entries(4, 40, 0x55);
        append(&mut s, label(1), 40, &entries(1, 40, 0x01));
        append(&mut s, label(2), 40, &still);
        append(&mut s, label(3), 40, &entries(1, 40, 0x03));
        let first_entry =
            |s: &PostingStore| s.list(&label(2)).unwrap().iter().next().unwrap().as_ptr();
        let before = first_entry(&s);
        // Alternate appends to the lists either side of the untouched one,
        // enough for their buffers to reallocate many times over.
        for round in 0..64u8 {
            append(&mut s, label(1), 40, &entries(2, 40, round));
            append(&mut s, label(3), 40, &entries(2, 40, round ^ 0x80));
        }
        assert_eq!(first_entry(&s), before, "an untouched list moved");
        assert_eq!(collect(&s, &label(2)), still);
    }

    #[test]
    fn empty_append_materializes_label() {
        let mut s = PostingStore::new();
        s.append(label(7), 0, &[]).unwrap();
        assert!(s.contains_label(&label(7)));
        assert_eq!(s.list_len(&label(7)), Some(0));
        assert_eq!(s.list(&label(7)).unwrap().iter().count(), 0);
        // A later real append works.
        append(&mut s, label(7), 8, &entries(2, 8, 1));
        assert_eq!(s.list_len(&label(7)), Some(2));
    }

    #[test]
    fn malformed_appends_are_refused_and_change_nothing() {
        let mut s = PostingStore::new();
        append(&mut s, label(1), 4, &entries(2, 4, 0xAA));
        let before = collect(&s, &label(1));
        let refused = [
            (label(2), 0, vec![1u8; 3]), // bytes under entry length 0
            (label(2), 4, vec![1u8; 6]), // a cut-off last entry
            (label(1), 5, vec![1u8; 5]), // another length than the list's
        ];
        for (l, len, bytes) in refused {
            assert_eq!(s.append(l, len, &bytes), Err(RsseError::MalformedList(l)));
            assert_eq!(s.insert(l, len, bytes), Err(RsseError::MalformedList(l)));
        }
        assert_eq!(collect(&s, &label(1)), before);
        assert!(!s.contains_label(&label(2)));
        assert_eq!(s.size_bytes(), 20 + 8);
        // An empty list takes any entry length, 0 included.
        s.append(label(3), 0, &[]).unwrap();
        s.append(label(1), 9, &[]).unwrap();
        assert_eq!(s.list(&label(3)).unwrap().iter().count(), 0);
        assert_eq!(collect(&s, &label(1)), before);
    }

    #[test]
    fn missing_label_is_none() {
        let s = PostingStore::new();
        assert!(s.list(&label(3)).is_none());
        assert!(s.list_len(&label(3)).is_none());
        assert!(!s.contains_label(&label(3)));
    }
}
