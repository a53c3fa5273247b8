//! Flat posting-list arena backing [`crate::RsseIndex`].
//!
//! After padding, every entry of a posting list has the same ciphertext
//! size ([`crate::entry::ENTRY_CT_LEN`] for the scheme's lists), so a list
//! is one run of equal-length entries and needs no per-entry heap box.
//! The [`PostingStore`] keeps all entries of all lists in one contiguous
//! `Vec<u8>` arena, with a per-label table of `(offset, entry_len,
//! count)`. A query walks one dense byte range with perfect locality and
//! zero per-entry allocations.
//!
//! Layout:
//!
//! ```text
//!  arena:  [ list A entries ..... | list B entries ... | list C ... ]
//!           ^offset_A              ^offset_B            ^offset_C
//!  table:  A -> { offset_A, entry_len_A, count_A }
//!          B -> { offset_B, entry_len_B, count_B }
//!          ...
//! ```
//!
//! A list arrives the way it travels on the wire and through every
//! export: `(label, entry_len, bytes)`, its entries back to back. The
//! store admits only whole lists: [`PostingStore::append`] refuses, with
//! [`RsseError::MalformedList`] and without changing anything, bytes that
//! are not a whole number of `entry_len`-byte entries (any bytes at all
//! under an entry length of 0) and entries of another length than the
//! list already holds.
//!
//! Score dynamics append to lists in place when the list is the arena tail;
//! otherwise the list is relocated to the tail and its old range becomes
//! dead space, compacted away once it exceeds half the arena.

use crate::error::RsseError;
use std::collections::HashMap;

/// A posting-list label `π_x(w)` (160 bits). Mirrors [`crate::Label`].
type Label = [u8; 20];

#[derive(Debug, Clone)]
struct ListMeta {
    /// Byte offset of the list's first entry in the arena.
    offset: usize,
    /// Number of entries.
    count: usize,
    /// Size of every entry in bytes; meaningful when `count > 0`.
    entry_len: usize,
}

impl ListMeta {
    fn byte_len(&self) -> usize {
        self.count * self.entry_len
    }
}

/// The `entry_len`-byte entries of a whole list, in order. An empty list
/// yields nothing whatever its entry length (`chunks_exact(0)` would
/// panic, so 0 reads as 1 — sound because a whole list under entry
/// length 0 holds no bytes).
pub fn entries(entry_len: usize, bytes: &[u8]) -> PostingIter<'_> {
    bytes.chunks_exact(entry_len.max(1))
}

/// Contiguous arena of posting-list entries with a label lookup table.
#[derive(Debug, Clone, Default)]
pub struct PostingStore {
    arena: Vec<u8>,
    table: HashMap<Label, ListMeta>,
    dead_bytes: usize,
}

/// Borrowed view of one posting list inside the arena.
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

impl PostingStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store with room for `lists` lists of `bytes` entry bytes
    /// in all, so filling it copies every list once.
    pub(crate) fn with_capacity(lists: usize, bytes: usize) -> Self {
        PostingStore {
            arena: Vec::with_capacity(bytes),
            table: HashMap::with_capacity(lists),
            dead_bytes: 0,
        }
    }

    /// Number of posting lists.
    pub fn num_lists(&self) -> usize {
        self.table.len()
    }

    /// Whether a list with this label exists.
    pub fn contains_label(&self, label: &Label) -> bool {
        self.table.contains_key(label)
    }

    /// Entry count of the list under `label`, if present.
    pub fn list_len(&self, label: &Label) -> Option<usize> {
        self.table.get(label).map(|m| m.count)
    }

    /// Borrowed view of the list under `label`, if present.
    pub fn list(&self, label: &Label) -> Option<PostingList<'_>> {
        let meta = self.table.get(label)?;
        Some(PostingList {
            data: &self.arena[meta.offset..meta.offset + meta.byte_len()],
            entry_len: meta.entry_len,
        })
    }

    /// Live bytes: labels plus entry payloads (dead arena space excluded).
    pub fn size_bytes(&self) -> usize {
        self.table.iter().map(|(k, m)| k.len() + m.byte_len()).sum()
    }

    /// All labels in unspecified order.
    pub fn labels(&self) -> impl Iterator<Item = &Label> {
        self.table.keys()
    }

    /// Appends `bytes` — whole `entry_len`-byte entries, back to back —
    /// to the (possibly new) list under `label`. Empty `bytes` still
    /// materialize the label.
    ///
    /// The list is extended in place when it already sits at the arena tail;
    /// otherwise it is relocated to the tail first (its old range becomes
    /// dead space, compacted once it exceeds half the arena).
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
        // `is_multiple_of(0)` holds for 0 bytes alone, which is also where
        // `checked_div` by entry length 0 must read as 0 entries.
        let count = bytes.len().checked_div(entry_len).unwrap_or(0);
        let fits = |m: &ListMeta| m.count == 0 || m.entry_len == entry_len;
        if !bytes.len().is_multiple_of(entry_len)
            || (count > 0 && !self.table.get(&label).is_none_or(fits))
        {
            return Err(RsseError::MalformedList(label));
        }
        let tail = self.arena.len();
        let meta = self.table.entry(label).or_insert(ListMeta {
            offset: tail,
            count: 0,
            entry_len: 0,
        });
        if count == 0 {
            return Ok(());
        }
        if meta.offset + meta.byte_len() != tail {
            // Relocate to the tail; the old range becomes dead.
            let old = meta.offset..meta.offset + meta.byte_len();
            meta.offset = tail;
            self.dead_bytes += old.len();
            self.arena.extend_from_within(old);
        }
        self.arena.extend_from_slice(bytes);
        meta.count += count;
        meta.entry_len = entry_len;
        if self.dead_bytes * 2 > self.arena.len() {
            self.compact();
        }
        Ok(())
    }

    /// Rewrites the arena without dead space, preserving per-list layout.
    fn compact(&mut self) {
        let mut fresh = Vec::with_capacity(self.arena.len() - self.dead_bytes);
        for meta in self.table.values_mut() {
            let offset = fresh.len();
            fresh.extend_from_slice(&self.arena[meta.offset..meta.offset + meta.byte_len()]);
            meta.offset = offset;
        }
        self.arena = fresh;
        self.dead_bytes = 0;
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
    fn appending_to_non_tail_list_relocates_and_preserves_order() {
        let mut s = PostingStore::new();
        let a1 = entries(2, 40, 0x01);
        let b = entries(2, 40, 0x02);
        let a2 = entries(2, 40, 0x03);
        append(&mut s, label(1), 40, &a1);
        append(&mut s, label(2), 40, &b); // list 1 no longer at tail
        append(&mut s, label(1), 40, &a2);
        let want: Vec<Vec<u8>> = a1.into_iter().chain(a2).collect();
        assert_eq!(collect(&s, &label(1)), want);
        assert_eq!(collect(&s, &label(2)), b);
    }

    #[test]
    fn interleaved_appends_trigger_compaction_without_data_loss() {
        let mut s = PostingStore::new();
        // Ping-pong between two lists: every append relocates the other
        // list, generating dead space and forcing repeated compaction.
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
        // Dead space is bounded by the compaction threshold.
        assert!(s.dead_bytes * 2 <= s.arena.len().max(1));
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
