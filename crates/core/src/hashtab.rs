//! The data-node table: node data behind a bucketed hash table.
//!
//! The thesis stores node data in a linked "data node list" and reaches it
//! through a hash table — an array of sorted bucket lists keyed by a
//! modulo hash of the global id — giving "amortized constant time access
//! to the node data during computation" \[PSC95\]. This module is that
//! structure, idiomatically: buckets of sorted `(id, slot)` vectors. It
//! plays the thesis's dual role: data access during computation, and data
//! update after communication (and it keeps a migrated-away node's entry,
//! since the busy processor still needs it as a shadow).
//!
//! Each slot holds the *current* value plus an optional *pending* value
//! (the thesis's `data` / `most_recent_data` pair): computation writes
//! pending, and the end of the iteration promotes pending to current.
//!
//! **Hinted access.** The compute pass reads a node and its neighbours and
//! stages one value per node update, every iteration, over a neighbourhood
//! that only changes when the store rebuilds its lists. The store therefore
//! resolves each entry's index within its bucket once per rebuild
//! ([`NodeTable::position`]) and hands it back as a *hint* to
//! [`NodeTable::get_at`] and [`NodeTable::set_pending_at`]. A hint is only
//! an index: every use checks that the entry at that index carries the
//! requested id, and a missing or stale hint — an insert shifted the bucket
//! since, or a page came back from a damaged disk with different contents —
//! falls back to the bucket's binary search. A wrong hint can cost a
//! lookup its speed, never its answer. [`NO_HINT`] asks for the search
//! outright.

use ic2_graph::NodeId;
use mpisim::{Wire, WireError};

/// A position hint that never matches: the lookup goes straight to the
/// bucket's binary search.
pub const NO_HINT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
struct Entry<D> {
    id: NodeId,
    cur: D,
    pending: Option<D>,
}

/// Bucketed node-data table.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTable<D> {
    buckets: Vec<Vec<Entry<D>>>,
    len: usize,
}

impl<D> NodeTable<D> {
    /// A table with `buckets` hash buckets (the thesis's
    /// `HASH_TABLE_LENGTH`).
    pub fn new(buckets: usize) -> Self {
        assert!(buckets > 0, "hash table needs at least one bucket");
        assert!(
            u32::try_from(buckets).is_ok(),
            "bucket count must fit in 32 bits"
        );
        NodeTable {
            buckets: (0..buckets).map(|_| Vec::new()).collect(),
            len: 0,
        }
    }

    fn bucket_of(&self, id: NodeId) -> usize {
        // Ids are 32-bit and so is the bucket count (checked in `new`): the
        // 32-bit division is the cheaper one on the per-node hot path.
        (id % self.buckets.len() as u32) as usize
    }

    /// Index of `id` within bucket `b`: the entry at `hint` if it carries
    /// `id`, else the binary search's answer.
    fn find(&self, b: usize, id: NodeId, hint: u32) -> Option<usize> {
        let bucket = &self.buckets[b];
        match bucket.get(hint as usize) {
            Some(e) if e.id == id => Some(hint as usize),
            _ => bucket.binary_search_by_key(&id, |e| e.id).ok(),
        }
    }

    /// The bucket index holding `id` — the out-of-core layer's page id for
    /// the node (one page = one bucket).
    pub fn bucket_index(&self, id: NodeId) -> usize {
        self.bucket_of(id)
    }

    /// Number of stored nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `id` has an entry.
    pub fn contains(&self, id: NodeId) -> bool {
        self.position(id).is_some()
    }

    /// Insert a node's data. Replaces (and returns) the previous current
    /// value if the node was already present — that is what happens when a
    /// migration delivers data the receiver already held as a shadow.
    pub fn insert(&mut self, id: NodeId, data: D) -> Option<D> {
        let b = self.bucket_of(id);
        match self.buckets[b].binary_search_by_key(&id, |e| e.id) {
            Ok(i) => Some(std::mem::replace(&mut self.buckets[b][i].cur, data)),
            Err(i) => {
                self.buckets[b].insert(
                    i,
                    Entry {
                        id,
                        cur: data,
                        pending: None,
                    },
                );
                self.len += 1;
                None
            }
        }
    }

    /// Current data of `id`.
    pub fn get(&self, id: NodeId) -> Option<&D> {
        self.get_at(id, NO_HINT)
    }

    /// `id`'s index within its bucket — the hint [`Self::get_at`] and
    /// [`Self::set_pending_at`] take. `None` if `id` is not stored (or sits
    /// on a page that is not resident).
    pub fn position(&self, id: NodeId) -> Option<u32> {
        self.find(self.bucket_of(id), id, NO_HINT).map(|i| i as u32)
    }

    /// [`Self::get`] through a position hint. The hint is checked against
    /// the entry's id; a stale or missing one falls back to the search.
    pub fn get_at(&self, id: NodeId, hint: u32) -> Option<&D> {
        let b = self.bucket_of(id);
        self.find(b, id, hint).map(|i| &self.buckets[b][i].cur)
    }

    /// Overwrite the current value (shadow update after communication).
    ///
    /// # Panics
    /// Panics if `id` is not present — receiving a shadow update for an
    /// unknown node is a platform bug.
    pub fn set_current(&mut self, id: NodeId, data: D) {
        let b = self.bucket_of(id);
        match self.find(b, id, NO_HINT) {
            Some(i) => self.buckets[b][i].cur = data,
            None => panic!("set_current: node {id} not in table"),
        }
    }

    /// Stage the next-iteration value (the thesis's `most_recent_data`).
    ///
    /// # Panics
    /// Panics if `id` is not present.
    pub fn set_pending(&mut self, id: NodeId, data: D) {
        self.set_pending_at(id, NO_HINT, data);
    }

    /// [`Self::set_pending`] through a position hint, checked like
    /// [`Self::get_at`].
    ///
    /// # Panics
    /// Panics if `id` is not present.
    pub(crate) fn set_pending_at(&mut self, id: NodeId, hint: u32, data: D) {
        let b = self.bucket_of(id);
        match self.find(b, id, hint) {
            Some(i) => self.buckets[b][i].pending = Some(data),
            None => panic!("set_pending: node {id} not in table"),
        }
    }

    /// The staged value of `id`, if any.
    pub fn pending(&self, id: NodeId) -> Option<&D> {
        let b = self.bucket_of(id);
        self.find(b, id, NO_HINT)
            .and_then(|i| self.buckets[b][i].pending.as_ref())
    }

    /// Promote every staged value to current (end of iteration:
    /// `data = most_recent_data`). Returns how many were promoted.
    pub fn promote_all(&mut self) -> usize {
        let mut promoted = 0;
        for bucket in &mut self.buckets {
            for entry in bucket {
                if let Some(next) = entry.pending.take() {
                    entry.cur = next;
                    promoted += 1;
                }
            }
        }
        promoted
    }

    /// [`Self::promote_all`], but calling `f(id, &new_current)` for every
    /// promoted entry — the hook the state-audit digest uses to observe the
    /// end-of-iteration writes without a second table walk.
    pub fn promote_all_with(&mut self, mut f: impl FnMut(NodeId, &D)) -> usize {
        let mut promoted = 0;
        for bucket in &mut self.buckets {
            for entry in bucket {
                if let Some(next) = entry.pending.take() {
                    entry.cur = next;
                    f(entry.id, &entry.cur);
                    promoted += 1;
                }
            }
        }
        promoted
    }

    /// Iterate `(id, current)` in ascending id order per bucket (global
    /// order is by `(id mod buckets, id)`).
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &D)> {
        self.buckets
            .iter()
            .flat_map(|b| b.iter().map(|e| (e.id, &e.cur)))
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Release bucket `b`'s entries and their memory — page-out, once the
    /// page image is safe on disk.
    pub(crate) fn drop_bucket(&mut self, b: usize) {
        self.len -= self.buckets[b].len();
        self.buckets[b] = Vec::new();
    }

    /// [`Self::promote_all_with`] restricted to bucket `b` — the paging
    /// layer promotes page by page so each is resident exactly once.
    pub(crate) fn promote_bucket_with(&mut self, b: usize, mut f: impl FnMut(NodeId, &D)) -> usize {
        let mut promoted = 0;
        for entry in &mut self.buckets[b] {
            if let Some(next) = entry.pending.take() {
                entry.cur = next;
                f(entry.id, &entry.cur);
                promoted += 1;
            }
        }
        promoted
    }

    /// Longest bucket chain (diagnostic: the thesis's 10-bucket table
    /// degrades to long chains on 1024-node domains).
    pub fn max_chain(&self) -> usize {
        self.buckets.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// A page image is a bucket's entries in ascending id order, each as its
/// `(id, current, pending)` triple: the wire encoding of a
/// `Vec<(NodeId, D, Option<D>)>`.
impl<D: Wire> Wire for Entry<D> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.cur.encode(out);
        self.pending.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Entry {
            id: NodeId::decode(buf)?,
            cur: D::decode(buf)?,
            pending: Option::<D>::decode(buf)?,
        })
    }
}

impl<D: Wire> NodeTable<D> {
    /// Append bucket `b`'s page image to `out` (see the [`Wire`] impl of
    /// its entries). The paging layer encodes straight from the resident
    /// bucket into its one reused image buffer.
    pub(crate) fn encode_bucket(&self, b: usize, out: &mut Vec<u8>) {
        self.buckets[b].encode(out);
    }

    /// Install bucket `b` from a page image [`Self::encode_bucket`] wrote,
    /// decoding in place from the caller's bytes. The bucket must be
    /// empty — pages are whole buckets, never merged — and stays empty
    /// when the image does not decode.
    pub(crate) fn install_image(&mut self, b: usize, image: &[u8]) -> Result<(), WireError> {
        debug_assert!(
            self.buckets[b].is_empty(),
            "install over non-empty bucket {b}"
        );
        let entries = Vec::<Entry<D>>::from_bytes(image)?;
        self.len += entries.len();
        self.buckets[b] = entries;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut t = NodeTable::new(10);
        assert!(t.insert(5, "five").is_none());
        assert!(t.insert(15, "fifteen").is_none()); // same bucket as 5
        assert!(t.insert(3, "three").is_none());
        assert_eq!(t.get(5), Some(&"five"));
        assert_eq!(t.get(15), Some(&"fifteen"));
        assert_eq!(t.get(3), Some(&"three"));
        assert_eq!(t.get(25), None);
        assert_eq!(t.len(), 3);
        assert!(t.contains(15));
        assert!(!t.contains(99));
    }

    #[test]
    fn insert_existing_replaces_and_returns_old() {
        let mut t = NodeTable::new(4);
        t.insert(1, 10);
        assert_eq!(t.insert(1, 20), Some(10));
        assert_eq!(t.get(1), Some(&20));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn pending_promote_cycle() {
        let mut t = NodeTable::new(4);
        t.insert(1, 100);
        t.insert(2, 200);
        t.set_pending(1, 111);
        assert_eq!(t.get(1), Some(&100), "pending must not leak early");
        assert_eq!(t.pending(1), Some(&111));
        assert_eq!(t.promote_all(), 1);
        assert_eq!(t.get(1), Some(&111));
        assert_eq!(t.pending(1), None);
        assert_eq!(t.get(2), Some(&200));
    }

    #[test]
    fn promote_all_with_reports_each_promotion() {
        let mut t = NodeTable::new(4);
        t.insert(1, 100);
        t.insert(2, 200);
        t.insert(3, 300);
        t.set_pending(1, 111);
        t.set_pending(2, 222);
        let mut seen = Vec::new();
        assert_eq!(t.promote_all_with(|id, v| seen.push((id, *v))), 2);
        seen.sort_unstable();
        assert_eq!(seen, vec![(1, 111), (2, 222)]);
        assert_eq!(t.get(1), Some(&111));
        assert_eq!(t.get(3), Some(&300), "unpromoted entries untouched");
    }

    #[test]
    fn set_current_is_immediate() {
        let mut t = NodeTable::new(4);
        t.insert(7, 1);
        t.set_current(7, 2);
        assert_eq!(t.get(7), Some(&2));
    }

    #[test]
    #[should_panic(expected = "not in table")]
    fn set_current_unknown_panics() {
        let mut t: NodeTable<i32> = NodeTable::new(4);
        t.set_current(9, 0);
    }

    #[test]
    #[should_panic(expected = "not in table")]
    fn set_pending_unknown_panics() {
        let mut t: NodeTable<i32> = NodeTable::new(4);
        t.set_pending(9, 0);
    }

    #[test]
    fn iter_visits_everything_once() {
        let mut t = NodeTable::new(3);
        for id in 0..20u32 {
            t.insert(id, id as i64 * 2);
        }
        let mut seen: Vec<NodeId> = t.iter().map(|(id, _)| id).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn chains_stay_sorted_within_buckets() {
        let mut t = NodeTable::new(2);
        for id in [9u32, 1, 7, 3, 5] {
            t.insert(id, id);
        }
        assert_eq!(t.max_chain(), 5); // all odd ids share bucket 1
        let ids: Vec<NodeId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn wrong_hints_still_find_the_right_entry() {
        let mut t = NodeTable::new(2);
        for id in [1u32, 3, 5, 7] {
            t.insert(id, id * 10);
        }
        // 3 sits at index 1 of bucket 1; every other hint is wrong.
        assert_eq!(t.position(3), Some(1));
        for hint in [0, 2, 3, 4, 1000, NO_HINT] {
            assert_eq!(t.get_at(3, hint), Some(&30), "hint {hint}");
        }
        assert_eq!(t.get_at(9, 1), None, "absent id under a live index");
        t.set_pending_at(5, 0, 55);
        assert_eq!(t.pending(5), Some(&55));
        assert_eq!(t.pending(1), None, "the hinted slot's entry untouched");
    }

    #[test]
    fn hints_go_stale_after_an_insert_shifts_the_bucket() {
        let mut t = NodeTable::new(2);
        for id in [3u32, 5, 7] {
            t.insert(id, id);
        }
        let hints: Vec<u32> = [3u32, 5, 7].map(|id| t.position(id).unwrap()).to_vec();
        t.insert(1, 1); // lands at index 0 and shifts every odd entry
        for (id, hint) in [3u32, 5, 7].into_iter().zip(hints) {
            assert_ne!(t.position(id), Some(hint), "insert must shift {id}");
            assert_eq!(t.get_at(id, hint), Some(&id));
            t.set_pending_at(id, hint, id + 100);
        }
        assert_eq!(t.promote_all(), 3);
        assert_eq!(t.get(7), Some(&107));
        assert_eq!(t.get(1), Some(&1));
    }

    #[test]
    fn hints_survive_a_bucket_round_trip_and_a_changed_page() {
        let mut t = NodeTable::new(2);
        for id in [1u32, 3, 5, 7] {
            t.insert(id, id);
        }
        let hint = t.position(5).unwrap();
        let mut image = Vec::new();
        t.encode_bucket(1, &mut image);
        t.drop_bucket(1);
        assert_eq!(t.get_at(5, hint), None, "paged out");
        t.install_image(1, &image).unwrap();
        assert_eq!(t.get_at(5, hint), Some(&5), "same page, same positions");
        // A page that comes back different (a damaged copy lost an entry)
        // moves 5 down one slot: the stale hint must not hit 7.
        let mut page = Vec::<(NodeId, u32, Option<u32>)>::from_bytes(&image).unwrap();
        page.remove(0);
        t.drop_bucket(1);
        t.install_image(1, &page.to_bytes()).unwrap();
        assert_eq!(t.get_at(5, hint), Some(&5));
        t.set_pending_at(5, hint, 50);
        assert_eq!(t.pending(7), None);
        assert_eq!(t.pending(5), Some(&50));
    }

    #[test]
    #[should_panic(expected = "not in table")]
    fn set_pending_at_unknown_panics() {
        let mut t: NodeTable<i32> = NodeTable::new(4);
        t.insert(1, 0);
        t.set_pending_at(9, 0, 0);
    }

    #[test]
    fn single_bucket_degenerates_to_sorted_list() {
        let mut t = NodeTable::new(1);
        for id in (0..50u32).rev() {
            t.insert(id, ());
        }
        assert_eq!(t.len(), 50);
        assert_eq!(t.max_chain(), 50);
        assert!(t.contains(49));
    }
}
