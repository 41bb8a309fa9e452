//! B+tree secondary index.
//!
//! Maps order-preserving encoded keys (see [`crate::value::encode_key`]) to
//! packed [`RowId`](crate::page::RowId)s (`u64`). Duplicate keys are supported by treating the
//! logical entry as the composite `(key, rowid)`, which keeps every entry
//! unique and makes deletes exact.
//!
//! The tree lives in memory and is rebuilt when a database is opened: one
//! heap scan per table feeds every index on that table. Durability of
//! indexed data is the WAL + page file's job. This mirrors the paper's
//! deployment where indexes are a DBMS-internal acceleration structure,
//! and it keeps the write-ahead log purely logical.
//!
//! Many keys arrive in ascending order: `*_id` columns and the foreign
//! keys of rows loaded in id order grow with the row, and a rebuild
//! visits rows in row-id order. An insert therefore compares with a
//! node's last separator or entry before binary-searching it: an entry
//! past the right edge costs one comparison per level and a push onto
//! the leaf, and any other entry one extra comparison per level. In the
//! bulk loads and rebuilds docs/PERF.md measures, about two thirds of
//! index inserts take the right edge. The split rule does not depend on
//! the path taken, so the tree's shape is the same either way.
//!
//! Deletion does not rebalance (underfull nodes are allowed); the tree
//! never becomes incorrect, only — under adversarial delete patterns —
//! shallower than optimal. Bulk rebuilds restore tightness.

use crate::metrics::BTreeStatsSnapshot;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum entries per node before it splits.
pub(crate) const MAX_KEYS: usize = 64;

pub(crate) type Key = Box<[u8]>;
pub(crate) type Entry = (Key, u64);

pub(crate) enum Node {
    Leaf(Vec<Entry>),
    Internal {
        /// `children[i]` holds entries `< seps[i]`; `children[i+1]` holds
        /// entries `>= seps[i]` (composite `(key, rowid)` order).
        seps: Vec<Entry>,
        children: Vec<Node>,
    },
}

fn cmp_entry(a: &(Key, u64), key: &[u8], rid: u64) -> std::cmp::Ordering {
    a.0.as_ref().cmp(key).then(a.1.cmp(&rid))
}

impl Node {
    fn insert(&mut self, key: Key, rid: u64, splits: &mut u64) -> Option<(Entry, Node)> {
        match self {
            Node::Leaf(entries) => {
                // Right edge first: an entry past the last one is a push.
                let pos = match entries.last() {
                    Some(last) if cmp_entry(last, &key, rid).is_lt() => entries.len(),
                    _ => entries.partition_point(|e| cmp_entry(e, &key, rid).is_lt()),
                };
                entries.insert(pos, (key, rid));
                if entries.len() <= MAX_KEYS {
                    return None;
                }
                *splits += 1;
                let right: Vec<Entry> = entries.split_off(entries.len() / 2);
                // Non-empty: the leaf held > MAX_KEYS entries before the
                // split, so both halves have at least one.
                let sep = right.first().map(|e| (e.0.clone(), e.1))?;
                Some((sep, Node::Leaf(right)))
            }
            Node::Internal { seps, children } => {
                // Right edge first: at or past the last separator is the
                // last child, the same answer as the binary search.
                let idx = match seps.last() {
                    Some(last) if cmp_entry(last, &key, rid).is_le() => seps.len(),
                    _ => seps.partition_point(|s| cmp_entry(s, &key, rid).is_le()),
                };
                // idx <= seps.len() < children.len() by the B+tree shape
                // invariant; `get_mut` keeps the walk panic-free anyway.
                if let Some((sep, new_child)) = children
                    .get_mut(idx)
                    .and_then(|c| c.insert(key, rid, splits))
                {
                    seps.insert(idx, sep);
                    children.insert(idx + 1, new_child);
                    if seps.len() > MAX_KEYS {
                        *splits += 1;
                        let mid = seps.len() / 2;
                        let up = seps.remove(mid);
                        let right_seps = seps.split_off(mid);
                        let right_children = children.split_off(mid + 1);
                        return Some((
                            up,
                            Node::Internal {
                                seps: right_seps,
                                children: right_children,
                            },
                        ));
                    }
                }
                None
            }
        }
    }

    fn remove(&mut self, key: &[u8], rid: u64) -> bool {
        match self {
            Node::Leaf(entries) => match entries.binary_search_by(|e| cmp_entry(e, key, rid)) {
                Ok(pos) => {
                    entries.remove(pos);
                    true
                }
                Err(_) => false,
            },
            Node::Internal { seps, children } => {
                let idx = seps.partition_point(|s| cmp_entry(s, key, rid).is_le());
                children.get_mut(idx).is_some_and(|c| c.remove(key, rid))
            }
        }
    }

    /// Visit entries in `(lo, hi)` bound order; `f` returns `false` to stop.
    /// Returns `false` if the visit was stopped.
    fn visit_range(
        &self,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
        f: &mut impl FnMut(&[u8], u64) -> bool,
        reads: &mut u64,
    ) -> bool {
        *reads += 1;
        match self {
            Node::Leaf(entries) => {
                let start = match lo {
                    Bound::Unbounded => 0,
                    Bound::Included(k) => entries.partition_point(|e| e.0.as_ref() < k),
                    Bound::Excluded(k) => entries.partition_point(|e| e.0.as_ref() <= k),
                };
                for e in entries.iter().skip(start) {
                    let past_end = match hi {
                        Bound::Unbounded => false,
                        Bound::Included(k) => e.0.as_ref() > k,
                        Bound::Excluded(k) => e.0.as_ref() >= k,
                    };
                    if past_end {
                        return true; // range finished, not stopped
                    }
                    if !f(&e.0, e.1) {
                        return false;
                    }
                }
                true
            }
            Node::Internal { seps, children } => {
                // First child that can contain keys >= lo.
                let first = match lo {
                    Bound::Unbounded => 0,
                    Bound::Included(k) | Bound::Excluded(k) => {
                        // Children before this index hold entries strictly
                        // below (k, 0), which cannot intersect the range.
                        seps.partition_point(|s| s.0.as_ref() < k)
                    }
                };
                for (idx, child) in children.iter().enumerate().skip(first) {
                    // Stop descending once the subtree's lower bound
                    // (seps[idx-1]) is past hi.
                    if idx > first {
                        let past = match (idx.checked_sub(1).and_then(|i| seps.get(i)), hi) {
                            (None, _) | (_, Bound::Unbounded) => false,
                            (Some(sep), Bound::Included(k)) => sep.0.as_ref() > k,
                            (Some(sep), Bound::Excluded(k)) => sep.0.as_ref() >= k,
                        };
                        if past {
                            break;
                        }
                    }
                    if !child.visit_range(lo, hi, f, reads) {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Visit the entries matching each of `keys` (pairs of caller slot and
    /// key, sorted by key) in one root-to-leaves walk, appending matching
    /// rowids to `out[slot]`. Shared path prefixes are traversed once —
    /// the batched analogue of calling [`BTreeIndex::get_eq`] per key.
    ///
    /// Because separators are composite `(key, rowid)` pairs, entries equal
    /// to a key may straddle the separator carrying that same key, so a key
    /// is routed to *every* child whose span can contain it (the two-sided
    /// partition below may hand a boundary key to both neighbours).
    fn visit_many(&self, keys: &[(usize, &[u8])], out: &mut [Vec<u64>], reads: &mut u64) {
        if keys.is_empty() {
            return;
        }
        *reads += 1;
        match self {
            Node::Leaf(entries) => {
                for &(slot, key) in keys {
                    let start = entries.partition_point(|e| e.0.as_ref() < key);
                    for e in entries.iter().skip(start) {
                        if e.0.as_ref() != key {
                            break;
                        }
                        if let Some(bucket) = out.get_mut(slot) {
                            bucket.push(e.1);
                        }
                    }
                }
            }
            Node::Internal { seps, children } => {
                for (idx, child) in children.iter().enumerate() {
                    // Child idx spans [seps[idx-1], seps[idx]] in key terms
                    // (inclusive on both sides because separators carry
                    // composite keys). `seps.get(idx)` is None exactly for
                    // the last child.
                    let start = match idx.checked_sub(1).and_then(|i| seps.get(i)) {
                        None => 0,
                        Some(lo) => keys.partition_point(|&(_, k)| k < lo.0.as_ref()),
                    };
                    let end = match seps.get(idx) {
                        None => keys.len(),
                        Some(hi) => keys.partition_point(|&(_, k)| k <= hi.0.as_ref()),
                    };
                    if start < end {
                        if let Some(chunk) = keys.get(start..end) {
                            child.visit_many(chunk, out, reads);
                        }
                    }
                }
            }
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf(_) => 1,
            Node::Internal { children, .. } => 1 + children.first().map_or(0, Node::depth),
        }
    }
}

/// An in-memory B+tree index over encoded keys.
pub struct BTreeIndex {
    root: Node,
    len: usize,
    splits: u64,
    node_reads: AtomicU64,
    point_probes: AtomicU64,
    batch_probes: AtomicU64,
    /// Mutation counter driving the sampled structural self-check; only
    /// maintained (and only present) in debug builds.
    #[cfg(debug_assertions)]
    mutations: u64,
}

impl Default for BTreeIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl BTreeIndex {
    /// An empty index.
    pub fn new() -> Self {
        BTreeIndex {
            root: Node::Leaf(Vec::new()),
            len: 0,
            splits: 0,
            node_reads: AtomicU64::new(0),
            point_probes: AtomicU64::new(0),
            batch_probes: AtomicU64::new(0),
            #[cfg(debug_assertions)]
            mutations: 0,
        }
    }

    /// Root node, for the structural verifier in [`crate::check`].
    pub(crate) fn root_node(&self) -> &Node {
        &self.root
    }

    /// Sampled invariant hook: every debug-build mutation re-verifies the
    /// whole tree while it is small, then every 1024th mutation once full
    /// walks get expensive. Release builds compile this away entirely.
    #[cfg(debug_assertions)]
    fn debug_validate(&mut self) {
        self.mutations += 1;
        if self.len <= 512 || self.mutations % 1024 == 0 {
            debug_assert!(
                crate::check::tree_is_sound(self),
                "B+tree invariants broken after mutation #{}",
                self.mutations
            );
        }
    }

    /// Observability counters for this index: entry count, node splits
    /// performed by inserts, nodes visited by lookups/scans, and depth.
    pub fn stats(&self) -> BTreeStatsSnapshot {
        BTreeStatsSnapshot {
            entries: self.len as u64,
            splits: self.splits,
            node_reads: self.node_reads.load(Ordering::Relaxed),
            max_depth: self.depth() as u64,
            point_probes: self.point_probes.load(Ordering::Relaxed),
            batch_probes: self.batch_probes.load(Ordering::Relaxed),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the index has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (leaves = 1). Exposed for tests and benches.
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// Insert `(key, rid)`. Duplicate `(key, rid)` pairs are tolerated but
    /// stored once is not guaranteed — callers (the table layer) never
    /// insert the same pair twice.
    pub fn insert(&mut self, key: &[u8], rid: u64) {
        if let Some((sep, right)) = self.root.insert(key.into(), rid, &mut self.splits) {
            let old_root = std::mem::replace(&mut self.root, Node::Leaf(Vec::new()));
            self.root = Node::Internal {
                seps: vec![sep],
                children: vec![old_root, right],
            };
        }
        self.len += 1;
        #[cfg(debug_assertions)]
        self.debug_validate();
    }

    /// Remove `(key, rid)`; returns whether it was present.
    pub fn remove(&mut self, key: &[u8], rid: u64) -> bool {
        let removed = self.root.remove(key, rid);
        if removed {
            self.len -= 1;
            #[cfg(debug_assertions)]
            self.debug_validate();
        }
        removed
    }

    /// All rowids whose key equals `key`, in rowid order.
    pub fn get_eq(&self, key: &[u8]) -> Vec<u64> {
        self.point_probes.fetch_add(1, Ordering::Relaxed);
        let mut out = Vec::new();
        let mut reads = 0u64;
        self.root.visit_range(
            Bound::Included(key),
            Bound::Included(key),
            &mut |_, rid| {
                out.push(rid);
                true
            },
            &mut reads,
        );
        self.node_reads.fetch_add(reads, Ordering::Relaxed);
        out
    }

    /// Rowids for every key in `keys`, walking the tree once.
    ///
    /// `out[i]` holds the rowids whose key equals `keys[i]` (rowid order),
    /// exactly as if [`Self::get_eq`] had been called per key — but keys
    /// are sorted and routed down the tree together, so shared nodes are
    /// read once and the whole batch counts as a single probe
    /// (`batch_probes`). This is the backbone of the pr-filter closure
    /// expansion, which looks up hundreds of resource ids per filter.
    pub fn get_eq_batch(&self, keys: &[&[u8]]) -> Vec<Vec<u64>> {
        let mut out = vec![Vec::new(); keys.len()];
        if keys.is_empty() {
            return out;
        }
        self.batch_probes.fetch_add(1, Ordering::Relaxed);
        let mut sorted: Vec<(usize, &[u8])> = keys.iter().copied().enumerate().collect();
        sorted.sort_by(|a, b| a.1.cmp(b.1));
        let mut reads = 0u64;
        self.root.visit_many(&sorted, &mut out, &mut reads);
        self.node_reads.fetch_add(reads, Ordering::Relaxed);
        out
    }

    /// True if at least one entry has exactly this key.
    pub fn contains_key(&self, key: &[u8]) -> bool {
        self.point_probes.fetch_add(1, Ordering::Relaxed);
        let mut found = false;
        let mut reads = 0u64;
        self.root.visit_range(
            Bound::Included(key),
            Bound::Included(key),
            &mut |_, _| {
                found = true;
                false
            },
            &mut reads,
        );
        self.node_reads.fetch_add(reads, Ordering::Relaxed);
        found
    }

    /// Visit `(key, rowid)` pairs in key order within the bounds; the
    /// callback returns `false` to stop early.
    pub fn for_range(
        &self,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
        mut f: impl FnMut(&[u8], u64) -> bool,
    ) {
        let mut reads = 0u64;
        self.root.visit_range(lo, hi, &mut f, &mut reads);
        self.node_reads.fetch_add(reads, Ordering::Relaxed);
    }

    /// Rowids for all keys in the (inclusive) range, in key order.
    pub fn collect_range(&self, lo: Bound<&[u8]>, hi: Bound<&[u8]>) -> Vec<u64> {
        let mut out = Vec::new();
        self.for_range(lo, hi, |_, rid| {
            out.push(rid);
            true
        });
        out
    }

    /// Visit all entries whose key starts with `prefix` (contiguous under
    /// the order-preserving encoding).
    pub fn for_prefix(&self, prefix: &[u8], mut f: impl FnMut(&[u8], u64) -> bool) {
        let mut reads = 0u64;
        self.root.visit_range(
            Bound::Included(prefix),
            Bound::Unbounded,
            &mut |key, rid| {
                if !key.starts_with(prefix) {
                    return false;
                }
                f(key, rid)
            },
            &mut reads,
        );
        self.node_reads.fetch_add(reads, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Vec<u8> {
        s.as_bytes().to_vec()
    }

    #[test]
    fn insert_and_point_lookup() {
        let mut t = BTreeIndex::new();
        t.insert(&k("b"), 2);
        t.insert(&k("a"), 1);
        t.insert(&k("c"), 3);
        assert_eq!(t.get_eq(&k("a")), vec![1]);
        assert_eq!(t.get_eq(&k("b")), vec![2]);
        assert_eq!(t.get_eq(&k("zz")), Vec::<u64>::new());
        assert_eq!(t.len(), 3);
        assert!(t.contains_key(&k("c")));
        assert!(!t.contains_key(&k("d")));
    }

    #[test]
    fn duplicates_collect_in_rowid_order() {
        let mut t = BTreeIndex::new();
        for rid in [5u64, 1, 3, 2, 4] {
            t.insert(&k("dup"), rid);
        }
        assert_eq!(t.get_eq(&k("dup")), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn splits_maintain_order_with_many_keys() {
        let mut t = BTreeIndex::new();
        let n = 10_000u64;
        // Insert in a scrambled order.
        for i in 0..n {
            let key = format!("key{:06}", (i * 7919) % n);
            t.insert(key.as_bytes(), i);
        }
        assert_eq!(t.len(), n as usize);
        assert!(t.depth() > 1, "tree must have split");
        // Full scan visits keys in sorted order.
        let mut last: Option<Vec<u8>> = None;
        let mut count = 0usize;
        t.for_range(Bound::Unbounded, Bound::Unbounded, |key, _| {
            if let Some(prev) = &last {
                assert!(prev.as_slice() <= key);
            }
            last = Some(key.to_vec());
            count += 1;
            true
        });
        assert_eq!(count, n as usize);
    }

    #[test]
    fn range_scan_bounds() {
        let mut t = BTreeIndex::new();
        for (i, key) in ["a", "b", "c", "d", "e"].iter().enumerate() {
            t.insert(&k(key), i as u64);
        }
        assert_eq!(
            t.collect_range(Bound::Included(&k("b")), Bound::Included(&k("d"))),
            vec![1, 2, 3]
        );
        assert_eq!(
            t.collect_range(Bound::Excluded(&k("b")), Bound::Excluded(&k("d"))),
            vec![2]
        );
        assert_eq!(
            t.collect_range(Bound::Unbounded, Bound::Included(&k("b"))),
            vec![0, 1]
        );
        assert_eq!(
            t.collect_range(Bound::Included(&k("d")), Bound::Unbounded),
            vec![3, 4]
        );
    }

    #[test]
    fn remove_exact_entries() {
        let mut t = BTreeIndex::new();
        t.insert(&k("x"), 1);
        t.insert(&k("x"), 2);
        assert!(t.remove(&k("x"), 1));
        assert!(!t.remove(&k("x"), 1), "already gone");
        assert_eq!(t.get_eq(&k("x")), vec![2]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_across_splits() {
        let mut t = BTreeIndex::new();
        for i in 0..2000u64 {
            t.insert(format!("k{i:05}").as_bytes(), i);
        }
        for i in (0..2000u64).step_by(2) {
            assert!(t.remove(format!("k{i:05}").as_bytes(), i));
        }
        assert_eq!(t.len(), 1000);
        for i in 0..2000u64 {
            let got = t.get_eq(format!("k{i:05}").as_bytes());
            if i % 2 == 0 {
                assert!(got.is_empty());
            } else {
                assert_eq!(got, vec![i]);
            }
        }
    }

    #[test]
    fn prefix_scan_is_contiguous() {
        let mut t = BTreeIndex::new();
        for (i, key) in ["app", "apple", "apply", "banana", "ap"].iter().enumerate() {
            t.insert(&k(key), i as u64);
        }
        let mut hits = Vec::new();
        t.for_prefix(b"app", |key, rid| {
            hits.push((String::from_utf8(key.to_vec()).unwrap(), rid));
            true
        });
        assert_eq!(
            hits,
            vec![
                ("app".to_string(), 0),
                ("apple".to_string(), 1),
                ("apply".to_string(), 2)
            ]
        );
    }

    #[test]
    fn early_stop_in_visitor() {
        let mut t = BTreeIndex::new();
        for i in 0..500u64 {
            t.insert(format!("{i:04}").as_bytes(), i);
        }
        let mut seen = 0;
        t.for_range(Bound::Unbounded, Bound::Unbounded, |_, _| {
            seen += 1;
            seen < 10
        });
        assert_eq!(seen, 10);
    }

    #[test]
    fn stats_track_splits_and_node_reads() {
        let mut t = BTreeIndex::new();
        assert_eq!(t.stats().splits, 0);
        for i in 0..1000u64 {
            t.insert(format!("k{i:05}").as_bytes(), i);
        }
        let s = t.stats();
        assert_eq!(s.entries, 1000);
        assert!(s.splits >= 1000 / MAX_KEYS as u64, "many leaf splits");
        assert!(s.max_depth >= 2);
        assert_eq!(s.node_reads, 0, "no lookups yet");
        t.get_eq(b"k00500");
        let s2 = t.stats();
        assert!(
            s2.node_reads >= s.max_depth,
            "point lookup walks a root-to-leaf path"
        );
    }

    #[test]
    fn batch_lookup_matches_point_lookups() {
        let mut t = BTreeIndex::new();
        // Enough entries for a multi-level tree, with duplicates so key
        // groups straddle leaf boundaries.
        for i in 0..3000u64 {
            t.insert(format!("k{:04}", i % 700).as_bytes(), i);
        }
        // Probe present, absent, and duplicated keys, unsorted, with
        // repeats in the batch itself.
        let raw: Vec<Vec<u8>> = [630, 1, 699, 699, 5000, 42, 0]
            .iter()
            .map(|i| format!("k{i:04}").into_bytes())
            .collect();
        let keys: Vec<&[u8]> = raw.iter().map(Vec::as_slice).collect();
        let expected: Vec<Vec<u64>> = keys.iter().map(|k| t.get_eq(k)).collect();
        let before = t.stats();
        let got = t.get_eq_batch(&keys);
        let after = t.stats();
        assert_eq!(got, expected);
        assert_eq!(after.batch_probes, before.batch_probes + 1);
        assert_eq!(after.point_probes, before.point_probes);
        // One shared walk must read fewer nodes than seven separate
        // root-to-leaf descents.
        let point_reads = before.node_reads; // 7 get_eq calls above
        let batch_reads = after.node_reads - before.node_reads;
        assert!(
            batch_reads < point_reads,
            "batch read {batch_reads} nodes vs {point_reads} for point probes"
        );
    }

    #[test]
    fn batch_lookup_empty_and_singleton() {
        let mut t = BTreeIndex::new();
        t.insert(b"a", 7);
        assert_eq!(t.get_eq_batch(&[]), Vec::<Vec<u64>>::new());
        assert_eq!(t.stats().batch_probes, 0, "empty batch is free");
        assert_eq!(t.get_eq_batch(&[b"a".as_slice()]), vec![vec![7]]);
        assert_eq!(t.get_eq_batch(&[b"z".as_slice()]), vec![Vec::<u64>::new()]);
    }

    #[test]
    fn matches_std_btreemap_model() {
        use std::collections::BTreeSet;
        let mut tree = BTreeIndex::new();
        let mut model: BTreeSet<(Vec<u8>, u64)> = BTreeSet::new();
        // Deterministic pseudo-random ops.
        let mut state = 0x1234_5678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..5000 {
            let key = format!("k{:03}", next() % 100).into_bytes();
            let rid = next() % 50;
            if next() % 3 == 0 {
                let a = tree.remove(&key, rid);
                let b = model.remove(&(key.clone(), rid));
                assert_eq!(a, b);
            } else if !model.contains(&(key.clone(), rid)) {
                tree.insert(&key, rid);
                model.insert((key, rid));
            }
        }
        assert_eq!(tree.len(), model.len());
        let mut tree_entries = Vec::new();
        tree.for_range(Bound::Unbounded, Bound::Unbounded, |key, rid| {
            tree_entries.push((key.to_vec(), rid));
            true
        });
        let model_entries: Vec<_> = model.into_iter().collect();
        assert_eq!(tree_entries, model_entries);
    }
}
