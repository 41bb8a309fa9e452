//! B+tree secondary index.
//!
//! Maps order-preserving encoded keys (see [`crate::value::encode_key`]) to
//! packed [`RowId`](crate::page::RowId)s (`u64`). Duplicate keys are supported by treating the
//! logical entry as the composite `(key, rowid)`, which keeps every entry
//! unique and makes deletes exact.
//!
//! An entry is 32 bytes: a 24-byte `Key` and the rowid. A key of up to
//! 22 bytes (every one- and two-column integer key, and short text keys)
//! is held in the entry itself, so a leaf is one allocation and a search
//! compares keys without leaving it; a longer key is boxed. Keys order,
//! compare and print as their bytes whichever way they are held.
//!
//! Every key comparison in this module goes through `key_cmp`, which is
//! byte-slice order computed eight bytes at a time: while both keys have
//! eight bytes left it compares them as big-endian `u64` words, then the
//! remaining bytes one by one, then the lengths. Encoded keys of one
//! index share long prefixes (a column tag and the leading bytes of an
//! id), so most comparisons end in the first or second word, without the
//! library call a slice comparison makes.
//!
//! The tree lives in memory and is built when a database is opened, in
//! the same heap pass that verifies the rows: each table's scan collects
//! a `(key, rowid)` run for every index on the table from the rows that
//! pass their checks, and each run is sorted, packed bottom-up by
//! `BTreeIndex::from_sorted` and verified before the next table is
//! scanned. Durability of indexed data is the WAL + page file's job.
//! This mirrors the paper's deployment where indexes are a DBMS-internal
//! acceleration structure, and it keeps the write-ahead log purely
//! logical.
//!
//! A sorted build fills every leaf evenly, at most `MAX_KEYS` entries
//! each, so every node but the root is at least half full; the tree that
//! inserts grow from the same entries is usually larger, because a split
//! leaves both halves half full. After the build, writes go through
//! [`BTreeIndex::insert`] and [`BTreeIndex::remove`].
//!
//! Many keys arrive in ascending order: `*_id` columns and the foreign
//! keys of rows loaded in id order grow with the row. An insert therefore
//! compares with a node's last separator or entry before binary-searching
//! it: an entry past the right edge costs one comparison per level and a
//! push onto the leaf, and any other entry one extra comparison per
//! level. In the bulk loads docs/PERF.md measures, about two thirds of
//! index inserts take the right edge. The split rule does not depend on
//! the path taken.
//!
//! Deletion does not rebalance (underfull and empty nodes are allowed);
//! the tree never becomes incorrect, only larger than it needs to be.
//! `BTreeIndex::repack` packs a tree again from its own entries: table
//! compaction after bulk deletes runs it, and the build on the next open
//! packs every tree anyway.

// Panic-freedom: this file is on the request path or the engine core,
// so its non-test code returns typed errors instead of panicking.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::metrics::BTreeStatsSnapshot;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum entries per node before it splits.
pub(crate) const MAX_KEYS: usize = 64;

/// Longest key held in place: what fits in a 24-byte [`Key`] beside its
/// tag and length byte.
const INLINE_KEY: usize = 22;

/// An encoded key: held in place up to [`INLINE_KEY`] bytes, boxed above
/// (see the module doc). `Ord`, `Eq` and `Debug` are the byte slice's,
/// whichever form holds it.
#[derive(Clone)]
pub(crate) enum Key {
    Inline { len: u8, bytes: [u8; INLINE_KEY] },
    Heap(Box<[u8]>),
}

pub(crate) type Entry = (Key, u64);

/// Byte-slice order (`<[u8] as Ord>::cmp`), read eight bytes at a time:
/// big-endian words while both keys have eight bytes left, then the
/// shorter tail byte by byte, then the lengths.
#[inline]
pub(crate) fn key_cmp(a: &[u8], b: &[u8]) -> std::cmp::Ordering {
    let (mut a, mut b) = (a, b);
    while let (Some((wa, ra)), Some((wb, rb))) =
        (a.split_first_chunk::<8>(), b.split_first_chunk::<8>())
    {
        if wa != wb {
            return u64::from_be_bytes(*wa).cmp(&u64::from_be_bytes(*wb));
        }
        (a, b) = (ra, rb);
    }
    for (x, y) in a.iter().zip(b) {
        if x != y {
            return x.cmp(y);
        }
    }
    a.len().cmp(&b.len())
}

// Every leaf entry pays for a field that grows `Entry`; fail the build
// instead of a benchmark.
const _: () = assert!(std::mem::size_of::<Entry>() <= 32);

impl From<&[u8]> for Key {
    fn from(src: &[u8]) -> Self {
        let mut bytes = [0u8; INLINE_KEY];
        match (bytes.get_mut(..src.len()), u8::try_from(src.len())) {
            (Some(dst), Ok(len)) => {
                dst.copy_from_slice(src);
                Key::Inline { len, bytes }
            }
            _ => Key::Heap(src.into()),
        }
    }
}

impl std::ops::Deref for Key {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            // `len <= INLINE_KEY` by construction, so `get` never misses.
            Key::Inline { len, bytes } => bytes.get(..usize::from(*len)).unwrap_or_default(),
            Key::Heap(bytes) => bytes,
        }
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        key_cmp(self, other)
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

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
    key_cmp(&a.0, key).then(a.1.cmp(&rid))
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
                    Bound::Included(k) => entries.partition_point(|e| key_cmp(&e.0, k).is_lt()),
                    Bound::Excluded(k) => entries.partition_point(|e| key_cmp(&e.0, k).is_le()),
                };
                for e in entries.iter().skip(start) {
                    let past_end = match hi {
                        Bound::Unbounded => false,
                        Bound::Included(k) => key_cmp(&e.0, k).is_gt(),
                        Bound::Excluded(k) => key_cmp(&e.0, k).is_ge(),
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
                        seps.partition_point(|s| key_cmp(&s.0, k).is_lt())
                    }
                };
                for (idx, child) in children.iter().enumerate().skip(first) {
                    // Stop descending once the subtree's lower bound
                    // (seps[idx-1]) is past hi.
                    if idx > first {
                        let past = match (idx.checked_sub(1).and_then(|i| seps.get(i)), hi) {
                            (None, _) | (_, Bound::Unbounded) => false,
                            (Some(sep), Bound::Included(k)) => key_cmp(&sep.0, k).is_gt(),
                            (Some(sep), Bound::Excluded(k)) => key_cmp(&sep.0, k).is_ge(),
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
                    let start = entries.partition_point(|e| key_cmp(&e.0, key).is_lt());
                    for e in entries.iter().skip(start) {
                        if key_cmp(&e.0, key).is_ne() {
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
                        Some(lo) => keys.partition_point(|&(_, k)| key_cmp(k, &lo.0).is_lt()),
                    };
                    let end = match seps.get(idx) {
                        None => keys.len(),
                        Some(hi) => keys.partition_point(|&(_, k)| key_cmp(k, &hi.0).is_le()),
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

    /// The rowid of the last entry whose key is within `hi`. Children are
    /// tried right to left from the last one whose span can hold such a
    /// key, so a search that meets an empty leaf falls back to the child
    /// before it.
    fn last_within(&self, hi: Bound<&[u8]>, reads: &mut u64) -> Option<u64> {
        *reads += 1;
        match self {
            Node::Leaf(entries) => {
                let end = match hi {
                    Bound::Unbounded => entries.len(),
                    Bound::Included(k) => entries.partition_point(|e| key_cmp(&e.0, k).is_le()),
                    Bound::Excluded(k) => entries.partition_point(|e| key_cmp(&e.0, k).is_lt()),
                };
                end.checked_sub(1).and_then(|i| entries.get(i)).map(|e| e.1)
            }
            Node::Internal { seps, children } => {
                // Child idx > 0 starts at seps[idx-1]; it can hold a key
                // within hi only if that separator's key is.
                let end = match hi {
                    Bound::Unbounded => seps.len(),
                    Bound::Included(k) => seps.partition_point(|s| key_cmp(&s.0, k).is_le()),
                    Bound::Excluded(k) => seps.partition_point(|s| key_cmp(&s.0, k).is_lt()),
                };
                children
                    .iter()
                    .take(end + 1)
                    .rev()
                    .find_map(|child| child.last_within(hi, reads))
            }
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf(_) => 1,
            Node::Internal { children, .. } => 1 + children.first().map_or(0, Node::depth),
        }
    }

    /// Move every entry of this subtree onto `out`, in order. Separators
    /// are copies of leaf entries, so they are dropped.
    fn drain_into(self, out: &mut Vec<Entry>) {
        match self {
            Node::Leaf(entries) => out.extend(entries),
            Node::Internal { children, .. } => {
                for child in children {
                    child.drain_into(out);
                }
            }
        }
    }
}

/// Sizes of the fewest groups of at most `cap` items that hold `n` items,
/// as even as possible: they differ by at most one. With two or more
/// groups each holds at least `cap / 2` items, since `n > cap · (groups - 1)`.
/// Zero items make one empty group, the empty tree's root leaf.
fn even_groups(n: usize, cap: usize) -> impl Iterator<Item = usize> {
    let groups = n.div_ceil(cap).max(1);
    let (base, extra) = (n / groups, n % groups);
    (0..groups).map(move |i| base + usize::from(i < extra))
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

    /// Build a tree from entries sorted in ascending composite
    /// `(key, rowid)` order, with no pair twice.
    ///
    /// Leaves are packed evenly, at most [`MAX_KEYS`] entries each, so
    /// every leaf but a lone root is at least half full. Each level above
    /// groups the one below the same way, at most `MAX_KEYS + 1` children
    /// per node, and takes the smallest entry of every child but the first
    /// as its separator — the entry an insert's split would have pushed
    /// up. Inserts and removes work on the result as on any other tree.
    pub(crate) fn from_sorted(entries: Vec<Entry>) -> Self {
        let len = entries.len();
        let mut entries = entries.into_iter();
        // Each node with the smallest entry of its subtree.
        let mut level: Vec<(Option<Entry>, Node)> = even_groups(len, MAX_KEYS)
            .map(|n| {
                let leaf: Vec<Entry> = entries.by_ref().take(n).collect();
                (leaf.first().cloned(), Node::Leaf(leaf))
            })
            .collect();
        while level.len() > 1 {
            let mut nodes = level.into_iter();
            level = even_groups(nodes.len(), MAX_KEYS + 1)
                .map(|n| {
                    let mut low = None;
                    let mut seps = Vec::with_capacity(n - 1);
                    let mut children = Vec::with_capacity(n);
                    for (first, child) in nodes.by_ref().take(n) {
                        if children.is_empty() {
                            low = first;
                        } else {
                            seps.extend(first);
                        }
                        children.push(child);
                    }
                    (low, Node::Internal { seps, children })
                })
                .collect();
        }
        let root = level.pop().map_or(Node::Leaf(Vec::new()), |(_, node)| node);
        let tree = BTreeIndex::with_root(root, len);
        debug_assert!(
            crate::check::tree_is_sound(&tree),
            "B+tree invariants broken by a sorted build of {len} entries"
        );
        tree
    }

    /// Rebuild the tree from its own entries as [`Self::from_sorted`]
    /// packs them, dropping the empty and underfull nodes that removes
    /// leave behind. The entries are already in order, so nothing is
    /// sorted or copied; the counters carry over.
    pub(crate) fn repack(&mut self) {
        let mut entries = Vec::with_capacity(self.len);
        std::mem::replace(&mut self.root, Node::Leaf(Vec::new())).drain_into(&mut entries);
        self.root = BTreeIndex::from_sorted(entries).root;
    }

    /// A tree over `root`, which holds `len` entries. Verifier tests use it
    /// for shapes no insert or sorted build produces.
    pub(crate) fn with_root(root: Node, len: usize) -> Self {
        let mut tree = BTreeIndex::new();
        tree.root = root;
        tree.len = len;
        tree
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
        if let Some((sep, right)) = self.root.insert(Key::from(key), rid, &mut self.splits) {
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
        sorted.sort_by(|a, b| key_cmp(a.1, b.1));
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

    /// The rowid of the last entry, in composite `(key, rowid)` order,
    /// whose key is within `hi`: the largest key at or below the bound and
    /// its largest rowid. `None` when no key is.
    pub fn last_within(&self, hi: Bound<&[u8]>) -> Option<u64> {
        self.point_probes.fetch_add(1, Ordering::Relaxed);
        let mut reads = 0u64;
        let last = self.root.last_within(hi, &mut reads);
        self.node_reads.fetch_add(reads, Ordering::Relaxed);
        last
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
    use perftrack_workloads::rng::Rng;

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

    /// Keys on both sides of the inline boundary: empty, 0x00 runs, and
    /// keys that share their first 22 bytes, in byte order.
    fn mixed_keys() -> Vec<Vec<u8>> {
        let shared: Vec<u8> = (0..INLINE_KEY as u8).collect();
        let mut keys = vec![
            vec![],
            vec![0],
            vec![0; 21],
            vec![0; 22],
            vec![0; 23],
            vec![0, 1],
        ];
        for tail in [&[][..], &[0], &[0, 0], &[1], &[0xff; 18]] {
            let mut key = shared.clone();
            key.extend_from_slice(tail);
            keys.push(key);
        }
        keys.push(shared.get(..21).unwrap().to_vec());
        keys.push(vec![0xff; 40]);
        keys.sort();
        keys
    }

    #[test]
    fn key_cmp_is_byte_slice_order() {
        let mut keys = mixed_keys();
        // Keys of 0 to 40 bytes that agree on their first 0, 7, 8, 9 or 16
        // bytes, so the first difference falls before, at and after a
        // word boundary, or not at all.
        let mut rng = Rng::seed_from_u64(0x6b65_795f_636d);
        let base: Vec<u8> = (0..40).map(|_| rng.gen_range(0u8..4)).collect();
        for shared in [0usize, 7, 8, 9, 16] {
            for _ in 0..12 {
                let len = rng.gen_range(0..41);
                let key: Vec<u8> = (0..len)
                    .map(|i| match base.get(i) {
                        Some(&b) if i < shared => b,
                        _ => rng.gen_range(0u8..4),
                    })
                    .collect();
                keys.push(key);
            }
        }
        for a in &keys {
            for b in &keys {
                assert_eq!(key_cmp(a, b), a.as_slice().cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn key_is_24_bytes_and_inline_up_to_22() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
        for key in mixed_keys() {
            let held = Key::from(key.as_slice());
            assert_eq!(
                matches!(held, Key::Inline { .. }),
                key.len() <= INLINE_KEY,
                "{} bytes",
                key.len()
            );
            assert_eq!(&*held, key.as_slice());
        }
    }

    #[test]
    fn inline_and_heap_keys_order_as_their_bytes() {
        let keys = mixed_keys();
        for a in &keys {
            for b in &keys {
                let (ka, kb) = (Key::from(a.as_slice()), Key::from(b.as_slice()));
                assert_eq!(ka.cmp(&kb), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(ka == kb, a == b);
            }
        }
        // A 22-byte key held in place sorts below the 23-byte heap key
        // that extends it, and above the 21-byte key it extends.
        let shared: Vec<u8> = (0..INLINE_KEY as u8).collect();
        let mut longer = shared.clone();
        longer.push(0);
        let (mid, high) = (Key::from(shared.as_slice()), Key::from(longer.as_slice()));
        assert!(matches!(mid, Key::Inline { .. }) && matches!(high, Key::Heap(_)));
        assert!(mid < high);
        assert!(Key::from(shared.get(..21).unwrap()) < mid);
        // Composite order breaks key ties by rowid across both forms.
        let mut run: Vec<Entry> = vec![(high.clone(), 1), (mid.clone(), 9), (high, 0), (mid, 2)];
        run.sort_unstable();
        let flat: Vec<(usize, u64)> = run.iter().map(|(k, r)| (k.len(), *r)).collect();
        assert_eq!(flat, vec![(22, 2), (22, 9), (23, 0), (23, 1)]);
    }

    #[test]
    fn key_debug_is_the_slices() {
        for key in mixed_keys() {
            let held = Key::from(key.as_slice());
            assert_eq!(format!("{held:?}"), format!("{:?}", key.as_slice()));
            let entry: Entry = (held, 7);
            assert_eq!(format!("{:?}", entry.0), format!("{key:?}"));
        }
    }

    #[test]
    fn sorted_build_and_repack_over_mixed_keys() {
        let keys = mixed_keys();
        let per_key = if cfg!(miri) { 12 } else { 60 };
        let mut raw: Vec<(Vec<u8>, u64)> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            for j in 0..per_key {
                raw.push((key.clone(), (j * keys.len() + i) as u64));
            }
        }
        raw.sort();
        let run: Vec<Entry> = raw
            .iter()
            .map(|(k, r)| (Key::from(k.as_slice()), *r))
            .collect();
        let mut tree = BTreeIndex::from_sorted(run);
        assert!(tree.depth() > 1, "entries span several leaves");
        assert!(crate::check::verify_tree(&tree, "mixed").is_empty());
        assert_eq!(entries_of(&tree), raw);
        for key in &keys {
            let expect: Vec<u64> = raw.iter().filter(|(k, _)| k == key).map(|e| e.1).collect();
            assert_eq!(tree.get_eq(key), expect, "{key:?}");
        }

        // Empty the last leaves: the last entry below a bound falls back
        // past them, before and after a repack.
        let cut = raw.len() - 3 * MAX_KEYS / 2;
        for (key, rid) in raw.split_off(cut) {
            assert!(tree.remove(&key, rid));
        }
        let kept = raw.last().map(|e| e.1);
        for _ in 0..2 {
            assert_eq!(tree.last_within(Bound::Unbounded), kept);
            for key in &keys {
                let below = raw.iter().rev().find(|(k, _)| k < key).map(|e| e.1);
                let at = raw.iter().rev().find(|(k, _)| k <= key).map(|e| e.1);
                assert_eq!(tree.last_within(Bound::Excluded(key)), below, "{key:?}");
                assert_eq!(tree.last_within(Bound::Included(key)), at, "{key:?}");
            }
            tree.repack();
            assert!(crate::check::verify_tree(&tree, "mixed").is_empty());
            assert_eq!(entries_of(&tree), raw);
        }
    }

    fn entries_of(tree: &BTreeIndex) -> Vec<(Vec<u8>, u64)> {
        let mut out = Vec::new();
        tree.for_range(Bound::Unbounded, Bound::Unbounded, |key, rid| {
            out.push((key.to_vec(), rid));
            true
        });
        out
    }

    /// Random inserts and removes on `tree`, mirrored on a set that starts
    /// with the tree's entries; the two must agree after every op.
    fn check_against_model(tree: &mut BTreeIndex, ops: usize, rng: &mut Rng) {
        use std::collections::BTreeSet;
        let mut model: BTreeSet<(Vec<u8>, u64)> = entries_of(tree).into_iter().collect();
        for _ in 0..ops {
            let key = format!("k{:03}", rng.gen_range(0..100)).into_bytes();
            let rid = rng.gen_range(0..50);
            if rng.gen_range(0..3) == 0 {
                let a = tree.remove(&key, rid);
                let b = model.remove(&(key.clone(), rid));
                assert_eq!(a, b);
            } else if !model.contains(&(key.clone(), rid)) {
                tree.insert(&key, rid);
                model.insert((key, rid));
            }
        }
        assert_eq!(tree.len(), model.len());
        assert_eq!(entries_of(tree), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn matches_std_btreemap_model() {
        let mut tree = BTreeIndex::new();
        check_against_model(&mut tree, 5000, &mut Rng::seed_from_u64(0x1234_5678));
    }

    #[test]
    fn sorted_build_is_tight_and_matches_insert_build() {
        let m = MAX_KEYS;
        let random = if cfg!(miri) { 200 } else { 5000 };
        let mut sizes = vec![0, 1, m, m + 1, 2 * m + 1, random];
        if !cfg!(miri) {
            sizes.extend([(m + 1) * (m + 1) - 1, (m + 1) * (m + 1) + 1]);
        }
        for n in sizes {
            let mut rng = Rng::seed_from_u64(n as u64 + 7);
            // About three entries per key, so duplicate keys straddle
            // leaves; rowids are distinct, so every pair is.
            let distinct = n as u64 / 3 + 1;
            let raw: Vec<(Vec<u8>, u64)> = (0..n as u64)
                .map(|rid| (format!("k{:05}", rng.gen_range(0..distinct)).into(), rid))
                .collect();
            let mut inserted = BTreeIndex::new();
            for (key, rid) in &raw {
                inserted.insert(key, *rid);
            }
            let mut run: Vec<Entry> = raw.iter().map(|(k, r)| (k.as_slice().into(), *r)).collect();
            run.sort_unstable();
            let mut bulk = BTreeIndex::from_sorted(run);

            let findings = crate::check::verify_tree(&bulk, "bulk");
            assert!(findings.is_empty(), "n={n}: {findings:?}");
            assert_eq!(bulk.len(), n);
            assert_eq!(bulk.stats().splits, 0, "a sorted build splits nothing");
            assert_eq!(entries_of(&bulk), entries_of(&inserted), "n={n}");
            let mut keys: Vec<Vec<u8>> = raw.iter().map(|(k, _)| k.clone()).collect();
            keys.sort_unstable();
            keys.dedup();
            keys.push(b"absent".to_vec());
            for key in &keys {
                assert_eq!(bulk.get_eq(key), inserted.get_eq(key), "n={n}");
            }
            let probe: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            assert_eq!(bulk.get_eq_batch(&probe), inserted.get_eq_batch(&probe));
            for (lo, hi) in keys.iter().zip(keys.iter().skip(keys.len() / 3)).step_by(7) {
                let (lo, hi) = (
                    Bound::Excluded(lo.as_slice()),
                    Bound::Included(hi.as_slice()),
                );
                assert_eq!(bulk.collect_range(lo, hi), inserted.collect_range(lo, hi));
            }

            // Remove about a third of the built entries, then mix random
            // inserts and removes.
            for (key, rid) in &raw {
                if rng.gen_range(0..3) == 0 {
                    assert!(bulk.remove(key, *rid), "n={n}");
                }
            }
            check_against_model(&mut bulk, if cfg!(miri) { 300 } else { 3000 }, &mut rng);
            assert!(crate::check::tree_is_sound(&bulk), "n={n}");
        }
    }
}
