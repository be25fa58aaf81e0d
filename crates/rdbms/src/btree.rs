//! A persistent, in-memory B+tree over byte-string keys.
//!
//! Keys are order-preserving encodings produced by
//! [`crate::value::encode_key`]; values are packed row ids
//! (see [`crate::storage::RowId::pack`]). The tree supports point lookups,
//! ordered range scans in both directions, and full delete rebalancing
//! (borrow from siblings, then merge), so it behaves like a disk B+tree
//! without paying page-serialization costs in the experiments — the paper's
//! cost model differences come from *how many* index entries the encodings
//! touch, which this structure measures faithfully.
//!
//! Nodes are shared, path-copied versions: every child is an `Arc<Node>`,
//! and a write calls `Arc::make_mut` down its root-to-leaf path — mutating
//! a node in place when this tree owns it alone, copying that one node when
//! a clone (a published catalog snapshot) still holds it. `Clone` therefore
//! copies one root pointer, and a writer that alters a table a snapshot
//! shares pays O(depth) node copies per touched index instead of a copy of
//! every entry. A copied path would strand leaf-to-leaf links, so there are
//! none: scans keep their place in a fixed-size parent stack (`Cursor`).
//! A node keeps its keys packed in one buffer (`Keys`), so copying it is a
//! few allocations and a search reads adjacent memory, whatever order the
//! keys were inserted in.
//!
//! Duplicate keys are not stored: the table layer makes non-unique index
//! keys unique by appending the row id to the key, the standard technique.

use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Maximum number of entries (leaf) or children minus one (inner) per node.
const MAX_KEYS: usize = 64;
/// Minimum fill for non-root nodes.
const MIN_KEYS: usize = MAX_KEYS / 2;
/// Leaves a fingered seek ([`BTree::range_from`]) may walk past before
/// falling back to a root descent — beyond this, the descent's
/// `O(log n)` beats the leaf walk.
const FINGER_WALK_LIMIT: usize = 4;
/// Inner levels a cursor's parent stack holds. Non-root inner nodes keep at
/// least `MIN_KEYS + 1` children and non-root leaves `MIN_KEYS` entries, so
/// sixteen inner levels would take more than `u64::MAX` entries.
const MAX_DEPTH: usize = 16;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        keys: Keys,
        vals: Vec<u64>,
    },
    Inner {
        /// Key `i` separates `children[i]` (< key) from `children[i+1]` (>= key).
        keys: Keys,
        children: Vec<Arc<Node>>,
    },
}

/// A node's keys, packed: their bytes back to back in one buffer, and the
/// end offset of each. One allocation holds every key of a node instead of
/// one allocation per key.
#[derive(Debug, Clone, Default)]
struct Keys {
    bytes: Vec<u8>,
    ends: Vec<u32>,
}

impl Keys {
    fn single(key: &[u8]) -> Self {
        let mut keys = Keys::default();
        keys.push(key);
        keys
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    fn start(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.ends[i - 1] as usize
        }
    }

    fn get(&self, i: usize) -> &[u8] {
        &self.bytes[self.start(i)..self.ends[i] as usize]
    }

    fn last(&self) -> Option<&[u8]> {
        (!self.is_empty()).then(|| self.get(self.len() - 1))
    }

    /// How many leading keys satisfy `pred`, which must hold for a prefix
    /// of the keys and fail for the rest (binary search).
    fn partition_point(&self, pred: impl Fn(&[u8]) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.get(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// `Ok(slot)` of `key`, or `Err(slot)` where it would be inserted.
    fn find(&self, key: &[u8]) -> Result<usize, usize> {
        let i = self.partition_point(|k| k < key);
        if i < self.len() && self.get(i) == key {
            Ok(i)
        } else {
            Err(i)
        }
    }

    fn offset(n: usize) -> u32 {
        u32::try_from(n).expect("a node's keys fit in 4 GiB")
    }

    fn insert(&mut self, i: usize, key: &[u8]) {
        let (at, n) = (self.start(i), key.len());
        let tail = self.bytes.len();
        self.bytes.resize(tail + n, 0);
        self.bytes.copy_within(at..tail, at + n);
        self.bytes[at..at + n].copy_from_slice(key);
        let grow = Self::offset(n);
        for end in &mut self.ends[i..] {
            *end += grow;
        }
        self.ends.insert(i, Self::offset(at + n));
    }

    fn push(&mut self, key: &[u8]) {
        self.insert(self.len(), key);
    }

    /// Drops key `i`.
    fn delete(&mut self, i: usize) {
        let (at, end) = (self.start(i), self.ends[i] as usize);
        self.bytes.drain(at..end);
        self.ends.remove(i);
        let shrink = Self::offset(end - at);
        for end in &mut self.ends[i..] {
            *end -= shrink;
        }
    }

    /// Removes key `i` and returns it.
    fn remove(&mut self, i: usize) -> Vec<u8> {
        let key = self.get(i).to_vec();
        self.delete(i);
        key
    }

    fn pop(&mut self) -> Vec<u8> {
        self.remove(self.len() - 1)
    }

    /// Puts `key` in slot `i`, returning the key that was there.
    fn replace(&mut self, i: usize, key: &[u8]) -> Vec<u8> {
        let old = self.remove(i);
        self.insert(i, key);
        old
    }

    /// Moves keys `at..` into a new list.
    fn split_off(&mut self, at: usize) -> Keys {
        let cut = self.start(at);
        let mut right = Keys {
            bytes: self.bytes.split_off(cut),
            ends: self.ends.split_off(at),
        };
        let cut = Self::offset(cut);
        for end in &mut right.ends {
            *end -= cut;
        }
        right
    }

    fn append(&mut self, other: &Keys) {
        let base = Self::offset(self.bytes.len());
        self.bytes.extend_from_slice(&other.bytes);
        self.ends.extend(other.ends.iter().map(|end| end + base));
    }
}

/// An overflowing node's split: the separator key and the new right sibling.
type Split = (Vec<u8>, Arc<Node>);

impl Node {
    fn len(&self) -> usize {
        match self {
            Node::Leaf { keys, .. } | Node::Inner { keys, .. } => keys.len(),
        }
    }
}

/// The child of an inner node whose subtree holds `key`.
fn child_index(keys: &Keys, key: &[u8]) -> usize {
    keys.partition_point(|k| k <= key)
}

/// The first slot of a leaf's `keys` that satisfies a lower bound.
fn lower_index(keys: &Keys, bound: Bound<&[u8]>) -> usize {
    match bound {
        Bound::Included(k) => keys.partition_point(|x| x < k),
        Bound::Excluded(k) => keys.partition_point(|x| x <= k),
        Bound::Unbounded => 0,
    }
}

fn owned_bound(b: Bound<&[u8]>) -> Option<(Vec<u8>, bool)> {
    match b {
        Bound::Unbounded => None,
        Bound::Included(k) => Some((k.to_vec(), true)),
        Bound::Excluded(k) => Some((k.to_vec(), false)),
    }
}

/// Operation counters for one tree (see [`BTree::counters`]).
///
/// The counters are kept per tree (not globally) so concurrent databases —
/// e.g. tests running in parallel — never see each other's traffic. They use
/// relaxed atomics because lookups and range scans take `&self`, possibly
/// from several reader threads at once.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BTreeCounters {
    /// Root-to-leaf descents: point lookups, inserts, removes, and the
    /// initial positioning of every range scan.
    pub descents: u64,
    /// Range positionings that *avoided* a root-to-leaf descent by resuming
    /// from the previous range's finger ([`BTree::range_from`]). A batched
    /// multi-range statement does `descents + descent_reuses` positionings.
    pub descent_reuses: u64,
    /// Leaf nodes visited by range iterators (including the starting leaf).
    pub leaf_scans: u64,
    /// Node splits (leaf and inner) triggered by inserts.
    pub splits: u64,
}

impl BTreeCounters {
    /// Adds `other` into `self` (used to sum counters across many trees).
    pub fn merge(&mut self, other: &BTreeCounters) {
        self.descents += other.descents;
        self.descent_reuses += other.descent_reuses;
        self.leaf_scans += other.leaf_scans;
        self.splits += other.splits;
    }
}

/// The B+tree. See the module docs.
#[derive(Debug)]
pub struct BTree {
    root: Arc<Node>,
    len: u64,
    descents: AtomicU64,
    descent_reuses: AtomicU64,
    leaf_scans: AtomicU64,
    splits: AtomicU64,
}

impl Default for BTree {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for BTree {
    /// A new version sharing every node with `self`: one root `Arc` and the
    /// counters, nothing else. Either copy's later writes path-copy the
    /// nodes they touch, so neither ever sees the other's changes. Counters
    /// are carried over as fresh atomics so the copy's totals start where
    /// the original's were.
    fn clone(&self) -> Self {
        BTree {
            root: Arc::clone(&self.root),
            len: self.len,
            descents: AtomicU64::new(self.descents.load(Ordering::Relaxed)),
            descent_reuses: AtomicU64::new(self.descent_reuses.load(Ordering::Relaxed)),
            leaf_scans: AtomicU64::new(self.leaf_scans.load(Ordering::Relaxed)),
            splits: AtomicU64::new(self.splits.load(Ordering::Relaxed)),
        }
    }
}

impl BTree {
    /// An empty tree.
    pub fn new() -> Self {
        BTree {
            root: Arc::new(Node::Leaf {
                keys: Keys::default(),
                vals: Vec::new(),
            }),
            len: 0,
            descents: AtomicU64::new(0),
            descent_reuses: AtomicU64::new(0),
            leaf_scans: AtomicU64::new(0),
            splits: AtomicU64::new(0),
        }
    }

    /// Snapshot of this tree's operation counters. Counters reset with
    /// [`BTree::clear`] (the tree is rebuilt from scratch).
    pub fn counters(&self) -> BTreeCounters {
        BTreeCounters {
            descents: self.descents.load(Ordering::Relaxed),
            descent_reuses: self.descent_reuses.load(Ordering::Relaxed),
            leaf_scans: self.leaf_scans.load(Ordering::Relaxed),
            splits: self.splits.load(Ordering::Relaxed),
        }
    }

    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
        // Every bump marks one unit of tree work (a descent, a leaf
        // advance, a split); charge it against the governing scope, if any.
        // Iterators cannot return errors, so a tripped limit latches here
        // and surfaces at the caller's next fallible checkpoint.
        crate::governance::note_work(1);
    }

    /// Number of stored entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if the tree stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        *self = BTree::new();
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        Self::bump(&self.descents);
        let _span = crate::trace::span("btree.descent");
        let mut node = self.root.as_ref();
        loop {
            match node {
                Node::Inner { keys, children } => node = children[child_index(keys, key)].as_ref(),
                Node::Leaf { keys, vals } => return keys.find(key).ok().map(|i| vals[i]),
            }
        }
    }

    /// `true` if the key is present.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `key -> val`. Returns the previous value if the key existed
    /// (in which case the value was replaced).
    pub fn insert(&mut self, key: &[u8], val: u64) -> Option<u64> {
        self.put(key, val, true)
    }

    /// Inserts `key -> val` only if `key` is absent, in one descent.
    /// Returns `false`, leaving every entry as it was, when `key` exists.
    pub fn insert_new(&mut self, key: &[u8], val: u64) -> bool {
        self.put(key, val, false).is_none()
    }

    fn put(&mut self, key: &[u8], val: u64, overwrite: bool) -> Option<u64> {
        Self::bump(&self.descents);
        let _span = crate::trace::span("btree.descent");
        let (split, old) = Self::insert_rec(&mut self.root, key, val, overwrite, &self.splits);
        if let Some((sep, right)) = split {
            let left = Arc::clone(&self.root);
            self.root = Arc::new(Node::Inner {
                keys: Keys::single(&sep),
                children: vec![left, right],
            });
        }
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Inserts below `node`, returning the split-off right sibling (with
    /// its separator) if `node` overflowed, and the key's previous value.
    fn insert_rec(
        node: &mut Arc<Node>,
        key: &[u8],
        val: u64,
        overwrite: bool,
        splits: &AtomicU64,
    ) -> (Option<Split>, Option<u64>) {
        match Arc::make_mut(node) {
            Node::Leaf { keys, vals } => match keys.find(key) {
                Ok(i) => {
                    let old = vals[i];
                    if overwrite {
                        vals[i] = val;
                    }
                    (None, Some(old))
                }
                Err(i) => {
                    keys.insert(i, key);
                    vals.insert(i, val);
                    if keys.len() <= MAX_KEYS {
                        return (None, None);
                    }
                    let mid = keys.len() / 2;
                    let right_keys = keys.split_off(mid);
                    let right_vals = vals.split_off(mid);
                    let sep = right_keys.get(0).to_vec();
                    Self::bump(splits);
                    let right = Node::Leaf {
                        keys: right_keys,
                        vals: right_vals,
                    };
                    (Some((sep, Arc::new(right))), None)
                }
            },
            Node::Inner { keys, children } => {
                let idx = child_index(keys, key);
                let (split, old) =
                    Self::insert_rec(&mut children[idx], key, val, overwrite, splits);
                if let Some((sep, right)) = split {
                    keys.insert(idx, &sep);
                    children.insert(idx + 1, right);
                    if keys.len() > MAX_KEYS {
                        // Split the inner node; the middle key moves up.
                        let mid = keys.len() / 2;
                        let right_keys = keys.split_off(mid + 1);
                        let promote = keys.pop();
                        let right_children = children.split_off(mid + 1);
                        Self::bump(splits);
                        let right = Node::Inner {
                            keys: right_keys,
                            children: right_children,
                        };
                        return (Some((promote, Arc::new(right))), old);
                    }
                }
                (None, old)
            }
        }
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &[u8]) -> Option<u64> {
        Self::bump(&self.descents);
        let _span = crate::trace::span("btree.descent");
        let removed = Self::remove_rec(&mut self.root, key);
        if removed.is_some() {
            self.len -= 1;
        }
        // Collapse a root inner node left with a single child.
        let only_child = match self.root.as_ref() {
            Node::Inner { keys, children } if keys.is_empty() => Some(Arc::clone(&children[0])),
            _ => None,
        };
        if let Some(child) = only_child {
            self.root = child;
        }
        removed
    }

    fn remove_rec(node: &mut Arc<Node>, key: &[u8]) -> Option<u64> {
        match Arc::make_mut(node) {
            Node::Leaf { keys, vals } => {
                let i = keys.find(key).ok()?;
                keys.delete(i);
                Some(vals.remove(i))
            }
            Node::Inner { keys, children } => {
                let idx = child_index(keys, key);
                let removed = Self::remove_rec(&mut children[idx], key)?;
                Self::rebalance_child(keys, children, idx);
                Some(removed)
            }
        }
    }

    /// After a removal in `children[idx]` of an inner node, restore the
    /// minimum-fill invariant by borrowing from a sibling or merging.
    fn rebalance_child(keys: &mut Keys, children: &mut Vec<Arc<Node>>, idx: usize) {
        if children[idx].len() >= MIN_KEYS {
            return;
        }
        if idx > 0 && children[idx - 1].len() > MIN_KEYS {
            Self::borrow_from_left(keys, children, idx);
        } else if idx + 1 < children.len() && children[idx + 1].len() > MIN_KEYS {
            Self::borrow_from_right(keys, children, idx);
        } else if idx > 0 {
            Self::merge_children(keys, children, idx - 1);
        } else if idx + 1 < children.len() {
            Self::merge_children(keys, children, idx);
        }
    }

    /// Moves the last entry of `children[idx-1]` into `children[idx]`.
    fn borrow_from_left(keys: &mut Keys, children: &mut [Arc<Node>], idx: usize) {
        let (head, tail) = children.split_at_mut(idx);
        match (
            Arc::make_mut(&mut head[idx - 1]),
            Arc::make_mut(&mut tail[0]),
        ) {
            (
                Node::Leaf { keys: lk, vals: lv },
                Node::Leaf {
                    keys: ck, vals: cv, ..
                },
            ) => {
                let k = lk.pop();
                let v = lv.pop().expect("left has > MIN");
                keys.replace(idx - 1, &k);
                ck.insert(0, &k);
                cv.insert(0, v);
            }
            (
                Node::Inner {
                    keys: lk,
                    children: lc,
                },
                Node::Inner {
                    keys: ck,
                    children: cc,
                },
            ) => {
                // Rotate through the parent separator.
                let k = lk.pop();
                let c = lc.pop().expect("left has > MIN");
                ck.insert(0, &keys.replace(idx - 1, &k));
                cc.insert(0, c);
            }
            _ => unreachable!("siblings sit at one level"),
        }
    }

    /// Moves the first entry of `children[idx+1]` into `children[idx]`.
    fn borrow_from_right(keys: &mut Keys, children: &mut [Arc<Node>], idx: usize) {
        let (head, tail) = children.split_at_mut(idx + 1);
        match (Arc::make_mut(&mut head[idx]), Arc::make_mut(&mut tail[0])) {
            (Node::Leaf { keys: ck, vals: cv }, Node::Leaf { keys: rk, vals: rv }) => {
                ck.push(&rk.remove(0));
                cv.push(rv.remove(0));
                keys.replace(idx, rk.get(0));
            }
            (
                Node::Inner {
                    keys: ck,
                    children: cc,
                },
                Node::Inner {
                    keys: rk,
                    children: rc,
                },
            ) => {
                let k = rk.remove(0);
                ck.push(&keys.replace(idx, &k));
                cc.push(rc.remove(0));
            }
            _ => unreachable!("siblings sit at one level"),
        }
    }

    /// Merges `children[idx+1]` into `children[idx]` and drops the separator.
    fn merge_children(keys: &mut Keys, children: &mut Vec<Arc<Node>>, idx: usize) {
        let sep = keys.remove(idx);
        let right = Arc::unwrap_or_clone(children.remove(idx + 1));
        match (Arc::make_mut(&mut children[idx]), right) {
            (Node::Leaf { keys: lk, vals: lv }, Node::Leaf { keys: rk, vals: rv }) => {
                lk.append(&rk);
                lv.extend(rv);
            }
            (
                Node::Inner {
                    keys: lk,
                    children: lc,
                },
                Node::Inner {
                    keys: rk,
                    children: rc,
                },
            ) => {
                lk.push(&sep);
                lk.append(&rk);
                lc.extend(rc);
            }
            _ => unreachable!("siblings sit at one level"),
        }
    }

    /// Positions a cursor at the first entry `>=`/`>` the bound, walking
    /// down from the root.
    fn seek(&self, bound: Bound<&[u8]>) -> (Cursor<'_>, usize) {
        Self::bump(&self.descents);
        let _span = crate::trace::span("btree.descent");
        let cur = match bound {
            Bound::Unbounded => Cursor::descend(&self.root, |_| 0),
            Bound::Included(k) | Bound::Excluded(k) => {
                Cursor::descend(&self.root, |keys| child_index(keys, k))
            }
        };
        let idx = lower_index(cur.keys, bound);
        (cur, idx)
    }

    /// Ascending iterator over entries in `(lower, upper)` bounds.
    pub fn range(&self, lower: Bound<&[u8]>, upper: Bound<&[u8]>) -> Range<'_> {
        let (cur, idx) = self.seek(lower);
        Self::bump(&self.leaf_scans);
        Range {
            tree: self,
            cur,
            idx,
            stopped: false,
            exhausted: false,
            upper: owned_bound(upper),
        }
    }

    /// Like [`BTree::range`], but tries to resume from `finger` — the
    /// position a previous ascending scan over this tree stopped at — by
    /// stepping leaf to leaf instead of descending from the root. Falls
    /// back to a plain descent when the finger cannot prove itself valid
    /// for `lower` (target precedes it, the walk would exceed
    /// [`FINGER_WALK_LIMIT`] leaves, or it was taken on another tree or
    /// another version of this one).
    ///
    /// The batched multi-range executor calls this with the ascending
    /// disjoint ranges of one statement: each range after the first then
    /// costs a short leaf walk (`descent_reuses`) instead of a full
    /// root-to-leaf descent (`descents`).
    pub fn range_from<'a>(
        &'a self,
        finger: Option<Finger<'a>>,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
    ) -> Range<'a> {
        if let Some((cur, idx)) = finger.and_then(|fg| self.seek_from(fg, lower)) {
            Self::bump(&self.descent_reuses);
            Self::bump(&self.leaf_scans);
            return Range {
                tree: self,
                cur,
                idx,
                stopped: false,
                exhausted: false,
                upper: owned_bound(upper),
            };
        }
        self.range(lower, upper)
    }

    /// Positions a cursor at the first entry satisfying `bound` by walking
    /// forward from `finger`, or `None` when the finger cannot be used (the
    /// caller then descends from the root).
    ///
    /// Self-validating: the position is accepted only if the entry
    /// immediately *before* the finger is excluded by the bound (so the
    /// first match provably cannot lie to its left). The finger borrows the
    /// tree it came from, so that tree cannot have changed under it; a
    /// finger whose root is not this tree's root — another tree, or a clone
    /// that has since been written — is rejected rather than trusted.
    fn seek_from<'a>(
        &'a self,
        finger: Finger<'a>,
        bound: Bound<&[u8]>,
    ) -> Option<(Cursor<'a>, usize)> {
        // An unbounded lower targets the leftmost leaf; nothing to reuse.
        if matches!(bound, Bound::Unbounded) || !std::ptr::eq(finger.root, self.root.as_ref()) {
            return None;
        }
        let Finger { mut cur, idx, .. } = finger;
        // The nearest entry to the left of the finger position (possibly in
        // the previous leaf). Sorted order makes this one comparison
        // sufficient to prove every entry before the finger is excluded.
        let pred: Option<&[u8]> = if idx > 0 {
            Some(cur.keys.get(idx - 1))
        } else {
            let mut back = cur;
            if back.prev_leaf() {
                back.keys.last()
            } else {
                None // beginning of the tree: trivially valid
            }
        };
        if let Some(p) = pred {
            let excluded = match bound {
                Bound::Included(k) => p < k,
                Bound::Excluded(k) => p <= k,
                Bound::Unbounded => unreachable!("handled above"),
            };
            if !excluded {
                return None;
            }
        }
        // Walk forward to the first entry satisfying the bound.
        let mut steps = 0;
        loop {
            let pos = lower_index(cur.keys, bound);
            if pos < cur.keys.len() || !cur.next_leaf() {
                return Some((cur, pos));
            }
            steps += 1;
            if steps > FINGER_WALK_LIMIT {
                return None; // gap too wide: a root descent is cheaper
            }
        }
    }

    /// Descending iterator over entries in `(lower, upper)` bounds.
    pub fn range_rev(&self, lower: Bound<&[u8]>, upper: Bound<&[u8]>) -> RangeRev<'_> {
        // Position one past the last entry within `upper`.
        let (mut cur, mut idx) = match upper {
            Bound::Unbounded => {
                Self::bump(&self.descents);
                let _span = crate::trace::span("btree.descent");
                let cur = Cursor::descend(&self.root, |keys| keys.len());
                (cur, cur.keys.len())
            }
            Bound::Included(k) => self.seek(Bound::Excluded(k)),
            Bound::Excluded(k) => self.seek(Bound::Included(k)),
        };
        // At a leaf's first slot, the last entry within `upper` is in the
        // previous leaf; with none, the range is empty.
        let mut exhausted = false;
        if idx == 0 {
            if cur.prev_leaf() {
                idx = cur.keys.len();
            } else {
                exhausted = true;
            }
        }
        if !exhausted {
            Self::bump(&self.leaf_scans);
        }
        RangeRev {
            tree: self,
            cur,
            idx,
            exhausted,
            lower: owned_bound(lower),
        }
    }

    /// Iterator over all entries in key order.
    pub fn iter(&self) -> Range<'_> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    /// Levels from the root to the leaves (1 for a lone root leaf).
    #[cfg(test)]
    pub(crate) fn height(&self) -> usize {
        Cursor::descend(&self.root, |_| 0).depth + 1
    }

    /// `(nodes, shared)`: how many nodes this tree has, and how many of
    /// them are the very allocations `other` also holds (not equal copies).
    #[cfg(test)]
    pub(crate) fn node_sharing(&self, other: &BTree) -> (usize, usize) {
        fn collect(node: &Arc<Node>, out: &mut Vec<*const Node>) {
            out.push(Arc::as_ptr(node));
            if let Node::Inner { children, .. } = node.as_ref() {
                for c in children {
                    collect(c, out);
                }
            }
        }
        let (mut mine, mut theirs) = (Vec::new(), Vec::new());
        collect(&self.root, &mut mine);
        collect(&other.root, &mut theirs);
        let theirs: std::collections::HashSet<_> = theirs.into_iter().collect();
        let shared = mine.iter().filter(|p| theirs.contains(p)).count();
        (mine.len(), shared)
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        fn sorted(keys: &Keys) -> bool {
            (1..keys.len()).all(|i| keys.get(i - 1) < keys.get(i))
        }
        fn walk(node: &Node, depth: usize, leaf_depth: &mut Option<usize>, is_root: bool) {
            match node {
                Node::Leaf { keys, vals } => {
                    assert_eq!(keys.len(), vals.len());
                    assert!(sorted(keys), "leaf keys sorted");
                    if !is_root {
                        assert!(keys.len() >= MIN_KEYS.min(1), "leaf fill");
                    }
                    match leaf_depth {
                        None => *leaf_depth = Some(depth),
                        Some(d) => assert_eq!(*d, depth, "all leaves at equal depth"),
                    }
                }
                Node::Inner { keys, children } => {
                    assert_eq!(children.len(), keys.len() + 1);
                    assert!(sorted(keys), "inner keys sorted");
                    if !is_root {
                        assert!(
                            keys.len() >= MIN_KEYS,
                            "inner fill: {} < {MIN_KEYS}",
                            keys.len()
                        );
                    }
                    for c in children {
                        walk(c, depth + 1, leaf_depth, false);
                    }
                }
            }
        }
        let mut leaf_depth = None;
        walk(&self.root, 0, &mut leaf_depth, true);
    }
}

/// Fills the unused levels of a cursor's parent stack.
static NO_NODE: Node = Node::Leaf {
    keys: Keys {
        bytes: Vec::new(),
        ends: Vec::new(),
    },
    vals: Vec::new(),
};
/// A cursor's leaf keys before its first descent.
static NO_KEYS: Keys = Keys {
    bytes: Vec::new(),
    ends: Vec::new(),
};

/// A root-to-leaf position: each inner level's node with the index of the
/// child taken there, then the leaf's entries. Fixed-size, compact and
/// `Copy`, so keeping a scan's place allocates nothing; stepping to a
/// neighbouring leaf climbs only to the nearest ancestor with a child on
/// that side.
#[derive(Clone, Copy)]
struct Cursor<'a> {
    inner: [&'a Node; MAX_DEPTH],
    /// Child index taken at each level (`MAX_KEYS + 1` fits a byte).
    taken: [u8; MAX_DEPTH],
    depth: usize,
    keys: &'a Keys,
    vals: &'a [u64],
}

impl<'a> Cursor<'a> {
    /// Descends from `root`, taking child `pick(separators)` at each inner
    /// level.
    fn descend(root: &'a Node, pick: impl Fn(&Keys) -> usize) -> Self {
        let mut cur = Cursor {
            inner: [&NO_NODE; MAX_DEPTH],
            taken: [0; MAX_DEPTH],
            depth: 0,
            keys: &NO_KEYS,
            vals: &[],
        };
        cur.descend_from(root, pick);
        cur
    }

    fn descend_from(&mut self, mut node: &'a Node, pick: impl Fn(&Keys) -> usize) {
        loop {
            match node {
                Node::Inner { keys, children } => {
                    let i = pick(keys);
                    self.inner[self.depth] = node;
                    self.taken[self.depth] = i as u8;
                    self.depth += 1;
                    node = children[i].as_ref();
                }
                Node::Leaf { keys, vals } => {
                    self.keys = keys;
                    self.vals = vals;
                    return;
                }
            }
        }
    }

    /// The children of the inner node at level `d`.
    fn children(&self, d: usize) -> &'a [Arc<Node>] {
        match self.inner[d] {
            Node::Inner { children, .. } => children,
            Node::Leaf { .. } => &[],
        }
    }

    /// Moves to the next leaf in key order; `false`, leaving the cursor
    /// where it was, at the last leaf.
    fn next_leaf(&mut self) -> bool {
        for d in (0..self.depth).rev() {
            let (children, i) = (self.children(d), usize::from(self.taken[d]));
            if i + 1 < children.len() {
                self.taken[d] += 1;
                self.depth = d + 1;
                self.descend_from(&children[i + 1], |_| 0);
                return true;
            }
        }
        false
    }

    /// Moves to the previous leaf in key order; `false`, leaving the cursor
    /// where it was, at the first leaf.
    fn prev_leaf(&mut self) -> bool {
        for d in (0..self.depth).rev() {
            let (children, i) = (self.children(d), usize::from(self.taken[d]));
            if i > 0 {
                self.taken[d] -= 1;
                self.depth = d + 1;
                self.descend_from(&children[i - 1], |keys| keys.len());
                return true;
            }
        }
        false
    }
}

/// An opaque resume position: the cursor and slot where an ascending scan
/// stopped, as returned by [`Range::finger`]. Feed it to
/// [`BTree::range_from`] to position the next (key-ordered later) range by
/// stepping leaf to leaf instead of re-descending from the root. It borrows
/// the tree it was taken on, which therefore cannot change while it lives.
#[derive(Clone, Copy)]
pub struct Finger<'a> {
    root: &'a Node,
    cur: Cursor<'a>,
    idx: usize,
}

impl std::fmt::Debug for Finger<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Finger")
            .field("depth", &self.cur.depth)
            .field("idx", &self.idx)
            .finish()
    }
}

/// Ascending range iterator. See [`BTree::range`].
pub struct Range<'a> {
    tree: &'a BTree,
    cur: Cursor<'a>,
    idx: usize,
    /// Set when the upper bound stopped the scan — `cur`/`idx` then hold
    /// the first out-of-range position, which [`Range::finger`] exposes
    /// for the next range to resume from.
    stopped: bool,
    /// Set when the scan ran off the end of the tree.
    exhausted: bool,
    upper: Option<(Vec<u8>, bool)>,
}

impl<'a> Range<'a> {
    /// The position this scan has reached, for [`BTree::range_from`] —
    /// `None` once the scan ran off the end of the tree (nothing follows,
    /// so there is nothing to resume from).
    pub fn finger(&self) -> Option<Finger<'a>> {
        (!self.exhausted).then_some(Finger {
            root: self.tree.root.as_ref(),
            cur: self.cur,
            idx: self.idx,
        })
    }
}

impl<'a> Iterator for Range<'a> {
    type Item = (&'a [u8], u64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.stopped || self.exhausted {
            return None;
        }
        while self.idx >= self.cur.keys.len() {
            if !self.cur.next_leaf() {
                self.exhausted = true;
                return None;
            }
            self.idx = 0;
            BTree::bump(&self.tree.leaf_scans);
        }
        let keys: &'a Keys = self.cur.keys;
        let key = keys.get(self.idx);
        if let Some((upper, inclusive)) = &self.upper {
            let in_range = if *inclusive {
                key <= upper.as_slice()
            } else {
                key < upper.as_slice()
            };
            if !in_range {
                // Keep cur/idx: they are the finger the next key-ordered
                // range resumes from.
                self.stopped = true;
                return None;
            }
        }
        let val = self.cur.vals[self.idx];
        self.idx += 1;
        Some((key, val))
    }
}

/// Descending range iterator. See [`BTree::range_rev`].
pub struct RangeRev<'a> {
    tree: &'a BTree,
    cur: Cursor<'a>,
    /// One past the next entry to yield.
    idx: usize,
    exhausted: bool,
    lower: Option<(Vec<u8>, bool)>,
}

impl<'a> Iterator for RangeRev<'a> {
    type Item = (&'a [u8], u64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.exhausted {
            return None;
        }
        while self.idx == 0 {
            if !self.cur.prev_leaf() {
                self.exhausted = true;
                return None;
            }
            self.idx = self.cur.keys.len();
            BTree::bump(&self.tree.leaf_scans);
        }
        let keys: &'a Keys = self.cur.keys;
        let key = keys.get(self.idx - 1);
        if let Some((lower, inclusive)) = &self.lower {
            let in_range = if *inclusive {
                key >= lower.as_slice()
            } else {
                key > lower.as_slice()
            };
            if !in_range {
                self.exhausted = true;
                return None;
            }
        }
        let val = self.cur.vals[self.idx - 1];
        self.idx -= 1;
        Some((key, val))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::ops::Bound::{Excluded, Included, Unbounded};

    fn key(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    #[test]
    fn insert_get_small() {
        let mut t = BTree::new();
        assert_eq!(t.insert(&key(5), 50), None);
        assert_eq!(t.insert(&key(3), 30), None);
        assert_eq!(t.insert(&key(5), 55), Some(50), "replace returns old");
        assert_eq!(t.get(&key(5)), Some(55));
        assert_eq!(t.get(&key(3)), Some(30));
        assert_eq!(t.get(&key(4)), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn insert_new_never_overwrites() {
        let mut t = BTree::new();
        assert!(t.insert_new(&key(5), 50));
        assert!(!t.insert_new(&key(5), 55), "present key is refused");
        assert_eq!(t.get(&key(5)), Some(50), "and keeps its value");
        assert_eq!(t.len(), 1);
        let before = t.counters().descents;
        assert!(t.insert_new(&key(6), 60));
        assert_eq!(t.counters().descents - before, 1, "one descent per call");
    }

    #[test]
    fn splits_preserve_order_and_invariants() {
        let mut t = BTree::new();
        // Insert in adversarial (descending) order to force left-heavy splits.
        for i in (0..5000u64).rev() {
            t.insert(&key(i), i);
        }
        t.check_invariants();
        let all: Vec<u64> = t.iter().map(|(_, v)| v).collect();
        assert_eq!(all, (0..5000).collect::<Vec<u64>>());
    }

    #[test]
    fn range_bounds_semantics() {
        let mut t = BTree::new();
        for i in 0..100u64 {
            t.insert(&key(i * 2), i * 2); // even keys 0..198
        }
        let got: Vec<u64> = t
            .range(Included(&key(10)), Excluded(&key(20)))
            .map(|(_, v)| v)
            .collect();
        assert_eq!(got, vec![10, 12, 14, 16, 18]);
        let got: Vec<u64> = t
            .range(Excluded(&key(10)), Included(&key(20)))
            .map(|(_, v)| v)
            .collect();
        assert_eq!(got, vec![12, 14, 16, 18, 20]);
        // Bounds between keys.
        let got: Vec<u64> = t
            .range(Included(&key(11)), Included(&key(15)))
            .map(|(_, v)| v)
            .collect();
        assert_eq!(got, vec![12, 14]);
        // Empty range.
        assert_eq!(t.range(Included(&key(13)), Excluded(&key(14))).count(), 0);
    }

    #[test]
    fn fingered_ranges_match_plain_ranges_and_skip_descents() {
        let mut t = BTree::new();
        for i in 0..2000u64 {
            t.insert(&key(i), i);
        }
        let before = t.counters();
        // Three ascending adjacent/disjoint ranges, fingered.
        let ranges = [(100u64, 200u64), (200, 300), (340, 400)];
        let mut finger = None;
        let mut got = Vec::new();
        for (lo, hi) in ranges {
            let mut scan = t.range_from(finger.take(), Included(&key(lo)), Excluded(&key(hi)));
            got.extend(scan.by_ref().map(|(_, v)| v));
            finger = scan.finger();
        }
        let want: Vec<u64> = (100..300).chain(340..400).collect();
        assert_eq!(got, want);
        let after = t.counters();
        assert_eq!(
            after.descents - before.descents,
            1,
            "only the first range descends"
        );
        assert_eq!(after.descent_reuses - before.descent_reuses, 2);
    }

    #[test]
    fn finger_falls_back_when_target_precedes_it() {
        let mut t = BTree::new();
        for i in 0..2000u64 {
            t.insert(&key(i), i);
        }
        let mut scan = t.range(Included(&key(1000)), Excluded(&key(1010)));
        assert_eq!(scan.by_ref().count(), 10);
        let finger = scan.finger();
        assert!(finger.is_some());
        let before = t.counters();
        // A range *before* the finger must still be answered correctly —
        // via a fresh descent, not a bogus reuse.
        let got: Vec<u64> = t
            .range_from(finger, Included(&key(5)), Excluded(&key(8)))
            .map(|(_, v)| v)
            .collect();
        assert_eq!(got, vec![5, 6, 7]);
        let after = t.counters();
        assert_eq!(after.descents - before.descents, 1);
        assert_eq!(after.descent_reuses, before.descent_reuses);
    }

    #[test]
    fn finger_at_a_leaf_boundary_checks_the_previous_leaf() {
        let mut t = BTree::new();
        for i in 0..2000u64 {
            t.insert(&key(i), i);
        }
        // Stop a scan exactly at the first slot of some non-first leaf:
        // the predecessor then lives in the previous leaf.
        let boundary = (1..2000u64)
            .find(|&i| {
                let mut scan = t.range(Included(&key(0)), Excluded(&key(i)));
                let _ = scan.by_ref().count();
                scan.finger().is_some_and(|f| f.idx == 0)
            })
            .expect("some leaf starts after key 0");
        let mut scan = t.range(Included(&key(0)), Excluded(&key(boundary)));
        let _ = scan.by_ref().count();
        let finger = scan.finger();
        let before = t.counters();
        // Target exactly at the boundary: the previous leaf's last key
        // (boundary - 1) is excluded, so the finger is reused.
        let got: Vec<u64> = t
            .range_from(
                finger,
                Included(&key(boundary)),
                Excluded(&key(boundary + 2)),
            )
            .map(|(_, v)| v)
            .collect();
        assert_eq!(got, vec![boundary, boundary + 1]);
        assert_eq!(t.counters().descent_reuses - before.descent_reuses, 1);
        // Target one before it: the previous leaf's last key is in range,
        // so the finger must be refused.
        let got: Vec<u64> = t
            .range_from(
                finger,
                Included(&key(boundary - 1)),
                Excluded(&key(boundary + 1)),
            )
            .map(|(_, v)| v)
            .collect();
        assert_eq!(got, vec![boundary - 1, boundary]);
        assert_eq!(t.counters().descents - before.descents, 1);
    }

    #[test]
    fn finger_survives_wide_gaps_by_descending() {
        let mut t = BTree::new();
        for i in 0..20_000u64 {
            t.insert(&key(i), i);
        }
        let mut scan = t.range(Included(&key(0)), Excluded(&key(5)));
        assert_eq!(scan.by_ref().count(), 5);
        let finger = scan.finger();
        let before = t.counters();
        // The next range is thousands of keys away — farther than the
        // bounded leaf walk — so the seek falls back to a descent.
        let got: Vec<u64> = t
            .range_from(finger, Included(&key(19_990)), Unbounded)
            .map(|(_, v)| v)
            .collect();
        assert_eq!(got, (19_990..20_000).collect::<Vec<u64>>());
        let after = t.counters();
        assert_eq!(after.descents - before.descents, 1);
        assert_eq!(after.descent_reuses, before.descent_reuses);
    }

    #[test]
    fn stale_finger_after_mutation_degrades_to_descent() {
        let mut t = BTree::new();
        for i in 0..500u64 {
            t.insert(&key(i * 2), i);
        }
        // A finger can only outlive a mutation through a snapshot: take it
        // on a clone, then mutate the original heavily (deletions merge
        // and path-copy nodes).
        let snapshot = t.clone();
        let mut scan = snapshot.range(Included(&key(100)), Excluded(&key(120)));
        let _ = scan.by_ref().count();
        let finger = scan.finger();
        for i in 0..400u64 {
            t.remove(&key(i * 2));
        }
        t.check_invariants();
        let before = t.counters();
        // The stale finger must never produce wrong rows.
        let got: Vec<u64> = t
            .range_from(finger, Included(&key(800)), Excluded(&key(820)))
            .map(|(_, v)| v)
            .collect();
        let want: Vec<u64> = t
            .range(Included(&key(800)), Excluded(&key(820)))
            .map(|(_, v)| v)
            .collect();
        assert_eq!(got, want);
        assert_eq!(t.counters().descent_reuses, before.descent_reuses);
        // On the unchanged snapshot the same finger is still good.
        let got: Vec<u64> = snapshot
            .range_from(finger, Included(&key(120)), Excluded(&key(130)))
            .map(|(_, v)| v)
            .collect();
        assert_eq!(got, vec![60, 61, 62, 63, 64]);
    }

    #[test]
    fn finger_is_none_after_running_off_the_tree_end() {
        let mut t = BTree::new();
        for i in 0..10u64 {
            t.insert(&key(i), i);
        }
        let mut scan = t.range(Included(&key(5)), Unbounded);
        assert_eq!(scan.by_ref().count(), 5);
        assert!(scan.finger().is_none(), "exhausted scan has no position");
        // And range_from with None simply descends.
        let got: Vec<u64> = t
            .range_from(None, Included(&key(2)), Excluded(&key(4)))
            .map(|(_, v)| v)
            .collect();
        assert_eq!(got, vec![2, 3]);
    }

    #[test]
    fn reverse_range_matches_forward() {
        let mut t = BTree::new();
        for i in 0..1000u64 {
            t.insert(&key(i * 3), i);
        }
        let fwd: Vec<u64> = t
            .range(Included(&key(100)), Excluded(&key(2000)))
            .map(|(_, v)| v)
            .collect();
        let mut rev: Vec<u64> = t
            .range_rev(Included(&key(100)), Excluded(&key(2000)))
            .map(|(_, v)| v)
            .collect();
        rev.reverse();
        assert_eq!(fwd, rev);
        // Unbounded both sides.
        let mut all_rev: Vec<u64> = t.range_rev(Unbounded, Unbounded).map(|(_, v)| v).collect();
        all_rev.reverse();
        assert_eq!(all_rev, (0..1000).collect::<Vec<u64>>());
    }

    #[test]
    fn delete_with_rebalancing() {
        let mut t = BTree::new();
        let n = 3000u64;
        for i in 0..n {
            t.insert(&key(i), i);
        }
        // Remove the middle half, checking invariants periodically.
        for i in n / 4..3 * n / 4 {
            assert_eq!(t.remove(&key(i)), Some(i));
            if i % 97 == 0 {
                t.check_invariants();
            }
        }
        t.check_invariants();
        assert_eq!(t.len(), n / 2);
        let got: Vec<u64> = t.iter().map(|(_, v)| v).collect();
        let expect: Vec<u64> = (0..n / 4).chain(3 * n / 4..n).collect();
        assert_eq!(got, expect);
        // Remove everything.
        for i in (0..n / 4).chain(3 * n / 4..n) {
            assert_eq!(t.remove(&key(i)), Some(i));
        }
        assert!(t.is_empty());
        t.check_invariants();
        assert_eq!(t.remove(&key(0)), None);
    }

    #[test]
    fn clone_shares_nodes_and_a_write_copies_one_path() {
        let mut t = BTree::new();
        for i in 0..20_000u64 {
            t.insert(&key(i * 2), i);
        }
        let snapshot = t.clone();
        let (nodes, shared) = t.node_sharing(&snapshot);
        assert_eq!(nodes, shared, "a clone copies no node");
        assert!(t.height() >= 3, "deep enough to have a path to copy");
        t.insert(&key(777), 1);
        let (nodes, shared) = t.node_sharing(&snapshot);
        assert!(
            nodes - shared <= t.height() + 1,
            "{} unshared nodes for one insert at height {}",
            nodes - shared,
            t.height()
        );
        t.remove(&key(20_000));
        t.check_invariants();
        snapshot.check_invariants();
        assert_eq!(
            snapshot.get(&key(777)),
            None,
            "the snapshot never sees writes"
        );
        assert_eq!(snapshot.get(&key(20_000)), Some(10_000));
        assert_eq!(snapshot.len(), 20_000);
        assert_eq!(t.len(), 20_000);
    }

    #[test]
    fn model_check_against_btreemap() {
        // Deterministic pseudo-random workload vs std BTreeMap, with
        // snapshots taken along the way that must never change.
        let mut t = BTree::new();
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        let mut snapshots = Vec::new();
        let mut state = 0x12345678u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for step in 0..20_000 {
            let k = key(rng() % 500);
            match rng() % 3 {
                0 | 1 => {
                    let v = rng();
                    assert_eq!(t.insert(&k, v), model.insert(k.clone(), v), "step {step}");
                }
                _ => {
                    assert_eq!(t.remove(&k), model.remove(&k), "step {step}");
                }
            }
            if step % 2500 == 0 {
                t.check_invariants();
                let got: Vec<(Vec<u8>, u64)> = t.iter().map(|(k, v)| (k.to_vec(), v)).collect();
                let expect: Vec<(Vec<u8>, u64)> =
                    model.iter().map(|(k, v)| (k.clone(), *v)).collect();
                assert_eq!(got, expect, "step {step}");
                snapshots.push((t.clone(), model.clone()));
            }
        }
        assert_eq!(t.len(), model.len() as u64);
        for (snap, want) in &snapshots {
            snap.check_invariants();
            let got: Vec<(Vec<u8>, u64)> = snap.iter().map(|(k, v)| (k.to_vec(), v)).collect();
            let expect: Vec<(Vec<u8>, u64)> = want.iter().map(|(k, v)| (k.clone(), *v)).collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn variable_length_keys_prefix_scan() {
        let mut t = BTree::new();
        for k in ["a", "ab", "abc", "abd", "ac", "b", "ba"] {
            t.insert(k.as_bytes(), k.len() as u64);
        }
        // All keys with prefix "ab": range ["ab", "ac").
        let got: Vec<Vec<u8>> = t
            .range(Included(b"ab".as_slice()), Excluded(b"ac".as_slice()))
            .map(|(k, _)| k.to_vec())
            .collect();
        assert_eq!(got, vec![b"ab".to_vec(), b"abc".to_vec(), b"abd".to_vec()]);
    }

    #[test]
    fn empty_tree_edge_cases() {
        let t = BTree::new();
        assert_eq!(t.get(b"x"), None);
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.range_rev(Unbounded, Unbounded).count(), 0);
        assert_eq!(
            t.range(Included(b"a".as_slice()), Excluded(b"z".as_slice()))
                .count(),
            0
        );
    }
}
