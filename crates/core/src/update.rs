//! Ordered updates: insertion, deletion, and text replacement, with
//! sparse-numbering gap absorption and per-encoding renumbering.
//!
//! The paper's central trade-off lives here. When an insertion's gap is
//! exhausted, each encoding pays a different structural price:
//!
//! * **Global** — every node after the insertion point shifts (`pos`,
//!   `parent_pos`, and `desc_max` column updates over the tail of the
//!   document), plus interval-bound maintenance on the ancestor chain.
//! * **Local** — only the siblings under one parent are renumbered.
//! * **Dewey** — following siblings are renumbered *together with their
//!   entire subtrees*, because descendants embed their ancestors' sibling
//!   positions in their keys.
//!
//! [`UpdateCost`] reports the damage: `relabeled` counts rows whose *order
//! key* changed; `maintenance` counts auxiliary column updates (Global's
//! `parent_pos`/`desc_max` shifts and interval extensions).

use crate::encoding::ops::{renumber_gap, renumber_value, spread, spread_u64};
use crate::encoding::{DeweyKey, Encoding};
use crate::shred::{
    fragment_dewey_rows, fragment_global_rows, fragment_local_rows, vnode_count, KIND_ATTR,
    KIND_TEXT, NO_PARENT,
};
use crate::store::{
    attribute_count, children_at, decode_node_row, fetch_children, last_child, select_list,
    NodeRef, StoreError, StoreResult, XNode,
};
use ordxml_rdbms::{Database, Value};
use ordxml_xml::Document;

/// The cost of one logical update, in row touches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateCost {
    /// Rows inserted (the fragment's size).
    pub rows_inserted: u64,
    /// Rows deleted.
    pub rows_deleted: u64,
    /// Rows whose *order key* changed (renumbering damage).
    pub relabeled: u64,
    /// Auxiliary column updates (interval/parent maintenance; Global only).
    pub maintenance: u64,
}

impl UpdateCost {
    /// Total row modifications.
    pub fn total(&self) -> u64 {
        self.rows_inserted + self.rows_deleted + self.relabeled + self.maintenance
    }

    /// Accumulates another cost.
    pub fn add(&mut self, other: UpdateCost) {
        self.rows_inserted += other.rows_inserted;
        self.rows_deleted += other.rows_deleted;
        self.relabeled += other.relabeled;
        self.maintenance += other.maintenance;
    }
}

/// Typed failure for updates that run out of integer order-key space. Only
/// reachable with adversarial gap configurations that push positions against
/// the `i64`/`u64` boundary; the offline renumber pass is the way out.
fn order_space_exhausted() -> StoreError {
    StoreError::BadNode(
        "order-key space exhausted near the integer boundary; renumber the document".into(),
    )
}

/// `gap` as a positive `i64` increment.
fn gap_i64(gap: u64) -> i64 {
    gap.clamp(1, i64::MAX as u64) as i64
}

/// One append position after `a`: `a + gap`, falling back to the space left
/// below `i64::MAX` when the addition would overflow.
fn append_pos(a: i64, gap: u64) -> StoreResult<i64> {
    match a.checked_add(gap_i64(gap)) {
        Some(v) => Ok(v),
        None => spread(a, i64::MAX, 1)
            .map(|v| v[0])
            .ok_or_else(order_space_exhausted),
    }
}

/// `k` append positions after `a`, gap-spaced, falling back to an even
/// spread over the space left below `i64::MAX` on overflow.
fn append_run(a: i64, gap: u64, k: usize) -> StoreResult<Vec<i64>> {
    let g = gap_i64(gap);
    let mut out = Vec::with_capacity(k);
    let mut cur = a;
    for _ in 0..k {
        match cur.checked_add(g) {
            Some(v) => {
                out.push(v);
                cur = v;
            }
            None => return spread(a, i64::MAX, k).ok_or_else(order_space_exhausted),
        }
    }
    Ok(out)
}

/// One append component after `a` (Dewey, `u64`): `a + gap`, falling back
/// to the midpoint of the space left below `u64::MAX` on overflow.
fn append_comp(a: u64, gap: u64) -> StoreResult<u64> {
    match a.checked_add(gap.max(1)) {
        Some(v) => Ok(v),
        None => {
            let mid = a + (u64::MAX - a) / 2;
            if mid > a {
                Ok(mid)
            } else {
                Err(order_space_exhausted())
            }
        }
    }
}

fn doc_gap(db: &mut Database, enc: Encoding, doc: i64) -> StoreResult<u64> {
    let rows = db.query(
        &format!("SELECT gap FROM {} WHERE doc = ?", enc.docs_table()),
        &[Value::Int(doc)],
    )?;
    let row = rows
        .first()
        .ok_or_else(|| StoreError::BadNode(format!("no document {doc}")))?;
    Ok(row[0].as_int()? as u64)
}

/// Inserts a deep copy of `fragment`'s root subtree as the `index`-th
/// non-attribute child of `parent` (clamped to append).
pub fn insert_fragment(
    db: &mut Database,
    enc: Encoding,
    doc: i64,
    parent: &XNode,
    index: usize,
    fragment: &Document,
) -> StoreResult<UpdateCost> {
    if !parent.is_element() {
        return Err(StoreError::BadNode(
            "insertion parent must be an element".into(),
        ));
    }
    let gap = doc_gap(db, enc, doc)?;
    // The new node lands at sibling offset `slot` (attributes lead the child
    // list), between the two stored children around it; only those two are
    // read.
    let slot = attribute_count(db, doc, parent)?.saturating_add(index);
    let (prev, next) = match slot.checked_sub(1) {
        None => (None, children_at(db, enc, doc, parent, 0, 1)?.pop()),
        Some(before) => {
            let mut pair = children_at(db, enc, doc, parent, before, 2)?.into_iter();
            match pair.next() {
                Some(prev) => (Some(prev), pair.next()),
                // `index` is past the end: append after the last child.
                None => (last_child(db, enc, doc, parent)?, None),
            }
        }
    };
    let (prev, next) = (prev.as_ref(), next.as_ref());
    match enc {
        Encoding::Global => insert_global(db, doc, parent, prev, fragment, gap),
        Encoding::Local => insert_local(db, doc, parent, slot, prev, next, fragment, gap),
        Encoding::Dewey => insert_dewey(db, doc, parent, slot, prev, next, fragment, gap),
    }
}

// ---------------------------------------------------------------------
// Global
// ---------------------------------------------------------------------

fn insert_global(
    db: &mut Database,
    doc: i64,
    parent: &XNode,
    prev: Option<&XNode>,
    fragment: &Document,
    gap: u64,
) -> StoreResult<UpdateCost> {
    let mut cost = UpdateCost::default();
    let NodeRef::Global {
        pos: parent_pos,
        depth,
        ..
    } = parent.node
    else {
        unreachable!()
    };
    // Lower boundary: end of the previous sibling's subtree (or the parent
    // itself / its last attribute when inserting first).
    let a = match prev {
        Some(p) => match &p.node {
            NodeRef::Global { pos, desc_max, .. } => (*desc_max).max(*pos),
            _ => unreachable!(),
        },
        None => parent_pos,
    };
    // Upper boundary: the first position after `a` in the document.
    let next_rows = db.query(
        "SELECT pos FROM global_node WHERE doc = ? AND pos > ? ORDER BY pos LIMIT 1",
        &[Value::Int(doc), Value::Int(a)],
    )?;
    let b: Option<i64> = next_rows.first().map(|r| r[0].as_int()).transpose()?;
    let k = vnode_count(fragment, fragment.root());
    let positions: Vec<i64> = match b {
        None => append_run(a, gap, k)?,
        Some(b) => match spread(a, b, k) {
            Some(p) => p,
            None => {
                // Gap exhausted: shift the tail of the document. This is the
                // Global encoding's worst case. `pos` is the primary key, so
                // the shift runs in two collision-free phases (negate-and-
                // move, then negate back) — a straight `pos = pos + δ` would
                // transiently collide with not-yet-moved keys.
                //
                // The shift distance is clamped to the headroom above the
                // document's largest position: shifted keys must stay within
                // i64 (`pos` bounds `parent_pos` and `desc_max`, so one
                // probe covers all three shifted columns).
                let max_pos = db
                    .query(
                        "SELECT pos FROM global_node WHERE doc = ? ORDER BY pos DESC LIMIT 1",
                        &[Value::Int(doc)],
                    )?
                    .first()
                    .map(|r| r[0].as_int())
                    .transpose()?
                    .unwrap_or(a);
                let headroom = i64::MAX - max_pos;
                // `spread(a, b + δ, k)` needs `b + δ - a - 1 >= k`
                // (computed difference-first: `a` itself can sit next to
                // i64::MAX).
                let needed = (k as i64 + 1).saturating_sub(b - a - 1).max(1);
                if headroom < needed {
                    return Err(order_space_exhausted());
                }
                let delta = (k as i64 + 1)
                    .checked_mul(gap_i64(gap))
                    .unwrap_or(i64::MAX)
                    .min(headroom);
                let relabeled = db.execute(
                    "UPDATE global_node SET pos = 0 - (pos + ?) WHERE doc = ? AND pos >= ?",
                    &[Value::Int(delta), Value::Int(doc), Value::Int(b)],
                )?;
                db.execute(
                    "UPDATE global_node SET pos = 0 - pos WHERE doc = ? AND pos < 0",
                    &[Value::Int(doc)],
                )?;
                let m1 = db.execute(
                    "UPDATE global_node SET parent_pos = parent_pos + ? \
                     WHERE doc = ? AND parent_pos >= ?",
                    &[Value::Int(delta), Value::Int(doc), Value::Int(b)],
                )?;
                let m2 = db.execute(
                    "UPDATE global_node SET desc_max = desc_max + ? \
                     WHERE doc = ? AND desc_max >= ?",
                    &[Value::Int(delta), Value::Int(doc), Value::Int(b)],
                )?;
                cost.relabeled += relabeled;
                cost.maintenance += m1 + m2;
                spread(a, b + delta, k).ok_or_else(order_space_exhausted)?
            }
        },
    };
    let last_new = *positions.last().expect("fragment is non-empty");
    let rows = fragment_global_rows(
        doc,
        fragment,
        fragment.root(),
        &positions,
        parent_pos,
        depth + 1,
    );
    cost.rows_inserted += db.insert_many("global_node", rows)?;
    // Extend ancestor intervals when the insertion lands at a subtree's end.
    let mut cur_pos = parent_pos;
    loop {
        let rows = db.query(
            "SELECT parent_pos, desc_max FROM global_node WHERE doc = ? AND pos = ?",
            &[Value::Int(doc), Value::Int(cur_pos)],
        )?;
        let Some(row) = rows.first() else { break };
        let anc_parent = row[0].as_int()?;
        let desc_max = row[1].as_int()?;
        if desc_max >= last_new {
            break;
        }
        cost.maintenance += db.execute(
            "UPDATE global_node SET desc_max = ? WHERE doc = ? AND pos = ?",
            &[Value::Int(last_new), Value::Int(doc), Value::Int(cur_pos)],
        )?;
        if anc_parent < 0 {
            break;
        }
        cur_pos = anc_parent;
    }
    Ok(cost)
}

// ---------------------------------------------------------------------
// Local
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn insert_local(
    db: &mut Database,
    doc: i64,
    parent: &XNode,
    slot: usize,
    prev: Option<&XNode>,
    next: Option<&XNode>,
    fragment: &Document,
    gap: u64,
) -> StoreResult<UpdateCost> {
    let mut cost = UpdateCost::default();
    let NodeRef::Local {
        id: parent_id,
        depth,
        ..
    } = parent.node
    else {
        unreachable!()
    };
    let ord_of = |n: &XNode| match &n.node {
        NodeRef::Local { ord, .. } => *ord,
        _ => unreachable!(),
    };
    let a = prev.map(&ord_of).unwrap_or(0);
    let b = next.map(&ord_of);
    let root_ord = match b {
        None => append_pos(a, gap)?,
        Some(b) => match spread(a, b, 1) {
            Some(v) => v[0],
            None => {
                // Renumber the siblings under this parent — Local's damage
                // is bounded by the parent's fan-out. The gap is clamped so
                // the largest reassigned ord fits in i64.
                let children = fetch_children(db, Encoding::Local, doc, parent)?;
                let gap = renumber_gap(children.len() + 1, gap);
                let mut new_ord = 0;
                for (i, child) in children.iter().enumerate() {
                    let slot_shift = usize::from(i >= slot);
                    let target = renumber_value(i + slot_shift, gap);
                    if ord_of(child) != target {
                        let id = match &child.node {
                            NodeRef::Local { id, .. } => *id,
                            _ => unreachable!(),
                        };
                        cost.relabeled += db.execute(
                            "UPDATE local_node SET ord = ? WHERE doc = ? AND id = ?",
                            &[Value::Int(target), Value::Int(doc), Value::Int(id)],
                        )?;
                    }
                    let _ = new_ord;
                    new_ord = target;
                }
                renumber_value(slot, gap)
            }
        },
    };
    // Allocate fresh node ids from the document counter.
    let rows = db.query(
        &format!(
            "SELECT next_id FROM {} WHERE doc = ?",
            Encoding::Local.docs_table()
        ),
        &[Value::Int(doc)],
    )?;
    let first_id = rows
        .first()
        .ok_or_else(|| StoreError::BadNode(format!("no document {doc}")))?[0]
        .as_int()?;
    let (new_rows, next_id) = fragment_local_rows(
        doc,
        fragment,
        fragment.root(),
        first_id,
        root_ord,
        parent_id,
        depth + 1,
        // Clamped: the fragment's own sibling lists are numbered (i+1)*gap.
        renumber_gap(vnode_count(fragment, fragment.root()), gap),
    );
    cost.rows_inserted += db.insert_many("local_node", new_rows)?;
    db.execute(
        &format!(
            "UPDATE {} SET next_id = ? WHERE doc = ?",
            Encoding::Local.docs_table()
        ),
        &[Value::Int(next_id), Value::Int(doc)],
    )?;
    Ok(cost)
}

// ---------------------------------------------------------------------
// Dewey
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn insert_dewey(
    db: &mut Database,
    doc: i64,
    parent: &XNode,
    slot: usize,
    prev: Option<&XNode>,
    next: Option<&XNode>,
    fragment: &Document,
    gap: u64,
) -> StoreResult<UpdateCost> {
    let mut cost = UpdateCost::default();
    let NodeRef::Dewey { key: parent_key } = &parent.node else {
        unreachable!()
    };
    let comp_of = |n: &XNode| match &n.node {
        NodeRef::Dewey { key } => key.last(),
        _ => unreachable!(),
    };
    let a = prev.map(&comp_of).unwrap_or(0);
    let b = next.map(&comp_of);
    let root_comp = match b {
        None => append_comp(a, gap)?,
        Some(b) => match spread_u64(a, b, 1) {
            Some(v) => v[0],
            None => {
                // Renumber the parent's children — and, unlike Local, every
                // renumbered child drags its whole subtree with it, because
                // descendants' keys embed the child's sibling position.
                // Two phases (buffer then reinsert) so moving keys cannot
                // collide with not-yet-moved ones. The gap is clamped so the
                // largest reassigned component fits the numbering range.
                let children = fetch_children(db, Encoding::Dewey, doc, parent)?;
                let gap = renumber_gap(children.len() + 1, gap);
                let mut buffered: Vec<ordxml_rdbms::Row> = Vec::new();
                for (i, child) in children.iter().enumerate() {
                    let slot_shift = usize::from(i >= slot);
                    let target = renumber_value(i + slot_shift, gap) as u64;
                    let NodeRef::Dewey { key: old_key } = &child.node else {
                        unreachable!()
                    };
                    if old_key.last() == target {
                        continue;
                    }
                    let new_key = old_key.with_last(target);
                    // Pull the child's subtree (itself included), rebase
                    // every key, and delete the old rows.
                    let rows = db.query(
                        "SELECT key, depth, kind, tag, value FROM dewey_node \
                         WHERE doc = ? AND key >= ? AND key < ? ORDER BY key",
                        &[
                            Value::Int(doc),
                            Value::Bytes(old_key.to_bytes()),
                            Value::Bytes(old_key.subtree_upper_bound()),
                        ],
                    )?;
                    for row in &rows {
                        let k = DeweyKey::from_bytes(row[0].as_bytes()?)
                            .ok_or_else(|| StoreError::BadNode("corrupt Dewey key".into()))?;
                        let nk = k.rebase(old_key, &new_key);
                        buffered.push(vec![
                            Value::Int(doc),
                            Value::Bytes(nk.to_bytes()),
                            Value::Bytes(nk.parent().map(|p| p.to_bytes()).unwrap_or_default()),
                            row[1].clone(),
                            row[2].clone(),
                            row[3].clone(),
                            row[4].clone(),
                        ]);
                    }
                    db.execute(
                        "DELETE FROM dewey_node WHERE doc = ? AND key >= ? AND key < ?",
                        &[
                            Value::Int(doc),
                            Value::Bytes(old_key.to_bytes()),
                            Value::Bytes(old_key.subtree_upper_bound()),
                        ],
                    )?;
                }
                cost.relabeled += buffered.len() as u64;
                db.insert_many("dewey_node", buffered)?;
                renumber_value(slot, gap) as u64
            }
        },
    };
    let root_key = parent_key.child(root_comp);
    // Clamped: the fragment's own sibling lists are numbered (i+1)*gap.
    let rows = fragment_dewey_rows(
        doc,
        fragment,
        fragment.root(),
        root_key,
        renumber_gap(vnode_count(fragment, fragment.root()), gap),
    );
    cost.rows_inserted += db.insert_many("dewey_node", rows)?;
    Ok(cost)
}

// ---------------------------------------------------------------------
// Move
// ---------------------------------------------------------------------

/// Moves the subtree rooted at `target` to become the `index`-th
/// non-attribute child of `new_parent` (index interpreted against the
/// destination child list *without* the target).
///
/// This is where the encodings differ the most:
///
/// * **Local** — the node id is immutable and descendants reference only
///   their parent id, so a move is **one row update** (plus a depth
///   bookkeeping pass when the node changes level, counted as maintenance).
/// * **Dewey** — every key in the subtree embeds the root-to-node path, so
///   the whole subtree is re-keyed (`relabeled` = subtree size).
/// * **Global** — positions are absolute, so the subtree is deleted and
///   re-inserted with fresh positions (including possible tail shifts at
///   the destination).
pub fn move_subtree(
    db: &mut Database,
    enc: Encoding,
    doc: i64,
    target: &XNode,
    new_parent: &XNode,
    index: usize,
) -> StoreResult<UpdateCost> {
    if !new_parent.is_element() {
        return Err(StoreError::BadNode(
            "move destination must be an element".into(),
        ));
    }
    // Reject cycles: the destination must not lie inside the moved subtree
    // (or be the subtree root itself).
    let cyclic = match (&target.node, &new_parent.node) {
        (NodeRef::Global { pos, desc_max, .. }, NodeRef::Global { pos: p, .. }) => {
            *p >= *pos && *p <= *desc_max
        }
        (NodeRef::Dewey { key }, NodeRef::Dewey { key: pk }) => key.is_prefix_of(pk),
        (
            NodeRef::Local { id, .. },
            NodeRef::Local {
                id: pid, parent, ..
            },
        ) => {
            if pid == id {
                true
            } else {
                // Climb from the destination looking for the target.
                let mut cur = *parent;
                let mut found = false;
                while cur != NO_PARENT {
                    if cur == *id {
                        found = true;
                        break;
                    }
                    let rows = db.query(
                        "SELECT parent_id FROM local_node WHERE doc = ? AND id = ?",
                        &[Value::Int(doc), Value::Int(cur)],
                    )?;
                    match rows.first() {
                        Some(r) => cur = r[0].as_int()?,
                        None => break,
                    }
                }
                found
            }
        }
        _ => unreachable!("mixed encodings in one move"),
    };
    if cyclic {
        return Err(StoreError::BadNode(
            "cannot move a subtree into itself".into(),
        ));
    }
    match (&target.node, &new_parent.node) {
        (
            NodeRef::Local { id, depth, .. },
            NodeRef::Local {
                id: dest_id,
                depth: dest_depth,
                ..
            },
        ) => {
            let mut cost = UpdateCost::default();
            let gap = doc_gap(db, enc, doc)?;
            // Destination child list, with the target excluded (it may
            // already be a child of the destination).
            let children: Vec<XNode> = fetch_children(db, enc, doc, new_parent)?
                .into_iter()
                .filter(|c| !matches!(&c.node, NodeRef::Local { id: cid, .. } if cid == id))
                .collect();
            let n_attrs = children.iter().filter(|c| c.kind == KIND_ATTR).count();
            let non_attr: Vec<&XNode> = children.iter().filter(|c| c.kind != KIND_ATTR).collect();
            let index = index.min(non_attr.len());
            let ord_of = |n: &XNode| match &n.node {
                NodeRef::Local { ord, .. } => *ord,
                _ => unreachable!(),
            };
            let a = if index == 0 {
                children
                    .get(n_attrs.wrapping_sub(1).min(children.len()))
                    .filter(|_| n_attrs > 0)
                    .map(&ord_of)
                    .unwrap_or(0)
            } else {
                ord_of(non_attr[index - 1])
            };
            let b = non_attr.get(index).map(|n| ord_of(n));
            let new_ord = match b {
                None => append_pos(a, gap)?,
                Some(b) => match spread(a, b, 1) {
                    Some(v) => v[0],
                    None => {
                        // Renumber destination siblings (gap clamped as in
                        // `insert_local`).
                        let gap = renumber_gap(children.len() + 1, gap);
                        let slot = n_attrs + index;
                        for (i, child) in children.iter().enumerate() {
                            let shift = usize::from(i >= slot);
                            let t = renumber_value(i + shift, gap);
                            if ord_of(child) != t {
                                let NodeRef::Local { id: cid, .. } = &child.node else {
                                    unreachable!()
                                };
                                cost.relabeled += db.execute(
                                    "UPDATE local_node SET ord = ? WHERE doc = ? AND id = ?",
                                    &[Value::Int(t), Value::Int(doc), Value::Int(*cid)],
                                )?;
                            }
                        }
                        renumber_value(slot, gap)
                    }
                },
            };
            // The move itself: one row.
            cost.relabeled += db.execute(
                "UPDATE local_node SET parent_id = ?, ord = ? WHERE doc = ? AND id = ?",
                &[
                    Value::Int(*dest_id),
                    Value::Int(new_ord),
                    Value::Int(doc),
                    Value::Int(*id),
                ],
            )?;
            // Depth bookkeeping when the node changed level.
            let delta = dest_depth + 1 - depth;
            if delta != 0 {
                let mut frontier = vec![*id];
                while let Some(cur) = frontier.pop() {
                    cost.maintenance += db.execute(
                        "UPDATE local_node SET depth = depth + ? WHERE doc = ? AND id = ?",
                        &[Value::Int(delta), Value::Int(doc), Value::Int(cur)],
                    )?;
                    let rows = db.query(
                        "SELECT id FROM local_node WHERE doc = ? AND parent_id = ?",
                        &[Value::Int(doc), Value::Int(cur)],
                    )?;
                    for r in rows {
                        frontier.push(r[0].as_int()?);
                    }
                }
                // The moved node itself was already counted in `relabeled`.
                cost.maintenance -= 1;
            }
            Ok(cost)
        }
        _ => {
            // Global and Dewey: the subtree's keys embed absolute/ancestor
            // information, so a move rewrites the subtree — reconstruct it,
            // delete the old rows, and insert at the destination. The
            // destination path is computed *before* the deletion shifts
            // nothing (deletion never relabels), so the order is safe.
            let fragment = crate::reconstruct::subtree_document(db, enc, doc, target)?;
            let mut cost = delete_subtree(db, enc, doc, target)?;
            // Re-resolve the destination: under Global its desc_max may have
            // been tightened by the deletion's interval maintenance.
            let parent_fresh = refetch(db, enc, doc, new_parent)?;
            let ins = insert_fragment(db, enc, doc, &parent_fresh, index, &fragment)?;
            // A move is a relabel of the subtree, not churn: fold the
            // delete+insert row traffic into `relabeled`.
            cost.relabeled += cost.rows_deleted.max(ins.rows_inserted);
            cost.relabeled += ins.relabeled;
            cost.maintenance += ins.maintenance;
            cost.rows_deleted = 0;
            Ok(cost)
        }
    }
}

/// Re-reads a node's current row by identity (used after structural
/// operations that may have changed its auxiliary columns).
fn refetch(db: &mut Database, enc: Encoding, doc: i64, node: &XNode) -> StoreResult<XNode> {
    let (sql, params) = match &node.node {
        NodeRef::Global { pos, .. } => (
            format!(
                "SELECT {} FROM global_node n WHERE n.doc = ? AND n.pos = ?",
                select_list(enc, "n")
            ),
            vec![Value::Int(doc), Value::Int(*pos)],
        ),
        NodeRef::Local { id, .. } => (
            format!(
                "SELECT {} FROM local_node n WHERE n.doc = ? AND n.id = ?",
                select_list(enc, "n")
            ),
            vec![Value::Int(doc), Value::Int(*id)],
        ),
        NodeRef::Dewey { key } => (
            format!(
                "SELECT {} FROM dewey_node n WHERE n.doc = ? AND n.key = ?",
                select_list(enc, "n")
            ),
            vec![Value::Int(doc), Value::Bytes(key.to_bytes())],
        ),
    };
    let rows = db.query(&sql, &params)?;
    let row = rows
        .first()
        .ok_or_else(|| StoreError::BadNode("node vanished during an update".into()))?;
    decode_node_row(enc, doc, row)
}

// ---------------------------------------------------------------------
// Delete / text update
// ---------------------------------------------------------------------

/// Deletes the subtree rooted at `target` (the node itself included).
pub fn delete_subtree(
    db: &mut Database,
    _enc: Encoding,
    doc: i64,
    target: &XNode,
) -> StoreResult<UpdateCost> {
    let mut cost = UpdateCost::default();
    match &target.node {
        NodeRef::Global {
            pos,
            desc_max,
            parent,
            ..
        } => {
            // One interval delete...
            cost.rows_deleted += db.execute(
                "DELETE FROM global_node WHERE doc = ? AND pos >= ? AND pos <= ?",
                &[Value::Int(doc), Value::Int(*pos), Value::Int(*desc_max)],
            )?;
            // ...plus interval maintenance: ancestors whose subtree *ended*
            // inside the deleted range get their `desc_max` tightened to the
            // real subtree end. Insertion boundaries are derived from
            // `desc_max`, so tightening recycles the freed position range as
            // usable gap (and keeps the interval tests exact rather than
            // merely conservative). Climb while the ancestor's bound lies in
            // the deleted range.
            let mut cur = *parent;
            while cur != NO_PARENT {
                let rows = db.query(
                    "SELECT parent_pos, desc_max FROM global_node WHERE doc = ? AND pos = ?",
                    &[Value::Int(doc), Value::Int(cur)],
                )?;
                let Some(row) = rows.first() else { break };
                let anc_parent = row[0].as_int()?;
                let anc_max = row[1].as_int()?;
                if anc_max > *desc_max {
                    break; // this ancestor still has content after the hole
                }
                // Exact new bound: the last remaining child's subtree end,
                // or the ancestor itself when it became a leaf.
                let last = db.query(
                    "SELECT desc_max FROM global_node \
                     WHERE doc = ? AND parent_pos = ? ORDER BY pos DESC LIMIT 1",
                    &[Value::Int(doc), Value::Int(cur)],
                )?;
                let new_max = match last.first() {
                    Some(r) => r[0].as_int()?.max(cur),
                    None => cur,
                };
                cost.maintenance += db.execute(
                    "UPDATE global_node SET desc_max = ? WHERE doc = ? AND pos = ?",
                    &[Value::Int(new_max), Value::Int(doc), Value::Int(cur)],
                )?;
                cur = anc_parent;
            }
        }
        NodeRef::Dewey { key } => {
            // One prefix-range delete.
            cost.rows_deleted += db.execute(
                "DELETE FROM dewey_node WHERE doc = ? AND key >= ? AND key < ?",
                &[
                    Value::Int(doc),
                    Value::Bytes(key.to_bytes()),
                    Value::Bytes(key.subtree_upper_bound()),
                ],
            )?;
        }
        NodeRef::Local { id, .. } => {
            // Collect the subtree by per-node child queries, then delete.
            let mut ids = vec![*id];
            let mut frontier = vec![*id];
            while let Some(cur) = frontier.pop() {
                let rows = db.query(
                    "SELECT id FROM local_node WHERE doc = ? AND parent_id = ?",
                    &[Value::Int(doc), Value::Int(cur)],
                )?;
                for r in rows {
                    let child = r[0].as_int()?;
                    ids.push(child);
                    frontier.push(child);
                }
            }
            for id in ids {
                cost.rows_deleted += db.execute(
                    "DELETE FROM local_node WHERE doc = ? AND id = ?",
                    &[Value::Int(doc), Value::Int(id)],
                )?;
            }
        }
    }
    Ok(cost)
}

/// Replaces the value of a text node (no renumbering under any encoding —
/// order keys are untouched).
pub fn update_text(
    db: &mut Database,
    _enc: Encoding,
    doc: i64,
    target: &XNode,
    text: &str,
) -> StoreResult<UpdateCost> {
    if target.kind != KIND_TEXT {
        return Err(StoreError::BadNode(
            "update_text targets a text node".into(),
        ));
    }
    let n = match &target.node {
        NodeRef::Global { pos, .. } => db.execute(
            "UPDATE global_node SET value = ? WHERE doc = ? AND pos = ?",
            &[Value::text(text), Value::Int(doc), Value::Int(*pos)],
        )?,
        NodeRef::Local { id, .. } => db.execute(
            "UPDATE local_node SET value = ? WHERE doc = ? AND id = ?",
            &[Value::text(text), Value::Int(doc), Value::Int(*id)],
        )?,
        NodeRef::Dewey { key } => db.execute(
            "UPDATE dewey_node SET value = ? WHERE doc = ? AND key = ?",
            &[
                Value::text(text),
                Value::Int(doc),
                Value::Bytes(key.to_bytes()),
            ],
        )?,
    };
    Ok(UpdateCost {
        maintenance: n,
        ..UpdateCost::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::OrderConfig;
    use crate::store::XmlStore;
    use ordxml_xml::{parse as parse_xml, NodePath};

    fn store_with(enc: Encoding, xml: &str, gap: u64) -> (XmlStore, i64) {
        let s = XmlStore::new(Database::in_memory(), enc);
        let d = s
            .load_document_with(&parse_xml(xml).unwrap(), "t", OrderConfig::with_gap(gap))
            .unwrap();
        (s, d)
    }

    #[test]
    fn insert_into_empty_parent() {
        for enc in Encoding::all() {
            let (s, d) = store_with(enc, "<r><empty/></r>", 4);
            let frag = parse_xml("<x>v</x>").unwrap();
            let cost = s.insert_fragment(d, &NodePath(vec![0]), 0, &frag).unwrap();
            assert_eq!(cost.rows_inserted, 2, "{enc}");
            assert_eq!(cost.relabeled, 0, "{enc}: empty parent needs no relabel");
            assert_eq!(
                s.reconstruct_document(d).unwrap().to_xml(),
                "<r><empty><x>v</x></empty></r>",
                "{enc}"
            );
        }
    }

    #[test]
    fn insert_before_attrs_goes_after_them() {
        // Index 0 means "first non-attribute child": attributes keep their
        // leading order positions.
        for enc in Encoding::all() {
            let (s, d) = store_with(enc, "<r a=\"1\" b=\"2\"><old/></r>", 4);
            let frag = parse_xml("<new/>").unwrap();
            s.insert_fragment(d, &NodePath(vec![]), 0, &frag).unwrap();
            let rebuilt = s.reconstruct_document(d).unwrap();
            assert_eq!(
                rebuilt.to_xml(),
                "<r a=\"1\" b=\"2\"><new/><old/></r>",
                "{enc}"
            );
        }
    }

    #[test]
    fn out_of_range_index_appends() {
        for enc in Encoding::all() {
            let (s, d) = store_with(enc, "<r><a/></r>", 4);
            let frag = parse_xml("<z/>").unwrap();
            s.insert_fragment(d, &NodePath(vec![]), 42, &frag).unwrap();
            assert_eq!(
                s.reconstruct_document(d).unwrap().to_xml(),
                "<r><a/><z/></r>",
                "{enc}"
            );
        }
    }

    #[test]
    fn insert_parent_must_be_element() {
        for enc in Encoding::all() {
            let (s, d) = store_with(enc, "<r>text</r>", 4);
            let frag = parse_xml("<z/>").unwrap();
            // Path /0 is the text node.
            let err = s.insert_fragment(d, &NodePath(vec![0]), 0, &frag);
            assert!(matches!(err, Err(StoreError::BadNode(_))), "{enc}");
        }
    }

    #[test]
    fn update_text_rejects_non_text_targets() {
        for enc in Encoding::all() {
            let (s, d) = store_with(enc, "<r><a/></r>", 4);
            assert!(s.update_text(d, &NodePath(vec![0]), "x").is_err(), "{enc}");
        }
    }

    #[test]
    fn delete_costs_equal_subtree_size() {
        for enc in Encoding::all() {
            let (s, d) = store_with(enc, "<r><a k=\"v\"><b>t</b><c/></a><z/></r>", 4);
            let cost = s.delete_subtree(d, &NodePath(vec![0])).unwrap();
            // a, @k, b, "t", c = 5 rows.
            assert_eq!(cost.rows_deleted, 5, "{enc}");
            assert_eq!(cost.relabeled, 0, "{enc}: deletion never relabels");
            assert_eq!(
                s.reconstruct_document(d).unwrap().to_xml(),
                "<r><z/></r>",
                "{enc}"
            );
        }
    }

    #[test]
    fn local_renumber_touches_only_siblings() {
        let (s, d) = store_with(
            Encoding::Local,
            "<r><a><x/><x/><x/></a><b><x/><x/><x/></b></r>",
            1,
        );
        let frag = parse_xml("<n/>").unwrap();
        // Insert at the front of <a>: only a's children relabel.
        let cost = s.insert_fragment(d, &NodePath(vec![0]), 0, &frag).unwrap();
        assert_eq!(cost.relabeled, 3);
    }

    #[test]
    fn dewey_renumber_drags_subtrees() {
        let (s, d) = store_with(
            Encoding::Dewey,
            "<r><a><deep><deeper/></deep></a><b/></r>",
            1,
        );
        let frag = parse_xml("<n/>").unwrap();
        // Front insert: both children of <r> relabel; <a>'s subtree (3 rows)
        // comes along, <b> is one row.
        let cost = s.insert_fragment(d, &NodePath(vec![]), 0, &frag).unwrap();
        assert_eq!(cost.relabeled, 4);
        assert_eq!(
            s.reconstruct_document(d).unwrap().to_xml(),
            "<r><n/><a><deep><deeper/></deep></a><b/></r>"
        );
    }

    #[test]
    fn global_append_is_cheap_even_when_dense() {
        let (s, d) = store_with(Encoding::Global, "<r><a/><b/><c/></r>", 1);
        let frag = parse_xml("<z/>").unwrap();
        let cost = s
            .insert_fragment(d, &NodePath(vec![]), usize::MAX, &frag)
            .unwrap();
        assert_eq!(cost.relabeled, 0, "nothing follows an append");
        // Only the ancestor interval bound extends.
        assert!(cost.maintenance <= 1, "{cost:?}");
    }

    #[test]
    fn repeated_midpoint_inserts_eventually_renumber() {
        for enc in Encoding::all() {
            let (s, d) = store_with(enc, "<r><a/><b/></r>", 8);
            let frag = parse_xml("<m/>").unwrap();
            let mut total = UpdateCost::default();
            for _ in 0..6 {
                // Always insert between the first two children: the gap
                // halves each time and must eventually run out.
                total.add(s.insert_fragment(d, &NodePath(vec![]), 1, &frag).unwrap());
            }
            assert!(
                total.relabeled > 0,
                "{enc}: gap of 8 absorbs at most 3 halvings"
            );
            assert_eq!(s.xpath(d, "/r/m").unwrap().len(), 6, "{enc}");
        }
    }

    #[test]
    fn move_subtree_relocates_content() {
        let xml = "<r><a><deep>t</deep></a><b/><c><d/></c></r>";
        for enc in Encoding::all() {
            let (s, d) = store_with(enc, xml, 8);
            // Move <a> (with its subtree) to become the last child of <c>.
            let cost = s
                .move_subtree(d, &NodePath(vec![0]), &NodePath(vec![2]), 99)
                .unwrap();
            assert_eq!(
                s.reconstruct_document(d).unwrap().to_xml(),
                "<r><b/><c><d/><a><deep>t</deep></a></c></r>",
                "{enc}"
            );
            // Queries find the moved content at its new place.
            assert_eq!(s.xpath(d, "/r/c/a/deep").unwrap().len(), 1, "{enc}");
            assert_eq!(s.xpath(d, "//deep/ancestor::c").unwrap().len(), 1, "{enc}");
            assert!(
                cost.rows_deleted == 0,
                "{enc}: moves do not delete: {cost:?}"
            );
            match enc {
                // Local: one ord/parent update (plus depth bookkeeping).
                Encoding::Local => {
                    assert_eq!(cost.relabeled, 1, "{enc}: {cost:?}");
                    assert_eq!(cost.maintenance, 2, "{enc}: subtree depth fix: {cost:?}");
                }
                // Global/Dewey: the whole 3-row subtree is rewritten.
                _ => assert!(cost.relabeled >= 3, "{enc}: {cost:?}"),
            }
        }
    }

    #[test]
    fn move_within_same_parent_reorders() {
        for enc in Encoding::all() {
            let (s, d) = store_with(enc, "<r><a/><b/><c/></r>", 8);
            // Move <c> to the front.
            s.move_subtree(d, &NodePath(vec![2]), &NodePath(vec![]), 0)
                .unwrap();
            assert_eq!(
                s.reconstruct_document(d).unwrap().to_xml(),
                "<r><c/><a/><b/></r>",
                "{enc}"
            );
            // And back past the others.
            s.move_subtree(d, &NodePath(vec![0]), &NodePath(vec![]), 2)
                .unwrap();
            assert_eq!(
                s.reconstruct_document(d).unwrap().to_xml(),
                "<r><a/><b/><c/></r>",
                "{enc}"
            );
        }
    }

    #[test]
    fn move_rejects_cycles_and_bad_targets() {
        for enc in Encoding::all() {
            let (s, d) = store_with(enc, "<r><a><b/></a><z/></r>", 8);
            // Into a strict descendant.
            assert!(
                matches!(
                    s.move_subtree(d, &NodePath(vec![0]), &NodePath(vec![0, 0]), 0),
                    Err(StoreError::BadNode(_))
                ),
                "{enc}"
            );
            // Onto itself.
            assert!(
                matches!(
                    s.move_subtree(d, &NodePath(vec![0]), &NodePath(vec![0]), 0),
                    Err(StoreError::BadNode(_))
                ),
                "{enc}"
            );
            // Destination must be an element: <z/> has no text child, so
            // aim at a text node via a fresh doc.
            let (s2, d2) = store_with(enc, "<r>text<a/></r>", 8);
            assert!(
                matches!(
                    s2.move_subtree(d2, &NodePath(vec![1]), &NodePath(vec![0]), 0),
                    Err(StoreError::BadNode(_))
                ),
                "{enc}"
            );
        }
    }

    /// Appends fragments until the store reports order-key exhaustion,
    /// asserting every intermediate document stays well-formed. Returns how
    /// many appends succeeded.
    fn append_until_exhausted(s: &XmlStore, d: i64, limit: usize) -> usize {
        let frag = parse_xml("<z/>").unwrap();
        for i in 0..limit {
            match s.insert_fragment(d, &NodePath(vec![]), usize::MAX, &frag) {
                Ok(_) => {}
                Err(StoreError::BadNode(m)) => {
                    assert!(m.contains("exhausted"), "unexpected message: {m}");
                    return i;
                }
                Err(e) => panic!("unexpected error class: {e}"),
            }
        }
        limit
    }

    #[test]
    fn global_append_near_i64_boundary() {
        // Positions land near i64::MAX; the naive `a + gap` append overflows
        // (a debug-mode panic, silent wrap in release). The fallback spreads
        // into the remaining space and then fails with a typed error.
        let g = i64::MAX as u64 / 2 - 10;
        let (s, d) = store_with(Encoding::Global, "<r><a/></r>", g);
        let frag = parse_xml("<z/>").unwrap();
        s.insert_fragment(d, &NodePath(vec![]), usize::MAX, &frag)
            .unwrap();
        assert_eq!(
            s.reconstruct_document(d).unwrap().to_xml(),
            "<r><a/><z/></r>"
        );
        let ok = append_until_exhausted(&s, d, 64);
        assert!(ok < 64, "finite space above i64::MAX/2 must run out");
        // The store is still coherent after the refusal.
        assert!(!s.xpath(d, "/r/z").unwrap().is_empty());
    }

    #[test]
    fn local_append_near_i64_boundary() {
        let g = i64::MAX as u64 / 2 - 5;
        let (s, d) = store_with(Encoding::Local, "<r><a/><b/></r>", g);
        let frag = parse_xml("<z/>").unwrap();
        // ord(b) = 2g ≈ i64::MAX: appending with `ord + gap` overflows.
        s.insert_fragment(d, &NodePath(vec![]), usize::MAX, &frag)
            .unwrap();
        assert_eq!(
            s.reconstruct_document(d).unwrap().to_xml(),
            "<r><a/><b/><z/></r>"
        );
        let ok = append_until_exhausted(&s, d, 64);
        assert!(ok < 64);
        assert_eq!(s.xpath(d, "/r/a").unwrap().len(), 1);
    }

    #[test]
    fn dewey_append_near_u64_boundary() {
        let g = u64::MAX / 2 - 5;
        let (s, d) = store_with(Encoding::Dewey, "<r><a/><b/></r>", g);
        let frag = parse_xml("<z/>").unwrap();
        // comp(b) = 2g ≈ u64::MAX: appending with `comp + gap` overflows.
        s.insert_fragment(d, &NodePath(vec![]), usize::MAX, &frag)
            .unwrap();
        assert_eq!(
            s.reconstruct_document(d).unwrap().to_xml(),
            "<r><a/><b/><z/></r>"
        );
        let ok = append_until_exhausted(&s, d, 80);
        assert!(ok < 80);
        assert_eq!(s.xpath(d, "/r/b").unwrap().len(), 1);
    }

    #[test]
    fn global_tail_shift_near_i64_boundary_is_clamped() {
        // Repeated midpoint insertions with a huge gap converge the interval
        // between the last two children until the tail must shift. Near
        // i64::MAX the unclamped shift delta `(k+1)*gap` and the shifted
        // keys themselves would overflow; the clamp shifts by the remaining
        // headroom, and once even that is gone the insert fails typed.
        // Load-time clamping caps the gap at i64::MAX/5 for this 3-node
        // document, so exhaustion takes two ~61-step halving runs (the
        // second after a tail shift consumes the whole headroom).
        let g = i64::MAX as u64 / 3 - 7;
        let (s, d) = store_with(Encoding::Global, "<r><a/><b/></r>", g);
        let frag = parse_xml("<m/>").unwrap();
        let mut refused = false;
        for _ in 0..160 {
            // Always between the last <m> (or <a>) and <b>.
            let kids = s.xpath(d, "/r/*").unwrap().len();
            match s.insert_fragment(d, &NodePath(vec![]), kids - 1, &frag) {
                Ok(_) => {}
                Err(StoreError::BadNode(m)) => {
                    assert!(m.contains("exhausted"), "{m}");
                    refused = true;
                    break;
                }
                Err(e) => panic!("unexpected error class: {e}"),
            }
        }
        assert!(refused, "position space next to i64::MAX must run out");
        // Consistency: <b> is still the last child and queries still work.
        let doc = s.reconstruct_document(d).unwrap().to_xml();
        assert!(
            doc.starts_with("<r><a/>") && doc.ends_with("<b/></r>"),
            "{doc}"
        );
        // The offline renumber pass recovers the document.
        s.renumber_document(d).unwrap();
        s.insert_fragment(d, &NodePath(vec![]), 1, &frag).unwrap();
    }

    #[test]
    fn renumber_with_huge_gap_clamps_instead_of_wrapping() {
        // Exhaust the sibling gap under Local/Dewey with a near-i64::MAX
        // document gap: the renumber pass must clamp the gap instead of
        // wrapping `(i+1)*gap` into colliding (or negative) order keys.
        for enc in [Encoding::Local, Encoding::Dewey] {
            let g = i64::MAX as u64 / 2 - 5;
            let (s, d) = store_with(enc, "<r><a/><b/></r>", g);
            let frag = parse_xml("<m/>").unwrap();
            for _ in 0..70 {
                // Between <a> and the previously inserted node: the interval
                // halves every time and must eventually trigger a renumber.
                if let Err(e) = s.insert_fragment(d, &NodePath(vec![]), 1, &frag) {
                    panic!("{enc}: renumber should absorb the insert: {e}");
                }
            }
            assert_eq!(s.xpath(d, "/r/m").unwrap().len(), 70, "{enc}");
            let doc = s.reconstruct_document(d).unwrap().to_xml();
            assert!(doc.starts_with("<r><a/><m/>"), "{enc}: {doc}");
            assert!(doc.ends_with("<b/></r>"), "{enc}: {doc}");
        }
    }

    #[test]
    fn update_cost_accumulates() {
        let mut a = UpdateCost {
            rows_inserted: 1,
            rows_deleted: 2,
            relabeled: 3,
            maintenance: 4,
        };
        a.add(UpdateCost {
            rows_inserted: 10,
            rows_deleted: 20,
            relabeled: 30,
            maintenance: 40,
        });
        assert_eq!(a.total(), 11 + 22 + 33 + 44);
    }
}
