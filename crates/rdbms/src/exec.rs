//! Plan execution.
//!
//! The executor is operator-at-a-time: every node materializes its output
//! rows (MonetDB-style), which keeps correlated-subquery and join logic
//! simple and auditable. For the translated-XPath workload this is the right
//! trade-off — the interesting costs are index traffic and row counts, which
//! are reported through [`ExecStats`].
//!
//! Index bounds are evaluated per outer row, so a bound index access under a
//! [`Node::Join`] *is* the index-nested-loop join.

use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use crate::expr::{eval, EvalContext, Expr};
use crate::plan::{Access, AccessPath, AggCall, AggFunc, Node, SelectPlan};
use crate::storage::Pager;
use crate::value::{decode_range_batch, encode_key, encode_key_value, Row, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Bound;
use std::time::{Duration, Instant};

/// Per-statement execution counters. These are the engine-level cost metrics
/// the benchmark harness reports alongside wall-clock times.
///
/// The first six counters are maintained directly by the executor; the
/// buffer-pool (`pages_*`, `cache_*`, `evictions`) and B+tree (`btree_*`)
/// counters are folded in per statement by [`crate::Database::run`] from the
/// pager and index-tree deltas observed across the statement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows fetched from heap storage.
    pub rows_scanned: u64,
    /// Index range scans opened.
    pub index_scans: u64,
    /// Row ids returned by index scans.
    pub index_rows: u64,
    /// Rows passed through sort operators.
    pub rows_sorted: u64,
    /// Correlated/scalar subquery executions.
    pub subquery_evals: u64,
    /// Rows written (INSERT + UPDATE + DELETE).
    pub rows_written: u64,
    /// Logical page reads (every page access, cached or not).
    pub pages_read: u64,
    /// Page reads served from memory (`pages_read - cache_misses`).
    pub cache_hits: u64,
    /// Page reads that went to the backing file (always 0 in memory mode).
    pub cache_misses: u64,
    /// Pages written to the backing file (always 0 in memory mode).
    pub pages_written: u64,
    /// Buffer-pool frames evicted (always 0 in memory mode).
    pub evictions: u64,
    /// B+tree root-to-leaf descents (lookups, writes, range-scan seeks).
    pub btree_descents: u64,
    /// B+tree range positionings that reused the previous range's finger
    /// (a short leaf walk) instead of descending from the root.
    pub btree_descent_reuses: u64,
    /// B+tree leaf nodes visited by range scans.
    pub btree_leaf_scans: u64,
    /// B+tree node splits triggered by index maintenance.
    pub btree_splits: u64,
    /// Physical page reads retried after an I/O error or checksum mismatch
    /// (folded in from the pager; always 0 in memory mode).
    pub read_retries: u64,
    /// Statements that tripped their deadline ([`crate::DbError::Timeout`]).
    /// Only ever non-zero in cumulative totals — a timed-out statement
    /// returns no per-statement stats.
    pub queries_timed_out: u64,
    /// Statements canceled via the shared cancel flag
    /// ([`crate::DbError::Canceled`]). Cumulative-only, like
    /// `queries_timed_out`.
    pub queries_canceled: u64,
}

impl ExecStats {
    /// Adds another stats snapshot into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.index_scans += other.index_scans;
        self.index_rows += other.index_rows;
        self.rows_sorted += other.rows_sorted;
        self.subquery_evals += other.subquery_evals;
        self.rows_written += other.rows_written;
        self.pages_read += other.pages_read;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.pages_written += other.pages_written;
        self.evictions += other.evictions;
        self.btree_descents += other.btree_descents;
        self.btree_descent_reuses += other.btree_descent_reuses;
        self.btree_leaf_scans += other.btree_leaf_scans;
        self.btree_splits += other.btree_splits;
        self.read_retries += other.read_retries;
        self.queries_timed_out += other.queries_timed_out;
        self.queries_canceled += other.queries_canceled;
    }
}

/// A thread-safe accumulation cell for [`ExecStats`]: eighteen relaxed
/// atomics, one per counter. [`crate::Database`] keeps its cumulative
/// per-database totals in one of these so that concurrent readers merging
/// their statement stats never serialize on a mutex (the totals latch used
/// to be the last lock on the shared-read path).
#[derive(Debug, Default)]
pub struct SharedExecStats {
    cells: [std::sync::atomic::AtomicU64; 18],
}

impl SharedExecStats {
    /// Adds `stats` into the totals.
    pub fn merge(&self, stats: &ExecStats) {
        use std::sync::atomic::Ordering;
        for (cell, v) in self.cells.iter().zip(Self::unpack(stats)) {
            if v > 0 {
                cell.fetch_add(v, Ordering::Relaxed);
            }
        }
    }

    /// A plain-value copy of the totals.
    pub fn snapshot(&self) -> ExecStats {
        use std::sync::atomic::Ordering;
        let mut vals = [0u64; 18];
        for (v, cell) in vals.iter_mut().zip(self.cells.iter()) {
            *v = cell.load(Ordering::Relaxed);
        }
        Self::pack(vals)
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        use std::sync::atomic::Ordering;
        for cell in &self.cells {
            cell.store(0, Ordering::Relaxed);
        }
    }

    fn unpack(s: &ExecStats) -> [u64; 18] {
        [
            s.rows_scanned,
            s.index_scans,
            s.index_rows,
            s.rows_sorted,
            s.subquery_evals,
            s.rows_written,
            s.pages_read,
            s.cache_hits,
            s.cache_misses,
            s.pages_written,
            s.evictions,
            s.btree_descents,
            s.btree_descent_reuses,
            s.btree_leaf_scans,
            s.btree_splits,
            s.read_retries,
            s.queries_timed_out,
            s.queries_canceled,
        ]
    }

    fn pack(v: [u64; 18]) -> ExecStats {
        ExecStats {
            rows_scanned: v[0],
            index_scans: v[1],
            index_rows: v[2],
            rows_sorted: v[3],
            subquery_evals: v[4],
            rows_written: v[5],
            pages_read: v[6],
            cache_hits: v[7],
            cache_misses: v[8],
            pages_written: v[9],
            evictions: v[10],
            btree_descents: v[11],
            btree_descent_reuses: v[12],
            btree_leaf_scans: v[13],
            btree_splits: v[14],
            read_retries: v[15],
            queries_timed_out: v[16],
            queries_canceled: v[17],
        }
    }
}

/// Per-operator runtime profile collected under `EXPLAIN ANALYZE`.
///
/// `elapsed` is *inclusive* of the operator's children (the executor is
/// operator-at-a-time, so a parent's timer spans its children's full
/// materialization).
#[derive(Debug, Default, Clone, Copy)]
pub struct OpProfile {
    /// Times the operator ran (> 1 under nested-loop re-execution).
    pub invocations: u64,
    /// Total rows the operator produced across all invocations.
    pub rows_out: u64,
    /// Total wall-clock time, inclusive of children.
    pub elapsed: Duration,
}

/// Collects [`OpProfile`]s during an `EXPLAIN ANALYZE` run, keyed by plan
/// node identity (the address of the [`Node`] within the executed plan — the
/// renderer must walk the *same* plan value).
#[derive(Debug, Default)]
pub struct Profiler {
    ops: HashMap<usize, OpProfile>,
}

impl Profiler {
    /// The collected profile for `node`, if it ran.
    pub fn get(&self, node: &Node) -> Option<OpProfile> {
        self.ops.get(&(node as *const Node as usize)).copied()
    }
}

/// Everything a plan needs to run.
pub struct Env<'a> {
    /// Table catalog.
    pub catalog: &'a Catalog,
    /// Page storage.
    pub pager: &'a Pager,
    /// Statement parameters (`?` values).
    pub params: &'a [Value],
    /// Per-operator profiler, set only under `EXPLAIN ANALYZE`.
    pub prof: Option<&'a RefCell<Profiler>>,
}

/// Runs a planned `SELECT`, returning its rows. `outer` is the correlated
/// row when the plan is a subquery.
pub fn run_select(
    env: &Env<'_>,
    stats: &mut ExecStats,
    plan: &SelectPlan,
    outer: Option<&[Value]>,
) -> DbResult<Vec<Row>> {
    run_node(env, stats, &plan.subplans, &plan.root, outer)
}

/// Stable trace-span name for a plan operator.
fn op_name(node: &Node) -> &'static str {
    match node {
        Node::OneRow => "op.one_row",
        Node::Scan(_) => "op.scan",
        Node::Join { .. } => "op.join",
        Node::Filter { .. } => "op.filter",
        Node::Aggregate { .. } => "op.aggregate",
        Node::Sort { .. } => "op.sort",
        Node::Project { .. } => "op.project",
        Node::Distinct { .. } => "op.distinct",
        Node::Limit { .. } => "op.limit",
    }
}

fn run_node(
    env: &Env<'_>,
    stats: &mut ExecStats,
    subplans: &[SelectPlan],
    node: &Node,
    outer: Option<&[Value]>,
) -> DbResult<Vec<Row>> {
    let _span = crate::trace::span(op_name(node));
    let Some(prof) = env.prof else {
        return run_node_inner(env, stats, subplans, node, outer);
    };
    let start = Instant::now();
    let result = run_node_inner(env, stats, subplans, node, outer);
    let elapsed = start.elapsed();
    let mut prof = prof.borrow_mut();
    let op = prof.ops.entry(node as *const Node as usize).or_default();
    op.invocations += 1;
    op.elapsed += elapsed;
    if let Ok(rows) = &result {
        op.rows_out += rows.len() as u64;
    }
    result
}

fn run_node_inner(
    env: &Env<'_>,
    stats: &mut ExecStats,
    subplans: &[SelectPlan],
    node: &Node,
    outer: Option<&[Value]>,
) -> DbResult<Vec<Row>> {
    match node {
        Node::OneRow => Ok(vec![Vec::new()]),
        Node::Scan(access) => run_access(env, stats, subplans, access, &[], outer),
        Node::Filter { input, pred } => {
            let rows = run_node(env, stats, subplans, input, outer)?;
            let mut out = Vec::new();
            for row in rows {
                crate::governance::checkpoint(1)?;
                let keep = {
                    let mut ctx = Ctx {
                        env,
                        stats,
                        subplans,
                        row: &row,
                        outer,
                    };
                    eval(pred, &mut ctx)?.is_true()
                };
                if keep {
                    out.push(row);
                }
            }
            Ok(out)
        }
        Node::Join {
            left,
            right,
            residual,
            hash_keys,
        } => {
            let left_rows = run_node(env, stats, subplans, left, outer)?;
            if let Some((lk, rk)) = hash_keys {
                return run_hash_join(
                    env,
                    stats,
                    subplans,
                    left_rows,
                    right,
                    lk,
                    rk,
                    residual.as_ref(),
                    outer,
                );
            }
            let mut out = Vec::new();
            // Cache full-scan inners: scanning the heap once per outer row
            // would be quadratic in I/O for plain nested loops.
            let cached_inner = if right.path == AccessPath::FullScan {
                Some(run_access(env, stats, subplans, right, &[], outer)?)
            } else {
                None
            };
            for lrow in left_rows {
                crate::governance::checkpoint(1)?;
                let rrows = match &cached_inner {
                    Some(c) => c.clone(),
                    None => run_access(env, stats, subplans, right, &lrow, outer)?,
                };
                for rrow in rrows {
                    crate::governance::checkpoint(1)?;
                    let mut combined = lrow.clone();
                    combined.extend(rrow);
                    let keep = match residual {
                        None => true,
                        Some(pred) => {
                            let mut ctx = Ctx {
                                env,
                                stats,
                                subplans,
                                row: &combined,
                                outer,
                            };
                            eval(pred, &mut ctx)?.is_true()
                        }
                    };
                    if keep {
                        out.push(combined);
                    }
                }
            }
            Ok(out)
        }
        Node::Aggregate {
            input,
            group_by,
            aggs,
        } => run_aggregate(env, stats, subplans, input, group_by, aggs, outer),
        Node::Sort { input, keys } => {
            let rows = run_node(env, stats, subplans, input, outer)?;
            stats.rows_sorted += rows.len() as u64;
            // Precompute sort keys.
            let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
            for row in rows {
                crate::governance::checkpoint(1)?;
                let mut kv = Vec::with_capacity(keys.len());
                for (e, _) in keys {
                    let mut ctx = Ctx {
                        env,
                        stats,
                        subplans,
                        row: &row,
                        outer,
                    };
                    kv.push(eval(e, &mut ctx)?);
                }
                keyed.push((kv, row));
            }
            keyed.sort_by(|(a, _), (b, _)| {
                for (i, (_, desc)) in keys.iter().enumerate() {
                    let ord = a[i].total_cmp(&b[i]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(keyed.into_iter().map(|(_, r)| r).collect())
        }
        Node::Project { input, exprs } => {
            let rows = run_node(env, stats, subplans, input, outer)?;
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                crate::governance::checkpoint(1)?;
                let mut projected = Vec::with_capacity(exprs.len());
                for e in exprs {
                    let mut ctx = Ctx {
                        env,
                        stats,
                        subplans,
                        row: &row,
                        outer,
                    };
                    projected.push(eval(e, &mut ctx)?);
                }
                out.push(projected);
            }
            Ok(out)
        }
        Node::Distinct { input } => {
            let rows = run_node(env, stats, subplans, input, outer)?;
            let mut seen = std::collections::HashSet::new();
            let mut out = Vec::new();
            for row in rows {
                crate::governance::checkpoint(1)?;
                if seen.insert(encode_key(&row)) {
                    out.push(row);
                }
            }
            Ok(out)
        }
        Node::Limit {
            input,
            limit,
            offset,
        } => {
            let rows = run_node(env, stats, subplans, input, outer)?;
            let eval_const = |e: &Option<Expr>, stats: &mut ExecStats| -> DbResult<Option<usize>> {
                let Some(e) = e else { return Ok(None) };
                let mut ctx = Ctx {
                    env,
                    stats,
                    subplans,
                    row: &[],
                    outer,
                };
                let v = eval(e, &mut ctx)?;
                let i = v.as_int()?;
                usize::try_from(i)
                    .map(Some)
                    .map_err(|_| DbError::Eval(format!("negative LIMIT/OFFSET {i}")))
            };
            let offset = eval_const(offset, stats)?.unwrap_or(0);
            let limit = eval_const(limit, stats)?.unwrap_or(usize::MAX);
            Ok(rows.into_iter().skip(offset).take(limit).collect())
        }
    }
}

/// Fetches one table's rows, with index bounds evaluated against `left_row`
/// (the joined prefix) and `outer` (the correlated row).
fn run_access(
    env: &Env<'_>,
    stats: &mut ExecStats,
    subplans: &[SelectPlan],
    access: &Access,
    left_row: &[Value],
    outer: Option<&[Value]>,
) -> DbResult<Vec<Row>> {
    let table = env.catalog.table(&access.table)?;
    match &access.path {
        AccessPath::FullScan => {
            let mut out = Vec::with_capacity(table.row_count() as usize);
            for pi in 0..table.heap.page_count() {
                for (_, rec) in table.heap.page_rows(env.pager, pi)? {
                    crate::governance::checkpoint(1)?;
                    out.push(crate::value::decode_row(&rec)?);
                }
            }
            stats.rows_scanned += out.len() as u64;
            Ok(out)
        }
        AccessPath::Index { index, reverse, .. } => {
            let Some((lo, hi)) = compute_bounds(env, stats, subplans, access, left_row, outer)?
            else {
                return Ok(Vec::new()); // NULL or incompatible bound: no match
            };
            stats.index_scans += 1;
            let rowids = table.index_range(*index, bound_as_ref(&lo), bound_as_ref(&hi), *reverse);
            stats.index_rows += rowids.len() as u64;
            stats.rows_scanned += rowids.len() as u64;
            rowids
                .into_iter()
                .map(|rid| {
                    crate::governance::checkpoint(1)?;
                    table.get_row(env.pager, rid)
                })
                .collect()
        }
        AccessPath::MultiRange { index, .. } => {
            let ranges = compute_multi_ranges(env, stats, subplans, access, left_row, outer)?;
            stats.index_scans += 1;
            let mut out = Vec::new();
            // The ranges are merged and ascending, so scanning them as one
            // fingered batch yields the union already in key order — one
            // root descent for the first range, a short leaf walk for each
            // range after it (`btree_descent_reuses`).
            for rowids in table.index_range_multi(*index, &ranges) {
                stats.index_rows += rowids.len() as u64;
                stats.rows_scanned += rowids.len() as u64;
                for rid in rowids {
                    crate::governance::checkpoint(1)?;
                    out.push(table.get_row(env.pager, rid)?);
                }
            }
            Ok(out)
        }
    }
}

/// Collects `(RowId, row)` pairs of a single table matching an access path —
/// the row-source for `UPDATE` and `DELETE`, which must know row ids.
/// Bound expressions may reference parameters and constants only (they are
/// evaluated against an empty row).
pub fn scan_for_update(
    env: &Env<'_>,
    stats: &mut ExecStats,
    table_name: &str,
    path: &AccessPath,
) -> DbResult<Vec<(crate::storage::RowId, Row)>> {
    let table = env.catalog.table(table_name)?;
    match path {
        AccessPath::FullScan => {
            let mut out = Vec::with_capacity(table.row_count() as usize);
            for pi in 0..table.heap.page_count() {
                for (rid, rec) in table.heap.page_rows(env.pager, pi)? {
                    crate::governance::checkpoint(1)?;
                    out.push((rid, crate::value::decode_row(&rec)?));
                }
            }
            stats.rows_scanned += out.len() as u64;
            Ok(out)
        }
        AccessPath::Index {
            index,
            eq,
            lower,
            upper,
            reverse,
        } => {
            let access = Access {
                table: table_name.to_string(),
                path: AccessPath::Index {
                    index: *index,
                    eq: eq.clone(),
                    lower: lower.clone(),
                    upper: upper.clone(),
                    reverse: *reverse,
                },
                width: table.schema.columns.len(),
            };
            // Reuse the bound computation from run_access by asking for the
            // row ids through the same range math.
            let Some((lo, hi)) = compute_bounds(env, stats, &[], &access, &[], None)? else {
                return Ok(Vec::new());
            };
            stats.index_scans += 1;
            let rowids = table.index_range(*index, bound_as_ref(&lo), bound_as_ref(&hi), *reverse);
            stats.index_rows += rowids.len() as u64;
            stats.rows_scanned += rowids.len() as u64;
            rowids
                .into_iter()
                .map(|rid| {
                    crate::governance::checkpoint(1)?;
                    Ok((rid, table.get_row(env.pager, rid)?))
                })
                .collect()
        }
        AccessPath::MultiRange { index, .. } => {
            let access = Access {
                table: table_name.to_string(),
                path: path.clone(),
                width: table.schema.columns.len(),
            };
            let ranges = compute_multi_ranges(env, stats, &[], &access, &[], None)?;
            stats.index_scans += 1;
            let mut out = Vec::new();
            for rowids in table.index_range_multi(*index, &ranges) {
                stats.index_rows += rowids.len() as u64;
                stats.rows_scanned += rowids.len() as u64;
                for rid in rowids {
                    crate::governance::checkpoint(1)?;
                    out.push((rid, table.get_row(env.pager, rid)?));
                }
            }
            Ok(out)
        }
    }
}

/// A resolved byte-key range: `(lower, upper)` bounds.
type KeyRange = (Bound<Vec<u8>>, Bound<Vec<u8>>);

/// A `[start, end)` byte-key interval; `None` means unbounded on that side
/// (intermediate form while resolving and merging a multi-range batch).
type HalfOpenKeyRange = (Option<Vec<u8>>, Option<Vec<u8>>);

/// Evaluates an index access's bound expressions into byte-range bounds.
/// Returns `None` when the range is provably empty (a NULL or incompatible
/// bound value).
fn compute_bounds(
    env: &Env<'_>,
    stats: &mut ExecStats,
    subplans: &[SelectPlan],
    access: &Access,
    left_row: &[Value],
    outer: Option<&[Value]>,
) -> DbResult<Option<KeyRange>> {
    let table = env.catalog.table(&access.table)?;
    let AccessPath::Index {
        index,
        eq,
        lower,
        upper,
        ..
    } = &access.path
    else {
        return Err(DbError::Eval("compute_bounds on a full scan".into()));
    };
    let index_cols: &[usize] = match index {
        None => &table.schema.primary_key,
        Some(i) => &table.indexes[*i].0.columns,
    };
    let eval_bound = |e: &Expr, stats: &mut ExecStats| -> DbResult<Value> {
        let mut ctx = Ctx {
            env,
            stats,
            subplans,
            row: left_row,
            outer,
        };
        eval(e, &mut ctx)
    };
    let mut prefix = Vec::new();
    for (i, e) in eq.iter().enumerate() {
        let v = eval_bound(e, stats)?;
        if v.is_null() {
            return Ok(None);
        }
        let ty = table.schema.columns[index_cols[i]].ty;
        let Ok(v) = v.coerce(ty) else {
            return Ok(None);
        };
        encode_key_value(&v, &mut prefix);
    }
    let range_ty = index_cols
        .get(eq.len())
        .map(|&c| table.schema.columns[c].ty);
    let mut lo_key = prefix.clone();
    let lo_bound = match lower {
        Some((e, inclusive)) => {
            let v = eval_bound(e, stats)?;
            if v.is_null() {
                return Ok(None);
            }
            let ty = range_ty.expect("range implies another index column");
            let Ok(v) = v.coerce(ty) else {
                return Ok(None);
            };
            encode_key_value(&v, &mut lo_key);
            if *inclusive {
                Bound::Included(lo_key)
            } else {
                match prefix_successor(lo_key) {
                    Some(k) => Bound::Included(k),
                    None => Bound::Unbounded,
                }
            }
        }
        None => {
            if lo_key.is_empty() {
                Bound::Unbounded
            } else {
                Bound::Included(lo_key)
            }
        }
    };
    let mut hi_key = prefix;
    let hi_bound = match upper {
        Some((e, inclusive)) => {
            let v = eval_bound(e, stats)?;
            if v.is_null() {
                return Ok(None);
            }
            let ty = range_ty.expect("range implies another index column");
            let Ok(v) = v.coerce(ty) else {
                return Ok(None);
            };
            encode_key_value(&v, &mut hi_key);
            if *inclusive {
                match prefix_successor(hi_key) {
                    Some(k) => Bound::Excluded(k),
                    None => Bound::Unbounded,
                }
            } else {
                Bound::Excluded(hi_key)
            }
        }
        None => {
            if hi_key.is_empty() {
                Bound::Unbounded
            } else {
                match prefix_successor(hi_key) {
                    Some(k) => Bound::Excluded(k),
                    None => Bound::Unbounded,
                }
            }
        }
    };
    Ok(Some((lo_bound, hi_bound)))
}

/// Evaluates a multi-range access's equality prefix and batch parameter
/// into byte-key ranges: sorted ascending, overlapping/adjacent entries
/// merged, provably-empty entries dropped. Lower bounds come out as
/// `Included`/`Unbounded` and upper bounds as `Excluded`/`Unbounded`, so
/// the merged list partitions the key space into disjoint ascending
/// intervals — scanning them in order yields the union in key order.
fn compute_multi_ranges(
    env: &Env<'_>,
    stats: &mut ExecStats,
    subplans: &[SelectPlan],
    access: &Access,
    left_row: &[Value],
    outer: Option<&[Value]>,
) -> DbResult<Vec<KeyRange>> {
    let table = env.catalog.table(&access.table)?;
    let AccessPath::MultiRange { index, eq, ranges } = &access.path else {
        return Err(DbError::Eval(
            "compute_multi_ranges on a non-multi-range access".into(),
        ));
    };
    let index_cols: &[usize] = match index {
        None => &table.schema.primary_key,
        Some(i) => &table.indexes[*i].0.columns,
    };
    let eval_expr = |e: &Expr, stats: &mut ExecStats| -> DbResult<Value> {
        let mut ctx = Ctx {
            env,
            stats,
            subplans,
            row: left_row,
            outer,
        };
        eval(e, &mut ctx)
    };
    let mut prefix = Vec::new();
    for (i, e) in eq.iter().enumerate() {
        let v = eval_expr(e, stats)?;
        if v.is_null() {
            return Ok(Vec::new());
        }
        let ty = table.schema.columns[index_cols[i]].ty;
        let Ok(v) = v.coerce(ty) else {
            return Ok(Vec::new());
        };
        encode_key_value(&v, &mut prefix);
    }
    let batch = eval_expr(ranges, stats)?;
    let specs = decode_range_batch(batch.as_bytes()?)?;
    let range_ty = index_cols
        .get(eq.len())
        .map(|&c| table.schema.columns[c].ty);
    // Resolve each spec to (start, end): `None` start = unbounded below,
    // `None` end = unbounded above; a concrete start is inclusive and a
    // concrete end exclusive (mirroring `compute_bounds`).
    let mut resolved: Vec<HalfOpenKeyRange> = Vec::new();
    for spec in specs {
        let start = if spec.lo.is_null() {
            if prefix.is_empty() {
                None
            } else {
                Some(prefix.clone())
            }
        } else {
            let ty = range_ty.expect("range implies another index column");
            let Ok(v) = spec.lo.coerce(ty) else {
                continue; // incompatible bound: this range matches nothing
            };
            let mut k = prefix.clone();
            encode_key_value(&v, &mut k);
            if spec.lo_inclusive {
                Some(k)
            } else {
                prefix_successor(k)
            }
        };
        let end = if spec.hi.is_null() {
            if prefix.is_empty() {
                None
            } else {
                prefix_successor(prefix.clone())
            }
        } else {
            let ty = range_ty.expect("range implies another index column");
            let Ok(v) = spec.hi.coerce(ty) else {
                continue;
            };
            let mut k = prefix.clone();
            encode_key_value(&v, &mut k);
            if spec.hi_inclusive {
                prefix_successor(k)
            } else {
                Some(k)
            }
        };
        if let (Some(s), Some(e)) = (&start, &end) {
            if s >= e {
                continue; // provably empty
            }
        }
        resolved.push((start, end));
    }
    // Sort by start and merge overlapping/adjacent intervals (an exclusive
    // end touching the next inclusive start is contiguous in key space).
    resolved.sort_by(|a, b| match (&a.0, &b.0) {
        (None, None) => std::cmp::Ordering::Equal,
        (None, Some(_)) => std::cmp::Ordering::Less,
        (Some(_), None) => std::cmp::Ordering::Greater,
        (Some(x), Some(y)) => x.cmp(y),
    });
    let mut merged: Vec<HalfOpenKeyRange> = Vec::new();
    for (start, end) in resolved {
        if let Some((_, last_end)) = merged.last_mut() {
            let touches = match (&*last_end, &start) {
                (None, _) => true, // previous interval is already unbounded
                (Some(e), Some(s)) => s <= e,
                (Some(_), None) => true, // unbounded start (sorted first)
            };
            if touches {
                let extends = match (&*last_end, &end) {
                    (None, _) => false,
                    (Some(_), None) => true,
                    (Some(a), Some(b)) => b > a,
                };
                if extends {
                    *last_end = end;
                }
                continue;
            }
        }
        merged.push((start, end));
    }
    Ok(merged
        .into_iter()
        .map(|(start, end)| {
            (
                start.map_or(Bound::Unbounded, Bound::Included),
                end.map_or(Bound::Unbounded, Bound::Excluded),
            )
        })
        .collect())
}

/// Borrows a `Bound<Vec<u8>>` as `Bound<&[u8]>`.
fn bound_as_ref(b: &Bound<Vec<u8>>) -> Bound<&[u8]> {
    match b {
        Bound::Included(k) => Bound::Included(k.as_slice()),
        Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// Smallest byte string greater than every string prefixed by `k`
/// (`None` when no such string exists, i.e. `k` is all `0xFF`).
pub fn prefix_successor(mut k: Vec<u8>) -> Option<Vec<u8>> {
    while k.last() == Some(&0xFF) {
        k.pop();
    }
    let last = k.pop()?;
    k.push(last + 1);
    Some(k)
}

#[allow(clippy::too_many_arguments)]
fn run_hash_join(
    env: &Env<'_>,
    stats: &mut ExecStats,
    subplans: &[SelectPlan],
    left_rows: Vec<Row>,
    right: &Access,
    left_keys: &[Expr],
    right_keys: &[Expr],
    residual: Option<&Expr>,
    outer: Option<&[Value]>,
) -> DbResult<Vec<Row>> {
    let right_rows = run_access(env, stats, subplans, right, &[], outer)?;
    // Build side: right table.
    let mut table: HashMap<Vec<u8>, Vec<usize>> = HashMap::new();
    for (i, rrow) in right_rows.iter().enumerate() {
        crate::governance::checkpoint(1)?;
        let mut vals = Vec::with_capacity(right_keys.len());
        let mut null = false;
        for e in right_keys {
            let mut ctx = Ctx {
                env,
                stats,
                subplans,
                row: rrow,
                outer,
            };
            let v = eval(e, &mut ctx)?;
            null |= v.is_null();
            vals.push(v);
        }
        if null {
            continue; // NULL keys never join
        }
        table.entry(encode_key(&vals)).or_default().push(i);
    }
    let mut out = Vec::new();
    for lrow in left_rows {
        crate::governance::checkpoint(1)?;
        let mut vals = Vec::with_capacity(left_keys.len());
        let mut null = false;
        for e in left_keys {
            let mut ctx = Ctx {
                env,
                stats,
                subplans,
                row: &lrow,
                outer,
            };
            let v = eval(e, &mut ctx)?;
            null |= v.is_null();
            vals.push(v);
        }
        if null {
            continue;
        }
        let Some(matches) = table.get(&encode_key(&vals)) else {
            continue;
        };
        for &ri in matches {
            let mut combined = lrow.clone();
            combined.extend(right_rows[ri].iter().cloned());
            let keep = match residual {
                None => true,
                Some(pred) => {
                    let mut ctx = Ctx {
                        env,
                        stats,
                        subplans,
                        row: &combined,
                        outer,
                    };
                    eval(pred, &mut ctx)?.is_true()
                }
            };
            if keep {
                out.push(combined);
            }
        }
    }
    Ok(out)
}

fn run_aggregate(
    env: &Env<'_>,
    stats: &mut ExecStats,
    subplans: &[SelectPlan],
    input: &Node,
    group_by: &[Expr],
    aggs: &[AggCall],
    outer: Option<&[Value]>,
) -> DbResult<Vec<Row>> {
    let rows = run_node(env, stats, subplans, input, outer)?;
    // Group order = first-occurrence order.
    let mut groups: Vec<(Vec<Value>, Vec<Acc>)> = Vec::new();
    let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
    if group_by.is_empty() {
        groups.push((Vec::new(), aggs.iter().map(Acc::new).collect()));
        index.insert(Vec::new(), 0);
    }
    for row in &rows {
        crate::governance::checkpoint(1)?;
        let mut gvals = Vec::with_capacity(group_by.len());
        for e in group_by {
            let mut ctx = Ctx {
                env,
                stats,
                subplans,
                row,
                outer,
            };
            gvals.push(eval(e, &mut ctx)?);
        }
        let key = encode_key(&gvals);
        let gi = match index.get(&key) {
            Some(&i) => i,
            None => {
                groups.push((gvals, aggs.iter().map(Acc::new).collect()));
                index.insert(key, groups.len() - 1);
                groups.len() - 1
            }
        };
        for (acc, call) in groups[gi].1.iter_mut().zip(aggs) {
            let arg = match &call.arg {
                None => None,
                Some(e) => {
                    let mut ctx = Ctx {
                        env,
                        stats,
                        subplans,
                        row,
                        outer,
                    };
                    Some(eval(e, &mut ctx)?)
                }
            };
            acc.update(arg)?;
        }
    }
    Ok(groups
        .into_iter()
        .map(|(gvals, accs)| {
            let mut row = gvals;
            row.extend(accs.into_iter().map(Acc::finish));
            row
        })
        .collect())
}

/// An aggregate accumulator.
enum Acc {
    Count(i64),
    CountStar(i64),
    Sum(Option<Value>),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, n: i64 },
}

impl Acc {
    fn new(call: &AggCall) -> Acc {
        match call.func {
            AggFunc::CountStar => Acc::CountStar(0),
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(None),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
        }
    }

    fn update(&mut self, arg: Option<Value>) -> DbResult<()> {
        match self {
            Acc::CountStar(n) => *n += 1,
            Acc::Count(n) => {
                if !arg.expect("COUNT(expr) has an argument").is_null() {
                    *n += 1;
                }
            }
            Acc::Sum(slot) => {
                let v = arg.expect("SUM has an argument");
                if v.is_null() {
                    return Ok(());
                }
                *slot = Some(match slot.take() {
                    None => v,
                    Some(Value::Int(a)) => match v {
                        Value::Int(b) => Value::Int(
                            a.checked_add(b)
                                .ok_or_else(|| DbError::Eval("integer overflow in SUM".into()))?,
                        ),
                        other => Value::Float(a as f64 + other.as_float()?),
                    },
                    Some(Value::Float(a)) => Value::Float(a + v.as_float()?),
                    Some(other) => {
                        return Err(DbError::Eval(format!("SUM over non-number {other}")))
                    }
                });
            }
            Acc::Min(slot) => {
                if !arg.as_ref().expect("MIN has an argument").is_null() {
                    let v = arg.expect("checked");
                    let replace = match slot {
                        None => true,
                        Some(cur) => v.total_cmp(cur) == std::cmp::Ordering::Less,
                    };
                    if replace {
                        *slot = Some(v);
                    }
                }
            }
            Acc::Max(slot) => {
                if !arg.as_ref().expect("MAX has an argument").is_null() {
                    let v = arg.expect("checked");
                    let replace = match slot {
                        None => true,
                        Some(cur) => v.total_cmp(cur) == std::cmp::Ordering::Greater,
                    };
                    if replace {
                        *slot = Some(v);
                    }
                }
            }
            Acc::Avg { sum, n } => {
                let v = arg.expect("AVG has an argument");
                if !v.is_null() {
                    *sum += v.as_float()?;
                    *n += 1;
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            Acc::Count(n) | Acc::CountStar(n) => Value::Int(n),
            Acc::Sum(v) | Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Value::Null),
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
        }
    }
}

/// The evaluation context wiring rows, params, and subplans together.
struct Ctx<'a, 'b> {
    env: &'a Env<'a>,
    stats: &'b mut ExecStats,
    subplans: &'a [SelectPlan],
    row: &'b [Value],
    outer: Option<&'b [Value]>,
}

impl EvalContext for Ctx<'_, '_> {
    fn column(&self, i: usize) -> DbResult<Value> {
        self.row
            .get(i)
            .cloned()
            .ok_or_else(|| DbError::Eval(format!("column index {i} out of range")))
    }

    fn outer_column(&self, i: usize) -> DbResult<Value> {
        self.outer
            .and_then(|o| o.get(i))
            .cloned()
            .ok_or_else(|| DbError::Eval(format!("outer column index {i} out of range")))
    }

    fn param(&self, i: usize) -> DbResult<Value> {
        self.env
            .params
            .get(i)
            .cloned()
            .ok_or_else(|| DbError::Eval(format!("parameter ?{} not supplied", i + 1)))
    }

    fn subquery(&mut self, i: usize) -> DbResult<Value> {
        self.stats.subquery_evals += 1;
        let plan = self
            .subplans
            .get(i)
            .ok_or_else(|| DbError::Eval(format!("subquery slot {i} out of range")))?;
        let rows = run_select(self.env, self.stats, plan, Some(self.row))?;
        match rows.len() {
            0 => Ok(Value::Null),
            1 => {
                let row = rows.into_iter().next().expect("length checked");
                if row.len() != 1 {
                    return Err(DbError::Eval(format!(
                        "scalar subquery returned {} columns",
                        row.len()
                    )));
                }
                Ok(row.into_iter().next().expect("length checked"))
            }
            n => Err(DbError::Eval(format!("scalar subquery returned {n} rows"))),
        }
    }

    fn exists(&mut self, i: usize) -> DbResult<bool> {
        self.stats.subquery_evals += 1;
        let plan = self
            .subplans
            .get(i)
            .ok_or_else(|| DbError::Eval(format!("subquery slot {i} out of range")))?;
        let rows = run_select(self.env, self.stats, plan, Some(self.row))?;
        Ok(!rows.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_successor_cases() {
        assert_eq!(prefix_successor(vec![1, 2, 3]), Some(vec![1, 2, 4]));
        assert_eq!(prefix_successor(vec![1, 0xFF]), Some(vec![2]));
        assert_eq!(prefix_successor(vec![0xFF, 0xFF]), None);
        assert_eq!(prefix_successor(vec![]), None);
        assert_eq!(prefix_successor(vec![0]), Some(vec![1]));
    }

    #[test]
    fn prefix_successor_edge_keys() {
        // A single all-0xFF byte and longer all-0xFF keys have no successor.
        assert_eq!(prefix_successor(vec![0xFF]), None);
        assert_eq!(prefix_successor(vec![0xFF; 16]), None);
        // 0xFE bumps to 0xFF; trailing 0xFF runs are stripped first.
        assert_eq!(prefix_successor(vec![0xFE]), Some(vec![0xFF]));
        assert_eq!(prefix_successor(vec![7, 0xFF, 0xFF, 0xFF]), Some(vec![8]));
    }

    #[test]
    fn prefix_successor_bounds_every_extension() {
        // The successor must sort above the key and any extension of it.
        for key in [vec![3u8, 1], vec![0, 0], vec![9, 0xFF, 2]] {
            let succ = prefix_successor(key.clone()).unwrap();
            assert!(succ > key, "{succ:?} vs {key:?}");
            let mut ext = key.clone();
            ext.extend_from_slice(&[0xFF, 0xFF, 0xFF]);
            assert!(succ > ext, "{succ:?} vs {ext:?}");
        }
    }
}
