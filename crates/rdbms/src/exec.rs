//! Plan execution.
//!
//! The executor is operator-at-a-time: a node materializes its output rows
//! (MonetDB-style), which keeps correlated-subquery and join logic simple
//! and auditable. For the translated-XPath workload this is the right
//! trade-off — the interesting costs are index traffic and row counts, which
//! are reported through [`ExecStats`].
//!
//! One shape does not materialize its input: a `LIMIT`/`OFFSET` directly
//! over a projection of one index range ([`Node::index_window`]). It walks
//! the range lazily, skips the `OFFSET` entries without fetching their
//! rows, and stops after `LIMIT` fetches, so `... ORDER BY pos LIMIT 1`
//! reads one row however long the range is.
//!
//! Index bounds are evaluated per outer row, so a bound index access under a
//! [`Node::Join`] *is* the index-nested-loop join.
//!
//! **Where a row is first built.** A scan reads each record where it lies
//! on its page and first checks the planner's [`RecordTest`]s on it — the
//! leading `column op operand` conjuncts of a filter directly over the
//! scan, or of an index-nested-loop join's residual — comparing a borrowed
//! column ([`crate::value::ValueRef`]) with the bound value. A record they
//! reject is neither copied nor decoded; one they keep is copied off its
//! page and decoded once. Only a pair that passes the join's residual is
//! concatenated: the residual reads the `(left, right)` pair as it is, and
//! a correlated subquery under a join takes that pair as its outer row. A
//! range count keeps index keys and decodes nothing when its filter is all
//! record tests.
//!
//! **Row budgets.** An operator learns how many rows its parent needs at
//! most ([`run_node`]). `EXISTS` asks its subplan for one, so an index
//! scan, filter or index-nested-loop join under it stops at its first row.
//!
//! Correlated subplans re-run per outer row, with one exception: a *range
//! count* ([`SelectPlan::range_count`], the shape the XPath translation
//! gives every positional predicate) is answered from a per-statement
//! [`RangeCounts`] memo. The memo keeps, per subplan, one covered interval
//! of the index and the sorted keys inside it whose rows passed the filter;
//! each invocation fetches only the part of its range that is not yet
//! covered. Over the ascending outer order of a child-step join, a step
//! costs O(siblings) rows instead of O(siblings²), and no invocation ever
//! fetches a row that its own un-memoised scan would not.
//!
//! **Monotone stops.** When such a count is compared with a constant by
//! `=`, `<` or `<=` in the predicate of an index walk, and the count is of
//! the rows before the walked row in the walk's own order (the planner's
//! [`Stop`], which flips a count of the rows *after* it to a backward
//! walk), the count never decreases along the walk. So the first row whose
//! count has passed the constant ends the walk — for the current left row
//! of a join, not for the others. A positional step then reads the
//! candidates up to its answer and the memo's count of the ones before
//! them, O(k) rows, and `last()` reads about three.

use crate::catalog::{Catalog, Table};
use crate::error::{DbError, DbResult};
use crate::expr::{eval, eval_lent, EvalContext, Expr};
use crate::governance::{Ledger, Work};
use crate::plan::{
    Access, AccessPath, AggCall, AggFunc, Filtered, Node, Operand, RecordFilter, RecordTest,
    SelectPlan, Stop,
};
use crate::storage::{PageSource, RowId};
use crate::value::{
    decode_range_batch, decode_row, encode_key, encode_key_as, encode_key_value, record_column,
    DataType, Row, Value,
};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::ops::Bound;
use std::time::{Duration, Instant};

/// Per-statement execution counters. These are the engine-level cost metrics
/// the benchmark harness reports alongside wall-clock times.
///
/// The first six counters are maintained directly by the executor; the
/// buffer-pool (`pages_*`, `cache_*`, `evictions`, `read_retries`) and
/// B+tree (`btree_*`) counters, and the statement, commit, WAL-frame,
/// lock-wait and governance counts, are what the statement's own thread
/// counted on its [`crate::governance::Ledger`] while the statement ran,
/// so they stay exact however many statements run concurrently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Records read from heap storage, including those a record test
    /// rejected without decoding them.
    pub rows_scanned: u64,
    /// Index range scans opened.
    pub index_scans: u64,
    /// Index entries walked by index scans, including the entries a
    /// windowed `LIMIT`/`OFFSET` skipped without fetching their rows.
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
    /// (always 0 in memory mode).
    pub read_retries: u64,
    /// Statements that tripped their deadline ([`crate::DbError::Timeout`]).
    /// Only ever non-zero in cumulative totals — a timed-out statement
    /// returns no per-statement stats.
    pub queries_timed_out: u64,
    /// Statements canceled via the shared cancel flag
    /// ([`crate::DbError::Canceled`]). Cumulative-only, like
    /// `queries_timed_out`.
    pub queries_canceled: u64,
    /// Statements that succeeded (1 in a statement's own stats).
    pub statements: u64,
    /// Transactions committed (explicit and auto-commit).
    pub commits: u64,
    /// Page-image frames appended to the write-ahead log.
    pub wal_frames: u64,
    /// Contended latch acquisitions, every wait site.
    pub lock_waits: u64,
}

impl ExecStats {
    /// Adds the pager and B+tree work a statement's thread counted.
    pub(crate) fn add_work(&mut self, w: &Ledger) {
        let (logical, physical) = (w[Work::LogicalRead], w[Work::PhysicalRead]);
        self.pages_read += logical;
        self.cache_misses += physical;
        self.cache_hits += logical.saturating_sub(physical);
        self.pages_written += w[Work::PhysicalWrite];
        self.evictions += w[Work::Eviction];
        self.read_retries += w[Work::ReadRetry];
        self.btree_descents += w[Work::Descent];
        self.btree_descent_reuses += w[Work::DescentReuse];
        self.btree_leaf_scans += w[Work::LeafScan];
        self.btree_splits += w[Work::Split];
        self.queries_timed_out += w[Work::Timeout];
        self.queries_canceled += w[Work::Cancel];
        self.statements += w[Work::ReadStatement] + w[Work::WriteStatement];
        self.commits += w[Work::Commit];
        self.wal_frames += w[Work::WalFrame];
        self.lock_waits += w.all_waits();
    }

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
        self.statements += other.statements;
        self.commits += other.commits;
        self.wal_frames += other.wal_frames;
        self.lock_waits += other.lock_waits;
    }
}

/// Counters in an [`ExecStats`].
const STATS: usize = 22;

/// A thread-safe accumulation cell for [`ExecStats`]: one relaxed atomic
/// per counter. [`crate::Database`] keeps its cumulative per-database
/// totals in one of these so that concurrent readers merging
/// their statement stats never serialize on a mutex (the totals latch used
/// to be the last lock on the shared-read path).
#[derive(Debug, Default)]
pub struct SharedExecStats {
    cells: [std::sync::atomic::AtomicU64; STATS],
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
        let mut vals = [0u64; STATS];
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

    fn unpack(s: &ExecStats) -> [u64; STATS] {
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
            s.statements,
            s.commits,
            s.wal_frames,
            s.lock_waits,
        ]
    }

    fn pack(v: [u64; STATS]) -> ExecStats {
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
            statements: v[18],
            commits: v[19],
            wal_frames: v[20],
            lock_waits: v[21],
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

    /// Records one invocation of `node` that produced `rows` rows, for an
    /// operator that ran inside another one (its time is the outer's).
    fn note(&mut self, node: &Node, rows: u64, elapsed: Duration) {
        let op = self.ops.entry(node as *const Node as usize).or_default();
        op.invocations += 1;
        op.rows_out += rows;
        op.elapsed += elapsed;
    }
}

/// Everything a plan needs to run.
pub struct Env<'a> {
    /// Table catalog.
    pub catalog: &'a Catalog,
    /// Where the statement's pages come from: the live pager, or the
    /// committed version a snapshot reads.
    pub pages: PageSource<'a>,
    /// Statement parameters (`?` values).
    pub params: &'a [Value],
    /// Per-operator profiler, set only under `EXPLAIN ANALYZE`.
    pub prof: Option<&'a RefCell<Profiler>>,
    /// The statement's range-count memo. It lives exactly as long as one
    /// statement execution, so it only ever sees that statement's version.
    pub counts: RangeCounts,
}

impl<'a> Env<'a> {
    /// An environment for one statement execution, without a profiler.
    pub fn new(catalog: &'a Catalog, pages: PageSource<'a>, params: &'a [Value]) -> Env<'a> {
        Env {
            catalog,
            pages,
            params,
            prof: None,
            counts: RangeCounts::default(),
        }
    }
}

/// One statement's memo for its range-count subplans, keyed by subplan
/// identity (the address of the [`SelectPlan`], as [`Profiler`] keys by
/// node address).
#[derive(Debug, Default)]
pub struct RangeCounts {
    memos: RefCell<HashMap<usize, CountMemo>>,
}

/// What one range-count subplan has counted so far: the covered key
/// interval `[lo, hi)` (`hi = None`: unbounded above) and, in key order,
/// the index keys inside it whose rows passed the subplan's filter.
#[derive(Debug)]
struct CountMemo {
    lo: Vec<u8>,
    hi: Option<Vec<u8>>,
    keys: VecDeque<Vec<u8>>,
}

/// Asks an operator for every row it produces.
const ALL: usize = usize::MAX;

/// A row the executor reads without building it: a join's `(left, right)`
/// pair, or one row with `right` empty. Column `i` is the `i`-th of the
/// concatenation, so a predicate bound against the joined row reads the
/// pair as it is, and a correlated subquery under a join takes the pair as
/// its outer row.
#[derive(Clone, Copy)]
struct Pair<'r> {
    left: &'r [Value],
    right: &'r [Value],
}

impl<'r> Pair<'r> {
    fn one(row: &'r [Value]) -> Self {
        Pair {
            left: row,
            right: &[],
        }
    }

    fn get(self, i: usize) -> Option<&'r Value> {
        match i.checked_sub(self.left.len()) {
            None => self.left.get(i),
            Some(j) => self.right.get(j),
        }
    }

    /// The concatenated row.
    fn concat(self) -> Row {
        let mut row = Vec::with_capacity(self.left.len() + self.right.len());
        row.extend_from_slice(self.left);
        row.extend_from_slice(self.right);
        row
    }
}

/// `left` followed by `right`, moving `right`'s values.
fn joined(left: &[Value], right: Row) -> Row {
    let mut row = Vec::with_capacity(left.len() + right.len());
    row.extend_from_slice(left);
    row.extend(right);
    row
}

/// Runs a planned `SELECT`, returning its rows. `outer` is the correlated
/// row when the plan is a subquery.
pub fn run_select(
    env: &Env<'_>,
    stats: &mut ExecStats,
    plan: &SelectPlan,
    outer: Option<&[Value]>,
) -> DbResult<Vec<Row>> {
    select(env, stats, plan, outer.map(Pair::one), ALL)
}

/// Runs a planned `SELECT` for a caller that needs at most `budget` rows
/// (see [`run_node`]).
fn select(
    env: &Env<'_>,
    stats: &mut ExecStats,
    plan: &SelectPlan,
    outer: Option<Pair<'_>>,
    budget: usize,
) -> DbResult<Vec<Row>> {
    if let Some((access, filter)) = plan.range_count_parts() {
        return run_range_count(env, stats, plan, access, filter, outer);
    }
    run_node(env, stats, &plan.subplans, &plan.root, outer, budget)
}

/// Runs a range-count subplan through the statement's memo: computes the
/// invocation's key range exactly as an index scan would, fetches only the
/// parts of it outside the memo's covered interval, and counts the
/// remembered keys inside the range. A record is decoded only when its
/// filter has conjuncts the record tests leave over.
fn run_range_count(
    env: &Env<'_>,
    stats: &mut ExecStats,
    plan: &SelectPlan,
    access: &Access,
    filter: Option<Filtered<'_>>,
    outer: Option<Pair<'_>>,
) -> DbResult<Vec<Row>> {
    let _span = crate::trace::span("op.range_count");
    let start = Instant::now();
    let AccessPath::Index { index, .. } = access.path else {
        return Err(DbError::Eval("range count over a non-index access".into()));
    };
    let table = env.catalog.table(&access.table)?;
    let filter = filter.map_or(RowFilter::NONE, |(pred, record)| {
        RowFilter::new(Some(pred), record, None)
    });
    let (mut fetched, mut passed) = (0u64, 0u64);
    // Kept records, copied off their pages.
    let mut buf = Vec::new();
    let count = match compute_bounds(env, stats, &plan.subplans, access, &[], outer)? {
        None => 0, // NULL or incompatible bound: no match
        Some((lo, hi)) => {
            // Fetches `[from, to)`; returns the keys whose rows pass the filter.
            let mut scan = |from: &[u8], to: Option<&[u8]>| -> DbResult<Vec<Vec<u8>>> {
                let lower = Bound::Included(from);
                let upper = to.map_or(Bound::Unbounded, Bound::Excluded);
                stats.index_scans += 1;
                let mut keys = Vec::new();
                // Only a filter with conjuncts the record tests leave over
                // needs the row.
                let decode = filter.rest.is_some();
                for (key, rid) in table.index_range_keyed(index, lower, upper) {
                    crate::governance::checkpoint(1)?;
                    stats.index_rows += 1;
                    stats.rows_scanned += 1;
                    fetched += 1;
                    let verdict =
                        judge_at(env, table, rid, filter.tests, &[], outer, decode, &mut buf)?;
                    let keep = match verdict {
                        Verdict::Rejected => false,
                        Verdict::Passed if !decode => true,
                        _ => {
                            let row = decode_row(&buf)?;
                            let row = Pair::one(&row);
                            let pass =
                                filter.finish(env, stats, &plan.subplans, row, outer, verdict)?;
                            pass == Pass::Keep
                        }
                    };
                    if keep {
                        keys.push(key.to_vec());
                    }
                }
                passed += keys.len() as u64;
                Ok(keys)
            };
            let id = plan as *const SelectPlan as usize;
            env.counts
                .count(id, start_key(lo), end_key(hi), &mut scan)?
        }
    };
    if let Some(prof) = env.prof {
        // Every operator of the subplan ran once. The scan reports the rows
        // it actually fetched and the filter those that passed; the count
        // itself comes out of the aggregate as one row.
        let elapsed = start.elapsed();
        let mut prof = prof.borrow_mut();
        let mut node = &plan.root;
        loop {
            match node {
                Node::Project { input, .. } | Node::Aggregate { input, .. } => {
                    prof.note(node, 1, elapsed);
                    node = input;
                }
                Node::Filter { input, .. } => {
                    prof.note(node, passed, elapsed);
                    node = input;
                }
                _ => {
                    prof.note(node, fetched, elapsed);
                    break;
                }
            }
        }
    }
    Ok(vec![vec![Value::Int(count as i64)]])
}

/// Fetches the keys in `[from, to)` that a range count keeps, in key order
/// (`to = None`: unbounded above).
type KeyScan<'s> = dyn FnMut(&[u8], Option<&[u8]>) -> DbResult<Vec<Vec<u8>>> + 's;

impl RangeCounts {
    /// Counts the kept keys in `[lo, hi)` for subplan `id`, calling `scan`
    /// only for the parts of that interval the memo does not cover. A range
    /// that overlaps or touches the covered interval extends it; any other
    /// range replaces the memo.
    fn count(
        &self,
        id: usize,
        lo: Vec<u8>,
        hi: Option<Vec<u8>>,
        scan: &mut KeyScan<'_>,
    ) -> DbResult<usize> {
        if !before_end(&lo, hi.as_deref()) {
            return Ok(0);
        }
        // Out of the map while `scan` runs, so the borrow is never held
        // across row fetches and filter evaluation.
        let cached = self.memos.borrow_mut().remove(&id);
        let memo = match cached {
            Some(mut m)
                if m.hi.as_deref().is_none_or(|end| lo.as_slice() <= end)
                    && hi.as_deref().is_none_or(|end| m.lo.as_slice() <= end) =>
            {
                if lo < m.lo {
                    for key in scan(&lo, Some(&m.lo))?.into_iter().rev() {
                        m.keys.push_front(key);
                    }
                    m.lo = lo.clone();
                }
                if let Some(end) = m.hi.as_deref().filter(|&e| before_end(e, hi.as_deref())) {
                    let more = scan(end, hi.as_deref())?;
                    m.keys.extend(more);
                    m.hi = hi.clone();
                }
                m
            }
            _ => CountMemo {
                keys: scan(&lo, hi.as_deref())?.into(),
                lo: lo.clone(),
                hi: hi.clone(),
            },
        };
        let below = |bound: &[u8]| memo.keys.partition_point(|k| k.as_slice() < bound);
        let count = hi.as_deref().map_or(memo.keys.len(), below) - below(&lo);
        self.memos.borrow_mut().insert(id, memo);
        Ok(count)
    }
}

/// The start of a `[start, end)` key interval from a lower bound. The
/// empty key sorts before every key, so it starts an interval unbounded
/// below.
fn start_key(b: Bound<Vec<u8>>) -> Vec<u8> {
    match b {
        Bound::Included(k) => k,
        // The least key above `k` is `k` followed by a zero byte.
        Bound::Excluded(mut k) => {
            k.push(0);
            k
        }
        Bound::Unbounded => Vec::new(),
    }
}

/// The end of a `[start, end)` key interval from an upper bound
/// (`None` = unbounded above).
fn end_key(b: Bound<Vec<u8>>) -> Option<Vec<u8>> {
    match b {
        Bound::Excluded(k) => Some(k),
        Bound::Included(mut k) => {
            k.push(0);
            Some(k)
        }
        Bound::Unbounded => None,
    }
}

/// `key < end`, where `end = None` is unbounded above.
fn before_end(key: &[u8], end: Option<&[u8]>) -> bool {
    end.is_none_or(|e| key < e)
}

/// How a scan filters the records it reads: [`RecordTest`]s on the stored
/// record first, then `rest` over the decoded row — or the whole `pred`
/// when a test could not decide — and the conjunct of `pred`, if any, that
/// ends the scan once it fails past its limit.
#[derive(Clone, Copy)]
struct RowFilter<'p> {
    tests: &'p [RecordTest],
    rest: Option<&'p Expr>,
    pred: Option<&'p Expr>,
    stop: Option<&'p Stop>,
}

/// What a scan does with a row it has judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// The row passes.
    Keep,
    /// The row fails; the scan goes on.
    Reject,
    /// The row fails, and so does every row after it: the scan ends.
    Stop,
}

impl<'p> RowFilter<'p> {
    /// Keeps every row.
    const NONE: RowFilter<'static> = RowFilter {
        tests: &[],
        rest: None,
        pred: None,
        stop: None,
    };

    /// `pred`, with the record split and the stop the planner made of it,
    /// if any.
    fn new(
        pred: Option<&'p Expr>,
        record: Option<&'p RecordFilter>,
        stop: Option<&'p Stop>,
    ) -> Self {
        let (tests, rest) = match record {
            Some(split) => (&split.tests[..], split.rest.as_ref()),
            None => (&[][..], pred),
        };
        RowFilter {
            tests,
            rest,
            pred,
            stop,
        }
    }

    /// Judges a row the record tests did not reject: by `rest` when they
    /// passed it, by the whole predicate when they could not decide. A row
    /// fails with [`Pass::Stop`] when the stop's count was evaluated for it
    /// and has passed the stop's limit.
    fn finish(
        self,
        env: &Env<'_>,
        stats: &mut ExecStats,
        subplans: &[SelectPlan],
        row: Pair<'_>,
        outer: Option<Pair<'_>>,
        verdict: Verdict,
    ) -> DbResult<Pass> {
        let pred = match verdict {
            Verdict::Rejected => return Ok(Pass::Reject),
            Verdict::Passed => self.rest,
            Verdict::Undecided => self.pred,
        };
        let Some(pred) = pred else {
            return Ok(Pass::Keep);
        };
        let mut count = None;
        let watch = self.stop.map(|s| (s.slot, &mut count));
        let mut ctx = Ctx {
            env,
            stats,
            subplans,
            row,
            outer,
            watch,
        };
        if eval(pred, &mut ctx)?.is_true() {
            return Ok(Pass::Keep);
        }
        let ends = |stop: &Stop| count.as_ref().is_some_and(|c| stop.ends_at(c, env.params));
        Ok(if self.stop.is_some_and(ends) {
            Pass::Stop
        } else {
            Pass::Reject
        })
    }
}

/// What the record tests made of a stored record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// A test rejected it.
    Rejected,
    /// Every test passed it.
    Passed,
    /// A test met a NULL, a missing operand or kinds that do not compare,
    /// so plain evaluation of the whole predicate decides (and reports the
    /// error, if it is one).
    Undecided,
}

/// Checks `tests` in order on the encoded record `rec`, comparing each
/// borrowed column with its operand; `left` is a join's left row.
fn judge(
    rec: &[u8],
    tests: &[RecordTest],
    params: &[Value],
    left: &[Value],
    outer: Option<Pair<'_>>,
) -> DbResult<Verdict> {
    for t in tests {
        let operand = match &t.operand {
            Operand::Literal(v) => Some(v),
            Operand::Param(i) => params.get(*i),
            Operand::Outer(i) => outer.and_then(|o| o.get(*i)),
            Operand::Left(i) => left.get(*i),
        };
        let (Some(column), Some(operand)) = (record_column(rec, t.col)?, operand) else {
            return Ok(Verdict::Undecided);
        };
        // A NULL makes the conjunct unknown, which does not end plain
        // evaluation the way false does: later conjuncts still run.
        match column.sql_cmp(operand) {
            Some(ord) if t.op.holds(ord) => {}
            Some(_) => return Ok(Verdict::Rejected),
            None => return Ok(Verdict::Undecided),
        }
    }
    Ok(Verdict::Passed)
}

/// Judges the record at `rid` where it lies on its page. A record the tests
/// keep is copied into `buf` when `copy` is set or they could not decide,
/// to be decoded once the page is released: decoding allocates, and a
/// file-backed page read holds the buffer-pool latch.
#[allow(clippy::too_many_arguments)]
fn judge_at(
    env: &Env<'_>,
    table: &Table,
    rid: RowId,
    tests: &[RecordTest],
    left: &[Value],
    outer: Option<Pair<'_>>,
    copy: bool,
    buf: &mut Vec<u8>,
) -> DbResult<Verdict> {
    table.heap.with_record(env.pages, rid, |rec| {
        let verdict = judge(rec, tests, env.params, left, outer)?;
        if verdict == Verdict::Undecided || (verdict == Verdict::Passed && copy) {
            buf.clear();
            buf.extend_from_slice(rec);
        }
        Ok(verdict)
    })?
}

/// Reads the records `access` selects, with index bounds evaluated against
/// `left` (a join's left row; empty otherwise) and `outer`, and hands
/// `visit` each row that passes `filter`, until `visit` returns `false`.
/// Every record read is charged `units` work units and counted in
/// `rows_scanned`; a record the record tests reject is never decoded.
/// Returns the number of records read.
#[allow(clippy::too_many_arguments)]
fn walk_access(
    env: &Env<'_>,
    stats: &mut ExecStats,
    subplans: &[SelectPlan],
    access: &Access,
    left: &[Value],
    outer: Option<Pair<'_>>,
    filter: RowFilter<'_>,
    units: u64,
    visit: &mut dyn FnMut(RowId, Row) -> bool,
) -> DbResult<u64> {
    let table = env.catalog.table(&access.table)?;
    let mut read = 0u64;
    // Kept records, copied off their pages.
    let mut buf = Vec::new();
    // Finishes one judged record: `Ok(false)` stops the walk.
    let mut admit = |stats: &mut ExecStats, rid: RowId, verdict: Verdict, rec: &[u8]| {
        if verdict == Verdict::Rejected {
            return Ok(true);
        }
        let row = decode_row(rec)?;
        let pair = Pair { left, right: &row };
        match filter.finish(env, stats, subplans, pair, outer, verdict)? {
            Pass::Keep => DbResult::Ok(visit(rid, row)),
            Pass::Reject => Ok(true),
            Pass::Stop => Ok(false),
        }
    };
    // Reads one record through the index.
    let mut probe = |stats: &mut ExecStats, rid: RowId| -> DbResult<bool> {
        crate::governance::checkpoint(units)?;
        stats.index_rows += 1;
        stats.rows_scanned += 1;
        read += 1;
        let verdict = judge_at(env, table, rid, filter.tests, left, outer, true, &mut buf)?;
        admit(stats, rid, verdict, &buf)
    };
    match &access.path {
        AccessPath::FullScan => {
            // A page's records are judged under one page read, and the
            // ones kept are decoded and admitted after it: `rest` may run
            // subqueries that read pages themselves.
            let mut kept = Vec::new();
            for pi in 0..table.heap.page_count() {
                buf.clear();
                table.heap.for_each_record(env.pages, pi, |rid, rec| {
                    crate::governance::checkpoint(units)?;
                    stats.rows_scanned += 1;
                    read += 1;
                    let verdict = judge(rec, filter.tests, env.params, left, outer)?;
                    if verdict != Verdict::Rejected {
                        let start = buf.len();
                        buf.extend_from_slice(rec);
                        kept.push((rid, verdict, start..buf.len()));
                    }
                    Ok(())
                })?;
                for (rid, verdict, span) in kept.drain(..) {
                    if !admit(stats, rid, verdict, &buf[span])? {
                        return Ok(read);
                    }
                }
            }
        }
        AccessPath::Index { index, reverse, .. } => {
            let Some((lo, hi)) = compute_bounds(env, stats, subplans, access, left, outer)? else {
                return Ok(0); // NULL or incompatible bound: no match
            };
            stats.index_scans += 1;
            for rid in table.index_range(*index, bound_as_ref(&lo), bound_as_ref(&hi), *reverse) {
                if !probe(stats, rid)? {
                    break;
                }
            }
        }
        AccessPath::MultiRange { index, .. } => {
            let ranges = compute_multi_ranges(env, stats, subplans, access, left, outer)?;
            stats.index_scans += 1;
            // The ranges are merged and ascending, so scanning them as one
            // fingered batch yields the union already in key order — one
            // root descent for the first range, a short leaf walk for each
            // range after it (`btree_descent_reuses`).
            for rid in table.index_ranges(*index, &ranges) {
                if !probe(stats, rid)? {
                    break;
                }
            }
        }
    }
    Ok(read)
}

/// Fetches up to `budget` of one table's rows (all of them for [`ALL`]),
/// with index bounds evaluated against `outer` (the correlated row).
fn run_access(
    env: &Env<'_>,
    stats: &mut ExecStats,
    subplans: &[SelectPlan],
    access: &Access,
    outer: Option<Pair<'_>>,
    budget: usize,
) -> DbResult<Vec<Row>> {
    let mut out = Vec::new();
    let filter = RowFilter::NONE;
    walk_access(
        env,
        stats,
        subplans,
        access,
        &[],
        outer,
        filter,
        1,
        &mut |_, row| {
            out.push(row);
            out.len() < budget
        },
    )?;
    Ok(out)
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
) -> DbResult<Vec<(RowId, Row)>> {
    let access = Access {
        table: table_name.to_string(),
        path: path.clone(),
        width: env.catalog.table(table_name)?.schema.columns.len(),
    };
    let mut out = Vec::new();
    let filter = RowFilter::NONE;
    walk_access(
        env,
        stats,
        &[],
        &access,
        &[],
        None,
        filter,
        1,
        &mut |rid, row| {
            out.push((rid, row));
            true
        },
    )?;
    Ok(out)
}

/// Evaluates `e` over `row`.
fn value(
    env: &Env<'_>,
    stats: &mut ExecStats,
    subplans: &[SelectPlan],
    e: &Expr,
    row: Pair<'_>,
    outer: Option<Pair<'_>>,
) -> DbResult<Value> {
    let mut ctx = Ctx {
        env,
        stats,
        subplans,
        row,
        outer,
        watch: None,
    };
    eval(e, &mut ctx)
}

/// Whether predicate `pred` is true over `row`.
fn holds(
    env: &Env<'_>,
    stats: &mut ExecStats,
    subplans: &[SelectPlan],
    pred: &Expr,
    row: Pair<'_>,
    outer: Option<Pair<'_>>,
) -> DbResult<bool> {
    Ok(value(env, stats, subplans, pred, row, outer)?.is_true())
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

/// Runs one plan node for a caller that needs at most `budget` of its rows
/// ([`ALL`]: every row). The budget is a hint an operator may use to stop
/// early and may ignore: a scan stops once it has produced `budget` rows,
/// a filter or an index-nested-loop join once `budget` rows passed, and a
/// projection passes it on; sort, aggregate, distinct, hash join and
/// `LIMIT` read their whole input. `EXISTS` runs its subplan with a
/// budget of one row.
fn run_node(
    env: &Env<'_>,
    stats: &mut ExecStats,
    subplans: &[SelectPlan],
    node: &Node,
    outer: Option<Pair<'_>>,
    budget: usize,
) -> DbResult<Vec<Row>> {
    let _span = crate::trace::span(op_name(node));
    let Some(prof) = env.prof else {
        return run_node_inner(env, stats, subplans, node, outer, budget);
    };
    let start = Instant::now();
    let result = run_node_inner(env, stats, subplans, node, outer, budget);
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
    outer: Option<Pair<'_>>,
    budget: usize,
) -> DbResult<Vec<Row>> {
    match node {
        Node::OneRow => Ok(vec![Vec::new()]),
        Node::Scan(access) => run_access(env, stats, subplans, access, outer, budget),
        Node::Filter {
            input,
            pred,
            record,
            stop,
        } => {
            if let Node::Scan(access) = &**input {
                // The filter runs inside its scan, on each record as it is
                // read. Both operators still charge their unit per record,
                // and the scan still reports every record it read.
                let _span = crate::trace::span(op_name(input));
                let start = Instant::now();
                let filter = RowFilter::new(Some(pred), record.as_ref(), stop.as_deref());
                let mut out = Vec::new();
                let read = walk_access(
                    env,
                    stats,
                    subplans,
                    access,
                    &[],
                    outer,
                    filter,
                    2,
                    &mut |_, row| {
                        out.push(row);
                        out.len() < budget
                    },
                )?;
                if let Some(prof) = env.prof {
                    prof.borrow_mut().note(input, read, start.elapsed());
                }
                return Ok(out);
            }
            let rows = run_node(env, stats, subplans, input, outer, ALL)?;
            let mut out = Vec::new();
            for row in rows {
                if out.len() >= budget {
                    break;
                }
                crate::governance::checkpoint(1)?;
                if holds(env, stats, subplans, pred, Pair::one(&row), outer)? {
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
            record,
            stop,
        } => {
            let left_rows = run_node(env, stats, subplans, left, outer, ALL)?;
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
            if right.path == AccessPath::FullScan {
                // Cache full-scan inners: scanning the heap once per outer
                // row would be quadratic in I/O for plain nested loops. The
                // cache is read in place; only pairs that pass are copied.
                let inner = run_access(env, stats, subplans, right, outer, ALL)?;
                'outer: for lrow in &left_rows {
                    crate::governance::checkpoint(1)?;
                    for rrow in &inner {
                        crate::governance::checkpoint(1)?;
                        let pair = Pair {
                            left: lrow,
                            right: rrow,
                        };
                        let keep = match residual {
                            None => true,
                            Some(pred) => holds(env, stats, subplans, pred, pair, outer)?,
                        };
                        if keep {
                            out.push(pair.concat());
                            if out.len() >= budget {
                                break 'outer;
                            }
                        }
                    }
                }
                return Ok(out);
            }
            // Index-nested loop: the inner-only conjuncts of the residual
            // run on each inner record, the rest over the `(left, right)`
            // pair, and only a pair that passes both is concatenated. A
            // stop ends the inner walk for the current left row only.
            let filter = RowFilter::new(residual.as_ref(), record.as_ref(), stop.as_deref());
            for lrow in &left_rows {
                if out.len() >= budget {
                    break;
                }
                crate::governance::checkpoint(1)?;
                walk_access(
                    env,
                    stats,
                    subplans,
                    right,
                    lrow,
                    outer,
                    filter,
                    2,
                    &mut |_, rrow| {
                        out.push(joined(lrow, rrow));
                        out.len() < budget
                    },
                )?;
            }
            Ok(out)
        }
        Node::Aggregate {
            input,
            group_by,
            aggs,
        } => run_aggregate(env, stats, subplans, input, group_by, aggs, outer),
        Node::Sort { input, keys } => {
            let rows = run_node(env, stats, subplans, input, outer, ALL)?;
            stats.rows_sorted += rows.len() as u64;
            // Precompute sort keys.
            let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
            for row in rows {
                crate::governance::checkpoint(1)?;
                let mut kv = Vec::with_capacity(keys.len());
                for (e, _) in keys {
                    kv.push(value(env, stats, subplans, e, Pair::one(&row), outer)?);
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
            let rows = run_node(env, stats, subplans, input, outer, budget)?;
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                crate::governance::checkpoint(1)?;
                out.push(project(env, stats, subplans, exprs, row, outer)?);
            }
            Ok(out)
        }
        Node::Distinct { input } => {
            let rows = run_node(env, stats, subplans, input, outer, ALL)?;
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
            let eval_const = |e: &Option<Expr>, stats: &mut ExecStats| -> DbResult<Option<usize>> {
                let Some(e) = e else { return Ok(None) };
                let v = value(env, stats, subplans, e, Pair::one(&[]), outer)?;
                let i = v.as_int()?;
                usize::try_from(i)
                    .map(Some)
                    .map_err(|_| DbError::Eval(format!("negative LIMIT/OFFSET {i}")))
            };
            let offset = eval_const(offset, stats)?.unwrap_or(0);
            let limit = eval_const(limit, stats)?.unwrap_or(usize::MAX);
            if let Some((exprs, access)) = node.index_window() {
                let window = (offset, limit);
                return run_index_window(env, stats, subplans, input, exprs, access, window, outer);
            }
            let rows = run_node(env, stats, subplans, input, outer, ALL)?;
            Ok(rows.into_iter().skip(offset).take(limit).collect())
        }
    }
}

/// Projects `row` onto `exprs`. A projection of distinct plain columns
/// moves their values out of the row instead of copying them.
fn project(
    env: &Env<'_>,
    stats: &mut ExecStats,
    subplans: &[SelectPlan],
    exprs: &[Expr],
    mut row: Row,
    outer: Option<Pair<'_>>,
) -> DbResult<Row> {
    let column = |e: &Expr| match e {
        Expr::Column(i) => Some(*i),
        _ => None,
    };
    let movable = exprs.iter().enumerate().all(|(k, e)| {
        column(e).is_some_and(|i| i < row.len() && exprs[..k].iter().all(|p| column(p) != Some(i)))
    });
    if movable {
        return Ok(exprs
            .iter()
            .map(|e| {
                let i = column(e).expect("checked above");
                std::mem::replace(&mut row[i], Value::Null)
            })
            .collect());
    }
    exprs
        .iter()
        .map(|e| value(env, stats, subplans, e, Pair::one(&row), outer))
        .collect()
}

/// Runs `Limit` over `Project` over an index scan ([`Node::index_window`])
/// by walking the range lazily: the first `offset` entries are skipped
/// without fetching their rows, and the walk stops after `limit` fetches.
/// `index_rows` counts every entry walked, `rows_scanned` only the fetched
/// ones. Each skipped entry still charges one work unit, so a work budget
/// bounds a huge `OFFSET`.
#[allow(clippy::too_many_arguments)]
fn run_index_window(
    env: &Env<'_>,
    stats: &mut ExecStats,
    subplans: &[SelectPlan],
    projection: &Node,
    exprs: &[Expr],
    access: &Access,
    (offset, limit): (usize, usize),
    outer: Option<Pair<'_>>,
) -> DbResult<Vec<Row>> {
    let start = Instant::now();
    let table = env.catalog.table(&access.table)?;
    let AccessPath::Index { index, reverse, .. } = access.path else {
        return Err(DbError::Eval("index window over a non-index access".into()));
    };
    let mut out = Vec::new();
    if let Some((lo, hi)) = compute_bounds(env, stats, subplans, access, &[], outer)? {
        stats.index_scans += 1;
        let mut rowids = table.index_range(index, bound_as_ref(&lo), bound_as_ref(&hi), reverse);
        for _ in 0..offset {
            crate::governance::checkpoint(1)?;
            if rowids.next().is_none() {
                break;
            }
            stats.index_rows += 1;
        }
        for rid in rowids.take(limit) {
            crate::governance::checkpoint(1)?;
            stats.index_rows += 1;
            stats.rows_scanned += 1;
            let row = table.get_row(env.pages, rid)?;
            out.push(project(env, stats, subplans, exprs, row, outer)?);
        }
    }
    if let Some(prof) = env.prof {
        // The projection and the scan each ran once and passed on exactly
        // the fetched rows; the skipped entries never became rows.
        let elapsed = start.elapsed();
        let mut prof = prof.borrow_mut();
        let Node::Project { input: scan, .. } = projection else {
            unreachable!("an index window's input is a projection");
        };
        for node in [projection, &**scan] {
            prof.note(node, out.len() as u64, elapsed);
        }
    }
    Ok(out)
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
    outer: Option<Pair<'_>>,
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
    let mut ctx = Ctx {
        env,
        stats,
        subplans,
        row: Pair::one(left_row),
        outer,
        watch: None,
    };
    let mut prefix = Vec::new();
    for (i, e) in eq.iter().enumerate() {
        let ty = table.schema.columns[index_cols[i]].ty;
        if !push_bound(&mut ctx, e, ty, &mut prefix)? {
            return Ok(None);
        }
    }
    let range_ty = || {
        let c = index_cols
            .get(eq.len())
            .expect("range implies another index column");
        table.schema.columns[*c].ty
    };
    let mut lo_key = prefix.clone();
    let lo_bound = match lower {
        Some((e, inclusive)) => {
            if !push_bound(&mut ctx, e, range_ty(), &mut lo_key)? {
                return Ok(None);
            }
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
            if !push_bound(&mut ctx, e, range_ty(), &mut hi_key)? {
                return Ok(None);
            }
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

/// Appends index bound `e` as a column of type `ty` stores it; `false` when
/// the bound is NULL or of another type, so the range matches nothing.
fn push_bound(ctx: &mut Ctx<'_, '_>, e: &Expr, ty: DataType, key: &mut Vec<u8>) -> DbResult<bool> {
    Ok(encode_key_as(&*eval_lent(e, ctx)?, ty, key))
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
    outer: Option<Pair<'_>>,
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
    let mut ctx = Ctx {
        env,
        stats,
        subplans,
        row: Pair::one(left_row),
        outer,
        watch: None,
    };
    let mut prefix = Vec::new();
    for (i, e) in eq.iter().enumerate() {
        let ty = table.schema.columns[index_cols[i]].ty;
        if !push_bound(&mut ctx, e, ty, &mut prefix)? {
            return Ok(Vec::new());
        }
    }
    let batch = eval_lent(ranges, &mut ctx)?;
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
    outer: Option<Pair<'_>>,
) -> DbResult<Vec<Row>> {
    let right_rows = run_access(env, stats, subplans, right, outer, ALL)?;
    // The encoded key of `row` under `keys`; `None` when a key is NULL,
    // since NULL keys never join.
    let key_of =
        |stats: &mut ExecStats, keys: &[Expr], row: &[Value]| -> DbResult<Option<Vec<u8>>> {
            let mut vals = Vec::with_capacity(keys.len());
            for e in keys {
                vals.push(value(env, stats, subplans, e, Pair::one(row), outer)?);
            }
            Ok((!vals.iter().any(Value::is_null)).then(|| encode_key(&vals)))
        };
    // Build side: right table.
    let mut table: HashMap<Vec<u8>, Vec<usize>> = HashMap::new();
    for (i, rrow) in right_rows.iter().enumerate() {
        crate::governance::checkpoint(1)?;
        if let Some(key) = key_of(stats, right_keys, rrow)? {
            table.entry(key).or_default().push(i);
        }
    }
    let mut out = Vec::new();
    for lrow in &left_rows {
        crate::governance::checkpoint(1)?;
        let Some(key) = key_of(stats, left_keys, lrow)? else {
            continue;
        };
        let Some(matches) = table.get(&key) else {
            continue;
        };
        for &ri in matches {
            let pair = Pair {
                left: lrow,
                right: &right_rows[ri],
            };
            let keep = match residual {
                None => true,
                Some(pred) => holds(env, stats, subplans, pred, pair, outer)?,
            };
            if keep {
                out.push(pair.concat());
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
    outer: Option<Pair<'_>>,
) -> DbResult<Vec<Row>> {
    let rows = run_node(env, stats, subplans, input, outer, ALL)?;
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
            gvals.push(value(env, stats, subplans, e, Pair::one(row), outer)?);
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
                Some(e) => Some(value(env, stats, subplans, e, Pair::one(row), outer)?),
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
    row: Pair<'b>,
    outer: Option<Pair<'b>>,
    /// A subquery slot whose value the caller wants to see, and where
    /// evaluating it leaves the value (a [`Stop`]'s count).
    watch: Option<(usize, &'b mut Option<Value>)>,
}

/// Subquery slot `i`.
fn subplan(subplans: &[SelectPlan], i: usize) -> DbResult<&SelectPlan> {
    subplans
        .get(i)
        .ok_or_else(|| DbError::Eval(format!("subquery slot {i} out of range")))
}

impl EvalContext for Ctx<'_, '_> {
    fn column(&self, i: usize) -> DbResult<&Value> {
        self.row
            .get(i)
            .ok_or_else(|| DbError::Eval(format!("column index {i} out of range")))
    }

    fn outer_column(&self, i: usize) -> DbResult<&Value> {
        self.outer
            .and_then(|o| o.get(i))
            .ok_or_else(|| DbError::Eval(format!("outer column index {i} out of range")))
    }

    fn param(&self, i: usize) -> DbResult<&Value> {
        self.env
            .params
            .get(i)
            .ok_or_else(|| DbError::Eval(format!("parameter ?{} not supplied", i + 1)))
    }

    fn subquery(&mut self, i: usize) -> DbResult<Value> {
        self.stats.subquery_evals += 1;
        let plan = subplan(self.subplans, i)?;
        let rows = select(self.env, self.stats, plan, Some(self.row), ALL)?;
        let v = match rows.len() {
            0 => Value::Null,
            1 => {
                let row = rows.into_iter().next().expect("length checked");
                if row.len() != 1 {
                    return Err(DbError::Eval(format!(
                        "scalar subquery returned {} columns",
                        row.len()
                    )));
                }
                row.into_iter().next().expect("length checked")
            }
            n => return Err(DbError::Eval(format!("scalar subquery returned {n} rows"))),
        };
        if let Some((slot, seen)) = &mut self.watch {
            if *slot == i {
                **seen = Some(v.clone());
            }
        }
        Ok(v)
    }

    fn exists(&mut self, i: usize) -> DbResult<bool> {
        self.stats.subquery_evals += 1;
        let plan = subplan(self.subplans, i)?;
        // One row answers the question, so the subplan may stop at it.
        let rows = select(self.env, self.stats, plan, Some(self.row), 1)?;
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
