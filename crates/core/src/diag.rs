//! Per-operation diagnostics for the store layer.
//!
//! Every [`XmlStore`](crate::XmlStore) operation bottoms out in one or more
//! SQL statements against the relational engine. This module captures that
//! translation surface per call: the statements actually issued (repeats
//! included, e.g. one per tree level of a mediator climb), the engine's
//! execution counters merged across them, and — for queries — the engine's
//! rendered plan for each distinct statement. Updates additionally report the
//! paper's headline maintenance metric, the [`UpdateCost`] (rows inserted /
//! deleted / **relabeled** / auxiliary maintenance).

use crate::encoding::Encoding;
use crate::update::UpdateCost;
use ordxml_rdbms::{ExecStats, StatementTrace, Value};
use std::fmt;
use std::time::Duration;

/// One SQL statement issued on behalf of a store operation, aggregated over
/// its executions (a mediator climb, for one, re-executes the same statement
/// once per tree level).
#[derive(Debug, Clone, PartialEq)]
pub struct StatementProfile {
    /// The SQL text as issued to the engine.
    pub sql: String,
    /// Bound parameters of the first execution (repetitions bind different
    /// context values; these suffice to re-run or re-`EXPLAIN
    /// ANALYZE` one representative execution).
    pub params: Vec<Value>,
    /// How many times this exact statement text was executed.
    pub executions: u64,
    /// Total rows returned across executions (SELECTs).
    pub rows: u64,
    /// Total rows affected across executions (writes).
    pub rows_affected: u64,
    /// Total wall-clock time across executions.
    pub elapsed: Duration,
    /// Engine counters merged across executions.
    pub stats: ExecStats,
    /// The engine's rendered plan (`EXPLAIN`) for this statement; empty for
    /// statements the engine does not explain (DDL).
    pub plan: Vec<String>,
}

/// Diagnostics for one XPath query: its SQL translation surface and the
/// merged engine counters.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryDiagnostics {
    /// The XPath expression as submitted.
    pub expr: String,
    /// The store's order encoding.
    pub encoding: Encoding,
    /// Result nodes returned.
    pub rows: u64,
    /// Total statements executed (mediator repetitions included).
    pub statements_executed: u64,
    /// Total wall-clock time inside the engine.
    pub elapsed: Duration,
    /// Engine counters merged across all statements.
    pub stats: ExecStats,
    /// Per-distinct-statement breakdown, in first-execution order.
    pub statements: Vec<StatementProfile>,
    /// Rendered hierarchical span tree (store → translate → exec → btree /
    /// pager), one line per aggregated span path. Empty when tracing was
    /// already active on this thread or no spans fired.
    pub span_tree: Vec<String>,
}

/// Diagnostics for one ordered update: the paper's row-maintenance cost
/// plus the engine's execution counters.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateDiagnostics {
    /// A label for the operation (`insert`, `delete`, `move`, `text`).
    pub operation: String,
    /// The store's order encoding.
    pub encoding: Encoding,
    /// The paper's maintenance cost; `cost.relabeled` is the headline
    /// "rows renumbered by this update" metric.
    pub cost: UpdateCost,
    /// Total statements executed (node resolution included).
    pub statements_executed: u64,
    /// Total wall-clock time inside the engine.
    pub elapsed: Duration,
    /// Engine counters merged across all statements.
    pub stats: ExecStats,
}

impl fmt::Display for QueryDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "XPath {} ({}): {} rows, {} statement(s), {:.3?}",
            self.expr, self.encoding, self.rows, self.statements_executed, self.elapsed
        )?;
        for s in &self.statements {
            writeln!(f, "  [{}x] {}", s.executions, s.sql)?;
            for line in &s.plan {
                writeln!(f, "      {line}")?;
            }
        }
        if !self.span_tree.is_empty() {
            writeln!(f, "  span tree:")?;
            for line in &self.span_tree {
                writeln!(f, "    {line}")?;
            }
        }
        write!(
            f,
            "  counters: rows_scanned={} index_scans={} pages_read={} btree_descents={}",
            self.stats.rows_scanned,
            self.stats.index_scans,
            self.stats.pages_read,
            self.stats.btree_descents
        )
    }
}

impl fmt::Display for UpdateDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}): inserted={} deleted={} relabeled={} maintenance={} \
             | {} statement(s), {:.3?}, rows_written={} pages_written={} btree_splits={}",
            self.operation,
            self.encoding,
            self.cost.rows_inserted,
            self.cost.rows_deleted,
            self.cost.relabeled,
            self.cost.maintenance,
            self.statements_executed,
            self.elapsed,
            self.stats.rows_written,
            self.stats.pages_written,
            self.stats.btree_splits
        )
    }
}

/// Folds a raw statement trace into per-distinct-statement profiles plus
/// operation-wide totals, attaching engine plans for explainable statements.
///
/// `explain` renders the plan for one statement (empty for statements the
/// engine does not explain). It is a closure so callers choose the planning
/// surface: the snapshot read path explains against its committed catalog
/// without touching the live database, while traced updates explain against
/// the live database (which can plan write statements too).
pub(crate) fn fold_trace(
    mut explain: impl FnMut(&str, &[Value]) -> Vec<String>,
    trace: Vec<StatementTrace>,
) -> (Vec<StatementProfile>, ExecStats, Duration, u64) {
    let mut profiles: Vec<StatementProfile> = Vec::new();
    let mut totals = ExecStats::default();
    let mut elapsed = Duration::ZERO;
    let executed = trace.len() as u64;
    for t in trace {
        totals.merge(&t.stats);
        elapsed += t.elapsed;
        if let Some(p) = profiles.iter_mut().find(|p| p.sql == t.sql) {
            p.executions += 1;
            p.rows += t.rows;
            p.rows_affected += t.rows_affected;
            p.elapsed += t.elapsed;
            p.stats.merge(&t.stats);
        } else {
            let plan = explain(&t.sql, &t.params);
            profiles.push(StatementProfile {
                sql: t.sql,
                params: t.params,
                executions: 1,
                rows: t.rows,
                rows_affected: t.rows_affected,
                elapsed: t.elapsed,
                stats: t.stats,
                plan,
            });
        }
    }
    (profiles, totals, elapsed, executed)
}
