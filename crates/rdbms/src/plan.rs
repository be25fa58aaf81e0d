//! Query planning: name binding and physical plan construction.
//!
//! The planner turns a parsed [`SelectStmt`] into a left-deep physical plan:
//!
//! 1. **Bind** — column names resolve to positions in the *combined row*
//!    (the concatenation of the FROM tables' rows, in FROM order). Names
//!    that don't resolve locally resolve against the enclosing query's scope
//!    as [`Expr::OuterColumn`] (one level of correlation, which is what the
//!    XPath translation needs for position predicates).
//! 2. **Access-path selection** — for each table, the planner extracts
//!    sargable conjuncts (`col = x`, `col < x`, `BETWEEN`, ...) whose other
//!    side is available *before* the table is joined (constants, parameters,
//!    outer columns, columns of earlier FROM tables) and picks the index —
//!    primary key or secondary — with the longest equality prefix plus an
//!    optional range. A bound index access below a join *is* the
//!    index-nested-loop join. Equality conjuncts between a bound table and
//!    an unbound full scan become hash-join keys instead.
//! 3. **Order** — `ORDER BY` keys that match the first table's index-scan
//!    order are satisfied without a sort (left-deep joins here preserve
//!    left-input order); otherwise an explicit sort is planned before
//!    projection.
//!
//! Aggregate queries plan a hash aggregate; every non-aggregate output
//! expression must structurally match a `GROUP BY` expression.

use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use crate::expr::{BinOp, Expr};
use crate::sql::ast::{OrderItem, SelectItem, SelectStmt};
use crate::value::Value;

/// How a table's rows are fetched.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Scan the whole heap.
    FullScan,
    /// Scan an index range. `index` is `None` for the primary key.
    Index {
        /// `None` for the primary key, `Some(i)` for `table.indexes[i]`.
        index: Option<usize>,
        /// Equality values for a prefix of the index columns. Evaluated
        /// against the already-joined (left) row, so joins fall out of this.
        eq: Vec<Expr>,
        /// Optional lower bound on the next index column: `(expr, inclusive)`.
        lower: Option<(Expr, bool)>,
        /// Optional upper bound on the next index column.
        upper: Option<(Expr, bool)>,
        /// Scan direction.
        reverse: bool,
    },
    /// Scan a *batch* of ranges on the index column following the equality
    /// prefix, in one operator invocation: the union of the (merged,
    /// sorted) ranges, emitted in key order with one B+tree descent per
    /// disjoint range. Planned from a `MULTIRANGE(col, batch)` predicate;
    /// `ranges` evaluates to the encoded batch
    /// (see [`crate::value::encode_range_batch`]).
    MultiRange {
        /// `None` for the primary key, `Some(i)` for `table.indexes[i]`.
        index: Option<usize>,
        /// Equality values for a prefix of the index columns.
        eq: Vec<Expr>,
        /// The encoded `(lo, hi)` batch parameter.
        ranges: Expr,
    },
}

/// One table access (a scan producing that table's columns).
#[derive(Debug, Clone, PartialEq)]
pub struct Access {
    /// Table name in the catalog.
    pub table: String,
    /// How to fetch rows.
    pub path: AccessPath,
    /// Number of columns the table contributes to the combined row.
    pub width: usize,
}

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`: counts rows.
    CountStar,
    /// `COUNT(expr)`: counts non-NULL values.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)`.
    Avg,
}

/// One aggregate call: function + bound argument.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    /// Which aggregate.
    pub func: AggFunc,
    /// Argument expression (`None` for `COUNT(*)`).
    pub arg: Option<Expr>,
}

/// A physical plan node. Expressions inside a node are bound against the
/// node's *input* row layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Produces a single empty row (`SELECT 1`).
    OneRow,
    /// First table of the FROM list.
    Scan(Access),
    /// Left-deep join: for every left row, fetch matching `right` rows.
    /// When `hash_keys` is set (and the right path is a full scan) the join
    /// executes as a hash join; otherwise it is a (index-)nested-loop join.
    Join {
        /// The already-joined prefix.
        left: Box<Node>,
        /// The table being joined in.
        right: Access,
        /// Residual predicate over the concatenated row.
        residual: Option<Expr>,
        /// `(left key exprs, right key exprs)` for hash execution; right key
        /// expressions are bound against the right table's local row.
        hash_keys: Option<(Vec<Expr>, Vec<Expr>)>,
        /// The residual split for an index-nested-loop join: the conjuncts
        /// over the inner row alone that are checked on each inner record
        /// before it is decoded (see [`RecordFilter`]).
        record: Option<RecordFilter>,
        /// The residual conjunct that ends the inner walk for the current
        /// left row once it fails past its limit (see [`Stop`]).
        stop: Option<Box<Stop>>,
    },
    /// Row filter.
    Filter {
        /// Input node.
        input: Box<Node>,
        /// Keep rows where this evaluates to true.
        pred: Expr,
        /// For a filter directly over a scan, `pred` split so that some
        /// conjuncts are checked on each stored record before it is
        /// decoded (see [`RecordFilter`]).
        record: Option<RecordFilter>,
        /// For a filter directly over an index scan, the conjunct that ends
        /// the scan once it fails past its limit (see [`Stop`]).
        stop: Option<Box<Stop>>,
    },
    /// Hash aggregation. Output row layout: group-by values, then one column
    /// per aggregate.
    Aggregate {
        /// Input node.
        input: Box<Node>,
        /// Grouping keys.
        group_by: Vec<Expr>,
        /// Aggregates computed per group.
        aggs: Vec<AggCall>,
    },
    /// Full sort of the input.
    Sort {
        /// Input node.
        input: Box<Node>,
        /// `(key, descending)` pairs.
        keys: Vec<(Expr, bool)>,
    },
    /// Projection.
    Project {
        /// Input node.
        input: Box<Node>,
        /// Output expressions, one per column.
        exprs: Vec<Expr>,
    },
    /// Order-preserving duplicate elimination.
    Distinct {
        /// Input node.
        input: Box<Node>,
    },
    /// `LIMIT`/`OFFSET`.
    Limit {
        /// Input node.
        input: Box<Node>,
        /// Maximum rows to emit.
        limit: Option<Expr>,
        /// Rows to skip first.
        offset: Option<Expr>,
    },
}

/// A conjunct `column op operand` that the executor checks on a stored
/// record, before and instead of decoding it: `column` is one of the
/// scanned table's columns, and `operand` is known before the record is
/// read.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordTest {
    /// The scanned table's column (its table-local ordinal).
    pub col: usize,
    /// The comparison, with the column on its left.
    pub op: BinOp,
    /// What the column is compared with.
    pub operand: Operand,
}

/// The side of a [`RecordTest`] that is known before the record is read.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A literal.
    Literal(Value),
    /// Statement parameter `i`.
    Param(usize),
    /// Column `i` of the enclosing (correlated) row.
    Outer(usize),
    /// Column `i` of a join's left row, the already-joined prefix.
    Left(usize),
}

/// A predicate split once, at plan time, for the row path. `tests` are its
/// leading conjuncts that are [`RecordTest`]s, and `rest` the conjuncts
/// after them. A record is checked against `tests` in order where it lies
/// on its page; only one that passes them all is decoded, and then judged
/// by `rest`. When a test meets a NULL, a missing operand or a column and
/// an operand of kinds that do not compare, the record is decoded and the
/// whole predicate is evaluated. So conjuncts are judged in their written
/// order, and results and errors are exactly those of plain evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordFilter {
    /// The conjuncts checked on the stored record.
    pub tests: Vec<RecordTest>,
    /// The remaining conjuncts, over the decoded row (`None`: none).
    pub rest: Option<Expr>,
}

impl RecordFilter {
    /// Splits `pred`'s conjuncts for a scan of the table whose columns sit
    /// at `offset..offset + width` of the row `pred` reads; columns below
    /// `offset` are a join's left row. `None` when the first conjunct is
    /// not a [`RecordTest`].
    fn split(pred: &Expr, offset: usize, width: usize) -> Option<RecordFilter> {
        let column = |e: &Expr| match e {
            Expr::Column(i) if (offset..offset + width).contains(i) => Some(i - offset),
            _ => None,
        };
        let operand = |e: &Expr| match e {
            Expr::Literal(v) => Some(Operand::Literal(v.clone())),
            Expr::Param(i) => Some(Operand::Param(*i)),
            Expr::OuterColumn(i) => Some(Operand::Outer(*i)),
            Expr::Column(i) if *i < offset => Some(Operand::Left(*i)),
            _ => None,
        };
        let (mut tests, mut rest) = (Vec::new(), Vec::new());
        for c in pred.clone().conjuncts() {
            let test = match &c {
                _ if !rest.is_empty() => None,
                Expr::Binary(op, l, r) if op.is_comparison() => {
                    match (column(l), operand(r), column(r), operand(l)) {
                        (Some(col), Some(operand), ..) => Some(RecordTest {
                            col,
                            op: *op,
                            operand,
                        }),
                        (_, _, Some(col), Some(operand)) => Some(RecordTest {
                            col,
                            op: op.flipped(),
                            operand,
                        }),
                        _ => None,
                    }
                }
                _ => None,
            };
            match test {
                Some(t) => tests.push(t),
                None => rest.push(c),
            }
        }
        (!tests.is_empty()).then(|| RecordFilter {
            tests,
            rest: Expr::conjoin(rest),
        })
    }
}

/// A *monotone stop*: the conjunct `subquery $slot op limit` of a
/// predicate read along an index walk, where `$slot` is a range count
/// ([`SelectPlan::range_count`]) of the rows on one side of the walked row
/// in the walk's order column, and every other bound of the count is the
/// same for the whole walk. Along the walk that count never decreases, so
/// once the conjunct has failed because the count passed `limit`, no later
/// row can pass it and the walk ends (see [`Stop::ends_at`]). Placed by
/// [`place_stops`].
#[derive(Debug, Clone, PartialEq)]
pub struct Stop {
    /// The range-count subquery's slot.
    pub slot: usize,
    /// `=`, `<` or `<=`, with the count on its left.
    pub op: BinOp,
    /// What the count is compared with: a literal or a parameter.
    pub limit: Expr,
    /// The count is of the rows *after* the walked row, so the pass flipped
    /// the scan to walk its range backwards.
    pub backward: bool,
}

impl Stop {
    /// Whether a count of `count`, for which the conjunct was just judged,
    /// ends the walk: the conjunct fails for it and for every larger count.
    /// `false` when the limit is NULL or does not compare with a count.
    pub fn ends_at(&self, count: &Value, params: &[Value]) -> bool {
        let limit = match &self.limit {
            Expr::Literal(v) => Some(v),
            Expr::Param(i) => params.get(*i),
            _ => None,
        };
        match limit.and_then(|l| count.sql_cmp(l)) {
            Some(ord) if self.op == BinOp::Lt => ord != std::cmp::Ordering::Less,
            Some(ord) => ord == std::cmp::Ordering::Greater,
            None => false,
        }
    }
}

impl std::fmt::Display for Stop {
    /// The condition that ends the walk, e.g. `stop once subquery $0 > ?10`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let past = if self.op == BinOp::Lt { ">=" } else { ">" };
        write!(f, "stop once subquery ${} {past} {}", self.slot, self.limit)?;
        if self.backward {
            f.write_str(", backward")?;
        }
        Ok(())
    }
}

impl Node {
    /// A filter over `input`, split for the row path when `input` is a
    /// scan.
    fn filter(input: Node, pred: Expr) -> Node {
        let record = match &input {
            Node::Scan(a) => RecordFilter::split(&pred, 0, a.width),
            _ => None,
        };
        Node::Filter {
            input: Box::new(input),
            pred,
            record,
            stop: None,
        }
    }

    /// The projected expressions and the scanned access of a
    /// `LIMIT`/`OFFSET` that reads only its window of an index range: `Limit` directly over `Project` over a
    /// single-range index scan (either direction), with no filter, sort or
    /// distinct between them. The executor walks such a range lazily,
    /// skips `OFFSET` index entries without fetching their rows, and stops
    /// after `LIMIT` fetches.
    pub fn index_window(&self) -> Option<(&[Expr], &Access)> {
        let Node::Limit { input, .. } = self else {
            return None;
        };
        let Node::Project { input, exprs } = &**input else {
            return None;
        };
        match &**input {
            Node::Scan(access) if matches!(access.path, AccessPath::Index { .. }) => {
                Some((exprs, access))
            }
            _ => None,
        }
    }
}

/// A fully planned `SELECT`: the root node plus subplans for the statement's
/// scalar/EXISTS subqueries (indexed by `Expr::Subquery`/`Expr::Exists` slot).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectPlan {
    /// The plan tree.
    pub root: Node,
    /// Plans for the statement's subquery slots.
    pub subplans: Vec<SelectPlan>,
    /// Output column names.
    pub columns: Vec<String>,
    /// `true` when the statement had an `ORDER BY` that the chosen index
    /// scan order already satisfies (so no [`Node::Sort`] was planned).
    pub sort_elided: bool,
    /// `true` for a correlated subplan that is a *range count*: `COUNT(*)`
    /// over one index range, with a residual filter that depends on the
    /// candidate row alone (see [`SelectPlan::range_count_parts`]). The
    /// executor answers such a subplan from a per-statement memo of the
    /// index keys it has already counted.
    pub range_count: bool,
}

impl SelectPlan {
    /// The index access and the optional residual filter (with its record
    /// split) of a range-count subplan, or `None` when
    /// [`SelectPlan::range_count`] is not set.
    pub fn range_count_parts(&self) -> Option<(&Access, Option<Filtered<'_>>)> {
        if !self.range_count {
            return None;
        }
        range_count_shape(&self.root)
    }
}

/// A filter's predicate and its record split.
pub type Filtered<'p> = (&'p Expr, Option<&'p RecordFilter>);

/// Matches `Project[#0]` over `Aggregate[COUNT(*)]` (no `GROUP BY`) over an
/// optional `Filter` over a single-range index scan, returning the scan and
/// the filter. The range's bounds may reference the outer row; whether the
/// filter does is for the caller to check.
fn range_count_shape(root: &Node) -> Option<(&Access, Option<Filtered<'_>>)> {
    let Node::Project { input, exprs } = root else {
        return None;
    };
    let Node::Aggregate {
        input,
        group_by,
        aggs,
    } = &**input
    else {
        return None;
    };
    let count_star = matches!(
        aggs.as_slice(),
        [AggCall {
            func: AggFunc::CountStar,
            ..
        }]
    );
    if exprs.as_slice() != [Expr::Column(0)] || !group_by.is_empty() || !count_star {
        return None;
    }
    let (scan, filter) = match &**input {
        Node::Filter {
            input,
            pred,
            record,
            ..
        } => (&**input, Some((pred, record.as_ref()))),
        other => (other, None),
    };
    match scan {
        Node::Scan(access) if matches!(access.path, AccessPath::Index { .. }) => {
            Some((access, filter))
        }
        _ => None,
    }
}

/// Whether a correlated subplan's root can run as a memoised range count:
/// it has the [`range_count_shape`], and its filter reads neither the outer
/// row nor a subquery, so a row passes it for the whole statement or never.
fn is_range_count(root: &Node) -> bool {
    let Some((_, filter)) = range_count_shape(root) else {
        return false;
    };
    let mut pure = true;
    if let Some((pred, _)) = filter {
        pred.visit(&mut |e| {
            if matches!(
                e,
                Expr::OuterColumn(_) | Expr::Subquery(_) | Expr::Exists(_)
            ) {
                pure = false;
            }
        });
    }
    pure
}

/// A binding scope: the combined-row layout of a query.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    /// `(table alias, column name)` per combined-row position.
    pub cols: Vec<(String, String)>,
}

impl Scope {
    /// Resolves `name` (`col` or `alias.col`) to a combined-row position.
    pub fn resolve(&self, name: &str) -> DbResult<usize> {
        let (qualifier, col) = match name.split_once('.') {
            Some((q, c)) => (Some(q), c),
            None => (None, name),
        };
        let mut found = None;
        for (i, (alias, cname)) in self.cols.iter().enumerate() {
            if !cname.eq_ignore_ascii_case(col) {
                continue;
            }
            if let Some(q) = qualifier {
                if !alias.eq_ignore_ascii_case(q) {
                    continue;
                }
            }
            if found.is_some() {
                return Err(DbError::Schema(format!("ambiguous column `{name}`")));
            }
            found = Some(i);
        }
        found.ok_or_else(|| DbError::Unknown(format!("column `{name}`")))
    }
}

/// Plans a `SELECT` statement. `subqueries` is the statement's hoisted
/// subquery list (see [`crate::sql::ast::ParsedStmt`]); `outer` is the
/// enclosing scope when planning a correlated subquery.
pub fn plan_select(
    catalog: &Catalog,
    stmt: &SelectStmt,
    subqueries: &[SelectStmt],
    outer: Option<&Scope>,
) -> DbResult<SelectPlan> {
    Planner {
        catalog,
        subqueries,
        subplans: vec![None; subqueries.len()],
    }
    .plan(stmt, outer)
}

struct Planner<'a> {
    catalog: &'a Catalog,
    subqueries: &'a [SelectStmt],
    subplans: Vec<Option<SelectPlan>>,
}

impl<'a> Planner<'a> {
    fn plan(mut self, stmt: &SelectStmt, outer: Option<&Scope>) -> DbResult<SelectPlan> {
        let (root, columns, sort_elided) = self.plan_query(stmt, outer)?;
        // Slots not referenced from *this* query block (e.g. slots that belong
        // to the enclosing statement when this is itself a subquery) get inert
        // placeholders; they are never executed through this plan.
        let subplans = self
            .subplans
            .into_iter()
            .map(|p| {
                p.unwrap_or(SelectPlan {
                    root: Node::OneRow,
                    subplans: Vec::new(),
                    columns: Vec::new(),
                    sort_elided: false,
                    range_count: false,
                })
            })
            .collect::<Vec<_>>();
        let range_count = outer.is_some() && is_range_count(&root);
        Ok(SelectPlan {
            root,
            subplans,
            columns,
            sort_elided,
            range_count,
        })
    }

    /// Plans one query block; returns the root node, output column names,
    /// and whether an `ORDER BY` sort was elided by index order.
    fn plan_query(
        &mut self,
        stmt: &SelectStmt,
        outer: Option<&Scope>,
    ) -> DbResult<(Node, Vec<String>, bool)> {
        // ---------------- FROM scope ----------------
        let mut scope = Scope::default();
        let mut tables = Vec::new(); // (alias, table name, width, offset)
        for tref in &stmt.from {
            let t = self.catalog.table(&tref.table)?;
            if tables
                .iter()
                .any(|(a, _, _, _): &(String, String, usize, usize)| {
                    a.eq_ignore_ascii_case(&tref.alias)
                })
            {
                return Err(DbError::Schema(format!(
                    "duplicate table alias `{}`",
                    tref.alias
                )));
            }
            let offset = scope.cols.len();
            for c in &t.schema.columns {
                scope.cols.push((tref.alias.clone(), c.name.clone()));
            }
            tables.push((
                tref.alias.clone(),
                tref.table.to_ascii_lowercase(),
                t.schema.columns.len(),
                offset,
            ));
        }

        // ---------------- WHERE ----------------
        let mut conjuncts: Vec<Expr> = Vec::new();
        if let Some(w) = &stmt.where_clause {
            for c in w.clone().conjuncts() {
                let bound = self.bind(c, &scope, outer)?;
                if contains_aggregate(&bound) {
                    return Err(DbError::Schema(
                        "aggregate functions are not allowed in WHERE".into(),
                    ));
                }
                conjuncts.push(bound);
            }
        }

        // ---------------- join tree ----------------
        let mut root = if tables.is_empty() {
            if !conjuncts.is_empty() {
                // WHERE without FROM: filter over the single empty row.
                let pred = Expr::conjoin(std::mem::take(&mut conjuncts)).expect("non-empty");
                Node::filter(Node::OneRow, pred)
            } else {
                Node::OneRow
            }
        } else {
            self.build_joins(&tables, &mut conjuncts)?
        };
        // Conjuncts that could not be placed inside the join tree (those
        // containing subqueries, whose correlated references need the full
        // combined row) run as a final filter.
        if !tables.is_empty() {
            if let Some(pred) = Expr::conjoin(std::mem::take(&mut conjuncts)) {
                root = Node::filter(root, pred);
            }
        }
        // Before ORDER BY: a scan the stops flip to walk backwards keeps
        // its sort.
        place_stops(self.catalog, &self.subplans, &mut root);

        // ---------------- aggregates ----------------
        let has_aggregate = stmt.items.iter().any(
            |i| matches!(i, SelectItem::Expr { expr, .. } if contains_aggregate_unbound(expr)),
        ) || !stmt.group_by.is_empty();

        let (mut root, out_exprs, out_names, agg_shape) = if has_aggregate {
            let (node, out_exprs, names) = self.plan_aggregate(stmt, root, &scope, outer)?;
            let shape = match &node {
                Node::Aggregate { group_by, aggs, .. } => Some((group_by.clone(), aggs.clone())),
                _ => unreachable!("plan_aggregate returns an Aggregate node"),
            };
            (node, out_exprs, names, shape)
        } else {
            // Plain projection.
            let mut exprs = Vec::new();
            let mut names = Vec::new();
            for item in &stmt.items {
                match item {
                    SelectItem::Star => {
                        for (i, (_, cname)) in scope.cols.iter().enumerate() {
                            exprs.push(Expr::Column(i));
                            names.push(cname.clone());
                        }
                    }
                    SelectItem::QualifiedStar(alias) => {
                        let mut any = false;
                        for (i, (a, cname)) in scope.cols.iter().enumerate() {
                            if a.eq_ignore_ascii_case(alias) {
                                exprs.push(Expr::Column(i));
                                names.push(cname.clone());
                                any = true;
                            }
                        }
                        if !any {
                            return Err(DbError::Unknown(format!("table alias `{alias}`")));
                        }
                    }
                    SelectItem::Expr { expr, alias } => {
                        let bound = self.bind(expr.clone(), &scope, outer)?;
                        names.push(alias.clone().unwrap_or_else(|| display_name(expr)));
                        exprs.push(bound);
                    }
                }
            }
            (root, exprs, names, None)
        };

        // ---------------- ORDER BY ----------------
        let mut sort_elided = false;
        if !stmt.order_by.is_empty() {
            let keys = self.bind_order_keys(
                &stmt.order_by,
                stmt,
                &scope,
                outer,
                &out_exprs,
                agg_shape.as_ref(),
            )?;
            if sort_satisfied_by_plan(self.catalog, &root, &keys)
                || reverse_leftmost_scan(self.catalog, &mut root, &keys)
            {
                sort_elided = true;
            } else {
                root = Node::Sort {
                    input: Box::new(root),
                    keys,
                };
            }
        }

        // ---------------- project / distinct / limit ----------------
        root = Node::Project {
            input: Box::new(root),
            exprs: out_exprs,
        };
        if stmt.distinct {
            root = Node::Distinct {
                input: Box::new(root),
            };
        }
        if stmt.limit.is_some() || stmt.offset.is_some() {
            let limit = stmt
                .limit
                .as_ref()
                .map(|e| self.bind_const(e.clone()))
                .transpose()?;
            let offset = stmt
                .offset
                .as_ref()
                .map(|e| self.bind_const(e.clone()))
                .transpose()?;
            root = Node::Limit {
                input: Box::new(root),
                limit,
                offset,
            };
        }
        Ok((root, out_names, sort_elided))
    }

    /// Builds the left-deep join tree, consuming sargable conjuncts into
    /// access paths and the rest into residual filters.
    fn build_joins(
        &mut self,
        tables: &[(String, String, usize, usize)],
        conjuncts: &mut Vec<Expr>,
    ) -> DbResult<Node> {
        let mut root: Option<Node> = None;
        let mut joined_width = 0usize;
        for (level, (_alias, tname, width, offset)) in tables.iter().enumerate() {
            let table = self.catalog.table(tname)?;
            // Partition the remaining conjuncts: those fully evaluable once
            // this table is joined.
            let avail_width = joined_width + width;
            let (mut level_conjuncts, rest): (Vec<Expr>, Vec<Expr>) =
                std::mem::take(conjuncts).into_iter().partition(|c| {
                    self.effective_max_column(c)
                        .map_or(level == 0, |m| m < avail_width)
                });
            *conjuncts = rest;
            // Pick the access path for this table.
            let path =
                choose_access_path(table, *offset, *width, joined_width, &mut level_conjuncts);
            let access = Access {
                table: tname.clone(),
                path,
                width: *width,
            };
            // Hash-join keys: equi conjuncts left-col = right-col when the
            // right side is a full scan.
            let mut hash_keys = None;
            if level > 0 && access.path == AccessPath::FullScan {
                let mut lk = Vec::new();
                let mut rk = Vec::new();
                let mut remaining = Vec::new();
                for c in level_conjuncts.drain(..) {
                    if let Expr::Binary(BinOp::Eq, a, b) = &c {
                        let (la, lb) = (max_column(a), max_column(b));
                        let local = |m: Option<usize>| {
                            m.is_some_and(|i| i >= joined_width && i < avail_width)
                        };
                        let outer_side = |e: &Expr| max_column(e).is_none_or(|i| i < joined_width);
                        if local(lb)
                            && min_column(b).is_none_or(|i| i >= joined_width)
                            && outer_side(a)
                        {
                            lk.push((**a).clone());
                            rk.push(shift_columns((**b).clone(), joined_width));
                            continue;
                        }
                        if local(la)
                            && min_column(a).is_none_or(|i| i >= joined_width)
                            && outer_side(b)
                        {
                            lk.push((**b).clone());
                            rk.push(shift_columns((**a).clone(), joined_width));
                            continue;
                        }
                    }
                    remaining.push(c);
                }
                level_conjuncts = remaining;
                if !lk.is_empty() {
                    hash_keys = Some((lk, rk));
                }
            }
            let residual = Expr::conjoin(level_conjuncts);
            root = Some(match root {
                None => {
                    let scan = Node::Scan(access);
                    match residual {
                        Some(pred) => Node::filter(scan, pred),
                        None => scan,
                    }
                }
                Some(left) => {
                    let probed = access.path != AccessPath::FullScan;
                    let record = residual
                        .as_ref()
                        .filter(|_| probed)
                        .and_then(|r| RecordFilter::split(r, joined_width, *width));
                    Node::Join {
                        left: Box::new(left),
                        right: access,
                        residual,
                        hash_keys,
                        record,
                        stop: None,
                    }
                }
            });
            joined_width = avail_width;
        }
        Ok(root.expect("at least one table"))
    }

    /// Plans the aggregate pipeline; returns (node, output exprs over the
    /// aggregate's output row, output names).
    fn plan_aggregate(
        &mut self,
        stmt: &SelectStmt,
        input: Node,
        scope: &Scope,
        outer: Option<&Scope>,
    ) -> DbResult<(Node, Vec<Expr>, Vec<String>)> {
        let group_by: Vec<Expr> = stmt
            .group_by
            .iter()
            .map(|e| self.bind(e.clone(), scope, outer))
            .collect::<DbResult<_>>()?;
        let mut aggs: Vec<AggCall> = Vec::new();
        let mut out_exprs = Vec::new();
        let mut out_names = Vec::new();
        for item in &stmt.items {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(DbError::Schema(
                    "`*` cannot be combined with aggregates".into(),
                ));
            };
            let bound = self.bind(expr.clone(), scope, outer)?;
            let mapped = rewrite_for_aggregate(bound, &group_by, &mut aggs)?;
            out_names.push(alias.clone().unwrap_or_else(|| display_name(expr)));
            out_exprs.push(mapped);
        }
        let node = Node::Aggregate {
            input: Box::new(input),
            group_by,
            aggs,
        };
        Ok((node, out_exprs, out_names))
    }

    fn bind_order_keys(
        &mut self,
        order_by: &[OrderItem],
        stmt: &SelectStmt,
        scope: &Scope,
        outer: Option<&Scope>,
        out_exprs: &[Expr],
        agg_shape: Option<&(Vec<Expr>, Vec<AggCall>)>,
    ) -> DbResult<Vec<(Expr, bool)>> {
        let mut keys = Vec::new();
        for item in order_by {
            // Positional: ORDER BY 2.
            if let Expr::Literal(crate::value::Value::Int(k)) = &item.expr {
                let idx = usize::try_from(*k)
                    .ok()
                    .and_then(|k| k.checked_sub(1))
                    .filter(|&i| i < out_exprs.len())
                    .ok_or_else(|| {
                        DbError::Schema(format!("ORDER BY position {k} out of range"))
                    })?;
                keys.push((out_exprs[idx].clone(), item.desc));
                continue;
            }
            // Alias reference: ORDER BY alias.
            if let Expr::Name(n) = &item.expr {
                if let Some(idx) = stmt.items.iter().position(|i| {
                    matches!(i, SelectItem::Expr { alias: Some(a), .. } if a.eq_ignore_ascii_case(n))
                }) {
                    keys.push((out_exprs[idx].clone(), item.desc));
                    continue;
                }
            }
            if let Some((group_by, aggs)) = agg_shape {
                // Rebind against the aggregate output: the key must map to a
                // GROUP BY expression or an already-computed aggregate.
                let bound = self.bind(item.expr.clone(), scope, outer)?;
                let mut probe = aggs.clone();
                let mapped = rewrite_for_aggregate(bound, group_by, &mut probe)?;
                if probe.len() != aggs.len() {
                    return Err(DbError::Unsupported(
                        "ORDER BY in an aggregate query must reference a \
                         GROUP BY column, a selected aggregate, an output \
                         alias, or a position"
                            .into(),
                    ));
                }
                keys.push((mapped, item.desc));
                continue;
            }
            keys.push((self.bind(item.expr.clone(), scope, outer)?, item.desc));
        }
        Ok(keys)
    }

    /// Binds an expression: resolves names against `scope` (falling back to
    /// `outer` as correlation) and plans subquery slots.
    fn bind(&mut self, expr: Expr, scope: &Scope, outer: Option<&Scope>) -> DbResult<Expr> {
        // Plan any subquery slots reachable from this expression first.
        let mut slots = Vec::new();
        expr.visit(&mut |e| {
            if let Expr::Subquery(s) | Expr::Exists(s) = e {
                slots.push(*s);
            }
        });
        for slot in slots {
            if self.subplans[slot].is_none() {
                if outer.is_some() {
                    return Err(DbError::Unsupported(
                        "subqueries nested more than one level deep".into(),
                    ));
                }
                let sub = plan_select(
                    self.catalog,
                    &self.subqueries[slot].clone(),
                    self.subqueries,
                    Some(scope),
                )?;
                self.subplans[slot] = Some(sub);
            }
        }
        expr.map(&mut |e| match e {
            Expr::Name(n) => match scope.resolve(&n) {
                Ok(i) => Ok(Expr::Column(i)),
                Err(err) => {
                    if let Some(o) = outer {
                        if let Ok(i) = o.resolve(&n) {
                            return Ok(Expr::OuterColumn(i));
                        }
                    }
                    Err(err)
                }
            },
            other => Ok(other),
        })
    }

    /// The largest combined-row column a conjunct depends on, *including*
    /// the outer-column references of any subqueries it contains (their
    /// `OuterColumn`s index this query's combined row). Determines the
    /// earliest join level the conjunct can run at.
    fn effective_max_column(&self, e: &Expr) -> Option<usize> {
        let mut max = max_column(e);
        let mut bump = |m: Option<usize>| {
            if let Some(m) = m {
                max = Some(max.map_or(m, |cur| cur.max(m)));
            }
        };
        e.visit(&mut |x| {
            if let Expr::Subquery(s) | Expr::Exists(s) = x {
                if let Some(Some(plan)) = self.subplans.get(*s) {
                    bump(max_outer_column_of_plan(plan));
                }
            }
        });
        max
    }

    /// Binds an expression that must be constant (LIMIT/OFFSET).
    fn bind_const(&mut self, expr: Expr) -> DbResult<Expr> {
        if !expr.is_const() {
            return Err(DbError::Schema(
                "LIMIT/OFFSET must be a constant expression".into(),
            ));
        }
        Ok(expr)
    }
}

/// Largest `Column` index referenced, if any. (`OuterColumn` and `Param` do
/// not count: they are available before any table is joined.)
fn max_column(e: &Expr) -> Option<usize> {
    let mut max = None;
    e.visit(&mut |x| {
        if let Expr::Column(i) = x {
            max = Some(max.map_or(*i, |m: usize| m.max(*i)));
        }
    });
    max
}

/// Smallest `Column` index referenced, if any.
fn min_column(e: &Expr) -> Option<usize> {
    let mut min: Option<usize> = None;
    e.visit(&mut |x| {
        if let Expr::Column(i) = x {
            min = Some(min.map_or(*i, |m| m.min(*i)));
        }
    });
    min
}

/// Shifts every `Column(i)` down by `delta` (used to rebase an expression
/// onto a table-local row).
fn shift_columns(e: Expr, delta: usize) -> Expr {
    e.map(&mut |x| {
        Ok(match x {
            Expr::Column(i) => Expr::Column(i - delta),
            other => other,
        })
    })
    .expect("shift cannot fail")
}

/// Applies `f` to every expression embedded in a plan tree.
fn walk_plan_exprs(node: &Node, f: &mut impl FnMut(&Expr)) {
    let walk_access = |a: &Access, f: &mut dyn FnMut(&Expr)| match &a.path {
        AccessPath::Index {
            eq, lower, upper, ..
        } => {
            for e in eq {
                e.visit(&mut |x| f(x));
            }
            if let Some((e, _)) = lower {
                e.visit(&mut |x| f(x));
            }
            if let Some((e, _)) = upper {
                e.visit(&mut |x| f(x));
            }
        }
        AccessPath::MultiRange { eq, ranges, .. } => {
            for e in eq {
                e.visit(&mut |x| f(x));
            }
            ranges.visit(&mut |x| f(x));
        }
        AccessPath::FullScan => {}
    };
    match node {
        Node::OneRow => {}
        Node::Scan(a) => walk_access(a, f),
        Node::Join {
            left,
            right,
            residual,
            hash_keys,
            ..
        } => {
            walk_plan_exprs(left, f);
            walk_access(right, f);
            if let Some(r) = residual {
                r.visit(f);
            }
            if let Some((lk, rk)) = hash_keys {
                for e in lk.iter().chain(rk) {
                    e.visit(f);
                }
            }
        }
        Node::Filter { input, pred, .. } => {
            pred.visit(f);
            walk_plan_exprs(input, f);
        }
        Node::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            for e in group_by {
                e.visit(f);
            }
            for a in aggs {
                if let Some(e) = &a.arg {
                    e.visit(f);
                }
            }
            walk_plan_exprs(input, f);
        }
        Node::Sort { input, keys } => {
            for (e, _) in keys {
                e.visit(f);
            }
            walk_plan_exprs(input, f);
        }
        Node::Project { input, exprs } => {
            for e in exprs {
                e.visit(f);
            }
            walk_plan_exprs(input, f);
        }
        Node::Distinct { input } => walk_plan_exprs(input, f),
        Node::Limit {
            input,
            limit,
            offset,
        } => {
            if let Some(e) = limit {
                e.visit(f);
            }
            if let Some(e) = offset {
                e.visit(f);
            }
            walk_plan_exprs(input, f);
        }
    }
}

/// The largest `OuterColumn` index a subplan references, if any.
fn max_outer_column_of_plan(plan: &SelectPlan) -> Option<usize> {
    let mut max: Option<usize> = None;
    walk_plan_exprs(&plan.root, &mut |e| {
        if let Expr::OuterColumn(i) = e {
            max = Some(max.map_or(*i, |m| m.max(*i)));
        }
    });
    max
}

fn contains_aggregate(e: &Expr) -> bool {
    let mut has = false;
    e.visit(&mut |x| {
        if let Expr::Func { name, .. } = x {
            if agg_func(name).is_some() {
                has = true;
            }
        }
    });
    has
}

fn contains_aggregate_unbound(e: &Expr) -> bool {
    contains_aggregate(e)
}

fn agg_func(name: &str) -> Option<AggFunc> {
    match name {
        "COUNT" => Some(AggFunc::Count),
        "SUM" => Some(AggFunc::Sum),
        "MIN" => Some(AggFunc::Min),
        "MAX" => Some(AggFunc::Max),
        "AVG" => Some(AggFunc::Avg),
        _ => None,
    }
}

/// Rewrites a bound select-item expression for evaluation over the aggregate
/// output row: group-by subexpressions become columns `0..G`, aggregate calls
/// become columns `G..G+A` (appending to `aggs` as encountered).
fn rewrite_for_aggregate(expr: Expr, group_by: &[Expr], aggs: &mut Vec<AggCall>) -> DbResult<Expr> {
    // Check group-by match at every level, starting with the whole expression.
    if let Some(i) = group_by.iter().position(|g| *g == expr) {
        return Ok(Expr::Column(i));
    }
    match expr {
        Expr::Func {
            name,
            mut args,
            star,
        } => {
            let Some(func) = agg_func(&name) else {
                return Err(DbError::Unsupported(format!("scalar function `{name}`")));
            };
            let call = if star {
                if func != AggFunc::Count {
                    return Err(DbError::Schema(format!("{name}(*) is not valid")));
                }
                AggCall {
                    func: AggFunc::CountStar,
                    arg: None,
                }
            } else {
                if args.len() != 1 {
                    return Err(DbError::Schema(format!(
                        "{name} takes exactly one argument"
                    )));
                }
                let arg = args.pop().expect("checked length");
                if contains_aggregate(&arg) {
                    return Err(DbError::Schema("nested aggregates".into()));
                }
                AggCall {
                    func,
                    arg: Some(arg),
                }
            };
            let idx = match aggs.iter().position(|a| *a == call) {
                Some(i) => i,
                None => {
                    aggs.push(call);
                    aggs.len() - 1
                }
            };
            Ok(Expr::Column(group_by.len() + idx))
        }
        Expr::Column(_) | Expr::OuterColumn(_) => Err(DbError::Schema(
            "column must appear in GROUP BY or inside an aggregate".into(),
        )),
        Expr::Literal(v) => Ok(Expr::Literal(v)),
        Expr::Param(i) => Ok(Expr::Param(i)),
        Expr::Unary(op, e) => Ok(Expr::Unary(
            op,
            Box::new(rewrite_for_aggregate(*e, group_by, aggs)?),
        )),
        Expr::Binary(op, l, r) => Ok(Expr::Binary(
            op,
            Box::new(rewrite_for_aggregate(*l, group_by, aggs)?),
            Box::new(rewrite_for_aggregate(*r, group_by, aggs)?),
        )),
        other => Err(DbError::Unsupported(format!(
            "expression {other:?} in an aggregate query"
        ))),
    }
}

/// Extracts the best index access path for one table, removing the conjuncts
/// it consumes from `conjuncts`.
///
/// `offset`/`width` locate the table's columns inside the combined row;
/// `left_width` is the width of the already-joined prefix (bound expressions
/// may reference only columns `< left_width`).
fn choose_access_path(
    table: &crate::catalog::Table,
    offset: usize,
    width: usize,
    left_width: usize,
    conjuncts: &mut Vec<Expr>,
) -> AccessPath {
    // Candidate sargable conjuncts per local column: (conjunct idx, op, bound expr).
    struct Sarg {
        conjunct: usize,
        col: usize, // local column index
        op: BinOp,
        bound: Expr,
        /// Second bound for BETWEEN.
        bound2: Option<Expr>,
    }
    let local_col = |e: &Expr| -> Option<usize> {
        if let Expr::Column(i) = e {
            if *i >= offset && *i < offset + width {
                return Some(*i - offset);
            }
        }
        None
    };
    let is_available = |e: &Expr| max_column(e).is_none_or(|m| m < left_width);
    let mut sargs: Vec<Sarg> = Vec::new();
    // `MULTIRANGE(col, batch)` predicates: (conjunct idx, local col, batch).
    let mut mr_sargs: Vec<(usize, usize, Expr)> = Vec::new();
    for (ci, c) in conjuncts.iter().enumerate() {
        match c {
            Expr::Func { name, args, star } if name == "MULTIRANGE" && !*star => {
                if let [col_expr, batch] = args.as_slice() {
                    if let (Some(col), true) = (local_col(col_expr), is_available(batch)) {
                        mr_sargs.push((ci, col, batch.clone()));
                    }
                }
            }
            Expr::Binary(op, l, r)
                if matches!(
                    op,
                    BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
                ) =>
            {
                if let (Some(col), true) = (local_col(l), is_available(r)) {
                    sargs.push(Sarg {
                        conjunct: ci,
                        col,
                        op: *op,
                        bound: (**r).clone(),
                        bound2: None,
                    });
                } else if let (Some(col), true) = (local_col(r), is_available(l)) {
                    sargs.push(Sarg {
                        conjunct: ci,
                        col,
                        op: op.flipped(),
                        bound: (**l).clone(),
                        bound2: None,
                    });
                }
            }
            Expr::Between {
                expr,
                low,
                high,
                negated: false,
            } => {
                if let (Some(col), true, true) =
                    (local_col(expr), is_available(low), is_available(high))
                {
                    sargs.push(Sarg {
                        conjunct: ci,
                        col,
                        op: BinOp::Ge, // plus Le via bound2
                        bound: (**low).clone(),
                        bound2: Some((**high).clone()),
                    });
                }
            }
            _ => {}
        }
    }
    if sargs.is_empty() && mr_sargs.is_empty() {
        return AccessPath::FullScan;
    }
    // Candidate indexes: PK (None) and secondaries.
    let mut candidates: Vec<(Option<usize>, &[usize])> = Vec::new();
    if !table.schema.primary_key.is_empty() {
        candidates.push((None, &table.schema.primary_key));
    }
    for (i, (def, _)) in table.indexes.iter().enumerate() {
        candidates.push((Some(i), &def.columns));
    }
    /// One candidate plan: index id, consumed eq conjunct ids, lower/upper
    /// range conjunct ids, and its score.
    struct Candidate {
        idx: Option<usize>,
        eq_ids: Vec<usize>,
        lower_id: Option<usize>,
        upper_id: Option<usize>,
        mr_id: Option<usize>,
        score: usize,
    }
    let mut best: Option<Candidate> = None;
    for (idx_id, cols) in candidates {
        let mut eq_ids = Vec::new();
        let mut lower_id = None;
        let mut upper_id = None;
        let mut mr_id = None;
        for &col in cols {
            if let Some(s) = sargs
                .iter()
                .find(|s| s.col == col && s.op == BinOp::Eq && !eq_ids.contains(&s.conjunct))
            {
                eq_ids.push(s.conjunct);
                continue;
            }
            // No equality on this column: a range batch beats single
            // bounds (it pins the column exactly); otherwise take at most
            // one lower and one upper bound (a BETWEEN supplies both at
            // once). Either way the prefix ends here.
            if let Some((ci, _, _)) = mr_sargs.iter().find(|(_, c, _)| *c == col) {
                mr_id = Some(*ci);
                break;
            }
            lower_id = sargs
                .iter()
                .find(|s| s.col == col && matches!(s.op, BinOp::Gt | BinOp::Ge))
                .map(|s| s.conjunct);
            upper_id = sargs
                .iter()
                .find(|s| {
                    s.col == col
                        && (matches!(s.op, BinOp::Lt | BinOp::Le)
                            || (s.op == BinOp::Ge
                                && s.bound2.is_some()
                                && Some(s.conjunct) == lower_id))
                })
                .map(|s| s.conjunct);
            break;
        }
        let score = eq_ids.len() * 2
            + usize::from(lower_id.is_some())
            + usize::from(upper_id.is_some())
            + 3 * usize::from(mr_id.is_some());
        if score > 0 && best.as_ref().is_none_or(|b| score > b.score) {
            best = Some(Candidate {
                idx: idx_id,
                eq_ids,
                lower_id,
                upper_id,
                mr_id,
                score,
            });
        }
    }
    let Some(Candidate {
        idx: idx_id,
        eq_ids,
        lower_id,
        upper_id,
        mr_id,
        ..
    }) = best
    else {
        return AccessPath::FullScan;
    };
    // Assemble the path and drop consumed conjuncts.
    let mut eq = Vec::new();
    for &ci in &eq_ids {
        let s = sargs
            .iter()
            .find(|s| s.conjunct == ci && s.op == BinOp::Eq)
            .expect("recorded above");
        eq.push(s.bound.clone());
    }
    if let Some(mr_ci) = mr_id {
        let (_, _, ranges) = mr_sargs
            .iter()
            .find(|(ci, _, _)| *ci == mr_ci)
            .expect("recorded above");
        let ranges = ranges.clone();
        let mut consumed: Vec<usize> = eq_ids;
        consumed.push(mr_ci);
        consumed.sort_unstable();
        consumed.dedup();
        for ci in consumed.into_iter().rev() {
            conjuncts.remove(ci);
        }
        return AccessPath::MultiRange {
            index: idx_id,
            eq,
            ranges,
        };
    }
    let mut lower = None;
    let mut upper = None;
    if let Some(ci) = lower_id {
        let s = sargs
            .iter()
            .find(|s| s.conjunct == ci && matches!(s.op, BinOp::Gt | BinOp::Ge))
            .expect("recorded above");
        lower = Some((s.bound.clone(), s.op == BinOp::Ge));
        if let Some(b2) = &s.bound2 {
            // BETWEEN: both bounds come from the same conjunct.
            upper = Some((b2.clone(), true));
        }
    }
    if upper.is_none() {
        if let Some(ci) = upper_id {
            let s = sargs
                .iter()
                .find(|s| s.conjunct == ci && matches!(s.op, BinOp::Lt | BinOp::Le))
                .expect("recorded above");
            upper = Some((s.bound.clone(), s.op == BinOp::Le));
        }
    }
    let mut consumed: Vec<usize> = eq_ids;
    consumed.extend(lower_id);
    consumed.extend(upper_id);
    consumed.sort_unstable();
    consumed.dedup();
    for ci in consumed.into_iter().rev() {
        conjuncts.remove(ci);
    }
    AccessPath::Index {
        index: idx_id,
        eq,
        lower,
        upper,
        reverse: false,
    }
}

/// The monotone-stop pass over a join tree: marks the [`Stop`] of every
/// index-nested-loop join and of every filter directly over an index scan
/// whose predicate has one, flipping the scan of a count of the rows after
/// the walked row to walk backwards. Returns the width of `node`'s rows.
fn place_stops(catalog: &Catalog, subplans: &[Option<SelectPlan>], node: &mut Node) -> usize {
    match node {
        Node::Scan(access) => access.width,
        Node::Join {
            left,
            right,
            residual,
            hash_keys,
            stop,
            ..
        } => {
            let left_width = place_stops(catalog, subplans, left);
            if let (Some(pred), None) = (residual.as_ref(), hash_keys.as_ref()) {
                *stop = find_stop(catalog, subplans, pred, right, left_width);
            }
            left_width + right.width
        }
        Node::Filter {
            input, pred, stop, ..
        } => {
            let width = place_stops(catalog, subplans, input);
            if let Node::Scan(access) = &mut **input {
                *stop = find_stop(catalog, subplans, pred, access, 0);
            }
            width
        }
        _ => 0,
    }
}

/// The first conjunct of `pred` that can stop a forward walk of `access`,
/// whose rows sit after `left_width` columns of a join's left row in the
/// row `pred` reads. The conjunct is `subquery $i op c` (or `c op subquery
/// $i`) with `op` one of `=`, `<`, `<=` once the count is on the left, `c`
/// a literal or a parameter, and `$i` a range count bounded on one side by
/// the walked row's own order column, the index column after the scan's
/// equality prefix. Every other bound of the count may read only the left
/// row, parameters, literals and the walked row's columns the equality
/// prefix pins, so it is the same for the whole walk. A count of the rows
/// after the walked row flips `access` to walk backwards; it needs the
/// order column NOT NULL, since NULL keys sort first and a NULL bound
/// counts nothing.
fn find_stop(
    catalog: &Catalog,
    subplans: &[Option<SelectPlan>],
    pred: &Expr,
    access: &mut Access,
    left_width: usize,
) -> Option<Box<Stop>> {
    let AccessPath::Index {
        index,
        eq,
        reverse: false,
        ..
    } = &access.path
    else {
        return None;
    };
    let table = catalog.table(&access.table).ok()?;
    let cols: &[usize] = match index {
        None => &table.schema.primary_key,
        Some(i) => &table.indexes[*i].0.columns,
    };
    let walked = *cols.get(eq.len())?;
    let pinned = &cols[..eq.len()];
    let steady = |e: &Expr| {
        let mut ok = true;
        e.visit(&mut |x| match x {
            Expr::OuterColumn(j) => {
                ok &= *j < left_width || pinned.contains(&(j - left_width));
            }
            Expr::Column(_) | Expr::Subquery(_) | Expr::Exists(_) => ok = false,
            _ => {}
        });
        ok
    };
    let own = Expr::OuterColumn(left_width + walked);
    let is_own = |b: &Option<(Expr, bool)>| b.as_ref().is_some_and(|(e, _)| *e == own);
    let steady_bound = |b: &Option<(Expr, bool)>| b.as_ref().is_none_or(|(e, _)| steady(e));
    for c in pred.clone().conjuncts() {
        let Expr::Binary(op, l, r) = &c else {
            continue;
        };
        let (slot, op, limit) = match (&**l, &**r) {
            (Expr::Subquery(s), c @ (Expr::Literal(_) | Expr::Param(_))) => (*s, *op, c),
            (c @ (Expr::Literal(_) | Expr::Param(_)), Expr::Subquery(s)) => (*s, op.flipped(), c),
            _ => continue,
        };
        if !matches!(op, BinOp::Eq | BinOp::Lt | BinOp::Le) {
            continue;
        }
        let Some(Some(sub)) = subplans.get(slot) else {
            continue;
        };
        let Some((count, _)) = sub.range_count_parts() else {
            continue;
        };
        let AccessPath::Index {
            eq: count_eq,
            lower,
            upper,
            ..
        } = &count.path
        else {
            continue;
        };
        if !count_eq.iter().all(steady) {
            continue;
        }
        let backward = if is_own(upper) && steady_bound(lower) {
            false
        } else if is_own(lower) && steady_bound(upper) && !table.schema.columns[walked].nullable {
            true
        } else {
            continue;
        };
        if let AccessPath::Index { reverse, .. } = &mut access.path {
            *reverse = backward;
        }
        return Some(Box::new(Stop {
            slot,
            op,
            limit: limit.clone(),
            backward,
        }));
    }
    None
}

/// `true` if the plan already delivers rows in `keys` order: the keys must be
/// ascending (or all descending) columns matching the first table's index
/// scan order after its equality prefix. Left-deep joins, filters, and hash
/// probes preserve left-input order in this engine.
fn sort_satisfied_by_plan(catalog: &Catalog, node: &Node, keys: &[(Expr, bool)]) -> bool {
    // Locate the leftmost scan.
    let mut cur = node;
    loop {
        match cur {
            Node::Scan(access) => {
                // A multi-range scan emits its merged, disjoint ranges in
                // ascending order, so its output is ordered exactly like a
                // forward single-range scan with the same equality prefix.
                let (index, eq, reverse) = match &access.path {
                    AccessPath::Index {
                        index, eq, reverse, ..
                    } => (index, eq, reverse),
                    AccessPath::MultiRange { index, eq, .. } => (index, eq, &false),
                    AccessPath::FullScan => return false,
                };
                let Ok(table) = catalog.table(&access.table) else {
                    return false;
                };
                let index_cols: &[usize] = match index {
                    None => &table.schema.primary_key,
                    Some(i) => &table.indexes[*i].0.columns,
                };
                // Keys must match index columns starting right after the
                // equality prefix, all in the same direction (the first
                // table sits at combined-row offset 0).
                if keys.is_empty() {
                    return true;
                }
                let all_desc = keys.iter().all(|(_, d)| *d);
                let all_asc = keys.iter().all(|(_, d)| !*d);
                if !(all_asc || all_desc) || (all_desc && !*reverse) || (all_asc && *reverse) {
                    // Direction mismatch: a descending request over an
                    // ascending scan is not satisfied (see
                    // `reverse_leftmost_scan` for how one gets flipped).
                    return false;
                }
                let wanted: Vec<usize> = keys
                    .iter()
                    .map(|(e, _)| match e {
                        Expr::Column(i) => Some(*i),
                        _ => None,
                    })
                    .collect::<Option<Vec<_>>>()
                    .unwrap_or_default();
                if wanted.is_empty() && !keys.is_empty() {
                    return false;
                }
                let tail = &index_cols[eq.len().min(index_cols.len())..];
                if wanted.len() > tail.len() {
                    return false;
                }
                return tail.iter().zip(&wanted).all(|(a, b)| a == b);
            }
            Node::Filter { input, .. } => cur = input,
            Node::Join { left, .. } => cur = left,
            _ => return false,
        }
    }
}

/// Serves an all-descending `ORDER BY` by flipping the leftmost
/// single-range index scan to walk its range backwards, when that makes the
/// plan deliver `keys` order. Returns whether it did; on `false` the plan is
/// unchanged. A scan under a [`Stop`] keeps the direction its stop needs.
fn reverse_leftmost_scan(catalog: &Catalog, root: &mut Node, keys: &[(Expr, bool)]) -> bool {
    fn leftmost_index_scan(node: &mut Node) -> Option<&mut bool> {
        match node {
            Node::Scan(Access {
                path: AccessPath::Index { reverse, .. },
                ..
            }) => Some(reverse),
            Node::Filter {
                input, stop: None, ..
            } => leftmost_index_scan(input),
            Node::Join { left, .. } => leftmost_index_scan(left),
            _ => None,
        }
    }
    if keys.is_empty() || !keys.iter().all(|(_, desc)| *desc) {
        return false;
    }
    match leftmost_index_scan(root) {
        Some(reverse) if !*reverse => *reverse = true,
        _ => return false,
    }
    if sort_satisfied_by_plan(catalog, root, keys) {
        return true;
    }
    if let Some(reverse) = leftmost_index_scan(root) {
        *reverse = false;
    }
    false
}

/// Output column name for an unaliased item.
fn display_name(e: &Expr) -> String {
    match e {
        Expr::Name(n) => n
            .rsplit_once('.')
            .map(|(_, c)| c.to_string())
            .unwrap_or_else(|| n.clone()),
        Expr::Func { name, .. } => name.to_ascii_lowercase(),
        _ => "expr".to_string(),
    }
}

/// Plans a single-table access for UPDATE/DELETE: returns the access path
/// and the residual predicate (bound against the table's row).
pub fn plan_table_access(
    catalog: &Catalog,
    table_name: &str,
    where_clause: Option<&Expr>,
) -> DbResult<(AccessPath, Option<Expr>, Scope)> {
    let table = catalog.table(table_name)?;
    let mut scope = Scope::default();
    for c in &table.schema.columns {
        scope.cols.push((table_name.to_string(), c.name.clone()));
    }
    let mut conjuncts = Vec::new();
    if let Some(w) = where_clause {
        for c in w.clone().conjuncts() {
            let bound = c.map(&mut |e| match e {
                Expr::Name(n) => scope.resolve(&n).map(Expr::Column),
                other => Ok(other),
            })?;
            conjuncts.push(bound);
        }
    }
    let width = table.schema.columns.len();
    let path = choose_access_path(table, 0, width, 0, &mut conjuncts);
    Ok((path, Expr::conjoin(conjuncts), scope))
}

// ---------------------------------------------------------------------
// Plan rendering (EXPLAIN / EXPLAIN ANALYZE)
// ---------------------------------------------------------------------

/// Renders a plan tree as indented text, one line per operator. With a
/// [`Profiler`](crate::exec::Profiler) from an `EXPLAIN ANALYZE` run over
/// the *same* plan value, each operator is annotated with its actual row
/// count, invocation count, and inclusive elapsed time.
pub fn render_plan(
    catalog: &Catalog,
    plan: &SelectPlan,
    prof: Option<&crate::exec::Profiler>,
) -> Vec<String> {
    let mut lines = Vec::new();
    render_node(catalog, &plan.root, prof, 0, false, &mut lines);
    if plan.sort_elided {
        lines.push("Note: ORDER BY satisfied by index order (sort elided)".into());
    }
    for (slot, sub) in plan.subplans.iter().enumerate() {
        if sub.columns.is_empty() && matches!(sub.root, Node::OneRow) {
            continue; // inert placeholder for a slot owned by another block
        }
        lines.push(format!("Subplan ${slot}:"));
        render_node(catalog, &sub.root, prof, 1, sub.range_count, &mut lines);
    }
    lines
}

/// Renders a bare table access path — the target scan of an `EXPLAIN`ed
/// UPDATE or DELETE.
pub fn render_table_access(catalog: &Catalog, table: &str, path: &AccessPath) -> String {
    render_access(
        catalog,
        &Access {
            table: table.to_string(),
            path: path.clone(),
            width: 0,
        },
    )
}

/// ` (actual rows=... loops=... time=...)` under ANALYZE, empty otherwise.
fn profile_suffix(prof: Option<&crate::exec::Profiler>, node: &Node) -> String {
    let Some(prof) = prof else {
        return String::new();
    };
    match prof.get(node) {
        Some(op) => format!(
            " (actual rows={} loops={} time={:.3?})",
            op.rows_out, op.invocations, op.elapsed
        ),
        None => " (never executed)".into(),
    }
}

/// One access path as text: scan kind, table, index name, and the bound
/// predicates with index column names substituted in.
fn render_access(catalog: &Catalog, a: &Access) -> String {
    match &a.path {
        AccessPath::FullScan => format!("Seq Scan on {}", a.table),
        AccessPath::Index {
            index,
            eq,
            lower,
            upper,
            reverse,
        } => {
            let (index_name, cols): (String, Vec<String>) = match catalog.table(&a.table) {
                Ok(t) => {
                    let (name, col_ids): (String, &[usize]) = match index {
                        None => ("pk".into(), &t.schema.primary_key),
                        Some(i) => (t.indexes[*i].0.name.clone(), &t.indexes[*i].0.columns),
                    };
                    let cols = col_ids
                        .iter()
                        .map(|&c| t.schema.columns[c].name.clone())
                        .collect();
                    (name, cols)
                }
                Err(_) => ("?".into(), Vec::new()),
            };
            let mut preds = Vec::new();
            for (i, e) in eq.iter().enumerate() {
                let col = cols.get(i).cloned().unwrap_or_else(|| format!("key[{i}]"));
                preds.push(format!("{col} = {e}"));
            }
            let range_col = cols
                .get(eq.len())
                .cloned()
                .unwrap_or_else(|| format!("key[{}]", eq.len()));
            if let Some((e, inclusive)) = lower {
                preds.push(format!(
                    "{range_col} {} {e}",
                    if *inclusive { ">=" } else { ">" }
                ));
            }
            if let Some((e, inclusive)) = upper {
                preds.push(format!(
                    "{range_col} {} {e}",
                    if *inclusive { "<=" } else { "<" }
                ));
            }
            let mut s = format!("Index Scan on {} using {index_name}", a.table);
            if !preds.is_empty() {
                s.push_str(&format!(" [{}]", preds.join(" AND ")));
            }
            if *reverse {
                s.push_str(" (reverse)");
            }
            s
        }
        AccessPath::MultiRange { index, eq, ranges } => {
            let (index_name, cols): (String, Vec<String>) = match catalog.table(&a.table) {
                Ok(t) => {
                    let (name, col_ids): (String, &[usize]) = match index {
                        None => ("pk".into(), &t.schema.primary_key),
                        Some(i) => (t.indexes[*i].0.name.clone(), &t.indexes[*i].0.columns),
                    };
                    let cols = col_ids
                        .iter()
                        .map(|&c| t.schema.columns[c].name.clone())
                        .collect();
                    (name, cols)
                }
                Err(_) => ("?".into(), Vec::new()),
            };
            let mut preds = Vec::new();
            for (i, e) in eq.iter().enumerate() {
                let col = cols.get(i).cloned().unwrap_or_else(|| format!("key[{i}]"));
                preds.push(format!("{col} = {e}"));
            }
            let range_col = cols
                .get(eq.len())
                .cloned()
                .unwrap_or_else(|| format!("key[{}]", eq.len()));
            preds.push(format!("{range_col} IN RANGES({ranges})"));
            format!(
                "Multi-Range Index Scan on {} using {index_name} [{}]",
                a.table,
                preds.join(" AND ")
            )
        }
    }
}

fn render_agg(call: &AggCall) -> String {
    let name = match call.func {
        AggFunc::CountStar => return "COUNT(*)".into(),
        AggFunc::Count => "COUNT",
        AggFunc::Sum => "SUM",
        AggFunc::Min => "MIN",
        AggFunc::Max => "MAX",
        AggFunc::Avg => "AVG",
    };
    match &call.arg {
        Some(e) => format!("{name}({e})"),
        None => format!("{name}()"),
    }
}

/// `range_count` marks the root of a range-count subplan: it reaches the
/// subplan's `Aggregate` line, which then says that the count is memoised.
fn render_node(
    catalog: &Catalog,
    node: &Node,
    prof: Option<&crate::exec::Profiler>,
    depth: usize,
    range_count: bool,
    out: &mut Vec<String>,
) {
    let pad = "  ".repeat(depth);
    let suffix = profile_suffix(prof, node);
    match node {
        Node::OneRow => out.push(format!("{pad}Result (one row){suffix}")),
        Node::Scan(a) => out.push(format!("{pad}{}{suffix}", render_access(catalog, a))),
        Node::Filter {
            input, pred, stop, ..
        } => {
            let stop = stop.as_ref().map(|s| format!(" {s}")).unwrap_or_default();
            out.push(format!("{pad}Filter [{pred}]{stop}{suffix}"));
            render_node(catalog, input, prof, depth + 1, false, out);
        }
        Node::Join {
            left,
            right,
            residual,
            hash_keys,
            stop,
            ..
        } => {
            let strategy = if hash_keys.is_some() {
                "Hash Join"
            } else if matches!(
                right.path,
                AccessPath::Index { .. } | AccessPath::MultiRange { .. }
            ) {
                "Index Nested-Loop Join"
            } else {
                "Nested-Loop Join"
            };
            let mut line = format!("{pad}{strategy}");
            if let Some((lk, rk)) = hash_keys {
                let keys: Vec<String> = lk
                    .iter()
                    .zip(rk)
                    .map(|(l, r)| format!("{l} = inner.{r}"))
                    .collect();
                line.push_str(&format!(" [{}]", keys.join(" AND ")));
            }
            if let Some(r) = residual {
                line.push_str(&format!(" residual [{r}]"));
            }
            if let Some(s) = stop {
                line.push_str(&format!(" {s}"));
            }
            line.push_str(&suffix);
            out.push(line);
            render_node(catalog, left, prof, depth + 1, false, out);
            out.push(format!(
                "{}-> {}",
                "  ".repeat(depth + 1),
                render_access(catalog, right)
            ));
        }
        Node::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let mut line = format!("{pad}Aggregate");
            if !group_by.is_empty() {
                let gb: Vec<String> = group_by.iter().map(Expr::to_string).collect();
                line.push_str(&format!(" group by [{}]", gb.join(", ")));
            }
            if !aggs.is_empty() {
                let ag: Vec<String> = aggs.iter().map(render_agg).collect();
                line.push_str(&format!(" [{}]", ag.join(", ")));
            }
            if range_count {
                line.push_str(" (range count, memoised per statement)");
            }
            line.push_str(&suffix);
            out.push(line);
            render_node(catalog, input, prof, depth + 1, false, out);
        }
        Node::Sort { input, keys } => {
            let ks: Vec<String> = keys
                .iter()
                .map(|(e, desc)| format!("{e}{}", if *desc { " DESC" } else { "" }))
                .collect();
            out.push(format!("{pad}Sort [{}]{suffix}", ks.join(", ")));
            render_node(catalog, input, prof, depth + 1, false, out);
        }
        Node::Project { input, exprs } => {
            let es: Vec<String> = exprs.iter().map(Expr::to_string).collect();
            out.push(format!("{pad}Project [{}]{suffix}", es.join(", ")));
            render_node(catalog, input, prof, depth + 1, range_count, out);
        }
        Node::Distinct { input } => {
            out.push(format!("{pad}Distinct{suffix}"));
            render_node(catalog, input, prof, depth + 1, false, out);
        }
        Node::Limit {
            input,
            limit,
            offset,
        } => {
            let mut line = format!("{pad}Limit");
            if let Some(e) = limit {
                line.push_str(&format!(" [{e}]"));
            }
            if let Some(e) = offset {
                line.push_str(&format!(" offset [{e}]"));
            }
            if node.index_window().is_some() {
                line.push_str(" (window: offset skips index entries)");
            }
            line.push_str(&suffix);
            out.push(line);
            render_node(catalog, input, prof, depth + 1, false, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, IndexDef, TableSchema};
    use crate::sql::parse;
    use crate::sql::Stmt;
    use crate::storage::Pager;
    use crate::value::{DataType, Value};

    fn catalog() -> (Pager, Catalog) {
        let pager = Pager::in_memory();
        let mut c = Catalog::new();
        c.create_table(TableSchema {
            name: "node".into(),
            columns: ["doc", "pos", "parent", "depth"]
                .iter()
                .map(|n| ColumnDef {
                    name: (*n).into(),
                    ty: DataType::Int,
                    nullable: true,
                })
                .chain(std::iter::once(ColumnDef {
                    name: "tag".into(),
                    ty: DataType::Text,
                    nullable: true,
                }))
                .collect(),
            primary_key: vec![0, 1],
        })
        .unwrap();
        c.create_index(
            &pager,
            "node",
            IndexDef {
                name: "node_parent".into(),
                columns: vec![0, 2, 1],
                unique: false,
            },
        )
        .unwrap();
        (pager, c)
    }

    fn plan(c: &Catalog, sql: &str) -> SelectPlan {
        let p = parse(sql).unwrap();
        let Stmt::Select(s) = p.stmt else { panic!() };
        plan_select(c, &s, &p.subqueries, None).unwrap()
    }

    fn find_scan(node: &Node) -> &Access {
        match node {
            Node::Scan(a) => a,
            Node::Filter { input, .. }
            | Node::Sort { input, .. }
            | Node::Project { input, .. }
            | Node::Distinct { input }
            | Node::Limit { input, .. }
            | Node::Aggregate { input, .. } => find_scan(input),
            Node::Join { left, .. } => find_scan(left),
            Node::OneRow => panic!("no scan"),
        }
    }

    #[test]
    fn pk_equality_prefix_plus_range_uses_index() {
        let (_p, c) = catalog();
        let plan = plan(
            &c,
            "SELECT pos FROM node WHERE doc = 1 AND pos >= 10 AND pos < 20",
        );
        let scan = find_scan(&plan.root);
        let AccessPath::Index {
            index,
            eq,
            lower,
            upper,
            ..
        } = &scan.path
        else {
            panic!("expected index scan, got {:?}", scan.path)
        };
        assert_eq!(*index, None, "primary key");
        assert_eq!(eq.len(), 1);
        assert!(lower.is_some() && upper.is_none() || lower.is_some());
        assert!(lower.as_ref().unwrap().1, "inclusive lower");
        let _ = upper;
    }

    #[test]
    fn secondary_index_longest_prefix_wins() {
        let (_p, c) = catalog();
        let plan = plan(&c, "SELECT pos FROM node WHERE doc = 1 AND parent = 5");
        let scan = find_scan(&plan.root);
        let AccessPath::Index { index, eq, .. } = &scan.path else {
            panic!("expected index scan")
        };
        assert_eq!(
            *index,
            Some(0),
            "node_parent (doc,parent,pos) matches 2 eqs"
        );
        assert_eq!(eq.len(), 2);
    }

    #[test]
    fn no_predicate_is_full_scan() {
        let (_p, c) = catalog();
        let plan = plan(&c, "SELECT pos FROM node");
        assert_eq!(find_scan(&plan.root).path, AccessPath::FullScan);
    }

    #[test]
    fn join_becomes_index_nested_loop() {
        let (_p, c) = catalog();
        let plan = plan(
            &c,
            "SELECT b.pos FROM node a, node b WHERE a.doc = 1 AND a.tag = 'x' AND b.doc = a.doc AND b.parent = a.pos",
        );
        let Node::Project { input, .. } = &plan.root else {
            panic!()
        };
        let Node::Join { right, .. } = &**input else {
            panic!("expected join, got {input:?}")
        };
        let AccessPath::Index { index, eq, .. } = &right.path else {
            panic!("inner should be an index scan")
        };
        assert_eq!(*index, Some(0));
        assert_eq!(eq.len(), 2, "doc and parent bound from outer row");
    }

    #[test]
    fn scan_filters_split_record_tests_from_the_rest() {
        let (_p, c) = catalog();
        // Column-op-operand conjuncts, either way round, run on the
        // record; arithmetic, LIKE and column-to-column ones do not.
        let split = plan(
            &c,
            "SELECT pos FROM node WHERE doc = 1 AND 'x' < tag AND depth = ? \
             AND depth + 1 = 2 AND tag LIKE 'a%' AND parent = pos",
        );
        let Node::Project { input, .. } = &split.root else {
            panic!()
        };
        let Node::Filter {
            input: scan,
            record: Some(record),
            ..
        } = &**input
        else {
            panic!("expected a split filter, got {input:?}")
        };
        assert!(matches!(**scan, Node::Scan(_)));
        let tests: Vec<_> = record
            .tests
            .iter()
            .map(|t| (t.col, t.op, t.operand.clone()))
            .collect();
        assert_eq!(
            tests,
            vec![
                (4, BinOp::Gt, Operand::Literal(Value::text("x"))),
                (3, BinOp::Eq, Operand::Param(0)),
            ]
        );
        let rest = record.rest.as_ref().unwrap().clone().conjuncts();
        assert_eq!(rest.len(), 3, "{rest:?}");
        // A filter with no such conjunct is not split.
        let unsplit = plan(&c, "SELECT pos FROM node WHERE doc = 1 AND depth + 1 = 2");
        let Node::Project { input, .. } = &unsplit.root else {
            panic!()
        };
        assert!(matches!(**input, Node::Filter { record: None, .. }));
    }

    #[test]
    fn join_residuals_split_inner_only_conjuncts() {
        let (_p, c) = catalog();
        // `b.tag = a.tag` reads the left row as an operand; `b.depth <
        // b.pos` reads only the inner row but has no operand side, so it
        // and every conjunct after it stay in the rest.
        let plan = plan(
            &c,
            "SELECT b.pos FROM node a, node b WHERE a.doc = 1 AND b.doc = a.doc \
             AND b.parent = a.pos AND b.tag = a.tag AND b.depth < b.pos AND b.depth > ?",
        );
        let Node::Project { input, .. } = &plan.root else {
            panic!()
        };
        let Node::Join {
            record: Some(split),
            ..
        } = &**input
        else {
            panic!("expected a split join, got {input:?}")
        };
        let tests: Vec<_> = split
            .tests
            .iter()
            .map(|t| (t.col, t.op, t.operand.clone()))
            .collect();
        assert_eq!(tests, vec![(4, BinOp::Eq, Operand::Left(4))]);
        let rest = vec![
            Expr::bin(BinOp::Lt, Expr::Column(8), Expr::Column(6)),
            Expr::bin(BinOp::Gt, Expr::Column(8), Expr::Param(0)),
        ];
        assert_eq!(split.rest, Expr::conjoin(rest));
    }

    #[test]
    fn order_by_pk_after_eq_prefix_eliminates_sort() {
        let (_p, c) = catalog();
        let plan = plan(&c, "SELECT pos FROM node WHERE doc = 1 ORDER BY pos");
        fn has_sort(n: &Node) -> bool {
            match n {
                Node::Sort { .. } => true,
                Node::Filter { input, .. }
                | Node::Project { input, .. }
                | Node::Distinct { input }
                | Node::Limit { input, .. }
                | Node::Aggregate { input, .. } => has_sort(input),
                Node::Join { left, .. } => has_sort(left),
                _ => false,
            }
        }
        assert!(!has_sort(&plan.root), "sort should be eliminated: {plan:?}");
        // But ordering by a non-index column keeps the sort.
        let plan2 = plan2_helper(&c);
        assert!(has_sort(&plan2.root));
    }

    fn plan2_helper(c: &Catalog) -> SelectPlan {
        let p = parse("SELECT pos FROM node WHERE doc = 1 ORDER BY tag").unwrap();
        let Stmt::Select(s) = p.stmt else { panic!() };
        plan_select(c, &s, &p.subqueries, None).unwrap()
    }

    #[test]
    fn aggregate_rewrite() {
        let (_p, c) = catalog();
        let plan = plan(&c, "SELECT tag, COUNT(*), MIN(pos) FROM node GROUP BY tag");
        let Node::Project { input, exprs } = &plan.root else {
            panic!()
        };
        let Node::Aggregate { group_by, aggs, .. } = &**input else {
            panic!()
        };
        assert_eq!(group_by.len(), 1);
        assert_eq!(aggs.len(), 2);
        assert_eq!(exprs[0], Expr::Column(0));
        assert_eq!(exprs[1], Expr::Column(1));
        assert_eq!(exprs[2], Expr::Column(2));
        assert_eq!(plan.columns, vec!["tag", "count", "min"]);
    }

    #[test]
    fn aggregate_without_group_by_rejects_bare_columns() {
        let (_p, c) = catalog();
        let p = parse("SELECT tag, COUNT(*) FROM node").unwrap();
        let Stmt::Select(s) = p.stmt else { panic!() };
        assert!(plan_select(&c, &s, &p.subqueries, None).is_err());
    }

    #[test]
    fn correlated_subquery_binds_outer_columns() {
        let (_p, c) = catalog();
        let plan = plan(
            &c,
            "SELECT pos FROM node x WHERE 2 = (SELECT COUNT(*) FROM node y WHERE y.doc = x.doc AND y.parent = x.parent AND y.pos < x.pos)",
        );
        assert_eq!(plan.subplans.len(), 1);
        // The subplan's scan must have outer-column bounds.
        let sub = &plan.subplans[0];
        let mut saw_outer = false;
        fn visit_exprs(n: &Node, f: &mut impl FnMut(&Expr)) {
            match n {
                Node::Scan(a) | Node::Join { right: a, .. } => {
                    if let AccessPath::Index {
                        eq, lower, upper, ..
                    } = &a.path
                    {
                        for e in eq {
                            e.visit(f);
                        }
                        if let Some((e, _)) = lower {
                            e.visit(f);
                        }
                        if let Some((e, _)) = upper {
                            e.visit(f);
                        }
                    }
                    if let Node::Join { left, residual, .. } = n {
                        visit_exprs(left, f);
                        if let Some(r) = residual {
                            r.visit(f);
                        }
                    }
                }
                Node::Filter { input, pred, .. } => {
                    pred.visit(f);
                    visit_exprs(input, f);
                }
                Node::Project { input, exprs } => {
                    for e in exprs {
                        e.visit(f);
                    }
                    visit_exprs(input, f);
                }
                Node::Aggregate {
                    input,
                    group_by,
                    aggs,
                } => {
                    for e in group_by {
                        e.visit(f);
                    }
                    for a in aggs {
                        if let Some(e) = &a.arg {
                            e.visit(f);
                        }
                    }
                    visit_exprs(input, f);
                }
                Node::Sort { input, keys } => {
                    for (e, _) in keys {
                        e.visit(f);
                    }
                    visit_exprs(input, f);
                }
                Node::Distinct { input } | Node::Limit { input, .. } => visit_exprs(input, f),
                Node::OneRow => {}
            }
        }
        visit_exprs(&sub.root, &mut |e| {
            if matches!(e, Expr::OuterColumn(_)) {
                saw_outer = true;
            }
        });
        assert!(saw_outer, "correlation must bind to OuterColumn: {sub:?}");
    }

    #[test]
    fn unknown_names_error() {
        let (_p, c) = catalog();
        let p = parse("SELECT nope FROM node").unwrap();
        let Stmt::Select(s) = p.stmt else { panic!() };
        assert!(matches!(
            plan_select(&c, &s, &p.subqueries, None),
            Err(DbError::Unknown(_))
        ));
        let p = parse("SELECT pos FROM nope").unwrap();
        let Stmt::Select(s) = p.stmt else { panic!() };
        assert!(plan_select(&c, &s, &p.subqueries, None).is_err());
    }

    #[test]
    fn ambiguous_column_error() {
        let (_p, c) = catalog();
        let p = parse("SELECT pos FROM node a, node b").unwrap();
        let Stmt::Select(s) = p.stmt else { panic!() };
        assert!(matches!(
            plan_select(&c, &s, &p.subqueries, None),
            Err(DbError::Schema(_))
        ));
    }

    #[test]
    fn order_by_position_and_alias() {
        let (_p, c) = catalog();
        let plan = plan(&c, "SELECT pos AS p, tag FROM node ORDER BY 2, p DESC");
        let Node::Project { input, .. } = &plan.root else {
            panic!()
        };
        let Node::Sort { keys, .. } = &**input else {
            panic!("expected sort")
        };
        assert_eq!(keys.len(), 2);
        assert!(!keys[0].1);
        assert!(keys[1].1);
    }

    #[test]
    fn plan_table_access_for_updates() {
        let (_p, c) = catalog();
        let parsed = parse("SELECT 1 FROM node WHERE doc = 1 AND pos > 100 AND tag = 'x'").unwrap();
        let Stmt::Select(s) = parsed.stmt else {
            panic!()
        };
        let (path, residual, _) = plan_table_access(&c, "node", s.where_clause.as_ref()).unwrap();
        let AccessPath::Index { eq, lower, .. } = path else {
            panic!()
        };
        assert_eq!(eq, vec![Expr::Literal(Value::Int(1))]);
        assert!(!lower.unwrap().1, "exclusive >");
        assert!(residual.is_some(), "tag predicate is residual");
    }
}
