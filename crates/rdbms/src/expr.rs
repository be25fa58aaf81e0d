//! Scalar expressions: AST and evaluation.
//!
//! The parser produces expressions containing unresolved [`Expr::Name`]s;
//! the planner *binds* them into positional [`Expr::Column`] /
//! [`Expr::OuterColumn`] references (and rewrites scalar subqueries into
//! [`Expr::Subquery`] slots). Evaluation is pure except for subqueries, which
//! are delegated to the executor through the [`EvalContext`] trait.
//!
//! Comparison follows SQL three-valued logic: any comparison with `NULL`
//! yields unknown, which behaves as false at filter boundaries; `AND`/`OR`
//! propagate unknown per the standard truth tables.

use crate::error::{DbError, DbResult};
use crate::value::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// Logical conjunction (three-valued).
    And,
    /// Logical disjunction (three-valued).
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division when both sides are integers).
    Div,
    /// `%`
    Mod,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        };
        f.write_str(s)
    }
}

impl BinOp {
    /// `true` for `=`, `<>`, `<`, `<=`, `>` and `>=`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// The comparison with its operands swapped: `a < b` is `b > a`.
    pub fn flipped(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        }
    }

    /// Whether comparison `self` holds for two values ordered `ord`.
    pub fn holds(self, ord: Ordering) -> bool {
        match self {
            BinOp::Eq => ord == Ordering::Equal,
            BinOp::Ne => ord != Ordering::Equal,
            BinOp::Lt => ord == Ordering::Less,
            BinOp::Le => ord != Ordering::Greater,
            BinOp::Gt => ord == Ordering::Greater,
            BinOp::Ge => ord != Ordering::Less,
            _ => unreachable!("{self} is not a comparison"),
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical negation (three-valued).
    Not,
    /// Arithmetic negation.
    Neg,
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// An unresolved column name (`a`, `t.a`), as produced by the parser.
    Name(String),
    /// A bound reference into the current row.
    Column(usize),
    /// A bound reference into the enclosing query's row (correlation).
    OuterColumn(usize),
    /// A positional statement parameter (`?`), 0-based.
    Param(usize),
    /// A unary operator application.
    Unary(UnaryOp, Box<Expr>),
    /// A binary operator application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `expr [NOT] LIKE pattern` (`%` and `_` wildcards).
    Like {
        /// The matched expression.
        expr: Box<Expr>,
        /// The pattern expression.
        pattern: Box<Expr>,
        /// `NOT LIKE`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// The tested expression.
        expr: Box<Expr>,
        /// Inclusive lower bound.
        low: Box<Expr>,
        /// Inclusive upper bound.
        high: Box<Expr>,
        /// `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList {
        /// The tested expression.
        expr: Box<Expr>,
        /// The candidate list.
        list: Vec<Expr>,
        /// `NOT IN`.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// A function call, possibly an aggregate (`COUNT(*)` is
    /// `Func("COUNT", [], star=true)`); the planner decides which.
    Func {
        /// Upper-cased function name.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
        /// `f(*)` (only valid for `COUNT`).
        star: bool,
    },
    /// A scalar subquery, bound by the planner to a subplan slot.
    Subquery(usize),
    /// `EXISTS (subquery)`, bound by the planner to a subplan slot.
    Exists(usize),
}

impl fmt::Display for Expr {
    /// SQL-ish rendering for plan output (`EXPLAIN`). Bound columns print as
    /// `#i` (combined-row position), outer references as `outer.#i`, and
    /// parameters as `?n` (1-based, like the parser counts them).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Name(n) => f.write_str(n),
            Expr::Column(i) => write!(f, "#{i}"),
            Expr::OuterColumn(i) => write!(f, "outer.#{i}"),
            Expr::Param(i) => write!(f, "?{}", i + 1),
            Expr::Unary(UnaryOp::Not, e) => write!(f, "NOT ({e})"),
            Expr::Unary(UnaryOp::Neg, e) => write!(f, "-({e})"),
            Expr::Binary(op, l, r) => match op {
                BinOp::And | BinOp::Or => write!(f, "({l} {op} {r})"),
                _ => write!(f, "{l} {op} {r}"),
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "{expr} {}LIKE {pattern}",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "{expr} {}BETWEEN {low} AND {high}",
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "{expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str(")")
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Expr::Func { name, args, star } => {
                write!(f, "{name}(")?;
                if *star {
                    f.write_str("*")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            Expr::Subquery(slot) => write!(f, "subquery ${slot}"),
            Expr::Exists(slot) => write!(f, "EXISTS ${slot}"),
        }
    }
}

impl Expr {
    /// Shorthand for a binary expression.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary(op, Box::new(l), Box::new(r))
    }

    /// Walks the expression tree, applying `f` to every node.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Unary(_, e) => e.visit(f),
            Expr::Binary(_, l, r) => {
                l.visit(f);
                r.visit(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            Expr::IsNull { expr, .. } => expr.visit(f),
            Expr::Func { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::Literal(_)
            | Expr::Name(_)
            | Expr::Column(_)
            | Expr::OuterColumn(_)
            | Expr::Param(_)
            | Expr::Subquery(_)
            | Expr::Exists(_) => {}
        }
    }

    /// Rewrites every node bottom-up with `f`.
    pub fn map(self, f: &mut impl FnMut(Expr) -> DbResult<Expr>) -> DbResult<Expr> {
        let rewritten = match self {
            Expr::Unary(op, e) => Expr::Unary(op, Box::new(e.map(f)?)),
            Expr::Binary(op, l, r) => Expr::Binary(op, Box::new(l.map(f)?), Box::new(r.map(f)?)),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(expr.map(f)?),
                pattern: Box::new(pattern.map(f)?),
                negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(expr.map(f)?),
                low: Box::new(low.map(f)?),
                high: Box::new(high.map(f)?),
                negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.map(f)?),
                list: list
                    .into_iter()
                    .map(|e| e.map(f))
                    .collect::<DbResult<Vec<_>>>()?,
                negated,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.map(f)?),
                negated,
            },
            Expr::Func { name, args, star } => Expr::Func {
                name,
                args: args
                    .into_iter()
                    .map(|e| e.map(f))
                    .collect::<DbResult<Vec<_>>>()?,
                star,
            },
            leaf => leaf,
        };
        f(rewritten)
    }

    /// Splits a conjunction into its conjuncts: `a AND b AND c` → `[a, b, c]`.
    pub fn conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::Binary(BinOp::And, l, r) => {
                let mut out = l.conjuncts();
                out.extend(r.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// Rebuilds a conjunction from conjuncts; `None` when the list is empty.
    pub fn conjoin(mut exprs: Vec<Expr>) -> Option<Expr> {
        let first = if exprs.is_empty() {
            return None;
        } else {
            exprs.remove(0)
        };
        Some(
            exprs
                .into_iter()
                .fold(first, |acc, e| Expr::bin(BinOp::And, acc, e)),
        )
    }

    /// `true` if the expression contains no column references, subqueries, or
    /// aggregates — i.e. it can be evaluated once per statement.
    pub fn is_const(&self) -> bool {
        let mut constant = true;
        self.visit(&mut |e| {
            if matches!(
                e,
                Expr::Name(_)
                    | Expr::Column(_)
                    | Expr::OuterColumn(_)
                    | Expr::Subquery(_)
                    | Expr::Exists(_)
                    | Expr::Func { .. }
            ) {
                constant = false;
            }
        });
        constant
    }
}

/// The environment an expression is evaluated in. Implemented by the
/// executor; tests use [`SimpleCtx`]. Columns, outer columns and
/// parameters are lent, so a comparison of two of them copies nothing.
pub trait EvalContext {
    /// Value of column `i` of the current row.
    fn column(&self, i: usize) -> DbResult<&Value>;
    /// Value of column `i` of the enclosing (correlated) row.
    fn outer_column(&self, i: usize) -> DbResult<&Value>;
    /// Value of statement parameter `i`.
    fn param(&self, i: usize) -> DbResult<&Value>;
    /// Runs scalar subquery slot `i` for the current row and returns its
    /// single value (`Null` when the subquery yields no row).
    fn subquery(&mut self, i: usize) -> DbResult<Value>;
    /// Runs subquery slot `i`, returning whether it yields at least one row.
    fn exists(&mut self, i: usize) -> DbResult<bool>;
}

/// A context with no columns or subqueries — for constant expressions —
/// or a plain row + params without correlation.
pub struct SimpleCtx<'a> {
    /// The current row.
    pub row: &'a [Value],
    /// Statement parameters.
    pub params: &'a [Value],
}

impl EvalContext for SimpleCtx<'_> {
    fn column(&self, i: usize) -> DbResult<&Value> {
        self.row
            .get(i)
            .ok_or_else(|| DbError::Eval(format!("column index {i} out of range")))
    }

    fn outer_column(&self, _i: usize) -> DbResult<&Value> {
        Err(DbError::Eval("no outer row in this context".into()))
    }

    fn param(&self, i: usize) -> DbResult<&Value> {
        self.params
            .get(i)
            .ok_or_else(|| DbError::Eval(format!("parameter ?{} not supplied", i + 1)))
    }

    fn subquery(&mut self, _i: usize) -> DbResult<Value> {
        Err(DbError::Eval("no subqueries in this context".into()))
    }

    fn exists(&mut self, _i: usize) -> DbResult<bool> {
        Err(DbError::Eval("no subqueries in this context".into()))
    }
}

/// Three-valued boolean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tri {
    True,
    False,
    Unknown,
}

impl Tri {
    fn from_value(v: &Value) -> DbResult<Tri> {
        match v {
            Value::Null => Ok(Tri::Unknown),
            Value::Bool(true) => Ok(Tri::True),
            Value::Bool(false) => Ok(Tri::False),
            other => Err(DbError::Eval(format!(
                "expected a boolean condition, got {other}"
            ))),
        }
    }

    fn to_value(self) -> Value {
        match self {
            Tri::True => Value::Bool(true),
            Tri::False => Value::Bool(false),
            Tri::Unknown => Value::Null,
        }
    }
}

/// Evaluates `expr` in `ctx`.
pub fn eval(expr: &Expr, ctx: &mut dyn EvalContext) -> DbResult<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Name(n) => Err(DbError::Eval(format!(
            "unbound column name `{n}` reached evaluation"
        ))),
        Expr::Column(i) => ctx.column(*i).cloned(),
        Expr::OuterColumn(i) => ctx.outer_column(*i).cloned(),
        Expr::Param(i) => ctx.param(*i).cloned(),
        Expr::Unary(op, e) => {
            let v = eval(e, ctx)?;
            match op {
                UnaryOp::Not => Ok(match Tri::from_value(&v)? {
                    Tri::True => Tri::False,
                    Tri::False => Tri::True,
                    Tri::Unknown => Tri::Unknown,
                }
                .to_value()),
                UnaryOp::Neg => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    other => Err(DbError::Eval(format!("cannot negate {other}"))),
                },
            }
        }
        Expr::Binary(op, l, r) => eval_binary(*op, l, r, ctx),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, ctx)?;
            let p = eval(pattern, ctx)?;
            if v.is_null() || p.is_null() {
                return Ok(Value::Null);
            }
            let matched = like_match(v.as_text()?, p.as_text()?);
            Ok(Value::Bool(matched != *negated))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, ctx)?;
            let lo = eval(low, ctx)?;
            let hi = eval(high, ctx)?;
            let (Some(c1), Some(c2)) = (v.sql_cmp(&lo), v.sql_cmp(&hi)) else {
                return Ok(Value::Null);
            };
            let inside = c1 != Ordering::Less && c2 != Ordering::Greater;
            Ok(Value::Bool(inside != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let w = eval(item, ctx)?;
                match v.sql_cmp(&w) {
                    Some(Ordering::Equal) => return Ok(Value::Bool(!negated)),
                    None if w.is_null() => saw_null = true,
                    _ => {}
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Func { name, args, .. } if name == "MULTIRANGE" && args.len() == 2 => {
            // Membership fallback for a `MULTIRANGE(col, batch)` predicate
            // the planner did not turn into a multi-range index scan: true
            // iff the column value falls inside any range of the batch.
            let v = eval(&args[0], ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let batch = eval(&args[1], ctx)?;
            let ranges = crate::value::decode_range_batch(batch.as_bytes()?)?;
            let inside = ranges.iter().any(|r| {
                let above_lo = r.lo.is_null()
                    || matches!(
                        (v.sql_cmp(&r.lo), r.lo_inclusive),
                        (Some(std::cmp::Ordering::Greater), _)
                            | (Some(std::cmp::Ordering::Equal), true)
                    );
                let below_hi = r.hi.is_null()
                    || matches!(
                        (v.sql_cmp(&r.hi), r.hi_inclusive),
                        (Some(std::cmp::Ordering::Less), _)
                            | (Some(std::cmp::Ordering::Equal), true)
                    );
                above_lo && below_hi
            });
            Ok(Value::Bool(inside))
        }
        Expr::Func { name, .. } => Err(DbError::Eval(format!(
            "function `{name}` is not valid in this position (aggregates \
             belong in SELECT with GROUP BY)"
        ))),
        Expr::Subquery(slot) => ctx.subquery(*slot),
        Expr::Exists(slot) => Ok(Value::Bool(ctx.exists(*slot)?)),
    }
}

fn eval_binary(op: BinOp, l: &Expr, r: &Expr, ctx: &mut dyn EvalContext) -> DbResult<Value> {
    // AND/OR need lazy three-valued handling.
    if matches!(op, BinOp::And | BinOp::Or) {
        let lv = Tri::from_value(&eval(l, ctx)?)?;
        // Short-circuit where sound.
        match (op, lv) {
            (BinOp::And, Tri::False) => return Ok(Value::Bool(false)),
            (BinOp::Or, Tri::True) => return Ok(Value::Bool(true)),
            _ => {}
        }
        let rv = Tri::from_value(&eval(r, ctx)?)?;
        let out = match (op, lv, rv) {
            (BinOp::And, Tri::True, x) => x,
            (BinOp::And, Tri::Unknown, Tri::False) => Tri::False,
            (BinOp::And, Tri::Unknown, _) => Tri::Unknown,
            (BinOp::Or, Tri::False, x) => x,
            (BinOp::Or, Tri::Unknown, Tri::True) => Tri::True,
            (BinOp::Or, Tri::Unknown, _) => Tri::Unknown,
            _ => unreachable!("short-circuited above"),
        };
        return Ok(out.to_value());
    }
    if op.is_comparison() {
        // Two lent operands (the translation's `col = ?` and `col = outer`
        // shapes) compare in place; anything else is computed first.
        let lent: &dyn EvalContext = ctx;
        if let (Some(lv), Some(rv)) = (lend(l, lent), lend(r, lent)) {
            return compare(op, lv?, rv?);
        }
        let lv = eval(l, ctx)?;
        let rv = eval(r, ctx)?;
        return compare(op, &lv, &rv);
    }
    let lv = eval(l, ctx)?;
    let rv = eval(r, ctx)?;
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            if lv.is_null() || rv.is_null() {
                return Ok(Value::Null);
            }
            match (&lv, &rv) {
                (Value::Int(a), Value::Int(b)) => {
                    let a = *a;
                    let b = *b;
                    let out = match op {
                        BinOp::Add => a.checked_add(b),
                        BinOp::Sub => a.checked_sub(b),
                        BinOp::Mul => a.checked_mul(b),
                        BinOp::Div => {
                            if b == 0 {
                                return Err(DbError::Eval("division by zero".into()));
                            }
                            a.checked_div(b)
                        }
                        BinOp::Mod => {
                            if b == 0 {
                                return Err(DbError::Eval("modulo by zero".into()));
                            }
                            a.checked_rem(b)
                        }
                        _ => unreachable!("outer arm admits only arithmetic ops"),
                    };
                    out.map(Value::Int)
                        .ok_or_else(|| DbError::Eval(format!("integer overflow in {a} {op} {b}")))
                }
                _ => {
                    let a = lv.as_float()?;
                    let b = rv.as_float()?;
                    let out = match op {
                        BinOp::Add => a + b,
                        BinOp::Sub => a - b,
                        BinOp::Mul => a * b,
                        BinOp::Div => {
                            if b == 0.0 {
                                return Err(DbError::Eval("division by zero".into()));
                            }
                            a / b
                        }
                        BinOp::Mod => a % b,
                        _ => unreachable!("outer arm admits only arithmetic ops"),
                    };
                    Ok(Value::Float(out))
                }
            }
        }
        BinOp::And
        | BinOp::Or
        | BinOp::Eq
        | BinOp::Ne
        | BinOp::Lt
        | BinOp::Le
        | BinOp::Gt
        | BinOp::Ge => unreachable!("handled above"),
    }
}

/// Evaluates `expr` in `ctx`, lending a literal, column, outer column or
/// parameter instead of copying it.
pub fn eval_lent<'c>(expr: &'c Expr, ctx: &'c mut dyn EvalContext) -> DbResult<Cow<'c, Value>> {
    match expr {
        Expr::Literal(v) => Ok(Cow::Borrowed(v)),
        Expr::Column(i) => ctx.column(*i).map(Cow::Borrowed),
        Expr::OuterColumn(i) => ctx.outer_column(*i).map(Cow::Borrowed),
        Expr::Param(i) => ctx.param(*i).map(Cow::Borrowed),
        _ => eval(expr, ctx).map(Cow::Owned),
    }
}

/// A leaf operand lent by the expression or the context: a literal, a
/// column, an outer column or a parameter. `None` for anything computed.
fn lend<'c>(e: &'c Expr, ctx: &'c dyn EvalContext) -> Option<DbResult<&'c Value>> {
    match e {
        Expr::Literal(v) => Some(Ok(v)),
        Expr::Column(i) => Some(ctx.column(*i)),
        Expr::OuterColumn(i) => Some(ctx.outer_column(*i)),
        Expr::Param(i) => Some(ctx.param(*i)),
        _ => None,
    }
}

/// `lv op rv` for a comparison `op`, under SQL three-valued logic.
fn compare(op: BinOp, lv: &Value, rv: &Value) -> DbResult<Value> {
    let Some(ord) = lv.sql_cmp(rv) else {
        // NULL comparison, or incomparable types: unknown for NULLs,
        // error for type mismatches.
        if lv.is_null() || rv.is_null() {
            return Ok(Value::Null);
        }
        return Err(DbError::Eval(format!("cannot compare {lv} with {rv}")));
    };
    Ok(Value::Bool(op.holds(ord)))
}

/// SQL `LIKE` matching: `%` matches any run (including empty), `_` matches
/// exactly one character. Case-sensitive, over characters.
pub fn like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[char], p: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('%') => {
                // Collapse consecutive %.
                let p_rest = &p[1..];
                (0..=t.len()).any(|skip| rec(&t[skip..], p_rest))
            }
            Some('_') => !t.is_empty() && rec(&t[1..], &p[1..]),
            Some(c) => t.first() == Some(c) && rec(&t[1..], &p[1..]),
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&t, &p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(e: &Expr) -> DbResult<Value> {
        eval(
            e,
            &mut SimpleCtx {
                row: &[],
                params: &[],
            },
        )
    }

    fn lit(v: Value) -> Expr {
        Expr::Literal(v)
    }

    #[test]
    fn arithmetic() {
        assert_eq!(
            ev(&Expr::bin(
                BinOp::Add,
                lit(Value::Int(2)),
                lit(Value::Int(3))
            ))
            .unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            ev(&Expr::bin(
                BinOp::Div,
                lit(Value::Int(7)),
                lit(Value::Int(2))
            ))
            .unwrap(),
            Value::Int(3),
            "integer division truncates"
        );
        assert_eq!(
            ev(&Expr::bin(
                BinOp::Mul,
                lit(Value::Float(1.5)),
                lit(Value::Int(2))
            ))
            .unwrap(),
            Value::Float(3.0)
        );
        assert!(ev(&Expr::bin(
            BinOp::Div,
            lit(Value::Int(1)),
            lit(Value::Int(0))
        ))
        .is_err());
        assert!(ev(&Expr::bin(
            BinOp::Add,
            lit(Value::Int(i64::MAX)),
            lit(Value::Int(1))
        ))
        .is_err());
    }

    #[test]
    fn null_propagation() {
        assert_eq!(
            ev(&Expr::bin(BinOp::Add, lit(Value::Null), lit(Value::Int(1)))).unwrap(),
            Value::Null
        );
        assert_eq!(
            ev(&Expr::bin(BinOp::Eq, lit(Value::Null), lit(Value::Null))).unwrap(),
            Value::Null,
            "NULL = NULL is unknown"
        );
        assert_eq!(
            ev(&Expr::IsNull {
                expr: Box::new(lit(Value::Null)),
                negated: false
            })
            .unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn three_valued_and_or() {
        let t = || lit(Value::Bool(true));
        let f = || lit(Value::Bool(false));
        let u = || lit(Value::Null);
        assert_eq!(
            ev(&Expr::bin(BinOp::And, u(), f())).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(ev(&Expr::bin(BinOp::And, u(), t())).unwrap(), Value::Null);
        assert_eq!(
            ev(&Expr::bin(BinOp::Or, u(), t())).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(ev(&Expr::bin(BinOp::Or, u(), f())).unwrap(), Value::Null);
        assert_eq!(
            ev(&Expr::Unary(UnaryOp::Not, Box::new(u()))).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn comparisons_mixed_numeric() {
        assert_eq!(
            ev(&Expr::bin(
                BinOp::Lt,
                lit(Value::Int(1)),
                lit(Value::Float(1.5))
            ))
            .unwrap(),
            Value::Bool(true)
        );
        assert!(
            ev(&Expr::bin(
                BinOp::Lt,
                lit(Value::Int(1)),
                lit(Value::text("x"))
            ))
            .is_err(),
            "type mismatch is an error, not unknown"
        );
    }

    #[test]
    fn between_and_in() {
        let between = Expr::Between {
            expr: Box::new(lit(Value::Int(5))),
            low: Box::new(lit(Value::Int(1))),
            high: Box::new(lit(Value::Int(10))),
            negated: false,
        };
        assert_eq!(ev(&between).unwrap(), Value::Bool(true));
        let not_in = Expr::InList {
            expr: Box::new(lit(Value::Int(4))),
            list: vec![lit(Value::Int(1)), lit(Value::Int(2))],
            negated: true,
        };
        assert_eq!(ev(&not_in).unwrap(), Value::Bool(true));
        let in_with_null = Expr::InList {
            expr: Box::new(lit(Value::Int(4))),
            list: vec![lit(Value::Int(1)), lit(Value::Null)],
            negated: false,
        };
        assert_eq!(
            ev(&in_with_null).unwrap(),
            Value::Null,
            "unknown membership"
        );
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "%ell%"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("", "%"));
        assert!(!like_match("hello", "H%"));
        assert!(!like_match("hello", "h_o"));
        assert!(like_match("a%b", "a%b"));
        assert!(like_match("naïve", "na_ve"), "wildcards are per character");
    }

    #[test]
    fn conjunct_split_and_rebuild() {
        let e = Expr::bin(
            BinOp::And,
            Expr::bin(BinOp::And, lit(Value::Bool(true)), lit(Value::Bool(false))),
            lit(Value::Null),
        );
        let parts = e.clone().conjuncts();
        assert_eq!(parts.len(), 3);
        let back = Expr::conjoin(parts).unwrap();
        // Same evaluation result even if associativity differs.
        assert_eq!(ev(&back).unwrap(), ev(&e).unwrap());
        assert_eq!(Expr::conjoin(vec![]), None);
    }

    #[test]
    fn columns_and_params() {
        let row = vec![Value::Int(10), Value::text("a")];
        let params = vec![Value::Int(3)];
        let mut ctx = SimpleCtx {
            row: &row,
            params: &params,
        };
        let e = Expr::bin(BinOp::Add, Expr::Column(0), Expr::Param(0));
        assert_eq!(eval(&e, &mut ctx).unwrap(), Value::Int(13));
        assert!(eval(&Expr::Column(9), &mut ctx).is_err());
        assert!(eval(&Expr::Param(9), &mut ctx).is_err());
        assert!(eval(&Expr::Name("x".into()), &mut ctx).is_err());
    }

    #[test]
    fn is_const_detection() {
        assert!(lit(Value::Int(1)).is_const());
        assert!(Expr::bin(BinOp::Add, lit(Value::Int(1)), Expr::Param(0)).is_const());
        assert!(!Expr::Column(0).is_const());
        assert!(!Expr::Name("a".into()).is_const());
    }
}
