//! The executor's per-statement range-count memo, checked from the SQL
//! surface: a correlated `COUNT(*)` over one index range must return, for
//! every outer row, exactly what the same count returns as a standalone
//! statement with the outer values bound as parameters, and must never
//! fetch more rows than those standalone statements fetch together.

use ordxml_rdbms::{Database, DbError, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const GROUPS: i64 = 3;

/// One outer row: the group and the two range endpoints (`None` = NULL).
type Outer = (Option<i64>, Option<i64>, Option<i64>);

/// How the outer rows are ordered before the correlated statement runs.
#[derive(Debug, Clone, Copy)]
enum Order {
    Ascending,
    Descending,
    Shuffled,
    /// Ascending within each group, taking one row from each group in turn.
    Alternating,
}

const ORDERS: [Order; 4] = [
    Order::Ascending,
    Order::Descending,
    Order::Shuffled,
    Order::Alternating,
];

fn ordered(outer: &[Outer], order: Order) -> Vec<Outer> {
    let mut rows = outer.to_vec();
    let key = |r: &Outer| (r.0, r.2, r.1);
    match order {
        Order::Shuffled => {}
        Order::Ascending => rows.sort_by_key(key),
        Order::Descending => {
            rows.sort_by_key(key);
            rows.reverse();
        }
        Order::Alternating => {
            rows.sort_by_key(key);
            let mut groups: Vec<Vec<Outer>> = Vec::new();
            for r in rows {
                match groups.iter_mut().find(|g| g[0].0 == r.0) {
                    Some(g) => g.push(r),
                    None => groups.push(vec![r]),
                }
            }
            let mut out = Vec::new();
            let longest = groups.iter().map(Vec::len).max().unwrap_or(0);
            for i in 0..longest {
                out.extend(groups.iter().filter_map(|g| g.get(i).copied()));
            }
            rows = out;
        }
    }
    rows
}

fn opt(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

/// The counted tables and the outer table `o`, whose heap order is the
/// outer row order. `t` has a secondary index on `(g, k)`, whose keys end
/// in a row id; `u` holds the rows of `t` with distinct `(g, k)` under a
/// primary key on `(g, k)`, whose keys can equal a range bound exactly.
/// Neither indexes `tag`.
fn setup(rng: &mut StdRng) -> (Database, Vec<Outer>) {
    let mut db = Database::in_memory();
    db.execute(
        "CREATE TABLE t (id INTEGER NOT NULL, g INTEGER, k INTEGER, tag TEXT, PRIMARY KEY (id))",
        &[],
    )
    .unwrap();
    db.execute("CREATE INDEX t_gk ON t (g, k)", &[]).unwrap();
    db.execute(
        "CREATE TABLE u (g INTEGER NOT NULL, k INTEGER NOT NULL, tag TEXT, PRIMARY KEY (g, k))",
        &[],
    )
    .unwrap();
    let mut seen = std::collections::HashSet::new();
    for id in 0..rng.gen_range(0..60i64) {
        let tag = Value::text(if rng.gen_bool(0.5) { "a" } else { "b" });
        let (g, k) = (rng.gen_range(0..GROUPS), rng.gen_range(0..40i64));
        let row = [Value::Int(g), Value::Int(k), tag];
        db.execute(
            "INSERT INTO t VALUES (?, ?, ?, ?)",
            &[&[Value::Int(id)], &row[..]].concat(),
        )
        .unwrap();
        if seen.insert((g, k)) {
            db.execute("INSERT INTO u VALUES (?, ?, ?)", &row).unwrap();
        }
    }
    let maybe = |rng: &mut StdRng, v: i64| (!rng.gen_bool(0.1)).then_some(v);
    let outer = (0..rng.gen_range(1..24usize))
        .map(|_| {
            let g = rng.gen_range(0..GROUPS);
            let lo = rng.gen_range(-2..42i64);
            let hi = rng.gen_range(-2..42i64);
            (maybe(rng, g), maybe(rng, lo), maybe(rng, hi))
        })
        .collect();
    (db, outer)
}

fn load_outer(db: &mut Database, rows: &[Outer]) {
    db.execute("DROP TABLE IF EXISTS o", &[]).ok();
    db.execute(
        "CREATE TABLE o (oid INTEGER NOT NULL, g INTEGER, lo INTEGER, hi INTEGER, PRIMARY KEY (oid))",
        &[],
    )
    .unwrap();
    for (i, (g, lo, hi)) in rows.iter().enumerate() {
        db.execute(
            "INSERT INTO o VALUES (?, ?, ?, ?)",
            &[Value::Int(i as i64), opt(*g), opt(*lo), opt(*hi)],
        )
        .unwrap();
    }
}

/// The WHERE clause tail of one count shape: `(correlated, standalone)`.
fn shape(lower: &str, upper: &str, filter: bool) -> (String, String) {
    let mut corr = String::from("y.g = o.g");
    let mut solo = String::from("y.g = ?");
    if !lower.is_empty() {
        corr.push_str(&format!(" AND y.k {lower} o.lo"));
        solo.push_str(&format!(" AND y.k {lower} ?"));
    }
    if !upper.is_empty() {
        corr.push_str(&format!(" AND y.k {upper} o.hi"));
        solo.push_str(&format!(" AND y.k {upper} ?"));
    }
    if filter {
        corr.push_str(" AND y.tag = ?");
        solo.push_str(" AND y.tag = ?");
    }
    (corr, solo)
}

/// Every `(lower, upper)` bound pair, each with and without the filter.
fn shapes() -> impl Iterator<Item = ((&'static str, &'static str), bool)> {
    ["", ">", ">="]
        .into_iter()
        .flat_map(|lo| ["", "<", "<="].into_iter().map(move |hi| (lo, hi)))
        .flat_map(|b| [false, true].into_iter().map(move |f| (b, f)))
}

fn check_case(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut db, outer) = setup(&mut rng);
    for order in ORDERS {
        let rows = ordered(&outer, order);
        load_outer(&mut db, &rows);
        for ((lower, upper), filter) in shapes() {
            for (table, index) in [("t", "t_gk"), ("u", "pk")] {
                let (corr, solo) = shape(lower, upper, filter);
                let sql =
                    format!("SELECT o.oid, (SELECT COUNT(*) FROM {table} y WHERE {corr}) FROM o");
                let tag = [Value::text("a")];
                let params: &[Value] = if filter { &tag } else { &[] };
                let plan = db.explain(&sql, params, false).unwrap().join("\n");
                prop_assert!(
                    plan.contains("(range count, memoised per statement)")
                        && plan.contains(&format!("using {index}")),
                    "{sql}\n{plan}"
                );
                let got = db.run_read(&sql, params).unwrap();
                prop_assert_eq!(got.rows.len(), rows.len());
                let mut solo_scanned = 0;
                for (row, (g, lo, hi)) in got.rows.iter().zip(&rows) {
                    let mut p = vec![opt(*g)];
                    if !lower.is_empty() {
                        p.push(opt(*lo));
                    }
                    if !upper.is_empty() {
                        p.push(opt(*hi));
                    }
                    if filter {
                        p.push(Value::text("a"));
                    }
                    let one = db
                        .run_read(&format!("SELECT COUNT(*) FROM {table} y WHERE {solo}"), &p)
                        .unwrap();
                    solo_scanned += one.stats.rows_scanned;
                    prop_assert_eq!(&row[1], &one.rows[0][0], "{:?} {} with {:?}", order, sql, p);
                }
                // The outer full scan fetches every `o` row once; the
                // counts may fetch no more than the standalone runs did.
                prop_assert!(
                    got.stats.rows_scanned <= rows.len() as u64 + solo_scanned,
                    "{:?} {}: {} rows scanned, standalone {} + outer {}",
                    order,
                    sql,
                    got.stats.rows_scanned,
                    solo_scanned,
                    rows.len()
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn range_count_memo_matches_standalone_counts(seed in any::<u64>()) {
        check_case(seed)?;
    }
}

/// Standalone counts, each statement run once per distinct parameter list.
#[derive(Default)]
struct Solo(HashMap<String, i64>);

impl Solo {
    fn count(&mut self, db: &Database, sql: &str, params: &[Value]) -> i64 {
        let key = format!("{sql} {params:?}");
        *self.0.entry(key).or_insert_with(|| {
            db.run_read(sql, params).unwrap().rows[0][0]
                .as_int()
                .unwrap()
        })
    }
}

/// Whether `count op limit` holds, for the comparisons the property uses.
fn compares(count: i64, op: &str, limit: i64) -> bool {
    match op {
        "=" => count == limit,
        "<" => count < limit,
        "<=" => count <= limit,
        ">" => count > limit,
        "<>" => count != limit,
        _ => unreachable!("{op}"),
    }
}

/// One count predicate, `(COUNT(*) ...) op ?`, read along an index walk of
/// `x`: a filter over the scan of one group (`join = false`) or the inner
/// side of an index-nested-loop join from `o`, whose `lo`/`hi` bound the
/// count's other side. `cmp` compares the counted key with the walked row's
/// (`<`, `<=`: a preceding-count; `>`, `>=`: a following-count). With
/// `filter`, the count counts only `tag = 'a'` rows and a conjunct judged
/// after it keeps only `tag = 'a'` candidates, as an XPath node test does,
/// so a walked row can fail while its count still satisfies the predicate.
#[allow(clippy::too_many_arguments)]
fn check_stop_shape(
    db: &Database,
    solo: &mut Solo,
    table: &str,
    cmp: &str,
    filter: bool,
    join: bool,
    group: i64,
    limits: &[i64],
) -> Result<(), TestCaseError> {
    let (out, order) = if table == "t" {
        ("x.id", "x.k, x.id")
    } else {
        ("x.k", "x.k")
    };
    let preceding = cmp.starts_with('<');
    let (other, bound) = if preceding { (">", "lo") } else { ("<", "hi") };
    let tag = if filter { " AND y.tag = ?" } else { "" };
    let own_tag = if filter { " AND x.tag = 'a'" } else { "" };
    // The candidates in output order, each with its standalone count.
    let (sql_head, candidates) = if join {
        let rows = db
            .run_read(
                &format!(
                    "SELECT o.oid, {out}, x.g, x.k, o.{bound} FROM o, {table} x \
                     WHERE x.g = o.g{own_tag} ORDER BY o.oid, {order}"
                ),
                &[],
            )
            .unwrap()
            .rows;
        let count_sql = format!(
            "SELECT COUNT(*) FROM {table} y WHERE y.g = ? AND y.k {cmp} ? AND y.k {other} ?{tag}"
        );
        let counted = rows
            .into_iter()
            .map(|r| {
                let mut p = vec![r[2].clone(), r[3].clone(), r[4].clone()];
                p.extend(filter.then(|| Value::text("a")));
                (r[..2].to_vec(), solo.count(db, &count_sql, &p))
            })
            .collect::<Vec<_>>();
        let head = format!(
            "SELECT o.oid, {out} FROM o, {table} x WHERE x.g = o.g AND (SELECT COUNT(*) \
             FROM {table} y WHERE y.g = x.g AND y.k {cmp} x.k AND y.k {other} o.{bound}{tag})"
        );
        (head, counted)
    } else {
        let rows = db
            .run_read(
                &format!(
                    "SELECT {out}, x.g, x.k FROM {table} x WHERE x.g = ?{own_tag} ORDER BY {order}"
                ),
                &[Value::Int(group)],
            )
            .unwrap()
            .rows;
        let count_sql =
            format!("SELECT COUNT(*) FROM {table} y WHERE y.g = ? AND y.k {cmp} ?{tag}");
        let counted = rows
            .into_iter()
            .map(|r| {
                let mut p = vec![r[1].clone(), r[2].clone()];
                p.extend(filter.then(|| Value::text("a")));
                (r[..1].to_vec(), solo.count(db, &count_sql, &p))
            })
            .collect::<Vec<_>>();
        let head = format!(
            "SELECT {out} FROM {table} x WHERE x.g = ? AND (SELECT COUNT(*) FROM {table} y \
             WHERE y.g = x.g AND y.k {cmp} x.k{tag})"
        );
        (head, counted)
    };
    for op in ["=", "<", "<=", ">", "<>"] {
        let own_tag = if filter { " AND x.tag = ?" } else { "" };
        let sql = if join {
            format!("{sql_head} {op} ?{own_tag} ORDER BY o.oid, {order}")
        } else {
            format!("{sql_head} {op} ?{own_tag} ORDER BY {order}")
        };
        let mut params: Vec<Value> = Vec::new();
        if !join {
            params.push(Value::Int(group));
        }
        if filter {
            params.push(Value::text("a"));
        }
        // `t.k` is nullable, so only its preceding-counts stop.
        let stops = op != ">" && op != "<>" && (preceding || table == "u");
        let with_limit = |limit: i64| {
            let mut p = params.clone();
            p.push(Value::Int(limit));
            p.extend(filter.then(|| Value::text("a")));
            p
        };
        let plan = db
            .run_read(&format!("EXPLAIN {sql}"), &with_limit(0))
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].as_text().unwrap().to_string())
            .collect::<Vec<_>>()
            .join("\n");
        prop_assert_eq!(
            plan.contains("stop once subquery"),
            stops,
            "{}\n{}",
            sql,
            plan
        );
        prop_assert_eq!(
            plan.contains("(reverse)"),
            stops && !preceding,
            "{}\n{}",
            sql,
            plan
        );
        for &limit in limits {
            let p = with_limit(limit);
            let got = db.run_read(&sql, &p).unwrap().rows;
            let want: Vec<Vec<Value>> = candidates
                .iter()
                .filter(|(_, count)| compares(*count, op, limit))
                .map(|(row, _)| row.clone())
                .collect();
            prop_assert_eq!(&got, &want, "{} with {:?}", sql, p);
            if !join && table == "u" {
                // A descending ORDER BY may flip only a scan whose stop
                // does not need it ascending.
                let desc = sql.replace("ORDER BY x.k", "ORDER BY x.k DESC");
                let got = db.run_read(&desc, &p).unwrap().rows;
                let want: Vec<Vec<Value>> = want.iter().rev().cloned().collect();
                prop_assert_eq!(got, want, "{} with {:?}", desc, p);
            }
        }
    }
    Ok(())
}

/// Count predicates the planner gives a monotone stop (`=`, `<`, `<=` over
/// a preceding- or following-count) and two it must not (`>`, `<>`), each
/// with limits `0, 1, n/2, n, n + 5`, against the standalone count of every
/// candidate row. Rows whose walked key is NULL sort first and count
/// nothing.
fn check_stops(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut db, outer) = setup(&mut rng);
    for id in 0..rng.gen_range(0..3i64) {
        let g = Value::Int(rng.gen_range(0..GROUPS));
        db.execute(
            "INSERT INTO t VALUES (?, ?, NULL, ?)",
            &[Value::Int(100 + id), g, Value::text("a")],
        )
        .unwrap();
    }
    load_outer(&mut db, &outer);
    let n = db.run_read("SELECT COUNT(*) FROM t", &[]).unwrap().rows[0][0]
        .as_int()
        .unwrap();
    let limits = [0, 1, n / 2, n, n + 5];
    let group = rng.gen_range(0..GROUPS);
    let mut solo = Solo::default();
    for table in ["t", "u"] {
        for cmp in ["<", "<=", ">", ">="] {
            for filter in [false, true] {
                for join in [false, true] {
                    check_stop_shape(&db, &mut solo, table, cmp, filter, join, group, &limits)?;
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn stopped_count_predicates_match_standalone_counts(seed in any::<u64>()) {
        check_stops(seed)?;
    }
}

/// The least work budget under which `sql` succeeds; one unit less must
/// fail with the typed budget error.
fn least_budget(db: &Database, sql: &str) -> u64 {
    let ok = |b: u64| {
        db.set_work_budget(b);
        let r = db.run_read(sql, &[]);
        db.set_work_budget(0);
        match r {
            Ok(_) => true,
            Err(DbError::ResourceExhausted(_)) => false,
            Err(e) => panic!("unexpected error under budget {b}: {e}"),
        }
    };
    let (mut lo, mut hi) = (1u64, 1u64 << 20);
    assert!(ok(hi), "{sql} needs more than {hi} units");
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if ok(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    assert!(!ok(lo - 1), "{sql} succeeded under {} units", lo - 1);
    lo
}

#[test]
fn range_count_memo_scans_are_governed() {
    let mut db = Database::in_memory();
    db.execute(
        "CREATE TABLE t (id INTEGER NOT NULL, g INTEGER, k INTEGER, tag TEXT, PRIMARY KEY (id))",
        &[],
    )
    .unwrap();
    db.execute("CREATE INDEX t_gk ON t (g, k)", &[]).unwrap();
    for id in 0..400i64 {
        db.execute(
            "INSERT INTO t VALUES (?, 0, ?, ?)",
            &[Value::Int(id), Value::Int(id), Value::text("a")],
        )
        .unwrap();
    }
    let outer = (0..400)
        .map(|k| (Some(0), None, Some(k)))
        .collect::<Vec<_>>();
    load_outer(&mut db, &outer);
    let counted = "SELECT o.oid, (SELECT COUNT(*) FROM t y WHERE y.g = o.g AND y.k < o.hi \
                   AND y.tag = 'a') FROM o";
    let plain = "SELECT o.oid FROM o";
    let run = db.run_read(counted, &[]).unwrap();
    assert_eq!(run.rows[399][1], Value::Int(399));
    // Linear: each `t` row is fetched once, not once per later outer row.
    let memo_rows = run.stats.rows_scanned - 400;
    assert!(memo_rows <= 400, "{memo_rows} rows fetched by the counts");
    // A budget just under the statement's work trips with the typed error,
    // and the counts' own fetches are charged: the budget the counted
    // statement needs exceeds the plain outer scan's by at least the rows
    // the memo fetched.
    let with_counts = least_budget(&db, counted);
    let without = least_budget(&db, plain);
    assert!(
        with_counts >= without + memo_rows,
        "{with_counts} units with counts vs {without} without ({memo_rows} memo rows)"
    );
}
