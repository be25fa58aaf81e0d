//! `LIMIT`/`OFFSET` over one index range, checked from the SQL surface:
//! every windowed statement must return exactly the rows of the same
//! statement without `LIMIT`/`OFFSET`, sliced in Rust, while fetching no
//! more than `LIMIT` rows; a huge `OFFSET` stays under the work budget.

use ordxml_rdbms::{Database, DbError, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GROUPS: i64 = 3;
const MARKER: &str = "(window: offset skips index entries)";

/// `t` has a primary key on `id` and a secondary index on `(g, k)`, whose
/// keys end in a row id, so equal `(g, k)` pairs stay distinct entries.
fn setup(rng: &mut StdRng, rows: i64) -> Database {
    let mut db = Database::in_memory();
    db.execute(
        "CREATE TABLE t (id INTEGER NOT NULL, g INTEGER, k INTEGER, tag TEXT, PRIMARY KEY (id))",
        &[],
    )
    .unwrap();
    db.execute("CREATE INDEX t_gk ON t (g, k)", &[]).unwrap();
    for id in 0..rows {
        let tag = Value::text(if rng.gen_bool(0.5) { "a" } else { "b" });
        let (g, k) = (rng.gen_range(0..GROUPS), rng.gen_range(0..40i64));
        db.execute(
            "INSERT INTO t VALUES (?, ?, ?, ?)",
            &[Value::Int(id), Value::Int(g), Value::Int(k), tag],
        )
        .unwrap();
    }
    db
}

/// The ranges over `t`: `WHERE ... ORDER BY` texts and their parameters.
/// About one parameter in ten binds as NULL, which empties its range.
fn ranges(rng: &mut StdRng) -> Vec<(String, Vec<Value>)> {
    let mut maybe_null = |v: i64| {
        if rng.gen_bool(0.1) {
            Value::Null
        } else {
            Value::Int(v)
        }
    };
    let mut out = Vec::new();
    for desc in ["", " DESC"] {
        for (lower, upper) in [("", ""), (">", ""), ("", "<="), (">=", "<"), (">", "<=")] {
            let mut sql = String::from("WHERE g = ?");
            let mut params = vec![maybe_null(1)];
            if !lower.is_empty() {
                sql.push_str(&format!(" AND k {lower} ?"));
                params.push(maybe_null(8));
            }
            if !upper.is_empty() {
                sql.push_str(&format!(" AND k {upper} ?"));
                params.push(maybe_null(30));
            }
            out.push((format!("{sql} ORDER BY k{desc}"), params));
        }
        // The primary key, with and without a bound.
        out.push((
            format!("WHERE id >= ? ORDER BY id{desc}"),
            vec![maybe_null(5)],
        ));
        out.push((
            format!("WHERE id < ? ORDER BY id{desc}"),
            vec![maybe_null(50)],
        ));
    }
    out
}

fn check_case(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(0..80i64);
    let mut db = setup(&mut rng, n);
    for (range, params) in ranges(&mut rng) {
        let full_sql = format!("SELECT id, g, k FROM t {range}");
        let full = db.run_read(&full_sql, &params).unwrap().rows;
        let len = full.len();
        let offsets = [0, len / 2, len, len + 3, i64::MAX as usize];
        for offset in offsets {
            for limit in [0usize, 1, 2, 7, i64::MAX as usize] {
                // Literals, then the same window bound as `?` parameters.
                let literal = format!("{full_sql} LIMIT {limit} OFFSET {offset}");
                let bound = format!("{full_sql} LIMIT ? OFFSET ?");
                let window = [Value::Int(limit as i64), Value::Int(offset as i64)];
                let with_window = [&params[..], &window[..]].concat();
                for (sql, p) in [(&literal, &params[..]), (&bound, &with_window[..])] {
                    let plan = db.explain(sql, p, false).unwrap().join("\n");
                    prop_assert!(plan.contains(MARKER), "{sql}\n{plan}");
                    let got = db.run_read(sql, p).unwrap();
                    let want: Vec<_> = full.iter().skip(offset).take(limit).cloned().collect();
                    prop_assert_eq!(&got.rows, &want, "{} with {:?}", sql, p);
                    prop_assert!(
                        got.stats.rows_scanned <= limit as u64,
                        "{sql}: {} rows fetched under LIMIT {limit}",
                        got.stats.rows_scanned
                    );
                    prop_assert!(got.stats.rows_scanned == want.len() as u64);
                    prop_assert!(got.stats.index_rows <= len as u64);
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn index_windows_match_sliced_full_results(seed in any::<u64>()) {
        check_case(seed)?;
    }
}

#[test]
fn skipped_entries_are_governed() {
    let mut rng = StdRng::seed_from_u64(7);
    let db = setup(&mut rng, 3_000);
    let sql = "SELECT id FROM t WHERE id >= 0 ORDER BY id LIMIT 1 OFFSET 2500";
    let free = db.run_read(sql, &[]).unwrap();
    assert_eq!(free.rows, vec![vec![Value::Int(2500)]]);
    assert_eq!(free.stats.rows_scanned, 1);
    assert_eq!(free.stats.index_rows, 2501);
    // The offset walk alone exceeds this budget: the statement fails typed
    // instead of walking on.
    db.set_work_budget(1_000);
    let err = db.run_read(sql, &[]);
    db.set_work_budget(0);
    assert!(matches!(err, Err(DbError::ResourceExhausted(_))), "{err:?}");
}

#[test]
fn filtered_sorted_or_distinct_limits_are_not_windows() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut db = setup(&mut rng, 200);
    for sql in [
        "SELECT id FROM t WHERE g = 1 AND tag = 'a' ORDER BY k LIMIT 2 OFFSET 1",
        "SELECT id FROM t WHERE g = 1 ORDER BY tag LIMIT 2",
        "SELECT DISTINCT k FROM t WHERE g = 1 ORDER BY k LIMIT 2",
        "SELECT id FROM t LIMIT 2",
    ] {
        let plan = db.explain(sql, &[], false).unwrap().join("\n");
        assert!(
            plan.contains("Limit") && !plan.contains(MARKER),
            "{sql}\n{plan}"
        );
    }
    // A window says so, and EXPLAIN ANALYZE still reports the fetched rows
    // on its projection and scan lines.
    let sql = "SELECT id FROM t WHERE g = 1 ORDER BY k DESC LIMIT 3 OFFSET 4";
    let plan = db.explain(sql, &[], true).unwrap();
    let text = plan.join("\n");
    let line = |op: &str| {
        plan.iter()
            .find(|l| l.trim_start().starts_with(op))
            .unwrap_or_else(|| panic!("no {op} line in\n{text}"))
    };
    assert!(line("Limit").contains(MARKER), "{text}");
    assert!(line("Project").contains("actual rows=3 loops=1"), "{text}");
    let scan = line("Index Scan");
    assert!(
        scan.contains("(reverse)") && scan.contains("actual rows=3 loops=1"),
        "{text}"
    );
}
