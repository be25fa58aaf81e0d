//! The row path: a row is built only once it qualifies.
//!
//! A counting global allocator checks that the executor allocates nothing
//! per record for records a predicate rejects: a filter over an index
//! range, an index-nested-loop join's residual, a memoised range count and
//! a non-matching `EXISTS` each make as many allocations on 10,000 rows as
//! on 100. The same statements still examine every record, so their
//! `rows_scanned` is unchanged. An `EXISTS` stops at its first row, and
//! `EXPLAIN ANALYZE` still reports what a filtered scan read and passed.
//! Conjuncts checked on the stored record give the results and errors of
//! plain evaluation.

use ordxml_rdbms::{Database, Value};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations each thread makes, so tests running in parallel
/// do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its caller's arguments unchanged to
// `System`, so `System`'s guarantees are the caller's; counting touches only
// a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` contract carries over to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator, and the
        // caller's size contract carries over.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `t` holds `n` rows of group 0, keyed `(g, k)` by a secondary index and
/// all tagged `'a'`; `o` holds one outer row for group 0.
fn table(n: i64) -> Database {
    let mut db = Database::in_memory();
    db.execute(
        "CREATE TABLE t (id INTEGER NOT NULL, g INTEGER, k INTEGER, tag TEXT, PRIMARY KEY (id))",
        &[],
    )
    .unwrap();
    db.execute("CREATE INDEX t_gk ON t (g, k)", &[]).unwrap();
    let rows = (0..n)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(0),
                Value::Int(i),
                Value::text("a"),
            ]
        })
        .collect();
    db.insert_many("t", rows).unwrap();
    db.execute(
        "CREATE TABLE o (oid INTEGER NOT NULL, g INTEGER, hi INTEGER, PRIMARY KEY (oid))",
        &[],
    )
    .unwrap();
    db.execute("INSERT INTO o VALUES (1, 0, ?)", &[Value::Int(n)])
        .unwrap();
    db
}

/// One statement shape whose predicate rejects every `t` record, with the
/// plan line that names its shape and the records it examines besides
/// the `n` of `t`.
struct Shape {
    name: &'static str,
    sql: &'static str,
    plan: &'static str,
    outer_rows: u64,
}

const SHAPES: [Shape; 4] = [
    Shape {
        name: "filter over an index range",
        sql: "SELECT id, tag FROM t WHERE g = ? AND tag = 'zzz'",
        plan: "Filter [#3 = 'zzz']",
        outer_rows: 0,
    },
    Shape {
        name: "index-nested-loop join residual",
        sql: "SELECT o.oid, t.id, t.tag FROM o, t WHERE t.g = o.g AND t.tag = 'zzz' AND o.g = ?",
        plan: "Index Nested-Loop Join residual [#6 = 'zzz']",
        outer_rows: 1,
    },
    Shape {
        name: "memoised range count",
        sql: "SELECT o.oid, (SELECT COUNT(*) FROM t y WHERE y.g = o.g AND y.k < o.hi \
              AND y.tag = 'zzz') FROM o WHERE o.g = ?",
        plan: "(range count, memoised per statement)",
        outer_rows: 1,
    },
    Shape {
        name: "non-matching EXISTS",
        sql: "SELECT o.oid FROM o WHERE o.g = ? AND EXISTS (SELECT 1 FROM t y \
              WHERE y.g = o.g AND y.tag = 'zzz')",
        plan: "EXISTS $0",
        outer_rows: 1,
    },
];

/// Runs `shape` once to plan it, then again counting the second run's
/// allocations; returns them with the run's `rows_scanned`.
fn measure(db: &mut Database, shape: &Shape) -> (u64, u64) {
    let params = [Value::Int(0)];
    let plan = db.explain(shape.sql, &params, false).unwrap().join("\n");
    assert!(plan.contains(shape.plan), "{}:\n{plan}", shape.name);
    db.run_read(shape.sql, &params).unwrap();
    let before = ALLOCS.with(Cell::get);
    let r = db.run_read(shape.sql, &params).unwrap();
    let allocs = ALLOCS.with(Cell::get) - before;
    let want_rows = usize::from(shape.name == "memoised range count");
    assert_eq!(r.rows.len(), want_rows, "{}: {:?}", shape.name, r.rows);
    (allocs, r.stats.rows_scanned)
}

#[test]
fn rejected_records_cost_no_allocations() {
    const SMALL: i64 = 100;
    const LARGE: i64 = 10_000;
    /// Allocations the large table may make beyond the small one.
    const SLACK: u64 = 16;
    let (mut small, mut large) = (table(SMALL), table(LARGE));
    for shape in &SHAPES {
        let (small_allocs, small_rows) = measure(&mut small, shape);
        let (large_allocs, large_rows) = measure(&mut large, shape);
        // Every record is still examined.
        assert_eq!(
            small_rows,
            SMALL as u64 + shape.outer_rows,
            "{}",
            shape.name
        );
        assert_eq!(
            large_rows,
            LARGE as u64 + shape.outer_rows,
            "{}",
            shape.name
        );
        assert!(
            large_allocs <= small_allocs + SLACK,
            "{}: {large_allocs} allocations over {LARGE} rows, {small_allocs} over {SMALL}",
            shape.name
        );
    }
}

#[test]
fn exists_stops_at_its_first_row() {
    // ROADMAP item 17's probe: an EXISTS over a 100,000-row range.
    let mut db = Database::in_memory();
    db.execute(
        "CREATE TABLE t (doc INTEGER NOT NULL, pos INTEGER NOT NULL, PRIMARY KEY (doc, pos))",
        &[],
    )
    .unwrap();
    let rows = (0..100_000)
        .map(|p| vec![Value::Int(1), Value::Int(p)])
        .collect();
    db.insert_many("t", rows).unwrap();
    db.execute(
        "CREATE TABLE o (doc INTEGER NOT NULL, pos INTEGER NOT NULL, PRIMARY KEY (doc, pos))",
        &[],
    )
    .unwrap();
    db.execute("INSERT INTO o VALUES (1, 2)", &[]).unwrap();
    let probe = "SELECT o.pos FROM o WHERE EXISTS \
                 (SELECT 1 FROM t WHERE t.doc = o.doc AND t.pos > o.pos)";
    let r = db.run_read(probe, &[]).unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
    assert!(r.stats.rows_scanned <= 2, "{:?}", r.stats);
    // Behind a filter, the subplan stops at the first row that passes,
    // whether the conjunct runs on the stored record or on the decoded
    // row: positions 3 to 10 are read.
    for cond in ["t.pos >= 10", "t.pos + 0 = 10"] {
        let filtered = format!(
            "SELECT o.pos FROM o WHERE EXISTS \
             (SELECT 1 FROM t WHERE t.doc = o.doc AND t.pos > o.pos AND {cond})"
        );
        let r = db.run_read(&filtered, &[]).unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(2)]], "{cond}");
        assert_eq!(r.stats.rows_scanned, 1 + 8, "{cond}: {:?}", r.stats);
    }
    // A scalar subquery still reads its whole range.
    let count = "SELECT (SELECT COUNT(*) FROM t WHERE t.doc = o.doc AND t.pos > o.pos) FROM o";
    let r = db.run_read(count, &[]).unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(99_997)]]);
    assert_eq!(r.stats.rows_scanned, 1 + 99_997, "{:?}", r.stats);
}

#[test]
fn explain_analyze_reports_what_a_filtered_scan_read_and_passed() {
    let mut db = Database::in_memory();
    db.execute(
        "CREATE TABLE t (id INTEGER NOT NULL, g INTEGER, tag TEXT, PRIMARY KEY (id))",
        &[],
    )
    .unwrap();
    db.execute("CREATE INDEX t_g ON t (g)", &[]).unwrap();
    let rows = (0..60)
        .map(|i| {
            let tag = if i % 3 == 0 { "a" } else { "b" };
            vec![Value::Int(i), Value::Int(i % 2), Value::text(tag)]
        })
        .collect();
    db.insert_many("t", rows).unwrap();
    let sql = "SELECT id FROM t WHERE g = ? AND tag = ?";
    let params = [Value::Int(1), Value::text("a")];
    let lines = db.explain(sql, &params, true).unwrap();
    let line = |what: &str| {
        lines
            .iter()
            .find(|l| l.contains(what))
            .unwrap_or_else(|| panic!("no {what} line in {lines:#?}"))
    };
    // 30 rows have g = 1; of those, the 10 with an odd multiple of 3 as
    // id are tagged 'a'.
    assert!(
        line("Index Scan on t using t_g").contains("actual rows=30 loops=1"),
        "{lines:#?}"
    );
    assert!(
        line("Filter [#2 = ?2]").contains("actual rows=10 loops=1"),
        "{lines:#?}"
    );
    assert!(
        line("Project").contains("actual rows=10 loops=1"),
        "{lines:#?}"
    );
    // A record test that meets a value of another kind is evaluated on
    // the decoded row, and fails the way plain evaluation does.
    let err = db
        .run_read(sql, &[Value::Int(1), Value::Int(5)])
        .unwrap_err();
    assert!(err.to_string().contains("cannot compare"), "{err}");
}

/// A value of any kind a test operand can hold, NULL included.
fn any_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-2i64..4).prop_map(Value::Int),
        prop_oneof![Just(0.5f64), Just(1.0), Just(f64::NAN)].prop_map(Value::Float),
        prop_oneof![Just("a"), Just("b")].prop_map(Value::text),
    ]
}

/// One conjunct over `t`'s columns: a comparison of a column with a
/// literal, a parameter or (in the join and `EXISTS` forms) a column of
/// `o`, written either way round; or one that is not a record test.
#[derive(Debug, Clone)]
enum Conjunct {
    Compare {
        col: &'static str,
        op: &'static str,
        operand: Operand,
        flipped: bool,
    },
    Arithmetic(Value),
    Like,
}

#[derive(Debug, Clone)]
enum Operand {
    Literal(Value),
    Param(Value),
    Other(&'static str),
}

fn conjunct() -> impl Strategy<Value = Conjunct> {
    let col = prop_oneof![Just("t.i"), Just("t.f"), Just("t.s")];
    let op = prop_oneof![
        Just("="),
        Just("<>"),
        Just("<"),
        Just("<="),
        Just(">"),
        Just(">=")
    ];
    let operand = prop_oneof![
        any_value().prop_map(Operand::Literal),
        any_value().prop_map(Operand::Param),
        prop_oneof![Just("o.i"), Just("o.s")].prop_map(Operand::Other),
    ];
    prop_oneof![
        6 => (col, op, operand, any::<bool>()).prop_map(|(col, op, operand, flipped)| {
            Conjunct::Compare { col, op, operand, flipped }
        }),
        1 => any_value().prop_map(Conjunct::Arithmetic),
        1 => Just(Conjunct::Like),
    ]
}

/// Renders `c`, pushing its parameters; `wrap` makes it `NOT (NOT (c))`,
/// which the planner never turns into a record test.
fn render(c: &Conjunct, wrap: bool, params: &mut Vec<Value>) -> String {
    let text = match c {
        Conjunct::Compare {
            col,
            op,
            operand,
            flipped,
        } => {
            let other = match operand {
                Operand::Literal(Value::Null) => "NULL".to_string(),
                Operand::Literal(Value::Text(s)) => format!("'{s}'"),
                Operand::Literal(Value::Float(x)) if x.is_nan() => {
                    params.push(Value::Float(*x));
                    "?".to_string()
                }
                Operand::Literal(v) => format!("{v:?}")
                    .trim_start_matches("Int(")
                    .trim_start_matches("Float(")
                    .trim_end_matches(')')
                    .to_string(),
                Operand::Param(v) => {
                    params.push(v.clone());
                    "?".to_string()
                }
                Operand::Other(name) => name.to_string(),
            };
            if *flipped {
                format!("{other} {op} {col}")
            } else {
                format!("{col} {op} {other}")
            }
        }
        Conjunct::Arithmetic(v) => {
            params.push(v.clone());
            "t.i + 1 > ?".to_string()
        }
        Conjunct::Like => "t.s LIKE 'a%'".to_string(),
    };
    if wrap {
        format!("NOT (NOT ({text}))")
    } else {
        text
    }
}

/// `t` (indexed on `g`) and `o`, with NULLs in every nullable column.
fn mixed_tables(rows: &[(i64, Value, Value, Value)], outer: &[(Value, Value)]) -> Database {
    let mut db = Database::in_memory();
    db.execute(
        "CREATE TABLE t (id INTEGER NOT NULL, g INTEGER NOT NULL, i INTEGER, f DOUBLE, s TEXT, \
         PRIMARY KEY (id))",
        &[],
    )
    .unwrap();
    db.execute("CREATE INDEX t_g ON t (g)", &[]).unwrap();
    for (id, (g, i, f, s)) in rows.iter().enumerate() {
        let row = vec![
            Value::Int(id as i64),
            Value::Int(*g),
            i.clone(),
            f.clone(),
            s.clone(),
        ];
        db.insert_many("t", vec![row]).unwrap();
    }
    db.execute(
        "CREATE TABLE o (oid INTEGER NOT NULL, g INTEGER NOT NULL, i INTEGER, s TEXT, \
         PRIMARY KEY (oid))",
        &[],
    )
    .unwrap();
    for (oid, (i, s)) in outer.iter().enumerate() {
        let row = vec![
            Value::Int(oid as i64),
            Value::Int(oid as i64 % 2),
            i.clone(),
            s.clone(),
        ];
        db.insert_many("o", vec![row]).unwrap();
    }
    db
}

fn row_strategy() -> impl Strategy<Value = (i64, Value, Value, Value)> {
    let int = prop_oneof![Just(Value::Null), (-2i64..4).prop_map(Value::Int)];
    let float = prop_oneof![
        Just(Value::Null),
        prop_oneof![Just(0.5f64), Just(1.0), Just(-3.0)].prop_map(Value::Float)
    ];
    let text = prop_oneof![
        Just(Value::Null),
        prop_oneof![Just("a"), Just("ab"), Just("b")].prop_map(Value::text)
    ];
    (0i64..2, int, float, text)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn record_tests_agree_with_plain_evaluation(
        rows in proptest::collection::vec(row_strategy(), 0..24),
        outer in proptest::collection::vec(
            (prop_oneof![Just(Value::Null), (-2i64..4).prop_map(Value::Int)],
             prop_oneof![Just(Value::Null), Just(Value::text("a"))]),
            1..4,
        ),
        conjuncts in proptest::collection::vec(conjunct(), 1..4),
    ) {
        let db = mixed_tables(&rows, &outer);
        let scan_only = conjuncts
            .iter()
            .all(|c| !matches!(c, Conjunct::Compare { operand: Operand::Other(_), .. }));
        let forms: [(&str, &str, bool); 3] = [
            ("SELECT t.id FROM t WHERE t.g = 0 AND ", "", scan_only),
            ("SELECT o.oid, t.id FROM o, t WHERE t.g = o.g AND ", "", true),
            (
                "SELECT o.oid FROM o WHERE EXISTS (SELECT 1 FROM t WHERE t.g = o.g AND ",
                ")",
                true,
            ),
        ];
        for (head, tail, applies) in forms {
            if !applies {
                continue;
            }
            let run = |wrap: bool| {
                let mut params = Vec::new();
                let parts: Vec<String> =
                    conjuncts.iter().map(|c| render(c, wrap, &mut params)).collect();
                let sql = format!("{head}{}{tail}", parts.join(" AND "));
                (db.run_read(&sql, &params).map(|r| r.rows).map_err(|e| e.to_string()), sql)
            };
            let ((split, sql), (plain, _)) = (run(false), run(true));
            prop_assert_eq!(split, plain, "{}", sql);
        }
    }
}
