//! Every write statement is all-or-nothing and every live read sees the
//! database's current state, on the in-memory backend and on the file
//! backend with its WAL: a multi-row `UPDATE` or a bulk insert that fails
//! part-way leaves no row, index entry or count changed, and a live read
//! on another thread sees an open transaction exactly as the writer's own
//! thread does, while a snapshot taken before it keeps its commit. Rolling
//! back a statement that ran no DDL keeps the cached plans.

use ordxml_rdbms::storage::wal_path;
use ordxml_rdbms::{Database, DbError, Row, Value};

/// Runs `check` on an in-memory database and on a fresh file-backed one.
fn on_both_backends(name: &str, check: impl Fn(Database)) {
    let dir = std::env::temp_dir().join(format!("ordxml-atomicity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let files = [wal_path(&path), path.clone()];
    let remove = || files.iter().for_each(|f| drop(std::fs::remove_file(f)));
    remove();
    check(Database::in_memory());
    check(Database::open(&path, 16).unwrap());
    remove();
}

fn count(db: &mut Database) -> i64 {
    db.query("SELECT COUNT(*) FROM t", &[]).unwrap()[0][0]
        .as_int()
        .unwrap()
}

/// Every row, the point lookups by primary key and by the unique index on
/// `b` (hits and misses), and `COUNT(*)` of the table `t (a, b)`.
fn table_state(db: &mut Database) -> (Vec<Row>, Vec<Vec<Row>>, i64) {
    let rows = db.query("SELECT a, b FROM t ORDER BY a", &[]).unwrap();
    let mut lookups = Vec::new();
    for k in [1, 2, 3, 10, 11, 12] {
        for sql in ["SELECT b FROM t WHERE a = ?", "SELECT a FROM t WHERE b = ?"] {
            lookups.push(db.query(sql, &[Value::Int(k)]).unwrap());
        }
    }
    (rows, lookups, count(db))
}

#[test]
fn failed_write_statements_leave_no_partial_effects() {
    on_both_backends("partial.db", |mut db| {
        db.execute(
            "CREATE TABLE t (a INTEGER, b INTEGER, PRIMARY KEY (a))",
            &[],
        )
        .unwrap();
        db.execute("CREATE UNIQUE INDEX tb ON t (b)", &[]).unwrap();
        for i in 1..=3 {
            db.execute(
                "INSERT INTO t VALUES (?, ?)",
                &[Value::Int(i), Value::Int(i)],
            )
            .unwrap();
        }
        let before = table_state(&mut db);
        let misses =
            |db: &Database| -> u64 { db.plan_cache_shard_stats().iter().map(|s| s.1).sum() };
        // Row 1 takes b = 10, then row 2 breaks the unique index.
        let err = db
            .execute("UPDATE t SET b = 10 WHERE a >= 1", &[])
            .unwrap_err();
        assert!(matches!(err, DbError::Constraint(_)), "{err}");
        let planned = misses(&db);
        assert_eq!(table_state(&mut db), before, "a failed UPDATE keeps no row");
        assert_eq!(misses(&db), planned, "rolling back DML keeps cached plans");
        // The last row repeats primary key 1.
        let rows = [(10, 10), (11, 11), (1, 12)]
            .map(|(a, b)| vec![Value::Int(a), Value::Int(b)])
            .to_vec();
        let err = db.insert_many("t", rows).unwrap_err();
        assert!(matches!(err, DbError::Constraint(_)), "{err}");
        assert_eq!(
            table_state(&mut db),
            before,
            "a failed bulk insert keeps no row"
        );
    });
}

#[test]
fn live_reads_on_another_thread_see_the_open_transaction() {
    on_both_backends("live.db", |mut db| {
        db.execute("CREATE TABLE t (a INTEGER, PRIMARY KEY (a))", &[])
            .unwrap();
        let insert = |db: &mut Database, keys: std::ops::Range<i64>| {
            for a in keys {
                db.execute("INSERT INTO t VALUES (?)", &[Value::Int(a)])
                    .unwrap();
            }
        };
        insert(&mut db, 0..3);
        let before_begin = db.snapshot();
        db.begin().unwrap();
        insert(&mut db, 3..303);
        let reads = |db: &Database| {
            let point = db.query_read("SELECT a FROM t WHERE a = ?", &[Value::Int(253)]);
            (point, db.query_read("SELECT COUNT(*) FROM t", &[]))
        };
        let own = reads(&db);
        assert_eq!(own.0, Ok(vec![vec![Value::Int(253)]]));
        assert_eq!(own.1, Ok(vec![vec![Value::Int(303)]]));
        let other = std::thread::scope(|s| s.spawn(|| reads(&db)).join().unwrap());
        assert_eq!(
            other, own,
            "a live read sees the writer's state on any thread"
        );
        let committed = || before_begin.query_read("SELECT COUNT(*) FROM t", &[]);
        assert_eq!(
            committed(),
            Ok(vec![vec![Value::Int(3)]]),
            "the snapshot keeps its commit"
        );
        db.commit().unwrap();
        assert_eq!(committed(), Ok(vec![vec![Value::Int(3)]]));
        assert_eq!(count(&mut db), 303);
    });
}
