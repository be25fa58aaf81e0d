//! Per-statement work counts stay exact under concurrency: eight threads
//! run one indexed `SELECT` on one snapshot, and every statement reports
//! exactly the pages, descents, leaf scans and rows it reports alone — on
//! the in-memory backend and on the file backend with its WAL, with and
//! without a writer committing beside the readers.

use ordxml_rdbms::{Database, DbSnapshot, ExecStats, Row, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

const ROWS: i64 = 5_000;
const GROUPS: i64 = 50;
const THREADS: usize = 8;
const STATEMENTS: usize = 200;
const QUERY: &str = "SELECT id, b FROM t WHERE a = ?";

/// A table of `ROWS` rows with an index on `a`; each value of `a` matches
/// `ROWS / GROUPS` rows spread over the whole heap.
fn load(db: &mut Database) {
    db.execute(
        "CREATE TABLE t (id INTEGER NOT NULL, a INTEGER, b TEXT, PRIMARY KEY (id))",
        &[],
    )
    .unwrap();
    db.execute("CREATE INDEX t_a ON t (a)", &[]).unwrap();
    db.insert_many("t", (0..ROWS).map(row).collect()).unwrap();
}

fn row(id: i64) -> Row {
    vec![
        Value::Int(id),
        Value::Int(id % GROUPS),
        Value::text(format!("row {id:05} {}", "x".repeat(120))),
    ]
}

/// The counts that depend only on what a statement reads, not on what the
/// buffer pool happened to hold.
fn work(s: &ExecStats) -> [u64; 6] {
    [
        s.pages_read,
        s.btree_descents,
        s.btree_descent_reuses,
        s.btree_leaf_scans,
        s.rows_scanned,
        s.index_rows,
    ]
}

/// Runs `QUERY` `STATEMENTS` times on each of `THREADS` threads against
/// `snap`, with `beside` running on one more thread until they finish.
/// `beside` must pass `start` before the readers begin. Returns every
/// reader statement's stats and what `beside` returned.
fn race<T: Send>(
    snap: &DbSnapshot,
    want_rows: &[Row],
    beside: impl FnOnce(&Barrier, &AtomicBool) -> T + Send,
) -> (Vec<ExecStats>, T) {
    let start = Barrier::new(THREADS + 1);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let side = s.spawn(|| beside(&start, &done));
        let readers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    (0..STATEMENTS)
                        .map(|_| {
                            let r = snap.run_read(QUERY, &[Value::Int(7)]).unwrap();
                            assert_eq!(r.rows, want_rows);
                            r.stats
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let stats = readers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        done.store(true, Ordering::Release);
        (stats, side.join().unwrap())
    })
}

/// Asserts every statement matches the solo run and its cache hits and
/// misses add up to its page reads.
fn assert_exact(label: &str, solo: &ExecStats, stats: &[ExecStats]) {
    assert_eq!(stats.len(), THREADS * STATEMENTS);
    let wrong: Vec<&ExecStats> = stats.iter().filter(|s| work(s) != work(solo)).collect();
    assert!(
        wrong.is_empty(),
        "{label}: {} of {} statements differ from the solo run {:?}, e.g. {:?}",
        wrong.len(),
        stats.len(),
        work(solo),
        work(wrong[0]),
    );
    for s in stats {
        assert_eq!(
            s.cache_hits + s.cache_misses,
            s.pages_read,
            "{label}: {s:?}"
        );
    }
}

fn check(label: &str, mut db: Database) {
    load(&mut db);
    let snap = db.snapshot();
    let solo = snap.run_read(QUERY, &[Value::Int(7)]).unwrap();
    assert_eq!(solo.rows.len() as i64, ROWS / GROUPS);
    assert!(solo.stats.pages_read > 0 && solo.stats.btree_descents > 0);

    // Phase 1: readers only. Every miss happens inside some statement, so
    // the statements' misses add up to the pager's physical reads.
    let pager = db.pager_stats();
    let physical = pager.full().physical_reads;
    let (stats, ()) = race(&snap, &solo.rows, |start, _| {
        start.wait();
    });
    assert_exact(label, &solo.stats, &stats);
    let misses: u64 = stats.iter().map(|s| s.cache_misses).sum();
    assert_eq!(misses, pager.full().physical_reads - physical, "{label}");

    // Phase 2: a writer commits inserts beside the readers; the pinned
    // snapshot's statements still count exactly their own work.
    let physical = pager.full().physical_reads;
    let (stats, writes) = race(&snap, &solo.rows, |start, done| {
        let mut writes = Vec::new();
        for id in ROWS.. {
            let r = db.run("INSERT INTO t VALUES (?, ?, ?)", &row(id)).unwrap();
            writes.push(r.stats);
            // The readers start once the writer has committed, and it
            // keeps committing until they finish.
            if id == ROWS {
                start.wait();
            }
            if done.load(Ordering::Acquire) {
                return writes;
            }
        }
        unreachable!("ids run out before the readers finish")
    });
    assert_exact(label, &solo.stats, &stats);
    let misses: u64 = stats.iter().chain(&writes).map(|s| s.cache_misses).sum();
    assert_eq!(misses, pager.full().physical_reads - physical, "{label}");
}

#[test]
fn concurrent_statements_count_exactly_their_own_work_in_memory() {
    check("mem", Database::in_memory());
}

#[test]
fn concurrent_statements_count_exactly_their_own_work_on_file_with_wal() {
    let dir = std::env::temp_dir().join(format!("ordxml-ledger-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // A pool smaller than the table, so readers miss and evict.
    check("file", Database::open(&dir.join("t.db"), 32).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}
