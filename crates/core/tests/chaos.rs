//! Chaos and governance tests: query deadlines, cooperative cancellation,
//! work budgets, read-path fault injection with retry, and the degraded
//! read-only state machine.
//!
//! Two families:
//!
//! * **Governance** — a governed statement (or whole XPath call) that trips
//!   its deadline / cancel flag / work budget must surface the matching
//!   typed error, never hang or panic, and leave the store fully
//!   consistent: an un-governed re-query afterwards matches a fresh-store
//!   oracle (property-tested across encodings and backends).
//! * **Degradation** — a *persistent* write-path failure (injected crash,
//!   `ENOSPC`) mid-commit must roll the update back and enter degraded
//!   read-only mode: reads keep serving the pre-update state, writes are
//!   refused with [`DbError::Degraded`], and `try_restore()` after the
//!   fault clears re-enables writes.

use ordxml::{Encoding, XmlStore};
use ordxml_rdbms::governance::{Ledger, Work};
use ordxml_rdbms::{storage::wal_path, Database, DbError, StoreHealth, Value};
use ordxml_xml::{parse as parse_xml, Document, NodePath};
use proptest::prelude::*;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// A document with `n` identical items — enough rows that a scan crosses
/// several governance check periods.
fn item_doc(n: usize) -> Document {
    let mut xml = String::from("<catalog>");
    for i in 0..n {
        xml.push_str(&format!(
            "<item id=\"i{i}\"><name>Item {i}</name><price>{}</price></item>",
            (i * 7) % 100
        ));
    }
    xml.push_str("</catalog>");
    parse_xml(&xml).unwrap()
}

fn tmp_db_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ordxml-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.db"))
}

fn cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(wal_path(path));
}

/// A cross-join whose full materialization would take minutes: the
/// acceptance query for deadlines. 200^3 = 8e9 combined rows — any run
/// that *returns* instead of timing out would be a test failure by wall
/// clock alone.
fn pathological_db() -> Database {
    let mut db = Database::in_memory();
    for t in ["t1", "t2", "t3"] {
        db.execute(
            &format!("CREATE TABLE {t} (a INTEGER, PRIMARY KEY (a))"),
            &[],
        )
        .unwrap();
        for i in 0..200 {
            db.execute(&format!("INSERT INTO {t} VALUES (?)"), &[Value::Int(i)])
                .unwrap();
        }
    }
    db
}

const PATHOLOGICAL: &str = "SELECT COUNT(*) FROM t1, t2, t3 WHERE t1.a + t2.a + t3.a >= 0";

#[test]
fn pathological_query_under_10ms_deadline_times_out() {
    let mut db = pathological_db();
    db.set_deadline_ms(10);
    let started = Instant::now();
    let err = db.query(PATHOLOGICAL, &[]).unwrap_err();
    assert!(matches!(err, DbError::Timeout(_)), "got {err}");
    // The deadline is 10ms; generous slack for a loaded CI box, but the
    // full join would run for minutes, so this bounds "cooperative" too.
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "timeout took {:?} to surface",
        started.elapsed()
    );
    assert_eq!(db.total_stats().queries_timed_out, 1);
    // Clearing the deadline restores normal service on the same handle.
    db.set_deadline_ms(0);
    let rows = db.query("SELECT COUNT(*) FROM t1", &[]).unwrap();
    assert_eq!(rows[0][0], Value::Int(200));
}

#[test]
fn cancel_flag_aborts_inflight_query_from_another_thread() {
    let db = pathological_db();
    let cancel = db.cancel_flag();
    let err = std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(Duration::from_millis(30));
            cancel.store(true, Ordering::Relaxed);
        });
        db.query_read(PATHOLOGICAL, &[]).unwrap_err()
    });
    assert!(matches!(err, DbError::Canceled(_)), "got {err}");
    assert_eq!(db.total_stats().queries_canceled, 1);
    cancel.store(false, Ordering::Relaxed);
    assert!(db.query_read("SELECT COUNT(*) FROM t2", &[]).is_ok());
}

#[test]
fn work_budget_trips_resource_exhausted() {
    let mut db = pathological_db();
    db.set_work_budget(1_000);
    let err = db.query(PATHOLOGICAL, &[]).unwrap_err();
    assert!(matches!(err, DbError::ResourceExhausted(_)), "got {err}");
    db.set_work_budget(0);
    assert!(db.query("SELECT COUNT(*) FROM t3", &[]).is_ok());
}

#[test]
fn store_level_budget_and_cancel_surface_typed_errors() {
    for enc in Encoding::all() {
        let store = XmlStore::new(Database::in_memory(), enc);
        let d = store.load_document(&item_doc(400), "gov").unwrap();
        // Budget small enough that the first scan statement trips it.
        store.set_work_budget(50);
        let err = store.xpath(d, "/catalog/item/name").unwrap_err();
        assert!(
            matches!(err, ordxml::StoreError::Db(DbError::ResourceExhausted(_))),
            "{enc}: got {err}"
        );
        store.set_work_budget(0);
        // A pre-set cancel flag cancels at the first periodic check.
        store.cancel_flag().store(true, Ordering::Relaxed);
        let err = store.xpath(d, "/catalog/item/name").unwrap_err();
        assert!(
            matches!(err, ordxml::StoreError::Db(DbError::Canceled(_))),
            "{enc}: got {err}"
        );
        store.cancel_flag().store(false, Ordering::Relaxed);
        // Un-governed service resumes: full result, correct cardinality.
        let hits = store.xpath(d, "/catalog/item/name").unwrap();
        assert_eq!(hits.len(), 400, "{enc}");
    }
}

#[test]
fn transient_read_faults_retry_and_recover() {
    let path = tmp_db_path("read-retry");
    cleanup(&path);
    {
        // A 4-frame cache over a table spanning many pages guarantees the
        // query below does physical reads (with checksums recorded at
        // write time, so corruption is detectable).
        let mut db = Database::open(&path, 4).unwrap();
        db.execute("CREATE TABLE t (a INTEGER, b TEXT, PRIMARY KEY (a))", &[])
            .unwrap();
        let filler = "x".repeat(400);
        for i in 0..200 {
            db.execute(
                "INSERT INTO t VALUES (?, ?)",
                &[Value::Int(i), Value::text(filler.clone())],
            )
            .unwrap();
        }
        db.checkpoint().unwrap();
        let base = db.pager_stats().full().physical_reads;

        // One injected hard read error: the retry path absorbs it.
        db.faults().fail_nth_read(1);
        let rows = db.query("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(rows[0][0], Value::Int(200));
        assert!(
            db.pager_stats().full().physical_reads > base,
            "query never touched the disk; the fault cannot have fired"
        );
        let retries_after_fail = db.total_stats().read_retries;
        assert!(retries_after_fail >= 1, "injected read error never retried");

        // One corrupted page image: the checksum catches it, the retry
        // re-reads the intact bytes.
        db.faults().corrupt_nth_read(1);
        let rows = db
            .query("SELECT COUNT(*) FROM t WHERE a >= 0", &[])
            .unwrap();
        assert_eq!(rows[0][0], Value::Int(200));
        assert!(
            db.total_stats().read_retries > retries_after_fail,
            "corrupted page image was served without a checksum retry"
        );
    }
    cleanup(&path);
}

/// The degraded-mode chaos matrix: every encoding × both persistent fault
/// flavors (dead write path, out of space).
#[test]
fn persistent_write_failure_degrades_to_read_only_then_restores() {
    let pre_doc = item_doc(8);
    let fragment = parse_xml("<item id=\"new\"><name>New</name></item>").unwrap();
    for enc in Encoding::all() {
        for fault in ["crash", "enospc"] {
            let path = tmp_db_path(&format!("degraded-{}-{fault}", enc.name()));
            cleanup(&path);
            let store = XmlStore::new(Database::open(&path, 32).unwrap(), enc);
            let d = store.load_document(&pre_doc, "chaos").unwrap();
            store.db().checkpoint().unwrap();
            assert!(matches!(store.health(), StoreHealth::Healthy));

            match fault {
                "crash" => store.db().faults().crash_after_wal_frames(0),
                _ => store.db().faults().fail_writes_with_enospc(),
            }

            // The update fails mid-commit and rolls back.
            let err = store
                .insert_fragment(d, &NodePath(vec![]), 0, &fragment)
                .unwrap_err();
            assert!(
                !matches!(err, ordxml::StoreError::Db(DbError::Degraded(_))),
                "{enc}/{fault}: first failure must surface the storage \
                 error, not the degraded rejection: {err}"
            );

            // The store is degraded read-only: reads serve the pre-update
            // state, writes are refused with the typed error.
            assert!(
                store.health().is_degraded(),
                "{enc}/{fault}: persistent failure did not degrade"
            );
            let rebuilt = store.reconstruct_document(d).unwrap();
            assert!(
                pre_doc.tree_eq(&rebuilt),
                "{enc}/{fault}: degraded reads diverged from pre-update state"
            );
            assert_eq!(
                store.xpath(d, "/catalog/item/name").unwrap().len(),
                8,
                "{enc}/{fault}"
            );
            let mark = Ledger::read();
            let err = store
                .insert_fragment(d, &NodePath(vec![]), 0, &fragment)
                .unwrap_err();
            assert!(
                matches!(err, ordxml::StoreError::Db(DbError::Degraded(_))),
                "{enc}/{fault}: degraded store accepted a write path: {err}"
            );
            assert_eq!(
                Ledger::read().since(&mark)[Work::DegradedReject],
                1,
                "{enc}/{fault}: rejection not counted once"
            );

            // try_restore with the fault still live must fail and stay
            // degraded.
            assert!(store.try_restore().is_err(), "{enc}/{fault}");
            assert!(store.health().is_degraded(), "{enc}/{fault}");

            // Clear the fault ("space freed", "device back"): restore
            // succeeds and writes resume.
            store.db().faults().reset();
            store.try_restore().unwrap();
            assert!(
                matches!(store.health(), StoreHealth::Healthy),
                "{enc}/{fault}"
            );
            store
                .insert_fragment(d, &NodePath(vec![]), 0, &fragment)
                .unwrap();
            assert_eq!(
                store.xpath(d, "/catalog/item/name").unwrap().len(),
                9,
                "{enc}/{fault}: write after restore lost"
            );
            drop(store);
            cleanup(&path);
        }
    }
}

// -----------------------------------------------------------------------
// Property: aborting a governed query at a random point never corrupts
// the store — an un-governed re-query matches a fresh-store oracle.
// -----------------------------------------------------------------------

const PROP_QUERY: &str = "/catalog/item/name";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn governed_abort_leaves_store_consistent(
        budget in 1u64..3000,
        enc_pick in 0usize..3,
        file_backed in any::<bool>(),
        case in 0u32..1000,
    ) {
        let enc = Encoding::all()[enc_pick];
        let doc = item_doc(150);
        let path = tmp_db_path(&format!("prop-{case}-{}", enc.name()));
        let store = if file_backed {
            cleanup(&path);
            XmlStore::new(Database::open(&path, 16).unwrap(), enc)
        } else {
            XmlStore::new(Database::in_memory(), enc)
        };
        let d = store.load_document(&doc, "prop").unwrap();

        // Governed run: may succeed or trip the budget at an arbitrary
        // checkpoint — either way it must be a typed error, not a panic.
        store.set_work_budget(budget);
        match store.xpath(d, PROP_QUERY) {
            Ok(_) => {}
            Err(ordxml::StoreError::Db(DbError::ResourceExhausted(_))) => {}
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }

        // Un-governed re-query matches a fresh in-memory oracle.
        store.set_work_budget(0);
        let got: Vec<_> = store
            .xpath(d, PROP_QUERY)
            .unwrap()
            .iter()
            .map(|n| (n.node.display_key(), n.tag.clone(), n.value.clone()))
            .collect();
        let oracle_store = XmlStore::new(Database::in_memory(), enc);
        let od = oracle_store.load_document(&doc, "oracle").unwrap();
        let want: Vec<_> = oracle_store
            .xpath(od, PROP_QUERY)
            .unwrap()
            .iter()
            .map(|n| (n.node.display_key(), n.tag.clone(), n.value.clone()))
            .collect();
        prop_assert_eq!(got, want);
        let rebuilt = store.reconstruct_document(d).unwrap();
        prop_assert!(doc.tree_eq(&rebuilt), "store content diverged");
        drop(store);
        if file_backed {
            cleanup(&path);
        }
    }
}
