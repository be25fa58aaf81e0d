//! Concurrency stress: reader threads against a live writer on one shared
//! `Arc<XmlStore>`.
//!
//! The store's reader–writer contract says a read sees the document
//! exactly as it was before or after an update, never mid-update: updates
//! run under the store's write latch (and, on file backends, inside a WAL
//! transaction), while reads resolve lock-free against the last
//! *committed* store snapshot (store-level MVCC) — writers never block
//! readers, and a held snapshot keeps serving its version across later
//! commits. The writer here repeatedly
//! inserts and deletes a two-child marker fragment while readers assert
//! pair-invariants that any torn update would break — across all three
//! encodings and both the in-memory and file-backed pager.

use ordxml::naive::{DomNode, NaiveEvaluator};
use ordxml::{Encoding, OrderConfig, XmlStore};
use ordxml_rdbms::Database;
use ordxml_xml::{parse as parse_xml, NodePath};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

const ITEMS: usize = 12;

fn catalog_xml() -> String {
    let mut xml = String::from("<catalog>");
    for i in 0..ITEMS {
        xml.push_str(&format!(
            "<item id=\"i{i}\"><name>Item {i}</name><price>{i}.99</price></item>"
        ));
    }
    xml.push_str("</catalog>");
    xml
}

/// One reader pass. Each `xpath`/`reconstruct_document` call is one
/// atomic read — the store may move between calls (the writer commits
/// concurrently), so every assertion must hold in *every* committed
/// state; the reconstruction check is the strong one, pinning a single
/// read to exactly one committed document.
fn read_pass(store: &XmlStore, d: i64, committed: &[ordxml_xml::Document]) {
    // The writer never touches the items.
    let names = store.xpath(d, "/catalog/item/name").unwrap();
    assert_eq!(names.len(), ITEMS, "item set must be stable under writes");
    // Positional predicates count only `item` children, so the marker
    // fragment never shifts this probe.
    let probe = store.xpath(d, "/catalog/item[3]/price").unwrap();
    assert_eq!(probe.len(), 1);
    // At most one marker exists in any committed state.
    assert!(store.xpath(d, "//x").unwrap().len() <= 1);
    assert!(store.xpath(d, "/catalog/w").unwrap().len() <= 1);
    let ids = store.xpath(d, "/catalog/item/@id").unwrap();
    assert_eq!(ids.len(), ITEMS);
    // Snapshot consistency: one read call must see exactly a committed
    // document — base, or base plus the whole marker fragment at one of
    // the writer's two insertion points. A torn insert/delete (marker
    // root without its children, half-shifted order keys) matches none.
    let rebuilt = store.reconstruct_document(d).unwrap();
    assert!(
        committed.iter().any(|c| c.tree_eq(&rebuilt)),
        "reader saw a non-committed intermediate state:\n{}",
        rebuilt.to_xml()
    );
}

/// Spawns `n` reader threads, each calling `pass` (which returns the reads
/// it made) until `stop` is set, and returns once every reader has
/// finished one warm-up pass (or one has died). A writer's whole run can
/// be shorter than one pass; without the wait a busy scheduler can leave
/// it no reader to overlap. The warm-up pass is not counted, so a nonzero
/// total means readers read while the writer ran.
fn spawn_readers<F>(n: usize, stop: &Arc<AtomicBool>, pass: F) -> Vec<JoinHandle<u64>>
where
    F: Fn() -> u64 + Clone + Send + 'static,
{
    let ready = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let (stop, ready, pass) = (Arc::clone(stop), Arc::clone(&ready), pass.clone());
            std::thread::spawn(move || {
                pass();
                ready.fetch_add(1, Ordering::SeqCst);
                let mut reads = 0;
                while !stop.load(Ordering::Relaxed) {
                    reads += pass();
                }
                reads
            })
        })
        .collect();
    while ready.load(Ordering::SeqCst) < n && !handles.iter().any(JoinHandle::is_finished) {
        std::thread::yield_now();
    }
    handles
}

/// Runs the stress matrix cell: `readers` threads loop over the query set
/// while the writer inserts and deletes the marker `writes` times.
fn stress(store: XmlStore, readers: usize, writes: usize) {
    let doc = parse_xml(&catalog_xml()).unwrap();
    let frag = parse_xml("<w><x/><y/></w>").unwrap();
    // The full set of states the writer ever commits: the base document
    // and the marker fragment grafted at each of its two insertion points.
    let committed: Arc<Vec<ordxml_xml::Document>> = Arc::new(
        [None, Some(0usize), Some(ITEMS / 2)]
            .into_iter()
            .map(|at| {
                let mut c = doc.clone();
                if let Some(at) = at {
                    let root = c.root();
                    c.graft(root, at, &frag, frag.root());
                }
                c
            })
            .collect(),
    );
    let store = Arc::new(store);
    let d = store
        .load_document_with(&doc, "stress", OrderConfig::with_gap(8))
        .unwrap();
    read_pass(&store, d, &committed); // sanity before any concurrency
    let stop = Arc::new(AtomicBool::new(false));
    let handles = {
        let (store, committed) = (Arc::clone(&store), Arc::clone(&committed));
        spawn_readers(readers, &stop, move || {
            read_pass(&store, d, &committed);
            1
        })
    };
    let root = NodePath(vec![]);
    for i in 0..writes {
        // Alternate insert position so the small sparse gaps erode and
        // renumbering passes also run under concurrent readers.
        let at = if i % 2 == 0 { 0 } else { ITEMS / 2 };
        store.insert_fragment(d, &root, at, &frag).unwrap();
        store.delete_subtree(d, &NodePath(vec![at])).unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let mut total_passes = 0u64;
    for h in handles {
        total_passes += h.join().expect("reader thread must not panic");
    }
    assert!(total_passes > 0, "readers never ran");
    // Quiescent state: all markers gone, document intact.
    read_pass(&store, d, &committed);
    assert_eq!(store.xpath(d, "//x").unwrap().len(), 0);
    let rebuilt = store.reconstruct_document(d).unwrap();
    assert!(doc.tree_eq(&rebuilt), "document drifted under stress");
}

fn file_db(tag: &str) -> (std::path::PathBuf, Database) {
    let dir = std::env::temp_dir().join(format!("ordxml-stress-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.db"));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(ordxml_rdbms::storage::wal_path(&path));
    let db = Database::open(&path, 64).unwrap();
    (path, db)
}

fn cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(ordxml_rdbms::storage::wal_path(path));
}

#[test]
fn readers_vs_writer_in_memory() {
    for enc in Encoding::all() {
        stress(XmlStore::new(Database::in_memory(), enc), 4, 40);
    }
}

#[test]
fn readers_vs_writer_file_backed() {
    // File-backed updates commit through the WAL (PR 3's no-steal
    // transactions), so each write additionally pays the commit barrier;
    // fewer iterations keep the test CI-sized.
    for enc in Encoding::all() {
        let (path, db) = file_db(&format!("rw-{}", enc.name()));
        stress(XmlStore::new(db, enc), 4, 10);
        cleanup(&path);
    }
}

#[test]
fn eight_readers_heavy_in_memory() {
    let store = XmlStore::new(Database::in_memory(), Encoding::Global);
    stress(store, 8, 80);
}

/// Pins the single commit transition: while a writer performs exactly one
/// insert, every concurrent read reconstructs either the base document or
/// the fully-grafted one — the epoch-published page snapshot (in-memory)
/// and the WAL commit (file-backed) both forbid anything in between.
/// Runs the full 3-encodings × 2-backends matrix.
#[test]
fn single_commit_is_atomic_to_readers_all_encodings_both_backends() {
    for enc in Encoding::all() {
        for file_backed in [false, true] {
            let (path, store) = if file_backed {
                let (path, db) = file_db(&format!("atomic-{}", enc.name()));
                (Some(path), XmlStore::new(db, enc))
            } else {
                (None, XmlStore::new(Database::in_memory(), enc))
            };
            let doc = parse_xml(&catalog_xml()).unwrap();
            let frag = parse_xml("<w><x/><y/></w>").unwrap();
            let mut grafted = doc.clone();
            let root = grafted.root();
            grafted.graft(root, 0, &frag, frag.root());
            let store = Arc::new(store);
            let d = store
                .load_document_with(&doc, "atomic", OrderConfig::with_gap(8))
                .unwrap();
            let stop = Arc::new(AtomicBool::new(false));
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let store = Arc::clone(&store);
                    let stop = Arc::clone(&stop);
                    let doc = doc.clone();
                    let grafted = grafted.clone();
                    std::thread::spawn(move || {
                        let mut saw = [false, false];
                        while !stop.load(Ordering::Relaxed) {
                            let rebuilt = store.reconstruct_document(d).unwrap();
                            if doc.tree_eq(&rebuilt) {
                                saw[0] = true;
                            } else if grafted.tree_eq(&rebuilt) {
                                saw[1] = true;
                            } else {
                                panic!("read a torn commit:\n{}", rebuilt.to_xml());
                            }
                        }
                        saw
                    })
                })
                .collect();
            store
                .insert_fragment(d, &NodePath(vec![]), 0, &frag)
                .unwrap();
            stop.store(true, Ordering::Relaxed);
            let mut any_post = false;
            for h in handles {
                let saw = h.join().expect("reader panicked");
                any_post |= saw[1];
            }
            // The final read (after join) must land on the committed state.
            let rebuilt = store.reconstruct_document(d).unwrap();
            assert!(grafted.tree_eq(&rebuilt), "commit lost ({})", enc.name());
            let _ = any_post; // pre-only readers are legal on slow hosts
            if let Some(path) = path {
                drop(store);
                cleanup(&path);
            }
        }
    }
}

/// A write whose WAL commit fails under an injected I/O fault must roll
/// back completely: readers keep the last committed snapshot and the
/// store stays usable once the fault clears.
#[test]
fn failed_commit_under_fault_keeps_last_committed_snapshot() {
    let (path, db) = file_db("fault-commit");
    let store = XmlStore::new(db, Encoding::Global);
    let doc = parse_xml(&catalog_xml()).unwrap();
    let d = store
        .load_document_with(&doc, "fault", OrderConfig::with_gap(8))
        .unwrap();
    let frag = parse_xml("<w><x/><y/></w>").unwrap();
    // Fail the next file write — the update's WAL commit traffic.
    store.db().faults().fail_nth_write(1);
    let err = store.insert_fragment(d, &NodePath(vec![]), 0, &frag);
    assert!(err.is_err(), "commit must surface the injected fault");
    store.db().faults().reset();
    // The failed update rolled back: the loaded document is intact…
    let rebuilt = store.reconstruct_document(d).unwrap();
    assert!(doc.tree_eq(&rebuilt), "failed commit leaked partial state");
    // …and the store accepts new writes afterwards.
    store
        .insert_fragment(d, &NodePath(vec![]), 0, &frag)
        .unwrap();
    assert_eq!(store.xpath(d, "//x").unwrap().len(), 1);
    cleanup(&path);
}

/// Store-level MVCC torture, across the full 3-encodings × 2-backends
/// matrix: 8 readers each pin an explicit [`StoreSnapshot`] per pass and
/// reconstruct the document **twice** through it — both reconstructions
/// must be identical (a snapshot serves exactly one version no matter how
/// many commits land in between) and must equal one of the writer's
/// committed states. Each pass also runs two positional predicates through
/// the snapshot and checks them against the naive evaluator over that
/// reconstruction. The writer loops insert / delete / renumber, so
/// snapshots are pinned across structural updates *and* whole-document
/// relabeling passes.
///
/// [`StoreSnapshot`]: ordxml::StoreSnapshot
#[test]
fn mvcc_snapshot_torture_all_encodings_both_backends() {
    for enc in Encoding::all() {
        for file_backed in [false, true] {
            let (path, store) = if file_backed {
                let (path, db) = file_db(&format!("mvcc-{}", enc.name()));
                (Some(path), XmlStore::new(db, enc))
            } else {
                (None, XmlStore::new(Database::in_memory(), enc))
            };
            let doc = parse_xml(&catalog_xml()).unwrap();
            let frag = parse_xml("<w><x/><y/></w>").unwrap();
            let committed: Arc<Vec<ordxml_xml::Document>> = Arc::new(
                [None, Some(0usize), Some(ITEMS / 2)]
                    .into_iter()
                    .map(|at| {
                        let mut c = doc.clone();
                        if let Some(at) = at {
                            let root = c.root();
                            c.graft(root, at, &frag, frag.root());
                        }
                        c
                    })
                    .collect(),
            );
            let store = Arc::new(store);
            let d = store
                .load_document_with(&doc, "mvcc", OrderConfig::with_gap(8))
                .unwrap();
            let stop = Arc::new(AtomicBool::new(false));
            let handles = {
                let (store, committed) = (Arc::clone(&store), Arc::clone(&committed));
                spawn_readers(8, &stop, move || {
                    let snap = store.snapshot().unwrap();
                    let first = snap.reconstruct_document(d).unwrap();
                    let second = snap.reconstruct_document(d).unwrap();
                    assert!(
                        first.tree_eq(&second),
                        "one snapshot served two versions:\n{}\nvs\n{}",
                        first.to_xml(),
                        second.to_xml()
                    );
                    assert!(
                        committed.iter().any(|c| c.tree_eq(&first)),
                        "snapshot holds a non-committed state:\n{}",
                        first.to_xml()
                    );
                    // Positional predicates on the same pinned version agree
                    // with the naive evaluator over its reconstruction.
                    let naive = NaiveEvaluator::new(&first);
                    for q in ["/catalog/item[last()]", "/catalog/item[position() <= 3]"] {
                        let want: Vec<String> = naive
                            .eval(&ordxml::xpath::parse(q).unwrap())
                            .into_iter()
                            .map(|v| match v {
                                DomNode::Node(id) => first.subtree_to_xml(id),
                                other => panic!("{q} matched a non-element {other:?}"),
                            })
                            .collect();
                        let hits = snap.xpath(d, q).unwrap();
                        let got = snap.serialize_many(d, &hits).unwrap();
                        assert_eq!(got, want, "{q} on a pinned snapshot");
                    }
                    1
                })
            };
            let writes = if file_backed { 6 } else { 24 };
            let root = NodePath(vec![]);
            for i in 0..writes {
                let at = if i % 2 == 0 { 0 } else { ITEMS / 2 };
                store.insert_fragment(d, &root, at, &frag).unwrap();
                store.delete_subtree(d, &NodePath(vec![at])).unwrap();
                if i % 3 == 2 {
                    store.renumber_document(d).unwrap();
                }
            }
            stop.store(true, Ordering::Relaxed);
            let mut passes = 0u64;
            for h in handles {
                passes += h.join().expect("snapshot reader panicked");
            }
            assert!(passes > 0, "snapshot readers never ran");
            let rebuilt = store.reconstruct_document(d).unwrap();
            assert!(doc.tree_eq(&rebuilt), "document drifted under MVCC torture");
            if let Some(path) = path {
                drop(store);
                cleanup(&path);
            }
        }
    }
}

/// A snapshot taken before a run of commits keeps serving its version: the
/// reader holds one [`ordxml::StoreSnapshot`] across N later commits and
/// still reconstructs (and queries) the document exactly as it was when the
/// snapshot was taken, while the live store sees every later write.
#[test]
fn pinned_snapshot_survives_later_commits_both_backends() {
    for file_backed in [false, true] {
        let (path, store) = if file_backed {
            let (path, db) = file_db("pinned");
            (Some(path), XmlStore::new(db, Encoding::Global))
        } else {
            (None, XmlStore::new(Database::in_memory(), Encoding::Global))
        };
        let doc = parse_xml(&catalog_xml()).unwrap();
        let d = store
            .load_document_with(&doc, "pinned", OrderConfig::with_gap(8))
            .unwrap();
        let pinned = store.snapshot().unwrap();
        let frag = parse_xml("<w><x/><y/></w>").unwrap();
        for i in 0..5 {
            store
                .insert_fragment(d, &NodePath(vec![]), i, &frag)
                .unwrap();
        }
        store.renumber_document(d).unwrap();
        // The live store sees all five markers…
        assert_eq!(store.xpath(d, "/catalog/w").unwrap().len(), 5);
        // …while the pinned snapshot still serves the pre-commit version.
        assert_eq!(pinned.xpath(d, "/catalog/w").unwrap().len(), 0);
        assert_eq!(pinned.xpath(d, "/catalog/item/name").unwrap().len(), ITEMS);
        let old = pinned.reconstruct_document(d).unwrap();
        assert!(
            doc.tree_eq(&old),
            "pinned snapshot drifted after later commits:\n{}",
            old.to_xml()
        );
        // A fresh snapshot picks up the new committed version.
        let fresh = store.snapshot().unwrap();
        assert_eq!(fresh.xpath(d, "/catalog/w").unwrap().len(), 5);
        drop(pinned);
        if let Some(path) = path {
            drop(store);
            cleanup(&path);
        }
    }
}

/// Regression for the diagnostics latch bug: `xpath_diagnostics` is a
/// read-only query but used to take the store's **exclusive** write latch,
/// so it deadlocked (or stalled) behind any in-flight transaction. It now
/// runs on the snapshot read path: while one thread holds the store's
/// write guard with an open transaction carrying an uncommitted delete,
/// diagnostics from another thread must complete promptly and must see the
/// last *committed* state, not the transaction's.
#[test]
fn diagnostics_run_concurrently_with_inflight_transaction() {
    let store = Arc::new(XmlStore::new(Database::in_memory(), Encoding::Global));
    let doc = parse_xml(&catalog_xml()).unwrap();
    let d = store.load_document(&doc, "diag").unwrap();
    let mut guard = store.db();
    guard.begin().unwrap();
    guard
        .run(
            "DELETE FROM global_node WHERE doc = ?",
            &[ordxml_rdbms::Value::Int(d)],
        )
        .unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            let diag = store.xpath_diagnostics(d, "/catalog/item/name");
            tx.send(diag).unwrap();
        })
    };
    // Before the fix this timed out: diagnostics queued on the write latch
    // behind the open transaction.
    let (hits, diag) = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("diagnostics blocked behind an in-flight transaction")
        .expect("diagnostics failed");
    assert_eq!(
        hits.len(),
        ITEMS,
        "diagnostics leaked the transaction's uncommitted delete"
    );
    assert_eq!(diag.rows, ITEMS as u64);
    assert!(!diag.statements.is_empty(), "no statement profile captured");
    guard.rollback().unwrap();
    drop(guard);
    reader.join().unwrap();
    // Rolled back: everything still there.
    assert_eq!(store.xpath(d, "/catalog/item/name").unwrap().len(), ITEMS);
}

/// Regression for the health/stats latch bug: `health()` and
/// `total_stats()` used to queue on the store latch, so a serving-layer
/// `.health` probe hung behind any in-flight writer. Both now read
/// published/shared cells: they must answer promptly while another thread
/// holds the store's exclusive write guard.
#[test]
fn health_and_stats_answer_while_writer_holds_latch() {
    let store = Arc::new(XmlStore::new(Database::in_memory(), Encoding::Global));
    let doc = parse_xml(&catalog_xml()).unwrap();
    let d = store.load_document(&doc, "health").unwrap();
    let mut guard = store.db();
    guard.begin().unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let probe = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            let health = store.health();
            let stats = store.total_stats();
            tx.send((health, stats)).unwrap();
        })
    };
    let (health, stats) = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect(".health/.stats blocked behind an in-flight writer");
    assert!(matches!(health, ordxml_rdbms::StoreHealth::Healthy));
    assert!(stats.rows_written > 0, "load_document left no counters");
    guard.rollback().unwrap();
    drop(guard);
    probe.join().unwrap();
    let _ = d;
}

/// The acceptance gate for store-level MVCC: with a writer committing in a
/// tight loop, 8 concurrent readers record **zero** contended acquisitions
/// at the store wait site — the read path never touches the store latch —
/// and every read lands on a single committed snapshot. Wait counts are
/// measured as a before/after delta of the process-global registry; the
/// only store-latch user during the window is the single writer, whose
/// uncontended acquisitions record no waits.
#[test]
fn writer_never_blocks_readers() {
    use ordxml_rdbms::obs::{self, WaitSite};

    let store = Arc::new(XmlStore::new(Database::in_memory(), Encoding::Global));
    let doc = parse_xml(&catalog_xml()).unwrap();
    let frag = parse_xml("<w><x/><y/></w>").unwrap();
    let committed: Arc<Vec<ordxml_xml::Document>> = Arc::new(
        [None, Some(0usize), Some(ITEMS / 2)]
            .into_iter()
            .map(|at| {
                let mut c = doc.clone();
                if let Some(at) = at {
                    let root = c.root();
                    c.graft(root, at, &frag, frag.root());
                }
                c
            })
            .collect(),
    );
    let d = store
        .load_document_with(&doc, "gate", OrderConfig::with_gap(8))
        .unwrap();
    // Warm the plan cache so the measured window is steady-state reads.
    store.xpath(d, "/catalog/item/name").unwrap();
    let before = obs::snapshot().lock_waits_at(WaitSite::Store);
    let stop = Arc::new(AtomicBool::new(false));
    let handles = {
        let store = Arc::clone(&store);
        spawn_readers(8, &stop, move || {
            assert_eq!(store.xpath(d, "/catalog/item/name").unwrap().len(), ITEMS);
            let rebuilt = store.reconstruct_document(d).unwrap();
            assert!(
                committed.iter().any(|c| c.tree_eq(&rebuilt)),
                "read a non-committed state:\n{}",
                rebuilt.to_xml()
            );
            2
        })
    };
    let root = NodePath(vec![]);
    for i in 0..60 {
        let at = if i % 2 == 0 { 0 } else { ITEMS / 2 };
        store.insert_fragment(d, &root, at, &frag).unwrap();
        store.delete_subtree(d, &NodePath(vec![at])).unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let mut reads = 0u64;
    for h in handles {
        reads += h.join().expect("reader panicked");
    }
    assert!(reads > 0, "readers never ran");
    let after = obs::snapshot().lock_waits_at(WaitSite::Store);
    assert_eq!(
        after - before,
        0,
        "a reader contended the store latch while the writer committed \
         ({reads} reads recorded {} store-site waits)",
        after - before
    );
}

mod plan_cache_props {
    use super::*;
    use proptest::prelude::*;

    /// The XPath shapes the stress matrix uses, as cacheable statements
    /// with distinct SQL texts.
    const POOL: &[&str] = &[
        "/catalog/item/name",
        "/catalog/item[3]/price",
        "//name",
        "/catalog/item/@id",
        "/catalog/item[5]/name",
        "//price",
    ];

    fn canon(nodes: &[ordxml::XNode]) -> Vec<(Option<String>, Option<String>)> {
        nodes
            .iter()
            .map(|n| (n.tag.clone(), n.value.clone()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The sharded plan cache is semantically transparent: any
        /// interleaving of cached lookups — including enough distinct
        /// filler statements to force per-shard LRU evictions — returns
        /// exactly what a fresh store (old single-LRU behavior, cold
        /// cache) returns for the same query.
        #[test]
        fn sharded_lookups_agree_with_fresh_evaluation(
            seq in proptest::collection::vec((0usize..POOL.len(), 0usize..400), 1..40),
        ) {
            let doc = parse_xml(&catalog_xml()).unwrap();
            let store = XmlStore::new(Database::in_memory(), Encoding::Global);
            let d = store.load_document(&doc, "prop").unwrap();
            let fresh = XmlStore::new(Database::in_memory(), Encoding::Global);
            let df = fresh.load_document(&doc, "prop").unwrap();
            for &(qi, filler) in &seq {
                // Churn the cache with a distinct statement text so hits,
                // misses, double-check races, and evictions all occur.
                store
                    .db()
                    .query_read(&format!("SELECT {filler}"), &[])
                    .unwrap();
                let got = canon(&store.xpath(d, POOL[qi]).unwrap());
                let want = canon(&fresh.xpath(df, POOL[qi]).unwrap());
                prop_assert_eq!(got, want, "query {} diverged", POOL[qi]);
            }
            // Cache accounting stayed coherent: every shard's hits+misses
            // sums to that shard's lookups, and at least one hit happened
            // whenever a pool query repeated.
            let stats = store.db().plan_cache_shard_stats();
            let lookups: u64 = stats.iter().map(|(h, m)| h + m).sum();
            prop_assert!(lookups > 0);
        }
    }
}
