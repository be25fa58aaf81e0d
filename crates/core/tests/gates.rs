//! Lock-freedom and scaling gates for the shared read path.
//!
//! Every gate here asserts on deltas of the process-global observability
//! registry (`obs::snapshot()`), so a wait recorded by any other test in the
//! same process would land in its window. This binary therefore holds only
//! these gates, and each one runs under [`serial`] so no two overlap.
//!
//! The wait-freedom halves hold on any host, single-core included; the
//! throughput halves only assert on hosts with at least 4 cores.

use ordxml::{Encoding, XmlStore};
use ordxml_rdbms::obs::{self, WaitSite};
use ordxml_rdbms::Database;
use ordxml_xml::generate::sample_catalog;
use ordxml_xml::{parse as parse_xml, NodePath};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The read mix: a full child-axis scan, a positional probe, a descendant
/// scan, and a value predicate.
const QUERIES: &[&str] = &[
    "/catalog/item/name",
    "/catalog/item[7]/author",
    "//author",
    "/catalog/item[@id = 'i3']/price",
];

/// Serializes the gates: their registry windows must not overlap.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// An in-memory Global store holding one `items`-item catalog, with every
/// query of the mix run once so plans and pages are warm.
fn warm_store(items: usize) -> (Arc<XmlStore>, i64) {
    let store = Arc::new(XmlStore::new(Database::in_memory(), Encoding::Global));
    let d = store.load_document(&sample_catalog(items), "gate").unwrap();
    for q in QUERIES {
        assert!(!store.xpath(d, q).unwrap().is_empty(), "{q}");
    }
    (store, d)
}

/// Runs `pass` on `threads` threads, repeatedly, for `window`; returns the
/// number of completed passes across all threads.
fn run_readers(threads: usize, window: Duration, pass: impl Fn() + Send + Sync + 'static) -> u64 {
    let pass = Arc::new(pass);
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let pass = Arc::clone(&pass);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut passes = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    pass();
                    passes += 1;
                }
                passes
            })
        })
        .collect();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    handles.into_iter().map(|h| h.join().unwrap()).sum()
}

/// One pass of the read mix through `XmlStore::xpath`.
fn read_mix(store: Arc<XmlStore>, d: i64) -> impl Fn() + Send + Sync + 'static {
    move || {
        for q in QUERIES {
            assert!(!store.xpath(d, q).unwrap().is_empty(), "{q}");
        }
    }
}

/// Read-mix passes per second on 1 thread and on `threads` threads.
fn throughput(store: &Arc<XmlStore>, d: i64, threads: usize) -> (f64, f64) {
    let window = Duration::from_millis(120);
    let mut qps = [0.0; 2];
    for (slot, n) in [1, threads].into_iter().enumerate() {
        let started = Instant::now();
        let passes = run_readers(n, window, read_mix(Arc::clone(store), d));
        qps[slot] = passes as f64 / started.elapsed().as_secs_f64();
    }
    (qps[0], qps[1])
}

fn waits_at(site: WaitSite) -> u64 {
    obs::snapshot().lock_waits_at(site)
}

/// 4 reader threads must beat 2x the single-thread aggregate on the
/// in-memory backend (asserted on hosts with at least 4 cores).
#[test]
fn four_threads_at_least_double_single_thread_throughput() {
    let _serial = serial();
    let (store, d) = warm_store(60);
    let (one, four) = throughput(&store, d, 4);
    if cores() >= 4 {
        assert!(
            four >= 2.0 * one,
            "4-thread read throughput {four:.0} passes/s is under 2x the \
             single-thread {one:.0} passes/s"
        );
    }
}

/// The scaling gate. Two halves:
///
/// * **Wait-freedom (unconditional):** a warmed read-only run must record
///   *zero* contended acquisitions at the backend and plan-cache wait
///   sites — reads validate a snapshot against the published epoch and hit
///   the plan cache through a shard's shared latch, neither of which can
///   block when no writer is live.
/// * **Scaling (on at least 4 cores):** 8 reader threads must at least
///   double the single-thread aggregate throughput.
#[test]
fn scaling_gate_lock_free_read_path() {
    let _serial = serial();
    let (store, d) = warm_store(60);
    let before_backend = waits_at(WaitSite::Backend);
    let before_cache = waits_at(WaitSite::PlanCache);
    let (one, eight) = throughput(&store, d, 8);
    assert_eq!(
        waits_at(WaitSite::Backend) - before_backend,
        0,
        "read-only run contended the pager backend"
    );
    assert_eq!(
        waits_at(WaitSite::PlanCache) - before_cache,
        0,
        "read-only run contended the plan cache"
    );
    if cores() >= 4 {
        assert!(
            eight >= 2.0 * one,
            "8-thread read throughput {eight:.0} passes/s is under 2x the \
             single-thread {one:.0} passes/s"
        );
    }
}

/// Store-level MVCC: 8 readers run the XPath mix plus one raw SQL read
/// through `XmlStore::sql` while one writer inserts and deletes an item in
/// a tight loop. Readers resolve against the published committed snapshot,
/// so the store wait site must not move, and no SQL read may fall back to
/// the exclusive write path.
#[test]
fn mixed_workload_readers_never_wait_on_store_latch() {
    let _serial = serial();
    let items = 40;
    let (store, d) = warm_store(items);
    let before = obs::snapshot();
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let frag = parse_xml(
                "<item id=\"w\"><name>Writer</name><author>WA</author>\
                 <price>1.00</price></item>",
            )
            .unwrap();
            let mut writes = 0u64;
            // Insert then delete one trailing item: the document returns
            // to its loaded shape, so the mix's predicates stay valid.
            while !stop.load(Ordering::Relaxed) {
                store
                    .insert_fragment(d, &NodePath(vec![]), usize::MAX, &frag)
                    .expect("live insert");
                store
                    .delete_subtree(d, &NodePath(vec![items]))
                    .expect("live delete");
                writes += 2;
            }
            writes
        })
    };
    let mix = read_mix(Arc::clone(&store), d);
    let reader_store = Arc::clone(&store);
    let passes = run_readers(8, Duration::from_millis(150), move || {
        mix();
        let rows = reader_store
            .sql("SELECT COUNT(*) FROM global_node", &[])
            .expect("snapshot SQL read");
        assert_eq!(rows.rows.len(), 1);
    });
    stop.store(true, Ordering::Relaxed);
    let writes = writer.join().unwrap();
    let after = obs::snapshot();
    assert!(passes > 0, "readers made no progress");
    assert!(writes > 0, "writer made no progress");
    assert_eq!(
        after.lock_waits_at(WaitSite::Store) - before.lock_waits_at(WaitSite::Store),
        0,
        "a reader waited on the store latch while the writer was live"
    );
    assert_eq!(
        after.sql_read_fallbacks - before.sql_read_fallbacks,
        0,
        "a read-only SQL statement fell back to the exclusive write path"
    );
}

/// The observability layer must never be the thing readers contend on:
/// counters are per-thread shards and the only obs latch (the slow-query
/// log) is off the path unless a statement crosses the slow threshold.
#[test]
fn obs_site_stays_uncontended_under_8_reader_threads() {
    let _serial = serial();
    let (store, d) = warm_store(40);
    let before = waits_at(WaitSite::Obs);
    let passes = run_readers(8, Duration::from_millis(100), read_mix(store, d));
    assert!(passes > 0, "readers made no progress");
    assert_eq!(
        waits_at(WaitSite::Obs) - before,
        0,
        "metrics recording contended its own latch on the read path"
    );
}

/// The zero-wait invariant with governance *armed*: the guard is
/// thread-local, so never-firing limits must not add a single contended
/// acquisition to the pager backend or the plan cache on a warmed
/// read-only run.
#[test]
fn governance_armed_keeps_read_path_lock_free() {
    let _serial = serial();
    let (store, d) = warm_store(60);
    store.set_deadline_ms(300_000);
    store.set_work_budget(u64::MAX / 2);
    store.cancel_flag().store(false, Ordering::Relaxed);
    let before_backend = waits_at(WaitSite::Backend);
    let before_cache = waits_at(WaitSite::PlanCache);
    let passes = run_readers(8, Duration::from_millis(120), read_mix(store, d));
    assert!(passes > 0, "readers made no progress");
    assert_eq!(
        waits_at(WaitSite::Backend) - before_backend,
        0,
        "governed read-only run contended the pager backend"
    );
    assert_eq!(
        waits_at(WaitSite::PlanCache) - before_cache,
        0,
        "governed read-only run contended the plan cache"
    );
}
