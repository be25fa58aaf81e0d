//! The shared read mix of the read-path gates (`gates.rs`) and the
//! wait-freedom gates (`stress_concurrent.rs`).

use ordxml::{Encoding, XmlStore};
use ordxml_rdbms::Database;
use ordxml_xml::generate::sample_catalog;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The read mix: a full child-axis scan, a positional probe, a descendant
/// scan, and a value predicate.
pub const QUERIES: &[&str] = &[
    "/catalog/item/name",
    "/catalog/item[7]/author",
    "//author",
    "/catalog/item[@id = 'i3']/price",
];

/// An in-memory Global store holding one `items`-item catalog, with every
/// query of the mix run once so plans and pages are warm.
pub fn warm_store(items: usize) -> (Arc<XmlStore>, i64) {
    let store = Arc::new(XmlStore::new(Database::in_memory(), Encoding::Global));
    let d = store.load_document(&sample_catalog(items), "gate").unwrap();
    for q in QUERIES {
        assert!(!store.xpath(d, q).unwrap().is_empty(), "{q}");
    }
    (store, d)
}

/// Runs `pass` on `threads` threads, repeatedly, for `window`; returns the
/// number of completed passes across all threads.
pub fn run_readers(
    threads: usize,
    window: Duration,
    pass: impl Fn() + Send + Sync + 'static,
) -> u64 {
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
pub fn read_mix(store: Arc<XmlStore>, d: i64) -> impl Fn() + Send + Sync + 'static {
    move || {
        for q in QUERIES {
            assert!(!store.xpath(d, q).unwrap().is_empty(), "{q}");
        }
    }
}
