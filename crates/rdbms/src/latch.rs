//! Contention-aware lock acquisition helpers.
//!
//! Every internal latch in the engine (pager backend, WAL, transaction
//! state, plan cache, …) is acquired through these wrappers rather than
//! through `Mutex::lock` / `RwLock::read` directly. They add two behaviors:
//!
//! * **Contention accounting** — an acquisition that finds the latch held
//!   first fails a `try_lock`, then blocks, timing the wait; once through,
//!   it counts the wait and its duration on the waiting thread's work
//!   ledger ([`crate::governance::Ledger`]), attributed to the caller's
//!   [`WaitSite`] (which subsystem's lock this was). Uncontended
//!   acquisitions stay on the fast path (one atomic CAS, no clock read),
//!   so the single-threaded cost is unchanged.
//! * **Poison tolerance** — a thread that panicked while holding a latch
//!   poisons it; the data under an engine latch is always left in a
//!   coherent state at panic sites (plain-value counters, caches that can
//!   be rebuilt, pages whose mutation is protected by transaction
//!   pre-images), so subsequent acquisitions recover the guard instead of
//!   propagating the poison and taking the whole store down.

use crate::obs::WaitSite;
use std::sync::{
    Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError,
};
use std::time::Instant;

/// Acquires `m`, counting contention against `site` and recovering from
/// poisoning.
pub fn lock<T>(m: &Mutex<T>, site: WaitSite) -> MutexGuard<'_, T> {
    match m.try_lock() {
        Ok(g) => g,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => {
            let start = Instant::now();
            let g = m.lock().unwrap_or_else(PoisonError::into_inner);
            crate::governance::count_wait(site, start.elapsed());
            g
        }
    }
}

/// Acquires `l` for shared reading, counting contention against `site` and
/// recovering from poisoning.
pub fn read<T>(l: &RwLock<T>, site: WaitSite) -> RwLockReadGuard<'_, T> {
    match l.try_read() {
        Ok(g) => g,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => {
            let start = Instant::now();
            let g = l.read().unwrap_or_else(PoisonError::into_inner);
            crate::governance::count_wait(site, start.elapsed());
            g
        }
    }
}

/// Acquires `l` exclusively, counting contention against `site` and
/// recovering from poisoning.
pub fn write<T>(l: &RwLock<T>, site: WaitSite) -> RwLockWriteGuard<'_, T> {
    match l.try_write() {
        Ok(g) => g,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => {
            let start = Instant::now();
            let g = l.write().unwrap_or_else(PoisonError::into_inner);
            crate::governance::count_wait(site, start.elapsed());
            g
        }
    }
}

/// A published slot holding an immutable snapshot behind an `Arc`.
///
/// This is the publication primitive behind `XmlStore`'s snapshot reads: a
/// writer builds a new immutable value off to the side, then
/// [`publish`](EpochCell::publish)es it; readers
/// [`load`](EpochCell::load) the current one and keep it for as long as
/// they need, never blocking the next publication.
///
/// The slot itself is an `RwLock<Arc<T>>` rather than a bare atomic
/// pointer: `std` has no atomic `Arc` swap, and the lock is held only for
/// the duration of an `Arc` clone/store (never while building the value),
/// so contention on it is bounded by publication frequency, not read
/// traffic. Every value ever read from the slot is a complete published
/// snapshot.
#[derive(Debug)]
pub struct EpochCell<T> {
    slot: RwLock<Arc<T>>,
}

impl<T> EpochCell<T> {
    /// A cell publishing `initial`.
    pub fn new(initial: Arc<T>) -> EpochCell<T> {
        EpochCell {
            slot: RwLock::new(initial),
        }
    }

    /// The current snapshot.
    pub fn load(&self, site: WaitSite) -> Arc<T> {
        Arc::clone(&read(&self.slot, site))
    }

    /// Publishes `value` as the new current snapshot. The caller must pass
    /// a fully built value — readers may observe it the instant this
    /// returns (or even mid-call).
    pub fn publish(&self, value: Arc<T>, site: WaitSite) {
        *write(&self.slot, site) = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governance::Ledger;
    use std::sync::atomic::Ordering;

    #[test]
    fn uncontended_acquisitions_do_not_count() {
        let mark = Ledger::read();
        let m = Mutex::new(1);
        let l = RwLock::new(2);
        assert_eq!(*lock(&m, WaitSite::Wal), 1);
        assert_eq!(*read(&l, WaitSite::Backend), 2);
        assert_eq!(*write(&l, WaitSite::Backend), 2);
        assert_eq!(Ledger::read().since(&mark), Ledger::default());
    }

    #[test]
    fn contended_acquisition_counts_site_and_duration() {
        let m = Arc::new(Mutex::new(0u32));
        let held = lock(&m, WaitSite::PlanCache);
        let m2 = Arc::clone(&m);
        let (started, running) = std::sync::mpsc::channel();
        let t = std::thread::spawn(move || {
            let mark = Ledger::read();
            started.send(()).unwrap();
            *lock(&m2, WaitSite::PlanCache) = 7;
            Ledger::read().since(&mark)
        });
        // Give the running thread time to hit the contended path, then
        // release.
        running.recv().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(held);
        let waited = t.join().unwrap();
        assert_eq!(*lock(&m, WaitSite::PlanCache), 7);
        assert_eq!(waited.waits(WaitSite::PlanCache), 1);
        assert_eq!(waited.all_waits(), 1, "attributed to one site only");
        assert!(
            waited.wait_time(WaitSite::PlanCache) > std::time::Duration::ZERO,
            "wait duration measured"
        );
    }

    #[test]
    fn poisoned_latches_recover() {
        let m = Arc::new(Mutex::new(5));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = lock(&m2, WaitSite::Backend);
            panic!("poison it");
        })
        .join();
        assert_eq!(
            *lock(&m, WaitSite::Backend),
            5,
            "poisoned mutex still usable"
        );
        let l = Arc::new(RwLock::new(6));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = write(&l2, WaitSite::Backend);
            panic!("poison it");
        })
        .join();
        assert_eq!(
            *read(&l, WaitSite::Backend),
            6,
            "poisoned rwlock still readable"
        );
        assert_eq!(*write(&l, WaitSite::Backend), 6, "and writable");
    }

    #[test]
    fn epoch_cell_publishes_and_validates() {
        let cell = EpochCell::new(Arc::new(vec![1, 2, 3]));
        let v0 = cell.load(WaitSite::Backend);
        assert_eq!(*v0, vec![1, 2, 3]);
        cell.publish(Arc::new(vec![4]), WaitSite::Backend);
        let v1 = cell.load(WaitSite::Backend);
        assert_eq!(*v1, vec![4]);
        // The old snapshot stays alive and unchanged for readers that
        // still hold it.
        assert_eq!(*v0, vec![1, 2, 3]);
    }

    #[test]
    fn epoch_cell_readers_only_ever_see_complete_snapshots() {
        let cell = Arc::new(EpochCell::new(Arc::new(vec![0u64; 64])));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let snap = cell.load(WaitSite::Backend);
                        let first = snap[0];
                        assert!(
                            snap.iter().all(|&x| x == first),
                            "torn snapshot: mixed generations in one value"
                        );
                    }
                })
            })
            .collect();
        for gen in 1..200u64 {
            cell.publish(Arc::new(vec![gen; 64]), WaitSite::Backend);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }
}
