//! Query governance: deadlines, cooperative cancellation, and row budgets —
//! and the per-thread work ledger that counts what each statement did.
//!
//! A statement runs under at most one [`Scope`] per thread. The scope
//! installs a guard (deadline instant, shared cancel flag, work budget) in
//! thread-local storage; hot loops across the engine — operator row loops in
//! `exec`, B+tree descents, pager page reads — call [`checkpoint`] (fallible
//! sites) or [`note_work`] (infallible iterators) to charge work units
//! against it.
//!
//! The same calls count their [`Work`] on this thread's [`Ledger`], whose
//! counts only grow and which no other thread touches, so the difference
//! of two readings around a statement is exactly that statement's work.
//!
//! The design goals, in order:
//!
//! 1. **Zero cost when ungoverned.** With no scope installed, `checkpoint`
//!    is one thread-local flag load. No locks, no shared atomics — the
//!    lock-free read path's zero-wait invariant (see
//!    `scaling_gate_lock_free_read_path`) is preserved with governance
//!    compiled in and even with it armed, because the guard lives entirely
//!    in TLS.
//! 2. **Cheap when governed.** Work units accumulate in a plain counter;
//!    the expensive checks (clock read for the deadline, atomic load of the
//!    cancel flag) run once every [`CHECK_PERIOD`] units. Budget compares
//!    are two integers and run on every charge.
//! 3. **Typed, never a panic.** A tripped guard surfaces as
//!    [`DbError::Timeout`] / [`DbError::Canceled`] /
//!    [`DbError::ResourceExhausted`] out of the next fallible checkpoint;
//!    infallible sites (B+tree iterators yield plain tuples) latch the
//!    violation so it is raised at the next fallible site up-stack. The
//!    error unwinds through ordinary `?` propagation, so transactions roll
//!    back and latches release exactly as for any other statement error.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::error::{DbError, DbResult};

/// Work units charged between deadline/cancel checks. Row-at-a-time loops
/// charge 1 per row, so this bounds the detection latency to ~256 rows of
/// work (a few microseconds) while keeping clock reads off the per-row path.
pub const CHECK_PERIOD: u64 = 256;

/// Governance limits for one statement (or one whole `xpath()` call).
/// `None` everywhere means ungoverned; [`Scope::enter`] then installs
/// nothing and the hot path stays at its one-flag-load fast path.
#[derive(Debug, Clone, Default)]
pub struct Limits {
    /// Absolute deadline; work past this instant trips [`DbError::Timeout`].
    pub deadline: Option<Instant>,
    /// Shared cancel flag; setting it from any thread trips
    /// [`DbError::Canceled`] at the statement's next periodic check.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Budget of work units (≈ rows visited + pages read); exceeding it
    /// trips [`DbError::ResourceExhausted`].
    pub work_budget: Option<u64>,
}

impl Limits {
    /// `true` when no limit is set — [`Scope::enter`] skips installation.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none() && self.work_budget.is_none()
    }
}

struct GuardState {
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
    work_budget: Option<u64>,
    /// Total work charged under this scope.
    work: u64,
    /// Work since the last periodic (clock/cancel) check.
    since_check: u64,
    /// A violation observed at an infallible site (or a previous
    /// checkpoint), replayed by every later checkpoint.
    tripped: Option<DbError>,
}

/// One kind of engine work the ledger counts, one unit per call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// A page served to a caller, cached or not.
    LogicalRead,
    /// A page read from the backing file (a buffer-pool miss).
    PhysicalRead,
    /// A page written to the backing file.
    PhysicalWrite,
    /// A buffer-pool frame evicted to make room.
    Eviction,
    /// A physical read retried after an I/O error or checksum mismatch.
    ReadRetry,
    /// A B+tree root-to-leaf descent.
    Descent,
    /// A range positioned from the previous range's finger, not a descent.
    DescentReuse,
    /// A B+tree leaf visited by a range scan.
    LeafScan,
    /// A B+tree node split.
    Split,
}

const WORK_KINDS: usize = Work::Split as usize + 1;

/// A reading of one thread's work ledger (see the module docs), indexed by
/// [`Work`]. Counts only grow, so `later.since(&earlier)` is exactly the
/// work this thread did between the two readings.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ledger([u64; WORK_KINDS]);

impl Ledger {
    /// This thread's counts so far.
    pub fn read() -> Ledger {
        Ledger(LEDGER.with(|cells| cells.each_ref().map(Cell::get)))
    }

    /// The work counted between `mark` (an earlier reading on this
    /// thread) and `self`.
    pub fn since(&self, mark: &Ledger) -> Ledger {
        Ledger(std::array::from_fn(|i| self.0[i] - mark.0[i]))
    }
}

impl std::ops::Index<Work> for Ledger {
    type Output = u64;

    fn index(&self, work: Work) -> &u64 {
        &self.0[work as usize]
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static GUARD: RefCell<Option<GuardState>> = const { RefCell::new(None) };
    static LEDGER: [Cell<u64>; WORK_KINDS] = const { [const { Cell::new(0) }; WORK_KINDS] };
}

/// Counts one unit of `work` on this thread's ledger without charging the
/// governing scope: physical I/O, and the pages a write touches.
#[inline]
pub(crate) fn count(work: Work) {
    LEDGER.with(|cells| cells[work as usize].update(|n| n + 1));
}

/// An installed governance guard. Created by [`Scope::enter`]; dropping it
/// uninstalls the guard. If a scope is already active on this thread (an
/// `xpath()` call issuing many statements installs one for the whole call),
/// entering again is a no-op and the outer scope keeps governing — so a
/// whole-query deadline cannot be reset by the statements it spawns.
pub struct Scope {
    installed: bool,
    // TLS-backed: neither Send nor Sync.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Scope {
    /// Installs `limits` as this thread's governor (see type docs).
    pub fn enter(limits: Limits) -> Scope {
        if limits.is_unlimited() || ACTIVE.with(|a| a.get()) {
            return Scope {
                installed: false,
                _not_send: std::marker::PhantomData,
            };
        }
        GUARD.with(|g| {
            *g.borrow_mut() = Some(GuardState {
                deadline: limits.deadline,
                cancel: limits.cancel,
                work_budget: limits.work_budget,
                work: 0,
                since_check: 0,
                tripped: None,
            });
        });
        ACTIVE.with(|a| a.set(true));
        Scope {
            installed: true,
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if self.installed {
            ACTIVE.with(|a| a.set(false));
            GUARD.with(|g| *g.borrow_mut() = None);
        }
    }
}

fn charge(st: &mut GuardState, n: u64) -> Option<DbError> {
    if let Some(e) = &st.tripped {
        return Some(e.clone());
    }
    st.work += n;
    st.since_check += n;
    if let Some(budget) = st.work_budget {
        if st.work > budget {
            let e = DbError::ResourceExhausted(format!(
                "work budget of {budget} units exceeded ({} charged)",
                st.work
            ));
            st.tripped = Some(e.clone());
            return Some(e);
        }
    }
    if st.since_check < CHECK_PERIOD {
        return None;
    }
    st.since_check = 0;
    if let Some(cancel) = &st.cancel {
        if cancel.load(Ordering::Relaxed) {
            let e = DbError::Canceled("cancel flag set".to_string());
            st.tripped = Some(e.clone());
            return Some(e);
        }
    }
    if let Some(deadline) = st.deadline {
        if Instant::now() >= deadline {
            let e = DbError::Timeout(format!("{} work units completed", st.work));
            st.tripped = Some(e.clone());
            return Some(e);
        }
    }
    None
}

/// Charges `n` work units against this thread's guard (if any) and returns
/// the governing error once a limit trips. Call from fallible hot loops —
/// one unit per row visited or page read.
#[inline]
pub fn checkpoint(n: u64) -> DbResult<()> {
    if !ACTIVE.with(|a| a.get()) {
        return Ok(());
    }
    GUARD.with(|g| match g.borrow_mut().as_mut() {
        Some(st) => match charge(st, n) {
            Some(e) => Err(e),
            None => Ok(()),
        },
        None => Ok(()),
    })
}

/// Counts one unit of `work` and charges it, like [`checkpoint`]`(1)`:
/// the one call a page read makes.
#[inline]
pub(crate) fn checkpoint_work(work: Work) -> DbResult<()> {
    count(work);
    checkpoint(1)
}

/// Counts one unit of `work` and charges it from an infallible site
/// (B+tree iterators yield plain tuples and cannot return an error). A
/// tripped limit is latched and surfaces at the next [`checkpoint`] call
/// up-stack.
#[inline]
pub fn note_work(work: Work) {
    count(work);
    if !ACTIVE.with(|a| a.get()) {
        return;
    }
    GUARD.with(|g| {
        if let Some(st) = g.borrow_mut().as_mut() {
            let _ = charge(st, 1);
        }
    });
}

/// `true` when a governance scope is installed on this thread (test aid).
pub fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn ungoverned_checkpoint_is_ok() {
        assert!(!active());
        for _ in 0..10_000 {
            checkpoint(1).unwrap();
        }
        (0..10_000).for_each(|_| note_work(Work::LeafScan));
        checkpoint(1).unwrap();
    }

    #[test]
    fn budget_trips_exactly_and_latches() {
        let scope = Scope::enter(Limits {
            work_budget: Some(10),
            ..Limits::default()
        });
        for _ in 0..10 {
            checkpoint(1).unwrap();
        }
        let err = checkpoint(1).unwrap_err();
        assert!(matches!(err, DbError::ResourceExhausted(_)), "{err}");
        // Latched: every later checkpoint repeats the verdict.
        assert!(matches!(
            checkpoint(1).unwrap_err(),
            DbError::ResourceExhausted(_)
        ));
        drop(scope);
        checkpoint(1).unwrap();
    }

    #[test]
    fn expired_deadline_trips_at_periodic_check() {
        let _scope = Scope::enter(Limits {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..Limits::default()
        });
        let mut tripped = None;
        for _ in 0..=CHECK_PERIOD {
            if let Err(e) = checkpoint(1) {
                tripped = Some(e);
                break;
            }
        }
        assert!(matches!(tripped, Some(DbError::Timeout(_))), "{tripped:?}");
    }

    #[test]
    fn cancel_flag_trips_cross_thread() {
        let cancel = Arc::new(AtomicBool::new(false));
        let _scope = Scope::enter(Limits {
            cancel: Some(Arc::clone(&cancel)),
            ..Limits::default()
        });
        for _ in 0..CHECK_PERIOD {
            checkpoint(1).unwrap();
        }
        cancel.store(true, Ordering::Relaxed);
        let mut tripped = None;
        for _ in 0..=CHECK_PERIOD {
            if let Err(e) = checkpoint(1) {
                tripped = Some(e);
                break;
            }
        }
        assert!(matches!(tripped, Some(DbError::Canceled(_))), "{tripped:?}");
    }

    #[test]
    fn note_work_latches_for_next_fallible_checkpoint() {
        let _scope = Scope::enter(Limits {
            work_budget: Some(5),
            ..Limits::default()
        });
        // Infallible sites blow the budget silently.
        (0..6).for_each(|_| note_work(Work::Descent));
        let err = checkpoint(0).unwrap_err();
        assert!(matches!(err, DbError::ResourceExhausted(_)), "{err}");
    }

    #[test]
    fn nested_scope_is_a_no_op_and_outer_keeps_governing() {
        let _outer = Scope::enter(Limits {
            work_budget: Some(10),
            ..Limits::default()
        });
        checkpoint(8).unwrap();
        {
            // An inner statement must not reset the whole-query budget.
            let _inner = Scope::enter(Limits {
                work_budget: Some(1_000_000),
                ..Limits::default()
            });
            assert!(checkpoint(8).is_err(), "outer budget still applies");
        }
        assert!(active(), "inner drop must not uninstall the outer scope");
    }

    #[test]
    fn ledger_counts_only_this_threads_work() {
        let mark = Ledger::read();
        count(Work::PhysicalRead);
        checkpoint_work(Work::LogicalRead).unwrap();
        note_work(Work::Descent);
        std::thread::spawn(|| note_work(Work::Descent))
            .join()
            .unwrap();
        let got = Ledger::read().since(&mark);
        let kinds = [
            Work::LogicalRead,
            Work::PhysicalRead,
            Work::Descent,
            Work::Split,
        ];
        assert_eq!(kinds.map(|w| got[w]), [1, 1, 1, 0]);
    }

    #[test]
    fn unlimited_scope_installs_nothing() {
        let _scope = Scope::enter(Limits::default());
        assert!(!active());
    }
}
