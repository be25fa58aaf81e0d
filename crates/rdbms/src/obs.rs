//! Wait sites, and [`snapshot`]: every thread's work ledger
//! ([`crate::governance::Ledger`]) summed into the figures the benchmark reads.

use crate::governance::{Ledger, Work};
use std::time::Duration;

/// The subsystem whose latch a contended acquisition ([`crate::latch`])
/// waited on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitSite {
    /// Pager backend (in-memory page table `RwLock` or file-backend mutex).
    Backend,
    /// Per-database prepared-plan cache.
    PlanCache,
    /// Write-ahead-log state.
    Wal,
    /// Transaction state (active-txn bookkeeping in the pager).
    Txn,
    /// XML store schema/state latch (`XmlStore::inner`).
    Store,
    /// Observability's own locks; counting takes none, so this stays 0.
    Obs,
    /// Statement-trace capture buffers in [`crate::Database`].
    Trace,
    /// Published snapshot cells ([`crate::latch::EpochCell`]):
    /// publish-side collisions.
    Snapshot,
}

impl WaitSite {
    /// Every site, in the order used by per-site arrays.
    pub const ALL: [WaitSite; 8] = [
        WaitSite::Backend,
        WaitSite::PlanCache,
        WaitSite::Wal,
        WaitSite::Txn,
        WaitSite::Store,
        WaitSite::Obs,
        WaitSite::Trace,
        WaitSite::Snapshot,
    ];

    /// Stable lowercase name (report column suffixes, trace labels).
    pub fn name(self) -> &'static str {
        match self {
            WaitSite::Backend => "backend",
            WaitSite::PlanCache => "plan_cache",
            WaitSite::Wal => "wal",
            WaitSite::Txn => "txn",
            WaitSite::Store => "store",
            WaitSite::Obs => "obs",
            WaitSite::Trace => "trace",
            WaitSite::Snapshot => "snapshot",
        }
    }
}

/// Counts summed over every thread's ledger (see [`snapshot`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// Statements that succeeded.
    pub statements: u64,
    /// Plan-cache hits.
    pub plan_cache_hits: u64,
    /// Plan-cache misses (parse + plan work done).
    pub plan_cache_misses: u64,
    /// Page-image frames appended to any write-ahead log.
    pub wal_frames_written: u64,
    /// Transactions committed.
    pub txn_commits: u64,
    ledger: Ledger,
}

/// Time spent blocked at one wait site.
#[derive(Debug)]
pub struct WaitTime {
    /// Sum of every contended acquisition's wait.
    pub total: Duration,
}

impl ObsSnapshot {
    /// Contended acquisitions counted at `site`.
    pub fn lock_waits_at(&self, site: WaitSite) -> u64 {
        self.ledger.waits(site)
    }

    /// Time spent blocked at `site`.
    pub fn wait_latency_at(&self, site: WaitSite) -> WaitTime {
        let total = self.ledger.wait_time(site);
        WaitTime { total }
    }
}

impl From<Ledger> for ObsSnapshot {
    fn from(ledger: Ledger) -> ObsSnapshot {
        ObsSnapshot {
            statements: ledger[Work::ReadStatement] + ledger[Work::WriteStatement],
            plan_cache_hits: ledger[Work::PlanCacheHit],
            plan_cache_misses: ledger[Work::PlanCacheMiss],
            wal_frames_written: ledger[Work::WalFrame],
            txn_commits: ledger[Work::Commit],
            ledger,
        }
    }
}

/// Every thread's counts so far ([`Ledger::process`]).
pub fn snapshot() -> ObsSnapshot {
    Ledger::process().into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governance::{count, count_wait};
    use Work::{Descent, PlanCacheHit, PlanCacheMiss, ServeSession};

    #[test]
    fn wait_sites_attribute_independently() {
        let mark = Ledger::read();
        count_wait(WaitSite::Backend, Duration::from_micros(10));
        count_wait(WaitSite::Backend, Duration::from_micros(20));
        count_wait(WaitSite::PlanCache, Duration::from_micros(5));
        let s = ObsSnapshot::from(Ledger::read().since(&mark));
        let waits = WaitSite::ALL.map(|site| s.lock_waits_at(site));
        assert_eq!(waits, [2, 1, 0, 0, 0, 0, 0, 0]);
        assert_eq!(s.wait_latency_at(WaitSite::Backend).total.as_micros(), 30);
    }

    #[test]
    fn plan_cache_and_descent_counters() {
        let mark = Ledger::read();
        let _ = [PlanCacheMiss, PlanCacheHit, PlanCacheHit, Descent].map(count);
        let s = ObsSnapshot::from(Ledger::read().since(&mark));
        assert_eq!((s.plan_cache_hits, s.plan_cache_misses), (2, 1));
        assert_eq!(s.ledger[Descent], 1);
    }

    #[test]
    fn sharded_counters_sum_across_threads() {
        // Exact: no other test in this crate counts serve sessions.
        let before = Ledger::process();
        let threads: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| (0..100).for_each(|_| count(ServeSession))))
            .collect();
        threads.into_iter().for_each(|t| t.join().unwrap());
        assert_eq!(Ledger::process().since(&before)[ServeSession], 400);
    }
}
