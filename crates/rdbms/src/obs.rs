//! Engine observability: counters, duration histograms, timing spans, a
//! global snapshot API, wait-site lock attribution, and a configurable
//! slow-query log.
//!
//! Everything here is built on `std` only (the crate keeps an empty
//! `[dependencies]` section). The whole layer sits behind a single
//! process-wide enable flag — when disabled, the per-statement overhead in
//! [`crate::Database::run`] is one relaxed atomic load, so hot paths pay
//! essentially nothing for the instrumentation.
//!
//! # Sharding
//!
//! The registry's hot path is *per-thread sharded*: every recording thread
//! owns a private [`Shard`] of counters and histograms (registered once,
//! on that thread's first record, under a mutex the hot path never takes
//! again), and [`Registry::snapshot`] aggregates across all shards. Eight
//! readers bumping `statements` therefore touch eight distinct cache
//! lines — the metrics layer cannot serialize, or even slow, the
//! concurrent read path it is supposed to measure. Counters are monotonic
//! and shards are never deregistered, so a shard whose thread has exited
//! keeps contributing its final values.
//!
//! # Wait sites
//!
//! Every contended latch acquisition (see [`crate::latch`]) is attributed
//! to a named [`WaitSite`] — which subsystem's lock blocked — with a
//! per-site wait-duration histogram. `snapshot().lock_waits_by_site`
//! answers "who is waiting on what" directly, which is the measurement the
//! ROADMAP's lock-splitting items need.
//!
//! The registry is process-global on purpose: it aggregates across every
//! [`crate::Database`] in the process (per-database numbers live in
//! [`crate::ExecStats`] / [`crate::Database::total_stats`] instead). Tests
//! that read it must therefore assert monotonic inequalities, not exact
//! values.

use crate::exec::ExecStats;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// A monotonically increasing event counter (relaxed atomics; cheap enough
/// to bump from any path).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets in a [`DurationHistogram`] (covers 1 ns to ~18 min).
const HIST_BUCKETS: usize = 40;

/// A lock-free histogram of durations with power-of-two nanosecond buckets
/// (bucket `i` holds durations in `[2^i, 2^(i+1))` ns), plus running count,
/// sum, and max for exact averages.
#[derive(Debug)]
pub struct DurationHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for DurationHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl DurationHistogram {
    /// An empty histogram.
    pub const fn new() -> DurationHistogram {
        #[allow(clippy::declare_interior_mutable_const)] // array-init seed only
        const ZERO: AtomicU64 = AtomicU64::new(0);
        DurationHistogram {
            buckets: [ZERO; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let bucket = (63 - ns.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Folds this histogram's current contents into `acc` (used to merge
    /// per-thread shards at snapshot time).
    fn accumulate(&self, acc: &mut HistAccum) {
        for (a, b) in acc.buckets.iter_mut().zip(self.buckets.iter()) {
            *a += b.load(Ordering::Relaxed);
        }
        acc.count += self.count.load(Ordering::Relaxed);
        acc.sum_ns += self.sum_ns.load(Ordering::Relaxed);
        acc.max_ns = acc.max_ns.max(self.max_ns.load(Ordering::Relaxed));
    }

    /// A plain-value snapshot with approximate quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut acc = HistAccum::default();
        self.accumulate(&mut acc);
        acc.snapshot()
    }
}

/// Plain-value accumulation of one or more histograms (shard merging).
#[derive(Debug)]
struct HistAccum {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for HistAccum {
    fn default() -> Self {
        HistAccum {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl HistAccum {
    fn snapshot(&self) -> HistogramSnapshot {
        let quantile = |q: f64| -> Duration {
            if self.count == 0 {
                return Duration::ZERO;
            }
            let target = ((self.count as f64) * q).ceil() as u64;
            let mut seen = 0u64;
            for (i, n) in self.buckets.iter().enumerate() {
                seen += n;
                if seen >= target {
                    // Upper edge of the bucket, clamped to the true max so
                    // quantiles never exceed an observed value (and
                    // p50 ≤ p95 ≤ max holds by construction).
                    let edge = 1u64.checked_shl(i as u32 + 1).unwrap_or(u64::MAX);
                    return Duration::from_nanos(edge.min(self.max_ns));
                }
            }
            Duration::from_nanos(self.max_ns)
        };
        HistogramSnapshot {
            count: self.count,
            total: Duration::from_nanos(self.sum_ns),
            max: Duration::from_nanos(self.max_ns),
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }
}

/// Point-in-time summary of a [`DurationHistogram`]. Quantiles are
/// bucket-resolution estimates (upper bucket edge, clamped to `max`),
/// not exact.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Recorded durations.
    pub count: u64,
    /// Sum of all recorded durations.
    pub total: Duration,
    /// Largest recorded duration.
    pub max: Duration,
    /// Approximate median.
    pub p50: Duration,
    /// Approximate 95th percentile.
    pub p95: Duration,
    /// Approximate 99th percentile.
    pub p99: Duration,
}

/// A timing span: starts on construction, records its elapsed time into a
/// histogram when dropped. [`Span::enter`] consults the global registry's
/// enable flag; while disabled it costs one relaxed load plus a branch and
/// the returned span is inert (it never reads the clock or touches the
/// histogram).
///
/// ```
/// use ordxml_rdbms::obs;
/// let hist = obs::DurationHistogram::new();
/// {
///     let _span = obs::Span::enter(&hist);
///     // ... timed work ...
/// }
/// assert_eq!(hist.snapshot().count, 1);
/// ```
#[derive(Debug)]
pub struct Span<'a> {
    inner: Option<(&'a DurationHistogram, Instant)>,
}

impl<'a> Span<'a> {
    /// Starts a span that reports into `hist` if the global registry is
    /// enabled; otherwise returns an inert span.
    pub fn enter(hist: &'a DurationHistogram) -> Span<'a> {
        Span::enter_if(registry().enabled(), hist)
    }

    /// Starts a span only when `enabled` is true — the caller supplies the
    /// flag (e.g. a private registry's, or a precomputed one hoisted out of
    /// a loop). A disabled span is a `None` and records nothing.
    pub fn enter_if(enabled: bool, hist: &'a DurationHistogram) -> Span<'a> {
        Span {
            inner: if enabled {
                Some((hist, Instant::now()))
            } else {
                None
            },
        }
    }

    /// Elapsed time so far, without ending the span ([`Duration::ZERO`]
    /// for an inert span).
    pub fn elapsed(&self) -> Duration {
        self.inner
            .as_ref()
            .map(|(_, start)| start.elapsed())
            .unwrap_or(Duration::ZERO)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.inner.take() {
            hist.record(start.elapsed());
        }
    }
}

/// One statement captured by the slow-query log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQuery {
    /// The SQL text as submitted.
    pub sql: String,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Rows returned (SELECT) or affected (writes).
    pub rows: u64,
    /// The statement's merged execution counters.
    pub stats: ExecStats,
}

/// Capacity of the slow-query ring buffer.
const SLOW_LOG_CAP: usize = 64;

/// The named subsystems whose latches [`crate::latch`] attributes
/// contended acquisitions to.
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
    /// Observability's own locks (slow-query log). Sharded counters mean
    /// this site stays at zero on the read path.
    Obs,
    /// Statement-trace capture buffers in [`crate::Database`].
    Trace,
    /// Epoch-published snapshot cells (committed page maps, committed
    /// database state, store snapshots). Publish-side collisions land here
    /// so they never count against the reader-facing sites.
    Snapshot,
}

impl WaitSite {
    /// Number of wait sites (array dimension for per-site metrics).
    pub const COUNT: usize = 8;

    /// Every site, in the order used by per-site arrays.
    pub const ALL: [WaitSite; WaitSite::COUNT] = [
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

    fn index(self) -> usize {
        match self {
            WaitSite::Backend => 0,
            WaitSite::PlanCache => 1,
            WaitSite::Wal => 2,
            WaitSite::Txn => 3,
            WaitSite::Store => 4,
            WaitSite::Obs => 5,
            WaitSite::Trace => 6,
            WaitSite::Snapshot => 7,
        }
    }
}

/// Indices into a shard's counter array.
#[derive(Clone, Copy)]
enum Metric {
    Statements,
    StatementErrors,
    SlowStatements,
    PlanCacheHits,
    PlanCacheMisses,
    BtreeDescents,
    BtreeDescentReuses,
    WalFrames,
    TxnCommits,
    TxnRollbacks,
    Recoveries,
    QueriesTimedOut,
    QueriesCanceled,
    ReadRetries,
    DegradedEntries,
    DegradedRejects,
    ServeSessions,
    ServeRequests,
    SqlReadFallbacks,
}

const NMETRICS: usize = 19;

/// One thread's private metric cell. All fields are atomics only so the
/// snapshot path can read them concurrently; the owning thread's writes
/// are uncontended.
#[derive(Debug)]
struct Shard {
    metrics: [AtomicU64; NMETRICS],
    read_latency: DurationHistogram,
    write_latency: DurationHistogram,
    wait_counts: [AtomicU64; WaitSite::COUNT],
    wait_latency: [DurationHistogram; WaitSite::COUNT],
}

impl Shard {
    fn new() -> Shard {
        Shard {
            metrics: std::array::from_fn(|_| AtomicU64::new(0)),
            read_latency: DurationHistogram::new(),
            write_latency: DurationHistogram::new(),
            wait_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            wait_latency: std::array::from_fn(|_| DurationHistogram::new()),
        }
    }

    fn bump(&self, m: Metric, n: u64) {
        self.metrics[m as usize].fetch_add(n, Ordering::Relaxed);
    }
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

thread_local! {
    /// This thread's shard of the *global* registry (private registries in
    /// tests use their fallback shard instead).
    static GLOBAL_SHARD: std::cell::OnceCell<Arc<Shard>> = const { std::cell::OnceCell::new() };
}

/// The process-wide metric registry: statement counters, latency
/// histograms, per-site lock-wait attribution, and the slow-query log.
///
/// Counter reads go through [`Registry::snapshot`] — the hot-path cells are
/// per-thread shards, so there is no single counter object to read.
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    /// Every thread shard ever registered. A plain mutex, NOT a
    /// [`crate::latch`] wrapper: the latch layer reports into this module,
    /// and self-accounting would recurse. Taken once per recording thread
    /// (registration) plus once per snapshot — never on the record path.
    shards: Mutex<Vec<Arc<Shard>>>,
    /// Shard used when this registry is not the global one (private
    /// registries in tests), or if thread-local storage is unavailable.
    fallback: Arc<Shard>,
    slow_threshold_ns: AtomicU64,
    slow_log: Mutex<VecDeque<SlowQuery>>,
}

impl Registry {
    fn new() -> Registry {
        Registry {
            enabled: AtomicBool::new(true),
            shards: Mutex::new(Vec::new()),
            fallback: Arc::new(Shard::new()),
            slow_threshold_ns: AtomicU64::new(0),
            slow_log: Mutex::new(VecDeque::new()),
        }
    }

    /// Runs `f` against the calling thread's shard. For the global registry
    /// this is the thread-local cell (registered on first use); private
    /// registries share their fallback shard, which is still thread-safe,
    /// just not contention-free.
    fn with_shard<R>(&self, f: impl FnOnce(&Shard) -> R) -> R {
        if let Some(global) = REGISTRY.get() {
            if std::ptr::eq(self, global) {
                let done = GLOBAL_SHARD.try_with(|cell| {
                    let shard = cell.get_or_init(|| {
                        let shard = Arc::new(Shard::new());
                        global
                            .shards
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push(Arc::clone(&shard));
                        shard
                    });
                    Arc::clone(shard)
                });
                // TLS is gone during thread teardown; fall back rather
                // than lose the record or panic in a destructor.
                if let Ok(shard) = done {
                    return f(&shard);
                }
            }
        }
        f(&self.fallback)
    }

    /// Records WAL frame appends (no-op while disabled).
    pub fn record_wal_frames(&self, n: u64) {
        if self.enabled() && n > 0 {
            self.with_shard(|s| s.bump(Metric::WalFrames, n));
        }
    }

    /// Records a transaction outcome (no-op while disabled).
    pub fn record_txn(&self, committed: bool) {
        if !self.enabled() {
            return;
        }
        let m = if committed {
            Metric::TxnCommits
        } else {
            Metric::TxnRollbacks
        };
        self.with_shard(|s| s.bump(m, 1));
    }

    /// Records one recovery pass that found WAL frames to deal with
    /// (no-op while disabled).
    pub fn record_recovery(&self) {
        if self.enabled() {
            self.with_shard(|s| s.bump(Metric::Recoveries, 1));
        }
    }

    /// Records one statement that failed with an error (no-op while
    /// disabled).
    pub fn record_statement_error(&self) {
        if self.enabled() {
            self.with_shard(|s| s.bump(Metric::StatementErrors, 1));
        }
    }

    /// Records one statement stopped by its deadline (no-op while disabled).
    pub fn record_query_timeout(&self) {
        if self.enabled() {
            self.with_shard(|s| s.bump(Metric::QueriesTimedOut, 1));
        }
    }

    /// Records one statement stopped by its cancel flag (no-op while
    /// disabled).
    pub fn record_query_cancel(&self) {
        if self.enabled() {
            self.with_shard(|s| s.bump(Metric::QueriesCanceled, 1));
        }
    }

    /// Records retried page reads — transient read faults that a retry
    /// absorbed (no-op while disabled).
    pub fn record_read_retries(&self, n: u64) {
        if self.enabled() && n > 0 {
            self.with_shard(|s| s.bump(Metric::ReadRetries, n));
        }
    }

    /// Records one transition into degraded read-only mode (no-op while
    /// disabled).
    pub fn record_degraded_entry(&self) {
        if self.enabled() {
            self.with_shard(|s| s.bump(Metric::DegradedEntries, 1));
        }
    }

    /// Records one write refused because the store was degraded (no-op
    /// while disabled).
    pub fn record_degraded_reject(&self) {
        if self.enabled() {
            self.with_shard(|s| s.bump(Metric::DegradedRejects, 1));
        }
    }

    /// Records one serving-layer session opened (a wire connection or a
    /// piped shell session; no-op while disabled).
    pub fn record_serve_session(&self) {
        if self.enabled() {
            self.with_shard(|s| s.bump(Metric::ServeSessions, 1));
        }
    }

    /// Records serving-layer requests handled (protocol lines, meta-commands
    /// included; no-op while disabled).
    pub fn record_serve_requests(&self, n: u64) {
        if self.enabled() && n > 0 {
            self.with_shard(|s| s.bump(Metric::ServeRequests, n));
        }
    }

    /// Records one read-shaped store `sql()` call that fell back to the
    /// exclusive write path because the read dispatcher refused it (no-op
    /// while disabled). A rising value means reads are serializing behind
    /// writers due to statement misclassification.
    pub fn record_sql_read_fallback(&self) {
        if self.enabled() {
            self.with_shard(|s| s.bump(Metric::SqlReadFallbacks, 1));
        }
    }

    /// Records one contended lock acquisition at `site` — the caller found
    /// the latch held, blocked for `waited`, and now owns it (no-op while
    /// disabled).
    pub fn record_lock_wait(&self, site: WaitSite, waited: Duration) {
        if !self.enabled() {
            return;
        }
        self.with_shard(|s| {
            s.wait_counts[site.index()].fetch_add(1, Ordering::Relaxed);
            s.wait_latency[site.index()].record(waited);
        });
    }

    /// Records a plan-cache lookup outcome (no-op while disabled).
    pub fn record_plan_cache(&self, hit: bool) {
        if !self.enabled() {
            return;
        }
        let m = if hit {
            Metric::PlanCacheHits
        } else {
            Metric::PlanCacheMisses
        };
        self.with_shard(|s| s.bump(m, 1));
    }

    /// Whether statement instrumentation is collected. The check is a single
    /// relaxed load, so callers may consult it on every statement.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns statement instrumentation on or off (on by default).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Sets the slow-query threshold; `None` disables the log (the default).
    pub fn set_slow_query_threshold(&self, threshold: Option<Duration>) {
        let ns = threshold
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX).max(1))
            .unwrap_or(0);
        self.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// The current slow-query threshold, if the log is enabled.
    pub fn slow_query_threshold(&self) -> Option<Duration> {
        match self.slow_threshold_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }

    /// Records one executed statement. `is_read` selects the latency
    /// histogram; statements beyond the threshold land in the slow log
    /// (a fixed-capacity ring of the most recent [`SLOW_LOG_CAP`],
    /// evicting oldest).
    pub fn record_statement(&self, sql: &str, is_read: bool, entry: &SlowQuery) {
        if !self.enabled() {
            return;
        }
        self.with_shard(|s| {
            s.bump(Metric::Statements, 1);
            s.bump(Metric::BtreeDescents, entry.stats.btree_descents);
            s.bump(Metric::BtreeDescentReuses, entry.stats.btree_descent_reuses);
            if is_read {
                s.read_latency.record(entry.elapsed);
            } else {
                s.write_latency.record(entry.elapsed);
            }
        });
        let threshold = self.slow_threshold_ns.load(Ordering::Relaxed);
        if threshold > 0 && entry.elapsed.as_nanos() >= threshold as u128 {
            self.with_shard(|s| s.bump(Metric::SlowStatements, 1));
            // A panic while the log was held must not take observability
            // down with it: the ring holds plain values, so a poisoned
            // lock's contents are still coherent.
            let mut log = crate::latch::lock(&self.slow_log, WaitSite::Obs);
            if log.len() == SLOW_LOG_CAP {
                log.pop_front();
            }
            log.push_back(SlowQuery {
                sql: sql.to_string(),
                ..entry.clone()
            });
        }
    }

    /// The captured slow queries, oldest first (bounded ring of
    /// the most recent 64).
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        crate::latch::lock(&self.slow_log, WaitSite::Obs)
            .iter()
            .cloned()
            .collect()
    }

    /// Empties the slow-query log. Safe against concurrent recorders: the
    /// ring is mutated only under its latch, so a racing
    /// [`Registry::record_statement`] either lands before the clear (and is
    /// dropped) or after (and is retained); either way the ring stays
    /// coherent and bounded.
    pub fn clear_slow_queries(&self) {
        crate::latch::lock(&self.slow_log, WaitSite::Obs).clear();
    }

    /// A plain-value snapshot of every registry metric, aggregated across
    /// all thread shards.
    pub fn snapshot(&self) -> ObsSnapshot {
        let shards: Vec<Arc<Shard>> = self
            .shards
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let mut metrics = [0u64; NMETRICS];
        let mut read = HistAccum::default();
        let mut write = HistAccum::default();
        let mut wait_counts = [0u64; WaitSite::COUNT];
        let mut wait_accums: [HistAccum; WaitSite::COUNT] = Default::default();
        for shard in shards
            .iter()
            .map(Arc::as_ref)
            .chain(std::iter::once(self.fallback.as_ref()))
        {
            for (total, cell) in metrics.iter_mut().zip(shard.metrics.iter()) {
                *total += cell.load(Ordering::Relaxed);
            }
            shard.read_latency.accumulate(&mut read);
            shard.write_latency.accumulate(&mut write);
            for (total, cell) in wait_counts.iter_mut().zip(shard.wait_counts.iter()) {
                *total += cell.load(Ordering::Relaxed);
            }
            for (acc, hist) in wait_accums.iter_mut().zip(shard.wait_latency.iter()) {
                hist.accumulate(acc);
            }
        }
        let mut wait_latency_by_site = [HistogramSnapshot::default(); WaitSite::COUNT];
        for (out, acc) in wait_latency_by_site.iter_mut().zip(wait_accums.iter()) {
            *out = acc.snapshot();
        }
        ObsSnapshot {
            statements: metrics[Metric::Statements as usize],
            statement_errors: metrics[Metric::StatementErrors as usize],
            slow_statements: metrics[Metric::SlowStatements as usize],
            read_latency: read.snapshot(),
            write_latency: write.snapshot(),
            plan_cache_hits: metrics[Metric::PlanCacheHits as usize],
            plan_cache_misses: metrics[Metric::PlanCacheMisses as usize],
            btree_descents: metrics[Metric::BtreeDescents as usize],
            btree_descent_reuses: metrics[Metric::BtreeDescentReuses as usize],
            wal_frames_written: metrics[Metric::WalFrames as usize],
            txn_commits: metrics[Metric::TxnCommits as usize],
            txn_rollbacks: metrics[Metric::TxnRollbacks as usize],
            recoveries_run: metrics[Metric::Recoveries as usize],
            queries_timed_out: metrics[Metric::QueriesTimedOut as usize],
            queries_canceled: metrics[Metric::QueriesCanceled as usize],
            read_retries: metrics[Metric::ReadRetries as usize],
            degraded_entries: metrics[Metric::DegradedEntries as usize],
            degraded_rejects: metrics[Metric::DegradedRejects as usize],
            serve_sessions: metrics[Metric::ServeSessions as usize],
            serve_requests: metrics[Metric::ServeRequests as usize],
            sql_read_fallbacks: metrics[Metric::SqlReadFallbacks as usize],
            lock_waits: wait_counts.iter().sum(),
            lock_waits_by_site: wait_counts,
            wait_latency_by_site,
        }
    }
}

/// Point-in-time copy of the registry counters (see [`snapshot`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// Statements executed.
    pub statements: u64,
    /// Statements that failed.
    pub statement_errors: u64,
    /// Statements beyond the slow-query threshold.
    pub slow_statements: u64,
    /// Read-statement latency summary.
    pub read_latency: HistogramSnapshot,
    /// Write-statement latency summary.
    pub write_latency: HistogramSnapshot,
    /// Plan-cache hits.
    pub plan_cache_hits: u64,
    /// Plan-cache misses (parse + plan work done).
    pub plan_cache_misses: u64,
    /// B+tree root-to-leaf descents.
    pub btree_descents: u64,
    /// B+tree range positionings that reused a descent finger (a short leaf
    /// walk) instead of descending from the root.
    pub btree_descent_reuses: u64,
    /// Page-image frames appended to any write-ahead log.
    pub wal_frames_written: u64,
    /// Transactions committed.
    pub txn_commits: u64,
    /// Transactions rolled back.
    pub txn_rollbacks: u64,
    /// Opens that ran WAL recovery.
    pub recoveries_run: u64,
    /// Statements stopped by their deadline ([`crate::DbError::Timeout`]).
    pub queries_timed_out: u64,
    /// Statements stopped by a cancel flag ([`crate::DbError::Canceled`]).
    pub queries_canceled: u64,
    /// Page-read retries that absorbed a transient read fault.
    pub read_retries: u64,
    /// Transitions into degraded read-only mode.
    pub degraded_entries: u64,
    /// Writes refused while degraded ([`crate::DbError::Degraded`]).
    pub degraded_rejects: u64,
    /// Serving-layer sessions opened (wire connections, piped shells).
    pub serve_sessions: u64,
    /// Serving-layer requests handled (protocol lines).
    pub serve_requests: u64,
    /// Read-shaped store `sql()` calls that fell back to the exclusive
    /// write path (misclassified reads serializing behind writers).
    pub sql_read_fallbacks: u64,
    /// Contended lock acquisitions (blocked at least once), all sites.
    pub lock_waits: u64,
    /// Contended acquisitions per wait site, indexed as [`WaitSite::ALL`].
    pub lock_waits_by_site: [u64; WaitSite::COUNT],
    /// Wait-duration summary per site, indexed as [`WaitSite::ALL`].
    pub wait_latency_by_site: [HistogramSnapshot; WaitSite::COUNT],
}

impl ObsSnapshot {
    /// Contended acquisitions recorded for `site`.
    pub fn lock_waits_at(&self, site: WaitSite) -> u64 {
        self.lock_waits_by_site[site.index()]
    }

    /// Wait-duration summary for `site`.
    pub fn wait_latency_at(&self, site: WaitSite) -> HistogramSnapshot {
        self.wait_latency_by_site[site.index()]
    }
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::new)
}

/// Snapshot of the global registry — convenience for `registry().snapshot()`.
pub fn snapshot() -> ObsSnapshot {
    registry().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_histogram_basics() {
        let c = Counter::new();
        c.add(3);
        c.add(4);
        assert_eq!(c.get(), 7);

        let h = DurationHistogram::new();
        for ms in [1u64, 2, 4, 100] {
            h.record(Duration::from_millis(ms));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.total, Duration::from_millis(107));
        assert_eq!(s.max, Duration::from_millis(100));
        assert!(s.p50 >= Duration::from_millis(2));
        assert!(s.p95 >= Duration::from_millis(100));
        assert!(s.p99 >= s.p50);
    }

    #[test]
    fn quantiles_clamp_to_max_and_stay_ordered() {
        // Empty histogram: everything zero.
        let h = DurationHistogram::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50, Duration::ZERO);
        assert_eq!(s.p95, Duration::ZERO);
        assert_eq!(s.p99, Duration::ZERO);
        assert_eq!(s.max, Duration::ZERO);

        // Single sample: every quantile IS that sample (clamped to max).
        let h = DurationHistogram::new();
        h.record(Duration::from_micros(300));
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50, Duration::from_micros(300));
        assert_eq!(s.p95, Duration::from_micros(300));
        assert_eq!(s.p99, Duration::from_micros(300));
        assert_eq!(s.max, Duration::from_micros(300));

        // All-equal samples: same property.
        let h = DurationHistogram::new();
        for _ in 0..1000 {
            h.record(Duration::from_nanos(12_345));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, Duration::from_nanos(12_345));
        assert_eq!(s.p95, Duration::from_nanos(12_345));
        assert_eq!(s.max, Duration::from_nanos(12_345));
    }

    #[test]
    fn span_records_on_drop() {
        let h = DurationHistogram::new();
        {
            let span = Span::enter_if(true, &h);
            assert!(span.elapsed() < Duration::from_secs(1));
        }
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn disabled_span_is_inert() {
        // `enter_if(false, ..)` models `Span::enter` under a disabled
        // registry without racing other tests on the global flag: the
        // histogram must not mutate at all.
        let h = DurationHistogram::new();
        {
            let span = Span::enter_if(false, &h);
            assert_eq!(span.elapsed(), Duration::ZERO);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.total, Duration::ZERO);
        assert_eq!(s.max, Duration::ZERO);
    }

    #[test]
    fn slow_log_threshold_and_ring() {
        // A private registry so parallel tests don't interfere.
        let reg = Registry::new();
        reg.set_slow_query_threshold(Some(Duration::from_millis(5)));
        assert_eq!(reg.slow_query_threshold(), Some(Duration::from_millis(5)));
        let fast = SlowQuery {
            sql: String::new(),
            elapsed: Duration::from_millis(1),
            rows: 0,
            stats: ExecStats::default(),
        };
        reg.record_statement("SELECT 1", true, &fast);
        assert!(reg.slow_queries().is_empty());
        for i in 0..(SLOW_LOG_CAP + 10) {
            let slow = SlowQuery {
                sql: String::new(),
                elapsed: Duration::from_millis(50),
                rows: i as u64,
                stats: ExecStats::default(),
            };
            reg.record_statement(&format!("SELECT {i}"), true, &slow);
        }
        let log = reg.slow_queries();
        assert_eq!(log.len(), SLOW_LOG_CAP);
        assert_eq!(log[0].sql, "SELECT 10", "oldest entries evicted");
        assert_eq!(reg.snapshot().slow_statements, SLOW_LOG_CAP as u64 + 10);
        reg.clear_slow_queries();
        assert!(reg.slow_queries().is_empty());
    }

    #[test]
    fn clear_slow_queries_is_race_safe() {
        use std::sync::atomic::AtomicBool;

        let reg = Arc::new(Registry::new());
        reg.set_slow_query_threshold(Some(Duration::from_nanos(1)));
        let stop = Arc::new(AtomicBool::new(false));
        let recorders: Vec<_> = (0..4)
            .map(|t| {
                let reg = Arc::clone(&reg);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // Record before the first `stop` check: a recorder the
                    // scheduler starts only after `stop` still contributes.
                    let mut n = 0u64;
                    loop {
                        let q = SlowQuery {
                            sql: format!("SELECT {t}/{n}"),
                            elapsed: Duration::from_millis(9),
                            rows: n,
                            stats: ExecStats::default(),
                        };
                        reg.record_statement(&q.sql.clone(), true, &q);
                        n += 1;
                        if stop.load(Ordering::Relaxed) {
                            return n;
                        }
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            reg.clear_slow_queries();
            assert!(reg.slow_queries().len() <= SLOW_LOG_CAP);
        }
        stop.store(true, Ordering::Relaxed);
        let recorded: u64 = recorders.into_iter().map(|t| t.join().unwrap()).sum();
        assert!(recorded > 0);
        assert!(reg.slow_queries().len() <= SLOW_LOG_CAP);
        assert_eq!(reg.snapshot().slow_statements, recorded);
    }

    #[test]
    fn plan_cache_and_descent_counters() {
        let reg = Registry::new();
        reg.record_plan_cache(false);
        reg.record_plan_cache(true);
        reg.record_plan_cache(true);
        let stats = ExecStats {
            btree_descents: 5,
            btree_descent_reuses: 2,
            ..ExecStats::default()
        };
        reg.record_statement(
            "SELECT 1",
            true,
            &SlowQuery {
                sql: String::new(),
                elapsed: Duration::from_millis(1),
                rows: 0,
                stats,
            },
        );
        let s = reg.snapshot();
        assert_eq!(s.plan_cache_hits, 2);
        assert_eq!(s.plan_cache_misses, 1);
        assert_eq!(s.btree_descents, 5);
        assert_eq!(s.btree_descent_reuses, 2);
        // While disabled, none of the new counters move either.
        reg.set_enabled(false);
        reg.record_plan_cache(true);
        reg.record_plan_cache(false);
        assert_eq!(reg.snapshot().plan_cache_hits, 2);
        assert_eq!(reg.snapshot().plan_cache_misses, 1);
    }

    #[test]
    fn governance_counters_record_and_respect_disable() {
        let reg = Registry::new();
        reg.record_query_timeout();
        reg.record_query_cancel();
        reg.record_query_cancel();
        reg.record_read_retries(3);
        reg.record_degraded_entry();
        reg.record_degraded_reject();
        reg.record_degraded_reject();
        let s = reg.snapshot();
        assert_eq!(s.queries_timed_out, 1);
        assert_eq!(s.queries_canceled, 2);
        assert_eq!(s.read_retries, 3);
        assert_eq!(s.degraded_entries, 1);
        assert_eq!(s.degraded_rejects, 2);
        reg.set_enabled(false);
        reg.record_query_timeout();
        reg.record_read_retries(5);
        reg.record_degraded_reject();
        assert_eq!(reg.snapshot().queries_timed_out, 1);
        assert_eq!(reg.snapshot().read_retries, 3);
        assert_eq!(reg.snapshot().degraded_rejects, 2);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::new();
        reg.set_enabled(false);
        assert!(!reg.enabled());
        let q = SlowQuery {
            sql: String::new(),
            elapsed: Duration::from_secs(1),
            rows: 0,
            stats: ExecStats::default(),
        };
        reg.record_statement("SELECT 1", true, &q);
        reg.record_lock_wait(WaitSite::Backend, Duration::from_millis(1));
        let s = reg.snapshot();
        assert_eq!(s.statements, 0);
        assert_eq!(s.lock_waits, 0);
        reg.set_enabled(true);
    }

    #[test]
    fn wait_sites_attribute_independently() {
        let reg = Registry::new();
        reg.record_lock_wait(WaitSite::Backend, Duration::from_micros(10));
        reg.record_lock_wait(WaitSite::Backend, Duration::from_micros(20));
        reg.record_lock_wait(WaitSite::PlanCache, Duration::from_micros(5));
        let s = reg.snapshot();
        assert_eq!(s.lock_waits, 3);
        assert_eq!(s.lock_waits_at(WaitSite::Backend), 2);
        assert_eq!(s.lock_waits_at(WaitSite::PlanCache), 1);
        assert_eq!(s.lock_waits_at(WaitSite::Wal), 0);
        let backend = s.wait_latency_at(WaitSite::Backend);
        assert_eq!(backend.count, 2);
        assert_eq!(backend.total, Duration::from_micros(30));
        assert_eq!(s.wait_latency_at(WaitSite::Store).count, 0);
    }

    #[test]
    fn sharded_counters_sum_across_threads() {
        // The global registry aggregates every thread's shard. Other tests
        // run concurrently, so assert growth, not exact totals.
        let before = snapshot().txn_commits;
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..100 {
                        registry().record_txn(true);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(snapshot().txn_commits >= before + 400);
    }

    mod percentile_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn quantiles_monotonic_and_bounded(samples in proptest::collection::vec(1u64..=10_000_000_000, 1..200)) {
                let h = DurationHistogram::new();
                for &ns in &samples {
                    h.record(Duration::from_nanos(ns));
                }
                let s = h.snapshot();
                let true_max = *samples.iter().max().unwrap();
                prop_assert_eq!(s.count, samples.len() as u64);
                prop_assert_eq!(s.max, Duration::from_nanos(true_max));
                prop_assert!(s.p50 <= s.p95, "p50 {:?} > p95 {:?}", s.p50, s.p95);
                prop_assert!(s.p95 <= s.p99, "p95 {:?} > p99 {:?}", s.p95, s.p99);
                prop_assert!(s.p99 <= s.max, "p99 {:?} > max {:?}", s.p99, s.max);
                prop_assert!(s.p50 > Duration::ZERO);
            }
        }
    }
}
