//! The embedded database facade: statement execution, plan caching,
//! transactions, and file-backed persistence.
//!
//! Durability model: a file-backed database always writes ahead. Each
//! transaction's dirty pages are appended to a sidecar WAL as checksummed
//! frames and fsynced at commit; opening a database replays committed
//! transactions from the WAL and discards torn or uncommitted tails.
//! Standalone write statements auto-commit; explicit [`Database::begin`] /
//! [`Database::commit`] / [`Database::rollback`] group multi-statement
//! updates (the XML layer wraps every logical XML update this way).
//!
//! Every read statement — `SELECT`, or `EXPLAIN [ANALYZE]` of one — runs
//! through one body, `ReadCtx::run`, whether it reads the live database
//! ([`Database::run`] / [`Database::run_read`]) or a committed snapshot
//! ([`DbSnapshot::run_read`]); the two differ only in the catalog and page
//! source they hand it.

use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use crate::exec::{run_select, scan_for_update, Env, ExecStats, Profiler, SharedExecStats};
use crate::expr::{eval, Expr, SimpleCtx};
use crate::governance::{self, Ledger, Work};
use crate::latch;
use crate::obs::WaitSite;
use crate::plan::{plan_select, plan_table_access, render_plan, render_table_access, SelectPlan};
use crate::schema::{ColumnDef, IndexDef, TableSchema};
use crate::sql::ast::{ParsedStmt, Stmt};
use crate::sql::parse;
use crate::storage::{wal, FaultInjector, PageId, PageSource, PageView, Pager, Wal};
use crate::trace;
use crate::value::{Row, Value};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

pub use crate::storage::pager::StoreHealth;

/// The result of running one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names (empty for non-SELECT statements).
    pub columns: Vec<String>,
    /// Result rows (empty for non-SELECT statements).
    pub rows: Vec<Row>,
    /// Rows inserted/updated/deleted.
    pub rows_affected: u64,
    /// Execution counters for this statement.
    pub stats: ExecStats,
}

/// A result whose rows are plan lines (`EXPLAIN` output).
fn plan_result(lines: Vec<String>, rows_affected: u64, stats: ExecStats) -> QueryResult {
    QueryResult {
        columns: vec!["plan".to_string()],
        rows: lines.into_iter().map(|l| vec![Value::text(l)]).collect(),
        rows_affected,
        stats,
    }
}

/// The `Work:` line of an `EXPLAIN ANALYZE`: what the statement read, from
/// its settled [`ExecStats`].
fn work_line(stats: &ExecStats) -> String {
    format!(
        "Work: rows_examined={} index_rows={} logical_reads={} btree_descents={} lock_waits={}",
        stats.rows_scanned,
        stats.index_rows,
        stats.pages_read,
        stats.btree_descents,
        stats.lock_waits
    )
}

/// One executed statement as recorded between [`Database::start_trace`] and
/// [`Database::take_trace`]. The XML layer builds its per-XPath-query and
/// per-update diagnostics from these.
#[derive(Debug, Clone, PartialEq)]
pub struct StatementTrace {
    /// The SQL text as submitted.
    pub sql: String,
    /// Bound parameter values.
    pub params: Vec<Value>,
    /// Rows returned (SELECT statements).
    pub rows: u64,
    /// Rows affected (INSERT/UPDATE/DELETE statements).
    pub rows_affected: u64,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Execution counters for this statement, including buffer-pool and
    /// B+tree deltas.
    pub stats: ExecStats,
}

/// Maximum record bytes stored per catalog page during a checkpoint.
const CATALOG_CHUNK: usize = 7000;

/// Trims SQL text to a bounded span annotation.
fn truncate_sql(sql: &str) -> String {
    const MAX: usize = 80;
    if sql.len() <= MAX {
        sql.to_string()
    } else {
        let cut = (1..=MAX)
            .rev()
            .find(|&i| sql.is_char_boundary(i))
            .unwrap_or(0);
        format!("{}…", &sql[..cut])
    }
}

/// Upper bound on cached plans per database. Long sessions that generate
/// many distinct statement texts (ad-hoc SQL, per-document DDL) would
/// otherwise grow the cache without limit; past the cap the
/// least-recently-used entry is evicted.
const PLAN_CACHE_CAP: usize = 256;

/// When a commit leaves this many frames in the WAL, an opportunistic
/// checkpoint (database fsync + log reset) runs so the log stays bounded.
const WAL_AUTOCHECKPOINT_FRAMES: u64 = 512;

/// Database-level transaction state (the pager holds the page pre-images).
struct DbTxn {
    /// The catalog at `begin`, restored on rollback. Holding it costs one
    /// `Arc` per table: the transaction's writes copy-on-write the tables
    /// (and path-copy the index nodes) they touch.
    catalog: Catalog,
    /// Catalog page list at `begin`.
    catalog_pages: Vec<PageId>,
    /// DDL ran inside the transaction, so plans cached since may name
    /// tables or indexes the rollback takes away.
    ddl: bool,
}

/// How many ways the plan cache is sharded. Statements hash to a shard by
/// SQL text, so two threads running *different* statements never contend
/// on the same latch; threads re-running the *same* statement share a
/// read latch. Eight shards is plenty for the core counts this engine
/// targets while keeping the per-shard LRU scan short.
const PLAN_CACHE_SHARDS: usize = 8;

/// Per-shard entry cap; the whole cache still holds [`PLAN_CACHE_CAP`]
/// plans, just spread across shards.
const PLAN_CACHE_SHARD_CAP: usize = PLAN_CACHE_CAP / PLAN_CACHE_SHARDS;

struct Cached {
    parsed: ParsedStmt,
    /// Plan, for SELECT statements.
    plan: Option<SelectPlan>,
    /// Recency stamp for LRU eviction: the statement clock at last use.
    /// Atomic so cache *hits* — the hot path — update recency under the
    /// shard's shared read latch instead of an exclusive one.
    last_used: AtomicU64,
}

/// One plan-cache shard: a latched map plus hit/miss counters for the
/// shard (surfaced by [`Database::plan_cache_shard_stats`]).
#[derive(Default)]
struct PlanCacheShard {
    map: RwLock<HashMap<String, Arc<Cached>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The prepared-statement cache, sharded by statement-text hash so
/// concurrent readers do not serialize on a single latch. The LRU clock
/// is a lock-free global counter shared by all shards; entries are
/// `Arc`ed so a lookup pins its plan without holding any latch while the
/// statement runs.
struct PlanCache {
    shards: [PlanCacheShard; PLAN_CACHE_SHARDS],
    clock: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache {
            shards: std::array::from_fn(|_| PlanCacheShard::default()),
            clock: AtomicU64::new(0),
        }
    }
}

impl PlanCache {
    /// The shard responsible for `sql`.
    fn shard(&self, sql: &str) -> &PlanCacheShard {
        let mut h = DefaultHasher::new();
        sql.hash(&mut h);
        &self.shards[(h.finish() as usize) % PLAN_CACHE_SHARDS]
    }

    /// Looks `sql` up, parsing and planning it against `catalog` on a miss
    /// (with per-shard LRU eviction at the cap), and returns the pinned
    /// entry. Hits take only the owning shard's *read* latch — concurrent
    /// lookups of cached statements never exclude each other — and misses
    /// parse and plan outside any latch, taking the shard's write latch
    /// only for the insert. The cache is shared between the live database
    /// and its published snapshots (same schema; DDL invalidates).
    fn lookup(&self, catalog: &Catalog, sql: &str) -> DbResult<Arc<Cached>> {
        let _span = trace::span("plan_cache.lookup");
        let shard = self.shard(sql);
        let clock = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let hit = latch::read(&shard.map, WaitSite::PlanCache)
            .get(sql)
            .map(Arc::clone);
        if let Some(cached) = hit {
            cached.last_used.store(clock, Ordering::Relaxed);
            shard.hits.fetch_add(1, Ordering::Relaxed);
            governance::count(Work::PlanCacheHit);
            return Ok(cached);
        }
        shard.misses.fetch_add(1, Ordering::Relaxed);
        governance::count(Work::PlanCacheMiss);
        let _plan_span = trace::span("plan.build");
        let parsed = parse(sql)?;
        // EXPLAIN shares the wrapped statement's plan slot, so EXPLAIN
        // renders exactly the plan the bare statement would run.
        let plan = match explained(&parsed.stmt) {
            Stmt::Select(s) => Some(plan_select(catalog, s, &parsed.subqueries, None)?),
            _ => None,
        };
        let entry = Arc::new(Cached {
            parsed,
            plan,
            last_used: AtomicU64::new(clock),
        });
        let mut map = latch::write(&shard.map, WaitSite::PlanCache);
        // Another thread may have planned the same statement while this one
        // held no latch; keep the incumbent so both callers share one entry.
        if let Some(existing) = map.get(sql) {
            existing.last_used.store(clock, Ordering::Relaxed);
            return Ok(Arc::clone(existing));
        }
        if map.len() >= PLAN_CACHE_SHARD_CAP {
            // Evict the shard's least-recently-used entry. Linear at the
            // (per-shard) cap, cheap relative to parse + plan work.
            if let Some(lru) = map
                .iter()
                .min_by_key(|(_, c)| c.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
            {
                map.remove(&lru);
            }
        }
        map.insert(sql.to_string(), Arc::clone(&entry));
        Ok(entry)
    }
}

/// Governance knobs: a per-statement deadline, a work budget, and a
/// cancel flag.
#[derive(Default)]
struct GovState {
    /// Per-statement deadline in milliseconds (0 = none).
    deadline_ms: AtomicU64,
    /// Per-statement work budget in units (0 = none).
    work_budget: AtomicU64,
    /// Shared cancel flag, created lazily; statements only pay for
    /// cancellation checks once a caller has asked for the flag.
    cancel: OnceLock<Arc<AtomicBool>>,
}

impl GovState {
    fn cancel_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(self.cancel.get_or_init(|| Arc::new(AtomicBool::new(false))))
    }

    fn limits(&self) -> governance::Limits {
        let ms = self.deadline_ms.load(Ordering::Relaxed);
        let budget = self.work_budget.load(Ordering::Relaxed);
        governance::Limits {
            deadline: (ms > 0).then(|| Instant::now() + Duration::from_millis(ms)),
            cancel: self.cancel.get().map(Arc::clone),
            work_budget: (budget > 0).then_some(budget),
        }
    }
}

/// What a live [`Database`] shares with every [`DbSnapshot`] taken from
/// it: snapshot reads reuse — and warm — the same prepared plans, merge
/// into the same cumulative counters, and obey the same governance knobs
/// (a deadline set on either side governs both, and one cancel flag stops
/// reads and writes alike).
#[derive(Default)]
struct Shared {
    plans: PlanCache,
    /// Cumulative execution counters across all statements. An atomic
    /// cell, not a latch: concurrent readers merge their statement stats
    /// without serializing.
    total_stats: SharedExecStats,
    gov: GovState,
}

/// A statement past its preamble: its plan pinned, inside its trace span
/// and governance scope, both of which end when this is dropped.
struct Opened {
    cached: Arc<Cached>,
    _gov: governance::Scope,
    _span: trace::Span,
}

impl Shared {
    /// Opens one statement — the preamble every read and write shares: the
    /// statement span, then governance (which covers planning too; when an
    /// outer scope is already installed, e.g. an XPath query issuing many
    /// statements under one deadline, entering is a no-op and the outer
    /// limits keep governing), then the plan-cache lookup.
    fn open(&self, catalog: &Catalog, sql: &str) -> DbResult<Opened> {
        let span = trace::span_with("statement", || truncate_sql(sql));
        let gov = governance::Scope::enter(self.gov.limits());
        Ok(Opened {
            cached: self.plans.lookup(catalog, sql)?,
            _gov: gov,
            _span: span,
        })
    }

    /// Ends one statement's accounting, whatever its outcome: counts it
    /// (a success by kind and time, a failure as an error, and a tripped
    /// deadline or cancel as such), then settles the work this thread
    /// counted since `mark`. A failed statement's work reaches the totals
    /// too; only its executor counts are lost with its result.
    fn finish(
        &self,
        mark: &Ledger,
        pager: &Pager,
        is_read: bool,
        started: Instant,
        outcome: DbResult<QueryResult>,
    ) -> DbResult<QueryResult> {
        match &outcome {
            Ok(_) => {
                let (n, ns) = if is_read {
                    (Work::ReadStatement, Work::ReadNanos)
                } else {
                    (Work::WriteStatement, Work::WriteNanos)
                };
                governance::count(n);
                let elapsed = u64::try_from(started.elapsed().as_nanos());
                governance::add(ns, elapsed.unwrap_or(u64::MAX));
            }
            Err(e) => {
                governance::count(Work::StatementError);
                match e {
                    DbError::Timeout(_) => governance::count(Work::Timeout),
                    DbError::Canceled(_) => governance::count(Work::Cancel),
                    _ => {}
                }
            }
        }
        let stats = outcome.as_ref().map_or(ExecStats::default(), |r| r.stats);
        let stats = self.settle(mark, pager, stats);
        outcome.map(|result| QueryResult { stats, ..result })
    }

    /// Adds the work this thread counted since `mark` to `stats`, and
    /// folds it into `pager`'s logical-read total and these totals: the
    /// one place a statement or a commit feeds them.
    fn settle(&self, mark: &Ledger, pager: &Pager, mut stats: ExecStats) -> ExecStats {
        let work = Ledger::read().since(mark);
        pager.add_logical_reads(work[Work::LogicalRead]);
        stats.add_work(&work);
        self.total_stats.merge(&stats);
        stats
    }
}

/// One handle's statement trace: while on, every statement the handle runs
/// appends a [`StatementTrace`].
#[derive(Default)]
struct StatementLog {
    /// Checked with one relaxed load per statement, so the `trace` latch is
    /// never touched on the (hot, concurrent) untraced path.
    on: AtomicBool,
    trace: Mutex<Option<Vec<StatementTrace>>>,
}

impl StatementLog {
    /// Starts recording; replaces any trace already being recorded.
    fn start(&self) {
        *latch::lock(&self.trace, WaitSite::Trace) = Some(Vec::new());
        self.on.store(true, Ordering::Relaxed);
    }

    /// Stops recording and returns the statements (empty if never started).
    fn take(&self) -> Vec<StatementTrace> {
        self.on.store(false, Ordering::Relaxed);
        latch::lock(&self.trace, WaitSite::Trace)
            .take()
            .unwrap_or_default()
    }

    /// Appends one finished statement while on. `sql` is only called
    /// then.
    fn record<'s>(
        &self,
        sql: impl FnOnce() -> Cow<'s, str>,
        params: &[Value],
        started: Instant,
        result: &QueryResult,
    ) {
        if !self.on.load(Ordering::Relaxed) {
            return;
        }
        if let Some(trace) = latch::lock(&self.trace, WaitSite::Trace).as_mut() {
            trace.push(StatementTrace {
                sql: sql().into_owned(),
                params: params.to_vec(),
                rows: result.rows.len() as u64,
                rows_affected: result.rows_affected,
                elapsed: started.elapsed(),
                stats: result.stats,
            });
        }
    }
}

/// One read statement's context: the catalog it plans and runs against,
/// where its pages come from, and where its work is accounted. The live
/// database (whose writer reads its own uncommitted rows) and a snapshot
/// (one committed version) differ only in the values they put here.
struct ReadCtx<'a> {
    catalog: &'a Catalog,
    pages: PageSource<'a>,
    shared: &'a Shared,
    log: &'a StatementLog,
}

impl ReadCtx<'_> {
    /// Runs one read statement (`SELECT`, or `EXPLAIN [ANALYZE]` of one);
    /// write statements are refused with [`DbError::Unsupported`].
    fn run(&self, sql: &str, params: &[Value]) -> DbResult<QueryResult> {
        let stmt = self.shared.open(self.catalog, sql)?;
        self.execute(sql, &stmt.cached, params)
    }

    /// Executes a looked-up read statement and accounts for it: the body
    /// of [`ReadCtx::run`], entered directly by [`Database::run`].
    fn execute(&self, sql: &str, cached: &Cached, params: &[Value]) -> DbResult<QueryResult> {
        let mark = Ledger::read();
        let started = Instant::now();
        // Borrow the statement and plan straight out of the pinned cache
        // entry: the read hot path never deep-clones a SelectPlan.
        let outcome = self.dispatch(&cached.parsed.stmt, cached.plan.as_ref(), params);
        let pager = self.pages.pager();
        let mut result = self.shared.finish(&mark, pager, true, started, outcome)?;
        if matches!(cached.parsed.stmt, Stmt::Explain { analyze: true, .. }) {
            // The work is known only once the statement has settled.
            let returned = result.rows.iter().position(
                |row| matches!(row[0].as_text(), Ok(line) if line.starts_with("Rows returned: ")),
            );
            let at = returned.map_or(result.rows.len(), |i| i + 1);
            result
                .rows
                .insert(at, vec![Value::text(work_line(&result.stats))]);
        }
        self.log
            .record(|| Cow::Borrowed(sql), params, started, &result);
        Ok(result)
    }

    /// `SELECT`, and `EXPLAIN` / `EXPLAIN ANALYZE` of a `SELECT` (profiling
    /// a read is itself a read). Everything else is a write and is refused.
    fn dispatch(
        &self,
        stmt: &Stmt,
        plan: Option<&SelectPlan>,
        params: &[Value],
    ) -> DbResult<QueryResult> {
        let explain = match stmt {
            Stmt::Select(_) => None,
            Stmt::Explain { analyze, inner } if matches!(**inner, Stmt::Select(_)) => {
                Some(*analyze)
            }
            _ => {
                return Err(DbError::Unsupported(
                    "write statements need exclusive database access (use `run`)".into(),
                ))
            }
        };
        let plan = plan.expect("SELECT statements are planned at cache time");
        let mut stats = ExecStats::default();
        let env = Env::new(self.catalog, self.pages, params);
        let lines = match explain {
            None => {
                let rows = run_select(&env, &mut stats, plan, None)?;
                return Ok(QueryResult {
                    columns: plan.columns.clone(),
                    rows,
                    rows_affected: 0,
                    stats,
                });
            }
            Some(false) => render_plan(self.catalog, plan, None),
            Some(true) => {
                let prof = RefCell::new(Profiler::default());
                let (rows, spans) = trace::capture(|| {
                    let _exec = trace::span("exec");
                    let env = Env {
                        prof: Some(&prof),
                        ..env
                    };
                    run_select(&env, &mut stats, plan, None)
                });
                let rows = rows?;
                let mut lines = render_plan(self.catalog, plan, Some(&prof.into_inner()));
                lines.push(format!("Rows returned: {}", rows.len()));
                lines.push("Span tree:".to_string());
                for line in trace::render_tree(&spans) {
                    lines.push(format!("  {line}"));
                }
                lines
            }
        };
        Ok(plan_result(lines, 0, stats))
    }
}

/// One committed version of the database: the catalog as of a commit,
/// paired with a [`PageView`] of exactly the pages that commit produced.
/// Replaced as a unit by the writer (which holds `&mut Database`, so the
/// pair can never be torn) and shared by `Arc` clone with every reader.
struct CommittedState {
    catalog: Arc<Catalog>,
    view: PageView,
}

impl CommittedState {
    /// The version `pager` and `catalog` hold now.
    fn capture(catalog: &Catalog, pager: &Arc<Pager>) -> Arc<CommittedState> {
        Arc::new(CommittedState {
            catalog: Arc::new(catalog.clone()),
            view: Pager::view(pager),
        })
    }
}

/// An embedded relational database.
///
/// `Database` is `Send + Sync`: read statements ([`Database::run_read`] /
/// [`Database::query_read`]) take `&self` and may run from any number of
/// threads concurrently, sharing the plan cache, the pager's buffer pool,
/// and the statistics sinks. Everything that mutates the database — write
/// statements via [`Database::run`], transactions, checkpoints — takes
/// `&mut self`, so Rust's aliasing rules serialize writers against readers
/// at compile time (one writer XOR any readers). Readers that must run
/// beside a writer take a [`DbSnapshot`] instead: it reads the last
/// committed version without touching the database, so the writer can sit
/// behind a plain `Mutex` (see `XmlStore` in the core crate) and still
/// never block a reader.
pub struct Database {
    pager: Arc<Pager>,
    catalog: Catalog,
    /// Plan cache, cumulative counters, and governance, shared with every
    /// snapshot.
    shared: Arc<Shared>,
    /// This handle's statement trace ([`Database::start_trace`]).
    log: StatementLog,
    /// Pages holding the serialized catalog (file mode only; page 0 is the
    /// meta page pointing at them).
    catalog_pages: Vec<PageId>,
    file_backed: bool,
    /// Open explicit or auto-commit transaction, if any.
    txn: Option<DbTxn>,
    /// The last committed version, replaced by every commit (which holds
    /// `&mut self`). [`Database::snapshot`] clones it; readers run against
    /// it while a writer proceeds.
    committed: Arc<CommittedState>,
}

impl Database {
    /// A fresh, fully in-memory database.
    pub fn in_memory() -> Database {
        Database::assemble(Pager::in_memory(), Catalog::new(), Vec::new(), false)
    }

    /// Opens (or creates) a file-backed database with a buffer pool of
    /// `cache_pages` frames and write-ahead logging: recovery runs first,
    /// replaying committed transactions from the WAL and discarding torn or
    /// uncommitted tails. Indexes are rebuilt from the heaps on open.
    pub fn open(path: &Path, cache_pages: usize) -> DbResult<Database> {
        let report = wal::recover(path, &wal::wal_path(path))?;
        if report.ran {
            governance::count(Work::Recovery);
        }
        let pager = Pager::open_file(path, cache_pages)?;
        pager.attach_wal(Wal::open(&wal::wal_path(path))?);
        let (catalog, catalog_pages) = if pager.page_count() == 0 {
            // Fresh file: page 0 is the meta page.
            let meta = pager.allocate()?;
            debug_assert_eq!(meta, 0);
            pager.with_page_mut(0, |p| {
                p.insert(&encode_meta(&[]))
                    .expect("meta record fits an empty page");
            })?;
            (Catalog::new(), Vec::new())
        } else {
            let meta = pager.with_page(0, |p| p.get(0).map(<[u8]>::to_vec))?;
            let meta = meta.ok_or_else(|| DbError::Storage("missing meta record".into()))?;
            let pages = decode_meta(&meta)?;
            let mut blob = Vec::new();
            for &pid in &pages {
                let chunk = pager
                    .with_page(pid, |p| p.get(0).map(<[u8]>::to_vec))?
                    .ok_or_else(|| DbError::Storage("missing catalog chunk".into()))?;
                blob.extend_from_slice(&chunk);
            }
            (Catalog::decode(&blob, &pager)?, pages)
        };
        Ok(Database::assemble(pager, catalog, catalog_pages, true))
    }

    /// A database over `pager` whose committed state is `catalog`.
    fn assemble(
        pager: Pager,
        catalog: Catalog,
        catalog_pages: Vec<PageId>,
        file_backed: bool,
    ) -> Database {
        let pager = Arc::new(pager);
        let committed = CommittedState::capture(&catalog, &pager);
        Database {
            pager,
            catalog,
            shared: Arc::default(),
            log: StatementLog::default(),
            catalog_pages,
            file_backed,
            txn: None,
            committed,
        }
    }

    /// Sets a per-statement deadline (0 clears it). Every subsequent
    /// statement gets `ms` milliseconds from its start; past that, hot
    /// loops surface [`DbError::Timeout`] at their next governance
    /// checkpoint and the statement unwinds like any other error
    /// (transactions roll back, latches release).
    pub fn set_deadline_ms(&self, ms: u64) {
        self.shared.gov.deadline_ms.store(ms, Ordering::Relaxed);
    }

    /// Sets a per-statement work budget in units of rows visited + pages
    /// read (0 clears it); exceeding it surfaces
    /// [`DbError::ResourceExhausted`].
    pub fn set_work_budget(&self, units: u64) {
        self.shared.gov.work_budget.store(units, Ordering::Relaxed);
    }

    /// The shared cancel flag for this database's statements. Setting it
    /// to `true` from any thread makes in-flight and future statements
    /// surface [`DbError::Canceled`] at their next periodic governance
    /// check; clear it to resume normal service. The flag is created on
    /// first call — until then statements pay nothing for cancellation.
    pub fn cancel_flag(&self) -> Arc<AtomicBool> {
        self.shared.gov.cancel_flag()
    }

    /// The governance limits a statement starting *now* would run under.
    /// Callers issuing many statements as one logical query (the XML layer's
    /// `xpath()`) enter one [`governance::Scope`] with these limits up
    /// front, so the whole call shares a single deadline and budget.
    pub fn limits(&self) -> governance::Limits {
        self.shared.gov.limits()
    }

    /// Sets this database's operator-facing identity. Multi-store
    /// deployments (a sharded document pool) label each store
    /// (`"shard-3"`); the label is prepended to every
    /// [`DbError::Degraded`] message and to [`StoreHealth::Degraded`]'s
    /// reason, so a degraded-mode error names the store to
    /// [`Database::try_restore`].
    pub fn set_identity(&self, label: &str) {
        self.pager.set_identity(label);
    }

    /// The operator-facing identity, if one was set.
    pub fn identity(&self) -> Option<String> {
        self.pager.identity()
    }

    /// This store's health: [`StoreHealth::Healthy`], or
    /// [`StoreHealth::Degraded`] after a persistent write-path failure
    /// (out-of-space, dead device). Degraded mode is read-only: reads keep
    /// serving committed data while [`Database::begin`] (and therefore
    /// every write statement) returns [`DbError::Degraded`].
    pub fn health(&self) -> StoreHealth {
        self.pager.health()
    }

    /// Attempts to leave degraded read-only mode by re-running a full
    /// checkpoint (flush + fsync + WAL reset) against the — hopefully
    /// recovered — write path. On success writes are accepted again; on
    /// failure the store stays degraded and the error is returned.
    pub fn try_restore(&mut self) -> DbResult<()> {
        self.pager.try_restore()
    }

    /// The catalog (read-only view).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The fault-injection handle shared with this database's pager and WAL
    /// (pass-through counters unless faults are armed; see
    /// [`crate::storage::FaultInjector`]).
    pub fn faults(&self) -> Arc<FaultInjector> {
        self.pager.faults()
    }

    /// `true` while an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Frames currently sitting in this database's WAL (0 without one).
    pub fn wal_frames_in_log(&self) -> u64 {
        self.pager.wal_frames_in_log()
    }

    /// Starts a transaction. Statements run until [`Database::commit`] /
    /// [`Database::rollback`] become atomic: a rollback (explicit, or
    /// automatic on commit failure) restores pages, catalog, heaps, and
    /// indexes to their state at `begin`. Transactions do not nest.
    pub fn begin(&mut self) -> DbResult<()> {
        if self.txn.is_some() {
            return Err(DbError::Txn("transaction already active".into()));
        }
        self.pager.begin_txn()?;
        self.txn = Some(DbTxn {
            catalog: self.catalog.clone(),
            catalog_pages: self.catalog_pages.clone(),
            ddl: false,
        });
        Ok(())
    }

    /// Commits the open transaction: persists the catalog alongside the data
    /// pages (so recovery sees a consistent pair) and, on the file backend,
    /// appends every dirty page to the WAL with an fsync barrier. On failure
    /// the transaction is rolled back before the error is returned.
    pub fn commit(&mut self) -> DbResult<()> {
        let mark = Ledger::read();
        let res = self.commit_txn();
        self.shared.settle(&mark, &self.pager, ExecStats::default());
        res
    }

    /// [`Database::commit`] without settling its work: a write
    /// statement's auto-commit, whose envelope settles it.
    fn commit_txn(&mut self) -> DbResult<()> {
        if self.txn.is_none() {
            return Err(DbError::Txn("no active transaction".into()));
        }
        let res = self.commit_inner();
        match res {
            Ok(()) => {
                self.txn = None;
                // Only a commit replaces the version `snapshot` hands out,
                // so a reader never pairs a catalog with other pages. The
                // catalog clone shares every table by `Arc`; the page view
                // costs one `Arc` per page in memory, one reader
                // registration on file.
                self.committed = CommittedState::capture(&self.catalog, &self.pager);
                governance::count(Work::Commit);
                if self.pager.wal_frames_in_log() >= WAL_AUTOCHECKPOINT_FRAMES {
                    // Best effort: the commit is already durable; a failed
                    // checkpoint just leaves the log longer.
                    let _ = self.pager.checkpoint_wal();
                }
                Ok(())
            }
            Err(e) => {
                let _ = self.rollback();
                Err(e)
            }
        }
    }

    fn commit_inner(&mut self) -> DbResult<()> {
        if self.file_backed && self.pager.txn_has_writes() {
            // The catalog (schemas + heap page lists) must commit with the
            // data: a replayed transaction that grew a heap is unreachable
            // without its updated page list.
            self.write_catalog()?;
        }
        self.pager.commit_txn()?;
        Ok(())
    }

    /// Rolls the open transaction back: pages revert to their pre-images and
    /// the catalog — schemas, heaps, and indexes — reverts to the version
    /// kept at `begin`, in O(tables).
    pub fn rollback(&mut self) -> DbResult<()> {
        let st = self
            .txn
            .take()
            .ok_or_else(|| DbError::Txn("no active transaction".into()))?;
        self.pager.rollback_txn()?;
        self.catalog = st.catalog;
        self.catalog_pages = st.catalog_pages;
        if st.ddl {
            self.invalidate_plans();
        }
        // Nothing to republish: every change since the last published
        // commit ran inside this transaction, so `committed` still holds
        // exactly the restored state.
        governance::count(Work::Rollback);
        Ok(())
    }

    /// A read-only [`DbSnapshot`] of the last committed version. Cheap
    /// (one `Arc` clone); any number of threads may query their snapshots
    /// while this database runs a writer. The snapshot stays valid — and
    /// pins at most its own version — for as long as it lives.
    pub fn snapshot(&self) -> DbSnapshot {
        DbSnapshot {
            state: Arc::clone(&self.committed),
            shared: Arc::clone(&self.shared),
            log: StatementLog::default(),
        }
    }

    /// Runs `f` inside a transaction: commit on `Ok`, rollback on `Err`.
    /// When a transaction is already open the closure simply joins it
    /// (commit/rollback stay with the outer owner).
    pub fn transaction<T>(&mut self, f: impl FnOnce(&mut Database) -> DbResult<T>) -> DbResult<T> {
        if self.in_transaction() {
            return f(self);
        }
        self.begin()?;
        match f(self) {
            Ok(v) => {
                self.commit()?;
                Ok(v)
            }
            Err(e) => {
                let _ = self.rollback();
                Err(e)
            }
        }
    }

    /// The pager's I/O statistics handle.
    pub fn pager_stats(&self) -> std::sync::Arc<crate::storage::PagerStats> {
        self.pager.stats()
    }

    /// Cumulative execution counters across all statements so far.
    pub fn total_stats(&self) -> ExecStats {
        self.shared.total_stats.snapshot()
    }

    /// Resets the cumulative counters (useful between benchmark phases).
    pub fn reset_stats(&mut self) {
        self.shared.total_stats.reset();
    }

    /// Starts recording a [`StatementTrace`] for every statement run from
    /// now on. Replaces any trace already being recorded.
    pub fn start_trace(&mut self) {
        self.log.start();
    }

    /// Stops tracing and returns the recorded statements (empty if tracing
    /// was never started).
    pub fn take_trace(&mut self) -> Vec<StatementTrace> {
        self.log.take()
    }

    /// Renders the plan for `sql` (equivalent to running it with an
    /// `EXPLAIN` / `EXPLAIN ANALYZE` prefix) and returns the plan lines.
    pub fn explain(&mut self, sql: &str, params: &[Value], analyze: bool) -> DbResult<Vec<String>> {
        let prefix = if analyze {
            "EXPLAIN ANALYZE "
        } else {
            "EXPLAIN "
        };
        let r = self.run(&format!("{prefix}{sql}"), params)?;
        r.rows
            .iter()
            .map(|row| Ok(row[0].as_text()?.to_string()))
            .collect()
    }

    /// Number of pages allocated by the pager (a proxy for database size;
    /// multiply by [`crate::storage::PAGE_SIZE`] for bytes).
    pub fn page_count(&self) -> u32 {
        self.pager.page_count()
    }

    /// Runs a statement and returns only its rows (convenience for SELECT).
    pub fn query(&mut self, sql: &str, params: &[Value]) -> DbResult<Vec<Row>> {
        Ok(self.run(sql, params)?.rows)
    }

    /// Runs a statement and returns only the affected-row count.
    pub fn execute(&mut self, sql: &str, params: &[Value]) -> DbResult<u64> {
        Ok(self.run(sql, params)?.rows_affected)
    }

    /// Runs a read statement through [`Database::run_read`] and returns only
    /// its rows.
    pub fn query_read(&self, sql: &str, params: &[Value]) -> DbResult<Vec<Row>> {
        Ok(self.run_read(sql, params)?.rows)
    }

    /// Per-shard `(hits, misses)` counters for the plan cache, in shard
    /// order. Sums across shards match the registry's aggregate plan-cache
    /// counters for this database.
    pub fn plan_cache_shard_stats(&self) -> Vec<(u64, u64)> {
        self.shared
            .plans
            .shards
            .iter()
            .map(|s| {
                (
                    s.hits.load(Ordering::Relaxed),
                    s.misses.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Total number of cached plans across all shards (test visibility).
    #[cfg(test)]
    fn plan_cache_len(&self) -> usize {
        self.shared
            .plans
            .shards
            .iter()
            .map(|s| latch::read(&s.map, WaitSite::PlanCache).len())
            .sum()
    }

    /// Whether `sql` currently has a cached plan (test visibility).
    #[cfg(test)]
    fn plan_cache_contains(&self, sql: &str) -> bool {
        latch::read(&self.shared.plans.shard(sql).map, WaitSite::PlanCache).contains_key(sql)
    }

    /// The live read context: this database's catalog and pager, so a
    /// writer reads its own uncommitted rows.
    fn read_ctx(&self) -> ReadCtx<'_> {
        ReadCtx {
            catalog: &self.catalog,
            pages: PageSource::Live(&self.pager),
            shared: &self.shared,
            log: &self.log,
        }
    }

    /// Runs one SQL statement. Statements are parsed and (for SELECT)
    /// planned once, then cached by SQL text, so parameterized statements
    /// behave as prepared statements. Reads run through the same body as
    /// [`Database::run_read`].
    pub fn run(&mut self, sql: &str, params: &[Value]) -> DbResult<QueryResult> {
        let opened = self.shared.open(&self.catalog, sql)?;
        let cached = &opened.cached;
        let stmt = &cached.parsed.stmt;
        if matches!(explained(stmt), Stmt::Select(_)) {
            return self.read_ctx().execute(sql, cached, params);
        }
        // EXPLAIN of a write is recorded as a read, like every EXPLAIN.
        let is_read = matches!(stmt, Stmt::Explain { .. });
        let label = || Cow::Borrowed(sql);
        self.write_envelope(label, params, is_read, stmt_writes(stmt), |db| {
            db.dispatch(&cached.parsed, params)
        })
    }

    /// Runs one *read* statement (`SELECT`, or `EXPLAIN` of a `SELECT`)
    /// through `&self`, so any number of threads can query one database
    /// concurrently. The plan cache, pager, and statistics sinks are
    /// shared; write statements are refused with
    /// [`DbError::Unsupported`] — route them through [`Database::run`],
    /// which takes `&mut self` and therefore excludes concurrent readers.
    pub fn run_read(&self, sql: &str, params: &[Value]) -> DbResult<QueryResult> {
        self.read_ctx().run(sql, params)
    }

    /// The envelope every write statement runs in — [`Database::run`]'s
    /// writes and [`Database::insert_many`] alike. Standalone writes
    /// auto-commit on both backends, so each is atomic on its own (and
    /// durable under the WAL); statements inside an explicit transaction
    /// ride on its commit. Failures (the body's or the commit's) are
    /// counted, and the result's stats carry only the statement's own page
    /// and index traffic.
    /// `sql` names the statement in traces; it is only called when
    /// something records.
    fn write_envelope<'s>(
        &mut self,
        sql: impl FnOnce() -> Cow<'s, str>,
        params: &[Value],
        is_read: bool,
        is_write: bool,
        body: impl FnOnce(&mut Database) -> DbResult<QueryResult>,
    ) -> DbResult<QueryResult> {
        let mark = Ledger::read();
        let started = Instant::now();
        let auto_txn = is_write && !self.in_transaction();
        let begun = if auto_txn { self.begin() } else { Ok(()) };
        let outcome = match begun.and_then(|()| body(self)) {
            Ok(r) if auto_txn => self.commit_txn().map(|()| r),
            Ok(r) => Ok(r),
            Err(e) => {
                if auto_txn {
                    let _ = self.rollback();
                }
                Err(e)
            }
        };
        let result = self
            .shared
            .finish(&mark, &self.pager, is_read, started, outcome)?;
        self.log.record(sql, params, started, &result);
        Ok(result)
    }

    /// Executes one write statement: DDL, DML, or `EXPLAIN` of DML. Reads
    /// never get here — [`Database::run`] sends them through the read
    /// context.
    fn dispatch(&mut self, parsed: &ParsedStmt, params: &[Value]) -> DbResult<QueryResult> {
        if !parsed.subqueries.is_empty() {
            let kind = match explained(&parsed.stmt) {
                Stmt::Insert { .. } => Some("INSERT"),
                Stmt::Update { .. } => Some("UPDATE"),
                Stmt::Delete { .. } => Some("DELETE"),
                _ => None,
            };
            if let Some(kind) = kind {
                return Err(DbError::Unsupported(format!("subqueries in {kind}")));
            }
        }
        let mut stats = ExecStats::default();
        let rows_affected = match &parsed.stmt {
            Stmt::Explain { analyze, inner } => {
                let (lines, affected) = self.run_explain(inner, *analyze, params, &mut stats)?;
                return Ok(plan_result(lines, affected, stats));
            }
            Stmt::CreateTable {
                name,
                columns,
                primary_key,
            } => {
                self.invalidate_plans();
                let mut cols = Vec::new();
                let mut pk: Vec<usize> = Vec::new();
                for (i, c) in columns.iter().enumerate() {
                    if c.inline_pk {
                        pk.push(i);
                    }
                    cols.push(ColumnDef {
                        name: c.name.clone(),
                        ty: c.ty,
                        nullable: c.nullable,
                    });
                }
                if !primary_key.is_empty() {
                    if !pk.is_empty() {
                        return Err(DbError::Schema(
                            "both inline and table-level PRIMARY KEY".into(),
                        ));
                    }
                    for name in primary_key {
                        let idx = cols
                            .iter()
                            .position(|c| c.name.eq_ignore_ascii_case(name))
                            .ok_or_else(|| {
                                DbError::Unknown(format!("primary key column `{name}`"))
                            })?;
                        // PK columns are implicitly NOT NULL.
                        cols[idx].nullable = false;
                        pk.push(idx);
                    }
                }
                self.catalog.create_table(TableSchema {
                    name: name.to_ascii_lowercase(),
                    columns: cols,
                    primary_key: pk,
                })?;
                0
            }
            Stmt::CreateIndex {
                name,
                table,
                columns,
                unique,
            } => {
                self.invalidate_plans();
                let t = self.catalog.table(table)?;
                let cols = columns
                    .iter()
                    .map(|c| {
                        t.schema
                            .col_index(c)
                            .ok_or_else(|| DbError::Unknown(format!("column `{c}`")))
                    })
                    .collect::<DbResult<Vec<_>>>()?;
                self.catalog.create_index(
                    &self.pager,
                    table,
                    IndexDef {
                        name: name.to_ascii_lowercase(),
                        columns: cols,
                        unique: *unique,
                    },
                )?;
                0
            }
            Stmt::DropTable { name, if_exists } => {
                self.invalidate_plans();
                match self.catalog.drop_table(name) {
                    Ok(()) => {}
                    Err(DbError::Unknown(_)) if *if_exists => {}
                    Err(e) => return Err(e),
                }
                0
            }
            dml => self.run_dml(dml, params, &mut stats)?,
        };
        Ok(QueryResult {
            columns: vec![],
            rows: vec![],
            rows_affected,
            stats,
        })
    }

    /// Executes an `INSERT`, `UPDATE`, or `DELETE`; returns the rows it
    /// wrote.
    fn run_dml(&mut self, stmt: &Stmt, params: &[Value], stats: &mut ExecStats) -> DbResult<u64> {
        match stmt {
            Stmt::Insert {
                table,
                columns,
                rows,
            } => self.run_insert(table, columns.as_deref(), rows, params, stats),
            Stmt::Update {
                table,
                sets,
                where_clause,
            } => self.run_update(table, sets, where_clause.as_ref(), params, stats),
            Stmt::Delete {
                table,
                where_clause,
            } => self.run_delete(table, where_clause.as_ref(), params, stats),
            _ => unreachable!("only DML reaches run_dml"),
        }
    }

    /// Renders (and under ANALYZE, executes) an `EXPLAIN` of a write.
    /// Returns the plan lines and the affected-row count (nonzero only
    /// under ANALYZE).
    fn run_explain(
        &mut self,
        inner: &Stmt,
        analyze: bool,
        params: &[Value],
        stats: &mut ExecStats,
    ) -> DbResult<(Vec<String>, u64)> {
        let mut lines = match inner {
            Stmt::Insert { table, rows, .. } => {
                vec![format!("Insert on {table} ({} rows)", rows.len())]
            }
            Stmt::Update {
                table,
                sets,
                where_clause,
            } => {
                let set_cols: Vec<&str> = sets.iter().map(|(n, _)| n.as_str()).collect();
                let head = format!("Update on {table} [set {}]", set_cols.join(", "));
                self.explain_access(head, table, where_clause.as_ref())?
            }
            Stmt::Delete {
                table,
                where_clause,
            } => self.explain_access(format!("Delete on {table}"), table, where_clause.as_ref())?,
            Stmt::Explain { .. } => return Err(DbError::Unsupported("nested EXPLAIN".into())),
            _ => return Err(DbError::Unsupported("EXPLAIN of DDL statements".into())),
        };
        if !analyze {
            return Ok((lines, 0));
        }
        let affected = self.run_dml(inner, params, stats)?;
        lines.push(format!("Rows affected: {affected}"));
        Ok((lines, affected))
    }

    /// `head`, then the access path an `UPDATE` / `DELETE` of `table` would
    /// take and its residual filter.
    fn explain_access(
        &self,
        head: String,
        table: &str,
        where_clause: Option<&Expr>,
    ) -> DbResult<Vec<String>> {
        let (path, residual, _scope) = plan_table_access(&self.catalog, table, where_clause)?;
        let mut lines = vec![
            head,
            format!("  {}", render_table_access(&self.catalog, table, &path)),
        ];
        if let Some(r) = residual {
            lines.push(format!("  Residual filter [{r}]"));
        }
        Ok(lines)
    }

    /// Bulk-inserts pre-built rows into a table, bypassing SQL parsing and
    /// per-statement overhead. This is the shredder's bulk-load path. It is
    /// still a statement: it runs in [`Database::run`]'s write envelope
    /// (auto-commit, failure counting, page/B+tree deltas) and appears in
    /// traces as `INSERT INTO <table> /* bulk */`.
    pub fn insert_many(&mut self, table: &str, rows: Vec<Row>) -> DbResult<u64> {
        let label = || Cow::Owned(format!("INSERT INTO {table} /* bulk */"));
        let result = self.write_envelope(label, &[], false, true, |db| {
            let t = db.catalog.table_mut(table)?;
            let mut n = 0;
            for row in rows {
                t.insert_row(&db.pager, row)?;
                n += 1;
            }
            Ok(QueryResult {
                columns: vec![],
                rows: vec![],
                rows_affected: n,
                stats: ExecStats {
                    rows_written: n,
                    ..ExecStats::default()
                },
            })
        })?;
        Ok(result.rows_affected)
    }

    fn run_insert(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        rows: &[Vec<Expr>],
        params: &[Value],
        stats: &mut ExecStats,
    ) -> DbResult<u64> {
        // Resolve the column mapping first (before mutating anything).
        let t = self.catalog.table(table)?;
        let n_cols = t.schema.columns.len();
        let mapping: Option<Vec<usize>> = match columns {
            None => None,
            Some(names) => Some(
                names
                    .iter()
                    .map(|n| {
                        t.schema
                            .col_index(n)
                            .ok_or_else(|| DbError::Unknown(format!("column `{n}`")))
                    })
                    .collect::<DbResult<Vec<_>>>()?,
            ),
        };
        let mut count = 0;
        for exprs in rows {
            let expected = mapping.as_ref().map_or(n_cols, Vec::len);
            if exprs.len() != expected {
                return Err(DbError::Schema(format!(
                    "INSERT supplies {} values for {} columns",
                    exprs.len(),
                    expected
                )));
            }
            let mut ctx = SimpleCtx { row: &[], params };
            let mut row = vec![Value::Null; n_cols];
            for (i, e) in exprs.iter().enumerate() {
                let v = eval(e, &mut ctx)?;
                let slot = mapping.as_ref().map_or(i, |m| m[i]);
                row[slot] = v;
            }
            let t = self.catalog.table_mut(table)?;
            t.insert_row(&self.pager, row)?;
            count += 1;
        }
        stats.rows_written += count;
        Ok(count)
    }

    fn run_update(
        &mut self,
        table: &str,
        sets: &[(String, Expr)],
        where_clause: Option<&Expr>,
        params: &[Value],
        stats: &mut ExecStats,
    ) -> DbResult<u64> {
        let (path, residual, scope) = plan_table_access(&self.catalog, table, where_clause)?;
        // Bind SET expressions against the table's row.
        let t = self.catalog.table(table)?;
        let bound_sets: Vec<(usize, Expr)> = sets
            .iter()
            .map(|(name, e)| {
                let col = t
                    .schema
                    .col_index(name)
                    .ok_or_else(|| DbError::Unknown(format!("column `{name}`")))?;
                let bound = e.clone().map(&mut |x| match x {
                    Expr::Name(n) => scope.resolve(&n).map(Expr::Column),
                    other => Ok(other),
                })?;
                Ok((col, bound))
            })
            .collect::<DbResult<Vec<_>>>()?;
        // Materialize targets first (no Halloween problem).
        let victims = scan_for_update(&self.write_env(params), stats, table, &path)?;
        let mut count = 0;
        for (rid, row) in victims {
            if let Some(pred) = &residual {
                let mut ctx = SimpleCtx { row: &row, params };
                if !eval(pred, &mut ctx)?.is_true() {
                    continue;
                }
            }
            let mut new_row = row.clone();
            for (col, e) in &bound_sets {
                let mut ctx = SimpleCtx { row: &row, params };
                new_row[*col] = eval(e, &mut ctx)?;
            }
            let t = self.catalog.table_mut(table)?;
            t.update_row(&self.pager, rid, new_row)?;
            count += 1;
        }
        stats.rows_written += count;
        Ok(count)
    }

    fn run_delete(
        &mut self,
        table: &str,
        where_clause: Option<&Expr>,
        params: &[Value],
        stats: &mut ExecStats,
    ) -> DbResult<u64> {
        let (path, residual, _scope) = plan_table_access(&self.catalog, table, where_clause)?;
        let victims = scan_for_update(&self.write_env(params), stats, table, &path)?;
        let mut count = 0;
        for (rid, row) in victims {
            if let Some(pred) = &residual {
                let mut ctx = SimpleCtx { row: &row, params };
                if !eval(pred, &mut ctx)?.is_true() {
                    continue;
                }
            }
            let t = self.catalog.table_mut(table)?;
            t.delete_row(&self.pager, rid)?;
            count += 1;
        }
        stats.rows_written += count;
        Ok(count)
    }

    /// The environment an `UPDATE` / `DELETE` finds its victims in: the
    /// live catalog and pages.
    fn write_env<'a>(&'a self, params: &'a [Value]) -> Env<'a> {
        Env::new(&self.catalog, PageSource::Live(&self.pager), params)
    }

    fn invalidate_plans(&mut self) {
        if let Some(t) = self.txn.as_mut() {
            t.ddl = true;
        }
        for shard in &self.shared.plans.shards {
            latch::write(&shard.map, WaitSite::PlanCache).clear();
        }
    }

    /// Folds the WAL into the database file: fsyncs it and resets the log
    /// (a no-op for in-memory databases). Every commit already persists the
    /// catalog, so nothing else needs writing. Refused inside a
    /// transaction.
    pub fn checkpoint(&mut self) -> DbResult<()> {
        if !self.file_backed {
            return Ok(());
        }
        if self.txn.is_some() {
            return Err(DbError::Txn("checkpoint inside a transaction".into()));
        }
        self.pager.checkpoint_wal()
    }

    /// Serializes the catalog into its chunk pages and updates the meta
    /// page. Durability is the caller's job (the WAL commit).
    fn write_catalog(&mut self) -> DbResult<()> {
        let blob = self.catalog.encode();
        let chunks: Vec<&[u8]> = blob.chunks(CATALOG_CHUNK).collect();
        // Ensure enough catalog pages exist.
        while self.catalog_pages.len() < chunks.len() {
            let pid = self.pager.allocate()?;
            self.pager.with_page_mut(pid, |p| {
                p.insert(&[]).expect("empty record fits");
            })?;
            self.catalog_pages.push(pid);
        }
        for (i, chunk) in chunks.iter().enumerate() {
            let pid = self.catalog_pages[i];
            let ok = self.pager.with_page_mut(pid, |p| p.update(0, chunk))?;
            if !ok {
                return Err(DbError::Storage("catalog chunk update failed".into()));
            }
        }
        let used = &self.catalog_pages[..chunks.len()];
        let meta = encode_meta(used);
        let ok = self.pager.with_page_mut(0, |p| p.update(0, &meta))?;
        if !ok {
            return Err(DbError::Storage("meta page update failed".into()));
        }
        Ok(())
    }
}

/// The statement an `EXPLAIN` wraps; any other statement itself.
fn explained(stmt: &Stmt) -> &Stmt {
    match stmt {
        Stmt::Explain { inner, .. } => inner,
        other => other,
    }
}

/// `true` for statements that can modify the database (auto-commit wraps
/// these). `EXPLAIN ANALYZE` executes its inner statement, so it counts.
fn stmt_writes(stmt: &Stmt) -> bool {
    match stmt {
        Stmt::Select(_) => false,
        Stmt::Explain { analyze, inner } => *analyze && stmt_writes(inner),
        _ => true,
    }
}

/// A read-only handle onto one *committed* version of a [`Database`] — the
/// MVCC snapshot readers run against while a writer proceeds.
///
/// Snapshots are cheap ([`Database::snapshot`] is one `Arc` clone) and
/// self-contained: reads execute against the snapshot's own catalog and a
/// [`PageView`] of exactly that commit's pages, which each statement
/// carries as its page source — taking **no** database-level latch, so a
/// writer mid-transaction neither blocks nor is blocked by any number of
/// snapshot readers, on any thread. The plan cache, cumulative statistics,
/// and governance knobs are shared with the live database, so snapshot
/// reads stay governed, observable, and warm.
///
/// A snapshot holds its version for as long as it lives (in-memory: its
/// copy of the page map; file: registered pre-image deltas) — drop it to
/// release them. Each snapshot carries its *own* trace cells, so two
/// concurrent diagnostics never interleave their statement traces.
pub struct DbSnapshot {
    state: Arc<CommittedState>,
    shared: Arc<Shared>,
    log: StatementLog,
}

impl DbSnapshot {
    /// Runs one read statement (`SELECT`, or `EXPLAIN [ANALYZE]` of one)
    /// against this snapshot's committed version: the same body as
    /// [`Database::run_read`], but never waits on a writer.
    pub fn run_read(&self, sql: &str, params: &[Value]) -> DbResult<QueryResult> {
        ReadCtx {
            catalog: &self.state.catalog,
            pages: PageSource::View(&self.state.view),
            shared: &self.shared,
            log: &self.log,
        }
        .run(sql, params)
    }

    /// [`DbSnapshot::run_read`], returning only the rows.
    pub fn query_read(&self, sql: &str, params: &[Value]) -> DbResult<Vec<Row>> {
        Ok(self.run_read(sql, params)?.rows)
    }

    /// The snapshot's catalog (the schema as of its commit).
    pub fn catalog(&self) -> &Catalog {
        &self.state.catalog
    }

    /// The governance limits a statement starting now would run under
    /// (shared with the live database).
    pub fn limits(&self) -> governance::Limits {
        self.shared.gov.limits()
    }

    /// Sets the shared deadline (0 clears it) — governance state is shared
    /// with the live database, so this takes no database latch yet governs
    /// both sides.
    pub fn set_deadline_ms(&self, ms: u64) {
        self.shared.gov.deadline_ms.store(ms, Ordering::Relaxed);
    }

    /// Sets the shared work budget (0 clears it); see
    /// [`DbSnapshot::set_deadline_ms`] for the sharing story.
    pub fn set_work_budget(&self, units: u64) {
        self.shared.gov.work_budget.store(units, Ordering::Relaxed);
    }

    /// The shared cancel flag (same cell as [`Database::cancel_flag`]).
    pub fn cancel_flag(&self) -> Arc<AtomicBool> {
        self.shared.gov.cancel_flag()
    }

    /// Labels the underlying store for operator-facing error messages
    /// (pager-level state, shared with the live database).
    pub fn set_identity(&self, label: &str) {
        self.state.view.pager().set_identity(label);
    }

    /// Health of the underlying store. Served from the pager's leaf latch —
    /// never from a database-level lock — so it answers during a commit.
    pub fn health(&self) -> StoreHealth {
        self.state.view.pager().health()
    }

    /// Cumulative engine counters (the same sharded cells the live
    /// database merges into) — no database-level lock, so stats endpoints
    /// answer while a writer is mid-commit.
    pub fn total_stats(&self) -> ExecStats {
        self.shared.total_stats.snapshot()
    }

    /// Starts recording a [`StatementTrace`] for every statement run
    /// through *this snapshot handle* from now on.
    pub fn start_trace(&self) {
        self.log.start();
    }

    /// Stops tracing and returns the recorded statements.
    pub fn take_trace(&self) -> Vec<StatementTrace> {
        self.log.take()
    }

    /// A sibling handle onto the same committed version with fresh trace
    /// cells, so concurrent diagnostics never interleave their traces.
    pub fn fork(&self) -> DbSnapshot {
        DbSnapshot {
            state: Arc::clone(&self.state),
            shared: Arc::clone(&self.shared),
            log: StatementLog::default(),
        }
    }
}

impl std::fmt::Debug for DbSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbSnapshot")
            .field("tables", &self.state.catalog.table_names())
            .field("view", &self.state.view)
            .finish()
    }
}

/// The read surface shared by a live [`Database`] and a [`DbSnapshot`]:
/// everything the XPath translation and reconstruction layers need to
/// execute read-shaped SQL. Code written against `&dyn SqlRead` runs
/// unchanged on the exclusive write path (reading its own uncommitted
/// writes through the live database) and on the lock-free snapshot path.
pub trait SqlRead {
    /// Runs one read statement (`SELECT`, or `EXPLAIN [ANALYZE]` of one).
    fn run_read(&self, sql: &str, params: &[Value]) -> DbResult<QueryResult>;

    /// [`SqlRead::run_read`], returning only the rows.
    fn query_read(&self, sql: &str, params: &[Value]) -> DbResult<Vec<Row>> {
        Ok(SqlRead::run_read(self, sql, params)?.rows)
    }

    /// The governance limits a statement starting now would run under.
    fn limits(&self) -> governance::Limits;

    /// Renders the plan for a read statement (plan lines of `EXPLAIN`).
    fn explain_read(&self, sql: &str, params: &[Value]) -> DbResult<Vec<String>> {
        let r = SqlRead::run_read(self, &format!("EXPLAIN {sql}"), params)?;
        r.rows
            .iter()
            .map(|row| Ok(row[0].as_text()?.to_string()))
            .collect()
    }
}

impl SqlRead for Database {
    fn run_read(&self, sql: &str, params: &[Value]) -> DbResult<QueryResult> {
        Database::run_read(self, sql, params)
    }

    fn limits(&self) -> governance::Limits {
        Database::limits(self)
    }
}

impl SqlRead for DbSnapshot {
    fn run_read(&self, sql: &str, params: &[Value]) -> DbResult<QueryResult> {
        DbSnapshot::run_read(self, sql, params)
    }

    fn limits(&self) -> governance::Limits {
        DbSnapshot::limits(self)
    }
}

impl Drop for Database {
    fn drop(&mut self) {
        // An open transaction dies with the session: roll it back so the
        // shutdown checkpoint cannot leak uncommitted pages to the file.
        if self.txn.is_some() {
            let _ = self.rollback();
        }
        // Best-effort durability for file-backed databases.
        let _ = self.checkpoint();
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.catalog.table_names())
            .field("pages", &self.pager.page_count())
            .finish()
    }
}

fn encode_meta(pages: &[PageId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + pages.len() * 4);
    out.extend_from_slice(b"ORDX0001");
    out.extend_from_slice(&(pages.len() as u32).to_le_bytes());
    for p in pages {
        out.extend_from_slice(&p.to_le_bytes());
    }
    out
}

fn decode_meta(bytes: &[u8]) -> DbResult<Vec<PageId>> {
    if bytes.len() < 12 || &bytes[..8] != b"ORDX0001" {
        return Err(DbError::Storage("bad meta page magic".into()));
    }
    let n = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    if bytes.len() < 12 + n * 4 {
        return Err(DbError::Storage("truncated meta page".into()));
    }
    Ok((0..n)
        .map(|i| u32::from_le_bytes(bytes[12 + i * 4..16 + i * 4].try_into().expect("4 bytes")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> Database {
        let mut db = Database::in_memory();
        db.execute(
            "CREATE TABLE node (doc INTEGER NOT NULL, pos INTEGER NOT NULL, parent INTEGER, \
             depth INTEGER, tag TEXT, val TEXT, PRIMARY KEY (doc, pos))",
            &[],
        )
        .unwrap();
        db.execute("CREATE INDEX node_parent ON node (doc, parent, pos)", &[])
            .unwrap();
        db.execute("CREATE INDEX node_tag ON node (doc, tag)", &[])
            .unwrap();
        db
    }

    fn seed(db: &mut Database, n: i64) {
        for i in 0..n {
            db.execute(
                "INSERT INTO node VALUES (?, ?, ?, ?, ?, ?)",
                &[
                    Value::Int(1),
                    Value::Int(i),
                    Value::Int(i / 10),
                    Value::Int(if i == 0 { 0 } else { 1 }),
                    Value::text(if i % 2 == 0 { "even" } else { "odd" }),
                    Value::text(format!("v{i}")),
                ],
            )
            .unwrap();
        }
    }

    #[test]
    fn database_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Database>();
    }

    #[test]
    fn concurrent_readers_share_one_database() {
        let mut db = setup();
        seed(&mut db, 100);
        let db = Arc::new(db);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..50i64 {
                        let want = (t * 13 + i) % 100;
                        let rows = db
                            .query_read(
                                "SELECT val FROM node WHERE doc = ? AND pos = ?",
                                &[Value::Int(1), Value::Int(want)],
                            )
                            .unwrap();
                        assert_eq!(rows, vec![vec![Value::text(format!("v{want}"))]]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn run_read_refuses_writes() {
        let db = setup();
        let err = db.run_read("INSERT INTO node VALUES (1, 0, NULL, 0, 't', 'v')", &[]);
        assert!(matches!(err, Err(DbError::Unsupported(_))), "{err:?}");
        let err = db.run_read("EXPLAIN ANALYZE DELETE FROM node", &[]);
        assert!(matches!(err, Err(DbError::Unsupported(_))), "{err:?}");
        // Plain EXPLAIN of a SELECT is read-only and allowed.
        let r = db.run_read("EXPLAIN SELECT pos FROM node WHERE doc = 1", &[]);
        assert!(r.is_ok(), "{r:?}");
    }

    #[test]
    fn select_with_index_range_and_order() {
        let mut db = setup();
        seed(&mut db, 100);
        let r = db
            .run(
                "SELECT pos, val FROM node WHERE doc = 1 AND pos BETWEEN 10 AND 14 ORDER BY pos",
                &[],
            )
            .unwrap();
        assert_eq!(r.columns, vec!["pos", "val"]);
        let got: Vec<i64> = r.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(got, vec![10, 11, 12, 13, 14]);
        assert_eq!(r.stats.rows_sorted, 0, "index satisfies ORDER BY");
        assert!(r.stats.index_scans >= 1);
    }

    #[test]
    fn multirange_scan_unions_ranges_in_key_order() {
        use crate::value::{encode_range_batch, RangeSpec};
        let mut db = setup();
        seed(&mut db, 100);
        let batch = encode_range_batch(&[
            RangeSpec::half_open(Value::Int(40), Value::Int(43)),
            RangeSpec::point(Value::Int(70)),
            RangeSpec::half_open(Value::Int(10), Value::Int(13)),
        ]);
        let r = db
            .run(
                "SELECT pos FROM node WHERE doc = ? AND MULTIRANGE(pos, ?) ORDER BY pos",
                &[Value::Int(1), batch],
            )
            .unwrap();
        let got: Vec<i64> = r.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(got, vec![10, 11, 12, 40, 41, 42, 70]);
        assert_eq!(r.stats.rows_sorted, 0, "scan order satisfies ORDER BY");
        assert_eq!(r.stats.index_scans, 1, "one operator invocation");
        assert_eq!(r.stats.btree_descents, 1, "only the first range descends");
        assert_eq!(
            r.stats.btree_descent_reuses, 2,
            "later ranges reuse the previous range's leaf finger"
        );
    }

    #[test]
    fn multirange_scan_merges_overlapping_and_adjacent_ranges() {
        use crate::value::{encode_range_batch, RangeSpec};
        let mut db = setup();
        seed(&mut db, 100);
        // [10,20) ∪ [15,25) ∪ [25,30) merges to the single range [10,30):
        // no duplicate rows, and only one B+tree descent.
        let batch = encode_range_batch(&[
            RangeSpec::half_open(Value::Int(10), Value::Int(20)),
            RangeSpec::half_open(Value::Int(15), Value::Int(25)),
            RangeSpec::half_open(Value::Int(25), Value::Int(30)),
        ]);
        let r = db
            .run(
                "SELECT pos FROM node WHERE doc = ? AND MULTIRANGE(pos, ?)",
                &[Value::Int(1), batch],
            )
            .unwrap();
        let got: Vec<i64> = r.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(got, (10..30).collect::<Vec<i64>>());
        assert_eq!(r.stats.btree_descents, 1, "merged into one descent");
    }

    #[test]
    fn multirange_scan_skips_empty_ranges_and_batches() {
        use crate::value::{encode_range_batch, RangeSpec};
        let mut db = setup();
        seed(&mut db, 20);
        // Inverted and zero-width ranges match nothing; the rest still scan.
        let batch = encode_range_batch(&[
            RangeSpec::half_open(Value::Int(8), Value::Int(8)),
            RangeSpec::half_open(Value::Int(15), Value::Int(5)),
            RangeSpec::point(Value::Int(3)),
        ]);
        let rows = db
            .query(
                "SELECT pos FROM node WHERE doc = ? AND MULTIRANGE(pos, ?)",
                &[Value::Int(1), batch],
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(3));
        // An entirely empty batch returns no rows (and does not error).
        let r = db
            .run(
                "SELECT pos FROM node WHERE doc = ? AND MULTIRANGE(pos, ?)",
                &[Value::Int(1), encode_range_batch(&[])],
            )
            .unwrap();
        assert!(r.rows.is_empty());
        assert_eq!(r.stats.btree_descents, 0);
    }

    #[test]
    fn multirange_on_unindexed_column_falls_back_to_filter() {
        use crate::value::{encode_range_batch, RangeSpec};
        let mut db = setup();
        seed(&mut db, 10);
        // `depth` is not an index column after any usable prefix, so the
        // predicate runs as a row filter via the eval fallback.
        let batch = encode_range_batch(&[RangeSpec::point(Value::Int(0))]);
        let rows = db
            .query(
                "SELECT pos FROM node WHERE doc = ? AND MULTIRANGE(depth, ?)",
                &[Value::Int(1), batch],
            )
            .unwrap();
        assert_eq!(rows.len(), 1, "only pos 0 has depth 0");
        assert_eq!(rows[0][0], Value::Int(0));
    }

    #[test]
    fn multirange_scan_renders_in_explain() {
        use crate::value::{encode_range_batch, RangeSpec};
        let mut db = setup();
        seed(&mut db, 30);
        let batch = encode_range_batch(&[RangeSpec::half_open(Value::Int(5), Value::Int(9))]);
        let sql = "SELECT pos FROM node WHERE doc = ? AND MULTIRANGE(pos, ?) ORDER BY pos";
        let params = [Value::Int(1), batch];
        let plan = db.explain(sql, &params, false).unwrap();
        assert!(
            plan.iter()
                .any(|l| l.contains("Multi-Range Index Scan on node using pk")),
            "{plan:?}"
        );
        assert!(
            plan.iter().any(|l| l.contains("sort elided")),
            "ORDER BY pos must ride the scan order: {plan:?}"
        );
        let analyzed = db.explain(sql, &params, true).unwrap();
        assert!(
            analyzed
                .iter()
                .any(|l| l.contains("Multi-Range Index Scan") && l.contains("actual rows=4")),
            "{analyzed:?}"
        );
    }

    #[test]
    fn range_count_subplans_say_they_are_memoised() {
        let mut db = setup();
        seed(&mut db, 50);
        let count = |filter: &str| {
            format!(
                "SELECT n.pos, (SELECT COUNT(*) FROM node y WHERE y.doc = n.doc \
                 AND y.parent = n.parent AND y.pos < n.pos AND {filter}) \
                 FROM node n WHERE n.doc = 1"
            )
        };
        let marker = "Aggregate [COUNT(*)] (range count, memoised per statement)";
        let eligible = count("y.tag = 'even'");
        let plan = db.explain(&eligible, &[], false).unwrap();
        assert!(plan.iter().any(|l| l.contains(marker)), "{plan:#?}");
        // A filter that reads the outer row can pass a row for one outer
        // row and not the next: that count is re-run per outer row.
        let correlated_filter = count("y.tag = n.tag");
        let plan = db.explain(&correlated_filter, &[], false).unwrap();
        assert!(plan.iter().any(|l| l.contains("outer.#4")), "{plan:#?}");
        assert!(!plan.iter().any(|l| l.contains("range count")), "{plan:#?}");
        // EXPLAIN ANALYZE keeps every subplan line's counters. The outer
        // rows ascend through ten sibling groups of ten, so the scan fetches
        // each group's first nine rows once: 45 rows over 50 invocations.
        let analyzed = db.explain(&eligible, &[], true).unwrap();
        let sub: Vec<&String> = analyzed
            .iter()
            .skip_while(|l| !l.starts_with("Subplan $0:"))
            .skip(1)
            .take_while(|l| l.starts_with("  "))
            .collect();
        assert_eq!(sub.len(), 4, "{analyzed:#?}");
        assert!(sub.iter().all(|l| l.contains("loops=50")), "{sub:#?}");
        assert!(sub[3].contains("actual rows=45 loops=50"), "{sub:#?}");
        let rows = db.query(&eligible, &[]).unwrap();
        // pos 15 (parent 1) follows 10, 12 and 14 among the even siblings.
        assert_eq!(rows[15], vec![Value::Int(15), Value::Int(3)]);
    }

    #[test]
    fn limit_one_probes_fetch_one_row_of_a_long_range() {
        // The neighbour and last-position probes of ordered updates: each
        // reads one row of a 100,000-row range, in either direction.
        let mut db = Database::in_memory();
        db.execute(
            "CREATE TABLE t (doc INTEGER NOT NULL, pos INTEGER NOT NULL, PRIMARY KEY (doc, pos))",
            &[],
        )
        .unwrap();
        let rows = (0..100_000)
            .map(|p| vec![Value::Int(1), Value::Int(p)])
            .collect();
        db.insert_many("t", rows).unwrap();
        let next = "SELECT pos FROM t WHERE doc = ? AND pos > ? ORDER BY pos LIMIT 1";
        let last = "SELECT pos FROM t WHERE doc = ? ORDER BY pos DESC LIMIT 1";
        for (sql, params, want) in [
            (next, vec![Value::Int(1), Value::Int(2)], 3),
            (last, vec![Value::Int(1)], 99_999),
        ] {
            let r = db.run(sql, &params).unwrap();
            assert_eq!(r.rows, vec![vec![Value::Int(want)]], "{sql}");
            assert!(r.stats.rows_scanned <= 1, "{sql}: {:?}", r.stats);
            assert!(r.stats.index_rows <= 1, "{sql}: {:?}", r.stats);
            assert_eq!(r.stats.rows_sorted, 0, "{sql}: {:?}", r.stats);
        }
    }

    #[test]
    fn parameterized_statements_cache_plans() {
        let mut db = setup();
        seed(&mut db, 50);
        for want in 0..50 {
            let rows = db
                .query(
                    "SELECT val FROM node WHERE doc = ? AND pos = ?",
                    &[Value::Int(1), Value::Int(want)],
                )
                .unwrap();
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0][0], Value::text(format!("v{want}")));
        }
        // One INSERT statement (from seeding) + one SELECT, each cached once.
        assert_eq!(db.plan_cache_len(), 2, "plans are reused, not re-made");
    }

    #[test]
    fn plan_cache_is_bounded_with_lru_eviction() {
        let mut db = Database::in_memory();
        // A statement we keep hot throughout.
        let hot = "SELECT 42";
        db.query(hot, &[]).unwrap();
        // Flood the cache with distinct statement texts, re-touching the hot
        // entry along the way so recency protects it.
        for i in 0..(2 * PLAN_CACHE_CAP) {
            db.query(&format!("SELECT {i}"), &[]).unwrap();
            if i % 50 == 0 {
                db.query(hot, &[]).unwrap();
            }
        }
        assert!(
            db.plan_cache_len() <= PLAN_CACHE_CAP,
            "cache stays bounded: {}",
            db.plan_cache_len()
        );
        assert!(
            db.plan_cache_contains(hot),
            "recently used entries survive eviction"
        );
        // Evicted statements still run (they are just re-planned).
        assert_eq!(db.query("SELECT 0", &[]).unwrap()[0][0], Value::Int(0));
    }

    #[test]
    fn plan_cache_shard_stats_attribute_hits_to_the_owning_shard() {
        let mut db = setup();
        seed(&mut db, 5);
        let sql = "SELECT pos FROM node WHERE doc = 1";
        for _ in 0..5 {
            db.query(sql, &[]).unwrap();
        }
        let stats = db.plan_cache_shard_stats();
        assert_eq!(stats.len(), PLAN_CACHE_SHARDS);
        let (hits, misses): (u64, u64) = stats
            .iter()
            .fold((0, 0), |(h, m), (sh, sm)| (h + sh, m + sm));
        // Seeding + the SELECT each miss once; the four re-runs all hit.
        assert!(misses >= 2, "two distinct statements were planned");
        assert!(hits >= 4, "re-running a statement hits its shard");
        // The SELECT's shard specifically absorbed those hits.
        let mut h = DefaultHasher::new();
        sql.hash(&mut h);
        let shard = (h.finish() as usize) % PLAN_CACHE_SHARDS;
        assert!(stats[shard].0 >= 4);
        assert!(stats[shard].1 >= 1);
    }

    #[test]
    fn plan_cache_hits_and_misses_reach_the_registry() {
        let mut db = setup();
        seed(&mut db, 1);
        let mark = Ledger::read();
        for _ in 0..5 {
            db.query("SELECT val FROM node WHERE doc = ?", &[Value::Int(1)])
                .unwrap();
        }
        let work = Ledger::read().since(&mark);
        assert_eq!(work[Work::PlanCacheMiss], 1, "first execution misses");
        assert_eq!(work[Work::PlanCacheHit], 4, "repeats hit the cached plan");
        assert_eq!(work[Work::ReadStatement], 5);
    }

    #[test]
    fn join_via_parent_index() {
        let mut db = setup();
        seed(&mut db, 100);
        // Children of node 3: parent = 3 -> pos 30..39.
        let rows = db
            .query(
                "SELECT c.pos FROM node p, node c \
                 WHERE p.doc = 1 AND p.pos = 3 AND c.doc = p.doc AND c.parent = p.pos \
                 ORDER BY c.pos",
                &[],
            )
            .unwrap();
        let got: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(got, (30..40).collect::<Vec<i64>>());
    }

    #[test]
    fn hash_join_without_indexes() {
        let mut db = Database::in_memory();
        db.execute("CREATE TABLE a (x INTEGER, y TEXT)", &[])
            .unwrap();
        db.execute("CREATE TABLE b (x INTEGER, z TEXT)", &[])
            .unwrap();
        for i in 0..20 {
            db.execute(
                "INSERT INTO a VALUES (?, ?)",
                &[Value::Int(i % 5), Value::text(format!("a{i}"))],
            )
            .unwrap();
            db.execute(
                "INSERT INTO b VALUES (?, ?)",
                &[Value::Int(i % 4), Value::text(format!("b{i}"))],
            )
            .unwrap();
        }
        let rows = db
            .query("SELECT a.y, b.z FROM a, b WHERE a.x = b.x", &[])
            .unwrap();
        // 20 a-rows; those with x in 0..4 (16 rows) each match 5 b-rows.
        assert_eq!(rows.len(), 16 * 5);
    }

    #[test]
    fn correlated_count_subquery() {
        let mut db = setup();
        seed(&mut db, 30);
        // "position among siblings": nodes that are the 3rd child of their
        // parent (pos % 10 == 2 given our seeding).
        let rows = db
            .query(
                "SELECT x.pos FROM node x WHERE x.doc = 1 AND 2 = \
                 (SELECT COUNT(*) FROM node y \
                  WHERE y.doc = x.doc AND y.parent = x.parent AND y.pos < x.pos) \
                 ORDER BY x.pos",
                &[],
            )
            .unwrap();
        let got: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(got, vec![2, 12, 22]);
    }

    #[test]
    fn exists_subquery() {
        let mut db = setup();
        seed(&mut db, 25);
        // Nodes that have at least one child.
        let rows = db
            .query(
                "SELECT p.pos FROM node p WHERE p.doc = 1 AND EXISTS \
                 (SELECT c.pos FROM node c WHERE c.doc = p.doc AND c.parent = p.pos) \
                 ORDER BY p.pos",
                &[],
            )
            .unwrap();
        // Parents are pos 0..2 (children exist for parent = i/10 with i<25).
        let got: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn aggregates_group_by() {
        let mut db = setup();
        seed(&mut db, 100);
        let rows = db
            .query(
                "SELECT tag, COUNT(*) AS n, MIN(pos), MAX(pos) FROM node \
                 WHERE doc = 1 GROUP BY tag ORDER BY n DESC, 1",
                &[],
            )
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][1], Value::Int(50));
        assert_eq!(rows[1][1], Value::Int(50));
        let count_all = db
            .query("SELECT COUNT(*), AVG(pos), SUM(pos) FROM node", &[])
            .unwrap();
        assert_eq!(count_all[0][0], Value::Int(100));
        assert_eq!(count_all[0][1], Value::Float(49.5));
        assert_eq!(count_all[0][2], Value::Int(4950));
    }

    #[test]
    fn aggregate_on_empty_input() {
        let mut db = setup();
        let rows = db
            .query("SELECT COUNT(*), MIN(pos) FROM node WHERE doc = 99", &[])
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(0), Value::Null]]);
        let grouped = db
            .query(
                "SELECT tag, COUNT(*) FROM node WHERE doc = 99 GROUP BY tag",
                &[],
            )
            .unwrap();
        assert!(grouped.is_empty());
    }

    #[test]
    fn update_with_arithmetic_and_index_path() {
        let mut db = setup();
        seed(&mut db, 100);
        // Shift positions >= 50 up by 1000 (the renumbering pattern).
        let n = db
            .execute(
                "UPDATE node SET pos = pos + 1000 WHERE doc = 1 AND pos >= 50",
                &[],
            )
            .unwrap();
        assert_eq!(n, 50);
        let rows = db
            .query(
                "SELECT COUNT(*) FROM node WHERE doc = 1 AND pos >= 1000",
                &[],
            )
            .unwrap();
        assert_eq!(rows[0][0], Value::Int(50));
        // The old key range is empty now.
        let rows = db
            .query(
                "SELECT COUNT(*) FROM node WHERE doc = 1 AND pos BETWEEN 50 AND 99",
                &[],
            )
            .unwrap();
        assert_eq!(rows[0][0], Value::Int(0));
    }

    #[test]
    fn delete_by_range() {
        let mut db = setup();
        seed(&mut db, 100);
        let n = db
            .execute("DELETE FROM node WHERE doc = 1 AND pos >= 90", &[])
            .unwrap();
        assert_eq!(n, 10);
        let rows = db.query("SELECT COUNT(*) FROM node", &[]).unwrap();
        assert_eq!(rows[0][0], Value::Int(90));
    }

    #[test]
    fn distinct_and_limit_offset() {
        let mut db = setup();
        seed(&mut db, 40);
        let rows = db
            .query("SELECT DISTINCT tag FROM node ORDER BY tag", &[])
            .unwrap();
        assert_eq!(rows.len(), 2);
        let rows = db
            .query(
                "SELECT pos FROM node WHERE doc = 1 ORDER BY pos LIMIT 5 OFFSET 10",
                &[],
            )
            .unwrap();
        let got: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(got, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn order_by_desc_limit_is_last_semantics() {
        let mut db = setup();
        seed(&mut db, 30);
        let rows = db
            .query(
                "SELECT pos FROM node WHERE doc = 1 AND parent = 2 ORDER BY pos DESC LIMIT 1",
                &[],
            )
            .unwrap();
        assert_eq!(rows[0][0], Value::Int(29));
    }

    #[test]
    fn select_without_from() {
        let mut db = Database::in_memory();
        let rows = db.query("SELECT 1 + 2, 'x'", &[]).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(3), Value::text("x")]]);
    }

    #[test]
    fn constraint_violation_reports_error() {
        let mut db = setup();
        seed(&mut db, 5);
        let err = db
            .execute("INSERT INTO node VALUES (1, 0, 0, 0, 't', 'v')", &[])
            .unwrap_err();
        assert!(matches!(err, DbError::Constraint(_)));
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let mut db = setup();
        db.execute("INSERT INTO node (doc, pos) VALUES (1, 1), (1, 2)", &[])
            .unwrap();
        let rows = db
            .query("SELECT tag FROM node WHERE doc = 1 ORDER BY pos", &[])
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Null], vec![Value::Null]]);
    }

    #[test]
    fn ddl_invalidates_plan_cache() {
        let mut db = setup();
        seed(&mut db, 5);
        db.query("SELECT pos FROM node WHERE doc = 1", &[]).unwrap();
        assert!(db.plan_cache_len() > 0);
        db.execute("CREATE INDEX extra ON node (doc, depth)", &[])
            .unwrap();
        assert_eq!(db.plan_cache_len(), 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut db = setup();
        seed(&mut db, 20);
        db.reset_stats();
        db.query("SELECT pos FROM node WHERE doc = 1 AND pos >= 10", &[])
            .unwrap();
        let s = db.total_stats();
        assert_eq!(s.rows_scanned, 10);
        assert_eq!(s.index_scans, 1);
    }

    #[test]
    fn file_backed_database_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("ordxml-db-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reopen.db");
        let _ = std::fs::remove_file(&path);
        {
            let mut db = Database::open(&path, 64).unwrap();
            db.execute("CREATE TABLE t (a INTEGER, b TEXT, PRIMARY KEY (a))", &[])
                .unwrap();
            db.execute("CREATE INDEX t_b ON t (b)", &[]).unwrap();
            for i in 0..500 {
                db.execute(
                    "INSERT INTO t VALUES (?, ?)",
                    &[Value::Int(i), Value::text(format!("row-{i}"))],
                )
                .unwrap();
            }
            db.checkpoint().unwrap();
        }
        let mut db = Database::open(&path, 64).unwrap();
        let rows = db.query("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(rows[0][0], Value::Int(500));
        let rows = db
            .query("SELECT a FROM t WHERE b = 'row-123'", &[])
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(123)]]);
        // And it stays writable.
        db.execute("INSERT INTO t VALUES (1000, 'new')", &[])
            .unwrap();
        let rows = db.query("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(rows[0][0], Value::Int(501));
        std::fs::remove_file(&path).unwrap();
    }

    fn plan_text(db: &mut Database, sql: &str) -> String {
        let r = db.run(sql, &[]).unwrap();
        assert_eq!(r.columns, vec!["plan"]);
        r.rows
            .iter()
            .map(|row| row[0].as_text().unwrap().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn explain_renders_stable_plan() {
        let mut db = setup();
        seed(&mut db, 20);
        // The shape of a translated child-axis XPath range query.
        let sql = "EXPLAIN SELECT pos, val FROM node \
                   WHERE doc = 1 AND pos BETWEEN 10 AND 14 ORDER BY pos";
        let text = plan_text(&mut db, sql);
        assert!(text.contains("Index Scan on node using pk"), "{text}");
        assert!(text.contains("doc = 1"), "{text}");
        assert!(text.contains("pos >= 10"), "{text}");
        assert!(text.contains("pos <= 14"), "{text}");
        assert!(text.contains("sort elided"), "{text}");
        assert!(
            !text.contains("actual rows="),
            "plain EXPLAIN has no timings: {text}"
        );
        // EXPLAIN must not execute the statement.
        assert_eq!(plan_text(&mut db, sql), text, "plan rendering is stable");
    }

    #[test]
    fn explain_analyze_profiles_and_reports_engine_counters() {
        let mut db = setup();
        seed(&mut db, 50);
        let r = db
            .run(
                "EXPLAIN ANALYZE SELECT val FROM node WHERE doc = 1 AND pos = 25",
                &[],
            )
            .unwrap();
        let text: String = r
            .rows
            .iter()
            .map(|row| row[0].as_text().unwrap().to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("actual rows=1"), "{text}");
        assert!(text.contains("Rows returned: 1"), "{text}");
        // Buffer-pool and B+tree counters are folded into the statement stats.
        assert!(r.stats.index_scans >= 1);
        assert!(r.stats.btree_descents >= 1, "{:?}", r.stats);
        assert!(r.stats.pages_read >= 1, "{:?}", r.stats);
    }

    #[test]
    fn explain_analyze_renders_multi_layer_span_tree() {
        let mut db = setup();
        seed(&mut db, 50);
        let r = db
            .run(
                "EXPLAIN ANALYZE SELECT val FROM node WHERE doc = 1 AND pos = 25",
                &[],
            )
            .unwrap();
        let lines: Vec<String> = r
            .rows
            .iter()
            .map(|row| row[0].as_text().unwrap().to_string())
            .collect();
        let at = lines
            .iter()
            .position(|l| l == "Span tree:")
            .unwrap_or_else(|| panic!("no span tree in:\n{}", lines.join("\n")));
        let tree = &lines[at + 1..];
        let has = |name: &str| tree.iter().any(|l| l.trim_start().starts_with(name));
        assert!(has("exec"), "{tree:?}");
        assert!(has("op."), "{tree:?}");
        assert!(has("btree.descent"), "{tree:?}");
        assert!(has("pager.read"), "{tree:?}");
        // The tree must span at least 4 layers: exec → operator → child
        // operator / index probe → pager access.
        let depths: std::collections::BTreeSet<usize> = tree
            .iter()
            .map(|l| l.len() - l.trim_start().len())
            .collect();
        assert!(
            depths.len() >= 4,
            "span tree has {} indent layers:\n{}",
            depths.len(),
            tree.join("\n")
        );
    }

    #[test]
    fn index_point_query_touches_fewer_pages_than_full_scan() {
        let mut db = setup();
        seed(&mut db, 2000);
        let point = db
            .run("SELECT val FROM node WHERE doc = 1 AND pos = 250", &[])
            .unwrap();
        assert!(point.stats.index_scans >= 1);
        // `depth` alone is not an index prefix, so this is a heap scan.
        let full = db
            .run("SELECT val FROM node WHERE depth = 99", &[])
            .unwrap();
        assert_eq!(full.stats.index_scans, 0);
        assert!(full.stats.rows_scanned >= 2000);
        assert!(
            point.stats.pages_read < full.stats.pages_read,
            "point {:?} vs full {:?}",
            point.stats,
            full.stats
        );
    }

    #[test]
    fn explain_analyze_update_executes() {
        let mut db = setup();
        seed(&mut db, 20);
        let r = db
            .run(
                "EXPLAIN ANALYZE UPDATE node SET depth = 7 WHERE doc = 1 AND pos >= 15",
                &[],
            )
            .unwrap();
        assert_eq!(r.rows_affected, 5);
        let rows = db
            .query("SELECT COUNT(*) FROM node WHERE depth = 7", &[])
            .unwrap();
        assert_eq!(rows[0][0], Value::Int(5));
        // Plain EXPLAIN of a write renders but does not execute.
        let text = plan_text(&mut db, "EXPLAIN DELETE FROM node WHERE doc = 1");
        assert!(text.contains("Delete on node"), "{text}");
        let rows = db.query("SELECT COUNT(*) FROM node", &[]).unwrap();
        assert_eq!(rows[0][0], Value::Int(20));
    }

    #[test]
    fn explain_rejects_ddl_and_nesting() {
        let mut db = setup();
        assert!(db.run("EXPLAIN CREATE TABLE x (a INTEGER)", &[]).is_err());
        assert!(db.run("EXPLAIN EXPLAIN SELECT 1", &[]).is_err());
    }

    #[test]
    fn trace_records_statements() {
        let mut db = setup();
        seed(&mut db, 10);
        db.start_trace();
        db.query("SELECT val FROM node WHERE doc = 1 AND pos = 5", &[])
            .unwrap();
        db.execute("DELETE FROM node WHERE doc = 1 AND pos = 9", &[])
            .unwrap();
        let trace = db.take_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].rows, 1);
        assert!(trace[0].sql.starts_with("SELECT"));
        assert!(trace[0].stats.index_scans >= 1);
        assert_eq!(trace[1].rows_affected, 1);
        assert!(db.take_trace().is_empty(), "trace is consumed");
    }

    #[test]
    fn error_surfaces_for_unknown_objects() {
        let mut db = Database::in_memory();
        assert!(db.query("SELECT x FROM missing", &[]).is_err());
        assert!(db.execute("DROP TABLE missing", &[]).is_err());
        assert!(db.execute("DROP TABLE IF EXISTS missing", &[]).is_ok());
    }

    fn temp_db_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ordxml-db-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(wal::wal_path(&path));
        path
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(wal::wal_path(path));
    }

    fn count(db: &mut Database, sql: &str) -> i64 {
        db.query(sql, &[]).unwrap()[0][0].as_int().unwrap()
    }

    #[test]
    fn rollback_restores_rows_indexes_and_ddl() {
        let mut db = setup();
        seed(&mut db, 30);
        db.begin().unwrap();
        db.execute("DELETE FROM node WHERE doc = 1 AND pos < 10", &[])
            .unwrap();
        db.execute("CREATE TABLE scratch (a INTEGER, PRIMARY KEY (a))", &[])
            .unwrap();
        db.execute("INSERT INTO scratch VALUES (1)", &[]).unwrap();
        assert_eq!(count(&mut db, "SELECT COUNT(*) FROM node"), 20);
        db.rollback().unwrap();
        assert_eq!(count(&mut db, "SELECT COUNT(*) FROM node"), 30);
        // The in-transaction DDL is gone and its name is reusable.
        assert!(db.query("SELECT a FROM scratch", &[]).is_err());
        // Secondary indexes were rebuilt to the pre-transaction state.
        let r = db
            .run("SELECT pos FROM node WHERE doc = 1 AND pos = 3", &[])
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert!(r.stats.index_scans >= 1);
    }

    #[test]
    fn rollback_undoes_ddl_without_page_writes() {
        let mut db = Database::in_memory();
        db.begin().unwrap();
        db.execute("CREATE TABLE scratch (a INTEGER)", &[]).unwrap();
        assert_eq!(count(&mut db, "SELECT COUNT(*) FROM scratch"), 0);
        db.rollback().unwrap();
        assert!(db.query("SELECT COUNT(*) FROM scratch", &[]).is_err());
    }

    #[test]
    fn unique_violation_leaves_no_phantom_row() {
        let mut db = Database::in_memory();
        db.execute("CREATE TABLE t (a INTEGER, b TEXT, PRIMARY KEY (a))", &[])
            .unwrap();
        db.execute("CREATE UNIQUE INDEX tb ON t (b)", &[]).unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x')", &[]).unwrap();
        let err = db
            .execute("INSERT INTO t VALUES (2, 'x')", &[])
            .unwrap_err();
        assert!(matches!(err, DbError::Constraint(_)), "{err}");
        assert_eq!(count(&mut db, "SELECT COUNT(*) FROM t"), 1);
        let hits = db.query("SELECT a FROM t WHERE b = 'x'", &[]).unwrap();
        assert_eq!(hits, vec![vec![Value::Int(1)]]);
        assert!(db
            .query("SELECT b FROM t WHERE a = 2", &[])
            .unwrap()
            .is_empty());
        // An update into the taken key is refused without touching the row.
        db.execute("INSERT INTO t VALUES (2, 'y')", &[]).unwrap();
        let err = db
            .execute("UPDATE t SET b = 'x' WHERE a = 2", &[])
            .unwrap_err();
        assert!(matches!(err, DbError::Constraint(_)), "{err}");
        let hits = db.query("SELECT a FROM t WHERE b = 'y'", &[]).unwrap();
        assert_eq!(hits, vec![vec![Value::Int(2)]]);
        let hits = db.query("SELECT a FROM t WHERE b = 'x'", &[]).unwrap();
        assert_eq!(hits, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn commit_makes_transaction_visible_and_txn_misuse_errors() {
        let mut db = setup();
        seed(&mut db, 10);
        assert!(matches!(db.commit(), Err(DbError::Txn(_))));
        assert!(matches!(db.rollback(), Err(DbError::Txn(_))));
        db.begin().unwrap();
        assert!(matches!(db.begin(), Err(DbError::Txn(_))), "no nesting");
        db.execute("DELETE FROM node WHERE doc = 1 AND pos = 0", &[])
            .unwrap();
        db.commit().unwrap();
        assert_eq!(count(&mut db, "SELECT COUNT(*) FROM node"), 9);
        // transaction() joins an open transaction and leaves ownership
        // outside; standalone it commits on Ok and rolls back on Err.
        db.transaction(|db| db.execute("DELETE FROM node WHERE pos = 1", &[]))
            .unwrap();
        assert_eq!(count(&mut db, "SELECT COUNT(*) FROM node"), 8);
        let err: DbResult<()> = db.transaction(|db| {
            db.execute("DELETE FROM node WHERE pos = 2", &[])?;
            Err(DbError::Eval("forced".into()))
        });
        assert!(err.is_err());
        assert_eq!(count(&mut db, "SELECT COUNT(*) FROM node"), 8);
    }

    #[test]
    fn wal_commits_survive_crash_without_checkpoint() {
        let path = temp_db_path("wal-crash.db");
        {
            let mut db = Database::open(&path, 16).unwrap();
            db.execute("CREATE TABLE t (a INTEGER, b TEXT, PRIMARY KEY (a))", &[])
                .unwrap();
            for i in 0..200 {
                db.execute(
                    "INSERT INTO t VALUES (?, ?)",
                    &[Value::Int(i), Value::text(format!("row-{i}"))],
                )
                .unwrap();
            }
            assert!(db.wal_frames_in_log() > 0, "auto-commits appended frames");
            // Simulate a hard crash: no Drop, no checkpoint — the WAL is the
            // only durable copy of most pages.
            std::mem::forget(db);
        }
        let mut db = Database::open(&path, 16).unwrap();
        assert_eq!(count(&mut db, "SELECT COUNT(*) FROM t"), 200);
        let rows = db.query("SELECT b FROM t WHERE a = 123", &[]).unwrap();
        assert_eq!(rows, vec![vec![Value::text("row-123")]]);
        drop(db);
        cleanup(&path);
    }

    #[test]
    fn crash_mid_commit_discards_uncommitted_frames_on_recovery() {
        let path = temp_db_path("wal-torn.db");
        {
            let mut db = Database::open(&path, 16).unwrap();
            db.execute("CREATE TABLE t (a INTEGER, PRIMARY KEY (a))", &[])
                .unwrap();
            for i in 0..100 {
                db.execute("INSERT INTO t VALUES (?)", &[Value::Int(i)])
                    .unwrap();
            }
            db.begin().unwrap();
            db.execute("DELETE FROM t", &[]).unwrap();
            // Let one frame through, then crash: the commit record never
            // lands, so recovery must discard the partial transaction.
            db.faults().crash_after_wal_frames(1);
            let err = db.commit();
            assert!(err.is_err(), "commit must fail mid-WAL-append");
            std::mem::forget(db);
        }
        let mut db = Database::open(&path, 16).unwrap();
        assert_eq!(
            count(&mut db, "SELECT COUNT(*) FROM t"),
            100,
            "uncommitted delete must not survive the crash"
        );
        drop(db);
        cleanup(&path);
    }

    #[test]
    fn transient_fsync_failure_rolls_back_then_retry_succeeds() {
        let path = temp_db_path("wal-fsync.db");
        {
            let mut db = Database::open(&path, 16).unwrap();
            db.execute("CREATE TABLE t (a INTEGER, PRIMARY KEY (a))", &[])
                .unwrap();
            db.begin().unwrap();
            db.execute("INSERT INTO t VALUES (1)", &[]).unwrap();
            db.faults().fail_nth_fsync(1);
            assert!(db.commit().is_err(), "commit barrier fsync failed");
            assert!(!db.in_transaction(), "failed commit rolled back");
            assert_eq!(count(&mut db, "SELECT COUNT(*) FROM t"), 0);
            // The fault was transient: the same work retried goes through.
            db.begin().unwrap();
            db.execute("INSERT INTO t VALUES (1)", &[]).unwrap();
            db.commit().unwrap();
            assert_eq!(count(&mut db, "SELECT COUNT(*) FROM t"), 1);
        }
        let mut db = Database::open(&path, 16).unwrap();
        assert_eq!(count(&mut db, "SELECT COUNT(*) FROM t"), 1);
        drop(db);
        cleanup(&path);
    }

    #[test]
    fn checkpoint_truncates_wal_and_persists_pages() {
        let path = temp_db_path("wal-ckpt.db");
        {
            let mut db = Database::open(&path, 16).unwrap();
            db.execute("CREATE TABLE t (a INTEGER, PRIMARY KEY (a))", &[])
                .unwrap();
            for i in 0..50 {
                db.execute("INSERT INTO t VALUES (?)", &[Value::Int(i)])
                    .unwrap();
            }
            assert!(db.wal_frames_in_log() > 0);
            db.begin().unwrap();
            assert!(
                matches!(db.checkpoint(), Err(DbError::Txn(_))),
                "checkpoint refused inside a transaction"
            );
            db.rollback().unwrap();
            db.checkpoint().unwrap();
            assert_eq!(db.wal_frames_in_log(), 0, "WAL truncated");
            std::mem::forget(db);
        }
        // After a checkpoint the database file alone carries everything.
        let _ = std::fs::remove_file(wal::wal_path(&path));
        let mut db = Database::open(&path, 16).unwrap();
        assert_eq!(count(&mut db, "SELECT COUNT(*) FROM t"), 50);
        drop(db);
        cleanup(&path);
    }

    #[test]
    fn failed_bulk_insert_is_counted_like_a_failed_insert() {
        let path = temp_db_path("bulk-dup.db");
        for mut db in [Database::in_memory(), Database::open(&path, 16).unwrap()] {
            db.execute("CREATE TABLE t (a INTEGER, PRIMARY KEY (a))", &[])
                .unwrap();
            let rows = |keys: &[i64]| keys.iter().map(|&k| vec![Value::Int(k)]).collect();
            assert_eq!(db.insert_many("t", rows(&[0, 1])).unwrap(), 2);
            let errors = |mark: &Ledger| Ledger::read().since(mark)[Work::StatementError];
            let mark = Ledger::read();
            let err = db.execute("INSERT INTO t VALUES (1)", &[]).unwrap_err();
            assert!(matches!(err, DbError::Constraint(_)), "{err}");
            assert_eq!(errors(&mark), 1, "a failed INSERT is counted");
            let mark = Ledger::read();
            let err = db.insert_many("t", rows(&[1, 2])).unwrap_err();
            assert!(matches!(err, DbError::Constraint(_)), "{err}");
            assert_eq!(errors(&mark), 1, "a failed bulk insert is counted");
            assert_eq!(count(&mut db, "SELECT COUNT(*) FROM t"), 2);
        }
        cleanup(&path);
    }

    #[test]
    fn failed_statements_keep_their_work_in_the_totals() {
        let path = temp_db_path("failed-work.db");
        for mut db in [Database::in_memory(), Database::open(&path, 16).unwrap()] {
            db.execute("CREATE TABLE t (a INTEGER, PRIMARY KEY (a))", &[])
                .unwrap();
            insert_range(&mut db, 0, 300);
            let totals = |db: &Database| {
                let stats = db.total_stats();
                let reads = db.pager_stats().full().logical_reads;
                (reads, stats.pages_read, stats.statements)
            };
            let before = totals(&db);
            db.set_work_budget(50);
            let err = db.query("SELECT COUNT(*) FROM t", &[]).unwrap_err();
            assert!(matches!(err, DbError::ResourceExhausted(_)), "{err}");
            db.set_work_budget(0);
            let err = db.execute("INSERT INTO t VALUES (7)", &[]).unwrap_err();
            assert!(matches!(err, DbError::Constraint(_)), "{err}");
            let after = totals(&db);
            let read = after.0 - before.0;
            assert!(read > 0, "the failed statements read pages");
            assert_eq!(after.1 - before.1, read, "pager and statement totals agree");
            assert_eq!(after.2, before.2, "a failure is not a statement");
        }
        cleanup(&path);
    }

    /// Inserts rows `from..to` into the one-column table `t`.
    fn insert_range(db: &mut Database, from: i64, to: i64) {
        for i in from..to {
            db.execute("INSERT INTO t VALUES (?)", &[Value::Int(i)])
                .unwrap();
        }
    }

    fn read_count(reader: &dyn SqlRead) -> i64 {
        let rows = reader.query_read("SELECT COUNT(*) FROM t", &[]).unwrap();
        let n = rows[0][0].as_int().unwrap();
        // The same version through an index range and EXPLAIN ANALYZE.
        let plan = reader
            .run_read("EXPLAIN ANALYZE SELECT a FROM t WHERE a >= 0", &[])
            .unwrap();
        let returned = format!("Rows returned: {n}");
        assert!(
            plan.rows.iter().any(|r| r[0] == Value::text(&returned)),
            "{:?}",
            plan.rows
        );
        n
    }

    #[test]
    fn snapshots_read_their_committed_version_on_the_writers_thread() {
        let path = temp_db_path("snapshot-isolation.db");
        for mut db in [Database::in_memory(), Database::open(&path, 16).unwrap()] {
            db.execute("CREATE TABLE t (a INTEGER, PRIMARY KEY (a))", &[])
                .unwrap();
            insert_range(&mut db, 0, 300);
            let before_begin = db.snapshot();
            db.begin().unwrap();
            insert_range(&mut db, 300, 400);
            db.execute("DELETE FROM t WHERE a < 10", &[]).unwrap();
            let mid_txn = db.snapshot();
            assert_eq!(read_count(&mid_txn), 300, "snapshot skips uncommitted rows");
            assert_eq!(read_count(&before_begin), 300);
            assert_eq!(read_count(&db), 390, "the writer reads its own rows");
            db.rollback().unwrap();
            assert_eq!(read_count(&db), 300);
            assert_eq!(read_count(&mid_txn), 300);
            db.begin().unwrap();
            insert_range(&mut db, 300, 400);
            db.commit().unwrap();
            assert_eq!(read_count(&db), 400);
            assert_eq!(read_count(&db.snapshot()), 400);
            assert_eq!(
                read_count(&mid_txn),
                300,
                "old snapshots keep their version"
            );
            assert_eq!(read_count(&before_begin), 300);
        }
        cleanup(&path);
    }

    #[test]
    fn live_and_snapshot_reads_take_one_path() {
        let mut db = setup();
        seed(&mut db, 500);
        let sql = "SELECT pos, val FROM node WHERE doc = 1 AND parent = 7 ORDER BY pos";
        let snap = db.snapshot();
        let mut results = Vec::new();
        for path in 0..3 {
            let before = db.total_stats();
            let r = match path {
                0 => db.run(sql, &[]).unwrap(),
                1 => db.run_read(sql, &[]).unwrap(),
                _ => snap.run_read(sql, &[]).unwrap(),
            };
            let mut want = before;
            want.merge(&r.stats);
            assert_eq!(db.total_stats(), want, "path {path} merges one statement");
            results.push(r);
        }
        assert_eq!(results[0].rows.len(), 10);
        assert!(results[0].stats.pages_read > 0 && results[0].stats.btree_descents > 0);
        for r in &results[1..] {
            assert_eq!(r.rows, results[0].rows);
            assert_eq!(r.stats.pages_read, results[0].stats.pages_read);
            assert_eq!(r.stats.btree_descents, results[0].stats.btree_descents);
        }
        let explain = format!("EXPLAIN {sql}");
        let plan = db.run(&explain, &[]).unwrap().rows;
        assert_eq!(db.run_read(&explain, &[]).unwrap().rows, plan);
        assert_eq!(snap.run_read(&explain, &[]).unwrap().rows, plan);
    }
}
