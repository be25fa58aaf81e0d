//! The pager: page allocation, caching, transactions, and the two backends.
//!
//! * [`Pager::in_memory`] keeps every page in one page map behind a
//!   reader–writer latch — the default for the experiment harness (the
//!   paper's cost differences are algorithmic, not I/O-bound, and an
//!   in-memory backend removes disk noise). Pages are individually `Arc`ed,
//!   so a [`PageView`] shares every page with the live map and a writer
//!   copies only the pages it touches.
//! * [`Pager::open_file`] stores pages in a file behind a clock-replacement
//!   buffer pool of configurable capacity, for durability tests and
//!   out-of-memory-sized documents.
//!
//! All live access goes through [`Pager::with_page`] /
//! [`Pager::with_page_mut`], which count every page they serve, read or
//! write on the calling thread's [`governance::Ledger`]; the pager itself
//! keeps only the I/O totals in [`PagerStats`]. A live read sees the
//! pager's current state — an open transaction's writes included — from
//! every thread, on both backends. A read of the last commit goes through
//! a [`PageView`].
//!
//! # Transactions
//!
//! [`Pager::begin_txn`] starts page-level transaction tracking: the first
//! mutation of each page captures a pre-image into the backend's one
//! pre-image map, and rollback restores those images (and the page count).
//! Views read through the same map, so a view never sees an uncommitted
//! page. With a WAL attached ([`Pager::attach_wal`])
//! the pager runs a no-steal policy — dirty pages are never evicted to the
//! database file — and commit appends every dirty page to the WAL (fsync =
//! the durability barrier) before writing it home. A file-backed `Database`
//! always attaches one. A bare pager without a WAL is durable only at
//! [`Pager::flush`]: evictions may steal dirty pages, and rollback rewrites
//! stolen pre-images directly.
//!
//! All file I/O is routed through a shared [`FaultInjector`], so durability
//! tests can fail any write/fsync or crash at any WAL frame, fail or
//! corrupt any page read, or fill the disk.
//!
//! # Fault tolerance and degradation
//!
//! Page reads from the file backend are checksummed (FNV-1a per page,
//! recorded at write time) and wrapped in a bounded retry-with-backoff:
//! a transient read error or a corrupted image costs a retry (counted in
//! [`crate::ExecStats::read_retries`]), not a failed statement. Write-path
//! failures are classified at the WAL commit barrier and at checkpoints:
//! a *persistent* failure (the injector's crashed state, or `ENOSPC` real
//! or injected) transitions the pager to [`StoreHealth::Degraded`] —
//! readers keep serving (the pages in memory mode, the WAL-protected
//! committed state on file), [`Pager::begin_txn`] refuses
//! new writes with [`DbError::Degraded`], and [`Pager::try_restore`]
//! re-checkpoints and re-enables writes once I/O succeeds again.
//! Transient one-shot faults never degrade: the transaction rolls back
//! and the very next attempt may succeed.

use super::fault::{self, FaultInjector};
use super::page::{Page, PAGE_SIZE};
use super::wal::Wal;
use crate::error::{DbError, DbResult};
use crate::governance::{self, Work};
use crate::latch;
use crate::obs::WaitSite;
use crate::trace;
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Identifier of a page within a pager.
pub type PageId = u32;

/// Frame id used for cache slots whose page was rolled back out of
/// existence; never allocated (page ids count up from 0).
const DEAD_FRAME: PageId = PageId::MAX;

/// The pager's cumulative I/O totals. Per-statement counts come from each
/// thread's [`governance::Ledger`].
#[derive(Debug, Default)]
pub struct PagerStats {
    /// Pages served to callers (cache hits + misses), added once per
    /// statement and once per commit from the running thread's ledger, so
    /// the read hot path touches no shared counter.
    pub logical_reads: AtomicU64,
    /// Pages read from the backing file (misses). Always 0 in memory mode.
    pub physical_reads: AtomicU64,
    /// Pages written to the backing file. Always 0 in memory mode.
    pub physical_writes: AtomicU64,
}

/// A plain-value copy of the pager totals, for delta arithmetic.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PagerSnapshot {
    /// Pages served to callers (cache hits + misses).
    pub logical_reads: u64,
    /// Pages read from the backing file (misses).
    pub physical_reads: u64,
    /// Pages written to the backing file.
    pub physical_writes: u64,
}

impl PagerStats {
    /// Counts one page written to the backing file, on the totals and on
    /// the writing thread's ledger.
    fn physical_write(&self) {
        self.physical_writes.fetch_add(1, AtomicOrdering::Relaxed);
        governance::count(Work::PhysicalWrite);
    }

    /// Snapshot of every counter as plain values.
    pub fn full(&self) -> PagerSnapshot {
        PagerSnapshot {
            logical_reads: self.logical_reads.load(AtomicOrdering::Relaxed),
            physical_reads: self.physical_reads.load(AtomicOrdering::Relaxed),
            physical_writes: self.physical_writes.load(AtomicOrdering::Relaxed),
        }
    }
}

/// Health of a pager (and of the store built on it): either fully serving,
/// or degraded read-only after a persistent storage failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreHealth {
    /// Reads and writes both served.
    Healthy,
    /// A persistent write-path failure (crashed injector, `ENOSPC`) was
    /// observed: reads keep serving the last committed state, writes are
    /// refused with [`DbError::Degraded`] until a successful
    /// [`Pager::try_restore`]. Carries the reason for the transition.
    Degraded(String),
}

impl StoreHealth {
    /// `true` in the degraded (read-only) state.
    pub fn is_degraded(&self) -> bool {
        matches!(self, StoreHealth::Degraded(_))
    }
}

struct Frame {
    id: PageId,
    page: Page,
    dirty: bool,
    referenced: bool,
}

/// Pre-image entry: `Some(page)` is the image a page held before a
/// transaction (or, on the version chain, at a reader's epoch), `None`
/// marks a page that did not yet exist (allocated later — view reads of it
/// are out of range, and rollback drops it).
type PreImage = Option<Arc<Page>>;

/// The open transaction's first-touch pre-images, one per modified or
/// allocated page. Each backend keeps exactly one such map under its own
/// latch: rollback restores from it, views read through it, and a
/// non-empty map is what makes the file backend no-steal.
type PreImages = HashMap<PageId, PreImage>;

/// An in-memory page map. Pages are individually `Arc`ed so a view shares
/// every page and a writer copy-on-writes only the pages it touches.
type PageMap = Vec<Arc<Page>>;

/// The in-memory backend's state, under one latch.
struct MemPages {
    pages: PageMap,
    pre_images: PreImages,
}

struct FileBackend {
    file: File,
    frames: Vec<Frame>,
    /// frame index per cached page; `usize::MAX` = not cached.
    map: HashMap<PageId, usize>,
    capacity: usize,
    hand: usize,
    /// FNV-1a checksum of the last image written to (or validated from) the
    /// file, per page. Misses validate against this on re-read; a mismatch
    /// is treated like a transient read fault and retried.
    sums: HashMap<PageId, u64>,
    /// Commit counter: bumped once per committed transaction (and per
    /// auto-commit mutation while snapshot readers exist). A [`PageView`]
    /// taken at epoch `V` reads pages as of commit `V`.
    epoch: u64,
    /// The open transaction's pre-images: view reads never see uncommitted
    /// frame content through them. Moved into `retained` at commit,
    /// restored on rollback.
    pre_images: PreImages,
    /// Per-commit pre-image deltas kept alive for registered readers.
    /// The delta at key `k` holds the images pages had *through* epoch `k`
    /// (it was retained by the commit that moved the backend to `k + 1`).
    /// A reader at epoch `V` resolves page `P` from the first delta at
    /// `k >= V` that contains `P`; if none does and the open transaction
    /// has not touched `P`, the current frame is unchanged since `V`.
    retained: BTreeMap<u64, PreImages>,
    /// Registered snapshot readers per epoch ([`PageView`] handles).
    /// Deltas older than the oldest registered epoch are pruned, so a slow
    /// reader pins at most the versions back to its own snapshot.
    readers: BTreeMap<u64, usize>,
}

impl FileBackend {
    /// Drops retained deltas no live reader can need: a delta at key `k`
    /// serves readers at epochs `<= k`, so everything below the oldest
    /// registered epoch goes (all of it, when no reader is registered).
    fn prune_retained(&mut self) {
        match self.readers.keys().next().copied() {
            Some(min) => self.retained.retain(|k, _| *k >= min),
            None => self.retained.clear(),
        }
    }

    /// Records the pre-image chain entry for one auto-commit mutation
    /// (`pre = None` for an allocation) and advances the epoch, so
    /// registered readers keep resolving their version. A no-op while no
    /// reader is registered — the epoch only needs to move when someone
    /// can observe it.
    fn retain_autocommit(&mut self, id: PageId, pre: PreImage) {
        if self.readers.is_empty() {
            return;
        }
        self.retained.entry(self.epoch).or_default().insert(id, pre);
        self.epoch += 1;
    }

    /// Clock eviction: advances the hand until an unreferenced (and, under
    /// no-steal, clean) frame shows. Two full sweeps visit every frame once
    /// with its reference bit cleared; `None` means every frame is pinned
    /// dirty and the pool must grow past capacity. It never shrinks back:
    /// once commits clean the frames, eviction replaces them in place, so
    /// the pool keeps its high-water size.
    fn clock_victim(&mut self, no_steal: bool) -> Option<usize> {
        for _ in 0..self.frames.len() * 2 {
            let i = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            if self.frames[i].referenced {
                self.frames[i].referenced = false;
            } else if !(no_steal && self.frames[i].dirty) {
                return Some(i);
            }
        }
        None
    }

    /// Writes frame `i` to its home page, records its checksum, and marks
    /// it clean.
    fn write_home(
        &mut self,
        i: usize,
        faults: &FaultInjector,
        stats: &PagerStats,
    ) -> std::io::Result<()> {
        let frame = &mut self.frames[i];
        let off = frame.id as u64 * PAGE_SIZE as u64;
        faults.write_at(&mut self.file, off, frame.page.bytes())?;
        self.sums.insert(frame.id, page_sum(frame.page.bytes()));
        frame.dirty = false;
        stats.physical_write();
        Ok(())
    }

    /// Writes every dirty frame home (see [`FileBackend::write_home`]).
    fn write_dirty(&mut self, faults: &FaultInjector, stats: &PagerStats) -> std::io::Result<()> {
        for i in 0..self.frames.len() {
            if self.frames[i].dirty {
                self.write_home(i, faults, stats)?;
            }
        }
        Ok(())
    }
}

/// 64-bit FNV-1a over a page image (file-read validation).
fn page_sum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Attempts per physical page read before the error surfaces (first try
/// plus bounded retries with exponential backoff).
const READ_ATTEMPTS: u32 = 3;

/// The error for a page id past the end of the pager (or of a view).
fn out_of_range(id: PageId) -> DbError {
    DbError::Storage(format!("page {id} out of range"))
}

/// The two storage backends, each with its state and the open
/// transaction's pre-images under one latch. The in-memory page map sits
/// behind a `RwLock`: any number of live readers share it, and a writer
/// holds it only for one page mutation or allocation. The file backend
/// cannot offer shared reads — even a logically read-only
/// [`Pager::with_page`] pins a frame, which mutates the frame table and may
/// evict — so it sits behind a `Mutex` and reads serialize (contention
/// shows up in the `lock_waits` counter).
enum Backend {
    Mem(RwLock<MemPages>),
    File(Mutex<FileBackend>),
}

/// A read-only view of the pager as of one commit — the page half of an
/// MVCC snapshot. Cheap to clone (one `Arc`); holding one pins at most the
/// page versions back to its own commit:
///
/// * **in-memory**: the view holds its own copy of the page map with the
///   open transaction's pre-images put back, sharing every unchanged page
///   with the live map — reads touch no lock at all, and dropping the view
///   releases the pages only it still holds.
/// * **file**: the view registers its epoch with the buffer pool; commits
///   that overwrite pages it can still see retain per-commit pre-image
///   deltas, which are pruned as soon as no registered reader needs them.
///   Reads serialize on the pool mutex like every file read.
///
/// Reads go through [`PageView::read_page`]; a statement carries the view
/// it reads as its [`PageSource`], so the version travels with the
/// statement rather than with the thread.
#[derive(Clone)]
pub struct PageView {
    inner: Arc<ViewInner>,
}

struct ViewInner {
    pager: Arc<Pager>,
    core: ViewCore,
}

enum ViewCore {
    /// The page map as of the view's commit — self-contained.
    Mem(PageMap),
    /// A registered reader epoch on the file backend's version chain.
    File { epoch: u64 },
}

impl Drop for ViewInner {
    fn drop(&mut self) {
        if let ViewCore::File { epoch } = self.core {
            if let Backend::File(fbm) = &self.pager.backend {
                let fb = &mut *latch::lock(fbm, WaitSite::Backend);
                if let Some(n) = fb.readers.get_mut(&epoch) {
                    *n -= 1;
                    if *n == 0 {
                        fb.readers.remove(&epoch);
                    }
                }
                fb.prune_retained();
            }
        }
    }
}

impl PageView {
    /// The pager this view reads (its statistics count the view's reads).
    pub fn pager(&self) -> &Pager {
        &self.inner.pager
    }

    /// Serves one page read as of this view's commit — the snapshot
    /// counterpart of [`Pager::with_page`], with the same span, governance
    /// checkpoint, and logical-read count. An open transaction's writes
    /// are never visible here, whichever thread reads.
    pub fn read_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> DbResult<R> {
        let _span = trace::span("pager.read");
        let pager = &self.inner.pager;
        governance::checkpoint_work(Work::LogicalRead)?;
        match &self.inner.core {
            ViewCore::Mem(pages) => pages
                .get(id as usize)
                .map(|p| f(p))
                .ok_or_else(|| out_of_range(id)),
            ViewCore::File { epoch } => {
                let Backend::File(fbm) = &pager.backend else {
                    unreachable!("file view on a non-file pager");
                };
                let fb = &mut *latch::lock(fbm, WaitSite::Backend);
                // Resolve the version chain: the first retained delta at or
                // after our epoch that mentions the page holds its image as
                // of our snapshot; failing that, the open transaction's
                // pre-images shield us from uncommitted frame content;
                // failing that, the page is unchanged since our epoch and
                // the live frame is correct.
                let pre = fb
                    .retained
                    .range(*epoch..)
                    .find_map(|(_, delta)| delta.get(&id).cloned())
                    .or_else(|| fb.pre_images.get(&id).cloned());
                match pre {
                    Some(Some(img)) => Ok(f(&img)),
                    Some(None) => Err(out_of_range(id)),
                    None => {
                        let no_steal = pager.no_steal(fb);
                        let idx = Pager::pin(fb, id, &pager.stats, no_steal, &pager.faults, None)?;
                        Ok(f(&fb.frames[idx].page))
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for PageView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("PageView");
        match &self.inner.core {
            ViewCore::Mem(pages) => d.field("pages", &pages.len()),
            ViewCore::File { epoch } => d.field("epoch", epoch),
        };
        d.finish()
    }
}

/// Where a read's pages come from: the pager's live state (a writer reads
/// its own uncommitted pages), or one committed version's [`PageView`].
#[derive(Clone, Copy)]
pub enum PageSource<'a> {
    /// [`Pager::with_page`].
    Live(&'a Pager),
    /// [`PageView::read_page`].
    View(&'a PageView),
}

impl<'a> PageSource<'a> {
    /// Runs `f` with shared access to page `id` as this source sees it.
    pub fn with_page<R>(self, id: PageId, f: impl FnOnce(&Page) -> R) -> DbResult<R> {
        match self {
            PageSource::Live(pager) => pager.with_page(id, f),
            PageSource::View(view) => view.read_page(id, f),
        }
    }

    /// The pager underneath, whose statistics count this source's reads.
    pub fn pager(self) -> &'a Pager {
        match self {
            PageSource::Live(pager) => pager,
            PageSource::View(view) => view.pager(),
        }
    }
}

impl<'a> From<&'a Pager> for PageSource<'a> {
    fn from(pager: &'a Pager) -> Self {
        PageSource::Live(pager)
    }
}

/// Per-transaction pager state (its pre-images live in the backend).
struct TxnState {
    /// Monotonic id stamped into WAL frames.
    id: u64,
    /// Page count at `begin_txn` (rollback target).
    start_pages: u32,
}

/// The pager. Interior-mutable so that read paths (query executors) can
/// share it immutably — and, since every interior-mutable field sits behind
/// a latch or an atomic, `Pager` is `Send + Sync`: any number of threads
/// may run [`Pager::with_page`] concurrently. Mutating entry points
/// (transactions, allocation, `with_page_mut`) are latched too, but callers
/// are expected to serialize writers at a higher level (the engine runs one
/// writer at a time; see `XmlStore` in the core crate).
///
/// Lock order, for paths that hold more than one latch: `txn` → `backend`
/// (the in-memory page map or the file frame table, each with the open
/// transaction's pre-images) → `wal`. `n_pages`, `txn_seq` and
/// `wal_attached` are atomics and participate in no ordering. A live read
/// takes only `backend` (shared on the in-memory backend); a view read of
/// the in-memory backend takes nothing.
pub struct Pager {
    backend: Backend,
    n_pages: AtomicU32,
    stats: Arc<PagerStats>,
    faults: Arc<FaultInjector>,
    wal: Mutex<Option<Wal>>,
    /// Set once by [`Pager::attach_wal`] and never cleared, so readers can
    /// ask whether a WAL is attached without taking the `wal` latch, which
    /// a commit holds through its fsync and home writes.
    wal_attached: AtomicBool,
    txn: Mutex<Option<TxnState>>,
    txn_seq: AtomicU64,
    /// `Some(reason)` while degraded read-only (see [`StoreHealth`]).
    /// Checked only on the write path (`begin_txn`) — readers never touch
    /// it.
    health: Mutex<Option<String>>,
    /// Optional operator-facing identity (`"shard-3"`). Once multiple
    /// stores share a process (a document pool), a bare degraded-mode
    /// error no longer says *which* store to `try_restore()`; the
    /// identity is prepended to every degraded reason so the error names
    /// its shard. Leaf lock: never held while another pager latch is
    /// taken.
    identity: Mutex<Option<String>>,
}

impl Pager {
    /// A pager over `backend`, which holds `n_pages` pages.
    fn with_backend(backend: Backend, n_pages: u32) -> Self {
        Pager {
            backend,
            n_pages: AtomicU32::new(n_pages),
            stats: Arc::new(PagerStats::default()),
            faults: Arc::new(FaultInjector::new()),
            wal: Mutex::new(None),
            wal_attached: AtomicBool::new(false),
            txn: Mutex::new(None),
            txn_seq: AtomicU64::new(0),
            health: Mutex::new(None),
            identity: Mutex::new(None),
        }
    }

    /// A pager whose pages live entirely in memory.
    pub fn in_memory() -> Self {
        let pages = MemPages {
            pages: Vec::new(),
            pre_images: HashMap::new(),
        };
        Pager::with_backend(Backend::Mem(RwLock::new(pages)), 0)
    }

    /// A file-backed pager with a buffer pool of `cache_pages` frames.
    /// Existing files are opened (their page count is derived from the file
    /// length); missing files are created.
    pub fn open_file(path: &Path, cache_pages: usize) -> DbResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(DbError::Storage(format!(
                "file length {len} is not a multiple of the page size"
            )));
        }
        let fb = FileBackend {
            file,
            frames: Vec::new(),
            map: HashMap::new(),
            capacity: cache_pages.max(8),
            hand: 0,
            sums: HashMap::new(),
            epoch: 0,
            pre_images: HashMap::new(),
            retained: BTreeMap::new(),
            readers: BTreeMap::new(),
        };
        let n_pages = (len / PAGE_SIZE as u64) as u32;
        Ok(Pager::with_backend(Backend::File(Mutex::new(fb)), n_pages))
    }

    /// Attaches a write-ahead log: from now on the pager runs no-steal and
    /// commits route page images through the WAL.
    pub fn attach_wal(&self, wal: Wal) {
        *latch::lock(&self.wal, WaitSite::Wal) = Some(wal);
        self.wal_attached.store(true, AtomicOrdering::Release);
    }

    /// `true` once a WAL is attached. Takes no latch.
    pub fn wal_enabled(&self) -> bool {
        self.wal_attached.load(AtomicOrdering::Acquire)
    }

    /// Frames currently sitting in the WAL (0 without a WAL).
    pub fn wal_frames_in_log(&self) -> u64 {
        latch::lock(&self.wal, WaitSite::Wal)
            .as_ref()
            .map_or(0, Wal::frames_in_log)
    }

    /// The shared fault-injection handle for this pager's file I/O.
    pub fn faults(&self) -> Arc<FaultInjector> {
        Arc::clone(&self.faults)
    }

    /// The shared statistics handle.
    pub fn stats(&self) -> Arc<PagerStats> {
        Arc::clone(&self.stats)
    }

    /// Captures a read-only [`PageView`] of the last committed state: on
    /// the in-memory backend a copy of the page map (one `Arc` per page)
    /// with the open transaction's pre-images put back, on the file
    /// backend one reader-epoch registration under the pool mutex.
    /// Associated function because the view keeps its pager alive.
    pub fn view(pager: &Arc<Pager>) -> PageView {
        let core = match &pager.backend {
            Backend::Mem(mem) => {
                let mem = latch::read(mem, WaitSite::Backend);
                let mut pages = mem.pages.clone();
                let mut end = pages.len();
                for (&id, pre) in &mem.pre_images {
                    match pre {
                        Some(img) => pages[id as usize] = Arc::clone(img),
                        None => end = end.min(id as usize),
                    }
                }
                pages.truncate(end);
                ViewCore::Mem(pages)
            }
            Backend::File(fbm) => {
                let fb = &mut *latch::lock(fbm, WaitSite::Backend);
                *fb.readers.entry(fb.epoch).or_insert(0) += 1;
                ViewCore::File { epoch: fb.epoch }
            }
        };
        PageView {
            inner: Arc::new(ViewInner {
                pager: Arc::clone(pager),
                core,
            }),
        }
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> u32 {
        self.n_pages.load(AtomicOrdering::Acquire)
    }

    /// `true` while a transaction started by [`Pager::begin_txn`] is open.
    pub fn in_txn(&self) -> bool {
        latch::lock(&self.txn, WaitSite::Txn).is_some()
    }

    /// `true` if the open transaction has modified (or allocated) any page.
    pub fn txn_has_writes(&self) -> bool {
        match &self.backend {
            Backend::Mem(mem) => !latch::read(mem, WaitSite::Backend).pre_images.is_empty(),
            Backend::File(fbm) => !latch::lock(fbm, WaitSite::Backend).pre_images.is_empty(),
        }
    }

    /// Sets the operator-facing identity included in degraded-mode errors
    /// (a document pool labels each shard's pager `"shard-<n>"`).
    pub fn set_identity(&self, label: &str) {
        *latch::lock(&self.identity, WaitSite::Txn) = Some(label.to_string());
    }

    /// The operator-facing identity, if one was set.
    pub fn identity(&self) -> Option<String> {
        latch::lock(&self.identity, WaitSite::Txn).clone()
    }

    /// Prefixes `reason` with this pager's identity (when set), so degraded
    /// errors surfaced through a shared store name the failing shard.
    fn tag_reason(&self, reason: &str) -> String {
        match &*latch::lock(&self.identity, WaitSite::Txn) {
            Some(id) => format!("[{id}] {reason}"),
            None => reason.to_string(),
        }
    }

    /// Current health. Degradation is entered only by *persistent*
    /// write-path failures (crashed injector or `ENOSPC`) at the WAL commit
    /// barrier or during a checkpoint; transient faults roll back without
    /// degrading.
    pub fn health(&self) -> StoreHealth {
        let reason = latch::lock(&self.health, WaitSite::Txn).clone();
        match reason {
            Some(reason) => StoreHealth::Degraded(self.tag_reason(&reason)),
            None => StoreHealth::Healthy,
        }
    }

    /// Transitions to degraded read-only (idempotent; counted once).
    fn enter_degraded(&self, reason: String) {
        let mut health = latch::lock(&self.health, WaitSite::Txn);
        if health.is_none() {
            *health = Some(reason);
            governance::count(Work::DegradedEntry);
        }
    }

    /// Classifies a write-path `io::Error`: persistent failures (crashed
    /// injector, full disk) degrade the store; every failure is returned as
    /// the original storage error so the caller's rollback contract is
    /// unchanged.
    fn classify_write_failure(&self, at: &str, e: std::io::Error) -> DbError {
        if self.faults.is_crashed() || fault::is_enospc(&e) {
            self.enter_degraded(format!("{at}: {e}"));
        }
        e.into()
    }

    /// Attempts to leave degraded mode: re-runs the checkpoint (retrying
    /// dirty home-page writes, fsyncing, truncating the WAL). On success
    /// the pager is healthy again and `begin_txn` accepts writers; on
    /// failure it stays degraded and the error is returned. A no-op when
    /// already healthy.
    pub fn try_restore(&self) -> DbResult<()> {
        if !self.health().is_degraded() {
            return Ok(());
        }
        self.checkpoint_wal()?;
        *latch::lock(&self.health, WaitSite::Txn) = None;
        Ok(())
    }

    /// Starts a transaction; returns its id. Errors if one is already open
    /// (the engine does not nest transactions), or with
    /// [`DbError::Degraded`] while the store is degraded read-only
    /// (rollback of an already-open transaction stays allowed).
    pub fn begin_txn(&self) -> DbResult<u64> {
        if let Some(reason) = latch::lock(&self.health, WaitSite::Txn).clone() {
            governance::count(Work::DegradedReject);
            return Err(DbError::Degraded(self.tag_reason(&reason)));
        }
        let mut txn = latch::lock(&self.txn, WaitSite::Txn);
        if txn.is_some() {
            return Err(DbError::Txn("transaction already active".into()));
        }
        let id = self.txn_seq.fetch_add(1, AtomicOrdering::Relaxed) + 1;
        *txn = Some(TxnState {
            id,
            start_pages: self.page_count(),
        });
        Ok(id)
    }

    /// Commits the open transaction. With a WAL: appends every dirty page as
    /// a frame (last one flagged COMMIT, carrying the page count), fsyncs
    /// the WAL — the durability barrier — then writes the pages home.
    /// Database-file write failures *after* the barrier do not fail the
    /// commit; the pages stay dirty and the WAL protects them until the
    /// next checkpoint retries. Returns the number of WAL frames written.
    ///
    /// On error the transaction is still open; the caller must roll back.
    pub fn commit_txn(&self) -> DbResult<u64> {
        let _span = trace::span("pager.commit");
        let mut txn = latch::lock(&self.txn, WaitSite::Txn);
        let txn_id = txn
            .as_ref()
            .ok_or_else(|| DbError::Txn("no active transaction".into()))?
            .id;
        let mut frames_written = 0u64;
        if let Backend::File(fbm) = &self.backend {
            let fb = &mut *latch::lock(fbm, WaitSite::Backend);
            let mut dirty: Vec<usize> = (0..fb.frames.len())
                .filter(|&i| fb.frames[i].dirty)
                .collect();
            dirty.sort_by_key(|&i| fb.frames[i].id);
            if !dirty.is_empty() {
                let db_size = self.page_count();
                let mut wal = latch::lock(&self.wal, WaitSite::Wal);
                if let Some(wal) = wal.as_mut() {
                    let pages: Vec<(PageId, &Page)> = dirty
                        .iter()
                        .map(|&i| (fb.frames[i].id, &fb.frames[i].page))
                        .collect();
                    frames_written = wal
                        .commit(txn_id, &pages, db_size, &self.faults)
                        .map_err(|e| self.classify_write_failure("wal commit", e))?;
                    governance::add(Work::WalFrame, frames_written);
                }
                // Write the pages home. Past the WAL barrier these are
                // best-effort: a failed write leaves the frame dirty for
                // the checkpoint to retry. Without a WAL the legacy
                // contract applies (durability comes from `flush`), so
                // failures surface to the caller.
                for &i in &dirty {
                    if let Err(e) = fb.write_home(i, &self.faults, &self.stats) {
                        if wal.is_none() {
                            return Err(e.into());
                        }
                    }
                }
            }
            // The commit is durable: move the transaction's pre-images onto
            // the version chain (only if a registered reader can still need
            // them) and advance the epoch, so views taken before this
            // commit keep resolving their versions.
            if !fb.pre_images.is_empty() {
                let pre = std::mem::take(&mut fb.pre_images);
                if !fb.readers.is_empty() {
                    fb.retained.entry(fb.epoch).or_default().extend(pre);
                }
                fb.epoch += 1;
                fb.prune_retained();
            }
        }
        if let Backend::Mem(mem) = &self.backend {
            latch::write(mem, WaitSite::Backend).pre_images.clear();
        }
        *txn = None;
        Ok(frames_written)
    }

    /// Rolls the open transaction back: restores every pre-image, drops
    /// pages allocated inside the transaction, and resets the page count.
    pub fn rollback_txn(&self) -> DbResult<()> {
        let txn = latch::lock(&self.txn, WaitSite::Txn)
            .take()
            .ok_or_else(|| DbError::Txn("no active transaction".into()))?;
        let had_writes = match &self.backend {
            Backend::Mem(mem) => {
                let mem = &mut *latch::write(mem, WaitSite::Backend);
                let pre_images = std::mem::take(&mut mem.pre_images);
                let had_writes = !pre_images.is_empty();
                for (pid, pre) in pre_images {
                    if let Some(img) = pre {
                        mem.pages[pid as usize] = img;
                    }
                }
                mem.pages.truncate(txn.start_pages as usize);
                had_writes
            }
            Backend::File(fbm) => {
                let fb = &mut *latch::lock(fbm, WaitSite::Backend);
                // The rollback restores the frames to exactly the committed
                // images, so views no longer need the shield (and the epoch
                // must *not* advance: nothing committed).
                let pre_images = std::mem::take(&mut fb.pre_images);
                let had_writes = !pre_images.is_empty();
                let wal_mode = self.wal_enabled();
                for (pid, pre) in pre_images {
                    match pre {
                        Some(img) => {
                            if let Some(&idx) = fb.map.get(&pid) {
                                fb.frames[idx].page = (*img).clone();
                                // Dirty so any stale on-file copy (legacy
                                // steal, or an earlier commit whose home
                                // write failed) is rewritten later.
                                fb.frames[idx].dirty = true;
                            } else {
                                // Only reachable in legacy mode: eviction
                                // stole the uncommitted page, so rewrite the
                                // pre-image in place.
                                let off = pid as u64 * PAGE_SIZE as u64;
                                self.faults.write_at(&mut fb.file, off, img.bytes())?;
                                fb.sums.insert(pid, page_sum(img.bytes()));
                                self.stats.physical_write();
                            }
                        }
                        None => {
                            // Allocated inside the transaction: the page no
                            // longer exists. Turn its cache slot into a dead
                            // frame so the clock reclaims it.
                            if let Some(idx) = fb.map.remove(&pid) {
                                fb.frames[idx] = Frame {
                                    id: DEAD_FRAME,
                                    page: Page::new(),
                                    dirty: false,
                                    referenced: false,
                                };
                            }
                        }
                    }
                }
                if !wal_mode {
                    // Legacy allocation extends the file eagerly; trim the
                    // rolled-back tail (best effort — orphan zero pages are
                    // unreachable anyway).
                    let _ = self
                        .faults
                        .set_len(&fb.file, txn.start_pages as u64 * PAGE_SIZE as u64);
                }
                had_writes
            }
        };
        self.n_pages.store(txn.start_pages, AtomicOrdering::Release);
        if had_writes {
            if let Some(wal) = latch::lock(&self.wal, WaitSite::Wal).as_mut() {
                // Best effort: recovery discards commit-less frames even
                // when the abort record itself cannot be written.
                let _ = wal.abort(txn.id, &self.faults);
            }
        }
        Ok(())
    }

    /// Fsyncs the database file and truncates the WAL (the checkpoint's I/O
    /// half). Dirty frames left over from failed post-commit writes are
    /// retried first. Refused inside a transaction.
    pub fn checkpoint_wal(&self) -> DbResult<()> {
        let _span = trace::span("pager.checkpoint");
        if self.in_txn() {
            return Err(DbError::Txn("checkpoint inside a transaction".into()));
        }
        if let Backend::File(fbm) = &self.backend {
            let fb = &mut *latch::lock(fbm, WaitSite::Backend);
            fb.write_dirty(&self.faults, &self.stats)
                .map_err(|e| self.classify_write_failure("checkpoint write", e))?;
            self.faults
                .sync(&fb.file)
                .map_err(|e| self.classify_write_failure("checkpoint fsync", e))?;
            if let Some(wal) = latch::lock(&self.wal, WaitSite::Wal).as_mut() {
                wal.truncate(&self.faults)
                    .map_err(|e| self.classify_write_failure("wal truncate", e))?;
            }
        }
        Ok(())
    }

    /// Allocates a fresh, zeroed page and returns its id. Allocation is a
    /// mutating entry point: the engine serializes it with every other
    /// writer (one writer at a time), so the load/store pair on the page
    /// count never races another allocation.
    pub fn allocate(&self) -> DbResult<PageId> {
        let txn = latch::lock(&self.txn, WaitSite::Txn);
        let id = self.page_count();
        match &self.backend {
            Backend::Mem(mem) => {
                let mem = &mut *latch::write(mem, WaitSite::Backend);
                mem.pages.push(Arc::new(Page::new()));
                if txn.is_some() {
                    mem.pre_images.insert(id, None);
                }
            }
            Backend::File(fbm) => {
                let wal_mode = self.wal_enabled();
                let fb = &mut *latch::lock(fbm, WaitSite::Backend);
                if wal_mode {
                    // WAL mode: the zero page enters the cache dirty and
                    // reaches the file only through a committed frame.
                    let idx =
                        Self::pin(fb, id, &self.stats, true, &self.faults, Some(Page::new()))?;
                    fb.frames[idx].dirty = true;
                } else {
                    // Legacy: extend the file eagerly so page reads never
                    // run past EOF.
                    let zero = Page::new();
                    self.faults.write_at(
                        &mut fb.file,
                        id as u64 * PAGE_SIZE as u64,
                        zero.bytes(),
                    )?;
                    fb.sums.insert(id, page_sum(zero.bytes()));
                    self.stats.physical_write();
                }
                // Views must see the page as nonexistent: mark it `None` in
                // the open transaction's pre-images, or directly on the
                // version chain for an auto-commit allocation.
                if txn.is_some() {
                    fb.pre_images.insert(id, None);
                } else {
                    fb.retain_autocommit(id, None);
                }
            }
        }
        self.n_pages.store(id + 1, AtomicOrdering::Release);
        Ok(id)
    }

    /// Runs `f` with shared access to the page as the pager holds it now —
    /// an open transaction's writes included, whichever thread reads. On
    /// the in-memory backend any number of threads share the page map's
    /// read latch, which a writer holds only for one page mutation; on the
    /// file backend reads serialize on the buffer-pool latch (pinning
    /// mutates the frame table).
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> DbResult<R> {
        let _span = trace::span("pager.read");
        governance::checkpoint_work(Work::LogicalRead)?;
        match &self.backend {
            Backend::Mem(mem) => {
                let mem = latch::read(mem, WaitSite::Backend);
                mem.pages
                    .get(id as usize)
                    .map(|p| f(p))
                    .ok_or_else(|| out_of_range(id))
            }
            Backend::File(fbm) => {
                let fb = &mut *latch::lock(fbm, WaitSite::Backend);
                let no_steal = self.no_steal(fb);
                let idx = Self::pin(fb, id, &self.stats, no_steal, &self.faults, None)?;
                Ok(f(&fb.frames[idx].page))
            }
        }
    }

    /// Runs `f` with exclusive access to the page, marking it dirty (and
    /// capturing a pre-image when a transaction is open).
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> DbResult<R> {
        let _span = trace::span("pager.write");
        governance::count(Work::LogicalRead);
        let txn = latch::lock(&self.txn, WaitSite::Txn);
        match &self.backend {
            Backend::Mem(mem) => {
                let mem = &mut *latch::write(mem, WaitSite::Backend);
                let slot = mem
                    .pages
                    .get_mut(id as usize)
                    .ok_or_else(|| out_of_range(id))?;
                if txn.is_some() {
                    // Sharing the slot's Arc (instead of deep-cloning) also
                    // pins its refcount above 1, so `make_mut` below is
                    // guaranteed to copy-on-write.
                    mem.pre_images
                        .entry(id)
                        .or_insert_with(|| Some(Arc::clone(slot)));
                }
                // Copy-on-write: a view or pre-image still sharing this
                // page keeps its image; the live map gets a private copy.
                Ok(f(Arc::make_mut(slot)))
            }
            Backend::File(fbm) => {
                let fb = &mut *latch::lock(fbm, WaitSite::Backend);
                let no_steal = self.no_steal(fb);
                let idx = Self::pin(fb, id, &self.stats, no_steal, &self.faults, None)?;
                if txn.is_some() {
                    if !fb.pre_images.contains_key(&id) {
                        let img = Arc::new(fb.frames[idx].page.clone());
                        fb.pre_images.insert(id, Some(img));
                    }
                } else if !fb.readers.is_empty() {
                    // Auto-commit granularity: the mutation commits by
                    // itself, so registered readers need the old image on
                    // the version chain before it changes.
                    let old = Arc::new(fb.frames[idx].page.clone());
                    fb.retain_autocommit(id, Some(old));
                }
                fb.frames[idx].dirty = true;
                Ok(f(&mut fb.frames[idx].page))
            }
        }
    }

    /// Adds `n` logical reads — counted on a thread's ledger while it ran
    /// one statement or commit — to this pager's totals.
    pub(crate) fn add_logical_reads(&self, n: u64) {
        self.stats
            .logical_reads
            .fetch_add(n, AtomicOrdering::Relaxed);
    }

    /// Dirty pages must stay pinned whenever they are protected by a WAL
    /// (their only durable copy is the uncheckpointed log or an open
    /// transaction's buffer) or by an open transaction's pre-images.
    fn no_steal(&self, fb: &FileBackend) -> bool {
        self.wal_enabled() || !fb.pre_images.is_empty()
    }

    /// Ensures `id` is cached, evicting with the clock algorithm if the pool
    /// is full; under no-steal the pool grows instead of stealing a dirty
    /// frame. `preloaded` supplies the page image without a file read (used
    /// by WAL-mode allocation). Returns the frame index.
    fn pin(
        fb: &mut FileBackend,
        id: PageId,
        stats: &PagerStats,
        no_steal: bool,
        faults: &FaultInjector,
        preloaded: Option<Page>,
    ) -> DbResult<usize> {
        if let Some(&idx) = fb.map.get(&id) {
            fb.frames[idx].referenced = true;
            return Ok(idx);
        }
        let page = match preloaded {
            Some(p) => p,
            None => {
                stats.physical_reads.fetch_add(1, AtomicOrdering::Relaxed);
                governance::count(Work::PhysicalRead);
                Self::read_page_checked(fb, id, faults)?
            }
        };
        let frame = Frame {
            id,
            page,
            dirty: false,
            referenced: true,
        };
        let victim = if fb.frames.len() < fb.capacity {
            None
        } else {
            fb.clock_victim(no_steal)
        };
        let Some(idx) = victim else {
            fb.frames.push(frame);
            fb.map.insert(id, fb.frames.len() - 1);
            return Ok(fb.frames.len() - 1);
        };
        governance::count(Work::Eviction);
        if fb.frames[idx].dirty {
            fb.write_home(idx, faults, stats)?;
        }
        fb.map.remove(&fb.frames[idx].id);
        fb.map.insert(id, idx);
        fb.frames[idx] = frame;
        Ok(idx)
    }

    /// One physical page read with checksum validation and bounded
    /// retry-with-backoff. A transient injected error or a checksum
    /// mismatch (corrupted image) costs a retry; only after
    /// [`READ_ATTEMPTS`] consecutive failures does the error surface. A
    /// page with no recorded checksum (first read of a recovered or
    /// pre-existing file) records one for later validation.
    fn read_page_checked(
        fb: &mut FileBackend,
        id: PageId,
        faults: &FaultInjector,
    ) -> DbResult<Page> {
        let off = id as u64 * PAGE_SIZE as u64;
        let expected = fb.sums.get(&id).copied();
        let mut last_err = String::new();
        for attempt in 0..READ_ATTEMPTS {
            if attempt > 0 {
                governance::count(Work::ReadRetry);
                // Tiny exponential backoff: transient device hiccups clear
                // in microseconds; anything longer is for the error path.
                std::thread::sleep(Duration::from_micros(50 << attempt));
            }
            let mut buf = Box::new([0u8; PAGE_SIZE]);
            match faults.read_at(&mut fb.file, off, &mut buf[..]) {
                Ok(()) => {
                    let sum = page_sum(&buf[..]);
                    match expected {
                        Some(want) if want != sum => {
                            last_err =
                                format!("checksum mismatch (want {want:#018x}, got {sum:#018x})");
                            continue;
                        }
                        Some(_) => {}
                        None => {
                            fb.sums.insert(id, sum);
                        }
                    }
                    return Ok(Page::from_bytes(buf));
                }
                Err(e) => {
                    last_err = e.to_string();
                    continue;
                }
            }
        }
        Err(DbError::Storage(format!(
            "page {id} unreadable after {READ_ATTEMPTS} attempts: {last_err}"
        )))
    }

    /// Writes all dirty frames back to the file and fsyncs it (no-op in
    /// memory mode). In WAL mode this is only safe outside transactions
    /// (dirty frames then hold committed content), which
    /// [`Pager::checkpoint_wal`] enforces.
    pub fn flush(&self) -> DbResult<()> {
        if let Backend::File(fbm) = &self.backend {
            let fb = &mut *latch::lock(fbm, WaitSite::Backend);
            fb.write_dirty(&self.faults, &self.stats)?;
            self.faults.sync(&fb.file)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("pages", &self.page_count())
            .field("wal", &self.wal_enabled())
            .field("in_txn", &self.in_txn())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pager_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Pager>();
    }

    #[test]
    fn concurrent_readers_share_the_memory_backend() {
        let pager = Arc::new(Pager::in_memory());
        for i in 0..8u32 {
            let id = pager.allocate().unwrap();
            pager
                .with_page_mut(id, |p| {
                    p.insert(format!("page-{i}").as_bytes()).unwrap();
                })
                .unwrap();
        }
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pager = Arc::clone(&pager);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        for i in 0..8u32 {
                            let got = pager.with_page(i, |p| p.get(0).unwrap().to_vec()).unwrap();
                            assert_eq!(got, format!("page-{i}").as_bytes());
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_readers_share_the_file_backend() {
        let dir = std::env::temp_dir().join(format!("ordxml-pager-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared-read.db");
        let _ = std::fs::remove_file(&path);
        let pager = Arc::new(Pager::open_file(&path, 8).unwrap());
        for i in 0..32u32 {
            let id = pager.allocate().unwrap();
            pager
                .with_page_mut(id, |p| {
                    p.insert(format!("page-{i}").as_bytes()).unwrap();
                })
                .unwrap();
        }
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pager = Arc::clone(&pager);
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        for i in 0..32u32 {
                            let got = pager.with_page(i, |p| p.get(0).unwrap().to_vec()).unwrap();
                            assert_eq!(got, format!("page-{i}").as_bytes());
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(pager);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn memory_pager_basics() {
        let pager = Pager::in_memory();
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        assert_eq!((a, b), (0, 1));
        pager
            .with_page_mut(a, |p| {
                p.insert(b"hello").unwrap();
            })
            .unwrap();
        let got = pager.with_page(a, |p| p.get(0).unwrap().to_vec()).unwrap();
        assert_eq!(got, b"hello");
        assert!(pager.with_page(99, |_| ()).is_err());
    }

    #[test]
    fn file_pager_round_trips_through_eviction() {
        let dir = std::env::temp_dir().join(format!("ordxml-pager-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("evict.db");
        let _ = std::fs::remove_file(&path);
        {
            // Tiny pool: 8 frames, 64 pages -> lots of eviction.
            let pager = Pager::open_file(&path, 8).unwrap();
            for i in 0..64u32 {
                let id = pager.allocate().unwrap();
                pager
                    .with_page_mut(id, |p| {
                        p.insert(format!("page-{i}").as_bytes()).unwrap();
                    })
                    .unwrap();
            }
            for i in 0..64u32 {
                let got = pager.with_page(i, |p| p.get(0).unwrap().to_vec()).unwrap();
                assert_eq!(got, format!("page-{i}").as_bytes());
            }
            pager.flush().unwrap();
            let stats = pager.stats().full();
            assert!(
                stats.physical_reads > 0,
                "pool smaller than file must re-read"
            );
            assert!(stats.physical_writes >= 64);
        }
        // Reopen and verify durability.
        let pager = Pager::open_file(&path, 8).unwrap();
        assert_eq!(pager.page_count(), 64);
        for i in 0..64u32 {
            let got = pager.with_page(i, |p| p.get(0).unwrap().to_vec()).unwrap();
            assert_eq!(got, format!("page-{i}").as_bytes());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stats_count_logical_reads() {
        let pager = Pager::in_memory();
        let id = pager.allocate().unwrap();
        let mark = governance::Ledger::read();
        for _ in 0..5 {
            pager.with_page(id, |_| ()).unwrap();
        }
        let work = governance::Ledger::read().since(&mark);
        assert_eq!(work[Work::LogicalRead], 5);
        assert_eq!(work[Work::PhysicalRead], 0);
    }

    #[test]
    fn memory_rollback_restores_pages_and_count() {
        let pager = Pager::in_memory();
        let a = pager.allocate().unwrap();
        pager
            .with_page_mut(a, |p| {
                p.insert(b"committed").unwrap();
            })
            .unwrap();
        pager.begin_txn().unwrap();
        pager
            .with_page_mut(a, |p| {
                p.insert(b"uncommitted").unwrap();
            })
            .unwrap();
        let b = pager.allocate().unwrap();
        pager
            .with_page_mut(b, |p| {
                p.insert(b"new page").unwrap();
            })
            .unwrap();
        pager.rollback_txn().unwrap();
        assert_eq!(pager.page_count(), 1);
        let live = pager.with_page(a, |p| p.live_count()).unwrap();
        assert_eq!(live, 1, "only the pre-transaction record remains");
        assert!(pager.with_page(b, |_| ()).is_err());
    }

    #[test]
    fn commit_clears_transaction_state() {
        let pager = Pager::in_memory();
        let a = pager.allocate().unwrap();
        pager.begin_txn().unwrap();
        pager
            .with_page_mut(a, |p| {
                p.insert(b"kept").unwrap();
            })
            .unwrap();
        assert!(pager.txn_has_writes());
        pager.commit_txn().unwrap();
        assert!(!pager.in_txn());
        let live = pager.with_page(a, |p| p.live_count()).unwrap();
        assert_eq!(live, 1);
        assert!(pager.begin_txn().is_ok(), "a new transaction can start");
        pager.commit_txn().unwrap();
    }

    #[test]
    fn nested_transactions_are_refused() {
        let pager = Pager::in_memory();
        pager.begin_txn().unwrap();
        assert!(matches!(pager.begin_txn(), Err(DbError::Txn(_))));
        pager.commit_txn().unwrap();
        assert!(matches!(pager.commit_txn(), Err(DbError::Txn(_))));
        assert!(matches!(pager.rollback_txn(), Err(DbError::Txn(_))));
    }

    /// A memory pager and a file pager with a WAL, each holding pages 0
    /// and 1 with one committed record, and the files to remove after.
    fn committed_pagers(name: &str) -> ([Arc<Pager>; 2], [std::path::PathBuf; 2]) {
        let dir = std::env::temp_dir().join(format!("ordxml-pager-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let wal_p = super::super::wal::wal_path(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal_p);
        let file = Pager::open_file(&path, 8).unwrap();
        file.attach_wal(Wal::open(&wal_p).unwrap());
        let pagers = [Arc::new(Pager::in_memory()), Arc::new(file)];
        for pager in &pagers {
            pager.begin_txn().unwrap();
            for _ in 0..2 {
                let id = pager.allocate().unwrap();
                pager
                    .with_page_mut(id, |p| p.insert(b"old").map(drop))
                    .unwrap();
            }
            pager.commit_txn().unwrap();
        }
        (pagers, [path, wal_p])
    }

    /// Asserts, on this thread and a fresh one, that `view` reads one
    /// record on `pages` and no page 2.
    fn assert_reads_last_commit(view: &PageView, pages: &[PageId]) {
        let check = || {
            for &id in pages {
                let n = view.read_page(id, |p| p.live_count()).unwrap();
                assert_eq!(n, 1, "uncommitted write visible through a view");
            }
            assert!(
                view.read_page(2, |_| ()).is_err(),
                "uncommitted page visible"
            );
        };
        check();
        std::thread::scope(|s| s.spawn(check).join().unwrap());
    }

    #[test]
    fn readers_see_pre_or_post_commit_snapshot_never_uncommitted() {
        // Two pages are updated and a third allocated inside one
        // transaction on a writer thread. While it is open (the writer
        // blocks on a channel), views taken before and during it must see
        // the old commit on BOTH pages and no third page; a view taken
        // after commit, the new one.
        let (pagers, files) = committed_pagers("pre-or-post.db");
        for pager in pagers {
            let before = Pager::view(&pager);
            let (mutated_tx, mutated_rx) = std::sync::mpsc::channel::<()>();
            let (commit_tx, commit_rx) = std::sync::mpsc::channel::<()>();
            let w = Arc::clone(&pager);
            let writer = std::thread::spawn(move || {
                w.begin_txn().unwrap();
                for id in [0, 1] {
                    w.with_page_mut(id, |p| p.insert(b"new").map(drop)).unwrap();
                }
                assert_eq!(w.allocate().unwrap(), 2);
                mutated_tx.send(()).unwrap();
                commit_rx.recv().unwrap(); // hold the txn open until told
                w.commit_txn().unwrap();
            });
            mutated_rx.recv().unwrap();
            // Live reads see the open transaction from every thread...
            assert_eq!(pager.with_page(0, |p| p.live_count()).unwrap(), 2);
            // ...views taken before and during it see the last commit.
            let during = Pager::view(&pager);
            assert_reads_last_commit(&before, &[0, 1]);
            assert_reads_last_commit(&during, &[0, 1]);
            commit_tx.send(()).unwrap();
            writer.join().unwrap();
            // Post-commit: the new version, atomically covering both pages
            // and the new one; the older views keep theirs.
            let after = Pager::view(&pager);
            for id in [0, 1] {
                assert_eq!(after.read_page(id, |p| p.live_count()).unwrap(), 2);
            }
            assert!(after.read_page(2, |_| ()).is_ok());
            assert_reads_last_commit(&during, &[0, 1]);
        }
        files.iter().for_each(|f| drop(std::fs::remove_file(f)));
    }

    #[test]
    fn writer_panic_mid_txn_leaves_published_epoch_readable() {
        let (pagers, files) = committed_pagers("writer-panic.db");
        for pager in pagers {
            let before = Pager::view(&pager);
            // A writer thread opens a transaction, mutates, allocates, and
            // dies without committing — simulating a panic mid-commit.
            let w = Arc::clone(&pager);
            let _ = std::thread::spawn(move || {
                w.begin_txn().unwrap();
                w.with_page_mut(0, |p| p.insert(b"uncommitted").map(drop))
                    .unwrap();
                w.allocate().unwrap();
                panic!("writer dies mid-transaction");
            })
            .join();
            // Views taken before and after the panic still see exactly one
            // committed record and no new page.
            assert_reads_last_commit(&before, &[0]);
            assert_reads_last_commit(&Pager::view(&pager), &[0]);
            // The orphaned transaction still guards the pager...
            assert!(matches!(pager.begin_txn(), Err(DbError::Txn(_))));
            // ...until rollback (from this thread — not the dead writer's)
            // restores the pre-image and reopens the write path.
            pager.rollback_txn().unwrap();
            assert_eq!(pager.with_page(0, |p| p.live_count()).unwrap(), 1);
            assert_eq!(pager.page_count(), 2);
            pager.begin_txn().unwrap();
            pager.commit_txn().unwrap();
        }
        files.iter().for_each(|f| drop(std::fs::remove_file(f)));
    }

    #[test]
    fn wal_mode_grows_pool_instead_of_stealing() {
        let dir = std::env::temp_dir().join(format!("ordxml-pager-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("nosteal.db");
        let wal_p = super::super::wal::wal_path(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal_p);
        let pager = Pager::open_file(&path, 8).unwrap();
        pager.attach_wal(Wal::open(&wal_p).unwrap());
        pager.begin_txn().unwrap();
        // Dirty 3x the pool capacity inside one transaction.
        for i in 0..24u32 {
            let id = pager.allocate().unwrap();
            pager
                .with_page_mut(id, |p| {
                    p.insert(format!("p{i}").as_bytes()).unwrap();
                })
                .unwrap();
        }
        assert_eq!(
            pager.stats().full().physical_writes,
            0,
            "no-steal: nothing reaches the file yet"
        );
        let frames = pager.commit_txn().unwrap();
        assert_eq!(frames, 24);
        pager.checkpoint_wal().unwrap();
        drop(pager);
        let pager = Pager::open_file(&path, 8).unwrap();
        assert_eq!(pager.page_count(), 24);
        for i in 0..24u32 {
            let got = pager.with_page(i, |p| p.get(0).unwrap().to_vec()).unwrap();
            assert_eq!(got, format!("p{i}").as_bytes());
        }
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&wal_p).unwrap();
    }
}
