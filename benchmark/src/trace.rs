//! The traced run: per-layer metrics, measured from outside the engine.
//!
//! Nothing inside the engine is instrumented and `ordxml_rdbms::trace`
//! stays off. A layer is timed by calling its public entry point, and a
//! layer's self time is the difference between its rung of the ladder and
//! the rung below:
//!
//! ```text
//! serve      Session::handle + Reply::write_to
//! pool       DocumentPool::xpath_parsed         (+ reconstruct: DocumentPool::serialize per hit)
//! store      XmlStore::xpath_parsed on the home shard
//! translate  translate::execute_full on a timed snapshot
//! db         every SqlRead::run_read the translation issues
//! ```
//!
//! Each read is executed once untimed and then replayed once per rung —
//! upwards on even ops, downwards on odd ones — so every rung is timed
//! equally warm: the ladder tells the layers' CPU costs apart and leaves
//! cold-cache costs to the counts.
//! Below `db` the engine cannot be decorated from outside; `btree`, `pager`
//! and `wal` are reported as exact counts from the engine's public counters
//! beside micro-measured unit costs.
//!
//! All counts come from fixed-count single-client passes over the seeded
//! script, so they repeat exactly for a given seed.

use crate::gen::{Rng, UPDATE_KINDS};
use crate::json::Json;
use crate::workload::{
    build_clients, check_pass, data_dir, documents, drive, finish, median, percentile, set_up,
    Client, Loaded, Outcome, Spec, SHARDS,
};
use ordxml::{translate, DocId, DocumentPool, Encoding, ExecutionMode, PositionStrategy};
use ordxml_rdbms::obs::{self, ObsSnapshot, WaitSite};
use ordxml_rdbms::storage::wal::FRAME_BYTES;
use ordxml_rdbms::storage::{wal_path, Pager, Wal, PAGE_SIZE};
use ordxml_rdbms::value::encode_key;
use ordxml_rdbms::{
    btree::BTree, governance, DbResult, DbSnapshot, ExecStats, QueryResult, SqlRead, Value,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::ops::Bound;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span. `parent` is the span that caused it; spans of one op
/// share `op`.
struct Span {
    parent: Option<u32>,
    op: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Spans are kept in memory and written out when the pass ends.
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.spans.push(Span {
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        self.spans.len() as u32 - 1
    }

    /// Ends a span whose id was reserved ahead of its parent's replay;
    /// returns its duration.
    fn close(&mut self, id: u32, start_ns: u64) -> u64 {
        let end_ns = self.now();
        let span = &mut self.spans[id as usize];
        (span.start_ns, span.end_ns) = (start_ns, end_ns);
        end_ns - start_ns
    }

    /// Times `f` as one span; returns its result, span id and duration.
    fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u32, u64) {
        let start = self.now();
        let result = f();
        let end = self.now();
        (result, self.push(name, parent, op, start, end), end - start)
    }

    fn write(&self, path: &Path, spec: &Spec, seed: u64) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"note\": \"each read is executed once untimed, then replayed once per rung (upwards on even ops, downwards on odd ones); a span's start and end are those of its own replay\", \"spans\": [",
            spec.name
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\": {id}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// A `SqlRead` that times every statement passing through it — the `db`
/// rung. Everything else is forwarded to the snapshot.
struct Timed<'a> {
    inner: &'a DbSnapshot,
    epoch: Instant,
    calls: RefCell<Vec<(u64, u64)>>,
}

impl SqlRead for Timed<'_> {
    fn run_read(&self, sql: &str, params: &[Value]) -> DbResult<QueryResult> {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let result = self.inner.run_read(sql, params);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.calls.borrow_mut().push((start, end));
        result
    }

    fn limits(&self) -> governance::Limits {
        self.inner.limits()
    }
}

/// Where each pool document lives: `(shard, id inside the shard's store)`.
/// The pool keeps this private, but it stores documents under a name that
/// carries the pool id, and each shard lists its documents.
fn inner_ids(pool: &DocumentPool) -> HashMap<DocId, (usize, i64)> {
    let mut map = HashMap::new();
    for shard in 0..pool.shard_count() {
        for (inner, name) in pool
            .shard(shard)
            .documents()
            .expect("shard lists documents")
        {
            let pool_id = name
                .strip_prefix("\u{1}pool\u{1}")
                .and_then(|rest| rest.split_once(':'))
                .and_then(|(id, _)| id.parse::<DocId>().ok());
            if let Some(id) = pool_id {
                map.insert(id, (shard, inner));
            }
        }
    }
    map
}

/// The engine's public counters, summed over shards.
#[derive(Default)]
struct Engine {
    exec: ExecStats,
    logical_reads: u64,
    physical_reads: u64,
    physical_writes: u64,
    obs: ObsSnapshot,
}

fn engine(pool: &DocumentPool) -> Engine {
    let mut exec = ExecStats::default();
    for shard in &pool.stats().shards {
        exec.merge(&shard.stats);
    }
    let (mut logical_reads, mut physical_reads, mut physical_writes) = (0, 0, 0);
    for shard in 0..pool.shard_count() {
        let pager = pool.shard(shard).db().pager_stats().full();
        logical_reads += pager.logical_reads;
        physical_reads += pager.physical_reads;
        physical_writes += pager.physical_writes;
    }
    Engine {
        exec,
        logical_reads,
        physical_reads,
        physical_writes,
        obs: obs::snapshot(),
    }
}

/// What one fixed-count pass saw: latencies, and the engine's counters
/// before and after exactly that pass.
#[derive(Default)]
struct Counts {
    ops: u64,
    hits: u64,
    latencies: Vec<u32>,
    update_ns: [u64; 4],
    update_n: [u64; 4],
    relabeled: u64,
    checkpoints: u64,
    /// `(hits, misses)` of the session's prepared-XPath cache.
    xpath_cache: (u64, u64),
    before: Engine,
    after: Engine,
}

impl Counts {
    /// How far one engine counter moved over the pass.
    fn delta(&self, counter: impl Fn(&Engine) -> u64) -> u64 {
        counter(&self.after) - counter(&self.before)
    }

    fn per_op(&self, n: u64) -> f64 {
        n as f64 / self.ops.max(1) as f64
    }

    fn p50_ms(&self) -> f64 {
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        percentile(&sorted, 0.5) / 1e6
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Runs the next `n` ops of `client`'s stream, one at a time, untraced.
fn count_pass(client: &mut Client, n: usize) -> Counts {
    let pool = client.pool.clone();
    let frames_in_log = |pool: &DocumentPool| -> Vec<u64> {
        (0..pool.shard_count())
            .map(|s| pool.shard(s).db().wal_frames_in_log())
            .collect()
    };
    let mut log = frames_in_log(&pool);
    let mut counts = Counts {
        before: engine(&pool),
        ..Counts::default()
    };
    let cache_before = client.session.plan_cache_stats();
    for _ in 0..n {
        let done = client.step();
        counts.ops += 1;
        counts.hits += done.hits as u64;
        counts
            .latencies
            .push(done.nanos.min(u64::from(u32::MAX)) as u32);
        if let Some(kind) = done.update_kind {
            counts.update_ns[kind] += done.nanos;
            counts.update_n[kind] += 1;
            counts.relabeled += done.cost.relabeled;
            // A checkpoint empties the log: it shows as a shorter log.
            let now = frames_in_log(&pool);
            counts.checkpoints += now.iter().zip(&log).filter(|(n, l)| n < l).count() as u64;
            log = now;
        }
    }
    counts.after = engine(&pool);
    let cache_after = client.session.plan_cache_stats();
    counts.xpath_cache = (
        cache_after.0 - cache_before.0,
        cache_after.1 - cache_before.1,
    );
    counts
}

/// Time per rung, summed over the ladder pass.
#[derive(Default)]
struct Ladder {
    reads: u64,
    top: Vec<u32>,
    top_ns: u64,
    parse_ns: u64,
    parse_charged_ns: u64,
    pool_ns: u64,
    store_ns: u64,
    translate_ns: u64,
    db_ns: u64,
    statements: u64,
    reconstruct_ns: u64,
    hits: u64,
}

/// Replays the next read of `client` on every rung of the ladder; the top
/// rung is the real request through the session, which advances the script.
fn ladder_read(
    client: &mut Client,
    homes: &HashMap<DocId, (usize, i64)>,
    rec: &mut Recorder,
    acc: &mut Ladder,
    op: u32,
) {
    let next = &client.script[client.cursor];
    let expr = next.expr().to_string();
    let doc = next.doc;
    let (shard, inner) = homes[&doc];
    let pool = client.pool.clone();
    let store = pool.shard(shard).clone();
    // One untimed execution first, so that every timed replay finds the
    // caches as an identical request just left them. What drift is left
    // from one replay to the next is cancelled by walking the ladder
    // upwards on even ops and downwards on odd ones: on a large op that
    // drift is bigger than the thin layers being told apart.
    let path = ordxml::xpath::parse(&expr).expect("scripted XPath parses");
    for hit in &pool.xpath_parsed(doc, &path).expect("pool query runs") {
        pool.serialize(doc, hit).expect("hit serializes");
    }
    // A span's parent may run after it, so ids are reserved top-down.
    let serve_id = rec.push("serve", None, op, 0, 0);
    let pool_id = rec.push("pool", Some(serve_id), op, 0, 0);
    let store_id = rec.push("store", Some(pool_id), op, 0, 0);
    let (_, _, parse_ns) = rec.time("xpath.parse", Some(serve_id), op, || {
        ordxml::xpath::parse(&expr).expect("scripted XPath parses")
    });
    let (mut top_ns, mut pool_ns, mut store_ns, mut translate_ns) = (0, 0, 0, 0);
    let (mut db_ns, mut statements, mut reconstruct_ns, mut hit_count) = (0, 0, 0, 0);
    let mut parse_charged = 0;
    let rungs = if op.is_multiple_of(2) {
        [3, 2, 1, 0]
    } else {
        [0, 1, 2, 3]
    };
    for rung in rungs {
        match rung {
            3 => {
                let snapshot = store.db().snapshot();
                let timed = Timed {
                    inner: &snapshot,
                    epoch: rec.epoch,
                    calls: RefCell::new(Vec::new()),
                };
                // The store runs the translation inside one governance
                // scope, under which the statements' own scopes are no-ops.
                // Entering it is the store's work, not the translation's.
                let _scope = governance::Scope::enter(snapshot.limits());
                let (_, translate_id, ns) = rec.time("translate", Some(store_id), op, || {
                    translate::execute_full(
                        &timed,
                        Encoding::Dewey,
                        inner,
                        &path,
                        PositionStrategy::default(),
                        ExecutionMode::default(),
                    )
                    .expect("translation runs")
                });
                translate_ns = ns;
                let calls = timed.calls.into_inner();
                db_ns = calls.iter().map(|(s, e)| e - s).sum();
                statements = calls.len() as u64;
                for (start, end) in calls {
                    rec.push("db", Some(translate_id), op, start, end);
                }
            }
            2 => {
                let start = rec.now();
                store.xpath_parsed(inner, &path).expect("store query runs");
                store_ns = rec.close(store_id, start);
            }
            1 => {
                let start = rec.now();
                let hits = pool.xpath_parsed(doc, &path).expect("pool query runs");
                pool_ns = rec.close(pool_id, start);
                hit_count = hits.len() as u64;
                reconstruct_ns = rec
                    .time("reconstruct", Some(serve_id), op, || {
                        for hit in &hits {
                            pool.serialize(doc, hit).expect("hit serializes");
                        }
                    })
                    .2;
            }
            _ => {
                let misses = client.session.plan_cache_stats().1;
                let start = rec.now();
                client.step();
                top_ns = rec.close(serve_id, start);
                // The session parses only on a miss of its XPath cache.
                if client.session.plan_cache_stats().1 > misses {
                    parse_charged = parse_ns;
                }
            }
        }
    }
    acc.reads += 1;
    acc.top.push(top_ns.min(u64::from(u32::MAX)) as u32);
    acc.top_ns += top_ns;
    acc.parse_ns += parse_ns;
    acc.parse_charged_ns += parse_charged;
    acc.pool_ns += pool_ns;
    acc.store_ns += store_ns;
    acc.translate_ns += translate_ns;
    acc.db_ns += db_ns;
    acc.statements += statements;
    acc.reconstruct_ns += reconstruct_ns;
    acc.hits += hit_count;
}

/// The ladder pass: `n` ops of `client`'s stream with spans recorded.
/// Updates cannot be replayed, so each is one span at the pool.
fn ladder_pass(client: &mut Client, n: usize, rec: &mut Recorder) -> Ladder {
    let homes = inner_ids(&client.pool);
    let mut acc = Ladder::default();
    for op in 0..n as u32 {
        if client.next_is_update() {
            let (done, id, _) = rec.time("update", None, op, || client.step());
            let kind = done.update_kind.expect("an update was due");
            rec.spans[id as usize].name = UPDATE_SPANS[kind];
        } else {
            ladder_read(client, &homes, rec, &mut acc, op);
        }
    }
    acc
}

const UPDATE_SPANS: [&str; 4] = [
    "update.insert",
    "update.delete",
    "update.text",
    "update.move",
];

/// Mean cost of a B+tree seek and insert on Dewey-shaped keys — `(doc,
/// key)` with four components spaced by the default gap — in a tree of
/// `keys` entries, the size of one shard's primary index.
fn btree_micro(keys: u64, rng: &mut Rng) -> (f64, f64) {
    const PROBES: u64 = 20_000;
    let key = |i: u64, odd: u64| {
        let dewey = ordxml::DeweyKey::new(vec![
            1,
            32 * (1 + i / 40),
            32 * (1 + i % 40 / 4),
            32 * (1 + i % 4) + odd,
        ]);
        encode_key(&[Value::Int(1), Value::Bytes(dewey.to_bytes())])
    };
    let mut tree = BTree::new();
    for i in 0..keys {
        tree.insert(&key(i, 0), i);
    }
    let probes: Vec<Vec<u8>> = (0..PROBES).map(|_| key(rng.next() % keys, 0)).collect();
    let fresh: Vec<Vec<u8>> = (0..PROBES)
        .map(|_| key(rng.next() % keys, 1 + rng.next() % 31))
        .collect();
    let started = Instant::now();
    let mut found = 0u64;
    for probe in &probes {
        found += tree
            .range(Bound::Included(probe.as_slice()), Bound::Unbounded)
            .next()
            .map_or(0, |(_, v)| v);
    }
    let seek_ns = started.elapsed().as_nanos() as f64 / PROBES as f64;
    std::hint::black_box(found);
    let started = Instant::now();
    for (i, k) in fresh.iter().enumerate() {
        tree.insert(k, i as u64);
    }
    let insert_ns = started.elapsed().as_nanos() as f64 / PROBES as f64;
    std::hint::black_box(tree.len());
    (seek_ns, insert_ns)
}

/// Mean cost of a page read that hits and of one that misses, on a
/// standalone file pager with the smallest cache.
fn pager_micro(dir: &Path) -> DbResult<(f64, f64)> {
    const PAGES: u32 = 64;
    const ROUNDS: u32 = 40;
    let pager = Pager::open_file(&dir.join("micro-pager.db"), 8)?;
    for _ in 0..PAGES {
        let id = pager.allocate()?;
        pager.with_page_mut(id, |p| p.insert(b"benchmark"))?;
    }
    pager.flush()?;
    pager.with_page(0, |_| ())?;
    let started = Instant::now();
    for _ in 0..PAGES * ROUNDS {
        pager.with_page(0, |p| std::hint::black_box(p.live_count()))?;
    }
    let hit_ns = started.elapsed().as_nanos() as f64 / f64::from(PAGES * ROUNDS);
    // Cycling through eight times more pages than frames: every read misses.
    let misses_before = pager.stats().full().physical_reads;
    let started = Instant::now();
    for _ in 0..ROUNDS {
        for id in 0..PAGES {
            pager.with_page(id, |p| std::hint::black_box(p.live_count()))?;
        }
    }
    let elapsed = started.elapsed().as_nanos() as f64;
    let misses = pager.stats().full().physical_reads - misses_before;
    let hits = u64::from(PAGES * ROUNDS) - misses;
    let miss_ns = if misses == 0 {
        0.0
    } else {
        (elapsed - hits as f64 * hit_ns).max(0.0) / misses as f64
    };
    Ok((hit_ns, miss_ns))
}

/// Median cost of one WAL transaction of `frames` dirtied pages:
/// `begin_txn`, `with_page_mut` per page, `commit_txn` with its fsync.
fn wal_micro(dir: &Path, frames: u32) -> DbResult<f64> {
    const COMMITS: usize = 40;
    let db = dir.join("micro-wal.db");
    let pager = Pager::open_file(&db, 64)?;
    pager.attach_wal(Wal::open(&wal_path(&db))?);
    pager.begin_txn()?;
    for _ in 0..frames {
        pager.allocate()?;
    }
    pager.commit_txn()?;
    let mut micros = Vec::with_capacity(COMMITS);
    for _ in 0..COMMITS {
        let started = Instant::now();
        pager.begin_txn()?;
        for id in 0..frames {
            pager.with_page_mut(id, |p| p.insert(b"benchmark"))?;
        }
        pager.commit_txn()?;
        micros.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(median(&mut micros))
}

/// Generates the documents, loads them under `enc`, and builds the clients
/// — the same inputs for every encoding, since all come from `seed` alone.
fn prepare(spec: &Spec, seed: u64, dir: &Path, enc: Encoding) -> (Loaded, Vec<Client>) {
    let mut rng = Rng::new(seed);
    let docs = documents(spec, &mut rng);
    let loaded = set_up(spec, dir, &docs, enc).expect("set-up succeeds");
    let mut clients = build_clients(spec, &loaded.pool, &loaded.ids, docs, &mut rng);
    check_pass(spec, &mut clients);
    (loaded, clients)
}

/// Warm pass, then count pass, of client 0 over the same stretch of its
/// read script.
fn warm_and_count(spec: &Spec, clients: &mut [Client]) -> Counts {
    count_pass(&mut clients[0], spec.traced_ops);
    clients[0].cursor = 0;
    count_pass(&mut clients[0], spec.traced_ops)
}

type Metric = (String, f64, &'static str);

/// The per-layer metrics, in the order the phases produce them.
/// `BENCHMARK.json` lists the same names and units under `per_layer`.
struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push((name.into(), value, unit));
    }
}

/// The traced run of one workload. `window` bounds the two-client phase
/// that measures latch waits; every other phase is a fixed op count.
pub fn run(spec: &Spec, seed: u64, window: Duration, out: &Path) -> Outcome {
    // `(attempted, failed, failure lines)` over all three pools.
    let mut tally = (0u64, 0u64, Vec::new());
    let mut add = |(attempted, failed, lines): (u64, u64, Vec<String>)| {
        tally.0 += attempted;
        tally.1 += failed;
        tally.2.extend(lines);
    };
    let mut m = Metrics(Vec::new());

    // Dewey: warm pass, count pass, ladder pass, then two clients for the
    // latch waits.
    let dir = data_dir(out, spec, "trace-dewey");
    let (loaded, mut clients) = prepare(spec, seed, &dir, Encoding::Dewey);
    m.put(
        "shred.rows_per_s",
        "1/s",
        loaded.rows as f64 / loaded.seconds,
    );
    let counts = warm_and_count(spec, &mut clients);
    clients[0].cursor = 0;
    let mut rec = Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mut ladder = ladder_pass(&mut clients[0], spec.traced_ops, &mut rec);
    ladder.top.sort_unstable();
    let trace_file = out.join(format!("trace.{}.json", spec.name));
    rec.write(&trace_file, spec, seed)
        .expect("the trace file is writable");

    let reads = ladder.reads.max(1) as f64;
    let us_per_read = |ns: u64| ns as f64 / 1e3 / reads;
    // A layer's self time is its rung minus the rungs it calls. The
    // differences are taken on the pass totals and never go negative: a
    // replay can come in under the rung below it by the timer's resolution
    // or by a cache the lower replay warmed.
    let serve_self = ladder
        .top_ns
        .saturating_sub(ladder.pool_ns + ladder.reconstruct_ns + ladder.parse_charged_ns);
    let pool_self = ladder.pool_ns.saturating_sub(ladder.store_ns);
    let store_self = ladder.store_ns.saturating_sub(ladder.translate_ns);
    let translate_self = ladder.translate_ns.saturating_sub(ladder.db_ns);
    let self_sum = serve_self
        + ladder.parse_charged_ns
        + pool_self
        + store_self
        + translate_self
        + ladder.db_ns
        + ladder.reconstruct_ns;
    m.put("ladder.op_us", "us/op", us_per_read(ladder.top_ns));
    m.put("ladder.coverage", "ratio", ratio(self_sum, ladder.top_ns));
    let untraced_p50 = counts.p50_ms();
    m.put(
        "trace_overhead_pct",
        "%",
        if ladder.reads == 0 || untraced_p50 == 0.0 {
            0.0
        } else {
            (percentile(&ladder.top, 0.5) / 1e6 / untraced_p50 - 1.0) * 100.0
        },
    );
    m.put("serve.self_us_per_op", "us/op", us_per_read(serve_self));
    m.put(
        "serve.xpath_cache_hit_rate",
        "ratio",
        ratio(
            counts.xpath_cache.0,
            counts.xpath_cache.0 + counts.xpath_cache.1,
        ),
    );
    m.put("pool.self_us_per_op", "us/op", us_per_read(pool_self));
    m.put("store.self_us_per_op", "us/op", us_per_read(store_self));
    m.put(
        "xpath.parse_us_per_op",
        "us/op",
        us_per_read(ladder.parse_ns),
    );
    m.put(
        "translate.self_us_per_op",
        "us/op",
        us_per_read(translate_self),
    );
    m.put(
        "translate.statements_per_op",
        "count",
        ladder.statements as f64 / reads,
    );
    m.put("db.us_per_op", "us/op", us_per_read(ladder.db_ns));
    m.put(
        "db.us_per_statement",
        "us",
        ladder.db_ns as f64 / 1e3 / ladder.statements.max(1) as f64,
    );
    m.put(
        "db.share_of_op",
        "ratio",
        ratio(ladder.db_ns, ladder.top_ns),
    );
    m.put(
        "db.rows_examined_per_hit",
        "count",
        ratio(counts.delta(|e| e.exec.rows_scanned), counts.hits),
    );
    m.put(
        "db.plan_cache_hit_rate",
        "ratio",
        ratio(
            counts.delta(|e| e.obs.plan_cache_hits),
            counts.delta(|e| e.obs.plan_cache_hits + e.obs.plan_cache_misses),
        ),
    );
    m.put(
        "reconstruct.us_per_hit",
        "us",
        ladder.reconstruct_ns as f64 / 1e3 / ladder.hits.max(1) as f64,
    );
    let descents = counts.delta(|e| e.exec.btree_descents);
    let descent_reuses = counts.delta(|e| e.exec.btree_descent_reuses);
    m.put("btree.descents_per_op", "count", counts.per_op(descents));
    m.put(
        "btree.descent_reuse_rate",
        "ratio",
        ratio(descent_reuses, descents + descent_reuses),
    );
    let logical_reads = counts.delta(|e| e.logical_reads);
    let physical_reads = counts.delta(|e| e.physical_reads);
    m.put(
        "pager.logical_reads_per_op",
        "count",
        counts.per_op(logical_reads),
    );
    m.put(
        "pager.physical_reads_per_op",
        "count",
        counts.per_op(physical_reads),
    );
    m.put(
        "pager.hit_rate",
        "ratio",
        1.0 - ratio(physical_reads, logical_reads),
    );
    let wal_frames = counts.delta(|e| e.obs.wal_frames_written);
    let frames_per_commit = ratio(wal_frames, counts.delta(|e| e.obs.txn_commits));
    m.put("wal.frames_per_commit", "count", frames_per_commit);
    // Bytes written to storage: WAL frames at commit, pages at checkpoint.
    m.put(
        "wal.bytes_per_op",
        "B/op",
        counts.per_op(
            wal_frames * FRAME_BYTES as u64
                + counts.delta(|e| e.physical_writes) * PAGE_SIZE as u64,
        ),
    );
    m.put("wal.checkpoints", "count", counts.checkpoints as f64);
    for (kind, name) in UPDATE_KINDS.iter().enumerate() {
        m.put(
            format!("update.us_per_op.{name}"),
            "us/op",
            counts.update_ns[kind] as f64 / 1e3 / counts.update_n[kind].max(1) as f64,
        );
    }
    let updates: u64 = counts.update_n.iter().sum();
    m.put(
        "update.relabeled_rows_per_op",
        "count",
        ratio(counts.relabeled, updates),
    );
    let enc_metrics = |enc: Encoding, c: &Counts| {
        let prefix = format!("enc.{}", enc.name());
        [
            (format!("{prefix}.p50_ms"), "ms", c.p50_ms()),
            (
                format!("{prefix}.statements_per_op"),
                "count",
                c.per_op(c.delta(|e| e.obs.statements)),
            ),
            (
                format!("{prefix}.rows_examined_per_op"),
                "count",
                c.per_op(c.delta(|e| e.exec.rows_scanned)),
            ),
            (
                format!("{prefix}.relabeled_rows_per_op"),
                "count",
                ratio(c.relabeled, c.update_n.iter().sum()),
            ),
        ]
    };
    for (name, unit, value) in enc_metrics(Encoding::Dewey, &counts) {
        m.put(name, unit, value);
    }

    // Latch waits: both clients, a short warm-up, then half the window.
    drive(&mut clients, Duration::from_secs(1).min(window / 4), 1);
    let before = obs::snapshot();
    let timed = drive(&mut clients, window / 2, 1);
    let after = obs::snapshot();
    for site in WaitSite::ALL {
        m.put(
            format!("latch.waits.{}", site.name()),
            "count",
            (after.lock_waits_at(site) - before.lock_waits_at(site)) as f64,
        );
        m.put(
            format!("latch.wait_ms.{}", site.name()),
            "ms",
            (after.wait_latency_at(site).total - before.wait_latency_at(site).total).as_secs_f64()
                * 1e3,
        );
    }
    let latch_window_ops = timed.iter().map(Vec::len).sum::<usize>() as u64;
    let rows = loaded.rows;
    add(finish(spec, clients, loaded.pool, &dir));

    // The same fixed script under the other two encodings.
    for enc in [Encoding::Global, Encoding::Local] {
        let dir = data_dir(out, spec, &format!("trace-{}", enc.name()));
        let (loaded, mut clients) = prepare(spec, seed, &dir, enc);
        let counts = warm_and_count(spec, &mut clients);
        for (name, unit, value) in enc_metrics(enc, &counts) {
            m.put(name, unit, value);
        }
        add(finish(spec, clients, loaded.pool, &dir));
    }

    // Unit costs, on standalone structures of the workload's size.
    let micro_dir = data_dir(out, spec, "trace-micro");
    std::fs::create_dir_all(&micro_dir).expect("the micro directory is creatable");
    let (seek_ns, insert_ns) = btree_micro(rows / SHARDS as u64, &mut Rng::new(seed));
    m.put("btree.seek_ns", "ns", seek_ns);
    m.put("btree.insert_ns", "ns", insert_ns);
    let (hit_ns, miss_ns) = pager_micro(&micro_dir).expect("the pager micro-benchmark runs");
    m.put("pager.hit_ns", "ns", hit_ns);
    m.put("pager.miss_ns", "ns", miss_ns);
    let frames = (frames_per_commit.round() as u32).max(1);
    m.put(
        "wal.commit_us",
        "us",
        wal_micro(&micro_dir, frames).expect("the WAL micro-benchmark runs"),
    );
    let _ = std::fs::remove_dir_all(&micro_dir);

    Outcome {
        attempted: tally.0,
        failed: tally.1,
        failures: tally.2,
        metrics: m.0,
        diagnostics: Json::obj([
            ("traced_ops", Json::from(spec.traced_ops as u64)),
            ("ladder_reads", Json::from(ladder.reads)),
            ("ladder_spans", Json::from(rec.spans.len() as u64)),
            ("trace_file", Json::str(trace_file.display().to_string())),
            ("untraced_p50_ms", Json::from(untraced_p50)),
            ("latch_window_s", Json::from((window / 2).as_secs_f64())),
            ("latch_window_ops", Json::from(latch_window_ops)),
            (
                "estimates",
                Json::str(
                    "btree, pager and wal have no span of their own: their counts are exact, \
                     their unit costs are micro-measured, and count times unit cost is an estimate",
                ),
            ),
        ]),
    }
}
