//! The five serving workloads: set-up on the durable backend, the closed
//! loop of client sessions, oracle checking, and the end-to-end metrics.

use crate::compare::END_TO_END;
use crate::gen::{self, Mix, Rng, Update};
use crate::host;
use crate::json::Json;
use ordxml::naive::{DomNode, NaiveEvaluator};
use ordxml::{DocId, DocumentPool, Encoding, Session, Status, StoreResult, UpdateCost};
use ordxml_xml::{Document, NodePath};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Closed-loop client threads. The reference host has two cores; more
/// clients than cores would measure the scheduler.
pub const CLIENTS: usize = 2;
/// Shards of every pool.
pub const SHARDS: usize = 2;
/// The timed window is cut into this many slices; throughput and latency
/// percentiles are taken per slice and the median slice is reported, so a
/// burst of interference from a neighbour on the host moves one slice, not
/// the result.
pub const SLICES: usize = 5;
/// Set-up is repeated on an empty directory and the median reported: at
/// least three times, and for small data sets until about this much time
/// has gone into it, at most nine times.
pub const SETUP_BUDGET: Duration = Duration::from_millis(1500);
/// Warm-up before the timed window: fills plan, session and page caches.
pub const WARMUP: Duration = Duration::from_secs(2);

/// Sizes and mix of one workload. `BENCHMARK.json` records why each exists.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Documents loaded at set-up, and items per document.
    pub docs: usize,
    pub items: usize,
    /// Page-cache frames per shard.
    pub cache_pages: usize,
    /// Read mix, if the workload reads.
    pub mix: Option<Mix>,
    /// Reads in each client's script; the script is cycled.
    pub script_len: usize,
    /// A `.use` of a uniformly chosen document precedes every n-th read.
    pub use_every: usize,
    /// Share of ops that are ordered updates, in percent.
    pub write_pct: usize,
    /// Document `i` must live on shard `i % SHARDS` (writers that never
    /// share a write latch).
    pub one_doc_per_shard: bool,
    /// Ops in each fixed-count pass of the traced run.
    pub traced_ops: usize,
}

pub const NAMES: [&str; 5] = [
    "read.point",
    "read.scan",
    "read.ordered",
    "write.ordered",
    "mixed.rw",
];

/// The workload called `name`; `toy` shrinks it for the self-test.
pub fn spec(name: &str, toy: bool) -> Option<Spec> {
    let base = Spec {
        name: "",
        docs: 0,
        items: 0,
        cache_pages: 4096,
        mix: None,
        script_len: 0,
        use_every: 8,
        write_pct: 0,
        one_doc_per_shard: false,
        traced_ops: 0,
    };
    let full = match name {
        "read.point" => Spec {
            name: "read.point",
            docs: 64,
            items: 25,
            mix: Some(Mix::Point),
            script_len: 8192,
            traced_ops: 2000,
            ..base
        },
        "read.scan" => Spec {
            name: "read.scan",
            docs: 24,
            items: 1000,
            cache_pages: 64,
            mix: Some(Mix::Scan),
            script_len: 256,
            use_every: 1,
            traced_ops: 60,
            ..base
        },
        "read.ordered" => Spec {
            name: "read.ordered",
            docs: 16,
            items: 150,
            mix: Some(Mix::Ordered),
            script_len: 2048,
            traced_ops: 300,
            ..base
        },
        "write.ordered" => Spec {
            name: "write.ordered",
            docs: SHARDS,
            items: 500,
            write_pct: 100,
            one_doc_per_shard: true,
            traced_ops: 400,
            ..base
        },
        "mixed.rw" => Spec {
            name: "mixed.rw",
            docs: 64,
            items: 200,
            mix: Some(Mix::PointAndScan),
            script_len: 1024,
            write_pct: 10,
            traced_ops: 500,
            ..base
        },
        _ => return None,
    };
    Some(if toy {
        Spec {
            docs: full.docs.min(4),
            items: (full.items / 8).clamp(16, 48),
            cache_pages: full.cache_pages.min(8),
            script_len: full.script_len.min(48),
            traced_ops: 24,
            ..full
        }
    } else {
        full
    })
}

/// A loaded pool and what loading it cost.
pub struct Loaded {
    pub pool: Arc<DocumentPool>,
    /// Pool id of each generated document, in generation order.
    pub ids: Vec<DocId>,
    pub seconds: f64,
    pub rows: u64,
}

/// Empty directory to servable pool: open, shred and load every document,
/// one WAL transaction per document.
pub fn set_up(spec: &Spec, dir: &Path, docs: &[Document], enc: Encoding) -> StoreResult<Loaded> {
    let _ = std::fs::remove_dir_all(dir);
    let started = Instant::now();
    let pool = DocumentPool::open(dir, SHARDS, enc, spec.cache_pages)?;
    let mut ids = Vec::with_capacity(docs.len());
    // A fresh pool hands out ids 1, 2, 3, ... and routes by id alone.
    let mut next_id: DocId = 1;
    for (i, doc) in docs.iter().enumerate() {
        if spec.one_doc_per_shard {
            while pool.shard_of(next_id) != i % SHARDS {
                pool.load(&Document::new("pad"), "pad")?;
                next_id += 1;
            }
        }
        ids.push(pool.load(doc, &format!("doc{i}"))?);
        next_id += 1;
    }
    Ok(Loaded {
        seconds: started.elapsed().as_secs_f64(),
        pool: Arc::new(pool),
        ids,
        rows: docs.iter().map(gen::row_count).sum(),
    })
}

/// Bytes of every file under `dir`: the shard databases and their WALs.
pub fn stored_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// What the oracle says a read must return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub hits: usize,
    pub hash: u64,
}

/// FNV-1a over payload lines — the reply is compared by hit count and this
/// digest, so the expectation table stays small next to the data.
pub fn digest(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines
        .iter()
        .flat_map(|l| l.bytes().chain(std::iter::once(b'\n')))
    {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Evaluates `expr` on the source DOM with the naive evaluator and renders
/// each hit the way the wire does: XML for elements, the value otherwise.
pub fn oracle(doc: &Document, eval: &NaiveEvaluator<'_>, expr: &str) -> Expect {
    let path = ordxml::xpath::parse(expr).expect("generated XPath parses");
    let lines: Vec<String> = eval
        .eval(&path)
        .into_iter()
        .map(|hit| match hit {
            DomNode::Node(id) if doc.node(id).kind().is_element() => doc.subtree_to_xml(id),
            other => other.value(doc).unwrap_or_default(),
        })
        .collect();
    Expect {
        hits: lines.len(),
        hash: digest(&lines),
    }
}

/// One scripted read: an optional `.use` line, then the request line.
pub struct ReadOp {
    pub use_line: Option<String>,
    pub line: String,
    /// Pool id of the addressed document.
    pub doc: DocId,
    pub expect: Expect,
}

impl ReadOp {
    /// The bare XPath expression of the request line.
    pub fn expr(&self) -> &str {
        &self.line["xpath ".len()..]
    }
}

/// A document one client updates, with the DOM mirror it must stay equal to.
pub struct Owned {
    pub id: DocId,
    pub mirror: Document,
    serial: u64,
}

/// What one op did.
pub struct Done {
    /// `None` for a read, else the index into [`gen::UPDATE_KINDS`].
    pub update_kind: Option<usize>,
    pub nanos: u64,
    pub hits: usize,
    pub cost: UpdateCost,
}

/// One closed-loop client: a wire session, its read script, and the
/// documents it owns for updates.
pub struct Client {
    workload: &'static str,
    pub pool: Arc<DocumentPool>,
    pub session: Session,
    pub script: Vec<ReadOp>,
    pub cursor: usize,
    rng: Rng,
    write_pct: usize,
    steps: usize,
    pub owned: Vec<Owned>,
    sink: Vec<u8>,
    /// Compare every read with the oracle's expectation. Off once updates
    /// may have changed the documents under the script.
    pub verify: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Client {
    fn fail(&mut self, request: &str, detail: &str) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(format!(
                "check: FAIL {} {request} ({detail})",
                self.workload
            ));
        }
    }

    /// Sends one line through the whole wire path except the socket.
    pub fn send(session: &mut Session, sink: &mut Vec<u8>, line: &str) -> ordxml::Reply {
        let reply = session.handle(line);
        sink.clear();
        reply.write_to(sink).expect("writing to a Vec cannot fail");
        reply
    }

    /// The next scripted read.
    pub fn read(&mut self) -> Done {
        let op = &self.script[self.cursor];
        self.cursor = (self.cursor + 1) % self.script.len();
        let started = Instant::now();
        let used = op
            .use_line
            .as_ref()
            .map(|line| Client::send(&mut self.session, &mut self.sink, line));
        let reply = Client::send(&mut self.session, &mut self.sink, &op.line);
        let nanos = started.elapsed().as_nanos() as u64;
        self.attempted += 1;
        let hits = reply.lines.len();
        let problem = if used.is_some_and(|r| !matches!(r.status, Status::Ok(_))) {
            Some("the .use before it failed".to_string())
        } else if let Status::Err { code, message } = &reply.status {
            Some(format!("err {code}: {message}"))
        } else if self.verify && hits != op.expect.hits {
            Some(format!("{hits} hits, oracle has {}", op.expect.hits))
        } else if self.verify && digest(&reply.lines) != op.expect.hash {
            Some("payload differs from the oracle's".to_string())
        } else {
            None
        };
        if let Some(detail) = problem {
            let request = format!("doc {} {}", op.doc, op.line);
            self.fail(&request, &detail);
        }
        Done {
            update_kind: None,
            nanos,
            hits,
            cost: UpdateCost::default(),
        }
    }

    /// The next ordered update on one of this client's documents. Updates
    /// have no wire command, so they enter at the pool.
    pub fn update(&mut self) -> Done {
        let pick = self.rng.below(self.owned.len());
        let owned = &mut self.owned[pick];
        let items = owned.mirror.children(owned.mirror.root()).len();
        let update = gen::next_update(items, owned.serial, &mut self.rng);
        owned.serial += 1;
        let root = NodePath::root();
        let started = Instant::now();
        let result = match &update {
            Update::Insert { index, fragment } => {
                self.pool.insert_fragment(owned.id, &root, *index, fragment)
            }
            Update::Delete { index } => self.pool.delete_subtree(owned.id, &root.child(*index)),
            Update::Text { index, text } => {
                self.pool
                    .update_text(owned.id, &NodePath(vec![*index, 0, 0]), text)
            }
            Update::Move { from, to } => {
                self.pool
                    .move_subtree(owned.id, &root.child(*from), &root, *to)
            }
        };
        let nanos = started.elapsed().as_nanos() as u64;
        self.attempted += 1;
        let cost = match result {
            Ok(cost) => {
                update.apply(&mut owned.mirror);
                cost
            }
            Err(e) => {
                let request = format!("doc {} {update:?}", owned.id);
                self.fail(&request, &e.to_string());
                UpdateCost::default()
            }
        };
        Done {
            update_kind: Some(update.kind()),
            nanos,
            hits: 0,
            cost,
        }
    }

    /// Whether the next [`Client::step`] is an update.
    pub fn next_is_update(&self) -> bool {
        self.write_pct > 0 && (self.steps + 1).is_multiple_of(100 / self.write_pct)
    }

    /// The next op of this client's stream. Updates come at a fixed
    /// stride (every tenth op at 10%), not at random, so every slice of a
    /// window holds the same share of them.
    pub fn step(&mut self) -> Done {
        let update = self.next_is_update();
        self.steps += 1;
        if update {
            self.update()
        } else {
            self.read()
        }
    }
}

/// Builds the clients: their scripts (checked against the oracle as they
/// are generated) and the mirrors of the documents they update.
pub fn build_clients(
    spec: &Spec,
    pool: &Arc<DocumentPool>,
    ids: &[DocId],
    docs: Vec<Document>,
    rng: &mut Rng,
) -> Vec<Client> {
    let evaluators: Vec<NaiveEvaluator<'_>> = match spec.mix {
        Some(_) => docs.iter().map(NaiveEvaluator::new).collect(),
        None => Vec::new(),
    };
    let mut expected: HashMap<(usize, String), Expect> = HashMap::new();
    let mut scripts = Vec::new();
    for _ in 0..CLIENTS {
        let mut rng = rng.fork();
        let mut script = Vec::new();
        let mut doc = 0;
        if let Some(mix) = spec.mix {
            for n in 0..spec.script_len {
                let use_line = (n % spec.use_every == 0).then(|| {
                    doc = rng.below(docs.len());
                    format!(".use {}", ids[doc])
                });
                let expr = gen::read_expr(mix, spec.items, n, &mut rng);
                let expect = *expected
                    .entry((doc, expr.clone()))
                    .or_insert_with(|| oracle(&docs[doc], &evaluators[doc], &expr));
                script.push(ReadOp {
                    use_line,
                    line: format!("xpath {expr}"),
                    doc: ids[doc],
                    expect,
                });
            }
        }
        scripts.push((script, rng));
    }
    drop(evaluators);
    let mut owned: Vec<Vec<Owned>> = (0..CLIENTS).map(|_| Vec::new()).collect();
    if spec.write_pct > 0 {
        for (i, mirror) in docs.into_iter().enumerate() {
            // One writer per document: shard i on write.ordered, id parity
            // otherwise.
            let owner = if spec.one_doc_per_shard {
                i % CLIENTS
            } else {
                ids[i] as usize % CLIENTS
            };
            owned[owner].push(Owned {
                id: ids[i],
                mirror,
                serial: 0,
            });
        }
    }
    scripts
        .into_iter()
        .zip(owned)
        .map(|((script, rng), owned)| Client {
            workload: spec.name,
            pool: Arc::clone(pool),
            session: Session::new(Arc::clone(pool)),
            script,
            cursor: 0,
            rng,
            write_pct: spec.write_pct,
            steps: 0,
            owned,
            sink: Vec::new(),
            verify: true,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        })
        .collect()
}

/// Runs every client's whole read script once with oracle checking on.
/// On workloads that update, this is the only time payloads can be checked
/// against the source DOM, so it runs before the first update; `verify`
/// then stays on only where nothing ever changes the documents.
pub fn check_pass(spec: &Spec, clients: &mut [Client]) {
    if spec.write_pct == 0 {
        return;
    }
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            scope.spawn(move || {
                for _ in 0..client.script.len() {
                    client.read();
                }
                client.verify = false;
            });
        }
    });
}

/// Latencies in nanoseconds of the ops that completed in each slice.
pub type Slices = Vec<Vec<u32>>;

/// Runs all clients in a closed loop for `duration`, each on its own
/// thread, and returns the latencies of completed ops by slice. A client
/// thread that panics counts as one failed op.
pub fn drive(clients: &mut [Client], duration: Duration, slices: usize) -> Slices {
    let barrier = Barrier::new(clients.len());
    let slice_ns = (duration.as_nanos() as u64 / slices as u64).max(1);
    let mut merged: Slices = vec![Vec::new(); slices];
    let mut panicked = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut lat: Slices = vec![Vec::new(); slices];
                    barrier.wait();
                    let started = Instant::now();
                    loop {
                        let done = client.step();
                        let at = started.elapsed();
                        if at >= duration {
                            // Cut off by the end of the window: not counted.
                            break;
                        }
                        let slice = (at.as_nanos() as u64 / slice_ns) as usize;
                        lat[slice.min(slices - 1)].push(done.nanos.min(u64::from(u32::MAX)) as u32);
                    }
                    lat
                })
            })
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(lat) => {
                    for (into, from) in merged.iter_mut().zip(lat) {
                        into.extend(from);
                    }
                }
                Err(_) => panicked.push(i),
            }
        }
    });
    for i in panicked {
        clients[i].attempted += 1;
        clients[i].fail("client thread", "panicked");
    }
    merged
}

/// Compares every updated document with its mirror, then drops the pool,
/// reopens the directory and compares again: what was acknowledged must be
/// what is stored. Returns `(checks, failure lines)`.
fn final_state_check(
    spec: &Spec,
    clients: Vec<Client>,
    pool: Arc<DocumentPool>,
    dir: &Path,
) -> (u64, Vec<String>) {
    let mirrors: Vec<Owned> = clients.into_iter().flat_map(|c| c.owned).collect();
    let mut failures = Vec::new();
    let mut checks = 0;
    let mut compare = |pool: &DocumentPool, stage: &str| {
        for owned in &mirrors {
            checks += 1;
            match pool.reconstruct_document(owned.id) {
                Ok(stored) if stored.tree_eq(&owned.mirror) => {}
                Ok(_) => failures.push(format!(
                    "check: FAIL {} doc {} differs from its mirror {stage}",
                    spec.name, owned.id
                )),
                Err(e) => failures.push(format!(
                    "check: FAIL {} doc {} unreadable {stage} ({e})",
                    spec.name, owned.id
                )),
            }
        }
    };
    compare(&pool, "after the run");
    let enc = pool.encoding();
    // Every session is gone with its client, so this drops the last handle
    // and closes the shards.
    drop(pool);
    if !mirrors.is_empty() {
        match DocumentPool::open(dir, SHARDS, enc, spec.cache_pages) {
            Ok(reopened) => compare(&reopened, "after reopening"),
            Err(e) => {
                checks += 1;
                failures.push(format!("check: FAIL {} reopen ({e})", spec.name));
            }
        }
    }
    (checks, failures)
}

/// The result of one run: the contract's four keys plus diagnostics that
/// are printed but not bounded.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    pub diagnostics: Json,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::obj([("value", Json::from(*value)), ("unit", Json::str(*unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Ends a run on one pool: sums the clients' counters, checks the final
/// state, and deletes the data on success. Returns `(attempted, failed,
/// failure lines)`.
pub fn finish(
    spec: &Spec,
    clients: Vec<Client>,
    pool: Arc<DocumentPool>,
    dir: &Path,
) -> (u64, u64, Vec<String>) {
    let attempted: u64 = clients.iter().map(|c| c.attempted).sum();
    let mut failed: u64 = clients.iter().map(|c| c.failed).sum();
    let mut failures: Vec<String> = clients
        .iter()
        .flat_map(|c| c.failures.iter().cloned())
        .collect();
    let (checks, final_failures) = final_state_check(spec, clients, pool, dir);
    failed += final_failures.len() as u64;
    failures.extend(final_failures);
    if failed == 0 {
        let _ = std::fs::remove_dir_all(dir);
    }
    (attempted + checks, failed, failures)
}

/// The `p`-quantile of an ascending slice (nearest rank).
pub fn percentile(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    f64::from(sorted[((sorted.len() - 1) as f64 * p).round() as usize])
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Where a workload keeps its files: under the benchmark's own `out/`,
/// one directory per process so concurrent runs cannot collide.
pub fn data_dir(out: &Path, spec: &Spec, tag: &str) -> PathBuf {
    out.join(format!("data.{}.{tag}.{}", spec.name, std::process::id()))
}

/// The seeded source documents of a workload.
pub fn documents(spec: &Spec, rng: &mut Rng) -> Vec<Document> {
    (0..spec.docs)
        .map(|_| gen::catalog(spec.items, &mut rng.fork()))
        .collect()
}

/// The untraced run: set-up (repeated, median), warm-up, the timed window,
/// the final state check, and the end-to-end metrics.
pub fn run(spec: &Spec, seed: u64, window: Duration, warmup: Duration, out: &Path) -> Outcome {
    let mut rng = Rng::new(seed);
    let docs = documents(spec, &mut rng);
    let dir = data_dir(out, spec, "run");
    let mut setup_s = Vec::new();
    let mut stored = 0;
    while setup_s.len() < 2
        || (setup_s.len() < 8 && setup_s.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        let discarded = set_up(spec, &dir, &docs, Encoding::Dewey).expect("set-up succeeds");
        setup_s.push(discarded.seconds);
        // Closing checkpoints every shard and empties its WAL, so the
        // size is that of the data and not of where the log happened to
        // stand. It also must happen before the directory is emptied.
        drop(discarded.pool);
        stored = stored_bytes(&dir);
    }
    let loaded = set_up(spec, &dir, &docs, Encoding::Dewey).expect("set-up succeeds");
    setup_s.push(loaded.seconds);
    let mut clients = build_clients(spec, &loaded.pool, &loaded.ids, docs, &mut rng);
    check_pass(spec, &mut clients);
    drive(&mut clients, warmup, 1);
    let slices = drive(&mut clients, window, SLICES);

    let slice_s = window.as_secs_f64() / SLICES as f64;
    let mut per_slice_ops = Vec::new();
    let mut per_slice_p50 = Vec::new();
    let mut per_slice_p95 = Vec::new();
    let mut all: Vec<u32> = Vec::new();
    for mut slice in slices {
        slice.sort_unstable();
        per_slice_ops.push(slice.len() as f64 / slice_s);
        per_slice_p50.push(percentile(&slice, 0.50) / 1e6);
        per_slice_p95.push(percentile(&slice, 0.95) / 1e6);
        all.extend(slice);
    }
    all.sort_unstable();
    let list = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::from(x)).collect());
    let diagnostics = Json::obj([
        ("timed_ops", Json::from(all.len() as u64)),
        ("p99_ms", Json::from(percentile(&all, 0.99) / 1e6)),
        ("max_ms", Json::from(percentile(&all, 1.0) / 1e6)),
        ("slice_ops_per_s", list(&per_slice_ops)),
        ("slice_p50_ms", list(&per_slice_p50)),
        ("slice_p95_ms", list(&per_slice_p95)),
        ("setup_s_each", list(&setup_s)),
        ("node_rows", Json::from(loaded.rows)),
        ("stored_bytes", Json::from(stored)),
    ]);
    // In the order of `END_TO_END`, which names and units them.
    let values = [
        median(&mut per_slice_ops),
        median(&mut per_slice_p50),
        median(&mut per_slice_p95),
        median(&mut setup_s),
        stored as f64 / loaded.rows as f64,
        host::peak_rss_mb(),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| (m.name.to_string(), value, m.unit))
        .collect();
    let (attempted, failed, failures) = finish(spec, clients, loaded.pool, &dir);
    Outcome {
        attempted,
        failed,
        failures,
        metrics,
        diagnostics,
    }
}
