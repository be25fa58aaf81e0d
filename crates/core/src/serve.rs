//! Line-protocol serving front-end over a [`DocumentPool`].
//!
//! Promotes the `sql_shell` command language to the wire: one request per
//! line (SQL, `xpath <expr>`, or a `.meta` command), one framed reply per
//! request. Replies are line-oriented so any client — `nc`, a shell pipe,
//! the bundled `xml_client` example — can speak the protocol:
//!
//! ```text
//! | <payload line>          zero or more, each prefixed "| "
//! ok <summary>              terminator on success
//! err <code>: <message>     terminator on failure
//! ```
//!
//! Framing is per *physical* line: payload containing embedded newlines
//! (XML text nodes can hold `\n`) is split and every physical line gets
//! its own `| ` prefix, so payload can never forge an `ok`/`err`
//! terminator or desync a prefix-parsing client.
//!
//! Error codes are stable and typed (`timeout`, `canceled`, `budget`,
//! `degraded`, `sql`, `xpath`, `unsupported`, `bad-node`, `db`, `io`,
//! `usage`) so clients can branch without parsing prose. A `degraded`
//! error's message names the failing shard (`[shard-2] ...`).
//!
//! **Sessions are isolated.** Each session carries its own governance
//! limits (`.timeout`, `.budget` — entered as a [`governance::Scope`]
//! around every statement, so one client's 50 ms deadline never throttles
//! another), its own current document, and its own prepared-XPath cache
//! (parse once, evaluate per request). `.timeout 0` / `.budget 0` disarm.
//!
//! **A reply is one committed version.** An `xpath` request pins one
//! snapshot of its document ([`DocumentPool::snapshot`]) and runs the query
//! and the serialization of every hit on it, the hits' subtrees in one
//! batched fetch — a writer committing mid-request never tears the reply.
//!
//! **Sessions are crash-proof.** Input is read lossily (invalid UTF-8
//! becomes U+FFFD, never a panic) and a read error ends the session with a
//! framed `err io:` reply — a malformed client line can never kill the
//! process. See [`run_session`].

use crate::pool::DocumentPool;
use crate::store::StoreError;
use crate::xpath;
use ordxml_rdbms::governance::{self, Ledger, Work};
use ordxml_rdbms::{DbError, StoreHealth, Value};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parsed XPath plans cached per session. Small and bounded: the cache
/// exists to amortize parsing across a session's repeated queries, not to
/// be a second plan cache (the engine's per-shard SQL plan cache handles
/// that level).
const PLAN_CACHE_CAP: usize = 64;

/// Reply terminator status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// `ok <summary>`
    Ok(String),
    /// `err <code>: <message>`
    Err {
        /// Stable machine-readable code (`timeout`, `degraded`, ...).
        code: &'static str,
        /// Human-readable detail.
        message: String,
    },
}

/// One framed reply: payload lines plus a terminator.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Payload lines (sent prefixed with `"| "`).
    pub lines: Vec<String>,
    /// Terminator.
    pub status: Status,
    /// `true` when the session should end after this reply (`.quit`).
    pub quit: bool,
}

impl Reply {
    fn ok(summary: impl Into<String>, lines: Vec<String>) -> Reply {
        Reply {
            lines,
            status: Status::Ok(summary.into()),
            quit: false,
        }
    }

    fn err(code: &'static str, message: impl Into<String>) -> Reply {
        Reply {
            lines: Vec::new(),
            status: Status::Err {
                code,
                message: message.into(),
            },
            quit: false,
        }
    }

    /// Writes the reply in wire framing. Payload strings may contain
    /// embedded newlines (an XML text node can hold `\n`), so every
    /// *physical* line goes out with its own `"| "` prefix — payload can
    /// never forge an `ok`/`err` terminator or desync a prefix-parsing
    /// client. Terminators are flattened to exactly one physical line.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        for line in &self.lines {
            for physical in line.split('\n') {
                writeln!(w, "| {}", physical.trim_end_matches('\r'))?;
            }
        }
        match &self.status {
            Status::Ok(summary) => writeln!(w, "ok {}", one_line(summary))?,
            Status::Err { code, message } => writeln!(w, "err {code}: {}", one_line(message))?,
        }
        w.flush()
    }
}

/// Collapses line breaks so a terminator is always one physical line on
/// the wire, whatever an error's `Display` contains.
fn one_line(s: &str) -> std::borrow::Cow<'_, str> {
    if s.contains(['\n', '\r']) {
        std::borrow::Cow::Owned(s.replace(['\n', '\r'], " "))
    } else {
        std::borrow::Cow::Borrowed(s)
    }
}

/// Maps an error to its stable wire code.
fn error_code(e: &StoreError) -> &'static str {
    match e {
        StoreError::Db(DbError::Timeout(_)) => "timeout",
        StoreError::Db(DbError::Canceled(_)) => "canceled",
        StoreError::Db(DbError::ResourceExhausted(_)) => "budget",
        StoreError::Db(DbError::Degraded(_)) => "degraded",
        StoreError::Db(DbError::Parse { .. }) => "sql",
        StoreError::Db(_) => "db",
        StoreError::XPath(_) => "xpath",
        StoreError::Unsupported(_) => "unsupported",
        StoreError::BadNode(_) => "bad-node",
    }
}

/// One client session: current document, governance limits, prepared-XPath
/// cache, counters. Transport-agnostic — [`Session::handle`] maps a request
/// line to a [`Reply`], so the same type backs the TCP server, tests over
/// in-memory buffers, and piped stdin.
pub struct Session {
    pool: Arc<DocumentPool>,
    /// Current document (None until `.use` / first `.load`).
    doc: Option<u64>,
    explain: bool,
    deadline_ms: u64,
    work_budget: u64,
    cancel: Arc<AtomicBool>,
    plans: HashMap<String, Arc<xpath::Path>>,
    requests: u64,
    plan_hits: u64,
    plan_misses: u64,
}

impl Session {
    /// A fresh session over `pool` with no limits armed.
    pub fn new(pool: Arc<DocumentPool>) -> Session {
        governance::count(Work::ServeSession);
        Session {
            pool,
            doc: None,
            explain: false,
            deadline_ms: 0,
            work_budget: 0,
            cancel: Arc::new(AtomicBool::new(false)),
            plans: HashMap::new(),
            requests: 0,
            plan_hits: 0,
            plan_misses: 0,
        }
    }

    /// `(hits, misses)` of this session's prepared-XPath cache.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        (self.plan_hits, self.plan_misses)
    }

    /// This session's governance limits, built fresh per statement so the
    /// deadline starts at statement arrival. `0` means disarmed.
    fn limits(&self) -> governance::Limits {
        governance::Limits {
            deadline: (self.deadline_ms > 0)
                .then(|| Instant::now() + Duration::from_millis(self.deadline_ms)),
            cancel: Some(Arc::clone(&self.cancel)),
            work_budget: (self.work_budget > 0).then_some(self.work_budget),
        }
    }

    /// The current document, or a typed `usage` error.
    fn current_doc(&self) -> Result<u64, Reply> {
        self.doc
            .ok_or_else(|| Reply::err("usage", "no document selected (.docs to list, .use <id>)"))
    }

    /// Parses `expr` through the session's prepared-plan cache. A hit
    /// shares the cached plan instead of copying it.
    fn plan(&mut self, expr: &str) -> Result<Arc<xpath::Path>, StoreError> {
        if let Some(path) = self.plans.get(expr) {
            self.plan_hits += 1;
            return Ok(Arc::clone(path));
        }
        let path = Arc::new(xpath::parse(expr)?);
        self.plan_misses += 1;
        if self.plans.len() >= PLAN_CACHE_CAP {
            self.plans.clear();
        }
        self.plans.insert(expr.to_string(), Arc::clone(&path));
        Ok(path)
    }

    /// Evaluates `expr` and serializes its hits on **one** committed
    /// version of the document: the reply pins a single snapshot, so it
    /// can never mix versions when a writer commits mid-request, and the
    /// hits' subtrees come back in one batched fetch rather than one
    /// query per hit.
    fn xpath_reply(&mut self, doc: u64, expr: &str) -> Reply {
        let path = match self.plan(expr) {
            Ok(p) => p,
            Err(e) => return Reply::err(error_code(&e), e.to_string()),
        };
        let _scope = governance::Scope::enter(self.limits());
        let lines = self.pool.snapshot(doc).and_then(|(snap, inner)| {
            let hits = snap.xpath_parsed(inner, &path)?;
            snap.serialize_many(inner, &hits)
        });
        match lines {
            Ok(lines) => Reply::ok(format!("{} node(s)", lines.len()), lines),
            Err(e) => Reply::err(error_code(&e), e.to_string()),
        }
    }

    fn sql_reply(&mut self, doc: u64, sql: &str) -> Reply {
        let mut lines = Vec::new();
        if self.explain {
            let already = sql.trim_start().to_ascii_uppercase().starts_with("EXPLAIN");
            if !already {
                let _scope = governance::Scope::enter(self.limits());
                match self.pool.sql(doc, &format!("EXPLAIN {sql}"), &[]) {
                    Ok(plan) => {
                        for row in &plan.rows {
                            let cells: Vec<String> = row.iter().map(Value::to_string).collect();
                            lines.push(format!("plan: {}", cells.join(" | ")));
                        }
                    }
                    Err(e) => lines.push(format!("plan: (unavailable: {e})")),
                }
            }
        }
        let _scope = governance::Scope::enter(self.limits());
        match self.pool.sql(doc, sql, &[]) {
            Ok(result) => {
                if !result.columns.is_empty() {
                    lines.push(result.columns.join(" | "));
                }
                for row in &result.rows {
                    let cells: Vec<String> = row.iter().map(Value::to_string).collect();
                    lines.push(cells.join(" | "));
                }
                Reply::ok(
                    format!(
                        "{} row(s), {} affected",
                        result.rows.len(),
                        result.rows_affected
                    ),
                    lines,
                )
            }
            Err(e) => Reply::err(error_code(&e), e.to_string()),
        }
    }

    fn stats_reply(&self) -> Reply {
        let stats = self.pool.stats();
        let mut lines = vec![format!(
            "session: requests={} plan_hits={} plan_misses={} timeout_ms={} budget={} doc={}",
            self.requests,
            self.plan_hits,
            self.plan_misses,
            self.deadline_ms,
            self.work_budget,
            self.doc.map_or("none".to_string(), |d| d.to_string()),
        )];
        let o = Ledger::process();
        lines.push(format!(
            "process: sessions={} requests={} statements={} timed_out={} degraded_rejects={}",
            o[Work::ServeSession],
            o[Work::ServeRequest],
            o[Work::ReadStatement] + o[Work::WriteStatement],
            o[Work::Timeout],
            o[Work::DegradedReject],
        ));
        for s in &stats.shards {
            lines.push(format!(
                "{}: docs={} health={} statements={} commits={} wal_frames={} waits={} \
                 rows_scanned={} rows_written={} pages_read={}",
                s.identity,
                s.documents,
                match &s.health {
                    StoreHealth::Healthy => "healthy".to_string(),
                    StoreHealth::Degraded(reason) => format!("degraded ({reason})"),
                },
                s.stats.statements,
                s.stats.commits,
                s.stats.wal_frames,
                s.stats.lock_waits,
                s.stats.rows_scanned,
                s.stats.rows_written,
                s.stats.pages_read,
            ));
        }
        Reply::ok(
            format!(
                "{} shard(s), {} doc(s), {} degraded",
                stats.shards.len(),
                stats.documents(),
                stats.degraded_shards()
            ),
            lines,
        )
    }

    fn help_reply() -> Reply {
        Reply::ok(
            "commands",
            [
                "SQL statement        run SQL on the current document's shard",
                "xpath <expr>         evaluate XPath on the current document",
                ".docs                list documents (id, shard, name)",
                ".use <id>            select the current document",
                ".load <name> <xml>   load an XML document, select it",
                ".explain on|off      show plans before each SQL statement",
                ".timeout <ms>        per-statement deadline; 0 disarms it",
                ".budget <units>      per-statement work budget; 0 disarms it",
                ".stats               session + per-shard counters",
                ".health              per-shard health",
                ".restore <shard>     try to restore a degraded shard",
                ".help                this text",
                ".quit                end the session",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
        )
    }

    /// Handles one request line, returning the framed reply. Never panics
    /// on malformed input: unknown commands and bad arguments come back as
    /// typed `err usage:` replies.
    pub fn handle(&mut self, line: &str) -> Reply {
        self.requests += 1;
        governance::count(Work::ServeRequest);
        let line = line.trim();
        if line.is_empty() {
            return Reply::ok("", Vec::new());
        }
        // Dispatch on the first whitespace-delimited word, so `.useless`
        // or `xpathfoo` never half-match `.use` / `xpath` (they fall
        // through to unknown-command / SQL). Splitting on a char predicate
        // also keeps a lossily-decoded line (which can start with a
        // multi-byte U+FFFD) panic-free — no byte slicing.
        let (word, rest) = match line.split_once(char::is_whitespace) {
            Some((w, r)) => (w, r.trim()),
            None => (line, ""),
        };
        if word.starts_with('.') {
            return self.meta_reply(word, rest);
        }
        if word.eq_ignore_ascii_case("xpath") {
            if rest.is_empty() {
                return Reply::err("usage", "xpath <expr>");
            }
            return match self.current_doc() {
                Ok(doc) => self.xpath_reply(doc, rest),
                Err(reply) => reply,
            };
        }
        match self.current_doc() {
            Ok(doc) => self.sql_reply(doc, line),
            Err(reply) => reply,
        }
    }

    /// Handles one `.meta` command (`word` starts with `.`; `rest` is the
    /// already-trimmed argument text, `""` if none).
    fn meta_reply(&mut self, word: &str, rest: &str) -> Reply {
        match word {
            ".quit" | ".help" | ".stats" | ".docs" | ".health" if !rest.is_empty() => {
                Reply::err("usage", format!("{word} takes no arguments"))
            }
            ".quit" => Reply {
                lines: Vec::new(),
                status: Status::Ok("bye".to_string()),
                quit: true,
            },
            ".help" => Self::help_reply(),
            ".stats" => self.stats_reply(),
            ".docs" => {
                let docs = self.pool.documents();
                let lines = docs
                    .iter()
                    .map(|(id, shard, name)| format!("{id} shard-{shard} {name}"))
                    .collect::<Vec<_>>();
                Reply::ok(format!("{} doc(s)", docs.len()), lines)
            }
            ".health" => {
                let lines = self
                    .pool
                    .health()
                    .iter()
                    .enumerate()
                    .map(|(i, h)| match h {
                        StoreHealth::Healthy => format!("shard-{i} healthy"),
                        StoreHealth::Degraded(reason) => format!("shard-{i} degraded: {reason}"),
                    })
                    .collect();
                Reply::ok(format!("{} shard(s)", self.pool.shard_count()), lines)
            }
            ".explain" => match rest {
                "on" => {
                    self.explain = true;
                    Reply::ok("explain on", Vec::new())
                }
                "off" => {
                    self.explain = false;
                    Reply::ok("explain off", Vec::new())
                }
                _ => Reply::err("usage", ".explain on|off"),
            },
            ".use" => match rest.parse::<u64>() {
                Ok(id) if self.pool.contains(id) => {
                    self.doc = Some(id);
                    Reply::ok(
                        format!("doc {id} (shard-{})", self.pool.shard_of(id)),
                        vec![],
                    )
                }
                Ok(id) => Reply::err("bad-node", format!("no document with pool id {id}")),
                Err(_) => Reply::err("usage", ".use <id>"),
            },
            ".load" => {
                let Some((name, xml)) = rest.split_once(char::is_whitespace) else {
                    return Reply::err("usage", ".load <name> <xml>");
                };
                let doc = match ordxml_xml::parse(xml.trim()) {
                    Ok(d) => d,
                    Err(e) => return Reply::err("xpath", format!("XML parse error: {e}")),
                };
                let _scope = governance::Scope::enter(self.limits());
                match self.pool.load(&doc, name) {
                    Ok(id) => {
                        self.doc = Some(id);
                        Reply::ok(
                            format!("doc {id} (shard-{}) loaded", self.pool.shard_of(id)),
                            vec![],
                        )
                    }
                    Err(e) => Reply::err(error_code(&e), e.to_string()),
                }
            }
            ".timeout" => match rest.parse::<u64>() {
                Ok(ms) => {
                    // 0 disarms: the session's Limits only arm a deadline
                    // for ms > 0.
                    self.deadline_ms = ms;
                    Reply::ok(
                        if ms == 0 {
                            "deadline disarmed".to_string()
                        } else {
                            format!("deadline {ms}ms")
                        },
                        vec![],
                    )
                }
                Err(_) => Reply::err("usage", ".timeout <ms> (0 disarms)"),
            },
            ".budget" => match rest.parse::<u64>() {
                Ok(units) => {
                    self.work_budget = units;
                    Reply::ok(
                        if units == 0 {
                            "budget disarmed".to_string()
                        } else {
                            format!("budget {units} units")
                        },
                        vec![],
                    )
                }
                Err(_) => Reply::err("usage", ".budget <units> (0 disarms)"),
            },
            ".restore" => match rest.parse::<usize>() {
                Ok(i) if i < self.pool.shard_count() => match self.pool.try_restore(i) {
                    Ok(()) => Reply::ok(format!("shard-{i} restored"), vec![]),
                    Err(e) => Reply::err(error_code(&e), e.to_string()),
                },
                Ok(i) => Reply::err(
                    "usage",
                    format!("shard {i} out of range (0..{})", self.pool.shard_count()),
                ),
                Err(_) => Reply::err("usage", ".restore <shard>"),
            },
            _ => Reply::err("usage", format!("unknown command {word:?} (try .help)")),
        }
    }
}

/// Reads one line lossily: invalid UTF-8 becomes U+FFFD instead of an
/// error, so a byte-garbage client line degrades to an unknown command
/// instead of killing the session (let alone the process).
fn read_line_lossy(r: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut buf = Vec::new();
    if r.read_until(b'\n', &mut buf)? == 0 {
        return Ok(None);
    }
    Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
}

/// Drives a [`Session`] over any byte stream until EOF, `.quit`, or an I/O
/// error (which is reported as a best-effort framed `err io:` reply, never
/// a panic). Returns the number of requests served.
pub fn run_session(
    pool: Arc<DocumentPool>,
    reader: impl Read,
    mut writer: impl Write,
) -> std::io::Result<u64> {
    let mut session = Session::new(pool);
    let mut reader = BufReader::new(reader);
    loop {
        let line = match read_line_lossy(&mut reader) {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(e) => {
                // Session input is gone; tell the client (best effort) and
                // end this session only.
                let _ = Reply::err("io", e.to_string()).write_to(&mut writer);
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let reply = session.handle(&line);
        reply.write_to(&mut writer)?;
        if reply.quit {
            break;
        }
    }
    Ok(session.requests)
}

/// Accept loop: one thread per connection, each with its own [`Session`].
/// A panicking or erroring session takes down its thread, never the
/// listener. Runs until the listener errors (or forever).
pub fn serve(listener: TcpListener, pool: Arc<DocumentPool>) -> std::io::Result<()> {
    for stream in listener.incoming() {
        let stream: TcpStream = match stream {
            Ok(s) => s,
            Err(e) => {
                // Transient accept errors (EMFILE, aborted handshakes)
                // should not stop the server.
                eprintln!("serve: accept error: {e}");
                continue;
            }
        };
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || {
            let reader = match stream.try_clone() {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("serve: clone error: {e}");
                    return;
                }
            };
            if let Err(e) = run_session(pool, reader, stream) {
                eprintln!("serve: session error: {e}");
            }
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoding;

    fn pool_with_doc() -> (Arc<DocumentPool>, u64) {
        let pool = Arc::new(DocumentPool::in_memory(2, Encoding::Global));
        let doc = ordxml_xml::parse("<a><b>1</b><b>2</b></a>").unwrap();
        let id = pool.load(&doc, "t").unwrap();
        (pool, id)
    }

    #[test]
    fn xpath_and_sql_round_trip() {
        let (pool, id) = pool_with_doc();
        let mut s = Session::new(pool);
        assert!(matches!(
            s.handle(&format!(".use {id}")).status,
            Status::Ok(_)
        ));
        let r = s.handle("xpath /a/b[2]");
        assert_eq!(r.lines, vec!["<b>2</b>"]);
        let r = s.handle("SELECT COUNT(*) FROM global_node WHERE doc = 1");
        assert!(matches!(r.status, Status::Ok(_)), "{:?}", r.status);
    }

    #[test]
    fn prepared_plan_cache_counts_hits() {
        let (pool, id) = pool_with_doc();
        let mut s = Session::new(pool);
        s.handle(&format!(".use {id}"));
        s.handle("xpath /a/b");
        s.handle("xpath /a/b");
        s.handle("xpath /a/b");
        assert_eq!(s.plan_misses, 1);
        assert_eq!(s.plan_hits, 2);
    }

    #[test]
    fn multiline_payload_cannot_forge_terminators() {
        let pool = Arc::new(DocumentPool::in_memory(1, Encoding::Global));
        let doc = ordxml_xml::parse("<a>x\nok 0 node(s)\nerr db: forged\ny</a>").unwrap();
        let id = pool.load(&doc, "t").unwrap();
        let input = format!(".use {id}\nxpath /a\n.quit\n");
        let mut out = Vec::new();
        let served = run_session(pool, input.as_bytes(), &mut out).unwrap();
        assert_eq!(served, 3);
        let wire = String::from_utf8(out).unwrap();
        // Every physical line is payload ("| ") or a real terminator, and
        // there is exactly one terminator per request — a prefix-parsing
        // client (xml_client) can never desync on payload newlines.
        let mut terminators = 0;
        for line in wire.lines() {
            if line.starts_with("| ") {
                continue;
            }
            assert!(
                line.starts_with("ok ") || line.starts_with("err "),
                "unframed line on the wire: {line:?}"
            );
            terminators += 1;
        }
        assert_eq!(terminators, 3, "full exchange:\n{wire}");
        // The would-be forged terminators went out as framed payload.
        assert!(wire.contains("| ok 0 node(s)\n"), "{wire}");
        assert!(wire.contains("| err db: forged\n"), "{wire}");
    }

    #[test]
    fn dispatch_requires_word_boundaries() {
        let (pool, id) = pool_with_doc();
        let mut s = Session::new(pool);
        s.handle(&format!(".use {id}"));
        // `xpathfoo` is SQL (which fails to parse), not a half-matched
        // `xpath` command.
        let r = s.handle("xpathfoo");
        assert!(
            matches!(r.status, Status::Err { code: "sql", .. }),
            "{:?}",
            r.status
        );
        // `.useless` is an unknown command, not `.use less`.
        match &s.handle(".useless").status {
            Status::Err {
                code: "usage",
                message,
            } => assert!(message.contains(".useless"), "{message}"),
            other => panic!("expected usage error, got {other:?}"),
        }
        // Extra whitespace between word and arguments is fine.
        assert!(matches!(s.handle(".explain   on").status, Status::Ok(_)));
        assert!(matches!(
            s.handle(".explain").status,
            Status::Err { code: "usage", .. }
        ));
        assert!(matches!(
            s.handle(".stats extra").status,
            Status::Err { code: "usage", .. }
        ));
    }

    #[test]
    fn errors_are_typed_not_fatal() {
        let (pool, _) = pool_with_doc();
        let mut s = Session::new(pool);
        let r = s.handle("xpath /a");
        assert!(matches!(r.status, Status::Err { code: "usage", .. }));
        let r = s.handle(".use 999");
        assert!(matches!(
            r.status,
            Status::Err {
                code: "bad-node",
                ..
            }
        ));
        let r = s.handle(".nonsense");
        assert!(matches!(r.status, Status::Err { code: "usage", .. }));
        // Still alive and serving.
        assert!(matches!(s.handle(".help").status, Status::Ok(_)));
    }
}
