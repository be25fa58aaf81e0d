//! Peek under the hood: the relational schema a document shreds into, and
//! direct SQL over the shredded tables (what the XPath translator emits).
//!
//! ```text
//! cargo run --example sql_shell              # demo script
//! echo "SELECT ..." | cargo run --example sql_shell -- -   # pipe your own SQL
//! ```
//!
//! Meta-commands (pipe mode and demo script alike):
//!
//! * `.explain on|off` — when on, every statement is preceded by its
//!   `EXPLAIN ANALYZE` plan (per-operator row counts and timings).
//! * `.stats` — cumulative engine counters for the session plus every
//!   thread's work ledger summed.
//! * `.trace on|off` — toggle structured span tracing (statement → plan
//!   cache → operators → btree/pager spans).
//! * `.trace dump <path>` — export collected spans as Chrome trace-event
//!   JSON (load in `chrome://tracing` or Perfetto), clearing the buffer.
//! * `.timeout <ms>` — set a per-statement deadline (0 clears it); a
//!   statement past its deadline returns the typed `Timeout` error instead
//!   of running on.
//! * `.help` — list the meta-commands.
//! * `EXPLAIN [ANALYZE] <stmt>` also works directly as SQL.

use ordxml::{Encoding, XmlStore};
use ordxml_rdbms::governance::{Ledger, Work};
use ordxml_rdbms::{trace, Database, Value};
use std::io::BufRead;
use std::time::Duration;

const HELP: &str = "\
.help                 this text
.explain on|off       show EXPLAIN ANALYZE plans before each statement
.stats                session + process counters
.trace on|off         toggle structured span tracing
.trace dump <path>    export spans as Chrome trace-event JSON
.timeout <ms>         per-statement deadline; 0 disarms it (statements run
                      with no deadline again)
<anything else>       runs as SQL (EXPLAIN [ANALYZE] <stmt> works too)";

struct Shell {
    store: XmlStore,
    explain: bool,
}

impl Shell {
    fn print_stats(&mut self) {
        let s = self.store.db().total_stats();
        println!(
            "     session: rows_scanned={} index_scans={} index_rows={} rows_sorted={} \
             subquery_evals={} rows_written={}",
            s.rows_scanned,
            s.index_scans,
            s.index_rows,
            s.rows_sorted,
            s.subquery_evals,
            s.rows_written
        );
        println!(
            "     pages: read={} cache_hits={} cache_misses={} written={} evictions={}",
            s.pages_read, s.cache_hits, s.cache_misses, s.pages_written, s.evictions
        );
        println!(
            "     btree: descents={} descent_reuses={} leaf_scans={} splits={}",
            s.btree_descents, s.btree_descent_reuses, s.btree_leaf_scans, s.btree_splits
        );
        let shard_stats = self.store.db().plan_cache_shard_stats();
        let o = Ledger::process();
        let mean = |n: Work, ns: Work| Duration::from_nanos(o[ns] / o[n].max(1));
        println!(
            "     process: statements={} errors={} read_mean={:?} write_mean={:?}",
            o[Work::ReadStatement] + o[Work::WriteStatement],
            o[Work::StatementError],
            mean(Work::ReadStatement, Work::ReadNanos),
            mean(Work::WriteStatement, Work::WriteNanos),
        );
        println!(
            "     plan cache: hits={} misses={} (descents={} reuses={})",
            o[Work::PlanCacheHit],
            o[Work::PlanCacheMiss],
            o[Work::Descent],
            o[Work::DescentReuse]
        );
        // Per-shard hit rates for this session's cache (the process-wide
        // numbers above aggregate every database in the process).
        let shards: Vec<String> = shard_stats
            .iter()
            .enumerate()
            .filter(|(_, (h, m))| h + m > 0)
            .map(|(i, (h, m))| format!("{i}:{:.0}%", *h as f64 / (h + m) as f64 * 100.0))
            .collect();
        println!(
            "     plan cache shards (hit rate): {}",
            if shards.is_empty() {
                "(untouched)".to_string()
            } else {
                shards.join(" ")
            }
        );
        println!(
            "     durability: wal_frames={} commits={} rollbacks={} recoveries={}",
            o[Work::WalFrame],
            o[Work::Commit],
            o[Work::Rollback],
            o[Work::Recovery]
        );
        println!(
            "     governance: timed_out={} canceled={} read_retries={} \
             degraded_entries={} degraded_rejects={} health={:?}",
            o[Work::Timeout],
            o[Work::Cancel],
            o[Work::ReadRetry],
            o[Work::DegradedEntry],
            o[Work::DegradedReject],
            self.store.health()
        );
        println!();
    }

    /// Handles a `.meta` command; returns `false` if `line` is plain SQL.
    fn meta(&mut self, line: &str) -> bool {
        match line {
            ".help" => {
                println!("sql> .help");
                for l in HELP.lines() {
                    println!("     {l}");
                }
                println!();
            }
            ".stats" => {
                println!("sql> .stats");
                self.print_stats();
            }
            ".explain on" => {
                self.explain = true;
                println!("sql> .explain on\n     (plans shown before each statement)\n");
            }
            ".explain off" => {
                self.explain = false;
                println!("sql> .explain off\n");
            }
            ".trace on" => {
                trace::clear();
                trace::set_enabled(true);
                println!(
                    "sql> .trace on\n     (collecting spans; `.trace dump <path>` to export)\n"
                );
            }
            ".trace off" => {
                trace::set_enabled(false);
                println!("sql> .trace off\n");
            }
            _ if line.starts_with(".timeout") => {
                let arg = line[".timeout".len()..].trim();
                match arg.parse::<u64>() {
                    Ok(0) => {
                        self.store.set_deadline_ms(0);
                        println!("sql> .timeout 0\n     (deadline cleared)\n");
                    }
                    Ok(ms) => {
                        self.store.set_deadline_ms(ms);
                        println!(
                            "sql> .timeout {ms}\n     (statements past {ms}ms now return \
                             the Timeout error)\n"
                        );
                    }
                    Err(_) => {
                        println!("sql> {line}\n     usage: .timeout <milliseconds> (0 clears)\n")
                    }
                }
            }
            _ if line.starts_with(".trace dump") => {
                let path = line[".trace dump".len()..].trim();
                let path = if path.is_empty() { "trace.json" } else { path };
                let events = trace::drain();
                let json = trace::to_chrome_json(&events);
                match std::fs::write(path, &json) {
                    Ok(()) => println!(
                        "sql> .trace dump\n     {} span(s) written to {path} (Chrome trace format)\n",
                        events.len()
                    ),
                    Err(e) => println!("sql> .trace dump\n     error writing {path}: {e}\n"),
                }
            }
            _ if line.starts_with('.') => {
                println!("sql> {line}\n     unknown meta-command (try `.help`)\n");
            }
            _ => return false,
        }
        true
    }

    fn run_and_print(&mut self, sql: &str) {
        if self.meta(sql) {
            return;
        }
        println!("sql> {sql}");
        let already_explain = sql.trim_start().to_ascii_uppercase().starts_with("EXPLAIN");
        if self.explain && !already_explain {
            match self.store.db().explain(sql, &[], true) {
                Ok(lines) => {
                    for line in lines {
                        println!("     | {line}");
                    }
                }
                Err(e) => println!("     | (no plan: {e})"),
            }
        }
        match self.store.db().run(sql, &[]) {
            Ok(result) => {
                if !result.columns.is_empty() {
                    println!("     {}", result.columns.join(" | "));
                }
                for row in &result.rows {
                    let cells: Vec<String> = row.iter().map(Value::to_string).collect();
                    println!("     {}", cells.join(" | "));
                }
                if result.rows_affected > 0 {
                    println!("     ({} rows affected)", result.rows_affected);
                }
                println!(
                    "     [{} rows, {} heap rows read, {} index scans, {} pages read]",
                    result.rows.len(),
                    result.stats.rows_scanned,
                    result.stats.index_scans,
                    result.stats.pages_read
                );
            }
            Err(e) => println!("     error: {e}"),
        }
        println!();
    }
}

fn main() {
    let doc = ordxml_xml::parse(
        "<catalog><item id=\"i1\"><name>Alpha</name><price>30</price></item>\
         <item id=\"i2\"><name>Beta</name><price>10</price></item>\
         <item id=\"i3\"><name>Gamma</name><price>20</price></item></catalog>",
    )
    .unwrap();
    let store = XmlStore::new(Database::in_memory(), Encoding::Global);
    store.load_document(&doc, "catalog").unwrap();
    let mut shell = Shell {
        store,
        explain: false,
    };

    let pipe_mode = std::env::args().nth(1).as_deref() == Some("-");
    if pipe_mode {
        // Lossy read: invalid UTF-8 on stdin degrades to U+FFFD (and an SQL
        // parse error for that line) instead of a panic; an actual read
        // error exits with a typed message rather than unwinding.
        let mut stdin = std::io::stdin().lock();
        loop {
            let mut raw = Vec::new();
            match stdin.read_until(b'\n', &mut raw) {
                Ok(0) => break,
                Ok(_) => {
                    let line = String::from_utf8_lossy(&raw);
                    if !line.trim().is_empty() {
                        shell.run_and_print(line.trim());
                    }
                }
                Err(e) => {
                    eprintln!("sql_shell: stdin read error: {e}");
                    std::process::exit(1);
                }
            }
        }
        return;
    }

    println!("The catalog document shredded under the GLOBAL order encoding:\n");
    shell.run_and_print(
        "SELECT pos, parent_pos, desc_max, depth, kind, tag, value \
         FROM global_node WHERE doc = 1 ORDER BY pos",
    );
    println!("What `/catalog/item[2]` becomes (the translator's actual shape):\n");
    shell.run_and_print(
        "SELECT t1.pos, t1.tag FROM global_node t0, global_node t1 \
         WHERE t0.doc = 1 AND t0.parent_pos = -1 AND t0.kind = 0 AND t0.tag = 'catalog' \
           AND t1.doc = 1 AND t1.parent_pos = t0.pos AND t1.kind = 0 AND t1.tag = 'item' \
           AND (SELECT COUNT(*) FROM global_node y \
                WHERE y.doc = t1.doc AND y.parent_pos = t1.parent_pos \
                  AND y.pos < t1.pos AND y.kind = 0 AND y.tag = 'item') = 1 \
         ORDER BY t1.pos",
    );
    println!("The same query through the engine's own lens (`.explain on`):\n");
    shell.run_and_print(".explain on");
    shell.run_and_print("SELECT pos, tag FROM global_node WHERE doc = 1 AND kind = 0 ORDER BY pos");
    shell.run_and_print(".explain off");
    println!("Ordered aggregation straight over the shredded rows:\n");
    shell.run_and_print(
        "SELECT tag, COUNT(*) AS n FROM global_node WHERE doc = 1 GROUP BY tag ORDER BY n DESC, 1",
    );
    shell.run_and_print(".stats");
    println!("(pass `-` and pipe SQL on stdin to explore interactively)");
}
