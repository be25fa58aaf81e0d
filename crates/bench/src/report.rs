//! Machine-readable run reports.
//!
//! Every [`Table`](crate::harness::Table) an experiment prints is also
//! recorded here, and [`crate::experiments::run`] brackets each experiment
//! with a snapshot of the engine's global observability registry
//! ([`ordxml_rdbms::obs`]), so one run yields both the human tables on
//! stdout and a JSON document (`BENCH_report.json`) with the same numbers
//! plus per-experiment engine counters. The JSON is written by hand — the
//! build environment has no serialization crates — with full string
//! escaping, so any cell content round-trips.

use ordxml_rdbms::obs::{ObsSnapshot, WaitSite};
use std::sync::Mutex;
use std::time::Duration;

/// One recorded result table (title + headers + rows, as printed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedTable {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (cell strings exactly as printed).
    pub rows: Vec<Vec<String>>,
}

/// Engine-counter deltas over one experiment, from the global
/// observability registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineDelta {
    /// Statements the engine executed.
    pub statements: u64,
    /// Statements that failed.
    pub statement_errors: u64,
    /// Statements beyond the configured slow-query threshold.
    pub slow_statements: u64,
    /// Read statements timed.
    pub read_statements: u64,
    /// Total wall-clock time in read statements.
    pub read_time: Duration,
    /// Write statements timed.
    pub write_statements: u64,
    /// Total wall-clock time in write statements.
    pub write_time: Duration,
    /// B+tree root-to-leaf descents (one per probed range; the batched
    /// execution mode's unit of index work).
    pub btree_descents: u64,
    /// Descents skipped by reusing the previous range's leaf finger
    /// (batched multi-range scans stepping leaf to leaf instead).
    pub btree_descent_reuses: u64,
    /// Plan-cache hits.
    pub plan_cache_hits: u64,
    /// Plan-cache misses.
    pub plan_cache_misses: u64,
    /// WAL page-image frames appended (commit traffic).
    pub wal_frames_written: u64,
    /// Transactions committed (explicit and auto-commit).
    pub txn_commits: u64,
    /// Transactions rolled back.
    pub txn_rollbacks: u64,
    /// WAL recoveries run by `Database::open`.
    pub recoveries_run: u64,
    /// Statements that tripped their governance deadline.
    pub queries_timed_out: u64,
    /// Statements canceled via the shared cancel flag.
    pub queries_canceled: u64,
    /// Physical page reads retried after an I/O error or checksum mismatch.
    pub read_retries: u64,
    /// Healthy-to-degraded transitions (persistent write-path failures).
    pub degraded_entries: u64,
    /// Write transactions refused while degraded read-only.
    pub degraded_rejects: u64,
    /// Serving-layer sessions opened (wire connections, piped shells).
    pub serve_sessions: u64,
    /// Serving-layer requests handled (protocol lines).
    pub serve_requests: u64,
    /// Read-shaped store `sql()` calls that fell back to the exclusive
    /// write path (misclassified reads serializing behind writers).
    pub sql_read_fallbacks: u64,
    /// Contended lock acquisitions (the caller blocked at least once).
    pub lock_waits: u64,
    /// Contended acquisitions per wait site, indexed as [`WaitSite::ALL`]
    /// (backend, plan_cache, wal, txn, store, obs, trace).
    pub lock_waits_by_site: [u64; WaitSite::COUNT],
    /// Total time spent blocked per wait site, same indexing.
    pub lock_wait_time_by_site: [Duration; WaitSite::COUNT],
}

impl EngineDelta {
    /// Counter movement between two registry snapshots.
    pub fn between(before: &ObsSnapshot, after: &ObsSnapshot) -> EngineDelta {
        EngineDelta {
            statements: after.statements - before.statements,
            statement_errors: after.statement_errors - before.statement_errors,
            slow_statements: after.slow_statements - before.slow_statements,
            read_statements: after.read_latency.count - before.read_latency.count,
            read_time: after
                .read_latency
                .total
                .saturating_sub(before.read_latency.total),
            write_statements: after.write_latency.count - before.write_latency.count,
            write_time: after
                .write_latency
                .total
                .saturating_sub(before.write_latency.total),
            btree_descents: after.btree_descents - before.btree_descents,
            btree_descent_reuses: after.btree_descent_reuses - before.btree_descent_reuses,
            plan_cache_hits: after.plan_cache_hits - before.plan_cache_hits,
            plan_cache_misses: after.plan_cache_misses - before.plan_cache_misses,
            wal_frames_written: after.wal_frames_written - before.wal_frames_written,
            txn_commits: after.txn_commits - before.txn_commits,
            txn_rollbacks: after.txn_rollbacks - before.txn_rollbacks,
            recoveries_run: after.recoveries_run - before.recoveries_run,
            queries_timed_out: after.queries_timed_out - before.queries_timed_out,
            queries_canceled: after.queries_canceled - before.queries_canceled,
            read_retries: after.read_retries - before.read_retries,
            degraded_entries: after.degraded_entries - before.degraded_entries,
            degraded_rejects: after.degraded_rejects - before.degraded_rejects,
            serve_sessions: after.serve_sessions - before.serve_sessions,
            serve_requests: after.serve_requests - before.serve_requests,
            sql_read_fallbacks: after.sql_read_fallbacks - before.sql_read_fallbacks,
            lock_waits: after.lock_waits - before.lock_waits,
            lock_waits_by_site: std::array::from_fn(|i| {
                after.lock_waits_by_site[i] - before.lock_waits_by_site[i]
            }),
            lock_wait_time_by_site: std::array::from_fn(|i| {
                after.wait_latency_by_site[i]
                    .total
                    .saturating_sub(before.wait_latency_by_site[i].total)
            }),
        }
    }
}

/// One experiment's recorded outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Experiment id (`"e1"`..`"e10"`).
    pub id: String,
    /// Wall-clock time for the whole experiment.
    pub elapsed: Duration,
    /// Engine counters the experiment moved.
    pub engine: EngineDelta,
    /// The tables it printed.
    pub tables: Vec<RecordedTable>,
}

static PENDING_TABLES: Mutex<Vec<RecordedTable>> = Mutex::new(Vec::new());

/// Records one printed table into the pending set (called by
/// [`Table::print`](crate::harness::Table::print)).
pub fn record_table(title: &str, headers: &[String], rows: &[Vec<String>]) {
    PENDING_TABLES.lock().unwrap().push(RecordedTable {
        title: title.to_string(),
        headers: headers.to_vec(),
        rows: rows.to_vec(),
    });
}

/// Takes all tables recorded since the last drain (called once per
/// experiment by the runner).
pub fn drain_tables() -> Vec<RecordedTable> {
    std::mem::take(&mut *PENDING_TABLES.lock().unwrap())
}

/// Escapes a string for inclusion in a JSON document.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_str_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", esc(s))).collect();
    format!("[{}]", quoted.join(","))
}

/// Renders the full run report as a JSON document.
pub fn to_json(scale: &str, records: &[ExperimentRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"tool\": \"ordxml-bench report\",\n");
    out.push_str(&format!("  \"scale\": \"{}\",\n", esc(scale)));
    out.push_str("  \"experiments\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"id\": \"{}\",\n", esc(&r.id)));
        out.push_str(&format!(
            "      \"elapsed_ms\": {:.3},\n",
            r.elapsed.as_secs_f64() * 1e3
        ));
        out.push_str("      \"engine\": {\n");
        out.push_str(&format!(
            "        \"statements_executed\": {},\n        \"statement_errors\": {},\n        \
             \"slow_statements\": {},\n        \"read_statements\": {},\n        \
             \"read_time_ms\": {:.3},\n        \"write_statements\": {},\n        \
             \"write_time_ms\": {:.3},\n        \"btree_descents\": {},\n        \
             \"btree_descent_reuses\": {},\n        \"plan_cache_hits\": {},\n        \"plan_cache_misses\": {},\n        \
             \"wal_frames_written\": {},\n        \"txn_commits\": {},\n        \
             \"txn_rollbacks\": {},\n        \"recoveries_run\": {},\n        \
             \"queries_timed_out\": {},\n        \"queries_canceled\": {},\n        \
             \"read_retries\": {},\n        \"degraded_entries\": {},\n        \
             \"degraded_rejects\": {},\n        \"serve_sessions\": {},\n        \
             \"serve_requests\": {},\n        \"sql_read_fallbacks\": {},\n        \
             \"lock_waits\": {},\n",
            r.engine.statements,
            r.engine.statement_errors,
            r.engine.slow_statements,
            r.engine.read_statements,
            r.engine.read_time.as_secs_f64() * 1e3,
            r.engine.write_statements,
            r.engine.write_time.as_secs_f64() * 1e3,
            r.engine.btree_descents,
            r.engine.btree_descent_reuses,
            r.engine.plan_cache_hits,
            r.engine.plan_cache_misses,
            r.engine.wal_frames_written,
            r.engine.txn_commits,
            r.engine.txn_rollbacks,
            r.engine.recoveries_run,
            r.engine.queries_timed_out,
            r.engine.queries_canceled,
            r.engine.read_retries,
            r.engine.degraded_entries,
            r.engine.degraded_rejects,
            r.engine.serve_sessions,
            r.engine.serve_requests,
            r.engine.sql_read_fallbacks,
            r.engine.lock_waits,
        ));
        for (i, site) in WaitSite::ALL.iter().enumerate() {
            out.push_str(&format!(
                "        \"lock_waits_{}\": {},\n        \"lock_wait_time_{}_ms\": {:.3}{}\n",
                site.name(),
                r.engine.lock_waits_by_site[i],
                site.name(),
                r.engine.lock_wait_time_by_site[i].as_secs_f64() * 1e3,
                if i + 1 < WaitSite::ALL.len() { "," } else { "" },
            ));
        }
        out.push_str("      },\n");
        out.push_str("      \"tables\": [\n");
        for (j, t) in r.tables.iter().enumerate() {
            out.push_str("        {\n");
            out.push_str(&format!("          \"title\": \"{}\",\n", esc(&t.title)));
            out.push_str(&format!(
                "          \"headers\": {},\n",
                json_str_array(&t.headers)
            ));
            out.push_str("          \"rows\": [\n");
            for (k, row) in t.rows.iter().enumerate() {
                out.push_str(&format!("            {}", json_str_array(row)));
                out.push_str(if k + 1 < t.rows.len() { ",\n" } else { "\n" });
            }
            out.push_str("          ]\n");
            out.push_str(if j + 1 < r.tables.len() {
                "        },\n"
            } else {
                "        }\n"
            });
        }
        out.push_str("      ]\n");
        out.push_str(if i + 1 < records.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str) -> ExperimentRecord {
        ExperimentRecord {
            id: id.into(),
            elapsed: Duration::from_millis(12),
            engine: EngineDelta {
                statements: 7,
                ..EngineDelta::default()
            },
            tables: vec![RecordedTable {
                title: "t \"quoted\"".into(),
                headers: vec!["a".into(), "b".into()],
                rows: vec![vec!["1".into(), "x\ny".into()]],
            }],
        }
    }

    #[test]
    fn json_escapes_and_structures() {
        let json = to_json("quick", &[record("e1"), record("e2")]);
        assert!(json.contains("\"id\": \"e1\""));
        assert!(json.contains("\"statements_executed\": 7"));
        assert!(json.contains("\"btree_descents\": 0"));
        assert!(json.contains("\"wal_frames_written\": 0"));
        assert!(json.contains("\"txn_commits\": 0"));
        assert!(json.contains("\"sql_read_fallbacks\": 0"));
        assert!(json.contains("\"lock_waits\": 0"));
        assert!(json.contains("\"lock_waits_backend\": 0"));
        assert!(json.contains("\"lock_waits_snapshot\": 0"));
        assert!(json.contains("\"lock_waits_obs\": 0"));
        assert!(json.contains("\"lock_wait_time_store_ms\": 0.000"));
        assert!(json.contains("t \\\"quoted\\\""));
        assert!(json.contains("x\\ny"));
        // Crude balance check on the hand-rolled writer.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn report_with_adversarial_cells_is_valid_json_and_round_trips() {
        // Every control character, both quote styles, backslashes, and
        // multi-byte text — pushed through title, headers, and cells of a
        // full report document, then checked against the hand-rolled
        // validator and decoded back byte-for-byte.
        let mut hostile = String::from("label \"q\" \\ é 世界 ");
        for b in 0u8..0x20 {
            hostile.push(b as char);
        }
        let rec = ExperimentRecord {
            id: hostile.clone(),
            elapsed: Duration::from_millis(1),
            engine: EngineDelta::default(),
            tables: vec![RecordedTable {
                title: hostile.clone(),
                headers: vec![hostile.clone(), "plain".into()],
                rows: vec![vec![hostile.clone(), "v".into()]],
            }],
        };
        let json = to_json(&hostile, &[rec]);
        crate::json::validate(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        let strings = crate::json::decoded_strings(&json).unwrap();
        let hits = strings.iter().filter(|s| **s == hostile).count();
        // scale + id + title + one header + one cell.
        assert_eq!(hits, 5, "adversarial label lost in round-trip:\n{json}");
    }

    #[test]
    fn empty_and_nested_reports_stay_valid() {
        crate::json::validate(&to_json("quick", &[])).unwrap();
        let rec = ExperimentRecord {
            id: "e0".into(),
            elapsed: Duration::ZERO,
            engine: EngineDelta::default(),
            tables: vec![RecordedTable {
                title: "empty".into(),
                headers: Vec::new(),
                rows: Vec::new(),
            }],
        };
        crate::json::validate(&to_json("full", &[rec])).unwrap();
    }

    #[test]
    fn drain_returns_recorded_tables() {
        // The pending set is global; other tests print tables too, so only
        // assert our own table shows up after recording.
        record_table("drain-me", &["h".into()], &[vec!["v".into()]]);
        let drained = drain_tables();
        assert!(drained.iter().any(|t| t.title == "drain-me"));
        assert!(!drained.is_empty());
    }

    #[test]
    fn engine_delta_subtracts() {
        let mut before = ObsSnapshot::default();
        let mut after = ObsSnapshot::default();
        before.statements = 10;
        after.statements = 25;
        after.read_latency.count = 5;
        after.read_latency.total = Duration::from_millis(3);
        let d = EngineDelta::between(&before, &after);
        assert_eq!(d.statements, 15);
        assert_eq!(d.read_statements, 5);
        assert_eq!(d.read_time, Duration::from_millis(3));
    }
}
