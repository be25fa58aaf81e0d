//! Machine-readable run reports.
//!
//! Every [`Table`](crate::harness::Table) an experiment prints is also
//! recorded here, and [`crate::experiments::run`] brackets each experiment
//! with two readings of the engine's work ledgers summed over every thread
//! ([`Ledger::process`]), so one run yields both the human tables on
//! stdout and a JSON document (`BENCH_report.json`) with the same numbers
//! plus per-experiment engine counters. The JSON is written by hand — the
//! build environment has no serialization crates — with full string
//! escaping, so any cell content round-trips.

use ordxml_rdbms::governance::{Ledger, Work};
use ordxml_rdbms::obs::WaitSite;
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

/// One experiment's recorded outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Experiment id (`"e1"`..`"e10"`).
    pub id: String,
    /// Wall-clock time for the whole experiment.
    pub elapsed: Duration,
    /// Engine work the experiment did: the difference of two
    /// [`Ledger::process`] readings.
    pub engine: Ledger,
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
        let mut fields: Vec<String> = Work::ALL
            .iter()
            .map(|&w| format!("\"{}\": {}", w.name(), r.engine[w]))
            .collect();
        for site in WaitSite::ALL {
            let (name, waited) = (site.name(), r.engine.wait_time(site));
            fields.push(format!("\"lock_waits_{name}\": {}", r.engine.waits(site)));
            fields.push(format!(
                "\"lock_wait_time_{name}_ms\": {:.3}",
                waited.as_secs_f64() * 1e3
            ));
        }
        out.push_str(&format!("        {}\n", fields.join(",\n        ")));
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
            engine: Ledger::default(),
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
        assert!(json.contains("\"read_statements\": 0"));
        assert!(json.contains("\"btree_descents\": 0"));
        assert!(json.contains("\"wal_frames_written\": 0"));
        assert!(json.contains("\"sql_read_fallbacks\": 0"));
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
            engine: Ledger::default(),
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
            engine: Ledger::default(),
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
        use ordxml_rdbms::governance::count;
        count(Work::WriteStatement);
        let before = Ledger::read();
        count(Work::ReadStatement);
        count(Work::ReadNanos);
        let rec = ExperimentRecord {
            engine: Ledger::read().since(&before),
            ..record("e1")
        };
        let json = to_json("quick", &[rec]);
        assert!(json.contains("\"read_statements\": 1,"), "{json}");
        assert!(json.contains("\"read_ns\": 1,"), "{json}");
        assert!(json.contains("\"write_statements\": 0,"), "{json}");
    }
}
