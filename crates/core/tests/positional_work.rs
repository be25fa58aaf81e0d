//! Positional predicates in linear work. The paper's translation counts a
//! candidate's siblings with a correlated `COUNT(*)` per candidate; the
//! engine answers those counts from a per-statement memo, so a positional
//! step over n siblings fetches O(n) rows, not n²/2. Checked on flat
//! documents under every encoding, in memory and on the file backend.

use ordxml::{Encoding, XmlStore};
use ordxml_rdbms::Database;

fn flat(n: usize) -> ordxml_xml::Document {
    let mut xml = String::from("<r>");
    for i in 0..n {
        xml.push_str(&format!("<c>{i}</c>"));
    }
    xml.push_str("</r>");
    ordxml_xml::parse(&xml).unwrap()
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ordxml-poswork-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(ordxml_rdbms::storage::wal_path(&path));
    path
}

fn check(store: &XmlStore, d: i64, n: usize, label: &str) {
    let k = n / 2;
    let queries = [
        (format!("/r/c[{k}]"), 1),
        ("/r/c[last()]".to_string(), 1),
        ("/r/c[position() <= 10]".to_string(), 10),
        (
            format!("/r/c[{k}]/following-sibling::c[position() <= 5]"),
            5,
        ),
    ];
    let bound = 4 * n as u64 + 16;
    for (q, hits) in &queries {
        let (got, diag) = store.xpath_diagnostics(d, q).unwrap();
        assert_eq!(got.len(), *hits, "{label}: {q}");
        assert!(
            diag.stats.rows_scanned <= bound,
            "{label}: {q} fetched {} rows, more than 4n + 16 = {bound}",
            diag.stats.rows_scanned
        );
    }
}

#[test]
fn positional_predicates_fetch_linear_rows() {
    for n in [50, 500] {
        let doc = flat(n);
        for enc in Encoding::all() {
            let store = XmlStore::new(Database::in_memory(), enc);
            let d = store.load_document(&doc, "flat").unwrap();
            check(&store, d, n, &format!("mem/{enc}/n={n}"));

            let path = temp_path(&format!("{}-{n}.db", enc.name()));
            let store = XmlStore::new(Database::open(&path, 64).unwrap(), enc);
            let d = store.load_document(&doc, "flat").unwrap();
            check(&store, d, n, &format!("file/{enc}/n={n}"));
            drop(store);
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(ordxml_rdbms::storage::wal_path(&path));
        }
    }
}

/// The number after `key=` on `line`.
fn field(line: &str, key: &str) -> u64 {
    let at = line
        .find(&format!("{key}="))
        .unwrap_or_else(|| panic!("{key} in {line}"));
    let digits: String = line[at + key.len() + 1..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

/// `EXPLAIN ANALYZE` of a positional step's statement ends its report with
/// the statement's work, right after the rows it returned: the numbers are
/// the statement's own settled counters, and its rows examined are the ones
/// the store reports for the XPath query.
#[test]
fn explain_analyze_reports_the_statements_work() {
    let n = 200;
    let doc = flat(n);
    for enc in Encoding::all() {
        for file in [false, true] {
            let path = temp_path(&format!("work-{}.db", enc.name()));
            let db = if file {
                Database::open(&path, 64).unwrap()
            } else {
                Database::in_memory()
            };
            let label = format!("{}/{enc}", if file { "file" } else { "mem" });
            let store = XmlStore::new(db, enc);
            let d = store.load_document(&doc, "flat").unwrap();
            for q in ["/r/c[20]", "/r/c[last()]", "/r/c[position() <= 10]"] {
                let (_, diag) = store.xpath_diagnostics(d, q).unwrap();
                let [stmt] = diag.statements.as_slice() else {
                    panic!("{label}: {q} ran {} statements", diag.statements.len());
                };
                let r = store
                    .db()
                    .run_read(&format!("EXPLAIN ANALYZE {}", stmt.sql), &stmt.params)
                    .unwrap();
                let lines: Vec<String> = r
                    .rows
                    .iter()
                    .map(|row| row[0].as_text().unwrap().to_string())
                    .collect();
                let at = lines
                    .iter()
                    .position(|l| l.starts_with("Rows returned: "))
                    .unwrap_or_else(|| panic!("{label}: {q}: {lines:#?}"));
                let work = &lines[at + 1];
                assert!(work.starts_with("Work: "), "{label}: {q}: {lines:#?}");
                assert_eq!(
                    lines.iter().filter(|l| l.starts_with("Work: ")).count(),
                    1,
                    "{label}: {q}"
                );
                let s = r.stats;
                assert_eq!(field(work, "rows_examined"), s.rows_scanned, "{label}: {q}");
                assert_eq!(field(work, "index_rows"), s.index_rows, "{label}: {q}");
                assert_eq!(field(work, "logical_reads"), s.pages_read, "{label}: {q}");
                assert_eq!(
                    field(work, "btree_descents"),
                    s.btree_descents,
                    "{label}: {q}"
                );
                assert_eq!(field(work, "lock_waits"), s.lock_waits, "{label}: {q}");
                assert_eq!(
                    field(work, "rows_examined"),
                    diag.stats.rows_scanned,
                    "{label}: {q}: {work}"
                );
            }
            drop(store);
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(ordxml_rdbms::storage::wal_path(&path));
        }
    }
}
