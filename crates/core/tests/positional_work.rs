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
