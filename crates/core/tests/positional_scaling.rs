//! Positional steps read what they return. The paper translates `[k]`,
//! `position() <= k` and `last()` into a correlated `COUNT(*)` of the
//! candidate's preceding or following siblings; along the sibling walk that
//! count never decreases, so the engine ends the walk once the predicate
//! can no longer hold, and walks backwards for `last()`. A step then reads
//! O(k) rows, the same at 1,000 and at 10,000 siblings. Checked on flat
//! documents under every encoding, in memory and on the file backend, with
//! the answers compared against the DOM oracle under both positional
//! strategies.

use ordxml::naive::{DomNode, NaiveEvaluator};
use ordxml::{Encoding, PositionStrategy, XmlStore};
use ordxml_rdbms::Database;
use ordxml_xml::Document;

const SMALL: usize = 1_000;
const LARGE: usize = 10_000;

fn flat(n: usize) -> Document {
    let mut xml = String::from("<r>");
    for i in 0..n {
        xml.push_str(&format!("<c>{i}</c>"));
    }
    xml.push_str("</r>");
    ordxml_xml::parse(&xml).unwrap()
}

/// The queries whose rows examined must not depend on `n`, by label.
/// `[n - 6]` is written `[last() - 6]`: the same node, counted from the end.
fn queries(n: usize) -> Vec<(&'static str, String)> {
    vec![
        ("[6]", "/r/c[6]".to_string()),
        ("[last()]", "/r/c[last()]".to_string()),
        ("[position() <= 10]", "/r/c[position() <= 10]".to_string()),
        (
            "[6]/following-sibling::c[position() <= 5]",
            "/r/c[6]/following-sibling::c[position() <= 5]".to_string(),
        ),
        (
            "[n-6]/preceding-sibling::c[3]",
            format!("/r/c[last() - {}]/preceding-sibling::c[3]", 6.min(n)),
        ),
    ]
}

/// Counting `n - 7` preceding siblings is O(n) by nature, so `[n-6]` itself
/// grows with `n`; the `preceding-sibling::c[3]` step after it must not.
fn context_and_step(n: usize) -> (String, String) {
    let ctx = format!("/r/c[{}]", n - 6);
    let step = format!("{ctx}/preceding-sibling::c[3]");
    (ctx, step)
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ordxml-posscale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    remove(&path);
    path
}

fn remove(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(ordxml_rdbms::storage::wal_path(path));
}

fn rows(store: &XmlStore, d: i64, q: &str) -> u64 {
    store.xpath_diagnostics(d, q).unwrap().1.stats.rows_scanned
}

/// The store's answer as serialized XML, one entry per hit.
fn answer(store: &mut XmlStore, d: i64, q: &str) -> Vec<String> {
    let hits = store.xpath(d, q).unwrap_or_else(|e| panic!("{q}: {e}"));
    hits.iter()
        .map(|n| store.serialize(d, n).unwrap())
        .collect()
}

fn oracle(doc: &Document, q: &str) -> Vec<String> {
    let path = ordxml::xpath::parse(q).unwrap();
    NaiveEvaluator::new(doc)
        .eval(&path)
        .into_iter()
        .map(|v| match v {
            DomNode::Node(id) => doc.subtree_to_xml(id),
            other => panic!("{q}: unexpected result {other:?}"),
        })
        .collect()
}

/// Loads a flat document of `n` siblings, checks every query's answer
/// under both strategies, and returns the rows each examines under
/// `CountSubquery`, plus the rows the `preceding-sibling` step adds to its
/// `[n-6]` context.
fn measure(enc: Encoding, file: bool, n: usize) -> Vec<(String, u64)> {
    let doc = flat(n);
    let path = temp_path(&format!("{}-{n}.db", enc.name()));
    let db = if file {
        Database::open(&path, 64).unwrap()
    } else {
        Database::in_memory()
    };
    let mut store = XmlStore::new(db, enc);
    let d = store.load_document(&doc, "flat").unwrap();
    let label = format!("{}/{enc}/n={n}", if file { "file" } else { "mem" });
    let (ctx, step) = context_and_step(n);
    let mut checked: Vec<String> = queries(n).into_iter().map(|(_, q)| q).collect();
    checked.extend([ctx.clone(), step.clone()]);
    for strategy in [
        PositionStrategy::MediatorSlice,
        PositionStrategy::CountSubquery,
    ] {
        store.set_position_strategy(strategy);
        for q in &checked {
            assert_eq!(
                answer(&mut store, d, q),
                oracle(&doc, q),
                "{label}/{strategy:?}: {q}"
            );
        }
    }
    let mut work: Vec<(String, u64)> = queries(n)
        .into_iter()
        .map(|(name, q)| (name.to_string(), rows(&store, d, &q)))
        .collect();
    work.push((
        "preceding-sibling::c[3] after [n-6]".to_string(),
        rows(&store, d, &step) - rows(&store, d, &ctx),
    ));
    drop(store);
    remove(&path);
    work
}

#[test]
fn positional_steps_examine_as_many_rows_at_10000_siblings_as_at_1000() {
    for enc in Encoding::all() {
        for file in [false, true] {
            let small = measure(enc, file, SMALL);
            let large = measure(enc, file, LARGE);
            assert_eq!(
                small,
                large,
                "{enc} ({}): rows examined at n = {SMALL} vs n = {LARGE}",
                if file { "file" } else { "memory" }
            );
        }
    }
}
