//! Ordered updates address a node by its child positions. Each step reads
//! only the child it addresses (after a short probe over the leading
//! attributes), so resolving a node or finding an insertion point costs a
//! bounded number of rows however many siblings it has. Checked on flat
//! documents under every encoding, in memory and on the file backend,
//! against the DOM: every update must leave the same document behind.

use ordxml::{Encoding, StoreError, XmlStore};
use ordxml_rdbms::Database;
use ordxml_xml::{Document, NodePath};

/// The root's attribute count: enough that the attribute probe doubles its
/// window three times.
const ATTRS: usize = 9;

/// Rows one addressed operation may fetch: 16 plus the attribute count,
/// which the attribute probe reads about twice over.
const BOUND: u64 = 16 + ATTRS as u64;

/// `<r a0=".." .. a8=".."><c>0</c> .. <c>{n-1}</c></r>`.
fn flat(n: usize) -> Document {
    let mut xml = String::from("<r");
    for i in 0..ATTRS {
        xml.push_str(&format!(" a{i}=\"{i}\""));
    }
    xml.push('>');
    for i in 0..n {
        xml.push_str(&format!("<c>{i}</c>"));
    }
    xml.push_str("</r>");
    ordxml_xml::parse(&xml).unwrap()
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ordxml-addressing-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(ordxml_rdbms::storage::wal_path(&path));
    path
}

fn assert_same(store: &XmlStore, d: i64, dom: &Document, what: &str) {
    let rebuilt = store.reconstruct_document(d).unwrap();
    assert!(
        dom.tree_eq(&rebuilt),
        "{what}:\n want {}\n got  {}",
        dom.to_xml(),
        rebuilt.to_xml()
    );
}

fn assert_bounded(rows: u64, what: &str) {
    assert!(
        rows <= BOUND,
        "{what} fetched {rows} rows, more than {BOUND}"
    );
}

/// Runs `op`, asserting on the rows it fetched (read off the database's
/// cumulative counters: resolve and text updates have no diagnostics).
fn scanned<T>(store: &XmlStore, what: &str, op: impl FnOnce() -> T) -> T {
    let before = store.total_stats().rows_scanned;
    let out = op();
    assert_bounded(store.total_stats().rows_scanned - before, what);
    out
}

/// Runs every addressed operation at the front, the middle, the end and
/// past the end of the root's child list, comparing with the DOM.
fn check(store: &XmlStore, d: i64, mut dom: Document, label: &str) {
    let frag = ordxml_xml::parse("<new>x</new>").unwrap();
    for pick in ["front", "middle", "len", "max"] {
        let n = dom.children(dom.root()).len();
        let index = match pick {
            "front" => 0,
            "middle" => n / 2,
            "len" => n,
            _ => usize::MAX,
        };
        let what = format!("{label} index {pick}");
        let elem = NodePath(vec![index]);
        let text = NodePath(vec![index, 0]);
        let present = elem.resolve(&dom).is_some();

        let got = scanned(store, &format!("{what}: resolve"), || {
            store.resolve(d, &text)
        });
        match text.resolve(&dom) {
            Some(id) => assert_eq!(got.unwrap().value.as_deref(), dom.text(id), "{what}"),
            None => assert!(
                matches!(got, Err(StoreError::BadNode(_))),
                "{what}: {got:?}"
            ),
        }

        let got = scanned(store, &format!("{what}: update_text"), || {
            store.update_text(d, &text, "edited")
        });
        match text.resolve(&dom) {
            Some(id) => {
                got.unwrap();
                dom.set_text(id, "edited");
            }
            None => assert!(matches!(got, Err(StoreError::BadNode(_))), "{what}"),
        }
        assert_same(store, d, &dom, &format!("{what}: update_text"));

        // insert_fragment, then delete_subtree of the inserted node, which
        // landed at `index` clamped to the child count.
        let (cost, diag) = store
            .insert_fragment_diagnostics(d, &NodePath(vec![]), index, &frag)
            .unwrap();
        if cost.relabeled == 0 {
            assert_bounded(diag.stats.rows_scanned, &format!("{what}: insert"));
        }
        let root = dom.root();
        dom.graft(root, index, &frag, frag.root());
        assert_same(store, d, &dom, &format!("{what}: insert"));

        let target = NodePath(vec![index.min(n)]);
        let (_, diag) = store.delete_subtree_diagnostics(d, &target).unwrap();
        assert_bounded(diag.stats.rows_scanned, &format!("{what}: delete"));
        dom.remove_subtree(target.resolve(&dom).unwrap());
        assert_same(store, d, &dom, &format!("{what}: delete"));

        if !present {
            let got = store.delete_subtree(d, &elem);
            assert!(
                matches!(got, Err(StoreError::BadNode(_))),
                "{what}: {got:?}"
            );
        }
    }
    // Deleting the middle child for good leaves the rest addressable.
    let mid = NodePath(vec![dom.children(dom.root()).len() / 2]);
    let (_, diag) = store.delete_subtree_diagnostics(d, &mid).unwrap();
    assert_bounded(diag.stats.rows_scanned, &format!("{label}: delete middle"));
    dom.remove_subtree(mid.resolve(&dom).unwrap());
    assert_same(store, d, &dom, &format!("{label}: delete middle"));
}

#[test]
fn addressed_updates_fetch_bounded_rows() {
    for n in [50, 500] {
        let doc = flat(n);
        for enc in Encoding::all() {
            let store = XmlStore::new(Database::in_memory(), enc);
            let d = store.load_document(&doc, "flat").unwrap();
            check(&store, d, doc.clone(), &format!("mem/{enc}/n={n}"));

            let path = temp_path(&format!("{}-{n}.db", enc.name()));
            let store = XmlStore::new(Database::open(&path, 64).unwrap(), enc);
            let d = store.load_document(&doc, "flat").unwrap();
            check(&store, d, doc.clone(), &format!("file/{enc}/n={n}"));
            drop(store);
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(ordxml_rdbms::storage::wal_path(&path));
        }
    }
}
