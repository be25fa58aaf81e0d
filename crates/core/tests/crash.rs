//! The crash-point matrix: for every encoding and every ordered-update kind,
//! crash at every WAL frame boundary of the update's commit, reopen (running
//! recovery), and assert the store equals either the pre-update or the
//! post-update document — never a torn in-between state.
//!
//! Each case works on a byte-for-byte snapshot of a checkpointed database
//! file: restore the snapshot, discover how many WAL frames the update
//! appends on a clean run, then replay the same update once per frame
//! boundary with [`FaultInjector::crash_after_wal_frames`] armed.

use ordxml::{Encoding, OrderConfig, XmlStore};
use ordxml_rdbms::{storage::wal_path, Database};
use ordxml_xml::{parse as parse_xml, Document, GenConfig, NodePath};
use proptest::prelude::*;

const BASE: &str = "<catalog>\
    <item id=\"i1\"><name>Alpha</name><price>30</price></item>\
    <item id=\"i2\"><name>Beta</name><price>10</price></item>\
    <section><item id=\"i3\"><name>Gamma</name></item></section>\
    </catalog>";

/// One logical update, applicable to a DOM document and to a store.
#[derive(Debug, Clone)]
enum Update {
    Insert(NodePath, usize, String),
    Delete(NodePath),
    Move(NodePath, NodePath, usize),
    SetText(NodePath, String),
}

impl Update {
    fn apply_dom(&self, doc: &mut Document) {
        match self {
            Update::Insert(parent, index, xml) => {
                let frag = parse_xml(xml).unwrap();
                let p = parent.resolve(doc).unwrap();
                let at = (*index).min(doc.children(p).len());
                doc.graft(p, at, &frag, frag.root());
            }
            Update::Delete(path) => {
                let n = path.resolve(doc).unwrap();
                doc.remove_subtree(n);
            }
            Update::Move(from, to, index) => {
                let src = from.resolve(doc).unwrap();
                let dest = to.resolve(doc).unwrap();
                let tmp = {
                    let mut frag = Document::new("tmp");
                    let r = frag.root();
                    frag.graft(r, 0, doc, src);
                    frag
                };
                doc.remove_subtree(src);
                let at = (*index).min(doc.children(dest).len());
                doc.graft(dest, at, &tmp, tmp.children(tmp.root())[0]);
            }
            Update::SetText(path, text) => {
                let n = path.resolve(doc).unwrap();
                doc.set_text(n, text);
            }
        }
    }

    fn apply_store(&self, store: &mut XmlStore, d: i64) -> Result<(), ordxml::StoreError> {
        match self {
            Update::Insert(parent, index, xml) => {
                let frag = parse_xml(xml).unwrap();
                store.insert_fragment(d, parent, *index, &frag).map(|_| ())
            }
            Update::Delete(path) => store.delete_subtree(d, path).map(|_| ()),
            Update::Move(from, to, index) => store.move_subtree(d, from, to, *index).map(|_| ()),
            Update::SetText(path, text) => store.update_text(d, path, text).map(|_| ()),
        }
    }
}

struct Snapshot {
    path: std::path::PathBuf,
    bytes: Vec<u8>,
    doc_id: i64,
}

impl Snapshot {
    /// Loads `doc` into a fresh file-backed store with a tight numbering gap
    /// (so inserts renumber and the transactions have real breadth), then
    /// checkpoints and captures the database file bytes. Each test passes
    /// its own `test` directory name, so tests running in parallel never
    /// share a database file.
    fn build(test: &str, name: &str, enc: Encoding, doc: &Document) -> Snapshot {
        let dir = std::env::temp_dir()
            .join(format!("ordxml-crash-{}", std::process::id()))
            .join(test);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.db", enc.name()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(wal_path(&path));
        let store = XmlStore::new(Database::open(&path, 16).unwrap(), enc);
        let doc_id = store
            .load_document_with(doc, "crash", OrderConfig::with_gap(2))
            .unwrap();
        store.db().checkpoint().unwrap();
        drop(store);
        let bytes = std::fs::read(&path).unwrap();
        Snapshot {
            path,
            bytes,
            doc_id,
        }
    }

    /// Restores the pristine database file (removing any WAL leftover) and
    /// opens a fresh store over it.
    fn restore_with(&self, enc: Encoding) -> XmlStore {
        std::fs::write(&self.path, &self.bytes).unwrap();
        let _ = std::fs::remove_file(wal_path(&self.path));
        XmlStore::new(Database::open(&self.path, 16).unwrap(), enc)
    }

    /// Reopens the crashed database in place (recovery runs inside open).
    fn restore_recovered(&self, enc: Encoding) -> XmlStore {
        XmlStore::new(Database::open(&self.path, 16).unwrap(), enc)
    }

    fn cleanup(&self) {
        let _ = std::fs::remove_file(&self.path);
        let _ = std::fs::remove_file(wal_path(&self.path));
    }
}

/// Runs the full frame-boundary matrix for one (encoding, update) pair.
/// Returns the number of crash points exercised.
fn crash_matrix(test: &str, name: &str, enc: Encoding, base: &Document, update: &Update) -> u64 {
    let snap = Snapshot::build(test, name, enc, base);
    let pre = base.clone();
    let mut post = base.clone();
    update.apply_dom(&mut post);

    // Clean run: discover the update's WAL frame count.
    let mut store = snap.restore_with(enc);
    let before = store.db().faults().wal_frames_observed();
    update.apply_store(&mut store, snap.doc_id).unwrap();
    let frames = store.db().faults().wal_frames_observed() - before;
    assert!(frames > 0, "{name}/{enc}: update committed no WAL frames");
    let rebuilt = store.reconstruct_document(snap.doc_id).unwrap();
    assert!(post.tree_eq(&rebuilt), "{name}/{enc}: clean run diverged");
    drop(store);

    // Crash at every frame boundary: k frames of the update land, frame
    // k+1 fails. k == frames means no fault fires and the update commits.
    for k in 0..=frames {
        let mut store = snap.restore_with(enc);
        store.db().faults().crash_after_wal_frames(k);
        let res = update.apply_store(&mut store, snap.doc_id);
        if k < frames {
            assert!(res.is_err(), "{name}/{enc} k={k}: update must fail");
        } else {
            assert!(res.is_ok(), "{name}/{enc} k={k}: no fault should fire");
        }
        // The process "dies": no Drop, no shutdown checkpoint.
        std::mem::forget(store);
        let store = snap.restore_recovered(enc);
        let rebuilt = store.reconstruct_document(snap.doc_id).unwrap();
        let is_pre = pre.tree_eq(&rebuilt);
        let is_post = post.tree_eq(&rebuilt);
        assert!(
            is_pre || is_post,
            "{name}/{enc} k={k}/{frames}: torn state after recovery:\n pre  {}\n post {}\n got  {}",
            pre.to_xml(),
            post.to_xml(),
            rebuilt.to_xml()
        );
        // Stronger: the commit frame is the last of the transaction, so any
        // crash before it must recover to exactly the pre-update document.
        if k < frames {
            assert!(is_pre, "{name}/{enc} k={k}: partial update leaked");
        } else {
            assert!(is_post, "{name}/{enc} k={k}: committed update lost");
        }
        drop(store);
    }
    snap.cleanup();
    frames + 1
}

fn update_kinds() -> Vec<(&'static str, Update)> {
    vec![
        (
            "insert",
            Update::Insert(
                NodePath(vec![]),
                1,
                "<new a=\"1\"><x>t</x><y/></new>".to_string(),
            ),
        ),
        ("delete", Update::Delete(NodePath(vec![1]))),
        (
            "move",
            Update::Move(NodePath(vec![0]), NodePath(vec![2]), 0),
        ),
        (
            "text",
            Update::SetText(NodePath(vec![0, 0, 0]), "Alpha Prime".to_string()),
        ),
    ]
}

#[test]
fn every_frame_boundary_recovers_to_pre_or_post_state() {
    let base = parse_xml(BASE).unwrap();
    let mut points = 0;
    for enc in Encoding::all() {
        for (name, update) in update_kinds() {
            points += crash_matrix("frame-matrix", name, enc, &base, &update);
        }
    }
    // Sanity: the matrix actually exercised a spread of crash points.
    assert!(points > 24, "only {points} crash points covered");
}

#[test]
fn renumbering_pass_is_atomic_under_crash() {
    // The offline renumber rewrites every row of the document in one
    // transaction; crashing anywhere inside it must leave the old numbering
    // intact (structurally: the same tree).
    let base = parse_xml(BASE).unwrap();
    for enc in Encoding::all() {
        let snap = Snapshot::build("renumber", "renumber", enc, &base);
        let store = snap.restore_with(enc);
        let before = store.db().faults().wal_frames_observed();
        store.renumber_document(snap.doc_id).unwrap();
        let frames = store.db().faults().wal_frames_observed() - before;
        drop(store);
        for k in [0, 1, frames / 2, frames.saturating_sub(1)] {
            let store = snap.restore_with(enc);
            store.db().faults().crash_after_wal_frames(k);
            assert!(store.renumber_document(snap.doc_id).is_err(), "{enc} k={k}");
            std::mem::forget(store);
            let store = snap.restore_recovered(enc);
            let rebuilt = store.reconstruct_document(snap.doc_id).unwrap();
            assert!(
                base.tree_eq(&rebuilt),
                "{enc} k={k}/{frames}: renumber crash tore the document"
            );
            drop(store);
        }
        snap.cleanup();
    }
}

// -----------------------------------------------------------------------
// Property-based crash points: random documents, random updates, every
// frame boundary of each sampled case.
// -----------------------------------------------------------------------

fn arb_update() -> impl Strategy<Value = (u8, u8, u8)> {
    // (kind, position/path selector, payload selector)
    (0u8..3, any::<u8>(), any::<u8>())
}

/// Concretizes an abstract update against a document's actual root fanout.
fn concretize(doc: &Document, kind: u8, sel: u8, payload: u8) -> Option<Update> {
    let kids = doc.children(doc.root()).len();
    match kind {
        0 => {
            let frags = [
                "<n/>",
                "<n a=\"1\">t</n>",
                "<n><d><leaf>v</leaf></d><d2/></n>",
            ];
            Some(Update::Insert(
                NodePath(vec![]),
                sel as usize % (kids + 1),
                frags[payload as usize % frags.len()].to_string(),
            ))
        }
        1 if kids > 0 => Some(Update::Delete(NodePath(vec![sel as usize % kids]))),
        2 if kids > 1 => {
            let from = sel as usize % kids;
            Some(Update::Move(
                NodePath(vec![from]),
                NodePath(vec![]),
                payload as usize % kids,
            ))
        }
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_updates_never_tear_under_crash(
        seed in 0u64..1000,
        size in 10usize..40,
        (kind, sel, payload) in arb_update(),
        enc_pick in 0usize..3,
    ) {
        let doc = GenConfig::mixed(size).with_seed(seed).generate();
        let enc = Encoding::all()[enc_pick];
        if let Some(update) = concretize(&doc, kind, sel, payload) {
            crash_matrix("prop", "random", enc, &doc, &update);
        }
    }
}
