//! Reconstruction: relational rows → XML subtrees.
//!
//! Reconstruction fetches a subtree's rows *in document order* through the
//! mediator's set-at-a-time descendant fetch ([`crate::translate`]): one
//! multi-range scan over the `(pos, desc_max]` intervals for Global or the
//! key-prefix ranges for Dewey, and a level-synchronous walk of batched
//! child queries (one statement per tree level) for Local. It then rebuilds
//! each tree by parent linkage, which works in one pass precisely because
//! document order lists every parent before its children.
//!
//! [`serialize_many`] serves a whole result set this way: the subtrees of
//! every element hit come back from that one fetch, so a reply costs the
//! same number of statements whether it has one hit or a thousand.

use crate::encoding::Encoding;
use crate::shred::{KIND_ATTR, KIND_COMMENT, KIND_ELEMENT, KIND_PI, KIND_TEXT};
use crate::store::{NodeRef, StoreError, StoreResult, XNode};
use ordxml_rdbms::SqlRead;
use ordxml_xml::{Document, NodeId, NodeKind, WriteOptions};

/// Serializes the subtree rooted at `node`: XML text for elements, the raw
/// value for text/attribute/comment/PI nodes.
pub fn serialize_subtree(
    db: &dyn SqlRead,
    enc: Encoding,
    doc: i64,
    node: &XNode,
) -> StoreResult<String> {
    Ok(serialize_many(db, enc, doc, std::slice::from_ref(node))?.swap_remove(0))
}

/// Serializes every node of `nodes`, in order, as [`serialize_subtree`]
/// would one at a time. Non-element nodes return their value without a
/// statement; the subtrees of all element nodes come from one batched
/// fetch (one statement for Dewey and Global, one per tree level for
/// Local), and no statement runs at all when there is no element node.
pub fn serialize_many(
    db: &dyn SqlRead,
    enc: Encoding,
    doc: i64,
    nodes: &[XNode],
) -> StoreResult<Vec<String>> {
    let roots: Vec<XNode> = nodes.iter().filter(|n| n.is_element()).cloned().collect();
    let mut subtrees = if roots.is_empty() {
        Vec::new()
    } else {
        crate::translate::subtrees(db, enc, doc, &roots)?
    }
    .into_iter();
    let options = WriteOptions::compact();
    nodes
        .iter()
        .map(|node| {
            if !node.is_element() {
                return Ok(node.value.clone().unwrap_or_default());
            }
            let rows = subtrees.next().expect("one subtree per element node");
            Ok(ordxml_xml::writer::write(
                &build_tree(node, &rows)?,
                &options,
            ))
        })
        .collect()
}

/// Rebuilds the subtree rooted at `node` (an element) as a standalone
/// [`Document`].
pub fn subtree_document(
    db: &dyn SqlRead,
    enc: Encoding,
    doc: i64,
    node: &XNode,
) -> StoreResult<Document> {
    if node.kind != KIND_ELEMENT {
        return Err(StoreError::BadNode(
            "only element subtrees can be reconstructed as documents".into(),
        ));
    }
    let rows = crate::translate::subtrees(db, enc, doc, std::slice::from_ref(node))?;
    build_tree(node, rows.first().map_or(&[], Vec::as_slice))
}

/// Whether `parent` is the parent of `child` (both of one encoding).
fn is_parent(parent: &NodeRef, child: &NodeRef) -> bool {
    match (parent, child) {
        (NodeRef::Global { pos, .. }, NodeRef::Global { parent, .. }) => pos == parent,
        (NodeRef::Local { id, .. }, NodeRef::Local { parent, .. }) => id == parent,
        (NodeRef::Dewey { key: p }, NodeRef::Dewey { key: c }) => c
            .components()
            .split_last()
            .is_some_and(|(_, up)| up == p.components()),
        _ => false,
    }
}

/// Builds a [`Document`] from a root element node plus its descendants in
/// document order.
fn build_tree(root: &XNode, descendants: &[XNode]) -> StoreResult<Document> {
    let root_tag = root
        .tag
        .clone()
        .ok_or_else(|| StoreError::BadNode("element row without a tag".into()))?;
    let mut document = Document::new(root_tag);
    // Document order lists a node after its parent and before anything
    // outside the parent's subtree, so every row's parent is one of the
    // elements still open on this stack.
    let mut open: Vec<(&NodeRef, NodeId)> = vec![(&root.node, document.root())];
    for n in descendants {
        while open.last().is_some_and(|(p, _)| !is_parent(p, &n.node)) {
            open.pop();
        }
        let &(_, parent) = open.last().ok_or_else(|| {
            StoreError::BadNode(format!(
                "orphan row {} during reconstruction",
                n.node.display_key()
            ))
        })?;
        match n.kind {
            KIND_ATTR => {
                document.set_attr(
                    parent,
                    n.tag.clone().unwrap_or_default(),
                    n.value.clone().unwrap_or_default(),
                );
            }
            KIND_ELEMENT => {
                let id = document.insert_node(
                    parent,
                    usize::MAX,
                    NodeKind::Element {
                        tag: n.tag.clone().unwrap_or_default(),
                        attrs: Vec::new(),
                    },
                );
                open.push((&n.node, id));
            }
            KIND_TEXT => {
                document.insert_node(
                    parent,
                    usize::MAX,
                    NodeKind::Text(n.value.clone().unwrap_or_default()),
                );
            }
            KIND_COMMENT => {
                document.insert_node(
                    parent,
                    usize::MAX,
                    NodeKind::Comment(n.value.clone().unwrap_or_default()),
                );
            }
            KIND_PI => {
                document.insert_node(
                    parent,
                    usize::MAX,
                    NodeKind::Pi {
                        target: n.tag.clone().unwrap_or_default(),
                        data: n.value.clone().unwrap_or_default(),
                    },
                );
            }
            k => {
                return Err(StoreError::BadNode(format!("unknown node kind {k}")));
            }
        }
    }
    Ok(document)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoding;
    use crate::store::XmlStore;
    use ordxml_rdbms::{governance, Database, DbResult, QueryResult, Value};
    use ordxml_xml::parse as parse_xml;
    use std::cell::Cell;

    const XML: &str = "<a x=\"1\"><b>t<!-- c --><?pi d?></b><c><d/><e>deep</e></c></a>";

    fn store_with(enc: Encoding) -> (XmlStore, i64) {
        let s = XmlStore::new(Database::in_memory(), enc);
        let d = s.load_document(&parse_xml(XML).unwrap(), "t").unwrap();
        (s, d)
    }

    #[test]
    fn inner_subtree_serialization() {
        for enc in Encoding::all() {
            let (s, d) = store_with(enc);
            let hits = s.xpath(d, "/a/c").unwrap();
            assert_eq!(
                s.serialize(d, &hits[0]).unwrap(),
                "<c><d/><e>deep</e></c>",
                "{enc}"
            );
            // Mixed-content subtree with comment and PI.
            let hits = s.xpath(d, "/a/b").unwrap();
            assert_eq!(
                s.serialize(d, &hits[0]).unwrap(),
                "<b>t<!-- c --><?pi d?></b>",
                "{enc}"
            );
        }
    }

    #[test]
    fn subtrees_are_document_ordered_and_exclude_the_root() {
        for enc in Encoding::all() {
            let (s, d) = store_with(enc);
            let root = s.root(d).unwrap();
            let c = s.xpath(d, "/a/c").unwrap().remove(0);
            let sets = crate::translate::subtrees(&*s.db(), enc, d, &[root, c]).unwrap();
            // 9 rows follow the root: @x, b, "t", comment, pi, c, d, e, "deep".
            let all = &sets[0];
            assert_eq!(all.len(), 9, "{enc}");
            assert_eq!(all[0].kind, crate::shred::KIND_ATTR, "{enc}");
            assert_eq!(all[1].tag.as_deref(), Some("b"), "{enc}");
            assert_eq!(all.last().unwrap().value.as_deref(), Some("deep"), "{enc}");
            // A root nested in another gets its own slice of the rows.
            assert_eq!(sets[1][..], all[6..], "{enc}");
        }
    }

    #[test]
    fn non_element_reconstruction_is_rejected() {
        for enc in Encoding::all() {
            let (s, d) = store_with(enc);
            let text = &s.xpath(d, "/a/b/text()").unwrap()[0].clone();
            assert!(subtree_document(&*s.db(), enc, d, text).is_err(), "{enc}");
            // But serialize returns its value.
            assert_eq!(s.serialize(d, text).unwrap(), "t", "{enc}");
        }
    }

    /// A `SqlRead` that counts the statements passing through it.
    struct Counting<'a> {
        inner: &'a dyn SqlRead,
        statements: Cell<u64>,
    }

    impl SqlRead for Counting<'_> {
        fn run_read(&self, sql: &str, params: &[Value]) -> DbResult<QueryResult> {
            self.statements.set(self.statements.get() + 1);
            self.inner.run_read(sql, params)
        }

        fn limits(&self) -> governance::Limits {
            self.inner.limits()
        }
    }

    /// `serialize_many` over `hits` on `s`'s committed version, with the
    /// number of statements it ran.
    fn serialize_counted(s: &XmlStore, d: i64, hits: &[XNode]) -> (Vec<String>, u64) {
        let db = s.db();
        let counting = Counting {
            inner: &*db,
            statements: Cell::new(0),
        };
        let out = serialize_many(&counting, s.encoding(), d, hits).unwrap();
        (out, counting.statements.get())
    }

    #[test]
    fn serialize_many_agrees_with_per_hit_serialize() {
        let xml = "<catalog><item id=\"i1\"><name>A</name><price>3</price><!-- c --></item>\
                   <item id=\"i2\"><name>B<?pi x?></name><sub><item id=\"n\">\
                   <name>N</name></item></sub></item><item/></catalog>";
        for enc in Encoding::all() {
            let s = XmlStore::new(Database::in_memory(), enc);
            let d = s.load_document(&parse_xml(xml).unwrap(), "t").unwrap();
            for (query, elements) in [
                ("//*", true),
                ("//node()", true),
                ("//*/@*", false),
                ("//text()", false),
                ("/catalog/item[2]//*", true),
                ("/catalog", true),
                ("/catalog/nothing", false),
            ] {
                let hits = s.xpath(d, query).unwrap();
                assert_eq!(
                    hits.is_empty(),
                    query.ends_with("nothing"),
                    "{enc}: {query}"
                );
                let one_by_one: Vec<String> =
                    hits.iter().map(|h| s.serialize(d, h).unwrap()).collect();
                let (batched, statements) = serialize_counted(&s, d, &hits);
                assert_eq!(batched, one_by_one, "{enc}: {query}");
                assert_eq!(
                    s.snapshot().unwrap().serialize_many(d, &hits).unwrap(),
                    one_by_one,
                    "{enc}: {query}"
                );
                // No element hit, no statement; otherwise one batched
                // fetch — under Local a walk of at most depth + 1 levels
                // (the text below the nested <item>'s <name> is 5 deep).
                match (elements, enc) {
                    (false, _) => assert_eq!(statements, 0, "{enc}: {query}"),
                    (true, Encoding::Local) => assert!(statements <= 5 + 1, "{enc}: {query}"),
                    (true, _) => assert_eq!(statements, 1, "{enc}: {query}"),
                }
            }
        }
    }

    #[test]
    fn serialize_many_statement_count_is_independent_of_hit_count() {
        // Items are 3 levels deep below <catalog>, so the document is 4
        // levels deep counting the text leaves.
        fn statements(enc: Encoding, items: usize) -> u64 {
            let mut xml = String::from("<catalog>");
            for i in 0..items {
                xml.push_str(&format!(
                    "<item id=\"i{i}\"><name>n{i}</name><authors><author>a{i}</author></authors></item>"
                ));
            }
            xml.push_str("</catalog>");
            let s = XmlStore::new(Database::in_memory(), enc);
            let d = s.load_document(&parse_xml(&xml).unwrap(), "t").unwrap();
            let hits = s.xpath(d, "/catalog/item").unwrap();
            assert_eq!(hits.len(), items, "{enc}");
            let (out, statements) = serialize_counted(&s, d, &hits);
            assert_eq!(
                out[items - 1],
                format!(
                    "<item id=\"i{0}\"><name>n{0}</name><authors><author>a{0}</author></authors></item>",
                    items - 1
                ),
                "{enc}"
            );
            statements
        }
        for enc in Encoding::all() {
            let few = statements(enc, 10);
            assert_eq!(few, statements(enc, 200), "{enc}");
            if enc == Encoding::Local {
                assert!(few <= 4 + 1, "{enc}: {few} statements");
            } else {
                assert_eq!(few, 1, "{enc}");
            }
        }
    }
}
