//! The oracle suite: every XPath query must return identical results through
//! the naive DOM evaluator and through all three relational translations,
//! and every update sequence must leave all three stores structurally equal
//! to the mutated DOM.

use ordxml::naive::{DomNode, NaiveEvaluator};
use ordxml::{Encoding, OrderConfig, PositionStrategy, XmlStore};
use ordxml_rdbms::Database;
use ordxml_xml::{parse as parse_xml, Document, GenConfig, NodePath};

/// Canonical rendering of a result node for cross-backend comparison.
fn canon_dom(doc: &Document, v: DomNode) -> String {
    match v {
        DomNode::Node(id) if doc.node(id).kind().is_element() => {
            format!("E:{}", doc.subtree_to_xml(id))
        }
        _ => format!(
            "k{}:{}={}",
            v.kind(doc),
            v.tag(doc).unwrap_or_default(),
            v.value(doc).unwrap_or_default()
        ),
    }
}

fn canon_store(store: &mut XmlStore, doc_id: i64, n: &ordxml::XNode) -> String {
    if n.is_element() {
        format!("E:{}", store.serialize(doc_id, n).unwrap())
    } else {
        format!(
            "k{}:{}={}",
            n.kind,
            n.tag.clone().unwrap_or_default(),
            n.value.clone().unwrap_or_default()
        )
    }
}

/// Asserts `query` agrees between the oracle and every encoding on `doc`,
/// under both positional-predicate strategies.
fn check_query(doc: &Document, query: &str) {
    check_query_under(doc, query, &STRATEGIES);
}

/// [`check_query`] under the given positional-predicate strategies only.
fn check_query_under(doc: &Document, query: &str, strategies: &[PositionStrategy]) {
    let ev = NaiveEvaluator::new(doc);
    let path = ordxml::xpath::parse(query).unwrap_or_else(|e| panic!("{query}: {e}"));
    let expected: Vec<String> = ev
        .eval(&path)
        .into_iter()
        .map(|v| canon_dom(doc, v))
        .collect();
    for enc in Encoding::all() {
        for &strategy in strategies {
            let mut store = XmlStore::new(Database::in_memory(), enc);
            store.set_position_strategy(strategy);
            let d = store.load_document(doc, "oracle").unwrap();
            let got: Vec<String> = store
                .xpath(d, query)
                .unwrap_or_else(|e| panic!("{enc}/{strategy:?}: {query}: {e}"))
                .iter()
                .map(|n| canon_store(&mut store, d, n))
                .collect();
            assert_eq!(got, expected, "{enc}/{strategy:?}: {query}");
        }
    }
}

const STRATEGIES: [PositionStrategy; 2] = [
    PositionStrategy::CountSubquery,
    PositionStrategy::MediatorSlice,
];

fn check_queries(doc: &Document, queries: &[&str]) {
    for q in queries {
        check_query(doc, q);
    }
}

/// The bench suite's E3/E5/E6 query shapes plus many-context mediator
/// shapes, oracle-checked across every encoding and both positional
/// strategies: every set-at-a-time mediator arm — including the
/// document-anchored and `self` steps `MediatorSlice` routes through it,
/// and Local's composed `following`/`preceding` — must return the DOM
/// oracle's node sequence exactly.
#[test]
fn mediator_agrees_with_oracle_on_experiment_shapes() {
    // E3 shape: a catalog of repeated items (child chains, positional
    // points/ranges, descendant sweeps).
    let mut catalog = String::from("<catalog>");
    for i in 0..40 {
        catalog.push_str(&format!(
            "<item id=\"i{i}\"><name>n{i}</name><price>{}</price></item>",
            (i * 7) % 50
        ));
    }
    catalog.push_str("<section><item id=\"x\"><name>deep</name></item></section></catalog>");
    let catalog = parse_xml(&catalog).unwrap();
    check_queries(
        &catalog,
        &[
            "/catalog",
            "/catalog/item",
            "/catalog/item[10]",
            "/catalog/item[position() <= 10]",
            "/catalog/item[last()]",
            "/catalog/item[10]/following-sibling::item[position() <= 5]",
            "//item",
            "//name",
            // Document-anchored steps (mediator under MediatorSlice).
            "/catalog[1]",
            "/catalog/item[2]/following-sibling::item[1]",
            // Many-context following/preceding (Local composes these from
            // a climb, one sibling batch and a subtree walk).
            "//item/following::name",
            "//item/following::name[1]",
            "//item/following::name[last()]",
            "//item/preceding::name",
            "//item/preceding::name[1]",
            "//item/preceding::name[last()]",
            "//name/preceding::item[1]",
            "/catalog/item[@id='i5']/following::name[position() <= 10]",
            // Attribute contexts and attribute candidates.
            "//item/@id/following::name[1]",
            "//item/@id/preceding::name[1]",
            "//item/@id/following::node()[1]",
            "//item/@id/preceding::node()[1]",
            "//name/preceding::node()[1]",
        ],
    );
    // A positional predicate on `self` has no SQL translation; only
    // MediatorSlice evaluates it (in the mediator, with no statement).
    for q in ["/catalog/self::catalog[1]", "/catalog/item/self::item[1]"] {
        check_query_under(&catalog, q, &[PositionStrategy::MediatorSlice]);
    }

    // E5 shape: one wide element, sibling windows anchored by value.
    let mut flat = String::from("<root>");
    for i in 0..30 {
        flat.push_str(&format!("<c>v{i}</c>"));
    }
    flat.push_str("</root>");
    let flat = parse_xml(&flat).unwrap();
    check_queries(
        &flat,
        &[
            "/root/c[. = 'v15']/following-sibling::c",
            "/root/c[. = 'v15']/following-sibling::c[position() <= 10]",
            "/root/c[. = 'v15']/preceding-sibling::c[1]",
            "/root/c[. = 'v15']/following-sibling::c[last()]",
        ],
    );

    // E6 shape: a deep spine with leaves at the bottom — the descendant
    // break step with many context nodes (the batched mode's target).
    let mut deep = String::from("<root>");
    for _ in 0..12 {
        deep.push_str("<d>");
    }
    for _ in 0..8 {
        deep.push_str("<leaf/>");
    }
    for _ in 0..12 {
        deep.push_str("</d>");
    }
    deep.push_str("</root>");
    let deep = parse_xml(&deep).unwrap();
    check_queries(
        &deep,
        &[
            "//leaf",
            "/root//leaf",
            "/root/d//leaf[1]",
            "//d[not(d)]",
            "//d//leaf",
            "//leaf/ancestor::d",
            "//d[last()]/following::*",
            "//leaf[1]/preceding::d",
            "//leaf/following::leaf[1]",
            "//leaf/preceding::leaf[last()]",
            "//leaf/preceding::*[1]",
        ],
    );
}

const CATALOG: &str = "<catalog>\
    <item id=\"i1\" cat=\"a\"><name>Alpha</name><price>30</price><author>Ann</author></item>\
    <item id=\"i2\"><name>Beta</name><price>10</price><author>Bob</author><author>Cid</author></item>\
    <item id=\"i3\" cat=\"b\"><name>Gamma</name><price>20</price></item>\
    <section><item id=\"i4\"><name>Delta</name><price>15</price></item>\
    <note>see also</note></section>\
    </catalog>";

const CHILD_CHAIN_QUERIES: &[&str] = &[
    "/catalog",
    "/catalog/item",
    "/catalog/item/name",
    "/catalog/item/name/text()",
    "/catalog/*",
    "/catalog/*/name",
    "/catalog/nothing",
    "/wrongroot",
    "/catalog/section/item/name",
];

const POSITIONAL_QUERIES: &[&str] = &[
    "/catalog/item[1]",
    "/catalog/item[2]/name",
    "/catalog/item[3]",
    "/catalog/item[4]",
    "/catalog/item[position() <= 2]/name",
    "/catalog/item[position() > 1]",
    "/catalog/item[position() != 2]",
    "/catalog/item[last()]",
    "/catalog/item[last() - 1]/name",
    "/catalog/item[2]/author[2]",
    "/catalog/item/author[1]",
    "/catalog/item/author[last()]",
    "/catalog/*[4]",
    // Edges of the monotone stop: positions no candidate has, the count's
    // limit at and below zero, `last()` on a reverse axis, and a second
    // positional predicate over the first one's survivors.
    "/catalog/item[0]",
    "/catalog/item[9]",
    "/catalog/item[position() < 1]",
    "/catalog/item[position() <= 0]",
    "/catalog/item[last() - 1]",
    "/catalog/item[last() - 5]",
    "/catalog/item[3]/preceding-sibling::item[last()]",
    "/catalog/section/preceding-sibling::*[2]",
    "/catalog/item[position() <= 3][last()]",
    "/catalog/item[position() <= 2][last()]",
];

const DESCENDANT_QUERIES: &[&str] = &[
    "//item",
    "//name",
    "//item//text()",
    "/catalog//item",
    "/catalog//name/text()",
    "//section//name",
    "//catalog",
    "//*",
    "//item/name",
    "//item[1]",
    "//note",
];

const SIBLING_QUERIES: &[&str] = &[
    "/catalog/item[1]/following-sibling::item",
    "/catalog/item[1]/following-sibling::*",
    "/catalog/item[3]/preceding-sibling::item",
    "/catalog/item[3]/preceding-sibling::item[1]",
    "/catalog/item[2]/name/following-sibling::author",
    "/catalog/item[1]/following-sibling::item[2]",
    "/catalog/item[1]/following-sibling::item[last()]",
    "/catalog/section/preceding-sibling::item",
];

const ATTRIBUTE_QUERIES: &[&str] = &[
    "/catalog/item/@id",
    "/catalog/item/@*",
    "/catalog/item[@id = 'i2']",
    "/catalog/item[@cat]",
    "/catalog/item[@cat = 'b']/name",
    "/catalog/item/@id/..",
    "//item[@id = 'i4']",
];

const VALUE_PREDICATE_QUERIES: &[&str] = &[
    "/catalog/item[price = '10']",
    "/catalog/item[price < '30']/name",
    "/catalog/item[price >= '20']",
    "/catalog/item[name = 'Gamma']",
    "/catalog/item/name[. = 'Beta']",
    "/catalog/item/name/text()[. = 'Beta']",
    "/catalog/item[author = 'Cid']",
    "/catalog/item[price != '10']",
    "//item[price = '15']/name",
];

const BOOLEAN_PREDICATE_QUERIES: &[&str] = &[
    "/catalog/item[author]",
    "/catalog/item[not(author)]",
    "/catalog/item[author and price = '10']",
    "/catalog/item[price = '30' or price = '20']",
    "/catalog/item[@cat and author]",
    "/catalog/item[not(@cat) and not(author)]",
    "/catalog/item[author][2]",
    "/catalog/item[2][author]",
];

const PARENT_ANCESTOR_QUERIES: &[&str] = &[
    "/catalog/item/name/..",
    "//name/..",
    "//name/../..",
    "//author/ancestor::catalog",
    "//author/ancestor::*",
    "//item/ancestor::section",
    "/catalog/section/item/ancestor::*",
    "/catalog/./item",
    "/catalog/item/.",
];

const FOLLOWING_PRECEDING_QUERIES: &[&str] = &[
    "/catalog/item[2]/following::author",
    "/catalog/item[2]/name/following::name",
    "/catalog/item[2]/preceding::author",
    "/catalog/item[2]/name/preceding::text()",
    "/catalog/section/note/preceding::item",
    "/catalog/item[1]/author/following::item",
    "/catalog/item[3]/preceding::*[1]",
    "/catalog/item[1]/following::*[2]",
    "/catalog/item[2]/following::*[last()]",
    "//note/preceding::name",
    "//author[1]/following::price",
    "/catalog/item[1]/following::item[price = '20']",
];

const MIXED_AXIS_QUERIES: &[&str] = &[
    "//item/following-sibling::*",
    "//author/../price",
    "/catalog/item[2]/author[1]/following-sibling::author",
    "//section/item//text()",
    "/catalog/*[name]/price",
    "//item[last()]",
];

#[test]
fn child_chains() {
    let doc = parse_xml(CATALOG).unwrap();
    check_queries(&doc, CHILD_CHAIN_QUERIES);
}

#[test]
fn positional_predicates() {
    let doc = parse_xml(CATALOG).unwrap();
    check_queries(&doc, POSITIONAL_QUERIES);
}

#[test]
fn descendants() {
    let doc = parse_xml(CATALOG).unwrap();
    check_queries(&doc, DESCENDANT_QUERIES);
}

#[test]
fn siblings() {
    let doc = parse_xml(CATALOG).unwrap();
    check_queries(&doc, SIBLING_QUERIES);
}

#[test]
fn attributes() {
    let doc = parse_xml(CATALOG).unwrap();
    check_queries(&doc, ATTRIBUTE_QUERIES);
}

#[test]
fn value_predicates() {
    let doc = parse_xml(CATALOG).unwrap();
    check_queries(&doc, VALUE_PREDICATE_QUERIES);
}

#[test]
fn boolean_predicates() {
    let doc = parse_xml(CATALOG).unwrap();
    check_queries(&doc, BOOLEAN_PREDICATE_QUERIES);
}

#[test]
fn parent_and_ancestor() {
    let doc = parse_xml(CATALOG).unwrap();
    check_queries(&doc, PARENT_ANCESTOR_QUERIES);
}

#[test]
fn following_and_preceding() {
    let doc = parse_xml(CATALOG).unwrap();
    check_queries(&doc, FOLLOWING_PRECEDING_QUERIES);
}

#[test]
fn mixed_axis_combinations() {
    let doc = parse_xml(CATALOG).unwrap();
    check_queries(&doc, MIXED_AXIS_QUERIES);
}

#[test]
fn mixed_content_and_unicode() {
    let doc = parse_xml("<p>one<b>two</b>three<i a=\"ä\">fünf 世界</i><b>six</b></p>").unwrap();
    check_queries(
        &doc,
        &[
            "/p/b",
            "/p/b[2]",
            "/p/text()",
            "/p/text()[2]",
            "/p/b[1]/following-sibling::text()",
            "/p/i/@a",
            "/p/i[. = 'fünf 世界']",
            "/p/node()",
        ],
    );
}

#[test]
fn generated_documents_agree() {
    // Deterministic random documents of each shape.
    for (i, cfg) in [
        GenConfig::wide(300),
        GenConfig::deep(300),
        GenConfig::mixed(300),
        GenConfig::mixed(800).with_seed(99),
    ]
    .into_iter()
    .enumerate()
    {
        let doc = cfg.generate();
        // Tags are level-local (t<depth>_<slot>); build queries from actual tags.
        let root_tag = doc.tag(doc.root()).unwrap().to_string();
        let first_child_tag = doc
            .children(doc.root())
            .first()
            .and_then(|&c| doc.tag(c))
            .unwrap_or("x")
            .to_string();
        let queries = [
            format!("/{root_tag}/*"),
            format!("/{root_tag}/{first_child_tag}"),
            format!("/{root_tag}/*[1]"),
            format!("/{root_tag}/*[last()]"),
            format!("/{root_tag}/*[position() <= 3]"),
            format!("//{first_child_tag}"),
            format!("//{first_child_tag}[1]"),
            "//*[@a0]".to_string(),
            "//text()".to_string(),
            format!("/{root_tag}/*/following-sibling::*[1]"),
            format!("//{first_child_tag}/ancestor::*"),
            format!("/{root_tag}//*[not(*)]"),
        ];
        for q in &queries {
            let ev = NaiveEvaluator::new(&doc);
            let path = ordxml::xpath::parse(q).unwrap();
            let expected: Vec<String> = ev
                .eval(&path)
                .into_iter()
                .map(|v| canon_dom(&doc, v))
                .collect();
            for enc in Encoding::all() {
                let mut store = XmlStore::new(Database::in_memory(), enc);
                let d = store.load_document(&doc, "gen").unwrap();
                let got: Vec<String> = store
                    .xpath(d, q)
                    .unwrap_or_else(|e| panic!("doc {i} {enc}: {q}: {e}"))
                    .iter()
                    .map(|n| canon_store(&mut store, d, n))
                    .collect();
                assert_eq!(got, expected, "doc {i} {enc}: {q}");
            }
        }
    }
}

#[test]
fn reconstruction_round_trips() {
    for xml in [
        CATALOG,
        "<a/>",
        "<a x=\"1\" y=\"2\"><!-- c --><?pi data?>text<b/></a>",
        "<p>one<b>two</b>three</p>",
    ] {
        let doc = parse_xml(xml).unwrap();
        for enc in Encoding::all() {
            let store = XmlStore::new(Database::in_memory(), enc);
            let d = store.load_document(&doc, "rt").unwrap();
            let rebuilt = store.reconstruct_document(d).unwrap();
            assert!(
                doc.tree_eq(&rebuilt),
                "{enc}: {xml}\n rebuilt: {}",
                rebuilt.to_xml()
            );
        }
    }
    // And a generated document.
    let doc = GenConfig::mixed(500).generate();
    for enc in Encoding::all() {
        let store = XmlStore::new(Database::in_memory(), enc);
        let d = store.load_document(&doc, "rt").unwrap();
        let rebuilt = store.reconstruct_document(d).unwrap();
        assert!(doc.tree_eq(&rebuilt), "{enc}: generated");
    }
}

// -----------------------------------------------------------------------
// Update equivalence
// -----------------------------------------------------------------------

/// Applies the same logical edit to a DOM document and to a store.
enum Edit {
    Insert(NodePath, usize, &'static str),
    Delete(NodePath),
    SetText(NodePath, &'static str),
}

fn apply_dom(doc: &mut Document, edit: &Edit) {
    match edit {
        Edit::Insert(parent, index, xml) => {
            let frag = parse_xml(xml).unwrap();
            let p = parent.resolve(doc).unwrap();
            doc.graft(p, *index, &frag, frag.root());
        }
        Edit::Delete(path) => {
            let n = path.resolve(doc).unwrap();
            doc.remove_subtree(n);
        }
        Edit::SetText(path, text) => {
            let n = path.resolve(doc).unwrap();
            doc.set_text(n, *text);
        }
    }
}

fn apply_store(store: &mut XmlStore, d: i64, edit: &Edit) -> ordxml::UpdateCost {
    match edit {
        Edit::Insert(parent, index, xml) => {
            let frag = parse_xml(xml).unwrap();
            store.insert_fragment(d, parent, *index, &frag).unwrap()
        }
        Edit::Delete(path) => store.delete_subtree(d, path).unwrap(),
        Edit::SetText(path, text) => store.update_text(d, path, text).unwrap(),
    }
}

fn check_edits(initial: &str, edits: Vec<Edit>, gap: u64) {
    for enc in Encoding::all() {
        let mut dom = parse_xml(initial).unwrap();
        let mut store = XmlStore::new(Database::in_memory(), enc);
        let d = store
            .load_document_with(&dom, "edit", OrderConfig::with_gap(gap))
            .unwrap();
        for (step, edit) in edits.iter().enumerate() {
            apply_dom(&mut dom, edit);
            apply_store(&mut store, d, edit);
            let rebuilt = store.reconstruct_document(d).unwrap();
            assert!(
                dom.tree_eq(&rebuilt),
                "{enc} gap={gap} step {step}:\n want {}\n got  {}",
                dom.to_xml(),
                rebuilt.to_xml()
            );
        }
    }
}

#[test]
fn insert_positions() {
    let edits = vec![
        Edit::Insert(NodePath(vec![]), 0, "<front>f</front>"),
        Edit::Insert(NodePath(vec![]), 99, "<back/>"),
        Edit::Insert(NodePath(vec![]), 2, "<mid a=\"1\"><x/>t</mid>"),
        Edit::Insert(NodePath(vec![2]), 0, "<inner/>"),
        Edit::Insert(NodePath(vec![2]), 1, "<inner2>deep<z/></inner2>"),
    ];
    check_edits(CATALOG, edits, 32);
}

#[test]
fn repeated_inserts_exhaust_gaps() {
    // Small gap: renumbering triggers quickly; equality must survive it.
    for gap in [1, 2, 4] {
        let edits: Vec<Edit> = (0..12)
            .map(|i| {
                Edit::Insert(
                    NodePath(vec![]),
                    1,
                    if i % 2 == 0 { "<a/>" } else { "<b>t</b>" },
                )
            })
            .collect();
        check_edits("<root><first/><last/></root>", edits, gap);
    }
}

#[test]
fn repeated_front_inserts() {
    for gap in [1, 16] {
        let edits: Vec<Edit> = (0..10)
            .map(|_| Edit::Insert(NodePath(vec![]), 0, "<n/>"))
            .collect();
        check_edits("<root><seed/></root>", edits, gap);
    }
}

#[test]
fn subtree_inserts_with_descendants() {
    // Dewey renumbering must drag subtrees along.
    let edits: Vec<Edit> = (0..8)
        .map(|_| {
            Edit::Insert(
                NodePath(vec![]),
                1,
                "<sub x=\"1\"><child><leaf>v</leaf></child><child2/></sub>",
            )
        })
        .collect();
    check_edits("<root><a><deep1><deep2/></deep1></a><z/></root>", edits, 2);
}

#[test]
fn deletes() {
    let edits = vec![
        Edit::Delete(NodePath(vec![1])),
        Edit::Delete(NodePath(vec![2, 0])),
        Edit::Insert(NodePath(vec![]), 1, "<renew/>"),
        Edit::Delete(NodePath(vec![0])),
    ];
    check_edits(CATALOG, edits, 32);
}

#[test]
fn delete_then_insert_into_gap() {
    let edits = vec![
        Edit::Delete(NodePath(vec![1])),
        Edit::Insert(NodePath(vec![]), 1, "<x1/>"),
        Edit::Insert(NodePath(vec![]), 1, "<x2/>"),
        Edit::Insert(NodePath(vec![]), 2, "<x3><y/></x3>"),
    ];
    check_edits("<r><a/><b><c/><d/></b><e/></r>", edits, 2);
}

#[test]
fn moves_match_dom_semantics() {
    // A DOM move is copy-then-delete; the store's move must produce the
    // same tree under every encoding and gap.
    for gap in [1u64, 8, 32] {
        for enc in Encoding::all() {
            let mut dom = parse_xml(CATALOG).unwrap();
            let store = XmlStore::new(Database::in_memory(), enc);
            let d = store
                .load_document_with(&dom, "mv", OrderConfig::with_gap(gap))
                .unwrap();
            let moves = [
                (NodePath(vec![0]), NodePath(vec![]), 2usize), // item1 after item3
                (NodePath(vec![3, 0]), NodePath(vec![]), 0),   // section's item to front
                (NodePath(vec![1]), NodePath(vec![3]), 0),     // an item into <section>
            ];
            for (step, (from, to, idx)) in moves.iter().enumerate() {
                // DOM: copy to destination (computing the child slot on the
                // list without the moved node), then delete the original.
                let src = from.resolve(&dom).unwrap();
                let dest = to.resolve(&dom).unwrap();
                let tmp = {
                    let mut frag = ordxml_xml::Document::new("tmp");
                    let r = frag.root();
                    frag.graft(r, 0, &dom, src);
                    frag
                };
                dom.remove_subtree(src);
                let dest_kids = dom.children(dest).len();
                let at = (*idx).min(dest_kids);
                dom.graft(dest, at, &tmp, tmp.children(tmp.root())[0]);
                store.move_subtree(d, from, to, *idx).unwrap();
                let rebuilt = store.reconstruct_document(d).unwrap();
                assert!(
                    dom.tree_eq(&rebuilt),
                    "{enc} gap={gap} move {step}:\n want {}\n got  {}",
                    dom.to_xml(),
                    rebuilt.to_xml()
                );
            }
        }
    }
}

#[test]
fn text_updates() {
    let edits = vec![
        Edit::SetText(NodePath(vec![0, 0, 0]), "Alpha Prime"),
        Edit::SetText(NodePath(vec![1, 1, 0]), "99"),
    ];
    check_edits(CATALOG, edits, 32);
}

#[test]
fn queries_after_updates_agree() {
    // Interleave edits and queries; the translations must stay correct on
    // renumbered data.
    let queries = [
        "/root/*",
        "/root/*[2]",
        "/root/*[last()]",
        "//leaf",
        "/root/sub/child/leaf",
        "/root/*/following-sibling::*[1]",
    ];
    for enc in Encoding::all() {
        let mut dom = parse_xml("<root><a/><z/></root>").unwrap();
        let mut store = XmlStore::new(Database::in_memory(), enc);
        let d = store
            .load_document_with(&dom, "uq", OrderConfig::with_gap(2))
            .unwrap();
        for i in 0..6 {
            let edit = Edit::Insert(
                NodePath(vec![]),
                1,
                if i % 2 == 0 {
                    "<sub><child><leaf>v</leaf></child></sub>"
                } else {
                    "<sub2/>"
                },
            );
            apply_dom(&mut dom, &edit);
            apply_store(&mut store, d, &edit);
            let ev = NaiveEvaluator::new(&dom);
            for q in &queries {
                let path = ordxml::xpath::parse(q).unwrap();
                let expected: Vec<String> = ev
                    .eval(&path)
                    .into_iter()
                    .map(|v| canon_dom(&dom, v))
                    .collect();
                let got: Vec<String> = store
                    .xpath(d, q)
                    .unwrap()
                    .iter()
                    .map(|n| canon_store(&mut store, d, n))
                    .collect();
                assert_eq!(got, expected, "{enc} edit {i}: {q}");
            }
        }
    }
}

#[test]
fn interval_axes_stay_correct_after_delete_then_insert() {
    // Regression: Global's `desc_max` must be tightened on deletion, or the
    // freed position range still "belongs" to the old ancestors and later
    // insertions into that range corrupt ancestor/preceding/descendant
    // translations.
    let xml = "<r><a><x/><y/></a><b/><c/></r>";
    for enc in Encoding::all() {
        let mut dom = parse_xml(xml).unwrap();
        let mut store = XmlStore::new(Database::in_memory(), enc);
        let d = store
            .load_document_with(&dom, "iv", OrderConfig::with_gap(2))
            .unwrap();
        // Delete <a>'s children (its subtree end retreats), then insert new
        // siblings *after* <a> — their positions land in the freed range.
        for edit in [
            Edit::Delete(NodePath(vec![0, 1])),
            Edit::Delete(NodePath(vec![0, 0])),
            Edit::Insert(NodePath(vec![]), 1, "<n1/>"),
            Edit::Insert(NodePath(vec![]), 2, "<n2><deep/></n2>"),
        ] {
            apply_dom(&mut dom, &edit);
            apply_store(&mut store, d, &edit);
        }
        let ev = NaiveEvaluator::new(&dom);
        for q in [
            "//deep/ancestor::*",
            "/r/n1/preceding::*",
            "/r/a//*",
            "/r/n2/following::*",
            "//n1/ancestor::a",
        ] {
            let path = ordxml::xpath::parse(q).unwrap();
            let expected: Vec<String> = ev
                .eval(&path)
                .into_iter()
                .map(|v| canon_dom(&dom, v))
                .collect();
            let got: Vec<String> = store
                .xpath(d, q)
                .unwrap()
                .iter()
                .map(|n| canon_store(&mut store, d, n))
                .collect();
            assert_eq!(got, expected, "{enc}: {q}");
        }
        let rebuilt = store.reconstruct_document(d).unwrap();
        assert!(dom.tree_eq(&rebuilt), "{enc}");
    }
}

#[test]
fn update_costs_reflect_encoding_tradeoffs() {
    // With gap 1 (dense), a front insert must relabel:
    //  - Global: ~everything after the insertion point;
    //  - Local: only siblings;
    //  - Dewey: following siblings plus their subtrees.
    let xml = "<root><a><x/><y/></a><b><x/><y/></b><c><x/><y/></c></root>";
    let mut costs = std::collections::HashMap::new();
    for enc in Encoding::all() {
        let dom = parse_xml(xml).unwrap();
        let store = XmlStore::new(Database::in_memory(), enc);
        let d = store
            .load_document_with(&dom, "cost", OrderConfig::with_gap(1))
            .unwrap();
        let cost = store
            .insert_fragment(d, &NodePath(vec![]), 0, &parse_xml("<new/>").unwrap())
            .unwrap();
        costs.insert(enc.name(), cost);
    }
    let global = costs["global"];
    let local = costs["local"];
    let dewey = costs["dewey"];
    // Global relabels the whole tail: 9 following nodes (a,x,y,b,x,y,c,x,y).
    assert!(
        global.relabeled >= 9,
        "global should relabel the tail: {global:?}"
    );
    // Local relabels only the 3 siblings.
    assert_eq!(local.relabeled, 3, "{local:?}");
    assert_eq!(local.maintenance, 0, "{local:?}");
    // Dewey relabels siblings + their subtrees = 9 rows, but no maintenance.
    assert_eq!(dewey.relabeled, 9, "{dewey:?}");
    assert_eq!(dewey.maintenance, 0, "{dewey:?}");
    assert!(global.relabeled + global.maintenance > dewey.relabeled);
}

// -----------------------------------------------------------------------
// File-backed runs: the same oracle corpus over the durable pager
// -----------------------------------------------------------------------

fn temp_store_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ordxml-oracle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(ordxml_rdbms::storage::wal_path(&path));
    path
}

fn cleanup_store(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(ordxml_rdbms::storage::wal_path(path));
}

/// The full CATALOG query corpus, replayed against file-backed (WAL-durable)
/// databases instead of in-memory ones, under both positional-predicate
/// strategies. One store per encoding x strategy serves the whole corpus,
/// so buffer-pool eviction and the transactional load path both get
/// exercised.
#[test]
fn file_backed_stores_agree_with_oracle_under_both_strategies() {
    let corpus: Vec<&str> = [
        CHILD_CHAIN_QUERIES,
        POSITIONAL_QUERIES,
        DESCENDANT_QUERIES,
        SIBLING_QUERIES,
        ATTRIBUTE_QUERIES,
        VALUE_PREDICATE_QUERIES,
        BOOLEAN_PREDICATE_QUERIES,
        PARENT_ANCESTOR_QUERIES,
        FOLLOWING_PRECEDING_QUERIES,
        MIXED_AXIS_QUERIES,
    ]
    .into_iter()
    .flatten()
    .copied()
    .collect();
    let doc = parse_xml(CATALOG).unwrap();
    let ev = NaiveEvaluator::new(&doc);
    for enc in Encoding::all() {
        for strategy in STRATEGIES {
            let path = temp_store_path(&format!("q-{}-{strategy:?}.db", enc.name()));
            // A small pool forces eviction traffic through the WAL'd pager.
            let db = Database::open(&path, 8).unwrap();
            let mut store = XmlStore::new(db, enc);
            store.set_position_strategy(strategy);
            let d = store.load_document(&doc, "oracle").unwrap();
            for q in &corpus {
                let xpath = ordxml::xpath::parse(q).unwrap();
                let expected: Vec<String> = ev
                    .eval(&xpath)
                    .into_iter()
                    .map(|v| canon_dom(&doc, v))
                    .collect();
                let got: Vec<String> = store
                    .xpath(d, q)
                    .unwrap_or_else(|e| panic!("file/{enc}/{strategy:?}: {q}: {e}"))
                    .iter()
                    .map(|n| canon_store(&mut store, d, n))
                    .collect();
                assert_eq!(got, expected, "file/{enc}/{strategy:?}: {q}");
            }
            drop(store);
            cleanup_store(&path);
        }
    }
}

/// Update equivalence on the file backend: every edit runs as a WAL
/// transaction; after a simulated crash (no shutdown checkpoint) the
/// reopened store must still equal the mutated DOM.
#[test]
fn file_backed_edits_survive_crash_and_recovery() {
    for enc in Encoding::all() {
        let path = temp_store_path(&format!("e-{}.db", enc.name()));
        let mut dom = parse_xml(CATALOG).unwrap();
        let db = Database::open(&path, 16).unwrap();
        let mut store = XmlStore::new(db, enc);
        let d = store
            .load_document_with(&dom, "edit", OrderConfig::with_gap(2))
            .unwrap();
        let edits = [
            Edit::Insert(NodePath(vec![]), 0, "<front>f</front>"),
            Edit::Delete(NodePath(vec![2])),
            Edit::Insert(NodePath(vec![1]), 1, "<mid a=\"1\"><x/>t</mid>"),
            Edit::SetText(NodePath(vec![1, 0, 0]), "Renamed"),
            Edit::Insert(NodePath(vec![]), 99, "<back/>"),
        ];
        for (step, edit) in edits.iter().enumerate() {
            apply_dom(&mut dom, edit);
            apply_store(&mut store, d, edit);
            let rebuilt = store.reconstruct_document(d).unwrap();
            assert!(dom.tree_eq(&rebuilt), "{enc} step {step} before crash");
        }
        // Crash: skip Drop's best-effort checkpoint entirely; the WAL is
        // the only durable copy of most committed pages.
        std::mem::forget(store);
        let db = Database::open(&path, 16).unwrap();
        let store = XmlStore::new(db, enc);
        let rebuilt = store.reconstruct_document(d).unwrap();
        assert!(
            dom.tree_eq(&rebuilt),
            "{enc}: recovered store diverged\n want {}\n got  {}",
            dom.to_xml(),
            rebuilt.to_xml()
        );
        drop(store);
        cleanup_store(&path);
    }
}
