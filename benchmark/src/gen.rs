//! Seeded inputs: catalog documents, read requests and ordered updates.
//!
//! Everything here is a pure function of the seed handed in; the engine only
//! ever sees the generated documents and request lines.

use ordxml_xml::{Document, NodePath};

/// SplitMix64 — small, seedable, and good enough to pick documents and
/// positions. The benchmark owns its generator so its inputs cannot drift
/// with the workspace's vendored `rand` stand-in.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// An independent stream (one per document, one per client).
    pub fn fork(&mut self) -> Rng {
        Rng(self.next())
    }
}

/// A product catalog: `<catalog>` with `items` ordered `<item>` children,
/// each carrying `@id`, a `<name>`, a `<price>`, and 1–3 ordered
/// `<author>`s — the same shape `crates/bench` uses for the paper's query
/// set (8–12 node rows per item).
pub fn catalog(items: usize, rng: &mut Rng) -> Document {
    let mut doc = Document::new("catalog");
    let root = doc.root();
    for i in 0..items {
        let item = doc.append_element(root, "item");
        doc.set_attr(item, "id", format!("i{i}"));
        let name = doc.append_element(item, "name");
        doc.append_text(name, format!("Item {i:06}"));
        let price = doc.append_element(item, "price");
        doc.append_text(price, format!("{:05}.99", 1 + rng.below(899)));
        for a in 0..1 + rng.below(3) {
            let author = doc.append_element(item, "author");
            doc.append_text(author, format!("Author {:04}-{a}", rng.below(5000)));
        }
    }
    doc
}

/// Node rows a document shreds into (one per node plus one per attribute).
pub fn row_count(doc: &Document) -> u64 {
    doc.iter().map(|n| 1 + doc.attrs(n).len() as u64).sum()
}

/// Which read mix a workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Point lookups on small documents.
    Point,
    /// Whole-document scans with thousands of hits.
    Scan,
    /// The paper's positional and sibling-order queries.
    Ordered,
    /// `Point` plus one `//author` scan.
    PointAndScan,
}

/// The `n`-th XPath expression of a script drawing from `mix`, over a
/// catalog of `items` items. Templates rotate in a fixed order, so every
/// stretch of a script has the same composition and only the addressed
/// item varies with the seed: the templates differ in cost by an order of
/// magnitude, and a random choice would put that variance into throughput.
pub fn read_expr(mix: Mix, items: usize, n: usize, rng: &mut Rng) -> String {
    let k = rng.below(items);
    match mix {
        Mix::Point | Mix::PointAndScan => {
            let templates = if mix == Mix::Point { 4 } else { 5 };
            match n % templates {
                0 => "/catalog".to_string(),
                1 => format!("/catalog/item[@id='i{k}']/name"),
                2 => format!("/catalog/item[@id='i{k}']/price"),
                3 => format!("/catalog/item[name='Item {k:06}']/author"),
                _ => "//author".to_string(),
            }
        }
        Mix::Scan => match n % 4 {
            0 => "//author".to_string(),
            1 => "//price".to_string(),
            2 => "/catalog/item/name".to_string(),
            _ => format!("/catalog/item[@id='i{k}']/following::author[position() <= 10]"),
        },
        Mix::Ordered => {
            let pos = k + 1;
            match n % 6 {
                0 => format!("/catalog/item[{pos}]"),
                1 => "/catalog/item[position() <= 10]".to_string(),
                2 => "/catalog/item[last()]".to_string(),
                3 => format!("/catalog/item[{pos}]/following-sibling::item[position() <= 5]"),
                4 => format!("/catalog/item[{pos}]/author[last()]"),
                _ => format!("/catalog/item[@id='i{k}']/preceding::name[1]"),
            }
        }
    }
}

/// One ordered update against the top-level `<item>` list of a catalog.
#[derive(Debug, Clone)]
pub enum Update {
    /// Insert `fragment`'s root as the `index`-th item.
    Insert { index: usize, fragment: Document },
    /// Delete the `index`-th item with its subtree.
    Delete { index: usize },
    /// Replace the text of the `index`-th item's `<name>`.
    Text { index: usize, text: String },
    /// Move the `from`-th item so that it becomes the `to`-th.
    Move { from: usize, to: usize },
}

/// Names of the update kinds, in the order the per-layer metrics list them.
pub const UPDATE_KINDS: [&str; 4] = ["insert", "delete", "text", "move"];

impl Update {
    /// Index into [`UPDATE_KINDS`].
    pub fn kind(&self) -> usize {
        match self {
            Update::Insert { .. } => 0,
            Update::Delete { .. } => 1,
            Update::Text { .. } => 2,
            Update::Move { .. } => 3,
        }
    }

    /// Applies the update to a DOM mirror — the reference the stored
    /// document must equal after the same update went through the pool.
    pub fn apply(&self, dom: &mut Document) {
        let root = dom.root();
        match self {
            Update::Insert { index, fragment } => {
                dom.graft(root, *index, fragment, fragment.root());
            }
            Update::Delete { index } => {
                dom.remove_subtree(dom.children(root)[*index]);
            }
            Update::Text { index, text } => {
                let node = NodePath(vec![*index, 0, 0])
                    .resolve(dom)
                    .expect("every item has a named first child");
                dom.set_text(node, text.clone());
            }
            Update::Move { from, to } => {
                let src = dom.children(root)[*from];
                let mut copy = Document::new("tmp");
                let tmp_root = copy.root();
                copy.graft(tmp_root, 0, dom, src);
                dom.remove_subtree(src);
                dom.graft(root, *to, &copy, copy.children(tmp_root)[0]);
            }
        }
    }
}

/// The `serial`-th update of a catalog that currently has `items` items.
/// Kinds rotate through ten slots — 3 inserts, 3 deletes, 3 text updates,
/// 1 move, each insert ahead of its delete — so the document keeps its
/// size over any run length and every stretch of a run has the same
/// composition; positions come from `rng`. Every tenth insert goes to the
/// front, where the sparse-numbering gap runs out and renumbering happens.
/// `serial` also makes inserted ids and texts unique.
pub fn next_update(items: usize, serial: u64, rng: &mut Rng) -> Update {
    const ROTATION: [u8; 10] = *b"idtidtmidt";
    let slot = (serial % 10) as usize;
    match ROTATION[slot] {
        b'i' => {
            let nth_insert = serial / 10 * 3 + slot as u64 / 3;
            let index = if nth_insert.is_multiple_of(10) {
                0
            } else {
                rng.below(items + 1)
            };
            // Six node rows: item, @id, name, text, price, text.
            let mut fragment = Document::new("item");
            let item = fragment.root();
            fragment.set_attr(item, "id", format!("n{serial}"));
            let name = fragment.append_element(item, "name");
            fragment.append_text(name, format!("New {serial:06}"));
            let price = fragment.append_element(item, "price");
            fragment.append_text(price, format!("{:05}.99", 1 + rng.below(899)));
            Update::Insert { index, fragment }
        }
        b'd' => Update::Delete {
            index: rng.below(items),
        },
        b't' => Update::Text {
            index: rng.below(items),
            text: format!("Renamed {serial:06}"),
        },
        _ => Update::Move {
            from: rng.below(items),
            to: rng.below(items),
        },
    }
}
