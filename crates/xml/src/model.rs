//! The ordered XML document model.
//!
//! Nodes live in a flat arena inside [`Document`] and are addressed by
//! [`NodeId`]. Every node keeps an *ordered* list of children, which is what
//! makes this an ordered data model: sibling order is significant and the
//! preorder traversal of the tree defines the total *document order*.
//!
//! Attributes are stored in-line on their owning element (in declaration
//! order) rather than as arena nodes; the shredding layer decides how to map
//! them to relational tuples.

use std::cmp::Ordering;
use std::fmt;

/// Identifier of a node inside a [`Document`] arena.
///
/// Ids are stable for the lifetime of the node: removing a subtree leaves
/// tombstones in the arena rather than shifting ids. Later insertions reuse
/// tombstoned slots, so a removed node's id may come to name a new node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw index of the node in the arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The kind of payload a node carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// An element with a tag name and ordered `(name, value)` attributes.
    Element {
        /// Tag name of the element.
        tag: String,
        /// Attributes in declaration order.
        attrs: Vec<(String, String)>,
    },
    /// A text node.
    Text(String),
    /// A comment (`<!-- ... -->`).
    Comment(String),
    /// A processing instruction (`<?target data?>`).
    Pi {
        /// The PI target.
        target: String,
        /// The PI data (may be empty).
        data: String,
    },
}

impl NodeKind {
    /// `true` if this is an element node.
    pub fn is_element(&self) -> bool {
        matches!(self, NodeKind::Element { .. })
    }

    /// `true` if this is a text node.
    pub fn is_text(&self) -> bool {
        matches!(self, NodeKind::Text(_))
    }
}

/// A single node of the tree: payload plus tree links.
#[derive(Debug, Clone)]
pub struct Node {
    pub(crate) kind: NodeKind,
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: Vec<NodeId>,
    /// Tombstone flag: set when the node is detached from the document.
    pub(crate) dead: bool,
}

impl Node {
    /// The node payload.
    pub fn kind(&self) -> &NodeKind {
        &self.kind
    }

    /// The node's parent, if any (the root element has none).
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// The node's children, in sibling order.
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }
}

/// An ordered XML document.
///
/// The document owns an arena of [`Node`]s and designates one element node as
/// the root. All structural mutation goes through `Document` methods so that
/// parent/child links stay consistent.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    root: NodeId,
    /// Tombstoned slots, reused by the next insertions: a document that
    /// inserts and deletes in balance stays the same size.
    free: Vec<NodeId>,
}

impl Document {
    /// Creates a new document whose root element has the given tag.
    pub fn new(root_tag: impl Into<String>) -> Self {
        let root = Node {
            kind: NodeKind::Element {
                tag: root_tag.into(),
                attrs: Vec::new(),
            },
            parent: None,
            children: Vec::new(),
            dead: false,
        };
        Document {
            nodes: vec![root],
            root: NodeId(0),
            free: Vec::new(),
        }
    }

    /// The root element of the document.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of *live* nodes in the document (including the root, excluding
    /// detached tombstones). Attributes are not counted: they are inline
    /// payload of their element.
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| !n.dead).count()
    }

    /// `true` if the document has only the root node.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Borrow a node.
    ///
    /// # Panics
    /// Panics if the id is out of bounds or refers to a detached node.
    pub fn node(&self, id: NodeId) -> &Node {
        let n = &self.nodes[id.index()];
        assert!(!n.dead, "node {id} was detached from the document");
        n
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        let n = &mut self.nodes[id.index()];
        assert!(!n.dead, "node {id} was detached from the document");
        n
    }

    /// `true` if `id` refers to a live node of this document.
    pub fn is_live(&self, id: NodeId) -> bool {
        id.index() < self.nodes.len() && !self.nodes[id.index()].dead
    }

    /// The tag name, if `id` is an element.
    pub fn tag(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Element { tag, .. } => Some(tag),
            _ => None,
        }
    }

    /// The text content, if `id` is a text node.
    pub fn text(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Text(t) => Some(t),
            _ => None,
        }
    }

    /// The ordered attribute list, if `id` is an element (empty slice
    /// otherwise).
    pub fn attrs(&self, id: NodeId) -> &[(String, String)] {
        match &self.node(id).kind {
            NodeKind::Element { attrs, .. } => attrs,
            _ => &[],
        }
    }

    /// Looks up an attribute value by name.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        self.attrs(id)
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The node's children in sibling order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.node(id).children
    }

    /// The node's parent.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// Position of `id` among its parent's children (0-based), or `None` for
    /// the root.
    pub fn sibling_index(&self, id: NodeId) -> Option<usize> {
        let parent = self.parent(id)?;
        self.children(parent).iter().position(|&c| c == id)
    }

    /// The next sibling in document order, if any.
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        let parent = self.parent(id)?;
        let idx = self.sibling_index(id)?;
        self.children(parent).get(idx + 1).copied()
    }

    /// The previous sibling in document order, if any.
    pub fn prev_sibling(&self, id: NodeId) -> Option<NodeId> {
        let parent = self.parent(id)?;
        let idx = self.sibling_index(id)?;
        if idx == 0 {
            None
        } else {
            self.children(parent).get(idx - 1).copied()
        }
    }

    /// Depth of the node: the root has depth 0.
    pub fn depth(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// The chain of ancestors from the root down to (and including) `id`.
    pub fn path_from_root(&self, id: NodeId) -> Vec<NodeId> {
        let mut chain = vec![id];
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
    }

    /// `true` if `anc` is a proper ancestor of `node`.
    pub fn is_ancestor(&self, anc: NodeId, node: NodeId) -> bool {
        let mut cur = self.parent(node);
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    // ---------------------------------------------------------------
    // Construction / mutation
    // ---------------------------------------------------------------

    fn alloc(&mut self, kind: NodeKind, parent: Option<NodeId>) -> NodeId {
        let node = Node {
            kind,
            parent,
            children: Vec::new(),
            dead: false,
        };
        if let Some(id) = self.free.pop() {
            self.nodes[id.index()] = node;
            return id;
        }
        self.nodes.push(node);
        NodeId(self.nodes.len() as u32 - 1)
    }

    /// Appends a new element child under `parent` and returns its id.
    pub fn append_element(&mut self, parent: NodeId, tag: impl Into<String>) -> NodeId {
        self.insert_element(parent, usize::MAX, tag)
    }

    /// Appends a new text child under `parent` and returns its id.
    pub fn append_text(&mut self, parent: NodeId, text: impl Into<String>) -> NodeId {
        self.insert_text(parent, usize::MAX, text)
    }

    /// Inserts a new element at child position `pos` under `parent`
    /// (`usize::MAX` or any out-of-range position appends).
    pub fn insert_element(&mut self, parent: NodeId, pos: usize, tag: impl Into<String>) -> NodeId {
        let kind = NodeKind::Element {
            tag: tag.into(),
            attrs: Vec::new(),
        };
        self.insert_node(parent, pos, kind)
    }

    /// Inserts a new text node at child position `pos` under `parent`.
    pub fn insert_text(&mut self, parent: NodeId, pos: usize, text: impl Into<String>) -> NodeId {
        self.insert_node(parent, pos, NodeKind::Text(text.into()))
    }

    /// Inserts a new node of arbitrary kind at child position `pos` under
    /// `parent` (`usize::MAX` or out-of-range appends). Returns its id.
    pub fn insert_node(&mut self, parent: NodeId, pos: usize, kind: NodeKind) -> NodeId {
        let id = self.alloc(kind, Some(parent));
        let children = &mut self.node_mut(parent).children;
        let pos = pos.min(children.len());
        children.insert(pos, id);
        id
    }

    /// Appends a comment child.
    pub fn append_comment(&mut self, parent: NodeId, text: impl Into<String>) -> NodeId {
        self.insert_node(parent, usize::MAX, NodeKind::Comment(text.into()))
    }

    /// Appends a processing-instruction child.
    pub fn append_pi(
        &mut self,
        parent: NodeId,
        target: impl Into<String>,
        data: impl Into<String>,
    ) -> NodeId {
        self.insert_node(
            parent,
            usize::MAX,
            NodeKind::Pi {
                target: target.into(),
                data: data.into(),
            },
        )
    }

    /// Sets (or adds) an attribute on an element.
    ///
    /// # Panics
    /// Panics if `id` is not an element.
    pub fn set_attr(&mut self, id: NodeId, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        match &mut self.node_mut(id).kind {
            NodeKind::Element { attrs, .. } => {
                if let Some(slot) = attrs.iter_mut().find(|(n, _)| *n == name) {
                    slot.1 = value;
                } else {
                    attrs.push((name, value));
                }
            }
            other => panic!("set_attr on non-element node: {other:?}"),
        }
    }

    /// Replaces the text of a text node.
    ///
    /// # Panics
    /// Panics if `id` is not a text node.
    pub fn set_text(&mut self, id: NodeId, text: impl Into<String>) {
        match &mut self.node_mut(id).kind {
            NodeKind::Text(t) => *t = text.into(),
            other => panic!("set_text on non-text node: {other:?}"),
        }
    }

    /// Detaches the subtree rooted at `id` from the document, tombstoning
    /// every node in it (its payload is dropped and its slot is reused by
    /// later insertions). Returns the number of nodes removed.
    ///
    /// # Panics
    /// Panics when asked to remove the document root.
    pub fn remove_subtree(&mut self, id: NodeId) -> usize {
        assert!(id != self.root, "cannot remove the document root");
        let parent = self.parent(id).expect("non-root node must have a parent");
        let idx = self
            .sibling_index(id)
            .expect("node must be among its parent's children");
        self.node_mut(parent).children.remove(idx);
        let mut removed = 0;
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let node = &mut self.nodes[n.index()];
            node.dead = true;
            node.kind = NodeKind::Text(String::new());
            removed += 1;
            stack.extend(std::mem::take(&mut node.children));
            self.free.push(n);
        }
        removed
    }

    /// Deep-copies the subtree rooted at `src_root` of `src` into `self`,
    /// inserting it at child position `pos` under `parent`. Returns the id of
    /// the copied root.
    pub fn graft(
        &mut self,
        parent: NodeId,
        pos: usize,
        src: &Document,
        src_root: NodeId,
    ) -> NodeId {
        let new_root = self.insert_node(parent, pos, src.node(src_root).kind.clone());
        let mut stack: Vec<(NodeId, NodeId)> = vec![(src_root, new_root)];
        while let Some((from, to)) = stack.pop() {
            // Append in order; iterate children forward and push pairs.
            let child_ids: Vec<NodeId> = src.children(from).to_vec();
            for c in child_ids {
                let copy = self.insert_node(to, usize::MAX, src.node(c).kind.clone());
                stack.push((c, copy));
            }
        }
        new_root
    }

    // ---------------------------------------------------------------
    // Traversal & order
    // ---------------------------------------------------------------

    /// Iterator over the subtree rooted at `start` in document (pre-)order,
    /// including `start` itself.
    pub fn preorder(&self, start: NodeId) -> Preorder<'_> {
        Preorder {
            doc: self,
            stack: vec![start],
        }
    }

    /// Iterator over the entire document in document order (starting at the
    /// root).
    pub fn iter(&self) -> Preorder<'_> {
        self.preorder(self.root)
    }

    /// Number of nodes in the subtree rooted at `id` (including `id`).
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.preorder(id).count()
    }

    /// Compares two nodes by document order. A node precedes its descendants
    /// (preorder semantics); `Ordering::Equal` iff `a == b`.
    pub fn document_order(&self, a: NodeId, b: NodeId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        let pa = self.path_from_root(a);
        let pb = self.path_from_root(b);
        // Find the first point of divergence.
        let mut i = 0;
        while i < pa.len() && i < pb.len() && pa[i] == pb[i] {
            i += 1;
        }
        if i == pa.len() {
            // a is an ancestor of b -> a first.
            return Ordering::Less;
        }
        if i == pb.len() {
            return Ordering::Greater;
        }
        // Both diverge under the common ancestor pa[i-1] == pb[i-1].
        let parent = pa[i - 1];
        let children = self.children(parent);
        let ia = children.iter().position(|&c| c == pa[i]).expect("child");
        let ib = children.iter().position(|&c| c == pb[i]).expect("child");
        ia.cmp(&ib)
    }

    /// Concatenated text content of the subtree rooted at `id` (the XPath
    /// `string()` value of an element).
    pub fn string_value(&self, id: NodeId) -> String {
        let mut out = String::new();
        for n in self.preorder(id) {
            if let NodeKind::Text(t) = &self.node(n).kind {
                out.push_str(t);
            }
        }
        out
    }

    /// Serializes the document to a compact XML string (no declaration).
    pub fn to_xml(&self) -> String {
        crate::writer::write(self, &crate::writer::WriteOptions::compact())
    }

    /// Serializes the subtree rooted at `id` to a compact XML string.
    pub fn subtree_to_xml(&self, id: NodeId) -> String {
        crate::writer::write_subtree(self, id, &crate::writer::WriteOptions::compact())
    }

    /// Structural equality of two documents (kinds, tags, attributes in
    /// order, text, and child order), ignoring arena layout.
    pub fn tree_eq(&self, other: &Document) -> bool {
        fn eq(a: &Document, an: NodeId, b: &Document, bn: NodeId) -> bool {
            if a.node(an).kind != b.node(bn).kind {
                return false;
            }
            let ac = a.children(an);
            let bc = b.children(bn);
            ac.len() == bc.len() && ac.iter().zip(bc.iter()).all(|(&x, &y)| eq(a, x, b, y))
        }
        eq(self, self.root, other, other.root)
    }
}

/// Preorder (document-order) iterator over a subtree. See
/// [`Document::preorder`].
pub struct Preorder<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl<'a> Iterator for Preorder<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let next = self.stack.pop()?;
        // Push children in reverse so the leftmost is popped first.
        let children = self.doc.children(next);
        self.stack.extend(children.iter().rev());
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, Vec<NodeId>) {
        // <a><b>x</b><c><d/></c></a>
        let mut doc = Document::new("a");
        let b = doc.append_element(doc.root(), "b");
        let x = doc.append_text(b, "x");
        let c = doc.append_element(doc.root(), "c");
        let d = doc.append_element(c, "d");
        (doc, vec![b, x, c, d])
    }

    #[test]
    fn build_and_navigate() {
        let (doc, ids) = sample();
        let [b, x, c, d] = ids[..] else {
            unreachable!()
        };
        assert_eq!(doc.tag(doc.root()), Some("a"));
        assert_eq!(doc.children(doc.root()), &[b, c]);
        assert_eq!(doc.parent(d), Some(c));
        assert_eq!(doc.text(x), Some("x"));
        assert_eq!(doc.depth(d), 2);
        assert_eq!(doc.next_sibling(b), Some(c));
        assert_eq!(doc.prev_sibling(c), Some(b));
        assert_eq!(doc.prev_sibling(b), None);
        assert_eq!(doc.sibling_index(c), Some(1));
        assert_eq!(doc.len(), 5);
    }

    #[test]
    fn preorder_is_document_order() {
        let (doc, ids) = sample();
        let [b, x, c, d] = ids[..] else {
            unreachable!()
        };
        let order: Vec<NodeId> = doc.iter().collect();
        assert_eq!(order, vec![doc.root(), b, x, c, d]);
        // document_order agrees with preorder position for every pair.
        for (i, &m) in order.iter().enumerate() {
            for (j, &n) in order.iter().enumerate() {
                assert_eq!(doc.document_order(m, n), i.cmp(&j), "{m} vs {n}");
            }
        }
    }

    #[test]
    fn insert_at_position_shifts_siblings() {
        let mut doc = Document::new("r");
        let a = doc.append_element(doc.root(), "a");
        let c = doc.append_element(doc.root(), "c");
        let b = doc.insert_element(doc.root(), 1, "b");
        assert_eq!(doc.children(doc.root()), &[a, b, c]);
        let front = doc.insert_element(doc.root(), 0, "front");
        assert_eq!(doc.children(doc.root()), &[front, a, b, c]);
    }

    #[test]
    fn remove_subtree_tombstones_descendants() {
        let (mut doc, ids) = sample();
        let [b, x, c, d] = ids[..] else {
            unreachable!()
        };
        let removed = doc.remove_subtree(c);
        assert_eq!(removed, 2);
        assert!(!doc.is_live(c));
        assert!(!doc.is_live(d));
        assert!(doc.is_live(b));
        assert!(doc.is_live(x));
        assert_eq!(doc.children(doc.root()), &[b]);
        assert_eq!(doc.len(), 3);
    }

    #[test]
    fn insertions_reuse_removed_slots() {
        let (mut doc, ids) = sample();
        let arena = doc.nodes.len();
        // Balanced delete/insert churn keeps the arena the same size.
        let mut victim = ids[2];
        for round in 0..50 {
            doc.remove_subtree(victim);
            victim = doc.append_element(doc.root(), format!("c{round}"));
            doc.append_element(victim, "d");
        }
        assert_eq!(doc.nodes.len(), arena);
        assert_eq!(doc.len(), 5);
        assert_eq!(doc.to_xml(), "<a><b>x</b><c49><d/></c49></a>");
    }

    #[test]
    #[should_panic(expected = "cannot remove the document root")]
    fn remove_root_panics() {
        let (mut doc, _) = sample();
        doc.remove_subtree(doc.root());
    }

    #[test]
    fn attrs_set_and_overwrite() {
        let mut doc = Document::new("r");
        let e = doc.append_element(doc.root(), "e");
        doc.set_attr(e, "id", "1");
        doc.set_attr(e, "lang", "en");
        doc.set_attr(e, "id", "2");
        assert_eq!(doc.attr(e, "id"), Some("2"));
        assert_eq!(doc.attr(e, "lang"), Some("en"));
        assert_eq!(doc.attr(e, "missing"), None);
        assert_eq!(doc.attrs(e).len(), 2);
    }

    #[test]
    fn graft_deep_copies_in_order() {
        let (src, ids) = sample();
        let c = ids[2];
        let mut dst = Document::new("root");
        let copied = dst.graft(dst.root(), usize::MAX, &src, c);
        assert_eq!(dst.tag(copied), Some("c"));
        assert_eq!(dst.children(copied).len(), 1);
        assert_eq!(dst.tag(dst.children(copied)[0]), Some("d"));
        assert_eq!(dst.subtree_to_xml(copied), "<c><d/></c>");
    }

    #[test]
    fn string_value_concatenates_descendant_text() {
        let mut doc = Document::new("r");
        let a = doc.append_element(doc.root(), "a");
        doc.append_text(a, "one ");
        let b = doc.append_element(a, "b");
        doc.append_text(b, "two");
        doc.append_text(a, " three");
        assert_eq!(doc.string_value(a), "one two three");
        assert_eq!(doc.string_value(doc.root()), "one two three");
    }

    #[test]
    fn tree_eq_ignores_arena_layout() {
        let (d1, _) = sample();
        // Build the same tree in a different construction order.
        let mut d2 = Document::new("a");
        let c = d2.append_element(d2.root(), "c");
        d2.append_element(c, "d");
        let b = d2.insert_element(d2.root(), 0, "b");
        d2.append_text(b, "x");
        assert!(d1.tree_eq(&d2));
        d2.set_attr(c, "k", "v");
        assert!(!d1.tree_eq(&d2));
    }

    #[test]
    fn is_ancestor_and_paths() {
        let (doc, ids) = sample();
        let [b, _x, c, d] = ids[..] else {
            unreachable!()
        };
        assert!(doc.is_ancestor(doc.root(), d));
        assert!(doc.is_ancestor(c, d));
        assert!(!doc.is_ancestor(b, d));
        assert!(!doc.is_ancestor(d, d));
        assert_eq!(doc.path_from_root(d), vec![doc.root(), c, d]);
    }

    #[test]
    fn subtree_size_counts_self() {
        let (doc, ids) = sample();
        assert_eq!(doc.subtree_size(doc.root()), 5);
        assert_eq!(doc.subtree_size(ids[2]), 2);
        assert_eq!(doc.subtree_size(ids[3]), 1);
    }
}
