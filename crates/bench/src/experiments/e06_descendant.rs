//! E6 — Descendant (`//`) navigation vs depth.
//!
//! The structural contrast of the three encodings:
//!
//! * Global answers `x//leaf` with one `pos BETWEEN` interval scan,
//! * Dewey with one key prefix-range scan (its signature strength),
//! * Local has no descendant translation at all — the mediator walks the
//!   subtree one batched child query per tree level, so its cost grows
//!   with subtree *size* and depth, not result size.

use crate::datagen;
use crate::harness::{fmt_count, fmt_dur, load_all, time_median, Table};
use crate::Scale;
use ordxml::OrderConfig;

pub fn run(scale: Scale) {
    let depths = scale.pick(vec![8usize, 64], vec![10, 100, 500]);
    let reps = scale.pick(3usize, 3);
    let mut table = Table::new(
        "E6: descendant-axis queries vs spine depth (20 leaves at the bottom)",
        &["depth", "query", "hits", "global", "local", "dewey"],
    );
    for &depth in &depths {
        let doc = datagen::deep(depth, 20);
        let mut loaded = load_all(&doc, OrderConfig::default());
        let queries = [
            "//leaf".to_string(),
            "/root//leaf".to_string(),
            "/root/d//leaf[1]".to_string(),
            "//d[not(d)]".to_string(),
        ];
        for q in &queries {
            let path = ordxml::xpath::parse(q).unwrap();
            let mut cells = vec![fmt_count(depth as u64), q.clone()];
            let mut hits = 0;
            let mut times = Vec::new();
            for l in loaded.iter_mut() {
                let store = &mut l.store;
                let d = l.doc;
                let (t, h) = time_median(reps, || store.xpath_parsed(d, &path).unwrap().len());
                hits = h;
                times.push(fmt_dur(t));
            }
            cells.push(fmt_count(hits as u64));
            cells.extend(times);
            table.row(cells);
        }
    }
    table.print();
}

#[cfg(test)]
mod tests {
    use ordxml::{Encoding, XmlStore};
    use ordxml_rdbms::Database;
    use ordxml_xml::Document;

    /// A bushy document: `<root>` with `groups` `<d>` subtrees, each holding
    /// `leaves` `<leaf>` children (one text node apiece). `//d//leaf` then
    /// has `groups` context nodes for its break step.
    fn bushy(groups: usize, leaves: usize) -> Document {
        let mut doc = Document::new("root");
        let root = doc.root();
        for _ in 0..groups {
            let d = doc.append_element(root, "d");
            for i in 0..leaves {
                let leaf = doc.append_element(d, "leaf");
                doc.append_text(leaf, format!("L{i}"));
            }
        }
        doc
    }

    /// The descent-finger acceptance gate: on the batched Dewey descendant
    /// workload — many context nodes, each contributing one prefix range to
    /// a single MULTIRANGE statement — finger reuse must eliminate at least
    /// 30% of the B+tree descents the query would otherwise pay (each
    /// reuse is a descent the old code performed).
    #[test]
    fn batched_dewey_descendant_saves_at_least_30pct_of_descents() {
        let doc = bushy(40, 25);
        let store = XmlStore::new(Database::in_memory(), Encoding::Dewey);
        let d = store.load_document(&doc, "gate").unwrap();
        let (hits, diag) = store.xpath_diagnostics(d, "//d//leaf").unwrap();
        assert_eq!(hits.len(), 40 * 25);
        let descents = diag.stats.btree_descents;
        let reuses = diag.stats.btree_descent_reuses;
        let would_be = descents + reuses;
        assert!(
            reuses * 10 >= would_be * 3,
            "finger reuse saved only {reuses} of {would_be} descents \
             ({descents} still paid)"
        );
    }
}
