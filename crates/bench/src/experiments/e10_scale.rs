//! E10 — Scalability with document size.
//!
//! Fixed operations over growing documents: a positional query, a
//! descendant scan, and a dense middle insert. Expected shapes: query
//! latencies grow with the touched row counts (Q scan linear, positional
//! with the sibling prefix); the dense insert is the separator — Global's
//! relabeling grows linearly with document size while Local's stays flat
//! and Dewey's grows with the following siblings' subtree sizes.

use crate::datagen;
use crate::harness::{fmt_count, fmt_dur, load_all, time_median, Table};
use crate::Scale;
use ordxml::OrderConfig;
use ordxml_xml::{parse as parse_xml, NodePath};
use std::time::Instant;

pub fn run(scale: Scale) {
    let sizes = scale.pick(vec![200usize, 1_000], vec![1_000, 5_000, 20_000, 50_000]);
    let reps = scale.pick(3usize, 3);
    let mut table = Table::new(
        "E10: scalability with document size",
        &["items", "operation", "global", "local", "dewey"],
    );
    for &items in &sizes {
        let doc = datagen::catalog(items, 1);
        // Queries at the default gap. Positional predicates use the
        // mediator-slice strategy here, so the rows below measure encoding
        // effects only; E4/E4b compare it with the SQL-count translation.
        let mut loaded = load_all(&doc, OrderConfig::default());
        for l in loaded.iter_mut() {
            l.store
                .set_position_strategy(ordxml::PositionStrategy::MediatorSlice);
        }
        let queries = [
            format!("/catalog/item[{}]", items / 2),
            "//author".to_string(),
            format!("/catalog/item[@id = 'i{}']", items / 2),
        ];
        for q in &queries {
            let path = ordxml::xpath::parse(q).unwrap();
            let mut cells = vec![fmt_count(items as u64), q.clone()];
            for l in loaded.iter_mut() {
                let store = &mut l.store;
                let d = l.doc;
                let (t, _) = time_median(reps, || store.xpath_parsed(d, &path).unwrap().len());
                cells.push(fmt_dur(t));
            }
            table.row(cells);
        }
        // One dense middle insert (gap = 1).
        let frag = parse_xml("<item id=\"s\"><name>S</name></item>").unwrap();
        let mut cells = vec![fmt_count(items as u64), "middle insert (gap=1)".to_string()];
        let mut relabels = Vec::new();
        for l in load_all(&doc, OrderConfig::with_gap(1)).iter_mut() {
            let t0 = Instant::now();
            let cost = l
                .store
                .insert_fragment(l.doc, &NodePath(vec![]), items / 2, &frag)
                .unwrap();
            cells.push(fmt_dur(t0.elapsed()));
            relabels.push(cost.relabeled + cost.maintenance);
        }
        table.row(cells);
        table.row(vec![
            fmt_count(items as u64),
            "  ... rows touched".to_string(),
            fmt_count(relabels[0]),
            fmt_count(relabels[1]),
            fmt_count(relabels[2]),
        ]);
    }
    table.print();
}
