//! E4 — Position-predicate deep dive: cost vs fan-out.
//!
//! Position predicates translate to correlated sibling-counting subqueries.
//! Each count ranges over the candidate's preceding (or following)
//! siblings, and the engine memoises those range counts per statement, so
//! one positional step fetches each sibling about once: cost grows linearly
//! with fan-out. All encodings count over an index on (parent, order-key);
//! this experiment shows the common growth and the constant-factor
//! differences.

use crate::datagen;
use crate::harness::{fmt_count, fmt_dur, load_all, time_median, Table};
use crate::Scale;
use ordxml::OrderConfig;

pub fn run(scale: Scale) {
    let fanouts = scale.pick(vec![100usize, 1_000], vec![100, 1_000, 4_000]);
    let reps = scale.pick(3usize, 3);
    let mut table = Table::new(
        "E4: positional predicates vs fan-out",
        &["fanout", "query", "global", "local", "dewey"],
    );
    for &fanout in &fanouts {
        let doc = datagen::flat(fanout);
        let mut loaded = load_all(&doc, OrderConfig::default());
        let queries = [
            format!("/root/c[{}]", fanout / 2),
            "/root/c[position() <= 10]".to_string(),
            "/root/c[last()]".to_string(),
            format!("/root/c[position() > {}]", fanout - 5),
        ];
        for q in &queries {
            let path = ordxml::xpath::parse(q).unwrap();
            let mut cells = vec![fmt_count(fanout as u64), q.clone()];
            for l in loaded.iter_mut() {
                let store = &mut l.store;
                let d = l.doc;
                let (t, _) = time_median(reps, || store.xpath_parsed(d, &path).unwrap().len());
                cells.push(fmt_dur(t));
            }
            table.row(cells);
        }
    }
    table.print();
    ablation(scale);
}

/// Ablation: the pure-SQL correlated-count translation vs mediator slicing
/// (see `ordxml::translate::PositionStrategy`). Both are O(siblings) per
/// step: the count translation through the engine's per-statement memo of
/// range counts, slicing by moving the position arithmetic out of the
/// database.
fn ablation(scale: Scale) {
    use ordxml::translate::PositionStrategy;
    let fanouts = scale.pick(vec![100usize, 1_000], vec![1_000, 4_000]);
    let reps = scale.pick(3usize, 3);
    let mut table = Table::new(
        "E4b (ablation): positional predicate strategy — SQL count vs mediator slice",
        &[
            "fanout",
            "query",
            "encoding",
            "count-subquery",
            "mediator-slice",
        ],
    );
    for &fanout in &fanouts {
        let doc = datagen::flat(fanout);
        let q = format!("/root/c[{}]", fanout / 2);
        let path = ordxml::xpath::parse(&q).unwrap();
        for l in load_all(&doc, OrderConfig::default()).iter_mut() {
            let mut times = Vec::new();
            for strategy in [
                PositionStrategy::CountSubquery,
                PositionStrategy::MediatorSlice,
            ] {
                l.store.set_position_strategy(strategy);
                let store = &mut l.store;
                let d = l.doc;
                let (t, hits) = time_median(reps, || store.xpath_parsed(d, &path).unwrap().len());
                assert_eq!(hits, 1);
                times.push(fmt_dur(t));
            }
            l.store
                .set_position_strategy(PositionStrategy::CountSubquery);
            table.row(vec![
                fmt_count(fanout as u64),
                q.clone(),
                l.enc.to_string(),
                times[0].clone(),
                times[1].clone(),
            ]);
        }
    }
    table.print();
}
