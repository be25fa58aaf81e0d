//! E9 — Mixed query/update workload: the crossover figure.
//!
//! Throughput (operations/second) as the update fraction grows from a pure
//! query workload to an update-heavy one, on a tightly numbered document
//! (gap = 2) so renumbering actually happens. Expected crossover: Global
//! leads (or ties) at 0% updates and collapses as updates dominate — each
//! exhausted gap shifts the document tail — while Local degrades mildly and
//! Dewey sits between.

use crate::datagen;
use crate::harness::{fmt_count, load_all, Table};
use crate::Scale;
use ordxml::OrderConfig;
use ordxml_xml::{parse as parse_xml, NodePath};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

pub fn run(scale: Scale) {
    let items = scale.pick(150usize, 1_000);
    let ops = scale.pick(200usize, 1_000);
    let fractions = [0u32, 10, 50, 90];
    let mut table = Table::new(
        format!("E9: mixed workload throughput, {ops} ops on a {items}-item catalog (gap = 2)"),
        &["update %", "encoding", "ops/s", "relabeled rows"],
    );
    for &f in &fractions {
        let base = datagen::catalog(items, 1);
        for l in load_all(&base, OrderConfig::with_gap(2)).iter_mut() {
            // Mediator-slice positional strategy: the crossover should be
            // driven by update costs, with positional lookups kept out of
            // the database (the SQL-count translation is compared in E4b).
            l.store
                .set_position_strategy(ordxml::PositionStrategy::MediatorSlice);
            let mut rng = StdRng::seed_from_u64(13);
            let frag = parse_xml("<item id=\"m\"><name>M</name></item>").unwrap();
            let mut n_items = items;
            let mut relabeled = 0u64;
            let t0 = Instant::now();
            for _ in 0..ops {
                if rng.gen_range(0..100) < f {
                    let at = rng.gen_range(0..=n_items);
                    let cost = l
                        .store
                        .insert_fragment(l.doc, &NodePath(vec![]), at, &frag)
                        .unwrap();
                    relabeled += cost.relabeled;
                    n_items += 1;
                } else {
                    let k = rng.gen_range(1..=n_items);
                    let q = format!("/catalog/item[{k}]");
                    let hits = l.store.xpath(l.doc, &q).unwrap().len();
                    assert_eq!(hits, 1);
                }
            }
            let dt = t0.elapsed();
            table.row(vec![
                f.to_string(),
                l.enc.to_string(),
                fmt_count((ops as f64 / dt.as_secs_f64()) as u64),
                fmt_count(relabeled),
            ]);
        }
    }
    table.print();
}
