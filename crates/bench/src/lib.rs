//! `ordxml-bench` — the benchmark harness reproducing the paper's
//! evaluation.
//!
//! Each experiment (E1–E10, indexed in `DESIGN.md` and `EXPERIMENTS.md`)
//! regenerates one table/figure-equivalent of the paper: storage cost,
//! loading throughput, ordered-query performance per encoding, positional/
//! sibling/descendant deep dives, update cost, the sparse-numbering (gap)
//! sweep, the mixed query/update crossover, and document-size scalability.
//!
//! Run them with the `report` binary:
//!
//! ```text
//! cargo run --release -p ordxml-bench --bin report -- all
//! cargo run --release -p ordxml-bench --bin report -- e7 --full
//! ```
//!
//! Throughput, durability and serving are measured end to end by the
//! standalone package in `benchmark/` (see its `README.md`), not here.

pub mod datagen;
pub mod experiments;
pub mod harness;
pub mod json;
pub mod report;
pub mod workload;

/// Experiment scale: `Quick` keeps every experiment under a few seconds
/// (CI-friendly); `Full` uses the paper-scale document sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Full,
}

impl Scale {
    /// Picks between the quick and full variant of a parameter.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}
