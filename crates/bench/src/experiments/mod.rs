//! The experiment suite (E1–E10), one per table of the paper's
//! evaluation. See `DESIGN.md` §5 for the index and `EXPERIMENTS.md` for
//! recorded results vs the paper's claims.

pub mod e01_storage;
pub mod e02_load;
pub mod e03_queries;
pub mod e04_position;
pub mod e05_siblings;
pub mod e06_descendant;
pub mod e07_updates;
pub mod e08_gaps;
pub mod e09_mixed;
pub mod e10_scale;

use crate::report::{self, EngineDelta, ExperimentRecord};
use crate::Scale;
use ordxml_rdbms::obs;
use std::time::Instant;

/// Runs one experiment by id (`"e1"`..`"e10"`), bracketing it with engine
/// counter snapshots; returns its record for the machine-readable report,
/// or `None` for an unknown id.
pub fn run(id: &str, scale: Scale) -> Option<ExperimentRecord> {
    report::drain_tables(); // discard tables from outside any experiment
    let before = obs::snapshot();
    let started = Instant::now();
    match id {
        "e1" => e01_storage::run(scale),
        "e2" => e02_load::run(scale),
        "e3" => e03_queries::run(scale),
        "e4" => e04_position::run(scale),
        "e5" => e05_siblings::run(scale),
        "e6" => e06_descendant::run(scale),
        "e7" => e07_updates::run(scale),
        "e8" => e08_gaps::run(scale),
        "e9" => e09_mixed::run(scale),
        "e10" => e10_scale::run(scale),
        _ => return None,
    }
    let elapsed = started.elapsed();
    let engine = EngineDelta::between(&before, &obs::snapshot());
    Some(ExperimentRecord {
        id: id.to_string(),
        elapsed,
        engine,
        tables: report::drain_tables(),
    })
}

/// Every experiment id, in order.
pub const ALL: &[&str] = &["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"];
