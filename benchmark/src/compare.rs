//! `compare <a.json> <b.json>`: judges two `run` outputs against the
//! bounds the benchmark fixed.

use crate::json::Json;
use std::path::Path;

/// An end-to-end metric: the same six on every workload. `bound` is the
/// share of the base median by which the metric may worsen before the
/// change counts as a regression. `BENCHMARK.json` carries the same table
/// for the driver; the self-test keeps the two equal.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.20,
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.20,
    },
    EndToEnd {
        name: "p95_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "stored_bytes_per_node",
        unit: "B/node",
        higher_is_better: false,
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.15,
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run quartile spread is wider than the bound: the runs
    /// cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartile spread (as a share of the median) of one summary
/// cell. A single repetition has no spread to report.
fn cell(report: &Json, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let c = report
        .get("workloads")?
        .get(workload)?
        .get("summary")?
        .get(metric)?;
    let median = c.get("median")?.as_f64()?;
    let spread = match (
        c.get("q1").and_then(Json::as_f64),
        c.get("q3").and_then(Json::as_f64),
    ) {
        (Some(q1), Some(q3)) if median != 0.0 => (q3 - q1).abs() / median.abs(),
        _ => 0.0,
    };
    Some((median, spread))
}

/// How much worse `new` is than `base`, as a share of `base` (negative
/// when it is better).
fn worsening(metric: &EndToEnd, base: f64, new: f64) -> f64 {
    let change = (new - base) / base;
    if metric.higher_is_better {
        -change
    } else {
        change
    }
}

pub fn judge(metric: &EndToEnd, base: (f64, f64), new: (f64, f64)) -> Verdict {
    let spread = base.1.max(new.1);
    let worse = worsening(metric, base.0, new.0);
    if spread > metric.bound {
        Verdict::Unresolved
    } else if worse > metric.bound {
        Verdict::Regressed
    } else if -worse > metric.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

pub fn run(base_path: &Path, new_path: &Path) -> Result<i32, String> {
    let load = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{}: {e}", path.display())))
    };
    let (base, new) = (load(base_path)?, load(new_path)?);
    let mut regressed = 0;
    println!(
        "{:<14} {:<30} {:>12} {:>12} {:>14} {:>7} {:>8}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound", "spread"
    );
    for workload in crate::workload::NAMES {
        for metric in &END_TO_END {
            let (Some(b), Some(n)) = (
                cell(&base, workload, metric.name),
                cell(&new, workload, metric.name),
            ) else {
                return Err(format!(
                    "{workload} {} is missing from an input",
                    metric.name
                ));
            };
            let verdict = judge(metric, b, n);
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{:<14} {:<30} {:>12.4} {:>12.4} {:>7.3}x base {:>6.0}% {:>7.1}%  {}",
                workload,
                format!("{} [{}]", metric.name, metric.unit),
                b.0,
                n.0,
                n.0 / b.0,
                metric.bound * 100.0,
                b.1.max(n.1) * 100.0,
                verdict.label()
            );
        }
    }
    Ok(if regressed > 0 { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let ops = &END_TO_END[0]; // higher is better, bound 20%
        let p50 = &END_TO_END[1]; // lower is better, bound 20%
        assert_eq!(
            judge(ops, (1000.0, 0.01), (1020.0, 0.02)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(ops, (1000.0, 0.01), (750.0, 0.02)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(ops, (1000.0, 0.01), (1300.0, 0.02)),
            Verdict::Improved
        );
        assert_eq!(judge(p50, (2.0, 0.01), (2.5, 0.01)), Verdict::Regressed);
        assert_eq!(judge(p50, (2.0, 0.01), (1.5, 0.01)), Verdict::Improved);
        // Noise wider than the bound hides everything.
        assert_eq!(judge(p50, (2.0, 0.30), (2.5, 0.01)), Verdict::Unresolved);
    }
}
