//! `run` and `trace`: every workload, each in its own child process, with
//! repetitions summarised as median and quartiles.

use crate::json::Json;
use crate::workload::NAMES;
use crate::Flags;
use std::process::{Command, Stdio};

/// `run_seconds` of `BENCHMARK.json`: the window `run`/`trace` use unless
/// told otherwise, so their numbers compare with the driver's.
pub const DEFAULT_SECONDS: f64 = 15.0;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so a spread computed here is the spread the
/// driver computes. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// One child process: one workload, one repetition. Returns the parsed
/// header, diagnostics and result lines.
fn child(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<(Json, Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {name} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("check: FAIL")) {
        println!("{line}");
    }
    let find = |key: &str| {
        stdout
            .lines()
            .filter_map(|l| Json::parse(l).ok())
            .find_map(|j| j.get(key).cloned())
            .ok_or_else(|| format!("the {name} child printed no {key}"))
    };
    let result = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("the {name} child printed nothing"))
        .and_then(|l| Json::parse(l).map_err(|e| format!("{name}: bad result line: {e}")))?;
    if result.get("metrics").is_none() {
        return Err(format!("the {name} child exited with {}", output.status));
    }
    Ok((find("header")?, find("diagnostics")?, result))
}

pub fn run(flags: &Flags, traced: bool) -> Result<i32, String> {
    let seed: u64 = flags.number("seed", None)?;
    let seconds: f64 = flags.number("seconds", Some(DEFAULT_SECONDS))?;
    let repeat: usize = flags.number("repeat", Some(1))?;
    let mut header = Json::Null;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for name in NAMES {
        let mut runs = Vec::new();
        // metric name -> (unit, one value per repetition)
        let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
        for rep in 0..repeat {
            eprintln!("bench: {name} repetition {}/{repeat}", rep + 1);
            let (head, diagnostics, result) = child(name, seed, seconds, traced)?;
            header = head;
            all_correct &= result.get("correct") == Some(&Json::Bool(true));
            for (metric, cell) in result.get("metrics").map_or(&[][..], Json::fields) {
                let value = cell.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = cell.get("unit").and_then(Json::as_str).unwrap_or("");
                match series.iter_mut().find(|(m, _, _)| m == metric) {
                    Some((_, _, values)) => values.push(value),
                    None => series.push((metric.clone(), unit.to_string(), vec![value])),
                }
            }
            runs.push(Json::obj([
                ("result", result),
                ("diagnostics", diagnostics),
            ]));
        }
        let summary = Json::obj(series.into_iter().map(|(metric, unit, mut values)| {
            let q = quartiles(&values);
            let cell = Json::obj([
                ("unit", Json::Str(unit)),
                (
                    "values",
                    Json::Arr(values.iter().map(|&v| Json::from(v)).collect()),
                ),
                ("median", Json::from(crate::workload::median(&mut values))),
                ("q1", q.map_or(Json::Null, |q| Json::from(q[0]))),
                ("q3", q.map_or(Json::Null, |q| Json::from(q[2]))),
            ]);
            (metric, cell)
        }));
        workloads.push((
            name,
            Json::obj([("summary", summary), ("runs", Json::Arr(runs))]),
        ));
    }
    let report = Json::obj([
        ("header", header),
        ("traced", Json::from(traced)),
        ("repeat", Json::from(repeat as u64)),
        ("workloads", Json::obj(workloads)),
    ]);
    match flags.get("out") {
        Some(path) => std::fs::write(path, format!("{report}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?,
        None => println!("{report}"),
    }
    Ok(if all_correct { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
