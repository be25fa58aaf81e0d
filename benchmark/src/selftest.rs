//! Fast self-test: every workload at toy scale, end to end.

use crate::compare::END_TO_END;
use crate::gen::{self, Rng};
use crate::json::Json;
use crate::workload::{
    self, build_clients, documents, drive, set_up, spec, Client, Outcome, NAMES,
};
use crate::{exit_code, trace};
use ordxml::Encoding;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// The engine's observability registry is one per process and the traced
/// pass reads it, so tests that run the engine take turns.
fn engine() -> MutexGuard<'static, ()> {
    static ENGINE: Mutex<()> = Mutex::new(());
    ENGINE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn out(test: &str) -> PathBuf {
    let dir = crate::out_dir().join(format!("selftest.{test}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const WINDOW: Duration = Duration::from_millis(300);
const WARMUP: Duration = Duration::from_millis(50);

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).unwrap()
}

/// The result line parses back and carries exactly the contract's keys.
fn metric_names_of(outcome: &Outcome) -> Vec<(String, String)> {
    let line = outcome.result_line().to_string();
    let parsed = Json::parse(&line).unwrap();
    let keys: Vec<&str> = parsed.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    parsed
        .get("metrics")
        .unwrap()
        .fields()
        .iter()
        .map(|(name, cell)| {
            assert!(cell.get("value").and_then(Json::as_f64).is_some(), "{name}");
            (name.clone(), field(cell, "unit").to_string())
        })
        .collect()
}

#[test]
fn every_workload_passes_its_oracle_and_reports_the_declared_metrics() {
    let _turn = engine();
    let declared = benchmark_json();
    let workloads: Vec<&str> = declared
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, NAMES);
    let end_to_end: Vec<(String, String)> = declared
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
        .collect();
    for (entry, metric) in declared
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .zip(&END_TO_END)
    {
        // `compare` judges by the same table the driver reads.
        assert_eq!(field(entry, "name"), metric.name);
        let better = if metric.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(field(entry, "better"), better, "{}", metric.name);
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            Some(metric.bound)
        );
    }
    assert_eq!(
        declared.get("run_seconds").and_then(Json::as_f64),
        Some(crate::suite::DEFAULT_SECONDS)
    );
    for name in NAMES {
        let toy = spec(name, true).unwrap();
        let outcome = workload::run(&toy, 7, WINDOW, WARMUP, &out("run"));
        assert!(outcome.correct(), "{name}: {:?}", outcome.failures);
        assert!(outcome.attempted > 0);
        assert_eq!(exit_code(&outcome), 0);
        assert_eq!(metric_names_of(&outcome), end_to_end, "{name}");
        for (metric, value, _) in &outcome.metrics {
            assert!(*value > 0.0, "{name} {metric} must never be 0");
        }
    }
}

/// The script as text: every line a client would send and every answer it
/// expects, then the first updates of its stream.
fn script_text(name: &str, seed: u64) -> String {
    let toy = spec(name, true).unwrap();
    let mut rng = Rng::new(seed);
    let docs = documents(&toy, &mut rng);
    let dir = out("script").join(format!("{name}.{seed}"));
    let loaded = set_up(&toy, &dir, &docs, Encoding::Dewey).unwrap();
    let clients = build_clients(&toy, &loaded.pool, &loaded.ids, docs, &mut rng);
    let mut text = String::new();
    for client in &clients {
        for op in &client.script {
            text.push_str(&format!("{:?} {} {:?}\n", op.use_line, op.line, op.expect));
        }
    }
    let mut stream = rng.fork();
    for serial in 0..40 {
        text.push_str(&format!(
            "{:?}\n",
            gen::next_update(toy.items, serial, &mut stream)
        ));
    }
    drop((clients, loaded));
    std::fs::remove_dir_all(dir).unwrap();
    text
}

#[test]
fn the_script_is_a_pure_function_of_the_seed() {
    let _turn = engine();
    for name in NAMES {
        let first = script_text(name, 11);
        assert!(!first.is_empty());
        assert_eq!(
            first,
            script_text(name, 11),
            "{name}: same seed, same script"
        );
        assert_ne!(
            first,
            script_text(name, 12),
            "{name}: another seed, another script"
        );
    }
}

#[test]
fn traced_counts_repeat_exactly_and_match_the_declared_names() {
    let _turn = engine();
    let declared: Vec<(String, String)> = benchmark_json()
        .get("per_layer")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
        .collect();
    for name in ["read.scan", "mixed.rw"] {
        let toy = spec(name, true).unwrap();
        let first = trace::run(&toy, 5, WINDOW, &out("trace"));
        let second = trace::run(&toy, 5, WINDOW, &out("trace"));
        assert!(first.correct(), "{name}: {:?}", first.failures);
        assert_eq!(metric_names_of(&first), declared, "{name}");
        let counts = |o: &Outcome| -> Vec<(String, f64)> {
            o.metrics
                .iter()
                // Latch waits depend on how two threads interleave.
                .filter(|(n, _, unit)| *unit == "count" && !n.starts_with("latch."))
                .map(|(n, v, _)| (n.clone(), *v))
                .collect()
        };
        assert!(counts(&first).len() > 10);
        assert_eq!(counts(&first), counts(&second), "{name}");
        let spans =
            std::fs::read_to_string(out("trace").join(format!("trace.{name}.json"))).unwrap();
        let spans = Json::parse(&spans).unwrap();
        assert!(spans.get("spans").and_then(Json::as_arr).unwrap().len() > toy.traced_ops);
    }
}

#[test]
fn a_wrong_answer_fails_the_run() {
    let _turn = engine();
    let toy = spec("read.point", true).unwrap();
    let mut rng = Rng::new(3);
    let docs = documents(&toy, &mut rng);
    let dir = out("wrong").join("data");
    let loaded = set_up(&toy, &dir, &docs, Encoding::Dewey).unwrap();
    let mut clients: Vec<Client> = build_clients(&toy, &loaded.pool, &loaded.ids, docs, &mut rng);
    // The oracle's answer for one scripted request is replaced by another.
    clients[0].script[1].expect.hash ^= 1;
    drive(&mut clients, WINDOW, 1);
    let (attempted, failed, failures) = workload::finish(&toy, clients, loaded.pool, &dir);
    assert!(failed > 0 && failed < attempted);
    assert!(
        failures[0].starts_with("check: FAIL read.point "),
        "{failures:?}"
    );
    let outcome = Outcome {
        attempted,
        failed,
        failures,
        metrics: Vec::new(),
        diagnostics: Json::Null,
    };
    assert!(!outcome.correct());
    assert_ne!(exit_code(&outcome), 0);
    assert_eq!(
        outcome.result_line().get("correct"),
        Some(&Json::Bool(false))
    );
}
