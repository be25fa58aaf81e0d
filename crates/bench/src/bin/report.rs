//! The experiment runner: prints the paper-style tables for E1–E10 and
//! writes the same results — plus per-experiment engine counters — to
//! `BENCH_report.json`.
//!
//! ```text
//! report              # all experiments, quick scale
//! report all --full   # all experiments, paper-scale documents
//! report e3 e7        # selected experiments
//! report --no-json    # skip writing BENCH_report.json
//! report --trace      # collect structured spans for the whole run and
//!                     # export them as BENCH_trace.json (Chrome trace-event
//!                     # format) plus BENCH_trace.folded (flamegraph stacks)
//! ```

use ordxml_bench::{experiments, report, Scale};
use ordxml_rdbms::governance::Work;
use ordxml_rdbms::trace;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    let trace_run = args.iter().any(|a| a == "--trace");
    if trace_run {
        trace::clear();
        trace::set_enabled(true);
    }
    let write_json = !args.iter().any(|a| a == "--no-json");
    let selected: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect();
    let ids: Vec<&str> = if selected.is_empty() || selected.iter().any(|s| s == "all") {
        experiments::ALL.to_vec()
    } else {
        selected.iter().map(String::as_str).collect()
    };
    println!("ordxml experiment report — scale: {scale:?} (pass --full for paper-scale runs)");
    let mut records = Vec::new();
    for id in ids {
        match experiments::run(id, scale) {
            Some(r) => {
                println!(
                    "  [{id}] {:.2?}, {} engine statements ({} read / {} write)",
                    r.elapsed,
                    r.engine[Work::ReadStatement] + r.engine[Work::WriteStatement],
                    r.engine[Work::ReadStatement],
                    r.engine[Work::WriteStatement]
                );
                records.push(r);
            }
            None => {
                eprintln!("unknown experiment `{id}` (expected e1..e10 or `all`)");
                std::process::exit(2);
            }
        }
    }
    if trace_run {
        trace::set_enabled(false);
        let events = trace::drain();
        let chrome = trace::to_chrome_json(&events);
        if let Err(e) = ordxml_bench::json::validate(&chrome) {
            eprintln!("trace exporter produced malformed JSON: {e}");
            std::process::exit(1);
        }
        match std::fs::write("BENCH_trace.json", &chrome) {
            Ok(()) => println!("wrote BENCH_trace.json ({} spans)", events.len()),
            Err(e) => {
                eprintln!("failed to write BENCH_trace.json: {e}");
                std::process::exit(1);
            }
        }
        if let Err(e) = std::fs::write("BENCH_trace.folded", trace::to_collapsed(&events)) {
            eprintln!("failed to write BENCH_trace.folded: {e}");
            std::process::exit(1);
        }
    }
    if write_json {
        let scale_name = match scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        };
        let json = report::to_json(scale_name, &records);
        if let Err(e) = ordxml_bench::json::validate(&json) {
            eprintln!("report writer produced malformed JSON: {e}");
            std::process::exit(1);
        }
        let path = "BENCH_report.json";
        match std::fs::write(path, &json) {
            Ok(()) => println!("\nwrote {path} ({} experiments)", records.len()),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
