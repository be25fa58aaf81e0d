//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, in this process
//! bench run   --seed <n> [--seconds <s>] [--repeat <k>] [--out <file>]   every workload, end-to-end metrics
//! bench trace --seed <n> [--seconds <s>] [--out <file>]                  every workload, per-layer metrics
//! bench compare <a.json> <b.json>                                       judge two `run` outputs
//! ```

mod compare;
mod gen;
mod host;
mod json;
#[cfg(test)]
mod selftest;
mod suite;
mod trace;
mod workload;

use std::path::PathBuf;
use std::time::Duration;

/// Where data directories and trace files go: `out/` beside this package's
/// manifest, in the checkout the binary was built from, whatever the
/// working directory.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--key value` pairs after the subcommand.
pub struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, found {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn number<T: std::str::FromStr>(
        &self,
        name: &str,
        default: Option<T>,
    ) -> Result<T, String> {
        match self.get(name) {
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name}: cannot read {text:?}")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }
}

/// One workload in this process: prints the header, the diagnostics, any
/// check failures, and the result as the last line.
fn single(flags: &Flags) -> Result<i32, String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    let spec = workload::spec(name, false)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {:?}", workload::NAMES))?;
    let seed: u64 = flags.number("seed", None)?;
    let seconds: f64 = flags.number("seconds", None)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let traced = match flags.number::<u8>("trace", Some(0))? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let window = Duration::from_secs_f64(seconds);
    println!(
        "{}",
        json::Json::obj([(
            "header",
            host::fingerprint(seed, seconds, workload::WARMUP.as_secs_f64(), &out)
        )])
    );
    let outcome = if traced {
        trace::run(&spec, seed, window, &out)
    } else {
        workload::run(&spec, seed, window, workload::WARMUP, &out)
    };
    println!(
        "{}",
        json::Json::obj([("diagnostics", outcome.diagnostics.clone())])
    );
    for line in &outcome.failures {
        println!("{line}");
    }
    println!("{}", outcome.result_line());
    Ok(exit_code(&outcome))
}

/// Nonzero when any op failed, panicked, or disagreed with the oracle.
pub fn exit_code(outcome: &workload::Outcome) -> i32 {
    i32::from(!outcome.correct())
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("run") => suite::run(&Flags::parse(&args[1..])?, false),
        Some("trace") => suite::run(&Flags::parse(&args[1..])?, true),
        Some("compare") => match &args[1..] {
            [base, new] => compare::run(base.as_ref(), new.as_ref()),
            _ => Err("usage: compare <a.json> <b.json>".to_string()),
        },
        Some(flag) if flag.starts_with("--") => single(&Flags::parse(args)?),
        _ => Err(
            "usage: bench --workload <name> --seed <n> --seconds <s> --trace <0|1> | \
             run --seed <n> | trace --seed <n> | compare <a.json> <b.json>"
                .to_string(),
        ),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("bench: {message}");
            std::process::exit(2);
        }
    }
}
