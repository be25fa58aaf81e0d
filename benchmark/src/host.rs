//! Host fingerprint: the facts a reader needs before comparing two outputs.

use crate::json::Json;
use std::path::Path;
use std::process::Command;

/// First line of a command's output, or `"unknown"` when it cannot run
/// (the driver's checkout, for one, is not a git repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix
/// in `/proc/mounts`).
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut cols = l.split_whitespace();
            let (_, point, fs) = (cols.next()?, cols.next()?, cols.next()?);
            dir.starts_with(point).then_some((point.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The header printed before every result.
pub fn fingerprint(seed: u64, window_s: f64, warmup_s: f64, data_dir: &Path) -> Json {
    let fs = fs_type(data_dir);
    Json::obj([
        ("nproc", Json::from(nproc() as u64)),
        ("undersized_host", Json::from(nproc() < 2)),
        ("cpu_model", Json::str(cpu_model())),
        ("rustc", Json::str(first_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::from(seed)),
        ("backend", Json::str("file")),
        ("durability", Json::str("wal")),
        (
            "flush_policy",
            Json::str("one fsync barrier per commit; checkpoint every 512 WAL frames"),
        ),
        // On tmpfs fsync is free, so write latencies say nothing about
        // durability cost.
        ("fsync_is_free", Json::from(fs == "tmpfs" || fs == "ramfs")),
        ("fs_type", Json::str(fs)),
        ("clients", Json::from(crate::workload::CLIENTS as u64)),
        ("window_s", Json::from(window_s)),
        ("warmup_s", Json::from(warmup_s)),
    ])
}
