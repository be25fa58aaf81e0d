//! Throughput gates for the shared read path: more reader threads must
//! complete more read-mix passes.
//!
//! Each gate measures wall-clock throughput, so a concurrent test would
//! steal its cores: this binary holds only these gates, and each one runs
//! under [`serial`]. They only assert on hosts with at least 4 cores. The
//! wait-freedom gates count on each reader thread's own work ledger and
//! live beside the other concurrency tests (`stress_concurrent.rs`,
//! `wait_free::`).

mod support;

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use support::{read_mix, run_readers, warm_store};

/// Serializes the gates: their throughput windows must not overlap.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Read-mix passes per second on 1 thread and on `threads` threads.
fn throughput(threads: usize) -> (f64, f64) {
    let (store, d) = warm_store(60);
    let window = Duration::from_millis(120);
    let mut qps = [0.0; 2];
    for (slot, n) in [1, threads].into_iter().enumerate() {
        let started = Instant::now();
        let passes = run_readers(n, window, read_mix(Arc::clone(&store), d));
        qps[slot] = passes as f64 / started.elapsed().as_secs_f64();
    }
    (qps[0], qps[1])
}

/// 4 reader threads must beat 2x the single-thread aggregate on the
/// in-memory backend (asserted on hosts with at least 4 cores).
#[test]
fn four_threads_at_least_double_single_thread_throughput() {
    let _serial = serial();
    let (one, four) = throughput(4);
    if cores() >= 4 {
        assert!(
            four >= 2.0 * one,
            "4-thread read throughput {four:.0} passes/s is under 2x the \
             single-thread {one:.0} passes/s"
        );
    }
}

/// The scaling gate: 8 reader threads must at least double the
/// single-thread aggregate throughput (on at least 4 cores). Its
/// wait-freedom half is `wait_free::read_path_records_no_waits` in
/// `stress_concurrent.rs`.
#[test]
fn scaling_gate_lock_free_read_path() {
    let _serial = serial();
    let (one, eight) = throughput(8);
    if cores() >= 4 {
        assert!(
            eight >= 2.0 * one,
            "8-thread read throughput {eight:.0} passes/s is under 2x the \
             single-thread {one:.0} passes/s"
        );
    }
}
