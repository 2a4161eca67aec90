//! Open-loop real-socket benchmark of the secure pool-serving runtime.
//!
//! `perfbench` drives a real `PoolRuntime` (2 shards, shipped defaults)
//! over loopback UDP with an open-loop generator and prints the
//! end-to-end metrics; `perfbench-trace` (built with a counting global
//! allocator) prints the per-layer metrics, timing calls into each layer
//! from this crate's own code. `run.py` builds both and picks one; see
//! `README.md` for the workloads and what each metric means.
//!
//! * [`workload`] — the workloads and their seeded query streams.
//! * [`stack`] — fleet, runtime and warm-up.
//! * [`loadgen`] — the open-loop sender and receiver.
//! * [`check`] — the correctness gate on every legitimate answer.
//! * [`bench`] — one run: set-up, phases, diagnostics, result line.
//! * [`trace`] — the traced run: spans, allocation counts, layer calls.
//! * [`sys`], [`report`] — procfs and libc readings; percentiles and JSON.

pub mod bench;
pub mod check;
pub mod loadgen;
pub mod report;
pub mod stack;
pub mod sys;
pub mod trace;
pub mod workload;

use std::time::Instant;

/// Shared `main` of both binaries.
pub fn main_with(traced: bool) -> std::process::ExitCode {
    let process_start = Instant::now();
    let args = match bench::parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    let outcome = if traced {
        trace::run_traced(&args)
    } else {
        bench::run_untraced(&args, process_start)
    };
    match outcome {
        Ok(true) => std::process::ExitCode::SUCCESS,
        Ok(false) => std::process::ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::ExitCode::from(3)
        }
    }
}
