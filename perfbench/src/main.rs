//! End-to-end runs: no tracing, the system allocator.

fn main() -> std::process::ExitCode {
    perfbench::main_with(false)
}
