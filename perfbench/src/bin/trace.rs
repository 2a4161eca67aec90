//! Traced runs: per-layer metrics, with allocations counted.

#[global_allocator]
static ALLOCATOR: perfbench::trace::CountingAlloc = perfbench::trace::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::main_with(true)
}
