//! One benchmark run: set up, self-test the gate, drive the open-loop
//! phases, read the program's counters from outside, print the result.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sdoh_core::ServeSnapshot;

use crate::check::{self_test, Checker};
use crate::loadgen::{run_phase, Client, Phase, PhaseResult, Sample, SLICE};
use crate::report::{median_f64, object, percentile, result_line, tails};
use crate::stack::{build, Stack};
use crate::sys;
use crate::trace::LoadProbe;
use crate::workload::{stream, Rng, Workload, SHARDS};

const SLICE_NS: u64 = SLICE.as_nanos() as u64;
const MIN_SLICE_SAMPLES: usize = 100;
/// Largest stolen share of host CPU time for a slice to count as quiet.
const QUIET_STEAL: f64 = 0.02;
/// Slices the gated readings use at the least (two seconds' worth), the
/// least-stolen ones when fewer are quiet.
const MIN_QUIET_SLICES: usize = 8;
/// Set-ups per untraced run (`setup_s` is the median of the quiet ones):
/// at least the minimum, and up to the maximum while they fit the budget.
const SETUP_REPEATS: (usize, usize) = (3, 61);
const SETUP_BUDGET: Duration = Duration::from_secs(3);
/// Shares of `--seconds`: an unmeasured pre-roll at the steady rate, the
/// measured steady phase and the overload phase.
const PREROLL_SHARE: f64 = 0.1;
const STEADY_SHARE: f64 = 0.7;
const OVERLOAD_SHARE: f64 = 0.2;
/// Steady-phase sends later than this at the median make the run
/// invalid: the generator fell behind its schedule, so it did not offer
/// the workload's rate. (Tail lateness is reported, not gated: on a
/// shared virtual host it tracks vCPU steal, which delays the program
/// alike.)
const LATE_P50_LIMIT: Duration = Duration::from_millis(1);

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Only the steady phase (the untraced reference of a traced run).
    pub steady_only: bool,
    pub untraced_p50_us: Option<f64>,
    pub spans_out: Option<String>,
    pub meta: Vec<(String, String)>,
}

pub fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut steady_only = false;
    let mut untraced_p50_us = None;
    let mut spans_out = None;
    let mut meta = Vec::new();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--steady-only" => steady_only = true,
            "--untraced-p50-us" => {
                untraced_p50_us = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--untraced-p50-us: {e}"))?,
                )
            }
            "--spans-out" => spans_out = Some(value()?),
            "--meta" => {
                let pair = value()?;
                let (k, v) = pair.split_once('=').ok_or("--meta takes key=value")?;
                meta.push((k.to_string(), v.to_string()));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        steady_only,
        untraced_p50_us,
        spans_out,
        meta,
    })
}

/// Everything a run measured, shared by the untraced and traced reports.
pub struct Measured {
    pub setup: SetupTimes,
    pub steady: PhaseResult,
    pub overload: Option<PhaseResult>,
    /// Server CPU over the whole steady phase (process minus generator).
    pub steady_server_cpu: Duration,
    pub client_drops: u64,
    pub server_drops: u64,
    pub dropped_queries: u64,
    /// Peak RSS through set-up and the steady phase.
    pub rss_steady_peak_mib: f64,
    /// Peak RSS at the end, after the overload phase.
    pub rss_end_peak_mib: f64,
    /// Latencies of the operator thread's `stats()` calls (traced runs).
    pub stats_calls: Vec<Duration>,
    /// CPU of the operator thread (it exits with the steady phase).
    pub stats_thread_cpu: Duration,
}

/// Interval of the operator thread's `stats()` calls in a traced run.
const STATS_WATCH_INTERVAL: Duration = Duration::from_millis(200);

/// What set-up took: the median over the quiet builds (see
/// [`quiet_builds`]), and the first build alone, timed from process start.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub median_s: f64,
    pub first_s: f64,
}

/// Builds the stack `repeats.0..=repeats.1` times (keeping the last),
/// timing each; the first build counts from process start. Each earlier
/// stack is shut down and dropped before the next is built, so at most
/// one is ever resident and the peak RSS is that of the stack kept.
pub fn setup(
    args: &Args,
    process_start: Instant,
    repeats: (usize, usize),
) -> Result<(Stack, SetupTimes), String> {
    let mut times = Vec::with_capacity(repeats.1);
    let mut steals = Vec::with_capacity(repeats.1);
    let mut kept: Option<Stack> = None;
    for rep in 0..repeats.1 {
        if rep >= repeats.0 && process_start.elapsed() > SETUP_BUDGET {
            break;
        }
        if let Some(old) = kept.take() {
            old.runtime.shutdown();
        }
        let started = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let steal_before = sys::cpu_ticks().0;
        kept = Some(build(&args.workload)?);
        times.push(started.elapsed().as_secs_f64());
        steals.push(sys::cpu_ticks().0.saturating_sub(steal_before));
    }
    let stack = kept.ok_or("no set-up ran")?;
    let quiet = quiet_builds(&steals);
    let mut quiet_times: Vec<f64> = quiet.iter().map(|&k| times[k]).collect();
    let median_s = median_f64(&mut quiet_times);
    let first_s = times[0];
    let mut sorted = times;
    let all_median_s = median_f64(&mut sorted);
    println!(
        "SETUP: {} builds ({} quiet), first {first_s:.6} s, min {:.6} s, median {all_median_s:.6} s, \
         quiet median {median_s:.6} s, max {:.6} s",
        sorted.len(),
        quiet.len(),
        sorted[0],
        sorted[sorted.len() - 1],
    );
    Ok((stack, SetupTimes { median_s, first_s }))
}

/// The builds `setup_s` uses: those during which the hypervisor stole no
/// CPU tick from the host, or, when fewer than a quarter were that quiet,
/// the least-stolen quarter. A build lasts a few milliseconds, so one
/// stolen tick doubles it; those readings measure the neighbours.
pub fn quiet_builds(steal_ticks: &[u64]) -> Vec<usize> {
    let mut kept: Vec<usize> = (0..steal_ticks.len()).collect();
    kept.sort_by_key(|&k| steal_ticks[k]);
    let quiet = steal_ticks.iter().filter(|&&t| t == 0).count();
    kept.truncate(quiet.max(steal_ticks.len().div_ceil(4)));
    kept.sort_unstable();
    kept
}

/// Runs the pre-roll, steady and overload phases against a built stack.
/// A traced run passes a `probe`: it is read around both measured phases,
/// and an operator thread calls `PoolRuntime::stats()` during the steady
/// phase.
pub fn drive(
    args: &Args,
    stack: &mut Stack,
    setup: SetupTimes,
    mut probe: Option<&mut LoadProbe>,
) -> Result<Measured, String> {
    let w = &args.workload;
    let client = Client::new().map_err(|e| format!("client sockets: {e}"))?;
    let server = stack.runtime.udp_addr();
    let server_drops_before = sys::udp_drops(server.port());
    let mut rng = Rng::new(args.seed);
    let total_share = if args.steady_only {
        PREROLL_SHARE + STEADY_SHARE
    } else {
        1.0
    };
    let scale = args.seconds / total_share;
    let count = |qps: f64, share: f64| ((qps * share * scale).round() as usize).max(1);

    let phase = |checker: &mut Checker,
                 templates: &[Vec<u8>],
                 qps: f64,
                 share: f64,
                 drain: Duration,
                 rng: &mut Rng| {
        let s = stream(w, count(qps, share), rng);
        let rate = qps * (1.0 + w.attack_share);
        run_phase(
            &client,
            server,
            checker,
            &Phase {
                items: &s.items,
                legit_templates: templates,
                attack_templates: &s.attack_templates,
                rate,
                drain,
            },
        )
    };

    let preroll = phase(
        &mut stack.checker,
        &stack.templates,
        w.steady_qps,
        PREROLL_SHARE,
        Duration::from_millis(200),
        &mut rng,
    );
    if preroll.wrong > 0 {
        return Err(format!(
            "pre-roll: incorrect answer: {:?}",
            preroll.first_wrong
        ));
    }
    if let Some(p) = probe.as_deref_mut() {
        p.read(0, stack);
    }
    let cpu_before = sys::process_cpu();
    let watching = AtomicBool::new(true);
    let (steady, (stats_calls, stats_thread_cpu)) = std::thread::scope(|scope| {
        let runtime = &stack.runtime;
        let watching = &watching;
        let watcher = probe.is_some().then(|| {
            scope.spawn(move || {
                let mut calls = Vec::new();
                while watching.load(Ordering::Acquire) {
                    std::thread::sleep(STATS_WATCH_INTERVAL);
                    let started = Instant::now();
                    let _ = runtime.stats();
                    calls.push(started.elapsed());
                }
                (calls, sys::thread_cpu())
            })
        });
        let steady = phase(
            &mut stack.checker,
            &stack.templates,
            w.steady_qps,
            STEADY_SHARE,
            crate::loadgen::TIMEOUT,
            &mut rng,
        );
        watching.store(false, Ordering::Release);
        let watched = watcher.map(|w| w.join().expect("stats watcher panicked"));
        (steady, watched.unwrap_or_default())
    });
    let steady_process_cpu = sys::process_cpu().saturating_sub(cpu_before);
    if let Some(p) = probe.as_deref_mut() {
        p.read(1, stack);
    }
    let rss_steady_peak_mib = sys::peak_rss_mib();
    let steady_server_cpu = steady_process_cpu.saturating_sub(steady.loadgen_cpu);
    let overload = if args.steady_only {
        None
    } else {
        Some(phase(
            &mut stack.checker,
            &stack.templates,
            w.overload_qps,
            OVERLOAD_SHARE,
            Duration::from_secs(2),
            &mut rng,
        ))
    };
    if let (Some(p), Some(_)) = (probe, &overload) {
        p.read_counters(2, stack);
    }
    let stats = stack.runtime.stats();
    Ok(Measured {
        setup,
        steady,
        overload,
        steady_server_cpu,
        client_drops: client.drops(),
        server_drops: sys::udp_drops(server.port()).saturating_sub(server_drops_before),
        dropped_queries: stats.dropped_queries,
        rss_steady_peak_mib,
        rss_end_peak_mib: sys::peak_rss_mib(),
        stats_calls,
        stats_thread_cpu,
    })
}

pub fn sorted_latencies(phase: &PhaseResult) -> Vec<u64> {
    let mut v: Vec<u64> = phase.samples.iter().map(Sample::latency_ns).collect();
    v.sort_unstable();
    v
}

/// Each slice's (by due instant) median latency, in
/// microseconds; `None` for a slice with too few samples.
pub fn slice_p50s_us(phase: &PhaseResult) -> Vec<Option<f64>> {
    let mut slices: Vec<Vec<u64>> = Vec::new();
    for sample in &phase.samples {
        let slice = (sample.due_ns / SLICE_NS) as usize;
        if slices.len() <= slice {
            slices.resize_with(slice + 1, Vec::new);
        }
        slices[slice].push(sample.latency_ns());
    }
    slices
        .iter_mut()
        .map(|s| {
            s.sort_unstable();
            (s.len() >= MIN_SLICE_SAMPLES).then(|| percentile(s, 0.5).unwrap_or(0) as f64 / 1e3)
        })
        .collect()
}

/// The program's CPU per query due in each slice, in microseconds.
pub fn slice_cpus_us(phase: &PhaseResult) -> Vec<f64> {
    phase
        .slices
        .iter()
        .map(|s| s.program_cpu.as_secs_f64() * 1e6 / s.queries.max(1) as f64)
        .collect()
}

/// The slices the gated readings use. On a shared virtual host the
/// hypervisor at times takes a third of the guest's CPU time ("steal"),
/// which delays the program and the generator alike for seconds at a
/// time; those seconds measure the neighbours, not the program. Kept are
/// the slices with at most `QUIET_STEAL` stolen, or, when fewer than
/// `MIN_QUIET_SLICES` are that quiet, that many least-stolen ones.
pub fn quiet_slices(phase: &PhaseResult) -> Vec<usize> {
    let p50s = slice_p50s_us(phase);
    let mut kept: Vec<usize> = (0..phase.slices.len())
        .filter(|&k| {
            phase.slices[k].queries >= MIN_SLICE_SAMPLES && p50s.get(k).is_some_and(Option::is_some)
        })
        .collect();
    kept.sort_by(|&a, &b| phase.slices[a].steal.total_cmp(&phase.slices[b].steal));
    let quiet = kept
        .iter()
        .filter(|&&k| phase.slices[k].steal <= QUIET_STEAL)
        .count();
    kept.truncate(quiet.max(MIN_QUIET_SLICES));
    kept.sort_unstable();
    kept
}

/// Median latency of the steady phase: the median over the quiet slices
/// of each slice's median, in microseconds.
pub fn sliced_p50_us(phase: &PhaseResult) -> f64 {
    let p50s = slice_p50s_us(phase);
    let mut kept: Vec<f64> = quiet_slices(phase)
        .iter()
        .filter_map(|&k| p50s[k])
        .collect();
    median_f64(&mut kept)
}

/// Program CPU per query of the steady phase: the median over the quiet
/// slices, in microseconds.
pub fn sliced_server_cpu_us(phase: &PhaseResult) -> f64 {
    let cpus = slice_cpus_us(phase);
    let mut kept: Vec<f64> = quiet_slices(phase).iter().map(|&k| cpus[k]).collect();
    median_f64(&mut kept)
}

/// Median over the window's slices of the correct legitimate answers
/// received in each slice, per second.
pub fn sliced_goodput(phase: &PhaseResult) -> f64 {
    let slices = (phase.window.as_nanos() as u64 / SLICE_NS).max(1) as usize;
    let mut counts = vec![0f64; slices];
    for sample in &phase.samples {
        if let Some(count) = counts.get_mut((sample.recv_ns / SLICE_NS) as usize) {
            *count += 1.0;
        }
    }
    median_f64(&mut counts) / SLICE.as_secs_f64()
}

/// How late the phase's sends ran at quantile `q`, in microseconds.
pub fn lateness_us(phase: &PhaseResult, q: f64) -> f64 {
    quantile_us(&phase.lateness_ns, q)
}

/// Quantile `q` of nanosecond readings, in microseconds.
fn quantile_us(ns: &[u64], q: f64) -> f64 {
    let mut v = ns.to_vec();
    v.sort_unstable();
    percentile(&v, q).unwrap_or(0) as f64 / 1e3
}

/// Prints metadata, per-phase diagnostics and loss attribution, and
/// returns the reasons the run is invalid (generator-side faults).
fn print_diagnostics(args: &Args, m: &Measured) -> Vec<String> {
    let w = &args.workload;
    let mut meta: Vec<(String, String)> = sys::fingerprint()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    meta.extend(args.meta.iter().cloned());
    meta.push(("workload".into(), w.name.into()));
    meta.push(("seed".into(), args.seed.to_string()));
    meta.push(("seconds".into(), args.seconds.to_string()));
    meta.push(("shards".into(), SHARDS.to_string()));
    meta.push((
        "steady_qps".into(),
        (w.steady_qps * (1.0 + w.attack_share)).to_string(),
    ));
    meta.push((
        "overload_qps".into(),
        (w.overload_qps * (1.0 + w.attack_share)).to_string(),
    ));
    meta.push(("steady_sent".into(), m.steady.sent.to_string()));
    meta.push(("steady_samples".into(), m.steady.samples.len().to_string()));
    if let Some(o) = &m.overload {
        meta.push(("overload_sent".into(), o.sent.to_string()));
        meta.push(("overload_samples".into(), o.samples.len().to_string()));
    }
    println!("META {}", object(&meta));
    println!("{}", tails("steady", &sorted_latencies(&m.steady)));
    if let Some(o) = &m.overload {
        println!("{}", tails("overload", &sorted_latencies(o)));
    }
    let mut invalid = Vec::new();
    for (label, phase) in
        std::iter::once(("steady", &m.steady)).chain(m.overload.iter().map(|o| ("overload", o)))
    {
        let lost = phase.legit_sent - phase.legit_ok - phase.legit_late - phase.wrong;
        println!(
            "PHASE {label}: sent={} legit={} attack={} ok={} late={} wrong={} lost={} \
             attack_answered={} duplicates={} strays={} late_p50_us={:.1} late_p99_us={:.1} read_delay_p50_us={:.1} \
             read_delay_p99_us={:.1} loadgen_cpu_s={:.3} steal={:.1}%",
            phase.sent,
            phase.legit_sent,
            phase.attack_sent,
            phase.legit_ok,
            phase.legit_late,
            phase.wrong,
            lost,
            phase.attack_answered,
            phase.duplicates,
            phase.strays,
            lateness_us(phase, 0.5),
            lateness_us(phase, 0.99),
            quantile_us(&phase.read_delay_ns, 0.5),
            quantile_us(&phase.read_delay_ns, 0.99),
            phase.loadgen_cpu.as_secs_f64(),
            phase.steal_share * 100.0,
        );
    }
    let fmt = |v: Vec<f64>| {
        v.iter()
            .map(|x| format!("{x:.0}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let p50s: Vec<f64> = slice_p50s_us(&m.steady)
        .into_iter()
        .map(|p| p.unwrap_or(0.0))
        .collect();
    let steal: Vec<f64> = m.steady.slices.iter().map(|s| s.steal * 100.0).collect();
    println!(
        "SLICES p50_us=[{}] cpu_us=[{}] steal_pct=[{}] quiet={:?}",
        fmt(p50s),
        fmt(slice_cpus_us(&m.steady)),
        fmt(steal),
        quiet_slices(&m.steady)
    );
    println!(
        "STEADY: whole-phase server CPU {:.1} us/query over {} answered",
        m.steady_server_cpu.as_secs_f64() * 1e6 / m.steady.samples.len().max(1) as f64,
        m.steady.samples.len()
    );
    let line: Vec<String> = ungated(m)
        .iter()
        .map(|(name, value, unit)| format!("{name}={value:.4} {unit}"))
        .collect();
    println!("UNGATED {}", line.join(" "));
    println!(
        "LOSS: server_socket_drops={} client_socket_drops={} runtime_dropped_queries={}",
        m.server_drops, m.client_drops, m.dropped_queries
    );
    // Only the steady phase feeds gated metrics; generator drops in the
    // overload phase void its (ungated) goodput reading instead.
    if m.steady.client_drops > 0 {
        invalid.push(format!(
            "{} kernel drops on the generator's sockets",
            m.steady.client_drops
        ));
    }
    let late = lateness_us(&m.steady, 0.5);
    if late > LATE_P50_LIMIT.as_secs_f64() * 1e6 {
        invalid.push(format!("steady sends ran {late:.0} us late at the median"));
    }
    invalid
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(m: &Measured) -> Vec<(&'static str, f64, &'static str)> {
    let steady = &m.steady;
    let p50_us = sliced_p50_us(steady);
    let server_cpu_us = sliced_server_cpu_us(steady);
    let answered_ratio = steady.legit_ok as f64 / steady.legit_sent.max(1) as f64;
    vec![
        ("setup_s", m.setup.median_s, "s"),
        ("p50_us", p50_us, "us"),
        ("server_cpu_us", server_cpu_us, "us/query"),
        ("answered_ratio", answered_ratio, "ratio"),
        ("rss_peak_mb", m.rss_steady_peak_mib, "MiB"),
    ]
}

/// End-to-end readings printed beside the result but not gated: their
/// run-to-run spread on a small shared host is wider than any bound that
/// would still catch a regression (see BENCHMARK.json).
pub fn ungated(m: &Measured) -> Vec<(&'static str, f64, &'static str)> {
    let steady = &m.steady;
    let mut out = vec![
        (
            "fail_ratio",
            (steady.legit_sent - steady.legit_ok) as f64 / steady.legit_sent.max(1) as f64,
            "ratio",
        ),
        ("setup_first_s", m.setup.first_s, "s"),
    ];
    if let Some(o) = &m.overload {
        out.push((
            "overload_valid",
            f64::from(u8::from(o.client_drops == 0)),
            "bool",
        ));
        out.push(("goodput_qps", sliced_goodput(o), "1/s"));
        out.push(("rss_overload_peak_mb", m.rss_end_peak_mib, "MiB"));
    }
    out
}

/// Checks the gate against corrupted and wrong-pool answers.
pub fn gate_self_test(stack: &Stack) -> Result<(), String> {
    self_test(
        &stack.checker,
        0,
        0,
        &stack.sample_answer,
        &stack.fleet.attacker,
    )
    .map_err(|e| format!("correctness gate self-test: {e}"))
}

/// Untraced entry point; `Ok(false)` when an answer was incorrect.
pub fn run_untraced(args: &Args, process_start: Instant) -> Result<bool, String> {
    let (mut stack, setup_times) = setup(args, process_start, SETUP_REPEATS)?;
    gate_self_test(&stack)?;
    let measured = drive(args, &mut stack, setup_times, None)?;
    let Stack { runtime, .. } = stack;
    let final_stats = runtime.shutdown();
    println!("RUNTIME {}", summary(&final_stats.total));
    finish(args, &measured, end_to_end(&measured))
}

pub fn summary(s: &ServeSnapshot) -> String {
    format!(
        "queries={} hits={} stale={} misses={} negative_hits={} generations={} failures={} evictions={} entries={}",
        s.serve.queries,
        s.serve.hits,
        s.serve.stale_serves,
        s.serve.misses,
        s.serve.negative_hits,
        s.serve.generations,
        s.serve.generation_failures,
        s.cache.evictions,
        s.entries
    )
}

/// Prints diagnostics and the result line. An invalid run is an error
/// (no result line); an incorrect answer gives `correct: false` and
/// `Ok(false)`.
pub fn finish(args: &Args, m: &Measured, metrics: Vec<(&str, f64, &str)>) -> Result<bool, String> {
    let invalid = print_diagnostics(args, m);
    if !invalid.is_empty() {
        return Err(format!(
            "INVALID run (generator fault, not a program result): {}",
            invalid.join("; ")
        ));
    }
    let phases = std::iter::once(&m.steady).chain(m.overload.iter());
    let wrong: usize = phases.clone().map(|p| p.wrong).sum();
    if let Some(why) = phases.clone().find_map(|p| p.first_wrong.clone()) {
        println!("WRONG: {wrong} incorrect legitimate answers; first: {why}");
    }
    let attempted = m.steady.legit_sent;
    let failed = m.steady.legit_sent - m.steady.legit_ok;
    println!("{}", result_line(wrong == 0, attempted, failed, &metrics));
    Ok(wrong == 0)
}

#[cfg(test)]
mod tests {
    use super::quiet_builds;

    #[test]
    fn quiet_builds_keep_steal_free_ones_or_the_least_stolen_quarter() {
        assert_eq!(quiet_builds(&[0, 2, 0, 1, 0]), vec![0, 2, 4]);
        assert_eq!(quiet_builds(&[3, 1, 2, 5, 4, 0, 6, 7]), vec![1, 5]);
    }
}
