//! The open-loop load generator: one sender (the calling thread) and one
//! receiver thread, so at most two threads however many cores the host has.
//!
//! Query `n` of a phase is due at `start + n / rate`, whatever happened
//! to earlier queries; its latency is timed from that intended instant,
//! so a stall is charged to every query it delays (no coordinated
//! omission), to the kernel's arrival stamp on the answer, so the
//! receiver's own scheduling is not charged to the program. The sender sleeps with a 1 µs timer slack until each due
//! instant and sends at once when it is behind; the receiver blocks in
//! `poll(2)`, never in a socket timeout, so neither side adds a jiffy.
//!
//! Queries rotate over `SOCKETS` client sockets and carry id
//! `(n / SOCKETS) mod 2^16`, so `(socket, id)` names one query uniquely
//! for `SOCKETS × 65536` sends.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::check::{Checker, Verdict};
use crate::sys;
use crate::workload::Item;

pub const SOCKETS: usize = 4;
/// Kernel receive buffer asked for on each client socket.
const CLIENT_RCVBUF: i32 = 4 << 20;
/// An answer later than this counts as lost.
pub const TIMEOUT: Duration = Duration::from_secs(1);
/// Lead time between arming the phase and its first due instant.
const LEAD: Duration = Duration::from_millis(5);

/// Client sockets kept across the phases of a run, so their drop counters
/// cover the whole run.
pub struct Client {
    sockets: Vec<UdpSocket>,
}

impl Client {
    pub fn new() -> std::io::Result<Client> {
        let mut sockets = Vec::with_capacity(SOCKETS);
        for _ in 0..SOCKETS {
            let socket = UdpSocket::bind("127.0.0.1:0")?;
            sys::set_recv_buffer(&socket, CLIENT_RCVBUF);
            sys::enable_receive_timestamps(&socket);
            socket.set_nonblocking(true)?;
            sockets.push(socket);
        }
        Ok(Client { sockets })
    }

    /// Kernel drops on the generator's own sockets so far.
    pub fn drops(&self) -> u64 {
        self.sockets
            .iter()
            .filter_map(|s| s.local_addr().ok())
            .map(|a| sys::udp_drops(a.port()))
            .sum()
    }
}

/// One phase to run.
pub struct Phase<'a> {
    pub items: &'a [Item],
    pub legit_templates: &'a [Vec<u8>],
    pub attack_templates: &'a [Vec<u8>],
    /// Queries per second over all items.
    pub rate: f64,
    /// How long to keep receiving after the last due instant.
    pub drain: Duration,
}

/// One correct legitimate answer: when its query was due and when the
/// kernel queued the answer on the generator's socket, in nanoseconds from
/// the phase's first due instant.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub due_ns: u64,
    pub recv_ns: u64,
}

impl Sample {
    /// Latency from the intended send instant.
    pub fn latency_ns(&self) -> u64 {
        self.recv_ns.saturating_sub(self.due_ns)
    }
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct PhaseResult {
    pub sent: usize,
    pub legit_sent: usize,
    pub attack_sent: usize,
    /// Correct legitimate answers within `TIMEOUT`.
    pub legit_ok: usize,
    pub legit_late: usize,
    pub wrong: usize,
    pub first_wrong: Option<String>,
    pub attack_answered: usize,
    pub duplicates: usize,
    pub strays: usize,
    pub samples: Vec<Sample>,
    /// Per correct answer: how long it sat in the socket before the
    /// receiver read it (not part of its latency).
    pub read_delay_ns: Vec<u64>,
    pub lateness_ns: Vec<u64>,
    /// Time from the first to the last due instant.
    pub window: Duration,
    pub loadgen_cpu: Duration,
    /// The receiver thread's share of `loadgen_cpu` (it exits with the
    /// phase; the sender is the calling thread).
    pub receiver_cpu: Duration,
    /// Share of host CPU time stolen by the hypervisor during the phase.
    pub steal_share: f64,
    /// Kernel drops on the generator's sockets during the phase.
    pub client_drops: u64,
    /// Readings per `SLICE` of the schedule.
    pub slices: Vec<SliceReading>,
}

/// What one slice of the schedule cost the host.
#[derive(Debug, Clone, Copy)]
pub struct SliceReading {
    /// The program's CPU time: process CPU minus the generator threads.
    pub program_cpu: Duration,
    /// Queries due in the slice.
    pub queries: usize,
    /// Share of the host's CPU time the hypervisor stole in the slice.
    pub steal: f64,
}

/// Length of the slices per-slice readings are taken over: short enough
/// to find the quiet stretches between a neighbour's bursts of vCPU steal,
/// long enough for a few hundred samples at the steady rate.
pub const SLICE: Duration = Duration::from_millis(250);

struct RecvOutcome {
    legit_ok: usize,
    legit_late: usize,
    wrong: usize,
    first_wrong: Option<String>,
    attack_answered: usize,
    duplicates: usize,
    strays: usize,
    samples: Vec<Sample>,
    read_delay_ns: Vec<u64>,
    cpu: Duration,
}

/// Runs one open-loop phase against `server`.
pub fn run_phase(
    client: &Client,
    server: SocketAddr,
    checker: &mut Checker,
    phase: &Phase<'_>,
) -> PhaseResult {
    let total = phase.items.len();
    let interval_ns = 1e9 / phase.rate;
    let due = |n: usize| Duration::from_nanos((n as f64 * interval_ns) as u64);
    let window = due(total.saturating_sub(1));
    let start = Instant::now() + LEAD;
    let sent = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let receiver_cpu = AtomicU64::new(0);
    let ticks_before = sys::cpu_ticks();
    let drops_before = client.drops();
    let (send_cpu, lateness_ns, slices, recv) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            receive(
                client,
                checker,
                phase,
                start,
                &due,
                window,
                &sent,
                &done,
                &receiver_cpu,
            )
        });
        sys::tighten_timer_slack();
        let cpu_start = sys::thread_cpu();
        // Program CPU per slice: process CPU minus both generator threads.
        let program_cpu = || {
            let generator =
                sys::thread_cpu() + Duration::from_nanos(receiver_cpu.load(Ordering::Relaxed));
            sys::process_cpu().saturating_sub(generator)
        };
        let mut slices = Vec::new();
        let mut slice_start = (program_cpu(), 0usize, sys::cpu_ticks());
        let mut lateness_ns = Vec::with_capacity(total);
        let mut buf = [0u8; 512];
        for (n, item) in phase.items.iter().enumerate() {
            let due_at = start + due(n);
            if due(n) >= SLICE * (slices.len() as u32 + 1) {
                let (now_cpu, ticks) = (program_cpu(), sys::cpu_ticks());
                slices.push(SliceReading {
                    program_cpu: now_cpu.saturating_sub(slice_start.0),
                    queries: n - slice_start.1,
                    steal: steal_share(slice_start.2, ticks),
                });
                slice_start = (now_cpu, n, ticks);
            }
            let now = Instant::now();
            if due_at > now {
                std::thread::sleep(due_at - now);
            }
            let late = Instant::now().saturating_duration_since(due_at);
            lateness_ns.push(late.as_nanos() as u64);
            let template = match *item {
                Item::Legit(d) => &phase.legit_templates[d as usize],
                Item::Attack(a) => &phase.attack_templates[a as usize],
            };
            let wire = &mut buf[..template.len()];
            wire.copy_from_slice(template);
            let id = ((n / SOCKETS) % 65536) as u16;
            wire[..2].copy_from_slice(&id.to_be_bytes());
            // Published before the send: the answer can beat the store.
            sent.store(n + 1, Ordering::Release);
            // A send error is a lost query, and the receiver counts it so.
            let _ = client.sockets[n % SOCKETS].send_to(wire, server);
        }
        let send_cpu = sys::thread_cpu().saturating_sub(cpu_start);
        done.store(true, Ordering::Release);
        let recv = receiver.join().expect("receiver thread panicked");
        (send_cpu, lateness_ns, slices, recv)
    });
    let legit_sent = phase
        .items
        .iter()
        .filter(|i| matches!(i, Item::Legit(_)))
        .count();
    PhaseResult {
        steal_share: steal_share(ticks_before, sys::cpu_ticks()),
        client_drops: client.drops().saturating_sub(drops_before),
        slices,
        sent: total,
        legit_sent,
        attack_sent: total - legit_sent,
        legit_ok: recv.legit_ok,
        legit_late: recv.legit_late,
        wrong: recv.wrong,
        first_wrong: recv.first_wrong,
        attack_answered: recv.attack_answered,
        duplicates: recv.duplicates,
        strays: recv.strays,
        samples: recv.samples,
        read_delay_ns: recv.read_delay_ns,
        lateness_ns,
        window,
        loadgen_cpu: send_cpu + recv.cpu,
        receiver_cpu: recv.cpu,
    }
}

/// Stolen share of the host CPU time between two `/proc/stat` readings.
fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    after.0.saturating_sub(before.0) as f64 / after.1.saturating_sub(before.1).max(1) as f64
}

#[allow(clippy::too_many_arguments)]
fn receive(
    client: &Client,
    checker: &mut Checker,
    phase: &Phase<'_>,
    start: Instant,
    due: &dyn Fn(usize) -> Duration,
    window: Duration,
    sent: &AtomicUsize,
    done: &AtomicBool,
    cpu_out: &AtomicU64,
) -> RecvOutcome {
    let cpu_start = sys::thread_cpu();
    let total = phase.items.len();
    let legit_total = phase
        .items
        .iter()
        .filter(|i| matches!(i, Item::Legit(_)))
        .count();
    let mut answered = vec![false; total];
    let mut out = RecvOutcome {
        legit_ok: 0,
        legit_late: 0,
        wrong: 0,
        first_wrong: None,
        attack_answered: 0,
        duplicates: 0,
        strays: 0,
        samples: Vec::with_capacity(legit_total),
        read_delay_ns: Vec::with_capacity(legit_total),
        cpu: Duration::ZERO,
    };
    let window_end = start + window;
    // Kernel receive timestamps are wall-clock: anchor them to `start`.
    let now = Instant::now();
    let start_realtime = sys::realtime_ns()
        + start.saturating_duration_since(now).as_nanos() as i128
        - now.saturating_duration_since(start).as_nanos() as i128;
    let cycle = SOCKETS * 65536;
    let mut buf = [0u8; 4096];
    let mut legit_answered = 0usize;
    let mut finished_at: Option<Instant> = None;
    loop {
        let now = Instant::now();
        if done.load(Ordering::Acquire) {
            let end = *finished_at.get_or_insert(now.max(window_end));
            if legit_answered + out.attack_answered >= total || now >= end + phase.drain {
                break;
            }
        }
        let readable = sys::wait_readable(&client.sockets, Duration::from_millis(20));
        let cpu = sys::thread_cpu().saturating_sub(cpu_start);
        cpu_out.store(cpu.as_nanos() as u64, Ordering::Relaxed);
        for k in readable {
            while let Some((len, stamp)) = sys::recv_timestamped(&client.sockets[k], &mut buf) {
                // An answer arrives when the kernel queues it on the socket,
                // not when this thread gets a CPU to read it.
                let read_ns = start.elapsed().as_nanos() as i128;
                let arrival_ns = stamp.map_or(read_ns, |t| (t - start_realtime).min(read_ns));
                let wire = &buf[..len];
                if len < 12 {
                    out.strays += 1;
                    continue;
                }
                let id = usize::from(u16::from_be_bytes([wire[0], wire[1]]));
                let limit = sent.load(Ordering::Acquire);
                // The newest query this (socket, id) pair can name.
                let base = id * SOCKETS + k;
                if base >= limit {
                    out.strays += 1;
                    continue;
                }
                let n = base + (limit - 1 - base) / cycle * cycle;
                if answered[n] {
                    out.duplicates += 1;
                    continue;
                }
                answered[n] = true;
                match phase.items[n] {
                    Item::Attack(_) => out.attack_answered += 1,
                    Item::Legit(domain) => {
                        legit_answered += 1;
                        match checker.check(domain as usize, id as u16, wire) {
                            Verdict::Wrong(why) => {
                                out.wrong += 1;
                                out.first_wrong.get_or_insert(why);
                            }
                            _ => {
                                let due_ns = due(n).as_nanos() as u64;
                                let recv_ns = u64::try_from(arrival_ns).unwrap_or(0);
                                out.samples.push(Sample { due_ns, recv_ns });
                                out.read_delay_ns.push((read_ns - arrival_ns) as u64);
                                let latency = Duration::from_nanos(recv_ns.saturating_sub(due_ns));
                                if latency > TIMEOUT {
                                    out.legit_late += 1;
                                } else {
                                    out.legit_ok += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    out.cpu = sys::thread_cpu().saturating_sub(cpu_start);
    out
}
