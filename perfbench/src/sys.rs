//! Host readings the benchmark takes from outside the program: CPU clocks,
//! per-thread CPU from procfs, UDP socket drop counters, peak memory and
//! the host fingerprint. Linux only; the hand-declared C functions are all
//! in the C library `std` already links.

use std::collections::BTreeMap;
use std::net::UdpSocket;
use std::os::fd::AsRawFd;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct IoVec {
    base: *mut u8,
    len: usize,
}

#[repr(C)]
struct MsgHdr {
    name: *mut u8,
    name_len: u32,
    iov: *mut IoVec,
    iov_len: usize,
    control: *mut u8,
    control_len: usize,
    flags: i32,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn recvmsg(fd: i32, msg: *mut MsgHdr, flags: i32) -> isize;
}

const CLOCK_REALTIME: i32 = 0;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const SOL_SOCKET: i32 = 1;
const SO_RCVBUF: i32 = 8;
const POLLIN: i16 = 1;
const PR_SET_TIMERSLACK: i32 = 29;
const SO_TIMESTAMPNS: i32 = 35;
const MSG_DONTWAIT: i32 = 0x40;
/// `CMSG_DATA` offset: the 16-byte `cmsghdr` on 64-bit Linux.
const CMSG_HEADER: usize = 16;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and both clock ids are defined by Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return Duration::ZERO;
    }
    Duration::new(
        u64::try_from(ts.tv_sec).unwrap_or(0),
        u32::try_from(ts.tv_nsec).unwrap_or(0),
    )
}

/// CPU time of the whole process, exited threads included.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Asks for a receive buffer of `bytes` (the kernel caps it at
/// `net.core.rmem_max` and doubles it for bookkeeping).
pub fn set_recv_buffer(socket: &UdpSocket, bytes: i32) {
    // SAFETY: the descriptor is open for the lifetime of `socket`, and the
    // option value points at a live i32 whose size is passed alongside.
    unsafe {
        setsockopt(
            socket.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            &bytes,
            std::mem::size_of::<i32>() as u32,
        );
    }
}

/// Wall-clock time in nanoseconds since the Unix epoch (the clock kernel
/// receive timestamps use).
pub fn realtime_ns() -> i128 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and CLOCK_REALTIME is defined by Linux.
    unsafe { clock_gettime(CLOCK_REALTIME, &mut ts) };
    i128::from(ts.tv_sec) * 1_000_000_000 + i128::from(ts.tv_nsec)
}

/// Asks the kernel to stamp every datagram `socket` receives with the
/// wall-clock time it arrived (`SO_TIMESTAMPNS`).
pub fn enable_receive_timestamps(socket: &UdpSocket) {
    let on: i32 = 1;
    // SAFETY: the descriptor is open for the lifetime of `socket`, and the
    // option value points at a live i32 whose size is passed alongside.
    unsafe {
        setsockopt(
            socket.as_raw_fd(),
            SOL_SOCKET,
            SO_TIMESTAMPNS,
            &on,
            std::mem::size_of::<i32>() as u32,
        );
    }
}

/// Receives one datagram without blocking: its length and, when the
/// socket has receive timestamps on, the wall-clock nanoseconds at which
/// the kernel queued it. `None` when nothing is queued (or on error).
pub fn recv_timestamped(socket: &UdpSocket, buf: &mut [u8]) -> Option<(usize, Option<i128>)> {
    // u64 elements keep the control buffer aligned for `cmsghdr`.
    let mut control = [0u64; 8];
    let mut iov = IoVec {
        base: buf.as_mut_ptr(),
        len: buf.len(),
    };
    let mut msg = MsgHdr {
        name: std::ptr::null_mut(),
        name_len: 0,
        iov: &mut iov,
        iov_len: 1,
        control: control.as_mut_ptr().cast(),
        control_len: std::mem::size_of_val(&control),
        flags: 0,
    };
    // SAFETY: `msg` points at one live iovec over `buf` and at the live
    // `control` array, both with their true lengths, for the whole call;
    // the kernel writes at most those lengths.
    let received = unsafe { recvmsg(socket.as_raw_fd(), &mut msg, MSG_DONTWAIT) };
    let len = usize::try_from(received).ok()?;
    // The one control message asked for: cmsghdr {len, level, type} then a
    // timespec.
    let stamp = (msg.control_len >= CMSG_HEADER + 16)
        .then(|| {
            let words = &control;
            let level_type = words[1];
            let level = (level_type & 0xFFFF_FFFF) as i32;
            let kind = (level_type >> 32) as i32;
            (level == SOL_SOCKET && kind == SO_TIMESTAMPNS)
                .then(|| i128::from(words[2] as i64) * 1_000_000_000 + i128::from(words[3] as i64))
        })
        .flatten();
    Some((len, stamp))
}

/// Lets the calling thread's sleeps end within a microsecond of their
/// deadline instead of the default 50 µs timer slack.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches only
    // the calling thread's scheduling state.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Waits until one of `sockets` is readable or `timeout` passes; returns
/// the indexes of the readable sockets.
pub fn wait_readable(sockets: &[UdpSocket], timeout: Duration) -> Vec<usize> {
    let mut fds: Vec<PollFd> = sockets
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `fds` is a live, correctly sized array of pollfd structs for
    // the whole call, and its length is passed alongside.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
    if rc <= 0 {
        return Vec::new();
    }
    fds.iter()
        .enumerate()
        .filter(|(_, fd)| fd.revents != 0)
        .map(|(i, _)| i)
        .collect()
}

/// Run time of every live thread of this process, summed by thread name
/// (`/proc/self/task/*/schedstat`, nanosecond precision).
pub fn thread_cpu_by_name() -> BTreeMap<String, Duration> {
    let mut out: BTreeMap<String, Duration> = BTreeMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let name = std::fs::read_to_string(dir.join("comm"))
            .map(|s| s.trim().to_string())
            .unwrap_or_default();
        let nanos = std::fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .unwrap_or(0);
        *out.entry(name).or_default() += Duration::from_nanos(nanos);
    }
    out
}

/// Kernel receive drops of the IPv4 UDP socket bound to `port`
/// (`/proc/net/udp`, last column).
pub fn udp_drops(port: u16) -> u64 {
    let Ok(table) = std::fs::read_to_string("/proc/net/udp") else {
        return 0;
    };
    let suffix = format!(":{port:04X}");
    table
        .lines()
        .skip(1)
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let local = fields.get(1)?;
            if !local.ends_with(&suffix) {
                return None;
            }
            fields.last()?.parse::<u64>().ok()
        })
        .sum()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with(key))
                .and_then(|line| line.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Host fingerprint: logical CPUs, CPU model and kernel release.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", model),
        ("kernel", kernel),
    ]
}

/// Host-wide CPU ticks from `/proc/stat`: `(steal, total)`. Steal is time
/// the hypervisor ran something else while a vCPU of this guest wanted
/// to run.
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = stat.lines().next() else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().take(8).sum())
}
