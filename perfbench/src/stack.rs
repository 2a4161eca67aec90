//! Building the system under test: the loopback DoH fleet, the runtime
//! with its shipped defaults (2 shards), and a warm cache holding one
//! checked reference answer per pool domain.

use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use sdoh_core::{CacheConfig, PoolConfig};
use sdoh_dns_wire::Ttl;
use sdoh_runtime::{LoopbackConfig, LoopbackFleet, PoolRuntime, RuntimeConfig};

use crate::check::{Checker, Expect, Verdict};
use crate::workload::{legit_templates, Workload, RESOLVERS, SHARDS};

/// Queries in flight during warm-up.
const WARM_WINDOW: usize = 64;
const WARM_TIMEOUT: Duration = Duration::from_secs(10);
/// Attempts at starting the runtime (see [`start_runtime`]).
const START_ATTEMPTS: usize = 5;

pub struct Stack {
    pub fleet: LoopbackFleet,
    pub runtime: PoolRuntime,
    pub checker: Checker,
    pub templates: Vec<Vec<u8>>,
    /// One correct answer (id 0) of domain 0, for the gate's self-test.
    pub sample_answer: Vec<u8>,
}

pub fn cache_config(workload: &Workload) -> CacheConfig {
    CacheConfig::default().with_ttl(Ttl::from_secs(workload.ttl_secs))
}

pub fn fleet(workload: &Workload) -> LoopbackFleet {
    LoopbackFleet::build(LoopbackConfig {
        resolvers: RESOLVERS,
        pool_domains: workload.pool_domains,
        addresses_per_domain: workload.addresses_per_domain,
        compromised: Vec::new(),
        upstream_latency: Duration::ZERO,
        seed: 1,
    })
}

/// Builds fleet and runtime and warms every pool domain through the
/// runtime's own UDP front door.
pub fn build(workload: &Workload) -> Result<Stack, String> {
    let fleet = fleet(workload);
    let runtime = start_runtime(&fleet, workload)?;
    let expect = Expect::new(
        fleet.ground_truth(),
        &fleet.benign,
        RESOLVERS,
        workload.ttl_secs,
    );
    let mut checker = Checker::new(expect, fleet.domains.clone());
    let templates = legit_templates(&fleet.domains);
    let sample_answer = warm(runtime.udp_addr(), &templates, &mut checker)?;
    Ok(Stack {
        fleet,
        runtime,
        checker,
        templates,
        sample_answer,
    })
}

/// Starts the runtime over `fleet`. `PoolRuntime::start` binds its TCP
/// listener to the port number the kernel gave its UDP socket, so it
/// fails with `AddrInUse` when an unrelated TCP socket on the host
/// already holds that number; a new attempt draws a new UDP port.
fn start_runtime(fleet: &LoopbackFleet, workload: &Workload) -> Result<PoolRuntime, String> {
    let mut attempt = 1;
    loop {
        let shards = fleet
            .shards(SHARDS, PoolConfig::algorithm1(), cache_config(workload))
            .map_err(|e| format!("shards: {e}"))?;
        match PoolRuntime::start(RuntimeConfig::default(), shards) {
            Ok(runtime) => return Ok(runtime),
            Err(e) if e.kind() == ErrorKind::AddrInUse && attempt < START_ATTEMPTS => {
                println!("SETUP: runtime start attempt {attempt}: {e}; retrying");
                attempt += 1;
            }
            Err(e) => return Err(format!("runtime start: {e}")),
        }
    }
}

/// Sends one query per domain (id = domain index, a window at a time)
/// and fully checks every answer, which also stores the references.
fn warm(
    server: SocketAddr,
    templates: &[Vec<u8>],
    checker: &mut Checker,
) -> Result<Vec<u8>, String> {
    let socket = UdpSocket::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    socket
        .set_read_timeout(Some(WARM_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut sample = Vec::new();
    let mut buf = [0u8; 4096];
    for (chunk_index, chunk) in templates.chunks(WARM_WINDOW).enumerate() {
        let base = chunk_index * WARM_WINDOW;
        for (offset, template) in chunk.iter().enumerate() {
            let mut wire = template.clone();
            wire[..2].copy_from_slice(&((base + offset) as u16).to_be_bytes());
            socket.send_to(&wire, server).map_err(|e| e.to_string())?;
        }
        let deadline = Instant::now() + WARM_TIMEOUT;
        let mut pending = chunk.len();
        while pending > 0 {
            if Instant::now() > deadline {
                return Err(format!("warm-up: {pending} answers missing"));
            }
            let (len, _) = socket
                .recv_from(&mut buf)
                .map_err(|e| format!("warm-up receive: {e}"))?;
            let wire = &buf[..len];
            let id = u16::from_be_bytes([wire[0], wire[1]]);
            let domain = usize::from(id);
            if let Verdict::Wrong(why) = checker.check(domain, id, wire) {
                return Err(format!("warm-up answer for domain {domain}: {why}"));
            }
            if domain == 0 {
                sample = wire.to_vec();
            }
            pending -= 1;
        }
    }
    Ok(sample)
}
