//! The traced run: per-layer numbers, timed from outside the program.
//!
//! Nothing inside the program is instrumented. The traced binary (a)
//! repeats the steady and overload phases with an operator thread calling
//! `PoolRuntime::stats()`, reading per-thread CPU from procfs and the
//! runtime's own registry and counters around the steady phase (and the
//! serving counters again after the overload phase), then (b)
//! calls each layer's public functions directly — `Message::{decode,
//! encode}`, `QueryHandler::handle_query`, `PoolCache::{get, insert}`,
//! `PoolSession::{poll, handle_response, finish}`,
//! `DohServerService::serve_payload`, `Exchanger::exchange_all` — inside
//! spans kept in memory and written out at the end. A span's self time is
//! its duration minus its children's; allocation counts come from the
//! counting allocator only the traced binary installs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::time::{Duration, Instant};

use sdoh_core::{
    Action, AddressFamily, AddressSource, CachingPoolResolver, DohSource, PoolCache, PoolConfig,
    PoolKey, SecurePoolGenerator, ServeSnapshot,
};
use sdoh_dns_server::{Authority, Catalog, Exchanger, QueryHandler, Zone};
use sdoh_dns_wire::{Message, Name, Rcode, RrType};
use sdoh_doh::{DohMethod, DohServerService};
use sdoh_metrics::SampleValue;
use sdoh_netsim::SimAddr;
use sdoh_runtime::LoopbackFleet;

use crate::bench::{self, Args, Measured};
use crate::report::median_f64;
use crate::stack::{self, Stack};
use crate::sys;
use crate::workload::{Workload, ZONE};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Heap allocations made so far by the calling thread (always 0 unless
/// the binary installed [`CountingAlloc`]).
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The system allocator, counting allocations per thread. Thread-local
/// counts keep shard threads from contending on one counter, so the
/// program under load pays a few nanoseconds per allocation.
pub struct CountingAlloc;

fn count_one() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter bump, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    qid: u64,
    /// Allocations between begin and end, children included.
    allocs: u64,
}

/// Spans kept in memory; the store is reserved up front so recording
/// never allocates inside a measured call.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>, qid: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: parent.map_or(NO_PARENT, |p| p as u32),
            qid,
            allocs: allocs(),
        });
        self.spans[id].start_ns = self.now_ns();
        id
    }

    fn end(&mut self, id: usize) {
        let end_ns = self.now_ns();
        let after = allocs();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.allocs = after - span.allocs;
    }

    fn end_as(&mut self, id: usize, name: &'static str) {
        self.end(id);
        self.spans[id].name = name;
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        qid: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, qid);
        let out = f();
        self.end(id);
        out
    }

    /// `(self_ns, self_allocs)` of every span.
    fn self_costs(&self) -> Vec<(u64, u64)> {
        let mut child = vec![(0u64, 0u64); self.spans.len()];
        for span in &self.spans {
            if let Some(c) = child.get_mut(span.parent as usize) {
                c.0 += span.end_ns - span.start_ns;
                c.1 += span.allocs;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, (cn, ca))| {
                (
                    (s.end_ns - s.start_ns).saturating_sub(cn),
                    s.allocs.saturating_sub(ca),
                )
            })
            .collect()
    }

    /// Median self time (µs) and self allocations per span name.
    fn medians(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (span, (ns, allocs)) in self.spans.iter().zip(self.self_costs()) {
            let entry = by_name.entry(span.name).or_default();
            entry.0.push(ns as f64 / 1e3);
            entry.1.push(allocs as f64);
        }
        by_name
            .into_iter()
            .map(|(name, (mut t, mut a))| (name, (median_f64(&mut t), median_f64(&mut a))))
            .collect()
    }

    /// Per root span id: the summed durations (µs) of its children named
    /// in `names`.
    fn child_sums(&self, root: &str, names: &[&str]) -> Vec<f64> {
        let mut sums: HashMap<u32, f64> = HashMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            if span.name == root {
                sums.entry(id as u32).or_insert(0.0);
            }
        }
        for span in &self.spans {
            if names.contains(&span.name) {
                if let Some(sum) = sums.get_mut(&span.parent) {
                    *sum += (span.end_ns - span.start_ns) as f64 / 1e3;
                }
            }
        }
        sums.into_values().collect()
    }

    fn write(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\tqid\tname\tstart_ns\tend_ns\tself_ns\tallocs\tself_allocs"
        )?;
        for (id, (span, (self_ns, self_allocs))) in
            self.spans.iter().zip(self.self_costs()).enumerate()
        {
            let parent = if span.parent == NO_PARENT {
                "-".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}\t{}\t{self_allocs}",
                span.qid, span.name, span.start_ns, span.end_ns, span.allocs
            )?;
        }
        out.flush()
    }
}

/// Readings taken by the traced run: slots 0 and 1 before and after the
/// steady phase, slot 2 (serving counters only) after the overload phase.
#[derive(Default)]
pub struct LoadProbe {
    threads: [BTreeMap<String, Duration>; 2],
    process: [Duration; 2],
    serve_latency: [(u64, u64); 2],
    snapshot: [ServeSnapshot; 3],
}

impl LoadProbe {
    /// Every reading, into slot 0 or 1.
    pub fn read(&mut self, slot: usize, stack: &Stack) {
        self.read_counters(slot, stack);
        self.serve_latency[slot] = serve_latency(stack);
        self.process[slot] = sys::process_cpu();
        self.threads[slot] = sys::thread_cpu_by_name();
    }

    /// The runtime's serving counters only.
    pub fn read_counters(&mut self, slot: usize, stack: &Stack) {
        self.snapshot[slot] = stack.runtime.stats().total;
    }

    fn delta_threads(&self, matches: impl Fn(&str) -> bool) -> Duration {
        let sum = |m: &BTreeMap<String, Duration>| -> Duration {
            m.iter().filter(|(k, _)| matches(k)).map(|(_, v)| *v).sum()
        };
        sum(&self.threads[1]).saturating_sub(sum(&self.threads[0]))
    }
}

/// `(sum_nanos, count)` of `sdoh_serve_latency_seconds` over all shards,
/// from the runtime's registry.
fn serve_latency(stack: &Stack) -> (u64, u64) {
    let (name, _) = sdoh_core::METRIC_SERVE_LATENCY;
    stack
        .runtime
        .registry()
        .gather()
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| match &s.value {
            SampleValue::Histogram(h) => Some((h.sum_nanos, h.count())),
            _ => None,
        })
        .fold((0, 0), |acc, (s, c)| (acc.0 + s, acc.1 + c))
}

/// Generations, hits and queries timed through the layers' public calls.
const GENERATIONS: usize = 48;
const HIT_QUERIES: usize = 4000;
const CACHE_GETS: usize = 8000;

fn generator(fleet: &LoopbackFleet) -> Result<SecurePoolGenerator, String> {
    let sources: Vec<Box<dyn AddressSource>> = fleet
        .infos
        .iter()
        .map(|info| {
            Box::new(DohSource::new(info.clone()).method(DohMethod::Get)) as Box<dyn AddressSource>
        })
        .collect();
    SecurePoolGenerator::new(PoolConfig::algorithm1(), sources).map_err(|e| e.to_string())
}

/// DoH terminators equal to the fleet's, driven directly.
fn doh_servers(
    fleet: &LoopbackFleet,
) -> Result<HashMap<SimAddr, DohServerService<Authority>>, String> {
    let apex: Name = ZONE.parse().map_err(|e| format!("{e:?}"))?;
    let mut zone = Zone::new(apex);
    for domain in &fleet.domains {
        for &addr in &fleet.benign {
            zone.add_address(domain.clone(), addr);
        }
    }
    let mut catalog = Catalog::new();
    catalog.add_zone(zone);
    Ok(fleet
        .infos
        .iter()
        .map(|info| {
            (
                info.addr,
                DohServerService::new(info.clone(), Authority::new(catalog.clone())),
            )
        })
        .collect())
}

/// Runs the layer calls; every span lands in `tracer`.
/// Returns the number of DoH requests one generation sends.
fn layer_calls(
    workload: &Workload,
    fleet: &LoopbackFleet,
    templates: &[Vec<u8>],
    tracer: &mut Tracer,
) -> Result<usize, String> {
    let cache_config = stack::cache_config(workload);
    let gen = generator(fleet)?;
    let mut servers = doh_servers(fleet)?;
    let mut exchanger = fleet.backends.exchanger(SimAddr::v4(10, 2, 0, 1, 40000));
    let mut cache = PoolCache::new(cache_config);
    let domains: Vec<&Name> = fleet.domains.iter().take(GENERATIONS).collect();
    let mut requests_per_gen = 0usize;

    // Generations: the sans-IO session driven by hand, the batch sent
    // through the exchanger's overlapped fan-out.
    for (g, domain) in fleet.domains.iter().cycle().take(GENERATIONS).enumerate() {
        let qid = g as u64;
        let root = tracer.begin("gen", None, qid);
        // The session builds its DoH requests up front; the polls that
        // hand them out only move them. Both count as request building.
        let mut session = tracer
            .time("doh.request_build", Some(root), qid, || {
                gen.session(domain, 0x5eed + qid)
            })
            .map_err(|e| e.to_string())?;
        let mut transmits = 0usize;
        let mut ids = Vec::new();
        let mut requests = Vec::new();
        let mut sent = Vec::new();
        loop {
            let now = exchanger.now();
            let span = tracer.begin("session.poll", Some(root), qid);
            match session.poll(now) {
                Action::Transmit(transmit) => {
                    tracer.end_as(span, "doh.request_build");
                    transmits += 1;
                    ids.push(transmit.transaction);
                    requests.push(transmit.request);
                }
                Action::Deliver(_) => tracer.end(span),
                Action::WaitUntil(_) => {
                    tracer.end(span);
                    let batch = std::mem::take(&mut requests);
                    let copies = batch.clone();
                    let outcomes = tracer.time("backend.exchange_all", Some(root), qid, || {
                        exchanger.exchange_all(batch)
                    });
                    for outcome in outcomes {
                        let id = ids[outcome.index];
                        tracer
                            .time("doh.response_parse", Some(root), qid, || {
                                session.handle_response(id, outcome.result)
                            })
                            .map_err(|e| e.to_string())?;
                    }
                    ids.clear();
                    sent.extend(copies);
                }
                Action::Done => {
                    tracer.end(span);
                    break;
                }
            }
        }
        let report = tracer
            .time("gen.combine", Some(root), qid, || session.finish())
            .map_err(|e| e.to_string())?;
        tracer.end(root);
        requests_per_gen = requests_per_gen.max(transmits);
        // The same requests once more, one at a time, for the slowest
        // single exchange, and straight into a local terminator for the
        // server's own cost.
        for request in &sent {
            let single = tracer.time("backend.exchange", None, qid, || {
                exchanger.exchange(
                    request.dst,
                    request.channel,
                    &request.payload,
                    request.timeout,
                )
            });
            single.map_err(|e| format!("single exchange: {e:?}"))?;
            let server = servers.get_mut(&request.dst).ok_or("unknown resolver")?;
            let reply = tracer.time("doh.server", None, qid, || {
                server.serve_payload(&mut exchanger, request.channel, &request.payload)
            });
            reply.ok_or("local terminator did not answer")?;
        }
        let key = PoolKey::new(domain.clone(), AddressFamily::V4);
        let now = exchanger.now();
        tracer.time("cache.insert", None, qid, || {
            cache.insert(key, Ok(report), now)
        });
    }

    // Cache lookups on the entries just inserted.
    let keys: Vec<PoolKey> = domains
        .iter()
        .map(|d| PoolKey::new((*d).clone(), AddressFamily::V4))
        .collect();
    let now = exchanger.now();
    for i in 0..CACHE_GETS {
        let key = &keys[i % keys.len()];
        let hit = tracer.time("cache.get", None, i as u64, || cache.get(key, now));
        if hit.is_miss() {
            return Err("cache.get missed an entry it holds".into());
        }
    }

    // The hit path of the serving front end, as `serve_do53_payload`
    // composes it: decode, handle, encode.
    let mut resolver = CachingPoolResolver::new(generator(fleet)?, cache_config);
    let warm = domains.len();
    for (i, domain) in domains.iter().enumerate() {
        let response = resolver.handle_query(
            &mut exchanger,
            &Message::query(i as u16, (*domain).clone(), RrType::A),
        );
        if response.header.rcode != Rcode::NoError {
            return Err(format!(
                "warming the traced resolver: {:?}",
                response.header.rcode
            ));
        }
    }
    for i in 0..HIT_QUERIES {
        let qid = i as u64;
        let mut wire = templates[i % warm].clone();
        wire[..2].copy_from_slice(&(i as u16).to_be_bytes());
        let root = tracer.begin("query", None, qid);
        let query = tracer
            .time("wire.decode", Some(root), qid, || Message::decode(&wire))
            .map_err(|e| e.to_string())?;
        let response = tracer.time("serve.handle_query", Some(root), qid, || {
            resolver.handle_query(&mut exchanger, &query)
        });
        let bytes = tracer
            .time("wire.encode", Some(root), qid, || response.encode())
            .map_err(|e| e.to_string())?;
        tracer.end(root);
        if bytes.len() < 12 || response.answers.len() != workload.answer_records() {
            return Err("traced hit produced a wrong answer".into());
        }
    }
    Ok(requests_per_gen)
}

/// Traced entry point.
pub fn run_traced(args: &Args) -> Result<bool, String> {
    let process_start = Instant::now();
    let (mut stack, setup_times) = bench::setup(args, process_start, (1, 1))?;
    bench::gate_self_test(&stack)?;
    let mut probe = LoadProbe::default();
    let measured = bench::drive(args, &mut stack, setup_times, Some(&mut probe))?;
    let Stack {
        fleet,
        runtime,
        templates,
        ..
    } = stack;
    runtime.shutdown();

    let mut tracer = Tracer::new(GENERATIONS * 40 + CACHE_GETS + HIT_QUERIES * 4 + 1024);
    let requests_per_gen = layer_calls(&args.workload, &fleet, &templates, &mut tracer)?;
    if let Some(path) = &args.spans_out {
        tracer
            .write(path)
            .map_err(|e| format!("writing spans to {path}: {e}"))?;
        println!("SPANS {} written to {path}", tracer.spans.len());
    }
    let metrics = per_layer(args, &measured, &probe, &tracer, requests_per_gen);
    bench::finish(args, &measured, metrics)
}

fn per_layer(
    args: &Args,
    m: &Measured,
    probe: &LoadProbe,
    tracer: &Tracer,
    requests_per_gen: usize,
) -> Vec<(&'static str, f64, &'static str)> {
    let steady = &m.steady;
    let answered =
        (steady.samples.len() + steady.legit_late + steady.attack_answered).max(1) as f64;
    let per_query_us = |d: Duration| d.as_secs_f64() * 1e6 / answered;

    // Front door, from the runtime's registry, counters and thread CPU.
    let latency = (
        probe.serve_latency[1].0 - probe.serve_latency[0].0,
        probe.serve_latency[1].1 - probe.serve_latency[0].1,
    );
    let serve_mean_us = latency.0 as f64 / latency.1.max(1) as f64 / 1e3;
    let client_mean_us = steady
        .samples
        .iter()
        .map(|s| s.latency_ns() as f64)
        .sum::<f64>()
        / steady.samples.len().max(1) as f64
        / 1e3;
    let dispatch = probe.delta_threads(|n| n == "sdoh-dispatch");
    let shards = probe.delta_threads(|n| n.starts_with("sdoh-shard-"));
    let live = probe.delta_threads(|_| true);
    let process = probe.process[1].saturating_sub(probe.process[0]);
    // Process CPU no live thread owns: exited threads. The generator's
    // receiver and the stats watcher exit too, so they are taken out.
    let fanout = process
        .saturating_sub(live)
        .saturating_sub(steady.receiver_cpu)
        .saturating_sub(m.stats_thread_cpu);

    // Serving counters over the steady phase.
    let (a, b) = (&probe.snapshot[0], &probe.snapshot[1]);
    let queries = (b.serve.queries - a.serve.queries).max(1) as f64;
    let hits = (b.serve.hits - a.serve.hits) as f64;
    let stale = (b.serve.stale_serves - a.serve.stale_serves) as f64;
    let misses = (b.serve.misses - a.serve.misses) as f64;
    let generations = (b.serve.generations - a.serve.generations) as f64;
    let failures = (b.serve.generation_failures - a.serve.generation_failures) as f64;
    let evictions = (b.cache.evictions - a.cache.evictions) as f64;
    // And over the overload phase, where `nx_flood`'s attack names outgrow
    // the cache and evict.
    let c = &probe.snapshot[2];
    let overload_queries = c.serve.queries.saturating_sub(b.serve.queries).max(1) as f64;
    let overload_evictions = c.cache.evictions.saturating_sub(b.cache.evictions) as f64;
    let overload_generations = c.serve.generations.saturating_sub(b.serve.generations) as f64;
    let overload_failures = c
        .serve
        .generation_failures
        .saturating_sub(b.serve.generation_failures) as f64;
    let (overload_legit, overload_attacks) = m
        .overload
        .as_ref()
        .map_or((0, 0), |o| (o.legit_sent, o.attack_sent));

    // Layer calls.
    let med = tracer.medians();
    let t = |name: &str| med.get(name).copied().unwrap_or((0.0, 0.0));
    let (decode_us, decode_allocs) = t("wire.decode");
    let (encode_us, encode_allocs) = t("wire.encode");
    let (handle_us, handle_allocs) = t("serve.handle_query");
    let (get_us, get_allocs) = t("cache.get");
    let (insert_us, _) = t("cache.insert");
    let (combine_us, _) = t("gen.combine");
    let mut builds = tracer.child_sums("gen", &["doh.request_build"]);
    let build_us = median_f64(&mut builds) / requests_per_gen.max(1) as f64;
    let (parse_us, _) = t("doh.response_parse");
    let (server_us, _) = t("doh.server");
    let mut gen_wall: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.name == "gen")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    let gen_wall_us = median_f64(&mut gen_wall);
    let mut session_cpu = tracer.child_sums(
        "gen",
        &[
            "doh.request_build",
            "session.poll",
            "doh.response_parse",
            "gen.combine",
        ],
    );
    // `gen.session_cpu_us` counts the sans-IO session's own calls: they run
    // on the calling thread without blocking, so wall time is CPU time.
    let mut overhead: Vec<f64> = fanout_overheads(tracer);
    let hit_us = (handle_us - get_us).max(0.0);
    let hit_allocs = (handle_allocs - get_allocs).max(0.0);

    let hit_share = (hits + stale) / queries;
    let miss_share = misses / queries;
    let explained_us = decode_us
        + encode_us
        + get_us
        + hit_share * hit_us
        + miss_share * (gen_wall_us + insert_us);
    let unexplained_pct = (serve_mean_us - explained_us) / serve_mean_us.max(1e-9) * 100.0;
    let traced_p50 = bench::sliced_p50_us(steady);
    let overhead_pct = args.untraced_p50_us.map_or(0.0, |untraced| {
        (traced_p50 - untraced) / untraced.max(1e-9) * 100.0
    });
    let mut stats_calls: Vec<f64> = m
        .stats_calls
        .iter()
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();

    vec![
        (
            "loadgen.late_p99_us",
            bench::lateness_us(steady, 0.99),
            "us",
        ),
        ("loadgen.client_drops", m.client_drops as f64, "count"),
        (
            "loadgen.cpu_us",
            steady.loadgen_cpu.as_secs_f64() * 1e6 / steady.sent.max(1) as f64,
            "us/query",
        ),
        ("runtime.serve_mean_us", serve_mean_us, "us"),
        ("runtime.residual_us", client_mean_us - serve_mean_us, "us"),
        (
            "runtime.dispatch_cpu_us",
            per_query_us(dispatch),
            "us/query",
        ),
        ("runtime.shard_cpu_us", per_query_us(shards), "us/query"),
        ("runtime.fanout_cpu_us", per_query_us(fanout), "us/query"),
        ("runtime.server_drops", m.server_drops as f64, "count"),
        ("runtime.dropped_queries", m.dropped_queries as f64, "count"),
        ("wire.decode_query_us", decode_us, "us"),
        ("wire.decode_query_allocs", decode_allocs, "count"),
        ("wire.encode_answer_us", encode_us, "us"),
        ("wire.encode_answer_allocs", encode_allocs, "count"),
        ("serve.hit_us", hit_us, "us"),
        ("serve.hit_allocs", hit_allocs, "count"),
        ("cache.get_us", get_us, "us"),
        ("cache.insert_us", insert_us, "us"),
        ("cache.hit_ratio", hits / queries, "ratio"),
        ("cache.stale_ratio", stale / queries, "ratio"),
        ("cache.miss_ratio", misses / queries, "ratio"),
        ("cache.evictions_per_kq", evictions / queries * 1e3, "1/kq"),
        (
            "gen.per_kq",
            generations / steady.legit_sent.max(1) as f64 * 1e3,
            "1/kq",
        ),
        (
            "gen.per_attack_q",
            ratio(generations, steady.attack_sent as f64),
            "1/query",
        ),
        ("gen.wall_us", gen_wall_us, "us"),
        ("gen.session_cpu_us", median_f64(&mut session_cpu), "us"),
        ("gen.combine_us", combine_us, "us"),
        ("gen.failure_ratio", ratio(failures, generations), "ratio"),
        (
            "cache.overload_evictions_per_kq",
            overload_evictions / overload_queries * 1e3,
            "1/kq",
        ),
        (
            "gen.overload_per_kq",
            overload_generations / overload_legit.max(1) as f64 * 1e3,
            "1/kq",
        ),
        (
            "gen.overload_per_attack_q",
            ratio(overload_generations, overload_attacks as f64),
            "1/query",
        ),
        (
            "gen.overload_failure_ratio",
            ratio(overload_failures, overload_generations),
            "ratio",
        ),
        ("doh.request_build_us", build_us, "us"),
        ("doh.server_us", server_us, "us"),
        ("doh.response_parse_us", parse_us, "us"),
        (
            "backend.fanout_overhead_us",
            median_f64(&mut overhead),
            "us",
        ),
        ("metrics.stats_call_us", median_f64(&mut stats_calls), "us"),
        ("trace.unexplained_pct", unexplained_pct, "%"),
        ("trace.overhead_pct", overhead_pct, "%"),
    ]
}

/// `part / whole`, 0 when `whole` is.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Per generation: the fan-out's wall time minus its slowest single
/// exchange — the thread spawn and join the overlap costs.
fn fanout_overheads(tracer: &Tracer) -> Vec<f64> {
    let mut fan: HashMap<u64, f64> = HashMap::new();
    let mut slowest: HashMap<u64, f64> = HashMap::new();
    for span in &tracer.spans {
        let us = (span.end_ns - span.start_ns) as f64 / 1e3;
        match span.name {
            "backend.exchange_all" => *fan.entry(span.qid).or_default() += us,
            "backend.exchange" => {
                let e = slowest.entry(span.qid).or_default();
                *e = e.max(us);
            }
            _ => {}
        }
    }
    fan.iter()
        .filter_map(|(root, f)| slowest.get(root).map(|s| f - s))
        .collect()
}
