//! The threaded real-socket serving runtime: [`PoolRuntime`].
//!
//! # Architecture
//!
//! ```text
//!               UDP datagrams                TCP (truncated retries)
//!                    │                                │
//!              ┌─────▼──────┐                  ┌──────▼──────┐
//!              │ dispatcher │                  │ tcp acceptor│
//!              └─────┬──────┘                  └──────┬──────┘
//!        hash(qname, qtype) ──────────────────────────┘
//!         ┌──────────┼─────────────┐
//!   ┌─────▼────┐ ┌───▼──────┐ ┌────▼─────┐
//!   │ shard 0  │ │ shard 1  │ │ shard N-1│  each waits on its queue until
//!   │ resolver │ │ resolver │ │ resolver │  its next refresh batch is due
//!   └────┬─────┘ └────┬─────┘ └────┬─────┘
//!        ▼ publish    ▼            ▼
//!   ┌──────────────────────────────────────┐
//!   │ one ShardCell per shard (atomics)    │ ◄── stats() / scrape / healthz
//!   └──────────────────────────────────────┘
//! ```
//!
//! Each worker thread **owns** one [`CachingPoolResolver`] shard and one
//! `Send` exchanger — there is no lock around the pool cache at all;
//! queries are routed by `(domain, address family)` hash so every key
//! always lands on the same shard and singleflight coalescing keeps
//! working per shard. A worker runs
//! [`run_due_refreshes`](CachingPoolResolver::run_due_refreshes) itself
//! 50 ms after [`next_refresh_due`](CachingPoolResolver::next_refresh_due)
//! passes, off the query path, so keys served stale in one burst share one
//! overlapped generation; nothing periodic runs beside the workers.
//! After every change of state, and before a reply leaves, a worker
//! publishes its [`ServeSnapshot`] into its shard's cell. Statistics are
//! read from the cells: [`PoolRuntime::stats`], a `/metrics` scrape and
//! `/healthz` never send anything into a work queue, so they never wait
//! behind queries or a generation.
//!
//! Responses that exceed the configured UDP payload limit are answered
//! with an empty TC=1 message; clients retry over the TCP listener bound
//! to the same port number (RFC 1035 length-prefixed framing).
//! [`PoolRuntime::shutdown`] stops the socket threads, drains the worker
//! queues, joins every thread and reads the final cells.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sdoh_core::{
    snapshot_samples, CacheEntryProbe, CachedPool, CachingPoolResolver, ConfigError, PoolKey,
    ServeConfig, ServeSnapshot,
};
use sdoh_dns_server::Exchanger;
use sdoh_dns_wire::{Message, Rcode};
use sdoh_metrics::{
    render_json, render_prometheus, Counter, Histogram, HttpResponse, Registry, Sample,
    SampleValue, StatsServer,
};
use sdoh_netsim::SimInstant;

use crate::control::{owner_of, ControlHandle, EpochOrder, RouteState, RouteTable};

/// How long a worker may stay busy on one work item before readers count
/// its shard unresponsive (and `/healthz` reports the instance unready).
const HEALTH_TIMEOUT: Duration = Duration::from_secs(1);

/// How long a worker lets a refresh wait past its due instant, so every key
/// served stale meanwhile joins one overlapped generation batch instead of
/// each blocking the shard's queue for a round trip of its own.
const REFRESH_GATHER: Duration = Duration::from_millis(50);

/// Granularity at which the blocking socket loops re-check the shutdown
/// flag.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// How many ephemeral UDP ports [`PoolRuntime::start`] tries before giving
/// up on finding one whose TCP twin is free too.
const PORT_PAIR_ATTEMPTS: usize = 8;

/// Configuration of a [`PoolRuntime`].
///
/// Non-exhaustive: build it from [`RuntimeConfig::default`] with the
/// `with_*` builder methods so future knobs aren't breaking changes.
/// [`RuntimeConfig::validate`] (also run by [`PoolRuntime::start`])
/// rejects values that would misbehave at runtime.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RuntimeConfig {
    /// Address to bind the UDP socket (and the TCP listener) on. Port 0
    /// picks an ephemeral port whose TCP twin is free too; read it back
    /// from [`PoolRuntime::udp_addr`].
    pub bind: SocketAddr,
    /// Largest UDP response payload served without truncation. Larger
    /// answers are replaced by an empty TC=1 response so the client
    /// retries over TCP.
    pub udp_payload_limit: usize,
    /// Whether to bind the TCP fallback listener.
    pub enable_tcp: bool,
    /// Address to bind the HTTP stats listener on (`/metrics`,
    /// `/metrics.json`, `/healthz`); `None` disables it. Port 0 picks an
    /// ephemeral port; read it back from [`PoolRuntime::stats_addr`].
    pub stats_bind: Option<SocketAddr>,
    /// Whether shard workers record per-query serving latency into the
    /// `sdoh_serve_latency_seconds` histograms. On by default; the E17
    /// overhead measurement compares warm throughput with this on and off.
    pub record_latency: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
            udp_payload_limit: 1232,
            enable_tcp: true,
            stats_bind: None,
            record_latency: true,
        }
    }
}

impl RuntimeConfig {
    /// Sets the UDP/TCP bind address.
    pub fn with_bind(mut self, bind: SocketAddr) -> Self {
        self.bind = bind;
        self
    }

    /// Sets the UDP truncation threshold (must be non-zero).
    pub fn with_udp_payload_limit(mut self, limit: usize) -> Self {
        self.udp_payload_limit = limit;
        self
    }

    /// Enables or disables the TCP fallback listener.
    pub fn with_tcp(mut self, enable: bool) -> Self {
        self.enable_tcp = enable;
        self
    }

    /// Sets the HTTP stats listener bind address (`None` disables it).
    pub fn with_stats_bind(mut self, bind: Option<SocketAddr>) -> Self {
        self.stats_bind = bind;
        self
    }

    /// Enables or disables per-query latency histograms.
    pub fn with_record_latency(mut self, record: bool) -> Self {
        self.record_latency = record;
        self
    }

    /// Validates the runtime knobs: a zero payload limit would truncate
    /// every answer.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Zero`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.udp_payload_limit == 0 {
            return Err(ConfigError::Zero("udp_payload_limit"));
        }
        Ok(())
    }
}

/// One serving shard: a caching resolver plus the exchanger its
/// generations and refreshes go out through. Both move into the shard's
/// worker thread at [`PoolRuntime::start`] — which is exactly why the
/// whole serve layer is `Send`.
pub struct Shard {
    resolver: CachingPoolResolver,
    exchanger: Box<dyn Exchanger + Send>,
}

impl Shard {
    /// Pairs a resolver with its upstream exchanger.
    pub fn new(resolver: CachingPoolResolver, exchanger: Box<dyn Exchanger + Send>) -> Self {
        Shard {
            resolver,
            exchanger,
        }
    }
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("resolver", &self.resolver)
            .finish()
    }
}

/// Front-door counters kept by the socket threads (everything behind the
/// dispatch point is counted per shard in [`ServeSnapshot`]s). The cells
/// are registry [`Counter`] handles, so the same bumps feed both
/// [`RuntimeStats`] and the `/metrics` exposition.
#[derive(Debug)]
pub(crate) struct FrontCounters {
    udp_received: Counter,
    tcp_received: Counter,
    truncated: Counter,
    dropped: Counter,
}

impl FrontCounters {
    fn register(registry: &Registry) -> FrontCounters {
        let counter = |(name, help): (&str, &str)| registry.counter(name, help);
        FrontCounters {
            udp_received: counter(sdoh_core::METRIC_UDP_QUERIES),
            tcp_received: counter(sdoh_core::METRIC_TCP_QUERIES),
            truncated: counter(sdoh_core::METRIC_TRUNCATED_RESPONSES),
            dropped: counter(sdoh_core::METRIC_DROPPED_QUERIES),
        }
    }
}

/// One aggregated statistics observation of a running [`PoolRuntime`].
#[derive(Debug, Clone)]
pub struct RuntimeStats {
    /// The last snapshot each shard published, in shard order. A shard
    /// busy on a work item shows its state from before that item.
    pub per_shard: Vec<ServeSnapshot>,
    /// The aggregate of every shard.
    pub total: ServeSnapshot,
    /// Datagrams accepted by the UDP dispatcher.
    pub udp_queries: u64,
    /// Queries accepted over the TCP fallback listener.
    pub tcp_queries: u64,
    /// UDP responses truncated to TC=1 because they exceeded the payload
    /// limit.
    pub truncated_responses: u64,
    /// Accepted queries that could not be handed to a shard worker — zero
    /// during normal operation, including live rescales.
    pub dropped_queries: u64,
    /// The config epoch published when the snapshot was taken.
    pub config_epoch: u64,
    /// Runtime uptime when the snapshot was taken.
    pub taken_at: SimInstant,
    unresponsive: usize,
}

impl RuntimeStats {
    /// Shards that had been busy on one work item (e.g. a generation) for
    /// longer than the 1 s health deadline when the reading was taken.
    /// Non-zero means `/healthz` reports the instance unready.
    pub fn unresponsive_shards(&self) -> usize {
        self.unresponsive
    }
}

impl std::fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "runtime stats @ {:.1}s: epoch={} udp={} tcp={} truncated={} dropped={} \
             shards={} unresponsive={}",
            self.taken_at.as_nanos() as f64 / 1e9,
            self.config_epoch,
            self.udp_queries,
            self.tcp_queries,
            self.truncated_responses,
            self.dropped_queries,
            self.per_shard.len(),
            self.unresponsive_shards(),
        )?;
        writeln!(
            f,
            "  total: queries={} hits={} stale={} neg={} misses={} coalesced={} \
             generations={} failures={} refreshes={} hit_ratio={:.1}% entries={} pending={}",
            self.total.serve.queries,
            self.total.serve.hits,
            self.total.serve.stale_serves,
            self.total.serve.negative_hits,
            self.total.serve.misses,
            self.total.serve.coalesced_waiters,
            self.total.serve.generations,
            self.total.serve.generation_failures,
            self.total.serve.refreshes,
            self.total.serve.hit_ratio() * 100.0,
            self.total.entries,
            self.total.pending_refreshes,
        )?;
        for (index, snapshot) in self.per_shard.iter().enumerate() {
            writeln!(
                f,
                "  shard {index}: queries={} hits={} misses={} generations={} entries={}",
                snapshot.serve.queries,
                snapshot.serve.hits,
                snapshot.serve.misses,
                snapshot.serve.generations,
                snapshot.entries,
            )?;
        }
        Ok(())
    }
}

pub(crate) enum WorkItem {
    /// Serve one wire-format query and reply along the given path.
    Query { wire: Vec<u8>, reply: ReplyPath },
    /// Report a probe of every cache entry (control-plane invariant
    /// checks).
    Probe(mpsc::Sender<(usize, Vec<CacheEntryProbe>)>),
    /// Adopt a new config epoch and ack its number in the shard's cell.
    Reconfigure(Arc<EpochOrder>),
    /// The hash ring now spans `shards` shards: extract every entry this
    /// shard no longer owns and forward it to its new owner over `table`,
    /// then confirm on `done`.
    Rehash {
        table: Arc<Vec<mpsc::Sender<WorkItem>>>,
        shards: usize,
        done: mpsc::Sender<usize>,
    },
    /// Adopt an entry handed off by another shard (stamps intact).
    Install { key: PoolKey, cached: CachedPool },
    /// This shard left the hash ring: hand every entry to its owner under
    /// the `shards`-wide ring, confirm on `done`, then linger in retired
    /// mode — still answering stray queries (and immediately forwarding
    /// whatever they generate) — until the queue disconnects.
    Retire {
        table: Arc<Vec<mpsc::Sender<WorkItem>>>,
        shards: usize,
        done: mpsc::Sender<usize>,
    },
    /// Drain and exit.
    Shutdown,
}

pub(crate) enum ReplyPath {
    /// Answer with `send_to` on the shared UDP socket; responses above the
    /// payload limit are truncated to TC=1.
    Udp(SocketAddr),
    /// Hand the full response back to the TCP connection handler.
    Tcp(mpsc::Sender<Vec<u8>>),
}

/// What one shard worker publishes for every other thread to read: its
/// [`ServeSnapshot`], when it took up its current work item and the config
/// epoch it last adopted. The worker is the only writer. Readers never touch its queue, so a reading never
/// waits behind queries or a generation.
pub(crate) struct ShardCell {
    /// A sequence lock over the snapshot words below: odd while the worker
    /// writes them, even otherwise. The worker's `Release` fence after
    /// making it odd pairs with a reader's `Acquire` fence after its word
    /// loads, and the `Release` store that makes it even again pairs with
    /// the reader's first `Acquire` load; a reader that sees the same even
    /// value before and after its loads read one published snapshot.
    seq: AtomicU64,
    /// [`ServeSnapshot::counters`].
    counters: [AtomicU64; ServeSnapshot::COUNTERS],
    entries: AtomicUsize,
    pending_refreshes: AtomicUsize,
    last_generation_nanos: AtomicU64,
    total_generation_nanos: AtomicU64,
    /// One plus the nanoseconds after `base` at which the worker took up
    /// its current work item; zero while it waits on its queue.
    busy_since: AtomicU64,
    acked_epoch: AtomicU64,
    base: Instant,
}

impl ShardCell {
    fn new() -> ShardCell {
        ShardCell {
            seq: AtomicU64::new(0),
            counters: Default::default(),
            entries: AtomicUsize::new(0),
            pending_refreshes: AtomicUsize::new(0),
            last_generation_nanos: AtomicU64::new(0),
            total_generation_nanos: AtomicU64::new(0),
            busy_since: AtomicU64::new(0),
            // Workers implicitly serve under epoch 0 from construction.
            acked_epoch: AtomicU64::new(0),
            base: Instant::now(),
        }
    }

    /// Marks the worker busy from `started`, the instant it dequeued an
    /// item or began a refresh batch.
    fn begin(&self, started: Instant) {
        let since = nanos(started.saturating_duration_since(self.base));
        self.busy_since
            .store(since.saturating_add(1), Ordering::Release);
    }

    /// Publishes `snapshot` and marks the worker idle.
    fn publish(&self, snapshot: &ServeSnapshot) {
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        for (word, value) in self.counters.iter().zip(snapshot.counters()) {
            word.store(value, Ordering::Relaxed);
        }
        self.entries.store(snapshot.entries, Ordering::Relaxed);
        self.pending_refreshes
            .store(snapshot.pending_refreshes, Ordering::Relaxed);
        self.last_generation_nanos.store(
            nanos(snapshot.serve.last_generation_latency),
            Ordering::Relaxed,
        );
        self.total_generation_nanos.store(
            nanos(snapshot.serve.total_generation_latency),
            Ordering::Relaxed,
        );
        self.seq.store(seq.wrapping_add(2), Ordering::Release);
        self.busy_since.store(0, Ordering::Release);
    }

    /// The last published snapshot, read consistently.
    fn snapshot(&self) -> ServeSnapshot {
        loop {
            let before = self.seq.load(Ordering::Acquire);
            let mut snapshot = ServeSnapshot::default();
            for (counter, word) in snapshot.counters_mut().into_iter().zip(&self.counters) {
                *counter = word.load(Ordering::Relaxed);
            }
            snapshot.entries = self.entries.load(Ordering::Relaxed);
            snapshot.pending_refreshes = self.pending_refreshes.load(Ordering::Relaxed);
            snapshot.serve.last_generation_latency =
                Duration::from_nanos(self.last_generation_nanos.load(Ordering::Relaxed));
            snapshot.serve.total_generation_latency =
                Duration::from_nanos(self.total_generation_nanos.load(Ordering::Relaxed));
            fence(Ordering::Acquire);
            if before.is_multiple_of(2) && self.seq.load(Ordering::Relaxed) == before {
                return snapshot;
            }
            // The worker is mid-publish: let it finish.
            std::thread::yield_now();
        }
    }

    /// Whether the worker has been busy on one work item for longer than
    /// [`HEALTH_TIMEOUT`].
    fn wedged(&self) -> bool {
        match self.busy_since.load(Ordering::Acquire) {
            0 => false,
            since => {
                self.base.elapsed() > Duration::from_nanos(since - 1).saturating_add(HEALTH_TIMEOUT)
            }
        }
    }

    fn ack(&self, epoch: u64) {
        self.acked_epoch.store(epoch, Ordering::Release);
    }

    pub(crate) fn acked_epoch(&self) -> u64 {
        self.acked_epoch.load(Ordering::Acquire)
    }
}

fn nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// Everything a worker thread needs besides its shard: shared by
/// [`PoolRuntime::start`] and [`ControlHandle::rescale`] (which spawns
/// additional workers on a live runtime).
pub(crate) struct WorkerContext {
    socket: Arc<UdpSocket>,
    counters: Arc<FrontCounters>,
    udp_payload_limit: usize,
    record_latency: bool,
    registry: Registry,
    /// Per-shard latency histograms, cached so a shrink-then-grow cycle
    /// reuses shard `i`'s histogram instead of re-registering it (the
    /// registry rejects duplicate registrations).
    latency: Mutex<HashMap<usize, Histogram>>,
}

impl WorkerContext {
    // sdoh-lint: allow(hot-path-purity, "runs once per shard at spawn/rescale, not per query")
    fn latency_for(&self, index: usize) -> Option<Histogram> {
        if !self.record_latency {
            return None;
        }
        let mut cache = self.latency.lock();
        Some(
            cache
                .entry(index)
                .or_insert_with(|| {
                    let (name, help) = sdoh_core::METRIC_SERVE_LATENCY;
                    self.registry
                        .histogram_with(name, help, &[("shard", &index.to_string())])
                })
                .clone(),
        )
    }
}

/// Spawns one shard worker thread and returns it with the cell it
/// publishes into. `index` is the shard's position in the route table.
// sdoh-lint: allow(hot-path-purity, "thread naming happens once at spawn time")
pub(crate) fn spawn_worker(
    ctx: &WorkerContext,
    index: usize,
    shard: Shard,
    rx: mpsc::Receiver<WorkItem>,
) -> std::io::Result<(JoinHandle<()>, Arc<ShardCell>)> {
    let socket = Arc::clone(&ctx.socket);
    let counters = Arc::clone(&ctx.counters);
    let limit = ctx.udp_payload_limit;
    let latency = ctx.latency_for(index);
    let cell = Arc::new(ShardCell::new());
    let published = Arc::clone(&cell);
    let handle = std::thread::Builder::new()
        .name(format!("sdoh-shard-{index}"))
        .spawn(move || {
            worker_loop(
                index, shard, rx, socket, limit, counters, latency, &published,
            )
        })?;
    Ok((handle, cell))
}

/// The running threaded front end. Dropping it without calling
/// [`PoolRuntime::shutdown`] aborts the process threads ungracefully
/// (detached); always shut down explicitly.
pub struct PoolRuntime {
    udp_addr: SocketAddr,
    tcp_addr: Option<SocketAddr>,
    control: ControlHandle,
    service_handles: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    counters: Arc<FrontCounters>,
    clock: crate::clock::RuntimeClock,
    registry: Registry,
    stats_server: Option<StatsServer>,
}

impl PoolRuntime {
    /// Binds the sockets and spawns the worker, dispatcher and TCP threads
    /// (and the stats listener when [`RuntimeConfig::stats_bind`] is set).
    /// One worker thread per entry of `shards`; each runs its shard's
    /// background refreshes when they fall due. With port 0 in
    /// [`RuntimeConfig::bind`], a UDP port whose TCP twin is taken by
    /// another socket is swapped for a fresh one, a few times at most.
    ///
    /// # Errors
    ///
    /// Propagates socket binding/configuration failures, including
    /// `AddrInUse` for an explicit port whose TCP twin is taken. `shards`
    /// must be non-empty and [`RuntimeConfig::validate`] must pass.
    pub fn start(config: RuntimeConfig, shards: Vec<Shard>) -> std::io::Result<PoolRuntime> {
        // The runtime-level config epoch starts from the first shard's
        // cache knobs (shards are normally built homogeneous); epoch 0.
        let first_cache_config = match shards.first() {
            Some(shard) => *shard.resolver.cache().config(),
            None => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "a runtime needs at least one shard",
                ))
            }
        };
        config.validate().map_err(|err| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, err.to_string())
        })?;
        let (udp, tcp) = bind_do53_pair(
            UdpSocket::bind(config.bind)?,
            config.bind,
            config.enable_tcp,
        )?;
        let udp = Arc::new(udp);
        udp.set_read_timeout(Some(POLL_INTERVAL))?;
        let udp_addr = udp.local_addr()?;
        if let Some(listener) = &tcp {
            listener.set_nonblocking(true)?;
        }
        let tcp_addr = tcp.as_ref().map(|l| l.local_addr()).transpose()?;

        let stop = Arc::new(AtomicBool::new(false));
        let registry = Registry::new();
        let counters = Arc::new(FrontCounters::register(&registry));
        let clock = crate::clock::RuntimeClock::new();

        let initial = Arc::new(ServeConfig::initial(first_cache_config));

        let ctx = WorkerContext {
            socket: Arc::clone(&udp),
            counters: Arc::clone(&counters),
            udp_payload_limit: config.udp_payload_limit,
            record_latency: config.record_latency,
            registry: registry.clone(),
            latency: Mutex::new(HashMap::new()),
        };

        let shard_count = shards.len();
        let mut senders = Vec::with_capacity(shard_count);
        let mut cells = Vec::with_capacity(shard_count);
        let mut worker_handles = Vec::with_capacity(shard_count);
        for (index, shard) in shards.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel::<WorkItem>();
            let (handle, cell) = spawn_worker(&ctx, index, shard, rx)?;
            worker_handles.push(handle);
            senders.push(tx);
            cells.push(cell);
        }
        let routes = Arc::new(RouteState::new(RouteTable { senders, cells }));
        let control = ControlHandle::new(Arc::clone(&routes), initial, ctx, worker_handles);

        // The serve-layer counters live inside the worker threads; a
        // scrape-time collector reads the cells they publish (from the
        // *live* route table, so rescales are reflected) and renders them
        // through the shared serve vocabulary, plus the control-plane epoch
        // gauges.
        {
            let routes = Arc::clone(&routes);
            let epoch = Arc::clone(&control.inner.epoch);
            // sdoh-lint: allow(hot-path-purity, "scrape-time collector: runs per /metrics pull, not per query")
            registry.register_collector(Box::new(move || {
                let cells = routes.cells();
                let (_, total, unresponsive) = read_cells(&cells);
                let gauge =
                    |(name, help): (&str, &str), labels: Vec<(String, String)>, v: f64| Sample {
                        name: name.to_string(),
                        help: help.to_string(),
                        labels,
                        value: SampleValue::Gauge(v),
                    };
                let mut samples = snapshot_samples(&total, &[]);
                for (metric, value) in [
                    (sdoh_core::METRIC_SHARDS, cells.len() as f64),
                    (sdoh_core::METRIC_UNRESPONSIVE_SHARDS, unresponsive as f64),
                    (
                        sdoh_core::METRIC_CONFIG_EPOCH,
                        epoch.load(Ordering::Acquire) as f64,
                    ),
                ] {
                    samples.push(gauge(metric, Vec::new(), value));
                }
                for (index, cell) in cells.iter().enumerate() {
                    samples.push(gauge(
                        sdoh_core::METRIC_SHARD_ACKED_EPOCH,
                        vec![("shard".to_string(), index.to_string())],
                        cell.acked_epoch() as f64,
                    ));
                }
                samples
            }));
        }

        let stats_server = match config.stats_bind {
            Some(bind) => {
                let scrape_registry = registry.clone();
                let scrape_routes = Arc::clone(&routes);
                let scrape_control = control.clone();
                let handler: sdoh_metrics::Handler = Arc::new(move |path| match path {
                    "/metrics" => {
                        HttpResponse::ok_text(render_prometheus(&scrape_registry.gather()))
                    }
                    "/metrics.json" => {
                        HttpResponse::ok_json(render_json(&scrape_registry.gather()))
                    }
                    "/config" => HttpResponse::ok_json(scrape_control.config_json()),
                    "/healthz" => healthz(&scrape_routes),
                    _ => HttpResponse::text(404, "not found\n"),
                });
                Some(StatsServer::start(bind, handler)?)
            }
            None => None,
        };

        // Dispatcher + TCP: at most two service threads.
        let mut service_handles = Vec::with_capacity(2);
        {
            let socket = Arc::clone(&udp);
            let routes = Arc::clone(&routes);
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            service_handles.push(
                std::thread::Builder::new()
                    .name("sdoh-dispatch".into())
                    .spawn(move || dispatcher_loop(socket, routes, stop, counters))?,
            );
        }
        if let Some(listener) = tcp {
            let routes = Arc::clone(&routes);
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            service_handles.push(
                std::thread::Builder::new()
                    .name("sdoh-tcp".into())
                    .spawn(move || tcp_loop(listener, routes, stop, counters))?,
            );
        }
        Ok(PoolRuntime {
            udp_addr,
            tcp_addr,
            control,
            service_handles,
            stop,
            counters,
            clock,
            registry,
            stats_server,
        })
    }

    /// The bound UDP address clients send queries to.
    pub fn udp_addr(&self) -> SocketAddr {
        self.udp_addr
    }

    /// The bound TCP fallback address (`None` when TCP is disabled).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound stats-listener address (`None` when
    /// [`RuntimeConfig::stats_bind`] was `None`).
    pub fn stats_addr(&self) -> Option<SocketAddr> {
        self.stats_server.as_ref().map(|server| server.addr())
    }

    /// The metrics registry this runtime exports: the front-door counters,
    /// per-shard serving-latency histograms and the serve-layer snapshot
    /// collector. Clone it to register additional application metrics
    /// (e.g. time-sync or chaos counters) on the same `/metrics` endpoint.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Number of serving shards (worker threads) currently routed to.
    pub fn shard_count(&self) -> usize {
        self.control.shard_count()
    }

    /// The control plane of this runtime: hot reconfiguration
    /// ([`ControlHandle::apply`]) and live shard rescale
    /// ([`ControlHandle::rescale`]). Cloneable; hold it on an operator
    /// thread while the runtime serves.
    pub fn control(&self) -> ControlHandle {
        self.control.clone()
    }

    /// **The** statistics accessor: reads the [`ServeSnapshot`] every
    /// shard last published and merges them, without waiting on any
    /// worker. Each shard's snapshot is internally consistent and counts
    /// every query whose reply has left; a shard busy on a long item (a
    /// generation) shows its state from before that item.
    pub fn stats(&self) -> RuntimeStats {
        take_stats(
            &self.control.inner.routes.cells(),
            &self.counters,
            self.control.current_epoch(),
            self.clock.now(),
        )
    }

    /// Graceful shutdown: stop accepting traffic, drain the worker queues,
    /// join every thread — including workers still lingering in retired
    /// mode from a shrink — and read the final aggregate. Returns the final
    /// statistics; [`RuntimeStats::config_epoch`] is the final epoch.
    // sdoh-lint: allow(hot-path-purity, "shutdown path: serving has already stopped")
    pub fn shutdown(mut self) -> RuntimeStats {
        // 1. Stop the socket threads (and the stats listener, so no scrape
        //    races the drain); no new work enters the queues.
        self.stop.store(true, Ordering::SeqCst);
        if let Some(mut server) = self.stats_server.take() {
            server.shutdown();
        }
        for handle in self.service_handles {
            let _ = handle.join();
        }
        // 2. Clear the route table: live shards get a Shutdown item behind
        //    any remaining queries, and dropping the runtime's senders
        //    disconnects any retired workers still lingering from a shrink
        //    (their exit signal), even while the user holds ControlHandle
        //    clones.
        let RouteTable { senders, cells } =
            std::mem::take(&mut *self.control.inner.routes.table.lock());
        self.control
            .inner
            .routes
            .version
            .fetch_add(1, Ordering::Release);
        for sender in &senders {
            let _ = sender.send(WorkItem::Shutdown);
        }
        drop(senders);
        let handles = std::mem::take(&mut *self.control.inner.worker_handles.lock());
        for handle in handles {
            let _ = handle.join();
        }
        // 3. Every worker has drained its queue and published its last
        //    state, so the numbers include every accepted query.
        take_stats(
            &cells,
            &self.counters,
            self.control.current_epoch(),
            self.clock.now(),
        )
    }
}

impl std::fmt::Debug for PoolRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolRuntime")
            .field("udp_addr", &self.udp_addr)
            .field("tcp_addr", &self.tcp_addr)
            .field("shards", &self.shard_count())
            .field("epoch", &self.control.current_epoch())
            .finish()
    }
}

/// Pairs `udp` with a TCP listener on the same address and port number
/// (the classic Do53 pair) when `tcp` is set. With port 0 in `bind` the
/// UDP port came from the kernel, and an unrelated TCP socket may already
/// hold that number: then a fresh UDP port is bound and the pair retried,
/// up to [`PORT_PAIR_ATTEMPTS`] ports in all. An explicit port's
/// `AddrInUse` is returned as is.
fn bind_do53_pair(
    mut udp: UdpSocket,
    bind: SocketAddr,
    tcp: bool,
) -> std::io::Result<(UdpSocket, Option<TcpListener>)> {
    if !tcp {
        return Ok((udp, None));
    }
    let mut attempts = 1;
    loop {
        match TcpListener::bind(udp.local_addr()?) {
            Ok(listener) => return Ok((udp, Some(listener))),
            Err(e)
                if e.kind() == std::io::ErrorKind::AddrInUse
                    && bind.port() == 0
                    && attempts < PORT_PAIR_ATTEMPTS =>
            {
                attempts += 1;
                // The old socket still holds its port while the new one
                // binds, so the kernel cannot hand the same number back.
                udp = UdpSocket::bind(bind)?;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Reads every shard's cell: the per-shard snapshots, their merge and how
/// many shards are wedged — the one reading behind `stats()`, `/metrics`
/// and `/healthz`.
fn read_cells(cells: &[Arc<ShardCell>]) -> (Vec<ServeSnapshot>, ServeSnapshot, usize) {
    let mut per_shard = Vec::with_capacity(cells.len());
    let mut total = ServeSnapshot::default();
    for cell in cells {
        let snapshot = cell.snapshot();
        total.absorb(&snapshot);
        per_shard.push(snapshot);
    }
    let wedged = cells.iter().filter(|cell| cell.wedged()).count();
    (per_shard, total, wedged)
}

fn take_stats(
    cells: &[Arc<ShardCell>],
    counters: &FrontCounters,
    config_epoch: u64,
    taken_at: SimInstant,
) -> RuntimeStats {
    let (per_shard, total, unresponsive) = read_cells(cells);
    RuntimeStats {
        per_shard,
        total,
        udp_queries: counters.udp_received.get(),
        tcp_queries: counters.tcp_received.get(),
        truncated_responses: counters.truncated.get(),
        dropped_queries: counters.dropped.get(),
        config_epoch,
        taken_at,
        unresponsive,
    }
}

/// The `/healthz` readiness probe: 200 unless some shard has been busy on
/// one work item for longer than the health deadline, 503 otherwise. The
/// body reports shard liveness plus the pool-guarantee state — generation
/// failures mean some queries were answered from negatively-cached
/// failures rather than fresh secure generations.
// sdoh-lint: allow(hot-path-purity, "health probe renders at probe cadence, not per query")
fn healthz(routes: &RouteState) -> HttpResponse {
    let (per_shard, total, unresponsive) = read_cells(&routes.cells());
    let ready = unresponsive == 0;
    let body = format!(
        "{}\nshards {}\nunresponsive_shards {}\ncache_entries {}\npending_refreshes {}\n\
         generation_failures {}\nnegative_hits {}\nguarantee_degraded {}\n",
        if ready { "ok" } else { "unready" },
        per_shard.len(),
        unresponsive,
        total.entries,
        total.pending_refreshes,
        total.serve.generation_failures,
        total.serve.negative_hits,
        total.serve.generation_failures > 0,
    );
    HttpResponse::text(if ready { 200 } else { 503 }, body)
}

/// Routes a wire-format query to its shard: hash of the lowercased qname
/// labels and the qtype — the runtime-level mirror of the cache's
/// `(domain, address family)` key, computed without decoding (or
/// allocating) the full message. Malformed or question-less queries go to
/// shard 0, which produces the proper error response.
fn shard_for(wire: &[u8], shards: usize) -> usize {
    match question_hash(wire) {
        // sdoh-lint: allow(no-narrowing-cast, "hash % shards < shards <= usize::MAX, so both conversions are lossless")
        Some(hash) => (hash % shards.max(1) as u64) as usize,
        None => 0,
    }
}

/// Hashes `(qname lowercase, qtype)` straight from the wire. `None` when
/// there is no parseable first question.
fn question_hash(wire: &[u8]) -> Option<u64> {
    if wire.len() < 12 {
        return None;
    }
    let qdcount = u16::from_be_bytes([*wire.get(4)?, *wire.get(5)?]);
    if qdcount == 0 {
        return None;
    }
    let mut hasher = DefaultHasher::new();
    let mut i = 12usize;
    loop {
        let len = usize::from(*wire.get(i)?);
        if len == 0 {
            i += 1;
            break;
        }
        if len & 0xC0 != 0 {
            // Compression pointers don't appear in well-formed questions.
            return None;
        }
        let label = wire.get(i + 1..i + 1 + len)?;
        for &byte in label {
            hasher.write_u8(byte.to_ascii_lowercase());
        }
        hasher.write_u8(b'.');
        i += 1 + len;
    }
    let qtype = u16::from_be_bytes([*wire.get(i)?, *wire.get(i + 1)?]);
    hasher.write_u16(qtype);
    Some(hasher.finish())
}

fn dispatcher_loop(
    socket: Arc<UdpSocket>,
    routes: Arc<RouteState>,
    stop: Arc<AtomicBool>,
    counters: Arc<FrontCounters>,
) {
    let mut buf = [0u8; 4096];
    // The hot path works on a local copy of the senders; one relaxed
    // version check per packet detects a published rescale and reloads
    // under the (cold) table lock. Retiring workers linger until every
    // sender is dropped, so even a packet routed through a stale local
    // copy is still served — never dropped.
    let mut senders = routes.senders();
    let mut version = routes.version.load(Ordering::Acquire);
    while !stop.load(Ordering::SeqCst) {
        match socket.recv_from(&mut buf) {
            Ok((len, peer)) => {
                counters.udp_received.inc();
                let current = routes.version.load(Ordering::Acquire);
                if current != version {
                    senders = routes.senders();
                    version = current;
                }
                if senders.is_empty() {
                    counters.dropped.inc();
                    continue;
                }
                // recv_from wrote `len <= buf.len()` bytes; the owned copy
                // is the queue hand-off, one allocation per datagram.
                // sdoh-lint: allow(hot-path-purity, "the owned copy is the mpsc hand-off; one alloc per datagram is the design")
                let Some(wire) = buf.get(..len).map(|datagram| datagram.to_vec()) else {
                    continue;
                };
                let shard = shard_for(&wire, senders.len());
                let delivered = senders.get(shard).is_some_and(|sender| {
                    sender
                        .send(WorkItem::Query {
                            wire,
                            reply: ReplyPath::Udp(peer),
                        })
                        .is_ok()
                });
                if !delivered {
                    counters.dropped.inc();
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
}

fn tcp_loop(
    listener: TcpListener,
    routes: Arc<RouteState>,
    stop: Arc<AtomicBool>,
    counters: Arc<FrontCounters>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Connections are handled inline: the TCP path only exists
                // as the fallback for truncated answers, so one connection
                // at a time keeps the thread budget fixed. Heavy TCP
                // workloads would want an acceptor pool here.
                let _ = serve_tcp_connection(stream, &routes, &counters);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => break,
        }
    }
}

/// Serves RFC 1035 4.2.2 length-prefixed queries until the peer closes
/// (or a read times out). The (cold) TCP path re-reads the route table per
/// query, so it always follows the latest published ring.
// sdoh-lint: allow(hot-path-purity, "the TCP fallback is the cold path by design; see the doc comment")
fn serve_tcp_connection(
    mut stream: TcpStream,
    routes: &RouteState,
    counters: &FrontCounters,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_nodelay(true)?;
    loop {
        let mut len_buf = [0u8; 2];
        if stream.read_exact(&mut len_buf).is_err() {
            return Ok(()); // EOF or idle: connection done.
        }
        let len = usize::from(u16::from_be_bytes(len_buf));
        let mut wire = vec![0u8; len];
        stream.read_exact(&mut wire)?;
        counters.tcp_received.inc();
        let senders = routes.senders();
        if senders.is_empty() {
            counters.dropped.inc();
            return Ok(());
        }
        let shard = shard_for(&wire, senders.len());
        let (tx, rx) = mpsc::channel();
        let delivered = senders.get(shard).is_some_and(|sender| {
            sender
                .send(WorkItem::Query {
                    wire: wire.clone(),
                    reply: ReplyPath::Tcp(tx),
                })
                .is_ok()
        });
        if !delivered {
            counters.dropped.inc();
            return Ok(());
        }
        let mut response = match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(bytes) => bytes,
            Err(_) => return Ok(()),
        };
        if u16::try_from(response.len()).is_err() {
            // Too big even for the 16-bit TCP frame: a truncated write
            // would be wire corruption, so answer SERVFAIL instead.
            response = Message::decode(&wire)
                .map(|query| {
                    Message::error_response(&query, Rcode::ServFail)
                        .encode()
                        .unwrap_or_default()
                })
                .unwrap_or_default();
            if response.is_empty() {
                return Ok(());
            }
        }
        let Ok(len) = u16::try_from(response.len()) else {
            return Ok(()); // A SERVFAIL over 64 KiB cannot happen.
        };
        stream.write_all(&len.to_be_bytes())?;
        stream.write_all(&response)?;
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    index: usize,
    shard: Shard,
    rx: mpsc::Receiver<WorkItem>,
    socket: Arc<UdpSocket>,
    udp_payload_limit: usize,
    counters: Arc<FrontCounters>,
    latency: Option<Histogram>,
    cell: &ShardCell,
) {
    let Shard {
        mut resolver,
        mut exchanger,
    } = shard;
    // Set when this shard left the hash ring (a shrink retired it): the
    // ring to forward entries over and its width. A retired worker keeps
    // serving stray queries an in-flight dispatcher raced onto its queue,
    // but owns no keys — whatever it serves or generates is immediately
    // handed to the owning shard. It exits when the queue disconnects
    // (every sender dropped), which is what makes rescale zero-drop.
    let mut retired: Option<(Arc<Vec<mpsc::Sender<WorkItem>>>, usize)> = None;
    loop {
        // Refreshes run one REFRESH_GATHER after the earliest falls due,
        // checked before the next item is taken, so a queue that never
        // drains cannot starve them; otherwise the wait for the next item
        // ends at that instant.
        let wait = match resolver.next_refresh_due() {
            Some(due) => {
                let now = exchanger.now();
                let due = due.saturating_add(REFRESH_GATHER);
                if due <= now {
                    cell.begin(Instant::now());
                    resolver.run_due_refreshes(exchanger.as_mut());
                    cell.publish(&resolver.snapshot());
                    continue;
                }
                Some(due.saturating_duration_since(now))
            }
            None => None,
        };
        let item = match wait {
            Some(wait) => match rx.recv_timeout(wait) {
                Ok(item) => item,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            },
            None => match rx.recv() {
                Ok(item) => item,
                Err(_) => break,
            },
        };
        let started = Instant::now();
        cell.begin(started);
        match item {
            WorkItem::Query { wire, reply } => {
                let response = serve_wire(&mut resolver, exchanger.as_mut(), &wire);
                // Histogram recording is two relaxed fetch_adds on this
                // shard's own cache lines — no lock, no allocation.
                if let Some(histogram) = &latency {
                    histogram.record(started.elapsed());
                }
                // Published before the reply leaves: a client holding its
                // answer always finds its query counted.
                cell.publish(&resolver.snapshot());
                match reply {
                    ReplyPath::Udp(peer) => {
                        let bytes = if response.len() > udp_payload_limit {
                            counters.truncated.inc();
                            truncate_for_udp(&wire)
                        } else {
                            response
                        };
                        if !bytes.is_empty() {
                            let _ = socket.send_to(&bytes, peer);
                        }
                    }
                    ReplyPath::Tcp(tx) => {
                        let _ = tx.send(response);
                    }
                }
                if let Some((ring, shards)) = &retired {
                    forward_entries(&mut resolver, ring, *shards, None);
                    cell.publish(&resolver.snapshot());
                }
                continue;
            }
            WorkItem::Probe(tx) => {
                let _ = tx.send((index, resolver.probe_entries(exchanger.now())));
            }
            WorkItem::Reconfigure(order) => {
                if let Some(factory) = &order.sources {
                    // An empty per-shard set is rejected by the generator:
                    // the shard keeps its current sources.
                    let _ = resolver.generator_mut().replace_sources(factory(index));
                }
                if let Some(pool) = &order.pool {
                    // Pre-validated by ControlHandle::apply.
                    let _ = resolver.generator_mut().set_config(pool.clone());
                }
                resolver.apply_config(order.config.clone(), exchanger.now());
                cell.ack(order.config.epoch());
            }
            WorkItem::Rehash {
                table,
                shards,
                done,
            } => {
                forward_entries(&mut resolver, &table, shards, Some(index));
                let _ = done.send(index);
            }
            WorkItem::Install { key, cached } => {
                resolver.install_entry(key, cached, exchanger.now());
            }
            WorkItem::Retire {
                table,
                shards,
                done,
            } => {
                forward_entries(&mut resolver, &table, shards, None);
                retired = Some((table, shards));
                let _ = done.send(index);
            }
            WorkItem::Shutdown => {
                // Leaves the cell idle: a finished worker is not wedged.
                cell.publish(&resolver.snapshot());
                break;
            }
        }
        cell.publish(&resolver.snapshot());
    }
}

/// Extracts every cache entry whose owner under a `shards`-wide ring is
/// not `keep` and forwards it — stamps intact — to the owner's queue.
/// `keep = Some(index)` re-homes after a grow; `None` empties a retiring
/// shard completely. Extraction happens-before the forward, so no entry
/// is ever servable from two shards at once; `install` on the receiving
/// side refuses to clobber an at-least-as-fresh entry, so a racing
/// regeneration by the new owner wins over the handed-off copy.
fn forward_entries(
    resolver: &mut CachingPoolResolver,
    ring: &[mpsc::Sender<WorkItem>],
    shards: usize,
    keep: Option<usize>,
) {
    let moved = resolver.extract_entries(|key| Some(owner_of(key, shards)) != keep);
    for (key, cached) in moved {
        let owner = owner_of(&key, shards);
        if let Some(sender) = ring.get(owner) {
            let _ = sender.send(WorkItem::Install { key, cached });
        }
    }
}

/// Terminates one query through the shared Do53 core — identical wire
/// behaviour to the simulated `Do53Service` by construction. An empty
/// vector means "send nothing".
fn serve_wire(
    resolver: &mut CachingPoolResolver,
    exchanger: &mut dyn Exchanger,
    wire: &[u8],
) -> Vec<u8> {
    sdoh_dns_server::serve_do53_payload(resolver, exchanger, wire, false).unwrap_or_default()
}

/// Builds the empty TC=1 response for an oversized UDP answer: echo of the
/// query's id and question with the truncation bit set, no records — the
/// standard "retry over TCP" signal.
fn truncate_for_udp(query_wire: &[u8]) -> Vec<u8> {
    let Ok(query) = Message::decode(query_wire) else {
        return Vec::new(); // sdoh-lint: allow(hot-path-purity, "an empty Vec::new never allocates")
    };
    let mut tc = Message::response_to(&query);
    tc.header.truncated = true;
    tc.encode().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query_wire(domain: &str, rtype: sdoh_dns_wire::RrType) -> Vec<u8> {
        Message::query(7, domain.parse().unwrap(), rtype)
            .encode()
            .unwrap()
    }

    #[test]
    fn sharding_is_stable_and_family_aware() {
        let a1 = query_wire("pool.ntp.org", sdoh_dns_wire::RrType::A);
        let a2 = query_wire("POOL.NTP.ORG", sdoh_dns_wire::RrType::A);
        let aaaa = query_wire("pool.ntp.org", sdoh_dns_wire::RrType::Aaaa);
        // Same key, same shard, for any shard count; case-insensitive.
        for shards in 1..=16 {
            assert_eq!(shard_for(&a1, shards), shard_for(&a2, shards));
        }
        // The two families of one domain are distinct keys: with enough
        // shard counts they must land apart at least once.
        assert!(
            (2..=16).any(|n| shard_for(&a1, n) != shard_for(&aaaa, n)),
            "family never separated the shard choice"
        );
        // Malformed input routes to shard 0 instead of panicking.
        assert_eq!(shard_for(b"", 8), 0);
        assert_eq!(shard_for(&[0u8; 12], 8), 0);
    }

    #[test]
    fn question_hash_spreads_domains() {
        let shards = 8;
        let hit: std::collections::HashSet<usize> = (0..64)
            .map(|i| {
                shard_for(
                    &query_wire(&format!("pool{i}.ntpns.org"), sdoh_dns_wire::RrType::A),
                    shards,
                )
            })
            .collect();
        assert!(
            hit.len() > shards / 2,
            "64 domains hit {} shards",
            hit.len()
        );
    }

    #[test]
    fn owner_of_mirrors_wire_level_sharding() {
        // The control plane's key-level hash must agree with the
        // dispatcher's wire-level hash for every key, or a rescale would
        // hand entries to shards that never see their queries.
        for i in 0..64 {
            let domain = format!("pool{i}.NTPNS.org");
            for (rtype, family) in [
                (sdoh_dns_wire::RrType::A, sdoh_core::AddressFamily::V4),
                (sdoh_dns_wire::RrType::Aaaa, sdoh_core::AddressFamily::V6),
            ] {
                let key = PoolKey {
                    domain: domain.parse().unwrap(),
                    family,
                };
                let wire = query_wire(&domain, rtype);
                for shards in 1..=9 {
                    assert_eq!(
                        owner_of(&key, shards),
                        shard_for(&wire, shards),
                        "{domain} {family:?} diverged at {shards} shards"
                    );
                }
            }
        }
    }

    #[test]
    fn port_pair_retries_an_ephemeral_port_whose_tcp_twin_is_taken() {
        let any = SocketAddr::from(([127, 0, 0, 1], 0));
        // A UDP socket on a port number some TCP socket already holds:
        // what the kernel may hand out for port 0.
        let (held, taken) = (0..16)
            .find_map(|_| {
                let held = TcpListener::bind(any).ok()?;
                let taken = UdpSocket::bind(held.local_addr().ok()?).ok()?;
                Some((held, taken))
            })
            .expect("a UDP socket on a held TCP port number");
        let held_port = held.local_addr().unwrap().port();

        let (udp, tcp) = bind_do53_pair(taken.try_clone().unwrap(), any, true).unwrap();
        let udp_port = udp.local_addr().unwrap().port();
        assert_ne!(udp_port, held_port, "the taken port was swapped");
        assert_eq!(tcp.unwrap().local_addr().unwrap().port(), udp_port);

        // An explicit port is the operator's choice: no retry.
        let explicit = SocketAddr::from(([127, 0, 0, 1], held_port));
        let err = bind_do53_pair(taken, explicit, true).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    }

    #[test]
    fn truncation_echoes_question_with_tc() {
        let wire = query_wire("pool.ntp.org", sdoh_dns_wire::RrType::A);
        let tc = Message::decode(&truncate_for_udp(&wire)).unwrap();
        assert!(tc.header.truncated);
        assert!(tc.header.response);
        assert_eq!(tc.header.id, 7);
        assert!(tc.answers.is_empty());
        assert_eq!(tc.question().unwrap().name.to_string(), "pool.ntp.org.");
        assert!(truncate_for_udp(b"junk").is_empty());
    }
}
