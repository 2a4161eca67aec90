//! The observability plane, end to end over real sockets: a loopback
//! runtime exports `/metrics`, `/metrics.json` and `/healthz` from its
//! stats listener; exported counters reconcile exactly with the queries a
//! real UDP client sent; cross-shard histogram merge and percentile
//! extraction behave; `/healthz`, `stats()` and `/metrics` report a shard
//! wedged in a generation without waiting for it; and the registry lints
//! clean — every public counter ships a help string (this test backs the CI
//! counter-help lint).

use std::time::{Duration, Instant};

use sdoh_core::{CacheConfig, PoolConfig};
use sdoh_dns_wire::{Message, RrType, Ttl};
use sdoh_metrics::{
    http_get, parse_prometheus, render_json, HistogramSnapshot, Sample, SampleValue,
};
use sdoh_runtime::{
    LoopbackConfig, LoopbackFleet, PoolRuntime, RuntimeClient, RuntimeConfig, Shard,
};

const SHARDS: usize = 4;

fn build() -> (LoopbackFleet, Vec<Shard>) {
    let fleet = LoopbackFleet::build(LoopbackConfig {
        resolvers: 3,
        pool_domains: 4,
        addresses_per_domain: 8,
        ..LoopbackConfig::default()
    });
    let shards = fleet
        .shards(
            SHARDS,
            PoolConfig::algorithm1(),
            CacheConfig::default()
                .with_ttl(Ttl::from_secs(60))
                .with_stale_window(Duration::from_secs(60)),
        )
        .expect("valid config");
    (fleet, shards)
}

fn stats_config() -> RuntimeConfig {
    RuntimeConfig::default().with_stats_bind(Some(std::net::SocketAddr::from(([127, 0, 0, 1], 0))))
}

fn counter(samples: &[Sample], name: &str) -> u64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match &s.value {
            SampleValue::Counter(v) => *v,
            other => panic!("{name} is not a counter: {other:?}"),
        })
        .sum()
}

#[test]
fn exported_counters_reconcile_with_client_ground_truth() {
    let (fleet, shards) = build();
    let runtime = PoolRuntime::start(stats_config(), shards).expect("bind loopback");
    let stats_addr = runtime.stats_addr().expect("stats listener bound");
    let client = RuntimeClient::connect(runtime.udp_addr(), runtime.tcp_addr()).expect("client");

    let mut sent = 0u64;
    for round in 0..5 {
        for domain in &fleet.domains {
            sent += 1;
            let response = client
                .query(&Message::query(sent as u16, domain.clone(), RrType::A))
                .expect("query answered");
            assert!(!response.answer_addresses().is_empty(), "round {round}");
        }
    }

    // Scrape over real HTTP and parse the Prometheus text back.
    let scrape = http_get(stats_addr, "/metrics", Duration::from_secs(5)).expect("scrape");
    assert_eq!(scrape.status, 200);
    let samples = parse_prometheus(&scrape.body).expect("parseable exposition");

    // Exact reconciliation: every query the client sent is counted, once.
    assert_eq!(counter(&samples, "sdoh_udp_queries_total"), sent);
    assert_eq!(counter(&samples, "sdoh_serve_queries_total"), sent);
    let hits = counter(&samples, "sdoh_serve_hits_total");
    let misses = counter(&samples, "sdoh_serve_misses_total");
    let coalesced = counter(&samples, "sdoh_serve_coalesced_waiters_total");
    assert_eq!(hits + misses + coalesced, sent, "every query hit or missed");

    // The per-shard latency histograms merge to exactly one observation
    // per query, and the merged p99 is a plausible serving latency.
    let latency: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.name == "sdoh_serve_latency_seconds")
        .collect();
    assert!(!latency.is_empty(), "latency histograms exported");
    let mut merged = HistogramSnapshot::default();
    for sample in &latency {
        match &sample.value {
            SampleValue::Histogram(h) => merged.merge(h),
            other => panic!("latency series is not a histogram: {other:?}"),
        }
    }
    assert_eq!(merged.count(), sent, "one latency observation per query");
    let p99 = merged.quantile(0.99).expect("non-empty histogram");
    assert!(p99 < Duration::from_secs(10), "implausible p99 {p99:?}");

    // JSON flavour serves the same counters.
    let json = http_get(stats_addr, "/metrics.json", Duration::from_secs(5)).expect("json");
    assert_eq!(json.status, 200);
    assert!(json.body.contains("\"sdoh_udp_queries_total\""));
    assert!(json.body.contains(&format!("\"value\": {sent}")));

    // Healthy instance: all shards answer, probe says ready.
    let health = http_get(stats_addr, "/healthz", Duration::from_secs(5)).expect("healthz");
    assert_eq!(health.status, 200, "body: {}", health.body);
    assert!(health.body.starts_with("ok\n"));
    assert!(health.body.contains(&format!("shards {SHARDS}")));
    assert!(health.body.contains("unresponsive_shards 0"));

    // Unknown paths 404 without killing the listener.
    let missing = http_get(stats_addr, "/nope", Duration::from_secs(5)).expect("404");
    assert_eq!(missing.status, 404);

    let stats = runtime.shutdown();
    assert_eq!(stats.total.serve.queries, sent);
    // After shutdown the listener is gone.
    assert!(http_get(stats_addr, "/metrics", Duration::from_millis(300)).is_err());
}

#[test]
fn registry_lints_clean_every_counter_has_help() {
    // The CI counter-help lint: a full runtime registry — front-door
    // counters, per-shard histograms and the serve-layer collector — must
    // not export a single series without a help string.
    let (_fleet, shards) = build();
    let runtime = PoolRuntime::start(RuntimeConfig::default(), shards).expect("bind loopback");
    let missing = runtime.registry().lint();
    assert!(
        missing.is_empty(),
        "series without help strings: {missing:?}"
    );
    let samples = runtime.registry().gather();
    assert!(samples.iter().any(|s| s.name == "sdoh_udp_queries_total"));
    assert!(samples.iter().any(|s| s.name == "sdoh_serve_queries_total"));
    assert!(samples.iter().any(|s| s.name == "sdoh_unresponsive_shards"));
    assert!(
        samples
            .iter()
            .filter(|s| s.name == "sdoh_serve_latency_seconds")
            .count()
            == SHARDS,
        "one latency histogram per shard"
    );
    runtime.shutdown();
}

#[test]
fn latency_recording_can_be_disabled_for_overhead_runs() {
    let (fleet, shards) = build();
    let config = stats_config().with_record_latency(false);
    let runtime = PoolRuntime::start(config, shards).expect("bind loopback");
    let client = RuntimeClient::connect(runtime.udp_addr(), runtime.tcp_addr()).expect("client");
    client
        .query(&Message::query(1, fleet.domains[0].clone(), RrType::A))
        .expect("query answered");
    let samples = runtime.registry().gather();
    assert!(
        !samples
            .iter()
            .any(|s| s.name == "sdoh_serve_latency_seconds"),
        "no latency histograms registered when recording is off"
    );
    runtime.shutdown();
}

#[test]
fn runtime_stats_render_as_text_and_json() {
    let (fleet, shards) = build();
    let runtime = PoolRuntime::start(RuntimeConfig::default(), shards).expect("bind loopback");
    let client = RuntimeClient::connect(runtime.udp_addr(), runtime.tcp_addr()).expect("client");
    for (i, domain) in fleet.domains.iter().enumerate() {
        client
            .query(&Message::query(i as u16 + 1, domain.clone(), RrType::A))
            .expect("query answered");
    }
    // JSON is the registry's rendering, the body `/metrics.json` serves.
    let samples = runtime.registry().gather();
    let stats = runtime.shutdown();

    let text = stats.to_string();
    assert!(text.contains("runtime stats @"), "{text}");
    assert!(text.contains(&format!("queries={}", stats.total.serve.queries)));
    assert!(text.contains("shard 0:"));
    assert!(text.contains("unresponsive=0"), "{text}");

    assert_eq!(
        counter(&samples, "sdoh_udp_queries_total"),
        stats.udp_queries
    );
    let json = render_json(&samples);
    assert!(json.contains("\"sdoh_unresponsive_shards\""), "{json}");
    assert!(json.contains(&format!("\"value\": {}", stats.udp_queries)));
}

#[test]
fn healthz_reports_a_shard_wedged_in_a_generation() {
    // Every upstream exchange takes 2 s, so one cold query keeps its
    // shard busy in an inline generation for that long.
    let fleet = LoopbackFleet::build(LoopbackConfig {
        upstream_latency: Duration::from_secs(2),
        ..LoopbackConfig::default()
    });
    let shards = fleet
        .shards(2, PoolConfig::algorithm1(), CacheConfig::default())
        .expect("valid config");
    let runtime = PoolRuntime::start(stats_config(), shards).expect("bind loopback");
    let stats_addr = runtime.stats_addr().expect("stats listener bound");
    let client = RuntimeClient::connect(runtime.udp_addr(), runtime.tcp_addr())
        .and_then(|client| client.with_timeout(Duration::from_secs(10)))
        .expect("client");
    let domain = fleet.domains[0].clone();
    let cold = std::thread::spawn(move || client.query(&Message::query(1, domain, RrType::A)));
    std::thread::sleep(Duration::from_millis(1300));

    // The shard has been busy on the generation past the 1 s health
    // deadline; the probe reads the published cells and answers at once.
    let asked = Instant::now();
    let health = http_get(stats_addr, "/healthz", Duration::from_secs(5)).expect("healthz");
    let waited = asked.elapsed();
    assert_eq!(health.status, 503, "body: {}", health.body);
    assert!(health.body.starts_with("unready\n"), "{}", health.body);
    assert!(health.body.contains("shards 2\n"), "{}", health.body);
    assert!(
        health.body.contains("unresponsive_shards 1\n"),
        "{}",
        health.body
    );
    assert!(waited < Duration::from_millis(250), "probe took {waited:?}");

    // Once the generation finishes, no shard is busy any more.
    let response = cold
        .join()
        .expect("query thread")
        .expect("cold query answered");
    assert!(!response.answer_addresses().is_empty());
    let health = http_get(stats_addr, "/healthz", Duration::from_secs(5)).expect("healthz");
    assert_eq!(health.status, 200, "body: {}", health.body);
    assert!(health.body.contains("unresponsive_shards 0\n"));
    assert_eq!(runtime.shutdown().unresponsive_shards(), 0);
}

#[test]
fn stats_and_scrape_read_a_wedged_shard_without_waiting() {
    // Every upstream exchange takes 2 s. One shard: the first cold query
    // and a hit leave two counted queries, then a second cold query keeps
    // the shard busy in a generation while statistics are read.
    let fleet = LoopbackFleet::build(LoopbackConfig {
        pool_domains: 2,
        upstream_latency: Duration::from_secs(2),
        ..LoopbackConfig::default()
    });
    let shards = fleet
        .shards(1, PoolConfig::algorithm1(), CacheConfig::default())
        .expect("valid config");
    let runtime = PoolRuntime::start(stats_config(), shards).expect("bind loopback");
    let stats_addr = runtime.stats_addr().expect("stats listener bound");
    let client = RuntimeClient::connect(runtime.udp_addr(), runtime.tcp_addr())
        .and_then(|client| client.with_timeout(Duration::from_secs(10)))
        .expect("client");
    for id in 1..=2 {
        client
            .query(&Message::query(id, fleet.domains[0].clone(), RrType::A))
            .expect("query answered");
    }
    let domain = fleet.domains[1].clone();
    let cold = std::thread::spawn(move || client.query(&Message::query(3, domain, RrType::A)));
    std::thread::sleep(Duration::from_millis(200));

    let asked = Instant::now();
    let stats = runtime.stats();
    let waited = asked.elapsed();
    assert!(
        waited < Duration::from_millis(250),
        "stats() took {waited:?}"
    );
    assert_eq!(stats.total.serve.queries, 2, "{:?}", stats.total.serve);
    assert_eq!(stats.per_shard.len(), 1);
    assert_eq!(stats.per_shard[0].serve.hits, 1);

    let asked = Instant::now();
    let scrape = http_get(stats_addr, "/metrics", Duration::from_secs(5)).expect("scrape");
    let waited = asked.elapsed();
    assert!(
        waited < Duration::from_millis(250),
        "scrape took {waited:?}"
    );
    let samples = parse_prometheus(&scrape.body).expect("parseable exposition");
    assert_eq!(counter(&samples, "sdoh_serve_queries_total"), 2);

    let response = cold
        .join()
        .expect("query thread")
        .expect("cold query answered");
    assert!(!response.answer_addresses().is_empty());
    assert_eq!(runtime.shutdown().total.serve.queries, 3);
}
