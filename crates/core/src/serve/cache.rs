//! The TTL pool cache.
//!
//! [`PoolCache`] stores [`GenerationReport`]s keyed by
//! `(domain, address family)` so that the expensive distributed generation
//! runs once per TTL window instead of once per client query. It is one
//! map under one exact LRU capacity bound — a serving runtime shards by
//! owning one cache per worker, so the cache itself needs no inner shards
//! — with **negative caching** of generation failures (a failed fan-out is
//! remembered briefly instead of being retried by every queued client), and
//! a **stale window** after expiry during which an entry is still served
//! while a refresh regenerates it (stale-while-revalidate).
//!
//! The cache is sans-IO like the rest of the crate: it never reads a clock.
//! Every operation takes `now` explicitly, so it composes with the
//! simulator's virtual time and with any driver's notion of "now".

use std::collections::HashMap;
use std::time::Duration;

use sdoh_dns_wire::{Name, Question, RrType, Ttl};
use sdoh_netsim::SimInstant;

use super::epoch::ConfigError;
use crate::generator::GenerationReport;

/// The address family of a cached pool — the second half of the cache key.
///
/// A pool generated for A queries and one generated for AAAA queries are
/// distinct cache entries even under dual-stack generation policies,
/// matching the front end's behaviour of filtering the served answer to the
/// queried family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AddressFamily {
    /// IPv4 (`A` queries).
    V4,
    /// IPv6 (`AAAA` queries).
    V6,
}

impl AddressFamily {
    /// The family an address query of `rtype` asks for; `None` for
    /// non-address types.
    pub fn of(rtype: RrType) -> Option<Self> {
        match rtype {
            RrType::A => Some(AddressFamily::V4),
            RrType::Aaaa => Some(AddressFamily::V6),
            _ => None,
        }
    }

    /// The record type serving this family.
    pub fn rtype(self) -> RrType {
        match self {
            AddressFamily::V4 => RrType::A,
            AddressFamily::V6 => RrType::Aaaa,
        }
    }
}

/// Cache key of a generated pool: the pool domain plus the queried family.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PoolKey {
    /// The pool domain the generation looked up.
    pub domain: Name,
    /// The address family the clients asked for.
    pub family: AddressFamily,
}

impl PoolKey {
    /// Creates a key.
    pub fn new(domain: Name, family: AddressFamily) -> Self {
        PoolKey { domain, family }
    }

    /// The key a DNS question maps to; `None` for non-address questions.
    pub fn for_question(question: &Question) -> Option<Self> {
        AddressFamily::of(question.rtype).map(|family| PoolKey::new(question.name.clone(), family))
    }
}

impl std::fmt::Display for PoolKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.domain, self.family.rtype())
    }
}

/// Configuration of a [`PoolCache`].
///
/// Non-exhaustive so future serving knobs aren't breaking changes: build
/// it from [`CacheConfig::default`] with the `with_*` methods, and gate
/// hand-rolled values through [`CacheConfig::validate`] (the epoch
/// constructor [`ServeConfig::new`](super::ServeConfig::new) does).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheConfig {
    /// Number of entries the cache may hold.
    pub capacity: usize,
    /// Lifetime of a successfully generated pool; doubles as the answer TTL
    /// budget the front end serves from.
    pub ttl: Ttl,
    /// How long past expiry an entry may still be served while a background
    /// refresh regenerates it. Zero disables stale-while-revalidate.
    pub stale_window: Duration,
    /// Lifetime of a cached generation *failure* (negative caching).
    /// Negative entries have no stale window.
    pub negative_ttl: Ttl,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 1024,
            ttl: Ttl::from_secs(60),
            stale_window: Duration::from_secs(60),
            negative_ttl: Ttl::from_secs(5),
        }
    }
}

impl CacheConfig {
    /// Sets the capacity, returning `self` for chaining.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the pool TTL, returning `self` for chaining.
    pub fn with_ttl(mut self, ttl: impl Into<Ttl>) -> Self {
        self.ttl = ttl.into();
        self
    }

    /// Sets the stale window, returning `self` for chaining.
    pub fn with_stale_window(mut self, window: Duration) -> Self {
        self.stale_window = window;
        self
    }

    /// Sets the negative TTL, returning `self` for chaining.
    pub fn with_negative_ttl(mut self, ttl: impl Into<Ttl>) -> Self {
        self.negative_ttl = ttl.into();
        self
    }

    /// Rejects configurations that would misbehave at runtime: a cache
    /// with zero capacity cannot hold a single entry. ([`PoolCache::new`]
    /// historically clamps it to 1; validated construction through
    /// [`ServeConfig::new`](super::ServeConfig::new) errors instead.)
    ///
    /// # Errors
    ///
    /// [`ConfigError::Zero`] when the capacity is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.capacity == 0 {
            return Err(ConfigError::Zero("capacity"));
        }
        Ok(())
    }
}

/// A cached generation outcome handed back by [`PoolCache::get`].
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPool {
    /// The generation outcome: a report, or the error string of a failed
    /// generation (negative entry).
    pub value: Result<GenerationReport, String>,
    /// When the generation that produced this entry completed.
    pub generated_at: SimInstant,
    /// When the entry stops being fresh.
    pub expires_at: SimInstant,
}

impl CachedPool {
    /// The fresh lifetime remaining at `now` (zero once expired) — what a
    /// TTL-decrementing front end serves.
    pub fn remaining(&self, now: SimInstant) -> Ttl {
        Ttl::from_duration(self.expires_at.saturating_duration_since(now))
    }
}

/// Liveness of a probed cache entry at a given instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// Within its TTL: served directly.
    Fresh,
    /// Past its TTL but within the stale window: served while a refresh
    /// regenerates it (successful generations only).
    Stale,
    /// Past every serving window; lingering until looked up or evicted.
    Dead,
}

/// Diagnostic view of one cache entry, produced by [`PoolCache::probe`].
///
/// Invariant monitors (e.g. the `sdoh-chaos` campaign runner) use probes to
/// assert that the cache never serves a pool older than TTL plus the stale
/// window: every serve must be explainable by an entry whose `state` allows
/// it at the probed instant.
#[derive(Debug, Clone)]
pub struct CacheEntryProbe {
    /// The entry's cache key.
    pub key: PoolKey,
    /// `true` for a cached generation *failure* (negative entry).
    pub negative: bool,
    /// Time since the entry was generated.
    pub age: Duration,
    /// TTL budget left before expiry (zero once expired).
    pub remaining: Ttl,
    /// Whether the entry is fresh, stale-but-servable, or dead.
    pub state: EntryState,
}

/// Outcome of a cache lookup at a given instant.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// The entry is within its TTL.
    Fresh(CachedPool),
    /// The entry is past its TTL but within the stale window: serve it,
    /// then refresh it. Only successful generations go stale; expired
    /// negative entries are misses.
    Stale(CachedPool),
    /// No usable entry.
    Miss,
}

impl CacheLookup {
    /// Returns `true` for [`CacheLookup::Miss`].
    pub fn is_miss(&self) -> bool {
        matches!(self, CacheLookup::Miss)
    }
}

/// Operational counters of a [`PoolCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Lookups answered from a fresh entry.
    pub hits: u64,
    /// Lookups answered from a stale entry (within the stale window).
    pub stale_hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted to make room (dead entries first, then LRU).
    pub evictions: u64,
    /// Entries dropped because they were expired beyond use.
    pub expirations: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    value: Result<GenerationReport, String>,
    generated_at: SimInstant,
    expires_at: SimInstant,
    /// Monotone access stamp for LRU eviction.
    last_used: u64,
}

impl Entry {
    /// The instant past which the entry serves no purpose under the
    /// **current** config: successful generations may still be served
    /// through the stale window, negative entries die at expiry.
    ///
    /// Stale serving is bounded both by the stamped expiry plus the
    /// current stale window and by the current `ttl + stale_window`
    /// horizon measured from generation. For a constant config the two
    /// bounds coincide (entries are stamped `generated_at + ttl`); across
    /// a config-epoch change the cap guarantees nothing is ever served
    /// older than the **maximum** of the old and new horizons.
    fn keep_until(&self, config: &CacheConfig) -> SimInstant {
        if self.value.is_ok() {
            let by_stamp = self.expires_at.saturating_add(config.stale_window);
            let by_horizon = self
                .generated_at
                .saturating_add(config.ttl.as_duration() + config.stale_window);
            by_stamp.min(by_horizon)
        } else {
            self.expires_at
        }
    }
}

/// The LRU-bounded, TTL- and stale-window-aware pool cache.
///
/// See the module documentation for the design.
#[derive(Debug)]
pub struct PoolCache {
    config: CacheConfig,
    entries: HashMap<PoolKey, Entry>,
    /// The clamped entry bound; never exceeded.
    capacity: usize,
    tick: u64,
    metrics: CacheMetrics,
}

impl PoolCache {
    /// Creates a cache from a configuration (capacity is clamped to at
    /// least 1).
    pub fn new(config: CacheConfig) -> Self {
        PoolCache {
            config,
            entries: HashMap::new(),
            capacity: config.capacity.max(1),
            tick: 0,
            metrics: CacheMetrics::default(),
        }
    }

    /// The configuration the cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of entries currently stored (including entries that have
    /// expired but not yet been dropped).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the cache holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Snapshot of the operational counters.
    pub fn metrics(&self) -> CacheMetrics {
        self.metrics
    }

    /// Looks up `key` at virtual time `now`.
    ///
    /// A fresh entry is a hit; an expired *successful* entry within the
    /// stale window is returned as [`CacheLookup::Stale`] (the caller
    /// serves it and schedules a refresh); anything older — and any expired
    /// negative entry — is dropped and reported as a miss.
    pub fn get(&mut self, key: &PoolKey, now: SimInstant) -> CacheLookup {
        self.tick += 1;
        let tick = self.tick;
        let config = self.config;
        let entry = match self.entries.get_mut(key) {
            Some(entry) => entry,
            None => {
                self.metrics.misses += 1;
                return CacheLookup::Miss;
            }
        };
        let cached = CachedPool {
            value: entry.value.clone(),
            generated_at: entry.generated_at,
            expires_at: entry.expires_at,
        };
        if now < entry.expires_at {
            entry.last_used = tick;
            self.metrics.hits += 1;
            return CacheLookup::Fresh(cached);
        }
        let serve_stale = entry.value.is_ok() && now < entry.keep_until(&config);
        if serve_stale {
            entry.last_used = tick;
            self.metrics.stale_hits += 1;
            CacheLookup::Stale(cached)
        } else {
            self.entries.remove(key);
            self.metrics.expirations += 1;
            self.metrics.misses += 1;
            CacheLookup::Miss
        }
    }

    /// Inspects the entry for `key` without touching LRU state or counters
    /// (diagnostics and tests).
    pub fn peek(&self, key: &PoolKey) -> Option<CachedPool> {
        self.entries.get(key).map(|entry| CachedPool {
            value: entry.value.clone(),
            generated_at: entry.generated_at,
            expires_at: entry.expires_at,
        })
    }

    /// Probes every entry at instant `now`, without touching LRU state or
    /// counters.
    ///
    /// The result is sorted by key (domain, then family) so that a probe of
    /// the same cache state is byte-identical across processes — the map
    /// iterates in a process-random order. This is the invariant surface
    /// chaos campaigns monitor after every step.
    // sdoh-lint: allow(hot-path-purity, "probe is the chaos-monitor surface, never the serving path")
    pub fn probe(&self, now: SimInstant) -> Vec<CacheEntryProbe> {
        let config = self.config;
        let mut probes: Vec<CacheEntryProbe> = self
            .entries
            .iter()
            .map(|(key, entry)| {
                let state = if now < entry.expires_at {
                    EntryState::Fresh
                } else if entry.value.is_ok() && now < entry.keep_until(&config) {
                    EntryState::Stale
                } else {
                    EntryState::Dead
                };
                CacheEntryProbe {
                    key: key.clone(),
                    negative: entry.value.is_err(),
                    age: now.saturating_duration_since(entry.generated_at),
                    remaining: Ttl::from_duration(entry.expires_at.saturating_duration_since(now)),
                    state,
                }
            })
            .collect();
        probes.sort_by_key(|p| p.key.to_string());
        probes
    }

    /// Stores a generation outcome for `key` produced at `now`. Successful
    /// generations live for the configured TTL, failures for the negative
    /// TTL; a zero lifetime skips insertion entirely.
    pub fn insert(
        &mut self,
        key: PoolKey,
        value: Result<GenerationReport, String>,
        now: SimInstant,
    ) {
        let lifetime = match value {
            Ok(_) => self.config.ttl,
            Err(_) => self.config.negative_ttl,
        };
        if lifetime.is_zero() {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            self.evict_one(now);
        }
        self.entries.insert(
            key,
            Entry {
                value,
                generated_at: now,
                expires_at: now.saturating_add(lifetime.as_duration()),
                last_used: tick,
            },
        );
        self.metrics.insertions += 1;
    }

    /// Evicts one entry, preferring an entry already past any use over the
    /// least recently used one.
    fn evict_one(&mut self, now: SimInstant) {
        let config = self.config;
        let mut lru: Option<(u64, &PoolKey)> = None;
        let mut victim = None;
        for (key, entry) in &self.entries {
            if now >= entry.keep_until(&config) {
                victim = Some(key);
                break;
            }
            if lru.is_none_or(|(t, _)| entry.last_used < t) {
                lru = Some((entry.last_used, key));
            }
        }
        if let Some(key) = victim.or(lru.map(|(_, key)| key)).cloned() {
            self.entries.remove(&key);
            self.metrics.evictions += 1;
        }
    }

    /// Adopts a new config epoch's knobs **in place**: TTL, stale window,
    /// negative TTL and capacity change for every subsequent operation
    /// while each cached entry keeps the expiry it was stamped with at
    /// insert (stale serving of old entries is additionally capped by the
    /// new `ttl + stale_window` horizon — see `Entry::keep_until`).
    ///
    /// When the capacity shrank, surplus entries are evicted immediately,
    /// dead entries first.
    pub fn apply_config(&mut self, config: CacheConfig, now: SimInstant) {
        self.capacity = config.capacity.max(1);
        self.config = config;
        while self.entries.len() > self.capacity {
            self.evict_one(now);
        }
    }

    /// Removes and returns every entry whose key matches `predicate`,
    /// with its generation/expiry stamps intact — the extraction half of
    /// a shard-rescale cache handoff. Results are sorted by key so a
    /// handoff is deterministic across processes. Touches neither LRU
    /// state nor the lookup counters.
    // sdoh-lint: allow(hot-path-purity, "rescale handoff runs on the control plane, not per query")
    pub fn extract_matching(
        &mut self,
        mut predicate: impl FnMut(&PoolKey) -> bool,
    ) -> Vec<(PoolKey, CachedPool)> {
        let mut extracted: Vec<(PoolKey, CachedPool)> = self
            .entries
            .extract_if(|key, _| predicate(key))
            .map(|(key, entry)| {
                let cached = CachedPool {
                    value: entry.value,
                    generated_at: entry.generated_at,
                    expires_at: entry.expires_at,
                };
                (key, cached)
            })
            .collect();
        extracted.sort_by_key(|(key, _)| key.to_string());
        extracted
    }

    /// Installs an entry extracted from another cache, **preserving** its
    /// original generation and expiry stamps — the receiving half of a
    /// shard-rescale handoff. Returns `false` (dropping the entry) when
    /// it is already past every serving window at `now`, or when an
    /// existing entry for the key is at least as fresh — so a key is
    /// never owned by two entries and a handoff never clobbers a newer
    /// generation. The capacity bound is enforced exactly as on insert.
    pub fn install(&mut self, key: PoolKey, cached: CachedPool, now: SimInstant) -> bool {
        self.tick += 1;
        let entry = Entry {
            value: cached.value,
            generated_at: cached.generated_at,
            expires_at: cached.expires_at,
            last_used: self.tick,
        };
        if now >= entry.keep_until(&self.config) {
            return false;
        }
        match self.entries.get(&key) {
            Some(existing) if existing.expires_at >= entry.expires_at => return false,
            Some(_) => {}
            None if self.entries.len() >= self.capacity => self.evict_one(now),
            None => {}
        }
        self.entries.insert(key, entry);
        self.metrics.insertions += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CombinationMode;
    use crate::pool::AddressPool;

    fn key(domain: &str) -> PoolKey {
        PoolKey::new(domain.parse().unwrap(), AddressFamily::V4)
    }

    fn report(last: u8) -> GenerationReport {
        let mut pool = AddressPool::new();
        pool.push(format!("203.0.113.{last}").parse().unwrap(), "r1");
        GenerationReport {
            pool,
            mode: CombinationMode::TruncateAndCombine,
            sources: vec![("r1".into(), crate::generator::SourceOutcome::Answered(1))],
            truncate_lengths: vec![("A".into(), 1)],
        }
    }

    fn at(secs: u64) -> SimInstant {
        SimInstant::from_nanos(secs * 1_000_000_000)
    }

    fn test_config() -> CacheConfig {
        CacheConfig::default()
            .with_ttl(Ttl::from_secs(60))
            .with_stale_window(Duration::from_secs(30))
            .with_negative_ttl(Ttl::from_secs(5))
    }

    #[test]
    fn fresh_then_stale_then_miss() {
        let mut cache = PoolCache::new(test_config());
        cache.insert(key("pool.ntp.org"), Ok(report(1)), at(0));

        match cache.get(&key("pool.ntp.org"), at(59)) {
            CacheLookup::Fresh(hit) => {
                assert_eq!(hit.value.as_ref().unwrap().pool.len(), 1);
                assert_eq!(hit.remaining(at(59)), Ttl::from_secs(1));
            }
            other => panic!("expected fresh, got {other:?}"),
        }
        match cache.get(&key("pool.ntp.org"), at(75)) {
            CacheLookup::Stale(hit) => {
                assert_eq!(hit.generated_at, at(0));
                assert_eq!(hit.remaining(at(75)), Ttl::ZERO);
            }
            other => panic!("expected stale, got {other:?}"),
        }
        assert!(cache.get(&key("pool.ntp.org"), at(91)).is_miss());
        assert!(cache.is_empty(), "expired entry was dropped");
        let metrics = cache.metrics();
        assert_eq!(metrics.hits, 1);
        assert_eq!(metrics.stale_hits, 1);
        assert_eq!(metrics.misses, 1);
        assert_eq!(metrics.expirations, 1);
    }

    #[test]
    fn probe_reports_age_state_and_sorted_keys() {
        let mut cache = PoolCache::new(test_config());
        cache.insert(key("b.pool.test"), Ok(report(1)), at(0));
        cache.insert(key("a.pool.test"), Ok(report(2)), at(10));
        cache.insert(key("c.pool.test"), Err("fan-out failed".into()), at(70));

        // At t=74 (ttl 60, stale window 30): "a" (generated at 10) and "b"
        // (generated at 0) are past their TTL but inside the stale window;
        // the negative "c" still has a second of its 5 s negative TTL left.
        let before = cache.metrics();
        let probes = cache.probe(at(74));
        assert_eq!(probes.len(), 3);
        let names: Vec<String> = probes.iter().map(|p| p.key.to_string()).collect();
        assert_eq!(
            names,
            vec!["a.pool.test./A", "b.pool.test./A", "c.pool.test./A"],
            "probes are sorted by key for cross-process determinism"
        );
        assert_eq!(probes[0].state, EntryState::Stale);
        assert_eq!(probes[0].age, Duration::from_secs(64));
        assert_eq!(probes[0].remaining, Ttl::ZERO);
        assert!(!probes[0].negative);
        assert_eq!(probes[1].state, EntryState::Stale);
        assert_eq!(probes[1].age, Duration::from_secs(74));
        assert_eq!(probes[2].state, EntryState::Fresh);
        assert!(probes[2].negative);
        assert_eq!(probes[2].remaining, Ttl::from_secs(1));

        // Past every window, everything is dead (negative entries have no
        // stale window).
        let probes = cache.probe(at(200));
        assert!(probes.iter().all(|p| p.state == EntryState::Dead));

        // Probing touches neither LRU state nor counters.
        assert_eq!(cache.metrics(), before);
    }

    #[test]
    fn negative_entries_have_no_stale_window() {
        let mut cache = PoolCache::new(test_config());
        cache.insert(key("dead.test"), Err("not enough responses".into()), at(0));
        match cache.get(&key("dead.test"), at(4)) {
            CacheLookup::Fresh(hit) => assert!(hit.value.is_err()),
            other => panic!("expected fresh negative, got {other:?}"),
        }
        // One second past the negative TTL: a miss, not a stale serve.
        assert!(cache.get(&key("dead.test"), at(6)).is_miss());
    }

    #[test]
    fn families_are_distinct_keys() {
        let mut cache = PoolCache::new(test_config());
        let v4 = PoolKey::new("dual.test".parse().unwrap(), AddressFamily::V4);
        let v6 = PoolKey::new("dual.test".parse().unwrap(), AddressFamily::V6);
        cache.insert(v4.clone(), Ok(report(1)), at(0));
        assert!(!cache.get(&v4, at(1)).is_miss());
        assert!(cache.get(&v6, at(1)).is_miss());
        assert_eq!(format!("{v4}"), "dual.test./A");
    }

    #[test]
    fn lru_eviction_keeps_the_recently_used_entry() {
        let config = test_config().with_capacity(2);
        let mut cache = PoolCache::new(config);
        cache.insert(key("a.test"), Ok(report(1)), at(0));
        cache.insert(key("b.test"), Ok(report(2)), at(1));
        // Touch `a` so `b` becomes the LRU victim.
        assert!(!cache.get(&key("a.test"), at(2)).is_miss());
        cache.insert(key("c.test"), Ok(report(3)), at(3));
        assert_eq!(cache.len(), 2);
        assert!(!cache.get(&key("a.test"), at(4)).is_miss());
        assert!(cache.get(&key("b.test"), at(4)).is_miss());
        assert_eq!(cache.metrics().evictions, 1);
    }

    #[test]
    fn eviction_prefers_dead_entries_over_lru() {
        let config = test_config().with_capacity(2);
        let mut cache = PoolCache::new(config);
        // `live` carries the oldest LRU stamp, but `old` (inserted at t=0)
        // is past TTL + stale window by t=120: eviction must pick the dead
        // entry over the least recently used one.
        cache.insert(key("live.test"), Ok(report(2)), at(100));
        cache.insert(key("old.test"), Ok(report(1)), at(0));
        cache.insert(key("new.test"), Ok(report(3)), at(120));
        assert!(cache.get(&key("old.test"), at(120)).is_miss());
        assert!(!cache.get(&key("live.test"), at(120)).is_miss());
        assert!(!cache.get(&key("new.test"), at(120)).is_miss());
        assert_eq!(cache.metrics().evictions, 1);
    }

    #[test]
    fn expired_negative_entries_are_preferred_eviction_victims() {
        // A negative entry has no stale window: once past its (short) TTL
        // it is unusable and must be evicted before any live entry, even
        // though the dead-check for positive entries uses TTL + stale.
        let config = test_config().with_capacity(2);
        let mut cache = PoolCache::new(config);
        cache.insert(key("dead.test"), Err("boom".into()), at(0)); // unusable after t=5
        cache.insert(key("live.test"), Ok(report(1)), at(6));
        cache.insert(key("new.test"), Ok(report(2)), at(6));
        assert!(!cache.get(&key("live.test"), at(7)).is_miss());
        assert!(!cache.get(&key("new.test"), at(7)).is_miss());
        assert!(cache.get(&key("dead.test"), at(7)).is_miss());
    }

    #[test]
    fn total_capacity_is_an_exact_bound() {
        let config = test_config().with_capacity(10);
        let mut cache = PoolCache::new(config);
        for i in 0..50 {
            cache.insert(key(&format!("host{i}.test")), Ok(report(1)), at(0));
            assert!(
                cache.len() <= 10,
                "{} entries after insert {i}",
                cache.len()
            );
        }
        assert_eq!(cache.len(), 10);
        assert_eq!(cache.metrics().evictions, 40);
    }

    #[test]
    fn every_slot_is_usable_before_the_first_eviction() {
        // Capacity is one bound over one map: 16 distinct keys fit in a
        // 16-entry cache whatever their hashes.
        let mut cache = PoolCache::new(CacheConfig::default().with_capacity(16));
        for i in 0..16 {
            cache.insert(key(&format!("host{i}.test")), Ok(report(1)), at(0));
        }
        assert_eq!(cache.metrics().evictions, 0);
        assert_eq!(cache.len(), 16);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut cache = PoolCache::new(test_config().with_capacity(0));
        cache.insert(key("a.test"), Ok(report(1)), at(0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_ttl_skips_insertion() {
        let mut cache = PoolCache::new(test_config().with_ttl(Ttl::ZERO));
        cache.insert(key("a.test"), Ok(report(1)), at(0));
        assert!(cache.is_empty());
        let mut cache = PoolCache::new(test_config().with_negative_ttl(Ttl::ZERO));
        cache.insert(key("a.test"), Err("boom".into()), at(0));
        assert!(cache.is_empty());
    }

    #[test]
    fn apply_config_retunes_knobs_without_touching_entries() {
        let mut cache = PoolCache::new(test_config());
        cache.insert(key("pool.ntp.org"), Ok(report(1)), at(0));
        let stamped = cache.peek(&key("pool.ntp.org")).unwrap().expires_at;

        // New epoch: longer stale window, same TTL. The entry keeps its
        // stamped expiry but the new stale window applies to it at once.
        cache.apply_config(
            test_config().with_stale_window(Duration::from_secs(90)),
            at(10),
        );
        assert_eq!(
            cache.peek(&key("pool.ntp.org")).unwrap().expires_at,
            stamped
        );
        match cache.get(&key("pool.ntp.org"), at(100)) {
            CacheLookup::Stale(_) => {}
            other => panic!("stale under the widened window, got {other:?}"),
        }
    }

    #[test]
    fn apply_config_shrinking_capacity_evicts_immediately() {
        let config = test_config().with_capacity(8);
        let mut cache = PoolCache::new(config);
        for i in 0..8 {
            cache.insert(key(&format!("host{i}.test")), Ok(report(1)), at(0));
        }
        cache.apply_config(test_config().with_capacity(3), at(1));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.metrics().evictions, 5);
        // And the new bound holds for subsequent inserts.
        cache.insert(key("extra.test"), Ok(report(2)), at(2));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn stale_serving_is_capped_by_the_new_horizon() {
        // Old epoch: ttl 60, stale 0. New epoch: ttl 1, stale 120. The
        // naive bound (stamped expiry + new stale) would allow serving an
        // old entry at age 180 — beyond BOTH epochs' ttl+stale horizons.
        // The horizon cap limits it to min(60, 1) + 120 = age 121.
        let mut cache = PoolCache::new(test_config().with_stale_window(Duration::ZERO));
        cache.insert(key("pool.ntp.org"), Ok(report(1)), at(0));
        cache.apply_config(
            test_config()
                .with_ttl(Ttl::from_secs(1))
                .with_stale_window(Duration::from_secs(120)),
            at(30),
        );
        match cache.get(&key("pool.ntp.org"), at(59)) {
            CacheLookup::Fresh(_) => {}
            other => panic!("still fresh by its stamp, got {other:?}"),
        }
        match cache.get(&key("pool.ntp.org"), at(100)) {
            CacheLookup::Stale(_) => {}
            other => panic!("within the capped window, got {other:?}"),
        }
        assert!(
            cache.get(&key("pool.ntp.org"), at(122)).is_miss(),
            "age 122 exceeds the max of the old (60) and new (121) horizons"
        );
    }

    #[test]
    fn extract_and_install_preserve_stamps() {
        let mut donor = PoolCache::new(test_config());
        donor.insert(key("a.test"), Ok(report(1)), at(5));
        donor.insert(key("b.test"), Ok(report(2)), at(10));
        donor.insert(key("dead.test"), Err("boom".into()), at(0));

        let moved = donor.extract_matching(|k| k.domain.to_string().starts_with('a'));
        assert_eq!(moved.len(), 1);
        assert_eq!(donor.len(), 2);

        let mut receiver = PoolCache::new(test_config());
        for (k, cached) in moved {
            assert!(receiver.install(k, cached, at(20)));
        }
        let adopted = receiver.peek(&key("a.test")).unwrap();
        assert_eq!(adopted.generated_at, at(5));
        assert_eq!(adopted.expires_at, at(65), "expiry stamp preserved");

        // Installing a dead entry is refused...
        let all = donor.extract_matching(|_| true);
        assert_eq!(all.len(), 2);
        assert!(donor.is_empty());
        let (dead_key, dead) = all
            .iter()
            .find(|(k, _)| k.domain.to_string().starts_with("dead"))
            .cloned()
            .unwrap();
        assert!(!receiver.install(dead_key.clone(), dead, at(20)));
        assert!(receiver.peek(&dead_key).is_none());

        // ...and so is clobbering an at-least-as-fresh existing entry.
        let stale_twin = CachedPool {
            value: Ok(report(9)),
            generated_at: at(0),
            expires_at: at(60),
        };
        assert!(!receiver.install(key("a.test"), stale_twin, at(20)));
        assert_eq!(receiver.peek(&key("a.test")).unwrap().expires_at, at(65));
    }

    #[test]
    fn validate_rejects_zero_structural_knobs() {
        assert_eq!(
            test_config().with_capacity(0).validate(),
            Err(ConfigError::Zero("capacity"))
        );
        assert_eq!(test_config().validate(), Ok(()));
    }

    #[test]
    fn for_question_maps_address_types_only() {
        let q = Question::new("pool.ntp.org".parse().unwrap(), RrType::A);
        assert_eq!(PoolKey::for_question(&q).unwrap().family, AddressFamily::V4);
        let q = Question::new("pool.ntp.org".parse().unwrap(), RrType::Aaaa);
        assert_eq!(PoolKey::for_question(&q).unwrap().family, AddressFamily::V6);
        let q = Question::new("pool.ntp.org".parse().unwrap(), RrType::Txt);
        assert!(PoolKey::for_question(&q).is_none());
        assert_eq!(AddressFamily::V4.rtype(), RrType::A);
        assert_eq!(AddressFamily::V6.rtype(), RrType::Aaaa);
    }
}
