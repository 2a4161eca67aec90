//! The benchmark's workloads and the seeded query streams they send.
//!
//! A workload fixes the fleet (pool domains × addresses, cache TTL), the
//! share of attack names and the two offered rates; legitimate names are
//! drawn uniformly. The seed only drives which name each scheduled query
//! carries; the runtime sees nothing but the generated datagrams.

use sdoh_dns_wire::{Message, Name, RrType};

/// Runtime shards: fixed, so every workload measures the same front door.
pub const SHARDS: usize = 2;
/// DoH resolvers in the loopback fleet (all honest).
pub const RESOLVERS: usize = 3;
/// The fleet's zone apex; attack names are drawn beneath it.
pub const ZONE: &str = "ntpns.org";

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub pool_domains: usize,
    pub addresses_per_domain: usize,
    /// Cache TTL of a generated pool, in seconds.
    pub ttl_secs: u32,
    /// Attack queries sent per legitimate query.
    pub attack_share: f64,
    /// Legitimate queries per second at the steady rate: a tenth of the
    /// host's capacity, so a neighbour stealing a quarter of the vCPU time
    /// slows answers without piling them into a backlog.
    pub steady_qps: f64,
    /// Legitimate queries per second at the overload rate.
    pub overload_qps: f64,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let warm_hits = Workload {
            name: "warm_hits",
            pool_domains: 16,
            addresses_per_domain: 16,
            ttl_secs: 3600,
            attack_share: 0.0,
            steady_qps: 2000.0,
            overload_qps: 20000.0,
        };
        match name {
            "warm_hits" => Some(warm_hits),
            "nx_flood" => Some(Workload {
                name: "nx_flood",
                attack_share: 0.02,
                ..warm_hits
            }),
            _ => None,
        }
    }

    /// Records in a correct answer: Algorithm 1 truncates the honest
    /// resolvers' equal-length lists to the same length and concatenates
    /// them.
    pub fn answer_records(&self) -> usize {
        RESOLVERS * self.addresses_per_domain
    }
}

/// SplitMix64: a small seeded generator, so the same seed gives the same
/// query stream on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One scheduled query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    /// A query for pool domain `index`.
    Legit(u32),
    /// A query for never-published attack name `index`.
    Attack(u32),
}

/// The queries of one phase, in send order, plus the attack names they
/// reference (as ready-made query templates).
#[derive(Debug)]
pub struct Stream {
    pub items: Vec<Item>,
    pub attack_templates: Vec<Vec<u8>>,
}

/// Draws the query stream of one phase: `legit` legitimate queries, each
/// for a uniformly drawn pool domain, with `legit × attack_share` attack
/// queries spread evenly among them.
pub fn stream(workload: &Workload, legit: usize, rng: &mut Rng) -> Stream {
    let attacks = (legit as f64 * workload.attack_share).round() as usize;
    let total = legit + attacks;
    let mut items = Vec::with_capacity(total);
    let mut attack_templates = Vec::with_capacity(attacks);
    let mut placed_attacks = 0usize;
    for n in 0..total {
        // Bresenham spacing keeps the attack share even over the phase.
        let due_attacks = ((n + 1) * attacks) / total.max(1);
        if due_attacks > placed_attacks {
            placed_attacks += 1;
            items.push(Item::Attack(attack_templates.len() as u32));
            attack_templates.push(attack_query(rng));
        } else {
            let domain = (rng.unit() * workload.pool_domains as f64) as u32;
            items.push(Item::Legit(domain));
        }
    }
    Stream {
        items,
        attack_templates,
    }
}

/// A query for a random name under the zone that no resolver publishes.
fn attack_query(rng: &mut Rng) -> Vec<u8> {
    let label = format!("nx{:016x}.{ZONE}", rng.next_u64());
    let name: Name = label.parse().expect("generated attack names are valid");
    Message::query(0, name, RrType::A)
        .encode()
        .expect("a one-question query encodes")
}

/// Query templates for every pool domain (id 0; the sender patches it).
pub fn legit_templates(domains: &[Name]) -> Vec<Vec<u8>> {
    domains
        .iter()
        .map(|domain| {
            Message::query(0, domain.clone(), RrType::A)
                .encode()
                .expect("a one-question query encodes")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_keep_the_attack_share() {
        let workload = Workload::by_name("nx_flood").unwrap();
        let a = stream(&workload, 2000, &mut Rng::new(7));
        let b = stream(&workload, 2000, &mut Rng::new(7));
        let c = stream(&workload, 2000, &mut Rng::new(8));
        assert_eq!(a.items, b.items);
        assert_eq!(a.attack_templates, b.attack_templates);
        assert_ne!(a.items, c.items);
        let attacks = a
            .items
            .iter()
            .filter(|i| matches!(i, Item::Attack(_)))
            .count();
        assert_eq!(attacks, 40);
        assert_eq!(a.items.len() - attacks, 2000);
    }
}
