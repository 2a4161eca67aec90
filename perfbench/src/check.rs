//! The correctness gate applied to every legitimate answer.
//!
//! The first answer for a pool domain (and any answer that differs from
//! the stored one in more than its id and TTLs) is fully decoded and
//! checked: id, question, NOERROR, the expected record count, every
//! record an A record for the asked name, the exact address multiset the
//! honest fleet publishes, and a pool that passes `check_guarantee`
//! against the fleet's ground truth. Once an answer passed, it becomes the
//! domain's reference, and later answers are compared to it byte for byte
//! with the id and the answer TTLs masked — a memcmp, so the generator's
//! own CPU stays small.

use std::collections::BTreeMap;
use std::net::IpAddr;

use sdoh_core::{check_guarantee, AddressPool, GroundTruth};
use sdoh_dns_wire::{Message, Name, Rcode, RrClass, RrType};

/// Required benign fraction of the served pool (the paper's x = 1/2).
const REQUIRED_BENIGN: f64 = 0.5;

/// What a correct answer for any pool domain contains.
#[derive(Debug, Clone)]
pub struct Expect {
    pub truth: GroundTruth,
    /// Each published address and how many times the pool must hold it.
    pub multiset: BTreeMap<IpAddr, usize>,
    pub records: usize,
    pub max_ttl: u32,
}

impl Expect {
    pub fn new(truth: GroundTruth, published: &[IpAddr], resolvers: usize, max_ttl: u32) -> Self {
        let multiset = published.iter().map(|&a| (a, resolvers)).collect();
        Expect {
            truth,
            multiset,
            records: published.len() * resolvers,
            max_ttl,
        }
    }
}

#[derive(Debug, Clone)]
struct Reference {
    bytes: Vec<u8>,
    /// Offsets of the four TTL bytes of every answer record.
    ttl_offsets: Vec<usize>,
}

/// Outcome of checking one answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Equal to the stored reference outside id and TTLs.
    Same,
    /// Differed from the reference (or none was stored yet) and passed the
    /// full check; now the domain's reference.
    Refreshed,
    /// Failed the full check.
    Wrong(String),
}

impl Verdict {
    pub fn is_correct(&self) -> bool {
        !matches!(self, Verdict::Wrong(_))
    }
}

/// Per-domain references plus the expectation they are checked against.
#[derive(Debug, Clone)]
pub struct Checker {
    expect: Expect,
    domains: Vec<Name>,
    refs: Vec<Option<Reference>>,
}

impl Checker {
    pub fn new(expect: Expect, domains: Vec<Name>) -> Checker {
        let refs = vec![None; domains.len()];
        Checker {
            expect,
            domains,
            refs,
        }
    }

    /// Checks `wire` as the answer to query `id` for pool domain `domain`.
    pub fn check(&mut self, domain: usize, id: u16, wire: &[u8]) -> Verdict {
        if let Some(Some(reference)) = self.refs.get(domain) {
            if self.matches(reference, id, wire) {
                return Verdict::Same;
            }
        }
        match self.full_check(domain, id, wire) {
            Ok(reference) => {
                if let Some(slot) = self.refs.get_mut(domain) {
                    *slot = Some(reference);
                }
                Verdict::Refreshed
            }
            Err(why) => Verdict::Wrong(why),
        }
    }

    fn matches(&self, reference: &Reference, id: u16, wire: &[u8]) -> bool {
        if wire.len() != reference.bytes.len() || wire.get(..2) != Some(&id.to_be_bytes()[..]) {
            return false;
        }
        let mut from = 2;
        for &ttl_at in &reference.ttl_offsets {
            if wire.get(from..ttl_at) != reference.bytes.get(from..ttl_at) {
                return false;
            }
            let ttl = wire
                .get(ttl_at..ttl_at + 4)
                .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]));
            if ttl.is_none_or(|ttl| ttl > self.expect.max_ttl) {
                return false;
            }
            from = ttl_at + 4;
        }
        wire.get(from..) == reference.bytes.get(from..)
    }

    fn full_check(&self, domain: usize, id: u16, wire: &[u8]) -> Result<Reference, String> {
        let name = self
            .domains
            .get(domain)
            .ok_or_else(|| format!("unknown domain index {domain}"))?;
        let message = Message::decode(wire).map_err(|e| format!("undecodable answer: {e}"))?;
        if message.header.id != id {
            return Err(format!("id {} for query {id}", message.header.id));
        }
        if !message.header.response || message.header.truncated {
            return Err("not a complete response".into());
        }
        if message.header.rcode != Rcode::NoError {
            return Err(format!("rcode {:?}", message.header.rcode));
        }
        match message.question() {
            Some(q) if &q.name == name && q.rtype == RrType::A => {}
            other => return Err(format!("question {other:?} for {name}")),
        }
        if message.answers.len() != self.expect.records {
            return Err(format!(
                "{} answer records, expected {}",
                message.answers.len(),
                self.expect.records
            ));
        }
        let mut pool = AddressPool::new();
        let mut multiset: BTreeMap<IpAddr, usize> = BTreeMap::new();
        for record in &message.answers {
            if &record.name != name || record.rclass != RrClass::In {
                return Err(format!("foreign record owner {}", record.name));
            }
            if record.ttl > self.expect.max_ttl {
                return Err(format!("ttl {} above {}", record.ttl, self.expect.max_ttl));
            }
            let addr = record
                .ip_addr()
                .filter(IpAddr::is_ipv4)
                .ok_or("non-A answer record")?;
            pool.push(addr, "served");
            *multiset.entry(addr).or_default() += 1;
        }
        if multiset != self.expect.multiset {
            return Err("served addresses differ from the published pool".into());
        }
        if !check_guarantee(&pool, &self.expect.truth, REQUIRED_BENIGN).holds {
            return Err("pool violates the benign-fraction guarantee".into());
        }
        let ttl_offsets = answer_ttl_offsets(wire).ok_or("answer records could not be walked")?;
        Ok(Reference {
            bytes: wire.to_vec(),
            ttl_offsets,
        })
    }
}

/// Offsets of the TTL field of every answer-section record.
fn answer_ttl_offsets(wire: &[u8]) -> Option<Vec<usize>> {
    let count = |at: usize| {
        Some(usize::from(u16::from_be_bytes([
            *wire.get(at)?,
            *wire.get(at + 1)?,
        ])))
    };
    let (questions, answers) = (count(4)?, count(6)?);
    let mut at = 12;
    for _ in 0..questions {
        at = skip_name(wire, at)? + 4;
    }
    let mut offsets = Vec::with_capacity(answers);
    for _ in 0..answers {
        at = skip_name(wire, at)? + 4;
        offsets.push(at);
        let rdlen = count(at + 4)?;
        at += 6 + rdlen;
    }
    (at <= wire.len()).then_some(offsets)
}

fn skip_name(wire: &[u8], mut at: usize) -> Option<usize> {
    loop {
        let len = *wire.get(at)?;
        match len {
            0 => return Some(at + 1),
            l if l & 0xC0 == 0xC0 => return Some(at + 2),
            l => at += 1 + usize::from(l),
        }
    }
}

/// Shows the gate rejects what it must: a corrupted address, a wrong pool,
/// a wrong id and a cut-short answer, given one correct answer `good` for
/// `domain`. Returns the first case the checker wrongly accepted.
pub fn self_test(
    checker: &Checker,
    domain: usize,
    id: u16,
    good: &[u8],
    attacker: &[IpAddr],
) -> Result<(), String> {
    let mut fresh = checker.clone();
    if !fresh.check(domain, id, good).is_correct() {
        return Err("the reference answer itself fails the check".into());
    }
    let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();
    let mut corrupted = good.to_vec();
    if let Some(last) = corrupted.last_mut() {
        *last ^= 0x01;
    }
    cases.push(("corrupted address", corrupted));
    let mut wrong_id = good.to_vec();
    wrong_id[0] ^= 0xFF;
    cases.push(("wrong id", wrong_id));
    cases.push(("cut short", good[..good.len() - 3].to_vec()));
    let mut answer = Message::decode(good).map_err(|e| e.to_string())?;
    for (record, addr) in answer.answers.iter_mut().zip(attacker.iter().cycle()) {
        record.rdata = sdoh_dns_wire::Record::address(record.name.clone(), record.ttl, *addr).rdata;
    }
    cases.push(("attacker pool", answer.encode().map_err(|e| e.to_string())?));
    for (what, wire) in cases {
        // Both with the good reference stored and without one.
        for mut gate in [fresh.clone(), checker.clone()] {
            if gate.check(domain, id, &wire).is_correct() {
                return Err(format!("the gate accepted a {what} answer"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdoh_dns_wire::MessageBuilder;

    fn published() -> Vec<IpAddr> {
        (1..=4).map(|i| IpAddr::from([203, 0, 113, i])).collect()
    }

    fn attacker() -> Vec<IpAddr> {
        (1..=4).map(|i| IpAddr::from([198, 18, 0, i])).collect()
    }

    fn answer(id: u16, name: &Name, addrs: &[IpAddr]) -> Vec<u8> {
        let query = Message::query(id, name.clone(), RrType::A);
        let mut builder = MessageBuilder::response_to(&query);
        for _ in 0..3 {
            for &addr in addrs {
                builder = builder.answer_address(60, addr);
            }
        }
        builder.build().encode().unwrap()
    }

    fn checker(name: &Name) -> Checker {
        let expect = Expect::new(GroundTruth::with_malicious(attacker()), &published(), 3, 60);
        Checker::new(expect, vec![name.clone()])
    }

    #[test]
    fn accepts_equal_answers_by_memcmp_after_one_full_check() {
        let name: Name = "pool.ntpns.org".parse().unwrap();
        let mut gate = checker(&name);
        assert_eq!(
            gate.check(0, 7, &answer(7, &name, &published())),
            Verdict::Refreshed
        );
        assert_eq!(
            gate.check(0, 8, &answer(8, &name, &published())),
            Verdict::Same
        );
        // A lower TTL is still the same answer.
        let query = Message::query(9, name.clone(), RrType::A);
        let mut builder = MessageBuilder::response_to(&query);
        for _ in 0..3 {
            for &addr in &published() {
                builder = builder.answer_address(12, addr);
            }
        }
        assert_eq!(
            gate.check(0, 9, &builder.build().encode().unwrap()),
            Verdict::Same
        );
    }

    #[test]
    fn self_test_rejects_corrupted_and_wrong_pool_answers() {
        let name: Name = "pool.ntpns.org".parse().unwrap();
        let gate = checker(&name);
        self_test(&gate, 0, 0, &answer(0, &name, &published()), &attacker()).unwrap();
        let mut gate = checker(&name);
        let short_pool = &published()[..3];
        assert!(!gate.check(0, 1, &answer(1, &name, short_pool)).is_correct());
        assert!(!gate
            .check(0, 1, &answer(1, &name, &attacker()))
            .is_correct());
        let other: Name = "pool2.ntpns.org".parse().unwrap();
        assert!(!gate
            .check(0, 1, &answer(1, &other, &published()))
            .is_correct());
    }
}
