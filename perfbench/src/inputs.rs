//! Rule sets and traffic, made from the workload seed.
//!
//! Rule sets are fixed (generated from [`RULE_SEED`]), so every seed
//! measures the same configuration; the traffic, the flows and the
//! sequence of live rule updates come from `--seed`.

use crate::reference::Matcher;
use dpi_packet::FlowKey;
use dpi_traffic::{TraceConfig, TraceKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of the fixed rule sets (the paper-scale Snort and ClamAV sets).
pub const RULE_SEED: u64 = 42;
/// The paper's Snort1/Snort2 split (§6.4).
pub const SNORT1: usize = 2500;
/// Full Snort-like exact-match set size.
pub const SNORT_ALL: usize = 4356;
/// Bench-default ClamAV-like signature count.
pub const CLAMAV: usize = 6000;
/// Regex rules on the L7 firewall.
pub const FW_RULES: usize = 64;
/// The L7 firewall's header stop: only the first bytes are inspected.
pub const FW_HEADER_LIMIT: u64 = 512;
/// Rule updates prepared per run; a run stops long before using them all.
pub const MAX_UPDATES: usize = 1024;

/// The Snort-like set split into the IDS half and the AV half.
pub fn snort_halves() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let all = dpi_traffic::snort_like(SNORT_ALL, RULE_SEED);
    dpi_traffic::split_set(&all, SNORT1, RULE_SEED)
}

/// The full Snort-like set.
pub fn snort_all() -> Vec<Vec<u8>> {
    dpi_traffic::snort_like(SNORT_ALL, RULE_SEED)
}

/// The ClamAV-like binary signature set.
pub fn clamav() -> Vec<Vec<u8>> {
    dpi_traffic::clamav_like(CLAMAV, RULE_SEED)
}

/// One firewall regex rule and the literals every match contains. The
/// literals occur in the traffic only inside planted instances.
#[derive(Clone, Debug)]
pub struct FwRule {
    pub source: String,
    pub a: Vec<u8>,
    pub b: Vec<u8>,
    shape: u8,
}

impl FwRule {
    /// A planted instance and the length of its shortest match (the
    /// earliest possible match end measured from the instance start).
    pub fn instance(&self, rng: &mut StdRng) -> (Vec<u8>, usize) {
        let mut v = self.a.clone();
        match self.shape {
            0 => {
                // A \s* B \d+ : the shortest match ends after one digit.
                let spaces = rng.gen_range(0..4);
                v.extend(std::iter::repeat_n(b' ', spaces));
                v.extend_from_slice(&self.b);
                let shortest = v.len() + 1;
                let digits = rng.gen_range(1..5);
                v.extend((0..digits).map(|_| rng.gen_range(b'0'..=b'9')));
                (v, shortest)
            }
            1 => {
                // A [a-z]{1,8} B
                let n = rng.gen_range(1..=8);
                v.extend((0..n).map(|_| rng.gen_range(b'a'..=b'z')));
                v.extend_from_slice(&self.b);
                let n = v.len();
                (v, n)
            }
            _ => {
                // A .* B end
                let n = rng.gen_range(0..12);
                v.extend((0..n).map(|_| rng.gen_range(b'a'..=b'z')));
                v.extend_from_slice(&self.b);
                v.extend_from_slice(b"end");
                let n = v.len();
                (v, n)
            }
        }
    }
}

/// The firewall's regex rules.
pub fn fw_rules() -> Vec<FwRule> {
    (0..FW_RULES)
        .map(|i| {
            let a = format!("XfwA{i:02}Qz").into_bytes();
            let b = format!("ZkB{i:02}Jwy").into_bytes();
            let (sa, sb) = (
                String::from_utf8_lossy(&a).to_string(),
                String::from_utf8_lossy(&b).to_string(),
            );
            let shape = (i % 3) as u8;
            let source = match shape {
                0 => format!(r"{sa}\s*{sb}\d+"),
                1 => format!(r"{sa}[a-z]{{1,8}}{sb}"),
                _ => format!(r"{sa}.*{sb}end"),
            };
            FwRule {
                source,
                a,
                b,
                shape,
            }
        })
        .collect()
}

/// Matcher over every firewall literal: rule `r`'s literals get ids
/// `2r` and `2r + 1`.
pub fn fw_literal_matcher(rules: &[FwRule]) -> Matcher {
    Matcher::new(rules.iter().enumerate().flat_map(|(r, rule)| {
        [
            ((2 * r) as u16, rule.a.clone()),
            ((2 * r + 1) as u16, rule.b.clone()),
        ]
    }))
}

/// One live rule update: remove a rule, add a new literal.
#[derive(Clone, Debug)]
pub struct Update {
    pub remove: u16,
    pub add_id: u16,
    pub add: Vec<u8>,
}

/// The update sequence for an IDS whose rules are numbered `0..count`.
/// `protect` lists rule ids that must never be removed.
pub fn updates(seed: u64, count: usize, protect: &[u16]) -> Vec<Update> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5550_4454); // "UPDT"
    let mut removed = std::collections::HashSet::new();
    (0..MAX_UPDATES)
        .map(|k| {
            let remove = loop {
                let r = rng.gen_range(0..count) as u16;
                if !protect.contains(&r) && removed.insert(r) {
                    break r;
                }
            };
            let mut add = format!("UpdLit{k:03}#").into_bytes();
            let extra = rng.gen_range(2..14);
            add.extend((0..extra).map(|_| rng.gen_range(0x21u8..=0x7e)));
            Update {
                remove,
                add_id: (count + k) as u16,
                add,
            }
        })
        .collect()
}

/// Filler payload of the given kind and a length in `lo..=hi`.
pub fn filler(rng: &mut StdRng, kind: TraceKind, lo: usize, hi: usize) -> Vec<u8> {
    TraceConfig {
        kind,
        packets: 1,
        min_payload: lo,
        max_payload: hi,
        match_density: 0.0,
        prefix_density: 0.0,
        seed: rng.gen(),
    }
    .generate(&[])
    .pop()
    .expect("one payload")
}

/// Writes `pat` at a random offset of `payload` (if it fits).
fn plant_at_random(rng: &mut StdRng, payload: &mut [u8], pat: &[u8]) {
    if pat.len() <= payload.len() {
        let off = rng.gen_range(0..=payload.len() - pat.len());
        payload[off..off + pat.len()].copy_from_slice(pat);
    }
}

/// Literal plants and near misses. `literal_rate` is the chance of one
/// whole planted literal; `prefixes` near-miss prefixes (4 bytes up to
/// one byte short of a whole pattern) are planted in every payload.
pub struct Plants<'a> {
    pub pools: Vec<(&'a [Vec<u8>], f64)>,
    pub prefix_pool: Vec<&'a [Vec<u8>]>,
    pub prefixes: usize,
}

impl Plants<'_> {
    pub fn apply(&self, rng: &mut StdRng, payload: &mut [u8]) {
        for _ in 0..self.prefixes {
            let pool = self.prefix_pool[rng.gen_range(0..self.prefix_pool.len())];
            let p = &pool[rng.gen_range(0..pool.len())];
            let take = rng.gen_range(4..p.len());
            plant_at_random(rng, payload, &p[..take]);
        }
        for (pool, rate) in &self.pools {
            if !pool.is_empty() && rng.gen_bool(*rate) {
                let p = &pool[rng.gen_range(0..pool.len())];
                plant_at_random(rng, payload, p);
            }
        }
    }

    /// A whole pattern from one of the pools, for a plant split across
    /// two packets of a flow.
    pub fn pick_split(&self, rng: &mut StdRng) -> Vec<u8> {
        let (pool, _) = self.pools[rng.gen_range(0..self.pools.len())];
        pool[rng.gen_range(0..pool.len())].clone()
    }
}

/// A deterministic pool of `n` distinct TCP flows.
pub fn flows(n: usize, seed: u64) -> Vec<FlowKey> {
    dpi_traffic::flow_pool(n, seed).flows().to_vec()
}

/// A flow key that is unique for every `n` (L7 sessions use one each).
pub fn unique_flow(n: u32) -> FlowKey {
    let b = n.to_be_bytes();
    dpi_packet::packet::flow(
        [11, b[1], b[2], b[3]],
        40_000 + (b[0] as u16),
        [10, 99, 0, 1],
        80,
        dpi_packet::ipv4::IpProtocol::Tcp,
    )
}

/// A service-chain packet and what the regex reference needs about it.
pub struct ChainPacket {
    pub flow: FlowKey,
    pub seq: u32,
    pub payload: Vec<u8>,
    /// (firewall rule, end of the planted instance's shortest match).
    pub regex: Option<(usize, usize)>,
}

/// Service-chain traffic: HTTP-like 200–1,400 B payloads over a fixed
/// flow pool, round-robin, with literal plants, near misses, literals
/// split across consecutive packets of a flow, and firewall regex plants.
pub struct ChainTraffic {
    rng: StdRng,
    flows: Vec<FlowKey>,
    seqs: Vec<u32>,
    owed: Vec<Vec<u8>>,
    next: usize,
}

/// Share of packets that carry one firewall regex instance.
const REGEX_RATE: f64 = 0.02;
/// Share of packets that end with the first part of a split literal.
const SPLIT_RATE: f64 = 0.01;

impl ChainTraffic {
    pub fn new(seed: u64, flow_count: usize) -> ChainTraffic {
        let flows = flows(flow_count, seed);
        ChainTraffic {
            rng: StdRng::seed_from_u64(seed ^ 0x4348_4149), // "CHAI"
            seqs: vec![0; flows.len()],
            owed: vec![Vec::new(); flows.len()],
            flows,
            next: 0,
        }
    }

    pub fn next(&mut self, plants: &Plants, fw: &[FwRule], fw_lits: &Matcher) -> ChainPacket {
        let fi = self.next % self.flows.len();
        self.next += 1;
        let owed = std::mem::take(&mut self.owed[fi]);
        loop {
            let mut payload = filler(&mut self.rng, TraceKind::Http, 200, 1400);
            plants.apply(&mut self.rng, &mut payload);
            let len = payload.len();
            payload[..owed.len()].copy_from_slice(&owed);
            let mut split_tail: Vec<u8> = Vec::new();
            let mut reserved_end = len;
            if self.rng.gen_bool(SPLIT_RATE) {
                let p = plants.pick_split(&mut self.rng);
                let cut = self.rng.gen_range(1..p.len());
                reserved_end = len - cut;
                payload[reserved_end..].copy_from_slice(&p[..cut]);
                split_tail = p[cut..].to_vec();
            }
            // The regex instance avoids the bytes owed to the previous
            // packet and the split literal at the end.
            let mut regex = None;
            let mut span = 0..0;
            if self.rng.gen_bool(REGEX_RATE) {
                let r = self.rng.gen_range(0..fw.len());
                let (inst, shortest) = fw[r].instance(&mut self.rng);
                let lo = owed.len();
                if reserved_end >= lo + inst.len() {
                    let off = self.rng.gen_range(lo..=reserved_end - inst.len());
                    payload[off..off + inst.len()].copy_from_slice(&inst);
                    regex = Some((r, off + shortest));
                    span = off..off + inst.len();
                }
            }
            // Firewall literals may occur only inside the planted
            // instance; anything else would make the regex reference
            // ambiguous, so such a payload is drawn again.
            let lits = fw_lits.hits(&[], &payload);
            let clean = lits.iter().all(|&(id, end)| {
                regex.is_some_and(|(r, _)| usize::from(id) / 2 == r)
                    && span.contains(&usize::from(end))
            }) && lits.len() == usize::from(regex.is_some()) * 2;
            if clean {
                self.owed[fi] = split_tail;
                let seq = self.seqs[fi];
                self.seqs[fi] = seq.wrapping_add(payload.len() as u32);
                return ChainPacket {
                    flow: self.flows[fi],
                    seq,
                    payload,
                    regex,
                };
            }
        }
    }
}
