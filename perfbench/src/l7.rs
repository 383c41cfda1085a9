//! `l7-sessions`: the default `L7Policy`, with `inspect_batch` over
//! interleaved, segmented sessions of the four `dpi_traffic::l7` kinds
//! (chunked+gzip HTTP POST, chunked HTTP, TLS ClientHello with the
//! pattern as SNI, masked WebSocket). Each session hides one registered
//! IDS pattern.
//!
//! A session passes when its hidden pattern is reported at least once
//! and every reported pattern occurs in the session's generator-side
//! decoded bytes or raw stream (substrings of the hidden pattern are
//! reported legitimately).

use crate::config::{Deployment, AV, IDS};
use crate::inputs;
use crate::layers::Probes;
use crate::spans::Spans;
use crate::workload::{self, Checked, Outcome, Pass, Tracing, Until, MIN_ROUNDS, SETUPS};
use dpi_packet::{FlowKey, MacAddr, Packet};
use dpi_service::SystemHandle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Distinct sessions generated per seed; rounds cycle through them.
const POOL: usize = 1024;
/// Sessions interleaved in one window; all of them end within it.
const WINDOW_SESSIONS: usize = 256;
/// Windows per round; each round ends with one live rule update.
const ROUND_WINDOWS: usize = 64;
/// Packets per `inspect_batch` call.
const BATCH: usize = 64;
/// One group of four consecutive sessions (one of each kind) in this
/// many goes through the layer probes, whole.
const PROBE_GROUPS: u64 = 8;
/// Largest segment a session is cut into.
const MAX_SEGMENT: usize = 512;
/// IDS rules that sessions may hide; updates never remove them.
const HIDDEN_RULES: u16 = 1024;
/// Packets of the traced pass that also go through `send`.
const SEND_PROBE: u64 = 2000;

struct Session {
    kind: &'static str,
    pattern_id: u16,
    flow: dpi_traffic::L7Flow,
    segments: Vec<(u32, Vec<u8>)>,
    /// The gzip body, for the gunzip probe.
    gzip: Option<Vec<u8>>,
}

pub struct L7Sessions {
    d: Deployment,
    seed: u64,
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    !needle.is_empty() && hay.windows(needle.len()).any(|w| w == needle)
}

impl L7Sessions {
    pub fn new(seed: u64) -> L7Sessions {
        L7Sessions {
            d: Deployment::l7_sessions(),
            seed,
        }
    }

    fn sessions(&self) -> Vec<Session> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x4c37_5353); // "L7SS"
        (0..POOL)
            .map(|j| {
                let pid = rng.gen_range(0..HIDDEN_RULES);
                let pat = &self.d.ids_patterns[usize::from(pid)];
                let s: u64 = rng.gen();
                let (kind, flow, gzip) = match j % 4 {
                    0 => {
                        let f = dpi_traffic::http1_chunked_gzip_request(s, pat);
                        let gz = dpi_core::gzip(&f.decoded);
                        ("http-gzip", f, Some(gz))
                    }
                    1 => (
                        "http-chunked",
                        dpi_traffic::http1_chunked_request(s, pat),
                        None,
                    ),
                    2 => {
                        let cap = rng.gen_range(48..256);
                        ("tls", dpi_traffic::tls_client_hello(s, pat, cap), None)
                    }
                    _ => ("websocket", dpi_traffic::websocket_session(s, pat), None),
                };
                let segments = dpi_traffic::segment_stream(s, &flow.stream, MAX_SEGMENT);
                Session {
                    kind,
                    pattern_id: pid,
                    flow,
                    segments,
                    gzip,
                }
            })
            .collect()
    }

    fn pass(
        &self,
        sys: &mut SystemHandle,
        pool: &[Session],
        until: Until,
        mut tr: Option<&mut Tracing>,
    ) -> Checked<Pass> {
        let protect: Vec<u16> = (0..HIDDEN_RULES).collect();
        let updates = inputs::updates(self.seed, self.d.ids_patterns.len(), &protect);
        let mut patterns: HashMap<(u16, u16), Vec<u8>> = HashMap::new();
        for (i, p) in self.d.ids_patterns.iter().enumerate() {
            patterns.insert((IDS.0, i as u16), p.clone());
        }
        for (i, p) in self.d.av_patterns.iter().enumerate() {
            patterns.insert((AV.0, i as u16), p.clone());
        }
        let mut pass = Pass::default();
        let mut w = Window {
            chain: sys.chain_ids[0],
            next_flow: 0,
            session: 0,
            packet: 0,
            batch: 0,
        };
        let started = Instant::now();
        while !until.done(started, pass.rounds) {
            for _ in 0..ROUND_WINDOWS {
                w.run(sys, pool, &patterns, &mut pass, tr.as_deref_mut())?;
            }
            // The round ends with a live rule update, between sessions.
            let u = &updates[pass.rounds as usize];
            if workload::live_update(sys, u, &mut pass, tr.as_deref_mut())? {
                patterns.remove(&(IDS.0, u.remove));
                patterns.insert((IDS.0, u.add_id), u.add.clone());
            }
            pass.end_round();
        }
        Ok(pass)
    }

    pub fn run(&self, seconds: f64, trace: bool) -> Checked<Outcome> {
        let pool = self.sessions();
        let (mut sys, setup_s) = self.d.build_timed(SETUPS);
        let untraced = self.pass(
            &mut sys,
            &pool,
            Until::Secs {
                secs: seconds,
                min_rounds: MIN_ROUNDS,
            },
            None,
        )?;
        if !trace {
            return Ok(Outcome {
                attempted: untraced.attempted,
                failed: untraced.failed,
                metrics: untraced.end_to_end(setup_s),
            });
        }
        drop(sys);
        let (mut sys, _) = self.d.build_timed(1);
        let mut t = Tracing {
            spans: Spans::default(),
            probes: Probes::new(&self.d, &sys),
        };
        let traced = self.pass(
            &mut sys,
            &pool,
            Until::Rounds(untraced.rounds),
            Some(&mut t),
        )?;
        t.probes
            .note_system(&sys, traced.sends, traced.deliveries, 0, 0);
        t.probes
            .finish(&mut t.spans, &untraced, &traced, "l7-sessions", self.seed)
    }
}

/// Where the session stream stands: the next session, flow, packet
/// and batch numbers.
struct Window {
    chain: u16,
    next_flow: u32,
    session: u64,
    packet: u64,
    batch: u64,
}

impl Window {
    /// One window: `WINDOW_SESSIONS` sessions from the pool, each on a
    /// fresh flow, their segments interleaved round-robin and batched;
    /// every session is checked when the window ends.
    fn run(
        &mut self,
        sys: &mut SystemHandle,
        pool: &[Session],
        patterns: &HashMap<(u16, u16), Vec<u8>>,
        pass: &mut Pass,
        mut tr: Option<&mut Tracing>,
    ) -> Checked<()> {
        let round: Vec<(&Session, FlowKey)> = (0..WINDOW_SESSIONS)
            .map(|k| {
                self.next_flow += 1;
                let j = (self.session as usize + k) % pool.len();
                (&pool[j], inputs::unique_flow(self.next_flow))
            })
            .collect();
        let mut order: Vec<(usize, usize)> = Vec::new();
        let longest = round
            .iter()
            .map(|(s, _)| s.segments.len())
            .max()
            .unwrap_or(0);
        for seg in 0..longest {
            for (k, (s, _)) in round.iter().enumerate() {
                if seg < s.segments.len() {
                    order.push((k, seg));
                }
            }
        }
        let mut reported: Vec<HashSet<(u16, u16)>> = vec![HashSet::new(); round.len()];
        let mut faulty = vec![false; round.len()];
        let slot: HashMap<FlowKey, usize> = round
            .iter()
            .enumerate()
            .map(|(k, (_, f))| (*f, k))
            .collect();
        for chunk in order.chunks(BATCH) {
            let mut batch: Vec<Packet> = chunk
                .iter()
                .map(|&(k, seg)| {
                    let (s, flow) = round[k];
                    let (seq, bytes) = &s.segments[seg];
                    let mut p = Packet::tcp(
                        MacAddr::local(1),
                        MacAddr::local(2),
                        flow,
                        *seq,
                        bytes.clone(),
                    );
                    p.push_chain_tag(self.chain)
                        .expect("fresh packet has tag room");
                    p
                })
                .collect();
            let bytes: u64 = chunk
                .iter()
                .map(|&(k, seg)| round[k].0.segments[seg].1.len() as u64)
                .sum();
            let (results, faulted) = workload::timed_inspect_batch(
                sys,
                &mut batch,
                self.batch,
                bytes,
                pass,
                tr.as_deref_mut(),
            );
            self.batch += 1;
            if faulted {
                for &(k, _) in chunk {
                    faulty[k] = true;
                }
            }
            for r in &results {
                let k = *slot.get(&r.flow).ok_or_else(|| {
                    format!(
                        "l7-sessions: result for flow {:?}, which is in no session of this window",
                        r.flow
                    )
                })?;
                for rep in &r.reports {
                    for rec in &rep.records {
                        reported[k].insert((rep.middlebox_id, rec.pattern_id()));
                    }
                }
            }
            if let Some(t) = tr.as_deref_mut() {
                for (pkt, &(k, _)) in batch.iter().zip(chunk) {
                    if !probed(self.session + k as u64) {
                        continue;
                    }
                    let flow = round[k].1;
                    let root = t.spans.root("packet", self.packet);
                    let seq = pkt.tcp_seq().expect("tcp packet");
                    let payload = pkt.payload().expect("payload");
                    if pass.sends < SEND_PROBE {
                        let deliveries = t
                            .spans
                            .child(root, "system.send", || sys.send(flow, seq, payload));
                        pass.deliveries += deliveries as u64;
                        pass.sends += 1;
                    }
                    t.probes.packet(
                        &mut t.spans,
                        root,
                        "l7-sessions",
                        self.packet,
                        flow,
                        seq,
                        payload,
                    )?;
                    t.spans.close(root);
                    self.packet += 1;
                }
            }
        }
        for (k, (s, flow)) in round.iter().enumerate() {
            let sid = self.session + k as u64;
            pass.attempted += 1;
            if faulty[k] {
                pass.failed += 1;
                continue;
            }
            if !reported[k].contains(&(IDS.0, s.pattern_id)) {
                return Err(format!(
                    "l7-sessions: session {sid} ({}, flow {flow:?}): middlebox {}: hidden pattern {} never reported; reported {:?}",
                    s.kind, IDS.0, s.pattern_id, reported[k]
                ));
            }
            for &(mb, pid) in &reported[k] {
                let ok = patterns
                    .get(&(mb, pid))
                    .is_some_and(|p| contains(&s.flow.decoded, p) || contains(&s.flow.stream, p));
                if !ok {
                    return Err(format!(
                        "l7-sessions: session {sid} ({}, flow {flow:?}): middlebox {mb}: reported pattern {pid}, which occurs in neither the decoded bytes nor the raw stream",
                        s.kind
                    ));
                }
            }
            if let (Some(t), Some(gz)) = (tr.as_deref_mut(), &s.gzip) {
                if probed(sid) {
                    let root = t.spans.root("session", (1 << 42) | sid);
                    t.probes.gunzip(&mut t.spans, root, gz);
                    t.spans.close(root);
                }
            }
        }
        self.session += WINDOW_SESSIONS as u64;
        Ok(())
    }
}

fn probed(session: u64) -> bool {
    (session / 4).is_multiple_of(PROBE_GROUPS)
}
