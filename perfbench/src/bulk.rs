//! `bulk-small-packets` and `bulk-large-packets`: `inspect_batch` on the
//! 1-worker pipeline.
//!
//! Small packets (64–256 B HTTP-like, 40,000 flows) make the per-packet
//! work outside the automaton dominate; large packets (1,200–1,460 B
//! half-binary, 256 flows, dense in pattern prefixes, against the full
//! Snort-like set and 6,000 ClamAV-like signatures) make the kernel do
//! nearly all of it.
//!
//! The payloads come from a pool: packet `i` carries pool entry `i % P`
//! on flow `i % F`, with `P` a multiple of `F`, so each flow cycles
//! through the same payloads. What the reference predicts for a packet
//! then depends only on its pool entry and whether its flow's stream has
//! earlier bytes, and is computed once per entry.

use crate::config::{Deployment, AV, IDS};
use crate::inputs::{self, Plants};
use crate::layers::Probes;
use crate::reference::{self, Hit, Matcher};
use crate::spans::Spans;
use crate::workload::{self, Checked, Outcome, Pass, Tracing, Until, MIN_ROUNDS, SETUPS};
use dpi_packet::{FlowKey, MacAddr, Packet};
use dpi_service::SystemHandle;
use dpi_traffic::TraceKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Packets of the traced pass that also go through `send`.
const SEND_PROBE: u64 = 2000;

pub struct Bulk {
    name: &'static str,
    d: Deployment,
    seed: u64,
    flows: usize,
    pool: usize,
    sizes: (usize, usize),
    kind: TraceKind,
    prefixes: usize,
    /// Packets per `inspect_batch` call.
    batch: usize,
    round_batches: u64,
    probe_stride: usize,
}

struct Inputs {
    flows: Vec<FlowKey>,
    payloads: Vec<Vec<u8>>,
    updates: Vec<inputs::Update>,
}

impl Bulk {
    pub fn small(seed: u64) -> Bulk {
        Bulk {
            name: "bulk-small-packets",
            d: Deployment::bulk_small(),
            seed,
            flows: 40_000,
            pool: 80_000,
            sizes: (64, 256),
            kind: TraceKind::Http,
            prefixes: 2,
            batch: 256,
            round_batches: 1200,
            probe_stride: 32,
        }
    }

    pub fn large(seed: u64) -> Bulk {
        Bulk {
            name: "bulk-large-packets",
            d: Deployment::bulk_large(),
            seed,
            flows: 256,
            pool: 4096,
            sizes: (1200, 1460),
            kind: TraceKind::Campus,
            prefixes: 8,
            batch: 64,
            round_batches: 500,
            probe_stride: 8,
        }
    }

    fn inputs(&self) -> Inputs {
        let d = &self.d;
        let updates = inputs::updates(self.seed, d.ids_patterns.len(), &[]);
        let new_literals: Vec<Vec<u8>> = updates.iter().map(|u| u.add.clone()).collect();
        let plants = Plants {
            pools: vec![
                (&d.ids_patterns, 0.03),
                (&d.av_patterns, 0.02),
                (&new_literals, 0.005),
            ],
            prefix_pool: vec![&d.ids_patterns, &d.av_patterns],
            prefixes: self.prefixes,
        };
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x4255_4c4b); // "BULK"
        let (lo, hi) = self.sizes;
        let mut payloads: Vec<Vec<u8>> = (0..self.pool)
            .map(|_| {
                let mut p = inputs::filler(&mut rng, self.kind, lo, hi);
                plants.apply(&mut rng, &mut p);
                p
            })
            .collect();
        // Literals split across consecutive packets of one flow: entry
        // `j` and entry `j + F` travel on the same flow, one after the
        // other.
        for j in 0..self.pool {
            if rng.gen_bool(0.01) {
                let p = plants.pick_split(&mut rng);
                let cut = rng.gen_range(1..p.len());
                let a = &mut payloads[j];
                let n = a.len();
                a[n - cut..].copy_from_slice(&p[..cut]);
                let b = &mut payloads[(j + self.flows) % self.pool];
                b[..p.len() - cut].copy_from_slice(&p[cut..]);
            }
        }
        Inputs {
            flows: inputs::flows(self.flows, self.seed),
            payloads,
            updates,
        }
    }

    fn pass(
        &self,
        sys: &mut SystemHandle,
        inp: &Inputs,
        until: Until,
        mut tr: Option<&mut Tracing>,
    ) -> Checked<Pass> {
        let d = &self.d;
        let chain = sys.chain_ids[0];
        let (p_len, f_len) = (inp.payloads.len(), inp.flows.len());
        let mut live: Vec<(u16, Vec<u8>)> = d
            .ids_patterns
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u16, p.clone()))
            .collect();
        let mut ids_m = Matcher::new(live.clone());
        let av_m = Matcher::new(
            d.av_patterns
                .iter()
                .enumerate()
                .map(|(i, p)| (i as u16, p.clone())),
        );
        // Memo of (IDS hits, AV hits) per (pool entry, stream has earlier bytes).
        let mut memo: Vec<Option<(Vec<Hit>, Vec<Hit>)>> = vec![None; 2 * p_len];
        let mut has_prev = vec![false; f_len];
        let mut seqs = vec![0u32; f_len];

        let mut pass = Pass::default();
        let mut i = 0u64;
        let mut b = 0u64;
        let started = Instant::now();
        loop {
            if b.is_multiple_of(self.round_batches) && b > 0 {
                let u = &inp.updates[pass.rounds as usize];
                if workload::live_update(sys, u, &mut pass, tr.as_deref_mut())? {
                    live.retain(|(id, _)| *id != u.remove);
                    live.push((u.add_id, u.add.clone()));
                    ids_m = Matcher::new(live.clone());
                    memo.iter_mut().for_each(|m| *m = None);
                    has_prev.iter_mut().for_each(|h| *h = false);
                }
                pass.end_round();
            }
            if b.is_multiple_of(self.round_batches) && until.done(started, pass.rounds) {
                break;
            }
            // Build the batch and what the reference predicts for it.
            let first = i;
            let mut batch = Vec::with_capacity(self.batch);
            let mut want: Vec<(usize, usize)> = Vec::with_capacity(self.batch);
            let mut bytes = 0u64;
            for _ in 0..self.batch {
                let (j, f) = ((i as usize) % p_len, (i as usize) % f_len);
                let key = 2 * j + usize::from(has_prev[f]);
                if memo[key].is_none() {
                    let ctx: &[u8] = if has_prev[f] {
                        let prev = &inp.payloads[(j + p_len - f_len) % p_len];
                        let keep = ids_m.max_len().saturating_sub(1).min(prev.len());
                        &prev[prev.len() - keep..]
                    } else {
                        &[]
                    };
                    let pl = &inp.payloads[j];
                    memo[key] = Some((ids_m.hits(ctx, pl), av_m.hits(&[], pl)));
                }
                has_prev[f] = true;
                let payload = &inp.payloads[j];
                let mut p = Packet::tcp(
                    MacAddr::local(1),
                    MacAddr::local(2),
                    inp.flows[f],
                    seqs[f],
                    payload.clone(),
                );
                p.push_chain_tag(chain).expect("fresh packet has tag room");
                seqs[f] = seqs[f].wrapping_add(payload.len() as u32);
                bytes += payload.len() as u64;
                batch.push(p);
                want.push((key, f));
                i += 1;
            }
            let (results, faulted) = workload::timed_inspect_batch(
                sys,
                &mut batch,
                b,
                bytes,
                &mut pass,
                tr.as_deref_mut(),
            );
            pass.attempted += 1;
            if faulted {
                pass.failed += 1;
            }
            // Results come in batch order, one per matched (marked)
            // packet; an unmarked packet reported nothing.
            let mut next = results.iter();
            for (k, (pkt, &(key, f))) in batch.iter().zip(&want).enumerate() {
                let n = first + k as u64;
                let flow = inp.flows[f];
                let (ids_w, av_w) = memo[key].as_ref().expect("computed above");
                let r = if pkt.has_match_mark() {
                    let r = next.next().ok_or_else(|| {
                        format!(
                            "{}: packet {n} (flow {flow:?}): marked but no result packet",
                            self.name
                        )
                    })?;
                    if r.flow != flow {
                        return Err(format!(
                            "{}: packet {n}: result carries flow {:?}, packet flow {flow:?}",
                            self.name, r.flow
                        ));
                    }
                    Some(r)
                } else {
                    None
                };
                for (mb, w) in [(IDS, ids_w), (AV, av_w)] {
                    let got = r
                        .and_then(|r| r.report_for(mb.0))
                        .map(|x| reference::expand(&x.records))
                        .unwrap_or_default();
                    if let Some(why) = reference::diff(w, &got) {
                        return Err(format!(
                            "{}: packet {n} (flow {flow:?}): middlebox {}: {why}",
                            self.name, mb.0
                        ));
                    }
                }
                if r.is_some_and(|r| r.reports.is_empty()) {
                    return Err(format!(
                        "{}: packet {n}: result packet without reports",
                        self.name
                    ));
                }
            }
            if next.next().is_some() {
                return Err(format!(
                    "{}: batch {b}: more result packets than matched packets",
                    self.name
                ));
            }
            if let Some(t) = tr.as_deref_mut() {
                // The packets of every `probe_stride`-th flow go through
                // the layer probes: whole flows, so stream state matches.
                for (k, (pkt, &(_, f))) in batch.iter().zip(&want).enumerate() {
                    if f % self.probe_stride != 0 {
                        continue;
                    }
                    let n = first + k as u64;
                    let seq = pkt.tcp_seq().expect("tcp packet");
                    let payload = pkt.payload().expect("payload");
                    let root = t.spans.root("packet", n);
                    if pass.sends < SEND_PROBE {
                        let deliveries = t
                            .spans
                            .child(root, "system.send", || sys.send(inp.flows[f], seq, payload));
                        pass.deliveries += deliveries as u64;
                        pass.sends += 1;
                    }
                    t.probes.packet(
                        &mut t.spans,
                        root,
                        self.name,
                        n,
                        inp.flows[f],
                        seq,
                        payload,
                    )?;
                    t.spans.close(root);
                }
            }
            b += 1;
        }
        Ok(pass)
    }

    pub fn run(&self, seconds: f64, trace: bool) -> Checked<Outcome> {
        let inp = self.inputs();
        let (mut sys, setup_s) = self.d.build_timed(SETUPS);
        let untraced = self.pass(
            &mut sys,
            &inp,
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
        let traced = self.pass(&mut sys, &inp, Until::Rounds(untraced.rounds), Some(&mut t))?;
        t.probes
            .note_system(&sys, traced.sends, traced.deliveries, 0, 0);
        t.probes
            .finish(&mut t.spans, &untraced, &traced, self.name, self.seed)
    }
}
