//! `service-chain`: the in-network path. One caller drives
//! `SystemHandle::send` in a closed loop through two DPI instances with
//! per-flow steering and dedicated result packets, then IDS → AV → L7
//! firewall, with a live rule update at a fixed packet interval.

use crate::config::{Deployment, AV, FW, IDS};
use crate::inputs::{self, ChainTraffic, Plants};
use crate::layers::Probes;
use crate::reference::{self, Hit, Matcher, Streams};
use crate::spans::Spans;
use crate::workload::{self, Checked, Outcome, Pass, Tracing, Until, MIN_ROUNDS, SETUPS};
use dpi_core::instance::{ScanEngine, ShardState};
use dpi_middlebox::MiddleboxStats;
use dpi_packet::FlowKey;
use dpi_service::SystemHandle;
use std::sync::Arc;
use std::time::Instant;

/// Flows in the round-robin pool.
const FLOWS: usize = 2000;
/// Sends per round; each round ends with one live rule update.
const ROUND_SENDS: u64 = 12_000;

/// What the reference predicts for one packet's scan: per-member hits.
/// `fw` is the firewall rule and match position, when one fires.
struct Expected {
    ids: Vec<Hit>,
    av: Vec<Hit>,
    fw: Option<Hit>,
}

/// Replays each packet, after its `send` and outside the timed call, on
/// the engine of the fleet instance its flow is steered to, with one
/// stream state per instance, and checks every member's reports exactly
/// on (pattern id, end position). Send's own reports are not visible
/// outside the system; its per-member effects are checked by counts.
struct FleetReplay {
    instances: Vec<(Arc<ScanEngine>, ShardState)>,
}

impl FleetReplay {
    fn new(sys: &SystemHandle) -> FleetReplay {
        FleetReplay {
            instances: sys
                .dpi_instances
                .iter()
                .map(|i| {
                    let engine = Arc::clone(i.lock().engine());
                    let shard = ShardState::new(&engine);
                    (engine, shard)
                })
                .collect(),
        }
    }

    fn check(
        &mut self,
        sys: &SystemHandle,
        n: u64,
        flow: FlowKey,
        payload: &[u8],
        e: &Expected,
    ) -> Checked<()> {
        let k = sys.steered_instance_of(&flow).ok_or_else(|| {
            format!("service-chain: packet {n} (flow {flow:?}): flow steered to no DPI instance")
        })?;
        let engine = Arc::clone(sys.dpi_instances[k].lock().engine());
        let (held, shard) = &mut self.instances[k];
        if !Arc::ptr_eq(held, &engine) {
            // Adopt a new engine as the instance does: flow state is
            // generation-tagged, so every stream re-anchors.
            shard.on_generation_swap();
            shard.refresh_tenant_state(&engine);
            *held = Arc::clone(&engine);
        }
        let out = engine
            .scan_payload(shard, sys.chain_ids[0], Some(flow), payload)
            .map_err(|err| {
                format!("service-chain: packet {n}: scan on instance {k} failed: {err}")
            })?;
        let fw: Vec<Hit> = e.fw.into_iter().collect();
        for (mb, want) in [(IDS, &e.ids), (AV, &e.av), (FW, &fw)] {
            let got = out
                .reports
                .iter()
                .find(|r| r.middlebox_id == mb.0)
                .map(|r| reference::expand(&r.records))
                .unwrap_or_default();
            if let Some(why) = reference::diff(want, &got) {
                return Err(format!(
                    "service-chain: packet {n} (flow {flow:?}), DPI instance {k}: middlebox {}: {why}",
                    mb.0
                ));
            }
        }
        Ok(())
    }
}

/// Everything a send can change that the reference predicts.
#[derive(Clone, Copy)]
struct Counters {
    mb: [MiddleboxStats; 3],
    delivered: usize,
    dropped: u64,
    results_lost: u64,
}

fn counters(sys: &SystemHandle) -> Counters {
    let s = |id| sys.stats_of(id).expect("middlebox exists");
    Counters {
        mb: [s(IDS), s(AV), s(FW)],
        delivered: sys.sink.count(),
        dropped: sys.net.dropped(),
        results_lost: sys.fleet_stats.iter().map(|f| f.lock().results_lost).sum(),
    }
}

/// The middlebox-visible effect of one packet: (packets, matches, rules
/// fired, blocked) per member, and whether the packet reaches the host.
fn predicted(d: &Deployment, e: &Expected) -> ([[u64; 4]; 3], bool) {
    let fired = |hits: &[Hit], logic: usize| -> u64 {
        let mut ids: Vec<u16> = hits
            .iter()
            .map(|h| h.0)
            .filter(|&p| usize::from(p) < logic)
            .collect();
        ids.dedup();
        ids.len() as u64
    };
    let ids_fired = fired(&e.ids, d.logic_rules(IDS));
    let av_fired = fired(&e.av, d.logic_rules(AV));
    let av_block = av_fired > 0;
    let fw_fire = u64::from(e.fw.is_some());
    let mut out = [[0u64; 4]; 3];
    out[0] = [1, e.ids.len() as u64, ids_fired, 0];
    out[1] = [1, e.av.len() as u64, av_fired, u64::from(av_block)];
    if !av_block {
        // A packet blocked by the AV reaches no later member.
        out[2] = [1, fw_fire, fw_fire, fw_fire];
    }
    (out, !av_block && fw_fire == 0)
}

fn delta(a: &MiddleboxStats, b: &MiddleboxStats) -> [u64; 4] {
    [
        b.packets - a.packets,
        b.matches - a.matches,
        b.rules_fired - a.rules_fired,
        b.blocked - a.blocked,
    ]
}

pub struct ServiceChain {
    d: Deployment,
    seed: u64,
}

impl ServiceChain {
    pub fn new(seed: u64) -> ServiceChain {
        ServiceChain {
            d: Deployment::service_chain(),
            seed,
        }
    }

    /// One pass over the seed's traffic on a freshly built system.
    fn pass(
        &self,
        sys: &mut SystemHandle,
        until: Until,
        mut tr: Option<&mut Tracing>,
    ) -> Checked<Pass> {
        let d = &self.d;
        let updates = inputs::updates(self.seed, d.ids_patterns.len(), &[]);
        // IDS plants come from the original set and every literal an
        // update will add: removed rules and not-yet-added literals keep
        // appearing in the traffic and must not be reported.
        let mut ids_pool = d.ids_patterns.clone();
        ids_pool.extend(updates.iter().map(|u| u.add.clone()));
        let plants = Plants {
            pools: vec![(&ids_pool, 0.03), (&d.av_patterns, 0.02)],
            prefix_pool: vec![&d.ids_patterns, &d.av_patterns],
            prefixes: 2,
        };
        let fw_lits = inputs::fw_literal_matcher(&d.fw_rules);
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
        let mut streams = Streams::default();
        let mut replay = FleetReplay::new(sys);
        let mut traffic = ChainTraffic::new(self.seed, FLOWS);

        let mut pass = Pass::default();
        let mut sent = 0u64;
        let mut n = 0u64;
        // Warm-up, checked but not timed: one packet per flow, so the
        // steering table reaches its full size before measuring.
        let mut timed = false;
        let started = Instant::now();
        loop {
            if timed && sent.is_multiple_of(ROUND_SENDS) && until.done(started, pass.rounds) {
                break;
            }
            let pkt = traffic.next(&plants, &d.fw_rules, &fw_lits);
            let e = Expected {
                ids: streams.hits(&ids_m, pkt.flow, &pkt.payload),
                av: av_m.hits(&[], &pkt.payload),
                fw: pkt
                    .regex
                    .filter(|&(_, end)| end as u64 <= inputs::FW_HEADER_LIMIT)
                    .map(|(r, end)| (r as u16, (end - 1) as u16)),
            };
            let before = counters(sys);
            let (secs, root) = match tr.as_deref_mut() {
                Some(t) => {
                    let root = t.spans.root("packet", n);
                    let n = t.spans.child(root, "system.send", || {
                        sys.send(pkt.flow, pkt.seq, &pkt.payload)
                    });
                    pass.deliveries += n as u64;
                    (t.spans.last_secs(), Some(root))
                }
                None => {
                    let t0 = Instant::now();
                    let n = sys.send(pkt.flow, pkt.seq, &pkt.payload);
                    let secs = t0.elapsed().as_secs_f64();
                    pass.deliveries += n as u64;
                    (secs, None)
                }
            };
            let after = counters(sys);
            if timed {
                pass.calls.record(secs, 1, pkt.payload.len() as u64);
            }
            pass.attempted += 1;
            pass.sends += 1;
            if after.dropped != before.dropped || after.results_lost != before.results_lost {
                pass.failed += 1;
            }
            let (want, delivered) = predicted(d, &e);
            for (k, (name, id)) in [("ids", IDS), ("av", AV), ("firewall", FW)]
                .iter()
                .enumerate()
            {
                let got = delta(&before.mb[k], &after.mb[k]);
                if got != want[k] {
                    return Err(format!(
                        "service-chain: packet {n} (flow {:?}, {} B): middlebox {name} ({}) \
                         saw [packets, matches, rules fired, blocked] = {got:?}, reference {:?}",
                        pkt.flow,
                        pkt.payload.len(),
                        id.0,
                        want[k]
                    ));
                }
            }
            if (after.delivered - before.delivered == 1) != delivered {
                return Err(format!(
                    "service-chain: packet {n} (flow {:?}): delivered to the host = {}, reference {}",
                    pkt.flow,
                    after.delivered - before.delivered,
                    delivered
                ));
            }
            replay.check(sys, n, pkt.flow, &pkt.payload, &e)?;
            if let (Some(t), Some(root)) = (tr.as_deref_mut(), root) {
                t.probes.packet(
                    &mut t.spans,
                    root,
                    "service-chain",
                    n,
                    pkt.flow,
                    pkt.seq,
                    &pkt.payload,
                )?;
                t.spans.close(root);
            }
            sent += 1;
            n += 1;
            if !timed && sent == FLOWS as u64 {
                timed = true;
                sent = 0;
                continue;
            }
            if timed && sent.is_multiple_of(ROUND_SENDS) {
                let u = &updates[pass.rounds as usize];
                if workload::live_update(sys, u, &mut pass, tr.as_deref_mut())? {
                    live.retain(|(id, _)| *id != u.remove);
                    live.push((u.add_id, u.add.clone()));
                    ids_m = Matcher::new(live.clone());
                    streams.restart_all();
                }
                pass.end_round();
            }
        }
        Ok(pass)
    }

    pub fn run(&self, seconds: f64, trace: bool) -> Checked<Outcome> {
        let (mut sys, setup_s) = self.d.build_timed(SETUPS);
        let pass = self.pass(
            &mut sys,
            Until::Secs {
                secs: seconds,
                min_rounds: MIN_ROUNDS,
            },
            None,
        )?;
        if !trace {
            return Ok(Outcome {
                attempted: pass.attempted,
                failed: pass.failed,
                metrics: pass.end_to_end(setup_s),
            });
        }
        let untraced = pass;
        drop(sys);
        let (mut sys, _) = self.d.build_timed(1);
        let mut t = Tracing {
            spans: Spans::default(),
            probes: Probes::new(&self.d, &sys),
        };
        let traced = self.pass(&mut sys, Until::Rounds(untraced.rounds), Some(&mut t))?;
        let regex_invocations: u64 = sys
            .fleet_telemetry()
            .iter()
            .map(|t| t.regex_invocations)
            .sum();
        let fw_fired = sys.stats_of(FW).map(|s| s.rules_fired).unwrap_or(0);
        t.probes.note_system(
            &sys,
            traced.sends,
            traced.deliveries,
            regex_invocations,
            fw_fired,
        );
        t.probes
            .finish(&mut t.spans, &untraced, &traced, "service-chain", self.seed)
    }
}
