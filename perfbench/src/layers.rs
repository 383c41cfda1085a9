//! Per-layer probes for the traced run.
//!
//! The traced run replays the workload's packets through each layer's
//! public entry points, each call a child span of the packet's root
//! span, and derives the per-layer metrics from those spans. The probes
//! run on a copy of the system's configuration, so they never disturb
//! the system under test.

use crate::config::Deployment;
use crate::reference;
use crate::spans::{Root, Spans, Totals};
use crate::workload::{Checked, Metric, Outcome, Pass};
use dpi_ac::{Automaton, CombinedAcBuilder, PatternId};
use dpi_controller::DpiController;
use dpi_core::arena::FlowArena;
use dpi_core::instance::{ScanEngine, ShardState};
use dpi_core::rules::RuleKind;
use dpi_core::{compress_matches, InstanceConfig, StreamReassembler, UpdateArtifact};
use dpi_middlebox::{ReorderBuffer, ServiceMiddlebox};
use dpi_packet::report::ResultPacket;
use dpi_packet::{FlowKey, MacAddr, Packet};
use dpi_sdn::flowtable::FlowTable;
use dpi_sdn::{Switch, TrafficSteeringApp};
use dpi_service::SystemHandle;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Packets kept for the pipeline probes (1 and 2 workers).
const PIPELINE_BATCHES: usize = 32;
const PIPELINE_BATCH: usize = 256;
/// Every this many packets also go through the gunzip probe.
const GUNZIP_EVERY: u64 = 4;

/// Which end-to-end metric, on which workload, each layer metric should
/// move (printed with the traced run's table).
pub const MOVES: &[(&str, &str, &str)] = &[
    (
        "system.service_overhead_x",
        "x",
        "pkt_per_s on service-chain",
    ),
    (
        "sdn.lookup_ns",
        "ns",
        "pkt_per_s, call_p50_us on service-chain",
    ),
    (
        "sdn.table_rules",
        "count",
        "pkt_per_s, call_p50_us on service-chain",
    ),
    (
        "sdn.deliveries_per_send",
        "count",
        "pkt_per_s, call_p50_us on service-chain",
    ),
    ("middlebox.process_ns", "ns", "pkt_per_s on service-chain"),
    (
        "middlebox.reorder_push_ns",
        "ns",
        "pkt_per_s on service-chain",
    ),
    (
        "packet.build_ns",
        "ns",
        "pkt_per_s on service-chain and bulk-small-packets",
    ),
    (
        "packet.result_encode_ns",
        "ns",
        "pkt_per_s on service-chain",
    ),
    (
        "packet.result_wire_bytes",
        "B",
        "pkt_per_s on service-chain",
    ),
    (
        "ac.kernel_mbps",
        "Mbit/s",
        "payload_mbps on bulk-large-packets",
    ),
    ("ac.automaton_mb", "MB", "setup_s, peak_rss_mb, update_s"),
    ("ac.build_s", "s", "setup_s, update_s"),
    ("regex.find_end_ns", "ns", "pkt_per_s on service-chain"),
    (
        "regex.confirm_hit_ratio",
        "ratio",
        "pkt_per_s on service-chain",
    ),
    (
        "core.scan_payload_ns",
        "ns",
        "pkt_per_s on bulk-small-packets",
    ),
    ("core.inspect_ns", "ns", "pkt_per_s on bulk-small-packets"),
    (
        "core.outside_kernel_share",
        "ratio",
        "pkt_per_s on bulk-small-packets",
    ),
    ("core.arena_ns", "ns", "pkt_per_s on bulk-small-packets"),
    ("core.flow_bytes_per_flow", "B", "peak_rss_mb"),
    (
        "core.compress_matches_ns",
        "ns",
        "pkt_per_s on bulk-small-packets and service-chain",
    ),
    (
        "core.pipeline_batch_ms",
        "ms",
        "pkt_per_s, payload_mbps on the bulk workloads",
    ),
    (
        "core.pipeline_2w_speedup",
        "x",
        "reference only while the bulk workloads run 1 worker",
    ),
    ("core.reassembly_push_ns", "ns", "pkt_per_s on l7-sessions"),
    ("core.l7_segment_ns", "ns", "pkt_per_s on l7-sessions"),
    ("core.l7_overhead_x", "x", "pkt_per_s on l7-sessions"),
    ("core.l7_amplification", "ratio", "pkt_per_s on l7-sessions"),
    ("core.gunzip_mbps", "Mbit/s", "pkt_per_s on l7-sessions"),
    ("core.update_compile_s", "s", "update_s"),
    ("core.update_transfer_bytes", "B", "update_s"),
    ("core.swap_pause_us", "us", "update_s"),
    ("controller.instance_config_ms", "ms", "setup_s, update_s"),
    ("controller.register_ms", "ms", "setup_s"),
    (
        "trace.overhead_share",
        "ratio",
        "none: cost of the traced run's spans",
    ),
];

pub struct Probes {
    chain: u16,
    l7: bool,
    engine: Arc<ScanEngine>,
    l7_engine: Arc<ScanEngine>,
    raw_engine: Arc<ScanEngine>,
    scan_shard: ShardState,
    inspect_shard: ShardState,
    l7_shard: ShardState,
    raw_shard: ShardState,
    mbs: Vec<ServiceMiddlebox>,
    reorder: ReorderBuffer,
    table: Arc<parking_lot::Mutex<FlowTable>>,
    tsa: TrafficSteeringApp,
    dpi_ports: Vec<u16>,
    steered: HashMap<FlowKey, ()>,
    arena: FlowArena,
    reassemblers: HashMap<FlowKey, StreamReassembler>,
    regexes: Vec<dpi_regex::Regex>,
    pipeline_packets: Vec<Packet>,
    // Counts that turn span totals into per-call figures.
    kernel_bytes: u64,
    gunzip_bytes: u64,
    process_calls: u64,
    reorder_pushes: u64,
    compress_calls: u64,
    /// Packets the stream probes saw.
    streamed: u64,
    result_wire_bytes: Vec<f64>,
    l7_wire_bytes: u64,
    register_ms: f64,
    ac_build_s: f64,
    // Read from the system after the traced pass.
    table_rules: f64,
    deliveries_per_send: f64,
    confirm_hit_ratio: f64,
}

/// The system's current configuration as the controller would ship it.
fn current_config(sys: &SystemHandle, l7: bool) -> InstanceConfig {
    let mut cfg = sys
        .controller
        .instance_config(&sys.chain_ids)
        .expect("the system's chains are registered");
    if l7 {
        cfg = cfg.with_l7_policy(dpi_core::L7Policy::default());
    }
    cfg
}

/// `cfg` with L7 inspection toggled.
fn other_config(mut cfg: InstanceConfig) -> InstanceConfig {
    cfg.l7 = match cfg.l7 {
        Some(_) => None,
        None => Some(dpi_core::L7Policy::default()),
    };
    cfg
}

fn engine_of(cfg: InstanceConfig, generation: u32) -> Arc<ScanEngine> {
    Arc::new(
        ScanEngine::with_generation(cfg, generation).expect("the system's configuration compiles"),
    )
}

impl Probes {
    pub fn new(d: &Deployment, sys: &SystemHandle) -> Probes {
        let cfg = current_config(sys, d.l7);
        let generation = sys.rule_generation();

        // controller.register_ms: the control-plane work of registering
        // every middlebox, its rules and the chain on a fresh controller.
        let t = Instant::now();
        let ctrl = DpiController::new();
        for tpl in &d.templates {
            ctrl.register(tpl.profile.id, &tpl.name, None, tpl.profile)
                .expect("fresh controller");
            for r in &tpl.rules {
                ctrl.add_pattern(tpl.profile.id, r.id, &r.spec)
                    .expect("valid rule");
            }
        }
        ctrl.register_chain(&d.chain()).expect("members registered");
        let register_ms = t.elapsed().as_secs_f64() * 1e3;

        // ac.build_s: the automaton alone, from the same exact patterns.
        let t = Instant::now();
        let mut b = CombinedAcBuilder::new();
        for (mb, rules) in &cfg.pattern_sets {
            for r in rules {
                if let RuleKind::Exact(p) = &r.spec.kind {
                    b.add_pattern(*mb, PatternId(r.id), p)
                        .expect("valid pattern");
                }
            }
        }
        std::hint::black_box(b.build_kernel(cfg.kernel));
        let ac_build_s = t.elapsed().as_secs_f64();

        // The scan probes share the system's engine; the segment probes
        // need it once with L7 armed and once without, so only the other
        // of the two is compiled here.
        let engine = Arc::clone(sys.scanner.engine());
        let other = engine_of(other_config(cfg), generation);
        let (l7_engine, raw_engine) = if d.l7 {
            (Arc::clone(&engine), other)
        } else {
            (other, Arc::clone(&engine))
        };

        let switch = Switch::new("probe");
        let tsa = TrafficSteeringApp::new(&switch);
        let n = sys.dpi_ports.len() as u16;
        let mb_ports: Vec<u16> = (0..d.templates.len() as u16).map(|i| 2 + n + i).collect();
        tsa.install_chain_fleet(sys.chain_ids[0], 0, &sys.dpi_ports, &mb_ports, 1);

        Probes {
            chain: sys.chain_ids[0],
            l7: d.l7,
            scan_shard: ShardState::new(&engine),
            inspect_shard: ShardState::new(&engine),
            l7_shard: ShardState::new(&l7_engine),
            raw_shard: ShardState::new(&raw_engine),
            engine,
            l7_engine,
            raw_engine,
            mbs: d
                .templates
                .iter()
                .map(|t| ServiceMiddlebox::new(t.profile.id, &t.name, t.logic.clone()))
                .collect(),
            reorder: ReorderBuffer::new(4096),
            table: switch.table(),
            tsa,
            dpi_ports: sys.dpi_ports.clone(),
            steered: HashMap::new(),
            arena: FlowArena::new(InstanceConfig::DEFAULT_MAX_FLOWS),
            reassemblers: HashMap::new(),
            // The firewall's rules even where the deployment has none, so
            // every workload reports the cost of one confirmation on its
            // own payloads.
            regexes: crate::inputs::fw_rules()
                .iter()
                .map(|r| dpi_regex::Regex::new(&r.source).expect("firewall rules compile"))
                .collect(),
            pipeline_packets: Vec::new(),
            kernel_bytes: 0,
            gunzip_bytes: 0,
            process_calls: 0,
            reorder_pushes: 0,
            compress_calls: 0,
            streamed: 0,
            result_wire_bytes: Vec::new(),
            l7_wire_bytes: 0,
            register_ms,
            ac_build_s,
            table_rules: 0.0,
            deliveries_per_send: 0.0,
            confirm_hit_ratio: 0.0,
        }
    }

    /// Runs one packet through every layer probe as children of `root`.
    #[allow(clippy::too_many_arguments)]
    pub fn packet(
        &mut self,
        spans: &mut Spans,
        root: Root,
        workload: &str,
        n: u64,
        flow: FlowKey,
        seq: u32,
        payload: &[u8],
    ) -> Checked<()> {
        let chain = self.chain;
        let mut untagged = spans.child(root, "packet.build", || {
            Packet::tcp(
                MacAddr::local(1),
                MacAddr::local(2),
                flow,
                seq,
                payload.to_vec(),
            )
        });

        if self.dpi_ports.len() > 1 && !self.steered.contains_key(&flow) {
            let port = self.dpi_ports[self.steered.len() % self.dpi_ports.len()];
            self.tsa.steer_flow(chain, 0, &flow, port);
            self.steered.insert(flow, ());
        }
        {
            let table = self.table.lock();
            let hit = spans.child(root, "sdn.lookup", || table.lookup(&untagged, 0).is_some());
            assert!(hit, "the ingress rules match every packet");
        }
        untagged
            .push_chain_tag(chain)
            .expect("fresh packet has tag room");
        let mut pkt = untagged;

        let (engine, shard) = (&self.engine, &mut self.scan_shard);
        let out = spans
            .child(root, "core.scan_payload", || {
                engine.scan_payload(shard, chain, Some(flow), payload)
            })
            .map_err(|e| format!("{workload}: packet {n}: scan_payload failed: {e}"))?;

        // The result packet the DPI service would send for this scan.
        let result = out.has_matches().then(|| ResultPacket {
            packet_id: 0,
            generation: self.engine.generation(),
            flow,
            flow_offset: out.flow_offset,
            reports: out.reports.clone(),
        });
        if result.is_some() {
            pkt.mark_matches();
        }

        let lists: Vec<Vec<(u16, u16)>> = out
            .reports
            .iter()
            .map(|r| reference::expand(&r.records))
            .collect();
        if !lists.is_empty() {
            spans.child(root, "core.compress_matches", || {
                for l in &lists {
                    std::hint::black_box(compress_matches(l));
                }
            });
            self.compress_calls += lists.len() as u64;
        }

        if let Some(r) = &result {
            let wire = spans.child(root, "packet.result_encode", || {
                let bytes = r.to_bytes();
                let (parsed, _) = ResultPacket::parse(&bytes).expect("own encoding parses");
                std::hint::black_box(parsed);
                bytes.len()
            });
            self.result_wire_bytes.push(wire as f64);
        }

        let mbs = &mut self.mbs;
        let calls = spans.child(root, "middlebox.process", || {
            let mut calls = 0;
            for mb in mbs.iter_mut() {
                let report = result.as_ref().and_then(|r| r.report_for(mb.id().0));
                calls += 1;
                if !mb.process(report).forwards() {
                    break;
                }
            }
            calls
        });
        self.process_calls += calls;

        let data = pkt.clone();
        let result_pkt = result
            .clone()
            .map(|r| Packet::result(MacAddr::local(100), MacAddr::local(2), r));
        let reorder = &mut self.reorder;
        let pushes = spans.child(root, "middlebox.reorder_push", || {
            let mut pushes = 1;
            std::hint::black_box(reorder.push(data));
            if let Some(rp) = result_pkt {
                pushes += 1;
                std::hint::black_box(reorder.push(rp));
            }
            pushes
        });
        self.reorder_pushes += pushes;

        let arena = &mut self.arena;
        spans.child(root, "core.arena", || {
            let (state, offset) = arena
                .get_scan_if_generation(&flow, 0)
                .map(|s| (s.state, s.offset))
                .unwrap_or((0, 0));
            arena.put_scan_gen(flow, state, offset + payload.len() as u64, 0);
        });

        let reassemblers = &mut self.reassemblers;
        spans.child(root, "core.reassembly_push", || {
            let r = reassemblers
                .entry(flow)
                .or_insert_with(|| StreamReassembler::new(seq, 1 << 20));
            std::hint::black_box(r.push(seq, payload));
        });

        let (engine, shard) = (&self.l7_engine, &mut self.l7_shard);
        spans
            .child(root, "core.l7_segment", || {
                engine.scan_tcp_segment(shard, chain, flow, seq, payload)
            })
            .map_err(|e| format!("{workload}: packet {n}: L7 segment scan failed: {e}"))?;
        let (engine, shard) = (&self.raw_engine, &mut self.raw_shard);
        spans
            .child(root, "core.raw_segment", || {
                engine.scan_tcp_segment(shard, chain, flow, seq, payload)
            })
            .map_err(|e| format!("{workload}: packet {n}: segment scan failed: {e}"))?;
        self.l7_wire_bytes += payload.len() as u64;

        let re = &self.regexes[n as usize % self.regexes.len()];
        spans.child(root, "regex.find_end", || {
            std::hint::black_box(re.find_end(payload))
        });

        // L7 sessions time gunzip on their real gzip bodies instead.
        if !self.l7 && n.is_multiple_of(GUNZIP_EVERY) {
            let gz = dpi_core::gzip(payload);
            let (plain, _) = spans
                .child(root, "core.gunzip", || {
                    dpi_core::gunzip_capped(&gz, 1 << 20)
                })
                .map_err(|e| format!("{workload}: packet {n}: gunzip failed: {e:?}"))?;
            self.gunzip_bytes += plain.len() as u64;
        }

        if self.pipeline_packets.len() < PIPELINE_BATCHES * PIPELINE_BATCH {
            let mut p = Packet::tcp(
                MacAddr::local(1),
                MacAddr::local(2),
                flow,
                seq,
                payload.to_vec(),
            );
            p.push_chain_tag(chain).expect("fresh packet has tag room");
            self.pipeline_packets.push(p);
        }
        Ok(())
    }

    /// Gunzip probe on a gzip body the workload already has (L7 sessions).
    pub fn gunzip(&mut self, spans: &mut Spans, root: Root, gz: &[u8]) {
        if let Ok((plain, _)) =
            spans.child(root, "core.gunzip", || dpi_core::gunzip_capped(gz, 1 << 20))
        {
            self.gunzip_bytes += plain.len() as u64;
        }
    }

    /// After a committed update: time building and compiling the new
    /// configuration, then move every probe engine to it.
    pub fn on_update(&mut self, spans: &mut Spans, root: Root, sys: &SystemHandle) {
        // Drop the old engines first, so they are freed before the timed
        // compile allocates another.
        let engine = Arc::clone(sys.scanner.engine());
        self.l7_engine = Arc::clone(&engine);
        self.raw_engine = Arc::clone(&engine);
        self.engine = engine;
        let l7 = self.l7;
        let cfg = spans.child(root, "controller.instance_config", || {
            current_config(sys, l7)
        });
        let generation = sys.rule_generation();
        spans.child(root, "core.update_compile", || {
            UpdateArtifact::build(generation, &cfg)
                .compile()
                .expect("a committed configuration compiles")
        });
        // The segment probes' other engine, on the same new rules.
        let other = engine_of(other_config(cfg), generation);
        if l7 {
            self.raw_engine = other;
        } else {
            self.l7_engine = other;
        }
        // Adopt the new engines as the system's shards do: flow state is
        // generation-tagged, so every stream re-anchors under the new rules.
        for (shard, engine) in [
            (&mut self.scan_shard, &self.engine),
            (&mut self.l7_shard, &self.l7_engine),
            (&mut self.raw_shard, &self.raw_engine),
        ] {
            shard.on_generation_swap();
            shard.refresh_tenant_state(engine);
        }
    }

    /// Figures only the system itself can give, read after the pass.
    pub fn note_system(
        &mut self,
        sys: &SystemHandle,
        sends: u64,
        deliveries: u64,
        regex_invocations: u64,
        fired: u64,
    ) {
        self.table_rules = sys.tsa.rule_count() as f64;
        self.deliveries_per_send = if sends == 0 {
            0.0
        } else {
            deliveries as f64 / sends as f64
        };
        self.confirm_hit_ratio = if regex_invocations == 0 {
            0.0
        } else {
            fired as f64 / regex_invocations as f64
        };
    }

    /// Streams the kept packets, in arrival order, through the kernel
    /// alone, through `inspect_unnumbered` on a fresh shard, and through
    /// fresh 1-worker and 2-worker pipelines, one batch root each. Each
    /// pass sees every payload once, as the data path does, so the
    /// kernel and inspect figures carry the same cache behaviour.
    fn streams(&mut self, spans: &mut Spans) -> Checked<()> {
        let packets = std::mem::take(&mut self.pipeline_packets);
        self.inspect_shard = ShardState::new(&self.engine);
        let ac = self.engine.automaton();
        // One untimed pass first: the last update's compile has just
        // evicted the automaton, and the kernel pass would otherwise pay
        // for warming it alone.
        for p in &packets {
            let payload = p.payload().expect("tcp payload");
            std::hint::black_box(ac.scan(ac.start(), payload, |_, _| {}));
        }
        for (b, chunk) in packets.chunks(PIPELINE_BATCH).enumerate() {
            let root = spans.root("batch", (1 << 41) | (1 << 32) | b as u64);
            spans.child(root, "ac.kernel", || {
                for p in chunk {
                    let payload = p.payload().expect("tcp payload");
                    std::hint::black_box(ac.scan(ac.start(), payload, |_, _| {}));
                }
            });
            spans.close(root);
        }
        self.kernel_bytes = packets
            .iter()
            .map(|p| p.payload().map_or(0, |x| x.len() as u64))
            .sum();
        let engine = Arc::clone(&self.engine);
        for (b, chunk) in packets.chunks(PIPELINE_BATCH).enumerate() {
            let mut batch = chunk.to_vec();
            let root = spans.root("batch", (1 << 41) | (2 << 32) | b as u64);
            let shard = &mut self.inspect_shard;
            spans
                .child(root, "core.inspect", || {
                    batch
                        .iter_mut()
                        .try_for_each(|p| engine.inspect_unnumbered(shard, p).map(|_| ()))
                })
                .map_err(|e| format!("inspect failed: {e}"))?;
            spans.close(root);
        }
        for (workers, name) in [(1usize, "core.pipeline_1w"), (2, "core.pipeline_2w")] {
            let mut scanner = dpi_core::ShardedScanner::new(Arc::clone(&self.engine), workers);
            for (b, chunk) in packets.chunks(PIPELINE_BATCH).enumerate() {
                let mut batch = chunk.to_vec();
                let root = spans.root("batch", (1 << 41) | ((2 + workers as u64) << 32) | b as u64);
                spans.child(root, name, || {
                    std::hint::black_box(scanner.inspect_batch(&mut batch))
                });
                spans.close(root);
            }
        }
        self.streamed = packets.len() as u64;
        Ok(())
    }

    /// Per-layer metrics, the span table and the tracing overhead.
    pub fn finish(
        mut self,
        spans: &mut Spans,
        untraced: &Pass,
        traced: &Pass,
        workload: &str,
        seed: u64,
    ) -> Checked<Outcome> {
        self.streams(spans)
            .map_err(|e| format!("{workload}: stream probes: {e}"))?;
        let t = spans.totals();
        let get = |n: &str| t.get(n).copied().unwrap_or_default();
        let per = |tot: Totals, calls: u64| {
            if calls == 0 {
                0.0
            } else {
                tot.total_ns as f64 / calls as f64
            }
        };
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let mbps = |bytes: u64, tot: Totals| ratio(bytes as f64 * 8e3, tot.total_ns as f64);
        let mut up = traced.update_transfer_bytes.clone();
        let mut pause = traced.swap_pause_us.clone();
        let untraced_mean = ratio(
            untraced.calls.total_secs(),
            untraced.calls.secs.len() as f64,
        );
        let traced_mean = ratio(traced.calls.total_secs(), traced.calls.secs.len() as f64);
        let flows = self.inspect_shard.tracked_flows();
        let values: BTreeMap<&str, f64> = [
            (
                "system.service_overhead_x",
                ratio(
                    get("system.send").mean_ns(),
                    get("core.scan_payload").mean_ns(),
                ),
            ),
            ("sdn.lookup_ns", get("sdn.lookup").mean_ns()),
            ("sdn.table_rules", self.table_rules),
            ("sdn.deliveries_per_send", self.deliveries_per_send),
            (
                "middlebox.process_ns",
                per(get("middlebox.process"), self.process_calls),
            ),
            (
                "middlebox.reorder_push_ns",
                per(get("middlebox.reorder_push"), self.reorder_pushes),
            ),
            ("packet.build_ns", get("packet.build").mean_ns()),
            (
                "packet.result_encode_ns",
                get("packet.result_encode").mean_ns(),
            ),
            (
                "packet.result_wire_bytes",
                crate::measure::median(&mut self.result_wire_bytes.clone()),
            ),
            ("ac.kernel_mbps", mbps(self.kernel_bytes, get("ac.kernel"))),
            (
                "ac.automaton_mb",
                self.engine.automaton().memory_bytes() as f64 / 1e6,
            ),
            ("ac.build_s", self.ac_build_s),
            ("regex.find_end_ns", get("regex.find_end").mean_ns()),
            ("regex.confirm_hit_ratio", self.confirm_hit_ratio),
            ("core.scan_payload_ns", get("core.scan_payload").mean_ns()),
            ("core.inspect_ns", per(get("core.inspect"), self.streamed)),
            (
                "core.outside_kernel_share",
                1.0 - ratio(
                    get("ac.kernel").total_ns as f64,
                    get("core.inspect").total_ns as f64,
                ),
            ),
            ("core.arena_ns", get("core.arena").mean_ns()),
            (
                "core.flow_bytes_per_flow",
                ratio(self.inspect_shard.flow_bytes() as f64, flows as f64),
            ),
            (
                "core.compress_matches_ns",
                per(get("core.compress_matches"), self.compress_calls),
            ),
            (
                "core.pipeline_batch_ms",
                get("core.pipeline_1w").mean_ns() / 1e6,
            ),
            (
                "core.pipeline_2w_speedup",
                ratio(
                    get("core.pipeline_1w").total_ns as f64,
                    get("core.pipeline_2w").total_ns as f64,
                ),
            ),
            (
                "core.reassembly_push_ns",
                get("core.reassembly_push").mean_ns(),
            ),
            ("core.l7_segment_ns", get("core.l7_segment").mean_ns()),
            (
                "core.l7_overhead_x",
                ratio(
                    get("core.l7_segment").total_ns as f64,
                    get("core.raw_segment").total_ns as f64,
                ),
            ),
            (
                "core.l7_amplification",
                ratio(
                    self.l7_shard.telemetry().l7_decoded_bytes as f64,
                    self.l7_wire_bytes as f64,
                ),
            ),
            (
                "core.gunzip_mbps",
                mbps(self.gunzip_bytes, get("core.gunzip")),
            ),
            (
                "core.update_compile_s",
                get("core.update_compile").mean_ns() / 1e9,
            ),
            (
                "core.update_transfer_bytes",
                crate::measure::median(&mut up),
            ),
            ("core.swap_pause_us", crate::measure::median(&mut pause)),
            (
                "controller.instance_config_ms",
                get("controller.instance_config").mean_ns() / 1e6,
            ),
            ("controller.register_ms", self.register_ms),
            (
                "trace.overhead_share",
                ratio(traced_mean - untraced_mean, untraced_mean),
            ),
        ]
        .into_iter()
        .collect();

        println!("traced run: {workload}, seed {seed}, {} spans", spans.len());
        println!(
            "{:<30} {:>10} {:>12} {:>12} {:>12}",
            "span", "calls", "total ms", "self ms", "mean ns"
        );
        for (name, tot) in &t {
            println!(
                "{name:<30} {:>10} {:>12.3} {:>12.3} {:>12.0}",
                tot.calls,
                tot.total_ns as f64 / 1e6,
                tot.self_ns as f64 / 1e6,
                tot.mean_ns()
            );
        }
        println!(
            "{:<30} {:>14} {:<8} should move",
            "layer metric", "value", "unit"
        );
        for (name, unit, moves) in MOVES {
            println!("{name:<30} {:>14.4} {unit:<8} {moves}", values[name]);
        }
        println!("tracing overhead (traced minus untraced, same operations):");
        let (u, tr) = (untraced.end_to_end(0.0), traced.end_to_end(0.0));
        for (a, b) in u.iter().zip(&tr) {
            if a.name != "setup_s" && a.name != "peak_rss_mb" {
                println!("  {:<14} {:>+14.4} {}", a.name, b.value - a.value, a.unit);
            }
        }
        let path =
            std::path::PathBuf::from(format!("perfbench/out/spans-{workload}-seed{seed}.jsonl"));
        match spans.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }

        Ok(Outcome {
            attempted: untraced.attempted + traced.attempted,
            failed: untraced.failed + traced.failed,
            metrics: MOVES
                .iter()
                .map(|(name, unit, _)| Metric {
                    name,
                    value: values[name],
                    unit,
                })
                .collect(),
        })
    }
}
