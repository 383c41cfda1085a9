//! What every workload reports, and the shape of a measured pass.

use crate::layers::Probes;
use crate::measure::{self, Calls};
use crate::spans::Spans;

/// Builds per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Rounds every timed pass completes, whatever its time budget.
pub const MIN_ROUNDS: u64 = 3;
/// `peak_rss_mb` is the high-water mark at the end of this round: set-up
/// plus the first live update. Later updates raise it by a whole
/// automaton copy or not, depending on how the allocator reuses memory,
/// so a later reading would not repeat.
pub const RSS_ROUND: u64 = 1;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A finished run: operation accounting and the metrics to print.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// A disagreement with the reference, naming the workload, the packet
/// or session, and the middlebox.
pub type Checked<T> = Result<T, String>;

/// How long a pass runs: for a wall-clock budget but at least some
/// rounds (checked at round boundaries, so every pass runs whole
/// rounds), or for a fixed number of rounds.
#[derive(Clone, Copy)]
pub enum Until {
    Secs { secs: f64, min_rounds: u64 },
    Rounds(u64),
}

impl Until {
    pub fn done(&self, started: std::time::Instant, rounds: u64) -> bool {
        match *self {
            Until::Secs { secs, min_rounds } => {
                rounds >= min_rounds && started.elapsed().as_secs_f64() >= secs
            }
            Until::Rounds(n) => rounds >= n,
        }
    }
}

/// Spans and layer probes, present only in the traced run.
pub struct Tracing {
    pub spans: Spans,
    pub probes: Probes,
}

/// What one measured pass produced.
#[derive(Default)]
pub struct Pass {
    /// The entry calls: `send` or `inspect_batch`.
    pub calls: Calls,
    /// Wall seconds of each `apply_update`.
    pub updates: Vec<f64>,
    pub rounds: u64,
    pub attempted: u64,
    pub failed: u64,
    /// `VmHWM` at the end of a fixed round, so it covers the same work
    /// however fast the run goes.
    pub peak_rss_mb: f64,
    /// Summed outcomes of the updates, for the per-layer table.
    pub update_transfer_bytes: Vec<f64>,
    pub swap_pause_us: Vec<f64>,
    /// `send` calls and the node deliveries they made.
    pub sends: u64,
    pub deliveries: u64,
}

impl Pass {
    /// Ends a round; the memory high-water mark is read at the end of
    /// round [`RSS_ROUND`].
    pub fn end_round(&mut self) {
        self.rounds += 1;
        self.calls.close_round();
        if self.rounds == RSS_ROUND {
            self.peak_rss_mb = measure::peak_rss_mb();
        }
    }

    /// The end-to-end metrics, shared by every workload.
    pub fn end_to_end(&self, setup_s: f64) -> Vec<Metric> {
        let mut up = self.updates.clone();
        vec![
            Metric {
                name: "setup_s",
                value: setup_s,
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: self.peak_rss_mb,
                unit: "MB",
            },
            Metric {
                name: "pkt_per_s",
                value: self.calls.pkt_per_s(),
                unit: "1/s",
            },
            Metric {
                name: "payload_mbps",
                value: self.calls.payload_mbps(),
                unit: "Mbit/s",
            },
            Metric {
                name: "call_p50_us",
                value: self.calls.p50_us(),
                unit: "us",
            },
            Metric {
                name: "call_p99_us",
                value: self.calls.tail_us(),
                unit: "us",
            },
            Metric {
                name: "update_s",
                value: measure::median(&mut up),
                unit: "s",
            },
        ]
    }
}

/// One live rule update: remove `u.remove` from the IDS, add `u.add`,
/// roll the fleet and the pipeline. Returns whether it committed; an
/// update that errs or does not commit is a failed operation.
pub fn live_update(
    sys: &mut dpi_service::SystemHandle,
    u: &crate::inputs::Update,
    pass: &mut Pass,
    tr: Option<&mut Tracing>,
) -> Checked<bool> {
    let ids = crate::config::IDS;
    pass.attempted += 1;
    let staged = sys.controller.remove_pattern(ids, u.remove).is_ok()
        && sys
            .controller
            .add_pattern(ids, u.add_id, &dpi_core::RuleSpec::exact(u.add.clone()))
            .is_ok();
    if !staged {
        pass.failed += 1;
        return Ok(false);
    }
    let (res, secs) = match tr {
        Some(t) => {
            let root = t.spans.root("update", (1 << 40) | pass.rounds);
            let res = t
                .spans
                .child(root, "system.apply_update", || sys.apply_update());
            let secs = t.spans.last_secs();
            if matches!(&res, Ok(o) if o.committed) {
                t.probes.on_update(&mut t.spans, root, sys);
            }
            t.spans.close(root);
            (res, secs)
        }
        None => {
            let t0 = std::time::Instant::now();
            let res = sys.apply_update();
            (res, t0.elapsed().as_secs_f64())
        }
    };
    match res {
        Ok(o) if o.committed => {
            pass.updates.push(secs);
            pass.update_transfer_bytes.push(o.transfer_bytes as f64);
            pass.swap_pause_us.push(o.swap_pause.as_secs_f64() * 1e6);
            Ok(true)
        }
        _ => {
            pass.failed += 1;
            Ok(false)
        }
    }
}

/// One timed `inspect_batch` call, recorded in `pass.calls` (traced, the
/// call is the child of a batch root span `id`). Also says whether a
/// pipeline shard counted an error or a lost scan during the call.
pub fn timed_inspect_batch(
    sys: &mut dpi_service::SystemHandle,
    batch: &mut [dpi_packet::Packet],
    id: u64,
    payload_bytes: u64,
    pass: &mut Pass,
    tr: Option<&mut Tracing>,
) -> (Vec<dpi_packet::report::ResultPacket>, bool) {
    let shard_faults = |sys: &dpi_service::SystemHandle| -> Vec<(u64, u64)> {
        sys.shard_telemetry()
            .iter()
            .map(|t| (t.errors, t.lost_scans))
            .collect()
    };
    let before = shard_faults(sys);
    let packets = batch.len() as u64;
    let (results, secs) = match tr {
        Some(t) => {
            let root = t.spans.root("batch", (1 << 41) | id);
            let r = t
                .spans
                .child(root, "system.inspect_batch", || sys.inspect_batch(batch));
            t.spans.close(root);
            (r, t.spans.last_secs())
        }
        None => {
            let t0 = std::time::Instant::now();
            let r = sys.inspect_batch(batch);
            (r, t0.elapsed().as_secs_f64())
        }
    };
    pass.calls.record(secs, packets, payload_bytes);
    let faulted = shard_faults(sys) != before;
    (results, faulted)
}
