//! The deployment each workload measures, as a [`SystemBuilder`].

use crate::inputs;
use dpi_ac::MiddleboxId;
use dpi_middlebox::boxes::{antivirus, ids, l7_firewall, MiddleboxTemplate};
use dpi_service::{SystemBuilder, SystemHandle};
use std::time::Instant;

pub const IDS: MiddleboxId = MiddleboxId(1);
pub const AV: MiddleboxId = MiddleboxId(2);
pub const FW: MiddleboxId = MiddleboxId(3);

/// One deployment: its middleboxes (chain order), fleet size and whether
/// L7 inspection is armed.
pub struct Deployment {
    pub templates: Vec<MiddleboxTemplate>,
    pub instances: usize,
    pub l7: bool,
    /// Exact patterns per middlebox, by rule id (for the reference).
    pub ids_patterns: Vec<Vec<u8>>,
    pub av_patterns: Vec<Vec<u8>>,
    pub fw_rules: Vec<inputs::FwRule>,
}

impl Deployment {
    /// `service-chain`: two DPI instances, IDS (stateful, Snort1) → AV
    /// (stateless, blocking, Snort2) → L7 firewall (regex, header stop).
    pub fn service_chain() -> Deployment {
        let (snort1, snort2) = inputs::snort_halves();
        let fw_rules = inputs::fw_rules();
        let sources: Vec<String> = fw_rules.iter().map(|r| r.source.clone()).collect();
        Deployment {
            templates: vec![
                ids(IDS, &snort1),
                antivirus(AV, &snort2),
                l7_firewall(FW, &sources, inputs::FW_HEADER_LIMIT),
            ],
            instances: 2,
            l7: false,
            ids_patterns: snort1,
            av_patterns: snort2,
            fw_rules,
        }
    }

    /// `bulk-small-packets`: IDS (Snort1) → AV (Snort2).
    pub fn bulk_small() -> Deployment {
        let (snort1, snort2) = inputs::snort_halves();
        Deployment::pair(snort1, snort2, false)
    }

    /// `bulk-large-packets`: IDS (full Snort-like set) → AV (ClamAV-like).
    pub fn bulk_large() -> Deployment {
        Deployment::pair(inputs::snort_all(), inputs::clamav(), false)
    }

    /// `l7-sessions`: IDS (Snort1) → AV (Snort2) with the default
    /// `L7Policy`.
    pub fn l7_sessions() -> Deployment {
        let (snort1, snort2) = inputs::snort_halves();
        Deployment::pair(snort1, snort2, true)
    }

    fn pair(ids_patterns: Vec<Vec<u8>>, av_patterns: Vec<Vec<u8>>, l7: bool) -> Deployment {
        Deployment {
            templates: vec![ids(IDS, &ids_patterns), antivirus(AV, &av_patterns)],
            instances: 1,
            l7,
            ids_patterns,
            av_patterns,
            fw_rules: Vec::new(),
        }
    }

    pub fn chain(&self) -> Vec<MiddleboxId> {
        self.templates.iter().map(|t| t.profile.id).collect()
    }

    /// The builder, exactly as a user of the service would write it.
    pub fn builder(&self) -> SystemBuilder {
        let mut b = SystemBuilder::new().with_dpi_instances(self.instances);
        for t in &self.templates {
            b = b.with_middlebox(t.clone());
        }
        b = b.with_chain(&self.chain());
        if self.l7 {
            b = b.with_l7_policy(dpi_core::L7Policy::default());
        }
        b
    }

    /// Builds the system `times` times and keeps the last one; returns it
    /// with the median build time (`SystemBuilder` to ready handle).
    pub fn build_timed(&self, times: usize) -> (SystemHandle, f64) {
        let mut secs = Vec::new();
        let mut last = None;
        for _ in 0..times.max(1) {
            // The previous system is dropped before the next build, so
            // builds never overlap in memory.
            drop(last.take());
            let t = Instant::now();
            let sys = self.builder().build().expect("benchmark deployment builds");
            secs.push(t.elapsed().as_secs_f64());
            last = Some(sys);
        }
        (
            last.expect("at least one build"),
            crate::measure::median(&mut secs),
        )
    }

    /// Number of rules of a middlebox's logic that can fire (rule ids
    /// `0..n` map one to one onto patterns).
    pub fn logic_rules(&self, mb: MiddleboxId) -> usize {
        self.templates
            .iter()
            .find(|t| t.profile.id == mb)
            .map(|t| t.logic.len())
            .unwrap_or(0)
    }
}
