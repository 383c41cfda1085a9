//! Order statistics and the process memory high-water mark.

/// Median of `v` (sorts it in place). 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` (sorts it in place).
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail quantile to report for `n` samples: 0.99 when at least ten
/// samples lie beyond it, else the highest quantile that keeps ten
/// beyond (never below the median).
pub fn tail_q(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Per-call latencies and the work they did, split into rounds, for the
/// end-to-end metrics. Rates and tail latency are taken per round and
/// reported as their median over the rounds, so a burst of interference
/// from the shared host that hits a minority of rounds does not move
/// them.
#[derive(Default)]
pub struct Calls {
    /// Seconds per call.
    pub secs: Vec<f64>,
    packets: Vec<u64>,
    bytes: Vec<u64>,
    /// End (exclusive call index) of every closed round.
    round_ends: Vec<usize>,
}

impl Calls {
    pub fn record(&mut self, secs: f64, packets: u64, payload_bytes: u64) {
        self.secs.push(secs);
        self.packets.push(packets);
        self.bytes.push(payload_bytes);
    }

    pub fn close_round(&mut self) {
        self.round_ends.push(self.secs.len());
    }

    /// The calls of each closed round, as index ranges.
    fn rounds(&self) -> Vec<std::ops::Range<usize>> {
        let mut start = 0;
        let mut out = Vec::new();
        for &end in &self.round_ends {
            if end > start {
                out.push(start..end);
            }
            start = end;
        }
        out
    }

    fn per_round(&self, f: impl Fn(std::ops::Range<usize>) -> f64) -> f64 {
        let mut v: Vec<f64> = self.rounds().into_iter().map(f).collect();
        median(&mut v)
    }

    pub fn total_secs(&self) -> f64 {
        self.secs.iter().sum()
    }

    pub fn pkt_per_s(&self) -> f64 {
        self.per_round(|r| {
            self.packets[r.clone()].iter().sum::<u64>() as f64 / self.secs[r].iter().sum::<f64>()
        })
    }

    pub fn payload_mbps(&self) -> f64 {
        self.per_round(|r| {
            self.bytes[r.clone()].iter().sum::<u64>() as f64 * 8.0
                / self.secs[r].iter().sum::<f64>()
                / 1e6
        })
    }

    pub fn p50_us(&self) -> f64 {
        quantile(&mut self.secs.clone(), 0.5) * 1e6
    }

    /// Per-round p99 (or the highest quantile that keeps ten calls of
    /// the round beyond it), median over rounds.
    pub fn tail_us(&self) -> f64 {
        self.per_round(|r| {
            let n = r.len();
            quantile(&mut self.secs[r].to_vec(), tail_q(n)) * 1e6
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
    }

    #[test]
    fn rates_are_medians_over_rounds() {
        let mut c = Calls::default();
        // Round 1: 10 packets in 1 s; round 2: 10 in 2 s; round 3: 10 in 4 s.
        for (secs, rounds) in [(0.5, 2), (1.0, 2), (2.0, 2)] {
            for _ in 0..rounds {
                c.record(secs, 5, 50);
            }
            c.close_round();
        }
        assert_eq!(c.pkt_per_s(), 5.0);
        assert_eq!(c.payload_mbps(), 100.0 * 8.0 / 2.0 / 1e6);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_q(100_000), 0.99);
        assert!((tail_q(500) - 0.98).abs() < 1e-12);
        assert_eq!(tail_q(12), 0.5);
    }
}
