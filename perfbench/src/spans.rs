//! In-memory spans for the traced run.
//!
//! Every packet, batch, session and update gets a root span; each call
//! the benchmark makes into a layer for it is a child span carrying the
//! root's trace id. Spans stay in memory and are written out as JSONL
//! when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Rec {
    trace: u64,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    epoch: Instant,
    recs: Vec<Rec>,
}

/// Handle of an open root span.
#[derive(Clone, Copy)]
pub struct Root(u32);

/// Per-name totals: calls, summed duration and summed self time.
#[derive(Default, Clone, Copy)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            epoch: Instant::now(),
            recs: Vec::new(),
        }
    }
}

impl Spans {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a root span for one packet, batch, session or update.
    pub fn root(&mut self, name: &'static str, trace: u64) -> Root {
        let start_ns = self.now();
        self.recs.push(Rec {
            trace,
            parent: NO_PARENT,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Root(self.recs.len() as u32 - 1)
    }

    pub fn close(&mut self, root: Root) {
        let end = self.now();
        self.recs[root.0 as usize].end_ns = end;
    }

    /// Runs `f` as a child span of `root`.
    pub fn child<T>(&mut self, root: Root, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.recs.push(Rec {
            trace: self.recs[root.0 as usize].trace,
            parent: root.0,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Duration of the most recent span, in seconds.
    pub fn last_secs(&self) -> f64 {
        self.recs
            .last()
            .map(|r| (r.end_ns - r.start_ns) as f64 / 1e9)
            .unwrap_or(0.0)
    }

    /// Calls, total and self time per span name. A span's self time is
    /// its duration minus the part its children cover; children of one
    /// root never overlap, because every call is synchronous.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.recs.len()];
        for r in &self.recs {
            if r.parent != NO_PARENT {
                child_ns[r.parent as usize] += r.end_ns - r.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, r) in self.recs.iter().enumerate() {
            let t = out.entry(r.name).or_default();
            let d = r.end_ns - r.start_ns;
            t.calls += 1;
            t.total_ns += d;
            t.self_ns += d.saturating_sub(child_ns[i]);
        }
        out
    }

    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, r) in self.recs.iter().enumerate() {
            let parent = if r.parent == NO_PARENT {
                "null".to_string()
            } else {
                r.parent.to_string()
            };
            writeln!(
                w,
                "{{\"trace\":{},\"span\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                r.trace, r.name, r.start_ns, r.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::default();
        let root = s.root("packet", 7);
        s.child(root, "layer", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.close(root);
        let t = s.totals();
        let (p, l) = (t["packet"], t["layer"]);
        assert_eq!((p.calls, l.calls), (1, 1));
        assert!(l.total_ns >= 2_000_000);
        assert_eq!(p.self_ns, p.total_ns - l.total_ns);
        assert_eq!(l.self_ns, l.total_ns);
    }
}
