//! The independent reference the program's outputs are checked against.
//!
//! Written from scratch for the benchmark: exact substring search over a
//! hash of each pattern's first eight bytes, with no automaton and no code
//! from the program's scan path. Every pattern the benchmark registers is
//! at least [`MIN_PATTERN_LEN`] bytes long, which is what makes the
//! eight-byte key exact.

use dpi_packet::report::MatchRecord;
use dpi_packet::FlowKey;
use std::collections::HashMap;

/// One reported occurrence: (pattern id, end position in the packet).
pub type Hit = (u16, u16);

/// Shortest pattern the reference accepts.
pub const MIN_PATTERN_LEN: usize = 8;

/// Exact multi-pattern search over a fixed pattern set.
pub struct Matcher {
    /// (pattern id, bytes), grouped by their first eight bytes.
    pats: Vec<(u16, Vec<u8>)>,
    /// Open-addressed table: slot -> (key, first index in `pats`, count).
    slots: Vec<(u64, u32, u32)>,
    mask: usize,
    /// One bit per three-byte prefix that starts some pattern.
    head: Vec<u64>,
    max_len: usize,
}

fn key8(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("eight bytes"))
}

fn head3(b: &[u8]) -> usize {
    (usize::from(b[0]) << 16) | (usize::from(b[1]) << 8) | usize::from(b[2])
}

fn slot_of(key: u64, mask: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20) as usize & mask
}

impl Matcher {
    /// A matcher over `(id, pattern)` pairs. Panics on a pattern shorter
    /// than [`MIN_PATTERN_LEN`]: the benchmark never generates one.
    pub fn new(patterns: impl IntoIterator<Item = (u16, Vec<u8>)>) -> Matcher {
        let mut pats: Vec<(u16, Vec<u8>)> = patterns.into_iter().collect();
        for (id, p) in &pats {
            assert!(
                p.len() >= MIN_PATTERN_LEN,
                "pattern {id} is shorter than {MIN_PATTERN_LEN} bytes"
            );
        }
        pats.sort_by_key(|(_, p)| key8(p));
        let mut groups: Vec<(u64, u32, u32)> = Vec::new();
        for (i, (_, p)) in pats.iter().enumerate() {
            let k = key8(p);
            match groups.last_mut() {
                Some(g) if g.0 == k => g.2 += 1,
                _ => groups.push((k, i as u32, 1)),
            }
        }
        let cap = (groups.len() * 2).next_power_of_two().max(16);
        let mask = cap - 1;
        let mut slots = vec![(0u64, 0u32, 0u32); cap];
        for g in &groups {
            let mut s = slot_of(g.0, mask);
            while slots[s].2 != 0 {
                s = (s + 1) & mask;
            }
            slots[s] = *g;
        }
        let mut head = vec![0u64; (1 << 24) / 64];
        for (_, p) in &pats {
            let h = head3(p);
            head[h / 64] |= 1 << (h % 64);
        }
        let max_len = pats.iter().map(|(_, p)| p.len()).max().unwrap_or(0);
        Matcher {
            pats,
            slots,
            mask,
            head,
            max_len,
        }
    }

    /// Longest pattern length (0 for an empty set).
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Every occurrence in `ctx ++ payload` that ends inside `payload`,
    /// as (pattern id, end index in `payload`), sorted and deduplicated.
    /// `ctx` is the earlier bytes of the same stream a stateful member
    /// still sees; pass `&[]` for a stateless member.
    pub fn hits(&self, ctx: &[u8], payload: &[u8]) -> Vec<Hit> {
        let mut out = Vec::new();
        if self.pats.is_empty() {
            return out;
        }
        let buf: std::borrow::Cow<[u8]> = if ctx.is_empty() {
            std::borrow::Cow::Borrowed(payload)
        } else {
            std::borrow::Cow::Owned([ctx, payload].concat())
        };
        let base = ctx.len();
        if buf.len() < MIN_PATTERN_LEN {
            return out;
        }
        // An occurrence starting before `first` ends inside `ctx`.
        let first = base.saturating_sub(self.max_len - 1);
        for s in first..=buf.len() - MIN_PATTERN_LEN {
            let h = head3(&buf[s..]);
            if self.head[h / 64] & (1 << (h % 64)) == 0 {
                continue;
            }
            let k = key8(&buf[s..]);
            let mut slot = slot_of(k, self.mask);
            loop {
                let (sk, start, count) = self.slots[slot];
                if count == 0 {
                    break;
                }
                if sk == k {
                    for (id, p) in &self.pats[start as usize..(start + count) as usize] {
                        let end = s + p.len();
                        if end > base && end <= buf.len() && &buf[s..end] == p.as_slice() {
                            out.push((*id, (end - 1 - base) as u16));
                        }
                    }
                    break;
                }
                slot = (slot + 1) & self.mask;
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Per-flow stream context for a stateful member: the last bytes each
/// flow's stream carried since its stream last (re)started.
#[derive(Default)]
pub struct Streams {
    tails: HashMap<FlowKey, Vec<u8>>,
}

impl Streams {
    /// Occurrences a stateful member sees in this packet of `flow`, then
    /// remembers the packet as context for the flow's next packet.
    pub fn hits(&mut self, m: &Matcher, flow: FlowKey, payload: &[u8]) -> Vec<Hit> {
        let keep = m.max_len().saturating_sub(1);
        let tail = self.tails.entry(flow).or_default();
        let hits = m.hits(tail, payload);
        tail.extend_from_slice(payload);
        if tail.len() > keep {
            tail.drain(..tail.len() - keep);
        }
        hits
    }

    /// A committed rule update restarts every flow's stream.
    pub fn restart_all(&mut self) {
        self.tails.clear();
    }
}

/// Decodes the program's wire records into (pattern id, position) hits.
pub fn expand(records: &[MatchRecord]) -> Vec<Hit> {
    let mut out = Vec::new();
    for r in records {
        match *r {
            MatchRecord::Single {
                pattern_id,
                position,
            } => out.push((pattern_id, position)),
            MatchRecord::Range {
                pattern_id,
                start,
                count,
            } => {
                for k in 0..count {
                    out.push((pattern_id, start.wrapping_add(k)));
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// `None` when `actual` reports exactly `expected`; otherwise a line
/// naming the first missing and the first extra hit.
pub fn diff(expected: &[Hit], actual: &[Hit]) -> Option<String> {
    if expected == actual {
        return None;
    }
    let missing = expected.iter().find(|h| !actual.contains(h));
    let extra = actual.iter().find(|h| !expected.contains(h));
    let show = |h: Option<&Hit>| match h {
        Some((id, pos)) => format!("pattern {id} ending at byte {pos}"),
        None => "none".to_string(),
    };
    Some(format!(
        "expected {} hit(s), got {}; first missing: {}; first extra: {}",
        expected.len(),
        actual.len(),
        show(missing),
        show(extra)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every occurrence by brute force over `windows()`.
    fn brute(pats: &[(u16, Vec<u8>)], ctx: &[u8], payload: &[u8]) -> Vec<Hit> {
        let buf = [ctx, payload].concat();
        let mut out = Vec::new();
        for (id, p) in pats {
            for (s, w) in buf.windows(p.len()).enumerate() {
                let end = s + p.len();
                if w == p.as_slice() && end > ctx.len() {
                    out.push((*id, (end - 1 - ctx.len()) as u16));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Patterns, stream context and payload of one random case.
    type Case = (Vec<(u16, Vec<u8>)>, Vec<u8>, Vec<u8>);

    fn small_case(rng: &mut StdRng) -> Case {
        // A two- or three-letter alphabet makes overlaps, shared prefixes
        // and substring patterns common.
        let alpha: &[u8] = if rng.gen_bool(0.5) { b"ab" } else { b"abc" };
        let pick = |n: usize, rng: &mut StdRng| -> Vec<u8> {
            (0..n)
                .map(|_| alpha[rng.gen_range(0..alpha.len())])
                .collect()
        };
        let n = rng.gen_range(1..12);
        let mut pats = Vec::new();
        for id in 0..n {
            let len = rng.gen_range(8..14);
            let p = pick(len, rng);
            pats.push((id as u16, p));
        }
        // A pattern that is a substring of another.
        let (_, host) = pats[0].clone();
        if host.len() > 8 {
            pats.push((n as u16, host[1..9].to_vec()));
        }
        let ctx_len = rng.gen_range(0..20);
        let ctx = pick(ctx_len, rng);
        let len = rng.gen_range(0..80);
        let payload = pick(len, rng);
        (pats, ctx, payload)
    }

    #[test]
    fn agrees_with_brute_force_search() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..3000 {
            let (pats, ctx, payload) = small_case(&mut rng);
            let m = Matcher::new(pats.clone());
            assert_eq!(
                m.hits(&ctx, &payload),
                brute(&pats, &ctx, &payload),
                "patterns {pats:?} ctx {ctx:?} payload {payload:?}"
            );
        }
    }

    #[test]
    fn stream_context_spans_packets() {
        let pats = vec![(3u16, b"split-pattern".to_vec())];
        let m = Matcher::new(pats);
        let mut s = Streams::default();
        let f = dpi_packet::packet::flow(
            [1, 1, 1, 1],
            1,
            [2, 2, 2, 2],
            2,
            dpi_packet::ipv4::IpProtocol::Tcp,
        );
        assert!(s.hits(&m, f, b"xx split-pa").is_empty());
        assert_eq!(s.hits(&m, f, b"ttern yy"), vec![(3, 4)]);
        s.restart_all();
        assert!(s.hits(&m, f, b"ttern yy").is_empty());
    }

    #[test]
    fn diff_catches_dropped_shifted_and_extra_reports() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut checked = 0;
        while checked < 200 {
            let (pats, ctx, payload) = small_case(&mut rng);
            let m = Matcher::new(pats.clone());
            let expected = m.hits(&ctx, &payload);
            if expected.is_empty() {
                continue;
            }
            checked += 1;
            assert!(diff(&expected, &expected).is_none());
            let mut dropped = expected.clone();
            dropped.remove(rng.gen_range(0..dropped.len()));
            assert!(diff(&expected, &dropped).is_some());
            let mut shifted = expected.clone();
            let i = rng.gen_range(0..shifted.len());
            shifted[i].1 = shifted[i].1.wrapping_add(1);
            shifted.sort_unstable();
            if shifted != expected {
                assert!(diff(&expected, &shifted).is_some());
            }
            let mut extra = expected.clone();
            extra.push((999, expected[0].1));
            extra.sort_unstable();
            assert!(diff(&expected, &extra).is_some());
        }
    }

    #[test]
    fn expand_reads_ranges() {
        let recs = [
            MatchRecord::Single {
                pattern_id: 4,
                position: 9,
            },
            MatchRecord::Range {
                pattern_id: 2,
                start: 5,
                count: 3,
            },
        ];
        assert_eq!(expand(&recs), vec![(2, 5), (2, 6), (2, 7), (4, 9)]);
    }
}
