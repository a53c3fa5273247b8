//! Outside-in tracing: spans the benchmark records around the public
//! calls it makes into each layer. Nothing inside the program is timed.
//!
//! Each operation is a root span whose children are its steps, back to
//! back; setup is a root span with one child per public call. Spans live
//! in per-thread buffers and are merged and written out after the run. A
//! recorder built with tracing off records nothing.

use std::io::Write;
use std::time::Instant;

/// One child step of an operation: span name, start, end.
pub type Step = (&'static str, Instant, Instant);

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    fn dur_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

#[derive(Debug, Default)]
pub struct Recorder {
    on: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            spans: Vec::new(),
        }
    }

    /// Records root span `root` for operation `op` over `[start, end]`
    /// and one child per `(name, start, end)` step. Time between steps
    /// stays uncovered, which is what the coverage check measures.
    pub fn op(
        &mut self,
        root: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
        steps: &[Step],
    ) {
        if !self.on {
            return;
        }
        let parent = Some(self.spans.len());
        self.spans.push(Span {
            name: root,
            op,
            parent: None,
            start,
            end,
        });
        self.spans
            .extend(steps.iter().map(|&(name, start, end)| Span {
                name,
                op,
                parent,
                start,
                end,
            }));
    }

    /// Moves another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, times in µs since `epoch`.
    pub fn write_jsonl(&self, path: &str, epoch: Instant) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.name,
                s.op,
                us(s.start),
                us(s.end)
            )?;
        }
        out.flush()
    }
}

/// Per span name: how many, total self time (duration minus the part of
/// it its children cover), and every duration.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    pub count: u64,
    pub self_s: f64,
    pub durations_us: Vec<f64>,
}

/// Seconds of `[start, end]` covered by the union of `children`.
fn covered_s(parent: &Span, children: &[&Span]) -> f64 {
    let mut iv: Vec<(Instant, Instant)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort();
    let mut total = 0.0;
    let mut cur: Option<(Instant, Instant)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += (cb - ca).as_secs_f64();
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((a, b)) = cur {
        total += (b - a).as_secs_f64();
    }
    total
}

fn children_of(spans: &[Span]) -> Vec<Vec<&Span>> {
    let mut kids: Vec<Vec<&Span>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push(s);
        }
    }
    kids
}

/// Self time and durations per span name, sorted by name.
pub fn summarize(spans: &[Span]) -> Vec<(&'static str, NameStats)> {
    let kids = children_of(spans);
    let mut by_name: std::collections::BTreeMap<&'static str, NameStats> = Default::default();
    for (i, s) in spans.iter().enumerate() {
        let e = by_name.entry(s.name).or_default();
        e.count += 1;
        e.self_s += s.dur_s() - covered_s(s, &kids[i]);
        e.durations_us.push(s.dur_s() * 1e6);
    }
    by_name.into_iter().collect()
}

/// Median, over root spans whose name passes `is_root`, of the share of
/// the root's duration its children cover (1 when there are no roots).
pub fn coverage(spans: &[Span], is_root: impl Fn(&str) -> bool) -> f64 {
    let kids = children_of(spans);
    let shares: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none() && is_root(s.name) && s.dur_s() > 0.0)
        .map(|(i, s)| covered_s(s, &kids[i]) / s.dur_s())
        .collect();
    if shares.is_empty() {
        1.0
    } else {
        crate::stats::median(&shares)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(base: Instant, us: u64) -> Instant {
        base + Duration::from_micros(us)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Instant::now();
        let mut rec = Recorder::new(true);
        rec.op(
            "search",
            1,
            t,
            at(t, 400),
            &[
                ("client.request", t, at(t, 100)),
                ("tcp.wait", at(t, 100), at(t, 400)),
            ],
        );
        // A root whose only child leaves 400 of its 1000 µs uncovered.
        rec.op(
            "setup",
            2,
            t,
            at(t, 1000),
            &[("owner.outsource", t, at(t, 600))],
        );
        let summary: std::collections::BTreeMap<_, _> =
            summarize(rec.spans()).into_iter().collect();
        assert!(
            summary["search"].self_s.abs() < 1e-9,
            "children cover the op"
        );
        assert!((summary["client.request"].self_s - 100e-6).abs() < 1e-9);
        assert!((summary["tcp.wait"].self_s - 300e-6).abs() < 1e-9);
        assert!((summary["setup"].self_s - 400e-6).abs() < 1e-9);
        assert_eq!(summary["tcp.wait"].durations_us.len(), 1);
        assert!((coverage(rec.spans(), |n| n == "search") - 1.0).abs() < 1e-9);
        assert!((coverage(rec.spans(), |n| n == "setup") - 0.6).abs() < 1e-9);
    }

    #[test]
    fn overlapping_children_count_once() {
        let t = Instant::now();
        let parent = Span {
            name: "p",
            op: 0,
            parent: None,
            start: t,
            end: at(t, 100),
        };
        let a = Span {
            name: "a",
            start: at(t, 10),
            end: at(t, 50),
            ..parent.clone()
        };
        let b = Span {
            name: "b",
            start: at(t, 40),
            end: at(t, 200),
            ..parent.clone()
        };
        assert!((covered_s(&parent, &[&a, &b]) - 90e-6).abs() < 1e-9);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let t = Instant::now();
        rec.op("search", 1, t, t, &[("client.request", t, t)]);
        assert!(rec.spans().is_empty());
        let mut on = Recorder::new(true);
        on.op("search", 1, t, t, &[("client.request", t, t)]);
        let mut merged = Recorder::new(true);
        merged.op("update", 2, t, t, &[("owner.update_build", t, t)]);
        merged.absorb(on);
        assert_eq!(merged.spans()[3].parent, Some(2), "parents are re-based");
    }
}
