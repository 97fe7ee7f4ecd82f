//! In-memory spans around the benchmark's calls into each layer, written
//! out once when the run ends.
//!
//! A span has a name, a start and an end (nanoseconds since the trace was
//! created), the span that caused it, and the request (or pass, or batch)
//! it belongs to. A layer's self time is its duration minus the part of
//! that interval its child spans cover; overlapping children count once.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::median;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, as in the per-layer metric names.
    pub name: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start: u64,
    /// End, nanoseconds since the trace epoch.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request, pass or batch number the span belongs to.
    pub req: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder. When disabled every call is a no-op that returns `None`,
/// so traced and untraced runs execute the same calls.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Trace {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Reserves room for `additional` spans, so recording on a hot path
    /// never reallocates.
    pub fn reserve(&mut self, additional: usize) {
        if self.enabled {
            self.spans.reserve(additional);
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (the traced run alternates to measure
    /// its own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            req,
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Sets the end of a span opened by [`Trace::record`] with a
    /// provisional end (a parent whose children are recorded first).
    pub fn close(&mut self, id: Option<SpanId>, end: Instant) {
        let end = self.ns(end);
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i)) {
            span.end = end;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line after a header line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"self_ns":{own},"parent":{parent},"req":{}}}"#,
                s.name, s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let parent = &spans[p];
            let (lo, hi) = (s.start.max(parent.start), s.end.min(parent.end));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration() - covered(kids))
        .collect()
}

/// Length of the union of intervals.
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(lo, hi) in intervals.iter() {
        current = match current {
            Some((a, b)) if lo <= b => Some((a, b.max(hi))),
            Some((a, b)) => {
                total += b - a;
                Some((lo, hi))
            }
            None => Some((lo, hi)),
        };
    }
    total + current.map_or(0, |(a, b)| b - a)
}

/// Per layer name: summed self time and summed duration, in nanoseconds.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += own;
        e.1 += s.duration();
    }
    out
}

/// The share of the time of the spans named `root` that no child span
/// covers: what the breakdown leaves unnamed.
pub fn unattributed_share(spans: &[Span], root: &str) -> f64 {
    let (own, total) = totals_by_name(spans).get(root).copied().unwrap_or((0, 0));
    own as f64 / total.max(1) as f64
}

/// The cost of recording, from a run that recorded every other
/// operation: the medians of the recorded and the unrecorded samples, and
/// the relative difference with the unrecorded median as its base.
pub fn overhead(samples: &[f64], recorded: &[bool]) -> (f64, f64, f64) {
    let split = |rec: bool| -> Vec<f64> {
        samples
            .iter()
            .zip(recorded)
            .filter(|&(_, &r)| r == rec)
            .map(|(&t, _)| t)
            .collect()
    };
    let (on, off) = (median(&split(true)), median(&split(false)));
    (on, off, (on - off) / off.max(1e-12))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Root [0, 100); children [10, 40) and [30, 60) overlap on
        // [30, 40): together they cover 50, so the root's self time is 50.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 30]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child reaching past its parent's end covers only the overlap;
        // a child wholly outside covers nothing.
        let spans = vec![
            span("root", 0, 100, None),
            span("late", 90, 150, Some(0)),
            span("outside", 200, 210, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 90);
    }

    #[test]
    fn nested_and_disjoint_children() {
        // Root [0, 100): child [0, 20) and child [50, 90) with its own
        // child [60, 70). Grandchildren do not reduce the root directly.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 0, 20, Some(0)),
            span("b", 50, 90, Some(0)),
            span("c", 60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["b"], (30, 40));
    }

    #[test]
    fn unattributed_share_is_root_self_time_over_root_time() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 0, 90, Some(0)),
            span("pass", 200, 300, None),
            span("a", 200, 300, Some(2)),
        ];
        assert_eq!(unattributed_share(&spans, "pass"), 0.05);
        assert_eq!(unattributed_share(&spans, "missing"), 0.0);
    }

    #[test]
    fn overhead_compares_recorded_with_unrecorded() {
        let (on, off, rel) = overhead(&[11.0, 10.0, 11.0, 10.0], &[true, false, true, false]);
        assert_eq!((on, off), (11.0, 10.0));
        assert!((rel - 0.1).abs() < 1e-12);
    }

    #[test]
    fn a_disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", None, 0, now, now), None);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        assert_eq!(t.record("x", None, 0, now, now), Some(0));
    }
}
