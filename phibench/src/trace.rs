//! In-memory span recording for the traced run.
//!
//! One span per layer call the benchmark makes: its name, start, end,
//! parent span and the request or batch id it belongs to. Spans stay in
//! memory while the run measures and are written out once it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval, in nanoseconds from the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub id: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer { origin, spans: Vec::new() }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval and returns its id.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        id: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name: name.into(), id, parent, start_ns, end_ns });
        self.spans.len() - 1
    }

    /// Records an interval known only by its start and length (the
    /// server reports queue wait and execution as durations).
    pub fn record_for(
        &mut self,
        name: impl Into<String>,
        id: u64,
        parent: Option<SpanId>,
        start: Instant,
        length: Duration,
    ) -> SpanId {
        self.record(name, id, parent, start, start + length)
    }

    /// Opens a span whose end is set later with [`Tracer::close`].
    pub fn open(&mut self, name: impl Into<String>, id: u64, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, id, parent, now, now)
    }

    pub fn close(&mut self, span: SpanId) {
        self.spans[span].end_ns = self.ns(Instant::now());
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: impl Into<String>,
        id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, id, parent, start, Instant::now());
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e3).collect()
    }

    /// Per span name: (total duration, total self time), in µs.
    pub fn totals_us(&self) -> BTreeMap<String, (f64, f64)> {
        let selfs = self_times_ns(&self.spans);
        let mut out: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let entry = out.entry(span.name.clone()).or_default();
            entry.0 += span.duration_ns() as f64 / 1e3;
            entry.1 += self_ns as f64 / 1e3;
        }
        out
    }

    /// Writes at most `limit` spans as tab-separated lines (name, id,
    /// parent, start, end, self time; ns), then a count of what was left
    /// out.
    pub fn write_tsv(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_times_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tid\tparent\tstart_ns\tend_ns\tself_ns")?;
        for (span, self_ns) in self.spans.iter().zip(&selfs).take(limit) {
            let parent = span.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                span.name, span.id, parent, span.start_ns, span.end_ns, self_ns
            )?;
        }
        if self.spans.len() > limit {
            writeln!(out, "# {} more spans not written", self.spans.len() - limit)?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children's intervals cover (overlapping children count
/// once; the parts of a child outside its parent count not at all).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let lo = span.start_ns.max(parent.start_ns);
            let hi = span.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration_ns() - covered_ns(kids))
        .collect()
}

/// Length of the union of intervals.
fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(lo, hi) in intervals.iter() {
        current = match current {
            Some((clo, chi)) if lo <= chi => Some((clo, chi.max(hi))),
            Some((clo, chi)) => {
                total += chi - clo;
                Some((lo, hi))
            }
            None => Some((lo, hi)),
        };
    }
    total + current.map_or(0, |(lo, hi)| hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: name.into(), id: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_within_the_parent() {
        let spans = vec![
            span("root", None, 0, 100),
            // Overlapping children cover 10..50 once: 40 ns.
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 50),
            // A child running past its parent covers only 90..100.
            span("c", Some(0), 90, 120),
            // A grandchild is charged to its own parent, not the root.
            span("d", Some(1), 12, 18),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs, vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn a_leaf_span_is_all_self_time() {
        let spans = vec![span("leaf", None, 5, 25)];
        assert_eq!(self_times_ns(&spans), vec![20]);
    }

    #[test]
    fn totals_group_by_name() {
        let mut tracer = Tracer::new(Instant::now());
        let t0 = tracer.origin;
        let root = tracer.record("root", 1, None, t0, t0 + Duration::from_micros(10));
        tracer.record("child", 1, Some(root), t0, t0 + Duration::from_micros(4));
        tracer.record(
            "child",
            1,
            Some(root),
            t0 + Duration::from_micros(4),
            t0 + Duration::from_micros(6),
        );
        let totals = tracer.totals_us();
        assert_eq!(totals["root"], (10.0, 4.0));
        assert_eq!(totals["child"], (6.0, 6.0));
        assert_eq!(tracer.durations_us("child"), vec![4.0, 2.0]);
    }
}
