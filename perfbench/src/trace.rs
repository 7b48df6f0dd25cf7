//! In-memory span recorder and the per-layer aggregation built on it.
//!
//! Spans wrap the public calls the benchmark makes into each layer. They
//! are kept in memory while a workload runs and aggregated (and written
//! out) only after the measured window ends, so recording a span costs two
//! clock reads and a `Vec` push.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One timed interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.forward`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch (`>= start`).
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request id, for spans that serve one request.
    pub request: Option<u64>,
}

/// Records spans when enabled; every method is a no-op when disabled, so
/// one code path serves the traced and the untraced run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span nested under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request: None,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end = self.ns(Instant::now());
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close in reverse order");
        }
    }

    /// Times `f` as a span nested under the innermost open span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Records an already measured interval.
    pub fn record(&mut self, span: Span) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as CSV (`name,start_ns,end_ns,parent,request`),
    /// at most `limit` rows.
    pub fn write_csv(&self, out: &mut impl Write, limit: usize) -> std::io::Result<()> {
        writeln!(
            out,
            "# {} spans recorded, {} written",
            self.spans.len(),
            self.spans.len().min(limit)
        )?;
        writeln!(out, "name,start_ns,end_ns,parent,request")?;
        for s in self.spans.iter().take(limit) {
            let opt = |v: Option<u64>| v.map_or(String::new(), |v| v.to_string());
            writeln!(
                out,
                "{},{},{},{},{}",
                s.name,
                s.start,
                s.end,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Overlapping children count once, and a
/// child reaching outside its parent counts only inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
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
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals of one traced run: spans grouped by name, plus counts
/// and derived values the workload sets directly.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Span name → (calls, total self time in ns).
    pub spans: BTreeMap<&'static str, (u64, u64)>,
    /// Metric name → value, for counts and derived figures.
    pub values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Folds the spans of one tracer into the per-name totals.
    pub fn absorb(&mut self, tracer: &Tracer) {
        for (span, own) in tracer.spans().iter().zip(self_times(tracer.spans())) {
            let entry = self.spans.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += own;
        }
    }

    /// Adds another run's totals into these.
    pub fn merge(&mut self, other: Layers) {
        for (name, (calls, ns)) in other.spans {
            let entry = self.spans.entry(name).or_default();
            entry.0 += calls;
            entry.1 += ns;
        }
        for (name, v) in other.values {
            self.add(name, v);
        }
    }

    /// Mean self time of the spans named `name`, in ns (0 when none ran).
    pub fn mean_self_ns(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |&(calls, ns)| ns as f64 / calls.max(1) as f64)
    }

    /// Adds `v` to the value named `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_default() += v;
    }

    /// Sets the value named `name`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }
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
            request: None,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span("a", 5, 17, None)]), vec![12]);
    }

    #[test]
    fn nested_children_subtract_only_from_their_direct_parent() {
        // root [0,100) ⊃ child [10,60) ⊃ grandchild [20,30)
        let spans = [
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grandchild", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two children on other threads overlap on [30,40).
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 80, 90, Some(0)),
        ];
        // Covered: [10,70) + [80,90) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = [
            span("root", 10, 50, None),
            span("early", 0, 20, Some(0)),
            span("late", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn contained_child_inside_a_wider_sibling_adds_nothing() {
        let spans = [
            span("root", 0, 100, None),
            span("wide", 10, 80, Some(0)),
            span("inner", 20, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_and_aggregates() {
        let mut tr = Tracer::new(true, Instant::now());
        let outer = tr.open("outer");
        let x = tr.time("inner", || 7);
        tr.time("inner", || ());
        tr.close(outer);
        assert_eq!(x, 7);
        assert_eq!(tr.spans().len(), 3);
        assert_eq!(tr.spans()[1].parent, Some(0));
        let mut layers = Layers::default();
        layers.absorb(&tr);
        assert_eq!(layers.spans["inner"].0, 2);
        assert_eq!(layers.spans["outer"].0, 1);
        assert_eq!(layers.mean_self_ns("missing"), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now());
        let id = tr.open("x");
        assert_eq!(id, None);
        tr.close(id);
        assert_eq!(tr.time("y", || 3), 3);
        assert!(tr.spans().is_empty());
    }
}
