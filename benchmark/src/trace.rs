//! Span recorder for the traced run.
//!
//! Spans are taken from the harness's own files only, around each call
//! into a layer's public function; tracing inside `pimsim` is a later
//! change. A span is named `layer.function`, so the layer is the text
//! before the first dot. Spans stay in memory and are written once, at
//! exit, in Chrome trace-event format.
//!
//! A disabled tracer runs the closure and records nothing, so the timed
//! (untraced) passes and the traced pass share one code path.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.function`.
    pub name: &'static str,
    /// What the call worked on (a network, a config, a command); may be empty.
    pub detail: String,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The job (one operation of a pass) this span belongs to; 0 outside jobs.
    pub job: u32,
    /// Work counts taken at this boundary (`events`, `instructions`, ...).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// The layer this span is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals for one layer, or for one `(span name, detail)` pair.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Spans summed.
    pub calls: u64,
    /// Summed self time (duration minus direct children), nanoseconds.
    pub self_ns: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed work counts.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Totals {
    /// Self time in seconds.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }

    /// A work count, 0 when never recorded.
    pub fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    fn add(&mut self, span: &Span, self_ns: u64) {
        self.calls += 1;
        self.self_ns += self_ns;
        self.total_ns += span.dur_ns();
        for &(key, n) in &span.counts {
            *self.counts.entry(key).or_default() += n;
        }
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_job: u32,
    job: u32,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer whose epoch is now.
    pub fn enabled() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_job: 0,
            job: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Pauses or resumes recording (between spans only), so one tracer can
    /// cover the traced set-up, sit out the untraced passes, and pick up
    /// again for the traced pass on the same timeline.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span. The closure gets the tracer back so nested
    /// calls can open child spans; it returns the value and the work
    /// counts observed at this boundary.
    pub fn span_counted<T>(
        &mut self,
        name: &'static str,
        detail: &str,
        f: impl FnOnce(&mut Tracer) -> (T, Vec<(&'static str, u64)>),
    ) -> T {
        if !self.on {
            return f(self).0;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            detail: detail.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            job: self.job,
            counts: Vec::new(),
        });
        self.open.push(index);
        self.spans[index].start_ns = self.now_ns();
        let (value, counts) = f(self);
        self.spans[index].end_ns = self.now_ns();
        self.spans[index].counts = counts;
        self.open.pop();
        value
    }

    /// Runs `f` inside a span that records no counts.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        detail: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.span_counted(name, detail, |t| (f(t), Vec::new()))
    }

    /// Runs `f` as one job: a `harness.job` span whose descendants all
    /// share a fresh job identifier.
    pub fn job<T>(&mut self, detail: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        self.next_job += 1;
        let outer = std::mem::replace(&mut self.job, self.next_job);
        let value = self.span("harness.job", detail, f);
        self.job = outer;
        value
    }

    /// Forgets every span recorded after the first `len` (between spans
    /// only): a traced pass taken for its timing alone is dropped this way.
    pub fn truncate(&mut self, len: usize) {
        assert!(self.open.is_empty(), "truncated inside an open span");
        self.spans.truncate(len);
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its direct children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Totals over the spans `keep` selects (by index and span).
    fn totals(&self, keep: impl Fn(usize, &Span) -> bool) -> Totals {
        let selfs = self.self_times_ns();
        let mut out = Totals::default();
        for (i, span) in self.spans.iter().enumerate() {
            if keep(i, span) {
                out.add(span, selfs[i]);
            }
        }
        out
    }

    /// Totals per layer over the subtree rooted at `root` (the root's own
    /// self time included), or over every span when `root` is `None`.
    pub fn by_layer(&self, root: Option<usize>) -> BTreeMap<&'static str, Totals> {
        let selfs = self.self_times_ns();
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if root.is_none_or(|r| self.is_within(i, r)) {
                out.entry(span.layer()).or_default().add(span, selfs[i]);
            }
        }
        out
    }

    /// Totals per `(span name, detail)` over every span.
    pub fn by_call(&self) -> BTreeMap<(&'static str, String), Totals> {
        let selfs = self.self_times_ns();
        let mut out: BTreeMap<(&'static str, String), Totals> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            out.entry((span.name, span.detail.clone()))
                .or_default()
                .add(span, selfs[i]);
        }
        out
    }

    /// Totals over every span called `name`, whatever its detail.
    pub fn by_name(&self, name: &str) -> Totals {
        self.totals(|_, s| s.name == name)
    }

    /// Totals over the spans called `name` in the subtree rooted at `root`.
    pub fn by_name_within(&self, name: &str, root: usize) -> Totals {
        self.totals(|i, s| s.name == name && self.is_within(i, root))
    }

    /// A copy whose timestamps are divided by a clock slowdown: each
    /// `(root, slowdown)` names a top-level span and the slowdown measured
    /// around it, and applies to that span's whole subtree. Spans under no
    /// listed root keep their raw times.
    pub fn compensated(&self, roots: &[(usize, f64)]) -> Tracer {
        let mut out = Tracer {
            spans: self.spans.clone(),
            ..Tracer::new(false)
        };
        for (i, span) in out.spans.iter_mut().enumerate() {
            if let Some(&(_, slowdown)) = roots.iter().find(|(r, _)| self.is_within(i, *r)) {
                span.start_ns = (span.start_ns as f64 / slowdown) as u64;
                span.end_ns = (span.end_ns as f64 / slowdown) as u64;
            }
        }
        out
    }

    /// Index of the first span called `name` with this detail.
    pub fn find(&self, name: &str, detail: &str) -> Option<usize> {
        self.spans
            .iter()
            .position(|s| s.name == name && s.detail == detail)
    }

    fn is_within(&self, mut index: usize, root: usize) -> bool {
        loop {
            if index == root {
                return true;
            }
            match self.spans[index].parent {
                Some(p) => index = p,
                None => return false,
            }
        }
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto): complete (`"ph":"X"`) events, microsecond timestamps,
    /// one process, one thread, the layer as category.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let selfs = self.self_times_ns();
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = serde_json::Map::new();
                args.insert("id", Value::from(i));
                args.insert(
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                );
                args.insert("job", Value::from(s.job));
                args.insert("detail", Value::from(s.detail.as_str()));
                args.insert("self_us", Value::from(selfs[i] as f64 / 1e3));
                for &(key, n) in &s.counts {
                    args.insert(key, Value::from(n));
                }
                json!({
                    "name": (s.name),
                    "cat": (s.layer()),
                    "ph": "X",
                    "ts": (s.start_ns as f64 / 1e3),
                    "dur": (s.dur_ns() as f64 / 1e3),
                    "pid": 1,
                    "tid": 1,
                    "args": (Value::Object(args)),
                })
            })
            .collect();
        let doc = json!({
            "displayTimeUnit": "ms",
            "otherData": { "workload": workload },
            "traceEvents": (Value::Array(events)),
        });
        serde_json::to_string(&doc).expect("trace serialization cannot fail") + "\n"
    }
}

/// Self time of every span in `spans` (see [`Tracer::self_times_ns`]).
/// Children never overlap one another — the harness is single-threaded
/// and spans nest by construction — so a plain subtraction is exact.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            selfs[p] = selfs[p].saturating_sub(span.dur_ns());
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            detail: String::new(),
            start_ns: start,
            end_ns: end,
            parent,
            job: 0,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root [0,100] has siblings a [10,30] and b [40,90]; b has a
        // nested child c [50,70], which has a grandchild d [55,60].
        let spans = vec![
            span("harness.pass", 0, 100, None),
            span("nn.zoo", 10, 30, Some(0)),
            span("compiler.compile", 40, 90, Some(0)),
            span("isa.validate", 50, 70, Some(2)),
            span("arch.validate", 55, 60, Some(3)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 30, 15, 5]);
        // Self times partition the root interval exactly.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_spans_and_tags_jobs() {
        let mut t = Tracer::enabled();
        t.span("harness.pass", "", |t| {
            t.job("first", |t| {
                t.span_counted("core.simulate", "lenet", |_| ((), vec![("events", 7)]));
            });
            t.job("second", |t| {
                t.span_counted("core.simulate", "vgg8", |_| ((), vec![("events", 5)]));
            });
        });
        let names: Vec<_> = t.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "harness.pass",
                "harness.job",
                "core.simulate",
                "harness.job",
                "core.simulate"
            ]
        );
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[4].parent, Some(3));
        assert_eq!(
            t.spans().iter().map(|s| s.job).collect::<Vec<_>>(),
            [0, 1, 1, 2, 2]
        );
        let layers = t.by_layer(Some(0));
        assert_eq!(layers["core"].calls, 2);
        assert_eq!(layers["core"].count("events"), 12);
        assert_eq!(layers["harness"].calls, 3);
        // Only the second job's subtree.
        assert_eq!(t.by_layer(Some(3))["core"].count("events"), 5);
        assert_eq!(t.by_name("core.simulate").count("events"), 12);
        assert_eq!(t.find("core.simulate", "vgg8"), Some(4));
        let total: u64 = t.self_times_ns().iter().sum();
        assert_eq!(total, t.spans()[0].dur_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing_and_still_runs_the_work() {
        let mut t = Tracer::disabled();
        let v = t.job("j", |t| {
            t.span_counted("core.simulate", "x", |_| (41 + 1, vec![]))
        });
        assert_eq!(v, 42);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let mut t = Tracer::enabled();
        t.span("harness.pass", "", |t| t.span("nn.zoo", "lenet", |_| ()));
        let doc: Value = serde_json::from_str(&t.to_chrome_json("zoo-sim")).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1]["cat"].as_str(), Some("nn"));
        assert_eq!(events[1]["ph"].as_str(), Some("X"));
        assert_eq!(events[1]["args"]["parent"].as_u64(), Some(0));
    }
}
