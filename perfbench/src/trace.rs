//! In-memory spans and the timing decorators of the traced run.
//!
//! Every span is recorded from the benchmark's own code, around a call into
//! one layer's public functions: the library itself carries no tracing.
//! Spans (name, id, parent, start, end) stay in memory until the run ends and
//! are then written out as JSON lines.

use std::cell::{Cell, RefCell};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pfp_baselines::{FlowPredictor, GenerativePredictor, MethodId, Prediction};
use pfp_core::dataset::RawSample;
use pfp_math::Matrix;
use pfp_optim::SmoothObjective;

use crate::json::Json;

/// One timed interval.  `parent` is the id of the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span that has started but not yet been recorded.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    pub start: Instant,
}

/// Collects spans in memory; shareable across the load generator's threads.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Reserve a span id and stamp its start, so children can name it as
    /// their parent before it ends.
    pub fn start(&self) -> Open {
        Open {
            // Relaxed: the counter only has to hand out distinct ids.
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
        }
    }

    /// Stamp the end of `open`, record it and return its duration.
    pub fn finish(&self, open: Open, name: &'static str, parent: Option<u64>) -> Duration {
        let end = Instant::now();
        self.push(name, open.id, parent, open.start, end);
        end - open.start
    }

    /// Record a span whose stamps were taken elsewhere; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(name, id, parent, start, end);
        id
    }

    fn push(&self, name: &'static str, id: u64, parent: Option<u64>, start: Instant, end: Instant) {
        let span = Span {
            name,
            id,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.start();
        let out = f();
        (out, self.finish(open, name, parent))
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let line = Json::obj([
                ("name", Json::str(s.name)),
                ("id", Json::Int(s.id as i64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("end_ns", Json::Int(s.end_ns as i64)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Self time of a span: its duration minus the union of its children's
/// intervals (children are clipped to the parent).
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = parent.start_ns;
    for (s, e) in intervals {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (parent.end_ns - parent.start_ns) - covered
}

/// Decorator over a [`SmoothObjective`]: times every evaluation pass and
/// records it as a span, forwarding every call unchanged.
pub struct TimedObjective<'t, O> {
    inner: O,
    tracer: &'t Tracer,
    parent: Option<u64>,
    pass_s: RefCell<Vec<f64>>,
}

impl<'t, O> TimedObjective<'t, O> {
    pub fn new(inner: O, tracer: &'t Tracer, parent: Option<u64>) -> Self {
        Self {
            inner,
            tracer,
            parent,
            pass_s: RefCell::new(Vec::new()),
        }
    }

    fn timed<T>(&self, f: impl FnOnce(&O) -> T) -> T {
        let open = self.tracer.start();
        let out = f(&self.inner);
        let d = self.tracer.finish(open, "loss.pass", self.parent);
        self.pass_s.borrow_mut().push(d.as_secs_f64());
        out
    }

    /// Wall time of each pass, in seconds, in call order (every entry point
    /// walks the data once, so its length is the pass count).
    pub fn pass_seconds(&self) -> Vec<f64> {
        self.pass_s.borrow().clone()
    }

    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: SmoothObjective> SmoothObjective for TimedObjective<'_, O> {
    fn value(&self, theta: &Matrix) -> f64 {
        self.timed(|o| o.value(theta))
    }
    fn gradient(&self, theta: &Matrix, grad: &mut Matrix) {
        self.timed(|o| o.gradient(theta, grad))
    }
    fn value_and_gradient(&self, theta: &Matrix, grad: &mut Matrix) -> f64 {
        self.timed(|o| o.value_and_gradient(theta, grad))
    }
    fn shape(&self) -> (usize, usize) {
        self.inner.shape()
    }
    fn row_curvature_bounds(&self) -> Option<Vec<f64>> {
        self.tracer
            .span("loss.curvature", self.parent, || {
                self.inner.row_curvature_bounds()
            })
            .0
    }
}

/// Decorator over a [`GenerativePredictor`]: counts and times every
/// `predict_distribution` call and keeps the first `capture` inputs for the
/// one-level-down replays.
pub struct TimedPredictor<'a, P> {
    inner: &'a P,
    tracer: &'a Tracer,
    parent: Cell<Option<u64>>,
    calls: Cell<usize>,
    busy: Cell<Duration>,
    capture: usize,
    captured: RefCell<Vec<RawSample>>,
}

impl<'a, P> TimedPredictor<'a, P> {
    pub fn new(inner: &'a P, tracer: &'a Tracer, capture: usize) -> Self {
        Self {
            inner,
            tracer,
            parent: Cell::new(None),
            calls: Cell::new(0),
            busy: Cell::new(Duration::ZERO),
            capture,
            captured: RefCell::new(Vec::new()),
        }
    }

    /// Parent span for the calls that follow.
    pub fn set_parent(&self, parent: Option<u64>) {
        self.parent.set(parent);
    }

    pub fn calls(&self) -> usize {
        self.calls.get()
    }

    pub fn busy_s(&self) -> f64 {
        self.busy.get().as_secs_f64()
    }

    pub fn take_captured(&self) -> Vec<RawSample> {
        self.captured.take()
    }
}

impl<P: FlowPredictor> FlowPredictor for TimedPredictor<'_, P> {
    fn method(&self) -> MethodId {
        self.inner.method()
    }
    fn predict_sample(&self, sample: &RawSample) -> Prediction {
        self.inner.predict_sample(sample)
    }
}

impl<P: GenerativePredictor> GenerativePredictor for TimedPredictor<'_, P> {
    fn predict_distribution(&self, sample: &RawSample) -> (Vec<f64>, Vec<f64>) {
        let open = self.tracer.start();
        let out = self.inner.predict_distribution(sample);
        let d = self
            .tracer
            .finish(open, "scenario.predict", self.parent.get());
        self.calls.set(self.calls.get() + 1);
        self.busy.set(self.busy.get() + d);
        if self.captured.borrow().len() < self.capture {
            self.captured.borrow_mut().push(sample.clone());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfp_baselines::{DmcpPredictor, MethodId};
    use pfp_core::loss::DmcpObjective;
    use pfp_core::{Dataset, TrainConfig};
    use pfp_ehr::{generate_cohort, CohortConfig};

    fn dataset() -> Dataset {
        Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(5)))
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn timed_objective_is_transparent() {
        let ds = dataset();
        let kind = ds.default_mcp_kind();
        let samples = ds.featurize(kind);
        let m = ds.total_feature_dim();
        let k = ds.num_cus + ds.num_durations;
        let plain = DmcpObjective::new(&samples, None, m, ds.num_cus, ds.num_durations);
        let tracer = Tracer::new();
        let timed = TimedObjective::new(
            DmcpObjective::new(&samples, None, m, ds.num_cus, ds.num_durations),
            &tracer,
            None,
        );
        let theta = Matrix::from_fn(m, k, |r, c| ((r * k + c) as f64 * 0.013).sin());
        let (mut g1, mut g2) = (Matrix::zeros(m, k), Matrix::zeros(m, k));
        assert_eq!(plain.value(&theta).to_bits(), timed.value(&theta).to_bits());
        plain.gradient(&theta, &mut g1);
        timed.gradient(&theta, &mut g2);
        assert_eq!(bits(&g1), bits(&g2));
        let v1 = plain.value_and_gradient(&theta, &mut g1);
        let v2 = timed.value_and_gradient(&theta, &mut g2);
        assert_eq!(v1.to_bits(), v2.to_bits());
        assert_eq!(bits(&g1), bits(&g2));
        assert_eq!(plain.shape(), timed.shape());
        assert_eq!(plain.row_curvature_bounds(), timed.row_curvature_bounds());
        assert_eq!(timed.pass_seconds().len(), 3);
        let spans = tracer.spans();
        assert_eq!(spans.iter().filter(|s| s.name == "loss.pass").count(), 3);
        assert_eq!(
            spans.iter().filter(|s| s.name == "loss.curvature").count(),
            1
        );
    }

    #[test]
    fn timed_predictor_is_transparent() {
        let ds = dataset();
        let predictor = DmcpPredictor::train(&ds, &TrainConfig::fast(), MethodId::Dmcp);
        let tracer = Tracer::new();
        let timed = TimedPredictor::new(&predictor, &tracer, 2);
        for raw in ds.samples.iter().take(5) {
            let (c1, d1) = predictor.predict_distribution(raw);
            let (c2, d2) = timed.predict_distribution(raw);
            let b = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(b(&c1), b(&c2));
            assert_eq!(b(&d1), b(&d2));
            assert_eq!(predictor.predict_sample(raw), timed.predict_sample(raw));
        }
        assert_eq!(timed.method(), predictor.method());
        assert_eq!(timed.calls(), 5);
        assert_eq!(timed.take_captured().len(), 2);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, s, e| Span {
            name: "x",
            id,
            parent: None,
            start_ns: s,
            end_ns: e,
        };
        let parent = span(1, 0, 100);
        let a = span(2, 10, 30);
        let b = span(3, 20, 50); // overlaps a
        let c = span(4, 90, 120); // clipped at the parent's end
        assert_eq!(self_time_ns(&parent, &[&a, &b, &c]), 100 - 40 - 10);
        assert_eq!(self_time_ns(&parent, &[]), 100);
    }
}
