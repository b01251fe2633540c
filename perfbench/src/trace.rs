//! In-memory span tracing around calls into the library's layers.
//!
//! A span has a name, a start, an end, the span that was open when it
//! began (its parent), and the id of the op it belongs to. Spans stay in
//! memory and are summarised when the run ends. When tracing is off a
//! span costs one branch: no clock read, no lock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `frontend.fbank`.
    pub name: &'static str,
    /// Op the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the tracer was created.
    pub start_s: f64,
    /// End, seconds since the tracer was created (`NaN` while open).
    pub end_s: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Span recorder; shared by reference (it is `Sync`, so a `MatMul`
/// adapter can hold it). Recording can be switched on and off between
/// ops, so one run can alternate traced and untraced ops.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    state: Mutex<State>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    idx: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let end = self.tracer.now_s();
            // A poisoned lock means a span user panicked; the run is failing
            // anyway, so the span is simply left open.
            if let Ok(mut st) = self.tracer.state.lock() {
                st.spans[idx].end_s = end;
                if st.open.last() == Some(&idx) {
                    st.open.pop();
                }
            }
        }
    }
}

/// Per-name totals over closed spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: usize,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus time covered by child spans).
    pub self_s: f64,
}

impl Tracer {
    /// A tracer that records when `enabled`, and does nothing otherwise.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        // Relaxed: a plain flag, read and written by the one benchmark thread.
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off for the spans opened from now on.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Start a new op: spans opened from now on carry its id.
    pub fn begin_op(&self) -> u64 {
        let mut st = self.state.lock().expect("tracer lock poisoned by a panicking span user");
        st.op += 1;
        st.op
    }

    /// Open a span named `name`, closed when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard { tracer: self, idx: None };
        }
        let start = self.now_s();
        let mut st = self.state.lock().expect("tracer lock poisoned by a panicking span user");
        let idx = st.spans.len();
        let (op, parent) = (st.op, st.open.last().copied());
        st.spans.push(Span { name, op, parent, start_s: start, end_s: f64::NAN });
        st.open.push(idx);
        SpanGuard { tracer: self, idx: Some(idx) }
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state.lock().expect("tracer lock poisoned by a panicking span user").spans.clone()
    }
}

/// Self time per span name: each span's duration minus the part of it its
/// children cover (children of one span never overlap: the benchmark is
/// single-threaded). Open spans are skipped.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_s = vec![0.0f64; spans.len()];
    for s in spans.iter().filter(|s| s.end_s.is_finite()) {
        if let Some(p) = s.parent {
            child_s[p] += s.dur_s();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.end_s.is_finite()) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_s += s.dur_s();
        e.self_s += s.dur_s() - child_s[i];
    }
    out
}

/// Durations of every closed span named `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name && s.end_s.is_finite()).map(Span::dur_s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span { name, op: 1, parent, start_s, end_s }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("op", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 4.0),
            span("b", Some(1), 2.0, 3.0),
            span("a", Some(0), 5.0, 6.0),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["op"], LayerTime { count: 1, total_s: 10.0, self_s: 6.0 });
        assert_eq!(t["a"], LayerTime { count: 2, total_s: 4.0, self_s: 3.0 });
        assert_eq!(t["b"], LayerTime { count: 1, total_s: 1.0, self_s: 1.0 });
        assert_eq!(durations(&spans, "a"), vec![3.0, 1.0]);
    }

    #[test]
    fn tracer_links_parents_and_ops() {
        let tr = Tracer::new(true);
        let op = tr.begin_op();
        {
            let _outer = tr.span("outer");
            let _inner = tr.span("inner");
        }
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == op && s.end_s >= s.start_s));
        let _after = tr.span("sibling");
        assert_eq!(tr.spans()[2].parent, None);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        tr.begin_op();
        drop(tr.span("x"));
        assert!(tr.spans().is_empty());
    }
}
