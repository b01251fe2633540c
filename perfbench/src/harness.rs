//! The closed loop every workload runs under: timed set-up, untimed
//! one-off checks, then one op at a time for the measured window.

use crate::reference::Reference;
use crate::stats;
use crate::trace::{Span, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// What the harness needs from a workload. Inputs are generated from the
/// seed when the workload value is created, before any timing.
pub trait Workload {
    /// Name of the span that wraps an op's work.
    fn root_span(&self) -> &'static str;
    /// Units of work one op completes, for `utt_per_s`.
    fn items_per_op(&self) -> f64;
    /// (Re)build everything an op needs. Timed as part of set-up.
    fn build(&mut self, tr: &Tracer);
    /// One op. `Err` names the correctness check that failed.
    fn op(&mut self, tr: &Tracer) -> Result<(), String>;
    /// One-off, untimed checks against a reference, run after set-up.
    fn verify(&mut self) -> Result<(), String>;
    /// Modeled figures for the report lines (untimed).
    fn modeled(&mut self, out: &mut Report);
    /// Per-layer metrics from the traced ops' spans.
    fn layers(&mut self, spans: &[Span], out: &mut Report);
}

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops run, set-up ops included.
    pub attempted: u64,
    /// Ops whose checks failed.
    pub failed: u64,
    /// Failed checks, one line each (ops and one-off checks).
    pub errors: Vec<String>,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    /// Record a metric, printing it as a report line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("{:<34} {:>14.6} {}", name, value, unit);
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Account for one op's outcome.
    pub fn op(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            self.errors.push(format!("{}: {}", what, e));
        }
    }

    /// Account for a one-off check (not an op).
    pub fn check(&mut self, what: &str, r: Result<(), String>) {
        if let Err(e) = r {
            self.errors.push(format!("{}: {}", what, e));
        }
    }
}

/// Whether two matrices hold the same values bit for bit.
pub fn bit_identical(a: &asr_tensor::Matrix, b: &asr_tensor::Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Host-time results of one driven workload.
#[derive(Debug, Default)]
pub struct Driven {
    /// Set-up seconds, one per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Untraced op seconds in the measured window.
    pub op_s: Vec<f64>,
    /// Ops run with tracing on (only when ops alternate).
    pub traced_ops: usize,
    /// Items completed by the untraced ops.
    pub items: f64,
    /// Host-speed reference samples taken between the window's ops, for a
    /// workload whose op times are scaled to the reference speed.
    pub reference: Option<Reference>,
}

impl Driven {
    /// Median set-up seconds.
    pub fn setup_p50(&self) -> f64 {
        stats::median(&self.setup_s).unwrap_or(f64::NAN)
    }

    /// What op times are multiplied by: the window's scale to the
    /// reference speed, or 1 for an unscaled workload.
    pub fn scale(&self) -> f64 {
        self.reference.as_ref().map_or(1.0, |r| Reference::scale(&r.samples))
    }
}

/// Set up `setups` times (each a fresh build plus the first, untimed op),
/// run the one-off checks, then issue ops for `seconds`. With `alternate`
/// every other op runs with tracing on (for the tracing overhead). With
/// `reference` the host-speed reference kernel runs between the window's
/// ops, outside their timings.
pub fn drive(
    w: &mut dyn Workload,
    setups: usize,
    seconds: f64,
    alternate: bool,
    reference: bool,
    tr: &Tracer,
    rep: &mut Report,
) -> Driven {
    let mut d = Driven::default();
    tr.set_enabled(false);
    for _ in 0..setups.max(1) {
        let t0 = Instant::now();
        w.build(tr);
        let r = w.op(tr);
        d.setup_s.push(t0.elapsed().as_secs_f64());
        rep.op("set-up op", r);
    }
    let r = w.verify();
    rep.check("reference check", r);

    d.reference = reference.then(Reference::new);
    let start = Instant::now();
    let mut i = 0usize;
    // At least one untraced op, and one traced op when alternating.
    while start.elapsed().as_secs_f64() < seconds
        || d.op_s.is_empty()
        || (alternate && d.traced_ops == 0)
    {
        let traced = alternate && i % 2 == 1;
        tr.set_enabled(traced);
        tr.begin_op();
        let t0 = Instant::now();
        let r = w.op(tr);
        let dt = t0.elapsed().as_secs_f64();
        tr.set_enabled(false);
        if traced {
            d.traced_ops += 1;
        } else {
            d.op_s.push(dt);
            d.items += w.items_per_op();
        }
        rep.op("op", r);
        if let Some(reference) = d.reference.as_mut() {
            reference.catch_up();
        }
        i += 1;
    }
    d
}

/// One traced op of a workload that is not the one being measured, so
/// that a traced run covers every layer: build, then a single op.
pub fn sweep(w: &mut dyn Workload, tr: &Tracer, rep: &mut Report) {
    tr.set_enabled(false);
    w.build(tr);
    tr.set_enabled(true);
    tr.begin_op();
    let r = w.op(tr);
    tr.set_enabled(false);
    rep.op("sweep op", r);
}
