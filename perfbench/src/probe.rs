//! Fixed per-layer probes of a traced run: the PSA kernel per shape, plan
//! lowering and walking, and the runtime executor per command. Each probe
//! times calls to one crate's public functions and reports the median.

use crate::harness::Report;
use crate::stats;
use crate::trace::Tracer;
use asr_accel::{
    run_plan_with_recovery, walk_cost, AccelConfig, Architecture, ExecPlan, RecoveryPolicy,
};
use asr_fpga_sim::faults::FaultPlan;
use asr_systolic::abft::{CheckedPsa, IntegrityLevel};
use asr_tensor::{init, Matrix};
use std::hint::black_box;
use std::time::Instant;

/// The encoder's matmul shapes `(K, N)`: projections, FFN up and down, and
/// one attention head's score product.
pub const SHAPES: [(usize, usize); 4] = [(512, 512), (512, 2048), (2048, 512), (64, 32)];

/// Median seconds of `f` over repetitions filling about `budget_s`
/// (at least 3).
fn median_time<T>(budget_s: f64, mut f: impl FnMut() -> T) -> f64 {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 3 || start.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        black_box(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    stats::median(&times).expect("at least three samples")
}

/// Plain and ABFT-checked PSA rates over [`SHAPES`] at `m` rows:
/// `(plain GFLOP/s, checked GFLOP/s, checked/plain time ratio)`.
fn psa_rates(cfg: &AccelConfig, m: usize, tr: &Tracer) -> (f64, f64, f64) {
    let psa = cfg.psa_engine();
    let checked = CheckedPsa::new(cfg.psa_engine(), IntegrityLevel::DetectAndRecompute);
    let (mut flops, mut plain_s, mut checked_s) = (0.0, 0.0, 0.0);
    for (i, &(k, n)) in SHAPES.iter().enumerate() {
        let a: Matrix = init::uniform(m, k, -1.0, 1.0, 1 + i as u64);
        let b: Matrix = init::uniform(k, n, -1.0, 1.0, 100 + i as u64);
        let _s = tr.span("systolic.probe");
        let p = median_time(0.05, || psa.matmul(&a, &b));
        let c = median_time(0.05, || checked.matmul(&a, &b));
        let f = 2.0 * (m * k * n) as f64;
        let bytes = 4 * (m * k + k * n + m * n);
        println!(
            "  psa {:>4}x{:<4}x{:<4}  {:>8.3} GFLOP/s plain  {:>8.3} checked  x{:.2}  {:>9} B moved/call",
            m,
            k,
            n,
            f / p / 1e9,
            f / c / 1e9,
            c / p,
            bytes
        );
        flops += f;
        plain_s += p;
        checked_s += c;
    }
    (flops / plain_s / 1e9, flops / checked_s / 1e9, checked_s / plain_s)
}

/// Run every probe and record its metrics.
pub fn run(tr: &Tracer, out: &mut Report) {
    let cfg = AccelConfig::paper_default();
    tr.set_enabled(true);
    tr.begin_op();
    println!("systolic shape probe (M x K x N; bytes are computed: A + B + C, f32):");
    let (plain32, checked32, over32) = psa_rates(&cfg, 32, tr);
    let (plain4, _, over4) = psa_rates(&cfg, 4, tr);
    out.metric("systolic.psa_gflops_m32", plain32, "GFLOP/s");
    out.metric("systolic.checked_gflops_m32", checked32, "GFLOP/s");
    out.metric("systolic.abft_overhead_m32", over32, "ratio");
    out.metric("systolic.psa_gflops_m4", plain4, "GFLOP/s");
    out.metric("systolic.abft_overhead_m4", over4, "ratio");

    let level = IntegrityLevel::DetectAndRecompute;
    let lower =
        || ExecPlan::lower(&cfg, Architecture::A2, 32, 8, level).expect("paper default lowers");
    let plan = lower();
    let lower_s = {
        let _s = tr.span("plan.lower");
        median_time(0.1, lower)
    };
    let walk_s = {
        let _s = tr.span("plan.walk_cost");
        median_time(0.1, || walk_cost(&cfg, &plan))
    };
    out.metric("plan.lower_us", lower_s * 1e6, "us");
    out.metric("plan.walk_us", walk_s * 1e6, "us");

    // The serve pool's deployment plan: int8 build at s = 4, a full batch.
    let dcfg = crate::pool::serve_config(1.0, 1).accel;
    let dplan = ExecPlan::lower(&dcfg, Architecture::A3, 4, crate::pool::MAX_BATCH, level)
        .expect("deployment config lowers");
    let policy = RecoveryPolicy::default();
    let run = || run_plan_with_recovery(&dcfg, &dplan, FaultPlan::none(), &policy).is_ok();
    out.check("fault-free deployment plan", run().then_some(()).ok_or("run failed".into()));
    let run_s = {
        let _s = tr.span("host_runtime.run_plan_with_recovery");
        median_time(0.1, run)
    };
    out.metric("host_runtime.us_per_cmd", run_s * 1e6 / dplan.nodes.len() as f64, "us");
    tr.set_enabled(false);
}
