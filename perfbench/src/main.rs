//! Benchmark runner: runs one named workload from a seed for a fixed
//! number of seconds, checks its outputs, and prints every metric by name
//! and unit. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! perfbench --workload <twin_offline|transcribe|pool_sim> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics, with `--trace 1`
//! the per-layer metrics (see `README.md` in this directory).

mod arrivals;
mod harness;
mod pool;
mod probe;
mod reference;
mod stats;
mod trace;
mod transcribe;
mod twin;

use harness::{drive, sweep, Report, Workload};
use std::process::ExitCode;
use trace::{layer_times, Tracer};

/// The three workloads, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [&str; 3] = ["twin_offline", "transcribe", "pool_sim"];

/// End-to-end metrics, reported with tracing off.
pub const END_TO_END: [&str; 4] = ["setup_s", "op_s_p10", "utt_per_s", "peak_rss_mb"];

/// The op-time percentile the end-to-end metrics use. On a shared host,
/// other tenants' load comes in bursts that slow the ops they cover by up
/// to 2x and move a run's median op by up to 60 % between runs of the
/// same work, while the fastest tenth of the ops moves far less; with
/// fewer than ten ops it is the fastest op.
const OP_QUANTILE: f64 = 0.10;

/// Per-layer metrics, reported by a traced run of any workload.
pub const PER_LAYER: [&str; 43] = [
    "transformer.seed_s",
    "integrity.load_s",
    "integrity.load_mb_per_s",
    "integrity.interpret_s",
    "integrity.abft_tiles",
    "systolic.psa_gflops_m32",
    "systolic.checked_gflops_m32",
    "systolic.abft_overhead_m32",
    "systolic.psa_gflops_m4",
    "systolic.abft_overhead_m4",
    "systolic.matmul_calls",
    "systolic.wide_gflops",
    "systolic.skinny_gflops",
    "systolic.matmul_share_of_decode",
    "frontend.fbank_s",
    "frontend.subsample_s",
    "transformer.encode_s",
    "transformer.decode_s",
    "transformer.decode_steps",
    "transformer.decode_other_s",
    "transformer.tok_per_s",
    "plan.lower_us",
    "plan.walk_us",
    "host_runtime.us_per_cmd",
    "serve.host_us_per_req",
    "stream.host_us_per_chunk",
    "cluster.host_us_per_req",
    "serve.dispatches",
    "serve.mean_batch",
    "serve.failovers",
    "serve.resumed",
    "serve.breaker_opens",
    "serve.queue_ms_mean",
    "serve.queue_ms_p99",
    "serve.service_ms_mean",
    "serve.sim_p99_ms",
    "serve.sim_miss_frac",
    "serve.steady_rps",
    "stream.elided_fraction",
    "stream.replayed",
    "cluster.handoffs",
    "cluster.lost",
    "trace.overhead_frac",
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {}", flag))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{} needs a value", flag))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{}' (expected one of {:?})", workload, WORKLOADS));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {}", e))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {}", e))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {}", seconds));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{}'", other)),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn make(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "twin_offline" => Box::new(twin::Twin::new(seed)),
        "transcribe" => Box::new(transcribe::Transcribe::new(seed)),
        _ => Box::new(pool::PoolSim::new(seed)),
    }
}

/// Set-ups per run: each is a fresh build plus one untimed op, and
/// `setup_s` is their median.
fn setups(name: &str) -> usize {
    match name {
        "pool_sim" => 45,
        _ => 2,
    }
}

/// Whether a workload's op times are scaled to the reference speed
/// (`reference.rs`). `pool_sim`'s event loops slow with the host's other
/// tenants nearly as much as the reference kernel does, so scaling removes
/// most of their run-to-run spread. `transcribe`'s decode slows far less
/// than the kernel, and scaling it turned one run in a slow stretch into a
/// 35 % outlier; its times, and `twin_offline`'s, are reported as measured.
/// Set-up times are never scaled: `pool_sim`'s set-ups are too short for
/// the kernel to sample their stretch, and scaling them widened their
/// spread from 0.25 to 0.40.
fn scaled(name: &str) -> bool {
    name == "pool_sim"
}

/// Peak resident set of this process, MB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {}", e))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A JSON number, or `null` for a non-finite value.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{}", v)
    } else {
        "null".into()
    }
}

fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let tr = Tracer::new(false);
    let mut w = make(&args.workload, args.seed);
    println!(
        "workload {} seed {} for {} s, trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let d = drive(
        &mut *w,
        setups(&args.workload),
        args.seconds,
        args.trace,
        scaled(&args.workload) && !args.trace,
        &tr,
        &mut rep,
    );
    // Read before the modeled figures, whose probes are not the workload.
    let peak_rss = peak_rss_mb();
    let op_p50 = stats::median(&d.op_s).unwrap_or(f64::NAN);
    let op_p10 = stats::percentile(&d.op_s, OP_QUANTILE).unwrap_or(f64::NAN);
    println!(
        "ops: {} timed ({} traced), {} set-ups; closed loop, one client",
        d.op_s.len(),
        d.traced_ops,
        d.setup_s.len()
    );
    if let (Some(lo), Some(hi)) = (stats::percentile(&d.op_s, 0.0), stats::percentile(&d.op_s, 1.0))
    {
        println!("op seconds: min {:.6}, median {:.6}, max {:.6}", lo, op_p50, hi);
    }
    println!("set-up seconds: {:?}", d.setup_s);
    w.modeled(&mut rep);

    if !args.trace {
        if let Some(q) = stats::supported_percentile(d.op_s.len()).filter(|&q| q > 0.5) {
            let v = stats::percentile(&d.op_s, q).unwrap_or(f64::NAN);
            println!("op seconds p{}: {:.6} s ({} ops)", q * 100.0, v, d.op_s.len());
        }
        let scale = d.scale();
        if let Some(r) = &d.reference {
            println!(
                "host speed: reference kernel p10 {:.6} s over {} samples in the window; op times below are scaled to its {} s",
                reference::NOMINAL_S / scale,
                r.samples.len(),
                reference::NOMINAL_S
            );
        }
        println!(
            "as measured: op p10 {:.6} s, op median {:.6} s, {:.6} items/s over the window",
            op_p10,
            op_p50,
            d.items / d.op_s.iter().sum::<f64>()
        );
        rep.metric("setup_s", d.setup_p50(), "s");
        println!("  (median of {} set-ups)", d.setup_s.len());
        rep.metric("op_s_p10", op_p10 * scale, "s");
        println!("  (p10 of {} ops)", d.op_s.len());
        rep.metric("utt_per_s", w.items_per_op() / (op_p10 * scale), "1/s");
        println!("  (at the p10 op)");
        match peak_rss {
            Ok(mb) => rep.metric("peak_rss_mb", mb, "MB"),
            Err(e) => rep.check("peak_rss_mb", Err(e)),
        }
        return rep;
    }

    // A traced run covers every layer: one traced op of each other
    // workload, then the fixed probes.
    let mut others: Vec<Box<dyn Workload>> = WORKLOADS
        .iter()
        .filter(|&&n| n != args.workload)
        .map(|&n| {
            let mut o = make(n, args.seed);
            sweep(&mut *o, &tr, &mut rep);
            o
        })
        .collect();
    probe::run(&tr, &mut rep);
    let spans = tr.spans();
    w.layers(&spans, &mut rep);
    for o in &mut others {
        o.layers(&spans, &mut rep);
    }
    // Tracing overhead: the measured workload's traced ops (their root
    // span) against its untraced ops.
    let traced = trace::durations(&spans, w.root_span());
    let overhead = stats::median(&traced).unwrap_or(f64::NAN) / op_p50 - 1.0;
    rep.metric("trace.overhead_frac", overhead, "ratio");
    println!("self time by span ({} spans):", spans.len());
    for (name, t) in layer_times(&spans) {
        println!(
            "  {:<40} {:>7} spans {:>12.6} s total {:>12.6} s self",
            name, t.count, t.total_s, t.self_s
        );
    }
    rep
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {}", e);
            return ExitCode::from(2);
        }
    };
    let rep = run(&args);
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut errors = rep.errors.clone();
    let mut metrics = Vec::new();
    for &name in names {
        match rep.metrics.get(name) {
            Some(&(v, unit)) => {
                if !v.is_finite() {
                    errors.push(format!("metric {} is not a finite number", name));
                }
                metrics.push(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    name,
                    json_number(v),
                    unit
                ));
            }
            None => errors.push(format!("metric {} was not measured", name)),
        }
    }
    for e in &errors {
        println!("CHECK FAILED: {}", e);
    }
    println!(
        "attempted {} ops, failed {}; outputs {}",
        rep.attempted,
        rep.failed,
        if errors.is_empty() { "correct" } else { "NOT correct" }
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload pool_sim --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a, Args { workload: "pool_sim".into(), seed: 7, seconds: 10.0, trace: true });
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload transcribe --seed x --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload transcribe --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload transcribe --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload transcribe --seed 1 --seconds 5")).is_err());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap_or_default())
            .collect();
        let mut ours: Vec<&str> = WORKLOADS.to_vec();
        ours.extend(END_TO_END);
        ours.extend(PER_LAYER);
        assert_eq!(names, ours);
    }
}
