//! `asrsim` — command-line front end to the accelerator simulator.
//!
//! ```text
//! asrsim latency   [--s N]             E2E latency report (§5.1.6)
//! asrsim report    [--s N]             combined latency/resource/energy report
//! asrsim arch      [--s N]             A1/A2/A3 comparison at one length
//! asrsim dse                           Table 5.3 design-space exploration
//! asrsim quant                         fixed-point (int8) report (§6.2)
//! asrsim breakdown [--s N]             per-block latency breakdown (§5.1.4)
//! asrsim pipeline  [--s N] [--n K]     pipelined batch throughput
//! asrsim trace <out.json> [--s N]      A3 schedule as Chrome trace JSON
//! asrsim plan      [--s N] [--arch a1|a2|a3] [--batch B]
//!                  [--integrity off|detect|detect-recompute]
//!                  [--encoding dense|int8|bc:<B>|sparse:<T>[@OCC]]
//!                                      lowered ExecPlan dump: command counts,
//!                                      prefetch edges, critical path,
//!                                      per-channel HBM load bytes, and the
//!                                      encoded (on-the-wire) traffic plus
//!                                      zero-tile compute skipped by the
//!                                      chosen stripe encoding
//! asrsim plan --decode [--s N] [--arch a1|a2|a3] [--beam B] [--steps T]
//!                  [--step K] [--integrity off|detect|detect-recompute]
//!                                      per-step decode plans: cold vs
//!                                      steady-state load bytes, the elided
//!                                      fraction KV residency buys, and the
//!                                      steady ms/token critical path
//! asrsim decode    [--beam B] [--steps T] [--mem M] [--fault-seed S]
//!                                      functional decode smoke: runs the
//!                                      plan-lowered beam decode clean and
//!                                      under seeded silent faults, fails on
//!                                      any transcript divergence or if the
//!                                      steady steps elide nothing
//! asrsim csv <fig5.2|table5.1|ii>      sweep data as CSV on stdout
//! asrsim faults <seed> [--s N] [--arch a1|a2|a3] [--integrity off|detect|detect-recompute]
//!                                      fault-injected run: degraded vs nominal
//! asrsim faults <seed> --checkpoint [--batch B] [--kill LABEL]
//!                                      kill a batched run mid-flight, dump the
//!                                      barrier checkpoint, then resume the
//!                                      suffix on a clean spare and compare
//!                                      against a full restart
//! asrsim --faults <seed> [--s N]       same, as a flag
//! asrsim serve [--devices N] [--faults SEED] [--rps R] [--deadline-ms D]
//!              [--n K] [--queue Q] [--batch B] [--linger-ms L]
//!              [--integrity off|detect|detect-recompute]
//!              [--checkpoint] [--kill LABEL]
//!                                      multi-device serving runtime with
//!                                      dynamic batching; --checkpoint resumes
//!                                      failed batches from their barrier
//!                                      frontier, --kill plants a persistent
//!                                      load fault on card 0
//! asrsim stream [--streams N] [--chunk-ms C] [--deadline-ms D]
//!               [--faults SEED] [--jitter-ms J] [--devices K] [--chunks M]
//!               [--integrity off|detect|detect-recompute]
//!                                      fault-tolerant streaming sessions:
//!                                      chunked plans with resident-weight
//!                                      reuse, per-chunk deadlines with stale
//!                                      shedding, bounded session queues, and
//!                                      mid-stream failover that replays only
//!                                      the unfinished chunk
//! asrsim cluster [--nodes N] [--devices K] [--rps R] [--deadline-ms D]
//!                [--n REQS] [--sessions S] [--seed SEED]
//!                [--trace steady|diurnal|bursty] [--no-checkpoint]
//!                [--kill-node N@T] [--dropout N@T+O] [--hbm-burst N@T]
//!                [--partition N@T+D] [--upgrade V] [--upgrade-at T]
//!                                      multi-node cluster: each node is one
//!                                      fault domain (a ServePool) behind a
//!                                      session-affinity router; node-granular
//!                                      faults, cross-node checkpointed
//!                                      failover, rolling weight upgrades
//! asrsim bench --check [--out FILE] [--tolerance F]
//!                                      regression gate: compare the last two
//!                                      trajectory entries and exit nonzero
//!                                      on a >10% slide in sustainable rps,
//!                                      analytic E2E latency, decode steady
//!                                      ms/token, or the steady-state elided
//!                                      load fraction
//! asrsim bench [--out FILE] [--label L] benchmark trajectory: appends one
//!                                      entry (tagged with the git rev and a
//!                                      PR label) of plan lowering time,
//!                                      analytic E2E latency, sustainable
//!                                      serve/cluster rps, replayed-work
//!                                      with/without checkpointing, streaming
//!                                      latency, upgrade downtime, and
//!                                      failover-added p99
//!                                      (default BENCH_serve.json)
//! ```
//!
//! Failures are one-line typed errors with distinct exit codes so scripts
//! can tell them apart: 2 = usage, 3 = bad flag value, 4 = contradictory
//! flags, 5 = configuration the simulator refused, 6 = filesystem error.

use std::process::ExitCode;
use transformer_asr_accel::accel::arch::{simulate, Architecture};
use transformer_asr_accel::accel::cluster::{
    Cluster, ClusterConfig, NodeFault, TrafficTrace, UpgradeConfig,
};
use transformer_asr_accel::accel::serve::{pool_fault_plans, ServeConfig, ServePool, ServeReport};
use transformer_asr_accel::accel::stream::{stream_analytics, StreamConfig, StreamPool};
use transformer_asr_accel::accel::{
    decode_analytics, dse, latency, pipeline, quant, run_functional_decode, run_plan_with_recovery,
    sweep, walk_cost, AccelConfig, ExecPlan, FunctionalFaults, HostController, RecoveryPolicy,
};
use transformer_asr_accel::fpga::trace::to_chrome_trace;
use transformer_asr_accel::fpga::{FaultKind, FaultPlan};
use transformer_asr_accel::systolic::abft::IntegrityLevel;
use transformer_asr_accel::tensor::WeightEncoding;

/// Typed one-line CLI failure. Each variant maps to its own exit code so a
/// harness can distinguish a typo (3) from an impossible combination (4)
/// from a configuration the simulator itself refused (5).
#[derive(Debug)]
enum CliError {
    /// Unknown command or missing required argument (exit 2).
    Usage(String),
    /// A flag's value failed to parse or is out of range (exit 3).
    BadValue(String),
    /// Flags that are valid alone but contradictory together (exit 4).
    BadCombo(String),
    /// The simulator rejected the configuration with a typed error (exit 5).
    Rejected(String),
    /// Filesystem failure (exit 6).
    Io(String),
}

impl CliError {
    fn exit(self) -> ExitCode {
        let (kind, code, msg) = match &self {
            CliError::Usage(m) => ("usage", 2, m),
            CliError::BadValue(m) => ("bad value", 3, m),
            CliError::BadCombo(m) => ("bad combination", 4, m),
            CliError::Rejected(m) => ("rejected", 5, m),
            CliError::Io(m) => ("io error", 6, m),
        };
        eprintln!("asrsim: {}: {}", kind, msg);
        ExitCode::from(code)
    }
}

fn finish(r: Result<(), CliError>) -> ExitCode {
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => e.exit(),
    }
}

/// Like [`parse_flag`], but a present flag with a missing or unparsable
/// value is a typed error instead of silently becoming the default.
fn parse_usize_strict(args: &[String], flag: &str, default: usize) -> Result<usize, CliError> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(default);
    };
    let v = args.get(i + 1).map(String::as_str).unwrap_or("");
    v.parse().map_err(|_| {
        CliError::BadValue(format!("{} expects an unsigned integer, got '{}'", flag, v))
    })
}

fn parse_f64_strict(args: &[String], flag: &str, default: f64) -> Result<f64, CliError> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(default);
    };
    let v = args.get(i + 1).map(String::as_str).unwrap_or("");
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(x),
        _ => Err(CliError::BadValue(format!("{} expects a finite number, got '{}'", flag, v))),
    }
}

/// Every value of a repeatable flag, in order.
fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| a.as_str() == flag)
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

/// `NODE@TIME` or `NODE@TIME+DURATION` fault spec (e.g. `0@0.5`, `1@0.5+0.3`).
fn parse_fault_spec(flag: &str, v: &str, duration: bool) -> Result<(usize, f64, f64), CliError> {
    let shape = if duration { "NODE@TIME+DURATION" } else { "NODE@TIME" };
    let bad = || CliError::BadValue(format!("{} expects {}, got '{}'", flag, shape, v));
    let (node_s, rest) = v.split_once('@').ok_or_else(bad)?;
    let node: usize = node_s.parse().map_err(|_| bad())?;
    let (at_s, dur_s) = if duration {
        let (t, d) = rest.split_once('+').ok_or_else(bad)?;
        (t.parse::<f64>().map_err(|_| bad())?, d.parse::<f64>().map_err(|_| bad())?)
    } else {
        (rest.parse::<f64>().map_err(|_| bad())?, 0.0)
    };
    if !at_s.is_finite() || !dur_s.is_finite() || at_s < 0.0 || dur_s < 0.0 {
        return Err(bad());
    }
    Ok((node, at_s, dur_s))
}

fn parse_flag(args: &[String], flag: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn parse_str_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parse_f64_flag(args: &[String], flag: &str, default: f64) -> f64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `--integrity off|detect|detect-recompute` (default off). `Err` carries
/// the bad value.
fn parse_integrity_flag(args: &[String]) -> Result<IntegrityLevel, String> {
    let Some(i) = args.iter().position(|a| a == "--integrity") else {
        return Ok(IntegrityLevel::Off);
    };
    let v = args.get(i + 1).map(String::as_str).unwrap_or("");
    IntegrityLevel::parse(&v.to_ascii_lowercase()).ok_or_else(|| v.to_string())
}

/// `--encoding dense|int8|bc:<B>|sparse:<T>[@OCC]` (default dense). `Err`
/// carries the bad value.
fn parse_encoding_flag(args: &[String]) -> Result<WeightEncoding, String> {
    let Some(i) = args.iter().position(|a| a == "--encoding") else {
        return Ok(WeightEncoding::Dense);
    };
    let v = args.get(i + 1).map(String::as_str).unwrap_or("");
    parse_encoding(&v.to_ascii_lowercase()).ok_or_else(|| v.to_string())
}

fn parse_encoding(v: &str) -> Option<WeightEncoding> {
    match v {
        "dense" => Some(WeightEncoding::Dense),
        "int8" => Some(WeightEncoding::Int8),
        _ => {
            if let Some(block) = v.strip_prefix("bc:") {
                return Some(WeightEncoding::BlockCirculant { block: block.parse().ok()? });
            }
            let rest = v.strip_prefix("sparse:")?;
            let (tile, occupancy_pct) = match rest.split_once('@') {
                Some((t, o)) => (t.parse().ok()?, o.parse().ok()?),
                None => (rest.parse().ok()?, 100),
            };
            Some(WeightEncoding::SparseTiles { tile, occupancy_pct })
        }
    }
}

/// `--arch a1|a2|a3` (default A3). `Err` carries the bad value.
fn parse_arch_flag(args: &[String]) -> Result<Architecture, String> {
    let Some(i) = args.iter().position(|a| a == "--arch") else {
        return Ok(Architecture::A3);
    };
    let v = args.get(i + 1).map(String::as_str).unwrap_or("");
    match v.to_ascii_lowercase().as_str() {
        "a1" => Ok(Architecture::A1),
        "a2" => Ok(Architecture::A2),
        "a3" => Ok(Architecture::A3),
        other => Err(other.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    const COMMANDS: &str =
        "latency|report|arch|dse|quant|breakdown|pipeline|trace|plan|decode|csv|faults|serve|stream|cluster|bench";
    let Some(cmd) = args.first().cloned() else {
        return CliError::Usage(format!("asrsim <{}> [options]", COMMANDS)).exit();
    };
    let s = parse_flag(&args, "--s", 32);

    // `asrsim --faults <seed>` — the flag form of the `faults` subcommand.
    // Only when it leads: `serve` owns its own `--faults` option.
    if cmd == "--faults" {
        let Some(seed) = args.get(1).and_then(|v| v.parse::<u64>().ok()) else {
            eprintln!("usage: asrsim --faults <seed> [--s N] [--arch a1|a2|a3]");
            return ExitCode::FAILURE;
        };
        return cmd_faults(seed, s, &args);
    }

    match cmd.as_str() {
        "latency" => cmd_latency(s),
        "report" => cmd_report(s),
        "arch" => cmd_arch(s),
        "dse" => cmd_dse(),
        "quant" => cmd_quant(),
        "breakdown" => cmd_breakdown(s),
        "pipeline" => cmd_pipeline(s, parse_flag(&args, "--n", 10)),
        "trace" => {
            let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!("usage: asrsim trace <out.json> [--s N]");
                return ExitCode::FAILURE;
            };
            return cmd_trace(path, s);
        }
        "csv" => {
            let Some(which) = args.get(1) else {
                eprintln!("usage: asrsim csv <fig5.2|table5.1|ii>");
                return ExitCode::FAILURE;
            };
            return cmd_csv(which);
        }
        "faults" => {
            let Some(seed) = args.get(1).and_then(|v| v.parse::<u64>().ok()) else {
                eprintln!("usage: asrsim faults <seed> [--s N] [--arch a1|a2|a3]");
                return ExitCode::FAILURE;
            };
            return cmd_faults(seed, s, &args);
        }
        "plan" => return cmd_plan(s, &args),
        "decode" => return finish(cmd_decode(&args)),
        "serve" => return finish(cmd_serve(&args)),
        "stream" => return cmd_stream(&args),
        "cluster" => return finish(cmd_cluster(&args)),
        "bench" => return finish(cmd_bench(&args)),
        other => {
            return CliError::Usage(format!("unknown command '{}' (expected {})", other, COMMANDS))
                .exit();
        }
    }
    ExitCode::SUCCESS
}

fn unpadded(s: usize) -> AccelConfig {
    let mut c = AccelConfig::paper_default();
    c.max_seq_len = s.clamp(1, 512);
    c
}

fn cmd_latency(s: usize) {
    let host = HostController::new(unpadded(s)).expect("paper default config is valid");
    let r = host.latency_report(s);
    println!("sequence length      : {} (built {})", r.input_len, r.seq_len);
    println!("preprocessing        : {:8.2} ms", r.preprocessing_s * 1e3);
    println!("accelerator (A3)     : {:8.2} ms", r.accelerator_s * 1e3);
    println!("end to end           : {:8.2} ms", r.total_s * 1e3);
    println!("throughput           : {:8.2} seq/s", r.throughput_seq_per_s);
    println!("workload             : {:8.2} GFLOPs", r.gflops);
    println!("sustained            : {:8.2} GFLOPs/s", r.gflops_per_s);
    println!("energy efficiency    : {:8.3} GFLOPs/J", r.gflops_per_joule);
}

fn cmd_report(s: usize) {
    use transformer_asr_accel::accel::report;
    let r = report::generate(&unpadded(s));
    print!("{}", report::render(&r));
}

fn cmd_arch(s: usize) {
    let cfg = unpadded(s);
    println!("{:>6} {:>12} {:>12} {:>10}", "arch", "latency(ms)", "stall(ms)", "vs A1");
    let a1 = simulate(&cfg, Architecture::A1, s).latency_s;
    for a in Architecture::ALL {
        let r = simulate(&cfg, a, s);
        println!(
            "{:>6} {:>12.2} {:>12.2} {:>9.2}x",
            a.name(),
            r.latency_s * 1e3,
            r.compute_stall_s * 1e3,
            a1 / r.latency_s
        );
    }
}

fn cmd_dse() {
    println!("{:>6} {:>10} {:>12} {:>6}", "heads", "psas/head", "latency(ms)", "fits");
    for p in dse::explore(&AccelConfig::paper_default()) {
        println!(
            "{:>6} {:>10} {:>12.2} {:>6}",
            p.parallel_heads,
            p.psas_per_head,
            p.latency_ms,
            if p.fits { "yes" } else { "NO" }
        );
    }
}

fn cmd_quant() {
    let r = quant::report(&AccelConfig::paper_default());
    println!("fp32 latency : {:8.2} ms", r.fp32_latency_ms);
    println!("int8 latency : {:8.2} ms ({:.2}x)", r.int8_latency_ms, r.speedup);
    println!("fp32 fabric  : {}", r.fp32_resources.total());
    println!("int8 fabric  : {}", r.int8_resources.total());
    println!("int8 LUT     : {:.1}%", r.int8_lut_pct);
    println!("fp32 HBM     : {:>12} B scheduled per utterance", r.fp32_hbm_bytes);
    println!(
        "int8 HBM     : {:>12} B scheduled ({:.1}x lighter on the wire)",
        r.int8_hbm_bytes,
        r.fp32_hbm_bytes as f64 / r.int8_hbm_bytes.max(1) as f64
    );
}

fn cmd_breakdown(s: usize) {
    let b = latency::breakdown(&AccelConfig::paper_default(), s.clamp(1, 32));
    println!("{:<36} {:>10} {:>9} {:>7}", "operation", "cycles", "ms", "% enc");
    for r in &b.rows {
        println!("{:<36} {:>10} {:>9.3} {:>6.1}%", r.name, r.cycles, r.ms, r.pct_of_encoder);
    }
    println!(
        "encoder layer total: {} cycles; decoder layer: {} cycles",
        b.encoder_total, b.decoder_total
    );
}

fn cmd_pipeline(s: usize, n: usize) {
    let cfg = unpadded(s);
    let (r, _) = pipeline::run_pipeline(&cfg, Architecture::A3, s, n.max(1));
    println!("utterances           : {}", r.n);
    println!("total wall time      : {:8.2} ms", r.total_s * 1e3);
    println!("steady-state rate    : {:8.2} seq/s", r.throughput_seq_per_s);
    println!("host busy            : {:8.2} ms", r.host_busy_s * 1e3);
    println!("accelerator busy     : {:8.2} ms", r.accel_busy_s * 1e3);
}

fn cmd_trace(path: &str, s: usize) -> ExitCode {
    let cfg = unpadded(s);
    let r = simulate(&cfg, Architecture::A3, s);
    match std::fs::write(path, to_chrome_trace(&r.timeline)) {
        Ok(()) => {
            println!("wrote {} spans to {}", r.timeline.spans().len(), path);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("failed to write {}: {}", path, e);
            ExitCode::FAILURE
        }
    }
}

fn cmd_faults(seed: u64, s: usize, args: &[String]) -> ExitCode {
    let arch = match parse_arch_flag(args) {
        Ok(a) => a,
        Err(bad) => {
            eprintln!("unknown architecture '{}': expected a1, a2, or a3", bad);
            return ExitCode::FAILURE;
        }
    };
    let level = match parse_integrity_flag(args) {
        Ok(l) => l,
        Err(bad) => {
            eprintln!(
                "unknown integrity level '{}': expected off, detect, or detect-recompute",
                bad
            );
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = unpadded(s);
    cfg.integrity = level;
    let s = cfg.max_seq_len;
    if has_flag(args, "--checkpoint") {
        return cmd_faults_checkpoint(seed, &cfg, arch, args);
    }
    let plan = FaultPlan::seeded(seed);
    println!("fault seed           : {}", seed);
    println!("architecture         : {}", arch.name());
    println!("integrity level      : {}", level.name());
    println!("injected faults      : {}", plan.faults().len());
    for f in plan.faults() {
        println!("  - {:?}", f);
    }
    let run = ExecPlan::lower(&cfg, arch, s, 1, level).and_then(|exec| {
        run_plan_with_recovery(&cfg, &exec, plan, &RecoveryPolicy::default()).map_err(|f| f.error)
    });
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("unrecoverable: {}", e);
            return ExitCode::FAILURE;
        }
    };
    println!("nominal latency      : {:8.2} ms ({})", run.nominal_s * 1e3, run.entry_arch.name());
    println!("degraded latency     : {:8.2} ms ({})", run.makespan_s * 1e3, run.final_arch.name());
    println!("fault overhead       : {:8.2} %", run.slowdown() * 100.0);
    println!("retries              : {}", run.retries);
    let c = &run.corruption;
    if c.any_injected() || level.checks_enabled() {
        println!(
            "corruption           : {} injected, {} detected, {} refetched, {} recomputed, {} escaped",
            c.injected, c.detected, c.refetched, c.recomputed, c.escaped
        );
        if c.escaped > 0 {
            println!("                       WARNING: corrupted data reached compute undetected");
        }
    }
    if let Some(slr) = run.dead_slr {
        println!("dead SLR             : SLR{} (pool halved, relaunched on survivor)", slr);
    }
    if run.events.is_empty() {
        println!("recovery events      : none");
    } else {
        println!("recovery events      :");
        for e in &run.events {
            println!("  [{:9.3} ms] {:<16} {}", e.time_s * 1e3, e.phase, e.detail);
        }
    }
    ExitCode::SUCCESS
}

/// `asrsim faults <seed> --checkpoint`: kill a batched run with a persistent
/// load fault, show the barrier-granular checkpoint the failure carries, then
/// resume the uncompleted suffix on a clean spare (cross-device, so resident
/// stripes are not trusted) and compare against paying for a full restart.
fn cmd_faults_checkpoint(
    seed: u64,
    cfg: &AccelConfig,
    arch: Architecture,
    args: &[String],
) -> ExitCode {
    let batch = parse_flag(args, "--batch", 2).max(1);
    let kill = parse_str_flag(args, "--kill").unwrap_or_else(|| "LWD4".to_string());
    let s = cfg.max_seq_len;
    let policy = RecoveryPolicy::default();
    // The kill goes *first*: transient-fault matching is first-match-wins,
    // and a seeded plan's broad "LW" faults would mask it otherwise.
    let mut plan = FaultPlan::none()
        .with(FaultKind::HbmLoadError { label: kill.clone(), failing_attempts: u32::MAX });
    for f in FaultPlan::seeded(seed).faults() {
        plan.push(f.clone());
    }
    println!("fault seed           : {} (+ persistent kill on '{}')", seed, kill);
    println!("architecture         : {}", arch.name());
    println!("integrity level      : {}", cfg.integrity.name());
    println!("batch                : {}", batch);
    let full = ExecPlan::lower(cfg, arch, s, batch, cfg.integrity);
    let (error, checkpoint) = match &full {
        Ok(exec) => match run_plan_with_recovery(cfg, exec, plan, &policy) {
            Ok(run) => {
                println!(
                    "run completed        : {:8.2} ms — '{}' matched no command, nothing to resume",
                    run.makespan_s * 1e3,
                    kill
                );
                return ExitCode::SUCCESS;
            }
            Err(f) => (f.error, f.checkpoint),
        },
        Err(e) => (e.clone(), None),
    };
    println!("hard fault           : {}", error);
    let Some(ckpt) = checkpoint else {
        eprintln!("no checkpoint captured (the run died before any dispatch state existed)");
        return ExitCode::FAILURE;
    };
    println!(
        "checkpoint frontier  : {}/{} phases computed, {} loaded",
        ckpt.completed_phases,
        ckpt.phase_labels.len(),
        ckpt.loaded_phases
    );
    println!(
        "finished utterances  : {}/{} left the batch before the cut",
        ckpt.finished_utterances, batch
    );
    let resident: Vec<String> = ckpt
        .resident
        .iter()
        .map(|r| format!("{} ({} B, crc {:#010x})", r.label, r.bytes, r.crc))
        .collect();
    println!(
        "resident stripes     : {}",
        if resident.is_empty() { "none".to_string() } else { resident.join(", ") }
    );
    println!(
        "banked work          : {:8.2} ms compute, {} load bytes",
        ckpt.captured_at_s * 1e3,
        ckpt.loaded_bytes()
    );
    // Fail over to a clean spare. Cross-device, so the double-buffer
    // residency of the dead card is not trusted: suffix stripes re-load.
    // A clean full restart: the baseline a resume is compared against, and
    // the fallback when the resume is refused.
    let full_restart = || {
        let exec = full.as_ref().map_err(Clone::clone)?;
        run_plan_with_recovery(cfg, exec, FaultPlan::none(), &policy).map_err(|f| f.error)
    };
    let resumed = ExecPlan::resume(cfg, &ckpt, false).and_then(|exec| {
        run_plan_with_recovery(cfg, &exec, FaultPlan::none(), &policy).map_err(|f| f.error)
    });
    match resumed {
        Ok(run) => {
            let res = run.resume.as_ref().expect("a resumed plan carries its accounting");
            println!(
                "resume               : ok on clean spare, suffix from phase {}",
                res.start_phase
            );
            println!("  suffix makespan    : {:8.2} ms", run.makespan_s * 1e3);
            println!(
                "  skipped by resume  : {} computes, {} load bytes ({} trusted resident loads)",
                res.skipped_computes, res.skipped_load_bytes, res.trusted_loads
            );
            println!(
                "  replayed by resume : {} loads, {} bytes",
                res.replayed_loads, res.replayed_load_bytes
            );
            match full_restart() {
                Ok(full) => println!(
                    "  full restart       : {:8.2} ms, {} loads — resume saves {:8.2} ms",
                    full.makespan_s * 1e3,
                    full.loads_issued,
                    (full.makespan_s - run.makespan_s) * 1e3
                ),
                Err(e) => {
                    eprintln!("full-restart baseline failed: {}", e);
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            // Typed rejection (or a second hard fault): never reuse the
            // state silently — fall back to a clean full restart.
            println!("resume failed        : {}", e);
            match full_restart() {
                Ok(full) => {
                    println!("full restart         : {:8.2} ms", full.makespan_s * 1e3);
                    ExitCode::SUCCESS
                }
                Err(e2) => {
                    eprintln!("full restart failed: {}", e2);
                    ExitCode::FAILURE
                }
            }
        }
    }
}

fn cmd_plan(s: usize, args: &[String]) -> ExitCode {
    let arch = match parse_arch_flag(args) {
        Ok(a) => a,
        Err(bad) => {
            eprintln!("unknown architecture '{}': expected a1, a2, or a3", bad);
            return ExitCode::FAILURE;
        }
    };
    let level = match parse_integrity_flag(args) {
        Ok(l) => l,
        Err(bad) => {
            eprintln!(
                "unknown integrity level '{}': expected off, detect, or detect-recompute",
                bad
            );
            return ExitCode::FAILURE;
        }
    };
    let enc = match parse_encoding_flag(args) {
        Ok(e) => e,
        Err(bad) => {
            eprintln!(
                "unknown encoding '{}': expected dense, int8, bc:<B>, or sparse:<T>[@OCC]",
                bad
            );
            return ExitCode::FAILURE;
        }
    };
    if has_flag(args, "--decode") {
        return cmd_plan_decode(s, arch, level, enc, args);
    }
    let batch = parse_flag(args, "--batch", 1).max(1);
    let mut cfg = unpadded(s);
    cfg.encoding = enc;
    if let Err(e) = cfg.validate() {
        eprintln!("asrsim: rejected: {}", e);
        return ExitCode::from(5);
    }
    let s = cfg.max_seq_len;
    let plan = match ExecPlan::lower(&cfg, arch, s, batch, level) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("lowering failed: {}", e);
            return ExitCode::FAILURE;
        }
    };
    let counts = plan.counts();
    let (buf, ser, paired) = plan.edge_counts();
    let cost = walk_cost(&cfg, &plan);
    println!("architecture         : {}", arch.name());
    println!("input length         : {} (built {})", s, plan.seq_len);
    println!("batch                : {}", plan.batch);
    println!("integrity level      : {}", level.name());
    println!("stripe encoding      : {}", cfg.encoding);
    println!("phases               : {}", plan.phases.len());
    println!(
        "commands             : {} LoadStripe, {} Compute, {} Verify, {} Barrier ({} total)",
        counts.loads,
        counts.computes,
        counts.verifies,
        counts.barriers,
        counts.total()
    );
    println!(
        "prefetch edges       : {} double-buffer, {} serialize, {} paired loads",
        buf, ser, paired
    );
    println!("critical path        : {:8.2} ms", cost.latency_s * 1e3);
    println!("load busy            : {:8.2} ms", cost.load_total_s * 1e3);
    println!("compute busy         : {:8.2} ms", cost.compute_total_s * 1e3);
    println!("compute stall        : {:8.2} ms", cost.compute_stall_s * 1e3);
    if cost.skipped_compute_s > 0.0 {
        println!(
            "zero-tile skip       : {:8.2} ms of compute elided ({:.0}% occupancy)",
            cost.skipped_compute_s * 1e3,
            (1.0 - cfg.encoding.zero_tile_fraction()) * 100.0
        );
    }
    println!("scheduled load bytes : {:>12} B (encoded, on the wire)", plan.scheduled_load_bytes());
    println!("channel load bytes   :");
    for (ch, bytes) in plan.channel_load_bytes().iter().enumerate() {
        println!("  HBM[{}]             : {:>12} B", ch, bytes);
    }
    ExitCode::SUCCESS
}

/// `asrsim plan --decode` — the analytic decode-session shape: the cold
/// step's full weight traffic, the steady-state step that fetches only the
/// front-token embedding rows, and the per-token critical path.
fn cmd_plan_decode(
    s: usize,
    arch: Architecture,
    level: IntegrityLevel,
    enc: WeightEncoding,
    args: &[String],
) -> ExitCode {
    let beam = parse_flag(args, "--beam", 1).max(1);
    let max_steps = parse_flag(args, "--steps", 16).max(1);
    let steady_step = parse_flag(args, "--step", (max_steps / 2).max(1));
    let mut cfg = unpadded(s);
    cfg.encoding = enc;
    if let Err(e) = cfg.validate() {
        eprintln!("asrsim: rejected: {}", e);
        return ExitCode::from(5);
    }
    let mem_len = cfg.max_seq_len;
    let da = match decode_analytics(&cfg, arch, mem_len, beam, max_steps, steady_step, level) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("decode lowering failed: {}", e);
            return ExitCode::FAILURE;
        }
    };
    println!("architecture         : {}", arch.name());
    println!("encoder memory rows  : {}", mem_len);
    println!("beam / max steps     : {} / {}", beam, max_steps);
    println!("integrity level      : {}", level.name());
    println!("stripe encoding      : {}", cfg.encoding);
    println!(
        "cold step (t=0)      : {:8.3} ms critical path, {:>12} B fetched",
        da.cold.latency_s * 1e3,
        da.cold_step_bytes
    );
    let steady_hdr = format!("steady step (t={})", steady_step.min(max_steps - 1));
    println!(
        "{:<21}: {:8.3} ms critical path, {:>12} B fetched",
        steady_hdr,
        da.steady.latency_s * 1e3,
        da.steady_step_bytes
    );
    println!("steady ms/token      : {:8.3} ms", da.steady_ms_per_token);
    println!(
        "elided load bytes    : {:8.1} % of the scheduled step traffic",
        da.elided_fraction * 100.0
    );
    println!(
        "resident reuse       : {} offered, {} elided ({} B), {} stale",
        da.reuse.offered, da.reuse.elided_loads, da.reuse.elided_load_bytes, da.reuse.stale
    );
    ExitCode::SUCCESS
}

/// `asrsim decode` — the functional decode smoke: run the plan-lowered beam
/// decode clean and under seeded silent faults at `detect-recompute`, and
/// fail typed if the faulted transcript diverges or residency elides
/// nothing. CI greps these lines.
fn cmd_decode(args: &[String]) -> Result<(), CliError> {
    let beam = parse_usize_strict(args, "--beam", 1)?.max(1);
    let steps = parse_usize_strict(args, "--steps", 6)?.max(1);
    let mem = parse_usize_strict(args, "--mem", 6)?.max(1);
    let fault_seed = parse_usize_strict(args, "--fault-seed", 9)? as u64;
    let mut cfg = transformer_asr_accel::accel::integrity::small_config();
    cfg.integrity = IntegrityLevel::DetectAndRecompute;
    if mem > cfg.max_seq_len {
        return Err(CliError::BadValue(format!(
            "--mem {} exceeds the smoke config's max_seq_len {}",
            mem, cfg.max_seq_len
        )));
    }
    let rejected = |e: transformer_asr_accel::accel::AccelError| CliError::Rejected(e.to_string());
    let clean = run_functional_decode(&cfg, 7, 11, mem, steps, beam, &FunctionalFaults::none())
        .map_err(rejected)?;
    let n_stripes =
        transformer_asr_accel::transformer::ModelWeights::seeded(&cfg.model, 7).matrices().len();
    let faults = FunctionalFaults::seeded(fault_seed, n_stripes, cfg.psa.cols);
    let faulted =
        run_functional_decode(&cfg, 7, 11, mem, steps, beam, &faults).map_err(rejected)?;
    if faulted.tokens != clean.tokens {
        return Err(CliError::Rejected(format!(
            "transcript diverged under faults: clean {:?} vs faulted {:?}",
            clean.tokens, faulted.tokens
        )));
    }
    if clean.steps > 1 && clean.elided_load_bytes == 0 {
        return Err(CliError::Rejected("steady decode steps elided zero load bytes".into()));
    }
    println!("decode steps         : {} (beam {}, memory rows {})", clean.steps, beam, mem);
    println!("transcript           : {} tokens, zero divergence under faults", clean.tokens.len());
    println!(
        "elided load bytes    : {} of {} scheduled ({:.1} %)",
        clean.elided_load_bytes,
        clean.fetched_load_bytes + clean.elided_load_bytes,
        clean.elided_fraction() * 100.0
    );
    println!(
        "fault accounting     : {} injected, {} detected, {} recomputed, {} escaped",
        faulted.counters.injected,
        faulted.counters.detected,
        faulted.counters.recomputed,
        faulted.counters.escaped
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let devices = parse_usize_strict(args, "--devices", 2)?;
    let seed = parse_usize_strict(args, "--faults", 0)? as u64;
    let rps = parse_f64_strict(args, "--rps", 50.0)?;
    let deadline_s = parse_f64_strict(args, "--deadline-ms", 200.0)? / 1e3;
    let level = parse_integrity_flag(args).map_err(|bad| {
        CliError::BadValue(format!(
            "unknown integrity level '{}': expected off, detect, or detect-recompute",
            bad
        ))
    })?;
    let checkpoint = has_flag(args, "--checkpoint");
    let batch = parse_usize_strict(args, "--batch", 0)?;
    if has_flag(args, "--batch") && batch == 0 {
        // The combo check outranks the range check: `--checkpoint` resumes
        // *batched* dispatches, so disabling batching contradicts it.
        return Err(if checkpoint {
            CliError::BadCombo(
                "--checkpoint resumes batched dispatches; it cannot be combined with --batch 0"
                    .into(),
            )
        } else {
            CliError::BadValue("--batch must be >= 1 (the dispatcher needs a batch bound)".into())
        });
    }
    let mut cfg = ServeConfig::new(devices, seed, rps, deadline_s);
    cfg.accel.integrity = level;
    cfg.requests = parse_usize_strict(args, "--n", cfg.requests)?;
    cfg.queue_capacity = parse_usize_strict(args, "--queue", cfg.queue_capacity)?;
    if has_flag(args, "--batch") {
        cfg.batch.max_batch = batch;
    }
    cfg.batch.linger_s = parse_f64_strict(args, "--linger-ms", cfg.batch.linger_s * 1e3)? / 1e3;
    cfg.checkpoint = checkpoint;
    let kill = parse_str_flag(args, "--kill");
    println!("devices              : {}", cfg.devices);
    println!("pool fault seed      : {}", cfg.fault_seed);
    println!("integrity level      : {}", level.name());
    println!("offered load         : {:8.2} req/s", cfg.rps);
    println!("deadline             : {:8.2} ms", cfg.deadline_s * 1e3);
    println!("requests             : {}", cfg.requests);
    println!("queue capacity       : {}", cfg.queue_capacity);
    println!("max batch            : {}", cfg.batch.max_batch);
    println!("batch linger         : {:8.2} ms", cfg.batch.linger_s * 1e3);
    println!("checkpointed failover: {}", if cfg.checkpoint { "on" } else { "off" });
    if let Some(label) = &kill {
        println!("killed load label    : '{}' (card 0, persistent)", label);
    }
    let report = run_serve_pool(cfg, kill).map_err(|e| CliError::Rejected(e.to_string()))?;
    print!("{}", report.render());
    Ok(())
}

/// `asrsim cluster` — multi-node serving: each node is one fault domain
/// behind a session-affinity router, with node-granular fault injection,
/// cross-node checkpointed failover, and rolling weight upgrades.
fn cmd_cluster(args: &[String]) -> Result<(), CliError> {
    let nodes = parse_usize_strict(args, "--nodes", 2)?;
    let devices = parse_usize_strict(args, "--devices", 1)?;
    let rps = parse_f64_strict(args, "--rps", 60.0)?;
    let deadline_s = parse_f64_strict(args, "--deadline-ms", 500.0)? / 1e3;
    if nodes == 0 {
        return Err(CliError::BadValue("--nodes must be >= 1".into()));
    }
    if devices == 0 {
        return Err(CliError::BadValue("--devices must be >= 1 (cards per node)".into()));
    }
    let mut cfg = ClusterConfig::new(nodes, devices, rps, deadline_s);
    cfg.requests = parse_usize_strict(args, "--n", cfg.requests)?;
    cfg.sessions = parse_usize_strict(args, "--sessions", cfg.sessions)?;
    cfg.seed = parse_usize_strict(args, "--seed", cfg.seed as usize)? as u64;
    if let Some(t) = parse_str_flag(args, "--trace") {
        cfg.trace = TrafficTrace::parse(&t).map_err(|e| CliError::BadValue(e.to_string()))?;
    }
    if has_flag(args, "--no-checkpoint") {
        cfg.serve.checkpoint = false;
    }
    for v in flag_values(args, "--kill-node") {
        let (node, at_s, _) = parse_fault_spec("--kill-node", &v, false)?;
        cfg.faults.push(NodeFault::Kill { node, at_s });
    }
    for v in flag_values(args, "--dropout") {
        let (node, at_s, outage_s) = parse_fault_spec("--dropout", &v, true)?;
        cfg.faults.push(NodeFault::PowerDropout { node, at_s, outage_s });
    }
    for v in flag_values(args, "--hbm-burst") {
        let (node, at_s, _) = parse_fault_spec("--hbm-burst", &v, false)?;
        cfg.faults.push(NodeFault::HbmBurst { node, at_s, seed: cfg.seed ^ node as u64 });
    }
    for v in flag_values(args, "--partition") {
        let (node, at_s, for_s) = parse_fault_spec("--partition", &v, true)?;
        cfg.faults.push(NodeFault::Partition { node, at_s, for_s });
    }
    for f in &cfg.faults {
        let (flag, node) = match f {
            NodeFault::Kill { node, .. } => ("--kill-node", *node),
            NodeFault::PowerDropout { node, .. } => ("--dropout", *node),
            NodeFault::HbmBurst { node, .. } => ("--hbm-burst", *node),
            NodeFault::Partition { node, .. } => ("--partition", *node),
        };
        if node >= nodes {
            return Err(CliError::BadValue(format!(
                "{} targets node {} but the cluster has {} (nodes are 0-based)",
                flag, node, nodes
            )));
        }
    }
    if has_flag(args, "--upgrade") {
        if nodes < 2 {
            return Err(CliError::BadCombo(
                "--upgrade is a rolling drain: it needs --nodes >= 2 so survivors keep serving"
                    .into(),
            ));
        }
        let to = parse_usize_strict(args, "--upgrade", 0)? as u64;
        let at = parse_f64_strict(args, "--upgrade-at", 0.1)?;
        cfg.upgrade = Some(UpgradeConfig::new(to, at));
    } else if has_flag(args, "--upgrade-at") {
        return Err(CliError::BadCombo("--upgrade-at needs --upgrade VERSION".into()));
    }
    println!("nodes                : {} x {} cards", cfg.nodes, devices);
    println!("offered load         : {:8.2} req/s ({:?} trace)", cfg.rps, cfg.trace);
    println!("deadline             : {:8.2} ms", cfg.serve.deadline_s * 1e3);
    println!("requests / sessions  : {} / {}", cfg.requests, cfg.sessions);
    println!("checkpointed failover: {}", if cfg.serve.checkpoint { "on" } else { "off" });
    for f in &cfg.faults {
        println!("fault                : {:?}", f);
    }
    if let Some(u) = &cfg.upgrade {
        println!(
            "rolling upgrade      : v{} -> v{} starting at {:.2} s",
            cfg.serve.accel.weight_version, u.to_version, u.start_s
        );
    }
    let report = Cluster::run(cfg).map_err(|e| CliError::Rejected(e.to_string()))?;
    print!("{}", report.render());
    Ok(())
}

/// `asrsim stream` — the fault-tolerant streaming session pool: N concurrent
/// streams of fixed-cadence audio chunks over a shared card pool, per-chunk
/// deadlines, resident-weight reuse across chunks, and mid-stream failover.
fn cmd_stream(args: &[String]) -> ExitCode {
    let devices = parse_flag(args, "--devices", 2);
    let seed = parse_flag(args, "--faults", 0) as u64;
    let streams = parse_flag(args, "--streams", 4);
    let chunk_ms = parse_f64_flag(args, "--chunk-ms", 40.0);
    let deadline_ms = parse_f64_flag(args, "--deadline-ms", 60.0);
    let jitter_ms = parse_f64_flag(args, "--jitter-ms", 0.0);
    let level = match parse_integrity_flag(args) {
        Ok(l) => l,
        Err(bad) => {
            eprintln!(
                "unknown integrity level '{}': expected off, detect, or detect-recompute",
                bad
            );
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = StreamConfig::new(devices, seed, streams, deadline_ms / 1e3);
    cfg.accel.integrity = level;
    cfg.chunk_interval_s = chunk_ms / 1e3;
    cfg.jitter_s = jitter_ms / 1e3;
    cfg.chunks_per_stream = parse_flag(args, "--chunks", cfg.chunks_per_stream);
    println!("devices              : {}", cfg.devices);
    println!("pool fault seed      : {}", cfg.fault_seed);
    println!("integrity level      : {}", level.name());
    println!(
        "chunk window         : {} steps ({} chunk + {} left context)",
        cfg.window(),
        cfg.chunk_steps,
        cfg.left_context
    );
    println!("chunk cadence        : {:8.2} ms", cfg.chunk_interval_s * 1e3);
    println!("chunk deadline       : {:8.2} ms", cfg.deadline_s * 1e3);
    println!("arrival jitter       : {:8.2} ms", cfg.jitter_s * 1e3);
    println!("chunks per stream    : {}", cfg.chunks_per_stream);
    println!("session queue        : {}", cfg.session_queue);
    let report = match StreamPool::run(cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("stream failed: {}", e);
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render());
    ExitCode::SUCCESS
}

/// Run the configured serve workload; with `kill`, card 0's fault plan is
/// replaced by a persistent load fault on the given label (the other cards
/// keep their seeded pool plans) to exercise failover paths on demand.
fn run_serve_pool(
    cfg: ServeConfig,
    kill: Option<String>,
) -> Result<ServeReport, transformer_asr_accel::accel::AccelError> {
    let Some(label) = kill else {
        return ServePool::run(cfg);
    };
    let mut plans = pool_fault_plans(cfg.fault_seed, cfg.devices);
    plans[0] =
        FaultPlan::none().with(FaultKind::HbmLoadError { label, failing_attempts: u32::MAX });
    let (n, rps) = (cfg.requests, cfg.rps);
    let mut pool = ServePool::with_plans(cfg, plans)?;
    for i in 0..n {
        let _ = pool.submit(i as f64 / rps);
    }
    Ok(pool.drain())
}

/// Short git revision of the working tree, or `"unknown"` outside a repo.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Append one entry to the trajectory array at `path`. A missing file
/// starts a fresh array; a legacy single-object `BENCH_serve.json` is
/// wrapped in place as the first (pre-trajectory) point — nothing is ever
/// overwritten.
fn append_trajectory(path: &str, entry: &str) -> Result<(), CliError> {
    let io = |e: std::io::Error| CliError::Io(format!("{}: {}", path, e));
    let existing = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(io(e)),
    };
    let trimmed = existing.trim();
    let body = if trimmed.is_empty() {
        format!("[\n{}\n]\n", entry)
    } else if let Some(head) = trimmed.strip_suffix(']') {
        let head = head.trim_end().trim_end_matches(',');
        if head == "[" {
            format!("[\n{}\n]\n", entry)
        } else {
            format!("{},\n{}\n]\n", head, entry)
        }
    } else if trimmed.starts_with('{') {
        format!(
            "[\n{{ \"label\": \"pre-trajectory\", \"rev\": \"unknown\", \"bench\": {} }},\n{}\n]\n",
            trimmed, entry
        )
    } else {
        return Err(CliError::Io(format!(
            "{}: neither a trajectory array nor a legacy bench object",
            path
        )));
    };
    std::fs::write(path, body).map_err(io)
}

/// The top-level objects of the trajectory array, in order, ignoring braces
/// inside strings. Also accepts a legacy single-object file (one entry).
fn trajectory_entries(body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut depth, mut in_str, mut esc) = (0i32, false, false);
    let mut start = None;
    for (i, &b) in body.as_bytes().iter().enumerate() {
        if esc {
            esc = false;
            continue;
        }
        match b {
            b'\\' if in_str => esc = true,
            b'"' => in_str = !in_str,
            b'{' if !in_str => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            b'}' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    if let Some(s) = start.take() {
                        out.push(&body[s..=i]);
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// The balanced `{...}` object that follows `"key":` in `src`, ignoring
/// braces inside strings. Hand-rolled: the workspace deliberately carries
/// no JSON dependency.
fn json_object_after<'a>(src: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{}\"", key);
    let rest = &src[src.find(&needle)? + needle.len()..];
    let open = rest.find('{')?;
    let (mut depth, mut in_str, mut esc) = (0i32, false, false);
    for (i, &b) in rest.as_bytes()[open..].iter().enumerate() {
        if esc {
            esc = false;
            continue;
        }
        match b {
            b'\\' if in_str => esc = true,
            b'"' => in_str = !in_str,
            b'{' if !in_str => depth += 1,
            b'}' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[open..open + i + 1]);
                }
            }
            _ => {}
        }
    }
    None
}

/// The scalar number that follows the first `"key":` in `src`. Returns
/// `None` when the key is missing or its value is not a plain number (an
/// array or object — the caller is expected to have scoped `src` first).
fn json_number_after(src: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{}\"", key);
    let rest = src[src.find(&needle)? + needle.len()..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `asrsim bench --check` — the regression gate: compare the last two
/// trajectory entries' headline numbers and fail typed (exit 5) when the
/// newest slid more than `tol` relative to its predecessor. The gated
/// metrics are the pool's `sustainable_rps_at_99pct` (the scalar inside the
/// `bench` object — NOT the cluster section's per-node array of the same
/// name) and `analytic_e2e_ms`.
fn bench_check(path: &str, tol: f64) -> Result<(), CliError> {
    let body =
        std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{}: {}", path, e)))?;
    let entries = trajectory_entries(&body);
    if entries.len() < 2 {
        println!(
            "{}: only {} trajectory entr{} — nothing to compare yet",
            path,
            entries.len(),
            if entries.len() == 1 { "y" } else { "ies" }
        );
        return Ok(());
    }
    let take = |entry: &str, which: &str| -> Result<(f64, f64), CliError> {
        let bench = json_object_after(entry, "bench").ok_or_else(|| {
            CliError::Rejected(format!("{}: {} entry has no \"bench\" object", path, which))
        })?;
        let rps = json_number_after(bench, "sustainable_rps_at_99pct").ok_or_else(|| {
            CliError::Rejected(format!("{}: {} entry lacks sustainable_rps_at_99pct", path, which))
        })?;
        let e2e = json_number_after(bench, "analytic_e2e_ms").ok_or_else(|| {
            CliError::Rejected(format!("{}: {} entry lacks analytic_e2e_ms", path, which))
        })?;
        Ok((rps, e2e))
    };
    let (rps0, e2e0) = take(entries[entries.len() - 2], "previous")?;
    let (rps1, e2e1) = take(entries[entries.len() - 1], "latest")?;
    println!(
        "sustainable rps      : {:8.1} -> {:8.1} ({:+6.1} %)",
        rps0,
        rps1,
        if rps0 > 0.0 { (rps1 / rps0 - 1.0) * 100.0 } else { 0.0 }
    );
    println!(
        "analytic E2E         : {:8.3} -> {:8.3} ms ({:+6.1} %)",
        e2e0,
        e2e1,
        if e2e0 > 0.0 { (e2e1 / e2e0 - 1.0) * 100.0 } else { 0.0 }
    );
    let mut slid = Vec::new();
    if rps1 < rps0 * (1.0 - tol) {
        slid.push(format!("sustainable_rps_at_99pct slid {:.1} -> {:.1}", rps0, rps1));
    }
    if e2e1 > e2e0 * (1.0 + tol) {
        slid.push(format!("analytic_e2e_ms slid {:.3} -> {:.3}", e2e0, e2e1));
    }
    // Decode gates: steady ms/token must not grow, and the elided fraction
    // (what KV residency saves every steady step) must not shrink, past the
    // same tolerance. Entries written before the decode section existed are
    // skipped rather than failed so the gate stays usable across history.
    let take_decode = |entry: &str| -> Option<(f64, f64)> {
        let decode = json_object_after(json_object_after(entry, "bench")?, "decode")?;
        Some((
            json_number_after(decode, "steady_ms_per_token")?,
            json_number_after(decode, "elided_load_fraction")?,
        ))
    };
    match (take_decode(entries[entries.len() - 2]), take_decode(entries[entries.len() - 1])) {
        (Some((ms0, el0)), Some((ms1, el1))) => {
            println!(
                "decode ms/token      : {:8.3} -> {:8.3} ({:+6.1} %)",
                ms0,
                ms1,
                if ms0 > 0.0 { (ms1 / ms0 - 1.0) * 100.0 } else { 0.0 }
            );
            println!(
                "decode elision       : {:8.4} -> {:8.4} ({:+6.1} %)",
                el0,
                el1,
                if el0 > 0.0 { (el1 / el0 - 1.0) * 100.0 } else { 0.0 }
            );
            if ms1 > ms0 * (1.0 + tol) {
                slid.push(format!("decode steady_ms_per_token slid {:.3} -> {:.3}", ms0, ms1));
            }
            if el1 < el0 * (1.0 - tol) {
                slid.push(format!("decode elided_load_fraction slid {:.4} -> {:.4}", el0, el1));
            }
        }
        _ => println!("decode metrics       : absent in an entry — gate skipped"),
    }
    if !slid.is_empty() {
        return Err(CliError::Rejected(format!(
            "regression past the {:.0}% gate: {}",
            tol * 100.0,
            slid.join("; ")
        )));
    }
    println!("bench check          : ok (within the {:.0}% gate)", tol * 100.0);
    Ok(())
}

/// `asrsim bench [--out FILE] [--label L]` — append one point to the
/// `BENCH_serve.json` trajectory: plan-lowering wall time, the analytic E2E
/// latency, the highest offered load the 2-card pool (and 1/2/3-node
/// cluster) sustains at ≥99% completion, the replayed-work cost of failover
/// with and without checkpointing, rolling-upgrade downtime, and the p99 a
/// mid-trace node kill adds over the fault-free run.
fn cmd_bench(args: &[String]) -> Result<(), CliError> {
    let out = parse_str_flag(args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    if has_flag(args, "--check") {
        let tol = parse_f64_strict(args, "--tolerance", 0.10)?;
        if !(0.0..1.0).contains(&tol) {
            return Err(CliError::BadValue(format!("--tolerance must be in [0, 1), got {}", tol)));
        }
        return bench_check(&out, tol);
    }
    let label = parse_str_flag(args, "--label").unwrap_or_else(|| "dev".to_string());
    let cfg = AccelConfig::paper_default();

    // Plan lowering wall time, best of 5 (real time, not simulated).
    let mut lower_us = f64::INFINITY;
    for _ in 0..5 {
        let t0 = std::time::Instant::now();
        let plan = ExecPlan::lower(&cfg, Architecture::A3, 32, 8, cfg.integrity)
            .expect("paper default lowers");
        lower_us = lower_us.min(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(&plan);
    }
    println!("plan lowering        : {:8.1} us (batch 8, best of 5)", lower_us);

    // Analytic E2E latency at the paper's headline length.
    let host = HostController::new(cfg).expect("paper default config is valid");
    let e2e_ms = host.latency_report(32).total_s * 1e3;
    println!("analytic E2E         : {:8.2} ms (s = 32)", e2e_ms);

    // Highest offered load a clean 2-card pool serves with ≥99% of requests
    // completing inside a 200 ms deadline: coarse doubling, then bisection.
    let sustains = |rps: f64| -> Option<(bool, f64)> {
        let mut c = ServeConfig::new(2, 0, rps, 0.2);
        c.requests = 60;
        let r = ServePool::run(c).ok()?;
        let ratio = r.completed as f64 / r.submitted.max(1) as f64;
        Some((ratio >= 0.99, r.throughput_rps))
    };
    let (mut lo, mut hi, mut thr_at_lo) = (0.0_f64, 25.0_f64, 0.0_f64);
    loop {
        match sustains(hi) {
            Some((true, thr)) => {
                (lo, thr_at_lo) = (hi, thr);
                if hi >= 1600.0 {
                    break;
                }
                hi *= 2.0;
            }
            Some((false, _)) => break,
            None => {
                return Err(CliError::Rejected(format!("serve sweep failed at {:.0} rps", hi)));
            }
        }
    }
    for _ in 0..6 {
        let mid = 0.5 * (lo + hi);
        match sustains(mid) {
            Some((true, thr)) => (lo, thr_at_lo) = (mid, thr),
            Some((false, _)) => hi = mid,
            None => break,
        }
    }
    println!("sustainable load     : {:8.1} req/s at >=99% completion", lo);
    println!("throughput there     : {:8.1} req/s completed", thr_at_lo);

    // Replayed work on failover: card 0 dies mid-plan on every dispatch
    // (decoder-4 load), card 1 is clean. Without checkpointing the failover
    // re-pays the banked frontier; with it, only the suffix runs.
    let replay = |checkpoint: bool| -> Option<ServeReport> {
        let mut c = ServeConfig::new(2, 0, 20.0, 0.5);
        c.requests = 4;
        c.checkpoint = checkpoint;
        run_serve_pool(c, Some("LWD4".to_string())).ok()
    };
    let (Some(off), Some(on)) = (replay(false), replay(true)) else {
        return Err(CliError::Rejected("replay benchmark failed".into()));
    };
    println!(
        "replayed (restart)   : {:8.3} ms compute, {} load bytes",
        off.replayed_compute_s * 1e3,
        off.replayed_load_bytes
    );
    println!(
        "replayed (resume)    : {:8.3} ms compute, {} load bytes ({} resumed, {} skipped bytes)",
        on.replayed_compute_s * 1e3,
        on.replayed_load_bytes,
        on.resumed_dispatches,
        on.skipped_load_bytes
    );

    // Streaming trajectory: analytic per-chunk latency of the streaming
    // deployment, the elided-load fraction resident reuse buys a warm card,
    // and the concurrent streams the default pool sustains.
    let stream_cfg = StreamConfig::new(2, 0, 4, 0.060);
    let sa = stream_analytics(&stream_cfg)
        .map_err(|e| CliError::Rejected(format!("stream analytics failed: {}", e)))?;
    println!(
        "stream chunk         : {:8.2} ms cold, {:.2} ms warm (analytic, window {})",
        sa.cold_chunk_s * 1e3,
        sa.warm_chunk_s * 1e3,
        stream_cfg.window()
    );
    println!(
        "stream elision       : {:8.1} % of scheduled load bytes on a warm card",
        sa.elided_fraction * 100.0
    );
    println!(
        "sustainable streams  : {:8} at {:.0} ms cadence",
        sa.sustainable_streams,
        stream_cfg.chunk_interval_s * 1e3
    );

    // Decode trajectory: per-token steady-state latency of the plan-lowered
    // beam decode and the load-byte elision KV residency buys a warm step.
    let dcfg = AccelConfig::paper_default();
    let mem = dcfg.max_seq_len.min(32);
    let da = decode_analytics(&dcfg, Architecture::A2, mem, 4, 64, 32, dcfg.integrity)
        .map_err(|e| CliError::Rejected(format!("decode analytics failed: {}", e)))?;
    println!(
        "decode cold step     : {:8.3} ms, {:>12} B fetched (beam 4, memory {})",
        da.cold.latency_s * 1e3,
        da.cold_step_bytes,
        mem
    );
    println!(
        "decode steady step   : {:8.3} ms/token, {:>12} B fetched",
        da.steady_ms_per_token, da.steady_step_bytes
    );
    println!(
        "decode elision       : {:8.1} % of scheduled load bytes once resident",
        da.elided_fraction * 100.0
    );

    // Weight traffic under compression: the same A3 utterance plan priced
    // dense vs int8 — the encoded bytes the wire actually moves.
    let traffic = |c: &AccelConfig| -> Result<u64, CliError> {
        Ok(ExecPlan::lower(c, Architecture::A3, 32, 1, IntegrityLevel::Off)
            .map_err(|e| CliError::Rejected(format!("traffic lowering failed: {}", e)))?
            .scheduled_load_bytes())
    };
    let base = AccelConfig::paper_default();
    let dense_wire_bytes = traffic(&base)?;
    let int8_wire_bytes = traffic(&quant::int8_config(&base))?;
    println!(
        "weight traffic       : {:>12} B dense -> {} B int8 per utterance",
        dense_wire_bytes, int8_wire_bytes
    );

    // Cluster scaling: the highest offered load an N-node × 1-card cluster
    // serves with ≥99% of requests completing — same bisection as the pool.
    let cluster_sustains = |nodes: usize, rps: f64| -> Option<(bool, f64)> {
        let mut c = ClusterConfig::new(nodes, 1, rps, 0.2);
        c.requests = 80;
        let r = Cluster::run(c).ok()?;
        Some((r.success_ratio() >= 0.99, r.throughput_rps))
    };
    let mut cluster_rps = Vec::new();
    for nodes in 1..=3usize {
        let (mut lo, mut hi) = (0.0_f64, 25.0_f64);
        loop {
            match cluster_sustains(nodes, hi) {
                Some((true, _)) => {
                    lo = hi;
                    if hi >= 1600.0 {
                        break;
                    }
                    hi *= 2.0;
                }
                Some((false, _)) => break,
                None => {
                    return Err(CliError::Rejected(format!(
                        "cluster sweep died at {} nodes",
                        nodes
                    )))
                }
            }
        }
        for _ in 0..6 {
            let mid = 0.5 * (lo + hi);
            match cluster_sustains(nodes, mid) {
                Some((true, _)) => lo = mid,
                Some((false, _)) => hi = mid,
                None => break,
            }
        }
        println!(
            "cluster sustainable  : {:8.1} req/s at >=99% ({} node{})",
            lo,
            nodes,
            if nodes == 1 { "" } else { "s" }
        );
        cluster_rps.push(lo);
    }

    // Rolling-upgrade downtime on a 3-node cluster at moderate load, and
    // the p99 a mid-trace node kill adds over the fault-free run.
    let chaos = |faults: Vec<NodeFault>, upgrade: Option<UpgradeConfig>| -> Result<_, CliError> {
        let mut c = ClusterConfig::new(3, 1, 60.0, 0.5);
        c.requests = 200;
        c.faults = faults;
        c.upgrade = upgrade;
        Cluster::run(c).map_err(|e| CliError::Rejected(e.to_string()))
    };
    let upgraded = chaos(Vec::new(), Some(UpgradeConfig::new(1, 0.3)))?;
    let clean = chaos(Vec::new(), None)?;
    let killed = chaos(vec![NodeFault::Kill { node: 1, at_s: 1.0 }], None)?;
    let added_p99_ms = (killed.p99_latency_s - clean.p99_latency_s) * 1e3;
    println!(
        "upgrade downtime     : {:8.2} ms ({} over 3 nodes)",
        upgraded.upgrade_downtime_s * 1e3,
        upgraded.upgrade.name()
    );
    println!(
        "failover-added p99   : {:8.2} ms (clean {:.2} -> node-kill {:.2}, {} lost)",
        added_p99_ms,
        clean.p99_latency_s * 1e3,
        killed.p99_latency_s * 1e3,
        killed.lost
    );

    let entry = format!(
        "  {{\n    \"label\": \"{}\",\n    \"rev\": \"{}\",\n    \"bench\": {{\n      \"plan_lowering_us\": {:.1},\n      \"analytic_e2e_ms\": {:.3},\n      \"sustainable_rps_at_99pct\": {:.1},\n      \"throughput_rps_at_sustainable\": {:.1},\n      \"streaming\": {{\n        \"cold_chunk_ms\": {:.3},\n        \"warm_chunk_ms\": {:.3},\n        \"elided_load_fraction\": {:.4},\n        \"sustainable_streams\": {}\n      }},\n      \"decode\": {{\n        \"beam\": 4,\n        \"cold_step_ms\": {:.3},\n        \"steady_ms_per_token\": {:.3},\n        \"cold_step_bytes\": {},\n        \"steady_step_bytes\": {},\n        \"elided_load_fraction\": {:.4}\n      }},\n      \"weight_traffic\": {{\n        \"dense_scheduled_bytes\": {},\n        \"int8_scheduled_bytes\": {}\n      }},\n      \"replay\": {{\n        \"checkpoint_off\": {{\n          \"replayed_compute_ms\": {:.3},\n          \"replayed_load_bytes\": {},\n          \"resumed_dispatches\": {}\n        }},\n        \"checkpoint_on\": {{\n          \"replayed_compute_ms\": {:.3},\n          \"replayed_load_bytes\": {},\n          \"resumed_dispatches\": {},\n          \"skipped_compute_ms\": {:.3},\n          \"skipped_load_bytes\": {}\n        }}\n      }}\n    }},\n    \"cluster\": {{\n      \"sustainable_rps_at_99pct\": [{:.1}, {:.1}, {:.1}],\n      \"upgrade_downtime_ms\": {:.3},\n      \"upgrade_outcome\": \"{}\",\n      \"clean_p99_ms\": {:.3},\n      \"node_kill_p99_ms\": {:.3},\n      \"failover_added_p99_ms\": {:.3},\n      \"node_kill_lost\": {}\n    }}\n  }}",
        label.replace('"', ""),
        git_rev(),
        lower_us,
        e2e_ms,
        lo,
        thr_at_lo,
        sa.cold_chunk_s * 1e3,
        sa.warm_chunk_s * 1e3,
        sa.elided_fraction,
        sa.sustainable_streams,
        da.cold.latency_s * 1e3,
        da.steady_ms_per_token,
        da.cold_step_bytes,
        da.steady_step_bytes,
        da.elided_fraction,
        dense_wire_bytes,
        int8_wire_bytes,
        off.replayed_compute_s * 1e3,
        off.replayed_load_bytes,
        off.resumed_dispatches,
        on.replayed_compute_s * 1e3,
        on.replayed_load_bytes,
        on.resumed_dispatches,
        on.skipped_compute_s * 1e3,
        on.skipped_load_bytes,
        cluster_rps[0],
        cluster_rps[1],
        cluster_rps[2],
        upgraded.upgrade_downtime_s * 1e3,
        upgraded.upgrade.name(),
        clean.p99_latency_s * 1e3,
        killed.p99_latency_s * 1e3,
        added_p99_ms,
        killed.lost
    );
    append_trajectory(&out, &entry)?;
    println!("appended '{}' ({}) to {}", label, git_rev(), out);
    Ok(())
}

fn cmd_csv(which: &str) -> ExitCode {
    let cfg = AccelConfig::paper_default();
    let rows = match which {
        "fig5.2" => sweep::sweep_load_compute(&cfg, &(2..=40).step_by(2).collect::<Vec<_>>()),
        "table5.1" => sweep::sweep_architectures(&cfg, &[4, 8, 16, 32]),
        "ii" => sweep::sweep_ii(&cfg, &[1, 2, 4, 8, 12, 16, 24]),
        other => {
            eprintln!("unknown csv sweep '{}'", other);
            return ExitCode::FAILURE;
        }
    };
    print!("{}", sweep::to_csv(&rows));
    ExitCode::SUCCESS
}
