//! `pool_sim`: the virtual-time serving simulators, no functional math. One
//! op is a fixed mix of three runs: a 2-card serve pool fed seeded Poisson
//! arrivals with a scripted fault on card 1, a streaming pool with a dead
//! card, and a 3-node bursty cluster that loses a node mid-run. The seed
//! changes only arrival times; the fault schedule is the same for every
//! seed.

use crate::arrivals::{chunk_arrivals, poisson_arrivals, SplitMix64};
use crate::harness::{Report, Workload};
use crate::stats;
use crate::trace::{durations, Span, Tracer};
use asr_accel::stream::ChunkOutcome;
use asr_accel::{
    pool_fault_plans, BatchConfig, Cluster, ClusterConfig, ClusterReport, NodeFault,
    RequestOutcome, RequestRecord, ServeConfig, ServePool, ServeReport, StreamConfig, StreamPool,
    StreamReport, TrafficTrace,
};
use asr_fpga_sim::faults::{FaultKind, FaultPlan};
use asr_systolic::abft::IntegrityLevel;

/// Per-request deadline of the serve pool, seconds.
pub const DEADLINE_S: f64 = 0.2;
/// Cards in the serve pool.
pub const CARDS: usize = 2;
/// Largest dispatch the serve pool coalesces.
pub const MAX_BATCH: usize = 4;
/// Offered rate of the op's serve run, requests per simulated second:
/// about 70 % of the clean pool's steady capacity (`STEADY_LADDER`).
pub const SERVE_RPS: f64 = 90.0;
/// Requests in the op's serve run.
pub const SERVE_REQUESTS: usize = 6000;
/// Simulated time of the scripted card fault: about 80 % into the run.
pub const FAULT_AT_S: f64 = 53.0;
/// Offered-rate ladder of the steady-capacity probe, requests per second.
pub const STEADY_LADDER: [f64; 12] =
    [25.0, 50.0, 75.0, 100.0, 110.0, 120.0, 125.0, 130.0, 140.0, 150.0, 175.0, 200.0];
/// Discarded warm-up of each ladder rung, seconds.
pub const WARMUP_S: f64 = 5.0;
/// The measured window of each ladder rung: 150× the deadline.
pub const WINDOW_S: f64 = 30.0;

/// The serve deployment every run here uses: `ServeConfig::new`'s int8
/// build, batching with linger, checkpointed failover, `detect-recompute`.
pub fn serve_config(rps: f64, requests: usize) -> ServeConfig {
    let mut c = ServeConfig::new(CARDS, 0, rps, DEADLINE_S);
    c.requests = requests;
    c.batch = BatchConfig { max_batch: MAX_BATCH, linger_s: 0.002 };
    c.checkpoint = true;
    c.accel.integrity = IntegrityLevel::DetectAndRecompute;
    c
}

/// The scripted fault: from `FAULT_AT_S` on, card 1's decoder-4 weight
/// load fails every attempt, so each dispatch there dies mid-plan and its
/// checkpointed suffix fails over to card 0 until card 1's breaker opens.
/// The pool has no call that clears a fault, so it holds to the end of
/// the run; card 0 then carries the whole offered load alone.
fn scripted_fault() -> Vec<FaultPlan> {
    let mut plans = vec![FaultPlan::none(); CARDS];
    plans[1] = FaultPlan::none()
        .with(FaultKind::HbmLoadError { label: "LWD4".into(), failing_attempts: u32::MAX });
    plans
}

/// First-principles capacity of a pool: what its cards can complete.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Capacity {
    /// Cards × the fastest per-request rate any batch size allows
    /// (`b / fault-free service time of a batch of b`), requests/second.
    pub rps: f64,
    /// Requests that can already be in flight when an interval starts:
    /// one full batch per card.
    pub in_flight: f64,
}

impl Capacity {
    /// The capacity of `pool`, built from `cfg`.
    fn of(pool: &mut ServePool, cfg: &ServeConfig) -> Capacity {
        let per_card = (1..=cfg.batch.max_batch)
            .map(|b| b as f64 / pool.batch_nominal_s(b))
            .fold(0.0, f64::max);
        Capacity {
            rps: cfg.devices as f64 * per_card,
            in_flight: (cfg.devices * cfg.batch.max_batch) as f64,
        }
    }

    /// `n` times this capacity (identical pools side by side).
    fn times(self, n: usize) -> Capacity {
        Capacity { rps: self.rps * n as f64, in_flight: self.in_flight * n as f64 }
    }

    /// `completed` requests finishing within `secs` must fit what the cards
    /// can serve in that time plus what was already in flight.
    pub fn admits(&self, completed: usize, secs: f64) -> Result<(), String> {
        if completed as f64 <= self.rps * secs + self.in_flight + 1e-9 {
            Ok(())
        } else {
            Err(format!(
                "{} completions in {:.3} s exceed the capacity bound {:.1} req/s",
                completed, secs, self.rps
            ))
        }
    }
}

/// Feed `arrivals` through `submit`, injecting `fault` when the clock
/// reaches its time, then drain. Also returns the pool's capacity.
pub fn run_serve(
    cfg: ServeConfig,
    arrivals: &[f64],
    fault: Option<(f64, Vec<FaultPlan>)>,
) -> Result<(ServeReport, Capacity), String> {
    let plans = vec![FaultPlan::none(); cfg.devices];
    let mut pool = ServePool::with_plans(cfg.clone(), plans)
        .map_err(|e| format!("serve pool rejected its config: {}", e))?;
    let cap = Capacity::of(&mut pool, &cfg);
    let mut fault = fault;
    for &t in arrivals {
        if let Some((at, plans)) = fault.take_if(|(at, _)| t >= *at) {
            pool.run_until(at);
            pool.inject_faults(&plans).map_err(|e| format!("fault injection failed: {}", e))?;
        }
        // A shed request is recorded in the report; the error is its
        // caller-facing half.
        let _ = pool.submit(t);
    }
    Ok((pool.drain(), cap))
}

/// Conservation: every submitted request ends exactly one way.
pub fn serve_conserves(r: &ServeReport) -> Result<(), String> {
    let ended =
        r.completed + r.shed + r.deadline_missed + r.failed + r.dropped_at_shutdown + r.evicted;
    if ended != r.submitted || r.records.len() != r.submitted {
        return Err(format!(
            "serve accounting: {} submitted but {} ended ({} records)",
            r.submitted,
            ended,
            r.records.len()
        ));
    }
    Ok(())
}

fn stream_conserves(r: &StreamReport) -> Result<(), String> {
    let dropped =
        r.records.iter().filter(|c| matches!(c.outcome, ChunkOutcome::SessionDropped)).count();
    let ended = r.chunks_served + r.stale_shed + r.backpressure_shed + dropped;
    if ended != r.chunks_total || r.records.len() != r.chunks_total {
        return Err(format!("stream accounting: {} chunks but {} ended", r.chunks_total, ended));
    }
    if r.failovers != r.chunks_replayed {
        return Err(format!(
            "stream replayed {} chunks for {} failovers",
            r.chunks_replayed, r.failovers
        ));
    }
    Ok(())
}

fn cluster_conserves(r: &ClusterReport) -> Result<(), String> {
    let ended = r.completed + r.shed + r.deadline_missed + r.failed + r.dropped + r.lost;
    if ended != r.offered {
        return Err(format!("cluster accounting: {} offered but {} ended", r.offered, ended));
    }
    if r.lost != 0 {
        return Err(format!("cluster lost {} requests under checkpointed failover", r.lost));
    }
    Ok(())
}

/// Completed requests of `records` whose arrival lies in `[from, to)`,
/// against all that arrived there.
fn completed_in(records: &[RequestRecord], from: f64, to: f64) -> (usize, usize) {
    let window: Vec<&RequestRecord> =
        records.iter().filter(|r| r.arrival_s >= from && r.arrival_s < to).collect();
    let done =
        window.iter().filter(|r| matches!(r.outcome, RequestOutcome::Completed { .. })).count();
    (done, window.len())
}

/// Requests of `records` that finished inside `[from, to)`.
fn finished_in(records: &[RequestRecord], from: f64, to: f64) -> usize {
    records
        .iter()
        .filter(|r| match r.outcome {
            RequestOutcome::Completed { latency_s, .. } => {
                (from..to).contains(&(r.arrival_s + latency_s))
            }
            _ => false,
        })
        .count()
}

/// One rung of the steady-capacity probe: a clean pool at `rps` after a
/// discarded warm-up. Steady when each quarter of the window completes at
/// least 99 % of its arrivals in time (a growing backlog fails the late
/// quarters first). Also checks conservation and the capacity bound.
pub fn steady_at(rps: f64, seed: u64) -> Result<bool, String> {
    let n = (rps * (WARMUP_S + WINDOW_S)).ceil() as usize;
    let arrivals = poisson_arrivals(seed, rps, n, 0.0);
    let (r, cap) = run_serve(serve_config(rps, n), &arrivals, None)?;
    serve_conserves(&r)?;
    cap.admits(finished_in(&r.records, WARMUP_S, WARMUP_S + WINDOW_S), WINDOW_S)?;
    let (_, total) = completed_in(&r.records, WARMUP_S, WARMUP_S + WINDOW_S);
    let q = WINDOW_S / 4.0;
    Ok((0..4).all(|i| {
        let from = WARMUP_S + i as f64 * q;
        let (done, total) = completed_in(&r.records, from, from + q);
        done as f64 >= 0.99 * total as f64
    }) && total > 0)
}

/// The highest rung of `ladder` (ascending) below the first rung that
/// `steady` rejects; 0 when the first rung already fails.
pub fn highest_steady(
    ladder: &[f64],
    mut steady: impl FnMut(usize, f64) -> Result<bool, String>,
) -> Result<f64, String> {
    let mut best = 0.0;
    for (i, &rps) in ladder.iter().enumerate() {
        if !steady(i, rps)? {
            break;
        }
        best = rps;
    }
    Ok(best)
}

/// Steady capacity of the clean serve pool on [`STEADY_LADDER`]; each rung
/// gets its own seeded arrivals. A result above the pool's first-principles
/// capacity is an error.
pub fn steady_rps(seed: u64) -> Result<f64, String> {
    let rps = highest_steady(&STEADY_LADDER, |i, rps| {
        steady_at(rps, seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9))
    })?;
    let cfg = serve_config(rps.max(1.0), 1);
    let mut pool = ServePool::new(cfg.clone()).map_err(|e| format!("serve pool: {}", e))?;
    let cap = Capacity::of(&mut pool, &cfg);
    if rps > cap.rps {
        return Err(format!("steady {} req/s exceeds the capacity bound {:.1}", rps, cap.rps));
    }
    Ok(rps)
}

/// Workload state: generated inputs plus the last op's reports.
pub struct PoolSim {
    seed: u64,
    serve_arrivals: Vec<f64>,
    stream_arrivals: Vec<Vec<f64>>,
    cluster_seed: u64,
    /// Capacity of the cluster: nodes × its node pool's capacity.
    cluster_cap: Capacity,
    last: Option<(ServeReport, StreamReport, ClusterReport)>,
    steady: Option<Result<f64, String>>,
}

/// Streaming pool shape: sessions, chunks each, cadence, deadline.
const STREAMS: usize = 8;
const CHUNKS: usize = 100;
const CHUNK_INTERVAL_S: f64 = 0.040;
const CHUNK_DEADLINE_S: f64 = 0.060;
/// Cluster shape: nodes, total offered rate, requests, kill time.
const NODES: usize = 3;
const CLUSTER_RPS: f64 = 150.0;
const CLUSTER_REQUESTS: usize = 3000;
const KILL_AT_S: f64 = 10.0;

impl PoolSim {
    /// Inputs from `seed`: the serve arrivals, the stream chunk schedules,
    /// and the cluster's trace seed.
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x9001);
        let serve_arrivals = poisson_arrivals(rng.next_u64(), SERVE_RPS, SERVE_REQUESTS, 0.0);
        let stream_arrivals =
            chunk_arrivals(rng.next_u64(), STREAMS, CHUNKS, CHUNK_INTERVAL_S, 0.005);
        let mut sim = PoolSim {
            seed,
            serve_arrivals,
            stream_arrivals,
            cluster_seed: rng.next_u64(),
            cluster_cap: Capacity { rps: f64::NAN, in_flight: 0.0 },
            last: None,
            steady: None,
        };
        let node = sim.cluster_config().serve;
        let mut pool = ServePool::new(node.clone()).expect("the cluster's node template is valid");
        sim.cluster_cap = Capacity::of(&mut pool, &node).times(NODES);
        sim
    }

    fn stream_config() -> StreamConfig {
        let mut c = StreamConfig::new(CARDS, 1, STREAMS, CHUNK_DEADLINE_S);
        c.chunks_per_stream = CHUNKS;
        c.chunk_interval_s = CHUNK_INTERVAL_S;
        c
    }

    fn cluster_config(&self) -> ClusterConfig {
        let mut c = ClusterConfig::new(NODES, 1, CLUSTER_RPS, DEADLINE_S);
        c.requests = CLUSTER_REQUESTS;
        c.trace = TrafficTrace::Bursty;
        c.seed = self.cluster_seed;
        c.faults = vec![NodeFault::Kill { node: NODES - 1, at_s: KILL_AT_S }];
        c
    }
}

impl Workload for PoolSim {
    fn root_span(&self) -> &'static str {
        "pool.op"
    }

    fn items_per_op(&self) -> f64 {
        (SERVE_REQUESTS + STREAMS * CHUNKS + CLUSTER_REQUESTS) as f64
    }

    fn build(&mut self, _tr: &Tracer) {
        self.last = None;
    }

    fn op(&mut self, tr: &Tracer) -> Result<(), String> {
        let _op = tr.span("pool.op");
        let (serve, cap) = {
            let _s = tr.span("serve.run");
            run_serve(
                serve_config(SERVE_RPS, SERVE_REQUESTS),
                &self.serve_arrivals,
                Some((FAULT_AT_S, scripted_fault())),
            )?
        };
        let stream = {
            let _s = tr.span("stream.run");
            let cfg = Self::stream_config();
            let plans = pool_fault_plans(cfg.fault_seed, cfg.devices);
            StreamPool::run_with(cfg, self.stream_arrivals.clone(), plans)
                .map_err(|e| format!("stream pool failed: {}", e))?
        };
        let cluster = {
            let _s = tr.span("cluster.run");
            Cluster::run(self.cluster_config()).map_err(|e| format!("cluster failed: {}", e))?
        };
        drop(_op);
        serve_conserves(&serve)?;
        cap.admits(serve.completed, serve.wall_s)?;
        stream_conserves(&stream)?;
        cluster_conserves(&cluster)?;
        self.cluster_cap.admits(cluster.completed, cluster.wall_s)?;
        self.last = Some((serve, stream, cluster));
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn modeled(&mut self, out: &mut Report) {
        let steady = self.steady(out);
        println!(
            "steady_rps (modeled)               {:>14.6} req/s  >= 99 % in {:.0} ms, {} s window after {} s warm-up",
            steady,
            DEADLINE_S * 1e3,
            WINDOW_S,
            WARMUP_S
        );
        let (p99, miss, n) = self.serve_tail();
        if stats::supported_percentile(n).is_some_and(|q| q >= 0.99) {
            println!(
                "sim_p99_ms (modeled)               {:>14.6} ms  at {} req/s with the scripted fault, {} completed",
                p99, SERVE_RPS, n
            );
        } else {
            out.check("sim_p99_ms", Err(format!("{} completions cannot support a p99", n)));
        }
        println!("sim_miss_frac (modeled)            {:>14.6} ratio", miss);
    }

    fn layers(&mut self, spans: &[Span], out: &mut Report) {
        let steady = self.steady(out);
        let (serve, stream, cluster) = self.last.as_ref().expect("an op ran before the report");
        let mean = |name: &str| stats::mean(&durations(spans, name));
        out.metric("serve.host_us_per_req", mean("serve.run") * 1e6 / serve.submitted as f64, "us");
        out.metric(
            "stream.host_us_per_chunk",
            mean("stream.run") * 1e6 / stream.chunks_total as f64,
            "us",
        );
        out.metric(
            "cluster.host_us_per_req",
            mean("cluster.run") * 1e6 / cluster.offered as f64,
            "us",
        );
        let (mut queue_ms, mut service_ms) = (Vec::new(), Vec::new());
        for r in &serve.records {
            if let RequestOutcome::Completed { latency_s, service_s, .. } = r.outcome {
                queue_ms.push((latency_s - service_s) * 1e3);
                service_ms.push(service_s * 1e3);
            }
        }
        out.metric("serve.dispatches", serve.batches as f64, "count");
        out.metric("serve.mean_batch", serve.mean_batch, "count");
        out.metric("serve.failovers", serve.failed_over as f64, "count");
        out.metric("serve.resumed", serve.resumed_dispatches as f64, "count");
        let opens: u32 = serve.per_device.iter().map(|d| d.breaker_opens).sum();
        out.metric("serve.breaker_opens", opens as f64, "count");
        out.metric("serve.queue_ms_mean", stats::mean(&queue_ms), "ms");
        out.metric("serve.queue_ms_p99", stats::percentile(&queue_ms, 0.99).unwrap_or(0.0), "ms");
        out.metric("serve.service_ms_mean", stats::mean(&service_ms), "ms");
        let (p99, miss, _) = self.serve_tail();
        out.metric("serve.sim_p99_ms", p99, "ms");
        out.metric("serve.sim_miss_frac", miss, "ratio");
        out.metric("serve.steady_rps", steady, "req/s");
        out.metric("stream.elided_fraction", stream.elided_fraction, "ratio");
        out.metric("stream.replayed", stream.chunks_replayed as f64, "count");
        out.metric("cluster.handoffs", cluster.handoffs as f64, "count");
        out.metric("cluster.lost", cluster.lost as f64, "count");
    }
}

impl PoolSim {
    /// Steady capacity, probed once per run; a failed probe is a failed
    /// check.
    fn steady(&mut self, out: &mut Report) -> f64 {
        let seed = self.seed;
        let r = self.steady.get_or_insert_with(|| steady_rps(seed));
        match r {
            Ok(v) => *v,
            Err(e) => {
                out.check("steady-capacity probe", Err(e.clone()));
                f64::NAN
            }
        }
    }

    /// Modeled p99 latency over completed requests, the share not
    /// completed in time, and the completed count, of the last op's serve
    /// run.
    fn serve_tail(&self) -> (f64, f64, usize) {
        let Some((serve, _, _)) = &self.last else { return (f64::NAN, f64::NAN, 0) };
        let lat: Vec<f64> = serve
            .records
            .iter()
            .filter_map(|r| match r.outcome {
                RequestOutcome::Completed { latency_s, .. } => Some(latency_s * 1e3),
                _ => None,
            })
            .collect();
        let miss = 1.0 - serve.completed as f64 / serve.submitted.max(1) as f64;
        (stats::percentile(&lat, 0.99).unwrap_or(f64::NAN), miss, lat.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_search_stops_at_the_first_unsteady_rung() {
        let ladder = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(highest_steady(&ladder, |_, r| Ok(r <= 25.0)), Ok(20.0));
        assert_eq!(highest_steady(&ladder, |_, _| Ok(true)), Ok(40.0));
        assert_eq!(highest_steady(&ladder, |_, _| Ok(false)), Ok(0.0));
        // A rung past the first failure never counts, even if it passes.
        assert_eq!(highest_steady(&ladder, |i, _| Ok(i != 1)), Ok(10.0));
        assert!(highest_steady(&ladder, |_, _| Err("boom".into())).is_err());
    }

    #[test]
    fn steady_capacity_sits_below_the_first_principles_bound() {
        assert!(steady_at(STEADY_LADDER[0], 1).unwrap());
        assert!(!steady_at(*STEADY_LADDER.last().unwrap(), 1).unwrap());
        let rps = steady_rps(1).unwrap();
        let cfg = serve_config(rps, 1);
        let cap = Capacity::of(&mut ServePool::new(cfg.clone()).unwrap(), &cfg);
        assert!(rps > SERVE_RPS && rps <= cap.rps, "steady {} bound {}", rps, cap.rps);
        assert_eq!(steady_rps(1), steady_rps(1));
    }

    #[test]
    fn conservation_checks_catch_a_lost_request() {
        let arrivals = poisson_arrivals(3, 50.0, 200, 0.0);
        let (mut r, cap) = run_serve(serve_config(50.0, 200), &arrivals, None).unwrap();
        assert_eq!(serve_conserves(&r), Ok(()));
        assert_eq!(cap.admits(r.completed, r.wall_s), Ok(()));
        r.completed -= 1;
        assert!(serve_conserves(&r).is_err());
        let over = (cap.rps * 10.0 + cap.in_flight) as usize + 1;
        assert!(cap.admits(over, 10.0).is_err());
        assert_eq!(cap.admits(over - 1, 10.0), Ok(()));

        let sim = PoolSim::new(3);
        let mut c = Cluster::run(sim.cluster_config()).unwrap();
        assert_eq!(cluster_conserves(&c), Ok(()));
        c.lost += 1;
        c.completed -= 1;
        assert!(cluster_conserves(&c).is_err());

        let cfg = PoolSim::stream_config();
        let plans = pool_fault_plans(cfg.fault_seed, cfg.devices);
        let mut st = StreamPool::run_with(cfg, sim.stream_arrivals.clone(), plans).unwrap();
        assert_eq!(stream_conserves(&st), Ok(()));
        st.chunks_served -= 1;
        assert!(stream_conserves(&st).is_err());
    }

    #[test]
    fn a_pool_op_passes_its_checks_and_repeats_exactly() {
        let tr = Tracer::new(false);
        let mut a = PoolSim::new(9);
        a.op(&tr).unwrap();
        let mut b = PoolSim::new(9);
        b.op(&tr).unwrap();
        let (sa, sb) = (a.last.unwrap().0, b.last.unwrap().0);
        assert_eq!(sa.completed, sb.completed);
        assert_eq!(format!("{:?}", sa.records), format!("{:?}", sb.records));
        assert!(sa.failed_over > 0, "the scripted fault forces failovers");
    }
}
