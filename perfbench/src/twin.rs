//! `twin_offline`: the accelerator's functional twin at paper scale. One op
//! is one `integrity::run_functional_plan` call on an A2 plan lowered for
//! a batch of 8 utterances at s = 32, at `detect-recompute`, no faults.

use crate::arrivals::SplitMix64;
use crate::harness::{bit_identical, Report, Workload};
use crate::stats;
use crate::trace::{durations, Span, Tracer};
use asr_accel::integrity::load_model_with_faults_encoded;
use asr_accel::{
    run_functional_plan, walk_cost, AccelConfig, Architecture, BatchIntegrityRun,
    CorruptionCounters, ExecPlan, FunctionalFaults, HostController,
};
use asr_systolic::abft::IntegrityLevel;
use asr_transformer::ModelWeights;

/// Utterances per op: the batch `asrsim bench` lowers.
pub const BATCH: usize = 8;
/// Encoder length: the paper's headline `s`.
pub const SEQ_LEN: usize = 32;
/// The paper's end-to-end latency at s = 32 on the U50 (§5.1.6), ms.
pub const PAPER_E2E_MS: f64 = 120.45;

/// Workload state.
pub struct Twin {
    cfg: AccelConfig,
    model_seed: u64,
    input_seeds: Vec<u64>,
    plan: Option<ExecPlan>,
    /// Outputs of the last op, compared against the `Off` reference.
    last: Option<BatchIntegrityRun>,
    abft_tiles: Vec<f64>,
    /// Dense bytes of every weight matrix, for the load bandwidth.
    weight_bytes: usize,
}

impl Twin {
    /// Inputs from `seed`: the model seed and one input seed per utterance.
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x7a1e);
        let model_seed = rng.next_u64();
        let input_seeds = (0..BATCH).map(|_| rng.next_u64()).collect();
        Twin {
            cfg: AccelConfig::paper_default(),
            model_seed,
            input_seeds,
            plan: None,
            last: None,
            abft_tiles: Vec::new(),
            weight_bytes: 0,
        }
    }

    fn lower(&self, level: IntegrityLevel) -> ExecPlan {
        ExecPlan::lower(&self.cfg, Architecture::A2, SEQ_LEN, BATCH, level)
            .expect("the paper default config lowers at s = 32")
    }
}

/// Bit-for-bit comparison of two batched runs' per-utterance outputs.
fn same_outputs(a: &BatchIntegrityRun, b: &BatchIntegrityRun) -> bool {
    a.utterances.len() == b.utterances.len()
        && a.utterances.iter().zip(&b.utterances).all(|(x, y)| {
            x.transcript == y.transcript
                && bit_identical(&x.encoder_out, &y.encoder_out)
                && bit_identical(&x.decoder_out, &y.decoder_out)
        })
}

impl Workload for Twin {
    fn root_span(&self) -> &'static str {
        "integrity.run_functional_plan"
    }

    fn items_per_op(&self) -> f64 {
        BATCH as f64
    }

    fn build(&mut self, _tr: &Tracer) {
        self.plan = Some(self.lower(IntegrityLevel::DetectAndRecompute));
    }

    fn op(&mut self, tr: &Tracer) -> Result<(), String> {
        let plan = self.plan.as_ref().expect("built before the first op");
        if tr.enabled() {
            // Traced ops also time the op's two fixed costs on their own,
            // outside the op's span, so the interpreter's share can be
            // derived from the op.
            let w = {
                let _s = tr.span("transformer.seed");
                ModelWeights::seeded(&self.cfg.model, self.model_seed)
            };
            self.weight_bytes = w.matrices().iter().map(|m| m.rows() * m.cols() * 4).sum();
            let _s = tr.span("integrity.load");
            let mut c = CorruptionCounters::default();
            load_model_with_faults_encoded(
                &w,
                self.cfg.encoding,
                &FunctionalFaults::none(),
                plan.integrity,
                &mut c,
            )
            .map_err(|e| format!("weight load failed: {}", e))?;
        }
        let run = {
            let _s = tr.span("integrity.run_functional_plan");
            run_functional_plan(
                &self.cfg,
                plan,
                self.model_seed,
                &self.input_seeds,
                &FunctionalFaults::none(),
            )
            .map_err(|e| format!("functional run failed: {}", e))?
        };
        let (c, abft) = (run.counters, run.abft);
        if c.detected != 0 || c.escaped != 0 || abft.detected != 0 || abft.recomputed != 0 {
            return Err(format!(
                "fault-free run reported corruption: {} detected, {} escaped, {} tiles recomputed",
                c.detected, c.escaped, abft.recomputed
            ));
        }
        if run.utterances.len() != BATCH {
            return Err(format!("{} utterances out of a batch of {}", run.utterances.len(), BATCH));
        }
        if let Some(prev) = &self.last {
            if !same_outputs(prev, &run) {
                return Err("outputs differ from the previous op on the same inputs".into());
            }
        }
        self.abft_tiles.push(abft.checked_tiles as f64);
        self.last = Some(run);
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        let off = run_functional_plan(
            &self.cfg,
            &self.lower(IntegrityLevel::Off),
            self.model_seed,
            &self.input_seeds,
            &FunctionalFaults::none(),
        )
        .map_err(|e| format!("integrity-off reference failed: {}", e))?;
        let ours = self.last.as_ref().ok_or("no op ran before the reference check")?;
        if same_outputs(ours, &off) {
            Ok(())
        } else {
            Err("detect-recompute outputs are not bit-identical to the integrity-off run".into())
        }
    }

    fn modeled(&mut self, _out: &mut Report) {
        let host = HostController::new(AccelConfig::paper_default())
            .expect("the paper default config is valid");
        let e2e_ms = host.latency_report(SEQ_LEN).total_s * 1e3;
        println!(
            "sim_e2e_ms (modeled)               {:>14.6} ms  paper {:.2} ms, error {:+.2} %",
            e2e_ms,
            PAPER_E2E_MS,
            (e2e_ms - PAPER_E2E_MS) / PAPER_E2E_MS * 100.0
        );
        let plan = self.plan.as_ref().expect("built before the report");
        let utt_ms = walk_cost(&self.cfg, plan).latency_s * 1e3 / BATCH as f64;
        println!(
            "sim_utt_ms (modeled)               {:>14.6} ms  per utterance, batch {}",
            utt_ms, BATCH
        );
    }

    fn layers(&mut self, spans: &[Span], out: &mut Report) {
        let mean = |name: &str| stats::mean(&durations(spans, name));
        let seed_s = mean("transformer.seed");
        let load_s = mean("integrity.load");
        let op_s = mean("integrity.run_functional_plan");
        out.metric("transformer.seed_s", seed_s, "s");
        out.metric("integrity.load_s", load_s, "s");
        out.metric("integrity.load_mb_per_s", self.weight_bytes as f64 / 1e6 / load_s, "MB/s");
        println!("  (integrity.interpret_s is derived: run_functional_plan minus seed and load)");
        out.metric("integrity.interpret_s", op_s - seed_s - load_s, "s");
        out.metric("integrity.abft_tiles", stats::mean(&self.abft_tiles), "count");
    }
}
