//! Beam-search decoding.
//!
//! ESPnet's recognizer (the software stack the paper deploys) decodes with
//! beam search rather than pure greedy; this module provides it so the
//! library covers the full recognizer surface. Hypotheses are scored by
//! accumulated log-probability with an optional length penalty; `beam = 1`
//! reduces exactly to greedy decoding.

use crate::cache::{self, KvCache};
use crate::model::Model;
use asr_frontend::vocab::{self, TokenId};
use asr_tensor::{MatMul, Matrix};
use std::convert::Infallible;

/// Beam-search parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeamConfig {
    /// Beam width (1 = greedy).
    pub beam: usize,
    /// Maximum generated tokens (excluding `<sos>`).
    pub max_len: usize,
    /// Length-normalisation exponent α: scores divide by `len^α`.
    pub length_penalty: f32,
}

impl BeamConfig {
    /// A typical ASR beam.
    pub fn default_asr() -> Self {
        BeamConfig { beam: 4, max_len: 64, length_penalty: 0.6 }
    }
}

/// One decoding hypothesis.
#[derive(Debug, Clone)]
pub struct Hypothesis {
    /// Token ids including `<sos>` (and `<eos>` when finished).
    pub tokens: Vec<TokenId>,
    /// Accumulated log-probability.
    pub log_prob: f32,
    /// Whether `<eos>` has been emitted.
    pub finished: bool,
}

impl Hypothesis {
    /// Length-normalised score.
    pub fn score(&self, alpha: f32) -> f32 {
        let len = (self.tokens.len().saturating_sub(1)).max(1) as f32;
        self.log_prob / len.powf(alpha)
    }
}

/// Log-softmax of a logits row (shared with the plan-lowered decode twin,
/// which must score hypotheses with bit-identical arithmetic).
pub fn log_softmax(row: &[f32]) -> Vec<f32> {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
    row.iter().map(|&x| x - max - log_sum).collect()
}

/// Beam-search decode against an encoder memory. Returns hypotheses sorted
/// best-first by length-normalised score.
pub fn beam_search(
    model: &Model,
    memory: &Matrix,
    cfg: &BeamConfig,
    backend: &dyn MatMul,
) -> Vec<Hypothesis> {
    assert!(cfg.beam >= 1, "beam width must be >= 1");
    assert!(cfg.max_len >= 1, "max_len must be >= 1");
    let mut beams = vec![Hypothesis { tokens: vec![vocab::SOS], log_prob: 0.0, finished: false }];

    for _ in 0..cfg.max_len {
        if beams.iter().all(|h| h.finished) {
            break;
        }
        let mut candidates: Vec<Hypothesis> = Vec::with_capacity(beams.len() * cfg.beam);
        for hyp in &beams {
            if hyp.finished {
                candidates.push(hyp.clone());
                continue;
            }
            let logits = model.decode_logits(&hyp.tokens, memory, backend);
            let lp = log_softmax(logits.row(logits.rows() - 1));
            // expand the top `beam` continuations of this hypothesis
            let mut idx: Vec<usize> = (0..lp.len()).collect();
            idx.sort_by(|&a, &b| lp[b].partial_cmp(&lp[a]).unwrap());
            for &t in idx.iter().take(cfg.beam) {
                let mut tokens = hyp.tokens.clone();
                tokens.push(t);
                candidates.push(Hypothesis {
                    tokens,
                    log_prob: hyp.log_prob + lp[t],
                    finished: t == vocab::EOS,
                });
            }
        }
        candidates.sort_by(|a, b| {
            b.score(cfg.length_penalty).partial_cmp(&a.score(cfg.length_penalty)).unwrap()
        });
        candidates.truncate(cfg.beam);
        beams = candidates;
    }
    beams.sort_by(|a, b| {
        b.score(cfg.length_penalty).partial_cmp(&a.score(cfg.length_penalty)).unwrap()
    });
    beams
}

/// KV-cached, kernel-coalesced beam search: the cross-attention K/V are
/// projected ONCE from the memory and shared across the whole beam, each
/// hypothesis keeps its own self-attention cache, and every step scores
/// ALL live hypotheses through one [`cache::step_beam`] — a single
/// batch-of-`B` kernel per weight matmul, exactly the coalesced `Compute`
/// shape `PlanBuilder::decode_step` lowers. `O(T)` projections per
/// hypothesis instead of the eager [`beam_search`]'s `O(T²)`.
///
/// At `beam = 1` the continuation choice ties-to-last like
/// [`cache::greedy_decode_with`]'s argmax, so a width-1 beam is
/// token-identical to the greedy path — pinned by tests and proptests.
pub fn beam_search_cached(
    model: &Model,
    memory: &Matrix,
    cfg: &BeamConfig,
    backend: &dyn MatMul,
) -> Vec<Hypothesis> {
    assert!(cfg.beam >= 1, "beam width must be >= 1");
    assert!(cfg.max_len >= 1, "max_len must be >= 1");
    let root = KvCache::new(model, memory, backend);
    let mut beams =
        vec![(Hypothesis { tokens: vec![vocab::SOS], log_prob: 0.0, finished: false }, root)];

    for _ in 0..cfg.max_len {
        if beams.iter().all(|(h, _)| h.finished) {
            break;
        }
        let Ok(next) = advance_beam(model, beams, cfg.beam, cfg.length_penalty, backend, |_| {
            Ok::<(), Infallible>(())
        });
        beams = next;
    }
    beams.sort_by(|a, b| {
        b.0.score(cfg.length_penalty).partial_cmp(&a.0.score(cfg.length_penalty)).unwrap()
    });
    beams.into_iter().map(|(h, _)| h).collect()
}

/// One step of a cached beam: feed every live hypothesis's newest token
/// through one coalesced [`cache::step_beam`], expand each into its `width`
/// most likely continuations, and keep the `width` best candidates by
/// [`Hypothesis::score`] under `length_penalty`. Finished hypotheses pass
/// through as candidates without a step. At least one hypothesis must be
/// live.
///
/// `check` sees the step's logits before any are scored; its error aborts
/// the step (the decode twin refuses non-finite logits this way).
///
/// The live caches move into the step and back, and a candidate carries
/// only the index of the hypothesis it extends. Only the survivors then
/// take a cache: the first survivor of a hypothesis gets its cache moved,
/// any further one a clone, which copies just the self-attention rows
/// because the cross K/V are shared.
pub fn advance_beam<E>(
    model: &Model,
    beams: Vec<(Hypothesis, KvCache)>,
    width: usize,
    length_penalty: f32,
    backend: &dyn MatMul,
    check: impl FnOnce(&Matrix) -> Result<(), E>,
) -> Result<Vec<(Hypothesis, KvCache)>, E> {
    let (hyps, caches): (Vec<Hypothesis>, Vec<KvCache>) = beams.into_iter().unzip();
    let mut slots: Vec<Option<KvCache>> = caches.into_iter().map(Some).collect();
    let live: Vec<usize> = (0..hyps.len()).filter(|&i| !hyps[i].finished).collect();
    let fronts: Vec<TokenId> =
        live.iter().map(|&i| *hyps[i].tokens.last().expect("non-empty")).collect();
    let mut stepped: Vec<KvCache> =
        live.iter().map(|&i| slots[i].take().expect("one cache per hypothesis")).collect();
    let logits = cache::step_beam(model, &fronts, &mut stepped, backend);
    for (&i, kv) in live.iter().zip(stepped) {
        slots[i] = Some(kv);
    }
    check(&logits)?;

    let mut candidates: Vec<(Hypothesis, usize)> = Vec::with_capacity(hyps.len() * width);
    let mut row = 0usize;
    for (src, hyp) in hyps.into_iter().enumerate() {
        if hyp.finished {
            candidates.push((hyp, src));
            continue;
        }
        let lp = log_softmax(logits.row(row));
        row += 1;
        // Descending log-prob; ties prefer the higher token id so a
        // width-1 beam picks exactly what greedy's ties-to-last argmax
        // picks.
        let mut idx: Vec<usize> = (0..lp.len()).collect();
        idx.sort_by(|&a, &b| lp[b].partial_cmp(&lp[a]).unwrap().then(b.cmp(&a)));
        for &t in idx.iter().take(width) {
            let mut tokens = hyp.tokens.clone();
            tokens.push(t);
            let next =
                Hypothesis { tokens, log_prob: hyp.log_prob + lp[t], finished: t == vocab::EOS };
            candidates.push((next, src));
        }
    }
    candidates
        .sort_by(|a, b| b.0.score(length_penalty).partial_cmp(&a.0.score(length_penalty)).unwrap());
    candidates.truncate(width);

    let mut uses = vec![0usize; slots.len()];
    for &(_, src) in &candidates {
        uses[src] += 1;
    }
    Ok(candidates
        .into_iter()
        .map(|(hyp, src)| {
            uses[src] -= 1;
            let kv = if uses[src] == 0 { slots[src].take() } else { slots[src].clone() };
            (hyp, kv.expect("a cache moves only to the last survivor that uses it"))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransformerConfig;
    use asr_tensor::backend::ReferenceBackend;
    use asr_tensor::init;

    fn rig() -> (Model, Matrix) {
        let model = Model::seeded(TransformerConfig::tiny(), 21);
        let x = init::uniform(5, model.config.d_model, -1.0, 1.0, 3);
        let mem = model.encode(&x, &ReferenceBackend);
        (model, mem)
    }

    #[test]
    fn beam_one_equals_greedy() {
        let (model, mem) = rig();
        let cfg = BeamConfig { beam: 1, max_len: 10, length_penalty: 0.0 };
        let beams = beam_search(&model, &mem, &cfg, &ReferenceBackend);
        let greedy = model.greedy_decode(&mem, 10, &ReferenceBackend);
        assert_eq!(beams[0].tokens, greedy);
    }

    #[test]
    fn wider_beam_never_scores_worse() {
        let (model, mem) = rig();
        let narrow = beam_search(
            &model,
            &mem,
            &BeamConfig { beam: 1, max_len: 8, length_penalty: 0.0 },
            &ReferenceBackend,
        );
        let wide = beam_search(
            &model,
            &mem,
            &BeamConfig { beam: 4, max_len: 8, length_penalty: 0.0 },
            &ReferenceBackend,
        );
        assert!(wide[0].score(0.0) >= narrow[0].score(0.0) - 1e-5);
    }

    #[test]
    fn returns_beam_many_sorted_hypotheses() {
        let (model, mem) = rig();
        let cfg = BeamConfig { beam: 3, max_len: 6, length_penalty: 0.6 };
        let beams = beam_search(&model, &mem, &cfg, &ReferenceBackend);
        assert_eq!(beams.len(), 3);
        for w in beams.windows(2) {
            assert!(w[0].score(0.6) >= w[1].score(0.6));
        }
    }

    #[test]
    fn hypotheses_start_with_sos_and_are_in_vocab() {
        let (model, mem) = rig();
        let beams = beam_search(&model, &mem, &BeamConfig::default_asr(), &ReferenceBackend);
        for h in &beams {
            assert_eq!(h.tokens[0], vocab::SOS);
            assert!(h.tokens.iter().all(|&t| t < model.config.vocab_size));
            assert!(h.log_prob <= 0.0);
        }
    }

    #[test]
    fn cached_beam_one_is_token_identical_to_cached_greedy() {
        let (model, mem) = rig();
        let cfg = BeamConfig { beam: 1, max_len: 10, length_penalty: 0.0 };
        let beams = beam_search_cached(&model, &mem, &cfg, &ReferenceBackend);
        let mut cache = crate::cache::KvCache::new(&model, &mem, &ReferenceBackend);
        let greedy = crate::cache::greedy_decode_with(&model, &mut cache, 10, &ReferenceBackend);
        assert_eq!(beams[0].tokens, greedy);
    }

    #[test]
    fn cached_beam_matches_eager_beam_token_for_token() {
        let (model, mem) = rig();
        for beam in [1usize, 2, 4] {
            let cfg = BeamConfig { beam, max_len: 8, length_penalty: 0.6 };
            let eager = beam_search(&model, &mem, &cfg, &ReferenceBackend);
            let cached = beam_search_cached(&model, &mem, &cfg, &ReferenceBackend);
            assert_eq!(cached.len(), eager.len(), "beam {}", beam);
            assert_eq!(cached[0].tokens, eager[0].tokens, "beam {}", beam);
        }
    }

    #[test]
    fn cached_hypotheses_replay_to_their_log_prob_bits() {
        // A survivor that took another hypothesis's cache would score its
        // later tokens against the wrong prefix. Replaying each returned
        // hypothesis through solo steps on a fresh cache must reproduce its
        // log-prob sum bit for bit.
        let model = Model::seeded(TransformerConfig::tiny(), 21);
        let mut longest = 0;
        for seed in 0..4u64 {
            let x = init::uniform(3 + seed as usize, model.config.d_model, -1.0, 1.0, seed);
            let mem = model.encode(&x, &ReferenceBackend);
            for beam in [1usize, 2, 4] {
                let cfg = BeamConfig { beam, max_len: 10, length_penalty: 0.6 };
                for h in beam_search_cached(&model, &mem, &cfg, &ReferenceBackend) {
                    let mut kv = KvCache::new(&model, &mem, &ReferenceBackend);
                    let mut sum = 0.0f32;
                    for w in h.tokens.windows(2) {
                        let logits = cache::step(&model, w[0], &mut kv, &ReferenceBackend);
                        sum += log_softmax(logits.row(0))[w[1]];
                    }
                    assert_eq!(
                        sum.to_bits(),
                        h.log_prob.to_bits(),
                        "seed {} beam {} tokens {:?}",
                        seed,
                        beam,
                        h.tokens
                    );
                    longest = longest.max(h.tokens.len());
                }
            }
        }
        assert!(longest >= 4, "some hypothesis must survive several steps");
    }

    #[test]
    fn log_softmax_normalises() {
        let lp = log_softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = lp.iter().map(|&x| x.exp()).sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(lp.iter().all(|&x| x < 0.0));
    }

    #[test]
    #[should_panic(expected = "beam width")]
    fn zero_beam_panics() {
        let (model, mem) = rig();
        let _ = beam_search(
            &model,
            &mem,
            &BeamConfig { beam: 0, max_len: 4, length_penalty: 0.0 },
            &ReferenceBackend,
        );
    }
}
