//! Incremental decoding with a K/V cache.
//!
//! Naive autoregressive decoding recomputes the entire decoder stack for the
//! whole prefix at every step — `O(T²)` attention projections. The standard
//! inference optimisation caches each layer's K/V projections (self-attention)
//! and the cross-attention K/V (which depend only on the encoder memory), so
//! each step only projects the newest token. Decoding results are identical
//! to the uncached path; the tests pin that equality token-for-token.
//!
//! A beam holds one cache per hypothesis, and most of a cache is the cross
//! K/V, which every hypothesis shares. Each layer therefore keeps its cross
//! K/V behind an [`Arc`]: cloning a cache copies only its self-attention
//! rows, and those grow in place, one row per step.

use crate::model::Model;
use crate::weights::{AttentionWeights, DecoderWeights};
use asr_frontend::vocab::{self, TokenId};
use asr_tensor::activations::softmax_rows_inplace;
use asr_tensor::norm::layer_norm;
use asr_tensor::{ops, MatMul, Matrix};
use std::sync::Arc;

/// Cross-attention K/V per head, projected from the encoder memory.
#[derive(Clone)]
struct CrossKv {
    k: Vec<Matrix>,
    v: Vec<Matrix>,
}

/// Per-layer cached state.
#[derive(Clone)]
struct LayerCache {
    /// Self-attention K per head: grows one row per step.
    self_k: Vec<Matrix>,
    /// Self-attention V per head.
    self_v: Vec<Matrix>,
    /// Cross-attention K/V, shared by every clone of the cache (fixed
    /// except through [`KvCache::extend_memory`], which copies on write).
    cross: Arc<CrossKv>,
}

impl LayerCache {
    /// Append one step's self-attention K and V rows for head `hd`.
    fn push_self(&mut self, hd: usize, k_row: &[f32], v_row: &[f32]) {
        if self.self_k.len() <= hd {
            self.self_k.push(Matrix::from_vec(1, k_row.len(), k_row.to_vec()));
            self.self_v.push(Matrix::from_vec(1, v_row.len(), v_row.to_vec()));
        } else {
            self.self_k[hd].push_row(k_row);
            self.self_v[hd].push_row(v_row);
        }
    }

    /// Head `hd`'s self-attention or cross-attention K and V.
    fn kv(&self, hd: usize, self_attn: bool) -> (&Matrix, &Matrix) {
        if self_attn {
            (&self.self_k[hd], &self.self_v[hd])
        } else {
            (&self.cross.k[hd], &self.cross.v[hd])
        }
    }
}

/// Decoder-stack cache across steps.
#[derive(Clone)]
pub struct KvCache {
    layers: Vec<LayerCache>,
}

impl KvCache {
    /// Build the cache: precomputes the cross-attention K/V from the memory.
    pub fn new(model: &Model, memory: &Matrix, backend: &dyn MatMul) -> Self {
        let layers = model
            .weights
            .decoders
            .iter()
            .map(|dec| {
                let h = dec.cross_mha.w_k.len();
                let mut cross_k = Vec::with_capacity(h);
                let mut cross_v = Vec::with_capacity(h);
                for hd in 0..h {
                    cross_k.push(ops::add_bias(
                        &backend.matmul(memory, &dec.cross_mha.w_k[hd]),
                        &dec.cross_mha.b_k[hd],
                    ));
                    cross_v.push(ops::add_bias(
                        &backend.matmul(memory, &dec.cross_mha.w_v[hd]),
                        &dec.cross_mha.b_v[hd],
                    ));
                }
                LayerCache {
                    self_k: Vec::new(),
                    self_v: Vec::new(),
                    cross: Arc::new(CrossKv { k: cross_k, v: cross_v }),
                }
            })
            .collect();
        KvCache { layers }
    }

    /// Steps cached so far.
    pub fn len(&self) -> usize {
        self.layers.first().and_then(|l| l.self_k.first()).map(|k| k.rows()).unwrap_or(0)
    }

    /// True before the first step.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encoder memory rows the cross-attention K/V currently cover.
    pub fn memory_len(&self) -> usize {
        self.layers.first().and_then(|l| l.cross.k.first()).map(|k| k.rows()).unwrap_or(0)
    }

    /// Extend the cross-attention K/V with newly arrived encoder memory
    /// rows (a streaming chunk's output). The cross projections are
    /// row-independent — `K = memory · W_k + b_k` acts on each memory row
    /// alone — so appending the projections of the new rows is bit-identical
    /// to rebuilding the cache from the concatenated memory, at a fraction
    /// of the work. This is the decoder-side half of streaming: the encoder
    /// streams chunks in, the cross cache grows, and partial decodes never
    /// re-project memory they have already seen.
    ///
    /// Extending the memory also **invalidates the self-attention state**:
    /// every cached self K/V row at layers past the first was projected from
    /// activations that cross-attended over the *old* memory, so reusing
    /// them against the extended memory would silently mix two decoding
    /// contexts. The decoded-prefix state is dropped here (exactly what
    /// [`reset_self`](Self::reset_self) does), and the next decode starts
    /// its token loop fresh — the regression test pins that a partial
    /// decode's rows never leak across an extension.
    pub fn extend_memory(&mut self, model: &Model, new_rows: &Matrix, backend: &dyn MatMul) {
        self.reset_self();
        for (dec, layer) in model.weights.decoders.iter().zip(&mut self.layers) {
            let cross = Arc::make_mut(&mut layer.cross);
            for hd in 0..dec.cross_mha.w_k.len() {
                let k_new = ops::add_bias(
                    &backend.matmul(new_rows, &dec.cross_mha.w_k[hd]),
                    &dec.cross_mha.b_k[hd],
                );
                let v_new = ops::add_bias(
                    &backend.matmul(new_rows, &dec.cross_mha.w_v[hd]),
                    &dec.cross_mha.b_v[hd],
                );
                for (k_row, v_row) in k_new.rows_iter().zip(v_new.rows_iter()) {
                    cross.k[hd].push_row(k_row);
                    cross.v[hd].push_row(v_row);
                }
            }
        }
    }

    /// Drop the self-attention K/V (the decoded-prefix state) while keeping
    /// the cross-attention K/V. A streaming partial decode starts its token
    /// loop fresh after every chunk but keeps the accumulated memory
    /// projections.
    pub fn reset_self(&mut self) {
        for layer in &mut self.layers {
            layer.self_k.clear();
            layer.self_v.clear();
        }
    }
}

/// Attention of ONE new query row against cached K/V for one head.
fn cached_head_attention(
    q_row: &Matrix, // 1 × d_k
    k: &Matrix,     // t × d_k
    v: &Matrix,     // t × d_k
) -> Matrix {
    let mut scores = ops::matmul_naive(q_row, &k.transpose()); // 1 × t
    let scale = 1.0 / (q_row.cols() as f32).sqrt();
    scores.map_inplace(|x| x * scale);
    // causality is implicit: the cache only holds past positions
    softmax_rows_inplace(&mut scores);
    ops::matmul_naive(&scores, v) // 1 × d_k
}

/// Multi-head attention of one new row: self-attention appends the row's
/// K/V to the cache first; cross-attention reads the shared cross K/V.
fn cached_mha(
    x_row: &Matrix,
    w: &AttentionWeights,
    cache: &mut LayerCache,
    self_attn: bool,
    backend: &dyn MatMul,
) -> Matrix {
    let h = w.w_q.len();
    let mut heads = Vec::with_capacity(h);
    for hd in 0..h {
        let q = ops::add_bias(&backend.matmul(x_row, &w.w_q[hd]), &w.b_q[hd]);
        if self_attn {
            let k_new = ops::add_bias(&backend.matmul(x_row, &w.w_k[hd]), &w.b_k[hd]);
            let v_new = ops::add_bias(&backend.matmul(x_row, &w.w_v[hd]), &w.b_v[hd]);
            cache.push_self(hd, k_new.row(0), v_new.row(0));
        }
        let (k, v) = cache.kv(hd, self_attn);
        heads.push(cached_head_attention(&q, k, v));
    }
    let refs: Vec<&Matrix> = heads.iter().collect();
    ops::add_bias(&backend.matmul(&Matrix::hconcat(&refs), &w.w_a), &w.b_a)
}

fn cached_decoder_layer(
    x_row: &Matrix,
    dec: &DecoderWeights,
    cache: &mut LayerCache,
    backend: &dyn MatMul,
) -> Matrix {
    let self_att = cached_mha(x_row, &dec.masked_mha, cache, true, backend);
    let x1 = layer_norm(&ops::add(x_row, &self_att), &dec.ln1.w, &dec.ln1.b);
    let cross = cached_mha(&x1, &dec.cross_mha, cache, false, backend);
    let x2 = layer_norm(&ops::add(&x1, &cross), &dec.ln2.w, &dec.ln2.b);
    let ffn = crate::ffn::ffn_forward(&x2, &dec.ffn, backend);
    layer_norm(&ops::add(&x2, &ffn), &dec.ln3.w, &dec.ln3.b)
}

/// One incremental decode step: feed the newest token, get its logits row.
pub fn step(model: &Model, token: TokenId, cache: &mut KvCache, backend: &dyn MatMul) -> Matrix {
    let mut x = model.embed(&[token]);
    for (dec, layer_cache) in model.weights.decoders.iter().zip(&mut cache.layers) {
        x = cached_decoder_layer(&x, dec, layer_cache, backend);
    }
    ops::add_bias(&backend.matmul(&x, &model.weights.out_proj), &model.weights.out_bias)
}

/// Multi-head attention for a whole beam at once: the *weight* matmuls (Q,
/// and for self-attention K/V, plus the output projection) run as ONE
/// coalesced `B × d` pass per head — the kernel shape the decode plan's
/// batch-of-`beam` `Compute` models — while the attention itself stays
/// per-hypothesis against each hypothesis's own cache. Weight matmuls are
/// row-independent, so each hypothesis's rows are bit-identical to a solo
/// [`cached_mha`]; the tests pin that.
fn beam_mha(
    x: &Matrix, // B × d_model
    w: &AttentionWeights,
    lcs: &mut [&mut LayerCache],
    self_attn: bool,
    backend: &dyn MatMul,
) -> Matrix {
    let h = w.w_q.len();
    let b = x.rows();
    let mut heads: Vec<Matrix> = Vec::with_capacity(h);
    for hd in 0..h {
        let q = ops::add_bias(&backend.matmul(x, &w.w_q[hd]), &w.b_q[hd]); // B × d_k
        let kv_new = if self_attn {
            let k = ops::add_bias(&backend.matmul(x, &w.w_k[hd]), &w.b_k[hd]);
            let v = ops::add_bias(&backend.matmul(x, &w.w_v[hd]), &w.b_v[hd]);
            Some((k, v))
        } else {
            None
        };
        let mut out_rows: Vec<Matrix> = Vec::with_capacity(b);
        for (i, lc) in lcs.iter_mut().enumerate() {
            let q_row = q.submatrix(i, 0, 1, q.cols());
            if let Some((k_new, v_new)) = &kv_new {
                lc.push_self(hd, k_new.row(i), v_new.row(i));
            }
            let (k, v) = lc.kv(hd, self_attn);
            out_rows.push(cached_head_attention(&q_row, k, v));
        }
        let refs: Vec<&Matrix> = out_rows.iter().collect();
        heads.push(Matrix::vconcat(&refs)); // B × d_k
    }
    let refs: Vec<&Matrix> = heads.iter().collect();
    ops::add_bias(&backend.matmul(&Matrix::hconcat(&refs), &w.w_a), &w.b_a)
}

/// One decoder layer for a whole beam: coalesced weight matmuls,
/// per-hypothesis attention and cache appends.
fn beam_decoder_layer(
    x: &Matrix, // B × d_model
    dec: &DecoderWeights,
    lcs: &mut [&mut LayerCache],
    backend: &dyn MatMul,
) -> Matrix {
    let self_att = beam_mha(x, &dec.masked_mha, lcs, true, backend);
    let x1 = layer_norm(&ops::add(x, &self_att), &dec.ln1.w, &dec.ln1.b);
    let cross = beam_mha(&x1, &dec.cross_mha, lcs, false, backend);
    let x2 = layer_norm(&ops::add(&x1, &cross), &dec.ln2.w, &dec.ln2.b);
    let ffn = crate::ffn::ffn_forward(&x2, &dec.ffn, backend);
    layer_norm(&ops::add(&x2, &ffn), &dec.ln3.w, &dec.ln3.b)
}

/// One coalesced decode step for `tokens.len()` beam hypotheses: hypothesis
/// `i` feeds `tokens[i]` through `caches[i]` and gets back row `i` of the
/// returned `B × vocab` logits. Every weight matmul runs once for the whole
/// beam (one weight residency, one batch-of-`B` kernel — the shape
/// `PlanBuilder::decode_step` lowers); weight matmuls are row-independent,
/// so each row is bit-identical to a solo [`step`] on the same cache, which
/// the tests pin. All caches must share the same memory projection.
pub fn step_beam(
    model: &Model,
    tokens: &[TokenId],
    caches: &mut [KvCache],
    backend: &dyn MatMul,
) -> Matrix {
    assert_eq!(tokens.len(), caches.len(), "one cache per hypothesis");
    assert!(!tokens.is_empty(), "empty beam");
    let rows: Vec<Matrix> = tokens.iter().map(|&t| model.embed(&[t])).collect();
    let refs: Vec<&Matrix> = rows.iter().collect();
    let mut x = Matrix::vconcat(&refs); // B × d_model
    for l in 0..model.weights.decoders.len() {
        let mut lcs: Vec<&mut LayerCache> = caches.iter_mut().map(|c| &mut c.layers[l]).collect();
        x = beam_decoder_layer(&x, &model.weights.decoders[l], &mut lcs, backend);
    }
    ops::add_bias(&backend.matmul(&x, &model.weights.out_proj), &model.weights.out_bias)
}

/// Greedy decode using the K/V cache; token-identical to
/// [`Model::greedy_decode`] but `O(T)` projections instead of `O(T²)`.
pub fn greedy_decode_cached(
    model: &Model,
    memory: &Matrix,
    max_len: usize,
    backend: &dyn MatMul,
) -> Vec<TokenId> {
    let mut cache = KvCache::new(model, memory, backend);
    greedy_decode_with(model, &mut cache, max_len, backend)
}

/// Greedy decode against an existing cache (whose self-attention state must
/// be fresh — call [`KvCache::reset_self`] when reusing one across partial
/// decodes). Streaming callers keep one cache alive across chunks, extend
/// its memory, and re-decode with this.
pub fn greedy_decode_with(
    model: &Model,
    cache: &mut KvCache,
    max_len: usize,
    backend: &dyn MatMul,
) -> Vec<TokenId> {
    let mut tokens = vec![vocab::SOS];
    let mut last = vocab::SOS;
    for _ in 0..max_len {
        let logits = step(model, last, cache, backend);
        let next = logits
            .row(0)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .expect("non-empty logits");
        tokens.push(next);
        last = next;
        if next == vocab::EOS {
            break;
        }
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransformerConfig;
    use asr_tensor::backend::ReferenceBackend;
    use asr_tensor::init;

    fn rig() -> (Model, Matrix) {
        let model = Model::seeded(TransformerConfig::tiny(), 31);
        let x = init::uniform(6, model.config.d_model, -1.0, 1.0, 4);
        let mem = model.encode(&x, &ReferenceBackend);
        (model, mem)
    }

    #[test]
    fn cached_decode_matches_uncached_exactly() {
        let (model, mem) = rig();
        let uncached = model.greedy_decode(&mem, 12, &ReferenceBackend);
        let cached = greedy_decode_cached(&model, &mem, 12, &ReferenceBackend);
        assert_eq!(cached, uncached);
    }

    #[test]
    fn cached_decode_matches_on_several_memories() {
        let model = Model::seeded(TransformerConfig::tiny(), 77);
        for seed in 0..5u64 {
            let x = init::uniform(4, model.config.d_model, -2.0, 2.0, seed);
            let mem = model.encode(&x, &ReferenceBackend);
            assert_eq!(
                greedy_decode_cached(&model, &mem, 8, &ReferenceBackend),
                model.greedy_decode(&mem, 8, &ReferenceBackend),
                "seed {}",
                seed
            );
        }
    }

    #[test]
    fn cache_grows_one_row_per_step() {
        let (model, mem) = rig();
        let mut cache = KvCache::new(&model, &mem, &ReferenceBackend);
        assert!(cache.is_empty());
        step(&model, vocab::SOS, &mut cache, &ReferenceBackend);
        assert_eq!(cache.len(), 1);
        step(&model, 5, &mut cache, &ReferenceBackend);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn extend_memory_matches_full_rebuild_bit_for_bit() {
        let (model, mem) = rig(); // 6 memory rows
                                  // Build from the first 4 rows, extend with the last 2.
        let head = mem.submatrix(0, 0, 4, mem.cols());
        let tail = mem.submatrix(4, 0, 2, mem.cols());
        let mut grown = KvCache::new(&model, &head, &ReferenceBackend);
        grown.extend_memory(&model, &tail, &ReferenceBackend);
        assert_eq!(grown.memory_len(), 6);
        let full = KvCache::new(&model, &mem, &ReferenceBackend);
        // Same decodes, token for token — the projections are bit-identical.
        let mut grown2 = grown;
        let mut full2 = full;
        assert_eq!(
            greedy_decode_with(&model, &mut grown2, 10, &ReferenceBackend),
            greedy_decode_with(&model, &mut full2, 10, &ReferenceBackend),
        );
    }

    #[test]
    fn reset_self_allows_a_fresh_decode_on_the_same_memory() {
        let (model, mem) = rig();
        let mut cache = KvCache::new(&model, &mem, &ReferenceBackend);
        let first = greedy_decode_with(&model, &mut cache, 10, &ReferenceBackend);
        assert!(!cache.is_empty());
        cache.reset_self();
        assert!(cache.is_empty());
        assert_eq!(cache.memory_len(), mem.rows(), "cross K/V survive the reset");
        let second = greedy_decode_with(&model, &mut cache, 10, &ReferenceBackend);
        assert_eq!(first, second, "same memory, same tokens");
    }

    #[test]
    fn extend_memory_never_reuses_stale_self_rows() {
        // Regression: a partial decode leaves self-attention rows behind;
        // extending the memory afterwards (the mid-stream reset + extension
        // path) must invalidate them, because rows at layers past the first
        // were projected from activations that cross-attended over the OLD
        // memory. Before the fix the stale rows survived and the post-
        // extension decode silently mixed two contexts.
        let (model, mem) = rig(); // 6 memory rows
        let head = mem.submatrix(0, 0, 4, mem.cols());
        let tail = mem.submatrix(4, 0, 2, mem.cols());
        let mut cache = KvCache::new(&model, &head, &ReferenceBackend);
        let _partial = greedy_decode_with(&model, &mut cache, 6, &ReferenceBackend);
        assert!(!cache.is_empty(), "the partial decode left self rows behind");
        cache.extend_memory(&model, &tail, &ReferenceBackend);
        assert!(cache.is_empty(), "extension must drop the decoded-prefix state");
        assert_eq!(cache.memory_len(), 6);
        let mut fresh = KvCache::new(&model, &mem, &ReferenceBackend);
        assert_eq!(
            greedy_decode_with(&model, &mut cache, 10, &ReferenceBackend),
            greedy_decode_with(&model, &mut fresh, 10, &ReferenceBackend),
            "post-extension decode must match a from-scratch cache"
        );
    }

    #[test]
    fn beam_step_rows_are_bit_identical_to_solo_steps() {
        // The coalesced batch-of-B kernel must not change arithmetic:
        // every weight matmul is row-independent, so hypothesis i's logits
        // row equals a solo step on the same cache, bit for bit.
        let (model, mem) = rig();
        let tokens = [vocab::SOS, 3, 7];
        let mut solo_caches: Vec<KvCache> =
            (0..3).map(|_| KvCache::new(&model, &mem, &ReferenceBackend)).collect();
        let mut beam_caches = solo_caches.clone();
        // advance each solo cache independently
        let solo: Vec<Matrix> = tokens
            .iter()
            .zip(&mut solo_caches)
            .map(|(&t, c)| step(&model, t, c, &ReferenceBackend))
            .collect();
        let beamed = step_beam(&model, &tokens, &mut beam_caches, &ReferenceBackend);
        assert_eq!(beamed.rows(), 3);
        for (i, s) in solo.iter().enumerate() {
            for j in 0..model.config.vocab_size {
                assert!(
                    beamed[(i, j)].to_bits() == s[(0, j)].to_bits(),
                    "hypothesis {} logit {} diverged",
                    i,
                    j
                );
            }
        }
        // and the caches advanced identically
        for (a, b) in solo_caches.iter().zip(&beam_caches) {
            assert_eq!(a.len(), b.len());
        }
    }

    #[test]
    fn beam_of_one_steps_exactly_like_the_greedy_path() {
        let (model, mem) = rig();
        let mut greedy_cache = KvCache::new(&model, &mem, &ReferenceBackend);
        let mut beam_cache = [KvCache::new(&model, &mem, &ReferenceBackend)];
        for &t in &[vocab::SOS, 2, 5] {
            let g = step(&model, t, &mut greedy_cache, &ReferenceBackend);
            let b = step_beam(&model, &[t], &mut beam_cache, &ReferenceBackend);
            for j in 0..model.config.vocab_size {
                assert_eq!(b[(0, j)].to_bits(), g[(0, j)].to_bits(), "logit {}", j);
            }
        }
    }

    #[test]
    fn step_logits_match_full_forward_last_row() {
        let (model, mem) = rig();
        let prefix = [vocab::SOS, 7, 9];
        // full forward
        let full = model.decode_logits(&prefix, &mem, &ReferenceBackend);
        // incremental
        let mut cache = KvCache::new(&model, &mem, &ReferenceBackend);
        let mut last_logits = Matrix::zeros(1, model.config.vocab_size);
        for &t in &prefix {
            last_logits = step(&model, t, &mut cache, &ReferenceBackend);
        }
        for j in 0..model.config.vocab_size {
            assert!(
                (last_logits[(0, j)] - full[(prefix.len() - 1, j)]).abs() < 1e-3,
                "logit {} differs: {} vs {}",
                j,
                last_logits[(0, j)],
                full[(prefix.len() - 1, j)]
            );
        }
    }
}
