//! Weight containers, seeded initialisation, and size accounting.
//!
//! The layout mirrors the paper exactly: per-head `W_{Q/K/V}` projections of
//! `d_model × d_k` with `1 × d_k` biases, the `W_A` output projection, the
//! two FFN matrices, and `1 × d_model` layer-norm weight/bias rows. The
//! [`weight_inventory`] census reproduces Table 4.1 (the matrix census for the full
//! 12 + 6 stack).

use crate::config::TransformerConfig;
use asr_tensor::encoding::{self, CodecError, StripeEncoding, WeightEncoding};
use asr_tensor::par::par_map;
use asr_tensor::{crc32, init, Matrix};
use serde::{Deserialize, Serialize};

/// One weight stripe as the HBM prefetch path sees it: the matrix's payload
/// in its wire encoding plus the CRC-32 computed at export time **over the
/// encoded bytes** — the checksum protects exactly what travels, so a
/// corrupted int8 byte or sparse bitmap bit is as detectable as a corrupted
/// dense f32 (DESIGN.md §9, §16). The checksum travels with the stripe
/// (through `model_io` and the host's prefetch queue), so any on-card
/// corruption of the bytes is detectable before the stripe feeds a PSA.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightStripe {
    /// Stripe label (matches the host's load-command labels, e.g. `"E3/w_a"`).
    pub label: String,
    /// Row count of the source matrix (logical shape, not wire bytes).
    pub rows: usize,
    /// Column count of the source matrix.
    pub cols: usize,
    /// Encoded payload: `rows·cols·4` little-endian f32 bytes for
    /// [`StripeEncoding::DenseF32`], whatever the codec emitted otherwise.
    pub bytes: Vec<u8>,
    /// CRC-32 over the **encoded** `bytes`, computed at export time from the
    /// clean payload.
    pub crc: u32,
    /// How `bytes` encodes the `rows × cols` matrix.
    pub encoding: StripeEncoding,
}

/// Serialize a matrix's payload as little-endian f32 bytes (the stripe wire
/// format).
pub fn matrix_le_bytes(m: &Matrix) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(m.len() * 4);
    for &v in m.as_slice() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes
}

impl WeightStripe {
    /// Export a matrix as a dense-f32 stripe, computing its envelope CRC
    /// from the clean payload. Byte-for-byte the historical wire format.
    pub fn export(label: impl Into<String>, m: &Matrix) -> Self {
        let bytes = matrix_le_bytes(m);
        let crc = crc32::crc32(&bytes);
        WeightStripe {
            label: label.into(),
            rows: m.rows(),
            cols: m.cols(),
            bytes,
            crc,
            encoding: StripeEncoding::DenseF32,
        }
    }

    /// Export a matrix through the shared stripe codec
    /// ([`asr_tensor::encoding`]). `WeightEncoding::Dense` reproduces
    /// [`Self::export`] exactly; every other spec shrinks `bytes` and the
    /// CRC covers the encoded payload.
    pub fn export_encoded(label: impl Into<String>, m: &Matrix, spec: WeightEncoding) -> Self {
        let (enc, bytes) = encoding::encode(m, spec);
        let crc = crc32::crc32(&bytes);
        WeightStripe {
            label: label.into(),
            rows: m.rows(),
            cols: m.cols(),
            bytes,
            crc,
            encoding: enc,
        }
    }

    /// Verify the encoded payload against the export-time CRC.
    pub fn crc_ok(&self) -> bool {
        crc32::crc32(&self.bytes) == self.crc
    }

    /// Decode the payload back into a matrix, or a typed error when the
    /// bytes are too mangled to decode structurally (possible only for
    /// non-dense encodings — a corrupted sparse bitmap changes how many
    /// payload tiles the decoder expects). Bit flips that keep the
    /// structure intact still decode, to garbage values — detecting those
    /// is the CRC's job, not the codec's.
    pub fn try_decode(&self) -> Result<Matrix, CodecError> {
        encoding::decode(&self.encoding, self.rows, self.cols, &self.bytes)
    }

    /// Decode the payload back into a matrix (possibly corrupted — decoding
    /// does not verify; that is the caller's integrity-level decision).
    ///
    /// # Panics
    ///
    /// On structurally undecodable bytes; callers that inject faults into
    /// non-dense stripes should use [`Self::try_decode`].
    pub fn decode(&self) -> Matrix {
        self.try_decode().expect("stripe payload size mismatch")
    }

    /// [`Self::decode`] into an existing matrix of the stripe's shape,
    /// reusing its storage for a dense payload
    /// ([`encoding::decode_into`]).
    ///
    /// # Panics
    ///
    /// As [`Self::decode`].
    pub fn decode_into(&self, out: &mut Matrix) {
        encoding::decode_into(&self.encoding, self.rows, self.cols, &self.bytes, out)
            .expect("stripe payload size mismatch")
    }
}

/// Weights of one multi-head attention block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttentionWeights {
    /// Per-head query projections, each `d_model × d_k`.
    pub w_q: Vec<Matrix>,
    /// Per-head key projections.
    pub w_k: Vec<Matrix>,
    /// Per-head value projections.
    pub w_v: Vec<Matrix>,
    /// Per-head query biases, each `1 × d_k`.
    pub b_q: Vec<Matrix>,
    /// Per-head key biases.
    pub b_k: Vec<Matrix>,
    /// Per-head value biases.
    pub b_v: Vec<Matrix>,
    /// Output projection `W_A`, `d_model × d_model`.
    pub w_a: Matrix,
    /// Output bias `B_A`, `1 × d_model`.
    pub b_a: Matrix,
}

impl AttentionWeights {
    /// Seeded init for a configuration.
    pub fn seeded(cfg: &TransformerConfig, seed: u64) -> Self {
        let (d, dk, h) = (cfg.d_model, cfg.d_k(), cfg.n_heads);
        let mat = |r, c, s| init::xavier(r, c, s);
        let mut s = seed;
        let mut take = || {
            s = s.wrapping_add(1);
            s
        };
        let heads = |r, c, take: &mut dyn FnMut() -> u64| {
            (0..h).map(|_| mat(r, c, take())).collect::<Vec<_>>()
        };
        AttentionWeights {
            w_q: heads(d, dk, &mut take),
            w_k: heads(d, dk, &mut take),
            w_v: heads(d, dk, &mut take),
            b_q: heads(1, dk, &mut take),
            b_k: heads(1, dk, &mut take),
            b_v: heads(1, dk, &mut take),
            w_a: mat(d, d, take()),
            b_a: mat(1, d, take()),
        }
    }

    /// Total f32 byte footprint of this block's weights.
    pub fn size_bytes(&self) -> u64 {
        let per_head: u64 = self
            .w_q
            .iter()
            .chain(&self.w_k)
            .chain(&self.w_v)
            .chain(&self.b_q)
            .chain(&self.b_k)
            .chain(&self.b_v)
            .map(|m| m.size_bytes())
            .sum();
        per_head + self.w_a.size_bytes() + self.b_a.size_bytes()
    }

    /// Every matrix of the block in the canonical (serialization) order.
    pub fn matrices(&self) -> Vec<&Matrix> {
        self.w_q
            .iter()
            .chain(&self.w_k)
            .chain(&self.w_v)
            .chain(&self.b_q)
            .chain(&self.b_k)
            .chain(&self.b_v)
            .chain(std::iter::once(&self.w_a))
            .chain(std::iter::once(&self.b_a))
            .collect()
    }

    /// Mutable view of every matrix, same order as [`Self::matrices`].
    pub fn matrices_mut(&mut self) -> Vec<&mut Matrix> {
        self.w_q
            .iter_mut()
            .chain(self.w_k.iter_mut())
            .chain(self.w_v.iter_mut())
            .chain(self.b_q.iter_mut())
            .chain(self.b_k.iter_mut())
            .chain(self.b_v.iter_mut())
            .chain(std::iter::once(&mut self.w_a))
            .chain(std::iter::once(&mut self.b_a))
            .collect()
    }
}

/// Weights of one feed-forward block (Eq 3.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FfnWeights {
    /// `W_1F`, `d_model × d_ff`.
    pub w1: Matrix,
    /// `B_1F`, `1 × d_ff`.
    pub b1: Matrix,
    /// `W_2F`, `d_ff × d_model`.
    pub w2: Matrix,
    /// `B_2F`, `1 × d_model`.
    pub b2: Matrix,
}

impl FfnWeights {
    /// Seeded init.
    pub fn seeded(cfg: &TransformerConfig, seed: u64) -> Self {
        FfnWeights {
            w1: init::xavier(cfg.d_model, cfg.d_ff, seed),
            b1: init::xavier(1, cfg.d_ff, seed + 1),
            w2: init::xavier(cfg.d_ff, cfg.d_model, seed + 2),
            b2: init::xavier(1, cfg.d_model, seed + 3),
        }
    }

    /// Byte footprint.
    pub fn size_bytes(&self) -> u64 {
        self.w1.size_bytes() + self.b1.size_bytes() + self.w2.size_bytes() + self.b2.size_bytes()
    }

    /// Every matrix of the block in the canonical (serialization) order.
    pub fn matrices(&self) -> Vec<&Matrix> {
        vec![&self.w1, &self.b1, &self.w2, &self.b2]
    }

    /// Mutable view, same order as [`Self::matrices`].
    pub fn matrices_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.w1, &mut self.b1, &mut self.w2, &mut self.b2]
    }
}

/// Layer-norm affine parameters (one `L_N` pair of Table 4.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerNormWeights {
    /// Scale, `1 × d_model`.
    pub w: Matrix,
    /// Shift, `1 × d_model`.
    pub b: Matrix,
}

impl LayerNormWeights {
    /// Near-identity init (`w ≈ 1`, `b ≈ 0`) with a seeded perturbation so
    /// different layers differ.
    pub fn seeded(cfg: &TransformerConfig, seed: u64) -> Self {
        let mut w = init::uniform(1, cfg.d_model, 0.9, 1.1, seed);
        let b = init::uniform(1, cfg.d_model, -0.05, 0.05, seed + 1);
        // keep scale strictly positive
        w.map_inplace(|x| x.max(0.5));
        LayerNormWeights { w, b }
    }

    /// Byte footprint.
    pub fn size_bytes(&self) -> u64 {
        self.w.size_bytes() + self.b.size_bytes()
    }

    /// Every matrix of the block in the canonical (serialization) order.
    pub fn matrices(&self) -> Vec<&Matrix> {
        vec![&self.w, &self.b]
    }

    /// Mutable view, same order as [`Self::matrices`].
    pub fn matrices_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.w, &mut self.b]
    }
}

/// One encoder layer: MHA + Add-Norm + FFN + Add-Norm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncoderWeights {
    /// Self-attention block.
    pub mha: AttentionWeights,
    /// Add-Norm after MHA.
    pub ln1: LayerNormWeights,
    /// Feed-forward block.
    pub ffn: FfnWeights,
    /// Add-Norm after FFN.
    pub ln2: LayerNormWeights,
}

impl EncoderWeights {
    /// Seeded init.
    pub fn seeded(cfg: &TransformerConfig, seed: u64) -> Self {
        EncoderWeights {
            mha: AttentionWeights::seeded(cfg, seed),
            ln1: LayerNormWeights::seeded(cfg, seed + 1_000),
            ffn: FfnWeights::seeded(cfg, seed + 2_000),
            ln2: LayerNormWeights::seeded(cfg, seed + 3_000),
        }
    }

    /// Byte footprint of everything loaded for this layer.
    pub fn size_bytes(&self) -> u64 {
        self.mha.size_bytes()
            + self.ln1.size_bytes()
            + self.ffn.size_bytes()
            + self.ln2.size_bytes()
    }

    /// Every matrix of the layer in the canonical (serialization) order:
    /// mha, ln1, ffn, ln2 — the same order `model_io` writes them.
    pub fn matrices(&self) -> Vec<&Matrix> {
        let mut out = self.mha.matrices();
        out.extend(self.ln1.matrices());
        out.extend(self.ffn.matrices());
        out.extend(self.ln2.matrices());
        out
    }

    /// Mutable view, same order as [`Self::matrices`].
    pub fn matrices_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out = self.mha.matrices_mut();
        out.extend(self.ln1.matrices_mut());
        out.extend(self.ffn.matrices_mut());
        out.extend(self.ln2.matrices_mut());
        out
    }
}

/// One decoder layer: masked MHA, cross MHA, FFN, each with Add-Norm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecoderWeights {
    /// Masked self-attention.
    pub masked_mha: AttentionWeights,
    /// Add-Norm after masked MHA.
    pub ln1: LayerNormWeights,
    /// Cross-attention over the encoder memory.
    pub cross_mha: AttentionWeights,
    /// Add-Norm after cross MHA.
    pub ln2: LayerNormWeights,
    /// Feed-forward block.
    pub ffn: FfnWeights,
    /// Add-Norm after FFN.
    pub ln3: LayerNormWeights,
}

impl DecoderWeights {
    /// Seeded init.
    pub fn seeded(cfg: &TransformerConfig, seed: u64) -> Self {
        DecoderWeights {
            masked_mha: AttentionWeights::seeded(cfg, seed),
            ln1: LayerNormWeights::seeded(cfg, seed + 1_000),
            cross_mha: AttentionWeights::seeded(cfg, seed + 2_000),
            ln2: LayerNormWeights::seeded(cfg, seed + 3_000),
            ffn: FfnWeights::seeded(cfg, seed + 4_000),
            ln3: LayerNormWeights::seeded(cfg, seed + 5_000),
        }
    }

    /// Byte footprint.
    pub fn size_bytes(&self) -> u64 {
        self.masked_mha.size_bytes()
            + self.cross_mha.size_bytes()
            + self.ffn.size_bytes()
            + self.ln1.size_bytes()
            + self.ln2.size_bytes()
            + self.ln3.size_bytes()
    }

    /// Bytes of the combined M-MHA + MHA load phase (`LWi_m` of Fig 4.11).
    pub fn mha_phase_bytes(&self) -> u64 {
        self.masked_mha.size_bytes()
            + self.cross_mha.size_bytes()
            + self.ln1.size_bytes()
            + self.ln2.size_bytes()
    }

    /// Bytes of the FFN load phase (`LWi_f` of Fig 4.11).
    pub fn ffn_phase_bytes(&self) -> u64 {
        self.ffn.size_bytes() + self.ln3.size_bytes()
    }

    /// Every matrix of the layer in the canonical (serialization) order:
    /// masked_mha, ln1, cross_mha, ln2, ffn, ln3 — the `model_io` order.
    pub fn matrices(&self) -> Vec<&Matrix> {
        let mut out = self.masked_mha.matrices();
        out.extend(self.ln1.matrices());
        out.extend(self.cross_mha.matrices());
        out.extend(self.ln2.matrices());
        out.extend(self.ffn.matrices());
        out.extend(self.ln3.matrices());
        out
    }

    /// Mutable view, same order as [`Self::matrices`].
    pub fn matrices_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out = self.masked_mha.matrices_mut();
        out.extend(self.ln1.matrices_mut());
        out.extend(self.cross_mha.matrices_mut());
        out.extend(self.ln2.matrices_mut());
        out.extend(self.ffn.matrices_mut());
        out.extend(self.ln3.matrices_mut());
        out
    }
}

/// The whole model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelWeights {
    /// Encoder stack.
    pub encoders: Vec<EncoderWeights>,
    /// Decoder stack.
    pub decoders: Vec<DecoderWeights>,
    /// Token embedding table, `vocab × d_model` (decoder input; the model has
    /// no positional encoding).
    pub embedding: Matrix,
    /// Output projection `d_model × vocab`.
    pub out_proj: Matrix,
    /// Output bias `1 × vocab`.
    pub out_bias: Matrix,
}

impl ModelWeights {
    /// Seeded init of the full stack. Every layer draws from its own seeds,
    /// so the layers are independent and seed in parallel
    /// ([`asr_tensor::par::par_map`]); the bits do not depend on the split.
    pub fn seeded(cfg: &TransformerConfig, seed: u64) -> Self {
        cfg.validate();
        let encoders =
            par_map(0..cfg.n_encoders, |i| EncoderWeights::seeded(cfg, seed + 10_000 * i as u64));
        let decoders = par_map(0..cfg.n_decoders, |i| {
            DecoderWeights::seeded(cfg, seed + 1_000_000 + 10_000 * i as u64)
        });
        ModelWeights {
            encoders,
            decoders,
            embedding: init::xavier(cfg.vocab_size, cfg.d_model, seed + 2_000_000),
            out_proj: init::xavier(cfg.d_model, cfg.vocab_size, seed + 2_000_001),
            out_bias: init::xavier(1, cfg.vocab_size, seed + 2_000_002),
        }
    }

    /// Total weight bytes across the stack (the per-inference HBM traffic of
    /// architecture A1–A3: every layer's weights are loaded once).
    pub fn size_bytes(&self) -> u64 {
        self.encoders.iter().map(|e| e.size_bytes()).sum::<u64>()
            + self.decoders.iter().map(|d| d.size_bytes()).sum::<u64>()
            + self.embedding.size_bytes()
            + self.out_proj.size_bytes()
            + self.out_bias.size_bytes()
    }

    /// Every matrix of the model in the canonical (serialization) order —
    /// exactly the order `model_io::to_bytes` writes them, which is what
    /// lets the stored CRC table index by position.
    pub fn matrices(&self) -> Vec<&Matrix> {
        let mut out = Vec::new();
        for e in &self.encoders {
            out.extend(e.matrices());
        }
        for d in &self.decoders {
            out.extend(d.matrices());
        }
        out.push(&self.embedding);
        out.push(&self.out_proj);
        out.push(&self.out_bias);
        out
    }

    /// Mutable view, same order as [`Self::matrices`] — the slots a verified
    /// (or deliberately corrupted) stripe decodes back into.
    pub fn matrices_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out = Vec::new();
        for e in &mut self.encoders {
            out.extend(e.matrices_mut());
        }
        for d in &mut self.decoders {
            out.extend(d.matrices_mut());
        }
        out.push(&mut self.embedding);
        out.push(&mut self.out_proj);
        out.push(&mut self.out_bias);
        out
    }
}

/// One row of the Table 4.1 inventory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InventoryRow {
    /// How many matrices of this kind the full stack reads.
    pub count: usize,
    /// Matrix family name as printed in the paper.
    pub name: &'static str,
    /// Dimensions `(rows, cols)`.
    pub dims: (usize, usize),
}

/// The Table 4.1 census: weight matrices read for the encoder–decoder stack.
pub fn weight_inventory(cfg: &TransformerConfig) -> Vec<InventoryRow> {
    let (d, dk, dff, h) = (cfg.d_model, cfg.d_k(), cfg.d_ff, cfg.n_heads);
    let (ne, nd) = (cfg.n_encoders, cfg.n_decoders);
    // Attention blocks: 1 per encoder, 2 per decoder.
    let att_blocks = ne + 2 * nd;
    // Add-Norms: 2 per encoder, 3 per decoder; each stores a weight AND a bias row.
    let ln_rows = 2 * (2 * ne + 3 * nd);
    // FFNs: one per layer.
    let ffns = ne + nd;
    vec![
        InventoryRow { count: att_blocks * 3 * h, name: "W_Q/K/V", dims: (d, dk) },
        InventoryRow { count: att_blocks * 3 * h, name: "B_Q/K/V", dims: (1, dk) },
        InventoryRow { count: att_blocks, name: "W_A", dims: (d, d) },
        InventoryRow { count: att_blocks, name: "B_A", dims: (1, d) },
        InventoryRow { count: ln_rows, name: "L_N", dims: (1, d) },
        InventoryRow { count: ffns, name: "W_1F", dims: (d, dff) },
        InventoryRow { count: ffns, name: "B_1F", dims: (1, dff) },
        InventoryRow { count: ffns, name: "W_2F", dims: (dff, d) },
        InventoryRow { count: ffns, name: "B_2F", dims: (1, d) },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_reproduces_table_4_1() {
        let inv = weight_inventory(&TransformerConfig::paper_base());
        let find = |name: &str| inv.iter().find(|r| r.name == name).unwrap();
        // Paper Table 4.1, row for row.
        assert_eq!(find("W_Q/K/V").count, 576);
        assert_eq!(find("W_Q/K/V").dims, (512, 64));
        assert_eq!(find("B_Q/K/V").count, 576);
        assert_eq!(find("B_Q/K/V").dims, (1, 64));
        assert_eq!(find("W_A").count, 24);
        assert_eq!(find("W_A").dims, (512, 512));
        assert_eq!(find("B_A").count, 24);
        assert_eq!(find("L_N").count, 84);
        assert_eq!(find("L_N").dims, (1, 512));
        assert_eq!(find("W_1F").count, 18);
        assert_eq!(find("W_1F").dims, (512, 2048));
        assert_eq!(find("B_1F").count, 18);
        assert_eq!(find("W_2F").count, 18);
        assert_eq!(find("W_2F").dims, (2048, 512));
        assert_eq!(find("B_2F").count, 18);
    }

    #[test]
    fn encoder_weight_footprint_is_12_6_mb() {
        let cfg = TransformerConfig::paper_base();
        let enc = EncoderWeights::seeded(&cfg, 1);
        let mb = enc.size_bytes() as f64 / 1e6;
        assert!((mb - 12.6).abs() < 0.2, "encoder weights {} MB", mb);
    }

    #[test]
    fn decoder_weight_footprint_is_16_8_mb() {
        let cfg = TransformerConfig::paper_base();
        let dec = DecoderWeights::seeded(&cfg, 1);
        let mb = dec.size_bytes() as f64 / 1e6;
        assert!((mb - 16.8).abs() < 0.3, "decoder weights {} MB", mb);
    }

    #[test]
    fn decoder_load_phases_partition_total() {
        let cfg = TransformerConfig::tiny();
        let dec = DecoderWeights::seeded(&cfg, 1);
        assert_eq!(dec.mha_phase_bytes() + dec.ffn_phase_bytes(), dec.size_bytes());
    }

    #[test]
    fn tiny_model_builds_and_is_deterministic() {
        let cfg = TransformerConfig::tiny();
        let a = ModelWeights::seeded(&cfg, 9);
        let b = ModelWeights::seeded(&cfg, 9);
        assert_eq!(a, b);
        assert_eq!(a.encoders.len(), cfg.n_encoders);
        assert_eq!(a.decoders.len(), cfg.n_decoders);
        assert_eq!(a.embedding.shape(), (cfg.vocab_size, cfg.d_model));
    }

    #[test]
    fn attention_weight_shapes() {
        let cfg = TransformerConfig::tiny();
        let att = AttentionWeights::seeded(&cfg, 1);
        assert_eq!(att.w_q.len(), cfg.n_heads);
        assert_eq!(att.w_q[0].shape(), (cfg.d_model, cfg.d_k()));
        assert_eq!(att.b_v[0].shape(), (1, cfg.d_k()));
        assert_eq!(att.w_a.shape(), (cfg.d_model, cfg.d_model));
    }

    #[test]
    fn heads_have_distinct_weights() {
        let cfg = TransformerConfig::tiny();
        let att = AttentionWeights::seeded(&cfg, 1);
        assert_ne!(att.w_q[0], att.w_q[1]);
        assert_ne!(att.w_q[0], att.w_k[0]);
    }

    #[test]
    fn layernorm_scale_positive() {
        let cfg = TransformerConfig::tiny();
        let ln = LayerNormWeights::seeded(&cfg, 4);
        assert!(ln.w.as_slice().iter().all(|&x| x > 0.0));
    }

    #[test]
    fn stripe_roundtrip_is_bit_identical() {
        let m = init::uniform(5, 7, -2.0, 2.0, 11);
        let s = WeightStripe::export("E1/w_a", &m);
        assert!(s.crc_ok());
        assert_eq!(s.bytes.len(), 5 * 7 * 4);
        assert_eq!(s.decode(), m);
    }

    #[test]
    fn encoded_export_dense_is_the_legacy_stripe() {
        let m = init::uniform(5, 7, -2.0, 2.0, 11);
        let legacy = WeightStripe::export("E1/w_a", &m);
        let dense = WeightStripe::export_encoded("E1/w_a", &m, WeightEncoding::Dense);
        assert_eq!(legacy, dense, "Dense spec must reproduce the historical wire format");
    }

    #[test]
    fn sparse_stripe_shrinks_and_decodes_bit_identical() {
        // Top half zero: the 4×4 tile grid drops its first row of tiles.
        let mut data = vec![0.0f32; 8 * 8];
        for (i, v) in data.iter_mut().enumerate().skip(32) {
            *v = (i as f32).sin();
        }
        let m = Matrix::from_vec(8, 8, data);
        let s = WeightStripe::export_encoded(
            "D1/w1",
            &m,
            WeightEncoding::SparseTiles { tile: 4, occupancy_pct: 50 },
        );
        assert!(s.crc_ok());
        assert!(s.bytes.len() < m.len() * 4, "absent tiles leave the payload");
        assert!(s.encoding.is_lossless());
        assert_eq!(s.decode(), m, "sparse is lossless: bit-identical roundtrip");
    }

    #[test]
    fn int8_stripe_crc_covers_encoded_bytes() {
        let m = init::uniform(6, 6, -1.0, 1.0, 7);
        let clean = WeightStripe::export_encoded("E2/w_a", &m, WeightEncoding::Int8);
        assert!(clean.crc_ok());
        assert_eq!(clean.bytes.len(), 36, "one byte per weight");
        for byte in 0..clean.bytes.len() {
            let mut s = clean.clone();
            s.bytes[byte] ^= 0x01;
            assert!(!s.crc_ok(), "encoded flip at byte {} escaped", byte);
        }
    }

    #[test]
    fn stripe_crc_catches_bit_flips() {
        let m = init::uniform(3, 9, -1.0, 1.0, 3);
        let clean = WeightStripe::export("D2/w1", &m);
        for byte in [0usize, 7, 50, 3 * 9 * 4 - 1] {
            let mut s = clean.clone();
            s.bytes[byte] ^= 0x10;
            assert!(!s.crc_ok(), "flip at byte {} escaped", byte);
        }
    }

    #[test]
    fn matrix_traversal_matches_inventory_count() {
        let cfg = TransformerConfig::tiny();
        let model = ModelWeights::seeded(&cfg, 5);
        let from_inventory: usize =
            weight_inventory(&cfg).iter().map(|r| r.count).sum::<usize>() + 3;
        assert_eq!(model.matrices().len(), from_inventory);
        // Mutable traversal walks the same matrices in the same order.
        let mut copy = model.clone();
        let expected: Vec<Matrix> = model.matrices().into_iter().cloned().collect();
        for (got, want) in copy.encoders[0].matrices_mut().into_iter().zip(&expected) {
            assert_eq!(&*got, want);
        }
    }

    /// Whether two models hold the same shapes and the same bits.
    fn same_bits(a: &ModelWeights, b: &ModelWeights) -> bool {
        let (ma, mb) = (a.matrices(), b.matrices());
        ma.len() == mb.len()
            && ma.iter().zip(&mb).all(|(x, y)| {
                x.shape() == y.shape()
                    && x.as_slice()
                        .iter()
                        .zip(y.as_slice())
                        .all(|(p, q)| p.to_bits() == q.to_bits())
            })
    }

    /// The stack built layer by layer on this thread, with the seeds
    /// [`ModelWeights::seeded`] gives each layer.
    fn sequential_seeded(cfg: &TransformerConfig, seed: u64) -> ModelWeights {
        ModelWeights {
            encoders: (0..cfg.n_encoders)
                .map(|i| EncoderWeights::seeded(cfg, seed + 10_000 * i as u64))
                .collect(),
            decoders: (0..cfg.n_decoders)
                .map(|i| DecoderWeights::seeded(cfg, seed + 1_000_000 + 10_000 * i as u64))
                .collect(),
            embedding: init::xavier(cfg.vocab_size, cfg.d_model, seed + 2_000_000),
            out_proj: init::xavier(cfg.d_model, cfg.vocab_size, seed + 2_000_001),
            out_bias: init::xavier(1, cfg.vocab_size, seed + 2_000_002),
        }
    }

    #[test]
    fn parallel_seeding_is_bit_identical_to_a_sequential_build() {
        let cfg = TransformerConfig::tiny();
        let parallel = ModelWeights::seeded(&cfg, 77);
        assert!(same_bits(&parallel, &sequential_seeded(&cfg, 77)));
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper scale: runs in the release test step")]
    fn parallel_seeding_is_bit_identical_to_a_sequential_build_at_paper_scale() {
        // The layer split across threads must not move a bit.
        let cfg = TransformerConfig::paper_base();
        let parallel = ModelWeights::seeded(&cfg, 0x5eed);
        assert_eq!((parallel.encoders.len(), parallel.decoders.len()), (12, 6));
        assert!(same_bits(&parallel, &sequential_seeded(&cfg, 0x5eed)), "a bit moved");
    }
}
