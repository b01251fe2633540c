//! Partially-unrolled systolic array (PSA) — the accelerator's workhorse.
//!
//! A full `l × n` systolic array is unaffordable at transformer sizes, so the
//! paper computes `b` product rows at a time on a `b × w` PSA (§4.4: "we can
//! trade off parallelism with area by computing the product matrix b rows ...
//! at a time"), with `b = 2`, `w = 64` chosen experimentally. Partial loop
//! unrolling in HLS further trades latency for LUT/DSP area; the thesis
//! quantifies it as "increasing the latency by at least ~16×". We model that
//! as an initiation interval `ii` on the k-loop: one multiply-accumulate wave
//! issues every `ii` cycles instead of every cycle.
//!
//! ## Timing model
//!
//! For a product `(l × m) · (m × n)` on a `b × w` PSA:
//!
//! ```text
//! column tiles  T = ceil(n / w)
//! row waves     W = ceil(l / b)
//! cycles        = T · W · (m · ii + drain) + fill
//! drain         = w + b            (pipeline flush through the array)
//! ```
//!
//! With `b = 2`, `w = 64`, `ii = 12` this calibrates the full encoder stack to
//! the paper's measured 84.15 ms at `s = 32` (see `asr-accel::calib`).
//!
//! ## Functional model
//!
//! `matmul` computes the exact f32 product with the same accumulation order
//! as the hardware (sequential over `k` for every output), so results are
//! bit-identical to the naive reference for any operand sizes.
//!
//! Inside a column tile the host runs a register-blocked micro-kernel: a
//! `[[f32; 8]; 4]` accumulator block holds 4 output rows × 8 output columns.
//! It is loaded from `out`, then for each `k` one 8-wide slice of `b`'s row
//! `k` is multiplied by each of the four `a[i][k]` and added, then stored
//! back. The rows and columns left over after the 4 × 8 blocks take the
//! plain axpy loop (`out[i] += a[i][k] · b[k]`, one `k` at a time). Both paths
//! add each output's products `a[i][k]·b[k][j]` in increasing `k` with a
//! separate multiply and add (Rust never fuses them), so every output gets
//! the same operations in the same order as the naive loop — the blocking
//! only changes which outputs are in flight together. How the rows group
//! into waves (the PSA's `b`, the kernel's 4) therefore changes no bit.
//!
//! The micro-kernel walks `k` in chunks of 128 rows of `b`, so the chunk of
//! a 64-wide tile (32 KB) stays in L1 while every row block reuses it.
//! Between chunks a block's partial sums go to `out` as f32 and come back
//! unchanged, so the chunking adds no rounding and no reordering.
//!
//! ## Skinny products
//!
//! A beam decode step multiplies at most 4 rows (one per hypothesis) by
//! every decoder weight, so each `b` value serves at most 4 multiplies and
//! the product runs as fast as `b` can be read. A tile walk reads `b` badly
//! for that: each 64-wide tile takes a 256 B slice of every row, so one
//! pass over `b` jumps between rows `n` floats apart. For `a` with 1 to 4
//! rows, `matmul` therefore walks whole rows instead: `k` in chunks of 16
//! rows of `b`, and inside a chunk `R × 8` register blocks (`R` = the row
//! count) across all of `[0, n)`. `b` is then read as 16 sequential row
//! streams, in the order it is stored. The columns after the last full
//! 8-column block take the axpy loop. Every output still adds its products
//! in increasing `k` with a separate multiply and add, so this path is
//! bit-identical to `matmul_naive` and to the tile loop.
//!
//! `matmul_region` serves the wider products and is the unit `CheckedPsa`
//! checks and recomputes, tile by tile, on every path.

use asr_fpga_sim::{Cycles, ResourceVector};
use asr_tensor::{ops, Matrix};
use serde::{Deserialize, Serialize};

/// Static configuration of one PSA block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PsaConfig {
    /// Product rows computed per wave (`b` in the paper; 2 in the shipped design).
    pub rows: usize,
    /// PSA width in output columns (`w`; 64 in the shipped design).
    pub cols: usize,
    /// Initiation interval of the k-loop — the partial-unroll latency penalty.
    pub ii: u64,
    /// Extra cycles to fill the pipeline once per invocation.
    pub fill: u64,
}

impl PsaConfig {
    /// The paper's 2×64 PSA with the calibrated unroll penalty.
    pub fn paper_default() -> Self {
        PsaConfig { rows: 2, cols: 64, ii: 12, fill: 8 }
    }

    /// A fully-unrolled (ideal) PSA: one MAC wave per cycle.
    pub fn fully_unrolled(rows: usize, cols: usize) -> Self {
        PsaConfig { rows, cols, ii: 1, fill: 8 }
    }

    /// Drain cycles: the operand/result skew through the array.
    pub fn drain(&self) -> u64 {
        (self.cols + self.rows) as u64
    }

    /// Number of multiply-accumulate processing elements.
    pub fn pe_count(&self) -> usize {
        self.rows * self.cols
    }
}

/// A PSA engine: functional matmul + cycle accounting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Psa {
    /// The block's configuration.
    pub config: PsaConfig,
}

impl Psa {
    /// Build a PSA from a configuration.
    pub fn new(config: PsaConfig) -> Self {
        assert!(config.rows > 0 && config.cols > 0, "PSA must be non-empty");
        assert!(config.ii >= 1, "initiation interval must be >= 1");
        Self { config }
    }

    /// The paper's PSA.
    pub fn paper_default() -> Self {
        Self::new(PsaConfig::paper_default())
    }

    /// Cycles to compute an `(l × m) · (m × n)` product on this PSA.
    pub fn cycles(&self, l: usize, m: usize, n: usize) -> Cycles {
        assert!(l > 0 && m > 0 && n > 0, "degenerate matmul {}x{}x{}", l, m, n);
        let tiles = n.div_ceil(self.config.cols) as u64;
        let waves = l.div_ceil(self.config.rows) as u64;
        Cycles(tiles * waves * (m as u64 * self.config.ii + self.config.drain()) + self.config.fill)
    }

    /// Functional product `a · b` with hardware-faithful accumulation order.
    ///
    /// Products of 1 to 4 rows stream whole rows of `b` (see the module
    /// docs); wider ones tile over output columns (width `w`) with
    /// [`matmul_region`](Self::matmul_region). Both accumulate sequentially
    /// over `k` for every output — the order the PE chain applies — so this
    /// is bit-identical to the naive triple loop.
    pub fn matmul(&self, a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(
            a.cols(),
            b.rows(),
            "psa matmul shape mismatch: {}x{} * {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
        let l = a.rows();
        let n = b.cols();
        let mut out = Matrix::zeros(l, n);
        match l {
            1 => stream_rows::<1>(a, b, &mut out),
            2 => stream_rows::<2>(a, b, &mut out),
            3 => stream_rows::<3>(a, b, &mut out),
            4 => stream_rows::<4>(a, b, &mut out),
            _ => {
                for j0 in (0..n).step_by(self.config.cols) {
                    let je = (j0 + self.config.cols).min(n);
                    self.matmul_region(a, b, &mut out, j0, je);
                }
            }
        }
        out
    }

    /// Add one column tile `[j0, je)` of the product into `out`, with the
    /// hardware accumulation order (sequential `k` for every output): 4 × 8
    /// register blocks through the micro-kernel, 128 `k` at a time, and the
    /// leftover rows and columns through the axpy loop (see the module docs).
    ///
    /// This is the PSA's block primitive: `matmul` is bit-identical to a loop
    /// of these over the column tiles, and the ABFT recompute path re-runs a
    /// single failing tile through the same code — so a recomputed tile is
    /// bit-identical to a clean run by construction.
    pub fn matmul_region(&self, a: &Matrix, b: &Matrix, out: &mut Matrix, j0: usize, je: usize) {
        let l = a.rows();
        debug_assert!(je <= b.cols() && j0 < je, "bad tile [{}, {})", j0, je);
        let l4 = l - l % KERNEL_ROWS;
        let c_end = je - (je - j0) % KERNEL_COLS;
        for k0 in (0..a.cols()).step_by(KERNEL_DEPTH) {
            let ke = (k0 + KERNEL_DEPTH).min(a.cols());
            for c0 in (j0..c_end).step_by(KERNEL_COLS) {
                for i0 in (0..l4).step_by(KERNEL_ROWS) {
                    micro_kernel(a, b, out, i0, c0, k0, ke);
                }
            }
        }
        for i in 0..l {
            let lo = if i < l4 { c_end } else { j0 };
            if lo < je {
                axpy_row(a, b, out, i, lo, je);
            }
        }
    }

    /// Functional product plus the modeled cycle cost — the pair the
    /// accelerator schedules with.
    pub fn matmul_timed(&self, a: &Matrix, b: &Matrix) -> (Matrix, Cycles) {
        let c = self.matmul(a, b);
        let cyc = self.cycles(a.rows(), a.cols(), b.cols());
        (c, cyc)
    }

    /// Fabric cost of this PSA block.
    ///
    /// Per-PE costs model an LUT-heavy fp32 MAC (the thesis: "the processing
    /// elements within the systolic array structure are LUT-intensive"), plus
    /// per-block control and operand-buffer BRAM. Constants are fitted so the
    /// complete design reproduces Table 5.2 (see `asr-accel::resources`).
    pub fn resource_cost(&self) -> ResourceVector {
        let pes = self.config.pe_count() as u64;
        ResourceVector { bram_18k: 24, dsp: pes, ff: pes * 900 + 4_000, lut: pes * 600 + 2_000 }
    }
}

/// Output rows one [`micro_kernel`] call keeps in registers.
const KERNEL_ROWS: usize = 4;
/// Output columns one [`micro_kernel`] call keeps in registers.
const KERNEL_COLS: usize = 8;
/// Rows of `b` per [`micro_kernel`] call: one 64-wide tile's chunk is 32 KB.
const KERNEL_DEPTH: usize = 128;

/// `out[i0..i0+4][c0..c0+8] += a[i0..i0+4][k0..ke] · b[k0..ke][c0..c0+8]`
/// with every output summed over `k` in increasing order: the accumulators
/// start from `out`, each `k` adds one product per output (a separate
/// multiply and add, never a fused one), and the sums are stored back after
/// `ke - 1`. One `b` row slice per `k` serves all four `a` rows.
fn micro_kernel(
    a: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
    i0: usize,
    c0: usize,
    k0: usize,
    ke: usize,
) {
    let mut acc = [[0.0f32; KERNEL_COLS]; KERNEL_ROWS];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        acc_r.copy_from_slice(&out.row(i0 + r)[c0..c0 + KERNEL_COLS]);
    }
    let arows: [&[f32]; KERNEL_ROWS] = std::array::from_fn(|r| &a.row(i0 + r)[k0..ke]);
    for (k, brow) in b.rows_iter().skip(k0).take(ke - k0).enumerate() {
        let bk = &brow[c0..c0 + KERNEL_COLS];
        for (acc_r, arow) in acc.iter_mut().zip(&arows) {
            let aik = arow[k];
            for (o, &bv) in acc_r.iter_mut().zip(bk) {
                *o += aik * bv;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        out.row_mut(i0 + r)[c0..c0 + KERNEL_COLS].copy_from_slice(acc_r);
    }
}

/// Rows of `b` one [`stream_rows`] chunk reads side by side.
const STREAM_DEPTH: usize = 16;

/// `out += a · b` for an `a` of exactly `R` (≤ [`KERNEL_ROWS`]) rows, the
/// decode shape: `k` in chunks of [`STREAM_DEPTH`] rows of `b`, and inside a
/// chunk `R × 8` register blocks across the whole row `[0, n)`, so `b` is
/// read as `STREAM_DEPTH` sequential row streams. Each block's sums start
/// from `out` and go back to it after the chunk, so every output still adds
/// its products in increasing `k` with a separate multiply and add. Columns
/// past the last full 8-block take the axpy loop.
fn stream_rows<const R: usize>(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    debug_assert_eq!(a.rows(), R);
    let (m, n) = (a.cols(), b.cols());
    let c_end = n - n % KERNEL_COLS;
    for k0 in (0..m).step_by(STREAM_DEPTH) {
        let kn = (m - k0).min(STREAM_DEPTH);
        // Each `a[i][k]` of the chunk, repeated four times: the multiply
        // then loads it as a ready 4-lane vector instead of broadcasting it
        // again in every block. Same value, so the same products.
        let mut av = [[[0.0f32; 4]; STREAM_DEPTH]; R];
        for (r, av_r) in av.iter_mut().enumerate() {
            for (dst, &x) in av_r.iter_mut().zip(&a.row(r)[k0..k0 + kn]) {
                *dst = [x; 4];
            }
        }
        let brows: [&[f32]; STREAM_DEPTH] =
            std::array::from_fn(|kk| if kk < kn { b.row(k0 + kk) } else { &[] });
        for c0 in (0..c_end).step_by(KERNEL_COLS) {
            let mut acc = [[0.0f32; KERNEL_COLS]; R];
            for (r, acc_r) in acc.iter_mut().enumerate() {
                acc_r.copy_from_slice(&out.row(r)[c0..c0 + KERNEL_COLS]);
            }
            for (kk, brow) in brows[..kn].iter().enumerate() {
                let bk: &[f32; KERNEL_COLS] =
                    brow[c0..c0 + KERNEL_COLS].try_into().expect("8-wide block");
                for (acc_r, av_r) in acc.iter_mut().zip(&av) {
                    let a4 = &av_r[kk];
                    for (j, (o, &bv)) in acc_r.iter_mut().zip(bk).enumerate() {
                        *o += a4[j % 4] * bv;
                    }
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                out.row_mut(r)[c0..c0 + KERNEL_COLS].copy_from_slice(acc_r);
            }
        }
    }
    if c_end < n {
        for i in 0..R {
            axpy_row(a, b, out, i, c_end, n);
        }
    }
}

/// `out[i][c0..ce] += a[i] · b[..][c0..ce]`, one `k` at a time: the scalar
/// path for the rows and columns the micro-kernel's 4 × 8 blocks leave over.
fn axpy_row(a: &Matrix, b: &Matrix, out: &mut Matrix, i: usize, c0: usize, ce: usize) {
    let orow = &mut out.row_mut(i)[c0..ce];
    for (&aik, brow) in a.row(i).iter().zip(b.rows_iter()) {
        for (o, &bv) in orow.iter_mut().zip(&brow[c0..ce]) {
            *o += aik * bv;
        }
    }
}

/// Split an `(l × m) · (m × n)` product into per-k partial sums exactly as the
/// naive loop would, used by tests to pin the accumulation order.
pub fn reference_same_order(a: &Matrix, b: &Matrix) -> Matrix {
    ops::matmul_naive(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_tensor::{assert_close, init};

    #[test]
    fn functional_is_bit_identical_to_naive() {
        let psa = Psa::paper_default();
        for &(l, m, n) in &[(1, 1, 1), (2, 64, 64), (5, 33, 70), (32, 512, 64), (3, 7, 129)] {
            let a = init::uniform(l, m, -1.0, 1.0, (l + m) as u64);
            let b = init::uniform(m, n, -1.0, 1.0, (m + n) as u64);
            // Same k-accumulation order => exactly equal, not just close.
            assert_eq!(psa.matmul(&a, &b), reference_same_order(&a, &b));
        }
        // Every micro-kernel remainder: l = 1..=9 gives 0–2 full 4-row
        // blocks and every row remainder; n gives every column remainder
        // below 8, partial 8-column blocks and partial 64-wide tiles; m
        // crosses the 128-deep `k` chunks. Positive `a` times negative `b`
        // keeps every sum away from zero, whose sign `==` cannot see.
        for n in (1..=17).chain([63, 64, 65, 70, 127, 128, 129, 200]) {
            for l in 1..=9 {
                for m in [1, 7, 33, 70, 128, 129, 300] {
                    let a = init::uniform(l, m, 0.25, 1.0, (l * 1000 + m) as u64);
                    let b = init::uniform(m, n, -1.0, -0.25, (m * 1000 + n) as u64);
                    assert_eq!(psa.matmul(&a, &b), reference_same_order(&a, &b), "{l}x{m}x{n}");
                }
            }
        }
    }

    /// The wide path for any row count: `matmul_region` over every 64-wide
    /// tile, from zeros.
    fn tile_loop(psa: &Psa, a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for j0 in (0..b.cols()).step_by(psa.config.cols) {
            psa.matmul_region(a, b, &mut out, j0, (j0 + psa.config.cols).min(b.cols()));
        }
        out
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn skinny_path_is_bit_identical_to_naive_and_to_the_tile_loop() {
        // 1–4 rows take the row-streaming path: the decode shapes, every
        // `n % 8` remainder, and `m` on both sides of the 16-row `k` chunks.
        // Positive `a` times negative `b` keeps every sum away from zero.
        let psa = Psa::paper_default();
        let decode = [(512, 64), (512, 512), (512, 2048), (2048, 512), (512, 31)];
        let widths = (1..=24).map(|n| (37, n));
        let depths = [1, 15, 16, 17, 31, 32, 33, 48, 63].map(|m| (m, 21));
        for (m, n) in decode.into_iter().chain(widths).chain(depths) {
            for l in 1..=4 {
                let a = init::uniform(l, m, 0.25, 1.0, (l * 7919 + m) as u64);
                let b = init::uniform(m, n, -1.0, -0.25, (m * 7919 + n) as u64);
                let got = bits(&psa.matmul(&a, &b));
                assert_eq!(got, bits(&reference_same_order(&a, &b)), "{l}x{m}x{n} vs naive");
                assert_eq!(got, bits(&tile_loop(&psa, &a, &b)), "{l}x{m}x{n} vs tiles");
            }
        }
    }

    #[test]
    fn cycle_formula_mm1_shape() {
        // MM1 stripe: (32 x 64) . (64 x 64) on the 2x64 PSA:
        // 1 tile * 16 waves * (64*12 + 66) + 8 fill = 13352 cycles.
        let psa = Psa::paper_default();
        assert_eq!(psa.cycles(32, 64, 64), Cycles(16 * (64 * 12 + 66) + 8));
    }

    #[test]
    fn cycles_scale_with_waves() {
        let psa = Psa::paper_default();
        let c4 = psa.cycles(4, 64, 64).get();
        let c32 = psa.cycles(32, 64, 64).get();
        // ceil(4/2)=2 waves vs ceil(32/2)=16 waves: 8x the wave term.
        assert!((c32 as f64 / c4 as f64 - 8.0).abs() < 0.05);
    }

    #[test]
    fn odd_row_count_rounds_up_waves() {
        let psa = Psa::paper_default();
        assert_eq!(psa.cycles(3, 10, 64), psa.cycles(4, 10, 64));
        assert!(psa.cycles(3, 10, 64) > psa.cycles(2, 10, 64));
    }

    #[test]
    fn wide_output_tiles() {
        let psa = Psa::paper_default();
        // n = 512 on a 64-wide PSA => 8 tiles.
        let one_tile = psa.cycles(2, 16, 64).get() - psa.config.fill;
        let eight_tiles = psa.cycles(2, 16, 512).get() - psa.config.fill;
        assert_eq!(eight_tiles, one_tile * 8);
    }

    #[test]
    fn unroll_penalty_slows_by_about_ii() {
        let ideal = Psa::new(PsaConfig::fully_unrolled(2, 64));
        let real = Psa::paper_default();
        let r = real.cycles(32, 512, 64).get() as f64 / ideal.cycles(32, 512, 64).get() as f64;
        // The drain term dilutes the pure ii ratio slightly.
        assert!(r > 10.0 && r < 12.5, "penalty ratio {}", r);
    }

    #[test]
    fn matmul_timed_returns_both() {
        let psa = Psa::paper_default();
        let a = init::uniform(4, 8, -1.0, 1.0, 1);
        let b = init::uniform(8, 6, -1.0, 1.0, 2);
        let (c, cyc) = psa.matmul_timed(&a, &b);
        assert_close(&c, &reference_same_order(&a, &b), 1e-6);
        assert_eq!(cyc, psa.cycles(4, 8, 6));
    }

    #[test]
    fn resource_cost_is_lut_heavy() {
        let cost = Psa::paper_default().resource_cost();
        // per the thesis the PEs are LUT-intensive; DSP use is modest
        assert!(cost.lut > cost.dsp * 100);
        assert_eq!(cost.dsp, 128); // one DSP per PE in the shipped fit
    }

    #[test]
    #[should_panic(expected = "degenerate matmul")]
    fn zero_dim_cycles_panics() {
        let _ = Psa::paper_default().cycles(0, 4, 4);
    }

    #[test]
    #[should_panic(expected = "initiation interval")]
    fn zero_ii_panics() {
        let _ = Psa::new(PsaConfig { rows: 2, cols: 64, ii: 0, fill: 0 });
    }
}
