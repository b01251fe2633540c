//! Property tests: the systolic engines are exact matmuls with lawful timing.

#![recursion_limit = "4096"]

use asr_systolic::{
    striped_matmul, CheckedPsa, IntegrityLevel, LaneFault, PipelinedAdder, Psa, PsaConfig,
    SystolicGrid,
};
use asr_tensor::{init, max_abs_diff, ops};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn grid_always_matches_naive(l in 1usize..7, m in 1usize..10, n in 1usize..7, seed in 0u64..500) {
        let a = init::uniform(l, m, -2.0, 2.0, seed);
        let b = init::uniform(m, n, -2.0, 2.0, seed + 1);
        let (c, cycles) = SystolicGrid::new(l, n).matmul(&a, &b);
        prop_assert!(max_abs_diff(&c, &ops::matmul_naive(&a, &b)) < 1e-4);
        prop_assert_eq!(cycles.get(), (l + m + n - 2) as u64);
    }

    #[test]
    fn psa_cycles_monotone_in_each_dim(l in 1usize..32, m in 1usize..128, n in 1usize..128) {
        let psa = Psa::paper_default();
        let base = psa.cycles(l, m, n);
        prop_assert!(psa.cycles(l + 1, m, n) >= base);
        prop_assert!(psa.cycles(l, m + 1, n) >= base);
        prop_assert!(psa.cycles(l, m, n + 1) >= base);
    }

    #[test]
    fn higher_ii_never_faster(l in 1usize..16, m in 1usize..64, n in 1usize..64, ii in 1u64..20) {
        let slow = Psa::new(PsaConfig { rows: 2, cols: 64, ii: ii + 1, fill: 8 });
        let fast = Psa::new(PsaConfig { rows: 2, cols: 64, ii, fill: 8 });
        prop_assert!(slow.cycles(l, m, n) >= fast.cycles(l, m, n));
    }

    #[test]
    fn bigger_psa_never_slower(lq in 1usize..5, m in 1usize..64, n in 1usize..64) {
        // Doubling the PSA row count halves the wave count when l is a
        // multiple of 4; the 2-cycle drain growth never outweighs that.
        let l = lq * 4;
        let small = Psa::new(PsaConfig { rows: 2, cols: 64, ii: 12, fill: 8 });
        let big = Psa::new(PsaConfig { rows: 4, cols: 64, ii: 12, fill: 8 });
        prop_assert!(big.cycles(l, m, n) <= small.cycles(l, m, n));
    }

    #[test]
    fn striped_matches_naive(seed in 0u64..500, stripes in 1usize..5) {
        let m = stripes * 8;
        let a = init::uniform(6, m, -1.0, 1.0, seed);
        let b = init::uniform(m, 10, -1.0, 1.0, seed + 1);
        let r = striped_matmul(&a, &b, stripes, &Psa::paper_default(), &PipelinedAdder::paper_default());
        prop_assert!(max_abs_diff(&r.output, &ops::matmul_naive(&a, &b)) < 1e-3);
    }

    #[test]
    fn adder_cycles_monotone(r in 1usize..64, c in 1usize..512) {
        let add = PipelinedAdder::paper_default();
        prop_assert!(add.cycles(r + 1, c) >= add.cycles(r, c));
        prop_assert!(add.cycles(r, c + 1) >= add.cycles(r, c));
    }

    #[test]
    fn stepped_machine_matches_analytic_cycles_everywhere(
        l in 1usize..12, m in 1usize..40, n in 1usize..80, ii in 1u64..16
    ) {
        let cfg = PsaConfig { rows: 2, cols: 64, ii, fill: 8 };
        let a = init::uniform(l, m, -1.0, 1.0, (l * m) as u64);
        let b = init::uniform(m, n, -1.0, 1.0, (m * n) as u64);
        let stepped = asr_systolic::psa_stepped::run_stepped(&cfg, &a, &b);
        let analytic = Psa::new(cfg).cycles(l, m, n);
        prop_assert_eq!(stepped.cycles, analytic);
        prop_assert_eq!(stepped.output, ops::matmul_naive(&a, &b));
    }

    #[test]
    fn int8_psa_error_bounded(l in 1usize..10, m in 1usize..40, n in 1usize..20, seed in 0u64..200) {
        use asr_tensor::quant::QuantizedMatrix;
        let a = init::uniform(l, m, -1.0, 1.0, seed);
        let b = init::uniform(m, n, -1.0, 1.0, seed + 1);
        let q = asr_systolic::quant_psa::Int8Psa::from_fp32(PsaConfig::paper_default());
        let approx = q.matmul(&a, &QuantizedMatrix::quantize(&b));
        let exact = ops::matmul_naive(&a, &b);
        // worst case error per output element: m * (step_a + step_b) with
        // steps <= 1/127; generous bound of 2 m/100
        let bound = 2.0 * m as f32 / 100.0 + 1e-3;
        prop_assert!(max_abs_diff(&approx, &exact) < bound,
            "err {} > bound {}", max_abs_diff(&approx, &exact), bound);
    }

    #[test]
    fn int8_psa_always_faster_than_fp32(l in 1usize..32, m in 1usize..128, n in 1usize..128) {
        let fp32 = Psa::paper_default();
        let q = asr_systolic::quant_psa::Int8Psa::from_fp32(PsaConfig::paper_default());
        prop_assert!(q.cycles(l, m, n) <= fp32.cycles(l, m, n));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn abft_detects_any_single_lane_fault(
        lane in 0usize..64, l in 1usize..12, m in 1usize..96, n in 1usize..160
    ) {
        // ABFT detects any single sticky lane fault within one block: every
        // corrupted tile's checksum mismatches, and localized recompute
        // restores the clean bits exactly. Delta sweeps the seeded range.
        let psa = Psa::paper_default();
        let delta = 0.5 + (lane % 8) as f32 * 0.5;
        let seed = (lane * 131 + l * 17 + m * 3 + n) as u64;
        let a = init::uniform(l, m, -1.0, 1.0, seed);
        let b = init::uniform(m, n, -1.0, 1.0, seed + 1);
        let clean = psa.matmul(&a, &b);
        let eng = CheckedPsa::with_fault(
            psa,
            IntegrityLevel::DetectAndRecompute,
            Some(LaneFault { lane, delta }),
        );
        let repaired = asr_systolic::PsaMatmul::matmul(&eng, &a, &b);
        let stats = eng.stats();
        // The lane corrupts a tile iff it lands inside the tile's width.
        prop_assert_eq!(stats.detected, stats.corrupted_tiles);
        prop_assert_eq!(stats.recomputed, stats.corrupted_tiles);
        prop_assert_eq!(repaired, clean);
    }
}

/// Per-block case count: `PROPTEST_CASES` when set, else `default`. The
/// vendored proptest does not read the environment itself.
fn env_cases(default: u32) -> ProptestConfig {
    let cases =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

/// Uniform operands with no exact zeros: `matmul_naive` skips a zero `a_ik`,
/// which can change the sign of a zero sum, so exact zeros would make a
/// bit-for-bit comparison test the reference rather than the kernel.
fn nonzero(rows: usize, cols: usize, seed: u64) -> asr_tensor::Matrix {
    let mut m = init::uniform(rows, cols, -1.0, 1.0, seed);
    m.map_inplace(|v| if v == 0.0 { 0.5 } else { v });
    m
}

/// The PSA tile loop before register blocking: one output row at a time,
/// `k` outer, columns inner.
fn axpy_region(
    a: &asr_tensor::Matrix,
    b: &asr_tensor::Matrix,
    out: &mut asr_tensor::Matrix,
    j0: usize,
    je: usize,
) {
    for i in 0..a.rows() {
        let orow = &mut out.row_mut(i)[j0..je];
        for (k, &aik) in a.row(i).iter().enumerate() {
            for (o, &bv) in orow.iter_mut().zip(&b.row(k)[j0..je]) {
                *o += aik * bv;
            }
        }
    }
}

/// Equal to the bit, so a flipped zero sign or a reordered sum shows.
fn same_bits(x: &asr_tensor::Matrix, y: &asr_tensor::Matrix) -> bool {
    x.shape() == y.shape()
        && x.as_slice().iter().zip(y.as_slice()).all(|(p, q)| p.to_bits() == q.to_bits())
}

/// The wide path for any row count: `matmul_region` over every 64-wide
/// tile of the paper PSA, from zeros.
fn tile_loop(a: &asr_tensor::Matrix, b: &asr_tensor::Matrix) -> asr_tensor::Matrix {
    let psa = Psa::paper_default();
    let mut out = asr_tensor::Matrix::zeros(a.rows(), b.cols());
    for j0 in (0..b.cols()).step_by(64) {
        psa.matmul_region(a, b, &mut out, j0, (j0 + 64).min(b.cols()));
    }
    out
}

proptest! {
    #![proptest_config(env_cases(64))]

    #[test]
    fn psa_bitwise_matches_naive(l in 1usize..40, m in 1usize..300, n in 1usize..201, seed in 0u64..1000) {
        // Every kernel remainder: l spans full 4-row blocks plus 0–3
        // leftover rows; n spans n < 8, partial 8-column blocks and partial
        // 64-wide tiles; m spans one to three 128-deep `k` chunks.
        let a = nonzero(l, m, seed);
        let b = nonzero(m, n, seed + 1);
        let got = Psa::paper_default().matmul(&a, &b);
        let want = ops::matmul_naive(&a, &b);
        prop_assert!(
            got.as_slice().iter().zip(want.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{}x{}x{} differs from matmul_naive", l, m, n
        );
    }

    #[test]
    fn skinny_psa_matches_naive_and_the_tile_loop_at_decode_shapes(
        l in 1usize..=4, shape in 0usize..5, seed in 0u64..1000
    ) {
        let (m, n) = [(512, 64), (512, 512), (512, 2048), (2048, 512), (512, 31)][shape];
        let a = nonzero(l, m, seed);
        let b = nonzero(m, n, seed + 1);
        let got = Psa::paper_default().matmul(&a, &b);
        prop_assert!(same_bits(&got, &ops::matmul_naive(&a, &b)), "{}x{}x{} vs naive", l, m, n);
        prop_assert!(same_bits(&got, &tile_loop(&a, &b)), "{}x{}x{} vs tiles", l, m, n);
    }

    #[test]
    fn skinny_psa_matches_naive_and_the_tile_loop_at_any_width(
        l in 1usize..=4, m in 1usize..100, n in 1usize..300, seed in 0u64..1000
    ) {
        // Random n covers every `n % 8` column tail; m spans one to seven
        // 16-row `k` chunks, full and partial.
        let a = nonzero(l, m, seed);
        let b = nonzero(m, n, seed + 1);
        let got = Psa::paper_default().matmul(&a, &b);
        prop_assert!(same_bits(&got, &ops::matmul_naive(&a, &b)), "{}x{}x{} vs naive", l, m, n);
        prop_assert!(same_bits(&got, &tile_loop(&a, &b)), "{}x{}x{} vs tiles", l, m, n);
    }

    #[test]
    fn matmul_region_into_a_nonzero_out_keeps_the_axpy_order(
        l in 1usize..10, m in 1usize..300, n in 1usize..201, cut in 0usize..1000, seed in 0u64..1000
    ) {
        let a = nonzero(l, m, seed);
        let b = nonzero(m, n, seed + 1);
        let start = nonzero(l, n, seed + 2);
        let j0 = cut % n;
        let je = j0 + 1 + (cut / 7) % (n - j0);
        let (mut got, mut want) = (start.clone(), start);
        Psa::paper_default().matmul_region(&a, &b, &mut got, j0, je);
        axpy_region(&a, &b, &mut want, j0, je);
        prop_assert!(
            got.as_slice().iter().zip(want.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{}x{}x{} tile [{}, {}) differs from the axpy order", l, m, n, j0, je
        );
    }

    #[test]
    fn checked_psa_counts_every_lane_fault_on_a_partial_last_tile(
        l in 1usize..10, m in 1usize..40, tiles in 0usize..3, tail in 1usize..64, seed in 0u64..1000
    ) {
        // n % 64 != 0: the last tile is `tail` wide, so lanes at or past
        // `tail` corrupt one tile fewer than the lanes below it.
        let n = tiles * 64 + tail;
        let psa = Psa::paper_default();
        let a = nonzero(l, m, seed);
        let b = nonzero(m, n, seed + 1);
        let clean = psa.matmul(&a, &b);
        for lane in 0..64 {
            let eng = CheckedPsa::with_fault(
                psa,
                IntegrityLevel::DetectAndRecompute,
                Some(LaneFault { lane, delta: 1.0 }),
            );
            let repaired = asr_systolic::PsaMatmul::matmul(&eng, &a, &b);
            let stats = eng.stats();
            let hit = (tiles + usize::from(lane < tail)) as u64;
            prop_assert_eq!(stats.checked_tiles, (tiles + 1) as u64);
            prop_assert_eq!(stats.corrupted_tiles, hit, "lane {}", lane);
            prop_assert_eq!(stats.detected, hit, "lane {}", lane);
            prop_assert_eq!(stats.recomputed, hit, "lane {}", lane);
            prop_assert_eq!(&repaired, &clean, "lane {}", lane);
        }
    }
}
