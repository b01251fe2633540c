//! The host-speed reference: a fixed kernel timed between ops, so that
//! host times of a workload that slows with the host can be scaled to one
//! reference speed of the box.
//!
//! The box is a few cores of a shared host. Other tenants' load flips it
//! between a fast and a slow state for seconds to minutes at a time, in
//! which scalar, branchy code such as `pool_sim`'s event loops runs up to
//! 1.6× slower, so the same work reads differently from one run to the
//! next. This kernel, a scalar f32 matmul written here (not the program's
//! kernel, so no change to the program moves it), slows with them: over
//! five `pool_sim` runs in a noisy stretch the raw 10th-percentile op time
//! spread 0.35 (quartile distance over median) and the scaled one 0.06.
//! A register-only integer loop did not track the workloads (correlation
//! 0.25), and a vectorised version of this kernel tracked them less well.

use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// Reference kernel shape: `M×K` times `K×N`.
const M: usize = 64;
const K: usize = 256;
const N: usize = 256;

/// Share of the elapsed run the reference kernel is given, interleaved
/// with the work.
pub const SHARE: f64 = 0.10;

/// The reference speed host times are scaled to: about the kernel's
/// 10th-percentile time in a quiet stretch of the box this benchmark was
/// written on (2.85–3.0 ms on a 2-core x86-64 VM).
pub const NOMINAL_S: f64 = 0.003;

/// The kernel's inputs and the samples taken so far.
#[derive(Debug)]
pub struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
    start: Instant,
    spent_s: f64,
    /// Seconds per kernel call, one per sample.
    pub samples: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Fixed inputs; the run's clock starts now.
    pub fn new() -> Self {
        Reference {
            a: (0..M * K).map(|i| (i % 7) as f32 - 3.0).collect(),
            b: (0..K * N).map(|i| (i % 5) as f32 - 2.0).collect(),
            start: Instant::now(),
            spent_s: 0.0,
            samples: Vec::new(),
        }
    }

    /// `A·B` by the i-k-j loop with indexed (bounds-checked) accesses:
    /// scalar loads and stores like the program's event loops, rather than
    /// a vectorised inner loop. Every product is of small integers, so the
    /// result is exact.
    fn kernel(&self) -> Vec<f32> {
        let (a, b) = (black_box(&self.a), black_box(&self.b));
        let mut c = vec![0f32; M * N];
        for i in 0..M {
            for k in 0..K {
                let x = a[i * K + k];
                for j in 0..N {
                    c[i * N + j] += x * b[k * N + j];
                }
            }
        }
        c
    }

    /// Time one kernel call.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        black_box(self.kernel());
        let dt = t0.elapsed().as_secs_f64();
        self.spent_s += dt;
        self.samples.push(dt);
    }

    /// Take samples until the kernel has had [`SHARE`] of the time since
    /// the run started. Called between ops, never inside one, so the
    /// samples follow the host through the run.
    pub fn catch_up(&mut self) {
        while self.spent_s < SHARE * self.start.elapsed().as_secs_f64() {
            self.sample();
        }
    }

    /// What host times taken while `samples` were drawn are multiplied by
    /// to read at the reference speed: [`NOMINAL_S`] over the kernel's
    /// 10th-percentile time. NaN with no samples.
    pub fn scale(samples: &[f64]) -> f64 {
        stats::percentile(samples, 0.10).map_or(f64::NAN, |p| NOMINAL_S / p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_computes_the_product() {
        let r = Reference::new();
        let c = r.kernel();
        for (i, j) in [(0, 0), (5, 17), (M - 1, N - 1)] {
            let want: f32 = (0..K).map(|k| r.a[i * K + k] * r.b[k * N + j]).sum();
            assert_eq!(c[i * N + j], want);
        }
    }

    #[test]
    fn catch_up_gives_the_kernel_its_share() {
        let mut r = Reference::new();
        r.catch_up();
        assert_eq!(r.samples.len(), 1, "the first call samples once");
        std::thread::sleep(std::time::Duration::from_millis(200));
        let before = r.start.elapsed().as_secs_f64();
        r.catch_up();
        assert!(r.spent_s >= SHARE * before);
        assert!(r.samples.len() > 2);
        let scale = Reference::scale(&r.samples);
        assert!(scale > 0.0 && scale.is_finite());
        assert!(Reference::scale(&[]).is_nan());
        assert_eq!(Reference::scale(&[NOMINAL_S * 2.0]), 0.5);
    }
}
