//! Seeded input generation: a splitmix64 stream and open-loop Poisson
//! arrival schedules derived from it. Everything here runs before timing
//! starts, and the same seed always yields the same inputs.

/// splitmix64: a tiny, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` — never 0, so `ln` of it is finite.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Open-loop Poisson arrivals: `n` timestamps after `start_s` with
/// exponential gaps, rescaled so the last one lands exactly at
/// `start_s + n / rate`. The offered rate is then exactly `rate` for every
/// seed, and only the burstiness changes with the seed. Strictly
/// increasing and fixed by `seed`.
pub fn poisson_arrivals(seed: u64, rate: f64, n: usize, start_s: f64) -> Vec<f64> {
    assert!(rate > 0.0 && rate.is_finite(), "arrival rate must be positive");
    let mut rng = SplitMix64::new(seed);
    let gaps: Vec<f64> = (0..n).map(|_| -rng.next_unit().ln()).collect();
    let scale = n as f64 / rate / gaps.iter().sum::<f64>();
    let mut t = start_s;
    gaps.iter()
        .map(|g| {
            t += g * scale;
            t
        })
        .collect()
}

/// Per-stream chunk schedules for a streaming pool: stream `i` opens at a
/// seeded offset inside the first interval, and each chunk arrives one
/// `interval_s` after the previous one plus seeded jitter below
/// `jitter_s`. Non-decreasing within each stream.
pub fn chunk_arrivals(
    seed: u64,
    streams: usize,
    chunks: usize,
    interval_s: f64,
    jitter_s: f64,
) -> Vec<Vec<f64>> {
    let mut rng = SplitMix64::new(seed ^ 0x57e4_11c0_ffee);
    (0..streams)
        .map(|_| {
            let open = rng.next_unit() * interval_s;
            let mut last = 0.0f64;
            (0..chunks)
                .map(|j| {
                    let t = open + j as f64 * interval_s + rng.next_unit() * jitter_s;
                    last = last.max(t);
                    last
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_arrivals() {
        assert_eq!(poisson_arrivals(7, 100.0, 500, 0.0), poisson_arrivals(7, 100.0, 500, 0.0));
        assert_ne!(poisson_arrivals(7, 100.0, 500, 0.0), poisson_arrivals(8, 100.0, 500, 0.0));
        assert_eq!(chunk_arrivals(3, 4, 8, 0.04, 0.005), chunk_arrivals(3, 4, 8, 0.04, 0.005));
    }

    #[test]
    fn arrivals_increase_and_offer_exactly_the_rate() {
        for seed in 0..20 {
            let a = poisson_arrivals(seed, 200.0, 1000, 1.0);
            assert!(a[0] > 1.0);
            assert!(a.windows(2).all(|w| w[1] > w[0]));
            assert!((a[999] - 6.0).abs() < 1e-9, "last arrival {}", a[999]);
        }
        // Exponential gaps: bursty, with a coefficient of variation near 1.
        let a = poisson_arrivals(11, 200.0, 20_000, 0.0);
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((var.sqrt() / mean - 1.0).abs() < 0.05, "cv {}", var.sqrt() / mean);
    }

    #[test]
    fn chunk_schedules_are_monotone_per_stream() {
        let s = chunk_arrivals(5, 6, 10, 0.04, 0.01);
        assert_eq!(s.len(), 6);
        for stream in &s {
            assert_eq!(stream.len(), 10);
            assert!(stream.windows(2).all(|w| w[1] >= w[0]));
        }
    }

    #[test]
    fn unit_draws_stay_in_the_half_open_interval() {
        let mut r = SplitMix64::new(0);
        for _ in 0..10_000 {
            let u = r.next_unit();
            assert!(u > 0.0 && u <= 1.0);
        }
    }
}
