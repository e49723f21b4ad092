//! Seeded randomness and order statistics.
//!
//! Every input the benchmark generates comes from [`Rng`], so one seed gives
//! one schedule, one population and one graph. Percentiles use the nearest
//! rank, and a tail percentile is refused unless at least ten samples lie
//! beyond it: a "p99" over fifty samples is the maximum under another name.

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0fe4_f41b_e4c4)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The geometric mean (`NaN` for an empty sample).
pub fn geomean(samples: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = samples
        .into_iter()
        .fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    (sum / n as f64).exp()
}

/// Samples beyond a tail percentile below which it is refused.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The nearest-rank median (`NaN` for an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return f64::NAN;
    }
    v[v.len().div_ceil(2) - 1]
}

/// The nearest-rank `pct` percentile, refused when fewer than
/// [`MIN_BEYOND`] samples lie above its rank.
pub fn percentile(samples: &[f64], pct: f64) -> Result<f64, String> {
    let v = sorted(samples);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    let beyond = v.len().saturating_sub(rank);
    if rank == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{pct} of {} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed",
            v.len()
        ));
    }
    Ok(v[rank - 1])
}

/// The highest of the usual tail percentiles the sample supports, with its
/// value: `(pct, value)`.
pub fn highest_tail(samples: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find_map(|p| percentile(samples, p).ok().map(|v| (p, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 90.0), Ok(90.0));
        assert!(percentile(&samples, 95.0).is_err(), "5 samples beyond p95");
        assert!(percentile(&samples, 99.0).is_err());
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 99.0), Ok(990.0));
        assert_eq!(highest_tail(&samples), Some((90.0, 90.0)));
        assert_eq!(highest_tail(&samples[..15]), None);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean([1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!(geomean([]).is_nan());
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn infinite_latencies_sort_last() {
        let mut samples: Vec<f64> = (1..=40).map(f64::from).collect();
        samples.push(f64::INFINITY);
        assert_eq!(percentile(&samples, 75.0), Ok(31.0));
        assert_eq!(median(&samples), 21.0);
    }

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .scan(Rng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
