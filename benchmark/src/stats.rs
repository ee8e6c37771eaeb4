//! Order statistics, the output digest, and the benchmark's own RNG.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The fastest of several repetitions of one deterministic piece of work
/// (`INFINITY` for none). The sandbox's interference only ever adds time,
/// in bursts of seconds, so the fastest repetition estimates the work's
/// cost with a fraction of the median's run-to-run spread.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// The `q`-quantile (nearest rank, `0 < q < 1`) of `xs`, or `None` when
/// fewer than [`TAIL_SAMPLES`] samples lie beyond it: a p99 of 300
/// samples is three outliers, not a percentile.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    // The epsilon keeps 100 * (1 - 0.9) from rounding down to nine.
    let beyond = (xs.len() as f64 * (1.0 - q) + 1e-9).floor() as usize;
    if beyond < TAIL_SAMPLES {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[((v.len() - 1) as f64 * q) as usize])
}

/// `percentile(xs, q)` if the sample supports it, else the highest of
/// p95 / p90 / p50 that it does; returns the value and the quantile
/// actually used. Per-layer probes use this so an under-sampled tail is
/// labelled, not invented. `(0.0, 0.0)` for an empty sample.
pub fn percentile_or_lower(xs: &[f64], q: f64) -> (f64, f64) {
    for cand in [q, 0.95, 0.90] {
        if cand <= q {
            if let Some(v) = percentile(xs, cand) {
                return (v, cand);
            }
        }
    }
    if xs.is_empty() {
        (0.0, 0.0)
    } else {
        (median(xs), 0.5)
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method), so `compare` and the acceptance
/// driver agree on what a spread is. `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Position i*(n+1)/4 in 1-based ranks, clamped into the sample.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median; `0.0` below two
/// samples or at a zero median.
pub fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    match quartiles(xs) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// FNV-1a over a byte stream: the digest of a workload's deterministic
/// output. Not cryptographic; it only has to notice a changed byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn of(bytes: &[u8]) -> Self {
        let mut d = Self::default();
        d.update(bytes);
        d
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64: the benchmark's own generator for the draws no repo
/// generator makes (which competitors a prediction scenario gets), so
/// the inputs do not move when the vendored `rand` stand-in does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// sizes drawn here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), None, "9 beyond p99 is too few");
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Some(989.0));
        assert_eq!(percentile(&xs[..20], 0.5), Some(9.0));
        assert_eq!(percentile(&xs[..19], 0.5), None);
    }

    #[test]
    fn percentile_falls_back_to_a_supported_quantile() {
        let xs: Vec<f64> = (0..250).map(f64::from).collect();
        let (v, q) = percentile_or_lower(&xs, 0.99);
        assert_eq!(q, 0.95);
        assert_eq!(v, 236.0);
        assert_eq!(percentile_or_lower(&xs[..5], 0.99), (2.0, 0.5));
        assert_eq!(percentile_or_lower(&[], 0.99), (0.0, 0.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), Some((10.0, 30.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn digest_notices_one_byte() {
        assert_ne!(Digest::of(b"nic:3"), Digest::of(b"nic:4"));
        assert_eq!(Digest::of(b"").hex(), "cbf29ce484222325");
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(11);
        let mut b = SplitMix64::new(11);
        let xs: Vec<usize> = (0..8).map(|_| a.below(9)).collect();
        let ys: Vec<usize> = (0..8).map(|_| b.below(9)).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().all(|&x| x < 9));
    }
}
