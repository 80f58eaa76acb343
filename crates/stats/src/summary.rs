//! Running summary statistics.

/// Online mean / variance accumulator using Welford's algorithm.
///
/// Numerically stable for the long measurement streams produced by the
/// covert-channel experiments (hundreds of thousands of timing samples).
/// The trace layer's stall histograms (`leaky_trace::StallSummary`) are
/// this type too, so sweep statistics and trace summaries share one
/// arithmetic.
///
/// # Examples
///
/// ```
/// use leaky_stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// s.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

// Not derived: the empty accumulator needs `min = +inf` / `max = -inf`
// so the first real sample wins, and a derived all-zero default would
// silently clamp minima at 0.
impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds `n` copies of one sample in O(1), as a merge with the
    /// degenerate accumulator `{count: n, mean: v, m2: 0}`.
    ///
    /// This is what lets the steady-state collapse in
    /// `Frontend::run_iterations` stand `weight` identical iterations
    /// behind a single trace event without replaying them.
    pub fn push_repeated(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        let repeated = OnlineStats {
            count: n,
            mean: v,
            m2: 0.0,
            min: v,
            max: v,
        };
        self.merge(&repeated);
    }

    /// Adds every sample from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }

    /// Number of samples pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the samples, or `0.0` if empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Smallest sample seen, or `+inf` if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample seen, or `-inf` if empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Population variance (divides by `n`), or `0.0` with fewer than one
    /// sample.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by `n - 1`), or `0.0` with fewer than two
    /// samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// The accumulator's raw state `(count, mean, m2, min, max)`, for
    /// bit-exact serialization (the store telemetry codec). `mean`/`m2`
    /// are the internal Welford moments, not derived statistics; feeding
    /// them back through [`OnlineStats::from_raw_parts`] reproduces the
    /// accumulator exactly, including the empty state's `±inf` extrema.
    pub fn raw_parts(&self) -> (u64, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max)
    }

    /// Rebuilds an accumulator from [`OnlineStats::raw_parts`] output,
    /// bit-for-bit.
    pub fn from_raw_parts(count: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        OnlineStats {
            count,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Merges a sequence of accumulators strictly left-to-right.
///
/// Floating-point addition is not associative, so the *grouping* of
/// [`OnlineStats::merge`] calls affects the low bits of the result. A
/// parallel sweep that wants bit-identical output at any worker count
/// must therefore collect its per-shard accumulators in a deterministic
/// order and fold them sequentially — which is exactly what this does.
///
/// # Examples
///
/// ```
/// use leaky_stats::{summary::merge_ordered, OnlineStats};
///
/// let parts = [
///     OnlineStats::from_iter([1.0, 2.0]),
///     OnlineStats::from_iter([3.0]),
/// ];
/// assert_eq!(merge_ordered(parts).mean(), 2.0);
/// ```
pub fn merge_ordered<I: IntoIterator<Item = OnlineStats>>(parts: I) -> OnlineStats {
    let mut acc = OnlineStats::new();
    for part in parts {
        acc.merge(&part);
    }
    acc
}

impl FromIterator<f64> for OnlineStats {
    /// Builds an accumulator from an iterator of samples.
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

/// Returns the median of a slice (average of the two middle elements for even
/// lengths), or `None` for an empty slice.
///
/// Samples are ordered with [`f64::total_cmp`], so NaN inputs sort
/// after `+inf` instead of aborting the sweep mid-render.
///
/// # Examples
///
/// ```
/// assert_eq!(leaky_stats::summary::median(&[3.0, 1.0, 2.0]), Some(2.0));
/// assert_eq!(leaky_stats::summary::median(&[]), None);
/// ```
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Returns the `q`-quantile (0.0..=1.0) of a slice using linear
/// interpolation, or `None` for an empty slice.
///
/// Samples are ordered with [`f64::total_cmp`], so NaN inputs sort
/// after `+inf` instead of aborting the sweep mid-render.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile: q must be in [0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zeroed() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn default_is_the_empty_accumulator() {
        assert_eq!(OnlineStats::default(), OnlineStats::new());
        let mut s = OnlineStats::default();
        s.push(5.0);
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn push_repeated_matches_degenerate_merge() {
        let mut a = OnlineStats::new();
        a.push(3.0);
        let mut b = a;
        a.push_repeated(7.5, 4);
        let mut reps = OnlineStats::new();
        for _ in 0..4 {
            reps.push(7.5);
        }
        b.merge(&reps);
        // Same mean/count; m2 may differ in the low bits between the two
        // op orders, but the degenerate source has m2 == 0 so they agree.
        assert_eq!(a.count(), b.count());
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.m2, b.m2);
        a.push_repeated(1.0, 0);
        assert_eq!(a.count(), 5);
    }

    #[test]
    fn single_sample() {
        let s = OnlineStats::from_iter([42.0]);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
        assert_eq!(s.population_variance(), 0.0);
    }

    #[test]
    fn welford_matches_two_pass() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 100.0).collect();
        let s = OnlineStats::from_iter(data.iter().copied());
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / data.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.population_variance() - var).abs() < 1e-6);
    }

    #[test]
    fn merge_equals_sequential() {
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b: Vec<f64> = (100..300).map(|i| i as f64 * 1.5).collect();
        let mut left = OnlineStats::from_iter(a.iter().copied());
        let right = OnlineStats::from_iter(b.iter().copied());
        left.merge(&right);
        let all = OnlineStats::from_iter(a.into_iter().chain(b));
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.population_variance() - all.population_variance()).abs() < 1e-6);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = OnlineStats::from_iter([1.0, 2.0, 3.0]);
        let before = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn merge_ordered_equals_manual_left_fold() {
        let shards: Vec<OnlineStats> = (0..7)
            .map(|s| OnlineStats::from_iter((0..50).map(|i| ((s * 50 + i) as f64 * 0.13).cos())))
            .collect();
        let mut manual = OnlineStats::new();
        for s in &shards {
            manual.merge(s);
        }
        // Bit-identical, not just approximately equal: merge_ordered is
        // the determinism anchor for parallel sweeps.
        assert_eq!(merge_ordered(shards), manual);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quantile_endpoints() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&data, 0.0), Some(1.0));
        assert_eq!(quantile(&data, 1.0), Some(4.0));
        assert_eq!(quantile(&data, 0.5), median(&data));
    }

    #[test]
    fn min_max_track_extremes() {
        let s = OnlineStats::from_iter([3.0, -7.0, 12.0, 0.0]);
        assert_eq!(s.min(), -7.0);
        assert_eq!(s.max(), 12.0);
    }
}
