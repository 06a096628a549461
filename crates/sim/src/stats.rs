//! Statistics collectors used by the experiments: streaming moments
//! ([`Tally`]), log-spaced histograms ([`Histogram`]), time-weighted
//! averages ([`TimeWeighted`]) and simple counters.

use crate::time::SimTime;

/// Streaming mean/variance/min/max via Welford's algorithm.
#[derive(Debug, Clone)]
pub struct Tally {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

/// Same as [`Tally::new`]. A derived `Default` would zero the min/max
/// sentinels, so a default-constructed tally (e.g. via a map's
/// `or_default`) would clamp `min()` at 0 and `max()` at 0 after real
/// observations arrive.
impl Default for Tally {
    fn default() -> Self {
        Self::new()
    }
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Self {
        Tally {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation (0 if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Half-width of the two-sided 95 % confidence interval of the mean:
    /// `t · s / √n` with Student's t for small samples (exact critical
    /// values for n ≤ 31, the normal value 1.960 beyond). 0 with fewer
    /// than two observations — one seed gives a point estimate, not an
    /// interval.
    pub fn ci95(&self) -> f64 {
        /// Two-sided 95 % Student-t critical values for 1..=30 degrees of
        /// freedom (Abramowitz & Stegun table 26.10).
        const T95: [f64; 30] = [
            12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179,
            2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
            2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
        ];
        if self.n < 2 {
            return 0.0;
        }
        let df = (self.n - 1) as usize;
        let t = if df <= T95.len() { T95[df - 1] } else { 1.960 };
        t * (self.variance() / self.n as f64).sqrt()
    }

    /// `(mean − ci95, mean + ci95)` — the 95 % confidence interval of the
    /// mean. Collapses to `(mean, mean)` with fewer than two observations.
    pub fn ci95_bounds(&self) -> (f64, f64) {
        let h = self.ci95();
        (self.mean() - h, self.mean() + h)
    }

    /// Merge another tally into this one (parallel-sweep reduction).
    pub fn merge(&mut self, other: &Tally) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Histogram with logarithmically spaced bins over `[lo, hi)` plus
/// underflow/overflow bins. Used for latency distributions.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    ratio: f64,
    counts: Vec<u64>,
    under: u64,
    over: u64,
    total: u64,
    /// Exact extrema of the observations; they bound the quantile
    /// estimates so under/overflow-only populations report real values
    /// instead of bin sentinels.
    min: f64,
    max: f64,
}

impl Histogram {
    /// `bins` log-spaced buckets spanning `[lo, hi)`; both bounds positive.
    pub fn log_spaced(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo > 0.0 && hi > lo && bins > 0);
        Histogram {
            lo,
            ratio: (hi / lo).powf(1.0 / bins as f64),
            counts: vec![0; bins],
            under: 0,
            over: 0,
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn add(&mut self, x: f64) {
        self.total += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if x < self.lo {
            self.under += 1;
        } else {
            let idx = ((x / self.lo).ln() / self.ratio.ln()).floor() as usize;
            if idx >= self.counts.len() {
                self.over += 1;
            } else {
                self.counts[idx] += 1;
            }
        }
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest observation (0 if empty) — exact, not a bin edge.
    pub fn min(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 if empty) — exact, not a bin edge.
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`). Returns 0 for an empty
    /// histogram.
    ///
    /// The estimate is the upper edge of the bin holding the observation
    /// of rank `ceil(q·total)` — clamped to at least rank 1, so `q = 0`
    /// asks for the smallest observation's bin rather than degenerating
    /// into the underflow bound — and capped at the largest observation
    /// actually recorded.
    ///
    /// **Error bound.** Within `[lo, hi)` the true quantile lies inside
    /// the reported bin, so the estimate overshoots by at most one bin
    /// width: a relative error of `ratio − 1 = (hi/lo)^(1/bins) − 1`
    /// (≈ 12 % for the 160-bin `[1, 1e8)` latency histograms the probe
    /// layer uses; narrow the span or add bins for tighter tails).
    ///
    /// **Boundary bins.** A rank landing in the underflow bin reports
    /// `min(lo, max)` — the tightest upper bound the histogram can still
    /// prove — and a rank landing in the overflow bin reports the largest
    /// observation rather than the bin's unbounded upper edge (which
    /// historically surfaced as `+∞`).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = self.under;
        if seen >= target {
            return self.lo.min(self.max);
        }
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return (self.lo * self.ratio.powi(i as i32 + 1)).min(self.max);
            }
        }
        self.max
    }

    /// Build a histogram sized to `values`: bins span the positive
    /// observations at ≈ 0.1 % spacing (capped at 4096 bins, which keeps
    /// the relative error ≈ 1 % even across a 10¹⁹ dynamic range), so
    /// [`Histogram::quantile`] answers with sub-bin error everywhere.
    /// This is the plumbing behind the telemetry run reports and the
    /// figure tables' tail (`p50/p99/p999`) columns. Non-positive
    /// observations land in the underflow bin (quantiles there report the
    /// underflow bound `min(lo, max)`); an empty or zero-spread series
    /// degenerates to a single bin whose quantiles are the exact extrema.
    pub fn summarize(values: &[f64]) -> Histogram {
        let lo = values
            .iter()
            .copied()
            .filter(|v| *v > 0.0)
            .fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(0.0_f64, f64::max);
        let mut h = if lo.is_finite() && hi > lo {
            // Nudge the top edge so the maximum itself stays in range.
            let hi = hi * (1.0 + 1e-9);
            let bins = (((hi / lo).ln() / 1.001_f64.ln()).ceil() as usize).clamp(1, 4096);
            Histogram::log_spaced(lo, hi, bins)
        } else {
            // No positive spread: any span works, every quantile collapses
            // to the min/max clamps.
            Histogram::log_spaced(1.0, 2.0, 1)
        };
        for &v in values {
            h.add(v);
        }
        h
    }

    /// Iterate `(bin_lower_edge, count)` for the regular bins.
    pub fn bins(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo * self.ratio.powi(i as i32), c))
    }
}

/// Time-weighted average of a piecewise-constant signal (queue lengths,
/// outstanding-credit counts).
#[derive(Debug, Clone, Default)]
pub struct TimeWeighted {
    last_t: SimTime,
    last_v: f64,
    integral: f64,
    started: bool,
}

impl TimeWeighted {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that the signal changed to `v` at time `t`.
    pub fn set(&mut self, t: SimTime, v: f64) {
        if self.started {
            self.integral += self.last_v * t.saturating_since(self.last_t).as_nanos() as f64;
        }
        self.last_t = t;
        self.last_v = v;
        self.started = true;
    }

    /// Time-weighted mean over `[0, end]` (assumes signal was 0 before the
    /// first `set`).
    pub fn mean(&self, end: SimTime) -> f64 {
        if end == SimTime::ZERO {
            return 0.0;
        }
        let tail = self.last_v * end.saturating_since(self.last_t).as_nanos() as f64;
        (self.integral + tail) / end.as_nanos() as f64
    }

    /// Current value of the signal.
    pub fn current(&self) -> f64 {
        self.last_v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_moments() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.add(x);
        }
        assert_eq!(t.count(), 8);
        assert!((t.mean() - 5.0).abs() < 1e-12);
        assert!((t.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(t.min(), 2.0);
        assert_eq!(t.max(), 9.0);
    }

    #[test]
    fn tally_empty_is_zeroes() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.min(), 0.0);
        assert_eq!(t.max(), 0.0);
        assert!(
            t.min().is_finite() && t.max().is_finite(),
            "empty tally never leaks the ±INFINITY sentinels"
        );
    }

    /// Regression: `#[derive(Default)]` used to zero the min/max
    /// sentinels, so a default-constructed tally reported `min() == 0`
    /// even after only positive observations (and `max() == 0` after only
    /// negative ones).
    #[test]
    fn default_tally_behaves_like_new() {
        let mut t = Tally::default();
        t.add(5.0);
        assert_eq!(t.min(), 5.0, "min is the smallest observation, not 0");
        assert_eq!(t.max(), 5.0);
        let mut neg = Tally::default();
        neg.add(-3.0);
        assert_eq!(neg.max(), -3.0, "max is the largest observation, not 0");
        assert_eq!(neg.min(), -3.0);
        assert_eq!(Tally::default().min(), 0.0, "empty default stays 0");
        assert_eq!(Tally::default().max(), 0.0);
    }

    #[test]
    fn tally_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37).collect();
        let mut whole = Tally::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = Tally::new();
        let mut b = Tally::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn ci95_matches_hand_computed_small_samples() {
        // n = 2, {1, 3}: mean 2, s² = 2, se = √(2/2) = 1, t(df=1) = 12.706.
        let mut t = Tally::new();
        t.add(1.0);
        t.add(3.0);
        assert!((t.ci95() - 12.706).abs() < 1e-9, "{}", t.ci95());
        let (lo, hi) = t.ci95_bounds();
        assert!((lo - (2.0 - 12.706)).abs() < 1e-9);
        assert!((hi - (2.0 + 12.706)).abs() < 1e-9);
        // n = 5, {10,12,14,16,18}: mean 14, s² = 10, se = √2, t(df=4) = 2.776.
        let mut t = Tally::new();
        for x in [10.0, 12.0, 14.0, 16.0, 18.0] {
            t.add(x);
        }
        assert!(
            (t.ci95() - 2.776 * 2.0f64.sqrt()).abs() < 1e-9,
            "{}",
            t.ci95()
        );
    }

    #[test]
    fn ci95_uses_normal_value_for_large_samples() {
        // n = 32 (df = 31 > table): 1.960 · √(s²/n), s² = 2728/31 = 88.
        let mut t = Tally::new();
        for i in 0..32 {
            t.add(i as f64);
        }
        assert!((t.variance() - 88.0).abs() < 1e-9);
        assert!((t.ci95() - 1.960 * (88.0f64 / 32.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn ci95_degenerate_cases() {
        let mut t = Tally::new();
        assert_eq!(t.ci95(), 0.0, "empty tally has no interval");
        t.add(5.0);
        assert_eq!(t.ci95(), 0.0, "one observation has no interval");
        assert_eq!(t.ci95_bounds(), (5.0, 5.0));
        t.add(5.0);
        assert_eq!(t.ci95(), 0.0, "zero variance collapses the interval");
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::log_spaced(1.0, 1000.0, 30);
        for i in 1..=1000 {
            h.add(i as f64);
        }
        assert_eq!(h.total(), 1000);
        let med = h.quantile(0.5);
        assert!(med > 400.0 && med < 700.0, "median approx: {med}");
        let p99 = h.quantile(0.99);
        assert!(p99 > 900.0, "p99 approx: {p99}");
    }

    #[test]
    fn histogram_under_over() {
        let mut h = Histogram::log_spaced(10.0, 100.0, 4);
        h.add(1.0);
        h.add(1e6);
        assert_eq!(h.total(), 2);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 1e6);
        assert!(h.quantile(0.25) <= 10.0);
        // A rank in the overflow bin reports the largest observation, not
        // the bin's unbounded edge (this used to return +INFINITY).
        assert_eq!(h.quantile(1.0), 1e6);
    }

    /// Populations that never leave the underflow bin must report the
    /// exact extrema, not the `lo` sentinel.
    #[test]
    fn histogram_underflow_only_population() {
        let mut h = Histogram::log_spaced(10.0, 100.0, 4);
        h.add(0.5);
        h.add(0.7);
        assert_eq!(h.quantile(0.0), 0.7, "bounded by the largest observation");
        assert_eq!(h.quantile(0.5), 0.7);
        assert_eq!(h.quantile(1.0), 0.7);
    }

    /// Populations that land entirely in the overflow bin report the
    /// largest observation at every quantile (the histogram cannot rank
    /// within the bin, but it can bound it exactly).
    #[test]
    fn histogram_overflow_only_population() {
        let mut h = Histogram::log_spaced(10.0, 100.0, 4);
        h.add(500.0);
        h.add(900.0);
        assert_eq!(h.quantile(0.5), 900.0);
        assert_eq!(h.quantile(1.0), 900.0);
        assert!(h.quantile(1.0).is_finite());
    }

    /// Bucket-boundary behaviour: `q = 0` targets rank 1 (the smallest
    /// observation's bin) instead of short-circuiting to the underflow
    /// bound, and in-range estimates are capped at the observed maximum
    /// so a lone observation on a bin's lower edge is not reported as
    /// the bin's upper edge overshooting every sample.
    #[test]
    fn histogram_quantile_bucket_boundaries() {
        // ratio = 2: bins [1,2) [2,4) [4,8) [8,16).
        let mut h = Histogram::log_spaced(1.0, 16.0, 4);
        for x in [1.0, 2.0, 4.0, 8.0] {
            h.add(x);
        }
        let q0 = h.quantile(0.0);
        assert!(
            (1.0..=2.0).contains(&q0),
            "q=0 reports the first bin, got {q0}"
        );
        assert_eq!(h.quantile(1.0), 8.0, "capped at the observed max");
        assert_eq!(Histogram::log_spaced(1.0, 16.0, 4).quantile(0.5), 0.0);
    }

    /// `summarize` sizes bins to the data so quantiles are near-exact,
    /// and degenerates gracefully on empty / constant / zero-heavy series.
    #[test]
    fn histogram_summarize_fits_the_data() {
        let xs: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let h = Histogram::summarize(&xs);
        assert_eq!(h.total(), 1000);
        let p50 = h.quantile(0.5);
        assert!((p50 - 500.0).abs() / 500.0 < 0.01, "p50 ≈ 500, got {p50}");
        let p999 = h.quantile(0.999);
        assert!(
            (p999 - 999.0).abs() / 999.0 < 0.01,
            "p999 ≈ 999, got {p999}"
        );
        // Degenerate series still answer exactly.
        assert_eq!(Histogram::summarize(&[]).quantile(0.5), 0.0);
        let constant = Histogram::summarize(&[5.0, 5.0, 5.0]);
        assert_eq!(constant.quantile(0.5), 5.0);
        assert_eq!(constant.quantile(0.999), 5.0);
        let zeros = Histogram::summarize(&[0.0, 0.0]);
        assert_eq!(zeros.quantile(0.999), 0.0);
    }

    /// The documented error bound: an in-range quantile overshoots by at
    /// most one bin width (relative error `ratio - 1`).
    #[test]
    fn histogram_quantile_error_bound() {
        let bins = 30;
        let (lo, hi) = (1.0_f64, 1000.0_f64);
        let ratio = (hi / lo).powf(1.0 / bins as f64);
        let mut h = Histogram::log_spaced(lo, hi, bins);
        let xs: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        for &x in &xs {
            h.add(x);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = xs[((q * xs.len() as f64).ceil() as usize).max(1) - 1];
            let est = h.quantile(q);
            assert!(est >= exact, "q={q}: estimate {est} below exact {exact}");
            assert!(
                est <= exact * ratio,
                "q={q}: estimate {est} overshoots {exact} by more than one bin"
            );
        }
    }

    #[test]
    fn time_weighted_mean() {
        let mut tw = TimeWeighted::new();
        tw.set(SimTime::from_nanos(0), 2.0);
        tw.set(SimTime::from_nanos(100), 4.0);
        // 2.0 for 100ns, then 4.0 for 100ns.
        assert!((tw.mean(SimTime::from_nanos(200)) - 3.0).abs() < 1e-12);
        assert_eq!(tw.current(), 4.0);
    }

    #[test]
    fn time_weighted_empty() {
        let tw = TimeWeighted::new();
        assert_eq!(tw.mean(SimTime::from_nanos(100)), 0.0);
    }
}
