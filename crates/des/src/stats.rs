//! Output statistics.
//!
//! Everything a scheduling experiment needs to summarize its observations:
//! streaming mean/variance (Welford), fixed-bin histograms with quantile
//! estimates, time-weighted averages for queue lengths and memory in use,
//! exact integer busy time for 0/1 utilization signals, and batch-means
//! confidence intervals.

use crate::time::{SimDuration, SimTime};

/// Streaming mean/variance accumulator (Welford's online algorithm).
///
/// ```
/// use parsched_des::stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     w.record(x);
/// }
/// assert_eq!(w.mean(), 2.5);
/// assert!((w.variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Record a duration observation in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0.0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (std dev / mean; 0.0 if the mean is 0).
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel Welford / Chan et al.).
    pub fn merge(&mut self, other: &Welford) {
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

/// Fixed-bin histogram over `[lo, hi)` with overflow/underflow bins,
/// supporting quantile estimation by linear interpolation within bins.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// A histogram with `bins` equal-width bins covering `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `hi <= lo` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo, "Histogram: hi must exceed lo");
        assert!(bins > 0, "Histogram: need at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total observations recorded (including out-of-range ones).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Approximate `q`-quantile (`0.0 <= q <= 1.0`) by linear interpolation
    /// within the containing bin. Returns `None` when empty. Out-of-range
    /// mass is attributed to the range boundaries.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cum = self.underflow as f64;
        if target <= cum {
            return Some(self.lo);
        }
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, &c) in self.bins.iter().enumerate() {
            let next = cum + c as f64;
            if target <= next && c > 0 {
                let frac = (target - cum) / c as f64;
                return Some(self.lo + w * (i as f64 + frac));
            }
            cum = next;
        }
        Some(self.hi)
    }
}

/// Time-weighted average of a piecewise-constant signal (queue length,
/// memory in use, ...). A 0/1 busy signal uses [`BusyTime`], whose sum
/// is exact.
///
/// ```
/// use parsched_des::stats::TimeWeighted;
/// use parsched_des::SimTime;
///
/// let mut queue_len = TimeWeighted::new(SimTime::ZERO, 0.0);
/// queue_len.add(SimTime(1_000_000_000), 2.0);  // two arrivals at t = 1 s
/// queue_len.add(SimTime(3_000_000_000), -1.0); // one departure at t = 3 s
/// // 0 for 1 s, 2 for 2 s, 1 for 1 s => mean 1.25 over 4 s.
/// assert_eq!(queue_len.mean(SimTime(4_000_000_000)), 1.25);
/// ```
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    weighted_sum: f64,
    start: SimTime,
    peak: f64,
}

impl TimeWeighted {
    /// Start tracking at `t0` with initial signal `value`.
    pub fn new(t0: SimTime, value: f64) -> Self {
        TimeWeighted {
            last_time: t0,
            last_value: value,
            weighted_sum: 0.0,
            start: t0,
            peak: value,
        }
    }

    /// The signal changes to `value` at time `now`.
    pub fn set(&mut self, now: SimTime, value: f64) {
        debug_assert!(now >= self.last_time, "TimeWeighted: time ran backwards");
        self.weighted_sum +=
            self.last_value * now.saturating_since(self.last_time).as_secs_f64();
        self.last_time = now;
        self.last_value = value;
        self.peak = self.peak.max(value);
    }

    /// Add `delta` to the signal at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.last_value + delta;
        self.set(now, v);
    }

    /// Current signal value.
    pub fn current(&self) -> f64 {
        self.last_value
    }

    /// Peak signal value observed.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-weighted mean over `[t0, now]` (0.0 for an empty interval).
    pub fn mean(&self, now: SimTime) -> f64 {
        let total = now.saturating_since(self.start).as_secs_f64();
        if total == 0.0 {
            return self.last_value;
        }
        let sum = self.weighted_sum
            + self.last_value * now.saturating_since(self.last_time).as_secs_f64();
        sum / total
    }
}

/// Exact busy time of a 0/1 signal (a CPU running, a link carrying a
/// flit), in integer nanoseconds.
///
/// An integer sum does not depend on how its pieces were cut, so any
/// sequence of `set` calls that describes the same busy intervals gives
/// the same total: turning on while on adds nothing, and an off/on pair
/// at one instant adds nothing. The mean is one division at capture.
///
/// ```
/// use parsched_des::stats::BusyTime;
/// use parsched_des::SimTime;
///
/// let mut link = BusyTime::new(SimTime::ZERO);
/// link.set(SimTime(10), true);
/// link.set(SimTime(25), false);
/// link.set(SimTime(25), true); // a park and restart in one instant
/// link.set(SimTime(30), false);
/// assert_eq!(link.busy_ns(SimTime(40)), 20);
/// assert_eq!(link.mean(SimTime(40)), 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct BusyTime {
    start: SimTime,
    last: SimTime,
    busy_ns: u64,
    on: bool,
}

impl BusyTime {
    /// An idle signal from `t0`.
    pub fn new(t0: SimTime) -> Self {
        BusyTime {
            start: t0,
            last: t0,
            busy_ns: 0,
            on: false,
        }
    }

    /// The signal turns on (`true`) or off at time `now`.
    #[inline]
    pub fn set(&mut self, now: SimTime, on: bool) {
        debug_assert!(now >= self.last, "BusyTime: time ran backwards");
        if self.on {
            self.busy_ns += now.saturating_since(self.last).nanos();
        }
        self.last = now;
        self.on = on;
    }

    /// True while the signal is on.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds on over `[t0, at]`.
    pub fn busy_ns(&self, at: SimTime) -> u64 {
        let open = if self.on {
            at.saturating_since(self.last).nanos()
        } else {
            0
        };
        self.busy_ns + open
    }

    /// Fraction of `[t0, at]` spent on (the current bit for an empty
    /// interval).
    pub fn mean(&self, at: SimTime) -> f64 {
        let span = at.saturating_since(self.start).nanos();
        if span == 0 {
            return f64::from(u8::from(self.on));
        }
        self.busy_ns(at) as f64 / span as f64
    }
}

/// Exact sample quantile by sorting (nearest-rank with linear
/// interpolation); `None` on an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Batch-means confidence interval for a stream of observations.
///
/// Splits `xs` into `batches` equal batches, treats batch means as i.i.d.
/// samples, and returns `(mean, half_width)` for the requested two-sided
/// confidence level using Student-t critical values.
pub fn batch_means_ci(xs: &[f64], batches: usize, confidence: f64) -> Option<(f64, f64)> {
    if xs.is_empty() || batches < 2 || xs.len() < batches {
        return None;
    }
    let per = xs.len() / batches;
    let mut means = Welford::new();
    for b in 0..batches {
        let chunk = &xs[b * per..(b + 1) * per];
        let m: f64 = chunk.iter().sum::<f64>() / chunk.len() as f64;
        means.record(m);
    }
    let t = t_critical(batches - 1, confidence);
    let half = t * means.std_dev() / (batches as f64).sqrt();
    Some((means.mean(), half))
}

/// Two-sided Student-t critical value for `df` degrees of freedom.
///
/// Table-driven for the confidence levels used in the experiment harness
/// (90%, 95%, 99%), with the normal approximation beyond df = 30.
pub fn t_critical(df: usize, confidence: f64) -> f64 {
    const T95: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179,
        2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
    ];
    const T90: [f64; 30] = [
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782,
        1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711,
        1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
    ];
    const T99: [f64; 30] = [
        63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169, 3.106, 3.055,
        3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845, 2.831, 2.819, 2.807, 2.797,
        2.787, 2.779, 2.771, 2.763, 2.756, 2.750,
    ];
    let df = df.max(1);
    let (table, asymptote) = if confidence >= 0.985 {
        (&T99, 2.576)
    } else if confidence >= 0.925 {
        (&T95, 1.960)
    } else {
        (&T90, 1.645)
    };
    if df <= 30 {
        table[df - 1]
    } else {
        asymptote
    }
}

/// Summary of a set of response-time observations, in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Summarize a slice of durations.
    pub fn of_durations(xs: &[SimDuration]) -> Summary {
        let mut w = Welford::new();
        for &x in xs {
            w.record_duration(x);
        }
        Summary {
            count: w.count(),
            mean: w.mean(),
            std_dev: w.std_dev(),
            min: w.min().unwrap_or(0.0),
            max: w.max().unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive_moments() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.record(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic dataset is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), Some(2.0));
        assert_eq!(w.max(), Some(9.0));
    }

    #[test]
    fn welford_merge_equals_single_stream() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn empty_welford_is_harmless() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), None);
        let mut a = Welford::new();
        a.merge(&w);
        assert_eq!(a.count(), 0);
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..100 {
            h.record(i as f64 / 10.0); // 0.0 .. 9.9 uniformly
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        assert!(h.bins().iter().all(|&c| c == 10));
        let median = h.quantile(0.5).unwrap();
        assert!((median - 5.0).abs() < 0.5, "median {median}");
        assert_eq!(h.quantile(0.0).unwrap(), 0.0);
    }

    #[test]
    fn histogram_out_of_range() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-5.0);
        h.record(2.0);
        h.record(0.5);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn time_weighted_mean_of_step_signal() {
        // 0 for 10 s, then 4 for 30 s => mean 3.0 over 40 s.
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.set(SimTime(10_000_000_000), 4.0);
        let mean = tw.mean(SimTime(40_000_000_000));
        assert!((mean - 3.0).abs() < 1e-9, "mean {mean}");
        assert_eq!(tw.peak(), 4.0);
        assert_eq!(tw.current(), 4.0);
    }

    #[test]
    fn time_weighted_add_tracks_queue_length() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.add(SimTime(1_000_000_000), 1.0);
        tw.add(SimTime(2_000_000_000), 1.0);
        tw.add(SimTime(3_000_000_000), -2.0);
        assert_eq!(tw.current(), 0.0);
        assert_eq!(tw.peak(), 2.0);
        // Signal: 0 on [0,1), 1 on [1,2), 2 on [2,3), 0 on [3,4) => mean 0.75.
        let mean = tw.mean(SimTime(4_000_000_000));
        assert!((mean - 0.75).abs() < 1e-9, "mean {mean}");
    }

    /// Busy on `[100, 900)` and `[1200, 1500)`, with every interval cut at
    /// `cuts` by a repeated "on" or an off/on pair at one instant.
    fn two_busy_intervals(cuts: &[u64], pair: bool) -> BusyTime {
        let mut b = BusyTime::new(SimTime(50));
        for (from, to) in [(100, 900), (1200, 1500)] {
            b.set(SimTime(from), true);
            for &c in cuts.iter().filter(|&&c| from < c && c < to) {
                if pair {
                    b.set(SimTime(c), false);
                }
                b.set(SimTime(c), true);
            }
            b.set(SimTime(to), false);
        }
        b
    }

    #[test]
    fn busy_time_does_not_depend_on_how_the_intervals_are_cut() {
        let whole = two_busy_intervals(&[], false);
        assert_eq!(whole.busy_ns(SimTime(2000)), 800 + 300);
        let mut x = 0x9E37_79B9u64;
        for n in [1, 2, 7, 64, 500] {
            let mut cuts: Vec<u64> = (0..n)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    100 + (x >> 33) % 1400
                })
                .collect();
            cuts.sort_unstable();
            for pair in [false, true] {
                let cut = two_busy_intervals(&cuts, pair);
                assert_eq!(
                    cut.busy_ns(SimTime(2000)),
                    whole.busy_ns(SimTime(2000)),
                    "{n} cuts"
                );
                assert_eq!(
                    cut.mean(SimTime(2000)).to_bits(),
                    whole.mean(SimTime(2000)).to_bits()
                );
            }
        }
    }

    #[test]
    fn a_repeated_on_adds_nothing() {
        let mut b = BusyTime::new(SimTime::ZERO);
        b.set(SimTime(10), true);
        let before = b.busy_ns(SimTime(40));
        b.set(SimTime(25), true);
        b.set(SimTime(25), true);
        assert!(b.is_on());
        assert_eq!(b.busy_ns(SimTime(40)), before);
        assert_eq!(b.busy_ns(SimTime(40)), 30);
        // Turning off while off adds nothing either.
        b.set(SimTime(40), false);
        b.set(SimTime(60), false);
        assert_eq!(b.busy_ns(SimTime(80)), 30);
    }

    #[test]
    fn an_off_on_pair_at_one_instant_adds_nothing() {
        let mut b = BusyTime::new(SimTime::ZERO);
        b.set(SimTime(10), true);
        let before = b.busy_ns(SimTime(50));
        b.set(SimTime(30), false);
        b.set(SimTime(30), true);
        assert_eq!(b.busy_ns(SimTime(50)), before);
        // And an on/off pair while off adds nothing.
        b.set(SimTime(50), false);
        b.set(SimTime(60), true);
        b.set(SimTime(60), false);
        assert_eq!(b.busy_ns(SimTime(70)), 40);
    }

    #[test]
    fn a_zero_span_returns_the_current_bit() {
        let mut b = BusyTime::new(SimTime(7));
        assert_eq!(b.mean(SimTime(7)), 0.0);
        b.set(SimTime(7), true);
        assert_eq!(b.mean(SimTime(7)), 1.0);
        // A capture before the start is an empty interval too.
        assert_eq!(b.mean(SimTime(3)), 1.0);
    }

    #[test]
    fn the_mean_is_busy_time_over_the_span_exactly() {
        let mut b = BusyTime::new(SimTime(1_000));
        b.set(SimTime(1_003), true);
        b.set(SimTime(1_010), false);
        b.set(SimTime(1_011), true);
        for at in [1_001u64, 1_005, 1_010, 1_011, 1_013, 4_567, 1 << 40] {
            let span = at - 1_000;
            let busy = b.busy_ns(SimTime(at));
            assert_eq!(
                b.mean(SimTime(at)).to_bits(),
                (busy as f64 / span as f64).to_bits(),
                "at {at}"
            );
        }
        assert_eq!(b.busy_ns(SimTime(1_013)), 7 + 2);
        assert_eq!(b.mean(SimTime(1_030)), 26.0 / 30.0);
    }

    #[test]
    fn batch_means_ci_sane() {
        let xs: Vec<f64> = (0..1000).map(|i| 10.0 + ((i * 37) % 11) as f64).collect();
        let (mean, half) = batch_means_ci(&xs, 10, 0.95).unwrap();
        assert!(mean > 10.0 && mean < 21.0);
        assert!((0.0..5.0).contains(&half));
        assert!(batch_means_ci(&[], 10, 0.95).is_none());
        assert!(batch_means_ci(&[1.0], 2, 0.95).is_none());
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 1.0), Some(4.0));
        assert_eq!(percentile(&xs, 0.5), Some(2.5));
        assert_eq!(percentile(&xs, 1.0 / 3.0), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
    }

    #[test]
    fn t_critical_spot_checks() {
        assert!((t_critical(1, 0.95) - 12.706).abs() < 1e-9);
        assert!((t_critical(9, 0.95) - 2.262).abs() < 1e-9);
        assert!((t_critical(100, 0.95) - 1.960).abs() < 1e-9);
        assert!((t_critical(5, 0.90) - 2.015).abs() < 1e-9);
        assert!((t_critical(5, 0.99) - 4.032).abs() < 1e-9);
    }

    #[test]
    fn summary_of_durations() {
        let xs = [
            SimDuration::from_secs(1),
            SimDuration::from_secs(2),
            SimDuration::from_secs(3),
        ];
        let s = Summary::of_durations(&xs);
        assert_eq!(s.count, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.min - 1.0).abs() < 1e-12);
        assert!((s.max - 3.0).abs() < 1e-12);
    }
}
