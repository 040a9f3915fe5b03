//! Measurement primitives used by the experiment harness.
//!
//! Everything here is plain data: counters, online moments, sample
//! reservoirs with quantiles, and rate meters over simulated time.

use crate::time::SimTime;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Increment by one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Online mean/variance/min/max (Welford's algorithm), O(1) memory.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// New, empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum observation (0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// A full-sample reservoir with exact quantiles. Suitable for the volumes a
/// simulation run produces (≤ millions of samples).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// New, empty histogram.
    pub fn new() -> Self {
        Histogram {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Exact quantile `q ∈ [0, 1]` by nearest-rank (0 if empty).
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.samples.len() as f64 - 1.0) * q).round() as usize;
        self.samples[idx]
    }

    /// Median, shorthand for `quantile(0.5)`.
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Maximum observation (0 if empty).
    pub fn max(&mut self) -> f64 {
        self.quantile(1.0)
    }

    /// The raw samples, in their current internal order (record order
    /// until the first quantile query sorts them in place).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Append every sample of `other`, in `other`'s current order.
    ///
    /// Used by the parallel executor's deterministic registry merge:
    /// shard-local histograms concatenate in canonical shard order, so
    /// the merged sample vector — and every statistic derived from it —
    /// is a pure function of the run, not of thread scheduling.
    pub fn merge_from(&mut self, other: &Histogram) {
        if other.samples.is_empty() {
            return;
        }
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Fraction of samples strictly greater than `threshold`.
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let n = self.samples.iter().filter(|&&x| x > threshold).count();
        n as f64 / self.samples.len() as f64
    }
}

/// Measures an event rate (per simulated second) and byte throughput.
#[derive(Debug, Clone)]
pub struct RateMeter {
    start: SimTime,
    events: u64,
    bytes: u64,
}

impl RateMeter {
    /// Start measuring at `start`.
    pub fn new(start: SimTime) -> Self {
        RateMeter {
            start,
            events: 0,
            bytes: 0,
        }
    }

    /// Record one event carrying `bytes` of payload.
    pub fn record(&mut self, bytes: u64) {
        self.events += 1;
        self.bytes += bytes;
    }

    /// Total events recorded.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Total bytes recorded.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Events per simulated second at time `now` (0 if no time elapsed).
    pub fn event_rate(&self, now: SimTime) -> f64 {
        let dt = now.saturating_since(self.start).as_secs_f64();
        if dt <= 0.0 {
            0.0
        } else {
            self.events as f64 / dt
        }
    }

    /// Bytes per simulated second at time `now` (0 if no time elapsed).
    pub fn byte_rate(&self, now: SimTime) -> f64 {
        let dt = now.saturating_since(self.start).as_secs_f64();
        if dt <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / dt
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn online_stats_moments() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for x in 1..=100 {
            h.record(x as f64);
        }
        assert_eq!(h.count(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-12);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.max(), 100.0);
        assert!((h.median() - 50.0).abs() <= 1.0);
        assert!((h.quantile(0.9) - 90.0).abs() <= 1.0);
    }

    #[test]
    fn histogram_fraction_above() {
        let mut h = Histogram::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            h.record(x);
        }
        assert_eq!(h.fraction_above(2.0), 0.5);
        assert_eq!(h.fraction_above(10.0), 0.0);
        assert_eq!(Histogram::new().fraction_above(0.0), 0.0);
    }

    #[test]
    fn histogram_interleaved_record_and_quantile() {
        let mut h = Histogram::new();
        h.record(5.0);
        assert_eq!(h.median(), 5.0);
        h.record(1.0);
        h.record(9.0);
        assert_eq!(h.median(), 5.0);
        assert_eq!(h.quantile(1.0), 9.0);
    }

    #[test]
    fn rate_meter_rates() {
        let t0 = SimTime::ZERO;
        let mut m = RateMeter::new(t0);
        m.record(1000);
        m.record(1000);
        let now = t0 + SimDuration::from_secs(2);
        assert_eq!(m.events(), 2);
        assert_eq!(m.bytes(), 2000);
        assert!((m.event_rate(now) - 1.0).abs() < 1e-12);
        assert!((m.byte_rate(now) - 1000.0).abs() < 1e-12);
        assert_eq!(m.event_rate(t0), 0.0);
    }
}
