//! Measurement primitives used by the experiment harness.
//!
//! Everything here is plain data: counters and sample reservoirs with
//! quantiles.

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
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
    fn histogram_interleaved_record_and_quantile() {
        let mut h = Histogram::new();
        h.record(5.0);
        assert_eq!(h.median(), 5.0);
        h.record(1.0);
        h.record(9.0);
        assert_eq!(h.median(), 5.0);
        assert_eq!(h.quantile(1.0), 9.0);
    }
}
