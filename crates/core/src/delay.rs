//! Delay bounds (paper §2.2–§2.3).
//!
//! An RMS guarantees an upper bound on message delay of the form
//! `A + B·(message size)`, where the bound is *deterministic* (hard,
//! resource-reserved), *statistical* (holds with a stated probability given
//! a workload description), or *best-effort* (used only to schedule by
//! deadline; creation never rejected).

use dash_sim::time::SimDuration;

/// Statistical workload / guarantee description for a statistical bound
/// (§2.3). The paper leaves the exact parameterization open (§5); we use an
/// average offered load plus a burstiness factor, and the provider-side
/// probability that the delay bound holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatisticalSpec {
    /// Client-supplied average offered load, bytes per second.
    pub average_load: f64,
    /// Client-supplied burstiness: ratio of peak to average rate (≥ 1).
    pub burstiness: f64,
    /// Provider-guaranteed probability that the delay bound is met, in
    /// `[0, 1]`.
    pub delay_probability: f64,
}

impl StatisticalSpec {
    /// A well-formed spec.
    ///
    /// # Panics
    ///
    /// Panics if `average_load < 0`, `burstiness < 1`, or
    /// `delay_probability ∉ [0, 1]`.
    pub fn new(average_load: f64, burstiness: f64, delay_probability: f64) -> Self {
        assert!(average_load >= 0.0, "negative average load");
        assert!(burstiness >= 1.0, "burstiness must be ≥ 1");
        assert!(
            (0.0..=1.0).contains(&delay_probability),
            "delay probability must be in [0,1]"
        );
        StatisticalSpec {
            average_load,
            burstiness,
            delay_probability,
        }
    }
}

/// The type of a delay bound (§2.3), ordered by strength.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayBoundKind {
    /// Never rejected; the bound only drives deadline scheduling.
    BestEffort,
    /// Holds with `spec.delay_probability`; creation may be rejected.
    Statistical(StatisticalSpec),
    /// Hard bound backed by resource reservation; only an RMS failure can
    /// violate it.
    Deterministic,
}

impl DelayBoundKind {
    /// Strength rank: best-effort < statistical < deterministic.
    pub fn strength(&self) -> u8 {
        match self {
            DelayBoundKind::BestEffort => 0,
            DelayBoundKind::Statistical(_) => 1,
            DelayBoundKind::Deterministic => 2,
        }
    }

    /// True iff a bound of this kind satisfies a request for `requested`
    /// (§2.4 rule 3, extended to kinds: a stronger kind satisfies a weaker
    /// request; among statistical kinds the guaranteed probability must be
    /// at least the requested one).
    pub fn satisfies(&self, requested: &DelayBoundKind) -> bool {
        match (self, requested) {
            (DelayBoundKind::Statistical(actual), DelayBoundKind::Statistical(req)) => {
                actual.delay_probability >= req.delay_probability
            }
            _ => self.strength() >= requested.strength(),
        }
    }
}

/// A complete delay bound: `A + B·size` with a [`DelayBoundKind`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayBound {
    /// The fixed component `A`.
    pub fixed: SimDuration,
    /// The per-byte component `B`.
    pub per_byte: SimDuration,
    /// Deterministic, statistical, or best-effort.
    pub kind: DelayBoundKind,
}

impl DelayBound {
    /// A deterministic bound `A + B·size`.
    pub fn deterministic(fixed: SimDuration, per_byte: SimDuration) -> Self {
        DelayBound {
            fixed,
            per_byte,
            kind: DelayBoundKind::Deterministic,
        }
    }

    /// A statistical bound with the given workload/guarantee description.
    pub fn statistical(fixed: SimDuration, per_byte: SimDuration, spec: StatisticalSpec) -> Self {
        DelayBound {
            fixed,
            per_byte,
            kind: DelayBoundKind::Statistical(spec),
        }
    }

    /// A best-effort bound; `fixed`/`per_byte` still drive deadline
    /// scheduling (§4.1).
    pub fn best_effort_with(fixed: SimDuration, per_byte: SimDuration) -> Self {
        DelayBound {
            fixed,
            per_byte,
            kind: DelayBoundKind::BestEffort,
        }
    }

    /// A best-effort bound with a generous default deadline (1 second fixed
    /// plus 10 µs/byte), for clients that do not care. The per-byte
    /// component is deliberately lenient: request bounds are *ceilings*
    /// providers must undercut, so a zero per-byte floor would demand
    /// instantaneous serialization.
    pub fn best_effort() -> Self {
        DelayBound::best_effort_with(SimDuration::from_secs(1), SimDuration::from_micros(10))
    }

    /// The bound for a message of `size` bytes: `A + B·size`, saturating.
    pub fn bound_for(&self, size: u64) -> SimDuration {
        self.fixed
            .saturating_add(self.per_byte.saturating_mul(size))
    }

    /// True iff this bound satisfies a request for `requested`: `A` and `B`
    /// no greater, and the kind at least as strong (§2.4 rule 3).
    pub fn satisfies(&self, requested: &DelayBound) -> bool {
        self.fixed <= requested.fixed
            && self.per_byte <= requested.per_byte
            && self.kind.satisfies(&requested.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn bound_for_is_affine() {
        let d = DelayBound::deterministic(ms(10), SimDuration::from_nanos(1_000));
        assert_eq!(d.bound_for(0), ms(10));
        assert_eq!(d.bound_for(1_000_000), ms(10) + SimDuration::from_secs(1));
    }

    #[test]
    fn kind_strength_order() {
        let stat = DelayBoundKind::Statistical(StatisticalSpec::new(1e6, 2.0, 0.99));
        assert!(DelayBoundKind::Deterministic.strength() > stat.strength());
        assert!(stat.strength() > DelayBoundKind::BestEffort.strength());
    }

    #[test]
    fn deterministic_satisfies_all_kinds() {
        let det = DelayBoundKind::Deterministic;
        let stat = DelayBoundKind::Statistical(StatisticalSpec::new(1e6, 2.0, 0.99));
        let be = DelayBoundKind::BestEffort;
        assert!(det.satisfies(&det));
        assert!(det.satisfies(&stat));
        assert!(det.satisfies(&be));
        assert!(!be.satisfies(&stat));
        assert!(!stat.satisfies(&det));
    }

    #[test]
    fn statistical_probability_must_cover_request() {
        let strong = DelayBoundKind::Statistical(StatisticalSpec::new(1e6, 2.0, 0.999));
        let weak = DelayBoundKind::Statistical(StatisticalSpec::new(1e6, 2.0, 0.9));
        assert!(strong.satisfies(&weak));
        assert!(!weak.satisfies(&strong));
    }

    #[test]
    fn bound_satisfaction_is_pointwise() {
        let tight = DelayBound::deterministic(ms(5), SimDuration::from_nanos(10));
        let loose = DelayBound::deterministic(ms(10), SimDuration::from_nanos(100));
        assert!(tight.satisfies(&loose));
        assert!(!loose.satisfies(&tight));
        // Mixed: smaller A but bigger B does not satisfy.
        let mixed = DelayBound::deterministic(ms(1), SimDuration::from_nanos(200));
        assert!(!mixed.satisfies(&loose));
    }

    #[test]
    #[should_panic(expected = "burstiness")]
    fn statistical_spec_validates() {
        let _ = StatisticalSpec::new(1e6, 0.5, 0.99);
    }
}
