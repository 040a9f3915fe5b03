//! Parameter compatibility and creation-time negotiation (paper §2.4).
//!
//! "A set of actual RMS parameters is said to be *compatible* with a set of
//! request parameters if (1) the actual reliability and security properties
//! include those requested; (2) the actual capacity and maximum message size
//! parameters are no less than those requested; and (3) the actual delay
//! bound and error rate parameters are no greater than those requested."
//!
//! A creation request carries a *desired* and an *acceptable* parameter set;
//! the actual parameters must be compatible with the acceptable set, and the
//! provider matches the desired set as closely as possible.

use std::fmt;

use dash_sim::time::SimDuration;

use crate::delay::{DelayBound, DelayBoundKind};
use crate::params::{BitErrorRate, ParamError, Reliability, RmsParams, SecurityParams};

/// True iff `actual` is compatible with `requested` per §2.4.
pub fn is_compatible(actual: &RmsParams, requested: &RmsParams) -> bool {
    actual.reliability.includes(requested.reliability)
        && actual.security.includes(requested.security)
        && actual.capacity >= requested.capacity
        && actual.max_message_size >= requested.max_message_size
        && actual.delay.satisfies(&requested.delay)
        && actual.error_rate <= requested.error_rate
}

/// An RMS creation request: desired and acceptable parameter sets (§2.4).
#[derive(Debug, Clone, PartialEq)]
pub struct RmsRequest {
    /// What the client would ideally get.
    pub desired: RmsParams,
    /// The weakest parameters the client will accept. The result is
    /// guaranteed compatible with this set.
    pub acceptable: RmsParams,
}

impl RmsRequest {
    /// A request whose desired and acceptable sets are identical: "give me
    /// exactly this or reject".
    pub fn exact(params: RmsParams) -> Self {
        RmsRequest {
            desired: params.clone(),
            acceptable: params,
        }
    }

    /// Construct and sanity-check a request.
    ///
    /// # Errors
    ///
    /// Returns [`RequestError::Invalid`] if either set fails
    /// [`RmsParams::validate`], or [`RequestError::DesiredWeakerThanAcceptable`]
    /// if the desired set is not itself compatible with the acceptable set
    /// (the desired parameters must be at least as strong as the floor the
    /// client will accept).
    pub fn new(desired: RmsParams, acceptable: RmsParams) -> Result<Self, RequestError> {
        desired.validate().map_err(RequestError::Invalid)?;
        acceptable.validate().map_err(RequestError::Invalid)?;
        if !is_compatible(&desired, &acceptable) {
            return Err(RequestError::DesiredWeakerThanAcceptable);
        }
        Ok(RmsRequest {
            desired,
            acceptable,
        })
    }
}

/// Why an [`RmsRequest`] could not be constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// One of the parameter sets violates its own invariants.
    Invalid(ParamError),
    /// The desired set is weaker than the acceptable floor.
    DesiredWeakerThanAcceptable,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Invalid(e) => write!(f, "invalid parameter set: {e}"),
            RequestError::DesiredWeakerThanAcceptable => {
                write!(
                    f,
                    "desired parameters are not compatible with the acceptable floor"
                )
            }
        }
    }
}

impl std::error::Error for RequestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RequestError::Invalid(e) => Some(e),
            RequestError::DesiredWeakerThanAcceptable => None,
        }
    }
}

/// Performance limits a provider can offer for one (reliability, security)
/// combination (paper §3.1: "for each combination of security and
/// reliability parameters, the limits of the network's performance
/// parameters for that combination").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfLimits {
    /// Smallest achievable fixed delay component `A`.
    pub min_fixed_delay: SimDuration,
    /// Smallest achievable per-byte delay component `B`.
    pub min_per_byte_delay: SimDuration,
    /// Largest supported capacity, bytes.
    pub max_capacity: u64,
    /// Largest supported message size, bytes.
    pub max_message_size: u64,
    /// Smallest achievable bit error rate.
    pub min_error_rate: BitErrorRate,
    /// Strongest supported delay-bound kind (by
    /// [`DelayBoundKind::strength`] rank).
    pub max_kind_strength: u8,
}

impl PerfLimits {
    /// True iff parameters within these limits could satisfy `floor` (the
    /// acceptable set of a request) for this combination.
    pub fn can_satisfy(&self, floor: &RmsParams) -> bool {
        self.min_fixed_delay <= floor.delay.fixed
            && self.min_per_byte_delay <= floor.delay.per_byte
            && self.max_capacity >= floor.capacity
            && self.max_message_size >= floor.max_message_size
            && self.min_error_rate <= floor.error_rate
            && self.max_kind_strength >= floor.delay.kind.strength()
    }
}

/// A provider's offer table: what it can do for each reliability × security
/// combination. Unsupported combinations are simply absent ("this may be
/// zero if the combination cannot be directly supported", §3.1).
///
/// One fixed slot per combination, so building, reading and combining a
/// table allocate nothing. Iteration follows the slot order — security in
/// [`SecurityParams::all`] order, unreliable before reliable within each —
/// whatever order the combinations were declared in; it is the order
/// [`negotiate`] breaks closeness ties by.
#[derive(Debug, Clone, Default)]
pub struct ServiceTable {
    slots: [Option<PerfLimits>; 8],
}

/// The combination each [`ServiceTable`] slot holds, in slot order.
const COMBINATIONS: [(Reliability, SecurityParams); 8] = {
    let sec = SecurityParams::all();
    let (u, r) = (Reliability::Unreliable, Reliability::Reliable);
    [
        (u, sec[0]),
        (r, sec[0]),
        (u, sec[1]),
        (r, sec[1]),
        (u, sec[2]),
        (r, sec[2]),
        (u, sec[3]),
        (r, sec[3]),
    ]
};

/// The slot of a combination: the inverse of [`COMBINATIONS`].
fn slot(reliability: Reliability, security: SecurityParams) -> usize {
    let sec = security.authentication as usize + 2 * security.privacy as usize;
    2 * sec + reliability as usize
}

impl ServiceTable {
    /// An empty table (supports nothing).
    pub fn new() -> Self {
        ServiceTable::default()
    }

    /// Declare support for a combination. Declaring a combination again
    /// replaces its limits.
    pub fn support(
        &mut self,
        reliability: Reliability,
        security: SecurityParams,
        limits: PerfLimits,
    ) -> &mut Self {
        self.slots[slot(reliability, security)] = Some(limits);
        self
    }

    /// Limits for an exact combination, if supported.
    pub fn limits(
        &self,
        reliability: Reliability,
        security: SecurityParams,
    ) -> Option<&PerfLimits> {
        self.slots[slot(reliability, security)].as_ref()
    }

    /// Iterate over all supported combinations, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Reliability, SecurityParams, &PerfLimits)> {
        (COMBINATIONS.iter().zip(&self.slots))
            .filter_map(|(&(rel, sec), limits)| Some((rel, sec, limits.as_ref()?)))
    }

    /// Let `keep` adjust each supported combination's limits in place, and
    /// withdraw the combinations it returns `false` for.
    pub fn retain_mut(
        &mut self,
        mut keep: impl FnMut(Reliability, SecurityParams, &mut PerfLimits) -> bool,
    ) {
        for (&(rel, sec), entry) in COMBINATIONS.iter().zip(&mut self.slots) {
            if entry.as_mut().is_some_and(|limits| !keep(rel, sec, limits)) {
                *entry = None;
            }
        }
    }
}

/// Why negotiation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NegotiationError {
    /// No supported (reliability, security) combination includes the
    /// acceptable set's required properties.
    UnsupportedCombination,
    /// A combination exists but its performance limits cannot reach the
    /// acceptable floor.
    PerformanceUnreachable,
}

impl fmt::Display for NegotiationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NegotiationError::UnsupportedCombination => {
                write!(
                    f,
                    "no supported reliability/security combination covers the request"
                )
            }
            NegotiationError::PerformanceUnreachable => {
                write!(
                    f,
                    "supported combinations cannot reach the acceptable performance floor"
                )
            }
        }
    }
}

impl std::error::Error for NegotiationError {}

/// Negotiate actual parameters for `request` against a provider's
/// [`ServiceTable`] (§2.4: "The actual parameters ... must be compatible
/// with the request's acceptable parameters. ... The RMS provider tries to
/// match the desired parameters as closely as possible.").
///
/// The provider picks, among supported combinations whose properties include
/// the acceptable floor and whose limits can reach it, the combination
/// closest to the desired one (exact match first, then the fewest extra
/// properties). Numeric parameters are then set to the desired values
/// clamped into the combination's limits.
///
/// # Errors
///
/// [`NegotiationError`] if no combination works.
pub fn negotiate(
    table: &ServiceTable,
    request: &RmsRequest,
) -> Result<RmsParams, NegotiationError> {
    let floor = &request.acceptable;
    let want = &request.desired;

    // The first combination with the lowest closeness score wins.
    let mut best: Option<(u32, RmsParams)> = None;
    let mut saw_combination = false;
    for (rel, sec, limits) in table.iter() {
        if !(rel.includes(floor.reliability) && sec.includes(floor.security)) {
            continue;
        }
        saw_combination = true;
        if !limits.can_satisfy(floor) {
            continue;
        }

        // Clamp desired numerics into this combination's limits, then onto
        // the acceptable floor where the desire overshoots what is allowed.
        let capacity = want.capacity.min(limits.max_capacity).max(floor.capacity);
        let max_message_size = want
            .max_message_size
            .min(limits.max_message_size)
            .min(capacity)
            .max(floor.max_message_size);
        let fixed = want.delay.fixed.max(limits.min_fixed_delay);
        let per_byte = want.delay.per_byte.max(limits.min_per_byte_delay);
        let kind = if want.delay.kind.strength() <= limits.max_kind_strength {
            want.delay.kind
        } else if floor.delay.kind.strength() <= limits.max_kind_strength {
            // Degrade to the strongest supported kind that still covers the
            // floor; statistical specs carry the desired description.
            match (limits.max_kind_strength, &want.delay.kind) {
                (1, DelayBoundKind::Deterministic) => {
                    DelayBoundKind::Statistical(crate::delay::StatisticalSpec::new(0.0, 1.0, 1.0))
                }
                (0, _) => DelayBoundKind::BestEffort,
                (_, k) => *k,
            }
        } else {
            continue;
        };
        let error_rate = if want.error_rate >= limits.min_error_rate {
            want.error_rate
        } else {
            limits.min_error_rate
        };

        let actual = RmsParams {
            reliability: rel,
            security: sec,
            capacity,
            max_message_size,
            delay: DelayBound {
                fixed,
                per_byte,
                kind,
            },
            error_rate,
        };
        if actual.validate().is_err() || !is_compatible(&actual, floor) {
            continue;
        }

        // Closeness score: prefer the exact desired combination, then the
        // fewest gratuitous extra properties (each costs provider work).
        let extra = u32::from(rel != want.reliability)
            + u32::from(sec.authentication != want.security.authentication)
            + u32::from(sec.privacy != want.security.privacy);
        if best.as_ref().is_none_or(|(score, _)| extra < *score) {
            best = Some((extra, actual));
        }
    }

    best.map(|(_, p)| p).ok_or(if saw_combination {
        NegotiationError::PerformanceUnreachable
    } else {
        NegotiationError::UnsupportedCombination
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::DelayBound;
    use dash_sim::SimDuration;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    fn base_params() -> RmsParams {
        RmsParams::builder(10_000, 1_000)
            .delay(DelayBound::best_effort_with(ms(100), SimDuration::ZERO))
            .error_rate(BitErrorRate::new(1e-3).unwrap())
            .build()
            .unwrap()
    }

    fn generous_limits() -> PerfLimits {
        PerfLimits {
            min_fixed_delay: ms(1),
            min_per_byte_delay: SimDuration::ZERO,
            max_capacity: 1 << 20,
            max_message_size: 64 * 1024,
            min_error_rate: BitErrorRate::new(1e-9).unwrap(),
            max_kind_strength: 2,
        }
    }

    #[test]
    fn identical_params_are_compatible() {
        let p = base_params();
        assert!(is_compatible(&p, &p));
    }

    #[test]
    fn stronger_params_are_compatible_weaker_are_not() {
        let req = base_params();
        let mut strong = req.clone();
        strong.reliability = Reliability::Reliable;
        strong.security = SecurityParams::FULL;
        strong.capacity *= 2;
        strong.delay.fixed = ms(50);
        strong.error_rate = BitErrorRate::ZERO;
        assert!(is_compatible(&strong, &req));
        assert!(!is_compatible(&req, &strong));
    }

    #[test]
    fn smaller_capacity_is_incompatible() {
        let req = base_params();
        let mut actual = req.clone();
        actual.capacity = req.capacity - 1;
        assert!(!is_compatible(&actual, &req));
    }

    #[test]
    fn request_validates_desired_vs_acceptable() {
        let acceptable = base_params();
        let mut desired = acceptable.clone();
        desired.delay.fixed = ms(10); // stronger — fine
        assert!(RmsRequest::new(desired, acceptable.clone()).is_ok());

        let mut weak_desired = acceptable.clone();
        weak_desired.delay.fixed = ms(200); // weaker than floor — invalid
        assert_eq!(
            RmsRequest::new(weak_desired, acceptable).unwrap_err(),
            RequestError::DesiredWeakerThanAcceptable
        );
    }

    #[test]
    fn negotiate_exact_combination() {
        let mut table = ServiceTable::new();
        table.support(
            Reliability::Unreliable,
            SecurityParams::NONE,
            generous_limits(),
        );
        let req = RmsRequest::exact(base_params());
        let actual = negotiate(&table, &req).unwrap();
        assert!(is_compatible(&actual, &req.acceptable));
        assert_eq!(actual.capacity, 10_000);
        assert_eq!(actual.reliability, Reliability::Unreliable);
    }

    #[test]
    fn negotiate_rejects_unsupported_security() {
        let mut table = ServiceTable::new();
        table.support(
            Reliability::Unreliable,
            SecurityParams::NONE,
            generous_limits(),
        );
        let mut p = base_params();
        p.security = SecurityParams::FULL;
        let req = RmsRequest::exact(p);
        assert_eq!(
            negotiate(&table, &req).unwrap_err(),
            NegotiationError::UnsupportedCombination
        );
    }

    #[test]
    fn negotiate_rejects_unreachable_performance() {
        let mut table = ServiceTable::new();
        let mut limits = generous_limits();
        limits.min_fixed_delay = ms(500); // cannot reach the 100ms floor
        table.support(Reliability::Unreliable, SecurityParams::NONE, limits);
        let req = RmsRequest::exact(base_params());
        assert_eq!(
            negotiate(&table, &req).unwrap_err(),
            NegotiationError::PerformanceUnreachable
        );
    }

    #[test]
    fn negotiate_prefers_exact_combination_over_extra_security() {
        let mut table = ServiceTable::new();
        table.support(
            Reliability::Unreliable,
            SecurityParams::NONE,
            generous_limits(),
        );
        table.support(
            Reliability::Unreliable,
            SecurityParams::FULL,
            generous_limits(),
        );
        let req = RmsRequest::exact(base_params());
        let actual = negotiate(&table, &req).unwrap();
        assert_eq!(actual.security, SecurityParams::NONE);
    }

    #[test]
    fn negotiate_escalates_when_exact_combination_missing() {
        // Provider only offers a fully secure service; an insecure request
        // still succeeds because FULL includes NONE.
        let mut table = ServiceTable::new();
        table.support(
            Reliability::Unreliable,
            SecurityParams::FULL,
            generous_limits(),
        );
        let req = RmsRequest::exact(base_params());
        let actual = negotiate(&table, &req).unwrap();
        assert_eq!(actual.security, SecurityParams::FULL);
        assert!(is_compatible(&actual, &req.acceptable));
    }

    #[test]
    fn negotiate_clamps_desired_delay_to_provider_floor() {
        let mut table = ServiceTable::new();
        let mut limits = generous_limits();
        limits.min_fixed_delay = ms(20);
        table.support(Reliability::Unreliable, SecurityParams::NONE, limits);

        let acceptable = base_params(); // 100ms floor
        let mut desired = acceptable.clone();
        desired.delay.fixed = ms(5); // more than provider can do
        let req = RmsRequest::new(desired, acceptable).unwrap();
        let actual = negotiate(&table, &req).unwrap();
        assert_eq!(actual.delay.fixed, ms(20));
    }

    #[test]
    fn service_table_replaces_duplicates() {
        let mut table = ServiceTable::new();
        let mut l = generous_limits();
        table.support(Reliability::Reliable, SecurityParams::NONE, l);
        l.max_capacity = 5;
        table.support(Reliability::Reliable, SecurityParams::NONE, l);
        assert_eq!(
            table
                .limits(Reliability::Reliable, SecurityParams::NONE)
                .unwrap()
                .max_capacity,
            5
        );
        assert_eq!(table.iter().count(), 1);
    }

    #[test]
    fn service_table_iterates_in_slot_order_and_retains_in_place() {
        let mut table = ServiceTable::new();
        for sec in SecurityParams::all().into_iter().rev() {
            table.support(Reliability::Reliable, sec, generous_limits());
            table.support(Reliability::Unreliable, sec, generous_limits());
        }
        let order: Vec<_> = table.iter().map(|(r, s, _)| (r, s)).collect();
        assert_eq!(order, COMBINATIONS);
        table.retain_mut(|rel, _, limits| {
            limits.max_capacity = 7;
            rel == Reliability::Reliable
        });
        assert_eq!(table.iter().count(), 4);
        assert!(table
            .iter()
            .all(|(r, _, l)| r == Reliability::Reliable && l.max_capacity == 7));
    }
}
