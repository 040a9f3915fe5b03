//! RMS parameter types (paper §2.1–§2.2).
//!
//! An RMS carries Boolean reliability/security parameters and numeric
//! performance parameters. Booleans are represented as two-variant enums so
//! call sites read as `Reliability::Reliable` rather than bare `true`
//! (C-CUSTOM-TYPE).

use std::fmt;

use crate::delay::DelayBound;

/// Whether every sent message is delivered unless the RMS fails (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Reliability {
    /// Messages may be lost (the provider still preserves order).
    #[default]
    Unreliable,
    /// All messages sent are delivered, unless the RMS fails.
    Reliable,
}

impl Reliability {
    /// True iff this level satisfies a request for `requested` (§2.4 rule 1:
    /// "the actual reliability and security properties include those
    /// requested").
    pub fn includes(self, requested: Reliability) -> bool {
        self >= requested
    }
}

/// Whether impersonation (incorrect source label) is impossible (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Authentication {
    /// Source labels are not verified.
    #[default]
    Unauthenticated,
    /// Delivery of a message with an incorrect source label is impossible.
    Authenticated,
}

impl Authentication {
    /// True iff this level satisfies a request for `requested`.
    pub fn includes(self, requested: Authentication) -> bool {
        self >= requested
    }
}

/// Whether eavesdropping by a third party is impossible (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Privacy {
    /// Message contents may be observed in transit.
    #[default]
    Open,
    /// Only the host/process named by the target label can read the data.
    Private,
}

impl Privacy {
    /// True iff this level satisfies a request for `requested`.
    pub fn includes(self, requested: Privacy) -> bool {
        self >= requested
    }
}

/// The security half of the Boolean parameters: authentication + privacy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SecurityParams {
    /// Impersonation protection.
    pub authentication: Authentication,
    /// Eavesdropping protection.
    pub privacy: Privacy,
}

impl SecurityParams {
    /// Neither authentication nor privacy.
    pub const NONE: SecurityParams = SecurityParams {
        authentication: Authentication::Unauthenticated,
        privacy: Privacy::Open,
    };
    /// Both authentication and privacy.
    pub const FULL: SecurityParams = SecurityParams {
        authentication: Authentication::Authenticated,
        privacy: Privacy::Private,
    };

    /// True iff every property of `requested` is also provided by `self`.
    pub fn includes(self, requested: SecurityParams) -> bool {
        self.authentication.includes(requested.authentication)
            && self.privacy.includes(requested.privacy)
    }

    /// All four combinations, weakest first.
    pub const fn all() -> [SecurityParams; 4] {
        [
            SecurityParams::NONE,
            SecurityParams {
                authentication: Authentication::Authenticated,
                privacy: Privacy::Open,
            },
            SecurityParams {
                authentication: Authentication::Unauthenticated,
                privacy: Privacy::Private,
            },
            SecurityParams::FULL,
        ]
    }
}

/// Average bit error rate guaranteed by the provider (§2.2): the combined
/// effect of the transmission medium, checksumming effectiveness, and
/// expected buffer-overrun loss. A probability in `[0, 1]` per bit.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct BitErrorRate(f64);

impl BitErrorRate {
    /// A perfect, error-free channel.
    pub const ZERO: BitErrorRate = BitErrorRate(0.0);

    /// Construct from a per-bit error probability.
    ///
    /// # Errors
    ///
    /// Returns `None` unless `rate` is finite and within `[0, 1]`.
    pub fn new(rate: f64) -> Option<BitErrorRate> {
        if rate.is_finite() && (0.0..=1.0).contains(&rate) {
            Some(BitErrorRate(rate))
        } else {
            None
        }
    }

    /// The per-bit error probability.
    pub fn rate(self) -> f64 {
        self.0
    }

    /// Probability that a message of `bytes` bytes arrives with at least one
    /// bit error: `1 - (1 - ber)^(8·bytes)`.
    pub fn message_error_probability(self, bytes: u64) -> f64 {
        let bits = (bytes as f64) * 8.0;
        1.0 - (1.0 - self.0).powf(bits)
    }
}

impl Default for BitErrorRate {
    fn default() -> Self {
        BitErrorRate::ZERO
    }
}

impl fmt::Display for BitErrorRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2e}", self.0)
    }
}

/// Validation failure for a parameter set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamError {
    /// `max_message_size` exceeds `capacity`, violating §2.2: "This limit
    /// cannot be greater than the RMS capacity."
    MessageSizeExceedsCapacity {
        /// The offending maximum message size.
        max_message_size: u64,
        /// The stream capacity it exceeds.
        capacity: u64,
    },
    /// Capacity of zero would forbid sending anything.
    ZeroCapacity,
    /// Maximum message size of zero would forbid sending anything.
    ZeroMessageSize,
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::MessageSizeExceedsCapacity {
                max_message_size,
                capacity,
            } => write!(
                f,
                "maximum message size {max_message_size} exceeds capacity {capacity}"
            ),
            ParamError::ZeroCapacity => write!(f, "capacity must be positive"),
            ParamError::ZeroMessageSize => write!(f, "maximum message size must be positive"),
        }
    }
}

impl std::error::Error for ParamError {}

/// The complete parameter set of an RMS (§2.1–§2.3).
///
/// This is a passive, compound value in the C-struct spirit: fields are
/// public, and providers call [`RmsParams::validate`] before honouring a
/// set. Construct via [`RmsParams::builder`] for validated construction.
#[derive(Debug, Clone, PartialEq)]
pub struct RmsParams {
    /// Delivery guarantee.
    pub reliability: Reliability,
    /// Authentication + privacy guarantees.
    pub security: SecurityParams,
    /// Upper bound, in bytes, on data outstanding within the RMS (sent but
    /// not yet delivered). Enforced by the *clients*, not the provider
    /// (§2.2, §4.4).
    pub capacity: u64,
    /// Upper bound, in bytes, on individual message size; enforced by the
    /// sender. Never exceeds `capacity`.
    pub max_message_size: u64,
    /// Delay bound `A + B·size` plus its type (§2.2–§2.3).
    pub delay: DelayBound,
    /// Average bit error rate guaranteed by the provider.
    pub error_rate: BitErrorRate,
}

/// Shared, immutable handle to a negotiated parameter set.
///
/// Parameters are fixed at RMS creation time and consulted on every packet
/// thereafter; storing one shared allocation in endpoint state, hop
/// reservations, and control packets makes the per-packet `clone()` a
/// reference-count bump instead of a struct copy.
pub type SharedParams = std::sync::Arc<RmsParams>;

impl RmsParams {
    /// Wrap this parameter set in a [`SharedParams`] handle.
    pub fn shared(self) -> SharedParams {
        SharedParams::new(self)
    }

    /// Start building a parameter set with the given capacity and maximum
    /// message size.
    ///
    /// Defaults are *request-friendly*: unreliable, no security, a
    /// best-effort 1-second delay bound, and a lenient `1e-4` error-rate
    /// floor (a zero floor would be unsatisfiable on any lossy medium,
    /// since the error rate is a parameter the provider must guarantee to
    /// be *no greater* than requested).
    pub fn builder(capacity: u64, max_message_size: u64) -> RmsParamsBuilder {
        RmsParamsBuilder {
            params: RmsParams {
                reliability: Reliability::Unreliable,
                security: SecurityParams::NONE,
                capacity,
                max_message_size,
                delay: DelayBound::best_effort(),
                error_rate: BitErrorRate::new(1e-4).expect("valid default"),
            },
        }
    }

    /// Check the invariants of §2.2.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] if the maximum message size exceeds the
    /// capacity or either is zero.
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.capacity == 0 {
            return Err(ParamError::ZeroCapacity);
        }
        if self.max_message_size == 0 {
            return Err(ParamError::ZeroMessageSize);
        }
        if self.max_message_size > self.capacity {
            return Err(ParamError::MessageSizeExceedsCapacity {
                max_message_size: self.max_message_size,
                capacity: self.capacity,
            });
        }
        Ok(())
    }
}

/// Builder for [`RmsParams`] (C-BUILDER). Terminal method is
/// [`RmsParamsBuilder::build`], which validates.
#[derive(Debug, Clone)]
pub struct RmsParamsBuilder {
    params: RmsParams,
}

impl RmsParamsBuilder {
    /// Set the delivery guarantee.
    pub fn reliability(mut self, r: Reliability) -> Self {
        self.params.reliability = r;
        self
    }

    /// Set authentication + privacy.
    pub fn security(mut self, s: SecurityParams) -> Self {
        self.params.security = s;
        self
    }

    /// Set the delay bound.
    pub fn delay(mut self, d: DelayBound) -> Self {
        self.params.delay = d;
        self
    }

    /// Set the guaranteed bit error rate.
    pub fn error_rate(mut self, e: BitErrorRate) -> Self {
        self.params.error_rate = e;
        self
    }

    /// Validate and produce the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] if the invariants of §2.2 are violated.
    pub fn build(self) -> Result<RmsParams, ParamError> {
        self.params.validate()?;
        Ok(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::DelayBound;
    use dash_sim::SimDuration;

    #[test]
    fn boolean_inclusion_lattice() {
        use Authentication::*;
        use Privacy::*;
        use Reliability::*;
        assert!(Reliable.includes(Reliable));
        assert!(Reliable.includes(Unreliable));
        assert!(!Unreliable.includes(Reliable));
        assert!(Authenticated.includes(Unauthenticated));
        assert!(!Unauthenticated.includes(Authenticated));
        assert!(Private.includes(Open));
        assert!(!Open.includes(Private));
    }

    #[test]
    fn security_params_inclusion() {
        assert!(SecurityParams::FULL.includes(SecurityParams::NONE));
        assert!(SecurityParams::FULL.includes(SecurityParams::FULL));
        assert!(!SecurityParams::NONE.includes(SecurityParams::FULL));
        let auth_only = SecurityParams {
            authentication: Authentication::Authenticated,
            privacy: Privacy::Open,
        };
        let priv_only = SecurityParams {
            authentication: Authentication::Unauthenticated,
            privacy: Privacy::Private,
        };
        assert!(!auth_only.includes(priv_only));
        assert!(!priv_only.includes(auth_only));
        assert_eq!(SecurityParams::all().len(), 4);
    }

    #[test]
    fn ber_validation() {
        assert!(BitErrorRate::new(0.0).is_some());
        assert!(BitErrorRate::new(1.0).is_some());
        assert!(BitErrorRate::new(-0.1).is_none());
        assert!(BitErrorRate::new(1.1).is_none());
        assert!(BitErrorRate::new(f64::NAN).is_none());
    }

    #[test]
    fn ber_message_error_probability() {
        let ber = BitErrorRate::new(1e-6).unwrap();
        let p = ber.message_error_probability(1500);
        // 1 - (1-1e-6)^12000 ≈ 0.0119
        assert!((p - 0.0119).abs() < 0.001, "p = {p}");
        assert_eq!(BitErrorRate::ZERO.message_error_probability(1_000_000), 0.0);
    }

    #[test]
    fn params_validation() {
        let ok = RmsParams::builder(10_000, 1_500).build();
        assert!(ok.is_ok());

        let err = RmsParams::builder(1_000, 1_500).build().unwrap_err();
        assert!(matches!(err, ParamError::MessageSizeExceedsCapacity { .. }));
        assert!(err.to_string().contains("1500"));

        assert!(matches!(
            RmsParams::builder(0, 0).build().unwrap_err(),
            ParamError::ZeroCapacity
        ));
        assert!(matches!(
            RmsParams::builder(10, 0).build().unwrap_err(),
            ParamError::ZeroMessageSize
        ));
    }

    #[test]
    fn builder_sets_all_fields() {
        let p = RmsParams::builder(64 * 1024, 1024)
            .reliability(Reliability::Reliable)
            .security(SecurityParams::FULL)
            .delay(DelayBound::deterministic(
                SimDuration::from_millis(10),
                SimDuration::from_nanos(100),
            ))
            .error_rate(BitErrorRate::new(1e-9).unwrap())
            .build()
            .unwrap();
        assert_eq!(p.reliability, Reliability::Reliable);
        assert_eq!(p.security, SecurityParams::FULL);
        assert_eq!(p.capacity, 64 * 1024);
        assert_eq!(p.max_message_size, 1024);
        assert_eq!(p.error_rate.rate(), 1e-9);
    }
}
