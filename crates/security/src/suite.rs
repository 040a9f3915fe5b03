//! Security mechanism selection (paper §2.5).
//!
//! "To see the importance of RMS parameters, consider the case of a client
//! ... that requires data privacy. ... Depending on the network, the
//! following situations are possible: (1) privacy is provided by data
//! encryption in the subtransport layer; (2) the network has link-level
//! encryption hardware; the subtransport layer learns this ... and does no
//! data encryption; (3) the network is considered secure, so no data
//! encryption is done. In any case, the optimal mechanism is used. ... A
//! similar situation exists for data integrity."
//!
//! [`select_mechanisms`] is that decision procedure: given the negotiated
//! RMS parameters and the capabilities of the underlying network, it
//! returns the cheapest [`MechanismPlan`] that still meets the guarantees.

use rms_core::params::{Authentication, BitErrorRate, Privacy, RmsParams};

use crate::checksum::Algorithm;
use crate::cost::{checksum_cost, cipher_cost, mac_cost, CostModel};

/// Security-relevant capabilities of an underlying network (paper §3.1's
/// network-object parameters plus integrity hardware).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetworkCapabilities {
    /// All hosts on the network are trusted (§3.1): neither eavesdropping
    /// nor impersonation is a concern inside it.
    pub trusted: bool,
    /// Link-level encryption hardware encrypts every frame.
    pub link_encryption: bool,
    /// The interface hardware checksums frames; its residual error rate is
    /// the network's raw bit error rate below.
    pub hardware_checksum: bool,
    /// "Physical broadcast property": an eavesdropper can only receive a
    /// message if the intended recipient also does (§3.1). Enables
    /// detection-based schemes; advisory here.
    pub physical_broadcast: bool,
    /// Raw bit error rate of the medium after any hardware checksumming.
    pub raw_ber: f64,
}

/// The software mechanisms the subtransport layer must apply on one RMS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MechanismPlan {
    /// Encrypt payloads in software at the ST level.
    pub encrypt: bool,
    /// Compute/verify a MAC to authenticate the source label.
    pub mac: bool,
    /// Software checksum to run, if any.
    pub checksum: Option<Algorithm>,
}

impl MechanismPlan {
    /// No software mechanisms at all.
    pub const NONE: MechanismPlan = MechanismPlan {
        encrypt: false,
        mac: false,
        checksum: None,
    };

    /// The per-message CPU cost model of this plan (one side; the same
    /// model applies on send and on receive).
    pub fn cost(&self) -> CostModel {
        let mut c = CostModel::FREE;
        if self.encrypt {
            c = c.plus(cipher_cost());
        }
        if self.mac {
            c = c.plus(mac_cost());
        }
        if let Some(alg) = self.checksum {
            c = c.plus(checksum_cost(alg));
        }
        c
    }
}

/// Choose the cheapest software mechanisms that realize `params` over a
/// network with `caps` (§2.5). Also returns the *effective* bit error rate
/// the combination can guarantee.
pub fn select_mechanisms(
    params: &RmsParams,
    caps: &NetworkCapabilities,
) -> (MechanismPlan, BitErrorRate) {
    let mut plan = MechanismPlan::NONE;

    // Privacy (§2.5 cases 1–3).
    if params.security.privacy == Privacy::Private && !caps.trusted && !caps.link_encryption {
        plan.encrypt = true;
    }

    // Authentication: a trusted network cannot contain impersonators; link
    // encryption keyed per host-pair also authenticates the source.
    if params.security.authentication == Authentication::Authenticated
        && !caps.trusted
        && !caps.link_encryption
    {
        plan.mac = true;
    }

    // Integrity: pick the cheapest checksum whose residual undetected-error
    // rate meets the RMS's guaranteed BER. Hardware checksumming already
    // reduced the raw rate; if that suffices, run nothing in software.
    let requested = params.error_rate.rate();
    if caps.raw_ber <= requested {
        // Medium already good enough (possibly thanks to hardware).
    } else {
        let chosen = Algorithm::ALL
            .iter()
            .copied()
            .find(|alg| caps.raw_ber * alg.undetected_error_probability() <= requested);
        // Fall back to the strongest algorithm if none meets the target;
        // negotiation should have prevented this, but selection stays total.
        plan.checksum = Some(chosen.unwrap_or(Algorithm::Crc32));
    }

    let effective = match plan.checksum {
        Some(alg) => caps.raw_ber * alg.undetected_error_probability(),
        None => caps.raw_ber,
    };
    (
        plan,
        BitErrorRate::new(effective.clamp(0.0, 1.0)).expect("valid derived BER"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rms_core::params::{RmsParams, SecurityParams};

    fn private_params(ber: f64) -> RmsParams {
        RmsParams::builder(10_000, 1_000)
            .security(SecurityParams::FULL)
            .error_rate(BitErrorRate::new(ber).unwrap())
            .build()
            .unwrap()
    }

    fn open_params(ber: f64) -> RmsParams {
        RmsParams::builder(10_000, 1_000)
            .error_rate(BitErrorRate::new(ber).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn privacy_on_untrusted_network_encrypts_in_software() {
        let caps = NetworkCapabilities {
            raw_ber: 0.0,
            ..Default::default()
        };
        let (plan, _) = select_mechanisms(&private_params(1e-6), &caps);
        assert!(plan.encrypt);
        assert!(plan.mac);
    }

    #[test]
    fn link_encryption_hardware_skips_software_crypto() {
        let caps = NetworkCapabilities {
            link_encryption: true,
            raw_ber: 0.0,
            ..Default::default()
        };
        let (plan, _) = select_mechanisms(&private_params(1e-6), &caps);
        assert!(!plan.encrypt);
        assert!(!plan.mac);
    }

    #[test]
    fn trusted_network_skips_everything_security() {
        let caps = NetworkCapabilities {
            trusted: true,
            raw_ber: 0.0,
            ..Default::default()
        };
        let (plan, _) = select_mechanisms(&private_params(1e-6), &caps);
        assert_eq!(plan, MechanismPlan::NONE);
        assert_eq!(plan.cost(), CostModel::FREE);
    }

    #[test]
    fn no_privacy_request_means_no_crypto() {
        let caps = NetworkCapabilities {
            raw_ber: 0.0,
            ..Default::default()
        };
        let (plan, _) = select_mechanisms(&open_params(1e-6), &caps);
        assert!(!plan.encrypt && !plan.mac);
    }

    #[test]
    fn clean_medium_needs_no_checksum() {
        let caps = NetworkCapabilities {
            raw_ber: 1e-12,
            ..Default::default()
        };
        let (plan, eff) = select_mechanisms(&open_params(1e-6), &caps);
        assert_eq!(plan.checksum, None);
        assert_eq!(eff.rate(), 1e-12);
    }

    #[test]
    fn noisy_medium_picks_cheapest_sufficient_checksum() {
        // raw 1e-4; Internet sum residual = 1e-4/65536 ≈ 1.5e-9 ≤ 1e-6:
        // cheapest algorithm suffices.
        let caps = NetworkCapabilities {
            raw_ber: 1e-4,
            ..Default::default()
        };
        let (plan, eff) = select_mechanisms(&open_params(1e-6), &caps);
        assert_eq!(plan.checksum, Some(Algorithm::Internet));
        assert!(eff.rate() <= 1e-6);
    }

    #[test]
    fn very_tight_ber_escalates_algorithm() {
        // raw 1e-4 with target 1e-11 needs better than the Internet sum
        // (residual 1.5e-9): escalate to a stronger checksum.
        let caps = NetworkCapabilities {
            raw_ber: 1e-4,
            ..Default::default()
        };
        let (plan, eff) = select_mechanisms(&open_params(1e-11), &caps);
        assert!(matches!(
            plan.checksum,
            Some(Algorithm::Fletcher32) | Some(Algorithm::Crc32)
        ));
        assert!(eff.rate() <= 1e-11);
    }

    #[test]
    fn hardware_checksum_reflected_in_raw_ber() {
        // With hardware checksumming the effective raw rate handed to us is
        // already tiny; software adds nothing.
        let caps = NetworkCapabilities {
            hardware_checksum: true,
            raw_ber: 1e-10,
            ..Default::default()
        };
        let (plan, _) = select_mechanisms(&open_params(1e-6), &caps);
        assert_eq!(plan.checksum, None);
    }

    #[test]
    fn plan_cost_and_overhead_accumulate() {
        let full = MechanismPlan {
            encrypt: true,
            mac: true,
            checksum: Some(Algorithm::Crc32),
        };
        assert!(full.cost().cost_for(1500) > MechanismPlan::NONE.cost().cost_for(1500));
    }
}
