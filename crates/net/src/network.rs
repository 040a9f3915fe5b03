//! Network objects (paper §3.1).
//!
//! "Each network type to which a DASH host is connected is represented by a
//! network object ... network objects provide host-to-host network RMS's.
//! They encapsulate network-specific protocols for RMS creation, deletion,
//! and transmission."
//!
//! A [`Network`] here is the abstract medium: its bandwidth, propagation
//! delay, loss/corruption behaviour, MTU, security capabilities
//! (trusted / broadcast / link encryption / hardware checksum), and the
//! derived [`ServiceTable`] advertising, for each reliability × security
//! combination, the performance limits it supports.

use std::cell::OnceCell;

use dash_security::checksum::Algorithm;
use dash_security::suite::NetworkCapabilities;
use dash_sim::fault::GilbertElliott;
use dash_sim::rng::Rng;
use dash_sim::time::SimDuration;
use rms_core::compat::{PerfLimits, ServiceTable};
use rms_core::params::{BitErrorRate, Reliability, SecurityParams};

use crate::ids::{HostId, NetworkId};
use crate::packet::BASE_HEADER_BYTES;

/// Static description of a network, set by the topology builder.
#[derive(Debug, Clone)]
pub struct NetworkSpec {
    /// Human-readable name for reports.
    pub name: String,
    /// Nominal transmission rate shared by all attached interfaces, bits/s.
    pub rate_bps: f64,
    /// One-way propagation delay between any two attached hosts.
    pub propagation: SimDuration,
    /// Largest packet (header + payload) the medium carries.
    pub mtu: u64,
    /// Whole-packet loss probability per traversal (congestion-independent).
    pub drop_prob: f64,
    /// Security-relevant capabilities (includes the raw bit error rate).
    pub caps: NetworkCapabilities,
    /// Strongest delay-bound kind this network supports
    /// (2 = deterministic, 1 = statistical, 0 = best-effort only).
    pub max_kind_strength: u8,
    /// Whether link-level ARQ is available to offer reliable combinations.
    pub supports_reliable: bool,
    /// Buffer bytes each attached interface devotes to reserved streams.
    pub iface_buffer_bytes: u64,
}

impl NetworkSpec {
    /// A 10 Mb/s Ethernet-like LAN: low delay, tiny loss, deterministic
    /// bounds supported, 1.5 KB MTU (§4.3 mentions "the 1.5KB Ethernet
    /// packet size limit").
    pub fn ethernet(name: impl Into<String>) -> Self {
        NetworkSpec {
            name: name.into(),
            rate_bps: 10e6,
            propagation: SimDuration::from_micros(50),
            mtu: 1536,
            drop_prob: 1e-6,
            caps: NetworkCapabilities {
                trusted: false,
                link_encryption: false,
                hardware_checksum: false,
                physical_broadcast: true,
                raw_ber: 1e-7,
            },
            max_kind_strength: 2,
            supports_reliable: true,
            iface_buffer_bytes: 256 * 1024,
        }
    }

    /// A long-haul, Internet-like path: high delay, more loss, statistical
    /// bounds at best.
    pub fn long_haul(name: impl Into<String>) -> Self {
        NetworkSpec {
            name: name.into(),
            rate_bps: 1.5e6, // T1-class
            propagation: SimDuration::from_millis(30),
            mtu: 1536,
            drop_prob: 1e-4,
            caps: NetworkCapabilities {
                trusted: false,
                link_encryption: false,
                hardware_checksum: false,
                physical_broadcast: false,
                raw_ber: 1e-6,
            },
            max_kind_strength: 1,
            supports_reliable: true,
            iface_buffer_bytes: 64 * 1024,
        }
    }

    /// A modern high-rate, low-error local fabric ("future high-performance
    /// large-scale communication networks", §1).
    pub fn fast_lan(name: impl Into<String>) -> Self {
        NetworkSpec {
            name: name.into(),
            rate_bps: 100e6,
            propagation: SimDuration::from_micros(10),
            mtu: 9_000,
            drop_prob: 1e-7,
            caps: NetworkCapabilities {
                trusted: false,
                link_encryption: false,
                hardware_checksum: true,
                physical_broadcast: true,
                raw_ber: 1e-10,
            },
            max_kind_strength: 2,
            supports_reliable: true,
            iface_buffer_bytes: 1024 * 1024,
        }
    }

    /// Seconds per payload byte at the nominal rate.
    pub fn per_byte_delay(&self) -> SimDuration {
        SimDuration::from_secs_f64(8.0 / self.rate_bps)
    }

    /// One ARQ round trip (retransmission granularity for reliable
    /// combinations): serialization of an MTU packet + 2× propagation.
    pub fn arq_rtt(&self) -> SimDuration {
        self.per_byte_delay()
            .saturating_mul(self.mtu)
            .saturating_add(self.propagation.saturating_mul(2))
    }

    /// The best (lowest) bit error rate the network can guarantee: the raw
    /// medium rate reduced by the strongest software checksum.
    pub fn best_error_rate(&self) -> BitErrorRate {
        let eff = self.caps.raw_ber * Algorithm::Crc32.undetected_error_probability();
        BitErrorRate::new(eff.clamp(0.0, 1.0)).expect("valid derived rate")
    }

    /// Probability a whole packet of `wire_bytes` is lost in one traversal
    /// (corruption beyond checksum repair is handled separately).
    ///
    /// `drop_prob` is calibrated to a [`REF_LOSS_BYTES`]-byte packet; loss
    /// is modelled as independent per byte, so larger packets are
    /// proportionally more exposed and smaller ones less.
    pub fn packet_loss_probability(&self, wire_bytes: u64) -> f64 {
        if self.drop_prob <= 0.0 {
            return 0.0;
        }
        if self.drop_prob >= 1.0 {
            return 1.0;
        }
        let scale = wire_bytes as f64 / REF_LOSS_BYTES as f64;
        1.0 - (1.0 - self.drop_prob).powf(scale)
    }

    /// Derive the §3.1 service table: performance limits per reliability ×
    /// security combination.
    pub fn service_table(&self) -> ServiceTable {
        let mut table = ServiceTable::new();
        let min_fixed = self
            .propagation
            .saturating_add(self.per_byte_delay().saturating_mul(BASE_HEADER_BYTES));
        let per_byte = self.per_byte_delay();
        let max_mms = self.mtu.saturating_sub(BASE_HEADER_BYTES + 32);
        let base = PerfLimits {
            min_fixed_delay: min_fixed,
            min_per_byte_delay: per_byte,
            max_capacity: self.iface_buffer_bytes,
            max_message_size: max_mms,
            min_error_rate: self.best_error_rate(),
            max_kind_strength: self.max_kind_strength,
        };
        for sec in SecurityParams::all() {
            table.support(Reliability::Unreliable, sec, base);
            if self.supports_reliable {
                // Reliable service uses link-level ARQ: worst-case delay
                // grows by the retry budget, and a lossy medium cannot give
                // a deterministic reliable bound.
                let mut rel = base;
                rel.min_fixed_delay = rel
                    .min_fixed_delay
                    .saturating_add(self.arq_rtt().saturating_mul(ARQ_RETRY_BUDGET as u64));
                rel.min_error_rate = BitErrorRate::ZERO;
                if self.drop_prob > 0.0 || self.caps.raw_ber > 0.0 {
                    rel.max_kind_strength = rel.max_kind_strength.min(1);
                }
                table.support(Reliability::Reliable, sec, rel);
            }
        }
        table
    }
}

/// Maximum ARQ retries assumed when budgeting reliable delay bounds.
pub const ARQ_RETRY_BUDGET: u32 = 4;

/// Reference packet size `NetworkSpec::drop_prob` is calibrated to: a
/// packet of exactly this many wire bytes is lost with probability
/// `drop_prob`.
pub const REF_LOSS_BYTES: u64 = 1024;

/// A live network instance: spec + attachments + wire behaviour + optional
/// wiretap used by the security tests.
#[derive(Debug)]
pub struct Network {
    /// This network's id.
    pub id: NetworkId,
    /// Static description.
    pub spec: NetworkSpec,
    /// Hosts attached to this network.
    pub attached: Vec<HostId>,
    /// True once [`crate::pipeline::fail_network`] brought it down.
    pub down: bool,
    /// When set (fault injection), the loss process is this Gilbert–Elliott
    /// burst channel instead of the spec's i.i.d. drop probability.
    pub burst: Option<GilbertElliott>,
    /// When enabled, every data payload traversing the network is recorded
    /// (what an eavesdropper would capture).
    pub wiretap: Option<Vec<bytes::Bytes>>,
    /// `spec.service_table()`, derived on first read.
    service: OnceCell<ServiceTable>,
}

/// The wire's verdict on one packet traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireOutcome {
    /// Delivered intact after `delay`.
    Delivered {
        /// Extra delay beyond serialization (propagation + any ARQ retries).
        delay: SimDuration,
    },
    /// Delivered with corrupted contents (checksum may catch it).
    Corrupted {
        /// Extra delay beyond serialization.
        delay: SimDuration,
    },
    /// Lost entirely.
    Lost,
}

impl Network {
    /// Create an instance of `spec`.
    pub fn new(id: NetworkId, spec: NetworkSpec) -> Self {
        Network {
            id,
            spec,
            attached: Vec::new(),
            down: false,
            burst: None,
            wiretap: None,
            service: OnceCell::new(),
        }
    }

    /// The §3.1 service table of [`Network::spec`], derived once, on first
    /// read: set the spec before the network carries traffic.
    pub fn service_table(&self) -> &ServiceTable {
        self.service.get_or_init(|| self.spec.service_table())
    }

    /// Sample what happens to a packet of `wire_bytes` bytes crossing this
    /// network. `reliable` selects link-level ARQ: losses/corruption turn
    /// into bounded extra delay instead (up to [`ARQ_RETRY_BUDGET`] tries,
    /// after which the packet is lost anyway). Takes `&mut self` because an
    /// active Gilbert–Elliott burst channel advances one step per attempt.
    pub fn sample_traversal(
        &mut self,
        rng: &mut Rng,
        wire_bytes: u64,
        reliable: bool,
    ) -> WireOutcome {
        let base = self.spec.propagation;
        if self.down {
            return WireOutcome::Lost;
        }
        let p_drop = self.spec.packet_loss_probability(wire_bytes);
        let p_corrupt = BitErrorRate::new(self.spec.caps.raw_ber.clamp(0.0, 1.0))
            .expect("valid raw ber")
            .message_error_probability(wire_bytes);
        let burst = &mut self.burst;
        let mut lost_once = |rng: &mut Rng| match burst {
            Some(ge) => ge.sample_loss(rng),
            None => rng.chance(p_drop),
        };
        if reliable {
            // Link-level ARQ: losses and corruption become bounded extra
            // delay. After the retry budget the packet is delivered anyway
            // (ARQ eventually succeeds); only a down network loses it.
            let mut delay = base;
            for _ in 0..ARQ_RETRY_BUDGET {
                let lost = lost_once(rng);
                let corrupted = rng.chance(p_corrupt);
                if !lost && !corrupted {
                    break;
                }
                delay = delay.saturating_add(self.spec.arq_rtt());
            }
            WireOutcome::Delivered { delay }
        } else {
            if lost_once(rng) {
                return WireOutcome::Lost;
            }
            if rng.chance(p_corrupt) {
                WireOutcome::Corrupted { delay: base }
            } else {
                WireOutcome::Delivered { delay: base }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rms_core::compat::{negotiate, RmsRequest};
    use rms_core::delay::DelayBound;
    use rms_core::params::RmsParams;

    #[test]
    fn per_byte_delay_matches_rate() {
        let spec = NetworkSpec::ethernet("e");
        // 10 Mb/s -> 0.8 us per byte.
        assert_eq!(spec.per_byte_delay(), SimDuration::from_nanos(800));
    }

    #[test]
    fn service_table_has_all_security_combos() {
        let spec = NetworkSpec::ethernet("e");
        let table = spec.service_table();
        for sec in SecurityParams::all() {
            assert!(table.limits(Reliability::Unreliable, sec).is_some());
            assert!(table.limits(Reliability::Reliable, sec).is_some());
        }
    }

    #[test]
    fn reliable_combo_has_higher_delay_floor_and_weaker_kind() {
        let spec = NetworkSpec::ethernet("e");
        let table = spec.service_table();
        let unrel = table
            .limits(Reliability::Unreliable, SecurityParams::NONE)
            .unwrap();
        let rel = table
            .limits(Reliability::Reliable, SecurityParams::NONE)
            .unwrap();
        assert!(rel.min_fixed_delay > unrel.min_fixed_delay);
        assert!(rel.max_kind_strength < unrel.max_kind_strength);
        assert_eq!(rel.min_error_rate, BitErrorRate::ZERO);
    }

    #[test]
    fn ethernet_supports_deterministic_bounds() {
        let spec = NetworkSpec::ethernet("e");
        let params = RmsParams::builder(10_000, 1_000)
            .delay(DelayBound::deterministic(
                SimDuration::from_millis(5),
                SimDuration::from_micros(1),
            ))
            .error_rate(spec.best_error_rate())
            .build()
            .unwrap();
        let got = negotiate(&spec.service_table(), &RmsRequest::exact(params)).unwrap();
        assert_eq!(got.capacity, 10_000);
    }

    #[test]
    fn long_haul_rejects_deterministic() {
        let spec = NetworkSpec::long_haul("wan");
        let params = RmsParams::builder(10_000, 1_000)
            .delay(DelayBound::deterministic(
                SimDuration::from_millis(100),
                SimDuration::from_micros(10),
            ))
            .error_rate(BitErrorRate::new(0.1).unwrap())
            .build()
            .unwrap();
        assert!(negotiate(&spec.service_table(), &RmsRequest::exact(params)).is_err());
    }

    #[test]
    fn wire_perfect_network_always_delivers() {
        let mut spec = NetworkSpec::ethernet("e");
        spec.drop_prob = 0.0;
        spec.caps.raw_ber = 0.0;
        let mut net = Network::new(NetworkId(0), spec);
        let mut rng = Rng::new(1);
        for _ in 0..100 {
            match net.sample_traversal(&mut rng, 1500, false) {
                WireOutcome::Delivered { delay } => {
                    assert_eq!(delay, net.spec.propagation)
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn wire_lossy_network_loses_roughly_at_rate() {
        let mut spec = NetworkSpec::ethernet("e");
        spec.drop_prob = 0.2;
        spec.caps.raw_ber = 0.0;
        let mut net = Network::new(NetworkId(0), spec);
        let mut rng = Rng::new(2);
        let n = 20_000;
        // drop_prob is calibrated at the reference packet size.
        let lost = (0..n)
            .filter(|_| {
                matches!(
                    net.sample_traversal(&mut rng, REF_LOSS_BYTES, false),
                    WireOutcome::Lost
                )
            })
            .count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "loss rate {rate}");
    }

    #[test]
    fn loss_probability_scales_with_packet_size() {
        let mut spec = NetworkSpec::ethernet("e");
        spec.drop_prob = 0.1;
        let p_ref = spec.packet_loss_probability(REF_LOSS_BYTES);
        let p_small = spec.packet_loss_probability(REF_LOSS_BYTES / 4);
        let p_large = spec.packet_loss_probability(REF_LOSS_BYTES * 4);
        assert!((p_ref - 0.1).abs() < 1e-12, "reference calibration {p_ref}");
        assert!(
            p_small < p_ref && p_ref < p_large,
            "{p_small} {p_ref} {p_large}"
        );
        // Independent per-byte loss: quadrupling the size compounds the
        // survival probability, not the loss probability.
        assert!((1.0 - p_large - (1.0 - p_ref).powi(4)).abs() < 1e-12);
        // Degenerate cases stay clamped.
        spec.drop_prob = 0.0;
        assert_eq!(spec.packet_loss_probability(u64::MAX), 0.0);
        spec.drop_prob = 1.0;
        assert_eq!(spec.packet_loss_probability(1), 1.0);
    }

    #[test]
    fn burst_channel_overrides_iid_drops() {
        let mut spec = NetworkSpec::ethernet("e");
        spec.drop_prob = 0.0;
        spec.caps.raw_ber = 0.0;
        let mut net = Network::new(NetworkId(0), spec);
        // A channel pinned to the bad state losing everything.
        net.burst = Some(GilbertElliott::new(1.0, 0.0, 0.0, 1.0));
        let mut rng = Rng::new(11);
        for _ in 0..50 {
            assert_eq!(
                net.sample_traversal(&mut rng, 512, false),
                WireOutcome::Lost
            );
        }
        // Clearing the burst restores the (perfect) i.i.d. process.
        net.burst = None;
        assert!(matches!(
            net.sample_traversal(&mut rng, 512, false),
            WireOutcome::Delivered { .. }
        ));
    }

    #[test]
    fn reliable_traversal_converts_loss_to_delay() {
        let mut spec = NetworkSpec::ethernet("e");
        spec.drop_prob = 0.3;
        spec.caps.raw_ber = 0.0;
        let mut net = Network::new(NetworkId(0), spec);
        let mut rng = Rng::new(3);
        let mut delays = Vec::new();
        for _ in 0..5_000 {
            match net.sample_traversal(&mut rng, 1500, true) {
                WireOutcome::Delivered { delay } => delays.push(delay),
                WireOutcome::Lost => panic!("reliable wire never loses"),
                WireOutcome::Corrupted { .. } => panic!("reliable never corrupts"),
            }
        }
        // Some deliveries must have needed retries.
        assert!(delays.iter().any(|d| *d > net.spec.propagation));
        // And none exceeded the retry budget's delay.
        let max_extra = net.spec.arq_rtt().saturating_mul(ARQ_RETRY_BUDGET as u64);
        assert!(delays
            .iter()
            .all(|d| *d <= net.spec.propagation.saturating_add(max_extra)));
    }

    #[test]
    fn down_network_loses_everything() {
        let mut net = Network::new(NetworkId(0), NetworkSpec::ethernet("e"));
        net.down = true;
        let mut rng = Rng::new(4);
        assert_eq!(net.sample_traversal(&mut rng, 10, false), WireOutcome::Lost);
        assert_eq!(net.sample_traversal(&mut rng, 10, true), WireOutcome::Lost);
    }

    #[test]
    fn corruption_probability_scales_with_size() {
        let mut spec = NetworkSpec::ethernet("e");
        spec.drop_prob = 0.0;
        spec.caps.raw_ber = 1e-5;
        let mut net = Network::new(NetworkId(0), spec);
        let mut rng = Rng::new(5);
        let mut count = |bytes: u64, rng: &mut Rng| {
            (0..4_000)
                .filter(|_| {
                    matches!(
                        net.sample_traversal(rng, bytes, false),
                        WireOutcome::Corrupted { .. }
                    )
                })
                .count()
        };
        let small = count(64, &mut rng);
        let large = count(4096, &mut rng);
        assert!(large > small * 10, "small={small} large={large}");
    }
}
