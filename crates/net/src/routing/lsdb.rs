//! Link-state advertisements and the per-host link-state database.
//!
//! Every host periodically (event-driven, not timed: on fault events and
//! topology changes) floods a [`LinkStateAd`] describing its interfaces:
//! the attached network, its static delay figures, its capacity, and the
//! *residual admission headroom* sampled from the interface's
//! [`rms_core::admission::ResourceLedger`]. Each host accumulates the ads
//! it has seen in an [`Lsdb`]; sequence numbers make installation
//! idempotent and flood-safe (a host re-floods a given `(origin, seq)` at
//! most once).

use std::sync::Arc;

use dash_sim::time::{SimDuration, SimTime};

use crate::ids::{HostId, NetworkId};

/// What one host advertises about one of its interfaces. Entries appear in
/// interface order, so a link's position in [`LinkStateAd::links`] is the
/// advertiser's interface index.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkInfo {
    /// The attached network.
    pub network: NetworkId,
    /// Whether the network was up when the ad was stamped. Informational:
    /// path computation reads the *live* availability flags (the simulator
    /// models instantaneous link-layer failure detection) while the QoS
    /// attributes below genuinely disseminate by flooding.
    pub up: bool,
    /// The network's one-way propagation delay (the `A` of `A + B·size`).
    pub fixed_delay: SimDuration,
    /// Serialization delay per byte (the `B` of `A + B·size`).
    pub per_byte_delay: SimDuration,
    /// Nominal capacity, bits per second.
    pub capacity_bps: f64,
    /// Residual deterministic admission headroom on the advertiser's
    /// interface, bytes per second (see
    /// [`rms_core::admission::ResourceLedger::headroom_bps`]).
    pub headroom_bps: f64,
    /// Residual buffer headroom on the advertiser's interface, bytes.
    pub headroom_buffer: u64,
}

/// A flooded link-state advertisement: one host's view of its own links.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkStateAd {
    /// The advertising host.
    pub origin: HostId,
    /// Monotone per-origin sequence number; newer wins, equal is a duplicate.
    pub seq: u64,
    /// Simulation time the origin built this ad (drives the reconvergence
    /// latency metric — never wall-clock).
    pub stamped_at: SimTime,
    /// One entry per interface, in interface order.
    pub links: Vec<LinkInfo>,
}

/// A host's accumulated link-state database.
///
/// Ownership rule: an ad is immutable once stamped and exists once — the
/// `Arc` its origin created is what every flooded packet carries and what
/// every holder stores. The origin-indexed table itself is shared
/// copy-on-write: every host of a freshly seeded world points at one
/// backing ([`Lsdb::shares_backing`]), and a host's database takes its own
/// copy (one `Vec` of pointers) on the first install that makes it differ.
#[derive(Debug, Clone, Default)]
pub struct Lsdb {
    /// `entries[origin]`; dense because host ids are.
    entries: Arc<Vec<Option<Arc<LinkStateAd>>>>,
}

impl Lsdb {
    /// Install `ad` if it is newer than what we hold for its origin.
    /// Returns `true` iff the database changed — the caller's cue to
    /// recompute routes and re-flood. A rejected ad leaves a shared backing
    /// shared.
    pub fn install(&mut self, ad: impl Into<Arc<LinkStateAd>>) -> bool {
        let ad = ad.into();
        if self.get(ad.origin).is_some_and(|have| have.seq >= ad.seq) {
            return false;
        }
        let idx = ad.origin.0 as usize;
        let entries = Arc::make_mut(&mut self.entries);
        if entries.len() <= idx {
            entries.resize(idx + 1, None);
        }
        entries[idx] = Some(ad);
        true
    }

    /// The ad we hold for `origin`, if any.
    pub fn get(&self, origin: HostId) -> Option<&LinkStateAd> {
        self.entries.get(origin.0 as usize)?.as_deref()
    }

    /// All held ads, in ascending origin order (deterministic).
    pub fn entries(&self) -> impl Iterator<Item = &LinkStateAd> {
        self.entries.iter().filter_map(|e| e.as_deref())
    }

    /// Whether `self` and `other` still read the same table — true for
    /// clones of one database until either installs something new. Route
    /// computation uses it to build one adjacency per distinct table.
    pub fn shares_backing(&self, other: &Lsdb) -> bool {
        Arc::ptr_eq(&self.entries, &other.entries)
    }

    /// Number of distinct origins known.
    pub fn len(&self) -> usize {
        self.entries().count()
    }

    /// True when no ads have been installed yet.
    pub fn is_empty(&self) -> bool {
        self.entries().next().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ad(origin: u32, seq: u64) -> LinkStateAd {
        LinkStateAd {
            origin: HostId(origin),
            seq,
            stamped_at: SimTime::ZERO,
            links: Vec::new(),
        }
    }

    #[test]
    fn newer_sequence_wins() {
        let mut db = Lsdb::default();
        assert!(db.install(ad(1, 1)));
        // Duplicate and stale ads are rejected.
        assert!(!db.install(ad(1, 1)));
        assert!(!db.install(ad(1, 0)));
        assert_eq!(db.get(HostId(1)).unwrap().seq, 1);
        assert!(db.install(ad(1, 2)));
        assert_eq!(db.get(HostId(1)).unwrap().seq, 2);
    }

    #[test]
    fn entries_iterate_in_origin_order() {
        let mut db = Lsdb::default();
        db.install(ad(3, 1));
        db.install(ad(0, 1));
        db.install(ad(2, 1));
        let origins: Vec<u32> = db.entries().map(|ad| ad.origin.0).collect();
        assert_eq!(origins, vec![0, 2, 3]);
        assert_eq!(db.len(), 3);
        assert!(!db.is_empty());
        assert!(db.get(HostId(1)).is_none(), "a gap is not an entry");
    }

    #[test]
    fn installing_into_a_clone_never_shows_through_the_original() {
        let mut original = Lsdb::default();
        original.install(ad(0, 1));
        original.install(ad(1, 1));
        let mut clone = original.clone();
        assert!(clone.shares_backing(&original));

        assert!(clone.install(ad(1, 2)));
        assert!(clone.install(ad(5, 1)));
        assert!(!clone.shares_backing(&original), "first install diverges");
        assert_eq!(original.get(HostId(1)).unwrap().seq, 1);
        assert!(original.get(HostId(5)).is_none());
        assert_eq!(original.len(), 2);
        // The untouched entry is still the one allocation both hold.
        assert!(std::ptr::eq(
            original.get(HostId(0)).unwrap(),
            clone.get(HostId(0)).unwrap()
        ));

        // And the other way round: the original moves, the clone stays.
        assert!(original.install(ad(0, 2)));
        assert_eq!(clone.get(HostId(0)).unwrap().seq, 1);
    }

    #[test]
    fn stale_ads_are_rejected_without_leaving_a_shared_backing() {
        let mut a = Lsdb::default();
        a.install(ad(2, 7));
        let mut b = a.clone();
        assert!(!b.install(ad(2, 7)), "duplicate");
        assert!(!b.install(ad(2, 3)), "stale");
        assert!(b.shares_backing(&a), "a rejected ad copies nothing");
        assert_eq!(b.get(HostId(2)).unwrap().seq, 7);
    }
}
