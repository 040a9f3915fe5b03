//! The DASH stack as a logical process, plus lookahead helpers.
//!
//! Each LP is a *full replica* of the topology: build the same
//! `TopologyBuilder`/`StackBuilder` world in every LP (identical
//! build-time routes and LSDBs), then call [`StackLp::new`] to switch it
//! into replica mode for one owner host. Only the owner's protocol state
//! ever populates; the rest of the replica is static scaffolding that
//! lets routing, admission, and fault application run locally. Fault
//! plans are *replicated*, not forwarded: every LP applies the same plan
//! at the same times, and the ownership guard in
//! `dash_net::routing::flood_from` keeps packet-originating side effects
//! (witness floods) to the owning LP.

use dash_net::ids::HostId;
use dash_net::pipeline;
use dash_net::shard::WireEnvelope;
use dash_net::state::NetState;
use dash_sim::engine::Sim;
use dash_sim::time::{SimDuration, SimTime};
use dash_transport::stack::Stack;

use crate::exec::Lp;
use crate::plan::ShardPlan;

/// One host's logical process over the full transport [`Stack`].
pub struct StackLp {
    /// The replica world (public: harnesses install taps and read state).
    pub sim: Sim<Stack>,
    owner: HostId,
}

impl StackLp {
    /// Wrap a freshly built world as `owner`'s replica (see
    /// [`Stack::enable_lp_mode`] for what switches over).
    pub fn new(mut sim: Sim<Stack>, owner: HostId, root_seed: u64) -> Self {
        sim.state.enable_lp_mode(owner, root_seed);
        StackLp { sim, owner }
    }

    /// The owner host.
    pub fn owner(&self) -> HostId {
        self.owner
    }
}

impl Lp for StackLp {
    type Env = WireEnvelope;

    fn host(&self) -> u32 {
        self.owner.0
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.sim.next_event_time()
    }

    fn run_until_horizon(&mut self, horizon: SimTime) {
        self.sim.run_until_horizon(horizon);
    }

    fn drain_outbox(&mut self, sink: &mut Vec<WireEnvelope>) {
        self.sim.state.net.drain_outbox_into(sink);
    }

    fn dst_of(env: &WireEnvelope) -> u32 {
        env.dst.0
    }

    fn inject(&mut self, env: WireEnvelope) {
        let key = env.arrival_key();
        let WireEnvelope {
            deliver_at,
            dst,
            packet,
            ..
        } = env;
        pipeline::inject_arrival(&mut self.sim, deliver_at, key, dst, packet);
    }
}

/// Wire delay below which conservative lookahead cannot drop: a network
/// with zero propagation would stall the executor, so it is clamped to
/// one nanosecond (events at the window minimum still run).
const MIN_LOOKAHEAD: SimDuration = SimDuration::from_nanos(1);

/// The intra-worker micro-window bound: the minimum propagation delay
/// over *all* networks — no envelope, wherever it goes, can deliver
/// sooner after the event that transmitted it.
pub fn local_lookahead(net: &NetState) -> SimDuration {
    net.networks
        .iter()
        .map(|n| n.spec.propagation)
        .min()
        .unwrap_or(SimDuration::MAX)
        .max(MIN_LOOKAHEAD)
}

/// The epoch bound: the minimum propagation delay over networks whose
/// attached hosts *span* more than one shard under `plan`. Networks
/// entirely inside one shard cannot carry cross-shard envelopes, so an
/// aligned placement (LANs co-located, only the WAN spanning) buys
/// epochs as long as the WAN delay. Falls back to a day when no network
/// spans shards at all (the epoch is then bounded by the horizon).
pub fn cross_shard_lookahead(net: &NetState, plan: &ShardPlan) -> SimDuration {
    net.networks
        .iter()
        .filter(|n| {
            let mut shards = n.attached.iter().map(|h| plan.shard_of(h.0));
            match shards.next() {
                None => false,
                Some(first) => shards.any(|s| s != first),
            }
        })
        .map(|n| n.spec.propagation)
        .min()
        .unwrap_or(SimDuration::from_secs(86_400))
        .max(MIN_LOOKAHEAD)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookaheads_reflect_spanning_networks() {
        use dash_net::network::NetworkSpec;
        use dash_net::topology::TopologyBuilder;

        let mut tb = TopologyBuilder::new();
        let lan = tb.network(NetworkSpec::ethernet("lan"));
        let wan = tb.network(NetworkSpec::long_haul("wan"));
        let a = tb.host_on(lan);
        let b = tb.host_on(lan);
        tb.attach(a, wan);
        tb.attach(b, wan);
        let state = tb.build();

        let lan_prop = state.networks[lan.0 as usize].spec.propagation;
        let wan_prop = state.networks[wan.0 as usize].spec.propagation;
        assert!(lan_prop < wan_prop);
        assert_eq!(local_lookahead(&state), lan_prop);

        // Both hosts on one shard: nothing spans, epoch bounded by horizon.
        let aligned = ShardPlan::from_placement(2, vec![0, 0]);
        assert!(cross_shard_lookahead(&state, &aligned) > wan_prop);
        // Split them: the LAN (the fastest spanning network) is the bound.
        let split = ShardPlan::from_placement(2, vec![0, 1]);
        assert_eq!(cross_shard_lookahead(&state, &split), lan_prop);
    }
}
