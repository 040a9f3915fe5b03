//! `dash-net` drivers: the interface queue (reported under `voice-lan`)
//! and routing on the 282-host mesh (under `mesh-churn`).

use std::collections::BTreeMap;
use std::hint::black_box;

use bytes::Bytes;
use dash_net::ids::{HostId, NetRmsId, NetworkId};
use dash_net::iface::{Iface, QueueDiscipline};
use dash_net::packet::{DataPacket, Packet, PacketKind};
use dash_net::routing::spf::k_paths;
use dash_net::routing::{ensure_host_routes, mark_routes_dirty};
use dash_sim::time::SimTime;
use rms_core::admission::ResourceLedger;
use rms_core::wire::WireMsg;

use super::Size;
use crate::workloads;

fn voice_packet(seq: u64) -> Packet {
    Packet {
        src: HostId(0),
        dst: HostId(1),
        kind: PacketKind::Data(DataPacket {
            rms: NetRmsId(1),
            seq,
            payload: WireMsg::from_bytes(Bytes::from_static(&[0u8; 220])),
            source: None,
            target: None,
            mac: None,
            checksum: None,
            span: None,
        }),
        deadline: SimTime::from_nanos((seq * 7919) % 1_000_000),
        sent_at: SimTime::ZERO,
        corrupted: false,
        hops: 0,
        reliable: false,
        next_plan: None,
        source_route: None,
        next_hop: None,
    }
}

pub(super) fn run(size: &Size, out: &mut BTreeMap<&'static str, f64>) {
    // Enqueue + dequeue one voice-size packet on a deadline queue that
    // already holds 32.
    let ledger = ResourceLedger::new(1.25e6, 256 * 1024);
    let mut iface = Iface::new(NetworkId(0), QueueDiscipline::Deadline, ledger, None);
    let mut seq = 0u64;
    for _ in 0..32 {
        seq += 1;
        iface.enqueue(SimTime::ZERO, voice_packet(seq));
    }
    let ns = size.ns_per_op(4096, || {
        seq += 1;
        iface.enqueue(SimTime::ZERO, voice_packet(seq));
        black_box(iface.dequeue(SimTime::ZERO));
    });
    out.insert("net.iface.drv.enq_deq_ns", ns);

    // The mesh-churn topology: corner-to-corner alternates, one host's
    // table recomputation after a fault, and an LSA install.
    let mesh = workloads::by_name("mesh-churn", size.smoke).expect("workload exists");
    let (mut net, sites) = mesh.topology(1);
    let (src, dst) = (sites.lans[0][0], sites.lans[8][0]);
    let ns = size.ns_per_op(16, || {
        black_box(k_paths(black_box(&net), src, dst, 3));
    });
    out.insert("net.routing.drv.k_paths_ns", ns);

    let mut host = 0u32;
    let ns = size.ns_per_op(8, || {
        host = (host + 1) % sites.hosts;
        mark_routes_dirty(&mut net, SimTime::ZERO);
        ensure_host_routes(&mut net, SimTime::ZERO, HostId(host));
    });
    out.insert("net.routing.drv.recompute_ns", ns);

    // Install a fresher copy of a gateway's own advertisement.
    let origin = HostId(sites.hosts - 1);
    let mut ad = net
        .host(src)
        .lsdb
        .get(origin)
        .expect("seeded database knows every host")
        .clone();
    let mut lsdb = net.host(src).lsdb.clone();
    let ns = size.ns_per_op(4096, || {
        ad.seq += 1;
        black_box(lsdb.install(ad.clone()));
    });
    out.insert("net.routing.drv.lsdb_install_ns", ns);
}
