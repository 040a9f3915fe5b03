//! e1_security — parameter negotiation eliminates redundant security work
//! (§2.5); e2_scheduling — deadline-based scheduling beats FIFO/priority
//! for mixed real-time traffic (§4.1, conclusion).

use dash_apps::traffic::{self, Class, Flow, Plan, RpcFlow};
use dash_net::iface::QueueDiscipline;
use dash_net::state::NetConfig;
use dash_net::topology::TopologyBuilder;
use dash_net::NetworkSpec;
use dash_security::cost::CostModel;
use dash_sim::cpu::SchedPolicy;
use dash_sim::time::SimDuration;
use dash_sim::Sim;
use dash_subtransport::st::StConfig;
use dash_transport::stack::StackBuilder;
use dash_transport::stream::StreamProfile;
use rms_core::params::{BitErrorRate, RmsParams, SecurityParams};

use crate::table::{f, pct, secs, Table};

/// e1_security — for each network capability set, which mechanisms does
/// negotiation select, and what do they cost?
pub fn e1_security() -> Table {
    let mut t = Table::new(
        "e1_security",
        "security mechanism selection from RMS parameters × network capabilities",
        "§2.5: 'in any case, the optimal mechanism is used' — trusted or hardware-assisted networks skip software crypto/checksums entirely",
    );
    t.columns(&[
        "network",
        "requested",
        "encrypt",
        "mac",
        "checksum",
        "cpu/KB",
    ]);

    let make_net = |kind: u8| -> NetworkSpec {
        let mut spec = NetworkSpec::ethernet("lan");
        spec.caps.raw_ber = 1e-6; // noisy enough that integrity needs care
        match kind {
            1 => spec.caps.trusted = true,
            2 => spec.caps.link_encryption = true,
            3 => {
                spec.caps.hardware_checksum = true;
                spec.caps.raw_ber = 1e-12;
            }
            _ => {}
        }
        spec
    };
    let net_name = |kind: u8| match kind {
        1 => "trusted",
        2 => "link-encrypt-hw",
        3 => "hw-checksum",
        _ => "plain",
    };

    for (req_name, security, ber) in [
        ("full security, low BER", SecurityParams::FULL, 1e-9),
        ("no security, lax BER", SecurityParams::NONE, 1e-3),
    ] {
        for kind in 0..4u8 {
            // The stream profile has no security knob — its data request
            // always asks for `SecurityParams::NONE` — so the selection
            // function is called directly with the parameters under test.
            let params = RmsParams::builder(64 * 1024, 1024)
                .security(security)
                .error_rate(BitErrorRate::new(ber).expect("valid"))
                .build()
                .expect("valid params");
            let caps = make_net(kind).caps;
            let (plan, _) = dash_security::suite::select_mechanisms(&params, &caps);
            let cost = plan.cost().cost_for(1024).as_nanos() as f64 / 1000.0;
            t.row(vec![
                net_name(kind).into(),
                req_name.into(),
                plan.encrypt.to_string(),
                plan.mac.to_string(),
                plan.checksum
                    .map(|a| format!("{a:?}"))
                    .unwrap_or("-".into()),
                format!("{}us", f(cost)),
            ]);
        }
    }
    t.note("mechanism columns come from §2.5's selection procedure; cpu/KB is the modelled cost of the selected plan");
    t.note("expected shape: trusted/hw rows select no software mechanisms (cpu/KB = 0)");
    t.note("no end-to-end column: a stream's data request carries no security, so a transfer would measure the same unsecured stream in every row; the end-to-end number waits for the benchmark's authenticated+private stream class");
    t
}

/// e2_scheduling — EDF vs FIFO vs static priority under mixed load (§4.1).
pub fn e2_scheduling() -> Table {
    let mut t = Table::new(
        "e2_scheduling",
        "deadline-based CPU + interface scheduling vs FIFO and priorities",
        "§4.1/§5: deadlines let low-delay traffic overtake bulk work; FIFO and priorities miss real-time deadlines",
    );
    t.columns(&[
        "cpu policy",
        "iface queue",
        "voice on-time",
        "voice p99",
        "rpc mean",
        "bulk goodput",
    ]);
    for (cpu_name, policy, disc_name, discipline) in [
        (
            "edf",
            SchedPolicy::Edf,
            "deadline",
            QueueDiscipline::Deadline,
        ),
        ("fifo", SchedPolicy::Fifo, "fifo", QueueDiscipline::Fifo),
        (
            "priority",
            SchedPolicy::Priority,
            "fifo",
            QueueDiscipline::Fifo,
        ),
    ] {
        let mut b = TopologyBuilder::new();
        let n = b.network(NetworkSpec::ethernet("lan"));
        let ha = b.host_on(n);
        let hb = b.host_on(n);
        let net_config = NetConfig {
            discipline,
            // Make protocol processing expensive enough that CPU scheduling
            // matters: 40 us fixed + 150 ns/byte per packet (the CPU, not
            // the wire, is the contended resource, as in §4.1's
            // protocol-process scheduling discussion).
            per_packet_cpu: CostModel::new(
                SimDuration::from_micros(40),
                SimDuration::from_nanos(150),
            ),
            ..NetConfig::default()
        };
        b.config(net_config);
        let st_config = StConfig {
            st_cpu: CostModel::new(SimDuration::from_micros(40), SimDuration::from_nanos(150)),
            ..StConfig::default()
        };
        let stack = StackBuilder::new(b.build())
            .st_config(st_config)
            .cpus(policy, SimDuration::from_micros(10))
            .build();
        let mut sim = Sim::new(stack);

        // Competing workloads on the same host pair: 2 s of voice, a
        // 768 KB transfer, 50 calls/s of RPC for 2 s.
        let plan = Plan {
            flows: vec![
                Flow::voice(ha, hb, 0, SimDuration::from_secs(2)),
                Flow::bulk(ha, hb, 768 * 1024, 8 * 1024, StreamProfile::bulk()),
            ],
            rpcs: vec![RpcFlow {
                client: ha,
                server: hb,
                service: 0x0101,
                calls: 100,
                interval: SimDuration::from_millis(20),
                start: SimDuration::ZERO,
                request: 64,
                reply: 256,
            }],
            ..Plan::default()
        };
        let acct = traffic::install(&mut sim, &plan, None);
        traffic::run_until_delivered(&mut sim, &acct, Class::Bulk, SimDuration::from_secs(3));
        // Bounded drain: under deliberate CPU overload the backlog can
        // outlive the workloads, so cap the tail.
        sim.run_until(sim.now() + SimDuration::from_millis(500));
        let a = acct.borrow();
        let mut vd = a.delays[Class::Voice as usize].clone();
        let bulk_goodput = a
            .goodput(Class::Bulk)
            .unwrap_or(a.bytes[Class::Bulk as usize] as f64 / 3.0);
        t.row(vec![
            cpu_name.into(),
            disc_name.into(),
            pct(a.on_time_fraction(Class::Voice)),
            secs(vd.quantile(0.99)),
            secs(a.rpc_latency.mean()),
            format!("{} B/s", f(bulk_goodput)),
        ]);
    }
    t.note("voice budget 40 ms; per-packet CPU cost inflated to 40 us + 150 ns/B so scheduling policy dominates");
    t.note("static priority collapses to FIFO here because all protocol jobs share one priority class — the paper's point that priorities alone cannot express per-message deadlines (§5)");
    t.note("expected shape: EDF+deadline keeps voice on time (bulk yields under overload, as its deadlines are loose); FIFO/priority miss voice deadlines without helping anything else");
    t
}
