//! Digitized voice next to a bulk transfer — the paper's motivating mixed
//! workload (§1, §2.5).
//!
//! A 64 kb/s voice call shares a 10 Mb/s Ethernet with a saturating bulk
//! transfer. Because the voice stream's RMS has a low delay bound and the
//! bulk stream's a high one, deadline-ordered interfaces (§4.1, §2.5) keep
//! the voice frames on time anyway. Each workload is one `Flow` — a stream
//! profile plus pacing — and one driver runs them both.
//!
//! ```text
//! cargo run --example voice_stream
//! ```

use dash::apps::traffic::{self, Class, Flow, Plan};
use dash::net::topology::two_hosts_ethernet;
use dash::sim::{Sim, SimDuration};
use dash::transport::stack::StackBuilder;
use dash::transport::stream::StreamProfile;

fn main() {
    let (net, a, b) = two_hosts_ethernet();
    let mut sim = Sim::new(StackBuilder::new(net).build());

    let plan = Plan::from(vec![
        // A two-second call...
        Flow::voice(a, b, 0, SimDuration::from_secs(2)),
        // ...competing with a 768 KB transfer.
        Flow::bulk(a, b, 768 * 1024, 8 * 1024, StreamProfile::bulk()),
    ]);
    let acct = traffic::install(&mut sim, &plan, None);
    let done =
        traffic::run_until_delivered(&mut sim, &acct, Class::Bulk, SimDuration::from_secs(5));
    sim.run_until(sim.now() + SimDuration::from_secs(1));

    let s = acct.borrow();
    let voice = Class::Voice as usize;
    let mut delays = s.delays[voice].clone();
    println!(
        "voice: {} frames sent, {} received",
        s.sent[voice], s.received[voice]
    );
    println!(
        "voice: {:.1}% on time (40 ms budget), mean delay {:.2} ms, p99 {:.2} ms",
        s.on_time_fraction(Class::Voice) * 100.0,
        delays.mean() * 1e3,
        delays.quantile(0.99) * 1e3
    );
    println!(
        "bulk: complete={done}, goodput {:.0} KB/s",
        s.goodput(Class::Bulk).unwrap_or(0.0) / 1024.0
    );
    assert!(
        s.on_time_fraction(Class::Voice) > 0.9,
        "deadline queueing should protect voice"
    );
}
