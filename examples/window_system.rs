//! A network window system (paper §2.5, ref [7]).
//!
//! Mouse/keyboard events flow user → application on a low-capacity RMS;
//! graphics updates flow back on a higher-capacity one. The window system
//! is one word of the traffic plan, run by the one scenario runner; the
//! example prints the interaction (event → paint) latency distribution.
//!
//! ```text
//! cargo run --example window_system
//! ```

use dash::apps::scenario::{run, Backend, Scenario};
use dash::apps::traffic::{Plan, WindowFlow};
use dash::net::topology::two_hosts_ethernet;
use dash::sim::SimDuration;

fn main() {
    let (_, user, app) = two_hosts_ethernet();
    let window = WindowFlow {
        event_rate: 80.0, // a busy user
        duration: SimDuration::from_secs(3),
        ..WindowFlow::new(user, app, 99)
    };
    let plan = Plan {
        windows: vec![window],
        ..Plan::default()
    };
    let scn = Scenario::new(|| two_hosts_ethernet().0, plan, SimDuration::from_secs(4));
    let o = run(&scn, Backend::Serial);
    println!("{}", o.verdict);
    assert!(o.verdict.is_clean(), "the run broke an RMS guarantee");

    let w = &o.acct.windows[&0];
    let mut lat = w.delays.clone();
    println!("input events sent:        {}", w.sent);
    println!("events reaching the app:  {}", w.received);
    println!("graphics updates painted: {}", lat.count());
    println!(
        "interaction latency: mean {:.2} ms, p99 {:.2} ms, max {:.2} ms ({} over the {} ms budget)",
        lat.mean() * 1e3,
        lat.quantile(0.99) * 1e3,
        lat.max() * 1e3,
        w.late,
        window.budget.as_millis()
    );
    assert!(lat.count() > 0, "no update was painted");
    assert_eq!(w.late, 0, "a quiet LAN should feel instant");
}
