//! Fault-injection plans: scripted and seeded-random schedules of network
//! failure/recovery, link flapping, host-pair partitions, burst loss
//! (Gilbert–Elliott), interface stalls, host crash/restart, and schedule
//! jitter.
//!
//! The paper treats reliability as a *negotiated parameter* (§2.1): a
//! reliable RMS must stay reliable — or fail with notification — when the
//! network under it misbehaves. This module only *describes* faults; the
//! network layer applies them (`dash_net::pipeline::schedule_fault_plan`).
//! Identifiers are raw `u32`s because `dash-sim` sits below the layer that
//! defines the id newtypes (the same convention as [`crate::obs::ObsEvent`]).
//!
//! Every random choice routes through the seeded [`Rng`], so a plan — and
//! therefore an entire chaos run — is reproducible from its seed.

use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};

/// A two-state Markov (Gilbert–Elliott) burst-loss channel: a *good* state
/// with low loss and a *bad* state with high loss, with per-packet
/// transition probabilities. Models correlated (bursty) loss that i.i.d.
/// drop probabilities cannot.
#[derive(Debug, Clone, PartialEq)]
pub struct GilbertElliott {
    /// Per-packet probability of entering the bad state from the good one.
    pub p_enter_bad: f64,
    /// Per-packet probability of leaving the bad state.
    pub p_exit_bad: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
    /// Current channel state.
    in_bad: bool,
}

impl GilbertElliott {
    /// A channel starting in the good state.
    pub fn new(p_enter_bad: f64, p_exit_bad: f64, loss_good: f64, loss_bad: f64) -> Self {
        GilbertElliott {
            p_enter_bad,
            p_exit_bad,
            loss_good,
            loss_bad,
            in_bad: false,
        }
    }

    /// Whether the channel is currently in the bad state.
    pub fn in_bad(&self) -> bool {
        self.in_bad
    }

    /// Advance the channel by one packet and sample whether it is lost.
    pub fn sample_loss(&mut self, rng: &mut Rng) -> bool {
        if self.in_bad {
            if rng.chance(self.p_exit_bad) {
                self.in_bad = false;
            }
        } else if rng.chance(self.p_enter_bad) {
            self.in_bad = true;
        }
        let p = if self.in_bad {
            self.loss_bad
        } else {
            self.loss_good
        };
        rng.chance(p)
    }
}

/// One injectable fault (or its recovery).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The network goes down: in-flight packets are lost, RMSs over it
    /// fail, admission rejects new RMSs on it.
    NetworkDown {
        /// The network id.
        network: u32,
    },
    /// The network comes back up; routes over it become usable again.
    NetworkUp {
        /// The network id.
        network: u32,
    },
    /// Traffic between the two hosts is silently dropped (in both
    /// directions) on every network, as if a filter partitioned them.
    Partition {
        /// One host.
        a: u32,
        /// The other host.
        b: u32,
    },
    /// The partition between the two hosts heals.
    HealPartition {
        /// One host.
        a: u32,
        /// The other host.
        b: u32,
    },
    /// The network's loss process switches to a Gilbert–Elliott burst
    /// channel (replacing its i.i.d. drop probability).
    BurstLossStart {
        /// The network id.
        network: u32,
        /// The burst channel model.
        model: GilbertElliott,
    },
    /// The network's loss process reverts to its configured i.i.d. drops.
    BurstLossEnd {
        /// The network id.
        network: u32,
    },
    /// The host's interface on the network stops transmitting for
    /// `duration` (queued packets wait; nothing is dropped by the stall
    /// itself).
    IfaceStall {
        /// The host.
        host: u32,
        /// The network whose interface stalls.
        network: u32,
        /// How long the interface is frozen.
        duration: SimDuration,
    },
    /// The host crashes: its queued packets are dropped, its RMS state is
    /// lost, and packets addressed to it die on arrival.
    HostCrash {
        /// The host.
        host: u32,
    },
    /// The host restarts with empty protocol state.
    HostRestart {
        /// The host.
        host: u32,
    },
    /// Every event scheduled from now on fires up to `max` late, by an
    /// amount drawn from `seed`
    /// ([`crate::engine::Sim::set_schedule_jitter`]); a zero
    /// `max` turns jitter off. Perturbs the interleaving, not the model.
    TimerJitter {
        /// Jitter stream seed.
        seed: u64,
        /// Largest additive delay.
        max: SimDuration,
    },
}

impl FaultKind {
    /// Short identifier used for per-fault-kind metric counters
    /// (`fault.<name>`).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::NetworkDown { .. } => "network_down",
            FaultKind::NetworkUp { .. } => "network_up",
            FaultKind::Partition { .. } => "partition",
            FaultKind::HealPartition { .. } => "heal_partition",
            FaultKind::BurstLossStart { .. } => "burst_loss_start",
            FaultKind::BurstLossEnd { .. } => "burst_loss_end",
            FaultKind::IfaceStall { .. } => "iface_stall",
            FaultKind::HostCrash { .. } => "host_crash",
            FaultKind::HostRestart { .. } => "host_restart",
            FaultKind::TimerJitter { .. } => "timer_jitter",
        }
    }
}

/// A fault scheduled at a virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// An ordered schedule of faults. Build one by hand ([`FaultPlan::at`],
/// [`FaultPlan::flap`]) or generate one from a seed
/// ([`FaultPlan::random`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled faults, sorted by time (ties keep insertion order).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedule `kind` at `at` (builder style).
    pub fn at(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self.sort();
        self
    }

    /// Link flapping: the network alternates down/up starting at `from`,
    /// staying down `down_for` and up `up_for`, until `until`. The plan
    /// always ends with the network up.
    pub fn flap(
        mut self,
        network: u32,
        from: SimTime,
        down_for: SimDuration,
        up_for: SimDuration,
        until: SimTime,
    ) -> Self {
        let mut t = from;
        while t < until {
            self.events.push(FaultEvent {
                at: t,
                kind: FaultKind::NetworkDown { network },
            });
            let up_at = t.saturating_add(down_for);
            self.events.push(FaultEvent {
                at: up_at.min(until),
                kind: FaultKind::NetworkUp { network },
            });
            t = up_at.saturating_add(up_for);
        }
        self.sort();
        self
    }

    /// A seeded random plan drawn from `cfg`. Every injected fault is
    /// paired with its recovery before `cfg.horizon`, so the world is
    /// healthy again once the plan has fully played out.
    pub fn random(rng: &mut Rng, cfg: &ChaosConfig) -> Self {
        let mut plan = FaultPlan::new();
        let n = rng.range(cfg.min_faults as u64, cfg.max_faults as u64 + 1) as usize;
        let horizon_us = cfg.horizon.as_micros().max(1);
        for _ in 0..n {
            // Faults start in the first three quarters of the window so
            // recoveries comfortably fit before the horizon.
            let start = SimTime::ZERO
                .saturating_add(SimDuration::from_micros(rng.below(horizon_us * 3 / 4)));
            let outage_us = rng.range(
                cfg.min_outage.as_micros().max(1),
                cfg.max_outage.as_micros().max(2),
            );
            let end = start
                .saturating_add(SimDuration::from_micros(outage_us))
                .min(SimTime::ZERO.saturating_add(cfg.horizon));
            let mut choices: Vec<u8> = Vec::new();
            if !cfg.networks.is_empty() {
                choices.push(0); // network down/up
                choices.push(2); // burst loss
            }
            if !cfg.host_pairs.is_empty() {
                choices.push(1); // partition
            }
            if !cfg.stall_targets.is_empty() {
                choices.push(3); // iface stall
            }
            if !cfg.crash_hosts.is_empty() {
                choices.push(4); // host crash/restart
            }
            let Some(&c) = rng.choose(&choices) else {
                break;
            };
            match c {
                0 => {
                    let network = *rng.choose(&cfg.networks).expect("non-empty");
                    plan.events.push(FaultEvent {
                        at: start,
                        kind: FaultKind::NetworkDown { network },
                    });
                    plan.events.push(FaultEvent {
                        at: end,
                        kind: FaultKind::NetworkUp { network },
                    });
                }
                1 => {
                    let (a, b) = *rng.choose(&cfg.host_pairs).expect("non-empty");
                    plan.events.push(FaultEvent {
                        at: start,
                        kind: FaultKind::Partition { a, b },
                    });
                    plan.events.push(FaultEvent {
                        at: end,
                        kind: FaultKind::HealPartition { a, b },
                    });
                }
                2 => {
                    let network = *rng.choose(&cfg.networks).expect("non-empty");
                    let model = GilbertElliott::new(
                        0.05 + rng.f64() * 0.2,
                        0.1 + rng.f64() * 0.3,
                        rng.f64() * 0.01,
                        0.5 + rng.f64() * 0.5,
                    );
                    plan.events.push(FaultEvent {
                        at: start,
                        kind: FaultKind::BurstLossStart { network, model },
                    });
                    plan.events.push(FaultEvent {
                        at: end,
                        kind: FaultKind::BurstLossEnd { network },
                    });
                }
                3 => {
                    let (host, network) = *rng.choose(&cfg.stall_targets).expect("non-empty");
                    plan.events.push(FaultEvent {
                        at: start,
                        kind: FaultKind::IfaceStall {
                            host,
                            network,
                            duration: end.saturating_since(start),
                        },
                    });
                }
                _ => {
                    let host = *rng.choose(&cfg.crash_hosts).expect("non-empty");
                    plan.events.push(FaultEvent {
                        at: start,
                        kind: FaultKind::HostCrash { host },
                    });
                    plan.events.push(FaultEvent {
                        at: end,
                        kind: FaultKind::HostRestart { host },
                    });
                }
            }
        }
        plan.sort();
        plan
    }

    fn sort(&mut self) {
        self.events.sort_by_key(|e| e.at);
    }
}

/// Parameters for [`FaultPlan::random`].
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Window the whole plan (faults and recoveries) fits in.
    pub horizon: SimDuration,
    /// Networks eligible for down/up and burst-loss faults.
    pub networks: Vec<u32>,
    /// Host pairs eligible for partitions.
    pub host_pairs: Vec<(u32, u32)>,
    /// `(host, network)` interfaces eligible for stalls.
    pub stall_targets: Vec<(u32, u32)>,
    /// Hosts eligible for crash/restart.
    pub crash_hosts: Vec<u32>,
    /// Minimum faults per plan.
    pub min_faults: usize,
    /// Maximum faults per plan.
    pub max_faults: usize,
    /// Shortest outage duration.
    pub min_outage: SimDuration,
    /// Longest outage duration.
    pub max_outage: SimDuration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            horizon: SimDuration::from_secs(2),
            networks: Vec::new(),
            host_pairs: Vec::new(),
            stall_targets: Vec::new(),
            crash_hosts: Vec::new(),
            min_faults: 1,
            max_faults: 5,
            min_outage: SimDuration::from_millis(10),
            max_outage: SimDuration::from_millis(300),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gilbert_elliott_burst_losses_cluster() {
        let mut rng = Rng::new(7);
        let mut ge = GilbertElliott::new(0.05, 0.2, 0.0, 1.0);
        let outcomes: Vec<bool> = (0..10_000).map(|_| ge.sample_loss(&mut rng)).collect();
        let losses = outcomes.iter().filter(|&&l| l).count();
        // Stationary bad-state occupancy = p_enter / (p_enter + p_exit) = 0.2.
        assert!(losses > 1_000 && losses < 3_200, "losses = {losses}");
        // Losses are correlated: P(loss | previous loss) far above the
        // marginal rate.
        let mut after_loss = 0usize;
        let mut loss_pairs = 0usize;
        for w in outcomes.windows(2) {
            if w[0] {
                after_loss += 1;
                if w[1] {
                    loss_pairs += 1;
                }
            }
        }
        let cond = loss_pairs as f64 / after_loss as f64;
        assert!(cond > 0.5, "conditional loss rate {cond} not bursty");
    }

    #[test]
    fn random_plans_are_deterministic_per_seed() {
        let cfg = ChaosConfig {
            networks: vec![0, 1],
            host_pairs: vec![(0, 1)],
            stall_targets: vec![(0, 0), (1, 1)],
            crash_hosts: vec![1],
            ..ChaosConfig::default()
        };
        let a = FaultPlan::random(&mut Rng::new(42), &cfg);
        let b = FaultPlan::random(&mut Rng::new(42), &cfg);
        assert_eq!(a, b);
        assert!(!a.events.is_empty());
        let c = FaultPlan::random(&mut Rng::new(43), &cfg);
        assert_ne!(a, c, "different seeds should differ (vanishingly rare tie)");
    }

    #[test]
    fn random_plans_heal_everything_within_horizon() {
        let cfg = ChaosConfig {
            networks: vec![0, 1],
            host_pairs: vec![(0, 1)],
            crash_hosts: vec![0],
            ..ChaosConfig::default()
        };
        for seed in 0..50 {
            let plan = FaultPlan::random(&mut Rng::new(seed), &cfg);
            let horizon = SimTime::ZERO.saturating_add(cfg.horizon);
            let mut down = 0i64;
            let mut parts = 0i64;
            let mut crashed = 0i64;
            for e in &plan.events {
                assert!(e.at <= horizon, "event past horizon: {:?}", e);
                match e.kind {
                    FaultKind::NetworkDown { .. } => down += 1,
                    FaultKind::NetworkUp { .. } => down -= 1,
                    FaultKind::Partition { .. } => parts += 1,
                    FaultKind::HealPartition { .. } => parts -= 1,
                    FaultKind::HostCrash { .. } => crashed += 1,
                    FaultKind::HostRestart { .. } => crashed -= 1,
                    _ => {}
                }
            }
            assert_eq!(down, 0, "unmatched network down (seed {seed})");
            assert_eq!(parts, 0, "unmatched partition (seed {seed})");
            assert_eq!(crashed, 0, "unmatched crash (seed {seed})");
        }
    }

    #[test]
    fn flap_ends_up() {
        let t = |us| SimTime::ZERO.saturating_add(SimDuration::from_micros(us));
        let plan = FaultPlan::new().flap(
            3,
            t(1000),
            SimDuration::from_micros(500),
            SimDuration::from_micros(500),
            t(4000),
        );
        assert!(!plan.events.is_empty());
        let last_state_change = plan
            .events
            .iter()
            .rev()
            .find(|e| {
                matches!(
                    e.kind,
                    FaultKind::NetworkDown { .. } | FaultKind::NetworkUp { .. }
                )
            })
            .unwrap();
        assert!(matches!(
            last_state_change.kind,
            FaultKind::NetworkUp { network: 3 }
        ));
        // Sorted by time.
        assert!(plan.events.windows(2).all(|w| w[0].at <= w[1].at));
    }
}
