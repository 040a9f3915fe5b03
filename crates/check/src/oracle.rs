//! The semantic oracle: a reference model of the stack's guarantees fed
//! from the observability stream.
//!
//! The oracle is an [`ObsSink`], so it watches any instrumented run —
//! explorer scenarios, the e10/e11 macro-workloads under `--oracle`, or
//! an ad-hoc test — without touching the code under test. It checks five
//! invariants online and one at end of run:
//!
//! | invariant          | events consumed                               | claim |
//! |--------------------|-----------------------------------------------|-------|
//! | `fifo`             | `StreamDeliver`                               | per-session delivery never duplicates or reorders; with `check_fifo_gaps` (all-reliable runs) it is the contiguous prefix `0..n` |
//! | `admission-ledger` | `AdmissionDecision`                           | deterministic reservations never exceed the ledger budget (§2.3) |
//! | `det-delay`        | `StDeliver { det, late }`                     | deterministic-class deliveries meet `A + B·size` (§2.2) while the world is healthy |
//! | `route-loop`       | `RoutingPathPinned`                           | pinned source routes visit no host twice |
//! | `no-spurious-work` | `StreamRetransmit`, `IfaceDrop`, `WireDrop`, `Drop`, fault events | a reliable stream repairs (`DupAck`/`PartialAck` retransmit) only after the run has shown loss evidence |
//! | `completion`       | `TransportSend`/`StreamEnd`/`StreamOpenFailed` | at quiescence, every accepted send was delivered or the session saw a *typed* failure |
//!
//! `det-delay` excuses lateness once any fault has been observed: under
//! an injected outage the delay contract is explicitly void (reliability
//! and delay are negotiated for the healthy network, §2.1), and queued
//! backlog may drain late even after recovery. Schedule jitter is injected
//! as a fault (`timer_jitter`), so the same excuse covers it and
//! `no-spurious-work`; both are off on a wall-paced schedule
//! ([`OracleConfig::check_det_delay`]). `no-spurious-work` judges
//! the evidence-driven repairs only: a timeout retransmission is the
//! sender's last resort when evidence cannot reach it (a lost tail, lost
//! acks), so `Rto` retransmits are counted
//! ([`OracleHandle::rto_retransmits`]) and not judged. `completion` only makes
//! sense for runs driven to quiescence, so it is a config switch —
//! horizon-cut bench runs leave traffic legitimately in flight.
//!
//! Every violation carries a bounded trailing window of the raw event
//! trace, so a failure is diagnosable without re-running.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use dash_sim::obs::{ObsEvent, ObsSink, RetransmitCause};
use dash_sim::time::SimTime;

/// Trailing raw events kept for the violation trace.
const TRACE_WINDOW: usize = 64;

/// Relative slack for the ledger comparison: reservations are sums of
/// `f64` implied bandwidths, so exact equality at the budget must not
/// count as oversubscription.
const LEDGER_SLACK: f64 = 1e-9;

/// Which checks the oracle runs.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// End-of-run completeness-or-typed-failure check. Enable for runs
    /// driven to quiescence; disable for horizon-cut workloads.
    pub check_completion: bool,
    /// The two checks that only hold on an unperturbed virtual clock:
    /// `det-delay` and `no-spurious-work` above. Disable when the schedule
    /// is paced against the wall clock (or jittered without a
    /// `timer_jitter` fault announcing it): jitter may legitimately push a
    /// healthy deterministic delivery past its bound, and it (or a lossy
    /// real substrate) reorders or loses arrivals without any drop event —
    /// genuine gap evidence for a receiver, invisible to the oracle. (One
    /// switch, named for the older check.)
    pub check_det_delay: bool,
    /// Treat a delivery-sequence gap as a `fifo` violation. Only sound
    /// when every stream in the run is reliable: an *unreliable* stream
    /// legitimately skips lost messages, so mixed workloads (the bench
    /// macro-runs) disable this and keep the duplicate/reorder check,
    /// which holds for any stream.
    pub check_fifo_gaps: bool,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            check_completion: true,
            check_det_delay: true,
            check_fifo_gaps: true,
        }
    }
}

/// One invariant violation, with the trailing event window at the moment
/// it was detected.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Short invariant name (`fifo`, `admission-ledger`, `det-delay`,
    /// `route-loop`, `no-spurious-work`, `completion`, `no-wedge`).
    pub invariant: &'static str,
    /// Virtual time of detection.
    pub at: SimTime,
    /// What went wrong.
    pub detail: String,
    /// The last `TRACE_WINDOW` (64) raw events up to and including the
    /// violating one, oldest first.
    pub trace: Vec<String>,
}

#[derive(Debug, Default)]
struct Sessions {
    /// Sends the transport accepted, per session.
    accepted: BTreeMap<u64, u64>,
    /// Next expected sequence number at the receiver, per session.
    next_seq: BTreeMap<u64, u64>,
    /// Count of deliveries observed at the receiver, per session.
    delivered: BTreeMap<u64, u64>,
    /// Sessions that ended; `true` means a typed failure.
    ended: BTreeMap<u64, bool>,
    /// Sessions whose open failed (a typed outcome too).
    open_failed: BTreeSet<u64>,
}

#[derive(Debug)]
struct OracleState {
    cfg: OracleConfig,
    sessions: Sessions,
    /// Set once any fault fires; suspends `det-delay` (see module docs).
    fault_seen: bool,
    /// Set once a packet or message was dropped (queue overflow, wire
    /// loss/damage, or any typed [`ObsEvent::Drop`] cause).
    drop_seen: bool,
    /// Timeout retransmissions seen (counted, not judged).
    rto_retransmits: u64,
    /// The trailing raw events, rendered only when a violation copies
    /// them into its trace.
    ring: VecDeque<(SimTime, ObsEvent)>,
    violations: Vec<Violation>,
    /// Previous event's fast index, for transition-bigram coverage.
    last_kind: Option<u16>,
    /// Observed (event-kind → event-kind) transitions. Not an invariant:
    /// this is the coverage signal [`crate::explore`] feeds on, collected
    /// here so one sink pass serves both the oracle and the explorer.
    bigrams: BTreeSet<(u16, u16)>,
}

impl OracleState {
    fn violate(&mut self, invariant: &'static str, at: SimTime, detail: String) {
        let trace = self
            .ring
            .iter()
            .map(|(t, e)| format!("{} {} {e:?}", t.as_nanos(), e.name()))
            .collect();
        self.violations.push(Violation {
            invariant,
            at,
            detail,
            trace,
        });
    }

    fn see(&mut self, time: SimTime, event: &ObsEvent) {
        if self.ring.len() == TRACE_WINDOW {
            self.ring.pop_front();
        }
        self.ring.push_back((time, event.clone()));

        let kind = event.fast_index() as u16;
        if let Some(prev) = self.last_kind {
            self.bigrams.insert((prev, kind));
        }
        self.last_kind = Some(kind);

        match event {
            ObsEvent::FaultInjected { .. }
            | ObsEvent::NetworkFailed { .. }
            | ObsEvent::HostCrashed { .. } => self.fault_seen = true,
            ObsEvent::IfaceDrop { .. } | ObsEvent::WireDrop { .. } | ObsEvent::Drop { .. } => {
                self.drop_seen = true
            }
            ObsEvent::StreamRetransmit {
                cause: RetransmitCause::Rto,
                ..
            } => self.rto_retransmits += 1,
            ObsEvent::StreamRetransmit {
                host,
                session,
                seq,
                cause,
            } if self.cfg.check_det_delay && !self.drop_seen && !self.fault_seen => {
                self.violate(
                    "no-spurious-work",
                    time,
                    format!(
                        "host {host} session {session}: {} retransmit of #{seq} with no \
                         drop, fault or crash observed so far",
                        cause.name()
                    ),
                );
            }
            ObsEvent::AdmissionDecision {
                host,
                reserved_bps,
                budget_bps,
                ..
            } if *reserved_bps > budget_bps * (1.0 + LEDGER_SLACK) => {
                self.violate(
                    "admission-ledger",
                    time,
                    format!(
                        "host {host}: ledger oversubscribed, reserved \
                         {reserved_bps:.0} B/s > deterministic budget {budget_bps:.0} B/s"
                    ),
                );
            }
            ObsEvent::TransportSend { session, .. } => {
                *self.sessions.accepted.entry(*session).or_default() += 1;
            }
            ObsEvent::StreamDeliver { session, seq, .. } => {
                let expected = *self.sessions.next_seq.get(session).unwrap_or(&0);
                if *seq < expected {
                    self.violate(
                        "fifo",
                        time,
                        format!(
                            "session {session}: duplicate/reorder — delivered #{seq} \
                             after #{}",
                            expected - 1
                        ),
                    );
                } else if *seq > expected && self.cfg.check_fifo_gaps {
                    self.violate(
                        "fifo",
                        time,
                        format!("session {session}: gap — delivered #{seq}, expected #{expected}"),
                    );
                }
                self.sessions
                    .next_seq
                    .insert(*session, (*seq + 1).max(expected));
                *self.sessions.delivered.entry(*session).or_default() += 1;
            }
            ObsEvent::StDeliver {
                st_rms,
                seq,
                late: true,
                det: true,
                ..
            } if self.cfg.check_det_delay && !self.fault_seen => {
                self.violate(
                    "det-delay",
                    time,
                    format!(
                        "st {st_rms} #{seq}: deterministic delivery missed its \
                         A + B*size bound on a healthy network"
                    ),
                );
            }
            ObsEvent::StreamEnd {
                session, failed, ..
            } => {
                let e = self.sessions.ended.entry(*session).or_default();
                *e = *e || *failed;
            }
            ObsEvent::StreamRetriesExhausted { session, .. } => {
                self.sessions.ended.insert(*session, true);
            }
            ObsEvent::StreamOpenFailed { session, .. } => {
                self.sessions.open_failed.insert(*session);
            }
            ObsEvent::RoutingPathPinned { host, hops } => {
                let mut seen = BTreeSet::new();
                if !hops.iter().all(|h| seen.insert(*h)) {
                    self.violate(
                        "route-loop",
                        time,
                        format!("host {host}: pinned source route revisits a host: {hops:?}"),
                    );
                }
            }
            _ => {}
        }
    }

    fn finish(&mut self, at: SimTime) {
        if !self.cfg.check_completion {
            return;
        }
        let shortfalls: Vec<(u64, u64, u64)> = self
            .sessions
            .accepted
            .iter()
            .filter_map(|(&session, &sent)| {
                let got = self.sessions.delivered.get(&session).copied().unwrap_or(0);
                (got < sent).then_some((session, sent, got))
            })
            .collect();
        for (session, sent, got) in shortfalls {
            let typed = self.sessions.ended.get(&session).copied().unwrap_or(false)
                || self.sessions.open_failed.contains(&session);
            if !typed {
                self.violate(
                    "completion",
                    at,
                    format!(
                        "session {session}: {got} of {sent} accepted sends delivered \
                         at quiescence, yet no typed failure was surfaced"
                    ),
                );
            }
        }
    }
}

/// The sink half of the oracle; install it with
/// `obs.add_boxed_sink(Box::new(sink))`.
pub struct OracleSink {
    state: Rc<RefCell<OracleState>>,
}

impl ObsSink for OracleSink {
    fn on_event(&mut self, time: SimTime, event: &ObsEvent) {
        self.state.borrow_mut().see(time, event);
    }
}

/// The reader half: query violations and coverage after (or during) the
/// run. Cheap to clone.
#[derive(Clone)]
pub struct OracleHandle {
    state: Rc<RefCell<OracleState>>,
}

impl OracleHandle {
    /// Run the end-of-run checks (completeness-or-typed-failure). Call at
    /// quiescence, passing the final virtual time.
    pub fn finish(&self, at: SimTime) {
        self.state.borrow_mut().finish(at);
    }

    /// Record an externally detected violation (e.g. the runner's wedge
    /// detector), with whatever trailing trace the oracle has.
    pub fn report(&self, invariant: &'static str, at: SimTime, detail: String) {
        self.state.borrow_mut().violate(invariant, at, detail);
    }

    /// Violations found so far, in detection order.
    pub fn violations(&self) -> Vec<Violation> {
        self.state.borrow().violations.clone()
    }

    /// True once any violation was recorded — the fail-fast poll.
    pub fn violated(&self) -> bool {
        !self.state.borrow().violations.is_empty()
    }

    /// Timeout (`Rto`) retransmissions observed — reported, never judged.
    pub fn rto_retransmits(&self) -> u64 {
        self.state.borrow().rto_retransmits
    }

    /// The session table's totals: `(deliveries, sessions with a typed
    /// failure)`. A suite reads them to show its runs were not vacuous —
    /// that traffic flowed and the faults had teeth.
    pub fn session_totals(&self) -> (u64, u64) {
        let st = self.state.borrow();
        let s = &st.sessions;
        let delivered = s.delivered.values().sum();
        let failed = s.ended.iter().filter(|&(_, &f)| f).map(|(id, _)| id);
        let typed = failed.chain(&s.open_failed).collect::<BTreeSet<_>>().len() as u64;
        (delivered, typed)
    }

    /// Observed event-kind transition bigrams (the coverage signal).
    pub fn bigrams(&self) -> BTreeSet<(u16, u16)> {
        self.state.borrow().bigrams.clone()
    }
}

/// Build an oracle: the sink to install and the handle to read.
pub fn oracle(cfg: OracleConfig) -> (OracleSink, OracleHandle) {
    let state = Rc::new(RefCell::new(OracleState {
        cfg,
        sessions: Sessions::default(),
        fault_seen: false,
        drop_seen: false,
        rto_retransmits: 0,
        ring: VecDeque::with_capacity(TRACE_WINDOW),
        violations: Vec::new(),
        last_kind: None,
        bigrams: BTreeSet::new(),
    }));
    (
        OracleSink {
            state: Rc::clone(&state),
        },
        OracleHandle { state },
    )
}

/// Check the merged event stream of a horizon-cut macro run
/// (`dash_apps::scenario::Outcome::stream`); one human-readable line per
/// violation. Completion is off (traffic is legitimately in flight at the
/// cut) and FIFO-gap checking is off (unreliable media legitimately skips
/// lost messages). `det_delay` (which also carries `no-spurious-work`)
/// stays on wherever virtual time is the only clock — fault drills
/// self-excuse — and goes off on the rt backend, where wall lag feeds real
/// carriage timing back into arrival times.
pub fn check_stream(stream: &[(SimTime, ObsEvent)], det_delay: bool) -> Vec<String> {
    let (mut sink, handle) = oracle(OracleConfig {
        check_completion: false,
        check_det_delay: det_delay,
        check_fifo_gaps: false,
    });
    for (t, e) in stream {
        sink.on_event(*t, e);
    }
    handle
        .violations()
        .iter()
        .map(|v| format!("[{}] t={} {}", v.invariant, v.at.as_nanos(), v.detail))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_sim::obs::DropCause;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn feed(sink: &mut OracleSink, ns: u64, ev: ObsEvent) {
        sink.on_event(t(ns), &ev);
    }

    #[test]
    fn fifo_catches_gap_duplicate_and_passes_in_order() {
        let (mut sink, handle) = oracle(OracleConfig::default());
        for seq in 0..3 {
            feed(
                &mut sink,
                seq,
                ObsEvent::StreamDeliver {
                    host: 1,
                    session: 7,
                    seq,
                },
            );
        }
        assert!(!handle.violated());
        // A duplicate of #1 and then a gap to #5.
        feed(
            &mut sink,
            10,
            ObsEvent::StreamDeliver {
                host: 1,
                session: 7,
                seq: 1,
            },
        );
        feed(
            &mut sink,
            11,
            ObsEvent::StreamDeliver {
                host: 1,
                session: 7,
                seq: 5,
            },
        );
        let v = handle.violations();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].invariant, "fifo");
        assert!(v[0].detail.contains("duplicate"), "{}", v[0].detail);
        assert!(v[1].detail.contains("gap"), "{}", v[1].detail);
        // The trace is rendered at the violation: time, name, raw event.
        assert_eq!(v[0].trace.len(), 4);
        assert_eq!(
            v[0].trace[0],
            "0 stream.deliver StreamDeliver { host: 1, session: 7, seq: 0 }"
        );
    }

    #[test]
    fn ledger_oversubscription_is_flagged_but_boundary_is_not() {
        let (mut sink, handle) = oracle(OracleConfig::default());
        feed(
            &mut sink,
            1,
            ObsEvent::AdmissionDecision {
                host: 0,
                admitted: true,
                reserved_bps: 900_000.0,
                budget_bps: 900_000.0,
            },
        );
        assert!(!handle.violated(), "exactly-at-budget is legal");
        feed(
            &mut sink,
            2,
            ObsEvent::AdmissionDecision {
                host: 0,
                admitted: true,
                reserved_bps: 2_000_000.0,
                budget_bps: 1_125_000.0,
            },
        );
        let v = handle.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "admission-ledger");
    }

    #[test]
    fn det_delay_flags_healthy_lateness_and_excuses_faulted_runs() {
        let late = |st_rms| ObsEvent::StDeliver {
            host: 1,
            st_rms,
            seq: 0,
            bytes: 64,
            late: true,
            det: true,
            span: None,
        };
        let (mut sink, handle) = oracle(OracleConfig::default());
        feed(&mut sink, 1, late(1));
        assert_eq!(handle.violations()[0].invariant, "det-delay");

        let (mut sink, handle) = oracle(OracleConfig::default());
        feed(&mut sink, 1, ObsEvent::FaultInjected { kind: "partition" });
        feed(&mut sink, 2, late(1));
        assert!(!handle.violated(), "fault excuses deterministic lateness");

        // Late *statistical* deliveries are never violations.
        let (mut sink, handle) = oracle(OracleConfig::default());
        feed(
            &mut sink,
            1,
            ObsEvent::StDeliver {
                host: 1,
                st_rms: 1,
                seq: 0,
                bytes: 64,
                late: true,
                det: false,
                span: None,
            },
        );
        assert!(!handle.violated());
    }

    #[test]
    fn route_loop_detection() {
        let (mut sink, handle) = oracle(OracleConfig::default());
        feed(
            &mut sink,
            1,
            ObsEvent::RoutingPathPinned {
                host: 0,
                hops: vec![0, 3, 5, 2],
            },
        );
        assert!(!handle.violated());
        feed(
            &mut sink,
            2,
            ObsEvent::RoutingPathPinned {
                host: 0,
                hops: vec![0, 3, 5, 3, 2],
            },
        );
        assert_eq!(handle.violations()[0].invariant, "route-loop");
    }

    #[test]
    fn repair_without_loss_evidence_is_spurious_work() {
        let rtx = |cause| ObsEvent::StreamRetransmit {
            host: 0,
            session: 5,
            seq: 3,
            cause,
        };
        // No drop, fault or crash so far: an evidence-driven repair is a
        // violation with its trace; a timeout is only counted.
        let (mut sink, handle) = oracle(OracleConfig::default());
        feed(&mut sink, 1, rtx(RetransmitCause::Rto));
        assert!(!handle.violated());
        assert_eq!(handle.rto_retransmits(), 1);
        feed(&mut sink, 2, rtx(RetransmitCause::DupAck));
        feed(&mut sink, 3, rtx(RetransmitCause::PartialAck));
        let v = handle.violations();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].invariant, "no-spurious-work");
        assert!(v[0].detail.contains("dup_ack"), "{}", v[0].detail);
        assert!(v[1].detail.contains("partial_ack"), "{}", v[1].detail);
        assert_eq!(v[1].trace.len(), 3, "violation must carry its trace");

        // A jittered or wall-paced run reorders arrivals with no drop event:
        // the check is off with `det-delay`.
        let (mut sink, handle) = oracle(OracleConfig {
            check_det_delay: false,
            ..OracleConfig::default()
        });
        feed(&mut sink, 1, rtx(RetransmitCause::DupAck));
        assert!(!handle.violated());

        // Every kind of loss evidence excuses the repairs that follow it.
        for evidence in [
            ObsEvent::WireDrop {
                host: 0,
                network: 1,
            },
            ObsEvent::IfaceDrop { host: 0, iface: 0 },
            ObsEvent::Drop {
                host: 0,
                cause: DropCause::NoRoute,
            },
            ObsEvent::Drop {
                host: 0,
                cause: DropCause::Ttl,
            },
            ObsEvent::FaultInjected { kind: "partition" },
            ObsEvent::NetworkFailed { network: 1 },
            ObsEvent::HostCrashed { host: 2 },
        ] {
            let (mut sink, handle) = oracle(OracleConfig::default());
            feed(&mut sink, 1, evidence);
            feed(&mut sink, 2, rtx(RetransmitCause::DupAck));
            feed(&mut sink, 3, rtx(RetransmitCause::PartialAck));
            assert!(!handle.violated(), "{:?}", handle.violations());
        }
    }

    #[test]
    fn completion_requires_delivery_or_typed_failure() {
        let send = |session, seq| ObsEvent::TransportSend {
            host: 0,
            session,
            seq,
            bytes: 64,
            span: None,
        };
        let dlv = |session, seq| ObsEvent::StreamDeliver {
            host: 1,
            session,
            seq,
        };
        // Delivered in full: clean.
        let (mut sink, handle) = oracle(OracleConfig::default());
        feed(&mut sink, 1, send(5, 0));
        feed(&mut sink, 2, dlv(5, 0));
        handle.finish(t(3));
        assert!(!handle.violated());
        assert_eq!(handle.session_totals(), (1, 0));

        // Shortfall with a typed end: clean.
        let (mut sink, handle) = oracle(OracleConfig::default());
        feed(&mut sink, 1, send(5, 0));
        feed(
            &mut sink,
            2,
            ObsEvent::StreamEnd {
                host: 0,
                session: 5,
                failed: true,
            },
        );
        handle.finish(t(3));
        assert!(!handle.violated());
        assert_eq!(handle.session_totals(), (0, 1));

        // Silent shortfall: violation.
        let (mut sink, handle) = oracle(OracleConfig::default());
        feed(&mut sink, 1, send(5, 0));
        handle.finish(t(3));
        assert_eq!(handle.violations()[0].invariant, "completion");

        // An orderly close does not excuse a shortfall.
        let (mut sink, handle) = oracle(OracleConfig::default());
        feed(&mut sink, 1, send(5, 0));
        feed(
            &mut sink,
            2,
            ObsEvent::StreamEnd {
                host: 0,
                session: 5,
                failed: false,
            },
        );
        handle.finish(t(3));
        assert_eq!(handle.violations()[0].invariant, "completion");
    }

    #[test]
    fn bigram_coverage_accumulates_transitions() {
        let (mut sink, handle) = oracle(OracleConfig::default());
        feed(&mut sink, 1, ObsEvent::CacheHit { host: 0 });
        feed(&mut sink, 2, ObsEvent::CacheMiss { host: 0 });
        feed(&mut sink, 3, ObsEvent::CacheHit { host: 0 });
        feed(&mut sink, 4, ObsEvent::CacheMiss { host: 0 });
        let hit = ObsEvent::CacheHit { host: 0 }.fast_index() as u16;
        let miss = ObsEvent::CacheMiss { host: 0 }.fast_index() as u16;
        let bg = handle.bigrams();
        assert_eq!(bg.len(), 2);
        assert!(bg.contains(&(hit, miss)) && bg.contains(&(miss, hit)));
    }
}
