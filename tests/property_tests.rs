//! Property-based tests over the core invariants (proptest).

use proptest::prelude::*;

use bytes::Bytes;
use dash::core::compat::{is_compatible, negotiate, PerfLimits, RmsRequest, ServiceTable};
use dash::core::delay::{DelayBound, DelayBoundKind, StatisticalSpec};
use dash::core::params::{BitErrorRate, Reliability, RmsParams, SecurityParams};
use dash::core::wire::WireMsg;
use dash::security::checksum::Algorithm;
use dash::security::cipher::Key;
use dash::security::mac;
use dash::sim::time::{SimDuration, SimTime};
use dash::subtransport::frag::{fragment, FragSpec, Reassembly};
use dash::subtransport::ids::StRmsId;
use dash::subtransport::piggyback::{PendingEntry, PiggybackQueue, PushOutcome};
use dash::subtransport::wire::{self, DataFrame, Frame};

/// Pull the sequence number back out of a pre-encoded pending entry.
fn decoded_seq(w: &WireMsg) -> u64 {
    match wire::decode(w).expect("entries hold valid frames") {
        Frame::Data(d) => d.seq,
        other => panic!("unexpected frame {other:?}"),
    }
}
use dash::subtransport::wire::ControlMsg;
use dash::transport::flow::{AckWindow, RateLimiter, ReceiverWindow};

/// Ethernet MTU used by the repo's topology helpers
/// (`NetworkSpec::ethernet`): the interesting payload boundaries for the
/// scatter-gather codec sit on either side of it.
const MTU: usize = 1536;

fn boundary_size() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(MTU - 1),
        Just(MTU),
        Just(MTU + 1),
        Just(64usize * 1024),
    ]
}

fn arb_ctrl() -> impl Strategy<Value = ControlMsg> {
    prop_oneof![
        (any::<u32>(), any::<u64>(), any::<u64>())
            .prop_map(|(host, nonce, tag)| ControlMsg::Hello { host, nonce, tag }),
        (any::<u32>(), any::<u64>(), any::<u64>())
            .prop_map(|(host, nonce, tag)| ControlMsg::HelloAck { host, nonce, tag }),
        (
            any::<u64>(),
            arb_params(),
            any::<bool>(),
            proptest::collection::vec(any::<u8>(), 0..wire::MAX_OPENING_HEADER + 1)
        )
            .prop_map(|(s, params, fast_ack, header)| ControlMsg::StCreateReq {
                st_rms: StRmsId(s),
                params,
                fast_ack,
                header: Bytes::from(header),
            }),
        any::<u64>().prop_map(|s| ControlMsg::StCreateAck { st_rms: StRmsId(s) }),
        any::<u64>().prop_map(|s| ControlMsg::StCreateNak { st_rms: StRmsId(s) }),
        any::<u64>().prop_map(|s| ControlMsg::StClose { st_rms: StRmsId(s) }),
    ]
}

fn arb_security() -> impl Strategy<Value = SecurityParams> {
    prop_oneof![
        Just(SecurityParams::NONE),
        Just(SecurityParams::FULL),
        Just(SecurityParams {
            authentication: dash::core::params::Authentication::Authenticated,
            privacy: dash::core::params::Privacy::Open,
        }),
        Just(SecurityParams {
            authentication: dash::core::params::Authentication::Unauthenticated,
            privacy: dash::core::params::Privacy::Private,
        }),
    ]
}

fn arb_kind() -> impl Strategy<Value = DelayBoundKind> {
    prop_oneof![
        Just(DelayBoundKind::BestEffort),
        Just(DelayBoundKind::Deterministic),
        (1.0f64..1e7, 1.0f64..8.0, 0.5f64..1.0)
            .prop_map(|(l, b, p)| DelayBoundKind::Statistical(StatisticalSpec::new(l, b, p))),
    ]
}

fn arb_params() -> impl Strategy<Value = RmsParams> {
    (
        any::<bool>(),
        arb_security(),
        1u64..1_000_000,
        arb_kind(),
        1u64..1_000_000_000,
        0u64..100_000,
        0.0f64..0.01,
    )
        .prop_map(|(rel, sec, capacity, kind, fixed_ns, per_byte_ns, ber)| {
            let mms = (capacity / 2).max(1);
            RmsParams {
                reliability: if rel {
                    Reliability::Reliable
                } else {
                    Reliability::Unreliable
                },
                security: sec,
                capacity,
                max_message_size: mms,
                delay: DelayBound {
                    fixed: SimDuration::from_nanos(fixed_ns),
                    per_byte: SimDuration::from_nanos(per_byte_ns),
                    kind,
                },
                error_rate: BitErrorRate::new(ber).expect("in range"),
            }
        })
}

proptest! {
    /// Compatibility is reflexive and transitive over the parameter lattice.
    #[test]
    fn compatibility_reflexive_and_transitive(
        a in arb_params(), b in arb_params(), c in arb_params()
    ) {
        prop_assert!(is_compatible(&a, &a));
        if is_compatible(&a, &b) && is_compatible(&b, &c) {
            prop_assert!(is_compatible(&a, &c));
        }
    }

    /// Whatever negotiation produces is compatible with the acceptable set.
    #[test]
    fn negotiation_respects_the_floor(floor in arb_params()) {
        let mut table = ServiceTable::new();
        table.support(
            Reliability::Reliable,
            SecurityParams::FULL,
            PerfLimits {
                min_fixed_delay: SimDuration::ZERO,
                min_per_byte_delay: SimDuration::ZERO,
                max_capacity: u64::MAX,
                max_message_size: u64::MAX,
                min_error_rate: BitErrorRate::ZERO,
                max_kind_strength: 2,
            },
        );
        let request = RmsRequest::exact(floor.clone());
        if let Ok(actual) = negotiate(&table, &request) {
            prop_assert!(is_compatible(&actual, &floor));
        }
    }

    /// The ST wire codec round-trips arbitrary data frames.
    #[test]
    fn wire_codec_round_trips(
        st_rms in any::<u64>(),
        seq in any::<u64>(),
        fast_ack in any::<bool>(),
        sent_ns in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let frame = Frame::Data(DataFrame {
            st_rms: StRmsId(st_rms),
            seq,
            frag: None,
            sent_at: SimTime::from_nanos(sent_ns),
            fast_ack,
            source: None,
            target: None,
            span: None,
            payload: WireMsg::from(payload),
        });
        let decoded = wire::decode(&wire::encode(&frame)).expect("round trip");
        prop_assert_eq!(decoded, frame);
    }

    /// Data, Ctrl, and Bundle frames all round-trip through the
    /// scatter-gather codec at the MTU boundary payload sizes
    /// (0, 1, MTU-1, MTU, MTU+1, 64K).
    #[test]
    fn wire_codec_round_trips_at_boundary_sizes(
        size in boundary_size(),
        seq in any::<u64>(),
        fill in any::<u8>(),
        ctrl in arb_ctrl(),
        bundle_sizes in proptest::collection::vec(boundary_size(), 1..4),
    ) {
        let data = |sz: usize, seq: u64| DataFrame {
            st_rms: StRmsId(9),
            seq,
            frag: None,
            sent_at: SimTime::from_nanos(41),
            fast_ack: false,
            source: None,
            target: None,
            span: None,
            payload: WireMsg::from(vec![fill; sz]),
        };
        let bundle: Vec<DataFrame> = bundle_sizes
            .iter()
            .enumerate()
            .map(|(i, sz)| data(*sz, i as u64))
            .collect();
        for frame in [
            Frame::Data(data(size, seq)),
            Frame::Ctrl(ctrl.clone()),
            Frame::Bundle(bundle),
        ] {
            let decoded = wire::decode(&wire::encode(&frame)).expect("round trip");
            prop_assert_eq!(decoded, frame);
        }
    }

    /// Truncating an encoded frame never panics and never yields a frame.
    #[test]
    fn wire_codec_rejects_truncation(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        cut_fraction in 0.0f64..1.0,
    ) {
        let frame = Frame::Data(DataFrame {
            st_rms: StRmsId(1),
            seq: 7,
            frag: None,
            sent_at: SimTime::ZERO,
            fast_ack: false,
            source: None,
            target: None,
            span: None,
            payload: WireMsg::from(payload),
        });
        let enc = wire::encode(&frame);
        let cut = ((enc.len() as f64) * cut_fraction) as usize;
        if cut < enc.len() {
            prop_assert!(wire::decode(&enc.slice(0, cut)).is_err());
        }
    }

    /// Fragmentation followed by in-order reassembly restores the payload.
    #[test]
    fn fragment_reassemble_round_trips(
        payload in proptest::collection::vec(any::<u8>(), 1..8192),
        chunk in 1usize..2048,
    ) {
        let bytes = WireMsg::from_bytes(Bytes::from(payload.clone()));
        let spec = FragSpec {
            st_rms: StRmsId(1),
            seq: 3,
            sent_at: SimTime::ZERO,
            fast_ack: false,
            source: None,
            target: None,
            span: None,
        };
        let frames = fragment(&spec, &bytes, chunk);
        let mut r = Reassembly::new();
        let mut out = None;
        for f in frames {
            out = r.push(f);
        }
        let done = out.expect("last fragment completes");
        prop_assert_eq!(done.payload.contiguous().as_ref(), &payload[..]);
        prop_assert_eq!(done.seq, 3);
    }

    /// The piggyback queue never exceeds the bundle budget and never loses
    /// or reorders messages.
    #[test]
    fn piggyback_queue_preserves_order_and_budget(
        sizes in proptest::collection::vec(1u64..400, 1..40),
        budget in 500u64..4096,
    ) {
        let mut q = PiggybackQueue::new();
        let mut flushed: Vec<u64> = Vec::new();
        let mut pushed = 0u64;
        for (i, len) in sizes.iter().enumerate() {
            let frame = DataFrame {
                st_rms: StRmsId(1),
                seq: i as u64,
                frag: None,
                sent_at: SimTime::ZERO,
                fast_ack: false,
                source: None,
                target: None,
                span: None,
                payload: WireMsg::from(vec![0u8; *len as usize]),
            };
            let entry = PendingEntry {
                wire: wire::encode(&Frame::Data(frame)),
                st_rms: StRmsId(1),
                sent_at: SimTime::ZERO,
                span: None,
                min_deadline: SimTime::ZERO,
                max_deadline: SimTime::from_nanos(1_000_000),
            };
            pushed += 1;
            match q.try_push(entry, budget) {
                PushOutcome::Queued { .. } => {}
                PushOutcome::WouldOverflow(entry) | PushOutcome::DeadlineConflict(entry) => {
                    if let Some(bundle) = q.flush() {
                        flushed.extend(bundle.entries().iter().map(|e| decoded_seq(&e.wire)));
                    }
                    // After a flush the entry must fit (entries are smaller
                    // than any budget we generate).
                    match q.try_push(entry, budget.max(500)) {
                        PushOutcome::Queued { .. } => {}
                        _ => prop_assert!(false, "entry must fit an empty queue"),
                    }
                }
            }
            prop_assert!(q.bundle_bytes() <= budget.max(500));
        }
        if let Some(bundle) = q.flush() {
            flushed.extend(bundle.entries().iter().map(|e| decoded_seq(&e.wire)));
        }
        prop_assert_eq!(flushed.len() as u64, pushed);
        prop_assert!(flushed.windows(2).all(|w| w[0] < w[1]), "order preserved");
    }

    /// Every checksum and the MAC read a message's segments in place and
    /// give the value of the flattened bytes, however they are split —
    /// empty and odd-length segments included.
    #[test]
    fn checksums_and_mac_read_segments_in_place(
        raw in proptest::collection::vec((0u8..3, proptest::collection::vec(any::<u8>(), 0..800)), 0..8),
        key in any::<u64>(),
        context in any::<u64>(),
    ) {
        // Empty, one-byte and long segments (long enough to cross
        // Fletcher-32's 359-word blocks), in any order.
        let segs: Vec<Vec<u8>> = raw
            .into_iter()
            .map(|(kind, mut data)| {
                data.truncate(match kind {
                    0 => 0,
                    1 => 1,
                    _ => data.len(),
                });
                data
            })
            .collect();
        let flat: Vec<u8> = segs.concat();
        let parts = || segs.iter().map(Vec::as_slice);
        for alg in Algorithm::ALL {
            prop_assert_eq!(alg.compute_segments(parts()), alg.compute(&flat));
        }
        prop_assert_eq!(
            mac::sign_segments(Key(key), context, parts()),
            mac::sign(Key(key), context, &flat)
        );
    }

    /// The ack window never allows more than the capacity outstanding.
    #[test]
    fn ack_window_never_exceeds_capacity(
        capacity in 1u64..100_000,
        ops in proptest::collection::vec((any::<bool>(), 1u64..2000), 1..200),
    ) {
        let mut w = AckWindow::new(capacity);
        let mut next_seq = 0u64;
        for (is_send, n) in ops {
            if is_send {
                if w.may_send(n) {
                    w.record_send(next_seq, n);
                    next_seq += 1;
                }
            } else if next_seq > 0 {
                w.ack_through(next_seq - 1);
            }
            prop_assert!(w.outstanding() <= capacity);
        }
    }

    /// The rate limiter never admits more than C bytes per period.
    #[test]
    fn rate_limiter_respects_budget(
        capacity in 1_000u64..100_000,
        sends in proptest::collection::vec((0u64..1_000_000u64, 1u64..2_000), 1..100),
    ) {
        let params = RmsParams::builder(capacity, capacity.min(1_000))
            .delay(DelayBound::best_effort_with(
                SimDuration::from_millis(100),
                SimDuration::ZERO,
            ))
            .build()
            .unwrap();
        let mut rl = RateLimiter::new(&params);
        let mut t = 0u64;
        for (advance, len) in sends {
            t += advance;
            let now = SimTime::from_nanos(t);
            if rl.may_send(now, len) {
                rl.record_send(now, len);
            }
            prop_assert!(rl.in_window() <= capacity);
        }
    }

    /// The receiver window never reports more available than the buffer.
    #[test]
    fn receiver_window_bounded(
        buffer in 1u64..100_000,
        ops in proptest::collection::vec((any::<bool>(), 1u64..5_000), 1..200),
    ) {
        let mut w = ReceiverWindow::new(buffer);
        let mut consumed = 0u64;
        for (is_send, n) in ops {
            if is_send {
                if w.may_send(n) {
                    w.record_send(n);
                }
            } else {
                consumed += n;
                w.update_consumed(consumed);
            }
            prop_assert!(w.available() <= buffer);
        }
    }
}
