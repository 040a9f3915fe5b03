//! Fragmentation and reassembly (paper §4.3).
//!
//! "The ST does fragmentation and reassembly to support this larger message
//! size. It does not retransmit fragments; if a message is incomplete when
//! a fragment of the next message arrives, the partial message is
//! discarded."
//!
//! The network RMS delivers in sequence, so fragments of one message arrive
//! in index order; a gap simply means loss, detected when the next
//! message's fragment shows up.
//!
//! Both directions are zero-copy: [`fragment`] slices the message body
//! into segment views, and [`Reassembly`] concatenates the arriving
//! views back into one [`WireMsg`] — adjacent slices of the same buffer
//! coalesce, so a reassembled message recovers the sender's original
//! payload view instead of a fresh copy.

use dash_sim::time::SimTime;
use rms_core::message::Label;
use rms_core::wire::WireMsg;

use crate::wire::{DataFrame, FragInfo};

/// A fully reassembled message.
#[derive(Debug, Clone, PartialEq)]
pub struct Reassembled {
    /// Message sequence number (shared by its fragments).
    pub seq: u64,
    /// Concatenated payload (segment views of the fragments, no copy).
    pub payload: WireMsg,
    /// Original client send time.
    pub sent_at: SimTime,
    /// Source label from the fragments.
    pub source: Option<Label>,
    /// Target label from the fragments.
    pub target: Option<Label>,
    /// Whether a fast acknowledgement was requested.
    pub fast_ack: bool,
    /// Observability span id adopted from any fragment carrying one.
    pub span: Option<u64>,
}

#[derive(Debug)]
struct Partial {
    seq: u64,
    count: u32,
    next_index: u32,
    buf: WireMsg,
    sent_at: SimTime,
    source: Option<Label>,
    target: Option<Label>,
    fast_ack: bool,
    span: Option<u64>,
}

/// Per-ST-RMS reassembly state.
#[derive(Debug, Default)]
pub struct Reassembly {
    partial: Option<Partial>,
    /// Partial messages discarded because a newer message's fragment
    /// arrived first (§4.3).
    pub partials_discarded: u64,
    /// Stray fragments dropped (bad index within the current message).
    pub fragments_dropped: u64,
}

impl Reassembly {
    /// Fresh state.
    pub fn new() -> Self {
        Reassembly::default()
    }

    /// True if a message is partially assembled.
    pub fn has_partial(&self) -> bool {
        self.partial.is_some()
    }

    /// Feed one fragment. Returns the completed message when this fragment
    /// finishes it.
    ///
    /// # Panics
    ///
    /// Panics if `frame.frag` is `None` (whole messages bypass reassembly).
    pub fn push(&mut self, frame: DataFrame) -> Option<Reassembled> {
        let FragInfo { index, count } = frame.frag.expect("push requires a fragment");
        // A fragment of a different message than the one in progress
        // discards the partial (§4.3: no fragment retransmission).
        if let Some(p) = &self.partial {
            if p.seq != frame.seq {
                self.partials_discarded += 1;
                self.partial = None;
            }
        }
        match &mut self.partial {
            None => {
                if index != 0 {
                    // Mid-message fragment of a message whose head we lost.
                    self.fragments_dropped += 1;
                    return None;
                }
                if count == 1 {
                    return Some(Reassembled {
                        seq: frame.seq,
                        payload: frame.payload,
                        sent_at: frame.sent_at,
                        source: frame.source,
                        target: frame.target,
                        fast_ack: frame.fast_ack,
                        span: frame.span,
                    });
                }
                self.partial = Some(Partial {
                    seq: frame.seq,
                    count,
                    next_index: 1,
                    buf: frame.payload,
                    sent_at: frame.sent_at,
                    source: frame.source,
                    target: frame.target,
                    fast_ack: frame.fast_ack,
                    span: frame.span,
                });
                None
            }
            Some(p) => {
                if index != p.next_index || count != p.count {
                    // A gap within the same message: the missing fragment
                    // was lost; discard everything.
                    self.partials_discarded += 1;
                    self.fragments_dropped += 1;
                    self.partial = None;
                    return None;
                }
                p.buf.append(&frame.payload);
                // The fast-ack request rides on the last fragment (§3.2);
                // adopt it whenever any fragment carries it.
                p.fast_ack |= frame.fast_ack;
                p.span = p.span.or(frame.span);
                p.next_index += 1;
                if p.next_index == p.count {
                    let done = self.partial.take().expect("just matched");
                    return Some(Reassembled {
                        seq: done.seq,
                        payload: done.buf,
                        sent_at: done.sent_at,
                        source: done.source,
                        target: done.target,
                        fast_ack: done.fast_ack,
                        span: done.span,
                    });
                }
                None
            }
        }
    }
}

/// The per-message frame fields every fragment of one message shares —
/// a [`DataFrame`] minus the per-fragment `frag` index and `payload`
/// view, which [`fragment`] fills in.
#[derive(Debug, Clone, Copy)]
pub struct FragSpec {
    /// The ST stream the message belongs to.
    pub st_rms: crate::ids::StRmsId,
    /// The message's per-stream sequence number.
    pub seq: u64,
    /// The sender-side `send` call time.
    pub sent_at: SimTime,
    /// Fast-ack request; rides only the last fragment, where delivery
    /// completes.
    pub fast_ack: bool,
    /// Sender identity label.
    pub source: Option<Label>,
    /// Receiver identity label.
    pub target: Option<Label>,
    /// Observability span carried end to end.
    pub span: Option<u64>,
}

/// Split a payload into fragment frames of at most `chunk` payload bytes,
/// made one at a time as the iterator is drained. Each fragment's payload
/// is a zero-copy sub-view of `payload`'s segments.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub fn fragment<'a>(
    spec: &FragSpec,
    payload: &'a WireMsg,
    chunk: usize,
) -> impl ExactSizeIterator<Item = DataFrame> + 'a {
    assert!(chunk > 0, "fragment chunk must be positive");
    let spec = *spec;
    let count = payload.len().div_ceil(chunk).max(1) as u32;
    (0..count).map(move |i| {
        let start = i as usize * chunk;
        let end = (start + chunk).min(payload.len());
        DataFrame {
            st_rms: spec.st_rms,
            seq: spec.seq,
            frag: Some(FragInfo { index: i, count }),
            sent_at: spec.sent_at,
            // Only the last fragment asks for the ack: delivery completes
            // there.
            fast_ack: spec.fast_ack && i + 1 == count,
            source: spec.source,
            target: spec.target,
            span: spec.span,
            payload: payload.slice(start, end),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::StRmsId;
    use bytes::Bytes;

    fn spec(seq: u64) -> FragSpec {
        FragSpec {
            st_rms: StRmsId(1),
            seq,
            sent_at: SimTime::ZERO,
            fast_ack: false,
            source: None,
            target: None,
            span: None,
        }
    }

    fn frames(seq: u64, n_frags: u32, frag_len: usize) -> Vec<DataFrame> {
        let total: Vec<u8> = (0..(n_frags as usize * frag_len))
            .map(|i| (i % 251) as u8)
            .collect();
        fragment(
            &FragSpec {
                sent_at: SimTime::from_nanos(5),
                ..spec(seq)
            },
            &WireMsg::from(total),
            frag_len,
        )
        .collect::<Vec<_>>()
    }

    #[test]
    fn fragment_splits_correctly() {
        let fs = frames(0, 4, 100);
        assert_eq!(fs.len(), 4);
        for (i, f) in fs.iter().enumerate() {
            assert_eq!(f.frag.unwrap().index, i as u32);
            assert_eq!(f.frag.unwrap().count, 4);
            assert_eq!(f.payload.len(), 100);
            assert_eq!(f.seq, 0);
        }
    }

    #[test]
    fn fragment_uneven_tail() {
        let payload = WireMsg::from(vec![1u8; 250]);
        let fs = fragment(&spec(0), &payload, 100).collect::<Vec<_>>();
        assert_eq!(fs.len(), 3);
        assert_eq!(fs[2].payload.len(), 50);
    }

    #[test]
    fn reassembly_round_trip() {
        let fs = frames(7, 3, 64);
        let expected: Vec<u8> = fs
            .iter()
            .flat_map(|f| f.payload.contiguous().to_vec())
            .collect();
        let mut r = Reassembly::new();
        assert!(r.push(fs[0].clone()).is_none());
        assert!(r.has_partial());
        assert!(r.push(fs[1].clone()).is_none());
        let done = r.push(fs[2].clone()).expect("complete");
        assert_eq!(done.seq, 7);
        assert_eq!(done.payload.contiguous().as_ref(), &expected[..]);
        assert!(!r.has_partial());
        assert_eq!(r.partials_discarded, 0);
    }

    #[test]
    fn reassembly_recovers_original_view_without_copying() {
        let body = Bytes::from((0u8..=255).collect::<Vec<u8>>());
        let fs = fragment(&spec(0), &WireMsg::from_bytes(body.clone()), 100).collect::<Vec<_>>();
        assert_eq!(fs.len(), 3);
        let mut r = Reassembly::new();
        r.push(fs[0].clone());
        r.push(fs[1].clone());
        let done = r.push(fs[2].clone()).unwrap();
        // Adjacent fragment views coalesce back into the original buffer:
        // one segment, pointer-identical to the sender's payload.
        assert_eq!(done.payload.seg_count(), 1);
        assert_eq!(done.payload.contiguous().as_ptr(), body.as_ptr());
    }

    #[test]
    fn retransmitted_middle_fragment_round_trips_byte_identically() {
        // A retransmitted fragment arrives as a fresh serialization — a
        // different backing buffer than the sender's original payload
        // view. Reassembly must concatenate it by value, not assume the
        // neighbours share a backing: the middle segment cannot coalesce
        // with either side, but the payload must still be byte-identical
        // to the original message.
        let body = Bytes::from((0u8..=255).collect::<Vec<u8>>());
        let fs = fragment(&spec(9), &WireMsg::from_bytes(body.clone()), 100).collect::<Vec<_>>();
        assert_eq!(fs.len(), 3);
        let mut retx = fs[1].clone();
        retx.payload = WireMsg::from(fs[1].payload.contiguous().to_vec());

        let mut r = Reassembly::new();
        assert!(r.push(fs[0].clone()).is_none());
        assert!(r.push(retx).is_none());
        let done = r.push(fs[2].clone()).expect("complete");
        assert_eq!(done.payload.contiguous().as_ref(), body.as_ref());
        // No cross-backing coalescing: head / retransmitted middle / tail
        // stay three segments, and the outer two still view the original
        // buffer.
        assert_eq!(done.payload.seg_count(), 3);
        let segs: Vec<&Bytes> = done.payload.segments().collect();
        assert_eq!(segs[0].as_ptr(), body.as_ptr());
        assert_eq!(segs[2].as_ptr(), body.slice(200..256).as_ptr());
        assert_eq!(r.partials_discarded, 0);
        assert_eq!(r.fragments_dropped, 0);
    }

    #[test]
    fn single_fragment_message_completes_immediately() {
        let payload = WireMsg::from(vec![9u8; 10]);
        let fs = fragment(
            &FragSpec {
                fast_ack: true,
                ..spec(3)
            },
            &payload,
            100,
        )
        .collect::<Vec<_>>();
        assert_eq!(fs.len(), 1);
        let mut r = Reassembly::new();
        let done = r.push(fs[0].clone()).unwrap();
        assert_eq!(done.payload.len(), 10);
        assert!(done.fast_ack);
    }

    #[test]
    fn next_message_discards_partial() {
        let first = frames(1, 3, 10);
        let second = frames(2, 2, 10);
        let mut r = Reassembly::new();
        r.push(first[0].clone());
        r.push(first[1].clone());
        // Fragment of message 2 arrives: message 1 is abandoned.
        assert!(r.push(second[0].clone()).is_none());
        let done = r.push(second[1].clone()).unwrap();
        assert_eq!(done.seq, 2);
        assert_eq!(r.partials_discarded, 1);
    }

    #[test]
    fn gap_within_message_discards() {
        let fs = frames(1, 3, 10);
        let mut r = Reassembly::new();
        r.push(fs[0].clone());
        // Fragment 2 arrives without fragment 1.
        assert!(r.push(fs[2].clone()).is_none());
        assert_eq!(r.partials_discarded, 1);
        assert_eq!(r.fragments_dropped, 1);
        assert!(!r.has_partial());
    }

    #[test]
    fn lost_head_drops_tail_fragments() {
        let fs = frames(1, 3, 10);
        let mut r = Reassembly::new();
        // Head lost; tail fragments arrive.
        assert!(r.push(fs[1].clone()).is_none());
        assert!(r.push(fs[2].clone()).is_none());
        assert_eq!(r.fragments_dropped, 2);
    }

    #[test]
    fn fast_ack_only_on_last_fragment() {
        let payload = WireMsg::from(vec![0u8; 300]);
        let fs = fragment(
            &FragSpec {
                fast_ack: true,
                ..spec(0)
            },
            &payload,
            100,
        )
        .collect::<Vec<_>>();
        assert_eq!(fs.len(), 3);
        assert!(!fs[0].fast_ack && !fs[1].fast_ack && fs[2].fast_ack);
    }

    #[test]
    fn labels_survive_reassembly() {
        let payload = WireMsg::from(vec![0u8; 200]);
        let fs = fragment(
            &FragSpec {
                sent_at: SimTime::from_nanos(42),
                source: Some(Label(5)),
                target: Some(Label(6)),
                ..spec(0)
            },
            &payload,
            100,
        )
        .collect::<Vec<_>>();
        let mut r = Reassembly::new();
        r.push(fs[0].clone());
        let done = r.push(fs[1].clone()).unwrap();
        assert_eq!(done.source, Some(Label(5)));
        assert_eq!(done.target, Some(Label(6)));
        assert_eq!(done.sent_at, SimTime::from_nanos(42));
    }

    #[test]
    fn empty_payload_fragments_to_one() {
        let fs = fragment(&spec(0), &WireMsg::new(), 100).collect::<Vec<_>>();
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].frag.unwrap().count, 1);
    }
}
