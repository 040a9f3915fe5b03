//! Messages and labels (paper §2).
//!
//! "Messages are untyped byte arrays. They may in addition have source and
//! target labels identifying the sender and receiver."

use std::fmt;

use bytes::Bytes;

use crate::wire::WireMsg;

/// An opaque identity label for a sender or receiver (§2). In DASH these
/// name processes/ports; the numeric value is assigned by the naming layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Label(pub u64);

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "label:{}", self.0)
    }
}

/// An RMS message: an untyped byte array with optional source/target labels.
///
/// The body is a scatter-gather [`WireMsg`] — an ordered list of
/// reference-counted [`Bytes`] segments — so protocol layers can wrap
/// headers around a payload, retransmit, piggyback, fragment and
/// reassemble without ever copying message bytes.
#[derive(Debug, Clone)]
pub struct Message {
    /// Optional label identifying the sender (verified when the RMS is
    /// authenticated).
    pub source: Option<Label>,
    /// Optional label identifying the intended receiver (enforced when the
    /// RMS is private).
    pub target: Option<Label>,
    /// Optional observability span id threading this message through the
    /// stack's lifecycle stages (see `dash_sim::obs`). `None` unless an
    /// observability sink is active. Excluded from equality: a delivered
    /// copy compares equal to the original even though it acquired a span.
    pub span: Option<u64>,
    payload: WireMsg,
}

impl PartialEq for Message {
    fn eq(&self, other: &Self) -> bool {
        self.source == other.source && self.target == other.target && self.payload == other.payload
    }
}

impl Eq for Message {}

impl Message {
    /// A message with the given payload and no labels.
    pub fn new(payload: impl Into<Bytes>) -> Self {
        Message::from_wire(WireMsg::from_bytes(payload))
    }

    /// A message wrapping an already scatter-gathered body, with no
    /// labels. This is the zero-copy constructor protocol layers use.
    pub fn from_wire(payload: WireMsg) -> Self {
        Message {
            source: None,
            target: None,
            span: None,
            payload,
        }
    }

    /// A message with source and target labels.
    pub fn labelled(source: Label, target: Label, payload: impl Into<Bytes>) -> Self {
        Message {
            source: Some(source),
            target: Some(target),
            span: None,
            payload: WireMsg::from_bytes(payload),
        }
    }

    /// A zero-filled message of `len` bytes — the standard synthetic
    /// workload body. Bodies up to 64 KB view a static zero page through
    /// the same `Bytes::from_static` zero-allocation path real payloads
    /// take; larger ones fall back to a `Vec`.
    pub fn zeroes(len: usize) -> Self {
        static ZERO_PAGE: [u8; 64 * 1024] = [0u8; 64 * 1024];
        if len <= ZERO_PAGE.len() {
            Message::new(Bytes::from_static(&ZERO_PAGE[..len]))
        } else {
            Message::new(vec![0u8; len])
        }
    }

    /// The payload as one cheap [`Bytes`] handle. Free when the body is
    /// a single segment (every app-level message); flattens multi-segment
    /// bodies. Protocol layers on the hot path should use [`Message::wire`]
    /// instead and decode the segments in place.
    pub fn payload(&self) -> Bytes {
        self.payload.contiguous()
    }

    /// The scatter-gather body, for zero-copy cursor decode.
    pub fn wire(&self) -> &WireMsg {
        &self.payload
    }

    /// Consume the message, returning the scatter-gather body.
    pub fn into_wire(self) -> WireMsg {
        self.payload
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let m = Message::new(vec![1, 2, 3]);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.payload().as_ref(), &[1, 2, 3]);
        assert_eq!(m.source, None);

        let l = Message::labelled(Label(1), Label(2), vec![9]);
        assert_eq!(l.source, Some(Label(1)));
        assert_eq!(l.target, Some(Label(2)));
    }

    #[test]
    fn zeroes_body() {
        let m = Message::zeroes(100);
        assert_eq!(m.len(), 100);
        assert!(m.payload().iter().all(|&b| b == 0));
        assert!(Message::zeroes(0).is_empty());
    }

    #[test]
    fn payload_handle_is_zero_copy_for_single_segment() {
        let body = Bytes::from(vec![5u8; 64]);
        let m = Message::new(body.clone());
        // The handle is a view of the same buffer, not a copy.
        assert_eq!(m.payload().as_ptr(), body.as_ptr());
        // And so is the wire body.
        assert_eq!(m.wire().seg_count(), 1);
        assert_eq!(m.into_wire().contiguous().as_ptr(), body.as_ptr());
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let m = Message::zeroes(1024);
        let c = m.clone();
        assert_eq!(m, c);
    }
}
