//! Receiver ports (paper §2).
//!
//! "The receiver is typically a passive object such as a port; a message is
//! considered delivered when it is enqueued on the port or given to a
//! process waiting at the port."
//!
//! Every layer hands a delivery to its receiver together with a
//! [`DeliveryInfo`]: when the send started, when the message landed, and
//! which stream and sequence number it carried.

use dash_sim::time::{SimDuration, SimTime};

/// Per-delivery metadata recorded when a message lands on a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryInfo {
    /// When the original send operation started (start of the delay clock,
    /// §2.2).
    pub sent_at: SimTime,
    /// When the message was enqueued here (the moment of delivery).
    pub delivered_at: SimTime,
    /// Identifier of the stream the message arrived on (layer-specific).
    pub stream: u64,
    /// Sequence number assigned by the sender on that stream.
    pub seq: u64,
}

impl DeliveryInfo {
    /// The end-to-end delay of this delivery.
    pub fn delay(&self) -> SimDuration {
        self.delivered_at.saturating_since(self.sent_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(sent_ns: u64, delivered_ns: u64) -> DeliveryInfo {
        DeliveryInfo {
            sent_at: SimTime::from_nanos(sent_ns),
            delivered_at: SimTime::from_nanos(delivered_ns),
            stream: 1,
            seq: 0,
        }
    }

    #[test]
    fn delivery_info_delay() {
        let i = info(1_000, 5_000);
        assert_eq!(i.delay(), SimDuration::from_nanos(4_000));
        // Clock skew clamps to zero rather than panicking.
        let weird = info(5_000, 1_000);
        assert_eq!(weird.delay(), SimDuration::ZERO);
    }
}
