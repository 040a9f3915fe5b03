//! Sender flow control via a bounded local IPC port (paper §4.4).
//!
//! "This is done in the DASH kernel using a flow controlled local IPC port
//! for message-passing between the sender and the send protocol. A sender
//! blocks when a port queue size limit is reached. The sending transport
//! protocol stops reading messages from the port while it is prevented from
//! sending because of RMS capacity enforcement or receiver flow control."
//!
//! [`SendPort`] is that port: the application offers messages; the
//! transport drains them as its capacity/receiver windows permit. A refused
//! offer is the "blocked sender" condition.

use std::collections::VecDeque;

use rms_core::message::Message;

/// Why an offer was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WouldBlock {
    /// Bytes currently queued.
    pub queued_bytes: u64,
    /// The configured limit.
    pub limit_bytes: u64,
}

impl std::fmt::Display for WouldBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "send port full ({} of {} bytes queued)",
            self.queued_bytes, self.limit_bytes
        )
    }
}

impl std::error::Error for WouldBlock {}

/// A bounded queue between an application sender and its send protocol.
#[derive(Debug, Default)]
pub struct SendPort {
    queue: VecDeque<Message>,
    limit_bytes: u64,
    queued_bytes: u64,
}

impl SendPort {
    /// A port holding at most `limit_bytes` of queued payload.
    pub fn new(limit_bytes: u64) -> Self {
        SendPort {
            queue: VecDeque::new(),
            limit_bytes,
            queued_bytes: 0,
        }
    }

    /// Offer a message from the application.
    ///
    /// # Errors
    ///
    /// [`WouldBlock`] when the queue limit would be exceeded (the sender
    /// must retry after the port drains). An oversized message on an empty
    /// queue is admitted, so a message larger than the limit can still ever
    /// be sent.
    pub fn offer(&mut self, msg: Message) -> Result<(), WouldBlock> {
        let len = msg.len() as u64;
        if self.queued_bytes + len > self.limit_bytes && !self.queue.is_empty() {
            return Err(WouldBlock {
                queued_bytes: self.queued_bytes,
                limit_bytes: self.limit_bytes,
            });
        }
        self.queued_bytes += len;
        self.queue.push_back(msg);
        Ok(())
    }

    /// Peek at the next message without removing it.
    pub fn peek(&self) -> Option<&Message> {
        self.queue.front()
    }

    /// Take the next message (the transport drained it).
    pub fn pop(&mut self) -> Option<Message> {
        let msg = self.queue.pop_front()?;
        self.queued_bytes -= msg.len() as u64;
        Some(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_until_limit() {
        let mut p = SendPort::new(250);
        assert!(p.offer(Message::zeroes(100)).is_ok());
        assert!(p.offer(Message::zeroes(100)).is_ok());
        let err = p.offer(Message::zeroes(100)).unwrap_err();
        assert_eq!(err.queued_bytes, 200);
    }

    #[test]
    fn draining_frees_space() {
        let mut p = SendPort::new(100);
        p.offer(Message::zeroes(100)).unwrap();
        assert!(p.offer(Message::zeroes(1)).is_err());
        assert_eq!(p.pop().unwrap().len(), 100);
        assert!(p.offer(Message::zeroes(99)).is_ok());
        assert!(p.offer(Message::zeroes(2)).is_err());
        assert!(p.offer(Message::zeroes(1)).is_ok());
    }

    #[test]
    fn oversized_message_admitted_when_empty() {
        let mut p = SendPort::new(10);
        assert!(p.offer(Message::zeroes(50)).is_ok());
        assert!(p.offer(Message::zeroes(1)).is_err());
    }

    #[test]
    fn fifo_order() {
        let mut p = SendPort::new(1000);
        p.offer(Message::new(vec![1])).unwrap();
        p.offer(Message::new(vec![2])).unwrap();
        assert_eq!(p.peek().unwrap().payload()[0], 1);
        assert_eq!(p.pop().unwrap().payload()[0], 1);
        assert_eq!(p.pop().unwrap().payload()[0], 2);
        assert!(p.pop().is_none());
    }
}
