//! Session-keyed dispatch over the per-host stream tap.
//!
//! The stream module exposes one tap per host; applications that run many
//! sessions (several voice calls, a window system next to a bulk transfer)
//! install a [`Dispatcher`] once and register per-session handlers with it.

use rms_core::hash::DetHashMap;
use std::cell::RefCell;
use std::rc::Rc;

use dash_net::ids::HostId;
use dash_sim::engine::Sim;
use dash_sim::time::SimDuration;
use dash_transport::stack::Stack;
use dash_transport::stream::StreamEvent;
use rms_core::message::Message;

/// What a session handler receives.
#[derive(Debug)]
pub enum SessionEvent {
    /// An in-order message arrived.
    Delivered {
        /// The message.
        msg: Message,
        /// Its sequence number.
        seq: u64,
        /// End-to-end delay.
        delay: SimDuration,
    },
    /// The session is ready to send.
    Opened,
    /// The send port drained after refusing an offer.
    Drained,
    /// The session ended or failed.
    Ended,
}

type Handler = Box<dyn FnMut(&mut Sim<Stack>, SessionEvent)>;
/// `Fn`, held by `Rc`: it runs with no borrow of the dispatcher held, so
/// an event it causes on another host may re-enter it.
type Unclaimed = Rc<dyn Fn(&mut Sim<Stack>, HostId, StreamEvent)>;

/// A session-keyed dispatcher covering a set of hosts.
#[derive(Clone, Default)]
pub struct Dispatcher {
    handlers: Rc<RefCell<DetHashMap<u64, Handler>>>,
    unclaimed: Rc<RefCell<Option<Unclaimed>>>,
}

impl std::fmt::Debug for Dispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("sessions", &self.handlers.borrow().len())
            .finish()
    }
}

impl Dispatcher {
    /// Install a dispatcher as the stream tap of every host in `hosts`.
    pub fn install(sim: &mut Sim<Stack>, hosts: &[HostId]) -> Dispatcher {
        let d = Dispatcher::default();
        for &h in hosts {
            let d = d.clone();
            sim.state.on_stream(h, move |sim, ev| {
                let session = match &ev {
                    StreamEvent::Delivered { session, .. }
                    | StreamEvent::Opened { session }
                    | StreamEvent::Drained { session }
                    | StreamEvent::Ended { session, .. }
                    | StreamEvent::OpenFailed { session, .. }
                    | StreamEvent::Incoming { session, .. } => *session,
                };
                // Take the handler out while it runs (it may register more).
                let handler = d.handlers.borrow_mut().remove(&session);
                let Some(mut handler) = handler else {
                    let unclaimed = d.unclaimed.borrow().clone();
                    if let Some(unclaimed) = unclaimed {
                        unclaimed(sim, h, ev);
                    }
                    return;
                };
                let translated = match ev {
                    StreamEvent::Delivered {
                        msg, seq, delay, ..
                    } => Some(SessionEvent::Delivered { msg, seq, delay }),
                    StreamEvent::Opened { .. } => Some(SessionEvent::Opened),
                    StreamEvent::Drained { .. } => Some(SessionEvent::Drained),
                    StreamEvent::Ended { .. } | StreamEvent::OpenFailed { .. } => {
                        Some(SessionEvent::Ended)
                    }
                    StreamEvent::Incoming { .. } => None,
                };
                if let Some(translated) = translated {
                    handler(sim, translated);
                }
                d.handlers.borrow_mut().entry(session).or_insert(handler);
            });
        }
        d
    }

    /// Route the events of every session without a registered handler to
    /// `driver` (replacing any earlier one): how the traffic driver
    /// shares a host with session handlers.
    pub fn on_unclaimed(&self, driver: impl Fn(&mut Sim<Stack>, HostId, StreamEvent) + 'static) {
        *self.unclaimed.borrow_mut() = Some(Rc::new(driver));
    }

    /// Register (or replace) the handler for `session`.
    pub fn register(
        &self,
        session: u64,
        handler: impl FnMut(&mut Sim<Stack>, SessionEvent) + 'static,
    ) {
        self.handlers
            .borrow_mut()
            .insert(session, Box::new(handler));
    }

    /// Remove a session's handler.
    pub fn unregister(&self, session: u64) {
        self.handlers.borrow_mut().remove(&session);
    }

    /// Number of registered sessions.
    pub fn len(&self) -> usize {
        self.handlers.borrow().len()
    }

    /// True when no sessions are registered.
    pub fn is_empty(&self) -> bool {
        self.handlers.borrow().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_net::topology::two_hosts_ethernet;
    use dash_transport::stack::StackBuilder;
    use dash_transport::stream;
    use dash_transport::stream::StreamProfile;

    #[test]
    fn dispatcher_routes_by_session() {
        let (net, a, b) = two_hosts_ethernet();
        let mut sim = Sim::new(StackBuilder::new(net).build());
        let d = Dispatcher::install(&mut sim, &[a, b]);
        let s1 = stream::open(&mut sim, a, b, StreamProfile::default()).unwrap();
        let s2 = stream::open(&mut sim, a, b, StreamProfile::default()).unwrap();
        let got1 = Rc::new(RefCell::new(0u32));
        let got2 = Rc::new(RefCell::new(0u32));
        let g1 = Rc::clone(&got1);
        let g2 = Rc::clone(&got2);
        d.register(s1, move |_s, ev| {
            if matches!(ev, SessionEvent::Delivered { .. }) {
                *g1.borrow_mut() += 1;
            }
        });
        d.register(s2, move |_s, ev| {
            if matches!(ev, SessionEvent::Delivered { .. }) {
                *g2.borrow_mut() += 1;
            }
        });
        sim.run();
        stream::send(&mut sim, a, s1, Message::zeroes(10)).unwrap();
        stream::send(&mut sim, a, s2, Message::zeroes(10)).unwrap();
        stream::send(&mut sim, a, s2, Message::zeroes(10)).unwrap();
        sim.run();
        assert_eq!(*got1.borrow(), 1);
        assert_eq!(*got2.borrow(), 2);
        assert_eq!(d.len(), 2);
        d.unregister(s1);
        assert_eq!(d.len(), 1);
    }
}
