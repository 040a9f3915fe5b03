//! Session-keyed dispatch over the per-host stream tap.
//!
//! The stream module exposes one tap per host; [`Dispatcher::install`] is
//! the one place this crate claims it. Reactive workloads and ad-hoc
//! measurements register a per-session delivery handler with the
//! dispatcher; every other stream event falls through to the traffic
//! driver ([`crate::traffic::install_on`]), so planned flows and
//! hand-opened sessions share a host.

use rms_core::hash::DetHashMap;
use std::cell::RefCell;
use std::rc::Rc;

use dash_net::ids::HostId;
use dash_sim::engine::Sim;
use dash_sim::time::SimDuration;
use dash_transport::stack::Stack;
use dash_transport::stream::StreamEvent;
use rms_core::message::Message;

/// An in-order message arrival, as a session handler receives it.
#[derive(Debug)]
pub struct Delivery {
    /// The message.
    pub msg: Message,
    /// Its sequence number.
    pub seq: u64,
    /// End-to-end delay.
    pub delay: SimDuration,
}

type Handler = Box<dyn FnMut(&mut Sim<Stack>, Delivery)>;
/// `Fn`, held by `Rc`: it runs with no borrow of the dispatcher held, so
/// an event it causes on another host may re-enter it.
type Unclaimed = Rc<dyn Fn(&mut Sim<Stack>, HostId, StreamEvent)>;

/// A session-keyed dispatcher covering a set of hosts.
#[derive(Clone, Default)]
pub struct Dispatcher {
    handlers: Rc<RefCell<DetHashMap<u64, Handler>>>,
    unclaimed: Rc<RefCell<Option<Unclaimed>>>,
}

impl Dispatcher {
    /// Install a dispatcher as the stream tap of every host in `hosts`.
    pub fn install(sim: &mut Sim<Stack>, hosts: &[HostId]) -> Dispatcher {
        let d = Dispatcher::default();
        for &h in hosts {
            let d = d.clone();
            sim.state.on_stream(h, move |sim, ev| {
                // Take the handler out while it runs (it may register more).
                let handler = match &ev {
                    StreamEvent::Delivered { session, .. } => {
                        d.handlers.borrow_mut().remove_entry(session)
                    }
                    _ => None,
                };
                match (handler, ev) {
                    (
                        Some((session, mut handler)),
                        StreamEvent::Delivered {
                            msg, seq, delay, ..
                        },
                    ) => {
                        handler(sim, Delivery { msg, seq, delay });
                        d.handlers.borrow_mut().entry(session).or_insert(handler);
                    }
                    (_, ev) => {
                        let unclaimed = d.unclaimed.borrow().clone();
                        if let Some(unclaimed) = unclaimed {
                            unclaimed(sim, h, ev);
                        }
                    }
                }
            });
        }
        d
    }

    /// Route every event no session handler takes to `driver` (replacing
    /// any earlier one).
    pub fn on_unclaimed(&self, driver: impl Fn(&mut Sim<Stack>, HostId, StreamEvent) + 'static) {
        *self.unclaimed.borrow_mut() = Some(Rc::new(driver));
    }

    /// Register (or replace) the delivery handler for `session`.
    pub fn register(&self, session: u64, handler: impl FnMut(&mut Sim<Stack>, Delivery) + 'static) {
        self.handlers
            .borrow_mut()
            .insert(session, Box::new(handler));
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
    fn dispatcher_routes_by_session_and_passes_the_rest_on() {
        let (net, a, b) = two_hosts_ethernet();
        let mut sim = Sim::new(StackBuilder::new(net).build());
        let d = Dispatcher::install(&mut sim, &[a, b]);
        let unclaimed = Rc::new(RefCell::new(Vec::new()));
        let u = Rc::clone(&unclaimed);
        d.on_unclaimed(move |_s, host, ev| u.borrow_mut().push((host, format!("{ev:?}"))));
        let s1 = stream::open(&mut sim, a, b, StreamProfile::default()).unwrap();
        let s2 = stream::open(&mut sim, a, b, StreamProfile::default()).unwrap();
        let s3 = stream::open(&mut sim, a, b, StreamProfile::default()).unwrap();
        let got1 = Rc::new(RefCell::new(0u32));
        let got2 = Rc::new(RefCell::new(0u32));
        let g1 = Rc::clone(&got1);
        let g2 = Rc::clone(&got2);
        d.register(s1, move |_s, _delivery| *g1.borrow_mut() += 1);
        d.register(s2, move |_s, _delivery| *g2.borrow_mut() += 1);
        sim.run();
        stream::send(&mut sim, a, s1, Message::zeroes(10)).unwrap();
        stream::send(&mut sim, a, s2, Message::zeroes(10)).unwrap();
        stream::send(&mut sim, a, s2, Message::zeroes(10)).unwrap();
        stream::send(&mut sim, a, s3, Message::zeroes(10)).unwrap();
        sim.run();
        assert_eq!(*got1.borrow(), 1);
        assert_eq!(*got2.borrow(), 2);
        // The unregistered session's delivery, and every session's
        // non-delivery events, went to the driver.
        let seen = unclaimed.borrow();
        let count = |host, kind: &str| {
            seen.iter()
                .filter(|(h, e)| *h == host && e.starts_with(kind))
                .count()
        };
        assert_eq!(count(b, "Delivered"), 1);
        assert_eq!(count(a, "Opened"), 3);
        assert_eq!(count(b, "Incoming"), 3);
    }
}
