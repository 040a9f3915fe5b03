//! The request/reply workload over the TCP-like baseline, for the e7
//! comparison. Its RKOM counterpart (paper §3.3) is a
//! [`crate::traffic::RpcFlow`].

use std::cell::RefCell;
use std::rc::Rc;

use dash_baseline::tcp;
use dash_net::ids::HostId;
use dash_sim::engine::Sim;
use dash_sim::time::SimTime;
use dash_transport::stack::Stack;

use crate::traffic::SharedAcct;

/// A sequential RPC client over the TCP-like baseline: it opens one
/// connection and issues `calls` echo requests back to back (each reply
/// must arrive before the next request goes out, the pattern §1 says
/// request/reply primitives force).
///
/// The server side is prepared internally (this function also registers
/// the echo logic and the listener). Results land in the `rpc_*` fields
/// of the same [`Acct`](crate::traffic::Acct) an RKOM pair fills.
pub fn run_tcp_rpc(
    sim: &mut Sim<Stack>,
    client: HostId,
    server: HostId,
    port: u16,
    calls: u32,
    request_bytes: usize,
    reply_bytes: usize,
) -> SharedAcct {
    let stats = SharedAcct::default();
    let conn = tcp::connect(sim, client, server, port);

    // Drive the call loop from TCP events.
    let st = Rc::clone(&stats);
    let state = Rc::new(RefCell::new((0u32, SimTime::ZERO, 0usize))); // (done, call_start, bytes_seen)
    let drive = Rc::clone(&state);
    sim.state.on_tcp(move |sim, host, ev| {
        match ev {
            tcp::TcpEvent::Connected { conn: c } if c == conn => {
                // First call.
                drive.borrow_mut().1 = sim.now();
                st.borrow_mut().rpc_issued += 1;
                tcp::send(sim, host, conn, &vec![0u8; request_bytes]);
            }
            tcp::TcpEvent::Data { conn: c, bytes } if c == conn && host == client => {
                let mut d = drive.borrow_mut();
                d.2 += bytes as usize;
                if d.2 >= reply_bytes {
                    d.2 = 0;
                    let started = d.1;
                    let mut s = st.borrow_mut();
                    s.rpc_completed += 1;
                    s.rpc_latency
                        .record(sim.now().saturating_since(started).as_secs_f64());
                    d.0 += 1;
                    if d.0 < calls {
                        d.1 = sim.now();
                        s.rpc_issued += 1;
                        drop(s);
                        drop(d);
                        tcp::send(sim, host, conn, &vec![0u8; request_bytes]);
                    }
                }
            }
            tcp::TcpEvent::Data { conn: c, bytes } if host == server => {
                // Echo server: every `request_bytes` received triggers a
                // reply.
                let _ = bytes;
                let pending = sim
                    .state
                    .tcp
                    .conn_mut(host, c)
                    .map(|cn| cn.read().len())
                    .unwrap_or(0);
                let replies = pending / request_bytes;
                for _ in 0..replies {
                    tcp::send(sim, host, c, &vec![0u8; reply_bytes]);
                }
            }
            _ => {}
        }
    });
    tcp::listen(sim, server, port);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_net::topology::two_hosts_ethernet;
    use dash_transport::stack::StackBuilder;

    #[test]
    fn tcp_rpc_sequential_calls_complete() {
        let (net, a, b) = two_hosts_ethernet();
        let mut sim = Sim::new(StackBuilder::new(net).build());
        let stats = run_tcp_rpc(&mut sim, a, b, 80, 20, 64, 256);
        sim.run();
        let s = stats.borrow();
        assert_eq!((s.rpc_issued, s.rpc_completed), (20, 20));
    }
}
