//! A TCP-like reliable byte stream over raw datagrams.
//!
//! The paper contrasts the RMS architecture with "traditional protocol
//! hierarchies" built on unreliable, insecure datagrams: TCP (RFC 793)
//! reliable byte streams with window flow control, and ICMP source quench
//! (RFC 792, RFC 896) as the ad-hoc congestion signal whose ineffectiveness
//! §4.4 calls out. This module implements that comparator:
//!
//! - three-way handshake, byte-sequenced segments with cumulative ACKs,
//! - sliding window = min(congestion window, receiver window),
//! - slow start + additive-increase/multiplicative-decrease,
//! - retransmission timeout with exponential backoff (go-back-N),
//! - source-quench reaction: collapse the congestion window to one segment.
//!
//! Deliberately *not* RMS-aware: it gets no deadline queueing (datagrams
//! carry `deadline = now`), no admission control, and no negotiated
//! parameters — exactly the §1 baseline.

use std::collections::HashMap;

use bytes::{BufMut, Bytes, BytesMut};
use dash_net::ids::HostId;
use dash_net::pipeline as net;
use dash_net::state::{emit, NetWorld};
use dash_sim::engine::{Args, Sim, TimerHandle};
use dash_sim::obs::ObsEvent;
use dash_sim::stats::Counter;
use dash_sim::time::{SimDuration, SimTime};
use rms_core::wire::{self, WireMsg};

/// The datagram protocol number used by this TCP-like transport.
pub const TCP_PROTO: u16 = 6;

/// Maximum segment payload, bytes.
pub const MSS: u64 = 1024;
/// Receiver window every connection advertises, bytes.
pub const RECV_WINDOW: u64 = 64 * 1024;
/// Slow-start threshold a connection starts with, bytes.
pub const INITIAL_SSTHRESH: u64 = 32 * 1024;

/// Configuration: what the experiments vary.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Initial retransmission timeout.
    pub rto: SimDuration,
    /// React to source quench by collapsing the congestion window
    /// (RFC 896 behaviour). Off = ignore quenches entirely.
    pub quench_reacts: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            rto: SimDuration::from_millis(300),
            quench_reacts: true,
        }
    }
}

impl TcpConfig {
    /// The longest an established connection retries before it gives up:
    /// its first RTO plus [`MAX_RETRIES`] backed-off ones (a connect gives
    /// up sooner).
    pub fn give_up_after(&self) -> SimDuration {
        (0..=MAX_RETRIES).fold(SimDuration::ZERO, |sum, b| {
            sum.saturating_add(self.rto.saturating_mul(1 << b.min(MAX_BACKOFF)))
        })
    }
}

/// Consecutive retransmission timeouts (no ack progress) after which an
/// established connection gives up with [`TcpEvent::Closed`], as a
/// reliable stream does (`dash_transport::stream::MAX_RETRIES`).
pub const MAX_RETRIES: u32 = 8;
/// The RTO doubles per unanswered timeout up to `2^MAX_BACKOFF` times.
const MAX_BACKOFF: u32 = 6;

const FLAG_SYN: u8 = 1;
const FLAG_ACK: u8 = 2;
const FLAG_FIN: u8 = 4;

#[derive(Debug, Clone)]
struct Segment {
    src_port: u16,
    dst_port: u16,
    seq: u64,
    ack: u64,
    flags: u8,
    window: u64,
    payload: Bytes,
}

/// Encode as a scatter-gather wire body: a 33-byte header carved from the
/// shared header store plus the payload's shared view (never copied).
fn encode_segment(s: &Segment) -> WireMsg {
    let mut out = WireMsg::from_bytes(wire::header(33, |b| {
        b.put_u16(s.src_port);
        b.put_u16(s.dst_port);
        b.put_u64(s.seq);
        b.put_u64(s.ack);
        b.put_u8(s.flags);
        b.put_u64(s.window);
        b.put_u32(s.payload.len() as u32);
    }));
    out.push(s.payload.clone());
    out
}

fn decode_segment(wire: &WireMsg) -> Option<Segment> {
    let mut b = wire.cursor();
    let src_port = b.get_u16().ok()?;
    let dst_port = b.get_u16().ok()?;
    let seq = b.get_u64().ok()?;
    let ack = b.get_u64().ok()?;
    let flags = b.get_u8().ok()?;
    let window = b.get_u64().ok()?;
    let len = b.get_u32().ok()? as usize;
    Some(Segment {
        src_port,
        dst_port,
        seq,
        ack,
        flags,
        window,
        payload: b.take_bytes(len).ok()?,
    })
}

/// Connection lifecycle states (simplified).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpStateKind {
    /// SYN sent, waiting for SYN|ACK.
    SynSent,
    /// Established.
    Established,
    /// Closed.
    Closed,
}

/// Per-connection statistics.
#[derive(Debug, Default)]
pub struct TcpStats {
    /// Payload bytes delivered in order to the peer application.
    pub bytes_delivered: Counter,
    /// Segments retransmitted.
    pub retransmitted: Counter,
    /// Source quenches processed.
    pub quenches: Counter,
}

/// One endpoint of a TCP-like connection.
pub struct TcpConn {
    /// Connection id (local).
    pub id: u64,
    /// Remote host.
    pub peer: HostId,
    /// Local port.
    pub local_port: u16,
    /// Remote port.
    pub remote_port: u16,
    /// State.
    pub state: TcpStateKind,
    /// Statistics.
    pub stats: TcpStats,

    // Send side.
    send_buf: BytesMut,
    snd_una: u64, // oldest unacknowledged byte
    snd_nxt: u64, // next byte to send
    cwnd: u64,
    ssthresh: u64,
    peer_window: u64,
    rto_timer: Option<TimerHandle>,
    rto_backoff: u32,
    retx_copy: Vec<u8>, // shadow of unacknowledged bytes

    // Receive side.
    rcv_nxt: u64,
    delivered: BytesMut,
}

impl std::fmt::Debug for TcpConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpConn")
            .field("id", &self.id)
            .field("state", &self.state)
            .field("snd_una", &self.snd_una)
            .field("snd_nxt", &self.snd_nxt)
            .field("cwnd", &self.cwnd)
            .finish()
    }
}

impl TcpConn {
    /// Bytes in flight.
    pub fn in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Current congestion window, bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// Take the bytes delivered so far (application read).
    pub fn read(&mut self) -> Bytes {
        self.delivered.split().freeze()
    }

    /// Bytes queued but not yet sent.
    pub fn backlog(&self) -> u64 {
        self.send_buf.len() as u64
    }
}

/// Events surfaced to the application.
#[derive(Debug)]
pub enum TcpEvent {
    /// Our connect completed.
    Connected {
        /// The connection.
        conn: u64,
    },
    /// A peer connected to a listening port.
    Accepted {
        /// The connection.
        conn: u64,
        /// The peer.
        peer: HostId,
    },
    /// In-order payload arrived (read it with [`TcpConn::read`]).
    Data {
        /// The connection.
        conn: u64,
        /// Bytes newly available.
        bytes: u64,
    },
    /// The connection closed (FIN received or handshake failed).
    Closed {
        /// The connection.
        conn: u64,
    },
}

/// World contract: embed [`TcpState`] and receive [`TcpEvent`]s.
pub trait TcpWorld: NetWorld {
    /// The embedded TCP state.
    fn tcp(&mut self) -> &mut TcpState;
    /// Shared access.
    fn tcp_ref(&self) -> &TcpState;
    /// An event for the application.
    fn tcp_event(sim: &mut Sim<Self>, host: HostId, event: TcpEvent);
}

/// Per-host TCP state.
#[derive(Debug, Default)]
pub struct TcpHost {
    /// Connections by id.
    pub conns: HashMap<u64, TcpConn>,
    listeners: HashMap<u16, ()>,
    by_tuple: HashMap<(HostId, u16, u16), u64>, // (peer, local, remote) -> conn
    next_port: u16,
}

/// The TCP module's state.
#[derive(Debug)]
pub struct TcpState {
    /// Configuration.
    pub config: TcpConfig,
    hosts: Vec<TcpHost>,
    next_conn: u64,
}

impl TcpState {
    /// State for `n` hosts.
    pub fn new(n: usize) -> Self {
        TcpState {
            config: TcpConfig::default(),
            hosts: (0..n).map(|_| TcpHost::default()).collect(),
            next_conn: 1,
        }
    }

    /// A host's state.
    pub fn host(&self, id: HostId) -> &TcpHost {
        &self.hosts[id.0 as usize]
    }

    /// Mutable host state.
    pub fn host_mut(&mut self, id: HostId) -> &mut TcpHost {
        &mut self.hosts[id.0 as usize]
    }

    /// A connection, if it exists.
    pub fn conn(&self, host: HostId, conn: u64) -> Option<&TcpConn> {
        self.host(host).conns.get(&conn)
    }

    /// Mutable connection access.
    pub fn conn_mut(&mut self, host: HostId, conn: u64) -> Option<&mut TcpConn> {
        self.host_mut(host).conns.get_mut(&conn)
    }
}

fn new_conn(
    id: u64,
    peer: HostId,
    local_port: u16,
    remote_port: u16,
    state: TcpStateKind,
) -> TcpConn {
    TcpConn {
        id,
        peer,
        local_port,
        remote_port,
        state,
        stats: TcpStats::default(),
        send_buf: BytesMut::new(),
        snd_una: 0,
        snd_nxt: 0,
        cwnd: MSS,
        ssthresh: INITIAL_SSTHRESH,
        peer_window: RECV_WINDOW,
        rto_timer: None,
        rto_backoff: 0,
        retx_copy: Vec::new(),
        rcv_nxt: 0,
        delivered: BytesMut::new(),
    }
}

/// Listen for connections on `port` at `host`.
pub fn listen<W: TcpWorld>(sim: &mut Sim<W>, host: HostId, port: u16) {
    sim.state.tcp().host_mut(host).listeners.insert(port, ());
}

/// Open a connection from `host` to `peer:port`. Completion surfaces as
/// [`TcpEvent::Connected`].
pub fn connect<W: TcpWorld>(sim: &mut Sim<W>, host: HostId, peer: HostId, port: u16) -> u64 {
    let (conn_id, local_port) = {
        let st = sim.state.tcp();
        let id = st.next_conn;
        st.next_conn += 1;
        let h = st.host_mut(host);
        h.next_port += 1;
        let local_port = 40_000 + h.next_port;
        let conn = new_conn(id, peer, local_port, port, TcpStateKind::SynSent);
        st.host_mut(host).conns.insert(id, conn);
        st.host_mut(host)
            .by_tuple
            .insert((peer, local_port, port), id);
        (id, local_port)
    };
    send_segment(
        sim,
        host,
        peer,
        Segment {
            src_port: local_port,
            dst_port: port,
            seq: 0,
            ack: 0,
            flags: FLAG_SYN,
            window: RECV_WINDOW,
            payload: Bytes::new(),
        },
    );
    arm_rto(sim, host, conn_id);
    conn_id
}

/// Queue bytes for transmission on an established connection.
pub fn send<W: TcpWorld>(sim: &mut Sim<W>, host: HostId, conn: u64, data: &[u8]) {
    {
        let Some(c) = sim.state.tcp().conn_mut(host, conn) else {
            return;
        };
        c.send_buf.extend_from_slice(data);
    }
    pump(sim, host, conn);
}

/// Close a connection (sends FIN).
pub fn close<W: TcpWorld>(sim: &mut Sim<W>, host: HostId, conn: u64) {
    let Some((peer, seg)) = ({
        let st = sim.state.tcp();
        st.conn_mut(host, conn).map(|c| {
            c.state = TcpStateKind::Closed;
            if let Some(t) = c.rto_timer.take() {
                t.cancel();
            }
            (
                c.peer,
                Segment {
                    src_port: c.local_port,
                    dst_port: c.remote_port,
                    seq: c.snd_nxt,
                    ack: c.rcv_nxt,
                    flags: FLAG_FIN | FLAG_ACK,
                    window: 0,
                    payload: Bytes::new(),
                },
            )
        })
    }) else {
        return;
    };
    send_segment(sim, host, peer, seg);
}

fn send_segment<W: TcpWorld>(sim: &mut Sim<W>, host: HostId, peer: HostId, seg: Segment) {
    let bytes = encode_segment(&seg);
    net::send_datagram(sim, host, peer, TCP_PROTO, bytes);
}

fn pump<W: TcpWorld>(sim: &mut Sim<W>, host: HostId, conn: u64) {
    while let Some((peer, seg)) = {
        let st = sim.state.tcp();
        let Some(c) = st.conn_mut(host, conn) else {
            return;
        };
        if c.state != TcpStateKind::Established || c.send_buf.is_empty() {
            None
        } else {
            let window = c.cwnd.min(c.peer_window);
            let in_flight = c.in_flight();
            if in_flight >= window {
                None
            } else {
                let budget = (window - in_flight).min(MSS) as usize;
                let take = budget.min(c.send_buf.len());
                let payload = c.send_buf.split_to(take).freeze();
                let seq = c.snd_nxt;
                c.snd_nxt += take as u64;
                c.retx_copy.extend_from_slice(&payload);
                Some((
                    c.peer,
                    Segment {
                        src_port: c.local_port,
                        dst_port: c.remote_port,
                        seq,
                        ack: c.rcv_nxt,
                        flags: FLAG_ACK,
                        window: 0,
                        payload,
                    },
                ))
            }
        }
    } {
        send_segment(sim, host, peer, seg);
    }
    ensure_rto(sim, host, conn);
}

fn ensure_rto<W: TcpWorld>(sim: &mut Sim<W>, host: HostId, conn: u64) {
    let needs = {
        let Some(c) = sim.state.tcp().conn_mut(host, conn) else {
            return;
        };
        (c.in_flight() > 0 || c.state == TcpStateKind::SynSent) && c.rto_timer.is_none()
    };
    if !needs {
        return;
    }
    let rto = {
        let st = sim.state.tcp_ref();
        let base = st.config.rto;
        st.conn(host, conn)
            .map(|c| base.saturating_mul(1u64 << c.rto_backoff.min(MAX_BACKOFF)))
            .unwrap_or(base)
    };
    let handle = sim.call_timer(rto, on_rto::<W>, (host.0, conn));
    if let Some(c) = sim.state.tcp().conn_mut(host, conn) {
        c.rto_timer = Some(handle);
    } else {
        handle.cancel();
    }
}

fn arm_rto<W: TcpWorld>(sim: &mut Sim<W>, host: HostId, conn: u64) {
    ensure_rto(sim, host, conn);
}

fn on_rto<W: TcpWorld>(sim: &mut Sim<W>, (host, conn): Args) {
    let host = HostId(host);
    let action = {
        let Some(c) = sim.state.tcp().conn_mut(host, conn) else {
            return;
        };
        c.rto_timer = None;
        match c.state {
            TcpStateKind::SynSent => {
                c.rto_backoff = (c.rto_backoff + 1).min(8);
                if c.rto_backoff > 5 {
                    c.state = TcpStateKind::Closed;
                    Some(RtoAction::GiveUp)
                } else {
                    Some(RtoAction::Resyn {
                        peer: c.peer,
                        src: c.local_port,
                        dst: c.remote_port,
                    })
                }
            }
            TcpStateKind::Established if c.in_flight() > 0 => {
                if c.rto_backoff >= MAX_RETRIES {
                    // The peer (or the path) is gone: a typed end, not a
                    // rewind every 64 RTOs forever.
                    c.state = TcpStateKind::Closed;
                    Some(RtoAction::GiveUp)
                } else {
                    // Timeout: multiplicative decrease + slow start
                    // restart (RFC 793-era behaviour with congestion
                    // response).
                    c.ssthresh = (c.cwnd / 2).max(MSS);
                    c.cwnd = MSS;
                    c.rto_backoff += 1;
                    // Go-back-N: rewind to the oldest unacknowledged
                    // byte, prepending the in-flight bytes back onto the
                    // send buffer from the retransmission copy we keep.
                    Some(RtoAction::Rewind)
                }
            }
            _ => None,
        }
    };
    match action {
        Some(RtoAction::Resyn { peer, src, dst }) => {
            send_segment(
                sim,
                host,
                peer,
                Segment {
                    src_port: src,
                    dst_port: dst,
                    seq: 0,
                    ack: 0,
                    flags: FLAG_SYN,
                    window: RECV_WINDOW,
                    payload: Bytes::new(),
                },
            );
            ensure_rto(sim, host, conn);
        }
        Some(RtoAction::Rewind) => {
            // We keep no per-segment retransmission buffer; instead we
            // retransmit from the retained copies in `retx_copy`.
            rewind_and_retransmit(sim, host, conn);
            ensure_rto(sim, host, conn);
        }
        Some(RtoAction::GiveUp) => {
            W::tcp_event(sim, host, TcpEvent::Closed { conn });
        }
        None => {}
    }
}

enum RtoAction {
    Resyn { peer: HostId, src: u16, dst: u16 },
    Rewind,
    GiveUp,
}

/// Retransmission model: the sender keeps a shadow copy of unacknowledged
/// bytes in `retx_copy` so go-back-N can resend them. To keep the structure
/// simple we stash them back at the *front* of the send buffer and reset
/// `snd_nxt`.
fn rewind_and_retransmit<W: TcpWorld>(sim: &mut Sim<W>, host: HostId, conn: u64) {
    // The shadow copy lives in the connection's `retx_copy`.
    let rewound = {
        let st = sim.state.tcp();
        let Some(c) = st.conn_mut(host, conn) else {
            return;
        };
        let in_flight = c.in_flight();
        if in_flight == 0 {
            None
        } else {
            // Reconstruct the unacked bytes from the retransmission copy.
            let copy = c
                .retx_copy
                .get(..in_flight as usize)
                .map(|s| s.to_vec())
                .unwrap_or_default();
            let mut rebuilt = BytesMut::with_capacity(copy.len() + c.send_buf.len());
            rebuilt.extend_from_slice(&copy);
            rebuilt.extend_from_slice(&c.send_buf);
            c.send_buf = rebuilt;
            c.retx_copy.clear();
            c.snd_nxt = c.snd_una;
            let segments = copy.len().div_ceil(1024) as u64;
            c.stats.retransmitted.add(segments);
            Some(segments)
        }
    };
    if let Some(segments) = rewound {
        emit(
            sim,
            ObsEvent::TcpRetransmit {
                host: host.0,
                conn,
                segments,
            },
        );
        pump(sim, host, conn);
    }
}

/// Routing hook: the world's `deliver_datagram` forwards TCP datagrams here.
pub fn on_datagram<W: TcpWorld>(
    sim: &mut Sim<W>,
    host: HostId,
    src: HostId,
    payload: WireMsg,
    _sent_at: SimTime,
) {
    let Some(seg) = decode_segment(&payload) else {
        return;
    };
    let key = (src, seg.dst_port, seg.src_port);
    let existing = sim.state.tcp_ref().host(host).by_tuple.get(&key).copied();
    match existing {
        Some(conn) => on_segment(sim, host, conn, seg),
        None => {
            // SYN to a listener?
            if seg.flags & FLAG_SYN != 0
                && sim
                    .state
                    .tcp_ref()
                    .host(host)
                    .listeners
                    .contains_key(&seg.dst_port)
            {
                let conn_id = {
                    let st = sim.state.tcp();
                    let id = st.next_conn;
                    st.next_conn += 1;
                    let mut c = new_conn(
                        id,
                        src,
                        seg.dst_port,
                        seg.src_port,
                        TcpStateKind::Established,
                    );
                    c.peer_window = seg.window;
                    st.host_mut(host).conns.insert(id, c);
                    st.host_mut(host).by_tuple.insert(key, id);
                    id
                };
                // SYN|ACK.
                send_segment(
                    sim,
                    host,
                    src,
                    Segment {
                        src_port: seg.dst_port,
                        dst_port: seg.src_port,
                        seq: 0,
                        ack: 0,
                        flags: FLAG_SYN | FLAG_ACK,
                        window: RECV_WINDOW,
                        payload: Bytes::new(),
                    },
                );
                W::tcp_event(
                    sim,
                    host,
                    TcpEvent::Accepted {
                        conn: conn_id,
                        peer: src,
                    },
                );
            }
        }
    }
}

fn on_segment<W: TcpWorld>(sim: &mut Sim<W>, host: HostId, conn: u64, seg: Segment) {
    let mut connected = false;
    let mut data_bytes = 0u64;
    let mut closed = false;
    let mut ack_to_send: Option<(HostId, Segment)> = None;
    {
        let st = sim.state.tcp();
        let Some(c) = st.conn_mut(host, conn) else {
            return;
        };
        if c.state == TcpStateKind::Closed {
            return;
        }
        // Handshake completion.
        if c.state == TcpStateKind::SynSent
            && seg.flags & FLAG_SYN != 0
            && seg.flags & FLAG_ACK != 0
        {
            c.state = TcpStateKind::Established;
            c.peer_window = seg.window;
            c.rto_backoff = 0;
            if let Some(t) = c.rto_timer.take() {
                t.cancel();
            }
            connected = true;
        }
        if seg.flags & FLAG_FIN != 0 {
            c.state = TcpStateKind::Closed;
            if let Some(t) = c.rto_timer.take() {
                t.cancel();
            }
            closed = true;
        }
        // ACK processing.
        if seg.flags & FLAG_ACK != 0 && seg.ack > c.snd_una {
            let acked = seg.ack - c.snd_una;
            // Drop the acknowledged prefix of the retransmission copy.
            let drop = (acked as usize).min(c.retx_copy.len());
            c.retx_copy.drain(..drop);
            c.snd_una = seg.ack;
            c.rto_backoff = 0;
            if let Some(t) = c.rto_timer.take() {
                t.cancel();
            }
            // Congestion control: slow start then AIMD.
            if c.cwnd < c.ssthresh {
                c.cwnd += acked.min(MSS);
            } else {
                c.cwnd += (MSS * MSS / c.cwnd).max(1);
            }
        }
        if seg.window > 0 {
            c.peer_window = seg.window;
        }
        // Data processing (in order only; out-of-order dropped, cumulative
        // ack re-sent).
        if !seg.payload.is_empty() {
            if seg.seq == c.rcv_nxt {
                c.rcv_nxt += seg.payload.len() as u64;
                c.delivered.extend_from_slice(&seg.payload);
                c.stats.bytes_delivered.add(seg.payload.len() as u64);
                data_bytes = seg.payload.len() as u64;
            }
            // Always ack what we have.
            ack_to_send = Some((
                c.peer,
                Segment {
                    src_port: c.local_port,
                    dst_port: c.remote_port,
                    seq: c.snd_nxt,
                    ack: c.rcv_nxt,
                    flags: FLAG_ACK,
                    window: sim_window(c),
                    payload: Bytes::new(),
                },
            ));
        }
    }
    if connected {
        W::tcp_event(sim, host, TcpEvent::Connected { conn });
    }
    if data_bytes > 0 {
        W::tcp_event(
            sim,
            host,
            TcpEvent::Data {
                conn,
                bytes: data_bytes,
            },
        );
    }
    if let Some((peer, ack)) = ack_to_send {
        send_segment(sim, host, peer, ack);
    }
    if closed {
        W::tcp_event(sim, host, TcpEvent::Closed { conn });
    } else {
        pump(sim, host, conn);
    }
}

fn sim_window(c: &TcpConn) -> u64 {
    // Advertised window: receive buffer minus undelivered backlog (the
    // application reads promptly in our workloads).
    let pending = c.delivered.len() as u64;
    RECV_WINDOW.saturating_sub(pending).max(MSS)
}

/// Routing hook: the world's `deliver_quench` forwards here (§4.4: the
/// RFC 896 reaction).
pub fn on_quench<W: TcpWorld>(sim: &mut Sim<W>, host: HostId, dropped_dst: HostId) {
    if !sim.state.tcp_ref().config.quench_reacts {
        return;
    }
    let conns: Vec<u64> = sim
        .state
        .tcp_ref()
        .host(host)
        .conns
        .iter()
        .filter(|(_, c)| c.peer == dropped_dst && c.state == TcpStateKind::Established)
        .map(|(id, _)| *id)
        .collect();
    for conn in conns {
        if let Some(c) = sim.state.tcp().conn_mut(host, conn) {
            c.stats.quenches.incr();
            c.ssthresh = (c.cwnd / 2).max(MSS);
            c.cwnd = MSS;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_round_trip() {
        let s = Segment {
            src_port: 40001,
            dst_port: 80,
            seq: 1000,
            ack: 500,
            flags: FLAG_ACK,
            window: 65535,
            payload: Bytes::from_static(b"abc"),
        };
        let d = decode_segment(&encode_segment(&s)).unwrap();
        assert_eq!(d.src_port, 40001);
        assert_eq!(d.seq, 1000);
        assert_eq!(d.payload.as_ref(), b"abc");
    }

    #[test]
    fn decode_rejects_short() {
        assert!(decode_segment(&WireMsg::from_bytes(Bytes::from_static(b"xx"))).is_none());
    }
}
