//! ST wire format.
//!
//! Everything the subtransport layer sends rides inside network-RMS message
//! payloads as serialized *frames*. Real byte-level encoding keeps the
//! layering honest: piggybacked bundles (§4.2) really are one network
//! message whose size is the sum of its parts, and fragment headers (§4.3)
//! really cost bytes.
//!
//! Frames encode to scatter-gather [`WireMsg`]s: the header fields are
//! carved from the shared header store ([`wire::header`]) and payload
//! bytes ride along as zero-copy segment views — a message body is never copied on encode.
//! Decode walks a [`WireCursor`] over the shared segments and hands the
//! payload back as views of the sender's buffer. [`WireMsg::len`] on the
//! encoder's output is the single source of truth for frame sizes; there
//! is no parallel size computation to drift out of sync with `put_data`.

use bytes::{BufMut, Bytes, BytesMut};
use dash_sim::time::{SimDuration, SimTime};
use rms_core::delay::{DelayBound, DelayBoundKind, StatisticalSpec};
use rms_core::message::Label;
use rms_core::params::{
    Authentication, BitErrorRate, Privacy, Reliability, RmsParams, SecurityParams,
};
use rms_core::wire::{self, Truncated, WireCursor, WireMsg};

use crate::ids::StRmsId;

/// Why decoding failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes mid-field.
    Truncated,
    /// Unknown frame or control tag.
    BadTag(u8),
    /// A decoded value was structurally invalid.
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadTag(t) => write!(f, "unknown tag {t}"),
            WireError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<Truncated> for WireError {
    fn from(_: Truncated) -> Self {
        WireError::Truncated
    }
}

/// Fragment position within a fragmented ST message (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragInfo {
    /// Zero-based fragment index.
    pub index: u32,
    /// Total fragments in the message.
    pub count: u32,
}

/// A data frame: one ST message or fragment thereof.
#[derive(Debug, Clone, PartialEq)]
pub struct DataFrame {
    /// The ST RMS this belongs to.
    pub st_rms: StRmsId,
    /// Per-ST-RMS sequence number of the *message* (fragments share it).
    pub seq: u64,
    /// Fragmentation info, if this is a fragment.
    pub frag: Option<FragInfo>,
    /// When the client's send operation started (delay clock origin, §2.2).
    pub sent_at: SimTime,
    /// The receiver ST should send a fast acknowledgement (§3.2).
    pub fast_ack: bool,
    /// Optional source label.
    pub source: Option<Label>,
    /// Optional target label.
    pub target: Option<Label>,
    /// Optional observability span id, carried end-to-end so the receiver
    /// can close the message's lifecycle span (`dash_sim::obs`). Present
    /// on the wire only when set (adds 8 bytes); `None` whenever
    /// observability is off, keeping the baseline wire format unchanged.
    pub span: Option<u64>,
    /// Payload bytes (scatter-gather; fragments are views of the original
    /// message body).
    pub payload: WireMsg,
}

/// Control messages carried on the per-peer control channel (§3.2).
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMsg {
    /// Authentication challenge: "I am `host`; prove you share our key".
    Hello {
        /// Sender's host id.
        host: u32,
        /// Fresh nonce.
        nonce: u64,
        /// MAC over the nonce under the pair key.
        tag: u64,
    },
    /// Authentication response: MAC over `nonce + 1` under the pair key.
    HelloAck {
        /// The responder's host id.
        host: u32,
        /// Echo of the challenge nonce.
        nonce: u64,
        /// MAC over `nonce + 1`.
        tag: u64,
    },
    /// Request to create an ST RMS toward the receiver (the requester is
    /// the data sender).
    StCreateReq {
        /// The new stream's id, chosen by the requester.
        st_rms: StRmsId,
        /// The negotiated ST-level parameters.
        params: RmsParams,
        /// Whether data frames will request fast acknowledgements.
        fast_ack: bool,
        /// The client's opening header, opaque to the ST: what the
        /// receiving client needs to claim the stream before any data
        /// arrives on it. At most [`MAX_OPENING_HEADER`] bytes.
        header: Bytes,
    },
    /// Positive reply: the receiver holds its end of the stream.
    StCreateAck {
        /// The requested stream.
        st_rms: StRmsId,
    },
    /// Negative reply.
    StCreateNak {
        /// The refused stream.
        st_rms: StRmsId,
    },
    /// Close an ST RMS (sent by its sender side).
    StClose {
        /// The stream being closed.
        st_rms: StRmsId,
    },
}

/// Any ST frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A single data frame.
    Data(DataFrame),
    /// Several data frames piggybacked into one network message (§4.2).
    Bundle(Vec<DataFrame>),
    /// A control message.
    Ctrl(ControlMsg),
    /// Fast acknowledgement for `(st_rms, seq)` (§3.2).
    FastAck {
        /// Acknowledged stream.
        st_rms: StRmsId,
        /// Acknowledged message sequence number.
        seq: u64,
    },
}

const TAG_DATA: u8 = 1;
const TAG_BUNDLE: u8 = 2;
const TAG_CTRL: u8 = 3;
const TAG_FASTACK: u8 = 4;

const CTRL_HELLO: u8 = 1;
const CTRL_HELLO_ACK: u8 = 2;
const CTRL_CREATE_REQ: u8 = 3;
const CTRL_CREATE_ACK: u8 = 4;
const CTRL_CREATE_NAK: u8 = 5;
const CTRL_CLOSE: u8 = 6;

/// Longest opening header a [`ControlMsg::StCreateReq`] carries.
pub const MAX_OPENING_HEADER: usize = 64;

const FLAG_FRAG: u8 = 1;
const FLAG_FAST_ACK: u8 = 2;
const FLAG_SOURCE: u8 = 4;
const FLAG_TARGET: u8 = 8;
const FLAG_SPAN: u8 = 16;

/// Bytes of a bundle's header: its tag and its frame count.
pub const BUNDLE_OVERHEAD: u64 = 3;

/// Write the header of a bundle of `count` frames ([`BUNDLE_OVERHEAD`]
/// bytes); the frames follow it back to back.
pub(crate) fn put_bundle_header(buf: &mut BytesMut, count: usize) {
    buf.put_u8(TAG_BUNDLE);
    buf.put_u16(count as u16);
}

/// Write `d`'s header fields — everything up to and including the payload
/// length prefix, but not the payload itself — into `buf`.
fn put_data_header(buf: &mut BytesMut, d: &DataFrame) {
    buf.put_u8(TAG_DATA);
    buf.put_u64(d.st_rms.0);
    buf.put_u64(d.seq);
    let mut flags = 0u8;
    if d.frag.is_some() {
        flags |= FLAG_FRAG;
    }
    if d.fast_ack {
        flags |= FLAG_FAST_ACK;
    }
    if d.source.is_some() {
        flags |= FLAG_SOURCE;
    }
    if d.target.is_some() {
        flags |= FLAG_TARGET;
    }
    if d.span.is_some() {
        flags |= FLAG_SPAN;
    }
    buf.put_u8(flags);
    if let Some(f) = d.frag {
        buf.put_u32(f.index);
        buf.put_u32(f.count);
    }
    buf.put_u64(d.sent_at.as_nanos());
    if let Some(s) = d.source {
        buf.put_u64(s.0);
    }
    if let Some(t) = d.target {
        buf.put_u64(t.0);
    }
    if let Some(sp) = d.span {
        buf.put_u64(sp);
    }
    buf.put_u32(d.payload.len() as u32);
}

fn put_params(buf: &mut BytesMut, p: &RmsParams) {
    buf.put_u8(match p.reliability {
        Reliability::Unreliable => 0,
        Reliability::Reliable => 1,
    });
    buf.put_u8(match p.security.authentication {
        Authentication::Unauthenticated => 0,
        Authentication::Authenticated => 1,
    });
    buf.put_u8(match p.security.privacy {
        Privacy::Open => 0,
        Privacy::Private => 1,
    });
    buf.put_u64(p.capacity);
    buf.put_u64(p.max_message_size);
    buf.put_u64(p.delay.fixed.as_nanos());
    buf.put_u64(p.delay.per_byte.as_nanos());
    match p.delay.kind {
        DelayBoundKind::BestEffort => buf.put_u8(0),
        DelayBoundKind::Statistical(s) => {
            buf.put_u8(1);
            buf.put_f64(s.average_load);
            buf.put_f64(s.burstiness);
            buf.put_f64(s.delay_probability);
        }
        DelayBoundKind::Deterministic => buf.put_u8(2),
    }
    buf.put_f64(p.error_rate.rate());
}

fn put_ctrl(buf: &mut BytesMut, c: &ControlMsg) {
    buf.put_u8(TAG_CTRL);
    match c {
        ControlMsg::Hello { host, nonce, tag } => {
            buf.put_u8(CTRL_HELLO);
            buf.put_u32(*host);
            buf.put_u64(*nonce);
            buf.put_u64(*tag);
        }
        ControlMsg::HelloAck { host, nonce, tag } => {
            buf.put_u8(CTRL_HELLO_ACK);
            buf.put_u32(*host);
            buf.put_u64(*nonce);
            buf.put_u64(*tag);
        }
        ControlMsg::StCreateReq {
            st_rms,
            params,
            fast_ack,
            header,
        } => {
            buf.put_u8(CTRL_CREATE_REQ);
            buf.put_u64(st_rms.0);
            buf.put_u8(u8::from(*fast_ack));
            put_params(buf, params);
            buf.put_u8(header.len() as u8);
            buf.put_slice(header);
        }
        ControlMsg::StCreateAck { st_rms } => {
            buf.put_u8(CTRL_CREATE_ACK);
            buf.put_u64(st_rms.0);
        }
        ControlMsg::StCreateNak { st_rms } => {
            buf.put_u8(CTRL_CREATE_NAK);
            buf.put_u64(st_rms.0);
        }
        ControlMsg::StClose { st_rms } => {
            buf.put_u8(CTRL_CLOSE);
            buf.put_u64(st_rms.0);
        }
    }
}

/// Longest data header `put_data_header` writes: tag, stream, seq,
/// flags, fragment index and count, send time, both labels, span and
/// payload length.
const MAX_DATA_HEADER: usize = 62;

/// Shortest encoded data frame: tag, stream, seq, flags, send time and
/// payload length, with no options and an empty payload.
const MIN_DATA_FRAME: usize = 30;

/// Longest parameter block `put_params` writes: three mode bytes, the
/// capacity, message size and two delay terms, the delay kind with a
/// statistical spec, and the error rate.
const MAX_PARAMS_LEN: usize = 3 + 4 * 8 + 1 + 3 * 8 + 8;

/// Longest control frame `put_ctrl` writes: a [`ControlMsg::StCreateReq`]
/// (frame and control tags, stream, fast-ack flag) with statistical
/// parameters and a [`MAX_OPENING_HEADER`]-byte opening header behind its
/// length byte.
pub const MAX_CTRL_LEN: usize = 2 + 8 + 1 + MAX_PARAMS_LEN + 1 + MAX_OPENING_HEADER;

/// Encode a frame as a scatter-gather [`WireMsg`]: header fields carved
/// from the shared header store (bundles share one header arena),
/// payload bytes as zero-copy segment views. `encode(f).len()` is the
/// frame's exact wire size.
pub fn encode(frame: &Frame) -> WireMsg {
    match frame {
        Frame::Data(d) => {
            let mut out =
                WireMsg::from_bytes(wire::header(MAX_DATA_HEADER, |buf| put_data_header(buf, d)));
            out.append(&d.payload);
            out
        }
        Frame::Bundle(frames) => {
            // All headers go into one arena; the frame payloads are
            // interleaved between zero-copy slices of it.
            let mut cuts = Vec::with_capacity(frames.len());
            let room = BUNDLE_OVERHEAD as usize + MAX_DATA_HEADER * frames.len();
            let arena = wire::header(room, |buf| {
                put_bundle_header(buf, frames.len());
                for d in frames {
                    put_data_header(buf, d);
                    cuts.push(buf.len());
                }
            });
            let segs = frames.iter().map(|d| 1 + d.payload.seg_count()).sum();
            let mut out = WireMsg::with_capacity(segs);
            let mut prev = 0;
            for (d, cut) in frames.iter().zip(cuts) {
                out.push(arena.slice(prev..cut));
                out.append(&d.payload);
                prev = cut;
            }
            out
        }
        Frame::Ctrl(c) => {
            // `create` refuses a longer opening header; only a hostile-input
            // test encodes one, and it gets the room it writes.
            let over = match c {
                ControlMsg::StCreateReq { header, .. } => {
                    header.len().saturating_sub(MAX_OPENING_HEADER)
                }
                _ => 0,
            };
            WireMsg::from_bytes(wire::header(MAX_CTRL_LEN + over, |buf| put_ctrl(buf, c)))
        }
        Frame::FastAck { st_rms, seq } => WireMsg::from_bytes(wire::header(17, |buf| {
            buf.put_u8(TAG_FASTACK);
            buf.put_u64(st_rms.0);
            buf.put_u64(*seq);
        })),
    }
}

fn get_data(c: &mut WireCursor<'_>) -> Result<DataFrame, WireError> {
    let st_rms = StRmsId(c.get_u64()?);
    let seq = c.get_u64()?;
    let flags = c.get_u8()?;
    let frag = if flags & FLAG_FRAG != 0 {
        let index = c.get_u32()?;
        let count = c.get_u32()?;
        if count == 0 || index >= count {
            return Err(WireError::Invalid("fragment index/count"));
        }
        Some(FragInfo { index, count })
    } else {
        None
    };
    let sent_at = SimTime::from_nanos(c.get_u64()?);
    let source = if flags & FLAG_SOURCE != 0 {
        Some(Label(c.get_u64()?))
    } else {
        None
    };
    let target = if flags & FLAG_TARGET != 0 {
        Some(Label(c.get_u64()?))
    } else {
        None
    };
    let span = if flags & FLAG_SPAN != 0 {
        Some(c.get_u64()?)
    } else {
        None
    };
    let len = c.get_u32()? as usize;
    let payload = c.take_wire(len)?;
    Ok(DataFrame {
        st_rms,
        seq,
        frag,
        sent_at,
        fast_ack: flags & FLAG_FAST_ACK != 0,
        source,
        target,
        span,
        payload,
    })
}

fn get_params(c: &mut WireCursor<'_>) -> Result<RmsParams, WireError> {
    let reliability = match c.get_u8()? {
        0 => Reliability::Unreliable,
        1 => Reliability::Reliable,
        t => return Err(WireError::BadTag(t)),
    };
    let authentication = match c.get_u8()? {
        0 => Authentication::Unauthenticated,
        1 => Authentication::Authenticated,
        t => return Err(WireError::BadTag(t)),
    };
    let privacy = match c.get_u8()? {
        0 => Privacy::Open,
        1 => Privacy::Private,
        t => return Err(WireError::BadTag(t)),
    };
    let capacity = c.get_u64()?;
    let max_message_size = c.get_u64()?;
    let fixed = SimDuration::from_nanos(c.get_u64()?);
    let per_byte = SimDuration::from_nanos(c.get_u64()?);
    let kind = match c.get_u8()? {
        0 => DelayBoundKind::BestEffort,
        1 => {
            let average_load = c.get_f64()?;
            let burstiness = c.get_f64()?;
            let delay_probability = c.get_f64()?;
            if !(average_load >= 0.0
                && burstiness >= 1.0
                && (0.0..=1.0).contains(&delay_probability))
            {
                return Err(WireError::Invalid("statistical spec"));
            }
            DelayBoundKind::Statistical(StatisticalSpec::new(
                average_load,
                burstiness,
                delay_probability,
            ))
        }
        2 => DelayBoundKind::Deterministic,
        t => return Err(WireError::BadTag(t)),
    };
    let error_rate = BitErrorRate::new(c.get_f64()?).ok_or(WireError::Invalid("error rate"))?;
    let params = RmsParams {
        reliability,
        security: SecurityParams {
            authentication,
            privacy,
        },
        capacity,
        max_message_size,
        delay: DelayBound {
            fixed,
            per_byte,
            kind,
        },
        error_rate,
    };
    params
        .validate()
        .map_err(|_| WireError::Invalid("parameter invariants"))?;
    Ok(params)
}

fn get_ctrl(c: &mut WireCursor<'_>) -> Result<ControlMsg, WireError> {
    match c.get_u8()? {
        CTRL_HELLO => Ok(ControlMsg::Hello {
            host: c.get_u32()?,
            nonce: c.get_u64()?,
            tag: c.get_u64()?,
        }),
        CTRL_HELLO_ACK => Ok(ControlMsg::HelloAck {
            host: c.get_u32()?,
            nonce: c.get_u64()?,
            tag: c.get_u64()?,
        }),
        CTRL_CREATE_REQ => {
            let st_rms = StRmsId(c.get_u64()?);
            let fast_ack = c.get_u8()? != 0;
            let params = get_params(c)?;
            let len = c.get_u8()? as usize;
            if len > MAX_OPENING_HEADER {
                return Err(WireError::Invalid("opening header length"));
            }
            Ok(ControlMsg::StCreateReq {
                st_rms,
                params,
                fast_ack,
                header: c.take_bytes(len)?,
            })
        }
        CTRL_CREATE_ACK => Ok(ControlMsg::StCreateAck {
            st_rms: StRmsId(c.get_u64()?),
        }),
        CTRL_CREATE_NAK => Ok(ControlMsg::StCreateNak {
            st_rms: StRmsId(c.get_u64()?),
        }),
        CTRL_CLOSE => Ok(ControlMsg::StClose {
            st_rms: StRmsId(c.get_u64()?),
        }),
        t => Err(WireError::BadTag(t)),
    }
}

/// Decode one frame from a wire message, slicing its shared segments —
/// payload bytes are handed back as zero-copy views, never copied.
///
/// # Errors
///
/// [`WireError`] on truncation, unknown tags, or invalid fields.
pub fn decode(msg: &WireMsg) -> Result<Frame, WireError> {
    let mut frames = Vec::new();
    Ok(decode_into(msg, &mut frames)?.unwrap_or(Frame::Bundle(frames)))
}

/// [`decode`], with a bundle's frames decoded into `frames` (emptied
/// first) and reported as `Ok(None)`, so a receiver that keeps the list
/// decodes bundles without allocating. A bundle is decoded whole before
/// any of it is returned: one malformed frame makes the bundle an error.
///
/// # Errors
///
/// As [`decode`]; `frames` then holds what was decoded before the fault.
pub fn decode_into(msg: &WireMsg, frames: &mut Vec<DataFrame>) -> Result<Option<Frame>, WireError> {
    let mut c = msg.cursor();
    let frame = match c.get_u8()? {
        TAG_DATA => Frame::Data(get_data(&mut c)?),
        TAG_BUNDLE => {
            let count = c.get_u16()? as usize;
            frames.clear();
            // A forged count must not size the kept list: reserve only what
            // the bytes left could hold.
            frames.reserve(count.min(c.remaining() / MIN_DATA_FRAME));
            for _ in 0..count {
                let tag = c.get_u8()?;
                if tag != TAG_DATA {
                    return Err(WireError::BadTag(tag));
                }
                frames.push(get_data(&mut c)?);
            }
            return Ok(None);
        }
        TAG_CTRL => Frame::Ctrl(get_ctrl(&mut c)?),
        TAG_FASTACK => Frame::FastAck {
            st_rms: StRmsId(c.get_u64()?),
            seq: c.get_u64()?,
        },
        t => return Err(WireError::BadTag(t)),
    };
    Ok(Some(frame))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn sample_data(seq: u64, len: usize) -> DataFrame {
        DataFrame {
            st_rms: StRmsId(42),
            seq,
            frag: None,
            sent_at: SimTime::from_nanos(123_456),
            fast_ack: false,
            source: None,
            target: None,
            span: None,
            payload: WireMsg::from(vec![7u8; len]),
        }
    }

    fn sample_params() -> RmsParams {
        RmsParams::builder(10_000, 1_000)
            .reliability(Reliability::Reliable)
            .security(SecurityParams::FULL)
            .delay(DelayBound::deterministic(
                SimDuration::from_millis(5),
                SimDuration::from_nanos(800),
            ))
            .error_rate(BitErrorRate::new(1e-7).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn data_round_trip() {
        let f = Frame::Data(sample_data(9, 100));
        assert_eq!(decode(&encode(&f)).unwrap(), f);
    }

    #[test]
    fn data_with_everything_round_trip() {
        let mut d = sample_data(1, 10);
        d.frag = Some(FragInfo { index: 2, count: 5 });
        d.fast_ack = true;
        d.source = Some(Label(11));
        d.target = Some(Label(22));
        d.span = Some(0xdead_beef);
        let f = Frame::Data(d);
        assert_eq!(decode(&encode(&f)).unwrap(), f);
    }

    #[test]
    fn bundle_round_trip() {
        let f = Frame::Bundle(vec![
            sample_data(0, 5),
            sample_data(1, 0),
            sample_data(2, 300),
        ]);
        assert_eq!(decode(&encode(&f)).unwrap(), f);
    }

    #[test]
    fn encode_and_decode_never_copy_payload_bytes() {
        let body = Bytes::from(vec![9u8; 256]);
        let mut d = sample_data(4, 0);
        d.payload = WireMsg::from_bytes(body.clone());
        let enc = encode(&Frame::Data(d));
        // The encoded message's payload segment *is* the caller's buffer.
        assert!(enc.segments().any(|s| s.as_ptr() == body.as_ptr()));
        // And decode hands the same buffer back.
        let Frame::Data(out) = decode(&enc).unwrap() else {
            panic!("expected data frame");
        };
        assert_eq!(out.payload.contiguous().as_ptr(), body.as_ptr());
    }

    #[test]
    fn bundle_headers_share_one_arena() {
        let f = Frame::Bundle(vec![sample_data(0, 64), sample_data(1, 64)]);
        let enc = encode(&f);
        // [hdr0, payload0, hdr1, payload1]: both header chunks are slices
        // of one arena allocation, adjacent payloads stay distinct.
        let segs: Vec<_> = enc.segments().collect();
        assert_eq!(segs.len(), 4);
        let arena_base = segs[0].as_ptr();
        let hdr1 = segs[2].as_ptr();
        assert_eq!(arena_base.wrapping_add(segs[0].len()), hdr1);
    }

    #[test]
    fn ctrl_round_trips() {
        let msgs = vec![
            ControlMsg::Hello {
                host: 3,
                nonce: 99,
                tag: 0xabcd,
            },
            ControlMsg::HelloAck {
                host: 4,
                nonce: 99,
                tag: 0xef01,
            },
            ControlMsg::StCreateReq {
                st_rms: StRmsId(12),
                params: sample_params(),
                fast_ack: true,
                header: Bytes::from_static(&[0xD6; MAX_OPENING_HEADER]),
            },
            ControlMsg::StCreateAck {
                st_rms: StRmsId(12),
            },
            ControlMsg::StCreateNak {
                st_rms: StRmsId(12),
            },
            ControlMsg::StClose {
                st_rms: StRmsId(12),
            },
        ];
        for m in msgs {
            let f = Frame::Ctrl(m);
            assert_eq!(decode(&encode(&f)).unwrap(), f, "failed for {f:?}");
        }
    }

    #[test]
    fn statistical_params_round_trip() {
        let mut p = sample_params();
        p.delay.kind = DelayBoundKind::Statistical(StatisticalSpec::new(5e5, 3.0, 0.95));
        let f = Frame::Ctrl(ControlMsg::StCreateReq {
            st_rms: StRmsId(1),
            params: p,
            fast_ack: false,
            header: Bytes::new(),
        });
        assert_eq!(decode(&encode(&f)).unwrap(), f);
    }

    /// The opening header's length is bounded on decode: a request claiming
    /// more than [`MAX_OPENING_HEADER`] bytes is refused, whatever follows.
    #[test]
    fn oversized_opening_header_fails() {
        let f = Frame::Ctrl(ControlMsg::StCreateReq {
            st_rms: StRmsId(1),
            params: sample_params(),
            fast_ack: false,
            header: Bytes::from(vec![1; MAX_OPENING_HEADER + 1]),
        });
        assert_eq!(
            decode(&encode(&f)),
            Err(WireError::Invalid("opening header length"))
        );
    }

    /// Control frames are carved from the header store with
    /// [`MAX_CTRL_LEN`] bytes of room: the longest one, a create request
    /// with statistical parameters and a full opening header, fills it
    /// exactly, and every other fits.
    #[test]
    fn the_longest_control_frame_fills_max_ctrl_len() {
        let mut p = sample_params();
        p.delay.kind = DelayBoundKind::Statistical(StatisticalSpec::new(5e5, 3.0, 0.95));
        let longest = ControlMsg::StCreateReq {
            st_rms: StRmsId(u64::MAX),
            params: p,
            fast_ack: true,
            header: Bytes::from_static(&[0xD6; MAX_OPENING_HEADER]),
        };
        assert_eq!(encode(&Frame::Ctrl(longest)).len(), MAX_CTRL_LEN);
        let others = [
            ControlMsg::Hello {
                host: u32::MAX,
                nonce: u64::MAX,
                tag: u64::MAX,
            },
            ControlMsg::HelloAck {
                host: u32::MAX,
                nonce: u64::MAX,
                tag: u64::MAX,
            },
            ControlMsg::StCreateReq {
                st_rms: StRmsId(1),
                params: sample_params(),
                fast_ack: false,
                header: Bytes::from_static(&[0xD6; MAX_OPENING_HEADER]),
            },
            ControlMsg::StClose { st_rms: StRmsId(1) },
        ];
        for m in others {
            assert!(
                encode(&Frame::Ctrl(m.clone())).len() < MAX_CTRL_LEN,
                "{m:?}"
            );
        }
    }

    /// A bundle header's frame count is the sender's word only: a forged
    /// `[0x02, 0xFF, 0xFF]` with no frames behind it is refused, and the
    /// kept frame list is not sized for 65 535 frames on its say-so.
    #[test]
    fn a_forged_bundle_count_does_not_size_the_frame_list() {
        let forged = WireMsg::from_bytes(Bytes::from_static(&[TAG_BUNDLE, 0xFF, 0xFF]));
        let mut frames = Vec::new();
        assert_eq!(decode_into(&forged, &mut frames), Err(WireError::Truncated));
        assert_eq!(frames.capacity(), 0);
        // A real bundle behind a forged count reserves only what its bytes
        // could hold (two frames; a `Vec`'s first allocation holds four).
        let real = encode(&Frame::Bundle(vec![sample_data(0, 0), sample_data(1, 0)]));
        let mut lying = real.contiguous().to_vec();
        lying[1..3].copy_from_slice(&u16::MAX.to_be_bytes());
        let lying = WireMsg::from(lying);
        assert_eq!(decode_into(&lying, &mut frames), Err(WireError::Truncated));
        assert_eq!(frames.len(), 2);
        assert!(frames.capacity() <= 4, "{}", frames.capacity());
    }

    #[test]
    fn fast_ack_round_trip() {
        let f = Frame::FastAck {
            st_rms: StRmsId(5),
            seq: 77,
        };
        assert_eq!(decode(&encode(&f)).unwrap(), f);
    }

    #[test]
    fn truncated_fails() {
        let f = Frame::Data(sample_data(1, 50));
        let enc = encode(&f);
        for cut in [0, 1, 5, enc.len() - 1] {
            let partial = enc.slice(0, cut);
            assert!(decode(&partial).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn bad_tag_fails() {
        let b = WireMsg::from_bytes(Bytes::from_static(&[200, 0, 0]));
        assert_eq!(decode(&b), Err(WireError::BadTag(200)));
    }

    #[test]
    fn invalid_frag_fails() {
        let mut d = sample_data(1, 4);
        d.frag = Some(FragInfo { index: 5, count: 5 }); // index >= count
        let enc = encode(&Frame::Data(d));
        assert!(matches!(decode(&enc), Err(WireError::Invalid(_))));
    }

    #[test]
    fn encoded_len_is_header_plus_options_plus_payload() {
        // WireMsg::len() on the encoder output is the size authority; pin
        // the layout arithmetic so accidental format drift is loud. Base
        // header: tag + st_rms + seq + flags + sent_at + payload length
        // prefix = 30 bytes; frag/source/target/span add 8 bytes each.
        for (len, frag, src, tgt, span) in [
            (0usize, false, false, false, false),
            (100, true, false, false, false),
            (5, false, true, true, false),
            (7, false, false, false, true),
            (1000, true, true, true, true),
        ] {
            let mut d = sample_data(3, len);
            if frag {
                d.frag = Some(FragInfo { index: 0, count: 2 });
            }
            if src {
                d.source = Some(Label(1));
            }
            if tgt {
                d.target = Some(Label(2));
            }
            if span {
                d.span = Some(9);
            }
            let expected = 30 + len + [frag, src, tgt, span].iter().filter(|&&b| b).count() * 8;
            assert_eq!(
                encode(&Frame::Data(d)).len(),
                expected,
                "mismatch for len={len} frag={frag} src={src} tgt={tgt} span={span}"
            );
        }
    }

    #[test]
    fn bundle_overhead_is_three_bytes() {
        let d = sample_data(0, 10);
        let single = encode(&Frame::Data(d.clone())).len();
        let bundle = encode(&Frame::Bundle(vec![d.clone(), d])).len();
        assert_eq!(BUNDLE_OVERHEAD, 3);
        assert_eq!(bundle, BUNDLE_OVERHEAD as usize + 2 * single);
    }
}
