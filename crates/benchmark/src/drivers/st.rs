//! `dash-subtransport` drivers: frame codec and piggyback queue on 160 B
//! voice frames (reported under `voice-lan`), fragmentation and
//! reassembly of 32 KiB over the Ethernet MTU (under `bulk-frag`).

use std::collections::BTreeMap;
use std::hint::black_box;

use bytes::Bytes;
use dash_sim::time::SimTime;
use dash_subtransport::frag::{fragment, FragSpec, Reassembly};
use dash_subtransport::ids::StRmsId;
use dash_subtransport::piggyback::{PendingEntry, PiggybackQueue};
use dash_subtransport::wire::{decode, encode, DataFrame, Frame};
use rms_core::wire::WireMsg;

use super::Size;

static VOICE: [u8; 190] = [0u8; 190];
static BULK: [u8; 32 * 1024 + 30] = [0u8; 32 * 1024 + 30];

fn voice_frame(stream: u64, seq: u64) -> DataFrame {
    DataFrame {
        st_rms: StRmsId(stream),
        seq,
        frag: None,
        sent_at: SimTime::from_nanos(seq),
        fast_ack: false,
        source: None,
        target: None,
        span: Some(seq),
        // 160 B of voice behind the stream protocol's 30 B header.
        payload: WireMsg::from_bytes(Bytes::from_static(&VOICE)),
    }
}

pub(super) fn run(size: &Size, out: &mut BTreeMap<&'static str, f64>) {
    let frame = Frame::Data(voice_frame(3, 9));
    let ns = size.ns_per_op(4096, || {
        black_box(encode(black_box(&frame)));
    });
    out.insert("st.wire.drv.encode_ns", ns);
    let encoded = encode(&frame);
    let ns = size.ns_per_op(4096, || {
        black_box(decode(black_box(&encoded)).expect("round trip"));
    });
    out.insert("st.wire.drv.decode_ns", ns);

    // Four frames of four streams share a bundle, then flush: what one
    // piggyback timer interval does on a loaded voice host. Per frame.
    let mut q = PiggybackQueue::new();
    let mut seq = 0u64;
    let ns = size.ns_per_op(1024, || {
        for stream in 0..4 {
            seq += 1;
            let entry = PendingEntry {
                wire: encode(&Frame::Data(voice_frame(stream, seq))),
                st_rms: StRmsId(stream),
                sent_at: SimTime::ZERO,
                span: Some(seq),
                min_deadline: SimTime::ZERO,
                max_deadline: SimTime::from_nanos(2_000_000),
            };
            black_box(q.try_push(entry, 1450));
        }
        black_box(q.flush());
    });
    out.insert("st.piggyback.drv.push_flush_ns", ns / 4.0);

    // Fragment one 32 KiB stream message over the 1536 B Ethernet MTU and
    // reassemble it. Per KiB of payload.
    let payload = WireMsg::from_bytes(Bytes::from_static(&BULK));
    let spec = FragSpec {
        st_rms: StRmsId(5),
        seq: 0,
        sent_at: SimTime::ZERO,
        fast_ack: true,
        source: None,
        target: None,
        span: Some(1),
    };
    let mut reassembly = Reassembly::new();
    let mut seq = 0u64;
    let ns = size.ns_per_op(64, || {
        seq += 1;
        let frames = fragment(&FragSpec { seq, ..spec }, black_box(&payload), 1450);
        let mut done = None;
        for f in frames {
            done = reassembly.push(f);
        }
        black_box(done.expect("last fragment completes the message"));
    });
    out.insert("st.frag.drv.ns_per_kb", ns / (BULK.len() as f64 / 1024.0));
}
