//! `rms-core` drivers: admission ledger (reported under `mesh-churn`) and
//! the scatter-gather wire message (under `bulk-frag`).

use std::collections::BTreeMap;
use std::hint::black_box;

use bytes::{BufMut, Bytes, BytesMut};
use dash_sim::time::SimDuration;
use rms_core::admission::ResourceLedger;
use rms_core::delay::DelayBound;
use rms_core::params::RmsParams;
use rms_core::wire::WireMsg;

use super::Size;

static BODY: [u8; 32 * 1024] = [0u8; 32 * 1024];

pub(super) fn run(size: &Size, out: &mut BTreeMap<&'static str, f64>) {
    // Admit then release one deterministic reservation on a 10 Mb/s
    // interface ledger already holding the mesh corridor's heavies.
    let params = RmsParams::builder(12 * 1024, 1054)
        .delay(DelayBound::deterministic(
            SimDuration::from_millis(50),
            SimDuration::from_micros(4),
        ))
        .build()
        .expect("valid parameters");
    let mut ledger = ResourceLedger::new(1.25e6, 256 * 1024);
    for _ in 0..3 {
        let _ = ledger.admit(&params);
    }
    let ns = size.ns_per_op(4096, || {
        black_box(ledger.admit(black_box(&params)));
        ledger.release(&params);
    });
    out.insert("core.admission.drv.admit_release_ns", ns);

    // Build a 32 KiB message the way the stream protocol does (owned
    // header chunk + shared payload) and slice it into MTU-size views.
    let payload = WireMsg::from_bytes(Bytes::from_static(&BODY));
    let build = || {
        let mut b = BytesMut::with_capacity(32);
        b.put_u8(0xD6);
        b.put_u8(2);
        b.put_u64(9);
        b.put_u64(77);
        b.put_u64(123_456);
        b.put_u32(BODY.len() as u32);
        let mut w = WireMsg::from_bytes(b.freeze());
        w.append(&payload);
        w
    };
    let ns = size.ns_per_op(256, || {
        let w = build();
        let mut at = 0;
        while at < w.len() {
            let end = (at + 1450).min(w.len());
            black_box(w.slice(at, end));
            at = end;
        }
    });
    out.insert("core.wire.drv.build_slice_ns", ns);

    // Cursor-decode the same message: header fields, then the payload
    // taken as a view.
    let w = build();
    let ns = size.ns_per_op(4096, || {
        let mut c = black_box(&w).cursor();
        let magic = c.get_u8().expect("header present");
        let kind = c.get_u8().expect("header present");
        let session = c.get_u64().expect("header present");
        let seq = c.get_u64().expect("header present");
        let sent = c.get_u64().expect("header present");
        let len = c.get_u32().expect("header present") as usize;
        black_box((magic, kind, session, seq, sent));
        black_box(c.take_wire(len).expect("payload present"));
    });
    out.insert("core.wire.drv.cursor_decode_ns", ns);
}
