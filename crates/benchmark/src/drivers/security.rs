//! `dash-security` drivers. Stream and RKOM request `SecurityParams::NONE`,
//! so no end-to-end workload reaches this crate: these rows are its only
//! measurement.

use std::collections::BTreeMap;
use std::hint::black_box;

use dash_security::checksum::Algorithm;
use dash_security::cipher::{encrypt, Key};
use dash_security::mac;

use super::Size;

pub(super) fn run(size: &Size, out: &mut BTreeMap<&'static str, f64>) {
    // One Ethernet-size fragment; reported per KiB.
    let data = vec![0xa5u8; 1500];
    let per_kb = 1024.0 / data.len() as f64;
    let key = Key(42);
    let ns = size.ns_per_op(1024, || {
        black_box(Algorithm::Crc32.compute(black_box(&data)));
    });
    out.insert("security.drv.checksum_ns_per_kb", ns * per_kb);
    let ns = size.ns_per_op(1024, || {
        black_box(mac::sign(key, 7, black_box(&data)));
    });
    out.insert("security.drv.mac_ns_per_kb", ns * per_kb);
    let ns = size.ns_per_op(1024, || {
        black_box(encrypt(key, 7, black_box(&data)));
    });
    out.insert("security.drv.cipher_ns_per_kb", ns * per_kb);
}
