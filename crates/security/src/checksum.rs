//! Data-integrity checksums.
//!
//! The paper's point (§2.5) is that *which* checksum runs, and *where*, is
//! decided from RMS parameters: a network with hardware link-level
//! checksumming lets software skip the work entirely. We implement three
//! software algorithms with different cost/strength trade-offs, all
//! self-contained:
//!
//! - [`Algorithm::Internet`]: the RFC 1071 ones-complement sum (cheap,
//!   weak).
//! - [`Algorithm::Fletcher32`]: Fletcher's checksum (moderate).
//! - [`Algorithm::Crc32`]: CRC-32 (IEEE 802.3 polynomial, table-driven;
//!   strongest, most expensive).

/// Available checksum algorithms, cheapest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// RFC 1071 16-bit ones-complement sum.
    Internet,
    /// Fletcher-32.
    Fletcher32,
    /// CRC-32 (IEEE).
    Crc32,
}

impl Algorithm {
    /// All algorithms, cheapest first.
    pub const ALL: [Algorithm; 3] = [Algorithm::Internet, Algorithm::Fletcher32, Algorithm::Crc32];

    /// Compute the checksum of `data` as a 32-bit value (the Internet sum
    /// occupies the low 16 bits).
    pub fn compute(self, data: &[u8]) -> u32 {
        self.compute_segments([data])
    }

    /// Compute the checksum of the concatenation of `segments` in place —
    /// a scatter-gather message's segments, without flattening them. The
    /// value equals [`Algorithm::compute`] of the joined bytes, however
    /// they are split.
    pub fn compute_segments<'a>(self, segments: impl IntoIterator<Item = &'a [u8]>) -> u32 {
        match self {
            Algorithm::Internet => internet_checksum_segments(segments) as u32,
            Algorithm::Fletcher32 => fletcher32_segments(segments),
            Algorithm::Crc32 => crc32_segments(segments),
        }
    }

    /// Verify `data` against a previously computed checksum.
    pub fn verify(self, data: &[u8], checksum: u32) -> bool {
        self.compute(data) == checksum
    }

    /// Approximate probability that a random corruption goes undetected —
    /// used when deriving the *effective* bit error rate a provider can
    /// guarantee (§2.2: the error rate "reflects ... the effectiveness of
    /// the checksumming algorithm").
    pub fn undetected_error_probability(self) -> f64 {
        match self {
            Algorithm::Internet => 1.0 / 65_536.0,
            Algorithm::Fletcher32 => 1.0 / 4.29e9 * 16.0, // weaker than CRC for burst errors
            Algorithm::Crc32 => 1.0 / 4.29e9,
        }
    }
}

/// Feed the big-endian 16-bit words of `segments`' concatenation to
/// `word`, a word straddling two segments included; an odd final byte is
/// padded with zero.
fn for_each_word<'a>(segments: impl IntoIterator<Item = &'a [u8]>, mut word: impl FnMut(u16)) {
    let mut odd: Option<u8> = None;
    for seg in segments {
        let mut rest = seg;
        if let (Some(hi), Some((&lo, tail))) = (odd, rest.split_first()) {
            word(u16::from_be_bytes([hi, lo]));
            odd = None;
            rest = tail;
        }
        let mut pairs = rest.chunks_exact(2);
        for c in &mut pairs {
            word(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = pairs.remainder() {
            odd = Some(*last);
        }
    }
    if let Some(hi) = odd {
        word(u16::from_be_bytes([hi, 0]));
    }
}

/// RFC 1071 ones-complement 16-bit checksum.
pub fn internet_checksum(data: &[u8]) -> u16 {
    internet_checksum_segments([data])
}

fn internet_checksum_segments<'a>(segments: impl IntoIterator<Item = &'a [u8]>) -> u16 {
    let mut sum: u64 = 0;
    for_each_word(segments, |w| sum += u64::from(w));
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Fletcher-32 checksum over bytes (word size 16, blocked to avoid
/// overflow).
pub fn fletcher32(data: &[u8]) -> u32 {
    fletcher32_segments([data])
}

fn fletcher32_segments<'a>(segments: impl IntoIterator<Item = &'a [u8]>) -> u32 {
    // Words are summed in blocks of 359, the most that cannot overflow
    // the 32-bit sums, then reduced.
    const BLOCK: u32 = 359;
    let (mut c0, mut c1, mut in_block) = (0u32, 0u32, 0u32);
    for_each_word(segments, |w| {
        c0 += u32::from(w);
        c1 += c0;
        in_block += 1;
        if in_block == BLOCK {
            c0 %= 65_535;
            c1 %= 65_535;
            in_block = 0;
        }
    });
    c0 %= 65_535;
    c1 %= 65_535;
    (c1 << 16) | c0
}

fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_segments([data])
}

fn crc32_segments<'a>(segments: impl IntoIterator<Item = &'a [u8]>) -> u32 {
    // Build the table once.
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(crc32_table);
    let mut c = 0xffff_ffffu32;
    for seg in segments {
        for &b in seg {
            c = table[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
        }
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internet_checksum_known_vector() {
        // Classic RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2,
        // checksum = !ddf2 = 220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2u16);
    }

    #[test]
    fn internet_checksum_odd_length() {
        let even = internet_checksum(&[0xab, 0x00]);
        let odd = internet_checksum(&[0xab]);
        assert_eq!(even, odd);
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn fletcher32_known_vectors() {
        // Reference values for big-endian 16-bit word grouping.
        let a = fletcher32(b"abcde");
        let b = fletcher32(b"abcdef");
        assert_ne!(a, b);
        // Odd inputs are zero-padded to a word: "abc" and "abc\0" collide by
        // construction, but content changes always show.
        assert_eq!(fletcher32(b"abc"), fletcher32(b"abc\0"));
        assert_ne!(fletcher32(b"ab"), fletcher32(b"ac"));
    }

    #[test]
    fn long_input_values_are_pinned() {
        // Values of the flat, slice-at-a-time implementations the
        // segment-streaming forms replaced: odd lengths, more than one
        // Fletcher block, and all-ones words.
        let pattern: Vec<u8> = (0..2001u32).map(|i| (i * 7 + 3) as u8).collect();
        let ones = [0xffu8; 1001];
        assert_eq!(internet_checksum(&pattern), 0x3c93);
        assert_eq!(fletcher32(&pattern), 0x8a57_c36c);
        assert_eq!(crc32(&pattern), 0x13fc_b738);
        assert_eq!(internet_checksum(&ones), 0x00ff);
        assert_eq!(fletcher32(&ones), 0xff00_ff00);
        assert_eq!(crc32(&ones), 0xd939_639e);
    }

    #[test]
    fn all_detect_single_bit_flip() {
        let data: Vec<u8> = (0..=255).collect();
        for alg in Algorithm::ALL {
            let sum = alg.compute(&data);
            assert!(alg.verify(&data, sum));
            for byte in [0usize, 17, 255] {
                for bit in [0, 3, 7] {
                    let mut corrupted = data.clone();
                    corrupted[byte] ^= 1 << bit;
                    assert!(
                        !alg.verify(&corrupted, sum),
                        "{alg:?} missed flip at {byte}:{bit}"
                    );
                }
            }
        }
    }

    #[test]
    fn strength_ordering() {
        assert!(
            Algorithm::Crc32.undetected_error_probability()
                < Algorithm::Fletcher32.undetected_error_probability()
        );
        assert!(
            Algorithm::Fletcher32.undetected_error_probability()
                < Algorithm::Internet.undetected_error_probability()
        );
    }
}
