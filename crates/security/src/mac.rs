//! Simulated message authentication codes.
//!
//! Like [`crate::cipher`], this is a stand-in with real behaviour (tags
//! actually depend on key and content, forgery without the key fails in
//! tests) but no cryptographic strength. Used by the subtransport control
//! channel to authenticate peers and by authenticated RMSs to protect
//! source labels (§2.1).

use crate::cipher::Key;

/// A 64-bit authentication tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(pub u64);

fn mix(mut h: u64, v: u64) -> u64 {
    h ^= v;
    h = h.wrapping_mul(0x100_0000_01b3);
    h ^ (h >> 29)
}

/// Compute the tag of `data` under `key`, bound to `context` (e.g. the
/// source label or stream id, preventing cross-stream replay).
pub fn sign(key: Key, context: u64, data: &[u8]) -> Tag {
    sign_segments(key, context, [data])
}

/// [`sign`] over the concatenation of `segments`, read in place: the same
/// tag however the bytes are split.
pub fn sign_segments<'a>(
    key: Key,
    context: u64,
    segments: impl IntoIterator<Item = &'a [u8]>,
) -> Tag {
    let mut h = mix(0xcbf2_9ce4_8422_2325, key.0);
    h = mix(h, context);
    // The data is mixed in little-endian 8-byte words; `word` holds the
    // partial word carried from one segment into the next.
    let mut word = [0u8; 8];
    let mut filled = 0;
    let mut len = 0u64;
    for seg in segments {
        len += seg.len() as u64;
        let mut rest = seg;
        if filled > 0 {
            let take = rest.len().min(8 - filled);
            word[filled..filled + take].copy_from_slice(&rest[..take]);
            filled += take;
            rest = &rest[take..];
            if filled < 8 {
                continue;
            }
            h = mix(h, u64::from_le_bytes(word));
        }
        // The carried word is complete (or there was none): whole words
        // come straight from the segment, and its tail starts the next.
        let mut words = rest.chunks_exact(8);
        for w in &mut words {
            h = mix(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        word[..tail.len()].copy_from_slice(tail);
        filled = tail.len();
    }
    if filled > 0 {
        word[filled..].fill(0);
        h = mix(h, u64::from_le_bytes(word));
    }
    h = mix(h, len);
    h = mix(h, key.0.rotate_left(32));
    Tag(h)
}

/// Verify a tag.
pub fn verify(key: Key, context: u64, data: &[u8], tag: Tag) -> bool {
    sign(key, context, data) == tag
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let key = Key(99);
        let tag = sign(key, 1, b"payload");
        assert!(verify(key, 1, b"payload", tag));
    }

    #[test]
    fn wrong_key_fails() {
        let tag = sign(Key(1), 0, b"data");
        assert!(!verify(Key(2), 0, b"data", tag));
    }

    #[test]
    fn wrong_context_fails() {
        let tag = sign(Key(1), 7, b"data");
        assert!(!verify(Key(1), 8, b"data", tag));
    }

    #[test]
    fn tampered_data_fails() {
        let tag = sign(Key(1), 0, b"data");
        assert!(!verify(Key(1), 0, b"date", tag));
        assert!(!verify(Key(1), 0, b"dataa", tag));
        assert!(!verify(Key(1), 0, b"dat", tag));
    }

    #[test]
    fn length_extension_distinct() {
        // "ab" + context vs "a" then "b" style confusions must differ.
        let t1 = sign(Key(3), 0, b"ab");
        let t2 = sign(Key(3), 0, b"a\0");
        assert_ne!(t1, t2);
    }

    #[test]
    fn long_input_tags_are_pinned() {
        // Tags of the flat, slice-at-a-time implementation the
        // segment-streaming form replaced (odd length, partial last word).
        let pattern: Vec<u8> = (0..2001u32).map(|i| (i * 7 + 3) as u8).collect();
        assert_eq!(sign(Key(0x5eed), 42, &pattern), Tag(0xc045_d48e_a5dc_154a));
        assert_eq!(
            sign(Key(0x5eed), 42, &[0xff; 1001]),
            Tag(0xa97e_4564_e712_ba36)
        );
    }

    #[test]
    fn empty_data_has_key_dependent_tag() {
        assert_ne!(sign(Key(1), 0, b""), sign(Key(2), 0, b""));
    }
}
