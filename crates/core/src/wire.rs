//! Scatter-gather wire messages.
//!
//! The paper's messages are untyped byte arrays (§2); nothing in the
//! model requires a message body to be materialized contiguously with
//! the protocol headers wrapped around it. [`WireMsg`] exploits that: an
//! encoded frame is an ordered list of segments — small owned header
//! chunks plus zero-copy [`Bytes`] views of the application payload —
//! so encode never copies payload bytes and decode hands back views of
//! the sender's buffer.
//!
//! Up to three segments are stored inline (header + payload + trailer
//! covers every frame the stack emits), so the common case allocates
//! nothing beyond the header chunk itself. [`WireMsg::push`] coalesces
//! adjacent views of the same backing buffer, which is what makes
//! fragment reassembly re-form the original payload view instead of
//! accumulating a long segment list.
//!
//! [`WireCursor`] is the decode side: big-endian reads and zero-copy
//! `take` operations that slice the shared segments. [`WireMsg::contiguous`]
//! is the escape hatch for consumers that genuinely need one flat buffer
//! (security transforms, tests, the wiretap); it is free when the
//! message already is contiguous and an explicit, visible copy when not.

use std::fmt;

use bytes::Bytes;

/// Number of segments stored without heap-allocating the segment list.
const INLINE_SEGS: usize = 3;

/// Error returned by [`WireCursor`] reads that run past the message end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated;

impl fmt::Display for Truncated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire message truncated")
    }
}

impl std::error::Error for Truncated {}

/// An encoded wire message: an ordered list of byte segments that
/// together form the octets "on the wire", without requiring them to be
/// contiguous in memory.
#[derive(Clone, Default)]
pub struct WireMsg {
    inline: [Bytes; INLINE_SEGS],
    spill: Vec<Bytes>,
    segs: usize,
    total: usize,
}

impl WireMsg {
    /// An empty message.
    pub fn new() -> Self {
        WireMsg::default()
    }

    /// A message consisting of one segment.
    pub fn from_bytes(segment: impl Into<Bytes>) -> Self {
        let mut m = WireMsg::new();
        m.push(segment.into());
        m
    }

    /// Total length in bytes — the single source of truth for encoded
    /// frame sizes (there is no parallel size computation to drift from
    /// the encoder).
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when the message has no bytes.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of segments (empty segments are never stored).
    pub fn seg_count(&self) -> usize {
        self.segs
    }

    /// The first byte, if any — O(1), for protocol-magic dispatch.
    pub fn first_byte(&self) -> Option<u8> {
        if self.segs == 0 {
            None
        } else {
            self.seg(0).first().copied()
        }
    }

    fn seg(&self, i: usize) -> &Bytes {
        if i < INLINE_SEGS {
            &self.inline[i]
        } else {
            &self.spill[i - INLINE_SEGS]
        }
    }

    fn seg_mut(&mut self, i: usize) -> &mut Bytes {
        if i < INLINE_SEGS {
            &mut self.inline[i]
        } else {
            &mut self.spill[i - INLINE_SEGS]
        }
    }

    /// Append a segment (a refcount bump, never a byte copy). Empty
    /// segments are dropped; a segment that is an adjacent view of the
    /// same backing buffer as the current tail is coalesced into it.
    pub fn push(&mut self, segment: Bytes) {
        if segment.is_empty() {
            return;
        }
        self.total += segment.len();
        if self.segs > 0 {
            let tail = self.seg_mut(self.segs - 1);
            if let Some(joined) = Bytes::merge_contiguous(tail, &segment) {
                *tail = joined;
                return;
            }
        }
        if self.segs < INLINE_SEGS {
            self.inline[self.segs] = segment;
        } else {
            self.spill.push(segment);
        }
        self.segs += 1;
    }

    /// Append every segment of `other` (refcount bumps only).
    pub fn append(&mut self, other: &WireMsg) {
        for s in other.segments() {
            self.push(s.clone());
        }
    }

    /// Iterate over the segments in order.
    pub fn segments(&self) -> impl Iterator<Item = &Bytes> {
        (0..self.segs).map(move |i| self.seg(i))
    }

    /// One flat buffer holding the whole message. Zero-copy when the
    /// message is empty or already a single segment (the common case);
    /// otherwise this is the one place the wire path copies bytes —
    /// kept for consumers that need contiguity (security transforms,
    /// the wiretap, tests and compatibility shims).
    pub fn contiguous(&self) -> Bytes {
        match self.segs {
            0 => Bytes::new(),
            1 => self.seg(0).clone(),
            _ => {
                let mut flat = Vec::with_capacity(self.total);
                for s in self.segments() {
                    flat.extend_from_slice(s);
                }
                Bytes::from(flat)
            }
        }
    }

    /// A zero-copy sub-message covering `start..end` of the logical
    /// byte range.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, end: usize) -> WireMsg {
        assert!(start <= end && end <= self.total, "slice out of bounds");
        let mut out = WireMsg::new();
        let mut pos = 0usize;
        for s in self.segments() {
            let seg_end = pos + s.len();
            if seg_end > start && pos < end {
                let from = start.saturating_sub(pos);
                let to = s.len().min(end - pos);
                out.push(s.slice(from..to));
            }
            pos = seg_end;
            if pos >= end {
                break;
            }
        }
        out
    }

    /// A cursor reading this message from the start.
    pub fn cursor(&self) -> WireCursor<'_> {
        WireCursor {
            msg: self,
            seg: 0,
            off: 0,
            left: self.total,
        }
    }
}

impl From<Bytes> for WireMsg {
    fn from(b: Bytes) -> Self {
        WireMsg::from_bytes(b)
    }
}

impl From<Vec<u8>> for WireMsg {
    fn from(v: Vec<u8>) -> Self {
        WireMsg::from_bytes(Bytes::from(v))
    }
}

/// Equality over the logical byte string, independent of segmentation.
impl PartialEq for WireMsg {
    fn eq(&self, other: &Self) -> bool {
        if self.total != other.total {
            return false;
        }
        let mut a = self.segments().flat_map(|s| s.iter());
        let mut b = other.segments().flat_map(|s| s.iter());
        loop {
            match (a.next(), b.next()) {
                (None, None) => return true,
                (x, y) if x == y => continue,
                _ => return false,
            }
        }
    }
}

impl Eq for WireMsg {}

impl fmt::Debug for WireMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WireMsg[{} segs, {} bytes]", self.segs, self.total)
    }
}

/// A big-endian read cursor over a [`WireMsg`]'s segments.
///
/// Scalar reads cross segment boundaries transparently; `take`
/// operations return zero-copy views of the underlying segments.
#[derive(Clone)]
pub struct WireCursor<'a> {
    msg: &'a WireMsg,
    seg: usize,
    off: usize,
    left: usize,
}

impl<'a> WireCursor<'a> {
    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.left
    }

    /// Absolute position from the start of the message.
    fn pos(&self) -> usize {
        self.msg.len() - self.left
    }

    /// Copy exactly `N` bytes into an array, advancing.
    fn read_array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        if self.left < N {
            return Err(Truncated);
        }
        let mut out = [0u8; N];
        let mut filled = 0;
        while filled < N {
            let seg = self.msg.seg(self.seg);
            let avail = seg.len() - self.off;
            let take = avail.min(N - filled);
            out[filled..filled + take].copy_from_slice(&seg[self.off..self.off + take]);
            filled += take;
            self.advance_within(take);
        }
        Ok(out)
    }

    /// Advance by `n` bytes already known to be available.
    fn advance_within(&mut self, n: usize) {
        self.off += n;
        self.left -= n;
        while self.seg < self.msg.seg_count() && self.off == self.msg.seg(self.seg).len() {
            self.seg += 1;
            self.off = 0;
        }
    }

    /// Skip `n` bytes.
    pub fn skip(&mut self, n: usize) -> Result<(), Truncated> {
        if self.left < n {
            return Err(Truncated);
        }
        let mut togo = n;
        while togo > 0 {
            let avail = self.msg.seg(self.seg).len() - self.off;
            let take = avail.min(togo);
            togo -= take;
            self.advance_within(take);
        }
        Ok(())
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.read_array::<1>()?[0])
    }

    /// Read a big-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, Truncated> {
        Ok(u16::from_be_bytes(self.read_array()?))
    }

    /// Read a big-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, Truncated> {
        Ok(u32::from_be_bytes(self.read_array()?))
    }

    /// Read a big-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, Truncated> {
        Ok(u64::from_be_bytes(self.read_array()?))
    }

    /// Read a big-endian `f64`.
    pub fn get_f64(&mut self) -> Result<f64, Truncated> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Take the next `n` bytes as a zero-copy sub-message (views of the
    /// shared segments, no byte copies).
    pub fn take_wire(&mut self, n: usize) -> Result<WireMsg, Truncated> {
        if self.left < n {
            return Err(Truncated);
        }
        let start = self.pos();
        let out = self.msg.slice(start, start + n);
        self.skip(n)?;
        Ok(out)
    }

    /// Take the next `n` bytes as one [`Bytes`]. Zero-copy when they
    /// fall within a single segment (or within adjacent views of one
    /// buffer); copies only when they genuinely straddle unrelated
    /// segments.
    pub fn take_bytes(&mut self, n: usize) -> Result<Bytes, Truncated> {
        Ok(self.take_wire(n)?.contiguous())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(v: &[u8]) -> Bytes {
        Bytes::from(v.to_vec())
    }

    #[test]
    fn push_skips_empty_and_tracks_len() {
        let mut m = WireMsg::new();
        assert!(m.is_empty());
        m.push(Bytes::new());
        assert_eq!(m.seg_count(), 0);
        m.push(seg(&[1, 2]));
        m.push(seg(&[3]));
        assert_eq!(m.len(), 3);
        assert_eq!(m.seg_count(), 2);
        assert_eq!(m.first_byte(), Some(1));
    }

    #[test]
    fn inline_then_spill() {
        let mut m = WireMsg::new();
        for i in 0..5u8 {
            m.push(seg(&[i, i]));
        }
        assert_eq!(m.seg_count(), 5);
        assert_eq!(m.len(), 10);
        let flat = m.contiguous();
        assert_eq!(flat.as_ref(), &[0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
    }

    #[test]
    fn push_coalesces_adjacent_views() {
        let backing = seg(&[1, 2, 3, 4, 5, 6]);
        let mut m = WireMsg::new();
        m.push(backing.slice(0..2));
        m.push(backing.slice(2..4));
        m.push(backing.slice(4..6));
        // All three views rejoin into one zero-copy segment.
        assert_eq!(m.seg_count(), 1);
        assert_eq!(m.contiguous().as_ptr(), backing.as_ptr());
    }

    #[test]
    fn push_never_coalesces_across_backings() {
        // Two distinct allocations whose contents would concatenate
        // seamlessly — coalescing keys on the backing buffer, not on the
        // bytes, so these must stay separate segments. (A cross-backing
        // merge would silently alias unrelated buffers and was the bug
        // class `merge_contiguous`'s identity check exists to prevent.)
        let a = seg(&[1, 2, 3]);
        let b = seg(&[4, 5, 6]);
        let mut m = WireMsg::new();
        m.push(a.slice(0..3));
        m.push(b.slice(0..3));
        assert_eq!(m.seg_count(), 2);
        assert_eq!(m.contiguous().as_ref(), &[1, 2, 3, 4, 5, 6]);
        let segs: Vec<&Bytes> = m.segments().collect();
        assert_eq!(segs[0].as_ptr(), a.as_ptr());
        assert_eq!(segs[1].as_ptr(), b.as_ptr());

        // Same backing but non-adjacent views must not join either.
        let mut g = WireMsg::new();
        g.push(a.slice(0..1));
        g.push(a.slice(2..3));
        assert_eq!(g.seg_count(), 2);
        assert_eq!(g.contiguous().as_ref(), &[1, 3]);
    }

    #[test]
    fn contiguous_is_zero_copy_for_single_segment() {
        let b = seg(&[9, 8, 7]);
        let m = WireMsg::from_bytes(b.clone());
        assert_eq!(m.contiguous().as_ptr(), b.as_ptr());
        assert!(WireMsg::new().contiguous().is_empty());
    }

    #[test]
    fn slice_crosses_segments_without_copying_views() {
        let a = seg(&[1, 2, 3]);
        let b = seg(&[4, 5, 6]);
        let mut m = WireMsg::new();
        m.push(a.clone());
        m.push(b.clone());
        let s = m.slice(2, 5);
        assert_eq!(s.len(), 3);
        assert_eq!(s.contiguous().as_ref(), &[3, 4, 5]);
        // The slice's segments point into the original buffers.
        let segs: Vec<&Bytes> = s.segments().collect();
        assert_eq!(segs[0].as_ptr(), a.slice(2..3).as_ptr());
        assert_eq!(segs[1].as_ptr(), b.as_ptr());
    }

    #[test]
    fn equality_ignores_segmentation() {
        let mut a = WireMsg::new();
        a.push(seg(&[1, 2]));
        a.push(seg(&[3, 4]));
        let b = WireMsg::from_bytes(seg(&[1, 2, 3, 4]));
        assert_eq!(a, b);
        let c = WireMsg::from_bytes(seg(&[1, 2, 3, 5]));
        assert_ne!(a, c);
        assert_ne!(a, WireMsg::from_bytes(seg(&[1, 2, 3])));
    }

    #[test]
    fn cursor_reads_across_boundaries() {
        let mut m = WireMsg::new();
        m.push(seg(&[0x01, 0x02, 0x03]));
        m.push(seg(&[0x04, 0xff]));
        let mut c = m.cursor();
        assert_eq!(c.remaining(), 5);
        // u32 read straddles the two segments.
        assert_eq!(c.get_u32().unwrap(), 0x0102_0304);
        assert_eq!(c.get_u8().unwrap(), 0xff);
        assert_eq!(c.remaining(), 0);
        assert_eq!(c.get_u8(), Err(Truncated));
        assert_eq!(m.cursor().skip(6), Err(Truncated));
    }

    #[test]
    fn cursor_take_is_zero_copy_within_segment() {
        let payload = seg(&[10, 20, 30, 40]);
        let mut m = WireMsg::new();
        m.push(seg(&[0xaa]));
        m.push(payload.clone());
        let mut c = m.cursor();
        assert_eq!(c.get_u8().unwrap(), 0xaa);
        let taken = c.take_bytes(4).unwrap();
        assert_eq!(taken.as_ptr(), payload.as_ptr());
    }

    #[test]
    fn take_wire_preserves_sharing() {
        let payload = seg(&[7; 32]);
        let mut m = WireMsg::new();
        m.push(seg(&[1, 2]));
        m.push(payload.clone());
        let mut c = m.cursor();
        c.skip(2).unwrap();
        let sub = c.take_wire(32).unwrap();
        assert_eq!(sub.seg_count(), 1);
        assert_eq!(sub.contiguous().as_ptr(), payload.as_ptr());
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_out_of_bounds_panics() {
        WireMsg::from_bytes(seg(&[1])).slice(0, 2);
    }
}
