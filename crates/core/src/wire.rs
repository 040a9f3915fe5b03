//! Scatter-gather wire messages.
//!
//! The paper's messages are untyped byte arrays (§2); nothing in the
//! model requires a message body to be materialized contiguously with
//! the protocol headers wrapped around it. [`WireMsg`] exploits that: an
//! encoded frame is an ordered list of segments — small header views
//! plus zero-copy [`Bytes`] views of the application payload — so encode
//! never copies payload bytes and decode hands back views of the
//! sender's buffer.
//!
//! Up to four segments are stored inline: an ST header, a transport
//! header and a payload of up to two parts (a scatter-gather sender's tag
//! and body) cover every unbundled frame the stack emits, so the common
//! case allocates nothing for the segment list. Only bundles, which
//! interleave several frames, spill to a heap list, and a spilled list
//! goes back to a per-thread free list when its message drops, so the
//! next spill allocates nothing either. Headers are carved by [`header`]
//! from a shared per-thread store, so they allocate nothing of their own.
//!
//! [`WireMsg::push`] coalesces adjacent views of the same backing buffer,
//! which is what makes fragment reassembly re-form the original payload
//! view instead of accumulating a long segment list.
//!
//! [`WireCursor`] is the decode side: big-endian reads and zero-copy
//! `take` operations that slice the shared segments. [`WireMsg::contiguous`]
//! is the escape hatch for consumers that genuinely need one flat buffer
//! (security transforms, tests, the wiretap); it is free when the
//! message already is contiguous and an explicit, visible copy when not.

use std::cell::{Cell, RefCell};
use std::fmt;

use bytes::{Bytes, BytesMut};

/// Number of segments stored without heap-allocating the segment list.
const INLINE_SEGS: usize = 4;

/// Capacity of each store [`header`] carves headers from.
const HEADER_STORE: usize = 4096;

/// Most spilled segment lists a thread keeps for reuse.
const SPILL_POOL: usize = 64;

/// Largest segment list the pool keeps: a bundle's fits, while a long
/// reassembly list is freed rather than pinned for the rest of the run.
const SPILL_POOL_CAP: usize = 64;

thread_local! {
    /// The writer of the current header store. Each world runs on one
    /// thread and the store only holds bytes already handed out, so what
    /// a run encodes never depends on which thread ran it.
    static HEADERS: Cell<BytesMut> = const { Cell::new(BytesMut::new()) };

    /// Empty segment lists of dropped spilled messages, for the next
    /// spill. Like the header store, it holds nothing a run can observe.
    static SPILLS: RefCell<Vec<Vec<Bytes>>> = const { RefCell::new(Vec::new()) };
}

/// An empty segment list with room for `segments`, taken from this
/// thread's pool when it has one.
fn spill_list(segments: usize) -> Vec<Bytes> {
    let mut list = (SPILLS.try_with(|pool| pool.borrow_mut().pop()).ok())
        .flatten()
        .unwrap_or_default();
    list.reserve(segments);
    list
}

/// Hand `list` back to this thread's pool, or free it if it is long, the
/// pool is full or the thread is tearing its pool down.
fn recycle(mut list: Vec<Bytes>) {
    list.clear();
    if list.capacity() > SPILL_POOL_CAP {
        return;
    }
    let _ = SPILLS.try_with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < SPILL_POOL {
            pool.push(list);
        }
    });
}

/// Encode one header of at most `max_len` bytes: `write` fills the
/// buffer, and the written bytes come back as a view of a shared
/// per-thread store, with no allocation of their own. When the store runs
/// out it is reused from its start if no view of it is left, and
/// otherwise replaced by a fresh 4 KiB one; views keep the old store
/// alive until the last of them is dropped.
pub fn header(max_len: usize, write: impl FnOnce(&mut BytesMut)) -> Bytes {
    HEADERS.with(|cell| {
        // Taken out, not borrowed: a `write` that encodes a header of its
        // own would only start a second store.
        let mut buf = cell.take();
        if buf.capacity() < max_len {
            buf.reserve(max_len.max(HEADER_STORE));
        }
        write(&mut buf);
        debug_assert!(buf.len() <= max_len, "header overran its {max_len} bytes");
        let out = buf.split().freeze();
        cell.set(buf);
        out
    })
}

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
    segs: Segs,
}

/// A [`WireMsg`]'s segments. The inline form needs no count or length of
/// its own: empty segments are never stored, so its segments are the
/// views before the first empty one, and its length is their sum. The
/// discriminant takes the word those two fields would, which keeps a
/// `WireMsg` at 136 bytes. A spilled list comes from and goes back to
/// the thread's pool ([`spill_list`], [`recycle`]).
enum Segs {
    Inline([Bytes; INLINE_SEGS]),
    Spill { segs: Vec<Bytes>, total: usize },
}

impl Default for Segs {
    fn default() -> Self {
        Segs::Inline(Default::default())
    }
}

impl Clone for Segs {
    fn clone(&self) -> Self {
        match self {
            Segs::Inline(inline) => Segs::Inline(inline.clone()),
            Segs::Spill { segs, total } => {
                let mut list = spill_list(segs.len());
                list.extend_from_slice(segs);
                Segs::Spill {
                    segs: list,
                    total: *total,
                }
            }
        }
    }
}

impl Drop for Segs {
    fn drop(&mut self) {
        if let Segs::Spill { segs, .. } = self {
            recycle(std::mem::take(segs));
        }
    }
}

/// How many of `inline`'s views are segments.
fn inline_count(inline: &[Bytes; INLINE_SEGS]) -> usize {
    inline.iter().take_while(|s| !s.is_empty()).count()
}

impl WireMsg {
    /// An empty message.
    pub fn new() -> Self {
        WireMsg::default()
    }

    /// An empty message with room for `segments` segments. More than fit
    /// inline take one list from the thread's pool up front, so pushing
    /// them never regrows it.
    pub fn with_capacity(segments: usize) -> Self {
        if segments <= INLINE_SEGS {
            return WireMsg::new();
        }
        WireMsg {
            segs: Segs::Spill {
                segs: spill_list(segments),
                total: 0,
            },
        }
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
        match &self.segs {
            Segs::Inline(inline) => inline.iter().map(Bytes::len).sum(),
            Segs::Spill { total, .. } => *total,
        }
    }

    /// True when the message has no bytes.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Number of segments (empty segments are never stored).
    pub fn seg_count(&self) -> usize {
        self.as_slice().len()
    }

    /// The first byte, if any — O(1), for protocol-magic dispatch.
    pub fn first_byte(&self) -> Option<u8> {
        self.as_slice().first().map(|s| s[0])
    }

    fn as_slice(&self) -> &[Bytes] {
        match &self.segs {
            Segs::Inline(inline) => &inline[..inline_count(inline)],
            Segs::Spill { segs, .. } => segs,
        }
    }

    /// Append a segment (a refcount bump, never a byte copy). Empty
    /// segments are dropped; a segment that is an adjacent view of the
    /// same backing buffer as the current tail is coalesced into it.
    pub fn push(&mut self, segment: Bytes) {
        if segment.is_empty() {
            return;
        }
        match &mut self.segs {
            Segs::Inline(inline) => {
                let n = inline_count(inline);
                if n > 0 {
                    if let Some(joined) = Bytes::merge_contiguous(&inline[n - 1], &segment) {
                        inline[n - 1] = joined;
                        return;
                    }
                }
                if n < INLINE_SEGS {
                    inline[n] = segment;
                    return;
                }
                let total = inline.iter().map(Bytes::len).sum::<usize>() + segment.len();
                let mut segs = spill_list(2 * INLINE_SEGS);
                segs.extend(inline.iter_mut().map(std::mem::take));
                segs.push(segment);
                self.segs = Segs::Spill { segs, total };
            }
            Segs::Spill { segs, total } => {
                *total += segment.len();
                if let Some(tail) = segs.last_mut() {
                    if let Some(joined) = Bytes::merge_contiguous(tail, &segment) {
                        *tail = joined;
                        return;
                    }
                }
                segs.push(segment);
            }
        }
    }

    /// Append every segment of `other` (refcount bumps only).
    pub fn append(&mut self, other: &WireMsg) {
        for s in other.segments() {
            self.push(s.clone());
        }
    }

    /// Iterate over the segments in order.
    pub fn segments(&self) -> impl Iterator<Item = &Bytes> {
        self.as_slice().iter()
    }

    /// One flat buffer holding the whole message. Zero-copy when the
    /// message is empty or already a single segment (the common case);
    /// otherwise this is the one place the wire path copies bytes —
    /// kept for consumers that need contiguity (security transforms,
    /// the wiretap, tests and compatibility shims).
    pub fn contiguous(&self) -> Bytes {
        match self.as_slice() {
            [] => Bytes::new(),
            [one] => one.clone(),
            segs => {
                let mut flat = Vec::with_capacity(self.len());
                for s in segs {
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
        assert!(start <= end && end <= self.len(), "slice out of bounds");
        slice_segs(self.as_slice(), start, end)
    }

    /// A cursor reading this message from the start.
    pub fn cursor(&self) -> WireCursor<'_> {
        let total = self.len();
        WireCursor {
            segs: self.as_slice(),
            seg: 0,
            off: 0,
            left: total,
            total,
        }
    }
}

/// The views of `segs` covering `start..end` of their logical byte range,
/// which the caller has checked lies within it.
fn slice_segs(segs: &[Bytes], start: usize, end: usize) -> WireMsg {
    let mut out = WireMsg::new();
    let mut pos = 0usize;
    for s in segs {
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
        if self.len() != other.len() {
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
        write!(
            f,
            "WireMsg[{} segs, {} bytes]",
            self.seg_count(),
            self.len()
        )
    }
}

/// A big-endian read cursor over a [`WireMsg`]'s segments.
///
/// Scalar reads cross segment boundaries transparently; `take`
/// operations return zero-copy views of the underlying segments.
#[derive(Clone)]
pub struct WireCursor<'a> {
    segs: &'a [Bytes],
    seg: usize,
    off: usize,
    left: usize,
    total: usize,
}

impl<'a> WireCursor<'a> {
    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.left
    }

    /// Absolute position from the start of the message.
    fn pos(&self) -> usize {
        self.total - self.left
    }

    /// Copy exactly `N` bytes into an array, advancing.
    fn read_array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        if self.left < N {
            return Err(Truncated);
        }
        let mut out = [0u8; N];
        let mut filled = 0;
        while filled < N {
            let seg = &self.segs[self.seg];
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
        while self.seg < self.segs.len() && self.off == self.segs[self.seg].len() {
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
            let avail = self.segs[self.seg].len() - self.off;
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
        let out = slice_segs(self.segs, start, start + n);
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
        for i in 0..6u8 {
            m.push(seg(&[i, i]));
            assert_eq!(m.seg_count(), i as usize + 1);
            assert_eq!(m.len(), 2 * (i as usize + 1));
        }
        let flat = m.contiguous();
        assert_eq!(flat.as_ref(), &[0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]);
        let mut c = m.cursor();
        c.skip(7).unwrap();
        assert_eq!(c.get_u8().unwrap(), 3);
        assert_eq!(c.take_bytes(4).unwrap().as_ref(), &[4, 4, 5, 5]);
    }

    #[test]
    fn a_spilled_tail_still_coalesces() {
        let backing = seg(&[1, 2, 3, 4, 5, 6]);
        let mut m = WireMsg::new();
        for i in 0..4u8 {
            m.push(seg(&[i]));
        }
        m.push(backing.slice(0..3));
        m.push(backing.slice(3..6));
        assert_eq!(m.seg_count(), 5);
        assert_eq!(m.len(), 10);
        assert_eq!(m.slice(4, 10).contiguous().as_ptr(), backing.as_ptr());
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
    fn segment_and_message_sizes_are_pinned() {
        // Every wire segment is a `Bytes` and every queued frame a
        // `WireMsg`, so their sizes scale the whole stack's footprint. An
        // inline 46-byte header repr made them 64 B and 296 B and raised
        // the benchmark's `peak_rss_mb` by 18 % on `mixed-scale` (46.9 to
        // 55.3 MB) and 16 % on `mesh-churn` (14.1 to 16.5 MB); headers
        // are carved from a shared store instead. Four inline segments
        // fit the same 136 B as three did, because the inline form keeps
        // no count or length (see `Segs`); a plain fourth array slot beside
        // the spill list, count and length would make it 168 B.
        assert_eq!(std::mem::size_of::<Bytes>(), 32);
        assert_eq!(std::mem::size_of::<WireMsg>(), 136);
    }

    #[test]
    fn headers_are_carved_back_to_back_from_one_store() {
        // `a` reserves 16 bytes and writes 3, so `b`'s 8 fit behind it.
        let a = header(16, |b| b.extend_from_slice(&[1, 2, 3]));
        let b = header(8, |b| b.extend_from_slice(&[4, 5]));
        assert_eq!(a.as_ref(), &[1, 2, 3]);
        assert_eq!(b.as_ref(), &[4, 5]);
        let joined = Bytes::merge_contiguous(&a, &b).expect("same store, adjacent");
        assert_eq!(joined.as_ref(), &[1, 2, 3, 4, 5]);
        // A header larger than a store still encodes.
        let big = header(2 * HEADER_STORE, |b| {
            b.extend_from_slice(&[7; 2 * HEADER_STORE])
        });
        assert_eq!(big.len(), 2 * HEADER_STORE);
        assert_eq!(header(4, |b| b.extend_from_slice(&[9])).as_ref(), &[9]);
    }

    /// A message of `n` one-byte segments from distinct buffers.
    fn spilled(n: u8) -> WireMsg {
        let mut m = WireMsg::new();
        for i in 0..n {
            m.push(seg(&[i]));
        }
        m
    }

    /// A spilled message's segment list.
    fn list(m: &WireMsg) -> &Vec<Bytes> {
        match &m.segs {
            Segs::Spill { segs, .. } => segs,
            Segs::Inline(_) => panic!("{m:?} is inline"),
        }
    }

    /// Where a spilled message's segment list lives.
    fn list_ptr(m: &WireMsg) -> *const Bytes {
        list(m).as_ptr()
    }

    #[test]
    fn a_dropped_spill_list_is_reused_by_the_next_spill() {
        let first = spilled(6);
        let list = list_ptr(&first);
        drop(first);
        let second = spilled(7);
        assert_eq!(list_ptr(&second), list);
        assert_eq!(second.seg_count(), 7);
        drop(second);
        // A message sized up front takes the same list.
        let mut sized = WireMsg::with_capacity(8);
        assert_eq!(list_ptr(&sized), list);
        assert!(sized.is_empty());
        sized.push(seg(&[1]));
        sized.push(seg(&[2]));
        assert_eq!(sized.contiguous().as_ref(), &[1, 2]);
        // Up to four segments need no list at all.
        assert!(matches!(WireMsg::with_capacity(4).segs, Segs::Inline(_)));
    }

    #[test]
    fn a_long_spill_list_is_freed_not_pooled() {
        let long = spilled(SPILL_POOL_CAP as u8 + 1);
        assert!(list(&long).capacity() > SPILL_POOL_CAP);
        drop(long);
        // Had the long list been pooled, the next spill would take it.
        let next = spilled(5);
        assert!(list(&next).capacity() <= SPILL_POOL_CAP);
    }

    #[test]
    fn a_clone_of_a_spilled_message_equals_it_and_leaves_it_intact() {
        let original = spilled(9);
        let views: Vec<*const u8> = original.segments().map(|s| s.as_ptr()).collect();
        let copy = original.clone();
        assert_eq!(copy, original);
        assert_eq!(copy.seg_count(), 9);
        assert_eq!(copy.len(), 9);
        assert_ne!(list_ptr(&copy), list_ptr(&original));
        drop(copy);
        // The original keeps its views and bytes after the clone is gone.
        assert_eq!(
            original.segments().map(|s| s.as_ptr()).collect::<Vec<_>>(),
            views
        );
        assert_eq!(original.contiguous().as_ref(), &[0, 1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn a_spilled_message_in_a_thread_local_drops_at_thread_exit() {
        thread_local! {
            static HELD: RefCell<WireMsg> = RefCell::new(WireMsg::new());
        }
        // Thread-locals are torn down in an order the platform picks, so
        // set `HELD` up before and after the pool: one order drops the
        // message into a live pool, the other after the pool is gone.
        for held_first in [true, false] {
            std::thread::spawn(move || {
                if held_first {
                    HELD.with(|_| {});
                }
                drop(spilled(5));
                HELD.with(|h| *h.borrow_mut() = spilled(6));
            })
            .join()
            .expect("thread exit drops the message without panicking");
        }
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_out_of_bounds_panics() {
        WireMsg::from_bytes(seg(&[1])).slice(0, 2);
    }
}
