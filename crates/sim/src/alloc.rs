//! A counting global allocator: [`System`] plus per-thread counts of
//! allocations, bytes allocated, live bytes and their high-water mark.
//!
//! A test binary that measures what code allocates installs it as its one
//! global allocator and reads the counts around the code under test:
//!
//! ```
//! use dash_sim::alloc::{counted, Counting};
//!
//! #[global_allocator]
//! static GLOBAL: Counting = Counting;
//!
//! fn main() {
//!     let (v, spent) = counted(|| vec![0u8; 64]);
//!     assert_eq!((spent.allocs, spent.bytes, spent.live, spent.peak), (1, 64, 64, 64));
//!     let ((), freed) = counted(|| drop(v));
//!     assert_eq!((freed.allocs, freed.live, freed.peak), (0, -64, 0));
//!     // A buffer freed inside the stretch still raised its mark, and an
//!     // outer stretch sees an inner one's.
//!     let (((), inner), outer) = counted(|| counted(|| drop(vec![0u8; 128])));
//!     assert_eq!((inner.live, inner.peak, outer.peak), (0, 128, 128));
//! }
//! ```
//!
//! The counts are per thread: the test harness runs each test on a thread
//! of its own, so what the other tests allocate meanwhile is not counted.
//! A reallocation counts as an allocation of its new size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A thread's allocation counts, or what one stretch of code added.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Allocations, reallocations included.
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub bytes: u64,
    /// Bytes allocated minus bytes freed on this thread. Memory freed on
    /// another thread than the one that allocated it moves both threads'
    /// figures.
    pub live: i64,
    /// The highest `live` reached. For what [`counted`] returns it is
    /// relative to the stretch's start, so never negative; for the
    /// thread it is the mark since the innermost running `counted` began.
    pub peak: i64,
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts {
            allocs: 0,
            bytes: 0,
            live: 0,
            peak: 0,
        })
    };
}

/// This thread's counts so far. They move only while [`Counting`] is the
/// global allocator.
fn counts() -> Counts {
    COUNTS.with(Cell::get)
}

/// `f`'s result and what it allocated on this thread. The thread's
/// high-water mark is reset to the current `live` for `f` and restored
/// after it, raised by whatever `f` reached.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = counts();
    set_peak(before.live);
    let out = f();
    let after = counts();
    set_peak(after.peak.max(before.peak));
    let spent = Counts {
        allocs: after.allocs - before.allocs,
        bytes: after.bytes - before.bytes,
        live: after.live - before.live,
        peak: after.peak - before.live,
    };
    (out, spent)
}

fn set_peak(peak: i64) {
    COUNTS.with(|c| c.set(Counts { peak, ..c.get() }));
}

fn count(allocs: u64, bytes: usize, live: i64) {
    let _ = COUNTS.try_with(|c| {
        let n = c.get();
        c.set(Counts {
            allocs: n.allocs + allocs,
            bytes: n.bytes + bytes as u64,
            live: n.live + live,
            peak: n.peak.max(n.live + live),
        });
    });
}

/// [`System`] plus this thread's [`Counts`].
#[derive(Debug)]
pub struct Counting;

// SAFETY: every operation is delegated to `System` unchanged; the counts
// are a const-initialised thread-local without a destructor, so touching
// them neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(1, layout.size(), layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) };
        count(0, 0, -(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` via this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(1, new_size, new_size as i64 - layout.size() as i64);
        }
        p
    }
}
