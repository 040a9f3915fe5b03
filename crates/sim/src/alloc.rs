//! A counting global allocator: [`System`] plus per-thread counts of
//! allocations, bytes allocated and live bytes.
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
//!     assert_eq!((spent.allocs, spent.bytes, spent.live), (1, 64, 64));
//!     let ((), freed) = counted(|| drop(v));
//!     assert_eq!((freed.allocs, freed.live), (0, -64));
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
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts {
            allocs: 0,
            bytes: 0,
            live: 0,
        })
    };
}

/// This thread's counts so far. They move only while [`Counting`] is the
/// global allocator.
fn counts() -> Counts {
    COUNTS.with(Cell::get)
}

/// `f`'s result and what it allocated on this thread.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let (before, out) = (counts(), f());
    let after = counts();
    let spent = Counts {
        allocs: after.allocs - before.allocs,
        bytes: after.bytes - before.bytes,
        live: after.live - before.live,
    };
    (out, spent)
}

fn count(allocs: u64, bytes: usize, live: i64) {
    let _ = COUNTS.try_with(|c| {
        let n = c.get();
        c.set(Counts {
            allocs: n.allocs + allocs,
            bytes: n.bytes + bytes as u64,
            live: n.live + live,
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
