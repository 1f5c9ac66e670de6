//! A counting global allocator.
//!
//! Every `alloc`, `alloc_zeroed` and `realloc` call bumps a process-wide
//! counter and a per-thread counter. The simulator is deterministic, so
//! both counts repeat exactly for a given workload and seed: the
//! per-thread one splits a sharded run's allocations between the shard
//! threads' build and finish closures and the epochs in between.
//!
//! The binary installs [`Counting`] with `#[global_allocator]`; without
//! it the counters stay at zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator with allocation counting.
pub struct Counting;

fn count() {
    // Relaxed: a statistic that publishes no other data; readers join the
    // counting threads before they read it.
    TOTAL.fetch_add(1, Ordering::Relaxed);
    // `try_with`: a thread's last allocations can come after its
    // thread-locals are torn down.
    let _ = LOCAL.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; counting touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made by every thread so far.
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread so far.
pub fn this_thread() -> u64 {
    LOCAL.with(Cell::get)
}
