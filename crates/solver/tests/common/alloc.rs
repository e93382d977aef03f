//! A thread-local counting global allocator: installed by the binaries
//! that prove the solver hot paths allocation-free after warm-up.
//! Counters are thread-local so concurrently running tests cannot pollute
//! each other's tallies.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct ThreadCountingAlloc;

// SAFETY: delegates to `System`; bookkeeping is a const-initialized
// thread-local `Cell` (no allocation on access), read via `try_with` so
// accesses during TLS teardown degrade to "not counted" instead of
// aborting.
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: ThreadCountingAlloc = ThreadCountingAlloc;

/// Allocations (and reallocations) made by the calling thread so far.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}
