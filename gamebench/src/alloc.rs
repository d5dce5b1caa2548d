//! Counting global allocator: every allocation made by the calling
//! thread bumps a thread-local counter, so the tick thread's count is
//! exact and the async WAL writer's allocations never leak into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // const-initialised: reading it never allocates, so the allocator
    // can touch it re-entrantly.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

pub struct CountingAlloc;

#[inline]
fn bump() {
    // `try_with`: a thread that is tearing down its TLS still frees and
    // allocates; those calls are simply not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// thread-local integer and never influences the returned pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations (alloc + alloc_zeroed + realloc calls) made by the
/// calling thread since it started.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}
