//! A counting global allocator for tests that bound what the program
//! allocates: on hostile input, or per token indexed. Include it in a
//! test binary with `#[path = "common/alloc.rs"] mod alloc;` — it
//! becomes that binary's allocator.
//!
//! The pattern of `benchmark/src/alloc.rs`, cut down to what a test
//! needs: bytes requested and allocation calls made by the calling
//! thread, so tests running beside each other do not see one another.

// Not every test binary reads both counters.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has asked the allocator for. A plain integer:
    /// no lazy set-up, no destructor, safe inside the allocator.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
    /// Calls to `alloc`, `alloc_zeroed` and `realloc` this thread made.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation call of `bytes` on this thread.
fn count(bytes: usize) {
    REQUESTED.with(|r| r.set(r.get() + bytes as u64));
    CALLS.with(|c| c.set(c.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter never touches
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from a matching `alloc` on
        // this allocator, which forwarded to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` and `layout` come from a matching `alloc` on
        // this allocator, which forwarded to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes the calling thread has requested so far.
pub fn requested() -> u64 {
    REQUESTED.with(Cell::get)
}

/// Allocation calls the calling thread has made so far.
pub fn calls() -> u64 {
    CALLS.with(Cell::get)
}
