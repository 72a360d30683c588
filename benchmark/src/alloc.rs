//! Counting allocator and heap pre-faulting.
//!
//! The benchmark binary wraps the system allocator so that heap use is
//! a count, not an RSS reading: `peak_heap_mb` and the allocations per
//! step repeat from run to run even though the page faults behind them
//! do not. [`prefault`] then removes most of those page faults from the
//! timed phases (repeatability rule 3 in the README).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Calls a thread counts on its own before adding them to the shared
/// counters.
const BATCH: u64 = 256;

thread_local! {
    /// This thread's allocation calls and bytes not yet added to
    /// [`CALLS`] and [`BYTES`]. Plain integers, so the cell needs no
    /// lazy set-up and no destructor and is safe to use inside the
    /// allocator at any point of a thread's life.
    static PENDING: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The system allocator plus counters. The counting sits inside every
/// timed operation, so it is kept to one atomic add on the live size
/// per call: the high-water mark is written only when it rises, and
/// calls and bytes are counted per thread and added to the shared
/// counters a batch at a time. (Four atomic updates per allocation
/// were a third of a 10 µs input probe.) The commit worker allocates
/// too, hence atomics at all; they publish no other data, hence
/// `Relaxed`.
pub struct Counting;

impl Counting {
    fn grow(size: u64) {
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        if live > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        PENDING.with(|p| {
            let (calls, bytes) = p.get();
            if calls + 1 == BATCH {
                CALLS.fetch_add(BATCH, Ordering::Relaxed);
                BYTES.fetch_add(bytes + size, Ordering::Relaxed);
                p.set((0, 0));
            } else {
                p.set((calls + 1, bytes + size));
            }
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Counting::grow(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Counting::grow(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from a matching `alloc` on
        // this allocator, which forwarded to `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` and `layout` come from a matching `alloc` on
        // this allocator, which forwarded to `System`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            Counting::grow(new_size as u64);
        }
        p
    }
}

/// A reading of the allocation counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeapStats {
    /// High-water mark of live bytes since the last [`reset_peak`].
    pub peak: u64,
    /// Allocation calls (alloc, alloc_zeroed, realloc) since start.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

/// Reads the counters: exact for the calling thread, and short of
/// another thread's calls by less than one batch.
pub fn stats() -> HeapStats {
    let (calls, bytes) = PENDING.with(Cell::get);
    HeapStats {
        peak: PEAK.load(Ordering::Relaxed),
        calls: CALLS.load(Ordering::Relaxed) + calls,
        bytes: BYTES.load(Ordering::Relaxed) + bytes,
    }
}

/// Restarts the high-water mark from the current live size, so the
/// pre-fault block does not count towards `peak_heap_mb`.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// glibc refuses an `M_MMAP_THRESHOLD` above half its 64 MiB heap size,
/// so this is the largest request the main arena serves from `brk`.
pub const MMAP_THRESHOLD: usize = 32 << 20;

/// Touches one byte per page of `bytes` of heap and frees it again.
///
/// The block is allocated in pieces below [`MMAP_THRESHOLD`] so that it
/// comes from the `brk` heap, which the re-exec environment
/// (`MALLOC_TRIM_THRESHOLD_`) keeps mapped after the free: the timed
/// phases then allocate from pages that are already faulted in.
pub fn prefault(bytes: u64) {
    const PIECE: usize = MMAP_THRESHOLD / 2;
    const PAGE: usize = 4096;
    let pieces = (bytes as usize).div_ceil(PIECE);
    let mut held: Vec<Vec<u8>> = Vec::with_capacity(pieces);
    for _ in 0..pieces {
        let mut piece: Vec<u8> = Vec::with_capacity(PIECE);
        for off in (0..PIECE).step_by(PAGE) {
            // SAFETY: `off < PIECE == capacity`, so the write stays
            // inside the allocation; the bytes are never read.
            unsafe { piece.as_mut_ptr().add(off).write_volatile(1) };
        }
        held.push(piece);
    }
    drop(held);
    reset_peak();
}
