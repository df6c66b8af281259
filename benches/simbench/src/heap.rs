//! A counting global allocator: live bytes, their high-water mark and the
//! number of allocations, for the benchmark's heap metrics. It lives in the
//! benchmark binary only; the simulator crates never see it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Forwards to the system allocator and counts what passes through.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// The counters are statistics that publish no other data, so `Relaxed`
// suffices; the benchmark is single-threaded anyway.
fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
    ALLOCS.fetch_add(1, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting around the
// calls touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grow(new_size);
        }
        p
    }
}

/// A heap measurement window, opened by [`Window::open`].
pub struct Window {
    base_live: usize,
    base_allocs: u64,
}

impl Window {
    /// Starts a window: the high-water mark restarts at the current live
    /// heap, which becomes the window's baseline.
    pub fn open() -> Window {
        let base_live = LIVE.load(Relaxed);
        PEAK.store(base_live, Relaxed);
        Window { base_live, base_allocs: ALLOCS.load(Relaxed) }
    }

    /// Peak live heap above the baseline since the window opened, in bytes.
    pub fn peak_bytes(&self) -> usize {
        PEAK.load(Relaxed) - self.base_live
    }

    /// Allocations (including reallocations) since the window opened.
    pub fn allocs(&self) -> u64 {
        ALLOCS.load(Relaxed) - self.base_allocs
    }
}
