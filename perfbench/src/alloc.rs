//! The benchmark's global allocator: `moteur_prof`'s counting allocator
//! (so the profiler's per-subsystem allocation columns are live) plus a
//! live/peak gauge whose peak the benchmark can reset between phases.
//! `moteur_prof::alloc::peak_bytes` is a process-wide high-water mark
//! and cannot isolate one enactment's peak.

use moteur_prof::alloc::CountingAlloc;
use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(size: usize) {
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(size: usize) {
    let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
        Some(live.saturating_sub(size as u64))
    });
}

/// Forwards to [`CountingAlloc`] and keeps the resettable gauge.
pub struct BenchAlloc;

// SAFETY: every method forwards verbatim to `CountingAlloc`, which
// forwards to the system allocator and upholds the `GlobalAlloc`
// contract; the gauge updates are plain atomics that never allocate.
unsafe impl GlobalAlloc for BenchAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { CountingAlloc.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { CountingAlloc.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { CountingAlloc.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { CountingAlloc.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        new_ptr
    }
}

/// Cumulative allocation count (from `moteur_prof`).
pub fn allocs() -> u64 {
    moteur_prof::alloc::allocs()
}

/// Start a new peak window at the current live size; returns that size.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Peak live bytes since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Ordering::Relaxed)
}
