//! Counting global allocator: every byte the process *requests* from the
//! heap, on any thread (rank threads and device stream workers alike).
//! `alloc_mb_per_step` and `core.ns.allocs_per_step` are deltas of these two
//! counters around the timed steps; frees are not tracked because the metric
//! is allocation traffic, not residency (`peak_rss_mb` covers that).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct Counting;

// Relaxed: these are statistics that publish no other data.
static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are atomics
// and touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow requests the new size (the allocator may have to move the
        // whole block); a shrink requests nothing.
        if new_size > layout.size() {
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live block of this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` describe a live block of this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(bytes requested, allocation calls)` since process start.
pub fn snapshot() -> (u64, u64) {
    (BYTES.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    /// The test binary installs the allocator too (see `main.rs`), so a
    /// known allocation must show up in both counters. Other test threads
    /// allocate concurrently, hence `>=`.
    #[test]
    fn counts_requests_on_this_and_other_threads() {
        let (b0, c0) = super::snapshot();
        let v = std::hint::black_box(vec![0u8; 1 << 20]);
        let t = std::thread::spawn(|| std::hint::black_box(vec![1u64; 1 << 17]).len());
        assert_eq!(t.join().unwrap(), 1 << 17);
        let (b1, c1) = super::snapshot();
        assert!(b1 - b0 >= (1 << 20) + 8 * (1 << 17), "bytes {}", b1 - b0);
        assert!(c1 - c0 >= 2, "calls {}", c1 - c0);
        drop(v);
        // Freeing does not decrease the request counters.
        assert!(super::snapshot().0 >= b1);
    }
}
