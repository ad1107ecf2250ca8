//! Counting global allocator: the benchmark's exact, hermetic work
//! counter for the heap. Counts are relaxed atomics — they publish no
//! other data — and wrap the system allocator unchanged, so the product
//! code under test allocates exactly as it does in the shipped binaries.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator installed by `main.rs`.
pub struct Counting;

fn note_alloc(size: u64) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size() as u64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size() as u64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth or shrink is one allocation event of the new size.
        note_alloc(new_size as u64);
        // SAFETY: `ptr`/`layout` came from this allocator; `new_size` is
        // the caller's responsibility per `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A point-in-time reading of the counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// Allocation events (alloc, alloc_zeroed, realloc) so far.
    pub allocs: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

/// Read the counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

impl Snapshot {
    /// Allocation events between `earlier` and `self`.
    pub fn allocs_since(&self, earlier: &Snapshot) -> u64 {
        self.allocs - earlier.allocs
    }

    /// Bytes requested between `earlier` and `self`.
    pub fn bytes_since(&self, earlier: &Snapshot) -> u64 {
        self.bytes - earlier.bytes
    }
}
