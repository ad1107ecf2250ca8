//! The build-time allocation budget of an idle host. A fleet is mostly
//! servers that own no QP, so what building one of them costs is what
//! building the fleet costs. With telemetry off, the marginal host —
//! measured as the difference between two rack sizes of the same
//! fabric, which cancels everything that is per switch or per cluster —
//! stays within a fixed number of heap allocations. This test owns the
//! process's allocator to count them, so it lives alone in its own test
//! binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rocescale_core::ClusterBuilder;
use rocescale_topology::ClosSpec;

thread_local! {
    /// Allocation events (alloc, alloc_zeroed, realloc) on this thread.
    /// Per-thread so the test harness's own threads cannot disturb the
    /// count; const-initialised and drop-free, so reading it inside the
    /// allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: a thread being torn down may allocate after its TLS
    // is gone; those events are not ours.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// thread-local `Cell` and does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count();
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        count();
        System.realloc(p, l, new)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made building (and dropping) two racks of
/// `servers_per_tor` idle hosts under one leaf and one spine.
fn build_allocs(servers_per_tor: u32) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let c = ClusterBuilder::new(ClosSpec::uniform_40g(1, 2, 1, 1, servers_per_tor)).build();
    assert_eq!(c.server_count(), 2 * servers_per_tor as usize);
    drop(c);
    ALLOCS.with(Cell::get) - before
}

#[test]
fn an_idle_host_costs_a_bounded_number_of_build_allocations() {
    let (small, large) = (160u32, 320u32);
    let added_hosts = 2 * (large - small) as u64;
    let per_host = (build_allocs(large) - build_allocs(small)) as f64 / added_hosts as f64;
    println!("allocations per added idle host: {per_host:.2}");
    assert!(
        per_host <= BUDGET,
        "{per_host:.2} allocations per idle host"
    );
}

/// Measured: 5.04 (the host and its name, its port table, its topology
/// node, its share of the ToR's per-port state). It was 22.04 while a
/// disabled hub still had `NicTele` format ten instrument names per host
/// and the switch three per port, only to be handed sentinel ids.
const BUDGET: f64 = 6.0;
