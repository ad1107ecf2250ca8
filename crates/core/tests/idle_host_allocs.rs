//! The build-time budget of an idle host. A fleet is mostly servers that
//! own no QP, so what one of them costs is what the fleet costs. The
//! marginal host — measured as the difference between two rack sizes of
//! the same fabric, which cancels everything that is per switch or per
//! cluster — stays within a fixed number of heap allocations and a fixed
//! number of live heap bytes, with telemetry off and with an enabled hub
//! observing it. The bytes count the host, its share of the topology and
//! the world, and the ToR port that faces it — and, observed, their
//! instruments' share of the hub. These tests own the process's
//! allocator, so they live alone in their own test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rocescale_core::{ClusterBuilder, InstrumentationProfile};
use rocescale_monitor::MetricsHub;
use rocescale_topology::ClosSpec;

thread_local! {
    /// Allocation events (alloc, alloc_zeroed, realloc) on this thread.
    /// Per-thread so the test harness's own threads cannot disturb the
    /// count; const-initialised and drop-free, so reading it inside the
    /// allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Requested bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn note(events: u64, bytes: i64) {
    // `try_with`: a thread being torn down may allocate after its TLS
    // is gone; those events are not ours.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + events));
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are
// thread-local `Cell`s and do not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        note(1, l.size() as i64);
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        note(1, l.size() as i64);
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        note(1, new as i64 - l.size() as i64);
        System.realloc(p, l, new)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        note(0, -(l.size() as i64));
        System.dealloc(p, l)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Two racks of `servers_per_tor` idle hosts under one leaf and one
/// spine, observed by a hub of their own or not: (allocations made
/// building and dropping the cluster, live heap bytes while it exists).
fn build(servers_per_tor: u32, observed: bool) -> (u64, i64) {
    let allocs = ALLOCS.with(Cell::get);
    let live = LIVE.with(Cell::get);
    let mut instr = InstrumentationProfile::paper_default();
    if observed {
        instr = instr.telemetry(MetricsHub::enabled());
    }
    let c = ClusterBuilder::new(ClosSpec::uniform_40g(1, 2, 1, 1, servers_per_tor))
        .instrumentation(instr)
        .build();
    assert_eq!(c.server_count(), 2 * servers_per_tor as usize);
    let held = LIVE.with(Cell::get) - live;
    drop(c);
    (ALLOCS.with(Cell::get) - allocs, held)
}

/// (allocations, live bytes) per idle host added between 160- and
/// 320-server racks.
fn per_added_host(observed: bool) -> (f64, f64) {
    let (small, large) = (160u32, 320u32);
    let added_hosts = (2 * (large - small)) as f64;
    let (allocs_s, bytes_s) = build(small, observed);
    let (allocs_l, bytes_l) = build(large, observed);
    (
        (allocs_l - allocs_s) as f64 / added_hosts,
        (bytes_l - bytes_s) as f64 / added_hosts,
    )
}

#[test]
fn an_idle_host_costs_a_bounded_number_of_build_allocations() {
    let (per_host, _) = per_added_host(false);
    println!("allocations per added idle host: {per_host:.4}");
    assert!(
        per_host <= ALLOC_BUDGET,
        "{per_host:.4} allocations per idle host"
    );
}

#[test]
fn an_idle_host_and_its_tor_port_fit_in_two_kilobytes() {
    let (_, per_host) = per_added_host(false);
    println!("live heap bytes per added idle host: {per_host:.0}");
    assert!(
        per_host <= BYTE_BUDGET,
        "{per_host:.0} live bytes per idle host"
    );
}

#[test]
fn an_observed_idle_host_costs_a_bounded_number_of_build_allocations() {
    let (per_host, _) = per_added_host(true);
    println!("allocations per added observed idle host: {per_host:.4}");
    assert!(
        per_host <= OBSERVED_ALLOC_BUDGET,
        "{per_host:.4} allocations per observed idle host"
    );
}

#[test]
fn an_observed_idle_host_and_its_tor_port_fit_in_two_kilobytes() {
    let (_, per_host) = per_added_host(true);
    println!("live heap bytes per added observed idle host: {per_host:.1}");
    assert!(
        per_host <= OBSERVED_BYTE_BUDGET,
        "{per_host:.0} live bytes per observed idle host"
    );
}

/// Measured: 2.0375, 1 304 allocations for 640 added hosts (the host
/// and its one shared name; its share of the ToR's tables). It was 5.0375
/// while the host's name was copied into its config and the deadlock
/// probe and its one-port table was a vector of its own, and 22.04 while
/// a disabled hub still had `NicTele` format ten instrument names per
/// host and the switch three per port, only to be handed sentinel ids.
/// One more allocation per host fails this.
const ALLOC_BUDGET: f64 = 2.04;

/// Measured: 933 bytes; 1 568 while every NIC carried its queues, pause
/// and timer state from the start, a one-port node's table was a vector
/// with room for four ports, each name had three copies and topology rows
/// `usize` indices; 1 696 while every host's `NicConfig` carried its own
/// copy of the DCQCN parameters and receive-buffer thresholds; and 2 992
/// while every ToR port carried its egress queues, DCQCN marking state
/// and 64-bit PG counters from the start and every host an inline MTT
/// cache and telemetry block. One more byte per host fails this. The
/// ledger is in DESIGN.md ("Per-host budget").
const BYTE_BUDGET: f64 = 933.0;

/// Measured: 2.0469 — the unobserved host's allocations and 0.0094 of
/// the hub's table doublings. It was 55.06 while every instrument was
/// registered by name: a `format!`, a `c:`-prefixed map key and a copy
/// of the name each, ten per NIC and three per ToR port, and every
/// series grew a vector of its own.
const OBSERVED_ALLOC_BUDGET: f64 = 2.05;

/// Measured: 1 294.4 bytes — 361 over the unobserved host: a 12-byte row
/// and an 8-byte value slot per instrument (the NIC's seven counters and
/// RTT histogram, the ToR port's three PFC counters), the NIC's scope
/// path and histogram entry, and the tables' doubling slack. It was
/// 3 536 while each instrument kept its name as a `String` twice (the
/// name table and the lookup map's key). The ledger is in DESIGN.md
/// ("Per-host budget").
const OBSERVED_BYTE_BUDGET: f64 = 1294.4;
