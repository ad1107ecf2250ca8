//! What the hub keeps grows with what changes, not with how many
//! instruments exist or how many passes sample them, and its JSON export
//! allocates nothing but its output buffer. This test owns the process's
//! allocator to show both — counting allocation events and live bytes
//! process-wide — so it lives alone in its own test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use rocescale_monitor::{MetricsHub, TelemetryConfig, TraceEvent};

/// Allocation events (alloc, alloc_zeroed, realloc).
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed (wrapping: only differences are
/// read).
static LIVE: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics and
// do not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        LIVE.fetch_add(l.size() as u64, Relaxed);
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        LIVE.fetch_add(l.size() as u64, Relaxed);
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        LIVE.fetch_add((new as u64).wrapping_sub(l.size() as u64), Relaxed);
        System.realloc(p, l, new)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        LIVE.fetch_sub(l.size() as u64, Relaxed);
        System.dealloc(p, l)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

fn live() -> u64 {
    LIVE.load(Relaxed)
}

/// ⌈log₂ n⌉ + 1: an upper bound on the times a vector that doubles from
/// empty grows to hold `n` elements.
fn doublings(n: u64) -> u64 {
    (u64::BITS - n.leading_zeros()) as u64 + 1
}

#[test]
fn series_keep_only_changes_and_the_export_builds_only_its_output() {
    const COUNTERS: u64 = 2048;
    const GAUGES: u64 = 512;
    const MOVING: u64 = 16;
    const PASSES: u64 = 200;
    let hub = MetricsHub::with_config(TelemetryConfig {
        sample_every_ps: 1,
        flight_capacity: 16,
    });
    let counters: Vec<_> = (0..COUNTERS)
        .map(|i| hub.counter(&format!("nic.s{i:04}.qp.0.retransmits")))
        .collect();
    let gauges: Vec<_> = (0..GAUGES)
        .map(|i| hub.gauge(&format!("switch.t{i:03}.lossless_backlog")))
        .collect();
    let rtt = hub.histogram("nic.s0000.rtt_ps");
    let scope = hub.scope("switch.t000");
    // The first pass gives every series its first step.
    hub.maybe_sample(0);

    let (allocs0, live0) = (allocs(), live());
    for pass in 1..=PASSES {
        for &c in &counters[..MOVING as usize] {
            hub.incr(c);
        }
        // Set, but to the value it had: not a change.
        hub.set_gauge(gauges[0], 0.0);
        hub.set_gauge(gauges[1], pass as f64);
        hub.maybe_sample(pass);
    }
    let moving = MOVING + 1;
    let events = allocs() - allocs0;
    assert!(
        events <= (moving + 1) * doublings(PASSES),
        "{PASSES} passes over {} instruments, {moving} of them moving, allocated {events} times",
        COUNTERS + GAUGES
    );
    // Steps are 16 B and the pass times 8 B, each vector at most twice
    // its length; a point per pass for every instrument held 16 B ×
    // {COUNTERS + GAUGES} × {PASSES} = 8.2 MB.
    let grown = live().wrapping_sub(live0);
    let budget = 2 * (moving * PASSES * 16 + PASSES * 8);
    assert!(
        grown <= budget,
        "series grew by {grown} B over {PASSES} passes, budget {budget} B"
    );

    for v in 0..1000 {
        hub.observe(rtt, v * 7919 % 1000);
    }
    for t in 0..40 {
        hub.trace(t, scope, TraceEvent::PauseTx { port: 1, prio: 3 });
    }
    // The first read after the registrations sorts the names (a one-off
    // merge sort with a buffer of its own); the export after it builds
    // nothing but its output: a buffer that doubles as it fills.
    hub.counters_snapshot();
    let before = allocs();
    let text = hub.render_json().render();
    let events = allocs() - before;
    assert!(
        events <= doublings(text.len() as u64),
        "a {} B export allocated {events} times",
        text.len()
    );
    assert!(text.contains(r#""nic.s0000.qp.0.retransmits":[[0,0.0],[1,1.0],[2,2.0],"#));
    // The counter does count: the guards above are not vacuous.
    let v = std::hint::black_box(vec![0u8; 64]);
    assert!(allocs() > before, "{}", v.len());
}
