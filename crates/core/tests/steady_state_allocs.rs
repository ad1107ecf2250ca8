//! The allocation rate of a running service. Once a fabric is built and
//! its queues have grown to their working sizes, delivering a message
//! should cost no heap traffic: packets live in the world's arena,
//! events in the wheel's slabs, and every queue keeps its capacity. This
//! runs the Figure 6 shape — RDMA front-ends fanning queries out to
//! their backends beside TCP pingers and echo servers, telemetry off —
//! past warm-up and counts allocations over a window of simulated time;
//! a second arm runs it with the hub on and counts what sampling adds.
//! The test owns the process's allocator, so it lives alone in its own
//! test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rocescale_core::{Cluster, ClusterBuilder, InstrumentationProfile, ServerKind};
use rocescale_monitor::MetricsHub;
use rocescale_nic::{HostApp, QpApp};
use rocescale_sim::SimTime;
use rocescale_tcp::TcpApp;
use rocescale_topology::ClosSpec;

thread_local! {
    /// Allocation events (alloc, alloc_zeroed, realloc) on this thread.
    /// Per-thread so the test harness's own threads cannot disturb the
    /// count; const-initialised and drop-free, so reading it inside the
    /// allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note() {
    // `try_with`: a thread being torn down may allocate after its TLS
    // is gone; those events are not ours.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// thread-local `Cell` and does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        note();
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        note();
        System.realloc(p, l, new)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Query period of every front-end.
const INTERVAL: SimTime = SimTime::from_micros(100);
/// Backends per front-end.
const FANIN: usize = 4;

/// The Figure 6 shape on `builder`'s fabric: even-numbered servers are
/// RDMA front-ends fanning 512 B queries to the next `FANIN` RDMA hosts
/// (8 KB replies), odd-numbered ones TCP pingers of the next `FANIN` TCP
/// hosts, every `INTERVAL`.
fn fanout_service(builder: ClusterBuilder) -> Cluster {
    let mut c = builder
        .server_kind(|i| {
            if i % 2 == 0 {
                ServerKind::Rdma
            } else {
                ServerKind::Tcp
            }
        })
        .seed(17)
        .build();
    let rdma = c.servers_of_kind(ServerKind::Rdma);
    for (fi, &f) in rdma.iter().enumerate() {
        let qps = (1..=FANIN)
            .map(|k| {
                let b = rdma[(fi + k) % rdma.len()];
                let echo = QpApp::Echo { reply_len: 8192 };
                c.connect_qp(f, b, (9000 + fi * 31 + k) as u16, QpApp::None, echo)
                    .0
            })
            .collect();
        c.rdma_mut(f).set_host_app(HostApp::Fanout {
            qps,
            interval: INTERVAL,
            query_len: 512,
            start_at: SimTime::from_micros(50 + 13 * fi as u64),
        });
    }
    let tcp = c.servers_of_kind(ServerKind::Tcp);
    for (fi, &f) in tcp.iter().enumerate() {
        for k in 1..=FANIN {
            let pinger = TcpApp::Pinger {
                payload: 512,
                interval: INTERVAL,
                start_at: SimTime::from_micros(50 + 13 * fi as u64 + k as u64),
            };
            let echo = TcpApp::Echo { reply_len: 8192 };
            c.connect_tcp(f, tcp[(fi + k) % tcp.len()], pinger, echo);
        }
    }
    c
}

/// Allocations and events of `c` over `[from, to)`.
fn count(c: &mut Cluster, from: SimTime, to: SimTime) -> (u64, u64) {
    c.run_until(from);
    let (events, allocs) = (c.events_processed(), ALLOCS.with(Cell::get));
    c.run_until(to);
    (
        ALLOCS.with(Cell::get) - allocs,
        c.events_processed() - events,
    )
}

/// Warm-up: long enough for every queue, slab and wheel to reach its
/// working size. The window after it is placed so that no host's RTT
/// sample log crosses a power of two inside it (each front-end takes
/// `FANIN` samples per `INTERVAL`: ~800 at 20 ms, ~880 at 22 ms), so the
/// log's amortised growth does not land in the count.
const WARMUP: SimTime = SimTime::from_millis(20);
const WINDOW: SimTime = SimTime::from_millis(2);

#[test]
fn a_warm_fanout_service_allocates_nothing_per_message() {
    let mut c = fanout_service(ClusterBuilder::two_tier(4, 8));
    let (allocs, events) = count(&mut c, WARMUP, WARMUP + WINDOW);
    let per_kevent = allocs as f64 * 1000.0 / events as f64;
    println!("{allocs} allocations over {events} events: {per_kevent:.4} per 1 000 events");
    assert!(
        events > 100_000,
        "the window carries traffic: {events} events"
    );
    assert!(
        per_kevent < 0.1,
        "{allocs} allocations over {events} events ({per_kevent:.4} per 1 000)"
    );
}

/// Sampling a warm fabric costs no allocation per epoch. With the hub
/// enabled, every 100 µs sample boundary publishes device counters,
/// samples the series and runs the deadlock probe over all twelve
/// switches of the fabric. The same service runs unobserved on a second
/// thread; observation does not perturb dispatch, so both runs carry the
/// same traffic, and the traffic's own allocations (egress rings
/// reaching a new peak depth) are the same in both: what the observed
/// run allocates beyond them over 100 sample epochs is what observing
/// costs. The window is 30–40 ms, where every RTT log and RTT histogram
/// holds 1 100–1 600 samples, between powers of two.
#[test]
fn a_warm_observed_fabric_allocates_nothing_per_sample_epoch() {
    /// What sampling may cost in the window: the hub's series storage
    /// (its change log and its sample times) grows by doubling, and
    /// each grows by under 2× here, so reallocates at most once.
    const BOUND: u64 = 2;
    let spec = ClosSpec::uniform_40g(1, 8, 2, 2, 16);
    let (from, to) = (SimTime::from_millis(30), SimTime::from_millis(40));
    let quiet = std::thread::spawn(move || {
        let mut c = fanout_service(ClusterBuilder::new(spec));
        count(&mut c, from, to)
    });
    let observed = InstrumentationProfile::paper_default().telemetry(MetricsHub::enabled());
    let mut c = fanout_service(ClusterBuilder::new(spec).instrumentation(observed));
    let (allocs, events) = count(&mut c, from, to);
    let (quiet_allocs, quiet_events) = quiet.join().expect("the unobserved run");
    let epochs = c.deadlock_probe().epochs();
    let extra = allocs - quiet_allocs;
    println!(
        "{allocs} allocations observed, {quiet_allocs} unobserved, over {events} events \
         and 100 sample epochs: {extra} for observation"
    );
    assert_eq!(epochs, 400, "one probe epoch per 100 µs sample boundary");
    assert_eq!(
        events, quiet_events,
        "observation does not perturb dispatch"
    );
    assert!(
        events > 100_000,
        "the window carries traffic: {events} events"
    );
    assert!(extra <= BOUND, "{extra} allocations over 100 sample epochs");
}
