//! The allocation rate of a running service. Once a fabric is built and
//! its queues have grown to their working sizes, delivering a message
//! should cost no heap traffic: packets live in the world's arena,
//! events in the wheel's slabs, and every queue keeps its capacity. This
//! runs the Figure 6 shape — RDMA front-ends fanning queries out to
//! their backends beside TCP pingers and echo servers, telemetry off —
//! past warm-up and counts allocations over a window of simulated time.
//! The test owns the process's allocator, so it lives alone in its own
//! test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rocescale_core::{ClusterBuilder, ServerKind};
use rocescale_nic::{HostApp, QpApp};
use rocescale_sim::SimTime;
use rocescale_tcp::TcpApp;

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
/// Warm-up: long enough for every queue, slab and wheel to reach its
/// working size. The window after it is placed so that no host's RTT
/// sample log crosses a power of two inside it (each front-end takes
/// `FANIN` samples per `INTERVAL`: ~800 at 20 ms, ~880 at 22 ms), so the
/// log's amortised growth does not land in the count.
const WARMUP: SimTime = SimTime::from_millis(20);
const WINDOW: SimTime = SimTime::from_millis(2);

#[test]
fn a_warm_fanout_service_allocates_nothing_per_message() {
    let mut c = ClusterBuilder::two_tier(4, 8)
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

    c.run_until(WARMUP);
    let (events, allocs) = (c.events_processed(), ALLOCS.with(Cell::get));
    c.run_until(WARMUP + WINDOW);
    let events = c.events_processed() - events;
    let allocs = ALLOCS.with(Cell::get) - allocs;
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
