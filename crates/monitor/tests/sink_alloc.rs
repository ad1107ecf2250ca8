//! The per-record allocation budget of the streaming trace path is
//! **zero** on every thread: once the hub, the sink's writer thread and
//! batch pool, the sink's line buffer and the flight ring have reached
//! their steady state, emitting a hop, queue or event record
//! through `MetricsHub` into a `JsonlSink` touches the heap not once —
//! neither on the emitting thread nor on the writer thread that encodes
//! it. This test owns the process's allocator to prove it, counting
//! process-wide, so it lives alone in its own test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use rocescale_monitor::{HopRecord, JsonlSink, MetricsHub, QueueSample, TraceEvent, TraceFilter};

/// Allocation events (alloc, alloc_zeroed, realloc) on every thread.
/// Relaxed: the count publishes nothing, and the writer thread's events
/// are ordered before a reading by the drain (`flush_sink`) between them.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is an atomic and
// does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(p, l, new)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

struct Discard;

impl Write for Discard {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(std::hint::black_box(buf).len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One hop, one queue sample and two events at step `n`; values cycle
/// through every digit count so the line length (and any growth it could
/// cause) is exercised during warm-up.
fn emit(hub: &MetricsHub, sw: rocescale_monitor::ScopeId, nic: rocescale_monitor::ScopeId, n: u64) {
    let big = u64::MAX >> (n % 64);
    hub.stream_hop(
        n * 217_200,
        sw,
        HopRecord {
            port: (n % 64) as u16,
            prio: 3,
            bytes: 1086,
            src_ip: big as u32,
            dst_ip: 0x0a00_0102,
            queue_bytes: big,
        },
    );
    hub.stream_queue(
        n * 217_200,
        sw,
        QueueSample {
            backlog_bytes: big,
            max_port_bytes: big / 3,
            tx_pkts: n,
        },
    );
    // An event goes to the flight ring and is teed into the sink.
    hub.trace(
        n * 217_200,
        nic,
        TraceEvent::RateChange {
            qp: n as u32,
            rate_mbps: (big % 40_000) as u32,
            cc: "dcqcn",
            cause: "cnp",
        },
    );
    hub.trace(
        n * 217_200,
        nic,
        TraceEvent::Rollback {
            cause: "nak",
            to_psn: n as u32,
            pkts: (big % 1000) as u32,
        },
    );
}

#[test]
fn steady_state_records_do_not_allocate() {
    let hub = MetricsHub::enabled();
    let sw = hub.scope("switch.pod0-tor0 \"quoted\\\" scope\n");
    let nic = hub.scope("nic.pod0-tor0-srv7");
    hub.attach_sink(Box::new(JsonlSink::to_writer(Discard)), TraceFilter::all());
    // Warm-up: the writer thread starts, the line buffer grows to the
    // longest line, the flight ring (4096 records) fills and starts
    // evicting. The drain makes sure the writer has written it all.
    for n in 0..5_000 {
        emit(&hub, sw, nic, n);
    }
    hub.flush_sink();
    let before = allocs();
    for n in 5_000..15_000 {
        emit(&hub, sw, nic, n);
    }
    // Drain again, so the writer's share of the steady state is counted.
    hub.flush_sink();
    let steady = allocs() - before;
    assert_eq!(
        steady, 0,
        "40 000 steady-state records (10 000 hops, 10 000 queue samples, 20 000 \
         events), emitted and written, allocated {steady} times"
    );
    // The counter does count: the guard above is not vacuous.
    let v = std::hint::black_box(vec![0u8; 64]);
    assert!(allocs() > before, "{}", v.len());
}
