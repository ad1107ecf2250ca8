//! The event wheel's allocations grow with the log of the peak number of
//! pending events, not with the number of wheel slots those events pass
//! through. A world of timers keeps a fixed number pending while their
//! deadlines sweep every level-0 and level-1 slot many times over; the
//! heap allocations made while it runs are the slab's and the ready
//! list's doublings, and nothing per slot. This test owns the process's
//! allocator, so it lives alone in its own test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;

use rocescale_packet::Packet;
use rocescale_sim::{Ctx, Node, PortId, SimRng, SimTime, World};

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

/// Keeps `pending` timers queued: each one that fires re-arms itself
/// 1 ns to 2 ms ahead, drawn from the node's own RNG — deadlines that
/// land in level-0, level-1 and level-2 slots alike.
struct Ticker {
    pending: u64,
    rng: SimRng,
}

impl Ticker {
    fn arm(&mut self, ctx: &mut Ctx<'_>) {
        let delay = 1_000 + self.rng.gen_below(2_000_000_000);
        ctx.set_timer(SimTime(delay), 0);
    }
}

impl Node for Ticker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.pending {
            self.arm(ctx);
        }
    }
    fn on_packet(&mut self, _: PortId, _: Packet, _: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _: u64, ctx: &mut Ctx<'_>) {
        self.arm(ctx);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn wheel_allocations_grow_with_log_peak_pending_not_slots_touched() {
    for pending in [16u64, 256, 4096] {
        let mut w = World::new(3);
        w.add_node(Box::new(Ticker {
            pending,
            rng: SimRng::from_seed(3),
        }));
        let before = ALLOCS.with(Cell::get);
        w.run_until(SimTime::from_millis(20));
        let allocs = ALLOCS.with(Cell::get) - before;
        let stats = w.sched_stats();
        let peak = stats.max_occupancy;
        assert_eq!(peak, pending, "the start event is gone before the arming");
        // Every deadline 1 ns – 2 ms out: ≥ 10 fires per timer in 20 ms,
        // sweeping all 256 level-0 slots and ≥ 70 level-1 slots (268 µs
        // each) many times over, with cascades through both.
        assert!(stats.dispatched > 10 * pending, "{stats:?}");
        assert!(stats.cascades > stats.dispatched / 2, "{stats:?}");
        let log2 = 64 - peak.leading_zeros() as u64;
        eprintln!("{pending} pending: {allocs} allocations, {stats:?}");
        assert!(
            allocs <= 2 * log2 + 4,
            "{allocs} allocations for {peak} pending events ({log2} doublings)"
        );
    }
}
