//! The event engine: a hierarchical timer wheel with a sorted overflow
//! level.
//!
//! # Why a wheel
//!
//! Every packet arrival, port-idle, and protocol timer in the fleet goes
//! through this queue. A global `BinaryHeap` costs O(log n) per operation
//! with poor cache locality once the heap spans thousands of in-flight
//! events (a Clos incast easily does). Calendar-queue/timer-wheel engines
//! — the structure used by htsim-style packet simulators and by kernel
//! timer subsystems — make push and pop amortized O(1) by bucketing the
//! near future into slots of a fixed tick.
//!
//! # Layout
//!
//! Time is bucketed into ticks of 2^12 ps (≈4.1 ns, finer than any
//! serialization delay the paper's link speeds produce). Four levels of
//! 256 slots each cover 2^(12+32) ps ≈ 17.6 s of simulated future —
//! beyond that, events go to a sorted overflow heap (far-future watchdog
//! deadlines live there; they are rare by construction). An event's level
//! is the highest bit in which its tick differs from the wheel cursor, so
//! cascades re-bucket a slot exactly when the cursor enters its span.
//!
//! Entries parked in slots live once, in one slab (`pool`) per queue; a
//! slot is the head of an intrusive list through it. A cascade relinks
//! node indices, so wheel memory follows the number of pending events,
//! not the biggest burst each slot ever held.
//!
//! # Determinism
//!
//! Dispatch order is globally sorted by `(time, seq)` where `seq` is a
//! monotone counter assigned at push — the order of a binary heap over
//! the same key, which the tests below keep as the reference. A
//! collected slot is sorted once into a ready list (bounded by slot
//! occupancy, not queue depth), so same-timestamp events still fire in
//! strict FIFO schedule order, whatever order the slot's list held them
//! in.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log2 of the tick in picoseconds: 4096 ps ≈ 4.1 ns.
const TICK_SHIFT: u32 = 12;
/// log2 of slots per level.
const LEVEL_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel levels; spans `2^(TICK_SHIFT + LEVELS*LEVEL_BITS)` ps of future.
const LEVELS: usize = 4;
/// Bitmap words per level (256 slots / 64).
const BM_WORDS: usize = SLOTS / 64;
/// Entries of capacity above which a buffer that comes back empty is
/// released rather than recycled (see [`shed`]).
const SHED_ABOVE: usize = 1024;
/// End of a slot's list and of the free list.
const NIL: u32 = u32::MAX;

/// Release `buf` — empty, about to be refilled — if a flood grew it past
/// [`SHED_ABOVE`]. Without this one same-slot burst (a fleet's start
/// events, thousands of timers on one instant) would stay resident for
/// the rest of the run. Smaller buffers are kept, so steady-state
/// collections never reallocate.
fn shed<T>(buf: &mut Vec<T>) {
    debug_assert!(buf.is_empty());
    if buf.capacity() > SHED_ABOVE {
        *buf = Vec::new();
    }
}

/// The engine behind an [`EventQueue`]: there is one. The enum and
/// [`EventQueue::new`]'s argument remain only because the frozen
/// `examples/benchmark/src/kernels.rs` calls
/// `EventQueue::new(EngineKind::default())`; the next `benchmark` PR
/// deletes both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Hierarchical timer wheel.
    #[default]
    Wheel,
}

/// Engine-level counters, exposed through `World::sched_stats()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Events pushed over the queue's lifetime.
    pub pushed: u64,
    /// Events dispatched (popped) over the queue's lifetime.
    pub dispatched: u64,
    /// Entries re-bucketed from a higher wheel level to a lower one.
    pub cascades: u64,
    /// Entries migrated from the sorted overflow level into the wheel.
    pub overflow_migrations: u64,
    /// Entries pushed directly into the sorted overflow level because
    /// their deadline was beyond the wheel's horizon.
    pub overflow_pushed: u64,
    /// Peak number of simultaneously pending events.
    pub max_occupancy: u64,
}

#[derive(Clone, Copy)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A slab node: an entry and the next node of its slot's list — or,
/// while vacant, of the free list. A vacant node keeps its stale entry:
/// entries are `Copy`, so there is nothing to drop and no tag to test.
#[derive(Clone, Copy)]
struct Node<T> {
    entry: Entry<T>,
    next: u32,
}

/// A priority queue of `(SimTime, T)` dispatching in `(time, insertion
/// order)` — the simulator's event queue.
pub struct EventQueue<T> {
    // Boxed: held inline in `World`, the wheel made `fleet_sharded` —
    // two shard worlds side by side in one vector, run by two threads —
    // 10 % slower.
    wheel: Box<Wheel<T>>,
    /// Monotone sequence counter; the FIFO tie-break for equal times.
    next_seq: u64,
    /// Pending events.
    len: usize,
    stats: SchedStats,
}

impl<T: Copy> EventQueue<T> {
    /// An empty queue.
    pub fn new(_: EngineKind) -> EventQueue<T> {
        EventQueue {
            wheel: Box::new(Wheel::new()),
            next_seq: 0,
            len: 0,
            stats: SchedStats::default(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Engine counters so far.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Schedule `item` at `time`. Events at equal times dispatch in push
    /// order.
    ///
    /// `time` must be ≥ the time of the last popped event (the simulator
    /// never schedules into the past); pushing earlier is remapped to the
    /// current dispatch front rather than corrupting the wheel.
    pub fn push(&mut self, time: SimTime, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if !self.wheel.place(Entry { time, seq, item }) {
            self.stats.overflow_pushed += 1;
        }
        self.len += 1;
        self.stats.pushed += 1;
        self.stats.max_occupancy = self.stats.max_occupancy.max(self.len as u64);
    }

    /// Time of the next event to dispatch, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.wheel.peek(&mut self.stats).map(|e| e.time)
    }

    /// Pop the next event in `(time, seq)` order.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let e = self.wheel.pop(&mut self.stats)?;
        self.len -= 1;
        self.stats.dispatched += 1;
        Some((e.time, e.item))
    }
}

/// The hierarchical wheel proper.
struct Wheel<T> {
    /// Next tick not yet collected: every entry with `tick < cursor` has
    /// been moved to `ready` (or dispatched).
    cursor: u64,
    /// Every entry parked in a slot, exactly once. Vacant nodes form a
    /// LIFO free list from `free`; when the wheel empties, the free list
    /// is dropped and the slab [`shed`].
    pool: Vec<Node<T>>,
    /// First vacant node of `pool`, or [`NIL`].
    free: u32,
    /// First node of each slot's list, or [`NIL`]. Order within a slot
    /// is immaterial: a collected slot is sorted.
    heads: [[u32; SLOTS]; LEVELS],
    /// Per-level slot-occupancy bitmaps for O(1) next-slot scans.
    bitmap: [[u64; BM_WORDS]; LEVELS],
    /// Entry count per level, so scans skip empty levels without
    /// touching their bitmaps.
    level_count: [usize; LEVELS],
    /// Entry count across all wheel slots: the live nodes of `pool`.
    in_wheel: usize,
    /// Collected entries ready to dispatch, sorted *descending* by
    /// `(time, seq)` so the front of the queue is `ready.last()` and pop
    /// is O(1). Bounded by per-slot occupancy, not global queue depth;
    /// [`shed`] before each refill.
    ready: Vec<Entry<T>>,
    /// Sorted overflow for events beyond the wheel horizon.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
}

fn tick_of(t: SimTime) -> u64 {
    t.as_ps() >> TICK_SHIFT
}

impl<T: Copy> Wheel<T> {
    fn new() -> Wheel<T> {
        Wheel {
            cursor: 0,
            pool: Vec::new(),
            free: NIL,
            heads: [[NIL; SLOTS]; LEVELS],
            bitmap: [[0; BM_WORDS]; LEVELS],
            level_count: [0; LEVELS],
            in_wheel: 0,
            ready: Vec::new(),
            overflow: BinaryHeap::new(),
        }
    }

    /// Insert into the (descending-sorted) ready list, keeping it sorted.
    fn insert_ready(&mut self, entry: Entry<T>) {
        let key = (entry.time, entry.seq);
        let idx = self.ready.partition_point(|e| (e.time, e.seq) > key);
        self.ready.insert(idx, entry);
    }

    /// Level an entry at absolute tick `t` belongs to, given the cursor:
    /// the highest differing bit picks the level, so the slot is cascaded
    /// exactly when the cursor enters its span. `None` means beyond the
    /// horizon (overflow).
    fn level_for(cursor: u64, t: u64) -> Option<usize> {
        let diff = cursor ^ t;
        if diff == 0 {
            return Some(0);
        }
        let msb = 63 - diff.leading_zeros();
        let level = (msb / LEVEL_BITS) as usize;
        (level < LEVELS).then_some(level)
    }

    fn slot_of(level: usize, t: u64) -> usize {
        ((t >> (level as u32 * LEVEL_BITS)) & (SLOTS as u64 - 1)) as usize
    }

    fn clear_bit(&mut self, level: usize, slot: usize) {
        self.bitmap[level][slot / 64] &= !(1u64 << (slot % 64));
    }

    /// First occupied slot ≥ `from` at `level`, if any.
    fn next_slot(&self, level: usize, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.bitmap[level][word] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= BM_WORDS {
                return None;
            }
            bits = self.bitmap[level][word];
        }
    }

    /// A node holding `entry`, taken from the free list or appended.
    fn alloc(&mut self, entry: Entry<T>) -> u32 {
        if self.free == NIL {
            assert!(
                self.pool.len() < NIL as usize,
                "fewer than 2^32 - 1 events parked in the wheel"
            );
            self.pool.push(Node { entry, next: NIL });
            (self.pool.len() - 1) as u32
        } else {
            let idx = self.free;
            let node = &mut self.pool[idx as usize];
            self.free = node.next;
            node.entry = entry;
            idx
        }
    }

    fn release(&mut self, idx: u32) {
        self.pool[idx as usize].next = self.free;
        self.free = idx;
    }

    /// Link node `idx` at the head of `heads[level][slot]`.
    fn link(&mut self, level: usize, slot: usize, idx: u32) {
        self.pool[idx as usize].next = self.heads[level][slot];
        self.heads[level][slot] = idx;
        self.bitmap[level][slot / 64] |= 1u64 << (slot % 64);
        self.level_count[level] += 1;
        self.in_wheel += 1;
    }

    /// Unlink every node of `heads[level][slot]`, returning the first.
    fn take_slot(&mut self, level: usize, slot: usize) -> u32 {
        self.clear_bit(level, slot);
        std::mem::replace(&mut self.heads[level][slot], NIL)
    }

    /// Place an entry relative to the cursor: into `ready` when its tick
    /// has already been collected (same tick as, or earlier than, the slot
    /// being drained — which keeps `(time, seq)` order exact), else into
    /// its slot. Returns `false` when it lies beyond the horizon and went
    /// to the overflow heap.
    fn place(&mut self, entry: Entry<T>) -> bool {
        let t = tick_of(entry.time);
        if t < self.cursor {
            self.insert_ready(entry);
            return true;
        }
        match Self::level_for(self.cursor, t) {
            Some(level) => {
                let idx = self.alloc(entry);
                self.link(level, Self::slot_of(level, t), idx);
                true
            }
            None => {
                self.overflow.push(Reverse(entry));
                false
            }
        }
    }

    #[inline]
    fn peek(&mut self, stats: &mut SchedStats) -> Option<&Entry<T>> {
        if self.ready.is_empty() {
            self.collect(stats);
        }
        self.ready.last()
    }

    #[inline]
    fn pop(&mut self, stats: &mut SchedStats) -> Option<Entry<T>> {
        if self.ready.is_empty() {
            self.collect(stats);
        }
        self.ready.pop()
    }

    /// Ensure `ready` holds the global front, advancing the cursor and
    /// cascading levels as needed.
    fn collect(&mut self, stats: &mut SchedStats) {
        while self.ready.is_empty() {
            // Pull overflow entries whose span is now within the horizon.
            while let Some(Reverse(head)) = self.overflow.peek() {
                let t = tick_of(head.time);
                if self.in_wheel == 0 && self.ready.is_empty() {
                    // Nothing nearer anywhere: jump straight to the
                    // overflow head instead of walking the wheel to it.
                    self.cursor = self.cursor.max(t);
                }
                if Self::level_for(self.cursor, t).is_none() {
                    break;
                }
                let Reverse(e) = self.overflow.pop().unwrap();
                stats.overflow_migrations += 1;
                self.place(e);
            }
            if self.in_wheel == 0 {
                return; // truly empty
            }
            // Cascade any higher-level slot whose span contains the
            // cursor. The cursor enters a span mid-slot via the +1 carry
            // of a level-0 collection (or an overflow jump), and entries
            // parked there may precede anything currently in level 0 —
            // they must re-bucket before the level-0 scan below, or a
            // later cascade would dispatch them in the past. Highest
            // level first, so a level-2 cascade can feed level 1.
            for level in (1..LEVELS).rev() {
                if self.level_count[level] == 0 {
                    continue;
                }
                let slot = Self::slot_of(level, self.cursor);
                if self.bitmap[level][slot / 64] & (1u64 << (slot % 64)) != 0 {
                    self.cascade_slot(level, slot, stats);
                }
            }
            if !self.ready.is_empty() {
                // A cascade fed the ready list directly (entries at or
                // before the cursor tick); dispatch those first.
                break;
            }
            // Find the nearest occupied slot, lowest level first.
            let mut advanced = false;
            for level in 0..LEVELS {
                if self.level_count[level] == 0 {
                    continue;
                }
                let idx = Self::slot_of(level, self.cursor);
                let Some(slot) = self.next_slot(level, idx) else {
                    continue;
                };
                if level == 0 {
                    self.cursor = (self.cursor & !(SLOTS as u64 - 1)) | slot as u64;
                    self.collect_slot(slot);
                    self.cursor += 1;
                } else {
                    // Enter the slot's span and cascade it downward.
                    let shift = level as u32 * LEVEL_BITS;
                    let high_mask = !((1u64 << (shift + LEVEL_BITS)) - 1);
                    self.cursor = (self.cursor & high_mask) | ((slot as u64) << shift);
                    self.cascade_slot(level, slot, stats);
                }
                advanced = true;
                break;
            }
            if !advanced {
                // All remaining entries wrapped past every level window:
                // advance the cursor to the next top-level window start
                // and rescan. (Reachable only with > ~17 s gaps between
                // the cursor and every pending event.)
                let top = LEVELS as u32 * LEVEL_BITS;
                let window = 1u64 << top;
                self.cursor = (self.cursor & !(window - 1)) + window;
                // Entries keep their absolute-bit slots, so the rescan
                // sees them once the cursor's high bits match.
            }
        }
        if self.in_wheel == 0 {
            // No node is live: start the next fill from index 0, and give
            // a flood's slab back.
            self.pool.clear();
            self.free = NIL;
            shed(&mut self.pool);
        }
    }

    /// Move level-0 slot `slot` into the (empty) ready list, freeing its
    /// nodes, and restore `(time, seq)` order with one sort.
    fn collect_slot(&mut self, slot: usize) {
        shed(&mut self.ready);
        let mut idx = self.take_slot(0, slot);
        while idx != NIL {
            let Node { entry, next } = self.pool[idx as usize];
            self.ready.push(entry);
            self.release(idx);
            idx = next;
        }
        self.level_count[0] -= self.ready.len();
        self.in_wheel -= self.ready.len();
        self.ready.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Re-place every node of `heads[level][slot]` relative to the
    /// current cursor. A node that lands in a lower slot is relinked in
    /// place; one that leaves the wheel (to `ready` or, never in
    /// practice, the overflow) is freed.
    fn cascade_slot(&mut self, level: usize, slot: usize, stats: &mut SchedStats) {
        let mut idx = self.take_slot(level, slot);
        while idx != NIL {
            let Node { entry, next } = self.pool[idx as usize];
            self.level_count[level] -= 1;
            self.in_wheel -= 1;
            stats.cascades += 1;
            let t = tick_of(entry.time);
            match Self::level_for(self.cursor, t).filter(|_| t >= self.cursor) {
                Some(to) => self.link(to, Self::slot_of(to, t), idx),
                None => {
                    self.release(idx);
                    self.place(entry);
                }
            }
            idx = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, v)) = q.pop() {
            out.push((t.as_ps(), v));
        }
        out
    }

    /// The reference engine: one global binary heap keyed by
    /// `(time, seq)`, the queue the wheel replaced.
    #[derive(Default)]
    struct HeapQueue {
        heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
        next_seq: u64,
    }

    impl HeapQueue {
        fn push(&mut self, time: SimTime, v: u32) {
            self.heap.push(Reverse((time, self.next_seq, v)));
            self.next_seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, u32)> {
            self.heap.pop().map(|Reverse((t, _, v))| (t, v))
        }

        fn drain(&mut self) -> Vec<(u64, u32)> {
            std::iter::from_fn(|| self.pop())
                .map(|(t, v)| (t.as_ps(), v))
                .collect()
        }
    }

    #[test]
    fn fifo_for_equal_times_both_engines() {
        let mut wheel = EventQueue::new(EngineKind::Wheel);
        let mut heap = HeapQueue::default();
        for v in 0..100u32 {
            wheel.push(SimTime(5_000), v);
            heap.push(SimTime(5_000), v);
        }
        let want: Vec<(u64, u32)> = (0..100).map(|v| (5_000, v)).collect();
        assert_eq!(drain(&mut wheel), want);
        assert_eq!(heap.drain(), want);
    }

    #[test]
    fn wheel_matches_heap_on_random_workload() {
        let mut rng = SimRng::from_seed(0xC0FFEE);
        for case in 0..50 {
            let mut wheel = EventQueue::new(EngineKind::Wheel);
            let mut heap = HeapQueue::default();
            let mut now = 0u64;
            let mut next_val = 0u32;
            for _ in 0..400 {
                // Interleave pushes and pops like a live simulation.
                let burst = rng.gen_range(1..6);
                for _ in 0..burst {
                    // Mix of same-tick, near, far, and very-far deltas.
                    let delta = match rng.gen_below(10) {
                        0 => 0,
                        1..=5 => rng.gen_below(1 << 14),
                        6..=7 => rng.gen_below(1 << 26),
                        8 => rng.gen_below(1 << 40),
                        _ => rng.gen_below(1 << 50),
                    };
                    let t = SimTime(now + delta);
                    wheel.push(t, next_val);
                    heap.push(t, next_val);
                    next_val += 1;
                }
                for _ in 0..rng.gen_below(4) {
                    let a = wheel.pop();
                    let b = heap.pop();
                    assert_eq!(a, b, "case {case}");
                    if let Some((t, _)) = a {
                        now = t.as_ps();
                    }
                }
            }
            assert_eq!(drain(&mut wheel), heap.drain(), "case {case} drain");
        }
    }

    /// Regression: the cursor carries into a new level-1 span (collecting
    /// level-0 slot 255 rolls the level-1 field), an entry parked at
    /// level 1 for that span must cascade before newly pushed level-0
    /// entries in the same window are collected — otherwise it fires
    /// after them, i.e. in the past.
    #[test]
    fn window_carry_cascades_before_level0_scan() {
        const TICK: u64 = 1 << TICK_SHIFT;
        let mut q = EventQueue::new(EngineKind::Wheel);
        q.push(SimTime(255 * TICK), 0); // last slot of window 0
        q.push(SimTime(258 * TICK), 1); // level 1, slot 1
        assert_eq!(q.pop(), Some((SimTime(255 * TICK), 0))); // carry to 256
        q.push(SimTime(261 * TICK), 2); // level 0 of window 1
        assert_eq!(q.pop(), Some((SimTime(258 * TICK), 1)));
        assert_eq!(q.pop(), Some((SimTime(261 * TICK), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn monotonic_dispatch_times() {
        let mut rng = SimRng::from_seed(77);
        let mut q = EventQueue::new(EngineKind::Wheel);
        for v in 0..5_000u32 {
            q.push(SimTime(rng.gen_below(1 << 45)), v);
        }
        let mut last = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t.as_ps() >= last);
            last = t.as_ps();
        }
    }

    #[test]
    fn far_future_goes_to_overflow_and_comes_back() {
        let mut q = EventQueue::new(EngineKind::Wheel);
        let far = SimTime::from_secs(100); // well past the 17.6 s horizon
        q.push(far, 2);
        q.push(SimTime::from_nanos(1), 1);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 1)));
        assert_eq!(q.pop(), Some((far, 2)));
        assert_eq!(q.pop(), None);
        assert!(q.stats().overflow_pushed >= 1);
        assert!(q.stats().overflow_migrations >= 1);
    }

    #[test]
    fn simtime_max_is_storable() {
        let mut q = EventQueue::new(EngineKind::Wheel);
        q.push(SimTime::MAX, 9);
        q.push(SimTime::ZERO, 1);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 1)));
        assert_eq!(q.pop(), Some((SimTime::MAX, 9)));
    }

    #[test]
    fn counters_track_activity() {
        let mut q = EventQueue::new(EngineKind::Wheel);
        for v in 0..10u32 {
            q.push(SimTime::from_micros(v as u64 * 50), v);
        }
        assert_eq!(q.stats().pushed, 10);
        assert_eq!(q.stats().max_occupancy, 10);
        while q.pop().is_some() {}
        assert_eq!(q.stats().dispatched, 10);
        // 50 µs spacing spans multiple L1 slots → cascades happened.
        assert!(q.stats().cascades > 0);
    }

    impl<T> EventQueue<T> {
        /// Entries of capacity the wheel holds, in use or not: the slab
        /// and the ready list.
        fn retained(&self) -> usize {
            self.wheel.pool.capacity() + self.wheel.ready.capacity()
        }
    }

    /// Wheel memory follows the pending events, not the slots they pass
    /// through. Two 100 000-event same-instant floods: one is collected
    /// straight from a level-0 slot; the other is parked at level 2 and
    /// relinked level by level down to level 0. At no point does the
    /// wheel hold more than twice the peak number of pending events of
    /// capacity, and once both have drained it holds no slab. A trickle
    /// afterwards hands the ready list's flood-sized buffer back too.
    #[test]
    fn a_drained_flood_leaves_no_capacity_behind() {
        const FLOOD: u32 = 100_000;
        let mut q = EventQueue::new(EngineKind::Wheel);
        for at in [SimTime::from_nanos(500), SimTime::from_millis(3)] {
            for v in 0..FLOOD {
                q.push(at, v);
            }
        }
        let peak = q.stats().max_occupancy as usize;
        assert_eq!(peak, 2 * FLOOD as usize);
        let mut popped = 0;
        let mut most = q.retained();
        while q.pop().is_some() {
            popped += 1;
            most = most.max(q.retained());
        }
        assert_eq!(popped, peak);
        assert_eq!(q.stats().cascades, 2 * FLOOD as u64, "level 2 → 1 → 0");
        assert!(
            most <= 2 * peak,
            "{most} entries of capacity held for {peak} pending events"
        );
        assert_eq!(q.wheel.pool.capacity(), 0, "a drained queue holds no slab");
        // A trickle afterwards: its collections hand the spent buffer back.
        let now = SimTime::from_millis(3);
        for k in 1..=50u64 {
            q.push(now + SimTime::from_nanos(100 * k), 0);
        }
        assert_eq!(drain(&mut q).len(), 50);
        let retained = q.retained();
        assert!(
            retained <= 4 * SHED_ABOVE,
            "{retained} entries of capacity kept after the flood drained"
        );
    }

    #[test]
    fn peek_matches_pop() {
        let mut rng = SimRng::from_seed(5);
        let mut q = EventQueue::new(EngineKind::Wheel);
        for v in 0..1000u32 {
            q.push(SimTime(rng.gen_below(1 << 30)), v);
        }
        while let Some(t) = q.peek_time() {
            let (pt, _) = q.pop().unwrap();
            assert_eq!(t, pt);
        }
    }
}
