//! The event engine: a hierarchical timer wheel with a sorted overflow
//! level, plus a reference binary-heap engine for differential testing.
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
//! # Determinism
//!
//! Dispatch order is *identical* to the binary heap's: globally sorted by
//! `(time, seq)` where `seq` is a monotone counter assigned at push. A
//! collected slot is sorted once into a ready list (bounded by slot
//! occupancy, not queue depth), so same-timestamp events still fire in
//! strict FIFO schedule order and every scenario trace is bit-identical
//! across both engines.

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

/// Which engine backs an [`EventQueue`] (and a [`crate::World`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Hierarchical timer wheel — the default.
    #[default]
    Wheel,
    /// Global binary heap — the original engine, kept as the reference
    /// implementation for differential tests and benchmarks.
    BinaryHeap,
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

/// A priority queue of `(SimTime, T)` dispatching in `(time, insertion
/// order)` — the simulator's event queue. Backed by either engine.
pub struct EventQueue<T> {
    engine: Engine<T>,
    /// Monotone sequence counter; the FIFO tie-break for equal times.
    next_seq: u64,
    /// Pending events.
    len: usize,
    stats: SchedStats,
}

enum Engine<T> {
    // Boxed: the wheel's inline arrays dwarf the heap variant, and there
    // is exactly one `Engine` per world, so the indirection is free.
    Wheel(Box<Wheel<T>>),
    Heap(BinaryHeap<Reverse<Entry<T>>>),
}

impl<T> EventQueue<T> {
    /// An empty queue on the given engine.
    pub fn new(kind: EngineKind) -> EventQueue<T> {
        let engine = match kind {
            EngineKind::Wheel => Engine::Wheel(Box::new(Wheel::new())),
            EngineKind::BinaryHeap => Engine::Heap(BinaryHeap::new()),
        };
        EventQueue {
            engine,
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
        let entry = Entry { time, seq, item };
        match &mut self.engine {
            Engine::Wheel(w) => w.push(entry, &mut self.stats),
            Engine::Heap(h) => h.push(Reverse(entry)),
        }
        self.len += 1;
        self.stats.pushed += 1;
        self.stats.max_occupancy = self.stats.max_occupancy.max(self.len as u64);
    }

    /// Time of the next event to dispatch, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match &mut self.engine {
            Engine::Wheel(w) => w.peek(&mut self.stats).map(|e| e.time),
            Engine::Heap(h) => h.peek().map(|Reverse(e)| e.time),
        }
    }

    /// Pop the next event in `(time, seq)` order.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let e = match &mut self.engine {
            Engine::Wheel(w) => w.pop(&mut self.stats)?,
            Engine::Heap(h) => h.pop()?.0,
        };
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
    /// `LEVELS × SLOTS` buckets. Buffers circulate between slots and
    /// `ready`/`scratch` by swapping, so the hot path reuses capacity
    /// instead of allocating (free-list pooling).
    levels: Vec<Vec<Vec<Entry<T>>>>,
    /// Per-level slot-occupancy bitmaps for O(1) next-slot scans.
    bitmap: [[u64; BM_WORDS]; LEVELS],
    /// Physical entry count per level, so scans skip empty levels
    /// without touching their bitmaps.
    level_count: [usize; LEVELS],
    /// Physical entry count across all wheel slots.
    in_wheel: usize,
    /// Collected entries ready to dispatch, sorted *descending* by
    /// `(time, seq)` so the front of the queue is `ready.last()` and pop
    /// is O(1). Bounded by per-slot occupancy, not global queue depth.
    ready: Vec<Entry<T>>,
    /// Reusable drain buffer for cascades.
    scratch: Vec<Entry<T>>,
    /// Sorted overflow for events beyond the wheel horizon.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
}

fn tick_of(t: SimTime) -> u64 {
    t.as_ps() >> TICK_SHIFT
}

impl<T> Wheel<T> {
    fn new() -> Wheel<T> {
        Wheel {
            cursor: 0,
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            bitmap: [[0; BM_WORDS]; LEVELS],
            level_count: [0; LEVELS],
            in_wheel: 0,
            ready: Vec::new(),
            scratch: Vec::new(),
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

    fn set_bit(&mut self, level: usize, slot: usize) {
        self.bitmap[level][slot / 64] |= 1u64 << (slot % 64);
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

    fn push(&mut self, entry: Entry<T>, stats: &mut SchedStats) {
        let t = tick_of(entry.time);
        if t < self.cursor {
            // Same tick as (or earlier than) the slot currently being
            // drained: dispatches straight from the ready list, which
            // keeps `(time, seq)` order exact.
            self.insert_ready(entry);
            return;
        }
        match Self::level_for(self.cursor, t) {
            Some(level) => {
                let slot = Self::slot_of(level, t);
                self.levels[level][slot].push(entry);
                self.set_bit(level, slot);
                self.level_count[level] += 1;
                self.in_wheel += 1;
            }
            None => {
                stats.overflow_pushed += 1;
                self.overflow.push(Reverse(entry));
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
                self.push_in_wheel(e);
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
                return;
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
                    // Collect this slot: swap its buffer straight into the
                    // (empty) ready list — zero-copy, and the slot inherits
                    // ready's spent buffer for reuse — then restore
                    // (time, seq) order with one sort.
                    self.cursor = (self.cursor & !(SLOTS as u64 - 1)) | slot as u64;
                    debug_assert!(self.ready.is_empty());
                    std::mem::swap(&mut self.ready, &mut self.levels[0][slot]);
                    self.level_count[0] -= self.ready.len();
                    self.in_wheel -= self.ready.len();
                    self.clear_bit(0, slot);
                    self.ready.sort_unstable_by(|a, b| b.cmp(a));
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
    }

    /// Empty `levels[level][slot]` through the scratch buffer, re-placing
    /// every entry relative to the current cursor. Buffers are swapped,
    /// not dropped, so cascades don't allocate on the steady state.
    fn cascade_slot(&mut self, level: usize, slot: usize, stats: &mut SchedStats) {
        let mut entries = std::mem::take(&mut self.scratch);
        std::mem::swap(&mut entries, &mut self.levels[level][slot]);
        self.level_count[level] -= entries.len();
        self.in_wheel -= entries.len();
        self.clear_bit(level, slot);
        stats.cascades += entries.len() as u64;
        for e in entries.drain(..) {
            self.push_in_wheel(e);
        }
        self.scratch = entries;
    }

    /// Re-insert during cascade/migration: [`Self::push`]'s placement rule
    /// without the overflow counter (seq already assigned).
    fn push_in_wheel(&mut self, entry: Entry<T>) {
        let t = tick_of(entry.time);
        if t < self.cursor {
            self.insert_ready(entry);
            return;
        }
        match Self::level_for(self.cursor, t) {
            Some(level) => {
                let slot = Self::slot_of(level, t);
                self.levels[level][slot].push(entry);
                self.set_bit(level, slot);
                self.level_count[level] += 1;
                self.in_wheel += 1;
            }
            None => self.overflow.push(Reverse(entry)),
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

    #[test]
    fn fifo_for_equal_times_both_engines() {
        for kind in [EngineKind::Wheel, EngineKind::BinaryHeap] {
            let mut q = EventQueue::new(kind);
            for v in 0..100u32 {
                q.push(SimTime(5_000), v);
            }
            let got = drain(&mut q);
            let want: Vec<(u64, u32)> = (0..100).map(|v| (5_000, v)).collect();
            assert_eq!(got, want, "{kind:?}");
        }
    }

    #[test]
    fn wheel_matches_heap_on_random_workload() {
        let mut rng = SimRng::from_seed(0xC0FFEE);
        for case in 0..50 {
            let mut wheel = EventQueue::new(EngineKind::Wheel);
            let mut heap = EventQueue::new(EngineKind::BinaryHeap);
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
            assert_eq!(drain(&mut wheel), drain(&mut heap), "case {case} drain");
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
