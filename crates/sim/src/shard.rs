//! Conservative-lookahead sharded execution: several [`World`]s — one
//! per topology shard — advanced in lock-step epochs with boundary
//! traffic exchanged at epoch barriers.
//!
//! # The conservative exchange
//!
//! Cross-shard links are declared with [`World::connect_remote`]; the
//! smallest propagation delay over all of them is the exchange's
//! **lookahead** `L`. Simulated time is cut into windows aligned to the
//! `L`-grid: each epoch advances every shard from the common horizon
//! `h` to `we = (⌊h/L⌋+1)·L` (clamped to the caller's deadline). A
//! packet that finishes serializing onto a boundary link at time
//! `s ∈ (h, we]` arrives at the far end no earlier than `s + L > we` —
//! strictly beyond the barrier — so delivering the collected messages
//! *before* the next window starts can never schedule into a shard's
//! past. That is the whole safety argument; no rollback, no
//! anti-messages.
//!
//! # The runtime
//!
//! One [`ShardedWorld::run_until`] call starts its workers **once**:
//! `min(shards, available_parallelism)` of them, each owning a
//! contiguous range of shards for the whole call, the calling thread
//! being worker 0 and the *coordinator*. The coordinator alone runs the
//! epoch loop (window end, idle-window skip, horizon, epoch count) and
//! hands the workers one window after another:
//!
//! 1. it *releases* a window — publishes it and bumps a generation
//!    counter;
//! 2. every worker, for each of its shards in order, moves the mail
//!    earlier grid windows addressed to the shard into the shard's
//!    **inbox**, injects what is due by the grid line, advances the
//!    world to the window's end, and routes the world's outbox into the
//!    per-destination mail slots;
//! 3. every helper *arrives* (an atomic count) with the earliest time
//!    any of its shards has work; the coordinator takes the minimum and
//!    decides the next window.
//!
//! A waiter spins briefly and then yields until it is served, so a
//! balanced epoch costs a cache-line round trip and an oversubscribed
//! or unbalanced one gives its core away. A worker that unwinds poisons
//! the hand-off: everybody leaves the loop and `run_until` re-raises
//! the panic instead of waiting for an arrival that will never come.
//! [`ShardedWorld::set_threaded`]`(false)` is the same loop with one
//! worker.
//!
//! Mail is double-buffered by grid-window parity: during a window
//! sources fill one half while destinations drain the other, and a
//! release separates the two uses of a half, so no slot is ever touched
//! from two sides at once. A `run_until` deadline inside a grid window
//! cuts it into several epochs; only the first of them exchanges (see
//! `Pacer::next_window`), the others keep filling the same half. All
//! buffers (outboxes, mail slots, inboxes) are
//! swapped or drained in place and keep their capacity — a steady
//! exchange allocates nothing per epoch.
//!
//! # Determinism
//!
//! Four properties make sharded runs digest-pinnable:
//!
//! 1. **Barrier totality.** Every shard finishes a window before any
//!    message sent in it is absorbed, so the inter-shard schedule is a
//!    pure function of the partition, never of thread timing or of the
//!    worker count.
//! 2. **Fixed merge order.** A destination absorbs its mail in source
//!    shard order, each source's in outbox order, stamping a monotone
//!    inbox sequence; the inbox pops by `(time, seq)` — that is
//!    `(time, collection window, source shard, outbox index)`, the same
//!    tie-break discipline the event queue itself uses. Each world
//!    therefore receives its injected arrivals in one fixed order and
//!    gives them the same queue sequence numbers, however many workers
//!    ran the window.
//! 3. **Fixed digest fold.** [`ShardedWorld::dispatch_digest`] folds
//!    per-shard digests in shard order with a byte-wise FNV-1a fold
//!    ([`digest_fold`]); a single-shard run degenerates to
//!    the plain world digest, which is how the golden trace re-pins
//!    under `ExecutionProfile::Sharded { shards: 1 }`.
//! 4. **Chunking invariance.** What is exchanged, and when, depends on
//!    the grid alone: a grid window's arrivals are injected before its
//!    first local event and its mail is numbered source-major over the
//!    whole window, whether one `run_until` call crosses it or several
//!    deadlines cut it. One call, many calls on the grid and many calls
//!    off it dispatch the same event stream.
//!
//! Worker threads therefore produce *byte-identical* results to
//! advancing the shards on one thread ([`ShardedWorld::set_threaded`] is
//! a differential-testing knob, not a semantic one): within a window the
//! shards share no state, and everything that crosses the boundary is
//! ordered at the barrier.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::panic::resume_unwind;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crate::time::SimTime;
use crate::world::{digest_fold, BoundaryMsg, World};

/// Per-shard packet-id namespace: shard `s` allocates ids from
/// `s << PACKET_ID_SHARD_SHIFT`. Shard 0's base of 0 keeps its id
/// stream identical to a non-sharded world's (load-bearing for the
/// single-shard golden-digest guarantee); 2^48 ids per shard is
/// unreachable in any feasible run.
pub const PACKET_ID_SHARD_SHIFT: u32 = 48;

/// Exchange bookkeeping snapshot: windows actually executed, windows
/// the pacer stepped over, and boundary messages carried. For any drive
/// pattern, `epochs_executed + epochs_skipped` is the number of grid
/// windows the deadlines cut the run into: one per lookahead-grid window
/// in (0, now], plus one for each deadline that falls inside a window.
/// Every field is exact and independent of threading and of the worker
/// count; the wall-clock side of the exchange is [`ShardTiming`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Grid windows delivered/advanced/collected.
    pub epochs_executed: u64,
    /// Grid windows the pacer jumped over without a barrier.
    pub epochs_skipped: u64,
    /// Boundary messages carried across shards.
    pub boundary_messages: u64,
}

/// Where the exchange's wall-clock went, per shard (index = shard):
/// measurements, so unlike [`ShardStats`] they differ run to run. For
/// one shard the three spans and the time its worker spent on its other
/// shards add up to the time spent inside `run_until`; the shard with
/// the least wait is the straggler the others waited for.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardTiming {
    /// Worker threads `run_until` uses (the caller's included):
    /// `min(shards, available_parallelism)`, or 1 when not threaded.
    pub workers: usize,
    /// Nanoseconds inside `World::run_until` — event dispatch.
    pub busy_nanos: Vec<u64>,
    /// Nanoseconds from the shard finishing a window to the next window
    /// being released: waiting for slower shards (its worker's other
    /// shards included) and for the coordinator's pacing step.
    pub barrier_wait_nanos: Vec<u64>,
    /// Nanoseconds moving boundary messages: absorbing mail into the
    /// inbox, injecting what is due, routing the outbox.
    pub exchange_nanos: Vec<u64>,
}

/// What a cluster drives: one or more per-shard [`World`]s behind a
/// single clock. A plain [`World`] is the one-shard set (its slice has
/// length 1 and `run_until` is the world's own); [`ShardedWorld`] is the
/// N-shard set advanced through the conservative exchange. Code written
/// against this trait reads devices from `worlds()[shard]` and never
/// needs to know which of the two it is driving.
pub trait WorldSet {
    /// The shard worlds, index = shard id.
    fn worlds(&self) -> &[World];
    /// The shard worlds, mutably (wiring, node inspection) — never for
    /// advancing time, which must go through [`WorldSet::run_until`].
    fn worlds_mut(&mut self) -> &mut [World];
    /// Advance every shard to `deadline`.
    fn run_until(&mut self, deadline: SimTime);
    /// Simulated time every shard has reached.
    fn now(&self) -> SimTime;
}

impl WorldSet for World {
    fn worlds(&self) -> &[World] {
        std::slice::from_ref(self)
    }
    fn worlds_mut(&mut self) -> &mut [World] {
        std::slice::from_mut(self)
    }
    fn run_until(&mut self, deadline: SimTime) {
        World::run_until(self, deadline);
    }
    fn now(&self) -> SimTime {
        World::now(self)
    }
}

impl WorldSet for ShardedWorld {
    fn worlds(&self) -> &[World] {
        &self.worlds
    }
    fn worlds_mut(&mut self) -> &mut [World] {
        &mut self.worlds
    }
    fn run_until(&mut self, deadline: SimTime) {
        ShardedWorld::run_until(self, deadline);
    }
    fn now(&self) -> SimTime {
        self.pacer.horizon
    }
}

/// Global dispatch digest of a world set: per-shard digests folded in
/// shard order with [`digest_fold`]. With one shard
/// this is *exactly* the plain world digest.
pub fn merged_digest(worlds: &[World]) -> u64 {
    let mut it = worlds.iter().map(World::dispatch_digest);
    let first = it.next().expect("at least one shard world");
    it.fold(first, digest_fold)
}

/// One window of the exchange, as the coordinator hands it to the
/// workers.
#[derive(Debug, Clone, Copy)]
struct Window {
    /// Whether this is the first epoch in its grid window — the only
    /// one that exchanges, see [`Pacer::next_window`]. (A deadline
    /// inside a grid window cuts it into several epochs.)
    opens: bool,
    /// Inject every inbox message timestamped at or before this: the
    /// grid window's end, wherever the deadline cuts the epoch.
    due: SimTime,
    /// Advance every shard to this time.
    end: SimTime,
    /// The mail half this window's outboxes are routed into; the other
    /// half holds what earlier grid windows sent.
    parity: usize,
}

/// The epoch cursor: where the common horizon is and which window comes
/// next. The only place the grid, the skip and the epoch count are
/// written down.
struct Pacer {
    /// Min propagation over all cross-shard links — the epoch window
    /// grid. `None` when no world has a remote port (independent
    /// shards): one window then spans the whole `run_until` call.
    lookahead: Option<SimTime>,
    /// Common simulated time every shard has reached.
    horizon: SimTime,
    epochs: u64,
    skipped: u64,
    /// Grid window of the latest executed epoch, and the mail half it
    /// routed into.
    open: Option<u64>,
    parity: usize,
}

impl Pacer {
    /// The next window to execute on the way to `deadline`, or `None`
    /// once the horizon is there.
    ///
    /// `next_work` is the earliest thing any shard has to do: a queued
    /// event, an undelivered boundary message, or mail a cut window
    /// left. When it does not fall inside the next window, the horizon
    /// jumps straight to the start of the grid window containing it (or
    /// to the deadline if there is none), and the windows stepped over
    /// count in [`ShardStats::epochs_skipped`]. Skipping is physics-free
    /// by construction: an empty window's execution would only advance
    /// per-shard clocks (no events dispatch, no RNG draws, no digest
    /// folds), delivery inside it would be vacuous, and collection would
    /// find empty outboxes. The lookahead safety argument is untouched —
    /// a boundary message *produced* in a window can only *land* beyond
    /// it, and no window with work is ever skipped.
    ///
    /// The exchange happens once per *grid* window, at its first epoch,
    /// however the caller's deadlines cut it: that epoch absorbs the
    /// mail of all earlier grid windows and injects everything due by
    /// the grid line — every such message was sent before the grid
    /// window began (lookahead), so nothing is missing. A later epoch
    /// of the same grid window absorbs nothing and appends its outboxes
    /// to the same mail half, so the next grid window finds per source
    /// exactly the sequence an uncut window would have left. This is
    /// what makes a run independent of where `run_until` deadlines fall.
    fn next_window(&mut self, deadline: SimTime, next_work: Option<SimTime>) -> Option<Window> {
        while self.horizon < deadline {
            let end = self.window_end(deadline);
            if let Some(l) = self.lookahead {
                if next_work.is_none_or(|t| t > end) {
                    // Nothing lands in (horizon, end]: jump to the start
                    // of the grid window holding the earliest work, or
                    // drain straight to the deadline.
                    let l = l.as_ps();
                    let target = match next_work {
                        Some(t) if t <= deadline => SimTime(((t.as_ps() - 1) / l) * l),
                        _ => deadline,
                    };
                    self.skipped += windows_between(self.horizon, target, l);
                    self.horizon = target;
                    continue;
                }
            }
            let grid = self.grid_index();
            let opens = grid.is_none() || grid != self.open;
            return Some(Window {
                opens,
                due: self.grid_line().unwrap_or(end),
                end,
                parity: self.parity ^ opens as usize,
            });
        }
        None
    }

    /// Every shard has executed `window`, which started at the horizon.
    fn complete(&mut self, window: Window) {
        self.open = self.grid_index();
        self.parity = window.parity;
        self.horizon = window.end;
        self.epochs += 1;
    }

    /// Index of the grid window an epoch starting at the horizon runs
    /// in; `None` without a grid.
    fn grid_index(&self) -> Option<u64> {
        Some(self.horizon.as_ps() / self.lookahead?.as_ps())
    }

    /// The next `lookahead`-grid line after the horizon. Grid alignment
    /// (rather than `horizon + L`) makes the windows independent of the
    /// `run_until` call pattern.
    fn grid_line(&self) -> Option<SimTime> {
        Some(SimTime((self.grid_index()? + 1) * self.lookahead?.as_ps()))
    }

    /// End of the epoch starting at the current horizon: the next grid
    /// line, clamped to the caller's deadline.
    fn window_end(&self, deadline: SimTime) -> SimTime {
        self.grid_line().map_or(deadline, |g| g.min(deadline))
    }
}

/// A boundary message waiting in its destination's inbox. Ordered so
/// that a max-heap pops the smallest `(at, seq)` first.
struct Due {
    seq: u64,
    msg: BoundaryMsg,
}

impl Due {
    fn at(&self) -> SimTime {
        self.msg.at
    }
}

impl Ord for Due {
    fn cmp(&self, other: &Due) -> Ordering {
        (other.at(), other.seq).cmp(&(self.at(), self.seq))
    }
}
impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Due) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for Due {
    fn eq(&self, other: &Due) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for Due {}

/// Everything one source shard sent during the windows of one parity,
/// by destination shard. Only the source's worker touches it while such
/// a window runs and only destinations' workers during the next, so the
/// lock is never waited on for longer than a buffer swap.
type MailRow = Mutex<Vec<Vec<BoundaryMsg>>>;

fn mail_row(row: &MailRow) -> MutexGuard<'_, Vec<Vec<BoundaryMsg>>> {
    row.lock()
        .expect("no worker panics while it holds a mail row")
}

/// The exchange side of one shard, owned by the shard's worker for the
/// length of a `run_until` call.
#[derive(Default)]
struct Lane {
    /// Messages addressed to this shard and not yet due.
    inbox: BinaryHeap<Due>,
    /// Stamp for the next absorbed message: absorption order is
    /// (window, source shard, outbox index), the tie-break among
    /// messages due at the same instant.
    next_seq: u64,
    /// Empty buffer swapped against a mail slot to drain it.
    scratch: Vec<BoundaryMsg>,
    /// Messages this shard has routed to others.
    sent: u64,
    /// Earliest timestamp this shard has routed in the latest grid
    /// window: mail its destinations absorb when the next one opens,
    /// and until then work only the sender knows of.
    in_flight: Option<SimTime>,
    exchange_nanos: u64,
    wait_nanos: u64,
    /// When the shard finished its latest window of this call.
    finished: Option<Instant>,
}

impl Lane {
    /// Move what every source sent to shard `dst` from the mail `rows`
    /// into the inbox, in source order.
    fn absorb(&mut self, dst: usize, rows: &[MailRow]) {
        for row in rows {
            {
                let mut row = mail_row(row);
                if row[dst].is_empty() {
                    continue;
                }
                std::mem::swap(&mut row[dst], &mut self.scratch);
            }
            for msg in self.scratch.drain(..) {
                self.inbox.push(Due {
                    seq: self.next_seq,
                    msg,
                });
                self.next_seq += 1;
            }
        }
    }

    /// Inject every inbox packet timestamped at or before `due` into
    /// `world`, as an ordinary arrival event at its precomputed time
    /// (always in the world's future — the lookahead guarantee).
    fn deliver(&mut self, world: &mut World, due: SimTime) {
        while self.inbox.peek().is_some_and(|d| d.at() <= due) {
            let BoundaryMsg { at, to, pkt } = self.inbox.pop().expect("peeked").msg;
            world.inject_arrival(at, to.node, to.port, pkt);
        }
    }

    /// Drain `world`'s outbox into this shard's mail `row`, by
    /// destination and in issue order.
    fn route(&mut self, world: &mut World, row: &MailRow) {
        let outbox = world.drain_outbox();
        if outbox.len() == 0 {
            return;
        }
        self.sent += outbox.len() as u64;
        let mut row = mail_row(row);
        for msg in outbox {
            self.in_flight = Some(self.in_flight.map_or(msg.at, |t| t.min(msg.at)));
            row[msg.to.shard as usize].push(msg);
        }
    }
}

/// Spins on the hand-off before a waiter starts yielding its core. The
/// spin covers the release → first-arrival latency of a balanced epoch
/// (well under a microsecond); after it the waiter `yield_now`s until
/// it is served, which keeps it on its core through ordinary imbalance
/// without a futex round trip and gives the core away whenever anybody
/// else — a peer on an oversubscribed machine, another process — wants
/// it. There is no sleep stage: measured, it bought nothing on free
/// cores or with more workers than cores (EXPERIMENTS.md PERF-24).
const SPINS: u32 = 128;

/// No work: the `next_work` slot value for a drained worker.
const IDLE: u64 = u64::MAX;

/// The epoch hand-off between the coordinator (worker 0, the calling
/// thread) and its helpers, alive for one `run_until` call.
struct Handoff {
    /// The window being executed; `None` tells the helpers to leave.
    /// Written only between an arrival of every helper and the next
    /// release.
    window: Mutex<Option<Window>>,
    /// Windows released so far — the generation helpers wait on.
    released: AtomicU64,
    /// Helpers that finished the released window.
    arrived: AtomicUsize,
    /// Per worker: earliest time any of its shards has work, in ps.
    next_work: Vec<AtomicU64>,
    /// A worker unwound; nobody waits any longer.
    poisoned: AtomicBool,
}

impl Handoff {
    fn new(workers: usize) -> Handoff {
        Handoff {
            window: Mutex::new(None),
            released: AtomicU64::new(0),
            arrived: AtomicUsize::new(0),
            next_work: (0..workers).map(|_| AtomicU64::new(IDLE)).collect(),
            poisoned: AtomicBool::new(false),
        }
    }

    fn window(&self) -> MutexGuard<'_, Option<Window>> {
        self.window
            .lock()
            .expect("no worker panics while it holds the window")
    }

    /// Coordinator: hand `window` to the helpers (`None`: stop).
    fn release(&self, window: Option<Window>) {
        *self.window() = window;
        self.arrived.store(0, SeqCst);
        self.released.fetch_add(1, SeqCst);
    }

    /// Helper: wait for release number `seen + 1`. `None` means leave —
    /// the run is over or a worker panicked.
    fn await_release(&self, seen: u64) -> Option<Window> {
        if !self.wait_until(|| self.released.load(SeqCst) > seen) {
            return None;
        }
        *self.window()
    }

    /// Worker `id` finished the released window and next has work at
    /// `next_work`.
    fn arrive(&self, id: usize, next_work: u64) {
        self.next_work[id].store(next_work, SeqCst);
        if id != 0 {
            self.arrived.fetch_add(1, SeqCst);
        }
    }

    /// Coordinator: wait for every helper's arrival, then return the
    /// earliest work over all workers. `Err` if a worker panicked.
    fn await_arrivals(&self) -> Result<Option<SimTime>, ()> {
        let helpers = self.next_work.len() - 1;
        if !self.wait_until(|| self.arrived.load(SeqCst) == helpers) {
            return Err(());
        }
        let next = self.next_work.iter().map(|t| t.load(SeqCst)).min();
        Ok(next.filter(|&t| t != IDLE).map(SimTime))
    }

    /// Wait until `ready()`: spin, then yield. Returns `false` if the
    /// hand-off was poisoned instead.
    fn wait_until(&self, ready: impl Fn() -> bool) -> bool {
        let mut spins = 0;
        loop {
            if self.poisoned.load(SeqCst) {
                return false;
            }
            if ready() {
                return true;
            }
            if spins < SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Held by every worker while it runs windows: if the worker unwinds (a
/// node handler panicked), the others must stop waiting for it.
struct PoisonOnUnwind<'a>(&'a Handoff);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, SeqCst);
        }
    }
}

/// One worker's share of the set for one `run_until` call: a contiguous
/// range of shards, each with its world, exchange lane and busy clock.
struct Worker<'a> {
    id: usize,
    /// Shard index of `worlds[0]`.
    first: usize,
    worlds: &'a mut [World],
    lanes: &'a mut [Lane],
    busy_nanos: &'a mut [u64],
}

impl Worker<'_> {
    /// Execute `window` on every owned shard in shard order: absorb and
    /// inject the shard's mail, advance its world, route its outbox.
    /// `released_at` is when this worker saw the window released.
    /// Returns the earliest time any owned shard next has work, in ps.
    fn run_window(
        &mut self,
        window: Window,
        mail: &[Vec<MailRow>; 2],
        released_at: Instant,
    ) -> u64 {
        let mut next_work = IDLE;
        let mut t0 = released_at;
        for (i, (world, lane)) in self
            .worlds
            .iter_mut()
            .zip(self.lanes.iter_mut())
            .enumerate()
        {
            let shard = self.first + i;
            if let Some(finished) = lane.finished.take() {
                lane.wait_nanos += nanos(finished, released_at);
            }
            if window.opens {
                // What this shard sent in the previous grid window is
                // being absorbed right now, into inboxes that report it
                // from here on.
                lane.in_flight = None;
                lane.absorb(shard, &mail[window.parity ^ 1]);
                lane.deliver(world, window.due);
            }
            let t1 = Instant::now();
            world.run_until(window.end);
            let t2 = Instant::now();
            lane.route(world, &mail[window.parity][shard]);
            let queued = world.next_event_time();
            let inboxed = lane.inbox.peek().map(Due::at);
            for t in [lane.in_flight, queued, inboxed].into_iter().flatten() {
                next_work = next_work.min(t.as_ps());
            }
            let t3 = Instant::now();
            self.busy_nanos[i] += nanos(t1, t2);
            lane.exchange_nanos += nanos(t0, t1) + nanos(t2, t3);
            lane.finished = Some(t3);
            t0 = t3;
        }
        next_work
    }

    /// A helper's whole life: run windows as they are released.
    fn help(mut self, hand: &Handoff, mail: &[Vec<MailRow>; 2]) {
        let _poison = PoisonOnUnwind(hand);
        let mut seen = 0;
        while let Some(window) = hand.await_release(seen) {
            seen += 1;
            let next_work = self.run_window(window, mail, Instant::now());
            hand.arrive(self.id, next_work);
        }
        self.leave();
    }

    /// The call is over: the wait for a window that never came is not a
    /// barrier wait.
    fn leave(self) {
        for lane in self.lanes {
            lane.finished = None;
        }
    }
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// Cut the shards into `workers` contiguous ranges whose sizes differ
/// by at most one.
fn crew<'a>(
    mut worlds: &'a mut [World],
    mut lanes: &'a mut [Lane],
    mut busy_nanos: &'a mut [u64],
    workers: usize,
) -> Vec<Worker<'a>> {
    let shards = worlds.len();
    let mut first = 0;
    (0..workers)
        .map(|id| {
            let len = (id + 1) * shards / workers - first;
            let (w, rest) = std::mem::take(&mut worlds).split_at_mut(len);
            worlds = rest;
            let (l, rest) = std::mem::take(&mut lanes).split_at_mut(len);
            lanes = rest;
            let (b, rest) = std::mem::take(&mut busy_nanos).split_at_mut(len);
            busy_nanos = rest;
            let worker = Worker {
                id,
                first,
                worlds: w,
                lanes: l,
                busy_nanos: b,
            };
            first += len;
            worker
        })
        .collect()
}

/// A set of per-shard [`World`]s advanced in conservative-lookahead
/// epochs with deterministic boundary-message exchange. See the module
/// docs for the runtime and the safety and determinism arguments.
pub struct ShardedWorld {
    worlds: Vec<World>,
    /// Per-shard exchange state (index = shard).
    lanes: Vec<Lane>,
    /// Boundary messages in flight between a source's outbox and its
    /// destination's inbox: `mail[parity][source]`, see [`MailRow`].
    mail: [Vec<MailRow>; 2],
    pacer: Pacer,
    /// Per-shard nanoseconds inside `World::run_until`.
    busy_nanos: Vec<u64>,
    /// Workers a threaded run uses — a property of the machine:
    /// `min(shards, available_parallelism)`, read once at construction.
    workers: usize,
    threaded: bool,
}

impl ShardedWorld {
    /// Wrap per-shard worlds (index = shard id). Derives the lookahead
    /// from the worlds' cross-shard links and offsets each world's
    /// packet-id allocator into its shard namespace — so construction
    /// must happen before any packet is allocated.
    ///
    /// Panics if no world is supplied, or if boundary links exist with
    /// zero propagation delay (a zero lookahead would make the window
    /// grid degenerate).
    pub fn new(worlds: Vec<World>) -> ShardedWorld {
        assert!(!worlds.is_empty(), "at least one shard world required");
        let mut worlds = worlds;
        for (s, w) in worlds.iter_mut().enumerate() {
            w.set_packet_id_base((s as u64) << PACKET_ID_SHARD_SHIFT);
        }
        let lookahead = worlds
            .iter()
            .filter_map(|w| w.min_remote_propagation())
            .min();
        if let Some(l) = lookahead {
            assert!(
                l > SimTime::ZERO,
                "cross-shard links must have nonzero propagation (conservative lookahead)"
            );
        }
        let n = worlds.len();
        let rows = || {
            (0..n)
                .map(|_| Mutex::new((0..n).map(|_| Vec::new()).collect()))
                .collect()
        };
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        ShardedWorld {
            worlds,
            lanes: (0..n).map(|_| Lane::default()).collect(),
            mail: [rows(), rows()],
            pacer: Pacer {
                lookahead,
                horizon: SimTime::ZERO,
                epochs: 0,
                skipped: 0,
                open: None,
                parity: 0,
            },
            busy_nanos: vec![0; n],
            workers: n.min(cores),
            threaded: n > 1,
        }
    }

    /// Spread the shards over worker threads (the default for
    /// multi-shard sets) or run them all on the caller's thread — the
    /// same epoch loop with one worker. Results are byte-identical
    /// either way — this is the differential-testing knob the
    /// determinism tests sweep.
    pub fn set_threaded(&mut self, threaded: bool) {
        self.threaded = threaded;
    }

    /// Worker threads `run_until` uses, the caller's included.
    fn worker_count(&self) -> usize {
        if self.threaded {
            self.workers
        } else {
            1
        }
    }

    /// Advance all shards to `deadline`, running exchange epochs as
    /// needed. Boundary messages timestamped beyond `deadline` stay
    /// pending for the next call — exactly as an in-queue event beyond
    /// the deadline would stay pending in a single world.
    ///
    /// Panics if a node handler panics, whichever worker ran it.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_with_workers(deadline, self.worker_count());
    }

    /// [`ShardedWorld::run_until`] on exactly `workers` threads
    /// (clamped to `1..=shards`), whatever the machine has. The worker
    /// count never changes a result; the unit tests call this to prove
    /// that, oversubscribed counts included.
    fn run_with_workers(&mut self, deadline: SimTime, workers: usize) {
        if let [world] = &mut self.worlds[..] {
            // Degenerate exchange: one shard, no boundary, no epochs.
            // The world sees the exact same `run_until` it would
            // outside the wrapper.
            let t0 = Instant::now();
            world.run_until(deadline);
            self.busy_nanos[0] += nanos(t0, Instant::now());
            debug_assert_eq!(
                world.drain_outbox().len(),
                0,
                "boundary messages with one shard"
            );
            // Like `World::run_until`, an earlier deadline is a no-op:
            // the clock never moves back.
            self.pacer.horizon = self.pacer.horizon.max(deadline);
            return;
        }
        let ShardedWorld {
            worlds,
            lanes,
            mail,
            pacer,
            busy_nanos,
            ..
        } = self;
        let mail = &*mail;
        // Work the caller queued between calls counts; after that the
        // workers report it window by window.
        let queued = worlds.iter_mut().filter_map(World::next_event_time);
        let inboxed = lanes.iter().filter_map(|l| l.inbox.peek().map(Due::at));
        let in_flight = lanes.iter().filter_map(|l| l.in_flight);
        let next_work = queued.chain(inboxed).chain(in_flight).min();
        // A call that only skips (or is already there) starts nobody.
        let Some(first) = pacer.next_window(deadline, next_work) else {
            return;
        };
        let hand = &Handoff::new(workers.clamp(1, worlds.len()));
        let mut crew = crew(worlds, lanes, busy_nanos, hand.next_work.len()).into_iter();
        let mut me = crew.next().expect("at least one worker");
        std::thread::scope(|scope| {
            // Before the first spawn: a failed spawn panics, and the
            // helpers already started must not wait for a release.
            let _poison = PoisonOnUnwind(hand);
            let helpers: Vec<_> = crew
                .map(|worker| scope.spawn(move || worker.help(hand, mail)))
                .collect();
            let mut window = Some(first);
            while let Some(w) = window {
                hand.release(Some(w));
                let mine = me.run_window(w, mail, Instant::now());
                hand.arrive(me.id, mine);
                let Ok(next_work) = hand.await_arrivals() else {
                    break;
                };
                pacer.complete(w);
                window = pacer.next_window(deadline, next_work);
            }
            hand.release(None);
            me.leave();
            for helper in helpers {
                if let Err(panic) = helper.join() {
                    resume_unwind(panic);
                }
            }
        });
    }

    /// Global dispatch digest ([`merged_digest`] over the shards).
    pub fn dispatch_digest(&self) -> u64 {
        merged_digest(&self.worlds)
    }

    /// Total events dispatched across all shards.
    pub fn events_processed(&self) -> u64 {
        self.worlds.iter().map(|w| w.events_processed()).sum()
    }

    /// Snapshot of the exchange bookkeeping: epochs executed (0 for
    /// single-shard runs — there is no exchange to run), grid windows
    /// the pacer jumped over, and boundary messages carried so far.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            epochs_executed: self.pacer.epochs,
            epochs_skipped: self.pacer.skipped,
            boundary_messages: self.lanes.iter().map(|l| l.sent).sum(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.worlds.len()
    }

    /// Per-shard wall-clock spent inside `run_until`, nanoseconds —
    /// the load-balance signal the scale bench reports.
    pub fn shard_wall_nanos(&self) -> &[u64] {
        &self.busy_nanos
    }

    /// Where the wall-clock of the runs so far went, per shard: busy,
    /// waiting at the barrier, exchanging.
    pub fn timing(&self) -> ShardTiming {
        ShardTiming {
            workers: self.worker_count(),
            busy_nanos: self.busy_nanos.clone(),
            barrier_wait_nanos: self.lanes.iter().map(|l| l.wait_nanos).collect(),
            exchange_nanos: self.lanes.iter().map(|l| l.exchange_nanos).collect(),
        }
    }

    /// The exchange lookahead (min cross-shard propagation), if any
    /// boundary links exist.
    pub fn lookahead(&self) -> Option<SimTime> {
        self.pacer.lookahead
    }

    /// Common simulated time all shards have reached.
    pub fn now(&self) -> SimTime {
        self.pacer.horizon
    }

    /// Borrow shard `i`'s world.
    pub fn world(&self, i: usize) -> &World {
        &self.worlds[i]
    }

    /// Mutably borrow shard `i`'s world (wiring, node inspection).
    pub fn world_mut(&mut self, i: usize) -> &mut World {
        &mut self.worlds[i]
    }
}

/// Number of windows an epoch per window would execute to move the
/// horizon from `from` to `to`: one per grid line crossed, plus the
/// (possibly partial) window reaching `to`. `from` is either
/// grid-aligned or a previous deadline; either way the first window
/// ends at the next grid line after `⌊from/l⌋·l`.
fn windows_between(from: SimTime, to: SimTime, l: u64) -> u64 {
    let base = (from.as_ps() / l) * l;
    (to.as_ps() - base).div_ceil(l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Ctx, LinkSpec, Node, NodeId, PortId, RemotePort};
    use rocescale_packet::{EthMeta, MacAddr, Packet, PacketKind};
    use std::any::Any;

    fn spec() -> LinkSpec {
        LinkSpec {
            rate_bps: 40_000_000_000,
            propagation: SimTime::from_nanos(500),
        }
    }

    fn pkt(id: u64) -> Packet {
        Packet::new(
            id,
            EthMeta {
                src: MacAddr::from_id(1),
                dst: MacAddr::from_id(2),
                vlan: None,
            },
            None,
            PacketKind::Raw {
                label: 7,
                size: 1000,
            },
            0,
        )
    }

    /// Sends `to_send` packets on port 0 at a fixed cadence.
    struct Pinger {
        to_send: u32,
        sent: u32,
        interval: SimTime,
        max_seen_id: u64,
    }

    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(self.interval, 0);
        }
        fn on_packet(&mut self, _port: PortId, pkt: Packet, _ctx: &mut Ctx<'_>) {
            self.max_seen_id = self.max_seen_id.max(pkt.id);
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
            if self.sent >= self.to_send {
                return;
            }
            let id = ctx.next_packet_id();
            if ctx.transmit(PortId(0), pkt(id)).is_ok() {
                self.sent += 1;
            }
            ctx.set_timer(self.interval, 0);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Counts arrivals and echoes every other packet back out port 0.
    struct Counter {
        received: u64,
        echo: bool,
        last_at: SimTime,
    }

    impl Node for Counter {
        fn on_packet(&mut self, _port: PortId, p: Packet, ctx: &mut Ctx<'_>) {
            self.received += 1;
            self.last_at = ctx.now();
            if self.echo && self.received.is_multiple_of(2) {
                // Freshly allocated id: exercises the echoing shard's
                // packet-id namespace.
                let id = ctx.next_packet_id();
                debug_assert_ne!(id, p.id);
                let _ = ctx.transmit(PortId(0), pkt(id));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A pinger sending `to_send` packets every 700 ns.
    fn pinger(to_send: u32) -> Box<Pinger> {
        Box::new(Pinger {
            to_send,
            sent: 0,
            interval: SimTime::from_nanos(700),
            max_seen_id: 0,
        })
    }

    fn counter(echo: bool) -> Box<Counter> {
        Box::new(Counter {
            received: 0,
            echo,
            last_at: SimTime::ZERO,
        })
    }

    /// The pair below in one world — pinger `NodeId(0)`, counter
    /// `NodeId(1)` — the reference the exchange has to reproduce.
    fn one_world_pair(to_send: u32) -> World {
        let mut w = World::new(11);
        let pinger = w.add_node(pinger(to_send));
        let counter = w.add_node(counter(true));
        w.connect(pinger, PortId(0), counter, PortId(0), spec());
        w
    }

    /// Two shards wired by one boundary link: shard 0 holds the pinger,
    /// shard 1 the (echoing) counter.
    fn two_shard_pair(to_send: u32) -> ShardedWorld {
        let mut a = World::new(11);
        let pinger = a.add_node(pinger(to_send));
        a.connect_remote(
            pinger,
            PortId(0),
            spec(),
            RemotePort {
                shard: 1,
                node: NodeId(0),
                port: PortId(0),
            },
        );
        let mut b = World::new(12);
        let counter = b.add_node(counter(true));
        b.connect_remote(
            counter,
            PortId(0),
            spec(),
            RemotePort {
                shard: 0,
                node: NodeId(0),
                port: PortId(0),
            },
        );
        ShardedWorld::new(vec![a, b])
    }

    #[test]
    fn lookahead_is_min_remote_propagation() {
        let sw = two_shard_pair(1);
        assert_eq!(sw.lookahead(), Some(SimTime::from_nanos(500)));
        assert_eq!(sw.shard_count(), 2);
    }

    #[test]
    fn packets_cross_the_boundary_and_echo_back() {
        let mut sw = two_shard_pair(20);
        sw.run_until(SimTime::from_micros(100));
        let counter: &Counter = sw.world(1).node(NodeId(0));
        assert_eq!(counter.received, 20, "all pings crossed");
        let pinger: &Pinger = sw.world(0).node(NodeId(0));
        assert_eq!(pinger.sent, 20);
        // 20 pings + 10 echoes crossed the exchange.
        let st = sw.stats();
        assert_eq!(st.boundary_messages, 30);
        assert!(st.epochs_executed > 0);
        // First ping: timer at 700 ns + 200 ns serialization + 500 ns
        // propagation = 1.4 µs; last at 700*20 + 200 + 500.
        assert_eq!(counter.last_at, SimTime::from_nanos(700 * 20 + 200 + 500));
    }

    #[test]
    fn threaded_matches_serial_byte_for_byte() {
        let mut serial = two_shard_pair(40);
        serial.set_threaded(false);
        let mut threaded = two_shard_pair(40);
        threaded.set_threaded(true);
        // Chunked vs one-shot drive must not matter either: drive the
        // serial run in uneven chunks.
        for us in [13u64, 57, 100, 250] {
            serial.run_until(SimTime::from_micros(us));
        }
        threaded.run_until(SimTime::from_micros(250));
        assert_eq!(serial.dispatch_digest(), threaded.dispatch_digest());
        assert_eq!(serial.events_processed(), threaded.events_processed());
        assert_eq!(serial.stats(), threaded.stats());
        let a: &Counter = serial.world(1).node(NodeId(0));
        let b: &Counter = threaded.world(1).node(NodeId(0));
        assert_eq!((a.received, a.last_at), (b.received, b.last_at));
    }

    #[test]
    fn skipping_matches_the_pair_in_one_world() {
        // The pinger goes quiet after 20 sends (~15 µs of traffic); the
        // remaining ~85 µs of grid windows have no work and are skipped.
        // One world holding both nodes is the reference: the exchange
        // dispatches the same events and delivers every packet at the
        // same instant, and its executed and skipped windows add up to
        // the 200 windows of 500 ns in (0, 100 µs].
        let dur = SimTime::from_micros(100);
        let mut one = one_world_pair(20);
        one.run_until(dur);
        let mut sw = two_shard_pair(20);
        sw.run_until(dur);

        assert_eq!(sw.events_processed(), one.events_processed());
        let a: &Counter = one.node(NodeId(1));
        let b: &Counter = sw.world(1).node(NodeId(0));
        assert_eq!((a.received, a.last_at), (b.received, b.last_at));
        let st = sw.stats();
        assert_eq!(st.boundary_messages, 30, "20 pings and 10 echoes");
        assert!(st.epochs_skipped > 0, "the quiet tail is skipped");
        assert_eq!(st.epochs_executed + st.epochs_skipped, 200);
    }

    #[test]
    fn skipping_is_invariant_to_the_drive_pattern() {
        // Grid-aligned chunk boundaries: the skip bookkeeping (not just
        // the physics) must match a one-shot drive.
        let mut chunked = two_shard_pair(20);
        for us in [13u64, 57, 100, 250] {
            chunked.run_until(SimTime::from_micros(us));
        }
        let mut oneshot = two_shard_pair(20);
        oneshot.run_until(SimTime::from_micros(250));
        assert_eq!(chunked.stats(), oneshot.stats());
        assert_eq!(chunked.dispatch_digest(), oneshot.dispatch_digest());
        assert_eq!(chunked.events_processed(), oneshot.events_processed());
    }

    #[test]
    fn a_timer_inside_a_quiet_span_forces_its_window_to_execute() {
        // Drain the traffic, then drop a bare timer into shard 1 deep
        // inside what would otherwise be one long skipped span: exactly
        // the window holding it executes — one more than without it —
        // and the run dispatches what one world holding both nodes does.
        let run = |timer: bool| {
            let (mut sw, mut one) = (two_shard_pair(5), one_world_pair(5));
            sw.run_until(SimTime::from_micros(50));
            one.run_until(SimTime::from_micros(50));
            if timer {
                let at = SimTime::from_micros(77);
                sw.world_mut(1).schedule_timer(at, NodeId(0), 9);
                one.schedule_timer(at, NodeId(1), 9);
            }
            sw.run_until(SimTime::from_micros(100));
            one.run_until(SimTime::from_micros(100));
            assert_eq!(sw.events_processed(), one.events_processed());
            let st = sw.stats();
            assert_eq!(st.epochs_executed + st.epochs_skipped, 200);
            st
        };
        let (quiet, timed) = (run(false), run(true));
        assert_eq!(timed.epochs_executed, quiet.epochs_executed + 1);
        assert!(timed.epochs_skipped > 0);
    }

    #[test]
    fn single_shard_is_the_plain_world() {
        let mut plain = one_world_pair(15);
        plain.run_until(SimTime::from_micros(80));
        let mut sharded = ShardedWorld::new(vec![one_world_pair(15)]);
        sharded.run_until(SimTime::from_micros(80));
        assert_eq!(sharded.dispatch_digest(), plain.dispatch_digest());
        assert_eq!(sharded.events_processed(), plain.events_processed());
        assert_eq!(
            sharded.stats(),
            ShardStats::default(),
            "no exchange with one shard"
        );
    }

    #[test]
    fn an_earlier_deadline_never_moves_the_clock_back() {
        let (late, early) = (SimTime::from_micros(10), SimTime::from_micros(5));
        let mut plain = World::new(11);
        plain.run_until(late);
        plain.run_until(early);
        assert_eq!(plain.now(), late);
        for mut sw in [ShardedWorld::new(vec![World::new(11)]), two_shard_pair(20)] {
            sw.run_until(late);
            sw.run_until(early);
            assert_eq!(sw.now(), plain.now(), "{} shard(s)", sw.shard_count());
        }
    }

    #[test]
    fn shard_packet_ids_never_collide() {
        let mut sw = two_shard_pair(4);
        sw.run_until(SimTime::from_micros(20));
        // Shard 1's allocator started at 1 << 48, so every echo the
        // pinger received back carries an id in that namespace — while
        // shard 0's own ids (base 0) stayed small. No collisions.
        let base = 1u64 << PACKET_ID_SHARD_SHIFT;
        let counter: &Counter = sw.world(1).node(NodeId(0));
        assert_eq!(counter.received, 4);
        let pinger: &Pinger = sw.world(0).node(NodeId(0));
        assert!(
            pinger.max_seen_id >= base,
            "echo ids must come from shard 1's namespace (saw {:#x})",
            pinger.max_seen_id
        );
    }

    /// `n` shards in a ring: shard `i`'s pinger feeds shard `i+1`'s
    /// echoing counter, so every shard both sends to and hears from two
    /// different neighbours (for `n ≥ 3`) — same-instant arrivals from
    /// two sources are what the inbox order has to get right. The cable
    /// into shard 0 is 700 ns long and the one out of it 600 ns (the
    /// rest 500 ns, the lookahead), which makes shard n-1's ping k+1 and
    /// shard 1's echo of ping k land on shard 0 at the same picosecond
    /// although the ping left 100 ns earlier: the later message comes
    /// from the lower shard.
    fn ring(n: u32, to_send: u32) -> ShardedWorld {
        // The link from shard `from` to shard `from + 1`.
        let link = |from: u32| LinkSpec {
            propagation: SimTime::from_nanos(match from {
                0 => 600,
                f if f == n - 1 => 700,
                _ => 500,
            }),
            ..spec()
        };
        let worlds = (0..n)
            .map(|i| {
                let mut w = World::new(100 + i as u64);
                let pinger = w.add_node(pinger(to_send));
                let counter = w.add_node(counter(true));
                let remote = |shard: u32, node: NodeId| RemotePort {
                    shard,
                    node,
                    port: PortId(0),
                };
                w.connect_remote(pinger, PortId(0), link(i), remote((i + 1) % n, counter));
                let back = (i + n - 1) % n;
                w.connect_remote(counter, PortId(0), link(back), remote(back, pinger));
                w
            })
            .collect();
        ShardedWorld::new(worlds)
    }

    #[test]
    fn the_worker_count_never_changes_a_result() {
        // 4 shards over 1..=4 workers, 5 over 1..=5 (ranges of uneven
        // size) and 9, which clamps to one worker per shard, 8 over 1,
        // 2 and 8 — more threads than most test machines have cores:
        // same digest, events and exchange bookkeeping as the
        // single-worker run, under a chunked drive.
        let run = |shards: u32, workers: usize| {
            let mut sw = ring(shards, 30);
            for us in [13u64, 57, 100] {
                sw.run_with_workers(SimTime::from_micros(us), workers);
            }
            let received: Vec<u64> = (0..shards as usize)
                .map(|s| sw.world(s).node::<Counter>(NodeId(1)).received)
                .collect();
            (
                sw.dispatch_digest(),
                sw.events_processed(),
                sw.stats(),
                received,
            )
        };
        for (shards, counts) in [(4, &[2, 3, 4][..]), (5, &[2, 3, 4, 5, 9]), (8, &[2, 8])] {
            let one = run(shards, 1);
            assert_eq!(one.3, vec![30; shards as usize], "every ping crossed");
            assert_eq!(one.2.epochs_executed + one.2.epochs_skipped, 200);
            for &workers in counts {
                assert_eq!(
                    run(shards, workers),
                    one,
                    "{shards} shards, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn more_workers_than_cores_stay_within_a_factor_of_a_fitting_crew() {
        // 8 workers are four times what a 2-core machine runs at once.
        // A waiter that only spun would hold its core for a scheduler
        // slice per barrier while the workers with events to run queue
        // behind it; one that yields costs a few context switches. The
        // stated factor: over 2 804 epochs the oversubscribed run
        // takes at most 25× the 2-worker one (best of three each, runs
        // of ~60 ms against which a lost slice is small). Measured on
        // the 2-core container this was written on: 2.1× (120 ms
        // against 56 ms); with the yield taken out of the wait the
        // 8-worker run was stopped after two minutes.
        let best = |workers: usize| {
            let run = || {
                let mut sw = ring(8, 2000);
                let t0 = Instant::now();
                sw.run_with_workers(SimTime::from_micros(1500), workers);
                let st = sw.stats();
                assert_eq!((st.epochs_executed, st.epochs_skipped), (2804, 196));
                t0.elapsed()
            };
            (0..3).map(|_| run()).min().expect("three runs")
        };
        let (fitting, oversubscribed) = (best(2), best(8));
        assert!(
            oversubscribed <= fitting * 25,
            "8 workers took {oversubscribed:?}, 2 workers {fitting:?}"
        );
    }

    #[test]
    fn deadlines_off_the_grid_never_change_a_result() {
        // In the ring a shard hears from both neighbours at the same
        // picosecond all the time (an echo lands when the next ping
        // does), so a cut window has to keep the whole window's
        // source-major numbering, not number its halves one after the
        // other. Steps of 333 ns and 1.000 007 µs against the 500 ns
        // grid, on one and three workers.
        let end = SimTime::from_micros(60);
        let run = |step_ps: Option<u64>, workers: usize| {
            let mut sw = ring(5, 40);
            let mut t = step_ps.unwrap_or(end.as_ps());
            while t < end.as_ps() {
                sw.run_with_workers(SimTime(t), workers);
                t += step_ps.expect("stepping");
            }
            sw.run_with_workers(end, workers);
            (
                sw.dispatch_digest(),
                sw.events_processed(),
                sw.stats().boundary_messages,
            )
        };
        let one_shot = run(None, 1);
        assert_eq!(one_shot.2, 5 * (40 + 20), "pings and echoes crossed");
        for workers in [1, 3] {
            for step_ps in [333_000, 1_000_007] {
                assert_eq!(
                    run(Some(step_ps), workers),
                    one_shot,
                    "{step_ps} ps steps, {workers} workers"
                );
            }
        }
    }

    /// Sends one packet on port 0 at 700 ns and sets a bare timer for
    /// 900 ns; nothing afterwards.
    struct OneShot;

    impl Node for OneShot {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimTime::from_nanos(700), 0);
            ctx.set_timer(SimTime::from_nanos(900), 1);
        }
        fn on_packet(&mut self, _port: PortId, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
            if token == 0 {
                let id = ctx.next_packet_id();
                ctx.transmit(PortId(0), pkt(id)).expect("idle port");
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn mail_left_by_a_cut_window_is_not_skipped_over() {
        // The only boundary message of the run is sent at 700 ns, in
        // grid window (500, 1000]; a deadline at 800 ns cuts the window
        // and the call ends with the message in the mail. The next call
        // finishes the window — a local timer at 900 ns, nothing routed
        // — and then every queue is empty: the message (due at 1.4 µs)
        // is all the work there is, and the pacer has to know about it.
        let run = |deadlines: &[u64]| {
            let mut a = World::new(11);
            let sender = a.add_node(Box::new(OneShot));
            let far = |shard: u32| RemotePort {
                shard,
                node: NodeId(0),
                port: PortId(0),
            };
            a.connect_remote(sender, PortId(0), spec(), far(1));
            let mut b = World::new(12);
            let counter = b.add_node(counter(false));
            b.connect_remote(counter, PortId(0), spec(), far(0));
            let mut sw = ShardedWorld::new(vec![a, b]);
            for &ns in deadlines {
                sw.run_until(SimTime::from_nanos(ns));
            }
            let counter: &Counter = sw.world(1).node(NodeId(0));
            (
                (counter.received, counter.last_at),
                sw.dispatch_digest(),
                sw.events_processed(),
                sw.stats().epochs_executed + sw.stats().epochs_skipped,
            )
        };
        let one_shot = run(&[20_000]);
        assert_eq!(one_shot.0, (1, SimTime::from_nanos(1400)));
        assert_eq!(one_shot.3, 40, "the 500 ns windows in (0, 20 µs]");
        let cut = run(&[800, 20_000]);
        assert_eq!((cut.0, cut.1, cut.2), (one_shot.0, one_shot.1, one_shot.2));
        // 800 ns cuts the window (500, 1000] into two epochs.
        assert_eq!(cut.3, one_shot.3 + 1);
    }

    #[test]
    fn timing_covers_every_shard_and_reports_the_worker_count() {
        let mut sw = ring(3, 30);
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        assert_eq!(sw.timing().workers, cores.min(3));
        sw.run_until(SimTime::from_micros(50));
        let t = sw.timing();
        assert_eq!(t.busy_nanos, sw.shard_wall_nanos());
        for per_shard in [&t.busy_nanos, &t.barrier_wait_nanos, &t.exchange_nanos] {
            assert_eq!(per_shard.len(), 3);
            assert!(per_shard.iter().all(|&ns| ns > 0), "{t:?}");
        }
        sw.set_threaded(false);
        assert_eq!(sw.timing().workers, 1);
    }

    /// Panics in its timer handler at `at`.
    struct Bomb {
        at: SimTime,
    }

    impl Node for Bomb {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(self.at, 0);
        }
        fn on_packet(&mut self, _port: PortId, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {
            panic!("the bomb went off");
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Run the two-shard pair on two workers with a [`Bomb`] set for
    /// t = 3 µs in `shard`, under a watchdog that aborts the test
    /// process if `run_until` is still going after 10 s — a hang must
    /// fail the suite, not stall it.
    fn run_with_a_bomb_in(shard: usize) {
        let (done, watchdog) = std::sync::mpsc::channel::<()>();
        std::thread::spawn(move || {
            use std::sync::mpsc::RecvTimeoutError::Timeout;
            if watchdog.recv_timeout(std::time::Duration::from_secs(10)) == Err(Timeout) {
                eprintln!("run_until hung on a panicked shard");
                std::process::abort();
            }
        });
        let mut sw = two_shard_pair(1000);
        sw.world_mut(shard).add_node(Box::new(Bomb {
            at: SimTime::from_micros(3),
        }));
        sw.run_with_workers(SimTime::from_micros(100), 2);
        drop(done);
    }

    #[test]
    #[should_panic(expected = "the bomb went off")]
    fn a_panicking_helper_shard_fails_the_run_instead_of_hanging_it() {
        run_with_a_bomb_in(1);
    }

    #[test]
    #[should_panic(expected = "the bomb went off")]
    fn a_panicking_coordinator_shard_releases_its_helpers() {
        run_with_a_bomb_in(0);
    }
}
