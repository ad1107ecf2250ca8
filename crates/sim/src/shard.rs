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
//! # Determinism
//!
//! Three properties make sharded runs digest-pinnable:
//!
//! 1. **Barrier totality.** Every shard reaches the barrier before any
//!    boundary message is routed, so the inter-shard schedule is a pure
//!    function of the partition, never of thread timing.
//! 2. **Fixed merge order.** Outboxes are drained in shard order and
//!    messages stamped with a monotone exchange sequence; delivery
//!    sorts by `(time, seq)` — the same tie-break discipline the event
//!    queue itself uses.
//! 3. **Fixed digest fold.** [`ShardedWorld::dispatch_digest`] folds
//!    per-shard digests in shard order with the dispatch digest's own
//!    FNV-1a fold ([`digest_fold`]); a single-shard run degenerates to
//!    the plain world digest, which is how the golden trace re-pins
//!    under `ExecutionProfile::Sharded { shards: 1 }`.
//!
//! Worker threads therefore produce *byte-identical* results to
//! advancing the shards serially ([`ShardedWorld::set_threaded`] is a
//! differential-testing knob, not a semantic one): within an epoch the
//! shards share no state, and everything that crosses the boundary is
//! ordered at the barrier.

use std::time::Instant;

use crate::time::SimTime;
use crate::world::{digest_fold, BoundaryMsg, World};

/// Per-shard packet-id namespace: shard `s` allocates ids from
/// `s << PACKET_ID_SHARD_SHIFT`. Shard 0's base of 0 keeps its id
/// stream identical to a non-sharded world's (load-bearing for the
/// single-shard golden-digest guarantee); 2^48 ids per shard is
/// unreachable in any feasible run.
pub const PACKET_ID_SHARD_SHIFT: u32 = 48;

/// How the exchange paces its epoch cursor across the lookahead grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EpochPacing {
    /// Execute every grid window between the horizon and the deadline,
    /// busy or not. This was the only mode before adaptive skipping
    /// landed; it survives as the differential-testing reference the
    /// skipping property tests compare against.
    Dense,
    /// At each barrier, peek every shard's next event time and the
    /// earliest undelivered boundary message. When neither falls inside
    /// the next window, jump the horizon straight to the start of the
    /// grid window containing the earliest work (or to the deadline if
    /// there is none), counting the windows stepped over in
    /// [`ShardStats::epochs_skipped`].
    ///
    /// Skipping is physics-free by construction: an empty window's
    /// execution only advances per-shard clocks (no events dispatch, no
    /// RNG draws, no digest folds), delivery inside it is vacuous (the
    /// earliest pending message lies beyond the window), and collection
    /// finds empty outboxes. The conservative-lookahead safety argument
    /// is untouched — a boundary message *produced* in a window can only
    /// *land* beyond it, and no window with work is ever skipped.
    #[default]
    Adaptive,
}

/// Exchange bookkeeping snapshot: windows actually executed, windows
/// the adaptive pacer stepped over, and boundary messages carried. For
/// any fixed drive pattern, `epochs_executed + epochs_skipped` equals
/// the epoch count a [`EpochPacing::Dense`] run performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Grid windows delivered/advanced/collected.
    pub epochs_executed: u64,
    /// Grid windows the adaptive pacer jumped over without a barrier.
    pub epochs_skipped: u64,
    /// Boundary messages carried across shards.
    pub boundary_messages: u64,
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
        self.horizon
    }
}

/// Global dispatch digest of a world set: per-shard digests folded in
/// shard order with the dispatch digest's own byte fold. With one shard
/// this is *exactly* the plain world digest.
pub fn merged_digest(worlds: &[World]) -> u64 {
    let mut it = worlds.iter().map(World::dispatch_digest);
    let first = it.next().expect("at least one shard world");
    it.fold(first, digest_fold)
}

/// A set of per-shard [`World`]s advanced in conservative-lookahead
/// epochs with deterministic boundary-message exchange. See the module
/// docs for the safety and determinism arguments.
pub struct ShardedWorld {
    worlds: Vec<World>,
    /// Min propagation over all cross-shard links — the epoch window
    /// grid. `None` when no world has a remote port (independent
    /// shards, or a single shard): epochs then span the whole
    /// `run_until` deadline.
    lookahead: Option<SimTime>,
    /// Common simulated time every shard has reached.
    horizon: SimTime,
    /// Collected boundary messages not yet delivered, sorted by
    /// `(time, exchange seq)`.
    pending: Vec<(SimTime, u64, BoundaryMsg)>,
    /// Monotone stamp assigned at collection (shard order, outbox
    /// order) — the deterministic tie-break for equal-time messages.
    next_seq: u64,
    epochs: u64,
    skipped: u64,
    exchanged: u64,
    wall_nanos: Vec<u64>,
    threaded: bool,
    pacing: EpochPacing,
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
        ShardedWorld {
            worlds,
            lookahead,
            horizon: SimTime::ZERO,
            pending: Vec::new(),
            next_seq: 0,
            epochs: 0,
            skipped: 0,
            exchanged: 0,
            wall_nanos: vec![0; n],
            threaded: n > 1,
            pacing: EpochPacing::default(),
        }
    }

    /// Drive every shard's worker on its own OS thread (the default for
    /// multi-shard sets) or advance them serially on the caller's
    /// thread. Results are byte-identical either way — this is the
    /// differential-testing knob the determinism tests sweep.
    pub fn set_threaded(&mut self, threaded: bool) {
        self.threaded = threaded;
    }

    /// Choose between dense grid pacing and adaptive epoch skipping
    /// (the default). Like `set_threaded`, this is a differential knob:
    /// the two modes dispatch byte-identical event streams — only the
    /// barrier count differs.
    pub fn set_pacing(&mut self, pacing: EpochPacing) {
        self.pacing = pacing;
    }

    /// The active pacing mode.
    pub fn pacing(&self) -> EpochPacing {
        self.pacing
    }

    /// Advance all shards to `deadline`, running exchange epochs as
    /// needed. Boundary messages timestamped beyond `deadline` stay
    /// pending for the next call — exactly as an in-queue event beyond
    /// the deadline would stay pending in a single world.
    pub fn run_until(&mut self, deadline: SimTime) {
        if self.worlds.len() == 1 {
            // Degenerate exchange: one shard, no boundary, one "epoch"
            // spanning the whole call. The world sees the exact same
            // `run_until` it would outside the wrapper.
            debug_assert!(self.pending.is_empty(), "boundary messages with one shard");
            self.advance(deadline);
            self.collect();
            self.horizon = deadline;
            return;
        }
        while self.horizon < deadline {
            let we = self.window_end(deadline);
            if self.pacing == EpochPacing::Adaptive {
                if let Some(l) = self.lookahead.map(SimTime::as_ps) {
                    let next = self.next_work_time();
                    if next.is_none_or(|t| t > we) {
                        // Nothing lands in (horizon, we]: jump to the
                        // start of the grid window holding the earliest
                        // work, or drain straight to the deadline.
                        let target = match next {
                            Some(t) if t <= deadline => SimTime(((t.as_ps() - 1) / l) * l),
                            _ => deadline,
                        };
                        self.skipped += dense_steps(self.horizon, target, l);
                        self.horizon = target;
                        continue;
                    }
                }
            }
            self.deliver(we);
            self.advance(we);
            self.collect();
            self.horizon = we;
            self.epochs += 1;
        }
    }

    /// Earliest thing any shard has to do: the minimum over every
    /// shard's next queued event and the earliest undelivered boundary
    /// message. `None` means the whole set is drained.
    fn next_work_time(&mut self) -> Option<SimTime> {
        let queued = self
            .worlds
            .iter_mut()
            .filter_map(World::next_event_time)
            .min();
        let pending = self.pending.first().map(|&(at, _, _)| at);
        match (queued, pending) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// End of the epoch window starting at the current horizon: the
    /// next `lookahead`-grid line, clamped to the caller's deadline.
    /// Grid alignment (rather than `horizon + L`) makes epoch
    /// boundaries independent of the `run_until` call pattern, so
    /// chunked and one-shot drives produce identical exchanges.
    fn window_end(&self, deadline: SimTime) -> SimTime {
        match self.lookahead {
            None => deadline,
            Some(l) => {
                let l = l.as_ps();
                SimTime((self.horizon.as_ps() / l + 1) * l).min(deadline)
            }
        }
    }

    /// Route every pending message timestamped at or before `upto` into
    /// its destination shard. Packets become ordinary arrival events at
    /// their precomputed time (always in the destination's future — the
    /// lookahead guarantee). Administrative messages apply at the
    /// barrier: link flips mutate port state directly, wakes are
    /// clamped to the destination clock.
    fn deliver(&mut self, upto: SimTime) {
        let n = self.pending.partition_point(|&(at, _, _)| at <= upto);
        for (at, _, msg) in self.pending.drain(..n) {
            match msg {
                BoundaryMsg::Packet { at, to, pkt } => {
                    self.worlds[to.shard as usize].inject_arrival(at, to.node, to.port, pkt);
                }
                BoundaryMsg::LinkSet { to, up, .. } => {
                    self.worlds[to.shard as usize].apply_remote_link(to.node, to.port, up);
                }
                BoundaryMsg::Wake { to, .. } => {
                    let w = &mut self.worlds[to.shard as usize];
                    let t = at.max(w.now());
                    w.inject_port_idle(t, to.node, to.port);
                }
            }
        }
    }

    /// Advance every shard to `deadline` — in parallel on scoped worker
    /// threads, or serially. Shards share no state within a window, so
    /// the two modes are observationally identical; per-shard handler
    /// wall-clock is accumulated either way.
    fn advance(&mut self, deadline: SimTime) {
        if self.threaded && self.worlds.len() > 1 {
            std::thread::scope(|scope| {
                for (world, wall) in self.worlds.iter_mut().zip(self.wall_nanos.iter_mut()) {
                    scope.spawn(move || {
                        let t0 = Instant::now();
                        world.run_until(deadline);
                        *wall += t0.elapsed().as_nanos() as u64;
                    });
                }
            });
        } else {
            for (world, wall) in self.worlds.iter_mut().zip(self.wall_nanos.iter_mut()) {
                let t0 = Instant::now();
                world.run_until(deadline);
                *wall += t0.elapsed().as_nanos() as u64;
            }
        }
    }

    /// Drain every shard's outbox — in shard order, preserving each
    /// outbox's issue order — stamping messages with the exchange
    /// sequence, then restore the pending queue's `(time, seq)` sort.
    fn collect(&mut self) {
        for world in &mut self.worlds {
            for msg in world.take_outbox() {
                self.pending.push((msg.at(), self.next_seq, msg));
                self.next_seq += 1;
                self.exchanged += 1;
            }
        }
        self.pending.sort_by_key(|&(at, seq, _)| (at, seq));
    }

    /// Global dispatch digest ([`merged_digest`] over the shards).
    pub fn dispatch_digest(&self) -> u64 {
        merged_digest(&self.worlds)
    }

    /// Total events dispatched across all shards.
    pub fn events_processed(&self) -> u64 {
        self.worlds.iter().map(|w| w.events_processed()).sum()
    }

    /// Exchange epochs actually executed (0 for single-shard runs —
    /// there is no exchange to run). Windows the adaptive pacer jumped
    /// over are counted separately in [`ShardedWorld::epochs_skipped`].
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Grid windows the adaptive pacer stepped over without running a
    /// barrier. `epochs() + epochs_skipped()` equals the dense-grid
    /// epoch count for the same drive pattern.
    pub fn epochs_skipped(&self) -> u64 {
        self.skipped
    }

    /// Snapshot of the exchange bookkeeping.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            epochs_executed: self.epochs,
            epochs_skipped: self.skipped,
            boundary_messages: self.exchanged,
        }
    }

    /// Boundary messages carried across shards so far.
    pub fn boundary_messages(&self) -> u64 {
        self.exchanged
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.worlds.len()
    }

    /// Per-shard wall-clock spent inside `run_until`, nanoseconds —
    /// the load-balance signal the scale bench reports.
    pub fn shard_wall_nanos(&self) -> &[u64] {
        &self.wall_nanos
    }

    /// The exchange lookahead (min cross-shard propagation), if any
    /// boundary links exist.
    pub fn lookahead(&self) -> Option<SimTime> {
        self.lookahead
    }

    /// Common simulated time all shards have reached.
    pub fn now(&self) -> SimTime {
        self.horizon
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

/// Number of dense grid windows a [`EpochPacing::Dense`] drive would
/// execute to move the horizon from `from` to `to`: one per grid line
/// crossed, plus the (possibly partial) window reaching `to`. `from` is
/// either grid-aligned or a previous deadline; either way the dense
/// loop's first window ends at the next grid line after `⌊from/l⌋·l`.
fn dense_steps(from: SimTime, to: SimTime, l: u64) -> u64 {
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

    /// Two shards wired by one boundary link: shard 0 holds the pinger,
    /// shard 1 the (echoing) counter.
    fn two_shard_pair(to_send: u32) -> ShardedWorld {
        let mut a = World::new(11);
        let pinger = a.add_node(Box::new(Pinger {
            to_send,
            sent: 0,
            interval: SimTime::from_nanos(700),
            max_seen_id: 0,
        }));
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
        let counter = b.add_node(Box::new(Counter {
            received: 0,
            echo: true,
            last_at: SimTime::ZERO,
        }));
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
        assert_eq!(sw.boundary_messages(), 30);
        assert!(sw.epochs() > 0);
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
        // Chunked vs one-shot drive must not matter either (grid-aligned
        // windows): drive the serial run in uneven chunks.
        for us in [13u64, 57, 100, 250] {
            serial.run_until(SimTime::from_micros(us));
        }
        threaded.run_until(SimTime::from_micros(250));
        assert_eq!(serial.dispatch_digest(), threaded.dispatch_digest());
        assert_eq!(serial.events_processed(), threaded.events_processed());
        assert_eq!(serial.epochs(), threaded.epochs());
        assert_eq!(serial.boundary_messages(), threaded.boundary_messages());
        let a: &Counter = serial.world(1).node(NodeId(0));
        let b: &Counter = threaded.world(1).node(NodeId(0));
        assert_eq!((a.received, a.last_at), (b.received, b.last_at));
    }

    #[test]
    fn adaptive_skipping_matches_dense_byte_for_byte() {
        // The pinger goes quiet after 20 sends (~15 µs of traffic); the
        // remaining ~85 µs of grid windows have no work and must be
        // skipped without touching physics.
        let dur = SimTime::from_micros(100);
        let mut dense = two_shard_pair(20);
        dense.set_pacing(EpochPacing::Dense);
        dense.run_until(dur);
        let mut adaptive = two_shard_pair(20);
        assert_eq!(adaptive.pacing(), EpochPacing::Adaptive);
        adaptive.run_until(dur);

        assert_eq!(adaptive.dispatch_digest(), dense.dispatch_digest());
        assert_eq!(adaptive.events_processed(), dense.events_processed());
        assert_eq!(adaptive.boundary_messages(), dense.boundary_messages());
        let a: &Counter = dense.world(1).node(NodeId(0));
        let b: &Counter = adaptive.world(1).node(NodeId(0));
        assert_eq!((a.received, a.last_at), (b.received, b.last_at));

        assert_eq!(dense.epochs_skipped(), 0, "dense pacing never skips");
        assert!(
            adaptive.epochs() < dense.epochs(),
            "quiet tail must cut executed epochs ({} vs {})",
            adaptive.epochs(),
            dense.epochs()
        );
        assert!(adaptive.epochs_skipped() > 0);
        assert_eq!(
            adaptive.epochs() + adaptive.epochs_skipped(),
            dense.epochs(),
            "executed + skipped must account for every dense window"
        );
        assert_eq!(
            adaptive.stats(),
            ShardStats {
                epochs_executed: adaptive.epochs(),
                epochs_skipped: adaptive.epochs_skipped(),
                boundary_messages: adaptive.boundary_messages(),
            }
        );
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
        // inside what would otherwise be one long skipped span: the
        // window holding it must execute (events advance), and dense
        // pacing must agree byte-for-byte.
        let run = |pacing: EpochPacing| {
            let mut sw = two_shard_pair(5);
            sw.set_pacing(pacing);
            sw.run_until(SimTime::from_micros(50));
            sw.world_mut(1)
                .schedule_timer(SimTime::from_micros(77), NodeId(0), 9);
            sw.run_until(SimTime::from_micros(100));
            (sw.dispatch_digest(), sw.events_processed(), sw.stats())
        };
        let dense = run(EpochPacing::Dense);
        let adaptive = run(EpochPacing::Adaptive);
        assert_eq!(adaptive.0, dense.0);
        assert_eq!(adaptive.1, dense.1);
        assert_eq!(
            adaptive.2.epochs_executed + adaptive.2.epochs_skipped,
            dense.2.epochs_executed
        );
        assert!(adaptive.2.epochs_skipped > 0);
    }

    #[test]
    fn single_shard_is_the_plain_world() {
        let build = || {
            let mut w = World::new(11);
            let pinger = w.add_node(Box::new(Pinger {
                to_send: 15,
                sent: 0,
                interval: SimTime::from_nanos(700),
                max_seen_id: 0,
            }));
            let counter = w.add_node(Box::new(Counter {
                received: 0,
                echo: true,
                last_at: SimTime::ZERO,
            }));
            w.connect(pinger, PortId(0), counter, PortId(0), spec());
            w
        };
        let mut plain = build();
        plain.run_until(SimTime::from_micros(80));
        let mut sharded = ShardedWorld::new(vec![build()]);
        sharded.run_until(SimTime::from_micros(80));
        assert_eq!(sharded.dispatch_digest(), plain.dispatch_digest());
        assert_eq!(sharded.events_processed(), plain.events_processed());
        assert_eq!(sharded.epochs(), 0, "no exchange with one shard");
        assert_eq!(sharded.boundary_messages(), 0);
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

    #[test]
    fn link_set_crosses_the_barrier() {
        let mut sw = two_shard_pair(1000);
        sw.run_until(SimTime::from_micros(5));
        let before: u64 = {
            let c: &Counter = sw.world(1).node(NodeId(0));
            c.received
        };
        assert!(before > 0);
        // Down shard 0's half of the boundary link (the exchange does
        // exactly this when the far side issues a `set_link_up(false)`):
        // the pinger keeps its cadence but `sent` stops advancing.
        sw.world_mut(0)
            .apply_remote_link(NodeId(0), PortId(0), false);
        let sent_at_cut: u32 = {
            let p: &Pinger = sw.world(0).node(NodeId(0));
            p.sent
        };
        sw.run_until(SimTime::from_micros(10));
        let p: &Pinger = sw.world(0).node(NodeId(0));
        assert_eq!(p.sent, sent_at_cut, "downed boundary link blocks transmit");
        // Bring it back; traffic resumes.
        sw.world_mut(0)
            .apply_remote_link(NodeId(0), PortId(0), true);
        sw.run_until(SimTime::from_micros(15));
        let p: &Pinger = sw.world(0).node(NodeId(0));
        assert!(p.sent > sent_at_cut);
    }
}
