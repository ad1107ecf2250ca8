//! The event loop: nodes, ports, links, timers, and the scheduler.

use std::any::Any;

use rocescale_packet::Packet;

use crate::arena::PacketArena;
use crate::rng::SimRng;
use crate::sched::{EngineKind, EventQueue, SchedStats};
use crate::time::SimTime;
use crate::{serialization_ps, PROPAGATION_PS_PER_METER};

/// Identifies a node in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifies a port on a node. Port numbering is per-node and dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u16);

impl PortId {
    /// Index form for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Physical characteristics of a duplex link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Line rate in bits per second (each direction).
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub propagation: SimTime,
}

impl LinkSpec {
    /// A link of `rate_bps` over `meters` of cable at ~5 ns/m.
    pub fn with_length(rate_bps: u64, meters: u32) -> LinkSpec {
        LinkSpec {
            rate_bps,
            propagation: SimTime(meters as u64 * PROPAGATION_PS_PER_METER),
        }
    }

    /// The paper's server↔ToR link: 40 GbE over ~2 m of copper.
    pub fn server_40g() -> LinkSpec {
        LinkSpec::with_length(40_000_000_000, 2)
    }

    /// The paper's ToR↔Leaf link: 40 GbE, 10–20 m.
    pub fn tor_leaf_40g() -> LinkSpec {
        LinkSpec::with_length(40_000_000_000, 15)
    }
}

/// Whether the world records per-event-kind dispatch profiles.
///
/// With profiling on, [`World::step`] wall-clocks every handler
/// dispatch and accumulates counts and nanoseconds per event kind
/// (start / arrival / port-idle / timer). The profile is pure
/// bookkeeping: dispatch order, simulated results, and the dispatch
/// digest are identical either way. The `Instant` pair per event costs
/// more than digest folding, so it defaults to off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfileMode {
    /// Wall-clock every dispatch, bucketed by event kind.
    On,
    /// Skip profiling; [`World::event_profile`] returns zeros (the
    /// default).
    #[default]
    Off,
}

/// Per-event-kind dispatch counts and cumulative handler wall-time,
/// collected by [`World::step`] under [`ProfileMode::On`].
///
/// Index order matches the digest tags: 0 = start, 1 = arrival,
/// 2 = port-idle, 3 = timer (see [`EventProfile::KINDS`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventProfile {
    /// Events dispatched, per kind.
    pub counts: [u64; 4],
    /// Cumulative handler wall-time in nanoseconds, per kind.
    pub nanos: [u64; 4],
    /// Always zero. Retained, with [`EventProfile::total_batches`],
    /// only because the frozen `examples/benchmark/src/fabric.rs` reads
    /// both; the next `benchmark` PR drops them.
    pub batches: [u64; 8],
}

impl EventProfile {
    /// Human-readable names for the four kind buckets, in index order.
    pub const KINDS: [&'static str; 4] = ["start", "arrival", "port_idle", "timer"];

    /// Total events across all kinds.
    pub fn total_events(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean handler nanoseconds per event for kind index `k` (0 when no
    /// events of that kind were dispatched).
    pub fn ns_per_event(&self, k: usize) -> f64 {
        if self.counts[k] == 0 {
            0.0
        } else {
            self.nanos[k] as f64 / self.counts[k] as f64
        }
    }

    /// Always zero (see [`EventProfile::batches`]).
    pub fn total_batches(&self) -> u64 {
        self.batches.iter().sum()
    }
}

/// Error returned by [`Ctx::transmit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxError {
    /// The port is still serializing a previous packet. Wait for
    /// [`Node::on_port_idle`].
    Busy,
    /// No link is attached to this port.
    Unconnected,
}

/// A simulated device: a switch or a host.
///
/// Handlers receive a [`Ctx`] for scheduling; all state lives in the node.
/// The kernel guarantees handlers are invoked in deterministic order.
/// Nodes are `Send` so a sharded run can drive each shard's world from
/// its own worker thread (a node is only ever touched by the thread
/// running its world).
pub trait Node: Any + Send {
    /// Invoked once when the simulation starts, before any other event.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A packet finished arriving on `port` (store-and-forward: the whole
    /// packet has been received).
    fn on_packet(&mut self, port: PortId, pkt: Packet, ctx: &mut Ctx<'_>);

    /// The port finished serializing the previous transmission and can
    /// accept another [`Ctx::transmit`].
    fn on_port_idle(&mut self, _port: PortId, _ctx: &mut Ctx<'_>) {}

    /// A timer set via [`Ctx::set_timer`] fired. `token` is the caller's
    /// value; stale timers must be filtered by the node itself.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}

    /// Downcast support so experiments can read node-specific state.
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The far end of a cross-shard link: a port on a node living in
/// another shard's [`World`]. Boundary traffic addressed to it is
/// collected in the sending world's outbox ([`World::drain_outbox`]) and
/// routed by the shard exchange at conservative-lookahead epoch
/// boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemotePort {
    /// Destination shard index (the exchange's world index).
    pub shard: u32,
    /// Node id *within the destination shard's world*.
    pub node: NodeId,
    /// Port on that node.
    pub port: PortId,
}

/// What a port is wired to: a node in this world, or a port in another
/// shard's world (see [`RemotePort`]).
#[derive(Debug, Clone, Copy)]
enum Peer {
    Local(NodeId, PortId),
    Remote(RemotePort),
}

/// A boundary crossing collected from a shard's world during an
/// exchange epoch, delivered into the destination shard at the next
/// epoch barrier. Packets carry their computed arrival time (always at
/// least one cross-shard propagation delay in the future — the
/// conservative-lookahead safety condition); administrative messages
/// carry the time they were issued and apply at the barrier.
#[derive(Debug)]
pub enum BoundaryMsg {
    /// A packet that finished serializing onto a cross-shard link.
    Packet {
        /// Arrival time at the far end (send + serialization +
        /// propagation).
        at: SimTime,
        /// Destination shard/node/port.
        to: RemotePort,
        /// The packet itself.
        pkt: Packet,
    },
    /// Mirror of a local [`Ctx::set_link_up`] on a boundary port: the
    /// far endpoint's administrative state must flip too.
    LinkSet {
        /// Time the flip was issued on the near side.
        at: SimTime,
        /// Far endpoint.
        to: RemotePort,
        /// New administrative state.
        up: bool,
    },
    /// A [`Ctx::wake_peer`] kick crossing the boundary, delivered as an
    /// ordinary port-idle event at the barrier.
    Wake {
        /// Time the kick was issued on the near side.
        at: SimTime,
        /// Far endpoint.
        to: RemotePort,
    },
}

impl BoundaryMsg {
    /// The message's timestamp (arrival time for packets, issue time
    /// for administrative messages) — the exchange's sort key.
    pub fn at(&self) -> SimTime {
        match self {
            BoundaryMsg::Packet { at, .. }
            | BoundaryMsg::LinkSet { at, .. }
            | BoundaryMsg::Wake { at, .. } => *at,
        }
    }

    /// The far endpoint the message is addressed to — its `shard` is
    /// the inbox the exchange routes it into.
    pub fn to(&self) -> RemotePort {
        match self {
            BoundaryMsg::Packet { to, .. }
            | BoundaryMsg::LinkSet { to, .. }
            | BoundaryMsg::Wake { to, .. } => *to,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PortState {
    peer: Peer,
    spec: LinkSpec,
    busy_until: SimTime,
    /// Administrative link state. A downed link rejects new transmissions
    /// (and reports as unconnected) on *both* endpoints; packets already
    /// serialized onto the wire still arrive. Flipped by
    /// [`Ctx::set_link_up`] — the fault-script "link flap" primitive.
    up: bool,
}

/// A queued event. `Arrival` carries an index into the world's packet
/// slab rather than a `Box<Packet>`, so the hot path recycles packet
/// storage through a free list instead of allocating per transmission.
#[derive(Debug, Clone, Copy)]
enum EventKind {
    Start {
        node: NodeId,
    },
    Arrival {
        node: NodeId,
        port: PortId,
        slot: u32,
    },
    PortIdle {
        node: NodeId,
        port: PortId,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
}

/// Everything in the world except the nodes themselves; split out so a
/// node handler can hold `&mut` to both itself and the scheduler.
struct WorldCore {
    now: SimTime,
    queue: EventQueue<EventKind>,
    ports: Vec<Vec<Option<PortState>>>,
    rng: SimRng,
    next_packet_id: u64,
    events_processed: u64,
    /// In-flight packet storage, indexed by `EventKind::Arrival::slot` —
    /// a dense arena with an intrusive free list (see [`PacketArena`]).
    packets: PacketArena,
    /// Running FNV-1a fingerprint of the dispatch stream (time, kind,
    /// node, detail per event) — the golden-trace hook: two runs are
    /// event-for-event identical iff their digests match.
    digest: u64,
    /// Boundary traffic for the shard exchange: packets that finished
    /// serializing onto cross-shard links, plus administrative
    /// link-state/wake messages addressed to remote ports. Drained by
    /// [`World::drain_outbox`] at epoch barriers; always empty in a
    /// single-world (non-sharded) run.
    outbox: Vec<BoundaryMsg>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold `v` into FNV-1a accumulator `h` — the exact byte-wise fold the
/// dispatch digest uses. Exposed so a sharded run can combine per-shard
/// digests in fixed shard order into one global fingerprint (see
/// `ShardedWorld::dispatch_digest`).
pub fn digest_fold(h: u64, v: u64) -> u64 {
    fnv1a(h, v)
}

impl WorldCore {
    fn push(&mut self, time: SimTime, kind: EventKind) {
        self.queue.push(time, kind);
    }

    fn store_packet(&mut self, pkt: Packet) -> u32 {
        self.packets.insert(pkt)
    }

    fn take_packet(&mut self, slot: u32) -> Packet {
        self.packets.remove(slot)
    }
}

/// The simulation world: nodes, links, and the event queue.
pub struct World {
    core: WorldCore,
    nodes: Vec<Box<dyn Node>>,
    started: bool,
    /// Hot-path gate for dispatch profiling (see [`ProfileMode`]).
    profile_on: bool,
    profile: EventProfile,
}

impl World {
    /// Create an empty world with a deterministic RNG seed, on the
    /// default timer-wheel engine.
    pub fn new(seed: u64) -> World {
        World::new_with_engine(seed, EngineKind::default())
    }

    /// Create an empty world on an explicit event-engine implementation.
    /// Scenario traces are bit-identical across engines; the binary-heap
    /// engine exists for differential tests and benchmarks.
    pub fn new_with_engine(seed: u64, engine: EngineKind) -> World {
        World {
            core: WorldCore {
                now: SimTime::ZERO,
                queue: EventQueue::new(engine),
                ports: Vec::new(),
                rng: SimRng::from_seed(seed),
                next_packet_id: 1,
                events_processed: 0,
                packets: PacketArena::new(),
                digest: FNV_OFFSET,
                outbox: Vec::new(),
            },
            nodes: Vec::new(),
            started: false,
            profile_on: false,
            profile: EventProfile::default(),
        }
    }

    /// Add a node; returns its id. Nodes must be added before [`Self::run_until`].
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.core.ports.push(Vec::new());
        id
    }

    /// Connect `a_port` on node `a` to `b_port` on node `b` with the given
    /// link. Panics if either port is already connected — miswired
    /// topologies are construction bugs, not runtime conditions.
    pub fn connect(
        &mut self,
        a: NodeId,
        a_port: PortId,
        b: NodeId,
        b_port: PortId,
        spec: LinkSpec,
    ) {
        let slot = |ports: &mut Vec<Option<PortState>>, p: PortId| {
            if ports.len() <= p.index() {
                ports.resize(p.index() + 1, None);
            }
            assert!(ports[p.index()].is_none(), "port {p:?} already connected");
            p.index()
        };
        let ia = slot(&mut self.core.ports[a.0 as usize], a_port);
        self.core.ports[a.0 as usize][ia] = Some(PortState {
            peer: Peer::Local(b, b_port),
            spec,
            busy_until: SimTime::ZERO,
            up: true,
        });
        let ib = slot(&mut self.core.ports[b.0 as usize], b_port);
        self.core.ports[b.0 as usize][ib] = Some(PortState {
            peer: Peer::Local(a, a_port),
            spec,
            busy_until: SimTime::ZERO,
            up: true,
        });
    }

    /// Wire `port` on `node` to a port in *another shard's* world. The
    /// local half behaves like an ordinary link (serialization time,
    /// busy state, the port-idle event); packets that finish
    /// serializing are parked in the boundary outbox with their arrival
    /// time instead of being scheduled locally — the shard exchange
    /// routes them at the next epoch barrier. Both worlds must call
    /// this with mirrored [`RemotePort`]s and the same `spec`.
    pub fn connect_remote(&mut self, node: NodeId, port: PortId, spec: LinkSpec, peer: RemotePort) {
        let ports = &mut self.core.ports[node.0 as usize];
        if ports.len() <= port.index() {
            ports.resize(port.index() + 1, None);
        }
        assert!(
            ports[port.index()].is_none(),
            "port {port:?} already connected"
        );
        ports[port.index()] = Some(PortState {
            peer: Peer::Remote(peer),
            spec,
            busy_until: SimTime::ZERO,
            up: true,
        });
    }

    /// Drain the boundary outbox: every cross-shard message issued
    /// since the last drain, in issue order. Called by the shard
    /// exchange at epoch barriers; always empty without remote ports.
    /// The buffer keeps its capacity, so a steady exchange allocates
    /// nothing per epoch.
    pub fn drain_outbox(&mut self) -> std::vec::Drain<'_, BoundaryMsg> {
        self.core.outbox.drain(..)
    }

    /// Smallest propagation delay over this world's cross-shard links —
    /// the world's contribution to the exchange's conservative
    /// lookahead. `None` when no port is remote.
    pub fn min_remote_propagation(&self) -> Option<SimTime> {
        self.core
            .ports
            .iter()
            .flatten()
            .flatten()
            .filter(|s| matches!(s.peer, Peer::Remote(_)))
            .map(|s| s.spec.propagation)
            .min()
    }

    /// Deliver a cross-shard packet: schedule its arrival on `port` of
    /// `node` at `at` (which must not precede this world's clock — the
    /// conservative lookahead guarantees that for exchange traffic).
    pub fn inject_arrival(&mut self, at: SimTime, node: NodeId, port: PortId, pkt: Packet) {
        debug_assert!(at >= self.core.now, "cross-shard arrival in the past");
        let slot = self.core.store_packet(pkt);
        self.core.push(at, EventKind::Arrival { node, port, slot });
    }

    /// Deliver a cross-shard wake: schedule a port-idle event — the
    /// "carrier returned" kick — on `port` of `node` at `at`.
    pub fn inject_port_idle(&mut self, at: SimTime, node: NodeId, port: PortId) {
        debug_assert!(at >= self.core.now, "cross-shard wake in the past");
        self.core.push(at, EventKind::PortIdle { node, port });
    }

    /// Apply the far side of a cross-shard [`Ctx::set_link_up`]: flip
    /// the administrative state of the local half of the boundary link.
    pub fn apply_remote_link(&mut self, node: NodeId, port: PortId, up: bool) {
        if let Some(state) = self.core.ports[node.0 as usize]
            .get_mut(port.index())
            .and_then(|s| s.as_mut())
        {
            state.up = up;
        }
    }

    /// Number of events pending in the queue (idle detection for the
    /// shard exchange).
    pub fn pending_events(&self) -> usize {
        self.core.queue.len()
    }

    /// Earliest pending event time, or `None` when the queue is empty.
    /// Starts the world's nodes first if they haven't run yet, so the
    /// `Start` events at t = 0 count as work. The adaptive shard
    /// exchange polls this at each barrier to find the next window that
    /// has anything to do.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.ensure_started();
        self.core.queue.peek_time()
    }

    /// Offset this world's packet-id allocator so ids from different
    /// shards never collide (ids are folded into arrival digests, so
    /// collisions would alias distinct packets). Shard `s` uses base
    /// `s << 48`; shard 0's base of 0 keeps its id stream — and hence
    /// its digest — identical to a non-sharded world's. Must be called
    /// before any packet is allocated.
    pub fn set_packet_id_base(&mut self, base: u64) {
        debug_assert_eq!(
            self.core.next_packet_id, 1,
            "packet-id base must be set before any allocation"
        );
        self.core.next_packet_id = base + 1;
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Total events dispatched so far (the simulator's own throughput
    /// metric, used by the benches).
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Event-engine counters: pushes, dispatches, wheel cascades,
    /// overflow migrations, and peak occupancy.
    pub fn sched_stats(&self) -> SchedStats {
        self.core.queue.stats()
    }

    /// FNV-1a fingerprint of every event dispatched so far: `(time,
    /// kind, node, detail)` per event. Two runs dispatched the same
    /// events in the same order iff their digests match — the basis of
    /// the golden-trace and engine-equivalence tests.
    pub fn dispatch_digest(&self) -> u64 {
        self.core.digest
    }

    /// Switch dispatch profiling on or off. Dispatch order, simulated
    /// results, and the digest are unaffected; only wall-clock
    /// bookkeeping changes. Accumulation continues across a mid-run
    /// switch; use [`Self::reset_event_profile`] for a clean window.
    pub fn set_profile_mode(&mut self, mode: ProfileMode) {
        self.profile_on = mode == ProfileMode::On;
    }

    /// The accumulated dispatch profile (all zeros unless
    /// [`ProfileMode::On`] was set before running).
    pub fn event_profile(&self) -> EventProfile {
        self.profile
    }

    /// Zero the accumulated dispatch profile (e.g. to exclude warmup).
    pub fn reset_event_profile(&mut self) {
        self.profile = EventProfile::default();
    }

    /// Borrow a node, downcast to its concrete type.
    pub fn node<T: Node>(&self, id: NodeId) -> &T {
        self.nodes[id.0 as usize]
            .as_any()
            .downcast_ref::<T>()
            .expect("node type mismatch")
    }

    /// Mutably borrow a node, downcast to its concrete type.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id.0 as usize]
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("node type mismatch")
    }

    /// Schedule an extra timer for a node from outside the event loop
    /// (e.g. an experiment injecting a fault at a chosen time).
    pub fn schedule_timer(&mut self, at: SimTime, node: NodeId, token: u64) {
        self.core.push(at, EventKind::Timer { node, token });
    }

    fn ensure_started(&mut self) {
        if !self.started {
            self.started = true;
            for i in 0..self.nodes.len() {
                self.core.push(
                    SimTime::ZERO,
                    EventKind::Start {
                        node: NodeId(i as u32),
                    },
                );
            }
        }
    }

    /// Dispatch a single event. Returns `false` when the queue is empty.
    ///
    /// Events fire in `(time, seq)` order, so anything a handler
    /// schedules *at the current timestamp* runs after every same-time
    /// event already queued, in push order.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let Some((time, kind)) = self.core.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.core.now, "time went backwards");
        self.core.now = time;
        self.core.events_processed += 1;
        let node_id = match kind {
            EventKind::Start { node }
            | EventKind::Arrival { node, .. }
            | EventKind::PortIdle { node, .. }
            | EventKind::Timer { node, .. } => node,
        };
        // Split borrow: the node lives in `self.nodes`, the scheduler in
        // `self.core` — disjoint fields, so the handler can hold `&mut`
        // to both without the old `Option::take`/put double write per
        // event (which cost two stores and a panic branch on the hottest
        // path in the simulator).
        let node: &mut dyn Node = &mut *self.nodes[node_id.0 as usize];
        let mut ctx = Ctx {
            core: &mut self.core,
            node: node_id,
        };
        // Profile bookkeeping stays out of the un-profiled hot path: one
        // branch when off, an `Instant` pair per event when on. The kind
        // index mirrors the digest tags (0..=3).
        let started_at = if self.profile_on {
            Some(std::time::Instant::now())
        } else {
            None
        };
        let kind_idx: usize;
        match kind {
            EventKind::Start { .. } => {
                kind_idx = 0;
                ctx.fold_digest(time, 0, node_id, 0);
                node.on_start(&mut ctx);
            }
            EventKind::Arrival { port, slot, .. } => {
                kind_idx = 1;
                let pkt = ctx.core.take_packet(slot);
                // Digest the packet id, not the slab slot: the slot is
                // an allocator artifact, the id is the semantic event.
                ctx.fold_digest(time, 1, node_id, ((port.0 as u64) << 32) | pkt.id);
                node.on_packet(port, pkt, &mut ctx);
            }
            EventKind::PortIdle { port, .. } => {
                kind_idx = 2;
                ctx.fold_digest(time, 2, node_id, port.0 as u64);
                node.on_port_idle(port, &mut ctx);
            }
            EventKind::Timer { token, .. } => {
                kind_idx = 3;
                ctx.fold_digest(time, 3, node_id, token);
                node.on_timer(token, &mut ctx);
            }
        }
        if let Some(t0) = started_at {
            self.profile.counts[kind_idx] += 1;
            self.profile.nanos[kind_idx] += t0.elapsed().as_nanos() as u64;
        }
        true
    }

    /// Capacity of the in-flight packet slab (memory-bound tests).
    pub fn packet_slab_capacity(&self) -> usize {
        self.core.packets.capacity()
    }

    /// Length of the in-flight packet slab.
    pub fn packet_slab_len(&self) -> usize {
        self.core.packets.len()
    }

    /// Vacant (recyclable) slots in the in-flight packet slab.
    pub fn packet_slab_free(&self) -> usize {
        self.core.packets.free_len()
    }

    /// Run until simulated time reaches `deadline` (events at exactly
    /// `deadline` are processed) or the queue drains.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.ensure_started();
        while let Some(head) = self.core.queue.peek_time() {
            if head > deadline {
                break;
            }
            self.step();
        }
        if self.core.now < deadline {
            self.core.now = deadline;
        }
    }

    /// Run until no events remain, up to a safety cap of `max_events`.
    /// Returns true if the queue drained (i.e. the network quiesced).
    pub fn run_until_idle(&mut self, max_events: u64) -> bool {
        for _ in 0..max_events {
            if !self.step() {
                return true;
            }
        }
        self.core.queue.is_empty()
    }
}

/// Scheduling interface handed to node handlers.
pub struct Ctx<'a> {
    core: &'a mut WorldCore,
    node: NodeId,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The id of the node being dispatched.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The world's deterministic RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.core.rng
    }

    fn fold_digest(&mut self, time: SimTime, tag: u64, node: NodeId, detail: u64) {
        let mut h = self.core.digest;
        h = fnv1a(h, time.as_ps());
        h = fnv1a(h, tag);
        h = fnv1a(h, node.0 as u64);
        h = fnv1a(h, detail);
        self.core.digest = h;
    }

    /// Allocate a globally unique packet id.
    pub fn next_packet_id(&mut self) -> u64 {
        let id = self.core.next_packet_id;
        self.core.next_packet_id += 1;
        id
    }

    /// Is `port` connected to a link that is administratively up? A
    /// downed link behaves exactly like a missing one for forwarding
    /// purposes (transmit fails, floods skip it).
    pub fn port_connected(&self, port: PortId) -> bool {
        self.port(port).map(|s| s.up).unwrap_or(false)
    }

    /// Is `port` currently serializing a packet?
    pub fn port_busy(&self, port: PortId) -> bool {
        match self.port(port) {
            Some(p) => p.busy_until > self.core.now,
            None => false,
        }
    }

    /// Line rate of the link on `port`, if connected.
    pub fn port_rate(&self, port: PortId) -> Option<u64> {
        self.port(port).map(|p| p.spec.rate_bps)
    }

    fn port(&self, port: PortId) -> Option<&PortState> {
        self.core.ports[self.node.0 as usize]
            .get(port.index())
            .and_then(|s| s.as_ref())
    }

    /// Begin transmitting `pkt` on `port`. The port stays busy for the
    /// serialization time; the peer's [`Node::on_packet`] fires after
    /// serialization plus propagation, and this node's
    /// [`Node::on_port_idle`] fires when serialization completes.
    pub fn transmit(&mut self, port: PortId, pkt: Packet) -> Result<(), TxError> {
        let now = self.core.now;
        let state = self.core.ports[self.node.0 as usize]
            .get_mut(port.index())
            .and_then(|s| s.as_mut())
            .filter(|s| s.up)
            .ok_or(TxError::Unconnected)?;
        if state.busy_until > now {
            return Err(TxError::Busy);
        }
        let ser = SimTime(serialization_ps(pkt.wire_size(), state.spec.rate_bps));
        let idle_at = now + ser;
        let arrive_at = idle_at + state.spec.propagation;
        state.busy_until = idle_at;
        let peer = state.peer;
        self.core.push(
            idle_at,
            EventKind::PortIdle {
                node: self.node,
                port,
            },
        );
        match peer {
            Peer::Local(peer_node, peer_port) => {
                let slot = self.core.store_packet(pkt);
                self.core.push(
                    arrive_at,
                    EventKind::Arrival {
                        node: peer_node,
                        port: peer_port,
                        slot,
                    },
                );
            }
            // Boundary port: the packet leaves this shard. Park it in
            // the outbox with its arrival time; the exchange injects it
            // into the destination world at the next epoch barrier
            // (arrive_at ≥ now + min cross-shard propagation ≥ the
            // barrier — the conservative-lookahead safety condition).
            Peer::Remote(to) => {
                self.core.outbox.push(BoundaryMsg::Packet {
                    at: arrive_at,
                    to,
                    pkt,
                });
            }
        }
        Ok(())
    }

    /// Fire [`Node::on_timer`] on this node after `delay` with `token`.
    pub fn set_timer(&mut self, delay: SimTime, token: u64) {
        let at = self.core.now + delay;
        self.core.push(
            at,
            EventKind::Timer {
                node: self.node,
                token,
            },
        );
    }

    /// Flip the administrative link state of `port` — and of the peer's
    /// mirrored port, so both endpoints agree, as a physical link flap
    /// would make them. Returns `false` (no-op) if the port was never
    /// wired. In-flight packets are unaffected; new transmissions on a
    /// downed link fail with [`TxError::Unconnected`] from either side.
    pub fn set_link_up(&mut self, port: PortId, up: bool) -> bool {
        let Some(state) = self.core.ports[self.node.0 as usize]
            .get_mut(port.index())
            .and_then(|s| s.as_mut())
        else {
            return false;
        };
        state.up = up;
        let peer = state.peer;
        match peer {
            Peer::Local(peer_node, peer_port) => {
                if let Some(peer) = self.core.ports[peer_node.0 as usize]
                    .get_mut(peer_port.index())
                    .and_then(|s| s.as_mut())
                {
                    peer.up = up;
                }
            }
            // The mirrored flip lives in another shard: issue it as an
            // exchange control message, applied at the next barrier.
            Peer::Remote(to) => {
                let at = self.core.now;
                self.core.outbox.push(BoundaryMsg::LinkSet { at, to, up });
            }
        }
        true
    }

    /// Schedule a [`Node::on_port_idle`] for the peer of `port` at the
    /// current time — the "carrier returned" kick after a link comes back
    /// up, letting the far end restart its transmit pump. No-op on an
    /// unwired or downed port.
    pub fn wake_peer(&mut self, port: PortId) {
        let Some(state) = self.port(port).filter(|s| s.up) else {
            return;
        };
        match state.peer {
            Peer::Local(peer_node, peer_port) => {
                self.core.push(
                    self.core.now,
                    EventKind::PortIdle {
                        node: peer_node,
                        port: peer_port,
                    },
                );
            }
            Peer::Remote(to) => {
                let at = self.core.now;
                self.core.outbox.push(BoundaryMsg::Wake { at, to });
            }
        }
    }

    /// Fire [`Node::on_timer`] at the first multiple of `period` (which
    /// must be non-zero) strictly after now: the instant a timer re-armed
    /// every `period` since t = 0 fires next. A periodic timer armed only
    /// while it has work therefore fires on the instants an always-armed
    /// one would, so arming on demand moves no other event.
    pub fn set_timer_on_grid(&mut self, period: SimTime, token: u64) {
        let lines_passed = self.core.now.as_ps() / period.as_ps();
        self.set_timer_at(period.saturating_mul(lines_passed + 1), token);
    }

    /// Fire [`Node::on_timer`] at absolute time `at` (clamped to now).
    pub fn set_timer_at(&mut self, at: SimTime, token: u64) {
        let at = at.max(self.core.now);
        self.core.push(
            at,
            EventKind::Timer {
                node: self.node,
                token,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocescale_packet::{EthMeta, MacAddr, Packet, PacketKind};

    /// A node that sends `count` raw frames back-to-back and records what
    /// it receives.
    struct Chatter {
        to_send: u32,
        sent: u32,
        received: Vec<(SimTime, u64)>,
        timers: Vec<u64>,
    }

    impl Chatter {
        fn new(to_send: u32) -> Chatter {
            Chatter {
                to_send,
                sent: 0,
                received: Vec::new(),
                timers: Vec::new(),
            }
        }

        fn pump(&mut self, ctx: &mut Ctx<'_>) {
            while self.sent < self.to_send {
                let id = ctx.next_packet_id();
                let pkt = Packet::new(
                    id,
                    EthMeta {
                        src: MacAddr::from_id(0),
                        dst: MacAddr::from_id(1),
                        vlan: None,
                    },
                    None,
                    PacketKind::Raw {
                        label: 0,
                        size: 1000,
                    },
                    ctx.now().as_ps(),
                );
                match ctx.transmit(PortId(0), pkt) {
                    Ok(()) => self.sent += 1,
                    Err(TxError::Busy) => break,
                    Err(TxError::Unconnected) => panic!("unconnected"),
                }
            }
        }
    }

    impl Node for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.pump(ctx);
        }
        fn on_packet(&mut self, _port: PortId, pkt: Packet, ctx: &mut Ctx<'_>) {
            self.received.push((ctx.now(), pkt.id));
        }
        fn on_port_idle(&mut self, _port: PortId, ctx: &mut Ctx<'_>) {
            self.pump(ctx);
        }
        fn on_timer(&mut self, token: u64, _ctx: &mut Ctx<'_>) {
            self.timers.push(token);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_node_world_on(engine: EngineKind, count: u32) -> (World, NodeId, NodeId) {
        let mut w = World::new_with_engine(7, engine);
        let a = w.add_node(Box::new(Chatter::new(count)));
        let b = w.add_node(Box::new(Chatter::new(0)));
        w.connect(
            a,
            PortId(0),
            b,
            PortId(0),
            LinkSpec::with_length(10_000_000_000, 100),
        );
        (w, a, b)
    }

    fn two_node_world(count: u32) -> (World, NodeId, NodeId) {
        two_node_world_on(EngineKind::Wheel, count)
    }

    #[test]
    fn engines_dispatch_identically() {
        let run = |engine| {
            let (mut w, a, b) = two_node_world_on(engine, 200);
            w.run_until_idle(100_000);
            (
                w.dispatch_digest(),
                w.events_processed(),
                w.node::<Chatter>(b).received.clone(),
                w.node::<Chatter>(a).sent,
            )
        };
        let wheel = run(EngineKind::Wheel);
        let heap = run(EngineKind::BinaryHeap);
        assert_eq!(wheel, heap, "wheel and heap must be trace-identical");
    }

    #[test]
    fn packet_slab_recycles_slots() {
        let (mut w, _a, _b) = two_node_world(500);
        assert!(w.run_until_idle(100_000));
        // 500 packets flowed but at most a handful were in flight at
        // once, so the slab stayed small instead of growing per packet.
        assert!(
            w.packet_slab_len() < 16,
            "slab grew to {}",
            w.packet_slab_len()
        );
        assert_eq!(w.packet_slab_free(), w.packet_slab_len());
    }

    /// An event budget of N stops after exactly N events — even inside a
    /// run of same-timestamp events — and the next call resumes in order.
    #[test]
    fn run_until_idle_budget_stops_after_exactly_n_events_and_resumes_in_order() {
        let mut w = World::new(1);
        let a = w.add_node(Box::new(Chatter::new(0)));
        for token in 0..10u64 {
            w.schedule_timer(SimTime::from_nanos(50), a, token);
        }
        // Budget 4: the Start event plus three same-time timers.
        assert!(!w.run_until_idle(4));
        assert_eq!(w.events_processed(), 4);
        assert_eq!(w.node::<Chatter>(a).timers, vec![0, 1, 2]);
        assert!(w.run_until_idle(100));
        assert_eq!(w.node::<Chatter>(a).timers, (0..10).collect::<Vec<_>>());
        assert_eq!(w.events_processed(), 11);
    }

    /// Events a handler schedules *at the current timestamp* dispatch
    /// after every same-time event that was already queued, in push
    /// order — on both engines.
    #[test]
    fn same_time_events_scheduled_by_a_handler_run_after_those_already_queued() {
        /// Records every token; tokens below 10 each schedule two
        /// zero-delay follow-ups (one relative, one absolute).
        struct Spawner {
            fired: Vec<(SimTime, u64)>,
        }
        impl Node for Spawner {
            fn on_packet(&mut self, _: PortId, _: Packet, _: &mut Ctx<'_>) {}
            fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
                self.fired.push((ctx.now(), token));
                if token < 10 {
                    ctx.set_timer(SimTime::ZERO, 100 + token);
                    ctx.set_timer_at(ctx.now(), 200 + token);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        for engine in [EngineKind::Wheel, EngineKind::BinaryHeap] {
            let mut w = World::new_with_engine(1, engine);
            let a = w.add_node(Box::new(Spawner { fired: Vec::new() }));
            let t = SimTime::from_nanos(50);
            for token in 0..3u64 {
                w.schedule_timer(t, a, token);
            }
            w.schedule_timer(SimTime::from_nanos(51), a, 50);
            assert!(w.run_until_idle(100));
            let want: Vec<(SimTime, u64)> = [0, 1, 2, 100, 200, 101, 201, 102, 202]
                .into_iter()
                .map(|token| (t, token))
                .chain([(SimTime::from_nanos(51), 50)])
                .collect();
            assert_eq!(w.node::<Spawner>(a).fired, want, "{engine:?}");
        }
    }

    /// With profiling on, per-kind counts are exact and the retired
    /// batch histogram stays zero.
    #[test]
    fn profile_counts_events_per_kind() {
        let mut w = World::new(1);
        let a = w.add_node(Box::new(Chatter::new(0)));
        w.set_profile_mode(ProfileMode::On);
        for token in 0..20u64 {
            w.schedule_timer(SimTime::from_nanos(50), a, token);
        }
        assert!(w.run_until_idle(1000));
        let p = w.event_profile();
        assert_eq!(p.counts, [1, 0, 0, 20]);
        assert_eq!(p.total_events(), 21);
        assert_eq!(p.total_batches(), 0);
        assert!(p.ns_per_event(3) > 0.0);
        assert_eq!(p.ns_per_event(1), 0.0, "no arrivals dispatched");
    }

    /// A grid timer fires on the first multiple of its period strictly
    /// after the arming instant (armed on a line: the next line) — where
    /// a timer re-armed every period since t = 0 would fire next.
    #[test]
    fn grid_timers_fire_on_multiples_of_their_period() {
        struct Gridder {
            fired: Vec<SimTime>,
        }
        impl Node for Gridder {
            fn on_packet(&mut self, _: PortId, _: Packet, _: &mut Ctx<'_>) {}
            fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
                match token {
                    0 => ctx.set_timer_on_grid(SimTime::from_micros(55), 1),
                    _ => self.fired.push(ctx.now()),
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(1);
        let g = w.add_node(Box::new(Gridder { fired: Vec::new() }));
        let us = SimTime::from_micros;
        for arm_at in [SimTime::ZERO, SimTime(1), us(54), us(55), us(56), us(164)] {
            w.schedule_timer(arm_at, g, 0);
        }
        assert!(w.run_until_idle(100));
        assert_eq!(
            w.node::<Gridder>(g).fired,
            [us(55), us(55), us(55), us(110), us(110), us(165)]
        );
    }

    #[test]
    fn packets_arrive_after_ser_plus_prop() {
        let (mut w, _a, b) = two_node_world(1);
        assert!(w.run_until_idle(1000));
        let rx = &w.node::<Chatter>(b).received;
        assert_eq!(rx.len(), 1);
        // 1000 B at 10 Gb/s = 800 ns; 100 m = 500 ns.
        assert_eq!(rx[0].0, SimTime::from_nanos(1300));
    }

    #[test]
    fn port_serializes_back_to_back() {
        let (mut w, _a, b) = two_node_world(3);
        assert!(w.run_until_idle(1000));
        let rx = &w.node::<Chatter>(b).received;
        assert_eq!(rx.len(), 3);
        // Successive arrivals are exactly one serialization apart.
        assert_eq!((rx[1].0 - rx[0].0).as_nanos(), 800);
        assert_eq!((rx[2].0 - rx[1].0).as_nanos(), 800);
    }

    #[test]
    fn transmit_while_busy_is_rejected() {
        struct Greedy {
            results: Vec<Result<(), TxError>>,
        }
        impl Node for Greedy {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let mk = |id| {
                    Packet::new(
                        id,
                        EthMeta {
                            src: MacAddr::from_id(0),
                            dst: MacAddr::from_id(1),
                            vlan: None,
                        },
                        None,
                        PacketKind::Raw {
                            label: 0,
                            size: 500,
                        },
                        0,
                    )
                };
                self.results.push(ctx.transmit(PortId(0), mk(1)));
                self.results.push(ctx.transmit(PortId(0), mk(2)));
                self.results.push(ctx.transmit(PortId(1), mk(3)));
            }
            fn on_packet(&mut self, _: PortId, _: Packet, _: &mut Ctx<'_>) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(1);
        let a = w.add_node(Box::new(Greedy { results: vec![] }));
        let b = w.add_node(Box::new(Chatter::new(0)));
        w.connect(a, PortId(0), b, PortId(0), LinkSpec::server_40g());
        w.run_until_idle(100);
        let r = &w.node::<Greedy>(a).results;
        assert_eq!(r[0], Ok(()));
        assert_eq!(r[1], Err(TxError::Busy));
        assert_eq!(r[2], Err(TxError::Unconnected));
    }

    #[test]
    fn timers_fire_in_order_with_ties_broken_by_schedule_order() {
        let mut w = World::new(1);
        let a = w.add_node(Box::new(Chatter::new(0)));
        w.schedule_timer(SimTime::from_nanos(50), a, 2);
        w.schedule_timer(SimTime::from_nanos(50), a, 3);
        w.schedule_timer(SimTime::from_nanos(10), a, 1);
        assert!(w.run_until_idle(100));
        assert_eq!(w.node::<Chatter>(a).timers, vec![1, 2, 3]);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let (mut w, _a, b) = two_node_world(50);
            w.run_until_idle(10_000);
            w.node::<Chatter>(b).received.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_until_respects_deadline() {
        let (mut w, a, b) = two_node_world(1000);
        w.run_until(SimTime::from_micros(10));
        assert_eq!(w.now(), SimTime::from_micros(10));
        let got = w.node::<Chatter>(b).received.len();
        assert!(got > 0 && got < 1000, "partial progress, got {got}");
        // Resuming continues where we left off.
        w.run_until(SimTime::from_millis(1));
        assert_eq!(w.node::<Chatter>(b).received.len(), 1000);
        assert_eq!(w.node::<Chatter>(a).sent, 1000);
    }
}
