//! The switch [`Node`]: ingress pipeline, egress scheduling, PFC
//! generation/reaction, flooding, and the storm watchdog.

use std::any::Any;
use std::collections::VecDeque;

use rocescale_monitor::{BlockId, Group, HopRecord, MetricsHub, Path, ScopeId, TraceEvent};
use rocescale_packet::{
    EcnCodepoint, MacAddr, Packet, PacketKind, PauseFrame, PfcPauseFrame, Priority,
};
use rocescale_sim::{Ctx, Node, Parked, PortId, SimTime};

use crate::buffer::{AdmitOutcome, SharedBuffer};
use crate::config::{ClassifyMode, PortRole, SwitchConfig};
use crate::routing::{NextHop, RouteTable};
use crate::tables::{ArpTable, MacTable};

/// Why a packet was dropped. Every drop in the switch is attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Lossy class over its buffer threshold (normal congestion loss).
    LossyOverflow,
    /// Lossless packet exceeded its headroom — a configuration failure;
    /// asserted zero in every PFC-correct experiment.
    LosslessOverflow,
    /// No route for the destination IP.
    NoRoute,
    /// Directly-connected destination with no ARP entry at all.
    ArpMiss,
    /// The §4.2 fix firing: lossless packet whose ARP entry is incomplete
    /// (MAC known, port unknown) dropped instead of flooded.
    IncompleteArpLossless,
    /// Flooded copy reaching the head of a fabric-port egress queue
    /// ("destination MAC does not match", Figure 4 step 1).
    FloodCopyAtFabricHead,
    /// TTL expired.
    TtlExpired,
    /// The §4.1 fault-injection filter (IP ID low byte match).
    InjectedFilter,
    /// Untagged data packet arriving at a trunk-mode port under
    /// VLAN-based PFC (the PXE-boot failure, §3).
    UntaggedOnTrunk,
    /// Lossless packet to/from a port whose lossless mode the storm
    /// watchdog disabled (§4.3).
    WatchdogLosslessOff,
    /// Queued lossless packet flushed because an operator (fault script)
    /// turned the priority's lossless mode off at runtime
    /// ([`Switch::set_lossless`]).
    AdminLosslessOff,
}

impl DropReason {
    /// Stable name, used as the telemetry counter leaf and flight-recorder
    /// reason string.
    pub const fn name(&self) -> &'static str {
        match self {
            DropReason::LossyOverflow => "LossyOverflow",
            DropReason::LosslessOverflow => "LosslessOverflow",
            DropReason::NoRoute => "NoRoute",
            DropReason::ArpMiss => "ArpMiss",
            DropReason::IncompleteArpLossless => "IncompleteArpLossless",
            DropReason::FloodCopyAtFabricHead => "FloodCopyAtFabricHead",
            DropReason::TtlExpired => "TtlExpired",
            DropReason::InjectedFilter => "InjectedFilter",
            DropReason::UntaggedOnTrunk => "UntaggedOnTrunk",
            DropReason::WatchdogLosslessOff => "WatchdogLosslessOff",
            DropReason::AdminLosslessOff => "AdminLosslessOff",
        }
    }
}

const DROP_REASONS: [DropReason; 11] = [
    DropReason::LossyOverflow,
    DropReason::LosslessOverflow,
    DropReason::NoRoute,
    DropReason::ArpMiss,
    DropReason::IncompleteArpLossless,
    DropReason::FloodCopyAtFabricHead,
    DropReason::TtlExpired,
    DropReason::InjectedFilter,
    DropReason::UntaggedOnTrunk,
    DropReason::WatchdogLosslessOff,
    DropReason::AdminLosslessOff,
];

/// Switch counters, the ground truth the monitoring crate collects (§5.2:
/// "we collect packets and bytes been sent and received per port per
/// priority, packet drops at the ingress ports, and packet drops at the
/// egress queues").
#[derive(Debug, Clone, Default)]
pub struct SwitchStats {
    /// Packets received per port.
    pub rx_pkts: Vec<u64>,
    /// Packets transmitted per port.
    pub tx_pkts: Vec<u64>,
    /// Bytes transmitted per port.
    pub tx_bytes: Vec<u64>,
    /// Data bytes transmitted per priority (across ports).
    pub tx_bytes_per_prio: [u64; Priority::COUNT],
    /// PFC pause frames sent per port (XOFF only, not resumes).
    pub pause_tx: Vec<u64>,
    /// PFC resume (XON) frames sent per port.
    pub resume_tx: Vec<u64>,
    /// PFC pause frames received per port (XOFF only).
    pub pause_rx: Vec<u64>,
    /// Drops by reason.
    pub drops: [u64; DROP_REASONS.len()],
    /// ECN CE marks applied.
    pub ecn_marked: u64,
    /// Peak egress queue depth in bytes, per port (any priority).
    pub peak_egress_bytes: Vec<u64>,
    /// Times the watchdog disabled lossless mode on a port.
    pub watchdog_disables: u64,
    /// Times the watchdog re-enabled lossless mode on a port.
    pub watchdog_reenables: u64,
}

impl SwitchStats {
    fn new(ports: usize) -> SwitchStats {
        SwitchStats {
            rx_pkts: vec![0; ports],
            tx_pkts: vec![0; ports],
            tx_bytes: vec![0; ports],
            pause_tx: vec![0; ports],
            resume_tx: vec![0; ports],
            pause_rx: vec![0; ports],
            peak_egress_bytes: vec![0; ports],
            ..SwitchStats::default()
        }
    }

    /// Count a drop.
    pub fn drop(&mut self, reason: DropReason) {
        let i = DROP_REASONS
            .iter()
            .position(|r| *r == reason)
            .expect("known reason");
        self.drops[i] += 1;
    }

    /// Read a drop counter.
    pub fn drops_of(&self, reason: DropReason) -> u64 {
        let i = DROP_REASONS
            .iter()
            .position(|r| *r == reason)
            .expect("known reason");
        self.drops[i]
    }

    /// Sum of all drops.
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// Total XOFF pause frames sent.
    pub fn total_pause_tx(&self) -> u64 {
        self.pause_tx.iter().sum()
    }
}

/// Where a queued packet's bytes were admitted: the (ingress port, PG)
/// counter and whether into the shared pool or headroom. Released when
/// the packet leaves, or is dropped at the head of, its egress queue.
#[derive(Debug, Clone, Copy)]
struct Acct {
    ingress: PortId,
    pg: Priority,
    outcome: AdmitOutcome,
}

/// A packet queued at an egress port: a handle into the world's packet
/// slab, the packet's wire size (everything DWRR and the byte counts
/// read) and its ingress accounting. The packet itself stays parked in
/// the slab — one pool for every queue, as in the shared-buffer ASIC —
/// until it is transmitted or dropped.
#[derive(Debug)]
struct QueuedPkt {
    pkt: Parked,
    bytes: u32,
    acct: Acct,
    /// This is a flood copy (dropped at the head of fabric-port queues).
    flood_copy: bool,
}

// A ring never shrinks, so its slot size times the deepest backlog the
// queue has seen is what the queue keeps.
const _: () = assert!(std::mem::size_of::<QueuedPkt>() == 16);

/// DWRR quantum per weight unit, bytes.
const DWRR_QUANTUM: u32 = 1600;

/// A queued PFC control frame, stored as a compact descriptor rather
/// than a full [`Packet`]. The packet id is allocated when the frame is
/// *queued* (so the global id sequence — and with it every dispatch
/// digest — matches the old by-value path exactly); the `Packet` itself
/// is materialized once at transmit instead of being copied into and
/// back out of the queue.
#[derive(Debug, Clone, Copy)]
struct CtrlFrame {
    id: u64,
    frame: PauseFrame,
    created_ps: u64,
}

/// The egress side of one port: per-priority queues, PFC pause state and
/// the DWRR scheduler. Byte counts are `u32`: a port never holds more
/// than the switch buffer, which [`SharedBuffer::new`] bounds below
/// 4 GiB.
#[derive(Debug, Default)]
struct EgressPort {
    queues: [VecDeque<QueuedPkt>; Priority::COUNT],
    queue_bytes: [u32; Priority::COUNT],
    /// Cached sum of `queue_bytes` — read on every enqueue (hop records,
    /// peak tracking) and by the heatmap sampler, so it is maintained at
    /// the four mutation sites instead of re-summed eight lanes at a time.
    total: u32,
    /// Control frames (PFC) bypass the data queues entirely.
    ctrl: VecDeque<CtrlFrame>,
    paused_until: [SimTime; Priority::COUNT],
    deficit: [u32; Priority::COUNT],
    rr: usize,
    /// Queue currently in its DWRR service burst.
    serving: Option<usize>,
    /// Accounting and wire size of the packet being serialized, released
    /// when the port goes idle.
    in_flight: Option<(Acct, u32)>,
}

impl EgressPort {
    fn total_bytes(&self) -> u64 {
        debug_assert_eq!(self.total, self.queue_bytes.iter().sum::<u32>());
        self.total as u64
    }

    fn has_lossless_backlog(&self, lossless: &[bool; Priority::COUNT]) -> bool {
        (0..Priority::COUNT).any(|i| lossless[i] && !self.queues[i].is_empty())
    }

    fn push(&mut self, prio: usize, qp: QueuedPkt) {
        self.queue_bytes[prio] += qp.bytes;
        self.total += qp.bytes;
        self.queues[prio].push_back(qp);
    }

    fn pop(&mut self, prio: usize) -> Option<QueuedPkt> {
        let qp = self.queues[prio].pop_front()?;
        self.queue_bytes[prio] -= qp.bytes;
        self.total -= qp.bytes;
        Some(qp)
    }

    /// DWRR pick: returns the priority whose head packet should transmit.
    ///
    /// Classic deficit round robin: a queue's deficit is replenished once
    /// per rotation *arrival*, it is served while the deficit covers the
    /// head packet, and then the pointer moves on — so a saturated
    /// lossless queue cannot starve the TCP class (the §2 bandwidth
    /// isolation Figure 8 depends on).
    fn pick_queue(&mut self, weights: &[u32; Priority::COUNT], now: SimTime) -> Option<usize> {
        let available = |e: &EgressPort, i: usize| -> Option<u32> {
            if e.queues[i].is_empty() || e.paused_until[i] > now {
                None
            } else {
                Some(e.queues[i][0].bytes)
            }
        };
        // Continue the burst on the queue being served, if its deficit
        // still covers the head.
        if let Some(i) = self.serving {
            match available(self, i) {
                Some(head) if self.deficit[i] >= head => {
                    self.deficit[i] -= head;
                    return Some(i);
                }
                _ => {
                    if self.queues[i].is_empty() {
                        self.deficit[i] = 0;
                    }
                    self.serving = None;
                    self.rr = (i + 1) % Priority::COUNT;
                }
            }
        }
        // One full rotation: replenish on arrival, serve if covered.
        for _ in 0..Priority::COUNT {
            let i = self.rr;
            match available(self, i) {
                Some(head) => {
                    self.deficit[i] += DWRR_QUANTUM * weights[i].max(1);
                    if self.deficit[i] >= head {
                        self.deficit[i] -= head;
                        self.serving = Some(i);
                        return Some(i);
                    }
                    // Deficit carries to the next rotation.
                }
                None => {
                    if self.queues[i].is_empty() {
                        self.deficit[i] = 0;
                    }
                }
            }
            self.rr = (self.rr + 1) % Priority::COUNT;
        }
        None
    }
}

/// Per-port watchdog bookkeeping.
#[derive(Debug, Clone, Copy)]
struct WatchdogPort {
    lossless_disabled: bool,
    last_pause_rx: SimTime,
    /// When the port's lossless backlog stopped draining while pauses
    /// kept arriving; [`SimTime::MAX`] while it is draining.
    undrainable_since: SimTime,
}

impl WatchdogPort {
    const IDLE: WatchdogPort = WatchdogPort {
        lossless_disabled: false,
        last_pause_rx: SimTime::ZERO,
        undrainable_since: SimTime::MAX,
    };
}

// Timer token encoding: top 8 bits = kind.
const TOK_KIND_SHIFT: u64 = 56;
const TOK_KICK: u64 = 1;
const TOK_PAUSE_REFRESH: u64 = 2;
const TOK_WATCHDOG: u64 = 3;
const TOK_ADMIN: u64 = 4;

/// A deferred administrative action on one switch — the switch half of
/// the incident-replay fault-script layer. Actions are parked in the
/// switch by [`Switch::schedule_admin`] and executed by the ordinary
/// timer event whose token the call returns, so a scripted incident is
/// scheduled exactly like any other sim event: deterministic, and
/// invisible to the dispatch digest unless the timer actually fires.
#[derive(Debug, Clone, PartialEq)]
pub enum AdminAction {
    /// Administratively flip the link on `port` (both endpoints). On
    /// re-up the switch restarts its own egress and kicks the peer.
    LinkSet {
        /// Port whose link flips.
        port: PortId,
        /// New administrative state.
        up: bool,
    },
    /// Turn lossless mode for a priority on or off at runtime
    /// ([`Switch::set_lossless`]).
    SetLossless {
        /// Priority class index.
        prio: u8,
        /// New lossless state.
        on: bool,
    },
    /// Rewrite the shared-buffer PFC thresholds — the §6.2
    /// misconfiguration (α silently changing from 1/16 to 1/64) as a
    /// scriptable runtime event.
    SetThresholds {
        /// Dynamic-sharing α, or `None` for static thresholds.
        alpha: Option<f64>,
        /// Static XOFF threshold in bytes (used when `alpha` is `None`).
        xoff_static: u64,
    },
    /// Replace the ECMP group for `prefix/len` mid-run; the next packet
    /// routed by that prefix takes the new group.
    Reroute {
        /// Route prefix (host byte order).
        prefix: u32,
        /// Prefix length in bits.
        len: u8,
        /// New equal-cost egress ports (must be non-empty).
        ports: Vec<PortId>,
    },
    /// Forget where a MAC lives — the dead-server 5-minute MAC timeout
    /// with the 4-hour ARP entry surviving (§4.2).
    EvictMac {
        /// MAC address to evict.
        mac: MacAddr,
    },
    /// (Re)learn a MAC on a port — a resurrected server's gratuitous
    /// traffic re-populating the table.
    SeedMac {
        /// MAC address to learn.
        mac: MacAddr,
        /// Port the MAC lives behind.
        port: PortId,
    },
}

fn tok_kick(port: PortId) -> u64 {
    (TOK_KICK << TOK_KIND_SHIFT) | port.0 as u64
}
fn tok_refresh(port: PortId, pg: Priority) -> u64 {
    (TOK_PAUSE_REFRESH << TOK_KIND_SHIFT) | ((pg.index() as u64) << 16) | port.0 as u64
}

/// [`DROP_REASONS`]' names: the leaves of `switch.{name}.drop.{Reason}`.
const DROP_NAMES: [&str; DROP_REASONS.len()] = {
    let mut names = [""; DROP_REASONS.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = DROP_REASONS[i].name();
        i += 1;
    }
    names
};

/// The switch's counters after its drop reasons, in block order.
const SWITCH_COUNTERS: &[&str] = &["ecn_marked", "watchdog.disables", "watchdog.reenables"];

/// Each port's counters, `switch.{name}.port.{p}.{leaf}`, in block order.
const PORT_COUNTERS: &[&str] = &["pfc.xoff_tx", "pfc.xon_tx", "pfc.xoff_rx"];

/// A counter of the switch's block after the drop reasons and before the
/// ports, by its place in [`SWITCH_COUNTERS`].
#[derive(Clone, Copy)]
enum SwitchCounter {
    EcnMarked,
    WatchdogDisables,
    WatchdogReenables,
}

/// A per-port counter, by its place in [`PORT_COUNTERS`].
#[derive(Clone, Copy)]
enum PortCounter {
    PauseTx,
    ResumeTx,
    PauseRx,
}

/// The switch's telemetry: one block — a counter per drop reason, the
/// [`SWITCH_COUNTERS`], then the [`PORT_COUNTERS`] of each port — and
/// its trace scope; sentinels when the hub is disabled, so the hot path
/// pays a null check per site.
#[derive(Default)]
struct SwitchTele {
    hub: MetricsHub,
    scope: ScopeId,
    base: BlockId,
}

impl SwitchTele {
    fn register(hub: MetricsHub, name: &str, ports: usize) -> SwitchTele {
        if !hub.is_enabled() {
            // Every id would come back a sentinel: copy no name.
            return SwitchTele::default();
        }
        let block = hub.register(
            Path::of("switch", name),
            &[
                Group::counters(&DROP_NAMES).under("drop"),
                Group::counters(SWITCH_COUNTERS),
                Group::counters(PORT_COUNTERS).over("port", 0..ports as u32),
            ],
        );
        SwitchTele {
            hub,
            scope: block.scope,
            base: block.base,
        }
    }

    /// Count one drop for reason `i` of [`DROP_REASONS`].
    fn incr_drop(&self, i: usize) {
        self.hub.incr(self.base.counter(i as u32));
    }

    /// Count one event on a switch-wide counter.
    fn incr(&self, c: SwitchCounter) {
        self.hub
            .incr(self.base.counter((DROP_NAMES.len() + c as usize) as u32));
    }

    /// Count one event on port `port`'s counter `c`.
    fn incr_port(&self, c: PortCounter, port: PortId) {
        let k = DROP_NAMES.len() + SWITCH_COUNTERS.len() + port.index() * PORT_COUNTERS.len();
        self.hub.incr(self.base.counter((k + c as usize) as u32));
    }
}

/// Always zero. Retained, with [`Switch::flow_cache_stats`], only
/// because the frozen `examples/benchmark/src/fabric.rs` reads both; the
/// next `benchmark` PR drops them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowCacheStats {
    /// Always zero.
    pub hits: u64,
    /// Always zero.
    pub misses: u64,
}

/// The switch node.
///
/// Cache-line aligned, so that no two switches share a line: the pod
/// partition deals spines to shards round-robin, so switches built one
/// after another often run on different threads, and a line shared by
/// their counters would bounce between cores on every packet.
#[repr(align(64))]
pub struct Switch {
    cfg: SwitchConfig,
    /// This switch's router MAC (L3 interfaces).
    router_mac: MacAddr,
    /// ECMP hash salt (per-switch, like per-ASIC hash seeds).
    salt: u64,
    buffer: SharedBuffer,
    mac_table: MacTable,
    arp_table: ArpTable,
    routes: RouteTable,
    /// MAC of the L3 peer behind each fabric port (next-hop rewrite).
    peer_macs: Vec<Option<MacAddr>>,
    /// Egress state per port, materialised by the first data packet
    /// queued on the port or PFC frame sent or received on it: a port
    /// that never carried traffic costs one null pointer.
    egress: Vec<Option<Box<EgressPort>>>,
    wd: Vec<WatchdogPort>,
    /// Round-robin counter for per-packet spraying (§8.1 ablation).
    spray_counter: u64,
    /// Telemetry instruments (sentinels when the hub is disabled).
    tele: SwitchTele,
    /// Parked fault-script actions, addressed by admin timer tokens.
    admin: Vec<AdminAction>,
    /// Counters.
    pub stats: SwitchStats,
}

impl Switch {
    /// Build a switch from its configuration. `router_mac` must be unique
    /// per switch; `salt` seeds the ECMP hash.
    pub fn new(cfg: SwitchConfig, router_mac: MacAddr, salt: u64) -> Switch {
        let ports = cfg.ports as usize;
        let buffer = SharedBuffer::new(cfg.buffer, cfg.ports, &cfg.lossless);
        // A deficit holds at most one replenishment plus less than one
        // frame, so half the counter's range per replenishment is enough.
        assert!(
            cfg.weights
                .iter()
                .all(|w| (*w as u64) * DWRR_QUANTUM as u64 <= u32::MAX as u64 / 2),
            "DWRR weights {:?} overflow the 32-bit deficit counters",
            cfg.weights
        );
        let tele = SwitchTele::register(cfg.telemetry.clone(), &cfg.name, ports);
        Switch {
            mac_table: MacTable::default(),
            arp_table: ArpTable::default(),
            routes: RouteTable::new(),
            peer_macs: vec![None; ports],
            egress: (0..ports).map(|_| None).collect(),
            wd: vec![WatchdogPort::IDLE; ports],
            spray_counter: 0,
            tele,
            admin: Vec::new(),
            stats: SwitchStats::new(ports),
            buffer,
            router_mac,
            salt,
            cfg,
        }
    }

    /// Count a drop in both the legacy stats and the telemetry bus.
    fn note_drop(&mut self, reason: DropReason, now: SimTime) {
        self.stats.drop(reason);
        if self.tele.hub.is_enabled() {
            let i = DROP_REASONS
                .iter()
                .position(|r| *r == reason)
                .expect("known");
            self.tele.incr_drop(i);
            let t = now.as_ps();
            self.tele.hub.trace(
                t,
                self.tele.scope,
                TraceEvent::Drop {
                    reason: reason.name(),
                },
            );
            if reason == DropReason::IncompleteArpLossless {
                self.tele
                    .hub
                    .trace(t, self.tele.scope, TraceEvent::ArpIncompleteDrop);
            }
        }
    }

    /// The trace scope the switch registered (`switch.{name}`; the
    /// sentinel when telemetry is off), for observers that stream on
    /// its behalf.
    pub fn telemetry_scope(&self) -> ScopeId {
        self.tele.scope
    }

    /// The switch's router MAC.
    pub fn router_mac(&self) -> MacAddr {
        self.router_mac
    }

    /// The configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.cfg
    }

    /// Mutable route table (topology wiring, scripted reroutes).
    pub fn routes_mut(&mut self) -> &mut RouteTable {
        &mut self.routes
    }

    /// Always zero: see [`FlowCacheStats`].
    pub fn flow_cache_stats(&self) -> FlowCacheStats {
        FlowCacheStats::default()
    }

    /// Set the L3 peer MAC behind a fabric port (topology wiring).
    pub fn set_peer_mac(&mut self, port: PortId, mac: MacAddr) {
        self.peer_macs[port.index()] = Some(mac);
    }

    /// Seed an ARP entry (scenario setup / ARP protocol result).
    pub fn seed_arp(&mut self, ip: u32, mac: MacAddr, now: SimTime) {
        self.arp_table.insert(ip, mac, now);
    }

    /// Seed a MAC table entry.
    pub fn seed_mac(&mut self, mac: MacAddr, port: PortId, now: SimTime) {
        self.mac_table.learn(mac, port, now);
    }

    /// Evict a MAC entry — simulates the 5-minute timeout firing for a
    /// dead server while its 4-hour ARP entry survives (§4.2).
    pub fn evict_mac(&mut self, mac: MacAddr) {
        self.mac_table.evict(mac);
    }

    /// The shared buffer (read access for monitoring).
    pub fn buffer(&self) -> &SharedBuffer {
        &self.buffer
    }

    /// Bytes queued at an egress port for one priority.
    pub fn egress_depth_prio(&self, port: PortId, prio: Priority) -> u64 {
        self.egress[port.index()]
            .as_ref()
            .map_or(0, |e| e.queue_bytes[prio.index()] as u64)
    }

    /// Deepest single egress port right now, total bytes across all
    /// classes — the instantaneous hot-spot depth the queue-depth
    /// heatmap samples.
    pub fn max_egress_depth(&self) -> u64 {
        self.egress
            .iter()
            .flatten()
            .map(|e| e.total_bytes())
            .max()
            .unwrap_or(0)
    }

    /// Data packets queued across all egress ports. Each one holds a slot
    /// in its world's packet slab until it is transmitted or dropped.
    pub fn queued_packets(&self) -> usize {
        self.egress
            .iter()
            .flatten()
            .map(|e| e.queues.iter().map(VecDeque::len).sum::<usize>())
            .sum()
    }

    /// Bytes of lossless-class traffic queued across all egress ports —
    /// the backlog half of the deadlock signature (§4.2).
    pub fn lossless_backlog(&self) -> u64 {
        self.egress
            .iter()
            .flatten()
            .map(|e| {
                (0..Priority::COUNT)
                    .filter(|i| self.cfg.lossless[*i])
                    .map(|i| e.queue_bytes[i] as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Total packets transmitted across all ports (including PFC control
    /// frames).
    pub fn total_tx_pkts(&self) -> u64 {
        self.stats.tx_pkts.iter().sum()
    }

    /// Data packets transmitted across all ports, excluding PFC control
    /// frames — the progress half of the deadlock signature (a wedged
    /// switch still emits pause refreshes, so raw tx keeps creeping).
    pub fn total_data_tx_pkts(&self) -> u64 {
        self.total_tx_pkts()
            - self.stats.pause_tx.iter().sum::<u64>()
            - self.stats.resume_tx.iter().sum::<u64>()
    }

    /// Is `port`'s egress currently paused for `prio`?
    pub fn is_paused(&self, port: PortId, prio: Priority, now: SimTime) -> bool {
        self.egress[port.index()]
            .as_ref()
            .is_some_and(|e| e.paused_until[prio.index()] > now)
    }

    /// Has the watchdog disabled lossless mode on `port`?
    pub fn lossless_disabled(&self, port: PortId) -> bool {
        self.wd[port.index()].lossless_disabled
    }

    /// The packet's priority group: the PCP bits or the DSCP value's low
    /// three bits (the paper's identity map), and priority 0 for untagged
    /// or non-IP packets.
    fn classify(&self, pkt: &Packet) -> Priority {
        const UNTAGGED: Priority = Priority::new(0);
        match self.cfg.classify {
            ClassifyMode::Vlan => pkt.pcp_priority().unwrap_or(UNTAGGED),
            ClassifyMode::Dscp => pkt.ip.map_or(UNTAGGED, |ip| Priority::new(ip.dscp & 0x7)),
        }
    }

    // ---- PFC handling ----

    fn on_pause_frame(&mut self, port: PortId, frame: &PauseFrame, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.wd[port.index()].last_pause_rx = now;
        if self.wd[port.index()].lossless_disabled {
            // Watchdog tripped: ignore pauses from this port entirely.
            return;
        }
        let rate = ctx
            .port_rate(port)
            .expect("a pause frame just arrived on this port, so it is wired");
        let mut any_pause = false;
        let mut resumed = false;
        for (prio, quanta) in frame.entries() {
            let e = self.egress[port.index()].get_or_insert_with(Box::default);
            if quanta == 0 {
                e.paused_until[prio.index()] = now;
                resumed = true;
            } else {
                any_pause = true;
                let until = now + SimTime(PfcPauseFrame::quanta_to_ps(quanta, rate));
                e.paused_until[prio.index()] = until;
                self.tele.hub.trace(
                    now.as_ps(),
                    self.tele.scope,
                    TraceEvent::PauseRx {
                        port: port.0,
                        prio: prio.index() as u8,
                    },
                );
                // Wake the port when the pause expires.
                ctx.set_timer_at(until, tok_kick(port));
            }
        }
        if any_pause {
            self.stats.pause_rx[port.index()] += 1;
            self.tele.incr_port(PortCounter::PauseRx, port);
        }
        if resumed {
            self.try_send(port, ctx);
        }
    }

    /// After ingress-counter growth, send XOFF upstream if we crossed the
    /// threshold.
    fn maybe_xoff(&mut self, ingress: PortId, pg: Priority, ctx: &mut Ctx<'_>) {
        if !self.cfg.is_lossless(pg) {
            return;
        }
        if !self.buffer.over_xoff(ingress.0, pg) || self.buffer.xoff(ingress.0, pg) {
            return;
        }
        self.buffer.set_xoff(ingress.0, pg, true);
        self.send_xoff(ingress, pg, ctx);
    }

    /// Send (or refresh) an XOFF for `pg` out of `port`, count and trace
    /// it, and arm the refresh that repeats it before the pause expires
    /// while the PG stays over XOFF. The port is wired: a frame just
    /// arrived on it, a threshold change checked it (and that checks wired
    /// ports only), or an XOFF went out of it before this refresh.
    fn send_xoff(&mut self, port: PortId, pg: Priority, ctx: &mut Ctx<'_>) {
        self.send_pause(port, pg, u16::MAX, ctx);
        self.stats.pause_tx[port.index()] += 1;
        self.tele.incr_port(PortCounter::PauseTx, port);
        self.tele.hub.trace(
            ctx.now().as_ps(),
            self.tele.scope,
            TraceEvent::PauseTx {
                port: port.0,
                prio: pg.index() as u8,
            },
        );
        let rate = ctx
            .port_rate(port)
            .expect("XOFF goes out of wired ports only");
        let refresh = SimTime(PfcPauseFrame::quanta_to_ps(u16::MAX, rate) / 2);
        ctx.set_timer(refresh, tok_refresh(port, pg));
    }

    /// After ingress-counter drain, send XON upstream if we fell below the
    /// resume threshold.
    fn maybe_xon(&mut self, ingress: PortId, pg: Priority, ctx: &mut Ctx<'_>) {
        if !self.buffer.xoff(ingress.0, pg) {
            return;
        }
        if self.buffer.below_xon(ingress.0, pg) {
            self.buffer.set_xoff(ingress.0, pg, false);
            self.send_pause(ingress, pg, 0, ctx);
            self.stats.resume_tx[ingress.index()] += 1;
            self.tele.incr_port(PortCounter::ResumeTx, ingress);
            self.tele.hub.trace(
                ctx.now().as_ps(),
                self.tele.scope,
                TraceEvent::ResumeTx {
                    port: ingress.0,
                    prio: pg.index() as u8,
                },
            );
        }
    }

    fn send_pause(&mut self, port: PortId, pg: Priority, quanta: u16, ctx: &mut Ctx<'_>) {
        let frame = if quanta == 0 {
            PauseFrame::resume(pg)
        } else {
            PauseFrame::pause(pg, quanta)
        };
        let e = self.egress[port.index()].get_or_insert_with(Box::default);
        e.ctrl.push_back(CtrlFrame {
            id: ctx.next_packet_id(),
            frame,
            created_ps: ctx.now().as_ps(),
        });
        self.try_send(port, ctx);
    }

    // ---- forwarding pipeline ----

    fn handle_data(&mut self, ingress: PortId, mut pkt: Packet, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        // Hardware source-MAC learning.
        if !pkt.eth.src.is_multicast() {
            self.mac_table.learn(pkt.eth.src, ingress, now);
        }
        let prio = self.classify(&pkt);
        let lossless = self.cfg.is_lossless(prio) && !self.wd[ingress.index()].lossless_disabled;

        // Watchdog: lossless traffic from a quarantined port is discarded.
        if self.cfg.is_lossless(prio) && self.wd[ingress.index()].lossless_disabled {
            self.note_drop(DropReason::WatchdogLosslessOff, now);
            return;
        }

        // VLAN-based PFC: trunk-mode server ports cannot accept untagged
        // packets — the PXE-boot breakage of §3.
        if self.cfg.classify == ClassifyMode::Vlan
            && pkt.eth.vlan.is_none()
            && self.cfg.role(ingress.0) == PortRole::Server
        {
            self.note_drop(DropReason::UntaggedOnTrunk, now);
            return;
        }

        // §4.1 fault injection.
        if let (Some(filter), Some(ip)) = (self.cfg.drop_ip_id_low_byte, pkt.ip) {
            if (ip.id & 0xff) as u8 == filter {
                self.note_drop(DropReason::InjectedFilter, now);
                return;
            }
        }

        // Forwarding decision.
        if pkt.eth.dst == self.router_mac {
            // L3 path.
            let Some(ip) = pkt.ip.as_mut() else {
                return; // non-IP addressed to the router: nothing to do
            };
            if ip.ttl <= 1 {
                self.note_drop(DropReason::TtlExpired, now);
                return;
            }
            ip.ttl -= 1;
            let dst_ip = ip.dst;
            enum Decision {
                Via(PortId),
                Connected,
            }
            let decision = match self.routes.lookup(dst_ip) {
                None => {
                    self.note_drop(DropReason::NoRoute, now);
                    return;
                }
                Some(NextHop::Via(group)) => {
                    let port = if self.cfg.per_packet_spraying {
                        self.spray_counter += 1;
                        group.ports()[(self.spray_counter as usize) % group.ports().len()]
                    } else {
                        match pkt.five_tuple() {
                            Some(t) => group.select(&t, self.salt),
                            None => group.ports()[(dst_ip as usize) % group.ports().len()],
                        }
                    };
                    Decision::Via(port)
                }
                Some(NextHop::Connected) => Decision::Connected,
            };
            match decision {
                Decision::Via(port) => {
                    pkt.eth.src = self.router_mac;
                    if let Some(mac) = self.peer_macs[port.index()] {
                        pkt.eth.dst = mac;
                    }
                    self.admit_and_enqueue(ingress, port, pkt, prio, lossless, false, ctx);
                }
                Decision::Connected => {
                    let Some(mac) = self.arp_table.lookup(dst_ip, now) else {
                        self.note_drop(DropReason::ArpMiss, now);
                        return;
                    };
                    pkt.eth.src = self.router_mac;
                    pkt.eth.dst = mac;
                    match self.mac_table.lookup(mac, now) {
                        Some(port) => {
                            self.admit_and_enqueue(ingress, port, pkt, prio, lossless, false, ctx);
                        }
                        None => {
                            // Incomplete ARP entry: IP→MAC known, MAC→port
                            // unknown. The standard behaviour is to flood —
                            // the §4.2 deadlock ingredient. The fix drops
                            // lossless packets instead.
                            if self.cfg.drop_lossless_on_incomplete_arp && lossless {
                                self.note_drop(DropReason::IncompleteArpLossless, now);
                                return;
                            }
                            self.flood(ingress, pkt, prio, lossless, ctx);
                        }
                    }
                }
            }
        } else if pkt.eth.dst.is_multicast() {
            self.flood(ingress, pkt, prio, lossless, ctx);
        } else {
            // L2 bridging path.
            match self.mac_table.lookup(pkt.eth.dst, now) {
                Some(port) if port == ingress => { /* already there; drop quietly */ }
                Some(port) => {
                    self.admit_and_enqueue(ingress, port, pkt, prio, lossless, false, ctx);
                }
                None => {
                    if self.cfg.drop_lossless_on_incomplete_arp && lossless {
                        self.note_drop(DropReason::IncompleteArpLossless, now);
                        return;
                    }
                    self.flood(ingress, pkt, prio, lossless, ctx);
                }
            }
        }
    }

    /// Flood to every connected port except the ingress. Each copy is
    /// admitted (and accounted) separately; copies landing on fabric ports
    /// will be discarded at the head of the egress queue.
    fn flood(
        &mut self,
        ingress: PortId,
        pkt: Packet,
        prio: Priority,
        lossless: bool,
        ctx: &mut Ctx<'_>,
    ) {
        for p in 0..self.cfg.ports {
            let port = PortId(p);
            if port == ingress || !ctx.port_connected(port) {
                continue;
            }
            self.admit_and_enqueue(ingress, port, pkt, prio, lossless, true, ctx);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn admit_and_enqueue(
        &mut self,
        ingress: PortId,
        egress: PortId,
        mut pkt: Packet,
        prio: Priority,
        lossless: bool,
        flood_copy: bool,
        ctx: &mut Ctx<'_>,
    ) {
        // Watchdog: lossless traffic to a quarantined port is discarded.
        if self.cfg.is_lossless(prio) && self.wd[egress.index()].lossless_disabled {
            self.note_drop(DropReason::WatchdogLosslessOff, ctx.now());
            return;
        }
        let bytes = pkt.wire_size();
        let outcome = self.buffer.admit(ingress.0, prio, bytes as u64, lossless);
        if outcome == AdmitOutcome::Drop {
            let reason = if lossless {
                DropReason::LosslessOverflow
            } else {
                DropReason::LossyOverflow
            };
            self.note_drop(reason, ctx.now());
            return;
        }
        // DCQCN congestion point: mark on egress queue depth at enqueue.
        // Marking is memoryless, so `cfg.ecn` is its whole state.
        let e = self.egress[egress.index()].get_or_insert_with(Box::default);
        if pkt.ip.map(|ip| ip.ecn) == Some(EcnCodepoint::Ect) {
            let depth = e.queue_bytes[prio.index()] as u64;
            if self.cfg.ecn[prio.index()] {
                let draw: f64 = ctx.rng().gen_f64();
                if rocescale_dcqcn::should_mark(depth, draw) {
                    if let Some(ip) = pkt.ip.as_mut() {
                        ip.ecn = EcnCodepoint::Ce;
                    }
                    self.stats.ecn_marked += 1;
                    self.tele.incr(SwitchCounter::EcnMarked);
                }
            }
        }
        // Hop streaming: capture flow identity before the packet moves
        // into the queue. Guarded so a detached sink keeps the
        // per-packet path at one relaxed load.
        let hop_flow = if self.tele.hub.streams_hops() {
            Some(pkt.ip.map_or((0, 0), |ip| (ip.src, ip.dst)))
        } else {
            None
        };
        let acct = Acct {
            ingress,
            pg: prio,
            outcome,
        };
        e.push(
            prio.index(),
            QueuedPkt {
                pkt: ctx.park(pkt),
                bytes,
                acct,
                flood_copy,
            },
        );
        let total = e.total_bytes();
        if let Some((src_ip, dst_ip)) = hop_flow {
            self.tele.hub.stream_hop(
                ctx.now().as_ps(),
                self.tele.scope,
                HopRecord {
                    port: egress.0,
                    prio: prio.index() as u8,
                    bytes,
                    src_ip,
                    dst_ip,
                    queue_bytes: total,
                },
            );
        }
        let peak = &mut self.stats.peak_egress_bytes[egress.index()];
        *peak = (*peak).max(total);
        // Ingress-counter growth may cross XOFF.
        self.maybe_xoff(ingress, prio, ctx);
        self.try_send(egress, ctx);
    }

    // ---- egress scheduling ----

    /// Try to start a transmission on `port`.
    fn try_send(&mut self, port: PortId, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        // `in_flight` still set means the previous packet's PortIdle event
        // has not fired yet (it may share this event's timestamp): the
        // port is logically busy, and starting another transmission here
        // would overwrite `in_flight` and leak its buffer accounting.
        // A port never materialised has nothing to send.
        let Some(e) = self.egress[port.index()].as_deref_mut() else {
            return;
        };
        if ctx.port_busy(port) || !ctx.port_connected(port) || e.in_flight.is_some() {
            return;
        }
        // Control frames (PFC) first; they are never paused.
        if let Some(cf) = e.ctrl.pop_front() {
            let pkt = Packet::new(
                cf.id,
                rocescale_packet::EthMeta {
                    src: self.router_mac,
                    dst: MacAddr::PAUSE_MULTICAST,
                    vlan: None,
                },
                None,
                PacketKind::Pfc(cf.frame),
                cf.created_ps,
            );
            self.stats.tx_pkts[port.index()] += 1;
            self.stats.tx_bytes[port.index()] += pkt.wire_size() as u64;
            let _ = ctx.transmit(port, pkt);
            return;
        }
        loop {
            let e = self.egress[port.index()]
                .as_deref_mut()
                .expect("materialised above");
            let Some(prio) = e.pick_queue(&self.cfg.weights, now) else {
                return;
            };
            let qp = e.pop(prio).expect("picked nonempty queue");
            let bytes = qp.bytes;
            // Flood copies die at the head of fabric-port queues: the
            // destination MAC matches no next hop (Figure 4).
            if qp.flood_copy && self.cfg.role(port.0) == PortRole::Fabric {
                ctx.discard(qp.pkt);
                self.release(qp.acct, bytes, ctx);
                self.note_drop(DropReason::FloodCopyAtFabricHead, now);
                continue; // same transmission opportunity: try the next packet
            }
            e.in_flight = Some((qp.acct, bytes));
            self.stats.tx_pkts[port.index()] += 1;
            self.stats.tx_bytes[port.index()] += bytes as u64;
            self.stats.tx_bytes_per_prio[prio] += bytes as u64;
            if ctx.transmit_parked(port, qp.pkt, bytes).is_err() {
                unreachable!("checked idle and connected");
            }
            return;
        }
    }

    /// Release buffer accounting for a packet that left (or was dropped at
    /// the head of) an egress queue, and maybe XON its ingress.
    fn release(&mut self, acct: Acct, bytes: u32, ctx: &mut Ctx<'_>) {
        self.buffer
            .release(acct.ingress.0, acct.pg, bytes as u64, acct.outcome);
        self.maybe_xon(acct.ingress, acct.pg, ctx);
    }

    /// Drop every packet queued for `prio` at `port`, front to back —
    /// freeing its slab slot, releasing its buffer and counting the drop
    /// as `reason` — and clear the priority's pause. A release can only
    /// queue an XON and start it at once (or find its port busy), never
    /// start a data packet, so flushing in place sends exactly what
    /// emptying the queue first would.
    fn flush_queue(&mut self, port: PortId, prio: usize, reason: DropReason, ctx: &mut Ctx<'_>) {
        let Some(e) = self.egress[port.index()].as_deref_mut() else {
            return;
        };
        e.paused_until[prio] = SimTime::ZERO;
        while let Some(qp) = self.egress[port.index()]
            .as_deref_mut()
            .and_then(|e| e.pop(prio))
        {
            ctx.discard(qp.pkt);
            self.release(qp.acct, qp.bytes, ctx);
            self.note_drop(reason, ctx.now());
        }
    }

    // ---- watchdog ----

    fn watchdog_scan(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let wd_cfg = self.cfg.watchdog;
        for p in 0..self.cfg.ports as usize {
            if self.cfg.role(p as u16) != PortRole::Server {
                continue;
            }
            let receiving_pauses = now.saturating_sub(self.wd[p].last_pause_rx)
                < wd_cfg.poll_every + wd_cfg.poll_every;
            if self.wd[p].lossless_disabled {
                // Re-enable once the storm has been quiet long enough.
                if now.saturating_sub(self.wd[p].last_pause_rx) >= wd_cfg.reenable_after {
                    self.wd[p].lossless_disabled = false;
                    self.wd[p].undrainable_since = SimTime::MAX;
                    self.stats.watchdog_reenables += 1;
                    self.tele.incr(SwitchCounter::WatchdogReenables);
                    self.tele.hub.trace(
                        now.as_ps(),
                        self.tele.scope,
                        TraceEvent::WatchdogReenabled { port: p as u16 },
                    );
                }
                continue;
            }
            let backlog = self.egress[p]
                .as_ref()
                .is_some_and(|e| e.has_lossless_backlog(&self.cfg.lossless));
            if backlog && receiving_pauses {
                let since = &mut self.wd[p].undrainable_since;
                if *since == SimTime::MAX {
                    *since = now;
                }
                let since = *since;
                if now.saturating_sub(since) >= wd_cfg.disable_after {
                    self.trip_watchdog(PortId(p as u16), ctx);
                }
            } else {
                self.wd[p].undrainable_since = SimTime::MAX;
            }
        }
        ctx.set_timer(wd_cfg.poll_every, TOK_WATCHDOG << TOK_KIND_SHIFT);
    }

    /// Disable lossless mode on a port: flush its queued lossless packets
    /// (releasing their buffer — this is what un-sticks the fabric) and
    /// clear its pause state.
    fn trip_watchdog(&mut self, port: PortId, ctx: &mut Ctx<'_>) {
        self.wd[port.index()].lossless_disabled = true;
        self.stats.watchdog_disables += 1;
        self.tele.incr(SwitchCounter::WatchdogDisables);
        self.tele.hub.trace(
            ctx.now().as_ps(),
            self.tele.scope,
            TraceEvent::WatchdogDisabled { port: port.0 },
        );
        for i in 0..Priority::COUNT {
            if self.cfg.lossless[i] {
                self.flush_queue(port, i, DropReason::WatchdogLosslessOff, ctx);
            }
        }
        self.try_send(port, ctx);
    }

    // ---- runtime administration (fault scripts) ----

    /// Park an [`AdminAction`] and return the timer token that executes
    /// it. Schedule the token (via `World::schedule_timer` or
    /// `Ctx::set_timer_at`) at the incident time; an unscheduled or
    /// never-fired token adds zero events, so an empty script is
    /// digest-invisible.
    pub fn schedule_admin(&mut self, action: AdminAction) -> u64 {
        let idx = self.admin.len() as u64;
        assert!(idx < (1 << 48), "admin action index overflow");
        self.admin.push(action);
        (TOK_ADMIN << TOK_KIND_SHIFT) | idx
    }

    /// Turn lossless mode for `prio` on or off at runtime. Turning it
    /// *off* flushes every egress queue of that priority exactly once —
    /// packets are released from the shared buffer (un-sticking any
    /// upstream pause) and accounted as [`DropReason::AdminLosslessOff`]
    /// drops — and clears the priority's pause state on every port.
    /// Turning it back on only restores the flag; queues refill from
    /// live traffic. A no-change call is a no-op.
    pub fn set_lossless(&mut self, prio: Priority, on: bool, ctx: &mut Ctx<'_>) {
        if self.cfg.lossless[prio.index()] == on {
            return;
        }
        self.cfg.lossless[prio.index()] = on;
        if on {
            return;
        }
        for p in 0..self.cfg.ports {
            self.flush_queue(PortId(p), prio.index(), DropReason::AdminLosslessOff, ctx);
        }
        for p in 0..self.cfg.ports {
            self.try_send(PortId(p), ctx);
        }
    }

    /// Execute a parked admin action (the `TOK_ADMIN` timer handler).
    fn apply_admin(&mut self, idx: usize, ctx: &mut Ctx<'_>) {
        let Some(action) = self.admin.get(idx).cloned() else {
            return;
        };
        match action {
            AdminAction::LinkSet { port, up } => {
                ctx.set_link_up(port, up);
                if up {
                    self.try_send(port, ctx);
                    ctx.wake_peer(port);
                }
            }
            AdminAction::SetLossless { prio, on } => {
                self.set_lossless(Priority::new(prio), on, ctx);
            }
            AdminAction::SetThresholds { alpha, xoff_static } => {
                self.buffer.set_thresholds(alpha, xoff_static);
                // A tighter threshold can put counters over XOFF right
                // now — surface the pauses immediately, as the ASIC's
                // comparator would. Only a wired port has an upstream to
                // pause.
                for p in 0..self.cfg.ports {
                    if ctx.port_rate(PortId(p)).is_none() {
                        continue;
                    }
                    for i in 0..Priority::COUNT {
                        if self.cfg.lossless[i] {
                            self.maybe_xoff(PortId(p), Priority::new(i as u8), ctx);
                        }
                    }
                }
            }
            AdminAction::Reroute { prefix, len, ports } => {
                self.routes
                    .replace(prefix, len, crate::routing::EcmpGroup::new(ports));
            }
            AdminAction::EvictMac { mac } => self.evict_mac(mac),
            AdminAction::SeedMac { mac, port } => self.seed_mac(mac, port, ctx.now()),
        }
    }
}

impl Node for Switch {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.cfg.watchdog.enabled {
            ctx.set_timer(self.cfg.watchdog.poll_every, TOK_WATCHDOG << TOK_KIND_SHIFT);
        }
    }

    fn on_packet(&mut self, port: PortId, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.stats.rx_pkts[port.index()] += 1;
        if let PacketKind::Pfc(frame) = pkt.kind {
            self.on_pause_frame(port, &frame, ctx);
            return;
        }
        self.handle_data(port, pkt, ctx);
    }

    fn on_port_idle(&mut self, port: PortId, ctx: &mut Ctx<'_>) {
        // The packet that was serializing has fully left: release its
        // buffer accounting, then start the next one.
        if let Some((acct, bytes)) = self.egress[port.index()]
            .as_deref_mut()
            .and_then(|e| e.in_flight.take())
        {
            self.release(acct, bytes, ctx);
        }
        self.try_send(port, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        match token >> TOK_KIND_SHIFT {
            TOK_KICK => {
                let port = PortId((token & 0xffff) as u16);
                self.try_send(port, ctx);
            }
            TOK_PAUSE_REFRESH => {
                let port = PortId((token & 0xffff) as u16);
                let pg = Priority::new(((token >> 16) & 0x7) as u8);
                if self.buffer.xoff(port.0, pg) {
                    // Still over XOFF: refresh the pause.
                    self.send_xoff(port, pg, ctx);
                }
            }
            TOK_WATCHDOG => self.watchdog_scan(ctx),
            TOK_ADMIN => self.apply_admin((token & ((1 << TOK_KIND_SHIFT) - 1)) as usize, ctx),
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
