//! The RDMA host node: QPs, pacing, congestion control, host-side PFC,
//! the receive pipeline, and built-in workload applications.
//!
//! Congestion control is pluggable: the host drives the sans-IO
//! [`rocescale_cc::SenderCc`] role via typed signals instead of a
//! concrete DCQCN implementation, so DCQCN, TIMELY-style delay-gradient
//! control, and fixed-rate pacing all thread through the same
//! pump/receive paths. DCQCN's notification point
//! ([`rocescale_dcqcn::NpState`]) runs per QP whatever the sender's
//! controller — non-DCQCN senders simply ignore CNPs — which keeps
//! receive-side behaviour identical across congestion-control ablations.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

use rocescale_cc::{CcAction, CcKind, CcSignal, CongestionControl, SenderCc};
use rocescale_dcqcn::NpState;
use rocescale_monitor::{BlockId, Group, HistogramId, MetricsHub, Path, ScopeId, TraceEvent};
use rocescale_packet::{
    EcnCodepoint, EthMeta, Ipv4Meta, MacAddr, Packet, PacketKind, PauseFrame, PfcMode,
    PfcPauseFrame, Priority, RoceOpcode, RocePacket,
};
use rocescale_sim::{Ctx, Node, PortId, SimTime};
use rocescale_transport::{
    Completion, PacketDesc, QpConfig, QpEndpoint, TransportEvent, Verb, WrId,
};

use crate::mtt::{MttCache, MttConfig};

/// Priority class for RDMA traffic: the paper's bulk lossless class.
const RDMA_PRIORITY: Priority = Priority::new(3);
/// VLAN ID of every tagged frame under VLAN-based PFC.
const VLAN_ID: u16 = 100;

/// Receive buffer size in bytes.
const RX_BUFFER_BYTES: u64 = 512 * 1024;
/// The receive pipeline emits a PFC pause when occupancy crosses this…
const RX_XOFF_BYTES: u64 = 256 * 1024;
/// …and a resume when occupancy falls to this.
const RX_XON_BYTES: u64 = 128 * 1024;

/// Receive-pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct RxConfig {
    /// Fixed per-packet processing time of the pipeline.
    pub per_packet_ps: u64,
    /// MTT cache model; `None` disables translation stalls.
    pub mtt: Option<MttConfig>,
}

impl Default for RxConfig {
    fn default() -> RxConfig {
        RxConfig {
            per_packet_ps: 100_000, // 100 ns — keeps up with 40G line rate
            mtt: None,
        }
    }
}

/// Host/NIC configuration.
#[derive(Debug, Clone)]
pub struct NicConfig {
    /// Name for traces; shared with the topology node it was built from.
    pub name: Arc<str>,
    /// NIC MAC address.
    pub mac: MacAddr,
    /// Host IP.
    pub ip: u32,
    /// MAC of the ToR's routed interface (hosts are statically provisioned
    /// with their gateway; ARP bootstrap is out of scope).
    pub gateway_mac: MacAddr,
    /// Link rate, bits/second.
    pub link_bps: u64,
    /// PFC tagging: the priority in the DSCP field of an untagged frame,
    /// or in the PCP bits of an 802.1Q tag.
    pub pfc_mode: PfcMode,
    /// Default transport configuration for new QPs.
    pub qp_defaults: QpConfig,
    /// Sender-side congestion control, run at `link_bps`: DCQCN reaction
    /// point, TIMELY-style delay gradient, or fixed-rate pacing
    /// ([`CcKind::Off`] disables rate control).
    pub cc: CcKind,
    /// Receive pipeline.
    pub rx: RxConfig,
    /// NIC-side storm watchdog: disable pause generation once the receive
    /// pipeline has been stalled this long while pausing (§4.3; the
    /// paper's default is 100 ms). `None` disables the watchdog.
    pub nic_watchdog_after: Option<SimTime>,
    /// Telemetry bus handle. Disabled by default; when enabled the host
    /// registers its counters under `nic.{name}.…` (plus per-QP
    /// instruments under `nic.{name}.qp.{qpn}.…`) and feeds the flight
    /// recorder (pauses, rollbacks, rate changes, watchdog fires).
    pub telemetry: MetricsHub,
}

impl NicConfig {
    /// A 40 GbE host with the paper's recommended settings (DSCP-based
    /// PFC, go-back-N, DCQCN on).
    pub fn new(name: impl Into<Arc<str>>, id: u32, ip: u32, gateway_mac: MacAddr) -> NicConfig {
        NicConfig {
            name: name.into(),
            mac: MacAddr::from_id(id),
            ip,
            gateway_mac,
            link_bps: 40_000_000_000,
            pfc_mode: PfcMode::Dscp,
            qp_defaults: QpConfig::default(),
            cc: CcKind::Dcqcn,
            rx: RxConfig::default(),
            nic_watchdog_after: None,
            telemetry: MetricsHub::disabled(),
        }
    }
}

/// Per-QP application behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QpApp {
    /// Passive: only what is explicitly posted.
    None,
    /// Keep `inflight` messages of `msg_len` bytes posted at all times —
    /// the "send as fast as possible" generators of §4.1 and Figure 7.
    Saturate {
        /// Message length, bytes.
        msg_len: u32,
        /// Messages kept outstanding.
        inflight: u32,
    },
    /// Saturate with a budget: keep `inflight` messages posted until
    /// `count` have been sent in total, then go quiet. The bulk-transfer
    /// shape of fleet workloads — a burst drains and the QP idles, so
    /// large-scale runs have genuine quiet spans for the sharded
    /// engine's adaptive epoch skipping to exploit.
    Burst {
        /// Message length, bytes.
        msg_len: u32,
        /// Total messages to send before going quiet.
        count: u32,
        /// Messages kept outstanding while budget remains.
        inflight: u32,
    },
    /// Reply to every received message with one of `reply_len` bytes —
    /// the response half of the incast service (Figure 6).
    Echo {
        /// Reply length, bytes.
        reply_len: u32,
    },
    /// Periodically send a `payload`-byte message and measure the RTT to
    /// the peer's (Echo) reply — Pingmesh probes (§5.3) and the query
    /// half of the incast service.
    Pinger {
        /// Probe payload, bytes (Pingmesh uses 512).
        payload: u32,
        /// Probe period.
        interval: SimTime,
        /// Phase offset of the first probe.
        start_at: SimTime,
    },
}

/// Host-level application behaviour (spanning QPs).
#[derive(Debug, Clone, PartialEq)]
pub enum HostApp {
    /// Nothing.
    None,
    /// Every `interval`, send a `query_len` query on *all* listed QPs at
    /// once — the fan-out that makes incast (Figure 6's chatty servers,
    /// §6.2's "queries to more than one thousand servers simultaneously").
    Fanout {
        /// QPs to query (indices from [`RdmaHost::add_qp`]).
        qps: Vec<QpHandle>,
        /// Query period.
        interval: SimTime,
        /// Query length, bytes.
        query_len: u32,
        /// First fan-out time.
        start_at: SimTime,
    },
}

/// Identifies a QP on its host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QpHandle(pub u32);

/// Host counters.
#[derive(Debug, Clone, Default)]
pub struct HostStats {
    /// Data packets sent (transport, excluding control).
    pub data_pkts_tx: u64,
    /// Data bytes sent on the wire (all frames).
    pub tx_bytes: u64,
    /// Data packets received and processed.
    pub data_pkts_rx: u64,
    /// Pause frames sent by this host (slow receiver / storm).
    pub pause_tx: u64,
    /// Pause frames received (the fabric throttling us).
    pub pause_rx: u64,
    /// CNPs sent (NP role).
    pub cnp_tx: u64,
    /// CNPs received (RP role).
    pub cnp_rx: u64,
    /// Packets dropped because the receive buffer overflowed.
    pub rx_overflow: u64,
    /// Packets dropped because the NIC was in storm mode.
    pub rx_storm_dropped: u64,
    /// Completed RTT measurements, picoseconds (Pinger/Fanout apps).
    pub rtt_samples_ps: Vec<u64>,
    /// Total send-side message completions.
    pub send_completions: u64,
    /// Times the NIC watchdog disabled pause generation.
    pub nic_watchdog_fired: u64,
}

struct Qp {
    endpoint: QpEndpoint,
    peer_ip: u32,
    peer_qp: u32,
    udp_src: u16,
    /// Sender-role congestion control (enum dispatch: determinism-cheap).
    cc: SenderCc,
    /// DCQCN notification point: when CE-marked arrivals earn a CNP.
    np: NpState,
    /// Next time pacing allows a data packet, ps.
    next_tx_ps: u64,
    app: QpApp,
    /// Send timestamps of tracked (RTT-measured) messages, FIFO.
    pending_rtt: VecDeque<u64>,
    /// Cumulative received payload offset (MTT access pattern).
    rx_offset: u64,
    /// Messages currently posted by a Saturate/Burst app.
    posted: u32,
    /// Messages a Burst app may still post (0 once the budget drains).
    burst_remaining: u32,
    wr_seq: u64,
    /// The QP's block of [`qp_counters`].
    tele: BlockId,
}

impl Qp {
    /// Post a work request (`tracked` starts an RTT measurement).
    fn post(&mut self, verb: Verb, now: SimTime, tracked: bool) {
        let wr = WrId(self.wr_seq);
        self.wr_seq += 1;
        self.endpoint.post(verb, wr);
        if tracked {
            self.pending_rtt.push_back(now.as_ps());
        }
    }

    /// Top up a Saturate/Burst generator to its inflight target,
    /// spending Burst budget as it goes. No-op for other apps.
    fn refill_app(&mut self) {
        match self.app {
            QpApp::Saturate { msg_len, inflight } => {
                while self.posted < inflight {
                    let wr = WrId(self.wr_seq);
                    self.wr_seq += 1;
                    self.endpoint.post(Verb::Send { len: msg_len }, wr);
                    self.posted += 1;
                }
            }
            QpApp::Burst {
                msg_len, inflight, ..
            } => {
                while self.posted < inflight && self.burst_remaining > 0 {
                    let wr = WrId(self.wr_seq);
                    self.wr_seq += 1;
                    self.endpoint.post(Verb::Send { len: msg_len }, wr);
                    self.posted += 1;
                    self.burst_remaining -= 1;
                }
            }
            _ => {}
        }
    }
}

// Timer tokens.
const TOK_PUMP: u64 = 1;
const TOK_CC_TICK: u64 = 2;
const TOK_RX_DONE: u64 = 3;
const TOK_RTO: u64 = 4;
const TOK_QP_APP_BASE: u64 = 1 << 32; // + qpn
const TOK_FANOUT: u64 = 5;
const TOK_PAUSE_REFRESH: u64 = 6;
const TOK_STORM_TICK: u64 = 7;
/// Public token: schedule with [`rocescale_sim::World::schedule_timer`] to
/// put the NIC into storm mode at a chosen instant (§4.3 fault injection).
pub const TOK_INJECT_STORM: u64 = 100;
/// Public token: end a pause storm started by [`TOK_INJECT_STORM`] — the
/// fault-script "storm stop" action. The NIC resumes its peer (unless its
/// own watchdog already cut pause generation) and restarts reception.
pub const TOK_STOP_STORM: u64 = 101;
/// Public token: wake the host after work was handed to it from outside
/// the event loop on a world that has already run — [`RdmaHost::add_qp`]
/// or [`RdmaHost::post`] through `World::node_mut`. Nothing periodic
/// runs on an idle host, so without the wake the work waits for the
/// host's next packet or timer. The wake queues one pass of each
/// periodic timer, and the first of them to fire — the next 55 µs or
/// 100 µs line — runs the transmit pump and finds the work. Schedule it
/// at `world.now()` with [`rocescale_sim::World::schedule_timer`];
/// `Cluster::connect_qp` does this for its callers.
pub const TOK_WAKE: u64 = 102;

// The two periodic timers are demand-armed: each is queued only while it
// has something to do, and while queued it fires on multiples of its
// period from t = 0 (`Ctx::set_timer_on_grid`), the instants an
// always-armed timer would fire on.
//
// Token 2 is the congestion-control tick; its period comes from
// `CcKind::tick_period_ps` — 55 µs for DCQCN's alpha/increase timers,
// which run per QP whatever its rate, so the tick is armed while the host
// owns a QP. Token 4 is the retransmission-timeout scan, armed while some
// QP has unacknowledged packets.
const RTO_SCAN: SimTime = SimTime::from_micros(100);
const STORM_REFRESH: SimTime = SimTime::from_micros(100);

/// The host's counters, in its block's order: `nic.{name}.{leaf}`.
const NIC_COUNTERS: &[&str] = &[
    "pfc.xoff_tx",
    "pfc.xoff_rx",
    "dcqcn.cnp_tx",
    "dcqcn.cnp_rx",
    "rx.overflow",
    "rx.storm_dropped",
    "watchdog.fired",
];

/// The host's telemetry: its block — the [`NIC_COUNTERS`] and then the
/// RTT histogram `nic.{name}.rtt_ps`, fed by Pinger/Fanout apps — and
/// its trace scope. One word; all sentinels on a disabled hub, where
/// registering formats and stores nothing. Each QP registers a block of
/// its own under the host's scope ([`qp_counters`]). The counters are
/// copies, made by [`RdmaHost::publish_counters`].
#[derive(Clone, Copy, Default)]
struct NicTele {
    base: BlockId,
    scope: ScopeId,
}

impl NicTele {
    fn register(cfg: &NicConfig) -> NicTele {
        let block = cfg.telemetry.register(
            Path::of("nic", cfg.name.clone()),
            &[
                Group::counters(NIC_COUNTERS),
                Group::histograms(&["rtt_ps"]),
            ],
        );
        NicTele {
            base: block.base,
            scope: block.scope,
        }
    }

    fn rtt_ps(self) -> HistogramId {
        self.base.histogram(NIC_COUNTERS.len() as u32)
    }
}

/// A QP's counters, `nic.{name}.qp.{qpn}.{leaf}`: the packets its
/// transport retransmitted (`QpStats::retx_pkts`), and the pacing-rate
/// moves (`SenderCc::rate_changes`) named for the controller that made
/// them.
fn qp_counters(cc: CcKind) -> &'static [&'static str] {
    match cc {
        CcKind::Dcqcn => &["retransmits", "dcqcn.rate_changes"],
        CcKind::Timely => &["retransmits", "timely.rate_changes"],
        CcKind::Off => &["retransmits", "off.rate_changes"],
    }
}

/// The RDMA host node.
///
/// Most servers of a fleet never own a QP, so a host keeps its working
/// state — queues, pause deadlines, pacing, round-robin and timer state,
/// QPs and host app — in a `NicWork` box materialised on first use: a
/// QP or host app installed, a storm injected, a timer, a pause frame,
/// or a packet that passes the MAC filter. Until then the host is its
/// configuration, its counters and two null pointers, and every event
/// it could see without materialising (start, port idle, a flooded
/// frame for another MAC) is one that would find nothing to do.
pub struct RdmaHost {
    cfg: NicConfig,
    /// Telemetry instruments (sentinels while the hub is disabled).
    tele: NicTele,
    /// Working state; `None` until first use.
    work: Option<Box<NicWork>>,
    /// Counters.
    pub stats: HostStats,
}

/// An [`RdmaHost`]'s working state.
struct NicWork {
    qps: Vec<Qp>,
    host_app: HostApp,
    /// Control packets (ACK/NAK/CNP) awaiting transmission.
    ctrl: VecDeque<Packet>,
    /// Pause frames awaiting transmission (bypass everything).
    pause_out: VecDeque<Packet>,
    /// Host egress pause state per priority (PFC reaction).
    paused_until: [SimTime; Priority::COUNT],
    /// Round-robin pointer over QPs.
    rr: usize,
    /// Sequential IP ID counter (§4.1's determinism).
    ip_id: u16,
    // --- receive pipeline ---
    rx_queue: VecDeque<Packet>,
    rx_occupancy: u64,
    rx_busy: bool,
    /// Host is in XOFF state toward the switch.
    host_xoff: bool,
    /// Boxed: most hosts configure no MTT model.
    mtt: Option<Box<MttCache>>,
    /// Time the pipeline last completed a packet (watchdog input).
    last_rx_progress: SimTime,
    // --- storm state ---
    storm: bool,
    pause_gen_disabled: bool,
    // --- demand-armed periodic timers ---
    /// A `TOK_CC_TICK` is queued.
    tick_armed: bool,
    /// A `TOK_RTO` scan is queued.
    rto_armed: bool,
    /// The instant of the last `TOK_PUMP` queued (see
    /// [`Active::pump_at`]). Pumps are only ever queued strictly in the
    /// future, so the initial zero matches none.
    pump_queued: SimTime,
}

impl NicWork {
    fn new(cfg: &NicConfig) -> Box<NicWork> {
        Box::new(NicWork {
            qps: Vec::new(),
            host_app: HostApp::None,
            ctrl: VecDeque::new(),
            pause_out: VecDeque::new(),
            paused_until: [SimTime::ZERO; Priority::COUNT],
            rr: 0,
            ip_id: 0,
            rx_queue: VecDeque::new(),
            rx_occupancy: 0,
            rx_busy: false,
            host_xoff: false,
            mtt: cfg.rx.mtt.map(|m| Box::new(MttCache::new(m))),
            last_rx_progress: SimTime::ZERO,
            storm: false,
            pause_gen_disabled: false,
            tick_armed: false,
            rto_armed: false,
            pump_queued: SimTime::ZERO,
        })
    }
}

impl RdmaHost {
    /// Build a host from its configuration.
    pub fn new(cfg: NicConfig) -> RdmaHost {
        RdmaHost {
            tele: NicTele::register(&cfg),
            cfg,
            work: None,
            stats: HostStats::default(),
        }
    }

    /// The host with its working state, materialising it.
    fn active(&mut self) -> Active<'_> {
        let w = self.work.get_or_insert_with(|| NicWork::new(&self.cfg));
        Active {
            cfg: &self.cfg,
            tele: self.tele,
            stats: &mut self.stats,
            w,
        }
    }

    /// The host with its working state, or `None` while it has none.
    fn running(&mut self) -> Option<Active<'_>> {
        let w = self.work.as_deref_mut()?;
        Some(Active {
            cfg: &self.cfg,
            tele: self.tele,
            stats: &mut self.stats,
            w,
        })
    }

    fn qps(&self) -> &[Qp] {
        self.work.as_ref().map_or(&[], |w| &w.qps)
    }

    /// The configuration.
    pub fn config(&self) -> &NicConfig {
        &self.cfg
    }

    /// Create a QP to `peer_ip`/`peer_qp`. `udp_src` is the per-QP random
    /// UDP source port (the ECMP path selector); both ends must agree on
    /// each other's QP numbers. On a world that has already run, follow
    /// with a [`TOK_WAKE`].
    pub fn add_qp(&mut self, peer_ip: u32, peer_qp: u32, udp_src: u16, app: QpApp) -> QpHandle {
        let w = self.work.get_or_insert_with(|| NicWork::new(&self.cfg));
        let qpn = w.qps.len() as u32;
        let mut qp = Qp {
            endpoint: QpEndpoint::new(self.cfg.qp_defaults),
            peer_ip,
            peer_qp,
            udp_src,
            cc: SenderCc::new(&self.cfg.cc, self.cfg.link_bps),
            np: NpState::default(),
            next_tx_ps: 0,
            app,
            pending_rtt: VecDeque::new(),
            rx_offset: 0,
            posted: 0,
            burst_remaining: match app {
                QpApp::Burst { count, .. } => count,
                _ => 0,
            },
            wr_seq: 0,
            tele: self.cfg.telemetry.register_in(
                self.tele.scope,
                &[Group::counters(qp_counters(self.cfg.cc)).at("qp", qpn)],
            ),
        };
        // Prime saturating apps here so QPs created mid-run start sending
        // once the host is woken ([`TOK_WAKE`]).
        qp.refill_app();
        w.qps.push(qp);
        QpHandle(qpn)
    }

    /// Install a host-level application.
    pub fn set_host_app(&mut self, app: HostApp) {
        self.active().w.host_app = app;
    }

    /// Post a work request on a QP (programmatic workloads; `tracked`
    /// pushes an RTT measurement start for the message). Outside the
    /// event loop on a world that has already run, follow with a
    /// [`TOK_WAKE`].
    pub fn post(&mut self, qp: QpHandle, verb: Verb, now: SimTime, tracked: bool) {
        self.active().w.qps[qp.0 as usize].post(verb, now, tracked);
    }

    /// Read access to a QP's transport endpoint (stats, goodput).
    pub fn qp_endpoint(&self, qp: QpHandle) -> &QpEndpoint {
        &self.qps()[qp.0 as usize].endpoint
    }

    /// Current congestion-controlled pacing rate of a QP, b/s (line rate
    /// when congestion control is off).
    pub fn qp_rate_bps(&self, qp: QpHandle) -> f64 {
        self.qps()[qp.0 as usize].cc.rate_bps()
    }

    /// Number of QPs.
    pub fn qp_count(&self) -> usize {
        self.qps().len()
    }

    /// Sum of goodput bytes over all QPs (receiver side).
    pub fn total_goodput_bytes(&self) -> u64 {
        self.qps().iter().map(|q| q.endpoint.goodput_bytes()).sum()
    }

    /// Is the NIC in storm mode?
    pub fn in_storm(&self) -> bool {
        self.work.as_ref().is_some_and(|w| w.storm)
    }

    /// MTT cache (hits, misses), if an MTT model is configured.
    pub fn mtt_counters(&self) -> Option<(u64, u64)> {
        match &self.work {
            Some(w) => w.mtt.as_ref().map(|m| m.counters()),
            None => self.cfg.rx.mtt.map(|_| (0, 0)),
        }
    }

    /// Has the NIC watchdog disabled pause generation?
    pub fn pause_generation_disabled(&self) -> bool {
        self.work.as_ref().is_some_and(|w| w.pause_gen_disabled)
    }

    /// Times a QP's congestion controller moved its pacing rate.
    pub fn qp_rate_changes(&self, qp: QpHandle) -> u64 {
        self.qps()[qp.0 as usize].cc.rate_changes()
    }

    /// Copy [`HostStats`]' event counts, and each QP's retransmitted
    /// packets and rate moves, into the host's telemetry blocks, under
    /// one acquisition of the hub's lock — the hub reads these counts, it
    /// keeps none of its own.
    pub fn publish_counters(&self) {
        let s = &self.stats;
        // In `NIC_COUNTERS`' order.
        let host = [
            s.pause_tx,
            s.pause_rx,
            s.cnp_tx,
            s.cnp_rx,
            s.rx_overflow,
            s.rx_storm_dropped,
            s.nic_watchdog_fired,
        ];
        self.cfg.telemetry.update(|u| {
            for (k, v) in host.into_iter().enumerate() {
                u.set_counter(self.tele.base.counter(k as u32), v);
            }
            for qp in self.qps() {
                // In `qp_counters`' order.
                let values = [qp.endpoint.stats.retx_pkts, qp.cc.rate_changes()];
                for (k, v) in values.into_iter().enumerate() {
                    u.set_counter(qp.tele.counter(k as u32), v);
                }
            }
        });
    }
}

/// A host with its working state, for the length of one call: the
/// configuration, counters and instruments beside the [`NicWork`] box.
struct Active<'a> {
    cfg: &'a NicConfig,
    tele: NicTele,
    stats: &'a mut HostStats,
    w: &'a mut NicWork,
}

impl Active<'_> {
    /// Forward a QP's queued transport events (rollbacks) to the flight
    /// recorder. Always drained so the queue stays bounded even with
    /// telemetry disabled.
    fn drain_transport_events(&mut self, qpn: u32, now_ps: u64) {
        let hub = &self.cfg.telemetry;
        let qp = &mut self.w.qps[qpn as usize];
        while let Some(ev) = qp.endpoint.pop_event() {
            match ev {
                TransportEvent::Rollback {
                    cause,
                    to_psn,
                    pkts,
                } => {
                    hub.trace(
                        now_ps,
                        self.tele.scope,
                        TraceEvent::Rollback {
                            cause,
                            to_psn,
                            pkts,
                        },
                    );
                }
            }
        }
    }

    /// Record a flight-recorder event, if telemetry is on.
    fn trace(&self, now_ps: u64, ev: TraceEvent) {
        self.cfg.telemetry.trace(now_ps, self.tele.scope, ev);
    }

    // ---- packet materialization ----

    fn next_ip_id(&mut self) -> u16 {
        let id = self.w.ip_id;
        self.w.ip_id = self.w.ip_id.wrapping_add(1);
        id
    }

    fn vlan_for(&self, prio: Priority) -> Option<(u8, u16)> {
        match self.cfg.pfc_mode {
            PfcMode::Dscp => None,
            PfcMode::Vlan => Some((prio.value(), VLAN_ID)),
        }
    }

    fn materialize(&mut self, qpn: u32, desc: &PacketDesc, ctx: &mut Ctx<'_>) -> Packet {
        let q = &self.w.qps[qpn as usize];
        let prio = RDMA_PRIORITY;
        let (peer_ip, peer_qp, udp_src) = (q.peer_ip, q.peer_qp, q.udp_src);
        let ecn = if desc.opcode.carries_data() {
            EcnCodepoint::Ect
        } else {
            EcnCodepoint::NotEct
        };
        let id = self.next_ip_id();
        Packet::new(
            ctx.next_packet_id(),
            EthMeta {
                src: self.cfg.mac,
                dst: self.cfg.gateway_mac,
                vlan: self.vlan_for(prio),
            },
            Some(Ipv4Meta {
                src: self.cfg.ip,
                dst: peer_ip,
                dscp: prio.value(),
                ecn,
                id,
                ttl: 64,
            }),
            PacketKind::Roce(RocePacket {
                opcode: desc.opcode,
                dest_qp: peer_qp,
                src_qp: qpn,
                psn: desc.psn,
                payload: desc.payload,
                is_first: desc.is_first,
                is_last: desc.is_last,
                udp_src,
            }),
            ctx.now().as_ps(),
        )
    }

    fn pause_packet(&mut self, prio: Priority, quanta: u16, ctx: &mut Ctx<'_>) -> Packet {
        let frame = if quanta == 0 {
            PauseFrame::resume(prio)
        } else {
            PauseFrame::pause(prio, quanta)
        };
        Packet::new(
            ctx.next_packet_id(),
            EthMeta {
                src: self.cfg.mac,
                dst: MacAddr::PAUSE_MULTICAST,
                vlan: None,
            },
            None,
            PacketKind::Pfc(frame),
            ctx.now().as_ps(),
        )
    }

    // ---- transmit pump ----

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let port = PortId(0);
        while !ctx.port_busy(port) && ctx.port_connected(port) {
            // Pause frames leave no matter what.
            if let Some(p) = self.w.pause_out.pop_front() {
                ctx.transmit(port, p).expect("port checked idle");
                continue;
            }
            if self.w.storm {
                return; // storm mode: no data, no control
            }
            let now = ctx.now();
            let paused_until = self.w.paused_until[RDMA_PRIORITY.index()];
            if paused_until > now {
                // Our lossless class is paused; wake when it expires.
                self.pump_at(paused_until, ctx);
                return;
            }
            if let Some(p) = self.w.ctrl.pop_front() {
                self.stats.tx_bytes += p.wire_size() as u64;
                ctx.transmit(port, p).expect("port checked idle");
                continue;
            }
            // Data: round-robin over QPs, honouring per-QP pacing.
            let n = self.w.qps.len();
            let mut earliest: Option<u64> = None;
            let mut picked = None;
            for step in 0..n {
                let i = (self.w.rr + step) % n;
                if !self.w.qps[i].endpoint.has_data_tx() {
                    continue;
                }
                let t = self.w.qps[i].next_tx_ps;
                if t <= now.as_ps() {
                    picked = Some(i);
                    self.w.rr = (i + 1) % n;
                    break;
                }
                earliest = Some(earliest.map_or(t, |e: u64| e.min(t)));
            }
            let Some(i) = picked else {
                if let Some(t) = earliest {
                    self.pump_at(SimTime(t), ctx);
                }
                return;
            };
            let desc = self.w.qps[i]
                .endpoint
                .next_data_tx(now.as_ps())
                .expect("has_data_tx checked");
            // Something is unacknowledged from here on.
            self.arm_rto_scan(ctx);
            let pkt = self.materialize(i as u32, &desc, ctx);
            let bytes = pkt.wire_size() as u64;
            let rate = self.w.qps[i].cc.rate_bps();
            let gap_ps = (bytes as f64 * 8.0 * 1e12 / rate) as u64;
            let q = &mut self.w.qps[i];
            q.next_tx_ps = now.as_ps().max(q.next_tx_ps) + gap_ps;
            let act = q.cc.on_signal(CcSignal::BytesSent { bytes }, now.as_ps());
            if let Some(act) = act {
                self.note_cc_action(i as u32, act, now.as_ps());
            }
            self.stats.data_pkts_tx += 1;
            self.stats.tx_bytes += bytes;
            ctx.transmit(port, pkt).expect("port checked idle");
        }
    }

    /// Queue a `TOK_PUMP` at `at` (strictly in the future) unless the last
    /// one queued is for that same instant. That earlier timer fires
    /// first, and a second pump at the same instant would find nothing
    /// new: every state change that could enable a send runs the pump
    /// itself.
    fn pump_at(&mut self, at: SimTime, ctx: &mut Ctx<'_>) {
        if self.w.pump_queued != at {
            self.w.pump_queued = at;
            ctx.set_timer_at(at, TOK_PUMP);
        }
    }

    /// Move a QP endpoint's pending control packets into the host queue.
    fn drain_ctrl(&mut self, qpn: u32, ctx: &mut Ctx<'_>) {
        while let Some(desc) = self.w.qps[qpn as usize].endpoint.pop_ctrl_tx() {
            let pkt = self.materialize(qpn, &desc, ctx);
            self.w.ctrl.push_back(pkt);
        }
    }

    fn send_cnp(&mut self, qpn: u32, ctx: &mut Ctx<'_>) {
        let desc = PacketDesc {
            opcode: RoceOpcode::Cnp,
            psn: 0,
            payload: 0,
            is_first: true,
            is_last: true,
            ack_req: false,
        };
        let pkt = self.materialize(qpn, &desc, ctx);
        self.w.ctrl.push_back(pkt);
        self.stats.cnp_tx += 1;
    }

    // ---- receive pipeline ----

    /// A frame that passed the MAC filter.
    fn on_rx(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if self.w.storm {
            self.stats.rx_storm_dropped += 1;
            self.note_rx_pressure(ctx);
            return;
        }
        let bytes = pkt.wire_size() as u64;
        if self.w.rx_occupancy + bytes > RX_BUFFER_BYTES {
            self.stats.rx_overflow += 1;
            return;
        }
        self.w.rx_occupancy += bytes;
        self.w.rx_queue.push_back(pkt);
        self.note_rx_pressure(ctx);
        if !self.w.rx_busy {
            self.start_rx_service(ctx);
        }
    }

    /// Emit XOFF when the receive buffer crosses its threshold (the
    /// slow-receiver symptom's visible signature).
    fn note_rx_pressure(&mut self, ctx: &mut Ctx<'_>) {
        let over = self.w.storm || self.w.rx_occupancy >= RX_XOFF_BYTES;
        if over && !self.w.host_xoff && !self.w.pause_gen_disabled {
            self.w.host_xoff = true;
            self.emit_pause(u16::MAX, ctx);
            ctx.set_timer(STORM_REFRESH, TOK_PAUSE_REFRESH);
        }
    }

    fn emit_pause(&mut self, quanta: u16, ctx: &mut Ctx<'_>) {
        let prio = RDMA_PRIORITY;
        let pkt = self.pause_packet(prio, quanta, ctx);
        self.w.pause_out.push_back(pkt);
        if quanta > 0 {
            self.stats.pause_tx += 1;
            self.trace(
                ctx.now().as_ps(),
                TraceEvent::PauseTx {
                    port: 0,
                    prio: prio.index() as u8,
                },
            );
        }
        self.pump(ctx);
    }

    fn start_rx_service(&mut self, ctx: &mut Ctx<'_>) {
        let w = &mut *self.w;
        let Some(pkt) = w.rx_queue.front() else {
            w.rx_busy = false;
            return;
        };
        w.rx_busy = true;
        let mut delay = self.cfg.rx.per_packet_ps;
        // MTT translation for packets that DMA payload into host memory.
        if let (Some(mtt), PacketKind::Roce(r)) = (w.mtt.as_mut(), &pkt.kind) {
            if r.opcode.carries_data() {
                if let Some(q) = w.qps.get(r.dest_qp as usize) {
                    delay += mtt.access(r.dest_qp as u64, q.rx_offset);
                }
            }
        }
        ctx.set_timer(SimTime(delay), TOK_RX_DONE);
    }

    fn finish_rx_service(&mut self, ctx: &mut Ctx<'_>) {
        let Some(pkt) = self.w.rx_queue.pop_front() else {
            self.w.rx_busy = false;
            return;
        };
        self.w.rx_occupancy -= pkt.wire_size() as u64;
        self.w.last_rx_progress = ctx.now();
        self.process_rx(pkt, ctx);
        // XON when the buffer has drained enough.
        if self.w.host_xoff && !self.w.storm && self.w.rx_occupancy <= RX_XON_BYTES {
            self.w.host_xoff = false;
            self.emit_pause(0, ctx);
        }
        self.start_rx_service(ctx);
    }

    fn process_rx(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let PacketKind::Roce(r) = pkt.kind else {
            return; // non-RoCE traffic (e.g. raw frames) is outside the NIC fast path
        };
        let qpn = r.dest_qp;
        if qpn as usize >= self.w.qps.len() {
            return; // unknown QP (e.g. host considered "dead" has none)
        }
        self.stats.data_pkts_rx += 1;
        // DCQCN NP: CE-marked data triggers a (rate-limited) CNP.
        if pkt.ip.map(|ip| ip.ecn) == Some(EcnCodepoint::Ce) {
            let now = ctx.now().as_ps();
            if self.w.qps[qpn as usize].np.on_ce_packet(now) {
                self.send_cnp(qpn, ctx);
            }
        }
        if r.opcode == RoceOpcode::Cnp {
            self.stats.cnp_rx += 1;
            let now_ps = ctx.now().as_ps();
            let act = self.w.qps[qpn as usize].cc.on_signal(CcSignal::Cnp, now_ps);
            if let Some(act) = act {
                self.note_cc_action(qpn, act, now_ps);
            }
            return;
        }
        let desc = PacketDesc {
            opcode: r.opcode,
            psn: r.psn,
            payload: r.payload,
            is_first: r.is_first,
            is_last: r.is_last,
            ack_req: false,
        };
        let now_ps = ctx.now().as_ps();
        {
            let q = &mut self.w.qps[qpn as usize];
            if r.opcode.carries_data() {
                q.rx_offset += r.payload as u64;
            }
            q.endpoint.on_packet(&desc, now_ps);
        }
        // Delay-based controllers: feed the RTT samples this packet's
        // cumulative-ACK processing produced (no-op signals for DCQCN and
        // fixed-rate, so the paper-default event stream is untouched).
        while let Some(rtt_ps) = self.w.qps[qpn as usize].endpoint.take_rtt_sample() {
            let act = self.w.qps[qpn as usize]
                .cc
                .on_signal(CcSignal::AckRtt { rtt_ps }, now_ps);
            if let Some(act) = act {
                self.note_cc_action(qpn, act, now_ps);
            }
        }
        self.drain_ctrl(qpn, ctx);
        self.drain_transport_events(qpn, now_ps);
        self.handle_completions(qpn, ctx);
        self.pump(ctx);
    }

    /// Record a congestion-control action: one trace event naming the
    /// QP, its new rate, the controller that acted and why.
    fn note_cc_action(&mut self, qpn: u32, act: CcAction, now_ps: u64) {
        let hub = &self.cfg.telemetry;
        if !hub.is_enabled() {
            return;
        }
        match act {
            CcAction::RateChange { rate_bps, cause } => hub.trace(
                now_ps,
                self.tele.scope,
                TraceEvent::RateChange {
                    qp: qpn,
                    rate_mbps: (rate_bps / 1e6) as u32,
                    cc: self.w.qps[qpn as usize].cc.kind().name(),
                    cause,
                },
            ),
        }
    }

    /// Act on a QP's completions in the order the endpoint queued them.
    /// Nothing done here completes another message, so the loop sees
    /// exactly the completions present when it starts.
    fn handle_completions(&mut self, qpn: u32, ctx: &mut Ctx<'_>) {
        while let Some(c) = self.w.qps[qpn as usize].endpoint.pop_completion() {
            match c {
                Completion::SendDone { .. } => {
                    self.stats.send_completions += 1;
                    let q = &mut self.w.qps[qpn as usize];
                    if matches!(q.app, QpApp::Saturate { .. } | QpApp::Burst { .. }) {
                        q.posted = q.posted.saturating_sub(1);
                        q.refill_app();
                    }
                }
                Completion::ReadDone { .. } => {
                    self.stats.send_completions += 1;
                }
                Completion::MessageReceived { .. } => {
                    let now = ctx.now().as_ps();
                    let q = &mut self.w.qps[qpn as usize];
                    if let Some(sent) = q.pending_rtt.pop_front() {
                        self.stats.rtt_samples_ps.push(now - sent);
                        self.cfg.telemetry.observe(self.tele.rtt_ps(), now - sent);
                    }
                    if let QpApp::Echo { reply_len } = q.app {
                        let wr = WrId(q.wr_seq);
                        q.wr_seq += 1;
                        q.endpoint.post(Verb::Send { len: reply_len }, wr);
                    }
                }
            }
        }
    }

    // ---- PFC reaction ----

    fn on_pause(&mut self, frame: &PauseFrame, ctx: &mut Ctx<'_>) {
        self.stats.pause_rx += 1;
        if let Some((prio, quanta)) = frame.entries().next() {
            if quanta > 0 {
                self.trace(
                    ctx.now().as_ps(),
                    TraceEvent::PauseRx {
                        port: 0,
                        prio: prio.index() as u8,
                    },
                );
            }
        }
        let rate = ctx
            .port_rate(PortId(0))
            .expect("a pause frame just arrived on this port, so it is wired");
        let mut resumed = false;
        for (prio, quanta) in frame.entries() {
            if quanta == 0 {
                self.w.paused_until[prio.index()] = ctx.now();
                resumed = true;
            } else {
                let until = ctx.now() + SimTime(PfcPauseFrame::quanta_to_ps(quanta, rate));
                self.w.paused_until[prio.index()] = until;
                self.pump_at(until, ctx);
            }
        }
        if resumed {
            self.pump(ctx);
        }
    }

    /// Queue the congestion-control tick if the host has come to own a
    /// QP since it last looked (at start, or on a [`TOK_WAKE`]).
    fn arm_cc_tick(&mut self, ctx: &mut Ctx<'_>) {
        if self.w.tick_armed || self.w.qps.is_empty() {
            return;
        }
        if let Some(period) = self.cfg.cc.tick_period_ps() {
            self.w.tick_armed = true;
            ctx.set_timer_on_grid(SimTime(period), TOK_CC_TICK);
        }
    }

    /// Queue the retransmission-timeout scan unless one already is.
    fn arm_rto_scan(&mut self, ctx: &mut Ctx<'_>) {
        if !self.w.rto_armed {
            self.w.rto_armed = true;
            ctx.set_timer_on_grid(RTO_SCAN, TOK_RTO);
        }
    }

    fn storm_tick(&mut self, ctx: &mut Ctx<'_>) {
        if !self.w.storm {
            return;
        }
        // NIC watchdog: the micro-controller sees a stalled receive
        // pipeline that keeps generating pauses and cuts pause generation.
        // It never re-enables (§4.3): a stormed NIC "never comes back".
        if let Some(after) = self.cfg.nic_watchdog_after {
            if !self.w.pause_gen_disabled
                && ctx.now().saturating_sub(self.w.last_rx_progress) >= after
            {
                self.w.pause_gen_disabled = true;
                self.stats.nic_watchdog_fired += 1;
                self.trace(ctx.now().as_ps(), TraceEvent::NicWatchdogFired);
            }
        }
        if !self.w.pause_gen_disabled {
            self.emit_pause(u16::MAX, ctx);
        }
        ctx.set_timer(STORM_REFRESH, TOK_STORM_TICK);
    }

    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.arm_cc_tick(ctx);
        // Prime per-QP apps.
        for i in 0..self.w.qps.len() {
            match self.w.qps[i].app {
                QpApp::Saturate { .. } | QpApp::Burst { .. } => {
                    self.w.qps[i].refill_app();
                }
                QpApp::Pinger { start_at, .. } => {
                    ctx.set_timer_at(start_at, TOK_QP_APP_BASE + i as u64);
                }
                QpApp::Echo { .. } | QpApp::None => {}
            }
        }
        if let HostApp::Fanout { start_at, .. } = &self.w.host_app {
            ctx.set_timer_at(*start_at, TOK_FANOUT);
        }
        self.pump(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        match token {
            TOK_PUMP => self.pump(ctx),
            TOK_CC_TICK => {
                let now_ps = ctx.now().as_ps();
                for i in 0..self.w.qps.len() {
                    let act = self.w.qps[i].cc.on_signal(CcSignal::Tick, now_ps);
                    if let Some(act) = act {
                        self.note_cc_action(i as u32, act, now_ps);
                    }
                }
                // Re-arm while the host still owns a QP (QPs are never
                // removed, so in practice for good).
                self.w.tick_armed = false;
                self.arm_cc_tick(ctx);
                self.pump(ctx);
            }
            TOK_RX_DONE => self.finish_rx_service(ctx),
            TOK_RTO => {
                let now = ctx.now().as_ps();
                let mut unacked = false;
                for i in 0..self.w.qps.len() {
                    let ep = &mut self.w.qps[i].endpoint;
                    ep.check_timeout(now);
                    unacked |= ep.rto_deadline_ps().is_some();
                    self.drain_transport_events(i as u32, now);
                }
                // Scan again only while something is still outstanding; a
                // QP this scan rewound has nothing outstanding until the
                // pump below resends, and that send re-arms.
                self.w.rto_armed = unacked;
                if unacked {
                    ctx.set_timer_on_grid(RTO_SCAN, TOK_RTO);
                }
                self.pump(ctx);
            }
            // One pass of each periodic timer: whichever line comes first
            // runs the pump and finds the new work.
            TOK_WAKE => {
                self.arm_cc_tick(ctx);
                self.arm_rto_scan(ctx);
            }
            TOK_FANOUT => {
                let w = &mut *self.w;
                if let HostApp::Fanout {
                    qps,
                    interval,
                    query_len,
                    ..
                } = &w.host_app
                {
                    let now = ctx.now();
                    for qp in qps {
                        w.qps[qp.0 as usize].post(Verb::Send { len: *query_len }, now, true);
                    }
                    ctx.set_timer(*interval, TOK_FANOUT);
                    self.pump(ctx);
                }
            }
            // Keep the peer paused while we are still in XOFF.
            TOK_PAUSE_REFRESH if self.w.host_xoff && !self.w.pause_gen_disabled => {
                self.emit_pause(u16::MAX, ctx);
                ctx.set_timer(STORM_REFRESH, TOK_PAUSE_REFRESH);
            }
            TOK_STORM_TICK => self.storm_tick(ctx),
            TOK_INJECT_STORM => {
                self.w.storm = true;
                self.trace(ctx.now().as_ps(), TraceEvent::StormStart);
                self.storm_tick(ctx);
            }
            TOK_STOP_STORM if self.w.storm => {
                self.w.storm = false;
                self.trace(ctx.now().as_ps(), TraceEvent::StormStop);
                // Resume the peer if we were the ones holding it down
                // (the watchdog-disabled case already stopped pausing).
                if self.w.host_xoff
                    && !self.w.pause_gen_disabled
                    && self.w.rx_occupancy <= RX_XON_BYTES
                {
                    self.w.host_xoff = false;
                    self.emit_pause(0, ctx);
                }
                self.pump(ctx);
            }
            t if t >= TOK_QP_APP_BASE => {
                let i = (t - TOK_QP_APP_BASE) as usize;
                let q = &mut self.w.qps[i];
                if let QpApp::Pinger {
                    payload, interval, ..
                } = q.app
                {
                    q.post(Verb::Send { len: payload }, ctx.now(), true);
                    ctx.set_timer(interval, TOK_QP_APP_BASE + i as u64);
                    self.pump(ctx);
                }
            }
            _ => {}
        }
    }
}

impl Node for RdmaHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(mut a) = self.running() {
            a.start(ctx);
        }
    }

    fn on_packet(&mut self, _port: PortId, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketKind::Pfc(frame) = pkt.kind {
            self.active().on_pause(&frame, ctx);
            return;
        }
        // NIC MAC filter: flooded copies of other hosts' frames (the §4.2
        // scenario floods lossless packets to every port) are discarded
        // in hardware before they can alias a local QP number.
        if pkt.eth.dst != self.cfg.mac && !pkt.eth.dst.is_multicast() {
            return;
        }
        self.active().on_rx(pkt, ctx);
    }

    fn on_port_idle(&mut self, _port: PortId, ctx: &mut Ctx<'_>) {
        if let Some(mut a) = self.running() {
            a.pump(ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        self.active().on_timer(token, ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
