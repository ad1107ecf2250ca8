//! The TCP host node: connections over the lossy traffic class, with the
//! kernel-latency and CPU-cost models that drive the paper's §1 numbers
//! and Figure 6's TCP tail.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use rocescale_monitor::{BlockId, Group, MetricsHub, Path, ScopeId, TraceEvent};
use rocescale_packet::{
    EcnCodepoint, EthMeta, Ipv4Meta, MacAddr, Packet, PacketKind, Priority, TcpFlags, TcpSegment,
};
use rocescale_sim::rng::{below, unit};
use rocescale_sim::{Ctx, Node, PortId, SimTime};

use crate::conn::{TcpReceiver, TcpSender};

/// Kernel-stack processing delay applied to every message on its way into
/// and out of the socket layer. Drawn per crossing, keyed on the host,
/// connection, direction and the message's ordinal; the tail is what
/// "can be as high as tens of milliseconds" in the paper's words, though
/// the defaults here keep the median in the tens of microseconds the
/// paper's Figure 6 implies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelModel {
    /// Fixed component.
    pub base_ps: u64,
    /// Uniform jitter added on top, `0..jitter_ps`.
    pub jitter_ps: u64,
    /// Probability of a scheduling hiccup.
    pub tail_prob: f64,
    /// Extra delay of a hiccup, uniform in `0..tail_extra_ps`.
    pub tail_extra_ps: u64,
}

impl Default for KernelModel {
    fn default() -> KernelModel {
        KernelModel {
            base_ps: 15_000_000,          // 15 µs through the socket layer
            jitter_ps: 20_000_000,        // +0–20 µs
            tail_prob: 0.005,             // rare scheduler hiccups
            tail_extra_ps: 2_000_000_000, // up to 2 ms
        }
    }
}

impl KernelModel {
    /// Zero-delay model (for isolating transport effects in tests).
    pub fn none() -> KernelModel {
        KernelModel {
            base_ps: 0,
            jitter_ps: 0,
            tail_prob: 0.0,
            tail_extra_ps: 0,
        }
    }

    /// One crossing's delay; `draw(i)` is the crossing's `i`-th random
    /// word (jitter, hiccup coin, hiccup length).
    fn sample(&self, draw: impl Fn(u64) -> u64) -> u64 {
        let mut d = self.base_ps;
        if self.jitter_ps > 0 {
            d += below(draw(0), self.jitter_ps);
        }
        if self.tail_prob > 0.0 && unit(draw(1)) < self.tail_prob {
            d += below(draw(2), self.tail_extra_ps.max(1));
        }
        d
    }
}

// CPU cost accounting for the kernel stack (§1: sending at 40 Gb/s over
// 8 connections costs 6% of a 32-core server; receiving costs 12%),
// calibrated to those figures at 1460-byte segments. 40 Gb/s at 1460 B
// payload ≈ 3.37 M segments/s.

/// CPU time billed per transmitted segment: 6% × 32 cores = 1.92
/// core-seconds/s ÷ 3.37 M ≈ 570 ns.
const TX_PS_PER_SEGMENT: u64 = 570_000;
/// CPU time billed per received segment: 12% × 32 cores ≈ 1140 ns.
const RX_PS_PER_SEGMENT: u64 = 1_140_000;
/// CPU time billed per message crossing the socket layer.
const PS_PER_MESSAGE: u64 = 2_000_000;

/// Traffic class for TCP — a *lossy* class with reserved bandwidth,
/// isolated from RDMA (§2).
const TCP_PRIORITY: Priority = Priority::new(1);

/// Per-connection application behaviour (mirrors the RDMA host's apps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TcpApp {
    /// Passive.
    None,
    /// Keep the stream fed with `msg_len`-byte messages.
    Saturate {
        /// Message length, bytes.
        msg_len: u32,
    },
    /// Reply to each delivered message with `reply_len` bytes.
    Echo {
        /// Reply length, bytes.
        reply_len: u32,
    },
    /// Periodic request; RTT measured to the peer's (Echo) reply,
    /// including kernel crossings on both hosts.
    Pinger {
        /// Request payload.
        payload: u32,
        /// Period.
        interval: SimTime,
        /// First request time.
        start_at: SimTime,
    },
}

/// Identifies a connection on its host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnHandle(pub u32);

/// TCP host configuration.
#[derive(Debug, Clone)]
pub struct TcpHostConfig {
    /// Name for traces; shared with the topology node it was built from.
    pub name: Arc<str>,
    /// NIC MAC.
    pub mac: MacAddr,
    /// Host IP.
    pub ip: u32,
    /// Gateway (ToR) MAC.
    pub gateway_mac: MacAddr,
    /// Link rate, b/s.
    pub link_bps: u64,
    /// Kernel latency model.
    pub kernel: KernelModel,
    /// Telemetry bus handle. Disabled by default; when enabled the host
    /// registers its counters under `tcp.{name}.…` and records
    /// retransmission events in the flight recorder.
    pub telemetry: MetricsHub,
}

impl TcpHostConfig {
    /// A 40 GbE TCP host with defaults.
    pub fn new(name: impl Into<Arc<str>>, id: u32, ip: u32, gateway_mac: MacAddr) -> TcpHostConfig {
        TcpHostConfig {
            name: name.into(),
            mac: MacAddr::from_id(id),
            ip,
            gateway_mac,
            link_bps: 40_000_000_000,
            kernel: KernelModel::default(),
            telemetry: MetricsHub::disabled(),
        }
    }
}

/// Host counters.
#[derive(Debug, Clone, Default)]
pub struct TcpHostStats {
    /// Segments sent (incl. retransmissions).
    pub segments_tx: u64,
    /// Data segments received.
    pub segments_rx: u64,
    /// Wire bytes sent.
    pub tx_bytes: u64,
    /// Messages delivered to applications.
    pub msgs_delivered: u64,
    /// Fast retransmits across connections.
    pub fast_retransmits: u64,
    /// RTOs across connections.
    pub timeouts: u64,
    /// App-level RTT samples, ps (Pinger).
    pub rtt_samples_ps: Vec<u64>,
    /// Total CPU time billed, ps.
    pub cpu_ps: u64,
}

impl TcpHostStats {
    /// CPU utilization over `elapsed` on a `cores`-core server, in
    /// percent — the §1 metric.
    pub fn cpu_percent(&self, elapsed: SimTime, cores: u32) -> f64 {
        if elapsed == SimTime::ZERO {
            return 0.0;
        }
        100.0 * self.cpu_ps as f64 / (elapsed.as_ps() as f64 * cores as f64)
    }
}

struct Conn {
    tx: TcpSender,
    rx: TcpReceiver,
    peer_ip: u32,
    local_port: u16,
    peer_port: u16,
    app: TcpApp,
    pending_rtt: VecDeque<u64>,
    /// Messages that have entered the kernel path, `[TX, RX]`.
    kernel_msgs: [u64; 2],
}

/// Kernel-path directions: down the send path, up the receive path.
const TX: usize = 0;
const RX: usize = 1;

#[derive(Debug, Clone, Copy)]
enum KernelOp {
    /// Message finishing its way down the send path.
    TxMsg { conn: u32, len: u32, tracked: bool },
    /// Message finishing its way up the receive path.
    RxDeliver { conn: u32 },
}

const TOK_PUMP: u64 = 1;
const TOK_RTO: u64 = 2;
const TOK_KERNEL: u64 = 3;
const TOK_APP_BASE: u64 = 1 << 32;
/// Public token: wake the host after [`TcpHost::add_conn`] on a world
/// that has already run. The host starts the applications of the
/// connections added since it last looked and runs its transmit pump.
/// Schedule it at `world.now()` with
/// [`rocescale_sim::World::schedule_timer`]; nothing periodic runs on an
/// idle host, so without the wake a late connection never starts.
/// `Cluster::connect_tcp` does this for its callers.
pub const TOK_WAKE: u64 = 102;

// The retransmission-timeout scan is demand-armed: queued only while
// some connection has unacknowledged data, and while queued it fires on
// multiples of its period from t = 0 (`Ctx::set_timer_on_grid`), the
// instants an always-armed scan would fire on.
const RTO_SCAN: SimTime = SimTime::from_micros(250);

/// The host's counters, `tcp.{name}.{leaf}`, in block order.
const TCP_COUNTERS: &[&str] = &[
    "segments_tx",
    "segments_rx",
    "fast_retransmits",
    "timeouts",
    "msgs_delivered",
];

/// The host's telemetry: its block of [`TCP_COUNTERS`] — copies of its
/// stats, made by [`TcpHost::publish_counters`] — and its trace scope
/// (sentinels when the hub is disabled).
#[derive(Clone, Copy, Default)]
struct TcpTele {
    base: BlockId,
    scope: ScopeId,
}

impl TcpTele {
    fn register(cfg: &TcpHostConfig) -> TcpTele {
        let block = cfg.telemetry.register(
            Path::of("tcp", cfg.name.clone()),
            &[Group::counters(TCP_COUNTERS)],
        );
        TcpTele {
            base: block.base,
            scope: block.scope,
        }
    }
}

/// The TCP host node.
pub struct TcpHost {
    cfg: TcpHostConfig,
    conns: Vec<Conn>,
    by_port: HashMap<u16, u32>,
    next_port: u16,
    /// Pure-ACK packets awaiting transmission (tiny, sent first).
    acks: VecDeque<Packet>,
    /// Retransmission segments awaiting transmission.
    rtx: VecDeque<(u32, TcpSegment)>,
    /// Kernel ops in flight: (fire time ps, op).
    kernel_q: Vec<(u64, KernelOp)>,
    rr: usize,
    ip_id: u16,
    /// Connections `..apps_started` have had their application started.
    apps_started: usize,
    /// A `TOK_RTO` scan is queued.
    rto_armed: bool,
    /// Telemetry instruments (sentinels when the hub is disabled).
    tele: TcpTele,
    /// Counters.
    pub stats: TcpHostStats,
}

impl TcpHost {
    /// Build a host.
    pub fn new(cfg: TcpHostConfig) -> TcpHost {
        TcpHost {
            tele: TcpTele::register(&cfg),
            cfg,
            conns: Vec::new(),
            by_port: HashMap::new(),
            next_port: 49152,
            acks: VecDeque::new(),
            rtx: VecDeque::new(),
            kernel_q: Vec::new(),
            rr: 0,
            ip_id: 0,
            apps_started: 0,
            rto_armed: false,
            stats: TcpHostStats::default(),
        }
    }

    /// Copy [`TcpHostStats`]' event counts into the host's telemetry
    /// block, under one acquisition of the hub's lock — the hub reads
    /// these counts, it keeps none of its own.
    pub fn publish_counters(&self) {
        let s = &self.stats;
        // In `TCP_COUNTERS`' order.
        let values = [
            s.segments_tx,
            s.segments_rx,
            s.fast_retransmits,
            s.timeouts,
            s.msgs_delivered,
        ];
        self.cfg.telemetry.update(|u| {
            for (k, v) in values.into_iter().enumerate() {
                u.set_counter(self.tele.base.counter(k as u32), v);
            }
        });
    }

    /// The configuration.
    pub fn config(&self) -> &TcpHostConfig {
        &self.cfg
    }

    /// Create a (pre-established) connection. Both ends must be created
    /// with matching ports: this end sends from `local_port` to
    /// `peer_port`. On a world that has already run, follow with a
    /// [`TOK_WAKE`].
    pub fn add_conn(
        &mut self,
        peer_ip: u32,
        local_port: u16,
        peer_port: u16,
        app: TcpApp,
    ) -> ConnHandle {
        let idx = self.conns.len() as u32;
        self.conns.push(Conn {
            tx: TcpSender::default(),
            rx: TcpReceiver::new(),
            peer_ip,
            local_port,
            peer_port,
            app,
            pending_rtt: VecDeque::new(),
            kernel_msgs: [0; 2],
        });
        self.by_port.insert(local_port, idx);
        ConnHandle(idx)
    }

    /// Allocate an unused local port.
    pub fn alloc_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port += 1;
        p
    }

    /// The kernel delay of the next message crossing connection `conn`'s
    /// socket in direction `dir`.
    fn kernel_delay(&mut self, conn: u32, dir: usize, ctx: &Ctx<'_>) -> u64 {
        let n = self.conns[conn as usize].kernel_msgs[dir];
        self.conns[conn as usize].kernel_msgs[dir] += 1;
        let key = |i| [self.cfg.ip as u64, conn as u64, dir as u64, n, i];
        self.cfg.kernel.sample(|i| ctx.draw(&key(i)))
    }

    /// Post a message send through the kernel path.
    pub fn post_message(&mut self, conn: ConnHandle, len: u32, tracked: bool, ctx: &mut Ctx<'_>) {
        let delay = self.kernel_delay(conn.0, TX, ctx);
        self.stats.cpu_ps += PS_PER_MESSAGE;
        let fire = ctx.now().as_ps() + delay;
        self.kernel_q.push((
            fire,
            KernelOp::TxMsg {
                conn: conn.0,
                len,
                tracked,
            },
        ));
        ctx.set_timer_at(SimTime(fire), TOK_KERNEL);
    }

    /// Access a connection's sender stats.
    pub fn sender_stats(&self, conn: ConnHandle) -> crate::conn::SenderStats {
        self.conns[conn.0 as usize].tx.stats
    }

    /// Bytes delivered in order on a connection.
    pub fn bytes_delivered(&self, conn: ConnHandle) -> u64 {
        self.conns[conn.0 as usize].rx.stats.bytes_delivered
    }

    fn segment_packet(&mut self, conn_idx: u32, mut seg: TcpSegment, ctx: &mut Ctx<'_>) -> Packet {
        let c = &self.conns[conn_idx as usize];
        seg.src_port = c.local_port;
        seg.dst_port = c.peer_port;
        let id = self.ip_id;
        self.ip_id = self.ip_id.wrapping_add(1);
        Packet::new(
            ctx.next_packet_id(),
            EthMeta {
                src: self.cfg.mac,
                dst: self.cfg.gateway_mac,
                vlan: None,
            },
            Some(Ipv4Meta {
                src: self.cfg.ip,
                dst: c.peer_ip,
                dscp: TCP_PRIORITY.value(),
                ecn: EcnCodepoint::NotEct,
                id,
                ttl: 64,
            }),
            PacketKind::Tcp(seg),
            ctx.now().as_ps(),
        )
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let port = PortId(0);
        while !ctx.port_busy(port) && ctx.port_connected(port) {
            // ACKs and retransmissions first.
            if let Some(p) = self.acks.pop_front() {
                self.stats.tx_bytes += p.wire_size() as u64;
                ctx.transmit(port, p).expect("port idle");
                continue;
            }
            if let Some((ci, seg)) = self.rtx.pop_front() {
                self.stats.segments_tx += 1;
                self.stats.cpu_ps += TX_PS_PER_SEGMENT;
                let p = self.segment_packet(ci, seg, ctx);
                self.stats.tx_bytes += p.wire_size() as u64;
                ctx.transmit(port, p).expect("port idle");
                continue;
            }
            // New data round-robin over connections.
            let n = self.conns.len();
            if n == 0 {
                return;
            }
            let now_ps = ctx.now().as_ps();
            let mut sent = false;
            for step in 0..n {
                let i = (self.rr + step) % n;
                if let Some(seg) = self.conns[i].tx.next_segment(now_ps) {
                    self.rr = (i + 1) % n;
                    // Something is unacknowledged from here on.
                    if !self.rto_armed {
                        self.rto_armed = true;
                        ctx.set_timer_on_grid(RTO_SCAN, TOK_RTO);
                    }
                    self.stats.segments_tx += 1;
                    self.stats.cpu_ps += TX_PS_PER_SEGMENT;
                    let p = self.segment_packet(i as u32, seg, ctx);
                    self.stats.tx_bytes += p.wire_size() as u64;
                    ctx.transmit(port, p).expect("port idle");
                    sent = true;
                    break;
                }
            }
            if !sent {
                return;
            }
        }
    }

    fn on_segment(&mut self, pkt: &Packet, seg: &TcpSegment, ctx: &mut Ctx<'_>) {
        let Some(&ci) = self.by_port.get(&seg.dst_port) else {
            return; // no such connection (dead server model)
        };
        let now_ps = ctx.now().as_ps();
        if seg.payload > 0 {
            self.stats.segments_rx += 1;
            self.stats.cpu_ps += RX_PS_PER_SEGMENT;
            let delivered = {
                let c = &mut self.conns[ci as usize];
                c.rx.on_segment(seg.seq, seg.payload, seg.flags.psh)
            };
            // Pure ACK back.
            let ack_val = self.conns[ci as usize].rx.ack_value();
            let ack_seg = TcpSegment {
                src_port: 0,
                dst_port: 0,
                seq: 0,
                ack: ack_val,
                flags: TcpFlags {
                    syn: false,
                    ack: true,
                    fin: false,
                    psh: false,
                },
                payload: 0,
                ece: false,
            };
            let p = self.segment_packet(ci, ack_seg, ctx);
            self.acks.push_back(p);
            for _ in 0..delivered {
                // Each message climbs the kernel receive path.
                let delay = self.kernel_delay(ci, RX, ctx);
                self.stats.cpu_ps += PS_PER_MESSAGE;
                let fire = now_ps + delay;
                self.kernel_q.push((fire, KernelOp::RxDeliver { conn: ci }));
                ctx.set_timer_at(SimTime(fire), TOK_KERNEL);
            }
        }
        if seg.flags.ack {
            let retransmit = self.conns[ci as usize].tx.on_ack(seg.ack, now_ps);
            if retransmit {
                let rseg = self.conns[ci as usize].tx.retransmit_segment(now_ps);
                self.stats.fast_retransmits += 1;
                self.cfg.telemetry.trace(
                    now_ps,
                    self.tele.scope,
                    TraceEvent::Rollback {
                        cause: "tcp-fast-retx",
                        to_psn: rseg.seq as u32,
                        pkts: 1,
                    },
                );
                self.rtx.push_back((ci, rseg));
            }
            // Saturating senders keep the stream fed: top the backlog up
            // as acknowledgements drain it.
            if let TcpApp::Saturate { msg_len } = self.conns[ci as usize].app {
                if self.conns[ci as usize].tx.backlog() < 2 * msg_len as u64 {
                    self.post_message(ConnHandle(ci), msg_len, false, ctx);
                }
            }
        }
        let _ = pkt;
        self.pump(ctx);
    }

    /// Run every queued kernel op that is due, in queue order, compacting
    /// the queue in place: ops not yet due keep their order at the front,
    /// and ops the due ones queue land behind them.
    fn run_kernel(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now().as_ps();
        let queued = self.kernel_q.len();
        let mut kept = 0;
        for i in 0..queued {
            let (fire, op) = self.kernel_q[i];
            if fire > now {
                self.kernel_q[kept] = (fire, op);
                kept += 1;
                continue;
            }
            match op {
                KernelOp::TxMsg { conn, len, tracked } => {
                    let c = &mut self.conns[conn as usize];
                    c.tx.write_message(len);
                    if tracked {
                        c.pending_rtt.push_back(now);
                    }
                }
                KernelOp::RxDeliver { conn } => {
                    self.stats.msgs_delivered += 1;
                    let app = self.conns[conn as usize].app;
                    match app {
                        TcpApp::Echo { reply_len } => {
                            self.post_message(ConnHandle(conn), reply_len, false, ctx);
                        }
                        TcpApp::Pinger { .. } => {
                            let c = &mut self.conns[conn as usize];
                            if let Some(sent) = c.pending_rtt.pop_front() {
                                self.stats.rtt_samples_ps.push(now - sent);
                            }
                        }
                        TcpApp::Saturate { .. } | TcpApp::None => {
                            // Fanout repliers also measure.
                            let c = &mut self.conns[conn as usize];
                            if let Some(sent) = c.pending_rtt.pop_front() {
                                self.stats.rtt_samples_ps.push(now - sent);
                            }
                        }
                    }
                }
            }
        }
        self.kernel_q.drain(kept..queued);
        self.pump(ctx);
    }

    /// Start the applications of connections added since the last call
    /// (all of them at start; the late ones on a [`TOK_WAKE`]).
    fn start_apps(&mut self, ctx: &mut Ctx<'_>) {
        for i in self.apps_started..self.conns.len() {
            match self.conns[i].app {
                TcpApp::Saturate { msg_len } => {
                    self.post_message(ConnHandle(i as u32), msg_len, false, ctx);
                    self.post_message(ConnHandle(i as u32), msg_len, false, ctx);
                }
                TcpApp::Pinger { start_at, .. } => {
                    ctx.set_timer_at(start_at, TOK_APP_BASE + i as u64);
                }
                TcpApp::Echo { .. } | TcpApp::None => {}
            }
        }
        self.apps_started = self.conns.len();
        self.pump(ctx);
    }
}

impl Node for TcpHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.start_apps(ctx);
    }

    fn on_packet(&mut self, _port: PortId, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketKind::Tcp(seg) = pkt.kind {
            self.on_segment(&pkt, &seg, ctx);
        }
        // PFC pauses never reach the TCP class in practice; ignore others.
    }

    fn on_port_idle(&mut self, _port: PortId, ctx: &mut Ctx<'_>) {
        self.pump(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        match token {
            TOK_PUMP => self.pump(ctx),
            TOK_WAKE => self.start_apps(ctx),
            TOK_RTO => {
                let now = ctx.now().as_ps();
                let mut unacked = false;
                for i in 0..self.conns.len() {
                    unacked |= self.conns[i].tx.flight() > 0;
                    if self.conns[i].tx.check_rto(now) {
                        self.stats.timeouts += 1;
                        let seg = self.conns[i].tx.retransmit_segment(now);
                        self.cfg.telemetry.trace(
                            now,
                            self.tele.scope,
                            TraceEvent::Rollback {
                                cause: "tcp-rto",
                                to_psn: seg.seq as u32,
                                pkts: 1,
                            },
                        );
                        self.rtx.push_back((i as u32, seg));
                    }
                }
                // Scan again only while something is still in flight; the
                // pump re-arms when it next sends into an empty pipe.
                self.rto_armed = unacked;
                if unacked {
                    ctx.set_timer_on_grid(RTO_SCAN, TOK_RTO);
                }
                self.pump(ctx);
            }
            TOK_KERNEL => self.run_kernel(ctx),
            t if t >= TOK_APP_BASE => {
                let i = (t - TOK_APP_BASE) as usize;
                if let TcpApp::Pinger {
                    payload, interval, ..
                } = self.conns[i].app
                {
                    // Saturating sender apps keep the stream non-idle; a
                    // pinger posts one tracked message per period.
                    self.post_message(ConnHandle(i as u32), payload, true, ctx);
                    ctx.set_timer(interval, TOK_APP_BASE + i as u64);
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_model_matches_paper_calibration() {
        // At 40 Gb/s with 1460 B segments for one second:
        let segs_per_sec = 40e9 / (1460.0 * 8.0);
        let mut stats = TcpHostStats {
            cpu_ps: (segs_per_sec * TX_PS_PER_SEGMENT as f64) as u64,
            ..Default::default()
        };
        let pct = stats.cpu_percent(SimTime::from_secs(1), 32);
        assert!((5.0..7.5).contains(&pct), "tx cpu {pct}% (paper: 6%)");
        stats.cpu_ps = (segs_per_sec * RX_PS_PER_SEGMENT as f64) as u64;
        let pct = stats.cpu_percent(SimTime::from_secs(1), 32);
        assert!((10.0..14.0).contains(&pct), "rx cpu {pct}% (paper: 12%)");
    }

    #[test]
    fn kernel_model_sampling_bounds() {
        let m = KernelModel::default();
        let mut hiccups = 0;
        for n in 0..10_000u64 {
            let d = m.sample(|i| rocescale_sim::rng::keyed(3, &[n, i]));
            assert!(d >= m.base_ps);
            assert!(d < m.base_ps + m.jitter_ps + m.tail_extra_ps);
            hiccups += (d >= m.base_ps + m.jitter_ps) as u32;
        }
        // tail_prob 0.005 of 10 000 crossings.
        assert!((25..80).contains(&hiccups), "{hiccups} hiccups");
        assert_eq!(KernelModel::none().sample(|_| panic!("drew")), 0);
    }
}
