//! Per-layer kernels: each layer exercised alone, from outside, through
//! its public API, for at most ~0.3 s. They answer "did this layer's own
//! code get slower?" independently of the workloads, and they run only
//! in the traced run, so they never touch an end-to-end metric.

use std::any::Any;
use std::collections::VecDeque;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

use rocescale::cc::{CcKind, CcParams, CcSignal, CongestionControl, SenderCc};
use rocescale::monitor::{HopRecord, JsonlSink, MetricsHub, TraceFilter};
use rocescale::nic::{NicConfig, QpApp, RdmaHost};
use rocescale::packet::{
    Bth, BthOpcode, EcnCodepoint, EthMeta, EtherType, EthernetHeader, Ipv4Header, Ipv4Meta,
    MacAddr, Packet, PacketKind, RoceOpcode, RocePacket,
};
use rocescale::sim::sched::EventQueue;
use rocescale::sim::{Ctx, EngineKind, LinkSpec, Node, PortId, SimRng, SimTime, World};
use rocescale::switch::{PortRole, Switch, SwitchConfig};
use rocescale::tcp::{TcpApp, TcpHost, TcpHostConfig};
use rocescale::topology::{Partition, Topology};
use rocescale::transport::{LossRecovery, PacketDesc, QpConfig, QpEndpoint, Verb, WrId};

use crate::metrics::Table;
use crate::rec::Rec;

/// Wall-time budget of one kernel, seconds.
const BUDGET_S: f64 = 0.2;

/// Call `batch` (which performs and returns a number of operations)
/// until the budget is used; nanoseconds per operation.
fn ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut ops = 0;
    loop {
        ops += batch();
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= BUDGET_S {
            return elapsed * 1e9 / ops.max(1) as f64;
        }
    }
}

fn roce_packet(id: u64, dst_ip: u32, gw: MacAddr) -> Packet {
    Packet::new(
        id,
        EthMeta {
            src: MacAddr::from_id(1),
            dst: gw,
            vlan: None,
        },
        Some(Ipv4Meta {
            src: 0x0a00_0001,
            dst: dst_ip,
            dscp: 3,
            ecn: EcnCodepoint::NotEct,
            id: id as u16,
            ttl: 64,
        }),
        PacketKind::Roce(RocePacket {
            opcode: RoceOpcode::Send,
            dest_qp: 0,
            src_qp: 0,
            psn: id as u32,
            payload: 1024,
            is_first: false,
            is_last: false,
            udp_src: 4000 + (id % 64) as u16,
        }),
        0,
    )
}

/// `packet.new_ns`: construct a RoCE data packet (wire size computed and
/// cached); `packet.codec_ns`: encode then decode Ethernet + IPv4 + BTH.
fn packet(t: &mut Table) {
    let gw = MacAddr::from_id(9);
    let mut id = 0u64;
    t.set(
        "packet.new_ns",
        ns_per_op(|| {
            for _ in 0..10_000 {
                id += 1;
                black_box(roce_packet(black_box(id), 0x0a00_0102, gw));
            }
            10_000
        }),
    );
    let eth = EthernetHeader {
        dst: MacAddr::from_id(1),
        src: MacAddr::from_id(2),
        ethertype: EtherType::Ipv4,
    };
    let ip = Ipv4Header {
        dscp: 26,
        ecn: 1,
        total_len: 1072,
        id: 77,
        ttl: 64,
        protocol: 17,
        src: 0x0a00_0001,
        dst: 0x0a00_0002,
    };
    let bth = Bth {
        opcode: BthOpcode::SendMiddle,
        se: false,
        migreq: false,
        pad: 0,
        pkey: 0xffff,
        dest_qp: 77,
        ack_req: false,
        psn: 1234,
    };
    let mut buf = Vec::with_capacity(64);
    t.set(
        "packet.codec_ns",
        ns_per_op(|| {
            for _ in 0..10_000 {
                buf.clear();
                black_box(&eth).encode(&mut buf);
                black_box(&ip).encode(&mut buf);
                black_box(&bth).encode(&mut buf);
                let (e, n1) = EthernetHeader::decode(&buf).expect("just encoded");
                let (i, n2) = Ipv4Header::decode(&buf[n1..]).expect("just encoded");
                let (b, _) = Bth::decode(&buf[n1 + n2..]).expect("just encoded");
                black_box((e, i, b));
            }
            10_000
        }),
    );
}

/// `sim.sched_ns_per_op`: `EventQueue` push + pop churn at the
/// occupancy the traced window reached. Delays are drawn like the
/// simulator's own: mostly serialization-scale, some timer-scale.
fn scheduler(t: &mut Table, occupancy: usize) {
    let occupancy = occupancy.max(16);
    let mut rng = SimRng::from_seed(7);
    let mut q: EventQueue<u64> = EventQueue::new(EngineKind::default());
    let mut delay = move || {
        if rng.gen_below(8) == 0 {
            55_000_000 + rng.gen_below(1_000_000)
        } else {
            200_000 + rng.gen_below(2_000_000)
        }
    };
    for i in 0..occupancy {
        q.push(SimTime(delay()), i as u64);
    }
    t.set(
        "sim.sched_ns_per_op",
        ns_per_op(|| {
            for _ in 0..10_000 {
                let (at, item) = q.pop().expect("queue stays at its occupancy");
                q.push(SimTime(at.as_ps() + delay()), black_box(item));
            }
            20_000
        }),
    );
}

/// A stub that transmits a fixed number of packets back to back.
struct Source {
    left: u64,
    sent: u64,
    dst_ip: u32,
    gw: MacAddr,
}

impl Source {
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        while self.left > 0 && !ctx.port_busy(PortId(0)) {
            self.sent += 1;
            self.left -= 1;
            let pkt = roce_packet(self.sent, self.dst_ip, self.gw);
            ctx.transmit(PortId(0), pkt).expect("port checked idle");
        }
    }
}

impl Node for Source {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.pump(ctx);
    }
    fn on_packet(&mut self, _p: PortId, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_port_idle(&mut self, _p: PortId, ctx: &mut Ctx<'_>) {
        self.pump(ctx);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A stub that counts what arrives.
#[derive(Default)]
struct Sink {
    got: u64,
}

impl Node for Sink {
    fn on_packet(&mut self, _p: PortId, _pkt: Packet, _ctx: &mut Ctx<'_>) {
        self.got += 1;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// `switch.ns_per_pkt`: one `Switch` in a benchmark-owned `World` between
/// a stub source and a stub sink, forwarding a line-rate stream. The
/// figure is wall time per forwarded packet for the whole three-node
/// world (4 events per packet, 2 of them the switch's).
fn switch(t: &mut Table) {
    const PKTS: u64 = 50_000;
    let sw_mac = MacAddr::from_id(100);
    let sink_mac = MacAddr::from_id(9);
    let sink_ip = 0x0a00_0009;
    t.set(
        "switch.ns_per_pkt",
        ns_per_op(|| {
            let mut cfg = SwitchConfig::new("kernel-sw", 2);
            cfg.port_roles = vec![PortRole::Server; 2];
            let mut sw = Switch::new(cfg, sw_mac, 5);
            sw.routes_mut().add_connected(0x0a00_0000, 24);
            sw.seed_arp(sink_ip, sink_mac, SimTime::ZERO);
            sw.seed_mac(sink_mac, PortId(1), SimTime::ZERO);
            let mut world = World::new(3);
            let sw_id = world.add_node(Box::new(sw));
            let src = world.add_node(Box::new(Source {
                left: PKTS,
                sent: 0,
                dst_ip: sink_ip,
                gw: sw_mac,
            }));
            let sink = world.add_node(Box::new(Sink::default()));
            world.connect(src, PortId(0), sw_id, PortId(0), LinkSpec::server_40g());
            world.connect(sink, PortId(0), sw_id, PortId(1), LinkSpec::server_40g());
            world.run_until_idle(u64::MAX);
            assert_eq!(
                world.node::<Sink>(sink).got,
                PKTS,
                "switch kernel lost packets"
            );
            PKTS
        }),
    );
}

/// `nic.b2b_ns_per_event`: two `RdmaHost`s cabled back to back (no
/// switch), one saturating QP each way, DCQCN at its defaults.
fn nic(t: &mut Table) {
    t.set(
        "nic.b2b_ns_per_event",
        ns_per_op(|| {
            let (ip_a, ip_b) = (0x0a00_0001, 0x0a00_0002);
            // Each host's "gateway" is simply the peer's MAC.
            let a = NicConfig::new("ka", 1, ip_a, MacAddr::from_id(2));
            let b = NicConfig::new("kb", 2, ip_b, MacAddr::from_id(1));
            let mut world = World::new(11);
            let a = world.add_node(Box::new(RdmaHost::new(a)));
            let b = world.add_node(Box::new(RdmaHost::new(b)));
            world.connect(a, PortId(0), b, PortId(0), LinkSpec::server_40g());
            let sat = QpApp::Saturate {
                msg_len: 256 * 1024,
                inflight: 2,
            };
            world.node_mut::<RdmaHost>(a).add_qp(ip_b, 0, 5000, sat);
            world.node_mut::<RdmaHost>(b).add_qp(ip_a, 0, 5000, sat);
            world.run_until(SimTime::from_micros(1_500));
            assert!(
                world.node::<RdmaHost>(b).total_goodput_bytes() > 0,
                "nic kernel moved no data"
            );
            world.events_processed()
        }),
    );
}

/// `tcp.b2b_ns_per_event`: two `TcpHost`s back to back, one saturating
/// connection.
fn tcp(t: &mut Table) {
    t.set(
        "tcp.b2b_ns_per_event",
        ns_per_op(|| {
            let (ip_a, ip_b) = (0x0a00_0001, 0x0a00_0002);
            let a = TcpHostConfig::new("ta", 1, ip_a, MacAddr::from_id(2));
            let b = TcpHostConfig::new("tb", 2, ip_b, MacAddr::from_id(1));
            let mut world = World::new(13);
            let a = world.add_node(Box::new(TcpHost::new(a)));
            let b = world.add_node(Box::new(TcpHost::new(b)));
            world.connect(a, PortId(0), b, PortId(0), LinkSpec::server_40g());
            let (pa, pb) = (40_000, 40_001);
            world.node_mut::<TcpHost>(a).add_conn(
                ip_b,
                pa,
                pb,
                TcpApp::Saturate {
                    msg_len: 256 * 1024,
                },
            );
            let cb = world
                .node_mut::<TcpHost>(b)
                .add_conn(ip_a, pb, pa, TcpApp::None);
            world.run_until(SimTime::from_micros(3_000));
            assert!(
                world.node::<TcpHost>(b).bytes_delivered(cb) > 0,
                "tcp kernel moved no data"
            );
            world.events_processed()
        }),
    );
}

/// Drive two `QpEndpoint`s directly (sans-IO) over an in-order channel
/// that drops every 256th data packet and delivers everything else
/// `DELAY` packet times later (so a loss leaves a window of out-of-order
/// arrivals behind it, as a real path does), for `pkts` transmitted data
/// packets; returns the seconds spent on packets `from..pkts`.
fn transport_channel(recovery: LossRecovery, pkts: u64, from: u64) -> f64 {
    const MSG: u32 = 4 << 20;
    const STEP_PS: u64 = 217_200; // one 1086 B frame at 40 Gb/s
    const DELAY: u64 = 12 * STEP_PS;
    let cfg = QpConfig {
        recovery,
        rto_ps: 100_000_000,
        ..QpConfig::default()
    };
    let (mut a, mut b) = (QpEndpoint::new(cfg), QpEndpoint::new(cfg));
    for wr in 0..(pkts * 1024 / MSG as u64 + 2) {
        a.post(Verb::Send { len: MSG }, WrId(wr));
    }
    let mut to_b: VecDeque<(u64, PacketDesc)> = VecDeque::new();
    let mut to_a: VecDeque<(u64, PacketDesc)> = VecDeque::new();
    let mut now = 0u64;
    let mut tx = 0u64;
    let mut started = Instant::now();
    while tx < pkts {
        if tx == from {
            started = Instant::now();
        }
        now += STEP_PS;
        if let Some(d) = a.next_data_tx(now) {
            tx += 1;
            if !tx.is_multiple_of(256) {
                to_b.push_back((now + DELAY, d));
            }
        }
        while to_b.front().is_some_and(|(at, _)| *at <= now) {
            let (_, d) = to_b.pop_front().expect("front checked");
            b.on_packet(&d, now);
        }
        while let Some(c) = b.pop_ctrl_tx() {
            to_a.push_back((now + DELAY, c));
        }
        while to_a.front().is_some_and(|(at, _)| *at <= now) {
            let (_, c) = to_a.pop_front().expect("front checked");
            a.on_packet(&c, now);
        }
        a.check_timeout(now);
        black_box(a.take_completions());
        black_box(b.take_completions());
        while a.pop_event().is_some() {}
    }
    started.elapsed().as_secs_f64()
}

/// `transport.gbn_ns_per_pkt`, `transport.sr_ns_per_pkt` (first 20 k
/// packets of a QP) and `transport.sr_ns_per_pkt_late` (packets
/// 66 k–80 k of one QP: whether selective repeat's cost cliff is in the
/// transport state machine itself).
fn transport(t: &mut Table) {
    const EARLY: u64 = 20_000;
    t.set(
        "transport.gbn_ns_per_pkt",
        transport_channel(LossRecovery::GoBackN, EARLY, 0) * 1e9 / EARLY as f64,
    );
    t.set(
        "transport.sr_ns_per_pkt",
        transport_channel(LossRecovery::SelectiveRepeat, EARLY, 0) * 1e9 / EARLY as f64,
    );
    let (from, to) = (66_000, 80_000);
    t.set(
        "transport.sr_ns_per_pkt_late",
        transport_channel(LossRecovery::SelectiveRepeat, to, from) * 1e9 / (to - from) as f64,
    );
}

/// `cc.ns_per_signal`: a DCQCN `SenderCc` fed a fixed script — 64
/// `BytesSent`, then a `Cnp` every fourth round, then a `Tick`.
fn cc(t: &mut Table) {
    let line = 40_000_000_000;
    let mut cc = SenderCc::new(&CcParams::for_line_rate(CcKind::Dcqcn, line), line);
    let mut now = 0u64;
    let mut round = 0u64;
    t.set(
        "cc.ns_per_signal",
        ns_per_op(|| {
            let mut signals = 0;
            for _ in 0..200 {
                round += 1;
                for _ in 0..64 {
                    now += 217_200;
                    black_box(cc.on_signal(CcSignal::BytesSent { bytes: 1086 }, now));
                }
                signals += 64;
                if round.is_multiple_of(4) {
                    black_box(cc.on_signal(CcSignal::Cnp, now));
                    signals += 1;
                }
                now += 55_000_000;
                black_box(cc.on_signal(CcSignal::Tick, now));
                signals += 1;
            }
            black_box(cc.rate_bps());
            signals
        }),
    );
}

struct Discard;

impl Write for Discard {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(black_box(buf).len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `monitor.incr_ns`: one counter increment on an enabled hub;
/// `monitor.hop_record_ns`: one hop record streamed through a
/// `JsonlSink` into a discarding writer.
fn monitor(t: &mut Table) {
    let hub = MetricsHub::enabled();
    let id = hub.counter("kernel.counter");
    t.set(
        "monitor.incr_ns",
        ns_per_op(|| {
            for _ in 0..100_000 {
                hub.incr(black_box(id));
            }
            100_000
        }),
    );
    hub.attach_sink(Box::new(JsonlSink::to_writer(Discard)), TraceFilter::all());
    let scope = hub.scope("switch.kernel");
    let mut n = 0u64;
    t.set(
        "monitor.hop_record_ns",
        ns_per_op(|| {
            for _ in 0..2_000 {
                n += 1;
                hub.stream_hop(
                    n * 217_200,
                    scope,
                    HopRecord {
                        port: (n % 32) as u16,
                        prio: 3,
                        bytes: 1086,
                        src_ip: 0x0a00_0001,
                        dst_ip: 0x0a00_0102,
                        queue_bytes: n % 200_000,
                    },
                );
            }
            2_000
        }),
    );
}

/// `topology.clos_s` and `topology.partition_s` for `spec`, with the
/// description's size. These are the two public calls `build_sharded`
/// makes before it instantiates a device.
pub fn topology(rec: &mut Rec, t: &mut Table, spec: &rocescale::topology::ClosSpec, shards: u32) {
    let (topo, clos_s) = rec.span("topology.clos", || Topology::clos(spec));
    let (part, partition_s) = rec.span("topology.partition", || Partition::pods(&topo, shards));
    black_box(part.shards());
    t.set("topology.clos_s", clos_s);
    t.set("topology.partition_s", partition_s);
    t.set("topology.nodes", topo.nodes.len() as f64);
    t.set("topology.links", topo.links.len() as f64);
}

/// Run every kernel, each under its own span.
pub fn run_all(rec: &mut Rec, t: &mut Table, occupancy: usize) {
    rec.span("kernel.packet", || packet(t));
    rec.span("kernel.sched", || scheduler(t, occupancy));
    rec.span("kernel.switch", || switch(t));
    rec.span("kernel.nic", || nic(t));
    rec.span("kernel.tcp", || tcp(t));
    rec.span("kernel.transport", || transport(t));
    rec.span("kernel.cc", || cc(t));
    rec.span("kernel.monitor", || monitor(t));
}
