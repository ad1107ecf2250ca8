//! Focused host/NIC behaviour tests beyond the end-to-end suite: VLAN
//! tagging, MAC filtering, receive-buffer pressure, DCQCN pacing,
//! storm-mode receive behaviour, demand-armed timers and one pacing timer
//! per instant.

use rocescale_nic::host::TOK_INJECT_STORM;
use rocescale_nic::{NicConfig, QpApp, RdmaHost};
use rocescale_packet::{MacAddr, PfcMode};
use rocescale_sim::{LinkSpec, NodeId, PortId, SimTime, World};
use rocescale_switch::{PortRole, Switch, SwitchConfig};
use rocescale_transport::Verb;

const SUBNET: u32 = 0x0a000000;

fn host_ip(i: u32) -> u32 {
    SUBNET + 1 + i
}

fn star(
    n: u32,
    mut sw_cfg: SwitchConfig,
    mut tweak: impl FnMut(u32, &mut NicConfig),
) -> (World, NodeId, Vec<NodeId>) {
    let sw_mac = MacAddr::from_id(1000);
    sw_cfg.ports = n as u16;
    sw_cfg.port_roles = vec![PortRole::Server; n as usize];
    let mut sw = Switch::new(sw_cfg, sw_mac, 99);
    sw.routes_mut().add_connected(SUBNET, 24);
    let mut world = World::new(7);
    let mut cfgs = Vec::new();
    for i in 0..n {
        let mut cfg = NicConfig::new(format!("h{i}"), i + 1, host_ip(i), sw_mac);
        tweak(i, &mut cfg);
        sw.seed_arp(host_ip(i), cfg.mac, SimTime::ZERO);
        sw.seed_mac(cfg.mac, PortId(i as u16), SimTime::ZERO);
        cfgs.push(cfg);
    }
    let sw_id = world.add_node(Box::new(sw));
    let hosts: Vec<NodeId> = cfgs
        .into_iter()
        .map(|c| world.add_node(Box::new(RdmaHost::new(c))))
        .collect();
    for (i, h) in hosts.iter().enumerate() {
        world.connect(
            *h,
            PortId(0),
            sw_id,
            PortId(i as u16),
            LinkSpec::server_40g(),
        );
    }
    (world, sw_id, hosts)
}

fn connect_qp(
    world: &mut World,
    a: NodeId,
    b: NodeId,
    udp_src: u16,
    app_a: QpApp,
    app_b: QpApp,
) -> (rocescale_nic::QpHandle, rocescale_nic::QpHandle) {
    let a_ip = world.node::<RdmaHost>(a).config().ip;
    let b_ip = world.node::<RdmaHost>(b).config().ip;
    let a_qpn = world.node::<RdmaHost>(a).qp_count() as u32;
    let b_qpn = world.node::<RdmaHost>(b).qp_count() as u32;
    let ha = world
        .node_mut::<RdmaHost>(a)
        .add_qp(b_ip, b_qpn, udp_src, app_a);
    let hb = world
        .node_mut::<RdmaHost>(b)
        .add_qp(a_ip, a_qpn, udp_src, app_b);
    (ha, hb)
}

/// Hosts in VLAN mode tag their data packets; a VLAN-mode switch
/// classifies them by PCP and the transfer is lossless end to end —
/// the host half of the §3 equivalence.
#[test]
fn vlan_mode_host_end_to_end() {
    let mut sw_cfg = SwitchConfig::new("tor", 2);
    sw_cfg.classify = PfcMode::Vlan;
    let (mut world, sw, hosts) = star(2, sw_cfg, |_, cfg| {
        cfg.pfc_mode = PfcMode::Vlan;
    });
    let (qa, qb) = connect_qp(
        &mut world,
        hosts[0],
        hosts[1],
        5000,
        QpApp::None,
        QpApp::None,
    );
    let _ = qa;
    world.node_mut::<RdmaHost>(hosts[0]).post(
        qa,
        Verb::Send { len: 1 << 20 },
        SimTime::ZERO,
        false,
    );
    world.run_until(SimTime::from_millis(2));
    assert_eq!(
        world
            .node::<RdmaHost>(hosts[1])
            .qp_endpoint(qb)
            .goodput_bytes(),
        1 << 20
    );
    assert_eq!(world.node::<Switch>(sw).stats.total_drops(), 0);
}

/// A host in storm mode drops everything it receives (the paper: the
/// stormer "was not sending or receiving any data packets") and counts
/// it.
#[test]
fn storm_mode_drops_all_rx() {
    let (mut world, _sw, hosts) = star(2, SwitchConfig::new("tor", 2), |i, cfg| {
        if i == 1 {
            // Keep the stormer's switch port lossless so frames reach it.
            cfg.nic_watchdog_after = None;
        }
    });
    connect_qp(
        &mut world,
        hosts[0],
        hosts[1],
        5000,
        QpApp::Saturate {
            msg_len: 64 * 1024,
            inflight: 1,
        },
        QpApp::None,
    );
    world.schedule_timer(SimTime::from_micros(100), hosts[1], TOK_INJECT_STORM);
    world.run_until(SimTime::from_millis(5));
    let h = world.node::<RdmaHost>(hosts[1]);
    assert!(h.in_storm());
    assert!(h.stats.rx_storm_dropped > 0, "storm must discard arrivals");
    // And it has been pausing continuously.
    assert!(h.stats.pause_tx > 10);
}

/// DCQCN pacing actually limits the wire rate: a QP whose RP has been
/// cut transmits measurably slower than line rate.
#[test]
fn dcqcn_pacing_limits_wire_rate() {
    // 3:1 incast with DCQCN: after convergence each sender's share is
    // well under line rate, so per-QP pacing must show in tx counts.
    let (mut world, _sw, hosts) = star(4, SwitchConfig::new("tor", 4), |_, _| {});
    for i in 1..4 {
        connect_qp(
            &mut world,
            hosts[i],
            hosts[0],
            5000 + i as u16,
            QpApp::Saturate {
                msg_len: 1 << 20,
                inflight: 2,
            },
            QpApp::None,
        );
    }
    world.run_until(SimTime::from_millis(10));
    for (i, &host) in hosts.iter().enumerate().skip(1) {
        let h = world.node::<RdmaHost>(host);
        let gbps = h.stats.tx_bytes as f64 * 8.0 / 0.010 / 1e9;
        assert!(
            gbps < 30.0,
            "sender {i} must be paced below line rate: {gbps}"
        );
        assert!(h.stats.cnp_rx > 0, "sender {i} must have received CNPs");
        let rate = h.qp_rate_bps(rocescale_nic::QpHandle(0));
        assert!(rate < 35e9, "RP rate must be cut: {rate}");
    }
}

/// Sequential IP IDs: consecutive transmitted packets carry consecutive
/// IDs — the property that makes §4.1's filter deterministic.
#[test]
fn ip_ids_are_sequential() {
    let (mut world, sw, hosts) = star(2, SwitchConfig::new("tor", 2), |_, _| {});
    let (qa, _qb) = connect_qp(
        &mut world,
        hosts[0],
        hosts[1],
        5000,
        QpApp::None,
        QpApp::None,
    );
    world.node_mut::<RdmaHost>(hosts[0]).post(
        qa,
        Verb::Send { len: 600 * 1024 },
        SimTime::ZERO,
        false,
    );
    world.run_until(SimTime::from_millis(1));
    // 600 data packets plus control: the sender's ip_id counter must have
    // advanced once per packet — verify via the switch's rx counter vs
    // the host's tx counter (no gaps possible if equal and no drops).
    let host_tx = world.node::<RdmaHost>(hosts[0]).stats.data_pkts_tx;
    let sw_rx = world.node::<Switch>(sw).stats.rx_pkts[0];
    assert!(host_tx >= 600);
    // switch also received ACK-path control from host 0? no: acks come
    // from host 1's port. rx on port 0 = host 0's data + its ctrl.
    assert!(
        sw_rx >= host_tx,
        "all transmitted packets reached the switch"
    );
    assert_eq!(world.node::<Switch>(sw).stats.total_drops(), 0);
}

/// Receive-buffer overflow is impossible while the host's own PFC is on:
/// the host XOFFs its ToR before the buffer fills.
#[test]
fn host_pfc_protects_its_rx_buffer() {
    let (mut world, _sw, hosts) = star(3, SwitchConfig::new("tor", 3), |i, cfg| {
        if i == 0 {
            // A receiver with a deliberately slow pipeline.
            cfg.rx.per_packet_ps = 400_000; // 2.5 M pps < line rate
        }
        cfg.cc = rocescale_cc::CcKind::Off;
    });
    for i in 1..3 {
        connect_qp(
            &mut world,
            hosts[i],
            hosts[0],
            5000 + i as u16,
            QpApp::Saturate {
                msg_len: 1 << 20,
                inflight: 2,
            },
            QpApp::None,
        );
    }
    world.run_until(SimTime::from_millis(5));
    let h = world.node::<RdmaHost>(hosts[0]);
    assert!(h.stats.pause_tx > 0, "slow pipeline must XOFF the ToR");
    assert_eq!(h.stats.rx_overflow, 0, "PFC must protect the rx buffer");
}

// ---- demand-armed periodic timers ----
//
// A periodic host timer is queued only while it has something to do, and
// while it is queued it fires on multiples of its period from t = 0 — the
// instants the always-armed timer of earlier versions fired on.

/// The congestion-control tick's timer token (`TOK_CC_TICK`, private to
/// the host) and its DCQCN period.
const TICK: (u64, SimTime) = (2, SimTime::from_micros(55));
/// The retransmission-timeout scan's token (`TOK_RTO`) and period.
const SCAN: (u64, SimTime) = (4, SimTime::from_micros(100));

/// An `RdmaHost` that logs every timer it is handed, so a test can state
/// which periodic timers the host kept queued, and when.
struct Spy {
    host: RdmaHost,
    timers: Vec<(SimTime, u64)>,
}

impl Spy {
    /// The instants timer `token` fired at.
    fn fired(&self, token: u64) -> Vec<SimTime> {
        let of_token = self.timers.iter().filter(|(_, tok)| *tok == token);
        of_token.map(|(t, _)| *t).collect()
    }
}

impl rocescale_sim::Node for Spy {
    fn on_start(&mut self, ctx: &mut rocescale_sim::Ctx<'_>) {
        self.host.on_start(ctx);
    }
    fn on_packet(
        &mut self,
        port: PortId,
        pkt: rocescale_packet::Packet,
        ctx: &mut rocescale_sim::Ctx<'_>,
    ) {
        self.host.on_packet(port, pkt, ctx);
    }
    fn on_port_idle(&mut self, port: PortId, ctx: &mut rocescale_sim::Ctx<'_>) {
        self.host.on_port_idle(port, ctx);
    }
    fn on_timer(&mut self, token: u64, ctx: &mut rocescale_sim::Ctx<'_>) {
        self.timers.push((ctx.now(), token));
        self.host.on_timer(token, ctx);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Two spied-on hosts cabled back to back (each one's gateway is simply
/// the peer's MAC), with one QP between them.
fn spied_pair(
    app_a: QpApp,
    app_b: QpApp,
    mut tweak: impl FnMut(&mut NicConfig),
) -> (World, [NodeId; 2]) {
    let mut world = World::new(7);
    let mut ids = [NodeId(0); 2];
    for i in 0..2u32 {
        let mut cfg = NicConfig::new(format!("h{i}"), i + 1, host_ip(i), MacAddr::from_id(2 - i));
        tweak(&mut cfg);
        let mut host = RdmaHost::new(cfg);
        host.add_qp(host_ip(1 - i), 0, 5000, if i == 0 { app_a } else { app_b });
        ids[i as usize] = world.add_node(Box::new(Spy {
            host,
            timers: Vec::new(),
        }));
    }
    world.connect(ids[0], PortId(0), ids[1], PortId(0), LinkSpec::server_40g());
    (world, ids)
}

/// Every multiple of `period` in `(0, until]`.
fn grid(period: SimTime, until: SimTime) -> Vec<SimTime> {
    (1..=until.as_ps() / period.as_ps())
        .map(|k| SimTime(k * period.as_ps()))
        .collect()
}

/// A started host that owns no QP queues nothing, ever: after the two
/// `Start` events the world is empty, where each host used to re-arm a
/// tick and a scan for as long as the simulation ran.
#[test]
fn a_host_without_qps_schedules_nothing() {
    let mut world = World::new(7);
    let a = NicConfig::new("a", 1, host_ip(0), MacAddr::from_id(2));
    let b = NicConfig::new("b", 2, host_ip(1), MacAddr::from_id(1));
    let a = world.add_node(Box::new(RdmaHost::new(a)));
    let b = world.add_node(Box::new(RdmaHost::new(b)));
    world.connect(a, PortId(0), b, PortId(0), LinkSpec::server_40g());
    world.run_until(SimTime::from_millis(10));
    assert_eq!(world.sched_stats().pushed, 2, "the two Start events only");
    assert_eq!(world.events_processed(), 2);
    assert_eq!(world.pending_events(), 0);
}

/// A host that only receives owns QPs, so DCQCN's per-QP timers tick on
/// every 55 µs line — but nothing of its own is ever unacknowledged, so
/// it never queues a retransmission scan. The sender, always with data
/// in flight, scans on every 100 µs line.
#[test]
fn a_receiver_only_host_ticks_but_never_scans() {
    let sat = QpApp::Saturate {
        msg_len: 64 * 1024,
        inflight: 2,
    };
    let (mut world, [tx, rx]) = spied_pair(sat, QpApp::None, |_| {});
    let end = SimTime::from_millis(1);
    world.run_until(end);
    let (tx, rx) = (world.node::<Spy>(tx), world.node::<Spy>(rx));
    assert!(rx.host.total_goodput_bytes() > 0);
    assert_eq!(rx.fired(SCAN.0), vec![], "receiver never scans");
    assert_eq!(rx.fired(TICK.0), grid(TICK.1, end), "receiver ticks");
    assert_eq!(tx.fired(SCAN.0), grid(SCAN.1, end), "sender scans");
    assert_eq!(tx.fired(TICK.0), grid(TICK.1, end));
}

/// The scan disarms once everything is acknowledged and re-arms on the
/// next send, on the grid: a pinger that sends at 40 µs + k ms, each
/// probe acknowledged within microseconds, gets exactly one scan per
/// probe — on the first 100 µs line after it — and so does the echoing
/// peer for its replies.
#[test]
fn the_scan_disarms_when_acked_and_rearms_on_the_next_send() {
    let pinger = QpApp::Pinger {
        payload: 512,
        interval: SimTime::from_millis(1),
        start_at: SimTime::from_micros(40),
    };
    let (mut world, [a, b]) = spied_pair(pinger, QpApp::Echo { reply_len: 512 }, |_| {});
    world.run_until(SimTime::from_millis(5));
    let one_per_probe: Vec<SimTime> = (0..5)
        .map(|k| SimTime::from_micros(k * 1000 + 100))
        .collect();
    assert_eq!(world.node::<Spy>(a).fired(SCAN.0), one_per_probe);
    assert_eq!(world.node::<Spy>(b).fired(SCAN.0), one_per_probe);
    assert_eq!(world.node::<Spy>(a).host.stats.rtt_samples_ps.len(), 5);
}

/// Tail loss is still recovered at the instant it always was: the first
/// 100 µs line at or after `last_progress + rto`. The §4.1 filter drops
/// the packet with IP ID 0xff — the 256th and last of a 256-packet
/// message, so no later packet can draw a NAK and only the timeout
/// recovers it.
#[test]
fn tail_loss_rewinds_on_the_first_grid_line_past_the_deadline() {
    let mut sw_cfg = SwitchConfig::new("tor", 2);
    sw_cfg.drop_ip_id_low_byte = Some(0xff);
    let (mut world, _sw, hosts) = star(2, sw_cfg, |_, _| {});
    let (qa, qb) = connect_qp(
        &mut world,
        hosts[0],
        hosts[1],
        5000,
        QpApp::None,
        QpApp::None,
    );
    world.node_mut::<RdmaHost>(hosts[0]).post(
        qa,
        Verb::Send { len: 256 * 1024 },
        SimTime::ZERO,
        false,
    );
    // All 256 packets are on the wire within ~55 µs; the last ACK that
    // will ever come (for packet 252) is back soon after.
    world.run_until(SimTime::from_micros(200));
    let tx = |w: &World| w.node::<RdmaHost>(hosts[0]).qp_endpoint(qa).clone();
    assert_eq!(tx(&world).stats.data_pkts_tx, 256);
    let deadline = tx(&world).rto_deadline_ps().expect("tail unacknowledged");
    let line = SimTime(deadline.div_ceil(SCAN.1.as_ps()) * SCAN.1.as_ps());
    // The instant measured on the always-armed host.
    assert_eq!(line, SimTime::from_micros(600));
    world.run_until(SimTime(line.as_ps() - 1));
    assert_eq!(tx(&world).stats.rto_rewinds, 0, "not before the line");
    world.run_until(line);
    assert_eq!(tx(&world).stats.rto_rewinds, 1, "on the line");
    world.run_until(SimTime::from_millis(1));
    let rx = world.node::<RdmaHost>(hosts[1]).qp_endpoint(qb);
    assert_eq!(rx.goodput_bytes(), 256 * 1024, "the message completes");
}

/// Work handed to a host from outside the event loop on a world that has
/// already run needs a `TOK_WAKE`: an idle host keeps no periodic timer
/// that would find it. The wake queues one pass of each periodic timer
/// and the first to fire starts the pump — here the scan's next 100 µs
/// line, congestion control being off and so tickless.
#[test]
fn a_wake_starts_work_injected_into_a_running_world() {
    use rocescale_nic::host::TOK_WAKE;
    let (mut world, _sw, hosts) = star(2, SwitchConfig::new("tor", 2), |_, cfg| {
        cfg.cc = rocescale_cc::CcKind::Off;
    });
    world.run_until(SimTime::from_micros(1234));
    let sat = QpApp::Saturate {
        msg_len: 64 * 1024,
        inflight: 2,
    };
    connect_qp(&mut world, hosts[0], hosts[1], 5000, sat, QpApp::None);
    let sent = |w: &World| w.node::<RdmaHost>(hosts[0]).stats.data_pkts_tx;
    world.run_until(SimTime::from_millis(2));
    assert_eq!(sent(&world), 0, "nothing finds the QP unprompted");
    world.schedule_timer(world.now(), hosts[0], TOK_WAKE);
    world.run_until(SimTime(SimTime::from_micros(2100).as_ps() - 1));
    assert_eq!(sent(&world), 0, "the wake itself does not pump");
    world.run_until(SimTime::from_micros(2100));
    assert!(sent(&world) > 0, "the next scan line does");
    world.run_until(SimTime::from_millis(3));
    assert!(world.node::<RdmaHost>(hosts[1]).total_goodput_bytes() > 0);
}

// ---- one pacing timer per instant ----

/// The transmit pump's timer token (`TOK_PUMP`, private to the host).
const PUMP: u64 = 1;

/// A peer that sends a PFC resume frame at each of `at`: the frame
/// changes nothing (nothing is paused) but runs the receiving host's
/// transmit pump, as every received packet does.
struct Resumer {
    at: Vec<SimTime>,
}

impl rocescale_sim::Node for Resumer {
    fn on_start(&mut self, ctx: &mut rocescale_sim::Ctx<'_>) {
        for &t in &self.at {
            ctx.set_timer_at(t, 0);
        }
    }
    fn on_packet(
        &mut self,
        _: PortId,
        _: rocescale_packet::Packet,
        _: &mut rocescale_sim::Ctx<'_>,
    ) {
    }
    fn on_timer(&mut self, _: u64, ctx: &mut rocescale_sim::Ctx<'_>) {
        let resume = rocescale_packet::Packet::new(
            ctx.next_packet_id(),
            rocescale_packet::EthMeta {
                src: MacAddr::from_id(9),
                dst: MacAddr::PAUSE_MULTICAST,
                vlan: None,
            },
            None,
            rocescale_packet::PacketKind::Pfc(rocescale_packet::PauseFrame::resume(
                rocescale_packet::Priority::new(3),
            )),
            ctx.now().as_ps(),
        );
        ctx.transmit(PortId(0), resume)
            .expect("frames are µs apart");
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A spied-on host whose only QP is paced at 1 Gb/s on a 40 G port, so
/// after its first packet it waits ~8.7 µs for the next one, and a
/// [`Resumer`] that sends it five frames inside that gap.
fn paced_host_hearing_frames() -> (World, NodeId) {
    let mut cfg = NicConfig::new("h0", 1, host_ip(0), MacAddr::from_id(9));
    cfg.cc = rocescale_cc::CcKind::Off;
    cfg.link_bps = 1_000_000_000;
    let mut host = RdmaHost::new(cfg);
    let sat = QpApp::Saturate {
        msg_len: 64 * 1024,
        inflight: 1,
    };
    host.add_qp(host_ip(1), 0, 5000, sat);
    let mut world = World::new(7);
    let h = world.add_node(Box::new(Spy {
        host,
        timers: Vec::new(),
    }));
    let at = (1..=5).map(SimTime::from_micros).collect();
    let peer = world.add_node(Box::new(Resumer { at }));
    world.connect(h, PortId(0), peer, PortId(0), LinkSpec::server_40g());
    (world, h)
}

/// Every call of the pump that finds its QP paced wants a `TOK_PUMP` at
/// the paced instant: one when the first packet leaves the port and one
/// per frame heard in the gap. The host queues only the first; the
/// others would fire after it at the same instant and find nothing to
/// send. The pump still sends at the paced instant, not a moment later.
#[test]
fn a_paced_host_queues_one_pump_per_instant() {
    let (mut world, h) = paced_host_hearing_frames();
    // Past the paced instant, short of the one after it.
    world.run_until(SimTime::from_micros(12));
    let spy = world.node::<Spy>(h);
    let pumps = spy.fired(PUMP);
    assert_eq!(pumps.len(), 1, "one pump for the paced instant: {pumps:?}");
    let paced = pumps[0];
    assert!(paced > SimTime::from_micros(5), "after the last frame");
    assert_eq!(spy.host.stats.data_pkts_tx, 2);

    let (mut world, h) = paced_host_hearing_frames();
    let sent = |w: &World| w.node::<Spy>(h).host.stats.data_pkts_tx;
    world.run_until(SimTime(paced.as_ps() - 1));
    assert_eq!(sent(&world), 1, "nothing before the paced instant");
    world.run_until(paced);
    assert_eq!(sent(&world), 2, "the pump sends at it");
}
