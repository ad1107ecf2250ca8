//! Behavioural tests for the switch node: forwarding, PFC generation and
//! reaction, flooding, the deadlock fix, ECN, and the storm watchdog.

use std::any::Any;
use std::collections::VecDeque;

use rocescale_monitor::{MetricsHub, TraceEvent};
use rocescale_packet::{
    EcnCodepoint, EthMeta, Ipv4Meta, MacAddr, Packet, PacketKind, PauseFrame, PfcMode,
    PfcPauseFrame, Priority, RoceOpcode, RocePacket,
};
use rocescale_sim::{Ctx, LinkSpec, Node, NodeId, PortId, SimTime, World};
use rocescale_switch::{DropReason, EcmpGroup, PortRole, Switch, SwitchConfig};

/// A scriptable host NIC for switch tests: sends a queue of packets as
/// fast as its link (honouring PFC if asked), records what it receives.
struct TestHost {
    mac: MacAddr,
    queue: VecDeque<Packet>,
    honor_pfc: bool,
    paused_until: [SimTime; 8],
    received: Vec<Packet>,
    pause_rx: u64,
    /// Malfunction mode: emit pause frames continuously (§4.3 storm) —
    /// modelled as a max-duration pause refreshed every 100 µs, which
    /// keeps the peer pinned exactly like back-to-back frames would.
    storm: bool,
    storm_armed: bool,
}

const TOK_RESUME_CHECK: u64 = 1;
const TOK_STORM: u64 = 2;

impl TestHost {
    fn new(mac: MacAddr) -> TestHost {
        TestHost {
            mac,
            queue: VecDeque::new(),
            honor_pfc: true,
            paused_until: [SimTime::ZERO; 8],
            received: Vec::new(),
            pause_rx: 0,
            storm: false,
            storm_armed: false,
        }
    }

    fn priority_of(pkt: &Packet) -> usize {
        pkt.ip.map(|ip| (ip.dscp & 7) as usize).unwrap_or(0)
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        if self.storm {
            if !ctx.port_busy(PortId(0)) && !self.storm_armed {
                let pkt = Packet::new(
                    ctx.next_packet_id(),
                    EthMeta {
                        src: self.mac,
                        dst: MacAddr::PAUSE_MULTICAST,
                        vlan: None,
                    },
                    None,
                    PacketKind::Pfc(PauseFrame::pause(Priority::new(3), u16::MAX)),
                    ctx.now().as_ps(),
                );
                let _ = ctx.transmit(PortId(0), pkt);
                self.storm_armed = true;
                ctx.set_timer(SimTime::from_micros(100), TOK_STORM);
            }
            return;
        }
        while !ctx.port_busy(PortId(0)) {
            let Some(pkt) = self.queue.front() else {
                return;
            };
            let prio = Self::priority_of(pkt);
            if self.honor_pfc && self.paused_until[prio] > ctx.now() {
                // Re-check when the pause lapses.
                let until = self.paused_until[prio];
                ctx.set_timer_at(until, TOK_RESUME_CHECK);
                return;
            }
            let pkt = self.queue.pop_front().expect("front checked");
            ctx.transmit(PortId(0), pkt).expect("port checked idle");
        }
    }
}

impl Node for TestHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.pump(ctx);
    }
    fn on_packet(&mut self, _port: PortId, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketKind::Pfc(f) = pkt.kind {
            self.pause_rx += 1;
            let rate = ctx.port_rate(PortId(0)).unwrap_or(40_000_000_000);
            for (prio, quanta) in f.entries() {
                self.paused_until[prio.index()] = if quanta == 0 {
                    ctx.now()
                } else {
                    ctx.now() + SimTime(rocescale_packet::PfcPauseFrame::quanta_to_ps(quanta, rate))
                };
            }
            self.pump(ctx);
            return;
        }
        self.received.push(pkt);
    }
    fn on_port_idle(&mut self, _port: PortId, ctx: &mut Ctx<'_>) {
        self.pump(ctx);
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if token == TOK_STORM {
            self.storm_armed = false;
        }
        self.pump(ctx);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[allow(clippy::too_many_arguments)]
fn roce_data(
    id: u64,
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: u32,
    dst_ip: u32,
    dscp: u8,
    ip_id: u16,
    payload: u32,
    udp_src: u16,
) -> Packet {
    Packet::new(
        id,
        EthMeta {
            src: src_mac,
            dst: dst_mac,
            vlan: None,
        },
        Some(Ipv4Meta {
            src: src_ip,
            dst: dst_ip,
            dscp,
            ecn: EcnCodepoint::Ect,
            id: ip_id,
            ttl: 64,
        }),
        PacketKind::Roce(RocePacket {
            opcode: RoceOpcode::Send,
            dest_qp: 1,
            src_qp: 1,
            psn: id as u32,
            payload,
            is_first: false,
            is_last: false,
            udp_src,
        }),
        0,
    )
}

const IP_A: u32 = 0x0a000001;
const IP_B: u32 = 0x0a000002;

/// Two hosts on one ToR, L3-connected subnet; B's link is 10× slower so a
/// sustained burst from A must trigger PFC instead of drops (Figure 2).
struct TorPair {
    world: World,
    sw: NodeId,
    a: NodeId,
    b: NodeId,
    sw_mac: MacAddr,
    a_mac: MacAddr,
    b_mac: MacAddr,
}

fn tor_pair(cfg: SwitchConfig, slow_receiver: bool) -> TorPair {
    let b_rate = if slow_receiver {
        4_000_000_000
    } else {
        40_000_000_000
    };
    tor_pair_at(cfg, 40_000_000_000, b_rate)
}

/// The same pair with A's link at `a_bps` and B's at `b_bps`.
fn tor_pair_at(mut cfg: SwitchConfig, a_bps: u64, b_bps: u64) -> TorPair {
    let sw_mac = MacAddr::from_id(100);
    let a_mac = MacAddr::from_id(1);
    let b_mac = MacAddr::from_id(2);
    cfg.port_roles = vec![PortRole::Server, PortRole::Server];
    let mut sw = Switch::new(cfg, sw_mac, 7);
    sw.routes_mut().add_connected(0x0a000000, 24);
    sw.seed_arp(IP_A, a_mac, SimTime::ZERO);
    sw.seed_arp(IP_B, b_mac, SimTime::ZERO);
    sw.seed_mac(a_mac, PortId(0), SimTime::ZERO);
    sw.seed_mac(b_mac, PortId(1), SimTime::ZERO);
    let mut world = World::new(42);
    let sw_id = world.add_node(Box::new(sw));
    let a = world.add_node(Box::new(TestHost::new(a_mac)));
    let b = world.add_node(Box::new(TestHost::new(b_mac)));
    world.connect(
        a,
        PortId(0),
        sw_id,
        PortId(0),
        LinkSpec::with_length(a_bps, 2),
    );
    world.connect(
        b,
        PortId(0),
        sw_id,
        PortId(1),
        LinkSpec::with_length(b_bps, 2),
    );
    TorPair {
        world,
        sw: sw_id,
        a,
        b,
        sw_mac,
        a_mac,
        b_mac,
    }
}

fn queue_burst(t: &mut TorPair, n: u64, dscp: u8) {
    let (a_mac, sw_mac) = (t.a_mac, t.sw_mac);
    let host = t.world.node_mut::<TestHost>(t.a);
    for i in 0..n {
        host.queue.push_back(roce_data(
            i, a_mac, sw_mac, IP_A, IP_B, dscp, i as u16, 1024, 5000,
        ));
    }
}

#[test]
fn l3_forwarding_delivers() {
    let mut t = tor_pair(SwitchConfig::new("tor", 2), false);
    queue_burst(&mut t, 10, 3);
    assert!(t.world.run_until_idle(100_000));
    let b = t.world.node::<TestHost>(t.b);
    assert_eq!(b.received.len(), 10);
    // The switch rewrote MACs and decremented TTL.
    let p = &b.received[0];
    assert_eq!(p.eth.src, t.sw_mac);
    assert_eq!(p.eth.dst, t.b_mac);
    assert_eq!(p.ip.unwrap().ttl, 63);
    let sw = t.world.node::<Switch>(t.sw);
    assert_eq!(sw.stats.total_drops(), 0);
}

/// Figure 2: a lossless class into a slow receiver generates pause frames
/// and zero drops; the sender is throttled, everything arrives.
#[test]
fn pfc_prevents_loss_on_lossless_class() {
    let mut t = tor_pair(SwitchConfig::new("tor", 2), true);
    queue_burst(&mut t, 3000, 3); // 3 MB burst into a 12 MB buffer, 4G drain
    assert!(t.world.run_until_idle(10_000_000));
    let b = t.world.node::<TestHost>(t.b);
    assert_eq!(b.received.len(), 3000, "lossless: every packet arrives");
    let a = t.world.node::<TestHost>(t.a);
    assert!(a.pause_rx > 0, "sender must have been paused");
    let sw = t.world.node::<Switch>(t.sw);
    assert_eq!(sw.stats.total_drops(), 0);
    assert!(sw.stats.total_pause_tx() > 0);
    assert!(
        sw.stats.resume_tx.iter().sum::<u64>() > 0,
        "XON resumes sent"
    );
}

/// PFC timing follows the link's own rate. On 100 G links B sends one
/// XOFF of 0xffff quanta: the switch's egress toward B stays paused for
/// exactly `quanta_to_ps(0xffff, 100 G)` — 335.5 µs, where 40 G would be
/// 838.8 µs — and nothing reaches B before it lapses. Meanwhile A's
/// lossless burst fills its ingress counter, the switch pauses A, and
/// while the counter stays over XOFF the pause is refreshed half a pause
/// later, to the picosecond.
#[test]
fn pfc_timing_follows_a_100g_link() {
    const G100: u64 = 100_000_000_000;
    let full = SimTime(PfcPauseFrame::quanta_to_ps(u16::MAX, G100));
    assert_eq!(full.as_ps(), 335_539_200);
    let mut t = tor_pair_at(SwitchConfig::new("tor", 2), G100, G100);
    let xoff = Packet::new(
        u64::MAX,
        EthMeta {
            src: t.b_mac,
            dst: MacAddr::PAUSE_MULTICAST,
            vlan: None,
        },
        None,
        PacketKind::Pfc(PauseFrame::pause(Priority::new(3), u16::MAX)),
        0,
    );
    t.world.node_mut::<TestHost>(t.b).queue.push_back(xoff);
    queue_burst(&mut t, 1000, 3);
    // (XOFFs received from B, XOFFs sent to A) so far.
    let pauses = |t: &TorPair| {
        let st = &t.world.node::<Switch>(t.sw).stats;
        (st.pause_rx[1], st.pause_tx[0])
    };
    while pauses(&t).0 == 0 {
        assert!(t.world.step());
    }
    let paused_at = t.world.now();
    let sw = t.world.node::<Switch>(t.sw);
    let p3 = Priority::new(3);
    assert!(sw.is_paused(PortId(1), p3, paused_at + full - SimTime(1)));
    assert!(!sw.is_paused(PortId(1), p3, paused_at + full));

    while pauses(&t).1 == 0 {
        assert!(t.world.step());
    }
    let refresh = t.world.now() + SimTime(full.as_ps() / 2);
    assert!(
        refresh < paused_at + full,
        "B's pause still holds A's bytes"
    );
    t.world.run_until(refresh - SimTime(1));
    assert_eq!(pauses(&t).1, 1);
    t.world.run_until(refresh);
    assert_eq!(pauses(&t).1, 2, "refreshed half a pause later");

    t.world.run_until(paused_at + full - SimTime(1));
    assert!(t.world.node::<TestHost>(t.b).received.is_empty());
    assert!(t.world.run_until_idle(10_000_000));
    assert_eq!(t.world.node::<TestHost>(t.b).received.len(), 1000);
    assert_eq!(t.world.node::<Switch>(t.sw).stats.total_drops(), 0);
}

/// The same burst in a lossy class drops instead of pausing.
#[test]
fn lossy_class_drops_instead_of_pausing() {
    let mut t = tor_pair(SwitchConfig::new("tor", 2), true);
    queue_burst(&mut t, 3000, 0); // priority 0 is lossy
    assert!(t.world.run_until_idle(10_000_000));
    let sw = t.world.node::<Switch>(t.sw);
    assert!(sw.stats.drops_of(DropReason::LossyOverflow) > 0);
    assert_eq!(sw.stats.total_pause_tx(), 0, "no PFC for lossy classes");
    let b = t.world.node::<TestHost>(t.b);
    assert!(b.received.len() < 3000);
    assert!(!b.received.is_empty());
}

/// §4.1 fault injection: drop every packet whose IP ID low byte is 0xff.
#[test]
fn ip_id_filter_drops_1_in_256() {
    let mut cfg = SwitchConfig::new("tor", 2);
    cfg.drop_ip_id_low_byte = Some(0xff);
    let mut t = tor_pair(cfg, false);
    queue_burst(&mut t, 512, 3); // ip_id 0..511 — exactly 2 match 0xff
    assert!(t.world.run_until_idle(1_000_000));
    let sw = t.world.node::<Switch>(t.sw);
    assert_eq!(sw.stats.drops_of(DropReason::InjectedFilter), 2);
    assert_eq!(t.world.node::<TestHost>(t.b).received.len(), 510);
}

/// ECN: a standing queue at the slow egress must CE-mark some ECT packets
/// (DCQCN's congestion-point behaviour).
#[test]
fn ecn_marks_under_queue_buildup() {
    let mut t = tor_pair(SwitchConfig::new("tor", 2), true);
    queue_burst(&mut t, 2000, 3);
    assert!(t.world.run_until_idle(10_000_000));
    let sw = t.world.node::<Switch>(t.sw);
    assert!(sw.stats.ecn_marked > 0);
    let b = t.world.node::<TestHost>(t.b);
    let ce = b
        .received
        .iter()
        .filter(|p| p.ip.unwrap().ecn == EcnCodepoint::Ce)
        .count();
    assert_eq!(ce as u64, sw.stats.ecn_marked);
}

/// Unknown MAC-table entry with a live ARP entry floods to every port —
/// the §4.2 deadlock ingredient.
#[test]
fn incomplete_arp_floods() {
    let mut t = tor_pair(SwitchConfig::new("tor", 2), false);
    // Kill B's MAC entry (ARP survives): the incomplete-entry state.
    t.world.node_mut::<Switch>(t.sw).evict_mac(t.b_mac);
    queue_burst(&mut t, 5, 3);
    assert!(t.world.run_until_idle(100_000));
    // Flooded copies still reach B (its port is in the flood set).
    let b = t.world.node::<TestHost>(t.b);
    assert_eq!(b.received.len(), 5);
}

/// The paper's fix: with `drop_lossless_on_incomplete_arp`, lossless
/// packets are dropped rather than flooded; lossy packets still flood.
#[test]
fn deadlock_fix_drops_lossless_on_incomplete_arp() {
    let mut cfg = SwitchConfig::new("tor", 2);
    cfg.drop_lossless_on_incomplete_arp = true;
    let hub = MetricsHub::enabled();
    cfg.telemetry = hub.clone();
    let mut t = tor_pair(cfg, false);
    t.world.node_mut::<Switch>(t.sw).evict_mac(t.b_mac);
    queue_burst(&mut t, 5, 3); // lossless class
    queue_burst(&mut t, 5, 0); // lossy class
    assert!(t.world.run_until_idle(100_000));
    let sw = t.world.node::<Switch>(t.sw);
    assert_eq!(sw.stats.drops_of(DropReason::IncompleteArpLossless), 5);
    let b = t.world.node::<TestHost>(t.b);
    assert_eq!(b.received.len(), 5, "lossy packets still flooded through");
    // One flight record per drop: its reason says it was the §4.2 fix.
    let (records, evicted) = hub.flight_snapshot();
    assert_eq!(evicted, 0);
    let events: Vec<TraceEvent> = records.into_iter().map(|(.., e)| e).collect();
    let drop = TraceEvent::Drop {
        reason: DropReason::IncompleteArpLossless.name(),
    };
    assert_eq!(events, [drop; 5]);
}

/// §3: VLAN-based PFC forces server ports into trunk mode, which drops the
/// untagged frames PXE boot relies on. DSCP mode forwards them.
#[test]
fn vlan_trunk_mode_breaks_untagged_pxe() {
    let untagged = |id| {
        Packet::new(
            id,
            EthMeta {
                src: MacAddr::from_id(1),
                dst: MacAddr::from_id(2),
                vlan: None,
            },
            None,
            PacketKind::Raw {
                label: 67,
                size: 300,
            }, // a DHCP/PXE-ish frame
            0,
        )
    };
    for (mode, delivered) in [(PfcMode::Vlan, 0usize), (PfcMode::Dscp, 3usize)] {
        let mut cfg = SwitchConfig::new("tor", 2);
        cfg.classify = mode;
        let mut t = tor_pair(cfg, false);
        for i in 0..3 {
            t.world
                .node_mut::<TestHost>(t.a)
                .queue
                .push_back(untagged(i));
        }
        assert!(t.world.run_until_idle(100_000));
        let b = t.world.node::<TestHost>(t.b);
        assert_eq!(b.received.len(), delivered, "mode {mode:?}");
        if mode == PfcMode::Vlan {
            let sw = t.world.node::<Switch>(t.sw);
            assert_eq!(sw.stats.drops_of(DropReason::UntaggedOnTrunk), 3);
        }
    }
}

/// §4.3 switch watchdog: a host stuck in pause-storm mode gets its port's
/// lossless mode disabled (unblocking the fabric) and re-enabled after the
/// storm ends.
#[test]
fn storm_watchdog_disables_and_reenables() {
    let mut cfg = SwitchConfig::new("tor", 2);
    cfg.watchdog.enabled = true;
    cfg.watchdog.disable_after = SimTime::from_millis(5);
    cfg.watchdog.reenable_after = SimTime::from_millis(50);
    cfg.watchdog.poll_every = SimTime::from_millis(1);
    let mut t = tor_pair(cfg, false);
    // B storms from t=0; A keeps sending to B so the egress backlog exists.
    t.world.node_mut::<TestHost>(t.b).storm = true;
    queue_burst(&mut t, 50_000, 3);
    t.world.run_until(SimTime::from_millis(30));
    {
        let sw = t.world.node::<Switch>(t.sw);
        assert!(sw.lossless_disabled(PortId(1)), "watchdog must trip");
        assert!(sw.stats.watchdog_disables >= 1);
        assert!(sw.stats.drops_of(DropReason::WatchdogLosslessOff) > 0);
    }
    // Stop the storm; drain A's queue too so the port can go quiet.
    t.world.node_mut::<TestHost>(t.b).storm = false;
    t.world.node_mut::<TestHost>(t.a).queue.clear();
    t.world.run_until(SimTime::from_millis(200));
    let sw = t.world.node::<Switch>(t.sw);
    assert!(!sw.lossless_disabled(PortId(1)), "watchdog must re-enable");
    assert!(sw.stats.watchdog_reenables >= 1);
}

/// Without the watchdog, the same storm keeps the port paused and the
/// sender ends up paused too (pause propagation toward the source).
#[test]
fn storm_without_watchdog_propagates_pauses() {
    let mut t = tor_pair(SwitchConfig::new("tor", 2), false);
    t.world.node_mut::<TestHost>(t.b).storm = true;
    queue_burst(&mut t, 50_000, 3);
    t.world.run_until(SimTime::from_millis(30));
    let sw = t.world.node::<Switch>(t.sw);
    assert!(sw.stats.total_pause_tx() > 0, "switch pauses the sender");
    let a = t.world.node::<TestHost>(t.a);
    assert!(a.pause_rx > 0, "victim sender is paused");
    let b = t.world.node::<TestHost>(t.b);
    assert!(
        b.received.len() < 50_000,
        "traffic is stuck behind the storm"
    );
}

/// ECMP across two fabric ports: distinct QPs (UDP source ports) spread;
/// one QP sticks to one path.
#[test]
fn ecmp_spreads_qps_across_uplinks() {
    let sw_mac = MacAddr::from_id(100);
    let a_mac = MacAddr::from_id(1);
    let mut cfg = SwitchConfig::new("leaf", 3);
    cfg.port_roles = vec![PortRole::Server, PortRole::Fabric, PortRole::Fabric];
    let mut sw = Switch::new(cfg, sw_mac, 7);
    sw.routes_mut()
        .add(0x0a010000, 24, EcmpGroup::new(vec![PortId(1), PortId(2)]));
    sw.set_peer_mac(PortId(1), MacAddr::from_id(201));
    sw.set_peer_mac(PortId(2), MacAddr::from_id(202));
    let mut world = World::new(1);
    let sw_id = world.add_node(Box::new(sw));
    let a = world.add_node(Box::new(TestHost::new(a_mac)));
    let up1 = world.add_node(Box::new(TestHost::new(MacAddr::from_id(201))));
    let up2 = world.add_node(Box::new(TestHost::new(MacAddr::from_id(202))));
    world.connect(a, PortId(0), sw_id, PortId(0), LinkSpec::server_40g());
    world.connect(up1, PortId(0), sw_id, PortId(1), LinkSpec::tor_leaf_40g());
    world.connect(up2, PortId(0), sw_id, PortId(2), LinkSpec::tor_leaf_40g());
    {
        let host = world.node_mut::<TestHost>(a);
        for i in 0..400u64 {
            // 40 QPs × 10 packets each.
            let udp_src = 5000 + (i % 40) as u16;
            host.queue.push_back(roce_data(
                i, a_mac, sw_mac, IP_A, 0x0a010005, 3, i as u16, 256, udp_src,
            ));
        }
    }
    assert!(world.run_until_idle(1_000_000));
    let r1 = world.node::<TestHost>(up1).received.len();
    let r2 = world.node::<TestHost>(up2).received.len();
    assert_eq!(r1 + r2, 400);
    assert!(r1 > 80 && r2 > 80, "unbalanced: {r1}/{r2}");
    // Per-QP path stability: all packets of one QP on one uplink.
    for up in [up1, up2] {
        let host = world.node::<TestHost>(up);
        for p in &host.received {
            let t = p.five_tuple().unwrap();
            let other = world.node::<TestHost>(if up == up1 { up2 } else { up1 });
            assert!(
                !other.received.iter().any(|q| q.five_tuple().unwrap() == t),
                "QP split across paths"
            );
        }
    }
    // Every packet left on its own five-tuple's salted hash pick.
    let group = EcmpGroup::new(vec![PortId(1), PortId(2)]);
    for (up, port) in [(up1, PortId(1)), (up2, PortId(2))] {
        for p in &world.node::<TestHost>(up).received {
            assert_eq!(group.select(&p.five_tuple().unwrap(), 7), port);
        }
    }
}

/// A route change through `routes_mut` takes effect for live flows at
/// once: flows that hashed onto either uplink under the old table all
/// follow the new one.
#[test]
fn route_change_moves_live_flows() {
    let sw_mac = MacAddr::from_id(100);
    let a_mac = MacAddr::from_id(1);
    let mut cfg = SwitchConfig::new("leaf", 3);
    cfg.port_roles = vec![PortRole::Server, PortRole::Fabric, PortRole::Fabric];
    let mut sw = Switch::new(cfg, sw_mac, 7);
    sw.routes_mut()
        .add(0x0a010000, 24, EcmpGroup::new(vec![PortId(1), PortId(2)]));
    sw.set_peer_mac(PortId(1), MacAddr::from_id(201));
    sw.set_peer_mac(PortId(2), MacAddr::from_id(202));
    let mut world = World::new(1);
    let sw_id = world.add_node(Box::new(sw));
    let a = world.add_node(Box::new(TestHost::new(a_mac)));
    let up1 = world.add_node(Box::new(TestHost::new(MacAddr::from_id(201))));
    let up2 = world.add_node(Box::new(TestHost::new(MacAddr::from_id(202))));
    world.connect(a, PortId(0), sw_id, PortId(0), LinkSpec::server_40g());
    world.connect(up1, PortId(0), sw_id, PortId(1), LinkSpec::tor_leaf_40g());
    world.connect(up2, PortId(0), sw_id, PortId(2), LinkSpec::tor_leaf_40g());
    let enqueue = |world: &mut World, base: u64| {
        let host = world.node_mut::<TestHost>(a);
        for i in 0..100u64 {
            let udp_src = 5000 + (i % 10) as u16; // 10 QPs, 10 packets each
            host.queue.push_back(roce_data(
                base + i,
                a_mac,
                sw_mac,
                IP_A,
                0x0a010005,
                3,
                i as u16,
                256,
                udp_src,
            ));
        }
    };
    enqueue(&mut world, 0);
    assert!(world.run_until_idle(1_000_000));
    let before1 = world.node::<TestHost>(up1).received.len();
    let before2 = world.node::<TestHost>(up2).received.len();
    assert!(
        before1 > 0 && before2 > 0,
        "ECMP imbalance: {before1}/{before2}"
    );
    // Reroute: a /32 for the destination via uplink 2 only, including
    // for the flows that hashed onto port 1.
    world
        .node_mut::<Switch>(sw_id)
        .routes_mut()
        .add(0x0a010005, 32, EcmpGroup::single(PortId(2)));
    enqueue(&mut world, 1000);
    world.schedule_timer(world.now(), a, TOK_RESUME_CHECK);
    assert!(world.run_until_idle(1_000_000));
    let after1 = world.node::<TestHost>(up1).received.len();
    let after2 = world.node::<TestHost>(up2).received.len();
    assert_eq!(after1, before1, "old decision used after reroute");
    assert_eq!(after2, before2 + 100, "reroute did not take effect");
}

/// Three egress ports of one switch go idle on the same tick, over and
/// over: three senders start together on identical links, each feeding
/// its own (slower, identical) egress port, so every egress queue is
/// backlogged and the three port-idle events always share a timestamp.
/// Each idle must start that port's next frame immediately — arrivals
/// downstream are exactly one serialization apart — and the three are
/// serviced in event order, lowest port first.
#[test]
fn same_tick_port_idles_each_start_their_next_frame_in_event_order() {
    const PAIRS: usize = 3;
    const FRAMES: u64 = 8;
    let sw_mac = MacAddr::from_id(100);
    let mut cfg = SwitchConfig::new("tor", 2 * PAIRS as u16);
    cfg.port_roles = vec![PortRole::Server; 2 * PAIRS];
    let mut sw = Switch::new(cfg, sw_mac, 7);
    sw.routes_mut().add_connected(0x0a000000, 24);
    let mac = |port: usize| MacAddr::from_id(1 + port as u32);
    let ip = |port: usize| 0x0a000001 + port as u32;
    for port in 0..2 * PAIRS {
        sw.seed_arp(ip(port), mac(port), SimTime::ZERO);
        sw.seed_mac(mac(port), PortId(port as u16), SimTime::ZERO);
    }
    let mut world = World::new(1);
    let sw_id = world.add_node(Box::new(sw));
    let egress = LinkSpec::with_length(10_000_000_000, 2);
    let mut receivers = Vec::new();
    for port in 0..2 * PAIRS {
        let mut host = TestHost::new(mac(port));
        let spec = if port < PAIRS {
            for i in 0..FRAMES {
                host.queue.push_back(roce_data(
                    i,
                    mac(port),
                    sw_mac,
                    ip(port),
                    ip(port + PAIRS),
                    3,
                    i as u16,
                    1024,
                    5000,
                ));
            }
            LinkSpec::server_40g()
        } else {
            egress
        };
        let id = world.add_node(Box::new(host));
        world.connect(id, PortId(0), sw_id, PortId(port as u16), spec);
        if port >= PAIRS {
            receivers.push(id);
        }
    }
    // Single-step the world, logging which receiver each delivery hit.
    let mut seen = [0usize; PAIRS];
    let mut deliveries = Vec::new();
    while world.step() {
        for (r, &id) in receivers.iter().enumerate() {
            let n = world.node::<TestHost>(id).received.len();
            if n > seen[r] {
                seen[r] = n;
                deliveries.push((world.now(), r));
            }
        }
    }
    assert_eq!(deliveries.len(), PAIRS * FRAMES as usize);
    let wire = world.node::<TestHost>(receivers[0]).received[0].wire_size();
    let ser = SimTime(rocescale_sim::serialization_ps(wire, egress.rate_bps));
    for (k, round) in deliveries.chunks(PAIRS).enumerate() {
        let t = deliveries[0].0 + SimTime(ser.as_ps() * k as u64);
        let want: Vec<(SimTime, usize)> = (0..PAIRS).map(|r| (t, r)).collect();
        assert_eq!(round, want, "round {k}");
    }
    for &id in &receivers {
        let ids: Vec<u64> = world
            .node::<TestHost>(id)
            .received
            .iter()
            .map(|p| p.id)
            .collect();
        assert_eq!(ids, (0..FRAMES).collect::<Vec<_>>());
    }
    assert_eq!(world.node::<Switch>(sw_id).stats.total_drops(), 0);
}

/// Marking draws are keyed on the packet, port and instant, not taken
/// from a stream shared by the world: the packets of flow A → B the ramp
/// marks are the same whether or not an unrelated flow C → D is marked
/// at another egress port at the same time.
#[test]
fn a_flows_marks_do_not_depend_on_other_ports_draws() {
    const IP_C: u32 = 0x0a000003;
    const IP_D: u32 = 0x0a000004;
    let run = |with_other_flow: bool| {
        let sw_mac = MacAddr::from_id(100);
        let macs = [1, 2, 3, 4].map(MacAddr::from_id);
        let ips = [IP_A, IP_B, IP_C, IP_D];
        let mut cfg = SwitchConfig::new("tor", 4);
        cfg.port_roles = vec![PortRole::Server; 4];
        // Static XOFF: each ingress pauses on its own occupancy, so the
        // other flow cannot move A's queue through the shared buffer.
        cfg.buffer.alpha = None;
        let mut sw = Switch::new(cfg, sw_mac, 7);
        sw.routes_mut().add_connected(0x0a000000, 24);
        for (i, (&ip, &mac)) in ips.iter().zip(&macs).enumerate() {
            sw.seed_arp(ip, mac, SimTime::ZERO);
            sw.seed_mac(mac, PortId(i as u16), SimTime::ZERO);
        }
        let mut world = World::new(42);
        let sw_id = world.add_node(Box::new(sw));
        let hosts: Vec<NodeId> = macs
            .iter()
            .enumerate()
            .map(|(i, &mac)| {
                let h = world.add_node(Box::new(TestHost::new(mac)));
                // Receivers B and D are slow, so both egress queues climb
                // the marking ramp.
                let bps = [40_000_000_000, 4_000_000_000][i % 2];
                world.connect(
                    h,
                    PortId(0),
                    sw_id,
                    PortId(i as u16),
                    LinkSpec::with_length(bps, 2),
                );
                h
            })
            .collect();
        let senders = if with_other_flow { 2 } else { 1 };
        for s in 0..senders {
            let (src, dst) = (2 * s, 2 * s + 1);
            let host = world.node_mut::<TestHost>(hosts[src]);
            for i in 0..2000u64 {
                host.queue.push_back(roce_data(
                    i, macs[src], sw_mac, ips[src], ips[dst], 3, i as u16, 1024, 5000,
                ));
            }
        }
        assert!(world.run_until_idle(10_000_000));
        let b = world.node::<TestHost>(hosts[1]);
        let ce = b
            .received
            .iter()
            .filter(|p| p.ip.unwrap().ecn == EcnCodepoint::Ce);
        let marked: Vec<u16> = ce.map(|p| p.ip.unwrap().id).collect();
        let d_marked = world.node::<Switch>(sw_id).stats.ecn_marked - marked.len() as u64;
        (marked, world.node::<TestHost>(hosts[0]).pause_rx, d_marked)
    };
    let (alone, alone_pauses, _) = run(false);
    let (shared, shared_pauses, other_marks) = run(true);
    assert!(
        !alone.is_empty() && other_marks > 0,
        "both queues must mark"
    );
    assert_eq!(
        alone_pauses, shared_pauses,
        "A must see the same PFC either way"
    );
    assert_eq!(alone, shared, "A's marks moved with C → D's traffic");
}
