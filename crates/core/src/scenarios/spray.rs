//! §8.1 future work, made concrete — per-packet routing vs per-flow ECMP.
//!
//! "Our measurement showed ECMP achieves only 60% network utilization.
//! For TCP in best-effort networks, there are MPTCP and per-packet
//! routing for better network utilization. How to make these designs work
//! for RDMA in the lossless network context will be an interesting
//! challenge."
//!
//! This ablation shows exactly why it is a challenge. The fabric is a
//! two-path diamond whose paths have *different* cable lengths (5 m vs
//! 300 m — both within the paper's stated spans), as real multi-building
//! fabrics do. Per-flow ECMP pins each QP to one path: perfect ordering.
//! Per-packet spraying balances the links beautifully — and the delay
//! skew reorders the stream, which RoCEv2's go-back-N transport treats
//! as loss: NAKs, whole-window retransmissions, goodput collapse, with
//! **zero** packets actually dropped.

use rocescale_nic::{NicConfig, QpApp, QpHandle, RdmaHost};
use rocescale_packet::MacAddr;
use rocescale_sim::{LinkSpec, NodeId, PortId, SimTime, World};
use rocescale_switch::{EcmpGroup, PortRole, Switch, SwitchConfig};

use crate::scenarios::gbps;

/// Result of one routing-mode arm.
#[derive(Debug, Clone)]
pub struct SprayResult {
    /// Per-packet spraying on?
    pub spraying: bool,
    /// Receiver goodput, Gb/s.
    pub goodput_gbps: f64,
    /// Raw wire throughput at the sender, Gb/s (spraying keeps the wire
    /// busy — the waste is retransmission, not idleness).
    pub wire_gbps: f64,
    /// Out-of-sequence packets at the receiver (the reordering).
    pub out_of_seq: u64,
    /// NAKs the receiver generated.
    pub naks: u64,
    /// Packets dropped in the fabric (zero in both arms).
    pub drops: u64,
}

const IP_A: u32 = 0x0a000001;
const IP_B: u32 = 0x0a000101;

/// Run one arm: A → B across a two-path diamond (short leaf at 5 m, long
/// leaf at 300 m) for `dur`.
pub fn run(spraying: bool, dur: SimTime) -> SprayResult {
    let mac = MacAddr::from_id;
    let (t0_mac, t1_mac, short_mac, long_mac) = (mac(0xe0), mac(0xe1), mac(0xea), mac(0xeb));
    let sw = |name: &str, ports: u16, roles: Vec<PortRole>| {
        let mut cfg = SwitchConfig::new(name, ports);
        cfg.port_roles = roles;
        cfg.per_packet_spraying = spraying;
        cfg
    };
    use PortRole::{Fabric as F, Server as S};
    // T0: p0=A p1=short-leaf p2=long-leaf; T1 mirrored for B.
    let mut t0 = Switch::new(sw("T0", 3, vec![S, F, F]), t0_mac, 71);
    t0.routes_mut().add_connected(0x0a000000, 24);
    t0.routes_mut()
        .add(0x0a000100, 24, EcmpGroup::new(vec![PortId(1), PortId(2)]));
    t0.set_peer_mac(PortId(1), short_mac);
    t0.set_peer_mac(PortId(2), long_mac);
    t0.seed_arp(IP_A, mac(1), SimTime::ZERO);
    t0.seed_mac(mac(1), PortId(0), SimTime::ZERO);
    let mut t1 = Switch::new(sw("T1", 3, vec![S, F, F]), t1_mac, 72);
    t1.routes_mut().add_connected(0x0a000100, 24);
    t1.routes_mut()
        .add(0x0a000000, 24, EcmpGroup::new(vec![PortId(1), PortId(2)]));
    t1.set_peer_mac(PortId(1), short_mac);
    t1.set_peer_mac(PortId(2), long_mac);
    t1.seed_arp(IP_B, mac(2), SimTime::ZERO);
    t1.seed_mac(mac(2), PortId(0), SimTime::ZERO);
    let leaf = |name: &str, m: MacAddr, salt| {
        let mut l = Switch::new(sw(name, 2, vec![F, F]), m, salt);
        l.routes_mut()
            .add(0x0a000000, 24, EcmpGroup::single(PortId(0)));
        l.routes_mut()
            .add(0x0a000100, 24, EcmpGroup::single(PortId(1)));
        l.set_peer_mac(PortId(0), t0_mac);
        l.set_peer_mac(PortId(1), t1_mac);
        l
    };
    let short = leaf("short", short_mac, 73);
    let long = leaf("long", long_mac, 74);

    let host = |name: &str, id: u32, ip: u32, gw: MacAddr| {
        let mut cfg = NicConfig::new(name, id, ip, gw);
        cfg.cc = rocescale_cc::CcKind::Off;
        RdmaHost::new(cfg)
    };
    let mut world = World::new(61);
    let t0 = world.add_node(Box::new(t0));
    let t1 = world.add_node(Box::new(t1));
    let short = world.add_node(Box::new(short));
    let long = world.add_node(Box::new(long));
    let a = world.add_node(Box::new(host("A", 1, IP_A, t0_mac)));
    let b = world.add_node(Box::new(host("B", 2, IP_B, t1_mac)));
    world.connect(a, PortId(0), t0, PortId(0), LinkSpec::server_40g());
    world.connect(b, PortId(0), t1, PortId(0), LinkSpec::server_40g());
    // The asymmetry: 5 m vs 300 m leaves (≈3 µs round-trip skew).
    world.connect(
        t0,
        PortId(1),
        short,
        PortId(0),
        LinkSpec::with_length(40_000_000_000, 5),
    );
    world.connect(
        t1,
        PortId(1),
        short,
        PortId(1),
        LinkSpec::with_length(40_000_000_000, 5),
    );
    world.connect(
        t0,
        PortId(2),
        long,
        PortId(0),
        LinkSpec::with_length(40_000_000_000, 300),
    );
    world.connect(
        t1,
        PortId(2),
        long,
        PortId(1),
        LinkSpec::with_length(40_000_000_000, 300),
    );

    spray_connect(&mut world, a, b);
    world.run_until(dur);

    let rx = world.node::<RdmaHost>(b);
    let st = rx.qp_endpoint(QpHandle(0)).stats;
    let tx = world.node::<RdmaHost>(a);
    let drops: u64 = [t0, t1, short, long]
        .iter()
        .map(|s| world.node::<Switch>(*s).stats.total_drops())
        .sum();
    SprayResult {
        spraying,
        goodput_gbps: gbps(rx.total_goodput_bytes(), dur),
        wire_gbps: gbps(tx.stats.tx_bytes, dur),
        out_of_seq: st.out_of_seq_rx,
        naks: st.naks_tx,
        drops,
    }
}

fn spray_connect(world: &mut World, a: NodeId, b: NodeId) {
    let a_ip = world.node::<RdmaHost>(a).config().ip;
    let b_ip = world.node::<RdmaHost>(b).config().ip;
    world.node_mut::<RdmaHost>(a).add_qp(
        b_ip,
        0,
        15_000,
        QpApp::Saturate {
            msg_len: 1 << 20,
            inflight: 2,
        },
    );
    world
        .node_mut::<RdmaHost>(b)
        .add_qp(a_ip, 0, 15_000, QpApp::None);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The §8.1 trade-off: spraying over unequal paths reorders and
    /// collapses go-back-N goodput with zero actual loss; per-flow ECMP
    /// reorders nothing.
    #[test]
    fn spraying_reorders_and_collapses_goodput() {
        let dur = SimTime::from_millis(8);
        let flow = run(false, dur);
        let spray = run(true, dur);
        assert_eq!(flow.drops + spray.drops, 0, "neither arm loses packets");
        assert_eq!(flow.out_of_seq, 0, "per-flow ECMP preserves order");
        assert!(
            flow.goodput_gbps > 25.0,
            "baseline healthy: {}",
            flow.goodput_gbps
        );
        assert!(
            spray.out_of_seq > 1000,
            "spraying must reorder: {}",
            spray.out_of_seq
        );
        assert!(spray.naks > 100, "naks {}", spray.naks);
        assert!(
            spray.goodput_gbps < flow.goodput_gbps / 2.0,
            "reordering must hurt: {} vs {}",
            spray.goodput_gbps,
            flow.goodput_gbps
        );
    }
}
