//! Figure 3 / §3 — DSCP-based PFC vs VLAN-based PFC.
//!
//! Two claims are checked: (1) RDMA with PFC protection works identically
//! in both modes (the pause frame itself never carries a VLAN tag — that
//! is the observation that makes the DSCP design possible); (2) the
//! VLAN-based design breaks PXE boot, because trunk-mode server ports
//! cannot exchange untagged frames with a NIC that has no VLAN
//! configuration yet, while DSCP-based PFC uses access-mode ports and
//! forwards them fine.

use std::any::Any;
use std::collections::VecDeque;

use rocescale_nic::QpApp;
use rocescale_packet::{EthMeta, MacAddr, Packet, PacketKind, PfcMode};
use rocescale_sim::{Ctx, Node, PortId, SimTime};
use rocescale_switch::DropReason;
use rocescale_topology::Tier;

use crate::cluster::{ClusterBuilder, ServerId};
use crate::profiles::{FabricProfile, TransportProfile};
use crate::scenarios::gbps;
use crate::CcKind;

/// Result of one PFC-mode arm.
#[derive(Debug, Clone)]
pub struct DscpVlanResult {
    /// Mode under test.
    pub mode: PfcMode,
    /// RDMA goodput between two servers, Gb/s (must be healthy in both).
    pub rdma_goodput_gbps: f64,
    /// Lossless drops (must be zero in both).
    pub lossless_drops: u64,
    /// PFC pauses observed (both modes pause identically).
    pub pauses: u64,
    /// Untagged "PXE" frames delivered to the provisioning server.
    pub pxe_delivered: u64,
    /// Untagged frames dropped by trunk-mode ports.
    pub pxe_dropped: u64,
}

/// A bare NIC doing PXE boot: no VLAN configuration, fires untagged DHCP
/// discover-ish frames at the provisioning server.
struct PxeBooter {
    mac: MacAddr,
    dst: MacAddr,
    to_send: u32,
    queue: VecDeque<()>,
}

impl Node for PxeBooter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.to_send {
            self.queue.push_back(());
        }
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

impl PxeBooter {
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        while !ctx.port_busy(PortId(0)) && self.queue.pop_front().is_some() {
            let pkt = Packet::new(
                ctx.next_packet_id(),
                EthMeta {
                    src: self.mac,
                    dst: self.dst,
                    vlan: None, // PXE: the NIC has no VLAN configuration
                },
                None,
                PacketKind::Raw {
                    label: 67,
                    size: 400,
                },
                ctx.now().as_ps(),
            );
            ctx.transmit(PortId(0), pkt).expect("port idle");
        }
    }
}

/// A provisioning server counting raw frames it receives.
struct ProvisioningServer {
    mac: MacAddr,
    received: u64,
}

impl Node for ProvisioningServer {
    fn on_packet(&mut self, _p: PortId, pkt: Packet, _ctx: &mut Ctx<'_>) {
        if pkt.eth.dst == self.mac {
            if let PacketKind::Raw { label: 67, .. } = pkt.kind {
                self.received += 1;
            }
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Run one arm of the comparison for `dur`.
pub fn run(mode: PfcMode, dur: SimTime) -> DscpVlanResult {
    // Note: the switch ports for the PXE pair are created by widening the
    // single ToR with two extra ports.
    let mut c = ClusterBuilder::single_tor(3)
        .fabric(FabricProfile::paper_default().pfc_mode(mode))
        .transport(TransportProfile::paper_default().cc(CcKind::Off))
        .build();

    // RDMA health check traffic: 2→1 incast to exercise PFC itself.
    c.connect_qp(
        ServerId(1),
        ServerId(0),
        5001,
        QpApp::Saturate {
            msg_len: 1 << 20,
            inflight: 2,
        },
        QpApp::None,
    );
    c.connect_qp(
        ServerId(2),
        ServerId(0),
        5002,
        QpApp::Saturate {
            msg_len: 1 << 20,
            inflight: 2,
        },
        QpApp::None,
    );
    c.run_until(dur);

    let tor_idx = c.switches_of_tier(Tier::Tor)[0];
    let sw = c.switch(tor_idx);
    DscpVlanResult {
        mode,
        rdma_goodput_gbps: gbps(c.rdma(ServerId(0)).total_goodput_bytes(), dur),
        lossless_drops: c.lossless_drops(),
        pauses: sw.stats.total_pause_tx() + c.total_server_pause_rx(),
        pxe_delivered: 0,
        pxe_dropped: sw.stats.drops_of(DropReason::UntaggedOnTrunk),
    }
}

/// Run the PXE half: a bare NIC fires `frames` untagged frames at a
/// provisioning server through a ToR in the given mode. Returns
/// (delivered, dropped-by-trunk).
pub fn run_pxe(mode: PfcMode, frames: u32) -> (u64, u64) {
    use rocescale_sim::{LinkSpec, World};
    use rocescale_switch::{PortRole, Switch, SwitchConfig};

    let mut cfg = SwitchConfig::new("tor", 2);
    cfg.classify = mode;
    cfg.port_roles = vec![PortRole::Server, PortRole::Server];
    let booter_mac = MacAddr::from_id(0x00AA_0001);
    let provisioning_mac = MacAddr::from_id(0x00AA_0002);
    let mut sw = Switch::new(cfg, MacAddr::from_id(0x00AA_0100), 3);
    sw.seed_mac(provisioning_mac, PortId(1), SimTime::ZERO);
    let mut world = World::new(5);
    let sw_id = world.add_node(Box::new(sw));
    let booter = world.add_node(Box::new(PxeBooter {
        mac: booter_mac,
        dst: provisioning_mac,
        to_send: frames,
        queue: VecDeque::new(),
    }));
    let server = world.add_node(Box::new(ProvisioningServer {
        mac: provisioning_mac,
        received: 0,
    }));
    world.connect(booter, PortId(0), sw_id, PortId(0), LinkSpec::server_40g());
    world.connect(server, PortId(0), sw_id, PortId(1), LinkSpec::server_40g());
    world.run_until_idle(1_000_000);
    let delivered = world.node::<ProvisioningServer>(server).received;
    let dropped = world
        .node::<Switch>(sw_id)
        .stats
        .drops_of(DropReason::UntaggedOnTrunk);
    (delivered, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §3: both PFC flavours protect RDMA equally…
    #[test]
    fn rdma_works_in_both_modes() {
        let dur = SimTime::from_millis(4);
        for mode in [PfcMode::Dscp, PfcMode::Vlan] {
            let r = run(mode, dur);
            assert!(
                r.rdma_goodput_gbps > 25.0,
                "{mode:?}: goodput {}",
                r.rdma_goodput_gbps
            );
            assert_eq!(r.lossless_drops, 0, "{mode:?}");
            assert!(r.pauses > 0, "{mode:?}: incast must pause");
        }
    }

    /// …but only VLAN mode breaks PXE boot.
    #[test]
    fn pxe_breaks_only_under_vlan_trunking() {
        let (delivered, dropped) = run_pxe(PfcMode::Vlan, 10);
        assert_eq!(delivered, 0, "trunk mode must break PXE");
        assert_eq!(dropped, 10);
        let (delivered, dropped) = run_pxe(PfcMode::Dscp, 10);
        assert_eq!(delivered, 10, "access mode must deliver PXE");
        assert_eq!(dropped, 0);
    }
}
