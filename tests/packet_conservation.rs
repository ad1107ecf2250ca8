//! Packet conservation through the world's packet slab.
//!
//! A switch parks every packet it queues in its world's slab and keeps
//! only a handle. The packet leaves the slab when it lands at the far end
//! of a wire (or the shard exchange carries it into another world), or
//! when a switch drops it from a queue. Each fabric below exercises one
//! way out — injected loss, a flood copy dropped at a fabric head, the
//! storm watchdog's lossless flush, an operator turning lossless off, a
//! boundary link between two shards — and checks the books both ways:
//! mid-run the slabs hold at least every queued packet, and once the
//! traffic has ended and the fabric has drained they hold none and every
//! queue is empty.

use rocescale::core::{
    Cluster, ClusterBuilder, ExecutionProfile, FaultProfile, ScriptAction, ServerId,
    TransportProfile,
};
use rocescale::nic::{QpApp, QpHandle};
use rocescale::sim::{SimTime, WorldSet};
use rocescale::switch::{AdminAction, DropReason};
use rocescale::topology::ClosSpec;
use rocescale::transport::Verb;

/// One posted send: its receiver, the receiver's QP and the length.
struct Flow {
    to: ServerId,
    qp: QpHandle,
    len: u32,
}

/// Post one `len`-byte send from `a` to `b` on a fresh QP.
fn send<W: WorldSet>(c: &mut Cluster<W>, a: ServerId, b: ServerId, udp: u16, len: u32) -> Flow {
    let (qa, qb) = c.connect_qp(a, b, udp, QpApp::None, QpApp::None);
    c.rdma_mut(a)
        .post(qa, Verb::Send { len }, SimTime::ZERO, false);
    Flow { to: b, qp: qb, len }
}

/// Packet-slab slots live across every world, and data packets queued
/// across every switch.
fn live_and_queued<W: WorldSet>(c: &Cluster<W>) -> (usize, usize) {
    let live = (0..c.shard_count())
        .map(|s| c.world(s))
        .map(|w| w.packet_slab_len() - w.packet_slab_free())
        .sum();
    let queued = (0..c.switch_count())
        .map(|i| c.switch(i).queued_packets())
        .sum();
    (live, queued)
}

/// Run in 20 µs slices until every flow has delivered its bytes (failing
/// past `limit`), checking after each slice that the slabs hold at least
/// every queued packet. Then let the fabric drain for a millisecond and
/// check that no slot is live and no queue holds a packet. Returns the
/// most packets seen queued at once.
fn run_to_drained<W: WorldSet>(c: &mut Cluster<W>, flows: &[Flow], limit: SimTime) -> usize {
    let step = SimTime::from_micros(20);
    let delivered = |c: &Cluster<W>| {
        flows
            .iter()
            .all(|f| c.rdma(f.to).qp_endpoint(f.qp).goodput_bytes() == f.len as u64)
    };
    let mut peak_queued = 0;
    let mut t = SimTime::ZERO;
    while !delivered(c) {
        assert!(t < limit, "traffic still running at {t:?}");
        t += step;
        c.run_until(t);
        let (live, queued) = live_and_queued(c);
        assert!(
            live >= queued,
            "at {t:?}: {live} live slots < {queued} queued packets"
        );
        peak_queued = peak_queued.max(queued);
    }
    c.run_until(t + SimTime::from_millis(1));
    for s in 0..c.shard_count() {
        let w = c.world(s);
        assert_eq!(
            w.packet_slab_len() - w.packet_slab_free(),
            0,
            "shard {s}: slots still live after the fabric drained"
        );
    }
    for i in 0..c.switch_count() {
        assert_eq!(c.switch(i).queued_packets(), 0, "{}", c.switch_name(i));
    }
    peak_queued
}

/// §4.1's 1/256 IP-ID drop on every switch under a 3:1 incast: packets
/// lost upstream of a queue were never parked, and go-back-N's resends
/// are parked afresh.
#[test]
fn injected_loss_leaves_no_slot_behind() {
    let mut c = ClusterBuilder::two_tier(2, 4)
        .faults(FaultProfile::paper_default().drop_ip_id_low_byte(Some(0xff)))
        .seed(3)
        .build();
    let (rack0, rack1) = (c.servers_under(0, 0), c.servers_under(0, 1));
    let flows: Vec<Flow> = (0..3)
        .map(|i| send(&mut c, rack0[i], rack1[0], 7400 + i as u16, 1 << 20))
        .collect();
    let peak = run_to_drained(&mut c, &flows, SimTime::from_millis(100));
    assert!(c.total_drops_of(DropReason::InjectedFilter) > 0);
    assert!(peak > 0, "the incast queued nothing");
}

/// Figure 4's flood: with the incomplete-ARP fix off, a dead but
/// remembered server's lossless traffic floods, and the copies queued on
/// fabric ports are dropped at the queue head.
#[test]
fn flood_copies_dropped_at_fabric_heads_free_their_slots() {
    let mut c = ClusterBuilder::two_tier(2, 4)
        .switch_tweak(|_, cfg| cfg.drop_lossless_on_incomplete_arp = false)
        .faults(
            FaultProfile::paper_default()
                .at(
                    SimTime::from_millis(1),
                    ScriptAction::ServerDeath { server: 4 },
                )
                .at(
                    SimTime::from_millis(2),
                    ScriptAction::ServerResurrect { server: 4 },
                ),
        )
        .seed(5)
        .build();
    let (rack0, rack1) = (c.servers_under(0, 0), c.servers_under(0, 1));
    assert_eq!(rack1[0], ServerId(4));
    // Cross-rack senders reach the victim's ToR on a leaf port; a
    // same-rack sender makes that ToR flood to both leaves.
    let mut flows: Vec<Flow> = (0..2)
        .map(|i| send(&mut c, rack0[i], rack1[0], 7500 + i as u16, 4 << 20))
        .collect();
    flows.push(send(&mut c, rack1[1], rack1[0], 7502, 4 << 20));
    let peak = run_to_drained(&mut c, &flows, SimTime::from_millis(100));
    assert!(c.total_drops_of(DropReason::FloodCopyAtFabricHead) > 0);
    assert!(peak > 0);
}

/// §4.3: a storming NIC pauses its ToR port while traffic piles up
/// behind it; the switch watchdog trips and flushes the port's lossless
/// queues, then re-enables lossless mode once the storm stops.
#[test]
fn the_watchdog_flush_frees_every_flushed_slot() {
    let mut c = ClusterBuilder::two_tier(2, 4)
        .transport(TransportProfile::paper_default().nic_watchdog(None))
        .switch_tweak(|_, cfg| {
            cfg.watchdog.disable_after = SimTime::from_millis(2);
            cfg.watchdog.reenable_after = SimTime::from_millis(3);
        })
        .faults(
            FaultProfile::paper_default()
                .at(
                    SimTime::from_millis(1),
                    ScriptAction::StormStart { server: 0 },
                )
                .at(
                    SimTime::from_millis(6),
                    ScriptAction::StormStop { server: 0 },
                ),
        )
        .seed(7)
        .build();
    let (rack0, rack1) = (c.servers_under(0, 0), c.servers_under(0, 1));
    assert_eq!(rack0[0], ServerId(0));
    let flows: Vec<Flow> = (0..2)
        .map(|i| send(&mut c, rack1[i], rack0[0], 7600 + i as u16, 4 << 20))
        .collect();
    let peak = run_to_drained(&mut c, &flows, SimTime::from_millis(200));
    let tor = c.tor_of(rack0[0]);
    assert!(
        c.switch(tor).stats.watchdog_disables > 0,
        "no watchdog trip"
    );
    assert!(c.total_drops_of(DropReason::WatchdogLosslessOff) > 0);
    assert!(peak > 0);
}

/// An operator turns the RDMA class lossy on a ToR while a paused port
/// holds a backlog, flushing it, and turns it back on later.
#[test]
fn an_admin_lossless_off_flush_frees_every_flushed_slot() {
    let tor = "pod0-tor0".to_string();
    let mut c = ClusterBuilder::two_tier(2, 4)
        .faults(
            FaultProfile::paper_default()
                .at(
                    SimTime::from_millis(1),
                    ScriptAction::StormStart { server: 0 },
                )
                .at(
                    SimTime::from_millis(3),
                    ScriptAction::Switch {
                        switch: tor.clone(),
                        action: AdminAction::SetLossless { prio: 3, on: false },
                    },
                )
                .at(
                    SimTime::from_millis(4),
                    ScriptAction::StormStop { server: 0 },
                )
                .at(
                    SimTime::from_millis(5),
                    ScriptAction::Switch {
                        switch: tor,
                        action: AdminAction::SetLossless { prio: 3, on: true },
                    },
                ),
        )
        .seed(9)
        .build();
    let (rack0, rack1) = (c.servers_under(0, 0), c.servers_under(0, 1));
    let mut flows: Vec<Flow> = (0..2)
        .map(|i| send(&mut c, rack1[i], rack0[0], 7700 + i as u16, 4 << 20))
        .collect();
    flows.push(send(&mut c, rack0[1], rack0[0], 7702, 4 << 20));
    let peak = run_to_drained(&mut c, &flows, SimTime::from_millis(100));
    assert!(c.total_drops_of(DropReason::AdminLosslessOff) > 0);
    assert!(peak > 0);
}

/// Two pod shards with a cross-pod incast: packets serialized onto a
/// boundary link leave the sending world's slab for the outbox, and the
/// exchange parks them in the receiving world's.
#[test]
fn boundary_traffic_leaves_no_slot_in_either_shard() {
    let mut c = ClusterBuilder::new(ClosSpec::uniform_40g(2, 2, 2, 2, 2))
        .execution(ExecutionProfile::Sharded { shards: 2 })
        .faults(FaultProfile::paper_default().drop_ip_id_low_byte(Some(0xff)))
        .seed(11)
        .build_sharded();
    assert_eq!(c.shard_count(), 2);
    let pod = |p: u32| -> Vec<ServerId> {
        let mut s = c.servers_under(p, 0);
        s.extend(c.servers_under(p, 1));
        s
    };
    let (pod0, pod1) = (pod(0), pod(1));
    let mut flows: Vec<Flow> = (0..3)
        .map(|i| send(&mut c, pod0[i], pod1[0], 7800 + i as u16, 1 << 20))
        .collect();
    flows.push(send(&mut c, pod1[1], pod0[0], 7803, 1 << 20));
    let peak = run_to_drained(&mut c, &flows, SimTime::from_millis(100));
    assert!(c.shard_stats().boundary_messages > 0);
    for s in 0..2 {
        assert!(c.world(s).packet_slab_len() > 0, "shard {s} parked nothing");
    }
    assert!(peak > 0);
}
