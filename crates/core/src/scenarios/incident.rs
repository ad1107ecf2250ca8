//! Incident replays (§4/§6) — scripted fault timelines on a full
//! cluster, each a deterministic, digest-pinnable rerun of an
//! operational incident class from the paper:
//!
//! * [`run_reroute`] — a mid-incast reroute: a ToR's ECMP uplink group
//!   is pinned to the uplink its flows are not on, and every live flow
//!   moves there.
//! * [`run_cascade`] — a cascading pause storm: two NICs start storming
//!   at staggered times, pauses propagate ToR → leaf, a scripted stop
//!   ends both storms and the fabric recovers. The live deadlock
//!   detector must stay silent throughout — a pause *tree* is not a
//!   cycle (§4.2's distinction).
//! * [`run_dead_remembered`] — the §4.2 precondition replayed live: a
//!   server "dies" (its ToR MAC entry is evicted while ARP survives),
//!   lossless traffic to it hits the incomplete-ARP path, then the
//!   server resurrects and goodput resumes.
//!
//! Every scripted action rides an ordinary simulator timer event, so
//! each replay is exactly reproducible: the result carries the
//! dispatch digest as a determinism pin.

use rocescale_monitor::MetricsHub;
use rocescale_nic::QpApp;
use rocescale_sim::SimTime;
use rocescale_switch::DropReason;
use rocescale_topology::{ClosSpec, RouteSpec, Topology};

use crate::cluster::{Cluster, ClusterBuilder, ServerId};
use crate::instrument::InstrumentationProfile;
use crate::profiles::{FabricProfile, FaultProfile, ScriptAction};

fn saturate(c: &mut Cluster, from: ServerId, to: ServerId, udp_src: u16) {
    c.connect_qp(
        from,
        to,
        udp_src,
        QpApp::Saturate {
            msg_len: 128 * 1024,
            inflight: 2,
        },
        QpApp::None,
    );
}

/// Result of the mid-incast reroute replay.
#[derive(Debug, Clone)]
pub struct RerouteResult {
    /// The rerouted ToR's ECMP uplink ports, in route order.
    pub uplinks: Vec<u16>,
    /// The uplink the script pins the group to.
    pub pinned: u16,
    /// Data packets each uplink sent before the reroute (PFC frames
    /// excluded), indexed like `uplinks`.
    pub data_before: Vec<u64>,
    /// Data packets each uplink sent from the reroute to the end of the
    /// run, indexed like `uplinks`.
    pub data_after: Vec<u64>,
    /// Receiver goodput in the last quarter of the run, bytes (the
    /// incast must survive the reroute).
    pub tail_goodput_bytes: u64,
    /// Dispatch digest (determinism pin).
    pub digest: u64,
    /// Events dispatched.
    pub events: u64,
}

/// Mid-incast reroute: rack-1's ToR carries a 4-to-1 incast toward
/// rack 0 over its ECMP uplinks; at 3 ms a scripted reroute pins the
/// inter-rack prefix to the second uplink. At seed 17 the ECMP hash puts
/// all four flows on the first, so the reroute moves every one of them.
pub fn run_reroute(dur: SimTime) -> RerouteResult {
    let reroute_at = SimTime::from_millis(3);
    let spec = ClosSpec::uniform_40g(1, 2, 2, 2, 4);
    // Discover the ToR's ECMP uplink route from the topology the builder
    // will instantiate, so the script survives topology changes.
    let topo = Topology::clos(&spec);
    let tor = "pod0-tor1";
    let tor_idx = topo
        .nodes
        .iter()
        .position(|n| &*n.name == tor)
        .expect("topology names its ToRs");
    let (prefix, len, uplinks) = topo
        .routes(tor_idx)
        .iter()
        .find_map(|r| match r {
            RouteSpec::Via { prefix, len, ports } if ports.len() > 1 => {
                Some((*prefix, *len, ports.iter().map(|p| p.0).collect::<Vec<_>>()))
            }
            _ => None,
        })
        .expect("ToR has an ECMP uplink route");
    let pinned = uplinks[1];

    let mut c = ClusterBuilder::new(spec)
        .seed(17)
        .faults(FaultProfile::paper_default().at(
            reroute_at,
            ScriptAction::Reroute {
                switch: tor.to_string(),
                prefix,
                len,
                ports: vec![pinned],
            },
        ))
        .build();
    let rack0 = c.servers_under(0, 0);
    let rack1 = c.servers_under(0, 1);
    for (i, s) in rack1.iter().enumerate() {
        saturate(&mut c, *s, rack0[0], 7100 + i as u16);
    }
    let tor_i = (0..c.switch_count())
        .find(|i| c.switch_name(*i) == tor)
        .expect("built cluster keeps topology names");

    let data_sent = |c: &Cluster| -> Vec<u64> {
        let st = &c.switch(tor_i).stats;
        uplinks
            .iter()
            .map(|&p| {
                let p = p as usize;
                st.tx_pkts[p] - st.pause_tx[p] - st.resume_tx[p]
            })
            .collect()
    };

    c.run_until(SimTime(reroute_at.as_ps() - 1));
    let data_before = data_sent(&c);
    let mut goodput_at_three_quarters = 0u64;
    let mut t = c.now();
    let step = SimTime::from_millis(1);
    while t < dur {
        t += step;
        c.run_until(t);
        if t.as_ps() * 4 <= dur.as_ps() * 3 {
            goodput_at_three_quarters = c.total_rdma_goodput();
        }
    }
    let data_after = data_sent(&c)
        .iter()
        .zip(&data_before)
        .map(|(end, before)| end - before)
        .collect();
    RerouteResult {
        uplinks,
        pinned,
        data_before,
        data_after,
        tail_goodput_bytes: c.total_rdma_goodput() - goodput_at_three_quarters,
        digest: c.world.dispatch_digest(),
        events: c.world.events_processed(),
    }
}

/// Result of the cascading pause-storm replay.
#[derive(Debug, Clone)]
pub struct CascadeResult {
    /// Pause frames sent by switches while both storms were active.
    pub storm_pauses: u64,
    /// Packets the storming NICs dropped on their own receive path.
    pub storm_dropped: u64,
    /// Bystander goodput while both storms were active, bytes.
    pub goodput_during: u64,
    /// Bystander goodput after the scripted stop, bytes.
    pub goodput_after: u64,
    /// Detection epochs in which the live detector saw a wait cycle —
    /// must be 0: a pause storm is a tree, not a cycle.
    pub cycle_epochs: u64,
    /// Detection epochs run (the detector must have been live).
    pub epochs: u64,
    /// Lossless drops (must stay 0: PFC holds during the storm).
    pub lossless_drops: u64,
    /// Dispatch digest (determinism pin).
    pub digest: u64,
    /// Events dispatched.
    pub events: u64,
}

/// Cascading pause storm with a scripted stop: rack-0 servers 1 and 2
/// start storming at 1 ms and 2 ms, pausing their ToR ports; backpressure
/// cascades up while cross-rack senders keep pushing. At 6 ms the script
/// stops both storms and the fabric drains. The switch watchdog is
/// disarmed so recovery is attributable to the scripted stop alone.
///
/// The live deadlock detector needs a hub: a disabled one in `instr` is
/// replaced by an enabled one, and an enabled one is kept, so the
/// caller can read the run's metrics from it. A trace sink there
/// (`--trace-out`) records the storm's whole pause-propagation
/// timeline — `pause_tx`/`resume_tx` events cascading up the fabric —
/// plus per-epoch queue samples. Every setup pins the same digest.
pub fn run_cascade(dur: SimTime, mut instr: InstrumentationProfile) -> CascadeResult {
    if !instr.telemetry.is_enabled() {
        instr.telemetry = MetricsHub::enabled();
    }
    let stop_at = SimTime::from_millis(6);
    let mut c = ClusterBuilder::two_tier(2, 4)
        .seed(23)
        .fabric(FabricProfile::paper_default().switch_watchdog(false))
        .instrumentation(instr)
        .faults(
            FaultProfile::paper_default()
                .at(
                    SimTime::from_millis(1),
                    ScriptAction::StormStart { server: 1 },
                )
                .at(
                    SimTime::from_millis(2),
                    ScriptAction::StormStart { server: 2 },
                )
                .at(stop_at, ScriptAction::StormStop { server: 1 })
                .at(stop_at, ScriptAction::StormStop { server: 2 }),
        )
        .build();
    let rack0 = c.servers_under(0, 0);
    let rack1 = c.servers_under(0, 1);
    // Victims: heavy cross-rack flows into both stormers — enough
    // in-flight data to fill the ToR's ingress guarantee behind the
    // paused ports and force XOFF up toward the leaves. Bystander: a
    // flow into rack-0's server 0, sharing the ToR with the storms.
    for (i, (from, to)) in [(rack1[1], rack0[1]), (rack1[2], rack0[2])]
        .into_iter()
        .enumerate()
    {
        c.connect_qp(
            from,
            to,
            7200 + i as u16,
            QpApp::Saturate {
                msg_len: 1 << 20,
                inflight: 8,
            },
            QpApp::None,
        );
    }
    saturate(&mut c, rack1[0], rack0[0], 7202);

    c.run_until(SimTime::from_millis(1));
    let pauses_pre = c.total_switch_pause_tx();
    let goodput_pre = c.total_rdma_goodput();
    c.run_until(stop_at);
    let storm_pauses = c.total_switch_pause_tx() - pauses_pre;
    let goodput_during = c.total_rdma_goodput() - goodput_pre;
    c.run_until(dur);
    let goodput_after = c.total_rdma_goodput() - goodput_pre - goodput_during;
    let storm_dropped: u64 = [rack0[1], rack0[2]]
        .iter()
        .map(|s| c.rdma(*s).stats.rx_storm_dropped)
        .sum();
    CascadeResult {
        storm_pauses,
        storm_dropped,
        goodput_during,
        goodput_after,
        cycle_epochs: c.deadlock_probe().cycle_epochs(),
        epochs: c.deadlock_probe().epochs(),
        lossless_drops: c.lossless_drops(),
        digest: c.world.dispatch_digest(),
        events: c.world.events_processed(),
    }
}

/// Result of the dead-but-remembered-server replay.
#[derive(Debug, Clone)]
pub struct DeadRememberedResult {
    /// Incomplete-ARP lossless drops before the scripted death — must
    /// be 0 (the server was fully resolved).
    pub arp_drops_before: u64,
    /// The same counter at the end of the run — the fix must have been
    /// dropping while the server was "dead but remembered".
    pub arp_drops_total: u64,
    /// Receiver goodput before the death, bytes.
    pub goodput_before_death: u64,
    /// Goodput gained while dead (retransmissions go nowhere).
    pub goodput_while_dead: u64,
    /// Goodput gained after the scripted resurrection.
    pub goodput_after_resurrect: u64,
    /// Wait-cycle epochs seen by the live detector (0: the fix holds).
    pub cycle_epochs: u64,
    /// Dispatch digest (determinism pin).
    pub digest: u64,
    /// Events dispatched.
    pub events: u64,
}

/// The §4.2 precondition, replayed on a live rack with the fix on:
/// server 1 is saturating-receiving when its ToR MAC entry is evicted at
/// 2 ms (MAC timeout; ARP survives). Lossless packets to it now hit the
/// incomplete-ARP path and are dropped — no flood, no cycle. At 6 ms the
/// entry is re-seeded (the server "resurrects") and goodput resumes.
pub fn run_dead_remembered(dur: SimTime) -> DeadRememberedResult {
    let die_at = SimTime::from_millis(2);
    let resurrect_at = SimTime::from_millis(6);
    let mut c = ClusterBuilder::single_tor(3)
        .seed(29)
        .instrumentation(InstrumentationProfile::paper_default().telemetry(MetricsHub::enabled()))
        .faults(
            FaultProfile::paper_default()
                .at(die_at, ScriptAction::ServerDeath { server: 1 })
                .at(resurrect_at, ScriptAction::ServerResurrect { server: 1 }),
        )
        .build();
    let ids = c.all_servers();
    saturate(&mut c, ids[0], ids[1], 7300);
    saturate(&mut c, ids[2], ids[1], 7301);

    c.run_until(SimTime(die_at.as_ps() - 1));
    let arp_drops_before = c.total_drops_of(DropReason::IncompleteArpLossless);
    let goodput_before_death = c.total_rdma_goodput();
    c.run_until(resurrect_at);
    let goodput_at_resurrect = c.total_rdma_goodput();
    c.run_until(dur);
    DeadRememberedResult {
        arp_drops_before,
        arp_drops_total: c.total_drops_of(DropReason::IncompleteArpLossless),
        goodput_before_death,
        goodput_while_dead: goodput_at_resurrect - goodput_before_death,
        goodput_after_resurrect: c.total_rdma_goodput() - goodput_at_resurrect,
        cycle_epochs: c.deadlock_probe().cycle_epochs(),
        digest: c.world.dispatch_digest(),
        events: c.world.events_processed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reroute_moves_every_flow_onto_the_pinned_uplink() {
        let r = run_reroute(SimTime::from_millis(10));
        for (i, &port) in r.uplinks.iter().enumerate() {
            if port == r.pinned {
                assert_eq!(
                    r.data_before[i], 0,
                    "the pinned uplink must carry no data before the reroute: {r:?}"
                );
            } else {
                assert_eq!(
                    r.data_after[i], 0,
                    "the old uplink must carry no data after the reroute: {r:?}"
                );
            }
        }
        assert!(
            r.tail_goodput_bytes > 128 * 1024,
            "the incast must survive the reroute: {r:?}"
        );
        let r2 = run_reroute(SimTime::from_millis(10));
        assert_eq!((r.digest, r.events), (r2.digest, r2.events));
    }

    fn cascade(instr: InstrumentationProfile) -> CascadeResult {
        run_cascade(SimTime::from_millis(12), instr)
    }

    #[test]
    fn cascade_storm_recovers_on_scripted_stop_without_deadlock() {
        let r = cascade(InstrumentationProfile::paper_default());
        assert!(r.storm_pauses > 0, "storms must generate pauses: {r:?}");
        assert!(r.storm_dropped > 0, "stormers drop their rx: {r:?}");
        assert!(
            r.goodput_after > r.goodput_during,
            "the fabric must recover after the scripted stop: {r:?}"
        );
        assert_eq!(r.lossless_drops, 0, "PFC must hold during the storm");
        assert!(r.epochs > 0, "the live detector must have run");
        assert_eq!(
            r.cycle_epochs, 0,
            "a pause storm is a tree, not a cycle: {r:?}"
        );
        let r2 = cascade(InstrumentationProfile::paper_default());
        assert_eq!((r.digest, r.events), (r2.digest, r2.events));
    }

    #[test]
    fn cascade_records_into_the_callers_hub() {
        let hub = MetricsHub::enabled();
        let r = cascade(InstrumentationProfile::paper_default().telemetry(hub.clone()));
        assert_eq!(hub.counter_value("monitor.deadlock.epochs"), Some(r.epochs));
        assert_eq!(hub.counter_value("monitor.deadlock.cycles"), Some(0));
        let own = cascade(InstrumentationProfile::paper_default());
        assert_eq!((r.digest, r.events), (own.digest, own.events));
    }

    #[test]
    fn dead_remembered_server_drops_then_resumes() {
        let r = run_dead_remembered(SimTime::from_millis(10));
        assert_eq!(
            r.arp_drops_before, 0,
            "fully resolved server: no ARP drops before death: {r:?}"
        );
        assert!(
            r.arp_drops_total > 0,
            "the fix must drop while dead-but-remembered: {r:?}"
        );
        assert!(r.goodput_before_death > 0, "{r:?}");
        assert!(
            r.goodput_after_resurrect > r.goodput_while_dead,
            "resurrection must restore goodput: {r:?}"
        );
        assert_eq!(r.cycle_epochs, 0, "the fix prevents any cycle: {r:?}");
        let r2 = run_dead_remembered(SimTime::from_millis(10));
        assert_eq!((r.digest, r.events), (r2.digest, r2.events));
    }
}
