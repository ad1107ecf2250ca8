//! Live PFC-deadlock detection over a running fabric (§4.2).
//!
//! The `monitor` crate supplies the two halves of the deadlock
//! signature — [`ProgressTracker`] (behavioural: lossless backlog with
//! zero transmit progress across rounds) and [`WaitGraph`] (topological:
//! a cycle of paused egress ports with backlog behind them). This module
//! wires both to *real switch state*: at every telemetry sampling epoch
//! [`DeadlockProbe::observe`] rebuilds the wait graph from each switch's
//! pause timers and per-priority egress depths, feeds per-switch
//! tx/backlog snapshots to the tracker, and surfaces
//! `monitor.deadlock.*` metrics plus a
//! [`TraceEvent::DeadlockSuspected`] record whenever a cycle is present.
//!
//! The probe is a pure observer: it reads the world and writes only to
//! the telemetry hub, so it cannot perturb the dispatch digest — the
//! golden-trace pin holds with the detector live.

use std::sync::Arc;

use rocescale_monitor::deadlock::Snapshot;
use rocescale_monitor::{
    BlockId, Group, MetricsHub, Path, ProgressTracker, ScopeId, TraceEvent, WaitGraph,
};
use rocescale_packet::Priority;
use rocescale_sim::{NodeId, PortId, SimTime, World};
use rocescale_switch::Switch;

/// One monitored egress: `switch` (index into the probe's switch list)
/// sends toward the device called `peer` on `port`.
#[derive(Debug, Clone)]
pub struct ProbeLink {
    /// Index into the probe's switch list.
    pub switch: u32,
    /// Egress port on that switch.
    pub port: PortId,
    /// Display name of the device behind the port (switch or server),
    /// shared with its topology node.
    pub peer: Arc<str>,
}

/// The probe's instruments, by their place in its block.
const WAIT_EDGES: u32 = 0;
const STUCK_DEVICES: u32 = 1;
const CYCLES: u32 = 2;
const EPOCHS: u32 = 3;

/// Live deadlock detector: rebuilt wait graph + progress tracking per
/// sampling epoch. Construct once per fabric (done automatically by
/// `ClusterBuilder`), call [`observe`](DeadlockProbe::observe) at each
/// epoch.
pub struct DeadlockProbe {
    /// (display name, owning shard, shard-local sim id).
    switches: Vec<(String, u32, NodeId)>,
    links: Vec<ProbeLink>,
    lossless: Vec<Priority>,
    tracker: ProgressTracker,
    /// Consecutive stuck rounds required for the behavioural half.
    window: u32,
    hub: MetricsHub,
    scope: ScopeId,
    /// The probe's block: `monitor.deadlock.{wait_edges,stuck_devices}`
    /// gauges, then `monitor.deadlock.{cycles,epochs}` counters.
    tele: BlockId,
    last_graph: WaitGraph,
    first_cycle_at: Option<SimTime>,
    cycle_epochs: u64,
    epochs: u64,
}

impl DeadlockProbe {
    /// Build a probe over `switches` — each (display name, owning shard,
    /// shard-local sim node); a one-world fabric puts every switch on
    /// shard 0 — watching `links`, treating `lossless` priorities as
    /// pause-eligible. `window` is the number of consecutive
    /// zero-progress rounds before a device counts as stuck (3 matches
    /// the offline detector's convention).
    pub fn new(
        hub: &MetricsHub,
        switches: Vec<(String, u32, NodeId)>,
        links: Vec<ProbeLink>,
        lossless: Vec<Priority>,
        window: u32,
    ) -> DeadlockProbe {
        let block = hub.register(
            Path::fixed("monitor.deadlock"),
            &[
                Group::gauges(&["wait_edges", "stuck_devices"]),
                Group::counters(&["cycles", "epochs"]),
            ],
        );
        DeadlockProbe {
            scope: block.scope,
            tele: block.base,
            hub: hub.clone(),
            switches,
            links,
            lossless,
            tracker: ProgressTracker::new(),
            window,
            last_graph: WaitGraph::new(),
            first_cycle_at: None,
            cycle_epochs: 0,
            epochs: 0,
        }
    }

    /// Run one detection epoch against live switch state: `worlds[s]`
    /// is shard `s`'s world (a one-world fabric passes a one-element
    /// slice) and every monitored switch is read from its owning shard.
    /// Called at a barrier (all shards at a common horizon), the
    /// pause/occupancy view is exactly what a single merged world would
    /// show — pause state and egress depths are plain per-switch state,
    /// not in-flight events. Returns the wait cycle found this epoch, if
    /// any. Read-only on the worlds.
    pub fn observe(&mut self, worlds: &[World], now: SimTime) -> Option<Vec<String>> {
        self.epochs += 1;
        self.hub.incr(self.tele.counter(EPOCHS));
        // Topological half: rebuild the wait graph from pause state.
        let mut graph = WaitGraph::new();
        for l in &self.links {
            let (ref name, shard, sim) = self.switches[l.switch as usize];
            let sw = worlds[shard as usize].node::<Switch>(sim);
            for prio in &self.lossless {
                if sw.is_paused(l.port, *prio, now) && sw.egress_depth_prio(l.port, *prio) > 0 {
                    graph.add_edge(name.clone(), &*l.peer);
                    break;
                }
            }
        }
        // Behavioural half: per-switch progress snapshots.
        let snaps: Vec<(String, Snapshot)> = self
            .switches
            .iter()
            .map(|(name, shard, sim)| {
                let sw = worlds[*shard as usize].node::<Switch>(*sim);
                (
                    name.clone(),
                    Snapshot {
                        tx_pkts: sw.total_data_tx_pkts(),
                        backlog_bytes: sw.lossless_backlog(),
                    },
                )
            })
            .collect();
        let stuck = self.tracker.observe(&snaps);
        self.hub
            .set_gauge(self.tele.gauge(WAIT_EDGES), graph.edge_count() as f64);
        self.hub
            .set_gauge(self.tele.gauge(STUCK_DEVICES), stuck.len() as f64);
        let cycle = graph.find_cycle();
        if let Some(c) = &cycle {
            self.cycle_epochs += 1;
            self.first_cycle_at.get_or_insert(now);
            self.hub.incr(self.tele.counter(CYCLES));
            self.hub.trace(
                now.as_ps(),
                self.scope,
                TraceEvent::DeadlockSuspected {
                    cycle_len: c.len().min(u16::MAX as usize) as u16,
                },
            );
        }
        self.last_graph = graph;
        cycle
    }

    /// The corroborated verdict as of the last epoch: devices stuck for
    /// the probe's full window *and* on a wait-graph cycle.
    pub fn verdict(&self) -> Vec<String> {
        self.tracker.deadlocked(self.window, &self.last_graph)
    }

    /// Devices failing the behavioural half alone (stuck, cycle or not).
    pub fn stuck(&self) -> Vec<String> {
        self.tracker.stuck(self.window)
    }

    /// First sim time a wait cycle was observed, if ever.
    pub fn first_cycle_at(&self) -> Option<SimTime> {
        self.first_cycle_at
    }

    /// Epochs in which a wait cycle was present.
    pub fn cycle_epochs(&self) -> u64 {
        self.cycle_epochs
    }

    /// Total detection epochs run.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The wait graph from the last epoch.
    pub fn last_graph(&self) -> &WaitGraph {
        &self.last_graph
    }
}
