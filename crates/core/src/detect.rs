//! Live PFC-deadlock detection over a running fabric (§4.2).
//!
//! [`DeadlockProbe`] wires the `monitor` crate's two halves of the
//! deadlock signature to real switch state. At every telemetry sampling
//! epoch it rebuilds the [`WaitGraph`] (topological: paused egress ports
//! with backlog behind them) from each switch's pause timers and egress
//! depths, and feeds per-switch tx/backlog snapshots to the
//! [`ProgressTracker`] (behavioural: backlog without progress), both over
//! vertex ids and buffers it keeps. Each epoch it publishes
//! `monitor.deadlock.*` — copies of its own epoch and cycle counts and
//! the epoch's graph sizes — and a [`TraceEvent::DeadlockSuspected`]
//! record whenever a cycle is present.
//! It reads the worlds and writes only to the hub, so it cannot perturb
//! the dispatch digest — the golden-trace pin holds with it live.

use std::sync::Arc;

use rocescale_monitor::deadlock::Snapshot;
use rocescale_monitor::{
    BlockId, Group, MetricsHub, Path, ProgressTracker, ScopeId, TraceEvent, WaitGraph,
};
use rocescale_packet::Priority;
use rocescale_sim::{NodeId, PortId, SimTime, World};
use rocescale_switch::{Switch, RDMA_CLASSES};
use rocescale_topology::Topology;

/// One monitored egress: `switch` (index into the probe's switch list)
/// sends toward vertex `peer` on `port`.
#[derive(Debug, Clone)]
struct ProbeLink {
    switch: u32,
    port: PortId,
    /// Vertex id of the device behind the port (switch or server).
    peer: u32,
}

/// Consecutive zero-progress rounds before a device counts as stuck.
const WINDOW: u32 = 3;

/// The probe's instruments, by their place in its block.
const WAIT_EDGES: u32 = 0;
const STUCK_DEVICES: u32 = 1;
const CYCLES: u32 = 2;
const EPOCHS: u32 = 3;

/// Live deadlock detector, built once per fabric by `ClusterBuilder`,
/// [`observe`](DeadlockProbe::observe)d at each sampling epoch.
pub struct DeadlockProbe {
    /// Display name of every vertex id: topology node indices are the
    /// vertex ids.
    names: Vec<Arc<str>>,
    /// (vertex id, owning shard, shard-local sim id), in tracker order.
    switches: Vec<(u32, u32, NodeId)>,
    links: Vec<ProbeLink>,
    tracker: ProgressTracker,
    hub: MetricsHub,
    scope: ScopeId,
    /// The probe's block: `monitor.deadlock.{wait_edges,stuck_devices}`
    /// gauges, then `monitor.deadlock.{cycles,epochs}` counters.
    tele: BlockId,
    graph: WaitGraph,
    /// The last epoch's wait cycle (empty: none), and every vertex on a
    /// cycle of its graph.
    cycle: Vec<u32>,
    members: Vec<u32>,
    first_cycle_at: Option<SimTime>,
    cycle_epochs: u64,
    epochs: u64,
}

impl DeadlockProbe {
    /// Build a probe over `topo`'s `switches` — each (topology node
    /// index, owning shard, shard-local sim node); a one-world fabric
    /// puts every switch on shard 0. It watches every switch egress that
    /// faces another device (fabric links both directions, plus
    /// switch→server ports so storm victims show up as wait-chain
    /// leaves), in the topology's link order.
    pub(crate) fn new(
        hub: &MetricsHub,
        topo: &Topology,
        switches: Vec<(u32, u32, NodeId)>,
    ) -> DeadlockProbe {
        // Topology node index → position in `switches`.
        let mut switch_at: Vec<Option<u32>> = vec![None; topo.nodes.len()];
        for (i, &(v, _, _)) in (0..).zip(&switches) {
            switch_at[v as usize] = Some(i);
        }
        let ends = topo.links.iter().flat_map(|l| [(l.a, l.b), (l.b, l.a)]);
        let links = ends.filter_map(|(me, peer)| {
            Some(ProbeLink {
                switch: switch_at[me.0 as usize]?,
                port: me.1,
                peer: peer.0,
            })
        });
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
            links: links.collect(),
            names: topo.nodes.iter().map(|n| n.name.clone()).collect(),
            tracker: ProgressTracker::new(switches.len()),
            switches,
            graph: WaitGraph::new(),
            cycle: Vec::new(),
            members: Vec::new(),
            first_cycle_at: None,
            cycle_epochs: 0,
            epochs: 0,
        }
    }

    /// Run one detection epoch against live switch state: `worlds[s]`
    /// is shard `s`'s world, and every switch is read from its owning
    /// shard. At a barrier this is exactly a merged world's view: pause
    /// state and egress depths are per-switch state, not in-flight events.
    /// Returns the wait cycle found this epoch, if any: the first one a
    /// depth-first search meets, starting from waiting devices in name
    /// order.
    pub fn observe(&mut self, worlds: &[World], now: SimTime) -> Option<Vec<String>> {
        self.epochs += 1;
        let switch =
            |&(_, shard, sim): &(u32, u32, NodeId)| worlds[shard as usize].node::<Switch>(sim);
        // Topological half: rebuild the wait graph from pause state.
        self.graph.clear();
        for l in &self.links {
            let s = &self.switches[l.switch as usize];
            let sw = switch(s);
            // Only the RDMA classes can pause.
            let waits = |prio: Priority| {
                RDMA_CLASSES[prio.index()]
                    && sw.is_paused(l.port, prio, now)
                    && sw.egress_depth_prio(l.port, prio) > 0
            };
            if Priority::all().any(waits) {
                self.graph.add_edge(s.0, l.peer);
            }
        }
        // Behavioural half: per-switch progress snapshots.
        let stuck = self.tracker.observe(self.switches.iter().map(|s| {
            let sw = switch(s);
            Snapshot {
                tx_pkts: sw.total_data_tx_pkts(),
                backlog_bytes: sw.lossless_backlog(),
            }
        }));
        let (graph, names) = (&mut self.graph, &self.names);
        self.members.clear();
        let found = graph.find_cycle(|v| &names[v as usize], &mut self.cycle);
        if found {
            graph.cycle_members(&mut self.members);
            self.cycle_epochs += 1;
            self.first_cycle_at.get_or_insert(now);
        }
        let tele = self.tele;
        self.hub.update(|v| {
            v.set_gauge(tele.gauge(WAIT_EDGES), graph.edge_count() as f64);
            v.set_gauge(tele.gauge(STUCK_DEVICES), stuck as f64);
            v.set_counter(tele.counter(CYCLES), self.cycle_epochs);
            v.set_counter(tele.counter(EPOCHS), self.epochs);
        });
        if !found {
            return None;
        }
        let cycle_len = self.cycle.len().min(u16::MAX as usize) as u16;
        let suspected = TraceEvent::DeadlockSuspected { cycle_len };
        self.hub.trace(now.as_ps(), self.scope, suspected);
        self.last_cycle()
    }

    /// The corroborated verdict as of the last epoch, sorted: devices
    /// stuck for the probe's full window *and* on a wait-graph cycle. A
    /// genuine PFC deadlock is a cyclic buffer dependency involving ≥ 2
    /// devices (or a pathological self-wait); requiring cycle membership
    /// keeps storm victims — stuck but waiting on a chain, not a cycle —
    /// out of the verdict.
    pub fn verdict(&self) -> Vec<String> {
        let on_cycle = |n: &String| self.members.iter().any(|&v| *self.names[v as usize] == **n);
        self.stuck().into_iter().filter(on_cycle).collect()
    }

    /// Devices failing the behavioural half alone (stuck, cycle or not),
    /// sorted.
    pub fn stuck(&self) -> Vec<String> {
        let name = |i: u32| self.names[self.switches[i as usize].0 as usize].to_string();
        let mut v: Vec<String> = self.tracker.stuck(WINDOW).map(name).collect();
        v.sort();
        v
    }

    /// The wait cycle of the last epoch, if it had one.
    pub fn last_cycle(&self) -> Option<Vec<String>> {
        let name = |v: &u32| self.names[*v as usize].to_string();
        (!self.cycle.is_empty()).then(|| self.cycle.iter().map(name).collect())
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
}
