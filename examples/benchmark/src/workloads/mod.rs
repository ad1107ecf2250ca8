//! The four workloads and the helpers they share.

use rocescale::core::ServerId;
use rocescale::monitor::MetricsHub;
use rocescale::nic::QpHandle;
use rocescale::sim::SimRng;

use crate::fabric::Fabric;
use crate::metrics::Table;
use crate::run::Workload;

pub mod clos_stress;
pub mod fleet_sharded;
pub mod incast_observed;
pub mod loss_recovery;

/// The workloads, in the manifest's order. `why` is the manifest's one
/// line on what each is for; the module docs and README.md say more.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "clos_stress",
        why: "Fig 7 ToR-pair saturation, 768 closed-loop QPs, telemetry off: steady packet dispatch through switch+nic+transport+cc; build and monitor do ~nothing",
        rep: clos_stress::rep,
        spec: clos_stress::spec,
        shards: 1,
        exact_allocs: true,
        has_twin: false,
        twin_overhead_metric: None,
    },
    Workload {
        name: "incast_observed",
        why: "Fig 6/8 RDMA+TCP incast service, open loop in simulated time, hub+JSONL sink+pingmesh+deadlock probe on: monitor dominates; only workload with tcp and short messages",
        rep: incast_observed::rep,
        spec: incast_observed::spec,
        shards: 1,
        exact_allocs: true,
        // The unobserved twin: hub and sink off, same traffic.
        has_twin: true,
        twin_overhead_metric: Some("monitor.dispatch_overhead_pct"),
    },
    Workload {
        name: "loss_recovery",
        why: "Sec 4.1 two hosts, 1/256 deterministic drop, seven verb x recovery arms: transport+nic retransmission paths (NAK, RTO, selective repeat) are nearly all the work",
        rep: loss_recovery::rep,
        spec: loss_recovery::spec,
        shards: 1,
        exact_allocs: true,
        has_twin: false,
        twin_overhead_metric: None,
    },
    Workload {
        name: "fleet_sharded",
        why: "51200-host Clos on 2 threaded shards, cross-pod permutation: build/topology/shard exchange/memory footprint dominate and do ~nothing in the other three",
        rep: fleet_sharded::rep,
        spec: fleet_sharded::spec,
        shards: 2,
        // Epochs run on threads, so allocations are held to 0.1 %.
        exact_allocs: false,
        // The serial twin: `set_threaded(false)`.
        has_twin: true,
        twin_overhead_metric: None,
    },
];

/// Fisher–Yates shuffle driven by the input generator's RNG.
pub fn shuffle<T>(v: &mut [T], rng: &mut SimRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_index(i + 1));
    }
}

/// The receiving end of one RDMA flow direction.
pub struct RxFlow {
    /// Receiving server.
    pub server: ServerId,
    /// Its QP.
    pub qp: QpHandle,
    /// Payload bytes every data packet of this direction carries.
    pub payload: u32,
}

/// In-order data packets each flow's receiver has accepted so far.
pub fn accepted_pkts(f: &impl Fabric, flows: &[RxFlow]) -> Vec<u64> {
    flows
        .iter()
        .map(|r| f.rdma(r.server).qp_endpoint(r.qp).stats.data_pkts_rx)
        .collect()
}

/// Payload bytes delivered in order between two `accepted_pkts`
/// readings, and the number of flows that accepted nothing.
///
/// Goodput is counted at packet granularity because the closed-loop
/// workloads post messages (64 KiB–1 MiB) that take a large part of the
/// window to complete: counting only completed messages would quantise
/// the answer by where the window's edges fall.
pub fn delivered(flows: &[RxFlow], before: &[u64], after: &[u64]) -> (u64, u64) {
    let mut bytes = 0;
    let mut starved = 0;
    for ((r, b), a) in flows.iter().zip(before).zip(after) {
        bytes += (a - b) * r.payload as u64;
        starved += (a == b) as u64;
    }
    (bytes, starved)
}

/// Pacing-rate changes made by every QP's congestion controller, read
/// from the hub's per-QP `nic.*.rate_changes` counters (the only public
/// place they are kept, so this needs an enabled hub).
pub fn rate_changes(hub: &MetricsHub) -> u64 {
    hub.counters_snapshot()
        .iter()
        .filter(|(name, _)| name.ends_with(".rate_changes"))
        .map(|(_, v)| v)
        .sum()
}

/// `core.*` size metrics of a built fabric.
pub fn size_metrics(f: &impl Fabric, qps: usize, t: &mut Table) {
    t.set("core.hosts", f.host_count() as f64);
    t.set("core.switches", f.switch_count() as f64);
    t.set("core.qps", qps as f64);
}

/// Scheduler, packet-slab and peak-queue readings, taken at the end of a
/// traced window. Maxima and capacities fold with what `t` already holds
/// so the arms of a multi-arm workload report their worst case.
pub fn world_metrics(f: &impl Fabric, t: &mut Table) {
    let mut fold_max = |name: &str, v: f64| {
        let cur = t.get(name).unwrap_or(0.0);
        t.set(name, cur.max(v));
    };
    let worlds = f.worlds();
    fold_max(
        "sim.sched_max_occupancy",
        worlds
            .iter()
            .map(|w| w.sched_stats().max_occupancy)
            .max()
            .unwrap_or(0) as f64,
    );
    fold_max(
        "sim.slab_capacity",
        worlds
            .iter()
            .map(|w| w.packet_slab_capacity())
            .sum::<usize>() as f64,
    );
    fold_max(
        "switch.peak_egress_kb",
        (0..f.switch_count())
            .flat_map(|i| f.switch(i).stats.peak_egress_bytes.iter().copied())
            .max()
            .unwrap_or(0) as f64
            / 1e3,
    );
    t.set(
        "sim.slab_live_end",
        worlds.iter().map(|w| w.packet_slab_len()).sum::<usize>() as f64,
    );
}
