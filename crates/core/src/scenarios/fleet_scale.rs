//! Paper-scale sharded fleet (§6) — the deployment sections of the
//! paper run RoCEv2 across entire Clos podsets; this scenario exercises
//! the simulator at that scale: a ≥4096-host fabric (8 pods × 8 ToRs ×
//! 64 servers by default) built once and advanced through the
//! conservative cross-shard exchange with a configurable worker-shard
//! count. The [`spec_with`] knobs raise the same shape to the paper's
//! full deployments — 8 pods × 40 ToRs × 320 servers is a 102 400-host
//! fabric. The build answers every per-node question (ports, ToR,
//! attached servers) from the topology's adjacency index, so with
//! telemetry off its cost is linear in nodes + links; an enabled hub
//! appends each registered instrument and sorts the names once, at its
//! first snapshot.
//!
//! The workload is deliberately light — one cross-pod bursting flow per
//! pod (a ring, so every flow crosses a shard boundary when
//! `shards > 1`) plus one intra-pod rack-to-rack flow per pod — because
//! the point is the *engine*, not the traffic: the result reports the
//! per-shard wall-clock split, exchange-epoch/skipped-epoch and
//! boundary-message counts, timer-wheel occupancy and packet-slab
//! footprint that tell us whether sharding pays at fleet scale. The
//! flows are [`QpApp::Burst`]s (bounded transfers),
//! so the run has the bulk-transfer shape of real fleets: a busy ramp,
//! then a quiet tail where only periodic host timers fire — which is
//! exactly what the exchange skips over.
//!
//! Determinism: the run is digest-pinnable like every other scenario —
//! for a fixed shard count, serial and threaded epoch execution produce
//! byte-identical digests (guarantee 2 of [`crate::sharded`]), which is
//! what the CI smoke asserts via `--shards N` / `--serial`; with no
//! random draw in the run, every shard count also delivers the same
//! goodput over the same events.

use rocescale_nic::QpApp;
use rocescale_sim::SimTime;
use rocescale_topology::ClosSpec;

use crate::cluster::ClusterBuilder;
use crate::instrument::InstrumentationProfile;
use crate::profiles::ExecutionProfile;
use crate::sharded::ShardedCluster;

/// Engine-load figures for one worker shard.
#[derive(Debug, Clone)]
pub struct ShardLoad {
    /// Wall-clock nanoseconds this shard spent inside `run_until`.
    pub wall_nanos: u64,
    /// Wall-clock nanoseconds between this shard finishing a window and
    /// the next window being released — waiting for slower shards.
    pub wait_nanos: u64,
    /// Wall-clock nanoseconds this shard spent moving boundary messages
    /// (absorbing mail, injecting what is due, routing its outbox).
    pub exchange_nanos: u64,
    /// Events the shard dispatched.
    pub events: u64,
    /// Peak timer-wheel occupancy (live entries) the shard reached.
    pub wheel_max_occupancy: u64,
    /// Packet-slab high-water mark: the most slots the shard ever used
    /// at once (packets on wires and in switch queues).
    pub slab_slots: usize,
    /// Packet-slab slots still live at the end of the run.
    pub slab_live: usize,
}

/// Result of the paper-scale sharded fleet run.
#[derive(Debug, Clone)]
pub struct FleetScaleResult {
    /// Hosts in the fabric (must be ≥ 4096).
    pub hosts: usize,
    /// Switches in the fabric.
    pub switches: usize,
    /// Effective worker shards (the partition may collapse a request).
    pub shards: usize,
    /// Worker threads the shards ran on (the caller's included):
    /// `min(shards, available_parallelism)`, 1 when serial.
    pub workers: usize,
    /// Global dispatch digest (determinism pin).
    pub digest: u64,
    /// Total events dispatched across all shards.
    pub events: u64,
    /// Exchange epochs executed (0 with one shard).
    pub epochs: u64,
    /// Grid windows the exchange proved idle and jumped over (0 with one
    /// shard). `epochs + epochs_skipped` is the run's lookahead-grid
    /// window count.
    pub epochs_skipped: u64,
    /// Boundary messages carried across shards.
    pub boundary_messages: u64,
    /// Conservative lookahead in picoseconds (0 with one shard).
    pub lookahead_ps: u64,
    /// Receiver-side RDMA goodput, bytes.
    pub goodput_bytes: u64,
    /// Lossless drops (must be 0 — PFC holds at scale).
    pub lossless_drops: u64,
    /// Resident packet-slab bytes across shards: each shard's high-water
    /// slot count times the packet size (the last chunk's untouched tail
    /// is not counted).
    pub slab_bytes: u64,
    /// Per-shard engine load (index = shard).
    pub per_shard: Vec<ShardLoad>,
}

impl FleetScaleResult {
    /// The lookahead-grid windows of the run, executed or skipped.
    pub fn grid_windows(&self) -> u64 {
        self.epochs + self.epochs_skipped
    }

    /// Wall-clock imbalance: max shard wall over mean shard wall (1.0 is
    /// a perfect split; meaningful only for threaded multi-shard runs).
    pub fn wall_imbalance(&self) -> f64 {
        let max = self
            .per_shard
            .iter()
            .map(|s| s.wall_nanos)
            .max()
            .unwrap_or(0);
        let sum: u64 = self.per_shard.iter().map(|s| s.wall_nanos).sum();
        if sum == 0 {
            return 1.0;
        }
        max as f64 * self.per_shard.len() as f64 / sum as f64
    }
}

/// The default fleet fabric: 8 pods × 8 ToRs × 64 servers = 4096 hosts,
/// with 2 leaves per pod and 4 spines in 2 planes — the smallest shape
/// that clears the paper-scale floor while keeping a CI run cheap.
pub fn spec() -> ClosSpec {
    spec_with(8, 64)
}

/// The fleet fabric at a chosen rack shape: 8 pods × `tors_per_pod` ×
/// `servers_per_tor` hosts (2 leaves per pod, 4 spines). The 100k-class
/// deployment of §6 is `spec_with(40, 320)` = 102 400 hosts.
pub fn spec_with(tors_per_pod: u32, servers_per_tor: u32) -> ClosSpec {
    ClosSpec::uniform_40g(8, tors_per_pod, 2, 4, servers_per_tor)
}

/// Messages each ring flow sends before going quiet (64 KiB each). Ten
/// messages ≈ 130 µs of wire time at 40G, so the standard 300 µs bench
/// run is roughly half busy ramp, half quiet tail.
const BURST_MSGS: u32 = 10;

/// Build the fleet at `shards` worker shards, observed as `instr` says,
/// drive the ring workload for `dur`, and collect the engine figures.
/// `threaded = false` runs the exchange epochs serially on the caller's
/// thread — a differential knob: results are byte-identical either way.
/// Observation changes none of them.
pub fn run_spec(
    spec: ClosSpec,
    shards: u32,
    threaded: bool,
    dur: SimTime,
    instr: InstrumentationProfile,
) -> FleetScaleResult {
    let mut c: ShardedCluster = ClusterBuilder::new(spec)
        .seed(41)
        .execution(ExecutionProfile::Sharded { shards })
        .instrumentation(instr)
        .build_sharded();
    c.set_threaded(threaded);

    let burst = || QpApp::Burst {
        msg_len: 64 * 1024,
        count: BURST_MSGS,
        inflight: 2,
    };
    let pods = spec.pods;
    for p in 0..pods {
        // Cross-pod ring: pod p's rack-0 lead server bursts toward pod
        // p+1's — with `shards > 1` every one of these flows rides the
        // exchange.
        let src = c.servers_under(p, 0)[0];
        let dst = c.servers_under((p + 1) % pods, 0)[1];
        c.connect_qp(src, dst, 7000 + p as u16, burst(), QpApp::None);
        // Intra-pod rack-to-rack flow: keeps every shard busy between
        // exchanges, so the wall-clock split measures real overlap. Rack
        // picks wrap so 2-ToR shapes work; the endpoints stay distinct
        // because `b` takes its rack's last server.
        let tors = spec.tors_per_pod;
        let a = c.servers_under(p, 1 % tors)[0];
        let b = *c.servers_under(p, 2 % tors).last().unwrap();
        c.connect_qp(a, b, 7400 + p as u16, burst(), QpApp::None);
    }
    c.run_until(dur);

    let pkt_size = std::mem::size_of::<rocescale_packet::Packet>() as u64;
    let timing = c.shard_timing();
    let exchange = c.shard_stats();
    let per_shard: Vec<ShardLoad> = (0..c.shard_count())
        .map(|s| {
            let w = c.world(s);
            ShardLoad {
                wall_nanos: timing.busy_nanos[s],
                wait_nanos: timing.barrier_wait_nanos[s],
                exchange_nanos: timing.exchange_nanos[s],
                events: w.events_processed(),
                wheel_max_occupancy: w.sched_stats().max_occupancy,
                slab_slots: w.packet_slab_len(),
                slab_live: w.packet_slab_len() - w.packet_slab_free(),
            }
        })
        .collect();
    FleetScaleResult {
        hosts: c.server_count(),
        switches: c.switch_count(),
        shards: c.shard_count(),
        workers: timing.workers,
        digest: c.dispatch_digest(),
        events: c.events_processed(),
        epochs: exchange.epochs_executed,
        epochs_skipped: exchange.epochs_skipped,
        boundary_messages: exchange.boundary_messages,
        lookahead_ps: c.lookahead().map_or(0, |l| l.as_ps()),
        goodput_bytes: c.total_rdma_goodput(),
        lossless_drops: c.lossless_drops(),
        slab_bytes: per_shard.iter().map(|s| s.slab_slots as u64).sum::<u64>() * pkt_size,
        per_shard,
    }
}

/// [`run_spec`] on the default 4096-host fabric, unobserved.
pub fn run(shards: u32, threaded: bool, dur: SimTime) -> FleetScaleResult {
    run_spec(
        spec(),
        shards,
        threaded,
        dur,
        InstrumentationProfile::paper_default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const DUR: SimTime = SimTime::from_micros(120);

    #[test]
    fn fleet_clears_the_paper_scale_floor_and_stays_lossless() {
        let r = run(2, true, DUR);
        assert!(r.hosts >= 4096, "paper-scale floor: {}", r.hosts);
        assert_eq!(r.shards, 2);
        assert!((1..=2).contains(&r.workers), "{r:?}");
        assert!(r.epochs > 0, "multi-shard runs advance in epochs: {r:?}");
        assert!(r.boundary_messages > 0, "the ring crosses shards: {r:?}");
        assert!(r.goodput_bytes > 0, "{r:?}");
        assert_eq!(r.lossless_drops, 0, "PFC must hold at scale: {r:?}");
        assert!(r.lookahead_ps > 0);
        assert!(r.slab_bytes > 0);
        assert_eq!(r.per_shard.len(), 2);
        assert!(r.per_shard.iter().all(|s| s.events > 0));
        assert!(r.per_shard.iter().all(|s| s.wheel_max_occupancy > 0));
    }

    #[test]
    fn serial_and_threaded_fleet_runs_pin_the_same_digest() {
        let a = run(2, true, DUR);
        let b = run(2, false, DUR);
        assert_eq!(
            (
                a.digest,
                a.events,
                a.epochs,
                a.epochs_skipped,
                a.boundary_messages
            ),
            (
                b.digest,
                b.events,
                b.epochs,
                b.epochs_skipped,
                b.boundary_messages
            )
        );
    }

    #[test]
    fn the_quiet_tail_is_skipped_and_every_window_accounted_for() {
        // A small fleet (8 pods × 2 ToRs × 2 servers): the bursts drain
        // by ~450 µs (DCQCN ramp included) and the tail is periodic host
        // timers only, so the exchange jumps the idle windows between
        // them. Executed plus skipped is every 1.5 µs lookahead window
        // in (0, 600 µs].
        let dur = SimTime::from_micros(600);
        let r = run_spec(spec_with(2, 2), 4, false, dur, Default::default());
        assert!(r.epochs_skipped > 0, "the quiet tail must skip: {r:?}");
        assert_eq!(r.grid_windows(), dur.as_ps() / r.lookahead_ps);
        // Budget spent: every ring flow completed its full burst.
        assert_eq!(r.goodput_bytes, u64::from(16 * BURST_MSGS) * 64 * 1024);
    }
}
