//! One module per paper experiment. Each scenario builds its fabric,
//! drives the workload, and returns a structured result; the `bench`
//! harness prints them, the integration tests assert on them, and
//! `EXPERIMENTS.md` records paper-vs-measured.
//!
//! | module | paper result |
//! |---|---|
//! | [`pfc_basics`] | Figure 2 — PFC prevents loss hop-by-hop |
//! | [`dscp_vlan`] | Figure 3 / §3 — DSCP-based vs VLAN-based PFC, PXE |
//! | [`livelock`] | §4.1 — go-back-0 livelock vs go-back-N |
//! | [`deadlock`] | Figure 4 / §4.2 — PFC + flooding deadlock and fix |
//! | [`storm`] | Figure 5 & 9 / §4.3 — NIC pause storm, watchdogs |
//! | [`slow_receiver`] | §4.4 — MTT thrash, large pages, dynamic buffers |
//! | [`latency`] | Figure 6 — RDMA vs TCP tail latency under incast |
//! | [`throughput`] | Figure 7 — two-podset Clos stress, ECMP ≈ 60% |
//! | [`load_latency`] | Figure 8 — RDMA latency vs load, TCP isolation |
//! | [`buffer_misconfig`] | Figure 10 / §6.2 — α = 1/64 pause storm |
//! | [`cpu`] | §1 — kernel TCP CPU cost vs RDMA |
//! | [`spray`] | §8.1 — per-packet routing vs per-flow ECMP (future work) |
//! | [`cc_ablation`] | §2 & §7 — DCQCN vs TIMELY vs off on one incast; PFC is the last defense |
//! | [`headroom`] | §2 — the gray-period headroom formula, validated by violation |
//! | [`incident`] | §4/§6 — scripted incident replays: reroute, cascade storm, dead server |
//! | [`fleet_scale`] | §6 — paper-scale fleet (4096 hosts) on sharded execution |

pub mod buffer_misconfig;
pub mod cc_ablation;
pub mod cpu;
pub mod deadlock;
pub mod dscp_vlan;
pub mod fleet_scale;
pub mod headroom;
pub mod incident;
pub mod latency;
pub mod livelock;
pub mod load_latency;
pub mod pfc_basics;
pub mod slow_receiver;
pub mod spray;
pub mod storm;
pub mod throughput;

/// Pretty-print helper: bytes over a duration → Gb/s.
pub fn gbps(bytes: u64, dur: rocescale_sim::SimTime) -> f64 {
    if dur == rocescale_sim::SimTime::ZERO {
        return 0.0;
    }
    bytes as f64 * 8.0 / dur.as_secs_f64() / 1e9
}
