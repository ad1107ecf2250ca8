//! The `rocescale` public API: build a Clos datacenter running RoCEv2 with
//! the paper's full mechanism stack, drive workloads over it, and read the
//! same counters the paper's monitoring systems read.
//!
//! Three layers:
//!
//! * [`cluster`] — [`ClusterBuilder`]/[`Cluster`]: instantiates a
//!   [`rocescale_topology::Topology`] into simulated switches and hosts,
//!   wires routes/ARP/MAC state, and exposes workload installation
//!   (QP pairs, saturating senders, incast fan-outs, Pingmesh probers,
//!   TCP connections) plus fleet-wide counter aggregation. One type
//!   serves both execution modes: `build()` returns it over one
//!   `World`, `build_sharded()` over per-pod shards ([`ShardedCluster`]).
//! * [`deployment`] — the paper's staged onboarding (§6.1): lab → test
//!   cluster → PFC at ToR only → Podset → up to Spine, expressed as which
//!   tiers run lossless classes.
//! * [`scenarios`] — one entry per paper experiment (§4.1 livelock,
//!   Figure 4 deadlock, Figure 5/9 storms, §4.4 slow receiver, Figures
//!   6–8 performance, Figure 10 buffer misconfiguration, §1 CPU
//!   overhead), each returning a structured result that the `bench`
//!   harness prints and the integration tests assert on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod deployment;
pub mod detect;
pub mod instrument;
pub mod profiles;
pub mod scenarios;
pub mod sharded;

pub use cluster::{Cluster, ClusterBuilder, ServerId, ServerKind};
pub use deployment::DeploymentStage;
pub use detect::DeadlockProbe;
pub use instrument::InstrumentationProfile;
pub use profiles::{ExecutionProfile, FabricProfile, FaultProfile, ScriptAction, TransportProfile};
pub use rocescale_cc::CcKind;
pub use rocescale_packet::PfcMode;
pub use rocescale_switch::AdminAction;
pub use sharded::ShardedCluster;
