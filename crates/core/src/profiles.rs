//! Configuration profiles: the three coherent knob groups a cluster is
//! built from.
//!
//! The original builder exposed ~18 loose setters; operationally the
//! knobs cluster into three groups that are tuned together and shipped
//! together (the paper's §3–§7 narrative):
//!
//! * [`FabricProfile`] — what the *switches* do: PFC flavour and reach,
//!   buffer sharing and the storm watchdog. (The §4.2 deadlock fix is
//!   always on; FIG-4's and INC-DEADLOCK's fix-off arms turn it off with
//!   a `ClusterBuilder::switch_tweak`, and §8.1's packet-spraying diamond
//!   builds its switches by hand.)
//! * [`TransportProfile`] — what the *NICs* do: loss recovery, DCQCN,
//!   retransmission timeouts, the NIC-side storm watchdog.
//! * [`FaultProfile`] — what goes *wrong*: the §4.1 deterministic drop
//!   filter and a timed incident script (NIC pause storms, link flaps,
//!   dead-but-remembered servers, misconfigurations).
//!
//! Each profile's `paper_default()` is the configuration the paper
//! deployed; chainable setters express ablations as small diffs against
//! that baseline.

use rocescale_cc::CcKind;
use rocescale_packet::PfcMode;
use rocescale_sim::SimTime;
use rocescale_switch::AdminAction;
use rocescale_transport::LossRecovery;

use crate::deployment::DeploymentStage;

/// Switch-side configuration: PFC, buffers, watchdog. The classes PFC
/// protects and ECN marks are the paper's two RDMA classes
/// ([`rocescale_switch::RDMA_CLASSES`]) on every fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricProfile {
    /// PFC flavour (§3): DSCP-based (the paper's design) or VLAN-based;
    /// switches classify and RDMA hosts tag by it.
    pub pfc_mode: PfcMode,
    /// How far up the Clos PFC is enabled (§6.1's staged deployment);
    /// [`DeploymentStage::Off`] makes every class lossy everywhere.
    pub stage: DeploymentStage,
    /// Dynamic-buffer α (`None` = static thresholds). The §6.2 incident
    /// is `Some(1.0/64.0)`.
    pub alpha: Option<f64>,
    /// Switch-side PFC-storm watchdog (§4.3).
    pub switch_watchdog: bool,
}

impl FabricProfile {
    /// The paper's deployed fabric: DSCP PFC to the spine, α = 1/16,
    /// watchdog armed.
    pub fn paper_default() -> FabricProfile {
        FabricProfile {
            pfc_mode: PfcMode::Dscp,
            stage: DeploymentStage::Spine,
            alpha: Some(1.0 / 16.0),
            switch_watchdog: true,
        }
    }

    /// Set the PFC flavour.
    pub fn pfc_mode(mut self, m: PfcMode) -> Self {
        self.pfc_mode = m;
        self
    }

    /// Deployment stage (how far up PFC is enabled, if at all).
    pub fn stage(mut self, s: DeploymentStage) -> Self {
        self.stage = s;
        self
    }

    /// Dynamic-buffer α (`None` = static thresholds).
    pub fn alpha(mut self, a: Option<f64>) -> Self {
        self.alpha = a;
        self
    }

    /// Arm/disarm the switch-side storm watchdog.
    pub fn switch_watchdog(mut self, on: bool) -> Self {
        self.switch_watchdog = on;
        self
    }
}

impl Default for FabricProfile {
    fn default() -> FabricProfile {
        FabricProfile::paper_default()
    }
}

/// NIC-side transport configuration: recovery, DCQCN, timeouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportProfile {
    /// Loss-recovery scheme (§4.1: go-back-0 livelocks, go-back-N is the
    /// deployed fix; selective repeat is the IRN-style contrast).
    pub recovery: LossRecovery,
    /// Congestion control on RDMA hosts: DCQCN (the paper's deployment),
    /// TIMELY-style delay gradient (§7's contrast), or off.
    pub cc: CcKind,
    /// RDMA transport retransmission timeout.
    pub qp_rto: SimTime,
    /// NIC-side storm watchdog stall threshold (`None` disarms; the
    /// paper's default is 100 ms).
    pub nic_watchdog: Option<SimTime>,
}

impl TransportProfile {
    /// The paper's deployed transport: go-back-N, DCQCN on, 4 ms QP RTO,
    /// NIC watchdog at 100 ms. (Kernel-TCP hosts keep their own 5 ms
    /// minimum RTO; `ClusterBuilder::tcp_tweak` changes it.)
    pub fn paper_default() -> TransportProfile {
        TransportProfile {
            recovery: LossRecovery::GoBackN,
            cc: CcKind::Dcqcn,
            qp_rto: SimTime::from_millis(4),
            nic_watchdog: Some(SimTime::from_millis(100)),
        }
    }

    /// Set the NIC loss-recovery scheme.
    pub fn recovery(mut self, r: LossRecovery) -> Self {
        self.recovery = r;
        self
    }

    /// Select the congestion-control algorithm.
    pub fn cc(mut self, cc: CcKind) -> Self {
        self.cc = cc;
        self
    }

    /// RDMA transport retransmission timeout.
    pub fn qp_rto(mut self, rto: SimTime) -> Self {
        self.qp_rto = rto;
        self
    }

    /// Arm the NIC-side storm watchdog with this stall threshold
    /// (`None` disarms).
    pub fn nic_watchdog(mut self, after: Option<SimTime>) -> Self {
        self.nic_watchdog = after;
        self
    }
}

impl Default for TransportProfile {
    fn default() -> TransportProfile {
        TransportProfile::paper_default()
    }
}

/// How the simulation executes: one world on one thread, or pod-granular
/// shards advanced in conservative-lookahead epochs (the fifth profile,
/// alongside fabric/transport/fault/instrumentation).
///
/// Execution is a *mechanical* knob: it decides how events are
/// dispatched, not what the network does. `Sharded` with one effective
/// shard (either `shards: 1` or a single-pod topology, which
/// [`rocescale_topology::Partition::pods`] collapses) dispatches the
/// byte-identical event stream — and digest — of `SingleThread`. With
/// two or more effective shards serial and threaded epoch execution
/// agree byte-for-byte, but the digest differs from the one-shard run's
/// (packet ids are per-shard namespaces, and a scripted flip of a
/// cross-shard link is one admin timer per end). Random draws are keyed
/// on the cluster seed and on what they decide, never on the shard, so
/// on the RDMA sweep of `tests/shard_determinism.rs` (ECN on) goodput
/// and merged counters equal the one-shard run's. Events that land on
/// one instant from different shards are still ordered by the shard
/// count, so that equality is measured, not guaranteed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionProfile {
    /// One world, one thread — the default, and the golden-trace path.
    SingleThread,
    /// Split the fabric into per-pod worker shards exchanged through the
    /// conservative barrier (see `rocescale_sim::ShardedWorld`).
    Sharded {
        /// Requested shard count; clamped to the topology's pod count.
        shards: u32,
    },
}

impl ExecutionProfile {
    /// The paper-default execution: single-threaded.
    pub fn paper_default() -> ExecutionProfile {
        ExecutionProfile::SingleThread
    }

    /// The shard count this profile asks for (before the topology clamps
    /// it): 1 for `SingleThread`, `max(shards, 1)` for `Sharded`.
    pub fn shard_count(self) -> u32 {
        match self {
            ExecutionProfile::SingleThread => 1,
            ExecutionProfile::Sharded { shards } => shards.max(1),
        }
    }
}

impl Default for ExecutionProfile {
    fn default() -> ExecutionProfile {
        ExecutionProfile::paper_default()
    }
}

/// One timed incident-replay action — the declarative fault-script
/// vocabulary. Every action is resolved at cluster build time into an
/// ordinary sim event (a switch admin action or a NIC storm token fired
/// by a timer), so scripted incidents replay deterministically and stay
/// digest-pinnable; a script that never fires adds zero events.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptAction {
    /// Flip the ToR↔server link of server `server` (both endpoints).
    ServerLink {
        /// Server index (build order).
        server: usize,
        /// New administrative link state.
        up: bool,
    },
    /// Flip the fabric link between two switches, by the builder's switch
    /// names (`"pod0-tor0"`, `"pod0-leaf1"`, `"spine0"`). Panics at build
    /// time if no such link exists — a misspelled script is a
    /// construction bug.
    FabricLink {
        /// One endpoint switch name.
        a: String,
        /// The other endpoint switch name.
        b: String,
        /// New administrative link state.
        up: bool,
    },
    /// Start a §4.3 NIC pause storm on server `server`.
    StormStart {
        /// Server index (build order).
        server: usize,
    },
    /// Stop a previously started pause storm on server `server`.
    StormStop {
        /// Server index (build order).
        server: usize,
    },
    /// Kill server `server` *mid-run* the §4.2 way: its link goes down
    /// (a dead server is silent — nothing to re-learn the MAC from) and
    /// its ToR's MAC entry is evicted (5-minute timeout) while the
    /// 4-hour ARP entry survives — the dead-but-remembered state that
    /// makes lossless packets flood.
    ServerDeath {
        /// Server index (build order).
        server: usize,
    },
    /// Resurrect a dead server: its link comes back up and its ToR
    /// relearns the MAC→port binding.
    ServerResurrect {
        /// Server index (build order).
        server: usize,
    },
    /// Run an administrative action on switch `switch` (a builder name,
    /// e.g. `"pod0-tor0"`): the §6.2 threshold rewrite
    /// ([`AdminAction::SetThresholds`]), turning a lossless class off or
    /// on ([`AdminAction::SetLossless`], flushing queued lossless
    /// packets on disable), or an ECMP reroute ([`AdminAction::Reroute`],
    /// switch-local ports).
    Switch {
        /// Switch name.
        switch: String,
        /// What the switch does.
        action: AdminAction,
    },
}

/// Fault injection: everything the healthy paper-default config does
/// *not* do.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultProfile {
    /// §4.1 fault injection on every switch: drop any data packet whose
    /// IP ID has this low byte.
    pub drop_ip_id_low_byte: Option<u8>,
    /// The incident-replay script: time-ordered [`ScriptAction`]s the
    /// cluster schedules as ordinary sim events at build time.
    pub script: Vec<(SimTime, ScriptAction)>,
}

impl FaultProfile {
    /// No faults — the healthy baseline.
    pub fn paper_default() -> FaultProfile {
        FaultProfile::default()
    }

    /// §4.1 drop filter on every switch.
    pub fn drop_ip_id_low_byte(mut self, b: Option<u8>) -> Self {
        self.drop_ip_id_low_byte = b;
        self
    }

    /// Append a scripted incident action firing at `at`.
    pub fn at(mut self, at: SimTime, action: ScriptAction) -> Self {
        self.script.push((at, action));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_deployed_config() {
        let f = FabricProfile::paper_default();
        assert_eq!(f.pfc_mode, PfcMode::Dscp);
        assert_eq!(f.stage, DeploymentStage::Spine);
        assert!(f.switch_watchdog);
        assert!((f.alpha.unwrap() - 1.0 / 16.0).abs() < 1e-12);
        let t = TransportProfile::paper_default();
        assert_eq!(t.recovery, LossRecovery::GoBackN);
        assert_eq!(t.cc, CcKind::Dcqcn);
        assert_eq!(t.qp_rto, SimTime::from_millis(4));
        assert_eq!(t.nic_watchdog, Some(SimTime::from_millis(100)));
        let fault = FaultProfile::paper_default();
        assert_eq!(fault, FaultProfile::default());
        assert!(fault.drop_ip_id_low_byte.is_none() && fault.script.is_empty());
    }

    #[test]
    fn setters_chain_into_ablations() {
        let f = FabricProfile::paper_default()
            .stage(DeploymentStage::Off)
            .alpha(Some(1.0 / 64.0));
        assert_eq!(f.stage, DeploymentStage::Off);
        assert!((f.alpha.unwrap() - 1.0 / 64.0).abs() < 1e-12);
        let t = TransportProfile::paper_default()
            .recovery(LossRecovery::GoBack0)
            .cc(CcKind::Off)
            .qp_rto(SimTime::from_micros(100));
        assert_eq!(t.recovery, LossRecovery::GoBack0);
        assert_eq!(t.cc, CcKind::Off);
        let t = TransportProfile::paper_default().cc(CcKind::Timely);
        assert_eq!(t.cc, CcKind::Timely);
        let fault = FaultProfile::paper_default()
            .drop_ip_id_low_byte(Some(0xff))
            .at(
                SimTime::from_millis(1),
                ScriptAction::StormStart { server: 3 },
            );
        assert_eq!(fault.drop_ip_id_low_byte, Some(0xff));
        assert_eq!(
            fault.script,
            vec![(
                SimTime::from_millis(1),
                ScriptAction::StormStart { server: 3 }
            )]
        );
    }

    #[test]
    fn execution_profile_shard_counts() {
        assert_eq!(
            ExecutionProfile::paper_default(),
            ExecutionProfile::SingleThread
        );
        assert_eq!(ExecutionProfile::SingleThread.shard_count(), 1);
        assert_eq!(ExecutionProfile::Sharded { shards: 0 }.shard_count(), 1);
        assert_eq!(ExecutionProfile::Sharded { shards: 4 }.shard_count(), 4);
    }
}
