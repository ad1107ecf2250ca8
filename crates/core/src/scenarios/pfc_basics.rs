//! Figure 2 — PFC mechanics: XOFF/XON prevents buffer overflow.
//!
//! A 4:1 incast into one server. With PFC, the switch pauses the senders
//! and *nothing* is dropped; without PFC (all classes lossy) the same
//! burst overflows the threshold and drops.

use rocescale_nic::QpApp;
use rocescale_sim::SimTime;
use rocescale_topology::Tier;

use crate::cluster::{ClusterBuilder, ServerId};
use crate::deployment::DeploymentStage;
use crate::instrument::InstrumentationProfile;
use crate::profiles::{FabricProfile, TransportProfile};
use crate::scenarios::gbps;
use crate::CcKind;

/// Result of one arm of the Figure 2 experiment.
#[derive(Debug, Clone)]
pub struct PfcBasicsResult {
    /// Was PFC enabled?
    pub pfc: bool,
    /// XOFF pause frames the ToR sent.
    pub pauses: u64,
    /// Resume (XON) frames the ToR sent.
    pub resumes: u64,
    /// Packets dropped in the fabric.
    pub drops: u64,
    /// Receiver goodput, Gb/s.
    pub goodput_gbps: f64,
}

/// Run one arm: `fanin` senders saturate one receiver for `dur`,
/// observed by `instr` — e.g. a `--trace-out` JSONL sink streaming the
/// incast's hops, pauses and queue samples. Instrumentation is
/// observation-only, so the numbers do not depend on it.
pub fn run(pfc: bool, fanin: u32, dur: SimTime, instr: InstrumentationProfile) -> PfcBasicsResult {
    let mut c = ClusterBuilder::single_tor(fanin + 1)
        .fabric(FabricProfile::paper_default().stage(if pfc {
            DeploymentStage::Spine
        } else {
            DeploymentStage::Off
        }))
        // Raw PFC behaviour, no rate control assist.
        .transport(TransportProfile::paper_default().cc(CcKind::Off))
        .instrumentation(instr)
        .build();
    let dst = ServerId(0);
    for i in 1..=fanin {
        c.connect_qp(
            ServerId(i as usize),
            dst,
            5000 + i as u16,
            QpApp::Saturate {
                msg_len: 1 << 20,
                inflight: 2,
            },
            QpApp::None,
        );
    }
    c.run_until(dur);
    let tor = c.switches_of_tier(Tier::Tor)[0];
    let sw = c.switch(tor);
    PfcBasicsResult {
        pfc,
        pauses: sw.stats.total_pause_tx(),
        resumes: sw.stats.resume_tx.iter().sum(),
        drops: sw.stats.total_drops(),
        goodput_gbps: gbps(c.rdma(dst).total_goodput_bytes(), dur),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pfc_pauses_instead_of_dropping() {
        let dur = SimTime::from_millis(5);
        let arm = |pfc| run(pfc, 4, dur, InstrumentationProfile::paper_default());
        let with = arm(true);
        assert!(with.pauses > 0, "incast must trigger XOFF");
        assert!(with.resumes > 0, "drain must trigger XON");
        assert_eq!(with.drops, 0, "lossless: zero drops");
        assert!(with.goodput_gbps > 25.0, "receiver link stays busy");

        let without = arm(false);
        assert!(without.drops > 0, "lossy: congestion drops");
        assert_eq!(without.pauses, 0, "no PFC for lossy classes");
    }
}
