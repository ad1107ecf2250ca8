//! §2's headroom arithmetic, validated by violation.
//!
//! "The ingress port must reserve buffer space for each priority to
//! absorb packets that arrive during this 'gray period'. … The size of
//! the headroom is decided by the MTU size, the PFC reaction time of the
//! egress port, and most importantly, the propagation delay between the
//! sender and the receiver." — and it is why shallow-buffer switches can
//! afford only two lossless classes.
//!
//! We sweep the provisioned headroom as a fraction of the computed
//! requirement with senders on the *longest* cables the paper mentions
//! (300 m): at 100% the lossless guarantee holds; starved headroom drops
//! lossless packets exactly as the gray-period formula predicts.

use rocescale_nic::QpApp;
use rocescale_sim::SimTime;
use rocescale_switch::BufferConfig;
use rocescale_topology::{ClosSpec, Tier};

use crate::cluster::{ClusterBuilder, ServerId};
use crate::profiles::TransportProfile;
use crate::CcKind;

/// Result of one headroom arm.
#[derive(Debug, Clone)]
pub struct HeadroomResult {
    /// Provisioned fraction of the computed requirement.
    pub fraction: f64,
    /// Provisioned bytes per (port, PG).
    pub headroom_bytes: u64,
    /// Lossless packets dropped (must be zero at fraction ≥ 1.0).
    pub lossless_drops: u64,
    /// Pause frames generated.
    pub pauses: u64,
}

/// Run a 4:1 incast over 300 m server cables with headroom provisioned at
/// `fraction` of the 300 m / 40 GbE requirement.
pub fn run(fraction: f64, dur: SimTime) -> HeadroomResult {
    let required = BufferConfig::headroom_for(40_000_000_000, 300);
    let provisioned = (required as f64 * fraction) as u64;
    let spec = ClosSpec {
        // Long server cables: the widest gray period the paper cites.
        server_m: 300,
        ..ClosSpec::uniform_40g(1, 1, 1, 1, 5)
    };
    let mut c = ClusterBuilder::new(spec)
        // Raw PFC: the headroom is doing all the work.
        .transport(TransportProfile::paper_default().cc(CcKind::Off))
        .switch_tweak(move |_, cfg| {
            cfg.buffer.headroom_per_port_pg = provisioned.max(1);
            // A small fixed XOFF threshold makes pauses fire early and
            // often, maximizing gray-period stress.
            cfg.buffer.alpha = None;
            cfg.buffer.xoff_static = 64 * 1024;
        })
        .build();
    let dst = ServerId(0);
    for i in 1..5usize {
        c.connect_qp(
            ServerId(i),
            dst,
            17_000 + i as u16,
            QpApp::Saturate {
                msg_len: 1 << 20,
                inflight: 2,
            },
            QpApp::None,
        );
    }
    c.run_until(dur);
    let tor = c.switches_of_tier(Tier::Tor)[0];
    HeadroomResult {
        fraction,
        headroom_bytes: provisioned,
        lossless_drops: c.lossless_drops(),
        pauses: c.switch(tor).stats.total_pause_tx(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §2: the computed headroom is sufficient — and not wildly
    /// overprovisioned: starving it to a quarter breaks the lossless
    /// guarantee on 300 m cables.
    #[test]
    fn computed_headroom_is_sufficient_and_tight() {
        let dur = SimTime::from_millis(6);
        let full = run(1.0, dur);
        assert!(full.pauses > 0, "the incast must exercise PFC");
        assert_eq!(
            full.lossless_drops, 0,
            "full headroom must absorb the gray period"
        );
        let starved = run(0.25, dur);
        assert!(
            starved.lossless_drops > 0,
            "quarter headroom must overflow on 300 m cables"
        );
    }
}
