//! §4.4 — the slow-receiver symptom and its two mitigations.
//!
//! "The MTT has only 2K entries. For 4KB page size, 2K MTT entries can
//! only handle 8MB memory. … Once the receiving pipeline is slowed down
//! and the receiving buffer occupation exceeds the PFC threshold, the NIC
//! has to generate PFC pause frames to the switch."
//!
//! Mitigations measured: (a) 2 MB pages on the NIC; (b) dynamic buffer
//! sharing on the switch, which absorbs the pause-churn locally instead
//! of propagating it upstream.

use rocescale_nic::{MttConfig, QpApp};
use rocescale_sim::SimTime;

use crate::cluster::{ClusterBuilder, ServerId};
use crate::profiles::{FabricProfile, TransportProfile};
use crate::scenarios::gbps;
use crate::CcKind;

/// Page-size arm of the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageSize {
    /// 4 KB pages: the symptom.
    Small,
    /// 2 MB pages: the fix.
    Large,
}

/// Result of one slow-receiver run.
#[derive(Debug, Clone)]
pub struct SlowReceiverResult {
    /// Page-size arm.
    pub pages: PageSize,
    /// Dynamic buffer sharing on the switches?
    pub dynamic_buffers: bool,
    /// Pause frames the receiving *server* sent toward its ToR.
    pub server_pause_tx: u64,
    /// Pause frames the ToR propagated *upstream* (to leaves) — the
    /// collateral-damage metric dynamic buffering reduces.
    pub upstream_pause_tx: u64,
    /// Receiver goodput, Gb/s.
    pub goodput_gbps: f64,
    /// MTT miss ratio observed at the receiver.
    pub mtt_miss_ratio: f64,
}

/// Run: a cross-rack sender saturates one receiver whose NIC has the
/// given MTT configuration, for `dur`.
pub fn run(pages: PageSize, dynamic_buffers: bool, dur: SimTime) -> SlowReceiverResult {
    // Shrink the MTT so the thrash is visible at simulation scale; the
    // ratio page-reach : message-stream is what matters.
    let mtt = match pages {
        PageSize::Small => MttConfig {
            entries: 64,
            ..MttConfig::small_pages()
        },
        PageSize::Large => MttConfig {
            entries: 64,
            ..MttConfig::large_pages()
        },
    };
    let receiver_order = 0usize;
    let mut c = ClusterBuilder::two_tier(2, 2)
        // Isolate the PFC path.
        .transport(TransportProfile::paper_default().cc(CcKind::Off))
        .fabric(FabricProfile::paper_default().alpha(if dynamic_buffers {
            Some(1.0 / 16.0)
        } else {
            None
        }))
        .host_tweak(move |order, cfg| {
            if order == receiver_order {
                cfg.rx.mtt = Some(mtt);
            }
        })
        .build();
    let rx = ServerId(0);
    // Sender in the *other* rack so pause propagation has an upstream
    // path to contaminate.
    let tx = c.servers_under(0, 1)[0];
    c.connect_qp(
        tx,
        rx,
        7000,
        QpApp::Saturate {
            msg_len: 1 << 20,
            inflight: 4,
        },
        QpApp::None,
    );
    c.run_until(dur);

    let tor_of_rx = c.tor_of(rx);
    let sw = c.switch(tor_of_rx);
    // Upstream pause frames: XOFFs the ToR sent on its fabric ports.
    let server_ports = c.spec().servers_per_tor as usize;
    let upstream: u64 = sw.stats.pause_tx.iter().skip(server_ports).sum();
    let host = c.rdma(rx);
    SlowReceiverResult {
        pages,
        dynamic_buffers,
        server_pause_tx: host.stats.pause_tx,
        upstream_pause_tx: upstream,
        goodput_gbps: gbps(host.total_goodput_bytes(), dur),
        mtt_miss_ratio: host
            .mtt_counters()
            .map(|(h, m)| {
                if h + m == 0 {
                    0.0
                } else {
                    m as f64 / (h + m) as f64
                }
            })
            .unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §4.4: small pages thrash the MTT and make the *server* a pause
    /// source; large pages cure it.
    #[test]
    fn small_pages_cause_pauses_large_pages_fix() {
        let dur = SimTime::from_millis(10);
        let small = run(PageSize::Small, true, dur);
        let large = run(PageSize::Large, true, dur);
        assert!(
            small.server_pause_tx > 0,
            "slow receiver must pause its ToR"
        );
        assert!(
            large.server_pause_tx * 5 < small.server_pause_tx,
            "large pages: {} vs {}",
            large.server_pause_tx,
            small.server_pause_tx
        );
        assert!(large.goodput_gbps > small.goodput_gbps);
    }

    /// "Compared with static buffer allocation, our experience showed
    /// that dynamic buffer sharing helps reduce PFC pause frame
    /// propagation."
    #[test]
    fn dynamic_buffers_absorb_propagation() {
        let dur = SimTime::from_millis(10);
        let dynamic = run(PageSize::Small, true, dur);
        let static_ = run(PageSize::Small, false, dur);
        // The static config's small fixed threshold propagates more
        // pauses upstream than the dynamic pool (which lets one congested
        // port borrow the idle buffer).
        assert!(
            dynamic.upstream_pause_tx <= static_.upstream_pause_tx,
            "dynamic {} vs static {}",
            dynamic.upstream_pause_tx,
            static_.upstream_pause_tx
        );
    }
}
