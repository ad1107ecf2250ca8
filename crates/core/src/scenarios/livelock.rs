//! §4.1 — the RDMA transport livelock experiment.
//!
//! "We connected two servers A and B, via a single switch (W), and
//! carried out three experiments for RDMA SEND, WRITE, and READ. … The
//! switch was configured to drop any packet with the least significant
//! byte of IP ID equals to 0xff. … We found that even with this low
//! packet drop rate, the application level goodput was zero."

use rocescale_nic::QpApp;
use rocescale_sim::SimTime;
use rocescale_switch::DropReason;
use rocescale_transport::{LossRecovery, Verb};

use crate::cluster::{ClusterBuilder, ServerId};
use crate::profiles::{FaultProfile, TransportProfile};
use crate::scenarios::gbps;
use crate::CcKind;

/// Which verb drives the transfer (the paper runs all three).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// RDMA SEND of 4 MB messages.
    Send,
    /// RDMA WRITE of 4 MB messages.
    Write,
    /// RDMA READ of 4 MB chunks (B reads from A).
    Read,
}

/// Result of one livelock run.
#[derive(Debug, Clone)]
pub struct LivelockResult {
    /// Loss recovery scheme under test.
    pub recovery: LossRecovery,
    /// Verb exercised.
    pub workload: Workload,
    /// Application goodput, Gb/s.
    pub goodput_gbps: f64,
    /// Raw link throughput at the sender, Gb/s (stays ≈ line rate even
    /// in livelock — "the link was fully utilized with line rate, yet
    /// the application was not making any progress").
    pub wire_gbps: f64,
    /// Packets dropped by the injected filter.
    pub filter_drops: u64,
    /// Messages completed.
    pub messages_done: u64,
    /// Packets retransmitted by the data sender (go-back-N resends the
    /// whole window tail; selective repeat resends only the holes).
    pub retx_pkts: u64,
    /// Bytes retransmitted by the data sender.
    pub retx_bytes: u64,
}

/// Run the experiment: A and B under one switch, deterministic 1/256
/// drop, 4 MB messages, for `dur` of simulated time.
pub fn run(recovery: LossRecovery, workload: Workload, dur: SimTime) -> LivelockResult {
    const MSG: u32 = 4 << 20;
    let mut c = ClusterBuilder::single_tor(2)
        .transport(
            TransportProfile::paper_default()
                .recovery(recovery)
                // Isolate loss recovery from rate control.
                .cc(CcKind::Off)
                .qp_rto(SimTime::from_micros(100)),
        )
        .faults(FaultProfile::paper_default().drop_ip_id_low_byte(Some(0xff)))
        .build();
    let (a, b) = (ServerId(0), ServerId(1));
    // `qa` is always the endpoint streaming the 4 MB of data A→B (READ
    // responses included), so its retransmission counters are the ones
    // the recovery schemes differ on.
    let qa = match workload {
        Workload::Send | Workload::Write => {
            // A pushes to B as fast as possible.
            let (qa, _qb) = c.connect_qp(a, b, 5000, QpApp::None, QpApp::None);
            // Keep several messages posted; repost is not needed because
            // in livelock nothing ever completes, and in go-back-N the
            // backlog below outlasts the run.
            let verb = |len| match workload {
                Workload::Send => Verb::Send { len },
                Workload::Write => Verb::Write { len },
                Workload::Read => unreachable!(),
            };
            let posts = (dur.as_secs_f64() * 40e9 / 8.0 / MSG as f64).ceil() as u32 + 8;
            for _ in 0..posts {
                c.rdma_mut(a).post(qa, verb(MSG), SimTime::ZERO, false);
            }
            qa
        }
        Workload::Read => {
            // B reads 4 MB chunks from A: the data flows A→B as READ
            // responses.
            let (qa, qb) = c.connect_qp(a, b, 5000, QpApp::None, QpApp::None);
            let posts = (dur.as_secs_f64() * 40e9 / 8.0 / MSG as f64).ceil() as u32 + 8;
            for _ in 0..posts {
                c.rdma_mut(b)
                    .post(qb, Verb::Read { len: MSG }, SimTime::ZERO, false);
            }
            qa
        }
    };
    c.run_until(dur);
    let (goodput_bytes, msgs, wire_bytes) = match workload {
        Workload::Send | Workload::Write => {
            let rx = c.rdma(b);
            let tx = c.rdma(a);
            (
                rx.total_goodput_bytes(),
                tx.stats.send_completions,
                tx.stats.tx_bytes,
            )
        }
        Workload::Read => {
            let rx = c.rdma(b);
            let tx = c.rdma(a);
            (
                rx.total_goodput_bytes(),
                rx.stats.send_completions,
                tx.stats.tx_bytes,
            )
        }
    };
    let tor = c.switches_of_tier(rocescale_topology::Tier::Tor)[0];
    let sender_ep = c.rdma(a).qp_endpoint(qa);
    let (retx_pkts, retx_bytes) = (sender_ep.stats.retx_pkts, sender_ep.stats.retx_bytes);
    LivelockResult {
        recovery,
        workload,
        goodput_gbps: gbps(goodput_bytes, dur),
        wire_gbps: gbps(wire_bytes, dur),
        filter_drops: c.switch(tor).stats.drops_of(DropReason::InjectedFilter),
        messages_done: msgs,
        retx_pkts,
        retx_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The §4.1 table: go-back-0 goodput is zero at full wire rate for
    /// every verb; go-back-N restores useful goodput.
    #[test]
    fn goback0_livelocks_all_verbs_goback_n_recovers() {
        let dur = SimTime::from_millis(8);
        for wl in [Workload::Send, Workload::Write, Workload::Read] {
            let r0 = run(LossRecovery::GoBack0, wl, dur);
            assert_eq!(r0.goodput_gbps, 0.0, "{wl:?} must livelock");
            assert!(
                r0.wire_gbps > 25.0,
                "{wl:?} wire must stay near line rate: {}",
                r0.wire_gbps
            );
            assert!(r0.filter_drops > 100, "{wl:?}: filter active");
            assert_eq!(r0.messages_done, 0);

            let rn = run(LossRecovery::GoBackN, wl, dur);
            assert!(
                rn.goodput_gbps > 20.0,
                "{wl:?} go-back-N goodput: {}",
                rn.goodput_gbps
            );
            assert!(rn.messages_done >= 5, "{wl:?}: {}", rn.messages_done);
        }
    }

    /// The IRN-style contrast: selective repeat also escapes the
    /// livelock, and does so resending only the dropped holes — strictly
    /// fewer retransmitted bytes than go-back-N's window tails.
    #[test]
    fn selective_repeat_recovers_with_fewer_retransmitted_bytes() {
        let dur = SimTime::from_millis(8);
        let gbn = run(LossRecovery::GoBackN, Workload::Send, dur);
        let sr = run(LossRecovery::SelectiveRepeat, Workload::Send, dur);
        assert!(sr.goodput_gbps > 20.0, "SR goodput: {}", sr.goodput_gbps);
        assert!(sr.messages_done >= 5, "SR msgs: {}", sr.messages_done);
        assert!(sr.retx_pkts > 0, "the 1/256 filter must have bitten");
        assert!(
            sr.retx_bytes < gbn.retx_bytes,
            "selective repeat must resend fewer bytes: {} vs {}",
            sr.retx_bytes,
            gbn.retx_bytes
        );
    }
}
