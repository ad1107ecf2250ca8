//! Figure 8 — RDMA latency vs network load, and TCP/RDMA isolation.
//!
//! The paper's two-tier testbed (2 ToRs × 24 servers, 6:1
//! oversubscription): once the ToR-pair saturation starts, Pingmesh RTTs
//! jump "from 50us at the 99th percentile and 80us at the 99.9th
//! percentile to 400us and 800us, respectively" — queues and PFC pauses
//! raise latency even though nothing is dropped. Meanwhile "the 99th
//! percentile latency of TCP did not change during the experiment …
//! because we put RDMA and TCP packets into two different queues."

use rocescale_nic::QpApp;
use rocescale_sim::SimTime;
use rocescale_tcp::TcpApp;

use crate::cluster::{ClusterBuilder, ServerKind};
use crate::scenarios::latency::LatencySummary;

/// Result of the Figure 8 experiment.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// RDMA probe RTTs while the fabric was idle.
    pub rdma_idle: LatencySummary,
    /// RDMA probe RTTs under the saturating stress.
    pub rdma_loaded: LatencySummary,
    /// TCP probe RTTs while idle.
    pub tcp_idle: LatencySummary,
    /// TCP probe RTTs under the (RDMA) stress — must be unchanged.
    pub tcp_loaded: LatencySummary,
    /// Drops during the whole run (zero: latency rose, loss did not).
    pub lossless_drops: u64,
}

/// Run: `idle_dur` of probes on a quiet fabric, then start the ToR-pair
/// stress and probe for `loaded_dur` more.
pub fn run(idle_dur: SimTime, loaded_dur: SimTime) -> Fig8Result {
    let servers_per_tor = 12u32;
    // Last two servers of each rack run TCP (the isolation control).
    let spt = servers_per_tor as usize;
    let mut c = ClusterBuilder::two_tier(2, servers_per_tor)
        .server_kind(move |i| {
            if i % spt >= spt - 2 {
                ServerKind::Tcp
            } else {
                ServerKind::Rdma
            }
        })
        .tcp_tweak(|_, cfg| {
            // The isolation claim is about network queues; remove the
            // kernel scheduler-hiccup tail so it cannot masquerade as
            // congestion in either phase.
            cfg.kernel.tail_prob = 0.0;
        })
        .seed(29)
        .build();

    // Pingmesh probes: rack0 RDMA server i probes rack1 RDMA server i.
    let rack0 = c.servers_under(0, 0);
    let rack1 = c.servers_under(0, 1);
    let probe_pairs = 4usize;
    for i in 0..probe_pairs {
        c.connect_qp(
            rack0[i],
            rack1[i],
            (11_000 + i) as u16,
            QpApp::Pinger {
                payload: 512,
                interval: SimTime::from_micros(200),
                start_at: SimTime::from_micros(40 + i as u64 * 7),
            },
            QpApp::Echo { reply_len: 512 },
        );
    }
    // TCP probes between the TCP servers (cross-rack).
    let tcp = c.servers_of_kind(ServerKind::Tcp);
    for i in 0..2 {
        c.connect_tcp(
            tcp[i],
            tcp[i + 2],
            TcpApp::Pinger {
                payload: 512,
                interval: SimTime::from_micros(400),
                start_at: SimTime::from_micros(60 + i as u64 * 11),
            },
            TcpApp::Echo { reply_len: 512 },
        );
    }

    // Phase 1: idle.
    c.run_until(idle_dur);
    let rdma_idle = c.take_rdma_rtts();
    let tcp_idle = c.take_tcp_rtts();

    // Phase 2: saturating ToR-pair stress on the *other* RDMA servers
    // (every server-pair, 8 QPs each — Figure 7's pattern at testbed
    // scale, 6:1 oversubscribed so the fabric genuinely congests).
    for i in probe_pairs..(spt - 2) {
        for q in 0..8usize {
            c.connect_qp(
                rack0[i],
                rack1[i],
                (12_000 + i * 16 + q) as u16,
                QpApp::Saturate {
                    msg_len: 1 << 20,
                    inflight: 2,
                },
                QpApp::Saturate {
                    msg_len: 1 << 20,
                    inflight: 2,
                },
            );
        }
    }
    c.run_until(idle_dur + loaded_dur);
    let rdma_loaded = c.take_rdma_rtts();
    let tcp_loaded = c.take_tcp_rtts();

    Fig8Result {
        rdma_idle: LatencySummary::from_samples(&rdma_idle),
        rdma_loaded: LatencySummary::from_samples(&rdma_loaded),
        tcp_idle: LatencySummary::from_samples(&tcp_idle),
        tcp_loaded: LatencySummary::from_samples(&tcp_loaded),
        lossless_drops: c.lossless_drops(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 8's two findings: RDMA latency rises sharply under load
    /// (congestion without loss), and TCP in its own queue is unaffected.
    #[test]
    fn latency_rises_under_load_tcp_isolated() {
        let r = run(SimTime::from_millis(10), SimTime::from_millis(25));
        assert!(r.rdma_idle.samples > 30 && r.rdma_loaded.samples > 30);
        assert_eq!(r.lossless_drops, 0, "latency rose, loss did not");
        assert!(
            r.rdma_loaded.p99_us > 3.0 * r.rdma_idle.p99_us,
            "p99 must jump: idle {} loaded {}",
            r.rdma_idle.p99_us,
            r.rdma_loaded.p99_us
        );
        // TCP's p99 stays in the same band (within 2x, it has its own
        // kernel-jitter noise floor).
        assert!(
            r.tcp_loaded.p99_us < 2.0 * r.tcp_idle.p99_us,
            "TCP must be isolated: idle {} loaded {}",
            r.tcp_idle.p99_us,
            r.tcp_loaded.p99_us
        );
    }
}
