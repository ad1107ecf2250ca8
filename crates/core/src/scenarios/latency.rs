//! Figure 6 — end-to-end latency of a latency-sensitive service: RDMA vs
//! TCP.
//!
//! The paper's service has ~350 Mb/s per server of bursty query/response
//! traffic with a many-to-one incast pattern, on a fabric that is not
//! bandwidth-bottlenecked; half the servers ran TCP, half RDMA. The
//! measured 99th percentiles: **RDMA ≈ 90 µs vs TCP ≈ 700 µs**, with TCP
//! spiking to milliseconds and RDMA's 99.9th at only ≈ 200 µs — because
//! RDMA "eliminated packet drops and kernel stack overhead" while
//! changing neither the traffic nor the network.

use rocescale_monitor::Percentiles;
use rocescale_nic::QpApp;
use rocescale_sim::SimTime;
use rocescale_tcp::TcpApp;

use crate::cluster::{ClusterBuilder, ServerId, ServerKind};

/// Latency distribution summary (µs).
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Samples collected.
    pub samples: usize,
    /// Median.
    pub p50_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// 99.9th percentile.
    pub p999_us: f64,
    /// Maximum.
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarize RTT samples given in picoseconds.
    pub(crate) fn from_samples(ps: &[u64]) -> LatencySummary {
        let mut p = Percentiles::from_samples(ps);
        let us = |v: Option<u64>| v.map_or(0.0, |v| v as f64 / 1e6);
        LatencySummary {
            samples: p.count(),
            p50_us: us(p.p50()),
            p99_us: us(p.p99()),
            p999_us: us(p.p999()),
            max_us: us(p.max()),
        }
    }
}

/// Result of the Figure 6 comparison.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// RDMA half of the fleet.
    pub rdma: LatencySummary,
    /// TCP half of the fleet.
    pub tcp: LatencySummary,
    /// Lossless drops (must be zero).
    pub lossless_drops: u64,
    /// Raw RDMA RTT samples, ps (for CDF rendering).
    pub rdma_samples_ps: Vec<u64>,
    /// Raw TCP RTT samples, ps.
    pub tcp_samples_ps: Vec<u64>,
}

/// Run the service for `dur`: a 4-rack cluster, alternating RDMA/TCP
/// servers, each front-end fanning a 512-byte query to `fanin` backends
/// of its own kind every `interval` and measuring time to each
/// `resp_len`-byte response.
pub fn run(dur: SimTime, fanin: usize, resp_len: u32, interval: SimTime) -> Fig6Result {
    let mut c = ClusterBuilder::two_tier(4, 8)
        .server_kind(|i| {
            if i % 2 == 0 {
                ServerKind::Rdma
            } else {
                ServerKind::Tcp
            }
        })
        .seed(17)
        .build();

    let install_rdma = |c: &mut crate::cluster::Cluster, fronts: &[ServerId]| {
        for (fi, f) in fronts.iter().enumerate() {
            let mut qps = Vec::new();
            // Backends: the next `fanin` same-kind servers (wrapping),
            // spread across racks.
            for k in 1..=fanin {
                let b = fronts[(fi + k) % fronts.len()];
                let (qf, _qb) = c.connect_qp(
                    *f,
                    b,
                    (9000 + fi * 31 + k) as u16,
                    QpApp::None,
                    QpApp::Echo {
                        reply_len: resp_len,
                    },
                );
                qps.push(qf);
            }
            c.rdma_mut(*f).set_host_app(rocescale_nic::HostApp::Fanout {
                qps,
                interval,
                query_len: 512,
                start_at: SimTime::from_micros(50 + 13 * fi as u64),
            });
        }
    };
    let rdma_servers = c.servers_of_kind(ServerKind::Rdma);
    install_rdma(&mut c, &rdma_servers);

    // TCP side: same shape, Pinger per connection approximates the
    // fan-out (each front-end queries its backends on staggered periods).
    let tcp_servers = c.servers_of_kind(ServerKind::Tcp);
    for (fi, f) in tcp_servers.iter().enumerate() {
        for k in 1..=fanin {
            let b = tcp_servers[(fi + k) % tcp_servers.len()];
            c.connect_tcp(
                *f,
                b,
                TcpApp::Pinger {
                    payload: 512,
                    interval,
                    start_at: SimTime::from_micros(50 + 13 * fi as u64 + k as u64),
                },
                TcpApp::Echo {
                    reply_len: resp_len,
                },
            );
        }
    }

    c.run_until(dur);
    let rdma_rtts = c.take_rdma_rtts();
    let tcp_rtts = c.take_tcp_rtts();
    Fig6Result {
        rdma: LatencySummary::from_samples(&rdma_rtts),
        tcp: LatencySummary::from_samples(&tcp_rtts),
        lossless_drops: c.lossless_drops(),
        rdma_samples_ps: rdma_rtts,
        tcp_samples_ps: tcp_rtts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 6's shape: same service, same fabric — RDMA's p99 is many
    /// times lower than TCP's, and RDMA's p99.9 is still below TCP's p99.
    #[test]
    fn rdma_tail_beats_tcp_tail() {
        let r = run(
            SimTime::from_millis(60),
            4,
            16 * 1024,
            SimTime::from_millis(2),
        );
        assert!(r.rdma.samples > 200, "rdma samples: {}", r.rdma.samples);
        assert!(r.tcp.samples > 200, "tcp samples: {}", r.tcp.samples);
        assert_eq!(r.lossless_drops, 0);
        assert!(
            r.tcp.p99_us > 3.0 * r.rdma.p99_us,
            "tcp p99 {} must dwarf rdma p99 {}",
            r.tcp.p99_us,
            r.rdma.p99_us
        );
        assert!(
            r.rdma.p999_us < r.tcp.p99_us,
            "paper: RDMA p99.9 ({}) below TCP p99 ({})",
            r.rdma.p999_us,
            r.tcp.p99_us
        );
        // Order-of-magnitude sanity vs the paper's axes.
        assert!(r.rdma.p99_us < 300.0, "rdma p99 {}", r.rdma.p99_us);
        assert!(r.tcp.p99_us > 50.0, "tcp p99 {}", r.tcp.p99_us);
    }
}
