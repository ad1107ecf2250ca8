//! Quickstart: build a small RoCEv2 cluster with the paper's recommended
//! configuration, run a bulk transfer plus Pingmesh probes, and read the
//! counters the paper's monitoring systems read.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rocescale::core::{ClusterBuilder, ServerId};
use rocescale::monitor::pingmesh::{ProbeResult, Scope};
use rocescale::monitor::Pingmesh;
use rocescale::nic::QpApp;
use rocescale::sim::SimTime;

fn main() {
    // Two racks of four 40 GbE servers under a leaf/spine pair — DSCP-based
    // PFC, go-back-N, DCQCN, watchdogs, and the deadlock fix all on.
    let mut cluster = ClusterBuilder::two_tier(2, 4).seed(7).build();
    println!(
        "cluster: {} servers, {} switches",
        cluster.server_count(),
        cluster.switch_count()
    );

    // A cross-rack bulk sender: keep two 1 MB messages in flight.
    let (src, dst) = (ServerId(0), ServerId(4));
    cluster.connect_qp(
        src,
        dst,
        5000,
        QpApp::Saturate {
            msg_len: 1 << 20,
            inflight: 2,
        },
        QpApp::None,
    );

    // Pingmesh probes riding the same fabric (512-byte RDMA SENDs, §5.3).
    cluster.connect_qp(
        ServerId(1),
        ServerId(5),
        5001,
        QpApp::Pinger {
            payload: 512,
            interval: SimTime::from_micros(100),
            start_at: SimTime::from_micros(20),
        },
        QpApp::Echo { reply_len: 512 },
    );

    cluster.run_for_millis(10);

    let bytes = cluster.rdma(dst).total_goodput_bytes();
    println!(
        "bulk transfer: {:.2} Gb/s goodput over 10 ms",
        bytes as f64 * 8.0 / 0.010 / 1e9
    );

    let mut pingmesh = Pingmesh::new();
    for rtt in cluster.take_rdma_rtts() {
        pingmesh.record(Scope::IntraPodset, ProbeResult::Rtt(rtt));
    }
    println!("{}", pingmesh.render());

    println!(
        "fleet counters: {} switch pauses, {} lossless drops (must be 0)",
        cluster.total_switch_pause_tx(),
        cluster.lossless_drops()
    );
    assert_eq!(cluster.lossless_drops(), 0, "PFC must prevent loss");
}
