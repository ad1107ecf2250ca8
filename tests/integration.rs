//! Cross-crate integration tests through the public `rocescale` facade:
//! packets through transport through NICs through switches over real
//! topologies, with the monitoring subsystem as the observer.

use rocescale::core::{
    CcKind, ClusterBuilder, DeploymentStage, FabricProfile, PfcMode, ServerId, ServerKind,
    TransportProfile,
};
use rocescale::monitor::pingmesh::{ProbeResult, Scope};
use rocescale::monitor::{Percentiles, Pingmesh};
use rocescale::nic::QpApp;
use rocescale::sim::SimTime;
use rocescale::switch::DropReason;
use rocescale::tcp::TcpApp;
use rocescale::topology::{ClosSpec, Tier, Topology};
use rocescale::transport::Verb;

/// The full stack moves a message across three switch tiers and the
/// monitoring counters agree with the application view.
#[test]
fn cross_pod_transfer_with_agreeing_counters() {
    let mut c = ClusterBuilder::new(ClosSpec::uniform_40g(2, 2, 2, 2, 2))
        .seed(11)
        .build();
    let a = c
        .all_servers()
        .into_iter()
        .find(|s| c.server_pod(*s) == 0)
        .unwrap();
    let b = c
        .all_servers()
        .into_iter()
        .find(|s| c.server_pod(*s) == 1)
        .unwrap();
    let (qa, qb) = c.connect_qp(a, b, 4444, QpApp::None, QpApp::None);
    c.rdma_mut(a)
        .post(qa, Verb::Send { len: 3 << 20 }, SimTime::ZERO, false);
    c.run_for_millis(3);
    // Application view.
    assert_eq!(c.rdma(b).qp_endpoint(qb).goodput_bytes(), 3 << 20);
    // Network view: payload crossed every tier, nothing lossless dropped.
    for tier in [Tier::Tor, Tier::Leaf, Tier::Spine] {
        let tx: u64 = c
            .switches_of_tier(tier)
            .into_iter()
            .map(|i| c.switch(i).total_data_tx_pkts())
            .sum();
        assert!(tx >= 3072, "{tier:?} forwarded {tx} packets");
    }
    assert_eq!(c.lossless_drops(), 0);
}

/// Deployment staging: with PFC at ToR level only, cross-rack RDMA rides
/// lossy classes in the leaf layer and can drop under incast; at Spine
/// stage the same workload is loss-free. (The reason the paper staged its
/// rollout bottom-up, §6.1.)
#[test]
fn staged_deployment_controls_where_loss_can_happen() {
    let run_stage = |stage: DeploymentStage| {
        let mut c = ClusterBuilder::two_tier(2, 4)
            .fabric(FabricProfile::paper_default().stage(stage))
            .transport(TransportProfile::paper_default().cc(CcKind::Off))
            .seed(13)
            .build();
        let rack0 = c.servers_under(0, 0);
        let rack1 = c.servers_under(0, 1);
        // 4:1 cross-rack incast into rack1[0] — transits the leaves.
        for (i, s) in rack0.iter().enumerate() {
            c.connect_qp(
                *s,
                rack1[0],
                (4500 + i) as u16,
                QpApp::Saturate {
                    msg_len: 1 << 20,
                    inflight: 2,
                },
                QpApp::None,
            );
        }
        c.run_for_millis(8);
        let lossy: u64 = c.total_drops_of(DropReason::LossyOverflow);
        (lossy, c.lossless_drops())
    };
    let (lossy_tor_only, ll_tor_only) = run_stage(DeploymentStage::TorOnly);
    assert!(ll_tor_only == 0);
    assert!(
        lossy_tor_only > 0,
        "leaves without PFC must shed the incast: {lossy_tor_only}"
    );
    let (lossy_full, ll_full) = run_stage(DeploymentStage::Spine);
    assert_eq!(lossy_full + ll_full, 0, "full PFC: no loss anywhere");
}

/// VLAN-based and DSCP-based PFC protect identically at the RDMA level —
/// the whole point of §3 is that the *data packet* format changes while
/// the pause machinery is untouched.
#[test]
fn pfc_modes_equivalent_for_rdma() {
    let run_mode = |mode: PfcMode| {
        let mut c = ClusterBuilder::single_tor(3)
            .fabric(FabricProfile::paper_default().pfc_mode(mode))
            .transport(TransportProfile::paper_default().cc(CcKind::Off))
            .seed(3)
            .build();
        for i in 1..3usize {
            c.connect_qp(
                ServerId(i),
                ServerId(0),
                (4600 + i) as u16,
                QpApp::Saturate {
                    msg_len: 512 * 1024,
                    inflight: 2,
                },
                QpApp::None,
            );
        }
        c.run_for_millis(5);
        (
            c.rdma(ServerId(0)).total_goodput_bytes(),
            c.lossless_drops(),
            c.total_switch_pause_tx() > 0,
        )
    };
    let (g_dscp, d_dscp, p_dscp) = run_mode(PfcMode::Dscp);
    let (g_vlan, d_vlan, p_vlan) = run_mode(PfcMode::Vlan);
    assert_eq!(d_dscp + d_vlan, 0);
    assert!(p_dscp && p_vlan);
    // VLAN tags add 4 bytes per frame; goodput within 1%.
    let ratio = g_dscp as f64 / g_vlan as f64;
    assert!((0.98..1.02).contains(&ratio), "goodput ratio {ratio}");
}

/// Pingmesh over a mixed fleet: RDMA probes measure healthy RTTs and the
/// aggregation marks the fabric healthy.
#[test]
fn pingmesh_health_verdict() {
    let mut c = ClusterBuilder::two_tier(2, 3).seed(21).build();
    let rack0 = c.servers_under(0, 0);
    let rack1 = c.servers_under(0, 1);
    for i in 0..3usize {
        c.connect_qp(
            rack0[i],
            rack1[i],
            (4700 + i) as u16,
            QpApp::Pinger {
                payload: 512,
                interval: SimTime::from_micros(100),
                start_at: SimTime::from_micros(10 + i as u64),
            },
            QpApp::Echo { reply_len: 512 },
        );
    }
    c.run_for_millis(5);
    let mut pm = Pingmesh::new();
    for rtt in c.take_rdma_rtts() {
        pm.record(Scope::IntraPodset, ProbeResult::Rtt(rtt));
    }
    assert!(pm.total() > 100);
    assert!(
        pm.healthy(Scope::IntraPodset, SimTime::from_micros(100).as_ps()),
        "an idle podset must be healthy at the 100 µs bar"
    );
}

/// TCP and RDMA share the fabric without the lossless classes ever
/// dropping, and both make progress.
#[test]
fn mixed_fleet_coexistence() {
    let mut c = ClusterBuilder::two_tier(2, 4)
        .server_kind(|i| {
            if i % 2 == 0 {
                ServerKind::Rdma
            } else {
                ServerKind::Tcp
            }
        })
        .seed(33)
        .build();
    let rdma = c.servers_of_kind(ServerKind::Rdma);
    let tcp = c.servers_of_kind(ServerKind::Tcp);
    c.connect_qp(
        rdma[0],
        rdma[2],
        4800,
        QpApp::Saturate {
            msg_len: 1 << 20,
            inflight: 2,
        },
        QpApp::None,
    );
    let (ct, _) = c.connect_tcp(
        tcp[0],
        tcp[2],
        TcpApp::Saturate {
            msg_len: 256 * 1024,
        },
        TcpApp::None,
    );
    c.run_for_millis(10);
    // Coexistence, not performance: both stacks make progress (DCQCN
    // deliberately yields while converging against the TCP share) and
    // the lossless classes never drop.
    assert!(c.rdma(rdma[2]).total_goodput_bytes() > 4 << 20);
    assert!(c.tcp(tcp[0]).sender_stats(ct).bytes_acked > 4 << 20);
    assert_eq!(c.lossless_drops(), 0);
}

/// Determinism across the whole stack: same seed, same world.
#[test]
fn full_stack_determinism() {
    let run = || {
        let mut c = ClusterBuilder::two_tier(2, 3).seed(77).build();
        let rack0 = c.servers_under(0, 0);
        let rack1 = c.servers_under(0, 1);
        for i in 0..3usize {
            c.connect_qp(
                rack0[i],
                rack1[(i + 1) % 3],
                (4900 + i) as u16,
                QpApp::Saturate {
                    msg_len: 300 * 1024,
                    inflight: 2,
                },
                QpApp::None,
            );
        }
        c.run_for_millis(6);
        (
            c.total_rdma_goodput(),
            c.total_switch_pause_tx(),
            c.world.events_processed(),
        )
    };
    assert_eq!(run(), run());
}

/// The deadlock detector sees a healthy fabric as healthy (no false
/// positives from an active cluster).
#[test]
fn progress_tracker_no_false_positives() {
    let mut c = ClusterBuilder::two_tier(2, 3).seed(41).build();
    let rack0 = c.servers_under(0, 0);
    let rack1 = c.servers_under(0, 1);
    for i in 0..3usize {
        c.connect_qp(
            rack0[i],
            rack1[i],
            (5100 + i) as u16,
            QpApp::Saturate {
                msg_len: 1 << 20,
                inflight: 2,
            },
            QpApp::None,
        );
    }
    for ms in 1..=10u64 {
        c.run_until(SimTime::from_millis(ms));
        assert_eq!(c.deadlock_observe_now(), None);
    }
    assert_eq!(c.deadlock_probe().epochs(), 10);
    assert!(c.deadlock_probe().stuck().is_empty());
}

/// Latency percentiles through the whole stack are physically sensible:
/// an unloaded same-rack RTT beats a cross-pod RTT, and both sit in the
/// microsecond band the hardware implies.
#[test]
fn rtt_scales_with_distance() {
    let mut c = ClusterBuilder::new(ClosSpec::uniform_40g(2, 2, 2, 2, 3))
        .seed(55)
        .build();
    let rack0 = c.servers_under(0, 0);
    let pod1 = c.servers_under(1, 0);
    // Same-rack probe from rack0[0]; cross-pod probe from rack0[1] —
    // distinct prober hosts so the per-host sample logs stay separable.
    c.connect_qp(
        rack0[0],
        rack0[2],
        5200,
        QpApp::Pinger {
            payload: 512,
            interval: SimTime::from_micros(50),
            start_at: SimTime::from_micros(5),
        },
        QpApp::Echo { reply_len: 512 },
    );
    c.connect_qp(
        rack0[1],
        pod1[0],
        5201,
        QpApp::Pinger {
            payload: 512,
            interval: SimTime::from_micros(50),
            start_at: SimTime::from_micros(5),
        },
        QpApp::Echo { reply_len: 512 },
    );
    c.run_for_millis(3);
    let tor_rtts = std::mem::take(&mut c.rdma_mut(rack0[0]).stats.rtt_samples_ps);
    let dc_rtts = std::mem::take(&mut c.rdma_mut(rack0[1]).stats.rtt_samples_ps);
    let mut tor = Percentiles::from_samples(&tor_rtts);
    let mut dc = Percentiles::from_samples(&dc_rtts);
    let (t50, d50) = (tor.p50().unwrap(), dc.p50().unwrap());
    assert!(t50 < d50, "same-rack {t50} !< cross-pod {d50}");
    // Cross-pod crosses 4 extra hops incl. two 300 m spine cables
    // (≈ 6 µs of extra propagation + serialization + pipeline).
    assert!(d50 - t50 > 5_000_000, "delta {} ps", d50 - t50);
    assert!(d50 < 40_000_000, "cross-pod p50 {} ps", d50);
}

/// Topology invariants hold for the exact paper-scale fabric.
#[test]
fn paper_scale_topology_materializes() {
    let spec = ClosSpec::uniform_40g(2, 24, 4, 64, 24);
    let topo = Topology::clos(&spec);
    assert_eq!(topo.of_tier(Tier::Server).len(), 1152);
    // 1152 server links + 2×24×4 ToR-leaf + 2×64 leaf-spine.
    assert_eq!(topo.links.len(), 1152 + 192 + 128);
}

/// The full Pingmesh service: install on every RDMA server, run, and get
/// a per-scope health report (§5.3's operational loop end to end).
#[test]
fn pingmesh_service_end_to_end() {
    let mut c = ClusterBuilder::new(ClosSpec::uniform_40g(2, 2, 2, 2, 3))
        .seed(91)
        .build();
    let pairs = c.install_pingmesh(2, SimTime::from_micros(150));
    assert!(pairs.len() >= c.server_count(), "coverage: {}", pairs.len());
    c.run_for_millis(4);
    let mut report = c.pingmesh_report(&pairs);
    assert!(report.total() > 200, "probes: {}", report.total());
    // At least one scope is populated and healthy at a loose 500 µs bar.
    let healthy_any = [
        rocescale::monitor::pingmesh::Scope::IntraTor,
        rocescale::monitor::pingmesh::Scope::IntraPodset,
        rocescale::monitor::pingmesh::Scope::IntraDc,
    ]
    .into_iter()
    .any(|s| report.healthy(s, SimTime::from_micros(500).as_ps()));
    assert!(
        healthy_any,
        "an idle fabric must be healthy\n{}",
        report.render()
    );
}

/// The §6.2 switch_tweak hook: a "new switch type" can be misconfigured
/// per-name, and only its racks feel it.
#[test]
fn per_switch_type_misconfiguration() {
    let mut c = ClusterBuilder::two_tier(2, 4)
        .transport(TransportProfile::paper_default().cc(CcKind::Off))
        .switch_tweak(|name, cfg| {
            if name == "pod0-tor1" {
                cfg.buffer.alpha = Some(1.0 / 256.0); // absurdly jumpy
            }
        })
        .seed(15)
        .build();
    // Identical 3:1 incasts into one server of each rack.
    for (tor, base) in [(0u32, 0usize), (1, 0)] {
        let rack = c.servers_under(0, tor);
        for i in 1..4usize {
            c.connect_qp(
                rack[i],
                rack[base],
                (18_000 + tor as usize * 16 + i) as u16,
                QpApp::Saturate {
                    msg_len: 512 * 1024,
                    inflight: 2,
                },
                QpApp::None,
            );
        }
    }
    c.run_for_millis(6);
    let tors = c.switches_of_tier(Tier::Tor);
    let p0: u64 = c.switch(tors[0]).stats.total_pause_tx();
    let p1: u64 = c.switch(tors[1]).stats.total_pause_tx();
    assert!(
        p1 > 2 * p0.max(1),
        "the misconfigured ToR must pause far more: {p0} vs {p1}"
    );
    assert_eq!(c.lossless_drops(), 0);
}
