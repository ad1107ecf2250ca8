//! The hub's counters are copies of their owners' counts, never counts of
//! their own: after any `run_until`, every `switch.*`, `nic.*`,
//! `nic.*.qp.*` and `tcp.*` counter in the merged snapshot equals the
//! stats field it publishes, and `monitor.deadlock.{epochs,cycles}` the
//! deadlock probe's own counts — on one shard and on two, with the run
//! ending between two sample boundaries.

use std::collections::BTreeMap;

use rocescale_core::{
    Cluster, ClusterBuilder, ExecutionProfile, FaultProfile, InstrumentationProfile, ServerId,
    ServerKind,
};
use rocescale_monitor::MetricsHub;
use rocescale_nic::{QpApp, QpHandle};
use rocescale_sim::{SimTime, WorldSet};
use rocescale_switch::DropReason;
use rocescale_tcp::TcpApp;
use rocescale_topology::ClosSpec;

const DROP_REASONS: [DropReason; 11] = [
    DropReason::LossyOverflow,
    DropReason::LosslessOverflow,
    DropReason::NoRoute,
    DropReason::ArpMiss,
    DropReason::IncompleteArpLossless,
    DropReason::FloodCopyAtFabricHead,
    DropReason::TtlExpired,
    DropReason::InjectedFilter,
    DropReason::UntaggedOnTrunk,
    DropReason::WatchdogLosslessOff,
    DropReason::AdminLosslessOff,
];

/// Two pods of two racks of four; every fourth server runs kernel TCP.
/// Every switch drops data packets whose IP ID ends in 0xff (§4.1), so
/// go-back-N rolls back; nine RDMA senders incast into server 0 across
/// the pods (pauses, ECN marks, DCQCN cuts); three TCP flows cross the
/// spines.
fn builder(shards: u32) -> ClusterBuilder {
    ClusterBuilder::new(ClosSpec::uniform_40g(2, 2, 2, 2, 4))
        .seed(5)
        .server_kind(|i| {
            if i % 4 == 3 {
                ServerKind::Tcp
            } else {
                ServerKind::Rdma
            }
        })
        .faults(FaultProfile::paper_default().drop_ip_id_low_byte(Some(0xff)))
        .instrumentation(InstrumentationProfile::paper_default().telemetry(MetricsHub::enabled()))
        .execution(ExecutionProfile::Sharded { shards })
}

fn load<W: WorldSet>(c: &mut Cluster<W>) {
    let rdma = c.servers_of_kind(ServerKind::Rdma);
    for (k, s) in rdma.iter().skip(3).enumerate() {
        c.connect_qp(
            *s,
            rdma[0],
            7000 + k as u16,
            QpApp::Saturate {
                msg_len: 256 * 1024,
                inflight: 2,
            },
            QpApp::None,
        );
    }
    let tcp = c.servers_of_kind(ServerKind::Tcp);
    for k in 0..tcp.len() - 1 {
        c.connect_tcp(
            tcp[k],
            tcp[(k + 2) % tcp.len()],
            TcpApp::Saturate { msg_len: 64 * 1024 },
            TcpApp::None,
        );
    }
}

/// Every device and deadlock-probe counter the hub should hold, by
/// name, read from the devices' stats and the probe.
fn stats_twins<W: WorldSet>(c: &Cluster<W>) -> BTreeMap<String, u64> {
    let mut m = BTreeMap::new();
    for i in 0..c.switch_count() {
        let s = &c.switch(i).stats;
        let sw = format!("switch.{}", c.switch_name(i));
        for r in DROP_REASONS {
            m.insert(format!("{sw}.drop.{}", r.name()), s.drops_of(r));
        }
        m.insert(format!("{sw}.ecn_marked"), s.ecn_marked);
        m.insert(format!("{sw}.watchdog.disables"), s.watchdog_disables);
        m.insert(format!("{sw}.watchdog.reenables"), s.watchdog_reenables);
        for p in 0..s.pause_tx.len() {
            m.insert(format!("{sw}.port.{p}.pfc.xoff_tx"), s.pause_tx[p]);
            m.insert(format!("{sw}.port.{p}.pfc.xon_tx"), s.resume_tx[p]);
            m.insert(format!("{sw}.port.{p}.pfc.xoff_rx"), s.pause_rx[p]);
        }
    }
    for id in c.servers_of_kind(ServerKind::Rdma) {
        let h = c.rdma(id);
        let (s, nic) = (&h.stats, format!("nic.{}", h.config().name));
        for (leaf, v) in [
            ("pfc.xoff_tx", s.pause_tx),
            ("pfc.xoff_rx", s.pause_rx),
            ("dcqcn.cnp_tx", s.cnp_tx),
            ("dcqcn.cnp_rx", s.cnp_rx),
            ("rx.overflow", s.rx_overflow),
            ("rx.storm_dropped", s.rx_storm_dropped),
            ("watchdog.fired", s.nic_watchdog_fired),
        ] {
            m.insert(format!("{nic}.{leaf}"), v);
        }
        let cc = h.config().cc.name();
        for q in 0..h.qp_count() as u32 {
            let qp = QpHandle(q);
            let (retx, moves) = (h.qp_endpoint(qp).stats.retx_pkts, h.qp_rate_changes(qp));
            m.insert(format!("{nic}.qp.{q}.retransmits"), retx);
            m.insert(format!("{nic}.qp.{q}.{cc}.rate_changes"), moves);
        }
    }
    for id in c.servers_of_kind(ServerKind::Tcp) {
        let h = c.tcp(id);
        let (s, tcp) = (&h.stats, format!("tcp.{}", h.config().name));
        for (leaf, v) in [
            ("segments_tx", s.segments_tx),
            ("segments_rx", s.segments_rx),
            ("fast_retransmits", s.fast_retransmits),
            ("timeouts", s.timeouts),
            ("msgs_delivered", s.msgs_delivered),
        ] {
            m.insert(format!("{tcp}.{leaf}"), v);
        }
    }
    let probe = c.deadlock_probe();
    m.insert("monitor.deadlock.epochs".into(), probe.epochs());
    m.insert("monitor.deadlock.cycles".into(), probe.cycle_epochs());
    m
}

/// The snapshot's device and probe counters equal their twins, name for
/// name.
fn assert_hub_equals_stats<W: WorldSet>(c: &Cluster<W>, at: &str) {
    let hub: BTreeMap<String, u64> = c
        .counters_snapshot()
        .into_iter()
        .filter(|(name, _)| {
            ["switch.", "nic.", "tcp.", "monitor.deadlock."]
                .iter()
                .any(|p| name.starts_with(p))
        })
        .collect();
    let twins = stats_twins(c);
    let names = |m: &BTreeMap<String, u64>| m.keys().cloned().collect::<Vec<_>>();
    assert_eq!(names(&hub), names(&twins), "{at}: counter names");
    for (name, v) in &twins {
        assert_eq!(hub[name], *v, "{at}: {name}");
    }
}

/// Sums over the twins whose names end in `suffix`.
fn total(twins: &BTreeMap<String, u64>, suffix: &str) -> u64 {
    twins
        .iter()
        .filter(|(n, _)| n.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

fn check<W: WorldSet>(mut c: Cluster<W>, shards: usize) {
    assert_eq!(c.shard_count(), shards);
    load(&mut c);
    // 100 µs sample boundaries: both deadlines fall between two.
    for t in [730, 1_570] {
        c.run_until(SimTime::from_micros(t));
        assert_hub_equals_stats(&c, &format!("{shards} shard(s), {t} µs"));
    }
    // The fabric did what the counters count.
    let twins = stats_twins(&c);
    for suffix in [
        ".drop.InjectedFilter",
        ".pfc.xoff_tx",
        ".ecn_marked",
        ".retransmits",
        ".dcqcn.rate_changes",
        ".segments_rx",
        ".deadlock.epochs",
    ] {
        assert!(total(&twins, suffix) > 0, "nothing counted {suffix}");
    }
    assert!(c.rdma(ServerId(0)).stats.data_pkts_rx > 0);
}

#[test]
fn hub_counters_equal_device_stats_on_one_and_two_shards() {
    check(builder(1).build(), 1);
    check(builder(2).build_sharded(), 2);
}
