//! End-to-end tests: RDMA hosts talking through a real switch — transport
//! completion, the §4.1 livelock at packet level, the §4.4 slow receiver,
//! the §4.3 NIC storm with its watchdog, and DCQCN under incast.

use rocescale_nic::host::TOK_INJECT_STORM;
use rocescale_nic::{MttConfig, NicConfig, QpApp, RdmaHost};
use rocescale_packet::MacAddr;
use rocescale_sim::{LinkSpec, NodeId, PortId, SimTime, World};
use rocescale_switch::{DropReason, PortRole, Switch, SwitchConfig};
use rocescale_transport::{LossRecovery, QpConfig, Verb};

const SUBNET: u32 = 0x0a000000;

fn host_ip(i: u32) -> u32 {
    SUBNET + 1 + i
}

/// N hosts on one ToR. Returns (world, switch id, host ids).
fn star(
    n: u32,
    mut sw_cfg: SwitchConfig,
    mut tweak: impl FnMut(u32, &mut NicConfig),
) -> (World, NodeId, Vec<NodeId>) {
    let sw_mac = MacAddr::from_id(1000);
    sw_cfg.ports = n as u16;
    sw_cfg.port_roles = vec![PortRole::Server; n as usize];
    let mut sw = Switch::new(sw_cfg, sw_mac, 99);
    sw.routes_mut().add_connected(SUBNET, 24);
    let mut world = World::new(7);
    let mut cfgs = Vec::new();
    for i in 0..n {
        let mut cfg = NicConfig::new(format!("h{i}"), i + 1, host_ip(i), sw_mac);
        tweak(i, &mut cfg);
        sw.seed_arp(host_ip(i), cfg.mac, SimTime::ZERO);
        sw.seed_mac(cfg.mac, PortId(i as u16), SimTime::ZERO);
        cfgs.push(cfg);
    }
    let sw_id = world.add_node(Box::new(sw));
    let hosts: Vec<NodeId> = cfgs
        .into_iter()
        .map(|c| world.add_node(Box::new(RdmaHost::new(c))))
        .collect();
    for (i, h) in hosts.iter().enumerate() {
        world.connect(
            *h,
            PortId(0),
            sw_id,
            PortId(i as u16),
            LinkSpec::server_40g(),
        );
    }
    (world, sw_id, hosts)
}

/// Wire a QP pair between two hosts (both directions agree on QPNs).
fn connect_qp(
    world: &mut World,
    a: NodeId,
    b: NodeId,
    udp_src: u16,
    app_a: QpApp,
    app_b: QpApp,
) -> (rocescale_nic::QpHandle, rocescale_nic::QpHandle) {
    let a_ip = world.node::<RdmaHost>(a).config().ip;
    let b_ip = world.node::<RdmaHost>(b).config().ip;
    let a_qpn = world.node::<RdmaHost>(a).qp_count() as u32;
    let b_qpn = world.node::<RdmaHost>(b).qp_count() as u32;
    let ha = world
        .node_mut::<RdmaHost>(a)
        .add_qp(b_ip, b_qpn, udp_src, app_a);
    let hb = world
        .node_mut::<RdmaHost>(b)
        .add_qp(a_ip, a_qpn, udp_src, app_b);
    (ha, hb)
}

#[test]
fn send_end_to_end_completes() {
    let (mut world, sw, hosts) = star(2, SwitchConfig::new("tor", 2), |_, _| {});
    let (qa, qb) = connect_qp(
        &mut world,
        hosts[0],
        hosts[1],
        5000,
        QpApp::None,
        QpApp::None,
    );
    world.node_mut::<RdmaHost>(hosts[0]).post(
        qa,
        Verb::Send { len: 1 << 20 },
        SimTime::ZERO,
        false,
    );
    world.run_until(SimTime::from_millis(2));
    let b = world.node::<RdmaHost>(hosts[1]);
    assert_eq!(b.qp_endpoint(qb).goodput_bytes(), 1 << 20);
    let a = world.node::<RdmaHost>(hosts[0]);
    assert_eq!(a.stats.send_completions, 1);
    assert_eq!(world.node::<Switch>(sw).stats.total_drops(), 0);
    // 1 MB at 40G with headers ≈ 220 µs: it must have finished well under
    // 2 ms of simulated time, i.e. at roughly line rate.
    assert!(a.stats.data_pkts_tx >= 1024);
}

#[test]
fn burst_sends_exactly_its_budget_then_goes_quiet() {
    let (mut world, sw, hosts) = star(2, SwitchConfig::new("tor", 2), |_, _| {});
    let (_qa, qb) = connect_qp(
        &mut world,
        hosts[0],
        hosts[1],
        5000,
        QpApp::Burst {
            msg_len: 64 * 1024,
            count: 5,
            inflight: 2,
        },
        QpApp::None,
    );
    world.run_until(SimTime::from_millis(1));
    let done_at = world.node::<RdmaHost>(hosts[0]).stats.data_pkts_tx;
    let b = world.node::<RdmaHost>(hosts[1]);
    assert_eq!(b.qp_endpoint(qb).goodput_bytes(), 5 * 64 * 1024);
    assert_eq!(world.node::<RdmaHost>(hosts[0]).stats.send_completions, 5);
    assert_eq!(world.node::<Switch>(sw).stats.total_drops(), 0);
    // The budget is spent: another millisecond moves no more data.
    world.run_until(SimTime::from_millis(2));
    assert_eq!(world.node::<RdmaHost>(hosts[0]).stats.data_pkts_tx, done_at);
}

#[test]
fn write_and_read_verbs_work_through_fabric() {
    let (mut world, _sw, hosts) = star(2, SwitchConfig::new("tor", 2), |_, _| {});
    let (qa, qb) = connect_qp(
        &mut world,
        hosts[0],
        hosts[1],
        5000,
        QpApp::None,
        QpApp::None,
    );
    world.node_mut::<RdmaHost>(hosts[0]).post(
        qa,
        Verb::Write { len: 256 * 1024 },
        SimTime::ZERO,
        false,
    );
    world.node_mut::<RdmaHost>(hosts[0]).post(
        qa,
        Verb::Read { len: 128 * 1024 },
        SimTime::ZERO,
        false,
    );
    world.run_until(SimTime::from_millis(2));
    let b = world.node::<RdmaHost>(hosts[1]);
    assert_eq!(b.qp_endpoint(qb).goodput_bytes(), 256 * 1024);
    let a = world.node::<RdmaHost>(hosts[0]);
    // WRITE completion + READ completion.
    assert_eq!(a.stats.send_completions, 2);
    // READ response bytes landed back at A.
    assert_eq!(a.qp_endpoint(qa).goodput_bytes(), 128 * 1024);
}

/// §4.1 at full packet level: two servers, one switch, deterministic
/// 1/256 drop. Go-back-0 → zero goodput at full link utilization;
/// go-back-N → graceful degradation.
#[test]
fn livelock_through_real_switch() {
    let run = |recovery: LossRecovery| {
        let mut sw_cfg = SwitchConfig::new("tor", 2);
        sw_cfg.drop_ip_id_low_byte = Some(0xff);
        let (mut world, sw, hosts) = star(2, sw_cfg, |_, cfg| {
            cfg.qp_defaults = QpConfig {
                recovery,
                rto_ps: 100_000_000, // 100 µs: tight for a 1-hop testbed
                ..QpConfig::default()
            };
            cfg.cc = rocescale_cc::CcKind::Off; // isolate loss recovery from rate control
        });
        let (qa, qb) = connect_qp(
            &mut world,
            hosts[0],
            hosts[1],
            5000,
            QpApp::Saturate {
                msg_len: 4 << 20,
                inflight: 1,
            },
            QpApp::None,
        );
        let _ = qa;
        world.run_until(SimTime::from_millis(20));
        let goodput = world
            .node::<RdmaHost>(hosts[1])
            .qp_endpoint(qb)
            .goodput_bytes();
        let sent = world.node::<RdmaHost>(hosts[0]).stats.data_pkts_tx;
        let dropped = world
            .node::<Switch>(sw)
            .stats
            .drops_of(DropReason::InjectedFilter);
        (goodput, sent, dropped)
    };

    let (g0, sent0, drop0) = run(LossRecovery::GoBack0);
    assert_eq!(g0, 0, "go-back-0 must livelock (goodput 0)");
    // The link stayed busy: 20 ms at 40G ≈ 92k packets of 1086 B.
    assert!(
        sent0 > 60_000,
        "link must stay near line rate, sent {sent0}"
    );
    assert!(drop0 > 200, "filter must be active, dropped {drop0}");

    let (gn, sent_n, _) = run(LossRecovery::GoBackN);
    // 20 ms at 40G ≈ 100 MB minus go-back-N waste; must complete many
    // 4 MB messages.
    assert!(gn >= 8 * (4 << 20), "go-back-N goodput too low: {gn}");
    assert!(sent_n > 60_000);
}

/// §4.4: a receiver with 4 KB pages and a tiny MTT thrashes, stalls its
/// pipeline, and emits pause frames; 2 MB pages fix it.
#[test]
fn slow_receiver_symptom_and_large_page_fix() {
    let run = |mtt: MttConfig| {
        let (mut world, _sw, hosts) = star(2, SwitchConfig::new("tor", 2), |i, cfg| {
            if i == 1 {
                cfg.rx.mtt = Some(mtt);
            }
            cfg.cc = rocescale_cc::CcKind::Off;
        });
        let (_qa, _qb) = connect_qp(
            &mut world,
            hosts[0],
            hosts[1],
            5000,
            QpApp::Saturate {
                msg_len: 1 << 20,
                inflight: 4,
            },
            QpApp::None,
        );
        world.run_until(SimTime::from_millis(10));
        world.node::<RdmaHost>(hosts[1]).stats.pause_tx
    };
    // Shrink the cache so the thrash shows quickly at test scale.
    let small = MttConfig {
        entries: 64,
        ..MttConfig::small_pages()
    };
    let large = MttConfig {
        entries: 64,
        ..MttConfig::large_pages()
    };
    let pauses_small = run(small);
    let pauses_large = run(large);
    assert!(
        pauses_small > 0,
        "small pages must produce the slow-receiver symptom"
    );
    assert!(
        pauses_large * 5 < pauses_small,
        "large pages must (mostly) cure it: {pauses_large} vs {pauses_small}"
    );
}

/// §4.3: a stormed NIC pauses its port forever; the NIC watchdog cuts the
/// pause generation (and never re-enables).
#[test]
fn nic_storm_watchdog_stops_pause_generation() {
    let run = |watchdog: Option<SimTime>| {
        let (mut world, _sw, hosts) = star(2, SwitchConfig::new("tor", 2), |i, cfg| {
            if i == 1 {
                cfg.nic_watchdog_after = watchdog;
            }
        });
        let (_qa, _qb) = connect_qp(
            &mut world,
            hosts[0],
            hosts[1],
            5000,
            QpApp::Saturate {
                msg_len: 64 * 1024,
                inflight: 2,
            },
            QpApp::None,
        );
        world.schedule_timer(SimTime::from_millis(1), hosts[1], TOK_INJECT_STORM);
        world.run_until(SimTime::from_millis(40));
        let h = world.node::<RdmaHost>(hosts[1]);
        (
            h.stats.pause_tx,
            h.pause_generation_disabled(),
            h.stats.nic_watchdog_fired,
        )
    };
    // Without the watchdog the storm pauses continuously: ~390 pauses in
    // 39 ms of storm (one per 100 µs refresh).
    let (pauses_no_wd, disabled_no, _) = run(None);
    assert!(
        pauses_no_wd > 300,
        "storm must pause continuously: {pauses_no_wd}"
    );
    assert!(!disabled_no);
    // With a 5 ms watchdog, generation stops early and stays stopped.
    let (pauses_wd, disabled, fired) = run(Some(SimTime::from_millis(5)));
    assert!(disabled && fired == 1);
    assert!(
        pauses_wd < pauses_no_wd / 4,
        "watchdog must contain the storm: {pauses_wd} vs {pauses_no_wd}"
    );
}

/// DCQCN under 4:1 incast: ECN marks produce CNPs, senders cut their
/// rates, and PFC pause generation drops sharply versus DCQCN off.
#[test]
fn dcqcn_reduces_pfc_under_incast() {
    let run = |dcqcn: bool| {
        let (mut world, sw, hosts) = star(5, SwitchConfig::new("tor", 5), |_, cfg| {
            if !dcqcn {
                cfg.cc = rocescale_cc::CcKind::Off;
            }
        });
        // Hosts 1..5 all blast host 0.
        for (i, src) in hosts.iter().enumerate().skip(1) {
            connect_qp(
                &mut world,
                *src,
                hosts[0],
                5000 + i as u16,
                QpApp::Saturate {
                    msg_len: 1 << 20,
                    inflight: 2,
                },
                QpApp::None,
            );
        }
        world.run_until(SimTime::from_millis(15));
        let pauses: u64 = world.node::<Switch>(sw).stats.total_pause_tx();
        let marked = world.node::<Switch>(sw).stats.ecn_marked;
        let drops = world.node::<Switch>(sw).stats.total_drops();
        let goodput = world.node::<RdmaHost>(hosts[0]).total_goodput_bytes();
        let cnps: u64 = hosts[1..]
            .iter()
            .map(|h| world.node::<RdmaHost>(*h).stats.cnp_rx)
            .sum();
        (pauses, marked, cnps, drops, goodput)
    };
    let (p_off, _, _, drops_off, good_off) = run(false);
    let (p_on, marked, cnps, drops_on, good_on) = run(true);
    assert_eq!(drops_off + drops_on, 0, "lossless classes never drop");
    assert!(marked > 0, "congestion point must mark");
    assert!(cnps > 0, "notification point must fire");
    assert!(
        p_on < p_off / 2,
        "DCQCN must reduce pause generation: {p_on} vs {p_off}"
    );
    // Rate control trades a little throughput for far fewer pauses.
    assert!(good_on > good_off / 2);
}

/// Pinger/Echo measure RTTs; an unloaded 2 m hop is microseconds.
#[test]
fn pingmesh_style_rtt_measurement() {
    let (mut world, _sw, hosts) = star(2, SwitchConfig::new("tor", 2), |_, _| {});
    connect_qp(
        &mut world,
        hosts[0],
        hosts[1],
        5000,
        QpApp::Pinger {
            payload: 512,
            interval: SimTime::from_micros(100),
            start_at: SimTime::from_micros(10),
        },
        QpApp::Echo { reply_len: 512 },
    );
    world.run_until(SimTime::from_millis(2));
    let a = world.node::<RdmaHost>(hosts[0]);
    let n = a.stats.rtt_samples_ps.len();
    assert!(n >= 15, "expected ~20 probes, got {n}");
    for rtt in &a.stats.rtt_samples_ps {
        let us = *rtt as f64 / 1e6;
        assert!(us > 0.5 && us < 50.0, "implausible RTT {us} µs");
    }
}

/// Determinism: identical seeds and configs give identical outcomes.
#[test]
fn end_to_end_determinism() {
    let run = || {
        let (mut world, sw, hosts) = star(3, SwitchConfig::new("tor", 3), |_, _| {});
        for src in &hosts[1..] {
            connect_qp(
                &mut world,
                *src,
                hosts[0],
                7000,
                QpApp::Saturate {
                    msg_len: 256 * 1024,
                    inflight: 1,
                },
                QpApp::None,
            );
        }
        world.run_until(SimTime::from_millis(5));
        (
            world.node::<RdmaHost>(hosts[0]).total_goodput_bytes(),
            world.node::<Switch>(sw).stats.total_pause_tx(),
            world.node::<Switch>(sw).stats.ecn_marked,
            world.events_processed(),
        )
    };
    assert_eq!(run(), run());
}
