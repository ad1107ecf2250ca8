//! Determinism pins for sharded execution (`ExecutionProfile::Sharded`).
//!
//! Seven guarantees anchor the conservative exchange (see
//! `rocescale_core::sharded` and DESIGN.md §Sharded execution):
//!
//! 1. One effective shard dispatches the byte-identical event stream of
//!    the plain `Cluster` — including the committed golden digest.
//! 2. With N ≥ 2 shards, serial and threaded epoch execution agree
//!    byte-for-byte: digest, event count, exchange bookkeeping, and the
//!    merged telemetry snapshot.
//! 3. Scripted faults keep both — including a link flap on a
//!    *cross-shard* fabric link, where each end is flipped by its own
//!    switch's admin action in its own world.
//! 4. N shards simulate the network one shard does, on the paper-default
//!    fabric with ECN marking on: every random draw is keyed on what it
//!    decides, not on the shard's world, so every shard count delivers
//!    the one-shard run's goodput and merged counters over its events —
//!    plus, per cross-shard link-down, the far end's own admin timer —
//!    and the windows the exchange executed and skipped add up to every
//!    lookahead-grid window of the run, even when a scripted fault lands
//!    in a span the fleet is otherwise quiet for. This is an equality
//!    over the sweep's RDMA cells, not a theorem: events that land on one
//!    instant from different shards are dispatched in an order that
//!    depends on the shard count (a TCP ring over the same 88 cells
//!    differs by one event in 6); see DESIGN.md §Sharded execution.
//! 5. Observation runs bank-per-shard: a trace sink attached to a
//!    multi-shard build receives every shard's records merged in
//!    `(time, shard, emission)` order, byte-identical threaded vs
//!    serial.
//! 6. The worker count is a property of the machine, never of the
//!    result: a sharded run on the machine's workers, each owning a
//!    range of shards when there are more shards than cores, is
//!    byte-identical to the one-worker run.
//! 7. Where the `run_until` deadlines fall never changes a result
//!    either, sharded or on one world: one call, chunks on the 1.5 µs
//!    exchange grid, chunks off it and the telemetry hub's own 100 µs
//!    chunking dispatch the same event stream.
//!
//! The sweeps below run every (topology, seed, shard-count) cell twice,
//! threaded and serial, and every (topology, seed, workload, fault) cell
//! at every shard count against one shard; a scheduling race, an
//! unordered exchange merge, a nondeterministic telemetry fold or a
//! message applied at the wrong instant all fail loudly here.

use rocescale_core::{
    Cluster, ClusterBuilder, ExecutionProfile, FabricProfile, FaultProfile, InstrumentationProfile,
    ScriptAction, ServerId, ShardedCluster,
};
use rocescale_monitor::{MemorySink, MetricsHub, TelemetryConfig};
use rocescale_nic::QpApp;
use rocescale_sim::{SimTime, WorldSet};
use rocescale_topology::ClosSpec;

/// Must match `tests/golden_trace.rs` — the committed golden pin, whose
/// delta from the previous pins is accounted for there (last: keyed ECN
/// draws, 15309240181080181627 over 13397 events → this).
const GOLDEN_DIGEST: u64 = 15201413384809415068;
const GOLDEN_EVENTS: u64 = 13256;

fn saturate() -> QpApp {
    QpApp::Saturate {
        msg_len: 64 * 1024,
        inflight: 2,
    }
}

/// A bounded transfer per pod: the flows drain and the fabric goes
/// quiet except for periodic host timers — the span the exchange skips.
fn burst() -> QpApp {
    QpApp::Burst {
        msg_len: 64 * 1024,
        count: 4,
        inflight: 2,
    }
}

/// Take the cross-shard `pod1-leaf0` ↔ `spine0` link down at `down` and
/// back up at `up`.
fn flap(down: SimTime, up: SimTime) -> FaultProfile {
    let link = |up| ScriptAction::FabricLink {
        a: "pod1-leaf0".to_string(),
        b: "spine0".to_string(),
        up,
    };
    FaultProfile::paper_default()
        .at(down, link(false))
        .at(up, link(true))
}

/// Everything a run produces that must be byte-identical across
/// threading modes (and, for one effective shard, across builders).
type Fingerprint = (u64, u64, u64, u64, Vec<(String, u64)>);

/// `spec` at `seed`, observed by `hub`, with `faults` scripted.
fn builder(spec: ClosSpec, seed: u64, hub: MetricsHub, faults: FaultProfile) -> ClusterBuilder {
    ClusterBuilder::new(spec)
        .seed(seed)
        .instrumentation(InstrumentationProfile::paper_default().telemetry(hub))
        .faults(faults)
}

/// Build at `shards` with one cross-pod `app` flow per pod — a ring, so
/// every flow crosses a shard boundary when sharded.
fn ring_cluster(b: ClusterBuilder, shards: u32, app: fn() -> QpApp) -> ShardedCluster {
    let mut c = b
        .execution(ExecutionProfile::Sharded { shards })
        .build_sharded();
    connect_ring(&mut c, app);
    c
}

/// One cross-pod `app` flow per pod, pod p to pod p + 1.
fn connect_ring<W: WorldSet>(c: &mut Cluster<W>, app: fn() -> QpApp) {
    let pods = c.spec().pods;
    for p in 0..pods {
        let src = c.servers_under(p, 0)[0];
        let dst = c.servers_under((p + 1) % pods, 0)[1];
        c.connect_qp(src, dst, 6000 + p as u16, app(), QpApp::None);
    }
}

/// What [`Fingerprint`] holds, read off a finished run.
fn fingerprint(c: &ShardedCluster) -> Fingerprint {
    (
        c.dispatch_digest(),
        c.events_processed(),
        c.shard_stats().epochs_executed,
        c.shard_stats().boundary_messages,
        c.counters_snapshot(),
    )
}

/// Build `spec` at `shards` with the hub on, install one cross-pod
/// saturating flow per pod, run to `dur`, and fingerprint the result.
fn run_sharded(
    spec: ClosSpec,
    seed: u64,
    shards: u32,
    threaded: bool,
    faults: FaultProfile,
    dur: SimTime,
) -> Fingerprint {
    let b = builder(spec, seed, MetricsHub::enabled(), faults);
    let mut c = ring_cluster(b, shards, saturate);
    c.set_threaded(threaded);
    c.run_until(dur);
    fingerprint(&c)
}

#[test]
fn serial_and_threaded_sweep_byte_identical() {
    // Small multi-pod fabrics: 2 pods (one boundary) and 4 pods (spines
    // spread round-robin over shards). Shard counts above the pod count
    // collapse — also part of the property.
    let dur = SimTime::from_micros(400);
    for spec in [
        ClosSpec::uniform_40g(2, 1, 2, 2, 2),
        ClosSpec::uniform_40g(4, 2, 2, 4, 3),
    ] {
        for seed in [7u64, 21] {
            for shards in [1u32, 2, 4] {
                let t = run_sharded(spec, seed, shards, true, FaultProfile::paper_default(), dur);
                let s = run_sharded(
                    spec,
                    seed,
                    shards,
                    false,
                    FaultProfile::paper_default(),
                    dur,
                );
                assert_eq!(
                    t, s,
                    "threaded vs serial divergence: pods={} seed={seed} shards={shards}",
                    spec.pods
                );
            }
        }
    }
}

#[test]
fn single_shard_matches_the_plain_cluster_on_a_multi_pod_fabric() {
    // Event-stream equality (digest + count). Telemetry stays at the
    // paper default here: the two builders register fleet gauges over
    // different index structures (one bank vs bank-per-shard), so
    // counter-snapshot equality across *builders* is not the contract —
    // byte-identity across threading modes of the same builder is (the
    // tests around this one). Device behavior is what the digest pins.
    let spec = ClosSpec::uniform_40g(4, 2, 2, 4, 3);
    let dur = SimTime::from_micros(400);

    let mut plain = ClusterBuilder::new(spec).seed(21).build();
    for p in 0..spec.pods {
        let src = plain.servers_under(p, 0)[0];
        let dst = plain.servers_under((p + 1) % spec.pods, 0)[1];
        plain.connect_qp(src, dst, 6000 + p as u16, saturate(), QpApp::None);
    }
    plain.run_until(dur);
    let want = (
        plain.world.dispatch_digest(),
        plain.world.events_processed(),
    );

    let got = run_sharded(spec, 21, 1, true, FaultProfile::paper_default(), dur);
    assert_eq!(
        (got.0, got.1),
        want,
        "one shard must dispatch the plain cluster's event stream, byte for byte"
    );
    assert_eq!((got.2, got.3), (0, 0), "no exchange with one shard");
}

#[test]
fn golden_trace_re_pins_under_sharded_execution() {
    // The exact recipe of tests/golden_trace.rs, built through
    // `build_sharded`. two_tier fabrics have one pod, so *any* shard
    // request collapses to one effective shard — the golden digest is
    // pinned under both `shards: 1` and `shards: 4`.
    for shards in [1u32, 4] {
        let mut cl = ClusterBuilder::two_tier(2, 4)
            .seed(7)
            .execution(ExecutionProfile::Sharded { shards })
            .build_sharded();
        assert_eq!(cl.shard_count(), 1);
        for i in 1..4usize {
            cl.connect_qp(
                ServerId(i),
                ServerId(0),
                6000 + i as u16,
                QpApp::Saturate {
                    msg_len: 128 * 1024,
                    inflight: 2,
                },
                QpApp::None,
            );
        }
        cl.run_until(SimTime::from_micros(500));
        assert_eq!(
            (cl.dispatch_digest(), cl.events_processed()),
            (GOLDEN_DIGEST, GOLDEN_EVENTS),
            "golden trace deviates under ExecutionProfile::Sharded {{ shards: {shards} }}"
        );
    }
}

#[test]
fn cross_boundary_link_flap_is_deterministic() {
    // pod1-leaf0 lives on shard 1, spine0 on shard 0: the scripted flap
    // downs a link whose ends are in different worlds, so each end's
    // admin action fires in its own shard.
    let spec = ClosSpec::uniform_40g(2, 1, 2, 2, 2);
    let dur = SimTime::from_micros(500);
    let flap = || flap(SimTime::from_micros(100), SimTime::from_micros(250));
    let threaded = run_sharded(spec, 7, 2, true, flap(), dur);
    let serial = run_sharded(spec, 7, 2, false, flap(), dur);
    assert_eq!(threaded, serial, "flapped run must stay byte-identical");

    let unflapped = run_sharded(spec, 7, 2, true, FaultProfile::paper_default(), dur);
    assert_ne!(
        threaded.0, unflapped.0,
        "the scripted flap must actually change the event stream"
    );
}

/// A hub sampling every 150 µs, a multiple of the 1.5 µs lookahead: its
/// chunking of `run_until` never cuts a grid window, so the windows of a
/// run are exactly its lookahead-grid windows.
fn grid_aligned_hub() -> MetricsHub {
    MetricsHub::with_config(TelemetryConfig {
        sample_every_ps: SimTime::from_micros(150).as_ps(),
    })
}

/// Whether switches `a` and `b` live in different shards of `c`.
fn apart(c: &ShardedCluster, a: &str, b: &str) -> bool {
    let shard = |name: &str| {
        let node = c.topology().nodes.iter().position(|n| &*n.name == name);
        c.partition()
            .shard_of(node.expect("a switch of the fabric"))
    };
    shard(a) != shard(b)
}

#[test]
fn n_shards_match_one_shard_across_the_sweep() {
    // Guarantee 4 as a table over (pods × seed × workload × fault), at
    // every shard count up to the pod count, against `Sharded { shards:
    // 1 }`: the same goodput, the same merged counters, and the same
    // events but for the far end's own down timer when the flapped link
    // crosses shards. A message the exchange applied at a grid line
    // instead of its instant would show up here as events or counters
    // that differ. Executed + skipped windows are the 300 lookahead
    // windows of 1.5 µs in (0, 450 µs]; the bursts drain early, so the
    // sweep has quiet tails to skip.
    let dur = SimTime::from_micros(450);
    let flapped_at = || flap(SimTime::from_micros(320), SimTime::from_micros(360));
    let (mut skipped_anywhere, mut marked_anywhere) = (0u64, 0u64);
    for spec in [
        ClosSpec::uniform_40g(2, 1, 2, 2, 2),
        ClosSpec::uniform_40g(4, 2, 2, 4, 3),
        ClosSpec::uniform_40g(8, 2, 2, 4, 3),
    ] {
        for seed in [7u64, 21] {
            for (workload, app) in [("burst", burst as fn() -> QpApp), ("saturate", saturate)] {
                for flapped in [false, true] {
                    let run = |shards: u32| {
                        let faults = if flapped {
                            flapped_at()
                        } else {
                            FaultProfile::paper_default()
                        };
                        let b = builder(spec, seed, grid_aligned_hub(), faults);
                        let mut c = ring_cluster(b, shards, app);
                        // One worker: threaded ≡ serial is pinned above,
                        // and the cells stay cheap on a busy machine.
                        c.set_threaded(false);
                        c.run_until(dur);
                        let outcome = (
                            c.total_rdma_goodput(),
                            c.counters_snapshot(),
                            c.events_processed(),
                        );
                        (outcome, c)
                    };
                    let (one, _) = run(1);
                    assert!(one.0 > 0);
                    let marks = one.1.iter().filter(|(k, _)| k.ends_with(".ecn_marked"));
                    marked_anywhere += marks.map(|(_, v)| v).sum::<u64>();
                    for shards in 2..=spec.pods {
                        let cell = format!(
                            "pods={} seed={seed} {workload} flapped={flapped} shards={shards}",
                            spec.pods
                        );
                        let (got, c) = run(shards);
                        let far_timers = (flapped && apart(&c, "pod1-leaf0", "spine0")) as u64;
                        assert_eq!(got.0, one.0, "goodput: {cell}");
                        assert_eq!(got.1, one.1, "merged counters: {cell}");
                        assert_eq!(got.2, one.2 + far_timers, "events: {cell}");
                        let l = c.lookahead().expect("boundary links").as_ps();
                        let st = c.shard_stats();
                        assert_eq!(
                            st.epochs_executed + st.epochs_skipped,
                            dur.as_ps() / l,
                            "window accounting: {cell}"
                        );
                        skipped_anywhere += st.epochs_skipped;
                    }
                }
            }
        }
    }
    assert!(
        skipped_anywhere > 0,
        "the burst workload must leave windows to skip somewhere in the sweep"
    );
    assert!(
        marked_anywhere > 0,
        "the sweep must mark somewhere, or it does not exercise the draw"
    );
}

#[test]
fn script_action_inside_a_quiet_span_forces_its_window_to_execute() {
    // The bursts drain well before 300 µs; the flap lands at 320/360 µs,
    // inside a span the exchange would otherwise jump over, and each
    // action is an admin timer in both shards (pod1-leaf0 and spine0
    // live apart). The skip decision must see them: exactly the two
    // windows holding the actions execute beyond the unflapped run's,
    // four more events dispatch, and the run still matches one shard.
    let spec = ClosSpec::uniform_40g(2, 1, 2, 2, 2);
    let run = |shards: u32, faults: FaultProfile| {
        let b = builder(spec, 7, MetricsHub::enabled(), faults);
        let mut c = ring_cluster(b, shards, burst);
        c.run_until(SimTime::from_micros(500));
        (
            c.events_processed(),
            c.total_rdma_goodput(),
            c.counters_snapshot(),
            c.shard_stats(),
        )
    };
    let flapped = || flap(SimTime::from_micros(320), SimTime::from_micros(360));
    let quiet = run(2, FaultProfile::paper_default());
    let two = run(2, flapped());
    assert_eq!(two.3.epochs_executed, quiet.3.epochs_executed + 2);
    assert_eq!(two.0, quiet.0 + 4);
    assert!(two.3.epochs_skipped > 0, "the quiet span must still skip");
    let one = run(1, flapped());
    assert_eq!(
        (two.0, two.1, two.2),
        (one.0 + 1, one.1, one.2),
        "two shards and one differ only in the far end's down timer"
    );
}

#[test]
fn sharded_trace_export_is_byte_identical_threaded_vs_serial() {
    // Guarantee 5: a trace-sink-enabled build under
    // `Sharded { shards: 4 }` merges every shard's bank into the
    // caller's sink in (time, shard, emission) order — a pure function
    // of the records, so the exported stream cannot depend on epoch
    // threading.
    let spec = ClosSpec::uniform_40g(4, 2, 2, 4, 3);
    let run = |threaded: bool| {
        let sink = MemorySink::new();
        let mut c = ClusterBuilder::new(spec)
            .seed(21)
            .instrumentation(
                InstrumentationProfile::paper_default()
                    .telemetry(MetricsHub::enabled())
                    .trace_sink(sink.clone()),
            )
            .execution(ExecutionProfile::Sharded { shards: 4 })
            .build_sharded();
        assert_eq!(c.shard_count(), 4);
        c.set_threaded(threaded);
        for p in 0..spec.pods {
            let src = c.servers_under(p, 0)[0];
            let dst = c.servers_under((p + 1) % spec.pods, 0)[1];
            c.connect_qp(src, dst, 6000 + p as u16, burst(), QpApp::None);
        }
        c.run_until(SimTime::from_micros(400));
        (sink.records(), c.dispatch_digest())
    };
    let (threaded, digest_t) = run(true);
    let (serial, digest_s) = run(false);
    assert_eq!(digest_t, digest_s);
    assert_eq!(
        threaded, serial,
        "merged trace export must be byte-identical"
    );
    assert!(
        !threaded.is_empty(),
        "the sink must actually receive records"
    );
    // Every record is shard-tagged, all four shards contribute, and the
    // merge is globally time-ordered.
    let mut shards_seen = std::collections::BTreeSet::new();
    for r in &threaded {
        shards_seen.insert(r.shard.expect("sharded records carry their shard"));
    }
    assert_eq!(
        shards_seen.into_iter().collect::<Vec<_>>(),
        vec![0, 1, 2, 3]
    );
    assert!(
        threaded.windows(2).all(|w| w[0].t_ps <= w[1].t_ps),
        "merged records must be time-sorted"
    );
}

/// Once every burst has drained, the only events left in a fabric are
/// the periodic timers something still has a use for, and only those
/// force an exchange window to execute. With congestion control and the
/// switch watchdog off nothing keeps a timer: the quiet tail executes
/// **zero** epochs — every window is skipped — where each 100 µs
/// retransmission-scan line of every idle host used to force one. The
/// switch watchdog's 1 ms poll is a switch timer and still forces its
/// window. With DCQCN the hosts that own a QP keep its 55 µs
/// alpha/increase timers, so exactly the windows holding a tick line
/// execute, and no scan line does.
#[test]
fn a_drained_fabric_executes_no_further_epochs() {
    use rocescale_core::{CcKind, TransportProfile};
    // Both instants sit on the 1.5 µs exchange grid.
    let (drained, end) = (SimTime::from_micros(450), SimTime::from_micros(2400));
    let tail_windows = (end - drained).as_ps() / SimTime::from_nanos(1500).as_ps();
    let lines = |period_us| end.as_micros() / period_us - drained.as_micros() / period_us;
    for (cc, watchdog, executed_in_tail) in [
        (CcKind::Off, false, 0),
        (CcKind::Off, true, lines(1000)),
        (CcKind::Dcqcn, false, lines(55)),
    ] {
        let arm = format!("{cc:?}, watchdog {watchdog}");
        let spec = ClosSpec::uniform_40g(2, 1, 2, 2, 2);
        let mut c = ClusterBuilder::new(spec)
            .seed(7)
            .fabric(FabricProfile::paper_default().switch_watchdog(watchdog))
            .transport(TransportProfile::paper_default().cc(cc))
            .execution(ExecutionProfile::Sharded { shards: 2 })
            .build_sharded();
        for p in 0..2 {
            let src = c.servers_under(p, 0)[0];
            let dst = c.servers_under((p + 1) % 2, 0)[1];
            c.connect_qp(src, dst, 6000 + p as u16, burst(), QpApp::None);
        }
        c.run_until(drained);
        let goodput: u64 = (0..c.server_count())
            .map(|i| c.rdma(ServerId(i)).total_goodput_bytes())
            .sum();
        assert_eq!(goodput, 2 * 4 * 64 * 1024, "{arm}: bursts delivered");
        let drained_at = c.shard_stats();
        c.run_until(end);
        let st = c.shard_stats();
        assert_eq!(
            st.epochs_executed - drained_at.epochs_executed,
            executed_in_tail,
            "{arm}: epochs executed after the bursts drained"
        );
        assert_eq!(
            st.epochs_skipped - drained_at.epochs_skipped,
            tail_windows - executed_in_tail,
            "{arm}: the rest of the tail is skipped"
        );
    }
}

#[test]
fn more_shards_than_cores_match_the_one_worker_run() {
    // Guarantee 6, as far as the public API reaches: 8 shards never fit
    // the 2-core runner, so each worker owns a range of shards. Against
    // one worker everything a run produces is equal. Explicit worker
    // counts — 1..=5, 8, more workers than cores — are swept by `sim`'s
    // own `shard::tests::the_worker_count_never_changes_a_result`.
    let spec = ClosSpec::uniform_40g(8, 2, 2, 4, 3);
    let run = |threaded: bool| {
        let b = builder(
            spec,
            21,
            MetricsHub::enabled(),
            FaultProfile::paper_default(),
        );
        let mut c = ring_cluster(b, 8, burst);
        assert_eq!(c.shard_count(), 8);
        c.set_threaded(threaded);
        c.run_until(SimTime::from_micros(400));
        (fingerprint(&c), c.shard_stats())
    };
    let (one, one_stats) = run(false);
    assert!(one_stats.epochs_executed > 0 && one_stats.boundary_messages > 0);
    assert_eq!(run(true), (one, one_stats));
}

/// The 4-pod fabric `run_in_steps` drives, at seed 21.
fn steps_builder(hub: MetricsHub, faults: FaultProfile) -> ClusterBuilder {
    builder(ClosSpec::uniform_40g(4, 2, 2, 4, 3), 21, hub, faults)
}

/// The saturating ring on the 4-pod fabric driven to 400 µs in steps
/// of `step_ps` (`None`: one call), with or without the hub — whose
/// 100 µs sampling cadence chunks the run by itself, off the 1.5 µs
/// exchange grid. Returns (digest, events).
fn run_in_steps(
    shards: u32,
    threaded: bool,
    hub_on: bool,
    faults: FaultProfile,
    step_ps: Option<u64>,
) -> (u64, u64) {
    let hub = if hub_on {
        MetricsHub::enabled()
    } else {
        MetricsHub::disabled()
    };
    let mut c = ring_cluster(steps_builder(hub, faults), shards, saturate);
    c.set_threaded(threaded);
    drive_in_steps(&mut c, step_ps)
}

/// Drive `c` to 400 µs in steps of `step_ps` (`None`: one call).
fn drive_in_steps<W: WorldSet>(c: &mut Cluster<W>, step_ps: Option<u64>) -> (u64, u64) {
    let dur = SimTime::from_micros(400);
    if let Some(step) = step_ps {
        let mut t = step;
        while t < dur.as_ps() {
            c.run_until(SimTime(t));
            t += step;
        }
    }
    c.run_until(dur);
    (c.dispatch_digest(), c.events_processed())
}

#[test]
fn chunked_drives_dispatch_the_one_shot_event_stream() {
    // Guarantee 7, as a table per (shard count, threading, script): the
    // one-shot digest against 15 µs chunks (on the grid), two step sizes
    // that are not multiples of 1.5 µs, and the hub-on run. A deadline
    // inside a window splits it in two epochs; both halves must still
    // inject the window's arrivals before its first local event and
    // number same-instant messages from different shards as the whole
    // window would — with a flap of the cross-shard link, off the grid,
    // in the script.
    let flapped = || flap(SimTime::from_nanos(100_700), SimTime::from_nanos(250_300));
    // The one-world cluster (`build()`) first: scenarios that stop at
    // window marks mid-run rely on it.
    for flapped_run in [false, true] {
        let one_world = |step_ps| {
            let faults = if flapped_run {
                flapped()
            } else {
                FaultProfile::paper_default()
            };
            let mut c = steps_builder(MetricsHub::disabled(), faults).build();
            connect_ring(&mut c, saturate);
            drive_in_steps(&mut c, step_ps)
        };
        let one_shot = one_world(None);
        assert!(one_shot.1 > 50_000, "one world: {one_shot:?}");
        for step_ps in [15_000_000u64, 1_000_007, 33_333_344] {
            assert_eq!(
                one_world(Some(step_ps)),
                one_shot,
                "one world flapped={flapped_run}: steps of {step_ps} ps"
            );
        }
    }
    for shards in [2u32, 4] {
        for threaded in [true, false] {
            for flapped_run in [false, true] {
                let faults = || {
                    if flapped_run {
                        flapped()
                    } else {
                        FaultProfile::paper_default()
                    }
                };
                let cell = format!("shards={shards} threaded={threaded} flapped={flapped_run}");
                let one_shot = run_in_steps(shards, threaded, false, faults(), None);
                assert!(one_shot.1 > 50_000, "{cell}: {one_shot:?}");
                for step_ps in [15_000_000u64, 1_000_007, 33_333_344] {
                    assert_eq!(
                        run_in_steps(shards, threaded, false, faults(), Some(step_ps)),
                        one_shot,
                        "{cell}: steps of {step_ps} ps"
                    );
                }
                assert_eq!(
                    run_in_steps(shards, threaded, true, faults(), None),
                    one_shot,
                    "{cell}: hub on"
                );
            }
        }
    }
}
