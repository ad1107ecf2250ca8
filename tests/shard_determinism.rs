//! Determinism pins for sharded execution (`ExecutionProfile::Sharded`).
//!
//! Three guarantees anchor the conservative exchange (see
//! `rocescale_core::sharded` and DESIGN.md §Sharded execution):
//!
//! 1. One effective shard dispatches the byte-identical event stream of
//!    the plain `Cluster` — including the committed golden digest.
//! 2. With N ≥ 2 shards, serial and threaded epoch execution agree
//!    byte-for-byte: digest, event count, exchange bookkeeping, and the
//!    merged telemetry snapshot.
//! 3. Scripted faults — including a link flap on a *cross-shard* fabric
//!    link, where the admin action and its effect live in different
//!    worlds — keep both guarantees.
//! 4. Adaptive epoch pacing (skipping provably idle grid windows) is an
//!    engine knob, not a physics knob: dense and adaptive runs agree
//!    byte-for-byte, window-exact (`executed + skipped` under adaptive
//!    equals the dense window count), even when a scripted fault lands
//!    inside a span the fleet is otherwise quiet for.
//! 5. Observation runs bank-per-shard: a trace sink attached to a
//!    multi-shard build receives every shard's records merged in
//!    `(time, shard, emission)` order, byte-identical threaded vs
//!    serial.
//! 6. The worker count is a property of the machine, never of the
//!    result: a sharded run on the machine's workers, each owning a
//!    range of shards when there are more shards than cores, is
//!    byte-identical to the one-worker run.
//! 7. Where the `run_until` deadlines fall never changes a result
//!    either: one call, chunks on the 1.5 µs exchange grid, chunks off
//!    it and the telemetry hub's own 100 µs chunking dispatch the same
//!    event stream.
//!
//! The sweep below runs every (topology, seed, shard-count) cell twice,
//! threaded and serial, and demands byte-equality; a scheduling race,
//! an unordered exchange merge, or a nondeterministic telemetry fold
//! all fail loudly here.

use rocescale_core::{
    ClusterBuilder, ExecutionProfile, FaultProfile, InstrumentationProfile, ScriptAction, ServerId,
    ShardedCluster,
};
use rocescale_monitor::{MemorySink, MetricsHub};
use rocescale_nic::QpApp;
use rocescale_sim::{EpochPacing, SimTime};
use rocescale_topology::ClosSpec;

/// Must match `tests/golden_trace.rs` — the committed golden pin, whose
/// delta from the previous pin is accounted for event by event there.
const GOLDEN_DIGEST: u64 = 9215484005407342413;
const GOLDEN_EVENTS: u64 = 13397;

fn saturate() -> QpApp {
    QpApp::Saturate {
        msg_len: 64 * 1024,
        inflight: 2,
    }
}

/// Everything a run produces that must be byte-identical across
/// threading modes (and, for one effective shard, across builders).
type Fingerprint = (u64, u64, u64, u64, Vec<(String, u64)>);

/// `spec` at `shards` with one cross-pod `app` flow per pod — a ring,
/// so every flow crosses a shard boundary when sharded — and the hub on
/// or off.
fn ring_cluster(
    spec: ClosSpec,
    seed: u64,
    shards: u32,
    hub_on: bool,
    faults: FaultProfile,
    app: fn() -> QpApp,
) -> ShardedCluster {
    let mut instr = InstrumentationProfile::paper_default();
    if hub_on {
        instr = instr.telemetry(MetricsHub::enabled());
    }
    let mut c = ClusterBuilder::new(spec)
        .seed(seed)
        .instrumentation(instr)
        .execution(ExecutionProfile::Sharded { shards })
        .faults(faults)
        .build_sharded();
    let pods = spec.pods;
    for p in 0..pods {
        let src = c.servers_under(p, 0)[0];
        let dst = c.servers_under((p + 1) % pods, 0)[1];
        c.connect_qp(src, dst, 6000 + p as u16, app(), QpApp::None);
    }
    c
}

/// What [`Fingerprint`] holds, read off a finished run.
fn fingerprint(c: &ShardedCluster) -> Fingerprint {
    (
        c.dispatch_digest(),
        c.events_processed(),
        c.exchange_epochs(),
        c.boundary_messages(),
        c.counters_snapshot(),
    )
}

/// Build `spec` at `shards`, install one cross-pod saturating flow per
/// pod (a ring — every flow crosses a shard boundary when sharded),
/// run to `dur`, and fingerprint the result.
fn run_sharded(
    spec: ClosSpec,
    seed: u64,
    shards: u32,
    threaded: bool,
    faults: FaultProfile,
    dur: SimTime,
) -> Fingerprint {
    let mut c = ring_cluster(spec, seed, shards, true, faults, saturate);
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
    // byte-identity across threading and pacing modes of the same
    // builder is (the tests around this one). Device behavior is what
    // the digest pins.
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
    // downs a port whose peer is in another world, so the admin event
    // and its LinkSet boundary message cross the exchange.
    let spec = ClosSpec::uniform_40g(2, 1, 2, 2, 2);
    let dur = SimTime::from_micros(500);
    let flap = || {
        FaultProfile::paper_default()
            .at(
                SimTime::from_micros(100),
                ScriptAction::FabricLink {
                    a: "pod1-leaf0".to_string(),
                    b: "spine0".to_string(),
                    up: false,
                },
            )
            .at(
                SimTime::from_micros(250),
                ScriptAction::FabricLink {
                    a: "pod1-leaf0".to_string(),
                    b: "spine0".to_string(),
                    up: true,
                },
            )
    };
    let threaded = run_sharded(spec, 7, 2, true, flap(), dur);
    let serial = run_sharded(spec, 7, 2, false, flap(), dur);
    assert_eq!(threaded, serial, "flapped run must stay byte-identical");

    let unflapped = run_sharded(spec, 7, 2, true, FaultProfile::paper_default(), dur);
    assert_ne!(
        threaded.0, unflapped.0,
        "the scripted flap must actually change the event stream"
    );
}

/// A bounded transfer per pod (the ring again, but [`QpApp::Burst`]):
/// the flows drain and the fabric goes quiet except for periodic host
/// timers — the workload shape adaptive pacing exists for.
fn burst() -> QpApp {
    QpApp::Burst {
        msg_len: 64 * 1024,
        count: 4,
        inflight: 2,
    }
}

/// Like [`run_sharded`] but with the burst workload and explicit epoch
/// pacing; also returns (executed, skipped) epoch counts.
fn run_paced(
    spec: ClosSpec,
    seed: u64,
    shards: u32,
    pacing: EpochPacing,
    faults: FaultProfile,
    dur: SimTime,
) -> (Fingerprint, u64, u64) {
    let mut c = ring_cluster(spec, seed, shards, true, faults, burst);
    c.set_pacing(pacing);
    c.run_until(dur);
    (fingerprint(&c), c.exchange_epochs(), c.epochs_skipped())
}

#[test]
fn adaptive_skipping_matches_dense_across_the_sweep() {
    // Guarantee 4 as a property over (topology × seed × shards): the
    // fingerprint — digest, events, boundary messages, merged counters —
    // must not depend on pacing, and the window accounting must be
    // exact: every window adaptive pacing skips is one dense pacing
    // executed (executed_adaptive + skipped == executed_dense). The
    // burst workload drains mid-run, so every multi-shard cell has a
    // quiet tail to skip.
    let dur = SimTime::from_micros(400);
    let mut skipped_anywhere = 0u64;
    for spec in [
        ClosSpec::uniform_40g(2, 1, 2, 2, 2),
        ClosSpec::uniform_40g(4, 2, 2, 4, 3),
    ] {
        for seed in [7u64, 21] {
            for shards in [2u32, 4] {
                let (fp_d, exec_d, skip_d) = run_paced(
                    spec,
                    seed,
                    shards,
                    EpochPacing::Dense,
                    FaultProfile::paper_default(),
                    dur,
                );
                let (fp_a, exec_a, skip_a) = run_paced(
                    spec,
                    seed,
                    shards,
                    EpochPacing::Adaptive,
                    FaultProfile::paper_default(),
                    dur,
                );
                let cell = format!("pods={} seed={seed} shards={shards}", spec.pods);
                assert_eq!(skip_d, 0, "dense pacing never skips: {cell}");
                assert_eq!(
                    (fp_a.0, fp_a.1, fp_a.3, fp_a.4.clone()),
                    (fp_d.0, fp_d.1, fp_d.3, fp_d.4.clone()),
                    "pacing changed the physics: {cell}"
                );
                assert_eq!(
                    exec_a + skip_a,
                    exec_d,
                    "window accounting must be exact: {cell}"
                );
                skipped_anywhere += skip_a;
            }
        }
    }
    assert!(
        skipped_anywhere > 0,
        "the burst workload must leave windows to skip somewhere in the sweep"
    );
}

#[test]
fn script_action_inside_a_quiet_span_forces_its_window_to_execute() {
    // The bursts drain well before 300 µs; the flap lands at 320/360 µs
    // — inside a span adaptive pacing would otherwise jump over. The
    // skip decision must see the scripted event and execute its window:
    // dense and adaptive stay byte-identical, and the flap provably
    // dispatched (different digest from the unflapped run).
    let spec = ClosSpec::uniform_40g(2, 1, 2, 2, 2);
    let dur = SimTime::from_micros(500);
    let flap = || {
        FaultProfile::paper_default()
            .at(
                SimTime::from_micros(320),
                ScriptAction::FabricLink {
                    a: "pod1-leaf0".to_string(),
                    b: "spine0".to_string(),
                    up: false,
                },
            )
            .at(
                SimTime::from_micros(360),
                ScriptAction::FabricLink {
                    a: "pod1-leaf0".to_string(),
                    b: "spine0".to_string(),
                    up: true,
                },
            )
    };
    let (fp_d, exec_d, _) = run_paced(spec, 7, 2, EpochPacing::Dense, flap(), dur);
    let (fp_a, exec_a, skip_a) = run_paced(spec, 7, 2, EpochPacing::Adaptive, flap(), dur);
    // Physics must not depend on pacing (epoch *counts* do, by design:
    // that is the whole point of skipping).
    assert_eq!(
        (fp_a.0, fp_a.1, fp_a.3, fp_a.4.clone()),
        (fp_d.0, fp_d.1, fp_d.3, fp_d.4.clone()),
        "the flapped run must not depend on pacing"
    );
    assert_eq!(exec_a + skip_a, exec_d, "window accounting must stay exact");
    assert!(skip_a > 0, "the quiet span around the flap must still skip");

    let (fp_u, _, _) = run_paced(
        spec,
        7,
        2,
        EpochPacing::Adaptive,
        FaultProfile::paper_default(),
        dur,
    );
    assert_ne!(
        fp_a.0, fp_u.0,
        "the flap's window must have executed, not been skipped over"
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
    use rocescale_core::{CcKind, FabricProfile, TransportProfile};
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
        let (executed, skipped) = (c.exchange_epochs(), c.epochs_skipped());
        c.run_until(end);
        assert_eq!(
            c.exchange_epochs() - executed,
            executed_in_tail,
            "{arm}: epochs executed after the bursts drained"
        );
        assert_eq!(
            c.epochs_skipped() - skipped,
            tail_windows - executed_in_tail,
            "{arm}: the rest of the tail is skipped"
        );
    }
}

#[test]
fn more_shards_than_cores_match_the_one_worker_run() {
    // Guarantee 6, as far as the public API reaches: 8 shards never fit
    // the 2-core runner, so each worker owns a range of shards. Against
    // one worker everything a run produces is equal, and dense ≡
    // adaptive holds threaded as it does on one worker. Explicit worker
    // counts — 1..=5, 8, more workers than cores — are swept by `sim`'s
    // own `shard::tests::the_worker_count_never_changes_a_result`.
    let spec = ClosSpec::uniform_40g(8, 2, 2, 4, 3);
    let run = |threaded: bool, pacing: EpochPacing| {
        let mut c = ring_cluster(spec, 21, 8, true, FaultProfile::paper_default(), burst);
        assert_eq!(c.shard_count(), 8);
        c.set_threaded(threaded);
        c.set_pacing(pacing);
        c.run_until(SimTime::from_micros(400));
        (fingerprint(&c), c.shard_stats())
    };
    let (one, one_stats) = run(false, EpochPacing::Adaptive);
    assert!(one_stats.epochs_executed > 0 && one_stats.boundary_messages > 0);
    assert_eq!(run(true, EpochPacing::Adaptive), (one.clone(), one_stats));
    let (dense, dense_stats) = run(true, EpochPacing::Dense);
    assert_eq!(
        (dense.0, dense.1, dense.3, dense.4),
        (one.0, one.1, one.3, one.4),
        "dense threaded vs adaptive on one worker"
    );
    assert_eq!(
        dense_stats.epochs_executed,
        one_stats.epochs_executed + one_stats.epochs_skipped
    );
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
    let spec = ClosSpec::uniform_40g(4, 2, 2, 4, 3);
    let dur = SimTime::from_micros(400);
    let mut c = ring_cluster(spec, 21, shards, hub_on, faults, saturate);
    c.set_threaded(threaded);
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
    // inject the window's arrivals before its first local event, number
    // same-instant messages from different shards as the whole window
    // would, and hold administrative messages — the flap's LinkSet
    // crosses a shard boundary — for the grid line.
    let flap = || {
        let link = |up| ScriptAction::FabricLink {
            a: "pod1-leaf0".to_string(),
            b: "spine0".to_string(),
            up,
        };
        FaultProfile::paper_default()
            .at(SimTime::from_nanos(100_700), link(false))
            .at(SimTime::from_nanos(250_300), link(true))
    };
    for shards in [2u32, 4] {
        for threaded in [true, false] {
            for flapped in [false, true] {
                let faults = || {
                    if flapped {
                        flap()
                    } else {
                        FaultProfile::paper_default()
                    }
                };
                let cell = format!("shards={shards} threaded={threaded} flapped={flapped}");
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
