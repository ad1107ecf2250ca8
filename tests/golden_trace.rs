//! Golden dispatch-trace pin for the event engine.
//!
//! `World` folds every dispatched event — `(time, kind, node, detail)` —
//! into a 64-bit digest, a compact fingerprint of the full event trace.
//! This test pins that digest for a fixed full-stack scenario so any
//! change to dispatch *order or content* (a scheduler bug, an accidental
//! semantic change riding along a refactor) fails loudly. The wheel's
//! order against a reference binary heap is `rocescale_sim::sched`'s own
//! differential test.
//!
//! If a PR changes simulation semantics on purpose, re-deriving the
//! constant is the explicit, reviewable act of accepting the new trace.

use rocescale_core::{ClusterBuilder, InstrumentationProfile, ServerId};
use rocescale_monitor::{MemorySink, MetricsHub};
use rocescale_nic::QpApp;
use rocescale_sim::{EventProfile, ProfileMode, SimTime};

/// Digest of the pinned scenario. Re-pinned twice, each time accounting
/// for every event of the difference: when host timers became
/// demand-armed (from
/// 5655298337002817904 over 13800 events, see
/// [`trace_differs_from_the_always_armed_one_only_in_idle_timers`]), and
/// when a host stopped queuing a second pacing timer for an instant it
/// already had one for (from 11228656443465567668 over 13739, see
/// [`trace_differs_from_the_demand_armed_one_only_in_duplicate_pumps`]).
/// Re-pinned once more, with the event stream unchanged, when the
/// per-event fold went from byte-wise FNV-1a to one multiply per event
/// (from 9215484005407342413 over the same 13397 events; the per-kind
/// tests below still hold).
const GOLDEN_DIGEST: u64 = 15309240181080181627;
/// Event count of the pinned trace.
const GOLDEN_EVENTS: u64 = 13397;
/// Per-kind event counts `[start, arrival, port idle, timer]` of the same
/// scenario while every host re-armed its 55 µs congestion-control tick
/// and 100 µs retransmission scan unconditionally (recorded from
/// `event_profile()` at the commit before demand arming; sum 13800).
const ALWAYS_ARMED_COUNTS: [u64; 4] = [14, 4827, 4827, 4132];
/// The same with demand-armed timers, while the transmit pump still
/// queued a `TOK_PUMP` on every call that found its QPs paced (recorded
/// at the commit before the one-timer-per-instant rule; sum 13739).
const DEMAND_ARMED_COUNTS: [u64; 4] = [14, 4827, 4827, 4071];
/// Idle timers demand arming removed (derived below).
const IDLE_TIMERS: u64 = 61;
/// Second `TOK_PUMP`s for an instant their host already had one queued
/// for, which the one-timer-per-instant rule no longer queues (measured:
/// `DEMAND_ARMED_COUNTS` minus this trace's timers).
const DUPLICATE_PUMPS: u64 = 342;

fn run() -> (u64, u64) {
    run_profiled(MetricsHub::disabled(), ProfileMode::Off).0
}

fn run_with_hub(hub: MetricsHub) -> ((u64, u64), MetricsHub) {
    let (out, hub, _) = run_profiled(hub, ProfileMode::Off);
    (out, hub)
}

fn run_profiled(hub: MetricsHub, profile: ProfileMode) -> ((u64, u64), MetricsHub, EventProfile) {
    let mut cl = ClusterBuilder::two_tier(2, 4)
        .seed(7)
        .instrumentation(
            InstrumentationProfile::paper_default()
                .telemetry(hub)
                .profiler(profile),
        )
        .build();
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
    let out = (cl.world.dispatch_digest(), cl.world.events_processed());
    let profile = cl.world.event_profile();
    (out, cl.telemetry().clone(), profile)
}

#[test]
fn dispatch_trace_matches_committed_golden() {
    assert_eq!(
        run(),
        (GOLDEN_DIGEST, GOLDEN_EVENTS),
        "trace deviates from the committed golden digest"
    );
}

/// The pluggable congestion-control layer must leave the paper-default
/// path untouched: `paper_default()` still selects DCQCN + go-back-N,
/// and the pinned scenario — which is built from exactly that profile —
/// still dispatches the committed golden trace. Together with
/// [`dispatch_trace_matches_committed_golden`] this pins the refactor
/// as digest-neutral: swapping the concrete RP/NP state machines for
/// the `CongestionControl` trait moved code, not events.
#[test]
fn paper_default_cc_selection_preserves_the_golden_trace() {
    use rocescale_core::{CcKind, TransportProfile};
    use rocescale_transport::LossRecovery;
    let t = TransportProfile::paper_default();
    assert_eq!(t.cc, CcKind::Dcqcn, "paper default must stay DCQCN");
    assert_eq!(t.recovery, LossRecovery::GoBackN);
    assert_eq!(
        run(),
        (GOLDEN_DIGEST, GOLDEN_EVENTS),
        "the CC layer must be digest-neutral on the paper-default path"
    );
}

/// The telemetry bus must be a pure observer: running the pinned
/// scenario with a live hub — counters, flight recorder, and chunked
/// sampled `run_until` all active — must reproduce the exact golden
/// digest, byte for byte, while actually collecting data.
#[test]
fn telemetry_does_not_perturb_the_dispatch_trace() {
    let (out, hub) = run_with_hub(MetricsHub::enabled());
    assert_eq!(
        out,
        (GOLDEN_DIGEST, GOLDEN_EVENTS),
        "telemetry-on trace deviates from the committed golden digest"
    );
    // And it must really have observed the run, not silently no-opped.
    assert!(hub.samples_taken() > 0, "sampling never ran");
    let counters = hub.counters_snapshot();
    let total: u64 = counters.iter().map(|(_, v)| v).sum();
    assert!(total > 0, "no counter ever incremented: {counters:?}");
}

/// A configured-but-unfired fault script must be invisible: scripted
/// actions ride ordinary timer events, so a script whose first action is
/// scheduled *after* the run ends adds zero dispatched events and the
/// pinned scenario — detector live, telemetry on — reproduces the exact
/// golden digest.
#[test]
fn unfired_fault_script_preserves_the_golden_trace() {
    use rocescale_core::{FaultProfile, ScriptAction};
    let mut cl = ClusterBuilder::two_tier(2, 4)
        .seed(7)
        .instrumentation(InstrumentationProfile::paper_default().telemetry(MetricsHub::enabled()))
        .faults(FaultProfile::paper_default().at(
            SimTime::from_millis(1000), // run ends at 500 µs: never fires
            ScriptAction::SetLossless {
                switch: "pod0-tor0".to_string(),
                prio: 3,
                on: false,
            },
        ))
        .build();
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
        (cl.world.dispatch_digest(), cl.world.events_processed()),
        (GOLDEN_DIGEST, GOLDEN_EVENTS),
        "an unfired script must not perturb the dispatch trace"
    );
    assert_eq!(
        cl.deadlock_probe().cycle_epochs(),
        0,
        "healthy pinned scenario must stay cycle-free"
    );
    assert!(
        cl.deadlock_probe().epochs() > 0,
        "the live detector must actually have run"
    );
}

/// Run the pinned scenario with an arbitrary instrumentation profile.
fn run_instrumented(instr: InstrumentationProfile) -> (u64, u64) {
    let mut cl = ClusterBuilder::two_tier(2, 4)
        .seed(7)
        .instrumentation(instr)
        .build();
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
    (cl.world.dispatch_digest(), cl.world.events_processed())
}

/// A streaming trace sink must be a pure observer: the pinned scenario
/// with a live sink — per-packet hops, queue samples, rate points and
/// teed flight events all flowing — reproduces the exact golden digest
/// while actually exporting a substantial trace.
#[test]
fn trace_sink_does_not_perturb_the_dispatch_trace() {
    let mem = MemorySink::new();
    let out = run_instrumented(
        InstrumentationProfile::paper_default()
            .telemetry(MetricsHub::enabled())
            .trace_sink(mem.clone()),
    );
    assert_eq!(
        out,
        (GOLDEN_DIGEST, GOLDEN_EVENTS),
        "sink-attached trace deviates from the committed golden digest"
    );
    // And the sink must really have streamed the run, not no-opped:
    // every packet enqueue is a hop, each telemetry epoch a queue
    // sample per switch, and DCQCN activity shows up as rate points.
    assert!(
        mem.count_kind("hop") > 1000,
        "hops: {}",
        mem.count_kind("hop")
    );
    assert!(mem.count_kind("queue") > 0, "queue samples missing");
    assert!(mem.count_kind("cc_rate") > 0, "rate points missing");
}

/// Attaching a sink without a hub must imply an enabled hub (otherwise
/// the sink would silently see nothing) — and still leave the golden
/// trace untouched.
#[test]
fn sink_implies_enabled_hub_and_preserves_the_golden_trace() {
    let mem = MemorySink::new();
    let out = run_instrumented(InstrumentationProfile::paper_default().trace_sink(mem.clone()));
    assert_eq!(out, (GOLDEN_DIGEST, GOLDEN_EVENTS));
    assert!(!mem.is_empty(), "implied hub must actually stream");
}

/// The dispatch profiler must also be a pure observer: with profiling
/// *and* telemetry both live, the pinned scenario still dispatches the
/// exact golden trace, and the profile's per-kind counts sum to the
/// golden event count (wall-clock timing is bookkeeping, not events).
#[test]
fn profiler_does_not_perturb_the_dispatch_trace() {
    let (out, _, profile) = run_profiled(MetricsHub::enabled(), ProfileMode::On);
    assert_eq!(
        out,
        (GOLDEN_DIGEST, GOLDEN_EVENTS),
        "profiler-on trace deviates from the committed golden digest"
    );
    assert_eq!(
        profile.total_events(),
        GOLDEN_EVENTS,
        "profile counts must cover every dispatched event"
    );
    // Arrivals dominate a saturating incast; the breakdown must show it.
    assert!(
        profile.counts[1] > 0 && profile.counts[3] > 0,
        "expected arrival and timer events in the breakdown: {profile:?}"
    );
}

/// Demand-armed host timers removed idle timer events and nothing else.
/// The scenario runs `two_tier(2, 4)` — eight servers — for 500 µs with
/// servers 1–3 saturating towards server 0. Against the always-armed
/// trace, arrivals and port idles are equal (no packet moved), and the
/// timer count falls by exactly:
///
/// * four servers (4–7) own no QP: each loses its ⌊500/55⌋ = 9 ticks and
///   its ⌊500/100⌋ = 5 scans;
/// * server 0 only receives, so nothing of its own is ever unacknowledged:
///   it keeps ticking (it owns QPs) but loses its 5 scans;
/// * servers 1–3 always have data in flight and keep both timers.
///
/// The duplicate pumps the next test accounts for have gone since.
#[test]
fn trace_differs_from_the_always_armed_one_only_in_idle_timers() {
    let (_, _, profile) = run_profiled(MetricsHub::disabled(), ProfileMode::On);
    let [start, arrival, port_idle, timer] = profile.counts;
    assert_eq!(
        [start, arrival, port_idle],
        ALWAYS_ARMED_COUNTS[..3],
        "no start, arrival or port-idle event may move"
    );
    let (ticks, scans) = (500 / 55, 500 / 100);
    let (idle_hosts, receiver_only_hosts) = (4, 1);
    let removed = idle_hosts * (ticks + scans) + receiver_only_hosts * scans;
    assert_eq!(removed, IDLE_TIMERS);
    assert_eq!(
        timer,
        ALWAYS_ARMED_COUNTS[3] - IDLE_TIMERS - DUPLICATE_PUMPS
    );
    assert_eq!(profile.total_events(), GOLDEN_EVENTS);
}

/// One pacing timer per instant removed timers and nothing else: no
/// packet moved, so arrivals and port idles equal the demand-armed
/// trace's, and only `TOK_PUMP` timers that duplicated one already
/// queued for the same instant are gone. A duplicate fires after the
/// original at the same instant and finds nothing to send, because every
/// state change that could enable a send runs the pump itself; the
/// host-level pin is `nic`'s `a_paced_host_queues_one_pump_per_instant`.
#[test]
fn trace_differs_from_the_demand_armed_one_only_in_duplicate_pumps() {
    let (_, _, profile) = run_profiled(MetricsHub::disabled(), ProfileMode::On);
    let [start, arrival, port_idle, timer] = profile.counts;
    assert_eq!(
        [start, arrival, port_idle],
        DEMAND_ARMED_COUNTS[..3],
        "no start, arrival or port-idle event may move"
    );
    assert_eq!(timer, DEMAND_ARMED_COUNTS[3] - DUPLICATE_PUMPS);
    assert_eq!(
        DEMAND_ARMED_COUNTS.iter().sum::<u64>() - DUPLICATE_PUMPS,
        GOLDEN_EVENTS
    );
}
