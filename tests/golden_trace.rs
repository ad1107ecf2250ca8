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

/// Digest of the pinned scenario. Re-pinned four times, each time
/// accounting for every event of the difference: when host timers became
/// demand-armed (from 5655298337002817904 over 13800 events: 61 idle
/// timers fewer), when a host stopped queuing a second pacing timer for
/// an instant it already had one for (from 11228656443465567668 over
/// 13739: 342 duplicate pumps fewer), when the per-event fold went from
/// byte-wise FNV-1a to one multiply per event (from 9215484005407342413
/// over the same 13397 events), and when ECN marking became a draw keyed
/// on the packet instead of the next number of the world's random stream
/// (from 15309240181080181627 over 13397 events, per kind `[14, 4827,
/// 4827, 3729]`: the ramp marks other packets, so arrivals, port idles
/// and pacing timers all move; see [`GOLDEN_COUNTS`]).
const GOLDEN_DIGEST: u64 = 15201413384809415068;
/// Event count of the pinned trace.
const GOLDEN_EVENTS: u64 = 13256;
/// Per-kind event counts `[start, arrival, port idle, timer]` of the
/// pinned trace.
///
/// History: the always-armed trace was `[14, 4827, 4827, 4132]`, the
/// demand-armed one `[14, 4827, 4827, 4071]` (61 idle timers fewer: four
/// QP-less servers × (⌊500/55⌋ ticks + ⌊500/100⌋ scans) + the receiver's
/// 5 scans), and the one-pump-per-instant one `[14, 4827, 4827, 3729]`
/// (342 duplicate pumps fewer); each step moved timers only. Those traces
/// were recorded under the world RNG's draw order and cannot be
/// re-derived under keyed draws, so the counts are now pinned directly.
/// Idle timers are checked by `tcp`'s `host_timers` tests and `core`'s
/// `idle_host_allocs` (a started world of idle hosts queues its `Start`
/// events only), duplicate pumps by `nic`'s
/// `a_paced_host_queues_one_pump_per_instant`.
const GOLDEN_COUNTS: [u64; 4] = [14, 4820, 4820, 3602];

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
    use rocescale_core::{AdminAction, FaultProfile, ScriptAction};
    let mut cl = ClusterBuilder::two_tier(2, 4)
        .seed(7)
        .instrumentation(InstrumentationProfile::paper_default().telemetry(MetricsHub::enabled()))
        .faults(FaultProfile::paper_default().at(
            SimTime::from_millis(1000), // run ends at 500 µs: never fires
            ScriptAction::Switch {
                switch: "pod0-tor0".to_string(),
                action: AdminAction::SetLossless { prio: 3, on: false },
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
/// with a live sink — per-packet hops, queue samples and teed flight
/// events, rate changes among them, all flowing — reproduces the exact
/// golden digest while actually exporting a substantial trace.
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
    // sample per switch, and DCQCN activity shows up as rate changes.
    assert!(
        mem.count_kind("hop") > 1000,
        "hops: {}",
        mem.count_kind("hop")
    );
    assert!(mem.count_kind("queue") > 0, "queue samples missing");
    assert!(mem.count_kind("rate_change") > 0, "rate changes missing");
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

/// The pinned trace's starts, arrivals and port idles: eight servers
/// and six switches start once each, and every frame put on a wire
/// arrives and frees its port.
#[test]
fn trace_differs_from_the_always_armed_one_only_in_idle_timers() {
    let (_, _, profile) = run_profiled(MetricsHub::disabled(), ProfileMode::On);
    let [start, arrival, port_idle, _] = profile.counts;
    assert_eq!([start, arrival, port_idle], GOLDEN_COUNTS[..3]);
    assert_eq!(arrival, port_idle);
}

/// The pinned trace's timers, and the per-kind counts add up to the
/// golden event count.
#[test]
fn trace_differs_from_the_demand_armed_one_only_in_duplicate_pumps() {
    let (_, _, profile) = run_profiled(MetricsHub::disabled(), ProfileMode::On);
    assert_eq!(profile.counts[3], GOLDEN_COUNTS[3]);
    assert_eq!(GOLDEN_COUNTS.iter().sum::<u64>(), GOLDEN_EVENTS);
    assert_eq!(profile.total_events(), GOLDEN_EVENTS);
}
