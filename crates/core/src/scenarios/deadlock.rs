//! Figure 4 / §4.2 — the PFC deadlock created by Ethernet flooding, and
//! the fix.
//!
//! The paper's four-switch Clos fragment, built by `ClusterBuilder` as
//! one pod of two ToRs and two leaves with no spine (T0 = `pod0-tor0`,
//! T1 = `pod0-tor1`, La = `pod0-leaf0`, Lb = `pod0-leaf1`):
//!
//! ```text
//!        La        Lb
//!       /  \      /  \
//!     T0    T1--/    |
//!      | \   \-------/
//!  S1 S2   S3 S4 S5
//! ```
//!
//! * S1 → S3 (dead) and S1 → S5: path {T0, La, T1} (purple / black).
//! * S4 → S2 (dead): path {T1, Lb, T0} (blue). S4 → S5 and S6 → S5 add
//!   the incast on T1's port to S5.
//! * S2 and S3 die (`ScriptAction::ServerDeath`): their links go down
//!   and their MAC entries are evicted while their ARP entries survive —
//!   the "incomplete ARP entry". The ToRs flood their lossless packets;
//!   flood copies parked on paused fabric ports close the cyclic buffer
//!   dependency and the fabric freezes: "Once the deadlock occurs, it
//!   does not go away even if we restart all the servers."
//!
//! With the paper's fix (drop lossless packets on incomplete ARP), the
//! flood never happens and traffic to live servers keeps flowing.
//!
//! FIG-4 kills the two servers before the first packet (`die_at` = 0);
//! INC-DEADLOCK replays the incident live, killing them at 4 ms while
//! traffic flows. The cluster's own deadlock probe watches both.

use rocescale_cc::CcKind;
use rocescale_monitor::{MetricsHub, TelemetryConfig};
use rocescale_nic::QpApp;
use rocescale_sim::SimTime;
use rocescale_switch::{DropReason, EcmpGroup};
use rocescale_topology::{tor_subnet, ClosSpec, Tier};

use crate::cluster::{Cluster, ClusterBuilder, ServerId};
use crate::instrument::InstrumentationProfile;
use crate::profiles::{FaultProfile, ScriptAction, TransportProfile};

/// The paper's servers, in build order: S1, S2 and S6 under T0, S3, S4
/// and S5 under T1.
const S1: ServerId = ServerId(0);
const S2: ServerId = ServerId(1);
const S6: ServerId = ServerId(2);
const S3: ServerId = ServerId(3);
const S4: ServerId = ServerId(4);
const S5: ServerId = ServerId(5);

const SATURATE: QpApp = QpApp::Saturate {
    msg_len: 1 << 20,
    inflight: 4,
};

/// Result of one §4.2 run.
#[derive(Debug, Clone)]
pub struct DeadlockResult {
    /// Was the drop-on-incomplete-ARP fix enabled?
    pub fix_enabled: bool,
    /// When S2 and S3 died.
    pub die_at: SimTime,
    /// The corroborated end-of-run verdict: switches stuck (zero tx
    /// progress with lossless backlog) and on a wait cycle.
    pub deadlocked_switches: Vec<String>,
    /// The pause-wait cycle of the last epoch, if one exists — the §4.2
    /// "cyclic buffer dependency" rendered as switch names.
    pub wait_cycle: Option<Vec<String>>,
    /// First epoch at which the probe saw a wait cycle, if ever.
    pub first_cycle_at: Option<SimTime>,
    /// Detection epochs with a cycle present.
    pub cycle_epochs: u64,
    /// Total detection epochs run.
    pub epochs: u64,
    /// S5's received goodput during the *last quarter* of the run, bytes
    /// (zero once the fabric is wedged; healthy with the fix).
    pub tail_goodput_bytes: u64,
    /// Lossless packets dropped by the fix.
    pub fix_drops: u64,
    /// Pause frames sent by all four switches.
    pub pauses: u64,
    /// Dispatch digest of the whole run (determinism pin).
    pub digest: u64,
    /// Events dispatched (pairs with the digest pin).
    pub events: u64,
}

/// Raw PFC dynamics, as in the paper's stress test, and a 200 µs RTO:
/// senders to dead peers keep the wire busy.
fn transport() -> TransportProfile {
    TransportProfile::paper_default()
        .cc(CcKind::Off)
        .qp_rto(SimTime::from_micros(200))
}

/// The fragment with the fix on or off, S2 and S3 dying at `die_at`,
/// the paper's paths pinned and the §4.2 traffic matrix wired. Its hub
/// samples, and its probe observes, every 2 ms; `instr` adds its
/// profiler and trace sink.
fn cluster(fix_enabled: bool, die_at: SimTime, instr: InstrumentationProfile) -> Cluster {
    let hub = MetricsHub::with_config(TelemetryConfig {
        sample_every_ps: SimTime::from_millis(2).as_ps(),
    });
    let deaths = [S2, S3].iter().fold(FaultProfile::paper_default(), |f, s| {
        f.at(die_at, ScriptAction::ServerDeath { server: s.0 })
    });
    let mut c = ClusterBuilder::new(ClosSpec::uniform_40g(1, 2, 2, 0, 3))
        .transport(transport())
        .faults(deaths)
        .instrumentation(instr.telemetry(hub))
        .switch_tweak(move |_, cfg| cfg.drop_lossless_on_incomplete_arp = fix_enabled)
        .build();

    // The paper's paths: T0 reaches T1's rack over La (S1's purple and
    // black packets), T1 reaches T0's rack over Lb (S4's blue ones).
    // ToR `i` is switch `i`: the builder keeps the topology's order.
    let topo = c.topology();
    let (tors, leaves) = (topo.of_tier(Tier::Tor), topo.of_tier(Tier::Leaf));
    let via = |tor: usize, leaf: usize| topo.port_toward(tors[tor], leaves[leaf]);
    let pins = [(0, 1, via(0, 0)), (1, 0, via(1, 1))];
    for (tor, dst, port) in pins {
        let port = port.expect("every ToR reaches every leaf");
        c.switch_mut(tor)
            .routes_mut()
            .add(tor_subnet(0, dst), 24, EcmpGroup::single(port));
    }

    // The §4.2 traffic matrix. S1 → S3 (the purple packets) and S4 → S2
    // (the blue ones) are one-sided: a dead server owns no QP, and the
    // data flows unacknowledged. S1 → S5 (the black packets), S4 → S5
    // and S6 → S5: "T1.p2 is congested due to incast traffic from S1
    // and other sources" — the demand on S5's port must exceed its rate
    // for the black packets to queue.
    let dead_peer = |c: &mut Cluster, from: ServerId, to: ServerId, udp_src: u16| {
        let ip = c.server_ip(to);
        c.rdma_mut(from).add_qp(ip, 0, udp_src, SATURATE);
    };
    dead_peer(&mut c, S1, S3, 7001);
    c.connect_qp(S1, S5, 7002, SATURATE, QpApp::None);
    dead_peer(&mut c, S4, S2, 7003);
    c.connect_qp(S4, S5, 7004, SATURATE, QpApp::None);
    c.connect_qp(S6, S5, 7005, SATURATE, QpApp::None);
    c
}

/// Run the §4.2 fragment for `dur` with S2 and S3 dying at `die_at`,
/// observed by `instr` (its profiler and trace sink; the run brings its
/// own hub).
///
/// * Fix off: the flood starts at the deaths, the cyclic buffer
///   dependency forms, and the probe reports a wait cycle and the four
///   wedged switches; S5 stops receiving.
/// * Fix on: lossless packets to the dead servers are dropped instead of
///   flooded; every epoch stays cycle-free and S5 keeps receiving.
pub fn run(
    fix_enabled: bool,
    die_at: SimTime,
    dur: SimTime,
    instr: InstrumentationProfile,
) -> DeadlockResult {
    let mut c = cluster(fix_enabled, die_at, instr);
    c.run_until(SimTime(dur.as_ps() / 4 * 3));
    let goodput_at_three_quarters = c.rdma(S5).total_goodput_bytes();
    c.run_until(dur);
    let probe = c.deadlock_probe();
    DeadlockResult {
        fix_enabled,
        die_at,
        deadlocked_switches: probe.verdict(),
        wait_cycle: probe.last_cycle(),
        first_cycle_at: probe.first_cycle_at(),
        cycle_epochs: probe.cycle_epochs(),
        epochs: probe.epochs(),
        tail_goodput_bytes: c.rdma(S5).total_goodput_bytes() - goodput_at_three_quarters,
        fix_drops: c.total_drops_of(DropReason::IncompleteArpLossless),
        pauses: c.total_switch_pause_tx(),
        digest: c.dispatch_digest(),
        events: c.events_processed(),
    }
}

#[cfg(test)]
mod tests {
    use rocescale_monitor::config::ConfigField;

    use super::*;
    use crate::profiles::FabricProfile;

    const SWITCHES: [&str; 4] = ["pod0-leaf0", "pod0-leaf1", "pod0-tor0", "pod0-tor1"];

    fn arm(fix: bool, die_at: SimTime) -> DeadlockResult {
        let instr = InstrumentationProfile::paper_default();
        run(fix, die_at, SimTime::from_millis(40), instr)
    }

    /// FIG-4: S2 and S3 are dead from the start.
    fn fig4(fix: bool) -> DeadlockResult {
        arm(fix, SimTime::ZERO)
    }

    /// INC-DEADLOCK: S2 and S3 die at 4 ms, while traffic flows.
    fn scripted(fix: bool) -> DeadlockResult {
        arm(fix, SimTime::from_millis(4))
    }

    /// The §4.2 discovery: flooding + PFC deadlocks a Clos fragment, and
    /// the deadlock is permanent.
    #[test]
    fn flooding_plus_pfc_deadlocks() {
        let r = fig4(false);
        assert_eq!(
            r.deadlocked_switches, SWITCHES,
            "the pause cycle wedges all four switches"
        );
        assert_eq!(
            r.tail_goodput_bytes, 0,
            "once wedged, even the live S5 flow stops"
        );
        assert!(r.pauses > 0);
        let mut cycle = r.wait_cycle.expect("a wait cycle must exist in deadlock");
        cycle.sort();
        assert_eq!(cycle, SWITCHES, "the cycle runs through all four");
    }

    /// The fix: drop lossless packets on incomplete ARP entries — no
    /// flood, no cycle, live traffic unharmed.
    #[test]
    fn drop_on_incomplete_arp_prevents_deadlock() {
        let r = fig4(true);
        assert!(
            r.deadlocked_switches.is_empty(),
            "no deadlock expected, got {:?}",
            r.deadlocked_switches
        );
        assert!(r.fix_drops > 0, "the fix must be doing the dropping");
        assert!(
            r.tail_goodput_bytes > 10 << 20,
            "S5 keeps receiving: {} bytes",
            r.tail_goodput_bytes
        );
        assert!(r.wait_cycle.is_none(), "no wait cycle with the fix");
    }

    /// Scripted replay, fix off: the fabric is healthy until the servers
    /// die, then the live detector reports a wait cycle *mid-run* and
    /// the corroborated verdict names ≥2 switches. Digest-pinned.
    #[test]
    fn scripted_eviction_forms_live_cycle() {
        let r = scripted(false);
        let first = r.first_cycle_at.expect("detector must fire mid-run");
        assert!(
            first >= r.die_at,
            "no cycle before the deaths: {first} < {}",
            r.die_at
        );
        assert!(
            first < SimTime::from_millis(40),
            "cycle must be seen live, not only at the end"
        );
        assert!(r.cycle_epochs > 0 && r.cycle_epochs <= r.epochs);
        assert!(
            r.deadlocked_switches.len() >= 2,
            "corroborated verdict needs ≥2 switches, got {:?}",
            r.deadlocked_switches
        );
        assert_eq!(r.fix_drops, 0, "fix off ⇒ nothing dropped by it");
        assert_eq!(r.tail_goodput_bytes, 0, "wedged fabric stops S5");
    }

    /// Scripted replay, fix on: same script, every epoch cycle-free —
    /// the fix clears every injected cycle. Digest-pinned.
    #[test]
    fn scripted_eviction_with_fix_stays_clear() {
        let r = scripted(true);
        assert_eq!(
            r.cycle_epochs, 0,
            "fix on ⇒ no epoch may see a cycle (first at {:?})",
            r.first_cycle_at
        );
        assert!(r.deadlocked_switches.is_empty());
        assert!(r.fix_drops > 0, "the fix must be doing the dropping");
        assert!(
            r.tail_goodput_bytes > 10 << 20,
            "S5 keeps receiving: {} bytes",
            r.tail_goodput_bytes
        );
    }

    /// §5.1's configuration monitor catches the missing §4.2 fix: built
    /// without it, each of the four switches deviates in `ArpFix` alone
    /// from the paper's fabric; built with it, nothing deviates.
    #[test]
    fn the_config_monitor_names_every_switch_without_the_fix() {
        for fix in [false, true] {
            let c = cluster(fix, SimTime::ZERO, InstrumentationProfile::paper_default());
            let found: Vec<_> = c
                .config_deviations(&FabricProfile::paper_default(), &transport())
                .into_iter()
                .map(|d| (d.device, d.field))
                .collect();
            // Switch order: the ToRs, then the leaves.
            let want: Vec<_> = ["pod0-tor0", "pod0-tor1", "pod0-leaf0", "pod0-leaf1"]
                .iter()
                .filter(|_| !fix)
                .map(|s| (s.to_string(), ConfigField::ArpFix))
                .collect();
            assert_eq!(found, want, "fix={fix}");
        }
    }

    /// Digest pins for both arms of the scripted incident: scripted
    /// admin actions ride ordinary timer events, so each replay
    /// dispatches exactly the committed event trace. Changing either
    /// constant on purpose is the reviewable act of accepting a new
    /// trace (same convention as `tests/golden_trace.rs`).
    ///
    /// Re-pinned twice, with per-kind `event_profile()` counts on both
    /// sides of each change. Arrivals 656727 and port idles 656727 (fix
    /// off), 1083413 and 1083415 (fix on) never moved; only timers fell.
    ///
    /// * Host timers became demand-armed (from 8737866210602114976 /
    ///   1535575 and 14903120807112586635 / 2762529): −1200 timers with
    ///   the fix on (three hosts with nothing ever unacknowledged × 400
    ///   scan lines in 40 ms) and −8600 with it off, where the senders
    ///   also stop scanning once a timeout has rewound a QP that the
    ///   wedged, paused port cannot resend.
    /// * One pacing timer per instant (from 5898150378513020985 / 1526975
    ///   and 18289429584575194156 / 2761329): timers 213511 → 168902 with
    ///   the fix off and 594491 → 246923 with it on; the rule removes
    ///   only second `TOK_PUMP`s for an instant already queued.
    ///
    /// Re-pinned a third time with the event streams unchanged — same
    /// counts of every kind — when the per-event digest fold went from
    /// byte-wise FNV-1a to one multiply per event (from
    /// 10008809752035063281 / 1482366 and 12484319062180651156 /
    /// 2413761).
    ///
    /// Re-pinned a fourth time when ECN marking became a draw keyed on
    /// the packet (from 1769131210903183254 / 1482366 and
    /// 2822457155538983313 / 2413761). The ramp marks other packets, so
    /// the senders pace differently. Fix off, the wedge forms at another
    /// instant: `[start, arrival, port idle, timer]` went `[10, 656727,
    /// 656727, 168902]` → `[10, 538186, 538186, 140753]`. Fix on, every
    /// per-kind count stayed `[10, 1083413, 1083415, 246923]`; only
    /// which packets carried CE, and so the stream's contents, moved.
    ///
    /// Re-pinned a fifth time when the fragment moved onto
    /// `ClusterBuilder` (from 5229551613961174605 / 1217135 and
    /// 12927064539079872690 / 2413761): other MACs, port numbers, ECMP
    /// salts, headroom and seed, and `ServerDeath` (link down as well as
    /// the MAC eviction) in place of a bare eviction. Fix off, the wedge
    /// forms at 6 ms instead of 22 ms: `[start, arrival, port idle,
    /// timer]` went `[10, 538186, 538186, 140753]` → `[10, 143536,
    /// 143536, 45173]`. Fix on, `[10, 1083413, 1083415, 246923]` →
    /// `[10, 1083604, 1083607, 247260]`.
    #[test]
    fn scripted_replay_digests_are_pinned() {
        let off = scripted(false);
        assert_eq!(
            (off.digest, off.events),
            (887388360255071908, 332255),
            "fix-off replay deviates from its committed trace"
        );
        let on = scripted(true);
        assert_eq!(
            (on.digest, on.events),
            (15481030527652128113, 2414481),
            "fix-on replay deviates from its committed trace"
        );
    }
}
