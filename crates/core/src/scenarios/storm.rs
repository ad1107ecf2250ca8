//! Figure 5 & Figure 9 / §4.3 — the NIC PFC pause frame storm.
//!
//! One malfunctioning NIC "continually sends pause frames to its ToR
//! switch; the ToR switch in turn pauses all the rest ports including all
//! the upstream ports to the Leaf switches …" until "a single
//! malfunctioning NIC may block the entire network from transmitting"
//! (Figure 5). Figure 9 is the production incident: availability of
//! unrelated servers collapses until the watchdogs contain the storm.

use rocescale_nic::{host::TOK_INJECT_STORM, QpApp};
use rocescale_sim::SimTime;
use rocescale_topology::Tier;

use crate::cluster::{Cluster, ClusterBuilder, ServerId};
use crate::profiles::{FabricProfile, TransportProfile};

/// Result of one storm run.
#[derive(Debug, Clone)]
pub struct StormResult {
    /// Watchdogs (NIC + switch) armed?
    pub watchdogs: bool,
    /// Pause frames received by *victim* servers (not the stormer) — the
    /// Figure 9(b) metric.
    pub victim_pause_rx: u64,
    /// Victim pairs that made progress in the last quarter of the run
    /// ("healthy" servers, the Figure 9(a) availability metric).
    pub healthy_pairs: usize,
    /// Total victim pairs.
    pub total_pairs: usize,
    /// Did the NIC watchdog fire?
    pub nic_watchdog_fired: bool,
    /// Did the switch watchdog disable lossless on the stormer's port?
    pub switch_watchdog_fired: bool,
}

/// Build a 2-rack cluster, run victim traffic across racks, and put one
/// server into storm mode at 20% of `dur`.
pub fn run(watchdogs: bool, dur: SimTime) -> StormResult {
    let servers_per_tor = 6u32;
    let mut c = ClusterBuilder::two_tier(2, servers_per_tor)
        .fabric(FabricProfile::paper_default().switch_watchdog(watchdogs))
        .transport(
            TransportProfile::paper_default()
                .nic_watchdog(watchdogs.then(|| SimTime::from_millis(5))),
        )
        .build();
    // Victim pairs: rack0 server i ↔ rack1 server i (skipping server 0 of
    // rack 0, the stormer).
    let rack0 = c.servers_under(0, 0);
    let rack1 = c.servers_under(0, 1);
    let mut pairs = Vec::new();
    for i in 1..servers_per_tor as usize {
        let (a, b) = (rack0[i], rack1[i]);
        // Bidirectional, as production services are: the reverse leg is
        // what exposes victims to the propagated pauses.
        c.connect_qp(
            a,
            b,
            (6000 + i) as u16,
            QpApp::Saturate {
                msg_len: 256 * 1024,
                inflight: 2,
            },
            QpApp::Saturate {
                msg_len: 256 * 1024,
                inflight: 2,
            },
        );
        pairs.push((a, b));
    }
    let stormer = rack0[0];
    // Production traffic also flows *toward* the failing server: this is
    // what piles up behind the paused port and propagates the storm
    // (Figure 5 step 2: "the ToR switch in turn pauses all the rest
    // ports").
    c.connect_qp(
        rack1[0],
        stormer,
        6999,
        QpApp::Saturate {
            msg_len: 256 * 1024,
            inflight: 2,
        },
        QpApp::None,
    );
    let storm_start = SimTime(dur.as_ps() / 5);
    let node = c.server_node(stormer);
    c.world.schedule_timer(storm_start, node, TOK_INJECT_STORM);

    // Run to the 3/4 mark, snapshot victim progress, then finish.
    let three_q = SimTime(dur.as_ps() * 3 / 4);
    c.run_until(three_q);
    let mark: Vec<u64> = pairs
        .iter()
        .map(|(_, b)| c.rdma(*b).total_goodput_bytes())
        .collect();
    c.run_until(dur);

    let healthy = pairs
        .iter()
        .zip(&mark)
        .filter(|((_, b), m)| c.rdma(*b).total_goodput_bytes() > **m)
        .count();
    let victim_pause_rx: u64 = pairs
        .iter()
        .flat_map(|(a, b)| [a, b])
        .map(|s| c.rdma(*s).stats.pause_rx)
        .sum();
    let nic_fired = c.rdma(stormer).pause_generation_disabled();
    let switch_fired = switch_watchdog_fired(&c);
    StormResult {
        watchdogs,
        victim_pause_rx,
        healthy_pairs: healthy,
        total_pairs: pairs.len(),
        nic_watchdog_fired: nic_fired,
        switch_watchdog_fired: switch_fired,
    }
}

fn switch_watchdog_fired(c: &Cluster) -> bool {
    c.switches_of_tier(Tier::Tor)
        .into_iter()
        .any(|i| c.switch(i).stats.watchdog_disables > 0)
}

/// Availability time series for Figure 9(a): fraction of victim pairs
/// making progress per window.
pub fn availability_series(watchdogs: bool, dur: SimTime, windows: u32) -> Vec<(SimTime, f64)> {
    let servers_per_tor = 6u32;
    let mut c = ClusterBuilder::two_tier(2, servers_per_tor)
        .fabric(FabricProfile::paper_default().switch_watchdog(watchdogs))
        .transport(
            TransportProfile::paper_default()
                .nic_watchdog(watchdogs.then(|| SimTime::from_millis(5))),
        )
        .build();
    let rack0 = c.servers_under(0, 0);
    let rack1 = c.servers_under(0, 1);
    let mut pairs: Vec<(ServerId, ServerId)> = Vec::new();
    for i in 1..servers_per_tor as usize {
        c.connect_qp(
            rack0[i],
            rack1[i],
            (6000 + i) as u16,
            QpApp::Saturate {
                msg_len: 256 * 1024,
                inflight: 2,
            },
            QpApp::Saturate {
                msg_len: 256 * 1024,
                inflight: 2,
            },
        );
        pairs.push((rack0[i], rack1[i]));
    }
    c.connect_qp(
        rack1[0],
        rack0[0],
        6999,
        QpApp::Saturate {
            msg_len: 256 * 1024,
            inflight: 2,
        },
        QpApp::None,
    );
    let node = c.server_node(rack0[0]);
    c.world
        .schedule_timer(SimTime(dur.as_ps() / 5), node, TOK_INJECT_STORM);

    let mut out = Vec::new();
    let mut last: Vec<u64> = vec![0; pairs.len()];
    for w in 1..=windows {
        let t = SimTime(dur.as_ps() * w as u64 / windows as u64);
        c.run_until(t);
        let mut healthy = 0usize;
        for (i, (_, b)) in pairs.iter().enumerate() {
            let g = c.rdma(*b).total_goodput_bytes();
            if g > last[i] {
                healthy += 1;
            }
            last[i] = g;
        }
        out.push((t, healthy as f64 / pairs.len() as f64));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 5: without watchdogs a single NIC's storm spreads pause
    /// frames to innocent servers and freezes victim traffic.
    #[test]
    fn storm_without_watchdogs_blocks_victims() {
        let r = run(false, SimTime::from_millis(40));
        assert!(r.victim_pause_rx > 0, "pauses must propagate to victims");
        assert!(
            r.healthy_pairs < r.total_pairs,
            "some victims must be blocked: {}/{}",
            r.healthy_pairs,
            r.total_pairs
        );
        assert!(!r.nic_watchdog_fired && !r.switch_watchdog_fired);
    }

    /// §4.3: with the two watchdogs armed, the storm is contained and
    /// victims keep working.
    #[test]
    fn watchdogs_contain_the_storm() {
        let r = run(true, SimTime::from_millis(40));
        assert!(
            r.nic_watchdog_fired || r.switch_watchdog_fired,
            "at least one watchdog must fire"
        );
        assert_eq!(
            r.healthy_pairs, r.total_pairs,
            "all victims must stay healthy"
        );
    }

    /// Figure 9(a): availability dips when the storm starts and recovers
    /// only with watchdogs.
    #[test]
    fn availability_recovers_only_with_watchdogs() {
        let dur = SimTime::from_millis(40);
        let without = availability_series(false, dur, 10);
        let with = availability_series(true, dur, 10);
        let tail_without = without.last().unwrap().1;
        let tail_with = with.last().unwrap().1;
        assert!(tail_with > 0.99, "watchdogs: tail availability {tail_with}");
        assert!(
            tail_without < tail_with,
            "no watchdogs must be worse: {tail_without} vs {tail_with}"
        );
    }
}
