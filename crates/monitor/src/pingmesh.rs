//! RDMA Pingmesh (§5.3): "We let the servers ping each other using RDMA …
//! RDMA Pingmesh launches RDMA probes, with payload size 512 bytes, to
//! the servers at different locations (ToR, Podset, Data center) and logs
//! the measured RTT (if probes succeed) or error code (if probes fail)."
//!
//! The probing itself is the RDMA hosts' `Pinger`/`Echo` apps; this module
//! aggregates the resulting samples per source/destination scope.

use std::collections::HashMap;

use crate::stats::Percentiles;
use crate::telemetry::{CounterId, Group, HistogramId, MetricsHub, Path, ScopeId};

/// The standard Pingmesh probe payload.
pub const PROBE_BYTES: u32 = 512;

/// Scope of a probe, per the paper's three levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scope {
    /// Same ToR.
    IntraTor,
    /// Same podset, different ToR.
    IntraPodset,
    /// Across the spine layer.
    IntraDc,
}

impl Scope {
    /// The hub scope its instruments are named under.
    fn path(self) -> Path {
        Path::fixed(match self {
            Scope::IntraTor => "pingmesh.tor",
            Scope::IntraPodset => "pingmesh.podset",
            Scope::IntraDc => "pingmesh.dc",
        })
    }
}

impl core::fmt::Display for Scope {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Scope::IntraTor => write!(f, "tor"),
            Scope::IntraPodset => write!(f, "podset"),
            Scope::IntraDc => write!(f, "dc"),
        }
    }
}

/// One probe outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeResult {
    /// Round trip completed in this many picoseconds.
    Rtt(u64),
    /// Probe failed (timeout or error code).
    Failed,
}

/// Aggregated Pingmesh results.
#[derive(Debug, Clone, Default)]
pub struct Pingmesh {
    per_scope: HashMap<Scope, Percentiles>,
    /// Each scope's probe and failure counts and hub instruments,
    /// indexed by [`Scope`].
    counts: [ScopeCounts; 3],
    /// Telemetry hub the aggregation is mirrored into, if bound: each
    /// scope's RTTs feed a `pingmesh.{scope}.rtt_ps` histogram, and its
    /// probe/failure counters are copies of the counts kept here — so
    /// Pingmesh shows up in hub snapshots and exported traces, not just
    /// this struct's render. A disabled (or unbound) hub makes the
    /// mirroring a no-op.
    hub: MetricsHub,
}

/// One scope's counts, and the hub instruments that copy them and the
/// hub scope they are named under — each instrument registered the
/// first time it is needed, so only the instruments a run used exist,
/// each from its first use on.
#[derive(Debug, Clone, Copy, Default)]
struct ScopeCounts {
    probes: u64,
    failures: u64,
    scope: Option<ScopeId>,
    probes_id: Option<CounterId>,
    rtt_id: Option<HistogramId>,
    failures_id: Option<CounterId>,
}

impl Pingmesh {
    /// Empty aggregator.
    pub fn new() -> Pingmesh {
        Pingmesh::default()
    }

    /// Empty aggregator mirroring into `hub` (§5's "RDMA Pingmesh data
    /// feeds the same monitoring pipeline as the counters").
    pub fn with_hub(hub: MetricsHub) -> Pingmesh {
        Pingmesh {
            hub,
            ..Pingmesh::default()
        }
    }

    /// Record a probe outcome, and publish the scope's counts to the hub
    /// under one lock.
    pub fn record(&mut self, scope: Scope, result: ProbeResult) {
        let hub = &self.hub;
        let c = &mut self.counts[scope as usize];
        c.probes += 1;
        let hub_scope = &mut c.scope;
        let mut register = |group| {
            let id = *hub_scope.get_or_insert_with(|| hub.register(scope.path(), &[]).scope);
            hub.register_in(id, &[group])
        };
        let probes = *c
            .probes_id
            .get_or_insert_with(|| register(Group::counters(&["probes"])).counter(0));
        match result {
            ProbeResult::Rtt(ps) => {
                self.per_scope.entry(scope).or_default().add(ps);
                let rtt = *c
                    .rtt_id
                    .get_or_insert_with(|| register(Group::histograms(&["rtt_ps"])).histogram(0));
                hub.update(|v| {
                    v.set_counter(probes, c.probes);
                    v.observe(rtt, ps);
                });
            }
            ProbeResult::Failed => {
                c.failures += 1;
                let failures = *c
                    .failures_id
                    .get_or_insert_with(|| register(Group::counters(&["failures"])).counter(0));
                hub.update(|v| {
                    v.set_counter(probes, c.probes);
                    v.set_counter(failures, c.failures);
                });
            }
        }
    }

    /// Record a batch of raw RTT samples for one scope.
    pub fn record_samples(&mut self, scope: Scope, samples: &[u64]) {
        for s in samples {
            self.record(scope, ProbeResult::Rtt(*s));
        }
    }

    /// Total probes recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.probes).sum()
    }

    /// Failure count for a scope.
    pub fn failures(&self, scope: Scope) -> u64 {
        self.counts[scope as usize].failures
    }

    /// Percentile access for a scope.
    pub fn scope_mut(&mut self, scope: Scope) -> Option<&mut Percentiles> {
        self.per_scope.get_mut(&scope)
    }

    /// "Is RDMA working?" — the paper's operational question: healthy
    /// when the failure fraction is tiny and the p99 is under `p99_ps`.
    pub fn healthy(&mut self, scope: Scope, p99_ps: u64) -> bool {
        let fails = self.failures(scope);
        let Some(p) = self.per_scope.get_mut(&scope) else {
            return false;
        };
        let n = p.count() as u64;
        if n == 0 || fails * 100 > n {
            return false;
        }
        p.p99().is_some_and(|v| v <= p99_ps)
    }

    /// Render the percentile table (µs) the experiments print.
    pub fn render(&mut self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>8} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "scope", "probes", "p50(us)", "p99(us)", "p99.9(us)", "fails"
        );
        let mut scopes: Vec<Scope> = self.per_scope.keys().copied().collect();
        scopes.sort();
        for s in scopes {
            let fails = self.failures(s);
            let p = self.per_scope.get_mut(&s).expect("key from iteration");
            let us = |v: Option<u64>| v.map_or(0.0, |v| v as f64 / 1e6);
            let _ = writeln!(
                out,
                "{:>8} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10}",
                s.to_string(),
                p.count(),
                us(p.p50()),
                us(p.p99()),
                us(p.p999()),
                fails
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_per_scope() {
        let mut pm = Pingmesh::new();
        pm.record_samples(Scope::IntraTor, &[50_000_000, 60_000_000, 55_000_000]);
        pm.record(Scope::IntraDc, ProbeResult::Rtt(90_000_000));
        pm.record(Scope::IntraDc, ProbeResult::Failed);
        assert_eq!(pm.total(), 5);
        assert_eq!(pm.failures(Scope::IntraDc), 1);
        assert_eq!(
            pm.scope_mut(Scope::IntraTor).unwrap().p50(),
            Some(55_000_000)
        );
    }

    /// §5.3: "From the measured RTT of RDMA Pingmesh, we can infer if
    /// RDMA is working well or not."
    #[test]
    fn health_inference() {
        let mut pm = Pingmesh::new();
        pm.record_samples(Scope::IntraTor, &vec![80_000_000u64; 200]);
        assert!(pm.healthy(Scope::IntraTor, 90_000_000));
        assert!(!pm.healthy(Scope::IntraTor, 70_000_000), "p99 too high");
        assert!(
            !pm.healthy(Scope::IntraDc, u64::MAX),
            "no data = not healthy"
        );
        // >1% failures = unhealthy.
        for _ in 0..5 {
            pm.record(Scope::IntraTor, ProbeResult::Failed);
        }
        assert!(!pm.healthy(Scope::IntraTor, 90_000_000));
    }

    /// A hub-bound aggregator mirrors every outcome into telemetry:
    /// per-scope RTT histograms plus probe/failure counters, visible in
    /// hub snapshots under `pingmesh.*` names.
    #[test]
    fn bound_hub_sees_percentiles_and_counts() {
        let hub = MetricsHub::enabled();
        let mut pm = Pingmesh::with_hub(hub.clone());
        pm.record_samples(Scope::IntraTor, &[10_000, 20_000, 30_000]);
        pm.record(Scope::IntraDc, ProbeResult::Rtt(90_000));
        pm.record(Scope::IntraDc, ProbeResult::Failed);
        assert_eq!(hub.counter_value("pingmesh.tor.probes"), Some(3));
        assert_eq!(hub.counter_value("pingmesh.dc.probes"), Some(2));
        assert_eq!(hub.counter_value("pingmesh.dc.failures"), Some(1));
        assert_eq!(hub.counter_value("pingmesh.tor.failures"), None);
        let mut h = hub.histogram_snapshot("pingmesh.tor.rtt_ps").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.p50(), Some(20_000));
        // And the aggregator's own view is unchanged by the mirroring.
        assert_eq!(pm.total(), 5);
        assert_eq!(pm.scope_mut(Scope::IntraTor).unwrap().p50(), Some(20_000));
        // An unbound aggregator stays hub-silent.
        let mut silent = Pingmesh::new();
        silent.record(Scope::IntraTor, ProbeResult::Rtt(1));
        assert_eq!(hub.counter_value("pingmesh.tor.probes"), Some(3));
    }

    #[test]
    fn render_table() {
        let mut pm = Pingmesh::new();
        pm.record_samples(Scope::IntraPodset, &[100_000_000]);
        let s = pm.render();
        assert!(s.contains("podset"));
        assert!(s.contains("100.0"));
    }
}
