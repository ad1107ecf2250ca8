//! The fourth configuration profile: observation.
//!
//! [`FabricProfile`], [`TransportProfile`] and [`FaultProfile`] cover
//! what the fabric *does*; [`InstrumentationProfile`] covers how a run
//! is *observed* — the telemetry hub, the dispatch profiler, and the
//! streaming trace sink — one coherent group with the same shape as the
//! other profiles: `paper_default()` plus chainable setters.
//!
//! Everything in this profile is observation-only: any combination of
//! settings dispatches the exact golden event trace (tier-1 tests pin
//! this for the hub, the profiler, and the sink individually).
//!
//! [`FabricProfile`]: crate::FabricProfile
//! [`TransportProfile`]: crate::TransportProfile
//! [`FaultProfile`]: crate::FaultProfile

use rocescale_monitor::{MetricsHub, TraceFilter, TraceSink};
use rocescale_sim::ProfileMode;

/// How a cluster run is observed: telemetry hub, dispatch profiler,
/// streaming trace sink.
///
/// Not `Clone`: an attached sink is an exclusive resource (a file
/// handle, a test buffer); build one profile per cluster.
pub struct InstrumentationProfile {
    /// The telemetry hub every device registers its instruments on.
    /// Disabled by default — a disabled hub costs nothing.
    pub telemetry: MetricsHub,
    /// Dispatch-profiler mode (default: off).
    pub profile: ProfileMode,
    /// Streaming trace sink and its record filter, if attached.
    /// Attaching a sink implies an enabled hub: the builder upgrades a
    /// disabled `telemetry` to [`MetricsHub::enabled`] at build time so
    /// the sink actually sees records.
    pub sink: Option<(Box<dyn TraceSink>, TraceFilter)>,
}

impl InstrumentationProfile {
    /// The default observation setup (what every scenario before this
    /// profile existed got implicitly): no telemetry hub, profiler off,
    /// no trace sink.
    pub fn paper_default() -> InstrumentationProfile {
        InstrumentationProfile {
            telemetry: MetricsHub::disabled(),
            profile: ProfileMode::default(),
            sink: None,
        }
    }

    /// Attach a telemetry hub.
    pub fn telemetry(mut self, hub: MetricsHub) -> Self {
        self.telemetry = hub;
        self
    }

    /// Set the dispatch-profiler mode.
    pub fn profiler(mut self, p: ProfileMode) -> Self {
        self.profile = p;
        self
    }

    /// Attach a streaming trace sink receiving every record class
    /// (flight events, rate changes among them; hops; queue samples).
    pub fn trace_sink(self, sink: impl TraceSink + 'static) -> Self {
        self.trace_sink_filtered(sink, TraceFilter::all())
    }

    /// Attach a streaming trace sink with an explicit record filter.
    pub fn trace_sink_filtered(mut self, sink: impl TraceSink + 'static, f: TraceFilter) -> Self {
        self.sink = Some((Box::new(sink), f));
        self
    }
}

impl Default for InstrumentationProfile {
    fn default() -> InstrumentationProfile {
        InstrumentationProfile::paper_default()
    }
}

impl std::fmt::Debug for InstrumentationProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstrumentationProfile")
            .field("telemetry", &self.telemetry)
            .field("profile", &self.profile)
            .field("sink", &self.sink.as_ref().map(|(_, filter)| filter))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocescale_monitor::MemorySink;

    #[test]
    fn paper_default_observes_nothing_but_digests() {
        let i = InstrumentationProfile::paper_default();
        assert!(!i.telemetry.is_enabled());
        assert_eq!(i.profile, ProfileMode::Off);
        assert!(i.sink.is_none());
    }

    #[test]
    fn setters_chain() {
        let i = InstrumentationProfile::paper_default()
            .telemetry(MetricsHub::enabled())
            .profiler(ProfileMode::On)
            .trace_sink_filtered(MemorySink::new(), TraceFilter::no_hops());
        assert!(i.telemetry.is_enabled());
        assert_eq!(i.profile, ProfileMode::On);
        let (_, filter) = i.sink.as_ref().unwrap();
        assert!(!filter.hops && filter.events);
    }

    #[test]
    fn profile_is_send() {
        // The fleet runner builds clusters (profile included) inside
        // worker threads.
        fn assert_send<T: Send>() {}
        assert_send::<InstrumentationProfile>();
    }
}
