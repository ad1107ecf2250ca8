//! Unified telemetry bus: a [`MetricsHub`] of typed instruments plus a
//! bounded [`FlightRecorder`] of structured trace events.
//!
//! §5 of the paper builds RDMA operability from three legs — PFC/traffic
//! counters everywhere, configuration monitoring, and Pingmesh. This
//! module is the first leg generalized: every layer (switch, NIC,
//! transport, DCQCN, TCP, and the event engine itself) registers
//! instruments under hierarchical dotted names
//! (`switch.t0.port.2.pfc.xoff_tx`, `nic.s7.qp.0.retransmits`) in one
//! hub, and noteworthy transitions (drops with reason, pause TX/RX,
//! watchdog fires, ARP-incomplete drops, go-back-N rollbacks, DCQCN rate
//! cuts) land in a flight-recorder ring for post-mortem inspection.
//!
//! Three invariants shape the design:
//!
//! * **Zero cost when disabled.** The hub handle is an
//!   `Option<Arc<..>>`; a disabled hub hands out sentinel instrument ids
//!   without allocating and every record call is an inlined no-op behind
//!   a single sentinel compare.
//! * **Lock-free on the hot path.** Counter and gauge *updates* are the
//!   per-packet/per-event path (every hop increments several counters),
//!   so they never take a lock: values live in preallocated chunks of
//!   `AtomicU64` slots indexed directly by the `CounterId`/`GaugeId`
//!   handed out at registration, and an update is one relaxed
//!   `fetch_add`/`store` with no allocation. Only registration,
//!   sampling, and snapshot/export — the rare paths — take the `Mutex`.
//!   The flight recorder keeps its own small mutex, separate from the
//!   registration lock: trace events (drops, pauses, watchdog fires) are
//!   orders of magnitude rarer than counter bumps.
//! * **Digest neutrality.** The hub never schedules simulator events,
//!   never draws randomness, and never touches packet contents — it only
//!   observes. Sampling is driven by the caller (the cluster chunks its
//!   `run_until` at sampling boundaries), so the golden dispatch digest
//!   is byte-identical with telemetry on or off; a tier-1 test pins this.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::Json;
use crate::sink::{
    FieldSink, HopRecord, QueueSample, RatePoint, RecordBody, StreamRecord, TraceFilter, TraceSink,
};
use crate::stats::{Percentiles, TimeSeries};

/// Hub tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Sampling cadence for counter/gauge time series, in picoseconds of
    /// simulated time. The paper's production cadence is minutes; the
    /// simulated default is 100 µs so short experiments still get a
    /// usable series.
    pub sample_every_ps: u64,
    /// Flight-recorder capacity in records; the oldest record is evicted
    /// (and counted) once full.
    pub flight_capacity: usize,
    /// Route counter/gauge updates through the registration mutex into a
    /// shadow value table instead of the lock-free atomic bank. This is
    /// the pre-optimization reference path, kept selectable so a
    /// lockstep test can prove the atomic fast path observes the exact
    /// same values on the exact same event stream. Never enable it for
    /// performance work.
    pub locked_reference: bool,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            sample_every_ps: 100_000_000, // 100 µs
            flight_capacity: 4096,
            locked_reference: false,
        }
    }
}

/// Handle to a registered counter. Sentinel when the hub is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle to a registered gauge. Sentinel when the hub is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Handle to a registered histogram. Sentinel when the hub is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(u32);

/// Handle to a flight-recorder scope (the emitting component's name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeId(u32);

const SENTINEL: u32 = u32::MAX;

/// Sink-filter bit for flight-recorder events ([`TraceFilter::bits`]).
const SINK_EVENTS: u32 = 1;
/// Sink-filter bit for per-packet hop records.
const SINK_HOPS: u32 = 1 << 1;
/// Sink-filter bit for periodic queue-depth samples.
const SINK_QUEUES: u32 = 1 << 2;
/// Sink-filter bit for CC rate-change points.
const SINK_RATES: u32 = 1 << 3;

impl CounterId {
    /// The id handed out by a disabled hub.
    pub fn sentinel() -> CounterId {
        CounterId(SENTINEL)
    }
}
impl GaugeId {
    /// The id handed out by a disabled hub.
    pub fn sentinel() -> GaugeId {
        GaugeId(SENTINEL)
    }
}
impl HistogramId {
    /// The id handed out by a disabled hub.
    pub fn sentinel() -> HistogramId {
        HistogramId(SENTINEL)
    }
}
impl ScopeId {
    /// The id handed out by a disabled hub.
    pub fn sentinel() -> ScopeId {
        ScopeId(SENTINEL)
    }
}

// `Default` is the sentinel, so an instrument struct can derive the
// all-sentinel value a disabled hub would hand out without formatting a
// single name.
impl Default for CounterId {
    fn default() -> CounterId {
        CounterId::sentinel()
    }
}
impl Default for GaugeId {
    fn default() -> GaugeId {
        GaugeId::sentinel()
    }
}
impl Default for HistogramId {
    fn default() -> HistogramId {
        HistogramId::sentinel()
    }
}
impl Default for ScopeId {
    fn default() -> ScopeId {
        ScopeId::sentinel()
    }
}

/// A structured trace event for the flight recorder.
///
/// Reasons and causes are `&'static str` so the recorder stays allocation-
/// free per record and `rocescale-monitor` needs no dependency on the
/// crates that define the richer enums (which would invert the layering —
/// they depend on us).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A packet was dropped; `reason` names the `DropReason`.
    Drop {
        /// Stable reason name (e.g. `"BufferOverflow"`).
        reason: &'static str,
    },
    /// A PFC XOFF pause frame was transmitted for `prio` on `port`.
    PauseTx {
        /// Egress port of the pause frame.
        port: u16,
        /// Paused priority class.
        prio: u8,
    },
    /// A PFC pause frame was received on `port` for `prio`.
    PauseRx {
        /// Ingress port of the pause frame.
        port: u16,
        /// Paused priority class.
        prio: u8,
    },
    /// A PFC XON resume frame was transmitted for `prio` on `port`.
    ResumeTx {
        /// Egress port of the resume frame.
        port: u16,
        /// Resumed priority class.
        prio: u8,
    },
    /// The switch PFC-storm watchdog disabled pause handling on a port.
    WatchdogDisabled {
        /// Port whose lossless handling was disabled.
        port: u16,
    },
    /// The switch watchdog re-enabled a previously disabled port.
    WatchdogReenabled {
        /// Port whose lossless handling was restored.
        port: u16,
    },
    /// The NIC-side pause-storm watchdog fired (§4.3 mitigation).
    NicWatchdogFired,
    /// A lossless-class packet was dropped on an incomplete ARP entry
    /// instead of being flooded (§4.2 mitigation).
    ArpIncompleteDrop,
    /// A transport sender rolled its send window back (go-back-N /
    /// go-back-0).
    Rollback {
        /// What triggered the rewind (`"nak"` or `"rto"`).
        cause: &'static str,
        /// PSN the sender rewound to.
        to_psn: u32,
        /// Packets between the old and new send pointer (retransmit
        /// volume).
        pkts: u32,
    },
    /// A congestion controller changed a QP's sending rate.
    RateChange {
        /// Which controller acted (`"dcqcn"`, `"timely"`).
        cc: &'static str,
        /// New rate in Mbit/s.
        rate_mbps: u32,
        /// What moved it (`"cnp"`, `"increase"`, `"rtt-high"`, …).
        cause: &'static str,
    },
    /// A deliberate pause-storm injection began (experiment fault).
    StormStart,
    /// A deliberate pause-storm injection was stopped (fault script).
    StormStop,
    /// The live deadlock detector found a cycle in the pause-wait graph
    /// with corroborating zero-progress devices (§4.2 signature).
    DeadlockSuspected {
        /// Number of devices around the detected wait cycle.
        cycle_len: u16,
    },
}

impl TraceEvent {
    /// Stable kind tag for rendering and filtering.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::PauseTx { .. } => "pause_tx",
            TraceEvent::PauseRx { .. } => "pause_rx",
            TraceEvent::ResumeTx { .. } => "resume_tx",
            TraceEvent::WatchdogDisabled { .. } => "watchdog_disabled",
            TraceEvent::WatchdogReenabled { .. } => "watchdog_reenabled",
            TraceEvent::NicWatchdogFired => "nic_watchdog_fired",
            TraceEvent::ArpIncompleteDrop => "arp_incomplete_drop",
            TraceEvent::Rollback { .. } => "rollback",
            TraceEvent::RateChange { .. } => "rate_change",
            TraceEvent::StormStart => "storm_start",
            TraceEvent::StormStop => "storm_stop",
            TraceEvent::DeadlockSuspected { .. } => "deadlock_suspected",
        }
    }

    /// Describe the kind-specific fields to `out`, in line order (the
    /// `kind` tag itself belongs to the record header).
    pub(crate) fn visit(&self, out: &mut impl FieldSink) {
        match *self {
            TraceEvent::Drop { reason } => out.str("reason", reason),
            TraceEvent::PauseTx { port, prio }
            | TraceEvent::PauseRx { port, prio }
            | TraceEvent::ResumeTx { port, prio } => {
                out.u64("port", port as u64);
                out.u64("prio", prio as u64);
            }
            TraceEvent::WatchdogDisabled { port } | TraceEvent::WatchdogReenabled { port } => {
                out.u64("port", port as u64);
            }
            TraceEvent::Rollback {
                cause,
                to_psn,
                pkts,
            } => {
                out.str("cause", cause);
                out.u64("to_psn", to_psn as u64);
                out.u64("pkts", pkts as u64);
            }
            TraceEvent::RateChange {
                cc,
                rate_mbps,
                cause,
            } => {
                out.str("cc", cc);
                out.u64("rate_mbps", rate_mbps as u64);
                out.str("cause", cause);
            }
            TraceEvent::DeadlockSuspected { cycle_len } => {
                out.u64("cycle_len", cycle_len as u64);
            }
            TraceEvent::NicWatchdogFired
            | TraceEvent::ArpIncompleteDrop
            | TraceEvent::StormStart
            | TraceEvent::StormStop => {}
        }
    }
}

/// One flight-recorder entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Monotone sequence number (survives eviction; gaps never occur —
    /// `seq` of the oldest retained record equals `dropped`).
    pub seq: u64,
    /// Simulated time of the event, picoseconds.
    pub t_ps: u64,
    /// Which component emitted it.
    pub scope: ScopeId,
    /// The event payload.
    pub event: TraceEvent,
}

/// Bounded ring of [`TraceRecord`]s. Oldest records are evicted (and
/// counted) once capacity is reached, so the recorder always holds the
/// most recent window — the black-box-recorder semantics of §5.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: VecDeque<TraceRecord>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl FlightRecorder {
    /// New recorder holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity.clamp(1, 1 << 16)),
            capacity: capacity.max(1),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Append a record, evicting the oldest if full.
    pub fn record(&mut self, t_ps: u64, scope: ScopeId, event: TraceEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TraceRecord {
            seq: self.next_seq,
            t_ps,
            scope,
            event,
        });
        self.next_seq += 1;
    }

    /// Records currently retained, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total records ever recorded (retained + evicted).
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// Records evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Slots in the first lazily-allocated chunk: 256 × 8 bytes = one 2 KiB
/// allocation, all a small hub ever touches. Chunk `k` holds
/// `CHUNK_SLOTS << k` slots, so capacity doubles with each chunk.
const CHUNK_SLOTS: usize = 256;
/// Chunk-table length: 256 × (2¹⁶ − 1) ≈ 16.7 M instruments of each
/// type — a 51 200-host fleet registers ~0.4 M counters in 11 chunks.
const MAX_CHUNKS: usize = 16;

/// Lock-free value store: a fixed table of lazily-initialized chunks of
/// atomic slots, indexed directly by instrument id. Chunks are allocated
/// under the registration mutex (`ensure`); the update path does one
/// bounds check, one `OnceLock` acquire-load, and one relaxed atomic op.
/// Slots are never freed or moved, so a handle stays valid for the hub's
/// lifetime.
struct AtomicBank {
    chunks: [OnceLock<Box<[AtomicU64]>>; MAX_CHUNKS],
}

/// Where `id` lives: (chunk, slot within it). Chunk `k` starts at id
/// `CHUNK_SLOTS × (2ᵏ − 1)`.
#[inline]
fn bank_index(id: u32) -> (usize, usize) {
    let idx = id as usize;
    let chunk = (idx / CHUNK_SLOTS + 1).ilog2() as usize;
    (chunk, idx - CHUNK_SLOTS * ((1 << chunk) - 1))
}

impl AtomicBank {
    fn new() -> AtomicBank {
        AtomicBank {
            chunks: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Allocate the chunk holding `id` if it does not exist yet. Called
    /// at registration time, under the registration mutex.
    fn ensure(&self, id: u32) {
        let (chunk, _) = bank_index(id);
        assert!(
            chunk < MAX_CHUNKS,
            "telemetry instrument id {id} exceeds bank capacity"
        );
        self.chunks[chunk].get_or_init(|| {
            (0..CHUNK_SLOTS << chunk)
                .map(|_| AtomicU64::new(0))
                .collect()
        });
    }

    /// The slot for `id`, if its chunk has been allocated.
    #[inline]
    fn slot(&self, id: u32) -> Option<&AtomicU64> {
        let (chunk, slot) = bank_index(id);
        self.chunks.get(chunk)?.get().map(|c| &c[slot])
    }

    /// Current raw value of `id` (0 if the chunk was never allocated).
    fn load(&self, id: u32) -> u64 {
        self.slot(id).map_or(0, |s| s.load(Ordering::Relaxed))
    }
}

struct HubInner {
    cfg: TelemetryConfig,
    names: HashMap<String, u32>,
    counter_names: Vec<String>,
    counter_series: Vec<TimeSeries>,
    /// Counter ids ordered by name, brought up to date by
    /// [`HubInner::sync_orders`] on the first snapshot/export after a
    /// registration (registration itself only appends the name).
    counters_by_name: Vec<u32>,
    /// Shadow values for the `locked_reference` mode only.
    locked_counters: Vec<u64>,
    gauge_names: Vec<String>,
    gauge_series: Vec<TimeSeries>,
    gauges_by_name: Vec<u32>,
    locked_gauges: Vec<f64>,
    histogram_names: Vec<String>,
    histograms: Vec<Percentiles>,
    histograms_by_name: Vec<u32>,
    next_sample_ps: u64,
    samples_taken: u64,
}

impl HubInner {
    fn new(cfg: TelemetryConfig) -> HubInner {
        HubInner {
            cfg,
            names: HashMap::new(),
            counter_names: Vec::new(),
            counter_series: Vec::new(),
            counters_by_name: Vec::new(),
            locked_counters: Vec::new(),
            gauge_names: Vec::new(),
            gauge_series: Vec::new(),
            gauges_by_name: Vec::new(),
            locked_gauges: Vec::new(),
            histogram_names: Vec::new(),
            histograms: Vec::new(),
            histograms_by_name: Vec::new(),
            next_sample_ps: 0,
            samples_taken: 0,
        }
    }

    /// Bring the three name orders up to date with the instruments
    /// registered since the last snapshot or export.
    fn sync_orders(&mut self) {
        sync_order(&mut self.counters_by_name, &self.counter_names);
        sync_order(&mut self.gauges_by_name, &self.gauge_names);
        sync_order(&mut self.histograms_by_name, &self.histogram_names);
    }
}

#[cfg(test)]
thread_local! {
    /// Name comparisons [`sync_order`] has made on this thread.
    static ORDER_COMPARISONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Make `order` the ids of `names` (dense, `0..names.len()`) sorted by
/// name. Ids registered since the last call are appended and merged by
/// one stable sort, whose run detection passes over the already sorted
/// prefix once — O(n log n) for a whole fleet's registrations, where an
/// ordered insert per registration was O(n²). Names are unique per
/// instrument type, so the order is unambiguous.
fn sync_order(order: &mut Vec<u32>, names: &[String]) {
    if order.len() == names.len() {
        return;
    }
    order.extend(order.len() as u32..names.len() as u32);
    order.sort_by(|&a, &b| {
        #[cfg(test)]
        ORDER_COMPARISONS.with(|c| c.set(c.get() + 1));
        names[a as usize].cmp(&names[b as usize])
    });
}

/// Everything a streamed record needs, under one mutex: the sink and the
/// scope-name table its records borrow from. Emission takes this lock
/// and no other.
#[derive(Default)]
struct StreamState {
    /// Attached streaming trace sink, if any.
    sink: Option<Box<dyn TraceSink>>,
    /// Scope names by [`ScopeId`], appended at registration.
    scope_names: Vec<String>,
}

/// The name `id` was registered under (`"?"` for a foreign or sentinel
/// id).
fn scope_name(names: &[String], id: ScopeId) -> &str {
    names.get(id.0 as usize).map_or("?", |n| n)
}

/// Shared state behind an enabled hub: the lock-free value banks, the
/// flight recorder under its own small mutex, the streaming state under
/// another, and everything rare (registration, series, histograms,
/// sampling) under the inner mutex. Where locks nest, the order is
/// `inner` → `stream` → `flight`.
struct HubShared {
    counters: AtomicBank,
    gauges: AtomicBank,
    flight: Mutex<FlightRecorder>,
    inner: Mutex<HubInner>,
    /// Copied out of `TelemetryConfig` so the hot path reads it without
    /// locking.
    locked_reference: bool,
    stream: Mutex<StreamState>,
    /// [`TraceFilter::bits`] of the attached sink, 0 when detached. The
    /// per-packet emission guard is one relaxed load of this word — with
    /// no sink the hop path costs a single compare, like a disabled hub.
    sink_flags: AtomicU32,
}

impl HubShared {
    /// Current value of counter `id`, honoring the reference mode.
    fn counter_val(&self, h: &HubInner, id: usize) -> u64 {
        if self.locked_reference {
            h.locked_counters[id]
        } else {
            self.counters.load(id as u32)
        }
    }

    /// Current value of gauge `id`, honoring the reference mode.
    fn gauge_val(&self, h: &HubInner, id: usize) -> f64 {
        if self.locked_reference {
            h.locked_gauges[id]
        } else {
            f64::from_bits(self.gauges.load(id as u32))
        }
    }
}

/// Cloneable handle to the telemetry bus. `MetricsHub::disabled()` (the
/// `Default`) is a free-to-clone null hub; [`MetricsHub::enabled`] backs
/// the handle with shared state. Counter/gauge updates go straight to
/// atomic slots (see `AtomicBank`); the mutexes guard only
/// registration, sampling, snapshots, and the flight recorder. The
/// handle stays `Send + Sync` for the fleet runner, which constructs
/// whole clusters inside worker threads; a poisoned lock (a panic
/// mid-registration) is a bug we surface by unwrapping.
#[derive(Clone, Default)]
pub struct MetricsHub {
    inner: Option<Arc<HubShared>>,
}

impl std::fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "MetricsHub(disabled)"),
            Some(s) => {
                let h = s.inner.lock().unwrap();
                let flight_len = s.flight.lock().unwrap().len();
                write!(
                    f,
                    "MetricsHub({} counters, {} gauges, {} histograms, {} trace records)",
                    h.counter_names.len(),
                    h.gauge_names.len(),
                    h.histograms.len(),
                    flight_len
                )
            }
        }
    }
}

impl MetricsHub {
    /// A hub that records nothing; all operations are inlined no-ops.
    pub fn disabled() -> MetricsHub {
        MetricsHub { inner: None }
    }

    /// An active hub with default configuration.
    pub fn enabled() -> MetricsHub {
        MetricsHub::with_config(TelemetryConfig::default())
    }

    /// An active hub on the pre-optimization mutex reference path — every
    /// update takes the registration lock. Exists so the lockstep test
    /// can pin the atomic fast path against it; see
    /// [`TelemetryConfig::locked_reference`].
    pub fn enabled_locked_reference() -> MetricsHub {
        MetricsHub::with_config(TelemetryConfig {
            locked_reference: true,
            ..TelemetryConfig::default()
        })
    }

    /// An active hub with explicit configuration.
    pub fn with_config(cfg: TelemetryConfig) -> MetricsHub {
        MetricsHub {
            inner: Some(Arc::new(HubShared {
                counters: AtomicBank::new(),
                gauges: AtomicBank::new(),
                flight: Mutex::new(FlightRecorder::new(cfg.flight_capacity)),
                inner: Mutex::new(HubInner::new(cfg)),
                locked_reference: cfg.locked_reference,
                stream: Mutex::new(StreamState::default()),
                sink_flags: AtomicU32::new(0),
            })),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    // ---- registration -------------------------------------------------

    /// Register (or look up) a counter under a hierarchical dotted name.
    /// Re-registering a name returns the same id.
    pub fn counter(&self, name: &str) -> CounterId {
        let Some(s) = &self.inner else {
            return CounterId::sentinel();
        };
        let mut h = s.inner.lock().unwrap();
        let key = format!("c:{name}");
        if let Some(&id) = h.names.get(&key) {
            return CounterId(id);
        }
        let id = h.counter_names.len() as u32;
        s.counters.ensure(id);
        h.counter_names.push(name.to_string());
        h.counter_series.push(TimeSeries::new());
        h.locked_counters.push(0);
        h.names.insert(key, id);
        CounterId(id)
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, name: &str) -> GaugeId {
        let Some(s) = &self.inner else {
            return GaugeId::sentinel();
        };
        let mut h = s.inner.lock().unwrap();
        let key = format!("g:{name}");
        if let Some(&id) = h.names.get(&key) {
            return GaugeId(id);
        }
        let id = h.gauge_names.len() as u32;
        s.gauges.ensure(id);
        h.gauge_names.push(name.to_string());
        h.gauge_series.push(TimeSeries::new());
        h.locked_gauges.push(0.0);
        h.names.insert(key, id);
        GaugeId(id)
    }

    /// Register (or look up) an exact histogram.
    pub fn histogram(&self, name: &str) -> HistogramId {
        let Some(s) = &self.inner else {
            return HistogramId::sentinel();
        };
        let mut h = s.inner.lock().unwrap();
        let key = format!("h:{name}");
        if let Some(&id) = h.names.get(&key) {
            return HistogramId(id);
        }
        let id = h.histograms.len() as u32;
        h.histograms.push(Percentiles::new());
        h.histogram_names.push(name.to_string());
        h.names.insert(key, id);
        HistogramId(id)
    }

    /// Register a flight-recorder scope (the emitting component's name).
    pub fn scope(&self, name: &str) -> ScopeId {
        let Some(s) = &self.inner else {
            return ScopeId::sentinel();
        };
        let mut h = s.inner.lock().unwrap();
        let key = format!("s:{name}");
        if let Some(&id) = h.names.get(&key) {
            return ScopeId(id);
        }
        let mut st = s.stream.lock().unwrap();
        let id = st.scope_names.len() as u32;
        st.scope_names.push(name.to_string());
        h.names.insert(key, id);
        ScopeId(id)
    }

    // ---- recording ----------------------------------------------------

    /// Add `n` to a counter. Lock-free: one relaxed `fetch_add` on the
    /// preallocated slot; a no-op behind a single compare when disabled.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        if id.0 == SENTINEL {
            return;
        }
        let Some(s) = &self.inner else { return };
        if s.locked_reference {
            s.inner.lock().unwrap().locked_counters[id.0 as usize] += n;
        } else if let Some(slot) = s.counters.slot(id.0) {
            slot.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment a counter by one.
    #[inline]
    pub fn incr(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Set a gauge's current value. Lock-free: one relaxed store of the
    /// value's bit pattern.
    #[inline]
    pub fn set_gauge(&self, id: GaugeId, v: f64) {
        if id.0 == SENTINEL {
            return;
        }
        let Some(s) = &self.inner else { return };
        if s.locked_reference {
            s.inner.lock().unwrap().locked_gauges[id.0 as usize] = v;
        } else if let Some(slot) = s.gauges.slot(id.0) {
            slot.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Record one histogram observation. Histograms stay under the inner
    /// mutex: observations are per-message (RTT samples), not per-packet.
    #[inline]
    pub fn observe(&self, id: HistogramId, v: u64) {
        if id.0 == SENTINEL {
            return;
        }
        if let Some(s) = &self.inner {
            s.inner.lock().unwrap().histograms[id.0 as usize].add(v);
        }
    }

    /// Append a trace event to the flight recorder. Takes only the
    /// recorder's own mutex, never the registration lock — unless a
    /// sink is attached with the events class selected, in which case
    /// the event is also teed into the unbounded stream.
    #[inline]
    pub fn trace(&self, t_ps: u64, scope: ScopeId, event: TraceEvent) {
        if let Some(s) = &self.inner {
            s.flight.lock().unwrap().record(t_ps, scope, event);
            if s.sink_flags.load(Ordering::Relaxed) & SINK_EVENTS != 0 {
                self.stream(t_ps, scope, RecordBody::Event(event));
            }
        }
    }

    // ---- trace streaming ----------------------------------------------

    /// Attach a streaming trace sink. Records matching `filter` flow to
    /// it from now on; any previously attached sink is flushed and
    /// returned. The sink only observes — attaching one never perturbs
    /// the dispatch trace (a tier-1 test pins this against the golden
    /// digest). No-op returning the sink on a disabled hub.
    pub fn attach_sink(
        &self,
        sink: Box<dyn TraceSink>,
        filter: TraceFilter,
    ) -> Option<Box<dyn TraceSink>> {
        let Some(s) = &self.inner else {
            return Some(sink);
        };
        let mut st = s.stream.lock().unwrap();
        let mut old = st.sink.replace(sink);
        if let Some(prev) = old.as_mut() {
            prev.flush();
        }
        s.sink_flags.store(filter.bits(), Ordering::Relaxed);
        old
    }

    /// Detach the current sink (flushed), stopping all streaming.
    pub fn detach_sink(&self) -> Option<Box<dyn TraceSink>> {
        let s = self.inner.as_ref()?;
        s.sink_flags.store(0, Ordering::Relaxed);
        let mut old = s.stream.lock().unwrap().sink.take();
        if let Some(prev) = old.as_mut() {
            prev.flush();
        }
        old
    }

    /// Flush the attached sink's buffered output, if any.
    pub fn flush_sink(&self) {
        if let Some(s) = &self.inner {
            if let Some(sink) = s.stream.lock().unwrap().sink.as_mut() {
                sink.flush();
            }
        }
    }

    /// Whether a sink is attached with at least one record class live.
    #[inline]
    pub fn has_sink(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|s| s.sink_flags.load(Ordering::Relaxed) != 0)
    }

    /// Whether per-packet hop records are being streamed. Emission sites
    /// guard on this before assembling a [`HopRecord`], so a detached
    /// sink keeps the per-packet path at a single relaxed load.
    #[inline]
    pub fn streams_hops(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|s| s.sink_flags.load(Ordering::Relaxed) & SINK_HOPS != 0)
    }

    /// Whether periodic queue-depth samples are being streamed.
    #[inline]
    pub fn streams_queues(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|s| s.sink_flags.load(Ordering::Relaxed) & SINK_QUEUES != 0)
    }

    /// Whether CC rate-change points are being streamed.
    #[inline]
    pub fn streams_rates(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|s| s.sink_flags.load(Ordering::Relaxed) & SINK_RATES != 0)
    }

    /// Stream one per-packet hop record (guard with
    /// [`Self::streams_hops`] to skip field extraction when detached).
    #[inline]
    pub fn stream_hop(&self, t_ps: u64, scope: ScopeId, hop: HopRecord) {
        if self.streams_hops() {
            self.stream(t_ps, scope, RecordBody::Hop(hop));
        }
    }

    /// Stream one periodic queue-depth sample.
    #[inline]
    pub fn stream_queue(&self, t_ps: u64, scope: ScopeId, q: QueueSample) {
        if self.streams_queues() {
            self.stream(t_ps, scope, RecordBody::Queue(q));
        }
    }

    /// Stream one CC rate-change trajectory point.
    #[inline]
    pub fn stream_rate(&self, t_ps: u64, scope: ScopeId, r: RatePoint) {
        if self.streams_rates() {
            self.stream(t_ps, scope, RecordBody::Rate(r));
        }
    }

    /// Resolve the scope name and hand one record to the sink: one lock,
    /// no allocation (the record borrows the name from the table the
    /// lock guards).
    fn stream(&self, t_ps: u64, scope: ScopeId, body: RecordBody) {
        let Some(s) = &self.inner else { return };
        let mut st = s.stream.lock().unwrap();
        let StreamState { sink, scope_names } = &mut *st;
        if let Some(sink) = sink {
            sink.write(&StreamRecord {
                t_ps,
                scope: scope_name(scope_names, scope),
                // Direct emission never knows its shard; the sharded
                // merge stamps the tag when moving bank records into the
                // final sink.
                shard: None,
                body,
            });
        }
    }

    // ---- sampling -----------------------------------------------------

    /// The sampling cadence, if enabled.
    pub fn sample_every_ps(&self) -> Option<u64> {
        self.inner
            .as_ref()
            .map(|s| s.inner.lock().unwrap().cfg.sample_every_ps)
    }

    /// The next simulated time at which [`MetricsHub::maybe_sample`]
    /// will take a sample, if enabled. Drives the caller's run-loop
    /// chunking; the hub itself never schedules simulator events.
    pub fn next_sample_ps(&self) -> Option<u64> {
        self.inner
            .as_ref()
            .map(|s| s.inner.lock().unwrap().next_sample_ps)
    }

    /// Sample every counter and gauge into its time series if `now_ps`
    /// has reached the next sampling boundary. Multiple boundaries
    /// crossed in one call collapse into a single sample at `now_ps`
    /// (series stay monotone; no catch-up fabrication).
    pub fn maybe_sample(&self, now_ps: u64) {
        let Some(s) = &self.inner else { return };
        let mut h = s.inner.lock().unwrap();
        if now_ps < h.next_sample_ps {
            return;
        }
        for id in 0..h.counter_series.len() {
            let v = s.counter_val(&h, id) as f64;
            h.counter_series[id].push(now_ps, v);
        }
        for id in 0..h.gauge_series.len() {
            let v = s.gauge_val(&h, id);
            h.gauge_series[id].push(now_ps, v);
        }
        h.samples_taken += 1;
        let every = h.cfg.sample_every_ps.max(1);
        // Next boundary strictly after now.
        h.next_sample_ps = (now_ps / every + 1) * every;
    }

    /// Number of sampling passes taken so far.
    pub fn samples_taken(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |s| s.inner.lock().unwrap().samples_taken)
    }

    // ---- inspection ---------------------------------------------------

    /// Current value of a counter by name, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let s = self.inner.as_ref()?;
        let h = s.inner.lock().unwrap();
        let id = *h.names.get(&format!("c:{name}"))?;
        Some(s.counter_val(&h, id as usize))
    }

    /// Current value of a gauge by name, if registered.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        let s = self.inner.as_ref()?;
        let h = s.inner.lock().unwrap();
        let id = *h.names.get(&format!("g:{name}"))?;
        Some(s.gauge_val(&h, id as usize))
    }

    /// Clone of a counter's sampled time series by name.
    pub fn counter_series(&self, name: &str) -> Option<TimeSeries> {
        let s = self.inner.as_ref()?;
        let h = s.inner.lock().unwrap();
        let id = *h.names.get(&format!("c:{name}"))?;
        Some(h.counter_series[id as usize].clone())
    }

    /// Clone of a histogram's samples by name.
    pub fn histogram_snapshot(&self, name: &str) -> Option<Percentiles> {
        let s = self.inner.as_ref()?;
        let h = s.inner.lock().unwrap();
        let id = *h.names.get(&format!("h:{name}"))?;
        Some(h.histograms[id as usize].clone())
    }

    /// All registered counter names (sorted) with current values. The
    /// name order is cached: only the first call after a registration
    /// sorts.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        let Some(s) = &self.inner else {
            return Vec::new();
        };
        let mut h = s.inner.lock().unwrap();
        h.sync_orders();
        h.counters_by_name
            .iter()
            .map(|&id| {
                (
                    h.counter_names[id as usize].clone(),
                    s.counter_val(&h, id as usize),
                )
            })
            .collect()
    }

    /// All registered gauge names (sorted) with current values. Like
    /// [`Self::counters_snapshot`], the order is cached.
    pub fn gauges_snapshot(&self) -> Vec<(String, f64)> {
        let Some(s) = &self.inner else {
            return Vec::new();
        };
        let mut h = s.inner.lock().unwrap();
        h.sync_orders();
        h.gauges_by_name
            .iter()
            .map(|&id| {
                (
                    h.gauge_names[id as usize].clone(),
                    s.gauge_val(&h, id as usize),
                )
            })
            .collect()
    }

    /// Flight-recorder records (oldest retained first) with scope names
    /// resolved, plus the evicted-record count.
    pub fn flight_snapshot(&self) -> (Vec<(u64, u64, String, TraceEvent)>, u64) {
        let Some(s) = &self.inner else {
            return (Vec::new(), 0);
        };
        let st = s.stream.lock().unwrap();
        let flight = s.flight.lock().unwrap();
        let rows = flight
            .records()
            .map(|r| {
                (
                    r.seq,
                    r.t_ps,
                    scope_name(&st.scope_names, r.scope).to_string(),
                    r.event,
                )
            })
            .collect();
        (rows, flight.dropped())
    }

    /// Count of flight records by event kind (sorted by kind).
    pub fn flight_kind_counts(&self) -> Vec<(&'static str, u64)> {
        let Some(s) = &self.inner else {
            return Vec::new();
        };
        let flight = s.flight.lock().unwrap();
        let mut counts: HashMap<&'static str, u64> = HashMap::new();
        for r in flight.records() {
            *counts.entry(r.event.kind()).or_insert(0) += 1;
        }
        let mut out: Vec<_> = counts.into_iter().collect();
        out.sort();
        out
    }

    // ---- export -------------------------------------------------------

    /// Render the whole hub (instruments, series, flight recorder) as a
    /// JSON tree. Names come out sorted regardless of registration order;
    /// the order is cached, so only the first export after a
    /// registration sorts, and no name is re-formatted here.
    pub fn render_json(&self) -> Json {
        let Some(s) = &self.inner else {
            return Json::obj(vec![("enabled", Json::Bool(false))]);
        };
        let mut h = s.inner.lock().unwrap();
        h.sync_orders();

        let counters: Vec<(String, Json)> = h
            .counters_by_name
            .iter()
            .map(|&id| {
                (
                    h.counter_names[id as usize].clone(),
                    Json::U64(s.counter_val(&h, id as usize)),
                )
            })
            .collect();

        let gauges: Vec<(String, Json)> = h
            .gauges_by_name
            .iter()
            .map(|&id| {
                (
                    h.gauge_names[id as usize].clone(),
                    Json::F64(s.gauge_val(&h, id as usize)),
                )
            })
            .collect();

        let histograms: Vec<(String, Json)> = h
            .histograms_by_name
            .iter()
            .map(|&id| {
                let n = &h.histogram_names[id as usize];
                let mut p = h.histograms[id as usize].clone();
                (
                    n.clone(),
                    Json::obj(vec![
                        ("count", Json::U64(p.count() as u64)),
                        ("p50", opt_u64(p.p50())),
                        ("p99", opt_u64(p.p99())),
                        ("p999", opt_u64(p.p999())),
                        ("max", opt_u64(p.max())),
                        ("mean", p.mean().map(Json::F64).unwrap_or(Json::Null)),
                    ]),
                )
            })
            .collect();

        // Counter and gauge series merge into one name-sorted map. Both
        // sides are already sorted, so a linear merge suffices.
        let mut series: Vec<(String, Json)> = Vec::new();
        {
            let mut ci = 0;
            let mut gi = 0;
            while ci < h.counters_by_name.len() || gi < h.gauges_by_name.len() {
                let take_counter = match (h.counters_by_name.get(ci), h.gauges_by_name.get(gi)) {
                    (Some(&c), Some(&g)) => {
                        h.counter_names[c as usize] <= h.gauge_names[g as usize]
                    }
                    (Some(_), None) => true,
                    (None, _) => false,
                };
                let (name, ts) = if take_counter {
                    let id = h.counters_by_name[ci] as usize;
                    ci += 1;
                    (&h.counter_names[id], &h.counter_series[id])
                } else {
                    let id = h.gauges_by_name[gi] as usize;
                    gi += 1;
                    (&h.gauge_names[id], &h.gauge_series[id])
                };
                if !ts.points().is_empty() {
                    series.push((name.clone(), series_json(ts)));
                }
            }
        }

        let st = s.stream.lock().unwrap();
        let flight_lock = s.flight.lock().unwrap();
        let flight: Vec<Json> = flight_lock
            .records()
            .map(|r| {
                let mut pairs: Vec<(String, Json)> = Vec::new();
                pairs.u64("seq", r.seq);
                pairs.u64("t_ps", r.t_ps);
                pairs.str("scope", scope_name(&st.scope_names, r.scope));
                pairs.str("kind", r.event.kind());
                r.event.visit(&mut pairs);
                Json::Obj(pairs)
            })
            .collect();

        Json::obj(vec![
            ("enabled", Json::Bool(true)),
            ("sample_every_ps", Json::U64(h.cfg.sample_every_ps)),
            ("samples_taken", Json::U64(h.samples_taken)),
            ("counters", Json::Obj(counters)),
            ("gauges", Json::Obj(gauges)),
            ("histograms", Json::Obj(histograms)),
            ("series", Json::Obj(series)),
            (
                "flight_recorder",
                Json::obj(vec![
                    ("dropped", Json::U64(flight_lock.dropped())),
                    ("total_recorded", Json::U64(flight_lock.total_recorded())),
                    ("records", Json::Arr(flight)),
                ]),
            ),
        ])
    }
}

fn opt_u64(v: Option<u64>) -> Json {
    v.map(Json::U64).unwrap_or(Json::Null)
}

fn series_json(s: &TimeSeries) -> Json {
    Json::Arr(
        s.points()
            .iter()
            .map(|(t, v)| Json::Arr(vec![Json::U64(*t), Json::F64(*v)]))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hub_is_inert() {
        let hub = MetricsHub::disabled();
        assert!(!hub.is_enabled());
        let c = hub.counter("switch.t0.drop.total");
        let g = hub.gauge("nic.s0.rate");
        let h = hub.histogram("nic.s0.rtt_ps");
        let s = hub.scope("switch.t0");
        assert_eq!(c, CounterId::sentinel());
        hub.add(c, 5);
        hub.incr(c);
        hub.set_gauge(g, 1.0);
        hub.observe(h, 9);
        hub.trace(0, s, TraceEvent::NicWatchdogFired);
        hub.maybe_sample(1_000_000_000);
        assert_eq!(hub.counter_value("switch.t0.drop.total"), None);
        assert_eq!(hub.samples_taken(), 0);
        assert!(hub.counters_snapshot().is_empty());
        assert_eq!(hub.render_json().render(), r#"{"enabled":false}"#);
    }

    #[test]
    fn counters_and_dedup_registration() {
        let hub = MetricsHub::enabled();
        let a = hub.counter("switch.t0.port.2.pfc.xoff_tx");
        let b = hub.counter("switch.t0.port.2.pfc.xoff_tx");
        assert_eq!(a, b);
        hub.incr(a);
        hub.add(b, 2);
        assert_eq!(hub.counter_value("switch.t0.port.2.pfc.xoff_tx"), Some(3));
        // Same leaf name under a different instrument type is distinct.
        let g = hub.gauge("switch.t0.port.2.pfc.xoff_tx");
        hub.set_gauge(g, 7.5);
        assert_eq!(hub.gauge_value("switch.t0.port.2.pfc.xoff_tx"), Some(7.5));
        assert_eq!(hub.counter_value("switch.t0.port.2.pfc.xoff_tx"), Some(3));
    }

    #[test]
    fn sampling_boundaries() {
        let hub = MetricsHub::with_config(TelemetryConfig {
            sample_every_ps: 100,
            flight_capacity: 8,
            ..TelemetryConfig::default()
        });
        let c = hub.counter("x");
        hub.maybe_sample(0); // boundary 0: sample
        hub.add(c, 1);
        hub.maybe_sample(50); // before next boundary: no sample
        hub.maybe_sample(100); // boundary
        hub.add(c, 1);
        hub.maybe_sample(350); // skipped two boundaries: one sample, not three
        assert_eq!(hub.samples_taken(), 3);
        let series = hub.counter_series("x").unwrap();
        assert_eq!(series.points(), &[(0, 0.0), (100, 1.0), (350, 2.0)]);
        assert_eq!(hub.next_sample_ps(), Some(400));
    }

    #[test]
    fn flight_ring_wraps_and_counts_evictions() {
        let mut fr = FlightRecorder::new(3);
        let s = ScopeId::sentinel();
        for i in 0..5 {
            fr.record(i, s, TraceEvent::NicWatchdogFired);
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.dropped(), 2);
        assert_eq!(fr.total_recorded(), 5);
        let seqs: Vec<u64> = fr.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]); // oldest retained == dropped count
    }

    #[test]
    fn flight_kind_counts_aggregate() {
        let hub = MetricsHub::enabled();
        let s = hub.scope("switch.t0");
        hub.trace(
            1,
            s,
            TraceEvent::Drop {
                reason: "BufferOverflow",
            },
        );
        hub.trace(2, s, TraceEvent::Drop { reason: "Corrupt" });
        hub.trace(3, s, TraceEvent::PauseTx { port: 2, prio: 3 });
        let counts = hub.flight_kind_counts();
        assert_eq!(counts, vec![("drop", 2), ("pause_tx", 1)]);
        let (rows, dropped) = hub.flight_snapshot();
        assert_eq!(dropped, 0);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].2, "switch.t0");
    }

    #[test]
    fn render_json_is_sorted_and_parseable() {
        let hub = MetricsHub::with_config(TelemetryConfig {
            sample_every_ps: 10,
            flight_capacity: 4,
            ..TelemetryConfig::default()
        });
        let z = hub.counter("z.last");
        let a = hub.counter("a.first");
        hub.add(z, 9);
        hub.add(a, 1);
        let h = hub.histogram("nic.s0.rtt_ps");
        for v in [10, 20, 30] {
            hub.observe(h, v);
        }
        let s = hub.scope("nic.s0");
        hub.trace(
            5,
            s,
            TraceEvent::RateChange {
                cc: "dcqcn",
                rate_mbps: 1000,
                cause: "cnp",
            },
        );
        hub.maybe_sample(10);
        let text = hub.render_json().render();
        let back = crate::json::parse(&text).expect("hub JSON must parse");
        let counters = back.get("counters").unwrap();
        // Sorted: "a.first" renders before "z.last".
        assert!(text.find("a.first").unwrap() < text.find("z.last").unwrap());
        assert_eq!(counters.get("z.last"), Some(&Json::U64(9)));
        let hist = back
            .get("histograms")
            .unwrap()
            .get("nic.s0.rtt_ps")
            .unwrap();
        assert_eq!(hist.get("p50"), Some(&Json::U64(20)));
        let flight = back.get("flight_recorder").unwrap();
        assert_eq!(flight.get("records").unwrap().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn hub_handles_are_send_and_sync() {
        // The fleet runner moves cluster construction (hub included) into
        // worker threads; this fails to compile if that ever regresses.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MetricsHub>();
    }

    #[test]
    fn clones_share_state() {
        let hub = MetricsHub::enabled();
        let c = hub.counter("shared");
        let clone = hub.clone();
        clone.add(c, 4);
        assert_eq!(hub.counter_value("shared"), Some(4));
    }

    /// The atomic fast path and the mutex reference path must be
    /// observationally identical for the same operation stream.
    #[test]
    fn locked_reference_matches_atomic_path() {
        let fast = MetricsHub::enabled();
        let slow = MetricsHub::enabled_locked_reference();
        for hub in [&fast, &slow] {
            let c1 = hub.counter("b.bytes");
            let c2 = hub.counter("a.pkts");
            let g = hub.gauge("q.depth");
            for i in 0..100u64 {
                hub.add(c1, i);
                hub.incr(c2);
                hub.set_gauge(g, i as f64 * 0.5);
            }
            hub.maybe_sample(100);
        }
        assert_eq!(fast.counters_snapshot(), slow.counters_snapshot());
        assert_eq!(fast.gauge_value("q.depth"), slow.gauge_value("q.depth"));
        assert_eq!(
            fast.counter_series("a.pkts").unwrap().points(),
            slow.counter_series("a.pkts").unwrap().points()
        );
    }

    /// Snapshots come out name-sorted whatever the registration order,
    /// including names registered after a snapshot that land in the
    /// middle of the order it cached.
    #[test]
    fn snapshot_sorted_whatever_the_registration_order() {
        let hub = MetricsHub::enabled();
        let names = |hub: &MetricsHub| -> Vec<String> {
            hub.counters_snapshot()
                .into_iter()
                .map(|(n, _)| n)
                .collect()
        };
        for name in ["m.mid", "z.last", "a.first", "m.aaa"] {
            hub.incr(hub.counter(name));
        }
        assert_eq!(names(&hub), vec!["a.first", "m.aaa", "m.mid", "z.last"]);
        hub.incr(hub.counter("m.bbb"));
        hub.gauge("g.late");
        assert_eq!(
            names(&hub),
            vec!["a.first", "m.aaa", "m.bbb", "m.mid", "z.last"]
        );
        assert_eq!(hub.gauges_snapshot()[0].0, "g.late");
    }

    /// The value bank's chunks double in size and tile the id space
    /// without gap or overlap.
    #[test]
    fn bank_chunks_tile_the_id_space() {
        assert_eq!(bank_index(0), (0, 0));
        assert_eq!(bank_index(255), (0, 255));
        assert_eq!(bank_index(256), (1, 0));
        assert_eq!(bank_index(767), (1, 511));
        assert_eq!(bank_index(768), (2, 0));
        let mut next = (0, 0);
        for id in 0..100_000u32 {
            assert_eq!(bank_index(id), next);
            next = if next.1 + 1 == CHUNK_SLOTS << next.0 {
                (next.0 + 1, 0)
            } else {
                (next.0, next.1 + 1)
            };
        }
        assert!(bank_index(u32::MAX).0 >= MAX_CHUNKS, "ensure() rejects it");
    }

    /// Fleet-scale registration is O(n log n): 200 000 counters
    /// registered in reverse name order (the worst case for the ordered
    /// insert this replaced: every insert at the front, 2·10¹⁰ element
    /// moves) cost no name comparison until the first snapshot, which
    /// sorts once within n·log₂ n comparisons; the second snapshot
    /// reuses the order, and one late registration costs one more pass,
    /// not a re-sort.
    #[test]
    fn registering_200k_names_sorts_once_at_the_first_snapshot() {
        const N: u64 = 200_000;
        let comparisons = || ORDER_COMPARISONS.with(|c| c.get());
        let hub = MetricsHub::enabled();
        let c0 = comparisons();
        for i in (0..N).rev() {
            let id = hub.counter(&format!("nic.s{i:06}.pfc.xoff_rx"));
            hub.add(id, i);
        }
        assert_eq!(comparisons(), c0, "registration compares nothing");
        let snap = hub.counters_snapshot();
        assert_eq!(snap.len() as u64, N);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "sorted by name");
        // Ids far past the first chunk of the value bank keep their own
        // slots.
        assert!(snap.iter().zip(0..N).all(|((_, v), i)| *v == i));
        let first = comparisons() - c0;
        let n_log_n = N * (N as f64).log2().ceil() as u64;
        assert!(
            first <= n_log_n,
            "{first} comparisons > n log n = {n_log_n}"
        );
        hub.counters_snapshot();
        assert_eq!(comparisons() - c0, first, "cached order: no second sort");
        hub.counter("nic.s100000.5.late");
        let snap = hub.counters_snapshot();
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
        let late = comparisons() - c0 - first;
        assert!(late <= 2 * N, "{late} comparisons to merge one late name");
    }

    /// A sink attached to the hub receives flight events (teed), hop
    /// records, queue samples, and rate points with scope names
    /// resolved, honors the filter, and stops cleanly on detach.
    #[test]
    fn sink_tee_streams_filtered_records() {
        use crate::sink::{HopRecord, MemorySink, QueueSample, RatePoint, TraceFilter};
        let hub = MetricsHub::enabled();
        let sw = hub.scope("switch.t0");
        let nic = hub.scope("nic.s1");
        assert!(!hub.has_sink());
        // Nothing attached: streaming guards are off, calls are no-ops.
        assert!(!hub.streams_hops());
        hub.stream_queue(
            0,
            sw,
            QueueSample {
                backlog_bytes: 0,
                max_port_bytes: 0,
                tx_pkts: 0,
            },
        );

        let mem = MemorySink::new();
        hub.attach_sink(Box::new(mem.clone()), TraceFilter::no_hops());
        assert!(hub.has_sink());
        assert!(!hub.streams_hops());
        assert!(hub.streams_queues() && hub.streams_rates());

        hub.trace(10, sw, TraceEvent::PauseTx { port: 2, prio: 3 });
        hub.stream_hop(
            11,
            sw,
            HopRecord {
                port: 1,
                prio: 3,
                bytes: 1000,
                src_ip: 1,
                dst_ip: 2,
                queue_bytes: 1000,
            },
        ); // filtered out
        hub.stream_queue(
            12,
            sw,
            QueueSample {
                backlog_bytes: 5,
                max_port_bytes: 5,
                tx_pkts: 1,
            },
        );
        hub.stream_rate(
            13,
            nic,
            RatePoint {
                qp: 0,
                rate_mbps: 40_000,
                cc: "dcqcn",
                cause: "cnp",
            },
        );

        let recs = mem.records();
        assert_eq!(recs.len(), 3, "hop must be filtered: {recs:?}");
        assert_eq!(recs[0].body.kind(), "pause_tx");
        assert_eq!(recs[0].scope, "switch.t0");
        assert_eq!(recs[1].body.kind(), "queue");
        assert_eq!(recs[2].body.kind(), "cc_rate");
        assert_eq!(recs[2].scope, "nic.s1");
        // The flight recorder still got the event (tee, not a move).
        assert_eq!(hub.flight_kind_counts(), vec![("pause_tx", 1)]);

        hub.detach_sink();
        assert!(!hub.has_sink());
        hub.trace(20, sw, TraceEvent::StormStart);
        assert_eq!(mem.len(), 3, "detached sink must see nothing new");
    }

    /// Updates from several threads land without loss — the property the
    /// atomic bank must give the fleet's Send story.
    #[test]
    fn concurrent_updates_are_not_lost() {
        let hub = MetricsHub::enabled();
        let c = hub.counter("racy");
        std::thread::scope(|sc| {
            for _ in 0..4 {
                let h = hub.clone();
                sc.spawn(move || {
                    for _ in 0..10_000 {
                        h.incr(c);
                    }
                });
            }
        });
        assert_eq!(hub.counter_value("racy"), Some(40_000));
    }
}
