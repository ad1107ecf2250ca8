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
//! watchdog fires, go-back-N rollbacks, congestion-control rate moves)
//! land in a flight-recorder ring for post-mortem inspection.
//!
//! Three invariants shape the design:
//!
//! * **Zero cost when disabled.** The hub handle is an
//!   `Option<Arc<..>>`; a disabled hub hands out sentinel instrument ids
//!   without allocating and every record call is an inlined no-op behind
//!   a single sentinel compare.
//! * **The hub holds copies.** Every counter and gauge is a copy of a
//!   count its owner keeps: devices count in their own stats and the
//!   deadlock probe and Pingmesh in their own fields, and each owner
//!   writes its whole block with one [`MetricsHub::update`] — one
//!   acquisition of the hub's lock — at a sample boundary or when its
//!   count moves. The values are plain `u64`s (a gauge's `f64` bits)
//!   under the lock that registration, sampling and export take too.
//!   Histograms and trace records are recorded when they happen: an
//!   observation takes that lock, and a trace record takes one emission
//!   lock, shared by the flight recorder and the attached sink's batch.
//!   A record streamed to the sink is copied, raw, into that batch and
//!   encoded on the sink's writer thread (`crate::writer`). So the
//!   per-packet path touches only the sink's filter word (`sink_flags`)
//!   and, for a record it streams, the emission lock.
//! * **Digest neutrality.** The hub never schedules simulator events,
//!   never draws randomness, and never touches packet contents — it only
//!   observes. Sampling is driven by the caller (the cluster chunks its
//!   `run_until` at sampling boundaries), so the golden dispatch digest
//!   is byte-identical with telemetry on or off; a tier-1 test pins this.
//!
//! What the hub keeps grows with what changes, not with what exists:
//!
//! * **Names are structure.** A component registers its instruments as
//!   one block ([`MetricsHub::register`]): its scope's [`Path`] (`nic` +
//!   the host's shared name) and static [`Group`]s of leaves, under one
//!   lock, for one base id ([`BlockId`]). An instrument is a row of
//!   (path, leaf, index) — 12 bytes, no string — and its dotted name is
//!   rendered only when something reads it: a snapshot, the export, a
//!   lookup by name. The string API ([`MetricsHub::counter`] and
//!   friends) stays for ad-hoc names, on the same tables.
//! * **Series are one change log.** A sampling pass appends
//!   `(instrument, pass, raw)` only where an instrument's raw value
//!   differs from the one it had at the pass before; an instrument
//!   starts at raw 0 at its first pass, which registration order gives.
//!   An idle fleet's passes store nothing.
//!
//! The JSON export ([`HubJson`]) is written straight from that state,
//! with no [`Json`] tree in between.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::json::{self, Json};
use crate::sink::{
    FieldSink, HopRecord, ObjectText, QueueSample, RecordBody, TraceFilter, TraceSink,
};
use crate::stats::{Percentiles, TimeSeries};
use crate::writer::SinkWriter;

/// Hub tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Sampling cadence for counter/gauge time series, in picoseconds of
    /// simulated time. The paper's production cadence is minutes; the
    /// simulated default is 100 µs so short experiments still get a
    /// usable series.
    pub sample_every_ps: u64,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            sample_every_ps: 100_000_000, // 100 µs
        }
    }
}

/// A hub's flight-recorder capacity in records; the oldest record is
/// evicted (and counted) once full.
const FLIGHT_CAPACITY: usize = 4096;

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

/// Handle to a registered block of instruments: the block's `k`-th
/// instrument, counting through its groups in order, has id `base + k`.
/// Sentinel when the hub is disabled, and so is every id derived from
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockId(u32);

const SENTINEL: u32 = u32::MAX;

/// Sink-filter bit for flight-recorder events ([`TraceFilter::bits`]).
const SINK_EVENTS: u32 = 1;
/// Sink-filter bit for per-packet hop records.
const SINK_HOPS: u32 = 1 << 1;
/// Sink-filter bit for periodic queue-depth samples.
const SINK_QUEUES: u32 = 1 << 2;

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
impl BlockId {
    /// The id handed out by a disabled hub.
    pub fn sentinel() -> BlockId {
        BlockId(SENTINEL)
    }

    /// The block's `k`-th instrument, a counter. Real ids stay far below
    /// `u32::MAX` (an instrument's row and value alone are 20 bytes), so
    /// the saturating add keeps a sentinel a sentinel and never reaches
    /// one from a real base.
    #[inline]
    pub fn counter(self, k: u32) -> CounterId {
        CounterId(self.0.saturating_add(k))
    }

    /// The block's `k`-th instrument, a gauge.
    #[inline]
    pub fn gauge(self, k: u32) -> GaugeId {
        GaugeId(self.0.saturating_add(k))
    }

    /// The block's `k`-th instrument, a histogram.
    #[inline]
    pub fn histogram(self, k: u32) -> HistogramId {
        HistogramId(self.0.saturating_add(k))
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
impl Default for BlockId {
    fn default() -> BlockId {
        BlockId::sentinel()
    }
}

/// What a component is called, kept as structure: a static kind and,
/// for one component of many, its instance name — `nic` and `s7` read
/// `nic.s7`. A registered path is a flight-recorder scope, and the
/// instruments of a block are named under it.
#[derive(Debug, Clone)]
pub struct Path {
    kind: &'static str,
    name: Option<Arc<str>>,
}

impl Path {
    /// `{kind}.{name}`: one of many components of a kind (a host, a
    /// switch). A name already shared (an `Arc<str>`) is not copied.
    pub fn of(kind: &'static str, name: impl Into<Arc<str>>) -> Path {
        Path {
            kind,
            name: Some(name.into()),
        }
    }

    /// `kind` alone: a component there is one of (`monitor.deadlock`).
    pub fn fixed(kind: &'static str) -> Path {
        Path { kind, name: None }
    }
}

/// What an instrument is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

/// One group of a block's instruments, all of one kind: one per leaf,
/// named `{scope}.{leaf}`; under a head, `{scope}.{head}.{leaf}`; or
/// once per index of a range, `{scope}.{head}.{index}.{leaf}`, index
/// outer — leaf `k` of index `i` is the group's `(i − start) ·
/// leaves + k`-th instrument.
#[derive(Debug, Clone, Copy)]
pub struct Group {
    kind: Kind,
    leaves: &'static [&'static str],
    head: &'static str,
    indices: Option<(u32, u32)>,
}

impl Group {
    /// A counter per leaf.
    pub const fn counters(leaves: &'static [&'static str]) -> Group {
        Group::of(Kind::Counter, leaves)
    }

    /// A gauge per leaf.
    pub const fn gauges(leaves: &'static [&'static str]) -> Group {
        Group::of(Kind::Gauge, leaves)
    }

    /// A histogram per leaf.
    pub const fn histograms(leaves: &'static [&'static str]) -> Group {
        Group::of(Kind::Histogram, leaves)
    }

    const fn of(kind: Kind, leaves: &'static [&'static str]) -> Group {
        Group {
            kind,
            leaves,
            head: "",
            indices: None,
        }
    }

    /// The leaves under `{head}.`, as in `drop.NoRoute`.
    pub const fn under(self, head: &'static str) -> Group {
        Group { head, ..self }
    }

    /// The leaves once per index of `indices`, under `{head}.{index}.`,
    /// as in `port.2.pfc.xoff_tx`.
    pub const fn over(self, head: &'static str, indices: Range<u32>) -> Group {
        Group {
            head,
            indices: Some((indices.start, indices.end)),
            ..self
        }
    }

    /// The leaves under `{head}.{index}.`, as in `qp.0.retransmits`.
    pub const fn at(self, head: &'static str, index: u32) -> Group {
        self.over(head, index..index + 1)
    }

    /// Instruments in the group.
    fn len(&self) -> u32 {
        let (from, to) = self.indices.unwrap_or((0, 1));
        to.saturating_sub(from) * self.leaves.len() as u32
    }
}

/// What [`MetricsHub::register`] hands back: the component's scope and
/// its block's base. All sentinels on a disabled hub.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Block {
    /// The scope the component traces under.
    pub scope: ScopeId,
    /// The block's first instrument.
    pub base: BlockId,
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
    /// A congestion controller changed a QP's sending rate: one point
    /// on the CC rate trajectory the DCQCN/TIMELY plots are drawn from.
    RateChange {
        /// QP number on the emitting NIC.
        qp: u32,
        /// New rate in Mbit/s.
        rate_mbps: u32,
        /// Which controller acted (`"dcqcn"`, `"timely"`).
        cc: &'static str,
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
                qp,
                rate_mbps,
                cc,
                cause,
            } => {
                out.u64("qp", qp as u64);
                out.u64("rate_mbps", rate_mbps as u64);
                out.str("cc", cc);
                out.str("cause", cause);
            }
            TraceEvent::DeadlockSuspected { cycle_len } => {
                out.u64("cycle_len", cycle_len as u64);
            }
            TraceEvent::NicWatchdogFired | TraceEvent::StormStart | TraceEvent::StormStop => {}
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

/// A registered path: a [`Path`]'s parts, or a whole name the string API
/// registered, kept in [`Paths::text`].
enum PathRow {
    Parts(&'static str, Option<Arc<str>>),
    Text(u32, u32),
}

/// Scope names by [`ScopeId`]: the paths components registered and the
/// whole names the string API did. Shared with the sink's writer
/// thread, which resolves records' scopes through it.
#[derive(Default)]
pub(crate) struct Paths {
    rows: Vec<PathRow>,
    /// String-API names, end to end, so registering one allocates only
    /// when this buffer doubles.
    text: String,
}

impl Paths {
    fn push(&mut self, row: PathRow) -> u32 {
        let id = u32::try_from(self.rows.len()).expect("fewer than 2³² scopes");
        self.rows.push(row);
        id
    }

    /// Append the name of scope `id` (`?` for a foreign or sentinel id).
    pub(crate) fn write(&self, id: ScopeId, out: &mut Vec<u8>) {
        match self.rows.get(id.0 as usize) {
            None => out.push(b'?'),
            Some(PathRow::Parts(kind, name)) => {
                out.extend_from_slice(kind.as_bytes());
                if let Some(name) = name {
                    out.push(b'.');
                    out.extend_from_slice(name.as_bytes());
                }
            }
            Some(PathRow::Text(from, to)) => {
                out.extend_from_slice(&self.text.as_bytes()[*from as usize..*to as usize]);
            }
        }
    }

    /// Register `name` whole.
    fn push_text(&mut self, name: &str) -> u32 {
        let offset = |n: usize| u32::try_from(n).expect("string-API names under 4 GiB");
        let from = offset(self.text.len());
        self.text.push_str(name);
        let to = offset(self.text.len());
        self.push(PathRow::Text(from, to))
    }
}

/// A leaf: `{head}.{index}.{tail}` when indexed, `{head}.{tail}` under a
/// head, `tail` alone without. An empty tail is the string API's: the
/// row's path is its whole name.
#[derive(Clone, Copy)]
struct Leaf {
    kind: Kind,
    head: &'static str,
    indexed: bool,
    tail: &'static str,
}

/// One instrument, named by structure: its scope's path and a leaf,
/// with `index` filling an indexed leaf's slot.
#[derive(Clone, Copy)]
struct Row {
    path: u32,
    leaf: u32,
    index: u32,
}

/// The instrument table: a row per id and the leaves the rows name.
struct Names {
    rows: Vec<Row>,
    /// Leaves 0, 1 and 2 are the string API's counter, gauge and
    /// histogram; a group's leaves follow as consecutive ids, interned
    /// once per distinct group in `groups`.
    leaves: Vec<Leaf>,
    /// (kind, head, indexed, leaf set) → its first leaf.
    groups: Vec<(Kind, &'static str, bool, &'static [&'static str], u32)>,
}

impl Names {
    fn new() -> Names {
        let whole = |kind| Leaf {
            kind,
            head: "",
            indexed: false,
            tail: "",
        };
        Names {
            rows: Vec::new(),
            leaves: vec![
                whole(Kind::Counter),
                whole(Kind::Gauge),
                whole(Kind::Histogram),
            ],
            groups: Vec::new(),
        }
    }

    fn kind(&self, id: u32) -> Kind {
        self.leaves[self.rows[id as usize].leaf as usize].kind
    }

    /// The first leaf id of `g`'s leaves, interning them on first sight.
    /// Few groups exist (a handful per component type), so a scan finds
    /// them.
    fn intern(&mut self, g: &Group) -> u32 {
        let key = (g.kind, g.head, g.indices.is_some(), g.leaves);
        if let Some(&(.., first)) = self
            .groups
            .iter()
            .find(|(k, h, i, l, _)| (*k, *h, *i, *l) == key)
        {
            return first;
        }
        let first = self.leaves.len() as u32;
        self.leaves.extend(g.leaves.iter().map(|&tail| Leaf {
            kind: g.kind,
            head: g.head,
            indexed: key.2,
            tail,
        }));
        self.groups.push((key.0, key.1, key.2, key.3, first));
        first
    }

    /// Append instrument `id`'s dotted name.
    fn write(&self, paths: &Paths, id: u32, out: &mut Vec<u8>) {
        let row = self.rows[id as usize];
        paths.write(ScopeId(row.path), out);
        let leaf = self.leaves[row.leaf as usize];
        if leaf.tail.is_empty() {
            return;
        }
        out.push(b'.');
        if !leaf.head.is_empty() {
            out.extend_from_slice(leaf.head.as_bytes());
            out.push(b'.');
            if leaf.indexed {
                json::write_u64(row.index as u64, out);
                out.push(b'.');
            }
        }
        out.extend_from_slice(leaf.tail.as_bytes());
    }
}

/// FNV-1a over `name`, seeded with what the name is of, folded to 32
/// bits.
fn name_hash(of: u8, name: &[u8]) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in std::iter::once(&of).chain(name) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ (h >> 32)) as u32
}

/// What [`name_hash`] hashes a scope name as (instrument kinds are 0–2).
const SCOPE_HASH: u8 = 3;

/// The by-name lookup of a dense id range — instruments or scopes — for
/// the string API. An open-addressing table of `(hash, id + 1)` that
/// stores no name: a hash match is confirmed by rendering the
/// candidate's. It holds the first id of each name and is brought up to
/// date lazily (ids `..synced` are in), so a run that never looks a name
/// up never builds it.
#[derive(Default)]
struct NameIndex {
    /// Power-of-two length; `id + 1 == 0` is an empty slot.
    slots: Vec<(u32, u32)>,
    len: usize,
    synced: u32,
}

impl NameIndex {
    /// The id under `hash` that `is` confirms.
    fn find(&self, hash: u32, mut is: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            match self.slots[at] {
                (_, 0) => return None,
                (h, id) if h == hash && is(id - 1) => return Some(id - 1),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Add `id`, whose name is not in the table yet, under `hash`.
    fn insert(&mut self, hash: u32, id: u32) {
        if 2 * (self.len + 1) > self.slots.len() {
            let cap = (2 * self.slots.len()).max(64);
            let old = std::mem::replace(&mut self.slots, vec![(0, 0); cap]);
            for (h, id) in old.into_iter().filter(|&(_, id)| id != 0) {
                self.place(h, id);
            }
        }
        self.place(hash, id + 1);
        self.len += 1;
    }

    fn place(&mut self, hash: u32, entry: u32) {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        while self.slots[at].1 != 0 {
            at = (at + 1) & mask;
        }
        self.slots[at] = (hash, entry);
    }
}

/// One entry of the change log: at sampling pass `pass`, instrument `id`
/// read `raw`, which differs from what it read at the pass before (or
/// from 0 at its first pass).
#[derive(Clone, Copy)]
struct Change {
    id: u32,
    pass: u32,
    raw: u64,
}

/// `(t_ps, raw)` at every pass from `first` on, for an instrument that
/// starts at raw 0 at pass `first` and moves at `changes` (its own
/// entries of the log, in pass order); the passes' times are `times`.
fn points<'a>(
    first: u32,
    changes: &'a [Change],
    times: &'a [u64],
) -> impl Iterator<Item = (u64, u64)> + 'a {
    let start = changes
        .first()
        .is_none_or(|c| c.pass != first)
        .then_some((first, 0));
    let mut steps = start
        .into_iter()
        .chain(changes.iter().map(|c| (c.pass, c.raw)))
        .peekable();
    std::iter::from_fn(move || {
        let (at, raw) = steps.next()?;
        let until = steps.peek().map_or(times.len(), |&(next, _)| next as usize);
        Some(times[at as usize..until].iter().map(move |&t| (t, raw)))
    })
    .flatten()
}

struct HubInner {
    cfg: TelemetryConfig,
    names: Names,
    /// Instruments registered, per [`Kind`].
    counts: [u32; 3],
    /// Each instrument's current raw value, by id: a counter's count, a
    /// gauge's `f64` bits; a histogram's stays 0.
    values: Vec<u64>,
    /// Samples of each histogram, by id.
    histograms: Vec<(u32, Percentiles)>,
    /// Every instrument id ordered by (name, kind), brought up to date by
    /// [`HubInner::sync_order`] on the first snapshot or export after a
    /// registration.
    by_name: Vec<u32>,
    /// Instruments by (kind, name), for the string API.
    instrument_index: NameIndex,
    /// Scopes by name, for the string API.
    scope_index: NameIndex,
    /// Scratch for the name being looked up and for a candidate's.
    name_buf: Vec<u8>,
    candidate_buf: Vec<u8>,
    next_sample_ps: u64,
    /// The time of every sampling pass, in order; the log names a pass
    /// by its index here.
    sample_times: Vec<u64>,
    /// `(pass, instruments registered by then)` at each pass that found
    /// new instruments: an instrument's first pass is the first mark past
    /// its id.
    marks: Vec<(u32, u32)>,
    /// Each instrument's raw value at the last pass (0 before its first).
    last: Vec<u64>,
    /// The change log, in pass order — or in (instrument, pass) order
    /// after an export, which sorts it in place; later passes append.
    log: Vec<Change>,
}

impl HubInner {
    fn new(cfg: TelemetryConfig) -> HubInner {
        HubInner {
            cfg,
            names: Names::new(),
            counts: [0; 3],
            values: Vec::new(),
            histograms: Vec::new(),
            by_name: Vec::new(),
            instrument_index: NameIndex::default(),
            scope_index: NameIndex::default(),
            name_buf: Vec::new(),
            candidate_buf: Vec::new(),
            next_sample_ps: 0,
            sample_times: Vec::new(),
            marks: Vec::new(),
            last: Vec::new(),
            log: Vec::new(),
        }
    }

    /// Append one instrument; its id.
    fn push_row(&mut self, row: Row) -> u32 {
        let id = self.names.rows.len() as u32;
        self.names.rows.push(row);
        self.values.push(0);
        let kind = self.names.leaves[row.leaf as usize].kind;
        self.counts[kind as usize] += 1;
        if kind == Kind::Histogram {
            self.histograms.push((id, Percentiles::new()));
        }
        id
    }

    /// Append `groups`' instruments under `path`; the first one's id.
    fn push_block(&mut self, path: u32, groups: &[Group]) -> u32 {
        let base = self.names.rows.len() as u32;
        let n = groups.iter().map(|g| g.len() as usize).sum();
        self.names.rows.reserve(n);
        self.values.reserve(n);
        for g in groups {
            let first = self.names.intern(g);
            let (from, to) = g.indices.unwrap_or((0, 1));
            for index in from..to {
                for k in 0..g.leaves.len() as u32 {
                    let row = Row {
                        path,
                        leaf: first + k,
                        index,
                    };
                    self.push_row(row);
                }
            }
        }
        base
    }

    /// Bring the scope index up to date with `paths`.
    fn sync_scopes(&mut self, paths: &Paths) {
        while (self.scope_index.synced as usize) < paths.rows.len() {
            let id = self.scope_index.synced;
            self.name_buf.clear();
            paths.write(ScopeId(id), &mut self.name_buf);
            let hash = name_hash(SCOPE_HASH, &self.name_buf);
            if self.find_scope(paths, hash).is_none() {
                self.scope_index.insert(hash, id);
            }
            self.scope_index.synced += 1;
        }
    }

    /// The first scope named `name_buf`'s text, hashed to `hash`.
    fn find_scope(&mut self, paths: &Paths, hash: u32) -> Option<u32> {
        let (want, buf) = (&self.name_buf, &mut self.candidate_buf);
        self.scope_index.find(hash, |id| {
            buf.clear();
            paths.write(ScopeId(id), buf);
            buf == want
        })
    }

    /// Bring the instrument index up to date with the rows.
    fn sync_instruments(&mut self, paths: &Paths) {
        while (self.instrument_index.synced as usize) < self.names.rows.len() {
            let id = self.instrument_index.synced;
            let kind = self.names.kind(id);
            self.name_buf.clear();
            self.names.write(paths, id, &mut self.name_buf);
            let hash = name_hash(kind as u8, &self.name_buf);
            if self.find_instrument(paths, kind, hash).is_none() {
                self.instrument_index.insert(hash, id);
            }
            self.instrument_index.synced += 1;
        }
    }

    /// The first instrument of `kind` named `name_buf`'s text, hashed to
    /// `hash`.
    fn find_instrument(&mut self, paths: &Paths, kind: Kind, hash: u32) -> Option<u32> {
        let (names, want, buf) = (&self.names, &self.name_buf, &mut self.candidate_buf);
        self.instrument_index.find(hash, |id| {
            buf.clear();
            names.write(paths, id, buf);
            names.kind(id) == kind && buf == want
        })
    }

    /// The scope named `name`, registering it whole if there is none.
    fn scope_named(&mut self, paths: &mut Paths, name: &str) -> u32 {
        self.sync_scopes(paths);
        self.name_buf.clear();
        self.name_buf.extend_from_slice(name.as_bytes());
        let hash = name_hash(SCOPE_HASH, name.as_bytes());
        if let Some(id) = self.find_scope(paths, hash) {
            return id;
        }
        let id = paths.push_text(name);
        self.scope_index.insert(hash, id);
        self.scope_index.synced += 1;
        id
    }

    /// The instrument of `kind` named `name`, if registered.
    fn lookup(&mut self, paths: &Paths, kind: Kind, name: &str) -> Option<u32> {
        self.sync_instruments(paths);
        self.name_buf.clear();
        self.name_buf.extend_from_slice(name.as_bytes());
        self.find_instrument(paths, kind, name_hash(kind as u8, name.as_bytes()))
    }

    /// The instrument of `kind` named `name`, registering it (its whole
    /// name a scope path) if there is none.
    fn named(&mut self, paths: &mut Paths, kind: Kind, name: &str) -> u32 {
        if let Some(id) = self.lookup(paths, kind, name) {
            return id;
        }
        let path = self.scope_named(paths, name);
        let row = Row {
            path,
            leaf: kind as u32,
            index: 0,
        };
        let id = self.push_row(row);
        let hash = name_hash(kind as u8, name.as_bytes());
        self.instrument_index.insert(hash, id);
        self.instrument_index.synced += 1;
        id
    }

    /// Bring the name order up to date with the instruments registered
    /// since the last snapshot or export. Every name is rendered once
    /// into one scratch buffer, dropped after the sort.
    fn sync_order(&mut self, paths: &Paths) {
        let n = self.names.rows.len();
        if self.by_name.len() == n {
            return;
        }
        let mut text = Vec::new();
        let mut ends = Vec::with_capacity(n + 1);
        ends.push(0u32);
        for id in 0..n as u32 {
            self.names.write(paths, id, &mut text);
            ends.push(u32::try_from(text.len()).expect("instrument names under 4 GiB"));
        }
        let names = &self.names;
        let name = |id: u32| &text[ends[id as usize] as usize..ends[id as usize + 1] as usize];
        sort_order(&mut self.by_name, n as u32, |a, b| {
            name(a)
                .cmp(name(b))
                .then_with(|| names.kind(a).cmp(&names.kind(b)))
        });
    }

    /// The pass instrument `id` was first sampled at, if it has been.
    fn first_pass(&self, id: u32) -> Option<u32> {
        let m = self.marks.partition_point(|&(_, n)| n <= id);
        self.marks.get(m).map(|&(pass, _)| pass)
    }

    /// Instrument `id`'s sampled series, `raw` read through `value`.
    fn series(&self, id: u32, value: fn(u64) -> f64) -> TimeSeries {
        let mut series = TimeSeries::new();
        if let Some(first) = self.first_pass(id) {
            let changes: Vec<Change> = self.log.iter().filter(|c| c.id == id).copied().collect();
            for (t, raw) in points(first, &changes, &self.sample_times) {
                series.push(t, value(raw));
            }
        }
        series
    }

    /// Instrument `id`'s current raw value (0 for a foreign id).
    fn value(&self, id: u32) -> u64 {
        self.values.get(id as usize).copied().unwrap_or(0)
    }

    /// Set instrument `id`'s raw value; a sentinel or foreign id has none.
    fn store(&mut self, id: u32, raw: u64) {
        if let Some(v) = self.values.get_mut(id as usize) {
            *v = raw;
        }
    }

    /// The samples of histogram `id`.
    fn histogram(&mut self, id: u32) -> Option<&mut Percentiles> {
        let at = self
            .histograms
            .binary_search_by_key(&id, |(h, _)| *h)
            .ok()?;
        Some(&mut self.histograms[at].1)
    }
}

/// The ids of `kind` in `by_name`, in its (name) order.
fn ordered<'a>(by_name: &'a [u32], names: &'a Names, kind: Kind) -> impl Iterator<Item = u32> + 'a {
    by_name
        .iter()
        .copied()
        .filter(move |&id| names.kind(id) == kind)
}

#[cfg(test)]
thread_local! {
    /// Name comparisons [`sort_order`] has made on this thread.
    static ORDER_COMPARISONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Make `order` the ids `0..n` sorted by `cmp`. Ids registered since the
/// last call are appended and merged by one stable sort, whose run
/// detection passes over the already sorted prefix once — O(n log n) for
/// a whole fleet's registrations, where an ordered insert per
/// registration was O(n²).
fn sort_order(order: &mut Vec<u32>, n: u32, mut cmp: impl FnMut(u32, u32) -> std::cmp::Ordering) {
    order.extend(order.len() as u32..n);
    order.sort_by(|&a, &b| {
        #[cfg(test)]
        ORDER_COMPARISONS.with(|c| c.set(c.get() + 1));
        cmp(a, b)
    });
}

/// What emission writes to, under one lock: the flight recorder and the
/// attached sink's writer — the batch being filled and the thread that
/// owns the sink (see `crate::writer`).
struct Emit {
    flight: FlightRecorder,
    writer: Option<SinkWriter>,
}

/// Shared state behind an enabled hub: everything but emission
/// (registration, values, series, histograms, sampling) under the inner
/// mutex, the scope paths under one of their own, and the flight
/// recorder and the attached sink's writer under the emission mutex.
/// Where locks nest, the order is `inner` → `emit` → `paths`: an emitter
/// that hands a batch over may wait, holding `emit`, for the writer
/// thread, which resolves the batch's scopes under `paths` — so nothing
/// may wait for `emit` while it holds `paths`. The writer thread takes
/// neither `inner` nor `emit` — only its own lane and, once per batch,
/// `paths`.
struct HubShared {
    inner: Mutex<HubInner>,
    emit: Mutex<Emit>,
    /// Scope names by [`ScopeId`], appended at registration. Shared with
    /// the writer thread, which resolves records' scopes through it.
    paths: Arc<Mutex<Paths>>,
    /// [`TraceFilter::bits`] of the attached sink, 0 when detached. The
    /// per-packet emission guard is one relaxed load of this word — with
    /// no sink the hop path costs a single compare, like a disabled hub.
    sink_flags: AtomicU32,
}

impl Drop for HubShared {
    /// The last handle drains the attached sink, so a file sink is
    /// complete once the hub is gone. A panic the sink raised is not
    /// raised again here: a drop must not panic (least of all while the
    /// thread unwinds from that very panic), and the panic hook printed
    /// the sink's message when it happened.
    fn drop(&mut self) {
        let emit = self.emit.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let Some(w) = emit.writer.take() {
            let _ = w.close();
        }
    }
}

impl HubShared {
    /// Lock the registration state and the scope paths, in that order.
    fn lock(
        &self,
    ) -> (
        std::sync::MutexGuard<'_, HubInner>,
        std::sync::MutexGuard<'_, Paths>,
    ) {
        let h = self.inner.lock().unwrap();
        (h, self.paths.lock().unwrap())
    }
}

/// The hub's instruments, open for one [`MetricsHub::update`]: every
/// write through it lands under the one lock that call took.
pub struct Values<'a> {
    inner: &'a mut HubInner,
}

impl Values<'_> {
    /// Set a counter to `v`, a count its owner keeps itself.
    #[inline]
    pub fn set_counter(&mut self, id: CounterId, v: u64) {
        self.inner.store(id.0, v);
    }

    /// Set a gauge's current value (kept as its bit pattern).
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, v: f64) {
        self.inner.store(id.0, v.to_bits());
    }

    /// Record one histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, v: u64) {
        if let Some(p) = self.inner.histogram(id.0) {
            p.add(v);
        }
    }
}

/// Cloneable handle to the telemetry bus. `MetricsHub::disabled()` (the
/// `Default`) is a free-to-clone null hub; [`MetricsHub::enabled`] backs
/// the handle with shared state. The handle stays `Send + Sync` for the
/// fleet runner, which constructs whole clusters inside worker threads;
/// a poisoned lock (a panic mid-registration) is a bug we surface by
/// unwrapping.
#[derive(Clone, Default)]
pub struct MetricsHub {
    inner: Option<Arc<HubShared>>,
}

impl std::fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "MetricsHub(disabled)"),
            Some(s) => {
                let [counters, gauges, histograms] = s.inner.lock().unwrap().counts;
                let flight_len = s.emit.lock().unwrap().flight.len();
                write!(
                    f,
                    "MetricsHub({counters} counters, {gauges} gauges, {histograms} histograms, \
                     {flight_len} trace records)"
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

    /// An active hub with explicit configuration.
    pub fn with_config(cfg: TelemetryConfig) -> MetricsHub {
        MetricsHub {
            inner: Some(Arc::new(HubShared {
                inner: Mutex::new(HubInner::new(cfg)),
                emit: Mutex::new(Emit {
                    flight: FlightRecorder::new(FLIGHT_CAPACITY),
                    writer: None,
                }),
                paths: Arc::default(),
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

    /// Register a component: a new scope named `path` and, under it, the
    /// instruments of `groups` as one block — one lock, no name
    /// formatted, ids consecutive from the returned base in group order.
    /// Each call makes new instruments: a component registers once.
    pub fn register(&self, path: Path, groups: &[Group]) -> Block {
        let Some(s) = &self.inner else {
            return Block::default();
        };
        let (mut h, mut paths) = s.lock();
        let scope = paths.push(PathRow::Parts(path.kind, path.name));
        drop(paths);
        Block {
            scope: ScopeId(scope),
            base: BlockId(h.push_block(scope, groups)),
        }
    }

    /// Register `groups` as one more block of the component whose scope
    /// (on this hub) is `scope` — a QP of a NIC, a gauge the cluster
    /// keeps for a switch.
    pub fn register_in(&self, scope: ScopeId, groups: &[Group]) -> BlockId {
        match &self.inner {
            Some(s) if scope != ScopeId::sentinel() => {
                BlockId(s.inner.lock().unwrap().push_block(scope.0, groups))
            }
            _ => BlockId::sentinel(),
        }
    }

    /// Register (or look up) a counter under a hierarchical dotted name.
    /// Re-registering a name returns the same id, and so does the name
    /// of a counter a block registered.
    pub fn counter(&self, name: &str) -> CounterId {
        CounterId(self.named(Kind::Counter, name))
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, name: &str) -> GaugeId {
        GaugeId(self.named(Kind::Gauge, name))
    }

    /// Register (or look up) an exact histogram.
    pub fn histogram(&self, name: &str) -> HistogramId {
        HistogramId(self.named(Kind::Histogram, name))
    }

    fn named(&self, kind: Kind, name: &str) -> u32 {
        let Some(s) = &self.inner else {
            return SENTINEL;
        };
        let (mut h, mut paths) = s.lock();
        h.named(&mut paths, kind, name)
    }

    /// Register (or look up) a flight-recorder scope by name; a
    /// component's registered scope is found by the name its path reads.
    pub fn scope(&self, name: &str) -> ScopeId {
        let Some(s) = &self.inner else {
            return ScopeId::sentinel();
        };
        let (mut h, mut paths) = s.lock();
        ScopeId(h.scope_named(&mut paths, name))
    }

    // ---- recording ----------------------------------------------------

    /// Write instruments under one acquisition of the hub's lock: how an
    /// owner publishes its block of copies. `f` is not called on a
    /// disabled hub.
    #[inline]
    pub fn update(&self, f: impl FnOnce(&mut Values<'_>)) {
        if let Some(s) = &self.inner {
            f(&mut Values {
                inner: &mut s.inner.lock().unwrap(),
            });
        }
    }

    /// Set a counter to `v`, a count its owner keeps itself.
    #[inline]
    pub fn set_counter(&self, id: CounterId, v: u64) {
        if id.0 != SENTINEL {
            self.update(|u| u.set_counter(id, v));
        }
    }

    /// Set a gauge's current value.
    #[inline]
    pub fn set_gauge(&self, id: GaugeId, v: f64) {
        if id.0 != SENTINEL {
            self.update(|u| u.set_gauge(id, v));
        }
    }

    /// Record one histogram observation.
    #[inline]
    pub fn observe(&self, id: HistogramId, v: u64) {
        if id.0 != SENTINEL {
            self.update(|u| u.observe(id, v));
        }
    }

    /// Increment a counter by one, under the hub's lock. No device or
    /// observer counts in the hub — each publishes copies of its own
    /// counts — so this serves ad-hoc callers and the benchmark's
    /// `monitor.incr_ns` kernel.
    #[inline]
    pub fn incr(&self, id: CounterId) {
        if id.0 != SENTINEL {
            self.update(|u| u.inner.store(id.0, u.inner.value(id.0) + 1));
        }
    }

    /// Append a trace event to the flight recorder and, if a sink is
    /// attached with the events class selected, tee it into the stream:
    /// one acquisition of the emission lock, never the registration lock.
    #[inline]
    pub fn trace(&self, t_ps: u64, scope: ScopeId, event: TraceEvent) {
        let Some(s) = &self.inner else { return };
        let tee = s.sink_flags.load(Ordering::Relaxed) & SINK_EVENTS != 0;
        self.with_emit(|e| {
            e.flight.record(t_ps, scope, event);
            match &mut e.writer {
                Some(w) if tee => w.push(t_ps, scope, RecordBody::Event(event)),
                _ => Ok(()),
            }
        });
    }

    // ---- trace streaming ----------------------------------------------

    /// Attach a streaming trace sink. Records matching `filter` flow to
    /// it from now on, through a writer thread spawned for it (see
    /// [`Self::flush_sink`] for when they arrive); any previously
    /// attached sink is drained and returned. The sink only observes —
    /// attaching one never perturbs the dispatch trace (a tier-1 test
    /// pins this against the golden digest). No-op returning the sink on
    /// a disabled hub.
    pub fn attach_sink(
        &self,
        sink: Box<dyn TraceSink>,
        filter: TraceFilter,
    ) -> Option<Box<dyn TraceSink>> {
        let Some(s) = &self.inner else {
            return Some(sink);
        };
        let writer = SinkWriter::spawn(sink, s.paths.clone());
        let old = s.emit.lock().unwrap().writer.replace(writer);
        s.sink_flags.store(filter.bits(), Ordering::Relaxed);
        old.map(drain)
    }

    /// Detach the current sink, stopping all streaming, and return it
    /// drained: it has received every record emitted and been flushed.
    pub fn detach_sink(&self) -> Option<Box<dyn TraceSink>> {
        let s = self.inner.as_ref()?;
        s.sink_flags.store(0, Ordering::Relaxed);
        let old = s.emit.lock().unwrap().writer.take();
        old.map(drain)
    }

    /// Drain the attached sink, if any: return once its writer thread has
    /// written every record emitted so far and flushed the sink.
    ///
    /// Records reach a sink in emission order, but only this call,
    /// `Cluster::run_until`, detaching, re-attaching or dropping the
    /// last hub handle guarantees they have arrived. If the sink
    /// panicked, this call (like the next emission that hands a batch
    /// over) panics with the sink's message.
    pub fn flush_sink(&self) {
        self.with_writer(SinkWriter::flush);
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

    /// Hand one record to the sink's writer thread: under one lock, a
    /// copy into the batch being filled — no encoding, no allocation, no
    /// call into the sink — and once per batch a hand-off. Kept out of
    /// line: the emission sites inline their guard, and with no sink
    /// attached that guard is the per-packet hot path.
    #[inline(never)]
    fn stream(&self, t_ps: u64, scope: ScopeId, body: RecordBody) {
        self.with_writer(|w| w.push(t_ps, scope, body));
    }

    /// Run `f` on the attached sink's writer, if any.
    fn with_writer(&self, f: impl FnOnce(&mut SinkWriter) -> Result<(), String>) {
        self.with_emit(|e| e.writer.as_mut().map_or(Ok(()), f));
    }

    /// Run `f` under the emission lock and raise the sink's panic it
    /// reports on this thread — after the lock is released, so the panic
    /// poisons nothing.
    fn with_emit(&self, f: impl FnOnce(&mut Emit) -> Result<(), String>) {
        let Some(s) = &self.inner else { return };
        let outcome = f(&mut s.emit.lock().unwrap());
        if let Err(msg) = outcome {
            sink_panicked(&msg);
        }
    }

    // ---- sampling -----------------------------------------------------

    /// The configuration this hub was built with, if enabled.
    pub fn config(&self) -> Option<TelemetryConfig> {
        self.inner.as_ref().map(|s| s.inner.lock().unwrap().cfg)
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
    /// (series stay monotone; no catch-up fabrication). Only an
    /// instrument whose value moved since the pass before adds to the
    /// change log, so a pass over instruments that did not move
    /// allocates nothing.
    pub fn maybe_sample(&self, now_ps: u64) {
        let Some(s) = &self.inner else { return };
        let mut h = s.inner.lock().unwrap();
        if now_ps < h.next_sample_ps {
            return;
        }
        let h = &mut *h;
        let at = u32::try_from(h.sample_times.len()).expect("fewer than 2³² sampling passes");
        h.sample_times.push(now_ps);
        let n = h.names.rows.len();
        if h.marks.last().map_or(0, |&(_, m)| m as usize) < n {
            h.marks.push((at, n as u32));
        }
        h.last.resize(n, 0);
        for (id, (last, &raw)) in h.last.iter_mut().zip(&h.values).enumerate() {
            if raw != *last {
                *last = raw;
                h.log.push(Change {
                    id: id as u32,
                    pass: at,
                    raw,
                });
            }
        }
        let every = h.cfg.sample_every_ps.max(1);
        // Next boundary strictly after now.
        h.next_sample_ps = (now_ps / every + 1) * every;
    }

    /// Number of sampling passes taken so far.
    pub fn samples_taken(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |s| s.inner.lock().unwrap().sample_times.len() as u64)
    }

    // ---- inspection ---------------------------------------------------

    /// Look instrument `name` of `kind` up and read it with `read`.
    fn read<T>(
        &self,
        kind: Kind,
        name: &str,
        read: impl FnOnce(&mut HubInner, u32) -> Option<T>,
    ) -> Option<T> {
        let s = self.inner.as_ref()?;
        let (mut h, paths) = s.lock();
        let id = h.lookup(&paths, kind, name)?;
        drop(paths);
        read(&mut h, id)
    }

    /// Current value of a counter by name, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.read(Kind::Counter, name, |h, id| Some(h.value(id)))
    }

    /// Current value of a gauge by name, if registered.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.read(Kind::Gauge, name, |h, id| Some(f64::from_bits(h.value(id))))
    }

    /// A counter's sampled time series by name: one point per sampling
    /// pass since its registration.
    pub fn counter_series(&self, name: &str) -> Option<TimeSeries> {
        self.read(Kind::Counter, name, |h, id| {
            Some(h.series(id, |raw| raw as f64))
        })
    }

    /// A gauge's sampled time series by name, like
    /// [`Self::counter_series`].
    pub fn gauge_series(&self, name: &str) -> Option<TimeSeries> {
        self.read(Kind::Gauge, name, |h, id| {
            Some(h.series(id, f64::from_bits))
        })
    }

    /// Clone of a histogram's samples by name.
    pub fn histogram_snapshot(&self, name: &str) -> Option<Percentiles> {
        self.read(Kind::Histogram, name, |h, id| h.histogram(id).cloned())
    }

    /// Every instrument of `kind` (sorted by name) with `value` of its
    /// id. The name order is cached: only the first call after a
    /// registration sorts.
    fn snapshot<T>(&self, kind: Kind, value: impl Fn(u64) -> T) -> Vec<(String, T)> {
        let Some(s) = &self.inner else {
            return Vec::new();
        };
        let (mut h, paths) = s.lock();
        h.sync_order(&paths);
        ordered(&h.by_name, &h.names, kind)
            .map(|id| {
                let mut name = Vec::new();
                h.names.write(&paths, id, &mut name);
                let name = String::from_utf8(name).expect("names are strs and digits");
                (name, value(h.value(id)))
            })
            .collect()
    }

    /// All registered counter names (sorted) with current values.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        self.snapshot(Kind::Counter, |raw| raw)
    }

    /// All registered gauge names (sorted) with current values.
    pub fn gauges_snapshot(&self) -> Vec<(String, f64)> {
        self.snapshot(Kind::Gauge, f64::from_bits)
    }

    /// Flight-recorder records (oldest retained first) with scope names
    /// resolved, plus the evicted-record count.
    pub fn flight_snapshot(&self) -> (Vec<(u64, u64, String, TraceEvent)>, u64) {
        let Some(s) = &self.inner else {
            return (Vec::new(), 0);
        };
        let emit = s.emit.lock().unwrap();
        let paths = s.paths.lock().unwrap();
        let flight = &emit.flight;
        let rows = flight
            .records()
            .map(|r| {
                let mut scope = Vec::new();
                paths.write(r.scope, &mut scope);
                let scope = String::from_utf8(scope).expect("scope names are strs");
                (r.seq, r.t_ps, scope, r.event)
            })
            .collect();
        (rows, flight.dropped())
    }

    /// Count of flight records by event kind (sorted by kind).
    pub fn flight_kind_counts(&self) -> Vec<(&'static str, u64)> {
        let Some(s) = &self.inner else {
            return Vec::new();
        };
        let emit = s.emit.lock().unwrap();
        let mut counts: HashMap<&'static str, u64> = HashMap::new();
        for r in emit.flight.records() {
            *counts.entry(r.event.kind()).or_insert(0) += 1;
        }
        let mut out: Vec<_> = counts.into_iter().collect();
        out.sort();
        out
    }

    // ---- export -------------------------------------------------------

    /// The whole hub (instruments, series, flight recorder) as a JSON
    /// document, written when [`HubJson::render`] is called. Names come
    /// out sorted regardless of registration order; the order is cached,
    /// so only the first export after a registration sorts.
    pub fn render_json(&self) -> HubJson<'_> {
        HubJson { hub: self }
    }

    /// Append the export to `out`, straight from the hub's state. Names
    /// are rendered into `out` as they are written; the change log is
    /// sorted in place by instrument, so each series is one run of it.
    fn write_json(&self, out: &mut Vec<u8>) {
        let Some(s) = &self.inner else {
            out.extend_from_slice(br#"{"enabled":false}"#);
            return;
        };
        let mut h = s.inner.lock().unwrap();
        let emit = s.emit.lock().unwrap();
        let paths = s.paths.lock().unwrap();
        h.sync_order(&paths);
        h.log.sort_unstable_by_key(|c| (c.id, c.pass));
        let h = &mut *h;
        let key = |out: &mut Vec<u8>, id: u32| {
            json::write_str_with(out, |out| h.names.write(&paths, id, out));
            out.push(b':');
        };

        out.extend_from_slice(br#"{"enabled":true,"sample_every_ps":"#);
        json::write_u64(h.cfg.sample_every_ps, out);
        out.extend_from_slice(br#","samples_taken":"#);
        json::write_u64(h.sample_times.len() as u64, out);

        out.extend_from_slice(br#","counters":"#);
        json::write_list(
            out,
            *b"{}",
            ordered(&h.by_name, &h.names, Kind::Counter),
            |out, id| {
                key(out, id);
                json::write_u64(h.values[id as usize], out);
            },
        );

        out.extend_from_slice(br#","gauges":"#);
        json::write_list(
            out,
            *b"{}",
            ordered(&h.by_name, &h.names, Kind::Gauge),
            |out, id| {
                key(out, id);
                json::write_f64(f64::from_bits(h.values[id as usize]), out);
            },
        );

        // Summarised in place (the quantiles sort the samples once), so
        // the export holds no second copy of them.
        out.extend_from_slice(br#","histograms":"#);
        let histograms = &mut h.histograms;
        let ids = ordered(&h.by_name, &h.names, Kind::Histogram);
        json::write_list(out, *b"{}", ids, |out, id| {
            key(out, id);
            let at = histograms.binary_search_by_key(&id, |(h, _)| *h);
            let p = &mut histograms[at.expect("every histogram id has samples")].1;
            let opt = |v: Option<u64>| v.map_or(Json::Null, Json::U64);
            let summary = [
                ("count", Json::U64(p.count() as u64)),
                ("p50", opt(p.p50())),
                ("p99", opt(p.p99())),
                ("p999", opt(p.p999())),
                ("max", opt(p.max())),
                ("mean", p.mean().map_or(Json::Null, Json::F64)),
            ];
            json::write_obj(out, summary, |out, v| v.write(out));
        });

        // Counter and gauge series in one name-sorted map: the name
        // order puts a counter before a gauge of the same name. A raw
        // value reads back as a count or as a gauge's bits.
        out.extend_from_slice(br#","series":"#);
        let sampled = h.by_name.iter().filter_map(|&id| {
            let value: fn(u64) -> f64 = match h.names.kind(id) {
                Kind::Counter => |raw| raw as f64,
                Kind::Gauge => f64::from_bits,
                Kind::Histogram => return None,
            };
            Some((id, h.first_pass(id)?, value))
        });
        json::write_list(out, *b"{}", sampled, |out, (id, first, value)| {
            key(out, id);
            let from = h.log.partition_point(|c| c.id < id);
            let changes = &h.log[from..];
            let changes = &changes[..changes.partition_point(|c| c.id == id)];
            json::write_list(
                out,
                *b"[]",
                points(first, changes, &h.sample_times),
                |out, (t, raw)| {
                    out.push(b'[');
                    json::write_u64(t, out);
                    out.push(b',');
                    json::write_f64(value(raw), out);
                    out.push(b']');
                },
            );
        });

        let flight = &emit.flight;
        out.extend_from_slice(br#","flight_recorder":{"dropped":"#);
        json::write_u64(flight.dropped(), out);
        out.extend_from_slice(br#","total_recorded":"#);
        json::write_u64(flight.total_recorded(), out);
        out.extend_from_slice(br#","records":"#);
        let scope = &mut h.name_buf;
        json::write_list(out, *b"[]", flight.records(), |out, r| {
            scope.clear();
            paths.write(r.scope, scope);
            let mut text = ObjectText::new(out);
            text.u64("seq", r.seq);
            text.u64("t_ps", r.t_ps);
            text.str(
                "scope",
                std::str::from_utf8(scope).expect("scope names are strs"),
            );
            text.str("kind", r.event.kind());
            r.event.visit(&mut text);
            text.close();
        });
        out.extend_from_slice(b"}}");
    }
}

/// The hub's JSON export, as returned by [`MetricsHub::render_json`]. It
/// holds only the hub: [`Self::render`] writes the document straight
/// from the hub's instruments, series and flight recorder — the bytes
/// rendering the equivalent [`Json`] tree gives, without building a tree
/// that would hold a heap node for every sampled point of every series.
#[derive(Debug, Clone, Copy)]
pub struct HubJson<'a> {
    hub: &'a MetricsHub,
}

impl HubJson<'_> {
    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = Vec::new();
        self.hub.write_json(&mut out);
        String::from_utf8(out).expect("the writers emit whole strs and ASCII")
    }
}

/// Close `writer` and take its sink back, raising the sink's panic.
fn drain(writer: SinkWriter) -> Box<dyn TraceSink> {
    writer.close().unwrap_or_else(|msg| sink_panicked(&msg))
}

/// Raise the attached sink's panic on the emitting thread.
fn sink_panicked(msg: &str) -> ! {
    panic!("trace sink panicked: {msg}")
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
        hub.set_counter(c, 5);
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
        hub.incr(b);
        hub.incr(b);
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
        });
        let c = hub.counter("x");
        hub.maybe_sample(0); // boundary 0: sample
        hub.incr(c);
        hub.maybe_sample(50); // before next boundary: no sample
        hub.maybe_sample(100); // boundary
        hub.incr(c);
        hub.maybe_sample(350); // skipped two boundaries: one sample, not three
        assert_eq!(hub.samples_taken(), 3);
        let series = hub.counter_series("x").unwrap();
        assert_eq!(series.points(), &[(0, 0.0), (100, 1.0), (350, 2.0)]);
        assert_eq!(hub.next_sample_ps(), Some(400));
    }

    /// The change log keeps an entry only where a value moved — none for
    /// a counter that stands still over 1 000 passes, one per move for a
    /// counter that moves every third pass — and a series still reads
    /// back as a point per pass since registration, a late registration
    /// included.
    #[test]
    fn series_store_only_changes() {
        let hub = MetricsHub::with_config(TelemetryConfig {
            sample_every_ps: 10,
        });
        let still = hub.counter("still");
        let moving = hub.counter("moving");
        for pass in 0..1000u64 {
            if pass % 3 == 0 {
                hub.incr(moving);
            }
            if pass == 500 {
                hub.counter("late");
            }
            hub.maybe_sample(pass * 10);
        }
        let entries = |id: CounterId| {
            let h = hub.inner.as_ref().unwrap().inner.lock().unwrap();
            h.log.iter().filter(|c| c.id == id.0).count()
        };
        assert_eq!((entries(still), entries(moving)), (0, 334));

        let points = hub.counter_series("moving").unwrap().points().to_vec();
        assert_eq!(points.len(), 1000);
        for (k, &(t, v)) in points.iter().enumerate() {
            assert_eq!((t, v), (k as u64 * 10, (k / 3 + 1) as f64));
        }
        let still = hub.counter_series("still").unwrap();
        assert!(still.points().len() == 1000 && still.max() == Some(0.0));
        let late = hub.counter_series("late").unwrap();
        assert_eq!((late.points().len(), late.points()[0]), (500, (5000, 0.0)));
    }

    /// The export, written without a tree, is byte for byte the `Json`
    /// tree of the hub's state, built here the way the hub once built it
    /// from a model that keeps a point per pass for every instrument. The
    /// hub gets a seeded mix of counters and gauges (non-finite and
    /// negative-zero gauge values, names that need escaping, one name
    /// that is both a counter and a gauge, registrations between passes),
    /// a histogram with samples and one without, and a flight ring
    /// wrapped by three records.
    #[test]
    fn export_is_the_tree_of_a_point_per_pass_model() {
        use std::collections::BTreeMap;
        let hub = MetricsHub::with_config(TelemetryConfig {
            sample_every_ps: 10,
        });
        let mut seed = 0x5EED_u64;
        let mut rand = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let gauge_values = [f64::NAN, -0.0, f64::INFINITY, 1.5, 1e20, 3.0, 0.1];
        // name -> (is_gauge, id, current value, points since registration)
        type Model = BTreeMap<(String, bool), (u32, f64, Vec<(u64, f64)>)>;
        let mut model = Model::new();
        for pass in 0..60u64 {
            if pass % 7 == 0 {
                let k = pass / 7;
                for (name, gauge) in [
                    (format!("c.{}", (k * 37) % 10), false),
                    (format!("g.\"{k}\"\n"), true),
                    ("dup".to_string(), k % 2 == 1),
                ] {
                    let id = if gauge {
                        hub.gauge(&name).0
                    } else {
                        hub.counter(&name).0
                    };
                    model.entry((name, gauge)).or_insert((id, 0.0, Vec::new()));
                }
            }
            for ((_, gauge), (id, value, _)) in model.iter_mut() {
                match (*gauge, rand(3)) {
                    (_, 0) => {}
                    (false, _) => {
                        *value += rand(1 << 40) as f64;
                        hub.set_counter(CounterId(*id), *value as u64);
                    }
                    (true, _) => {
                        let v = gauge_values[rand(gauge_values.len() as u64) as usize];
                        hub.set_gauge(GaugeId(*id), v);
                        *value = v;
                    }
                }
            }
            let t = pass * 10 + rand(5);
            hub.maybe_sample(t);
            for (_, value, points) in model.values_mut() {
                points.push((t, *value));
            }
        }
        let rtt = hub.histogram("nic.rtt_ps");
        hub.histogram("nic.empty");
        let mut rtts = Percentiles::new();
        for _ in 0..101 {
            let v = rand(1_000_000);
            hub.observe(rtt, v);
            rtts.add(v);
        }
        let scope = hub.scope("switch.\"t0\"");
        let events = [
            TraceEvent::Drop { reason: "Corrupt" },
            TraceEvent::PauseTx { port: 2, prio: 3 },
            TraceEvent::StormStart,
        ];
        let traced = FLIGHT_CAPACITY as u64 + 3;
        for (t, e) in (0..traced).zip(events.iter().cycle()) {
            hub.trace(t, scope, *e);
        }

        let values = |gauge: bool| {
            let members = model.iter().filter(|((_, g), _)| *g == gauge);
            Json::Obj(
                members
                    .map(|((name, _), (_, v, _))| {
                        let v = if gauge {
                            Json::F64(*v)
                        } else {
                            Json::U64(*v as u64)
                        };
                        (name.clone(), v)
                    })
                    .collect(),
            )
        };
        let opt = |v: Option<u64>| v.map_or(Json::Null, Json::U64);
        let empty = Json::obj(vec![
            ("count", Json::U64(0)),
            ("p50", Json::Null),
            ("p99", Json::Null),
            ("p999", Json::Null),
            ("max", Json::Null),
            ("mean", Json::Null),
        ]);
        let full = Json::obj(vec![
            ("count", Json::U64(101)),
            ("p50", opt(rtts.p50())),
            ("p99", opt(rtts.p99())),
            ("p999", opt(rtts.p999())),
            ("max", opt(rtts.max())),
            ("mean", rtts.mean().map_or(Json::Null, Json::F64)),
        ]);
        let series = model
            .iter()
            .map(|((name, _), (_, _, points))| {
                let points = points
                    .iter()
                    .map(|&(t, v)| Json::Arr(vec![Json::U64(t), Json::F64(v)]));
                (name.clone(), Json::Arr(points.collect()))
            })
            .collect();
        let records = (3..traced)
            .map(|seq| {
                let mut pairs: Vec<(String, Json)> = Vec::new();
                let event = events[seq as usize % 3];
                pairs.u64("seq", seq);
                pairs.u64("t_ps", seq);
                pairs.str("scope", "switch.\"t0\"");
                pairs.str("kind", event.kind());
                event.visit(&mut pairs);
                Json::Obj(pairs)
            })
            .collect();
        let tree = Json::obj(vec![
            ("enabled", Json::Bool(true)),
            ("sample_every_ps", Json::U64(10)),
            ("samples_taken", Json::U64(60)),
            ("counters", values(false)),
            ("gauges", values(true)),
            (
                "histograms",
                Json::obj(vec![("nic.empty", empty), ("nic.rtt_ps", full)]),
            ),
            ("series", Json::Obj(series)),
            (
                "flight_recorder",
                Json::obj(vec![
                    ("dropped", Json::U64(3)),
                    ("total_recorded", Json::U64(traced)),
                    ("records", Json::Arr(records)),
                ]),
            ),
        ]);
        assert_eq!(hub.render_json().render(), tree.render());
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
        });
        let z = hub.counter("z.last");
        let a = hub.counter("a.first");
        hub.set_counter(z, 9);
        hub.set_counter(a, 1);
        let h = hub.histogram("nic.s0.rtt_ps");
        for v in [10, 20, 30] {
            hub.observe(h, v);
        }
        let s = hub.scope("nic.s0");
        hub.trace(
            5,
            s,
            TraceEvent::RateChange {
                qp: 0,
                rate_mbps: 1000,
                cc: "dcqcn",
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
        clone.set_counter(c, 4);
        assert_eq!(hub.counter_value("shared"), Some(4));
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
            hub.set_counter(id, i);
        }
        assert_eq!(comparisons(), c0, "registration compares nothing");
        let snap = hub.counters_snapshot();
        assert_eq!(snap.len() as u64, N);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "sorted by name");
        // Every id keeps its own value.
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

    /// A sink attached to the hub receives flight events (teed, rate
    /// changes among them), hop records and queue samples with scope
    /// names resolved, honors the filter, and stops cleanly on detach.
    #[test]
    fn sink_tee_streams_filtered_records() {
        use crate::sink::{HopRecord, MemorySink, QueueSample, TraceFilter};
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
        assert!(hub.streams_queues());

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
        hub.trace(
            13,
            nic,
            TraceEvent::RateChange {
                qp: 0,
                rate_mbps: 40_000,
                cc: "dcqcn",
                cause: "cnp",
            },
        );

        hub.flush_sink();
        let recs = mem.records();
        assert_eq!(recs.len(), 3, "hop must be filtered: {recs:?}");
        assert_eq!(recs[0].body.kind(), "pause_tx");
        assert_eq!(recs[0].scope, "switch.t0");
        assert_eq!(recs[1].body.kind(), "queue");
        assert_eq!(recs[2].body.kind(), "rate_change");
        assert_eq!(recs[2].scope, "nic.s1");
        // The flight recorder still got the events (tee, not a move).
        assert_eq!(
            hub.flight_kind_counts(),
            vec![("pause_tx", 1), ("rate_change", 1)]
        );

        hub.detach_sink();
        assert!(!hub.has_sink());
        hub.trace(20, sw, TraceEvent::StormStart);
        assert_eq!(mem.len(), 3, "detached sink must see nothing new");
    }

    /// Updates from several threads land without loss — the property the
    /// fleet's Send story needs.
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
