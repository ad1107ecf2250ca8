//! Streaming trace export: unbounded, structured, line-delimited.
//!
//! The flight recorder (§5's black box) keeps the most recent 4096
//! [`TraceEvent`]s — enough for a post-mortem, useless for regenerating a
//! paper figure. The paper's evidence is *trajectories*: queue depth over
//! time (Figure 10), pause propagation (Figure 9), DCQCN rate curves,
//! RTT distributions (Figure 6). This module is the export path those
//! figures need: a [`TraceSink`] receives every record the fabric emits
//! — flight-recorder events (congestion-control rate changes among
//! them), per-packet hop records and periodic queue-depth samples — as
//! it happens, and streams it out of the simulation (to a JSONL file,
//! or into memory for tests) instead of into a bounded ring.
//!
//! Invariants:
//!
//! * **Digest neutrality.** A sink only observes. It never schedules
//!   events, draws randomness, or touches packet contents, so the golden
//!   dispatch digest is byte-identical with a sink attached or not; a
//!   tier-1 test pins this the same way it pins telemetry, the profiler
//!   and the deadlock detector.
//! * **Zero cost detached.** Emission sites guard on one relaxed atomic
//!   flag load; with no sink attached the per-packet hop path costs a
//!   single compare.
//! * **Self-describing lines.** Every record renders as one JSON object
//!   with `t_ps`, `scope`, `kind` and kind-specific fields. The strict
//!   [`parse_line`] parser reads them back; `trace_analyze` is built on
//!   it, and a property test pins the round trip.
//! * **One description per record.** A record names its fields exactly
//!   once, in [`StreamRecord::visit`]; the JSONL text, the [`Json`] tree
//!   and the flight-recorder export are all [`FieldSink`]s over that one
//!   walk, so they cannot disagree on names or order. The text sink
//!   writes into a buffer [`JsonlSink`] reuses: no heap allocation per
//!   record.

use std::io::{self, Write};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::{self, Json};
use crate::telemetry::TraceEvent;

/// Receives one record's fields, in canonical line order. A field `name`
/// is a program constant of characters JSON passes through unescaped:
/// the text encoding writes it verbatim (checked in debug builds).
pub trait FieldSink {
    /// An unsigned integer field.
    fn u64(&mut self, name: &'static str, v: u64);
    /// A string field.
    fn str(&mut self, name: &'static str, v: &str);
}

/// The tree encoding: fields become the members of a [`Json::Obj`].
impl FieldSink for Vec<(String, Json)> {
    fn u64(&mut self, name: &'static str, v: u64) {
        self.push((name.to_string(), Json::U64(v)));
    }
    fn str(&mut self, name: &'static str, v: &str) {
        self.push((name.to_string(), Json::Str(v.to_string())));
    }
}

/// The text encoding: fields are appended to `out` as the members of one
/// JSON object, byte-identical to rendering the tree encoding.
pub(crate) struct ObjectText<'a> {
    out: &'a mut Vec<u8>,
    /// What opens the next member: `{"` for the first, `,"` after.
    open: &'static [u8; 2],
}

impl<'a> ObjectText<'a> {
    /// An object appended to `out`, to be given at least one field and
    /// then closed with [`Self::close`].
    pub(crate) fn new(out: &'a mut Vec<u8>) -> ObjectText<'a> {
        ObjectText { out, open: b"{\"" }
    }

    pub(crate) fn close(self) {
        self.out.push(b'}');
    }

    fn key(&mut self, name: &'static str) {
        debug_assert!(
            !name.bytes().any(json::needs_escape),
            "field name {name:?} would need escaping"
        );
        self.out.extend_from_slice(self.open);
        self.open = b",\"";
        self.out.extend_from_slice(name.as_bytes());
        self.out.extend_from_slice(b"\":");
    }
}

impl FieldSink for ObjectText<'_> {
    fn u64(&mut self, name: &'static str, v: u64) {
        self.key(name);
        json::write_u64(v, self.out);
    }
    fn str(&mut self, name: &'static str, v: &str) {
        self.key(name);
        json::write_str(v, self.out);
    }
}

/// One per-packet hop: a data packet was enqueued at a switch egress
/// port. The combination of (`scope`, `port`, `queue_bytes`) over time is
/// the raw material of queue-depth heatmaps; (`src_ip`, `dst_ip`) ties
/// hops into flow trajectories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRecord {
    /// Egress port the packet was queued on.
    pub port: u16,
    /// Priority class.
    pub prio: u8,
    /// Wire size of the packet, bytes.
    pub bytes: u32,
    /// IPv4 source (0 for non-IP frames).
    pub src_ip: u32,
    /// IPv4 destination (0 for non-IP frames).
    pub dst_ip: u32,
    /// Total bytes queued at the egress port *after* this enqueue.
    pub queue_bytes: u64,
}

/// One periodic queue-depth sample for a switch, taken at every
/// telemetry epoch by the cluster run loop — the Figure 10 time axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueSample {
    /// Lossless-class bytes queued across all egress ports.
    pub backlog_bytes: u64,
    /// Deepest single egress port right now, bytes (any class).
    pub max_port_bytes: u64,
    /// Cumulative data packets transmitted (progress corroboration).
    pub tx_pkts: u64,
}

/// The payload of one streamed record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecordBody {
    /// A flight-recorder event (drops, pauses, watchdogs, …), streamed
    /// unbounded instead of ring-buffered.
    Event(TraceEvent),
    /// A per-packet hop at a switch egress.
    Hop(HopRecord),
    /// A periodic per-switch queue-depth sample.
    Queue(QueueSample),
}

impl RecordBody {
    /// Stable kind tag for the `kind` field of the JSONL line.
    pub fn kind(&self) -> &'static str {
        match self {
            RecordBody::Event(e) => e.kind(),
            RecordBody::Hop(_) => "hop",
            RecordBody::Queue(_) => "queue",
        }
    }
}

/// One record as handed to a [`TraceSink`]: timestamp, resolved scope
/// name (the emitting component), and the payload. Borrowed so the hub
/// can stream without per-record allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamRecord<'a> {
    /// Simulated time, picoseconds.
    pub t_ps: u64,
    /// Emitting component (e.g. `switch.pod0-tor0`, `nic.s3`).
    pub scope: &'a str,
    /// Owning shard for records merged out of a sharded run; `None` for
    /// single-world emission, which keeps those lines byte-identical to
    /// the pre-sharding format.
    pub shard: Option<u32>,
    /// The payload.
    pub body: RecordBody,
}

impl StreamRecord<'_> {
    /// Describe this record to `out`: the header (`t_ps`, `scope`,
    /// `kind`, `shard` when tagged), then the kind-specific fields. The
    /// single source of truth for field names and order.
    pub fn visit(&self, out: &mut impl FieldSink) {
        out.u64("t_ps", self.t_ps);
        out.str("scope", self.scope);
        out.str("kind", self.body.kind());
        if let Some(s) = self.shard {
            out.u64("shard", s as u64);
        }
        match self.body {
            RecordBody::Event(e) => e.visit(out),
            RecordBody::Hop(h) => {
                out.u64("port", h.port as u64);
                out.u64("prio", h.prio as u64);
                out.u64("bytes", h.bytes as u64);
                out.u64("src_ip", h.src_ip as u64);
                out.u64("dst_ip", h.dst_ip as u64);
                out.u64("queue_bytes", h.queue_bytes);
            }
            RecordBody::Queue(q) => {
                out.u64("backlog_bytes", q.backlog_bytes);
                out.u64("max_port_bytes", q.max_port_bytes);
                out.u64("tx_pkts", q.tx_pkts);
            }
        }
    }

    /// Append the canonical JSON object for this record to `out` —
    /// exactly what [`JsonlSink`] writes per line (before the newline)
    /// and [`parse_line`] reads back: UTF-8 text, as bytes because that
    /// is what a writer takes. Allocates only if `out` must grow.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        let mut text = ObjectText::new(out);
        self.visit(&mut text);
        text.close();
    }

    /// The same object as a [`Json`] tree;
    /// `to_json().render()` equals what [`Self::write_json`] appends.
    pub fn to_json(&self) -> Json {
        let mut pairs = Vec::new();
        self.visit(&mut pairs);
        Json::Obj(pairs)
    }
}

/// Which record classes a sink receives. Hop records dominate volume
/// (one per packet per switch); analyses that only need trajectories can
/// drop them at the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFilter {
    /// Flight-recorder events (drops, pauses, watchdogs, …).
    pub events: bool,
    /// Per-packet hop records.
    pub hops: bool,
    /// Periodic queue-depth samples.
    pub queues: bool,
}

impl TraceFilter {
    /// Everything (the default).
    pub fn all() -> TraceFilter {
        TraceFilter {
            events: true,
            hops: true,
            queues: true,
        }
    }

    /// Everything except per-packet hops — the compact trajectory trace.
    pub fn no_hops() -> TraceFilter {
        TraceFilter {
            hops: false,
            ..TraceFilter::all()
        }
    }

    /// The bitmask the hub's lock-free emission guard loads. Non-zero
    /// exactly when at least one class is selected.
    pub fn bits(&self) -> u32 {
        (self.events as u32) | (self.hops as u32) << 1 | (self.queues as u32) << 2
    }
}

impl Default for TraceFilter {
    fn default() -> TraceFilter {
        TraceFilter::all()
    }
}

/// A destination for streamed trace records. Implementations must be
/// `Send`: the fleet runner builds clusters (sink included) inside worker
/// threads.
pub trait TraceSink: Send {
    /// Receive one record. An attached sink is called on the writer
    /// thread the hub spawned for it, in emission order; the record
    /// borrows the hub's scope table, so copy out what you keep.
    fn write(&mut self, rec: &StreamRecord<'_>);

    /// Flush buffered output (end of run, or before a reader opens the
    /// file). Default: no-op.
    fn flush(&mut self) {}
}

/// Shared view of the first I/O error a [`JsonlSink`] met. The sink is
/// boxed into the hub for the run; a clone of the latch is how its owner
/// still learns, afterwards, that the export is incomplete.
pub type IoErrorLatch = Arc<OnceLock<io::Error>>;

/// Line-delimited JSON sink over any writer (file, pipe, `Vec<u8>`).
/// One [`StreamRecord::write_json`] object per line, in emission order,
/// each handed to the writer as one `write_all`.
///
/// A failed write or flush (full disk, closed pipe) is not a simulation
/// error, so it never panics the run — but it is not swallowed either:
/// the first error is latched, nothing is written after it (a trace with
/// a hole is worse than a short one), and [`Self::io_error`] / the
/// [`IoErrorLatch`] report it.
pub struct JsonlSink {
    w: Box<dyn Write + Send>,
    /// The line under construction; reused, so steady-state records
    /// allocate nothing.
    line: Vec<u8>,
    records: u64,
    error: IoErrorLatch,
}

impl JsonlSink {
    /// Stream to a buffered file at `path` (created/truncated).
    pub fn create(path: &str) -> io::Result<JsonlSink> {
        let f = std::fs::File::create(path)?;
        Ok(JsonlSink::to_writer(io::BufWriter::new(f)))
    }

    /// Stream to an arbitrary writer.
    pub fn to_writer(w: impl Write + Send + 'static) -> JsonlSink {
        JsonlSink {
            w: Box::new(w),
            line: Vec::new(),
            records: 0,
            error: IoErrorLatch::default(),
        }
    }

    /// Records written so far (none are counted after an I/O error).
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// The first I/O error a write or flush met, if any. Once set, the
    /// sink has stopped writing.
    pub fn io_error(&self) -> Option<&io::Error> {
        self.error.get()
    }

    /// A handle to [`Self::io_error`] that outlives handing the sink to
    /// the hub.
    pub fn error_latch(&self) -> IoErrorLatch {
        self.error.clone()
    }
}

impl TraceSink for JsonlSink {
    fn write(&mut self, rec: &StreamRecord<'_>) {
        if self.error.get().is_some() {
            return;
        }
        self.line.clear();
        rec.write_json(&mut self.line);
        self.line.push(b'\n');
        // This sink is the latch's only writer and stops at the first
        // error, so `set` cannot find it occupied.
        match self.w.write_all(&self.line) {
            Ok(()) => self.records += 1,
            Err(e) => {
                let _ = self.error.set(e);
            }
        }
    }

    fn flush(&mut self) {
        if self.error.get().is_none() {
            if let Err(e) = self.w.flush() {
                let _ = self.error.set(e);
            }
        }
    }
}

/// One record copied out of the stream by a [`MemorySink`].
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedRecord {
    /// Simulated time, picoseconds.
    pub t_ps: u64,
    /// Emitting component.
    pub scope: String,
    /// Owning shard tag (see [`StreamRecord::shard`]).
    pub shard: Option<u32>,
    /// The payload.
    pub body: RecordBody,
}

impl OwnedRecord {
    /// The same canonical JSON a [`JsonlSink`] would have written.
    pub fn to_json(&self) -> Json {
        StreamRecord {
            t_ps: self.t_ps,
            scope: &self.scope,
            shard: self.shard,
            body: self.body,
        }
        .to_json()
    }
}

/// In-memory sink for tests: clone the handle before attaching, read
/// the records after the run (or another point where the hub drains its
/// sink, such as [`MetricsHub::flush_sink`]). Clones share one record
/// list.
///
/// [`MetricsHub::flush_sink`]: crate::MetricsHub::flush_sink
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    records: Arc<Mutex<Vec<OwnedRecord>>>,
}

impl MemorySink {
    /// An empty shared sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Snapshot of everything recorded so far, in emission order.
    pub fn records(&self) -> Vec<OwnedRecord> {
        self.records.lock().unwrap().clone()
    }

    /// Drain everything recorded so far, in emission order. The sharded
    /// merge uses this to move each bank's records into the final sink
    /// exactly once per flush boundary.
    pub fn take_records(&self) -> Vec<OwnedRecord> {
        std::mem::take(&mut *self.records.lock().unwrap())
    }

    /// Number of records captured.
    pub fn len(&self) -> usize {
        self.records.lock().unwrap().len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count of records of one kind.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.records
            .lock()
            .unwrap()
            .iter()
            .filter(|r| r.body.kind() == kind)
            .count()
    }
}

impl TraceSink for MemorySink {
    fn write(&mut self, rec: &StreamRecord<'_>) {
        self.records.lock().unwrap().push(OwnedRecord {
            t_ps: rec.t_ps,
            scope: rec.scope.to_string(),
            shard: rec.shard,
            body: rec.body,
        });
    }
}

/// One line of an exported trace, parsed back: the fixed header fields
/// plus every kind-specific field as (name, value). This is the
/// analyzer's working form — generic enough that new record kinds flow
/// through without a schema change.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRecord {
    /// Simulated time, picoseconds.
    pub t_ps: u64,
    /// Emitting component.
    pub scope: String,
    /// Record kind tag (`"hop"`, `"queue"`, or an event kind like
    /// `"pause_tx"` or `"rate_change"`).
    pub kind: String,
    /// Kind-specific fields in line order.
    pub fields: Vec<(String, Json)>,
}

impl ParsedRecord {
    /// A numeric field as `u64`, if present.
    pub fn u64_field(&self, name: &str) -> Option<u64> {
        self.fields
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| match v {
                Json::U64(u) => Some(*u),
                Json::I64(i) => u64::try_from(*i).ok(),
                _ => None,
            })
    }

    /// A string field, if present.
    pub fn str_field(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_str())
    }

    /// Re-render the canonical JSON line this record was parsed from.
    /// `parse_line(line)?.to_json().render() == line` for every line a
    /// [`JsonlSink`] writes — the round-trip property the tests pin.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("t_ps".to_string(), Json::U64(self.t_ps)),
            ("scope".to_string(), Json::Str(self.scope.clone())),
            ("kind".to_string(), Json::Str(self.kind.clone())),
        ];
        pairs.extend(self.fields.iter().cloned());
        Json::Obj(pairs)
    }
}

/// Parse one JSONL trace line. Strict about the header (`t_ps`, `scope`,
/// `kind` must be present and correctly typed); everything else is
/// carried through as kind-specific fields.
pub fn parse_line(line: &str) -> Result<ParsedRecord, String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let Json::Obj(pairs) = v else {
        return Err("trace line is not a JSON object".to_string());
    };
    let mut t_ps = None;
    let mut scope = None;
    let mut kind = None;
    let mut fields = Vec::new();
    for (k, v) in pairs {
        match (k.as_str(), &v) {
            ("t_ps", Json::U64(t)) => t_ps = Some(*t),
            ("t_ps", _) => return Err("\"t_ps\" must be an unsigned integer".to_string()),
            ("scope", Json::Str(s)) => scope = Some(s.clone()),
            ("scope", _) => return Err("\"scope\" must be a string".to_string()),
            ("kind", Json::Str(s)) => kind = Some(s.clone()),
            ("kind", _) => return Err("\"kind\" must be a string".to_string()),
            _ => fields.push((k, v)),
        }
    }
    Ok(ParsedRecord {
        t_ps: t_ps.ok_or("missing \"t_ps\"")?,
        scope: scope.ok_or("missing \"scope\"")?,
        kind: kind.ok_or("missing \"kind\"")?,
        fields,
    })
}

/// Parse a whole exported trace (one record per line; blank lines
/// allowed). Errors carry the 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<ParsedRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<OwnedRecord> {
        vec![
            OwnedRecord {
                t_ps: 1_000,
                scope: "switch.t0".into(),
                shard: None,
                body: RecordBody::Hop(HopRecord {
                    port: 4,
                    prio: 3,
                    bytes: 1120,
                    src_ip: 0x0a000001,
                    dst_ip: 0x0a000002,
                    queue_bytes: 2240,
                }),
            },
            OwnedRecord {
                t_ps: 2_000,
                scope: "switch.t0".into(),
                shard: None,
                body: RecordBody::Event(TraceEvent::PauseTx { port: 1, prio: 3 }),
            },
            OwnedRecord {
                t_ps: 3_000,
                scope: "nic.s1".into(),
                // Shard-tagged, as the sharded merge emits: the tag must
                // survive the render → parse → re-render round trip.
                shard: Some(2),
                body: RecordBody::Event(TraceEvent::RateChange {
                    qp: 0,
                    rate_mbps: 20_000,
                    cc: "dcqcn",
                    cause: "cnp",
                }),
            },
            OwnedRecord {
                t_ps: 100_000_000,
                scope: "switch.t0".into(),
                shard: None,
                body: RecordBody::Queue(QueueSample {
                    backlog_bytes: 1 << 20,
                    max_port_bytes: 1 << 19,
                    tx_pkts: 42,
                }),
            },
        ]
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let buf: Vec<u8> = Vec::new();
        let shared = Arc::new(Mutex::new(buf));
        struct SharedWriter(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedWriter {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::to_writer(SharedWriter(shared.clone()));
        for r in sample_records() {
            sink.write(&StreamRecord {
                t_ps: r.t_ps,
                scope: &r.scope,
                shard: r.shard,
                body: r.body,
            });
        }
        sink.flush();
        assert_eq!(sink.records_written(), 4);
        let text = String::from_utf8(shared.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 4);
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed.len(), 4);
        assert_eq!(parsed[0].kind, "hop");
        assert_eq!(parsed[1].kind, "pause_tx");
        assert_eq!(parsed[2].kind, "rate_change");
        assert_eq!(parsed[3].kind, "queue");
        assert_eq!(parsed[3].u64_field("backlog_bytes"), Some(1 << 20));
        assert_eq!(parsed[2].str_field("cc"), Some("dcqcn"));
    }

    /// A writer that accepts `budget` bytes, then fails every call;
    /// `calls` counts how often it was asked.
    struct FailAfter {
        budget: usize,
        calls: Arc<Mutex<u32>>,
    }
    impl Write for FailAfter {
        fn write(&mut self, b: &[u8]) -> io::Result<usize> {
            *self.calls.lock().unwrap() += 1;
            if b.len() > self.budget {
                return Err(io::Error::other("disk full"));
            }
            self.budget -= b.len();
            Ok(b.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            *self.calls.lock().unwrap() += 1;
            Err(io::Error::other("flush failed"))
        }
    }

    fn write_all_samples(sink: &mut JsonlSink) {
        for r in sample_records() {
            sink.write(&StreamRecord {
                t_ps: r.t_ps,
                scope: &r.scope,
                shard: r.shard,
                body: r.body,
            });
        }
    }

    /// The first failed write is latched, visible through the sink and
    /// through a latch handle taken before the sink was boxed away, and
    /// nothing — not even a flush — reaches the writer after it.
    #[test]
    fn jsonl_sink_latches_first_write_error_and_stops() {
        let first = sample_records()[0].to_json().render().len() + 1;
        let calls = Arc::new(Mutex::new(0));
        let mut sink = JsonlSink::to_writer(FailAfter {
            budget: first + 10, // room for line 1, not for line 2
            calls: calls.clone(),
        });
        let latch = sink.error_latch();
        assert!(sink.io_error().is_none() && latch.get().is_none());
        write_all_samples(&mut sink);
        sink.flush();
        assert_eq!(sink.io_error().unwrap().to_string(), "disk full");
        assert_eq!(latch.get().unwrap().to_string(), "disk full");
        assert_eq!(sink.records_written(), 1);
        assert_eq!(
            *calls.lock().unwrap(),
            2,
            "line 1, failed line 2, then silence"
        );
    }

    /// A flush error is latched exactly like a write error.
    #[test]
    fn jsonl_sink_latches_flush_error() {
        let mut sink = JsonlSink::to_writer(FailAfter {
            budget: usize::MAX,
            calls: Arc::default(),
        });
        write_all_samples(&mut sink);
        assert!(sink.io_error().is_none());
        sink.flush();
        assert_eq!(sink.io_error().unwrap().to_string(), "flush failed");
        assert_eq!(sink.records_written(), 4);
    }

    /// Canonical round trip: render → parse → re-render is the identity
    /// on bytes, for every record kind.
    #[test]
    fn parse_reaches_fixpoint_on_canonical_lines() {
        for r in sample_records() {
            let line = r.to_json().render();
            let back = parse_line(&line).unwrap();
            assert_eq!(back.to_json().render(), line);
            assert_eq!(back.t_ps, r.t_ps);
            assert_eq!(back.scope, r.scope);
            assert_eq!(back.kind, r.body.kind());
        }
    }

    #[test]
    fn memory_sink_copies_records() {
        let sink = MemorySink::new();
        let mut writer = sink.clone();
        for r in sample_records() {
            writer.write(&StreamRecord {
                t_ps: r.t_ps,
                scope: &r.scope,
                shard: r.shard,
                body: r.body,
            });
        }
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.count_kind("hop"), 1);
        assert_eq!(sink.records(), sample_records());
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line("[1,2]").is_err());
        assert!(parse_line(r#"{"scope":"x","kind":"hop"}"#).is_err()); // no t_ps
        assert!(parse_line(r#"{"t_ps":-1,"scope":"x","kind":"hop"}"#).is_err());
        assert!(parse_line(r#"{"t_ps":1,"scope":2,"kind":"hop"}"#).is_err());
        assert!(
            parse_jsonl("{\"t_ps\":1,\"scope\":\"s\",\"kind\":\"k\"}\ngarbage\n")
                .unwrap_err()
                .contains("line 2")
        );
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = "\n{\"t_ps\":1,\"scope\":\"s\",\"kind\":\"k\"}\n\n";
        assert_eq!(parse_jsonl(text).unwrap().len(), 1);
    }

    #[test]
    fn filter_bits() {
        assert_eq!(TraceFilter::all().bits(), 0b111);
        assert_eq!(TraceFilter::no_hops().bits(), 0b101);
        let none = TraceFilter {
            events: false,
            hops: false,
            queues: false,
        };
        assert_eq!(none.bits(), 0);
    }
}
