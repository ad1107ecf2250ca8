//! RDMA management and monitoring (§5): "From day one … we put
//! RDMA/RoCEv2 management and monitoring as an indispensable part of the
//! project."
//!
//! Four subsystems, mirroring the paper's:
//!
//! * [`stats`] — latency/percentile machinery for Pingmesh-style RTT data
//!   (the p99/p99.9 numbers of Figures 6 and 8) and time-series windows
//!   for pause-frame counts (the per-5-minute plots of Figures 9 and 10).
//! * [`pingmesh`] — aggregation of RDMA Pingmesh probe results per
//!   (source, destination) pair (§5.3).
//! * [`config`] — configuration management and monitoring (§5.1): the
//!   fields a desired-vs-running check of a switch or RDMA host reports.
//!   The §6.2 buffer misconfiguration (a new switch type shipping
//!   α = 1/64 instead of 1/16) is exactly the class of deviation it
//!   catches.
//! * [`deadlock`] — progress tracking over counter snapshots and cycle
//!   search over pause-wait edges, on dense ids: the PFC deadlock
//!   signature (lossless backlog with zero transmit progress across
//!   consecutive samples, on a cyclic buffer dependency, §4.2).
//!
//! Tying them together, [`telemetry`] is the unified bus: a
//! [`MetricsHub`] of typed instruments (counters, gauges, exact
//! histograms) registered under hierarchical dotted names by every layer
//! of the stack, plus a bounded flight recorder of structured trace
//! events. [`json`] provides the serde-free JSON tree every experiment
//! renders its machine-readable report through. [`sink`] is the
//! unbounded export path: a [`TraceSink`] attached to the hub streams
//! every structured record — flight-recorder events (CC rate moves
//! among them) plus per-packet hops and queue-depth samples — out of the
//! run as line-delimited JSON for offline analysis (`trace_analyze`),
//! encoded on a writer thread of the sink's own rather than the emitting
//! thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod deadlock;
pub mod json;
pub mod pingmesh;
pub mod sink;
pub mod stats;
pub mod telemetry;
mod writer;

pub use config::{ConfigDeviation, ConfigField};
pub use deadlock::{ProgressTracker, WaitGraph};
pub use json::Json;
pub use pingmesh::Pingmesh;
pub use sink::{
    parse_jsonl, parse_line, FieldSink, HopRecord, IoErrorLatch, JsonlSink, MemorySink,
    OwnedRecord, ParsedRecord, QueueSample, RecordBody, StreamRecord, TraceFilter, TraceSink,
};
pub use stats::{Percentiles, TimeSeries};
pub use telemetry::{
    Block, BlockId, CounterId, FlightRecorder, GaugeId, Group, HistogramId, HubJson, MetricsHub,
    Path, ScopeId, TelemetryConfig, TraceEvent, TraceRecord, Values,
};
pub use writer::{SINK_BATCH_RECORDS, SINK_POOL_BATCHES};
