//! The benchmark's declared metrics — with `workloads::WORKLOADS` the
//! source of truth that `BENCHMARK.json` is generated from
//! (`--emit-manifest`) and checked against (`--self-check`), see
//! `manifest.rs` — and the table a run fills in.
//!
//! A layer is a crate of the product; `bench.*` is the harness itself.
//! README.md defines every metric and states which end-to-end metric,
//! on which workload, each per-layer metric is expected to move.

use std::collections::BTreeMap;

/// Direction of improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The manifest's spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    /// Metric name (`layer.metric` for per-layer metrics).
    pub name: &'static str,
    /// Unit, in the manifest's character set.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change is a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

/// What a user of the simulator sees: time to result, memory, heap
/// traffic, and the simulated answer itself. Same names on every
/// workload. (`failed`/`attempted` travel in the result line, not here:
/// an end-to-end metric may never be 0.)
///
/// A bound applies to every workload, so each is set by the noisiest one
/// (BASELINE.md): host timings on this class of sandbox spread 4–25 %
/// between identical runs, hence the widest bound the manifest allows;
/// the counters repeat exactly on a seed and move by under 1 % (heap
/// events) or 4 % (goodput, with the ECMP placement) across seeds.
pub const END_TO_END: &[Decl] = &[
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("run_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
    e2e("alloc_count", "count", Better::Lower, 0.05),
    e2e("sim_goodput_gbps", "Gb/s", Better::Higher, 0.15),
];

/// Single-layer metrics, grouped by crate. Counts and ratios are
/// "lower is better" where they measure wasted or overhead work and
/// "higher" where they measure useful outcomes; sizes are context.
pub const PER_LAYER: &[Decl] = &[
    // core: cluster construction, wiring, read-out, drop.
    lo("core.build_s", "s"),
    lo("core.build_us_per_host", "us"),
    lo("core.build_allocs", "count"),
    lo("core.build_alloc_mb", "MB"),
    lo("core.connect_us_per_qp", "us"),
    lo("core.warmup_s", "s"),
    lo("core.report_s", "s"),
    lo("core.teardown_s", "s"),
    hi("core.hosts", "count"),
    hi("core.switches", "count"),
    hi("core.qps", "count"),
    // topology: the Clos description and its partition.
    lo("topology.clos_s", "s"),
    lo("topology.partition_s", "s"),
    hi("topology.nodes", "count"),
    hi("topology.links", "count"),
    // sim: dispatch loop, scheduler, packet slab, shard exchange.
    hi("sim.events", "count"),
    lo("sim.ns_per_event", "ns"),
    lo("sim.run_allocs_per_kevent", "1/kevent"),
    lo("sim.kind_arrival_ns", "ns"),
    lo("sim.kind_port_idle_ns", "ns"),
    lo("sim.kind_timer_ns", "ns"),
    hi("sim.kind_arrival_events", "count"),
    hi("sim.kind_port_idle_events", "count"),
    hi("sim.kind_timer_events", "count"),
    lo("sim.batch_singleton_ratio", "ratio"),
    lo("sim.sched_pushed", "count"),
    lo("sim.sched_cascades_per_event", "ratio"),
    lo("sim.sched_overflow_pushed", "count"),
    lo("sim.sched_max_occupancy", "count"),
    lo("sim.sched_ns_per_op", "ns"),
    lo("sim.slab_capacity", "count"),
    lo("sim.slab_live_end", "count"),
    lo("sim.chunk_ms_p50", "ms"),
    lo("sim.chunk_ms_max", "ms"),
    lo("sim.shard_epochs", "count"),
    hi("sim.shard_epochs_skipped", "count"),
    lo("sim.shard_boundary_msgs", "count"),
    lo("sim.shard_busy_s", "s"),
    lo("sim.shard_exchange_s", "s"),
    lo("sim.shard_us_per_epoch", "us"),
    lo("sim.shard_imbalance", "ratio"),
    lo("sim.shard_cpu_s", "s"),
    // switch
    hi("switch.rx_pkts", "count"),
    hi("switch.tx_pkts", "count"),
    lo("switch.pause_tx", "count"),
    lo("switch.resume_tx", "count"),
    lo("switch.ecn_marked", "count"),
    lo("switch.drops", "count"),
    lo("switch.lossless_drops", "count"),
    hi("switch.flow_cache_hit_ratio", "ratio"),
    lo("switch.peak_egress_kb", "kB"),
    lo("switch.ns_per_pkt", "ns"),
    lo("switch.share_est", "ratio"),
    // nic
    hi("nic.data_pkts_tx", "count"),
    hi("nic.data_pkts_rx", "count"),
    lo("nic.cnp_tx", "count"),
    lo("nic.pause_rx", "count"),
    lo("nic.rx_overflow", "count"),
    hi("nic.send_completions", "count"),
    lo("nic.b2b_ns_per_event", "ns"),
    // transport
    hi("transport.msgs_completed", "count"),
    lo("transport.retx_pkts", "count"),
    lo("transport.retx_ratio", "ratio"),
    lo("transport.naks_rx", "count"),
    lo("transport.rto_rewinds", "count"),
    lo("transport.out_of_seq_rx", "count"),
    lo("transport.duplicate_rx", "count"),
    lo("transport.gbn_ns_per_pkt", "ns"),
    lo("transport.sr_ns_per_pkt", "ns"),
    lo("transport.sr_ns_per_pkt_late", "ns"),
    lo("transport.sr_arm_run_share", "ratio"),
    // cc (with dcqcn)
    lo("cc.rate_changes", "count"),
    lo("cc.cnp_per_kpkt", "1/kpkt"),
    lo("cc.ns_per_signal", "ns"),
    // tcp
    hi("tcp.segments_tx", "count"),
    hi("tcp.msgs_delivered", "count"),
    lo("tcp.fast_retransmits", "count"),
    lo("tcp.timeouts", "count"),
    lo("tcp.b2b_ns_per_event", "ns"),
    // packet
    lo("packet.new_ns", "ns"),
    lo("packet.codec_ns", "ns"),
    // monitor
    lo("monitor.samples_taken", "count"),
    lo("monitor.counters", "count"),
    lo("monitor.sink_records", "count"),
    lo("monitor.sink_mb", "MB"),
    lo("monitor.flight_dropped", "count"),
    hi("monitor.pingmesh_probes", "count"),
    lo("monitor.gauges_s", "s"),
    lo("monitor.queue_stream_s", "s"),
    lo("monitor.sample_s", "s"),
    lo("monitor.deadlock_probe_s", "s"),
    lo("monitor.sink_flush_s", "s"),
    lo("monitor.dispatch_overhead_pct", "%"),
    lo("monitor.incr_ns", "ns"),
    lo("monitor.hop_record_ns", "ns"),
    // bench: the harness itself.
    hi("bench.reps", "count"),
    lo("bench.rep_spread_pct", "%"),
    lo("bench.gen_s", "s"),
    lo("bench.trace_overhead_pct", "%"),
    hi("bench.nproc", "count"),
];

/// Look up a declared metric in `decls`.
pub fn find(decls: &'static [Decl], name: &str) -> Option<&'static Decl> {
    decls.iter().find(|d| d.name == name)
}

/// The metric values of one run, keyed by declared name.
#[derive(Debug, Default)]
pub struct Table {
    values: BTreeMap<&'static str, f64>,
}

impl Table {
    /// An empty table.
    pub fn new() -> Table {
        Table::default()
    }

    /// Record `name = v`. Panics on an undeclared name or a non-finite
    /// value: both are bugs in the benchmark, not measurements.
    pub fn set(&mut self, name: &str, v: f64) {
        let decl = find(END_TO_END, name)
            .or_else(|| find(PER_LAYER, name))
            .unwrap_or_else(|| panic!("metric {name:?} is not declared in metrics.rs"));
        assert!(v.is_finite(), "metric {name} is not finite: {v}");
        self.values.insert(decl.name, v);
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Every metric of `decls` in declaration order; a metric the run
    /// did not record (its layer does no work on this workload) reads 0.
    pub fn in_order(&self, decls: &'static [Decl]) -> Vec<(&'static Decl, f64)> {
        decls
            .iter()
            .map(|d| (d, self.get(d.name).unwrap_or(0.0)))
            .collect()
    }
}
