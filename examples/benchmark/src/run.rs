//! The repetition driver shared by the four workloads: run a workload's
//! repetitions for the measuring budget, hold them to "identical work,
//! identical answer", and reduce them to the declared metrics.

use std::time::Instant;

use rocescale::sim::SimTime;
use rocescale::topology::ClosSpec;

use crate::fabric::Counts;
use crate::kernels;
use crate::metrics::{Table, PER_LAYER};
use crate::rec::{self, Phase, PhaseTotals, Rec};

/// Horizon scaling: 1 for measurement, 20 for `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Every simulated horizon is divided by this.
    pub div: u64,
}

impl Scale {
    /// `t` microseconds of simulated time at this scale.
    pub fn micros(&self, t: u64) -> SimTime {
        SimTime::from_nanos(t * 1000 / self.div)
    }
}

/// How a repetition is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No instrumentation beyond the phase marks: feeds the end-to-end
    /// metrics.
    Plain,
    /// Dispatch profiler on, the window run in chunks under spans,
    /// counters read around the window: feeds the per-layer metrics.
    Traced,
    /// The workload's differential twin (unobserved for
    /// `incast_observed`, serial for `fleet_sharded`), uninstrumented.
    Twin,
}

/// What must repeat exactly across repetitions of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sig {
    /// Dispatch digest at the end of the window.
    pub digest: u64,
    /// Events dispatched over the whole repetition.
    pub events: u64,
    /// Receiver goodput over the timed window, bytes.
    pub goodput_bytes: u64,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Did it hold?
    pub ok: bool,
    /// The observed values.
    pub detail: String,
}

impl Check {
    /// A check named `name` that holds iff `ok`.
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// What one repetition hands back.
pub struct RepOut {
    /// The exactly-repeating signature.
    pub sig: Sig,
    /// Simulated length of the timed window(s), picoseconds.
    pub window_ps: u64,
    /// Events dispatched inside the timed window(s).
    pub window_events: u64,
    /// Flows (QPs, connections, transfers) expected to make progress in
    /// the window, and how many did not.
    pub flows: u64,
    /// Flows that made no progress.
    pub flows_failed: u64,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Per-layer metrics this repetition measured (traced mode only,
    /// apart from sizes).
    pub layer: Table,
}

/// A workload: what the manifest says about it and how to run it.
pub struct Workload {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The manifest's one line on why it exists.
    pub why: &'static str,
    /// Run one repetition.
    pub rep: fn(seed: u64, scale: &Scale, mode: Mode, rec: &mut Rec) -> RepOut,
    /// The fabric it builds (for the topology kernels).
    pub spec: fn(&Scale) -> ClosSpec,
    /// Shard count requested of the builder.
    pub shards: u32,
    /// Whether allocations repeat exactly (single-threaded workloads).
    pub exact_allocs: bool,
    /// Whether `Mode::Twin` is meaningful: a differential twin that must
    /// dispatch the identical event stream.
    pub has_twin: bool,
    /// If the twin is the workload minus an overhead, the metric that
    /// reports the untraced window against the twin's, in percent.
    pub twin_overhead_metric: Option<&'static str>,
}

/// Reading of the window counters of a traced repetition into `t`,
/// plus the chunk statistics.
pub struct WindowTrace {
    /// Work done inside the window(s).
    pub work: Counts,
    /// Wall milliseconds of each chunk.
    pub chunk_ms: Vec<f64>,
}

impl WindowTrace {
    /// Empty.
    pub fn new() -> WindowTrace {
        WindowTrace {
            work: Counts::default(),
            chunk_ms: Vec::new(),
        }
    }

    /// Write counters and chunk percentiles into `t`.
    pub fn emit(&mut self, t: &mut Table) {
        self.work.emit(t);
        if !self.chunk_ms.is_empty() {
            self.chunk_ms.sort_by(f64::total_cmp);
            t.set("sim.chunk_ms_p50", self.chunk_ms[self.chunk_ms.len() / 2]);
            t.set("sim.chunk_ms_max", self.chunk_ms[self.chunk_ms.len() - 1]);
        }
    }
}

/// The number of equal chunks a traced window is run as.
pub const CHUNKS: u64 = 200;

/// Advance from `from` to `to` in `n` equal simulated chunks, each under
/// a `chunk` span; `step(t, rec)` must advance the simulation to `t`.
/// Chunk ends other than `to` are rounded down to a multiple of `grid`
/// picoseconds (1 for no grid) and empty chunks are skipped.
pub fn run_chunked(
    rec: &mut Rec,
    (from, to): (SimTime, SimTime),
    n: u64,
    grid: u64,
    chunk_ms: &mut Vec<f64>,
    mut step: impl FnMut(SimTime, &mut Rec),
) {
    let span = to.as_ps() - from.as_ps();
    let mut at = from.as_ps();
    for i in 1..=n {
        let t = if i == n {
            to.as_ps()
        } else {
            (from.as_ps() + span / n * i) / grid * grid
        };
        if t <= at {
            continue;
        }
        at = t;
        let id = rec.open("chunk");
        step(SimTime(t), rec);
        chunk_ms.push(rec.close(id) * 1e3);
    }
}

/// The result of running one workload: what `main` prints.
pub struct Outcome {
    /// Metric values (end-to-end or per-layer, by `--trace`).
    pub table: Table,
    /// Operations attempted (flows plus checks).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Every check, for the human-readable part of the output.
    pub checks: Vec<Check>,
    /// `(setup_s, run_s, wall_s)` of each untraced repetition, so a
    /// reader can see the noise behind the medians.
    pub rep_times: Vec<(f64, f64, f64)>,
}

/// How to run a workload.
pub struct RunOpts<'a> {
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// Measuring budget, seconds.
    pub seconds: f64,
    /// Report per-layer metrics (traced run) instead of end-to-end ones.
    pub trace: bool,
    /// Horizon scaling.
    pub scale: Scale,
    /// Untraced repetitions to make at least.
    pub min_reps: usize,
    /// Run the per-layer kernels in a traced run.
    pub kernels: bool,
    /// Where a traced run writes its spans.
    pub trace_out: Option<&'a str>,
}

type Rep = (PhaseTotals, RepOut);

/// Median over the repetitions of `f`.
fn median_of(reps: &[Rep], f: impl Fn(&PhaseTotals) -> f64) -> f64 {
    let mut v: Vec<f64> = reps.iter().map(|(p, _)| f(p)).collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Run `w` and reduce to metrics.
///
/// Untraced: repetitions until the budget is used (at least
/// `min_reps`), every timing reported as the median over repetitions.
/// The simulator is deterministic, so every repetition does identical
/// work and the repetitions differ only by the host's noise; that noise
/// is two-sided here (the host alternates between a slower and a faster
/// state for seconds at a time), which is why the median and not the
/// minimum is reported — see README.md. Traced: two untraced repetitions
/// for reference, then the traced one, the twin, and the kernels.
pub fn run_workload(w: &Workload, o: &RunOpts) -> Outcome {
    let started = Instant::now();
    let mut rec = Rec::new();
    let mut reps: Vec<Rep> = Vec::new();
    // A traced run needs the untraced repetitions only as its reference.
    let target = if o.trace {
        o.min_reps.min(2)
    } else {
        o.min_reps
    };
    loop {
        rec.begin_rep("rep");
        let out = (w.rep)(o.seed, &o.scale, Mode::Plain, &mut rec);
        let totals = rec.end_rep();
        let next_fits = started.elapsed().as_secs_f64() + totals.wall_s <= o.seconds;
        reps.push((totals, out));
        if reps.len() >= target && (o.trace || !next_fits) {
            break;
        }
    }

    let first = &reps[0].1;
    let mut checks = first.checks.clone();
    checks.push(Check::new(
        "digest, events and goodput identical across repetitions",
        reps.iter().all(|(_, r)| r.sig == first.sig),
        format!("{} repetitions, first {:?}", reps.len(), first.sig),
    ));
    let allocs: Vec<u64> = reps.iter().map(|(p, _)| p.total_allocs()).collect();
    let amin = *allocs.iter().min().expect("at least one repetition");
    let amax = *allocs.iter().max().expect("at least one repetition");
    checks.push(if w.exact_allocs {
        Check::new(
            "allocation count identical across repetitions",
            amin == amax,
            format!("{allocs:?}"),
        )
    } else {
        Check::new(
            "allocation count within 0.1% across repetitions (threaded)",
            (amax - amin) as f64 <= amin as f64 * 1e-3,
            format!("{allocs:?}"),
        )
    });

    let table = if o.trace {
        traced_pass(w, o, &reps, &mut rec, &mut checks)
    } else {
        let mut t = Table::new();
        t.set("wall_s", median_of(&reps, |p| p.wall_s));
        t.set("setup_s", median_of(&reps, |p| p.setup_s()));
        t.set("run_s", median_of(&reps, |p| p.secs(Phase::Run)));
        t.set("peak_rss_mb", rec::peak_rss_mb());
        t.set("alloc_count", median_of(&reps, |p| p.total_allocs() as f64));
        t.set(
            "sim_goodput_gbps",
            first.sig.goodput_bytes as f64 * 8.0 / (first.window_ps as f64 / 1e12) / 1e9,
        );
        t
    };

    // At 1/20 of the horizon a window can be shorter than a flow's
    // period, so progress is judged at full scale only.
    let flows_failed = if o.scale.div == 1 {
        first.flows_failed
    } else {
        0
    };
    let failed_checks = checks.iter().filter(|c| !c.ok).count() as u64;
    Outcome {
        table,
        attempted: first.flows + checks.len() as u64,
        failed: flows_failed + failed_checks,
        rep_times: reps
            .iter()
            .map(|(p, _)| (p.setup_s(), p.secs(Phase::Run), p.wall_s))
            .collect(),
        checks,
    }
}

/// The traced repetition, the twin, the topology calls and the kernels:
/// the per-layer table. `reps` are the untraced reference repetitions.
fn traced_pass(
    w: &Workload,
    o: &RunOpts,
    reps: &[Rep],
    rec: &mut Rec,
    checks: &mut Vec<Check>,
) -> Table {
    let (last_totals, last) = reps.last().expect("a repetition ran");
    let run_med = median_of(reps, |p| p.secs(Phase::Run));
    let (run_lo, run_hi) = reps
        .iter()
        .map(|(p, _)| p.secs(Phase::Run))
        .fold((f64::INFINITY, 0.0), |(lo, hi), s| {
            (lo.min(s), f64::max(hi, s))
        });

    let cursor = rec.len();
    rec.begin_rep("rep-traced");
    let traced = (w.rep)(o.seed, &o.scale, Mode::Traced, rec);
    let tt = rec.end_rep();
    checks.push(Check::new(
        "traced repetition dispatches the identical event stream",
        traced.sig == last.sig,
        format!("{:?}", traced.sig),
    ));
    let gap = (tt.phase_sum_s() - tt.wall_s).abs() / tt.wall_s;
    checks.push(Check::new(
        "phase spans of the traced repetition sum to its wall time within 2%",
        gap <= 0.02,
        format!("sum {:.6} s, wall {:.6} s", tt.phase_sum_s(), tt.wall_s),
    ));
    checks.extend(traced.checks.iter().filter(|c| !c.ok).cloned());

    // Traced values first; what only an untraced repetition can measure
    // fairly (shares of wall time) fills the gaps.
    let mut t = Table::new();
    for layer in [&traced.layer, &last.layer] {
        for d in PER_LAYER {
            if let (None, Some(v)) = (t.get(d.name), layer.get(d.name)) {
                t.set(d.name, v);
            }
        }
    }
    let hosts = t.get("core.hosts").unwrap_or(1.0).max(1.0);
    let qps = t.get("core.qps").unwrap_or(1.0).max(1.0);
    t.set("core.build_s", tt.secs(Phase::Build));
    t.set(
        "core.build_us_per_host",
        tt.secs(Phase::Build) * 1e6 / hosts,
    );
    t.set(
        "core.connect_us_per_qp",
        tt.secs(Phase::Connect) * 1e6 / qps,
    );
    t.set("core.warmup_s", tt.secs(Phase::Warmup));
    t.set("core.report_s", tt.secs(Phase::Report));
    t.set("core.teardown_s", tt.secs(Phase::Teardown));
    t.set("bench.gen_s", tt.secs(Phase::Gen));
    // Allocation and per-event figures come from the last untraced
    // repetition: the trace's own bookkeeping must not count.
    let window_events = last.window_events.max(1) as f64;
    t.set("core.build_allocs", last_totals.allocs(Phase::Build) as f64);
    t.set(
        "core.build_alloc_mb",
        last_totals.bytes(Phase::Build) as f64 / 1e6,
    );
    t.set(
        "sim.run_allocs_per_kevent",
        last_totals.allocs(Phase::Run) as f64 * 1e3 / window_events,
    );
    t.set("sim.ns_per_event", run_med * 1e9 / window_events);
    t.set("bench.reps", reps.len() as f64);
    t.set("bench.rep_spread_pct", (run_hi - run_lo) / run_lo * 100.0);
    t.set(
        "bench.trace_overhead_pct",
        (tt.secs(Phase::Run) - run_med) / run_med * 100.0,
    );
    t.set(
        "bench.nproc",
        std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
    );
    // Per-tick monitor time inside the traced repetition (no such spans
    // where no hub is attached).
    let mut tick_s = 0.0;
    for (metric, span) in [
        ("monitor.gauges_s", "publish_gauges"),
        ("monitor.queue_stream_s", "stream_queue_samples"),
        ("monitor.sample_s", "maybe_sample"),
        ("monitor.deadlock_probe_s", "deadlock_observe"),
        ("monitor.sink_flush_s", "flush_sink"),
    ] {
        let s = rec.total_since(cursor, span);
        tick_s += s;
        if s > 0.0 {
            t.set(metric, s);
        }
    }

    if w.has_twin {
        rec.begin_rep("rep-twin");
        let twin = (w.rep)(o.seed, &o.scale, Mode::Twin, rec);
        let twin_totals = rec.end_rep();
        checks.push(Check::new(
            "differential twin dispatches the identical event stream",
            twin.sig == last.sig,
            format!("twin {:?}", twin.sig),
        ));
        if let Some(metric) = w.twin_overhead_metric {
            // The overhead as it sits inside dispatch: the untraced
            // window minus the per-tick calls, against the twin's window.
            let base = twin_totals.secs(Phase::Run);
            t.set(metric, (run_med - tick_s - base) / base * 100.0);
        }
    }

    kernels::topology(rec, &mut t, &(w.spec)(&o.scale), w.shards);
    if o.kernels {
        let occupancy = t.get("sim.sched_max_occupancy").unwrap_or(0.0) as usize;
        kernels::run_all(rec, &mut t, occupancy);
        let ns = t.get("switch.ns_per_pkt").unwrap_or(0.0);
        let rx = t.get("switch.rx_pkts").unwrap_or(0.0);
        t.set("switch.share_est", ns * rx / (run_med * 1e9));
    }
    if let Some(path) = o.trace_out {
        if let Err(e) = std::fs::write(path, rec.to_json(w.name, o.seed)) {
            eprintln!("cannot write {path}: {e}");
        }
    }
    t
}
