//! `incast_observed` — the Figure 6/8 latency-sensitive service on a
//! two-tier fabric (8 racks × 16 = 128 servers, half RDMA half TCP):
//! every server fans a 512 B query out to 6 backends of its own kind
//! every 200 µs of simulated time and each backend answers with 32 KiB —
//! an open loop in simulated time — with every observation feature on:
//! an enabled `MetricsHub` at the 100 µs cadence, a `JsonlSink` with
//! `TraceFilter::all()` into a counting in-memory writer (no disk),
//! Pingmesh at fan-out 2 every 100 µs, and the live deadlock probe.
//!
//! Why it exists: the monitor layer does most of the work here and none
//! in `clos_stress`; it is also the only workload with tcp and with
//! short messages.
//!
//! Inputs from the seed: which servers of each rack run RDMA and which
//! TCP, each front-end's backends (a shuffled ring, so every server
//! answers exactly 6 front-ends), every front-end's fan-out phase, the
//! RDMA QPs' UDP source ports, and the world's RNG seed.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use rocescale::core::{Cluster, ClusterBuilder, InstrumentationProfile, ServerId, ServerKind};
use rocescale::monitor::{JsonlSink, MetricsHub, Percentiles, QueueSample, ScopeId, TraceFilter};
use rocescale::nic::{HostApp, QpApp};
use rocescale::packet::ROCE_PAYLOAD_MTU as MTU_PAYLOAD;
use rocescale::sim::{ProfileMode, SimRng, SimTime};
use rocescale::tcp::{ConnHandle, TcpApp};
use rocescale::topology::ClosSpec;

use crate::fabric::Counts;
use crate::metrics::Table;
use crate::rec::{Phase, Rec};
use crate::run::{run_chunked, Check, Mode, RepOut, Scale, Sig, WindowTrace, CHUNKS};
use crate::workloads::{
    accepted_pkts, delivered, rate_changes, shuffle, size_metrics, world_metrics, RxFlow,
};

const RACKS: u32 = 8;
const PER_RACK: u32 = 16;
const FANIN: usize = 6;
const QUERY: u32 = 512;
const REPLY: u32 = 8 * 1024;
const INTERVAL_US: u64 = 200;
const PING_FANOUT: usize = 2;
const PING_INTERVAL_US: u64 = 100;
const WARMUP_US: u64 = 2_000;
const WINDOW_US: u64 = 8_000;

/// The fabric: what `ClusterBuilder::two_tier(8, 16)` builds.
pub fn spec(_: &Scale) -> ClosSpec {
    ClosSpec::uniform_40g(1, RACKS, 2, 2, PER_RACK)
}

struct Inputs {
    world_seed: u64,
    /// Kind of server `i` (topology order).
    kinds: Vec<ServerKind>,
    /// Ring order of the RDMA servers (indices into the RDMA list), and
    /// of the TCP servers: position `p` queries positions `p+1..=p+6`.
    rdma_ring: Vec<usize>,
    tcp_ring: Vec<usize>,
    /// First fan-out time of each front-end, per kind list index.
    rdma_phase_us: Vec<u64>,
    tcp_phase_us: Vec<u64>,
    /// UDP source port of each RDMA (front-end, backend) pair.
    udp: Vec<u16>,
}

fn generate(seed: u64) -> Inputs {
    let mut rng = SimRng::from_seed(seed ^ 0x1CA5_7000);
    let world_seed = rng.next_u64();
    let n = (RACKS * PER_RACK) as usize;
    // Alternate kinds within each rack, the rack's parity from the seed:
    // every rack keeps 8 RDMA and 8 TCP servers.
    let mut kinds = Vec::with_capacity(n);
    for _ in 0..RACKS {
        let flip = rng.gen_index(2);
        for i in 0..PER_RACK as usize {
            kinds.push(if (i + flip).is_multiple_of(2) {
                ServerKind::Rdma
            } else {
                ServerKind::Tcp
            });
        }
    }
    let half = n / 2;
    let mut rdma_ring: Vec<usize> = (0..half).collect();
    let mut tcp_ring: Vec<usize> = (0..half).collect();
    shuffle(&mut rdma_ring, &mut rng);
    shuffle(&mut tcp_ring, &mut rng);
    let phase = |rng: &mut SimRng| -> Vec<u64> {
        (0..half).map(|_| 50 + rng.gen_below(INTERVAL_US)).collect()
    };
    let rdma_phase_us = phase(&mut rng);
    let tcp_phase_us = phase(&mut rng);
    let udp = (0..half * FANIN)
        .map(|_| rng.gen_range(1024..20_000) as u16)
        .collect();
    Inputs {
        world_seed,
        kinds,
        rdma_ring,
        tcp_ring,
        rdma_phase_us,
        tcp_phase_us,
        udp,
    }
}

/// The sink's writer: counts what it is given and keeps nothing.
#[derive(Clone, Default)]
struct CountingWriter {
    records: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // `JsonlSink` hands over one whole line per call.
        self.records.fetch_add(1, Relaxed);
        self.bytes.fetch_add(buf.len() as u64, Relaxed);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Cumulative readings at the start of a traced window.
struct WindowStart {
    counts: Counts,
    tcp: [u64; 4],
    rate_changes: u64,
    samples: u64,
    sink_records: u64,
    sink_bytes: u64,
}

/// One TCP flow direction: the receiving host and its connection.
struct TcpRx {
    server: ServerId,
    conn: ConnHandle,
}

fn tcp_delivered(c: &Cluster, flows: &[TcpRx]) -> Vec<u64> {
    flows
        .iter()
        .map(|f| c.tcp(f.server).bytes_delivered(f.conn))
        .collect()
}

/// `[segments_tx, msgs_delivered, fast_retransmits, timeouts]` over all
/// TCP hosts.
fn tcp_counters(c: &Cluster, hosts: &[ServerId]) -> [u64; 4] {
    let mut t = [0; 4];
    for h in hosts {
        let s = &c.tcp(*h).stats;
        t[0] += s.segments_tx;
        t[1] += s.msgs_delivered;
        t[2] += s.fast_retransmits;
        t[3] += s.timeouts;
    }
    t
}

/// What `Cluster::run_until` does at one telemetry sample boundary,
/// re-issued from outside through the same public calls so each can sit
/// under its own span. (`stream_queue_samples` is private; its body is
/// three public switch reads and `MetricsHub::stream_queue`.)
fn sample_tick(c: &mut Cluster, hub: &MetricsHub, scopes: &[ScopeId], ns: u64, rec: &mut Rec) {
    let id = rec.open("publish_gauges");
    c.publish_gauges();
    rec.close(id);
    let id = rec.open("stream_queue_samples");
    if hub.streams_queues() {
        for (i, scope) in scopes.iter().enumerate() {
            let sw = Cluster::switch(c, i);
            hub.stream_queue(
                ns,
                *scope,
                QueueSample {
                    backlog_bytes: sw.lossless_backlog(),
                    max_port_bytes: sw.max_egress_depth(),
                    tx_pkts: sw.total_data_tx_pkts(),
                },
            );
        }
    }
    rec.close(id);
    let id = rec.open("deadlock_observe");
    c.deadlock_observe_now();
    rec.close(id);
    let id = rec.open("maybe_sample");
    hub.maybe_sample(ns);
    rec.close(id);
}

/// `Cluster::run_until(t)` with its per-tick calls under spans.
fn run_until_traced(
    c: &mut Cluster,
    hub: &MetricsHub,
    scopes: &[ScopeId],
    t: SimTime,
    rec: &mut Rec,
) {
    while let Some(ns) = hub.next_sample_ps() {
        if ns >= t.as_ps() {
            break;
        }
        let id = rec.open("dispatch");
        c.world.run_until(SimTime(ns));
        rec.close(id);
        sample_tick(c, hub, scopes, ns, rec);
    }
    let id = rec.open("dispatch");
    c.world.run_until(t);
    rec.close(id);
    let id = rec.open("flush_sink");
    hub.flush_sink();
    rec.close(id);
}

/// Install the query/response service: on the RDMA half one `Fanout`
/// host app per front-end over its 6 QPs, on the TCP half the same shape
/// with one `Pinger` per (front-end, backend). Returns the receiving end
/// of every flow direction.
fn install_service(c: &mut Cluster, inputs: &Inputs) -> (Vec<RxFlow>, Vec<TcpRx>) {
    let interval = SimTime::from_micros(INTERVAL_US);
    let rdma = c.servers_of_kind(ServerKind::Rdma);
    let tcp = c.servers_of_kind(ServerKind::Tcp);
    let mut rx: Vec<RxFlow> = Vec::new();
    for (pos, &fi) in inputs.rdma_ring.iter().enumerate() {
        let front = rdma[fi];
        let mut qps = Vec::with_capacity(FANIN);
        for k in 1..=FANIN {
            let back = rdma[inputs.rdma_ring[(pos + k) % inputs.rdma_ring.len()]];
            let (qf, qb) = c.connect_qp(
                front,
                back,
                inputs.udp[pos * FANIN + k - 1],
                QpApp::None,
                QpApp::Echo { reply_len: REPLY },
            );
            qps.push(qf);
            rx.push(RxFlow {
                server: front,
                qp: qf,
                payload: MTU_PAYLOAD,
            });
            rx.push(RxFlow {
                server: back,
                qp: qb,
                payload: QUERY,
            });
        }
        c.rdma_mut(front).set_host_app(HostApp::Fanout {
            qps,
            interval,
            query_len: QUERY,
            start_at: SimTime::from_micros(inputs.rdma_phase_us[fi]),
        });
    }
    let mut tcp_rx: Vec<TcpRx> = Vec::new();
    for (pos, &fi) in inputs.tcp_ring.iter().enumerate() {
        let front = tcp[fi];
        for k in 1..=FANIN {
            let back = tcp[inputs.tcp_ring[(pos + k) % inputs.tcp_ring.len()]];
            let (cf, cb) = c.connect_tcp(
                front,
                back,
                TcpApp::Pinger {
                    payload: QUERY,
                    interval,
                    start_at: SimTime::from_micros(inputs.tcp_phase_us[fi] + k as u64),
                },
                TcpApp::Echo { reply_len: REPLY },
            );
            tcp_rx.push(TcpRx {
                server: front,
                conn: cf,
            });
            tcp_rx.push(TcpRx {
                server: back,
                conn: cb,
            });
        }
    }
    (rx, tcp_rx)
}

/// One repetition.
pub fn rep(seed: u64, scale: &Scale, mode: Mode, rec: &mut Rec) -> RepOut {
    let traced = mode == Mode::Traced;
    let observed = mode != Mode::Twin;
    let inputs = generate(seed);
    rec.mark(Phase::Gen);

    let writer = CountingWriter::default();
    let hub = if observed {
        MetricsHub::enabled()
    } else {
        MetricsHub::disabled()
    };
    let mut instr = InstrumentationProfile::paper_default().telemetry(hub.clone());
    if observed {
        instr = instr.trace_sink_filtered(JsonlSink::to_writer(writer.clone()), TraceFilter::all());
    }
    if traced {
        instr = instr.profiler(ProfileMode::On);
    }
    let kinds = inputs.kinds.clone();
    let mut c = ClusterBuilder::new(spec(scale))
        .seed(inputs.world_seed)
        .server_kind(move |i| kinds[i])
        .instrumentation(instr)
        .build();
    rec.mark(Phase::Build);

    let rdma = c.servers_of_kind(ServerKind::Rdma);
    let tcp = c.servers_of_kind(ServerKind::Tcp);
    let (rx, tcp_rx) = install_service(&mut c, &inputs);
    // Pingmesh rides on top in every mode: its probes are traffic, so
    // the unobserved twin must carry them too to dispatch the same
    // event stream.
    let pairs = c.install_pingmesh(PING_FANOUT, SimTime::from_micros(PING_INTERVAL_US));
    rec.mark(Phase::Connect);

    let warm = scale.micros(WARMUP_US);
    let end = warm + scale.micros(WINDOW_US);
    // The scopes the switches registered themselves under (the hub
    // returns the existing id for a known name).
    let scopes: Vec<ScopeId> = (0..Cluster::switch_count(&c))
        .map(|i| hub.scope(&format!("switch.{}", c.switch_name(i))))
        .collect();
    if traced {
        run_until_traced(&mut c, &hub, &scopes, warm, rec);
    } else {
        c.run_until(warm);
    }
    let rx0 = accepted_pkts(&c, &rx);
    let tcp0 = tcp_delivered(&c, &tcp_rx);
    let ev0 = c.world.events_processed();
    let start = traced.then(|| WindowStart {
        counts: Counts::read(&c),
        tcp: tcp_counters(&c, &tcp),
        rate_changes: rate_changes(&hub),
        samples: hub.samples_taken(),
        sink_records: writer.records.load(Relaxed),
        sink_bytes: writer.bytes.load(Relaxed),
    });
    // Latencies are judged over the window only.
    c.take_rdma_rtts();
    c.take_tcp_rtts();
    rec.mark(Phase::Warmup);

    let mut wt = WindowTrace::new();
    if traced {
        run_chunked(rec, (warm, end), CHUNKS, 1, &mut wt.chunk_ms, |t, rec| {
            run_until_traced(&mut c, &hub, &scopes, t, rec)
        });
    } else {
        c.run_until(end);
    }
    rec.mark(Phase::Run);

    let window = end - warm;
    let (rdma_bytes, rdma_starved) = delivered(&rx, &rx0, &accepted_pkts(&c, &rx));
    let tcp1 = tcp_delivered(&c, &tcp_rx);
    let tcp_bytes: u64 = tcp1.iter().zip(&tcp0).map(|(a, b)| a - b).sum();
    let tcp_starved = tcp1.iter().zip(&tcp0).filter(|(a, b)| a == b).count() as u64;
    // A host keeps one RTT log for its service queries and its Pingmesh
    // probes alike, and the Pingmesh report drains it: copy first.
    let rdma_rtts: Vec<u64> = rdma
        .iter()
        .flat_map(|s| c.rdma(*s).stats.rtt_samples_ps.iter().copied())
        .collect();
    let tcp_rtts = c.take_tcp_rtts();
    let probes = c.pingmesh_report(&pairs).total();
    // What a run with telemetry on ends with: the hub's JSON export.
    let export_len = hub.render_json().render().len();
    let p99 = |v: &[u64]| Percentiles::from_samples(v).p99().unwrap_or(0) as f64 / 1e6;
    let (rdma_p99, tcp_p99) = (p99(&rdma_rtts), p99(&tcp_rtts));
    let lossless_drops = c.lossless_drops();
    let verdict = c.deadlock_probe().verdict();
    let sink_records = writer.records.load(Relaxed);
    let mut checks = vec![
        Check::new(
            "no lossless drop",
            lossless_drops == 0,
            format!("{lossless_drops}"),
        ),
        Check::new(
            "RDMA p99 below TCP p99",
            !rdma_rtts.is_empty() && rdma_p99 < tcp_p99,
            format!(
                "rdma {rdma_p99:.1} us over {} samples, tcp {tcp_p99:.1} us over {}",
                rdma_rtts.len(),
                tcp_rtts.len()
            ),
        ),
        Check::new(
            "no deadlock verdict",
            verdict.is_empty(),
            format!("{verdict:?}"),
        ),
    ];
    if observed {
        checks.push(Check::new(
            "the sink received records and the hub exported",
            sink_records > 0 && export_len > 0,
            format!("{sink_records} records, {export_len} B of hub JSON"),
        ));
    }

    let mut layer = Table::new();
    size_metrics(&c, rx.len() + 2 * pairs.len(), &mut layer);
    if let Some(w0) = start {
        wt.work.add_window(&w0.counts, &Counts::read(&c));
        wt.emit(&mut layer);
        world_metrics(&c, &mut layer);
        let t1 = tcp_counters(&c, &tcp);
        for (i, name) in [
            "tcp.segments_tx",
            "tcp.msgs_delivered",
            "tcp.fast_retransmits",
            "tcp.timeouts",
        ]
        .iter()
        .enumerate()
        {
            layer.set(name, (t1[i] - w0.tcp[i]) as f64);
        }
        layer.set(
            "cc.rate_changes",
            (rate_changes(&hub) - w0.rate_changes) as f64,
        );
        layer.set(
            "monitor.samples_taken",
            (hub.samples_taken() - w0.samples) as f64,
        );
        layer.set("monitor.counters", hub.counters_snapshot().len() as f64);
        layer.set(
            "monitor.sink_records",
            (sink_records - w0.sink_records) as f64,
        );
        layer.set(
            "monitor.sink_mb",
            (writer.bytes.load(Relaxed) - w0.sink_bytes) as f64 / 1e6,
        );
        layer.set("monitor.flight_dropped", hub.flight_snapshot().1 as f64);
        layer.set("monitor.pingmesh_probes", probes as f64);
    }
    let sig = Sig {
        digest: c.world.dispatch_digest(),
        events: c.world.events_processed(),
        goodput_bytes: rdma_bytes + tcp_bytes,
    };
    let window_events = c.world.events_processed() - ev0;
    rec.mark(Phase::Report);

    drop(c);
    rec.mark(Phase::Teardown);
    RepOut {
        sig,
        window_ps: window.as_ps(),
        window_events,
        flows: (rx.len() + tcp_rx.len()) as u64,
        flows_failed: rdma_starved + tcp_starved,
        checks,
        layer,
    }
}
