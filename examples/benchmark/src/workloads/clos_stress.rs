//! `clos_stress` — Figure 7's ToR-pair stress on the scaled two-podset
//! Clos (144 hosts): 8 senders per ToR × 8 QPs, both directions
//! saturating with 1 MiB messages (768 closed-loop QPs), PFC + DCQCN on,
//! telemetry off.
//!
//! Why it exists: steady-state packet dispatch through switch + nic +
//! transport + cc with build and monitor at ~0 — the workload where a
//! dispatch, switch-sweep or arena change shows, and where a regression of
//! the monitor's "disabled" path shows.
//!
//! Inputs from the seed: which 8 of each rack's 12 servers send, how the
//! two racks of a ToR pair are matched, every QP's UDP source port (the
//! ECMP spreader), and the world's RNG seed.

use rocescale::core::scenarios::throughput::scaled_spec;
use rocescale::core::{ClusterBuilder, InstrumentationProfile, ServerId};
use rocescale::monitor::{MetricsHub, TelemetryConfig};
use rocescale::nic::QpApp;
use rocescale::packet::ROCE_PAYLOAD_MTU as MTU_PAYLOAD;
use rocescale::sim::{ProfileMode, SimRng};
use rocescale::topology::ClosSpec;

use crate::fabric::{Counts, Fabric};
use crate::metrics::Table;
use crate::rec::{Phase, Rec};
use crate::run::{run_chunked, Check, Mode, RepOut, Scale, Sig, WindowTrace, CHUNKS};
use crate::workloads::{
    accepted_pkts, delivered, rate_changes, shuffle, size_metrics, world_metrics, RxFlow,
};

const SENDERS_PER_TOR: usize = 8;
const QPS_PER_SERVER: usize = 8;
const WARMUP_US: u64 = 4_000;
const WINDOW_US: u64 = 10_000;

/// The fabric: Figure 7's two podsets, scaled (144 hosts).
pub fn spec(_: &Scale) -> ClosSpec {
    scaled_spec()
}

struct Flow {
    tor: u32,
    a_slot: usize,
    b_slot: usize,
    udp: u16,
}

struct Inputs {
    world_seed: u64,
    flows: Vec<Flow>,
}

fn generate(seed: u64) -> Inputs {
    let spec = scaled_spec();
    let mut rng = SimRng::from_seed(seed ^ 0xC105_5712);
    let world_seed = rng.next_u64();
    let mut flows = Vec::new();
    for tor in 0..spec.tors_per_pod {
        let mut a: Vec<usize> = (0..spec.servers_per_tor as usize).collect();
        let mut b = a.clone();
        shuffle(&mut a, &mut rng);
        shuffle(&mut b, &mut rng);
        for s in 0..SENDERS_PER_TOR {
            for _ in 0..QPS_PER_SERVER {
                flows.push(Flow {
                    tor,
                    a_slot: a[s],
                    b_slot: b[s],
                    udp: rng.gen_range(1024..65_536) as u16,
                });
            }
        }
    }
    Inputs { world_seed, flows }
}

/// One repetition.
pub fn rep(seed: u64, scale: &Scale, mode: Mode, rec: &mut Rec) -> RepOut {
    let traced = mode == Mode::Traced;
    let inputs = generate(seed);
    rec.mark(Phase::Gen);

    let mut instr = InstrumentationProfile::paper_default();
    // The traced repetition attaches a counters-only hub (sampling
    // cadence beyond any horizon) so `cc.rate_changes` can be read.
    let hub = if traced {
        instr = instr.profiler(ProfileMode::On);
        MetricsHub::with_config(TelemetryConfig {
            sample_every_ps: u64::MAX / 4,
            ..TelemetryConfig::default()
        })
    } else {
        MetricsHub::disabled()
    };
    let mut c = ClusterBuilder::new(scaled_spec())
        .seed(inputs.world_seed)
        .instrumentation(instr.telemetry(hub.clone()))
        .build();
    rec.mark(Phase::Build);

    let sat = QpApp::Saturate {
        msg_len: 1 << 20,
        inflight: 2,
    };
    // Every direction of every pair is one flow.
    let mut rx: Vec<RxFlow> = Vec::with_capacity(inputs.flows.len() * 2);
    let racks: Vec<(Vec<ServerId>, Vec<ServerId>)> = (0..c.spec().tors_per_pod)
        .map(|t| (c.servers_under(0, t), c.servers_under(1, t)))
        .collect();
    for f in &inputs.flows {
        let (a, b) = (
            racks[f.tor as usize].0[f.a_slot],
            racks[f.tor as usize].1[f.b_slot],
        );
        let (ha, hb) = c.connect_qp(a, b, f.udp, sat, sat);
        for (server, qp) in [(b, hb), (a, ha)] {
            rx.push(RxFlow {
                server,
                qp,
                payload: MTU_PAYLOAD,
            });
        }
    }
    rec.mark(Phase::Connect);

    let warm = scale.micros(WARMUP_US);
    let end = warm + scale.micros(WINDOW_US);
    c.run_until(warm);
    let ev0 = c.world.events_processed();
    let rx0 = accepted_pkts(&c, &rx);
    let counts0 = traced.then(|| (Counts::read(&c), rate_changes(&hub)));
    rec.mark(Phase::Warmup);

    let mut wt = WindowTrace::new();
    if traced {
        run_chunked(rec, (warm, end), CHUNKS, 1, &mut wt.chunk_ms, |t, _| {
            c.run_until(t)
        });
    } else {
        c.run_until(end);
    }
    rec.mark(Phase::Run);

    let (goodput, starved) = delivered(&rx, &rx0, &accepted_pkts(&c, &rx));
    let window = end - warm;
    let gbps = goodput as f64 * 8.0 / window.as_secs_f64() / 1e9;
    let spec = *c.spec();
    let capacity =
        2.0 * (spec.leaves_per_pod * spec.spines_per_plane()) as f64 * spec.leaf_spine_bps as f64
            / 1e9;
    let util = gbps / capacity;
    let drops: u64 = (0..Fabric::switch_count(&c))
        .map(|i| Fabric::switch(&c, i).stats.total_drops())
        .sum();
    let mut checks = vec![Check::new(
        "zero drops anywhere in the fabric",
        drops == 0,
        format!("{drops} drops"),
    )];
    if scale.div == 1 {
        // The paper's 0.60 counts completed messages over minutes; at
        // packet granularity over 10 ms this scaled fabric sits near 0.8.
        checks.push(Check::new(
            "leaf-spine utilisation in [0.55, 0.95]: saturated, ECMP-limited",
            (0.55..=0.95).contains(&util),
            format!("{util:.4} of {capacity} Gb/s"),
        ));
    }
    let mut layer = Table::new();
    size_metrics(&c, rx.len(), &mut layer);
    if let Some((c0, rc0)) = counts0 {
        wt.work.add_window(&c0, &Counts::read(&c));
        wt.emit(&mut layer);
        world_metrics(&c, &mut layer);
        layer.set("cc.rate_changes", (rate_changes(&hub) - rc0) as f64);
    }
    let sig = Sig {
        digest: c.world.dispatch_digest(),
        events: c.world.events_processed(),
        goodput_bytes: goodput,
    };
    let window_events = c.world.events_processed() - ev0;
    rec.mark(Phase::Report);

    drop(c);
    rec.mark(Phase::Teardown);
    RepOut {
        sig,
        window_ps: window.as_ps(),
        window_events,
        flows: rx.len() as u64,
        flows_failed: starved,
        checks,
        layer,
    }
}
