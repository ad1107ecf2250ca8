//! `fleet_sharded` — a 51 200-host Clos (8 pods × 20 ToRs × 320
//! servers, 2 leaves per pod, 4 spines) on 2 threaded worker shards with
//! adaptive epoch pacing, carrying a cross-pod permutation: 2 servers of
//! every ToR in pod p saturate (64 KiB messages, 2 in flight) toward the
//! same slot in pod p+1 — 320 QPs, every one crossing the exchange.
//!
//! Why it exists: set-up is almost entirely `build_sharded()` and the
//! topology (the super-linear build), the window is exchange epochs plus
//! cold per-host timers at scale, and the peak RSS is hundreds of MB —
//! the only workload where core build, topology, `sim::shard` and the
//! memory footprint dominate; they do ~nothing in the other three. It is
//! the workload in the 50k-host class that "Datacenter Ethernet and RDMA:
//! Issues at Hyperscale" argues a fabric simulator has to reach.
//!
//! Inputs from the seed: which 2 of each ToR's 320 slots send (the
//! receiver is the same slot one pod over), every QP's UDP source port,
//! and the world's RNG seed.

use rocescale::core::{
    ClusterBuilder, ExecutionProfile, InstrumentationProfile, ServerId, ShardedCluster,
};
use rocescale::nic::QpApp;
use rocescale::packet::ROCE_PAYLOAD_MTU as MTU_PAYLOAD;
use rocescale::sim::{ProfileMode, SimRng};
use rocescale::topology::{server_ip, ClosSpec};

use crate::fabric::Counts;
use crate::metrics::Table;
use crate::rec::{cpu_seconds, Phase, Rec};
use crate::run::{run_chunked, Check, Mode, RepOut, Scale, Sig, WindowTrace, CHUNKS};
use crate::workloads::{accepted_pkts, delivered, size_metrics, world_metrics, RxFlow};

const WARMUP_US: u64 = 200;
const WINDOW_US: u64 = 2_500;

/// Slots of a ToR the permutation draws from. `topology::server_ip`
/// gives a rack a /24, so with 320 servers per ToR slots 255.. alias the
/// first 65 addresses of the next rack; flows stay on slots whose address
/// no other server shares. (A product limitation this benchmark works
/// around rather than fixes; see README.md.)
const SLOTS: std::ops::Range<usize> = 65..255;

/// The fleet fabric: 51 200 hosts. The smoke run keeps the pods, the
/// shards and the rack size but builds a tenth of the racks, so that it
/// stays a smoke run in a debug build.
pub fn spec(scale: &Scale) -> ClosSpec {
    let tors_per_pod = if scale.div == 1 { 20 } else { 2 };
    ClosSpec::uniform_40g(8, tors_per_pod, 2, 4, 320)
}

struct Flow {
    pod: u32,
    tor: u32,
    slot: usize,
    udp: u16,
}

struct Inputs {
    world_seed: u64,
    flows: Vec<Flow>,
}

fn generate(seed: u64, spec: &ClosSpec) -> Inputs {
    let mut rng = SimRng::from_seed(seed ^ 0xF1EE_7000);
    let world_seed = rng.next_u64();
    let mut flows = Vec::new();
    for pod in 0..spec.pods {
        for tor in 0..spec.tors_per_pod {
            // Two distinct slots out of the uniquely addressed ones.
            let n = SLOTS.end - SLOTS.start;
            let first = rng.gen_index(n);
            let second = (first + 1 + rng.gen_index(n - 1)) % n;
            for slot in [SLOTS.start + first, SLOTS.start + second] {
                flows.push(Flow {
                    pod,
                    tor,
                    slot,
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
    let spec = spec(scale);
    let inputs = generate(seed, &spec);
    rec.mark(Phase::Gen);

    let mut instr = InstrumentationProfile::paper_default();
    if traced {
        instr = instr.profiler(ProfileMode::On);
    }
    let mut c = ClusterBuilder::new(spec)
        .seed(inputs.world_seed)
        .execution(ExecutionProfile::Sharded { shards: 2 })
        .instrumentation(instr)
        .build_sharded();
    // Threaded epochs are the product default for 2 shards; the twin is
    // the serial reference the digest is compared against.
    c.set_threaded(mode != Mode::Twin);
    rec.mark(Phase::Build);

    // Servers are numbered pod-major, rack by rack, in slot order.
    let per_tor = spec.servers_per_tor as usize;
    let server = |c: &ShardedCluster, pod: u32, tor: u32, slot: usize| {
        let id = ServerId((pod * spec.tors_per_pod + tor) as usize * per_tor + slot);
        assert_eq!(c.server_ip(id), server_ip(pod, tor, slot as u32));
        id
    };
    let sat = QpApp::Saturate {
        msg_len: 64 * 1024,
        inflight: 2,
    };
    let mut rx: Vec<RxFlow> = Vec::with_capacity(inputs.flows.len());
    for f in &inputs.flows {
        let a = server(&c, f.pod, f.tor, f.slot);
        let b = server(&c, (f.pod + 1) % spec.pods, f.tor, f.slot);
        let (_, hb) = c.connect_qp(a, b, f.udp, sat, QpApp::None);
        rx.push(RxFlow {
            server: b,
            qp: hb,
            payload: MTU_PAYLOAD,
        });
    }
    rec.mark(Phase::Connect);

    let warm = scale.micros(WARMUP_US);
    let end = warm + scale.micros(WINDOW_US);
    c.run_until(warm);
    let rx0 = accepted_pkts(&c, &rx);
    let ev0 = c.events_processed();
    let stats0 = c.shard_stats();
    let busy0: Vec<u64> = c.shard_wall_nanos().to_vec();
    let cpu0 = cpu_seconds();
    let counts0 = traced.then(|| Counts::read(&c));
    rec.mark(Phase::Warmup);

    let mut wt = WindowTrace::new();
    let run_span = rec.len();
    if traced {
        // A deadline inside an exchange window splits that window's
        // barrier in two, which renumbers same-time boundary messages and
        // so reorders their arrivals: chunk ends stay on the epoch grid.
        let grid = c.lookahead().map_or(1, |l| l.as_ps());
        run_chunked(rec, (warm, end), CHUNKS, grid, &mut wt.chunk_ms, |t, _| {
            c.run_until(t)
        });
    } else {
        c.run_until(end);
    }
    rec.mark(Phase::Run);

    let window = end - warm;
    let (goodput, starved) = delivered(&rx, &rx0, &accepted_pkts(&c, &rx));
    let lossless_drops = c.lossless_drops();
    let stats = c.shard_stats();
    let epochs = stats.epochs_executed - stats0.epochs_executed;
    let boundary = stats.boundary_messages - stats0.boundary_messages;
    let checks = vec![
        Check::new(
            "no lossless drop",
            lossless_drops == 0,
            format!("{lossless_drops}"),
        ),
        Check::new(
            "the window ran exchange epochs",
            epochs > 0,
            format!("{epochs}"),
        ),
        Check::new(
            "flows crossed the shard boundary",
            boundary > 0,
            format!("{boundary} boundary messages"),
        ),
    ];

    let mut layer = Table::new();
    size_metrics(&c, rx.len(), &mut layer);
    if let Some(c0) = counts0 {
        wt.work.add_window(&c0, &Counts::read(&c));
        wt.emit(&mut layer);
        world_metrics(&c, &mut layer);
        let run_s = rec.total_since(run_span, "chunk");
        let busy: Vec<f64> = c
            .shard_wall_nanos()
            .iter()
            .zip(&busy0)
            .map(|(a, b)| (a - b) as f64 / 1e9)
            .collect();
        let busy_sum: f64 = busy.iter().sum();
        let busy_max = busy.iter().copied().fold(0.0, f64::max);
        layer.set("sim.shard_epochs", epochs as f64);
        layer.set(
            "sim.shard_epochs_skipped",
            (stats.epochs_skipped - stats0.epochs_skipped) as f64,
        );
        layer.set("sim.shard_boundary_msgs", boundary as f64);
        layer.set("sim.shard_busy_s", busy_sum);
        layer.set("sim.shard_exchange_s", (run_s - busy_max).max(0.0));
        layer.set("sim.shard_us_per_epoch", run_s * 1e6 / epochs.max(1) as f64);
        layer.set(
            "sim.shard_imbalance",
            busy_max * busy.len() as f64 / busy_sum.max(f64::MIN_POSITIVE),
        );
        layer.set("sim.shard_cpu_s", cpu_seconds() - cpu0);
    }
    let sig = Sig {
        digest: c.dispatch_digest(),
        events: c.events_processed(),
        goodput_bytes: goodput,
    };
    let window_events = c.events_processed() - ev0;
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
