//! The full experiment suite: every paper figure/section scenario as one
//! row of the [`all`] table — its name, header and run function.
//!
//! `rocescale <scenario>` runs one of them (the classic
//! one-figure-at-a-time workflow); `rocescale fleet` — and tests — run
//! any subset in-process.

use rocescale_core::scenarios::latency::LatencySummary;
use rocescale_core::scenarios::{
    buffer_misconfig, cc_ablation, cpu, deadlock, dscp_vlan, fleet_scale, headroom, incident,
    latency, livelock, load_latency, pfc_basics, slow_receiver, spray, storm, throughput,
};
use rocescale_core::{CcKind, InstrumentationProfile, PfcMode};
use rocescale_monitor::Percentiles;
use rocescale_sim::SimTime;

use crate::report::{Cell, CliArgs, Header, Report, Table};

/// Observation profile for one scenario arm: a JSONL sink streaming to
/// `--trace-out`'s path when given, the paper default otherwise. The
/// scenarios that honor the flag attach it to their headline arm and
/// note the export in the report; `rocescale trace-analyze` reads the
/// file back.
fn trace_instr(args: &CliArgs) -> InstrumentationProfile {
    let profile = InstrumentationProfile::paper_default();
    match &args.trace_out {
        Some(path) => match args.trace_exports.create(path) {
            Ok(sink) => profile.trace_sink(sink),
            Err(e) => {
                eprintln!("cannot create trace file {path}: {e}");
                std::process::exit(1);
            }
        },
        None => profile,
    }
}

/// The report note recording where a traced arm streamed to.
fn trace_note(rep: &mut Report, args: &CliArgs, arm: &str) {
    if let Some(path) = &args.trace_out {
        rep.note(format!(
            "trace: streamed the {arm} arm's JSONL records to {path}"
        ));
    }
}

/// One paper figure or experiment: what `rocescale <name>` runs and the
/// header its report is rendered under.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Command-line name, e.g. `"fig2_pfc_basics"`.
    pub name: &'static str,
    /// Short id, e.g. `"FIG-2 (§2)"` — what `fleet --only` matches.
    pub id: &'static str,
    /// One-line human title.
    pub title: &'static str,
    /// The paper claim being reproduced.
    pub claim: &'static str,
    /// Run the experiment.
    pub run: fn(&CliArgs) -> Report,
}

impl Scenario {
    /// The header the scenario's report is rendered under.
    pub fn header(&self) -> Header<'static> {
        Header {
            id: self.id,
            title: self.title,
            claim: self.claim,
        }
    }
}

/// Every scenario in suite order: figures 2–10, the section
/// experiments, then the scripted incident replays. This is the fleet's
/// canonical enumeration; job indices — and therefore output order —
/// follow it.
pub fn all() -> &'static [Scenario] {
    &[
        Scenario {
            name: "fig2_pfc_basics",
            id: "FIG-2 (§2)",
            title: "PFC mechanics: pause vs drop",
            claim: "PFC prevents buffer overflow by pausing the upstream sender (XOFF/XON); \
             without it, the same incast drops packets",
            run: fig2_pfc_basics,
        },
        Scenario {
            name: "fig3_dscp_vs_vlan",
            id: "FIG-3 (§3)",
            title: "DSCP-based vs VLAN-based PFC",
            claim: "both PFC flavours protect RDMA identically (the pause frame has no VLAN tag); \
             VLAN-based PFC's trunk-mode server ports break untagged PXE-boot traffic",
            run: fig3_dscp_vs_vlan,
        },
        Scenario {
            name: "fig4_deadlock",
            id: "FIG-4 (§4.2)",
            title: "flooding deadlock and the incomplete-ARP fix",
            claim: "incomplete ARP entries make ToRs flood lossless packets; flood copies parked \
             on paused fabric ports close a cyclic buffer dependency and the fabric wedges \
             permanently; dropping lossless packets on incomplete ARP prevents it",
            run: fig4_deadlock,
        },
        Scenario {
            name: "fig5_pfc_storm",
            id: "FIG-5 (§4.3)",
            title: "NIC pause storm vs the watchdogs",
            claim: "a single malfunctioning NIC may block the entire network from transmitting; \
             complementary NIC-side and switch-side watchdogs contain it",
            run: fig5_pfc_storm,
        },
        Scenario {
            name: "fig6_latency_cdf",
            id: "FIG-6 (§5.4)",
            title: "RDMA vs TCP latency CDF",
            claim: "p99: RDMA ≈ 90 µs vs TCP ≈ 700 µs (TCP spikes to several ms); RDMA's p99.9 \
             (≈200 µs) is below TCP's p99 — same fabric, same incast workload",
            run: fig6_latency_cdf,
        },
        Scenario {
            name: "fig7_clos_throughput",
            id: "FIG-7 (§5.4)",
            title: "Clos aggregate throughput, ECMP ceiling",
            claim: "two-podset ToR-pair stress: 3.0 Tb/s of 5.12 Tb/s (60%); \"not a single \
             packet was dropped\"; the 60% ceiling is ECMP hash collision, not PFC or HOL \
             blocking",
            run: fig7_clos_throughput,
        },
        Scenario {
            name: "fig8_latency_vs_load",
            id: "FIG-8 (§5.4)",
            title: "latency under saturating load",
            claim: "once the stress starts, RDMA p99 jumps 50→400 µs and p99.9 80→800 µs — queues \
             and pauses, not losses; TCP's p99 in its own switch queue does not change",
            run: fig8_latency_vs_load,
        },
        Scenario {
            name: "fig9_storm_incident",
            id: "FIG-9 (§6.2)",
            title: "the pause-storm incident: availability collapse",
            claim: "one unresponsive server emitting >2000 pauses/s made half the customer's \
             servers unhealthy; after deploying the watchdogs such incidents stopped",
            run: fig9_storm_incident,
        },
        Scenario {
            name: "fig10_buffer_misconfig",
            id: "FIG-10 (§6.2)",
            title: "the α = 1/64 buffer misconfiguration incident",
            claim: "a new ToR type shipped α = 1/64 instead of the fleet's 1/16; chatty incast \
             then triggered pause storms (up to 60k pauses / 5 min) and latency spikes; tuning α \
             back fixed it — and config monitoring should have caught it",
            run: fig10_buffer_misconfig,
        },
        Scenario {
            name: "exp_livelock",
            id: "EXP-LIVELOCK (§4.1)",
            title: "go-back-0 livelock vs go-back-N vs selective repeat",
            claim: "goodput 0 with go-back-0 at 1/256 deterministic drop while the link runs at \
             line rate; go-back-N restores goodput; selective repeat restores it while \
             retransmitting only the dropped packets",
            run: exp_livelock,
        },
        Scenario {
            name: "exp_slow_receiver",
            id: "EXP-SLOW-RECEIVER (§4.4)",
            title: "MTT thrash makes the server a pause source",
            claim: "MTT misses stall the NIC receive pipeline; the buffer crosses XOFF and the \
             server pauses its ToR; 2 MB pages cut the misses, dynamic switch buffers absorb the \
             churn instead of propagating it",
            run: exp_slow_receiver,
        },
        Scenario {
            name: "exp_cpu_overhead",
            id: "EXP-CPU (§1)",
            title: "kernel TCP CPU cost vs RDMA",
            claim: "sending at 40 Gb/s over 8 TCP connections costs 6% of a 32-core server; \
             receiving costs 12%; RDMA does the same work at ≈0% CPU",
            run: exp_cpu_overhead,
        },
        Scenario {
            name: "exp_dcqcn_ablation",
            id: "EXP-DCQCN (§2)",
            title: "DCQCN off vs on: PFC is the last defense",
            claim: "DCQCN keeps switch queues short so PFC rarely fires; with it off the same \
             incast is still loss-free — PFC is the last defense — but pauses constantly",
            run: exp_dcqcn_ablation,
        },
        Scenario {
            name: "exp_headroom",
            id: "EXP-HEADROOM (§2)",
            title: "PFC headroom sweep",
            claim: "headroom absorbs the packets in flight during the XOFF 'gray period' — sized \
             from MTU, PFC reaction time, and propagation delay (300 m worst case); undersize it \
             and the lossless guarantee breaks",
            run: exp_headroom,
        },
        Scenario {
            name: "exp_per_packet_routing",
            id: "EXP-PER-PACKET-ROUTING (§8.1)",
            title: "per-packet routing vs per-flow ECMP",
            claim: "\"there are MPTCP and per-packet routing for better network utilization. How \
             to make these designs work for RDMA in the lossless network context will be an \
             interesting challenge\" — here is the challenge, quantified on a two-path diamond \
             with a 5 m vs 300 m skew",
            run: exp_per_packet_routing,
        },
        Scenario {
            name: "exp_cc_ablation",
            id: "EXP-CC (§7)",
            title: "congestion control ablation: DCQCN vs TIMELY vs off",
            claim: "either controller — ECN-driven DCQCN or delay-driven TIMELY — keeps the \
             incast queue short and collapses pause generation; with both off PFC alone stays \
             loss-free but pauses constantly",
            run: exp_cc_ablation,
        },
        Scenario {
            name: "inc_scripted_deadlock",
            id: "INC-DEADLOCK (§4.2)",
            title: "incident replay: scripted server deaths form a live deadlock",
            claim: "two servers dying mid-run (link down, MAC entry evicted, ARP surviving) \
             recreate the §4.2 deadlock while traffic flows: the live detector reports the wait \
             cycle mid-run; with drop-on-incomplete-ARP the same script stays cycle-free",
            run: inc_scripted_deadlock,
        },
        Scenario {
            name: "inc_reroute",
            id: "INC-REROUTE (§5)",
            title: "incident replay: mid-incast reroute onto the idle uplink",
            claim: "pinning a ToR's ECMP uplink group mid-incast to the uplink its flows are not \
             on moves every flow at once: the old uplink carries no data after the reroute, the \
             pinned one none before it, and the incast survives the path change",
            run: inc_reroute,
        },
        Scenario {
            name: "inc_cascade_storm",
            id: "INC-CASCADE (§4.3)",
            title: "incident replay: cascading pause storm, scripted stop, clean recovery",
            claim: "two staggered NIC pause storms cascade backpressure up the fabric without \
             losing a packet; stopping the storms restores goodput; the live deadlock detector \
             stays silent — a pause storm is a tree, not a cycle",
            run: inc_cascade_storm,
        },
        Scenario {
            name: "inc_dead_remembered",
            id: "INC-DEAD-SERVER (§4.2)",
            title: "incident replay: dead-but-remembered server, then resurrection",
            claim: "a mid-run MAC eviction leaves a server dead-but-remembered: with the fix on, \
             lossless traffic to it is dropped at the ToR (no flood, no cycle) and goodput \
             resumes the moment the entry is re-learned",
            run: inc_dead_remembered,
        },
        Scenario {
            name: "inc_fleet_scale",
            id: "INC-FLEET-SCALE (§6)",
            title: "paper-scale fleet: 4096 hosts on sharded execution",
            claim: "the deployments of §6 span whole podsets; per-pod worker shards behind a \
             conservative cross-shard exchange advance a 4096-host Clos deterministically — \
             byte-identical digest whether epochs run serially or threaded",
            run: inc_fleet_scale,
        },
    ]
}

fn latency_row(label: &str, s: &LatencySummary) -> Vec<Cell> {
    vec![
        Cell::s(label),
        Cell::U64(s.samples as u64),
        Cell::f1(s.p50_us),
        Cell::f1(s.p99_us),
        Cell::f1(s.p999_us),
        Cell::f1(s.max_us),
    ]
}

/// Figure 2 — PFC mechanics: lossless classes pause, lossy classes drop.
fn fig2_pfc_basics(args: &CliArgs) -> Report {
    let dur = SimTime::from_millis(10);
    let mut t = Table::new(
        "arms",
        &["pfc", "pauses", "resumes", "drops", "goodput(Gb/s)"],
    );
    for pfc in [true, false] {
        // `--trace-out` captures the lossless (paper) arm.
        let instr = if pfc {
            trace_instr(args)
        } else {
            InstrumentationProfile::paper_default()
        };
        let r = pfc_basics::run(pfc, 4, dur, instr);
        t.row(vec![
            Cell::Bool(r.pfc),
            Cell::U64(r.pauses),
            Cell::U64(r.resumes),
            Cell::U64(r.drops),
            Cell::f2(r.goodput_gbps),
        ]);
    }
    let mut rep = Report::new();
    rep.table(t);
    trace_note(&mut rep, args, "pfc=true");
    rep
}

/// Figure 3 / §3 — DSCP-based vs VLAN-based PFC: equal protection,
/// but VLAN trunk mode breaks PXE boot.
fn fig3_dscp_vs_vlan(_args: &CliArgs) -> Report {
    let dur = SimTime::from_millis(8);
    let mut t = Table::new(
        "arms",
        &[
            "mode",
            "rdma(Gb/s)",
            "ll-drops",
            "pauses",
            "pxe delivered",
            "pxe dropped",
        ],
    );
    for mode in [PfcMode::Dscp, PfcMode::Vlan] {
        let r = dscp_vlan::run(mode, dur);
        let (pxe_ok, pxe_drop) = dscp_vlan::run_pxe(mode, 20);
        t.row(vec![
            Cell::s(format!("{mode:?}")),
            Cell::f2(r.rdma_goodput_gbps),
            Cell::U64(r.lossless_drops),
            Cell::U64(r.pauses),
            Cell::U64(pxe_ok),
            Cell::U64(pxe_drop),
        ]);
    }
    let mut rep = Report::new();
    rep.table(t);
    rep
}

/// Figure 4 / §4.2 — PFC + Ethernet flooding deadlock, and the
/// drop-on-incomplete-ARP fix: S2 and S3 are dead from the start.
fn fig4_deadlock(args: &CliArgs) -> Report {
    let dur = SimTime::from_millis(40);
    let mut t = Table::new(
        "arms",
        &[
            "fix",
            "deadlocked switches",
            "tail MB (live)",
            "pauses",
            "fix drops",
        ],
    );
    let mut rep = Report::new();
    for fix in [false, true] {
        // `--trace-out` captures the arm that deadlocks.
        let instr = if fix {
            InstrumentationProfile::paper_default()
        } else {
            trace_instr(args)
        };
        let r = deadlock::run(fix, SimTime::ZERO, dur, instr);
        t.row(vec![
            Cell::Bool(r.fix_enabled),
            Cell::s(format!("{:?}", r.deadlocked_switches)),
            Cell::f1(r.tail_goodput_bytes as f64 / 1e6),
            Cell::U64(r.pauses),
            Cell::U64(r.fix_drops),
        ]);
        match r.wait_cycle {
            Some(c) => rep.note(format!("fix={fix}: pause-wait cycle: {}", c.join(" -> "))),
            None => rep.note(format!("fix={fix}: pause-wait graph: acyclic")),
        }
    }
    rep.table(t);
    trace_note(&mut rep, args, "fix=false");
    rep
}

/// Figure 5 / §4.3 — one malfunctioning NIC's pause storm vs the two
/// watchdogs.
fn fig5_pfc_storm(_args: &CliArgs) -> Report {
    let dur = SimTime::from_millis(40);
    let mut t = Table::new(
        "arms",
        &[
            "watchdogs",
            "healthy pairs",
            "total pairs",
            "victim pauses",
            "nic wd",
            "switch wd",
        ],
    );
    for watchdogs in [false, true] {
        let r = storm::run(watchdogs, dur);
        t.row(vec![
            Cell::Bool(r.watchdogs),
            Cell::U64(r.healthy_pairs as u64),
            Cell::U64(r.total_pairs as u64),
            Cell::U64(r.victim_pause_rx),
            Cell::Bool(r.nic_watchdog_fired),
            Cell::Bool(r.switch_watchdog_fired),
        ]);
    }
    let mut rep = Report::new();
    rep.table(t);
    rep
}

/// Figure 6 / §5.4 — RDMA vs TCP end-to-end latency for the
/// latency-sensitive incast service.
fn fig6_latency_cdf(_args: &CliArgs) -> Report {
    let r = latency::run(
        SimTime::from_millis(80),
        4,
        16 * 1024,
        SimTime::from_millis(2),
    );
    let mut t = Table::new(
        "latency",
        &[
            "series",
            "samples",
            "p50(us)",
            "p99(us)",
            "p99.9(us)",
            "max(us)",
        ],
    );
    t.row(latency_row("RDMA", &r.rdma));
    t.row(latency_row("TCP", &r.tcp));

    // The figure itself is a CDF; tabulate its key quantiles.
    let mut rdma = Percentiles::from_samples(&r.rdma_samples_ps);
    let mut tcp = Percentiles::from_samples(&r.tcp_samples_ps);
    let mut cdf = Table::new("cdf", &["quantile", "RDMA (us)", "TCP (us)"]);
    for q in [0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999] {
        let us = |v: Option<u64>| v.map_or(0.0, |v| v as f64 / 1e6);
        cdf.row(vec![
            Cell::s(format!("{:.1}%", q * 100.0)),
            Cell::f1(us(rdma.quantile(q))),
            Cell::f1(us(tcp.quantile(q))),
        ]);
    }

    let mut rep = Report::new();
    rep.table(t);
    rep.table(cdf);
    rep.scalar("lossless_drops", Cell::U64(r.lossless_drops));
    rep.scalar(
        "tcp_p99_over_rdma_p99",
        Cell::f1(r.tcp.p99_us / r.rdma.p99_us),
    );
    rep.scalar(
        "rdma_p999_below_tcp_p99",
        Cell::Bool(r.rdma.p999_us < r.tcp.p99_us),
    );
    rep
}

/// Figure 7 / §5.4 — aggregate RDMA throughput under the two-podset
/// ToR-pair stress: the ECMP ≈ 60% ceiling with zero drops.
///
/// Pass `--full-scale` for the larger fabric (slower), `--no-pfc` for the
/// sensitivity arm showing the ceiling is ECMP, not PFC.
fn fig7_clos_throughput(args: &CliArgs) -> Report {
    let full = args.has("--full-scale");
    let no_pfc_arm = args.has("--no-pfc");
    // Default: the paper's oversubscription ratios with ≈24 flows per
    // Leaf–Spine link (the paper's 3074/128 ratio). --full-scale
    // doubles the QP fan-out.
    let (spec, servers, qps, warmup, dur) = if full {
        (
            throughput::scaled_spec(),
            8,
            8,
            SimTime::from_millis(20),
            SimTime::from_millis(60),
        )
    } else {
        (
            throughput::scaled_spec(),
            8,
            4,
            SimTime::from_millis(20),
            SimTime::from_millis(50),
        )
    };
    let mut rep = Report::new();
    rep.note(format!(
        "fabric: {} podsets × ({} ToRs, {} leaves) × {} spines, {} servers/ToR; \
         oversub ToR {:.1}:1, Leaf {:.2}:1",
        spec.pods,
        spec.tors_per_pod,
        spec.leaves_per_pod,
        spec.spines,
        spec.servers_per_tor,
        spec.tor_oversubscription(),
        spec.leaf_oversubscription(),
    ));
    let mut t = Table::new(
        "arms",
        &[
            "pfc",
            "connections",
            "aggregate(Gb/s)",
            "capacity(Gb/s)",
            "utilization(%)",
            "drops",
            "pauses",
        ],
    );
    let arms: &[bool] = if no_pfc_arm { &[true, false] } else { &[true] };
    for &pfc in arms {
        let r = throughput::run(spec, servers, qps, warmup, dur, pfc);
        t.row(vec![
            Cell::Bool(pfc),
            Cell::U64(r.connections as u64),
            Cell::f1(r.aggregate_gbps),
            Cell::f1(r.bottleneck_capacity_gbps),
            Cell::f1(r.utilization * 100.0),
            Cell::U64(r.drops),
            Cell::U64(r.pauses),
        ]);
    }
    rep.table(t);
    let mut ecmp = Table::new(
        "analytical ECMP collision model (fraction of bottleneck links carrying ≥1 flow)",
        &["flows/link", "links used(%)"],
    );
    for flows_per_link in [1usize, 4, 24] {
        let links = 16;
        let u = throughput::ecmp_collision_utilization(links, links * flows_per_link, 42);
        ecmp.row(vec![
            Cell::U64(flows_per_link as u64),
            Cell::F64 {
                v: u * 100.0,
                prec: 0,
            },
        ]);
    }
    rep.table(ecmp);
    rep
}

/// Figure 8 / §5.4 — RDMA latency before vs during the saturating
/// stress, and TCP's isolation in its own queue.
fn fig8_latency_vs_load(_args: &CliArgs) -> Report {
    let r = load_latency::run(SimTime::from_millis(10), SimTime::from_millis(30));
    let mut t = Table::new(
        "latency",
        &[
            "series",
            "samples",
            "p50(us)",
            "p99(us)",
            "p99.9(us)",
            "max(us)",
        ],
    );
    t.row(latency_row("RDMA idle", &r.rdma_idle));
    t.row(latency_row("RDMA under load", &r.rdma_loaded));
    t.row(latency_row("TCP idle", &r.tcp_idle));
    t.row(latency_row("TCP under load", &r.tcp_loaded));
    let mut rep = Report::new();
    rep.table(t);
    rep.scalar("lossless_drops", Cell::U64(r.lossless_drops));
    rep.scalar(
        "rdma_p99_jump",
        Cell::f1(r.rdma_loaded.p99_us / r.rdma_idle.p99_us),
    );
    rep.scalar(
        "rdma_p999_jump",
        Cell::f1(r.rdma_loaded.p999_us / r.rdma_idle.p999_us),
    );
    rep.scalar(
        "tcp_p99_ratio",
        Cell::f2(r.tcp_loaded.p99_us / r.tcp_idle.p99_us),
    );
    rep
}

/// Figure 9 / §6.2 — the NIC PFC storm *incident*: server availability
/// collapses while one F-state server sprays pause frames; the watchdogs
/// end the class of incident.
fn fig9_storm_incident(_args: &CliArgs) -> Report {
    let dur = SimTime::from_millis(40);
    let mut rep = Report::new();
    rep.note("victim-pair availability per 4 ms window (storm starts at 8 ms)");
    let arms = [false, true].map(|watchdogs| storm::run(watchdogs, dur));
    let mut avail = Table::new("availability", &["watchdogs", "t(ms)", "available(%)"]);
    for r in &arms {
        for &(t, a) in &r.availability {
            avail.row(vec![
                Cell::Bool(r.watchdogs),
                Cell::U64(t.as_millis()),
                Cell::F64 {
                    v: a * 100.0,
                    prec: 0,
                },
            ]);
        }
    }
    rep.table(avail);
    let mut pauses = Table::new(
        "pause frames received by servers (Figure 9(b) analogue)",
        &["watchdogs", "victim pause rx"],
    );
    for r in &arms {
        pauses.row(vec![Cell::Bool(r.watchdogs), Cell::U64(r.victim_pause_rx)]);
    }
    rep.table(pauses);
    rep
}

/// Figure 10 / §6.2 — the α = 1/64 dynamic-buffer misconfiguration
/// incident, swept across α values.
fn fig10_buffer_misconfig(_args: &CliArgs) -> Report {
    let dur = SimTime::from_millis(25);
    let mut t = Table::new(
        "alpha sweep",
        &[
            "alpha",
            "tor pauses",
            "server pauses",
            "p50(us)",
            "p99(us)",
            "cfg-deviations",
        ],
    );
    let arms = [1.0 / 64.0, 1.0 / 32.0, 1.0 / 16.0, 1.0 / 8.0]
        .map(|alpha| buffer_misconfig::run(alpha, dur));
    for r in &arms {
        t.row(vec![
            Cell::s(format!("1/{:.0}", 1.0 / r.alpha)),
            Cell::U64(r.tor_pauses),
            Cell::U64(r.server_pause_rx),
            Cell::f1(r.latency.p50_us),
            Cell::f1(r.latency.p99_us),
            Cell::U64(r.config_deviations.len() as u64),
        ]);
    }
    let mut rep = Report::new();
    rep.table(t);
    let mut series = Table::new(
        "pause frames per window, Figure 10(b) form (cumulative at window end)",
        &["alpha", "t(ms)", "pauses"],
    );
    // The incident's α against the fleet standard.
    for r in [&arms[0], &arms[2]] {
        for (t_ps, v) in r.pause_series.points() {
            series.row(vec![
                Cell::s(format!("1/{:.0}", 1.0 / r.alpha)),
                Cell::U64(*t_ps / 1_000_000_000),
                Cell::F64 { v: *v, prec: 0 },
            ]);
        }
    }
    rep.table(series);
    rep
}

/// §4.1 — RDMA transport livelock: go-back-0 vs go-back-N vs IRN-style
/// selective repeat under a deterministic 1/256 drop, for SEND / WRITE /
/// READ.
fn exp_livelock(_args: &CliArgs) -> Report {
    use livelock::Workload;
    use rocescale_transport::LossRecovery;
    let dur = SimTime::from_millis(20);
    let mut t = Table::new(
        "arms",
        &[
            "verb",
            "recovery",
            "goodput(Gb/s)",
            "wire(Gb/s)",
            "msgs",
            "drops",
            "retx(MB)",
        ],
    );
    for workload in [Workload::Send, Workload::Write, Workload::Read] {
        for recovery in [
            LossRecovery::GoBack0,
            LossRecovery::GoBackN,
            LossRecovery::SelectiveRepeat,
        ] {
            let r = livelock::run(recovery, workload, dur);
            t.row(vec![
                Cell::s(format!("{workload:?}")),
                Cell::s(format!("{recovery:?}")),
                Cell::f2(r.goodput_gbps),
                Cell::f2(r.wire_gbps),
                Cell::U64(r.messages_done),
                Cell::U64(r.filter_drops),
                Cell::f2(r.retx_bytes as f64 / 1e6),
            ]);
        }
    }
    let mut rep = Report::new();
    rep.table(t);
    rep.note(
        "go-back-N resends the whole window tail on every drop; selective repeat \
         resends only the holes, so its retx volume tracks the 1/256 drop rate.",
    );
    rep
}

/// §4.4 — the slow-receiver symptom: MTT thrash turns the *server* into
/// a pause source; 2 MB pages and dynamic buffer sharing mitigate.
fn exp_slow_receiver(_args: &CliArgs) -> Report {
    use slow_receiver::PageSize;
    let dur = SimTime::from_millis(15);
    let mut t = Table::new(
        "arms",
        &[
            "pages",
            "dynamic",
            "server pauses",
            "upstream pauses",
            "goodput(Gb/s)",
            "MTT miss(%)",
        ],
    );
    for pages in [PageSize::Small, PageSize::Large] {
        for dynamic in [true, false] {
            let r = slow_receiver::run(pages, dynamic, dur);
            t.row(vec![
                Cell::s(format!("{pages:?}")),
                Cell::Bool(r.dynamic_buffers),
                Cell::U64(r.server_pause_tx),
                Cell::U64(r.upstream_pause_tx),
                Cell::f2(r.goodput_gbps),
                Cell::f1(r.mtt_miss_ratio * 100.0),
            ]);
        }
    }
    let mut rep = Report::new();
    rep.table(t);
    rep
}

/// §1 — kernel TCP CPU cost at 40 Gb/s vs RDMA's near-zero.
fn exp_cpu_overhead(_args: &CliArgs) -> Report {
    let r = cpu::run(SimTime::from_millis(60));
    let mut t = Table::new(
        "stacks",
        &["stack", "throughput(Gb/s)", "tx cpu(%)", "rx cpu(%)"],
    );
    t.row(vec![
        Cell::s("TCP"),
        Cell::f1(r.tcp_gbps),
        Cell::f2(r.tcp_tx_cpu_pct),
        Cell::f2(r.tcp_rx_cpu_pct),
    ]);
    t.row(vec![
        Cell::s("RDMA"),
        Cell::f1(r.rdma_gbps),
        Cell::f2(r.rdma_cpu_pct),
        Cell::f2(r.rdma_cpu_pct),
    ]);
    let mut rep = Report::new();
    rep.table(t);
    rep.scalar(
        "tcp_tx_cpu_pct_at_40g",
        Cell::f1(r.tcp_tx_cpu_pct * 40.0 / r.tcp_gbps),
    );
    rep.scalar(
        "tcp_rx_cpu_pct_at_40g",
        Cell::f1(r.tcp_rx_cpu_pct * 40.0 / r.tcp_gbps),
    );
    rep.note("normalized to 40 Gb/s (paper: 6% tx / 12% rx)");
    rep
}

/// §2 ablation — "Though DCQCN helps reduce the number of PFC pause
/// frames, it is PFC that protects packets from being dropped as the
/// last defense."
fn exp_dcqcn_ablation(_args: &CliArgs) -> Report {
    let dur = SimTime::from_millis(15);
    let mut t = Table::new(
        "arms",
        &[
            "dcqcn",
            "pauses",
            "ecn marks",
            "cnps",
            "goodput(Gb/s)",
            "peak queue(KB)",
            "ll drops",
        ],
    );
    // §2's ablation is the `Off` and DCQCN arms of EXP-CC's incast.
    for cc in [CcKind::Off, CcKind::Dcqcn] {
        let r = cc_ablation::run(cc, 4, dur, InstrumentationProfile::paper_default());
        t.row(vec![
            Cell::Bool(r.cc == CcKind::Dcqcn),
            Cell::U64(r.pauses),
            Cell::U64(r.ecn_marked),
            Cell::U64(r.cnps),
            Cell::f2(r.goodput_gbps),
            Cell::f1(r.peak_queue_bytes as f64 / 1024.0),
            Cell::U64(r.lossless_drops),
        ]);
    }
    let mut rep = Report::new();
    rep.table(t);
    rep
}

/// §2 — PFC headroom sweep: the gray-period formula validated by
/// violation on 300 m cables.
fn exp_headroom(_args: &CliArgs) -> Report {
    let dur = SimTime::from_millis(6);
    let mut t = Table::new("sweep", &["fraction", "headroom(B)", "ll drops", "pauses"]);
    for fraction in [0.1, 0.25, 0.5, 0.75, 1.0, 1.5] {
        let r = headroom::run(fraction, dur);
        t.row(vec![
            Cell::s(format!("{:.2}x", r.fraction)),
            Cell::U64(r.headroom_bytes),
            Cell::U64(r.lossless_drops),
            Cell::U64(r.pauses),
        ]);
    }
    let mut rep = Report::new();
    rep.table(t);
    rep
}

/// §8.1 (future work) — per-packet routing vs per-flow ECMP for RDMA.
fn exp_per_packet_routing(_args: &CliArgs) -> Report {
    let dur = SimTime::from_millis(10);
    let mut t = Table::new(
        "arms",
        &[
            "routing",
            "goodput(Gb/s)",
            "wire(Gb/s)",
            "out-of-seq",
            "naks",
            "drops",
        ],
    );
    for spraying in [false, true] {
        let r = spray::run(spraying, dur);
        t.row(vec![
            Cell::s(if spraying { "per-packet" } else { "per-flow" }),
            Cell::f2(r.goodput_gbps),
            Cell::f2(r.wire_gbps),
            Cell::U64(r.out_of_seq),
            Cell::U64(r.naks),
            Cell::U64(r.drops),
        ]);
    }
    let mut rep = Report::new();
    rep.table(t);
    rep.note(
        "per-packet spraying loses nothing in the fabric, yet go-back-N treats the \
         reordering as loss — the transport, not the network, is the blocker.",
    );
    rep
}

/// §7 contrast on the pluggable CC layer — DCQCN vs a TIMELY-style
/// delay-gradient controller vs no end-to-end control, same incast.
fn exp_cc_ablation(args: &CliArgs) -> Report {
    let dur = SimTime::from_millis(15);
    let mut t = Table::new(
        "arms",
        &[
            "cc",
            "pauses",
            "ecn marks",
            "cnps",
            "goodput(Gb/s)",
            "peak queue(KB)",
            "ll drops",
        ],
    );
    for cc in [CcKind::Off, CcKind::Dcqcn, CcKind::Timely] {
        // `--trace-out` captures the paper's deployed controller.
        let instr = if cc == CcKind::Dcqcn {
            trace_instr(args)
        } else {
            InstrumentationProfile::paper_default()
        };
        let r = cc_ablation::run(cc, 4, dur, instr);
        t.row(vec![
            Cell::s(r.cc.name()),
            Cell::U64(r.pauses),
            Cell::U64(r.ecn_marked),
            Cell::U64(r.cnps),
            Cell::f2(r.goodput_gbps),
            Cell::f1(r.peak_queue_bytes as f64 / 1024.0),
            Cell::U64(r.lossless_drops),
        ]);
    }
    let mut rep = Report::new();
    rep.table(t);
    rep.note(
        "CNPs are generated by the NP state machine regardless of the sender's \
         controller; TIMELY ignores them and reacts to RTT inflation instead.",
    );
    trace_note(&mut rep, args, "cc=dcqcn");
    rep
}

/// §4.2 incident replay — the deadlock formed *live* by S2 and S3 dying
/// at 4 ms, watched by the in-fabric detector; then the same script with
/// the fix on.
fn inc_scripted_deadlock(_args: &CliArgs) -> Report {
    let (die_at, dur) = (SimTime::from_millis(4), SimTime::from_millis(40));
    let mut t = Table::new(
        "arms",
        &[
            "fix",
            "first cycle(ms)",
            "cycle epochs",
            "epochs",
            "verdict",
            "fix drops",
            "tail MB (live)",
        ],
    );
    let mut rep = Report::new();
    for fix in [false, true] {
        let instr = InstrumentationProfile::paper_default();
        let r = deadlock::run(fix, die_at, dur, instr);
        t.row(vec![
            Cell::Bool(r.fix_enabled),
            match r.first_cycle_at {
                Some(at) => Cell::f1(at.as_ps() as f64 / 1e9),
                None => Cell::s("-"),
            },
            Cell::U64(r.cycle_epochs),
            Cell::U64(r.epochs),
            Cell::s(format!("{:?}", r.deadlocked_switches)),
            Cell::U64(r.fix_drops),
            Cell::f1(r.tail_goodput_bytes as f64 / 1e6),
        ]);
        rep.scalar(format!("digest_fix_{fix}"), Cell::U64(r.digest));
        rep.scalar(format!("events_fix_{fix}"), Cell::U64(r.events));
    }
    rep.note(format!("S2 and S3 die at {die_at}; run = {dur}"));
    rep.table(t);
    rep
}

/// Mid-incast reroute incident: every flow moves to the pinned uplink
/// and the incast survives.
fn inc_reroute(_args: &CliArgs) -> Report {
    let r = incident::run_reroute(SimTime::from_millis(10));
    let mut t = Table::new(
        "reroute (data packets per uplink)",
        &["uplink", "pinned", "before", "queued", "after"],
    );
    for (i, &port) in r.uplinks.iter().enumerate() {
        t.row(vec![
            Cell::U64(port as u64),
            Cell::Bool(port == r.pinned),
            Cell::U64(r.data_before[i]),
            Cell::U64(r.queued_at_reroute[i]),
            Cell::U64(r.data_after[i]),
        ]);
    }
    let mut rep = Report::new();
    rep.scalar("digest", Cell::U64(r.digest));
    rep.scalar("events", Cell::U64(r.events));
    rep.scalar("tail_mb", Cell::f1(r.tail_goodput_bytes as f64 / 1e6));
    rep.table(t);
    rep
}

/// Cascading pause storm incident with a scripted stop.
fn inc_cascade_storm(args: &CliArgs) -> Report {
    let r = incident::run_cascade(SimTime::from_millis(12), trace_instr(args));
    let mut t = Table::new(
        "cascade",
        &[
            "storm pauses",
            "storm rx drops",
            "MB during",
            "MB after",
            "cycle epochs",
            "ll drops",
        ],
    );
    t.row(vec![
        Cell::U64(r.storm_pauses),
        Cell::U64(r.storm_dropped),
        Cell::f1(r.goodput_during as f64 / 1e6),
        Cell::f1(r.goodput_after as f64 / 1e6),
        Cell::U64(r.cycle_epochs),
        Cell::U64(r.lossless_drops),
    ]);
    let mut rep = Report::new();
    rep.scalar("digest", Cell::U64(r.digest));
    rep.scalar("events", Cell::U64(r.events));
    rep.note(format!("detector ran {} epochs", r.epochs));
    rep.table(t);
    trace_note(&mut rep, args, "cascade");
    rep
}

/// Dead-but-remembered server incident (§4.2 precondition) with
/// resurrection.
fn inc_dead_remembered(_args: &CliArgs) -> Report {
    let r = incident::run_dead_remembered(SimTime::from_millis(10));
    let mut t = Table::new(
        "dead server",
        &[
            "arp drops before",
            "arp drops total",
            "MB before",
            "MB dead",
            "MB resumed",
            "cycle epochs",
        ],
    );
    t.row(vec![
        Cell::U64(r.arp_drops_before),
        Cell::U64(r.arp_drops_total),
        Cell::f1(r.goodput_before_death as f64 / 1e6),
        Cell::f1(r.goodput_while_dead as f64 / 1e6),
        Cell::f1(r.goodput_after_resurrect as f64 / 1e6),
        Cell::U64(r.cycle_epochs),
    ]);
    let mut rep = Report::new();
    rep.scalar("digest", Cell::U64(r.digest));
    rep.scalar("events", Cell::U64(r.events));
    rep.table(t);
    rep
}

/// Paper-scale fleet (§6): a 4096-host Clos (by default) on sharded
/// execution. Scenario-specific flags: `--shards N` (worker shards,
/// default 2), `--serial` (run exchange epochs on one thread — the
/// differential mode; the digest scalar must not change, which is what
/// the CI sharded-digest smoke asserts),
/// `--tors-per-pod N` / `--servers-per-tor N` (fabric shape; `40`/`320`
/// is the 102 400-host deployment class of §6), and `--dur-us N` (run
/// horizon, default 600 µs — long enough for the burst workload to
/// drain and the quiet tail to exercise epoch skipping). `--trace-out
/// PATH` observes the whole fleet — a hub on every shard, its records
/// streamed to `PATH`.
fn inc_fleet_scale(args: &CliArgs) -> Report {
    let uint = |flag: &str, default: u32| -> u32 {
        let n = args.value(flag).and_then(|v| match v {
            Some(v) => v
                .parse()
                .ok()
                .filter(|n| *n >= 1)
                .ok_or_else(|| format!("{flag} needs a positive integer, got {v:?}")),
            None => Ok(default),
        });
        n.unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        })
    };
    let shards = uint("--shards", 2);
    let tors_per_pod = uint("--tors-per-pod", 8);
    let servers_per_tor = uint("--servers-per-tor", 64);
    let dur_us = uint("--dur-us", 600);
    let serial = args.has("--serial");
    // Wall-clock fields are real measurements, hence nondeterministic;
    // --deterministic drops them so two fleet runs can be compared
    // byte for byte (CI does, across worker counts).
    let walls = !args.has("--deterministic");
    let r = fleet_scale::run_spec(
        fleet_scale::spec_with(tors_per_pod, servers_per_tor),
        shards,
        !serial,
        SimTime::from_micros(dur_us as u64),
        trace_instr(args),
    );
    let mut t = Table::new(
        "per-shard engine load",
        &["shard", "events", "wheel max", "slab slots", "slab live"],
    );
    for (s, l) in r.per_shard.iter().enumerate() {
        t.row(vec![
            Cell::U64(s as u64),
            Cell::U64(l.events),
            Cell::U64(l.wheel_max_occupancy),
            Cell::U64(l.slab_slots as u64),
            Cell::U64(l.slab_live as u64),
        ]);
    }
    let mut rep = Report::new();
    rep.scalar("digest", Cell::U64(r.digest));
    rep.scalar("events", Cell::U64(r.events));
    rep.scalar("hosts", Cell::U64(r.hosts as u64));
    rep.scalar("switches", Cell::U64(r.switches as u64));
    rep.scalar("shards", Cell::U64(r.shards as u64));
    rep.scalar("exchange_epochs", Cell::U64(r.epochs));
    rep.scalar("epochs_skipped", Cell::U64(r.epochs_skipped));
    rep.scalar("boundary_msgs", Cell::U64(r.boundary_messages));
    rep.scalar("lookahead_us", Cell::f2(r.lookahead_ps as f64 / 1e6));
    rep.scalar("goodput_mb", Cell::f2(r.goodput_bytes as f64 / 1e6));
    rep.scalar("lossless_drops", Cell::U64(r.lossless_drops));
    rep.scalar("slab_mb", Cell::f2(r.slab_bytes as f64 / 1e6));
    rep.table(t);
    trace_note(&mut rep, args, "fleet");
    if walls {
        let ms = |nanos: u64| Cell::f2(nanos as f64 / 1e6);
        rep.scalar("workers", Cell::U64(r.workers as u64));
        rep.scalar("wall_imbalance", Cell::f2(r.wall_imbalance()));
        rep.scalar(
            "exchange_ms",
            ms(r.per_shard.iter().map(|l| l.exchange_nanos).sum()),
        );
        let mut w = Table::new(
            "per-shard wall-clock (measured)",
            &["shard", "wall ms", "wait ms", "exchange ms"],
        );
        for (s, l) in r.per_shard.iter().enumerate() {
            w.row(vec![
                Cell::U64(s as u64),
                ms(l.wall_nanos),
                ms(l.wait_nanos),
                ms(l.exchange_nanos),
            ]);
        }
        rep.table(w);
    }
    rep.note(format!(
        "{} hosts, {} switches, {} shard(s), epochs {} ({} executed + {} skipped \
         of a {}-window dense grid): {}",
        r.hosts,
        r.switches,
        r.shards,
        if serial { "serial" } else { "threaded" },
        r.epochs,
        r.epochs_skipped,
        r.grid_windows(),
        "raise --tors-per-pod/--servers-per-tor for the 100k-host deployment class"
    ));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lists_all_twenty_one_scenarios() {
        let suite = all();
        assert_eq!(suite.len(), 21);
        let ids: Vec<&str> = suite.iter().map(|s| s.id).collect();
        let names: Vec<&str> = suite.iter().map(|s| s.name).collect();
        for list in [&ids, &names] {
            let mut dedup = list.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), list.len(), "ids and names must be unique");
        }
        assert_eq!(ids[0], "FIG-2 (§2)");
        assert_eq!(ids[14], "EXP-PER-PACKET-ROUTING (§8.1)");
        assert_eq!(ids[15], "EXP-CC (§7)");
        assert_eq!(ids[16], "INC-DEADLOCK (§4.2)");
        assert_eq!(ids[19], "INC-DEAD-SERVER (§4.2)");
        assert_eq!(ids[20], "INC-FLEET-SCALE (§6)");
    }
}
