//! Fleet determinism: a sweep run on 1 worker and on 4 workers must
//! produce byte-identical per-run dispatch digests and byte-identical
//! aggregated JSON. This is the property the whole fleet design rests
//! on — worker count changes wall-clock time and nothing else.

use rocescale_bench::fleet::run_sweep;
use rocescale_bench::report::{to_json, Report, ScenarioReport};
use rocescale_bench::{Cell, CliArgs, Table};
use rocescale_core::{CcKind, ClusterBuilder, SweepAxis, SweepJob, SweepSpec};
use rocescale_monitor::{merge_reports, Json};
use rocescale_nic::QpApp;

/// The small sweep: PFC on/off × DCQCN on/off × 2 seed replicates = 8
/// independent jobs, each a short single-ToR 5-to-1 incast (heavy
/// enough that the receiver port crosses XOFF, so the PFC axis really
/// changes the event stream).
fn spec() -> SweepSpec {
    SweepSpec::new()
        .axis(
            SweepAxis::new("pfc")
                .variant("on", |p| p.fabric = p.fabric.clone().pfc(true))
                .variant("off", |p| p.fabric = p.fabric.clone().pfc(false)),
        )
        .axis(
            SweepAxis::new("dcqcn")
                .variant("on", |p| p.transport = p.transport.cc(CcKind::Dcqcn))
                .variant("off", |p| p.transport = p.transport.cc(CcKind::Off)),
        )
        .replicates(2)
}

/// Identity for a sweep cell's merged report: the axis labels minus the
/// seed (replicates share everything else).
struct CellReport {
    id: String,
}

impl ScenarioReport for CellReport {
    fn id(&self) -> &str {
        &self.id
    }
    fn title(&self) -> &str {
        "sweep cell"
    }
    fn claim(&self) -> &str {
        "fleet determinism fixture"
    }
    fn run(&self, _args: &CliArgs) -> Report {
        unreachable!("reports are built by the job runner")
    }
}

/// Run one sweep job: build the cluster from the job's point, drive a
/// 3-to-1 incast for 1 ms, return (dispatch digest, report JSON).
fn run_job(job: &SweepJob) -> (u64, Json) {
    let mut c = ClusterBuilder::single_tor(6)
        .fabric(job.point.fabric.clone())
        .transport(job.point.transport)
        .faults(job.point.faults.clone())
        .seed(job.point.seed)
        .build();
    let ids = c.all_servers();
    for &src in &ids[1..] {
        c.connect_qp(
            src,
            ids[0],
            5000,
            QpApp::Saturate {
                msg_len: 64 * 1024,
                inflight: 16,
            },
            QpApp::None,
        );
    }
    c.run_for_millis(1);

    let mut t = Table::new("counters", &["goodput(B)", "pauses", "ll-drops"]);
    t.row(vec![
        Cell::U64(c.total_rdma_goodput()),
        Cell::U64(c.total_switch_pause_tx()),
        Cell::U64(c.lossless_drops()),
    ]);
    let mut rep = Report::new();
    rep.table(t);
    rep.scalar("events", Cell::U64(c.world.events_processed()));
    let cell = CellReport {
        id: job.labels[..job.labels.len() - 1].join(","),
    };
    (c.world.dispatch_digest(), to_json(&cell, &rep))
}

/// Render the full fleet output for a given worker count: per-job
/// digests plus the per-cell aggregate (replicates merged min/mean/max).
fn fleet_output(workers: usize) -> (Vec<u64>, String) {
    let results = run_sweep(&spec(), workers, run_job);
    let digests: Vec<u64> = results.iter().map(|(_, (d, _))| *d).collect();
    // Replicates are innermost: chunks of 2 share a grid cell.
    let mut merged = Vec::new();
    for cell in results.chunks(2) {
        let reports: Vec<Json> = cell.iter().map(|(_, (_, j))| j.clone()).collect();
        merged.push(merge_reports(&reports).expect("replicates merge"));
    }
    let doc = Json::obj(vec![("scenarios", Json::Arr(merged))]);
    (digests, doc.render())
}

#[test]
fn jobs_1_and_jobs_4_are_byte_identical() {
    let (d1, json1) = fleet_output(1);
    let (d4, json4) = fleet_output(4);
    assert_eq!(d1, d4, "per-run dispatch digests must not depend on --jobs");
    assert_eq!(json1, json4, "aggregated JSON must be byte-identical");
    assert_eq!(d1.len(), 8);

    // Replicates genuinely differ (different seeds ⇒ different digests),
    // so the equality above is not vacuous.
    assert_ne!(d1[0], d1[1], "seed replicates must differ");
    // Axis variants change the simulation. With DCQCN on, queues stay
    // below XOFF and PFC never fires (the paper's point), so compare the
    // pfc axis in the dcqcn=off cells: index 2 = (on, off, seed 1) vs
    // index 6 = (off, off, seed 1).
    assert_ne!(d1[0], d1[2], "dcqcn on vs off must differ");
    assert_ne!(d1[2], d1[6], "pfc on vs off must differ when PFC fires");
}

#[test]
fn suite_registry_is_fleet_ready() {
    // The fleet runs scenarios by index; the registry must stay stable
    // and Sync (shared across worker threads by reference).
    fn assert_sync<T: Sync + ?Sized>() {}
    assert_sync::<dyn rocescale_bench::ScenarioReport + Sync>();
    assert_eq!(rocescale_bench::suite::all().len(), 21);
}

/// The congestion-control axis (dcqcn / timely / off) must be exactly as
/// worker-count invariant as the hand-built axes above: same digests,
/// same JSON, on 1 worker and on 2.
#[test]
fn cc_ablation_sweep_is_jobs_invariant() {
    let spec = SweepSpec::new().axis(SweepAxis::cc());
    let outputs = |workers: usize| {
        let results = run_sweep(&spec, workers, run_job);
        let digests: Vec<u64> = results.iter().map(|(_, (d, _))| *d).collect();
        let jsons: Vec<String> = results.iter().map(|(_, (_, j))| j.render()).collect();
        (digests, jsons)
    };
    let (d1, j1) = outputs(1);
    let (d2, j2) = outputs(2);
    assert_eq!(d1, d2, "per-run digests must not depend on --jobs");
    assert_eq!(j1, j2, "per-run JSON must be byte-identical");
    assert_eq!(d1.len(), 3, "one job per controller");
    // Each controller really steers the simulation differently.
    assert_ne!(d1[0], d1[2], "dcqcn vs off must differ");
    assert_ne!(d1[1], d1[2], "timely vs off must differ");
    assert_ne!(d1[0], d1[1], "dcqcn vs timely must differ");
}
