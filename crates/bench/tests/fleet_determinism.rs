//! Fleet determinism: a list of jobs run on 1 worker and on 4 workers
//! must produce byte-identical per-job dispatch digests and report JSON.
//! This is the property the whole fleet design rests on — worker count
//! changes wall-clock time and nothing else.

use rocescale_bench::fleet::run_indexed;
use rocescale_bench::report::{to_json, Report, ScenarioReport};
use rocescale_bench::{Cell, CliArgs, Table};
use rocescale_core::{CcKind, ClusterBuilder, FabricProfile, TransportProfile};
use rocescale_nic::QpApp;

/// One independent job: the PFC switch, the congestion controller and
/// the RNG seed.
#[derive(Debug, Clone, Copy)]
struct Job {
    pfc: bool,
    cc: CcKind,
    seed: u64,
}

const fn job(pfc: bool, cc: CcKind, seed: u64) -> Job {
    Job { pfc, cc, seed }
}

/// PFC on/off × DCQCN on/off × 2 seed replicates = 8 jobs, seeds
/// innermost. Each is a short single-ToR 5-to-1 incast, heavy enough
/// that the receiver port crosses XOFF, so the PFC axis really changes
/// the event stream.
const GRID: [Job; 8] = [
    job(true, CcKind::Dcqcn, 1),
    job(true, CcKind::Dcqcn, 2),
    job(true, CcKind::Off, 1),
    job(true, CcKind::Off, 2),
    job(false, CcKind::Dcqcn, 1),
    job(false, CcKind::Dcqcn, 2),
    job(false, CcKind::Off, 1),
    job(false, CcKind::Off, 2),
];

/// One job per congestion controller, everything else at the paper
/// default.
const CC: [Job; 3] = [
    job(true, CcKind::Dcqcn, 1),
    job(true, CcKind::Timely, 1),
    job(true, CcKind::Off, 1),
];

/// Identity for a job's report.
struct JobReport {
    id: String,
}

impl ScenarioReport for JobReport {
    fn id(&self) -> &str {
        &self.id
    }
    fn title(&self) -> &str {
        "fleet job"
    }
    fn claim(&self) -> &str {
        "fleet determinism fixture"
    }
    fn run(&self, _args: &CliArgs) -> Report {
        unreachable!("reports are built by the job runner")
    }
}

/// Run one job: drive a 5-to-1 incast for 1 ms, return (dispatch
/// digest, rendered report JSON).
fn run_job(job: &Job) -> (u64, String) {
    let mut c = ClusterBuilder::single_tor(6)
        .fabric(FabricProfile::paper_default().pfc(job.pfc))
        .transport(TransportProfile::paper_default().cc(job.cc))
        .seed(job.seed)
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
    let id = JobReport {
        id: format!("pfc={},cc={},seed={}", job.pfc, job.cc.name(), job.seed),
    };
    (c.world.dispatch_digest(), to_json(&id, &rep).render())
}

/// Per-job digests and JSON for `jobs` run on `workers` threads.
fn fleet_output(jobs: &[Job], workers: usize) -> (Vec<u64>, Vec<String>) {
    run_indexed(jobs.len(), workers, |i| run_job(&jobs[i]))
        .into_iter()
        .unzip()
}

#[test]
fn jobs_1_and_jobs_4_are_byte_identical() {
    let (d1, json1) = fleet_output(&GRID, 1);
    let (d4, json4) = fleet_output(&GRID, 4);
    assert_eq!(d1, d4, "per-run dispatch digests must not depend on --jobs");
    assert_eq!(json1, json4, "per-run JSON must be byte-identical");

    // Replicates genuinely differ (different seeds ⇒ different digests),
    // so the equality above is not vacuous.
    assert_ne!(d1[0], d1[1], "seed replicates must differ");
    // Each axis changes the simulation. With DCQCN on, queues stay below
    // XOFF and PFC never fires (the paper's point), so compare the PFC
    // axis in the DCQCN-off jobs: index 2 = (on, off, seed 1) vs index
    // 6 = (off, off, seed 1).
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

/// The congestion-control jobs (dcqcn / timely / off) must be exactly as
/// worker-count invariant as the grid above: same digests, same JSON, on
/// 1 worker and on 2.
#[test]
fn cc_ablation_is_worker_count_invariant() {
    let (d1, j1) = fleet_output(&CC, 1);
    let (d2, j2) = fleet_output(&CC, 2);
    assert_eq!(d1, d2, "per-run digests must not depend on --jobs");
    assert_eq!(j1, j2, "per-run JSON must be byte-identical");
    // Each controller really steers the simulation differently.
    assert_ne!(d1[0], d1[2], "dcqcn vs off must differ");
    assert_ne!(d1[1], d1[2], "timely vs off must differ");
    assert_ne!(d1[0], d1[1], "dcqcn vs timely must differ");
}
