//! Multi-core fleet executor: run independent simulation jobs across
//! worker threads with output identical to a serial run.
//!
//! Every experiment in this repo is a deterministic single-threaded
//! simulation, so a suite of N scenarios — or a [`SweepSpec`] grid of
//! configuration cells — is embarrassingly parallel. [`run_indexed`] is
//! the one primitive: a work queue of `count` jobs drained by `workers`
//! scoped threads ([`std::thread::scope`], no extra dependencies), with
//! results slotted back by job index. Determinism argument:
//!
//! 1. each job is a pure function of its index (every simulation builds
//!    its own `World`, RNG seeded from the job spec — nothing shared);
//! 2. workers only *race for indices*, never for results — each result
//!    lands in its own pre-allocated slot;
//! 3. consumers read the slots in index order.
//!
//! Hence `--jobs 1` and `--jobs 16` produce byte-identical reports; the
//! thread count changes wall-clock time and nothing else. CI and the
//! determinism tests pin exactly that.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rocescale_core::{SweepJob, SweepSpec};

use crate::report::{to_json, to_text, CliArgs, ScenarioReport};
use crate::suite;
use rocescale_monitor::Json;

/// Run `count` jobs on `workers` threads; `f(i)` computes job `i`.
///
/// Results come back in index order regardless of which worker ran which
/// job or in what order they finished. `workers` is clamped to
/// `1..=count`. Panics in a job propagate once all workers have joined.
pub fn run_indexed<T, F>(count: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, count);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..count).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let out = f(i);
                slots.lock().unwrap()[i] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|slot| slot.expect("every job index was claimed by a worker"))
        .collect()
}

/// Enumerate a sweep and run every job across `workers` threads,
/// returning `(job, f(&job))` pairs in the sweep's canonical order.
pub fn run_sweep<T, F>(spec: &SweepSpec, workers: usize, f: F) -> Vec<(SweepJob, T)>
where
    T: Send,
    F: Fn(&SweepJob) -> T + Sync,
{
    let jobs = spec.jobs();
    let results = run_indexed(jobs.len(), workers, |i| f(&jobs[i]));
    jobs.into_iter().zip(results).collect()
}

/// One scenario's rendered output from a fleet run.
pub struct FleetOutcome {
    /// Position in [`suite::all`] order.
    pub index: usize,
    /// Scenario id, e.g. `"FIG-2 (§2)"`.
    pub id: String,
    /// Classic text rendering of the report.
    pub text: String,
    /// JSON rendering of the report (same schema as `--json` on the
    /// scenario run alone).
    pub json: Json,
}

/// Run the full scenario suite (every entry of [`suite::all`]) on
/// `workers` threads.
///
/// `args` is forwarded to every scenario (so e.g. `--full-scale` reaches
/// FIG-7). Outcomes come back in [`suite::all`] order.
pub fn run_suite(args: &CliArgs, workers: usize) -> Vec<FleetOutcome> {
    let all: Vec<usize> = (0..suite::all().len()).collect();
    run_selected(args, workers, &all)
}

/// Indices into [`suite::all`] whose scenario id contains `needle`,
/// case-insensitively — the `--only` selector of `rocescale fleet`.
pub fn matching_indices(needle: &str) -> Vec<usize> {
    let needle = needle.to_lowercase();
    suite::all()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.id().to_lowercase().contains(&needle))
        .map(|(i, _)| i)
        .collect()
}

/// Run a subset of the suite, given by indices into [`suite::all`], on
/// `workers` threads. Outcomes come back in the order of `indices`.
pub fn run_selected(args: &CliArgs, workers: usize, indices: &[usize]) -> Vec<FleetOutcome> {
    let scenarios = suite::all();
    run_indexed(indices.len(), workers, |k| {
        let i = indices[k];
        let s: &dyn ScenarioReport = scenarios[i];
        let report = s.run(args);
        FleetOutcome {
            index: i,
            id: s.id().to_string(),
            text: to_text(s, &report),
            json: to_json(s, &report),
        }
    })
}

/// Assemble fleet outcomes into the one-document JSON form:
/// `{"scenarios": [<report>, ...]}` in suite order.
pub fn suite_json(outcomes: &[FleetOutcome]) -> Json {
    Json::obj(vec![(
        "scenarios",
        Json::Arr(outcomes.iter().map(|o| o.json.clone()).collect()),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_index_order() {
        for workers in [1, 2, 7, 64] {
            let out = run_indexed(23, workers, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<usize> = run_indexed(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = run_indexed(100, 8, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn sweep_jobs_pair_with_results() {
        use rocescale_core::{SweepAxis, SweepSpec};
        let spec = SweepSpec::new()
            .axis(
                SweepAxis::new("pfc")
                    .variant("on", |p| p.fabric = p.fabric.clone().pfc(true))
                    .variant("off", |p| p.fabric = p.fabric.clone().pfc(false)),
            )
            .replicates(2);
        let out = run_sweep(&spec, 3, |job| job.labels.join(","));
        assert_eq!(out.len(), 4);
        for (i, (job, rendered)) in out.iter().enumerate() {
            assert_eq!(job.index, i);
            assert_eq!(*rendered, job.labels.join(","));
        }
    }
}
