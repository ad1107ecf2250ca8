//! Multi-core fleet executor: run independent simulation jobs across
//! worker threads with output identical to a serial run.
//!
//! Every experiment in this repo is a deterministic single-threaded
//! simulation, so a suite of N scenarios is embarrassingly parallel.
//! [`run_indexed`] is the one primitive: a work queue of `count` jobs
//! drained by `workers` scoped threads ([`std::thread::scope`], no extra
//! dependencies), with results slotted back by job index. Determinism
//! argument:
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

use crate::report::{to_json, to_text, CliArgs, Header, Report};
use crate::suite::{self, Scenario};
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

/// A report rendered both ways: what `rocescale` prints for one
/// scenario, a trace analysis or the whole fleet.
pub struct FleetOutcome {
    /// Classic text rendering of the report.
    pub text: String,
    /// JSON rendering of the report (the schema of
    /// [`crate::report`]).
    pub json: Json,
}

impl FleetOutcome {
    /// Render `report` under `head`, as text and as JSON.
    pub fn render(head: &Header, report: &Report) -> FleetOutcome {
        FleetOutcome {
            text: to_text(head, report),
            json: to_json(head, report),
        }
    }

    /// Run one scenario and render its report — the one path from a
    /// scenario to its output, for `rocescale <name>` and for each fleet
    /// job alike.
    pub fn run(s: &Scenario, args: &CliArgs) -> FleetOutcome {
        FleetOutcome::render(&s.header(), &(s.run)(args))
    }
}

/// Indices into [`suite::all`] whose scenario id contains `needle`,
/// case-insensitively — the `--only` selector of `rocescale fleet`.
pub fn matching_indices(needle: &str) -> Vec<usize> {
    let needle = needle.to_lowercase();
    suite::all()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.id.to_lowercase().contains(&needle))
        .map(|(i, _)| i)
        .collect()
}

/// Run a subset of the suite, given by indices into [`suite::all`], on
/// `workers` threads. Outcomes come back in the order of `indices`.
pub fn run_selected(args: &CliArgs, workers: usize, indices: &[usize]) -> Vec<FleetOutcome> {
    let scenarios = suite::all();
    run_indexed(indices.len(), workers, |k| {
        FleetOutcome::run(&scenarios[indices[k]], args)
    })
}

/// The fleet's own output: the reports' texts separated by blank lines,
/// and one JSON document `{"scenarios": [<report>, ...]}`, both in the
/// order given.
pub fn suite_outcome(outcomes: Vec<FleetOutcome>) -> FleetOutcome {
    let text = outcomes
        .iter()
        .map(|o| o.text.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    let reports = outcomes.into_iter().map(|o| o.json).collect();
    FleetOutcome {
        text,
        json: Json::obj(vec![("scenarios", Json::Arr(reports))]),
    }
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
}
