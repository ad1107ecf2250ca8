//! The repository's benchmark. One command per workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path examples/benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! generates the workload's inputs from the seed, hands the simulator
//! only those inputs through its public API, prints every metric by name
//! with its unit, checks the outputs, and ends with one JSON result line.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. See README.md in this directory.

mod alloc;
mod fabric;
mod kernels;
mod manifest;
mod metrics;
mod rec;
mod repeat;
mod run;
mod workloads;

use std::process::ExitCode;

use metrics::{Decl, END_TO_END, PER_LAYER};
use run::{Outcome, RunOpts, Scale};
use workloads::WORKLOADS;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Measuring time of one run, seconds (`run_seconds` in the manifest).
pub const RUN_SECONDS: u64 = 25;

/// Repetitions a measuring run makes at least.
const MIN_REPS: usize = 3;

/// The result line: one JSON object, last on standard output.
fn result_line(o: &Outcome, decls: &'static [Decl]) -> String {
    let metrics: Vec<String> = o
        .table
        .in_order(decls)
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name, v, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn print_outcome(name: &str, seed: u64, o: &Outcome, decls: &'static [Decl]) {
    println!("# workload {name} seed {seed}");
    for (d, v) in o.table.in_order(decls) {
        let na = if o.table.get(d.name).is_none() {
            "  (layer does no work here)"
        } else {
            ""
        };
        println!("{:<34} {:>18} {}{na}", d.name, format!("{v}"), d.unit);
    }
    for (i, (setup, run, wall)) in o.rep_times.iter().enumerate() {
        println!("rep {i}: setup {setup:.4} s  run {run:.4} s  wall {wall:.4} s");
    }
    for c in &o.checks {
        println!(
            "check {:<6} {} [{}]",
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
    println!("ops {} failed_ops {}", o.attempted, o.failed);
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    smoke: bool,
    self_check: bool,
    emit_manifest: bool,
    repeat_check: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        trace_out: None,
        smoke: false,
        self_check: false,
        emit_manifest: false,
        repeat_check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => a.trace_out = Some(value("a path")?),
            "--smoke" => a.smoke = true,
            "--self-check" => a.self_check = true,
            "--emit-manifest" => a.emit_manifest = true,
            "--repeat-check" => {
                a.repeat_check = Some(
                    value("a run count")?
                        .parse()
                        .map_err(|e| format!("--repeat-check: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_manifest {
        print!("{}", manifest::emit());
        return ExitCode::SUCCESS;
    }
    if args.self_check {
        return manifest::check();
    }
    if let Some(n) = args.repeat_check {
        return repeat::run(n, args.seconds);
    }
    if args.smoke {
        // Every workload at 1/20 of its horizons: one plain repetition,
        // the traced one and the twin; kernels skipped, checks on.
        let opts = RunOpts {
            seed: args.seed,
            seconds: 0.0,
            trace: true,
            scale: Scale { div: 20 },
            min_reps: 1,
            kernels: false,
            trace_out: None,
        };
        let mut failed = 0;
        for w in WORKLOADS {
            let o = run::run_workload(w, &opts);
            print_outcome(w.name, args.seed, &o, PER_LAYER);
            failed += o.failed;
        }
        println!("smoke: {failed} failed operations");
        return if failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(w) = args
        .workload
        .as_deref()
        .and_then(|name| WORKLOADS.iter().find(|w| w.name == name))
    else {
        eprintln!("--workload <name> is required; one of:");
        for w in WORKLOADS {
            eprintln!("  {}: {}", w.name, w.why);
        }
        return ExitCode::from(2);
    };
    let o = run::run_workload(
        w,
        &RunOpts {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            scale: Scale { div: 1 },
            min_reps: MIN_REPS,
            kernels: true,
            trace_out: args.trace_out.as_deref(),
        },
    );
    let decls = if args.trace { PER_LAYER } else { END_TO_END };
    print_outcome(w.name, args.seed, &o, decls);
    println!("{}", result_line(&o, decls));
    if o.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
