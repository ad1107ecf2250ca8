//! Run the full experiment suite — every figure and section experiment —
//! in one invocation, spread across worker threads.
//!
//! ```text
//! fleet [--jobs N] [--only SUBSTR] [--json] [--json-out PATH]
//!       [--trace-out PATH] [scenario flags…]
//! ```
//!
//! * `--jobs N` — worker threads (default: available parallelism).
//! * `--only SUBSTR` — run only scenarios whose id contains `SUBSTR`
//!   (case-insensitive), e.g. `--only fleet-scale` or `--only §4.2`.
//! * `--json` — emit one JSON document `{"scenarios": [...]}`, each
//!   element the same schema the standalone binaries emit with `--json`
//!   (validated by `json_check`).
//! * `--json-out PATH` — also write that document to a file.
//! * anything else (e.g. `--full-scale`, `--no-pfc`) is forwarded to
//!   every scenario. `--deterministic` makes scenarios that report
//!   their own wall-clock suppress those fields, so two runs can be
//!   compared byte for byte (CI does, across `--jobs 1` and `--jobs 2`).
//!
//! `--trace-out` is forwarded when the selection is exactly one
//! scenario (the usual `--only` case); with several scenarios racing to
//! stream into one file the lines would interleave garbage, so the
//! fleet drops the flag with a warning instead.
//!
//! Output on stdout is a pure function of the job list — worker count
//! only changes wall-clock time, which goes to stderr.

use std::time::Instant;

use rocescale_bench::fleet::{matching_indices, run_selected, suite_json};
use rocescale_bench::harness::ScenarioCli;
use rocescale_bench::CliArgs;

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("fleet: {msg}");
    }
    eprintln!(
        "usage: fleet [--jobs N] [--only SUBSTR] [--json] [--json-out PATH] \
         [--trace-out PATH] [scenario flags...]"
    );
    std::process::exit(2);
}

/// Pull `--only SUBSTR` out of the forwarded flag list (it addresses the
/// fleet, not the scenarios).
fn take_only(flags: &mut Vec<String>) -> Option<String> {
    let i = flags.iter().position(|f| f == "--only")?;
    if i + 1 >= flags.len() {
        usage("--only needs a scenario-id substring");
    }
    let v = flags.remove(i + 1);
    flags.remove(i);
    Some(v)
}

fn main() {
    let cli = match ScenarioCli::parse() {
        Ok(cli) => cli,
        Err(msg) => usage(&msg),
    };
    if cli.has("--help") || cli.has("-h") {
        usage("");
    }
    let jobs = cli.jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let mut flags = cli.flags.clone();
    let only = take_only(&mut flags);
    let indices = match &only {
        Some(needle) => {
            let m = matching_indices(needle);
            if m.is_empty() {
                usage(&format!("--only {needle:?} matches no scenario id"));
            }
            m
        }
        None => (0..rocescale_bench::suite::all().len()).collect(),
    };
    let trace_out = match (&cli.trace_out, indices.len()) {
        (Some(path), 1) => Some(path.clone()),
        (Some(_), n) => {
            eprintln!(
                "fleet: --trace-out needs a single scenario ({n} selected); \
                 narrow with --only. Ignoring."
            );
            None
        }
        (None, _) => None,
    };
    // The per-scenario view: the output flags the fleet owns must not
    // also fire inside every worker.
    let args = CliArgs {
        json: cli.json,
        json_out: None,
        trace_out,
        trace_exports: Default::default(),
        flags,
    };

    let t0 = Instant::now();
    let outcomes = run_selected(&args, jobs, &indices);
    let secs = t0.elapsed().as_secs_f64();
    if let Some(path) = &cli.json_out {
        let doc = suite_json(&outcomes).render() + "\n";
        std::fs::write(path, doc).unwrap_or_else(|e| usage(&format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
    if cli.json {
        println!("{}", suite_json(&outcomes).render());
    } else {
        for (i, o) in outcomes.iter().enumerate() {
            if i > 0 {
                println!();
            }
            print!("{}", o.text);
        }
    }
    eprintln!(
        "fleet: {} scenarios on {} worker(s) in {:.2}s",
        outcomes.len(),
        jobs,
        secs
    );
    args.trace_exports.exit_on_failure();
}
