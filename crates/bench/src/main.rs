//! `rocescale` — the one command line over the experiment suite.
//!
//! ```text
//! rocescale <scenario> [--json] [--json-out PATH] [--trace-out PATH] [scenario flags…]
//! rocescale fleet [--jobs N] [--only SUBSTR] [--json] [--json-out PATH]
//!                 [--trace-out PATH] [scenario flags…]
//! rocescale json-check < REPORT.json
//! rocescale trace-analyze TRACE.jsonl [--json] [--json-out PATH]
//! ```
//!
//! * `<scenario>` — one figure or experiment by name (`fig2_pfc_basics`,
//!   …, `inc_fleet_scale`; `rocescale --help` lists them), rendered as
//!   text tables or, with `--json`, as the report schema of
//!   `rocescale_bench::report`.
//! * `fleet` — the whole suite in one invocation, spread across `--jobs`
//!   worker threads (default: available parallelism). `--only SUBSTR`
//!   keeps the scenarios whose id contains `SUBSTR` (case-insensitive),
//!   e.g. `--only fleet-scale` or `--only §4.2`. `--json` emits one
//!   document `{"scenarios": [...]}`, each element the single-scenario
//!   schema. Anything else (`--full-scale`, `--no-pfc`) is forwarded to
//!   every scenario; `--deterministic` makes scenarios that report their
//!   own wall-clock suppress those fields, so two runs can be compared
//!   byte for byte (CI does, across `--jobs 1` and `--jobs 2`).
//!   `--trace-out` is forwarded when exactly one scenario is selected;
//!   with several racing to stream into one file the lines would
//!   interleave, so the fleet drops the flag with a warning instead.
//!   Stdout is a pure function of the job list — worker count only
//!   changes wall-clock time, which goes to stderr.
//! * `json-check` — reads one JSON document from stdin, parses it with
//!   the in-tree strict parser and checks the report schema
//!   (`id`/`title`/`paper`/`tables`/`scalars`/`notes`, each table
//!   carrying `name`/`columns`/`rows` and every row as wide as its
//!   column list). A fleet document is also accepted: every element is
//!   validated and scenario ids must be unique. Exits non-zero with a
//!   message on any violation — the CI gate for the JSON export path.
//! * `trace-analyze` — reads a `--trace-out` JSONL export and renders
//!   queue-depth heatmaps, pause-propagation timelines and CC rate
//!   trajectories as a normal report (id `TRACE`), so `--json` pipes
//!   straight into `json-check`.

use std::io::Read;
use std::time::Instant;

use rocescale_bench::fleet::{matching_indices, run_selected, suite_json};
use rocescale_bench::{main_for, suite, CliArgs, ScenarioCli, TraceDoc};
use rocescale_monitor::{json, Json};

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("rocescale: {msg}");
    }
    eprintln!(
        "usage: rocescale <scenario> [--json] [--json-out PATH] [--trace-out PATH] [scenario flags...]\n\
         \x20      rocescale fleet [--jobs N] [--only SUBSTR] [--json] [--json-out PATH] \
         [--trace-out PATH] [scenario flags...]\n\
         \x20      rocescale json-check < REPORT.json\n\
         \x20      rocescale trace-analyze TRACE.jsonl [--json] [--json-out PATH]\n\
         scenarios:"
    );
    for (name, s) in suite::all() {
        eprintln!("  {name:<24}{}", s.id());
    }
    std::process::exit(2);
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else {
        usage("");
    };
    let cli = ScenarioCli::from_args(argv).unwrap_or_else(|msg| usage(&msg));
    match cmd.as_str() {
        "-h" | "--help" => usage(""),
        "fleet" => fleet(&cli),
        "json-check" => json_check(),
        "trace-analyze" => {
            let [path] = cli.flags.as_slice() else {
                usage("trace-analyze expects exactly one trace file argument");
            };
            let doc = TraceDoc::load(path).unwrap_or_else(|e| usage(&e));
            main_for(&doc, &cli.to_args());
        }
        name => match suite::all().iter().find(|(n, _)| *n == name) {
            Some((_, s)) => main_for(*s, &cli.to_args()),
            None => usage(&format!("unknown scenario or subcommand {name:?}")),
        },
    }
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

fn fleet(cli: &ScenarioCli) {
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
        None => (0..suite::all().len()).collect(),
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

fn check_fail(msg: &str) -> ! {
    eprintln!("json-check: {msg}");
    std::process::exit(1);
}

/// Validate one report document; returns (id, tables, rows) for the
/// summary line.
fn check_report(doc: &Json, ctx: &str) -> (String, usize, usize) {
    for key in ["id", "title", "paper", "tables", "scalars", "notes"] {
        if doc.get(key).is_none() {
            check_fail(&format!("{ctx}missing top-level key {key:?}"));
        }
    }
    for key in ["id", "title", "paper"] {
        if doc.get(key).and_then(Json::as_str).is_none() {
            check_fail(&format!("{ctx}{key:?} must be a string"));
        }
    }
    let Some(tables) = doc.get("tables").and_then(Json::as_arr) else {
        check_fail(&format!("{ctx}\"tables\" must be an array"));
    };
    for (i, t) in tables.iter().enumerate() {
        let Some(cols) = t.get("columns").and_then(Json::as_arr) else {
            check_fail(&format!("{ctx}table {i}: \"columns\" must be an array"));
        };
        if t.get("name").and_then(Json::as_str).is_none() {
            check_fail(&format!("{ctx}table {i}: \"name\" must be a string"));
        }
        let Some(rows) = t.get("rows").and_then(Json::as_arr) else {
            check_fail(&format!("{ctx}table {i}: \"rows\" must be an array"));
        };
        for (j, row) in rows.iter().enumerate() {
            let Some(cells) = row.as_arr() else {
                check_fail(&format!("{ctx}table {i} row {j}: not an array"));
            };
            if cells.len() != cols.len() {
                check_fail(&format!(
                    "{ctx}table {i} row {j}: {} cells for {} columns",
                    cells.len(),
                    cols.len()
                ));
            }
        }
    }
    if doc.get("notes").and_then(Json::as_arr).is_none() {
        check_fail(&format!("{ctx}\"notes\" must be an array"));
    }
    let id = doc.get("id").and_then(Json::as_str).unwrap().to_string();
    let rows = tables
        .iter()
        .map(|t| t.get("rows").and_then(Json::as_arr).map_or(0, |r| r.len()))
        .sum::<usize>();
    (id, tables.len(), rows)
}

fn json_check() {
    let mut input = String::new();
    std::io::stdin()
        .read_to_string(&mut input)
        .unwrap_or_else(|e| check_fail(&format!("cannot read stdin: {e}")));
    let doc = match json::parse(&input) {
        Ok(d) => d,
        Err(e) => check_fail(&format!("parse error at byte {}: {}", e.at, e.msg)),
    };
    if let Some(scenarios) = doc.get("scenarios") {
        // Fleet document: an array of report documents.
        let Some(scenarios) = scenarios.as_arr() else {
            check_fail("\"scenarios\" must be an array");
        };
        if scenarios.is_empty() {
            check_fail("\"scenarios\" is empty");
        }
        let mut ids = Vec::new();
        let (mut tables, mut rows) = (0, 0);
        for (i, s) in scenarios.iter().enumerate() {
            let (id, t, r) = check_report(s, &format!("scenario {i}: "));
            if ids.contains(&id) {
                check_fail(&format!("scenario {i}: duplicate id {id:?}"));
            }
            ids.push(id);
            tables += t;
            rows += r;
        }
        println!(
            "json-check: ok — fleet: {} scenario(s), {tables} table(s), {rows} row(s)",
            scenarios.len()
        );
    } else {
        let (id, tables, rows) = check_report(&doc, "");
        println!("json-check: ok — {id}: {tables} table(s), {rows} row(s)");
    }
}
