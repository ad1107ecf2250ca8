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
//!   `rocescale_bench::report`. `--trace-out PATH` streams the traced
//!   arm's JSONL records to `PATH`; a scenario that streams none fails
//!   the run instead of ignoring the flag.
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
//!   interleave, so the fleet refuses the flag (exit 2, nothing run).
//!   Stdout is a pure function of the job list — worker count only
//!   changes wall-clock time, which goes to stderr.
//! * `json-check` — reads one JSON document from stdin, parses it with
//!   the in-tree strict parser and checks the report schema
//!   (string `id`/`title`/`paper`, a `scalars` object, `notes` strings,
//!   and `tables` each carrying a string `name`, string `columns` and
//!   `rows` as wide as that column list). A fleet document is also
//!   accepted: every element is validated and scenario ids must be
//!   unique. Exits non-zero with a message on any violation — the CI
//!   gate for the JSON export path.
//! * `trace-analyze` — reads a `--trace-out` JSONL export and renders
//!   queue-depth heatmaps, pause-propagation timelines and CC rate
//!   trajectories as a normal report (id `TRACE`), so `--json` pipes
//!   straight into `json-check`.

use std::io::Read;
use std::time::Instant;

use rocescale_bench::fleet::{matching_indices, run_selected, suite_outcome};
use rocescale_bench::{analyze, suite, CliArgs, FleetOutcome, Header};
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
    for s in suite::all() {
        eprintln!("  {:<24}{}", s.name, s.id);
    }
    std::process::exit(2);
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else {
        usage("");
    };
    let cli = CliArgs::from_args(argv).unwrap_or_else(|msg| usage(&msg));
    match cmd.as_str() {
        "-h" | "--help" => usage(""),
        "fleet" => fleet(&cli),
        "json-check" => json_check(),
        "trace-analyze" => {
            let [path] = cli.flags.as_slice() else {
                usage("trace-analyze expects exactly one trace file argument");
            };
            let records = analyze::load(path).unwrap_or_else(|e| usage(&e));
            let head = Header {
                id: "TRACE",
                title: &format!("exported trace analysis: {path}"),
                claim: analyze::CLAIM,
            };
            emit(
                &cli,
                &FleetOutcome::render(&head, &analyze::analyze(&records)),
            );
        }
        name => match suite::all().iter().find(|s| s.name == name) {
            Some(s) => {
                let out = FleetOutcome::run(s, &cli);
                require_trace_export(&cli, s.name);
                emit(&cli, &out);
            }
            None => usage(&format!("unknown scenario or subcommand {name:?}")),
        },
    }
}

/// Fail a run given `--trace-out` (forwarded to it, for a fleet) whose
/// scenario opened no export, rather than let the flag be ignored.
fn require_trace_export(args: &CliArgs, scenario: &str) {
    if let Some(path) = &args.trace_out {
        if !args.trace_exports.opened() {
            eprintln!("rocescale: {scenario} streams no trace; --trace-out {path} was not written");
            std::process::exit(1);
        }
    }
}

/// The one output path: write the JSON document to `--json-out` (whichever
/// form stdout gets), print the text or, with `--json`, the JSON, and fail
/// the run if a `--trace-out` export was cut short.
fn emit(cli: &CliArgs, out: &FleetOutcome) {
    if let Some(path) = &cli.json_out {
        let doc = out.json.render() + "\n";
        std::fs::write(path, doc).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {path}");
    }
    if cli.json {
        println!("{}", out.json.render());
    } else {
        print!("{}", out.text);
    }
    cli.trace_exports.exit_on_failure();
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

fn fleet(cli: &CliArgs) {
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
    if cli.trace_out.is_some() && indices.len() != 1 {
        usage(&format!(
            "fleet --trace-out needs a single scenario ({} selected); narrow with --only",
            indices.len()
        ));
    }
    // The per-scenario view: the output flags the fleet owns must not
    // also fire inside every worker.
    let args = CliArgs {
        json: cli.json,
        json_out: None,
        trace_out: cli.trace_out.clone(),
        trace_exports: cli.trace_exports.clone(),
        jobs: None,
        flags,
    };

    let t0 = Instant::now();
    let outcomes = run_selected(&args, jobs, &indices);
    if let [only] = indices[..] {
        require_trace_export(&args, suite::all()[only].name);
    }
    eprintln!(
        "fleet: {} scenarios on {} worker(s) in {:.2}s",
        outcomes.len(),
        jobs,
        t0.elapsed().as_secs_f64()
    );
    emit(cli, &suite_outcome(outcomes));
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
    if !matches!(doc.get("scalars"), Some(Json::Obj(_))) {
        check_fail(&format!("{ctx}\"scalars\" must be an object"));
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
        if cols.iter().any(|c| c.as_str().is_none()) {
            check_fail(&format!(
                "{ctx}table {i}: every column name must be a string"
            ));
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
    match doc.get("notes").and_then(Json::as_arr) {
        Some(notes) if notes.iter().all(|n| n.as_str().is_some()) => {}
        _ => check_fail(&format!("{ctx}\"notes\" must be an array of strings")),
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
