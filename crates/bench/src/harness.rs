//! The command line every `rocescale` subcommand shares, and the
//! registry of `--trace-out` exports that lets `main` fail on an
//! incomplete file.

use std::sync::{Arc, Mutex};

use rocescale_monitor::{IoErrorLatch, JsonlSink};

use crate::report::CliArgs;

/// The flags every scenario and the fleet runner accept, defined in one
/// place:
///
/// * `--json` — emit the JSON report instead of text tables.
/// * `--json-out PATH` — additionally write the JSON report to a file.
/// * `--trace-out PATH` — stream the scenario's structured trace
///   (JSONL; see `rocescale_monitor::sink`) to a file for
///   `rocescale trace-analyze`.
/// * `--jobs N` — worker threads (fleet only; scenarios ignore it).
/// * anything else lands in `flags` for scenario-specific switches
///   (`--full-scale`, `--no-pfc`, …).
#[derive(Debug, Clone, Default)]
pub struct ScenarioCli {
    /// `--json`: emit the JSON report on stdout.
    pub json: bool,
    /// `--json-out PATH`: also write the JSON report to this file.
    pub json_out: Option<String>,
    /// `--trace-out PATH`: stream the structured JSONL trace here.
    pub trace_out: Option<String>,
    /// `--jobs N`: worker threads (consumed by the fleet runner).
    pub jobs: Option<usize>,
    /// Everything else, for scenario-specific flags.
    pub flags: Vec<String>,
}

impl ScenarioCli {
    /// Parse the arguments after the subcommand; `Err` carries a usage
    /// message.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<ScenarioCli, String> {
        let mut cli = ScenarioCli::default();
        let mut args = args.into_iter();
        let value = |flag: &str, args: &mut dyn Iterator<Item = String>| {
            args.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        while let Some(a) = args.next() {
            match a.as_str() {
                "--json" => cli.json = true,
                "--json-out" => cli.json_out = Some(value("--json-out", &mut args)?),
                "--trace-out" => cli.trace_out = Some(value("--trace-out", &mut args)?),
                "--jobs" => {
                    let v = value("--jobs", &mut args)?;
                    match v.parse::<usize>() {
                        Ok(n) if n >= 1 => cli.jobs = Some(n),
                        _ => return Err(format!("--jobs needs a positive integer, got {v:?}")),
                    }
                }
                _ => cli.flags.push(a),
            }
        }
        Ok(cli)
    }

    /// Is a scenario-specific flag present?
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// The per-scenario argument view ([`CliArgs`]) of this command
    /// line: what a [`crate::report::ScenarioReport`] receives. The
    /// fleet-only `--jobs` does not forward.
    pub fn to_args(&self) -> CliArgs {
        CliArgs {
            json: self.json,
            json_out: self.json_out.clone(),
            trace_out: self.trace_out.clone(),
            trace_exports: TraceExports::default(),
            flags: self.flags.clone(),
        }
    }
}

/// The `--trace-out` files a run opened, each with the latch that says
/// whether it was written completely. A scenario hands its sink to the
/// cluster and both are gone by the time the run returns; this is what
/// lets `main` still find out that the disk filled up, and fail.
#[derive(Debug, Clone, Default)]
pub struct TraceExports(Arc<Mutex<Vec<(String, IoErrorLatch)>>>);

impl TraceExports {
    /// Create the JSONL sink streaming to `path` and keep its error
    /// latch.
    pub fn create(&self, path: &str) -> std::io::Result<JsonlSink> {
        let sink = JsonlSink::create(path)?;
        self.0
            .lock()
            .expect("no panic while registering an export")
            .push((path.to_string(), sink.error_latch()));
        Ok(sink)
    }

    /// `"path: error"` for the first export that met an I/O error.
    pub fn failure(&self) -> Option<String> {
        let exports = self.0.lock().expect("no panic while registering an export");
        exports
            .iter()
            .find_map(|(path, latch)| latch.get().map(|e| format!("{path}: {e}")))
    }

    /// For `main`, after its runs: report an incomplete
    /// export on stderr and exit non-zero.
    pub fn exit_on_failure(&self) {
        if let Some(msg) = self.failure() {
            eprintln!("trace export incomplete, I/O error on {msg}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An export whose device fills up mid-run is reported by path; one
    /// that was written completely is not. (`/dev/full` accepts the open
    /// and fails every write with ENOSPC.)
    #[test]
    fn trace_exports_report_the_failed_file() {
        use rocescale_monitor::{QueueSample, RecordBody, StreamRecord, TraceSink};
        let exports = TraceExports::default();
        let ok_path = std::env::temp_dir().join(format!("rocescale-ok-{}", std::process::id()));
        let mut ok = exports.create(ok_path.to_str().unwrap()).unwrap();
        let mut full = exports.create("/dev/full").unwrap();
        let rec = StreamRecord {
            t_ps: 1,
            scope: "switch.t0",
            shard: None,
            body: RecordBody::Queue(QueueSample {
                backlog_bytes: 0,
                max_port_bytes: 0,
                tx_pkts: 0,
            }),
        };
        ok.write(&rec);
        ok.flush();
        assert_eq!(exports.failure(), None);
        // The file's BufWriter holds the line until the flush.
        full.write(&rec);
        full.flush();
        let msg = exports.failure().expect("ENOSPC must surface");
        assert!(msg.starts_with("/dev/full: "), "{msg}");
        let _ = std::fs::remove_file(ok_path);
    }

    #[test]
    fn scenario_cli_parses_every_shared_flag() {
        let argv = [
            "--json",
            "--json-out",
            "out.json",
            "--trace-out",
            "trace.jsonl",
            "--jobs",
            "4",
            "--full-scale",
        ];
        let cli = ScenarioCli::from_args(argv.iter().map(|s| s.to_string())).unwrap();
        assert!(cli.json);
        assert_eq!(cli.json_out.as_deref(), Some("out.json"));
        assert_eq!(cli.trace_out.as_deref(), Some("trace.jsonl"));
        assert_eq!(cli.jobs, Some(4));
        assert!(cli.has("--full-scale"));
        assert!(!cli.has("--no-pfc"));

        let args = cli.to_args();
        assert!(args.json);
        assert_eq!(args.trace_out.as_deref(), Some("trace.jsonl"));
        assert!(args.has("--full-scale"));
    }

    #[test]
    fn scenario_cli_rejects_missing_or_bad_values() {
        let err =
            |argv: &[&str]| ScenarioCli::from_args(argv.iter().map(|s| s.to_string())).unwrap_err();
        assert!(err(&["--trace-out"]).contains("--trace-out"));
        assert!(err(&["--json-out"]).contains("--json-out"));
        assert!(err(&["--jobs", "zero"]).contains("--jobs"));
        assert!(err(&["--jobs", "0"]).contains("--jobs"));
    }
}
