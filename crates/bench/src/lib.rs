//! Experiment harness behind the `rocescale` command line.
//!
//! Every evaluation figure of the paper is a scenario that
//! `rocescale <scenario>` regenerates (see `DESIGN.md` §4 for the index).
//! Each scenario is a declarative [`ScenarioReport`] spec; [`main_for`]
//! renders it either as aligned text tables (easy to diff against
//! `EXPERIMENTS.md`) or, with `--json`, as machine-readable JSON. The
//! scenario implementations live in [`suite`], and [`fleet`] runs the
//! whole suite — or a declarative sweep — across worker threads with
//! deterministic output.
//!
//! Flags are parsed once, by [`CliArgs::from_args`]; scenarios that
//! support `--trace-out` stream a structured JSONL trace which
//! `rocescale trace-analyze` ([`analyze`]) folds back into paper-figure
//! tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod fleet;
pub mod harness;
pub mod report;
pub mod suite;

pub use analyze::TraceDoc;
pub use fleet::{run_indexed, FleetOutcome};
pub use report::{main_for, Cell, CliArgs, Report, ScenarioReport, Table};
