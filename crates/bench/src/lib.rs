//! Experiment harness behind the `rocescale` command line.
//!
//! Every evaluation figure of the paper is a scenario that
//! `rocescale <scenario>` regenerates (see `DESIGN.md` §4 for the index).
//! Each scenario is one row of the [`suite::all`] table: a name, a
//! [`Header`] (id, title, paper claim) and a run function returning a
//! [`Report`]. [`FleetOutcome::run`] is the one path from a scenario to
//! its output — aligned text tables (easy to diff against
//! `EXPERIMENTS.md`) and machine-readable JSON — whether
//! `rocescale <scenario>` runs it alone or [`fleet`] runs the suite
//! across worker threads with deterministic output.
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

pub use fleet::{run_indexed, FleetOutcome};
pub use report::{Cell, CliArgs, Header, Report, Table};
pub use suite::Scenario;
