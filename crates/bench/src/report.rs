//! Experiment reports: a [`Report`] under its [`Header`], rendered either
//! as the classic aligned-column tables ([`to_text`]) or — with `--json`
//! — as machine-readable JSON ([`to_json`]) built on
//! `rocescale_monitor::Json` (no external serialization dependency).
//!
//! The JSON schema every scenario emits:
//!
//! ```json
//! {
//!   "id": "FIG-2 (§2)",
//!   "title": "PFC mechanics",
//!   "paper": "<the claim being reproduced>",
//!   "tables": [{"name": "...", "columns": ["..."], "rows": [["..."]]}],
//!   "scalars": {"...": 0},
//!   "notes": ["..."]
//! }
//! ```

use rocescale_monitor::Json;

/// One table value.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float rendered with `prec` decimal places in table mode.
    F64 {
        /// The value.
        v: f64,
        /// Decimal places for the text renderer.
        prec: usize,
    },
    /// Free-form text.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Cell {
    /// Float with 2 decimal places (the common case).
    pub fn f2(v: f64) -> Cell {
        Cell::F64 { v, prec: 2 }
    }

    /// Float with 1 decimal place.
    pub fn f1(v: f64) -> Cell {
        Cell::F64 { v, prec: 1 }
    }

    /// Text cell from anything displayable.
    pub fn s(v: impl ToString) -> Cell {
        Cell::Str(v.to_string())
    }

    fn text(&self) -> String {
        match self {
            Cell::U64(v) => v.to_string(),
            Cell::I64(v) => v.to_string(),
            Cell::F64 { v, prec } => format!("{v:.prec$}"),
            Cell::Str(s) => s.clone(),
            Cell::Bool(b) => b.to_string(),
        }
    }

    fn json(&self) -> Json {
        match self {
            Cell::U64(v) => Json::U64(*v),
            Cell::I64(v) => Json::I64(*v),
            Cell::F64 { v, .. } => Json::F64(*v),
            Cell::Str(s) => Json::Str(s.clone()),
            Cell::Bool(b) => Json::Bool(*b),
        }
    }
}

/// A named table: column headers plus rows of cells.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table name (shown above the table; `""` suppresses the caption).
    pub name: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows; each must have `columns.len()` cells.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// A table with the given caption and column headers.
    pub fn new(name: impl Into<String>, columns: &[&str]) -> Table {
        Table {
            name: name.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the column count).
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width mismatch in table {:?}",
            self.name
        );
        self.rows.push(cells);
    }

    fn render_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.text().len());
            }
        }
        let mut out = String::new();
        if !self.name.is_empty() {
            out.push_str(&format!("{}:\n", self.name));
        }
        let fmt_line = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    if i == 0 {
                        format!("{:<w$}", c, w = widths[i])
                    } else {
                        format!("{:>w$}", c, w = widths[i])
                    }
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_line(&self.columns));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|c| c.text()).collect();
            out.push_str(&fmt_line(&cells));
            out.push('\n');
        }
        out
    }
}

/// Everything a scenario run produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Result tables in display order.
    pub tables: Vec<Table>,
    /// Named scalar results (ratios, totals, booleans).
    pub scalars: Vec<(String, Cell)>,
    /// Free-form commentary lines.
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Append a table.
    pub fn table(&mut self, t: Table) {
        self.tables.push(t);
    }

    /// Record a named scalar.
    pub fn scalar(&mut self, name: impl Into<String>, v: Cell) {
        self.scalars.push((name.into(), v));
    }

    /// Append a commentary line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// The command line every `rocescale` subcommand shares, parsed in one
/// place ([`CliArgs::from_args`]) and handed to each scenario:
///
/// * `--json` — emit the JSON report instead of text tables.
/// * `--json-out PATH` — additionally write the JSON report to a file.
/// * `--trace-out PATH` — stream the scenario's structured trace (JSONL;
///   see `rocescale_monitor::sink`, `DESIGN.md` §Trace) to a file for
///   `rocescale trace-analyze`.
/// * `--jobs N` — worker threads (fleet only; scenarios ignore it).
/// * anything else lands in `flags` for scenario-specific switches
///   (`--full-scale`, `--no-pfc`, …).
#[derive(Debug, Clone, Default)]
pub struct CliArgs {
    /// `--json`: emit the JSON form instead of tables.
    pub json: bool,
    /// `--json-out PATH`: also write the JSON form to this file.
    pub json_out: Option<String>,
    /// `--trace-out PATH`: scenarios that support trace export stream
    /// their structured JSONL trace here.
    pub trace_out: Option<String>,
    /// The exports actually opened for `trace_out`, so `main` can fail
    /// the run if one was cut short by an I/O error.
    pub trace_exports: crate::harness::TraceExports,
    /// `--jobs N`: worker threads (consumed by the fleet runner).
    pub jobs: Option<usize>,
    /// All other arguments, for scenario-specific flags.
    pub flags: Vec<String>,
}

impl CliArgs {
    /// Parse the arguments after the subcommand; `Err` carries a usage
    /// message.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<CliArgs, String> {
        let mut cli = CliArgs::default();
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

    /// The token following a scenario-specific flag: `Ok(None)` when
    /// the flag is absent (`--shards 4` → `value("--shards") ==
    /// Ok(Some("4"))`), `Err` with a usage message when it is the last
    /// argument.
    pub fn value(&self, flag: &str) -> Result<Option<&str>, String> {
        let Some(i) = self.flags.iter().position(|f| f == flag) else {
            return Ok(None);
        };
        match self.flags.get(i + 1) {
            Some(v) => Ok(Some(v.as_str())),
            None => Err(format!("{flag} needs a value")),
        }
    }
}

/// What a rendered report is headed with: the scenario's identity and
/// the paper claim it reproduces.
#[derive(Debug, Clone, Copy)]
pub struct Header<'a> {
    /// Short id, e.g. `"FIG-2 (§2)"`.
    pub id: &'a str,
    /// One-line human title.
    pub title: &'a str,
    /// The paper claim being reproduced.
    pub claim: &'a str,
}

/// Render a report as the JSON schema documented at module level.
pub fn to_json(head: &Header, r: &Report) -> Json {
    let tables = r
        .tables
        .iter()
        .map(|t| {
            Json::obj(vec![
                ("name", Json::Str(t.name.clone())),
                (
                    "columns",
                    Json::Arr(t.columns.iter().map(|c| Json::Str(c.clone())).collect()),
                ),
                (
                    "rows",
                    Json::Arr(
                        t.rows
                            .iter()
                            .map(|row| Json::Arr(row.iter().map(|c| c.json()).collect()))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let scalars = r
        .scalars
        .iter()
        .map(|(k, v)| (k.clone(), v.json()))
        .collect();
    Json::obj(vec![
        ("id", Json::Str(head.id.to_string())),
        ("title", Json::Str(head.title.to_string())),
        ("paper", Json::Str(head.claim.to_string())),
        ("tables", Json::Arr(tables)),
        ("scalars", Json::Obj(scalars)),
        (
            "notes",
            Json::Arr(r.notes.iter().map(|n| Json::Str(n.clone())).collect()),
        ),
    ])
}

/// Render a report as the classic text form.
pub fn to_text(head: &Header, r: &Report) -> String {
    let mut out = String::new();
    out.push_str("================================================================\n");
    out.push_str(&format!("{} — {}\n", head.id, head.title));
    out.push_str(&format!("paper: {}\n", head.claim));
    out.push_str("================================================================\n");
    for t in &r.tables {
        out.push('\n');
        out.push_str(&t.render_text());
    }
    if !r.scalars.is_empty() {
        out.push('\n');
        for (k, v) in &r.scalars {
            out.push_str(&format!("{k}: {}\n", v.text()));
        }
    }
    if !r.notes.is_empty() {
        out.push('\n');
        for n in &r.notes {
            out.push_str(&format!("{n}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAKE: Header = Header {
        id: "FIG-0",
        title: "fake",
        claim: "claims",
    };

    fn fake_report() -> Report {
        let mut r = Report::new();
        let mut t = Table::new("arms", &["arm", "goodput"]);
        t.row(vec![Cell::s("a"), Cell::f2(1.5)]);
        t.row(vec![Cell::s("b"), Cell::U64(3)]);
        r.table(t);
        r.scalar("ratio", Cell::f1(2.0));
        r.note("hello");
        r
    }

    #[test]
    fn json_form_matches_schema() {
        let j = to_json(&FAKE, &fake_report());
        let parsed = rocescale_monitor::json::parse(&j.render()).unwrap();
        for key in ["id", "title", "paper", "tables", "scalars", "notes"] {
            assert!(parsed.get(key).is_some(), "missing {key}");
        }
        let tables = parsed.get("tables").unwrap().as_arr().unwrap();
        assert_eq!(tables.len(), 1);
        let t0 = &tables[0];
        assert_eq!(t0.get("columns").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(t0.get("rows").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn text_form_aligns_columns() {
        let text = to_text(&FAKE, &fake_report());
        assert!(text.contains("FIG-0 — fake"));
        assert!(text.contains("arm"));
        assert!(text.contains("1.50"));
        assert!(text.contains("ratio: 2.0"));
        assert!(text.contains("hello"));
    }

    #[test]
    fn cli_parses_every_shared_flag() {
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
        let cli = CliArgs::from_args(argv.iter().map(|s| s.to_string())).unwrap();
        assert!(cli.json);
        assert_eq!(cli.json_out.as_deref(), Some("out.json"));
        assert_eq!(cli.trace_out.as_deref(), Some("trace.jsonl"));
        assert_eq!(cli.jobs, Some(4));
        assert!(cli.has("--full-scale"));
        assert!(!cli.has("--no-pfc"));
    }

    #[test]
    fn cli_rejects_missing_or_bad_values() {
        let err =
            |argv: &[&str]| CliArgs::from_args(argv.iter().map(|s| s.to_string())).unwrap_err();
        assert!(err(&["--trace-out"]).contains("--trace-out"));
        assert!(err(&["--json-out"]).contains("--json-out"));
        assert!(err(&["--jobs", "zero"]).contains("--jobs"));
        assert!(err(&["--jobs", "0"]).contains("--jobs"));
    }

    #[test]
    fn flag_values_parse_positionally() {
        let args = CliArgs {
            flags: vec!["--shards".into(), "4".into(), "--serial".into()],
            ..CliArgs::default()
        };
        assert_eq!(args.value("--shards"), Ok(Some("4")));
        assert_eq!(args.value("--absent"), Ok(None));
        let err = args.value("--serial").unwrap_err();
        assert!(
            err.contains("--serial"),
            "a flag given last has no value: {err}"
        );
    }

    #[test]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("t", &["a", "b"]);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(vec![Cell::U64(1)]);
        }));
        assert!(res.is_err());
    }
}
