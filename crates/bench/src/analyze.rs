//! Trace analysis: fold an exported JSONL trace back into paper-figure
//! tables through the standard [`Report`] renderer.
//!
//! The export path (`--trace-out` on a scenario) streams three record
//! classes — flight events (CC `rate_change` moves among them),
//! per-packet hops and per-epoch queue samples (see
//! `rocescale_monitor::sink`). This module is the read side: [`load`]
//! parses any such file, [`analyze`] renders
//!
//! * a **record census** (what the trace contains),
//! * a **queue-depth heatmap** — switch × time-window max backlog, the
//!   Figure 10 time axis,
//! * a **pause-propagation timeline** — `pause_tx`/`pause_rx`/
//!   `resume_tx` counts per window, the Figure 9(b) shape,
//! * **CC rate trajectories** — the per-QP DCQCN/TIMELY rate curve.
//!
//! `rocescale trace-analyze` heads the report with id `TRACE` and
//! [`CLAIM`], so its `--json` output (and `json-check` validation) is
//! the schema every scenario emits.

use std::collections::{BTreeMap, BTreeSet};

use rocescale_monitor::ParsedRecord;

use crate::report::{Cell, Report, Table};

/// Time windows trajectories are folded into: enough resolution to see
/// a storm start and stop, few enough columns to render as text.
const WINDOWS: u64 = 10;

/// Picosecond span of the trace and the window width derived from it.
#[derive(Debug, Clone, Copy)]
struct TimeAxis {
    t0: u64,
    width_ps: u64,
}

impl TimeAxis {
    fn from_records(records: &[ParsedRecord]) -> TimeAxis {
        let t0 = records.iter().map(|r| r.t_ps).min().unwrap_or(0);
        let t1 = records.iter().map(|r| r.t_ps).max().unwrap_or(0);
        TimeAxis {
            t0,
            width_ps: ((t1 - t0) / WINDOWS).max(1),
        }
    }

    fn window(&self, t_ps: u64) -> u64 {
        ((t_ps - self.t0) / self.width_ps).min(WINDOWS - 1)
    }

    /// Window start in microseconds (the row/column label unit).
    fn label_us(&self, w: u64) -> f64 {
        (self.t0 + w * self.width_ps) as f64 / 1e6
    }
}

fn census(records: &[ParsedRecord]) -> Table {
    let mut kinds: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for r in records {
        let e = kinds.entry(&r.kind).or_insert((0, u64::MAX, 0));
        e.0 += 1;
        e.1 = e.1.min(r.t_ps);
        e.2 = e.2.max(r.t_ps);
    }
    let mut t = Table::new("record census", &["kind", "count", "first(us)", "last(us)"]);
    for (kind, (count, first, last)) in kinds {
        t.row(vec![
            Cell::s(kind),
            Cell::U64(count),
            Cell::f1(first as f64 / 1e6),
            Cell::f1(last as f64 / 1e6),
        ]);
    }
    t
}

fn queue_heatmap(records: &[ParsedRecord], axis: TimeAxis) -> Option<Table> {
    // switch scope -> per-window max backlog (bytes).
    let mut rows: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for r in records.iter().filter(|r| r.kind == "queue") {
        let cells = rows
            .entry(&r.scope)
            .or_insert_with(|| vec![0; WINDOWS as usize]);
        let w = axis.window(r.t_ps) as usize;
        cells[w] = cells[w].max(r.u64_field("backlog_bytes").unwrap_or(0));
    }
    if rows.is_empty() {
        return None;
    }
    let mut labels = vec!["switch".to_string()];
    labels.extend((0..WINDOWS).map(|w| format!("{:.0}us", axis.label_us(w))));
    let refs: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new("queue-depth heatmap (max lossless backlog, KB)", &refs);
    for (scope, cells) in rows {
        let mut row = vec![Cell::s(scope)];
        row.extend(cells.iter().map(|b| Cell::f1(*b as f64 / 1024.0)));
        t.row(row);
    }
    Some(t)
}

fn pause_timeline(records: &[ParsedRecord], axis: TimeAxis) -> Option<Table> {
    const KINDS: [&str; 3] = ["pause_tx", "pause_rx", "resume_tx"];
    // window -> [pause_tx, pause_rx, resume_tx], plus the scopes active.
    let mut windows: BTreeMap<u64, ([u64; 3], BTreeSet<&str>)> = BTreeMap::new();
    for r in records {
        let Some(k) = KINDS.iter().position(|k| *k == r.kind) else {
            continue;
        };
        let e = windows.entry(axis.window(r.t_ps)).or_default();
        e.0[k] += 1;
        e.1.insert(&r.scope);
    }
    if windows.is_empty() {
        return None;
    }
    let mut t = Table::new(
        "pause propagation (frames per window; scopes = devices pausing or paused)",
        &["t(us)", "pause_tx", "pause_rx", "resume_tx", "scopes"],
    );
    for (w, (counts, scopes)) in windows {
        t.row(vec![
            Cell::f1(axis.label_us(w)),
            Cell::U64(counts[0]),
            Cell::U64(counts[1]),
            Cell::U64(counts[2]),
            Cell::U64(scopes.len() as u64),
        ]);
    }
    Some(t)
}

fn rate_trajectories(records: &[ParsedRecord], axis: TimeAxis) -> Option<Table> {
    // (nic scope, qp) -> window -> last rate change in that window.
    let mut series: BTreeMap<(&str, u64), BTreeMap<u64, &ParsedRecord>> = BTreeMap::new();
    for r in records.iter().filter(|r| r.kind == "rate_change") {
        let qp = r.u64_field("qp").unwrap_or(0);
        series
            .entry((&r.scope, qp))
            .or_default()
            .insert(axis.window(r.t_ps), r);
    }
    if series.is_empty() {
        return None;
    }
    let mut t = Table::new(
        "cc rate trajectories (last rate change per window)",
        &["nic", "qp", "cc", "t(us)", "rate(Mb/s)", "cause"],
    );
    for ((scope, qp), windows) in series {
        for (w, r) in windows {
            t.row(vec![
                Cell::s(scope),
                Cell::U64(qp),
                Cell::s(r.str_field("cc").unwrap_or("?")),
                Cell::f1(axis.label_us(w)),
                Cell::U64(r.u64_field("rate_mbps").unwrap_or(0)),
                Cell::s(r.str_field("cause").unwrap_or("?")),
            ]);
        }
    }
    Some(t)
}

/// Analyze a parsed trace into the full report: census plus whichever
/// trajectory tables the trace's record classes support. Absent classes
/// (filtered at export, or a scenario that never pauses) are called out
/// in notes instead of rendering empty tables.
pub fn analyze(records: &[ParsedRecord]) -> Report {
    let mut rep = Report::new();
    if records.is_empty() {
        rep.note("trace is empty: nothing was exported");
        return rep;
    }
    let axis = TimeAxis::from_records(records);
    rep.table(census(records));
    match queue_heatmap(records, axis) {
        Some(t) => rep.table(t),
        None => rep.note("no queue samples in this trace (hops-only filter, or no epochs ran)"),
    }
    match pause_timeline(records, axis) {
        Some(t) => rep.table(t),
        None => rep.note("no pause/resume events in this trace (nothing hit XOFF)"),
    }
    match rate_trajectories(records, axis) {
        Some(t) => rep.table(t),
        None => rep.note("no rate_change events in this trace (congestion control off or idle)"),
    }

    let hop_bytes: u64 = records
        .iter()
        .filter(|r| r.kind == "hop")
        .filter_map(|r| r.u64_field("bytes"))
        .sum();
    let peak_queue = records
        .iter()
        .filter_map(|r| match r.kind.as_str() {
            "hop" => r.u64_field("queue_bytes"),
            "queue" => r.u64_field("max_port_bytes"),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    rep.scalar("records", Cell::U64(records.len() as u64));
    rep.scalar("span_us", Cell::f1((axis.width_ps * WINDOWS) as f64 / 1e6));
    rep.scalar("hop_bytes", Cell::U64(hop_bytes));
    rep.scalar("peak_queue_kb", Cell::f1(peak_queue as f64 / 1024.0));
    rep
}

/// The paper claim a trace analysis is headed with.
pub const CLAIM: &str = "queue-depth heatmaps, pause-propagation timelines and CC rate \
     trajectories recovered offline from a streamed JSONL trace — the paper's time-series \
     evidence, regenerable from any exported run";

/// Read and strictly parse an exported trace file; the error names the
/// file and, for a malformed record, its line.
pub fn load(path: &str) -> Result<Vec<ParsedRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    rocescale_monitor::parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocescale_monitor::parse_jsonl;

    fn synthetic_trace() -> Vec<ParsedRecord> {
        let mut lines = String::new();
        // Two switches' queue samples over 10 ms, a pause burst in the
        // middle, one NIC's rate curve stepping down then up.
        for w in 0..10u64 {
            let t = w * 1_000_000_000;
            lines += &format!(
                "{{\"t_ps\":{t},\"scope\":\"switch.t0\",\"kind\":\"queue\",\
                 \"backlog_bytes\":{},\"max_port_bytes\":{},\"tx_pkts\":{}}}\n",
                w * 10240,
                w * 5120,
                w * 100
            );
            lines += &format!(
                "{{\"t_ps\":{t},\"scope\":\"switch.t1\",\"kind\":\"queue\",\
                 \"backlog_bytes\":0,\"max_port_bytes\":0,\"tx_pkts\":{w}}}\n"
            );
        }
        for t in [4_100_000_000u64, 4_200_000_000, 4_300_000_000] {
            lines += &format!(
                "{{\"t_ps\":{t},\"scope\":\"switch.t0\",\"kind\":\"pause_tx\",\
                 \"port\":1,\"prio\":3}}\n"
            );
        }
        lines += "{\"t_ps\":4400000000,\"scope\":\"switch.t0\",\"kind\":\"resume_tx\",\
                  \"port\":1,\"prio\":3}\n";
        for (t, rate, cause) in [
            (4_150_000_000u64, 20_000u64, "cnp"),
            (6_000_000_000, 24_000, "increase"),
        ] {
            lines += &format!(
                "{{\"t_ps\":{t},\"scope\":\"nic.s1\",\"kind\":\"rate_change\",\
                 \"qp\":0,\"rate_mbps\":{rate},\"cc\":\"dcqcn\",\"cause\":\"{cause}\"}}\n"
            );
        }
        lines += "{\"t_ps\":100000000,\"scope\":\"switch.t0\",\"kind\":\"hop\",\"port\":2,\
                  \"prio\":3,\"bytes\":1120,\"src_ip\":1,\"dst_ip\":2,\"queue_bytes\":99999}\n";
        parse_jsonl(&lines).unwrap()
    }

    #[test]
    fn analysis_renders_all_three_trajectory_tables() {
        let rep = analyze(&synthetic_trace());
        let names: Vec<&str> = rep.tables.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names.len(), 4, "census + 3 trajectory tables: {names:?}");
        assert!(names[0].contains("census"));
        assert!(names[1].contains("heatmap"));
        assert!(names[2].contains("pause propagation"));
        assert!(names[3].contains("cc rate"));

        // Heatmap: one row per switch, windows as columns.
        let heat = &rep.tables[1];
        assert_eq!(heat.rows.len(), 2);
        assert_eq!(heat.columns.len() as u64, 1 + WINDOWS);

        // Pause burst lands in one window: 3 XOFF + 1 XON, one scope.
        let pauses = &rep.tables[2];
        assert_eq!(pauses.rows.len(), 1);
        assert_eq!(pauses.rows[0][1], Cell::U64(3));
        assert_eq!(pauses.rows[0][3], Cell::U64(1));
        assert_eq!(pauses.rows[0][4], Cell::U64(1));

        // Rate curve: two windows, last point each.
        let rates = &rep.tables[3];
        assert_eq!(rates.rows.len(), 2);
        assert_eq!(rates.rows[0][4], Cell::U64(20_000));
        assert_eq!(rates.rows[1][5], Cell::Str("increase".into()));

        let peak = rep
            .scalars
            .iter()
            .find(|(k, _)| k == "peak_queue_kb")
            .unwrap();
        assert_eq!(peak.1, Cell::f1(99_999.0 / 1024.0));
    }

    #[test]
    fn absent_classes_become_notes_not_empty_tables() {
        let records = parse_jsonl(
            "{\"t_ps\":1,\"scope\":\"switch.t0\",\"kind\":\"hop\",\"port\":0,\"prio\":3,\
             \"bytes\":64,\"src_ip\":0,\"dst_ip\":0,\"queue_bytes\":64}\n",
        )
        .unwrap();
        let rep = analyze(&records);
        assert_eq!(rep.tables.len(), 1, "census only");
        assert_eq!(rep.notes.len(), 3);
        assert!(rep.notes.iter().any(|n| n.contains("no queue samples")));
    }

    #[test]
    fn empty_trace_is_a_note() {
        let rep = analyze(&[]);
        assert!(rep.tables.is_empty());
        assert_eq!(rep.notes.len(), 1);
    }
}
