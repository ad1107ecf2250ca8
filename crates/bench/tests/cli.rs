//! The `rocescale` binary's error paths and its one-scenario ≡ fleet
//! contract, driven as a user would: exit status, stdout and stderr.

use std::io::Write;
use std::process::{Command, Output, Stdio};

use rocescale_bench::suite;
use rocescale_monitor::json;

fn rocescale(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rocescale"))
        .args(args)
        .output()
        .expect("rocescale runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// `rocescale json-check` with `doc` on stdin.
fn json_check(doc: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rocescale"))
        .arg("json-check")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("rocescale runs");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(doc.as_bytes())
        .unwrap();
    child.wait_with_output().unwrap()
}

#[test]
fn an_unknown_scenario_is_a_usage_error_listing_every_scenario() {
    let out = rocescale(&["fig99_nonexistent"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("fig99_nonexistent"), "{err}");
    assert_eq!(suite::all().len(), 21);
    for s in suite::all() {
        assert!(
            err.contains(&format!("  {:<24}{}", s.name, s.id)),
            "{} missing from the usage list:\n{err}",
            s.name
        );
    }
}

#[test]
fn trace_analyze_names_the_malformed_line() {
    let path = format!("{}/garbage_line_2.jsonl", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(
        &path,
        "{\"t_ps\":1,\"scope\":\"switch.t0\",\"kind\":\"hop\",\"port\":0,\"prio\":3,\
         \"bytes\":64,\"src_ip\":0,\"dst_ip\":0,\"queue_bytes\":64}\n\
         this is not a record\n",
    )
    .unwrap();
    let out = rocescale(&["trace-analyze", &path]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("line 2"), "{err}");
    assert!(out.stdout.is_empty(), "no report for a malformed trace");
}

/// Each of these breaks the report schema in exactly one place; the
/// first is the document that `json-check` once passed.
#[test]
fn json_check_rejects_every_schema_violation() {
    let ok_table = r#"[{"name":"n","columns":["a","b"],"rows":[[1,2]]}]"#;
    let doc = |tables: &str, scalars: &str, notes: &str| {
        format!(
            r#"{{"id":"x","title":"t","paper":"p","tables":{tables},"scalars":{scalars},"notes":{notes}}}"#
        )
    };
    let valid = doc(ok_table, r#"{"k":1}"#, r#"["n"]"#);
    let out = json_check(&valid);
    assert!(out.status.success(), "{}", stderr(&out));

    let int_columns = r#"[{"name":"n","columns":[1,2],"rows":[[1,2]]}]"#;
    for (bad, names) in [
        (doc(int_columns, "5", "[7]"), "scalars"),
        (doc(ok_table, "[]", r#"["n"]"#), "scalars"),
        (doc(int_columns, r#"{"k":1}"#, r#"["n"]"#), "column"),
        (doc(ok_table, r#"{"k":1}"#, "[7]"), "notes"),
    ] {
        let out = json_check(&bad);
        assert_eq!(out.status.code(), Some(1), "{bad} must fail");
        let err = stderr(&out);
        assert!(err.contains(names), "{bad}: {err}");
    }
}

#[test]
fn a_value_flag_given_last_is_a_usage_error() {
    let out = rocescale(&["inc_fleet_scale", "--dur-us", "1", "--shards", "--json"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("--shards"), "{err}");
    assert!(out.stdout.is_empty(), "no run with a defaulted value");
}

#[test]
fn one_scenario_renders_as_its_fleet_element() {
    let s = &suite::all()[0];
    let alone = rocescale(&[s.name, "--json"]);
    assert!(alone.status.success(), "{}", stderr(&alone));
    let fleet = rocescale(&["fleet", "--only", s.id, "--json"]);
    assert!(fleet.status.success(), "{}", stderr(&fleet));

    let doc = json::parse(std::str::from_utf8(&fleet.stdout).unwrap()).unwrap();
    let [element] = doc.get("scenarios").unwrap().as_arr().unwrap() else {
        panic!("--only {:?} selects one scenario", s.id);
    };
    assert_eq!(
        format!("{}\n", element.render()),
        String::from_utf8(alone.stdout).unwrap()
    );
}

/// `--trace-out` is honoured or refused, never ignored: a scenario that
/// streams no trace fails naming itself — alone, or as the one job of a
/// fleet — and writes no file; one that streams writes the file; a fleet
/// of several is refused before it runs.
#[test]
fn trace_out_is_written_or_refused_never_ignored() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let refused = format!("{dir}/trace_out_refused.jsonl");
    let _ = std::fs::remove_file(&refused);
    let alone = ["fig3_dscp_vs_vlan", "--trace-out", &refused];
    let fleet = ["fleet", "--only", "FIG-3", "--trace-out", &refused];
    for args in [&alone[..], &fleet[..]] {
        let out = rocescale(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = stderr(&out);
        assert!(
            err.contains("fig3_dscp_vs_vlan") && err.contains(&refused),
            "{args:?}: {err}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?}: no report for a refused run"
        );
        assert!(!std::path::Path::new(&refused).exists(), "{args:?}");
    }

    let written = format!("{dir}/trace_out_written.jsonl");
    let _ = std::fs::remove_file(&written);
    let out = rocescale(&["fig2_pfc_basics", "--trace-out", &written]);
    assert!(out.status.success(), "{}", stderr(&out));
    let len = std::fs::metadata(&written).map_or(0, |m| m.len());
    assert!(len > 0, "fig2_pfc_basics streams its trace");
    let _ = std::fs::remove_file(&written);

    // Several scenarios cannot share one trace file: a usage error before
    // any of them runs, naming how many were selected.
    let out = rocescale(&["fleet", "--only", "(§2)", "--trace-out", &written]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("--trace-out") && err.contains("3 selected"),
        "{err}"
    );
    assert!(out.stdout.is_empty(), "no report for a refused run");
    assert!(!std::path::Path::new(&written).exists());
}
