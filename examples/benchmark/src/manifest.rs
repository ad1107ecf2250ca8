//! `BENCHMARK.json`, both ways. `--emit-manifest` prints the manifest
//! this source declares (`metrics.rs`, `workloads::WORKLOADS`,
//! `RUN_SECONDS`); `--self-check` verifies that the committed file
//! declares exactly the same names, units, directions and bounds — none
//! missing, none undeclared — within the manifest's limits. Run the
//! check from the repository root.

use std::process::ExitCode;

use rocescale::monitor::json::{self, Json};

use crate::metrics::{Decl, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use crate::RUN_SECONDS;

/// The `BENCHMARK.json` this source declares.
pub fn emit() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let metric = |d: &Decl, bound: bool| {
        let bound = if bound {
            format!(", \"bound\": {}", d.bound)
        } else {
            String::new()
        };
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            d.name,
            d.unit,
            d.better.as_str()
        )
    };
    let end_to_end: Vec<String> = END_TO_END.iter().map(|d| metric(d, true)).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(|d| metric(d, false)).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"examples/benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"examples/benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

fn field<'a>(obj: &'a Json, key: &str) -> Option<&'a str> {
    obj.get(key).and_then(Json::as_str)
}

/// The numeric field `key` of `obj`, whatever JSON number type it
/// parsed as.
pub fn number(obj: &Json, key: &str) -> Option<f64> {
    match obj.get(key)? {
        Json::U64(v) => Some(*v as f64),
        Json::I64(v) => Some(*v as f64),
        Json::F64(v) => Some(*v),
        _ => None,
    }
}

fn compare(
    section: &str,
    manifest: &Json,
    decls: &[Decl],
    with_bound: bool,
    limit: usize,
    errors: &mut Vec<String>,
) {
    let Some(entries) = manifest.get(section).and_then(Json::as_arr) else {
        errors.push(format!("manifest has no {section} array"));
        return;
    };
    if entries.len() > limit {
        errors.push(format!(
            "{section}: {} metrics, limit {limit}",
            entries.len()
        ));
    }
    for d in decls {
        match entries.iter().find(|e| field(e, "name") == Some(d.name)) {
            None => errors.push(format!("{section}: {} emitted but not declared", d.name)),
            Some(e) => {
                if field(e, "unit") != Some(d.unit) {
                    errors.push(format!("{section}: {} unit differs", d.name));
                }
                if field(e, "better") != Some(d.better.as_str()) {
                    errors.push(format!("{section}: {} direction differs", d.name));
                }
                if with_bound && number(e, "bound") != Some(d.bound) {
                    errors.push(format!("{section}: {} bound differs", d.name));
                }
            }
        }
    }
    for e in entries {
        let name = field(e, "name").unwrap_or("?");
        if !decls.iter().any(|d| d.name == name) {
            errors.push(format!("{section}: {name} declared but never emitted"));
        }
    }
}

/// Compare this source with `BENCHMARK.json` in the current directory.
pub fn check() -> ExitCode {
    let text = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read BENCHMARK.json (run from the repository root): {e}");
            return ExitCode::FAILURE;
        }
    };
    let manifest = match json::parse(&text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("BENCHMARK.json does not parse: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    let mut errors = Vec::new();
    compare("end_to_end", &manifest, END_TO_END, true, 16, &mut errors);
    compare("per_layer", &manifest, PER_LAYER, false, 128, &mut errors);
    if !END_TO_END.iter().any(|d| d.name == "setup_s") {
        errors.push("end_to_end lacks setup_s".to_string());
    }
    for d in END_TO_END {
        if !(d.bound > 0.0 && d.bound <= 0.25) {
            errors.push(format!("{}: bound {} outside (0, 0.25]", d.name, d.bound));
        }
    }
    let declared: Vec<&str> = manifest
        .get("workloads")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(|w| field(w, "name")).collect())
        .unwrap_or_default();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if declared != ours {
        errors.push(format!(
            "workloads differ: manifest {declared:?}, source {ours:?}"
        ));
    }
    for w in WORKLOADS {
        if w.why.len() > 200 || w.why.contains('\n') {
            errors.push(format!(
                "{}: why must be one line of at most 200 characters",
                w.name
            ));
        }
    }
    if number(&manifest, "run_seconds") != Some(RUN_SECONDS as f64) {
        errors.push("run_seconds differs from RUN_SECONDS".to_string());
    }
    if errors.is_empty() {
        println!(
            "self-check ok: {} workloads, {} end-to-end and {} per-layer metrics agree with BENCHMARK.json",
            ours.len(),
            END_TO_END.len(),
            PER_LAYER.len()
        );
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("self-check: {e}");
        }
        ExitCode::FAILURE
    }
}
