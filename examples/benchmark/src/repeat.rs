//! `--repeat-check N`: the benchmark judging its own steadiness, the way
//! the gate that consumes it does. For each workload, 2 × N measuring
//! runs in fresh child processes launched one after another, each with
//! another seed, alternating between two sets A and B; per end-to-end
//! metric the spread of each set (interquartile range over median, with
//! Python's `statistics.quantiles(n=4)` quartiles) and whether B's median
//! is within the metric's bound of A's. Then one traced run per workload
//! for the per-layer figures. The output is Markdown: BASELINE.md is this
//! command's output for N = 10.

use std::process::{Command, ExitCode};

use rocescale::monitor::json::{self, Json};

use crate::manifest::number;
use crate::metrics::{Better, END_TO_END};
use crate::workloads::WORKLOADS;

/// The last line of a child's standard output, parsed.
fn result_of(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // `output()` waits for the child to end.
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("child printed nothing")?;
    let parsed = json::parse(line).map_err(|e| format!("{e:?}"))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    Ok(parsed)
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    number(result.get("metrics")?.get(name)?, "value")
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(v, n=4)` (the
/// default "exclusive" method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

fn uname() -> String {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    format!(
        "{} {}",
        read("/proc/sys/kernel/ostype").trim(),
        read("/proc/sys/kernel/osrelease").trim()
    )
}

/// Run the check and print the Markdown report.
pub fn run(n: usize, seconds: f64) -> ExitCode {
    if n < 2 {
        eprintln!("--repeat-check needs at least 2 runs per set");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("# Baseline: `--repeat-check {n}`\n");
    println!(
        "- machine: {nproc} logical CPUs, {}\n- measuring time per run: {seconds} s\n- sets: A and B, {n} runs each per workload, interleaved (A1 B1 A2 B2 …), seeds 1..{} (A odd, B even)\n",
        uname(),
        2 * n
    );
    let mut ok = true;
    for w in WORKLOADS.iter().map(|w| w.name) {
        let mut sets: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * n {
            let args: Vec<String> = [
                "--workload",
                w,
                "--seed",
                &(i + 1).to_string(),
                "--seconds",
                &seconds.to_string(),
                "--trace",
                "0",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            match result_of(&args) {
                Ok(r) => sets[i % 2].push(r),
                Err(e) => {
                    println!("run {i} of {w} failed: {e}\n");
                    ok = false;
                }
            }
        }
        if sets.iter().any(|s| s.len() < 2) {
            continue;
        }
        println!("## {w}\n");
        println!("| metric | unit | bound | A q1 | A median | A q3 | A spread | B median | B spread | B vs A | verdict |");
        println!("|---|---|---|---|---|---|---|---|---|---|---|");
        for d in END_TO_END {
            let values = |s: &Vec<Json>| -> Vec<f64> {
                s.iter().filter_map(|r| metric(r, d.name)).collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (aq1, amed, aq3) = quartiles(&a);
            let (bq1, bmed, bq3) = quartiles(&b);
            let (aspread, bspread) = ((aq3 - aq1) / amed, (bq3 - bq1) / bmed);
            // How much worse B's median is than A's, as a share of A's.
            let worse = match d.better {
                Better::Lower => (bmed - amed) / amed,
                Better::Higher => (amed - bmed) / amed,
            };
            // `setup_s` is exempt from the spread rule, not from the
            // median rule.
            let spread_ok = d.name == "setup_s" || (aspread <= d.bound && bspread <= d.bound);
            let good = spread_ok && worse <= d.bound;
            ok &= good;
            println!(
                "| {} | {} | {:.0}% | {:.6} | {:.6} | {:.6} | {:.2}% | {:.6} | {:.2}% | {:+.2}% | {} |",
                d.name,
                d.unit,
                d.bound * 100.0,
                aq1,
                amed,
                aq3,
                aspread * 100.0,
                bmed,
                bspread * 100.0,
                worse * 100.0,
                if good { "ok" } else { "OUTSIDE BOUND" }
            );
        }
        let failed: f64 = sets
            .iter()
            .flatten()
            .filter_map(|r| number(r, "failed"))
            .sum();
        println!("\nfailed operations over all {} runs: {failed}\n", 2 * n);
        ok &= failed == 0.0;

        let args: Vec<String> = ["--workload", w, "--seed", "1", "--trace", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match result_of(&args) {
            Ok(r) => {
                println!("Traced run (seed 1), per-layer metrics:\n");
                println!("| metric | value | unit |");
                println!("|---|---|---|");
                if let Some(Json::Obj(pairs)) = r.get("metrics") {
                    for (name, body) in pairs {
                        let unit = body.get("unit").and_then(Json::as_str).unwrap_or("");
                        let value = metric(&r, name).unwrap_or(0.0);
                        println!("| {name} | {value} | {unit} |");
                    }
                }
                println!();
            }
            Err(e) => {
                println!("traced run of {w} failed: {e}\n");
                ok = false;
            }
        }
    }
    println!(
        "overall: {}",
        if ok {
            "every spread and every median shift is inside its bound"
        } else {
            "AT LEAST ONE METRIC IS OUTSIDE ITS BOUND"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }
}
