//! `perf compare <runs-A/> <runs-B/>`: judges run B (a change) against
//! run A (its parent) for every workload and end-to-end metric, with the
//! bounds of `BENCHMARK.json`.
//!
//! Each directory holds one file per benchmark run: that run's standard
//! output. Runs pair up by workload and seed. For each workload ×
//! metric the report gives each side's median and quartiles, the share
//! of pairs B wins (ties count for neither side), and a verdict:
//!
//! * `improved` — B wins at least 9/10 of the pairs, and the medians
//!   differ by more than A's spread (its inter-quartile distance);
//! * `unresolved` — A's or B's spread is wider than the bound, unless
//!   every B run reads better than every A run;
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `unchanged` — otherwise.
//!
//! Tallies lines of runs with the same workload and seed must match.

use std::collections::BTreeMap;
use std::path::Path;

use telemetry::json::{self, Value};

use crate::stats::quartiles;

struct RunFile {
    workload: String,
    seed: String,
    tallies: String,
    metrics: BTreeMap<String, f64>,
}

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn load_runs(dir: &Path) -> Result<Vec<RunFile>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            parse_run(&text).ok_or_else(|| format!("{}: not the output of a perf run", p.display()))
        })
        .collect()
}

fn parse_run(text: &str) -> Option<RunFile> {
    let tallies = text.lines().find(|l| l.starts_with("tallies "))?;
    let field = |key: &str| {
        tallies
            .split_whitespace()
            .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
            .map(str::to_string)
    };
    let result = json::parse(text.lines().rev().find(|l| !l.trim().is_empty())?).ok()?;
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        return None;
    };
    Some(RunFile {
        workload: field("workload")?,
        seed: field("seed")?,
        tallies: tallies.to_string(),
        metrics: metrics
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    })
}

fn load_bounds(benchmark: &Path) -> Result<Vec<Bound>, String> {
    let text =
        std::fs::read_to_string(benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".into())
}

/// Prints the comparison; returns whether it found no regression and no
/// tallies mismatch.
pub fn run(a_dir: &Path, b_dir: &Path, benchmark: &Path) -> Result<bool, String> {
    let bounds = load_bounds(benchmark)?;
    let (a, b) = (load_runs(a_dir)?, load_runs(b_dir)?);
    let mut clean = true;

    for ra in &a {
        for rb in b
            .iter()
            .filter(|rb| rb.workload == ra.workload && rb.seed == ra.seed)
        {
            if ra.tallies != rb.tallies {
                clean = false;
                println!(
                    "tallies differ for {} seed {}:\n  A {}\n  B {}",
                    ra.workload, ra.seed, ra.tallies, rb.tallies
                );
            }
        }
    }

    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    println!(
        "{:<14} {:<18} {:>34} {:>34} {:>5}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "wins"
    );
    for w in workloads {
        let side = |runs: &[RunFile]| -> Vec<(String, BTreeMap<String, f64>)> {
            runs.iter()
                .filter(|r| r.workload == w)
                .map(|r| (r.seed.clone(), r.metrics.clone()))
                .collect()
        };
        let (sa, sb) = (side(&a), side(&b));
        for bound in &bounds {
            let values = |s: &[(String, BTreeMap<String, f64>)]| -> Vec<f64> {
                s.iter()
                    .filter_map(|(_, m)| m.get(&bound.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&sa), values(&sb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let better = |x: f64, y: f64| if bound.higher_is_better { x > y } else { x < y };
            let pairs: Vec<(f64, f64)> = sa
                .iter()
                .filter_map(|(seed, ma)| {
                    let (_, mb) = sb.iter().find(|(s, _)| s == seed)?;
                    Some((*ma.get(&bound.name)?, *mb.get(&bound.name)?))
                })
                .collect();
            let wins = pairs.iter().filter(|(x, y)| better(*y, *x)).count() as f64
                / pairs.len().max(1) as f64;
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let spread = |q: (f64, f64, f64)| {
                if q.1 != 0.0 {
                    (q.2 - q.0) / q.1.abs()
                } else {
                    0.0
                }
            };
            let worse_by = if qa.1 == 0.0 {
                0.0
            } else if bound.higher_is_better {
                (qa.1 - qb.1) / qa.1.abs()
            } else {
                (qb.1 - qa.1) / qa.1.abs()
            };
            let b_always_better = vb.iter().all(|&y| va.iter().all(|&x| better(y, x)));
            let verdict = if wins >= 0.9 && better(qb.1, qa.1) && (qb.1 - qa.1).abs() > qa.2 - qa.0
            {
                "improved"
            } else if spread(qa) > bound.bound || spread(qb) > bound.bound {
                if b_always_better {
                    "unchanged"
                } else {
                    "unresolved"
                }
            } else if worse_by > bound.bound {
                "regressed"
            } else {
                "unchanged"
            };
            clean &= verdict != "regressed";
            let show = |q: (f64, f64, f64)| format!("{:.4} [{:.4}, {:.4}]", q.1, q.0, q.2);
            println!(
                "{w:<14} {:<18} {:>34} {:>34} {wins:>5.2}  {verdict}",
                bound.name,
                show(qa),
                show(qb)
            );
        }
    }
    Ok(clean)
}
