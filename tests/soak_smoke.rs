//! Soak-harness smoke: the seeded fault storm completes with zero data
//! loss, its tallies are bit-identical across same-seed reruns (the
//! property the CI `soak-smoke` job diffs across thread counts), and an
//! impossible SLO gate fails the run with the corruption exit code.

mod common;

use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// `soak::run` owns the global telemetry registry for the duration of a
/// run; serialize the storms so parallel test threads don't share it.
static SOAK_LOCK: Mutex<()> = Mutex::new(());

fn tmpdir(name: &str) -> PathBuf {
    common::tmpdir(&format!("soak-smoke-{name}"))
}

fn small_storm(dir: &Path, seed: u64) -> soak::SoakConfig {
    let mut cfg = soak::SoakConfig::storm(dir, seed);
    cfg.stores = 2;
    cfg.ops = 60;
    cfg.scale = 8;
    cfg
}

/// Extract the single-line `"tallies"` entry from the BENCH json — the
/// exact text the CI job compares across runs and thread counts.
fn tallies_line(json: &str) -> String {
    json.lines()
        .find(|l| l.contains("\"tallies\""))
        .expect("BENCH json has a tallies line")
        .to_string()
}

#[test]
fn storm_completes_with_zero_data_loss() {
    let _guard = SOAK_LOCK.lock().unwrap();
    let dir = tmpdir("loss");
    let cfg = small_storm(&dir, 11);
    let report = soak::run(&cfg).expect("storm must complete");

    assert!(report.zero_data_loss(), "unaccounted loss: {report:?}");
    assert!(report.all_gates_pass(), "no gates configured, none can fail");

    // The storm must actually storm: every fault class fired, and the
    // harness exercised each op kind at least once.
    let t = &report.tallies;
    assert!(t.bit_flip_events > 0, "bit flips must fire: {t:?}");
    assert!(t.crashes > 0 && t.resumes > 0, "torn writes must fire and resume: {t:?}");
    assert_eq!(t.resumes, t.crashes, "every crash resumes: {t:?}");
    assert!(t.reads > 0, "{t:?}");
    assert!(t.scrubs > 0, "{t:?}");
}

#[test]
fn same_seed_reruns_are_tally_identical() {
    let _guard = SOAK_LOCK.lock().unwrap();
    let dir_a = tmpdir("rerun-a");
    let dir_b = tmpdir("rerun-b");

    let cfg_a = small_storm(&dir_a, 23);
    let cfg_b = small_storm(&dir_b, 23);
    let a = soak::run(&cfg_a).unwrap();
    let b = soak::run(&cfg_b).unwrap();
    assert_eq!(a.tallies, b.tallies, "same seed, same storm");
    assert_eq!(
        tallies_line(&a.to_json(&cfg_a)),
        tallies_line(&b.to_json(&cfg_b)),
        "the BENCH tallies line is bit-identical for a fixed seed"
    );

    // A different seed yields a genuinely different storm.
    let dir_c = tmpdir("rerun-c");
    let cfg_c = small_storm(&dir_c, 24);
    let c = soak::run(&cfg_c).unwrap();
    assert_ne!(a.tallies, c.tallies, "different seed must differ");
}

#[test]
fn impossible_gate_fails_with_corruption_exit_code() {
    let _guard = SOAK_LOCK.lock().unwrap();
    let dir = tmpdir("gate");

    // Library level: the gate is evaluated and reported as failed.
    let mut cfg = small_storm(&dir, 5);
    cfg.ops = 20;
    cfg.slo.read_p99_us = Some(0);
    let report = soak::run(&cfg).unwrap();
    assert!(report.zero_data_loss());
    assert!(!report.all_gates_pass());
    let failed: Vec<_> = report.gates.iter().filter(|g| !g.pass).collect();
    assert_eq!(failed.len(), 1, "{:?}", report.gates);
    assert_eq!(failed[0].gate, "read_p99_us");

    // CLI level: the same violation is the documented exit code 2.
    let dir2 = tmpdir("gate-cli");
    let bench = dir2.join("BENCH_soak.json");
    std::fs::create_dir_all(&dir2).unwrap();
    let argv: Vec<String> = [
        "soak",
        dir2.to_str().unwrap(),
        "--seed",
        "5",
        "--ops",
        "20",
        "--stores",
        "2",
        "--scale",
        "8",
        "--slo-read-p99-us",
        "0",
        "--bench-out",
        bench.to_str().unwrap(),
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect();
    let err = pastri_cli::run(&argv, &mut Vec::new()).unwrap_err();
    assert_eq!(err.code, 2, "{}", err.message);
    assert!(err.message.contains("read_p99_us"), "{}", err.message);
    assert!(bench.exists(), "the report is written even when gates fail");
}
