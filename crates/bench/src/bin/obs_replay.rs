//! Observability-plane replay: proves the trace-id stream is a pure
//! function of the seed, measures what tracing and the event journal
//! cost when the recorder is on, and re-checks the "free when off"
//! budget with the journal call included. Emitted as `BENCH_obs.json`.
//!
//! Three measurements:
//!
//! 1. **Trace determinism**: fold thousands of [`telemetry::trace_ids`]
//!    contexts per seed into a signature, twice, and assert the folds
//!    are bit-identical — and that the stateful
//!    [`telemetry::new_trace`] stream replays the same ids after
//!    [`telemetry::set_trace_seed`]. The signatures land in the JSON so
//!    CI can diff them across reruns and thread counts.
//! 2. **Enabled-path costs**: span recording with a trace context
//!    installed vs untraced (the stamp is one thread-local read), and
//!    the journal's cost per event once the ring is saturated and
//!    drop-counting.
//! 3. **Disabled overhead**: time one instrumentation call with the
//!    recorder off (a counter and a journal call, ~one relaxed atomic
//!    load each), then bound the whole-pipeline overhead as
//!    `calls-per-block × ns-per-call / block-compress-ns`; it must stay
//!    under the 2 % budget — the "free when off" contract.
//!
//! `PASTRI_BENCH_SCALE` scales the dataset like the other benches.

use std::time::Instant;

use bench::{geometry_of, standard_dataset};
use pastri::Compressor;
use qchem::basis::BfConfig;

/// Instrumentation touch points per compressed block once the
/// observability plane exists: 12 span/counter calls on the compress
/// path (the `compress.block` span and the three stage spans, each
/// checking the enabled flag on open and close, plus slack for
/// counters), and slack for a journal call and the slow-request clock
/// check on serving paths.
const CALLS_PER_BLOCK: f64 = 14.0;

/// Ids folded per seed for the determinism signature.
const IDS_PER_SEED: u64 = 4096;

/// Order-sensitive fold of one seed's trace-id stream.
fn trace_signature(seed: u64) -> u64 {
    let mut sig = 0u64;
    for n in 0..IDS_PER_SEED {
        let ctx = telemetry::trace_ids(seed, n);
        sig = sig.rotate_left(7) ^ ctx.trace_id ^ ctx.span_id.rotate_left(32);
    }
    sig
}

fn main() {
    let seeds = [11u64, 42, 77];

    // ---- 1. Trace-id determinism. ----
    let mut signatures = Vec::new();
    for &seed in &seeds {
        let a = trace_signature(seed);
        let b = trace_signature(seed);
        assert_eq!(a, b, "trace_ids(seed={seed}) must be pure");
        // The stateful stream replays the pure function.
        telemetry::set_trace_seed(seed);
        for n in 0..64 {
            assert_eq!(
                telemetry::new_trace(),
                telemetry::trace_ids(seed, n),
                "new_trace() diverged from trace_ids at seed {seed}, n {n}"
            );
        }
        signatures.push(a);
        println!("seed {seed:>10}: trace signature {a:016x}");
    }
    assert_ne!(signatures[0], signatures[1], "distinct seeds must decorrelate");

    // ---- 2a. Traced vs untraced span recording (recorder on). ----
    const SPAN_REPS: u64 = 100_000;
    telemetry::reset();
    telemetry::set_enabled(true);
    let t = Instant::now();
    for _ in 0..SPAN_REPS {
        let _s = telemetry::span("obs.bench");
        std::hint::black_box(());
    }
    let untraced_ns = t.elapsed().as_nanos() as f64 / SPAN_REPS as f64;
    telemetry::reset();
    let guard = telemetry::push_trace(telemetry::trace_ids(1, 0));
    let t = Instant::now();
    for _ in 0..SPAN_REPS {
        let _s = telemetry::span("obs.bench");
        std::hint::black_box(());
    }
    let traced_ns = t.elapsed().as_nanos() as f64 / SPAN_REPS as f64;
    drop(guard);
    let tracing_overhead_pct =
        if untraced_ns > 0.0 { (traced_ns - untraced_ns) / untraced_ns * 100.0 } else { 0.0 };
    println!(
        "enabled span: {untraced_ns:.1} ns untraced, {traced_ns:.1} ns traced \
         ({tracing_overhead_pct:+.1}%)"
    );

    // ---- 2b. Journal cost with the ring saturated. ----
    const JOURNAL_REPS: u64 = 50_000;
    telemetry::reset();
    let t = Instant::now();
    for i in 0..JOURNAL_REPS {
        telemetry::journal("obs.bench", i, 0);
    }
    let journal_ns = t.elapsed().as_nanos() as f64 / JOURNAL_REPS as f64;
    let snap = telemetry::snapshot();
    let journal_drops: u64 = snap.events_dropped.iter().map(|c| c.value).sum();
    assert_eq!(
        snap.events.len() as u64 + journal_drops,
        JOURNAL_REPS,
        "journal ring + drop counters must account for every event"
    );
    telemetry::set_enabled(false);
    println!(
        "journal: {journal_ns:.1} ns/event saturated, {} retained, {journal_drops} dropped",
        snap.events.len()
    );

    // ---- 3. Disabled-overhead budget, journal included. ----
    let eb = 1e-10;
    let config = BfConfig::dd_dd();
    let ds = standard_dataset("benzene", config);
    let geom = geometry_of(config);
    let compressor = Compressor::new(geom, eb);
    let blocks = ds.values.len() / geom.block_size();
    let baseline = compressor.compress(&ds.values); // warm-up
    let t = Instant::now();
    let again = compressor.compress(&ds.values);
    let disabled_ns = t.elapsed().as_nanos() as f64;
    assert_eq!(again, baseline, "disabled recorder must not change output");
    let block_ns = disabled_ns / blocks.max(1) as f64;

    const REPS: u64 = 2_000_000;
    assert!(!telemetry::is_enabled());
    let t = Instant::now();
    for i in 0..REPS {
        telemetry::counter_add("bench.noop", 1);
        telemetry::journal("bench.noop", i, 0);
        std::hint::black_box(());
    }
    // Two disabled calls per rep; ns_per_call is the per-touch-point cost.
    let ns_per_call = t.elapsed().as_nanos() as f64 / (2 * REPS) as f64;
    let overhead_pct = CALLS_PER_BLOCK * ns_per_call / block_ns * 100.0;
    println!(
        "disabled recorder: {ns_per_call:.2} ns/call, {CALLS_PER_BLOCK} calls/block, \
         {block_ns:.0} ns/block -> {overhead_pct:.3}% overhead"
    );
    assert!(
        overhead_pct < 2.0,
        "disabled-recorder overhead {overhead_pct:.3}% exceeds the 2% budget"
    );

    let sig_json: Vec<String> = seeds
        .iter()
        .zip(&signatures)
        .map(|(s, sig)| format!("    {{ \"seed\": {s}, \"signature\": \"{sig:016x}\" }}"))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"obs_replay\",\n  \"ids_per_seed\": {IDS_PER_SEED},\n  \
         \"trace_signatures\": [\n{}\n  ],\n  \"span_untraced_ns\": {untraced_ns:.1},\n  \
         \"span_traced_ns\": {traced_ns:.1},\n  \
         \"tracing_overhead_pct\": {tracing_overhead_pct:.2},\n  \
         \"journal_ns_per_event\": {journal_ns:.1},\n  \
         \"journal_drops\": {journal_drops},\n  \
         \"disabled_ns_per_call\": {ns_per_call:.3},\n  \
         \"calls_per_block\": {CALLS_PER_BLOCK},\n  \
         \"block_compress_ns\": {block_ns:.0},\n  \
         \"disabled_overhead_pct\": {overhead_pct:.4},\n  \"overhead_budget_pct\": 2.0\n}}\n",
        sig_json.join(",\n"),
    );
    std::fs::write("BENCH_obs.json", &json).expect("writing BENCH_obs.json");
    println!("wrote BENCH_obs.json");
}
