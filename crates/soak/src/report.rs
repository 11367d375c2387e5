//! End-of-run accounting: op/fault tallies, SLO gate evaluation against
//! what the run measured itself, and the `BENCH_soak.json` emitter.
//!
//! The JSON deliberately separates the **deterministic** sections
//! (`"tallies"` and the config echo — bit-identical for the same seed
//! and op budget, each on a single line so CI can diff them textually)
//! from the **timing-dependent** sections (`"slo"`, `"timing"`), which
//! vary run to run by nature.

use std::time::Duration;

use telemetry::{HistRec, Snapshot};

use crate::SoakConfig;

/// Everything the storm did and every fault it absorbed. All fields are
/// pure functions of `(seed, op budget)` — thread-count independent —
/// except `ops_skipped`, which only moves under a wall-clock budget.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tallies {
    /// Ops actually executed.
    pub ops_executed: u64,
    /// Ops skipped because the wall-clock budget expired.
    pub ops_skipped: u64,
    /// Read ops (each reads 1–4 blocks).
    pub reads: u64,
    /// Individual block reads attempted.
    pub block_reads: u64,
    /// Block reads that failed terminally (damage beyond parity; must
    /// end up quarantined or the final sweep charges data loss).
    pub read_failures: u64,
    /// Blocks served with values outside the error bound, or resumed /
    /// salvaged data that decoded wrong: silent corruption that leaked
    /// through every integrity layer. Always data loss.
    pub value_mismatches: u64,
    /// Container write ops.
    pub writes_container: u64,
    /// Stream write ops.
    pub writes_stream: u64,
    /// Stream writes that ran to completion.
    pub streams_completed: u64,
    /// Stream writes killed torn by the crash budget.
    pub torn_streams: u64,
    /// Streams killed before even the magic was durable (nothing
    /// committed, nothing to salvage).
    pub streams_unrecoverable: u64,
    /// Segments recovered by salvage across all stream writes.
    pub segments_salvaged: u64,
    /// Segments dropped by salvage (uncommitted by the crash model).
    pub segments_dropped: u64,
    /// Salvages that found a torn tail.
    pub torn_tails: u64,
    /// Durable side-store writers killed mid-write.
    pub crashes: u64,
    /// Successful resumes from the last commit (must equal `crashes` at the end).
    pub resumes: u64,
    /// Scrub ops run during the storm (the final sweep adds more).
    pub scrubs: u64,
    /// SDC events fired.
    pub bit_flip_events: u64,
    /// Individual bits flipped.
    pub bit_flips: u64,
    /// Blocks rebuilt from parity during reads.
    pub read_repaired: u64,
    /// Damaged containers spliced back byte-identical by scrubs.
    pub scrub_repaired: u64,
    /// Committed blocks lost beyond repair and quarantined (ledger size).
    pub quarantined: u64,
    /// Transient read errors absorbed by the retry policy.
    pub transient_retries: u64,
}

impl Tallies {
    /// Accumulates another store's tallies (fold in store-index order
    /// for determinism; addition is commutative anyway).
    pub(crate) fn add(&mut self, other: &Tallies) {
        self.ops_executed += other.ops_executed;
        self.ops_skipped += other.ops_skipped;
        self.reads += other.reads;
        self.block_reads += other.block_reads;
        self.read_failures += other.read_failures;
        self.value_mismatches += other.value_mismatches;
        self.writes_container += other.writes_container;
        self.writes_stream += other.writes_stream;
        self.streams_completed += other.streams_completed;
        self.torn_streams += other.torn_streams;
        self.streams_unrecoverable += other.streams_unrecoverable;
        self.segments_salvaged += other.segments_salvaged;
        self.segments_dropped += other.segments_dropped;
        self.torn_tails += other.torn_tails;
        self.crashes += other.crashes;
        self.resumes += other.resumes;
        self.scrubs += other.scrubs;
        self.bit_flip_events += other.bit_flip_events;
        self.bit_flips += other.bit_flips;
        self.read_repaired += other.read_repaired;
        self.scrub_repaired += other.scrub_repaired;
        self.quarantined += other.quarantined;
        self.transient_retries += other.transient_retries;
    }
}

/// One evaluated SLO gate.
#[derive(Debug, Clone, PartialEq)]
pub struct GateResult {
    /// Gate name (`read_p99_us`, `min_repair_success`, …).
    pub gate: &'static str,
    /// Configured threshold, rendered for the report.
    pub threshold: f64,
    /// Measured value, when the run produced one (`None` = vacuous).
    pub actual: Option<f64>,
    /// Did the gate hold?
    pub pass: bool,
}

/// The complete outcome of one soak run.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The seed the whole storm derived from.
    pub seed: u64,
    /// Deterministic op/fault accounting.
    pub tallies: Tallies,
    /// Every configured gate, evaluated.
    pub gates: Vec<GateResult>,
    /// Committed blocks neither served within the error bound nor
    /// present in the quarantine ledger. Must be zero.
    pub unaccounted_loss: u64,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Read p99 (µs) over the storm's block reads, when any block was
    /// read.
    pub read_p99_us: Option<u64>,
    /// High-water mark of decompressed values resident at once.
    pub resident_high_water: i64,
    /// Telemetry span records discarded at the buffer cap during the
    /// run (counters and histograms — everything the gates read — stay
    /// complete regardless).
    pub spans_dropped: u64,
}

impl SoakReport {
    /// Zero unaccounted loss *and* zero silent value corruption.
    #[must_use]
    pub fn zero_data_loss(&self) -> bool {
        self.unaccounted_loss == 0 && self.tallies.value_mismatches == 0
    }

    /// Every configured gate held.
    #[must_use]
    pub fn all_gates_pass(&self) -> bool {
        self.gates.iter().all(|g| g.pass)
    }

    /// The run's overall verdict: no data loss and no violated gate.
    #[must_use]
    pub(crate) fn passed(&self) -> bool {
        self.zero_data_loss() && self.all_gates_pass()
    }
}

/// The value at or below which a fraction `q` of observations fall,
/// resolved to the histogram's bucket upper bounds (clamped to the
/// observed max, which is exact). Returns `None` for an empty histogram.
#[must_use]
pub(crate) fn percentile_us(h: &HistRec, q: f64) -> Option<u64> {
    h.percentile_us(q)
}

/// What the gates read, measured by the run itself and merged in store
/// order — not taken from the process-wide telemetry recorder, which any
/// in-process `telemetry::reset` would empty mid-run.
#[derive(Debug, Default)]
pub(crate) struct Measured {
    /// Latency (µs) of every storm block read.
    pub(crate) read_us: Vec<u64>,
    /// Sum of the stores' resident-value high-waters: the most the
    /// concurrently running stores can hold at once.
    pub(crate) resident_high_water: i64,
}

/// Evaluates gates and assembles the report from the run's raw outcome,
/// its own measurements, and the telemetry snapshot (read only for the
/// span-drop count).
#[must_use]
pub(crate) fn build(
    cfg: &SoakConfig,
    tallies: Tallies,
    unaccounted_loss: u64,
    measured: &Measured,
    snap: &Snapshot,
    wall: Duration,
) -> SoakReport {
    let read_hist = HistRec::of_samples("soak.read_us", &measured.read_us);
    let read_p99_us = percentile_us(&read_hist, 0.99);
    let resident_high_water = measured.resident_high_water;

    let mut gates = Vec::new();
    if let Some(limit) = cfg.slo.read_p99_us {
        let actual = read_p99_us.map(|v| v as f64);
        gates.push(GateResult {
            gate: "read_p99_us",
            threshold: limit as f64,
            actual,
            // No reads at all is a vacuous pass; reads without samples
            // fail — the gate cannot vouch for what it did not see.
            pass: actual.map_or(tallies.block_reads == 0, |v| v <= limit as f64),
        });
    }
    if let Some(min) = cfg.slo.min_repair_success {
        let repaired = tallies.read_repaired + tallies.scrub_repaired;
        let denom = repaired + tallies.quarantined;
        let actual = (denom > 0).then(|| repaired as f64 / denom as f64);
        gates.push(GateResult {
            gate: "min_repair_success",
            threshold: min,
            actual,
            pass: actual.is_none_or(|v| v >= min),
        });
    }
    if let Some(max) = cfg.slo.max_quarantined {
        gates.push(GateResult {
            gate: "max_quarantined",
            threshold: max as f64,
            actual: Some(tallies.quarantined as f64),
            pass: tallies.quarantined <= max,
        });
    }
    if let Some(max) = cfg.slo.max_resident_values {
        gates.push(GateResult {
            gate: "max_resident_values",
            threshold: max as f64,
            actual: Some(resident_high_water as f64),
            pass: resident_high_water <= max,
        });
    }

    SoakReport {
        seed: cfg.seed,
        tallies,
        gates,
        unaccounted_loss,
        wall,
        read_p99_us,
        resident_high_water,
        spans_dropped: snap.spans_dropped,
    }
}

fn json_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v:e}")
    }
}

impl SoakReport {
    /// Renders the machine-readable report. The `"tallies"` and
    /// `"config"` lines are bit-identical across same-seed runs (with an
    /// op-count budget); `"slo"` and `"timing"` carry the measured,
    /// run-varying numbers.
    #[must_use]
    pub fn to_json(&self, cfg: &SoakConfig) -> String {
        let t = &self.tallies;
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"bench\": \"soak\",\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!(
            "  \"config\": {{\"stores\": {}, \"ops\": {}, \"scale\": {}, \"geometry\": [{}, {}], \"error_bound\": {}, \"mix\": [{}, {}, {}, {}, {}], \"faults\": {{\"bit_flip_every\": {}, \"flips_per_event\": {}, \"torn_stream_every\": {}, \"transient_rate\": {}, \"max_transient_errors\": {}}}}},\n",
            cfg.stores,
            cfg.ops,
            cfg.scale,
            cfg.geometry.num_subblocks,
            cfg.geometry.subblock_size,
            json_f64(cfg.error_bound),
            cfg.mix.read,
            cfg.mix.write_container,
            cfg.mix.write_stream,
            cfg.mix.crash_resume,
            cfg.mix.scrub,
            cfg.faults.bit_flip_every,
            cfg.faults.flips_per_event,
            cfg.faults.torn_stream_every,
            json_f64(cfg.faults.transient_rate),
            cfg.faults.max_transient_errors,
        ));
        s.push_str(&format!(
            "  \"tallies\": {{\"ops_executed\": {}, \"ops_skipped\": {}, \"reads\": {}, \"block_reads\": {}, \"read_failures\": {}, \"value_mismatches\": {}, \"writes_container\": {}, \"writes_stream\": {}, \"streams_completed\": {}, \"torn_streams\": {}, \"streams_unrecoverable\": {}, \"segments_salvaged\": {}, \"segments_dropped\": {}, \"torn_tails\": {}, \"crashes\": {}, \"resumes\": {}, \"scrubs\": {}, \"bit_flip_events\": {}, \"bit_flips\": {}, \"read_repaired\": {}, \"scrub_repaired\": {}, \"quarantined\": {}, \"transient_retries\": {}}},\n",
            t.ops_executed,
            t.ops_skipped,
            t.reads,
            t.block_reads,
            t.read_failures,
            t.value_mismatches,
            t.writes_container,
            t.writes_stream,
            t.streams_completed,
            t.torn_streams,
            t.streams_unrecoverable,
            t.segments_salvaged,
            t.segments_dropped,
            t.torn_tails,
            t.crashes,
            t.resumes,
            t.scrubs,
            t.bit_flip_events,
            t.bit_flips,
            t.read_repaired,
            t.scrub_repaired,
            t.quarantined,
            t.transient_retries,
        ));
        s.push_str("  \"slo\": [");
        for (i, g) in self.gates.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"gate\": \"{}\", \"threshold\": {}, \"actual\": {}, \"pass\": {}}}",
                g.gate,
                json_f64(g.threshold),
                g.actual.map_or_else(|| "null".to_string(), json_f64),
                g.pass,
            ));
        }
        s.push_str("],\n");
        s.push_str(&format!(
            "  \"data\": {{\"unaccounted_loss\": {}, \"value_mismatches\": {}, \"quarantined\": {}, \"zero_data_loss\": {}}},\n",
            self.unaccounted_loss,
            t.value_mismatches,
            t.quarantined,
            self.zero_data_loss(),
        ));
        s.push_str(&format!(
            "  \"timing\": {{\"wall_s\": {:.3}, \"read_p99_us\": {}, \"resident_high_water\": {}, \"spans_dropped\": {}}},\n",
            self.wall.as_secs_f64(),
            self.read_p99_us
                .map_or_else(|| "null".to_string(), |v| v.to_string()),
            self.resident_high_water,
            self.spans_dropped,
        ));
        s.push_str(&format!("  \"pass\": {}\n", self.passed()));
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_read_the_runs_own_samples_not_the_recorder() {
        let mut cfg = SoakConfig::storm(std::path::Path::new("/nonexistent"), 1);
        cfg.slo.read_p99_us = Some(10);
        cfg.slo.max_resident_values = Some(100);
        let tallies = Tallies {
            reads: 1,
            block_reads: 3,
            ..Tallies::default()
        };
        // An empty snapshot — as after a reset mid-run — plus local
        // samples over both limits: both gates fail.
        let over = Measured {
            read_us: vec![50, 60, 70],
            resident_high_water: 128,
        };
        let report = build(&cfg, tallies, 0, &over, &Snapshot::default(), Duration::ZERO);
        assert!(report.gates.iter().all(|g| !g.pass), "{:?}", report.gates);
        assert_eq!(report.read_p99_us, Some(70));
        // Reads made but no samples kept: the latency gate fails too.
        let blind = Measured::default();
        let report = build(&cfg, tallies, 0, &blind, &Snapshot::default(), Duration::ZERO);
        let read_gate = report.gates.iter().find(|g| g.gate == "read_p99_us").unwrap();
        assert!(!read_gate.pass && read_gate.actual.is_none(), "{read_gate:?}");
        // Within both limits: pass.
        let under = Measured {
            read_us: vec![1, 2, 3],
            resident_high_water: 32,
        };
        let report = build(&cfg, tallies, 0, &under, &Snapshot::default(), Duration::ZERO);
        assert!(report.all_gates_pass(), "{:?}", report.gates);
    }

    fn hist(buckets: Vec<u64>, max: u64) -> HistRec {
        HistRec {
            name: "t".into(),
            count: buckets.iter().sum(),
            sum: 0,
            min: 0,
            max,
            buckets,
        }
    }

    #[test]
    fn percentile_empty_is_none() {
        assert_eq!(percentile_us(&hist(vec![0; 32], 0), 0.99), None);
    }

    #[test]
    fn percentile_picks_bucket_upper_bound() {
        // 99 observations in bucket 0 ([0,1]µs), 1 in bucket 4 ([8,15]).
        let mut buckets = vec![0u64; 32];
        buckets[0] = 99;
        buckets[4] = 1;
        let h = hist(buckets, 12);
        // p50 lands in bucket 0 → upper bound 1.
        assert_eq!(percentile_us(&h, 0.5), Some(1));
        // p99 rank is 99 → still bucket 0.
        assert_eq!(percentile_us(&h, 0.99), Some(1));
        // p100 walks into bucket 4, clamped to the observed max.
        assert_eq!(percentile_us(&h, 1.0), Some(12));
    }

    #[test]
    fn tallies_fold_is_total() {
        // Every field must survive the fold — catches a field added to
        // the struct but forgotten in add().
        let mut probe = Tallies::default();
        let ones = Tallies {
            ops_executed: 1,
            ops_skipped: 1,
            reads: 1,
            block_reads: 1,
            read_failures: 1,
            value_mismatches: 1,
            writes_container: 1,
            writes_stream: 1,
            streams_completed: 1,
            torn_streams: 1,
            streams_unrecoverable: 1,
            segments_salvaged: 1,
            segments_dropped: 1,
            torn_tails: 1,
            crashes: 1,
            resumes: 1,
            scrubs: 1,
            bit_flip_events: 1,
            bit_flips: 1,
            read_repaired: 1,
            scrub_repaired: 1,
            quarantined: 1,
            transient_retries: 1,
        };
        probe.add(&ones);
        assert_eq!(probe, ones);
    }
}
