//! Deterministic fault-storm soak harness with end-of-run SLO gates.
//!
//! PRs 1–5 built the individual resilience mechanisms — parity
//! repair-on-read, scrub + quarantine, durable resume-after-crash,
//! transient-retry backoff, telemetry. Each is unit-tested in isolation;
//! nothing exercised them *together*, at scale, under sustained mixed
//! traffic. This crate is that harness: a seeded workload generator that
//! runs a configurable mix of operations (store reads with
//! repair-on-read, crash-and-resume durable writes torn at a
//! [`FaultyWriter`] byte budget, scrubs) across many stores
//! concurrently on the real work-distributing pool, while a fault
//! schedule (seeded [`BitFlipper`] SDC events, transient read errors
//! driving the shared [`RetryPolicy`] backoff) fires throughout.
//!
//! At the end the harness proves **zero data loss** — every committed
//! block either decodes within the error bound against its regenerable
//! expected values, or is accounted for in the quarantine ledger — and
//! evaluates declarative **SLO gates** (read p99 latency, repair
//! success rate, resident-memory high-water). The gates read what the
//! run measured itself, per store; the same numbers
//! also go to telemetry for observers, but a reset of the process-wide
//! recorder mid-run cannot turn a failing gate into a pass.
//!
//! # Determinism
//!
//! The entire op plan is derived up front from the run seed via
//! splitmix64: op kind, target store, per-op sub-seeds, and the fault
//! schedule are all pure functions of `(seed, op index)`. Ops are
//! grouped by store and executed strictly sequentially *within* each
//! store while stores run concurrently, so no tally depends on thread
//! interleaving: for a fixed seed and op budget, the op/fault tallies in
//! `BENCH_soak.json` are bit-identical at any `RAYON_NUM_THREADS`.
//!
//! Like `bench` and the test suite — and unlike every production crate —
//! this crate depends on `faults` by design: injecting faults is its job.

use std::collections::BTreeSet;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use durable::retry::{splitmix64, RetryPolicy};
use durable::{atomic_write, fresh_quarantine_path};
use eri_store::{StoreReader, StoreWriter};
use faults::{
    is_injected_crash, BitFlipper, FaultConfig, FaultyReader, FaultyWriter, WriteFaultConfig,
};
use pastri::BlockGeometry;
use rayon::prelude::*;

pub mod report;
pub mod transport;

pub use report::{GateResult, SoakReport, Tallies};
pub use transport::{
    run_transport, OverloadTallies, TransportReport, TransportSloGates, TransportStormConfig,
    TransportTallies,
};

/// Block geometry of every store either storm writes.
pub(crate) const GEOMETRY: BlockGeometry = BlockGeometry { num_subblocks: 4, subblock_size: 8 };

/// Absolute error bound of every store either storm writes.
pub(crate) const ERROR_BOUND: f64 = 1e-9;

/// Relative weights of the operation kinds in the workload mix.
#[derive(Debug, Clone, Copy)]
pub struct OpMix {
    /// Store reads with repair-on-read (through transient-fault
    /// injection and the shared retry policy).
    pub read: u32,
    /// Durable side-store writes torn mid-byte, then resumed from the
    /// last in-band commit and verified complete.
    pub crash_resume: u32,
    /// Scrub passes: verify, splice repairs back, quarantine the rest.
    pub scrub: u32,
}

impl Default for OpMix {
    fn default() -> Self {
        Self {
            read: 6,
            crash_resume: 4,
            scrub: 2,
        }
    }
}

impl OpMix {
    fn total(&self) -> u32 {
        self.read + self.crash_resume + self.scrub
    }
}

/// The fault schedule. Defaults to a storm; zero a field to disable
/// that fault class.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Fire a seeded SDC event (bit flips inside one store's block
    /// region) after every Nth op. 0 disables.
    pub bit_flip_every: usize,
    /// Bits flipped per SDC event.
    pub flips_per_event: usize,
    /// Probability that any store read call fails with a transient error
    /// (absorbed by the retry policy).
    pub transient_rate: f64,
    /// Cap on injected transient errors per reader, so retry loops
    /// always terminate.
    pub max_transient_errors: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            bit_flip_every: 5,
            flips_per_event: 2,
            transient_rate: 0.05,
            max_transient_errors: 200,
        }
    }
}

/// Declarative end-of-run gates. `None` disables a gate; every set gate
/// must hold for the run to pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct SloGates {
    /// Read p99 latency (µs) over every storm block read must be at or
    /// below this. A run that read blocks but has no latency samples
    /// fails it.
    pub read_p99_us: Option<u64>,
    /// repaired / (repaired + unrepairable) must be at least this
    /// (vacuously passes when no block was ever damaged).
    pub min_repair_success: Option<f64>,
    /// Decompressed f64 values held at once — the sum of every store's
    /// own high-water, since stores run concurrently — must not exceed
    /// this.
    pub max_resident_values: Option<i64>,
}

/// Full configuration of one soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Master seed: the whole op plan and fault schedule derive from it.
    pub seed: u64,
    /// Working directory (created; store files live under it).
    pub dir: PathBuf,
    /// Number of concurrently-exercised stores.
    pub stores: usize,
    /// Total op budget across all stores.
    pub ops: usize,
    /// Dataset scale knob: blocks per store.
    pub scale: usize,
    /// Workload mix.
    pub mix: OpMix,
    /// Fault schedule.
    pub faults: FaultPlan,
    /// End-of-run gates.
    pub slo: SloGates,
}

impl SoakConfig {
    /// A small, fast default storm in `dir`: every fault class enabled,
    /// no SLO gates set.
    #[must_use]
    pub fn storm(dir: &Path, seed: u64) -> Self {
        Self {
            seed,
            dir: dir.to_path_buf(),
            stores: 4,
            ops: 120,
            scale: 12,
            mix: OpMix::default(),
            faults: FaultPlan::default(),
            slo: SloGates::default(),
        }
    }
}

/// Errors that abort a soak run outright (distinct from faults the run
/// absorbs and accounts for, which are the point).
#[derive(Debug)]
pub enum SoakError {
    Io(std::io::Error),
    /// Impossible configuration (zero stores, zero-weight mix, …).
    Config(&'static str),
}

impl std::fmt::Display for SoakError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SoakError::Io(e) => write!(f, "I/O error: {e}"),
            SoakError::Config(m) => write!(f, "bad soak config: {m}"),
        }
    }
}

impl std::error::Error for SoakError {}

impl From<std::io::Error> for SoakError {
    fn from(e: std::io::Error) -> Self {
        SoakError::Io(e)
    }
}

/// One planned operation: everything about it is fixed before execution.
#[derive(Debug, Clone, Copy)]
struct PlannedOp {
    kind: OpKind,
    /// Per-op sub-seed; every random draw inside the op mixes from it.
    seed: u64,
    /// Fire a bit-flip SDC event against this op's store first.
    bit_flip: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Read,
    CrashResume,
    Scrub,
}

/// Derives the full plan from the seed: a per-store list of ops, in
/// global op order. Pure function of the config.
fn plan(cfg: &SoakConfig) -> Vec<Vec<PlannedOp>> {
    let mut per_store: Vec<Vec<PlannedOp>> = vec![Vec::new(); cfg.stores];
    let total_weight = cfg.mix.total();
    for i in 0..cfg.ops {
        let op_seed = splitmix64(cfg.seed ^ splitmix64(i as u64 + 1));
        let store = (splitmix64(op_seed ^ 0x5704) % cfg.stores as u64) as usize;
        // Walk the cumulative weight ladder: the draw lands in the
        // first kind whose bucket covers it.
        let w = (splitmix64(op_seed ^ 0x0A11) % u64::from(total_weight)) as u32;
        let ladder = [
            (cfg.mix.read, OpKind::Read),
            (cfg.mix.crash_resume, OpKind::CrashResume),
            (cfg.mix.scrub, OpKind::Scrub),
        ];
        let mut cumulative = 0u32;
        let mut kind = OpKind::Scrub;
        for (weight, k) in ladder {
            cumulative += weight;
            if w < cumulative {
                kind = k;
                break;
            }
        }
        per_store[store].push(PlannedOp {
            kind,
            seed: op_seed,
            bit_flip: cfg.faults.bit_flip_every != 0 && (i + 1) % cfg.faults.bit_flip_every == 0,
        });
    }
    per_store
}

/// The expected values of block `b` of store `s` — a pure function, so
/// the verification sweep regenerates ground truth instead of holding
/// the whole dataset resident. Smooth (compresses like real ERI blocks)
/// and distinct per `(store, block)`.
fn expected_block(s: usize, b: usize) -> Vec<f64> {
    let mut block = Vec::with_capacity(GEOMETRY.block_size());
    let phase = (s as f64).mul_add(0.83, b as f64 * 0.61);
    for sb in 0..GEOMETRY.num_subblocks {
        let scale = ((sb as f64).mul_add(0.47, phase)).cos();
        for i in 0..GEOMETRY.subblock_size {
            block.push(scale * ((i as f64).mul_add(0.37, phase)).sin() * 1e-6);
        }
    }
    block
}

/// Scratch values for side artifacts (crash/resume side stores) — distinct family from the committed store blocks.
fn scratch_block(op_seed: u64, b: usize) -> Vec<f64> {
    expected_block((splitmix64(op_seed) % 1024) as usize + 1024, b)
}

fn store_path(dir: &Path, s: usize) -> PathBuf {
    dir.join(format!("store-{s:03}.eristore"))
}

/// Mutable per-store context threaded through that store's op sequence.
struct StoreCtx {
    id: usize,
    path: PathBuf,
    /// Committed blocks known lost beyond repair (quarantined): reads of
    /// these may legitimately fail.
    ledger: BTreeSet<usize>,
    tallies: Tallies,
    /// Latency (µs) of every storm block read, in op order.
    read_us: Vec<u64>,
    /// Most decompressed values this store's ops held at once.
    resident_high_water: i64,
}

impl StoreCtx {
    /// Notes `n` decompressed values held resident: the store's own
    /// high-water for the gate, the `soak.resident_values` gauge for
    /// observers. Pair with [`release`](Self::release).
    fn hold(&mut self, n: usize) {
        self.resident_high_water = self.resident_high_water.max(n as i64);
        telemetry::gauge_add("soak.resident_values", n as i64);
    }

    fn release(&self, n: usize) {
        telemetry::gauge_add("soak.resident_values", -(n as i64));
    }
}

/// Runs the configured soak: populate, storm, final verification sweep,
/// SLO evaluation. Resets and enables telemetry for the run's duration
/// (restoring the previous enablement on exit).
pub fn run(cfg: &SoakConfig) -> Result<SoakReport, SoakError> {
    if cfg.stores == 0 || cfg.scale == 0 {
        return Err(SoakError::Config("stores and scale must be at least 1"));
    }
    if cfg.mix.total() == 0 {
        return Err(SoakError::Config("op mix has zero total weight"));
    }
    if cfg.faults.bit_flip_every != 0 && cfg.faults.flips_per_event == 0 {
        return Err(SoakError::Config("bit_flip_every set but flips_per_event is 0"));
    }
    std::fs::create_dir_all(&cfg.dir)?;

    let was_enabled = telemetry::is_enabled();
    telemetry::reset();
    telemetry::set_enabled(true);
    let started = Instant::now();
    let result = run_inner(cfg, started);
    telemetry::set_enabled(was_enabled);
    result
}

fn run_inner(cfg: &SoakConfig, started: Instant) -> Result<SoakReport, SoakError> {
    // Populate: every store gets `scale` committed blocks through the
    // durable writer (committed in-band every `checkpoint_every` blocks).
    let checkpoint_every = (cfg.scale / 4).max(1);
    (0..cfg.stores)
        .into_par_iter()
        .map(|s| -> Result<(), SoakError> {
            let path = store_path(&cfg.dir, s);
            let mut w = StoreWriter::create_durable(&path, GEOMETRY, ERROR_BOUND, checkpoint_every)
                .map_err(store_io)?;
            for b in 0..cfg.scale {
                w.append_blocks(&expected_block(s, b))
                    .map_err(store_io)?;
            }
            w.finish().map_err(store_io)?;
            Ok(())
        })
        .collect::<Result<Vec<()>, SoakError>>()?;

    // The storm: per-store op sequences run concurrently, each strictly
    // sequential inside, so tallies are interleaving-independent.
    let per_store = plan(cfg);
    let outcomes: Vec<Result<StoreCtx, SoakError>> = per_store
        .into_par_iter()
        .enumerate()
        .map(|(s, ops)| {
            let mut ctx = StoreCtx {
                id: s,
                path: store_path(&cfg.dir, s),
                ledger: BTreeSet::new(),
                tallies: Tallies::default(),
                read_us: Vec::new(),
                resident_high_water: 0,
            };
            for op in ops {
                execute_op(cfg, &mut ctx, op)?;
                ctx.tallies.ops_executed += 1;
            }
            Ok(ctx)
        })
        .collect();

    let mut tallies = Tallies::default();
    let mut ctxs = Vec::with_capacity(cfg.stores);
    for outcome in outcomes {
        ctxs.push(outcome?);
    }

    // Final sweep: scrub everything (splicing repairs, quarantining the
    // unrepairable), then prove every committed block is served within
    // the error bound or accounted for in the ledger.
    let mut unaccounted_loss = 0u64;
    for ctx in &mut ctxs {
        scrub_store(ctx)?;
        let r = StoreReader::open(&ctx.path).map_err(store_io)?;
        for b in 0..cfg.scale {
            match r.read_block(b) {
                Ok(values) => {
                    if !within_bound(&values, &expected_block(ctx.id, b)) {
                        unaccounted_loss += 1;
                    }
                }
                Err(_) if ctx.ledger.contains(&b) => {} // accounted: quarantined
                Err(_) => unaccounted_loss += 1,
            }
        }
        let stats = r.read_stats();
        ctx.tallies.read_repaired += stats.blocks_repaired;
    }
    let mut measured = report::Measured::default();
    for ctx in &ctxs {
        tallies.add(&ctx.tallies);
        measured.read_us.extend_from_slice(&ctx.read_us);
        measured.resident_high_water += ctx.resident_high_water;
    }
    tallies.quarantined = ctxs.iter().map(|c| c.ledger.len() as u64).sum();

    for s in 0..cfg.stores {
        let _ = std::fs::remove_file(store_path(&cfg.dir, s));
    }

    let snap = telemetry::snapshot();
    let wall = started.elapsed();
    Ok(report::build(cfg, tallies, unaccounted_loss, &measured, &snap, wall))
}

/// Store errors cross the rayon boundary as plain I/O errors carrying
/// the display text; the soak aborts on any of them (a fault the run is
/// *supposed* to absorb never surfaces this way).
fn store_io(e: eri_store::StoreError) -> SoakError {
    match e {
        eri_store::StoreError::Io(io) => SoakError::Io(io),
        other => SoakError::Io(std::io::Error::new(ErrorKind::InvalidData, other.to_string())),
    }
}

fn within_bound(got: &[f64], expected: &[f64]) -> bool {
    got.len() == expected.len()
        && got
            .iter()
            .zip(expected)
            .all(|(g, e)| (g - e).abs() <= ERROR_BOUND + 1e-300)
}

fn execute_op(cfg: &SoakConfig, ctx: &mut StoreCtx, op: PlannedOp) -> Result<(), SoakError> {
    if op.bit_flip {
        inject_bit_flips(cfg, ctx, op.seed)?;
    }
    match op.kind {
        OpKind::Read => op_read(cfg, ctx, op.seed),
        OpKind::CrashResume => op_crash_resume(ctx, op.seed),
        OpKind::Scrub => {
            ctx.tallies.scrubs += 1;
            scrub_store(ctx)
        }
    }
}

/// A seeded SDC event: flips `flips_per_event` bits inside the store's
/// block region. The header and index are left alone — silent *data*
/// corruption is the modeled fault; metadata damage is a different
/// failure class (covered by the CLI corruption tests).
fn inject_bit_flips(cfg: &SoakConfig, ctx: &mut StoreCtx, op_seed: u64) -> Result<(), SoakError> {
    // The trailer, the store's last `TRAILER_LEN` bytes, opens with the
    // index offset.
    let bytes = std::fs::read(&ctx.path)?;
    let Some(trailer) = bytes.len().checked_sub(eri_store::TRAILER_LEN as usize) else {
        return Ok(());
    };
    let index_offset = u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap());
    if index_offset <= eri_store::HEADER_LEN {
        return Ok(()); // empty block region: nothing to corrupt
    }
    let flipper = BitFlipper::new(
        eri_store::HEADER_LEN,
        index_offset,
        cfg.faults.flips_per_event,
        splitmix64(op_seed ^ 0xB17F),
    );
    ctx.tallies.bit_flips += flipper.plan().len() as u64;
    flipper.apply_to_file(&ctx.path)?;
    ctx.tallies.bit_flip_events += 1;
    Ok(())
}

/// Store reads through transient-fault injection and the shared jittered
/// retry policy; damaged blocks repair on read where parity allows.
fn op_read(cfg: &SoakConfig, ctx: &mut StoreCtx, op_seed: u64) -> Result<(), SoakError> {
    ctx.tallies.reads += 1;
    let file = std::fs::File::open(&ctx.path)?;
    let faulty = FaultyReader::new(
        file,
        splitmix64(op_seed ^ 0x7EAD),
        FaultConfig {
            transient_rate: cfg.faults.transient_rate,
            max_transient_errors: cfg.faults.max_transient_errors,
            transient_kind: ErrorKind::Interrupted,
            short_reads: true,
            ..FaultConfig::default()
        },
    );
    let retry = RetryPolicy {
        max_retries: 8,
        initial_backoff: Duration::from_micros(20),
        max_backoff: Duration::from_micros(500),
        jitter_seed: Some(op_seed),
    };
    let r = StoreReader::from_source(faulty, retry).map_err(store_io)?;
    let k = 1 + (splitmix64(op_seed ^ 0x0B10) % 4) as usize;
    for j in 0..k {
        let b = (splitmix64(op_seed ^ (0x77 + j as u64)) % cfg.scale as u64) as usize;
        let t = Instant::now();
        let outcome = r.read_block(b);
        let us = t.elapsed().as_micros() as u64;
        ctx.read_us.push(us);
        telemetry::observe_us("soak.read_us", us);
        ctx.tallies.block_reads += 1;
        match outcome {
            Ok(values) => {
                ctx.hold(values.len());
                if !within_bound(&values, &expected_block(ctx.id, b)) {
                    // Served values outside the bound: silent corruption
                    // leaked through every integrity layer. Data loss.
                    ctx.tallies.value_mismatches += 1;
                }
                ctx.release(values.len());
            }
            // Damage beyond the parity budget: tolerated here, must be
            // quarantined by a scrub before the final sweep accepts it.
            Err(_) => ctx.tallies.read_failures += 1,
        }
    }
    let stats = r.read_stats();
    ctx.tallies.transient_retries += stats.transient_retries;
    ctx.tallies.read_repaired += stats.blocks_repaired;
    Ok(())
}

/// A durable side-store write torn mid-byte: the writer runs over a
/// [`FaultyWriter`] whose seeded byte budget ends before the finished
/// store does, the bytes that got out land in the side file, and
/// `open_for_append` resumes from the last verified in-band commit and
/// finishes the store. Every block must then read back within the
/// error bound — the full crash/recovery cycle in one op.
fn op_crash_resume(ctx: &mut StoreCtx, op_seed: u64) -> Result<(), SoakError> {
    let total = 4 + (splitmix64(op_seed ^ 0xCAFE) % 5) as usize;
    let mut blocks = Vec::with_capacity(total * GEOMETRY.block_size());
    for b in 0..total {
        blocks.extend(scratch_block(op_seed, b));
    }
    let write = |sink: &mut Vec<u8>, kill_after: Option<u64>| {
        let faulty = FaultyWriter::new(
            sink,
            splitmix64(op_seed ^ 0x707A),
            WriteFaultConfig {
                short_writes: true,
                kill_after,
                torn_kill: true,
            },
        );
        let mut w = StoreWriter::new(faulty, GEOMETRY, ERROR_BOUND, 2)?;
        w.append_blocks(&blocks)?;
        w.finish().map(drop)
    };
    // The uninterrupted store's length bounds the budget, so the kill
    // always lands before the end.
    let mut whole = Vec::new();
    write(&mut whole, None).map_err(store_io)?;
    let budget = splitmix64(op_seed ^ 0xDEAD) % whole.len() as u64;
    let mut torn = Vec::new();
    let t = Instant::now();
    match write(&mut torn, Some(budget)) {
        Err(eri_store::StoreError::Io(ref e)) if is_injected_crash(e) => ctx.tallies.crashes += 1,
        Err(e) => return Err(store_io(e)),
        Ok(()) => unreachable!("a budget short of the store always kills the writer"),
    }
    let side = ctx
        .path
        .with_extension(format!("side{:08x}.eristore", op_seed as u32));
    std::fs::write(&side, &torn)?;
    let (mut w, cp) =
        StoreWriter::open_for_append(&side, GEOMETRY, ERROR_BOUND, 2).map_err(store_io)?;
    let done = cp.values as usize;
    w.append_blocks(&blocks[done..]).map_err(store_io)?;
    w.finish().map_err(store_io)?;
    telemetry::observe_us("soak.write_us", t.elapsed().as_micros() as u64);
    ctx.tallies.resumes += 1;

    let r = StoreReader::open(&side).map_err(store_io)?;
    for b in 0..total {
        let values = r.read_block(b).map_err(store_io)?;
        if !within_bound(&values, &scratch_block(op_seed, b)) {
            ctx.tallies.value_mismatches += 1;
        }
    }
    let _ = std::fs::remove_file(&side);
    Ok(())
}

/// One scrub pass over the store: verify every block and parity record,
/// splice repairable blocks and recomputed records back to the writer's
/// exact bytes (atomic replacement), and quarantine what parity cannot
/// save — preserving the damaged original at a fresh (never clobbered)
/// quarantine path and recording the block in the ledger.
fn scrub_store(ctx: &mut StoreCtx) -> Result<(), SoakError> {
    let bytes = std::fs::read(&ctx.path)?;
    let report = StoreReader::from_source(&bytes[..], RetryPolicy::none())
        .and_then(|r| r.scrub())
        .map_err(store_io)?;
    let newly_lost: Vec<usize> = report
        .damaged
        .iter()
        .filter(|d| d.repaired.is_none() && !ctx.ledger.contains(&d.block))
        .map(|d| d.block)
        .collect();
    if !newly_lost.is_empty() {
        // Evidence first: preserve the damaged original before any
        // repair rewrites the file.
        let qpath = fresh_quarantine_path(&ctx.path);
        std::fs::write(&qpath, &bytes)?;
        telemetry::counter_add("soak.quarantines", 1);
        for b in newly_lost {
            ctx.ledger.insert(b);
        }
    }
    let repaired = report.repairable();
    if repaired + report.rebuildable_records() > 0 {
        let mut healed = bytes;
        report.heal(&mut healed).map_err(store_io)?;
        atomic_write(&ctx.path, &healed)?;
        ctx.tallies.scrub_repaired += repaired as u64;
        // Flips already applied on top of now-healed bytes are gone;
        // nothing else to do — the splice is certified byte-identical.
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Telemetry state is process-global; soak runs must not overlap.
    static SOAK_LOCK: Mutex<()> = Mutex::new(());

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("soak-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn clean_run_without_faults_loses_nothing() {
        let _g = SOAK_LOCK.lock().unwrap();
        let dir = tmpdir("clean");
        let mut cfg = SoakConfig::storm(&dir, 7);
        cfg.ops = 40;
        cfg.faults = FaultPlan {
            bit_flip_every: 0,
            flips_per_event: 0,
            transient_rate: 0.0,
            max_transient_errors: 0,
        };
        let report = run(&cfg).unwrap();
        assert_eq!(report.unaccounted_loss, 0);
        assert_eq!(report.tallies.value_mismatches, 0);
        assert_eq!(report.tallies.quarantined, 0);
        assert_eq!(report.tallies.bit_flip_events, 0);
        assert!(report.passed(), "no gates set, no loss: must pass");
        assert_eq!(report.tallies.ops_executed, 40);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn storm_tallies_are_seed_deterministic() {
        let _g = SOAK_LOCK.lock().unwrap();
        let dir = tmpdir("det");
        let cfg = SoakConfig::storm(&dir, 99);
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(a.tallies, b.tallies, "same seed must reproduce tallies");
        assert_eq!(a.unaccounted_loss, 0, "faults must all be accounted");
        assert_eq!(b.unaccounted_loss, 0);
        assert!(a.tallies.bit_flip_events > 0, "the storm must actually fire");
        assert!(a.tallies.crashes > 0 && a.tallies.resumes == a.tallies.crashes);
        // A different seed produces a different storm.
        let other = run(&SoakConfig::storm(&dir, 100)).unwrap();
        assert_ne!(a.tallies, other.tallies);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn impossible_gate_fails_the_run() {
        let _g = SOAK_LOCK.lock().unwrap();
        let dir = tmpdir("gate");
        let mut cfg = SoakConfig::storm(&dir, 11);
        cfg.ops = 30;
        cfg.slo.read_p99_us = Some(0); // below achievable by construction
        let report = run(&cfg).unwrap();
        assert_eq!(report.unaccounted_loss, 0);
        assert!(!report.passed(), "a 0µs p99 gate must fail");
        let failed: Vec<&GateResult> =
            report.gates.iter().filter(|g| !g.pass).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].gate, "read_p99_us");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_weight_mix_is_rejected() {
        let dir = tmpdir("badmix");
        let mut cfg = SoakConfig::storm(&dir, 1);
        cfg.mix = OpMix {
            read: 0,
            crash_resume: 0,
            scrub: 0,
        };
        assert!(matches!(run(&cfg), Err(SoakError::Config(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
