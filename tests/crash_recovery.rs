//! The kill-point crash harness: replay a durable compression run,
//! killing it at *every byte* it writes (data file and checkpoint
//! journal share one crash budget, modeling a whole-process kill at one
//! instant), then recover from what the dead process left behind and
//! assert the durability invariants:
//!
//! 1. the journal never claims bytes the data file has not fsync'd
//!    (the write-ordering invariant);
//! 2. no checkpointed segment is ever lost — resume picks up exactly at
//!    the last valid journal record;
//! 3. a resumed run finishes **byte-identical** to one that was never
//!    interrupted, at any thread count;
//! 4. the finished artifact decodes within the error bound and the
//!    journal is gone (the "write completed" marker).
//!
//! Kill points are swept at byte granularity (torn writes) and at
//! write-call granularity (whole writes rejected); recovery is exercised
//! from every consistent crash state: all written bytes retained, only
//! fsync'd bytes retained, and the adversarial mix of a truncated data
//! file with a fully retained journal.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use durable::{journal_path, scan_journal, Checkpoint, SyncWrite};
use faults::{is_injected_crash, CrashBudget, FaultyWriter, WriteFaultConfig};
use pastri::durable_stream::{DurableFileWriter, DurableStreamWriter};
use pastri::stream::{StreamReader, StreamWriter};
use pastri::{BlockGeometry, Compressor};

const EB: f64 = 1e-9;
const BLOCK_VALUES: usize = 36; // BlockGeometry::new(4, 9)
const BLOCKS_PER_SEGMENT: usize = 1;
const CHECKPOINT_EVERY: usize = 2;

fn compressor() -> Compressor {
    Compressor::new(BlockGeometry::new(4, 9), EB)
}

fn patterned(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i % 53) as f64 * 0.23).sin() * 4e-6)
        .collect()
}

/// What an uninterrupted (non-durable) writer produces: the byte-exact
/// target every recovered run must hit.
fn reference_stream(data: &[f64]) -> Vec<u8> {
    let mut sink = Vec::new();
    let mut w = StreamWriter::new(&mut sink, compressor(), BLOCKS_PER_SEGMENT).unwrap();
    w.write_values(data).unwrap();
    w.finish().unwrap();
    sink
}

/// An in-memory "disk" that records every accepted byte plus the fsync
/// watermark, shared with the harness so it can autopsy the state after
/// the writer dies mid-run.
#[derive(Clone, Default)]
struct SharedDisk {
    bytes: Arc<Mutex<Vec<u8>>>,
    synced: Arc<AtomicUsize>,
}

impl SharedDisk {
    fn contents(&self) -> Vec<u8> {
        self.bytes.lock().unwrap().clone()
    }

    /// Bytes guaranteed on stable storage at the crash instant.
    fn synced_len(&self) -> usize {
        self.synced.load(Ordering::SeqCst)
    }
}

impl Write for SharedDisk {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl SyncWrite for SharedDisk {
    fn sync(&mut self) -> io::Result<()> {
        let len = self.bytes.lock().unwrap().len();
        self.synced.store(len, Ordering::SeqCst);
        Ok(())
    }
}

/// Everything the dead process left behind.
struct CrashState {
    data: Vec<u8>,
    data_synced: usize,
    journal: Vec<u8>,
    journal_synced: usize,
    /// The run completed before the budget ran out.
    survived: bool,
}

/// Runs a durable compression of `data` with a shared crash budget of
/// `budget_bytes` across both sinks; `torn` picks byte-granular vs
/// write-call-granular kill points.
fn run_with_kill(data: &[f64], budget_bytes: u64, torn: bool) -> CrashState {
    let disk = SharedDisk::default();
    let jdisk = SharedDisk::default();
    let budget = CrashBudget::new(budget_bytes);
    let cfg = || WriteFaultConfig {
        kill_after: Some(budget.clone()),
        torn_kill: torn,
        ..Default::default()
    };
    let aborts = Arc::new(AtomicUsize::new(0));
    let hook = |counter: &Arc<AtomicUsize>| {
        let counter = Arc::clone(counter);
        move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }
    };
    let mut w = DurableStreamWriter::new(
        FaultyWriter::new(disk.clone(), 11, cfg()).with_abort_hook(hook(&aborts)),
        FaultyWriter::new(jdisk.clone(), 12, cfg()).with_abort_hook(hook(&aborts)),
        compressor(),
        BLOCKS_PER_SEGMENT,
        CHECKPOINT_EVERY,
    )
    .unwrap();

    let mut survived = true;
    'run: {
        for chunk in data.chunks(53) {
            if let Err(e) = w.write_values(chunk) {
                assert!(is_injected_crash(&e), "only the injected kill may fail: {e}");
                survived = false;
                break 'run;
            }
        }
        if let Err(e) = w.finish() {
            assert!(is_injected_crash(&e), "only the injected kill may fail: {e}");
            survived = false;
        }
    }
    assert_eq!(
        aborts.load(Ordering::SeqCst),
        usize::from(!survived),
        "the abort hook fires exactly once, at the kill instant"
    );
    CrashState {
        data: disk.contents(),
        data_synced: disk.synced_len(),
        journal: jdisk.contents(),
        journal_synced: jdisk.synced_len(),
        survived,
    }
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pastri-crash-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Writes a crash state to real files, resumes through
/// [`DurableFileWriter`], re-feeds the source from the recovered
/// checkpoint, and asserts all recovery invariants.
fn recover_and_verify(
    artifact: &[u8],
    journal: &[u8],
    data: &[f64],
    expected: &[u8],
    dir: &Path,
    tag: &str,
) {
    let path = dir.join(format!("a-{tag}.pstrs"));
    std::fs::write(&path, artifact).unwrap();
    let jp = journal_path(&path);
    std::fs::write(&jp, journal).unwrap();

    let mut w =
        DurableFileWriter::resume(&path, compressor(), BLOCKS_PER_SEGMENT, CHECKPOINT_EVERY)
            .unwrap_or_else(|e| panic!("{tag}: resume failed: {e}"));
    // Invariant 2: resume lands exactly on the last valid journal record
    // — every checkpointed segment survives.
    let (claimed, _) = scan_journal(journal);
    assert_eq!(
        w.checkpoint(),
        claimed.unwrap_or_default(),
        "{tag}: resume must honor the journal's last valid record"
    );
    let skip = w.checkpoint().values as usize;
    w.write_values(&data[skip..]).unwrap();
    let cp = w.finish().unwrap();
    assert_eq!(cp.values, data.len() as u64, "{tag}");

    // Invariant 3: byte-identical to an uninterrupted run.
    let got = std::fs::read(&path).unwrap();
    assert_eq!(got, expected, "{tag}: recovered stream must be byte-identical");
    // Invariant 4: journal removed, artifact decodes within the bound.
    assert!(!jp.exists(), "{tag}: journal must be gone after finish");
    let values = StreamReader::new(got.as_slice())
        .unwrap()
        .read_to_vec()
        .unwrap();
    assert_eq!(values.len(), data.len(), "{tag}");
    for (a, b) in data.iter().zip(&values) {
        assert!((a - b).abs() <= EB, "{tag}: error bound violated");
    }
    let _ = std::fs::remove_file(&path);
}

/// Sweeps every kill point in `0..total` (stepping by `step`) and
/// recovers from each consistent crash state the kill can leave.
fn sweep_kill_points(data: &[f64], torn: bool, step: u64, dir: &Path) {
    let expected = reference_stream(data);
    // A run with an inexhaustible budget tells us the total byte volume
    // (data + journal) — the space of kill points.
    let full = run_with_kill(data, u64::MAX, torn);
    assert!(full.survived);
    assert_eq!(full.data, expected, "durable writer must match the plain one");
    let total = (full.data.len() + full.journal.len()) as u64;

    let mode = if torn { "torn" } else { "call" };
    let mut k = 0u64;
    while k < total {
        let state = run_with_kill(data, k, torn);
        assert!(!state.survived, "budget {k} of {total} must kill the run");

        // Invariant 1 (write ordering): even the *unsynced* journal tail
        // never claims data bytes that were not fsync'd first.
        let (cp, _) = scan_journal(&state.journal);
        let cp = cp.unwrap_or_default();
        assert!(
            cp.bytes <= state.data_synced as u64,
            "kill@{k} ({mode}): journal claims {} bytes but only {} were synced",
            cp.bytes,
            state.data_synced
        );

        // Recover from every consistent crash state: all written bytes
        // retained, only fsync'd bytes retained, and the adversarial mix
        // (data truncated to its sync watermark, journal fully retained).
        recover_and_verify(
            &state.data,
            &state.journal,
            data,
            &expected,
            dir,
            &format!("{mode}-{k}-full"),
        );
        recover_and_verify(
            &state.data[..state.data_synced],
            &state.journal[..state.journal_synced],
            data,
            &expected,
            dir,
            &format!("{mode}-{k}-synced"),
        );
        recover_and_verify(
            &state.data[..state.data_synced],
            &state.journal,
            data,
            &expected,
            dir,
            &format!("{mode}-{k}-mixed"),
        );
        k += step;
    }
}

/// The headline acceptance test: byte-granular (torn-write) kill points
/// over the full run, every single byte a crash site.
#[test]
fn every_torn_kill_point_recovers_byte_identical() {
    let data = patterned(BLOCK_VALUES * 7 + 11);
    sweep_kill_points(&data, true, 1, &tmpdir());
}

/// Write-call-granular kills: the killing write is rejected wholesale,
/// landing crash points on every write() boundary instead of every byte.
#[test]
fn every_call_boundary_kill_point_recovers_byte_identical() {
    let data = patterned(BLOCK_VALUES * 7 + 11);
    sweep_kill_points(&data, false, 1, &tmpdir());
}

/// A crash *during recovery* is just another crash: kill the first run,
/// kill the resumed run too, then recover for real. Nothing compounds.
#[test]
fn double_crash_still_recovers() {
    let data = patterned(BLOCK_VALUES * 6);
    let expected = reference_stream(&data);
    let dir = tmpdir();
    let full = run_with_kill(&data, u64::MAX, true);
    let total = (full.data.len() + full.journal.len()) as u64;

    for k1 in (40..total).step_by(97) {
        let first = run_with_kill(&data, k1, true);
        // Lay the first crash on disk and resume behind fresh faulty
        // sinks that will crash again.
        let path = dir.join(format!("double-{k1}.pstrs"));
        std::fs::write(&path, &first.data).unwrap();
        std::fs::write(journal_path(&path), &first.journal).unwrap();
        for k2 in [3u64, 61, 173] {
            // Re-seed the on-disk state for each second crash.
            std::fs::write(&path, &first.data).unwrap();
            std::fs::write(journal_path(&path), &first.journal).unwrap();
            {
                let mut w = DurableFileWriter::resume(
                    &path,
                    compressor(),
                    BLOCKS_PER_SEGMENT,
                    CHECKPOINT_EVERY,
                )
                .unwrap();
                let skip = w.checkpoint().values as usize;
                // The file writer is not fault-injected; emulate the
                // second kill by feeding only part of the remainder and
                // dropping the writer (uncommitted tail + live journal).
                let rest = &data[skip..];
                let cut = (k2 as usize).min(rest.len());
                w.write_values(&rest[..cut]).unwrap();
            }
            let artifact = std::fs::read(&path).unwrap();
            let journal = std::fs::read(journal_path(&path)).unwrap();
            recover_and_verify(
                &artifact,
                &journal,
                &data,
                &expected,
                &dir,
                &format!("double-{k1}-{k2}"),
            );
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(journal_path(&path));
    }
}

/// Resume must be byte-identical whether the recovering process runs the
/// compression crew on 1 thread or 4 (the CI crash-matrix pins both).
#[test]
fn recovery_is_byte_identical_across_thread_counts() {
    let data = patterned(BLOCK_VALUES * 9 + 5);
    let expected = reference_stream(&data);
    let dir = tmpdir();
    let full = run_with_kill(&data, u64::MAX, true);
    let total = (full.data.len() + full.journal.len()) as u64;

    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            for k in (50..total).step_by(131) {
                let state = run_with_kill(&data, k, true);
                recover_and_verify(
                    &state.data,
                    &state.journal,
                    &data,
                    &expected,
                    &dir,
                    &format!("threads{threads}-{k}"),
                );
            }
        });
    }
}

/// The same discipline holds for the ERI store: snapshot the artifact
/// and journal between appends (each a plausible crash instant), tear
/// the journal tail at every byte, and `open_for_append` must resume to
/// a final store byte-identical to an uninterrupted durable run.
#[test]
fn store_crash_states_resume_byte_identical() {
    use eri_store::{StoreReader, StoreWriter};

    let geometry = BlockGeometry::new(4, 9);
    let blocks = 10usize;
    let data = patterned(BLOCK_VALUES * blocks);
    let dir = tmpdir();

    // Reference: one uninterrupted durable run.
    let ref_path = dir.join("store-ref.eri");
    {
        let mut w = StoreWriter::create_durable(&ref_path, geometry, EB, 3).unwrap();
        w.append_blocks(&data).unwrap();
        w.finish().unwrap();
    }
    let expected = std::fs::read(&ref_path).unwrap();

    // Interrupted run: snapshot (artifact, journal) after every append.
    let live = dir.join("store-live.eri");
    let mut snapshots = Vec::new();
    {
        let mut w = StoreWriter::create_durable(&live, geometry, EB, 3).unwrap();
        for b in 0..blocks {
            w.append_block(&data[b * BLOCK_VALUES..(b + 1) * BLOCK_VALUES])
                .unwrap();
            snapshots.push((
                std::fs::read(&live).unwrap(),
                std::fs::read(journal_path(&live)).unwrap(),
            ));
        }
        // Abandon without finish: the "crash".
    }
    let _ = std::fs::remove_file(&live);
    let _ = std::fs::remove_file(journal_path(&live));

    for (snap_idx, (artifact, journal)) in snapshots.iter().enumerate() {
        // Tear the journal at every byte length, plus the intact journal.
        for jcut in 0..=journal.len() {
            let torn = &journal[..jcut];
            let (cp, _) = scan_journal(torn);
            let cp = cp.unwrap_or_default();
            assert!(
                cp.bytes <= artifact.len() as u64,
                "snapshot {snap_idx}: journal may not outrun the artifact"
            );
            let path = dir.join(format!("store-{snap_idx}-{jcut}.eri"));
            std::fs::write(&path, artifact).unwrap();
            std::fs::write(journal_path(&path), torn).unwrap();

            let (mut w, resumed) =
                StoreWriter::open_for_append(&path, geometry, EB, 3).unwrap();
            assert_eq!(resumed, cp, "snapshot {snap_idx} jcut {jcut}");
            let done = resumed.segments as usize;
            assert!(done <= blocks);
            w.append_blocks(&data[done * BLOCK_VALUES..]).unwrap();
            w.finish().unwrap();

            let got = std::fs::read(&path).unwrap();
            assert_eq!(
                got, expected,
                "snapshot {snap_idx} jcut {jcut}: resumed store must be byte-identical"
            );
            assert!(!journal_path(&path).exists());
            let r = StoreReader::open(&path).unwrap();
            assert_eq!(r.num_blocks(), blocks);
            assert!(r.scrub().unwrap().is_clean());
            let _ = std::fs::remove_file(&path);
        }
    }
    let _ = std::fs::remove_file(&ref_path);
}

/// Checkpoint monotonicity across a kill sweep: a bigger budget never
/// yields a smaller committed prefix — progress is monotone in the
/// bytes the process managed to write.
#[test]
fn committed_progress_is_monotone_in_the_kill_point() {
    let data = patterned(BLOCK_VALUES * 7 + 11);
    let full = run_with_kill(&data, u64::MAX, true);
    let total = (full.data.len() + full.journal.len()) as u64;
    let mut last = Checkpoint::default();
    for k in 0..=total {
        let state = run_with_kill(&data, k, true);
        let (cp, _) = scan_journal(&state.journal);
        let cp = cp.unwrap_or_default();
        assert!(
            cp.segments >= last.segments && cp.bytes >= last.bytes,
            "kill@{k}: committed prefix regressed"
        );
        last = cp;
    }
}
