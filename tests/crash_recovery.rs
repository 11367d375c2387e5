//! The crash harnesses for the durable write path, the block store. A
//! store carries its own commit records, so the artifact is the only
//! file a crash can leave behind.
//!
//! **Kill points.** Replay a durable compression run, killing it at
//! *every byte* it writes (and, separately, at every write call), then
//! recover from what the dead process left and assert:
//!
//! 1. every commit that was fsync'd survives — recovery of the synced
//!    bytes alone lands exactly on the last synced commit;
//! 2. resume lands exactly on the last verified commit of what is on
//!    disk;
//! 3. a resumed run finishes **byte-identical** to one that was never
//!    interrupted, at any thread count;
//! 4. the finished artifact decodes within the error bound, and no
//!    sidecar file is ever created.
//!
//! **Power loss.** A process kill keeps every written byte; a power loss
//! may lose, tear or reorder any write no fsync covered, and drop a file
//! whose directory was never fsync'd. `power_loss_states_recover_byte_identical`
//! samples those states from a seeded model (`faults::PowerLossFile`):
//! readers never return wrong data from them, and recovery then finishes
//! byte-identical to the uninterrupted artifact. `PROPTEST_CASES` sets
//! the sample count.
//!
//! Every sink here syncs through its handle, as a file does: the
//! kill-point disk records its synced watermark from the writer's helper
//! thread, and so does the model's file. So both harnesses drive the
//! writer that production runs, and
//! `the_sync_helper_leaves_the_operation_order_unchanged` pins the order
//! the file sees: each commit record is followed at once by its sync.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use durable::{Checkpoint, SyncHandle, SyncWrite, COMMIT_MAGIC, RECORD_LEN};
use eri_store::{
    committed_index, RetryPolicy, StoreError, StoreReader, StoreWriter, TRAILER_LEN,
};
use faults::{is_injected_crash, FaultyWriter, Op, PowerLossFile, WriteFaultConfig};
use pastri::BlockGeometry;
use proptest::prelude::*;

const EB: f64 = 1e-9;
const BLOCK_VALUES: usize = 36; // BlockGeometry::new(4, 9)
const CHECKPOINT_EVERY: usize = 2;
/// Blocks the harness feeds per `append_blocks` call: odd, so calls and
/// commits do not line up.
const BLOCKS_PER_CALL: usize = 3;

fn geometry() -> BlockGeometry {
    BlockGeometry::new(4, 9)
}

fn patterned(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i % 53) as f64 * 0.23).sin() * 4e-6)
        .collect()
}

/// The last verified commit of the store bytes in `bytes`.
fn committed(bytes: &[u8]) -> Checkpoint {
    committed_index(&bytes).unwrap().0
}

/// What an uninterrupted in-memory writer produces: the byte-exact
/// target every recovered run must hit.
fn reference_store(data: &[f64]) -> Vec<u8> {
    let mut sink = Vec::new();
    let mut w = StoreWriter::new(&mut sink, geometry(), EB, CHECKPOINT_EVERY).unwrap();
    w.append_blocks(data).unwrap();
    w.finish().unwrap();
    sink
}

/// An in-memory "disk" that records every accepted byte plus the fsync
/// watermark, which its sync handle sets, shared with the harness so it
/// can autopsy the state after the writer dies mid-run.
#[derive(Clone, Default)]
struct SharedDisk {
    bytes: Arc<Mutex<Vec<u8>>>,
    synced: Arc<AtomicUsize>,
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
    fn sync_handle(&self) -> io::Result<SyncHandle> {
        let disk = self.clone();
        Ok(Box::new(move || {
            let len = disk.bytes.lock().unwrap().len();
            disk.synced.store(len, Ordering::SeqCst);
            Ok(())
        }))
    }
}

/// Everything the dead process left behind.
struct CrashState {
    data: Vec<u8>,
    /// Bytes guaranteed on stable storage at the crash instant.
    data_synced: usize,
    /// The run completed before the budget ran out.
    survived: bool,
}

/// Runs a durable compression of `data` with a crash budget of
/// `budget_bytes`; `torn` picks byte-granular vs write-call-granular
/// kill points.
fn run_with_kill(data: &[f64], budget_bytes: u64, torn: bool) -> CrashState {
    let disk = SharedDisk::default();
    let aborts = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&aborts);
    let sink = FaultyWriter::new(
        disk.clone(),
        11,
        WriteFaultConfig {
            kill_after: Some(budget_bytes),
            torn_kill: torn,
            ..Default::default()
        },
    )
    .with_abort_hook(move || {
        counter.fetch_add(1, Ordering::SeqCst);
    });
    // The header goes out in `new`, so even creating the writer may
    // meet the kill.
    let run = || -> Result<(), StoreError> {
        let mut w = StoreWriter::new(sink, geometry(), EB, CHECKPOINT_EVERY)?;
        for batch in data.chunks(BLOCK_VALUES * BLOCKS_PER_CALL) {
            w.append_blocks(batch)?;
        }
        w.finish().map(drop)
    };
    let survived = match run() {
        Ok(()) => true,
        Err(StoreError::Io(e)) if is_injected_crash(&e) => false,
        Err(e) => panic!("only the injected kill may fail: {e}"),
    };
    assert_eq!(
        aborts.load(Ordering::SeqCst),
        usize::from(!survived),
        "the abort hook fires exactly once, at the kill instant"
    );
    let data = disk.bytes.lock().unwrap().clone();
    CrashState {
        data,
        data_synced: disk.synced.load(Ordering::SeqCst),
        survived,
    }
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pastri-crash-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// The names next to `path` that extend it — where a sidecar would be.
fn sidecars(path: &Path) -> Vec<String> {
    let stem = path.file_name().unwrap().to_string_lossy().into_owned();
    std::fs::read_dir(path.parent().unwrap())
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(&stem) && n.len() > stem.len())
        .collect()
}

/// Lays `artifact` on disk (or no file at all), resumes through
/// [`StoreWriter::open_for_append`], re-feeds the source from the
/// recovered checkpoint, and asserts the recovery invariants.
fn recover_and_verify(
    artifact: Option<&[u8]>,
    data: &[f64],
    expected: &[u8],
    dir: &Path,
    tag: &str,
) {
    let path = dir.join(format!("a-{tag}.eristore"));
    let _ = std::fs::remove_file(&path);
    if let Some(bytes) = artifact {
        std::fs::write(&path, bytes).unwrap();
    }
    let (mut w, cp) = StoreWriter::open_for_append(&path, geometry(), EB, CHECKPOINT_EVERY)
        .unwrap_or_else(|e| panic!("{tag}: resume failed: {e}"));
    // Invariant 2: resume lands exactly on the last verified commit.
    let on_disk = artifact.map_or(Checkpoint::default(), committed);
    assert_eq!(cp, on_disk, "{tag}: resume must honor the last commit");
    for batch in data[cp.values as usize..].chunks(BLOCK_VALUES * BLOCKS_PER_CALL) {
        w.append_blocks(batch).unwrap();
    }
    assert_eq!(w.finish().unwrap() * BLOCK_VALUES, data.len(), "{tag}");

    // Invariant 3: byte-identical to an uninterrupted run.
    let got = std::fs::read(&path).unwrap();
    assert_eq!(got, expected, "{tag}: recovered store must be byte-identical");
    // Invariant 4: no sidecar, and the artifact decodes within the bound.
    assert!(sidecars(&path).is_empty(), "{tag}: {:?}", sidecars(&path));
    let values = StoreReader::from_source(got.as_slice(), RetryPolicy::none())
        .unwrap()
        .read_all()
        .unwrap();
    assert_eq!(values.len(), data.len(), "{tag}");
    for (a, b) in data.iter().zip(&values) {
        assert!((a - b).abs() <= EB, "{tag}: error bound violated");
    }
    let _ = std::fs::remove_file(&path);
}

/// Sweeps every kill point in `0..total` (stepping by `step`) and
/// recovers from each state the kill can leave.
fn sweep_kill_points(data: &[f64], torn: bool, step: u64, dir: &Path) {
    let expected = reference_store(data);
    // A run with an inexhaustible budget tells us the total byte volume
    // — the space of kill points.
    let full = run_with_kill(data, u64::MAX, torn);
    assert!(full.survived);
    assert_eq!(full.data, expected, "the faulty sink must be transparent");
    let total = full.data.len() as u64;

    let mode = if torn { "torn" } else { "call" };
    let mut k = 0u64;
    while k < total {
        let state = run_with_kill(data, k, torn);
        assert!(!state.survived, "budget {k} of {total} must kill the run");

        // Invariant 1: every synced commit survives — the synced bytes
        // alone recover to exactly themselves (each sync seals a commit).
        let synced = &state.data[..state.data_synced];
        let cp = committed(synced);
        assert_eq!(cp.bytes, state.data_synced as u64, "kill@{k} ({mode}): synced commit lost");
        assert!(committed(&state.data).bytes >= cp.bytes);

        // Recover from both states: all written bytes retained, and only
        // fsync'd bytes retained.
        recover_and_verify(Some(&state.data), data, &expected, dir, &format!("{mode}-{k}-full"));
        recover_and_verify(Some(synced), data, &expected, dir, &format!("{mode}-{k}-synced"));
        k += step;
    }
}

/// The headline acceptance test: byte-granular (torn-write) kill points
/// over the full run, every single byte a crash site.
#[test]
fn every_torn_kill_point_recovers_byte_identical() {
    let data = patterned(BLOCK_VALUES * 7);
    sweep_kill_points(&data, true, 1, &tmpdir());
}

/// Write-call-granular kills: the killing write is rejected wholesale,
/// landing crash points on every write() boundary instead of every byte.
#[test]
fn every_call_boundary_kill_point_recovers_byte_identical() {
    let data = patterned(BLOCK_VALUES * 7);
    sweep_kill_points(&data, false, 1, &tmpdir());
}

/// A crash *during recovery* is just another crash: kill the first run,
/// kill the resumed run too, then recover for real. Nothing compounds.
#[test]
fn double_crash_still_recovers() {
    let data = patterned(BLOCK_VALUES * 6);
    let expected = reference_store(&data);
    let dir = tmpdir();
    let total = run_with_kill(&data, u64::MAX, true).data.len() as u64;

    for k1 in (40..total).step_by(97) {
        let first = run_with_kill(&data, k1, true);
        let path = dir.join(format!("double-{k1}.eristore"));
        for k2 in [1usize, 2, 5] {
            // Re-seed the on-disk state for each second crash.
            std::fs::write(&path, &first.data).unwrap();
            {
                let (mut w, cp) =
                    StoreWriter::open_for_append(&path, geometry(), EB, CHECKPOINT_EVERY).unwrap();
                // The file writer is not fault-injected; emulate the
                // second kill by feeding only part of the remainder and
                // dropping the writer (uncommitted tail left behind).
                let rest = &data[cp.values as usize..];
                let cut = (k2 * BLOCK_VALUES).min(rest.len());
                w.append_blocks(&rest[..cut]).unwrap();
            }
            let artifact = std::fs::read(&path).unwrap();
            recover_and_verify(
                Some(&artifact),
                &data,
                &expected,
                &dir,
                &format!("double-{k1}-{k2}"),
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Resume must be byte-identical whether the recovering process runs the
/// compression crew on 1 thread or 4 (the CI crash-matrix pins both).
#[test]
fn recovery_is_byte_identical_across_thread_counts() {
    let data = patterned(BLOCK_VALUES * 9);
    let expected = reference_store(&data);
    let dir = tmpdir();
    let total = run_with_kill(&data, u64::MAX, true).data.len() as u64;

    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            for k in (50..total).step_by(131) {
                let state = run_with_kill(&data, k, true);
                recover_and_verify(
                    Some(&state.data),
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
/// after every append (each a plausible crash instant), tear each
/// append's bytes at every length, and `open_for_append` must resume to
/// a final store byte-identical to an uninterrupted durable run.
#[test]
fn store_crash_states_resume_byte_identical() {
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

    // Interrupted run: snapshot the artifact after every append.
    let live = dir.join("store-live.eri");
    let mut snapshots = vec![Vec::new()];
    {
        let mut w = StoreWriter::create_durable(&live, geometry, EB, 3).unwrap();
        for b in 0..blocks {
            w.append_blocks(&data[b * BLOCK_VALUES..(b + 1) * BLOCK_VALUES])
                .unwrap();
            snapshots.push(std::fs::read(&live).unwrap());
        }
        // Abandon without finish: the "crash".
    }
    let _ = std::fs::remove_file(&live);

    for pair in snapshots.windows(2) {
        let (before, artifact) = (&pair[0], &pair[1]);
        // Tear the latest append at every byte length.
        for cut in before.len()..=artifact.len() {
            let torn = &artifact[..cut];
            let (cp, _) = committed_index(&torn).unwrap();
            let path = dir.join(format!("store-{cut}.eri"));
            std::fs::write(&path, torn).unwrap();

            let (mut w, resumed) = StoreWriter::open_for_append(&path, geometry, EB, 3).unwrap();
            assert_eq!(resumed, cp, "cut {cut}");
            let done = resumed.segments as usize;
            assert!(done <= blocks);
            w.append_blocks(&data[done * BLOCK_VALUES..]).unwrap();
            w.finish().unwrap();

            let got = std::fs::read(&path).unwrap();
            assert_eq!(got, expected, "cut {cut}: resumed store must be byte-identical");
            assert!(sidecars(&path).is_empty());
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
    let data = patterned(BLOCK_VALUES * 7);
    let total = run_with_kill(&data, u64::MAX, true).data.len() as u64;
    let mut last = Checkpoint::default();
    for k in 0..=total {
        let state = run_with_kill(&data, k, true);
        let cp = committed(&state.data);
        assert!(
            cp.segments >= last.segments && cp.bytes >= last.bytes,
            "kill@{k}: committed prefix regressed"
        );
        last = cp;
    }
}

/// One uninterrupted write recorded through the power-loss sink, and the
/// bytes it produced.
struct Recorded {
    file: PowerLossFile,
    expected: Vec<u8>,
}

/// The store run the power-loss property samples, recorded once. It
/// starts the way `create_durable` does on a real file: the new file is
/// made, then its directory fsync'd.
fn recorded() -> &'static (Recorded, Vec<f64>) {
    static RUN: OnceLock<(Recorded, Vec<f64>)> = OnceLock::new();
    RUN.get_or_init(|| {
        let data = patterned(BLOCK_VALUES * 7);
        let store = PowerLossFile::new();
        store.sync_dir();
        let mut w = StoreWriter::new(store.clone(), geometry(), EB, 3).unwrap();
        for block in data.chunks(BLOCK_VALUES) {
            w.append_blocks(block).unwrap();
        }
        w.finish().unwrap();
        (Recorded { expected: store.contents(), file: store }, data)
    })
}

/// A power-loss `state` of the store run: a reader that opens it serves
/// the uninterrupted store's blocks, and `open_for_append` finishes it
/// byte-identical.
fn store_survives(state: Option<&[u8]>, run: &Recorded, data: &[f64], tag: &str) {
    let want = StoreReader::from_source(run.expected.as_slice(), RetryPolicy::none()).unwrap();
    if let Some(Ok(r)) = state.map(|b| StoreReader::from_source(b, RetryPolicy::none())) {
        for i in 0..r.num_blocks() {
            assert_eq!(r.read_block(i).ok(), want.read_block(i).ok(), "{tag}: block {i}");
        }
    }
    let path = tmpdir().join(format!("power-{tag}.eri"));
    let _ = std::fs::remove_file(&path);
    if let Some(bytes) = state {
        std::fs::write(&path, bytes).unwrap();
    }
    let (mut w, cp) = StoreWriter::open_for_append(&path, geometry(), EB, 3)
        .unwrap_or_else(|e| panic!("{tag}: recovery failed: {e}"));
    w.append_blocks(&data[cp.values as usize..]).unwrap();
    w.finish().unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), run.expected, "{tag}: store must be byte-identical");
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Power loss at any point of a store write, under the seeded
    /// model: never wrong data, always a byte-identical finish.
    #[test]
    fn power_loss_states_recover_byte_identical(point in any::<u64>(), seed in any::<u64>()) {
        let (run, data) = recorded();
        let at = (point % (run.file.operations() as u64 + 1)) as usize;
        let state = run.file.crash_state(at, seed);
        store_survives(state.as_deref(), run, data, &format!("store-{at}-{seed:x}"));
    }
}

/// States `(operations, seed)` of the store run kept as regressions. The
/// pair once failed on the stream writer's run: 29 operations in, its
/// walker misread torn bytes as a commit record without its magic and
/// refused the file instead of trimming the torn tail. The store walker
/// weighs such records by the same rule (`CommitScan::unmarked`), so
/// the state is replayed against the store run, with its neighbours.
const REGRESSIONS: &[(usize, u64)] = &[
    (28, 0x2fc8_45e9_abc7_15cc),
    (29, 0x2fc8_45e9_abc7_15cc),
    (30, 0x2fc8_45e9_abc7_15cc),
];

/// Every state the power-loss property once failed on still recovers.
#[test]
fn power_loss_regressions() {
    let (run, data) = recorded();
    for &(at, seed) in REGRESSIONS {
        let state = run.file.crash_state(at.min(run.file.operations()), seed);
        store_survives(state.as_deref(), run, data, &format!("store-{at}-{seed:x}"));
    }
}

/// Writes a store of `data` committed every `every` blocks to `sink`,
/// `per_call` blocks per `append_blocks`.
fn write_store<W: SyncWrite>(sink: W, data: &[f64], every: usize, per_call: usize) {
    let mut w = StoreWriter::new(sink, geometry(), EB, every).unwrap();
    for batch in data.chunks(BLOCK_VALUES * per_call) {
        w.append_blocks(batch).unwrap();
    }
    w.finish().unwrap();
}

/// Syncing each commit on the helper thread keeps the order the file
/// sees, at every cadence, call size and thread count: each commit
/// record is followed at once by its sync, and the only other sync is
/// `finish`'s final one, right after the trailer.
#[test]
fn the_sync_helper_leaves_the_operation_order_unchanged() {
    let blocks = 70;
    let data = patterned(BLOCK_VALUES * blocks);
    let record = |op: &Op| {
        matches!(op, Op::Write(b) if b.len() == RECORD_LEN && b.starts_with(&COMMIT_MAGIC))
    };
    let trailer = |op: &Op| matches!(op, Op::Write(b) if b.len() == TRAILER_LEN as usize);
    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            for every in [1usize, 3, 64] {
                let mut in_memory = Vec::new();
                write_store(&mut in_memory, &data, every, every);
                for per_call in [BLOCKS_PER_CALL, every] {
                    let file = PowerLossFile::new();
                    write_store(file.clone(), &data, every, per_call);
                    let tag = format!("threads {threads}, every {every}, {per_call} per call");
                    let ops = file.history();
                    for (i, pair) in ops.windows(2).enumerate() {
                        let synced = pair[1] == Op::Sync;
                        if record(&pair[0]) {
                            assert!(synced, "{tag}: op {i}, a commit record, is not synced next");
                        } else if synced {
                            let last = i + 2 == ops.len();
                            assert!(last && trailer(&pair[0]), "{tag}: op {i} is synced");
                        }
                    }
                    assert_eq!(ops.last(), Some(&Op::Sync), "{tag}: finish syncs last");
                    let commits = ops.iter().filter(|op| record(op)).count();
                    assert_eq!(commits, blocks.div_ceil(every), "{tag}");
                    assert_eq!(file.contents(), in_memory, "{tag}");
                }
            }
        });
    }
}
