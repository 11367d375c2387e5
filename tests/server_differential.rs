//! Server ↔ direct-read differential battery: every block served by
//! the cache server is byte-identical to a direct `StoreReader` read —
//! at 1 and 4 rayon threads, with and without seeded `BitFlipper` SDC.
//!
//! The dangerous case is repair-on-read through the cache: the first
//! server read of a damaged block must heal it from container parity
//! (counting `store.blocks_repaired` exactly like a direct read), and
//! the *cached* copy must be the healed block — never a stale
//! pre-repair value. Beyond the parity budget, the server must surface
//! a corruption error, not wrong data, while every undamaged block
//! keeps serving.

mod common;

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use eri_server::{ServerConfig, ServerError, ServerHandle};
use eri_store::{StoreError, StoreReader};
use faults::BitFlipper;
use pastri::BlockGeometry;

/// Telemetry is process-global; serialize the tests that assert on its
/// counters (same pattern as the soak smoke tests).
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

const EB: f64 = 1e-10;
const BLOCKS: usize = 24;

fn geom() -> BlockGeometry {
    BlockGeometry::new(4, 32)
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
}

/// All block ids in a seeded shuffled order with duplicates mixed in —
/// the server must reassemble whatever order the client asks in.
fn shuffled_ids(n: usize, seed: u64) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..n).chain(0..n / 2).collect();
    ids.sort_by_key(|&i| durable::retry::splitmix64(seed ^ (i as u64 + 1)));
    ids
}

/// Reads every id directly, accepting per-block failures.
fn direct_read(path: &Path, ids: &[usize]) -> Vec<Result<Vec<f64>, StoreError>> {
    let reader = StoreReader::open(path).unwrap();
    ids.iter().map(|&i| reader.read_block(i)).collect()
}

fn assert_bit_identical(server: &[f64], direct: &[f64], id: usize) {
    assert_eq!(server.len(), direct.len(), "block {id} length");
    for (k, (a, b)) in server.iter().zip(direct).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "block {id} value {k}: server {a} != direct {b}"
        );
    }
}

/// Flips one seeded bit in the middle of stored block `i`'s container
/// span — within the parity budget, so repair-on-read must heal it.
fn flip_one_bit(path: &Path, i: usize, seed: u64) {
    let bytes = std::fs::read(path).unwrap();
    let (off, len) = common::block_span(&bytes, i);
    let at = off + len / 2;
    BitFlipper::new(at, at + 4, 1, seed).apply_to_file(path).unwrap();
    assert_ne!(std::fs::read(path).unwrap(), bytes, "injection must land");
}

/// Shreds stored block `i` beyond its stripe's parity budget, so the
/// block is unrecoverable by design (the eri-store beyond-budget idiom).
fn shred_block(path: &Path, i: usize) {
    let mut bytes = std::fs::read(path).unwrap();
    common::shred_beyond_budget(&mut bytes, i);
    std::fs::write(path, bytes).unwrap();
}

fn fixture(dir: &Path, name: &str) -> PathBuf {
    let path = dir.join(name);
    common::build_store(&path, geom(), EB, BLOCKS, 7000);
    path
}

#[test]
fn clean_store_server_matches_direct_at_1_and_4_threads() {
    let dir = common::tmpdir("server-diff-clean");
    for threads in [1usize, 4] {
        let path = fixture(&dir, &format!("clean-{threads}.eristore"));
        let ids = shuffled_ids(BLOCKS, 0xD1FF ^ threads as u64);
        let direct: Vec<Vec<f64>> = direct_read(&path, &ids)
            .into_iter()
            .map(|r| r.expect("clean store reads"))
            .collect();

        pool(threads).install(|| {
            let srv = ServerHandle::open(&[&path], &ServerConfig::default()).unwrap();
            // Two passes: the first mostly misses, the second is all
            // cache hits — both must be bit-identical to direct reads.
            for _pass in 0..2 {
                for batch in ids.chunks(5) {
                    let got = srv.read_blocks(batch).unwrap();
                    for (pos, &id) in batch.iter().enumerate() {
                        let want = &direct[ids.iter().position(|&x| x == id).unwrap()];
                        assert_bit_identical(&got[pos], want, id);
                    }
                }
            }
            let stats = srv.cache_stats();
            assert!(stats.hits > 0, "second pass must hit the cache: {stats:?}");
        });
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sdc_heals_through_the_server_and_cache_serves_the_healed_block() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let dir = common::tmpdir("server-diff-sdc");
    let damaged_block = 11usize;

    for threads in [1usize, 4] {
        // Two identically damaged copies: one for the direct baseline,
        // one for the server (each read path heals its own copy
        // in-memory, so they must not share a reader).
        let direct_path = fixture(&dir, &format!("sdc-direct-{threads}.eristore"));
        let server_path = fixture(&dir, &format!("sdc-server-{threads}.eristore"));
        assert_eq!(
            std::fs::read(&direct_path).unwrap(),
            std::fs::read(&server_path).unwrap(),
            "fixtures must start byte-identical"
        );
        flip_one_bit(&direct_path, damaged_block, 0xC0FFEE);
        flip_one_bit(&server_path, damaged_block, 0xC0FFEE);

        let ids: Vec<usize> = (0..BLOCKS).collect();

        // Direct baseline, counting repairs through telemetry.
        telemetry::reset();
        telemetry::set_enabled(true);
        let direct: Vec<Vec<f64>> = direct_read(&direct_path, &ids)
            .into_iter()
            .map(|r| r.expect("one flip is within the parity budget"))
            .collect();
        let direct_repairs = telemetry::snapshot().counter("store.blocks_repaired");
        telemetry::set_enabled(false);
        assert_eq!(direct_repairs, 1, "the baseline heals exactly one block");

        pool(threads).install(|| {
            let srv = ServerHandle::open(&[&server_path], &ServerConfig::default()).unwrap();
            telemetry::reset();
            telemetry::set_enabled(true);
            let first = srv.read_blocks(&ids).unwrap();
            let server_repairs = telemetry::snapshot().counter("store.blocks_repaired");
            telemetry::set_enabled(false);

            // Repair-on-read through the server counts exactly like the
            // direct read — same telemetry counter, same ReadStats.
            assert_eq!(server_repairs, direct_repairs, "threads={threads}");
            assert_eq!(srv.read_stats().blocks_repaired, 1, "threads={threads}");

            for (id, got) in first.iter().enumerate() {
                assert_bit_identical(got, &direct[id], id);
            }

            // The second read is a cache hit and must serve the healed
            // block, not a stale pre-repair value.
            let again = srv.read_blocks(&[damaged_block]).unwrap().remove(0);
            assert_bit_identical(&again, &direct[damaged_block], damaged_block);
            let stats = srv.cache_stats();
            assert!(stats.hits >= 1, "{stats:?}");
            assert_eq!(
                srv.read_stats().blocks_repaired,
                1,
                "a cache hit must not re-repair (threads={threads})"
            );
        });
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Two batches read one shared store reader at once, and only one of
/// them touches a damaged block: the server must journal exactly one
/// `store.repair`, naming that block's *global* id. The repair flag
/// comes from the read itself, so the clean batch's concurrent reads
/// can neither claim the repair nor hide it.
#[test]
fn concurrent_batches_journal_one_repair_under_its_global_id() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let dir = common::tmpdir("server-diff-repair-journal");
    let first = fixture(&dir, "journal-a.eristore");
    let second = fixture(&dir, "journal-b.eristore");
    let damaged_local = 5usize;
    flip_one_bit(&second, damaged_local, 0x5EED);
    let damaged_global = BLOCKS + damaged_local;
    // Batch A reads both stores, damaged block included; batch B reads
    // only clean blocks of the damaged store.
    let batch_a: Vec<usize> = (0..BLOCKS).step_by(3).chain([damaged_global]).collect();
    let batch_b: Vec<usize> = (BLOCKS..2 * BLOCKS).filter(|&id| id != damaged_global).collect();

    for round in 0..8 {
        pool(4).install(|| {
            let srv = ServerHandle::open(&[&first, &second], &ServerConfig::default()).unwrap();
            telemetry::reset();
            telemetry::set_enabled(true);
            std::thread::scope(|scope| {
                for batch in [&batch_a, &batch_b] {
                    let srv = &srv;
                    scope.spawn(move || srv.read_blocks(batch).unwrap());
                }
            });
            let snap = telemetry::snapshot();
            telemetry::set_enabled(false);
            let repairs: Vec<_> = snap.events.iter().filter(|e| e.kind == "store.repair").collect();
            assert_eq!(repairs.len(), 1, "round {round}: {repairs:?}");
            assert_eq!(repairs[0].a, damaged_global as u64, "round {round}");
            assert_eq!(srv.read_stats().blocks_repaired, 1, "round {round}");
        });
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn beyond_parity_damage_is_an_error_not_wrong_data() {
    let dir = common::tmpdir("server-diff-shred");
    let shredded = 5usize;

    for threads in [1usize, 4] {
        let path = fixture(&dir, &format!("shred-{threads}.eristore"));
        shred_block(&path, shredded);

        // Direct baseline: the shredded block errors, the rest read.
        let ids: Vec<usize> = (0..BLOCKS).collect();
        let direct = direct_read(&path, &ids);
        assert!(direct[shredded].is_err(), "shred must overwhelm parity");

        pool(threads).install(|| {
            let srv = ServerHandle::open(&[&path], &ServerConfig::default()).unwrap();

            // A batch containing the shredded block fails as corruption,
            // tagged with the global block id.
            let err = srv.read_blocks(&[2, shredded, 9]).unwrap_err();
            match &err {
                ServerError::Store { block, .. } => assert_eq!(*block, shredded),
                other => panic!("expected a store error, got {other}"),
            }
            assert!(err.is_corruption(), "{err}");

            // A failed batch reports its first failing position: the
            // shredded block ahead of an out-of-range id.
            match srv.read_blocks(&[shredded, 99]).unwrap_err() {
                ServerError::Store { block, .. } => assert_eq!(block, shredded),
                other => panic!("expected the shredded block's store error, got {other}"),
            }

            // Every other block still serves, bit-identical to direct.
            for (id, want) in direct.iter().enumerate() {
                if id == shredded {
                    continue;
                }
                let got = srv.read_blocks(&[id]).unwrap().remove(0);
                assert_bit_identical(&got, want.as_ref().unwrap(), id);
            }
        });
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_callers_share_one_cache_at_1_and_4_threads() {
    const CALLERS: u64 = 4;
    const BATCHES: u64 = 40;
    const STORE_BLOCKS: usize = 48;
    let dir = common::tmpdir("server-diff-concurrent");
    for threads in [1usize, 4] {
        let path = dir.join(format!("concurrent-{threads}.eristore"));
        common::build_store(&path, geom(), EB, STORE_BLOCKS, 9000);
        let all: Vec<usize> = (0..STORE_BLOCKS).collect();
        let direct: Vec<Vec<f64>> = direct_read(&path, &all)
            .into_iter()
            .map(|r| r.expect("clean store reads"))
            .collect();
        // The cache holds about a quarter of the store's containers, so
        // the callers both hit and evict.
        let stored = StoreReader::open(&path).unwrap();
        let entries: usize =
            stored.index().blocks.iter().map(|b| eri_server::cache::entry_cost(b.len as usize)).sum();
        let cfg = ServerConfig { cache_bytes: entries / 4, ..ServerConfig::default() };

        pool(threads).install(|| {
            let srv = ServerHandle::open(&[&path], &cfg).unwrap();
            std::thread::scope(|scope| {
                for caller in 0..CALLERS {
                    let (srv, direct) = (&srv, &direct);
                    scope.spawn(move || {
                        for b in 0..BATCHES {
                            let key = (caller << 32) | b;
                            let r = durable::retry::splitmix64(key);
                            // Half the ids come from a hot set of 8
                            // blocks; the last id repeats the first.
                            let len = 1 + (r % 7) as usize;
                            let mut ids: Vec<usize> = (0..len as u64)
                                .map(|k| {
                                    let x = durable::retry::splitmix64(key ^ ((k + 1) << 40));
                                    if x & 1 == 0 {
                                        (x >> 1) as usize % 8
                                    } else {
                                        (x >> 1) as usize % STORE_BLOCKS
                                    }
                                })
                                .collect();
                            ids.push(ids[0]);
                            let got = srv.read_blocks(&ids).unwrap();
                            for (block, &id) in got.iter().zip(&ids) {
                                assert_bit_identical(block, &direct[id], id);
                            }
                        }
                    });
                }
            });
            let stats = srv.cache_stats();
            assert!(stats.hits > 0, "callers must share cached blocks: {stats:?}");
            assert!(stats.evictions > 0, "a quarter-size cache must evict: {stats:?}");
        });
    }
    std::fs::remove_dir_all(&dir).ok();
}
