//! Sharded cache server over `eri-store`: the serve-many-readers layer
//! of the PaSTRI reuse story.
//!
//! The paper's payoff is compress-once / decompress-many — two-electron
//! integrals are generated once, then re-read every SCF iteration. This
//! crate turns the single-process `StoreReader` into a concurrent,
//! read-mostly service:
//!
//! * **Shard router** — each store's shell-quartet block range is split
//!   into contiguous shards ([`eri_store::shard_ranges`]); every shard
//!   owns an independent file handle behind its own lock, so a batch
//!   fanned across shards reads genuinely in parallel. Multiple stores
//!   mount side by side under one global block index space.
//! * **Hot-block cache** — a byte-budgeted, sharded-lock LRU/admission
//!   cache ([`cache::BlockCache`]) holding *decompressed* blocks, so a
//!   popular quartet pays decompression once, not once per reuse.
//! * **Batched reads** — [`ServerHandle::read_blocks_each`] takes one
//!   request's block ids, serves hits from memory, fans the misses
//!   across shards on the rayon pool, and reassembles results in
//!   request order.
//! * **Repair-on-read preserved** — misses go through
//!   [`eri_store::StoreReader::read_block`], so an injected fault heals
//!   from container parity and counts `store.blocks_repaired` exactly
//!   like a direct read; only the *post-repair* block is ever admitted
//!   to the cache (there is no pre-repair value to leak: insertion
//!   happens strictly after `read_block` returns the certified block).
//!
//! Telemetry contract (all under the global recorder, off by default):
//! counters `server.requests`, `server.blocks`, `server.store_reads`;
//! histograms `server.read_us` (per-block service time, hits included)
//! and `server.miss_us` (store fetch + decompress path only); span
//! `server.batch`. The cache layer adds `cache.hits` / `cache.misses` /
//! `cache.evictions` / `cache.admission_rejects` and the `cache.bytes`
//! gauge.
//!
//! Two front ends share this handle: the in-process batch API used by
//! `pastri serve` and the tests, and the PTRF wire transport behind
//! `pastri serve --listen` / `pastri fetch`. Both serve through
//! [`ServerHandle::read_blocks_each`]; [`ServerHandle::read_blocks`] is
//! its all-or-nothing collect.

use std::fs::File;
use std::io::{Read, Seek};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use eri_store::{shard_ranges, ReadStats, RetryPolicy, StoreError, StoreReader};
use pastri::BlockGeometry;
use rayon::prelude::*;

pub mod admission;
pub mod breaker;
pub mod cache;
pub mod client;
pub mod protocol;
pub mod transport;

pub use admission::{AdmissionConfig, AdmissionController, DrainOutcome, InjectedLoad, OverloadInject};
pub use breaker::{Breaker, BreakerConfig, BreakerState, Transition};
pub use cache::{BlockCache, CacheStats};
pub use client::{BlockError, BlockErrorKind, ClientConfig, ClientError, ClientStats, RemoteClient};
pub use transport::{Endpoint, StopHandle, TransportServer};

/// Byte source a shard reader can be built over. File-backed in
/// production; tests substitute `faults::FaultyReader` (transient-retry
/// parity) or a panicking reader (poison recovery).
pub trait ShardSource: Read + Seek + Send {}
impl<T: Read + Seek + Send> ShardSource for T {}

/// Boxed shard source, as produced by an [`ServerHandle::open_with_sources`] factory.
pub type BoxedSource = Box<dyn ShardSource>;

/// Recovers a shard lock even if a previous holder panicked mid-read.
/// The guarded state is a read-only file handle plus retry/repair
/// counters — nothing is left half-written by an unwind — so serving
/// must continue rather than brick the shard (the old `.unwrap()` here
/// turned one injected panic into permanent `PoisonError`s).
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Anything the server can fail with.
#[derive(Debug)]
pub enum ServerError {
    /// A shard read failed; `block` is the *global* block id.
    Store { block: usize, source: StoreError },
    /// The mounted stores cannot form one coherent index space.
    Config(String),
    /// A requested global block id past the end of the mounted stores.
    OutOfRange { index: usize, blocks: usize },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Store { block, source } => {
                write!(f, "block {block}: {source}")
            }
            ServerError::Config(msg) => write!(f, "server config: {msg}"),
            ServerError::OutOfRange { index, blocks } => {
                write!(f, "block {index} out of range (store has {blocks})")
            }
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Store { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl ServerError {
    /// Does this error mean the *artifact* is bad (CLI exit 2), as
    /// opposed to an I/O / usage problem (exit 1)? Mirrors the
    /// `verify` command's classification of [`StoreError`].
    #[must_use]
    pub fn is_corruption(&self) -> bool {
        match self {
            ServerError::Store { source, .. } => !matches!(source, StoreError::Io(_)),
            ServerError::Config(_) | ServerError::OutOfRange { .. } => false,
        }
    }
}

/// Tunables for [`ServerHandle::open`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Contiguous shards each mounted store is split into (each shard =
    /// one independent file handle + lock).
    pub shards_per_store: usize,
    /// Hot-block cache byte budget (decompressed payload + overhead).
    pub cache_bytes: usize,
    /// Lock shards inside the cache.
    pub cache_shards: usize,
    /// Transient-retry policy handed to every shard reader.
    pub retry: RetryPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards_per_store: 4,
            cache_bytes: 8 << 20,
            cache_shards: 8,
            retry: RetryPolicy::default(),
        }
    }
}

/// One request slot's outcome: the position in the caller's id list
/// paired with the served block or its structured error.
type SlotResult = (usize, Result<Arc<Vec<f64>>, ServerError>);

/// One shard: a contiguous global block range served by its own reader.
struct Shard {
    /// First global block id this shard serves.
    global_start: usize,
    /// Number of blocks in the shard.
    len: usize,
    /// The shard's range start *within its own store*.
    local_start: usize,
    reader: Mutex<StoreReader<BoxedSource>>,
}

/// An open server: mounted stores, shard router, and hot-block cache.
/// All read methods take `&self` and are safe to call from many threads
/// (tests drive it from rayon workers).
pub struct ServerHandle {
    shards: Vec<Shard>,
    cache: BlockCache,
    geometry: BlockGeometry,
    error_bound: f64,
    num_blocks: usize,
    stores: usize,
}

impl ServerHandle {
    /// Mounts `paths` (in order) as one global block index space:
    /// store 0's blocks come first, then store 1's, and so on. Every
    /// store must share one block geometry and error bound — a server
    /// serves one dataset, not a grab bag.
    pub fn open(paths: &[impl AsRef<Path>], cfg: &ServerConfig) -> Result<Self, ServerError> {
        Self::open_with_sources(paths, cfg, &mut |path| {
            File::open(path).map(|f| Box::new(f) as BoxedSource)
        })
    }

    /// [`ServerHandle::open`] with an injectable byte-source factory:
    /// `source_for(path)` is called once per probe and once per shard,
    /// each call producing an independent seekable handle over that
    /// store's bytes. Production uses plain `File`s; the differential
    /// tests wrap files in seeded `FaultyReader`s (retry attribution
    /// parity) or panic-once readers (shard-lock poison recovery).
    pub fn open_with_sources(
        paths: &[impl AsRef<Path>],
        cfg: &ServerConfig,
        source_for: &mut dyn FnMut(&Path) -> std::io::Result<BoxedSource>,
    ) -> Result<Self, ServerError> {
        if paths.is_empty() {
            return Err(ServerError::Config("no stores to mount".into()));
        }
        let mut shards = Vec::new();
        let mut geometry: Option<BlockGeometry> = None;
        let mut error_bound = 0.0f64;
        let mut base = 0usize;
        for (si, path) in paths.iter().enumerate() {
            let path = path.as_ref();
            let open_source = |e: std::io::Error, block: usize| ServerError::Store {
                block,
                source: StoreError::Io(e),
            };
            let probe = StoreReader::from_source(
                source_for(path).map_err(|e| open_source(e, base))?,
                cfg.retry,
            )
            .map_err(|e| ServerError::Store { block: base, source: e })?;
            match geometry {
                None => {
                    geometry = Some(probe.geometry());
                    error_bound = probe.error_bound();
                }
                Some(g) => {
                    if probe.geometry() != g || probe.error_bound() != error_bound {
                        return Err(ServerError::Config(format!(
                            "store {} ({}) disagrees on geometry or error bound",
                            si,
                            path.display()
                        )));
                    }
                }
            }
            let nb = probe.num_blocks();
            for range in shard_ranges(nb, cfg.shards_per_store) {
                // Each shard gets a private file handle so shard reads
                // never serialize on one seek position.
                let source = source_for(path).map_err(|e| open_source(e, base + range.start))?;
                let reader = StoreReader::from_source(source, cfg.retry).map_err(|e| {
                    ServerError::Store { block: base + range.start, source: e }
                })?;
                shards.push(Shard {
                    global_start: base + range.start,
                    len: range.len(),
                    local_start: range.start,
                    reader: Mutex::new(reader),
                });
            }
            base += nb;
        }
        Ok(ServerHandle {
            shards,
            cache: BlockCache::new(cfg.cache_bytes, cfg.cache_shards),
            // Filled on the first iteration; `paths` was checked
            // non-empty above, so this can only be a logic error — but
            // mount paths return structured errors, never panic.
            geometry: geometry
                .ok_or_else(|| ServerError::Config("no store produced a geometry".into()))?,
            error_bound,
            num_blocks: base,
            stores: paths.len(),
        })
    }

    /// Total blocks across all mounted stores.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Shared block geometry of the mounted stores.
    #[must_use]
    pub fn geometry(&self) -> BlockGeometry {
        self.geometry
    }

    /// Shared error bound of the mounted stores.
    #[must_use]
    pub fn error_bound(&self) -> f64 {
        self.error_bound
    }

    /// Number of store shards behind the router.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of mounted stores.
    #[must_use]
    pub fn num_stores(&self) -> usize {
        self.stores
    }

    /// Hot-block cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Aggregated transient-retry / repair counters across every shard
    /// reader — `blocks_repaired` here must match what the same reads
    /// would have cost a direct `StoreReader` (the differential tests
    /// hold the server to that).
    #[must_use]
    pub fn read_stats(&self) -> ReadStats {
        let mut total = ReadStats::default();
        for s in &self.shards {
            let st = lock_recover(&s.reader).read_stats();
            total.transient_retries += st.transient_retries;
            total.backoff_micros += st.backoff_micros;
            total.blocks_repaired += st.blocks_repaired;
            total.blocks_dropped += st.blocks_dropped;
        }
        total
    }

    /// Shard index serving global block `id` (ids are contiguous per
    /// shard, in order, so this is a binary search).
    fn shard_of_block(&self, id: usize) -> usize {
        self.shards.partition_point(|s| s.global_start + s.len <= id)
    }

    /// Serves one batch: block `ids` (duplicates and any order allowed)
    /// → one `Result` per position, in request order. Hits come
    /// straight from the cache; misses are grouped per shard and
    /// fetched in parallel on the rayon pool, each through the
    /// repair-on-read path, then admitted to the cache post-repair.
    ///
    /// One bad block never sinks the batch: a corrupt or out-of-range
    /// id yields a structured error at its own position while the rest
    /// is served normally. This is the transport serving path: a remote
    /// client asked for 64 blocks deserves 63 good blocks and one
    /// per-block error frame, not a connection reset.
    pub fn read_blocks_each(&self, ids: &[usize]) -> Vec<Result<Arc<Vec<f64>>, ServerError>> {
        telemetry::counter_add("server.requests", 1);
        let _batch = telemetry::span("server.batch");
        let mut out: Vec<Option<Result<Arc<Vec<f64>>, ServerError>>> =
            (0..ids.len()).map(|_| None).collect();
        let mut by_shard: Vec<Vec<(usize, usize)>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (pos, &id) in ids.iter().enumerate() {
            if id >= self.num_blocks {
                out[pos] = Some(Err(ServerError::OutOfRange { index: id, blocks: self.num_blocks }));
                continue;
            }
            let t = Instant::now();
            match self.cache.get(id as u64) {
                Some(hit) => {
                    telemetry::observe_us("server.read_us", t.elapsed().as_micros() as u64);
                    out[pos] = Some(Ok(hit));
                }
                None => by_shard[self.shard_of_block(id)].push((pos, id)),
            }
        }

        let groups: Vec<(usize, Vec<(usize, usize)>)> = by_shard
            .into_iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .collect();
        let fetched: Vec<Vec<SlotResult>> = groups
            .into_par_iter()
            .map(|(sid, items)| self.fetch_from_shard(sid, &items))
            .collect();
        for group in fetched {
            for (pos, res) in group {
                out[pos] = Some(res);
            }
        }
        telemetry::counter_add("server.blocks", ids.len() as u64);
        out.into_iter().map(|b| b.expect("every position filled")).collect()
    }

    /// All-or-nothing batch: [`ServerHandle::read_blocks_each`]
    /// collected into one `Result`. A failed batch reports the error of
    /// its first failing position; the blocks that did read are still
    /// cached.
    pub fn read_blocks(&self, ids: &[usize]) -> Result<Vec<Arc<Vec<f64>>>, ServerError> {
        self.read_blocks_each(ids).into_iter().collect()
    }

    /// Convenience wrapper: one block.
    pub fn read_block(&self, id: usize) -> Result<Arc<Vec<f64>>, ServerError> {
        self.read_blocks_each(&[id]).pop().expect("one result")
    }

    /// One cache-miss store read under the shard lock: repair-on-read
    /// via `StoreReader::read_block`, telemetry, and strictly
    /// post-repair cache admission (`read_block` only returns certified
    /// — checksum-verified, parity-rebuilt if needed — values, so
    /// nothing stale can be admitted).
    fn read_miss(
        &self,
        shard: &Shard,
        reader: &mut StoreReader<BoxedSource>,
        id: usize,
    ) -> Result<Arc<Vec<f64>>, ServerError> {
        let t = Instant::now();
        let local = id - shard.global_start + shard.local_start;
        let repaired_before = reader.read_stats().blocks_repaired;
        let values = reader
            .read_block(local)
            .map_err(|e| ServerError::Store { block: id, source: e })?;
        let repaired = reader.read_stats().blocks_repaired - repaired_before;
        if repaired > 0 {
            // Repair-on-read healed this block mid-serve: a journal
            // event ties the heal to the block id (and, when the read
            // came over the wire, to the originating trace).
            telemetry::journal("store.repair", id as u64, repaired);
        }
        let us = t.elapsed().as_micros() as u64;
        telemetry::observe_us("server.miss_us", us);
        telemetry::observe_us("server.read_us", us);
        telemetry::counter_add("server.store_reads", 1);
        let block = Arc::new(values);
        self.cache.insert(id as u64, Arc::clone(&block));
        Ok(block)
    }

    /// Fetches a batch's misses that all route to shard `sid`. Runs on
    /// a rayon worker; holds the shard lock across the group so one
    /// seek pass serves it. Duplicate ids within the group are read
    /// once and fanned to every position. An error is recorded against
    /// its own position and the rest of the group is still served.
    /// Duplicates of a *failed* id are re-read rather than memoized —
    /// errors carry non-clonable I/O sources, and a block that just
    /// failed may well heal on the retry path anyway.
    fn fetch_from_shard(
        &self,
        sid: usize,
        items: &[(usize, usize)],
    ) -> Vec<SlotResult> {
        let shard = &self.shards[sid];
        let mut reader = lock_recover(&shard.reader);
        let mut got: Vec<SlotResult> = Vec::with_capacity(items.len());
        let mut this_batch: Vec<(usize, Arc<Vec<f64>>)> = Vec::new(); // id → block, tiny
        for &(pos, id) in items {
            if let Some((_, b)) = this_batch.iter().find(|(bid, _)| *bid == id) {
                got.push((pos, Ok(Arc::clone(b))));
                continue;
            }
            match self.read_miss(shard, &mut reader, id) {
                Ok(block) => {
                    this_batch.push((id, Arc::clone(&block)));
                    got.push((pos, Ok(block)));
                }
                Err(e) => got.push((pos, Err(e))),
            }
        }
        got
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eri_store::StoreWriter;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("eri-server-{}-{name}", std::process::id()))
    }

    fn patterned_block(geom: BlockGeometry, seed: usize) -> Vec<f64> {
        let mut block = Vec::with_capacity(geom.block_size());
        for sb in 0..geom.num_subblocks {
            let s = ((sb + seed) as f64 * 0.61).cos();
            for i in 0..geom.subblock_size {
                block.push(s * ((i as f64 + seed as f64) * 0.37).sin() * 1e-6);
            }
        }
        block
    }

    fn build(path: &Path, geom: BlockGeometry, n: usize, seed: usize) {
        let mut w = StoreWriter::create(path, geom, 1e-10).unwrap();
        for b in 0..n {
            w.append_block(&patterned_block(geom, seed + b)).unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn batched_reads_reassemble_in_request_order() {
        let geom = BlockGeometry::new(4, 16);
        let path = tmp("order.eristore");
        build(&path, geom, 10, 0);
        let srv = ServerHandle::open(&[&path], &ServerConfig::default()).unwrap();
        let mut direct = StoreReader::open(&path).unwrap();

        // Shuffled, with duplicates — positions must still line up.
        let ids = [7usize, 0, 7, 3, 9, 1, 1];
        let got = srv.read_blocks(&ids).unwrap();
        assert_eq!(got.len(), ids.len());
        for (pos, &id) in ids.iter().enumerate() {
            assert_eq!(*got[pos], direct.read_block(id).unwrap(), "position {pos}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn two_stores_mount_as_one_index_space() {
        let geom = BlockGeometry::new(4, 16);
        let (pa, pb) = (tmp("multi-a.eristore"), tmp("multi-b.eristore"));
        build(&pa, geom, 5, 100);
        build(&pb, geom, 7, 200);
        let srv = ServerHandle::open(&[&pa, &pb], &ServerConfig::default()).unwrap();
        assert_eq!(srv.num_blocks(), 12);
        assert_eq!(srv.num_stores(), 2);

        let mut da = StoreReader::open(&pa).unwrap();
        let mut db = StoreReader::open(&pb).unwrap();
        for id in 0..12 {
            let want = if id < 5 {
                da.read_block(id).unwrap()
            } else {
                db.read_block(id - 5).unwrap()
            };
            assert_eq!(*srv.read_block(id).unwrap(), want, "global id {id}");
        }
        let _ = std::fs::remove_file(&pa);
        let _ = std::fs::remove_file(&pb);
    }

    #[test]
    fn mismatched_stores_refuse_to_mount() {
        let (pa, pb) = (tmp("mis-a.eristore"), tmp("mis-b.eristore"));
        build(&pa, BlockGeometry::new(4, 16), 3, 0);
        build(&pb, BlockGeometry::new(2, 16), 3, 0);
        let err = match ServerHandle::open(&[&pa, &pb], &ServerConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("mismatched stores must not mount"),
        };
        assert!(matches!(err, ServerError::Config(_)), "{err}");
        assert!(!err.is_corruption());
        let _ = std::fs::remove_file(&pa);
        let _ = std::fs::remove_file(&pb);
    }

    #[test]
    fn out_of_range_is_not_corruption() {
        let geom = BlockGeometry::new(4, 16);
        let path = tmp("oor.eristore");
        build(&path, geom, 3, 0);
        let srv = ServerHandle::open(&[&path], &ServerConfig::default()).unwrap();
        let err = srv.read_block(3).unwrap_err();
        assert!(matches!(err, ServerError::OutOfRange { index: 3, blocks: 3 }), "{err}");
        assert!(!err.is_corruption());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn second_read_of_a_block_is_a_cache_hit() {
        let geom = BlockGeometry::new(4, 16);
        let path = tmp("hit.eristore");
        build(&path, geom, 4, 0);
        let srv = ServerHandle::open(&[&path], &ServerConfig::default()).unwrap();
        let a = srv.read_block(2).unwrap();
        let b = srv.read_block(2).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second read must come from the cache");
        let s = srv.cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        let _ = std::fs::remove_file(&path);
    }
}
