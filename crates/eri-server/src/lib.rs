//! Cache server over `eri-store`: the serve-many-readers layer of the
//! PaSTRI reuse story.
//!
//! The paper's payoff is compress-once / decompress-many — two-electron
//! integrals are generated once, then re-read every SCF iteration. This
//! crate turns the single-process `StoreReader` into a concurrent,
//! read-mostly service:
//!
//! * **One reader per store** — each mounted store is one
//!   [`eri_store::StoreReader`] (one open file, one loaded index).
//!   Its reads are positional and take `&self`, so every thread reads
//!   through it at once with no lock and no seek state. Multiple stores
//!   mount side by side under one global block index space.
//! * **Compressed end to end** — the server never decodes. It serves
//!   each block's stored frame (payload length, payload CRC32 and
//!   payload, as [`pastri::Compressor::compress_block`] writes it), and the consumer
//!   decodes frames with [`pastri::decompress_blocks`] at the geometry
//!   and error bound stated once for the whole store: the paper's
//!   premise that compressed data is cheaper to keep and move than
//!   decoded data (Figs. 10–11).
//! * **Hot-block cache** — a byte-budgeted, sharded-lock LRU/admission
//!   cache ([`cache::BlockCache`]) holding those frames, so a
//!   popular quartet pays its store read once, not once per reuse.
//! * **Batched reads** — `ServerHandle::read_blocks_each` takes one
//!   request's block ids, serves hits from memory, fans the distinct
//!   misses out on the rayon pool, and reassembles results in request
//!   order.
//! * **Repair-on-read preserved** — misses go through
//!   [`eri_store::StoreReader::read_frame_noting_repair`], so an
//!   injected fault heals from stripe parity and counts
//!   `store.blocks_repaired` exactly like a direct read; only the
//!   *post-repair* frame is ever admitted to the cache (there is no
//!   pre-repair byte to leak: insertion happens strictly after the
//!   read returns the certified bytes).
//!
//! Telemetry contract (all under the global recorder, off by default):
//! counters `server.requests`, `server.blocks`, `server.store_reads`;
//! histograms `server.read_us` (per-block service time, hits included)
//! and `server.miss_us` (store fetch, CRC check and repair only); span
//! `server.batch`; journal event `store.repair` (block id, 1) for each
//! read that rebuilt its block from parity. The cache layer adds
//! `cache.hits` / `cache.misses` / `cache.evictions` /
//! `cache.admission_rejects` and the `cache.bytes` gauge. Decoding
//! shows as the consumer's `decompress.container` spans.
//!
//! Two front ends share this handle: the in-process batch API used by
//! `pastri serve` and the tests, and the PTRF wire transport behind
//! `pastri serve --listen` / `pastri fetch`. Both serve through
//! `ServerHandle::read_blocks_each`; [`ServerHandle::read_blocks`] is
//! its all-or-nothing collect, decoded in process, and the one
//! in-process read.

use std::fs::File;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use durable::ReadAt;
use eri_store::{ReadStats, RetryPolicy, StoreError, StoreReader};
use pastri::BlockGeometry;
use rayon::prelude::*;

pub mod admission;
pub mod breaker;
pub mod cache;
pub mod client;
pub mod protocol;
pub mod transport;

pub use admission::{AdmissionController, DrainOutcome, InjectedLoad, OverloadInject};
pub use breaker::{Breaker, BreakerConfig, BreakerState, Transition};
pub use cache::{BlockCache, CacheStats};
pub use client::{BlockError, BlockErrorKind, ClientConfig, ClientError, ClientStats, RemoteClient};
pub use transport::{Endpoint, StopHandle, TransportServer};

/// Byte source a store reader is built over, as produced by an
/// [`ServerHandle::open_with_sources`] factory. File-backed in
/// production; tests substitute `faults::FaultyReader` (transient-retry
/// parity) or a panicking source (panic recovery).
pub(crate) type BoxedSource = Box<dyn ReadAt + Send + Sync>;

/// Lock shards inside the hot-block cache.
const CACHE_SHARDS: usize = 8;

/// Recovers a cache or admission lock even if a previous holder
/// panicked, so one panic does not turn every later call into a
/// `PoisonError`.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Anything the server can fail with.
#[derive(Debug)]
pub enum ServerError {
    /// A store read failed; `block` is the *global* block id.
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
    /// Hot-block cache byte budget (compressed frame bytes +
    /// per-entry overhead).
    pub cache_bytes: usize,
    /// Transient-retry policy handed to every store reader.
    pub retry: RetryPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cache_bytes: 8 << 20,
            retry: RetryPolicy::default(),
        }
    }
}

/// One mounted store: its reader and where its blocks start in the
/// global index space.
struct Mount {
    /// First global block id this store serves.
    first_block: usize,
    reader: StoreReader<BoxedSource>,
}

/// An open server: mounted stores and hot-block cache. All read methods
/// take `&self` and are safe to call from many threads (tests drive it
/// from rayon workers).
pub struct ServerHandle {
    /// Never empty: mounting refuses an empty path list.
    mounts: Vec<Mount>,
    cache: BlockCache,
    num_blocks: usize,
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
    /// `source_for(path)` is called once per store and its reader serves
    /// every thread. Production uses plain `File`s; the differential
    /// tests wrap files in seeded `FaultyReader`s (retry attribution
    /// parity) or panic-once sources (panic recovery).
    pub fn open_with_sources(
        paths: &[impl AsRef<Path>],
        cfg: &ServerConfig,
        source_for: &mut dyn FnMut(&Path) -> std::io::Result<BoxedSource>,
    ) -> Result<Self, ServerError> {
        let mut mounts: Vec<Mount> = Vec::with_capacity(paths.len());
        let mut first_block = 0usize;
        for (si, path) in paths.iter().enumerate() {
            let path = path.as_ref();
            let store_err = |source| ServerError::Store { block: first_block, source };
            let source = source_for(path).map_err(|e| store_err(StoreError::Io(e)))?;
            let reader = StoreReader::from_source(source, cfg.retry).map_err(store_err)?;
            if let Some(first) = mounts.first() {
                if reader.geometry() != first.reader.geometry()
                    || reader.error_bound() != first.reader.error_bound()
                {
                    return Err(ServerError::Config(format!(
                        "store {} ({}) disagrees on geometry or error bound",
                        si,
                        path.display()
                    )));
                }
            }
            let nb = reader.num_blocks();
            mounts.push(Mount { first_block, reader });
            first_block += nb;
        }
        if mounts.is_empty() {
            return Err(ServerError::Config("no stores to mount".into()));
        }
        Ok(ServerHandle {
            mounts,
            cache: BlockCache::new(cfg.cache_bytes, CACHE_SHARDS),
            num_blocks: first_block,
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
        self.mounts[0].reader.geometry()
    }

    /// Shared error bound of the mounted stores.
    #[must_use]
    pub(crate) fn error_bound(&self) -> f64 {
        self.mounts[0].reader.error_bound()
    }

    /// Number of mounted stores.
    #[must_use]
    pub fn num_stores(&self) -> usize {
        self.mounts.len()
    }

    /// Hot-block cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Aggregated transient-retry / repair counters across every store
    /// reader — `blocks_repaired` here must match what the same reads
    /// would have cost a direct `StoreReader` (the differential tests
    /// hold the server to that).
    #[must_use]
    pub fn read_stats(&self) -> ReadStats {
        let mut total = ReadStats::default();
        for m in &self.mounts {
            let st = m.reader.read_stats();
            total.transient_retries += st.transient_retries;
            total.backoff_micros += st.backoff_micros;
            total.blocks_repaired += st.blocks_repaired;
            total.blocks_dropped += st.blocks_dropped;
        }
        total
    }

    /// Serves one batch: block `ids` (duplicates and any order allowed)
    /// → one frame per position, in request order. Hits come
    /// straight from the cache; the distinct missed ids are fetched in
    /// parallel on the rayon pool (in request order on a one-thread
    /// pool), each through the repair-on-read path, then admitted to
    /// the cache post-repair. Nothing is decoded here: each `Ok` holds
    /// the block's stored frame.
    ///
    /// One bad block never sinks the batch: a corrupt or out-of-range
    /// id yields a structured error at its own position while the rest
    /// is served normally. This is the transport serving path: a remote
    /// client asked for 64 blocks deserves 63 good blocks and one
    /// per-block error frame, not a connection reset.
    pub(crate) fn read_blocks_each(&self, ids: &[usize]) -> Vec<Result<Arc<[u8]>, ServerError>> {
        telemetry::counter_add("server.requests", 1);
        let _batch = telemetry::span("server.batch");
        let mut out: Vec<Option<Result<Arc<[u8]>, ServerError>>> =
            (0..ids.len()).map(|_| None).collect();
        // Every miss as (id, position).
        let mut misses: Vec<(usize, usize)> = Vec::new();
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
                None => misses.push((id, pos)),
            }
        }

        // One run of positions per distinct id, runs in first-request
        // order: each id is read once, and a one-thread pool reads in
        // request order.
        misses.sort_unstable();
        let mut runs: Vec<&[(usize, usize)]> = misses.chunk_by(|a, b| a.0 == b.0).collect();
        runs.sort_unstable_by_key(|run| run[0].1);
        let fetched: Vec<Result<Arc<[u8]>, ServerError>> =
            runs.par_iter().map(|run| self.read_miss(run[0].0)).collect();
        for (run, res) in runs.iter().zip(fetched) {
            match res {
                Ok(frame) => {
                    for &(_, pos) in *run {
                        out[pos] = Some(Ok(Arc::clone(&frame)));
                    }
                }
                // Errors carry non-clonable I/O sources, and a block that
                // just failed may heal on the retry path: re-read it for
                // every further position that asked.
                Err(e) => {
                    out[run[0].1] = Some(Err(e));
                    for &(id, pos) in &run[1..] {
                        out[pos] = Some(self.read_miss(id));
                    }
                }
            }
        }
        telemetry::counter_add("server.blocks", ids.len() as u64);
        out.into_iter().map(|b| b.expect("every position filled")).collect()
    }

    /// All-or-nothing batch: `ServerHandle::read_blocks_each`, its
    /// frames decoded in one [`pastri::decompress_blocks`] call, as a
    /// remote client decodes a response, and collected into one
    /// `Result`. A failed batch reports the error of its first failing
    /// position; the blocks that did read are still cached. One block is
    /// a batch of one.
    pub fn read_blocks(&self, ids: &[usize]) -> Result<Vec<Arc<Vec<f64>>>, ServerError> {
        let frames = self.read_blocks_each(ids);
        let read: Vec<&[u8]> = frames.iter().filter_map(|f| f.as_deref().ok()).collect();
        let mut decoded =
            pastri::decompress_blocks(&read, self.geometry(), self.error_bound()).into_iter();
        ids.iter()
            .zip(frames)
            .map(|(&id, f)| {
                f?;
                decoded
                    .next()
                    .expect("one result per read frame")
                    .map(Arc::new)
                    .map_err(|e| ServerError::Store { block: id, source: e.into() })
            })
            .collect()
    }

    /// One cache-miss store read: repair-on-read via
    /// `StoreReader::read_frame_noting_repair`, telemetry, and
    /// strictly post-repair cache admission (the reader only returns
    /// certified — checksum-verified, parity-rebuilt if needed — bytes,
    /// so nothing stale can be admitted).
    fn read_miss(&self, id: usize) -> Result<Arc<[u8]>, ServerError> {
        let t = Instant::now();
        // Mounts are in global order, so the owner is the last one
        // starting at or before `id`.
        let mount = &self.mounts[self.mounts.partition_point(|m| m.first_block <= id) - 1];
        let (frame, repaired) = mount
            .reader
            .read_frame_noting_repair(id - mount.first_block)
            .map_err(|e| ServerError::Store { block: id, source: e })?;
        if repaired {
            // Repair-on-read healed this block mid-serve: a journal
            // event ties the heal to the block id (and, when the read
            // came over the wire, to the originating trace). The flag
            // comes from this read alone, so concurrent batches on the
            // same reader never claim each other's repairs.
            telemetry::journal("store.repair", id as u64, 1);
        }
        let us = t.elapsed().as_micros() as u64;
        telemetry::observe_us("server.miss_us", us);
        telemetry::observe_us("server.read_us", us);
        telemetry::counter_add("server.store_reads", 1);
        let frame: Arc<[u8]> = frame.into();
        self.cache.insert(id as u64, Arc::clone(&frame));
        Ok(frame)
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
        let mut w = StoreWriter::create_durable(path, geom, 1e-10, n.max(1)).unwrap();
        for b in 0..n {
            w.append_blocks(&patterned_block(geom, seed + b)).unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn batched_reads_reassemble_in_request_order() {
        let geom = BlockGeometry::new(4, 16);
        let path = tmp("order.eristore");
        build(&path, geom, 10, 0);
        let srv = ServerHandle::open(&[&path], &ServerConfig::default()).unwrap();
        let direct = StoreReader::open(&path).unwrap();

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

        let da = StoreReader::open(&pa).unwrap();
        let db = StoreReader::open(&pb).unwrap();
        for id in 0..12 {
            let want = if id < 5 {
                da.read_block(id).unwrap()
            } else {
                db.read_block(id - 5).unwrap()
            };
            assert_eq!(*srv.read_blocks(&[id]).unwrap()[0], want, "global id {id}");
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
        let err = srv.read_blocks(&[3]).unwrap_err();
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
        let a = srv.read_blocks_each(&[2]).pop().unwrap().unwrap();
        let b = srv.read_blocks_each(&[2]).pop().unwrap().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second read must come from the cache");
        let s = srv.cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        let _ = std::fs::remove_file(&path);
    }
}
