//! Shared fixtures for the repo-level integration tests: one seeded
//! store builder and the segment ranges of a stream, instead of every
//! test crate growing its own. Used by `soak_smoke.rs`,
//! `server_differential.rs` and `corruption_recovery.rs` (and open to
//! the rest — `eri_store_integration.rs`'s inline builders predate it).
#![allow(dead_code)] // each including test crate uses a subset

use std::path::{Path, PathBuf};

use eri_store::StoreWriter;
use pastri::stream::{Frame, Frames};
use pastri::BlockGeometry;

/// A fresh per-test scratch directory (removed if it already exists,
/// *not* created — builders and harnesses create what they need).
pub fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pastri-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The deterministic block pattern every fixture store is filled with:
/// smooth per-subblock envelopes at ERI-ish magnitudes, seeded so block
/// `seed + b` is reproducible anywhere.
pub fn patterned_block(geom: BlockGeometry, seed: usize) -> Vec<f64> {
    let mut block = Vec::with_capacity(geom.block_size());
    for sb in 0..geom.num_subblocks {
        let s = ((sb + seed) as f64 * 0.61).cos();
        for i in 0..geom.subblock_size {
            block.push(s * ((i as f64 + seed as f64) * 0.37).sin() * 1e-6);
        }
    }
    block
}

/// Builds a finished seeded store of `n` patterned blocks at `path`
/// (creating parent directories) and returns the original values, in
/// block order, for comparison against what readers serve.
pub fn build_store(
    path: &Path,
    geom: BlockGeometry,
    eb: f64,
    n: usize,
    seed: usize,
) -> Vec<Vec<f64>> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("fixture dir");
    }
    let mut writer = StoreWriter::create_durable(path, geom, eb, n.max(1)).expect("fixture store");
    let blocks: Vec<Vec<f64>> = (0..n).map(|b| patterned_block(geom, seed + b)).collect();
    for b in &blocks {
        writer.append_block(b).expect("fixture append");
    }
    writer.finish().expect("fixture finish");
    blocks
}

/// `[start, end)` of each segment's container payload in a `PSTRS`
/// stream, found by the stream module's walker.
pub fn stream_segment_ranges(bytes: &[u8]) -> Vec<(usize, usize)> {
    Frames::new(bytes)
        .unwrap()
        .filter_map(|frame| match frame.unwrap() {
            Frame::Segment { at, container } => Some((at as usize, at as usize + container.len())),
            Frame::Commit { .. } => None,
        })
        .collect()
}

/// `(offset, len)` of block `i`'s container span, as the store's own
/// commit walk finds it — where fault injectors aim.
pub fn block_span(store: &[u8], i: usize) -> (u64, u64) {
    let (_, index) = eri_store::committed_index(store).expect("a readable store");
    (index[i].0, index[i].1)
}
