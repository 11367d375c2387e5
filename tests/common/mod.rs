//! Shared fixtures for the repo-level integration tests: one seeded
//! store builder and one stream-framing walker instead of every test
//! crate growing its own. Used by `soak_smoke.rs`,
//! `server_differential.rs`, `salvage_truncation.rs` and
//! `corruption_recovery.rs` (and open to the rest —
//! `eri_store_integration.rs`'s inline builders predate it).
#![allow(dead_code)] // each including test crate uses a subset

use std::path::{Path, PathBuf};

use eri_store::{StoreWriter, HEADER_LEN_V2, INDEX_ENTRY_V2};
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
/// stream, found by re-walking the framing: a 6-byte header ("PSTRS" +
/// version), then per segment a LEB128 length and that many bytes, and
/// a zero length at the end.
pub fn stream_segment_ranges(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut pos = 6;
    loop {
        let (mut len, mut shift) = (0usize, 0);
        loop {
            let b = bytes[pos];
            pos += 1;
            len |= usize::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        if len == 0 {
            return ranges;
        }
        ranges.push((pos, pos + len));
        pos += len;
    }
}

/// `(offset, len)` of block `i`'s container span, parsed from the v2
/// on-disk index — where fault injectors aim.
pub fn block_span(store: &[u8], i: usize) -> (u64, u64) {
    assert_eq!(&store[..8], b"ERISTOR2", "block_span reads v2 stores");
    let index_offset = u64::from_le_bytes(store[40..48].try_into().unwrap()) as usize;
    let entry = index_offset + i * INDEX_ENTRY_V2 as usize;
    let offset = u64::from_le_bytes(store[entry..entry + 8].try_into().unwrap());
    let len = u64::from_le_bytes(store[entry + 8..entry + 16].try_into().unwrap());
    assert!(offset >= HEADER_LEN_V2 && offset + len <= store.len() as u64);
    (offset, len)
}
