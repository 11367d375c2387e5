//! Shared fixtures for the repo-level integration tests: one seeded
//! store builder, the golden fixtures, a framer for version-1 streams
//! and the segment ranges of a stream, instead of every test crate
//! growing its own. Used by `soak_smoke.rs`, `server_differential.rs`,
//! `corruption_recovery.rs`, `scrub_repair.rs` and
//! `decoder_robustness.rs` (and open to the rest —
//! `eri_store_integration.rs`'s inline builders predate it).
#![allow(dead_code)] // each including test crate uses a subset

use std::path::{Path, PathBuf};

use eri_store::StoreWriter;
use pastri::stream::Frames;
use pastri::{BlockGeometry, Compressor, DecompressError};

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
        writer.append_blocks(b).expect("fixture append");
    }
    writer.finish().expect("fixture finish");
    blocks
}

/// The committed bytes of the golden fixture `name` under `tests/golden/`.
pub fn golden(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing golden fixture {name}: {e}"))
}

/// The 405 values every golden container and stream compresses: five
/// 9×9 blocks at EB 1e-10.
pub fn golden_original() -> Vec<f64> {
    golden("v1_original.f64")
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Appends `v` as an LEB128 varint, the integer encoding of container
/// headers and stream framing.
fn push_varint(bytes: &mut Vec<u8>, mut v: usize) {
    while v >= 0x80 {
        bytes.push(v as u8 | 0x80);
        v >>= 7;
    }
    bytes.push(v as u8);
}

/// `containers` framed the way the golden `*.pstrs` fixtures are: the
/// magic `PSTRS`, version 1, then each container behind its LEB128 byte
/// length, then a zero terminator. Nothing in the library writes
/// streams; tests build them with this.
pub fn frame_v1(containers: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = b"PSTRS\x01".to_vec();
    for container in containers {
        push_varint(&mut bytes, container.len());
        bytes.extend_from_slice(container);
    }
    bytes.push(0);
    bytes
}

/// `values` compressed by `compressor` in segments of
/// `blocks_per_segment` blocks (the last one short), framed as a
/// version-1 stream of v2 containers.
pub fn v1_stream(values: &[f64], compressor: Compressor, blocks_per_segment: usize) -> Vec<u8> {
    let segment = compressor.geometry().block_size() * blocks_per_segment;
    let containers: Vec<Vec<u8>> = values.chunks(segment).map(|s| compressor.compress(s)).collect();
    frame_v1(&containers)
}

/// Every segment of the stream `bytes` decoded in order, strictly: the
/// framing walked by `Frames`, each segment's container by
/// `pastri::decompress`, as `pastri decompress` reads a stream. The
/// first damage fails the read.
pub fn read_stream(bytes: &[u8]) -> Result<Vec<f64>, DecompressError> {
    let mut values = Vec::new();
    for segment in Frames::new(bytes)? {
        values.extend(pastri::decompress(&segment?.container)?);
    }
    Ok(values)
}

/// `[start, end)` of each segment's container payload in a `PSTRS`
/// stream, found by the stream module's walker.
pub fn stream_segment_ranges(bytes: &[u8]) -> Vec<(usize, usize)> {
    Frames::new(bytes)
        .unwrap()
        .map(|segment| {
            let segment = segment.unwrap();
            (segment.at as usize, segment.at as usize + segment.container.len())
        })
        .collect()
}

/// `(offset, len)` of block `i`'s container span, as the store's own
/// commit walk finds it — where fault injectors aim.
pub fn block_span(store: &[u8], i: usize) -> (u64, u64) {
    let (_, index) = eri_store::committed_index(store).expect("a readable store");
    (index.blocks[i].offset, index.blocks[i].len)
}

/// Bytes of the PTRF `Hello` frame a server sends first on every
/// connection: the fault proxy counts downstream offsets from its start.
pub const HELLO_FRAME_LEN: u64 = 44;

/// Bytes of the PTRF `ReadResponse` frame that serves `ids` from the
/// store at `path`: frame header (12), request id and count (12), a
/// status byte and a length (5) plus the stored container per id, and
/// the frame CRC (4). Fault-proxy tests aim their byte windows with it.
pub fn read_response_frame_len(path: &Path, ids: &[usize]) -> u64 {
    let bytes = std::fs::read(path).expect("a readable store");
    let (_, index) = eri_store::committed_index(&bytes[..]).expect("a finished store");
    12 + 12 + ids.iter().map(|&i| 5 + index.blocks[i].len).sum::<u64>() + 4
}

/// Shreds stored block `i`'s container and its stripe's parity record:
/// at least three damaged pieces against the two-shard budget, so block
/// `i` is unrecoverable by design while its stripe-mates' own bytes stay
/// intact.
pub fn shred_beyond_budget(store: &mut [u8], i: usize) {
    let (_, index) = eri_store::committed_index(&*store).expect("a readable store");
    let block = index.blocks[i];
    let stripe = index.stripes.iter().find(|s| i < s.first + s.members).expect("a striped block");
    let container = (block.offset + 8..block.offset + block.len).step_by(7);
    for p in container.chain((stripe.record..stripe.record + stripe.record_len).step_by(7)) {
        store[p as usize] ^= 0x55;
    }
}
