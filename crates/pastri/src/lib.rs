//! PaSTRI — Pattern Scaling for Two-electron Repulsion Integrals.
//!
//! An error-bounded lossy compressor for the block-structured datasets
//! produced by quantum-chemistry ERI codes, reproducing the algorithm of
//! *Gok et al., "PaSTRI: Error-Bounded Lossy Compression for Two-Electron
//! Integrals in Quantum Chemistry", IEEE CLUSTER 2018*.
//!
//! # Algorithm (paper Sec. IV)
//!
//! The input stream is split into blocks of `N1·N2·N3·N4` doubles (one per
//! shell quartet), each containing `num_SB = N1·N2` sub-blocks of
//! `SB_size = N3·N4` values. Physics makes the sub-blocks approximate
//! scalar multiples of one another, so each block is modelled as
//!
//! ```text
//! data[sb][i] = S[sb] · P[i] + dev[sb][i]          (Eq. 4)
//! ```
//!
//! where `P` is one sub-block chosen as the **scaled pattern** by a
//! [`ScalingMetric`] (ratio-of-extremums by default), and `S[sb] ∈ [-1, 1]`
//! is a per-sub-block scaling coefficient. The pattern is quantized with
//! bin `2·EB`, the scales with `S_b = P_b` bits (the paper's "practical
//! approach"), and the residual against the *reconstructed* prediction is
//! quantized with bin `2·EB` into error-correction codes (ECQ), making the
//! error bound hold unconditionally. ECQ streams are entropy-coded with a
//! fixed prefix tree ([`EncodingTree::Tree5`] by default) or a sparse
//! (index, value) representation, whichever is smaller.
//!
//! # Formats
//!
//! [`Compressor`] writes one layout: the version-2 container, a header
//! plus independent, CRC-framed blocks (paper Sec. IV-C), with no
//! erasure code. One block's framing in it — payload length, CRC32,
//! payload — is that block's *frame*: [`Compressor::compress_block`]
//! writes one and [`decompress_blocks`] decodes them at a geometry and
//! error bound the caller states. Durable storage and its parity live in the `eri-store`
//! crate, which holds each block as a frame, and the PTRF wire carries
//! frames too. The version-1
//! and version-3 containers and version-1 [`stream`]s are decode-only,
//! kept for the golden fixtures under `tests/golden/`: [`decompress`]
//! and [`inspect`] read containers strictly, and a stream is read by
//! walking its segments with [`stream::Frames`] and decoding each with
//! [`decompress`]. Any damage, including damage to a v3 parity section,
//! is an error. Nothing repairs or salvages them.
//!
//! # Statistics
//!
//! The block census, ECQ histograms and storage breakdown of the paper's
//! Fig. 6 and Sec. V-B come from [`container_bit_stats`], which walks a
//! container's bytes; the compressor itself keeps no accounting.
//!
//! # Quick start
//!
//! ```
//! use pastri::{BlockGeometry, Compressor};
//!
//! // (dd|dd) blocks: 36 sub-blocks of 36 points.
//! let geom = BlockGeometry::from_dims([6, 6, 6, 6]);
//! let compressor = Compressor::new(geom, 1e-10);
//!
//! // A patterned block: sub-blocks are scaled copies of each other.
//! let pattern: Vec<f64> = (0..36).map(|i| ((i as f64) * 0.7).sin() * 1e-6).collect();
//! let mut data = Vec::new();
//! for sb in 0..36 {
//!     let scale = 1.0 - sb as f64 / 40.0;
//!     data.extend(pattern.iter().map(|p| p * scale));
//! }
//!
//! let compressed = compressor.compress(&data);
//! let restored = compressor.decompress(&compressed).unwrap();
//! assert_eq!(restored.len(), data.len());
//! for (a, b) in data.iter().zip(&restored) {
//!     assert!((a - b).abs() <= 1e-10);
//! }
//! assert!(compressed.len() * 4 < data.len() * 8, "compresses > 4x");
//! ```

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

mod block;
mod container;
mod encoding;
mod error;
mod geometry;
mod inspect;
mod metrics;
mod quant;
mod simd;
mod stats;
pub mod stream;

pub use container::{
    check_frame, decompress, decompress_block, decompress_blocks, frame_len,
    max_frame_len, Compressor, CompressorOptions, EcqRepr, ScaleRule,
};
pub use encoding::EncodingTree;
pub use error::DecompressError;
pub use geometry::BlockGeometry;
pub use inspect::{container_bit_stats, inspect, ContainerInfo};
pub use metrics::{fit_pattern, PatternFit, ScalingMetric};
pub use quant::{ecq_bits, Quantizer, ScaleQuantizer};
pub use stats::{BlockTypeStats, CompressionStats, StorageBreakdown};
