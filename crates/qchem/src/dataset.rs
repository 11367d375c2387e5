//! ERI dataset generation — the stand-in for GAMESS integral files.
//!
//! A dataset is the concatenation of shell-quartet blocks of one BF
//! configuration, each block a `N1·N2·N3·N4` 4-D tensor flattened with the
//! bra indices slowest (Fig. 2(b) of the paper). Two generators:
//!
//! * [`EriDataset::generate`] — **analytic**: enumerates shell quartets of
//!   the configuration over a real molecule and evaluates every block with
//!   the McMurchie–Davidson engine. Ground truth; used for correctness and
//!   compression-ratio experiments.
//! * [`EriDataset::generate_model`] — **far-field model**: draws blocks
//!   directly from the paper's Eq. (3) factorization
//!   `(pq|uv) ≈ (G_pq ⊗ G_uv) · D(r⁻¹)` plus a calibrated deviation term.
//!   Used where the paper used multi-GB files (throughput and parallel-I/O
//!   experiments) — it produces the same block statistics at arbitrary
//!   volume without hours of integral evaluation. The calibration is
//!   validated against the analytic generator in `tests/`.

use rand::rngs::StdRng;

use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use std::collections::HashMap;
use std::sync::Arc;

use crate::basis::{shells_for, BfConfig, Shell, DEFAULT_EXPONENTS};
use crate::md::{eri_block_from_pairs, ShellPair};
use crate::molecule::Molecule;

/// Specification for an analytic dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    pub molecule: Molecule,
    pub config: BfConfig,
    /// Number of shell-quartet blocks to generate (quartets are sampled
    /// deterministically from the full enumeration when it is larger).
    pub max_blocks: usize,
    /// Seed for the quartet sampling.
    pub seed: u64,
}

/// Integral screening threshold: quartets whose largest ERI falls below
/// this are dropped, as GAMESS's Schwarz screening drops them before they
/// ever reach the integral file. Chosen just below the paper's tightest
/// error bound (1e-11) so the surviving data is exactly what a compressor
/// would actually be fed.
pub(crate) const SCREEN_THRESHOLD: f64 = 1e-11;

/// A generated ERI dataset: a flat `f64` stream of whole blocks.
#[derive(Debug, Clone)]
pub struct EriDataset {
    pub config: BfConfig,
    /// `num_blocks · config.block_size()` values.
    pub values: Vec<f64>,
    /// Human-readable provenance ("benzene (dd|dd) analytic", ...).
    pub label: String,
}

impl EriDataset {
    /// Number of whole blocks in the stream.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.values.len() / self.config.block_size()
    }

    /// Size of the raw stream in bytes.
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.values.len() * 8
    }

    /// Borrow block `b` as a slice.
    #[must_use]
    pub fn block(&self, b: usize) -> &[f64] {
        let n = self.config.block_size();
        &self.values[b * n..(b + 1) * n]
    }

    /// Analytic generation (see module docs). Quartets whose blocks fall
    /// entirely below `SCREEN_THRESHOLD` (1e-11) are rejected and replaced, the
    /// way Schwarz screening removes them from real GAMESS integral files.
    #[must_use]
    pub fn generate(spec: &DatasetSpec) -> Self {
        let sampler = QuartetSampler::new(spec);
        let block_size = spec.config.block_size();

        // Walk the permuted quartet enumeration, keeping blocks that
        // survive screening, until max_blocks are accepted or candidates
        // run out. A cheap exponential pre-screen (pair-overlap bound with
        // a generous shape-factor allowance) skips hopeless quartets
        // without evaluating them.
        let mut values: Vec<f64> = Vec::with_capacity(spec.max_blocks * block_size);
        let mut accepted = 0usize;
        let chunk = 256; // candidates examined per parallel batch
        let mut idx = 0usize;
        // Shell-pair cache: every bra/ket pair's Hermite tables are built
        // once and shared across all quartets that reuse the pair (each
        // pair appears in O(n_shells^2) quartets).
        let mut pair_cache: HashMap<(u8, usize, usize), Arc<ShellPair>> = HashMap::new();
        while accepted < spec.max_blocks && idx < sampler.total() {
            let take = chunk.min(sampler.total() - idx);
            let batch: Vec<(Arc<ShellPair>, Arc<ShellPair>)> = (idx..idx + take)
                .map(|i| sampler.quartet_indices(i))
                .filter(|ix| prescreen_bound(&sampler.quartet_from_indices(*ix)) >= SCREEN_THRESHOLD)
                .map(|ix| {
                    let bra = pair_cache
                        .entry((0, ix[0], ix[1]))
                        .or_insert_with(|| {
                            Arc::new(ShellPair::build(
                                &sampler.shell_sets[0][ix[0]],
                                &sampler.shell_sets[1][ix[1]],
                            ))
                        })
                        .clone();
                    let ket = pair_cache
                        .entry((1, ix[2], ix[3]))
                        .or_insert_with(|| {
                            Arc::new(ShellPair::build(
                                &sampler.shell_sets[2][ix[2]],
                                &sampler.shell_sets[3][ix[3]],
                            ))
                        })
                        .clone();
                    (bra, ket)
                })
                .collect();
            idx += take;
            let blocks: Vec<Vec<f64>> = batch
                .par_iter()
                .map(|(bra, ket)| eri_block_from_pairs(bra, ket))
                .collect();
            for block in blocks {
                if accepted >= spec.max_blocks {
                    break;
                }
                let ext = block.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
                if ext >= SCREEN_THRESHOLD {
                    values.extend_from_slice(&block);
                    accepted += 1;
                }
            }
        }
        Self {
            config: spec.config,
            values,
            label: format!("{} {} analytic", spec.molecule.name, spec.config.label()),
        }
    }

    /// Far-field model generation (see module docs). `num_blocks` blocks of
    /// configuration `config`, deterministic in `seed`.
    #[must_use]
    pub fn generate_model(config: BfConfig, num_blocks: usize, seed: u64) -> Self {
        let block_size = config.block_size();
        let num_sb = config.num_subblocks();
        let sb_size = config.subblock_size();
        let mut values = vec![0.0f64; num_blocks * block_size];
        values
            .par_chunks_mut(block_size)
            .enumerate()
            .for_each(|(b, dst)| {
                let mut rng = StdRng::seed_from_u64(seed ^ (b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                model_block(&mut rng, num_sb, sb_size, dst);
            });
        Self {
            config,
            values,
            label: format!("model {} x{num_blocks}", config.label()),
        }
    }
}

/// One block from the Eq. (3) far-field factorization model.
///
/// `block[sb][i] = amp · s[sb] · q[i] + dev`, where:
/// * `q` is the ket-pair shape vector (the repeating pattern),
/// * `s` is the bra-pair shape vector (per-sub-block scale, |s| ≤ 1 with
///   at least one entry at ±1, as the paper notes in Sec. IV-A),
/// * `amp` is the block amplitude, log-uniform over typical far-field ERI
///   magnitudes,
/// * `dev` is the multipole-correction deviation: relative size
///   log-uniform over 1e-12…1e-4 of `amp`, which at EB = 1e-10 yields the
///   paper's observed block-type mix (most blocks type 0/1, a tail of
///   type 2/3 — Fig. 6).
fn model_block(rng: &mut StdRng, num_sb: usize, sb_size: usize, dst: &mut [f64]) {
    let amp = 10f64.powf(rng.gen_range(-9.0..-5.0));
    // Shape vectors: smooth oscillatory profiles like Fig. 3's curves.
    let q: Vec<f64> = shape_vector(rng, sb_size);
    let mut s: Vec<f64> = shape_vector(rng, num_sb);
    // Force max |s| = 1 so the block extremum lives in one sub-block.
    let smax = s.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    for v in &mut s {
        *v /= smax;
    }
    let rel_dev = 10f64.powf(rng.gen_range(-12.0..-4.0));
    // Fraction of points carrying a deviation at the block scale.
    let dense_frac = rng.gen_range(0.1..0.9);
    // A few per-mille of points are outliers with 100x the deviation.
    let outlier_rate = rng.gen_range(0.0..0.003);
    for (sb, chunk) in dst.chunks_mut(sb_size).enumerate() {
        if sb >= num_sb {
            break;
        }
        for (i, v) in chunk.iter_mut().enumerate() {
            // Deviations: a sparse fraction of points carry a Gaussian
            // multipole-correction term at the block's deviation scale,
            // the rest sit below it. This reproduces the paper's Fig. 6
            // per-type ECQ histograms: a dominant zero bin, mass
            // concentrated a few bins below EC_b,max, thin tails.
            let mut dev = if rng.gen::<f64>() < dense_frac {
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                amp * rel_dev * (-2.0 * u1.ln()).sqrt() * u2.cos()
            } else {
                0.0
            };
            if rng.gen_bool(outlier_rate) {
                dev += amp * rel_dev * 100.0 * rng.gen_range(-1.0..1.0);
            }
            *v = amp * s[sb] * q[i] + dev;
        }
    }
}

/// Smooth oscillatory unit-scale profile (sum of a few random harmonics).
fn shape_vector(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let k1 = rng.gen_range(1.0..4.0);
    let k2 = rng.gen_range(4.0..9.0);
    let p1 = rng.gen_range(0.0..std::f64::consts::TAU);
    let p2 = rng.gen_range(0.0..std::f64::consts::TAU);
    let a2 = rng.gen_range(0.1..0.7);
    (0..n)
        .map(|i| {
            let x = i as f64 / n as f64 * std::f64::consts::TAU;
            (k1 * x + p1).sin() + a2 * (k2 * x + p2).sin()
        })
        .collect()
}

/// Cheap upper-bound estimate of a quartet's largest ERI: the product of
/// the two Gaussian pair-overlap exponentials times a generous constant
/// covering shape factors, norms, and the Coulomb prefactor. Never
/// underestimates by design (validated in tests), so pre-screening with it
/// cannot drop a block the exact screen would keep.
fn prescreen_bound(q: &[Shell; 4]) -> f64 {
    let pair = |a: &Shell, b: &Shell| {
        let d2: f64 = (0..3).map(|k| (a.center[k] - b.center[k]).powi(2)).sum();
        // Most favourable (smallest) reduced exponent across primitives.
        let mut best: f64 = 0.0;
        for &ea in &a.exps {
            for &eb in &b.exps {
                let qq = ea * eb / (ea + eb);
                best = best.max((-qq * d2).exp());
            }
        }
        best
    };
    // 1e10 covers the product of four primitive norms (each ~20 for tight
    // d/f shells), Hermite shape factors, and the Coulomb prefactor, with
    // orders of magnitude to spare; a loose constant here only costs a few
    // extra exact evaluations near the threshold.
    1e10 * pair(&q[0], &q[1]) * pair(&q[2], &q[3])
}

/// Lazy deterministic sampler over the full quartet enumeration.
///
/// The index space `0..total` is traversed through the permutation
/// `i ↦ (a·i + b) mod total` with `gcd(a, total) = 1`, which visits every
/// quartet exactly once in a scrambled order without materializing the
/// enumeration (clusters can have 10⁸+ quartets). `generate` walks this
/// order and screens, so the dataset is an unbiased deterministic sample
/// of the *surviving* quartet population.
struct QuartetSampler {
    shell_sets: Vec<Vec<Shell>>,
    total: usize,
    mult: u64,
    offset: u64,
}

impl QuartetSampler {
    fn new(spec: &DatasetSpec) -> Self {
        let shell_sets: Vec<Vec<Shell>> = spec
            .config
            .l
            .iter()
            .map(|&l| shells_for(&spec.molecule, l, &DEFAULT_EXPONENTS))
            .collect();
        assert!(
            shell_sets.iter().all(|s| !s.is_empty()),
            "molecule {} has no shells for config {}",
            spec.molecule.name,
            spec.config.label()
        );
        let total: usize = shell_sets.iter().map(Vec::len).product();
        let mut rng = StdRng::seed_from_u64(spec.seed);
        // Odd multiplier near golden-ratio scrambling, adjusted to be
        // coprime with `total`.
        let mut mult = (rng.gen::<u64>() | 1) % total.max(2) as u64;
        if mult == 0 {
            mult = 1;
        }
        while gcd(mult, total as u64) != 1 {
            mult = (mult + 2) % total.max(2) as u64;
            if mult == 0 {
                mult = 1;
            }
        }
        let offset = rng.gen::<u64>() % total.max(1) as u64;
        Self {
            shell_sets,
            total,
            mult,
            offset,
        }
    }

    fn total(&self) -> usize {
        self.total
    }

    /// The `i`-th quartet of the permuted enumeration, as per-position
    /// shell indices.
    fn quartet_indices(&self, i: usize) -> [usize; 4] {
        let mut ix = (((i as u128 * self.mult as u128) + self.offset as u128)
            % self.total as u128) as usize;
        let mut out = [0usize; 4];
        for (slot, set) in out.iter_mut().zip(&self.shell_sets) {
            *slot = ix % set.len();
            ix /= set.len();
        }
        out
    }

    /// Materializes the shells for a set of indices.
    fn quartet_from_indices(&self, ix: [usize; 4]) -> [Shell; 4] {
        std::array::from_fn(|k| self.shell_sets[k][ix[k]].clone())
    }

    /// The `i`-th quartet of the permuted enumeration.
    #[cfg(test)]
    fn quartet(&self, i: usize) -> [Shell; 4] {
        self.quartet_from_indices(self.quartet_indices(i))
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md::eri_block;

    #[test]
    fn analytic_dd_dd_shape() {
        let spec = DatasetSpec {
            molecule: Molecule::benzene(),
            config: BfConfig::dd_dd(),
            max_blocks: 4,
            seed: 42,
        };
        let ds = EriDataset::generate(&spec);
        assert_eq!(ds.num_blocks(), 4);
        assert_eq!(ds.values.len(), 4 * 1296);
        // ERIs must be finite and not all zero.
        assert!(ds.values.iter().all(|v| v.is_finite()));
        assert!(ds.values.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn analytic_is_deterministic() {
        let spec = DatasetSpec {
            molecule: Molecule::benzene(),
            config: BfConfig::dd_dd(),
            max_blocks: 3,
            seed: 7,
        };
        let a = EriDataset::generate(&spec);
        let b = EriDataset::generate(&spec);
        assert_eq!(a.values, b.values);
    }

    #[test]
    fn model_generator_shape_and_determinism() {
        let ds = EriDataset::generate_model(BfConfig::fd_ff(), 10, 99);
        assert_eq!(ds.num_blocks(), 10);
        assert_eq!(ds.values.len(), 10 * 6000);
        let ds2 = EriDataset::generate_model(BfConfig::fd_ff(), 10, 99);
        assert_eq!(ds.values, ds2.values);
        let ds3 = EriDataset::generate_model(BfConfig::fd_ff(), 10, 100);
        assert_ne!(ds.values, ds3.values);
    }

    #[test]
    fn model_blocks_have_scaled_pattern_structure() {
        let config = BfConfig::dd_dd();
        let ds = EriDataset::generate_model(config, 20, 1);
        let sb_size = config.subblock_size();
        for b in 0..ds.num_blocks() {
            let block = ds.block(b);
            let ext = block.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            assert!(ext > 0.0);
            // Find pattern sub-block (contains extremum).
            let ext_idx = (0..block.len())
                .max_by(|&x, &y| block[x].abs().partial_cmp(&block[y].abs()).unwrap())
                .unwrap();
            let pat_sb = ext_idx / sb_size;
            let pat = &block[pat_sb * sb_size..(pat_sb + 1) * sb_size];
            let anchor = ext_idx % sb_size;
            for sb in 0..config.num_subblocks() {
                let chunk = &ds.block(b)[sb * sb_size..(sb + 1) * sb_size];
                let s = chunk[anchor] / pat[anchor];
                assert!(s.abs() <= 1.0 + 1e-2, "scale {s} out of range");
                for i in 0..sb_size {
                    let dev = (chunk[i] - s * pat[i]).abs();
                    assert!(dev < 0.05 * ext, "block {b} sb {sb} i {i}: dev {dev:e}");
                }
            }
        }
    }

    #[test]
    fn candidate_enumeration_is_exhaustive() {
        let spec = DatasetSpec {
            molecule: Molecule::benzene(),
            config: BfConfig::dd_dd(),
            max_blocks: 2,
            seed: 1,
        };
        // 6 carbons × 2 exponents = 12 d shells; quartets = 12^4, and the
        // permutation must visit each exactly once.
        let sampler = QuartetSampler::new(&spec);
        assert_eq!(sampler.total(), 12usize.pow(4));
        let key = |q: &[Shell; 4]| {
            q.iter()
                .map(|s| (s.center[0].to_bits(), s.center[2].to_bits(), s.exps[0].to_bits()))
                .collect::<Vec<_>>()
        };
        let mut seen = std::collections::HashSet::new();
        for i in 0..sampler.total() {
            seen.insert(key(&sampler.quartet(i)));
        }
        // Quartets are distinguishable by (center, exponent) tuples; the
        // permutation must produce all distinct index tuples. Shell tuples
        // collide only if two shells are identical, which they are not.
        assert_eq!(seen.len(), sampler.total());
    }

    #[test]
    fn prescreen_never_underestimates() {
        // The cheap bound must dominate the true block extremum, or
        // screening could silently drop kept blocks.
        let spec = DatasetSpec {
            molecule: Molecule::tri_alanine(),
            config: BfConfig::dd_dd(),
            max_blocks: 1,
            seed: 5,
        };
        let sampler = QuartetSampler::new(&spec);
        for i in 0..40 {
            let q = sampler.quartet(i);
            let bound = prescreen_bound(&q);
            let block = eri_block(&q[0], &q[1], &q[2], &q[3]);
            let ext = block.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            assert!(
                bound >= ext,
                "prescreen bound {bound:e} below extremum {ext:e}"
            );
        }
    }

    #[test]
    fn screening_drops_negligible_blocks() {
        let spec = DatasetSpec {
            molecule: Molecule::tri_alanine(),
            config: BfConfig::dd_dd(),
            max_blocks: 50,
            seed: 2,
        };
        let ds = EriDataset::generate(&spec);
        for b in 0..ds.num_blocks() {
            let ext = ds.block(b).iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            assert!(ext >= SCREEN_THRESHOLD, "block {b} survived at {ext:e}");
        }
    }

    #[test]
    fn far_quartets_show_pattern_in_analytic_data() {
        // The headline physics check at dataset level: most benzene d-shell
        // quartets sampled should admit a scaled-pattern fit much tighter
        // than the block amplitude.
        let spec = DatasetSpec {
            molecule: Molecule::benzene(),
            config: BfConfig::dd_dd(),
            max_blocks: 12,
            seed: 3,
        };
        let ds = EriDataset::generate(&spec);
        let sb_size = spec.config.subblock_size();
        let mut good = 0;
        for b in 0..ds.num_blocks() {
            let block = ds.block(b);
            let ext = block.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            if ext == 0.0 {
                continue;
            }
            let ext_idx = (0..block.len())
                .max_by(|&x, &y| block[x].abs().partial_cmp(&block[y].abs()).unwrap())
                .unwrap();
            let pat_sb = ext_idx / sb_size;
            let pat: Vec<f64> = block[pat_sb * sb_size..(pat_sb + 1) * sb_size].to_vec();
            let anchor = ext_idx % sb_size;
            let mut max_dev = 0.0f64;
            for sb in 0..spec.config.num_subblocks() {
                let chunk = &block[sb * sb_size..(sb + 1) * sb_size];
                let s = chunk[anchor] / pat[anchor];
                for i in 0..sb_size {
                    max_dev = max_dev.max((chunk[i] - s * pat[i]).abs());
                }
            }
            if max_dev < 0.2 * ext {
                good += 1;
            }
        }
        assert!(good >= 6, "only {good}/12 blocks pattern-compressible");
    }
}
