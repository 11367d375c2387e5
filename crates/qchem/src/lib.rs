//! Quantum-chemistry substrate: the GAMESS stand-in.
//!
//! The PaSTRI paper evaluates on two-electron repulsion integral (ERI)
//! datasets produced by the Fortran package GAMESS, which we do not have.
//! This crate replaces it with a from-scratch analytic Gaussian integral
//! engine so the compressed data has the *same latent structure* the paper
//! exploits — the far-field factorization of shell-quartet blocks
//! (Eq. (2)–(3) of the paper) arises here from the actual Coulomb physics,
//! not from a synthetic template.
//!
//! Contents:
//!
//! * [`angular`] — angular momenta, Cartesian component enumeration, shell
//!   sizes `(l+1)(l+2)/2`.
//! * [`boys`] — the Boys function `F_n(x)`, the special function at the core
//!   of Gaussian integral evaluation.
//! * `hermite` — McMurchie–Davidson Hermite expansion coefficients `E_t^{ij}`.
//! * [`md`] — Hermite Coulomb integrals `R^n_{tuv}` and full contracted
//!   shell-quartet ERI blocks.
//! * [`molecule`] — the three benchmark molecules (benzene, glutamine,
//!   tri-alanine) with approximate 3D geometries.
//! * [`basis`] — shell construction for a basis-function configuration such
//!   as `(dd|dd)` or `(ff|ff)`.
//! * [`dataset`] — the ERI dataset generator: enumerates shell quartets,
//!   evaluates blocks (analytically, or with a calibrated far-field model
//!   for large volumes), and lays them out as the 1-D stream PaSTRI
//!   compresses.
//!
//! # Quick example
//!
//! ```
//! use qchem::dataset::{DatasetSpec, EriDataset};
//! use qchem::basis::BfConfig;
//! use qchem::molecule::Molecule;
//!
//! let spec = DatasetSpec {
//!     molecule: Molecule::benzene(),
//!     config: BfConfig::dd_dd(),
//!     max_blocks: 16,
//!     seed: 7,
//! };
//! let ds = EriDataset::generate(&spec);
//! assert_eq!(ds.values.len(), 16 * 6 * 6 * 6 * 6);
//! ```

pub mod angular;
pub mod basis;
pub mod boys;
pub mod dataset;
mod hermite;
pub mod linalg;
pub mod md;
pub mod mp2;
pub mod molecule;
pub mod oneint;
pub mod scf;
mod sto3g;

pub use basis::{BfConfig, Shell};
pub use dataset::{DatasetSpec, EriDataset};
pub use molecule::Molecule;
