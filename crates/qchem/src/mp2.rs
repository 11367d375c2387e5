//! Second-order Møller–Plesset perturbation theory (MP2).
//!
//! The paper's introduction names post-Hartree–Fock methods as direct
//! beneficiaries of compressed ERIs ("post-Hartree-Fock methods need to
//! assemble molecular integrals from ERIs. Compressing and storing the
//! latter can lead to considerable speedup"). MP2 is the canonical such
//! method: it consumes the *same* AO-basis ERI tensor the SCF used,
//! transformed to the molecular-orbital basis, so a compressed ERI store
//! feeds it without recomputation.
//!
//! Closed-shell MP2 correlation energy:
//!
//! ```text
//! E(2) = Σ_{i,j ∈ occ} Σ_{a,b ∈ virt}  (ia|jb) · [2(ia|jb) − (ib|ja)]
//!                                      ──────────────────────────────
//!                                        ε_i + ε_j − ε_a − ε_b
//! ```
//!
//! The AO→MO transformation is done as four quarter-transformations
//! (O(N⁵) instead of the naive O(N⁸)).

use crate::linalg::Matrix;
use crate::scf::ScfResult;

/// Transforms the AO-basis ERI tensor `(μν|λσ)` (chemists' order, `n⁴`
/// values, μ slowest) into the MO basis with coefficients `c`
/// (AO rows × MO columns).
#[must_use]
pub(crate) fn ao_to_mo(eri_ao: &[f64], c: &Matrix) -> Vec<f64> {
    let n = c.rows;
    assert_eq!(eri_ao.len(), n * n * n * n, "ERI tensor size mismatch");
    assert_eq!(c.rows, c.cols);
    let idx = |a: usize, b: usize, cc: usize, d: usize| ((a * n + b) * n + cc) * n + d;

    // Quarter transformation over each index in turn.
    let mut t1 = vec![0.0f64; n * n * n * n];
    for p in 0..n {
        for nu in 0..n {
            for lam in 0..n {
                for sig in 0..n {
                    let mut acc = 0.0;
                    for mu in 0..n {
                        acc += c[(mu, p)] * eri_ao[idx(mu, nu, lam, sig)];
                    }
                    t1[idx(p, nu, lam, sig)] = acc;
                }
            }
        }
    }
    let mut t2 = vec![0.0f64; n * n * n * n];
    for p in 0..n {
        for q in 0..n {
            for lam in 0..n {
                for sig in 0..n {
                    let mut acc = 0.0;
                    for nu in 0..n {
                        acc += c[(nu, q)] * t1[idx(p, nu, lam, sig)];
                    }
                    t2[idx(p, q, lam, sig)] = acc;
                }
            }
        }
    }
    let mut t3 = vec![0.0f64; n * n * n * n];
    for p in 0..n {
        for q in 0..n {
            for r in 0..n {
                for sig in 0..n {
                    let mut acc = 0.0;
                    for lam in 0..n {
                        acc += c[(lam, r)] * t2[idx(p, q, lam, sig)];
                    }
                    t3[idx(p, q, r, sig)] = acc;
                }
            }
        }
    }
    let mut mo = vec![0.0f64; n * n * n * n];
    for p in 0..n {
        for q in 0..n {
            for r in 0..n {
                for sg in 0..n {
                    let mut acc = 0.0;
                    for sig in 0..n {
                        acc += c[(sig, sg)] * t3[idx(p, q, r, sig)];
                    }
                    mo[idx(p, q, r, sg)] = acc;
                }
            }
        }
    }
    mo
}

/// Closed-shell MP2 correlation energy from a converged RHF result and
/// the AO-basis ERI tensor (the same tensor the SCF consumed — e.g.
/// decompressed from a PaSTRI store).
///
/// # Panics
/// Panics if the SCF did not converge or dimensions disagree.
#[must_use]
pub fn mp2_correlation(scf: &ScfResult, eri_ao: &[f64]) -> f64 {
    assert!(scf.converged, "MP2 on an unconverged SCF is meaningless");
    let n = scf.coefficients.rows;
    let n_occ = scf.n_occupied;
    let mo = ao_to_mo(eri_ao, &scf.coefficients);
    let idx = |a: usize, b: usize, c: usize, d: usize| ((a * n + b) * n + c) * n + d;
    let eps = &scf.orbital_energies;

    let mut e2 = 0.0;
    for i in 0..n_occ {
        for j in 0..n_occ {
            for a in n_occ..n {
                for b in n_occ..n {
                    let iajb = mo[idx(i, a, j, b)];
                    let ibja = mo[idx(i, b, j, a)];
                    let denom = eps[i] + eps[j] - eps[a] - eps[b];
                    e2 += iajb * (2.0 * iajb - ibja) / denom;
                }
            }
        }
    }
    e2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scf::{run_rhf, systems, HfSystem, InMemoryEri, ScfOptions};

    fn rhf_with_tensor(mol: &crate::molecule::Molecule) -> (ScfResult, Vec<f64>) {
        let sys = HfSystem::sto3g(mol);
        let tensor = sys.eri_tensor();
        let scf = run_rhf(&sys, &InMemoryEri(tensor.clone()), ScfOptions::default());
        assert!(scf.converged);
        (scf, tensor)
    }

    #[test]
    fn mo_transform_preserves_symmetry() {
        let (scf, tensor) = rhf_with_tensor(&systems::h2());
        let mo = ao_to_mo(&tensor, &scf.coefficients);
        let n = scf.coefficients.rows;
        let g = |a: usize, b: usize, c: usize, d: usize| mo[((a * n + b) * n + c) * n + d];
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    for d in 0..n {
                        // (pq|rs) = (qp|rs) = (pq|sr) = (rs|pq) for real orbitals.
                        let v = g(a, b, c, d);
                        assert!((v - g(b, a, c, d)).abs() < 1e-10);
                        assert!((v - g(a, b, d, c)).abs() < 1e-10);
                        assert!((v - g(c, d, a, b)).abs() < 1e-10);
                    }
                }
            }
        }
    }

    #[test]
    fn h2_mp2_correlation_in_literature_range() {
        // H2/STO-3G at R = 1.4 a0: E_corr(MP2) ≈ -0.013 hartree
        // (full CI correlation is -0.0206; MP2 recovers about 2/3).
        let (scf, tensor) = rhf_with_tensor(&systems::h2());
        let e2 = mp2_correlation(&scf, &tensor);
        assert!(e2 < 0.0, "correlation energy must be negative: {e2}");
        assert!(
            (-0.022..=-0.008).contains(&e2),
            "H2 MP2 correlation {e2} outside literature range"
        );
    }

    #[test]
    fn helium_mp2_correlation_in_literature_range() {
        // He/STO-3G has a single occupied and a... no virtuals (1 BF!) —
        // correlation is exactly zero with no virtual space.
        let (scf, tensor) = rhf_with_tensor(&systems::helium());
        let e2 = mp2_correlation(&scf, &tensor);
        assert_eq!(e2, 0.0, "no virtual orbitals -> no correlation");
    }

    #[test]
    fn water_mp2_correlation_in_literature_range() {
        // H2O/STO-3G MP2 correlation ≈ -0.035 to -0.04 hartree.
        let (scf, tensor) = rhf_with_tensor(&systems::water());
        let e2 = mp2_correlation(&scf, &tensor);
        assert!(
            (-0.06..=-0.02).contains(&e2),
            "water MP2 correlation {e2} outside literature range"
        );
    }

    #[test]
    fn mp2_total_energy_below_hf() {
        // The variational-flavoured sanity check: E(MP2) < E(HF).
        let (scf, tensor) = rhf_with_tensor(&systems::water());
        let e2 = mp2_correlation(&scf, &tensor);
        assert!(scf.energy + e2 < scf.energy);
    }
}
