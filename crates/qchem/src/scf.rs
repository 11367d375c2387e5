//! Closed-shell restricted Hartree–Fock — the application the paper's
//! introduction motivates.
//!
//! An SCF iteration needs the same two-electron integrals every cycle;
//! PaSTRI's whole purpose is to make "generate once, decompress per
//! iteration" cheaper than regeneration. The driver here is deliberately
//! integral-source-agnostic: it pulls the ERI tensor from an
//! [`EriSource`] each time it builds a Fock matrix, so exact in-memory
//! tensors and decompress-on-demand sources (see
//! `examples/scf_compressed_integrals.rs`) run through identical code.
//!
//! Algorithm: standard Roothaan SCF with symmetric orthogonalization
//! (Szabo & Ostlund §3.4.6).

use crate::basis::Shell;
use crate::linalg::{eigh, inverse_sqrt, Matrix};
use crate::md::eri_block;
use crate::molecule::{Atom, Molecule};
use crate::oneint::{kinetic, nuclear, overlap};
use crate::sto3g;

/// Where the SCF gets its two-electron integrals each iteration.
pub trait EriSource {
    /// The full `(μν|λσ)` tensor, `nbf⁴` values in chemists' order with
    /// μ slowest.
    fn tensor(&self) -> Vec<f64>;
}

/// Exact in-memory ERI tensor.
pub struct InMemoryEri(pub Vec<f64>);

impl EriSource for InMemoryEri {
    fn tensor(&self) -> Vec<f64> {
        self.0.clone()
    }
}

/// A molecule prepared for RHF: shells, atoms, electron count.
#[derive(Debug, Clone)]
pub struct HfSystem {
    pub shells: Vec<Shell>,
    pub atoms: Vec<Atom>,
    pub n_electrons: usize,
}

impl HfSystem {
    /// Neutral molecule in the STO-3G basis.
    #[must_use]
    pub fn sto3g(molecule: &Molecule) -> Self {
        Self {
            shells: sto3g::shells_for_molecule(molecule),
            atoms: molecule.atoms.clone(),
            n_electrons: molecule.atoms.iter().map(|a| a.z as usize).sum(),
        }
    }

    /// Same, with a total charge (e.g. +1 for HeH⁺).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn sto3g_with_charge(molecule: &Molecule, charge: i32) -> Self {
        let mut sys = Self::sto3g(molecule);
        sys.n_electrons = (sys.n_electrons as i64 - i64::from(charge)) as usize;
        sys
    }

    /// Number of basis functions.
    #[must_use]
    pub fn nbf(&self) -> usize {
        self.shells.iter().map(Shell::size).sum()
    }

    /// Classical nuclear repulsion energy.
    #[must_use]
    pub(crate) fn nuclear_repulsion(&self) -> f64 {
        let mut e = 0.0;
        for i in 0..self.atoms.len() {
            for j in (i + 1)..self.atoms.len() {
                let d: f64 = (0..3)
                    .map(|k| (self.atoms[i].pos[k] - self.atoms[j].pos[k]).powi(2))
                    .sum::<f64>()
                    .sqrt();
                e += f64::from(self.atoms[i].z) * f64::from(self.atoms[j].z) / d;
            }
        }
        e
    }

    /// Assembles overlap and core-Hamiltonian matrices.
    #[must_use]
    pub(crate) fn one_electron_matrices(&self) -> (Matrix, Matrix) {
        let n = self.nbf();
        let mut s = Matrix::zeros(n, n);
        let mut h = Matrix::zeros(n, n);
        let offsets = self.shell_offsets();
        for (a, sa) in self.shells.iter().enumerate() {
            for (b, sb) in self.shells.iter().enumerate() {
                let sb_block = overlap(sa, sb);
                let t_block = kinetic(sa, sb);
                let v_block = nuclear(sa, sb, &self.atoms);
                for i in 0..sa.size() {
                    for j in 0..sb.size() {
                        s[(offsets[a] + i, offsets[b] + j)] = sb_block[(i, j)];
                        h[(offsets[a] + i, offsets[b] + j)] =
                            t_block[(i, j)] + v_block[(i, j)];
                    }
                }
            }
        }
        (s, h)
    }

    /// Assembles the full ERI tensor `(μν|λσ)`, `nbf⁴` values.
    #[must_use]
    pub fn eri_tensor(&self) -> Vec<f64> {
        let n = self.nbf();
        let offsets = self.shell_offsets();
        let mut eri = vec![0.0f64; n * n * n * n];
        for (a, sa) in self.shells.iter().enumerate() {
            for (b, sb) in self.shells.iter().enumerate() {
                for (c, sc) in self.shells.iter().enumerate() {
                    for (d, sd) in self.shells.iter().enumerate() {
                        let block = eri_block(sa, sb, sc, sd);
                        let (na, nb, nc, nd) =
                            (sa.size(), sb.size(), sc.size(), sd.size());
                        for ia in 0..na {
                            for ib in 0..nb {
                                for ic in 0..nc {
                                    for id in 0..nd {
                                        let v = block[((ia * nb + ib) * nc + ic) * nd + id];
                                        let (m, u, l, s_) = (
                                            offsets[a] + ia,
                                            offsets[b] + ib,
                                            offsets[c] + ic,
                                            offsets[d] + id,
                                        );
                                        eri[((m * n + u) * n + l) * n + s_] = v;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        eri
    }

    fn shell_offsets(&self) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(self.shells.len());
        let mut acc = 0;
        for s in &self.shells {
            offsets.push(acc);
            acc += s.size();
        }
        offsets
    }
}

/// SCF convergence knobs.
#[derive(Debug, Clone, Copy)]
pub struct ScfOptions {
    pub max_iterations: usize,
    /// Convergence threshold on |ΔE| (hartree).
    pub energy_tol: f64,
    /// Convergence threshold on the density-matrix Frobenius change.
    pub density_tol: f64,
}

impl Default for ScfOptions {
    fn default() -> Self {
        Self {
            max_iterations: 100,
            energy_tol: 1e-10,
            density_tol: 1e-8,
        }
    }
}

/// SCF outcome.
#[derive(Debug, Clone)]
pub struct ScfResult {
    /// Total energy (electronic + nuclear repulsion), hartree.
    pub energy: f64,
    /// Electronic part alone.
    pub electronic_energy: f64,
    /// Orbital energies, ascending.
    pub orbital_energies: Vec<f64>,
    /// MO coefficient matrix (AO rows × MO columns, MOs ascending by
    /// energy) — what post-HF methods (MP2) transform integrals with.
    pub coefficients: Matrix,
    /// Number of doubly occupied orbitals.
    pub n_occupied: usize,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether both convergence criteria were met.
    pub converged: bool,
}

/// Runs restricted Hartree–Fock for `system`, pulling the ERI tensor from
/// `eri` at every Fock build.
///
/// # Panics
/// Panics on an odd electron count (RHF is closed-shell) or a linearly
/// dependent basis.
#[must_use]
pub fn run_rhf(system: &HfSystem, eri: &dyn EriSource, opts: ScfOptions) -> ScfResult {
    assert!(
        system.n_electrons.is_multiple_of(2),
        "RHF needs an even electron count, got {}",
        system.n_electrons
    );
    let n = system.nbf();
    let n_occ = system.n_electrons / 2;
    assert!(n_occ <= n, "more electron pairs than basis functions");

    let (s, h) = system.one_electron_matrices();
    let x = inverse_sqrt(&s);
    let e_nuc = system.nuclear_repulsion();

    let mut p = Matrix::zeros(n, n);
    let mut e_elec = 0.0f64;
    let mut orbital_energies = Vec::new();
    let mut coefficients = Matrix::zeros(n, n);
    let mut converged = false;
    let mut iterations = 0;

    for iter in 0..opts.max_iterations {
        iterations = iter + 1;
        // Fock matrix from the current density and fresh integrals.
        let tensor = eri.tensor();
        assert_eq!(tensor.len(), n * n * n * n, "ERI tensor has wrong size");
        let mut f = h.clone();
        for m in 0..n {
            for u in 0..n {
                let mut g = 0.0;
                for l in 0..n {
                    for s_ in 0..n {
                        let coulomb = tensor[((m * n + u) * n + s_) * n + l];
                        let exchange = tensor[((m * n + l) * n + s_) * n + u];
                        g += p[(l, s_)] * (coulomb - 0.5 * exchange);
                    }
                }
                f[(m, u)] += g;
            }
        }

        // Energy of the *current* density with this Fock.
        let mut e_new = 0.0;
        for m in 0..n {
            for u in 0..n {
                e_new += 0.5 * p[(u, m)] * (h[(m, u)] + f[(m, u)]);
            }
        }

        // Diagonalize in the orthogonal basis.
        let f_prime = x.transpose().mul(&f).mul(&x);
        let (eps, c_prime) = eigh(&f_prime);
        let c = x.mul(&c_prime);

        // New density from the lowest n_occ orbitals.
        let mut p_new = Matrix::zeros(n, n);
        for m in 0..n {
            for u in 0..n {
                let mut acc = 0.0;
                for i in 0..n_occ {
                    acc += c[(m, i)] * c[(u, i)];
                }
                p_new[(m, u)] = 2.0 * acc;
            }
        }

        let de = (e_new - e_elec).abs();
        let dp = p_new.distance(&p);
        e_elec = e_new;
        p = p_new;
        orbital_energies = eps;
        coefficients = c;
        if iter > 0 && de < opts.energy_tol && dp < opts.density_tol {
            converged = true;
            break;
        }
    }

    ScfResult {
        energy: e_elec + e_nuc,
        electronic_energy: e_elec,
        orbital_energies,
        coefficients,
        n_occupied: n_occ,
        iterations,
        converged,
    }
}

/// Convenience geometries for the SCF tests and examples.
pub mod systems {
    use crate::molecule::{Atom, Molecule};

    /// H₂ at the Szabo–Ostlund bond length 1.4 a₀.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn h2() -> Molecule {
        Molecule {
            name: "H2",
            atoms: vec![
                Atom { z: 1, pos: [0.0, 0.0, 0.0] },
                Atom { z: 1, pos: [0.0, 0.0, 1.4] },
            ],
        }
    }

    /// A helium atom.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn helium() -> Molecule {
        Molecule {
            name: "He",
            atoms: vec![Atom { z: 2, pos: [0.0; 3] }],
        }
    }

    /// HeH⁺ at 1.4632 a₀ (Szabo & Ostlund's worked example geometry).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn heh_cation() -> Molecule {
        Molecule {
            name: "HeH+",
            atoms: vec![
                Atom { z: 2, pos: [0.0, 0.0, 0.0] },
                Atom { z: 1, pos: [0.0, 0.0, 1.4632] },
            ],
        }
    }

    /// Water at the standard experimental geometry
    /// (r(OH) = 0.9572 Å, ∠HOH = 104.52°).
    #[must_use]
    pub fn water() -> Molecule {
        use crate::molecule::ANGSTROM;
        let r = 0.9572 * ANGSTROM;
        let half = 104.52f64.to_radians() / 2.0;
        Molecule {
            name: "H2O",
            atoms: vec![
                Atom { z: 8, pos: [0.0, 0.0, 0.0] },
                Atom {
                    z: 1,
                    pos: [r * half.sin(), 0.0, r * half.cos()],
                },
                Atom {
                    z: 1,
                    pos: [-r * half.sin(), 0.0, r * half.cos()],
                },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rhf_energy(molecule: &Molecule, charge: i32) -> ScfResult {
        let sys = HfSystem::sto3g_with_charge(molecule, charge);
        let eri = InMemoryEri(sys.eri_tensor());
        run_rhf(&sys, &eri, ScfOptions::default())
    }

    #[test]
    fn h2_sto3g_energy_matches_literature() {
        // Szabo & Ostlund: E(RHF/STO-3G, R = 1.4 a0) = -1.1167 hartree.
        let r = rhf_energy(&systems::h2(), 0);
        assert!(r.converged, "SCF did not converge");
        assert!(
            (r.energy - (-1.1167)).abs() < 2e-3,
            "H2 energy {} vs -1.1167",
            r.energy
        );
        // Nuclear repulsion is 1/1.4.
        let e_nuc = HfSystem::sto3g(&systems::h2()).nuclear_repulsion();
        assert!((e_nuc - 1.0 / 1.4).abs() < 1e-12);
    }

    #[test]
    fn helium_sto3g_energy_matches_literature() {
        // E(RHF/STO-3G) for He = -2.807784 hartree (standard value).
        let r = rhf_energy(&systems::helium(), 0);
        assert!(r.converged);
        assert!(
            (r.energy - (-2.807_784)).abs() < 2e-3,
            "He energy {}",
            r.energy
        );
    }

    #[test]
    fn heh_cation_energy_matches_szabo() {
        // Szabo & Ostlund's worked example (Sec. 3.5.2) uses ζ-rescaled
        // STO-3G: He exponents scaled to ζ = 2.0925 (He exps 9.753934,
        // 1.776691, 0.480844), H at the standard ζ = 1.24. Their result:
        // E_total ≈ -2.8606 hartree at R = 1.4632 a0.
        let mol = systems::heh_cation();
        let mut sys = HfSystem::sto3g_with_charge(&mol, 1);
        // Replace the helium shell with the ζ = 2.0925 scaled one.
        let zeta_ratio = (2.0925f64 / 1.6875).powi(2);
        for shell in &mut sys.shells {
            if shell.center == [0.0, 0.0, 0.0] {
                for e in &mut shell.exps {
                    *e *= zeta_ratio;
                }
            }
        }
        // Re-normalize after the exponent change.
        for shell in &mut sys.shells {
            let s = crate::oneint::overlap(shell, shell)[(0, 0)];
            let scale = 1.0 / s.sqrt();
            for c in &mut shell.coefs {
                *c *= scale;
            }
        }
        let eri = InMemoryEri(sys.eri_tensor());
        let r = run_rhf(&sys, &eri, ScfOptions::default());
        assert!(r.converged);
        assert!(
            (r.energy - (-2.860_6)).abs() < 2e-3,
            "HeH+ energy {} vs Szabo -2.8606",
            r.energy
        );
        // And with the standard (unscaled) STO-3G table the energy is the
        // also-known -2.8418.
        let std = rhf_energy(&mol, 1);
        assert!((std.energy - (-2.841_8)).abs() < 2e-3, "{}", std.energy);
    }

    #[test]
    fn water_sto3g_energy_in_literature_range() {
        // STO-3G water at the experimental geometry: ≈ -74.96 hartree
        // (literature values -74.94 .. -74.97 depending on digits).
        let r = rhf_energy(&systems::water(), 0);
        assert!(r.converged, "water SCF did not converge");
        assert!(
            (-75.1..=-74.8).contains(&r.energy),
            "water energy {}",
            r.energy
        );
        // 5 doubly occupied orbitals; HOMO below zero, LUMO above.
        assert!(r.orbital_energies[4] < 0.0);
        assert!(r.orbital_energies[5] > 0.0);
    }

    #[test]
    fn h2_orbital_structure() {
        let r = rhf_energy(&systems::h2(), 0);
        // Bonding orbital filled (negative), antibonding empty (positive).
        assert!(r.orbital_energies[0] < -0.5);
        assert!(r.orbital_energies[1] > 0.4);
    }

    #[test]
    fn eri_tensor_has_8_fold_symmetry() {
        let sys = HfSystem::sto3g(&systems::h2());
        let n = sys.nbf();
        let t = sys.eri_tensor();
        let g = |a: usize, b: usize, c: usize, d: usize| t[((a * n + b) * n + c) * n + d];
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    for d in 0..n {
                        let v = g(a, b, c, d);
                        for w in [
                            g(b, a, c, d),
                            g(a, b, d, c),
                            g(c, d, a, b),
                            g(d, c, b, a),
                        ] {
                            assert!((v - w).abs() < 1e-11, "symmetry broken at {a}{b}{c}{d}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "even electron count")]
    fn odd_electrons_rejected() {
        let mol = Molecule {
            name: "H",
            atoms: vec![Atom { z: 1, pos: [0.0; 3] }],
        };
        let sys = HfSystem::sto3g(&mol);
        let eri = InMemoryEri(sys.eri_tensor());
        let _ = run_rhf(&sys, &eri, ScfOptions::default());
    }
}
