//! STO-3G minimal basis set data (Hehre, Stewart & Pople, JCP 1969) for
//! the elements the test systems need: H, He, C, N, O.
//!
//! Contraction coefficients apply to *normalized* primitives; contracted
//! shells are renormalized here so every basis function has unit
//! self-overlap (checked in tests).

use crate::basis::Shell;
use crate::molecule::{Atom, Molecule};
use crate::oneint::overlap;

/// STO-3G s-shell contraction for hydrogen.
const H_S: ([f64; 3], [f64; 3]) = (
    [3.425_250_91, 0.623_913_73, 0.168_855_40],
    [0.154_328_97, 0.535_328_14, 0.444_634_54],
);
/// Helium 1s.
const HE_S: ([f64; 3], [f64; 3]) = (
    [6.362_421_39, 1.158_923_00, 0.313_649_79],
    [0.154_328_97, 0.535_328_14, 0.444_634_54],
);
/// First-row core (1s) exponents.
const C_CORE: [f64; 3] = [71.616_837_0, 13.045_096_0, 3.530_512_2];
const N_CORE: [f64; 3] = [99.106_169_0, 18.052_312_0, 4.885_660_2];
const O_CORE: [f64; 3] = [130.709_320_0, 23.808_861_0, 6.443_608_3];
/// First-row valence (2sp) exponents.
const C_SP: [f64; 3] = [2.941_249_4, 0.683_483_1, 0.222_289_9];
const N_SP: [f64; 3] = [3.780_455_9, 0.878_496_6, 0.285_714_4];
const O_SP: [f64; 3] = [5.033_151_3, 1.169_596_1, 0.380_389_0];
/// Shared first-row contraction coefficients.
const CORE_COEF: [f64; 3] = [0.154_328_97, 0.535_328_14, 0.444_634_54];
const S_VAL_COEF: [f64; 3] = [-0.099_967_23, 0.399_512_83, 0.700_115_47];
const P_VAL_COEF: [f64; 3] = [0.155_916_27, 0.607_683_72, 0.391_957_39];

/// Renormalizes a contracted shell so its first basis function has unit
/// self-overlap (all components of an s/p shell share the same norm).
fn normalized(mut shell: Shell) -> Shell {
    let s = overlap(&shell, &shell)[(0, 0)];
    let scale = 1.0 / s.sqrt();
    for c in &mut shell.coefs {
        *c *= scale;
    }
    shell
}

/// STO-3G shells for one atom. Returns `None` for unsupported elements.
#[must_use]
pub(crate) fn shells_for_atom(atom: &Atom) -> Option<Vec<Shell>> {
    let mk = |l: u32, exps: &[f64], coefs: &[f64]| {
        normalized(Shell {
            center: atom.pos,
            l,
            exps: exps.to_vec(),
            coefs: coefs.to_vec(),
        })
    };
    Some(match atom.z {
        1 => vec![mk(0, &H_S.0, &H_S.1)],
        2 => vec![mk(0, &HE_S.0, &HE_S.1)],
        6 => vec![
            mk(0, &C_CORE, &CORE_COEF),
            mk(0, &C_SP, &S_VAL_COEF),
            mk(1, &C_SP, &P_VAL_COEF),
        ],
        7 => vec![
            mk(0, &N_CORE, &CORE_COEF),
            mk(0, &N_SP, &S_VAL_COEF),
            mk(1, &N_SP, &P_VAL_COEF),
        ],
        8 => vec![
            mk(0, &O_CORE, &CORE_COEF),
            mk(0, &O_SP, &S_VAL_COEF),
            mk(1, &O_SP, &P_VAL_COEF),
        ],
        _ => return None,
    })
}

/// STO-3G shells for a whole molecule.
///
/// # Panics
/// Panics on elements outside {H, He, C, N, O}.
#[must_use]
pub(crate) fn shells_for_molecule(molecule: &Molecule) -> Vec<Shell> {
    molecule
        .atoms
        .iter()
        .flat_map(|a| {
            shells_for_atom(a)
                .unwrap_or_else(|| panic!("no STO-3G data for Z = {}", a.z))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contracted_shells_are_normalized() {
        for z in [1u32, 2, 6, 7, 8] {
            let atom = Atom {
                z,
                pos: [0.1, -0.2, 0.3],
            };
            for shell in shells_for_atom(&atom).unwrap() {
                let s = overlap(&shell, &shell);
                for i in 0..shell.size() {
                    assert!(
                        (s[(i, i)] - 1.0).abs() < 1e-10,
                        "Z={z} l={} comp {i}: {}",
                        shell.l,
                        s[(i, i)]
                    );
                }
            }
        }
    }

    #[test]
    fn shell_counts_per_element() {
        let h = Atom { z: 1, pos: [0.0; 3] };
        let o = Atom { z: 8, pos: [0.0; 3] };
        assert_eq!(shells_for_atom(&h).unwrap().len(), 1);
        assert_eq!(shells_for_atom(&o).unwrap().len(), 3); // 1s, 2s, 2p
        // Basis function counts: H -> 1, O -> 1+1+3 = 5.
        let nbf: usize = shells_for_atom(&o).unwrap().iter().map(Shell::size).sum();
        assert_eq!(nbf, 5);
    }

    #[test]
    fn unsupported_element_is_none() {
        let fe = Atom { z: 26, pos: [0.0; 3] };
        assert!(shells_for_atom(&fe).is_none());
    }

    #[test]
    fn core_valence_orthogonality_is_partial() {
        // 1s and 2s on the same centre overlap but are far from identical
        // (sanity against coefficient transcription errors).
        let o = Atom { z: 8, pos: [0.0; 3] };
        let shells = shells_for_atom(&o).unwrap();
        let s = overlap(&shells[0], &shells[1])[(0, 0)];
        assert!(s.abs() < 0.6, "1s/2s overlap {s}");
        assert!(s.abs() > 0.05, "1s/2s overlap suspiciously small: {s}");
    }
}
