//! Shells and basis-function configurations.
//!
//! PaSTRI's block geometry is fixed by the *BF configuration* — the
//! angular-momentum class of the shell quartet, e.g. `(dd|dd)` or `(fd|ff)`.
//! The user supplies this up front (Sec. III-B of the paper: "the user
//! should provide the information about which BF configuration is being
//! used"); from it the block dimensions `N1..N4`, number of sub-blocks
//! `N1·N2`, and sub-block size `N3·N4` all follow.

use crate::angular::{shell_letter, shell_size, AngMom};
use crate::molecule::Molecule;

/// A contracted Cartesian Gaussian shell: a set of `(l+1)(l+2)/2` basis
/// functions sharing a centre, angular momentum, and radial part.
#[derive(Debug, Clone, PartialEq)]
pub struct Shell {
    /// Centre in Bohr.
    pub center: [f64; 3],
    /// Total angular momentum.
    pub l: AngMom,
    /// Primitive exponents.
    pub exps: Vec<f64>,
    /// Contraction coefficients (same length as `exps`).
    pub coefs: Vec<f64>,
}

impl Shell {
    /// Number of Cartesian basis functions in this shell.
    #[must_use]
    pub fn size(&self) -> usize {
        shell_size(self.l)
    }
}

/// A basis-function configuration `(l1 l2 | l3 l4)` describing one ERI
/// block class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BfConfig {
    pub l: [AngMom; 4],
}

impl BfConfig {
    /// `(dd|dd)`: 6×6×6×6 blocks, 36 sub-blocks of 36.
    #[must_use]
    pub fn dd_dd() -> Self {
        Self { l: [2, 2, 2, 2] }
    }

    /// `(ff|ff)`: 10×10×10×10 blocks, 100 sub-blocks of 100.
    #[must_use]
    pub fn ff_ff() -> Self {
        Self { l: [3, 3, 3, 3] }
    }

    /// `(fd|ff)`: the worked example from Sec. IV of the paper —
    /// 10·6·10·10 = 6000 points, 60 sub-blocks of 100.
    #[must_use]
    pub fn fd_ff() -> Self {
        Self { l: [3, 2, 3, 3] }
    }

    /// `(df|fd)` hybrid used in the paper's experiments.
    #[must_use]
    pub fn df_fd() -> Self {
        Self { l: [2, 3, 3, 2] }
    }

    /// Parses `"(dd|dd)"`, `"dddd"`, `"(fd|ff)"`, etc.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        let letters: Vec<char> = s
            .chars()
            .filter(|c| c.is_ascii_alphabetic())
            .collect();
        if letters.len() != 4 {
            return None;
        }
        let mut l = [0u32; 4];
        for (dst, &c) in l.iter_mut().zip(letters.iter()) {
            *dst = crate::angular::letter_to_l(c)?;
        }
        Some(Self { l })
    }

    /// Block dimensions `[N1, N2, N3, N4]`.
    #[must_use]
    pub fn dims(&self) -> [usize; 4] {
        [
            shell_size(self.l[0]),
            shell_size(self.l[1]),
            shell_size(self.l[2]),
            shell_size(self.l[3]),
        ]
    }

    /// Total points per block, `N1·N2·N3·N4`.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.dims().iter().product()
    }

    /// Number of sub-blocks per block, `N1·N2` (Algorithm 1, line 3).
    #[must_use]
    pub(crate) fn num_subblocks(&self) -> usize {
        let d = self.dims();
        d[0] * d[1]
    }

    /// Points per sub-block, `N3·N4` (Algorithm 1, line 4).
    #[must_use]
    pub fn subblock_size(&self) -> usize {
        let d = self.dims();
        d[2] * d[3]
    }

    /// Canonical label like `(dd|dd)`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "({}{}|{}{})",
            shell_letter(self.l[0]),
            shell_letter(self.l[1]),
            shell_letter(self.l[2]),
            shell_letter(self.l[3])
        )
    }
}

/// Builds the shell list of a given angular momentum for a molecule:
/// every heavy (non-hydrogen) atom carries one shell of angular momentum
/// `l` per exponent in `exps`.
///
/// This mirrors how polarization shells (d on C/N/O, f in larger bases)
/// enter real calculations: per-atom, with element-dependent exponents.
#[must_use]
pub fn shells_for(molecule: &Molecule, l: AngMom, exps_per_atom: &[f64]) -> Vec<Shell> {
    let mut shells = Vec::new();
    for atom in &molecule.atoms {
        if atom.z == 1 {
            continue; // hydrogens carry no d/f polarization shells
        }
        // Scale exponents mildly with nuclear charge so C/N/O differ,
        // as they do in real basis sets.
        let zscale = 1.0 + 0.08 * (f64::from(atom.z) - 6.0);
        for &e in exps_per_atom {
            shells.push(Shell {
                center: atom.pos,
                l,
                exps: vec![e * zscale],
                coefs: vec![1.0],
            });
        }
    }
    shells
}

/// Default polarization exponents used by the dataset generator: a
/// double-polarization pair (tight + standard) in the cc-pVTZ 2d1f
/// tradition. Tight polarization functions keep charge clouds compact,
/// which is what makes cross-centre shell quartets far-field — the
/// property PaSTRI's pattern scaling feeds on.
pub const DEFAULT_EXPONENTS: [f64; 2] = [1.2, 3.0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dd_dd_geometry() {
        let c = BfConfig::dd_dd();
        assert_eq!(c.dims(), [6, 6, 6, 6]);
        assert_eq!(c.block_size(), 1296);
        assert_eq!(c.num_subblocks(), 36);
        assert_eq!(c.subblock_size(), 36);
        assert_eq!(c.label(), "(dd|dd)");
    }

    #[test]
    fn fd_ff_matches_paper_example() {
        // Sec. IV: (fd|ff) block = 10·6·10·10 = 6000 points,
        // 60 sub-blocks of 100 points each.
        let c = BfConfig::fd_ff();
        assert_eq!(c.block_size(), 6000);
        assert_eq!(c.num_subblocks(), 60);
        assert_eq!(c.subblock_size(), 100);
    }

    #[test]
    fn parse_variants() {
        assert_eq!(BfConfig::parse("(dd|dd)"), Some(BfConfig::dd_dd()));
        assert_eq!(BfConfig::parse("ffff"), Some(BfConfig::ff_ff()));
        assert_eq!(BfConfig::parse("(fd|ff)"), Some(BfConfig::fd_ff()));
        assert_eq!(BfConfig::parse("(dd|d)"), None);
        assert_eq!(BfConfig::parse("(qq|qq)"), None);
    }

    #[test]
    fn shells_skip_hydrogens() {
        let benzene = Molecule::benzene();
        let shells = shells_for(&benzene, 2, &DEFAULT_EXPONENTS);
        // 6 carbons × 2 exponents.
        assert_eq!(shells.len(), 12);
        for s in &shells {
            assert_eq!(s.l, 2);
            assert_eq!(s.size(), 6);
        }
    }
}
