//! Angular momentum bookkeeping for Cartesian Gaussian shells.
//!
//! A shell of total angular momentum `l` contains `(l+1)(l+2)/2` Cartesian
//! basis functions `x^i y^j z^k` with `i + j + k = l` (Fig. 1 of the paper).
//! The component ordering below (descending `i`, then descending `j`) is
//! the conventional GAMESS/Gaussian ordering and is what fixes the
//! *position* of each ERI inside its 4-D block — the layout PaSTRI's
//! sub-block structure relies on.

/// Total angular momentum of a shell (0 = s, 1 = p, 2 = d, 3 = f, ...).
pub(crate) type AngMom = u32;

/// One Cartesian component `(i, j, k)` with `i + j + k = l`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CartComp {
    pub i: u32,
    pub j: u32,
    pub k: u32,
}

impl CartComp {
    /// Total angular momentum of this component.
    #[must_use]
    pub(crate) fn l(&self) -> u32 {
        self.i + self.j + self.k
    }
}

/// Number of Cartesian basis functions in a shell of angular momentum `l`:
/// `(l+1)(l+2)/2`.
#[must_use]
pub(crate) fn shell_size(l: AngMom) -> usize {
    ((l + 1) * (l + 2) / 2) as usize
}

/// Enumerates the Cartesian components of a shell in canonical order:
/// `i` descending from `l`, then `j` descending from `l - i`.
///
/// For `l = 1` this yields `p^x, p^y, p^z`.
#[must_use]
pub(crate) fn components(l: AngMom) -> Vec<CartComp> {
    let mut out = Vec::with_capacity(shell_size(l));
    for i in (0..=l).rev() {
        for j in (0..=(l - i)).rev() {
            out.push(CartComp { i, j, k: l - i - j });
        }
    }
    out
}

/// One-letter spectroscopic name for a shell (`s p d f g h i`), used in
/// block-type labels like `(dd|dd)`.
#[must_use]
pub fn shell_letter(l: AngMom) -> char {
    match l {
        0 => 's',
        1 => 'p',
        2 => 'd',
        3 => 'f',
        4 => 'g',
        5 => 'h',
        _ => 'i',
    }
}

/// Parses a shell letter back to its angular momentum.
#[must_use]
pub(crate) fn letter_to_l(c: char) -> Option<AngMom> {
    match c.to_ascii_lowercase() {
        's' => Some(0),
        'p' => Some(1),
        'd' => Some(2),
        'f' => Some(3),
        'g' => Some(4),
        'h' => Some(5),
        _ => None,
    }
}

/// Double factorial `n!! = n (n-2) (n-4) ...` with `(-1)!! = 0!! = 1`.
/// Used by the Boys function asymptotics and Gaussian normalization.
#[must_use]
pub(crate) fn double_factorial(n: i64) -> f64 {
    if n <= 0 {
        return 1.0;
    }
    let mut acc = 1.0;
    let mut k = n;
    while k > 1 {
        acc *= k as f64;
        k -= 2;
    }
    acc
}

/// Normalization constant of a primitive Cartesian Gaussian
/// `x^i y^j z^k exp(-a r^2)`.
#[must_use]
pub(crate) fn primitive_norm(a: f64, comp: CartComp) -> f64 {
    let l = comp.l();
    let num = (2.0 * a / std::f64::consts::PI).powf(0.75)
        * (4.0 * a).powf(f64::from(l) / 2.0);
    let den = (double_factorial(2 * i64::from(comp.i) - 1)
        * double_factorial(2 * i64::from(comp.j) - 1)
        * double_factorial(2 * i64::from(comp.k) - 1))
    .sqrt();
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shell_sizes_match_formula() {
        assert_eq!(shell_size(0), 1); // s
        assert_eq!(shell_size(1), 3); // p
        assert_eq!(shell_size(2), 6); // d
        assert_eq!(shell_size(3), 10); // f
        assert_eq!(shell_size(4), 15); // g
    }

    #[test]
    fn components_have_correct_count_and_l() {
        for l in 0..=5 {
            let comps = components(l);
            assert_eq!(comps.len(), shell_size(l));
            for c in &comps {
                assert_eq!(c.l(), l);
            }
            // All distinct.
            let mut set = std::collections::HashSet::new();
            for c in comps {
                assert!(set.insert((c.i, c.j, c.k)));
            }
        }
    }

    #[test]
    fn p_shell_order_is_xyz() {
        let comps = components(1);
        assert_eq!(comps[0], CartComp { i: 1, j: 0, k: 0 });
        assert_eq!(comps[1], CartComp { i: 0, j: 1, k: 0 });
        assert_eq!(comps[2], CartComp { i: 0, j: 0, k: 1 });
    }

    #[test]
    fn d_shell_order() {
        // xx, xy, xz, yy, yz, zz
        let comps = components(2);
        assert_eq!(comps[0], CartComp { i: 2, j: 0, k: 0 });
        assert_eq!(comps[1], CartComp { i: 1, j: 1, k: 0 });
        assert_eq!(comps[2], CartComp { i: 1, j: 0, k: 1 });
        assert_eq!(comps[3], CartComp { i: 0, j: 2, k: 0 });
        assert_eq!(comps[4], CartComp { i: 0, j: 1, k: 1 });
        assert_eq!(comps[5], CartComp { i: 0, j: 0, k: 2 });
    }

    #[test]
    fn letters_roundtrip() {
        for l in 0..=5 {
            assert_eq!(letter_to_l(shell_letter(l)), Some(l));
        }
        assert_eq!(letter_to_l('q'), None);
    }

    #[test]
    fn double_factorials() {
        assert_eq!(double_factorial(-1), 1.0);
        assert_eq!(double_factorial(0), 1.0);
        assert_eq!(double_factorial(1), 1.0);
        assert_eq!(double_factorial(2), 2.0);
        assert_eq!(double_factorial(5), 15.0);
        assert_eq!(double_factorial(7), 105.0);
        assert_eq!(double_factorial(8), 384.0);
    }

    #[test]
    fn s_norm_matches_closed_form() {
        // For an s Gaussian, N = (2a/pi)^{3/4}.
        let a = 0.7;
        let n = primitive_norm(a, CartComp { i: 0, j: 0, k: 0 });
        let expect = (2.0 * a / std::f64::consts::PI).powf(0.75);
        assert!((n - expect).abs() < 1e-14);
    }
}
