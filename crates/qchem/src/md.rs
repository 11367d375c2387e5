//! Hermite Coulomb integrals and full ERI shell-quartet blocks
//! (McMurchie–Davidson scheme).
//!
//! The two-electron repulsion integral over primitive Cartesian Gaussians
//! reduces to
//!
//! ```text
//! (ab|cd) = 2π^{5/2} / (pq √(p+q))
//!           Σ_{tuv} E_t E_u E_v  Σ_{τνφ} (-1)^{τ+ν+φ} E_τ E_ν E_φ
//!           R_{t+τ, u+ν, v+φ}(α, P − Q)
//! ```
//!
//! with bra/ket pair exponents `p = a + b`, `q = c + d`, reduced exponent
//! `α = pq/(p+q)`, and Hermite Coulomb integrals `R^n_{tuv}` built from the
//! Boys function by the standard recurrences. This module evaluates whole
//! shell-quartet *blocks* — the 4-D tensors of Fig. 2 of the paper — laid
//! out exactly as PaSTRI consumes them: index `((i·N2 + j)·N3 + k)·N4 + l`.

use crate::angular::{components, primitive_norm, CartComp};
#[cfg(test)]
use crate::angular::shell_size;
use crate::basis::Shell;
use crate::boys;
use crate::hermite::ETable;

/// Hermite Coulomb integral table `R_{tuv} = R^0_{tuv}` for one primitive
/// quartet, valid for `t + u + v ≤ l_total`.
#[derive(Debug)]
pub(crate) struct RTable {
    data: Vec<f64>,
    dim: usize, // l_total + 1
}

impl RTable {
    /// Builds `R^0_{tuv}` for reduced exponent `alpha` and centre
    /// displacement `pq = P − Q`, up to total Hermite order `l_total`.
    #[must_use]
    pub(crate) fn build(l_total: usize, alpha: f64, pq: [f64; 3]) -> Self {
        let dim = l_total + 1;
        let t2 = alpha * (pq[0] * pq[0] + pq[1] * pq[1] + pq[2] * pq[2]);
        let fs = boys::boys_vec(l_total, t2);

        // r[n][t][u][v], flattened; only n + t + u + v ≤ l_total is touched.
        let stride_v = dim;
        let stride_u = dim * stride_v;
        let stride_t = dim * stride_u;
        let idx = |n: usize, t: usize, u: usize, v: usize| n * stride_t + t * stride_u + u * stride_v + v;
        let mut r = vec![0.0f64; dim * stride_t];

        let mut pow = 1.0;
        for n in 0..=l_total {
            r[idx(n, 0, 0, 0)] = pow * fs[n];
            pow *= -2.0 * alpha;
        }
        // Build up total Hermite order; each step consumes order n+1 data.
        for total in 1..=l_total {
            for t in 0..=total {
                for u in 0..=(total - t) {
                    let v = total - t - u;
                    for n in 0..=(l_total - total) {
                        let val = if t > 0 {
                            let mut x = pq[0] * r[idx(n + 1, t - 1, u, v)];
                            if t > 1 {
                                x += (t - 1) as f64 * r[idx(n + 1, t - 2, u, v)];
                            }
                            x
                        } else if u > 0 {
                            let mut x = pq[1] * r[idx(n + 1, t, u - 1, v)];
                            if u > 1 {
                                x += (u - 1) as f64 * r[idx(n + 1, t, u - 2, v)];
                            }
                            x
                        } else {
                            let mut x = pq[2] * r[idx(n + 1, t, u, v - 1)];
                            if v > 1 {
                                x += (v - 1) as f64 * r[idx(n + 1, t, u, v - 2)];
                            }
                            x
                        };
                        r[idx(n, t, u, v)] = val;
                    }
                }
            }
        }
        // Keep only the n = 0 slab.
        let mut data = vec![0.0f64; stride_t];
        data.copy_from_slice(&r[..stride_t]);
        Self { data, dim }
    }

    /// `R^0_{tuv}`.
    #[inline]
    #[must_use]
    pub(crate) fn get(&self, t: usize, u: usize, v: usize) -> f64 {
        self.data[(t * self.dim + u) * self.dim + v]
    }
}

/// Precomputed pair data for one (shell, shell) bra or ket pair: Hermite
/// expansion tables and Gaussian-product constants for every primitive
/// combination.
///
/// ERI evaluation over a dataset touches each *pair* once per quartet it
/// participates in; since a pair appears in O(n_shells²) quartets,
/// hoisting the `E_t^{ij}` tables out of the quartet loop (the standard
/// "shell-pair data" optimization of integral codes) removes the dominant
/// redundant work.
#[derive(Debug, Clone)]
pub(crate) struct ShellPair {
    /// Angular momenta of the two shells.
    pub la: usize,
    pub lb: usize,
    /// Cartesian components, cached.
    comps_a: Vec<CartComp>,
    comps_b: Vec<CartComp>,
    /// Per primitive combination: `(p, P, E-tables, coef_a·coef_b, a, b)`.
    prims: Vec<PairPrimitive>,
}

#[derive(Debug, Clone)]
struct PairPrimitive {
    p: f64,
    center: [f64; 3],
    e: [ETable; 3],
    coef: f64,
    a: f64,
    b: f64,
}

impl ShellPair {
    /// Builds the pair tables for shells `sa`, `sb`.
    #[must_use]
    pub(crate) fn build(sa: &Shell, sb: &Shell) -> Self {
        let (la, lb) = (sa.l as usize, sb.l as usize);
        let mut prims = Vec::with_capacity(sa.exps.len() * sb.exps.len());
        for (pa, &a) in sa.exps.iter().enumerate() {
            for (pb, &b) in sb.exps.iter().enumerate() {
                let p = a + b;
                let center: [f64; 3] =
                    std::array::from_fn(|d| (a * sa.center[d] + b * sb.center[d]) / p);
                let e: [ETable; 3] = std::array::from_fn(|d| {
                    ETable::build(la, lb, a, b, sa.center[d], sb.center[d])
                });
                prims.push(PairPrimitive {
                    p,
                    center,
                    e,
                    coef: sa.coefs[pa] * sb.coefs[pb],
                    a,
                    b,
                });
            }
        }
        Self {
            la,
            lb,
            comps_a: components(sa.l),
            comps_b: components(sb.l),
            prims,
        }
    }
}

/// Computes the full contracted ERI block for a shell quartet.
///
/// Returns a vector of length `N1·N2·N3·N4` where `Nk = shell_size(l_k)`,
/// laid out with the bra indices slowest — so the `N1·N2` sub-blocks of
/// size `N3·N4` are exactly the sub-blocks PaSTRI scales against each other.
#[must_use]
pub fn eri_block(sa: &Shell, sb: &Shell, sc: &Shell, sd: &Shell) -> Vec<f64> {
    eri_block_from_pairs(&ShellPair::build(sa, sb), &ShellPair::build(sc, sd))
}

/// Like [`eri_block`], but with the pair tables precomputed — use this
/// when evaluating many quartets sharing bra/ket pairs.
#[must_use]
pub(crate) fn eri_block_from_pairs(bra: &ShellPair, ket: &ShellPair) -> Vec<f64> {
    let (na, nb, nc, nd) = (
        bra.comps_a.len(),
        bra.comps_b.len(),
        ket.comps_a.len(),
        ket.comps_b.len(),
    );
    let mut block = vec![0.0f64; na * nb * nc * nd];
    let l_total = bra.la + bra.lb + ket.la + ket.lb;

    for bp in &bra.prims {
        for kp in &ket.prims {
            let (p, q) = (bp.p, kp.p);
            let alpha = p * q / (p + q);
            let pq = [
                bp.center[0] - kp.center[0],
                bp.center[1] - kp.center[1],
                bp.center[2] - kp.center[2],
            ];
            let r = RTable::build(l_total, alpha, pq);
            let prefactor =
                2.0 * std::f64::consts::PI.powf(2.5) / (p * q * (p + q).sqrt()) * bp.coef * kp.coef;
            accumulate_primitive(
                &mut block,
                prefactor,
                &bra.comps_a,
                &bra.comps_b,
                &ket.comps_a,
                &ket.comps_b,
                &bp.e,
                &kp.e,
                &r,
                bp.a,
                bp.b,
                kp.a,
                kp.b,
            );
        }
    }
    block
}

/// Inner assembly loop for one primitive quartet.
#[allow(clippy::too_many_arguments)]
fn accumulate_primitive(
    block: &mut [f64],
    prefactor: f64,
    comps_a: &[CartComp],
    comps_b: &[CartComp],
    comps_c: &[CartComp],
    comps_d: &[CartComp],
    e_ab: &[ETable; 3],
    e_cd: &[ETable; 3],
    r: &RTable,
    a: f64,
    b: f64,
    c: f64,
    d: f64,
) {
    let (nb, nc, nd) = (comps_b.len(), comps_c.len(), comps_d.len());
    for (ia, ca) in comps_a.iter().enumerate() {
        let norm_a = primitive_norm(a, *ca);
        for (ib, cb) in comps_b.iter().enumerate() {
            let norm_b = primitive_norm(b, *cb);
            let (ix, jx) = (ca.i as usize, cb.i as usize);
            let (iy, jy) = (ca.j as usize, cb.j as usize);
            let (iz, jz) = (ca.k as usize, cb.k as usize);
            for (ic, cc) in comps_c.iter().enumerate() {
                let norm_c = primitive_norm(c, *cc);
                for (id, cd) in comps_d.iter().enumerate() {
                    let norm_d = primitive_norm(d, *cd);
                    let (kx, lx) = (cc.i as usize, cd.i as usize);
                    let (ky, ly) = (cc.j as usize, cd.j as usize);
                    let (kz, lz) = (cc.k as usize, cd.k as usize);

                    let mut sum = 0.0f64;
                    for t in 0..=(ix + jx) {
                        let etx = e_ab[0].get(ix, jx, t);
                        if etx == 0.0 {
                            continue;
                        }
                        for u in 0..=(iy + jy) {
                            let euy = e_ab[1].get(iy, jy, u);
                            if euy == 0.0 {
                                continue;
                            }
                            for v in 0..=(iz + jz) {
                                let evz = e_ab[2].get(iz, jz, v);
                                if evz == 0.0 {
                                    continue;
                                }
                                let e_bra = etx * euy * evz;
                                let mut ket = 0.0f64;
                                for tau in 0..=(kx + lx) {
                                    let etau = e_cd[0].get(kx, lx, tau);
                                    if etau == 0.0 {
                                        continue;
                                    }
                                    for nu in 0..=(ky + ly) {
                                        let enu = e_cd[1].get(ky, ly, nu);
                                        if enu == 0.0 {
                                            continue;
                                        }
                                        for phi in 0..=(kz + lz) {
                                            let ephi = e_cd[2].get(kz, lz, phi);
                                            if ephi == 0.0 {
                                                continue;
                                            }
                                            let sign = if (tau + nu + phi) % 2 == 0 {
                                                1.0
                                            } else {
                                                -1.0
                                            };
                                            ket += sign
                                                * etau
                                                * enu
                                                * ephi
                                                * r.get(t + tau, u + nu, v + phi);
                                        }
                                    }
                                }
                                sum += e_bra * ket;
                            }
                        }
                    }
                    let idx = ((ia * nb + ib) * nc + ic) * nd + id;
                    block[idx] += prefactor * norm_a * norm_b * norm_c * norm_d * sum;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::Shell;

    fn s_shell(center: [f64; 3], exp: f64) -> Shell {
        Shell {
            center,
            l: 0,
            exps: vec![exp],
            coefs: vec![1.0],
        }
    }

    /// (ss|ss) on four identical centres has the closed form
    /// `2 π^{5/2} / (pq√(p+q)) · N⁴` with all E factors 1 and F_0(0)=1.
    #[test]
    fn ssss_same_center_closed_form() {
        let a = 0.8;
        let s = s_shell([0.0; 3], a);
        let block = eri_block(&s, &s, &s, &s);
        assert_eq!(block.len(), 1);
        let p = 2.0 * a;
        let q = 2.0 * a;
        let norm = (2.0 * a / std::f64::consts::PI).powf(0.75);
        let expect = 2.0 * std::f64::consts::PI.powf(2.5) / (p * q * (p + q).sqrt())
            * norm.powi(4);
        assert!(
            (block[0] - expect).abs() < 1e-12 * expect,
            "got {} want {}",
            block[0],
            expect
        );
    }

    /// Known value: for unit-exponent s Gaussians on one centre the
    /// normalized ERI is √(2/π)·2… — instead of trusting a constant, check
    /// against the F_0 closed form at separation R:
    /// (ss|ss)(R) = prefactor · N⁴ · F_0(α R²).
    #[test]
    fn ssss_separated_matches_boys_form() {
        let a = 1.1;
        let b = 0.6;
        let s1 = s_shell([0.0; 3], a);
        let s2 = s_shell([0.0, 0.0, 2.5], b);
        // (s1 s1 | s2 s2): bra on origin, ket at z = 2.5.
        let block = eri_block(&s1, &s1, &s2, &s2);
        let p = 2.0 * a;
        let q = 2.0 * b;
        let alpha = p * q / (p + q);
        let r2 = 2.5f64 * 2.5;
        let f0 = crate::boys::boys_vec(0, alpha * r2)[0];
        let na = (2.0 * a / std::f64::consts::PI).powf(0.75);
        let nb2 = (2.0 * b / std::f64::consts::PI).powf(0.75);
        let expect = 2.0 * std::f64::consts::PI.powf(2.5) / (p * q * (p + q).sqrt())
            * na.powi(2)
            * nb2.powi(2)
            * f0;
        assert!(
            (block[0] - expect).abs() < 1e-12 * expect.abs(),
            "got {} want {}",
            block[0],
            expect
        );
    }

    #[test]
    fn block_layout_dimensions() {
        let d1 = Shell {
            center: [0.0; 3],
            l: 2,
            exps: vec![0.9],
            coefs: vec![1.0],
        };
        let p1 = Shell {
            center: [1.0, 0.0, 0.0],
            l: 1,
            exps: vec![0.5],
            coefs: vec![1.0],
        };
        let block = eri_block(&d1, &p1, &p1, &d1);
        assert_eq!(block.len(), 6 * 3 * 3 * 6);
    }

    /// ERIs are symmetric under bra/ket swap: (ab|cd) = (cd|ab).
    #[test]
    fn bra_ket_symmetry() {
        let sa = Shell {
            center: [0.1, -0.2, 0.3],
            l: 1,
            exps: vec![0.7],
            coefs: vec![1.0],
        };
        let sb = Shell {
            center: [1.1, 0.4, -0.5],
            l: 2,
            exps: vec![0.45],
            coefs: vec![1.0],
        };
        let ab = eri_block(&sa, &sa, &sb, &sb); // (aa|bb)
        let ba = eri_block(&sb, &sb, &sa, &sa); // (bb|aa)
        let (na, nb) = (shell_size(1), shell_size(2));
        for i in 0..na {
            for j in 0..na {
                for k in 0..nb {
                    for l in 0..nb {
                        let v1 = ab[((i * na + j) * nb + k) * nb + l];
                        let v2 = ba[((k * nb + l) * na + i) * na + j];
                        assert!(
                            (v1 - v2).abs() <= 1e-12 * v1.abs().max(1e-12),
                            "({i}{j}|{k}{l}): {v1} vs {v2}"
                        );
                    }
                }
            }
        }
    }

    /// Permutational symmetry within a pair: (ab|cd) = (ba|cd) when the two
    /// bra shells are the same shell object (same centre & exponent).
    #[test]
    fn intra_pair_symmetry_same_shell() {
        let sa = Shell {
            center: [0.0, 0.0, 0.0],
            l: 1,
            exps: vec![0.9],
            coefs: vec![1.0],
        };
        let sc = Shell {
            center: [0.0, 0.0, 3.0],
            l: 1,
            exps: vec![0.6],
            coefs: vec![1.0],
        };
        let block = eri_block(&sa, &sa, &sc, &sc);
        let n = 3;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    for l in 0..n {
                        let v1 = block[((i * n + j) * n + k) * n + l];
                        let v2 = block[((j * n + i) * n + k) * n + l];
                        assert!((v1 - v2).abs() <= 1e-13 * v1.abs().max(1e-13));
                        let v3 = block[((i * n + j) * n + l) * n + k];
                        assert!((v1 - v3).abs() <= 1e-13 * v1.abs().max(1e-13));
                    }
                }
            }
        }
    }

    /// Pair-precomputed evaluation must agree with the direct path to the
    /// last bit (same operations, hoisted).
    #[test]
    fn pair_path_matches_direct_path() {
        let sa = Shell {
            center: [0.1, 0.2, -0.3],
            l: 2,
            exps: vec![0.9, 2.1],
            coefs: vec![0.6, 0.5],
        };
        let sb = Shell {
            center: [1.3, -0.4, 0.2],
            l: 1,
            exps: vec![0.7],
            coefs: vec![1.0],
        };
        let sc = Shell {
            center: [0.0, 2.0, 1.0],
            l: 2,
            exps: vec![1.4],
            coefs: vec![1.0],
        };
        let direct = eri_block(&sa, &sb, &sb, &sc);
        let bra = ShellPair::build(&sa, &sb);
        let ket = ShellPair::build(&sb, &sc);
        let paired = eri_block_from_pairs(&bra, &ket);
        assert_eq!(direct.len(), paired.len());
        for (a, b) in direct.iter().zip(&paired) {
            assert_eq!(a.to_bits(), b.to_bits(), "pair path diverged");
        }
    }

    /// Far-field factorization — the physical property PaSTRI exploits:
    /// for well-separated bra and ket pairs, sub-blocks are near scalar
    /// multiples of each other (Eq. (2)/(3) of the paper).
    #[test]
    fn far_field_subblocks_are_scaled_copies() {
        let da = Shell {
            center: [0.0, 0.0, 0.0],
            l: 2,
            exps: vec![1.2],
            coefs: vec![1.0],
        };
        let db = Shell {
            center: [0.8, 0.3, -0.2],
            l: 2,
            exps: vec![0.9],
            coefs: vec![1.0],
        };
        let dc = Shell {
            center: [0.1, 0.2, 14.0],
            l: 2,
            exps: vec![1.1],
            coefs: vec![1.0],
        };
        let dd = Shell {
            center: [-0.4, 0.6, 14.5],
            l: 2,
            exps: vec![0.8],
            coefs: vec![1.0],
        };
        let block = eri_block(&da, &db, &dc, &dd);
        let n = shell_size(2);
        let sb_size = n * n;
        // Reference sub-block: the one with the largest extremum.
        let num_sb = n * n;
        let mut best = 0usize;
        let mut best_ext = 0.0f64;
        for s in 0..num_sb {
            let ext = block[s * sb_size..(s + 1) * sb_size]
                .iter()
                .fold(0.0f64, |m, &v| m.max(v.abs()));
            if ext > best_ext {
                best_ext = ext;
                best = s;
            }
        }
        let pat = &block[best * sb_size..(best + 1) * sb_size];
        let pat_ext_idx = (0..sb_size)
            .max_by(|&x, &y| pat[x].abs().partial_cmp(&pat[y].abs()).unwrap())
            .unwrap();
        // Every other sub-block must match a scaled pattern to ~1e-3 of the
        // block extremum (far field is approximate, not exact).
        for s in 0..num_sb {
            let sb = &block[s * sb_size..(s + 1) * sb_size];
            let scale = sb[pat_ext_idx] / pat[pat_ext_idx];
            for i in 0..sb_size {
                let dev = (sb[i] - scale * pat[i]).abs();
                assert!(
                    dev < 5e-3 * best_ext,
                    "sub-block {s} point {i}: dev {dev:e} vs ext {best_ext:e}"
                );
            }
        }
    }
}
