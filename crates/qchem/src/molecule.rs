//! Benchmark molecules.
//!
//! The paper evaluates on tri-alanine, benzene, and glutamine (Fig. 8).
//! We carry the same three systems with approximate 3-D geometries:
//! benzene is generated exactly (D6h hexagon), the two peptide-like
//! molecules use chemically plausible coordinates (standard bond lengths,
//! zigzag backbones). For compression behaviour only the *distribution of
//! inter-centre distances* matters — it controls how many shell quartets
//! are far-field (strongly patterned) versus near-field (weakly
//! patterned) — and these geometries reproduce that distribution.

/// Bohr per Ångström.
pub const ANGSTROM: f64 = 1.889_726_124_626_18;

/// One atom: nuclear charge and position in Bohr.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Atom {
    pub z: u32,
    pub pos: [f64; 3],
}

/// A molecular geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct Molecule {
    pub name: &'static str,
    pub atoms: Vec<Atom>,
}

impl Molecule {
    /// Number of heavy (non-H) atoms — these carry the d/f shells.
    #[must_use]
    pub fn heavy_atom_count(&self) -> usize {
        self.atoms.iter().filter(|a| a.z > 1).count()
    }

    /// Benzene, C6H6: planar hexagon, r(C) = 1.397 Å, r(H) = 2.481 Å.
    #[must_use]
    pub fn benzene() -> Self {
        let mut atoms = Vec::with_capacity(12);
        for i in 0..6 {
            let th = std::f64::consts::PI / 3.0 * i as f64;
            atoms.push(Atom {
                z: 6,
                pos: [
                    1.397 * ANGSTROM * th.cos(),
                    1.397 * ANGSTROM * th.sin(),
                    0.0,
                ],
            });
        }
        for i in 0..6 {
            let th = std::f64::consts::PI / 3.0 * i as f64;
            atoms.push(Atom {
                z: 1,
                pos: [
                    2.481 * ANGSTROM * th.cos(),
                    2.481 * ANGSTROM * th.sin(),
                    0.0,
                ],
            });
        }
        Self {
            name: "benzene",
            atoms,
        }
    }

    /// Glutamine, C5H10N2O3 (10 heavy atoms): approximate extended
    /// side-chain conformation.
    #[must_use]
    pub fn glutamine() -> Self {
        // Heavy-atom skeleton (Å): backbone N-CA-C(=O)(-OH), side chain
        // CB-CG-CD(=OE1)(-NE2).
        let heavy: [(u32, [f64; 3]); 10] = [
            (7, [0.000, 0.000, 0.000]),   // N
            (6, [1.458, 0.000, 0.000]),   // CA
            (6, [2.009, 1.420, 0.000]),   // C
            (8, [1.251, 2.390, 0.120]),   // O
            (8, [3.330, 1.570, -0.140]),  // OXT
            (6, [2.030, -0.760, 1.220]),  // CB
            (6, [3.550, -0.870, 1.260]),  // CG
            (6, [4.120, -1.640, 2.440]),  // CD
            (8, [3.420, -2.180, 3.290]),  // OE1
            (7, [5.450, -1.720, 2.540]),  // NE2
        ];
        let hydrogens: [[f64; 3]; 10] = [
            [-0.480, 0.880, -0.100],
            [-0.480, -0.820, 0.300],
            [1.800, -0.500, -0.920],
            [1.660, -0.300, 2.140],
            [1.700, -1.790, 1.180],
            [3.930, -1.350, 0.350],
            [3.960, 0.140, 1.300],
            [6.010, -1.280, 1.830],
            [5.880, -2.230, 3.300],
            [3.840, 2.400, -0.120], // carboxyl H
        ];
        let mut atoms: Vec<Atom> = heavy
            .iter()
            .map(|&(z, p)| Atom {
                z,
                pos: [p[0] * ANGSTROM, p[1] * ANGSTROM, p[2] * ANGSTROM],
            })
            .collect();
        atoms.extend(hydrogens.iter().map(|&p| Atom {
            z: 1,
            pos: [p[0] * ANGSTROM, p[1] * ANGSTROM, p[2] * ANGSTROM],
        }));
        Self {
            name: "glutamine",
            atoms,
        }
    }

    /// Tri-alanine (Ala-Ala-Ala), C9H17N3O4 (16 heavy atoms): extended
    /// β-strand-like backbone so residue-residue separations span 0–9 Å.
    #[must_use]
    pub fn tri_alanine() -> Self {
        let mut atoms = Vec::new();
        // Each residue: N, CA, C, O, CB. Backbone advances ~3.6 Å/residue.
        for r in 0..3 {
            let x0 = 3.62 * r as f64;
            let flip = if r % 2 == 0 { 1.0 } else { -1.0 };
            let heavy: [(u32, [f64; 3]); 5] = [
                (7, [x0, 0.25 * flip, 0.00]),          // N
                (6, [x0 + 1.20, -0.45 * flip, 0.10]),  // CA
                (6, [x0 + 2.45, 0.40 * flip, 0.00]),   // C
                (8, [x0 + 2.50, 1.62 * flip, -0.15]),  // O
                (6, [x0 + 1.25, -1.35 * flip, 1.33]),  // CB
            ];
            for &(z, p) in &heavy {
                atoms.push(Atom {
                    z,
                    pos: [p[0] * ANGSTROM, p[1] * ANGSTROM, p[2] * ANGSTROM],
                });
            }
            // Amide/alpha hydrogens (2 per residue) + 3 methyl H.
            let hs: [[f64; 3]; 5] = [
                [x0 - 0.45, 1.05 * flip, 0.25],
                [x0 + 1.15, -1.05 * flip, -0.80],
                [x0 + 0.45, -2.05 * flip, 1.40],
                [x0 + 2.20, -1.85 * flip, 1.40],
                [x0 + 1.10, -0.75 * flip, 2.25],
            ];
            for &p in &hs {
                atoms.push(Atom {
                    z: 1,
                    pos: [p[0] * ANGSTROM, p[1] * ANGSTROM, p[2] * ANGSTROM],
                });
            }
        }
        // C-terminal carboxyl oxygen + its H, N-terminal extra H.
        atoms.push(Atom {
            z: 8,
            pos: [
                (2.0 * 3.62 + 3.45) * ANGSTROM,
                -0.35 * ANGSTROM,
                0.30 * ANGSTROM,
            ],
        });
        atoms.push(Atom {
            z: 1,
            pos: [
                (2.0 * 3.62 + 4.15) * ANGSTROM,
                0.25 * ANGSTROM,
                0.30 * ANGSTROM,
            ],
        });
        atoms.push(Atom {
            z: 1,
            pos: [-0.65 * ANGSTROM, -0.55 * ANGSTROM, 0.15 * ANGSTROM],
        });
        Self {
            name: "tri-alanine",
            atoms,
        }
    }

    /// Tiles `copies` images of this molecule along a shifted diagonal at
    /// `spacing` Ångström, producing a molecular cluster.
    ///
    /// Production quantum-chemistry datasets (the paper's multi-GB GAMESS
    /// files) come from systems much larger than one small molecule; their
    /// shell-quartet population is dominated by *inter-fragment* quartets
    /// at van-der-Waals distances and beyond — exactly the far-field
    /// regime PaSTRI's pattern scaling exploits. A cluster reproduces that
    /// population from the same monomer geometry.
    #[must_use]
    pub fn cluster(&self, copies: usize, spacing: f64) -> Molecule {
        assert!(copies >= 1);
        let mut atoms = Vec::with_capacity(self.atoms.len() * copies);
        for c in 0..copies {
            // Slightly staggered stacking so images are not collinear.
            let dx = spacing * ANGSTROM * c as f64;
            let dy = 0.35 * spacing * ANGSTROM * (c % 2) as f64;
            let dz = 0.8 * spacing * ANGSTROM * c as f64;
            for a in &self.atoms {
                atoms.push(Atom {
                    z: a.z,
                    pos: [a.pos[0] + dx, a.pos[1] + dy, a.pos[2] + dz],
                });
            }
        }
        Molecule {
            name: self.name,
            atoms,
        }
    }

    /// Looks up a benchmark molecule by name (`"benzene"`, `"glutamine"`,
    /// `"alanine"`/`"tri-alanine"`).
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "benzene" => Some(Self::benzene()),
            "glutamine" => Some(Self::glutamine()),
            "alanine" | "tri-alanine" | "trialanine" => Some(Self::tri_alanine()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benzene_composition() {
        let m = Molecule::benzene();
        assert_eq!(m.atoms.len(), 12);
        assert_eq!(m.heavy_atom_count(), 6);
        assert_eq!(m.atoms.iter().filter(|a| a.z == 6).count(), 6);
    }

    #[test]
    fn glutamine_composition() {
        // C5H10N2O3
        let m = Molecule::glutamine();
        assert_eq!(m.atoms.len(), 20);
        assert_eq!(m.atoms.iter().filter(|a| a.z == 6).count(), 5);
        assert_eq!(m.atoms.iter().filter(|a| a.z == 7).count(), 2);
        assert_eq!(m.atoms.iter().filter(|a| a.z == 8).count(), 3);
        assert_eq!(m.atoms.iter().filter(|a| a.z == 1).count(), 10);
    }

    #[test]
    fn tri_alanine_composition() {
        // C9H17N3O4
        let m = Molecule::tri_alanine();
        assert_eq!(m.atoms.iter().filter(|a| a.z == 6).count(), 9);
        assert_eq!(m.atoms.iter().filter(|a| a.z == 7).count(), 3);
        assert_eq!(m.atoms.iter().filter(|a| a.z == 8).count(), 4);
        assert_eq!(m.atoms.iter().filter(|a| a.z == 1).count(), 17);
        assert_eq!(m.heavy_atom_count(), 16);
    }

    #[test]
    fn benzene_cc_bond_length() {
        let m = Molecule::benzene();
        let d: f64 = (0..3)
            .map(|k| (m.atoms[0].pos[k] - m.atoms[1].pos[k]).powi(2))
            .sum::<f64>()
            .sqrt();
        // Adjacent ring carbons: 1.397 Å.
        assert!((d / ANGSTROM - 1.397).abs() < 1e-6);
    }

    #[test]
    fn no_atom_collisions() {
        for m in [
            Molecule::tri_alanine(),
            Molecule::benzene(),
            Molecule::glutamine(),
        ] {
            for i in 0..m.atoms.len() {
                for j in (i + 1)..m.atoms.len() {
                    let d: f64 = (0..3)
                        .map(|k| (m.atoms[i].pos[k] - m.atoms[j].pos[k]).powi(2))
                        .sum::<f64>()
                        .sqrt();
                    assert!(
                        d > 0.7 * ANGSTROM,
                        "{}: atoms {i},{j} only {} Bohr apart",
                        m.name,
                        d
                    );
                }
            }
        }
    }

    #[test]
    fn by_name_lookup() {
        assert!(Molecule::by_name("benzene").is_some());
        assert!(Molecule::by_name("Tri-Alanine").is_some());
        assert!(Molecule::by_name("water").is_none());
    }

    #[test]
    fn distance_distribution_has_near_and_far_pairs() {
        // The compression story needs both near-field (< 3 Å) and
        // far-field (> 6 Å) heavy-atom pairs.
        let m = Molecule::tri_alanine();
        let heavy: Vec<_> = m.atoms.iter().filter(|a| a.z > 1).collect();
        let mut near = 0;
        let mut far = 0;
        for i in 0..heavy.len() {
            for j in (i + 1)..heavy.len() {
                let d: f64 = (0..3)
                    .map(|k| (heavy[i].pos[k] - heavy[j].pos[k]).powi(2))
                    .sum::<f64>()
                    .sqrt()
                    / ANGSTROM;
                if d < 3.0 {
                    near += 1;
                }
                if d > 6.0 {
                    far += 1;
                }
            }
        }
        assert!(near > 5, "near pairs: {near}");
        assert!(far > 5, "far pairs: {far}");
    }
}
