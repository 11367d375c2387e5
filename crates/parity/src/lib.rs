//! GF(256) Reed–Solomon erasure coding for PaSTRI parity groups.
//!
//! The v3 container groups compressed blocks into parity groups and
//! stores a handful of erasure shards per group, so that any `k` damaged
//! blocks (where `k` = the parity shard count) can be reconstructed
//! byte-exactly from the survivors. This crate is the arithmetic core:
//! systematic Reed–Solomon over GF(2^8) with the 0x11d polynomial and a
//! Cauchy coding matrix, implemented dependency-free per the repo's
//! vendored-compat policy.
//!
//! Why Cauchy rather than the textbook Vandermonde construction: every
//! square submatrix of a Cauchy matrix is invertible, so the extended
//! matrix `[I; C]` is MDS by construction — *any* `d` surviving shards
//! out of `d + p` suffice — with no per-parameter validation needed.
//!
//! Erasure-only decoding: callers know *which* shards are damaged
//! (PaSTRI stores a CRC32 per block and per shard), so decoding is a
//! single `d × d` Gauss–Jordan inversion over the surviving rows, not a
//! full error-locating decoder.

/// Log/antilog tables for GF(2^8) with the primitive polynomial
/// x^8 + x^4 + x^3 + x^2 + 1 (0x11d); α = 2 is primitive.
const EXP: [u8; 512] = GF_TABLES.0;
const LOG: [u8; 256] = GF_TABLES.1;

const GF_TABLES: ([u8; 512], [u8; 256]) = build_tables();

const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x11d;
        }
        i += 1;
    }
    // Duplicate the cycle so `exp[log a + log b]` never needs a mod 255.
    while i < 512 {
        exp[i] = exp[i - 255];
        i += 1;
    }
    (exp, log)
}

/// GF(2^8) multiplication.
#[inline]
#[must_use]
pub(crate) fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// GF(2^8) multiplicative inverse. Panics on 0 (which has none).
#[inline]
#[must_use]
pub(crate) fn gf_inv(a: u8) -> u8 {
    assert!(a != 0, "0 has no inverse in GF(256)");
    EXP[255 - LOG[a as usize] as usize]
}

/// `dst[k] ^= c · src[k]` over the common length. One 256-entry product
/// row is built per call, so the byte loop is a lookup and an xor with
/// no branch — the encode and repair kernel.
fn mul_add(dst: &mut [u8], src: &[u8], c: u8) {
    if c == 0 {
        return;
    }
    let lc = LOG[c as usize] as usize;
    let mut row = [0u8; 256];
    for (x, r) in row.iter_mut().enumerate().skip(1) {
        *r = EXP[lc + LOG[x] as usize];
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= row[s as usize];
    }
}

/// Why encoding or reconstruction failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParityError {
    /// `data + parity` shards exceed the GF(256) limit of 255.
    TooManyShards {
        /// Requested data + parity shard count.
        total: usize,
    },
    /// A shard's length differs from the others in its group.
    ShardLengthMismatch,
    /// The shard array handed to [`ReedSolomon::reconstruct`] does not
    /// have `data + parity` entries.
    WrongShardCount {
        /// Entries expected (`data + parity`).
        expected: usize,
        /// Entries received.
        actual: usize,
    },
    /// Fewer than `data` shards survive: the erasures exceed the parity
    /// budget and the group is unrecoverable.
    TooManyErasures {
        /// Shards still present.
        present: usize,
        /// Shards needed (`data`).
        needed: usize,
    },
}

impl std::fmt::Display for ParityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParityError::TooManyShards { total } => {
                write!(f, "{total} shards exceed the GF(256) limit of 255")
            }
            ParityError::ShardLengthMismatch => write!(f, "shard lengths differ within a group"),
            ParityError::WrongShardCount { expected, actual } => {
                write!(f, "expected {expected} shard slots, got {actual}")
            }
            ParityError::TooManyErasures { present, needed } => write!(
                f,
                "only {present} of the {needed} shards needed to reconstruct survive"
            ),
        }
    }
}

impl std::error::Error for ParityError {}

/// A systematic Reed–Solomon code over GF(2^8): `data` payload shards
/// protected by `parity` erasure shards. Any `data` survivors out of the
/// `data + parity` total reconstruct the rest exactly.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    data: usize,
    parity: usize,
}

impl ReedSolomon {
    /// A code for `data` payload shards and `parity` erasure shards.
    /// `data ≥ 1`, `parity ≥ 1`, and `data + parity ≤ 255`.
    pub fn new(data: usize, parity: usize) -> Result<Self, ParityError> {
        assert!(data >= 1 && parity >= 1, "need at least one shard each way");
        if data + parity > 255 {
            return Err(ParityError::TooManyShards {
                total: data + parity,
            });
        }
        Ok(Self { data, parity })
    }

    /// Cauchy coefficient for parity row `j`, data column `i`:
    /// `1 / (x_j ⊕ y_i)` with `x_j = data + j`, `y_i = i`. The `x` and
    /// `y` points are disjoint, so the denominator is never zero.
    #[inline]
    fn coef(&self, j: usize, i: usize) -> u8 {
        gf_inv(((self.data + j) as u8) ^ (i as u8))
    }

    /// Computes the `parity` shards for equal-length `shards` (one slice
    /// per data shard). Returns the parity shards, each the same length.
    pub fn encode(&self, shards: &[&[u8]]) -> Result<Vec<Vec<u8>>, ParityError> {
        if shards.len() != self.data {
            return Err(ParityError::WrongShardCount {
                expected: self.data,
                actual: shards.len(),
            });
        }
        let len = shards.first().map_or(0, |s| s.len());
        if shards.iter().any(|s| s.len() != len) {
            return Err(ParityError::ShardLengthMismatch);
        }
        let mut out = vec![vec![0u8; len]; self.parity];
        for (j, p) in out.iter_mut().enumerate() {
            for (i, s) in shards.iter().enumerate() {
                mul_add(p, s, self.coef(j, i));
            }
        }
        Ok(out)
    }

    /// Reconstructs every missing shard in place. `shards` must hold
    /// `data + parity` entries in order (data first); `None` marks an
    /// erasure, and all present shards must share one length. Fails with
    /// [`ParityError::TooManyErasures`] when fewer than `data` survive —
    /// the group is then unrecoverable and the caller falls back to the
    /// skip/salvage path.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), ParityError> {
        let total = self.data + self.parity;
        if shards.len() != total {
            return Err(ParityError::WrongShardCount {
                expected: total,
                actual: shards.len(),
            });
        }
        let mut len = None;
        for s in shards.iter().flatten() {
            match len {
                None => len = Some(s.len()),
                Some(l) if l != s.len() => return Err(ParityError::ShardLengthMismatch),
                _ => {}
            }
        }
        let present = shards.iter().filter(|s| s.is_some()).count();
        if present < self.data {
            return Err(ParityError::TooManyErasures {
                present,
                needed: self.data,
            });
        }
        if shards.iter().take(self.data).all(|s| s.is_some()) {
            // No data erasures: only parity needs regenerating.
            return self.refill_parity(shards, len.unwrap_or(0));
        }
        let len = len.unwrap_or(0);

        // Rows of the extended matrix [I; C] for the first `data`
        // surviving shards; solving M · orig = surv recovers the data.
        let d = self.data;
        let mut matrix = vec![0u8; d * d];
        let mut survivors: Vec<usize> = Vec::with_capacity(d);
        for (idx, s) in shards.iter().enumerate() {
            if s.is_some() {
                survivors.push(idx);
                if survivors.len() == d {
                    break;
                }
            }
        }
        for (r, &idx) in survivors.iter().enumerate() {
            if idx < d {
                matrix[r * d + idx] = 1;
            } else {
                for i in 0..d {
                    matrix[r * d + i] = self.coef(idx - d, i);
                }
            }
        }
        let inv = invert(&mut matrix, d).expect("Cauchy-extended submatrix is invertible");

        // orig[i] = Σ_r inv[i][r] · surv[r], column by column over bytes.
        let mut recovered = vec![vec![0u8; len]; d];
        for (i, out) in recovered.iter_mut().enumerate() {
            for (r, &idx) in survivors.iter().enumerate() {
                let src = shards[idx].as_ref().expect("survivor present");
                mul_add(out, src, inv[i * d + r]);
            }
        }
        for (i, rec) in recovered.into_iter().enumerate() {
            if shards[i].is_none() {
                shards[i] = Some(rec);
            } else {
                debug_assert_eq!(shards[i].as_deref(), Some(rec.as_slice()));
            }
        }
        self.refill_parity(shards, len)
    }

    /// Regenerates any missing parity shards from the (now complete)
    /// data shards.
    fn refill_parity(&self, shards: &mut [Option<Vec<u8>>], len: usize) -> Result<(), ParityError> {
        if shards[self.data..].iter().all(|s| s.is_some()) {
            return Ok(());
        }
        let _ = len;
        let data_refs: Vec<&[u8]> = shards[..self.data]
            .iter()
            .map(|s| s.as_deref().expect("data complete"))
            .collect();
        let parity = self.encode(&data_refs)?;
        for (slot, p) in shards[self.data..].iter_mut().zip(parity) {
            if slot.is_none() {
                *slot = Some(p);
            }
        }
        Ok(())
    }
}

/// Gauss–Jordan inversion of an `n × n` matrix over GF(2^8). Returns
/// `None` if singular (cannot happen for Cauchy-extended submatrices;
/// kept as a checked path rather than UB on a logic error).
fn invert(m: &mut [u8], n: usize) -> Option<Vec<u8>> {
    let mut inv = vec![0u8; n * n];
    for i in 0..n {
        inv[i * n + i] = 1;
    }
    for col in 0..n {
        // Find a pivot.
        let pivot = (col..n).find(|&r| m[r * n + col] != 0)?;
        if pivot != col {
            for k in 0..n {
                m.swap(pivot * n + k, col * n + k);
                inv.swap(pivot * n + k, col * n + k);
            }
        }
        let p = m[col * n + col];
        let pinv = gf_inv(p);
        for k in 0..n {
            m[col * n + k] = gf_mul(m[col * n + k], pinv);
            inv[col * n + k] = gf_mul(inv[col * n + k], pinv);
        }
        for r in 0..n {
            if r == col {
                continue;
            }
            let f = m[r * n + col];
            if f == 0 {
                continue;
            }
            for k in 0..n {
                let a = gf_mul(f, m[col * n + k]);
                let b = gf_mul(f, inv[col * n + k]);
                m[r * n + k] ^= a;
                inv[r * n + k] ^= b;
            }
        }
    }
    Some(inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_data(d: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        };
        (0..d).map(|_| (0..len).map(|_| next()).collect()).collect()
    }

    /// The per-byte log/exp encoder `encode` replaced, kept as the
    /// reference its output must equal.
    fn reference_encode(rs: &ReedSolomon, shards: &[&[u8]]) -> Vec<Vec<u8>> {
        let len = shards.first().map_or(0, |s| s.len());
        let mut out = vec![vec![0u8; len]; rs.parity];
        for (j, p) in out.iter_mut().enumerate() {
            for (i, s) in shards.iter().enumerate() {
                let c = rs.coef(j, i);
                if c == 0 {
                    continue;
                }
                let ct = LOG[c as usize] as usize;
                for (pb, &sb) in p.iter_mut().zip(s.iter()) {
                    if sb != 0 {
                        *pb ^= EXP[ct + LOG[sb as usize] as usize];
                    }
                }
            }
        }
        out
    }

    #[test]
    fn encode_matches_per_byte_reference() {
        for d in 1..=8usize {
            for p in 1..=4usize {
                for (len, seed) in [(0usize, 1u64), (1, 2), (97, 3), (1000, 4 + d as u64)] {
                    let rs = ReedSolomon::new(d, p).unwrap();
                    let mut data = shard_data(d, len, seed * 31 + p as u64);
                    if let Some(first) = data.first_mut() {
                        // Every byte value, zero included, through every coefficient.
                        for (k, b) in first.iter_mut().enumerate().take(256) {
                            *b = k as u8;
                        }
                    }
                    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
                    assert_eq!(
                        rs.encode(&refs).unwrap(),
                        reference_encode(&rs, &refs),
                        "data {d} parity {p} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn gf_field_axioms() {
        // α = 2 generates the multiplicative group: EXP hits every
        // nonzero byte exactly once per cycle.
        let mut seen = [false; 256];
        for i in 0..255 {
            seen[EXP[i] as usize] = true;
        }
        assert!(!seen[0]);
        assert!(seen[1..].iter().all(|&s| s));
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a={a}");
            assert_eq!(gf_mul(a, 1), a);
            assert_eq!(gf_mul(a, 0), 0);
        }
        // Known product under 0x11d: 2 · 128 = 0x11d mod x^8 = 0x1d.
        assert_eq!(gf_mul(2, 0x80), 0x1d);
        // Commutativity + associativity spot checks.
        for (a, b, c) in [(3u8, 7u8, 200u8), (91, 180, 255), (16, 16, 16)] {
            assert_eq!(gf_mul(a, b), gf_mul(b, a));
            assert_eq!(gf_mul(gf_mul(a, b), c), gf_mul(a, gf_mul(b, c)));
        }
    }

    #[test]
    fn encode_then_reconstruct_every_single_erasure() {
        let rs = ReedSolomon::new(8, 2).unwrap();
        let data = shard_data(8, 100, 42);
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let parity = rs.encode(&refs).unwrap();
        for erased in 0..10 {
            let mut shards: Vec<Option<Vec<u8>>> = data
                .iter()
                .cloned()
                .map(Some)
                .chain(parity.iter().cloned().map(Some))
                .collect();
            shards[erased] = None;
            rs.reconstruct(&mut shards).unwrap();
            for (i, d) in data.iter().enumerate() {
                assert_eq!(shards[i].as_ref().unwrap(), d, "erased={erased} shard={i}");
            }
            for (j, p) in parity.iter().enumerate() {
                assert_eq!(shards[8 + j].as_ref().unwrap(), p, "erased={erased} parity={j}");
            }
        }
    }

    #[test]
    fn reconstructs_every_pair_of_erasures() {
        let rs = ReedSolomon::new(6, 2).unwrap();
        let data = shard_data(6, 37, 7);
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let parity = rs.encode(&refs).unwrap();
        for a in 0..8 {
            for b in (a + 1)..8 {
                let mut shards: Vec<Option<Vec<u8>>> = data
                    .iter()
                    .cloned()
                    .map(Some)
                    .chain(parity.iter().cloned().map(Some))
                    .collect();
                shards[a] = None;
                shards[b] = None;
                rs.reconstruct(&mut shards).unwrap();
                for (i, d) in data.iter().enumerate() {
                    assert_eq!(shards[i].as_ref().unwrap(), d, "erased ({a},{b})");
                }
            }
        }
    }

    #[test]
    fn one_more_erasure_than_parity_fails_loudly() {
        let rs = ReedSolomon::new(5, 2).unwrap();
        let data = shard_data(5, 20, 3);
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let parity = rs.encode(&refs).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .into_iter()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        shards[0] = None;
        shards[2] = None;
        shards[6] = None;
        assert_eq!(
            rs.reconstruct(&mut shards),
            Err(ParityError::TooManyErasures {
                present: 4,
                needed: 5
            })
        );
    }

    #[test]
    fn single_data_shard_groups_work() {
        // The tail group of a container can hold one block.
        let rs = ReedSolomon::new(1, 2).unwrap();
        let data = shard_data(1, 55, 9);
        let parity = rs.encode(&[&data[0]]).unwrap();
        let mut shards = vec![None, Some(parity[0].clone()), Some(parity[1].clone())];
        rs.reconstruct(&mut shards).unwrap();
        assert_eq!(shards[0].as_ref().unwrap(), &data[0]);
    }

    #[test]
    fn empty_shards_roundtrip() {
        let rs = ReedSolomon::new(3, 1).unwrap();
        let parity = rs.encode(&[&[], &[], &[]]).unwrap();
        assert_eq!(parity, vec![Vec::<u8>::new()]);
        let mut shards = vec![None, Some(vec![]), Some(vec![]), Some(vec![])];
        rs.reconstruct(&mut shards).unwrap();
        assert_eq!(shards[0].as_ref().unwrap(), &Vec::<u8>::new());
    }

    #[test]
    fn shard_limit_enforced() {
        assert!(matches!(
            ReedSolomon::new(254, 2),
            Err(ParityError::TooManyShards { total: 256 })
        ));
        assert!(ReedSolomon::new(253, 2).is_ok());
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        assert_eq!(
            rs.encode(&[&[1, 2], &[3]]),
            Err(ParityError::ShardLengthMismatch)
        );
        let mut shards = vec![Some(vec![1, 2]), None, Some(vec![9])];
        assert_eq!(
            rs.reconstruct(&mut shards),
            Err(ParityError::ShardLengthMismatch)
        );
    }

    #[test]
    fn corrupt_shard_marked_as_erasure_recovers_exactly() {
        // The container's per-shard CRC32 turns corruption into erasure:
        // simulate by damaging a shard, then erasing it for reconstruct.
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = shard_data(4, 64, 21);
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let parity = rs.encode(&refs).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        // "Corrupt" data shard 2 and parity shard 0, then erase both.
        shards[2] = None;
        shards[4] = None;
        rs.reconstruct(&mut shards).unwrap();
        assert_eq!(shards[2].as_ref().unwrap(), &data[2]);
    }
}
