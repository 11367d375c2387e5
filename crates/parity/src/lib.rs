//! GF(256) Reed–Solomon erasure coding for PaSTRI block-store stripes.
//!
//! The block store cuts each stripe of compressed blocks into equal
//! pieces and stores a handful of erasure shards per stripe, so that any
//! `k` damaged pieces (where `k` = the parity shard count) can be
//! reconstructed byte-exactly from the survivors. This crate is the arithmetic core:
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
//! (the store keeps a CRC32 per piece and per shard), so decoding is a
//! single `d × d` Gauss–Jordan inversion over the surviving rows, not a
//! full error-locating decoder.
//!
//! The byte kernel, `dst ^= c · src` over a whole shard, runs on x86_64
//! CPUs that report AVX2 as a split-nibble table lookup, 32 bytes per
//! `vpshufb` pair (Plank, Greenan & Miller, "Screaming Fast Galois Field
//! Arithmetic Using Intel SIMD Instructions", FAST 2013); everywhere
//! else it is a 256-entry product-row lookup per byte. Both give the
//! same bytes.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

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

/// `dst[k] ^= c · src[k]` over the common length: the encode and repair
/// kernel. A `src` shorter than `dst` reads as zero-padded.
fn mul_add(dst: &mut [u8], src: &[u8], c: u8) {
    if c == 0 {
        return;
    }
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    #[cfg(target_arch = "x86_64")]
    if shuffle::mul_add(dst, src, c) {
        return;
    }
    mul_add_rows(dst, src, c);
}

/// A `dst ^= c · src` kernel, as the tests call each build.
#[cfg(test)]
type MulAdd = fn(&mut [u8], &[u8], u8);

/// The portable kernel: one 256-entry product row is built per call, so
/// the byte loop is a lookup and an xor with no branch.
fn mul_add_rows(dst: &mut [u8], src: &[u8], c: u8) {
    let lc = LOG[c as usize] as usize;
    let mut row = [0u8; 256];
    for (x, r) in row.iter_mut().enumerate().skip(1) {
        *r = EXP[lc + LOG[x] as usize];
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= row[s as usize];
    }
}

/// The split-nibble kernel: `c · x = c · (x & 0x0f) ⊕ c · (x & 0xf0)`,
/// two 16-entry product tables that `vpshufb` indexes 32 bytes at a time.
#[cfg(target_arch = "x86_64")]
mod shuffle {
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_and_si256, _mm256_broadcastsi128_si256, _mm256_loadu_si256,
        _mm256_set1_epi8, _mm256_shuffle_epi8, _mm256_srli_epi64, _mm256_storeu_si256,
        _mm256_xor_si256, _mm_loadu_si128,
    };

    use super::gf_mul;

    /// `dst ^= c · src` for equal-length slices, through [`mul_add_avx2`]
    /// when the CPU has AVX2; `false` (and nothing done) otherwise. std
    /// caches the CPUID probe, so the check is an atomic load.
    pub(super) fn mul_add(dst: &mut [u8], src: &[u8], c: u8) -> bool {
        if !is_x86_feature_detected!("avx2") {
            return false;
        }
        // SAFETY: the CPU supports AVX2 (checked just above), the one
        // feature `mul_add_avx2` is compiled for.
        unsafe { mul_add_avx2(dst, src, c) };
        true
    }

    /// The AVX2 kernel as a plain function, when the CPU has AVX2: for
    /// the kernel tests, which call it directly.
    #[cfg(test)]
    pub(super) fn detected() -> Option<super::MulAdd> {
        fn kernel(dst: &mut [u8], src: &[u8], c: u8) {
            // SAFETY: `detected` hands this out only once the CPU has
            // reported AVX2.
            unsafe { mul_add_avx2(dst, src, c) }
        }
        is_x86_feature_detected!("avx2").then_some(kernel as super::MulAdd)
    }

    /// The kernel proper, for equal-length slices.
    #[target_feature(enable = "avx2")]
    fn mul_add_avx2(dst: &mut [u8], src: &[u8], c: u8) {
        debug_assert_eq!(dst.len(), src.len());
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        for (x, (l, h)) in lo.iter_mut().zip(&mut hi).enumerate() {
            *l = gf_mul(c, x as u8);
            *h = gf_mul(c, (x as u8) << 4);
        }
        // SAFETY: each table is 16 readable bytes, and `loadu` has no
        // alignment requirement.
        let table = |t: &[u8; 16]| unsafe { _mm_loadu_si128(t.as_ptr().cast::<__m128i>()) };
        let (lo, hi) = (
            _mm256_broadcastsi128_si256(table(&lo)),
            _mm256_broadcastsi128_si256(table(&hi)),
        );
        let nibble = _mm256_set1_epi8(0x0f);
        let step = |d: &mut [u8; 32], s: &[u8; 32]| {
            // SAFETY: `s` and `d` are 32 bytes each, readable and (for
            // `d`) writable; `loadu`/`storeu` have no alignment
            // requirement.
            unsafe {
                let x = _mm256_loadu_si256(s.as_ptr().cast::<__m256i>());
                let low = _mm256_shuffle_epi8(lo, _mm256_and_si256(x, nibble));
                let high =
                    _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64::<4>(x), nibble));
                let acc = _mm256_loadu_si256(d.as_ptr().cast::<__m256i>());
                let out = _mm256_xor_si256(acc, _mm256_xor_si256(low, high));
                _mm256_storeu_si256(d.as_mut_ptr().cast::<__m256i>(), out);
            }
        };
        let (dst_lanes, dst_tail) = dst.as_chunks_mut::<32>();
        let (src_lanes, src_tail) = src.as_chunks::<32>();
        for (d, s) in dst_lanes.iter_mut().zip(src_lanes) {
            step(d, s);
        }
        // The < 32-byte tail takes one more step through zero-padded
        // copies: cheaper than building a 256-entry row for it.
        if !dst_tail.is_empty() {
            let (mut d, mut s) = ([0u8; 32], [0u8; 32]);
            d[..dst_tail.len()].copy_from_slice(dst_tail);
            s[..src_tail.len()].copy_from_slice(src_tail);
            step(&mut d, &s);
            dst_tail.copy_from_slice(&d[..dst_tail.len()]);
        }
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
        let len = shards.first().map_or(0, |s| s.len());
        if shards.len() == self.data && shards.iter().any(|s| s.len() != len) {
            return Err(ParityError::ShardLengthMismatch);
        }
        self.encode_padded(shards, len)
    }

    /// Like [`encode`](Self::encode) for shards of at most `len` bytes,
    /// each read as if zero-padded to `len`, without copying any: the
    /// parity shards are `len` bytes long.
    pub fn encode_padded(&self, shards: &[&[u8]], len: usize) -> Result<Vec<Vec<u8>>, ParityError> {
        if shards.len() != self.data {
            return Err(ParityError::WrongShardCount {
                expected: self.data,
                actual: shards.len(),
            });
        }
        if shards.iter().any(|s| s.len() > len) {
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
    /// the stripe is then beyond repair and its damaged pieces are lost.
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

    /// Every compiled `mul_add` kernel this CPU can run, called directly,
    /// plus the dispatching entry point.
    fn kernels() -> Vec<(&'static str, MulAdd)> {
        #[cfg(target_arch = "x86_64")]
        let avx2 = shuffle::detected().map(|k| ("avx2", k));
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = None;
        [("dispatch", mul_add as MulAdd), ("rows", mul_add_rows)]
            .into_iter()
            .chain(avx2)
            .collect()
    }

    #[test]
    fn mul_add_matches_per_byte_gf_mul() {
        let pool = shard_data(2, 200, 77);
        for (name, kernel) in kernels() {
            for c in 0..=255u8 {
                if c == 0 && name != "dispatch" {
                    continue; // `mul_add` returns before any kernel for 0.
                }
                for len in 0..=130usize {
                    // Unaligned heads and every tail length under 32
                    // bytes, source and destination offset apart.
                    let so = (usize::from(c) + len) % 32;
                    let d_off = (usize::from(c) * 7 + len * 3) % 32;
                    let src = &pool[0][so..so + len];
                    let mut buf = pool[1].clone();
                    let want: Vec<u8> = buf[d_off..d_off + len]
                        .iter()
                        .zip(src)
                        .map(|(&d, &s)| d ^ gf_mul(c, s))
                        .collect();
                    kernel(&mut buf[d_off..d_off + len], src, c);
                    assert_eq!(
                        &buf[d_off..d_off + len],
                        &want[..],
                        "{name}: c {c} len {len} offsets {so}/{d_off}"
                    );
                    // Bytes around the destination are untouched.
                    assert_eq!(&buf[..d_off], &pool[1][..d_off], "{name}: head clobbered");
                    assert_eq!(
                        &buf[d_off + len..],
                        &pool[1][d_off + len..],
                        "{name}: tail clobbered"
                    );
                }
            }
        }
    }

    #[test]
    fn mul_add_over_every_offset_pair() {
        let pool = shard_data(2, 200, 5);
        for (name, kernel) in kernels() {
            for c in [1u8, 2, 0x1d, 0x80, 0xff] {
                for so in 0..32 {
                    for d_off in 0..32 {
                        for len in [0usize, 1, 31, 32, 33, 63, 64, 65, 97, 130] {
                            let src = &pool[0][so..so + len];
                            let mut buf = pool[1].clone();
                            let want: Vec<u8> = buf[d_off..d_off + len]
                                .iter()
                                .zip(src)
                                .map(|(&d, &s)| d ^ gf_mul(c, s))
                                .collect();
                            kernel(&mut buf[d_off..d_off + len], src, c);
                            assert_eq!(
                                &buf[d_off..d_off + len],
                                &want[..],
                                "{name}: c {c} len {len} offsets {so}/{d_off}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn short_source_reads_as_zero_padded() {
        let pool = shard_data(2, 100, 9);
        let mut dst = pool[1].clone();
        mul_add(&mut dst, &pool[0][..37], 0x53);
        let want: Vec<u8> = pool[1]
            .iter()
            .enumerate()
            .map(|(k, &d)| d ^ if k < 37 { gf_mul(0x53, pool[0][k]) } else { 0 })
            .collect();
        assert_eq!(dst, want);
    }

    #[test]
    fn encode_padded_equals_encode_of_padded_copies() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        let data = shard_data(5, 300, 13);
        let lens = [300usize, 1, 0, 257, 33];
        let ragged: Vec<&[u8]> = data.iter().zip(lens).map(|(d, n)| &d[..n]).collect();
        let padded: Vec<Vec<u8>> = ragged
            .iter()
            .map(|s| {
                let mut v = s.to_vec();
                v.resize(300, 0);
                v
            })
            .collect();
        let refs: Vec<&[u8]> = padded.iter().map(Vec::as_slice).collect();
        assert_eq!(
            rs.encode_padded(&ragged, 300).unwrap(),
            rs.encode(&refs).unwrap()
        );
        assert_eq!(
            rs.encode_padded(&ragged, 299),
            Err(ParityError::ShardLengthMismatch)
        );
    }

    #[test]
    fn reconstruct_roundtrips_through_the_kernel_at_odd_lengths() {
        // Lengths off the 32-byte step, so every shard ends in a tail.
        for len in [1usize, 31, 33, 1000, 1013] {
            let rs = ReedSolomon::new(8, 2).unwrap();
            let data = shard_data(8, len, len as u64);
            let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let parity = rs.encode(&refs).unwrap();
            assert_eq!(parity, reference_encode(&rs, &refs), "len {len}");
            for (a, b) in [(0usize, 7usize), (3, 8), (5, 9), (1, 2)] {
                let mut shards: Vec<Option<Vec<u8>>> =
                    data.iter().chain(&parity).cloned().map(Some).collect();
                shards[a] = None;
                shards[b] = None;
                rs.reconstruct(&mut shards).unwrap();
                for (i, d) in data.iter().enumerate() {
                    assert_eq!(shards[i].as_ref().unwrap(), d, "len {len} erased ({a},{b})");
                }
                for (j, p) in parity.iter().enumerate() {
                    assert_eq!(
                        shards[8 + j].as_ref().unwrap(),
                        p,
                        "len {len} erased ({a},{b})"
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
