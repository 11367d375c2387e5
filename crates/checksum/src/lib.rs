//! CRC32 (IEEE 802.3 / zlib polynomial, reflected) — the integrity
//! checksum used by the v2 PaSTRI container, the `PSTRS` stream, the
//! `ERISTOR2` block store, durable commit records and the PTRF wire frame.
//!
//! Dependency-free, with two paths chosen at run time:
//!
//! * inputs of 128 bytes or more, on an `x86_64` CPU that reports
//!   `pclmulqdq` and `sse4.1`, go through a carry-less-multiply folding
//!   kernel (~20 GB/s on one core of an Intel Xeon: 8 µs for a 166 KB
//!   PTRF frame, 0.13 µs for a 2.6 KB store container);
//! * everything else — short inputs, the < 16-byte tail the kernel
//!   leaves, other targets, CPUs without the feature — uses a
//!   compile-time slice-by-4 table (~0.8 GB/s on the same core, ~200 µs
//!   for the same frame — slower than block decode, ~1.1 GB/s).
//!
//! Both paths give the same value. The output matches the ubiquitous
//! zlib/PNG/gzip CRC32, so external tooling (`python -c "import zlib;
//! zlib.crc32(...)"`, `crc32` CLI) can verify files independently.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xedb8_8320;

/// 4 × 256 lookup tables, computed at compile time.
const TABLES: [[u32; 256]; 4] = build_tables();

const fn build_tables() -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut s = 1;
    while s < 4 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

/// The slice-by-4 table loop over pre-inverted CRC `state`: the
/// portable path, and the tail of the carry-less kernel.
fn table_update(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(4);
    for c in &mut chunks {
        let x = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[3][(x & 0xff) as usize]
            ^ TABLES[2][((x >> 8) & 0xff) as usize]
            ^ TABLES[1][((x >> 16) & 0xff) as usize]
            ^ TABLES[0][(x >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc
}

/// Carry-less-multiply folding (Gopal et al., Intel, "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// 2009), with that paper's constants for the reflected 0xEDB88320
/// polynomial. Each `Kn` is x^e mod P(x) for the fold distance it
/// serves, bit-reflected and shifted left by one.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input worth the kernel: it starts by loading four lanes
    /// and folding them across a further 64 bytes.
    const MIN_LEN: usize = 128;

    /// Fold across 512 bits (four lanes at a time).
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// Fold across 128 bits (one lane into the next).
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// 64 → 32-bit fold.
    const K5: i64 = 0x1_63cd_6124;
    /// Barrett reduction: P(x) and μ = floor(x^64 / P(x)), reflected.
    const P_PRIME: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Feeds `data` into pre-inverted CRC `state`: through [`fold`] when
    /// the input is at least [`MIN_LEN`] bytes and the CPU has the
    /// instructions it is compiled for, through the table loop otherwise.
    /// std caches the CPUID probe, so the check is an atomic load.
    pub(super) fn update(state: u32, data: &[u8]) -> u32 {
        if data.len() < MIN_LEN
            || !is_x86_feature_detected!("pclmulqdq")
            || !is_x86_feature_detected!("sse4.1")
        {
            return super::table_update(state, data);
        }
        // SAFETY: the CPU supports pclmulqdq and sse4.1 (checked just
        // above) and sse2 (baseline on x86_64), the features `fold` is
        // compiled for, and `data` holds at least MIN_LEN bytes.
        let (state, tail) = unsafe { fold(state, data) };
        super::table_update(state, tail)
    }

    /// Folds every whole 16-byte lane of `data` into `state` and returns
    /// the new state with the unfolded (< 16-byte) tail.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq`, `sse2` and `sse4.1`, and
    /// `data.len() >= MIN_LEN`.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    unsafe fn fold(state: u32, data: &[u8]) -> (u32, &[u8]) {
        // Carry-less fold of `acc` across the distance `keys` encodes,
        // into the next lane.
        let fold_into = |acc: __m128i, next: __m128i, keys: __m128i| {
            let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
            let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
            _mm_xor_si128(_mm_xor_si128(next, lo), hi)
        };

        let (lanes, tail) = data.as_chunks::<16>();
        let load = |lane: &[u8; 16]| {
            // SAFETY: `lane` is 16 readable bytes, and `loadu` has no
            // alignment requirement.
            unsafe { _mm_loadu_si128(lane.as_ptr().cast::<__m128i>()) }
        };
        // MIN_LEN guarantees at least eight lanes.
        let (first, rest) = lanes.split_at(4);
        let mut x = [load(&first[0]), load(&first[1]), load(&first[2]), load(&first[3])];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        let (quads, singles) = rest.as_chunks::<4>();
        for quad in quads {
            for (acc, lane) in x.iter_mut().zip(quad) {
                *acc = fold_into(*acc, load(lane), k1k2);
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold_into(x[0], x[1], k3k4);
        acc = fold_into(acc, x[2], k3k4);
        acc = fold_into(acc, x[3], k3k4);
        for lane in singles {
            acc = fold_into(acc, load(lane), k3k4);
        }

        // 128 → 64 bits: low half × K4 into the high half, then the low
        // 32 bits × K5 into the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let acc = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(acc, k3k4), _mm_srli_si128::<8>(acc));
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(acc),
        );

        // Barrett reduction 64 → 32 bits, bit-reflected variant: the
        // remainder lands in the upper half of the low 64-bit lane.
        let pu = _mm_set_epi64x(MU, P_PRIME);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(acc, t2)) as u32;
        (crc, tail)
    }
}

/// One-shot CRC32 of `data`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

/// Appends the little-endian CRC32 of `buf`'s current contents to `buf`
/// itself — the "checksum everything above" idiom every PaSTRI header
/// and parity record uses.
pub fn append_crc32_of(buf: &mut Vec<u8>) {
    let c = crc32(buf);
    buf.extend_from_slice(&c.to_le_bytes());
}

/// Incremental CRC32 hasher, for checksumming data produced in pieces
/// (e.g. a header written field by field).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Self { state: 0xffff_ffff }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        {
            self.state = clmul::update(self.state, data);
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self.state = table_update(self.state, data);
        }
    }

    /// The checksum of everything fed so far (the hasher remains usable).
    #[must_use]
    pub fn finish(&self) -> u32 {
        self.state ^ 0xffff_ffff
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic test bytes (splitmix64), so every run checks the
    /// same inputs.
    fn seeded(len: usize, seed: u64) -> Vec<u8> {
        let mut z = seed;
        let mut next = move || {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        };
        (0..len).map(|_| next() as u8).collect()
    }

    /// The table path alone, as a one-shot CRC — the reference every
    /// dispatched result must equal.
    fn table_crc32(data: &[u8]) -> u32 {
        table_update(0xffff_ffff, data) ^ 0xffff_ffff
    }

    #[test]
    fn table_path_known_vectors() {
        // On a PCLMUL host the dispatcher never sends long inputs here,
        // so the table path gets its own check values (zlib-compatible).
        assert_eq!(table_crc32(b""), 0x0000_0000);
        assert_eq!(table_crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(table_crc32(&[0u8; 1 << 20]), 0xa738_ea1c);
        let ramp: Vec<u8> = (0..=255u8).cycle().take(256 * 4096).collect();
        assert_eq!(table_crc32(&ramp), 0x04d0_e435);
    }

    #[test]
    fn dispatch_matches_table_path_at_every_length_and_offset() {
        let buf = seeded(1100 + 16, 1);
        for offset in 0..16 {
            for len in 0..=1100 {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), table_crc32(data), "len={len} offset={offset}");
            }
        }
        let big = seeded(1 << 20, 2);
        assert_eq!(crc32(&big), table_crc32(&big));
    }

    #[test]
    fn incremental_feeds_match_across_the_kernel_threshold() {
        // Every cut of a 600-byte buffer: each side of the cut lands
        // below, at or above the 128-byte kernel threshold.
        let data = seeded(600, 3);
        let expect = table_crc32(&data);
        for cut in 0..=300 {
            let mut h = Crc32::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finish(), expect, "cut={cut}");
        }
        // Seeded multi-chunk splits of a longer buffer.
        let data = seeded(64 * 1024, 4);
        let expect = table_crc32(&data);
        let cuts = seeded(4096, 5);
        for trial in 0..64 {
            let mut h = Crc32::new();
            let mut rest = &data[..];
            let mut k = trial * 64;
            while !rest.is_empty() {
                // Chunk sizes 0..=2047, weighted toward short feeds.
                let n = (usize::from(cuts[k % cuts.len()]) << (cuts[(k + 1) % cuts.len()] % 4))
                    .min(rest.len());
                h.update(&rest[..n]);
                rest = &rest[n..];
                k += 2;
            }
            assert_eq!(h.finish(), expect, "trial={trial}");
        }
    }

    #[test]
    fn long_vectors_match_zlib() {
        assert_eq!(crc32(&[0u8; 1 << 20]), 0xa738_ea1c);
        let ramp: Vec<u8> = (0..=255u8).cycle().take(256 * 4096).collect();
        assert_eq!(crc32(&ramp), 0x04d0_e435);
        // CRC32 residue: a message followed by its own little-endian
        // CRC always checksums to this constant.
        for len in [0usize, 127, 128, 4096, 1 << 20] {
            let mut data = seeded(len, 6);
            append_crc32_of(&mut data);
            assert_eq!(crc32(&data), 0x2144_df1c, "len={len}");
        }
    }

    #[test]
    fn known_vectors() {
        // Standard CRC32 check values (zlib-compatible).
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414f_a339);
        assert_eq!(crc32(&[0u8; 32]), 0x190a_55ad);
        assert_eq!(crc32(&[0xffu8; 32]), 0xff6c_ab0b);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for split in [0usize, 1, 3, 4, 7, 4096, 9999, 10_000] {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32(&data), "split={split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data: Vec<u8> = (0..64u8).collect();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn append_covers_everything_above() {
        let mut buf = b"header bytes".to_vec();
        let expect = crc32(&buf);
        append_crc32_of(&mut buf);
        assert_eq!(buf.len(), 12 + 4);
        assert_eq!(&buf[12..], &expect.to_le_bytes());
        // The stored CRC verifies against the prefix it covers.
        assert_eq!(crc32(&buf[..12]), expect);
    }

    #[test]
    fn finish_is_idempotent() {
        let mut h = Crc32::new();
        h.update(b"abc");
        let a = h.finish();
        let b = h.finish();
        assert_eq!(a, b);
        h.update(b"def");
        let mut h2 = Crc32::new();
        h2.update(b"abcdef");
        assert_eq!(h.finish(), h2.finish());
    }
}
