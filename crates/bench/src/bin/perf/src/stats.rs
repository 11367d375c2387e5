//! Small numeric helpers: percentiles, quartiles, the value signature
//! the correctness oracle compares, the benchmark's own seeded RNG, the
//! host-speed probe, and the process memory high-water mark.

use std::sync::OnceLock;
use std::time::Instant;

/// What one reference pass takes on an uncontended core of the reference
/// machine (a 2-vCPU Xeon VM at 2.1 GHz), in ns: about the fastest 5%
/// of passes there.
const REFERENCE_NS: f64 = 55_000.0;

/// The fixed work of the host-speed reference: 128 KB of values and
/// 8 KB of bytes, which stay in a core's L2 cache between passes.
struct Reference {
    values: Vec<f64>,
    bytes: Vec<u8>,
    crc_table: [u32; 256],
}

impl Reference {
    fn get() -> &'static Reference {
        static REFERENCE: OnceLock<Reference> = OnceLock::new();
        REFERENCE.get_or_init(|| {
            let mut rng = SplitMix::new(0x5245_4645_5245_4e43);
            let values = (0..1 << 14)
                .map(|_| (rng.next_u64() >> 11) as f64 * 2f64.powi(-53) * 1e-3)
                .collect();
            let bytes = (0..1 << 13).map(|_| rng.next_u64() as u8).collect();
            let mut crc_table = [0u32; 256];
            for (i, entry) in (0u32..).zip(crc_table.iter_mut()) {
                *entry = (0..8).fold(i, |c, _| (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg()));
            }
            Reference {
                values,
                bytes,
                crc_table,
            }
        })
    }

    /// One pass over the two kinds of work the program spends its time
    /// on, about half the time each: quantizing values to the error-bound
    /// grid, as the codec does, and a table-driven CRC-32 over bytes, as
    /// containers, the store and the wire do. Neither branches on the
    /// data, so a pass costs the same whatever the values.
    fn pass(&self) -> u64 {
        let mut lanes = [0u64; 4];
        for quad in self.values.chunks_exact(4) {
            for (h, &v) in lanes.iter_mut().zip(quad) {
                let q = (v * 5e9) as i64;
                *h = fold_word(*h, q as u64 ^ u64::from(q.unsigned_abs().leading_zeros()));
            }
        }
        let crc = self.bytes.iter().fold(!0u32, |c, &b| {
            self.crc_table[usize::from(c as u8 ^ b)] ^ (c >> 8)
        });
        lanes.iter().fold(u64::from(!crc), |h, &l| fold_word(h, l))
    }
}

/// How much slower than the reference machine the host runs right now:
/// the time of one reference pass over its nominal time.
///
/// The benchmark shares its cores with other tenants, and their load
/// slows the instructions it runs, by up to 50% for seconds at a time;
/// the thread is not descheduled, so its CPU time grows as much as its
/// wall time. Timings divided by the slowness measured right after them
/// read as if on the uncontended reference machine. The pass mixes
/// arithmetic with table lookups because contention slows the two by
/// different amounts (see README.md).
pub fn host_slowness() -> f64 {
    let reference = std::hint::black_box(Reference::get());
    // An untimed pass first brings the data back into cache, whatever the
    // work before evicted.
    std::hint::black_box(reference.pass());
    let start = Instant::now();
    std::hint::black_box(reference.pass());
    start.elapsed().as_nanos() as f64 / REFERENCE_NS
}

/// The benchmark's input RNG (splitmix64). Kept here rather than borrowed
/// from the program so that the generated traffic never changes when the
/// program's own helpers do.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Order-sensitive fold of the exact bit patterns of `values`.
pub fn fold_values(sig: u64, values: &[f64]) -> u64 {
    values.iter().fold(sig, |h, v| fold_word(h, v.to_bits()))
}

/// Order-sensitive fold of `bytes`, eight at a time.
pub fn fold_bytes(sig: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    let mut h = chunks.by_ref().fold(sig, |h, c| {
        fold_word(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
    });
    for &b in chunks.remainder() {
        h = fold_word(h, u64::from(b));
    }
    fold_word(h, bytes.len() as u64)
}

pub fn fold_word(h: u64, w: u64) -> u64 {
    (h.rotate_left(5) ^ w).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Nearest-rank percentile of `samples` (any order), `q` in (0, 1].
pub fn percentile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Median of `values` (any order), averaging the middle pair.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), which
/// is how run-to-run spread is judged. One value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// Peak resident set size of this process (VmHWM), in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
