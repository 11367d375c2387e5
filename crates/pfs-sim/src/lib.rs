//! Analytic performance models for the paper's system-level experiments.
//!
//! The paper ran two experiments we cannot rerun without the Bebop
//! supercomputer and GAMESS:
//!
//! * **Fig. 10** — dumping/loading a compressed ERI dataset to GPFS with
//!   256–2048 cores (file-per-process POSIX I/O).
//! * **Fig. 11** — total time to *obtain* integral data over 20 reuses:
//!   recompute-with-GAMESS-every-time vs generate-once + compress +
//!   decompress-on-reuse.
//!
//! Both figures are arithmetic over a handful of rates (per-core
//! compression/decompression throughput, compression ratio, file-system
//! bandwidth, ERI generation rate). This crate reproduces that arithmetic
//! exactly; the compressor rates and ratios are *measured* from the real
//! implementations by the benchmark harness and fed in as
//! [`CompressorProfile`]s, while the cluster constants ([`GpfsModel`],
//! the GAMESS generation rates) are taken from the paper's own numbers.

/// Measured single-core behaviour of one compressor on one dataset.
#[derive(Debug, Clone)]
pub struct CompressorProfile {
    /// Display name ("PaSTRI", "SZ", "ZFP").
    pub name: String,
    /// Compression ratio (original / compressed).
    pub ratio: f64,
    /// Single-core compression throughput, MB/s of input consumed.
    pub compress_mbs: f64,
    /// Single-core decompression throughput, MB/s of output produced.
    pub decompress_mbs: f64,
}

/// File-per-process parallel file system model.
///
/// Each process streams its share at `per_process_mbs` until the shared
/// `aggregate_mbs` backbone saturates; every file pays `metadata_s` once
/// (open/close + directory traffic).
#[derive(Debug, Clone, Copy)]
pub struct GpfsModel {
    /// Per-process POSIX stream bandwidth (MB/s).
    pub per_process_mbs: f64,
    /// Shared aggregate bandwidth of the file servers (MB/s).
    pub aggregate_mbs: f64,
    /// Per-file metadata cost (seconds).
    pub metadata_s: f64,
}

impl GpfsModel {
    /// Constants calibrated to the paper's Bebop/GPFS observations: the
    /// per-core stream is slow enough that writing the *uncompressed*
    /// dataset takes "thousands of seconds", dump/load times shrink
    /// roughly linearly from 256 to 2048 cores (per-process-bound regime),
    /// and the 256-core SZ dump+load lands in the tens of minutes.
    #[must_use]
    pub fn bebop() -> Self {
        Self {
            per_process_mbs: 15.0,
            aggregate_mbs: 40_000.0,
            metadata_s: 1.0,
        }
    }

    /// Seconds to move `bytes` with `cores` files in parallel.
    #[must_use]
    pub(crate) fn io_seconds(&self, bytes: f64, cores: u32) -> f64 {
        assert!(cores > 0);
        let per_core = bytes / f64::from(cores);
        let stream = per_core / (self.per_process_mbs * 1e6);
        let backbone = bytes / (self.aggregate_mbs * 1e6);
        stream.max(backbone) + self.metadata_s
    }
}

/// Phase breakdown of one dump or load (Fig. 10's stacked bars).
#[derive(Debug, Clone, Copy)]
pub struct IoPhases {
    /// Seconds spent compressing (dump) or decompressing (load).
    pub codec_s: f64,
    /// Seconds spent in file I/O.
    pub io_s: f64,
}

impl IoPhases {
    /// Total elapsed seconds.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.codec_s + self.io_s
    }
}

/// The Fig. 10 experiment: dump/load `dataset_bytes` through a compressor
/// with `cores` processes against a [`GpfsModel`].
#[derive(Debug, Clone, Copy)]
pub struct DumpLoadModel {
    pub gpfs: GpfsModel,
    pub dataset_bytes: f64,
}

impl DumpLoadModel {
    /// Dump: compress in parallel (perfectly block-parallel, as PaSTRI,
    /// SZ, and ZFP all are at file granularity), then write compressed
    /// bytes.
    #[must_use]
    pub fn dump(&self, prof: &CompressorProfile, cores: u32) -> IoPhases {
        let compress_s = self.dataset_bytes / (f64::from(cores) * prof.compress_mbs * 1e6);
        let io_s = self
            .gpfs
            .io_seconds(self.dataset_bytes / prof.ratio, cores);
        IoPhases {
            codec_s: compress_s,
            io_s,
        }
    }

    /// Load: read compressed bytes, then decompress in parallel.
    #[must_use]
    pub fn load(&self, prof: &CompressorProfile, cores: u32) -> IoPhases {
        let io_s = self
            .gpfs
            .io_seconds(self.dataset_bytes / prof.ratio, cores);
        let decompress_s = self.dataset_bytes / (f64::from(cores) * prof.decompress_mbs * 1e6);
        IoPhases {
            codec_s: decompress_s,
            io_s,
        }
    }

    /// Dump/load of the raw, uncompressed dataset (the case the paper
    /// omits from Fig. 10 because it "takes extremely long").
    #[must_use]
    pub fn raw_io(&self, cores: u32) -> f64 {
        self.gpfs.io_seconds(self.dataset_bytes, cores)
    }
}

/// GAMESS ERI generation rates reported in the paper (Sec. V-B):
/// `(dd|dd)`: 322.82 MB/s, `(ff|ff)`: 622.81 MB/s per node.
#[must_use]
pub fn gamess_eri_rate_mbs(config_label: &str) -> f64 {
    match config_label {
        "(ff|ff)" => 622.81,
        _ => 322.82,
    }
}

/// Phase breakdown of the Fig. 11 comparison (in-memory; the paper states
/// "disk access times are not included").
#[derive(Debug, Clone, Copy)]
pub struct ReuseBreakdown {
    /// Seconds computing ERIs from scratch.
    pub calculate_s: f64,
    /// Seconds compressing (once).
    pub compress_s: f64,
    /// Seconds decompressing (per reuse, totalled).
    pub decompress_s: f64,
}

impl ReuseBreakdown {
    /// Total elapsed seconds.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.calculate_s + self.compress_s + self.decompress_s
    }
}

/// The Fig. 11 experiment: integral data of `bytes` size is needed
/// `reuse_count` times (the paper uses 20, "a conservatively acceptable
/// value for ERIs").
#[derive(Debug, Clone, Copy)]
pub struct ReuseModel {
    pub bytes: f64,
    pub eri_gen_mbs: f64,
    pub reuse_count: u32,
}

impl ReuseModel {
    /// Original GAMESS infrastructure: regenerate every time it is needed.
    #[must_use]
    pub fn original(&self) -> ReuseBreakdown {
        ReuseBreakdown {
            calculate_s: f64::from(self.reuse_count) * self.bytes / (self.eri_gen_mbs * 1e6),
            compress_s: 0.0,
            decompress_s: 0.0,
        }
    }

    /// Compressor infrastructure: generate once, compress once,
    /// decompress on every reuse.
    #[must_use]
    pub fn with_compressor(&self, prof: &CompressorProfile) -> ReuseBreakdown {
        ReuseBreakdown {
            calculate_s: self.bytes / (self.eri_gen_mbs * 1e6),
            compress_s: self.bytes / (prof.compress_mbs * 1e6),
            decompress_s: f64::from(self.reuse_count) * self.bytes / (prof.decompress_mbs * 1e6),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pastri_like() -> CompressorProfile {
        CompressorProfile {
            name: "PaSTRI".into(),
            ratio: 16.8,
            compress_mbs: 660.0,
            decompress_mbs: 1110.0,
        }
    }

    fn sz_like() -> CompressorProfile {
        CompressorProfile {
            name: "SZ".into(),
            ratio: 7.24,
            compress_mbs: 104.1,
            decompress_mbs: 148.6,
        }
    }

    #[test]
    fn io_time_scales_down_with_cores() {
        let g = GpfsModel::bebop();
        let t256 = g.io_seconds(1e12, 256);
        let t1024 = g.io_seconds(1e12, 1024);
        assert!(t1024 < t256);
        // Per-process-bound regime: near-linear scaling.
        assert!(t256 / t1024 > 3.0, "{t256} vs {t1024}");
    }

    #[test]
    fn aggregate_cap_binds_at_scale() {
        let g = GpfsModel {
            per_process_mbs: 1000.0,
            aggregate_mbs: 10_000.0,
            metadata_s: 0.0,
        };
        // 256 cores × 1000 MB/s would be 256 GB/s, but the backbone caps
        // at 10 GB/s.
        let t = g.io_seconds(1e12, 256);
        assert!((t - 100.0).abs() < 1.0, "t={t}");
    }

    #[test]
    fn raw_io_takes_thousands_of_seconds() {
        // The paper's justification for not plotting uncompressed I/O.
        let m = DumpLoadModel {
            gpfs: GpfsModel::bebop(),
            dataset_bytes: 4e12,
        };
        assert!(m.raw_io(256) > 1000.0);
    }

    #[test]
    fn pastri_dump_load_beats_sz_by_2x() {
        // The headline claim of Fig. 10: "PaSTRI leads to much higher
        // performance (2X or higher) than the other two compressors".
        let m = DumpLoadModel {
            gpfs: GpfsModel::bebop(),
            dataset_bytes: 4e12,
        };
        for cores in [256u32, 512, 1024, 2048] {
            let p = m.dump(&pastri_like(), cores).total_s() + m.load(&pastri_like(), cores).total_s();
            let s = m.dump(&sz_like(), cores).total_s() + m.load(&sz_like(), cores).total_s();
            assert!(s > 2.0 * p, "cores {cores}: sz {s} vs pastri {p}");
        }
    }

    #[test]
    fn dump_load_times_decrease_with_cores() {
        let m = DumpLoadModel {
            gpfs: GpfsModel::bebop(),
            dataset_bytes: 4e12,
        };
        let mut last = f64::INFINITY;
        for cores in [256u32, 512, 1024, 2048] {
            let t = m.dump(&pastri_like(), cores).total_s();
            assert!(t < last);
            last = t;
        }
    }

    #[test]
    fn reuse_model_matches_paper_structure() {
        // Fig. 11: GAMESS at (dd|dd) rate, 20 reuses, PaSTRI decompression
        // ~1 GB/s. The compressed infrastructure must win big.
        let m = ReuseModel {
            bytes: 2e9,
            eri_gen_mbs: gamess_eri_rate_mbs("(dd|dd)"),
            reuse_count: 20,
        };
        let orig = m.original();
        let fast = m.with_compressor(&pastri_like());
        // Fig. 11 shows the (dd|dd) PaSTRI bar at ~0.35 of Original,
        // i.e. just under a 3x win.
        assert!(orig.total_s() > 2.5 * fast.total_s());
        // Generation happens once in the compressed pipeline.
        assert!((fast.calculate_s * 20.0 - orig.calculate_s).abs() < 1e-9);
    }

    #[test]
    fn reuse_speedup_grows_with_reuse_count() {
        let mk = |reuse| ReuseModel {
            bytes: 1e9,
            eri_gen_mbs: 322.82,
            reuse_count: reuse,
        };
        let speedup = |reuse: u32| {
            let m = mk(reuse);
            m.original().total_s() / m.with_compressor(&pastri_like()).total_s()
        };
        assert!(speedup(20) > speedup(5));
        assert!(speedup(100) > speedup(20));
    }

    #[test]
    fn gamess_rates_match_paper() {
        assert_eq!(gamess_eri_rate_mbs("(dd|dd)"), 322.82);
        assert_eq!(gamess_eri_rate_mbs("(ff|ff)"), 622.81);
    }
}
