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
    pub fn io_seconds(&self, bytes: f64, cores: u32) -> f64 {
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
    /// Seconds in scrub/repair passes: rebuilding damaged blocks from
    /// their containers' parity sections instead of regenerating them
    /// (zero for formats without a parity layer).
    pub repair_s: f64,
}

impl ReuseBreakdown {
    /// Total elapsed seconds.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.calculate_s + self.compress_s + self.decompress_s + self.repair_s
    }
}

/// Storage-fault model for the reuse loop: expected corruption and
/// transient-I/O costs over many SCF reuses of one compressed dataset.
///
/// A dataset that "lives" on a parallel file system across 20 reuses is
/// exposed to bit rot, torn writes, and congested-server hiccups the
/// whole time. What those cost depends on the storage format's integrity
/// design: with per-block checksums and salvage (container v2 /
/// `ERISTOR2`), a detected corruption loses only the damaged blocks and
/// only those are regenerated; with the v3 parity layer on top, the
/// damaged blocks rebuild bit-exact from their parity group and nothing
/// is regenerated at all; without either, detection happens — if at
/// all — as garbage SCF energies, and the honest recovery cost is
/// regenerating the full dataset.
#[derive(Debug, Clone, Copy)]
pub struct FaultModel {
    /// Probability that any given reuse observes detectable corruption
    /// somewhere in the dataset (per-reuse, not per-byte).
    pub corruption_per_reuse: f64,
    /// Probability that any given reuse observes *silent* corruption:
    /// bit flips the storage stack never reports (SDC). Per-block
    /// checksums turn these into detected, block-contained losses; a
    /// parity layer additionally repairs them in place; a format with
    /// neither learns about them as garbage SCF energies.
    pub silent_corruption_per_reuse: f64,
    /// Fraction of blocks lost when corruption strikes. Independent
    /// per-block framing keeps this near `1 / num_blocks`; framing-level
    /// damage loses more.
    pub damaged_block_fraction: f64,
    /// Expected transient-I/O retries per reuse (interrupted or
    /// would-block reads on a busy file system).
    pub transient_retries_per_reuse: f64,
    /// Seconds per transient retry (bounded backoff + the re-read).
    pub retry_s: f64,
}

impl FaultModel {
    /// No faults: reduces every faulted projection to the fault-free one.
    #[must_use]
    pub fn none() -> Self {
        Self {
            corruption_per_reuse: 0.0,
            silent_corruption_per_reuse: 0.0,
            damaged_block_fraction: 0.0,
            transient_retries_per_reuse: 0.0,
            retry_s: 0.0,
        }
    }

    /// A long-lived GPFS dataset: corruption is rare per reuse but not
    /// negligible over a campaign, damage is contained to a sliver of
    /// blocks, and transient retries are routine.
    #[must_use]
    pub fn gpfs_resident() -> Self {
        Self {
            corruption_per_reuse: 0.01,
            silent_corruption_per_reuse: 0.005,
            damaged_block_fraction: 1e-4,
            transient_retries_per_reuse: 2.0,
            retry_s: 0.05,
        }
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
            repair_s: 0.0,
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
            repair_s: 0.0,
        }
    }

    /// Compressor infrastructure on faulty storage *with* the integrity
    /// layer: corruption is detected by checksums and contained by
    /// per-block framing, so only the damaged fraction is regenerated and
    /// recompressed; transient errors cost bounded retries folded into
    /// the reuse (decompress) phase.
    #[must_use]
    pub fn with_compressor_faulty(
        &self,
        prof: &CompressorProfile,
        faults: &FaultModel,
    ) -> ReuseBreakdown {
        let base = self.with_compressor(prof);
        let reuses = f64::from(self.reuse_count);
        // Expected bytes regenerated over the campaign: each reuse hits
        // corruption with some probability, losing a fraction of blocks.
        // Checksums catch silent flips too, so they join the detected
        // rate here — contained, but still regenerated.
        let corruption = faults.corruption_per_reuse + faults.silent_corruption_per_reuse;
        let lost_bytes = reuses * corruption * faults.damaged_block_fraction * self.bytes;
        ReuseBreakdown {
            calculate_s: base.calculate_s + lost_bytes / (self.eri_gen_mbs * 1e6),
            compress_s: base.compress_s + lost_bytes / (prof.compress_mbs * 1e6),
            decompress_s: base.decompress_s
                + reuses * faults.transient_retries_per_reuse * faults.retry_s,
            repair_s: 0.0,
        }
    }

    /// Compressor infrastructure on faulty storage with the *self-healing*
    /// layer (container v3): checksums localize damage exactly as in
    /// [`Self::with_compressor_faulty`], but the per-group Reed-Solomon
    /// parity rebuilds damaged blocks bit-exact from the surviving shards,
    /// so nothing is regenerated or recompressed. Repair reads the damaged
    /// block's whole parity group of compressed payloads and runs the
    /// GF(256) decode — streaming work charged to `repair_s` at the
    /// decompressor's rate. Parity emission itself is part of the measured
    /// `compress_mbs` (v3 writers emit parity by default), so no extra
    /// compress-side charge appears here.
    #[must_use]
    pub fn with_compressor_self_healing(
        &self,
        prof: &CompressorProfile,
        faults: &FaultModel,
    ) -> ReuseBreakdown {
        /// Data shards per parity group (`ParityConfig::default`).
        const PARITY_GROUP: f64 = 8.0;
        let base = self.with_compressor(prof);
        let reuses = f64::from(self.reuse_count);
        let corruption = faults.corruption_per_reuse + faults.silent_corruption_per_reuse;
        let damaged_bytes = reuses * corruption * faults.damaged_block_fraction * self.bytes;
        let repaired_compressed = damaged_bytes / prof.ratio * PARITY_GROUP;
        ReuseBreakdown {
            calculate_s: base.calculate_s,
            compress_s: base.compress_s,
            decompress_s: base.decompress_s
                + reuses * faults.transient_retries_per_reuse * faults.retry_s,
            repair_s: repaired_compressed / (prof.decompress_mbs * 1e6),
        }
    }

    /// Compressor infrastructure on faulty storage *without* checksums
    /// (the pre-v2 formats): detected corruption cannot be localized, so
    /// each corrupted reuse regenerates and recompresses the full
    /// dataset, and every transient error fails the load outright —
    /// costing a full re-read/decompress pass instead of a bounded retry.
    #[must_use]
    pub fn with_compressor_faulty_no_integrity(
        &self,
        prof: &CompressorProfile,
        faults: &FaultModel,
    ) -> ReuseBreakdown {
        let base = self.with_compressor(prof);
        let reuses = f64::from(self.reuse_count);
        // Silent flips are just as fatal here: they surface as garbage
        // energies and force the same full regeneration.
        let corrupted_reuses =
            reuses * (faults.corruption_per_reuse + faults.silent_corruption_per_reuse);
        let failed_loads = reuses * faults.transient_retries_per_reuse;
        ReuseBreakdown {
            calculate_s: base.calculate_s + corrupted_reuses * self.bytes / (self.eri_gen_mbs * 1e6),
            compress_s: base.compress_s + corrupted_reuses * self.bytes / (prof.compress_mbs * 1e6),
            decompress_s: base.decompress_s
                + failed_loads * self.bytes / (prof.decompress_mbs * 1e6),
            repair_s: 0.0,
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

    #[test]
    fn zero_faults_reduce_to_fault_free_model() {
        let m = ReuseModel {
            bytes: 2e9,
            eri_gen_mbs: 322.82,
            reuse_count: 20,
        };
        let clean = m.with_compressor(&pastri_like());
        let faulted = m.with_compressor_faulty(&pastri_like(), &FaultModel::none());
        let no_integrity =
            m.with_compressor_faulty_no_integrity(&pastri_like(), &FaultModel::none());
        let healing = m.with_compressor_self_healing(&pastri_like(), &FaultModel::none());
        assert_eq!(clean.total_s(), faulted.total_s());
        assert_eq!(clean.total_s(), no_integrity.total_s());
        assert_eq!(clean.total_s(), healing.total_s());
        assert_eq!(healing.repair_s, 0.0);
    }

    #[test]
    fn parity_repair_beats_drop_and_regenerate() {
        // The self-healing layer's claim: when corruption (detected or
        // silent) strikes, rebuilding damaged blocks from parity is
        // cheaper than regenerating + recompressing them, and it never
        // touches the generation or compression phases at all.
        let m = ReuseModel {
            bytes: 2e9,
            eri_gen_mbs: 322.82,
            reuse_count: 20,
        };
        let faults = FaultModel::gpfs_resident();
        assert!(faults.silent_corruption_per_reuse > 0.0);
        let clean = m.with_compressor(&pastri_like());
        let drop = m.with_compressor_faulty(&pastri_like(), &faults);
        let heal = m.with_compressor_self_healing(&pastri_like(), &faults);
        // Repair does real work...
        assert!(heal.repair_s > 0.0);
        // ...but generation and compression stay at the fault-free cost,
        // unlike the drop-and-regenerate path.
        assert_eq!(heal.calculate_s, clean.calculate_s);
        assert_eq!(heal.compress_s, clean.compress_s);
        assert!(drop.calculate_s > clean.calculate_s);
        // Net: self-healing strictly beats drop-and-regenerate.
        assert!(
            heal.total_s() < drop.total_s(),
            "heal {}s vs drop {}s",
            heal.total_s(),
            drop.total_s()
        );
    }

    #[test]
    fn integrity_layer_pays_for_itself_on_faulty_storage() {
        let m = ReuseModel {
            bytes: 2e9,
            eri_gen_mbs: 322.82,
            reuse_count: 20,
        };
        let faults = FaultModel::gpfs_resident();
        let clean = m.with_compressor(&pastri_like());
        let with = m.with_compressor_faulty(&pastri_like(), &faults);
        let without = m.with_compressor_faulty_no_integrity(&pastri_like(), &faults);
        // Faults always cost something...
        assert!(with.total_s() > clean.total_s());
        // ...but block-contained recovery costs far less than full
        // regeneration: the fault overhead shrinks by >10x.
        let overhead_with = with.total_s() - clean.total_s();
        let overhead_without = without.total_s() - clean.total_s();
        assert!(
            overhead_without > 10.0 * overhead_with,
            "contained {overhead_with}s vs uncontained {overhead_without}s"
        );
        // And the faulted-but-protected pipeline still beats regenerating
        // every time.
        assert!(m.original().total_s() > 2.0 * with.total_s());
    }
}
