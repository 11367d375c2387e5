//! The evaluation against SZ and ZFP (Sec. V): Figs. 8–11 and the
//! hybrid-configuration claim.

use bench::{
    benchmark_molecule, print_header, print_row, standard_dataset, standard_datasets, Claims,
    Codec, RoundTrip, CLUSTER_COPIES, CLUSTER_SPACING, ERROR_BOUNDS,
};
use pfs_sim::{
    gamess_eri_rate_mbs, CompressorProfile, DumpLoadModel, GpfsModel, IoPhases, ReuseModel,
};
use qchem::angular::shell_letter;
use qchem::basis::{shells_for, BfConfig, DEFAULT_EXPONENTS};
use qchem::dataset::{DatasetSpec, EriDataset};
use qchem::molecule::{Atom, Molecule, ANGSTROM};
use std::sync::Arc;
use zcheck::rate_distortion_sweep;

fn describe(mol: &Molecule) {
    println!("\n{}:", mol.name);
    let count = |z| mol.atoms.iter().filter(|a| a.z == z).count();
    let formula: String = [(8, "O"), (7, "N"), (6, "C"), (1, "H")]
        .map(|(z, symbol)| match count(z) {
            0 => String::new(),
            1 => symbol.to_string(),
            n => format!("{symbol}{n}"),
        })
        .concat();
    println!(
        "  formula: {formula} ({} atoms, {} heavy)",
        mol.atoms.len(),
        mol.heavy_atom_count()
    );

    // Extent: max heavy-atom pair distance.
    let heavy: Vec<_> = mol.atoms.iter().filter(|a| a.z > 1).collect();
    let dist = |a: &Atom, b: &Atom| (0..3).map(|k| (a.pos[k] - b.pos[k]).powi(2)).sum::<f64>();
    let pairs = heavy.iter().flat_map(|a| heavy.iter().map(|b| dist(a, b)));
    let extent = pairs.fold(0.0, f64::max).sqrt();
    println!("  heavy-atom extent: {:.2} Å", extent / ANGSTROM);

    for l in [2u32, 3] {
        let n = shells_for(mol, l, &DEFAULT_EXPONENTS).len();
        let (s, quartets) = (shell_letter(l), n.pow(4));
        println!("  {s} shells (l={l}): {n} -> {quartets} ({s}{s}|{s}{s}) quartet candidates");
    }
}

/// Fig. 8 — the benchmark molecules. The paper shows ball-and-stick
/// pictures of benzene, glutamine, and tri-alanine; the
/// machine-checkable equivalent is the composition, geometry summary,
/// and shell/quartet census of each system as the dataset generator
/// uses it.
pub fn fig8(_: &mut Claims) {
    println!("Fig. 8 reproduction — benchmark molecules (monomers and the");
    println!(
        "x{CLUSTER_COPIES} @ {CLUSTER_SPACING} Å clusters the harness uses for the production-scale quartet mix)"
    );
    for name in ["alanine", "benzene", "glutamine"] {
        describe(&Molecule::by_name(name).unwrap());
        describe(&benchmark_molecule(name));
    }
}

/// Fig. 9(a) — compression ratios: PaSTRI vs SZ vs ZFP.
///
/// Paper: at EB = 1e-10, SZ reaches 7.24×, ZFP 5.92×, PaSTRI up to 16.8×
/// (~2.5× better on average). Three molecules × {(dd|dd),(ff|ff)} ×
/// EB ∈ {1e-11, 1e-10, 1e-9}. A lossless row (Gzip-like, FPC) backs the related-work claim of
/// ~1.1–2×.
pub fn fig9a(claims: &mut Claims) {
    println!("Fig. 9(a) reproduction — compression ratios\n");
    let widths = [9usize, 22, 8, 8, 8];
    for eb in ERROR_BOUNDS {
        println!("EB = {eb:.0e}:");
        print_header(" | dataset | SZ | ZFP | PaSTRI", &widths);
        let mut sums = [RoundTrip::default(); 3];
        let mut pastri_wins = true;
        for ds in standard_datasets() {
            let mut cells = vec![String::new(), ds.label.clone()];
            let rts = Codec::ALL.map(|c| c.round_trip(&ds.values, ds.config, eb));
            pastri_wins &= rts[2].ratio() > rts[0].ratio().max(rts[1].ratio());
            for (sum, rt) in sums.iter_mut().zip(&rts) {
                sum.add(*rt);
                cells.push(format!("{:.2}", rt.ratio()));
            }
            print_row(&cells, &widths);
        }
        let avg = sums.map(|s| s.ratio());
        let mut cells = vec![String::new(), "AVERAGE".to_string()];
        cells.extend(avg.iter().map(|cr| format!("{cr:.2}")));
        print_row(&cells, &widths);
        println!(
            "  PaSTRI/SZ = {:.2}x, PaSTRI/ZFP = {:.2}x  (paper at 1e-10: 2.3x, 2.8x)",
            avg[2] / avg[0],
            avg[2] / avg[1]
        );
        claims.check(
            format_args!("EB {eb:.0e}: every codec decodes every dataset within EB"),
            sums.iter().all(|s| s.max_error <= eb * (1.0 + 1e-12)),
        );
        claims.check(
            format_args!("EB {eb:.0e}: PaSTRI's ratio is above SZ's and ZFP's on every dataset"),
            pastri_wins,
        );
        println!();
    }

    // Related-work lossless row (Sec. II: "1.1~2 in most cases").
    println!("lossless baselines (related-work claim):");
    let widths = [22usize, 10, 10];
    print_header("dataset | gzip-like | FPC", &widths);
    for ds in standard_datasets().filter(|ds| ds.config == BfConfig::dd_dd()) {
        let raw = (ds.values.len() * 8) as f64;
        let ratio = |bytes: Vec<u8>| format!("{:.2}", raw / bytes.len() as f64);
        let gz = ratio(lossless::deflate_like::compress_doubles(&ds.values));
        let fp = ratio(lossless::fpc::compress(&ds.values));
        print_row([ds.label.clone(), gz, fp], &widths);
    }
}

/// Fig. 9(b) — PSNR vs bitrate for tri-alanine (dd|dd). The paper's
/// rate–distortion plot: PaSTRI's curve sits up and to the left of SZ's
/// and ZFP's ("with the same PSNR, the size of the compressed data
/// generated by PaSTRI is half less than … SZ or ZFP").
pub fn fig9b(claims: &mut Claims) {
    println!("Fig. 9(b) reproduction — PSNR vs bitrate, tri-alanine (dd|dd)\n");
    let config = BfConfig::dd_dd();
    let ds = standard_dataset("alanine", config);
    let ebs: Vec<f64> = (6..=13).map(|k| 10f64.powi(-k)).collect();

    let widths = [9usize, 10, 10, 10, 10];
    let mut curves = Vec::new();
    for codec in Codec::ALL {
        let points = rate_distortion_sweep(&ds.values, &ebs, |data, eb| {
            let bytes = codec.compress(data, config, eb);
            let back = codec.decompress(&bytes);
            (bytes.len(), back)
        });
        println!("{}:", codec.name());
        print_header("EB | bitrate | PSNR dB | CR | max err", &widths);
        for p in &points {
            print_row(
                &[
                    format!("{:.0e}", p.error_bound),
                    format!("{:.3}", p.bitrate),
                    format!("{:.1}", p.psnr),
                    format!("{:.2}", p.compression_ratio),
                    format!("{:.1e}", p.max_abs_err),
                ],
                &widths,
            );
        }
        println!();
        curves.push(points);
    }

    // At every shared error bound, PaSTRI's bitrate must be the lowest
    // (same PSNR target, smaller output).
    let wins = curves[0]
        .iter()
        .zip(&curves[1])
        .zip(&curves[2])
        .filter(|((sz, zfp), pastri)| pastri.bitrate < sz.bitrate.min(zfp.bitrate))
        .count();
    println!(
        "PaSTRI has the lowest bitrate at {wins}/{} error bounds \
         (paper: dominant across the whole curve)",
        ebs.len()
    );
    claims.check(
        "PaSTRI has the lowest bitrate at every EB",
        wins == ebs.len(),
    );
}

/// Fig. 9(c,d) — compression and decompression rates (MB/s).
///
/// Paper (their Xeon E5-2695v4): compression PaSTRI > 660, ZFP 308.5,
/// SZ 104.1; decompression PaSTRI > 1110, ZFP 260.5, SZ 148.6. Absolute
/// numbers are hardware-dependent; PaSTRI being fastest on both is the
/// reproduced claim. ZFP compressing faster than SZ is a statement about
/// the baselines, printed but not claimed.
pub fn fig9cd(claims: &mut Claims) {
    println!("Fig. 9(c,d) reproduction — (de)compression rates in MB/s\n");
    let widths = [9usize, 22, 14, 14, 14];
    for eb in ERROR_BOUNDS {
        println!("EB = {eb:.0e}   (each cell: compress / decompress MB/s)");
        print_header(" | dataset | SZ | ZFP | PaSTRI", &widths);
        let row = |label: &str, mbs: [[f64; 2]; 3]| {
            let lead = ["", label].map(String::from);
            let cells = mbs.map(|[c, d]| format!("{c:.0}/{d:.0}"));
            print_row(lead.into_iter().chain(cells), &widths);
        };
        let mut sums = [[0.0f64; 2]; 3];
        let mut n = 0.0;
        for ds in standard_datasets() {
            let profiles = Codec::ALL.map(|c| c.profile(&ds.values, ds.config, eb, 1));
            let mbs = profiles.map(|p| [p.compress_mbs, p.decompress_mbs]);
            for (sum, [c, d]) in sums.iter_mut().zip(mbs) {
                *sum = [sum[0] + c, sum[1] + d];
            }
            n += 1.0;
            row(&ds.label, mbs);
        }
        let [sz, zfp, pastri] = sums.map(|[c, d]| [c / n, d / n]);
        row("AVERAGE", [sz, zfp, pastri]);
        println!("  ZFP compresses faster than SZ: {}", zfp[0] > sz[0]);
        for (i, direction) in ["compresses", "decompresses"].iter().enumerate() {
            claims.check(
                format_args!("EB {eb:.0e}: PaSTRI {direction} fastest"),
                pastri[i] > sz[i].max(zfp[i]),
            );
        }
        println!();
    }
    println!("paper averages: compression PaSTRI 660 / ZFP 308.5 / SZ 104.1 MB/s;");
    println!("                decompression PaSTRI 1110 / ZFP 260.5 / SZ 148.6 MB/s");
}

/// A Fig. 10 cell: total minutes, with codec and I/O seconds.
fn phases_cell(p: IoPhases) -> String {
    format!(
        "{:.1}m ({:.0}/{:.0}s)",
        p.total_s() / 60.0,
        p.codec_s,
        p.io_s
    )
}

/// Fig. 10 — parallel dump/load of the tri-alanine (dd|dd) dataset to a
/// GPFS-style parallel file system with 256–2048 cores.
///
/// The compressor ratios and single-core rates are *measured* from the
/// real implementations on the standard dataset; the cluster arithmetic
/// (file-per-process POSIX streams against shared GPFS bandwidth, the
/// paper's Bebop testbed) is the `pfs-sim` model. The paper's claims:
/// times fall with core count, PaSTRI is ≥ 2× faster than SZ and ZFP, and
/// uncompressed I/O would take "thousands of seconds".
pub fn fig10(claims: &mut Claims) {
    println!("Fig. 10 reproduction — parallel dump (D) / load (L), tri-alanine (dd|dd)\n");
    let config = BfConfig::dd_dd();
    let eb = 1e-10;
    let ds = standard_dataset("alanine", config);

    // Measure real ratios and single-core rates.
    let profiles: Vec<_> = Codec::ALL
        .iter()
        .map(|c| c.profile(&ds.values, config, eb, 1))
        .collect();
    println!("measured single-core profiles (EB = {eb:.0e}):");
    for p in &profiles {
        println!(
            "  {:>7}: ratio {:5.2}, compress {:6.0} MB/s, decompress {:6.0} MB/s",
            p.name, p.ratio, p.compress_mbs, p.decompress_mbs
        );
    }

    // Paper-scale dataset (the sampled files were ≥ 2 GB *per config*;
    // the parallel experiment targets the full production volume).
    let model = DumpLoadModel {
        gpfs: GpfsModel::bebop(),
        dataset_bytes: 4e12,
    };
    println!(
        "\nmodel: {:.0} TB dataset, GPFS {:.0} MB/s/process, {:.0} GB/s aggregate",
        model.dataset_bytes / 1e12,
        model.gpfs.per_process_mbs,
        model.gpfs.aggregate_mbs / 1e3
    );
    println!(
        "uncompressed write at 256 cores: {:.0} s (paper: \"thousands of seconds\", not plotted)\n",
        model.raw_io(256)
    );

    let widths = [7usize, 5, 12, 12, 12];
    print_header("cores | op | SZ | ZFP | PaSTRI", &widths);
    let cores = [256u32, 512, 1024, 2048];
    for n in cores {
        let dump = profiles.iter().map(|p| phases_cell(model.dump(p, n)));
        let load = profiles.iter().map(|p| phases_cell(model.load(p, n)));
        let lead = |op: &str| [n.to_string(), op.to_string()].into_iter();
        print_row(lead("D").chain(dump), &widths);
        print_row(lead("L").chain(load), &widths);
    }
    println!("\n(cells: total minutes, with codec seconds / I/O seconds in parentheses)");

    let dl = |p: &CompressorProfile, n| model.dump(p, n).total_s() + model.load(p, n).total_s();
    claims.check(
        "dump+load time falls with core count for every codec",
        profiles
            .iter()
            .all(|p| cores.windows(2).all(|w| dl(p, w[1]) < dl(p, w[0]))),
    );
    for n in [256u32, 2048] {
        let speedup = dl(&profiles[0], n).min(dl(&profiles[1], n)) / dl(&profiles[2], n);
        println!("at {n} cores PaSTRI is {speedup:.1}x faster than the best baseline");
        claims.check(
            format_args!("PaSTRI is ≥ 2× faster than the best baseline at {n} cores"),
            speedup >= 2.0,
        );
    }
}

/// Fig. 11 — total computation time to obtain integral data: recompute
/// with GAMESS every time vs generate once + PaSTRI compress/decompress.
///
/// ERI generation rates are the paper's own GAMESS measurements
/// ((dd|dd) 322.82 MB/s, (ff|ff) 622.81 MB/s); PaSTRI rates are measured
/// from this implementation. Data reused 20 times, as in the paper.
/// Bars are normalized to the Original infrastructure, per config.
pub fn fig11(claims: &mut Claims) {
    println!("Fig. 11 reproduction — normalized time to obtain ERI data (reuse = 20)\n");
    let reuse = 20u32;
    let widths = [22usize, 9, 12, 11, 13, 12];
    print_header(
        "infrastructure | EB | calculate | compress | decompress | total",
        &widths,
    );
    for config in [BfConfig::dd_dd(), BfConfig::ff_ff()] {
        let label = config.label();
        let ds = standard_dataset("alanine", config);
        let model = ReuseModel {
            bytes: 2e9, // the paper's ≥2 GB sampled dataset
            eri_gen_mbs: gamess_eri_rate_mbs(&label),
            reuse_count: reuse,
        };
        let orig = model.original();
        let mut cells = vec![format!("Original {label}")];
        cells.extend(["-", "1.000", "-", "-", "1.000"].map(String::from));
        print_row(&cells, &widths);
        for eb in ERROR_BOUNDS {
            let prof = Codec::Pastri.profile(&ds.values, config, eb, 1);
            let fast = model.with_compressor(&prof);
            let f = &fast;
            let shares = [f.calculate_s, f.compress_s, f.decompress_s, f.total_s()];
            let shares = shares.map(|s| format!("{:.3}", s / orig.total_s()));
            let lead = [format!("PaSTRI infra. {label}"), format!("{eb:.0e}")];
            print_row(lead.into_iter().chain(shares), &widths);
            claims.check(
                format_args!("{label} EB {eb:.0e}: PaSTRI infrastructure beats recomputation"),
                fast.total_s() < orig.total_s(),
            );
        }
    }
    println!(
        "\npaper: ~87% of GAMESS Hartree-Fock time is integral computation \
         ((dd|dd) 322.82 MB/s, (ff|ff) 622.81 MB/s) vs ~1 GB/s PaSTRI \
         decompression -> the compress-once infrastructure wins for any \
         realistic reuse count."
    );
}

/// Sec. V-A hybrid-configuration claim — "In our experiments, we have
/// also used d and f hybrid BF configurations ((df|fd), etc.) but we
/// have reported only the pure configurations … Metrics for hybrid
/// configurations follow very similar trends."
///
/// This runs the hybrids the paper omitted and checks they land in the
/// range spanned by the pure `(dd|dd)` and `(ff|ff)` results (within a
/// modest tolerance band).
pub fn hybrid(claims: &mut Claims) {
    let eb = 1e-10;
    println!("Sec. V-A reproduction — hybrid BF configurations (EB = {eb:.0e}, tri-alanine)\n");
    let widths = [10usize, 12, 8, 8, 8];
    print_header("config | block size | SZ | ZFP | PaSTRI", &widths);
    let pure = [BfConfig::dd_dd(), BfConfig::ff_ff()];
    let hybrids = [
        BfConfig::df_fd(),
        BfConfig::fd_ff(),
        BfConfig::parse("(dd|ff)").unwrap(),
    ];
    let mut pastri = Vec::new();
    for config in pure.into_iter().chain(hybrids) {
        // Hybrids are not in the standard catalog; generate them directly
        // (smaller block counts — the blocks are up to 6000 points).
        let ds = if pure.contains(&config) {
            standard_dataset("alanine", config)
        } else {
            Arc::new(EriDataset::generate(&DatasetSpec {
                molecule: benchmark_molecule("alanine"),
                config,
                max_blocks: 48,
                seed: 0x4479_b21d,
            }))
        };
        let ratios = Codec::ALL.map(|codec| codec.round_trip(&ds.values, config, eb).ratio());
        let mut cells = vec![config.label(), config.block_size().to_string()];
        cells.extend(ratios.iter().map(|cr| format!("{cr:.2}")));
        print_row(&cells, &widths);
        pastri.push(ratios[2]);
    }

    let (lo, hi) = (pastri[0].min(pastri[1]), pastri[0].max(pastri[1]));
    let band = (lo * 0.6, hi * 1.6);
    println!("\npure PaSTRI range: [{lo:.2}, {hi:.2}]; similar-trend band: {band:.2?}");
    // "Very similar trends": each hybrid within a generous band around
    // the pure range (quartet populations differ per config).
    for (config, h) in hybrids.iter().zip(&pastri[2..]) {
        let claim = format!("{} PaSTRI ratio {h:.2} is in the band", config.label());
        claims.check(claim, *h > band.0 && *h < band.1);
    }
}
