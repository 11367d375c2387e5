//! Subcommand implementations.

use std::fs;
use std::io::Write;

use pastri::{BlockGeometry, Compressor, CompressorOptions, EncodingTree, ScalingMetric};
use qchem::basis::BfConfig;
use qchem::dataset::{DatasetSpec, EriDataset};
use qchem::molecule::Molecule;

use crate::args::{Args, Flags};
use crate::CliError;

/// Which telemetry exporter `--telemetry` selected.
#[derive(Debug, Clone, Copy)]
enum TelemetryFormat {
    Summary,
    Json,
    Chrome,
}

/// Active telemetry capture for one CLI command: created by
/// [`telemetry_capture`] (which resets and enables the global recorder),
/// finished by [`TelemetryCapture::finish`] (snapshot → export →
/// disable). Dropping without `finish` (error paths) still disables the
/// recorder so no cross-command state leaks.
struct TelemetryCapture {
    format: TelemetryFormat,
    out_path: Option<String>,
}

impl Drop for TelemetryCapture {
    fn drop(&mut self) {
        telemetry::set_enabled(false);
    }
}

/// Parses `--telemetry <summary|json|chrome>` and `--telemetry-out FILE`.
/// When present, resets and enables the global recorder so the command's
/// whole run is captured.
fn telemetry_capture(args: &Args) -> Result<Option<TelemetryCapture>, CliError> {
    let Some(fmt) = args.get("telemetry") else {
        return Ok(None);
    };
    let format = match fmt {
        "summary" => TelemetryFormat::Summary,
        "json" => TelemetryFormat::Json,
        "chrome" => TelemetryFormat::Chrome,
        other => {
            return Err(CliError::new(format!(
                "--telemetry: unknown format `{other}` (expected summary, json, or chrome)"
            )))
        }
    };
    let out_path = args.get("telemetry-out").map(str::to_owned);
    telemetry::reset();
    telemetry::set_enabled(true);
    Ok(Some(TelemetryCapture { format, out_path }))
}

impl TelemetryCapture {
    /// Disables the recorder, renders the captured snapshot, and writes
    /// it to `--telemetry-out` (or `out` when no file was given). A
    /// truncated span buffer is warned about on the CLI output either
    /// way — a capture silently missing records is worse than a noisy
    /// one.
    fn finish(self, out: &mut dyn Write) -> Result<(), CliError> {
        telemetry::set_enabled(false);
        let snap = telemetry::snapshot();
        if let Some(warning) = span_drop_warning(&snap) {
            writeln!(out, "{warning}")?;
        }
        let text = match self.format {
            TelemetryFormat::Summary => telemetry::export::summary(&snap),
            TelemetryFormat::Json => telemetry::export::json_lines(&snap),
            TelemetryFormat::Chrome => telemetry::export::chrome(&snap),
        };
        match &self.out_path {
            Some(path) => fs::write(path, text)
                .map_err(|e| CliError::new(format!("writing {path}: {e}")))?,
            None => out.write_all(text.as_bytes())?,
        }
        Ok(())
    }
}

/// The CLI warning for a capture whose span buffer overflowed, or `None`
/// when nothing was dropped. Only the span/event *timeline* is
/// incomplete past the cap — counters, gauges, and histograms keep
/// recording, so derived numbers (latency gates, fsync counts) stay
/// trustworthy.
fn span_drop_warning(snap: &telemetry::Snapshot) -> Option<String> {
    (snap.spans_dropped > 0).then(|| {
        format!(
            "warning: {} telemetry span/event record(s) dropped at the {}-record buffer cap; \
             the span timeline is incomplete (counters and histograms remain complete)",
            snap.spans_dropped,
            telemetry::span_capacity(),
        )
    })
}

/// Reads a raw little-endian f64 file.
fn read_f64_file(path: &str) -> Result<Vec<f64>, CliError> {
    let bytes = fs::read(path).map_err(|e| CliError::new(format!("reading {path}: {e}")))?;
    if bytes.len() % 8 != 0 {
        return Err(CliError::new(format!(
            "{path}: length {} is not a multiple of 8 (expected raw f64)",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

/// Writes a raw little-endian f64 file atomically (temp + fsync +
/// rename): a crash mid-write never leaves a half-written artifact.
fn write_f64_file(path: &str, values: &[f64]) -> Result<(), CliError> {
    let mut bytes = Vec::with_capacity(values.len() * 8);
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    durable::atomic_write(std::path::Path::new(path), &bytes)
        .map_err(|e| CliError::new(format!("writing {path}: {e}")))
}

fn parse_config(args: &Args) -> Result<BfConfig, CliError> {
    let raw = args
        .get("config")
        .ok_or_else(|| CliError::new("--config is required (e.g. --config '(dd|dd)')"))?;
    BfConfig::parse(raw)
        .ok_or_else(|| CliError::new(format!("--config: `{raw}` is not a BF configuration")))
}

fn parse_options(args: &Args) -> Result<CompressorOptions, CliError> {
    let metric = match args.get("metric").unwrap_or("ER").to_ascii_uppercase().as_str() {
        "FR" => ScalingMetric::Fr,
        "ER" => ScalingMetric::Er,
        "AR" => ScalingMetric::Ar,
        "AAR" => ScalingMetric::Aar,
        "IS" => ScalingMetric::Is,
        other => return Err(CliError::new(format!("--metric: unknown metric `{other}`"))),
    };
    let tree = match args.get("tree").unwrap_or("5") {
        "1" => EncodingTree::Tree1,
        "2" => EncodingTree::Tree2,
        "3" => EncodingTree::Tree3,
        "4" => EncodingTree::Tree4,
        "5" => EncodingTree::Tree5,
        "fixed" => EncodingTree::FixedLength,
        other => return Err(CliError::new(format!("--tree: unknown tree `{other}`"))),
    };
    Ok(CompressorOptions {
        metric,
        tree,
        ..Default::default()
    })
}

/// Runs `f` on a rayon pool of `threads` workers, or on the global
/// pool when `threads` is 0 (RAYON_NUM_THREADS, then available
/// parallelism). Output is byte-identical at every thread count.
fn with_threads<T: Send>(
    threads: usize,
    f: impl FnOnce() -> Result<T, CliError> + Send,
) -> Result<T, CliError> {
    if threads == 0 {
        return f();
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| CliError::new(format!("thread pool: {e}")))?
        .install(f)
}

const COMPRESS: Flags = Flags {
    values: &[
        "config", "eb", "threads", "metric", "tree", "segment-blocks", "checkpoint-every",
        "telemetry", "telemetry-out",
    ],
    switches: &["stream", "resume"],
};

/// `pastri compress <in.f64> <out.pastri> --config ... [--eb ...]
/// [--threads N] [--stream [--segment-blocks B] [--checkpoint-every N]
/// [--resume]]`. An `<out>` ending in `.eristore` writes the block
/// store `pastri serve` mounts instead of a container.
pub(crate) fn compress(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &COMPRESS)?;
    let telem = telemetry_capture(&args)?;
    let input = args.positional(0, "in.f64")?;
    let output = args.positional(1, "out.pastri")?;
    let config = parse_config(&args)?;
    let eb = args.get_f64("eb", 1e-10)?;
    if !(eb.is_finite() && eb > 0.0) {
        return Err(CliError::new("--eb must be finite and > 0"));
    }
    let threads = args.get_usize("threads", 0)?;
    if output.ends_with(".eristore") {
        compress_store(&args, input, output, config, eb, threads, out)?;
        if let Some(t) = telem {
            t.finish(out)?;
        }
        return Ok(());
    }
    let compressor = Compressor::with_options(
        BlockGeometry::from_dims(config.dims()),
        eb,
        parse_options(&args)?,
    );
    if args.switch("stream") {
        // Bounded-memory, crash-safe path: read/compress/write segment
        // by segment through a durable writer that seals each batch with
        // an in-band commit frame and one fsync. `--resume` picks an
        // interrupted run back up at its last verified commit.
        let segment_blocks = args.get_usize("segment-blocks", 64)?.max(1);
        let checkpoint_every = args.get_usize("checkpoint-every", 16)?.max(1);
        let resume = args.switch("resume");
        let run = || -> Result<(u64, u64), CliError> {
            let out_path = std::path::Path::new(output);
            let mut writer = if resume {
                pastri::stream::StreamWriter::resume(
                    out_path,
                    compressor,
                    segment_blocks,
                    checkpoint_every,
                )
            } else {
                pastri::stream::StreamWriter::create(
                    out_path,
                    compressor,
                    segment_blocks,
                    checkpoint_every,
                )
            }
            .map_err(|e| CliError::new(format!("{output}: {e}")))?;
            // Values already durable from the interrupted run: skip them
            // in the input so the finished stream is byte-identical to
            // an uninterrupted one.
            let skipped = writer.checkpoint().values;
            let mut infile =
                fs::File::open(input).map_err(|e| CliError::new(format!("{input}: {e}")))?;
            if skipped > 0 {
                use std::io::Seek;
                infile
                    .seek(std::io::SeekFrom::Start(skipped * 8))
                    .map_err(|e| CliError::new(format!("{input}: {e}")))?;
            }
            let mut reader = std::io::BufReader::new(infile);
            let mut buf = vec![0u8; config.block_size() * 8];
            let mut total_in = skipped * 8;
            loop {
                let n = read_chunk(&mut reader, &mut buf)?;
                if n == 0 {
                    break;
                }
                if n % 8 != 0 {
                    return Err(CliError::new(format!(
                        "{input}: length is not a multiple of 8 (raw f64 expected)"
                    )));
                }
                let values: Vec<f64> = buf[..n]
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                total_in += n as u64;
                writer.write_values(&values)?;
            }
            writer.finish()?;
            Ok((total_in, skipped))
        };
        // `--threads N` pins the batch-compression crew; 0 = auto.
        let (total_in, skipped) = with_threads(threads, run)?;
        let out_len = fs::metadata(output)?.len();
        let resumed = if skipped > 0 {
            format!(", resumed at value {skipped}")
        } else {
            String::new()
        };
        writeln!(
            out,
            "{input} -> {output} (streamed, durable{resumed}): {total_in} -> {out_len} bytes (ratio {:.2}x, EB {eb:.1e})",
            total_in as f64 / out_len as f64
        )?;
        if let Some(t) = telem {
            t.finish(out)?;
        }
        return Ok(());
    }
    let data = read_f64_file(input)?;
    let (bytes, stats) = with_threads(threads, || Ok(compressor.compress_with_stats(&data)))?;
    durable::atomic_write(std::path::Path::new(output), &bytes)
        .map_err(|e| CliError::new(format!("writing {output}: {e}")))?;
    writeln!(
        out,
        "{} -> {}: {} -> {} bytes (ratio {:.2}x, {:.2} bits/value, EB {:.1e})",
        input,
        output,
        data.len() * 8,
        bytes.len(),
        stats.compression_ratio(),
        stats.bitrate(),
        eb
    )?;
    if let Some(t) = telem {
        t.finish(out)?;
    }
    Ok(())
}

/// `compress` to a `.eristore`: one block store of whole `--config`
/// blocks at default compressor options, the header recording only
/// geometry and error bound. The store commits in-band like every
/// durable artifact, with one commit covering the whole input. Until
/// `finish` appends the index and trailer the file has no trailer, so a
/// torn write is refused by `serve` and `verify` rather than read.
fn compress_store(
    args: &Args,
    input: &str,
    output: &str,
    config: BfConfig,
    eb: f64,
    threads: usize,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let stray = ["metric", "tree", "segment-blocks", "checkpoint-every"]
        .into_iter()
        .find(|flag| args.get(flag).is_some())
        .or_else(|| ["stream", "resume"].into_iter().find(|flag| args.switch(flag)));
    if let Some(flag) = stray {
        return Err(CliError::new(format!(
            "--{flag} does not apply to a .eristore output (stores use default options)"
        )));
    }
    let data = read_f64_file(input)?;
    let bs = config.block_size();
    if data.len() % bs != 0 {
        return Err(CliError::new(format!(
            "{input}: {} values is not a whole number of {bs}-value blocks",
            data.len()
        )));
    }
    let store_err = |e: eri_store::StoreError| CliError::new(format!("writing {output}: {e}"));
    let geometry = BlockGeometry::from_dims(config.dims());
    let blocks = (data.len() / bs).max(1);
    let mut writer =
        eri_store::StoreWriter::create_durable(std::path::Path::new(output), geometry, eb, blocks)
            .map_err(store_err)?;
    with_threads(threads, || writer.append_blocks(&data).map_err(store_err))?;
    let blocks = writer.finish().map_err(store_err)?;
    let out_len = fs::metadata(output)?.len();
    writeln!(
        out,
        "{input} -> {output} (block store, {blocks} blocks): {} -> {out_len} bytes (ratio {:.2}x, EB {eb:.1e})",
        data.len() * 8,
        (data.len() * 8) as f64 / out_len as f64
    )?;
    Ok(())
}

/// Fills `buf` as far as possible; returns bytes read (0 at EOF).
fn read_chunk(r: &mut impl std::io::Read, buf: &mut [u8]) -> Result<usize, CliError> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = r
            .read(&mut buf[filled..])
            .map_err(|e| CliError::new(format!("read error: {e}")))?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    Ok(filled)
}

const DECOMPRESS: Flags = Flags {
    values: &["telemetry", "telemetry-out"],
    switches: &[],
};

/// `pastri decompress <in.pastri> <out.f64>`.
pub(crate) fn decompress(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &DECOMPRESS)?;
    let telem = telemetry_capture(&args)?;
    let input = args.positional(0, "in.pastri")?;
    let output = args.positional(1, "out.f64")?;
    let bytes = fs::read(input).map_err(|e| CliError::new(format!("reading {input}: {e}")))?;
    // Auto-detect the streamed ("PSTRS") vs single-container ("PSTR")
    // format by magic. A decode failure in a file that carries a PaSTRI
    // magic is corruption in a recognized artifact (exit 2); anything
    // else is a format/usage error (exit 1).
    let recognized = bytes.starts_with(b"PSTR");
    let decode_err = |msg: String| {
        if recognized {
            CliError::corruption(msg)
        } else {
            CliError::new(msg)
        }
    };
    let values = if bytes.starts_with(b"PSTRS") {
        pastri::stream::StreamReader::new(bytes.as_slice())
            .and_then(pastri::stream::StreamReader::read_to_vec)
            .map_err(|e| decode_err(format!("{input}: {e}")))?
    } else {
        pastri::decompress(&bytes).map_err(|e| decode_err(format!("{input}: {e}")))?
    };
    write_f64_file(output, &values)?;
    writeln!(
        out,
        "{} -> {}: {} values ({} bytes)",
        input,
        output,
        values.len(),
        values.len() * 8
    )?;
    if let Some(t) = telem {
        t.finish(out)?;
    }
    Ok(())
}

/// `pastri inspect <in.pastri>`: header metadata + per-kind block census
/// via the cheap O(blocks) inspection API — no value is decoded.
pub(crate) fn inspect(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &Flags::NONE)?;
    let input = args.positional(0, "in.pastri")?;
    let bytes = fs::read(input).map_err(|e| CliError::new(format!("reading {input}: {e}")))?;
    // Damage in a recognized container is exit 2. Anything without the
    // container magic, or with an unknown version (a `.pstrs` stream
    // lands here as one), is not a container: exit 1.
    let inspect_err = |e: pastri::DecompressError| {
        let msg = format!("{input}: {e}");
        if bytes.starts_with(b"PSTR") && !matches!(e, pastri::DecompressError::BadVersion(_)) {
            CliError::corruption(msg)
        } else {
            CliError::new(msg)
        }
    };
    let info = pastri::inspect(&bytes).map_err(inspect_err)?;
    writeln!(
        out,
        "{input}: valid PaSTRI container, {} bytes, {} values ({:.2}x vs raw)",
        info.container_bytes,
        info.original_len,
        info.compression_ratio()
    )?;
    writeln!(
        out,
        "  error bound {:.1e}, geometry {}x{} ({} points/block), {} blocks, tree {}",
        info.error_bound,
        info.geometry.num_subblocks,
        info.geometry.subblock_size,
        info.geometry.block_size(),
        info.num_blocks,
        info.tree.name()
    )?;
    let kinds = ["all-zero", "pattern-only", "dense", "sparse", "verbatim"];
    let census: Vec<String> = kinds
        .iter()
        .zip(info.kind_counts.iter())
        .filter(|(_, &c)| c > 0)
        .map(|(k, c)| format!("{k} {c}"))
        .collect();
    writeln!(out, "  blocks: {}", census.join(", "))?;
    // Storage breakdown (paper Sec. V-B), reconstructed from the wire:
    // raw bits per category plus the percentage of the accounted total.
    let stats = pastri::container_bit_stats(&bytes).map_err(inspect_err)?;
    let b = stats.breakdown();
    writeln!(
        out,
        "  storage: pattern+scales {} bits ({:.1}%), ecq {} bits ({:.1}%), bookkeeping {} bits ({:.1}%), verbatim {} bits ({:.1}%)",
        stats.pq_bits + stats.sq_bits,
        b.pattern_and_scales * 100.0,
        stats.ecq_bits,
        b.ecq * 100.0,
        stats.header_bits + stats.container_bits,
        b.bookkeeping * 100.0,
        stats.verbatim_bits,
        b.verbatim * 100.0,
    )?;
    Ok(())
}

/// `pastri report <telemetry.jsonl>`: re-render a line-oriented JSON
/// telemetry capture (from `--telemetry json --telemetry-out FILE`) as
/// the human-readable summary tree.
pub(crate) fn report(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &Flags::NONE)?;
    let input = args.positional(0, "telemetry.jsonl")?;
    let text = fs::read_to_string(input)
        .map_err(|e| CliError::new(format!("reading {input}: {e}")))?;
    let snap = telemetry::export::from_json_lines(&text)
        .map_err(|e| CliError::new(format!("{input}: {e}")))?;
    write!(out, "{}", telemetry::export::summary(&snap))?;
    Ok(())
}

/// `pastri verify <file>`: scan any PaSTRI artifact — a single container
/// (`PSTR`), a stream (`PSTRS`), or an eri-store (`ERISTOR2`) — and
/// print a per-block/segment damage report. Exit codes are the scripting
/// contract: 0 clean, 2 when damage is found in a recognized artifact,
/// 1 for I/O trouble or an unrecognized format.
pub(crate) fn verify(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &Flags::NONE)?;
    let input = args.positional(0, "file")?;
    let found = damage(input, false)?;
    found.print(input, out)?;
    found.verdict(input)
}

/// The on-disk layouts `verify`, `scrub` and `salvage` recognize.
enum Artifact {
    Container,
    Stream,
    Store,
}

/// Tells the layouts apart by their magic. An unknown magic is exit 1:
/// the file was never claimed to be a PaSTRI artifact.
fn sniff(input: &str) -> Result<Artifact, CliError> {
    use std::io::Read;
    let mut magic = Vec::with_capacity(8);
    fs::File::open(input)
        .and_then(|f| f.take(8).read_to_end(&mut magic))
        .map_err(|e| CliError::new(format!("{input}: {e}")))?;
    if magic.starts_with(b"ERISTOR") {
        Ok(Artifact::Store)
    } else if magic.starts_with(b"PSTRS") {
        Ok(Artifact::Stream)
    } else if magic.starts_with(b"PSTR") {
        Ok(Artifact::Container)
    } else {
        Err(CliError::new(format!(
            "{input}: not a PaSTRI container, stream, or store (unknown magic)"
        )))
    }
}

/// A failed [`pastri::stream::salvage`]: `InvalidData` from a file that
/// carries the stream magic is a damaged stream header (exit 2);
/// anything else is I/O trouble or not a stream at all (exit 1).
fn salvage_failure(input: &str, e: std::io::Error) -> CliError {
    let msg = format!("{input}: {e}");
    if e.kind() == std::io::ErrorKind::InvalidData && matches!(sniff(input), Ok(Artifact::Stream)) {
        CliError::corruption(msg)
    } else {
        CliError::new(msg)
    }
}

/// One integrity pass over an artifact: the classification `verify`
/// prints and `scrub` prints and heals.
struct Damage {
    kind: &'static str,
    /// `block` or `segment`.
    unit: &'static str,
    total: usize,
    repairable: usize,
    /// Damaged units beyond the parity budget; a lost stream tail counts
    /// as one.
    unrepairable: usize,
    /// Redundancy damaged while the data it guards is intact: container
    /// parity groups, or stream commit frames.
    redundancy: usize,
    /// `parity group` or `commit frame`.
    redundancy_unit: &'static str,
    tail_lost: bool,
    /// One report line per damaged unit.
    lines: Vec<String>,
    /// The artifact with every repairable unit healed (and unrepairable
    /// stream segments dropped); only built when healing was asked for
    /// and something is damaged.
    healed: Option<Vec<u8>>,
}

/// Classifies every block or segment of `input` through the library's
/// own repair path for its layout. Without `heal`, streams and stores
/// are scanned without holding the whole file in memory.
fn damage(input: &str, heal: bool) -> Result<Damage, CliError> {
    let read = || fs::read(input).map_err(|e| CliError::new(format!("reading {input}: {e}")));
    let found = match sniff(input)? {
        Artifact::Container => {
            // The repair report finds *all* on-disk damage (payloads,
            // framing, and the parity section itself) and says which of
            // it the parity budget covers.
            let (repaired, report) = pastri::repair_container(&read()?).map_err(|e| {
                CliError::corruption(format!("{input}: unrecoverable header damage: {e}"))
            })?;
            let mut lines = Vec::new();
            for b in &report.repaired_blocks {
                lines.push(format!("  block {b}: damaged, repairable from parity"));
            }
            for b in &report.unrepairable_blocks {
                lines.push(format!("  block {b}: damaged beyond the parity budget"));
            }
            for g in &report.parity_groups_rebuilt {
                lines.push(format!(
                    "  parity group {g}: parity section damaged (rebuildable)"
                ));
            }
            Damage {
                kind: "PaSTRI container",
                unit: "block",
                total: report.total_blocks,
                repairable: report.repaired_blocks.len(),
                unrepairable: report.unrepairable_blocks.len(),
                redundancy: report.parity_groups_rebuilt.len(),
                redundancy_unit: "parity group",
                tail_lost: false,
                lines,
                healed: (heal && report.is_damaged()).then_some(repaired),
            }
        }
        Artifact::Stream => {
            // Salvage repairs what parity covers and drops the rest; its
            // report is the classification and its output the heal.
            let file = fs::File::open(input).map_err(|e| CliError::new(format!("{input}: {e}")))?;
            let (mut healed, mut discard) = (Vec::new(), std::io::sink());
            let sink: &mut dyn Write = if heal { &mut healed } else { &mut discard };
            let report = pastri::stream::salvage(file, sink)
                .map_err(|e| salvage_failure(input, e))?;
            let scanned = report.kept + report.dropped.len();
            let mut lines = Vec::new();
            for (i, _) in &report.repaired {
                lines.push(format!("  segment {i}: damaged, repairable from parity"));
            }
            for (i, e) in &report.dropped {
                lines.push(format!(
                    "  segment {i}: damaged beyond the parity budget ({e})"
                ));
            }
            if report.tail_lost {
                lines.push(format!(
                    "  segment {scanned}: framing lost, tail unreadable"
                ));
            }
            for at in &report.commits_damaged {
                lines.push(format!("  commit frame at offset {at}: damaged (rebuildable)"));
            }
            let tail = usize::from(report.tail_lost);
            Damage {
                kind: "PaSTRI stream",
                unit: "segment",
                total: scanned + tail,
                repairable: report.repaired.len(),
                unrepairable: report.dropped.len() + tail,
                redundancy: report.commits_damaged.len(),
                redundancy_unit: "commit frame",
                tail_lost: report.tail_lost,
                lines,
                healed: (heal && !report.is_clean()).then_some(healed),
            }
        }
        Artifact::Store => {
            let report = eri_store::StoreReader::open(std::path::Path::new(input))
                .and_then(|store| store.scrub())
                .map_err(|e| CliError::corruption(format!("{input}: {e}")))?;
            let healed = if heal && !report.is_clean() {
                let mut bytes = read()?;
                report
                    .heal(&mut bytes)
                    .map_err(|e| CliError::corruption(format!("{input}: {e}")))?;
                Some(bytes)
            } else {
                None
            };
            let lines = (report.damaged.iter())
                .map(|d| {
                    let fate = if d.repaired.is_some() {
                        "repairable from parity"
                    } else {
                        "beyond the parity budget"
                    };
                    format!(
                        "  block {} (offset {}): {} — {fate}",
                        d.block, d.offset, d.error
                    )
                })
                .collect();
            let repairable = report.repairable();
            Damage {
                kind: "ERI store",
                unit: "block",
                total: report.blocks,
                repairable,
                unrepairable: report.damaged.len() - repairable,
                redundancy: 0,
                redundancy_unit: "parity group",
                tail_lost: false,
                lines,
                healed,
            }
        }
    };
    Ok(found)
}

impl Damage {
    fn is_clean(&self) -> bool {
        self.repairable + self.unrepairable + self.redundancy == 0
    }

    /// The summary line, then one line per damaged unit.
    fn print(&self, input: &str, out: &mut dyn Write) -> Result<(), CliError> {
        writeln!(
            out,
            "{input}: {}, {} {}(s) scanned, {} damaged ({} repairable, {} unrepairable){}",
            self.kind,
            self.total,
            self.unit,
            self.repairable + self.unrepairable,
            self.repairable,
            self.unrepairable,
            if self.tail_lost {
                ", tail unreadable"
            } else {
                ""
            }
        )?;
        for line in &self.lines {
            writeln!(out, "{line}")?;
        }
        Ok(())
    }

    /// Exit 0 when clean, else exit 2 with what was found: `verify`'s
    /// verdict, and `scrub`'s without `--repair`.
    fn verdict(&self, input: &str) -> Result<(), CliError> {
        let damaged = self.repairable + self.unrepairable;
        let what = if self.is_clean() {
            return Ok(());
        } else if damaged == 0 {
            // Damage confined to the redundancy itself: the data is
            // intact, but the file is not the one the writer produced.
            format!(
                "{} {}(s) damaged (data intact — run `pastri scrub --repair`)",
                self.redundancy, self.redundancy_unit
            )
        } else if self.unrepairable == 0 {
            format!(
                "{damaged} of {} {}(s) damaged (all repairable — run `pastri scrub --repair`)",
                self.total, self.unit
            )
        } else {
            format!(
                "{damaged} of {} {}(s) damaged ({} beyond the parity budget)",
                self.total, self.unit, self.unrepairable
            )
        };
        Err(CliError::corruption(format!("{input}: {what}")))
    }
}

/// `pastri salvage <in.pstrs> <out.pstrs>`: rewrite a damaged stream,
/// repairing damaged segments from their containers' parity where the
/// budget allows, keeping intact segments byte-for-byte, and dropping
/// only what is beyond repair. The output is committed atomically
/// (temp file, fsync, rename) and always verifies clean; the exit code
/// reports
/// what salvage found in the *input* — 0 if no data was lost (repairs
/// are not losses), 2 if segments were dropped, the tail was
/// unreadable, or the stream header itself is damaged.
pub(crate) fn salvage(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &Flags::NONE)?;
    let input = args.positional(0, "in.pstrs")?;
    let output = args.positional(1, "out.pstrs")?;
    let infile = fs::File::open(input).map_err(|e| CliError::new(format!("{input}: {e}")))?;
    let outfile = durable::AtomicFile::create(std::path::Path::new(output))
        .map_err(|e| CliError::new(format!("{output}: {e}")))?;
    let mut sink = std::io::BufWriter::new(outfile);
    let report = pastri::stream::salvage(infile, &mut sink)
        .map_err(|e| salvage_failure(input, e))?;
    sink.into_inner()
        .map_err(|e| CliError::new(format!("{output}: {e}")))?
        .commit()
        .map_err(|e| CliError::new(format!("{output}: {e}")))?;
    writeln!(
        out,
        "{input} -> {output}: kept {} segment(s), repaired {}, dropped {}{}",
        report.kept,
        report.repaired.len(),
        report.dropped.len(),
        if report.tail_lost {
            " (framing damage: tail lost)"
        } else {
            ""
        }
    )?;
    for (index, _) in &report.repaired {
        writeln!(out, "  repaired segment {index} from parity")?;
    }
    for (index, err) in &report.dropped {
        writeln!(out, "  dropped segment {index}: {err}")?;
    }
    if report.is_lossless() {
        Ok(())
    } else {
        Err(CliError::corruption(format!(
            "{input}: salvage dropped {} segment(s){}",
            report.dropped.len(),
            if report.tail_lost { " and lost the tail" } else { "" }
        )))
    }
}

const SCRUB: Flags = Flags {
    values: &["telemetry", "telemetry-out"],
    switches: &["repair"],
};

/// `pastri scrub <file> [--repair]`: the maintenance half of
/// self-healing storage. Scans any PaSTRI artifact — container, stream,
/// or ERI store — with the same classifier as `verify`, which marks
/// every damaged block/segment as repairable (its parity budget covers
/// the damage) or not. With `--repair`, repairable damage is healed *in
/// place*: the fixed file is rewritten atomically (temp + fsync +
/// rename), byte-identical to what the writer originally produced. When
/// damage exceeds the parity budget, the damaged original is preserved
/// at `<file>.quarantine` before any rewrite, so nothing is destroyed by
/// a best-effort repair.
///
/// Exit codes: 0 clean, 0 damage fully repaired in place (with report),
/// 2 damage present and not (fully) repaired.
pub(crate) fn scrub(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &SCRUB)?;
    let telem = telemetry_capture(&args)?;
    let input = args.positional(0, "file")?;
    let result = damage(input, args.switch("repair")).and_then(|found| heal(input, &found, out));
    // Telemetry is exported even when the scrub found damage: the
    // capture of a failing run is exactly what a postmortem wants.
    if let Some(t) = telem {
        t.finish(out)?;
    }
    result
}

/// Prints a scrub classification and writes its healed bytes, if any,
/// back in place.
fn heal(input: &str, found: &Damage, out: &mut dyn Write) -> Result<(), CliError> {
    found.print(input, out)?;
    if found.is_clean() {
        writeln!(out, "{input}: clean")?;
        return Ok(());
    }
    let Some(healed) = &found.healed else {
        return found.verdict(input);
    };
    if found.unrepairable == 0 {
        rewrite_atomic(input, healed)?;
        writeln!(
            out,
            "{input}: repaired in place ({} {}(s) rebuilt from parity, {} {}(s) regenerated)",
            found.repairable, found.unit, found.redundancy, found.redundancy_unit
        )?;
        return Ok(());
    }
    // Partial repair: heal what the parity covers, but keep the damaged
    // original quarantined and report failure.
    let original = fs::read(input).map_err(|e| CliError::new(format!("reading {input}: {e}")))?;
    quarantine(input, &original, out)?;
    rewrite_atomic(input, healed)?;
    Err(CliError::corruption(format!(
        "{input}: {} {}(s) damaged beyond the parity budget",
        found.unrepairable, found.unit
    )))
}

/// Atomically replaces `path` with `bytes` (temp + fsync + rename).
fn rewrite_atomic(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    durable::atomic_write(std::path::Path::new(path), bytes)
        .map_err(|e| CliError::new(format!("rewriting {path}: {e}")))
}

/// Preserves the damaged original at a fresh quarantine path
/// (`<path>.quarantine`, `.quarantine.1`, …) so a partial repair never
/// destroys forensic evidence — and a repeated scrub never clobbers the
/// evidence from an earlier pass.
fn quarantine(path: &str, bytes: &[u8], out: &mut dyn Write) -> Result<(), CliError> {
    let qpath = durable::fresh_quarantine_path(std::path::Path::new(path))
        .to_string_lossy()
        .into_owned();
    rewrite_atomic(&qpath, bytes)?;
    telemetry::counter_add("scrub.quarantines", 1);
    telemetry::event("scrub.quarantine");
    writeln!(out, "  damaged original preserved at {qpath}")?;
    Ok(())
}

const GENERATE: Flags = Flags {
    values: &["config", "blocks", "seed", "molecule", "cluster"],
    switches: &["model"],
};

/// `pastri gen <out.f64> --molecule benzene --config (dd|dd) ...`.
pub(crate) fn generate(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &GENERATE)?;
    let output = args.positional(0, "out.f64")?;
    let config = parse_config(&args)?;
    let blocks = args.get_usize("blocks", 100)?;
    let seed = args.get_usize("seed", 0)? as u64;
    let ds = if args.switch("model") {
        EriDataset::generate_model(config, blocks, seed)
    } else {
        let mol_name = args.get("molecule").unwrap_or("benzene");
        let molecule = Molecule::by_name(mol_name)
            .ok_or_else(|| CliError::new(format!("--molecule: unknown molecule `{mol_name}`")))?;
        let copies = args.get_usize("cluster", 1)?;
        EriDataset::generate(&DatasetSpec {
            molecule: molecule.cluster(copies.max(1), 4.5),
            config,
            max_blocks: blocks,
            seed,
        })
    };
    write_f64_file(output, &ds.values)?;
    writeln!(
        out,
        "{output}: {} — {} blocks of {} values ({} bytes)",
        ds.label,
        ds.num_blocks(),
        config.block_size(),
        ds.byte_size()
    )?;
    Ok(())
}

/// `pastri assess <original.f64> <decompressed.f64>`.
pub(crate) fn assess(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &Flags::NONE)?;
    let orig_path = args.positional(0, "original.f64")?;
    let dec_path = args.positional(1, "decompressed.f64")?;
    let orig = read_f64_file(orig_path)?;
    let dec = read_f64_file(dec_path)?;
    if orig.len() != dec.len() {
        return Err(CliError::new(format!(
            "length mismatch: {} has {} values, {} has {}",
            orig_path,
            orig.len(),
            dec_path,
            dec.len()
        )));
    }
    let a = zcheck::assess(&orig, &dec, 0);
    writeln!(
        out,
        "n = {}, max abs err = {:.3e}, MSE = {:.3e}, PSNR = {:.1} dB, value range = {:.3e}",
        a.n, a.max_abs_err, a.mse, a.psnr, a.value_range
    )?;
    Ok(())
}

const SOAK: Flags = Flags {
    values: &[
        "telemetry", "telemetry-out", "seed", "ops", "stores", "scale", "eb", "subblocks",
        "subblock-size", "read-weight", "container-weight", "stream-weight", "crash-weight",
        "scrub-weight", "bit-flip-every", "flips-per-event", "torn-every", "transient-rate",
        "max-transients", "slo-read-p99-us", "slo-min-repair-success", "slo-max-quarantined",
        "slo-max-resident-values", "seconds", "bench-out", "replicas", "clients", "requests",
        "max-batch", "faulty-every", "max-faults", "shed-every", "max-sheds-per-key",
        "delay-every", "breaker-threshold", "slo-rpc-p99-us", "slo-max-deadline-exceeded",
        "slo-max-frame-errors", "slo-max-shed-rate", "slo-queue-wait-p99-us",
        "slo-max-breaker-opened",
    ],
    switches: &["transport", "overload", "keep"],
};

/// `pastri soak <dir> [--seed N] [--ops N] [--stores N] [--scale N] …`:
/// the deterministic fault-storm soak harness (see the `soak` crate).
/// Runs a seeded mixed workload across many stores under SDC, crash,
/// torn-write, and transient-read faults; verifies zero data loss; and
/// evaluates the configured SLO gates. Writes the machine-readable
/// report to `--bench-out` (default `BENCH_soak.json`).
///
/// Exit codes: 0 all gates hold and no data was lost, 1 I/O or usage
/// error, 2 unaccounted data loss or a violated SLO gate.
pub(crate) fn soak_cmd(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &SOAK)?;
    let telem = telemetry_capture(&args)?;
    let dir = args.positional(0, "dir")?;

    if args.switch("transport") {
        return soak_transport(&args, dir, out, telem);
    }

    let defaults = soak::SoakConfig::storm(std::path::Path::new(dir), 42);
    let mut cfg = defaults;
    cfg.seed = args.get_usize("seed", 42)? as u64;
    cfg.ops = args.get_usize("ops", cfg.ops)?;
    cfg.stores = args.get_usize("stores", cfg.stores)?;
    cfg.scale = args.get_usize("scale", cfg.scale)?;
    cfg.error_bound = args.get_f64("eb", cfg.error_bound)?;
    cfg.geometry = BlockGeometry::new(
        args.get_usize("subblocks", cfg.geometry.num_subblocks)?,
        args.get_usize("subblock-size", cfg.geometry.subblock_size)?,
    );
    cfg.mix = soak::OpMix {
        read: args.get_usize("read-weight", cfg.mix.read as usize)? as u32,
        write_container: args.get_usize("container-weight", cfg.mix.write_container as usize)?
            as u32,
        write_stream: args.get_usize("stream-weight", cfg.mix.write_stream as usize)? as u32,
        crash_resume: args.get_usize("crash-weight", cfg.mix.crash_resume as usize)? as u32,
        scrub: args.get_usize("scrub-weight", cfg.mix.scrub as usize)? as u32,
    };
    cfg.faults = soak::FaultPlan {
        bit_flip_every: args.get_usize("bit-flip-every", cfg.faults.bit_flip_every)?,
        flips_per_event: args.get_usize("flips-per-event", cfg.faults.flips_per_event)?,
        torn_stream_every: args.get_usize("torn-every", cfg.faults.torn_stream_every)?,
        transient_rate: args.get_f64("transient-rate", cfg.faults.transient_rate)?,
        max_transient_errors: args
            .get_usize("max-transients", cfg.faults.max_transient_errors as usize)?
            as u32,
    };
    cfg.slo = soak::SloGates {
        read_p99_us: args
            .get("slo-read-p99-us")
            .map(|_| args.get_usize("slo-read-p99-us", 0))
            .transpose()?
            .map(|v| v as u64),
        min_repair_success: args
            .get("slo-min-repair-success")
            .map(|_| args.get_f64("slo-min-repair-success", 0.0))
            .transpose()?,
        max_quarantined: args
            .get("slo-max-quarantined")
            .map(|_| args.get_usize("slo-max-quarantined", 0))
            .transpose()?
            .map(|v| v as u64),
        max_resident_values: args
            .get("slo-max-resident-values")
            .map(|_| args.get_usize("slo-max-resident-values", 0))
            .transpose()?
            .map(|v| v as i64),
    };
    let seconds = args.get_f64("seconds", 0.0)?;
    if seconds > 0.0 {
        cfg.time_budget = Some(std::time::Duration::from_secs_f64(seconds));
    }
    cfg.keep_artifacts = args.switch("keep");
    let bench_out = args.get("bench-out").unwrap_or("BENCH_soak.json");

    let report = soak::run(&cfg).map_err(|e| match e {
        soak::SoakError::Config(m) => CliError::new(format!("soak: {m}")),
        soak::SoakError::Io(io) => CliError::new(format!("soak: {io}")),
    })?;

    let t = &report.tallies;
    writeln!(
        out,
        "soak: seed {} — {} ops across {} stores ({} skipped), {:.2}s wall",
        report.seed,
        t.ops_executed,
        cfg.stores,
        t.ops_skipped,
        report.wall.as_secs_f64()
    )?;
    writeln!(
        out,
        "  faults: {} bit-flip events ({} bits), {} torn streams, {} crashes (all {} resumed), {} transient retries",
        t.bit_flip_events, t.bit_flips, t.torn_streams, t.crashes, t.resumes, t.transient_retries
    )?;
    writeln!(
        out,
        "  healing: {} repaired on read, {} repaired by scrub, {} quarantined",
        t.read_repaired, t.scrub_repaired, t.quarantined
    )?;
    for g in &report.gates {
        writeln!(
            out,
            "  gate {:<24} threshold {:>12} actual {:>12}  {}",
            g.gate,
            format!("{}", g.threshold),
            g.actual.map_or_else(|| "n/a".to_string(), |v| format!("{v}")),
            if g.pass { "PASS" } else { "FAIL" }
        )?;
    }
    if report.spans_dropped > 0 {
        writeln!(
            out,
            "warning: {} telemetry span/event record(s) dropped at the {}-record buffer cap \
             (counters and histograms behind the SLO gates remain complete)",
            report.spans_dropped,
            telemetry::span_capacity()
        )?;
    }
    fs::write(bench_out, report.to_json(&cfg))
        .map_err(|e| CliError::new(format!("writing {bench_out}: {e}")))?;
    writeln!(out, "  report: {bench_out}")?;
    if let Some(tcap) = telem {
        tcap.finish(out)?;
    }

    if !report.zero_data_loss() {
        return Err(CliError::corruption(format!(
            "soak: DATA LOSS — {} block(s) unaccounted, {} value mismatch(es)",
            report.unaccounted_loss, t.value_mismatches
        )));
    }
    if !report.all_gates_pass() {
        let failed: Vec<&str> = report
            .gates
            .iter()
            .filter(|g| !g.pass)
            .map(|g| g.gate)
            .collect();
        return Err(CliError::corruption(format!(
            "soak: SLO gate(s) violated: {}",
            failed.join(", ")
        )));
    }
    writeln!(out, "soak: PASS — zero data loss, all gates hold")?;
    Ok(())
}

/// `pastri soak --transport` — the client/server wire storm: replicated
/// servers behind seeded fault proxies, concurrent remote clients,
/// zero-loss accounting, and `rpc.*` SLO gates (DESIGN §13).
fn soak_transport(
    args: &Args,
    dir: &str,
    out: &mut dyn Write,
    telem: Option<TelemetryCapture>,
) -> Result<(), CliError> {
    let dir = std::path::Path::new(dir);
    let seed = args.get_usize("seed", 42)? as u64;
    let mut cfg = if args.switch("overload") {
        // Overload mode: clean wire, seeded server-side injector,
        // client breakers, graceful drain (DESIGN §14).
        soak::TransportStormConfig::overload_storm(dir, seed)
    } else {
        soak::TransportStormConfig::storm(dir, seed)
    };
    cfg.replicas = args.get_usize("replicas", cfg.replicas)?;
    cfg.clients = args.get_usize("clients", cfg.clients)?;
    cfg.requests_per_client = args.get_usize("requests", cfg.requests_per_client)?;
    cfg.max_batch = args.get_usize("max-batch", cfg.max_batch)?;
    cfg.scale = args.get_usize("scale", cfg.scale)?;
    cfg.error_bound = args.get_f64("eb", cfg.error_bound)?;
    cfg.faults.faulty_every =
        args.get_usize("faulty-every", cfg.faults.faulty_every as usize)? as u32;
    cfg.faults.max_faults = args.get_usize("max-faults", cfg.faults.max_faults as usize)? as u32;
    if let Some(ovl) = cfg.overload.as_mut() {
        ovl.inject.shed_every = args.get_usize("shed-every", ovl.inject.shed_every as usize)? as u64;
        ovl.inject.max_sheds_per_key =
            args.get_usize("max-sheds-per-key", ovl.inject.max_sheds_per_key as usize)? as u32;
        ovl.inject.delay_every =
            args.get_usize("delay-every", ovl.inject.delay_every as usize)? as u64;
        ovl.breaker.failure_threshold = args
            .get_usize("breaker-threshold", ovl.breaker.failure_threshold as usize)?
            as u32;
    }
    cfg.slo = soak::TransportSloGates {
        rpc_p99_us: args
            .get("slo-rpc-p99-us")
            .map(|_| args.get_usize("slo-rpc-p99-us", 0))
            .transpose()?
            .map(|v| v as u64),
        max_deadline_exceeded: args
            .get("slo-max-deadline-exceeded")
            .map(|_| args.get_usize("slo-max-deadline-exceeded", 0))
            .transpose()?
            .map(|v| v as u64),
        max_frame_errors: args
            .get("slo-max-frame-errors")
            .map(|_| args.get_usize("slo-max-frame-errors", 0))
            .transpose()?
            .map(|v| v as u64),
        max_shed_rate: args
            .get("slo-max-shed-rate")
            .map(|_| args.get_f64("slo-max-shed-rate", 0.0))
            .transpose()?,
        queue_wait_p99_us: args
            .get("slo-queue-wait-p99-us")
            .map(|_| args.get_usize("slo-queue-wait-p99-us", 0))
            .transpose()?
            .map(|v| v as u64),
        max_breaker_opened: args
            .get("slo-max-breaker-opened")
            .map(|_| args.get_usize("slo-max-breaker-opened", 0))
            .transpose()?
            .map(|v| v as u64),
    };
    cfg.keep_artifacts = args.switch("keep");
    let bench_out = args.get("bench-out").unwrap_or("BENCH_transport_soak.json");

    let report = soak::run_transport(&cfg).map_err(|e| match e {
        soak::SoakError::Config(m) => CliError::new(format!("soak: {m}")),
        soak::SoakError::Io(io) => CliError::new(format!("soak: {io}")),
    })?;

    let t = &report.tallies;
    let r = &report.recovery;
    let p = &report.proxy;
    writeln!(
        out,
        "soak --transport: seed {} — {} requests from {} clients over {} replicas, {:.2}s wall",
        report.seed,
        t.requests_planned,
        cfg.clients,
        cfg.replicas,
        report.wall.as_secs_f64()
    )?;
    writeln!(
        out,
        "  served {} of {} blocks, value_sig {:016x}",
        t.blocks_served, t.blocks_requested, t.value_sig
    )?;
    writeln!(
        out,
        "  wire faults: {} conns through proxies — {} truncates, {} corrupts, {} drops, {} stalls, {} resets",
        p.conns, p.truncates, p.corrupts, p.drops, p.stalls, p.resets
    )?;
    writeln!(
        out,
        "  recovery: {} retries, {} hedges, {} frame errors, {} deadline misses",
        r.retries, r.hedges, r.frame_errors, r.deadline_exceeded
    )?;
    if let Some(o) = &report.overload {
        writeln!(
            out,
            "  overload: {} shed ({} surfaced at clients), {} admitted / {} completed, breaker {} opened / {} half-open / {} closed, drain {}",
            o.server_shed,
            o.client_overloaded,
            o.server_admitted,
            o.server_completed,
            o.breaker_opened,
            o.breaker_half_opened,
            o.breaker_closed,
            if o.drain_complete { "complete" } else { "INCOMPLETE" }
        )?;
    }
    for g in &report.gates {
        writeln!(
            out,
            "  gate {:<24} threshold {:>12} actual {:>12}  {}",
            g.gate,
            format!("{}", g.threshold),
            g.actual.map_or_else(|| "n/a".to_string(), |v| format!("{v}")),
            if g.pass { "PASS" } else { "FAIL" }
        )?;
    }
    fs::write(bench_out, report.to_json(&cfg))
        .map_err(|e| CliError::new(format!("writing {bench_out}: {e}")))?;
    writeln!(out, "  report: {bench_out}")?;
    if let Some(tcap) = telem {
        tcap.finish(out)?;
    }

    if !report.zero_data_loss() {
        return Err(CliError::corruption(format!(
            "soak --transport: DATA LOSS — {} block(s) lost, {} value mismatch(es)",
            t.lost_blocks, t.value_mismatches
        )));
    }
    if !report.overload_sound() {
        // A dropped admitted request or a shed that never surfaced as
        // a structured error is silent loss — same severity as data
        // loss in the exit contract.
        return Err(CliError::corruption(
            "soak --transport: overload accounting violated — dropped admitted request or \
             unsurfaced shed"
                .to_string(),
        ));
    }
    if !report.all_gates_pass() {
        let failed: Vec<&str> = report
            .gates
            .iter()
            .filter(|g| !g.pass)
            .map(|g| g.gate)
            .collect();
        return Err(CliError::corruption(format!(
            "soak --transport: SLO gate(s) violated: {}",
            failed.join(", ")
        )));
    }
    writeln!(out, "soak --transport: PASS — zero loss over the wire, all gates hold")?;
    Ok(())
}

/// Maps a [`eri_server::ServerError`] onto the CLI exit-code contract:
/// corruption in a recognized store is exit 2, everything else (missing
/// file, bad mount, out-of-range request) is the usage/I-O exit 1.
fn server_err(e: eri_server::ServerError) -> CliError {
    if e.is_corruption() {
        CliError::corruption(format!("server: {e}"))
    } else {
        CliError::new(format!("server: {e}"))
    }
}

/// Parses `--blocks 0,3,7-9` into explicit ids, rejecting any id or
/// range end at or past `num_blocks` before a range is expanded.
fn parse_block_list(spec: &str, num_blocks: usize) -> Result<Vec<usize>, CliError> {
    let in_range = |id: usize| {
        if id < num_blocks {
            Ok(id)
        } else {
            Err(CliError::new(format!(
                "--blocks: block {id} out of range (store has {num_blocks})"
            )))
        }
    };
    let mut ids = Vec::new();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((a, b)) => {
                let (a, b) = (
                    a.trim().parse::<usize>(),
                    b.trim().parse::<usize>(),
                );
                match (a, b) {
                    (Ok(a), Ok(b)) if a <= b => ids.extend(a..=in_range(b)?),
                    _ => {
                        return Err(CliError::new(format!(
                            "--blocks: `{part}` is not a block id range"
                        )))
                    }
                }
            }
            None => ids.push(in_range(part.trim().parse::<usize>().map_err(|_| {
                CliError::new(format!("--blocks: `{part}` is not a block id"))
            })?)?),
        }
    }
    Ok(ids)
}

/// Server tunables for `serve`.
fn server_config(args: &Args) -> Result<eri_server::ServerConfig, CliError> {
    let mut cfg = eri_server::ServerConfig::default();
    cfg.cache_bytes = args.get_usize("cache-mb", cfg.cache_bytes >> 20)? << 20;
    Ok(cfg)
}

const SERVE: Flags = Flags {
    values: &["telemetry", "telemetry-out", "cache-mb", "listen", "serve-conns", "blocks", "out"],
    switches: &[],
};

/// `pastri serve` — mount one or more stores behind the cache server and serve a batched read in-process: the CLI face of
/// [`eri_server::ServerHandle`]. With `--out`, the served blocks are
/// written as raw little-endian f64 in request order. With `--listen
/// <tcp:HOST:PORT | unix:PATH>`, no local read happens: the mounted
/// server is exposed over the PTRF wire protocol for `pastri fetch`
/// (DESIGN §13) until interrupted, or for `--serve-conns N`
/// connections when bounded serving is wanted (tests, one-shot jobs).
pub(crate) fn serve(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &SERVE)?;
    let telem = telemetry_capture(&args)?;
    args.positional(0, "store")?;
    let cfg = server_config(&args)?;

    let srv = eri_server::ServerHandle::open(&args.positional, &cfg).map_err(server_err)?;

    if let Some(spec) = args.get("listen") {
        let ep = eri_server::Endpoint::parse(spec)
            .map_err(|e| CliError::new(format!("--listen: {e}")))?;
        let tsrv = eri_server::TransportServer::bind(&ep, std::sync::Arc::new(srv))
            .map_err(|e| CliError::new(format!("binding {ep}: {e}")))?;
        // A listening server is scrapeable (`pastri top`, TelemetryRequest
        // frames), so the recorder runs even without `--telemetry` —
        // otherwise every scrape would come back empty.
        let scrape_only = telem.is_none();
        if scrape_only {
            telemetry::reset();
            telemetry::set_enabled(true);
        }
        writeln!(out, "serve: listening on {}", tsrv.local_endpoint())?;
        out.flush()?;
        let max_conns = args.get_usize("serve-conns", 0)?;
        let served = tsrv
            .run(if max_conns == 0 { None } else { Some(max_conns as u64) })
            .map_err(|e| CliError::new(format!("serving on {}: {e}", tsrv.local_endpoint())))?;
        writeln!(out, "serve: done after {served} connection(s)")?;
        if scrape_only {
            telemetry::set_enabled(false);
        }
        if let Some(tcap) = telem {
            tcap.finish(out)?;
        }
        return Ok(());
    }

    let ids = match args.get("blocks") {
        Some(spec) => parse_block_list(spec, srv.num_blocks())?,
        None => (0..srv.num_blocks()).collect(),
    };

    let started = std::time::Instant::now();
    let blocks = srv.read_blocks(&ids).map_err(server_err)?;
    let wall = started.elapsed().as_secs_f64();

    if let Some(path) = args.get("out") {
        let mut bytes = Vec::new();
        for b in &blocks {
            for v in b.iter() {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        fs::write(path, &bytes).map_err(|e| CliError::new(format!("writing {path}: {e}")))?;
        writeln!(out, "serve: wrote {} bytes to {path}", bytes.len())?;
    }

    let served: usize = blocks.iter().map(|b| b.len() * 8).sum();
    let s = srv.cache_stats();
    let r = srv.read_stats();
    writeln!(
        out,
        "serve: {} block(s) from {} store(s) in {:.3}s",
        blocks.len(),
        srv.num_stores(),
        wall
    )?;
    writeln!(
        out,
        "  {} decompressed bytes, cache {}/{} hits ({} resident bytes), {} repaired on read",
        served, s.hits, s.lookups, s.bytes, r.blocks_repaired
    )?;
    if let Some(tcap) = telem {
        tcap.finish(out)?;
    }
    Ok(())
}

/// Maps a [`eri_server::ClientError`] onto the CLI exit-code contract:
/// damaged bytes (corrupt frames beyond the retry budget, corrupt
/// blocks) are exit 2; refused connections, blown deadlines, and
/// protocol/usage trouble are exit 1.
fn client_err(e: eri_server::ClientError) -> CliError {
    if e.is_corruption() {
        CliError::corruption(format!("fetch: {e}"))
    } else {
        CliError::new(format!("fetch: {e}"))
    }
}

const FETCH: Flags = Flags {
    values: &[
        "telemetry", "telemetry-out", "replica", "deadline-ms", "attempt-ms", "retries", "seed",
        "blocks", "out",
    ],
    switches: &["stats"],
};

/// `pastri fetch` — read blocks from a `pastri serve --listen` endpoint
/// over the PTRF wire protocol, with deadlines, bounded seeded-jitter
/// retry, and hedged failover across `--replica` endpoints (DESIGN
/// §13). Exit contract: 0 all blocks served, 1 unreachable/deadline,
/// 2 corruption (wire frames or stored blocks) that outlived the retry
/// budget.
pub(crate) fn fetch(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &FETCH)?;
    let telem = telemetry_capture(&args)?;
    let primary = args.positional(0, "endpoint")?;

    let mut replicas = vec![eri_server::Endpoint::parse(primary)
        .map_err(|e| CliError::new(format!("<endpoint>: {e}")))?];
    for spec in args.get_all("replica") {
        replicas.push(
            eri_server::Endpoint::parse(spec)
                .map_err(|e| CliError::new(format!("--replica: {e}")))?,
        );
    }

    let mut cfg = eri_server::ClientConfig {
        deadline: std::time::Duration::from_millis(
            args.get_usize("deadline-ms", 5000)?.max(1) as u64,
        ),
        attempt_timeout: std::time::Duration::from_millis(
            args.get_usize("attempt-ms", 1000)?.max(1) as u64,
        ),
        ..Default::default()
    };
    cfg.retry.max_retries = args.get_usize("retries", cfg.retry.max_retries as usize)? as u32;
    let mut seed = 0u64;
    if let Some(raw) = args.get("seed") {
        seed = raw.parse().map_err(|_| {
            CliError::new(format!("--seed: `{raw}` is not an integer"))
        })?;
        cfg.retry.jitter_seed = Some(seed);
    }
    // The whole fetch is one trace, seeded by --seed: every request
    // carries the same trace id to the server, which adopts it into
    // its own spans — `pastri trace --merge` joins the two exports on
    // that id. Pure function of the seed, so reruns trace identically.
    telemetry::set_trace_seed(seed);
    let _fetch_trace = telemetry::push_trace(telemetry::new_trace());

    let mut client = eri_server::RemoteClient::connect(&replicas, cfg).map_err(client_err)?;
    let ids: Vec<u64> = match args.get("blocks") {
        Some(spec) => {
            let num_blocks = usize::try_from(client.num_blocks()).unwrap_or(usize::MAX);
            parse_block_list(spec, num_blocks)?.into_iter().map(|i| i as u64).collect()
        }
        None => (0..client.num_blocks()).collect(),
    };

    let started = std::time::Instant::now();
    let blocks = {
        // The client-side anchor span for the trace: it carries the
        // same trace id the server adopts, so a merged timeline shows
        // the fetch bracketing every server-side span it caused.
        let _span = telemetry::span("client.fetch");
        client.read_blocks_strict(&ids).map_err(client_err)?
    };
    let wall = started.elapsed().as_secs_f64();

    if let Some(path) = args.get("out") {
        let mut bytes = Vec::new();
        for b in &blocks {
            for v in b {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        fs::write(path, &bytes).map_err(|e| CliError::new(format!("writing {path}: {e}")))?;
        writeln!(out, "fetch: wrote {} bytes to {path}", bytes.len())?;
    }

    let served: usize = blocks.iter().map(|b| b.len() * 8).sum();
    let cs = client.stats();
    writeln!(
        out,
        "fetch: {} block(s) ({} bytes) from {} replica(s) in {:.3}s",
        blocks.len(),
        served,
        replicas.len(),
        wall
    )?;
    writeln!(
        out,
        "  recovery: {} retries, {} hedges, {} frame errors, {} deadline misses",
        cs.retries, cs.hedges, cs.frame_errors, cs.deadline_exceeded
    )?;
    if args.switch("stats") {
        // One scrape carries the server's books, its latency histograms
        // and its journal health. A scrape that fails is a fault, not a
        // missing feature.
        let snap = scrape(&mut client, "fetch")?;
        let c = |name| snap.counter(name);
        writeln!(
            out,
            "  server: {} requests, {} blocks, {} store reads, {} transient retries, \
             {} repaired, cache {}/{} hits",
            c("server.requests"),
            c("server.blocks"),
            c("server.store_reads"),
            c("store.transient_retries"),
            c("store.blocks_repaired"),
            c("cache.hits"),
            c("cache.hits") + c("cache.misses")
        )?;
        // Overload counters: shed-at-server vs failed-at-client in
        // one place.
        writeln!(
            out,
            "  server overload: {} admitted, {} shed, {} refused draining",
            c("server.admitted"),
            c("server.shed"),
            c("server.refused_draining")
        )?;
        let cs = client.stats();
        writeln!(
            out,
            "  client: {} overloaded refusals, breaker {} opened / {} half-open / {} closed",
            cs.overloaded, cs.breaker_opened, cs.breaker_half_opened, cs.breaker_closed
        )?;
        for (ep, st) in client.breaker_states() {
            let state = match st {
                None => "disabled".to_string(),
                Some(s) => format!("{s:?}").to_lowercase(),
            };
            writeln!(out, "  breaker {ep}: {state}")?;
        }
        let drops: u64 = snap.events_dropped.iter().map(|c| c.value).sum();
        writeln!(
            out,
            "  server telemetry: read p50 {} us, p99 {} us, {} journal event(s), \
             {} journal drop(s)",
            snap_pct(&snap, "server.read_us", 0.50),
            snap_pct(&snap, "server.read_us", 0.99),
            snap.events.len(),
            drops
        )?;
    }
    if let Some(tcap) = telem {
        tcap.finish(out)?;
    }
    Ok(())
}

/// Derived dashboard numbers for one `pastri top` tick.
struct TopMetrics {
    requests_total: u64,
    requests_per_s: f64,
    blocks_per_s: f64,
    cache_hit_rate: f64,
    read_p50_us: u64,
    read_p99_us: u64,
    in_flight: i64,
    shed_total: u64,
    shed_per_s: f64,
    draining: bool,
    scrapes: u64,
    journal_events: usize,
    journal_drops: u64,
}

/// One `TelemetryRequest` scrape of a `serve --listen` endpoint, decoded;
/// `cmd` prefixes the error.
fn scrape(
    client: &mut eri_server::RemoteClient,
    cmd: &str,
) -> Result<telemetry::Snapshot, CliError> {
    let bytes = client.server_telemetry().map_err(client_err)?;
    telemetry::export::from_json_lines(&String::from_utf8_lossy(&bytes))
        .map_err(|e| CliError::new(format!("{cmd}: telemetry scrape: {e}")))
}

fn snap_gauge(snap: &telemetry::Snapshot, name: &str) -> i64 {
    snap.gauges.iter().find(|g| g.name == name).map_or(0, |g| g.value)
}

fn snap_pct(snap: &telemetry::Snapshot, name: &str, q: f64) -> u64 {
    snap.histograms
        .iter()
        .find(|h| h.name == name)
        .and_then(|h| h.percentile_us(q))
        .unwrap_or(0)
}

/// Computes one tick's numbers. With a previous scrape, rates are
/// deltas over `dt` seconds; on the first (`--once`) scrape they fall
/// back to cumulative totals over the server's own span horizon (the
/// latest span end it has recorded), so a single scrape of a busy
/// server still reports meaningful throughput instead of zeros.
fn top_metrics(
    prev: Option<&telemetry::Snapshot>,
    cur: &telemetry::Snapshot,
    dt: f64,
) -> TopMetrics {
    let horizon =
        cur.spans.iter().map(|s| s.start_ns + s.dur_ns).max().unwrap_or(0) as f64 / 1e9;
    let rate = |name: &str| -> f64 {
        match prev {
            Some(p) => {
                cur.counter(name).saturating_sub(p.counter(name)) as f64 / dt.max(1e-9)
            }
            None if horizon > 0.0 => cur.counter(name) as f64 / horizon,
            None => 0.0,
        }
    };
    let hits = cur.counter("cache.hits");
    let lookups = hits + cur.counter("cache.misses");
    TopMetrics {
        requests_total: cur.counter("server.requests"),
        requests_per_s: rate("server.requests"),
        blocks_per_s: rate("server.blocks"),
        cache_hit_rate: if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
        read_p50_us: snap_pct(cur, "server.read_us", 0.50),
        read_p99_us: snap_pct(cur, "server.read_us", 0.99),
        in_flight: snap_gauge(cur, "server.in_flight"),
        shed_total: cur.counter("server.shed") + cur.counter("server.refused_draining"),
        shed_per_s: rate("server.shed"),
        draining: snap_gauge(cur, "server.draining") != 0,
        scrapes: cur.counter("server.scrapes"),
        journal_events: cur.events.len(),
        journal_drops: cur.events_dropped.iter().map(|c| c.value).sum(),
    }
}

/// One machine-readable JSON object line for `top --json`.
fn top_json(endpoint: &str, m: &TopMetrics) -> String {
    format!(
        "{{\"endpoint\":\"{}\",\"requests_total\":{},\"requests_per_s\":{:.3},\
         \"blocks_per_s\":{:.3},\"cache_hit_rate\":{:.4},\"read_p50_us\":{},\
         \"read_p99_us\":{},\"in_flight\":{},\"shed_total\":{},\"shed_per_s\":{:.3},\
         \"draining\":{},\"scrapes\":{},\"journal_events\":{},\"journal_drops\":{}}}",
        endpoint.replace('\\', "\\\\").replace('"', "\\\""),
        m.requests_total,
        m.requests_per_s,
        m.blocks_per_s,
        m.cache_hit_rate,
        m.read_p50_us,
        m.read_p99_us,
        m.in_flight,
        m.shed_total,
        m.shed_per_s,
        m.draining,
        m.scrapes,
        m.journal_events,
        m.journal_drops,
    )
}

/// The human dashboard block for one tick (plain text, fixed shape —
/// one redraw per tick, no terminal control sequences).
fn top_text(endpoint: &str, tick: usize, m: &TopMetrics) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "pastri top — {endpoint} (tick {tick})");
    let _ = writeln!(
        s,
        "  requests   {:>10} total   {:>9.1}/s    blocks {:>9.1}/s",
        m.requests_total, m.requests_per_s, m.blocks_per_s
    );
    let _ = writeln!(s, "  cache      {:>9.1}% hit rate", m.cache_hit_rate * 100.0);
    let _ = writeln!(
        s,
        "  read       p50 {:>8} us   p99 {:>8} us",
        m.read_p50_us, m.read_p99_us
    );
    let _ = writeln!(
        s,
        "  admission  {} in flight   {} shed ({:.1}/s)   {}",
        m.in_flight,
        m.shed_total,
        m.shed_per_s,
        if m.draining { "DRAINING" } else { "serving" }
    );
    let _ = writeln!(
        s,
        "  journal    {} event(s) in ring, {} drop(s)   scrapes {}",
        m.journal_events, m.journal_drops, m.scrapes
    );
    s
}

const TOP: Flags = Flags {
    values: &["interval-ms", "count", "deadline-ms"],
    switches: &["once", "json"],
};

/// `pastri top <endpoint>` — live dashboard over TelemetrySnapshot
/// scrapes: polls a `serve --listen` endpoint, computes deltas and
/// rates between consecutive snapshots, and prints one plain-text
/// block per tick. `--once` takes a single scrape (rates over the
/// server's span horizon); `--json` emits one JSON object per tick for
/// scripts and tests. The scrape rides admission at priority ≥ 1
/// server-side, so `top` keeps answering while the server sheds load.
pub(crate) fn top(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &TOP)?;
    let endpoint = args.positional(0, "endpoint")?;
    let ep = eri_server::Endpoint::parse(endpoint)
        .map_err(|e| CliError::new(format!("<endpoint>: {e}")))?;
    let interval = std::time::Duration::from_millis(
        args.get_usize("interval-ms", 1000)?.max(10) as u64,
    );
    let once = args.switch("once");
    let json = args.switch("json");
    let count = args.get_usize("count", 0)?; // 0 = until interrupted
    let cfg = eri_server::ClientConfig {
        deadline: std::time::Duration::from_millis(
            args.get_usize("deadline-ms", 2000)?.max(1) as u64,
        ),
        // A monitor must keep probing an ailing server, never gate
        // itself out of observing the incident.
        breaker: None,
        ..Default::default()
    };
    let mut client = eri_server::RemoteClient::connect(&[ep], cfg).map_err(client_err)?;
    let mut prev: Option<(std::time::Instant, telemetry::Snapshot)> = None;
    let mut tick = 0usize;
    loop {
        let now = std::time::Instant::now();
        let snap = scrape(&mut client, "top")?;
        if once || prev.is_some() {
            tick += 1;
            let (dt, prev_snap) = match &prev {
                Some((t, p)) => (now.duration_since(*t).as_secs_f64(), Some(p)),
                None => (interval.as_secs_f64(), None),
            };
            let m = top_metrics(prev_snap, &snap, dt);
            if json {
                writeln!(out, "{}", top_json(endpoint, &m))?;
            } else {
                write!(out, "{}", top_text(endpoint, tick, &m))?;
            }
            out.flush()?;
        }
        if once || (count > 0 && tick >= count) {
            return Ok(());
        }
        prev = Some((now, snap));
        std::thread::sleep(interval);
    }
}

const TRACE: Flags = Flags {
    values: &["merge", "out"],
    switches: &[],
};

/// `pastri trace --merge <a.jsonl> <b.jsonl>... [--out merged.json]` —
/// joins telemetry JSON-lines exports from different processes (a
/// `fetch --telemetry json` capture and the serving side's scrape or
/// capture) into one Chrome trace. Each input gets its own pid lane;
/// spans stamped with the same wire-propagated trace id line up across
/// lanes, which is the whole point: one timeline for one request's
/// journey through retries, sheds, and the server's cache and store.
pub(crate) fn trace_cmd(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &TRACE)?;
    // `--merge a.jsonl b.jsonl`: the parser binds the first path to the
    // flag and leaves the rest positional — gather both.
    let mut inputs: Vec<String> = args.get_all("merge").iter().map(|s| (*s).to_string()).collect();
    inputs.extend(args.positional.iter().cloned());
    if inputs.is_empty() {
        return Err(CliError::new(
            "usage: pastri trace --merge <client.jsonl> <server.jsonl> [--out merged.json]",
        ));
    }
    let mut snaps = Vec::new();
    for path in &inputs {
        let text = fs::read_to_string(path)
            .map_err(|e| CliError::new(format!("reading {path}: {e}")))?;
        snaps.push(
            telemetry::export::from_json_lines(&text)
                .map_err(|e| CliError::new(format!("{path}: {e}")))?,
        );
    }
    let with_pids: Vec<(&telemetry::Snapshot, u64)> = snaps.iter().zip(1u64..).collect();
    let merged = telemetry::export::chrome_merged(&with_pids);
    // Join accounting: a trace id seen in more than one input is a
    // request correlated across processes — the merge's reason to exist.
    use std::collections::{HashMap, HashSet};
    let mut seen: HashMap<u64, HashSet<usize>> = HashMap::new();
    for (i, s) in snaps.iter().enumerate() {
        for sp in &s.spans {
            if sp.trace != 0 {
                seen.entry(sp.trace).or_default().insert(i);
            }
        }
        for ev in &s.events {
            if ev.trace != 0 {
                seen.entry(ev.trace).or_default().insert(i);
            }
        }
    }
    let joined = seen.values().filter(|v| v.len() > 1).count();
    match args.get("out") {
        Some(path) => {
            fs::write(path, &merged)
                .map_err(|e| CliError::new(format!("writing {path}: {e}")))?;
            writeln!(
                out,
                "trace: merged {} export(s) into {path}: {} trace id(s), {} joined across \
                 processes",
                inputs.len(),
                seen.len(),
                joined
            )?;
        }
        None => out.write_all(merged.as_bytes())?,
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pastri-cli-test-{}", std::process::id()));
        let _ = fs::create_dir_all(&dir);
        dir
    }

    fn sv(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn span_drop_warning_fires_only_when_records_were_dropped() {
        let mut snap = telemetry::Snapshot::default();
        assert_eq!(span_drop_warning(&snap), None, "clean capture: no warning");

        snap.spans_dropped = 1234;
        let warning = span_drop_warning(&snap).expect("drops must warn");
        assert!(warning.contains("1234"), "{warning}");
        assert!(
            warning.contains(&telemetry::span_capacity().to_string()),
            "warning names the cap: {warning}"
        );
        assert!(
            warning.contains("counters and histograms remain complete"),
            "warning scopes the loss to the span timeline: {warning}"
        );
    }

    #[test]
    fn gen_compress_decompress_assess_cycle() {
        let dir = tmpdir();
        let raw = dir.join("data.f64").to_string_lossy().into_owned();
        let comp = dir.join("data.pastri").to_string_lossy().into_owned();
        let back = dir.join("back.f64").to_string_lossy().into_owned();
        let mut out = Vec::new();

        generate(
            &sv(&[&raw, "--config", "dddd", "--blocks", "5", "--model"]),
            &mut out,
        )
        .unwrap();
        compress(
            &sv(&[&raw, &comp, "--config", "(dd|dd)", "--eb", "1e-10"]),
            &mut out,
        )
        .unwrap();
        decompress(&sv(&[&comp, &back]), &mut out).unwrap();
        assess(&sv(&[&raw, &back]), &mut out).unwrap();
        inspect(&sv(&[&comp]), &mut out).unwrap();

        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("ratio"), "{text}");
        assert!(text.contains("max abs err"), "{text}");
        assert!(text.contains("valid PaSTRI container"), "{text}");

        // The round trip respects the bound.
        let orig = read_f64_file(&raw).unwrap();
        let dec = read_f64_file(&back).unwrap();
        for (a, b) in orig.iter().zip(&dec) {
            assert!((a - b).abs() <= 1e-10);
        }
    }

    #[test]
    fn streamed_compress_roundtrips() {
        let dir = tmpdir();
        let raw = dir.join("s.f64").to_string_lossy().into_owned();
        let comp = dir.join("s.pstrs").to_string_lossy().into_owned();
        let back = dir.join("s-back.f64").to_string_lossy().into_owned();
        let mut out = Vec::new();
        generate(
            &sv(&[&raw, "--config", "dddd", "--blocks", "9", "--model"]),
            &mut out,
        )
        .unwrap();
        compress(
            &sv(&[
                &raw, &comp, "--config", "dddd", "--stream", "--segment-blocks", "4",
            ]),
            &mut out,
        )
        .unwrap();
        decompress(&sv(&[&comp, &back]), &mut out).unwrap();
        let orig = read_f64_file(&raw).unwrap();
        let dec = read_f64_file(&back).unwrap();
        assert_eq!(orig.len(), dec.len());
        for (a, b) in orig.iter().zip(&dec) {
            assert!((a - b).abs() <= 1e-10);
        }
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("streamed"), "{text}");
    }

    #[test]
    fn threads_flag_output_is_byte_identical() {
        let dir = tmpdir();
        let raw = dir.join("t.f64").to_string_lossy().into_owned();
        let mut out = Vec::new();
        generate(
            &sv(&[&raw, "--config", "dddd", "--blocks", "9", "--model"]),
            &mut out,
        )
        .unwrap();
        // Container and stream outputs must not depend on --threads.
        for stream in [false, true] {
            let mut baseline: Option<Vec<u8>> = None;
            for threads in ["1", "2", "8"] {
                let comp = dir
                    .join(format!("t-{stream}-{threads}.out"))
                    .to_string_lossy()
                    .into_owned();
                let mut argv = vec![
                    raw.clone(),
                    comp.clone(),
                    "--config".into(),
                    "dddd".into(),
                    "--threads".into(),
                    threads.into(),
                ];
                if stream {
                    argv.extend(["--stream".into(), "--segment-blocks".into(), "2".into()]);
                }
                compress(&argv, &mut out).unwrap();
                let bytes = fs::read(&comp).unwrap();
                match &baseline {
                    None => baseline = Some(bytes),
                    Some(b) => assert_eq!(&bytes, b, "stream={stream} threads={threads}"),
                }
            }
        }
    }

    /// `(container length, offset)` of a stream's first segment, found
    /// by the stream module's walker.
    fn first_segment(bytes: &[u8]) -> (usize, usize) {
        pastri::stream::Frames::new(bytes)
            .unwrap()
            .find_map(|frame| match frame.unwrap() {
                pastri::stream::Frame::Segment { at, container } => {
                    Some((container.len(), at as usize))
                }
                pastri::stream::Frame::Commit { .. } => None,
            })
            .unwrap()
    }

    #[test]
    fn verify_and_salvage_damaged_stream() {
        let dir = tmpdir();
        let raw = dir.join("v.f64").to_string_lossy().into_owned();
        let comp = dir.join("v.pstrs").to_string_lossy().into_owned();
        let fixed = dir.join("v-fixed.pstrs").to_string_lossy().into_owned();
        let mut out = Vec::new();
        generate(
            &sv(&[&raw, "--config", "dddd", "--blocks", "8", "--model"]),
            &mut out,
        )
        .unwrap();
        compress(
            &sv(&[
                &raw, &comp, "--config", "dddd", "--stream", "--segment-blocks", "2",
            ]),
            &mut out,
        )
        .unwrap();

        // Clean stream verifies with exit 0.
        verify(&sv(&[&comp]), &mut Vec::new()).unwrap();

        // Flip one bit deep inside the first segment's container.
        let clean = fs::read(&comp).unwrap();
        let (seg_len, seg_start) = first_segment(&clean);
        let mut bytes = clean.clone();
        bytes[seg_start + seg_len / 2] ^= 0x10;
        fs::write(&comp, &bytes).unwrap();

        // Damaged stream: verify fails with a damage report and the
        // documented corruption exit code — even though the damage is
        // repairable, the bytes on disk are not what was written.
        let mut report = Vec::new();
        let err = verify(&sv(&[&comp]), &mut report).unwrap_err();
        assert!(err.message.contains("damaged"), "{}", err.message);
        assert_eq!(err.code, 2, "verify damage is exit code 2");
        let text = String::from_utf8(report).unwrap();
        assert!(text.contains("segment"), "{text}");
        assert!(text.contains("repairable"), "{text}");

        // Salvage heals the damaged segment from parity: nothing was
        // lost, so the exit code is 0, and the output is byte-identical
        // to the stream as originally written.
        let mut out = Vec::new();
        salvage(&sv(&[&comp, &fixed]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("repaired 1"), "{text}");
        assert_eq!(fs::read(&fixed).unwrap(), clean, "salvage heals to original bytes");
        verify(&sv(&[&fixed]), &mut Vec::new()).unwrap();

        // Salvaging the already-clean output repairs/drops nothing.
        let refixed = dir.join("v-refixed.pstrs").to_string_lossy().into_owned();
        salvage(&sv(&[&fixed, &refixed]), &mut Vec::new()).unwrap();

        // Truncation loses real data: salvage reports it with exit 2 but
        // still writes an output that verifies clean.
        let torn = dir.join("v-torn.pstrs").to_string_lossy().into_owned();
        let cut = dir.join("v-cut.pstrs").to_string_lossy().into_owned();
        fs::write(&torn, &clean[..clean.len() - 12]).unwrap();
        let mut out = Vec::new();
        let err = salvage(&sv(&[&torn, &cut]), &mut out).unwrap_err();
        assert_eq!(err.code, 2, "lossy salvage is exit code 2");
        verify(&sv(&[&cut]), &mut Vec::new()).unwrap();
    }

    #[test]
    fn compressed_store_serves_what_the_container_decompresses() {
        let dir = tmpdir();
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let (raw, store, comp) = (path("s.f64"), path("s.eristore"), path("s.pastri"));
        let (served, direct) = (path("s-served.f64"), path("s-direct.f64"));
        let mut out = Vec::new();
        generate(
            &sv(&[&raw, "--config", "dddd", "--blocks", "12", "--model"]),
            &mut out,
        )
        .unwrap();
        compress(&sv(&[&raw, &store, "--config", "dddd"]), &mut out).unwrap();
        verify(&sv(&[&store]), &mut out).unwrap();
        serve(&sv(&[&store, "--out", &served]), &mut out).unwrap();
        compress(&sv(&[&raw, &comp, "--config", "dddd"]), &mut out).unwrap();
        decompress(&sv(&[&comp, &direct]), &mut out).unwrap();
        assert_eq!(fs::read(&served).unwrap(), fs::read(&direct).unwrap());

        // Options a store header cannot record are usage errors.
        for (flag, value) in [("--metric", "AR"), ("--tree", "3")] {
            let argv = sv(&[&raw, &path("s-bad.eristore"), "--config", "dddd", flag, value]);
            let err = compress(&argv, &mut out).unwrap_err();
            assert_eq!(err.code, 1, "{flag}");
            assert!(err.message.contains(".eristore"), "{flag}: {}", err.message);
        }
    }

    #[test]
    fn stream_compress_resumes_after_interruption() {
        let dir = tmpdir();
        let raw = dir.join("r.f64").to_string_lossy().into_owned();
        let full = dir.join("r-full.pstrs").to_string_lossy().into_owned();
        let part = dir.join("r-part.pstrs").to_string_lossy().into_owned();
        let mut out = Vec::new();
        generate(
            &sv(&[&raw, "--config", "dddd", "--blocks", "24", "--model"]),
            &mut out,
        )
        .unwrap();
        let stream_flags = [
            "--config",
            "dddd",
            "--stream",
            "--segment-blocks",
            "2",
            "--checkpoint-every",
            "2",
        ];
        // Reference: one uninterrupted run.
        let mut argv = sv(&[&raw, &full]);
        argv.extend(sv(&stream_flags));
        compress(&argv, &mut out).unwrap();

        // Interrupted run: feed a prefix through the durable writer and
        // "crash" (drop without finish), leaving an uncommitted tail.
        {
            let config = qchem::basis::BfConfig::parse("dddd").unwrap();
            let compressor = Compressor::new(BlockGeometry::from_dims(config.dims()), 1e-10);
            let mut w = pastri::stream::StreamWriter::create(
                std::path::Path::new(&part),
                compressor,
                2,
                2,
            )
            .unwrap();
            let values = read_f64_file(&raw).unwrap();
            w.write_values(&values[..values.len() / 2]).unwrap();
            assert!(w.checkpoint().values > 0, "some batch must have committed");
        }
        // Resume through the CLI: byte-identical to the clean run.
        let mut resumed_out = Vec::new();
        let mut argv = sv(&[&raw, &part]);
        argv.extend(sv(&stream_flags));
        argv.push("--resume".into());
        compress(&argv, &mut resumed_out).unwrap();
        assert_eq!(fs::read(&part).unwrap(), fs::read(&full).unwrap());
        let text = String::from_utf8(resumed_out).unwrap();
        assert!(text.contains("resumed at value"), "{text}");
        verify(&sv(&[&part]), &mut Vec::new()).unwrap();
    }

    #[test]
    fn verify_dispatches_on_container_magic() {
        let dir = tmpdir();
        let raw = dir.join("c.f64").to_string_lossy().into_owned();
        let comp = dir.join("c.pastri").to_string_lossy().into_owned();
        let mut out = Vec::new();
        generate(
            &sv(&[&raw, "--config", "dddd", "--blocks", "4", "--model"]),
            &mut out,
        )
        .unwrap();
        compress(&sv(&[&raw, &comp, "--config", "dddd"]), &mut out).unwrap();
        verify(&sv(&[&comp]), &mut Vec::new()).unwrap();

        // Damage near the end lands in the parity section: the data is
        // intact, but verify must still flag the file as damaged.
        let mut bytes = fs::read(&comp).unwrap();
        let last = bytes.len() - 9;
        bytes[last] ^= 0x01;
        fs::write(&comp, &bytes).unwrap();
        let mut report = Vec::new();
        let err = verify(&sv(&[&comp]), &mut report).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("damaged"), "{}", err.message);
        let text = String::from_utf8(report).unwrap();
        assert!(text.contains("block"), "{text}");

        // Damage a block payload proper: verify must name the block and
        // classify it repairable.
        let clean = {
            bytes[last] ^= 0x01;
            bytes.clone()
        };
        let info = pastri::inspect(&clean).unwrap();
        let parity_start = info.container_bytes - info.parity_bytes as usize;
        bytes[parity_start - 4] ^= 0x01; // tail of the last block's frame
        fs::write(&comp, &bytes).unwrap();
        let mut report = Vec::new();
        let err = verify(&sv(&[&comp]), &mut report).unwrap_err();
        assert_eq!(err.code, 2);
        let text = String::from_utf8(report).unwrap();
        assert!(text.contains("repairable from parity"), "{text}");
    }

    #[test]
    fn scrub_heals_container_in_place() {
        let dir = tmpdir();
        let raw = dir.join("sc.f64").to_string_lossy().into_owned();
        let comp = dir.join("sc.pastri").to_string_lossy().into_owned();
        let mut out = Vec::new();
        generate(
            &sv(&[&raw, "--config", "dddd", "--blocks", "6", "--model"]),
            &mut out,
        )
        .unwrap();
        compress(&sv(&[&raw, &comp, "--config", "dddd"]), &mut out).unwrap();
        let clean = fs::read(&comp).unwrap();

        // Clean file: scrub is a no-op with exit 0.
        let mut report = Vec::new();
        scrub(&sv(&[&comp]), &mut report).unwrap();
        assert!(String::from_utf8(report).unwrap().contains("clean"));

        // Flip a byte in a block payload.
        let info = pastri::inspect(&clean).unwrap();
        let parity_start = info.container_bytes - info.parity_bytes as usize;
        let mut bytes = clean.clone();
        bytes[parity_start - 4] ^= 0x40;
        fs::write(&comp, &bytes).unwrap();

        // Without --repair: detect-only, exit 2, file untouched.
        let err = scrub(&sv(&[&comp]), &mut Vec::new()).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--repair"), "{}", err.message);
        assert_eq!(fs::read(&comp).unwrap(), bytes, "detect-only must not modify");

        // With --repair: healed in place, byte-identical, exit 0.
        let mut report = Vec::new();
        scrub(&sv(&[&comp, "--repair"]), &mut report).unwrap();
        assert!(String::from_utf8(report).unwrap().contains("repaired in place"));
        assert_eq!(fs::read(&comp).unwrap(), clean, "repair restores original bytes");
        verify(&sv(&[&comp]), &mut Vec::new()).unwrap();
    }

    #[test]
    fn scrub_quarantines_unrepairable_container() {
        let dir = tmpdir();
        let raw = dir.join("sq.f64").to_string_lossy().into_owned();
        let comp = dir.join("sq.pastri").to_string_lossy().into_owned();
        let mut out = Vec::new();
        generate(
            &sv(&[&raw, "--config", "dddd", "--blocks", "6", "--model"]),
            &mut out,
        )
        .unwrap();
        compress(&sv(&[&raw, &comp, "--config", "dddd"]), &mut out).unwrap();
        let clean = fs::read(&comp).unwrap();

        // Damage three block payloads in the same parity group: one more
        // than the two-shard budget covers. (Offsets point at each
        // block's framing; +8 is safely inside the payload proper.)
        let decoded = pastri::decompress_lossy(&clean).unwrap();
        let mut bytes = clean.clone();
        for o in decoded.outcomes.iter().take(3) {
            bytes[o.offset as usize + 8] ^= 0x40;
        }
        fs::write(&comp, &bytes).unwrap();

        let mut report = Vec::new();
        let err = scrub(&sv(&[&comp, "--repair"]), &mut report).unwrap_err();
        assert_eq!(err.code, 2, "unrepairable damage is exit 2");
        assert!(err.message.contains("beyond the parity budget"), "{}", err.message);
        // The damaged original is quarantined before any rewrite.
        let q = format!("{comp}.quarantine");
        assert_eq!(fs::read(&q).unwrap(), bytes, "quarantine preserves the damage");
    }

    #[test]
    fn scrub_heals_stream_and_store_in_place() {
        let dir = tmpdir();
        let raw = dir.join("ss.f64").to_string_lossy().into_owned();
        let comp = dir.join("ss.pstrs").to_string_lossy().into_owned();
        let mut out = Vec::new();
        generate(
            &sv(&[&raw, "--config", "dddd", "--blocks", "8", "--model"]),
            &mut out,
        )
        .unwrap();
        compress(
            &sv(&[
                &raw, &comp, "--config", "dddd", "--stream", "--segment-blocks", "2",
            ]),
            &mut out,
        )
        .unwrap();
        let clean = fs::read(&comp).unwrap();
        scrub(&sv(&[&comp]), &mut Vec::new()).unwrap();

        // Flip deep inside the first segment, then heal in place.
        let (seg_len, seg_start) = first_segment(&clean);
        let mut bytes = clean.clone();
        bytes[seg_start + seg_len / 2] ^= 0x20;
        fs::write(&comp, &bytes).unwrap();
        let err = scrub(&sv(&[&comp]), &mut Vec::new()).unwrap_err();
        assert_eq!(err.code, 2);
        let mut report = Vec::new();
        scrub(&sv(&[&comp, "--repair"]), &mut report).unwrap();
        assert!(String::from_utf8(report).unwrap().contains("repaired in place"));
        assert_eq!(fs::read(&comp).unwrap(), clean);
        verify(&sv(&[&comp]), &mut Vec::new()).unwrap();

        // A flip inside the last commit record (before the terminator)
        // spares every segment, yet verify reports it and scrub rebuilds it.
        let mut bytes = clean.clone();
        let last_record = bytes.len() - 1 - 10;
        bytes[last_record] ^= 0x04;
        fs::write(&comp, &bytes).unwrap();
        let mut report = Vec::new();
        assert_eq!(verify(&sv(&[&comp]), &mut report).unwrap_err().code, 2);
        assert!(String::from_utf8(report).unwrap().contains("commit frame at offset"));
        scrub(&sv(&[&comp, "--repair"]), &mut Vec::new()).unwrap();
        assert_eq!(fs::read(&comp).unwrap(), clean);

        // Same cycle for an ERI store: flip inside the first block's
        // parity shards (located by walking the container prefix).
        let store_path = dir.join("ss.eristore");
        let geom = pastri::BlockGeometry::new(4, 9);
        let mut w = eri_store::StoreWriter::create_durable(&store_path, geom, 1e-10, 5).unwrap();
        let values: Vec<f64> = (0..geom.block_size() * 5)
            .map(|i| ((i % 53) as f64 * 0.23).sin() * 2e-6)
            .collect();
        w.append_blocks(&values).unwrap();
        w.finish().unwrap();
        let store = store_path.to_string_lossy().into_owned();
        let clean = fs::read(&store_path).unwrap();
        scrub(&sv(&[&store]), &mut Vec::new()).unwrap();

        let header = eri_store::HEADER_LEN_V2 as usize;
        let (_, first_len) = pastri::inspect_prefix(&clean[header..]).unwrap();
        let mut bytes = clean.clone();
        bytes[header + first_len - 9] ^= 0x04;
        fs::write(&store_path, &bytes).unwrap();
        let err = scrub(&sv(&[&store]), &mut Vec::new()).unwrap_err();
        assert_eq!(err.code, 2);
        let mut report = Vec::new();
        scrub(&sv(&[&store, "--repair"]), &mut report).unwrap();
        assert!(String::from_utf8(report).unwrap().contains("repaired in place"));
        assert_eq!(fs::read(&store_path).unwrap(), clean);
        verify(&sv(&[&store]), &mut Vec::new()).unwrap();
    }

    #[test]
    fn verify_rejects_unknown_magic() {
        let dir = tmpdir();
        let path = dir.join("junk.bin").to_string_lossy().into_owned();
        fs::write(&path, b"not a pastri artifact").unwrap();
        let err = verify(&sv(&[&path]), &mut Vec::new()).unwrap_err();
        assert!(err.message.contains("unknown magic"), "{}", err.message);
    }

    #[test]
    fn missing_config_is_friendly() {
        let dir = tmpdir();
        let raw = dir.join("x.f64").to_string_lossy().into_owned();
        fs::write(&raw, [0u8; 16]).unwrap();
        let err = compress(&sv(&[&raw, "out.pastri"]), &mut Vec::new()).unwrap_err();
        assert!(err.message.contains("--config"));
    }

    #[test]
    fn bad_f64_file_rejected() {
        let dir = tmpdir();
        let raw = dir.join("bad.f64").to_string_lossy().into_owned();
        fs::write(&raw, [1u8; 13]).unwrap();
        let err = read_f64_file(&raw).unwrap_err();
        assert!(err.message.contains("multiple of 8"));
    }

    /// Serializes tests that enable the process-global telemetry
    /// recorder, so captures don't bleed into each other.
    static TELEMETRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn telemetry_flags_capture_and_report() {
        let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = tmpdir();
        let raw = dir.join("tel.f64").to_string_lossy().into_owned();
        let comp = dir.join("tel.pastri").to_string_lossy().into_owned();
        let back = dir.join("tel-back.f64").to_string_lossy().into_owned();
        let jsonl = dir.join("tel.jsonl").to_string_lossy().into_owned();
        let trace = dir.join("tel.trace.json").to_string_lossy().into_owned();
        let mut out = Vec::new();
        generate(
            &sv(&[&raw, "--config", "dddd", "--blocks", "6", "--model"]),
            &mut out,
        )
        .unwrap();

        // Summary to stdout: the span tree names the compressor stages.
        let mut sum_out = Vec::new();
        compress(
            &sv(&[&raw, &comp, "--config", "dddd", "--telemetry", "summary"]),
            &mut sum_out,
        )
        .unwrap();
        let text = String::from_utf8(sum_out).unwrap();
        assert!(text.contains("compress.container"), "{text}");
        assert!(text.contains("compress.block"), "{text}");
        assert!(!telemetry::is_enabled(), "capture must disable the recorder");

        // JSON lines to a file, then `pastri report` re-renders them.
        compress(
            &sv(&[
                &raw, &comp, "--config", "dddd", "--telemetry", "json",
                "--telemetry-out", &jsonl,
            ]),
            &mut Vec::new(),
        )
        .unwrap();
        let mut rep_out = Vec::new();
        report(&sv(&[&jsonl]), &mut rep_out).unwrap();
        let text = String::from_utf8(rep_out).unwrap();
        assert!(text.contains("compress.container"), "{text}");

        // Chrome trace from decompress: structurally valid trace-event JSON.
        decompress(
            &sv(&[&comp, &back, "--telemetry", "chrome", "--telemetry-out", &trace]),
            &mut Vec::new(),
        )
        .unwrap();
        let trace_text = fs::read_to_string(&trace).unwrap();
        assert!(trace_text.trim_start().starts_with('['), "{trace_text}");
        assert!(trace_text.contains("decompress.container"), "{trace_text}");

        // Scrub accepts the flag too (clean file: empty-ish capture is fine).
        let mut scrub_out = Vec::new();
        scrub(&sv(&[&comp, "--telemetry", "summary"]), &mut scrub_out).unwrap();

        // Unknown format is a usage error.
        let err = compress(
            &sv(&[&raw, &comp, "--config", "dddd", "--telemetry", "xml"]),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.message.contains("telemetry"), "{}", err.message);
        assert!(!telemetry::is_enabled());
    }

    #[test]
    fn inspect_prints_storage_breakdown() {
        let dir = tmpdir();
        let raw = dir.join("ib.f64").to_string_lossy().into_owned();
        let comp = dir.join("ib.pastri").to_string_lossy().into_owned();
        let mut out = Vec::new();
        generate(
            &sv(&[&raw, "--config", "dddd", "--blocks", "6", "--model"]),
            &mut out,
        )
        .unwrap();
        compress(&sv(&[&raw, &comp, "--config", "dddd"]), &mut out).unwrap();
        let mut ins_out = Vec::new();
        inspect(&sv(&[&comp]), &mut ins_out).unwrap();
        let text = String::from_utf8(ins_out).unwrap();
        assert!(text.contains("storage:"), "{text}");
        assert!(text.contains("ecq"), "{text}");
        assert!(text.contains("bits ("), "{text}");
        assert!(text.contains('%'), "{text}");
        // The printed raw bits must match the wire-walk accounting.
        let stats = pastri::container_bit_stats(&fs::read(&comp).unwrap()).unwrap();
        assert!(text.contains(&format!("ecq {} bits", stats.ecq_bits)), "{text}");
    }

    #[test]
    fn metric_and_tree_flags() {
        let args = Args::parse(&sv(&["--metric", "aar", "--tree", "3"]), &COMPRESS).unwrap();
        let opts = parse_options(&args).unwrap();
        assert_eq!(opts.metric, ScalingMetric::Aar);
        assert_eq!(opts.tree, EncodingTree::Tree3);
        let args = Args::parse(&sv(&["--metric", "nope"]), &COMPRESS).unwrap();
        assert!(parse_options(&args).is_err());
    }
}
