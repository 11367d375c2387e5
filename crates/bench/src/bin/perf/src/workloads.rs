//! The workloads. Each one takes the inputs generated from the seed, sets
//! the program up (timed as `setup_s`, several times, median reported),
//! runs a closed loop of operations for the requested time, and checks
//! every operation's output against an oracle outside the timed call.
//!
//! Only user-facing entry points are called: `Compressor::new` /
//! `compress`, `pastri::decompress`, `StoreWriter::create_durable` /
//! `append_blocks` / `finish`, `StoreReader::open` / `read_block`,
//! `ServerHandle::open`, `TransportServer::bind` / `spawn` /
//! `stop_handle`, and `RemoteClient::connect` / `read_blocks_strict`.
//! A trace run also reads `pastri::inspect`, `ServerHandle::cache_stats`
//! and the telemetry recorder, outside the timed calls.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eri_server::{
    ClientConfig, Endpoint, RemoteClient, ServerConfig, ServerHandle, StopHandle, TransportServer,
};
use eri_store::{StoreReader, StoreWriter};
use pastri::{BlockGeometry, Compressor};
use qchem::basis::BfConfig;
use qchem::dataset::{DatasetSpec, EriDataset};

use crate::layers::{self, Facts, Format, Recorded};
use crate::stats::{
    fold_bytes, fold_values, fold_word, host_slowness, median, percentile, SplitMix,
};
use crate::Metric;

/// Absolute error bound of every compression (the paper's default).
pub const EB: f64 = 1e-10;
/// Untimed passes that let lazy set-up and caches settle.
const WARMUP_PASSES: usize = 2;
/// `hot_reuse` draws from a hot set of 1/8 of the blocks, which fits the
/// cache (budget 1/4 of the decoded dataset)...
const HOT_SET_DIVISOR: usize = 8;
/// ...with this share of ids; the rest are uniform over all blocks.
const HOT_PERCENT: u64 = 95;
/// Salt separating the traffic RNG from the quartet-sampling seed.
const TRAFFIC_SALT: u64 = 0x7472_6166_6669_6321;
/// Reference passes that scale one set-up time.
const SETUP_PASSES: usize = 9;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    Compress,
    Decompress,
    ScfScan,
    HotReuse,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Ingest,
        Workload::Compress,
        Workload::Decompress,
        Workload::ScfScan,
        Workload::HotReuse,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Compress => "compress",
            Workload::Decompress => "decompress",
            Workload::ScfScan => "scf_scan",
            Workload::HotReuse => "hot_reuse",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input and batch sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `(dd|dd)` blocks of input.
    pub blocks: usize,
    /// Blocks per codec container (one codec op).
    pub codec_blocks: usize,
    /// Blocks per `append_blocks` call, and the checkpoint interval.
    pub batch_blocks: usize,
    /// Block ids per fetch request.
    pub request_blocks: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Requests replayed through the byte-counting relay.
    pub relay_requests: usize,
}

/// The benchmark's sizes: 83 MB of `(dd|dd)` integrals.
pub const FULL: Sizes = Sizes {
    blocks: 8000,
    codec_blocks: 64,
    batch_blocks: 64,
    request_blocks: 16,
    setups: 5,
    relay_requests: 64,
};

pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Seed-pure summary: identical for every run of one seed.
    pub tallies: String,
    /// The untraced phase's timings as measured, before scaling, and the
    /// median host slowness that scaled them.
    pub measured: String,
}

/// Runs one workload on `input`, which `Input::generate` made from the
/// run's seed.
pub fn run(r: &Run, input: &Input) -> Result<Outcome, String> {
    let work = WorkDir::create(r.workload)?;
    match r.workload {
        Workload::Ingest => ingest(r, input, &work),
        Workload::Compress => codec(r, input, false),
        Workload::Decompress => codec(r, input, true),
        Workload::ScfScan => fetch(r, input, &work, false),
        Workload::HotReuse => fetch(r, input, &work, true),
    }
}

/// Scratch files under the working directory, removed when dropped.
/// Paths stay relative so that socket paths stay short.
struct WorkDir(PathBuf);

const WORK_ROOT: &str = ".perf-work";

impl WorkDir {
    fn create(w: Workload) -> Result<Self, String> {
        let dir = Path::new(WORK_ROOT).join(format!("{}-{}", w.name(), std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

pub struct Input {
    geometry: BlockGeometry,
    block_size: usize,
    values: Vec<f64>,
}

impl Input {
    /// Analytic `(dd|dd)` ERIs of the benzene benchmark cluster, with the
    /// quartet sampling seeded from the run's seed. `(dd|dd)` rather than
    /// `(ff|ff)`: over ten seeds the store ratio of 8000 `(dd|dd)` blocks
    /// spreads about 2% (inter-quartile), where 400 `(ff|ff)` blocks of
    /// the same size spread 8%.
    pub fn generate(blocks: usize, seed: u64) -> Result<Self, String> {
        let config = BfConfig::dd_dd();
        let ds = EriDataset::generate(&DatasetSpec {
            molecule: bench::benchmark_molecule("benzene"),
            config,
            max_blocks: blocks,
            seed,
        });
        if ds.num_blocks() != blocks {
            return Err(format!(
                "only {} of {blocks} {} quartets survive screening",
                ds.num_blocks(),
                config.label()
            ));
        }
        Ok(Input {
            geometry: bench::geometry_of(config),
            block_size: config.block_size(),
            values: ds.values,
        })
    }

    fn blocks(&self) -> usize {
        self.values.len() / self.block_size
    }

    fn block(&self, i: usize) -> &[f64] {
        &self.values[i * self.block_size..(i + 1) * self.block_size]
    }

    fn raw_bytes(&self) -> u64 {
        self.values.len() as u64 * 8
    }
}

fn within_eb(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(a, b)| (a - b).abs() <= EB)
}

/// Runs `f`, adding its wall time to `acc`.
fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed();
    out
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Counts of one timed phase. Times are kept as measured and also
/// scaled to the reference machine's speed by the host slowness
/// measured right after the work (see `host_slowness`).
#[derive(Default)]
struct Tally {
    /// Per-op latency samples, as measured.
    op_ns: Vec<u64>,
    /// The same samples, scaled.
    scaled_ns: Vec<u64>,
    /// Time spent inside timed calls, as measured and scaled.
    busy_ns: u64,
    scaled_busy_ns: f64,
    /// Host slowness after each piece of correct work.
    slowness: Vec<f64>,
    /// Raw bytes the timed calls processed.
    bytes: u64,
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one op; only correct ones add time, bytes and a sample.
    fn op(&mut self, elapsed: Duration, bytes: u64, ok: bool) {
        self.attempted += 1;
        if ok {
            self.passed(&[(elapsed, host_slowness())], Duration::ZERO, bytes);
        } else {
            self.failed += 1;
        }
    }

    /// Adds correct work: its latency samples, each with the host
    /// slowness measured right after it, `extra` busy time outside the
    /// samples (scaled by the last sample's slowness), and its bytes.
    fn passed(&mut self, samples: &[(Duration, f64)], extra: Duration, bytes: u64) {
        for &(d, slowness) in samples {
            self.op_ns.push(ns(d));
            self.scaled_ns.push((ns(d) as f64 / slowness) as u64);
            self.busy_ns += ns(d);
            self.scaled_busy_ns += ns(d) as f64 / slowness;
            self.slowness.push(slowness);
        }
        if let Some(&(_, slowness)) = samples.last() {
            self.busy_ns += ns(extra);
            self.scaled_busy_ns += ns(extra) as f64 / slowness;
        }
        self.bytes += bytes;
    }

    fn throughput_mbs(&self, busy_ns: f64) -> f64 {
        if busy_ns == 0.0 {
            return 0.0;
        }
        self.bytes as f64 / 1e6 / (busy_ns / 1e9)
    }

    fn percentile_us(&self, q: f64) -> f64 {
        percentile(&self.scaled_ns, q) / 1e3
    }
}

/// Set-up times of a run, as measured and scaled like op times. A run
/// sets up only a few times, so each is scaled by the median slowness of
/// several reference passes.
#[derive(Default)]
struct Setups {
    measured_s: Vec<f64>,
    scaled_s: Vec<f64>,
}

impl Setups {
    fn push(&mut self, d: Duration) {
        let slowness: Vec<f64> = (0..SETUP_PASSES).map(|_| host_slowness()).collect();
        self.measured_s.push(d.as_secs_f64());
        self.scaled_s.push(d.as_secs_f64() / median(&slowness));
    }
}

/// The timed phase: the whole run untraced or, in a trace run, an
/// untraced half followed by a traced half (the two give
/// `trace_overhead_pct`).
struct Phases {
    plain: Tally,
    traced: Option<(Tally, Recorded)>,
}

impl Phases {
    fn run(r: &Run, mut measure: impl FnMut(Instant, Option<&mut Recorded>) -> Tally) -> Self {
        let span = Duration::from_secs_f64(r.seconds);
        if !r.trace {
            return Phases {
                plain: measure(Instant::now() + span, None),
                traced: None,
            };
        }
        let plain = measure(Instant::now() + span / 2, None);
        let mut rec = Recorded::start();
        let traced = measure(Instant::now() + span / 2, Some(&mut rec));
        Phases {
            plain,
            traced: Some((traced, rec.finish())),
        }
    }

    fn attempted(&self) -> u64 {
        self.plain.attempted + self.traced.as_ref().map_or(0, |(t, _)| t.attempted)
    }

    fn failed(&self) -> u64 {
        self.plain.failed + self.traced.as_ref().map_or(0, |(t, _)| t.failed)
    }

    fn overhead_pct(&self) -> f64 {
        let (traced, _) = self.traced.as_ref().expect("trace run");
        let plain = self.plain.percentile_us(0.5);
        if plain > 0.0 {
            (traced.percentile_us(0.5) / plain - 1.0) * 100.0
        } else {
            0.0
        }
    }

    /// The run's result: end-to-end metrics from the untraced phase, or
    /// per-layer metrics from the traced one.
    fn outcome(
        self,
        setups: &Setups,
        ratio: f64,
        tallies: String,
        facts: impl FnOnce(&Tally, &Recorded) -> Facts,
    ) -> Outcome {
        let (attempted, failed) = (self.attempted(), self.failed());
        let plain = &self.plain;
        let measured = format!(
            "measured setup_s={:.6} throughput_mbs={:.3} op_p50_us={:.3} host_slowness={:.4}",
            median(&setups.measured_s),
            plain.throughput_mbs(plain.busy_ns as f64),
            percentile(&plain.op_ns, 0.5) / 1e3,
            median(&plain.slowness)
        );
        let metrics = match &self.traced {
            None => vec![
                Metric::new("setup_s", "s", median(&setups.scaled_s)),
                Metric::new(
                    "throughput_mbs",
                    "MB/s",
                    plain.throughput_mbs(plain.scaled_busy_ns),
                ),
                Metric::new("op_p50_us", "us", plain.percentile_us(0.50)),
                Metric::new("peak_rss_mb", "MB", crate::stats::peak_rss_mb()),
                Metric::new("compression_ratio", "x", ratio),
            ],
            Some((traced, rec)) => {
                let mut f = facts(traced, rec);
                f.trace_overhead_pct = self.overhead_pct();
                f.host_slowness = median(&traced.slowness);
                layers::metrics(rec, &f)
            }
        };
        Outcome {
            attempted,
            failed,
            metrics,
            tallies,
            measured,
        }
    }
}

fn tallies(r: &Run, blocks: usize, raw: u64, stored: u64, value_sig: u64) -> String {
    format!(
        "tallies workload={} seed={} blocks={blocks} raw_bytes={raw} stored_bytes={stored} \
         value_sig={value_sig:016x} ratio={:.6}",
        r.workload.name(),
        r.seed,
        raw as f64 / stored as f64
    )
}

// ---------------------------------------------------------------------------
// Block store: durable write and the read-back oracle.
// ---------------------------------------------------------------------------

struct Written {
    /// `create_durable` and `finish`.
    ends: Duration,
    append: Vec<Duration>,
}

impl Written {
    fn total(&self) -> Duration {
        self.ends + self.append.iter().sum::<Duration>()
    }
}

/// One durable store write: checkpoint and `append_blocks` every
/// `batch` blocks, then `finish`. `after_append` runs after each
/// `append_blocks`, outside the timed calls.
fn write_store(
    path: &Path,
    input: &Input,
    batch: usize,
    mut after_append: impl FnMut(),
) -> Result<Written, String> {
    let start = Instant::now();
    let mut w = StoreWriter::create_durable(path, input.geometry, EB, batch)
        .map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut ends = start.elapsed();
    let mut append = Vec::with_capacity(input.blocks().div_ceil(batch));
    for chunk in input.values.chunks(batch * input.block_size) {
        let t = Instant::now();
        w.append_blocks(chunk).map_err(|e| format!("append: {e}"))?;
        append.push(t.elapsed());
        after_append();
    }
    timed(&mut ends, || w.finish()).map_err(|e| format!("finish: {e}"))?;
    Ok(Written { ends, append })
}

fn file_sig(path: &Path) -> Result<u64, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(fold_bytes(0, &bytes))
}

/// What a correct store holds, established once per run: every block read
/// back directly and checked within EB of its input.
struct StoreOracle {
    block_sigs: Vec<u64>,
    value_sig: u64,
    file_sig: u64,
    file_bytes: u64,
    /// Direct `read_block` times, in store order.
    read_ns: Vec<u64>,
}

impl StoreOracle {
    fn check(path: &Path, input: &Input) -> Result<Self, String> {
        let mut reader =
            StoreReader::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
        let mut block_sigs = Vec::with_capacity(input.blocks());
        let mut read_ns = Vec::with_capacity(input.blocks());
        for i in 0..input.blocks() {
            let t = Instant::now();
            let values = reader
                .read_block(i)
                .map_err(|e| format!("read block {i}: {e}"))?;
            read_ns.push(ns(t.elapsed()));
            if !within_eb(&values, input.block(i)) {
                return Err(format!("store block {i} is not within {EB:e} of its input"));
            }
            block_sigs.push(fold_values(0, &values));
        }
        let value_sig = block_sigs.iter().fold(0, |h, &s| fold_word(h, s));
        let file_bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
        Ok(StoreOracle {
            block_sigs,
            value_sig,
            file_sig: file_sig(path)?,
            file_bytes,
            read_ns,
        })
    }

    fn ratio(&self, input: &Input) -> f64 {
        input.raw_bytes() as f64 / self.file_bytes as f64
    }

    /// Blocks `ids` as delivered match the oracle bit for bit.
    fn delivered_ok(&self, ids: &[u64], got: &[Vec<f64>], block_size: usize) -> bool {
        got.len() == ids.len()
            && ids.iter().zip(got).all(|(&id, values)| {
                values.len() == block_size
                    && self.block_sigs.get(id as usize) == Some(&fold_values(0, values))
            })
    }
}

/// Per-block containers, as the store writes them, for the format rows.
fn store_format(input: &Input, stored_bytes: u64) -> Result<Format, String> {
    let compressor = Compressor::new(input.geometry, EB);
    let mut f = Format {
        stored_bytes,
        ..Format::default()
    };
    for i in 0..input.blocks() {
        f.add(&compressor.compress(input.block(i)))?;
    }
    Ok(f)
}

// ---------------------------------------------------------------------------
// ingest
// ---------------------------------------------------------------------------

fn ingest(r: &Run, input: &Input, work: &WorkDir) -> Result<Outcome, String> {
    let batch = r.sizes.batch_blocks;
    let path = work.path("ingest.store");

    let mut setups = Setups::default();
    let mut oracle: Option<StoreOracle> = None;
    for _ in 0..r.sizes.setups {
        setups.push(write_store(&path, input, batch, || {})?.total());
        match &oracle {
            None => oracle = Some(StoreOracle::check(&path, input)?),
            Some(o) if file_sig(&path)? != o.file_sig => return Err("warm-up stores differ".into()),
            Some(_) => {}
        }
        std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    }
    let oracle = oracle.ok_or("no set-up ran")?;

    // Each append batch is one op and one latency sample, scaled by the
    // host slowness right after it; throughput counts whole writes,
    // create and finish included.
    let batches = input.blocks().div_ceil(batch) as u64;
    let phases = Phases::run(r, |deadline, mut rec| {
        let mut t = Tally::default();
        let mut slowness = Vec::with_capacity(batches as usize);
        while Instant::now() < deadline {
            slowness.clear();
            let written = write_store(&path, input, batch, || slowness.push(host_slowness()));
            let ok = written.is_ok() && file_sig(&path).is_ok_and(|s| s == oracle.file_sig);
            let _ = std::fs::remove_file(&path);
            t.attempted += batches;
            match written {
                Ok(w) if ok => {
                    let samples: Vec<(Duration, f64)> = w
                        .append
                        .iter()
                        .copied()
                        .zip(slowness.iter().copied())
                        .collect();
                    t.passed(&samples, w.ends, input.raw_bytes());
                }
                _ => t.failed += batches,
            }
            if let Some(rec) = rec.as_deref_mut() {
                rec.drain();
            }
        }
        t
    });

    let format = if r.trace {
        store_format(input, oracle.file_bytes)?
    } else {
        Format::default()
    };
    let tallies = tallies(
        r,
        input.blocks(),
        input.raw_bytes(),
        oracle.file_bytes,
        oracle.value_sig,
    );
    Ok(
        phases.outcome(&setups, oracle.ratio(input), tallies, |traced, _| Facts {
            write_s: traced.busy_ns as f64 / 1e9,
            values_compressed: traced.bytes / 8,
            bytes_ingested: traced.bytes,
            blocks_appended: traced.bytes / 8 / input.block_size as u64,
            append_ns: traced.op_ns.iter().sum(),
            read_block_ns: oracle.read_ns.clone(),
            format,
            ..Facts::default()
        }),
    )
}

// ---------------------------------------------------------------------------
// compress / decompress
// ---------------------------------------------------------------------------

fn codec(r: &Run, input: &Input, decode: bool) -> Result<Outcome, String> {
    let chunk_len = r.sizes.codec_blocks * input.block_size;
    let chunks: Vec<&[f64]> = input.values.chunks(chunk_len).collect();

    // Oracle: every container decodes to within EB of its input.
    let reference = Compressor::new(input.geometry, EB);
    let containers: Vec<Vec<u8>> = chunks.iter().map(|c| reference.compress(c)).collect();
    let mut sigs = Vec::with_capacity(chunks.len());
    let mut format = Format::default();
    for (i, (c, container)) in chunks.iter().zip(&containers).enumerate() {
        let values = pastri::decompress(container).map_err(|e| format!("container {i}: {e}"))?;
        if !within_eb(&values, c) {
            return Err(format!("container {i} is not within {EB:e} of its input"));
        }
        sigs.push(fold_values(0, &values));
        format.add(container)?;
    }
    format.stored_bytes = format.container_bytes;

    let mut setups = Setups::default();
    let mut compressor = None;
    for _ in 0..r.sizes.setups {
        let mut acc = Duration::ZERO;
        let c = timed(&mut acc, || Compressor::new(input.geometry, EB));
        if decode {
            for (chunk, want) in chunks.iter().zip(&containers) {
                if timed(&mut acc, || c.compress(chunk)) != *want {
                    return Err("set-up compression differs from the reference".into());
                }
            }
        }
        for _ in 0..WARMUP_PASSES {
            for (chunk, container) in chunks.iter().zip(&containers) {
                if decode {
                    timed(&mut acc, || pastri::decompress(container))
                        .map_err(|e| format!("warm-up decode: {e}"))?;
                } else {
                    timed(&mut acc, || c.compress(chunk));
                }
            }
        }
        setups.push(acc);
        compressor = Some(c);
    }
    let compressor = compressor.ok_or("no set-up ran")?;

    let phases = Phases::run(r, |deadline, mut rec| {
        let mut t = Tally::default();
        let mut i = 0;
        while Instant::now() < deadline {
            let (elapsed, ok) = if decode {
                let start = Instant::now();
                let out = pastri::decompress(&containers[i]);
                (
                    start.elapsed(),
                    out.is_ok_and(|v| fold_values(0, &v) == sigs[i]),
                )
            } else {
                let start = Instant::now();
                let out = compressor.compress(chunks[i]);
                (start.elapsed(), out == containers[i])
            };
            t.op(elapsed, chunks[i].len() as u64 * 8, ok);
            if let Some(rec) = rec.as_deref_mut() {
                rec.drain();
            }
            i = (i + 1) % chunks.len();
        }
        t
    });

    let value_sig = sigs.iter().fold(0, |h, &s| fold_word(h, s));
    let tallies = tallies(
        r,
        input.blocks(),
        input.raw_bytes(),
        format.stored_bytes,
        value_sig,
    );
    let ratio = input.raw_bytes() as f64 / format.stored_bytes as f64;
    Ok(phases.outcome(&setups, ratio, tallies, |traced, _| Facts {
        values_compressed: if decode { 0 } else { traced.bytes / 8 },
        values_decoded: if decode { traced.bytes / 8 } else { 0 },
        format,
        ..Facts::default()
    }))
}

// ---------------------------------------------------------------------------
// scf_scan / hot_reuse
// ---------------------------------------------------------------------------

/// A mounted store behind a Unix-socket server, and one connected client.
struct Served {
    handle: Arc<ServerHandle>,
    stop: StopHandle,
    thread: JoinHandle<std::io::Result<u64>>,
    client: RemoteClient,
}

impl Served {
    fn start(
        store: &Path,
        sock: &Path,
        cache_bytes: usize,
        acc: &mut Duration,
    ) -> Result<Self, String> {
        let cfg = ServerConfig {
            cache_bytes,
            ..ServerConfig::default()
        };
        let handle = Arc::new(
            timed(acc, || ServerHandle::open(&[store], &cfg)).map_err(|e| format!("mount: {e}"))?,
        );
        let ep = Endpoint::Unix(sock.to_path_buf());
        let server = timed(acc, || TransportServer::bind(&ep, Arc::clone(&handle)))
            .map_err(|e| format!("bind {ep}: {e}"))?;
        let stop = server.stop_handle();
        let thread = timed(acc, || Arc::new(server).spawn(None));
        match timed(acc, || {
            RemoteClient::connect(&[ep], ClientConfig::default())
        }) {
            Ok(client) => Ok(Served {
                handle,
                stop,
                thread,
                client,
            }),
            Err(e) => {
                stop.stop();
                let _ = thread.join();
                Err(format!("connect: {e}"))
            }
        }
    }

    fn stop(self) -> Result<(), String> {
        drop(self.client);
        self.stop.stop();
        match self.thread.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// The request stream of a fetch workload.
enum Requests {
    /// Consecutive blocks in shell-quartet (store) order, wrapping.
    Scan { next: u64 },
    /// Mostly the hot set, sometimes any block.
    Hot { rng: SplitMix, hot: Vec<u64> },
}

impl Requests {
    fn new(hot: bool, seed: u64, blocks: usize) -> Self {
        if !hot {
            return Requests::Scan { next: 0 };
        }
        // Seeded partial Fisher-Yates: a hot set of distinct blocks.
        let mut rng = SplitMix::new(seed ^ TRAFFIC_SALT);
        let mut ids: Vec<u64> = (0..blocks as u64).collect();
        let size = (blocks / HOT_SET_DIVISOR).max(1);
        for i in 0..size {
            let j = i + rng.below((blocks - i) as u64) as usize;
            ids.swap(i, j);
        }
        ids.truncate(size);
        Requests::Hot { rng, hot: ids }
    }

    /// Untimed warm-up requests: one full scan, or the hot set once.
    fn warmup(&self, blocks: usize, per_request: usize) -> Vec<Vec<u64>> {
        match self {
            Requests::Scan { .. } => (0..blocks as u64)
                .collect::<Vec<_>>()
                .chunks(per_request)
                .map(<[u64]>::to_vec)
                .collect(),
            Requests::Hot { hot, .. } => hot.chunks(per_request).map(<[u64]>::to_vec).collect(),
        }
    }

    fn fill(&mut self, blocks: usize, per_request: usize, ids: &mut Vec<u64>) {
        let n = blocks as u64;
        ids.clear();
        match self {
            Requests::Scan { next } => {
                ids.extend((0..per_request as u64).map(|k| (*next + k) % n));
                *next = (*next + per_request as u64) % n;
            }
            Requests::Hot { rng, hot } => {
                for _ in 0..per_request {
                    let id = if rng.below(100) < HOT_PERCENT {
                        hot[rng.below(hot.len() as u64) as usize]
                    } else {
                        rng.below(n)
                    };
                    ids.push(id);
                }
            }
        }
    }
}

fn fetch(r: &Run, input: &Input, work: &WorkDir, hot: bool) -> Result<Outcome, String> {
    let (blocks, bs, k) = (input.blocks(), input.block_size, r.sizes.request_blocks);
    let store = work.path("fetch.store");
    let sock = work.path("s.sock");
    // The cache holds a quarter of the decoded dataset.
    let cache_bytes = usize::try_from(input.raw_bytes() / 4).map_err(|e| e.to_string())?;

    let mut setups = Setups::default();
    let mut oracle: Option<StoreOracle> = None;
    let mut served: Option<Served> = None;
    for _ in 0..r.sizes.setups {
        if let Some(s) = served.take() {
            s.stop()?;
        }
        let mut acc = write_store(&store, input, r.sizes.batch_blocks, || {})?.total();
        match &oracle {
            None => oracle = Some(StoreOracle::check(&store, input)?),
            Some(o) if file_sig(&store)? != o.file_sig => return Err("set-up stores differ".into()),
            Some(_) => {}
        }
        let o = oracle.as_ref().expect("oracle set above");
        let mut s = Served::start(&store, &sock, cache_bytes, &mut acc)?;
        for ids in Requests::new(hot, r.seed, blocks).warmup(blocks, k) {
            let got = timed(&mut acc, || s.client.read_blocks_strict(&ids))
                .map_err(|e| format!("warm-up read: {e}"))?;
            if !o.delivered_ok(&ids, &got, bs) {
                return Err("warm-up read delivered wrong values".into());
            }
        }
        setups.push(acc);
        served = Some(s);
    }
    let (oracle, mut served) = (
        oracle.ok_or("no set-up ran")?,
        served.ok_or("no set-up ran")?,
    );

    let mut requests = Requests::new(hot, r.seed, blocks);
    let phases = Phases::run(r, |deadline, mut rec| {
        let mut t = Tally::default();
        let mut ids = Vec::with_capacity(k);
        while Instant::now() < deadline {
            requests.fill(blocks, k, &mut ids);
            let start = Instant::now();
            let got = served.client.read_blocks_strict(&ids);
            let elapsed = start.elapsed();
            let ok = got.is_ok_and(|g| oracle.delivered_ok(&ids, &g, bs));
            t.op(elapsed, (k * bs * 8) as u64, ok);
            if let Some(rec) = rec.as_deref_mut() {
                rec.drain();
            }
        }
        t
    });

    let mut facts = Facts::default();
    let mut relay_failed = 0;
    if r.trace {
        facts.format = store_format(input, oracle.file_bytes)?;
        facts.cache_high_water_bytes = served.handle.cache_stats().high_water_bytes;
        // Wire bytes: replay the start of the request stream through the relay.
        let relay_sock = work.path("r.sock");
        let relay = layers::relay(&relay_sock, &sock).map_err(|e| format!("relay: {e}"))?;
        let mut client =
            RemoteClient::connect(&[Endpoint::Unix(relay_sock)], ClientConfig::default())
                .map_err(|e| format!("connect through relay: {e}"))?;
        let mut replay = Requests::new(hot, r.seed, blocks);
        let mut ids = Vec::with_capacity(k);
        for _ in 0..r.sizes.relay_requests {
            replay.fill(blocks, k, &mut ids);
            match client.read_blocks_strict(&ids) {
                Ok(got) if oracle.delivered_ok(&ids, &got, bs) => {
                    facts.wire_values += (k * bs) as u64
                }
                _ => relay_failed += 1,
            }
        }
        drop(client);
        facts.wire_bytes = match relay.join() {
            Ok(Ok(n)) => n,
            _ => return Err("relay failed".into()),
        };
    }
    served.stop()?;

    let tallies = tallies(
        r,
        blocks,
        input.raw_bytes(),
        oracle.file_bytes,
        oracle.value_sig,
    );
    let mut outcome = phases.outcome(&setups, oracle.ratio(input), tallies, |traced, rec| Facts {
        values_decoded: rec.counter("server.store_reads") * bs as u64,
        read_block_ns: oracle.read_ns.clone(),
        requests: traced.attempted,
        request_ns: traced.op_ns.clone(),
        ..facts
    });
    if r.trace {
        outcome.attempted += r.sizes.relay_requests as u64;
        outcome.failed += relay_failed;
    }
    Ok(outcome)
}
