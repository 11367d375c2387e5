//! Deterministic I/O fault injection — the test harness behind the
//! repo's corruption-resilience guarantees.
//!
//! [`FaultyReader`] wraps any `Read` (and passes `Seek` through) and
//! injects the failure modes a compressed-ERI dataset actually meets on
//! a parallel file system: flipped bits, a truncated tail, short reads,
//! and transient `Interrupted`/`WouldBlock` errors. Everything is keyed
//! off a caller-supplied seed and the *absolute byte offset*, so a given
//! (source, seed, config) triple always injects the same faults no
//! matter how the consumer chunks its reads — a failing test seed
//! reproduces exactly.
//!
//! [`FaultyWriter`] is the write-side mirror: short writes, torn writes,
//! and deterministic *kill points* — after a caller-chosen number of
//! bytes (shared across several writers via a [`CrashBudget`]) every
//! subsequent write and fsync fails as if the process had been killed at
//! that instant, optionally firing an injectable abort hook first. The
//! crash-recovery harness replays every byte of a compression run as a
//! kill point and asserts the durability invariants on what the "dead"
//! process left behind.
//!
//! [`flip_bits`] is the in-memory counterpart for tests that corrupt a
//! byte buffer directly.
//!
//! This crate is test support: production code never depends on it
//! (repo crates pull it in under `[dev-dependencies]` only), but it is a
//! normal library so the CLI's self-test and `pfs-sim`'s failure model
//! can share the same arithmetic.

use std::io::{self, ErrorKind, Read, Seek, SeekFrom, Write};

use durable::retry::splitmix64;

pub mod overload;
pub mod proxy;

pub use proxy::{FaultyProxy, ProxyFaultConfig, ProxyTallies, WireFault};

/// What to inject. The default injects nothing — enable modes per test.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Probability that any given byte has one of its bits flipped.
    pub bit_flip_rate: f64,
    /// Probability that a `read` call fails with a transient error
    /// before touching the source.
    pub transient_rate: f64,
    /// Error kind for transient failures ([`ErrorKind::Interrupted`] or
    /// [`ErrorKind::WouldBlock`] are the realistic choices).
    pub transient_kind: ErrorKind,
    /// Hard cap on injected transient errors, so retry loops always
    /// terminate. `0` disables transient injection entirely.
    pub max_transient_errors: u32,
    /// Deliver at most a prefix of each requested read (exercises
    /// callers that wrongly assume `read` fills the buffer).
    pub short_reads: bool,
    /// Bytes at and beyond this offset read as end-of-file (a torn
    /// write / truncated tail).
    pub truncate_at: Option<u64>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            bit_flip_rate: 0.0,
            transient_rate: 0.0,
            transient_kind: ErrorKind::Interrupted,
            max_transient_errors: 0,
            short_reads: false,
            truncate_at: None,
        }
    }
}

/// Wraps a reader and injects the faults described by a [`FaultConfig`],
/// deterministically per seed.
#[derive(Debug)]
pub struct FaultyReader<R> {
    inner: R,
    seed: u64,
    config: FaultConfig,
    /// Absolute offset of the next byte to be read (tracks seeks).
    pos: u64,
    /// Monotonic `read`-call counter (drives transient-error draws).
    calls: u64,
    transient_emitted: u32,
}

impl<R> FaultyReader<R> {
    /// Wraps `inner`, injecting faults per `config`, reproducible for a
    /// given `seed`.
    pub fn new(inner: R, seed: u64, config: FaultConfig) -> Self {
        Self {
            inner,
            seed,
            config,
            pos: 0,
            calls: 0,
            transient_emitted: 0,
        }
    }

    /// How many transient errors have been injected so far.
    #[must_use]
    pub fn transient_errors_injected(&self) -> u32 {
        self.transient_emitted
    }

    /// Unwraps the inner reader.
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// Should the byte at absolute `offset` be corrupted, and if so
    /// which bit? Pure function of (seed, offset) — read-chunking and
    /// seek patterns cannot change the answer.
    fn flip_for_offset(&self, offset: u64) -> Option<u8> {
        if self.config.bit_flip_rate <= 0.0 {
            return None;
        }
        let h = splitmix64(self.seed ^ offset.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if unit_f64(h) < self.config.bit_flip_rate {
            Some(1 << (h >> 61))
        } else {
            None
        }
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let call = self.calls;
        self.calls += 1;
        if self.config.transient_rate > 0.0
            && self.transient_emitted < self.config.max_transient_errors
        {
            let h = splitmix64(self.seed ^ 0xdead_4bad ^ call.wrapping_mul(0x2545_f491_4f6c_dd1d));
            if unit_f64(h) < self.config.transient_rate {
                self.transient_emitted += 1;
                return Err(io::Error::new(self.config.transient_kind, "injected transient"));
            }
        }

        let mut want = buf.len();
        if let Some(limit) = self.config.truncate_at {
            let left = limit.saturating_sub(self.pos);
            want = want.min(left as usize);
            if want == 0 && !buf.is_empty() {
                return Ok(0); // truncated tail
            }
        }
        if self.config.short_reads && want > 1 {
            let h = splitmix64(self.seed ^ 0x5407_7e44 ^ call);
            want = 1 + (h as usize % want);
        }

        let n = self.inner.read(&mut buf[..want])?;
        for (i, byte) in buf[..n].iter_mut().enumerate() {
            if let Some(mask) = self.flip_for_offset(self.pos + i as u64) {
                *byte ^= mask;
                telemetry::counter_add("faults.bit_flips", 1);
            }
        }
        self.pos += n as u64;
        Ok(n)
    }
}

impl<R: Seek> Seek for FaultyReader<R> {
    fn seek(&mut self, to: SeekFrom) -> io::Result<u64> {
        let pos = self.inner.seek(to)?;
        self.pos = pos;
        Ok(pos)
    }
}

/// Flips `k` distinct bits of `bytes` within byte range
/// `[from, bytes.len())`, chosen deterministically from `seed`. Returns
/// the flipped `(byte, bit)` positions. Panics if the range cannot hold
/// `k` distinct bits.
pub fn flip_bits(bytes: &mut [u8], from: usize, k: usize, seed: u64) -> Vec<(usize, u8)> {
    let span = bytes.len().checked_sub(from).expect("range start past end");
    assert!(k <= span * 8, "cannot flip {k} distinct bits in {span} bytes");
    let mut flipped = Vec::with_capacity(k);
    let mut state = seed;
    while flipped.len() < k {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let h = splitmix64(state);
        let byte = from + (h as usize) % span;
        let bit = ((h >> 32) % 8) as u8;
        if flipped.contains(&(byte, bit)) {
            continue;
        }
        bytes[byte] ^= 1 << bit;
        flipped.push((byte, bit));
    }
    telemetry::counter_add("faults.bit_flips", flipped.len() as u64);
    flipped
}

/// Deterministic silent-data-corruption injector: exactly `k` distinct
/// bit flips at seeded offsets within a fixed byte span `[from, to)`.
///
/// The flip *plan* — which (absolute byte, bit) positions get hit — is a
/// pure function of `(span, k, seed)`, computed up front with the same
/// arithmetic as [`flip_bits`]. The plan can then be applied any way a
/// test needs: to an in-memory buffer ([`apply`](Self::apply)), to a
/// file on disk in place ([`apply_to_file`](Self::apply_to_file)), or in
/// flight through [`Read`]/[`Write`] wrappers
/// ([`reader`](Self::reader) / [`writer`](Self::writer)) — all four
/// produce byte-identical corruption, so an SDC scenario reproduces
/// exactly regardless of how the bytes move. The wrappers compose with
/// [`FaultyWriter`]/[`CrashBudget`]: wrap a `FaultyWriter` in a
/// `BitFlipper` writer to model a run that both crashes *and* takes
/// silent corruption.
#[derive(Debug, Clone)]
pub struct BitFlipper {
    /// Planned `(absolute byte offset, bit)` flips, sorted by offset.
    plan: Vec<(u64, u8)>,
}

impl BitFlipper {
    /// Plans `k` distinct bit flips within byte span `[from, to)`,
    /// deterministically from `seed`.
    ///
    /// # Panics
    /// Panics if the span cannot hold `k` distinct bits.
    #[must_use]
    pub fn new(from: u64, to: u64, k: usize, seed: u64) -> Self {
        let span = to.checked_sub(from).expect("span end before start") as usize;
        assert!(k <= span * 8, "cannot flip {k} distinct bits in {span} bytes");
        let mut plan: Vec<(u64, u8)> = Vec::with_capacity(k);
        let mut state = seed;
        while plan.len() < k {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let h = splitmix64(state);
            let byte = from + (h as usize % span) as u64;
            let bit = ((h >> 32) % 8) as u8;
            if plan.contains(&(byte, bit)) {
                continue;
            }
            plan.push((byte, bit));
        }
        plan.sort_unstable();
        Self { plan }
    }

    /// The planned `(absolute byte offset, bit)` positions, sorted.
    #[must_use]
    pub fn plan(&self) -> &[(u64, u8)] {
        &self.plan
    }

    /// Applies every planned flip to `bytes` (offsets are absolute into
    /// this buffer).
    ///
    /// # Panics
    /// Panics if a planned offset falls outside the buffer.
    pub fn apply(&self, bytes: &mut [u8]) {
        for &(byte, bit) in &self.plan {
            bytes[usize::try_from(byte).expect("offset fits usize")] ^= 1 << bit;
        }
        telemetry::counter_add("faults.bit_flips", self.plan.len() as u64);
    }

    /// Applies every planned flip to the file at `path`, in place.
    pub fn apply_to_file(&self, path: &std::path::Path) -> io::Result<()> {
        let mut bytes = std::fs::read(path)?;
        if let Some(&(last, _)) = self.plan.last() {
            if last >= bytes.len() as u64 {
                return Err(io::Error::new(
                    ErrorKind::InvalidInput,
                    format!("flip offset {last} beyond file length {}", bytes.len()),
                ));
            }
        }
        self.apply(&mut bytes);
        std::fs::write(path, bytes)
    }

    /// Wraps a writer: planned flips land on bytes as they stream
    /// through (offset = count of bytes written so far).
    pub fn writer<W: Write>(self, inner: W) -> FlippingWriter<W> {
        FlippingWriter {
            inner,
            flipper: self,
            pos: 0,
        }
    }

    /// Wraps a reader: planned flips land on bytes as they are read.
    pub fn reader<R: Read>(self, inner: R) -> FlippingReader<R> {
        FlippingReader {
            inner,
            flipper: self,
            pos: 0,
        }
    }

    /// Flips the planned bits inside `buf`, which holds the bytes at
    /// absolute offsets `[pos, pos + buf.len())`.
    fn apply_window(&self, buf: &mut [u8], pos: u64) {
        let end = pos + buf.len() as u64;
        let start = self.plan.partition_point(|&(b, _)| b < pos);
        let mut landed = 0u64;
        for &(byte, bit) in &self.plan[start..] {
            if byte >= end {
                break;
            }
            buf[(byte - pos) as usize] ^= 1 << bit;
            landed += 1;
        }
        if landed > 0 {
            telemetry::counter_add("faults.bit_flips", landed);
        }
    }
}

/// Write half of [`BitFlipper`]: corrupts planned offsets in flight.
pub struct FlippingWriter<W> {
    inner: W,
    flipper: BitFlipper,
    pos: u64,
}

impl<W> FlippingWriter<W> {
    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FlippingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut corrupted = buf.to_vec();
        self.flipper.apply_window(&mut corrupted, self.pos);
        let n = self.inner.write(&corrupted)?;
        self.pos += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<W: durable::SyncWrite> durable::SyncWrite for FlippingWriter<W> {
    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }
}

/// Read half of [`BitFlipper`]: corrupts planned offsets in flight.
pub struct FlippingReader<R> {
    inner: R,
    flipper: BitFlipper,
    pos: u64,
}

impl<R> FlippingReader<R> {
    /// Unwraps the inner reader.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Read for FlippingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.flipper.apply_window(&mut buf[..n], self.pos);
        self.pos += n as u64;
        Ok(n)
    }
}

impl<R: Seek> Seek for FlippingReader<R> {
    fn seek(&mut self, to: SeekFrom) -> io::Result<u64> {
        let pos = self.inner.seek(to)?;
        self.pos = pos;
        Ok(pos)
    }
}

/// Shared byte allowance for a simulated crash: writers draw from it on
/// every accepted byte, and once it runs dry they all die together —
/// modeling a process kill at one instant across the data file *and*
/// its journal. Cloning shares the same budget.
#[derive(Debug, Clone)]
pub struct CrashBudget(std::sync::Arc<std::sync::atomic::AtomicU64>);

impl CrashBudget {
    /// A budget of `bytes` accepted writes before the crash.
    #[must_use]
    pub fn new(bytes: u64) -> Self {
        Self(std::sync::Arc::new(std::sync::atomic::AtomicU64::new(
            bytes,
        )))
    }

    /// Bytes still writable before the crash fires.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.0.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Draws up to `want` bytes; returns how many were granted (0 once
    /// exhausted). Thread-safe: concurrent writers cannot overdraw.
    fn take(&self, want: u64) -> u64 {
        use std::sync::atomic::Ordering;
        let mut cur = self.0.load(Ordering::SeqCst);
        loop {
            let grant = cur.min(want);
            match self
                .0
                .compare_exchange(cur, cur - grant, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return grant,
                Err(now) => cur = now,
            }
        }
    }
}

/// What [`FaultyWriter`] injects. Default injects nothing.
#[derive(Default)]
pub struct WriteFaultConfig {
    /// Accept at most a prefix of each write (exercises callers that
    /// wrongly assume `write` takes the whole buffer).
    pub short_writes: bool,
    /// Crash once this shared budget is exhausted: every later write,
    /// flush, and sync fails with [`ErrorKind::Other`] ("injected
    /// crash"). Share one budget across the data and journal writers to
    /// model a whole-process kill.
    pub kill_after: Option<CrashBudget>,
    /// If `true`, the killing write is *torn*: the bytes still in budget
    /// are accepted (and reach the inner writer) before the failure —
    /// byte-granular kill points. If `false`, the killing write is
    /// rejected wholesale — kill points land on write-call boundaries.
    pub torn_kill: bool,
}

/// Error kind used for injected crashes.
#[must_use]
pub fn crash_error() -> io::Error {
    io::Error::other("injected crash")
}

/// Is this error an injected crash from a [`FaultyWriter`]?
#[must_use]
pub fn is_injected_crash(e: &io::Error) -> bool {
    e.kind() == ErrorKind::Other && e.to_string().contains("injected crash")
}

/// Wraps a writer and injects write-side faults per a
/// [`WriteFaultConfig`], deterministically per seed. After the kill
/// budget runs dry the writer is *dead*: nothing further reaches the
/// inner writer, mirroring a killed process whose file descriptors are
/// gone.
pub struct FaultyWriter<W> {
    inner: W,
    seed: u64,
    config: WriteFaultConfig,
    calls: u64,
    dead: bool,
    abort_hook: Option<Box<dyn FnMut() + Send>>,
}

impl<W> FaultyWriter<W> {
    /// Wraps `inner`, injecting faults per `config`, reproducible for a
    /// given `seed`.
    pub fn new(inner: W, seed: u64, config: WriteFaultConfig) -> Self {
        Self {
            inner,
            seed,
            config,
            calls: 0,
            dead: false,
            abort_hook: None,
        }
    }

    /// Installs a hook fired exactly once, at the moment the kill budget
    /// exhausts and this writer dies. The harness uses it to observe the
    /// crash instant (or to unwind, simulating an abort).
    #[must_use]
    pub fn with_abort_hook(mut self, hook: impl FnMut() + Send + 'static) -> Self {
        self.abort_hook = Some(Box::new(hook));
        self
    }

    /// Has the injected crash fired?
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Unwraps the inner writer (whatever it received pre-crash).
    pub fn into_inner(self) -> W {
        self.inner
    }

    fn die(&mut self) -> io::Error {
        if !self.dead {
            self.dead = true;
            telemetry::counter_add("faults.crashes_injected", 1);
            telemetry::counter_add("faults.crash_budget_exhausted", 1);
            telemetry::event("faults.crash_budget_exhausted");
            if let Some(hook) = self.abort_hook.as_mut() {
                hook();
            }
        }
        crash_error()
    }
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(crash_error());
        }
        let call = self.calls;
        self.calls += 1;
        let mut want = buf.len();
        if self.config.short_writes && want > 1 {
            let h = splitmix64(self.seed ^ 0x7717_a9b3 ^ call);
            want = 1 + (h as usize % want);
        }
        if let Some(budget) = &self.config.kill_after {
            if self.config.torn_kill {
                let grant = budget.take(want as u64) as usize;
                if grant == 0 && !buf.is_empty() {
                    return Err(self.die());
                }
                want = grant;
            } else if budget.remaining() < want as u64 {
                return Err(self.die());
            } else {
                budget.take(want as u64);
            }
        }
        self.inner.write(&buf[..want])
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(crash_error());
        }
        self.inner.flush()
    }
}

impl<W: durable::SyncWrite> durable::SyncWrite for FaultyWriter<W> {
    fn sync(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(crash_error());
        }
        self.inner.sync()
    }
}

/// Maps a hash to `[0, 1)`.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    fn read_all_through(cfg: FaultConfig, seed: u64, chunk: usize) -> Vec<u8> {
        let src = data(4096);
        let mut r = FaultyReader::new(Cursor::new(src), seed, cfg);
        let mut out = Vec::new();
        let mut buf = vec![0u8; chunk];
        loop {
            match r.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::WouldBlock) => {
                    continue
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        out
    }

    #[test]
    fn no_faults_is_transparent() {
        let out = read_all_through(FaultConfig::default(), 42, 100);
        assert_eq!(out, data(4096));
    }

    #[test]
    fn bit_flips_are_chunking_independent() {
        let cfg = FaultConfig {
            bit_flip_rate: 0.01,
            ..Default::default()
        };
        let a = read_all_through(cfg, 7, 1);
        let b = read_all_through(cfg, 7, 64);
        let c = read_all_through(cfg, 7, 4096);
        assert_eq!(a, b);
        assert_eq!(b, c);
        let clean = data(4096);
        let diff = a.iter().zip(&clean).filter(|(x, y)| x != y).count();
        assert!(diff > 0, "1% rate over 4 KiB must flip something");
        // Each corrupted byte differs by exactly one bit.
        for (x, y) in a.iter().zip(&clean) {
            if x != y {
                assert_eq!((x ^ y).count_ones(), 1);
            }
        }
        // A different seed flips different bytes.
        let other = read_all_through(cfg, 8, 64);
        assert_ne!(a, other);
    }

    #[test]
    fn truncation_ends_the_stream() {
        let cfg = FaultConfig {
            truncate_at: Some(1000),
            ..Default::default()
        };
        let out = read_all_through(cfg, 1, 256);
        assert_eq!(out, data(4096)[..1000].to_vec());
    }

    #[test]
    fn short_reads_still_deliver_everything() {
        let cfg = FaultConfig {
            short_reads: true,
            ..Default::default()
        };
        let out = read_all_through(cfg, 3, 512);
        assert_eq!(out, data(4096));
    }

    #[test]
    fn transient_errors_are_bounded() {
        let cfg = FaultConfig {
            transient_rate: 0.5,
            max_transient_errors: 5,
            transient_kind: ErrorKind::WouldBlock,
            ..Default::default()
        };
        let src = data(4096);
        let mut r = FaultyReader::new(Cursor::new(src.clone()), 9, cfg);
        let mut out = Vec::new();
        let mut buf = [0u8; 128];
        let mut transients = 0;
        loop {
            match r.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => transients += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(out, src);
        assert_eq!(transients, 5, "must stop at max_transient_errors");
        assert_eq!(r.transient_errors_injected(), 5);
    }

    #[test]
    fn seek_keeps_flip_determinism() {
        let cfg = FaultConfig {
            bit_flip_rate: 0.05,
            ..Default::default()
        };
        // Read straight through.
        let straight = read_all_through(cfg, 11, 4096);
        // Read the second half first, then the first half, via seeks.
        let mut r = FaultyReader::new(Cursor::new(data(4096)), 11, cfg);
        let mut second = vec![0u8; 2048];
        r.seek(SeekFrom::Start(2048)).unwrap();
        r.read_exact(&mut second).unwrap();
        let mut first = vec![0u8; 2048];
        r.seek(SeekFrom::Start(0)).unwrap();
        r.read_exact(&mut first).unwrap();
        first.extend_from_slice(&second);
        assert_eq!(first, straight, "flips must depend on offset, not read order");
    }

    #[test]
    fn faulty_writer_no_faults_is_transparent() {
        let mut w = FaultyWriter::new(Vec::new(), 5, WriteFaultConfig::default());
        w.write_all(&data(1000)).unwrap();
        w.flush().unwrap();
        assert_eq!(w.into_inner(), data(1000));
    }

    #[test]
    fn short_writes_still_deliver_everything() {
        let mut w = FaultyWriter::new(
            Vec::new(),
            5,
            WriteFaultConfig {
                short_writes: true,
                ..Default::default()
            },
        );
        // write_all loops over the short accepts.
        w.write_all(&data(4096)).unwrap();
        assert!(w.calls > 1, "short writes must have split the buffer");
        assert_eq!(w.into_inner(), data(4096));
    }

    #[test]
    fn torn_kill_accepts_exactly_the_budget() {
        for kill_at in [0u64, 1, 137, 999, 1000] {
            let mut w = FaultyWriter::new(
                Vec::new(),
                9,
                WriteFaultConfig {
                    kill_after: Some(CrashBudget::new(kill_at)),
                    torn_kill: true,
                    ..Default::default()
                },
            );
            let src = data(1000);
            let result = w.write_all(&src);
            if kill_at < 1000 {
                let e = result.unwrap_err();
                assert!(is_injected_crash(&e), "{e}");
                assert!(w.is_dead());
                // Everything else fails too, like a killed process.
                assert!(w.write(b"x").is_err());
                assert!(w.flush().is_err());
                assert!(durable::SyncWrite::sync(&mut w).is_err());
            } else {
                result.unwrap();
            }
            let got = w.into_inner();
            let expect = &src[..(kill_at as usize).min(1000)];
            assert_eq!(got, expect, "kill_at={kill_at}: exactly the budget lands");
        }
    }

    #[test]
    fn call_boundary_kill_rejects_the_killing_write() {
        let mut w = FaultyWriter::new(
            Vec::new(),
            9,
            WriteFaultConfig {
                kill_after: Some(CrashBudget::new(10)),
                torn_kill: false,
                ..Default::default()
            },
        );
        w.write_all(&[1u8; 8]).unwrap();
        // 2 bytes left in budget: a 4-byte write dies without landing
        // any of its bytes.
        let e = w.write_all(&[2u8; 4]).unwrap_err();
        assert!(is_injected_crash(&e));
        assert_eq!(w.into_inner(), vec![1u8; 8]);
    }

    #[test]
    fn shared_budget_kills_both_writers_together() {
        let budget = CrashBudget::new(6);
        let cfg = || WriteFaultConfig {
            kill_after: Some(budget.clone()),
            torn_kill: true,
            ..Default::default()
        };
        let mut a = FaultyWriter::new(Vec::new(), 1, cfg());
        let mut b = FaultyWriter::new(Vec::new(), 2, cfg());
        a.write_all(b"1234").unwrap(); // budget: 2 left
        let err = b.write_all(b"abcd").unwrap_err(); // torn after "ab"
        assert!(is_injected_crash(&err));
        // a's next write also dies: the shared budget is dry.
        assert_eq!(budget.remaining(), 0);
        assert!(a.write_all(b"x").is_err());
        assert_eq!(a.into_inner(), b"1234");
        assert_eq!(b.into_inner(), b"ab");
    }

    #[test]
    fn abort_hook_fires_exactly_once() {
        let fired = std::sync::Arc::new(AtomicU32::new(0));
        let fired2 = std::sync::Arc::clone(&fired);
        let mut w = FaultyWriter::new(
            Vec::new(),
            3,
            WriteFaultConfig {
                kill_after: Some(CrashBudget::new(2)),
                torn_kill: true,
                ..Default::default()
            },
        )
        .with_abort_hook(move || {
            fired2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        assert!(w.write_all(b"abcdef").is_err());
        assert!(w.write_all(b"more").is_err());
        assert!(w.flush().is_err());
        assert_eq!(fired.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    use std::sync::atomic::AtomicU32;

    #[test]
    fn bit_flipper_every_route_is_identical() {
        // The same plan applied in memory, through a writer, through a
        // reader, and to a file must corrupt byte-identically.
        let clean = data(2048);
        let flipper = BitFlipper::new(64, 2048, 12, 0xfeed);
        assert_eq!(flipper.plan().len(), 12);
        assert!(flipper.plan().windows(2).all(|w| w[0] < w[1]), "sorted, distinct");

        let mut in_memory = clean.clone();
        flipper.apply(&mut in_memory);
        let diff: u32 = in_memory
            .iter()
            .zip(&clean)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 12);

        // Writer route, in awkward chunk sizes.
        let mut w = flipper.clone().writer(Vec::new());
        for chunk in clean.chunks(37) {
            w.write_all(chunk).unwrap();
        }
        assert_eq!(w.into_inner(), in_memory);

        // Reader route.
        let mut r = flipper.clone().reader(Cursor::new(clean.clone()));
        let mut via_reader = Vec::new();
        r.read_to_end(&mut via_reader).unwrap();
        assert_eq!(via_reader, in_memory);

        // File route.
        let path = std::env::temp_dir().join(format!("bitflip-{}", std::process::id()));
        std::fs::write(&path, &clean).unwrap();
        flipper.apply_to_file(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), in_memory);
        let _ = std::fs::remove_file(&path);

        // Determinism: same (span, k, seed) → same plan; different seed
        // → different plan.
        assert_eq!(BitFlipper::new(64, 2048, 12, 0xfeed).plan(), flipper.plan());
        assert_ne!(BitFlipper::new(64, 2048, 12, 0xbeef).plan(), flipper.plan());
    }

    #[test]
    fn bit_flipper_seek_keeps_offsets_absolute() {
        let clean = data(1024);
        let flipper = BitFlipper::new(0, 1024, 9, 3);
        let mut expect = clean.clone();
        flipper.apply(&mut expect);

        let mut r = flipper.reader(Cursor::new(clean));
        let mut second = vec![0u8; 512];
        r.seek(SeekFrom::Start(512)).unwrap();
        r.read_exact(&mut second).unwrap();
        let mut first = vec![0u8; 512];
        r.seek(SeekFrom::Start(0)).unwrap();
        r.read_exact(&mut first).unwrap();
        first.extend_from_slice(&second);
        assert_eq!(first, expect, "flips must track absolute offsets across seeks");
    }

    #[test]
    fn bit_flipper_composes_with_crash_budget() {
        // SDC + crash in one run: the flipper corrupts in flight, the
        // budget kills the process partway. Bytes that land before the
        // kill carry the planned flips; nothing lands after.
        let budget = CrashBudget::new(300);
        let faulty = FaultyWriter::new(
            Vec::new(),
            1,
            WriteFaultConfig {
                kill_after: Some(budget),
                torn_kill: true,
                ..Default::default()
            },
        );
        let flipper = BitFlipper::new(0, 1000, 20, 55);
        let mut w = flipper.clone().writer(faulty);
        let err = w.write_all(&data(1000)).unwrap_err();
        assert!(is_injected_crash(&err));
        let landed = w.into_inner().into_inner();
        assert_eq!(landed.len(), 300);
        let mut expect = data(1000);
        flipper.apply(&mut expect);
        assert_eq!(landed, expect[..300].to_vec());
    }

    #[test]
    fn flip_bits_flips_exactly_k_distinct() {
        let mut buf = data(512);
        let clean = buf.clone();
        let flipped = flip_bits(&mut buf, 100, 8, 77);
        assert_eq!(flipped.len(), 8);
        let diff_bits: u32 = buf
            .iter()
            .zip(&clean)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff_bits, 8);
        assert!(flipped.iter().all(|&(b, _)| b >= 100));
        // Deterministic.
        let mut again = clean.clone();
        assert_eq!(flip_bits(&mut again, 100, 8, 77), flipped);
        assert_eq!(again, buf);
    }
}
