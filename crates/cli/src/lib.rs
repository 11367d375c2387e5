//! Library backing the `pastri` command-line tool.
//!
//! Subcommands (see [`run`]):
//!
//! * `compress`   — raw little-endian f64 file → PaSTRI container, or
//!   the ERI block store `serve` mounts when the output ends `.eristore`
//! * `decompress` — PaSTRI container → raw f64 file
//! * `inspect`    — print container metadata and per-block-kind census
//! * `verify`     — integrity-scan a container/stream/store; non-zero
//!   exit with a per-block damage report when anything is corrupt
//! * `scrub`      — classify damage as repairable/unrepairable; with
//!   `--repair`, heal it in place from the containers' parity sections
//! * `salvage`    — rewrite a damaged stream, repairing what parity
//!   covers and keeping intact segments
//! * `gen`        — generate an ERI dataset file (GAMESS stand-in)
//! * `assess`     — compare an original and a decompressed file
//! * `report`     — re-render a saved `--telemetry json` capture as the
//!   human-readable summary tree
//! * `serve`      — mount ERI stores behind the cache server and
//!   serve a batched block read, or expose them over the PTRF wire
//!   protocol with `--listen`
//! * `fetch`      — read blocks from a `serve --listen` endpoint with
//!   deadlines, bounded retry, and hedged replica failover
//! * `top`        — live dashboard over a serving endpoint: polls
//!   telemetry snapshots and prints rates, cache hit rate, latency
//!   percentiles, admission and journal state per tick
//! * `trace`      — merge telemetry JSON-lines exports from different
//!   processes into one Chrome trace joined on shared trace ids
//!
//! The argument parser is deliberately dependency-free: flags are
//! `--key value` pairs or bare `--switch`es after the subcommand, which
//! declares both once; any other `--name` is a usage error.

mod args;
mod commands;

use std::fmt;

/// CLI failure: message plus the process exit code to use.
///
/// Exit codes are part of the CLI contract (scripts gate on them):
///
/// * `0` — success, artifact clean
/// * `1` — I/O or usage error (missing file, bad flag, unknown format)
/// * `2` — corruption found in a recognized PaSTRI artifact
///   (`verify`/`decompress`/`inspect` hit damage, `scrub` could not
///   fully repair, `salvage` had to drop segments or met a damaged
///   stream header, or `soak` lost data / violated an SLO gate)
#[derive(Debug)]
pub struct CliError {
    pub message: String,
    pub code: i32,
}

impl CliError {
    /// An I/O or usage error (exit code 1).
    #[must_use]
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: 1,
        }
    }

    /// Damage found in a recognized artifact (exit code 2).
    #[must_use]
    pub(crate) fn corruption(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: 2,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::new(format!("I/O error: {e}"))
    }
}

/// Entry point shared by the binary and the tests: parses `argv` (without
/// the program name) and executes. Output goes to `out`.
pub fn run(argv: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(CliError::new(usage()));
    };
    match cmd.as_str() {
        "compress" => commands::compress(rest, out),
        "decompress" => commands::decompress(rest, out),
        "inspect" => commands::inspect(rest, out),
        "verify" => commands::verify(rest, out),
        "scrub" => commands::scrub(rest, out),
        "salvage" => commands::salvage(rest, out),
        "gen" => commands::generate(rest, out),
        "assess" => commands::assess(rest, out),
        "report" => commands::report(rest, out),
        "soak" => commands::soak_cmd(rest, out),
        "serve" => commands::serve(rest, out),
        "fetch" => commands::fetch(rest, out),
        "top" => commands::top(rest, out),
        "trace" => commands::trace_cmd(rest, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{}", usage())?;
            Ok(())
        }
        other => Err(CliError::new(format!(
            "unknown subcommand `{other}`\n{}",
            usage()
        ))),
    }
}

/// The top-level usage text.
#[must_use]
pub(crate) fn usage() -> &'static str {
    "pastri — error-bounded lossy compression for two-electron integrals

USAGE:
  pastri compress   <in.f64> <out.pastri> --config (dd|dd) --eb 1e-10
                    [--metric ER] [--tree 5] [--stream [--segment-blocks 64]
                    [--checkpoint-every 16] [--resume]]
  pastri compress   <in.f64> <out.eristore> --config (dd|dd) --eb 1e-10
  pastri decompress <in.pastri> <out.f64>
  pastri inspect    <in.pastri>
  pastri verify     <file>            (container, stream, or ERI store)
  pastri scrub      <file> [--repair] (heal damage in place from parity)
  pastri salvage    <in.pstrs> <out.pstrs>
  pastri gen        <out.f64> --molecule benzene --config (dd|dd)
                    [--blocks 100] [--seed 0] [--cluster 1] [--model]
  pastri assess     <original.f64> <decompressed.f64>
  pastri report     <telemetry.jsonl>
  pastri soak       <dir> [--seed 42] [--ops 120] [--stores 4] [--scale 12]
                    [--seconds S] [--bench-out BENCH_soak.json] [--keep]
                    [--transport [--overload] [--replicas N] [--clients N]
                     [--requests N] [--shed-every N] [--breaker-threshold N]
                     [--slo-max-shed-rate F] [--slo-queue-wait-p99-us N]
                     [--slo-max-breaker-opened N]]
  pastri serve      <store.eristore>... [--blocks 0,3,7-9] [--out raw.f64]
                    [--cache-mb 8]
                    [--listen (tcp:HOST:PORT|unix:PATH) [--serve-conns N]]
  pastri fetch      <endpoint> [--replica ENDPOINT]... [--blocks 0,3,7-9]
                    [--out raw.f64] [--deadline-ms 5000] [--attempt-ms 1000]
                    [--retries 8] [--seed N] [--stats]
  pastri top        <endpoint> [--interval-ms 1000] [--count N]
                    [--once] [--json] [--deadline-ms 2000]
  pastri trace      --merge <a.jsonl> <b.jsonl>... [--out merged.json]

FLAGS:
  --config   BF configuration, e.g. '(dd|dd)', '(ff|ff)', 'fdff'
  --eb       absolute error bound (default 1e-10)
  --metric   FR | ER | AR | AAR | IS        (default ER)
  --tree     1..5 or 'fixed'                (default 5)
  --molecule benzene | glutamine | alanine
  --cluster  tile N copies at 4.5 A (production-scale far-field mix)
  --model    use the fast Eq.-3 far-field model generator

TELEMETRY (compress, decompress, scrub, soak, serve, fetch):
  --telemetry <summary|json|chrome>  capture spans, counters, and stage
             timings for the run: `summary` prints a human-readable tree,
             `json` emits one JSON object per line (re-render later with
             `pastri report`), `chrome` emits a Chrome trace-event file
             (load in chrome://tracing or Perfetto).
  --telemetry-out FILE  write the capture to FILE instead of stdout.

DURABILITY (streamed compression and block stores):
  --stream writes durably: each batch of segments is sealed by a commit
  record inside <out> itself and made durable by one fsync; no other
  file is written. A .eristore output commits the same way, once.
  --checkpoint-every N   segments per durable batch (default 16)
  --resume               continue an interrupted --stream run: finds the
                         last verified commit, discards the torn tail,
                         skips the already-committed input, and finishes
                         byte-identical to an uninterrupted run. Pass
                         the same flags as the interrupted run.

SOAK (deterministic fault-storm harness with SLO gates):
  `pastri soak` runs a seeded mixed workload (reads with repair-on-read,
  container/stream/durable writes, scrubs, crash/resume) across many
  stores concurrently while injecting bit-flip SDC, torn-write kills,
  and transient read errors. For a fixed --seed and --ops budget the
  op/fault tallies are bit-identical at any thread count. At the end it
  verifies zero data loss and evaluates the configured SLO gates.
  --ops N / --seconds S       op-count or wall-clock budget
  --stores N / --scale N      concurrency and blocks-per-store knobs
  --read-weight --container-weight --stream-weight --crash-weight
  --scrub-weight              op-mix weights (default 6/1/2/1/2)
  --bit-flip-every N --flips-per-event K --torn-every N
  --transient-rate P          fault schedule (0 disables a class)
  --slo-read-p99-us N --slo-min-repair-success F
  --slo-max-quarantined N --slo-max-resident-values N   SLO gates
  --bench-out FILE            machine-readable report (BENCH_soak.json)

CACHE SERVER (`serve`):
  `pastri compress <in.f64> <out.eristore>` writes a block store: the
  input must hold whole --config blocks, compressed at default options
  (--metric, --tree, --stream, --resume, --segment-blocks and
  --checkpoint-every do not apply). `pastri serve` mounts
  one or more stores (shared geometry and error bound) as one global
  block index space, one reader per store shared by every thread, plus
  a byte-budgeted hot-block cache (--cache-mb), then serves the
  requested blocks in order (all blocks when --blocks is omitted);
  --out writes them as raw f64, byte-identical to compressing to a
  container and decompressing. Damaged blocks heal from parity on read
  and are counted as `repaired on read`.

REMOTE SERVING (`serve --listen` / `fetch`):
  `pastri serve --listen tcp:127.0.0.1:7421` (or `unix:/path.sock`)
  exposes the mounted server over the CRC32-framed PTRF protocol;
  `--serve-conns N` exits cleanly after N connections (one-shot jobs,
  tests). `pastri fetch tcp:HOST:PORT` reads blocks remotely under a
  whole-call deadline with bounded seeded-jitter retry; each extra
  `--replica` endpoint (serving the same dataset) joins the hedged
  failover rotation, so a dead or stalling replica costs one attempt,
  not the deadline. Corrupt frames or blocks that outlive the retry
  budget exit 2; unreachable endpoints and blown deadlines exit 1.

LIVE OBSERVABILITY (DESIGN §15):
  A `serve --listen` endpoint answers TelemetrySnapshot scrape
  frames (full counters, gauges, 32-bucket histograms, and the bounded
  event journal) admitted at priority >= 1, so scrapes survive
  overload. `pastri top <endpoint>` polls those snapshots and prints
  requests/s, cache hit rate, read p50/p99, in-flight, shed rate, and
  drain state per tick (`--once --json` for scripts). Every `fetch`
  carries a seeded trace id on the wire; the server adopts it into its
  own spans, and `pastri trace --merge client.jsonl server.jsonl`
  joins the two exports into one cross-process Chrome timeline.

OVERLOAD PROTECTION (DESIGN §14):
  The server admits requests through a permit budget (global, per-conn,
  and response-bytes); a request whose estimated queue wait exceeds its
  carried deadline budget is shed *immediately* with an `Overloaded`
  frame carrying a retry-after hint — never a silent timeout. The
  client treats `Overloaded` as a backoff signal (exit 1, distinct from
  frame corruption's exit 2) and runs a per-endpoint circuit breaker
  (open -> half-open probe -> close) that steers hedged failover away
  from saturated replicas. `fetch --stats` prints both sides: the
  server's books (requests, blocks, store reads, retries, repairs,
  cache hits, admitted/shed/refused-draining), read from one telemetry
  scrape, and the client's breaker transitions, so shed-at-server is
  distinguishable from failed-at-client. `pastri soak
  <dir> --transport --overload` drives a seeded overload storm (forced
  sheds + slow handlers, pure function of --seed) and gates on shed
  rate, queue-wait p99, and breaker-transition counts; the run ends in
  a graceful drain whose books prove no admitted request was dropped.

SELF-HEALING:
  Containers carry Reed-Solomon parity by default (v3): up to 2 damaged
  blocks per group of 8 rebuild bit-exact. `verify` classifies damage as
  repairable/unrepairable; `scrub --repair` heals repairable damage in
  place (atomic rewrite), quarantining the damaged original at
  <file>.quarantine when anything is beyond the parity budget.

EXIT CODES:
  0  success / artifact clean / scrub fully repaired in place
  1  I/O or usage error (missing file, bad flag, unknown format)
  2  corruption found (verify found damage; decompress hit damage in a
     recognized artifact; scrub could not fully repair, or found damage
     without --repair; salvage dropped data or met a damaged stream
     header; soak lost data or violated
     an SLO gate; serve hit a block beyond the parity
     budget; fetch saw corrupt frames or blocks past the retry budget)"
}
