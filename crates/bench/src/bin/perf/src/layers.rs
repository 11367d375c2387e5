//! Per-layer metrics of a trace run.
//!
//! A trace run enables the program's own telemetry recorder (DESIGN
//! §10 names) around the timed calls and adds timings taken from
//! outside the public calls. No span is added inside the program.
//! Wire bytes come from a byte-counting relay between a client and the
//! server socket.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::thread::JoinHandle;

use telemetry::{HistRec, RecKind};

use crate::stats::{median, percentile};
use crate::Metric;

/// Spans whose individual durations are kept (the rest are summed).
const KEEP_DURATIONS: [&str; 2] = ["rpc.request", "server.batch"];

#[derive(Default)]
struct SpanTotals {
    /// Duration minus the time covered by child spans.
    self_ns: u64,
    durations_ns: Vec<u64>,
}

/// Everything the recorder saw during the traced phase, accumulated
/// across drains so the span buffer never fills.
#[derive(Default)]
pub struct Recorded {
    spans: BTreeMap<String, SpanTotals>,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, HistRec>,
    spans_dropped: u64,
}

impl Recorded {
    /// Clears and enables the process-global recorder.
    pub fn start() -> Self {
        telemetry::reset();
        telemetry::set_enabled(true);
        Recorded::default()
    }

    /// Moves the recorder's contents into this accumulator. Called
    /// between operations, when no span is open.
    pub fn drain(&mut self) {
        let snap = telemetry::snapshot();
        telemetry::reset();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &snap.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.dur_ns;
            }
        }
        for s in snap.spans.iter().filter(|s| s.kind == RecKind::Span) {
            let t = self.spans.entry(s.name.clone()).or_default();
            t.self_ns += s
                .dur_ns
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            if KEEP_DURATIONS.contains(&s.name.as_str()) {
                t.durations_ns.push(s.dur_ns);
            }
        }
        for c in snap.counters {
            *self.counters.entry(c.name).or_default() += c.value;
        }
        for h in snap.histograms {
            match self.hists.get_mut(&h.name) {
                None => {
                    self.hists.insert(h.name.clone(), h);
                }
                Some(acc) => {
                    if h.count > 0 {
                        acc.min = if acc.count == 0 {
                            h.min
                        } else {
                            acc.min.min(h.min)
                        };
                        acc.max = acc.max.max(h.max);
                    }
                    acc.count += h.count;
                    acc.sum += h.sum;
                    for (a, b) in acc.buckets.iter_mut().zip(&h.buckets) {
                        *a += b;
                    }
                }
            }
        }
        self.spans_dropped += snap.spans_dropped;
    }

    /// Disables the recorder and takes what is left in it.
    pub fn finish(mut self) -> Self {
        telemetry::set_enabled(false);
        self.drain();
        self
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn self_ns(&self, span: &str) -> f64 {
        self.spans.get(span).map_or(0.0, |t| t.self_ns as f64)
    }

    fn median_us(&self, span: &str) -> f64 {
        self.spans.get(span).map_or(0.0, |t| {
            let d: Vec<f64> = t.durations_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
            median(&d)
        })
    }

    fn hist_us(&self, name: &str, q: f64) -> f64 {
        self.hists
            .get(name)
            .and_then(|h| h.percentile_us(q))
            .unwrap_or(0) as f64
    }

    fn hist_sum_us(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |h| h.sum as f64)
    }
}

/// Byte counts of a container set, from `pastri::inspect`.
#[derive(Default, Clone, Copy)]
pub struct Format {
    pub values: u64,
    pub containers: u64,
    pub container_bytes: u64,
    pub payload_bytes: u64,
    pub parity_bytes: u64,
    /// Bytes at rest: the store file, or the containers themselves.
    pub stored_bytes: u64,
}

impl Format {
    pub fn add(&mut self, container: &[u8]) -> Result<(), String> {
        let info = pastri::inspect(container).map_err(|e| format!("inspect: {e}"))?;
        self.values += info.original_len as u64;
        self.containers += 1;
        self.container_bytes += container.len() as u64;
        self.payload_bytes += info.payload_bytes;
        self.parity_bytes += info.parity_bytes;
        Ok(())
    }
}

/// What the workload measured from outside during a trace run. Fields a
/// workload does not touch stay zero, and so do the metrics built on them.
#[derive(Default)]
pub struct Facts {
    /// Time spent inside durable store writes.
    pub write_s: f64,
    pub values_compressed: u64,
    pub values_decoded: u64,
    pub bytes_ingested: u64,
    pub blocks_appended: u64,
    pub append_ns: u64,
    /// Direct `StoreReader::read_block` times, in store order.
    pub read_block_ns: Vec<u64>,
    pub format: Format,
    pub requests: u64,
    /// Client-side request times of the traced phase.
    pub request_ns: Vec<u64>,
    pub cache_high_water_bytes: u64,
    pub wire_bytes: u64,
    pub wire_values: u64,
    /// Median op time traced over untraced, as a percentage change.
    pub trace_overhead_pct: f64,
    /// Median host slowness during the traced phase.
    pub host_slowness: f64,
}

fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, in the order BENCHMARK.json lists them.
pub fn metrics(rec: &Recorded, f: &Facts) -> Vec<Metric> {
    let compressed = f.values_compressed as f64;
    let hits = rec.counter("cache.hits") as f64;
    let lookups = hits + rec.counter("cache.misses") as f64;
    let rpc_request_p50 = rec.median_us("rpc.request");
    let request_p50 = percentile(&f.request_ns, 0.5) / 1e3;
    let m = Metric::new;
    vec![
        m(
            "pastri.pattern_select.ns_per_value",
            "ns/value",
            per(rec.self_ns("compress.pattern_select"), compressed),
        ),
        m(
            "pastri.quantize.ns_per_value",
            "ns/value",
            per(rec.self_ns("compress.quantize"), compressed),
        ),
        m(
            "pastri.ecq_encode.ns_per_value",
            "ns/value",
            per(rec.self_ns("compress.ecq_encode"), compressed),
        ),
        m(
            "pastri.assemble.ns_per_value",
            "ns/value",
            per(rec.self_ns("container.assemble"), compressed),
        ),
        m(
            "pastri.decode.ns_per_value",
            "ns/value",
            per(rec.self_ns("decompress.container"), f.values_decoded as f64),
        ),
        m(
            "pastri.payload_bits_per_value",
            "bits/value",
            per(f.format.payload_bytes as f64 * 8.0, f.format.values as f64),
        ),
        m(
            "parity.bytes_pct",
            "%",
            per(
                f.format.parity_bytes as f64 * 100.0,
                f.format.stored_bytes as f64,
            ),
        ),
        m(
            "durable.fsyncs_per_mb",
            "1/MB",
            per(
                rec.counter("durable.fsyncs") as f64,
                f.bytes_ingested as f64 / 1e6,
            ),
        ),
        m(
            "durable.fsync_us.p50",
            "us",
            rec.hist_us("durable.fsync_us", 0.50),
        ),
        m(
            "durable.fsync_us.p99",
            "us",
            rec.hist_us("durable.fsync_us", 0.99),
        ),
        m(
            "durable.fsync_busy_pct",
            "%",
            per(rec.hist_sum_us("durable.fsync_us") * 100.0, f.write_s * 1e6),
        ),
        m(
            "store.append.us_per_block",
            "us",
            per(f.append_ns as f64 / 1e3, f.blocks_appended as f64),
        ),
        m(
            "store.read_block.us_p50",
            "us",
            percentile(&f.read_block_ns, 0.5) / 1e3,
        ),
        m(
            "store.bytes_read_per_block",
            "bytes",
            // Only the store workloads read from a store.
            if f.read_block_ns.is_empty() {
                0.0
            } else {
                per(f.format.container_bytes as f64, f.format.containers as f64)
            },
        ),
        m("cache.hit_rate", "fraction", per(hits, lookups)),
        m("cache.lookups", "count", lookups),
        m(
            "cache.evictions_per_request",
            "1/request",
            per(rec.counter("cache.evictions") as f64, f.requests as f64),
        ),
        m(
            "cache.bytes_high_water",
            "MB",
            f.cache_high_water_bytes as f64 / 1e6,
        ),
        m(
            "server.miss_us.p50",
            "us",
            rec.hist_us("server.miss_us", 0.50),
        ),
        m(
            "server.miss_us.p99",
            "us",
            rec.hist_us("server.miss_us", 0.99),
        ),
        m(
            "server.read_us.p50",
            "us",
            rec.hist_us("server.read_us", 0.50),
        ),
        m("server.batch.us_p50", "us", rec.median_us("server.batch")),
        m(
            "server.queue_wait_us.p99",
            "us",
            rec.hist_us("server.queue_wait_us", 0.99),
        ),
        m("server.shed", "count", rec.counter("server.shed") as f64),
        m("rpc.request.us_p50", "us", rpc_request_p50),
        m("rpc.rtt_us.p50", "us", rec.hist_us("rpc.rtt_us", 0.50)),
        m("rpc.rtt_us.p99", "us", rec.hist_us("rpc.rtt_us", 0.99)),
        m(
            "transport.overhead_us_p50",
            "us",
            if f.requests > 0 {
                request_p50 - rpc_request_p50
            } else {
                0.0
            },
        ),
        m(
            "wire.bytes_per_value",
            "bytes/value",
            per(f.wire_bytes as f64, f.wire_values as f64),
        ),
        m("rpc.retries", "count", rec.counter("rpc.retries") as f64),
        m(
            "rpc.frame_errors",
            "count",
            rec.counter("rpc.frame_errors") as f64,
        ),
        m(
            "rpc.deadline_exceeded",
            "count",
            rec.counter("rpc.deadline_exceeded") as f64,
        ),
        m("telemetry.spans_dropped", "count", rec.spans_dropped as f64),
        m("trace_overhead_pct", "%", f.trace_overhead_pct),
        m("host.slowness", "x", f.host_slowness),
    ]
}

/// Forwards one connection from `listen` to the server at `upstream`,
/// counting the bytes that cross in both directions. The thread ends
/// when the client hangs up and the server has closed its side.
pub fn relay(listen: &Path, upstream: &Path) -> io::Result<JoinHandle<io::Result<u64>>> {
    let listener = UnixListener::bind(listen)?;
    let upstream = upstream.to_path_buf();
    Ok(std::thread::spawn(move || {
        let (mut down, _) = listener.accept()?;
        let mut up = UnixStream::connect(&upstream)?;
        let (mut down_rx, mut up_tx) = (down.try_clone()?, up.try_clone()?);
        std::thread::scope(|s| {
            let to_server = s.spawn(move || {
                let n = io::copy(&mut down_rx, &mut up_tx);
                let _ = up_tx.shutdown(Shutdown::Write);
                n
            });
            let to_client = io::copy(&mut up, &mut down);
            let _ = down.shutdown(Shutdown::Write);
            let to_server = to_server.join().expect("relay thread panicked");
            Ok(to_server? + to_client?)
        })
    }))
}
