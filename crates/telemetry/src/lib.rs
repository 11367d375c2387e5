//! Process-global observability runtime for the PaSTRI stack.
//!
//! The paper's whole evaluation (Sec. V) is measurement: per-stage
//! timing, storage breakdowns, parallel scaling. This crate is the
//! measurement layer the reproduction records those numbers with —
//! dependency-free (the build environment has no crates.io access,
//! same constraint as `parity` and `durable`), built from `std`
//! atomics, a monotonic clock, and nothing else.
//!
//! Three primitives:
//!
//! * **Spans** — [`span`] returns a guard that records a wall-time
//!   interval on drop, nested under the innermost open span *on the
//!   same thread* (worker threads start their own span roots; the
//!   summary exporter merges same-named trees, so a parallel compress
//!   still reads as one tree). [`event`] records a zero-length instant.
//! * **Counters / gauges** — [`counter_add`] is a lock-free sharded
//!   monotonic counter (8 cache-padded shards per counter, summed at
//!   snapshot time, so hot-path increments from many threads do not
//!   bounce one cache line). [`gauge_add`]/[`gauge_set`] track a signed
//!   level plus its high-water mark (queue depths).
//! * **Histograms** — [`observe_us`] records into fixed power-of-two
//!   microsecond buckets plus count/sum/min/max (fsync latency).
//!
//! Everything hangs off one global recorder that is **disabled by
//! default**: every instrumentation entry point first does a single
//! relaxed atomic load and returns an inert guard / no-ops when off, so
//! instrumented hot paths cost ~one predictable branch in production
//! (the CI `telemetry` job holds this to <2% of per-block compress
//! time). Enable with [`set_enabled`], harvest with [`snapshot`], and
//! render with the [`export`] module (human tree summary, line-oriented
//! JSON, Chrome `chrome://tracing` trace events). Instrumentation never
//! touches the data path: compressed output is byte-identical whether
//! telemetry is on or off.
//!
//! Names passed to the entry points are `&'static str` by design: the
//! span and counter names are a stable contract (documented in
//! DESIGN.md) that tests and dashboards key on. Unknown names are fine
//! — they intern into a lock-free table on first use — but renaming a
//! documented one is a breaking change.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod export;
pub mod json;

// ---------------------------------------------------------------------------
// Global enable switch + monotonic epoch
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is the global recorder on? One relaxed atomic load — this is the
/// entire cost every instrumentation site pays when telemetry is off.
#[inline]
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the global recorder on or off. Spans opened while enabled
/// still record on drop after a disable; sites checked while disabled
/// simply skip. Enabling pins the monotonic epoch on first use.
pub fn set_enabled(on: bool) {
    if on {
        let _ = epoch(); // pin t=0 before the first span can read it
    }
    ENABLED.store(on, Ordering::SeqCst);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Per-thread identity
// ---------------------------------------------------------------------------

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_IDX: Cell<Option<u32>> = const { Cell::new(None) };
    /// Stack of open span ids on this thread — the top is the parent of
    /// the next span or event started here.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn thread_idx() -> u32 {
    THREAD_IDX.with(|c| match c.get() {
        Some(i) => i,
        None => {
            let i = u32::try_from(NEXT_THREAD.fetch_add(1, Ordering::Relaxed) & 0xffff_ffff)
                .unwrap_or(0);
            c.set(Some(i));
            i
        }
    })
}

// ---------------------------------------------------------------------------
// Trace context: seeded cross-process request correlation
// ---------------------------------------------------------------------------

/// A request's cross-process correlation identity: the 64-bit trace id
/// travels with the request over the wire (in every PTRF ReadRequest
/// frame) so the server's spans for that request carry the same id as
/// the client's; `span_id` identifies the client-side span that issued
/// the request. Both are non-zero — 0 everywhere means "untraced".
///
/// Ids are a pure function of a session seed and a per-process request
/// counter ([`trace_ids`]) — no clocks, no ambient entropy — so a
/// seeded run produces the same id sequence on every repeat and at any
/// thread count, which is what the trace-determinism tests and
/// BENCH_obs.json hold the stack to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Request-scoped correlation id shared by every process that
    /// touches the request.
    pub trace_id: u64,
    /// Id of the span that originated the request (client side).
    pub span_id: u64,
}

/// splitmix64: the stateless mixer behind trace ids here and, re-exported
/// as `durable::retry::splitmix64`, the repo's fault and workload seeding.
/// It lives in this crate because `telemetry` is dependency-free by design.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Pure trace/span id derivation: the `n`-th trace minted under `seed`.
/// Deterministic and collision-resistant enough for correlation (ids
/// are forced non-zero so they never collide with "untraced").
#[must_use]
pub fn trace_ids(seed: u64, n: u64) -> TraceContext {
    let mut trace_id = splitmix64(seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    if trace_id == 0 {
        trace_id = 0x7061_5374_7269; // "paStri", never naturally minted
    }
    let mut span_id = splitmix64(trace_id ^ 0x6f62_735f_7370_616e);
    if span_id == 0 {
        span_id = 1;
    }
    TraceContext { trace_id, span_id }
}

static TRACE_SEED: AtomicU64 = AtomicU64::new(0);
static TRACE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Seeds the trace-id generator and resets its request counter, so the
/// next [`new_trace`] is trace 0 of `seed`. The CLI calls this with the
/// run's `--seed` before issuing requests.
pub fn set_trace_seed(seed: u64) {
    TRACE_SEED.store(seed, Ordering::SeqCst);
    TRACE_COUNTER.store(0, Ordering::SeqCst);
}

/// Mints the next trace context under the current seed (seed 0 until
/// [`set_trace_seed`] is called — still deterministic, just a fixed
/// default stream).
#[must_use]
pub fn new_trace() -> TraceContext {
    let seed = TRACE_SEED.load(Ordering::Relaxed);
    let n = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed);
    trace_ids(seed, n)
}

thread_local! {
    /// The trace context every span/event/journal entry recorded on
    /// this thread is stamped with.
    static CURRENT_TRACE: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// The trace context currently installed on this thread, if any.
#[must_use]
pub fn current_trace() -> Option<TraceContext> {
    CURRENT_TRACE.with(Cell::get)
}

/// Installs `ctx` as this thread's current trace until the returned
/// guard drops (the previous context, if any, is restored). The server
/// transport wraps request handling in this so every span recorded
/// while serving carries the client's trace id. Works whether or not
/// the recorder is enabled — adoption must not depend on local state.
#[must_use = "the trace context is uninstalled when this guard drops"]
pub fn push_trace(ctx: TraceContext) -> TraceGuard {
    let prev = CURRENT_TRACE.with(|c| c.replace(Some(ctx)));
    TraceGuard { prev }
}

/// RAII handle restoring the previously-installed trace context; see
/// [`push_trace`].
pub struct TraceGuard {
    prev: Option<TraceContext>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT_TRACE.with(|c| c.set(prev));
    }
}

fn current_trace_id() -> u64 {
    CURRENT_TRACE.with(Cell::get).map_or(0, |t| t.trace_id)
}

// ---------------------------------------------------------------------------
// Lock-free name-interning table
// ---------------------------------------------------------------------------

/// Number of value shards per counter. Eight padded cache lines keeps
/// concurrent increments from different threads off each other's line
/// without bloating the table.
const SHARDS: usize = 8;
const TABLE_CAP: usize = 256; // power of two; far above the ~40 contract names

struct Entry<V> {
    name: &'static str,
    value: V,
}

/// Open-addressed hash table of `name → value` where insertion is a
/// single CAS on the slot pointer and lookups are acquire loads: no
/// locks anywhere on the metric hot path. Entries are leaked on insert
/// (they live for the process — `reset` zeroes values in place).
struct Table<V> {
    slots: [AtomicPtr<Entry<V>>; TABLE_CAP],
}

impl<V: Default> Table<V> {
    const fn new() -> Self {
        Self {
            slots: [const { AtomicPtr::new(ptr::null_mut()) }; TABLE_CAP],
        }
    }

    /// Finds `name`'s entry, inserting a default-valued one on first
    /// use. Returns `None` only if the table is full (collisions wrapped
    /// all the way around), which drops the metric rather than blocking.
    fn intern(&self, name: &'static str) -> Option<&V> {
        let mut i = fnv1a(name.as_bytes()) as usize & (TABLE_CAP - 1);
        for _ in 0..TABLE_CAP {
            let p = self.slots[i].load(Ordering::Acquire);
            if p.is_null() {
                let fresh = Box::into_raw(Box::new(Entry {
                    name,
                    value: V::default(),
                }));
                match self.slots[i].compare_exchange(
                    ptr::null_mut(),
                    fresh,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    // We published the entry; it is immortal from here.
                    Ok(_) => return Some(unsafe { &(*fresh).value }),
                    Err(winner) => {
                        // Someone beat us to the slot: free our copy and
                        // fall through to inspect theirs.
                        drop(unsafe { Box::from_raw(fresh) });
                        let e = unsafe { &*winner };
                        if e.name == name {
                            return Some(&e.value);
                        }
                    }
                }
            } else {
                let e = unsafe { &*p };
                if e.name == name {
                    return Some(&e.value);
                }
            }
            i = (i + 1) & (TABLE_CAP - 1);
        }
        None
    }

    /// All live entries, in slot order.
    fn iter(&self) -> impl Iterator<Item = (&'static str, &V)> + '_ {
        self.slots.iter().filter_map(|s| {
            let p = s.load(Ordering::Acquire);
            if p.is_null() {
                None
            } else {
                let e = unsafe { &*p };
                Some((e.name, &e.value))
            }
        })
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Metric value types
// ---------------------------------------------------------------------------

/// One cache line per shard so concurrent adders don't false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

#[derive(Default)]
struct CounterVal {
    shards: [PaddedU64; SHARDS],
}

impl CounterVal {
    fn add(&self, delta: u64) {
        let shard = thread_idx() as usize % SHARDS;
        self.shards[shard].0.fetch_add(delta, Ordering::Relaxed);
    }

    fn sum(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    fn zero(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

#[derive(Default)]
struct GaugeVal {
    value: AtomicI64,
    max: AtomicI64,
}

impl GaugeVal {
    fn add(&self, delta: i64) {
        let new = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.max.fetch_max(new, Ordering::Relaxed);
    }

    fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn zero(&self) {
        self.value.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Power-of-two buckets: bucket 0 is `0 µs`, bucket i ≥ 1 holds values
/// in `[2^(i-1), 2^i)` µs, the last bucket is open-ended.
pub(crate) const HIST_BUCKETS: usize = 32;

struct HistVal {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for HistVal {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }
}

impl HistVal {
    fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    fn zero(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Bucket index for a microsecond value (shared with exporters so the
/// rendered bounds match the recorded ones).
#[must_use]
pub(crate) fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive-exclusive microsecond bounds of bucket `i`.
#[must_use]
pub(crate) fn bucket_bounds(i: usize) -> (u64, Option<u64>) {
    match i {
        0 => (0, Some(1)),
        _ if i == HIST_BUCKETS - 1 => (1 << (i - 1), None),
        _ => (1 << (i - 1), Some(1 << i)),
    }
}

static COUNTERS: Table<CounterVal> = Table::new();
static GAUGES: Table<GaugeVal> = Table::new();
static HISTS: Table<HistVal> = Table::new();

// ---------------------------------------------------------------------------
// Span storage
// ---------------------------------------------------------------------------

/// Default cap on buffered span/event records; beyond the effective cap
/// ([`span_capacity`]) new records are counted in
/// [`Snapshot::spans_dropped`] instead of stored, so a pathological run
/// cannot eat unbounded memory. Override with the `PASTRI_TELEMETRY_CAP`
/// environment variable.
pub(crate) const SPAN_CAP: usize = 100_000;
const SPAN_SHARDS: usize = 8;

/// The effective span-record cap: `PASTRI_TELEMETRY_CAP` from the
/// environment (read once), else `SPAN_CAP` (100 000).
#[must_use]
pub fn span_capacity() -> usize {
    static ENV_CAP: OnceLock<Option<usize>> = OnceLock::new();
    ENV_CAP
        .get_or_init(|| {
            std::env::var("PASTRI_TELEMETRY_CAP")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
        })
        .unwrap_or(SPAN_CAP)
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static SPAN_COUNT: AtomicUsize = AtomicUsize::new(0);
static SPANS_DROPPED: AtomicU64 = AtomicU64::new(0);

/// Span vs zero-length instant event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecKind {
    /// A wall-time interval.
    Span,
    /// A point-in-time marker.
    Event,
}

struct Rec {
    id: u64,
    parent: u64,
    name: &'static str,
    tid: u32,
    start_ns: u64,
    dur_ns: u64,
    kind: RecKind,
    trace: u64,
}

fn span_shards() -> &'static [Mutex<Vec<Rec>>; SPAN_SHARDS] {
    static SHARDED: OnceLock<[Mutex<Vec<Rec>>; SPAN_SHARDS]> = OnceLock::new();
    SHARDED.get_or_init(|| std::array::from_fn(|_| Mutex::new(Vec::new())))
}

fn push_rec(rec: Rec) {
    if SPAN_COUNT.fetch_add(1, Ordering::Relaxed) >= span_capacity() {
        SPAN_COUNT.fetch_sub(1, Ordering::Relaxed);
        SPANS_DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let shard = thread_idx() as usize % SPAN_SHARDS;
    span_shards()[shard]
        .lock()
        .expect("span shard poisoned")
        .push(rec);
}

// ---------------------------------------------------------------------------
// Public recording API
// ---------------------------------------------------------------------------

/// Opens a span named `name`, nested under the innermost open span on
/// this thread. The interval is recorded when the returned guard drops.
/// When the recorder is disabled this returns an inert guard without
/// reading the clock.
#[must_use = "the span ends (and records) when this guard drops"]
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { open: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    SpanGuard {
        open: Some(OpenSpan {
            id,
            parent,
            name,
            start_ns: now_ns(),
            trace: current_trace_id(),
        }),
    }
}

struct OpenSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    trace: u64,
}

/// RAII handle for an open span; see [`span`].
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end = now_ns();
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // LIFO in the normal case; scan defensively so a guard moved
            // across an unusual drop order can't corrupt the stack.
            if s.last() == Some(&open.id) {
                s.pop();
            } else if let Some(at) = s.iter().rposition(|&x| x == open.id) {
                s.remove(at);
            }
        });
        push_rec(Rec {
            id: open.id,
            parent: open.parent,
            name: open.name,
            tid: thread_idx(),
            start_ns: open.start_ns,
            dur_ns: end.saturating_sub(open.start_ns),
            kind: RecKind::Span,
            trace: open.trace,
        });
    }
}

/// Records a zero-length instant event under the innermost open span on
/// this thread (e.g. a watchdog fire or an injected crash).
pub fn event(name: &'static str) {
    if !is_enabled() {
        return;
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    push_rec(Rec {
        id,
        parent,
        name,
        tid: thread_idx(),
        start_ns: now_ns(),
        dur_ns: 0,
        kind: RecKind::Event,
        trace: current_trace_id(),
    });
}

/// Adds `delta` to the monotonic counter `name` (lock-free, sharded).
pub fn counter_add(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    if let Some(c) = COUNTERS.intern(name) {
        c.add(delta);
    }
}

/// Moves the signed gauge `name` by `delta`, tracking its high-water
/// mark (use +1/−1 around a queue for live depth + max depth).
pub fn gauge_add(name: &'static str, delta: i64) {
    if !is_enabled() {
        return;
    }
    if let Some(g) = GAUGES.intern(name) {
        g.add(delta);
    }
}

/// Sets the gauge `name` to an absolute level.
pub fn gauge_set(name: &'static str, value: i64) {
    if !is_enabled() {
        return;
    }
    if let Some(g) = GAUGES.intern(name) {
        g.set(value);
    }
}

/// Records a microsecond observation into the fixed-bucket histogram
/// `name`.
pub fn observe_us(name: &'static str, micros: u64) {
    if !is_enabled() {
        return;
    }
    if let Some(h) = HISTS.intern(name) {
        h.observe(micros);
    }
}

// ---------------------------------------------------------------------------
// Structured event journal
// ---------------------------------------------------------------------------

/// Fixed capacity of the structured event journal: a ring of the most
/// recent operational events (sheds, breaker transitions, retries,
/// repairs, slow requests). When full, the *oldest* entry is dropped
/// and counted per kind in [`Snapshot::events_dropped`] — `top` and
/// `report` always see the newest events plus an honest account of what
/// scrolled off.
pub(crate) const JOURNAL_CAP: usize = 1024;

static JOURNAL_SEQ: AtomicU64 = AtomicU64::new(0);
static JOURNAL_DROPS: Table<CounterVal> = Table::new();

struct JEntry {
    seq: u64,
    t_ns: u64,
    trace: u64,
    kind: &'static str,
    a: u64,
    b: u64,
}

fn journal_ring() -> &'static Mutex<VecDeque<JEntry>> {
    static RING: OnceLock<Mutex<VecDeque<JEntry>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(JOURNAL_CAP)))
}

/// Appends a structured event to the bounded journal, stamped with this
/// thread's current trace id. `kind` is a stable-contract name (e.g.
/// `shed.queue_full`, `breaker.open`, `rpc.retry`, `store.repair`);
/// `a`/`b` are kind-specific payload words (block id, attempt number,
/// microseconds — documented per kind in DESIGN.md). No-op while the
/// recorder is disabled.
pub fn journal(kind: &'static str, a: u64, b: u64) {
    if !is_enabled() {
        return;
    }
    let entry = JEntry {
        seq: JOURNAL_SEQ.fetch_add(1, Ordering::Relaxed),
        t_ns: now_ns(),
        trace: current_trace_id(),
        kind,
        a,
        b,
    };
    let mut ring = journal_ring().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if ring.len() >= JOURNAL_CAP {
        if let Some(old) = ring.pop_front() {
            if let Some(c) = JOURNAL_DROPS.intern(old.kind) {
                c.add(1);
            }
        }
    }
    ring.push_back(entry);
}

/// Clears every recorded value: counters/gauges/histograms zero in
/// place, span buffers empty, journal ring empty, drop tallies reset.
/// Interned names stay registered (they are process-immortal). Callers
/// own serialization — the CLI resets once at startup; concurrent tests
/// that enable telemetry must hold a shared lock around reset+assert.
pub fn reset() {
    for (_, c) in COUNTERS.iter() {
        c.zero();
    }
    for (_, g) in GAUGES.iter() {
        g.zero();
    }
    for (_, h) in HISTS.iter() {
        h.zero();
    }
    for shard in span_shards() {
        shard.lock().expect("span shard poisoned").clear();
    }
    SPAN_COUNT.store(0, Ordering::Relaxed);
    SPANS_DROPPED.store(0, Ordering::Relaxed);
    journal_ring()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
    JOURNAL_SEQ.store(0, Ordering::Relaxed);
    for (_, c) in JOURNAL_DROPS.iter() {
        c.zero();
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// One recorded span or event.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Unique id (process-global, never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for a root.
    pub parent: u64,
    /// Span name (stable-contract taxonomy).
    pub name: String,
    /// Recording thread's small integer id.
    pub tid: u32,
    /// Nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Wall duration in nanoseconds (0 for events).
    pub dur_ns: u64,
    /// Span or instant event.
    pub kind: RecKind,
    /// Trace id installed on the recording thread when the span opened
    /// (0 = untraced). Shared across processes by the wire protocol —
    /// this is the join key `pastri trace --merge` correlates on.
    pub trace: u64,
}

/// One structured journal event (see [`journal`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRec {
    /// Monotonic sequence number (gaps mean nothing was lost — drops
    /// are counted separately; seq is assigned before ring admission).
    pub seq: u64,
    /// Nanoseconds since the recorder epoch.
    pub t_ns: u64,
    /// Trace id current on the recording thread (0 = untraced).
    pub trace: u64,
    /// Stable-contract event kind.
    pub kind: String,
    /// First kind-specific payload word.
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
}

/// A counter's name and summed value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRec {
    /// Counter name.
    pub name: String,
    /// Sum across shards.
    pub value: u64,
}

/// A gauge's name, current level, and high-water mark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeRec {
    /// Gauge name.
    pub name: String,
    /// Current level.
    pub value: i64,
    /// Highest level seen since reset.
    pub max: i64,
}

/// A histogram's aggregates and bucket counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistRec {
    /// Histogram name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations (µs).
    pub sum: u64,
    /// Smallest observation (µs); meaningless when `count == 0`.
    pub min: u64,
    /// Largest observation (µs).
    pub max: u64,
    /// Per-bucket counts: bucket 0 holds 0 µs, bucket `i ≥ 1` holds
    /// `[2^(i-1), 2^i)` µs, and the last bucket is open-ended.
    pub buckets: Vec<u64>,
}

impl HistRec {
    /// A histogram of `samples` (µs), bucketed exactly as
    /// [`observe_us`] buckets them — for callers that keep their own
    /// samples and want the recorder's percentile semantics without
    /// depending on the process-wide recorder.
    #[must_use]
    pub fn of_samples(name: &str, samples: &[u64]) -> Self {
        let mut buckets = vec![0u64; HIST_BUCKETS];
        for &v in samples {
            buckets[bucket_of(v)] += 1;
        }
        HistRec {
            name: name.to_string(),
            count: samples.len() as u64,
            sum: samples.iter().sum(),
            min: samples.iter().copied().min().unwrap_or(0),
            max: samples.iter().copied().max().unwrap_or(0),
            buckets,
        }
    }

    /// The value at or below which a fraction `q` of observations fall,
    /// resolved to the histogram's bucket upper bounds (clamped to the
    /// observed max, which is exact). Returns `None` for an empty
    /// histogram. This is the latency-SLO primitive both the soak and
    /// cache-server reports derive p50/p99 from.
    #[must_use]
    pub fn percentile_us(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, upper) = bucket_bounds(i);
                return Some(upper.map_or(self.max, |u| u.min(self.max)));
            }
        }
        Some(self.max)
    }
}

/// A point-in-time copy of everything the recorder holds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Recorded spans and events, sorted by start time.
    pub spans: Vec<SpanRec>,
    /// Counters, sorted by name.
    pub counters: Vec<CounterRec>,
    /// Gauges, sorted by name.
    pub gauges: Vec<GaugeRec>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistRec>,
    /// Spans/events discarded after the [`span_capacity`] buffer filled.
    pub spans_dropped: u64,
    /// Journal events still in the ring, oldest first.
    pub events: Vec<JournalRec>,
    /// Per-kind counts of journal events dropped at `JOURNAL_CAP` (1024),
    /// sorted by kind.
    pub events_dropped: Vec<CounterRec>,
}

impl Snapshot {
    /// The summed value of counter `name`, or 0 if never touched.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// All spans/events with the given name.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRec> {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

/// Copies out the recorder's current contents. Does not clear anything;
/// pair with [`reset`] when a fresh window is wanted. Cheap enough to
/// call once per CLI run, not meant for hot loops.
#[must_use]
pub fn snapshot() -> Snapshot {
    let mut spans: Vec<SpanRec> = Vec::with_capacity(SPAN_COUNT.load(Ordering::Relaxed));
    for shard in span_shards() {
        let guard = shard.lock().expect("span shard poisoned");
        spans.extend(guard.iter().map(|r| SpanRec {
            id: r.id,
            parent: r.parent,
            name: r.name.to_string(),
            tid: r.tid,
            start_ns: r.start_ns,
            dur_ns: r.dur_ns,
            kind: r.kind,
            trace: r.trace,
        }));
    }
    spans.sort_by_key(|s| (s.start_ns, s.id));

    let mut counters: Vec<CounterRec> = COUNTERS
        .iter()
        .map(|(name, c)| CounterRec {
            name: name.to_string(),
            value: c.sum(),
        })
        .filter(|c| c.value != 0)
        .collect();
    counters.sort_by(|a, b| a.name.cmp(&b.name));

    let mut gauges: Vec<GaugeRec> = GAUGES
        .iter()
        .map(|(name, g)| GaugeRec {
            name: name.to_string(),
            value: g.value.load(Ordering::Relaxed),
            max: g.max.load(Ordering::Relaxed),
        })
        .filter(|g| g.value != 0 || g.max != 0)
        .collect();
    gauges.sort_by(|a, b| a.name.cmp(&b.name));

    let mut histograms: Vec<HistRec> = HISTS
        .iter()
        .filter(|(_, h)| h.count.load(Ordering::Relaxed) != 0)
        .map(|(name, h)| HistRec {
            name: name.to_string(),
            count: h.count.load(Ordering::Relaxed),
            sum: h.sum.load(Ordering::Relaxed),
            min: h.min.load(Ordering::Relaxed),
            max: h.max.load(Ordering::Relaxed),
            buckets: h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        })
        .collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));

    let events: Vec<JournalRec> = journal_ring()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|e| JournalRec {
            seq: e.seq,
            t_ns: e.t_ns,
            trace: e.trace,
            kind: e.kind.to_string(),
            a: e.a,
            b: e.b,
        })
        .collect();

    let mut events_dropped: Vec<CounterRec> = JOURNAL_DROPS
        .iter()
        .map(|(name, c)| CounterRec {
            name: name.to_string(),
            value: c.sum(),
        })
        .filter(|c| c.value != 0)
        .collect();
    events_dropped.sort_by(|a, b| a.name.cmp(&b.name));

    Snapshot {
        spans,
        counters,
        gauges,
        histograms,
        spans_dropped: SPANS_DROPPED.load(Ordering::Relaxed),
        events,
        events_dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Telemetry state is process-global; tests that enable/reset it
    /// must not interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let _g = lock();
        set_enabled(false);
        reset();
        {
            let _s = span("never.recorded");
            counter_add("never.counted", 5);
            gauge_add("never.gauged", 1);
            observe_us("never.observed", 10);
            event("never.evented");
        }
        set_enabled(true);
        let snap = snapshot();
        set_enabled(false);
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn of_samples_buckets_like_the_recorder() {
        let _g = lock();
        set_enabled(true);
        reset();
        let samples = [0u64, 1, 3, 7, 8, 900, 70_000, 1 << 40];
        for &v in &samples {
            observe_us("test.of_samples", v);
        }
        set_enabled(false);
        let snap = snapshot();
        let recorded = snap
            .histograms
            .iter()
            .find(|h| h.name == "test.of_samples")
            .expect("histogram recorded");
        assert_eq!(&HistRec::of_samples("test.of_samples", &samples), recorded);
        assert_eq!(HistRec::of_samples("empty", &[]).percentile_us(0.99), None);
    }

    #[test]
    fn spans_nest_per_thread() {
        let _g = lock();
        set_enabled(true);
        reset();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
                event("mark");
            }
        }
        set_enabled(false);
        let snap = snapshot();
        let outer = snap.spans_named("outer").next().expect("outer recorded");
        let inner = snap.spans_named("inner").next().expect("inner recorded");
        let mark = snap.spans_named("mark").next().expect("event recorded");
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(mark.parent, inner.id);
        assert_eq!(mark.kind, RecKind::Event);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn counters_sum_across_threads() {
        let _g = lock();
        set_enabled(true);
        reset();
        for threads in [1usize, 4] {
            reset();
            let per_thread = 10_000u64;
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        for _ in 0..per_thread {
                            counter_add("test.hammer", 1);
                            gauge_add("test.level", 1);
                            gauge_add("test.level", -1);
                        }
                        observe_us("test.lat", 3);
                    });
                }
            });
            let snap = snapshot();
            assert_eq!(snap.counter("test.hammer"), per_thread * threads as u64);
            let g = snap.gauges.iter().find(|g| g.name == "test.level");
            if let Some(g) = g {
                assert_eq!(g.value, 0, "adds and subs balance");
                assert!(g.max >= 1);
            }
            let h = snap
                .histograms
                .iter()
                .find(|h| h.name == "test.lat")
                .expect("histogram recorded");
            assert_eq!(h.count, threads as u64);
            assert_eq!(h.sum, 3 * threads as u64);
            assert_eq!(h.min, 3);
            assert_eq!(h.max, 3);
            assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
        }
        set_enabled(false);
    }

    #[test]
    fn span_tree_is_well_formed_under_concurrency() {
        let _g = lock();
        set_enabled(true);
        reset();
        for threads in [1usize, 4] {
            reset();
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        for _ in 0..200 {
                            let _a = span("t.outer");
                            let _b = span("t.inner");
                        }
                    });
                }
            });
            let snap = snapshot();
            assert_eq!(snap.spans.len(), 400 * threads);
            assert_eq!(snap.spans_dropped, 0);
            let ids: std::collections::HashSet<u64> = snap.spans.iter().map(|s| s.id).collect();
            assert_eq!(ids.len(), snap.spans.len(), "ids unique");
            let by_id: std::collections::HashMap<u64, &SpanRec> =
                snap.spans.iter().map(|s| (s.id, s)).collect();
            for s in &snap.spans {
                if s.parent != 0 {
                    let p = by_id[&s.parent];
                    assert_eq!(p.tid, s.tid, "nesting never crosses threads");
                    assert!(s.start_ns >= p.start_ns);
                    assert!(s.start_ns + s.dur_ns <= p.start_ns + p.dur_ns);
                }
            }
            // Every t.inner nests in a t.outer.
            for s in snap.spans_named("t.inner") {
                assert_eq!(by_id[&s.parent].name, "t.outer");
            }
        }
        set_enabled(false);
    }

    #[test]
    fn span_cap_drops_but_counts() {
        let _g = lock();
        set_enabled(true);
        reset();
        if std::env::var("PASTRI_TELEMETRY_CAP").is_err() {
            assert_eq!(span_capacity(), SPAN_CAP, "default resolution");
        }
        // Fill the buffer past the cap with cheap events.
        let cap = span_capacity();
        for _ in 0..(cap + 50) {
            event("cap.filler");
        }
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.spans.len(), cap);
        assert_eq!(snap.spans_dropped, 50);
        reset();
        assert_eq!(snapshot().spans.len(), 0);
    }

    #[test]
    fn gauge_set_tracks_high_water() {
        let _g = lock();
        set_enabled(true);
        reset();
        gauge_set("g.depth", 3);
        gauge_set("g.depth", 7);
        gauge_set("g.depth", 2);
        let snap = snapshot();
        set_enabled(false);
        let g = snap.gauges.iter().find(|g| g.name == "g.depth").unwrap();
        assert_eq!(g.value, 2);
        assert_eq!(g.max, 7);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            if i > 0 && i < HIST_BUCKETS - 1 {
                assert_eq!(bucket_of(lo), i);
                assert_eq!(bucket_of(hi.unwrap() - 1), i);
            }
        }
    }

    #[test]
    fn trace_ids_are_pure_and_nonzero() {
        for seed in [0u64, 1, 42, u64::MAX] {
            for n in 0..64u64 {
                let a = trace_ids(seed, n);
                let b = trace_ids(seed, n);
                assert_eq!(a, b, "pure function of (seed, n)");
                assert_ne!(a.trace_id, 0);
                assert_ne!(a.span_id, 0);
            }
        }
        // Distinct requests get distinct traces, distinct seeds distinct streams.
        assert_ne!(trace_ids(7, 0).trace_id, trace_ids(7, 1).trace_id);
        assert_ne!(trace_ids(7, 0).trace_id, trace_ids(8, 0).trace_id);
    }

    #[test]
    fn push_trace_stamps_spans_and_restores_previous() {
        let _g = lock();
        set_enabled(true);
        reset();
        let outer_ctx = trace_ids(99, 0);
        let inner_ctx = trace_ids(99, 1);
        {
            let _t = push_trace(outer_ctx);
            assert_eq!(current_trace(), Some(outer_ctx));
            let _a = span("tr.outer");
            {
                let _t2 = push_trace(inner_ctx);
                event("tr.marked");
            }
            assert_eq!(current_trace(), Some(outer_ctx), "previous context restored");
        }
        assert_eq!(current_trace(), None);
        let _untraced = span("tr.bare");
        drop(_untraced);
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.spans_named("tr.outer").next().unwrap().trace, outer_ctx.trace_id);
        assert_eq!(snap.spans_named("tr.marked").next().unwrap().trace, inner_ctx.trace_id);
        assert_eq!(snap.spans_named("tr.bare").next().unwrap().trace, 0);
    }

    #[test]
    fn seeded_trace_stream_is_deterministic() {
        let _g = lock();
        set_trace_seed(1234);
        let first: Vec<TraceContext> = (0..8).map(|_| new_trace()).collect();
        set_trace_seed(1234);
        let second: Vec<TraceContext> = (0..8).map(|_| new_trace()).collect();
        assert_eq!(first, second, "same seed ⇒ same id sequence");
        set_trace_seed(0);
    }

    #[test]
    fn journal_ring_drops_oldest_and_counts_per_kind() {
        let _g = lock();
        set_enabled(true);
        reset();
        for i in 0..(JOURNAL_CAP as u64 + 10) {
            journal("j.filler", i, 0);
        }
        journal("j.rare", 1, 2);
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.events.len(), JOURNAL_CAP);
        // Oldest entries scrolled off; the newest are intact.
        assert_eq!(snap.events.last().unwrap().kind, "j.rare");
        assert_eq!(snap.events.last().unwrap().a, 1);
        assert_eq!(snap.events.last().unwrap().b, 2);
        let drops = snap
            .events_dropped
            .iter()
            .find(|c| c.name == "j.filler")
            .expect("dropped kind counted");
        assert_eq!(drops.value, 11, "10 overflow + 1 displaced by j.rare");
        reset();
        let clean = snapshot();
        assert!(clean.events.is_empty());
        assert!(clean.events_dropped.is_empty());
    }

    #[test]
    fn journal_entries_carry_current_trace() {
        let _g = lock();
        set_enabled(true);
        reset();
        let ctx = trace_ids(5, 0);
        {
            let _t = push_trace(ctx);
            journal("j.traced", 7, 8);
        }
        journal("j.untraced", 0, 0);
        set_enabled(false);
        let snap = snapshot();
        let traced = snap.events.iter().find(|e| e.kind == "j.traced").unwrap();
        assert_eq!(traced.trace, ctx.trace_id);
        let untraced = snap.events.iter().find(|e| e.kind == "j.untraced").unwrap();
        assert_eq!(untraced.trace, 0);
    }
}
