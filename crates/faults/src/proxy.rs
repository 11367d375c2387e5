//! Deterministic in-path transport fault injector: a TCP proxy that
//! sits between a PTRF client and server and injects wire-level faults
//! on a seeded schedule — the socket-layer sibling of [`FaultyReader`].
//!
//! Five fault classes, matching what flaky networks actually do to a
//! framed stream:
//!
//! * [`WireFault::Truncate`] — forward N downstream bytes, then close
//!   the client side cleanly: the client sees EOF mid-frame.
//! * [`WireFault::Corrupt`] — flip one seeded bit of one downstream
//!   byte and keep flowing: the client's frame CRC must catch it.
//! * [`WireFault::Drop`] — tear down both directions abruptly at a
//!   seeded offset mid-conversation.
//! * [`WireFault::Stall`] — forward N bytes, then sit on the stream
//!   longer than any reasonable client deadline before resuming: the
//!   client's per-call deadline must fire, never a hang.
//! * [`WireFault::Reset`] — close the accepted connection immediately,
//!   before a single byte flows (the transient-`ECONNRESET` shape).
//!
//! Discipline mirrors [`FaultyReader`]: everything is derived from
//! `splitmix64(seed ^ connection-index)`, so given a deterministic
//! connection order (one sequential client), the same seed injects the
//! same faults at the same byte offsets on every run — which is what
//! lets `pastri soak --transport --clients 1` report bit-identical
//! tallies and fault counts across reruns. `max_faults` bounds the storm so a retrying client always
//! gets through eventually.
//!
//! [`FaultyReader`]: crate::FaultyReader

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use durable::retry::splitmix64;

/// One injectable wire-fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    Truncate,
    Corrupt,
    Drop,
    Stall,
    Reset,
}

impl WireFault {
    /// All five classes, in the order the injector cycles them.
    pub const ALL: [WireFault; 5] = [
        WireFault::Truncate,
        WireFault::Corrupt,
        WireFault::Drop,
        WireFault::Stall,
        WireFault::Reset,
    ];

    /// The telemetry event-journal kind recorded when this fault fires,
    /// so a merged trace shows *which* wire fault a retry recovered
    /// from.
    #[must_use]
    pub(crate) fn journal_kind(self) -> &'static str {
        match self {
            WireFault::Truncate => "wire.truncate",
            WireFault::Corrupt => "wire.corrupt",
            WireFault::Drop => "wire.drop",
            WireFault::Stall => "wire.stall",
            WireFault::Reset => "wire.reset",
        }
    }
}

/// Injection schedule. Default: transparent (no faults).
#[derive(Debug, Clone)]
pub struct ProxyFaultConfig {
    /// Every `faulty_every`-th accepted connection (1-based) is a fault
    /// candidate; `0` disables injection entirely.
    pub faulty_every: u32,
    /// Classes cycled across faulty connections in order.
    pub classes: Vec<WireFault>,
    /// Hard cap on injected faults; once spent, the proxy is
    /// transparent — so bounded client retry budgets always win.
    pub max_faults: u32,
    /// How long a [`WireFault::Stall`] sits on the stream. Point it
    /// past the client deadline under test.
    pub stall: Duration,
    /// Downstream byte offset where a fault fires: `offset_base +
    /// splitmix64(seed ^ conn) % offset_window`. Base past the Hello
    /// frame aims faults at responses instead of the handshake.
    pub offset_base: u64,
    pub offset_window: u64,
}

impl Default for ProxyFaultConfig {
    fn default() -> Self {
        ProxyFaultConfig {
            faulty_every: 0,
            classes: WireFault::ALL.to_vec(),
            max_faults: u32::MAX,
            stall: Duration::from_millis(500),
            offset_base: 0,
            offset_window: 256,
        }
    }
}

/// How many faults of each class actually fired (plus connections
/// proxied). Deterministic for a deterministic connection order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyTallies {
    pub conns: u64,
    pub truncates: u64,
    pub corrupts: u64,
    pub drops: u64,
    pub stalls: u64,
    pub resets: u64,
}

impl ProxyTallies {
    /// Total faults fired across all classes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.truncates + self.corrupts + self.drops + self.stalls + self.resets
    }

    /// How many faults of `class` fired: a test aiming a fault at its
    /// exchange asserts this is > 0, so frames that shrink later cannot
    /// silently move the exchange out of the fault's byte window.
    #[must_use]
    pub fn of(&self, class: WireFault) -> u64 {
        match class {
            WireFault::Truncate => self.truncates,
            WireFault::Corrupt => self.corrupts,
            WireFault::Drop => self.drops,
            WireFault::Stall => self.stalls,
            WireFault::Reset => self.resets,
        }
    }

    /// Accumulates another proxy's tallies (e.g. one per replica).
    pub fn add(&mut self, other: &ProxyTallies) {
        self.conns += other.conns;
        self.truncates += other.truncates;
        self.corrupts += other.corrupts;
        self.drops += other.drops;
        self.stalls += other.stalls;
        self.resets += other.resets;
    }
}

struct ProxyState {
    upstream: String,
    seed: u64,
    cfg: ProxyFaultConfig,
    stop: AtomicBool,
    conns: AtomicU64,
    faults_fired: AtomicU64,
    truncates: AtomicU64,
    corrupts: AtomicU64,
    drops: AtomicU64,
    stalls: AtomicU64,
    resets: AtomicU64,
}

impl ProxyState {
    /// Counts a fired fault and journals it (`wire.*` kind, downstream
    /// byte offset as payload) when the telemetry recorder is on.
    fn tally(&self, fault: WireFault, off: u64) {
        match fault {
            WireFault::Truncate => &self.truncates,
            WireFault::Corrupt => &self.corrupts,
            WireFault::Drop => &self.drops,
            WireFault::Stall => &self.stalls,
            WireFault::Reset => &self.resets,
        }
        .fetch_add(1, Ordering::Relaxed);
        telemetry::journal(fault.journal_kind(), off, 0);
    }
}

/// A running fault proxy. Listens on an ephemeral local port; point
/// the client at [`FaultyProxy::addr`] and the proxy at the real
/// server.
pub struct FaultyProxy {
    addr: SocketAddr,
    state: Arc<ProxyState>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl FaultyProxy {
    /// Starts proxying `127.0.0.1:<ephemeral>` → `upstream`
    /// (`host:port`).
    pub fn start(upstream: &str, seed: u64, cfg: ProxyFaultConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ProxyState {
            upstream: upstream.to_string(),
            seed,
            cfg,
            stop: AtomicBool::new(false),
            conns: AtomicU64::new(0),
            faults_fired: AtomicU64::new(0),
            truncates: AtomicU64::new(0),
            corrupts: AtomicU64::new(0),
            drops: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            resets: AtomicU64::new(0),
        });
        let accept_state = Arc::clone(&state);
        let accept_thread = std::thread::spawn(move || accept_loop(&listener, &accept_state));
        Ok(FaultyProxy { addr, state, accept_thread: Some(accept_thread) })
    }

    /// Address clients should connect to, as `host:port`.
    #[must_use]
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// Fault counts so far.
    #[must_use]
    pub(crate) fn tallies(&self) -> ProxyTallies {
        ProxyTallies {
            conns: self.state.conns.load(Ordering::Relaxed),
            truncates: self.state.truncates.load(Ordering::Relaxed),
            corrupts: self.state.corrupts.load(Ordering::Relaxed),
            drops: self.state.drops.load(Ordering::Relaxed),
            stalls: self.state.stalls.load(Ordering::Relaxed),
            resets: self.state.resets.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting and joins the accept loop. Per-connection pump
    /// threads drain on their own as the endpoints close (a stalling
    /// pump may outlive `stop` by its sleep; it holds no locks).
    pub fn stop(mut self) -> ProxyTallies {
        self.shutdown();
        self.tallies()
    }

    fn shutdown(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        // Poke accept(2) awake.
        if let Ok(s) = TcpStream::connect(self.addr) {
            let _ = s.shutdown(Shutdown::Both);
        }
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FaultyProxy {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown();
        }
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ProxyState>) {
    loop {
        let client = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if state.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if state.stop.load(Ordering::SeqCst) {
            return;
        }
        let k = state.conns.fetch_add(1, Ordering::Relaxed);
        let conn_state = Arc::clone(state);
        // Detached on purpose: a pump ends when its sockets do.
        std::thread::spawn(move || pump_connection(client, k, &conn_state));
    }
}

/// The fault (and its downstream byte offset) planned for accepted
/// connection `k`, if any. Purely a function of (seed, cfg, k) plus
/// the global fault budget.
fn plan_fault(state: &ProxyState, k: u64) -> Option<(WireFault, u64)> {
    let cfg = &state.cfg;
    if cfg.faulty_every == 0 || cfg.classes.is_empty() {
        return None;
    }
    if !(k + 1).is_multiple_of(u64::from(cfg.faulty_every)) {
        return None;
    }
    // Claim one unit of fault budget; back out if it's spent.
    let fired = state.faults_fired.fetch_add(1, Ordering::Relaxed);
    if fired >= u64::from(cfg.max_faults) {
        state.faults_fired.fetch_sub(1, Ordering::Relaxed);
        return None;
    }
    // Which faulty connection this is (0-based) picks the class, so a
    // sequential client walks the class list in order.
    let fault_index = k / u64::from(cfg.faulty_every);
    let class = cfg.classes[(fault_index as usize) % cfg.classes.len()];
    let h = splitmix64(state.seed ^ (k + 1));
    let off = cfg.offset_base + h % cfg.offset_window.max(1);
    Some((class, off))
}

fn pump_connection(client: TcpStream, k: u64, state: &Arc<ProxyState>) {
    let fault = plan_fault(state, k);
    if let Some((WireFault::Reset, _)) = fault {
        // Close before a single byte flows — the accept-then-slam shape
        // of a transient ECONNRESET.
        state.tally(WireFault::Reset, 0);
        let _ = client.shutdown(Shutdown::Both);
        return;
    }
    let upstream = match TcpStream::connect(state.upstream.as_str()) {
        Ok(s) => s,
        Err(_) => {
            let _ = client.shutdown(Shutdown::Both);
            return;
        }
    };
    let _ = client.set_nodelay(true);
    let _ = upstream.set_nodelay(true);

    // Client → upstream: always transparent (requests are small; the
    // interesting faults hit the data-bearing downstream direction).
    let (c2u_client, c2u_up) = match (client.try_clone(), upstream.try_clone()) {
        (Ok(c), Ok(u)) => (c, u),
        _ => {
            let _ = client.shutdown(Shutdown::Both);
            return;
        }
    };
    std::thread::spawn(move || {
        copy_transparent(c2u_client, c2u_up);
    });

    // Upstream → client: this direction carries the fault.
    copy_with_fault(upstream, client, fault, state);
}

fn copy_transparent(mut from: TcpStream, mut to: TcpStream) {
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

fn copy_with_fault(
    mut from: TcpStream,
    mut to: TcpStream,
    fault: Option<(WireFault, u64)>,
    state: &ProxyState,
) {
    let mut buf = [0u8; 4096];
    let mut pos = 0u64; // downstream bytes forwarded so far
    let mut pending = fault;
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                let mut start = 0usize;
                if let Some((class, off)) = pending {
                    if off < pos + n as u64 {
                        let cut = (off - pos) as usize;
                        match class {
                            WireFault::Truncate => {
                                // Forward the prefix, then clean EOF
                                // mid-frame toward the client.
                                state.tally(class, off);
                                let _ = to.write_all(&buf[..cut]);
                                let _ = to.shutdown(Shutdown::Write);
                                let _ = from.shutdown(Shutdown::Both);
                                return;
                            }
                            WireFault::Drop => {
                                // Abrupt teardown of both directions.
                                state.tally(class, off);
                                let _ = to.shutdown(Shutdown::Both);
                                let _ = from.shutdown(Shutdown::Both);
                                return;
                            }
                            WireFault::Corrupt => {
                                // One seeded bit flip; the stream keeps
                                // flowing so only the CRC can tell.
                                state.tally(class, off);
                                let bit = splitmix64(state.seed ^ off) % 8;
                                buf[cut] ^= 1u8 << bit;
                                pending = None;
                            }
                            WireFault::Stall => {
                                // Forward the prefix, sit past any
                                // deadline, then resume.
                                state.tally(class, off);
                                let _ = to.write_all(&buf[..cut]);
                                std::thread::sleep(state.cfg.stall);
                                start = cut;
                                pending = None;
                            }
                            WireFault::Reset => unreachable!("handled at accept"),
                        }
                    }
                }
                if to.write_all(&buf[start..n]).is_err() {
                    break;
                }
                pos += n as u64;
            }
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A tiny upstream that writes `payload` to every connection, then
    /// closes.
    fn one_shot_upstream(payload: Vec<u8>, conns: usize) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            for _ in 0..conns {
                let (mut s, _) = match listener.accept() {
                    Ok(x) => x,
                    Err(_) => return,
                };
                let _ = s.write_all(&payload);
            }
        });
        (addr, h)
    }

    fn read_all(addr: &str) -> Vec<u8> {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        out
    }

    #[test]
    fn transparent_proxy_is_byte_identical() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let (addr, h) = one_shot_upstream(payload.clone(), 1);
        let proxy = FaultyProxy::start(&addr, 1, ProxyFaultConfig::default()).unwrap();
        assert_eq!(read_all(&proxy.addr()), payload);
        let t = proxy.stop();
        assert_eq!(t.total(), 0);
        assert_eq!(t.conns, 1);
        h.join().unwrap();
    }

    #[test]
    fn corrupt_flips_exactly_one_seeded_bit() {
        let payload: Vec<u8> = vec![0u8; 4096];
        let (addr, h) = one_shot_upstream(payload.clone(), 2);
        let cfg = ProxyFaultConfig {
            faulty_every: 1,
            classes: vec![WireFault::Corrupt],
            max_faults: 1,
            offset_base: 100,
            offset_window: 50,
            ..ProxyFaultConfig::default()
        };
        let proxy = FaultyProxy::start(&addr, 42, cfg).unwrap();
        let dirty = read_all(&proxy.addr());
        assert_eq!(dirty.len(), payload.len());
        let flipped: Vec<usize> =
            (0..dirty.len()).filter(|&i| dirty[i] != payload[i]).collect();
        assert_eq!(flipped.len(), 1, "exactly one corrupted byte");
        let off = flipped[0] as u64;
        assert!((100..150).contains(&off), "offset {off} inside the window");
        assert_eq!(
            (dirty[flipped[0]] ^ payload[flipped[0]]).count_ones(),
            1,
            "exactly one flipped bit"
        );
        // Budget spent: the second connection is transparent.
        let clean = read_all(&proxy.addr());
        assert_eq!(clean, payload);
        assert_eq!(proxy.stop().corrupts, 1);
        h.join().unwrap();
    }

    #[test]
    fn truncate_cuts_the_stream_short() {
        let payload: Vec<u8> = vec![7u8; 4096];
        let (addr, h) = one_shot_upstream(payload.clone(), 1);
        let cfg = ProxyFaultConfig {
            faulty_every: 1,
            classes: vec![WireFault::Truncate],
            offset_base: 10,
            offset_window: 20,
            ..ProxyFaultConfig::default()
        };
        let proxy = FaultyProxy::start(&addr, 9, cfg).unwrap();
        let got = read_all(&proxy.addr());
        assert!((10..30).contains(&got.len()), "cut at {} bytes", got.len());
        assert_eq!(proxy.stop().truncates, 1);
        h.join().unwrap();
    }

    #[test]
    fn reset_closes_before_any_byte() {
        let (addr, h) = one_shot_upstream(vec![1u8; 64], 1);
        let cfg = ProxyFaultConfig {
            faulty_every: 1,
            classes: vec![WireFault::Reset],
            max_faults: 1,
            ..ProxyFaultConfig::default()
        };
        let proxy = FaultyProxy::start(&addr, 3, cfg).unwrap();
        let got = read_all(&proxy.addr());
        assert!(got.is_empty(), "reset connection served {} bytes", got.len());
        // Second conn gets through (budget exhausted).
        let clean = read_all(&proxy.addr());
        assert_eq!(clean, vec![1u8; 64]);
        assert_eq!(proxy.stop().resets, 1);
        h.join().unwrap();
    }

    #[test]
    fn same_seed_same_plan() {
        // plan_fault is pure in (seed, cfg, k) while budget remains.
        let cfg = ProxyFaultConfig {
            faulty_every: 2,
            classes: WireFault::ALL.to_vec(),
            max_faults: 100,
            ..ProxyFaultConfig::default()
        };
        let mk = || ProxyState {
            upstream: String::new(),
            seed: 77,
            cfg: cfg.clone(),
            stop: AtomicBool::new(false),
            conns: AtomicU64::new(0),
            faults_fired: AtomicU64::new(0),
            truncates: AtomicU64::new(0),
            corrupts: AtomicU64::new(0),
            drops: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            resets: AtomicU64::new(0),
        };
        let (a, b) = (mk(), mk());
        for k in 0..40 {
            assert_eq!(plan_fault(&a, k), plan_fault(&b, k), "conn {k}");
        }
        // Odd-indexed (1-based even) connections carry the faults, and
        // classes cycle in order.
        let c = mk();
        let fired: Vec<WireFault> =
            (0..10).filter_map(|k| plan_fault(&c, k)).map(|(f, _)| f).collect();
        assert_eq!(fired, WireFault::ALL.to_vec());
    }
}
