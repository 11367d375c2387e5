//! Shared transient-I/O retry policy with bounded, seedable-jitter
//! exponential backoff.
//!
//! Extracted from eri-store's private read path so that every client of
//! congested storage — store reads, the soak workload generator, future
//! prefetchers — configures backoff behavior in one place. Jitter is
//! driven by a caller-supplied seed (splitmix64 over the attempt
//! number), never by wall-clock entropy, so a retry schedule is fully
//! reproducible under test: the same policy produces the same sleep
//! sequence on every run.

use std::io::{self, ErrorKind};

use crate::ReadAt;
use std::time::Duration;

/// Error kinds treated as transient: routine on congested parallel file
/// systems, worth retrying rather than failing an SCF iteration.
#[must_use]
pub(crate) fn is_transient(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
    )
}

/// Bounded exponential backoff for transient read errors
/// (`Interrupted`, `WouldBlock`, `TimedOut`), with optional seeded
/// jitter to decorrelate concurrent retriers.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Transient failures tolerated per read call before giving up.
    /// Forward progress (any bytes read) resets the budget.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per consecutive retry.
    pub initial_backoff: Duration,
    /// Backoff ceiling (applied before jitter).
    pub max_backoff: Duration,
    /// `Some(seed)` scales each sleep by a deterministic factor in
    /// `[0.5, 1.0)` drawn from `splitmix64(seed, attempt)`; `None`
    /// sleeps the exact exponential schedule.
    pub jitter_seed: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 8,
            initial_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(50),
            jitter_seed: None,
        }
    }
}

impl RetryPolicy {
    /// Fail fast: transient errors surface immediately.
    #[must_use]
    pub const fn none() -> Self {
        Self {
            max_retries: 0,
            initial_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter_seed: None,
        }
    }

    /// The sleep before retry number `attempt` (0-based within one run
    /// of consecutive transient failures): `initial << attempt`, capped
    /// at `max_backoff`, then scaled by the jitter factor when a seed is
    /// set. Pure — the whole schedule can be tabulated up front.
    #[must_use]
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let base_us = (self.initial_backoff.as_micros() as u64)
            .saturating_mul(1u64.checked_shl(attempt.min(63)).unwrap_or(u64::MAX))
            .min(self.max_backoff.as_micros() as u64);
        let us = match self.jitter_seed {
            None => base_us,
            Some(seed) => {
                // Factor in [0.5, 1.0): half-jitter keeps the exponential
                // shape while decorrelating concurrent retriers.
                let h = splitmix64(seed ^ (u64::from(attempt) + 1));
                let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
                (base_us as f64 * (0.5 + 0.5 * unit)) as u64
            }
        };
        Duration::from_micros(us)
    }
}

/// What one [`read_exact_retry`] call spent absorbing transient faults.
/// Accumulated into the caller's stats even when the read ultimately
/// fails, so a failing read's retries are still accounted for.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RetryStats {
    /// Transient errors absorbed (each one slept and retried).
    pub transient_retries: u64,
    /// Total microseconds actually slept in backoff.
    pub backoff_micros: u64,
}

/// Fills `buf` completely from `r` starting at `offset`, retrying
/// transient errors per `policy` and accumulating what that cost into
/// `stats` (even on failure).
///
/// Hand-rolled rather than a plain read loop because std's loops retry
/// `Interrupted` *unboundedly* and fail every other transient kind
/// immediately — here both are bounded and backed off.
pub fn read_exact_retry<R: ReadAt + ?Sized>(
    r: &R,
    buf: &mut [u8],
    offset: u64,
    policy: &RetryPolicy,
    stats: &mut RetryStats,
) -> io::Result<()> {
    let mut filled = 0usize;
    let mut retries = 0u32;
    while filled < buf.len() {
        match r.read_at(&mut buf[filled..], offset + filled as u64) {
            Ok(0) => {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "source ended mid-read",
                ))
            }
            Ok(n) => {
                filled += n;
                // Forward progress resets the transient budget.
                retries = 0;
            }
            Err(e) if is_transient(e.kind()) => {
                if retries >= policy.max_retries {
                    return Err(e);
                }
                let backoff = policy.backoff_for(retries);
                retries += 1;
                stats.transient_retries += 1;
                if !backoff.is_zero() {
                    stats.backoff_micros += backoff.as_micros() as u64;
                    std::thread::sleep(backoff);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// splitmix64: the stateless mixer used across the repo's fault and
/// workload seeding (defined once, in `telemetry`).
pub use telemetry::splitmix64;

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A source that fails with `kind` for the first `fail` calls, then
    /// serves from `inner`.
    struct Flaky {
        inner: Vec<u8>,
        fail: Cell<u32>,
        kind: ErrorKind,
    }

    impl ReadAt for Flaky {
        fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
            if self.fail.get() > 0 {
                self.fail.set(self.fail.get() - 1);
                return Err(io::Error::new(self.kind, "injected"));
            }
            self.inner[..].read_at(buf, offset)
        }

        fn size(&self) -> io::Result<u64> {
            Ok(self.inner.len() as u64)
        }
    }

    fn instant(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            initial_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter_seed: None,
        }
    }

    #[test]
    fn retries_within_budget_succeed() {
        let r = Flaky {
            inner: vec![7u8; 32],
            fail: Cell::new(3),
            kind: ErrorKind::WouldBlock,
        };
        let mut buf = [0u8; 32];
        let mut stats = RetryStats::default();
        read_exact_retry(&r, &mut buf, 0, &instant(4), &mut stats).unwrap();
        assert_eq!(buf, [7u8; 32]);
        assert_eq!(stats.transient_retries, 3);
    }

    #[test]
    fn budget_exhaustion_surfaces_with_stats() {
        let r = Flaky {
            inner: vec![7u8; 8],
            fail: Cell::new(10),
            kind: ErrorKind::TimedOut,
        };
        let mut buf = [0u8; 8];
        let mut stats = RetryStats::default();
        let err = read_exact_retry(&r, &mut buf, 0, &instant(2), &mut stats).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        // The failed call's absorbed retries are still visible.
        assert_eq!(stats.transient_retries, 2);
    }

    #[test]
    fn non_transient_errors_fail_immediately() {
        let r = Flaky {
            inner: vec![0u8; 8],
            fail: Cell::new(1),
            kind: ErrorKind::PermissionDenied,
        };
        let mut buf = [0u8; 8];
        let mut stats = RetryStats::default();
        let err = read_exact_retry(&r, &mut buf, 0, &instant(8), &mut stats).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::PermissionDenied);
        assert_eq!(stats.transient_retries, 0);
    }

    #[test]
    fn short_source_is_unexpected_eof() {
        let r: &[u8] = &[1u8; 4];
        let mut buf = [0u8; 8];
        let mut stats = RetryStats::default();
        let err =
            read_exact_retry(&r, &mut buf, 0, &RetryPolicy::none(), &mut stats).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn backoff_schedule_doubles_and_caps() {
        let p = RetryPolicy {
            max_retries: 8,
            initial_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(450),
            jitter_seed: None,
        };
        let us: Vec<u64> = (0..5).map(|a| p.backoff_for(a).as_micros() as u64).collect();
        assert_eq!(us, vec![100, 200, 400, 450, 450]);
    }

    #[test]
    fn jitter_is_deterministic_and_half_bounded() {
        let p = RetryPolicy {
            max_retries: 8,
            initial_backoff: Duration::from_micros(1000),
            max_backoff: Duration::from_micros(64_000),
            jitter_seed: Some(0xDEADBEEF),
        };
        let q = p; // same seed → same schedule
        for attempt in 0..6 {
            let a = p.backoff_for(attempt);
            let b = q.backoff_for(attempt);
            assert_eq!(a, b, "jittered backoff must be reproducible");
            let base = 1000u64 << attempt;
            let us = a.as_micros() as u64;
            assert!(us >= base / 2 && us < base, "attempt {attempt}: {us}µs");
        }
        // A different seed gives a different schedule (overwhelmingly).
        let r = RetryPolicy {
            jitter_seed: Some(0xFEEDFACE),
            ..p
        };
        assert!((0..6).any(|a| r.backoff_for(a) != p.backoff_for(a)));
    }

    #[test]
    fn huge_attempt_does_not_overflow() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_for(200), p.max_backoff);
    }
}
