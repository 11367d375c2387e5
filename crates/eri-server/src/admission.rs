//! Admission control for the transport server: a global in-flight
//! permit budget, a deadline-aware admission queue, and an in-flight
//! response-bytes budget — plus the drain accounting that proves an
//! admitted request is never dropped.
//!
//! There is no per-connection cap: a connection's handler serves its
//! frames one at a time and drops the permit before reading the next
//! frame, so no connection ever holds more than one permit.
//!
//! The contract (DESIGN §14):
//!
//! * **Shed early, shed loudly.** A request that cannot be served
//!   within its deadline budget is refused *immediately* with a
//!   structured `Shed` verdict carrying a
//!   retry-after hint — never parked until its deadline times out
//!   silently. The shedding rule compares the request's remaining
//!   budget (`budget_ms` from the wire `ReadRequest`) against the estimated
//!   queue wait: `queued × EWMA(service time)` whenever every permit is
//!   taken.
//! * **Priority classes.** Priority 0 (normal) requests are sheddable
//!   by the queue-wait estimate; priority ≥ 1 (critical) requests ride
//!   out the estimate and only shed on hard limits (queue depth,
//!   response-bytes budget, drain).
//! * **Admitted means finished.** Once `admit` returns a `Permit`, the
//!   request counts as admitted and the server *will* serve it: drain
//!   waits for every permit to drop before the listener stops, and the
//!   `admitted`/`completed` counters in [`AdmissionStats`] prove the
//!   books balance.
//! * **Draining refuses, never drops.** After `begin_drain`, new
//!   requests (and requests still waiting in the queue) get a
//!   structured `Draining` refusal; permit holders run to completion.
//!
//! The controller is deliberately clock-light: the only timing inputs
//! are the EWMA of observed service times and the caller-supplied
//! budget, so directed tests can drive every shed path
//! deterministically.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::lock_recover;
use crate::protocol::OverloadReason;

/// Tunables for [`AdmissionController`].
#[derive(Debug, Clone)]
pub(crate) struct AdmissionConfig {
    /// Global cap on concurrently served requests (permits).
    pub max_in_flight: usize,
    /// Cap on requests waiting for a permit; past it, shed.
    pub max_queued: usize,
    /// Cap on the summed worst-case response bytes of all admitted
    /// requests; a request that would push past it waits (and sheds if
    /// its budget runs out first).
    pub response_bytes_budget: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_in_flight: 64,
            max_queued: 256,
            response_bytes_budget: 256 << 20,
        }
    }
}

/// Why a request was shed (the wire maps all of these to an
/// `Overloaded` frame; the distinction feeds telemetry and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShedCause {
    /// Estimated queue wait exceeds the request's deadline budget.
    WaitExceedsBudget,
    /// The admission queue is at `max_queued`.
    QueueFull,
    /// Waited in the queue until the budget ran out.
    BudgetExhausted,
    /// The server is draining.
    Draining,
    /// A seeded overload injector forced the shed (soak/bench only).
    Injected,
}

impl ShedCause {
    /// The wire-level reason carried in the `Overloaded` frame.
    #[must_use]
    pub(crate) fn reason(self) -> OverloadReason {
        match self {
            ShedCause::Draining => OverloadReason::Draining,
            _ => OverloadReason::Shed,
        }
    }

    /// The event-journal kind recorded when this shed fires, so `top`
    /// and `report` can show *why* requests were refused, not just how
    /// many.
    #[must_use]
    pub(crate) fn journal_kind(self) -> &'static str {
        match self {
            ShedCause::WaitExceedsBudget => "shed.wait_exceeds_budget",
            ShedCause::QueueFull => "shed.queue_full",
            ShedCause::BudgetExhausted => "shed.budget_exhausted",
            ShedCause::Draining => "shed.draining",
            ShedCause::Injected => "shed.injected",
        }
    }
}

/// The verdict for one request.
pub(crate) enum Admission<'a> {
    /// Serve it; drop the permit when done.
    Admitted(Permit<'a>),
    /// Refuse it with a structured hint.
    Shed { cause: ShedCause, retry_after: Duration },
}

/// Counters proving the admission books balance. `admitted` minus
/// `completed` is the current in-flight count; after a drain both are
/// equal — nothing admitted was dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    pub admitted: u64,
    pub completed: u64,
    pub shed: u64,
    pub refused_draining: u64,
}

/// Outcome of [`StopHandle::drain`](crate::StopHandle::drain) /
/// `AdmissionController::await_drained`.
#[derive(Debug, Clone, Copy)]
pub struct DrainOutcome {
    /// Every admitted request finished before the deadline.
    pub complete: bool,
    /// Requests still holding permits when the deadline hit.
    pub in_flight_at_deadline: usize,
    /// Final admission counters (`admitted == completed` iff
    /// `complete`).
    pub stats: AdmissionStats,
}

/// Seeded load injection hook: the soak harness and benches install
/// one to force deterministic sheds and slow-handler delays. `key` is
/// a hash of the request's id list; `attempt` counts how many times
/// this connection has presented that key before, so "shed the first
/// `k` attempts, then admit" is a pure function of the seed.
pub trait OverloadInject: Send + Sync {
    fn decide(&self, key: u64, attempt: u32) -> InjectedLoad;
}

/// What the injector wants done to one request.
#[derive(Debug, Clone, Copy, Default)]
pub struct InjectedLoad {
    /// Refuse this attempt with an `Overloaded{Shed}` verdict.
    pub shed: bool,
    /// Retry-after hint to attach to a forced shed.
    pub retry_after: Duration,
    /// Extra service delay (slow-handler injection) once admitted.
    pub delay: Duration,
}

impl<F> OverloadInject for F
where
    F: Fn(u64, u32) -> InjectedLoad + Send + Sync,
{
    fn decide(&self, key: u64, attempt: u32) -> InjectedLoad {
        self(key, attempt)
    }
}

struct Inner {
    in_flight: usize,
    queued: usize,
    bytes_in_flight: usize,
    draining: bool,
    stats: AdmissionStats,
    /// EWMA of observed service times in µs (α = 1/8), the queue-wait
    /// estimator's only timing input.
    est_service_us: u64,
}

/// The admission state machine. One per
/// [`TransportServer`](crate::TransportServer); handlers call
/// `admit` per read request.
pub struct AdmissionController {
    cfg: AdmissionConfig,
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl AdmissionController {
    #[must_use]
    pub(crate) fn new(cfg: AdmissionConfig) -> Self {
        AdmissionController {
            cfg,
            inner: Mutex::new(Inner {
                in_flight: 0,
                queued: 0,
                bytes_in_flight: 0,
                draining: false,
                stats: AdmissionStats::default(),
                est_service_us: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> AdmissionStats {
        lock_recover(&self.inner).stats
    }

    /// Estimated wait for a newly queued request: zero while a permit
    /// is free, otherwise one EWMA service time per queued request
    /// ahead of it (plus one for the slot itself).
    fn estimated_wait_us(inner: &Inner, cfg: &AdmissionConfig) -> u64 {
        if inner.in_flight < cfg.max_in_flight {
            return 0;
        }
        inner.est_service_us.saturating_mul(inner.queued as u64 + 1)
            / cfg.max_in_flight.max(1) as u64
    }

    fn shed(
        inner: &mut Inner,
        conn_id: u64,
        cause: ShedCause,
        retry_after: Duration,
    ) -> Admission<'static> {
        if cause == ShedCause::Draining {
            inner.stats.refused_draining += 1;
            telemetry::counter_add("server.refused_draining", 1);
        } else {
            inner.stats.shed += 1;
            telemetry::counter_add("server.shed", 1);
        }
        telemetry::journal(
            cause.journal_kind(),
            conn_id,
            u64::try_from(retry_after.as_millis()).unwrap_or(u64::MAX),
        );
        Admission::Shed { cause, retry_after }
    }

    /// Decides one request: admit (possibly after queueing within
    /// `budget`), or shed with a retry-after hint. `bytes` is the
    /// worst-case response size this request may pin while in flight;
    /// `priority` 0 sheds on the queue-wait estimate, ≥ 1 only on hard
    /// limits. `conn_id` tags the journal entry of a shed.
    pub(crate) fn admit(
        &self,
        conn_id: u64,
        budget: Duration,
        bytes: usize,
        priority: u8,
    ) -> Admission<'_> {
        let start = Instant::now();
        let mut inner = lock_recover(&self.inner);
        if inner.draining {
            return Self::shed(&mut inner, conn_id, ShedCause::Draining, Duration::ZERO);
        }
        if inner.queued >= self.cfg.max_queued {
            let hint = Duration::from_micros(Self::estimated_wait_us(&inner, &self.cfg).max(1000));
            return Self::shed(&mut inner, conn_id, ShedCause::QueueFull, hint);
        }
        // The shedding rule: refuse now rather than time out later.
        let est = Duration::from_micros(Self::estimated_wait_us(&inner, &self.cfg));
        if priority == 0 && est > budget {
            return Self::shed(&mut inner, conn_id, ShedCause::WaitExceedsBudget, est);
        }
        inner.queued += 1;
        loop {
            let blocked_on_permits = inner.in_flight >= self.cfg.max_in_flight;
            let blocked_on_bytes = inner.bytes_in_flight.saturating_add(bytes)
                > self.cfg.response_bytes_budget
                && inner.in_flight > 0;
            if inner.draining {
                inner.queued -= 1;
                return Self::shed(&mut inner, conn_id, ShedCause::Draining, Duration::ZERO);
            }
            if !blocked_on_permits && !blocked_on_bytes {
                break;
            }
            let Some(remaining) = budget.checked_sub(start.elapsed()) else {
                inner.queued -= 1;
                let hint = Duration::from_micros(inner.est_service_us.max(1000));
                return Self::shed(&mut inner, conn_id, ShedCause::BudgetExhausted, hint);
            };
            let wait = remaining.min(Duration::from_millis(50)).max(Duration::from_millis(1));
            let (guard, _timeout) = self
                .cv
                .wait_timeout(inner, wait)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            inner = guard;
        }
        inner.queued -= 1;
        inner.in_flight += 1;
        telemetry::gauge_set("server.in_flight", inner.in_flight as i64);
        inner.bytes_in_flight += bytes;
        inner.stats.admitted += 1;
        telemetry::counter_add("server.admitted", 1);
        let waited = start.elapsed().as_micros() as u64;
        telemetry::observe_us("server.queue_wait_us", waited);
        drop(inner);
        Admission::Admitted(Permit {
            controller: self,
            bytes,
            admitted_at: Instant::now(),
        })
    }

    /// Records a shed decided outside the controller (the seeded
    /// injector), so `server.shed` and the drain books still see it.
    pub(crate) fn record_injected_shed(&self) {
        let mut inner = lock_recover(&self.inner);
        inner.stats.shed += 1;
        telemetry::counter_add("server.shed", 1);
        telemetry::journal(ShedCause::Injected.journal_kind(), 0, 0);
    }

    /// Stops admitting: every subsequent (and currently queued) request
    /// gets a structured `Draining` refusal; permit holders finish.
    pub(crate) fn begin_drain(&self) {
        lock_recover(&self.inner).draining = true;
        telemetry::gauge_set("server.draining", 1);
        self.cv.notify_all();
    }

    /// Blocks until every admitted request has completed (or `deadline`
    /// passes). Call after [`begin_drain`](Self::begin_drain).
    pub(crate) fn await_drained(&self, deadline: Duration) -> DrainOutcome {
        let start = Instant::now();
        let mut inner = lock_recover(&self.inner);
        while inner.in_flight > 0 {
            let Some(remaining) = deadline.checked_sub(start.elapsed()) else { break };
            let wait = remaining.min(Duration::from_millis(50)).max(Duration::from_millis(1));
            let (guard, _timeout) = self
                .cv
                .wait_timeout(inner, wait)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            inner = guard;
        }
        DrainOutcome {
            complete: inner.in_flight == 0,
            in_flight_at_deadline: inner.in_flight,
            stats: inner.stats,
        }
    }

    fn release(&self, bytes: usize, served_in: Duration) {
        let mut inner = lock_recover(&self.inner);
        inner.in_flight -= 1;
        telemetry::gauge_set("server.in_flight", inner.in_flight as i64);
        inner.bytes_in_flight = inner.bytes_in_flight.saturating_sub(bytes);
        inner.stats.completed += 1;
        let us = served_in.as_micros() as u64;
        inner.est_service_us = if inner.est_service_us == 0 {
            us
        } else {
            inner.est_service_us - inner.est_service_us / 8 + us / 8
        };
        drop(inner);
        self.cv.notify_all();
    }
}

/// RAII admission permit: dropping it completes the request in the
/// books, feeds the service-time EWMA, and wakes queued waiters.
pub(crate) struct Permit<'a> {
    controller: &'a AdmissionController,
    bytes: usize,
    admitted_at: Instant,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.controller.release(self.bytes, self.admitted_at.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ctl(cfg: AdmissionConfig) -> Arc<AdmissionController> {
        Arc::new(AdmissionController::new(cfg))
    }

    #[test]
    fn permits_bound_concurrency_and_release_on_drop() {
        let c = ctl(AdmissionConfig { max_in_flight: 2, ..AdmissionConfig::default() });
        let p1 = match c.admit(1, Duration::from_secs(1), 0, 0) {
            Admission::Admitted(p) => p,
            Admission::Shed { cause, .. } => panic!("shed: {cause:?}"),
        };
        let p2 = match c.admit(2, Duration::from_secs(1), 0, 0) {
            Admission::Admitted(p) => p,
            Admission::Shed { cause, .. } => panic!("shed: {cause:?}"),
        };
        // Third request with a tiny budget: queued, then budget runs
        // out — a structured shed, never a silent timeout.
        match c.admit(3, Duration::from_millis(5), 0, 0) {
            Admission::Shed { cause, retry_after } => {
                assert_eq!(cause, ShedCause::BudgetExhausted);
                assert!(retry_after > Duration::ZERO);
            }
            Admission::Admitted(_) => panic!("third permit must not exist"),
        }
        drop(p1);
        drop(p2);
        match c.admit(3, Duration::from_millis(100), 0, 0) {
            Admission::Admitted(_) => {}
            Admission::Shed { cause, .. } => panic!("shed after release: {cause:?}"),
        }
        let s = c.stats();
        assert_eq!(s.admitted, 3);
        assert_eq!(s.completed, 3);
        assert_eq!(s.shed, 1);
    }

    #[test]
    fn queue_wait_estimate_sheds_normal_but_not_critical() {
        let c = ctl(AdmissionConfig { max_in_flight: 1, ..AdmissionConfig::default() });
        // Teach the EWMA a long service time.
        {
            let p = match c.admit(1, Duration::from_secs(1), 0, 0) {
                Admission::Admitted(p) => p,
                Admission::Shed { cause, .. } => panic!("shed: {cause:?}"),
            };
            std::thread::sleep(Duration::from_millis(30));
            drop(p);
        }
        let _hold = match c.admit(1, Duration::from_secs(1), 0, 0) {
            Admission::Admitted(p) => p,
            Admission::Shed { cause, .. } => panic!("shed: {cause:?}"),
        };
        // Normal priority, budget far under the ~30 ms estimate: shed
        // immediately with the estimate as the hint.
        let t0 = Instant::now();
        match c.admit(2, Duration::from_micros(50), 0, 0) {
            Admission::Shed { cause, retry_after } => {
                assert_eq!(cause, ShedCause::WaitExceedsBudget);
                assert!(retry_after >= Duration::from_millis(1));
            }
            Admission::Admitted(_) => panic!("must shed on wait estimate"),
        }
        assert!(t0.elapsed() < Duration::from_millis(20), "immediate, not queued");
        // Critical priority rides out the estimate (and then the
        // budget runs out in the queue — still structured).
        match c.admit(2, Duration::from_millis(2), 0, 1) {
            Admission::Shed { cause, .. } => assert_eq!(cause, ShedCause::BudgetExhausted),
            Admission::Admitted(_) => panic!("permit is held"),
        };
    }

    #[test]
    fn response_bytes_budget_blocks_big_batches_until_space_frees() {
        let c = ctl(AdmissionConfig {
            max_in_flight: 8,
            response_bytes_budget: 100,
            ..AdmissionConfig::default()
        });
        let p1 = match c.admit(1, Duration::from_secs(1), 80, 0) {
            Admission::Admitted(p) => p,
            Admission::Shed { cause, .. } => panic!("shed: {cause:?}"),
        };
        // 80 + 80 > 100: waits, then budget-sheds.
        match c.admit(2, Duration::from_millis(5), 80, 0) {
            Admission::Shed { cause, .. } => assert_eq!(cause, ShedCause::BudgetExhausted),
            Admission::Admitted(_) => panic!("bytes budget must hold"),
        }
        // A request bigger than the whole budget still admits once the
        // server is empty (in_flight == 0 exempts it) — oversized
        // batches degrade at the protocol layer instead.
        drop(p1);
        match c.admit(2, Duration::from_millis(100), 500, 0) {
            Admission::Admitted(_) => {}
            Admission::Shed { cause, .. } => panic!("empty-server oversize shed: {cause:?}"),
        };
    }

    #[test]
    fn drain_refuses_new_and_waits_for_admitted() {
        let c = ctl(AdmissionConfig { max_in_flight: 4, ..AdmissionConfig::default() });
        let p = match c.admit(1, Duration::from_secs(1), 0, 0) {
            Admission::Admitted(p) => p,
            Admission::Shed { cause, .. } => panic!("shed: {cause:?}"),
        };
        c.begin_drain();
        match c.admit(2, Duration::from_secs(1), 0, 0) {
            Admission::Shed { cause, .. } => assert_eq!(cause, ShedCause::Draining),
            Admission::Admitted(_) => panic!("draining must refuse"),
        }
        // Still holding a permit: drain is incomplete.
        let partial = c.await_drained(Duration::from_millis(5));
        assert!(!partial.complete);
        assert_eq!(partial.in_flight_at_deadline, 1);
        // Finish the admitted request from another thread, then drain
        // completes and the books balance.
        let done = std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                drop(p);
            });
            c.await_drained(Duration::from_secs(5))
        });
        assert!(done.complete);
        assert_eq!(done.stats.admitted, done.stats.completed);
        assert_eq!(done.stats.refused_draining, 1);
    }

    #[test]
    fn queued_waiters_are_drained_with_a_refusal_not_a_drop() {
        let c = ctl(AdmissionConfig { max_in_flight: 1, ..AdmissionConfig::default() });
        let p = match c.admit(1, Duration::from_secs(1), 0, 0) {
            Admission::Admitted(p) => p,
            Admission::Shed { cause, .. } => panic!("shed: {cause:?}"),
        };
        let cause = std::thread::scope(|s| {
            let waiter = s.spawn(|| match c.admit(2, Duration::from_secs(10), 0, 0) {
                Admission::Shed { cause, .. } => cause,
                Admission::Admitted(_) => panic!("queued waiter must be refused on drain"),
            });
            std::thread::sleep(Duration::from_millis(20));
            c.begin_drain();
            waiter.join().unwrap()
        });
        assert_eq!(cause, ShedCause::Draining);
        drop(p);
        assert!(c.await_drained(Duration::from_secs(1)).complete);
    }
}
