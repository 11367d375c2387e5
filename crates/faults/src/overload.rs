//! Seeded deterministic overload injector.
//!
//! Produces the two ingredients of an overload storm as pure functions
//! of `(seed, request key, attempt)`:
//!
//! * **Forced sheds** — "refuse the first `k` presentations of this
//!   request, then admit", with `k` drawn per-key from the seed. A
//!   client that retries the same batch therefore sees a deterministic
//!   shed/admit sequence regardless of wall-clock timing or how many
//!   other clients are hammering the server.
//! * **Slow-handler delays** — extra service time burned while the
//!   request holds its admission permit, modelling a store that got
//!   slow rather than a wire that got noisy.
//!
//! The injector deliberately knows nothing about the server: the
//! transport layer asks [`OverloadInjector::decide`] per request and
//! applies the verdict through its own admission plumbing, so the
//! tallies the soak harness gates on (sheds, breaker transitions) are
//! bit-identical per seed at any thread count.

use std::time::Duration;

use durable::retry::splitmix64;

/// Tunables for [`OverloadInjector`].
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Force a shed sequence on one request key in `shed_every` (0
    /// disables forced sheds).
    pub shed_every: u64,
    /// Upper bound on how many consecutive presentations of a targeted
    /// key are shed before it admits (the actual count is seeded,
    /// in `1..=max_sheds_per_key`).
    pub max_sheds_per_key: u32,
    /// Retry-after hint attached to forced sheds.
    pub retry_after: Duration,
    /// Inject a slow-handler delay on one request key in
    /// `delay_every` (0 disables delays).
    pub delay_every: u64,
    /// Upper bound on the injected delay (actual is seeded, in
    /// `1..=max_delay` milliseconds' worth of microsecond steps).
    pub max_delay: Duration,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            shed_every: 3,
            max_sheds_per_key: 2,
            retry_after: Duration::from_millis(2),
            delay_every: 4,
            max_delay: Duration::from_millis(3),
        }
    }
}

/// The injector's verdict for one presentation of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadDecision {
    /// Refuse this attempt (structured shed, not a timeout).
    pub shed: bool,
    /// Backoff hint to carry on the refusal.
    pub retry_after: Duration,
    /// Extra service time once admitted.
    pub delay: Duration,
}

/// Seeded, stateless overload decider. All methods are pure: the same
/// `(seed, key, attempt)` always yields the same decision.
#[derive(Debug, Clone)]
pub struct OverloadInjector {
    seed: u64,
    cfg: OverloadConfig,
}

impl OverloadInjector {
    #[must_use]
    pub fn new(seed: u64, cfg: OverloadConfig) -> Self {
        OverloadInjector { seed, cfg }
    }

    /// How many leading presentations of `key` are forcibly shed
    /// (0 = never targeted).
    #[must_use]
    pub(crate) fn forced_sheds(&self, key: u64) -> u32 {
        if self.cfg.shed_every == 0 || self.cfg.max_sheds_per_key == 0 {
            return 0;
        }
        let h = splitmix64(self.seed ^ splitmix64(key ^ 0x5EED_5EED));
        if !h.is_multiple_of(self.cfg.shed_every) {
            return 0;
        }
        1 + (splitmix64(h ^ 0xC0_FFEE) % u64::from(self.cfg.max_sheds_per_key)) as u32
    }

    /// The slow-handler delay injected once `key` is admitted.
    #[must_use]
    pub(crate) fn handler_delay(&self, key: u64) -> Duration {
        if self.cfg.delay_every == 0 || self.cfg.max_delay.is_zero() {
            return Duration::ZERO;
        }
        let h = splitmix64(self.seed ^ splitmix64(key ^ 0xDE1A_F00D));
        if !h.is_multiple_of(self.cfg.delay_every) {
            return Duration::ZERO;
        }
        let cap_us = self.cfg.max_delay.as_micros().max(1) as u64;
        Duration::from_micros(1 + splitmix64(h ^ 0x510_3333) % cap_us)
    }

    /// The verdict for the `attempt`-th presentation of `key` on one
    /// connection.
    #[must_use]
    pub fn decide(&self, key: u64, attempt: u32) -> OverloadDecision {
        OverloadDecision {
            shed: attempt < self.forced_sheds(key),
            retry_after: self.cfg.retry_after,
            delay: self.handler_delay(key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_seed_key_attempt() {
        let a = OverloadInjector::new(42, OverloadConfig::default());
        let b = OverloadInjector::new(42, OverloadConfig::default());
        for key in 0..200u64 {
            for attempt in 0..4 {
                assert_eq!(a.decide(key, attempt), b.decide(key, attempt));
            }
        }
    }

    #[test]
    fn different_seeds_target_different_keys() {
        let a = OverloadInjector::new(1, OverloadConfig::default());
        let b = OverloadInjector::new(2, OverloadConfig::default());
        let hits_a: Vec<u64> = (0..500).filter(|&k| a.forced_sheds(k) > 0).collect();
        let hits_b: Vec<u64> = (0..500).filter(|&k| b.forced_sheds(k) > 0).collect();
        assert!(!hits_a.is_empty() && !hits_b.is_empty());
        assert_ne!(hits_a, hits_b);
    }

    #[test]
    fn shed_sequences_are_prefixes_then_admit_forever() {
        let inj = OverloadInjector::new(7, OverloadConfig::default());
        for key in 0..300u64 {
            let k = inj.forced_sheds(key);
            assert!(k <= 2, "bounded by max_sheds_per_key");
            for attempt in 0..6 {
                assert_eq!(inj.decide(key, attempt).shed, attempt < k);
            }
        }
    }

    #[test]
    fn disabled_knobs_disable_cleanly() {
        let cfg = OverloadConfig { shed_every: 0, delay_every: 0, ..OverloadConfig::default() };
        let inj = OverloadInjector::new(9, cfg);
        for key in 0..100u64 {
            assert_eq!(inj.forced_sheds(key), 0);
            assert_eq!(inj.handler_delay(key), Duration::ZERO);
        }
    }
}
