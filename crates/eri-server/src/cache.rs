//! Hot-block cache: sharded-lock LRU with byte budget and admission.
//!
//! The server's read path is decompress-many (PaSTRI Fig. 11): the same
//! shell-quartet blocks are re-read every SCF iteration, with a skewed
//! popularity distribution. This cache holds *decompressed* blocks —
//! trading memory for the decode cost the reuse model charges per miss
//! — under a hard byte budget so a server never balloons past what the
//! operator provisioned.
//!
//! Design:
//!
//! * **Sharded locks** — keys hash (splitmix64) onto `shards`
//!   independent `Mutex<Shard>`s, each owning `budget / shards` bytes,
//!   so concurrent readers of different blocks rarely contend. A key
//!   always maps to the same shard, so per-shard LRU order is
//!   deterministic for a deterministic op sequence.
//! * **Strict LRU per shard** — an intrusive doubly-linked list over a
//!   slot arena (indices, not pointers); eviction pops the list tail
//!   until the new entry fits.
//! * **Admission** — an entry costing more than its whole shard budget
//!   is rejected outright instead of flushing the shard for a block
//!   that can never stay resident.
//!
//! Every outcome feeds both the local [`CacheStats`] (exact, used by
//! the deterministic tally line) and the global telemetry contract:
//! counters `cache.hits` / `cache.misses` / `cache.evictions` /
//! `cache.admission_rejects`, gauge `cache.bytes` (current occupancy;
//! its high-water mark is the BENCH occupancy figure).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use durable::retry::splitmix64;

/// Fixed bookkeeping cost charged per entry on top of the payload
/// (map slot + arena slot + list links, order-of-magnitude).
pub(crate) const ENTRY_OVERHEAD: usize = 64;

/// Sentinel "no slot" index for the intrusive list.
const NIL: usize = usize::MAX;

/// Bytes an entry of `len` decompressed f64 values is charged against
/// the budget. Public so the model-based proptests can mirror the
/// arithmetic exactly.
#[must_use]
pub fn entry_cost(len: usize) -> usize {
    len * 8 + ENTRY_OVERHEAD
}

struct Slot {
    key: u64,
    block: Arc<Vec<f64>>,
    cost: usize,
    prev: usize,
    next: usize,
}

/// One lock's worth of cache: an LRU list over an arena of slots.
struct Shard {
    budget: usize,
    bytes: usize,
    map: HashMap<u64, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Most recently used slot, or `NIL` when empty.
    head: usize,
    /// Least recently used slot — the eviction victim.
    tail: usize,
}

impl Shard {
    fn new(budget: usize) -> Self {
        Shard {
            budget,
            bytes: 0,
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn detach(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Touches `key` and returns its block, or `None` on miss.
    fn get(&mut self, key: u64) -> Option<Arc<Vec<f64>>> {
        let i = *self.map.get(&key)?;
        self.detach(i);
        self.push_front(i);
        Some(Arc::clone(&self.slots[i].block))
    }

    /// Evicts the LRU entry; returns the bytes released.
    fn evict_tail(&mut self) -> usize {
        let i = self.tail;
        debug_assert_ne!(i, NIL, "evict on empty shard");
        self.detach(i);
        let cost = self.slots[i].cost;
        self.map.remove(&self.slots[i].key);
        self.slots[i].block = Arc::new(Vec::new()); // release the payload now
        self.free.push(i);
        self.bytes -= cost;
        cost
    }

    /// Inserts (or refreshes) `key`. Returns `(admitted, evictions,
    /// net_bytes_delta)` so the caller can fold counters without
    /// holding the lock longer than the structural update.
    fn insert(&mut self, key: u64, block: Arc<Vec<f64>>) -> (bool, u64, isize) {
        let cost = entry_cost(block.len());
        if let Some(&i) = self.map.get(&key) {
            // Same key ⇒ same decompressed block; refresh recency only.
            self.detach(i);
            self.push_front(i);
            self.slots[i].block = block;
            return (true, 0, 0);
        }
        if cost > self.budget {
            return (false, 0, 0);
        }
        let mut evictions = 0u64;
        let mut released = 0usize;
        while self.bytes + cost > self.budget {
            released += self.evict_tail();
            evictions += 1;
        }
        let slot = Slot {
            key,
            block,
            cost,
            prev: NIL,
            next: NIL,
        };
        let i = if let Some(i) = self.free.pop() {
            self.slots[i] = slot;
            i
        } else {
            self.slots.push(slot);
            self.slots.len() - 1
        };
        self.push_front(i);
        self.map.insert(key, i);
        self.bytes += cost;
        (true, evictions, cost as isize - released as isize)
    }
}

/// Exact point-in-time counters for one [`BlockCache`]. For a
/// single-threaded deterministic op sequence these are bit-reproducible
/// (same seed ⇒ same [`tally_line`](Self::tally_line)); under
/// concurrency the *sums* still obey `hits + misses == lookups`, only
/// the interleaving varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub lookups: u64,
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub admission_rejects: u64,
    /// Current resident bytes (payload + per-entry overhead).
    pub bytes: u64,
    /// Highest `bytes` ever reached — the occupancy high-water mark.
    pub high_water_bytes: u64,
    /// Configured byte budget.
    pub capacity_bytes: u64,
}

impl CacheStats {
    /// One JSON object line with only the deterministic fields — the
    /// text the cache proptests (and CI) diff across same-seed runs.
    #[must_use]
    pub fn tally_line(&self) -> String {
        format!(
            "{{\"lookups\": {}, \"hits\": {}, \"misses\": {}, \"insertions\": {}, \
             \"evictions\": {}, \"admission_rejects\": {}, \"bytes\": {}}}",
            self.lookups,
            self.hits,
            self.misses,
            self.insertions,
            self.evictions,
            self.admission_rejects,
            self.bytes,
        )
    }
}

/// The sharded hot-block cache. All methods take `&self`; interior
/// locking is per shard.
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    budget: usize,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    admission_rejects: AtomicU64,
    bytes: AtomicUsize,
    high_water: AtomicUsize,
}

impl BlockCache {
    /// A cache holding at most `byte_budget` bytes across `shards`
    /// independently locked shards (each owns `byte_budget / shards`).
    #[must_use]
    pub fn new(byte_budget: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = byte_budget / shards;
        BlockCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new(per_shard))).collect(),
            budget: byte_budget,
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            admission_rejects: AtomicU64::new(0),
            bytes: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
        }
    }

    /// Which shard `key` lives on — public so the model-based tests can
    /// replicate the routing.
    #[must_use]
    pub(crate) fn shard_of(&self, key: u64) -> usize {
        (splitmix64(key) % self.shards.len() as u64) as usize
    }

    /// Looks `key` up, counting a hit or miss and refreshing recency.
    pub fn get(&self, key: u64) -> Option<Arc<Vec<f64>>> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let got = crate::lock_recover(&self.shards[self.shard_of(key)]).get(key);
        if got.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("cache.hits", 1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("cache.misses", 1);
        }
        got
    }

    /// Admits `block` under `key` (evicting LRU entries as needed) or
    /// rejects it if it could never fit its shard. Returns whether the
    /// block is now resident.
    pub fn insert(&self, key: u64, block: Arc<Vec<f64>>) -> bool {
        let (admitted, evictions, delta) =
            crate::lock_recover(&self.shards[self.shard_of(key)]).insert(key, block);
        if !admitted {
            self.admission_rejects.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("cache.admission_rejects", 1);
            return false;
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evictions > 0 {
            self.evictions.fetch_add(evictions, Ordering::Relaxed);
            telemetry::counter_add("cache.evictions", evictions);
        }
        if delta != 0 {
            let now = if delta > 0 {
                self.bytes.fetch_add(delta as usize, Ordering::Relaxed) + delta as usize
            } else {
                self.bytes.fetch_sub((-delta) as usize, Ordering::Relaxed) - (-delta) as usize
            };
            self.high_water.fetch_max(now, Ordering::Relaxed);
            telemetry::gauge_add("cache.bytes", delta as i64);
        }
        true
    }

    /// Is `key` resident? No stats, no recency touch — a test/debug
    /// probe that leaves LRU order exactly as it was.
    #[must_use]
    pub fn peek(&self, key: u64) -> bool {
        crate::lock_recover(&self.shards[self.shard_of(key)]).map.contains_key(&key)
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| crate::lock_recover(s).map.len()).sum()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            admission_rejects: self.admission_rejects.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed) as u64,
            high_water_bytes: self.high_water.load(Ordering::Relaxed) as u64,
            capacity_bytes: self.budget as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(len: usize, fill: f64) -> Arc<Vec<f64>> {
        Arc::new(vec![fill; len])
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = BlockCache::new(1 << 20, 4);
        assert!(c.get(7).is_none());
        assert!(c.insert(7, block(16, 1.5)));
        let got = c.get(7).expect("resident");
        assert_eq!(got.len(), 16);
        assert_eq!(got[0].to_bits(), 1.5f64.to_bits());
        let s = c.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (2, 1, 1));
    }

    #[test]
    fn lru_evicts_oldest_within_budget() {
        // Single shard so the LRU order is global: room for exactly two
        // 16-value entries (2 × (128 + 64) = 384).
        let c = BlockCache::new(384, 1);
        assert!(c.insert(1, block(16, 1.0)));
        assert!(c.insert(2, block(16, 2.0)));
        assert!(c.get(1).is_some()); // touch 1 → victim is now 2
        assert!(c.insert(3, block(16, 3.0)));
        assert!(c.peek(1) && !c.peek(2) && c.peek(3));
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= s.capacity_bytes);
    }

    #[test]
    fn oversized_entry_is_rejected_not_admitted() {
        let c = BlockCache::new(256, 1);
        assert!(c.insert(1, block(8, 1.0))); // 64+64=128 ≤ 256
        assert!(!c.insert(2, block(64, 2.0))); // 512+64 > 256 → reject
        assert!(c.peek(1), "a reject must not flush residents");
        assert_eq!(c.stats().admission_rejects, 1);
    }

    #[test]
    fn high_water_tracks_peak_not_current() {
        let c = BlockCache::new(1 << 20, 1);
        c.insert(1, block(1024, 1.0));
        let peak = c.stats().bytes;
        // Force the big entry out with enough small ones.
        let c2 = BlockCache::new(entry_cost(1024), 1);
        c2.insert(1, block(1024, 1.0));
        c2.insert(2, block(8, 2.0));
        let s = c2.stats();
        assert_eq!(s.high_water_bytes, peak.max(s.high_water_bytes));
        assert!(s.bytes < s.high_water_bytes);
    }
}
