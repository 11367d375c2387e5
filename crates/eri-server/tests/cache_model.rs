//! Model-based proptests for the hot-block cache as a standalone unit.
//!
//! A naive reference model — per-shard MRU-first `Vec`s with the exact
//! same shard hash, entry-cost arithmetic, LRU recency rule, and
//! admission policy — is replayed op-for-op against the real
//! [`BlockCache`]. Divergence anywhere (a hit the model calls a miss,
//! a survivor the model evicted, a byte of accounting drift) fails the
//! case. On top of the op-level agreement, the suite pins the
//! documented invariants:
//!
//! * resident bytes never exceed the byte budget (globally or per
//!   shard),
//! * eviction order is exactly per-shard LRU (checked by predicting
//!   every get's hit/miss and every op's surviving key set),
//! * `hits + misses == lookups` and
//!   `insertions + admission_rejects == distinct admission attempts`,
//! * a same-seed replay yields a bit-identical deterministic tally
//!   line (soak-style determinism).
//!
//! Keys map to frame lengths deterministically (`len(key)`),
//! mirroring the server's invariant that a block id always denotes the
//! same stored frame.

use std::sync::Arc;

use durable::retry::splitmix64;
use eri_server::cache::{entry_cost, BlockCache};
use proptest::{proptest, ProptestConfig};

/// Deterministic frame length for a key: 8..=512 bytes, in steps
/// of 8, so entry costs span 72..=576 bytes against the 256..12 288-byte
/// budgets below.
fn len_of(key: u64) -> usize {
    8 * (1 + (splitmix64(key ^ 0xdead_beef_cafe_f00d) % 64) as usize)
}

/// Reference model: per shard, an MRU-first list of keys plus the
/// cache's own cost arithmetic.
struct Model {
    shards: Vec<Vec<u64>>, // index 0 = most recently used
    per_shard_budget: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    admission_rejects: u64,
}

impl Model {
    fn new(byte_budget: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        Model {
            shards: vec![Vec::new(); shards],
            per_shard_budget: byte_budget / shards,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
            admission_rejects: 0,
        }
    }

    fn shard_of(&self, key: u64) -> usize {
        (splitmix64(key) % self.shards.len() as u64) as usize
    }

    fn shard_bytes(&self, s: usize) -> usize {
        self.shards[s].iter().map(|&k| entry_cost(len_of(k))).sum()
    }

    fn total_bytes(&self) -> usize {
        (0..self.shards.len()).map(|s| self.shard_bytes(s)).sum()
    }

    fn len(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }

    /// Predicts a lookup: true = hit (and refreshes recency).
    fn get(&mut self, key: u64) -> bool {
        let s = self.shard_of(key);
        if let Some(i) = self.shards[s].iter().position(|&k| k == key) {
            let k = self.shards[s].remove(i);
            self.shards[s].insert(0, k);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Predicts an insert: true = admitted.
    fn insert(&mut self, key: u64) -> bool {
        let s = self.shard_of(key);
        if let Some(i) = self.shards[s].iter().position(|&k| k == key) {
            let k = self.shards[s].remove(i);
            self.shards[s].insert(0, k);
            self.insertions += 1; // a refresh counts as an admission
            return true;
        }
        let cost = entry_cost(len_of(key));
        if cost > self.per_shard_budget {
            self.admission_rejects += 1;
            return false;
        }
        while self.shard_bytes(s) + cost > self.per_shard_budget {
            self.shards[s].pop(); // strict LRU: back of the list goes first
            self.evictions += 1;
        }
        self.shards[s].insert(0, key);
        self.insertions += 1;
        true
    }
}

fn block_for(key: u64) -> Arc<[u8]> {
    vec![splitmix64(key) as u8; len_of(key)].into()
}

/// Replays `ops` seeded operations against a fresh cache, checking the
/// model at every step, and returns the final tally line.
fn replay(seed: u64, byte_budget: usize, shards: usize, ops: usize, check: bool) -> String {
    let cache = BlockCache::new(byte_budget, shards);
    let mut model = Model::new(byte_budget, shards);
    for i in 0..ops {
        let r = splitmix64(seed ^ splitmix64(i as u64 + 1));
        let key = r % 96; // small key space so reuse and eviction both happen
        if r >> 32 & 1 == 0 {
            let want_hit = model.get(key);
            let got = cache.get(key);
            if check {
                assert_eq!(
                    got.is_some(),
                    want_hit,
                    "op {i}: get({key}) diverged from the LRU model (seed {seed})"
                );
                if let Some(b) = &got {
                    assert_eq!(b.len(), len_of(key), "op {i}: wrong block for {key}");
                }
            }
        } else {
            let want_admit = model.insert(key);
            let admitted = cache.insert(key, block_for(key));
            if check {
                assert_eq!(admitted, want_admit, "op {i}: insert({key}) admission diverged");
            }
        }
        if check {
            let s = cache.stats();
            assert!(
                s.bytes <= s.capacity_bytes,
                "op {i}: budget exceeded: {} > {}",
                s.bytes,
                s.capacity_bytes
            );
            assert_eq!(s.bytes as usize, model.total_bytes(), "op {i}: byte accounting drift");
        }
    }

    let s = cache.stats();
    if check {
        // Survivors are exactly the model's survivors — this is what
        // pins the eviction *order*, not just the eviction count.
        assert_eq!(cache.len(), model.len(), "resident count diverged");
        for shard in &model.shards {
            for &k in shard {
                assert!(cache.peek(k), "model says {k} is resident, cache disagrees");
            }
        }
        // Counter algebra.
        assert_eq!(s.hits + s.misses, s.lookups, "hits+misses must equal lookups");
        assert_eq!(s.hits, model.hits);
        assert_eq!(s.misses, model.misses);
        assert_eq!(s.insertions, model.insertions);
        assert_eq!(s.evictions, model.evictions);
        assert_eq!(s.admission_rejects, model.admission_rejects);
        assert!(s.high_water_bytes >= s.bytes);
    }
    s.tally_line()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_agrees_with_the_lru_model(
        seed in proptest::any::<u64>(),
        byte_budget in 256usize..12_288,
        shards in 1usize..5,
        ops in 1usize..400,
    ) {
        replay(seed, byte_budget, shards, ops, true);
    }

    #[test]
    fn same_seed_replay_is_tally_identical(
        seed in proptest::any::<u64>(),
        byte_budget in 256usize..12_288,
        shards in 1usize..5,
        ops in 1usize..400,
    ) {
        let a = replay(seed, byte_budget, shards, ops, false);
        let b = replay(seed, byte_budget, shards, ops, false);
        assert_eq!(a, b, "same seed must replay to a bit-identical tally line");
        // And the line is well-formed for the CI diff: one JSON object.
        assert!(a.starts_with('{') && a.ends_with('}') && !a.contains('\n'));
    }
}
