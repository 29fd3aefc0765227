//! Property-based tests for the cache plane's core invariants (proptest).
//!
//! Three properties the whole design leans on, pinned down over random
//! operation sequences rather than hand-picked examples:
//!
//! 1. the L1 store never holds more entries than its capacity, whatever
//!    interleaving of inserts, touches and purges it sees;
//! 2. freshness is monotone in virtual time — once an entry has expired
//!    it can never be fresh again later (without a re-insert);
//! 3. admission decisions are a pure function of (seed, operation
//!    sequence): two caches built with the same seed and fed the same
//!    sequence produce byte-identical decision vectors.
//!
//! Two more pin the L1 store's indexes to simple references: its
//! recency-indexed eviction against a naive min-scan store, and a key's
//! stored fingerprint against a hash of its rendering.

use std::collections::BTreeMap;

use evop_cache::key::fnv1a;
use evop_cache::l1::LruTtlStore;
use evop_cache::{CacheConfig, CacheKey, CachePolicy, ResultCache};
use evop_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use serde_json::{json, Value};

fn key(n: u64) -> CacheKey {
    CacheKey::new("topmodel", "eden", 1, &json!({ "n": n }))
}

/// One step of a generated workload: which key, at what virtual second,
/// and whether this step inserts (odd) or just looks up (even).
fn ops() -> impl Strategy<Value = Vec<(u64, u64, u8)>> {
    proptest::collection::vec((0u64..40, 0u64..10_000, 0u8..2), 1..200)
}

fn run_workload(
    capacity: usize,
    ttl_secs: u64,
    seed: u64,
    ops: &[(u64, u64, u8)],
) -> (ResultCache, Vec<bool>) {
    let mut cache = ResultCache::new(CacheConfig {
        policy: CachePolicy::L1,
        l1_capacity: capacity,
        ttl: SimDuration::from_secs(ttl_secs),
        seed,
        ..CacheConfig::default()
    });
    let mut decisions = Vec::new();
    let mut now_secs = 0;
    for &(k, at, insert) in ops {
        // Virtual time only moves forward.
        now_secs = now_secs.max(at);
        let now = SimTime::from_secs(now_secs);
        let key = key(k);
        if insert == 1 {
            decisions.push(cache.insert(now, key, &json!({ "k": k })));
        } else {
            cache.lookup(now, &key);
        }
    }
    (cache, decisions)
}

/// The L1 store with no recency index: each entry keeps its last-touch
/// tick, and the LRU victim is found by scanning every entry.
struct NaiveLru {
    capacity: usize,
    ttl: SimDuration,
    tick: u64,
    /// key -> (value, stored_at, last_touch)
    entries: BTreeMap<CacheKey, (Value, SimTime, u64)>,
}

impl NaiveLru {
    fn new(capacity: usize, ttl: SimDuration) -> NaiveLru {
        NaiveLru { capacity: capacity.max(1), ttl, tick: 0, entries: BTreeMap::new() }
    }

    fn lru_key(&self) -> Option<&CacheKey> {
        self.entries.iter().min_by_key(|(_, e)| e.2).map(|(k, _)| k)
    }

    fn get(&mut self, now: SimTime, key: &CacheKey) -> Option<(Value, SimDuration)> {
        let stored_at = self.entries.get(key)?.1;
        if expired(stored_at, self.ttl, now) {
            self.entries.remove(key);
            return None;
        }
        self.tick += 1;
        let entry = self.entries.get_mut(key)?;
        entry.2 = self.tick;
        Some((entry.0.clone(), now.saturating_since(stored_at)))
    }

    fn insert(&mut self, now: SimTime, key: CacheKey, value: Value) -> Option<CacheKey> {
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&key) {
            *entry = (value, now, self.tick);
            return None;
        }
        let evicted =
            if self.entries.len() >= self.capacity { self.lru_key().cloned() } else { None };
        if let Some(victim) = &evicted {
            self.entries.remove(victim);
        }
        self.entries.insert(key, (value, now, self.tick));
        evicted
    }

    fn purge_expired(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        let ttl = self.ttl;
        self.entries.retain(|_, e| !expired(e.1, ttl, now));
        before - self.entries.len()
    }

    fn retain_version(&mut self, current: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|k, _| k.data_version() == current);
        before - self.entries.len()
    }
}

fn expired(stored_at: SimTime, ttl: SimDuration, now: SimTime) -> bool {
    stored_at.checked_add(ttl).is_some_and(|deadline| now >= deadline)
}

fn versioned_key(n: u64, version: u64) -> CacheKey {
    CacheKey::new("topmodel", "eden", version, &json!({ "n": n }))
}

/// One store operation: (kind, key, data version, seconds to advance).
fn store_ops() -> impl Strategy<Value = Vec<(u8, u64, u64, u64)>> {
    proptest::collection::vec((0u8..8, 0u64..12, 1u64..4, 0u64..40), 1..300)
}

proptest! {
    // ----------------------------------------------------------------
    // The recency index evicts exactly what a full scan would
    // ----------------------------------------------------------------

    #[test]
    fn l1_matches_naive_min_scan_store(
        capacity in 1usize..10,
        ttl_secs in 1u64..400,
        ops in store_ops(),
    ) {
        let ttl = SimDuration::from_secs(ttl_secs);
        let mut store = LruTtlStore::new(capacity, ttl);
        let mut naive = NaiveLru::new(capacity, ttl);
        let mut now = SimTime::ZERO;
        for (step, &(kind, n, version, advance)) in ops.iter().enumerate() {
            now += SimDuration::from_secs(advance);
            let key = versioned_key(n, version);
            match kind {
                // Gets and inserts dominate, as in serving.
                0..=2 => prop_assert_eq!(store.get(now, &key), naive.get(now, &key)),
                3..=5 => {
                    let value = json!({ "step": step });
                    prop_assert_eq!(
                        store.insert(now, key.clone(), value.clone()),
                        naive.insert(now, key, value),
                    );
                }
                6 => {
                    let removed = naive.entries.remove(&key).is_some();
                    prop_assert_eq!(store.remove(&key), removed);
                }
                _ if n % 2 == 0 => {
                    prop_assert_eq!(store.purge_expired(now), naive.purge_expired(now));
                }
                _ => prop_assert_eq!(store.retain_version(version), naive.retain_version(version)),
            }
            prop_assert_eq!(store.lru_key(), naive.lru_key());
            prop_assert_eq!(store.len(), naive.entries.len());
            prop_assert!(store.keys().eq(naive.entries.keys()));
        }
    }

    // ----------------------------------------------------------------
    // The stored fingerprint is the hash of the rendering
    // ----------------------------------------------------------------

    #[test]
    fn fingerprint_is_fnv1a_of_the_rendering(
        process in "[a-z]{1,12}",
        catchment in "[a-z |]{0,12}",
        version in 0u64..u64::MAX,
        (n, text) in (0u64..u64::MAX, "[ -~]{0,24}"),
    ) {
        let key = CacheKey::new(&process, &catchment, version, &json!({ "n": n, "s": text }));
        prop_assert_eq!(key.fingerprint(), fnv1a(key.render().as_bytes()));
        prop_assert_eq!(key.blob_key(), format!("res-{:016x}", fnv1a(key.render().as_bytes())));
        prop_assert_eq!(key.to_string(), key.render());
    }

    // ----------------------------------------------------------------
    // Capacity bound
    // ----------------------------------------------------------------

    #[test]
    fn l1_never_exceeds_capacity(
        capacity in 1usize..16,
        ttl_secs in 1u64..5_000,
        seed in 0u64..1_000,
        ops in ops(),
    ) {
        let mut cache = ResultCache::new(CacheConfig {
            policy: CachePolicy::L1,
            l1_capacity: capacity,
            ttl: SimDuration::from_secs(ttl_secs),
            seed,
            ..CacheConfig::default()
        });
        let mut now_secs = 0;
        for (k, at, insert) in ops {
            now_secs = now_secs.max(at);
            let now = SimTime::from_secs(now_secs);
            if insert == 1 {
                cache.insert(now, key(k), &json!({ "k": k }));
            } else {
                cache.lookup(now, &key(k));
            }
            prop_assert!(
                cache.l1_len() <= capacity,
                "l1 holds {} entries over capacity {capacity}",
                cache.l1_len(),
            );
        }
    }

    // ----------------------------------------------------------------
    // TTL expiry is monotone in virtual time
    // ----------------------------------------------------------------

    #[test]
    fn expiry_is_monotone(
        ttl_secs in 1u64..1_000,
        stored_at in 0u64..1_000,
        probe_a in 0u64..4_000,
        probe_b in 0u64..4_000,
    ) {
        let mut cache = ResultCache::new(CacheConfig {
            policy: CachePolicy::L1,
            l1_capacity: 4,
            ttl: SimDuration::from_secs(ttl_secs),
            ..CacheConfig::default()
        });
        cache.insert(SimTime::from_secs(stored_at), key(1), &json!(1));
        let (early, late) = (probe_a.min(probe_b), probe_a.max(probe_b));
        // Probe in time order on the same store: a miss at `early`
        // (expired) must imply a miss at `late`. The early probe may
        // itself collect the entry — which is exactly the point.
        let hit_early = cache.lookup(SimTime::from_secs(stored_at + early), &key(1)).is_some();
        let hit_late = cache.lookup(SimTime::from_secs(stored_at + late), &key(1)).is_some();
        prop_assert!(
            hit_early || !hit_late,
            "entry expired at +{early}s yet served at +{late}s (ttl {ttl_secs}s)"
        );
        // And expiry honours the TTL exactly.
        prop_assert_eq!(hit_early, early < ttl_secs);
    }

    // ----------------------------------------------------------------
    // Same seed, same operations: byte-identical admission decisions
    // ----------------------------------------------------------------

    #[test]
    fn same_seed_admission_is_byte_identical(
        capacity in 1usize..8,
        seed in 0u64..1_000,
        ops in ops(),
    ) {
        let (cache_a, decisions_a) = run_workload(capacity, 600, seed, &ops);
        let (cache_b, decisions_b) = run_workload(capacity, 600, seed, &ops);
        // The decision vectors compare byte-for-byte...
        let bytes_a: Vec<u8> = decisions_a.iter().map(|&d| u8::from(d)).collect();
        let bytes_b: Vec<u8> = decisions_b.iter().map(|&d| u8::from(d)).collect();
        prop_assert_eq!(bytes_a, bytes_b);
        // ...and so does every observable counter.
        prop_assert_eq!(cache_a.stats(), cache_b.stats());
        prop_assert_eq!(cache_a.l1_len(), cache_b.l1_len());
    }
}
