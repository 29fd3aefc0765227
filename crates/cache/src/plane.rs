//! The assembled cache plane: policy, tiers, admission, invalidation.
//!
//! [`ResultCache`] is what everything else holds: an L1
//! [`LruTtlStore`](crate::l1::LruTtlStore) guarded by a
//! [`FrequencySketch`](crate::sketch::FrequencySketch) admission gate,
//! optionally backed by an L2 blob tier reached through the
//! [`BlobBackend`] seam (the plain in-memory store, or the chaos plane's
//! fault-injecting wrapper — the cache cannot tell and must not care).
//! Every L2 read is integrity-checked against the content hash remembered
//! at spill time; a corrupt or unavailable object is *never* served, it
//! is a miss. Both tiers hold a result as its compact JSON body, the bytes
//! a client receives, so neither a hit nor a promotion re-encodes it.
//! Counters and the age-at-hit histogram go to `evop-obs`, and
//! [`hit_ratio_slo`] turns them into a burn-rate-judged objective.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use bytes::Bytes;
use evop_obs::{AlertSeverity, MetricsRegistry, Selector, SloSpec};
use evop_sim::{SimDuration, SimTime};
use evop_xcloud::{Blob, BlobStore, BlobStoreError};
use serde_json::{json, Value};

use crate::key::CacheKey;
use crate::l1::LruTtlStore;
use crate::sketch::FrequencySketch;

/// How much caching a deployment wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// No caching: every request runs the model.
    Off,
    /// In-memory L1 only.
    #[default]
    L1,
    /// L1 plus blob-store L2 spill for large results.
    L1L2,
}

impl CachePolicy {
    /// Lower-case label used in logs, flags and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            CachePolicy::Off => "off",
            CachePolicy::L1 => "l1",
            CachePolicy::L1L2 => "l1+l2",
        }
    }
}

impl fmt::Display for CachePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for CachePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<CachePolicy, String> {
        match s {
            "off" => Ok(CachePolicy::Off),
            "l1" => Ok(CachePolicy::L1),
            "l1+l2" | "l1l2" => Ok(CachePolicy::L1L2),
            other => Err(format!("unknown cache policy {other:?} (off, l1, l1+l2)")),
        }
    }
}

/// The L2 seam: anything that stores and fetches blobs in virtual time.
///
/// Implemented here for the plain [`BlobStore`]; `evop-chaos` implements
/// it for `ChaosBlobStore`, which is how outages and corruption reach the
/// cache without the cache depending on the chaos plane's internals.
pub trait BlobBackend: Send {
    /// Creates `container` if it does not exist.
    fn ensure_container(&mut self, container: &str);

    /// Stores a blob at virtual time `now`.
    ///
    /// # Errors
    ///
    /// [`BlobStoreError`] as the backing store reports it.
    fn put(
        &mut self,
        now: SimTime,
        container: &str,
        key: &str,
        blob: Blob,
    ) -> Result<(), BlobStoreError>;

    /// Fetches a blob at virtual time `now`.
    ///
    /// # Errors
    ///
    /// [`BlobStoreError`] as the backing store reports it.
    fn get(&mut self, now: SimTime, container: &str, key: &str) -> Result<Blob, BlobStoreError>;
}

impl BlobBackend for BlobStore {
    fn ensure_container(&mut self, container: &str) {
        self.create_container(container);
    }

    fn put(
        &mut self,
        _now: SimTime,
        container: &str,
        key: &str,
        blob: Blob,
    ) -> Result<(), BlobStoreError> {
        BlobStore::put(self, container, key, blob).map(|_| ())
    }

    fn get(&mut self, _now: SimTime, container: &str, key: &str) -> Result<Blob, BlobStoreError> {
        BlobStore::get(self, container, key).cloned()
    }
}

/// Configuration for one [`ResultCache`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Which tiers are live.
    pub policy: CachePolicy,
    /// L1 entry bound.
    pub l1_capacity: usize,
    /// Freshness window for both tiers, in virtual time.
    pub ttl: SimDuration,
    /// Seed for the admission sketch's hashing.
    pub seed: u64,
    /// L2 container name.
    pub l2_container: String,
    /// Results whose JSON body is at least this long spill to L2.
    pub l2_spill_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            policy: CachePolicy::L1,
            l1_capacity: 256,
            ttl: SimDuration::from_secs(3600),
            seed: 42,
            l2_container: String::from("evop-cache-l2"),
            l2_spill_bytes: 256,
        }
    }
}

/// Which tier answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// In-memory LRU.
    L1,
    /// Blob-store spill.
    L2,
}

impl Tier {
    /// Lower-case metric label.
    pub fn label(&self) -> &'static str {
        match self {
            Tier::L1 => "l1",
            Tier::L2 => "l2",
        }
    }
}

/// A successful lookup: the cached body, its age, and the serving tier.
#[derive(Debug, Clone)]
pub struct Hit {
    /// The cached result as compact JSON, shared with the cache.
    pub body: Bytes,
    /// Virtual time since the result was stored.
    pub age: SimDuration,
    /// Which tier served it.
    pub tier: Tier,
}

/// Running totals, mirrored into the metrics registry when one is set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits (promoted into L1 on the way out).
    pub l2_hits: u64,
    /// Misses recorded via [`ResultCache::note_miss`] or L2 failure paths.
    pub misses: u64,
    /// Inserts refused by the frequency-sketch admission gate.
    pub admission_rejected: u64,
    /// Entries dropped because their data version went stale.
    pub stale_invalidated: u64,
    /// L2 objects refused for failing their integrity check.
    pub corrupt_rejected: u64,
    /// L2 index entries dropped because the backing store was down.
    pub outage_invalidated: u64,
}

impl CacheStats {
    /// Deterministic JSON for reports.
    pub fn to_json(&self) -> Value {
        json!({
            "l1_hits": self.l1_hits,
            "l2_hits": self.l2_hits,
            "misses": self.misses,
            "admission_rejected": self.admission_rejected,
            "stale_invalidated": self.stale_invalidated,
            "corrupt_rejected": self.corrupt_rejected,
            "outage_invalidated": self.outage_invalidated,
        })
    }
}

#[derive(Debug, Clone, Copy)]
struct L2Entry {
    content_hash: u64,
    stored_at: SimTime,
}

/// The deterministic two-tier result cache.
pub struct ResultCache {
    config: CacheConfig,
    l1: LruTtlStore,
    sketch: FrequencySketch,
    l2: Option<Box<dyn BlobBackend>>,
    l2_index: BTreeMap<CacheKey, L2Entry>,
    metrics: Option<MetricsRegistry>,
    stats: CacheStats,
}

impl fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultCache")
            .field("policy", &self.config.policy)
            .field("l1_len", &self.l1.len())
            .field("l2_index_len", &self.l2_index.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl ResultCache {
    /// Builds a cache; attach an L2 backend with [`ResultCache::with_l2`]
    /// when the policy wants one.
    pub fn new(config: CacheConfig) -> ResultCache {
        let l1 = LruTtlStore::new(config.l1_capacity, config.ttl);
        let sketch = FrequencySketch::new(config.l1_capacity, config.seed);
        ResultCache {
            config,
            l1,
            sketch,
            l2: None,
            l2_index: BTreeMap::new(),
            metrics: None,
            stats: CacheStats::default(),
        }
    }

    /// Attaches the L2 blob backend (builder style), creating the spill
    /// container.
    pub fn with_l2(mut self, mut backend: Box<dyn BlobBackend>) -> ResultCache {
        backend.ensure_container(&self.config.l2_container);
        self.l2 = Some(backend);
        self
    }

    /// Attaches a metrics registry; all counters and the age histogram
    /// flow into it from then on.
    pub fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.metrics = Some(metrics);
    }

    /// The active policy.
    pub fn policy(&self) -> CachePolicy {
        self.config.policy
    }

    /// Running totals.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Entries currently in L1.
    pub fn l1_len(&self) -> usize {
        self.l1.len()
    }

    /// Entries currently indexed in L2.
    pub fn l2_len(&self) -> usize {
        self.l2_index.len()
    }

    /// Looks `key` up at virtual time `now`: L1 first, then (policy
    /// permitting) L2 with an integrity check and promotion into L1.
    ///
    /// A hit counts `cache_requests_total{outcome="hit"}`; a miss counts
    /// nothing here — the caller decides whether the miss becomes a
    /// coalesced follower (the coalescer counts it) or a real model run
    /// ([`ResultCache::note_miss`] counts it). That keeps exactly one
    /// outcome per request in the hit-ratio denominator.
    pub fn lookup(&mut self, now: SimTime, key: &CacheKey) -> Option<Hit> {
        if self.config.policy == CachePolicy::Off {
            return None;
        }
        self.sketch.touch(key.fingerprint());
        if let Some((body, age)) = self.l1.get(now, key) {
            self.stats.l1_hits += 1;
            self.count_hit(Tier::L1, age);
            return Some(Hit { body, age, tier: Tier::L1 });
        }
        if self.config.policy == CachePolicy::L1L2 {
            return self.lookup_l2(now, key);
        }
        None
    }

    fn lookup_l2(&mut self, now: SimTime, key: &CacheKey) -> Option<Hit> {
        let entry = *self.l2_index.get(key)?;
        if let Some(deadline) = entry.stored_at.checked_add(self.config.ttl) {
            if now >= deadline {
                self.l2_index.remove(key);
                return None;
            }
        }
        let container = self.config.l2_container.clone();
        let blob_key = key.blob_key();
        let fetched = self.l2.as_mut()?.get(now, &container, &blob_key);
        match fetched {
            Ok(blob) => {
                if blob.content_hash() != entry.content_hash {
                    // Silent corruption: the bytes changed under us.
                    self.reject_corrupt(key);
                    return None;
                }
                match serde_json::from_slice::<Value>(blob.data()) {
                    Ok(_) => {
                        let age = now.saturating_since(entry.stored_at);
                        self.stats.l2_hits += 1;
                        self.count_hit(Tier::L2, age);
                        // Promote: the next ask should be an L1 hit.
                        let body = blob.data().clone();
                        self.l1.insert(now, key.clone(), body.clone());
                        Some(Hit { body, age, tier: Tier::L2 })
                    }
                    Err(_) => {
                        // Hash matched but the payload is not JSON: treat
                        // exactly like corruption, never serve it.
                        self.reject_corrupt(key);
                        None
                    }
                }
            }
            Err(BlobStoreError::Corrupted { .. }) => {
                // Detected corruption (the chaos plane's injected case).
                self.reject_corrupt(key);
                None
            }
            Err(BlobStoreError::TransientlyUnavailable { .. }) => {
                // The whole backing store is down: drop the entire index
                // rather than trusting entries we can no longer verify.
                let dropped = self.l2_index.len() as u64;
                self.l2_index.clear();
                self.stats.outage_invalidated += dropped;
                if let Some(metrics) = &self.metrics {
                    metrics.add_counter(
                        "cache_invalidations_total",
                        &[("reason", "outage")],
                        dropped,
                    );
                }
                None
            }
            Err(_) => {
                // Missing container/key: the index lied; fix it.
                self.l2_index.remove(key);
                None
            }
        }
    }

    /// Records that a request missed the cache and went to a real model
    /// run — the leader path. See [`ResultCache::lookup`] for why misses
    /// are counted by the caller.
    pub fn note_miss(&mut self) {
        self.stats.misses += 1;
        if let Some(metrics) = &self.metrics {
            metrics.inc_counter("cache_requests_total", &[("outcome", "miss")]);
        }
    }

    /// Offers a computed result for caching. Returns `true` when the
    /// entry was admitted to L1. Large results also spill to L2 under an
    /// `L1L2` policy, keyed by content-hashed blob keys.
    ///
    /// `render` produces the result's compact JSON body from its key. It
    /// runs once when the entry is admitted to L1 or offered to L2, and
    /// not at all when the admission gate refuses an L1-only insert.
    pub fn insert(
        &mut self,
        now: SimTime,
        key: CacheKey,
        render: impl FnOnce(&CacheKey) -> Bytes,
    ) -> bool {
        if self.config.policy == CachePolicy::Off {
            return false;
        }
        let admitted = self.admits(now, &key);
        let spills = self.config.policy == CachePolicy::L1L2 && self.l2.is_some();
        if !admitted && !spills {
            return false;
        }
        let body = render(&key);
        if spills {
            self.spill(now, &key, &body);
        }
        if admitted {
            self.l1.insert(now, key, body);
        }
        admitted
    }

    /// The admission decision for `key`, counting a refusal.
    fn admits(&mut self, now: SimTime, key: &CacheKey) -> bool {
        let full = self.l1.len() >= self.l1.capacity() && !self.l1.contains_fresh(now, key);
        if full {
            if let Some(victim) = self.l1.lru_key() {
                // TinyLFU gate: a newcomer must be strictly more popular
                // than the entry it would evict. One-off queries lose to
                // any entry that has been asked for twice.
                if self.sketch.estimate(key.fingerprint())
                    <= self.sketch.estimate(victim.fingerprint())
                {
                    self.stats.admission_rejected += 1;
                    if let Some(metrics) = &self.metrics {
                        metrics.inc_counter("cache_admission_rejected_total", &[]);
                    }
                    return false;
                }
            }
        }
        true
    }

    fn spill(&mut self, now: SimTime, key: &CacheKey, body: &Bytes) {
        if body.len() < self.config.l2_spill_bytes {
            return;
        }
        let blob = Blob::new(body.clone(), "application/json");
        let content_hash = blob.content_hash();
        let container = self.config.l2_container.clone();
        let blob_key = key.blob_key();
        let stored = match self.l2.as_mut() {
            Some(backend) => backend.put(now, &container, &blob_key, blob),
            None => return,
        };
        match stored {
            Ok(()) => {
                self.l2_index.insert(key.clone(), L2Entry { content_hash, stored_at: now });
            }
            Err(_) => {
                // A failed spill is not an error for the caller: the
                // result was still computed and served. L2 just stays
                // cold for this key.
                if let Some(metrics) = &self.metrics {
                    metrics.inc_counter("cache_l2_spill_failed_total", &[]);
                }
            }
        }
    }

    /// Drops every entry (both tiers' indexes) whose data version differs
    /// from `current` — call after a catalogue update. Returns the count.
    pub fn invalidate_stale_versions(&mut self, current: u64) -> usize {
        let from_l1 = self.l1.retain_version(current);
        let before = self.l2_index.len();
        self.l2_index.retain(|k, _| k.data_version() == current);
        let dropped = from_l1 + (before - self.l2_index.len());
        self.stats.stale_invalidated += dropped as u64;
        if let Some(metrics) = &self.metrics {
            metrics.add_counter(
                "cache_invalidations_total",
                &[("reason", "data-update")],
                dropped as u64,
            );
        }
        dropped
    }

    /// Collects expired L1 entries in bulk (expiry also happens lazily on
    /// access). Returns the count dropped.
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        self.l1.purge_expired(now)
    }

    fn count_hit(&mut self, tier: Tier, age: SimDuration) {
        if let Some(metrics) = &self.metrics {
            metrics.inc_counter("cache_requests_total", &[("outcome", "hit")]);
            metrics.inc_counter("cache_tier_hits_total", &[("tier", tier.label())]);
            metrics.observe("cache_hit_age_seconds", &[], age.as_secs_f64());
        }
    }

    fn reject_corrupt(&mut self, key: &CacheKey) {
        self.l2_index.remove(key);
        self.stats.corrupt_rejected += 1;
        if let Some(metrics) = &self.metrics {
            metrics.inc_counter("cache_invalidations_total", &[("reason", "corrupt")]);
        }
    }
}

/// The cache-hit-ratio SLO: hits *and* coalesced followers both count as
/// served-without-a-model-run, judged against every classified request.
/// Windowed for burn-rate alerting like the broker availability SLO.
pub fn hit_ratio_slo(target: f64) -> SloSpec {
    SloSpec::availability_any(
        "cache-hit-ratio",
        target,
        &[
            Selector::new("cache_requests_total", &[("outcome", "hit")]),
            Selector::new("cache_requests_total", &[("outcome", "follower")]),
        ],
        "cache_requests_total",
    )
    .window(3600, 300, 2.0, AlertSeverity::Ticket)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn key(n: u64) -> CacheKey {
        CacheKey::new("topmodel", "eden", 1, &json!({ "n": n }))
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A render closure for `value`'s body.
    fn encoded(value: &Value) -> impl FnOnce(&CacheKey) -> Bytes {
        let body = Bytes::from(value.to_string());
        move |_| body
    }

    fn l1_cache(capacity: usize) -> ResultCache {
        ResultCache::new(CacheConfig {
            l1_capacity: capacity,
            ttl: SimDuration::from_secs(1000),
            ..CacheConfig::default()
        })
    }

    #[test]
    fn off_policy_never_stores_or_serves() {
        let mut cache =
            ResultCache::new(CacheConfig { policy: CachePolicy::Off, ..CacheConfig::default() });
        assert!(!cache.insert(t(0), key(1), |_| unreachable!("off never renders")));
        assert!(cache.lookup(t(1), &key(1)).is_none());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn l1_round_trip_counts_hit() {
        let mut cache = l1_cache(4);
        let metrics = MetricsRegistry::new();
        cache.set_metrics(metrics.clone());
        cache.insert(t(0), key(1), encoded(&json!({"q": 7})));
        let hit = cache.lookup(t(30), &key(1)).expect("hit");
        assert_eq!(hit.body, br#"{"q":7}"#[..]);
        assert_eq!(hit.tier, Tier::L1);
        assert_eq!(hit.age, SimDuration::from_secs(30));
        assert_eq!(metrics.counter("cache_requests_total", &[("outcome", "hit")]), 1);
        assert_eq!(metrics.counter("cache_tier_hits_total", &[("tier", "l1")]), 1);
        assert_eq!(metrics.observations("cache_hit_age_seconds", &[]), 1);
    }

    #[test]
    fn one_off_queries_cannot_evict_hot_entries() {
        let mut cache = l1_cache(2);
        // Make 1 and 2 hot.
        for _ in 0..3 {
            cache.lookup(t(0), &key(1));
            cache.lookup(t(0), &key(2));
        }
        cache.insert(t(1), key(1), encoded(&json!(1)));
        cache.insert(t(1), key(2), encoded(&json!(2)));
        // A drive-by insert must be rejected, leaving the hot pair alone.
        assert!(!cache.insert(t(2), key(99), encoded(&json!(99))));
        assert!(cache.lookup(t(3), &key(1)).is_some());
        assert!(cache.lookup(t(3), &key(2)).is_some());
        assert!(cache.lookup(t(3), &key(99)).is_none());
        assert_eq!(cache.stats().admission_rejected, 1);
    }

    #[test]
    fn repeatedly_requested_newcomer_displaces_cold_victim() {
        let mut cache = l1_cache(2);
        cache.insert(t(0), key(1), encoded(&json!(1)));
        cache.insert(t(0), key(2), encoded(&json!(2)));
        // Key 3 becomes demonstrably hotter than the LRU victim.
        for _ in 0..5 {
            cache.lookup(t(1), &key(3));
        }
        assert!(cache.insert(t(2), key(3), encoded(&json!(3))));
        assert!(cache.lookup(t(3), &key(3)).is_some());
    }

    #[test]
    fn l2_spill_and_integrity_checked_read_back() {
        let big = json!({ "series": (0..100).collect::<Vec<u32>>() });
        let mut cache = ResultCache::new(CacheConfig {
            policy: CachePolicy::L1L2,
            l1_capacity: 2,
            l2_spill_bytes: 16,
            ..CacheConfig::default()
        })
        .with_l2(Box::new(BlobStore::new()));
        cache.insert(t(0), key(1), encoded(&big));
        assert_eq!(cache.l2_len(), 1);
        // Simulate L1 loss (e.g. restart): the entry must come back from
        // L2 and be promoted.
        cache.l1.remove(&key(1));
        let hit = cache.lookup(t(10), &key(1)).expect("l2 hit");
        assert_eq!(hit.tier, Tier::L2);
        assert_eq!(hit.body, big.to_string().as_bytes(), "the spilled bytes, as rendered");
        let hit2 = cache.lookup(t(11), &key(1)).expect("promoted");
        assert_eq!(hit2.tier, Tier::L1);
        assert_eq!(hit2.body, hit.body);
    }

    #[test]
    fn tampered_l2_object_is_a_miss_never_served() {
        let big = json!({ "series": (0..100).collect::<Vec<u32>>() });
        let mut store = BlobStore::new();
        store.create_container("evop-cache-l2");
        let mut cache = ResultCache::new(CacheConfig {
            policy: CachePolicy::L1L2,
            l2_spill_bytes: 16,
            ..CacheConfig::default()
        })
        .with_l2(Box::new(store));
        cache.insert(t(0), key(1), encoded(&big));
        cache.l1.remove(&key(1));
        // Overwrite the blob behind the cache's back.
        if let Some(backend) = cache.l2.as_mut() {
            backend
                .put(t(1), "evop-cache-l2", &key(1).blob_key(), Blob::from("{\"evil\":true}"))
                .expect("direct overwrite");
        }
        assert!(cache.lookup(t(2), &key(1)).is_none());
        assert_eq!(cache.stats().corrupt_rejected, 1);
        // The index entry is gone: the next lookup is a clean miss.
        assert!(cache.lookup(t(3), &key(1)).is_none());
    }

    #[test]
    fn insert_renders_only_what_a_tier_keeps() {
        let renders = std::cell::Cell::new(0);
        let render = |key: &CacheKey| {
            renders.set(renders.get() + 1);
            Bytes::from(json!(key.render()).to_string())
        };
        // L1 only: the admitted pair renders once each; the refused
        // drive-by never renders, and is still counted as refused.
        let mut cache = l1_cache(2);
        for _ in 0..3 {
            cache.lookup(t(0), &key(1));
            cache.lookup(t(0), &key(2));
        }
        assert!(cache.insert(t(1), key(1), render));
        assert!(cache.insert(t(1), key(2), render));
        assert_eq!(renders.get(), 2);
        assert!(!cache.insert(t(2), key(99), render));
        assert_eq!(renders.get(), 2, "a refused L1-only insert never renders");
        assert_eq!(cache.stats().admission_rejected, 1);

        // L1 + L2: a refused insert is still offered to L2, so it renders
        // once; an admitted one renders once for both tiers.
        let mut cache = ResultCache::new(CacheConfig {
            policy: CachePolicy::L1L2,
            l1_capacity: 1,
            l2_spill_bytes: 1,
            ..CacheConfig::default()
        })
        .with_l2(Box::new(BlobStore::new()));
        renders.set(0);
        cache.lookup(t(0), &key(1));
        assert!(cache.insert(t(1), key(1), render));
        assert_eq!(renders.get(), 1);
        assert!(!cache.insert(t(2), key(2), render));
        assert_eq!(renders.get(), 2);
        assert_eq!(cache.stats().admission_rejected, 1);
        assert_eq!(cache.l2_len(), 2);
        let spilled = cache.lookup(t(3), &key(2)).expect("served from L2");
        assert_eq!(spilled.body, json!(key(2).render()).to_string().as_bytes());
    }

    #[test]
    fn catalog_version_bump_invalidates_stale_entries() {
        let mut cache = l1_cache(8);
        cache.insert(t(0), CacheKey::new("p", "c", 1, &json!({})), encoded(&json!(1)));
        cache.insert(t(0), CacheKey::new("p", "c", 2, &json!({})), encoded(&json!(2)));
        assert_eq!(cache.invalidate_stale_versions(2), 1);
        assert!(cache.lookup(t(1), &CacheKey::new("p", "c", 1, &json!({}))).is_none());
        assert!(cache.lookup(t(1), &CacheKey::new("p", "c", 2, &json!({}))).is_some());
    }

    #[test]
    fn policy_parses_and_renders() {
        for (s, p) in
            [("off", CachePolicy::Off), ("l1", CachePolicy::L1), ("l1+l2", CachePolicy::L1L2)]
        {
            assert_eq!(s.parse::<CachePolicy>().expect("parses"), p);
            assert_eq!(p.to_string(), s);
        }
        assert_eq!("l1l2".parse::<CachePolicy>().expect("alias"), CachePolicy::L1L2);
        assert!("both".parse::<CachePolicy>().is_err());
    }

    #[test]
    fn hit_ratio_slo_counts_followers_as_good() {
        let metrics = MetricsRegistry::new();
        let slo = hit_ratio_slo(0.9);
        assert_eq!(slo.name(), "cache-hit-ratio");
        // 9 served (5 hits + 4 followers) of 10 classified = 0.9.
        for _ in 0..5 {
            metrics.inc_counter("cache_requests_total", &[("outcome", "hit")]);
        }
        for _ in 0..4 {
            metrics.inc_counter("cache_requests_total", &[("outcome", "follower")]);
        }
        metrics.inc_counter("cache_requests_total", &[("outcome", "miss")]);
        let good = metrics.counter("cache_requests_total", &[("outcome", "hit")])
            + metrics.counter("cache_requests_total", &[("outcome", "follower")]);
        assert_eq!(good, 9);
        assert_eq!(metrics.counter_family_total("cache_requests_total"), 10);
    }
}
