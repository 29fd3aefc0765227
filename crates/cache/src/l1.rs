//! L1: the in-memory LRU+TTL store, in virtual time.
//!
//! Entries live in a `BTreeMap` keyed by [`CacheKey`] (deterministic
//! iteration, no hash-order nondeterminism) with recency tracked by a
//! monotone logical tick — not wallclock, not insertion order. A second
//! `BTreeMap` indexes every entry's key by its (unique) last-touch tick,
//! so the least recently used entry is the index's first and eviction
//! is O(log n) rather than a scan of the whole store. Expiry is judged
//! against the caller-supplied [`SimTime`], so the store composes with
//! the simulation the same way the chaos plane's blob wrapper does:
//! time is an argument, never an ambient global.
//! Admission policy deliberately lives *outside* this type — the
//! store evicts whoever it is told to make room for; the sketch decides
//! whether making room is worth it. Each entry is the result's encoded
//! body: a hit hands out a reference-counted handle to the same bytes.

use std::collections::BTreeMap;

use bytes::Bytes;
use evop_sim::{SimDuration, SimTime};

use crate::key::CacheKey;

#[derive(Debug, Clone)]
struct Entry {
    body: Bytes,
    stored_at: SimTime,
    last_touch: u64,
}

/// Bounded LRU store with per-entry TTL in virtual time.
#[derive(Debug)]
pub struct LruTtlStore {
    capacity: usize,
    ttl: SimDuration,
    tick: u64,
    entries: BTreeMap<CacheKey, Entry>,
    /// The recency index: each entry's key under its `last_touch` tick,
    /// oldest first. Exactly one index entry per stored entry.
    recency: BTreeMap<u64, CacheKey>,
}

impl LruTtlStore {
    /// A store holding at most `capacity` entries (minimum 1), each fresh
    /// for `ttl` of virtual time after insertion.
    pub fn new(capacity: usize, ttl: SimDuration) -> LruTtlStore {
        LruTtlStore {
            capacity: capacity.max(1),
            ttl,
            tick: 0,
            entries: BTreeMap::new(),
            recency: BTreeMap::new(),
        }
    }

    /// Entries currently held (fresh or not-yet-collected expired).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Fetches a fresh entry, bumping its recency; an expired entry is
    /// removed and reported as a miss. Returns the body and its age.
    pub fn get(&mut self, now: SimTime, key: &CacheKey) -> Option<(Bytes, SimDuration)> {
        let entry = self.entries.get(key)?;
        if is_expired(entry.stored_at, self.ttl, now) {
            self.remove(key);
            return None;
        }
        self.tick += 1;
        let entry = self.entries.get_mut(key)?;
        let last_touch = std::mem::replace(&mut entry.last_touch, self.tick);
        retick(&mut self.recency, last_touch, self.tick);
        Some((entry.body.clone(), now.saturating_since(entry.stored_at)))
    }

    /// `true` when `key` is present and fresh at `now` (no recency bump).
    pub fn contains_fresh(&self, now: SimTime, key: &CacheKey) -> bool {
        self.entries.get(key).is_some_and(|e| !is_expired(e.stored_at, self.ttl, now))
    }

    /// Inserts (or refreshes) an entry, evicting the least recently used
    /// one if the store is full. Returns the evicted key, if any.
    /// Admission control happens before this call — by the time `insert`
    /// runs, the decision to displace the LRU victim has been made.
    pub fn insert(&mut self, now: SimTime, key: CacheKey, body: Bytes) -> Option<CacheKey> {
        self.tick += 1;
        let entry = Entry { body, stored_at: now, last_touch: self.tick };
        if let Some(existing) = self.entries.get_mut(&key) {
            let last_touch = std::mem::replace(existing, entry).last_touch;
            retick(&mut self.recency, last_touch, self.tick);
            return None;
        }
        let evicted = if self.entries.len() >= self.capacity {
            self.recency.pop_first().map(|(_, victim)| {
                self.entries.remove(&victim);
                victim
            })
        } else {
            None
        };
        self.recency.insert(self.tick, key.clone());
        self.entries.insert(key, entry);
        evicted
    }

    /// The current least-recently-used key — the admission gate's victim
    /// candidate. Ties are impossible: every touch gets a unique tick.
    pub fn lru_key(&self) -> Option<&CacheKey> {
        self.recency.first_key_value().map(|(_, key)| key)
    }

    /// Removes one entry.
    pub fn remove(&mut self, key: &CacheKey) -> bool {
        let Some(entry) = self.entries.remove(key) else { return false };
        self.recency.remove(&entry.last_touch);
        true
    }

    /// Drops every entry that has expired by `now`, returning the count.
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        let ttl = self.ttl;
        self.drop_where(|_, e| is_expired(e.stored_at, ttl, now))
    }

    /// Drops every entry whose key carries a data version other than
    /// `current` — the catalogue-update invalidation sweep. Returns the
    /// count dropped.
    pub fn retain_version(&mut self, current: u64) -> usize {
        self.drop_where(|k, _| k.data_version() != current)
    }

    /// Iterates stored keys in key order.
    pub fn keys(&self) -> impl Iterator<Item = &CacheKey> {
        self.entries.keys()
    }

    /// Drops every entry `doomed` selects, keeping the recency index
    /// exact. Returns the count dropped.
    fn drop_where(&mut self, mut doomed: impl FnMut(&CacheKey, &Entry) -> bool) -> usize {
        let before = self.entries.len();
        let recency = &mut self.recency;
        self.entries.retain(|k, e| {
            let drop = doomed(k, e);
            if drop {
                recency.remove(&e.last_touch);
            }
            !drop
        });
        before - self.entries.len()
    }
}

/// Moves the key indexed under tick `from` to tick `to`, without
/// cloning it.
fn retick(recency: &mut BTreeMap<u64, CacheKey>, from: u64, to: u64) {
    if let Some(key) = recency.remove(&from) {
        recency.insert(to, key);
    }
}

fn is_expired(stored_at: SimTime, ttl: SimDuration, now: SimTime) -> bool {
    match stored_at.checked_add(ttl) {
        Some(deadline) => now >= deadline,
        // TTL overflows virtual time: the entry never expires.
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn key(n: u64) -> CacheKey {
        CacheKey::new("p", "c", 1, &json!({ "n": n }))
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn hit_returns_value_and_age() {
        let mut store = LruTtlStore::new(4, SimDuration::from_secs(100));
        store.insert(t(10), key(1), Bytes::from("41"));
        let (value, age) = store.get(t(30), &key(1)).expect("fresh");
        assert_eq!(value, Bytes::from("41"));
        assert_eq!(age, SimDuration::from_secs(20));
    }

    #[test]
    fn entries_expire_at_ttl_boundary() {
        let mut store = LruTtlStore::new(4, SimDuration::from_secs(100));
        store.insert(t(0), key(1), Bytes::from("1"));
        assert!(store.get(t(99), &key(1)).is_some());
        assert!(store.get(t(100), &key(1)).is_none(), "expiry is inclusive at the deadline");
        assert!(store.is_empty(), "expired entries are collected on access");
    }

    #[test]
    fn eviction_picks_least_recently_used() {
        let mut store = LruTtlStore::new(2, SimDuration::from_secs(1000));
        store.insert(t(0), key(1), Bytes::from("1"));
        store.insert(t(1), key(2), Bytes::from("2"));
        // Touch 1 so 2 becomes LRU.
        assert!(store.get(t(2), &key(1)).is_some());
        let evicted = store.insert(t(3), key(3), Bytes::from("3"));
        assert_eq!(evicted, Some(key(2)));
        assert!(store.contains_fresh(t(3), &key(1)));
        assert!(store.contains_fresh(t(3), &key(3)));
    }

    #[test]
    fn refresh_does_not_evict() {
        let mut store = LruTtlStore::new(2, SimDuration::from_secs(1000));
        store.insert(t(0), key(1), Bytes::from("1"));
        store.insert(t(1), key(2), Bytes::from("2"));
        assert_eq!(store.insert(t(2), key(1), Bytes::from("10")), None);
        assert_eq!(store.len(), 2);
        let (value, _) = store.get(t(3), &key(1)).expect("refreshed");
        assert_eq!(value, Bytes::from("10"));
    }

    #[test]
    fn retain_version_sweeps_stale_generations() {
        let mut store = LruTtlStore::new(8, SimDuration::from_secs(1000));
        store.insert(t(0), CacheKey::new("p", "c", 1, &json!({})), Bytes::from("1"));
        store.insert(t(0), CacheKey::new("p", "c", 2, &json!({})), Bytes::from("2"));
        assert_eq!(store.retain_version(2), 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn purge_expired_collects_in_bulk() {
        let mut store = LruTtlStore::new(8, SimDuration::from_secs(10));
        store.insert(t(0), key(1), Bytes::from("1"));
        store.insert(t(5), key(2), Bytes::from("2"));
        assert_eq!(store.purge_expired(t(12)), 1);
        assert_eq!(store.len(), 1);
    }
}
