//! Integration tests for the cache plane: chaos-injected L2 faults, the
//! observatory WPS wiring, and the hit-ratio SLO's alert path.

use std::sync::Arc;

use evop_cache::{
    hit_ratio_slo, BlobBackend, CacheConfig, CacheKey, CachePolicy, ResultCache, Tier,
};
use evop_chaos::{ChaosBlobStore, ChaosEngine, FaultKind, FaultSchedule};
use evop_core::Evop;
use evop_obs::{AlertEngine, AlertKind};
use evop_sim::{SimDuration, SimTime};
use evop_xcloud::BlobStore;
use serde_json::json;

/// A result body well over the spill threshold.
fn big_result() -> String {
    json!({ "series": (0..200).collect::<Vec<u32>>() }).to_string()
}

fn l1l2_cache(backend: Box<dyn BlobBackend>) -> ResultCache {
    ResultCache::new(CacheConfig {
        policy: CachePolicy::L1L2,
        l1_capacity: 2,
        l2_spill_bytes: 32,
        ttl: SimDuration::from_secs(10_000),
        ..CacheConfig::default()
    })
    .with_l2(backend)
}

/// Pushes `key` out of L1 by making two filler keys demonstrably hotter
/// (the TinyLFU gate refuses cold newcomers) and inserting them.
fn evict_from_l1(cache: &mut ResultCache, at: SimTime) {
    for name in ["filler-a", "filler-b"] {
        let filler = CacheKey::new(name, "x", 1, &json!({}));
        for _ in 0..3 {
            cache.lookup(at, &filler);
        }
        cache.insert(at, filler, |_| "0".into());
    }
}

#[test]
fn chaos_corruption_window_turns_l2_hits_into_misses() {
    let schedule = FaultSchedule::named("bitrot").window(
        100,
        200,
        FaultKind::BlobCorruption { container: "evop-cache-l2".to_owned(), probability: 1.0 },
    );
    let chaos = ChaosBlobStore::new(BlobStore::new(), ChaosEngine::new(schedule, 9));
    let mut cache = l1l2_cache(Box::new(chaos));
    let key = CacheKey::new("topmodel", "eden", 1, &json!({ "hours": 24 }));

    cache.insert(SimTime::from_secs(0), key.clone(), |_| big_result().into());
    assert_eq!(cache.l2_len(), 1);
    // Push the key out of L1 so the lookup must go to L2.
    evict_from_l1(&mut cache, SimTime::from_secs(1));

    // Inside the corruption window the blob comes back corrupt: the cache
    // must treat it as a miss and drop the index entry — never serve it.
    assert!(cache.lookup(SimTime::from_secs(150), &key).is_none());
    assert_eq!(cache.stats().corrupt_rejected, 1);
    assert_eq!(cache.l2_len(), 0, "a corrupt object must leave the index");
}

#[test]
fn chaos_outage_invalidates_the_l2_index_then_recovers() {
    let schedule = FaultSchedule::named("outage").window(
        100,
        300,
        FaultKind::BlobOutage { container: "evop-cache-l2".to_owned() },
    );
    let chaos = ChaosBlobStore::new(BlobStore::new(), ChaosEngine::new(schedule, 9));
    let mut cache = l1l2_cache(Box::new(chaos));
    let key = CacheKey::new("topmodel", "eden", 1, &json!({ "hours": 24 }));

    cache.insert(SimTime::from_secs(0), key.clone(), |_| big_result().into());
    evict_from_l1(&mut cache, SimTime::from_secs(1));

    // During the outage nothing in L2 can be verified: the index drops.
    assert!(cache.lookup(SimTime::from_secs(200), &key).is_none());
    assert_eq!(cache.stats().outage_invalidated, 1);
    assert_eq!(cache.l2_len(), 0);

    // After recovery the entry is gone (a miss, recomputed), and a fresh
    // insert round-trips through L2 again. The hot fillers still own L1,
    // so the admission gate keeps the re-insert out of L1 and the hit
    // must come from the blob tier.
    assert!(cache.lookup(SimTime::from_secs(500), &key).is_none());
    cache.insert(SimTime::from_secs(500), key.clone(), |_| big_result().into());
    let hit = cache.lookup(SimTime::from_secs(502), &key).expect("post-outage L2 hit");
    assert_eq!(hit.tier, Tier::L2);
}

#[test]
fn observatory_cache_policy_is_transparent_to_rest_callers() {
    // Same seed, cache on vs off: callers see identical results.
    let cached = Evop::builder().seed(11).days(5).cache_policy(CachePolicy::L1).build();
    let plain = Evop::builder().seed(11).days(5).build();
    let id = cached.catchments()[0].id().clone();

    let from_cached = cached.wps(&id).unwrap().execute("topmodel", json!({})).unwrap();
    let from_plain = plain.wps(&id).unwrap().execute("topmodel", json!({})).unwrap();
    assert_eq!(from_cached, from_plain, "caching must never change a result");

    // The second execution is a hit and still byte-identical.
    let again = cached.wps(&id).unwrap().execute("topmodel", json!({})).unwrap();
    assert_eq!(again, from_plain);
    assert_eq!(cached.cache_stats().expect("cache on").l1_hits, 1);
}

#[test]
fn hit_ratio_slo_fires_when_the_cache_goes_cold() {
    let mut evop = Evop::builder().seed(3).days(5).cache_policy(CachePolicy::L1).build();
    let id = evop.catchments()[0].id().clone();
    let mut engine = AlertEngine::new(evop.metrics().clone());
    engine.add_slo(hit_ratio_slo(0.9));

    // Warm phase: one miss then repeated hits — the SLO stays healthy.
    for _ in 0..10 {
        evop.wps(&id).unwrap().execute("topmodel", json!({})).unwrap();
    }
    for s in 0..10 {
        engine.tick(SimTime::from_secs(s * 600));
    }
    assert!(engine.alerts().is_empty(), "90% hits must not burn the budget");

    // Every catalogue update invalidates the generation: from here on each
    // distinct request misses, and the burn-rate alert fires.
    for round in 0..60u64 {
        evop.catalog_mut().touch_data();
        evop.sync_cache();
        evop.wps(&id).unwrap().execute("topmodel", json!({})).unwrap();
        engine.tick(SimTime::from_secs(6000 + round * 600));
    }
    assert!(
        engine.alerts().iter().any(|a| a.kind == AlertKind::Fired && a.slo == "cache-hit-ratio"),
        "sustained misses must fire the hit-ratio alert; alerts: {:?}",
        engine.alerts()
    );
}

#[test]
fn wps_cache_hook_is_removable() {
    use evop_cache::{DataVersion, VirtualClock, WpsResultCache};
    use parking_lot::Mutex;

    let mut evop = Evop::builder().seed(5).days(5).build();
    let id = evop.catchments()[0].id().clone();
    let plane = Arc::new(Mutex::new(ResultCache::new(CacheConfig::default())));
    let adapter = Arc::new(WpsResultCache::new(
        plane.clone(),
        VirtualClock::new(),
        DataVersion::new(),
        id.to_string(),
    ));

    evop.wps_mut(&id).unwrap().set_cache(adapter);
    evop.wps(&id).unwrap().execute("topmodel", json!({})).unwrap();
    evop.wps(&id).unwrap().execute("topmodel", json!({})).unwrap();
    assert_eq!(plane.lock().stats().l1_hits, 1);

    evop.wps_mut(&id).unwrap().clear_cache();
    evop.wps(&id).unwrap().execute("topmodel", json!({})).unwrap();
    assert_eq!(plane.lock().stats().l1_hits, 1, "a detached cache sees no more traffic");
}
