//! The E6 flash crowd, re-run against the cache plane.
//!
//! Three configurations of the same 40-user single-burst crowd:
//!
//! * **cold** — no warm pool, no cache (the E6 baseline);
//! * **warm** — a pre-bootstrapped pool of 4 (the E6 mitigation);
//! * **coalesced** — a warm pool of **1** plus the `evop-cache` plane:
//!   the first request leads a real model run, the other 39 attach as
//!   singleflight followers, and a repeat wave 300 virtual seconds later
//!   is served straight from L1.
//!
//! Everything runs in virtual time from one seed, so the whole report is
//! a pure function of `(schedule, seed)` — `tests/cache_golden.rs` pins
//! the canonical JSON byte-for-byte and asserts the headline claims
//! (≥ 90 % of requests served without a model run, follower TTFR under
//! the warm baseline's 180 s, cost under the warm baseline's $0.48).

use evop_broker::{Broker, BrokerConfig, BrokerEvent};
use evop_cache::{CacheConfig, CacheKey, CacheStats, Coalescer, ResultCache, Submission};
use evop_cloud::JobState;
use evop_core::experiments::{e6_flash_crowd, E6Config, E6Result};
use evop_sim::stats::Percentiles;
use evop_sim::SimDuration;
use serde_json::{json, Value};

/// Warm-pool size of the coalesced configuration: one instance is all the
/// leader needs; followers never touch the cloud.
pub const COALESCED_WARM_POOL: u32 = 1;

/// Virtual seconds between the burst and the repeat (L1) wave.
const REPEAT_WAVE_DELAY_SECS: u64 = 300;

/// Rounds to 4 decimal places so the golden JSON stays tidy.
fn round4(x: f64) -> f64 {
    (x * 10_000.0).round() / 10_000.0
}

/// What the coalesced configuration measured.
#[derive(Debug, Clone)]
pub struct CoalescedOutcome {
    /// Warm-pool size used.
    pub warm_pool: u32,
    /// Classified requests (burst + repeat wave).
    pub requests: u64,
    /// Requests that led a real model run.
    pub misses: u64,
    /// Requests that attached to the in-flight run.
    pub followers: u64,
    /// Repeat-wave requests served from L1.
    pub hits: u64,
    /// Leader's time from burst to first result, virtual seconds.
    pub leader_ttfr_secs: f64,
    /// Median follower time-to-first-result, virtual seconds.
    pub follower_median_ttfr_secs: f64,
    /// 95th-percentile follower time-to-first-result, virtual seconds.
    pub follower_p95_ttfr_secs: f64,
    /// Age of the cached entry when the repeat wave hit it, seconds.
    pub hit_age_secs: f64,
    /// `RequestCoalesced` events in the broker log.
    pub coalesced_events: u64,
    /// Total cloud cost over the same horizon as the baselines.
    pub cost: f64,
    /// Cache-plane totals at the end of the run.
    pub stats: CacheStats,
}

impl CoalescedOutcome {
    /// Share of requests served without a model run (hits + followers).
    pub fn served_without_run_ratio(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        (self.hits + self.followers) as f64 / self.requests as f64
    }
}

/// The full cold / warm / coalesced comparison for one `(crowd, seed)`.
#[derive(Debug, Clone)]
pub struct CacheReport {
    /// Seed that drove all three runs.
    pub seed: u64,
    /// Users in the burst.
    pub crowd: usize,
    /// E6 baseline without a warm pool.
    pub cold: E6Config,
    /// E6 baseline with a warm pool of 4.
    pub warm: E6Config,
    /// The cache-plane configuration.
    pub coalesced: CoalescedOutcome,
}

impl CacheReport {
    /// The canonical JSON the golden test pins.
    pub fn to_json(&self) -> Value {
        let baseline = |c: &E6Config| {
            json!({
                "warm_pool": c.warm_pool,
                "median_ttfr_secs": round4(c.median_first_result.as_secs_f64()),
                "p95_ttfr_secs": round4(c.p95_first_result.as_secs_f64()),
                "cost": round4(c.cost),
            })
        };
        let co = &self.coalesced;
        json!({
            "report": "cache-flash-crowd",
            "seed": self.seed,
            "crowd": self.crowd,
            "cold": baseline(&self.cold),
            "warm": baseline(&self.warm),
            "coalesced": {
                "warm_pool": co.warm_pool,
                "requests": co.requests,
                "outcomes": { "miss": co.misses, "follower": co.followers, "hit": co.hits },
                "served_without_run_ratio": round4(co.served_without_run_ratio()),
                "leader_ttfr_secs": round4(co.leader_ttfr_secs),
                "follower_median_ttfr_secs": round4(co.follower_median_ttfr_secs),
                "follower_p95_ttfr_secs": round4(co.follower_p95_ttfr_secs),
                "hit_age_secs": round4(co.hit_age_secs),
                "coalesced_events": co.coalesced_events,
                "cost": round4(co.cost),
                "cache_stats": co.stats.to_json(),
            },
            "crossover": {
                "follower_median_vs_warm_secs": round4(
                    self.warm.median_first_result.as_secs_f64() - co.follower_median_ttfr_secs,
                ),
                "cost_saving_vs_warm": round4(self.warm.cost - co.cost),
            },
        })
    }

    /// The canonical pretty string (what `--json` prints, newline-free).
    pub fn render(&self) -> String {
        serde_json::to_string_pretty(&self.to_json()).unwrap_or_else(|_| String::from("{}"))
    }
}

/// Runs the full comparison: the two E6 baselines, then the coalesced
/// configuration over the same virtual horizon.
pub fn flash_crowd_report(crowd: usize, seed: u64) -> CacheReport {
    let E6Result { cold, warm, .. } = e6_flash_crowd(crowd, 4, seed).expect("e6 runs");
    let coalesced = run_coalesced(crowd, seed);
    CacheReport { seed, crowd, cold, warm, coalesced }
}

/// The coalesced run: one burst, singleflight dedup, an L1 repeat wave,
/// then the sessions leave and the horizon drains (so cost is measured
/// over the same virtual span as the baselines).
fn run_coalesced(crowd: usize, seed: u64) -> CoalescedOutcome {
    let config = BrokerConfig {
        private_capacity_vcpus: 16,
        warm_pool_size: COALESCED_WARM_POOL,
        ..BrokerConfig::default()
    };
    let mut broker = Broker::new(config, seed);
    let mut cache = ResultCache::new(CacheConfig { seed, ..CacheConfig::default() });
    cache.set_metrics(broker.metrics().clone());
    let mut coalescer = Coalescer::new();
    coalescer.set_metrics(broker.metrics().clone());
    let key = CacheKey::new("topmodel", "morland", 1, &json!({ "hours": 24 }));

    // Let the warm pool boot, exactly like the baselines.
    broker.advance(SimDuration::from_secs(300));
    let crowd_arrival = broker.now();
    let horizon = crowd_arrival + SimDuration::from_secs(3600);

    // The burst: everyone asks the identical question at once. The cache
    // is cold, so the first request leads and the rest attach.
    let mut sessions = Vec::new();
    let mut leader = None;
    for i in 0..crowd {
        let session = broker.connect(&format!("flash-{i}"), "topmodel").expect("served");
        sessions.push(session);
        if cache.lookup(broker.now(), &key).is_some() {
            continue; // cannot happen on a cold cache; kept for shape
        }
        match coalescer
            .submit(&mut broker, &key, session, SimDuration::from_secs(60), None)
            .expect("warm instance serves the leader")
        {
            Submission::Leader { job } => leader = Some(job),
            Submission::Follower { .. } => {}
        }
    }
    let leader_job = leader.expect("first submission leads");

    // Poll on the E6 schedule until the leader's run completes. Job ids
    // are sim-global, so scan every instance: the leader's session may be
    // migrated off its original instance by a scale-down in the meantime.
    let mut finished = None;
    for _ in 0..240 {
        if let Some(done) = broker.cloud().instances().find_map(|i| {
            i.job(leader_job).and_then(|j| match j.state() {
                JobState::Completed { finished } => Some(finished),
                _ => None,
            })
        }) {
            finished = Some(done);
            break;
        }
        broker.advance(SimDuration::from_secs(15));
    }
    let finished = finished.expect("a 60 s run completes well inside the horizon");
    let ttfr = finished.saturating_since(crowd_arrival).as_secs_f64();

    // Fan the one result out: the leader and every follower complete at
    // the same virtual instant, then the result enters the cache.
    let flight = coalescer.complete(&key).expect("flight was in progress");
    let mut follower_ttfr = Percentiles::new();
    for _ in &flight.followers {
        follower_ttfr.record(ttfr);
    }
    let result = json!({
        "process": "topmodel",
        "catchment": "morland",
        "inputs": { "hours": 24 },
        "peak_m3s": round4(2.0 + (seed % 7) as f64 * 0.125),
    });
    cache.insert(broker.now(), key.clone(), |_| result.to_string().into());

    // The repeat wave: the same crowd asks again after the burst has
    // passed — every request is an L1 hit, no broker involvement at all.
    broker.advance(SimDuration::from_secs(REPEAT_WAVE_DELAY_SECS));
    let mut hit_age_secs = 0.0;
    for _ in 0..crowd {
        match cache.lookup(broker.now(), &key) {
            Some(hit) => hit_age_secs = hit.age.as_secs_f64(),
            None => cache.note_miss(),
        }
    }

    // Everyone got an answer; the sessions close and the broker scales
    // back down while the horizon drains.
    for session in sessions {
        let _ = broker.disconnect(session);
    }
    while broker.now() < horizon {
        broker.advance(SimDuration::from_secs(15));
    }

    let metrics = broker.metrics().clone();
    let coalesced_events = broker
        .events()
        .iter()
        .filter(|e| matches!(e, BrokerEvent::RequestCoalesced { .. }))
        .count() as u64;
    CoalescedOutcome {
        warm_pool: COALESCED_WARM_POOL,
        requests: metrics.counter_family_total("cache_requests_total"),
        misses: metrics.counter("cache_requests_total", &[("outcome", "miss")]),
        followers: metrics.counter("cache_requests_total", &[("outcome", "follower")]),
        hits: metrics.counter("cache_requests_total", &[("outcome", "hit")]),
        leader_ttfr_secs: ttfr,
        follower_median_ttfr_secs: follower_ttfr.median().unwrap_or(f64::MAX.min(1e9)),
        follower_p95_ttfr_secs: follower_ttfr.p95().unwrap_or(f64::MAX.min(1e9)),
        hit_age_secs,
        coalesced_events,
        cost: broker.total_cost(),
        stats: cache.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_run_dedups_the_burst() {
        let outcome = run_coalesced(8, 42);
        assert_eq!(outcome.misses, 1, "exactly one model run leads");
        assert_eq!(outcome.followers, 7);
        assert_eq!(outcome.hits, 8, "the repeat wave is all L1 hits");
        assert_eq!(outcome.coalesced_events, 7);
        assert!(outcome.served_without_run_ratio() > 0.9);
        assert!(outcome.hit_age_secs >= REPEAT_WAVE_DELAY_SECS as f64);
    }

    #[test]
    fn report_is_deterministic_for_one_seed() {
        let a = flash_crowd_report(8, 7);
        let b = flash_crowd_report(8, 7);
        assert_eq!(a.render(), b.render(), "same (schedule, seed) must be byte-identical");
    }
}
