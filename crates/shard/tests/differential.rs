//! Differential test: a 1-shard federation is the direct broker path.
//!
//! The federation claims to *layer* placement and failover on top of
//! the broker without changing what any single broker does. This test
//! holds it to that: the E6 flash crowd is driven twice — once through
//! a one-shard [`Federation`], once against a bare [`Broker`] plus
//! [`ResultCache`] and [`Coalescer`] wired by hand with the
//! federation's own serving rules — and the two runs must agree
//! byte-for-byte on everything the serving surface can observe:
//!
//! * the per-request outcome stream (hit / leader / follower order and
//!   positions),
//! * the broker's own event log,
//! * shared-cache statistics,
//! * the `broker_submit_total` and `cache_requests_total` counter
//!   families the SLO plane judges,
//! * the availability alert log an [`AlertEngine`] produces over each
//!   registry,
//! * total simulated cost.
//!
//! Shard 0 of a federation seeds its broker with the federation seed
//! itself (`seed ^ 0 * stride`), so the comparison needs no seed
//! gymnastics — any divergence is a behavioural difference, not noise.

use std::collections::BTreeMap;

use evop_broker::Broker;
use evop_cache::{CacheConfig, CacheKey, Coalescer, ResultCache, Submission};
use evop_cloud::{InstanceId, JobState};
use evop_obs::{AlertEngine, AlertSeverity, MetricsRegistry, SloSpec, Tracer};
use evop_shard::{
    default_library, synthetic_result, Federation, FederationConfig, Policy, RequestOutcome,
    ShardId,
};
use evop_sim::{SimDuration, SimTime};
use serde_json::json;

const CROWD: usize = 48;
const TICK_SECS: u64 = 15;
const WARMUP_TICKS: usize = 20;
const SETTLE_TICKS: usize = 24;
const WORK_SECS: u64 = 60;
const CATCHMENTS: usize = 8;
/// The federation's flight timeout, in control ticks — a flight whose
/// job has not completed `work + 10 × check_interval` after submission
/// is abandoned. The direct driver must enforce the same rule or a
/// queued-behind leader diverges the two paths.
const FLIGHT_TIMEOUT_TICKS: u64 = 10;

fn shared_config() -> FederationConfig {
    let mut config = FederationConfig { shards: 1, front_ends: 2, ..FederationConfig::default() };
    config.shard.warm_pool_size = 4;
    // 4 vcpus: the eight diverse-wave leader jobs drain in two 60 s
    // batches, inside the flight timeout (m1.medium's 2 vcpus need
    // four batches and the last flight would abort).
    config.shard.instance_type = String::from("m1.large");
    config.cache = CacheConfig { seed: 7, ..CacheConfig::default() };
    config
}

fn flash_key() -> CacheKey {
    CacheKey::new("topmodel", "national", 1, &json!({ "event": "flash-flood-warning" }))
}

fn catchment_key(user: usize) -> CacheKey {
    CacheKey::new(
        "topmodel",
        &format!("catchment-{:02}", user % CATCHMENTS),
        1,
        &json!({ "window": 1 }),
    )
}

/// The availability SLO both registries are judged by — same spec the
/// E8 harness pages on.
fn availability_slo() -> SloSpec {
    SloSpec::availability(
        "federation-availability",
        0.9,
        "broker_submit_total",
        &[("outcome", "ok")],
        "broker_submit_total",
    )
    .window(1800, 300, 2.0, AlertSeverity::Page)
}

/// Everything the serving surface can observe, rendered to comparable
/// strings so a mismatch prints a readable diff.
#[derive(Debug, PartialEq)]
struct Observed {
    outcomes: Vec<String>,
    broker_events: Vec<String>,
    cache_stats: String,
    counters: BTreeMap<&'static str, u64>,
    alerts: String,
    cost_milli: u64,
    flights_completed: u64,
    flights_aborted: u64,
}

fn observe(
    outcomes: Vec<String>,
    broker: &Broker,
    cache_stats: &evop_cache::CacheStats,
    registry: &MetricsRegistry,
    alerts: &AlertEngine,
    completed: u64,
    aborted: u64,
) -> Observed {
    let mut counters = BTreeMap::new();
    counters.insert("submit_total", registry.counter_family_total("broker_submit_total"));
    counters.insert("submit_ok", registry.counter("broker_submit_total", &[("outcome", "ok")]));
    counters.insert("cache_total", registry.counter_family_total("cache_requests_total"));
    counters.insert("cache_hit", registry.counter("cache_requests_total", &[("outcome", "hit")]));
    counters.insert("cache_miss", registry.counter("cache_requests_total", &[("outcome", "miss")]));
    counters.insert(
        "cache_follower",
        registry.counter("cache_requests_total", &[("outcome", "follower")]),
    );
    Observed {
        outcomes,
        broker_events: broker.events().iter().map(|e| format!("{e:?}")).collect(),
        cache_stats: cache_stats.to_json().to_string(),
        counters,
        alerts: alerts.canonical_json(),
        cost_milli: (broker.total_cost() * 1000.0).round() as u64,
        flights_completed: completed,
        flights_aborted: aborted,
    }
}

/// The workload both drivers run, expressed as per-phase request keys:
/// a coalescing flash burst, a repeat wave of pure hits, a diverse
/// catchment wave (8 leaders), and its repeat wave.
fn waves() -> [Vec<CacheKey>; 4] {
    let flash: Vec<CacheKey> = (0..CROWD).map(|_| flash_key()).collect();
    let diverse: Vec<CacheKey> = (0..CROWD).map(catchment_key).collect();
    [flash.clone(), flash, diverse.clone(), diverse]
}

// ----------------------------------------------------------------------
// Driver A: the 1-shard federation.
// ----------------------------------------------------------------------

fn run_federated(seed: u64) -> Observed {
    let config = shared_config();
    let mut fed = Federation::try_new(config, seed, Policy::ConsistentHash)
        .expect("one-shard federation builds");
    let mut alerts = AlertEngine::new(fed.metrics().clone());
    alerts.add_slo(availability_slo());
    let step = SimDuration::from_secs(TICK_SECS);
    let advance = |fed: &mut Federation, alerts: &mut AlertEngine, ticks: usize| {
        for _ in 0..ticks {
            fed.advance(step);
            alerts.tick(fed.now());
        }
    };

    advance(&mut fed, &mut alerts, WARMUP_TICKS);
    let sessions: Vec<_> = (0..CROWD)
        .map(|i| fed.connect(&format!("flash-{i}"), "topmodel").expect("shard has room"))
        .collect();

    let mut outcomes = Vec::new();
    for wave in waves() {
        for (i, key) in wave.iter().enumerate() {
            let outcome = fed
                .request(i % 2, sessions[i], key, SimDuration::from_secs(WORK_SECS))
                .expect("bound session serves");
            outcomes.push(match outcome {
                RequestOutcome::Hit(_) => String::from("hit"),
                RequestOutcome::Leader { .. } => String::from("leader"),
                RequestOutcome::Follower { position, .. } => format!("follower:{position}"),
            });
        }
        advance(&mut fed, &mut alerts, SETTLE_TICKS);
    }

    for session in sessions {
        fed.disconnect(session).expect("session is live");
    }
    advance(&mut fed, &mut alerts, SETTLE_TICKS);

    let broker = fed.shard_broker(ShardId::new(0)).expect("shard 0 exists");
    observe(
        outcomes,
        broker,
        &fed.cache_stats(),
        fed.metrics(),
        &alerts,
        fed.flights_completed(),
        fed.flights_aborted(),
    )
}

// ----------------------------------------------------------------------
// Driver B: the direct broker path, hand-wired with the federation's
// serving rules (cache first, then singleflight against the broker;
// a due flight fans out once its job completes, and the result enters
// the shared cache as the federation's synthetic payload).
// ----------------------------------------------------------------------

struct DirectFlight {
    key: CacheKey,
    job: evop_cloud::JobId,
    instance: Option<InstanceId>,
    submitted_at: SimTime,
    work: SimDuration,
}

struct Direct {
    broker: Broker,
    cache: ResultCache,
    coalescer: Coalescer,
    flights: BTreeMap<u64, DirectFlight>,
    completed: u64,
    aborted: u64,
}

impl Direct {
    fn new(seed: u64) -> Direct {
        let config = shared_config();
        let broker = Broker::try_with_observability(
            config.shard,
            default_library(),
            seed,
            Tracer::new(),
            MetricsRegistry::new(),
        )
        .expect("default shard config is valid");
        let mut cache = ResultCache::new(config.cache);
        cache.set_metrics(broker.metrics().clone());
        let mut coalescer = Coalescer::new();
        coalescer.set_metrics(broker.metrics().clone());
        Direct { broker, cache, coalescer, flights: BTreeMap::new(), completed: 0, aborted: 0 }
    }

    fn request(&mut self, session: evop_broker::SessionId, key: &CacheKey) -> String {
        let now = self.broker.now();
        if self.cache.lookup(now, key).is_some() {
            return String::from("hit");
        }
        let work = SimDuration::from_secs(WORK_SECS);
        match self
            .coalescer
            .submit(&mut self.broker, key, session, work, None)
            .expect("bound session serves")
        {
            Submission::Leader { job } => {
                let instance = self.broker.session(session).and_then(|s| s.instance());
                self.flights.insert(
                    key.fingerprint(),
                    DirectFlight { key: key.clone(), job, instance, submitted_at: now, work },
                );
                String::from("leader")
            }
            Submission::Follower { position, .. } => format!("follower:{position}"),
        }
    }

    fn advance(&mut self, alerts: &mut AlertEngine, ticks: usize) {
        for _ in 0..ticks {
            self.broker.advance(SimDuration::from_secs(TICK_SECS));
            self.broker.reap_closed();
            let now = self.broker.now();
            let due: Vec<u64> = self
                .flights
                .iter()
                .filter(|(_, f)| now >= f.submitted_at + f.work)
                .map(|(&fp, _)| fp)
                .collect();
            for fingerprint in due {
                let Some(meta) = self.flights.get(&fingerprint) else { continue };
                let finished = {
                    let cloud = self.broker.cloud();
                    let job = match meta.instance {
                        Some(iid) => cloud.instance(iid).and_then(|i| i.job(meta.job)),
                        None => cloud.instances().find_map(|i| i.job(meta.job)),
                    };
                    job.is_some_and(|j| matches!(j.state(), JobState::Completed { .. }))
                };
                let timeout = SimDuration::from_millis(
                    self.broker
                        .config()
                        .check_interval
                        .as_millis()
                        .saturating_mul(FLIGHT_TIMEOUT_TICKS),
                );
                if finished {
                    let Some(meta) = self.flights.remove(&fingerprint) else { continue };
                    let _flight = self.coalescer.complete(&meta.key);
                    self.cache.insert(now, meta.key, synthetic_result);
                    self.completed += 1;
                } else if now >= meta.submitted_at + meta.work + timeout {
                    let Some(meta) = self.flights.remove(&fingerprint) else { continue };
                    let _flight = self.coalescer.complete(&meta.key);
                    self.aborted += 1;
                }
            }
            alerts.tick(now);
        }
    }
}

fn run_direct(seed: u64) -> Observed {
    let mut direct = Direct::new(seed);
    let mut alerts = AlertEngine::new(direct.broker.metrics().clone());
    alerts.add_slo(availability_slo());

    direct.advance(&mut alerts, WARMUP_TICKS);
    let sessions: Vec<_> = (0..CROWD)
        .map(|i| direct.broker.connect(&format!("flash-{i}"), "topmodel").expect("has room"))
        .collect();

    let mut outcomes = Vec::new();
    for wave in waves() {
        for (i, key) in wave.iter().enumerate() {
            outcomes.push(direct.request(sessions[i], key));
        }
        direct.advance(&mut alerts, SETTLE_TICKS);
    }

    for session in sessions {
        direct.broker.disconnect(session).expect("session is live");
    }
    direct.advance(&mut alerts, SETTLE_TICKS);

    let stats = direct.cache.stats();
    observe(
        outcomes,
        &direct.broker,
        &stats,
        direct.broker.metrics(),
        &alerts,
        direct.completed,
        direct.aborted,
    )
}

// ----------------------------------------------------------------------
// The differential assertions.
// ----------------------------------------------------------------------

#[test]
fn one_shard_federation_is_byte_identical_to_the_direct_broker_path() {
    let federated = run_federated(42);
    let direct = run_direct(42);

    assert_eq!(federated.outcomes, direct.outcomes, "request outcome streams diverge");
    assert_eq!(federated.broker_events, direct.broker_events, "broker event logs diverge");
    assert_eq!(federated.cache_stats, direct.cache_stats, "cache statistics diverge");
    assert_eq!(federated.counters, direct.counters, "SLO counter families diverge");
    assert_eq!(federated.alerts, direct.alerts, "availability alert logs diverge");
    assert_eq!(federated.cost_milli, direct.cost_milli, "simulated cost diverges");
    assert_eq!(federated, direct, "remaining observable state diverges");
}

#[test]
fn the_flash_crowd_actually_exercises_every_serving_path() {
    // A differential test over an empty workload proves nothing: pin
    // that the crowd produced leaders, followers, hits, completed
    // flights and zero aborts, so the equality above is meaningful.
    let observed = run_federated(42);
    let leaders = observed.outcomes.iter().filter(|o| *o == "leader").count();
    let followers = observed.outcomes.iter().filter(|o| o.starts_with("follower")).count();
    let hits = observed.outcomes.iter().filter(|o| *o == "hit").count();
    assert_eq!(observed.outcomes.len(), CROWD * 4, "four waves of one request per user");
    assert_eq!(leaders, 1 + CATCHMENTS, "one flash leader plus one per catchment");
    assert_eq!(followers, (CROWD - 1) + (CROWD - CATCHMENTS), "everyone else coalesces");
    assert_eq!(hits, CROWD * 2, "both repeat waves are pure cache hits");
    assert_eq!(observed.flights_completed, 1 + CATCHMENTS as u64, "every flight fans out");
    assert_eq!(observed.flights_aborted, 0, "a healthy shard aborts nothing");
}

#[test]
fn differential_equality_is_seed_stable() {
    for seed in [7u64, 1234] {
        assert_eq!(run_federated(seed), run_direct(seed), "divergence at seed {seed}");
    }
}
