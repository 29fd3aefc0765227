//! The federation days, `media_day` and `unshared_day`: one diurnal day
//! of simulated users against a four-shard federation, open loop in
//! virtual time.
//!
//! The load generator is the benchmark's own copy of the E8 schedule (the
//! diurnal curve, the flash hours, the arrival prefix sum and the key
//! derivation), so changes to the program's report harnesses never move
//! the inputs. Users behave as people do: a question answered "retry
//! later" is asked again next tick, a question whose model run is aborted
//! is asked again next tick, and nobody leaves with a retry still queued.
//! Every ask therefore ends answered unless the plane returns a hard error
//! or forgets a session, and those are the day's failures.

use std::collections::{BTreeMap, VecDeque};

use evop_broker::{BrokerConfig, BrokerError};
use evop_cache::{CacheConfig, CacheKey};
use evop_obs::{AlertEngine, AlertKind, AlertSeverity, SloSpec, Tsdb, TsdbConfig};
use evop_shard::{
    FedSessionId, Federation, FederationConfig, FederationError, FederationEvent, Policy,
    RequestOutcome, ShardId,
};
use evop_sim::SimDuration;
use serde_json::{json, Value};

use crate::measure::{now, secs_since, splitmix64, Digest, Layers, Span};
use crate::report::{end_to_end, overhead_ratio, ratio, Ctx, Metrics, Outcome};

/// Seconds per control tick.
const TICK_SECS: u64 = 60;

/// Ticks in one simulated day.
const TICKS_PER_DAY: usize = 1440;

/// Quiet ticks allowed after midnight for retries, rebinds and flights to
/// settle; a day still busy after them fails its checks.
const EPILOGUE_TICKS: usize = 120;

/// Ticks a flight can stay in the air: work under three ticks plus the
/// federation's ten-tick flight timeout, with slack. Older flights have
/// completed or aborted.
const FLIGHT_HORIZON_TICKS: usize = 16;

/// Federations built per run for the `setup_s` median, besides one per
/// day. A build takes well under a millisecond, so take many.
const SETUP_REPEATS: usize = 101;

/// Seed of the federation's own randomness. It is part of the program
/// under test, not of its inputs: `--seed` varies only the users.
const FEDERATION_SEED: u64 = 42;

/// The shard chaos kills on `media_day`.
const KILLED_SHARD: u16 = 1;

/// Relative arrival weight per hour of day.
const HOURLY_ARRIVALS: [u64; 24] =
    [1, 1, 1, 1, 2, 3, 5, 8, 10, 12, 14, 16, 16, 16, 14, 12, 10, 8, 5, 5, 3, 2, 1, 1];

/// Flash-crowd multiplier per hour: breakfast bulletin, the noon media
/// event, the evening news.
fn flash_multiplier(hour: usize) -> u64 {
    match hour {
        8 => 2,
        12..=14 => 6,
        19 => 3,
        _ => 1,
    }
}

/// The broadcast a flash hour's crowd asks about.
fn flash_event(hour: usize) -> Option<&'static str> {
    match hour {
        8 => Some("breakfast-bulletin"),
        12..=14 => Some("national-media-event"),
        19 => Some("evening-news"),
        _ => None,
    }
}

/// One federation day.
#[derive(Debug, Clone)]
pub struct DayConfig {
    /// Users arriving over the day.
    pub users: u64,
    /// Local catchments the non-broadcast questions spread over.
    pub catchments: u64,
    /// Whether seven in ten flash-hour asks share the broadcast question.
    pub broadcast: bool,
    /// Tick at which shard 1 is killed, if any.
    pub kill_at_tick: Option<usize>,
    /// Broker sessions per instance vCPU.
    pub sessions_per_vcpu: u32,
}

impl DayConfig {
    /// The flash crowd: most flash-hour asks share one key, and a shard
    /// dies at 12:40.
    pub fn media_day() -> DayConfig {
        DayConfig {
            users: 200_000,
            catchments: 512,
            broadcast: true,
            kill_at_tick: Some(760),
            sessions_per_vcpu: 16,
        }
    }

    /// Distinct keys: cache writes and admission rejects replace cache
    /// reads, and broker and cloud work dominate.
    pub fn unshared_day() -> DayConfig {
        DayConfig {
            users: 100_000,
            catchments: 65_536,
            broadcast: false,
            kill_at_tick: None,
            sessions_per_vcpu: BrokerConfig::default().sessions_per_vcpu,
        }
    }

    /// A day small enough for a debug build; the kill still displaces
    /// sessions and the page still fires.
    #[cfg(test)]
    pub fn tiny(self) -> DayConfig {
        DayConfig { users: 3000, catchments: self.catchments.min(256), ..self }
    }

    /// The CI-scale federation: four shards, two front-ends, m1.large.
    fn federation(&self) -> FederationConfig {
        FederationConfig {
            shards: 4,
            front_ends: 2,
            drain_denominator: 16,
            rebind_floor: 8,
            shard: BrokerConfig {
                instance_type: "m1.large".to_owned(),
                sessions_per_vcpu: self.sessions_per_vcpu,
                private_capacity_vcpus: 16,
                check_interval: SimDuration::from_secs(TICK_SECS),
                warm_pool_size: 1,
                scale_up_headroom_slots: 16,
                scale_down_surplus_slots: 96,
                ..BrokerConfig::default()
            },
            cache: CacheConfig { l1_capacity: 2048, ..CacheConfig::default() },
            ..FederationConfig::default()
        }
    }

    /// Per-tick arrival weights.
    fn tick_weights() -> Vec<u64> {
        (0..TICKS_PER_DAY)
            .map(|t| HOURLY_ARRIVALS[t / 60 % 24] * flash_multiplier(t / 60))
            .collect()
    }
}

/// Everything a question is made of, built once per day so that asking
/// allocates nothing in the load generator.
struct Questions {
    catchments: Vec<String>,
    windows: Vec<Value>,
    broadcasts: Vec<Option<Value>>,
}

impl Questions {
    fn new(config: &DayConfig) -> Questions {
        let hours = (TICKS_PER_DAY + EPILOGUE_TICKS) / 60 + 2;
        Questions {
            catchments: (0..config.catchments.max(1))
                .map(|c| format!("catchment-{c:05}"))
                .collect(),
            windows: (0..hours).map(|window| json!({ "window": window })).collect(),
            broadcasts: (0..hours)
                .map(|hour| {
                    flash_event(hour)
                        .filter(|_| config.broadcast)
                        .map(|event| json!({ "event": event, "hour": hour }))
                })
                .collect(),
        }
    }

    /// The question `user` asks at tick `t`: the broadcast's during a
    /// flash hour for seven in ten users (when broadcasting), otherwise
    /// their catchment's hourly window, phased per catchment so the
    /// windows do not all roll at once.
    fn ask(&self, seed: u64, t: usize, user: u64) -> (&str, &Value) {
        let r = splitmix64(seed ^ user.wrapping_mul(0xd1b5_4a32_d192_ed03));
        if let Some(Some(broadcast)) = self.broadcasts.get(t / 60) {
            if r % 10 < 7 {
                return ("national", broadcast);
            }
        }
        let catchment = r % self.catchments.len() as u64;
        let phase = splitmix64(seed ^ catchment.wrapping_mul(0x517c_c1b7_2722_0a95)) % 60;
        (&self.catchments[catchment as usize], &self.windows[(t + phase as usize) / 60])
    }
}

/// The availability SLO over the whole plane: 99 % of submissions `ok`
/// on a 1800 s / 300 s window pair at 2x burn. Cache hits never reach a
/// broker, so the kill's retries are a small share of submissions and a
/// 90 % target would page on some seeds and not others.
fn availability_slo() -> SloSpec {
    SloSpec::availability(
        "federation-availability",
        0.99,
        "broker_submit_total",
        &[("outcome", "ok")],
        "broker_submit_total",
    )
    .window(1800, 300, 2.0, AlertSeverity::Page)
}

/// The program under test for one day: federation, alert engine and
/// time-series store.
struct Plane {
    fed: Federation,
    alerts: AlertEngine,
    tsdb: Tsdb,
}

impl Plane {
    fn build(config: &DayConfig) -> Result<Plane, String> {
        let fed = Federation::try_new(config.federation(), FEDERATION_SEED, Policy::ConsistentHash)
            .map_err(|e| format!("federation config rejected: {e}"))?;
        let mut alerts = AlertEngine::new(fed.metrics().clone());
        alerts.add_slo(availability_slo());
        Ok(Plane { fed, alerts, tsdb: Tsdb::new(TsdbConfig::default()) })
    }
}

/// One user question in the schedule.
#[derive(Debug, Clone, Copy)]
struct Ask {
    session: FedSessionId,
    user: u64,
}

/// A model run in the air, as the benchmark saw it start.
#[derive(Debug)]
struct Flight {
    tick: usize,
    riders: Vec<Ask>,
}

/// How every attempt of the day ended.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    asks: u64,
    hit: u64,
    leader: u64,
    follower: u64,
    transient: u64,
    requeued: u64,
    abort_riders: u64,
    late: u64,
    hard: u64,
}

impl Tally {
    fn attempts(&self) -> u64 {
        self.hit + self.leader + self.follower + self.transient + self.late + self.hard
    }

    fn failed(&self) -> u64 {
        self.late + self.hard
    }
}

/// One replayed day.
struct Day {
    tick_ms: Vec<f64>,
    tally: Tally,
    counts: Metrics,
    digest: u64,
    violations: Vec<String>,
}

/// The schedule and bookkeeping of a day in progress.
struct Replay {
    questions: Questions,
    seed: u64,
    asks: Vec<Vec<Ask>>,
    departures: Vec<Vec<Ask>>,
    queued: Vec<u32>,
    queued_total: u64,
    departed: Vec<bool>,
    /// Flights by the rendered key `FlightAborted` names them with.
    flights: BTreeMap<String, Flight>,
    flight_order: VecDeque<(usize, String)>,
    events_seen: usize,
    tally: Tally,
    violations: Vec<String>,
}

impl Replay {
    fn schedule_ask(&mut self, tick: usize, ask: Ask) {
        self.queued[ask.user as usize] += 1;
        self.queued_total += 1;
        self.asks[tick].push(ask);
    }

    /// Reads new federation events: every rider of an aborted flight
    /// asks again next tick, unless they already left.
    fn requeue_aborted(&mut self, fed: &Federation, t: usize) {
        let events = fed.events();
        let fresh = events.get(self.events_seen..).unwrap_or_default();
        let aborted: Vec<(String, u64)> = fresh
            .iter()
            .filter_map(|e| match e {
                FederationEvent::FlightAborted { key, followers, .. } => {
                    Some((key.clone(), *followers))
                }
                _ => None,
            })
            .collect();
        self.events_seen = events.len();
        for (key, followers) in aborted {
            let Some(flight) = self.flights.remove(&key) else {
                self.violations.push(format!("tick {t}: abort of an untracked flight {key}"));
                continue;
            };
            if flight.riders.len() as u64 != 1 + followers {
                self.violations.push(format!(
                    "tick {t}: flight {key} aborted with {} riders, the federation counted 1 + {followers}",
                    flight.riders.len()
                ));
            }
            self.tally.abort_riders += flight.riders.len() as u64;
            for ask in flight.riders {
                if !self.departed[ask.user as usize] {
                    self.tally.requeued += 1;
                    self.schedule_ask(t + 1, ask);
                }
            }
        }
    }

    /// Forgets flights too old to still be in the air.
    fn prune_flights(&mut self, t: usize) {
        while self.flight_order.front().is_some_and(|(tick, _)| tick + FLIGHT_HORIZON_TICKS <= t) {
            let Some((tick, key)) = self.flight_order.pop_front() else { break };
            if self.flights.get(&key).is_some_and(|f| f.tick == tick) {
                self.flights.remove(&key);
            }
        }
    }

    fn ask(&mut self, fed: &mut Federation, layers: &mut Layers, t: usize, ask: Ask) {
        self.queued[ask.user as usize] -= 1;
        self.queued_total -= 1;
        let (catchment, inputs) = self.questions.ask(self.seed, t, ask.user);
        let key = layers.time(Span::CacheKey, || CacheKey::new("topmodel", catchment, 1, inputs));
        let work = SimDuration::from_secs(
            60 + splitmix64(self.seed ^ ask.user.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 120,
        );
        let front_end = (ask.user % fed.front_ends() as u64) as usize;
        match layers.time(Span::Request, || fed.request(front_end, ask.session, &key, work)) {
            Ok(RequestOutcome::Hit(_)) => self.tally.hit += 1,
            Ok(RequestOutcome::Leader { .. }) => {
                self.tally.leader += 1;
                let render = key.render();
                self.flight_order.push_back((t, render.clone()));
                self.flights.insert(render, Flight { tick: t, riders: vec![ask] });
            }
            Ok(RequestOutcome::Follower { .. }) => {
                self.tally.follower += 1;
                let render = key.render();
                match self.flights.get_mut(&render) {
                    Some(flight) => flight.riders.push(ask),
                    None => self
                        .violations
                        .push(format!("tick {t}: follower of an untracked flight {render}")),
                }
            }
            Err(
                FederationError::SessionRebinding { .. }
                | FederationError::Broker(BrokerError::TransientlyUnavailable { .. }),
            ) => {
                self.tally.transient += 1;
                self.schedule_ask(t + 1, ask);
            }
            Err(FederationError::UnknownSession(_)) => self.tally.late += 1,
            Err(_) => self.tally.hard += 1,
        }
    }
}

/// Replays one day on a freshly built plane.
fn replay_day(config: &DayConfig, seed: u64, plane: Plane, layers: &mut Layers) -> Day {
    let Plane { mut fed, mut alerts, mut tsdb } = plane;
    let horizon = TICKS_PER_DAY + EPILOGUE_TICKS;
    let users = usize::try_from(config.users).unwrap_or(usize::MAX);
    let mut day = Replay {
        questions: Questions::new(config),
        seed,
        asks: vec![Vec::new(); horizon + 1],
        departures: vec![Vec::new(); horizon + 1],
        queued: vec![0; users],
        queued_total: 0,
        departed: vec![false; users],
        flights: BTreeMap::new(),
        flight_order: VecDeque::new(),
        events_seen: 0,
        tally: Tally::default(),
        violations: Vec::new(),
    };
    let weights = DayConfig::tick_weights();
    let total_weight: u64 = weights.iter().sum();
    let step = SimDuration::from_secs(TICK_SECS);
    let mut cum_weight = 0;
    let mut spawned = 0u64;
    let mut pending_departures = 0usize;
    let mut connect_errors = 0u64;
    let mut displaced = 0usize;
    let mut peak_live = 0usize;
    let mut spans_drained = 0u64;
    let mut tick_ms = Vec::with_capacity(horizon);

    for t in 0..horizon {
        let tick_start = now();
        layers.time(Span::Advance, || fed.advance(step));
        let sim_now = fed.now();
        layers.time(Span::AlertTick, || alerts.tick(sim_now));
        day.requeue_aborted(&fed, t);
        if config.kill_at_tick == Some(t) {
            displaced = fed.kill_shard(ShardId::new(KILLED_SHARD));
            day.requeue_aborted(&fed, t);
        }

        if let Some(weight) = weights.get(t) {
            cum_weight += weight;
            let due = config.users * cum_weight / total_weight;
            while spawned < due {
                let user = spawned;
                spawned += 1;
                let name = format!("u{user}");
                let Ok(session) = layers.time(Span::Connect, || fed.connect(&name, "topmodel"))
                else {
                    connect_errors += 1;
                    continue;
                };
                let r = splitmix64(seed ^ user.wrapping_mul(0x2545_f491_4f6c_dd1d));
                let dwell = 5 + (r % 26) as usize;
                let ask = Ask { session, user };
                day.departures[t + dwell].push(ask);
                pending_departures += 1;
                day.tally.asks += 1;
                day.schedule_ask(t + 2, ask);
                if r >> 33 & 1 == 1 {
                    day.tally.asks += 1;
                    day.schedule_ask(t + 3 + (r >> 40) as usize % (dwell - 3), ask);
                }
            }
        }

        for ask in std::mem::take(&mut day.asks[t]) {
            day.ask(&mut fed, layers, t, ask);
        }

        for leaving in std::mem::take(&mut day.departures[t]) {
            let user = leaving.user as usize;
            if day.queued[user] > 0 {
                day.departures[t + 1].push(leaving);
                continue;
            }
            day.departed[user] = true;
            pending_departures -= 1;
            if let Err(e) = layers.time(Span::Disconnect, || fed.disconnect(leaving.session)) {
                day.violations.push(format!("tick {t}: disconnect of user {user} failed: {e}"));
            }
        }

        peak_live = peak_live.max(fed.live_sessions());
        layers.time(Span::TsdbIngest, || tsdb.ingest_registry(fed.metrics(), sim_now));
        spans_drained += layers
            .time(Span::TraceDrain, || fed.tracer().drain_finished_before(sim_now))
            .len() as u64;
        day.prune_flights(t);
        tick_ms.push(secs_since(tick_start) * 1e3);

        let settled = pending_departures == 0
            && day.queued_total == 0
            && fed.pending_rebinds() == 0
            && fed.flights_in_progress() == 0;
        if t + 1 >= TICKS_PER_DAY && settled {
            break;
        }
    }
    tsdb.finish(fed.now());
    check_day(config, &fed, &alerts, &mut day, connect_errors);
    let counts = day_counts(config, &fed, &tsdb, &day.tally, peak_live, spans_drained);

    let mut digest = Digest::default();
    digest.u64(tick_ms.len() as u64);
    digest.bytes(fed.placement_digest().as_bytes());
    for &(_, value) in &counts {
        digest.f64(value);
    }
    for v in [displaced as u64, day.tally.hit, day.tally.leader, day.tally.follower] {
        digest.u64(v);
    }
    digest.f64(fed.total_cost());
    digest.bytes(tsdb.snapshot_string().as_bytes());
    digest.u64(alerts.alerts().len() as u64);
    Day { tick_ms, tally: day.tally, counts, digest: digest.value(), violations: day.violations }
}

/// The day's output checks.
fn check_day(
    config: &DayConfig,
    fed: &Federation,
    alerts: &AlertEngine,
    day: &mut Replay,
    connect_errors: u64,
) {
    let v = &mut day.violations;
    let connected = fed.sessions_connected();
    if connected != config.users || connect_errors > 0 {
        v.push(format!(
            "{connected} of {} users connected ({connect_errors} refused)",
            config.users
        ));
    }
    let live_end = fed.live_sessions() as u64;
    let lost = connected.saturating_sub(fed.sessions_closed()).saturating_sub(live_end);
    if lost != 0 || live_end != 0 || fed.pending_rebinds() != 0 {
        v.push(format!(
            "sessions at the end: {lost} lost, {live_end} live, {} rebinding",
            fed.pending_rebinds()
        ));
    }
    let unasked = day.queued_total;
    let t = &day.tally;
    if unasked != 0 || t.attempts() != t.asks + t.transient + t.requeued {
        v.push(format!(
            "{} attempts tallied for {} asks, {} transient and {} aborted retries ({unasked} never asked)",
            t.attempts(),
            t.asks,
            t.transient,
            t.requeued
        ));
    }
    if config.kill_at_tick.is_some() {
        let fired = alerts.alerts().iter().filter(|a| a.kind == AlertKind::Fired).count();
        let resolved = alerts.alerts().iter().filter(|a| a.kind == AlertKind::Resolved).count();
        if fired == 0 || fired != resolved {
            v.push(format!("availability page fired {fired} and resolved {resolved} times"));
        }
    }
}

/// Exact counts read from public accessors after the day.
fn day_counts(
    config: &DayConfig,
    fed: &Federation,
    tsdb: &Tsdb,
    tally: &Tally,
    peak_live: usize,
    spans_drained: u64,
) -> Metrics {
    let (mut scheduled, mut delivered, mut cancelled, mut depth, mut batch) = (0, 0, 0, 0, 0);
    for i in 0..fed.shard_count() {
        let Some(broker) = u16::try_from(i).ok().and_then(|i| fed.shard_broker(ShardId::new(i)))
        else {
            continue;
        };
        let k = broker.kernel_counters();
        scheduled += k.scheduled;
        delivered += k.delivered;
        cancelled += k.cancelled;
        depth = depth.max(k.depth_high_water as u64);
        batch = batch.max(k.max_same_tick_batch);
    }
    let metrics = fed.metrics();
    let wait =
        |q| metrics.histogram_quantile("broker_activation_wait_seconds", &[], q).unwrap_or(0.0);
    let completed = fed.flights_completed() as f64;
    let aborted = fed.flights_aborted() as f64;
    let attempts = tally.attempts() as f64;
    let cache = fed.cache_stats();
    vec![
        ("shard.connect_calls", fed.sessions_connected() as f64),
        ("shard.request_calls", attempts),
        ("shard.flights_completed", completed),
        ("shard.flights_aborted", aborted),
        ("shard.flight_waste_ratio", ratio(aborted, completed + aborted)),
        ("shard.abort_riders", tally.abort_riders as f64),
        ("shard.rebinds", fed.rebinds_total() as f64),
        ("shard.parked", fed.parked_placements() as f64),
        ("shard.placements", fed.placements() as f64),
        ("shard.cross_front_end_flights", fed.cross_front_end_flights() as f64),
        ("shard.peak_live_sessions", peak_live as f64),
        ("sim.events_scheduled", scheduled as f64),
        ("sim.events_delivered", delivered as f64),
        ("sim.events_cancelled", cancelled as f64),
        ("sim.queue_depth_hwm", depth as f64),
        ("sim.max_same_tick_batch", batch as f64),
        ("cache.hit_ratio", ratio(tally.hit as f64, attempts)),
        ("cache.follower_ratio", ratio(tally.follower as f64, attempts)),
        ("cache.admission_rejected", cache.admission_rejected as f64),
        ("broker.binds", metrics.counter_family_total("broker_binds_total") as f64),
        (
            "broker.warm_pool_hits",
            metrics.counter_family_total("broker_warm_pool_hits_total") as f64,
        ),
        (
            "broker.instance_placements",
            metrics.counter_family_total("broker_placements_total") as f64,
        ),
        ("broker.cloudbursts", metrics.counter_family_total("broker_cloudbursts_total") as f64),
        ("broker.scale_downs", metrics.counter_family_total("broker_scale_downs_total") as f64),
        ("broker.activation_wait_p50_s", wait(0.50)),
        ("broker.activation_wait_p99_s", wait(0.99)),
        ("obs.spans_drained", spans_drained as f64),
        ("obs.tsdb_series", tsdb.series_count() as f64),
        ("retry_ratio", ratio((tally.transient + tally.requeued) as f64, attempts)),
        ("cost_per_1k_users", fed.total_cost() * 1000.0 / config.users as f64),
    ]
}

/// Runs federation days until the time budget is spent.
pub fn run(config: &DayConfig, ctx: &Ctx) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = now();
        let built = Plane::build(config);
        setup_s.push(secs_since(start));
        if let Err(e) = built {
            outcome.violations.push(e);
            return outcome;
        }
    }

    let mut untraced_ticks_ms = Vec::new();
    let mut traced_ticks_ms = Vec::new();
    let mut spans = Layers::new(true);
    let mut first: Option<(u64, Metrics)> = None;
    let started = now();
    while ctx.keep_going(started, outcome.units) {
        let traced = ctx.unit_traced(outcome.units);
        let start = now();
        let plane = match Plane::build(config) {
            Ok(plane) => plane,
            Err(e) => {
                outcome.violations.push(e);
                return outcome;
            }
        };
        setup_s.push(secs_since(start));
        let mut off = Layers::new(false);
        let day = replay_day(config, ctx.seed, plane, if traced { &mut spans } else { &mut off });
        if traced {
            traced_ticks_ms.push(day.tick_ms);
        } else {
            untraced_ticks_ms.push(day.tick_ms);
        }
        outcome.units += 1;
        outcome.attempted += day.tally.asks;
        outcome.failed += day.tally.failed();
        outcome.violations.extend(day.violations);
        match &first {
            None => first = Some((day.digest, day.counts)),
            Some((digest, ..)) if *digest != day.digest => outcome.violations.push(format!(
                "day {} digest {:016x} differs from day 0",
                outcome.units - 1,
                day.digest
            )),
            Some(_) => {}
        }
    }

    let Some((digest, counts)) = first else { return outcome };
    outcome.digest = digest;
    end_to_end(&setup_s, config.users as f64, &untraced_ticks_ms, &mut outcome);

    let days = traced_ticks_ms.len().max(1) as f64;
    let timed = [
        ("shard.connect_ms", Span::Connect),
        ("shard.advance_ms", Span::Advance),
        ("shard.request_ms", Span::Request),
        ("shard.disconnect_ms", Span::Disconnect),
        ("cache.key_ms", Span::CacheKey),
        ("obs.alert_tick_ms", Span::AlertTick),
        ("obs.tsdb_ingest_ms", Span::TsdbIngest),
        ("obs.trace_drain_ms", Span::TraceDrain),
    ];
    let mut attributed_ms = 0.0;
    for (name, span) in timed {
        attributed_ms += spans.ms(span);
        outcome.per_layer.push((name, spans.ms(span) / days));
    }
    let traced_ms: f64 = traced_ticks_ms.iter().flatten().sum();
    outcome.per_layer.extend([
        ("bench.unattributed_ms", (traced_ms - attributed_ms) / days),
        ("bench.trace_overhead_ratio", overhead_ratio(&traced_ticks_ms, &untraced_ticks_ms)),
    ]);
    outcome.per_layer.extend(counts);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_day(config: &DayConfig, seed: u64) -> Day {
        let plane = Plane::build(config).expect("valid federation");
        replay_day(config, seed, plane, &mut Layers::new(false))
    }

    #[test]
    fn same_seed_same_day_other_seed_other_day() {
        for config in [DayConfig::media_day().tiny(), DayConfig::unshared_day().tiny()] {
            let a = one_day(&config, 42);
            let b = one_day(&config, 42);
            assert!(a.violations.is_empty(), "{:?}", a.violations);
            assert_eq!(a.digest, b.digest);
            assert_eq!(a.tally, b.tally);
            assert_eq!(a.counts, b.counts);
            assert_ne!(one_day(&config, 7).digest, a.digest);
        }
    }

    #[test]
    fn media_day_kill_requeues_riders_and_loses_nobody() {
        let day = one_day(&DayConfig::media_day().tiny(), 42);
        assert!(day.violations.is_empty(), "{:?}", day.violations);
        assert!(day.tally.transient > 0, "displaced users see retry hints");
        assert_eq!(day.tally.failed(), 0);
        assert!(day.tally.hit > day.tally.leader, "the broadcast is served from cache");
    }
}
