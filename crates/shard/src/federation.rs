//! The federation: N broker shards behind one load balancer, replicated
//! WPS front-ends sharing one cache/coalescer tier.
//!
//! The shape reproduces the distributed-WPS execution environment
//! (Bychkov et al.) over the EVOp broker: every shard is a complete
//! PR-3 control plane owning a slice of the user population, and the
//! [`Federation`] layers three things across them:
//!
//! * **placement** — a pluggable [`LoadBalancer`] chooses a shard per
//!   session key; when nothing can take the session it is *parked* and
//!   retried each control tick (allocation-retry);
//! * **shared caching** — all front-ends consult one [`ResultCache`]
//!   and one singleflight [`Coalescer`], so identical questions
//!   coalesce *across* front-ends and shards, not per front-end;
//! * **failover** — a killed shard is marked [`ShardHealth::Down`],
//!   leaves the balancer, and its sessions drain back through the
//!   rebind queue at a paced rate (a reconnect storm in virtual time)
//!   until every one is re-homed on a surviving shard.
//!
//! Every structure is ordered (`BTreeMap`/`VecDeque`), every decision a
//! pure function of `(config, seed, call sequence)`: a 1-shard
//! federation is byte-identical to a direct [`Broker`], which the
//! differential test pins.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use bytes::Bytes;
use evop_broker::{Broker, BrokerConfig, BrokerError, SessionId};
use evop_cache::{CacheConfig, CacheKey, CacheStats, Coalescer, Hit, ResultCache, Submission};
use evop_cloud::{InstanceId, JobId, JobState};
use evop_obs::{MetricsRegistry, Tracer};
use evop_sim::{SimDuration, SimTime};
use serde_json::json;

use crate::balance::{ConsistentHashBalancer, FirstFitBalancer, LoadBalancer, RoundRobinBalancer};
use crate::ring::{splitmix64, user_key, DEFAULT_VNODES};
use crate::shard::{BrokerShard, ShardHealth, ShardId, ShardView};

/// Per-shard seed spacing (Weyl constant): shard 0 keeps the federation
/// seed unchanged, which is what makes the 1-shard differential exact.
const SEED_STRIDE: u64 = 0x9e37_79b9_7f4a_7c15;

/// Flights still incomplete this long after their nominal work time are
/// aborted (the leader's instance died without its shard dying), in
/// multiples of the shard check interval.
const FLIGHT_TIMEOUT_TICKS: u64 = 10;

/// A federation-wide session identifier, dense from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FedSessionId(u64);

impl FedSessionId {
    /// The raw id.
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for FedSessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fed-session-{}", self.0)
    }
}

/// The three shipped placement policies, as a report-friendly enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Virtual-node consistent hashing (the headline policy).
    ConsistentHash,
    /// Cycling round-robin over accepting shards.
    RoundRobin,
    /// First-fit packing with allocation-retry.
    FirstFit,
}

impl Policy {
    /// All three policies, in report order.
    #[must_use]
    pub fn all() -> [Policy; 3] {
        [Policy::ConsistentHash, Policy::RoundRobin, Policy::FirstFit]
    }

    /// The policy's stable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Policy::ConsistentHash => "consistent-hash",
            Policy::RoundRobin => "round-robin",
            Policy::FirstFit => "first-fit",
        }
    }

    /// Builds the balancer this policy names.
    #[must_use]
    pub fn build(self, seed: u64, vnodes: u32) -> Box<dyn LoadBalancer> {
        match self {
            Policy::ConsistentHash => Box::new(ConsistentHashBalancer::new(seed, vnodes)),
            Policy::RoundRobin => Box::new(RoundRobinBalancer::new()),
            Policy::FirstFit => Box::new(FirstFitBalancer::new()),
        }
    }
}

/// Everything that shapes a federation.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Number of broker shards.
    pub shards: usize,
    /// Replicated WPS front-ends (routing labels over the shared tier).
    pub front_ends: usize,
    /// Virtual nodes per shard on the consistent-hash ring.
    pub vnodes: u32,
    /// Rebind pacing: each control tick re-homes
    /// `ceil(pending / drain_denominator)` parked sessions (at least
    /// [`FederationConfig::rebind_floor`]), so a killed shard's
    /// reconnect storm drains over several ticks instead of thundering
    /// in one.
    pub drain_denominator: u32,
    /// Minimum parked sessions re-homed per tick.
    pub rebind_floor: usize,
    /// Per-shard broker configuration.
    pub shard: BrokerConfig,
    /// Shared result-cache configuration.
    pub cache: CacheConfig,
}

impl Default for FederationConfig {
    fn default() -> FederationConfig {
        FederationConfig {
            shards: 4,
            front_ends: 2,
            vnodes: DEFAULT_VNODES,
            drain_denominator: 8,
            rebind_floor: 16,
            shard: BrokerConfig::default(),
            cache: CacheConfig::default(),
        }
    }
}

/// Federation-level failures.
#[derive(Debug, Clone, PartialEq)]
pub enum FederationError {
    /// The configuration failed validation.
    InvalidConfig(String),
    /// No shard can serve right now (all down).
    NoShardAvailable,
    /// The federation session id is unknown (never opened, or closed).
    UnknownSession(FedSessionId),
    /// The session lost its shard and is queued for re-homing; retry
    /// after the next control tick.
    SessionRebinding {
        /// The affected session.
        session: FedSessionId,
        /// The soonest a re-home can happen.
        retry_after: SimDuration,
    },
    /// An underlying broker error from the serving shard.
    Broker(BrokerError),
}

impl fmt::Display for FederationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FederationError::InvalidConfig(msg) => write!(f, "invalid federation config: {msg}"),
            FederationError::NoShardAvailable => write!(f, "no shard available"),
            FederationError::UnknownSession(s) => write!(f, "unknown federation session: {s}"),
            FederationError::SessionRebinding { session, retry_after } => {
                write!(f, "{session} re-homing after shard loss; retry after {retry_after}")
            }
            FederationError::Broker(e) => write!(f, "shard broker error: {e}"),
        }
    }
}

impl std::error::Error for FederationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FederationError::Broker(e) => Some(e),
            _ => None,
        }
    }
}

/// Operationally interesting federation moments, for the harnesses.
#[derive(Debug, Clone, PartialEq)]
pub enum FederationEvent {
    /// A shard was drained: closed to new placements, serving the rest.
    ShardDraining {
        /// When.
        at: SimTime,
        /// Which shard.
        shard: ShardId,
    },
    /// A shard died; its live sessions entered the rebind queue.
    ShardDown {
        /// When.
        at: SimTime,
        /// Which shard.
        shard: ShardId,
        /// Live sessions queued for re-homing.
        sessions: usize,
    },
    /// A session lost with its shard was re-homed on a survivor.
    SessionRebound {
        /// When.
        at: SimTime,
        /// The session.
        session: FedSessionId,
        /// The shard it lost.
        from: ShardId,
        /// Its new home.
        to: ShardId,
    },
    /// An in-flight coalesced run died with its leader's shard.
    FlightAborted {
        /// When.
        at: SimTime,
        /// The cache-key label the crowd was riding.
        key: String,
        /// The dead shard.
        shard: ShardId,
        /// Followers who lose the answer and must retry.
        followers: u64,
    },
}

/// How one front-end request was served.
#[derive(Debug)]
pub enum RequestOutcome {
    /// Answered from the shared cache, no shard involved.
    Hit(Hit),
    /// This request leads a real model run on `shard`.
    Leader {
        /// The serving shard.
        shard: ShardId,
        /// The submitted job.
        job: JobId,
    },
    /// Attached to an in-flight identical run (possibly on another
    /// shard, submitted through another front-end).
    Follower {
        /// The shard running the leader's job.
        shard: ShardId,
        /// 1-based position on the flight.
        position: u64,
    },
}

/// Where a session currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Binding {
    /// Homed on a shard, with that shard's inner session id.
    Bound { shard: ShardId, inner: SessionId },
    /// In the rebind queue; `from` is the shard it lost (`None` when it
    /// was parked at connect time by a full federation).
    Rebinding { from: Option<ShardId> },
}

/// The compact per-session directory record. The hot serving plane
/// keeps only routing state; everything heavy (push channel, trace
/// context, timestamps) lives in the owning shard's broker while the
/// session is open and dies with it.
#[derive(Debug)]
struct SessionEntry {
    binding: Binding,
    key: u64,
    user: Box<str>,
    model: Box<str>,
}

/// One in-flight coalesced run, tracked federation-side so completion
/// can fan out and enter the shared cache.
#[derive(Debug)]
struct FlightMeta {
    key: CacheKey,
    shard: ShardId,
    job: JobId,
    /// The instance serving the leader's job at submit time, recorded so
    /// completion polling is a direct lookup, not an instance scan —
    /// the difference between O(flights) and O(flights × instances) per
    /// tick at E8 scale.
    instance: Option<InstanceId>,
    submitted_at: SimTime,
    work: SimDuration,
    front_ends: BTreeSet<usize>,
}

/// The deterministic stand-in body a completed flight publishes into
/// the shared cache. It is passed to [`ResultCache::insert`] as the
/// render, so it is built only when the cache keeps it. Public so
/// differential drivers insert the same bytes the federation would.
#[must_use]
pub fn synthetic_result(key: &CacheKey) -> Bytes {
    let result = json!({
        "key": key.render(),
        "fingerprint": format!("{:016x}", key.fingerprint()),
    });
    Bytes::from(result.to_string())
}

/// The sharded serving plane.
#[derive(Debug)]
pub struct Federation {
    config: FederationConfig,
    shards: Vec<BrokerShard>,
    balancer: Box<dyn LoadBalancer>,
    sessions: BTreeMap<u64, SessionEntry>,
    pending: VecDeque<u64>,
    live_counts: Vec<usize>,
    cache: ResultCache,
    coalescer: Coalescer,
    flights: BTreeMap<u64, FlightMeta>,
    events: Vec<FederationEvent>,
    tracer: Tracer,
    metrics: MetricsRegistry,
    clock: SimTime,
    next_session: u64,
    connected: u64,
    closed: u64,
    rebinds: u64,
    parked_placements: u64,
    flights_completed: u64,
    flights_aborted: u64,
    cross_front_end_flights: u64,
    placement_digest: u64,
    placements: u64,
    shard_labels: Vec<String>,
    front_end_labels: Vec<String>,
}

impl Federation {
    /// Builds a federation of `config.shards` brokers under `policy`.
    /// Shard `i` seeds its broker with `seed ^ i * stride` (shard 0
    /// keeps `seed` itself), all sharing one tracer and one metrics
    /// registry so observability judges the plane as a whole.
    ///
    /// # Errors
    ///
    /// Returns [`FederationError::InvalidConfig`] for a zero-shard or
    /// zero-front-end federation or an invalid per-shard broker config.
    pub fn try_new(
        config: FederationConfig,
        seed: u64,
        policy: Policy,
    ) -> Result<Federation, FederationError> {
        if config.shards == 0 || config.shards > usize::from(u16::MAX) {
            return Err(FederationError::InvalidConfig(format!(
                "shard count must be in 1..={}, got {}",
                u16::MAX,
                config.shards
            )));
        }
        if config.front_ends == 0 {
            return Err(FederationError::InvalidConfig(String::from(
                "at least one front-end is required",
            )));
        }
        let tracer = Tracer::new();
        let metrics = MetricsRegistry::new();
        let mut balancer = policy.build(seed, config.vnodes);
        let mut shards = Vec::with_capacity(config.shards);
        for i in 0..config.shards {
            let id = ShardId::new(i as u16);
            let shard_seed = seed ^ (i as u64).wrapping_mul(SEED_STRIDE);
            let shard = BrokerShard::try_new(
                id,
                config.shard.clone(),
                shard_seed,
                tracer.clone(),
                metrics.clone(),
            )
            .map_err(FederationError::Broker)?;
            balancer.shard_joined(id);
            shards.push(shard);
        }
        let mut cache = ResultCache::new(config.cache.clone());
        cache.set_metrics(metrics.clone());
        let mut coalescer = Coalescer::new();
        coalescer.set_metrics(metrics.clone());
        let shard_labels = (0..config.shards).map(|i| format!("shard-{i}")).collect();
        let front_end_labels = (0..config.front_ends).map(|i| format!("fe-{i}")).collect();
        let live_counts = vec![0; config.shards];
        Ok(Federation {
            config,
            shards,
            balancer,
            sessions: BTreeMap::new(),
            pending: VecDeque::new(),
            live_counts,
            cache,
            coalescer,
            flights: BTreeMap::new(),
            events: Vec::new(),
            tracer,
            metrics,
            clock: SimTime::ZERO,
            next_session: 0,
            connected: 0,
            closed: 0,
            rebinds: 0,
            parked_placements: 0,
            flights_completed: 0,
            flights_aborted: 0,
            cross_front_end_flights: 0,
            placement_digest: 0xcbf2_9ce4_8422_2325,
            placements: 0,
            shard_labels,
            front_end_labels,
        })
    }

    // ------------------------------------------------------------------
    // Accessors.
    // ------------------------------------------------------------------

    /// Federation virtual time (equals every live shard's clock).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The placement policy's label.
    #[must_use]
    pub fn policy_name(&self) -> &'static str {
        self.balancer.name()
    }

    /// The shared tracer.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The shared metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The federation event log.
    #[must_use]
    pub fn events(&self) -> &[FederationEvent] {
        &self.events
    }

    /// Number of shards (any health).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// A shard's broker, read-only.
    #[must_use]
    pub fn shard_broker(&self, shard: ShardId) -> Option<&Broker> {
        self.shards.get(shard.index()).map(BrokerShard::broker)
    }

    /// A shard's health.
    #[must_use]
    pub fn shard_health(&self, shard: ShardId) -> Option<ShardHealth> {
        self.shards.get(shard.index()).map(BrokerShard::health)
    }

    /// Live sessions homed on `shard` right now.
    #[must_use]
    pub fn live_on(&self, shard: ShardId) -> usize {
        self.live_counts.get(shard.index()).copied().unwrap_or(0)
    }

    /// Live sessions across the federation (bound + rebinding).
    #[must_use]
    pub fn live_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Sessions queued for re-homing.
    #[must_use]
    pub fn pending_rebinds(&self) -> usize {
        self.pending.len()
    }

    /// Sessions ever connected.
    #[must_use]
    pub fn sessions_connected(&self) -> u64 {
        self.connected
    }

    /// Sessions closed by their users.
    #[must_use]
    pub fn sessions_closed(&self) -> u64 {
        self.closed
    }

    /// Sessions re-homed after losing their shard.
    #[must_use]
    pub fn rebinds_total(&self) -> u64 {
        self.rebinds
    }

    /// Placements that had to park first (allocation-retry).
    #[must_use]
    pub fn parked_placements(&self) -> u64 {
        self.parked_placements
    }

    /// Coalesced flights fanned out so far.
    #[must_use]
    pub fn flights_completed(&self) -> u64 {
        self.flights_completed
    }

    /// Flights aborted (leader's shard or instance died).
    #[must_use]
    pub fn flights_aborted(&self) -> u64 {
        self.flights_aborted
    }

    /// Completed flights whose requests arrived through more than one
    /// front-end — the proof coalescing crosses the front-end tier.
    #[must_use]
    pub fn cross_front_end_flights(&self) -> u64 {
        self.cross_front_end_flights
    }

    /// Flights currently in the air.
    #[must_use]
    pub fn flights_in_progress(&self) -> usize {
        self.flights.len()
    }

    /// Shared cache totals.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Rolling FNV/SplitMix digest over every `(session, shard)`
    /// placement in order — 16 hex digits pinning placement determinism
    /// in the goldens.
    #[must_use]
    pub fn placement_digest(&self) -> String {
        format!("{:016x}", self.placement_digest)
    }

    /// Placements folded into [`Federation::placement_digest`].
    #[must_use]
    pub fn placements(&self) -> u64 {
        self.placements
    }

    /// Total cloud cost across every shard.
    #[must_use]
    pub fn total_cost(&self) -> f64 {
        self.shards.iter().map(|s| s.broker().total_cost()).sum()
    }

    /// Number of front-ends.
    #[must_use]
    pub fn front_ends(&self) -> usize {
        self.front_end_labels.len()
    }

    // ------------------------------------------------------------------
    // Serving surface.
    // ------------------------------------------------------------------

    /// Opens a session for `user`, placed by the balancer. When no
    /// shard can take it the session is *parked* (still `Ok`) and
    /// re-tried each control tick, mirroring the broker's own
    /// capacity-shortfalls-do-not-error contract.
    ///
    /// # Errors
    ///
    /// Returns [`FederationError::NoShardAvailable`] when every shard
    /// is down, or a wrapped [`BrokerError`] (unknown model, refused
    /// connect) from the chosen shard.
    pub fn connect(&mut self, user: &str, model: &str) -> Result<FedSessionId, FederationError> {
        let key = user_key(user);
        let views = self.views();
        let placed = self.balancer.place(key, &views);
        let id = FedSessionId(self.next_session);
        match placed {
            Some(shard) => {
                let Some(slot) = self.shards.get_mut(shard.index()) else {
                    return Err(FederationError::NoShardAvailable);
                };
                let inner =
                    slot.broker_mut().connect(user, model).map_err(FederationError::Broker)?;
                self.next_session += 1;
                self.connected += 1;
                self.note_placement(id, shard);
                if let Some(count) = self.live_counts.get_mut(shard.index()) {
                    *count += 1;
                }
                self.sessions.insert(
                    id.0,
                    SessionEntry {
                        binding: Binding::Bound { shard, inner },
                        key,
                        user: user.into(),
                        model: model.into(),
                    },
                );
                Ok(id)
            }
            None => {
                if !self.shards.iter().any(|s| s.health() != ShardHealth::Down) {
                    return Err(FederationError::NoShardAvailable);
                }
                // Refuse unknown models up front; shards share one library.
                let serveable = self.shards.first().is_some_and(|s| {
                    s.broker()
                        .library()
                        .image_for_model(model, s.broker().config().allow_incubator_fallback)
                        .is_some()
                });
                if !serveable {
                    return Err(FederationError::Broker(BrokerError::NoImageForModel(
                        model.to_owned(),
                    )));
                }
                self.next_session += 1;
                self.connected += 1;
                self.parked_placements += 1;
                self.metrics.inc_counter("federation_parked_total", &[]);
                self.sessions.insert(
                    id.0,
                    SessionEntry {
                        binding: Binding::Rebinding { from: None },
                        key,
                        user: user.into(),
                        model: model.into(),
                    },
                );
                self.pending.push_back(id.0);
                Ok(id)
            }
        }
    }

    /// Closes a session, wherever it lives.
    ///
    /// # Errors
    ///
    /// Returns [`FederationError::UnknownSession`] for a bad id, or a
    /// wrapped [`BrokerError`] from the owning shard.
    pub fn disconnect(&mut self, session: FedSessionId) -> Result<(), FederationError> {
        let Some(entry) = self.sessions.remove(&session.0) else {
            return Err(FederationError::UnknownSession(session));
        };
        self.closed += 1;
        if let Binding::Bound { shard, inner } = entry.binding {
            if let Some(count) = self.live_counts.get_mut(shard.index()) {
                *count = count.saturating_sub(1);
            }
            if let Some(slot) = self.shards.get_mut(shard.index()) {
                if slot.health() != ShardHealth::Down {
                    slot.broker_mut().disconnect(inner).map_err(FederationError::Broker)?;
                }
            }
        }
        Ok(())
    }

    /// Serves one front-end request for `session`: shared cache first,
    /// then the singleflight coalescer against the serving shard. An
    /// identical in-flight question is joined as a follower even when
    /// it leads on a *different* shard or arrived through a different
    /// front-end — that is the whole point of sharing the tier.
    ///
    /// # Errors
    ///
    /// Returns [`FederationError::SessionRebinding`] while the session
    /// is between shards (counted as a `transient` submit, so the
    /// availability SLO sees the outage), or a wrapped [`BrokerError`].
    pub fn request(
        &mut self,
        front_end: usize,
        session: FedSessionId,
        key: &CacheKey,
        work: SimDuration,
    ) -> Result<RequestOutcome, FederationError> {
        let now = self.clock;
        let fe = front_end % self.front_end_labels.len().max(1);
        if let Some(label) = self.front_end_labels.get(fe) {
            self.metrics.inc_counter("federation_requests_total", &[("front_end", label)]);
        }
        if let Some(hit) = self.cache.lookup(now, key) {
            return Ok(RequestOutcome::Hit(hit));
        }
        let Some(entry) = self.sessions.get(&session.0) else {
            return Err(FederationError::UnknownSession(session));
        };
        let Binding::Bound { shard, inner } = entry.binding else {
            // Between shards: the platform answers with a retry hint.
            // Count it in the broker's own submit family so the
            // federation-wide availability SLO judges the outage.
            self.metrics.inc_counter("broker_submit_total", &[("outcome", "transient")]);
            return Err(FederationError::SessionRebinding {
                session,
                retry_after: self.config.shard.check_interval,
            });
        };
        let fingerprint = key.fingerprint();
        let target = self.flights.get(&fingerprint).map_or(shard, |f| f.shard);
        let Some(slot) = self.shards.get_mut(target.index()) else {
            return Err(FederationError::NoShardAvailable);
        };
        match self.coalescer.submit(slot.broker_mut(), key, inner, work, None) {
            Ok(Submission::Leader { job }) => {
                let instance = slot.broker().session(inner).and_then(|s| s.instance());
                let mut front_ends = BTreeSet::new();
                front_ends.insert(fe);
                self.flights.insert(
                    fingerprint,
                    FlightMeta {
                        key: key.clone(),
                        shard: target,
                        job,
                        instance,
                        submitted_at: now,
                        work,
                        front_ends,
                    },
                );
                Ok(RequestOutcome::Leader { shard: target, job })
            }
            Ok(Submission::Follower { position, .. }) => {
                if let Some(flight) = self.flights.get_mut(&fingerprint) {
                    flight.front_ends.insert(fe);
                }
                Ok(RequestOutcome::Follower { shard: target, position })
            }
            Err(e) => Err(FederationError::Broker(e)),
        }
    }

    /// Advances the whole federation by `step`: every live shard's
    /// control loop runs (dead shards stay frozen), due flights fan out
    /// into the shared cache, and a paced batch of the rebind queue is
    /// re-homed.
    pub fn advance(&mut self, step: SimDuration) {
        for slot in self.shards.iter_mut() {
            if slot.health() != ShardHealth::Down {
                slot.broker_mut().advance(step);
                slot.broker_mut().reap_closed();
            }
        }
        self.clock += step;
        self.complete_due_flights();
        self.rebind_pass();
        self.refresh_gauges();
    }

    // ------------------------------------------------------------------
    // Shard lifecycle.
    // ------------------------------------------------------------------

    /// Drains `shard`: closed to new placements, serving what it has —
    /// the graceful half of leaving the federation.
    pub fn drain_shard(&mut self, shard: ShardId) {
        let Some(slot) = self.shards.get_mut(shard.index()) else { return };
        if slot.health() != ShardHealth::Up {
            return;
        }
        slot.set_health(ShardHealth::Draining);
        self.balancer.shard_left(shard);
        self.events.push(FederationEvent::ShardDraining { at: self.clock, shard });
        self.metrics.inc_counter("federation_shard_transitions_total", &[("to", "draining")]);
    }

    /// Kills `shard` outright: it leaves the balancer, flights it led
    /// abort, and every live session homed on it enters the rebind
    /// queue. Returns how many sessions were queued.
    pub fn kill_shard(&mut self, shard: ShardId) -> usize {
        let at = self.clock;
        let Some(slot) = self.shards.get_mut(shard.index()) else { return 0 };
        if slot.health() == ShardHealth::Down {
            return 0;
        }
        if slot.health() == ShardHealth::Up {
            self.balancer.shard_left(shard);
        }
        slot.set_health(ShardHealth::Down);

        let orphaned: Vec<u64> =
            self.flights.iter().filter(|(_, f)| f.shard == shard).map(|(&fp, _)| fp).collect();
        for fingerprint in orphaned {
            let Some(meta) = self.flights.remove(&fingerprint) else { continue };
            let followers =
                self.coalescer.complete(&meta.key).map_or(0, |f| f.followers.len() as u64);
            self.flights_aborted += 1;
            self.metrics.inc_counter("federation_flights_total", &[("outcome", "aborted")]);
            self.events.push(FederationEvent::FlightAborted {
                at,
                key: meta.key.render(),
                shard,
                followers,
            });
        }

        let mut moved = 0;
        for (sid, entry) in self.sessions.iter_mut() {
            if let Binding::Bound { shard: home, .. } = entry.binding {
                if home == shard {
                    entry.binding = Binding::Rebinding { from: Some(shard) };
                    self.pending.push_back(*sid);
                    moved += 1;
                }
            }
        }
        if let Some(count) = self.live_counts.get_mut(shard.index()) {
            *count = 0;
        }
        self.events.push(FederationEvent::ShardDown { at, shard, sessions: moved });
        self.metrics.inc_counter("federation_shard_transitions_total", &[("to", "down")]);
        moved
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    /// Point-in-time shard views for the balancer.
    fn views(&self) -> Vec<ShardView> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, slot)| ShardView {
                id: slot.id(),
                health: slot.health(),
                active_sessions: self.live_counts.get(i).copied().unwrap_or(0),
                capacity_slots: slot.capacity_slots(),
            })
            .collect()
    }

    /// Folds one placement into the rolling digest.
    fn note_placement(&mut self, session: FedSessionId, shard: ShardId) {
        let packed = session.0 ^ (u64::from(shard.as_u16()) << 48);
        self.placement_digest = splitmix64(self.placement_digest ^ splitmix64(packed));
        self.placements += 1;
    }

    /// Fans out flights whose nominal work time has elapsed and whose
    /// job has completed on its shard; aborts flights that outlived the
    /// timeout (the leader's instance died under them).
    fn complete_due_flights(&mut self) {
        let now = self.clock;
        let timeout = SimDuration::from_millis(
            self.config.shard.check_interval.as_millis().saturating_mul(FLIGHT_TIMEOUT_TICKS),
        );
        let due: Vec<u64> = self
            .flights
            .iter()
            .filter(|(_, f)| now >= f.submitted_at + f.work)
            .map(|(&fp, _)| fp)
            .collect();
        for fingerprint in due {
            let Some(meta) = self.flights.get(&fingerprint) else { continue };
            let finished = self.shards.get(meta.shard.index()).and_then(|slot| {
                let cloud = slot.broker().cloud();
                let job = match meta.instance {
                    // The common path: one instance lookup, one binary
                    // search of its jobs — no per-flight sweep of the fleet.
                    Some(iid) => cloud.instance(iid).and_then(|i| i.job(meta.job)),
                    None => cloud.instances().find_map(|i| i.job(meta.job)),
                };
                job.and_then(|j| match j.state() {
                    JobState::Completed { .. } => Some(()),
                    _ => None,
                })
            });
            let timed_out = now >= meta.submitted_at + meta.work + timeout;
            match finished {
                Some(()) => {
                    let Some(meta) = self.flights.remove(&fingerprint) else { continue };
                    let _flight = self.coalescer.complete(&meta.key);
                    if meta.front_ends.len() > 1 {
                        self.cross_front_end_flights += 1;
                    }
                    self.cache.insert(now, meta.key, synthetic_result);
                    self.flights_completed += 1;
                    self.metrics
                        .inc_counter("federation_flights_total", &[("outcome", "completed")]);
                }
                None if timed_out => {
                    let Some(meta) = self.flights.remove(&fingerprint) else { continue };
                    let followers =
                        self.coalescer.complete(&meta.key).map_or(0, |f| f.followers.len() as u64);
                    self.flights_aborted += 1;
                    self.metrics.inc_counter("federation_flights_total", &[("outcome", "aborted")]);
                    self.events.push(FederationEvent::FlightAborted {
                        at: now,
                        key: meta.key.render(),
                        shard: meta.shard,
                        followers,
                    });
                }
                None => {}
            }
        }
    }

    /// Re-homes a paced batch of the rebind queue through the balancer.
    fn rebind_pass(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let at = self.clock;
        let pending_now = self.pending.len();
        let denom = (self.config.drain_denominator.max(1)) as usize;
        let budget = pending_now.div_ceil(denom).max(self.config.rebind_floor).min(pending_now);
        for _ in 0..budget {
            let Some(sid) = self.pending.pop_front() else { break };
            let Some(entry) = self.sessions.get(&sid) else { continue }; // closed while parked
            let Binding::Rebinding { from } = entry.binding else { continue };
            let key = entry.key;
            let user = entry.user.clone();
            let model = entry.model.clone();
            let views = self.views();
            let Some(shard) = self.balancer.place(key, &views) else {
                // Nothing can take anyone this tick: put it back in
                // front and retry after the next control tick.
                self.pending.push_front(sid);
                break;
            };
            let Some(slot) = self.shards.get_mut(shard.index()) else {
                self.pending.push_back(sid);
                continue;
            };
            match slot.broker_mut().connect(&user, &model) {
                Ok(inner) => {
                    if let Some(entry) = self.sessions.get_mut(&sid) {
                        entry.binding = Binding::Bound { shard, inner };
                    }
                    if let Some(count) = self.live_counts.get_mut(shard.index()) {
                        *count += 1;
                    }
                    self.note_placement(FedSessionId(sid), shard);
                    if let Some(lost) = from {
                        self.rebinds += 1;
                        self.metrics.inc_counter("federation_rebinds_total", &[]);
                        self.events.push(FederationEvent::SessionRebound {
                            at,
                            session: FedSessionId(sid),
                            from: lost,
                            to: shard,
                        });
                    } else {
                        self.metrics.inc_counter("federation_unparked_total", &[]);
                    }
                }
                Err(_) => {
                    // Transient refuse (API burst on the target): retry
                    // behind the rest of the queue.
                    self.pending.push_back(sid);
                }
            }
        }
    }

    /// Publishes per-shard and federation gauges after each tick.
    fn refresh_gauges(&self) {
        for (i, slot) in self.shards.iter().enumerate() {
            let Some(label) = self.shard_labels.get(i) else { continue };
            let live = self.live_counts.get(i).copied().unwrap_or(0);
            self.metrics.set_gauge("federation_sessions", &[("shard", label)], live as f64);
            self.metrics.set_gauge(
                "federation_shard_health",
                &[("shard", label)],
                slot.health().as_gauge(),
            );
        }
        self.metrics.set_gauge("federation_pending_rebinds", &[], self.pending.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(shards: usize) -> FederationConfig {
        FederationConfig {
            shards,
            front_ends: 2,
            shard: BrokerConfig { warm_pool_size: 1, ..BrokerConfig::default() },
            ..FederationConfig::default()
        }
    }

    fn the_key() -> CacheKey {
        CacheKey::new("topmodel", "eden", 1, &json!({"hours": 24}))
    }

    #[test]
    fn directory_entries_stay_compact() {
        // The federation keeps one SessionEntry per live session — the
        // only per-session state on the hot serving plane. Pin the
        // footprint so it cannot quietly grow past a cache line: at the
        // E8 peak (~67k live sessions) the whole directory should stay
        // in the low megabytes.
        assert!(
            std::mem::size_of::<SessionEntry>() <= 64,
            "SessionEntry grew to {} bytes — keep the directory within a cache line",
            std::mem::size_of::<SessionEntry>()
        );
    }

    #[test]
    fn zero_shards_is_invalid() {
        let config = FederationConfig { shards: 0, ..FederationConfig::default() };
        assert!(matches!(
            Federation::try_new(config, 42, Policy::ConsistentHash),
            Err(FederationError::InvalidConfig(_))
        ));
    }

    #[test]
    fn connect_serve_disconnect_roundtrip() {
        let mut fed =
            Federation::try_new(small_config(3), 42, Policy::ConsistentHash).expect("valid");
        fed.advance(SimDuration::from_secs(300)); // warm pools boot
        let a = fed.connect("alice", "topmodel").expect("served");
        let b = fed.connect("bob", "topmodel").expect("served");
        assert_eq!(fed.live_sessions(), 2);
        assert_eq!(fed.sessions_connected(), 2);

        // Same question through both front-ends: one leader, one
        // follower, regardless of which shards the two users live on.
        let key = the_key();
        let first = fed.request(0, a, &key, SimDuration::from_secs(60)).expect("submits");
        assert!(matches!(first, RequestOutcome::Leader { .. }));
        let second = fed.request(1, b, &key, SimDuration::from_secs(60)).expect("attaches");
        assert!(matches!(second, RequestOutcome::Follower { .. }));
        assert_eq!(fed.flights_in_progress(), 1);

        // The flight completes and enters the shared cache; the next
        // identical question is a pure cache hit.
        for _ in 0..10 {
            fed.advance(SimDuration::from_secs(30));
        }
        assert_eq!(fed.flights_completed(), 1);
        assert_eq!(fed.cross_front_end_flights(), 1);
        let third = fed.request(0, a, &key, SimDuration::from_secs(60)).expect("hits");
        assert!(matches!(third, RequestOutcome::Hit(_)));

        fed.disconnect(a).expect("closes");
        fed.disconnect(b).expect("closes");
        assert_eq!(fed.live_sessions(), 0);
        assert_eq!(fed.sessions_closed(), 2);
    }

    #[test]
    fn unknown_model_is_refused_even_when_parked() {
        let mut config = small_config(2);
        config.shard.allow_incubator_fallback = false;
        let mut fed = Federation::try_new(config, 42, Policy::ConsistentHash).expect("valid");
        let err = fed.connect("alice", "no-such-model").expect_err("refused");
        assert!(matches!(err, FederationError::Broker(BrokerError::NoImageForModel(_))));
        assert_eq!(fed.live_sessions(), 0);
    }

    #[test]
    fn kill_rebinds_every_session_and_loses_none() {
        let mut config = small_config(3);
        config.rebind_floor = 4; // force a multi-tick drain
        config.drain_denominator = 4;
        let mut fed = Federation::try_new(config, 42, Policy::ConsistentHash).expect("valid");
        fed.advance(SimDuration::from_secs(300));
        let sessions: Vec<FedSessionId> = (0..30)
            .map(|i| fed.connect(&format!("user-{i}"), "topmodel").expect("served"))
            .collect();
        fed.advance(SimDuration::from_secs(120));

        // Kill whichever shard the hash gave the most sessions.
        let victim =
            (0..3).map(ShardId::new).max_by_key(|&s| fed.live_on(s)).unwrap_or(ShardId::new(0));
        let displaced = fed.kill_shard(victim);
        assert!(displaced > 0, "the victim shard must hold sessions");
        assert_eq!(fed.shard_health(victim), Some(ShardHealth::Down));
        assert_eq!(fed.pending_rebinds(), displaced);

        // A displaced session answers transient while between shards.
        let stuck = sessions
            .iter()
            .find(|s| {
                matches!(
                    fed.request(0, **s, &the_key(), SimDuration::from_secs(60)),
                    Err(FederationError::SessionRebinding { .. })
                )
            })
            .copied();
        assert!(stuck.is_some(), "some session must be mid-rebind");

        // The paced drain re-homes everyone onto the survivors.
        for _ in 0..displaced {
            fed.advance(SimDuration::from_secs(30));
            if fed.pending_rebinds() == 0 {
                break;
            }
        }
        assert_eq!(fed.pending_rebinds(), 0, "every session must re-home");
        assert_eq!(fed.rebinds_total(), displaced as u64);
        assert_eq!(fed.live_sessions(), sessions.len());
        assert_eq!(fed.live_on(victim), 0);
        let rebound = fed
            .events()
            .iter()
            .filter(|e| matches!(e, FederationEvent::SessionRebound { .. }))
            .count();
        assert_eq!(rebound, displaced);
    }

    #[test]
    fn first_fit_parks_and_retries_when_full() {
        let config = FederationConfig {
            shards: 2,
            front_ends: 1,
            shard: BrokerConfig {
                private_capacity_vcpus: 1,
                sessions_per_vcpu: 1,
                warm_pool_size: 0,
                ..BrokerConfig::default()
            },
            ..FederationConfig::default()
        };
        let mut fed = Federation::try_new(config, 42, Policy::FirstFit).expect("valid");
        let a = fed.connect("a", "topmodel").expect("fits shard 0");
        let _b = fed.connect("b", "topmodel").expect("fits shard 1");
        let c = fed.connect("c", "topmodel").expect("parks");
        assert_eq!(fed.parked_placements(), 1);
        assert_eq!(fed.pending_rebinds(), 1);

        // Room opens; the next control tick re-homes the parked session.
        fed.disconnect(a).expect("closes");
        fed.advance(SimDuration::from_secs(60));
        assert_eq!(fed.pending_rebinds(), 0);
        assert!(matches!(
            fed.sessions.get(&c.as_u64()).map(|e| e.binding),
            Some(Binding::Bound { .. })
        ));
    }

    #[test]
    fn drained_shard_takes_no_new_sessions_but_keeps_serving() {
        let mut fed = Federation::try_new(small_config(2), 42, Policy::RoundRobin).expect("valid");
        fed.advance(SimDuration::from_secs(300));
        let a = fed.connect("alice", "topmodel").expect("served");
        let home = match fed.sessions.get(&a.as_u64()).map(|e| e.binding) {
            Some(Binding::Bound { shard, .. }) => shard,
            _ => ShardId::new(0),
        };
        fed.drain_shard(home);
        assert_eq!(fed.shard_health(home), Some(ShardHealth::Draining));
        // New sessions all land on the other shard.
        for i in 0..4 {
            let s = fed.connect(&format!("u{i}"), "topmodel").expect("served");
            if let Some(Binding::Bound { shard, .. }) =
                fed.sessions.get(&s.as_u64()).map(|e| e.binding)
            {
                assert_ne!(shard, home, "draining shard must not take new sessions");
            }
        }
        // The drained shard still answers for its existing session.
        let outcome = fed.request(0, a, &the_key(), SimDuration::from_secs(60));
        assert!(outcome.is_ok(), "draining shard keeps serving: {outcome:?}");
    }

    #[test]
    fn same_seed_federations_place_identically() {
        for policy in Policy::all() {
            let mut a = Federation::try_new(small_config(3), 7, policy).expect("valid");
            let mut b = Federation::try_new(small_config(3), 7, policy).expect("valid");
            for fed in [&mut a, &mut b] {
                fed.advance(SimDuration::from_secs(300));
                for i in 0..20 {
                    let _ = fed.connect(&format!("user-{i}"), "topmodel");
                }
            }
            assert_eq!(a.placement_digest(), b.placement_digest(), "{}", policy.label());
        }
    }
}
