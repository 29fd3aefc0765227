//! What a run measures and how it is printed: the declared metrics, the
//! run context every workload shares, and the final JSON line.

use std::time::Instant;

use serde_json::{json, Map, Value};

use crate::measure::{median, peak_rss_mb, percentile, secs_since, tail_quantile};

/// End-to-end metrics: what a user of the portal would notice. Every
/// workload emits all of them from its untraced units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("step_p50_ms", "ms"),
    ("step_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run. Times are per unit of work (one
/// day, one GLUE analysis, or [`PORTAL_PASS`] portal requests); a layer a
/// workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("shard.connect_ms", "ms"),
    ("shard.connect_calls", "count"),
    ("shard.advance_ms", "ms"),
    ("shard.request_ms", "ms"),
    ("shard.request_calls", "count"),
    ("shard.disconnect_ms", "ms"),
    ("shard.flights_completed", "count"),
    ("shard.flights_aborted", "count"),
    ("shard.flight_waste_ratio", "ratio"),
    ("shard.abort_riders", "count"),
    ("shard.rebinds", "count"),
    ("shard.parked", "count"),
    ("shard.placements", "count"),
    ("shard.cross_front_end_flights", "count"),
    ("shard.peak_live_sessions", "count"),
    ("sim.events_scheduled", "count"),
    ("sim.events_delivered", "count"),
    ("sim.events_cancelled", "count"),
    ("sim.queue_depth_hwm", "count"),
    ("sim.max_same_tick_batch", "count"),
    ("cache.key_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.follower_ratio", "ratio"),
    ("cache.admission_rejected", "count"),
    ("cache.portal_hit_ratio", "ratio"),
    ("broker.binds", "count"),
    ("broker.warm_pool_hits", "count"),
    ("broker.instance_placements", "count"),
    ("broker.cloudbursts", "count"),
    ("broker.scale_downs", "count"),
    ("broker.activation_wait_p50_s", "s"),
    ("broker.activation_wait_p99_s", "s"),
    ("obs.alert_tick_ms", "ms"),
    ("obs.tsdb_ingest_ms", "ms"),
    ("obs.trace_drain_ms", "ms"),
    ("obs.spans_drained", "count"),
    ("obs.tsdb_series", "count"),
    ("services.dispatch_ms", "ms"),
    ("services.route.topmodel_p50_us", "us"),
    ("services.route.fuse_p50_us", "us"),
    ("services.route.sos_p50_us", "us"),
    ("services.route.markers_p50_us", "us"),
    ("services.route.datasets_p50_us", "us"),
    ("services.wps_execute_ms", "ms"),
    ("services.json_encode_ms", "ms"),
    ("services.json_decode_ms", "ms"),
    ("services.responses_non2xx", "count"),
    ("data.sos_query_ms", "ms"),
    ("data.markers_ms", "ms"),
    ("data.catalog_search_ms", "ms"),
    ("data.window_ms", "ms"),
    ("models.topmodel_run_ms", "ms"),
    ("models.glue_rest_ms", "ms"),
    ("models.runs", "count"),
    ("models.behavioural_members", "count"),
    ("models.acceptance_ratio", "ratio"),
    ("models.coverage", "ratio"),
    ("retry_ratio", "ratio"),
    ("cost_per_1k_users", "currency"),
    ("bench.step_samples", "count"),
    ("bench.unattributed_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Named metric values, in emission order.
pub type Metrics = Vec<(&'static str, f64)>;

/// Portal requests per unit of work: per-layer portal numbers are per
/// this many requests.
pub const PORTAL_PASS: usize = 2000;

/// How one benchmark process runs its workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ctx {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Start no new unit of work after this many seconds.
    pub seconds: f64,
    /// A traced run: alternate untraced and traced units and report
    /// per-layer metrics.
    pub traced: bool,
}

/// Units a run repeats at least, whatever `--seconds` says: three
/// untraced units give each step's fastest time three tries, and a traced
/// run gets two tries of each kind.
const MIN_UNITS: usize = 3;
const MIN_TRACED_RUN_UNITS: usize = 4;

impl Ctx {
    /// Whether to start unit number `units`: until the run has its minimum
    /// of units, then while time remains.
    pub fn keep_going(&self, started: Instant, units: usize) -> bool {
        let minimum = if self.traced { MIN_TRACED_RUN_UNITS } else { MIN_UNITS };
        units < minimum || secs_since(started) < self.seconds
    }

    /// Whether unit number `unit` records spans. A traced run starts
    /// untraced, so the overhead ratio compares like with like.
    pub fn unit_traced(&self, unit: usize) -> bool {
        self.traced && unit % 2 == 1
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units of work run (days, analyses or passes).
    pub units: usize,
    /// Operations attempted: asks, requests or model runs.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Digest of the outputs of the first unit (same seed, same digest).
    pub digest: u64,
    /// Output checks that did not hold.
    pub violations: Vec<String>,
    /// [`END_TO_END`] values from the untraced units.
    pub end_to_end: Metrics,
    /// [`PER_LAYER`] values this workload measures, from traced units.
    pub per_layer: Metrics,
}

/// The end-to-end metrics of the untraced units. Every unit repeats the
/// same inputs, so step `k` does the same work in each. Noise from other
/// tenants of a shared host only ever adds time, so a step's time is its
/// fastest across the units. `ops_per_s` is `ops_per_unit` over the sum
/// of those step times, and the percentiles are taken over them.
pub fn end_to_end(
    setup_s: &[f64],
    ops_per_unit: f64,
    units_steps_ms: &[Vec<f64>],
    outcome: &mut Outcome,
) {
    let steps = units_steps_ms.first().map_or(0, Vec::len);
    if units_steps_ms.iter().any(|u| u.len() != steps) {
        outcome.violations.push("units of identical inputs took different step counts".to_owned());
    }
    let mut fastest = fastest_steps(units_steps_ms);
    let busy_s = fastest.iter().sum::<f64>() / 1e3;
    fastest.sort_by(f64::total_cmp);
    if tail_quantile(fastest.len()) != Some(0.99) {
        outcome.violations.push(format!("{steps} steps per unit leave fewer than ten beyond p99"));
    }
    let rss = peak_rss_mb().unwrap_or_else(|| {
        outcome.violations.push("VmHWM unreadable".to_owned());
        f64::NAN
    });
    outcome.end_to_end = vec![
        ("setup_s", median(setup_s)),
        ("ops_per_s", ops_per_unit / busy_s),
        ("step_p50_ms", percentile(&fastest, 0.50)),
        ("step_p99_ms", percentile(&fastest, 0.99)),
        ("peak_rss_mb", rss),
    ];
    outcome.per_layer.push(("bench.step_samples", steps as f64));
}

/// Each step's fastest time across units of identical inputs, in step
/// order.
pub fn fastest_steps(units_steps_ms: &[Vec<f64>]) -> Vec<f64> {
    let steps = units_steps_ms.iter().map(Vec::len).min().unwrap_or(0);
    (0..steps).map(|k| units_steps_ms.iter().map(|u| u[k]).fold(f64::INFINITY, f64::min)).collect()
}

/// How much slower traced units ran: the traced units' total of fastest
/// step times over the untraced units'.
pub fn overhead_ratio(traced_steps_ms: &[Vec<f64>], untraced_steps_ms: &[Vec<f64>]) -> f64 {
    let total = |units| fastest_steps(units).iter().sum::<f64>();
    total(traced_steps_ms) / total(untraced_steps_ms)
}

/// `part / whole`, 0 when nothing happened.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The metrics a run prints: every declared metric of its kind, in
/// declaration order, with per-layer metrics a workload does not measure
/// reading 0. Errors name a metric emitted but not declared, or an
/// end-to-end metric missing.
pub fn select(
    outcome: &Outcome,
    traced: bool,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let (declared, emitted) =
        if traced { (PER_LAYER, &outcome.per_layer) } else { (END_TO_END, &outcome.end_to_end) };
    if let Some((name, _)) = emitted.iter().find(|(n, _)| !declared.iter().any(|(d, _)| d == n)) {
        return Err(format!("metric {name} is emitted but not declared"));
    }
    declared
        .iter()
        .map(|&(name, unit)| match emitted.iter().find(|(n, _)| *n == name) {
            Some(&(_, value)) => Ok((name, value, unit)),
            None if traced => Ok((name, 0.0, unit)),
            None => Err(format!("end-to-end metric {name} was not measured")),
        })
        .collect()
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(outcome: &Outcome, metrics: &[(&str, f64, &str)]) -> Value {
    let mut map = Map::new();
    for &(name, value, unit) in metrics {
        map.insert(name.to_owned(), json!({ "value": value, "unit": unit }));
    }
    json!({
        "correct": outcome.violations.is_empty(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": map,
    })
}
