//! `portal_mix`: one closed-loop client driving the portal's REST API
//! (Fig. 1 of the paper) over an observatory of the four study
//! catchments with a 90-day archive and an L1 result cache.
//!
//! The mix: 55 % TOPMODEL executes with scenario and slider values from a
//! 4 x 5 x 3 x 3 grid, 10 % FUSE executes (4 x 5 scenarios), 25 % SOS
//! observation windows, 5 % map markers and 5 % dataset searches. The 200
//! execute keys fit the cache, and set-up runs each once, as a portal's
//! first visitors would: measured executes are cache hits that still
//! encode a 2 160-point hydrograph on every response. Keeping the misses
//! out of the measured steps keeps them from setting `step_p99_ms`, where
//! their share would depend on how many requests a run completes.

use std::collections::BTreeMap;
use std::sync::Arc;

use evop_cache::CachePolicy;
use evop_core::{api, Evop};
use evop_data::catalog::Query;
use evop_data::{BoundingBox, CatchmentId, LatLon, SensorId, SensorKind, Timestamp};
use evop_models::Scenario;
use evop_services::sos::GetObservation;
use evop_services::{Request, Response, Router};
use serde_json::{json, Value};

use crate::measure::{now, percentile, secs_since, splitmix64, Digest, Layers, Span};
use crate::report::{end_to_end, overhead_ratio, ratio, Ctx, Outcome, PORTAL_PASS};

/// Observatories built per run for the `setup_s` median.
const SETUP_REPEATS: usize = 3;

/// Days of archive behind every sensor and model forcing.
const ARCHIVE_DAYS: usize = 90;

/// Seed the observatory's archives are generated from. The observatory is
/// the deployment under test; `--seed` varies only the requests.
const ARCHIVE_SEED: u64 = 42;

/// TOPMODEL slider values the client picks from.
const M_VALUES: [f64; 3] = [0.008, 0.012, 0.02];
const TD_VALUES: [f64; 3] = [5.0, 10.0, 20.0];

/// Dataset search texts.
const SEARCH_TEXTS: [&str; 6] = ["", "rainfall", "stage", "turbidity", "Morland", "Eden"];

/// Route classes, in the order per-route metrics are reported.
const ROUTES: [(&str, Route); 5] = [
    ("services.route.topmodel_p50_us", Route::Topmodel),
    ("services.route.fuse_p50_us", Route::Fuse),
    ("services.route.sos_p50_us", Route::Sos),
    ("services.route.markers_p50_us", Route::Markers),
    ("services.route.datasets_p50_us", Route::Datasets),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Topmodel,
    Fuse,
    Sos,
    Markers,
    Datasets,
}

/// The same request, as direct calls into the layers behind the route.
enum Direct {
    Execute { catchment: CatchmentId, process: &'static str, inputs: Value },
    Sos(GetObservation),
    Markers(BoundingBox),
    Datasets(Query),
}

/// One generated portal request.
struct Call {
    route: Route,
    request: Request,
    /// Identifies an execute's inputs, for the byte-identity check.
    execute_id: Option<u64>,
    direct: Direct,
}

/// The observatory's fixed vocabulary: catchment ids and bounding boxes,
/// and the sensors that have archives.
struct Vocabulary {
    catchments: Vec<(CatchmentId, BoundingBox)>,
    sensors: Vec<SensorId>,
    start: Timestamp,
}

impl Vocabulary {
    fn of(evop: &Evop) -> Vocabulary {
        let catchments: Vec<_> =
            evop.catchments().iter().map(|c| (c.id().clone(), c.bounding_box())).collect();
        let sensors = evop
            .catchments()
            .iter()
            .flat_map(|c| c.default_sensors())
            .filter(|s| s.kind() != SensorKind::Webcam)
            .map(|s| s.id().clone())
            .collect();
        Vocabulary { catchments, sensors, start: evop.start() }
    }

    /// The execute of catchment `c` under scenario `scenario`: TOPMODEL
    /// with slider indices `sliders`, or FUSE without.
    fn execute(&self, c: usize, scenario: usize, sliders: Option<(usize, usize)>) -> Call {
        let catchment = &self.catchments[c].0;
        let scenario = Scenario::all()[scenario].id();
        let (process, route, inputs) = match sliders {
            Some((m, td)) => (
                "topmodel",
                Route::Topmodel,
                json!({ "scenario": scenario, "m": M_VALUES[m], "td": TD_VALUES[td] }),
            ),
            None => ("fuse", Route::Fuse, json!({ "scenario": scenario })),
        };
        let path = format!("/catchments/{catchment}/processes/{process}/execute");
        let request = Request::post(path.as_str()).json(&inputs);
        let mut id = Digest::default();
        id.bytes(path.as_bytes());
        id.bytes(request.body_bytes());
        let direct = Direct::Execute { catchment: catchment.clone(), process, inputs };
        Call { route, request, execute_id: Some(id.value()), direct }
    }

    /// Every execute key of the mix, once.
    fn every_execute(&self) -> Vec<Call> {
        let mut calls = Vec::new();
        for c in 0..self.catchments.len() {
            for scenario in 0..Scenario::all().len() {
                calls.push(self.execute(c, scenario, None));
                for m in 0..M_VALUES.len() {
                    for td in 0..TD_VALUES.len() {
                        calls.push(self.execute(c, scenario, Some((m, td))));
                    }
                }
            }
        }
        calls
    }

    /// Request number `i` of the stream seeded by `seed`.
    fn call(&self, seed: u64, i: u64) -> Call {
        let mut r = splitmix64(seed ^ i.wrapping_mul(0xa076_1d64_78bd_642f));
        let mut pick = |n: usize| {
            let choice = (r % n as u64) as usize;
            r /= n as u64;
            choice
        };
        let class = pick(100);
        let (c, scenario) = (pick(self.catchments.len()), pick(Scenario::all().len()));
        if class < 55 {
            let sliders = (pick(M_VALUES.len()), pick(TD_VALUES.len()));
            return self.execute(c, scenario, Some(sliders));
        }
        if class < 65 {
            return self.execute(c, scenario, None);
        }
        if class < 90 {
            let sensor = &self.sensors[pick(self.sensors.len())];
            let days = [1, 2, 3, 7][pick(4)];
            let begin = self.start.plus_days(pick(ARCHIVE_DAYS - days) as i64);
            let end = begin.plus_days(days as i64);
            let request = Request::get(format!("/sensors/{sensor}/observations"))
                .query("from", begin.as_unix().to_string())
                .query("to", end.as_unix().to_string());
            let query = GetObservation { procedure: sensor.clone(), begin, end, max_results: None };
            return Call {
                route: Route::Sos,
                request,
                execute_id: None,
                direct: Direct::Sos(query),
            };
        }
        if class < 95 {
            let view = if pick(2) == 0 {
                self.catchments[c].1
            } else {
                BoundingBox::new(LatLon::new(49.5, -8.0), LatLon::new(59.0, 2.0))
            };
            let (sw, ne) = (view.south_west(), view.north_east());
            let request = Request::get("/map/markers")
                .query("south", sw.lat().to_string())
                .query("west", sw.lon().to_string())
                .query("north", ne.lat().to_string())
                .query("east", ne.lon().to_string());
            return Call {
                route: Route::Markers,
                request,
                execute_id: None,
                direct: Direct::Markers(view),
            };
        }
        let text = SEARCH_TEXTS[pick(SEARCH_TEXTS.len())];
        let (request, query) = if text.is_empty() {
            (Request::get("/datasets"), Query::new())
        } else {
            (Request::get("/datasets").query("text", text), Query::new().text(text))
        };
        Call { route: Route::Datasets, request, execute_id: None, direct: Direct::Datasets(query) }
    }
}

/// Replays `call` straight into the layers behind its route, charging
/// each to its span.
fn replay(evop: &Evop, call: &Call, layers: &mut Layers) {
    match &call.direct {
        Direct::Execute { catchment, process, inputs } => {
            let Some(wps) = evop.wps(catchment) else { return };
            let Ok(outputs) =
                layers.time(Span::WpsExecute, || wps.execute(process, inputs.clone()))
            else {
                return;
            };
            let response = layers.time(Span::JsonEncode, || Response::ok().json(&outputs));
            let _ = layers.time(Span::JsonDecode, || response.json_body::<Value>());
        }
        Direct::Sos(query) => {
            let _ =
                layers.time(Span::SosQuery, || evop.sos().get_observation(query).map(|o| o.len()));
        }
        Direct::Markers(view) => {
            layers.time(Span::Markers, || evop.map().markers_in(*view).len());
        }
        Direct::Datasets(query) => {
            layers.time(Span::CatalogSearch, || evop.catalog().search(query).len());
        }
    }
}

/// Cache hits and lookups so far.
fn cache_reads(evop: &Evop) -> (u64, u64) {
    evop.cache_stats().map_or((0, 0), |s| {
        let hits = s.l1_hits + s.l2_hits;
        (hits, hits + s.misses)
    })
}

/// The portal under test and the client's memory of it.
struct Portal {
    evop: Arc<Evop>,
    router: Router,
    vocabulary: Vocabulary,
    first_body: BTreeMap<u64, u64>,
    non2xx: u64,
}

impl Portal {
    /// Builds the observatory and its router, then runs every execute
    /// once: the portal's set-up.
    fn set_up(days: usize, violations: &mut Vec<String>) -> Portal {
        let evop = Arc::new(
            Evop::builder()
                .seed(ARCHIVE_SEED)
                .days(days)
                .all_study_catchments()
                .cache_policy(CachePolicy::L1)
                .build(),
        );
        let router = api::portal_api(Arc::clone(&evop));
        let vocabulary = Vocabulary::of(&evop);
        let mut portal =
            Portal { evop, router, vocabulary, first_body: BTreeMap::new(), non2xx: 0 };
        for call in portal.vocabulary.every_execute() {
            let response = portal.router.dispatch(&call.request);
            portal.check("warm-up", &call, &response, violations);
        }
        portal
    }

    /// Checks one response: 2xx, parses as JSON, and an execute answers
    /// byte for byte what it answered the first time. Returns the body's
    /// digest.
    fn check(
        &mut self,
        label: &str,
        call: &Call,
        response: &Response,
        violations: &mut Vec<String>,
    ) -> u64 {
        let body = response.body_bytes();
        let mut digest = Digest::default();
        digest.bytes(body);
        if !response.status().is_success() || response.json_body::<Value>().is_err() {
            self.non2xx += 1;
            violations.push(format!(
                "{label} {:?} request answered {} {}",
                call.route,
                response.status().0,
                String::from_utf8_lossy(body)
            ));
        }
        if let Some(id) = call.execute_id {
            if *self.first_body.entry(id).or_insert(digest.value()) != digest.value() {
                violations.push(format!("{label}: repeated execute differs from its first answer"));
            }
        }
        digest.value()
    }

    /// One pass: requests 0 to [`PORTAL_PASS`] of the stream, the same
    /// requests every pass.
    fn pass(&mut self, seed: u64, layers: &mut Layers, violations: &mut Vec<String>) -> Pass {
        let pass_start = now();
        let mut pass = Pass {
            steps_ms: Vec::with_capacity(PORTAL_PASS),
            wall_s: 0.0,
            by_route: Vec::new(),
            hits: (0, 0),
            digest: 0,
        };
        let mut digest = Digest::default();
        let mut replays = Vec::new();
        for i in 0..PORTAL_PASS as u64 {
            let call = self.vocabulary.call(seed, i);
            let before = if layers.on() { cache_reads(&self.evop) } else { (0, 0) };
            let start = now();
            let response = self.router.dispatch(&call.request);
            let step = now() - start;
            if layers.on() {
                layers.add(Span::Dispatch, step);
                let after = cache_reads(&self.evop);
                pass.hits.0 += after.0 - before.0;
                pass.hits.1 += after.1 - before.1;
                pass.by_route.push((call.route, step.as_secs_f64() * 1e6));
            }
            pass.steps_ms.push(step.as_secs_f64() * 1e3);
            digest.u64(u64::from(response.status().0));
            digest.u64(self.check(&format!("request {i}"), &call, &response, violations));
            if layers.on() {
                replays.push(call);
            }
        }
        // Replayed after the pass, so the direct calls do not disturb the
        // timing of the dispatches they mirror.
        for call in &replays {
            replay(&self.evop, call, layers);
        }
        pass.wall_s = secs_since(pass_start);
        pass.digest = digest.value();
        pass
    }
}

/// What one pass measured.
struct Pass {
    steps_ms: Vec<f64>,
    wall_s: f64,
    by_route: Vec<(Route, f64)>,
    hits: (u64, u64),
    digest: u64,
}

/// Runs portal passes until the time budget is spent.
pub fn run(ctx: &Ctx) -> Outcome {
    run_with(ctx, ARCHIVE_DAYS)
}

/// [`run`] over an archive of `days` days.
pub(crate) fn run_with(ctx: &Ctx, days: usize) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setup_s = Vec::new();
    let mut portal = None;
    for _ in 0..SETUP_REPEATS {
        drop(portal.take());
        let start = now();
        portal = Some(Portal::set_up(days, &mut outcome.violations));
        setup_s.push(secs_since(start));
    }
    let Some(mut portal) = portal else { return outcome };

    let mut spans = Layers::new(true);
    let mut untraced_steps_ms = Vec::new();
    let mut traced_steps_ms = Vec::new();
    let mut by_route = Vec::new();
    let (mut hits, mut reads) = (0, 0);
    let mut traced_wall = 0.0;
    let started = now();
    while ctx.keep_going(started, outcome.units) {
        let traced = ctx.unit_traced(outcome.units);
        let mut off = Layers::new(false);
        let layers = if traced { &mut spans } else { &mut off };
        let pass = portal.pass(ctx.seed, layers, &mut outcome.violations);
        if outcome.units == 0 {
            outcome.digest = pass.digest;
        } else if pass.digest != outcome.digest {
            outcome
                .violations
                .push(format!("pass {} answered differently from pass 0", outcome.units));
        }
        outcome.units += 1;
        outcome.attempted += PORTAL_PASS as u64;
        if traced {
            traced_steps_ms.push(pass.steps_ms);
            traced_wall += pass.wall_s;
            by_route.extend(pass.by_route);
            hits += pass.hits.0;
            reads += pass.hits.1;
        } else {
            untraced_steps_ms.push(pass.steps_ms);
        }
    }
    outcome.failed = portal.non2xx;
    end_to_end(&setup_s, PORTAL_PASS as f64, &untraced_steps_ms, &mut outcome);

    let passes = traced_steps_ms.len().max(1) as f64;
    let mut spanned_ms = 0.0;
    for (name, span) in [
        ("services.dispatch_ms", Span::Dispatch),
        ("services.wps_execute_ms", Span::WpsExecute),
        ("services.json_encode_ms", Span::JsonEncode),
        ("services.json_decode_ms", Span::JsonDecode),
        ("data.sos_query_ms", Span::SosQuery),
        ("data.markers_ms", Span::Markers),
        ("data.catalog_search_ms", Span::CatalogSearch),
    ] {
        spanned_ms += spans.ms(span);
        outcome.per_layer.push((name, spans.ms(span) / passes));
    }
    for (name, route) in ROUTES {
        let mut us: Vec<f64> =
            by_route.iter().filter(|(r, _)| *r == route).map(|&(_, us)| us).collect();
        us.sort_by(f64::total_cmp);
        outcome.per_layer.push((name, percentile(&us, 0.5)));
    }
    outcome.per_layer.extend([
        ("services.responses_non2xx", portal.non2xx as f64 / outcome.units.max(1) as f64),
        ("cache.portal_hit_ratio", ratio(hits as f64, reads as f64)),
        ("bench.unattributed_ms", (traced_wall * 1e3 - spanned_ms) / passes),
        ("bench.trace_overhead_ratio", overhead_ratio(&traced_steps_ms, &untraced_steps_ms)),
    ]);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_answers_other_seed_other_answers() {
        let mut violations = Vec::new();
        let mut portal = Portal::set_up(10, &mut violations);
        let mut pass = |seed| portal.pass(seed, &mut Layers::new(false), &mut violations).digest;
        let (a, b, other) = (pass(42), pass(42), pass(7));
        assert_eq!(a, b);
        assert_ne!(a, other);
        assert!(violations.is_empty(), "{:?}", &violations[..violations.len().min(3)]);
    }

    #[test]
    fn the_mix_covers_every_route_and_the_warm_up_every_execute() {
        let portal = Portal::set_up(10, &mut Vec::new());
        let mut seen = BTreeMap::new();
        let mut executes = std::collections::BTreeSet::new();
        for i in 0..5000 {
            let call = portal.vocabulary.call(3, i);
            *seen.entry(format!("{:?}", call.route)).or_insert(0) += 1;
            executes.extend(call.execute_id);
        }
        assert_eq!(seen.len(), ROUTES.len(), "{seen:?}");
        assert!(seen["Topmodel"] > 2500 && seen["Sos"] > 1000, "{seen:?}");
        let warmed: std::collections::BTreeSet<u64> = portal.first_body.keys().copied().collect();
        assert_eq!(warmed.len(), 200);
        assert!(executes.is_subset(&warmed), "every execute of the mix is warmed");
    }
}
