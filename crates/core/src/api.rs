//! The portal's REST API: the observatory over the stateless router.
//!
//! "The services are universally accessible by all target groups using a
//! modern web browser" (paper §IV-C). This module exposes the assembled
//! observatory over the in-process HTTP substrate as a JSON API — the
//! surface the Javascript widgets call. Because the [`Router`] is
//! stateless and the observatory is shared behind an [`Arc`], any number
//! of replicas serve identically (the property experiments E2/E4 rely on).
//!
//! # Routes
//!
//! | method | path | description |
//! |---|---|---|
//! | GET | `/catchments` | catchment summaries |
//! | GET | `/catchments/{id}` | one catchment |
//! | GET | `/catchments/{id}/sensors` | its sensor network |
//! | GET | `/sensors/{id}/observations?from=&to=&limit=` | SOS window query |
//! | GET | `/sensors/{id}/latest` | live value |
//! | GET | `/map/markers?south=&west=&north=&east=` | viewport markers |
//! | GET | `/datasets?text=` | catalogue search |
//! | GET | `/catchments/{id}/processes` | WPS offerings |
//! | POST | `/catchments/{id}/processes/{process}/execute` | run a model synchronously |
//! | POST | `/catchments/{id}/processes/{process}/execute-async` | enqueue a run, returns a job id |
//! | GET | `/catchments/{id}/jobs/{job}` | poll an async execution |
//! | GET | `/registry/{kind}` | XaaS asset listing |

use std::sync::Arc;

use evop_data::catalog::Query;
use evop_data::catchment::CatchmentId;
use evop_data::geo::{BoundingBox, LatLon};
use evop_data::{SensorId, Timestamp};
use evop_services::rest::{PathParams, Router};
use evop_services::sos::GetObservation;
use evop_services::wps::WpsError;
#[cfg(test)]
use evop_services::Request;
use evop_services::Response;
use serde_json::{json, Value};

use crate::observatory::Evop;
use crate::registry::AssetKind;

/// Builds the portal's JSON API over a shared observatory.
///
/// The returned router is cheaply cloneable; every clone is a full
/// replica.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use evop_core::{api, Evop};
/// use evop_services::Request;
///
/// let evop = Arc::new(Evop::builder().seed(1).days(5).build());
/// let router = api::portal_api(evop);
/// let resp = router.dispatch(&Request::get("/catchments"));
/// assert!(resp.status().is_success());
/// ```
pub fn portal_api(evop: Arc<Evop>) -> Router {
    let mut router = Router::new();
    // Every dispatch opens (or joins) a trace in the observatory-wide
    // tracer and counts into `router_requests_total{method,route,status}`.
    router.set_tracer(evop.tracer().clone());
    router.set_metrics(evop.metrics().clone());

    // --- Catchments ----------------------------------------------------
    let shared = Arc::clone(&evop);
    router.route(evop_services::Method::Get, "/catchments", move |_, _| {
        let list: Vec<Value> = shared.catchments().iter().map(catchment_json).collect();
        Response::ok().json(&list)
    });

    let shared = Arc::clone(&evop);
    router.route(evop_services::Method::Get, "/catchments/{id}", move |_, params| {
        match lookup_catchment(&shared, params) {
            Ok(catchment) => Response::ok().json(&catchment_json(catchment)),
            Err(resp) => resp,
        }
    });

    let shared = Arc::clone(&evop);
    router.route(evop_services::Method::Get, "/catchments/{id}/sensors", move |_, params| {
        match lookup_catchment(&shared, params) {
            Ok(catchment) => {
                let sensors: Vec<Value> = catchment
                    .default_sensors()
                    .iter()
                    .map(|s| {
                        json!({
                            "id": s.id().as_str(),
                            "kind": s.kind().to_string(),
                            "name": s.name(),
                            "unit": s.kind().unit(),
                            "lat": s.location().lat(),
                            "lon": s.location().lon(),
                            "sample_interval_secs": s.sample_interval_secs(),
                        })
                    })
                    .collect();
                Response::ok().json(&sensors)
            }
            Err(resp) => resp,
        }
    });

    // --- Observations (SOS) ---------------------------------------------
    let shared = Arc::clone(&evop);
    router.route(evop_services::Method::Get, "/sensors/{id}/observations", move |req, params| {
        let Some(id) = params.get("id") else {
            return Response::internal_error("route is missing its {id} parameter");
        };
        let sensor = SensorId::new(id);
        let parse_time = |key: &str| -> Option<Timestamp> {
            req.query_param(key).and_then(|v| v.parse::<i64>().ok()).map(Timestamp::from_unix)
        };
        let (Some(from), Some(to)) = (parse_time("from"), parse_time("to")) else {
            return Response::bad_request("from/to unix-second query parameters are required");
        };
        let limit = req.query_param("limit").and_then(|v| v.parse::<usize>().ok());
        match shared.sos().get_observation(&GetObservation {
            procedure: sensor,
            begin: from,
            end: to,
            max_results: limit,
        }) {
            Ok(observations) => {
                let body: Vec<Value> = observations
                    .iter()
                    .map(|o| {
                        json!({
                            "time": o.time().as_unix(),
                            "value": o.value(),
                            "quality": o.quality().to_string(),
                        })
                    })
                    .collect();
                Response::ok().json(&body)
            }
            Err(e) => Response::not_found(e.to_string()),
        }
    });

    let shared = Arc::clone(&evop);
    router.route(evop_services::Method::Get, "/sensors/{id}/latest", move |_, params| {
        let Some(id) = params.get("id") else {
            return Response::internal_error("route is missing its {id} parameter");
        };
        let sensor = SensorId::new(id);
        match shared.sos().latest(&sensor) {
            Some(o) => Response::ok().json(&json!({
                "time": o.time().as_unix(),
                "value": o.value(),
                "quality": o.quality().to_string(),
            })),
            None => Response::not_found(format!("no observations for {sensor}")),
        }
    });

    // --- Map ------------------------------------------------------------
    let shared = Arc::clone(&evop);
    router.route(evop_services::Method::Get, "/map/markers", move |req, _| {
        let corner = |key: &str| req.query_param(key).and_then(|v| v.parse::<f64>().ok());
        let (Some(south), Some(west), Some(north), Some(east)) =
            (corner("south"), corner("west"), corner("north"), corner("east"))
        else {
            return Response::bad_request("south/west/north/east query parameters are required");
        };
        if !(0.0..=90.0).contains(&north.abs()) || south > north || west > east {
            return Response::bad_request("malformed viewport");
        }
        let bbox = BoundingBox::new(LatLon::new(south, west), LatLon::new(north, east));
        let markers: Vec<Value> = shared
            .map()
            .markers_in(bbox)
            .iter()
            .map(|m| {
                json!({
                    "id": m.id(),
                    "kind": m.kind().to_string(),
                    "name": m.name(),
                    "lat": m.location().lat(),
                    "lon": m.location().lon(),
                    "catchment": m.catchment().as_str(),
                })
            })
            .collect();
        Response::ok().json(&markers)
    });

    // --- Catalogue --------------------------------------------------------
    let shared = Arc::clone(&evop);
    router.route(evop_services::Method::Get, "/datasets", move |req, _| {
        let mut query = Query::new();
        if let Some(text) = req.query_param("text") {
            query = query.text(text);
        }
        if let Some(theme) = req.query_param("theme") {
            query = query.theme(theme);
        }
        if req.query_param("live") == Some("true") {
            query = query.live_only();
        }
        let hits: Vec<Value> = shared
            .catalog()
            .search(&query)
            .iter()
            .map(|d| {
                json!({
                    "id": d.id(),
                    "title": d.title(),
                    "description": d.description(),
                    "source": d.source().to_string(),
                    "access": d.access().to_string(),
                    "themes": d.themes(),
                })
            })
            .collect();
        Response::ok().json(&hits)
    });

    // --- Dataset download (access-policy enforced) ------------------------
    let shared = Arc::clone(&evop);
    router.route(evop_services::Method::Get, "/datasets/{id}/download", move |req, params| {
        let Some(dataset) = params.get("id") else {
            return Response::internal_error("route is missing its {id} parameter");
        };
        let registered = req.query_param("registered") == Some("true");
        match shared.download_dataset(dataset, registered) {
            Ok(csv) => Response::ok().header("content-type", "text/csv").text(csv),
            Err(e @ crate::observatory::DownloadError::UnknownDataset(_)) => {
                Response::not_found(e.to_string())
            }
            Err(e) => Response::new(evop_services::StatusCode::FORBIDDEN).text(e.to_string()),
        }
    });

    // --- Model execution (WPS) -------------------------------------------
    let shared = Arc::clone(&evop);
    router.route(evop_services::Method::Get, "/catchments/{id}/processes", move |_, params| {
        let Some(id) = params.get("id") else {
            return Response::internal_error("route is missing its {id} parameter");
        };
        let id = CatchmentId::new(id);
        match shared.wps(&id) {
            Some(wps) => Response::ok().json(&wps.process_ids()),
            None => Response::not_found(format!("no WPS endpoint for {id}")),
        }
    });

    let shared = Arc::clone(&evop);
    router.route(
        evop_services::Method::Post,
        "/catchments/{id}/processes/{process}/execute",
        move |req, params| {
            let Some(id) = params.get("id") else {
                return Response::internal_error("route is missing its {id} parameter");
            };
            let id = CatchmentId::new(id);
            let Some(process) = params.get("process") else {
                return Response::internal_error("route is missing its {process} parameter");
            };
            let Some(wps) = shared.wps(&id) else {
                return Response::not_found(format!("no WPS endpoint for {id}"));
            };
            let inputs: Value = if req.body_bytes().is_empty() {
                json!({})
            } else {
                match req.json_body() {
                    Ok(v) => v,
                    Err(e) => return Response::bad_request(format!("bad JSON body: {e}")),
                }
            };
            // The router stamped its span context onto the request; the
            // WPS execution parents under it, keeping the whole request
            // on one trace. The body goes out exactly as the WPS encoded
            // or cached it.
            match wps.execute_body(process, inputs, req.trace_context().as_ref()) {
                Ok(body) => Response::ok().header("content-type", "application/json").body(body),
                Err(WpsError::UnknownProcess(p)) => {
                    Response::not_found(format!("unknown process: {p}"))
                }
                Err(e @ WpsError::InvalidParameter { .. }) => Response::bad_request(e.to_string()),
                Err(e) => Response::internal_error(e.to_string()),
            }
        },
    );

    // Asynchronous execution: accept (202) now, poll later. The WPS job
    // store is interior-mutable, so the shared observatory can take jobs
    // from any replica.
    let shared = Arc::clone(&evop);
    router.route(
        evop_services::Method::Post,
        "/catchments/{id}/processes/{process}/execute-async",
        move |req, params| {
            let Some(id) = params.get("id") else {
                return Response::internal_error("route is missing its {id} parameter");
            };
            let id = CatchmentId::new(id);
            let Some(process) = params.get("process") else {
                return Response::internal_error("route is missing its {process} parameter");
            };
            let Some(wps) = shared.wps(&id) else {
                return Response::not_found(format!("no WPS endpoint for {id}"));
            };
            let inputs: Value = if req.body_bytes().is_empty() {
                json!({})
            } else {
                match req.json_body() {
                    Ok(v) => v,
                    Err(e) => return Response::bad_request(format!("bad JSON body: {e}")),
                }
            };
            match wps.execute_async(process, inputs) {
                Ok(job) => Response::new(evop_services::StatusCode::ACCEPTED).json(&json!({
                    "job": job,
                    "status_location": format!("/catchments/{id}/jobs/{job}"),
                })),
                Err(WpsError::UnknownProcess(p)) => {
                    Response::not_found(format!("unknown process: {p}"))
                }
                Err(e @ WpsError::InvalidParameter { .. }) => Response::bad_request(e.to_string()),
                Err(e) => Response::internal_error(e.to_string()),
            }
        },
    );

    let shared = Arc::clone(&evop);
    router.route(evop_services::Method::Get, "/catchments/{id}/jobs/{job}", move |_, params| {
        let Some(id) = params.get("id") else {
            return Response::internal_error("route is missing its {id} parameter");
        };
        let id = CatchmentId::new(id);
        let Some(wps) = shared.wps(&id) else {
            return Response::not_found(format!("no WPS endpoint for {id}"));
        };
        let Some(job) = params.get("job").and_then(|j| j.parse::<u64>().ok()) else {
            return Response::bad_request("job id must be an integer");
        };
        // Polling drives pending work (the in-process analogue of the
        // WPS status document updating behind a statusLocation URL).
        wps.process_pending();
        match wps.status(job) {
            Ok(evop_services::wps::ExecStatus::Accepted) => {
                Response::ok().json(&json!({"state": "accepted"}))
            }
            Ok(evop_services::wps::ExecStatus::Succeeded(outputs)) => {
                Response::ok().json(&json!({"state": "succeeded", "outputs": outputs}))
            }
            Ok(evop_services::wps::ExecStatus::Failed(reason)) => {
                Response::ok().json(&json!({"state": "failed", "reason": reason}))
            }
            Err(e) => Response::not_found(e.to_string()),
        }
    });

    // --- XaaS registry ----------------------------------------------------
    let shared = Arc::clone(&evop);
    router.route(evop_services::Method::Get, "/registry/{kind}", move |_, params| {
        let Some(kind_str) = params.get("kind") else {
            return Response::internal_error("route is missing its {kind} parameter");
        };
        let Some(kind) = [
            AssetKind::Dataset,
            AssetKind::Sensor,
            AssetKind::Model,
            AssetKind::Image,
            AssetKind::Service,
            AssetKind::Workflow,
            AssetKind::Instance,
        ]
        .into_iter()
        .find(|k| k.segment() == kind_str) else {
            return Response::not_found(format!("unknown asset kind: {kind_str}"));
        };
        let assets: Vec<Value> = shared
            .registry()
            .of_kind(kind)
            .iter()
            .map(|a| json!({ "uri": a.uri(), "title": a.title(), "tags": a.tags() }))
            .collect();
        Response::ok().json(&assets)
    });

    router
}

fn catchment_json(catchment: &evop_data::Catchment) -> Value {
    json!({
        "id": catchment.id().as_str(),
        "name": catchment.name(),
        "region": catchment.region(),
        "area_km2": catchment.area_km2(),
        "outlet": { "lat": catchment.outlet().lat(), "lon": catchment.outlet().lon() },
        "flood_stage_m": catchment.flood_stage_m(),
        "mean_annual_rainfall_mm": catchment.mean_annual_rainfall_mm(),
    })
}

fn lookup_catchment<'a>(
    evop: &'a Evop,
    params: &PathParams,
) -> Result<&'a evop_data::Catchment, Response> {
    let id = params
        .get("id")
        .map(CatchmentId::new)
        .ok_or_else(|| Response::internal_error("route is missing its {id} parameter"))?;
    evop.catchment(&id).ok_or_else(|| Response::not_found(format!("unknown catchment: {id}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use evop_services::StatusCode;

    fn api() -> Router {
        portal_api(Arc::new(Evop::builder().seed(5).days(5).build()))
    }

    #[test]
    fn lists_and_fetches_catchments() {
        let router = api();
        let list: Vec<Value> = router.dispatch(&Request::get("/catchments")).json_body().unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0]["id"], "morland");

        let one = router.dispatch(&Request::get("/catchments/morland"));
        assert!(one.status().is_success());
        assert_eq!(
            router.dispatch(&Request::get("/catchments/amazon")).status(),
            StatusCode::NOT_FOUND
        );
    }

    #[test]
    fn sensors_and_latest_value() {
        let router = api();
        let sensors: Vec<Value> =
            router.dispatch(&Request::get("/catchments/morland/sensors")).json_body().unwrap();
        assert_eq!(sensors.len(), 5);

        let latest: Value = router
            .dispatch(&Request::get("/sensors/morland-stage-outlet/latest"))
            .json_body()
            .unwrap();
        assert!(latest["value"].as_f64().unwrap() > 0.0);
        assert_eq!(
            router.dispatch(&Request::get("/sensors/ghost/latest")).status(),
            StatusCode::NOT_FOUND
        );
    }

    #[test]
    fn observation_window_query() {
        let router = api();
        let from = Timestamp::from_ymd(2012, 1, 2).as_unix();
        let to = Timestamp::from_ymd(2012, 1, 3).as_unix();
        let resp = router.dispatch(
            &Request::get("/sensors/morland-rain-1/observations")
                .query("from", from.to_string())
                .query("to", to.to_string()),
        );
        let body: Vec<Value> = resp.json_body().unwrap();
        assert_eq!(body.len(), 24);

        // Missing parameters are a client error, not a panic.
        let bad = router.dispatch(&Request::get("/sensors/morland-rain-1/observations"));
        assert_eq!(bad.status(), StatusCode::BAD_REQUEST);
    }

    #[test]
    fn viewport_marker_query() {
        let router = api();
        let resp = router.dispatch(
            &Request::get("/map/markers")
                .query("south", "54.5")
                .query("west", "-2.8")
                .query("north", "54.7")
                .query("east", "-2.5"),
        );
        let markers: Vec<Value> = resp.json_body().unwrap();
        assert_eq!(markers.len(), 6, "all Morland assets in view");

        let inverted = router.dispatch(
            &Request::get("/map/markers")
                .query("south", "55.0")
                .query("west", "-2.8")
                .query("north", "54.0")
                .query("east", "-2.5"),
        );
        assert_eq!(inverted.status(), StatusCode::BAD_REQUEST);
    }

    #[test]
    fn catalogue_search() {
        let router = api();
        let hits: Vec<Value> =
            router.dispatch(&Request::get("/datasets").query("text", "stage")).json_body().unwrap();
        assert_eq!(hits.len(), 1);
        let all: Vec<Value> = router.dispatch(&Request::get("/datasets")).json_body().unwrap();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn model_execution_over_the_api() {
        let router = api();
        let processes: Vec<String> =
            router.dispatch(&Request::get("/catchments/morland/processes")).json_body().unwrap();
        assert!(processes.contains(&"topmodel".to_owned()));

        let resp = router.dispatch(
            &Request::post("/catchments/morland/processes/topmodel/execute")
                .json(&json!({"scenario": "compacted-soils"})),
        );
        assert!(resp.status().is_success());
        let body: Value = resp.json_body().unwrap();
        assert_eq!(body["scenario"], "compacted-soils");
        assert!(body["hydrograph"]["peak_m3s"].as_f64().unwrap() > 0.0);

        // Validation errors surface as 400s, unknown processes as 404s.
        let bad = router.dispatch(
            &Request::post("/catchments/morland/processes/topmodel/execute")
                .json(&json!({"m": 99.0})),
        );
        assert_eq!(bad.status(), StatusCode::BAD_REQUEST);
        let missing = router.dispatch(
            &Request::post("/catchments/morland/processes/swat/execute").json(&json!({})),
        );
        assert_eq!(missing.status(), StatusCode::NOT_FOUND);
    }

    #[test]
    fn cached_execute_sends_the_body_of_the_miss_before_it() {
        let evop = Arc::new(
            Evop::builder().seed(5).days(5).cache_policy(evop_cache::CachePolicy::L1).build(),
        );
        let router = portal_api(Arc::clone(&evop));
        let inputs = json!({"scenario": "compacted-soils"});
        let request = Request::post("/catchments/morland/processes/topmodel/execute").json(&inputs);
        let miss = router.dispatch(&request);
        let hit = router.dispatch(&request);
        let stats = evop.cache_stats().expect("cache on");
        assert_eq!((stats.misses, stats.l1_hits), (1, 1));
        assert!(hit.status().is_success());
        assert_eq!(hit.header_value("content-type"), Some("application/json"));
        assert_eq!(hit.body_bytes(), miss.body_bytes(), "a hit is the stored body");

        // The body is the compact encoding of what the Value API returns.
        let wps = evop.wps(&CatchmentId::new("morland")).expect("WPS endpoint");
        let value = wps.execute("topmodel", inputs).expect("runs");
        assert_eq!(miss.body_bytes().as_slice(), serde_json::to_vec(&value).unwrap().as_slice());
    }

    #[test]
    fn dataset_download_enforces_access_policy() {
        let router = api();
        // Open data downloads anonymously.
        let open = router.dispatch(&Request::get("/datasets/morland-rainfall/download"));
        assert!(open.status().is_success());
        let csv = open.body_text().unwrap();
        assert!(csv.starts_with("time,value\n"));
        assert_eq!(csv.lines().count(), 1 + 5 * 24, "header + hourly archive");

        // Registered-only data refuses anonymous users…
        let anon = router.dispatch(&Request::get("/datasets/morland-turbidity/download"));
        assert_eq!(anon.status(), StatusCode::FORBIDDEN);
        // …but serves registered ones.
        let reg = router.dispatch(
            &Request::get("/datasets/morland-turbidity/download").query("registered", "true"),
        );
        assert!(reg.status().is_success());

        // Unknown datasets are 404.
        let missing = router.dispatch(&Request::get("/datasets/ghost/download"));
        assert_eq!(missing.status(), StatusCode::NOT_FOUND);
    }

    #[test]
    fn downloaded_csv_round_trips_through_the_importer() {
        let router = api();
        let resp = router.dispatch(&Request::get("/datasets/morland-stage/download"));
        let series = evop_data::export::from_csv(resp.body_text().unwrap()).unwrap();
        assert_eq!(series.step_secs(), 3600);
        assert!(series.peak().unwrap().1 > 0.0);
    }

    #[test]
    fn async_execution_over_the_api() {
        let router = api();
        let accepted = router.dispatch(
            &Request::post("/catchments/morland/processes/topmodel/execute-async")
                .json(&json!({"scenario": "baseline"})),
        );
        assert_eq!(accepted.status(), StatusCode::ACCEPTED);
        let body: Value = accepted.json_body().unwrap();
        let location = body["status_location"].as_str().unwrap().to_owned();

        let polled = router.dispatch(&Request::get(&location));
        let status: Value = polled.json_body().unwrap();
        assert_eq!(status["state"], "succeeded");
        assert!(status["outputs"]["hydrograph"]["peak_m3s"].as_f64().unwrap() > 0.0);

        // Unknown jobs 404; bad job ids 400.
        let missing = router.dispatch(&Request::get("/catchments/morland/jobs/999"));
        assert_eq!(missing.status(), StatusCode::NOT_FOUND);
        let garbage = router.dispatch(&Request::get("/catchments/morland/jobs/xyz"));
        assert_eq!(garbage.status(), StatusCode::BAD_REQUEST);
    }

    #[test]
    fn registry_listing() {
        let router = api();
        let models: Vec<Value> =
            router.dispatch(&Request::get("/registry/model")).json_body().unwrap();
        assert_eq!(models.len(), 2);
        assert!(models.iter().any(|m| m["uri"] == "evop://model/topmodel"));
        assert_eq!(
            router.dispatch(&Request::get("/registry/starship")).status(),
            StatusCode::NOT_FOUND
        );
    }

    #[test]
    fn portal_execute_is_one_connected_trace() {
        let evop = Arc::new(Evop::builder().seed(5).days(5).build());
        let router = portal_api(Arc::clone(&evop));
        let resp = router.dispatch(
            &Request::post("/catchments/morland/processes/topmodel/execute").json(&json!({})),
        );
        assert!(resp.status().is_success());

        let spans = evop.tracer().finished();
        let http = spans
            .iter()
            .find(|s| s.name == "http POST /catchments/{id}/processes/{process}/execute")
            .expect("router span recorded");
        let wps =
            spans.iter().find(|s| s.name == "wps.execute topmodel").expect("wps span recorded");
        assert_eq!(wps.trace_id, http.trace_id, "one request, one trace");
        assert_eq!(wps.parent, Some(http.span_id), "wps parents under the router");
        assert_eq!(
            evop.metrics().counter(
                "router_requests_total",
                &[
                    ("method", "POST"),
                    ("route", "/catchments/{id}/processes/{process}/execute"),
                    ("status", "200"),
                ],
            ),
            1
        );
    }

    #[test]
    fn replicas_serve_identically() {
        let router = api();
        let replica = router.clone();
        let req = Request::get("/catchments/morland/sensors");
        assert_eq!(router.dispatch(&req).body_bytes(), replica.dispatch(&req).body_bytes());
    }
}
