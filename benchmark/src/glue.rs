//! `glue_calibration`: a GLUE uncertainty analysis of TOPMODEL over the
//! Morland 90-day archive, serial, scored by NSE after a 7-day spin-up.
//!
//! All the work is in the model and data layers and none in the serving
//! plane: a federation, cache or codec change should leave it unchanged.

use evop_data::synthetic::{TruthModel, WeatherGenerator};
use evop_data::{Catchment, TimeSeries, Timestamp};
use evop_models::calibrate::ParamSpace;
use evop_models::glue::{glue, GlueResult};
use evop_models::objectives::Objective;
use evop_models::pet::hamon_series;
use evop_models::{Forcing, Topmodel, TopmodelParams};
use rand::SeedableRng;

use crate::measure::{now, secs_since, Digest, Layers, Span};
use crate::report::{end_to_end, overhead_ratio, Ctx, Metrics, Outcome};

/// Days of hourly archive.
const ARCHIVE_DAYS: usize = 90;

/// Days of model spin-up left out of the score.
const SPIN_UP_DAYS: i64 = 7;

/// Monte Carlo runs in one analysis.
const RUNS: usize = 10_000;

/// Studies built per run for the `setup_s` median.
const SETUP_REPEATS: usize = 15;

/// Topographic-index classes of the DEM distribution.
const TI_CLASSES: usize = 16;

/// Seed of the synthetic archive and DEM: the observed data. `--seed`
/// drives only the Monte Carlo draws.
const ARCHIVE_SEED: u64 = 42;

/// The analysis inputs: archive, DEM-derived model and scored window.
struct Study {
    model: Topmodel,
    forcing: Forcing,
    observed: TimeSeries,
    from: Timestamp,
    to: Timestamp,
}

impl Study {
    /// Generates the archive, the DEM and the model: the workload's set-up.
    fn build(days: usize) -> Result<Study, String> {
        let catchment = Catchment::morland();
        let start = Timestamp::from_ymd(2012, 1, 1);
        let steps = days * 24;
        let weather = WeatherGenerator::for_catchment(&catchment, ARCHIVE_SEED);
        let rain = weather.rainfall(start, 3600, steps);
        let temperature = weather.temperature(start, 3600, steps);
        let pet = hamon_series(&temperature, catchment.outlet().lat());
        let discharge =
            TruthModel::for_catchment(&catchment, ARCHIVE_SEED).discharge(&rain, &temperature);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(ARCHIVE_SEED);
        let dem = catchment.generate_dem(&mut rng);
        let model = Topmodel::new(dem.ti_distribution(TI_CLASSES), catchment.area_km2());
        let (from, to) = (start.plus_days(SPIN_UP_DAYS), start.plus_days(days as i64));
        let observed = discharge.window(from, to).map_err(|e| format!("scored window: {e}"))?;
        Ok(Study { model, forcing: Forcing::new(rain, pet), observed, from, to })
    }
}

/// TOPMODEL's calibration ranges with `sr0` capped at the smallest
/// `srmax`, so every draw is a valid parameter set and no run fails.
fn space() -> ParamSpace {
    let ranges = TopmodelParams::ranges();
    let srmax_floor =
        ranges.iter().find(|(name, ..)| *name == "srmax").map_or(0.0, |&(_, lo, _)| lo);
    let ranges: Vec<_> = ranges
        .into_iter()
        .map(
            |(name, lo, hi)| {
                if name == "sr0" {
                    (name, lo, hi.min(srmax_floor))
                } else {
                    (name, lo, hi)
                }
            },
        )
        .collect();
    ParamSpace::from_ranges(&ranges)
}

/// One analysis and what it measured.
struct Analysis {
    result: Result<GlueResult, String>,
    failed_runs: u64,
    steps_ms: Vec<f64>,
    glue_s: f64,
    closure_s: f64,
}

fn analyse(study: &Study, seed: u64, runs: usize, layers: &mut Layers) -> Analysis {
    let mut steps_ms = Vec::with_capacity(runs);
    let mut failed_runs = 0;
    let mut closure_s = 0.0;
    let start = now();
    let mut last = start;
    let result = glue(&space(), runs, seed, &study.observed, Objective::Nse, 0.0, |p| {
        let entered = now();
        steps_ms.push((entered - last).as_secs_f64() * 1e3);
        last = entered;
        let params = TopmodelParams::from_vector(p);
        let simulated = layers
            .time(Span::TopmodelRun, || study.model.run(&params, &study.forcing))
            .ok()
            .and_then(|out| {
                layers.time(Span::Window, || out.discharge_m3s.window(study.from, study.to)).ok()
            });
        if simulated.is_none() {
            failed_runs += 1;
        }
        if layers.on() {
            closure_s += secs_since(entered);
        }
        simulated
    });
    let glue_s = secs_since(start);
    // The last step runs from the last model run to the end: the
    // weighting and bounds pass.
    steps_ms.push(secs_since(last) * 1e3);
    Analysis { result: result.map_err(|e| e.to_string()), failed_runs, steps_ms, glue_s, closure_s }
}

/// Runs GLUE analyses until the time budget is spent.
pub fn run(ctx: &Ctx) -> Outcome {
    run_with(ctx, RUNS)
}

/// [`run`] with `runs` Monte Carlo runs per analysis.
pub(crate) fn run_with(ctx: &Ctx, runs: usize) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setup_s = Vec::new();
    let mut study = None;
    for _ in 0..SETUP_REPEATS {
        let start = now();
        study = Some(Study::build(ARCHIVE_DAYS));
        setup_s.push(secs_since(start));
    }
    let study = match study {
        Some(Ok(study)) => study,
        Some(Err(e)) => {
            outcome.violations.push(e);
            return outcome;
        }
        None => return outcome,
    };

    let mut spans = Layers::new(true);
    let mut untraced_steps_ms = Vec::new();
    let mut traced_steps_ms = Vec::new();
    let (mut closure_s, mut traced_wall_s) = (0.0, 0.0);
    let mut counts = Vec::new();
    let started = now();
    while ctx.keep_going(started, outcome.units) {
        let traced = ctx.unit_traced(outcome.units);
        let unit_start = now();
        let mut off = Layers::new(false);
        let layers = if traced { &mut spans } else { &mut off };
        let analysis = analyse(&study, ctx.seed, runs, layers);
        outcome.attempted += runs as u64;
        outcome.failed += analysis.failed_runs;
        let (digest, unit_counts) = match check(&study, runs, &analysis.result) {
            Ok(checked) => checked,
            Err(e) => {
                outcome.violations.push(e);
                (0, Vec::new())
            }
        };
        if outcome.units == 0 {
            outcome.digest = digest;
            counts = unit_counts;
        } else if digest != outcome.digest {
            outcome
                .violations
                .push(format!("analysis {} digest differs from the first", outcome.units));
        }
        outcome.units += 1;
        if traced {
            spans.add(Span::Glue, std::time::Duration::from_secs_f64(analysis.glue_s));
            traced_steps_ms.push(analysis.steps_ms);
            closure_s += analysis.closure_s;
            traced_wall_s += secs_since(unit_start);
        } else {
            untraced_steps_ms.push(analysis.steps_ms);
        }
    }
    end_to_end(&setup_s, runs as f64, &untraced_steps_ms, &mut outcome);

    let analyses = traced_steps_ms.len().max(1) as f64;
    let glue_ms = spans.ms(Span::Glue);
    outcome.per_layer.extend([
        ("models.topmodel_run_ms", spans.ms(Span::TopmodelRun) / analyses),
        ("data.window_ms", spans.ms(Span::Window) / analyses),
        ("models.glue_rest_ms", (glue_ms - closure_s * 1e3) / analyses),
        ("bench.unattributed_ms", (traced_wall_s * 1e3 - glue_ms) / analyses),
        ("bench.trace_overhead_ratio", overhead_ratio(&traced_steps_ms, &untraced_steps_ms)),
    ]);
    outcome.per_layer.extend(counts);
    outcome
}

/// Checks one analysis and digests its bounds.
fn check(
    study: &Study,
    runs: usize,
    result: &Result<GlueResult, String>,
) -> Result<(u64, Metrics), String> {
    let result = result.as_ref().map_err(|e| format!("GLUE failed: {e}"))?;
    let members = result.members().len();
    let coverage = result.coverage(&study.observed);
    if members == 0 || result.total_runs() != runs || !(0.0..=1.0).contains(&coverage) {
        return Err(format!(
            "GLUE kept {members} of {} runs with coverage {coverage}",
            result.total_runs()
        ));
    }
    let mut digest = Digest::default();
    digest.u64(members as u64);
    for series in [result.lower(), result.median(), result.upper()] {
        series.values().iter().for_each(|&v| digest.f64(v));
    }
    let counts = vec![
        ("models.runs", runs as f64),
        ("models.behavioural_members", members as f64),
        ("models.acceptance_ratio", result.acceptance_rate()),
        ("models.coverage", coverage),
    ];
    Ok((digest.value(), counts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_draw_is_a_valid_parameter_set() {
        let space = space();
        let mut rng = evop_sim::SimRng::new(1);
        for _ in 0..2000 {
            assert!(TopmodelParams::from_vector(&space.sample(&mut rng)).validate().is_ok());
        }
    }

    #[test]
    fn same_seed_same_bounds_other_seed_other_bounds() {
        let study = Study::build(ARCHIVE_DAYS).expect("archive builds");
        let digest = |seed| {
            let analysis = analyse(&study, seed, 300, &mut Layers::new(false));
            assert_eq!(analysis.failed_runs, 0);
            check(&study, 300, &analysis.result).expect("analysis passes its checks").0
        };
        assert_eq!(digest(42), digest(42));
        assert_ne!(digest(42), digest(7));
    }
}
