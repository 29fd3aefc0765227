//! The EVOp benchmark: one workload per process, end-to-end metrics from
//! an untraced run or per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits 1 when
//! an output check fails and 2 on bad arguments.

mod day;
mod glue;
mod measure;
mod portal;
mod report;

use std::process::ExitCode;

use report::{result_json, select, Ctx, Outcome};

/// The workloads, by name.
const WORKLOADS: [&str; 4] = ["media_day", "unshared_day", "portal_mix", "glue_calibration"];

const USAGE: &str =
    "usage: benchmark --workload <media_day|unshared_day|portal_mix|glue_calibration> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: &'static str,
    ctx: Ctx,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut ctx = Ctx { seed: 42, seconds: 15.0, traced: false };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w == name)
                        .ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                ctx.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(ctx.seconds.is_finite() && ctx.seconds >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {}",
                        ctx.seconds
                    ));
                }
            }
            "--trace" => {
                ctx.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, ctx })
}

fn run(workload: &str, ctx: &Ctx) -> Outcome {
    match workload {
        "media_day" => day::run(&day::DayConfig::media_day(), ctx),
        "unshared_day" => day::run(&day::DayConfig::unshared_day(), ctx),
        "portal_mix" => portal::run(ctx),
        _ => glue::run(ctx),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { workload, ctx } = match parse(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(workload, &ctx);
    let metrics = match select(&outcome, ctx.traced) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("{workload}: {e}");
            for v in &outcome.violations {
                eprintln!("  {v}");
            }
            return ExitCode::from(1);
        }
    };
    println!(
        "{workload} seed {} trace {}: {} units, {} attempted, {} failed, digest {:016x}",
        ctx.seed,
        u8::from(ctx.traced),
        outcome.units,
        outcome.attempted,
        outcome.failed,
        outcome.digest
    );
    for &(name, value, unit) in &metrics {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    for v in outcome.violations.iter().take(20) {
        println!("  CHECK FAILED: {v}");
    }
    println!("{}", result_json(&outcome, &metrics));
    if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{END_TO_END, PER_LAYER};
    use serde_json::Value;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let parsed = parse(&args("--workload portal_mix --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(parsed.workload, "portal_mix");
        assert_eq!(parsed.ctx, Ctx { seed: 7, seconds: 3.0, traced: true });
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seed 1")).is_err());
        assert!(parse(&args("--workload media_day --trace 2")).is_err());
        assert!(parse(&args("--workload media_day --seconds")).is_err());
    }

    /// Every metric the binary emits is declared in `BENCHMARK.json` with
    /// its unit, direction and (end-to-end) bound, and every declared
    /// metric is emitted.
    #[test]
    fn metrics_match_benchmark_json() {
        let declared: Value = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        for (kind, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = declared[kind].as_array().unwrap();
            assert_eq!(listed.len(), table.len(), "{kind}: declared and emitted counts differ");
            for (entry, &(name, unit)) in listed.iter().zip(table) {
                assert_eq!(entry["name"], name, "{kind}: order or name differs");
                assert_eq!(entry["unit"], unit, "{kind}: {name} unit differs");
                assert!(["lower", "higher"].contains(&entry["better"].as_str().unwrap()));
                if kind == "end_to_end" {
                    let bound = entry["bound"].as_f64().unwrap();
                    assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
                }
            }
        }
        let workloads: Vec<&str> = declared["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    /// Each workload emits every end-to-end metric, and between them they
    /// emit every per-layer metric (a layer a workload never calls reads
    /// 0 in its output).
    #[test]
    fn workloads_emit_every_declared_metric() {
        let ctx = Ctx { seed: 42, seconds: 0.0, traced: true };
        let mut per_layer = std::collections::BTreeSet::new();
        for outcome in [
            day::run(&day::DayConfig::media_day().tiny(), &ctx),
            day::run(&day::DayConfig::unshared_day().tiny(), &ctx),
            portal::run_with(&ctx, 10),
            glue::run_with(&ctx, 1000),
        ] {
            assert!(select(&outcome, false).is_ok(), "{:?}", outcome.end_to_end);
            assert!(select(&outcome, true).is_ok());
            per_layer.extend(outcome.per_layer.iter().map(|(name, _)| *name));
        }
        let declared: std::collections::BTreeSet<&str> =
            PER_LAYER.iter().map(|(name, _)| *name).collect();
        assert_eq!(per_layer, declared);
    }
}
