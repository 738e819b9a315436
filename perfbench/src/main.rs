//! End-to-end benchmark of the throttledb simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_storm|firehose|scenario_grid \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The orchestrator runs the workload in fresh child processes of this
//! binary, one at a time, until `--seconds` have passed (at least twice),
//! checks every child's outputs and that all children agree, and prints
//! one JSON object as its last line: the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics of one extra traced child.
//! `perfbench/README.md` describes the workloads and metrics.

mod cell;
mod layers;
mod stats;
mod workload;

use layers::{PER_LAYER, TRACE_OVERHEAD};
use std::env;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{ProcessReport, Workload};

/// Children per measurement, whatever `--seconds` says: the determinism
/// check needs two runs to compare.
const MIN_RUNS: usize = 2;

/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 2007;

/// The end-to-end metrics measured on the host, with their units. The
/// deterministic `sim_*` metrics follow them.
const HOST_METRICS: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// The deterministic end-to-end metrics with their units, in the order
/// `workload::run` reports them.
const SIM_METRICS: [(&str, &str); 4] = [
    ("sim_goodput_per_min", "1/min"),
    ("sim_fail_share", "share"),
    ("sim_resp_p50_s", "s"),
    ("sim_resp_p95_s", "s"),
];

const USAGE: &str = "usage: perfbench --workload cold_storm|firehose|scenario_grid \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Options {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = Duration::from_secs(10);
    let mut trace = false;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                let secs = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                seconds = Duration::from_secs(secs);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("child") {
        return child(&args[1..]);
    }
    match parse_options(&args) {
        Ok(options) => orchestrate(&options),
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `child <workload> <seed> <0|1>`: run the workload once in this process
/// and print its report as `key value` lines.
fn child(args: &[String]) -> ExitCode {
    let (Some(workload), Some(seed), Some(traced)) = (
        args.first().and_then(|w| Workload::parse(w)),
        args.get(1).and_then(|s| s.parse::<u64>().ok()),
        args.get(2).map(|t| t == "1"),
    ) else {
        eprintln!("perfbench: bad child arguments {args:?}");
        return ExitCode::from(2);
    };
    let report = workload::run(workload, seed, traced);
    if !report.peak_rss_mb.is_finite() {
        eprintln!("perfbench: cannot read VmHWM from /proc/self/status");
        return ExitCode::FAILURE;
    }
    let mut out = String::new();
    let _ = writeln!(out, "setup_s {}", report.setup_s);
    let _ = writeln!(out, "peak_rss_mb {}", report.peak_rss_mb);
    let _ = writeln!(out, "failed_ops {}", report.failed_ops);
    let _ = writeln!(out, "fingerprint {}", report.fingerprint);
    for (name, value) in report.sim.iter().chain(&report.layers) {
        let _ = writeln!(out, "metric {name} {value}");
    }
    print!("{out}");
    ExitCode::SUCCESS
}

/// One child process as the orchestrator saw it.
struct ChildRun {
    /// Host seconds from spawn to exit.
    wall_s: f64,
    /// The parsed report; `None` when the child failed or printed garbage.
    report: Option<ProcessReport>,
}

fn spawn_child(workload: Workload, seed: u64, traced: bool) -> ChildRun {
    let failed = |wall_s| ChildRun {
        wall_s,
        report: None,
    };
    let exe = match env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("perfbench: cannot locate own executable: {err}");
            return failed(0.0);
        }
    };
    let start = Instant::now();
    let output = Command::new(exe)
        .args(["child", workload.name(), &seed.to_string()])
        .arg(if traced { "1" } else { "0" })
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let wall_s = start.elapsed().as_secs_f64();
    let output = match output {
        Ok(output) if output.status.success() => output,
        Ok(output) => {
            eprintln!("perfbench: child exited with {}", output.status);
            return failed(wall_s);
        }
        Err(err) => {
            eprintln!("perfbench: cannot run child: {err}");
            return failed(wall_s);
        }
    };
    let report = parse_report(&String::from_utf8_lossy(&output.stdout));
    if report.is_none() {
        eprintln!("perfbench: unreadable child report");
    }
    ChildRun { wall_s, report }
}

/// Parse a child's `key value` lines back into its report.
fn parse_report(text: &str) -> Option<ProcessReport> {
    let mut report = ProcessReport {
        setup_s: f64::NAN,
        peak_rss_mb: f64::NAN,
        failed_ops: 0,
        sim: Vec::new(),
        fingerprint: 0,
        layers: Vec::new(),
    };
    for line in text.lines() {
        let mut words = line.split(' ');
        match (words.next()?, words.next()?, words.next()) {
            ("setup_s", v, None) => report.setup_s = v.parse().ok()?,
            ("peak_rss_mb", v, None) => report.peak_rss_mb = v.parse().ok()?,
            ("failed_ops", v, None) => report.failed_ops = v.parse().ok()?,
            ("fingerprint", v, None) => report.fingerprint = v.parse().ok()?,
            ("metric", name, Some(v)) => {
                let value: f64 = v.parse().ok()?;
                if let Some((known, _)) = SIM_METRICS.iter().find(|(n, _)| *n == name) {
                    report.sim.push((known, value));
                } else {
                    let (known, _) = PER_LAYER.iter().find(|(n, _)| *n == name)?;
                    report.layers.push((known, value));
                }
            }
            _ => return None,
        }
    }
    let complete = report.setup_s.is_finite()
        && report.peak_rss_mb.is_finite()
        && report.sim.len() == SIM_METRICS.len();
    complete.then_some(report)
}

fn orchestrate(options: &Options) -> ExitCode {
    let Options {
        workload,
        seed,
        seconds,
        trace,
    } = *options;
    let ops_per_run = workload.cells(seed).len() as u64;
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < MIN_RUNS || start.elapsed() < seconds {
        runs.push(spawn_child(workload, seed, false));
    }
    let traced = trace.then(|| spawn_child(workload, seed, true));

    // Every run of one (workload, seed) must reproduce the first good
    // run's fingerprint (digests, reports, traces and sim values); a run
    // that does not, or that crashed, fails all of its operations.
    let reference = runs.iter().find_map(|r| r.report.as_ref());
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for run in runs.iter().chain(&traced) {
        attempted += ops_per_run;
        failed += match (&run.report, reference) {
            (Some(report), Some(reference)) if report.fingerprint == reference.fingerprint => {
                report.failed_ops
            }
            (Some(_), Some(_)) => {
                eprintln!("perfbench: a run disagrees with the first run of this seed");
                ops_per_run
            }
            _ => ops_per_run,
        };
    }
    let good: Vec<(f64, &ProcessReport)> = runs
        .iter()
        .filter_map(|r| Some((r.wall_s, r.report.as_ref()?)))
        .collect();
    let median_of = |f: fn(&(f64, &ProcessReport)) -> f64| {
        stats::median(&good.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let wall_s = median_of(|(wall_s, _)| *wall_s);
    for (i, run) in runs.iter().enumerate() {
        eprintln!(
            "perfbench: {} run {i}: {:.3} s",
            workload.name(),
            run.wall_s
        );
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    match &traced {
        None => {
            let host = [
                wall_s,
                median_of(|(_, r)| r.setup_s),
                median_of(|(_, r)| r.peak_rss_mb),
            ];
            for ((name, unit), value) in HOST_METRICS.iter().zip(host) {
                metrics.push((name, value, unit));
            }
            for (i, (name, unit)) in SIM_METRICS.iter().enumerate() {
                metrics.push((name, reference.map_or(0.0, |r| r.sim[i].1), unit));
            }
        }
        Some(traced) => {
            let layers = traced.report.as_ref().map_or(&[][..], |r| &r.layers[..]);
            for (name, unit) in PER_LAYER {
                let value = if *name == TRACE_OVERHEAD {
                    traced.wall_s - wall_s
                } else {
                    layers
                        .iter()
                        .find(|(n, _)| n == name)
                        .map_or(0.0, |(_, v)| *v)
                };
                metrics.push((name, value, unit));
            }
        }
    }
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "..."` value of `BENCHMARK.json`, in file order.
    fn declared_names() -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        text.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().unwrap_or_default().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let workloads = ["cold_storm", "firehose", "scenario_grid"];
        assert!(workloads.iter().all(|w| Workload::parse(w).is_some()));
        let expected: Vec<&str> = workloads
            .into_iter()
            .chain(HOST_METRICS.iter().chain(&SIM_METRICS).map(|(n, _)| *n))
            .chain(PER_LAYER.iter().map(|(n, _)| *n))
            .collect();
        assert_eq!(declared_names(), expected);
    }

    #[test]
    fn child_reports_round_trip() {
        let text = "setup_s 2.5\npeak_rss_mb 81.5\nfailed_ops 0\nfingerprint 42\n\
                    metric sim_goodput_per_min 1.08\nmetric sim_fail_share 0.11\n\
                    metric sim_resp_p50_s 560\nmetric sim_resp_p95_s 1070\n\
                    metric engine.run_s 0.2\n";
        let report = parse_report(text).expect("well-formed report");
        assert_eq!(
            (report.setup_s, report.peak_rss_mb, report.fingerprint),
            (2.5, 81.5, 42)
        );
        assert_eq!(report.sim[1], ("sim_fail_share", 0.11));
        assert_eq!(report.layers, vec![("engine.run_s", 0.2)]);
        assert!(parse_report("setup_s 2.5\n").is_none(), "incomplete report");
        assert!(parse_report(&text.replace("engine.run_s", "engine.bogus")).is_none());
    }

    #[test]
    fn options_need_a_known_workload() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let o = parse_options(&args("--workload firehose --seed 7 --seconds 3 --trace 1"))
            .expect("valid options");
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Workload::Firehose, 7, Duration::from_secs(3), true)
        );
        assert_eq!(
            parse_options(&args("--workload firehose")).map(|o| o.seed),
            Ok(2007)
        );
        assert!(parse_options(&args("--workload nope")).is_err());
        assert!(parse_options(&args("--seed 7")).is_err());
        assert!(parse_options(&args("--workload firehose --trace 2")).is_err());
    }
}
