//! The three workloads and the work one fresh process does for each.

use crate::cell::{self, ResponseSink, TracePlane};
use crate::layers::Layers;
use crate::stats::{self, Offered};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use throttledb_engine::WorkloadProfiles;
use throttledb_scenario::{Scale, Scenario, ScenarioRunner};

/// Consecutive workload seeds, from `--seed` on, that each workload runs
/// its small scenarios at. The modelled-DBMS metrics of one seed swing by
/// 10-25% between seeds, so they are pooled over the panel.
pub const SEED_PANEL: u64 = 20;

/// The percentile reported as `sim_resp_p95_s`; every run checks that it
/// keeps [`stats::MIN_TAIL_SAMPLES`] completions beyond it.
const TAIL_PERCENTILE: f64 = 95.0;

/// The small open-loop built-ins `firehose` pools its modelled-DBMS
/// metrics over.
const SMALL_OPEN_LOOP: [&str; 4] = [
    "open_loop_poisson",
    "flash_crowd",
    "heavy_tail_arrivals",
    "diurnal_arrivals",
];

/// A benchmark workload. Each runs one characterization, then its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `compile_storm` over the seed panel: characterization-bound.
    ColdStorm,
    /// One `open_loop_scale` run, then the small open-loop built-ins over
    /// the seed panel: event-loop-bound.
    Firehose,
    /// Every built-in but `open_loop_scale` over the seed panel, each
    /// recording, encoding, decoding and replaying a v1 trace.
    ScenarioGrid,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold_storm" => Some(Workload::ColdStorm),
            "firehose" => Some(Workload::Firehose),
            "scenario_grid" => Some(Workload::ScenarioGrid),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdStorm => "cold_storm",
            Workload::Firehose => "firehose",
            Workload::ScenarioGrid => "scenario_grid",
        }
    }

    /// The scenario runs ("cells") of one process, in run order, all at
    /// paper scale.
    pub fn cells(self, seed: u64) -> Vec<Scenario> {
        let panel = |names: &[&str]| -> Vec<Scenario> {
            (0..SEED_PANEL)
                .flat_map(|i| {
                    names
                        .iter()
                        .map(move |name| builtin(name, seed.wrapping_add(i)))
                })
                .collect()
        };
        match self {
            Workload::ColdStorm => panel(&["compile_storm"]),
            Workload::Firehose => {
                let mut cells = vec![builtin("open_loop_scale", seed)];
                cells.extend(panel(&SMALL_OPEN_LOOP));
                cells
            }
            Workload::ScenarioGrid => {
                let names: Vec<&str> = Scenario::builtin_names()
                    .iter()
                    .copied()
                    .filter(|name| *name != "open_loop_scale")
                    .collect();
                panel(&names)
            }
        }
    }

    fn records_trace(self) -> bool {
        self == Workload::ScenarioGrid
    }
}

fn builtin(name: &str, seed: u64) -> Scenario {
    Scenario::builtin(name, Scale::Paper)
        .expect("built-in scenario names resolve")
        .with_seed(seed)
}

/// What one process measured and checked.
#[derive(Debug)]
pub struct ProcessReport {
    /// Host seconds in `characterize_full`.
    pub setup_s: f64,
    /// The process's peak resident set (VmHWM) in MB; NaN when unreadable.
    pub peak_rss_mb: f64,
    /// Cells with at least one failed check.
    pub failed_ops: u64,
    /// The deterministic end-to-end metrics, by name.
    pub sim: Vec<(&'static str, f64)>,
    /// Hash over every cell's arrival digest, rendered report and encoded
    /// trace plus the `sim` values: equal across processes of one
    /// (workload, seed).
    pub fingerprint: u64,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
}

/// Run `workload` at `seed` in this process. A traced run additionally
/// times each layer's public calls and reports per-layer metrics.
pub fn run(workload: Workload, seed: u64, traced: bool) -> ProcessReport {
    let started = Instant::now();
    let cells = workload.cells(seed);
    let setup_start = Instant::now();
    let profiles = Arc::new(WorkloadProfiles::characterize_full(&cells[0].base));
    let setup_s = setup_start.elapsed().as_secs_f64();

    // The traced run repeats characterization call by call; that timing
    // loop is overhead, so it is left out of the work the run did.
    let mut layers = Layers::default();
    let mut loop_s = 0.0;
    let mut process_failures = Vec::new();
    if traced {
        let loop_start = Instant::now();
        process_failures = layers.time_characterization(&profiles);
        loop_s = loop_start.elapsed().as_secs_f64();
    }

    let mut hasher = DefaultHasher::new();
    let mut offered = Offered::default();
    let (mut completed_after_warmup, mut measured_secs) = (0u64, 0.0f64);
    let mut responses = Vec::new();
    let mut failed_ops = 0u64;
    for scenario in &cells {
        let sink = Rc::new(RefCell::new(if traced {
            ResponseSink::timed()
        } else {
            ResponseSink::default()
        }));
        let run_start = Instant::now();
        let outcome = ScenarioRunner::new(scenario.clone())
            .with_profiles(Arc::clone(&profiles))
            .record_trace(workload.records_trace())
            .with_trace_sink(sink.clone())
            .run();
        let run_s = run_start.elapsed().as_secs_f64();
        let sink = Rc::try_unwrap(sink)
            .expect("the runner released the sink")
            .into_inner();

        let mut failures = cell::check(&outcome, &sink);
        let plane = match &outcome.trace {
            Some(trace) => cell::round_trip(trace, &outcome.phases, &mut hasher, &mut failures),
            None => TracePlane::default(),
        };
        let render_start = Instant::now();
        let report = outcome.render_report();
        let render_s = render_start.elapsed().as_secs_f64();

        if !failures.is_empty() {
            failed_ops += 1;
            for failure in &failures {
                let (name, seed) = (&scenario.name, scenario.base.seed);
                eprintln!("check failed: {name} seed {seed}: {failure}");
            }
        }
        report.hash(&mut hasher);
        outcome.metrics.arrival_digest.hash(&mut hasher);
        let m = &outcome.metrics;
        let cell_offered = cell::offered(&outcome, &sink);
        offered.add(cell_offered);
        completed_after_warmup += m.completed_after_warmup;
        measured_secs += m.run_duration.as_secs_f64() - m.warmup.as_secs_f64();
        if traced {
            layers.add_cell(
                &outcome,
                cell_offered,
                run_s,
                sink.busy_s(),
                &plane,
                render_s,
            );
        }
        responses.extend_from_slice(&sink.responses_s);
    }

    responses.sort_by(f64::total_cmp);
    if !stats::percentile_admitted(TAIL_PERCENTILE, responses.len()) {
        process_failures.push(format!(
            "{} completions leave fewer than {} beyond p{TAIL_PERCENTILE}",
            responses.len(),
            stats::MIN_TAIL_SAMPLES
        ));
    }
    if !process_failures.is_empty() {
        for failure in &process_failures {
            eprintln!("check failed: {} seed {seed}: {failure}", workload.name());
        }
        failed_ops = cells.len() as u64;
    }
    let sim = vec![
        (
            "sim_goodput_per_min",
            stats::goodput_per_min(completed_after_warmup, measured_secs),
        ),
        ("sim_fail_share", offered.fail_share()),
        (
            "sim_resp_p50_s",
            stats::percentile(&responses, 50.0).unwrap_or(0.0),
        ),
        (
            "sim_resp_p95_s",
            stats::percentile(&responses, TAIL_PERCENTILE).unwrap_or(0.0),
        ),
    ];
    for (name, value) in &sim {
        (name, value.to_bits()).hash(&mut hasher);
    }
    let layers = if traced {
        let work_s = started.elapsed().as_secs_f64() - loop_s;
        layers.metrics(setup_s, responses.len() as u64, work_s)
    } else {
        Vec::new()
    };
    ProcessReport {
        setup_s,
        peak_rss_mb: peak_rss_mb().unwrap_or(f64::NAN),
        failed_ops,
        sim,
        fingerprint: hasher.finish(),
        layers,
    }
}

/// This process's peak resident set (VmHWM) in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024.0 / 1e6)
}
