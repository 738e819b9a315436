//! Per-layer attribution for the traced run: spans timed around calls into
//! each layer's public functions from this file, plus the counters each
//! layer already reports through `RunMetrics`.

use crate::cell::TracePlane;
use crate::stats::{self, Offered};
use std::time::Instant;
use throttledb_catalog::{sales_schema, tpch_schema, SalesScale};
use throttledb_engine::WorkloadProfiles;
use throttledb_executor::ExecutionModel;
use throttledb_optimizer::{Binder, Optimizer};
use throttledb_scenario::ScenarioOutcome;
use throttledb_sqlparse::parse;

/// Every per-layer metric with its unit, in report order. The traced
/// process reports all but the last, which the orchestrator derives.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("catalog.build_s", "s"),
    ("sqlparse.parse_s", "s"),
    ("optimizer.bind_s", "s"),
    ("optimizer.optimize_s", "s"),
    ("optimizer.max_template_s", "s"),
    ("optimizer.transformations", "count"),
    ("optimizer.memo_groups", "count"),
    ("optimizer.memo_exprs", "count"),
    ("optimizer.ns_per_transformation", "ns"),
    ("optimizer.peak_compile_mb", "MB"),
    ("executor.profile_s", "s"),
    ("engine.characterize_self_s", "s"),
    ("engine.run_s", "s"),
    ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.peak_queue_depth", "count"),
    ("engine.admitted_per_s", "1/s"),
    ("engine.shed_per_s", "1/s"),
    ("engine.completions", "count"),
    ("engine.retries_abandoned", "count"),
    ("engine.goodput_under_fault", "1/s"),
    ("engine.time_to_recovery_s", "s"),
    ("sim.arrivals", "count"),
    ("sim.arrivals_admitted", "count"),
    ("sim.arrivals_shed", "count"),
    ("sim.ns_per_arrival", "ns"),
    ("governor.gw0.waits", "count"),
    ("governor.gw1.waits", "count"),
    ("governor.gw2.waits", "count"),
    ("governor.gw0.mean_wait_s", "s"),
    ("governor.gw1.mean_wait_s", "s"),
    ("governor.gw2.mean_wait_s", "s"),
    ("governor.timeouts", "count"),
    ("governor.best_effort", "count"),
    ("governor.breaker_transitions", "count"),
    ("governor.shed", "count"),
    ("governor.grant_queued", "count"),
    ("governor.grant_degraded", "count"),
    ("governor.grant_cancelled", "count"),
    ("governor.grant_mean_wait_s", "s"),
    ("membroker.peak_compile_mb", "MB"),
    ("membroker.oom_failures", "count"),
    ("scenario.trace_events", "count"),
    ("scenario.trace_bytes", "bytes"),
    ("scenario.encode_s", "s"),
    ("scenario.decode_s", "s"),
    ("scenario.replay_s", "s"),
    ("scenario.sink_s", "s"),
    ("scenario.render_s", "s"),
    ("scenario.trace_share", "share"),
    ("bench.trace_overhead_s", "s"),
];

/// The metric the orchestrator adds: traced wall time minus the untraced
/// median.
pub const TRACE_OVERHEAD: &str = "bench.trace_overhead_s";

/// Gateways reported one by one.
const GATEWAYS: usize = 3;

/// Host times and counters summed over one traced process.
#[derive(Debug, Default)]
pub struct Layers {
    catalog_s: f64,
    parse_s: f64,
    bind_s: f64,
    optimize_s: f64,
    max_template_s: f64,
    transformations: u64,
    memo_groups: u64,
    memo_exprs: u64,
    template_peak_bytes: u64,
    profile_s: f64,

    run_s: f64,
    events: u64,
    peak_queue_depth: u64,
    admitted: u64,
    shed: u64,
    breaker_shed: u64,
    arrivals: u64,
    arrivals_admitted: u64,
    arrivals_shed: u64,
    retries_abandoned: u64,
    completed_during_fault: u64,
    fault_secs: f64,
    recovery_secs: f64,
    faulted_cells: u64,

    gw_waits: [u64; GATEWAYS],
    gw_wait_secs: [f64; GATEWAYS],
    timeouts: u64,
    best_effort: u64,
    breaker_transitions: u64,
    grant_queued: u64,
    grant_degraded: u64,
    grant_cancelled: u64,
    grant_wait_us: u128,
    grant_waits: u64,

    compile_peak_bytes: u64,
    oom_failures: u64,

    plane: TracePlane,
    sink_s: f64,
    render_s: f64,
}

/// Seconds `f` took, and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

impl Layers {
    /// Repeat `characterize_full`'s per-template work call by call, timing
    /// each layer, and cross-check every template's transformation count
    /// and peak compile bytes against `profiles`. Returns the mismatches.
    pub fn time_characterization(&mut self, profiles: &WorkloadProfiles) -> Vec<String> {
        let (sales_s, sales) = timed(|| sales_schema(SalesScale::paper()));
        let (tpch_s, tpch) = timed(|| tpch_schema(30.0));
        self.catalog_s = sales_s + tpch_s;
        let mut mismatches = Vec::new();
        let families = [
            (&sales, &profiles.dss[..]),
            (&sales, &profiles.oltp[..]),
            (&tpch, &profiles.tpch[..]),
        ];
        let exec_model = ExecutionModel::default();
        for (catalog, templates) in families {
            let binder = Binder::new(catalog);
            let optimizer = Optimizer::new(catalog);
            for template in templates {
                let (parse_s, stmt) = timed(|| parse(&template.sql).expect("templates parse"));
                let (bind_s, bound) = timed(|| binder.bind(&stmt));
                bound.expect("templates bind");
                let (optimize_s, outcome) = timed(|| optimizer.optimize(&stmt));
                let outcome = outcome.expect("templates compile");
                let (profile_s, _) = timed(|| exec_model.profile(&outcome.plan, catalog));
                self.parse_s += parse_s;
                self.bind_s += bind_s;
                self.optimize_s += optimize_s;
                self.max_template_s = self.max_template_s.max(optimize_s);
                self.profile_s += profile_s;
                let s = &outcome.stats;
                self.transformations += s.transformations;
                self.memo_groups += s.memo_groups as u64;
                self.memo_exprs += s.memo_exprs as u64;
                self.template_peak_bytes = self.template_peak_bytes.max(s.peak_memory_bytes);
                let expected = profiles.profile(&template.name);
                if (s.transformations, s.peak_memory_bytes)
                    != (expected.transformations, expected.peak_compile_bytes)
                {
                    mismatches.push(format!(
                        "template {}: timed loop saw {} transformations / {} peak bytes, \
                         characterize_full {} / {}",
                        template.name,
                        s.transformations,
                        s.peak_memory_bytes,
                        expected.transformations,
                        expected.peak_compile_bytes
                    ));
                }
            }
        }
        mismatches
    }

    /// Fold one simulated cell into the totals.
    pub fn add_cell(
        &mut self,
        outcome: &ScenarioOutcome,
        offered: Offered,
        run_s: f64,
        sink_s: f64,
        plane: &TracePlane,
        render_s: f64,
    ) {
        let m = &outcome.metrics;
        self.run_s += run_s;
        self.events += m.events_dispatched;
        self.peak_queue_depth = self.peak_queue_depth.max(m.peak_queue_depth as u64);
        let shed = offered.closed_shed + offered.arrivals_shed;
        self.admitted += (offered.closed_submitted + offered.arrivals).saturating_sub(shed);
        self.shed += shed;
        self.breaker_shed += m.shed;
        self.arrivals += m.arrivals;
        self.arrivals_admitted += m.arrivals_admitted;
        self.arrivals_shed += m.arrivals_shed;
        self.retries_abandoned += m.retries_abandoned;
        if !m.fault_windows.is_empty() {
            self.completed_during_fault += m.completed_during_fault;
            self.fault_secs += m.fault_seconds();
            self.recovery_secs += m.time_to_recovery();
            self.faulted_cells += 1;
        }
        let t = &m.throttle;
        for level in 0..GATEWAYS.min(t.levels()) {
            self.gw_waits[level] += t.waits[level];
            self.gw_wait_secs[level] += t.total_wait[level].as_secs_f64();
        }
        self.timeouts += t.timeouts;
        self.best_effort += m.best_effort_plans;
        self.breaker_transitions += m.breaker_transitions;
        for class in &m.classes {
            let g = &class.grants;
            self.grant_queued += g.queued;
            self.grant_degraded += g.degraded;
            self.grant_cancelled += g.cancelled;
            self.grant_wait_us += g.wait_time.sum();
            self.grant_waits += g.wait_time.count();
        }
        self.compile_peak_bytes = self.compile_peak_bytes.max(m.compile_memory.max_value());
        self.oom_failures += m.oom_failures;
        self.plane.events += plane.events;
        self.plane.bytes += plane.bytes;
        self.plane.encode_s += plane.encode_s;
        self.plane.decode_s += plane.decode_s;
        self.plane.replay_s += plane.replay_s;
        self.sink_s += sink_s;
        self.render_s += render_s;
    }

    /// The per-layer metrics (all of [`PER_LAYER`] but [`TRACE_OVERHEAD`]).
    /// `work_s` is the process's host time less the timing loop above.
    pub fn metrics(&self, setup_s: f64, completions: u64, work_s: f64) -> Vec<(&'static str, f64)> {
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let mb = |bytes: u64| bytes as f64 / 1e6;
        let trace_s = self.sink_s + self.plane.encode_s + self.plane.decode_s + self.plane.replay_s;
        let mut out = vec![
            ("catalog.build_s", self.catalog_s),
            ("sqlparse.parse_s", self.parse_s),
            ("optimizer.bind_s", self.bind_s),
            ("optimizer.optimize_s", self.optimize_s),
            ("optimizer.max_template_s", self.max_template_s),
            ("optimizer.transformations", self.transformations as f64),
            ("optimizer.memo_groups", self.memo_groups as f64),
            ("optimizer.memo_exprs", self.memo_exprs as f64),
            (
                "optimizer.ns_per_transformation",
                per(self.optimize_s * 1e9, self.transformations as f64),
            ),
            ("optimizer.peak_compile_mb", mb(self.template_peak_bytes)),
            ("executor.profile_s", self.profile_s),
            (
                "engine.characterize_self_s",
                // Binding runs inside `optimize`; its own span is a
                // separate call, not a child of `characterize_full`.
                stats::self_time(
                    setup_s,
                    &[
                        self.catalog_s,
                        self.parse_s,
                        self.optimize_s,
                        self.profile_s,
                    ],
                ),
            ),
            ("engine.run_s", self.run_s),
            ("engine.events", self.events as f64),
            (
                "engine.ns_per_event",
                per(self.run_s * 1e9, self.events as f64),
            ),
            ("engine.peak_queue_depth", self.peak_queue_depth as f64),
            (
                "engine.admitted_per_s",
                per(self.admitted as f64, self.run_s),
            ),
            ("engine.shed_per_s", per(self.shed as f64, self.run_s)),
            ("engine.completions", completions as f64),
            ("engine.retries_abandoned", self.retries_abandoned as f64),
            (
                "engine.goodput_under_fault",
                per(self.completed_during_fault as f64, self.fault_secs),
            ),
            (
                "engine.time_to_recovery_s",
                per(self.recovery_secs, self.faulted_cells as f64),
            ),
            ("sim.arrivals", self.arrivals as f64),
            ("sim.arrivals_admitted", self.arrivals_admitted as f64),
            ("sim.arrivals_shed", self.arrivals_shed as f64),
            (
                "sim.ns_per_arrival",
                per(self.run_s * 1e9, self.arrivals as f64),
            ),
        ];
        let mean_wait = |level: usize| per(self.gw_wait_secs[level], self.gw_waits[level] as f64);
        out.extend([
            ("governor.gw0.waits", self.gw_waits[0] as f64),
            ("governor.gw1.waits", self.gw_waits[1] as f64),
            ("governor.gw2.waits", self.gw_waits[2] as f64),
            ("governor.gw0.mean_wait_s", mean_wait(0)),
            ("governor.gw1.mean_wait_s", mean_wait(1)),
            ("governor.gw2.mean_wait_s", mean_wait(2)),
            ("governor.timeouts", self.timeouts as f64),
            ("governor.best_effort", self.best_effort as f64),
            (
                "governor.breaker_transitions",
                self.breaker_transitions as f64,
            ),
            ("governor.shed", self.breaker_shed as f64),
            ("governor.grant_queued", self.grant_queued as f64),
            ("governor.grant_degraded", self.grant_degraded as f64),
            ("governor.grant_cancelled", self.grant_cancelled as f64),
            (
                "governor.grant_mean_wait_s",
                per(self.grant_wait_us as f64 / 1e6, self.grant_waits as f64),
            ),
            ("membroker.peak_compile_mb", mb(self.compile_peak_bytes)),
            ("membroker.oom_failures", self.oom_failures as f64),
            ("scenario.trace_events", self.plane.events as f64),
            ("scenario.trace_bytes", self.plane.bytes as f64),
            ("scenario.encode_s", self.plane.encode_s),
            ("scenario.decode_s", self.plane.decode_s),
            ("scenario.replay_s", self.plane.replay_s),
            ("scenario.sink_s", self.sink_s),
            ("scenario.render_s", self.render_s),
            ("scenario.trace_share", per(trace_s, work_s)),
        ]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_process_reports_every_layer_metric_but_the_overhead() {
        let reported: Vec<&str> = Layers::default()
            .metrics(1.0, 0, 1.0)
            .iter()
            .map(|(name, _)| *name)
            .collect();
        let expected: Vec<&str> = PER_LAYER
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| *name != TRACE_OVERHEAD)
            .collect();
        assert_eq!(reported, expected);
    }
}
