//! Differential determinism harness for the sharded arrival plane.
//!
//! Every property case builds one randomized small scenario — a phase
//! schedule over mixed workload blends and client counts, a randomized set
//! of open-loop arrival sources (Poisson / MMPP / bounded-Pareto /
//! diurnal), optionally a mid-run fault window, and a random seed — then
//! runs it three times: single-threaded, at `--shards 2`, and at
//! `--shards 4`. The recorded trace, the per-phase reports, the arrival
//! digest and every determinism-bearing counter must be byte-identical
//! across the three runs.
//!
//! This is the sharding contract stated as a property: the shard count
//! is a wall-clock knob, never a semantics knob. It is also a differential
//! between two independent shed fast paths: the single-threaded run sheds
//! at-cap bursts through `Server::on_arrival`'s shed-run skip (sample
//! forward up to the queue head, account the skipped queue round trips in
//! one call), while the sharded runs drain them from precomputed arrival
//! buffers against a merge bound. Any divergence in event ordering,
//! sequence-number assignment, RNG stream consumption or shed accounting
//! between the two shows up as a trace or digest mismatch here before it
//! could reach a golden file.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use throttledb_engine::{ArrivalSourceConfig, ServerConfig, WorkloadProfiles};
use throttledb_scenario::{FaultPlan, Phase, Scenario, ScenarioOutcome, ScenarioRunner};
use throttledb_sim::{ArrivalProcess, SimDuration};
use throttledb_workload::WorkloadMix;

use throttledb_engine::FaultKind;

/// The shared base machine: the paper's quick profile, no warm-up
/// exclusion, one workload class. Every generated scenario starts here so
/// one characterization pass (the expensive part — real optimizer
/// compilations) covers all cases.
fn base_config(seed: u64) -> ServerConfig {
    let mut base = ServerConfig::quick(1, true);
    base.warmup = SimDuration::ZERO;
    base.seed = seed;
    base
}

fn profiles() -> Arc<WorkloadProfiles> {
    static PROFILES: OnceLock<Arc<WorkloadProfiles>> = OnceLock::new();
    PROFILES
        .get_or_init(|| Arc::new(WorkloadProfiles::characterize_full(&base_config(2007))))
        .clone()
}

/// Decode one arrival-source knob tuple into a source config. The knobs
/// span all four arrival-process families at rates that keep a case fast
/// while still crossing the concurrency cap (small `max_in_flight` forces
/// shed traffic through both shed fast paths).
fn source(index: usize, kind: u8, rate: u32, cap: u32) -> ArrivalSourceConfig {
    let process = match kind {
        0 => ArrivalProcess::Poisson {
            rate_per_sec: 0.5 + rate as f64,
        },
        1 => ArrivalProcess::Mmpp {
            calm_rate_per_sec: 0.2 + rate as f64 * 0.2,
            burst_rate_per_sec: 2.0 + rate as f64 * 2.0,
            mean_calm_secs: 20.0,
            mean_burst_secs: 5.0,
        },
        2 => ArrivalProcess::BoundedPareto {
            alpha: 1.5,
            min_secs: 0.2,
            max_secs: 60.0,
        },
        _ => ArrivalProcess::Diurnal {
            base_rate_per_sec: 0.5 + rate as f64 * 0.3,
            amplitude: 0.8,
            period_secs: 45.0,
        },
    };
    ArrivalSourceConfig {
        name: format!("src-{index}"),
        process,
        class: 0,
        max_in_flight: cap,
        modeled_clients: 1_000,
    }
}

/// Build the scenario a case describes. Called once per compared run so
/// each run owns an identical, independently constructed scenario.
fn build(
    seed: u64,
    phase_knobs: &[(u8, u32, u64)],
    source_knobs: &[(u8, u32, u32)],
    fault_knob: u8,
) -> Scenario {
    let mut base = base_config(seed);
    base.arrivals = source_knobs
        .iter()
        .enumerate()
        .map(|(i, &(kind, rate, cap))| source(i, kind, rate, cap))
        .collect();
    let mixes = [
        WorkloadMix::default(),
        WorkloadMix::sales_only(),
        WorkloadMix::new(0.2, 0.4, 0.4),
    ];
    // A scenario must drive *some* load; when the generator picks neither
    // sources nor clients, deterministically give the first phase one
    // client (every compared run rebuilds the same scenario, so the fixup
    // cannot skew the differential).
    let idle = source_knobs.is_empty() && phase_knobs.iter().all(|&(_, clients, _)| clients == 0);
    let phases: Vec<Phase> = phase_knobs
        .iter()
        .enumerate()
        .map(|(i, &(mix, clients, secs))| {
            let clients = if idle && i == 0 { 1 } else { clients };
            Phase::steady(
                format!("p{i}"),
                SimDuration::from_secs(secs),
                clients,
                mixes[mix as usize],
            )
        })
        .collect();
    let mut scenario = Scenario::new(
        "shard_equivalence",
        "randomized differential scenario",
        base,
        phases,
    )
    .with_seed(seed);
    // Fault windows sit well inside the shortest possible schedule (one
    // 45 s phase), so the plan always validates.
    let fault = match fault_knob {
        0 => Some(FaultKind::CompileStall { multiplier: 4.0 }),
        1 => Some(FaultKind::SlotLoss { slots: 4 }),
        2 => Some(FaultKind::ClientSurge { extra_clients: 3 }),
        _ => None,
    };
    if let Some(kind) = fault {
        scenario = scenario.with_faults(FaultPlan::new().with(
            SimDuration::from_secs(10),
            SimDuration::from_secs(20),
            kind,
        ));
    }
    scenario
}

fn run(scenario: Scenario, shards: u32) -> ScenarioOutcome {
    ScenarioRunner::new(scenario)
        .record_trace(true)
        .with_profiles(profiles())
        .with_shards(shards)
        .run()
}

/// Assert two outcomes are indistinguishable: trace bytes, phase reports,
/// the arrival digest, and every counter a sweep cell would publish.
fn assert_equivalent(oracle: &ScenarioOutcome, sharded: &ScenarioOutcome, shards: u32) {
    let tag = format!("shards={shards}");
    assert_eq!(oracle.phases, sharded.phases, "{tag}: phase reports");
    assert_eq!(
        oracle.trace.as_ref().expect("recording on").encode(),
        sharded.trace.as_ref().expect("recording on").encode(),
        "{tag}: trace bytes"
    );
    let (a, b) = (&oracle.metrics, &sharded.metrics);
    assert_eq!(a.arrival_digest, b.arrival_digest, "{tag}: arrival digest");
    assert_eq!(a.arrivals, b.arrivals, "{tag}: arrivals");
    assert_eq!(a.arrivals_admitted, b.arrivals_admitted, "{tag}: admitted");
    assert_eq!(a.arrivals_shed, b.arrivals_shed, "{tag}: shed");
    assert_eq!(a.completed.total(), b.completed.total(), "{tag}: completed");
    assert_eq!(a.failed.total(), b.failed.total(), "{tag}: failed");
    assert_eq!(
        a.events_dispatched, b.events_dispatched,
        "{tag}: events dispatched"
    );
    assert_eq!(
        a.peak_queue_depth, b.peak_queue_depth,
        "{tag}: peak queue depth"
    );
}

proptest! {
    #[test]
    fn sharded_runs_are_byte_identical_to_single_threaded(
        seed in 0u64..1_000_000,
        phase_knobs in proptest::collection::vec((0u8..3, 0u32..5, 45u64..90), 1..3),
        source_knobs in proptest::collection::vec((0u8..4, 0u32..4, 1u32..9), 0..3),
        fault_knob in 0u8..8,
    ) {
        let oracle = run(build(seed, &phase_knobs, &source_knobs, fault_knob), 1);
        for shards in [2u32, 4] {
            let sharded = run(build(seed, &phase_knobs, &source_knobs, fault_knob), shards);
            assert_equivalent(&oracle, &sharded, shards);
        }
    }
}
