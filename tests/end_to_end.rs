//! End-to-end integration tests spanning the whole stack: SQL text ->
//! optimizer -> gateway ladder -> broker -> engine experiments.

use std::sync::Arc;
use throttledb_engine::{
    figure2_timeline, throughput_experiment_with_profiles, ArrivalSourceConfig, Server,
    ServerConfig, WorkloadProfiles,
};
use throttledb_sim::{ArrivalProcess, SimDuration, SimTime};

#[test]
fn quick_sales_run_reproduces_the_papers_qualitative_shape() {
    let cfg = ServerConfig::quick(20, true);
    let profiles = Arc::new(WorkloadProfiles::characterize_sales(&cfg));
    let cmp = throughput_experiment_with_profiles(&cfg, 20, &profiles);

    // Both configurations make progress.
    assert!(cmp.throttled.completed_after_warmup > 0);
    assert!(cmp.unthrottled.completed_after_warmup > 0);
    // The unthrottled server lets concurrent compilations pile up memory.
    assert!(
        cmp.unthrottled.compile_memory.max_value() >= cmp.throttled.compile_memory.max_value(),
        "throttling must cap concurrent compile memory"
    );
    // The throttled server engages its gateways and never hits OOM more often
    // than the unthrottled one.
    assert!(cmp.throttled.throttle.acquisitions.iter().sum::<u64>() > 0);
    assert!(cmp.throttled.oom_failures <= cmp.unthrottled.oom_failures);
}

/// The full stack on a mixed population: real optimizer characterization,
/// the gateway ladder, the broker, and an open-loop source beside a
/// closed-loop client population. The run must do work and account for
/// every arrival it offered.
#[test]
fn mixed_open_and_closed_loop_run_accounts_for_every_arrival() {
    let mut cfg = ServerConfig::quick(6, true);
    cfg.warmup = SimDuration::ZERO;
    cfg.arrivals = vec![ArrivalSourceConfig {
        name: "web".to_string(),
        process: ArrivalProcess::Poisson { rate_per_sec: 4.0 },
        class: 0,
        max_in_flight: 8,
        modeled_clients: 10_000,
    }];
    let profiles = Arc::new(WorkloadProfiles::characterize_full(&cfg));
    let mut server = Server::new(cfg.clone(), profiles);
    server.set_active_clients(cfg.clients);
    server.begin();
    server.run_until(SimTime::ZERO + SimDuration::from_secs(900));
    let m = server.finish();
    assert!(m.arrivals > 100, "run too idle to prove anything");
    assert!(m.completed.total() > 0, "nothing completed");
    assert_eq!(m.arrivals, m.arrivals_admitted + m.arrivals_shed);
}

#[test]
fn figure2_scenario_produces_three_complete_timelines() {
    let timelines = figure2_timeline();
    assert_eq!(timelines.len(), 3);
    for (name, g) in &timelines {
        assert!(
            g.max_value() > 10 << 20,
            "{name} should allocate tens of MB"
        );
        assert_eq!(
            g.samples().last().map(|(_, v)| *v),
            Some(0),
            "{name} must release its memory"
        );
    }
}

#[test]
fn profiles_show_sales_needs_orders_of_magnitude_more_compile_memory() {
    let cfg = ServerConfig::quick(8, true);
    let profiles = WorkloadProfiles::characterize_sales(&cfg);
    let sales_min = profiles
        .dss
        .iter()
        .map(|t| profiles.profile(&t.name).peak_compile_bytes)
        .min()
        .unwrap();
    let oltp_max = profiles
        .oltp
        .iter()
        .map(|t| profiles.profile(&t.name).peak_compile_bytes)
        .max()
        .unwrap();
    assert!(
        sales_min > 50 * oltp_max,
        "SALES {sales_min} vs OLTP {oltp_max}"
    );
}
