//! Integration tests of the throttling policy against the real optimizer:
//! the threaded gateway ladder governs genuine compilations.

use std::sync::Arc;
use throttledb_catalog::{sales_schema, SalesScale};
use throttledb_core::{ThreadedThrottle, ThrottleConfig};
use throttledb_engine::{ArrivalSourceConfig, Server, ServerConfig, WorkloadProfiles};
use throttledb_membroker::{BrokerConfig, MemoryBroker, SubcomponentKind};
use throttledb_optimizer::Optimizer;
use throttledb_sim::{ArrivalProcess, SimDuration, SimTime};
use throttledb_sqlparse::parse;
use throttledb_workload::{oltp_templates, sales_templates};

#[test]
fn real_sales_compilation_climbs_the_gateway_ladder() {
    let broker = MemoryBroker::new(BrokerConfig::paper_machine());
    let throttle = Arc::new(ThreadedThrottle::new(
        ThrottleConfig::paper_machine(),
        broker.clone(),
    ));
    let catalog = sales_schema(SalesScale::paper());
    let optimizer = Optimizer::new(&catalog);
    let stmt = parse(&sales_templates()[0].sql).unwrap();
    let clerk = broker.register(SubcomponentKind::Compilation);
    let out = optimizer
        .optimize_with_governor(&stmt, throttle.governor(), Some(clerk.clone()))
        .expect("compiles");
    assert!(out.stats.peak_memory_bytes > 100 << 20);
    let stats = throttle.stats();
    // A ~200 MB compilation must have passed the small, medium and big gateways.
    assert!(stats.acquisitions[0] >= 1);
    assert!(stats.acquisitions[1] >= 1);
    assert!(stats.acquisitions[2] >= 1);
    assert_eq!(clerk.used_bytes(), 0, "all compile memory released");
}

#[test]
fn diagnostic_queries_never_touch_the_gateways() {
    let broker = MemoryBroker::new(BrokerConfig::paper_machine());
    let throttle = Arc::new(ThreadedThrottle::new(
        ThrottleConfig::paper_machine(),
        broker.clone(),
    ));
    let catalog = sales_schema(SalesScale::paper());
    let optimizer = Optimizer::new(&catalog);
    for t in oltp_templates() {
        let stmt = parse(&t.sql).unwrap();
        optimizer
            .optimize_with_governor(&stmt, throttle.governor(), None)
            .expect("compiles");
    }
    let stats = throttle.stats();
    assert_eq!(
        stats.acquisitions.iter().sum::<u64>(),
        0,
        "OLTP compiles stay exempt"
    );
    assert_eq!(stats.exempt_compilations, oltp_templates().len() as u64);
}

/// Open-loop arrivals compile through the same gateway ladder as the
/// closed-loop clients: a mixed run must acquire gateways.
#[test]
fn open_loop_arrivals_engage_the_gateway_ladder() {
    let mut cfg = ServerConfig::quick(4, true);
    cfg.warmup = SimDuration::ZERO;
    cfg.arrivals = vec![ArrivalSourceConfig {
        name: "ingest".to_string(),
        process: ArrivalProcess::Poisson { rate_per_sec: 3.0 },
        class: 0,
        max_in_flight: 6,
        modeled_clients: 10_000,
    }];
    let profiles = Arc::new(WorkloadProfiles::characterize_full(&cfg));
    let mut server = Server::new(cfg.clone(), profiles);
    server.set_active_clients(cfg.clients);
    server.begin();
    server.run_until(SimTime::ZERO + SimDuration::from_secs(900));
    let m = server.finish();
    assert!(
        m.throttle.acquisitions.iter().sum::<u64>() > 0,
        "run never engaged the ladder"
    );
}
