//! The discrete-event DBMS server: event dispatch over the pipeline stages.
//!
//! The server owns the simulation state — clients, per-class admission
//! pools, the broker, the event queue — and routes each popped event to the
//! stage that handles it. All compile/grant/execute *policy* lives in the
//! [`crate::stages`] modules; what remains here is dispatch plus the shared
//! machine model (CPU load factor, submission scheduling).

use crate::config::ServerConfig;
use crate::fault::{FaultKind, FaultSpec};
use crate::metrics::{ArrivalSourceMetrics, ClassMetrics, RunMetrics};
use crate::profile::{CompileProfile, WorkloadProfiles};
use crate::stages::{ClassRuntime, Query, QueryOrigin};
use crate::trace::{TraceEvent, TraceSink};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use throttledb_bufferpool::HitRateModel;
use throttledb_executor::GrantOutcome;
use throttledb_executor::GrantRequestId;
use throttledb_membroker::{Clerk, MemoryBroker, SubcomponentKind};
use throttledb_plancache::PlanCache;
use throttledb_sim::{ArrivalSampler, EventQueue, SimDuration, SimRng, SimTime};
use throttledb_workload::{ClientModel, TemplateId, Uniquifier, WorkloadMix};

/// Discrete events driving the simulation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// A client submits its next query.
    Submit { client: u32 },
    /// A cohort-compressed client submits: the retry chain's state rides in
    /// the event, so an idle cohort member costs no per-client memory.
    CohortSubmit {
        client: u32,
        attempts: u32,
        first_at: SimTime,
    },
    /// The next query of an open-loop arrival source arrives. Exactly one
    /// such event is pending per source — the self-perpetuating
    /// next-arrival sample — regardless of the modeled population size.
    Arrival { source: u32 },
    /// One compilation memory-growth step completes.
    CompileStep { query: u64 },
    /// A gateway wait reached its timeout.
    CompileTimeout { query: u64, level: usize },
    /// A grant wait reached its timeout.
    GrantTimeout { query: u64 },
    /// A query finished executing.
    ExecFinish { query: u64 },
    /// Periodic broker recalculation / housekeeping.
    BrokerTick,
    /// An installed fault's window begins (index into the fault list).
    FaultBegin { index: u32 },
    /// An installed fault's window ends; its effects are reverted.
    FaultEnd { index: u32 },
    /// One allocation increment of an active memory-leak fault.
    LeakStep { index: u32 },
}

/// One arrival decision's contribution to the streaming FNV-1a arrival
/// digest: 8 time bytes, 4 source bytes, 1 decision byte, little-endian.
/// A free function so `on_arrival`'s shed-run skip can fold into a
/// register-held accumulator without round-tripping through `self` per
/// arrival.
#[inline]
fn fold_arrival_digest(mut h: u64, at_us: u64, source: u32, code: u8) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    for byte in at_us.to_le_bytes() {
        h = (h ^ byte as u64).wrapping_mul(FNV_PRIME);
    }
    for byte in source.to_le_bytes() {
        h = (h ^ byte as u64).wrapping_mul(FNV_PRIME);
    }
    (h ^ code as u64).wrapping_mul(FNV_PRIME)
}

/// Plan-cache key: the (template, submission) pair that produced a plan.
///
/// The paper's cache is keyed on query text, and the §5.1 uniquifier makes
/// every submission's text unique, so a lookup could never hit. The engine
/// therefore draws the perturbations without rendering the text and never
/// looks the cache up; it only inserts compiled plans, keeping the cache
/// the memory consumer the broker squeezes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey(pub TemplateId, pub u64);

/// Runtime state of one open-loop arrival source.
///
/// The whole modeled population is this struct plus one pending queue
/// event: the next-arrival sample. Each source draws from its own forked
/// RNG stream, so sources never perturb each other (or the closed-loop
/// workload stream).
pub(crate) struct SourceRuntime {
    /// This source's private RNG stream.
    pub rng: SimRng,
    /// Stateful sampler over the source's arrival process.
    pub sampler: ArrivalSampler,
    /// Queries of this source currently in the pipeline.
    pub in_flight: u32,
    /// Total arrivals offered (admitted + shed).
    pub arrivals: u64,
    /// Arrivals admitted into the compile→grant→execute pipeline.
    pub admitted: u64,
    /// Arrivals shed at the door (concurrency cap or breaker).
    pub shed: u64,
    /// Admitted arrivals that ran to completion.
    pub completed: u64,
    /// Admitted arrivals that failed out of the pipeline (terminal — open
    /// systems do not retry).
    pub failed: u64,
}

/// The simulated server: builds the paper's machine, runs the client
/// population, and returns the run's metrics.
pub struct Server {
    pub(crate) config: ServerConfig,
    pub(crate) profiles: Arc<WorkloadProfiles>,
    pub(crate) broker: Arc<MemoryBroker>,
    pub(crate) compile_clerk: Clerk,
    /// One admission-pool runtime per configured workload class.
    pub(crate) classes: Vec<ClassRuntime>,
    /// Client id -> class index (precomputed, deterministic).
    pub(crate) class_by_client: Vec<usize>,
    pub(crate) plan_cache: PlanCache<TemplateId, PlanKey>,
    pub(crate) hit_model: HitRateModel,
    pub(crate) uniquifier: Uniquifier,
    pub(crate) client_model: ClientModel,
    pub(crate) rng: SimRng,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) queries: HashMap<u64, Query>,
    /// (class, policy task handle) -> query id, for resuming admitted
    /// waiters.
    pub(crate) task_to_query: HashMap<(usize, u64), u64>,
    pub(crate) grant_to_query: HashMap<(usize, GrantRequestId), u64>,
    pub(crate) next_query: u64,
    pub(crate) running_cpu_tasks: u32,
    pub(crate) metrics: RunMetrics,
    pub(crate) now: SimTime,
    /// Number of clients currently in the closed loop (scenario phases
    /// raise and lower this between windows).
    pub(crate) active_clients: u32,
    /// The order clients are activated in when only part of the population
    /// participates: interleaves classes proportionally to their shares
    /// (see [`ServerConfig::activation_order`]).
    pub(crate) activation_order: Vec<u32>,
    /// Per-client participation flag: the first `active_clients` entries of
    /// `activation_order` are active.
    pub(crate) client_active: Vec<bool>,
    /// Per-client busy flag: true while the client has a pending submission
    /// event or an in-flight query. Prevents a re-activated client from
    /// running two closed loops at once.
    pub(crate) client_busy: Vec<bool>,
    /// The active workload mix submissions are sampled from.
    pub(crate) mix: WorkloadMix,
    /// Scenario knob: scales every class's grant-pool budget at each broker
    /// tick (1.0 = the configured budgets; < 1 models a degraded pool).
    pub(crate) grant_budget_scale: f64,
    /// Recorded admission/grant events, when tracing is enabled.
    pub(crate) trace: Option<Vec<TraceEvent>>,
    /// Streaming trace consumer, when installed (see
    /// [`Server::set_trace_sink`]): every recorded event is forwarded here
    /// as it happens, so a run can be serialized without buffering.
    pub(crate) trace_sink: Option<Rc<RefCell<dyn TraceSink>>>,
    /// Running compile-memory high-water mark since the last phase boundary
    /// (trace recording only).
    pub(crate) trace_peak: u64,
    /// Reused buffer for admission-policy releases (see `fail_query` /
    /// `finish_compile`): the release path appends admitted tasks here
    /// instead of allocating a vector per completed query.
    pub(crate) scratch_resumed: Vec<u64>,
    /// Reused buffer for grant-pool admissions, same discipline.
    pub(crate) scratch_admitted: Vec<(GrantRequestId, GrantOutcome)>,
    /// Installed fault specs (see [`crate::Server::install_faults`]).
    pub(crate) faults: Vec<FaultSpec>,
    /// Per-fault active flag; effect multipliers are recomputed from the
    /// active set on every begin/end so reverting is exact.
    pub(crate) fault_active: Vec<bool>,
    /// Ballast currently allocated per memory-leak fault (freed exactly
    /// when the fault clears).
    pub(crate) leak_allocated: Vec<u64>,
    /// The leak faults' broker clerk: a `Fixed` subcomponent the broker
    /// accounts for but never squeezes. Registered lazily when faults with
    /// leaks are installed.
    pub(crate) ballast_clerk: Option<Clerk>,
    /// Dedicated RNG stream for fault-effect jitter, seeded from the run
    /// seed but independent of the workload stream — a faulted run's
    /// client behaviour stays draw-for-draw comparable to its fault-free
    /// twin until the effects themselves diverge it.
    pub(crate) fault_rng: SimRng,
    /// Product of the active compile-stall multipliers (1.0 = no stall).
    pub(crate) compile_stall: f64,
    /// CPUs currently lost to slot-loss faults.
    pub(crate) lost_slots: u32,
    /// Product of the active grant-collapse scales (1.0 = no collapse).
    pub(crate) fault_grant_scale: f64,
    /// Number of currently active fault windows (completions during any
    /// window count toward goodput-under-fault).
    pub(crate) active_faults: u32,
    /// Consecutive failed/shed attempts per client (reset on success or
    /// when the chain is abandoned); indexes the backoff exponent.
    pub(crate) retry_attempts: Vec<u32>,
    /// When each client's current retry chain first submitted (the total
    /// query deadline is measured from here).
    pub(crate) first_attempt_at: Vec<SimTime>,
    /// Runtime state of the configured open-loop arrival sources.
    pub(crate) sources: Vec<SourceRuntime>,
    /// Streaming FNV-1a digest over every arrival's admission decision
    /// (time, source, outcome code). Two runs that agree on this digest
    /// made identical shed/admit decisions at identical instants — the
    /// cheap determinism witness for runs too large to trace.
    pub(crate) arrival_digest: u64,
    /// Fenceposts of the contiguous class ranges
    /// (see [`ServerConfig::class_bounds`]); cohort-compressed runs derive
    /// class membership from these instead of `class_by_client`.
    pub(crate) class_bounds: Vec<u32>,
    /// Whether a cohort-compressed population has been started; cohort
    /// runs require the population to stay constant afterwards.
    pub(crate) cohort_started: bool,
}

impl Server {
    /// Build a server from a configuration and pre-characterized profiles.
    pub fn new(config: ServerConfig, profiles: Arc<WorkloadProfiles>) -> Self {
        config.validate();
        let broker = MemoryBroker::new(config.broker.clone());
        let compile_clerk = broker.register(SubcomponentKind::Compilation);
        let exec_clerk = broker.register(SubcomponentKind::Execution);
        let cache_clerk = broker.register(SubcomponentKind::PlanCache);
        let exec_budget = broker.target_for_kind(SubcomponentKind::Execution);
        let compile_budget = broker.target_for_kind(SubcomponentKind::Compilation);
        let total_share: f64 = config.classes.iter().map(|c| c.client_share).sum();
        let classes = config
            .classes
            .iter()
            .map(|spec| {
                ClassRuntime::new(
                    spec.clone(),
                    &config.throttle,
                    exec_budget,
                    &exec_clerk,
                    config.policy,
                    crate::stages::scaled_budget(compile_budget, spec.client_share / total_share),
                    config.breaker,
                )
            })
            .collect();
        // Cohort-compressed runs materialize no per-client state at all:
        // class membership comes from the contiguous bounds and retry state
        // rides inside the pending submit events.
        let cohort = config.cohort_compressed;
        let class_by_client = if cohort {
            Vec::new()
        } else {
            config.class_assignment()
        };
        let class_bounds = config.class_bounds();
        // Every source gets a private stream forked off a dedicated base —
        // never off the workload RNG, so configuring sources leaves the
        // closed-loop draw sequence untouched.
        let mut source_base = SimRng::seed_from_u64(config.seed ^ 0xA221_4A15_0000_0001);
        let sources = config
            .arrivals
            .iter()
            .enumerate()
            .map(|(index, src)| SourceRuntime {
                rng: source_base.fork(index as u64),
                sampler: src.process.sampler(),
                in_flight: 0,
                arrivals: 0,
                admitted: 0,
                shed: 0,
                completed: 0,
                failed: 0,
            })
            .collect();
        let plan_cache = PlanCache::new(256 << 20, Some(cache_clerk));
        let mut metrics = RunMetrics::new(
            config.slice,
            SimTime::ZERO + config.warmup,
            config.policy.levels(&config.throttle),
        );
        metrics.run_duration = config.duration;
        let mut client_model = config.client_model;
        client_model.oltp_fraction = config.oltp_fraction;
        let clients = if cohort { 0 } else { config.clients as usize };
        Server {
            rng: SimRng::seed_from_u64(config.seed),
            profiles,
            broker,
            compile_clerk,
            classes,
            class_by_client,
            plan_cache,
            hit_model: HitRateModel::default(),
            uniquifier: Uniquifier::new(),
            client_model,
            queue: EventQueue::new(),
            queries: HashMap::new(),
            task_to_query: HashMap::new(),
            grant_to_query: HashMap::new(),
            next_query: 0,
            running_cpu_tasks: 0,
            metrics,
            now: SimTime::ZERO,
            active_clients: 0,
            activation_order: if cohort {
                Vec::new()
            } else {
                config.activation_order()
            },
            client_active: vec![false; clients],
            client_busy: vec![false; clients],
            mix: WorkloadMix::paper_default(config.oltp_fraction),
            grant_budget_scale: 1.0,
            trace: None,
            trace_sink: None,
            trace_peak: 0,
            scratch_resumed: Vec::new(),
            scratch_admitted: Vec::new(),
            faults: Vec::new(),
            fault_active: Vec::new(),
            leak_allocated: Vec::new(),
            ballast_clerk: None,
            // Independent stream: derived from the run seed, but no draw is
            // taken from the workload RNG.
            fault_rng: SimRng::seed_from_u64(config.seed ^ 0xC4A0_55EED_u64),
            compile_stall: 1.0,
            lost_slots: 0,
            fault_grant_scale: 1.0,
            active_faults: 0,
            retry_attempts: vec![0; clients],
            first_attempt_at: vec![SimTime::ZERO; clients],
            sources,
            // FNV-1a offset basis: the empty-stream digest.
            arrival_digest: 0xcbf2_9ce4_8422_2325,
            class_bounds,
            cohort_started: false,
            config,
        }
    }

    /// Run the simulation to completion and return the metrics.
    pub fn run(mut self) -> RunMetrics {
        self.set_active_clients(self.config.clients);
        self.begin();
        self.run_until(SimTime::ZERO + self.config.duration);
        self.finish()
    }

    // --- scenario runner hooks --------------------------------------------
    //
    // `run()` is built from these four public hooks so an external driver
    // (the `throttledb-scenario` runner) can interleave phase mutations with
    // simulation windows: begin once, then alternate `set_*` mutators with
    // `run_until` at phase boundaries, and `finish` at the end.

    /// Start the server's housekeeping (the periodic broker tick) and the
    /// open-loop arrival sources. Call once, after configuring the initial
    /// client population.
    pub fn begin(&mut self) {
        self.queue.schedule(self.now, Event::BrokerTick);
        let end = SimTime::ZERO + self.config.duration;
        for (index, src) in self.sources.iter_mut().enumerate() {
            let gap = src.sampler.next_gap(&mut src.rng, self.now);
            let at = self.now + gap;
            if at < end {
                self.queue.schedule(
                    at,
                    Event::Arrival {
                        source: index as u32,
                    },
                );
            }
        }
    }

    /// Advance the simulation, processing every event scheduled strictly
    /// before `until`, then park the clock at `until`. Events at or beyond
    /// the boundary stay queued, so a later call picks up exactly where
    /// this one stopped.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(ev) = self.queue.pop_before(until) {
            self.now = ev.at;
            self.dispatch(ev.payload, until);
        }
        self.now = self.now.max(until);
    }

    /// Route one popped event to its handler; `until` is the bound of the
    /// `run_until` window being processed.
    fn dispatch(&mut self, event: Event, until: SimTime) {
        match event {
            Event::Submit { client } => self.on_submit(client),
            Event::CohortSubmit {
                client,
                attempts,
                first_at,
            } => self.on_cohort_submit(client, attempts, first_at),
            Event::Arrival { source } => self.on_arrival(source, until),
            Event::CompileStep { query } => self.on_compile_step(query),
            Event::CompileTimeout { query, level } => self.on_compile_timeout(query, level),
            Event::GrantTimeout { query } => self.on_grant_timeout(query),
            Event::ExecFinish { query } => self.on_exec_finish(query),
            Event::BrokerTick => self.on_broker_tick(),
            Event::FaultBegin { index } => self.on_fault_begin(index),
            Event::FaultEnd { index } => self.on_fault_end(index),
            Event::LeakStep { index } => self.on_leak_step(index),
        }
    }

    /// Resize the active client population to `n` (capped at the configured
    /// maximum). Clients are (de)activated in the proportional-interleave
    /// order of [`ServerConfig::activation_order`], so a partial population
    /// covers every workload class by share instead of starving the later
    /// classes. New clients submit their first query within the next
    /// simulated minute; removed clients leave the closed loop as soon as
    /// their in-flight work completes.
    pub fn set_active_clients(&mut self, n: u32) {
        if self.config.cohort_compressed {
            self.set_active_cohort(n);
            return;
        }
        let n = n.min(self.config.clients) as usize;
        for idx in 0..self.activation_order.len() {
            let client = self.activation_order[idx] as usize;
            let want = idx < n;
            if want && !self.client_active[client] {
                self.client_active[client] = true;
                if !self.client_busy[client] {
                    let offset = SimDuration::from_millis(self.rng.uniform_u64(0, 60_000));
                    self.queue.schedule(
                        self.now + offset,
                        Event::Submit {
                            client: client as u32,
                        },
                    );
                    self.client_busy[client] = true;
                }
            } else if !want && self.client_active[client] {
                self.client_active[client] = false;
            }
        }
        self.active_clients = n as u32;
    }

    /// Start (or re-assert) a cohort-compressed population of `n` clients.
    ///
    /// The activation order and the per-client first-submission offsets are
    /// drawn exactly as the materialized path draws them — same RNG, same
    /// sequence — then the order is dropped: what remains is one pending
    /// [`Event::CohortSubmit`] per active client. Cohort populations are
    /// constant: repeating the same `n` is a no-op, changing it panics
    /// (resizing would need the per-client participation vectors the mode
    /// exists to avoid).
    fn set_active_cohort(&mut self, n: u32) {
        let n = n.min(self.config.clients);
        if self.cohort_started {
            assert_eq!(
                n, self.active_clients,
                "cohort-compressed runs require a constant population"
            );
            return;
        }
        self.cohort_started = true;
        let order = self.config.activation_order();
        for &client in order.iter().take(n as usize) {
            let offset = SimDuration::from_millis(self.rng.uniform_u64(0, 60_000));
            self.queue.schedule(
                self.now + offset,
                Event::CohortSubmit {
                    client,
                    attempts: 0,
                    first_at: SimTime::ZERO,
                },
            );
        }
        self.active_clients = n;
    }

    /// Schedule a cohort client's next submission, bounded by the run's
    /// end exactly like [`Server::schedule_submit`] (cohort populations are
    /// constant, so the materialized path's `client_active` check is
    /// trivially true).
    pub(crate) fn schedule_cohort_submit(
        &mut self,
        client: u32,
        attempts: u32,
        first_at: SimTime,
        delay: SimDuration,
    ) {
        let at = self.now + delay;
        if at < SimTime::ZERO + self.config.duration {
            self.queue.schedule(
                at,
                Event::CohortSubmit {
                    client,
                    attempts,
                    first_at,
                },
            );
        }
    }

    /// Dispatch a cohort client's submission: a fresh chain (attempts = 0)
    /// starts its total-deadline clock now, mirroring the materialized
    /// path's `first_attempt_at` bookkeeping.
    fn on_cohort_submit(&mut self, client: u32, attempts: u32, first_at: SimTime) {
        let first_at = if attempts == 0 { self.now } else { first_at };
        self.submit_query(QueryOrigin::Cohort {
            client,
            attempts,
            first_at,
        });
    }

    /// One open-loop arrival: decide admission, fold the decision into the
    /// streaming digest, and sample the source's next arrival.
    ///
    /// The concurrency cap is checked *before* any query content is drawn,
    /// so a shed costs a digest fold and one gap sample. While the source
    /// stays at its cap, every arrival it samples strictly before the queue
    /// head, `until` and the run's end would pop straight back off the
    /// queue as another shed, since nothing else fires in between to free
    /// a slot. Those sheds are dispatched here in one tight loop, and the
    /// queue records their schedule/pop round trips in one call, so
    /// sequence numbers, `events_dispatched` and the peak depth match the
    /// one-event-per-arrival schedule exactly. The first arrival outside
    /// the bound is scheduled normally.
    fn on_arrival(&mut self, source: u32, until: SimTime) {
        self.arrival_decision(source);
        let end = SimTime::ZERO + self.config.duration;
        let s = source as usize;
        let src = &mut self.sources[s];
        let mut at = self.now + src.sampler.next_gap(&mut src.rng, self.now);
        if src.in_flight >= self.config.arrivals[s].max_in_flight {
            let mut bound = until.min(end);
            if let Some(head) = self.queue.peek_time() {
                bound = bound.min(head);
            }
            let mut digest = self.arrival_digest;
            let mut skipped = 0u64;
            let mut last = self.now;
            while at < bound {
                digest = fold_arrival_digest(digest, at.as_micros(), source, 1);
                skipped += 1;
                last = at;
                at = at + src.sampler.next_gap(&mut src.rng, at);
            }
            src.arrivals += skipped;
            src.shed += skipped;
            self.arrival_digest = digest;
            self.now = last;
            self.queue.skip_round_trips(skipped, last);
        }
        if at < end {
            self.queue.schedule(at, Event::Arrival { source });
        }
    }

    /// Decide one arrival's admission at `self.now`, update the source's
    /// counters and fold the decision into the streaming digest.
    fn arrival_decision(&mut self, source: u32) {
        let s = source as usize;
        self.sources[s].arrivals += 1;
        let code: u8 = if self.sources[s].in_flight >= self.config.arrivals[s].max_in_flight {
            self.sources[s].shed += 1;
            1 // shed at the concurrency cap, before any draws
        } else if self.submit_query(QueryOrigin::Source { source }) {
            self.sources[s].in_flight += 1;
            self.sources[s].admitted += 1;
            0 // admitted into the pipeline
        } else {
            self.sources[s].shed += 1;
            2 // shed by the class breaker
        };
        self.fold_arrival(self.now, source, code);
    }

    /// Fold one arrival decision into the streaming FNV-1a digest.
    fn fold_arrival(&mut self, at: SimTime, source: u32, code: u8) {
        self.arrival_digest =
            fold_arrival_digest(self.arrival_digest, at.as_micros(), source, code);
    }

    /// Replace the workload mix submissions are sampled from. TPC-H-like
    /// weight is only effective when the server's profiles were
    /// characterized with the TPC-H-like templates
    /// (see [`WorkloadProfiles::characterize_full`]).
    pub fn set_workload_mix(&mut self, mix: WorkloadMix) {
        mix.validate();
        self.mix = mix;
    }

    /// Override the mean think time of the client population (burst phases
    /// shorten it; recovery phases restore the configured value).
    pub fn set_mean_think_time(&mut self, mean: SimDuration) {
        assert!(!mean.is_zero(), "mean think time must be positive");
        self.client_model.mean_think_time = mean;
    }

    /// Scale every class's execution-grant budget (1.0 = configured
    /// budgets). Takes effect at the next broker tick, within one
    /// `broker_tick` interval. Scenario phases use this to model a
    /// degrading resource pool.
    pub fn set_grant_budget_scale(&mut self, scale: f64) {
        assert!(scale > 0.0, "grant budget scale must be positive");
        self.grant_budget_scale = scale;
    }

    /// Consume the server and return the run's metrics.
    pub fn finish(self) -> RunMetrics {
        self.finalize_metrics()
    }

    // --- fault injection --------------------------------------------------

    /// Install a set of timed faults (see [`FaultSpec`]). Call once, before
    /// [`Server::begin`]: each fault becomes a pair of begin/end events on
    /// the event queue, so injection is part of the deterministic event order and
    /// replays byte-identically. Faults whose windows extend past the run
    /// simply never clear (their effects last to the end).
    pub fn install_faults(&mut self, faults: &[FaultSpec]) {
        if faults.is_empty() {
            return;
        }
        assert!(self.faults.is_empty(), "faults already installed");
        for (index, fault) in faults.iter().enumerate() {
            fault.validate();
            assert!(
                !(self.config.cohort_compressed
                    && matches!(fault.kind, FaultKind::ClientSurge { .. })),
                "client-surge faults resize the population, which cohort-compressed runs forbid"
            );
            self.faults.push(*fault);
            self.fault_active.push(false);
            self.leak_allocated.push(0);
            self.queue.schedule(
                fault.start,
                Event::FaultBegin {
                    index: index as u32,
                },
            );
            self.queue.schedule(
                fault.end(),
                Event::FaultEnd {
                    index: index as u32,
                },
            );
        }
        if self
            .faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::MemoryLeak { .. }))
            && self.ballast_clerk.is_none()
        {
            // Fixed: the broker accounts for the ballast (available_bytes
            // shrinks, pressure rises) but never asks it to shrink —
            // exactly how a leak behaves.
            self.ballast_clerk = Some(self.broker.register(SubcomponentKind::Fixed));
        }
    }

    fn on_fault_begin(&mut self, index: u32) {
        let i = index as usize;
        let spec = self.faults[i];
        self.fault_active[i] = true;
        self.active_faults += 1;
        self.trace_push(TraceEvent::FaultInjected {
            at: self.now,
            fault: index,
        });
        self.recompute_fault_effects();
        match spec.kind {
            FaultKind::MemoryLeak { .. } => {
                self.queue.schedule(self.now, Event::LeakStep { index });
            }
            FaultKind::ClientSurge { extra_clients } => {
                let n = self.active_clients.saturating_add(extra_clients);
                self.set_active_clients(n);
            }
            FaultKind::CompileStall { .. }
            | FaultKind::SlotLoss { .. }
            | FaultKind::GrantCollapse { .. } => {}
        }
    }

    fn on_fault_end(&mut self, index: u32) {
        let i = index as usize;
        if !self.fault_active[i] {
            return;
        }
        let spec = self.faults[i];
        self.fault_active[i] = false;
        self.active_faults = self.active_faults.saturating_sub(1);
        self.trace_push(TraceEvent::FaultCleared {
            at: self.now,
            fault: index,
        });
        self.recompute_fault_effects();
        match spec.kind {
            FaultKind::MemoryLeak { .. } => {
                let leaked = std::mem::take(&mut self.leak_allocated[i]);
                if leaked > 0 {
                    if let Some(clerk) = self.ballast_clerk.as_ref() {
                        clerk.free(leaked);
                    }
                }
            }
            FaultKind::ClientSurge { extra_clients } => {
                let n = self.active_clients.saturating_sub(extra_clients);
                self.set_active_clients(n);
            }
            FaultKind::CompileStall { .. }
            | FaultKind::SlotLoss { .. }
            | FaultKind::GrantCollapse { .. } => {}
        }
    }

    fn on_leak_step(&mut self, index: u32) {
        let i = index as usize;
        if !self.fault_active[i] {
            return;
        }
        let spec = self.faults[i];
        let FaultKind::MemoryLeak { total_bytes, steps } = spec.kind else {
            return;
        };
        let per_step = (total_bytes / steps as u64).max(1);
        // Jitter each increment from the dedicated fault stream; the ramp
        // stays deterministic and never overshoots the configured total.
        let jittered = (per_step as f64 * self.fault_rng.jitter(0.25)) as u64;
        let remaining = total_bytes.saturating_sub(self.leak_allocated[i]);
        let amount = jittered.clamp(1, remaining.max(1)).min(remaining);
        if amount > 0 {
            if let Some(clerk) = self.ballast_clerk.as_ref() {
                clerk.allocate(amount);
            }
            self.leak_allocated[i] += amount;
        }
        if self.leak_allocated[i] < total_bytes {
            let interval =
                SimDuration::from_micros((spec.duration.as_micros() / steps as u64).max(1_000_000));
            let next = self.now + interval;
            if next < spec.end() {
                self.queue.schedule(next, Event::LeakStep { index });
            }
        }
    }

    /// Recompute the effect multipliers from the set of currently active
    /// faults. Doing this from scratch on every begin/end keeps reverting
    /// exact (no drifting inverse floating-point updates).
    fn recompute_fault_effects(&mut self) {
        let mut stall = 1.0;
        let mut lost: u32 = 0;
        let mut grant = 1.0;
        for (i, fault) in self.faults.iter().enumerate() {
            if !self.fault_active[i] {
                continue;
            }
            match fault.kind {
                FaultKind::CompileStall { multiplier } => stall *= multiplier,
                FaultKind::SlotLoss { slots } => lost = lost.saturating_add(slots),
                FaultKind::GrantCollapse { scale } => grant *= scale,
                FaultKind::MemoryLeak { .. } | FaultKind::ClientSurge { .. } => {}
            }
        }
        self.compile_stall = stall;
        self.lost_slots = lost.min(self.config.cpus - 1);
        self.fault_grant_scale = grant;
    }

    // --- observers --------------------------------------------------------

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The metrics accumulated so far (scenario phase reports snapshot
    /// these at boundaries).
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Total queries submitted so far.
    pub fn queries_submitted(&self) -> u64 {
        self.next_query
    }

    /// Total open-loop arrivals offered so far, across every source
    /// (admitted + shed). Scenario phase reports snapshot this at
    /// boundaries.
    pub fn arrivals_offered(&self) -> u64 {
        self.sources.iter().map(|s| s.arrivals).sum()
    }

    /// The number of clients currently in the closed loop.
    pub fn active_clients(&self) -> u32 {
        self.active_clients
    }

    /// Total simulation events dispatched so far — the sweep harness
    /// divides this by wall time for an events/sec throughput figure.
    pub fn events_dispatched(&self) -> u64 {
        self.queue.dispatched()
    }

    /// The most events that were ever pending at once in the event queue.
    pub fn queue_peak_depth(&self) -> usize {
        self.queue.peak_len()
    }

    // --- trace recording --------------------------------------------------

    /// Start recording the admission/grant event stream
    /// (see [`TraceEvent`]).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// Install a streaming consumer that observes every recorded event as
    /// it happens (see [`TraceSink`]). A sink works with or without the
    /// buffered recording of [`Server::enable_trace`]: the v2 binary
    /// writer installs only a sink so multi-million-event runs serialize
    /// at O(1) memory, while tests install both to prove the two surfaces
    /// see the same stream.
    pub fn set_trace_sink(&mut self, sink: Rc<RefCell<dyn TraceSink>>) {
        self.trace_sink = Some(sink);
    }

    /// Take the recorded events, leaving recording enabled but empty.
    /// Returns an empty vector if tracing was never enabled.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        match self.trace.as_mut() {
            Some(events) => std::mem::take(events),
            None => Vec::new(),
        }
    }

    /// Record a phase boundary: emits a [`TraceEvent::PhaseStart`] and
    /// resets the compile-memory high-water mark that
    /// [`TraceEvent::CompilePeak`] events are measured against.
    pub fn trace_phase_start(&mut self, name: &str, clients: u32) {
        self.trace_peak = 0;
        let at = self.now;
        self.trace_push(TraceEvent::PhaseStart {
            at,
            name: name.to_string(),
            clients,
        });
    }

    /// Record the end-of-run marker. The scenario runner calls this after
    /// the last phase so buffered and streaming consumers both observe the
    /// final [`TraceEvent::End`] at the run's closing timestamp.
    pub fn trace_end(&mut self) {
        let at = self.now;
        self.trace_push(TraceEvent::End { at });
    }

    /// Whether any trace consumer (buffered vector or streaming sink) is
    /// attached. Gates the derived events — e.g. [`TraceEvent::CompilePeak`]
    /// — that only exist for trace readers.
    fn trace_enabled(&self) -> bool {
        self.trace.is_some() || self.trace_sink.is_some()
    }

    /// Hand `event` to every attached trace consumer: the streaming sink
    /// first (it observes the event by reference), then the buffered
    /// vector. No consumers attached means the event is dropped.
    pub(crate) fn trace_push(&mut self, event: TraceEvent) {
        if let Some(sink) = self.trace_sink.as_ref() {
            sink.borrow_mut().event(&event);
        }
        if let Some(events) = self.trace.as_mut() {
            events.push(event);
        }
    }

    /// Record the aggregate compile-memory gauge, plus a trace peak event
    /// when it reaches a new high since the last phase boundary. Every
    /// compile-memory sample must flow through here so the gauge and the
    /// trace agree on per-phase peaks.
    pub(crate) fn record_compile_gauge(&mut self) {
        let used = self.compile_clerk.used_bytes();
        self.metrics.compile_memory.record(self.now, used);
        if self.trace_enabled() && used > self.trace_peak {
            self.trace_peak = used;
            self.trace_push(TraceEvent::CompilePeak {
                at: self.now,
                bytes: used,
            });
        }
    }

    // --- shared machine model ---------------------------------------------

    /// The class index of `client`. Materialized populations read the
    /// precomputed per-client vector; cohort-compressed ones derive it from
    /// the contiguous class bounds (same assignment, no per-client memory).
    pub(crate) fn class_of(&self, client: u32) -> usize {
        if self.config.cohort_compressed {
            self.class_bounds.partition_point(|&b| b <= client) - 1
        } else {
            self.class_by_client[client as usize]
        }
    }

    pub(crate) fn schedule_submit(&mut self, client: u32, delay: SimDuration) {
        let at = self.now + delay;
        // Strict bound to match run_until's exclusive boundary: an event at
        // exactly `duration` would never be popped.
        if self.client_active[client as usize] && at < SimTime::ZERO + self.config.duration {
            self.queue.schedule(at, Event::Submit { client });
            self.client_busy[client as usize] = true;
        } else {
            // The client leaves the closed loop (deactivated by a scenario
            // phase, or the run is over); a later phase may re-admit it.
            self.client_busy[client as usize] = false;
        }
    }

    pub(crate) fn compile_step_duration(&mut self, profile: &CompileProfile) -> SimDuration {
        let per_step = profile.compile_cpu_seconds / self.config.compile_steps as f64;
        // An active compile-stall fault multiplies the planner's service
        // time (self.compile_stall is 1.0 otherwise).
        SimDuration::from_secs_f64((per_step * self.load_factor() * self.compile_stall).max(0.001))
    }

    pub(crate) fn load_factor(&self) -> f64 {
        // Slot-loss faults shrink the effective machine; at least one CPU
        // always survives (see recompute_fault_effects).
        let cpus = (self.config.cpus - self.lost_slots).max(1);
        (self.running_cpu_tasks as f64 / cpus as f64).max(1.0)
    }

    /// A query's attempt failed or was shed: route the setback to its
    /// origin. Closed-loop clients (materialized or cohort-compressed)
    /// either schedule the capped exponential-backoff retry or — when the
    /// retry budget or the total query deadline is exhausted — abandon the
    /// chain and think about fresh work. The two closed-loop paths make
    /// draw-for-draw identical RNG decisions; only where the retry state
    /// lives differs. Open-loop arrivals never retry: the source's
    /// in-flight slot is simply released.
    pub(crate) fn reschedule_after_setback(&mut self, origin: QueryOrigin) {
        match origin {
            QueryOrigin::Client { client } => {
                let idx = client as usize;
                self.retry_attempts[idx] = self.retry_attempts[idx].saturating_add(1);
                let attempts = self.retry_attempts[idx];
                let over_budget =
                    self.config.retry_budget > 0 && attempts > self.config.retry_budget;
                let over_deadline = self
                    .config
                    .query_deadline
                    .is_some_and(|d| self.now >= self.first_attempt_at[idx] + d);
                if over_budget || over_deadline {
                    self.metrics.retries_abandoned += 1;
                    self.retry_attempts[idx] = 0;
                    let think = self.client_model.think_time(&mut self.rng);
                    self.schedule_submit(client, think);
                } else {
                    let delay = self.client_model.retry_delay(&mut self.rng, attempts);
                    self.schedule_submit(client, delay);
                }
            }
            QueryOrigin::Cohort {
                client,
                attempts,
                first_at,
            } => {
                let attempts = attempts.saturating_add(1);
                let over_budget =
                    self.config.retry_budget > 0 && attempts > self.config.retry_budget;
                let over_deadline = self
                    .config
                    .query_deadline
                    .is_some_and(|d| self.now >= first_at + d);
                if over_budget || over_deadline {
                    self.metrics.retries_abandoned += 1;
                    let think = self.client_model.think_time(&mut self.rng);
                    self.schedule_cohort_submit(client, 0, SimTime::ZERO, think);
                } else {
                    let delay = self.client_model.retry_delay(&mut self.rng, attempts);
                    self.schedule_cohort_submit(client, attempts, first_at, delay);
                }
            }
            QueryOrigin::Source { source } => {
                let src = &mut self.sources[source as usize];
                src.in_flight = src.in_flight.saturating_sub(1);
                src.failed += 1;
            }
        }
    }

    /// Consult the class breaker (if enabled) about an arrival estimated at
    /// `bytes` of compilation memory, tracing any state transition the
    /// consultation causes.
    pub(crate) fn breaker_admit(
        &mut self,
        class: usize,
        bytes: u64,
    ) -> throttledb_governor::AdmissionDecision {
        let now = self.now;
        let Some(breaker) = self.classes[class].breaker.as_mut() else {
            return throttledb_governor::AdmissionDecision::Admit { units: 1 };
        };
        let before = breaker.state();
        let decision = breaker.admit(now, bytes);
        let after = breaker.state();
        if after != before {
            self.trace_push(TraceEvent::BreakerTransition {
                at: now,
                class,
                state: after,
            });
        }
        decision
    }

    /// Feed an outcome to the class breaker (if enabled), tracing any state
    /// transition it causes.
    pub(crate) fn breaker_record(&mut self, class: usize, success: bool) {
        let now = self.now;
        let Some(breaker) = self.classes[class].breaker.as_mut() else {
            return;
        };
        let before = breaker.state();
        if success {
            breaker.record_success(now);
        } else {
            breaker.record_failure(now);
        }
        let after = breaker.state();
        if after != before {
            self.trace_push(TraceEvent::BreakerTransition {
                at: now,
                class,
                state: after,
            });
        }
    }

    /// Fold per-class results into the run metrics.
    fn finalize_metrics(mut self) -> RunMetrics {
        self.metrics.events_dispatched = self.queue.dispatched();
        self.metrics.peak_queue_depth = self.queue.peak_len();
        let mut class_clients = vec![0u32; self.classes.len()];
        if self.config.cohort_compressed {
            for (idx, count) in class_clients.iter_mut().enumerate() {
                *count = self.class_bounds[idx + 1] - self.class_bounds[idx];
            }
        } else {
            for class in &self.class_by_client {
                class_clients[*class] += 1;
            }
        }
        for (src, spec) in self.sources.iter().zip(&self.config.arrivals) {
            self.metrics.arrivals += src.arrivals;
            self.metrics.arrivals_admitted += src.admitted;
            self.metrics.arrivals_shed += src.shed;
            self.metrics.arrival_sources.push(ArrivalSourceMetrics {
                name: spec.name.clone(),
                modeled_clients: spec.modeled_clients,
                arrivals: src.arrivals,
                admitted: src.admitted,
                shed: src.shed,
                completed: src.completed,
                failed: src.failed,
            });
        }
        self.metrics.arrival_digest = self.arrival_digest;
        for (idx, class) in self.classes.iter().enumerate() {
            self.metrics.throttle.merge(class.policy.stats());
            let (shed, transitions, brownout) = class
                .breaker
                .as_ref()
                .map(|b| (b.shed(), b.transitions(), b.brownout_admits()))
                .unwrap_or((0, 0, 0));
            self.metrics.breaker_transitions += transitions;
            self.metrics.brownout_admits += brownout;
            self.metrics.classes.push(ClassMetrics {
                name: class.spec.name.clone(),
                clients: class_clients[idx],
                completed: class.completed,
                completed_after_warmup: class.completed_after_warmup,
                failed: class.failed,
                best_effort_plans: class.best_effort_plans,
                shed,
                breaker_transitions: transitions,
                throttle: class.policy.stats().clone(),
                grants: class.grants.pool_stats(),
            });
        }
        // Fault windows, clamped to the observation window; a fault that
        // never began contributes nothing.
        let end = SimTime::ZERO + self.config.duration;
        self.metrics.fault_windows = self
            .faults
            .iter()
            .filter(|f| f.start < end)
            .map(|f| (f.start, f.end().min(end)))
            .collect();
        self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiles() -> Arc<WorkloadProfiles> {
        Arc::new(WorkloadProfiles::characterize_sales(&ServerConfig::quick(
            8, true,
        )))
    }

    #[test]
    fn quick_run_completes_queries_and_is_deterministic() {
        let profiles = profiles();
        let run = |seed: u64| {
            let mut cfg = ServerConfig::quick(8, true);
            cfg.seed = seed;
            Server::new(cfg, profiles.clone()).run()
        };
        let a = run(1);
        assert!(
            a.completed.total() > 10,
            "an hour with 8 clients should complete queries, got {}",
            a.completed.total()
        );
        let b = run(1);
        assert_eq!(
            a.completed.total(),
            b.completed.total(),
            "same seed, same run"
        );
        let c = run(2);
        // A different seed gives a different (but same ballpark) run.
        assert!(c.completed.total() > 10);
    }

    #[test]
    fn throttled_run_engages_the_gateways() {
        let profiles = profiles();
        let metrics = Server::new(ServerConfig::quick(16, true), profiles).run();
        assert!(
            metrics.throttle.acquisitions.iter().sum::<u64>() > 0,
            "SALES compilations must acquire gateways"
        );
        assert!(metrics.compile_memory.max_value() > 100 << 20);
    }

    #[test]
    fn unthrottled_run_uses_more_compile_memory_at_peak() {
        let profiles = profiles();
        let throttled = Server::new(ServerConfig::quick(16, true), profiles.clone()).run();
        let unthrottled = Server::new(ServerConfig::quick(16, false), profiles).run();
        assert!(
            unthrottled.compile_memory.max_value() > throttled.compile_memory.max_value(),
            "throttling must cap concurrent compilation memory: {} vs {}",
            unthrottled.compile_memory.max_value(),
            throttled.compile_memory.max_value()
        );
        assert!(throttled.throttle.compilations_started >= throttled.completed.total());
    }

    #[test]
    fn single_class_run_reports_one_class_covering_everything() {
        let profiles = profiles();
        let metrics = Server::new(ServerConfig::quick(8, true), profiles).run();
        assert_eq!(metrics.classes.len(), 1);
        let class = &metrics.classes[0];
        assert_eq!(class.name, "default");
        assert_eq!(class.clients, 8);
        assert_eq!(class.completed, metrics.completed.total());
        assert_eq!(class.completed_after_warmup, metrics.completed_after_warmup);
        assert_eq!(class.throttle, metrics.throttle);
    }

    #[test]
    fn multi_class_run_is_deterministic_and_covers_all_classes() {
        let profiles = profiles();
        let run = || {
            let cfg = ServerConfig::quick(16, true).with_standard_classes();
            Server::new(cfg, profiles.clone()).run()
        };
        let a = run();
        assert_eq!(a.classes.len(), 3);
        let names: Vec<&str> = a.classes.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["default", "adhoc", "report"]);
        assert_eq!(a.classes.iter().map(|c| c.clients).sum::<u32>(), 16);
        // Every class makes progress...
        for class in &a.classes {
            assert!(class.completed > 0, "class {} idle", class.name);
        }
        // ...and the per-class counters add up to the run totals.
        assert_eq!(
            a.classes.iter().map(|c| c.completed).sum::<u64>(),
            a.completed.total()
        );
        assert_eq!(
            a.classes.iter().map(|c| c.failed).sum::<u64>(),
            a.failed.total()
        );
        // Seed-stable: an identical run reproduces the same per-class counts.
        let b = run();
        for (x, y) in a.classes.iter().zip(b.classes.iter()) {
            assert_eq!(x.completed, y.completed, "class {} not seed-stable", x.name);
            assert_eq!(x.failed, y.failed);
        }
    }

    #[test]
    fn partial_population_covers_every_class() {
        // A scenario phase running far fewer clients than the configured
        // maximum must still exercise every workload class (activation is
        // share-proportional, not a contiguous prefix that would starve
        // the later classes).
        let profiles = profiles();
        let cfg = ServerConfig::quick(18, true).with_standard_classes();
        let mut server = Server::new(cfg, profiles);
        server.set_active_clients(6);
        server.begin();
        server.run_until(SimTime::ZERO + SimDuration::from_secs(3600));
        let metrics = server.finish();
        assert_eq!(metrics.classes.len(), 3);
        for class in &metrics.classes {
            assert!(
                class.completed > 0,
                "class {} starved with a partial population",
                class.name
            );
        }
    }

    #[test]
    fn class_ladders_throttle_independently() {
        let profiles = profiles();
        let cfg = ServerConfig::quick(16, true).with_standard_classes();
        let metrics = Server::new(cfg, profiles).run();
        let adhoc = &metrics.classes[1];
        // The adhoc ladder's thresholds are halved, so its compilations
        // acquire gateways at sizes the default class would wave through.
        assert!(
            adhoc.throttle.acquisitions.iter().sum::<u64>() > 0,
            "adhoc class never engaged its ladder"
        );
    }

    #[test]
    fn every_policy_runs_the_quick_config_deterministically() {
        let profiles = profiles();
        for kind in crate::config::PolicyKind::all() {
            let run = || {
                let mut cfg = ServerConfig::quick(12, true);
                cfg.policy = kind;
                Server::new(cfg, profiles.clone()).run()
            };
            let a = run();
            assert!(
                a.completed.total() > 10,
                "policy {} should complete queries, got {}",
                kind.name(),
                a.completed.total()
            );
            assert_eq!(
                a.throttle.levels(),
                kind.levels(&ServerConfig::quick(12, true).throttle),
                "policy {} reports the wrong stats shape",
                kind.name()
            );
            assert!(
                a.throttle.compilations_started > 0,
                "policy {} never saw a compilation",
                kind.name()
            );
            let b = run();
            assert_eq!(
                a.completed.total(),
                b.completed.total(),
                "policy {} not seed-stable",
                kind.name()
            );
            assert_eq!(a.throttle, b.throttle, "policy {} stats drift", kind.name());
        }
    }

    use crate::config::ArrivalSourceConfig;

    fn poisson_source(rate: f64, class: usize, max_in_flight: u32) -> ArrivalSourceConfig {
        ArrivalSourceConfig {
            name: "web".to_string(),
            process: throttledb_sim::ArrivalProcess::Poisson { rate_per_sec: rate },
            class,
            max_in_flight,
            modeled_clients: 1_000_000,
        }
    }

    #[test]
    fn cohort_compressed_run_is_trace_identical_to_materialized() {
        // The tentpole's equivalence claim at the engine level: the same
        // population run cohort-compressed (no per-client vectors, retry
        // state in the events) produces the exact same event stream as the
        // materialized run — including under retry budgets and deadlines,
        // which exercise every cohort state-machine branch.
        let profiles = profiles();
        let run = |cohort: bool| {
            let mut cfg = ServerConfig::quick(12, true).with_standard_classes();
            cfg.cohort_compressed = cohort;
            cfg.retry_budget = 3;
            cfg.query_deadline = Some(SimDuration::from_secs(1800));
            cfg.breaker = throttledb_governor::BreakerConfig {
                enabled: true,
                ..Default::default()
            };
            let mut server = Server::new(cfg.clone(), profiles.clone());
            server.enable_trace();
            server.set_active_clients(cfg.clients);
            server.begin();
            server.run_until(SimTime::ZERO + cfg.duration);
            let trace = server.take_trace();
            (trace, server.finish())
        };
        let (mat_trace, mat) = run(false);
        let (coh_trace, coh) = run(true);
        assert!(mat.completed.total() > 10, "run too idle to prove anything");
        assert_eq!(
            mat_trace, coh_trace,
            "cohort-compressed trace diverged from the materialized population"
        );
        assert_eq!(mat.completed.total(), coh.completed.total());
        assert_eq!(mat.total_failures(), coh.total_failures());
        assert_eq!(mat.retries_abandoned, coh.retries_abandoned);
        // Per-class client counts come from the bounds in cohort mode and
        // from the materialized vector otherwise; they must agree.
        for (m, c) in mat.classes.iter().zip(coh.classes.iter()) {
            assert_eq!(m.clients, c.clients, "class {} population", m.name);
            assert_eq!(m.completed, c.completed, "class {} completions", m.name);
        }
    }

    #[test]
    fn cohort_population_must_stay_constant() {
        let profiles = profiles();
        let mut cfg = ServerConfig::quick(8, true);
        cfg.cohort_compressed = true;
        let mut server = Server::new(cfg, profiles);
        server.set_active_clients(8);
        server.set_active_clients(8); // same n: no-op
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            server.set_active_clients(4)
        }));
        assert!(result.is_err(), "resizing a cohort population must panic");
    }

    #[test]
    fn open_loop_source_runs_without_clients_and_accounts_exactly() {
        let profiles = profiles();
        let run = || {
            let mut cfg = ServerConfig::quick(0, true);
            cfg.arrivals = vec![poisson_source(5.0, 0, 8)];
            Server::new(cfg, profiles.clone()).run()
        };
        let a = run();
        assert!(
            a.arrivals > 1_000,
            "an hour at 5/s should offer thousands of arrivals, got {}",
            a.arrivals
        );
        assert_eq!(a.arrivals, a.arrivals_admitted + a.arrivals_shed);
        assert_eq!(a.arrival_sources.len(), 1);
        let s = &a.arrival_sources[0];
        assert_eq!(s.arrivals, a.arrivals);
        assert!(s.completed > 0, "no arrival ever completed");
        assert!(
            s.admitted >= s.completed + s.failed,
            "more terminal outcomes than admissions"
        );
        assert_ne!(
            a.arrival_digest, 0xcbf2_9ce4_8422_2325,
            "digest never folded an arrival"
        );
        // Deterministic: the replay makes identical per-arrival decisions.
        let b = run();
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.arrival_digest, b.arrival_digest);
    }

    #[test]
    fn overloaded_source_sheds_at_the_cap_cheaply() {
        // λ far above what max_in_flight = 2 can drain: almost everything
        // sheds at the door, and a cap-shed arrival costs one event — so
        // dispatched events stay within a small multiple of the arrival
        // count instead of 18× (the admitted-query event cost).
        let profiles = profiles();
        let mut cfg = ServerConfig::quick(0, true);
        cfg.arrivals = vec![poisson_source(50.0, 0, 2)];
        let metrics = Server::new(cfg, profiles).run();
        assert!(metrics.arrivals > 100_000);
        assert!(
            metrics.arrivals_shed > metrics.arrivals_admitted * 10,
            "cap never engaged: {} shed vs {} admitted",
            metrics.arrivals_shed,
            metrics.arrivals_admitted
        );
        assert!(
            metrics.events_dispatched < metrics.arrivals * 2,
            "shed arrivals are supposed to be ~1 event each: {} events for {} arrivals",
            metrics.events_dispatched,
            metrics.arrivals
        );
    }

    /// A capped Poisson source far past its cap: almost every arrival is
    /// a shed the skip can take.
    fn capped_config() -> ServerConfig {
        let mut cfg = ServerConfig::quick(0, true);
        cfg.arrivals = vec![poisson_source(20.0, 0, 2)];
        cfg
    }

    /// The figures a dispatch-schedule change could move.
    fn schedule_fingerprint(m: &RunMetrics) -> [u64; 7] {
        [
            m.arrival_digest,
            m.arrivals,
            m.arrivals_admitted,
            m.arrivals_shed,
            m.events_dispatched,
            m.peak_queue_depth as u64,
            m.completed.total(),
        ]
    }

    /// Drive `server` to `until` one event time at a time: each window
    /// ends 1 µs past the queue head, so the shed-run skip covers at most
    /// the head's own microsecond and every other arrival makes its own
    /// queue round trip.
    fn run_event_by_event(server: &mut Server, until: SimTime) {
        while let Some(head) = server.queue.peek_time().filter(|&h| h < until) {
            server.run_until((head + SimDuration::from_micros(1)).min(until));
        }
        server.run_until(until);
    }

    #[test]
    fn shed_run_skip_matches_windowed_and_event_by_event_runs() {
        let profiles = profiles();
        let cfg = capped_config();
        let end = SimTime::ZERO + cfg.duration;
        let started = || {
            let mut server = Server::new(cfg.clone(), profiles.clone());
            server.set_active_clients(cfg.clients);
            server.begin();
            server
        };
        let whole = Server::new(cfg.clone(), profiles.clone()).run();
        // ≈1.3 s windows, off every tick grid the engine uses.
        let mut windowed = started();
        let mut t = SimTime::ZERO;
        while t < end {
            t = (t + SimDuration::from_micros(1_337_113)).min(end);
            windowed.run_until(t);
        }
        let mut stepped = started();
        run_event_by_event(&mut stepped, end);
        assert!(
            whole.arrivals_shed > whole.arrivals_admitted * 10,
            "cap never engaged: {} shed vs {} admitted",
            whole.arrivals_shed,
            whole.arrivals_admitted
        );
        let expected = schedule_fingerprint(&whole);
        assert_eq!(schedule_fingerprint(&windowed.finish()), expected);
        assert_eq!(schedule_fingerprint(&stepped.finish()), expected);
    }

    #[test]
    fn shed_run_stops_at_a_tied_queue_head_and_at_the_window_boundary() {
        let profiles = profiles();
        let cfg = capped_config();
        let end = SimTime::ZERO + cfg.duration;
        for tie_with_head in [true, false] {
            let mut server = Server::new(cfg.clone(), profiles.clone());
            server.begin();
            // Step event by event to an at-cap arrival `a0` whose next two
            // successors `a` both precede every other queued event; pop it
            // undispatched. Its successors are predicted from clones of the
            // source's RNG stream and sampler (a shed draws nothing else).
            let (a0, a) = loop {
                let ev = server.queue.pop().expect("the run has events left");
                server.now = ev.at;
                let next = ev.at + SimDuration::from_micros(1);
                let at_cap = server.sources[0].in_flight >= cfg.arrivals[0].max_in_flight;
                if matches!(ev.payload, Event::Arrival { .. }) && at_cap {
                    let src = &server.sources[0];
                    let (mut rng, mut sampler) = (src.rng.clone(), src.sampler.clone());
                    let mut at = ev.at;
                    let a: Vec<SimTime> = (0..2)
                        .map(|_| {
                            at = at + sampler.next_gap(&mut rng, at);
                            at
                        })
                        .collect();
                    if server.queue.peek_time().map_or(true, |head| a[1] < head) {
                        break (ev.at, a);
                    }
                }
                server.dispatch(ev.payload, next);
            };
            let (arrivals, dispatched) = (server.sources[0].arrivals, server.queue.dispatched());
            let tie = tie_with_head.then(|| server.queue.schedule(a[1], Event::BrokerTick));
            let until = if tie_with_head { end } else { a[1] };
            server.now = a0;
            server.dispatch(Event::Arrival { source: 0 }, until);
            // `a0` and `a[0]` were dispatched, `a[0]` without the queue;
            // `a[1]` ties the bound, so it was scheduled instead.
            assert_eq!(server.sources[0].arrivals, arrivals + 2);
            assert_eq!(server.queue.dispatched(), dispatched + 1);
            assert_eq!(server.now, a[0]);
            if let Some(tie) = tie {
                // The head was scheduled first, so its lower seq fires first.
                let head = server.queue.pop().expect("the tied head is queued");
                assert_eq!((head.at, head.seq), (a[1], tie));
                assert!(matches!(head.payload, Event::BrokerTick));
            }
            let next = server.queue.pop().expect("the tied arrival is queued");
            assert_eq!(next.at, a[1]);
            assert!(matches!(next.payload, Event::Arrival { source: 0 }));
            if let Some(tie) = tie {
                // `a[0]`'s skipped round trip consumed `tie + 1`.
                assert_eq!(next.seq, tie + 2);
            }
        }
    }

    /// Full-template profiles (SALES, TPC-H-like, OLTP), characterized once
    /// for every skip-differential case so any workload mix can run.
    fn full_profiles() -> Arc<WorkloadProfiles> {
        static PROFILES: std::sync::OnceLock<Arc<WorkloadProfiles>> = std::sync::OnceLock::new();
        PROFILES
            .get_or_init(|| {
                Arc::new(WorkloadProfiles::characterize_full(&ServerConfig::quick(
                    1, true,
                )))
            })
            .clone()
    }

    /// Decode one arrival-source knob tuple into a source config. The knobs
    /// span all four arrival-process families; small caps push runs of
    /// arrivals through the shed-run skip. The MMPP family bursts at
    /// 10k–40k arrivals/s (25–100 µs gaps) for ≈2 s at a time, so skipped
    /// arrivals regularly land on the exact microsecond of the queue head,
    /// where the skip must stop.
    fn knob_source(index: usize, kind: u8, rate: u32, cap: u32) -> ArrivalSourceConfig {
        use throttledb_sim::ArrivalProcess;
        let process = match kind {
            0 => ArrivalProcess::Poisson {
                rate_per_sec: 0.5 + rate as f64,
            },
            1 => ArrivalProcess::Mmpp {
                calm_rate_per_sec: 0.2 + rate as f64 * 0.2,
                burst_rate_per_sec: 10_000.0 * (1 + rate) as f64,
                mean_calm_secs: 20.0,
                mean_burst_secs: 2.0,
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

    /// One skip-differential case: the config, the fault plan, and the
    /// two phases' (mix, clients, seconds) knobs.
    struct SkipCase {
        cfg: ServerConfig,
        faults: Vec<crate::fault::FaultSpec>,
        phases: [(WorkloadMix, u32, SimDuration); 2],
    }

    fn skip_case(
        seed: u64,
        phase_knobs: [(u8, u32, u64); 2],
        source_knobs: &[(u8, u32, u32)],
        fault_knob: u8,
    ) -> SkipCase {
        let mut cfg = ServerConfig::quick(8, true);
        cfg.seed = seed;
        cfg.warmup = SimDuration::ZERO;
        cfg.arrivals = source_knobs
            .iter()
            .enumerate()
            .map(|(i, &(kind, rate, cap))| knob_source(i, kind, rate, cap))
            .collect();
        let mixes = [
            WorkloadMix::default(),
            WorkloadMix::sales_only(),
            WorkloadMix::new(0.2, 0.4, 0.4),
        ];
        // A case must drive *some* load: with neither sources nor clients,
        // the first phase gets one client (both sides see the same fixup).
        let idle = source_knobs.is_empty() && phase_knobs.iter().all(|k| k.1 == 0);
        let phases = [0, 1].map(|i| {
            let (mix, clients, secs) = phase_knobs[i];
            let clients = if idle && i == 0 { 1 } else { clients };
            (mixes[mix as usize], clients, SimDuration::from_secs(secs))
        });
        cfg.duration = phases[0].2 + phases[1].2;
        // The window sits inside the shortest schedule (two 45 s phases).
        let kind = match fault_knob {
            0 => Some(FaultKind::CompileStall { multiplier: 4.0 }),
            1 => Some(FaultKind::SlotLoss { slots: 4 }),
            2 => Some(FaultKind::ClientSurge { extra_clients: 3 }),
            _ => None,
        };
        let faults = kind
            .map(|kind| crate::fault::FaultSpec {
                start: SimTime::from_secs(10),
                duration: SimDuration::from_secs(20),
                kind,
            })
            .into_iter()
            .collect();
        SkipCase {
            cfg,
            faults,
            phases,
        }
    }

    /// Run `case` with `advance` moving the server to each phase end, and
    /// return its trace and metrics. The second phase's mix and client
    /// count are applied at the boundary instant, between two `advance`
    /// calls, so both drivers see the change at the same simulated time.
    fn run_skip_case(
        case: &SkipCase,
        advance: fn(&mut Server, SimTime),
    ) -> (Vec<TraceEvent>, RunMetrics) {
        let mut server = Server::new(case.cfg.clone(), full_profiles());
        server.enable_trace();
        server.install_faults(&case.faults);
        let mut end = SimTime::ZERO;
        for (i, &(mix, clients, secs)) in case.phases.iter().enumerate() {
            server.set_workload_mix(mix);
            server.set_active_clients(clients);
            if i == 0 {
                server.begin();
            }
            end += secs;
            advance(&mut server, end);
        }
        let trace = server.take_trace();
        (trace, server.finish())
    }

    proptest::proptest! {
        /// The shed-run skip is an optimization, never a semantics change:
        /// a run whose `run_until` windows end at the phase boundaries
        /// (the skip takes every at-cap run it can) must match the same
        /// case driven one event time at a time (windows end 1 µs past the
        /// queue head, so nearly every arrival makes its own queue round
        /// trip) on the trace, the arrival digest, every per-source counter,
        /// the dispatch count and the peak queue depth. A skip that runs
        /// one arrival too far (`<=` against the head) fails here: the
        /// queue's head assertion trips in debug builds, and the arrival
        /// digest diverges where the skipped tie should have seen a slot
        /// freed first.
        #[test]
        fn prop_shed_run_skip_matches_event_by_event_runs(
            seed in 0u64..1_000_000,
            phase0 in (0u8..3, 0u32..5, 45u64..90),
            phase1 in (0u8..3, 0u32..5, 45u64..90),
            source_knobs in proptest::collection::vec((0u8..4, 0u32..4, 1u32..9), 0..3),
            fault_knob in 0u8..8,
        ) {
            let case = skip_case(seed, [phase0, phase1], &source_knobs, fault_knob);
            let (whole_trace, whole) = run_skip_case(&case, Server::run_until);
            let (stepped_trace, stepped) = run_skip_case(&case, run_event_by_event);
            proptest::prop_assert_eq!(whole_trace, stepped_trace);
            proptest::prop_assert_eq!(whole.arrival_digest, stepped.arrival_digest);
            proptest::prop_assert_eq!(whole.events_dispatched, stepped.events_dispatched);
            proptest::prop_assert_eq!(whole.peak_queue_depth, stepped.peak_queue_depth);
            proptest::prop_assert_eq!(whole.completed.total(), stepped.completed.total());
            proptest::prop_assert_eq!(whole.failed.total(), stepped.failed.total());
            proptest::prop_assert_eq!(whole.arrival_sources, stepped.arrival_sources);
        }
    }

    #[test]
    fn mixed_cohort_and_source_run_never_reuses_a_live_query_slot() {
        // Arena safety under a high arrival count: every query id is
        // submitted exactly once and reaches at most one terminal event —
        // i.e. lazily materialized per-arrival state never lands in a slot
        // that is still live.
        let profiles = profiles();
        let mut cfg = ServerConfig::quick(8, true);
        cfg.cohort_compressed = true;
        cfg.arrivals = vec![poisson_source(50.0, 0, 256)];
        let mut server = Server::new(cfg, profiles);
        server.enable_trace();
        server.set_active_clients(8);
        server.begin();
        server.run_until(SimTime::ZERO + SimDuration::from_secs(900));
        let trace = server.take_trace();
        let mut submitted = std::collections::HashSet::new();
        let mut finished = std::collections::HashSet::new();
        for ev in &trace {
            match ev {
                TraceEvent::Submitted { query, .. } => {
                    assert!(submitted.insert(*query), "query {query} submitted twice");
                }
                TraceEvent::Completed { query, .. }
                | TraceEvent::Failed { query, .. }
                | TraceEvent::Shed { query, .. } => {
                    assert!(submitted.contains(query), "query {query} never submitted");
                    assert!(finished.insert(*query), "query {query} finished twice");
                }
                _ => {}
            }
        }
        assert!(
            submitted.len() > 100,
            "too few in-flight materializations ({}) to stress slot reuse",
            submitted.len()
        );
    }

    #[test]
    fn feedback_policies_admit_under_pressure_without_wedging() {
        // The PID and cost-based policies must keep making progress on a
        // multi-class, heavily-loaded run — queues drain, nothing deadlocks.
        let profiles = profiles();
        for kind in [
            crate::config::PolicyKind::Pid,
            crate::config::PolicyKind::CostBased,
        ] {
            let mut cfg = ServerConfig::quick(16, true).with_standard_classes();
            cfg.policy = kind;
            let metrics = Server::new(cfg, profiles.clone()).run();
            for class in &metrics.classes {
                assert!(
                    class.completed > 0,
                    "policy {} starved class {}",
                    kind.name(),
                    class.name
                );
            }
        }
    }
}
