//! Event-queue microbenchmark at the depths the engine reaches.
//!
//! The engine's pending set peaks below 1k events even at paper scale, so
//! both patterns run at 64 / 256 / 1024 pending events:
//!
//! * **fill_drain** — schedule every event, then pop until empty (the
//!   shape of a run's final drain);
//! * **churn** — a closed-loop steady state: pop one event, schedule its
//!   successor at `popped.at + think-time`, repeat (the shape of the
//!   engine's event loop, with the pending-set size held at N).
//!
//! Besides the criterion groups, running this bench (`cargo bench -p
//! throttledb-bench --bench event_queue`) rewrites `BENCH_event_queue.json`
//! at the repo root with events/sec per (pattern, depth).

use criterion::{black_box, Criterion};
use std::fmt::Write as _;
use std::time::Instant;
use throttledb_sim::{EventQueue, SimDuration, SimRng, SimTime};

/// Pending-set sizes measured: the engine's observed range.
const DEPTHS: [usize; 3] = [64, 256, 1024];

/// Virtual horizon the fill pattern spreads its events over (~30 s).
const FILL_HORIZON_US: u64 = 30_000_000;

/// Think-time-like delays for the churn pattern: exponential with a 10 s
/// mean, like the engine's closed-loop clients.
fn churn_delay(rng: &mut SimRng) -> SimDuration {
    SimDuration::from_secs_f64(rng.exponential(10.0))
}

fn fill_times(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|_| rng.uniform_u64(0, FILL_HORIZON_US))
        .collect()
}

fn fill_drain(times: &[u64]) -> u64 {
    let mut q = EventQueue::new();
    for (i, &t) in times.iter().enumerate() {
        q.schedule(SimTime::from_micros(t), i as u64);
    }
    while let Some(e) = q.pop() {
        black_box(e.seq);
    }
    q.dispatched()
}

/// Closed-loop churn over a pending set of `n` events: `rounds` pops, each
/// immediately replaced. Returns the number of dispatched events.
fn churn(n: usize, rounds: usize, seed: u64) -> u64 {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut q = EventQueue::new();
    for i in 0..n {
        let at = SimTime::ZERO + churn_delay(&mut rng);
        q.schedule(at, i as u64);
    }
    for _ in 0..rounds {
        let e = q.pop().expect("closed loop never drains");
        q.schedule(e.at + churn_delay(&mut rng), e.payload);
    }
    q.dispatched()
}

/// Best-of-`runs` events/sec for `f`, which reports how many events it
/// dispatched.
fn measure(runs: usize, mut f: impl FnMut() -> u64) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..runs {
        let start = Instant::now();
        let events = f();
        let eps = events as f64 / start.elapsed().as_secs_f64().max(1e-12);
        best = best.max(eps);
    }
    best
}

fn main() {
    let mut c = Criterion::default();
    for n in DEPTHS {
        let times = fill_times(n, 7);
        let mut group = c.benchmark_group(format!("event_queue/depth_{n}"));
        group.sample_size(10);
        group.bench_function("fill_drain", |b| b.iter(|| fill_drain(black_box(&times))));
        group.bench_function("churn", |b| b.iter(|| churn(n, 16 * n, 11)));
        group.finish();
    }

    // The measured record. A single run lasts microseconds, well inside
    // scheduler/turbo noise, so each figure is the best of many runs.
    let mut rows = Vec::new();
    for n in DEPTHS {
        let times = fill_times(n, 7);
        rows.push(("fill_drain", n, measure(500, || fill_drain(&times))));
    }
    for n in DEPTHS {
        // Dispatch 64N events against a pending set held at N.
        rows.push(("churn", n, measure(50, || churn(n, 64 * n, 11))));
    }

    println!("\n{:<12} {:>8} {:>16}", "pattern", "pending", "events/s");
    let mut json = String::from("{\n  \"benchmark\": \"event_queue\",\n  \"results\": [\n");
    for (i, (pattern, n, eps)) in rows.iter().enumerate() {
        println!("{pattern:<12} {n:>8} {eps:>16.0}");
        let _ = writeln!(
            json,
            "    {{\"pattern\": \"{pattern}\", \"pending\": {n}, \"events_per_sec\": {eps:.0}}}{}",
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_event_queue.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nrecorded to {path}"),
        Err(e) => eprintln!("\ncannot record {path}: {e}"),
    }
}
