//! One simulated scenario run ("cell"): the response-time sink, the output
//! checks, and the totals a workload sums over its cells.

use crate::stats::Offered;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};
use throttledb_engine::{RunMetrics, TraceEvent, TraceSink};
use throttledb_scenario::{PhaseReport, ScenarioOutcome, Trace};
use throttledb_sim::SimTime;

/// Streams a run's trace events into submit → complete times of completed
/// queries and per-client submission and breaker-shed counts.
#[derive(Debug, Default)]
pub struct ResponseSink {
    /// Submit time and client of every query still in the pipeline.
    open: HashMap<u64, (SimTime, u32)>,
    /// Simulated seconds from submission to completion, in completion order.
    pub responses_s: Vec<f64>,
    /// `[submitted, breaker-shed]` per client id.
    per_client: Vec<[u64; 2]>,
    /// Host time spent inside [`TraceSink::event`], when timed.
    busy: Option<Duration>,
}

impl ResponseSink {
    /// A sink that also times its own work (for the traced run).
    pub fn timed() -> Self {
        ResponseSink {
            busy: Some(Duration::ZERO),
            ..ResponseSink::default()
        }
    }

    /// Host seconds spent handling events (0 unless [`ResponseSink::timed`]).
    pub fn busy_s(&self) -> f64 {
        self.busy.map_or(0.0, |d| d.as_secs_f64())
    }

    fn observe(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Submitted {
                at, query, client, ..
            } => {
                self.open.insert(*query, (*at, *client));
                let idx = *client as usize;
                if idx >= self.per_client.len() {
                    self.per_client.resize(idx + 1, [0; 2]);
                }
                self.per_client[idx][0] += 1;
            }
            TraceEvent::Completed { at, query } => {
                if let Some((submitted, _)) = self.open.remove(query) {
                    self.responses_s
                        .push(at.saturating_since(submitted).as_secs_f64());
                }
            }
            TraceEvent::Shed { query, .. } => {
                if let Some((_, client)) = self.open.remove(query) {
                    self.per_client[client as usize][1] += 1;
                }
            }
            TraceEvent::Failed { query, .. } => {
                self.open.remove(query);
            }
            _ => {}
        }
    }

    /// `(submitted, breaker-shed)` summed over client ids `>= first`.
    fn counts_from(&self, first: u32) -> (u64, u64) {
        self.per_client
            .iter()
            .skip(first as usize)
            .fold((0, 0), |(s, x), c| (s + c[0], x + c[1]))
    }
}

impl TraceSink for ResponseSink {
    fn event(&mut self, event: &TraceEvent) {
        match self.busy {
            Some(busy) => {
                let start = Instant::now();
                self.observe(event);
                self.busy = Some(busy + start.elapsed());
            }
            None => self.observe(event),
        }
    }
}

/// Host seconds of one cell's trace plane (scenario_grid cells only).
#[derive(Debug, Clone, Copy, Default)]
pub struct TracePlane {
    /// Recorded events.
    pub events: u64,
    /// Bytes of the encoded v1 text.
    pub bytes: u64,
    /// `Trace::encode` host seconds.
    pub encode_s: f64,
    /// `Trace::decode` host seconds.
    pub decode_s: f64,
    /// `Trace::replay` host seconds.
    pub replay_s: f64,
}

/// Encode a recorded trace (hashing the text into `fingerprint`), decode
/// it back and replay the decoded copy, checking that the round trip is
/// lossless and replays to `phases`.
pub fn round_trip(
    trace: &Trace,
    phases: &[PhaseReport],
    fingerprint: &mut impl Hasher,
    failures: &mut Vec<String>,
) -> TracePlane {
    let start = Instant::now();
    let text = trace.encode();
    let encode_s = start.elapsed().as_secs_f64();
    text.hash(fingerprint);
    let start = Instant::now();
    let decoded = Trace::decode(&text);
    let decode_s = start.elapsed().as_secs_f64();
    let mut plane = TracePlane {
        events: trace.len() as u64,
        bytes: text.len() as u64,
        encode_s,
        decode_s,
        replay_s: 0.0,
    };
    match decoded {
        Ok(decoded) => {
            if decoded != *trace {
                failures.push("decoded v1 trace differs from the recorded one".into());
            }
            let start = Instant::now();
            let replayed = decoded.replay();
            plane.replay_s = start.elapsed().as_secs_f64();
            if replayed != phases {
                failures.push("decoded v1 trace does not replay to the phase reports".into());
            }
        }
        Err(err) => failures.push(format!("recorded v1 trace does not decode: {err}")),
    }
    plane
}

/// Check the run's conservation laws and that the phase reports, the
/// sink and `RunMetrics` tell the same story. Returns one line per broken
/// law.
pub fn check(outcome: &ScenarioOutcome, sink: &ResponseSink) -> Vec<String> {
    let m = &outcome.metrics;
    let mut failures = Vec::new();
    let mut law = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    for src in &m.arrival_sources {
        law(
            src.arrivals == src.admitted + src.shed,
            format!(
                "source {}: arrivals {} != admitted {} + shed {}",
                src.name, src.arrivals, src.admitted, src.shed
            ),
        );
    }
    law(
        m.arrivals == m.arrivals_admitted + m.arrivals_shed,
        format!(
            "arrivals {} != admitted {} + shed {}",
            m.arrivals, m.arrivals_admitted, m.arrivals_shed
        ),
    );
    let (mut submitted, mut done) = (0u64, 0u64);
    for phase in &outcome.phases {
        submitted += phase.submitted;
        done += phase.completed + phase.failed;
        law(
            submitted >= done,
            format!(
                "through phase {}: submitted {submitted} < completed + failed {done}",
                phase.name
            ),
        );
    }
    let sum = |f: fn(&PhaseReport) -> u64| outcome.phases.iter().map(f).sum::<u64>();
    law(
        sum(|p| p.completed) == m.completed.total(),
        "phase completions disagree with RunMetrics".into(),
    );
    law(
        sum(|p| p.failed) == m.failed.total(),
        "phase failures disagree with RunMetrics".into(),
    );
    law(
        sum(|p| p.shed) == m.shed,
        "phase breaker sheds disagree with RunMetrics".into(),
    );
    law(
        sink.responses_s.len() as u64 == sum(|p| p.completed),
        "sink completions disagree with the phase reports".into(),
    );
    let (all_submitted, _) = sink.counts_from(0);
    law(
        all_submitted == submitted,
        "sink submissions disagree with the phase reports".into(),
    );
    let (source_submitted, source_shed) = sink.counts_from(closed_clients(m));
    law(
        source_submitted == m.arrivals_admitted + source_shed,
        format!(
            "open-loop submissions {source_submitted} != admitted {} + breaker-shed {source_shed}",
            m.arrivals_admitted
        ),
    );
    failures
}

/// Client ids below this belong to the closed loop; open-loop sources take
/// the ids after them.
fn closed_clients(m: &RunMetrics) -> u32 {
    m.classes.iter().map(|c| c.clients).sum()
}

/// The request ledger of one cell: closed-loop submissions versus open-loop
/// arrivals, and what was lost of each.
pub fn offered(outcome: &ScenarioOutcome, sink: &ResponseSink) -> Offered {
    let m = &outcome.metrics;
    let (source_submitted, source_shed) = sink.counts_from(closed_clients(m));
    let submitted: u64 = outcome.phases.iter().map(|p| p.submitted).sum();
    Offered {
        closed_submitted: submitted.saturating_sub(source_submitted),
        arrivals: m.arrivals,
        failed: m.failed.total(),
        closed_shed: m.shed.saturating_sub(source_shed),
        arrivals_shed: m.arrivals_shed,
    }
}
