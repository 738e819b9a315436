//! The discrete-event queue.
//!
//! Events are ordered by their scheduled [`SimTime`]; events scheduled for the
//! same instant are dispatched in FIFO order of insertion. This stability is
//! load-bearing for determinism: the engine schedules "compilation step
//! finished" and "gateway released" events at identical timestamps and the
//! experiment figures must not depend on heap tie-breaking.
//!
//! [`EventQueue`] is a plain binary heap keyed on `(time, seq)`. The engine's
//! pending set peaks below 1k events even at paper scale, where a heap's
//! `O(log n)` sifts are a handful of compares; `BENCH_event_queue.json`
//! records its events/sec at those depths.

use crate::clock::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event that has been scheduled onto the queue.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotonic sequence number used to break ties FIFO.
    pub seq: u64,
    /// The caller's payload.
    pub payload: E,
}

impl<E> ScheduledEvent<E> {
    /// The `(time, seq)` order key packed into one integer compare.
    #[inline]
    fn key(&self) -> u128 {
        (self.at.as_micros() as u128) << 64 | self.seq as u128
    }
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other.key().cmp(&self.key())
    }
}

/// A priority queue of events keyed by virtual time with FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
    /// The pop frontier: nothing may be scheduled before it.
    last_popped: SimTime,
    /// High-water mark of the pending set over the queue's lifetime.
    peak_len: usize,
    /// Events popped over the queue's lifetime.
    dispatched: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
            peak_len: 0,
            dispatched: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The most events that were ever pending at once — the experiment
    /// harness reports this as the run's peak queue depth.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Total events popped over the queue's lifetime — the experiment
    /// harness divides this by wall time for an events/sec figure.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Record `count` events that the caller dispatched without queueing,
    /// each of which [`EventQueue::schedule`] would have queued and
    /// [`EventQueue::pop`] handed straight back because it fell strictly
    /// before the head. The last of them fired at `at`. Sequence numbers,
    /// the dispatch counter, the pop frontier and the peak depth (one
    /// pending event above the current set) advance exactly as those
    /// `count` round trips would have moved them.
    pub fn skip_round_trips(&mut self, count: u64, at: SimTime) {
        if count == 0 {
            return;
        }
        debug_assert!(at >= self.last_popped, "skipped event fired in the past");
        debug_assert!(
            self.peek_time().map_or(true, |head| at < head),
            "skipped event would not have popped before the head"
        );
        self.next_seq += count;
        self.dispatched += count;
        self.last_popped = at;
        self.peak_len = self.peak_len.max(self.heap.len() + 1);
    }

    /// Schedule `payload` to fire at absolute time `at`, returning the
    /// event's FIFO sequence number.
    ///
    /// Scheduling into the past (before the last popped event) is a logic
    /// error in the simulation and panics in debug builds; in release builds
    /// the event is clamped to the current frontier so the run can proceed.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> u64 {
        debug_assert!(
            at >= self.last_popped,
            "scheduled an event in the past: {} < {}",
            at,
            self.last_popped
        );
        let at = at.max(self.last_popped);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { at, seq, payload });
        self.peak_len = self.peak_len.max(self.heap.len());
        seq
    }

    /// Time of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pop the next event only if it fires strictly before `until`, leaving
    /// later events queued. This is the phase-boundary primitive: a driver
    /// can advance the simulation to a boundary, mutate the model (client
    /// count, workload mix, budgets), and continue, without disturbing
    /// events already scheduled beyond the boundary.
    pub fn pop_before(&mut self, until: SimTime) -> Option<ScheduledEvent<E>> {
        if self.peek_time()? < until {
            self.pop()
        } else {
            None
        }
    }

    /// Pop the next event in (time, insertion) order.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let event = self.heap.pop()?;
        self.last_popped = event.at;
        self.dispatched += 1;
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(3), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pop_before_respects_the_boundary() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(5), "b");
        q.schedule(SimTime::from_secs(5), "c");
        q.schedule(SimTime::from_secs(9), "d");
        // Events strictly before the boundary pop; the boundary itself and
        // everything after stay queued.
        let boundary = SimTime::from_secs(5);
        let mut drained = Vec::new();
        while let Some(e) = q.pop_before(boundary) {
            drained.push(e.payload);
        }
        assert_eq!(drained, vec!["a"]);
        assert_eq!(q.len(), 3);
        // The next window picks up exactly where the last one stopped.
        let mut rest = Vec::new();
        while let Some(e) = q.pop_before(SimTime::from_secs(10)) {
            rest.push(e.payload);
        }
        assert_eq!(rest, vec!["b", "c", "d"]);
        assert!(q.pop_before(SimTime::MAX).is_none());
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(7), "x");
        q.schedule(SimTime::from_secs(4), "y");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        let e = q.pop().unwrap();
        assert_eq!(e.at, SimTime::from_secs(4));
    }

    #[test]
    fn counters_track_depth_and_dispatch() {
        let mut q = EventQueue::new();
        for s in 0..10u64 {
            q.schedule(SimTime::from_secs(s), s);
        }
        assert_eq!(q.peak_len(), 10);
        for _ in 0..4 {
            q.pop();
        }
        q.schedule(SimTime::from_secs(20), 99);
        assert_eq!(q.peak_len(), 10, "peak is a high-water mark");
        assert_eq!(q.dispatched(), 4);
        while q.pop().is_some() {}
        assert_eq!(q.dispatched(), 11);
    }

    /// The reference model for the queue proptest: a sorted vec of
    /// `(time, seq, payload)` plus the queue's counters.
    #[derive(Default)]
    struct ModelQueue {
        pending: Vec<(SimTime, u64, u32)>,
        next_seq: u64,
        last_popped: SimTime,
        peak_len: usize,
        dispatched: u64,
    }

    impl ModelQueue {
        fn schedule(&mut self, at: SimTime, payload: u32) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pending.push((at, seq, payload));
            self.pending.sort();
            self.peak_len = self.peak_len.max(self.pending.len());
            seq
        }
        fn pop(&mut self) -> Option<(SimTime, u64, u32)> {
            if self.pending.is_empty() {
                return None;
            }
            let e = self.pending.remove(0);
            self.last_popped = e.0;
            self.dispatched += 1;
            Some(e)
        }
        fn pop_before(&mut self, until: SimTime) -> Option<(SimTime, u64, u32)> {
            if self.pending.first()?.0 < until {
                self.pop()
            } else {
                None
            }
        }
        fn skip_round_trips(&mut self, count: u64, at: SimTime) {
            if count == 0 {
                return;
            }
            self.next_seq += count;
            self.dispatched += count;
            self.last_popped = at;
            self.peak_len = self.peak_len.max(self.pending.len() + 1);
        }
        fn peek_time(&self) -> Option<SimTime> {
            self.pending.first().map(|(t, _, _)| *t)
        }
    }

    proptest! {
        #[test]
        fn prop_pop_order_is_monotone(
            times in proptest::collection::vec(0u64..10_000, 1..200),
        ) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_micros(*t), i);
            }
            let mut last = SimTime::ZERO;
            let mut count = 0;
            while let Some(e) = q.pop() {
                prop_assert!(e.at >= last);
                last = e.at;
                count += 1;
            }
            prop_assert_eq!(count, times.len());
        }

        #[test]
        fn prop_equal_times_preserve_insertion_order(n in 1usize..100) {
            let mut q = EventQueue::new();
            let t = SimTime::from_secs(1) + crate::clock::SimDuration::from_micros(n as u64);
            for i in 0..n {
                q.schedule(t, i);
            }
            let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
            prop_assert_eq!(popped, (0..n).collect::<Vec<_>>());
        }

        /// Interleave schedule / pop / pop_before / peek_time /
        /// skip_round_trips against a sorted-vec model and require `len`,
        /// `is_empty`, `peek_time`, `dispatched`, `peak_len`, every handed
        /// out seq and every popped `(at, seq, payload)` to agree.
        ///
        /// Ops decode as: 0–1 = schedule, 2 = pop, 3 = pop_before,
        /// 4 = skip_round_trips over the gap between the frontier and the
        /// head. Times are drawn over 200 s at µs resolution.
        #[test]
        fn prop_queue_matches_sorted_vec_model(
            ops in proptest::collection::vec((0u8..5, 0u64..200_000_000), 1..300),
        ) {
            let mut q = EventQueue::new();
            let mut model = ModelQueue::default();
            let mut payload = 0u32;
            for (op, arg) in ops {
                // Scheduling into the past is a (debug-asserted) logic
                // error, so clamp generated times to the pop frontier like a
                // caller would.
                let frontier = model.last_popped;
                match op {
                    0 | 1 => {
                        let at = SimTime::from_micros(arg).max(frontier);
                        prop_assert_eq!(q.schedule(at, payload), model.schedule(at, payload));
                        payload += 1;
                    }
                    2 => {
                        let got = q.pop().map(|e| (e.at, e.seq, e.payload));
                        prop_assert_eq!(got, model.pop());
                    }
                    3 => {
                        let until = SimTime::from_micros(arg);
                        let got = q.pop_before(until).map(|e| (e.at, e.seq, e.payload));
                        prop_assert_eq!(got, model.pop_before(until));
                    }
                    _ => {
                        // `arg % 8` skipped events ending strictly before
                        // the head (anywhere past the frontier when empty).
                        let (lo, hi) = (frontier.as_micros(), model.peek_time().map_or(u64::MAX, |h| h.as_micros()));
                        let count = if hi > lo { arg % 8 } else { 0 };
                        let at = SimTime::from_micros(lo + (arg % (hi - lo).max(1)));
                        q.skip_round_trips(count, at);
                        model.skip_round_trips(count, at);
                    }
                }
                prop_assert_eq!(q.len(), model.pending.len());
                prop_assert_eq!(q.is_empty(), model.pending.is_empty());
                prop_assert_eq!(q.peek_time(), model.peek_time());
                prop_assert_eq!(q.dispatched(), model.dispatched);
                prop_assert_eq!(q.peak_len(), model.peak_len);
            }
        }

        /// `skip_round_trips(n, at)` must leave a queue exactly as `n`
        /// schedule + pop pairs of head-preceding events do: the same next
        /// sequence number, dispatch count, peak depth and subsequent pop
        /// order.
        #[test]
        fn prop_skip_round_trips_match_real_round_trips(
            times in proptest::collection::vec(0u64..200_000_000, 1..300),
            popped in 0usize..50,
            skips in 1u64..40,
        ) {
            let mut real = EventQueue::new();
            let mut twin = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                real.schedule(SimTime::from_micros(*t), i);
                twin.schedule(SimTime::from_micros(*t), i);
            }
            for _ in 0..popped.min(times.len() - 1) {
                prop_assert_eq!(real.pop().map(|e| e.seq), twin.pop().map(|e| e.seq));
            }
            let frontier = real.last_popped.as_micros();
            let head = real.peek_time().expect("one event stays pending").as_micros();
            // `skips` fire times in [frontier, head): each pops straight back.
            let n = if head > frontier { skips } else { 0 };
            let mut last = SimTime::from_micros(frontier);
            for k in 0..n {
                last = SimTime::from_micros(frontier + (head - frontier) * k / n);
                real.schedule(last, usize::MAX);
                let e = real.pop().expect("the skipped event pops");
                prop_assert_eq!((e.at, e.payload), (last, usize::MAX));
            }
            twin.skip_round_trips(n, last);
            prop_assert_eq!(real.dispatched(), twin.dispatched());
            prop_assert_eq!(real.peak_len(), twin.peak_len());
            // A newcomer tied with the head takes the same seq and must
            // still queue behind the head.
            prop_assert_eq!(
                real.schedule(SimTime::from_micros(head), usize::MAX - 1),
                twin.schedule(SimTime::from_micros(head), usize::MAX - 1)
            );
            loop {
                match (real.pop(), twin.pop()) {
                    (Some(r), Some(t)) => {
                        prop_assert_eq!((r.at, r.seq, r.payload), (t.at, t.seq, t.payload));
                    }
                    (None, None) => break,
                    (r, t) => prop_assert!(false, "length mismatch: {r:?} vs {t:?}"),
                }
            }
            prop_assert_eq!(real.peak_len(), twin.peak_len());
        }
    }
}
