//! The benchmark's own arithmetic, kept free of I/O so it can be tested on
//! hand-computed inputs.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the middle two for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) in `n` samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether percentile `p` of `n` samples leaves at least
/// [`MIN_TAIL_SAMPLES`] samples strictly beyond it.
pub fn percentile_admitted(p: f64, n: usize) -> bool {
    n > 0 && n - nearest_rank(p, n) >= MIN_TAIL_SAMPLES
}

/// Nearest-rank percentile `p` of `sorted` (ascending); `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[nearest_rank(p, sorted.len()) - 1])
}

/// Completions per simulated minute over the post-warm-up window.
pub fn goodput_per_min(completed_after_warmup: u64, measured_secs: f64) -> f64 {
    if measured_secs <= 0.0 {
        0.0
    } else {
        completed_after_warmup as f64 / (measured_secs / 60.0)
    }
}

/// What the users of one run asked for and how much of it was lost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Offered {
    /// Queries the closed-loop clients submitted.
    pub closed_submitted: u64,
    /// Open-loop arrivals (admitted or shed).
    pub arrivals: u64,
    /// Queries that entered the pipeline and failed.
    pub failed: u64,
    /// Closed-loop submissions shed at the door by a circuit breaker.
    pub closed_shed: u64,
    /// Open-loop arrivals shed at the concurrency cap or by a breaker.
    pub arrivals_shed: u64,
}

impl Offered {
    /// Sum two runs' counts.
    pub fn add(&mut self, other: Offered) {
        self.closed_submitted += other.closed_submitted;
        self.arrivals += other.arrivals;
        self.failed += other.failed;
        self.closed_shed += other.closed_shed;
        self.arrivals_shed += other.arrivals_shed;
    }

    /// (failed + shed) / offered, counting every shed request as failed.
    pub fn fail_share(&self) -> f64 {
        let offered = self.closed_submitted + self.arrivals;
        if offered == 0 {
            0.0
        } else {
            (self.failed + self.closed_shed + self.arrivals_shed) as f64 / offered as f64
        }
    }
}

/// A span's self time: its duration minus the time its child spans cover.
pub fn self_time(span_s: f64, child_spans_s: &[f64]) -> f64 {
    span_s - child_spans_s.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        // 255 completions (cold_storm at seed 2007): p95 sits at rank
        // ceil(242.25) = 243, leaving 12 beyond; p99 at rank 253 leaves 2.
        assert!(percentile_admitted(95.0, 255));
        assert!(!percentile_admitted(99.0, 255));
        // 200 samples: p95 at rank 190 leaves exactly 10.
        assert!(percentile_admitted(95.0, 200));
        // 199 samples: rank ceil(189.05) = 190 leaves 9.
        assert!(!percentile_admitted(95.0, 199));
        // 1 000 samples admit p99 (rank 990, 10 beyond) but not p99.9.
        assert!(percentile_admitted(99.0, 1000));
        assert!(!percentile_admitted(99.9, 1000));
        // 15 samples: the median (rank 8) leaves only 7.
        assert!(!percentile_admitted(50.0, 15));
        assert!(!percentile_admitted(50.0, 0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), Some(10.0));
        assert_eq!(percentile(&sorted, 95.0), Some(19.0));
        assert_eq!(percentile(&sorted, 100.0), Some(20.0));
        assert_eq!(percentile(&sorted, 0.1), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn goodput_counts_completions_per_simulated_minute() {
        // 255 completions over 14 400 s = 240 min.
        assert!((goodput_per_min(255, 14_400.0) - 1.0625).abs() < 1e-12);
        assert_eq!(goodput_per_min(10, 0.0), 0.0);
    }

    #[test]
    fn fail_share_counts_every_shed_request_as_failed() {
        let mut run = Offered {
            closed_submitted: 300,
            arrivals: 700,
            failed: 20,
            closed_shed: 5,
            arrivals_shed: 75,
        };
        // (20 + 5 + 75) / (300 + 700)
        assert!((run.fail_share() - 0.1).abs() < 1e-12);
        run.add(Offered {
            closed_submitted: 1000,
            ..Offered::default()
        });
        assert!((run.fail_share() - 0.05).abs() < 1e-12);
        assert_eq!(Offered::default().fail_share(), 0.0);
    }

    #[test]
    fn self_time_subtracts_child_spans() {
        assert!((self_time(3.5, &[0.25, 1.0, 2.0]) - 0.25).abs() < 1e-12);
        assert_eq!(self_time(1.0, &[]), 1.0);
    }
}
