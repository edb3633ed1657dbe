//! Statistics helpers: nearest-rank percentiles, span self time and
//! open-loop lateness accounting. Times are nanoseconds since the
//! benchmark's clock origin ([`now_ns`]) unless a name says otherwise.

use std::sync::OnceLock;
use std::time::Instant;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process (monotonic).
pub fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A percentile together with the number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank percentile of `samples` (any order): the smallest sample
/// that at least `q` of all samples are less than or equal to. `None`
/// when there are no samples.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// Median of `samples` by nearest rank; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(samples, 0.5).map_or(0.0, |p| p.value)
}

/// Steal share ([`crate::procfs::stolen_share`]) at or below which a
/// trial counts as undisturbed.
pub const QUIET_STEAL: f64 = 0.05;

/// Indices of the entries of `steal` at or below [`QUIET_STEAL`] or, when
/// fewer than a third of them (rounded up) are, of that third with the
/// least steal; ordered by steal, ties in input order.
pub fn quiet(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let calm = steal.iter().filter(|&&s| s <= QUIET_STEAL).count();
    order.truncate(calm.max(steal.len().div_ceil(3)));
    order
}

/// Part of `[start, end)` that no child interval covers. Children may
/// overlap each other and may stick out of the parent; only the covered
/// part inside the parent is subtracted, and only once.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    if end <= start {
        return 0;
    }
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

/// An open-loop send schedule: request `i` is due `i / rate` seconds
/// after `start_ns`, whatever happened to earlier requests.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start_ns: u64,
    pub rate_per_s: f64,
}

impl Schedule {
    /// When request `i` is due.
    pub fn due_ns(&self, i: usize) -> u64 {
        self.start_ns + (i as f64 * 1e9 / self.rate_per_s) as u64
    }

    /// How many requests are due at `now_ns`.
    pub fn due_count(&self, now_ns: u64) -> usize {
        if now_ns < self.start_ns {
            return 0;
        }
        ((now_ns - self.start_ns) as f64 * self.rate_per_s / 1e9).floor() as usize + 1
    }
}

/// Milliseconds the generator sent a request after it was due (0 when
/// on time or early).
pub fn late_ms(due_ns: u64, sent_ns: u64) -> f64 {
    sent_ns.saturating_sub(due_ns) as f64 / 1e6
}

/// Milliseconds from when a request was due to its completion. Counting
/// from the due time (not the actual send) charges a stall to every
/// request it delays, including ones the generator sent late.
pub fn latency_from_due_ms(due_ns: u64, done_ns: u64) -> f64 {
    done_ns.saturating_sub(due_ns) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample_and_reports_the_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            nearest_rank(&v, 0.5),
            Some(Percentile {
                value: 50.0,
                samples: 100
            })
        );
        assert_eq!(nearest_rank(&v, 0.99).unwrap().value, 99.0);
        assert_eq!(nearest_rank(&v, 1.0).unwrap().value, 100.0);
        // Ten samples: p99 is the maximum (rank ceil(9.9) = 10).
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let p = nearest_rank(&ten, 0.99).unwrap();
        assert_eq!((p.value, p.samples), (10.0, 10));
        assert_eq!(nearest_rank(&ten, 0.0).unwrap().value, 1.0);
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quiet_keeps_calm_trials_or_the_least_disturbed_third() {
        // Three of five at or below 0.05: all three, quietest first.
        assert_eq!(quiet(&[0.04, 0.3, 0.0, 0.05, 0.2]), vec![2, 0, 3]);
        // None calm: the quietest third of seven, rounded up.
        assert_eq!(quiet(&[0.6, 0.1, 0.5, 0.2, 0.4, 0.3, 0.7]), vec![1, 3, 5]);
        // Ties keep input order.
        assert_eq!(quiet(&[0.2, 0.1, 0.1]), vec![1]);
        assert_eq!(quiet(&[0.0; 4]), vec![0, 1, 2, 3]);
        assert!(quiet(&[]).is_empty());
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // Parent 0..100; children 10..30 and 20..50 overlap (union 10..50),
        // 90..120 sticks out of the parent (counts 90..100).
        let children = [(10, 30), (20, 50), (90, 120)];
        assert_eq!(self_time((0, 100), &children), 100 - 40 - 10);
        // A child nested inside another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
        // Children entirely outside, or empty, subtract nothing.
        assert_eq!(self_time((0, 100), &[(100, 200), (5, 5)]), 100);
        // Full cover leaves no self time.
        assert_eq!(self_time((0, 100), &[(0, 60), (50, 100)]), 0);
        assert_eq!(self_time((10, 10), &[]), 0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let s = Schedule {
            start_ns: 1_000,
            rate_per_s: 1_000.0,
        };
        assert_eq!(s.due_ns(0), 1_000);
        assert_eq!(s.due_ns(3), 1_000 + 3_000_000);
        assert_eq!(s.due_count(999), 0);
        assert_eq!(s.due_count(1_000), 1);
        assert_eq!(s.due_count(1_000 + 2_999_999), 3);
        // The generator stalls 10 ms at request 0: requests 0..=9 all go
        // out at t = 10 ms. Each is late by its own distance to the stall's
        // end, and its latency includes that wait.
        let sent = 1_000 + 10_000_000;
        let late: Vec<f64> = (0..10).map(|i| late_ms(s.due_ns(i), sent)).collect();
        assert_eq!(late[0], 10.0);
        assert_eq!(late[9], 1.0);
        let done = sent + 500_000;
        assert_eq!(latency_from_due_ms(s.due_ns(0), done), 10.5);
        assert_eq!(latency_from_due_ms(s.due_ns(9), done), 1.5);
        // A request sent early is not negatively late.
        assert_eq!(late_ms(s.due_ns(5), s.due_ns(5) - 1), 0.0);
    }
}
