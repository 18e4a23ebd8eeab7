//! Percentiles from raw samples, and the typed-terminal tally.
//!
//! Every percentile the benchmark reports is computed here from the
//! full list of samples it took (nearest rank), together with the
//! sample count and how many samples lie above it. A percentile with
//! fewer than [`MIN_BEYOND`] samples above it is flagged as thin.

/// Samples that must lie above a percentile for it to be reported as
/// supported by the sample.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub value: f64,
    /// Samples in the population.
    pub n: usize,
    /// Samples strictly after the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`; `None` for
/// an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Quantile {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// Median (nearest rank) of a non-empty sample, 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).map_or(0.0, |q| q.value)
}

/// Terminal states of the requests of one phase, counted by the
/// benchmark from what each request returned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub completed: u64,
    pub shed: u64,
    pub expired: u64,
    pub cancelled: u64,
    pub failed: u64,
    /// Completed requests whose output disagreed with the reference
    /// (also counted in `completed`: the request did complete).
    pub wrong: u64,
    /// Completed within the latency limit, output correct.
    pub within_limit: u64,
}

impl Tally {
    /// Every attempted request reached exactly one terminal state.
    pub fn closes(&self) -> bool {
        self.completed + self.shed + self.expired + self.cancelled + self.failed == self.attempted
    }

    /// Requests not completed, or completed with a wrong output.
    pub fn errors(&self) -> u64 {
        self.attempted - self.completed + self.wrong
    }

    /// Requests that missed the latency limit: late, not completed, or
    /// wrong.
    pub fn misses(&self) -> u64 {
        self.attempted - self.within_limit
    }

    pub fn error_frac(&self) -> f64 {
        ratio(self.errors(), self.attempted)
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.shed += other.shed;
        self.expired += other.expired;
        self.cancelled += other.cancelled;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.within_limit += other.within_limit;
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_count_what_lies_beyond() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p99 = percentile(&samples, 99.0).expect("non-empty");
        assert_eq!((p99.value, p99.n, p99.beyond), (990.0, 1000, 10));
        assert!(p99.beyond >= MIN_BEYOND);
        let p50 = percentile(&samples, 50.0).expect("non-empty");
        assert_eq!((p50.value, p50.beyond), (500.0, 500));
        // 200 samples hold only 2 beyond their p99: thin.
        let small: Vec<f64> = (1..=200).map(f64::from).collect();
        let thin = percentile(&small, 99.0).expect("non-empty");
        assert_eq!((thin.value, thin.beyond), (198.0, 2));
        assert!(thin.beyond < MIN_BEYOND);
        assert!(percentile(&[], 50.0).is_none());
        assert_eq!(percentile(&[7.0], 99.0).map(|q| q.value), Some(7.0));
    }

    #[test]
    fn percentile_never_falls_below_the_mean_of_a_heavy_tail() {
        // The failure mode of coarse histograms: many fast samples plus
        // a slow tail. A raw-sample p99 sits in the tail, above the mean.
        let mut samples = vec![1.0; 980];
        samples.extend(std::iter::repeat_n(100.0, 20));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let p99 = percentile(&samples, 99.0).expect("non-empty").value;
        assert!(p99 >= mean, "p99 {p99} below mean {mean}");
    }

    #[test]
    fn tally_arithmetic_closes_and_counts_misses() {
        let mut t = Tally {
            attempted: 10,
            completed: 6,
            shed: 2,
            expired: 1,
            cancelled: 0,
            failed: 1,
            wrong: 1,
            within_limit: 4,
        };
        assert!(t.closes());
        assert_eq!(t.errors(), 5);
        assert_eq!(t.misses(), 6);
        assert!((t.error_frac() - 0.5).abs() < 1e-12);
        let copy = t;
        t.add(&copy);
        assert!(t.closes());
        assert_eq!((t.attempted, t.errors()), (20, 10));
        t.attempted += 1;
        assert!(!t.closes(), "an unresolved request must break the tally");
    }
}
