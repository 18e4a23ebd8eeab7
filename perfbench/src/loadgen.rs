//! The open-loop load generator: seeded arrival schedules, the phase
//! plan of the open-loop workloads, and what each request came to.
//!
//! A schedule is fixed before the phase starts, from the seed alone:
//! Poisson arrival times at the phase's rate, the model of each request
//! (drawn from the workload's popularity weights), its input (an index
//! into the model's seeded input pool) and its class. Latency is timed
//! from the *intended* send time, so a stalled sender charges its delay
//! to the requests it held back, and the sender's own lateness is
//! reported as lag.

use std::time::Duration;

use patdnn_serve::ServeError;
use patdnn_tensor::rng::Rng;

use crate::stats::{median, percentile, ratio, Quantile, Tally};

/// The latency limit of every workload: one 30 fps frame.
pub const LIMIT_MS: f64 = 33.0;

/// Share of requests in the interactive class (deadline = the limit);
/// the rest are batch class with no deadline.
pub const INTERACTIVE_SHARE: f64 = 0.5;

/// A ramp step passes when at most this share of its requests miss the
/// limit (late, not completed or wrong) — the count form of "p99 within
/// the limit" — and fewer than this share are not completed.
pub const RAMP_MISS_SHARE: f64 = 0.01;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Intended send time, from the phase start.
    pub at: Duration,
    pub model: usize,
    pub input: usize,
    pub interactive: bool,
}

/// The arrivals of one phase: Poisson at `rate` per second for
/// `seconds`, models drawn by `weights`, inputs uniform over `pool`.
pub fn schedule(seed: u64, rate: f64, seconds: f64, weights: &[f64], pool: usize) -> Vec<Arrival> {
    let mut rng = Rng::seed_from(seed);
    let total: f64 = weights.iter().sum();
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 8);
    let mut t = 0.0f64;
    loop {
        // Exponential gap; 1 - u keeps the log argument in (0, 1].
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= seconds {
            break;
        }
        let mut pick = rng.next_f64() * total;
        let mut model = weights.len() - 1;
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                model = i;
                break;
            }
            pick -= w;
        }
        out.push(Arrival {
            at: Duration::from_secs_f64(t),
            model,
            input: rng.below(pool),
            interactive: rng.chance(INTERACTIVE_SHARE),
        });
    }
    out
}

/// Zipf popularity weights `1 / rank^s` for `n` models.
pub fn zipf(n: usize, s: f64) -> Vec<f64> {
    (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    Nominal,
    Ramp,
    Overload,
    /// A closed loop at saturation, after the open-loop phases.
    Closed,
}

impl PhaseKind {
    pub fn label(self) -> &'static str {
        match self {
            PhaseKind::Nominal => "nominal",
            PhaseKind::Ramp => "ramp",
            PhaseKind::Overload => "overload",
            PhaseKind::Closed => "closed",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    pub kind: PhaseKind,
    pub rate: f64,
    pub seconds: f64,
}

/// The fixed rates of an open-loop workload, requests per second.
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    pub nominal: f64,
    /// The ramp starts at the nominal rate; each next step is
    /// `ramp_ratio` times higher.
    pub ramp_ratio: f64,
    pub ramp_steps: usize,
    pub overload: f64,
}

impl Rates {
    /// The phase plan over a run of `seconds`: 30% nominal, 45% ramp
    /// (equal steps), 25% overload.
    pub fn phases(&self, seconds: f64) -> Vec<Phase> {
        let mut out = vec![Phase {
            kind: PhaseKind::Nominal,
            rate: self.nominal,
            seconds: 0.3 * seconds,
        }];
        let step = 0.45 * seconds / self.ramp_steps as f64;
        let mut rate = self.nominal;
        for _ in 0..self.ramp_steps {
            out.push(Phase {
                kind: PhaseKind::Ramp,
                rate,
                seconds: step,
            });
            rate *= self.ramp_ratio;
        }
        out.push(Phase {
            kind: PhaseKind::Overload,
            rate: self.overload,
            seconds: 0.25 * seconds,
        });
        out
    }
}

/// What one request came to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Completed; latency from the intended send time and whether the
    /// output matched its reference.
    Completed {
        ms: f64,
        correct: bool,
    },
    Shed,
    Expired,
    Cancelled,
    Failed,
}

impl Outcome {
    /// The terminal a typed serving error stands for.
    pub fn from_error(e: &ServeError) -> Outcome {
        match e {
            ServeError::Shed { .. } => Outcome::Shed,
            ServeError::Expired { .. } => Outcome::Expired,
            ServeError::Cancelled => Outcome::Cancelled,
            _ => Outcome::Failed,
        }
    }
}

/// One phase's raw results.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    pub phase: Phase,
    pub tally: Tally,
    /// Latencies of the completed, correct requests, ms.
    pub latencies: Vec<f64>,
    /// Sender lag behind the schedule, ms, one per request.
    pub lags: Vec<f64>,
    /// Requests sent before the phase's scheduled end.
    pub sent_in_time: u64,
    /// Completed and within-limit counts per window of about a second
    /// of intended send time, so a rate is the median over windows and
    /// a short host stall moves it less.
    windows: Vec<(u64, u64)>,
}

impl PhaseResult {
    /// `outcomes[i]` is what `arrivals[i]` came to.
    pub fn new(
        phase: Phase,
        arrivals: &[Arrival],
        outcomes: &[Outcome],
        lags: Vec<f64>,
        sent_in_time: u64,
    ) -> Self {
        let mut tally = Tally {
            attempted: outcomes.len() as u64,
            ..Tally::default()
        };
        let mut windows = vec![(0, 0); (phase.seconds.floor() as usize).max(1)];
        let window_s = phase.seconds / windows.len() as f64;
        let mut latencies = Vec::with_capacity(outcomes.len());
        for (a, o) in arrivals.iter().zip(outcomes) {
            let w = ((a.at.as_secs_f64() / window_s) as usize).min(windows.len() - 1);
            match *o {
                Outcome::Completed { ms, correct } => {
                    tally.completed += 1;
                    windows[w].0 += 1;
                    if correct {
                        latencies.push(ms);
                        if ms <= LIMIT_MS {
                            tally.within_limit += 1;
                            windows[w].1 += 1;
                        }
                    } else {
                        tally.wrong += 1;
                    }
                }
                Outcome::Shed => tally.shed += 1,
                Outcome::Expired => tally.expired += 1,
                Outcome::Cancelled => tally.cancelled += 1,
                Outcome::Failed => tally.failed += 1,
            }
        }
        PhaseResult {
            phase,
            tally,
            latencies,
            lags,
            sent_in_time,
            windows,
        }
    }

    /// Median over the windows of a per-window count, per second.
    fn window_rate(&self, count: impl Fn(&(u64, u64)) -> u64) -> f64 {
        let window_s = self.phase.seconds / self.windows.len() as f64;
        let rates: Vec<f64> = self
            .windows
            .iter()
            .map(|w| count(w) as f64 / window_s)
            .collect();
        median(&rates)
    }

    pub fn quantile(&self, p: f64) -> Option<Quantile> {
        percentile(&self.latencies, p)
    }

    /// Requests completed per second of schedule.
    pub fn completed_rps(&self) -> f64 {
        self.window_rate(|w| w.0)
    }

    /// Requests completed within the limit per second of schedule.
    pub fn goodput_rps(&self) -> f64 {
        self.window_rate(|w| w.1)
    }

    /// Ramp criterion: misses within the share, and fewer than that
    /// share not completed.
    pub fn meets_limit(&self) -> bool {
        let t = &self.tally;
        let budget = RAMP_MISS_SHARE * t.attempted as f64;
        t.attempted > 0
            && (t.misses() as f64) <= budget
            && ((t.attempted - t.completed) as f64) < budget
    }
}

/// The open-loop metrics of a run of phases.
#[derive(Debug, Clone)]
pub struct OpenLoopSummary {
    pub nominal: PhaseResult,
    /// Completion rate of the highest ramp step that met the limit: a
    /// measured rate, near the step's scheduled one. When no step met
    /// it, the first step's goodput, so a degraded host reads lower in
    /// proportion rather than falling off a cliff.
    pub sustained_rps: f64,
    pub overload: PhaseResult,
    pub ramp: Vec<PhaseResult>,
    pub closed: Option<PhaseResult>,
}

impl OpenLoopSummary {
    pub fn new(results: Vec<PhaseResult>) -> OpenLoopSummary {
        let mut nominal = None;
        let mut overload = None;
        let mut ramp = Vec::new();
        let mut closed = None;
        for r in results {
            match r.phase.kind {
                PhaseKind::Nominal => nominal = Some(r),
                PhaseKind::Ramp => ramp.push(r),
                PhaseKind::Overload => overload = Some(r),
                PhaseKind::Closed => closed = Some(r),
            }
        }
        let nominal = nominal.expect("the phase plan has a nominal phase");
        let sustained_rps = ramp
            .iter()
            .filter(|r| r.meets_limit())
            .max_by(|a, b| a.phase.rate.total_cmp(&b.phase.rate))
            .map(PhaseResult::completed_rps)
            .or_else(|| ramp.first().map(PhaseResult::goodput_rps))
            .unwrap_or(0.0);
        OpenLoopSummary {
            nominal,
            sustained_rps,
            overload: overload.expect("the phase plan has an overload phase"),
            ramp,
            closed,
        }
    }

    pub fn phases(&self) -> impl Iterator<Item = &PhaseResult> {
        std::iter::once(&self.nominal)
            .chain(self.ramp.iter())
            .chain(std::iter::once(&self.overload))
            .chain(self.closed.iter())
    }

    /// Every phase's tally, summed.
    pub fn total(&self) -> Tally {
        let mut t = Tally::default();
        for p in self.phases() {
            t.add(&p.tally);
        }
        t
    }

    /// Requests of one phase kind that were shed / expired, as shares
    /// of that kind's attempts.
    pub fn admission_fracs(&self, kind: PhaseKind) -> (f64, f64) {
        let mut t = Tally::default();
        for p in self.phases().filter(|p| p.phase.kind == kind) {
            t.add(&p.tally);
        }
        (ratio(t.shed, t.attempted), ratio(t.expired, t.attempted))
    }

    /// Lag p99 and the share sent on time, over every phase.
    pub fn loadgen(&self) -> (Option<Quantile>, f64) {
        let lags: Vec<f64> = self.phases().flat_map(|p| p.lags.iter().copied()).collect();
        let sent: u64 = self.phases().map(|p| p.sent_in_time).sum();
        let attempted: u64 = self.phases().map(|p| p.tally.attempted).sum();
        (percentile(&lags, 99.0), ratio(sent, attempted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let w = [0.6, 0.4];
        let a = schedule(7, 500.0, 2.0, &w, 16);
        assert_eq!(a, schedule(7, 500.0, 2.0, &w, 16));
        assert_ne!(a, schedule(8, 500.0, 2.0, &w, 16));
        // Poisson at 500/s for 2 s: about 1000 arrivals, increasing.
        assert!((900..1100).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|p| p[0].at <= p[1].at));
        assert!(a
            .iter()
            .all(|x| x.at < Duration::from_secs(2) && x.input < 16 && x.model < 2));
        let first = a.iter().filter(|x| x.model == 0).count() as f64 / a.len() as f64;
        assert!((first - 0.6).abs() < 0.06, "{first}");
        let interactive = a.iter().filter(|x| x.interactive).count() as f64 / a.len() as f64;
        assert!(
            (interactive - INTERACTIVE_SHARE).abs() < 0.06,
            "{interactive}"
        );
    }

    #[test]
    fn phase_plan_splits_the_run_and_steps_geometrically() {
        let rates = Rates {
            nominal: 100.0,
            ramp_ratio: 1.08,
            ramp_steps: 4,
            overload: 400.0,
        };
        let phases = rates.phases(10.0);
        assert_eq!(phases.len(), 6);
        let total: f64 = phases.iter().map(|p| p.seconds).sum();
        assert!((total - 10.0).abs() < 1e-9);
        // The ramp starts at the nominal rate and steps by the ratio.
        assert_eq!(phases[1].rate, 100.0);
        assert!((phases[4].rate - 100.0 * 1.08f64.powi(3)).abs() < 1e-9);
        assert_eq!(phases[5].kind, PhaseKind::Overload);
    }

    fn phase(kind: PhaseKind, rate: f64) -> Phase {
        Phase {
            kind,
            rate,
            seconds: 1.0,
        }
    }

    /// `n` arrivals spread evenly over `seconds`.
    fn even(n: usize, seconds: f64) -> Vec<Arrival> {
        (0..n)
            .map(|i| Arrival {
                at: Duration::from_secs_f64(seconds * i as f64 / n as f64),
                model: 0,
                input: 0,
                interactive: false,
            })
            .collect()
    }

    #[test]
    fn phase_rates_are_medians_over_windows() {
        // 4 s at 100/s; one window (the third second) stalls, and its
        // 100 requests miss the limit.
        let p = Phase {
            kind: PhaseKind::Overload,
            rate: 100.0,
            seconds: 4.0,
        };
        let outcomes: Vec<Outcome> = (0..400)
            .map(|i| Outcome::Completed {
                ms: if (200..300).contains(&i) { 90.0 } else { 5.0 },
                correct: true,
            })
            .collect();
        let r = PhaseResult::new(p, &even(400, 4.0), &outcomes, vec![], 400);
        assert_eq!(r.completed_rps(), 100.0);
        assert_eq!(r.goodput_rps(), 100.0, "the stalled window is outvoted");
        assert_eq!(r.tally.within_limit, 300);
    }

    #[test]
    fn outcomes_tally_and_ramp_criterion() {
        // 200 requests: 197 fast, 1 late, 1 shed, 1 wrong.
        let mut outcomes = vec![
            Outcome::Completed {
                ms: 5.0,
                correct: true
            };
            197
        ];
        outcomes.push(Outcome::Completed {
            ms: 50.0,
            correct: true,
        });
        outcomes.push(Outcome::Shed);
        outcomes.push(Outcome::Completed {
            ms: 5.0,
            correct: false,
        });
        let r = PhaseResult::new(
            phase(PhaseKind::Ramp, 100.0),
            &even(200, 1.0),
            &outcomes,
            vec![],
            200,
        );
        let t = r.tally;
        assert!(t.closes());
        assert_eq!(
            (t.completed, t.shed, t.wrong, t.within_limit),
            (199, 1, 1, 197)
        );
        assert_eq!(t.misses(), 3);
        assert!(!r.meets_limit(), "3 misses exceed 1% of 200");
        assert_eq!(r.latencies.len(), 198);
        assert!((r.goodput_rps() - 197.0).abs() < 1e-9);

        let ok = vec![
            Outcome::Completed {
                ms: 5.0,
                correct: true
            };
            200
        ];
        let pass = PhaseResult::new(
            phase(PhaseKind::Ramp, 90.0),
            &even(200, 1.0),
            &ok,
            vec![],
            200,
        );
        assert!(pass.meets_limit());
        let nominal = PhaseResult::new(
            phase(PhaseKind::Nominal, 10.0),
            &even(200, 1.0),
            &ok,
            vec![0.1; 200],
            200,
        );
        let over = PhaseResult::new(
            phase(PhaseKind::Overload, 200.0),
            &even(200, 1.0),
            &outcomes,
            vec![],
            200,
        );
        let s = OpenLoopSummary::new(vec![nominal, pass, r, over]);
        // The 90/s step passed, the 100/s step did not: its 200
        // completions in 1 s are the sustained rate.
        assert_eq!(s.sustained_rps, 200.0);
        assert!(s.total().closes());
        assert_eq!(s.total().attempted, 800);
        assert_eq!(s.admission_fracs(PhaseKind::Overload), (1.0 / 200.0, 0.0));
        assert_eq!(s.loadgen().1, 1.0);

        // No step met the limit: the first step's goodput, 197 within
        // the limit in 1 s.
        let failed = PhaseResult::new(
            phase(PhaseKind::Ramp, 100.0),
            &even(200, 1.0),
            &outcomes,
            vec![],
            200,
        );
        let nominal = PhaseResult::new(
            phase(PhaseKind::Nominal, 10.0),
            &even(200, 1.0),
            &ok,
            vec![],
            200,
        );
        let over = PhaseResult::new(
            phase(PhaseKind::Overload, 200.0),
            &even(200, 1.0),
            &ok,
            vec![],
            200,
        );
        let s = OpenLoopSummary::new(vec![nominal, failed, over]);
        assert_eq!(s.sustained_rps, 197.0);
    }
}
