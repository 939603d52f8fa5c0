//! The open-loop load of the service workload: seeded Poisson arrivals over
//! the algorithm × graph matrix with a PATCH burst every ten submissions,
//! and the accounting that turns each job's fate into `error_frac` and
//! latency samples.

use std::time::Duration;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::seeds::Seeds;

/// Submissions between two PATCH bursts (one PATCH per G(n,p) graph).
pub const PATCH_EVERY: usize = 10;

/// One scheduled job submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, from the start of its phase.
    pub due: Duration,
    /// Index into the algorithm × graph matrix.
    pub combo: usize,
    /// Trial seed of the job; distinct for every arrival of a run, so no
    /// two requests are identical.
    pub seed: u64,
    /// Whether a PATCH burst follows this submission.
    pub patch_after: bool,
}

/// The arrivals of one phase: Poisson at `rate` per second for `window`,
/// cycling through seeded permutations of `0..combos`. `first` numbers the
/// phase's arrivals after those of earlier phases, so seeds never repeat
/// across phases. A pure function of its arguments.
pub fn arrivals(
    seeds: Seeds,
    phase: &str,
    rate: f64,
    window: Duration,
    combos: usize,
    first: u64,
) -> Vec<Arrival> {
    assert!(
        rate > 0.0 && combos > 0,
        "rate and matrix must be non-empty"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seeds.derive(phase, 0));
    let mut order: Vec<usize> = Vec::new();
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += -u.ln() / rate;
        if t >= window.as_secs_f64() {
            return out;
        }
        if order.is_empty() {
            order = (0..combos).collect();
            for i in (1..combos).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
        }
        let index = first + out.len() as u64;
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            combo: order.pop().expect("refilled above"),
            seed: seeds.derive("job", index),
            patch_after: (index as usize + 1) % PATCH_EVERY == 0,
        });
    }
}

/// How a submitted job ended, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Completed with a valid MIS (and, where re-checked, a valid download).
    Valid,
    /// Completed, but the MIS was invalid or failed the client re-check.
    Invalid,
    /// Ended `Failed`, `Cancelled` or `Interrupted`.
    Failed,
    /// Refused at submission (429/503) or the request itself failed.
    Refused,
    /// Not terminal by the drain deadline.
    Unfinished,
}

impl Fate {
    /// Everything but `Valid` counts against `error_frac`.
    pub fn is_error(self) -> bool {
        self != Fate::Valid
    }
}

/// `(errors, submitted)` over `fates`.
pub fn error_count(fates: &[Fate]) -> (u64, u64) {
    let errors = fates.iter().filter(|f| f.is_error()).count() as u64;
    (errors, fates.len() as u64)
}

/// Latency samples in which every job that did not end `Valid` counts as
/// missing the limit: it reads `limit` (above every real sample) instead of
/// its measured time.
pub fn latency_samples(measured: &[(Fate, f64)], limit: f64) -> Vec<f64> {
    measured
        .iter()
        .map(|&(fate, ms)| if fate.is_error() { limit.max(ms) } else { ms })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quantile;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let w = Duration::from_secs(5);
        let a = arrivals(Seeds(9), "low", 100.0, w, 60, 0);
        let b = arrivals(Seeds(9), "low", 100.0, w, 60, 0);
        assert_eq!(a, b);
        assert_ne!(a, arrivals(Seeds(10), "low", 100.0, w, 60, 0));
        assert_ne!(a, arrivals(Seeds(9), "high", 100.0, w, 60, 0));
    }

    #[test]
    fn schedule_has_the_offered_rate_and_covers_the_matrix() {
        let w = Duration::from_secs(20);
        let a = arrivals(Seeds(1), "high", 150.0, w, 60, 0);
        let rate = a.len() as f64 / w.as_secs_f64();
        assert!((rate - 150.0).abs() < 15.0, "rate {rate}");
        assert!(a.windows(2).all(|p| p[0].due <= p[1].due));
        assert!(a.iter().all(|x| x.due < w));
        // Every full cycle of 60 arrivals visits each combination once.
        let mut first: Vec<usize> = a[..60].iter().map(|x| x.combo).collect();
        first.sort_unstable();
        assert_eq!(first, (0..60).collect::<Vec<_>>());
        assert_eq!(
            a.iter().filter(|x| x.patch_after).count(),
            a.len() / PATCH_EVERY
        );
    }

    #[test]
    fn seeds_never_repeat_across_phases() {
        let w = Duration::from_secs(4);
        let low = arrivals(Seeds(3), "low", 200.0, w, 60, 0);
        let high = arrivals(Seeds(3), "high", 200.0, w, 60, low.len() as u64);
        let mut all: Vec<u64> = low.iter().chain(&high).map(|x| x.seed).collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total);
    }

    #[test]
    fn refused_and_unfinished_jobs_count_as_errors_and_miss_the_limit() {
        let mut measured = vec![(Fate::Valid, 5.0); 996];
        measured.push((Fate::Refused, 0.3));
        measured.push((Fate::Unfinished, 0.0));
        measured.push((Fate::Failed, 7.0));
        measured.push((Fate::Invalid, 6.0));
        let fates: Vec<Fate> = measured.iter().map(|m| m.0).collect();
        assert_eq!(error_count(&fates), (4, 1000));
        let samples = latency_samples(&measured, 30_000.0);
        assert_eq!(samples.iter().filter(|&&s| s == 30_000.0).count(), 4);
        // Four misses out of 1000 stay beyond p99; more would move it.
        assert_eq!(quantile(&samples, 0.99).value, 5.0);
        assert_eq!(quantile(&samples, 0.999).value, 30_000.0);
    }
}
