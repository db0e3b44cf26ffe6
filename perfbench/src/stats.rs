//! Small statistics helpers shared by every workload: order statistics,
//! geometric means, failure tallies, seeds and the process's peak memory.

use std::time::Duration;

use ipim_simkit::rng::splitmix64;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q` of all
/// samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `(0, 1]`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "percentile {q} out of range");
    let s = sorted(xs);
    s[rank(s.len(), q) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `q`
/// percentile — the support of that tail estimate.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of no samples");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Attempted operations and the ones that failed, counted side by side so
/// a failure can never be reported without its base.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Attempted operations that failed (an error, a timeout or a wrong
    /// output).
    pub failed: u64,
}

impl Tally {
    /// Counts one attempt and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The share of attempts that succeeded.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// A seed for one independent stream of a run (`stream` names the use),
/// so adding a stream never shifts the values another stream draws.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
    splitmix64(&mut s)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(percentile(&xs, 0.01), 1.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tail_support_is_counted_beyond_the_rank() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(8, 0.5), 4);
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        for ok in [true, false, true, true] {
            t.record(ok);
        }
        assert_eq!(t, Tally { attempted: 4, failed: 1 });
        assert_eq!(t.ok_frac(), 0.75);
        assert_eq!(Tally::default().ok_frac(), 0.0, "no attempts is no success");
    }

    #[test]
    fn sub_seeds_are_stable_and_distinct() {
        assert_eq!(sub_seed(7, 1), sub_seed(7, 1));
        assert_ne!(sub_seed(7, 1), sub_seed(7, 2));
        assert_ne!(sub_seed(7, 1), sub_seed(8, 1));
    }
}
