//! Order statistics over repeated host-time samples.

/// One metric's reported value with the median, quartiles and sample count
/// of the samples behind it.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Summary {
    /// The reported value: the median, or for a run's wall the fastest
    /// sample (see [`Summary::fastest`]).
    pub value: f64,
    /// The samples' median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples behind the median.
    pub n: usize,
}

impl Summary {
    /// A value that is computed, not sampled (simulated metrics, counts).
    pub fn exact(value: f64) -> Self {
        Self {
            value,
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Summarises `samples` (at least one) by their median.
    pub fn of(samples: &[f64]) -> Self {
        let (q1, median, q3) = quartiles(samples);
        Self {
            value: median,
            median,
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// Summarises repeated walls of the same deterministic work by the
    /// fastest one. Every repetition does identical work, so they differ
    /// only by what else the shared host was doing, and that only ever adds
    /// time: on this host the fastest repetition repeats from run to run
    /// within 1-2 %, the median within 7-20 % (BENCHMARK.md has the
    /// numbers). The median and quartiles stay beside it.
    pub fn fastest(samples: &[f64]) -> Self {
        Self {
            value: samples.iter().copied().fold(f64::INFINITY, f64::min),
            ..Self::of(samples)
        }
    }

    /// Applies a monotone map (e.g. seconds → cycles per second). A
    /// decreasing map swaps the quartiles so `q1 <= q3` still holds.
    pub fn map(self, f: impl Fn(f64) -> f64) -> Self {
        let (a, b) = (f(self.q1), f(self.q3));
        Self {
            value: f(self.value),
            median: f(self.median),
            q1: a.min(b),
            q3: a.max(b),
            n: self.n,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), so the
/// spreads printed here match the acceptance check's. One sample yields
/// itself three times.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty(), "no samples to summarise");
    let mut x = samples.to_vec();
    x.sort_by(f64::total_cmp);
    if x.len() == 1 {
        return (x[0], x[0], x[0]);
    }
    let m = x.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, x.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The median alone.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn decreasing_map_keeps_quartile_order() {
        let s = Summary::of(&[1.0, 2.0, 4.0]).map(|s| 1.0 / s);
        assert!(s.q1 <= s.median && s.median <= s.q3);
        assert_eq!(s.n, 3);
    }

    #[test]
    fn fastest_reports_the_minimum_beside_the_median() {
        let s = Summary::fastest(&[3.0, 1.0, 2.0]);
        assert_eq!((s.value, s.median, s.n), (1.0, 2.0, 3));
        // Cycles per second: the fastest wall is the highest rate.
        assert_eq!(s.map(|wall| 6.0 / wall).value, 6.0);
    }
}
