//! Summary statistics: medians, quartiles, the tail-percentile rule,
//! and failed-op accounting.

/// The percentile ladder the tail rule climbs. Fixed rungs (rather than
/// "the 11th-largest sample") keep the reported tail from drifting with
/// the sample count inside one band of run lengths.
pub const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples a tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0–100) of `sorted` by linear interpolation
/// between closest ranks, the same rule as Python's
/// `statistics.quantiles(..., method="inclusive")`.
///
/// # Panics
///
/// Panics if `sorted` is empty.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sorts a copy of `values` (NaN-free by construction of every caller).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (its default
/// "exclusive" method, which extrapolates for very small samples), so a
/// run set's spread reads the same here as in `perfbench/spread.py`.
///
/// # Panics
///
/// Panics if fewer than two values are given.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let s = sorted(values);
    let n = s.len();
    let m = n + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The tail of a latency sample: the highest percentile on
/// [`TAIL_LADDER`] that still has at least [`TAIL_MIN_BEYOND`] samples
/// strictly beyond its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile chosen.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked beyond it.
    pub beyond: usize,
}

/// Applies the tail rule to `values`. `None` when even the median has
/// fewer than [`TAIL_MIN_BEYOND`] samples beyond it.
#[must_use]
pub fn tail(values: &[f64]) -> Option<Tail> {
    let s = sorted(values);
    let n = s.len();
    TAIL_LADDER
        .iter()
        .rev()
        .map(|&p| (p, beyond(n, p)))
        .find(|&(_, b)| b >= TAIL_MIN_BEYOND)
        .map(|(p, b)| Tail {
            percentile: p,
            value: percentile(&s, p),
            samples: n,
            beyond: b,
        })
}

/// Samples ranked strictly beyond the `p`-th percentile of `n` samples:
/// those whose 0-based rank exceeds the interpolation rank.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = p / 100.0 * (n - 1) as f64;
    n - 1 - rank.floor() as usize
}

/// Attempted and failed ops of one run. An op fails when it errors, is
/// refused, or its output does not match the reference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops started.
    pub attempted: u64,
    /// Ops that failed, were refused, or produced a wrong output.
    pub failed: u64,
}

impl Tally {
    /// Counts one op and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts a correctness check made outside any op: it adds no
    /// attempt, but a mismatch fails one op's worth of output.
    pub fn check(&mut self, ok: bool) {
        self.failed += u64::from(!ok);
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed / attempted`, or 1 when nothing was attempted (a run that
    /// did no work cannot vouch for anything).
    #[must_use]
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            (self.failed as f64 / self.attempted as f64).min(1.0)
        }
    }

    /// `true` when at least one op ran and none failed.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}
