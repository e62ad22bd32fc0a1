//! Order statistics for timing samples.
//!
//! Every timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples above it, together with the
//! sample count.  Percentiles use the nearest-rank definition on integer
//! per-ten-thousand levels, so the rule never depends on float rounding.

/// Percentile levels the benchmark may report, in 1/10000 units, lowest first.
const LEVELS: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// A tail percentile is reported only with at least this many samples
/// strictly above it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of level `p` (per ten thousand) among `n` samples.
fn rank(n: usize, p: u64) -> usize {
    let n64 = n as u64;
    ((p * n64).div_ceil(10_000) as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank position of level `p`.
pub fn beyond(n: usize, p: u64) -> usize {
    n - rank(n, p)
}

/// The highest level above the median with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even p90 is not supported.
pub fn tail_level(n: usize) -> Option<u64> {
    if n == 0 {
        return None;
    }
    LEVELS[1..]
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of already sorted data.
///
/// # Panics
/// Panics on empty input.
pub fn percentile_sorted(sorted: &[f64], p: u64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Median, reportable tail and count of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// `(level per ten thousand, value)` of the reportable tail percentile.
    pub tail: Option<(u64, f64)>,
}

impl Summary {
    /// Summarise `samples` (any order).
    ///
    /// # Panics
    /// Panics on empty input or a NaN sample.
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
        Self::of_sorted(&sorted)
    }

    /// Summarise already sorted samples.
    pub fn of_sorted(sorted: &[f64]) -> Self {
        Self {
            n: sorted.len(),
            median: percentile_sorted(sorted, 5_000),
            tail: tail_level(sorted.len()).map(|p| (p, percentile_sorted(sorted, p))),
        }
    }

    /// Human-readable form, e.g. `median 1.2, p99 3.4 (n=2000)`.
    pub fn describe(&self) -> String {
        match self.tail {
            Some((p, v)) => format!(
                "median {}, {} {} (n={})",
                self.median,
                level_name(p),
                v,
                self.n
            ),
            None => format!("median {} (n={})", self.median, self.n),
        }
    }
}

/// `9900` → `"p99"`, `9990` → `"p99.9"`.
pub fn level_name(p: u64) -> String {
    let whole = p / 100;
    let frac = p % 100;
    if frac == 0 {
        format!("p{whole}")
    } else if frac % 10 == 0 {
        format!("p{whole}.{}", frac / 10)
    } else {
        format!("p{whole}.{frac:02}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p90 of 99 samples has rank 90, so 9 beyond: unsupported.
        assert_eq!(tail_level(99), None);
        // p90 of 100 samples: rank 90, 10 beyond.
        assert_eq!(tail_level(100), Some(9_000));
        assert_eq!(beyond(100, 9_000), 10);
        // p99 needs 1000 samples (rank 990, 10 beyond); 999 gives 9.
        assert_eq!(tail_level(999), Some(9_000));
        assert_eq!(tail_level(1_000), Some(9_900));
        assert_eq!(tail_level(9_999), Some(9_900));
        assert_eq!(tail_level(10_000), Some(9_990));
        assert_eq!(tail_level(100_000), Some(9_999));
        assert_eq!(tail_level(0), None);
        assert_eq!(tail_level(3), None);
    }

    #[test]
    fn every_reported_tail_has_ten_samples_beyond() {
        for n in 1..5_000 {
            if let Some(p) = tail_level(n) {
                assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
                // No higher level would also qualify.
                if let Some(&higher) = LEVELS.iter().find(|&&l| l > p) {
                    assert!(beyond(n, higher) < MIN_BEYOND, "n={n} skipped {higher}");
                }
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 5_000), 50.0);
        assert_eq!(percentile_sorted(&v, 9_000), 90.0);
        assert_eq!(percentile_sorted(&v, 9_900), 99.0);
        assert_eq!(percentile_sorted(&[7.0], 9_999), 7.0);
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.median, s.tail), (3, 2.0, None));
        let s = Summary::of(&v);
        assert_eq!(s.tail, Some((9_000, 90.0)));
    }

    #[test]
    fn level_names() {
        assert_eq!(level_name(9_000), "p90");
        assert_eq!(level_name(9_990), "p99.9");
        assert_eq!(level_name(9_999), "p99.99");
    }
}
