//! Order statistics with the benchmark's tail rule.

/// Median (mean of the two middle values on an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail percentile together with the sample it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Nearest-rank percentile actually reported, in percent.
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The nearest-rank `want` percentile (e.g. 99.0), lowered when needed to
/// the highest percentile that still has at least [`TAIL_MIN_BEYOND`]
/// samples beyond it. With 72 samples a "p99" is really the maximum; this
/// reports p84.7 instead and says so. Returns `None` when the sample is
/// too small for any percentile to have ten samples beyond it.
pub fn tail(xs: &[f64], want: f64) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank (1-based) of the wanted percentile, capped so that
    // `n - rank >= TAIL_MIN_BEYOND` samples stay above it.
    let wanted_rank = ((want / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = wanted_rank.min(n - TAIL_MIN_BEYOND);
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
