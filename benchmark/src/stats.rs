//! Order statistics over timing samples: the median the gates use, the
//! quartiles `compare` reports, and the informational tail percentile.

/// Ascending copy of `samples`.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(samples, n=4)` (the "exclusive" method) so the
/// spreads printed here match the ones the driver computes. A single
/// sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The percentiles a tail may be reported at, ascending, in per mille so
/// ranks are exact integers.
const TAIL_LADDER_PER_MILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest ladder percentile with at least ten samples beyond it, and
/// the nearest-rank sample at that percentile; `None` below twenty
/// samples, where even the median has fewer than ten beyond it.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    let rank = |per_mille: usize| (per_mille * n).div_ceil(1000);
    let per_mille = TAIL_LADDER_PER_MILLE
        .iter()
        .rev()
        .copied()
        .find(|&pm| n >= rank(pm) + 10)?;
    Some((per_mille as f64 / 10.0, v[rank(per_mille).max(1) - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let n = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&n(5)), None);
        assert_eq!(tail(&n(19)), None);
        // 20 samples: only the median has ten beyond it.
        assert_eq!(tail(&n(20)), Some((50.0, 9.0)));
        assert_eq!(tail(&n(39)), Some((50.0, 19.0)));
        // 40 samples: p75 leaves exactly ten beyond.
        assert_eq!(tail(&n(40)), Some((75.0, 29.0)));
        assert_eq!(tail(&n(80)), Some((75.0, 59.0)));
        assert_eq!(tail(&n(100)), Some((90.0, 89.0)));
        assert_eq!(tail(&n(200)), Some((95.0, 189.0)));
        assert_eq!(tail(&n(1000)), Some((99.0, 989.0)));
        assert_eq!(tail(&n(10_000)), Some((99.9, 9989.0)));
    }
}
