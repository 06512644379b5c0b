//! Order statistics used for every reported number.

/// Samples a percentile must leave beyond it before it is reported: with
/// fewer, the value is set by one or two outliers and does not repeat.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `(0, 1)`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let rank = ((p * values.len() as f64).ceil() as usize).max(1);
    if values.len() < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted(values)[rank - 1])
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so spreads computed here and by
/// the driver agree. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let v = sorted(values);
    let n = v.len();
    let at = |i: usize| {
        // Position i·(n+1)/4, clamped to the sample like Python does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Run-to-run spread: inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 0.9),
            Some(90.0),
            "ten samples lie beyond the 90th"
        );
        assert_eq!(percentile(&v[..99], 0.9), None, "rank 90 of 99 leaves nine");
        assert_eq!(percentile(&v, 0.99), None);
        assert_eq!(percentile(&v[..12], 0.5), None, "rank 6 of 12 leaves six");
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert_eq!(spread(&v), 1.0);
    }
}
