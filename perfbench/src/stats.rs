//! Summary statistics the benchmark reports: medians, nearest-rank
//! percentiles and geometric means.

/// Median of `values`, averaging the two middle values of an even count.
/// `None` when `values` is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A nearest-rank percentile together with the sample count it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at rank `ceil(p / 100 * n)` of the sorted samples.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
    /// Samples ranked strictly after the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `values`. `None` when
/// `values` is empty or `p` is out of range.
pub fn percentile(values: &[f64], p: f64) -> Option<Percentile> {
    if values.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Smallest rank whose share of samples reaches p; the epsilon keeps
    // exact products such as 0.95 * 200 from rounding up a rank.
    let rank = ((p / 100.0 * n as f64) - 1e-9).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Geometric mean of strictly positive `values`. `None` when `values` is
/// empty or holds a value that is not positive and finite.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let mean_ln = values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64;
    Some(mean_ln.exp())
}

/// Arithmetic mean. `None` when `values` is empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles_count_the_samples_beyond() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let p50 = percentile(&values, 50.0).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (100.0, 200, 100));
        let p95 = percentile(&values, 95.0).unwrap();
        assert_eq!((p95.value, p95.beyond), (190.0, 10));
        let p100 = percentile(&values, 100.0).unwrap();
        assert_eq!((p100.value, p100.beyond), (200.0, 0));
        // Nearest rank never interpolates: ceil(0.95 * 7) = 7.
        let small = [5.0, 1.0, 7.0, 3.0, 2.0, 6.0, 4.0];
        let p = percentile(&small, 95.0).unwrap();
        assert_eq!((p.value, p.beyond), (7.0, 0));
        let p = percentile(&small, 50.0).unwrap();
        assert_eq!((p.value, p.beyond), (4.0, 3));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&small, 0.0), None);
    }

    #[test]
    fn geometric_mean() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        let g = geomean(&[2.0, 8.0, 4.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
