//! Small numerical helpers of the Monte-Carlo estimators.

/// Arithmetic mean; 0 for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The `q`-th percentile (0 ≤ q ≤ 100) using nearest-rank on a sorted copy.
/// Returns 0 for an empty slice.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| {
        a.partial_cmp(b)
            .expect("percentile input must not contain NaN")
    });
    let rank = ((q / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0, 6.0]), 4.0);
        assert_eq!(mean(&[5.0]), 5.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Unsorted input is handled.
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 100.0), 5.0);
    }

    /// The estimators score a trial's fairness with `gdp_sim::jain_index`.
    #[test]
    fn jain_index_extremes() {
        use gdp_sim::jain_index;
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0, 0]), 1.0);
        assert!((jain_index(&[3, 3, 3]) - 1.0).abs() < 1e-12);
        let skewed = jain_index(&[10, 0, 0, 0]);
        assert!((skewed - 0.25).abs() < 1e-12);
    }
}
