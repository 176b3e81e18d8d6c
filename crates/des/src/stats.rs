//! Summary statistics for the experiment harness.

/// Geometric mean of positive ratios (speedups, normalized times).
///
/// Returns `None` for an empty input. Non-positive entries are rejected with
/// a panic since a geomean over them is meaningless.
///
/// # Panics
///
/// Panics if any value is not strictly positive.
///
/// # Examples
///
/// ```
/// use fluidicl_des::geomean;
///
/// let g = geomean(&[2.0, 8.0]).unwrap();
/// assert!((g - 4.0).abs() < 1e-12);
/// ```
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(
                v > 0.0,
                "geomean requires strictly positive values, got {v}"
            );
            v.ln()
        })
        .sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), None);
        assert!((geomean(&[3.0]).unwrap() - 3.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[1.0, 0.0]);
    }
}
