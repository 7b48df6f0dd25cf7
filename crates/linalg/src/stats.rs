//! Small statistics helpers for dataset normalisation and metrics.

/// Arithmetic mean; `0.0` for an empty slice.
///
/// # Example
///
/// ```
/// assert_eq!(dfr_linalg::stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Population standard deviation; `0.0` for slices shorter than 2.
pub fn std_dev(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let m = mean(v);
    (v.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt()
}

/// Index of the largest element, breaking ties toward the lower index.
///
/// Returns `None` for an empty slice.
///
/// # Example
///
/// ```
/// assert_eq!(dfr_linalg::stats::argmax(&[0.1, 0.7, 0.2]), Some(1));
/// ```
pub fn argmax(v: &[f64]) -> Option<usize> {
    if v.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, &x) in v.iter().enumerate().skip(1) {
        if x > v[best] {
            best = i;
        }
    }
    Some(best)
}

/// Minimum and maximum of a slice as `(min, max)`.
///
/// Returns `None` for an empty slice.
pub fn min_max(v: &[f64]) -> Option<(f64, f64)> {
    let first = *v.first()?;
    Some(
        v.iter()
            .fold((first, first), |(lo, hi), &x| (lo.min(x), hi.max(x))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&v), 5.0);
        assert!((std_dev(&v) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_slices() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(argmax(&[]), None);
        assert_eq!(min_max(&[]), None);
    }

    #[test]
    fn argmax_ties_go_low() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
    }

    #[test]
    fn min_max_known() {
        assert_eq!(min_max(&[3.0, -1.0, 2.0]), Some((-1.0, 3.0)));
    }
}
