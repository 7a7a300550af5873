//! Order statistics the benchmark reports: medians, quartiles, the tail
//! percentile and geometric means.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile with the same method as Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive"
/// interpolation at positions `(n+1)·k/4`). `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let m = (n + 1) * k;
        let j = (m / 4).clamp(1, n - 1);
        // Not clamped: like Python, small samples extrapolate.
        let delta = (m as f64 - 4.0 * j as f64) / 4.0;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// The tail of a latency sample: the highest percentile that still has
/// at least `beyond` samples above it, i.e. the `(beyond+1)`-th largest
/// sample. Returns `(value, percentile in 0..100, sample count)`, or
/// `None` when there are not more than `beyond` samples.
pub fn tail(values: &[f64], beyond: usize) -> Option<(f64, f64, usize)> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n <= beyond {
        return None;
    }
    let idx = n - 1 - beyond;
    Some((sorted[idx], 100.0 * (n - beyond) as f64 / n as f64, n))
}

/// The tail of a long sample, steadied against rare stalls: the median,
/// over consecutive blocks of `block` samples, of each block's [`tail`].
/// With fewer than two full blocks it is the [`tail`] of all samples.
/// Returns `(value, percentile, samples per block, blocks)`.
pub fn blocked_tail(
    values: &[f64],
    block: usize,
    beyond: usize,
) -> Option<(f64, f64, usize, usize)> {
    let blocks = values.len() / block.max(1);
    if blocks < 2 {
        let (v, pct, n) = tail(values, beyond)?;
        return Some((v, pct, n, 1));
    }
    let tails: Vec<(f64, f64)> = values
        .chunks_exact(block)
        .filter_map(|c| tail(c, beyond).map(|(v, pct, _)| (v, pct)))
        .collect();
    let pct = tails.first()?.1;
    let v: Vec<f64> = tails.iter().map(|t| t.0).collect();
    Some((median(&v)?, pct, block, blocks))
}

/// Geometric mean of positive values; `None` when empty or any value is
/// not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([7, 9], n=4) == [6.5, 8.0, 9.5]: the
        // exclusive method extrapolates, and so do we.
        assert_eq!(quartiles(&[9.0, 7.0]), Some((6.5, 9.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ten samples (91..=100) lie above 90: the 90th percentile.
        let (value, pct, n) = tail(&v, 10).unwrap();
        assert_eq!((value, n), (90.0, 100));
        assert!((pct - 90.0).abs() < 1e-12);
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let (value, pct, _) = tail(&v, 10).unwrap();
        assert_eq!(value, 1990.0);
        assert!((pct - 99.5).abs() < 1e-12);
        // Exactly `beyond` samples: no percentile has ten beyond it.
        assert_eq!(tail(&v[..10], 10), None);
        let (value, _, _) = tail(&v[..11], 10).unwrap();
        assert_eq!(value, 1.0);
    }

    #[test]
    fn blocked_tail_ignores_one_stalled_block() {
        // Three blocks of 100; the middle one holds a stall of 20 slow
        // samples. Each block's tail is its 11th largest sample.
        let mut v: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        for x in &mut v[100..120] {
            *x = 1000.0;
        }
        let (value, pct, block, blocks) = blocked_tail(&v, 100, 10).unwrap();
        assert_eq!((value, block, blocks), (89.0, 100, 3));
        assert!((pct - 90.0).abs() < 1e-12);
        // The pooled tail lands inside the stall.
        assert_eq!(tail(&v, 10).unwrap().0, 1000.0);
        // Under two full blocks: the plain tail.
        assert_eq!(
            blocked_tail(&v[..150], 100, 10),
            tail(&v[..150], 10).map(|(a, b, c)| (a, b, c, 1))
        );
    }

    #[test]
    fn geomean_of_positive_values() {
        assert!((geomean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }
}
