//! Order statistics over timing samples.

/// Median of `samples` (mean of the two middle values for even counts);
/// NaN when every operation that should have produced a sample failed,
/// which the report then flags as a metric without a value.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Largest sample.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The `q`-quantile of at least one sample by the exclusive method
/// Python's `statistics.quantiles` uses, so spreads computed here match
/// the ones the acceptance procedure computes from the printed values.
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 1 {
        return s[0];
    }
    let pos = (q * (n + 1) as f64).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    let hi = (lo + 1).min(n);
    s[lo - 1] + frac * (s[hi - 1] - s[lo - 1])
}

/// Distance between the first and third quartile as a share of the
/// median; 0 when fewer than two samples exist or the median is 0.
pub fn iqr_share(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = median(samples);
    if m == 0.0 {
        return 0.0;
    }
    ((quantile(samples, 0.75) - quantile(samples, 0.25)) / m).abs()
}

/// 99th percentile by nearest rank (NaN without samples). Callers window
/// their samples so at least ten lie beyond it.
pub fn p99(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((s.len() as f64) * 0.99).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan() && p99(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&v, 0.25) - 2.75).abs() < 1e-12);
        assert!((quantile(&v, 0.75) - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn p99_is_nearest_rank() {
        let v: Vec<f64> = (1..=1200).map(f64::from).collect();
        assert_eq!(p99(&v), 1188.0);
        assert_eq!(p99(&[5.0]), 5.0);
    }
}
