//! Order statistics over samples.

/// Sorted copy of `samples` (NaN-free by construction of every caller).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of sorted samples, `q` in `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// The tail a timing is reported at: the highest percentile, up to the
/// 99th, that still has at least ten samples beyond it, and never below
/// the median. Returns `(value, percentile)`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let n = s.len();
    let q = if n > 11 {
        ((n - 11) as f64 / (n - 1) as f64).min(0.99)
    } else {
        0.0
    }
    .max(0.5);
    (quantile(&s, q), q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..1001).map(f64::from).collect();
        assert_eq!(tail(&xs), (990.0, 0.99));
        let xs: Vec<f64> = (0..101).map(f64::from).collect();
        let (v, q) = tail(&xs);
        assert_eq!(v, 90.0);
        assert!((q - 0.9).abs() < 1e-12);
        assert_eq!(tail(&[1.0, 2.0, 3.0]), (2.0, 0.5));
    }
}
