//! Order statistics used by every metric: median, interpolated
//! percentiles and the "tail" percentile with a fixed count behind it.

/// Percentiles a `_tail` metric may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Linear-interpolated percentile `p` (0–100) of `values`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// A tail reading: the value, the percentile it was taken at, and how
/// many samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. With too few samples for even
/// the median to qualify, the maximum is reported (percentile 100).
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    for p in TAIL_LADDER {
        let beyond = (n as f64 * (1.0 - p / 100.0)).floor() as usize;
        if beyond >= TAIL_MIN_BEYOND {
            return Tail {
                value: percentile(values, p),
                percentile: p,
                samples: n,
            };
        }
    }
    Tail {
        value: percentile(values, 100.0),
        percentile: 100.0,
        samples: n,
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.samples, 1000);
        let few: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(tail(&few).percentile, 75.0);
        assert_eq!(tail(&[1.0, 5.0, 3.0]).value, 5.0);
    }
}
