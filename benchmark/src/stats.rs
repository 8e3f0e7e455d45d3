//! Sample summaries: medians with n/min/max, and tail percentiles that are
//! reported only where the sample supports them.

/// Median, extremes and count of a sample.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// The `n=.. min=.. max=..` note printed beside a median.
    pub fn note(&self) -> String {
        format!("median of n={} min={} max={}", self.n, self.min, self.max)
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

/// Summarizes a sample; an empty sample summarizes to all zeros.
pub fn summarize(xs: &[f64]) -> Summary {
    if xs.is_empty() {
        return Summary::default();
    }
    let v = sorted(xs);
    let mid = v.len() / 2;
    let median = if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    };
    Summary {
        n: v.len(),
        median,
        min: v[0],
        max: v[v.len() - 1],
    }
}

/// Median of a sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    summarize(xs).median
}

/// The highest of p99.9/p99/p95/p90/p75 that has at least ten samples
/// beyond it, as `(percentile, value)`; `None` below 40 samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len() as f64;
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .map(|p| {
            let rank = ((p / 100.0 * n).ceil() as usize).clamp(1, v.len());
            (p, v[rank - 1])
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some(99.0));
        assert_eq!(tail(&xs[..200]).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&xs[..39]), None);
    }
}
