//! Order statistics for timing samples.

/// Percentiles a timing summary may report as its tail, lowest first.
const TAILS: [f64; 3] = [0.90, 0.99, 0.999];

/// Median and tail of one set of samples.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest percentile in [`TAILS`] with at least ten samples
    /// beyond it (0.5 when fewer than 100 samples exist).
    pub tail_q: f64,
    /// The sample at `tail_q`.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples` (need not be sorted). Empty input gives zeros.
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let tail_q = TAILS
            .iter()
            .rev()
            .copied()
            .find(|q| (n as f64 * (1.0 - q)).floor() >= 10.0)
            .unwrap_or(0.5);
        Summary {
            n,
            p50: quantile(&v, 0.5),
            tail_q,
            tail: quantile(&v, tail_q),
        }
    }

    /// Percentile label of the tail, e.g. `p99`.
    pub fn tail_label(&self) -> String {
        let pct = format!("{:.1}", self.tail_q * 100.0);
        format!("p{}", pct.trim_end_matches(".0"))
    }
}

/// Nearest-rank `q`-quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `q`-quantile of unsorted samples.
pub fn quantile_of(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, q)
}

/// Median of unsorted samples; the mean of the middle pair for even counts.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.p50, s.tail_q, s.tail), (1000, 500.0, 0.99, 990.0));
        assert_eq!(Summary::of(&v[..999]).tail_q, 0.90);
        assert_eq!(Summary::of(&v[..99]).tail_q, 0.5);
        assert_eq!(s.tail_label(), "p99");
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
