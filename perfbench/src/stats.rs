//! Order statistics for latency samples.

/// The percentile ladder a tail is reported from, in percent.
const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples needed beyond a percentile before it is worth reporting.
const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice (`q` in `0.0..=1.0`);
/// NaN for no samples, which the result check then rejects.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`,
/// counted in integers so that 99.9% of 10 000 is exactly 9 990.
fn beyond(n: usize, p: f64) -> usize {
    let milli = (p * 1000.0).round() as usize; // thousandths of a percent
    n - (n * milli).div_ceil(100_000)
}

/// The highest ladder percentile that has at least ten samples beyond it,
/// or `None` when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Values grouped by the window their timestamp falls in: window `k`
/// holds the values of samples at `k * width <= t < (k + 1) * width`.
/// Windows that end after `span` are dropped as partial; a span shorter
/// than one window is one window.
pub fn windows(samples: &[(f64, f64)], width: f64, span: f64) -> Vec<Vec<f64>> {
    let width = width.min(span);
    let n = (span / width).floor() as usize;
    let mut out = vec![Vec::new(); n];
    for &(t, v) in samples {
        let k = (t / width).floor();
        if k >= 0.0 && (k as usize) < n {
            out[k as usize].push(v);
        }
    }
    out
}

/// Median over windows of each window's `q` quantile — a figure that a
/// short host stall, confined to a few windows, cannot move. Empty
/// windows are skipped.
pub fn windowed_quantile(windows: &[Vec<f64>], q: f64) -> f64 {
    let per: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| {
            let mut v = w.clone();
            v.sort_by(f64::total_cmp);
            quantile(&v, q)
        })
        .collect();
    median(&per)
}

/// Summary of one latency sample set, in milliseconds.
#[derive(Debug, Clone)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// `(percentile, value)` by the ten-beyond rule.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let tail = tail_percentile(v.len()).map(|p| (p, quantile(&v, p / 100.0)));
        Summary {
            n: v.len(),
            p50: quantile(&v, 0.5),
            p90: quantile(&v, 0.9),
            p99: quantile(&v, 0.99),
            tail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.999));
    }

    #[test]
    fn a_stall_in_one_window_does_not_move_the_windowed_quantile() {
        let mut samples: Vec<(f64, f64)> = (0..1000).map(|i| (i as f64 / 100.0, 1.0)).collect();
        // two seconds of stalled replies, all ten times slower
        for s in samples.iter_mut().filter(|s| (3.0..5.0).contains(&s.0)) {
            s.1 = 10.0;
        }
        let w = windows(&samples, 1.0, 10.0);
        assert_eq!(w.len(), 10);
        assert!(w.iter().all(|w| w.len() == 100));
        assert_eq!(windowed_quantile(&w, 0.9), 1.0);
        let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(Summary::of(&all).p90, 10.0, "the pooled p90 moves");
        // a partial trailing window is dropped; a short span is one window
        assert_eq!(windows(&samples, 3.0, 10.0).len(), 3);
        assert_eq!(windows(&samples, 20.0, 10.0).len(), 1);
        assert!(windowed_quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let s = Summary::of(&v);
        assert_eq!((s.n, s.p50, s.p90), (100, 50.0, 90.0));
        assert_eq!(s.tail, Some((90.0, 90.0)));
    }
}
