//! Order statistics of repeated timings.

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile, by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`; `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((q(1), q(3)))
}

/// The tail sample: the highest one with at least `beyond` samples above
/// it, with its percentile rank. `None` when there are too few samples.
pub fn tail(xs: &[f64], beyond: usize) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    let k = n.checked_sub(beyond + 1)?;
    Some(Tail { value: s[k], percentile: 100.0 * (k + 1) as f64 / n as f64, samples: n })
}

/// A tail sample and where it sits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample.
    pub value: f64,
    /// Its percentile rank: the share of samples at or below it, in %.
    pub percentile: f64,
    /// How many samples there were.
    pub samples: usize,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[5.0, 1.0]), Some((0.0, 6.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let t = tail(&xs, 10).unwrap();
        assert_eq!(t.value, 30.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(t.samples, 40);
    }

    #[test]
    fn tail_needs_more_samples_than_it_keeps_beyond() {
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&xs, 10), None);
        let t = tail(&[xs.as_slice(), &[99.0]].concat(), 10).unwrap();
        assert_eq!((t.value, t.samples), (0.0, 11));
    }
}
