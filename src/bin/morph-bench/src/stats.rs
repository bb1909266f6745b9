//! Summary statistics over repeated runs: median and quartiles, with the
//! quartiles computed exactly as Python's `statistics.quantiles(values,
//! n=4)` (the default "exclusive" method), so the spreads this tool
//! prints match the ones recomputed from the raw samples in Python.

/// Median, first and third quartile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`; `None` for an empty set. With a single value
    /// every statistic is that value.
    pub fn of(values: &[f64]) -> Option<Self> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let median = median_sorted(&v)?;
        let (q1, q3) = if v.len() < 2 {
            (median, median)
        } else {
            (exclusive_quartile(&v, 1), exclusive_quartile(&v, 3))
        };
        Some(Self { median, q1, q3 })
    }

    /// Interquartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

fn median_sorted(v: &[f64]) -> Option<f64> {
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Quartile `i` (1..=3) of sorted `v` (at least two values) by the
/// exclusive method: position `i * (n + 1) / 4`, clamped to the data and
/// linearly interpolated.
fn exclusive_quartile(v: &[f64], i: usize) -> f64 {
    let (n, parts) = (v.len(), 4);
    let m = n + 1;
    let j = (i * m / parts).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * parts) as f64;
    (v[j - 1] * (parts as f64 - delta) + v[j] * delta) / parts as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        let median = |v: &[f64]| Summary::of(v).map(|s| s.median);
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten).unwrap();
        assert!(close(s.q1, 2.75) && close(s.median, 5.5) && close(s.q3, 8.25));
        // statistics.quantiles([7, 1, 4, 2, 9], n=4) == [1.5, 4.0, 8.0]
        let s = Summary::of(&[7.0, 1.0, 4.0, 2.0, 9.0]).unwrap();
        assert!(close(s.q1, 1.5) && close(s.median, 4.0) && close(s.q3, 8.0));
        // Two values: the clamp keeps both quartiles inside the data.
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert!(close(s.q1, 0.75) && close(s.q3, 2.25));
        assert!(close(s.spread(), 1.5 / 1.5));
    }

    #[test]
    fn degenerate_sets() {
        assert_eq!(Summary::of(&[]), None);
        let one = Summary::of(&[4.0]).unwrap();
        assert_eq!((one.q1, one.median, one.q3), (4.0, 4.0, 4.0));
        assert_eq!(one.spread(), 0.0);
        assert_eq!(Summary::of(&[0.0, 0.0]).unwrap().spread(), 0.0);
    }
}
