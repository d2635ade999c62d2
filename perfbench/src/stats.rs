//! Order statistics over raw samples, and deltas between two snapshots
//! of an obs registry (the hub's or the client's).

use deeplake_obs::{HistogramSnapshot, MetricsSnapshot};

/// The sample at rank `round(q · (n − 1))` of the sorted values (the
/// rank rule the obs histograms use); NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean; 0 when empty (a per-layer total over no work).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What a registry recorded between two snapshots of it.
pub struct Delta<'a> {
    pub before: &'a MetricsSnapshot,
    pub after: &'a MetricsSnapshot,
}

impl Delta<'_> {
    pub fn counter(&self, name: &str) -> f64 {
        let get = |s: &MetricsSnapshot| s.counter(name).unwrap_or(0);
        get(self.after).saturating_sub(get(self.before)) as f64
    }

    /// The histogram's samples recorded in between (bucket-wise
    /// difference; `max` is the later snapshot's, an upper bound).
    pub fn hist(&self, name: &str) -> HistogramSnapshot {
        let empty = HistogramSnapshot::default();
        let a = self.after.histogram(name).unwrap_or(&empty);
        let b = self.before.histogram(name).unwrap_or(&empty);
        let buckets = a
            .buckets
            .iter()
            .map(|&(i, n)| {
                let old = b
                    .buckets
                    .iter()
                    .find(|&&(j, _)| j == i)
                    .map_or(0, |&(_, m)| m);
                (i, n.saturating_sub(old))
            })
            .filter(|&(_, n)| n > 0)
            .collect();
        HistogramSnapshot {
            count: a.count.saturating_sub(b.count),
            sum: a.sum.saturating_sub(b.sum),
            max: a.max,
            buckets,
        }
    }

    /// Quantile of the in-between samples, in ms.
    pub fn quantile_ms(&self, name: &str, q: f64) -> f64 {
        self.hist(name).quantile(q) as f64 / 1e6
    }

    /// Sum of the in-between samples, in ms.
    pub fn sum_ms(&self, name: &str) -> f64 {
        self.hist(name).sum as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(median(&v), 51.0);
        assert_eq!(quantile(&v, 0.99), 100.0);
        assert!(median(&[]).is_nan());
        assert_eq!(mean([1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
