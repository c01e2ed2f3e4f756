//! Sample summaries: nearest-rank percentiles, medians and means.

use std::time::Duration;

/// A bag of measurements, summarised on demand.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one measurement.
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    /// Adds every measurement of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no measurement was taken.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sum of the measurements.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Arithmetic mean, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// Nearest-rank `p`-quantile (`0 < p ≤ 1`), 0 when empty.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = (p * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    /// The median (nearest-rank), 0 when empty.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The measurements, in the order taken, as a JSON array.
    pub fn record(&self) -> serde_json::Value {
        serde_json::Value::Array(
            self.0
                .iter()
                .map(|&x| serde_json::Value::Float(x))
                .collect(),
        )
    }
}

/// Read latencies and the queries the reads answered.
#[derive(Clone, Debug, Default)]
pub struct Reads {
    ms: Samples,
    queries: u64,
}

impl Reads {
    /// Records one read that took `ms` and answered `queries` queries.
    pub fn push(&mut self, ms: f64, queries: u64) {
        self.ms.push(ms);
        self.queries += queries;
    }

    /// Adds another client's reads.
    pub fn extend(&mut self, o: &Reads) {
        self.ms.extend(&o.ms);
        self.queries += o.queries;
    }

    /// Number of reads.
    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// Whether no read was recorded.
    pub fn is_empty(&self) -> bool {
        self.ms.is_empty()
    }

    /// Queries answered.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Median read latency, ms.
    pub fn p50_ms(&self) -> f64 {
        self.ms.median()
    }

    /// 99th-percentile read latency, ms.
    pub fn p99_ms(&self) -> f64 {
        self.ms.quantile(0.99)
    }

    /// Queries answered per second of a phase that lasted `span_s`.
    pub fn qps(&self, span_s: f64) -> f64 {
        ratio(self.queries as f64, span_s)
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for x in 1..=100 {
            s.push(x as f64);
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(Samples::default().median(), 0.0);
    }
}
