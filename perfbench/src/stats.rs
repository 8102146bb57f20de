//! Order statistics over timing samples.

/// Samples of one timing or ratio, summarised by order statistics.
/// Stored as `f32`, so a run's own bookkeeping stays small next to the
/// program's memory, which the benchmark reports.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f32>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value as f32);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between
    /// order statistics; `0.0` when there are no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f32::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        let (a, b) = (f64::from(sorted[lo]), f64::from(sorted[hi]));
        a + (b - a) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Whether at least ten samples lie beyond the `q`-quantile, the
    /// least support a tail percentile is reported with.
    pub fn supports(&self, q: f64) -> bool {
        (self.0.len() as f64 * (1.0 - q)).floor() >= 10.0
    }
}

/// Median, p90 and p99 of latencies in milliseconds with the sample
/// count; the p99 only where the samples support it.
pub fn latency_summary(ms: &Samples) -> String {
    let p99 = if ms.supports(0.99) {
        format!("{:.4} ms", ms.quantile(0.99))
    } else {
        "n/a (fewer than 10 samples beyond it)".into()
    };
    format!(
        "latency p50 {:.4} ms, p90 {:.4} ms, p99 {p99} over {} samples",
        ms.median(),
        ms.quantile(0.9),
        ms.len()
    )
}
