//! Order statistics and the windowed summaries the end-to-end metrics
//! are reported from.

/// Nearest-rank percentile (`q` in 0..=1) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (sorts in place; the mean of the two middle values
/// for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Throughput and latency of one window of a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub mib_s: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub samples: usize,
}

/// Cuts a timed phase of `seconds` into `count` equal windows by
/// completion time (an operation finishing after the last boundary
/// belongs to the last window) and summarises each as it closes, so
/// memory stays at one window's latencies however many operations run.
pub struct Recorder {
    width: f64,
    count: usize,
    latencies: Vec<f64>,
    bytes: u64,
    done: Vec<Window>,
}

impl Recorder {
    pub fn new(seconds: f64, count: usize) -> Recorder {
        Recorder {
            width: seconds / count as f64,
            count,
            latencies: Vec::new(),
            bytes: 0,
            done: Vec::with_capacity(count),
        }
    }

    /// Records one operation that completed `end_s` seconds into the
    /// phase.
    pub fn record(&mut self, end_s: f64, latency_us: f64, bytes: u64) {
        let window = ((end_s / self.width) as usize).min(self.count - 1);
        while self.done.len() < window {
            self.close();
        }
        self.latencies.push(latency_us);
        self.bytes += bytes;
    }

    fn close(&mut self) {
        self.latencies.sort_by(f64::total_cmp);
        self.done.push(Window {
            mib_s: self.bytes as f64 / (1 << 20) as f64 / self.width,
            p50_us: percentile(&self.latencies, 0.5),
            p90_us: percentile(&self.latencies, 0.9),
            p99_us: percentile(&self.latencies, 0.99),
            samples: self.latencies.len(),
        });
        self.latencies.clear();
        self.bytes = 0;
    }

    pub fn finish(mut self) -> Vec<Window> {
        while self.done.len() < self.count {
            self.close();
        }
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn windows_split_by_completion_time() {
        let mut rec = Recorder::new(1.0, 2);
        for i in 0..10 {
            rec.record(i as f64 * 0.1 + 0.05, 1.0 + i as f64, 1 << 20);
        }
        rec.record(1.5, 100.0, 0);
        let w = rec.finish();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].samples, 5);
        assert!((w[0].mib_s - 10.0).abs() < 1e-9);
        assert_eq!(w[1].samples, 6);
        assert_eq!(w[1].p50_us, 8.0);
    }
}
