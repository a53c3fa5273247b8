//! Percentiles and the metric report.

/// Percentile ladder for the tail rule: the reported tail is the highest
/// of these with at least [`TAIL_MIN_BEYOND`] samples beyond it.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];
const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0–100) among `n` samples. The
/// small offset keeps `p·n/100` landing exactly on an integer, such as
/// 90 % of 100, from rounding up past it.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted`; 0 when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// The highest ladder percentile that `n` samples support: at least ten
/// samples lie beyond it. `None` below 20 samples (not even the median
/// has ten beyond it).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .rev()
        .find(|&p| n >= rank(p, n) + TAIL_MIN_BEYOND)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Latency samples in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn pct(&self, p: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        percentile(&v, p)
    }

    /// Prints `<prefix>_samples`, plus the tail the sample count supports
    /// (`<prefix>_tail_pct`, `<prefix>_tail_ms`), as the percentile rule
    /// asks.
    pub fn report_tail(&self, report: &mut Report, prefix: &str) {
        report.metric(&format!("{prefix}_samples"), self.len() as f64, "count");
        if let Some(p) = tail_percentile(self.len()) {
            report.metric(&format!("{prefix}_tail_pct"), p, "%");
            report.metric(&format!("{prefix}_tail_ms"), self.pct(p), "ms");
        }
    }
}

/// Every number a run prints, in print order. The ones named in
/// `BENCHMARK.json` also go to the final JSON line.
#[derive(Debug, Default)]
pub struct Report {
    lines: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        // A non-finite value (an empty ratio) would make invalid JSON.
        let value = if value.is_finite() { value } else { 0.0 };
        self.lines.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.lines.iter().find(|(n, _, _)| n == name).map(|l| l.1)
    }

    pub fn unit(&self, name: &str) -> Option<&str> {
        self.lines.iter().find(|(n, _, _)| n == name).map(|l| l.2)
    }

    pub fn print_lines(&self) {
        for (name, value, unit) in &self.lines {
            println!("{name} {value} {unit}");
        }
    }

    /// The result object: `names` select the metrics (missing ones are a
    /// bug in the benchmark, reported as `correct: false` by the caller).
    pub fn json(&self, names: &[&str], correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = names
            .iter()
            .filter_map(|name| {
                let (_, value, unit) = self.lines.iter().find(|(n, _, _)| n == name)?;
                Some(format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                ))
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn json_has_exactly_the_result_keys() {
        let mut r = Report::default();
        r.metric("lat_p50_ms", 1.25, "ms");
        r.metric("empty_ratio", f64::NAN, "ratio");
        r.metric("not_selected", 7.0, "count");
        let json = r.json(&["lat_p50_ms", "empty_ratio"], true, 10, 0);
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"lat_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"empty_ratio\": {\"value\": 0, \"unit\": \"ratio\"}}}"
        );
    }
}
