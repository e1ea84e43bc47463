//! Sample summaries and the report every run prints.

use std::fmt::Write as _;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, linearly interpolated between
/// the two nearest ranks. `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values`.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Milliseconds in a duration, with every digit the clock gave.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB, or `None`
/// where `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What one run measured and whether its outputs were correct.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// A traced run reports per-layer metrics; an untraced one reports
    /// end-to-end metrics.
    pub traced: bool,
    /// Free-form lines printed before the metrics (config, breakdowns).
    pub notes: Vec<String>,
    /// Every correctness violation seen; a run is correct when empty.
    pub violations: Vec<String>,
    /// Operations attempted (reads sent plus commits tried).
    pub attempted: u64,
    /// Operations that failed (non-2xx, connection error, body mismatch,
    /// commit `Err`).
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records a metric. A metric without samples is a violation: every
    /// metric the run promises must be measured.
    pub fn metric(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(value) if value.is_finite() => self.metrics.push(Metric { name, value, unit }),
            _ => self.violate(format!("metric {name} has no samples")),
        }
    }

    /// Records an end-to-end metric: a metric in an untraced run, a note
    /// (the traced value, for the tracing overhead) in a traced one.
    pub fn end_to_end(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        if !self.traced {
            self.metric(name, value, unit);
        } else if let Some(v) = value {
            self.note(format!("traced {name} {v:.4} {unit}"));
        }
    }

    /// Records a per-layer metric; only a traced run reports them.
    pub fn per_layer(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        if self.traced {
            self.metric(name, value, unit);
        }
    }

    /// Records a correctness violation.
    pub fn violate(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    /// A free-form line for the human-readable part of the output.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// `true` when no check failed and no operation failed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// The full output: notes, violations, one `name value unit` line per
    /// metric, then the JSON result as the last line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.notes {
            let _ = writeln!(out, "{line}");
        }
        for v in self.violations.iter().take(20) {
            let _ = writeln!(out, "CHECK FAILED: {v}");
        }
        if self.violations.len() > 20 {
            let _ = writeln!(out, "CHECK FAILED: … {} more", self.violations.len() - 20);
        }
        for m in &self.metrics {
            let _ = writeln!(out, "{:<28} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(out, "{}", self.json());
        out
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn json_is_one_line_with_every_metric() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("a_ms", Some(1.5), "ms");
        r.metric("b", Some(2.0), "count");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
        r.metric("c", None, "ms");
        assert!(!r.correct());
    }
}
