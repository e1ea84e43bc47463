//! End-to-end samples, and the run split across processes.
//!
//! Memory-bound work on a small shared box runs up to ±10% faster or
//! slower from one process to the next (a bare `Site::clone` loop does).
//! An untraced run therefore sets up and measures in several child
//! processes, one after another, each with its own seed and the same share
//! of every phase, and takes each metric over the samples of all of them
//! pooled: the commits of every process, and the windows of every read
//! phase. `setup_s` is the median of every set-up they timed.
//!
//! Each read phase is cut into [`WINDOWS`](crate::serve::WINDOWS) windows of
//! time; a window's statistic (rate, p50, p90) is one sample, so a stall of
//! the box moves a few windows' values rather than the whole phase's.

use crate::stats::{median, quantile, Report};
use crate::workload::{run_process, Config};
use navsep_web::ShardedSiteHandler;
use std::process::Command;

/// The raw end-to-end samples of one process.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    /// Wall time of the set-up, in s.
    pub setup_s: Vec<f64>,
    /// `VmHWM` at the end of the workload, in MiB.
    pub peak_rss_mb: Vec<f64>,
    /// Per window of the read phase: its length in s, and the latency of
    /// each successful read sent in it, in µs.
    pub read_windows: Vec<(f64, Vec<f64>)>,
    /// `SitePublisher::commit` time of each data-edit batch, in ms.
    pub edit_ms: Vec<f64>,
    /// `SitePublisher::commit` time of each spec batch, in ms.
    pub spec_ms: Vec<f64>,
}

impl Samples {
    fn fields(&self) -> [(&'static str, &Vec<f64>); 4] {
        [
            ("setup_s", &self.setup_s),
            ("peak_rss_mb", &self.peak_rss_mb),
            ("edit_ms", &self.edit_ms),
            ("spec_ms", &self.spec_ms),
        ]
    }

    fn field(&mut self, name: &str) -> Option<&mut Vec<f64>> {
        Some(match name {
            "setup_s" => &mut self.setup_s,
            "peak_rss_mb" => &mut self.peak_rss_mb,
            "edit_ms" => &mut self.edit_ms,
            "spec_ms" => &mut self.spec_ms,
            _ => return None,
        })
    }
}

/// Adds the end-to-end metrics of `parts` (one entry per process) to
/// `report`.
pub fn end_to_end(parts: &[Samples], report: &mut Report) {
    let pooled = |f: &dyn Fn(&Samples) -> &Vec<f64>| -> Vec<f64> {
        parts.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    report.end_to_end("setup_s", median(&pooled(&|p| &p.setup_s)), "s");
    report.end_to_end("peak_rss_mb", median(&pooled(&|p| &p.peak_rss_mb)), "MB");
    let windows: Vec<&(f64, Vec<f64>)> = parts.iter().flat_map(|p| &p.read_windows).collect();
    let per_window = |f: &dyn Fn(f64, &[f64]) -> Option<f64>| -> Option<f64> {
        median(
            &windows
                .iter()
                .filter_map(|(s, w)| f(*s, w))
                .collect::<Vec<_>>(),
        )
    };
    let read_p50 = per_window(&|_, w| median(w));
    report.end_to_end("read_p50_us", read_p50, "us");
    // Printed beside the metrics but not among them: while the hypervisor
    // steals CPU time, a read that must wake the other core waits for the
    // host, and these two moved by 2x between runs of the same code.
    let rps = per_window(&|s, w| (s > 0.0).then(|| w.len() as f64 / s));
    let read_p90 = per_window(&|_, w| quantile(w, 0.9));
    for (name, value, unit) in [("read_rps", rps, "req/s"), ("read_p90_us", read_p90, "us")] {
        if let Some(v) = value {
            report.note(format!(
                "{name} {v:.4} {unit} (printed, not a benchmark metric)"
            ));
        }
    }
    let edits = pooled(&|p| &p.edit_ms);
    let edit_p50 = median(&edits);
    report.end_to_end("publish_edit_p50_ms", edit_p50, "ms");
    report.end_to_end("publish_edit_p90_ms", quantile(&edits, 0.9), "ms");
    report.end_to_end("publish_spec_ms", median(&pooled(&|p| &p.spec_ms)), "ms");
    // The traced values of two end-to-end metrics, for the tracing overhead.
    report.per_layer("trace.read_p50_us", read_p50, "us");
    report.per_layer("trace.publish_edit_p50_ms", edit_p50, "ms");
}

/// What one child process prints: its report's counts, notes and
/// violations, then its samples, one line each.
pub fn encode(report: &Report, samples: &Samples) -> String {
    let mut out = format!("attempted {}\nfailed {}\n", report.attempted, report.failed);
    for note in &report.notes {
        out.push_str(&format!("note {note}\n"));
    }
    for v in &report.violations {
        out.push_str(&format!("violation {}\n", v.replace('\n', " ")));
    }
    let line = |name: &str, values: &[f64]| {
        let text: Vec<String> = values.iter().map(f64::to_string).collect();
        format!("{name} {}\n", text.join(" "))
    };
    for (name, values) in samples.fields() {
        out.push_str(&line(name, values));
    }
    for (seconds, latencies) in &samples.read_windows {
        out.push_str(&line(
            "read_window",
            &[&[*seconds], &latencies[..]].concat(),
        ));
    }
    out
}

/// Merges one child's output into `report`, returning its samples.
///
/// # Errors
///
/// A line that is not part of the format.
pub fn decode(text: &str, part: usize, report: &mut Report) -> Result<Samples, String> {
    let mut samples = Samples::default();
    for line in text.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let count = || {
            rest.parse::<u64>()
                .map_err(|_| format!("bad count line {line:?}"))
        };
        match key {
            "attempted" => report.attempted += count()?,
            "failed" => report.failed += count()?,
            "note" => report.note(format!("[part {part}] {rest}")),
            "violation" => report.violate(format!("[part {part}] {rest}")),
            "read_window" => {
                let mut values = parse_all(rest)?.into_iter();
                let seconds = values.next().ok_or("read_window without a length")?;
                samples.read_windows.push((seconds, values.collect()));
            }
            _ => {
                let field = samples
                    .field(key)
                    .ok_or_else(|| format!("unknown line {line:?}"))?;
                field.extend(parse_all(rest)?);
            }
        }
    }
    Ok(samples)
}

fn parse_all(text: &str) -> Result<Vec<f64>, String> {
    text.split_whitespace()
        .map(|v| v.parse().map_err(|_| format!("bad sample {v:?}")))
        .collect()
}

/// Runs `config` as `config.parts` child processes of this executable, one
/// after another, and merges them.
pub fn run_parts(config: &Config) -> Report {
    let seconds = config.seconds.as_secs();
    let mut report = Report::default();
    let mut parts = Vec::new();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            report.attempted = 1;
            report.violate(format!("cannot find this executable: {e}"));
            return report;
        }
    };
    report.note(format!(
        "navbench workload={} seed={} seconds={seconds}: {} processes, each set up once \
         and given 1/{} of every phase; metrics are taken over their samples pooled",
        config.workload.name(),
        config.seed,
        config.parts,
        config.parts
    ));
    for part in 0..config.parts {
        let output = Command::new(&exe)
            .args(["--workload", config.workload.name()])
            .args(["--seed", &config.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", "0", "--part", &part.to_string()])
            .output();
        let decoded = match output {
            Ok(out) if out.status.success() => {
                decode(&String::from_utf8_lossy(&out.stdout), part, &mut report)
            }
            Ok(out) => Err(format!(
                "exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            )),
            Err(e) => Err(e.to_string()),
        };
        match decoded {
            Ok(samples) => parts.push(samples),
            Err(e) => {
                report.attempted += 1;
                report.failed += 1;
                report.violate(format!("part {part}: {e}"));
                return report;
            }
        }
    }
    end_to_end(&parts, &mut report);
    report
}

/// The child side of [`run_parts`]: runs part `part` of `config` in this
/// process and returns what to print.
pub fn run_part(config: &Config, part: usize) -> String {
    let (report, samples) = run_process(&config.part(part), ShardedSiteHandler::new);
    encode(&report, &samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_survive_the_pipe() {
        let samples = Samples {
            setup_s: vec![0.25],
            read_windows: vec![(0.5, vec![1.5, 2.25e-3]), (0.5, vec![])],
            edit_ms: vec![40.0],
            ..Samples::default()
        };
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.note("hello");
        let text = encode(&report, &samples);
        let mut merged = Report::default();
        assert_eq!(decode(&text, 1, &mut merged).unwrap(), samples);
        assert_eq!(merged.attempted, 3);
        assert_eq!(merged.notes, ["[part 1] hello"]);
        assert!(decode("bogus 1", 0, &mut merged).is_err());
    }

    #[test]
    fn metrics_pool_the_processes() {
        let part = |ms: f64| Samples {
            setup_s: vec![ms / 10.0],
            peak_rss_mb: vec![100.0],
            read_windows: vec![(1.0, vec![ms, ms, ms]), (1.0, vec![ms])],
            edit_ms: vec![ms],
            spec_ms: vec![ms * 2.0],
        };
        let mut report = Report::default();
        end_to_end(&[part(10.0), part(20.0), part(60.0)], &mut report);
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert_eq!(value("setup_s"), 2.0);
        assert_eq!(value("read_p50_us"), 20.0);
        assert!(report
            .notes
            .iter()
            .any(|n| n.starts_with("read_rps 2.0000 req/s")));
        assert_eq!(value("publish_edit_p50_ms"), 20.0);
        assert_eq!(value("publish_spec_ms"), 40.0);
        assert!(report.correct());
    }
}
