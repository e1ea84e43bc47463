//! The benchmark at a tiny size: every metric `BENCHMARK.json` names is
//! printed with its unit, the checks pass on the real handler, and they
//! fire on a flipped body byte and on a stale page served after a commit.

use bytes::Bytes;
use navbench::fixture::Scale;
use navbench::{run_with, Config, Workload};
use navsep_web::{
    Handler, Method, Request, Response, ShardedSiteHandler, ShardedSiteStore, AT_GENERATION_HEADER,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn tiny(workload: Workload, trace: bool) -> Config {
    Config {
        scale: Scale {
            painters: 3,
            per: 4,
        },
        reads: Duration::from_millis(400),
        author_commits: 30,
        probe_edits: 5,
        probe_specs: 2,
        read_probe: Duration::from_millis(200),
        echo: Duration::from_millis(100),
        parts: 1,
        ..Config::new(workload, 7, 1, trace)
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\""))
            .expect("metric entries have the key");
        let rest = &entry[at + key.len() + 2..];
        let rest = &rest[rest.find('"').expect("string value") + 1..];
        rest[..rest.find('"').expect("closed string")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn assert_prints_every_metric(workload: Workload, trace: bool) {
    let report = run_with(&tiny(workload, trace), ShardedSiteHandler::new);
    let out = report.render();
    assert!(
        report.correct(),
        "{} failed its checks:\n{out}",
        workload.name()
    );
    let section = if trace { "per_layer" } else { "end_to_end" };
    let metrics = declared(section);
    assert!(!metrics.is_empty());
    for (name, unit) in &metrics {
        let printed = out.lines().any(|line| {
            let words: Vec<&str> = line.split_whitespace().collect();
            words.len() == 3
                && words[0] == name
                && words[1].parse::<f64>().is_ok()
                && words[2] == unit
        });
        assert!(
            printed,
            "{} does not print {name} in {unit}:\n{out}",
            workload.name()
        );
        assert!(report.json().contains(&format!("\"{name}\": {{\"value\"")));
    }
    assert_eq!(report.metrics.len(), metrics.len(), "{out}");
    assert!(out
        .trim_end()
        .lines()
        .last()
        .unwrap()
        .starts_with("{\"correct\": true"));
}

#[test]
fn browse_prints_every_metric() {
    assert_prints_every_metric(Workload::Browse, false);
    assert_prints_every_metric(Workload::Browse, true);
}

#[test]
fn author_prints_every_metric() {
    assert_prints_every_metric(Workload::Author, false);
    assert_prints_every_metric(Workload::Author, true);
}

/// `response` with its body replaced and every header kept.
fn with_body(response: &Response, body: Bytes) -> Response {
    let mut out = Response::ok(response.content_type().unwrap_or("text/html"), body);
    for (name, value) in response.headers() {
        if name != "content-type" {
            out = out.with_header(name.clone(), value.clone());
        }
    }
    out
}

/// Flips one byte of every page body it serves.
struct FlipByte(ShardedSiteHandler);

impl Handler for FlipByte {
    fn handle(&self, request: &Request) -> Response {
        let response = self.0.handle(request);
        if request.method() != Method::Get || !request.path().ends_with(".html") {
            return response;
        }
        let mut body = response.body().to_vec();
        let middle = body.len() / 2;
        body[middle] ^= 0x01;
        with_body(&response, Bytes::from(body))
    }
}

#[test]
fn a_flipped_body_byte_fails_the_run() {
    let report = run_with(&tiny(Workload::Browse, false), |store| {
        FlipByte(ShardedSiteHandler::new(store))
    });
    assert!(!report.correct());
    assert!(report.failed > 0);
    assert!(
        report.violations.iter().any(|v| v.contains("body differs")),
        "{:?}",
        report.violations
    );
}

/// Serves each page as it first served it, under whatever generation the
/// store stamps now: a store that keeps a stale page after a commit. The
/// set-up's warm-up reads every page once, before `author`'s script edits
/// them.
struct Stale {
    inner: ShardedSiteHandler,
    first: Mutex<HashMap<String, Bytes>>,
}

impl Handler for Stale {
    fn handle(&self, request: &Request) -> Response {
        let response = self.inner.handle(request);
        if request.method() != Method::Get
            || request.header_value(AT_GENERATION_HEADER).is_some()
            || !response.status().is_success()
        {
            return response;
        }
        let old = self
            .first
            .lock()
            .unwrap()
            .entry(request.path().to_string())
            .or_insert_with(|| response.body().clone())
            .clone();
        with_body(&response, old)
    }
}

#[test]
fn a_stale_page_after_a_commit_fails_the_run() {
    let report = run_with(
        &tiny(Workload::Author, false),
        |store: Arc<ShardedSiteStore>| Stale {
            inner: ShardedSiteHandler::new(store),
            first: Mutex::new(HashMap::new()),
        },
    );
    assert!(!report.correct());
    assert!(
        report.violations.iter().any(|v| v.contains("body differs")),
        "{:?}",
        report.violations
    );
}
