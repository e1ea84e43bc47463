//! The two workloads, their set-up, their checks and the metrics they
//! report.
//!
//! Every run reports every end-to-end metric, so each workload has a main
//! phase that defines it and, after it, a fixed probe of the path the main
//! phase leaves idle: `browse` ends with a publish probe, `author` with a
//! read probe. The main phase runs first, alone, so the probe cannot
//! disturb it.

use crate::fixture::{self, Batch, Museum, Scale};
use crate::publish::{Author, Commit, Shadow, Stages};
use crate::samples::{self, Samples};
use crate::serve::{self, Links, ReadPlan, Reads, Spans, TimedHandler};
use crate::stats::{mean, median, peak_rss_mb, Report};
use navsep_core::layout::CSS_PATH;
use navsep_core::{assert_site_equivalent, weave_separated};
use navsep_web::{
    Handler, HttpListener, ListenerConfig, ShardedSiteHandler, ShardedSiteStore, DEFAULT_RETENTION,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Store shards.
pub const SHARDS: usize = 16;
/// The publish stages must add up to `SitePublisher::commit` within this
/// share of the mean commit time…
pub const PARTS_TOLERANCE: f64 = 0.25;
/// …plus this many ms, for the glue a commit runs between the calls the
/// replay times (staging, `catch_unwind`, bookkeeping). It matters only on
/// tiny sites, where a whole commit takes about a millisecond.
pub const PARTS_SLACK_MS: f64 = 0.5;
/// Edit-commit medians of the first and last third of a run that differ by
/// more than this share are reported as drift.
pub const DRIFT_TOLERANCE: f64 = 0.10;
/// Keep-alive connections in a read phase, one closed-loop reader each.
/// One: on a 2-core box, two readers plus the listener's loop and worker
/// threads outnumber the cores, and the scheduler's placement of them made
/// read throughput swing by a factor of two from one second to the next.
pub const READERS: usize = 1;

/// A workload the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only serving: closed-loop navigation sessions.
    Browse,
    /// Publish-only: the seeded edit script, no readers.
    Author,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::Browse, Workload::Author];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Browse => "browse",
            Workload::Author => "author",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything that sizes one run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed for the edit script, start pages and link choices.
    pub seed: u64,
    /// The `--seconds` the run was asked to measure for.
    pub seconds: Duration,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// Corpus size.
    pub scale: Scale,
    /// Processes an untraced run is split across (see [`crate::samples`]).
    pub parts: usize,
    /// Length of `browse`'s read phase.
    pub reads: Duration,
    /// Batches in `author`'s script.
    pub author_commits: usize,
    /// Data commits in `browse`'s publish probe.
    pub probe_edits: usize,
    /// Spec commits in `browse`'s publish probe and after `author`'s
    /// script.
    pub probe_specs: usize,
    /// Length of `author`'s read probe.
    pub read_probe: Duration,
    /// How long the traced run samples the bare echo socket.
    pub echo: Duration,
}

impl Config {
    /// The full-size run of `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Config {
        let run = Duration::from_secs(seconds);
        let seconds = seconds as usize;
        Config {
            workload,
            seed,
            seconds: run,
            trace,
            scale: Scale::FULL,
            parts: if trace { 1 } else { 3 },
            // Each workload gives two thirds of the run to its main phase
            // and about one third to its probe. Commit counts are sized
            // from `seconds` for a 2-core box, where a data commit costs
            // about 30 ms on a fresh publisher and 45 ms after the
            // steady-state pass and a spec commit about 100 ms: the same
            // `seconds` always does the same work.
            reads: run * 2 / 3,
            author_commits: (seconds * 15).max(fixture::SPEC_EVERY),
            probe_edits: seconds * 8,
            probe_specs: seconds * 2,
            read_probe: run / 3,
            echo: Duration::from_secs(1),
        }
    }

    /// Part `index` of a run split across [`parts`](Self::parts)
    /// processes: its own seed, and 1/`parts` of every phase.
    pub fn part(&self, index: usize) -> Config {
        let n = self.parts.max(1);
        Config {
            seed: self.seed ^ ((index as u64) << 48),
            reads: self.reads / n as u32,
            author_commits: self.author_commits.div_ceil(n),
            probe_edits: self.probe_edits.div_ceil(n),
            probe_specs: self.probe_specs.div_ceil(n),
            read_probe: self.read_probe / n as u32,
            parts: 1,
            ..self.clone()
        }
    }
}

/// The serving stack one set-up builds.
struct Stack {
    author: Author,
    store: Arc<ShardedSiteStore>,
    listener: HttpListener,
    spans: Option<Arc<Spans>>,
    links: Links,
    /// Wall time of the set-up that built this stack.
    setup_s: f64,
}

/// Runs `config` against the real handler: in this process when it is
/// traced or not split, else across child processes.
pub fn run(config: &Config) -> Report {
    if config.parts > 1 {
        samples::run_parts(config)
    } else {
        run_with(config, ShardedSiteHandler::new)
    }
}

/// Runs `config` in this process with the listener serving `make(store)`:
/// the real [`ShardedSiteHandler`], or a wrapper that tests use to make the
/// checks fire.
pub fn run_with<H, F>(config: &Config, make: F) -> Report
where
    H: Handler + 'static,
    F: Fn(Arc<ShardedSiteStore>) -> H,
{
    let (mut report, samples) = run_process(config, make);
    samples::end_to_end(&[samples], &mut report);
    report
}

/// One process's share of a run: its report (notes, checks, per-layer
/// metrics) and its raw end-to-end samples.
pub fn run_process<H, F>(config: &Config, make: F) -> (Report, Samples)
where
    H: Handler + 'static,
    F: Fn(Arc<ShardedSiteStore>) -> H,
{
    let mut report = Report {
        traced: config.trace,
        ..Report::default()
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let listener_config = ListenerConfig::new(nproc);
    report.note(format!(
        "navbench workload={} seed={} seconds={} trace={} nproc={nproc}",
        config.workload.name(),
        config.seed,
        config.seconds.as_secs_f64(),
        config.trace
    ));
    report.note(format!(
        "museum {}x{} (Setup::wide, IndexedGuidedTour); store shards={SHARDS} \
         retention={DEFAULT_RETENTION}; listener workers={} queue={} loops={} \
         max_connections={} keep_alive={:?} max_pipeline={}; readers={READERS}",
        config.scale.painters,
        config.scale.per,
        listener_config.pool.workers,
        listener_config.pool.queue_capacity,
        listener_config.loops,
        listener_config.max_connections,
        listener_config.keep_alive_timeout,
        listener_config.max_pipeline,
    ));
    let museum = Arc::new(Museum::new(config.scale));
    // A `browse` set-up takes a fifth of a second, too short to time
    // once; the others run a steady-state pass and take seconds.
    let reps = if config.workload == Workload::Browse {
        3
    } else {
        1
    };
    let mut setups = Vec::new();
    let mut stack = None;
    for _ in 0..reps {
        drop(stack.take());
        match set_up(config, &museum, &make, listener_config) {
            Ok(s) => {
                setups.push(s.setup_s);
                stack = Some(s);
            }
            Err(e) => {
                report.attempted += 1;
                report.failed += 1;
                report.violate(format!("set-up: {e}"));
                return (report, Samples::default());
            }
        }
    }
    let mut stack = stack.expect("at least one set-up ran");
    check_fresh(&stack, &mut report);
    let mut phases = Phases::new(config, &museum);
    phases.samples.setup_s = setups;
    match config.workload {
        Workload::Browse => browse(&mut phases, &mut stack, &make, &mut report),
        Workload::Author => author(&mut phases, &mut stack, &make, &mut report),
    }
    phases.report_publish(&mut report);
    phases.samples.peak_rss_mb.extend(peak_rss_mb());
    phases.write_spans(&report);
    (report, phases.samples)
}

/// Builds the stack: sources, the first full commit, the warm-up pass
/// (the steady-state edit pass where the workload commits, then one read
/// of every path) and the bound listener. Returns it with its wall time,
/// which leaves out only the reader-side link table.
fn set_up<H, F>(
    config: &Config,
    museum: &Arc<Museum>,
    make: &F,
    listener_config: ListenerConfig,
) -> Result<Stack, String>
where
    H: Handler + 'static,
    F: Fn(Arc<ShardedSiteStore>) -> H,
{
    let start = Instant::now();
    let store = Arc::new(ShardedSiteStore::new(SHARDS));
    let mut author = Author::new(Arc::clone(museum), museum.sources(), Arc::clone(&store));
    author.commit_staged().outcome?;
    if config.workload != Workload::Browse {
        // Steady state before timing: one edit to every painting. Commit
        // times climb over the first few hundred commits of a fresh
        // publisher; the run then reports whether they stay flat.
        for batch in fixture::steady_pass(museum.data_paths.len()) {
            author.commit(&batch).outcome?;
        }
    }
    let spans = config.trace.then(|| Arc::new(Spans::default()));
    let listener = match &spans {
        Some(spans) => serve::bind(
            Arc::new(TimedHandler::new(
                make(Arc::clone(&store)),
                Arc::clone(spans),
            )),
            listener_config,
        ),
        None => serve::bind(Arc::new(make(Arc::clone(&store))), listener_config),
    };
    let mut elapsed = start.elapsed();
    let links = Links::of(&store, &museum.painter_pages, CSS_PATH);
    let start = Instant::now();
    let failures = serve::warm_up(listener.local_addr(), &links);
    elapsed += start.elapsed();
    if let Some(first) = failures.first() {
        return Err(format!("warm-up read failed: {first}"));
    }
    if let Some(spans) = &spans {
        spans.clear();
    }
    Ok(Stack {
        author,
        store,
        listener,
        spans,
        links,
        setup_s: elapsed.as_secs_f64(),
    })
}

/// Checks that the set-up serves, byte for byte, what a fresh weave of the
/// publisher's sources produces: the anchor every later body check builds
/// on.
fn check_fresh(stack: &Stack, report: &mut Report) {
    let fresh = match weave_separated(stack.author.publisher.sources()) {
        Ok(fresh) => fresh.site,
        Err(e) => return report.violate(format!("fresh weave of the set-up's sources: {e}")),
    };
    if fresh.len() != stack.store.len() {
        report.violate(format!(
            "set-up serves {} resources, a fresh weave has {}",
            stack.store.len(),
            fresh.len()
        ));
    }
    for (path, resource) in fresh.iter() {
        if stack.store.get(path).map(|r| r.body()) != Some(resource.to_bytes()) {
            report.violate(format!("set-up serves {path} unlike a fresh weave"));
        }
    }
}

/// What the phases of one run collect, across phases.
struct Phases<'a> {
    config: &'a Config,
    museum: &'a Museum,
    script: Vec<Batch>,
    commits: Vec<Commit>,
    stages: Vec<Stages>,
    shadow: Option<Shadow>,
    cache: (u64, u64),
    spans_out: String,
    samples: Samples,
}

impl<'a> Phases<'a> {
    fn new(config: &'a Config, museum: &'a Museum) -> Phases<'a> {
        // Long enough for `author`'s script and for the data batches of
        // `browse`'s probe.
        let len = config.author_commits.max(config.probe_edits * 2);
        Phases {
            config,
            museum,
            script: fixture::script(config.seed, len, museum.data_paths.len()),
            commits: Vec::new(),
            stages: Vec::new(),
            shadow: None,
            cache: (0, 0),
            spans_out: String::new(),
            samples: Samples::default(),
        }
    }

    fn plan(&self, duration: Duration) -> ReadPlan {
        ReadPlan {
            connections: READERS,
            duration,
            seed: self.config.seed,
        }
    }

    /// Commits `batches` in order, timing each commit; in a traced run each
    /// committed batch is replayed through the shadow.
    fn commit_all(&mut self, author: &mut Author, batches: &[Batch], report: &mut Report) {
        if self.config.trace && self.shadow.is_none() {
            match Shadow::of(&author.publisher, SHARDS, DEFAULT_RETENTION) {
                Ok(shadow) => self.shadow = Some(shadow),
                Err(e) => report.violate(format!("shadow set-up: {e}")),
            }
        }
        let cache = author.publisher.cache();
        let (hits, misses) = (cache.hits(), cache.misses());
        for batch in batches {
            let commit = author.commit(batch);
            report.attempted += 1;
            match &commit.outcome {
                Err(e) => {
                    report.failed += 1;
                    report.violate(format!("commit failed: {e}"));
                }
                Ok(outcome) => {
                    if !commit.spec && outcome.pages_rewoven > commit.batch_size {
                        report.violate(format!(
                            "a {}-painting commit rewove {} pages",
                            commit.batch_size, outcome.pages_rewoven
                        ));
                    }
                    if let Some(shadow) = self.shadow.as_mut() {
                        self.stages
                            .push(replay(shadow, &commit, author, outcome, report));
                    }
                }
            }
            self.commits.push(commit);
        }
        let cache = author.publisher.cache();
        self.cache.0 += cache.hits() - hits;
        self.cache.1 += cache.misses() - misses;
    }

    /// Runs sessions on every connection for `duration` and adds the phase
    /// to the report and the samples: its failures, the listener's counts
    /// checked against the clients', and its latencies.
    fn read(&mut self, stack: &Stack, duration: Duration, report: &mut Report) -> Reads {
        let before = Counts::of(&stack.listener);
        let reads = serve::run_sessions(
            stack.listener.local_addr(),
            &self.plan(duration),
            &stack.links,
            &stack.store,
        );
        let after = Counts::of(&stack.listener);
        let (served, bad, shed) = (
            after.served - before.served,
            after.bad - before.bad,
            after.shed - before.shed,
        );
        for (what, server, client) in [
            ("requests served", served, reads.answered),
            ("bad requests", bad, reads.bad_requests),
            ("shed", shed, reads.shed),
        ] {
            if server != client {
                report.violate(format!(
                    "listener counted {server} {what}, the clients {client}"
                ));
            }
        }
        report.attempted += reads.sent;
        report.failed += reads.failed;
        for v in &reads.violations {
            report.violate(v.clone());
        }
        report.per_layer("listener.requests_served", Some(served as f64), "count");
        report.per_layer("listener.bad_requests", Some(bad as f64), "count");
        report.per_layer("server.shed", Some(shed as f64), "count");
        report.note(format!(
            "reads: {} sent, {} ok, {} failed over {:.3} s",
            reads.sent,
            reads.windows.iter().map(Vec::len).sum::<usize>(),
            reads.failed,
            reads.elapsed.as_secs_f64()
        ));
        let window_s = reads.elapsed.as_secs_f64() / serve::WINDOWS as f64;
        for window in &reads.windows {
            self.samples.read_windows.push((window_s, window.clone()));
        }
        reads
    }

    /// The traced run's serve-side layers, measured after the read phase
    /// `reads` against the store as that phase left it.
    fn trace_serve<H, F>(&mut self, stack: &Stack, reads: &Reads, make: &F, report: &mut Report)
    where
        H: Handler + 'static,
        F: Fn(Arc<ShardedSiteStore>) -> H,
    {
        let Some(spans) = &stack.spans else { return };
        let plain = spans.take_plain();
        let handle = median(&plain);
        report.per_layer("store.handle_us", handle, "us");
        report.per_layer(
            "server.frontend_us",
            median(&reads.latencies_us())
                .zip(handle)
                .map(|(rtt, h)| rtt - h),
            "us",
        );
        // Replay the sessions' history in process as time-travel reads
        // through the same timed handler.
        let sweep = Arc::new(Spans::default());
        let handler = TimedHandler::new(make(Arc::clone(&stack.store)), Arc::clone(&sweep));
        let degraded = serve::replay_history(&reads.history, &stack.links, &handler);
        let at = sweep.take_at();
        let degraded_ratio = degraded as f64 / reads.history.len().max(1) as f64;
        report.per_layer("store.handle_at_us", median(&at), "us");
        report.per_layer("store.degraded_ratio", Some(degraded_ratio), "ratio");
        match serve::replay_wire(&reads.recorded, &make(Arc::clone(&stack.store))) {
            Ok(costs) => {
                report.per_layer("wire.parse_us", median(&costs.parse_us), "us");
                report.per_layer("wire.serialize_us", median(&costs.serialize_us), "us");
                report.per_layer("wire.resp_bytes", mean(&costs.resp_bytes), "bytes");
            }
            Err(e) => report.violate(e),
        }
        let page = self.museum.painter_pages[0].as_str();
        let body = stack.store.get(page).map(|r| r.body()).unwrap_or_default();
        let request = navsep_web::wire::serialize_request(&navsep_web::Request::get(page));
        match serve::echo_floor(&request, serve::canned_reply(body), self.config.echo) {
            Ok(samples) => {
                let floor = median(&samples);
                report.per_layer("net.loopback_echo_us", floor, "us");
                if let (Some(floor), Some(read)) = (floor, median(&reads.latencies_us())) {
                    report.note(format!(
                        "read p50 {read:.1} us over a loopback echo floor of {floor:.1} us: \
                         the program owns {:.1} us",
                        read - floor
                    ));
                }
            }
            Err(e) => report.violate(format!("echo floor: {e}")),
        }
        let _ = writeln!(
            self.spans_out,
            "{{\"span\": \"serve\", \"handle_spans\": {}, \"handle_at_spans\": {}, \
             \"client_reads\": {}}}",
            plain.len(),
            at.len(),
            reads.windows.iter().map(Vec::len).sum::<usize>()
        );
    }

    /// Publish metrics over every commit of the run, end-to-end and (in a
    /// traced run) per layer.
    fn report_publish(&mut self, report: &mut Report) {
        let ok = |c: &&Commit| c.outcome.is_ok();
        let edits: Vec<f64> = self
            .commits
            .iter()
            .filter(ok)
            .filter(|c| !c.spec)
            .map(|c| c.ms)
            .collect();
        let specs: Vec<f64> = self
            .commits
            .iter()
            .filter(ok)
            .filter(|c| c.spec)
            .map(|c| c.ms)
            .collect();
        report.note(format!(
            "commits: {} data-edit, {} spec (full reweave)",
            edits.len(),
            specs.len()
        ));
        let third = edits.len() / 3;
        let drift = (third > 0)
            .then(|| Some(median(&edits[edits.len() - third..])? / median(&edits[..third])?))
            .flatten();
        if let Some(drift) = drift {
            let verdict = if self.config.workload == Workload::Browse {
                "no steady-state pass on browse"
            } else if (drift - 1.0).abs() <= DRIFT_TOLERANCE {
                "flat"
            } else {
                "DRIFT"
            };
            report.note(format!(
                "edit commits, last third over first third (median): {drift:.3} ({verdict})"
            ));
        }
        report.per_layer("publish.edit_drift_ratio", drift, "ratio");
        self.samples.edit_ms.extend(&edits);
        self.samples.spec_ms.extend(&specs);
        if !report.traced {
            return;
        }
        let outcomes: Vec<_> = self
            .commits
            .iter()
            .filter_map(|c| c.outcome.as_ref().ok())
            .collect();
        let sum = |f: &dyn Fn(&navsep_core::PublishOutcome) -> usize| {
            Some(outcomes.iter().map(|o| f(o) as f64).sum::<f64>())
        };
        report.per_layer("publish.pages_rewoven", sum(&|o| o.pages_rewoven), "count");
        report.per_layer("publish.retries", sum(&|o| o.retries as usize), "count");
        report.per_layer(
            "store.pages_rendered",
            sum(&|o| o.store_publish.pages_rendered),
            "count",
        );
        report.per_layer(
            "store.pages_reused",
            sum(&|o| o.store_publish.pages_reused),
            "count",
        );
        report.per_layer(
            "store.shards_swapped",
            sum(&|o| o.store_publish.shards_swapped),
            "count",
        );
        let lookups = self.cache.0 + self.cache.1;
        report.per_layer(
            "pipeline.cache_hit_ratio",
            (lookups > 0).then(|| self.cache.0 as f64 / lookups as f64),
            "ratio",
        );
        let traced: Vec<&Commit> = self.commits.iter().filter(ok).collect();
        let stage =
            |f: &dyn Fn(&Stages) -> f64| mean(&self.stages.iter().map(f).collect::<Vec<_>>());
        let commit_ms = mean(&traced.iter().map(|c| c.ms).collect::<Vec<_>>());
        let parts = stage(&Stages::total);
        report.per_layer(
            "publish.sources_clone_ms",
            stage(&|s| s.sources_clone),
            "ms",
        );
        report.per_layer("xlink.resolve_ms", stage(&|s| s.resolve), "ms");
        report.per_layer("web.woven_clone_ms", stage(&|s| s.woven_clone), "ms");
        report.per_layer("store.publish_ms", stage(&|s| s.store_publish), "ms");
        report.per_layer("pipeline.compile_ms", stage(&|s| s.compile), "ms");
        report.per_layer("style.transform_ms", stage(&|s| s.transform), "ms");
        report.per_layer("aspect.weave_ms", stage(&|s| s.weave), "ms");
        report.per_layer("xml.serialize_ms", stage(&|s| s.serialize), "ms");
        report.per_layer("publish.drop_ms", stage(&|s| s.drop), "ms");
        report.per_layer("publish.commit_ms", commit_ms, "ms");
        let unaccounted = commit_ms.zip(parts).map(|(c, p)| c - p);
        report.per_layer("publish.unaccounted_ms", unaccounted, "ms");
        if let (Some(commit), Some(gap)) = (commit_ms, unaccounted) {
            let share = gap / commit;
            report.note(format!(
                "publish parts add up to {:.3} ms of a {commit:.3} ms mean commit \
                 (unaccounted {:+.1}%, tolerance ±{:.0}% + {PARTS_SLACK_MS} ms)",
                commit - gap,
                share * 100.0,
                PARTS_TOLERANCE * 100.0
            ));
            if gap.abs() > PARTS_TOLERANCE * commit + PARTS_SLACK_MS {
                report.violate(format!(
                    "publish parts miss the commit time by {:.1}%",
                    share * 100.0
                ));
            }
        }
        for (c, s) in traced.iter().zip(&self.stages) {
            let _ = writeln!(
                self.spans_out,
                "{{\"span\": \"commit\", \"spec\": {}, \"batch\": {}, \"commit_ms\": {}, \
                 \"sources_clone_ms\": {}, \"compile_ms\": {}, \"resolve_ms\": {}, \
                 \"woven_clone_ms\": {}, \"transform_ms\": {}, \"weave_ms\": {}, \
                 \"serialize_ms\": {}, \"store_publish_ms\": {}, \"drop_ms\": {}}}",
                c.spec,
                c.batch_size,
                c.ms,
                s.sources_clone,
                s.compile,
                s.resolve,
                s.woven_clone,
                s.transform,
                s.weave,
                s.serialize,
                s.store_publish,
                s.drop
            );
        }
    }

    /// A traced run writes its spans, kept in memory until now, next to
    /// the benchmark's sources.
    fn write_spans(&self, report: &Report) {
        if !report.traced {
            return;
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("trace");
        let file = dir.join(format!(
            "{}-seed{}.jsonl",
            self.config.workload.name(),
            self.config.seed
        ));
        if std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&file, &self.spans_out))
            .is_err()
        {
            eprintln!("could not write {}", file.display());
        }
    }
}

/// Replays `commit` through the shadow and checks the replay published
/// what the real commit did.
fn replay(
    shadow: &mut Shadow,
    commit: &Commit,
    author: &Author,
    outcome: &navsep_core::PublishOutcome,
    report: &mut Report,
) -> Stages {
    match shadow.replay(commit, &author.publisher) {
        Ok((stages, published)) => {
            if published.pages_rendered != outcome.store_publish.pages_rendered {
                report.violate(format!(
                    "replay rendered {} pages, the commit {}",
                    published.pages_rendered, outcome.store_publish.pages_rendered
                ));
            }
            let store = author.publisher.store();
            for (page, _) in &commit.revisions {
                let real = store.get(page).map(|r| r.body());
                let replayed = shadow.store().get(page).map(|r| r.body());
                if real != replayed {
                    report.violate(format!("replay of {page} differs from the commit's"));
                }
            }
            stages
        }
        Err(e) => {
            report.violate(format!("replay failed: {e}"));
            Stages::default()
        }
    }
}

/// The listener's request counters.
#[derive(Debug, Clone, Copy)]
struct Counts {
    served: u64,
    bad: u64,
    shed: u64,
}

impl Counts {
    fn of(listener: &HttpListener) -> Counts {
        let stats = listener.stats();
        Counts {
            served: stats.requests_served,
            bad: stats.bad_requests,
            shed: listener.requests_shed(),
        }
    }
}

/// `browse`: sessions alone for the read phase, then the publish probe.
fn browse<H, F>(phases: &mut Phases, stack: &mut Stack, make: &F, report: &mut Report)
where
    H: Handler + 'static,
    F: Fn(Arc<ShardedSiteStore>) -> H,
{
    let reads = phases.read(stack, phases.config.reads, report);
    phases.trace_serve(stack, &reads, make, report);
    let mut probe: Vec<Batch> = phases
        .script
        .iter()
        .filter(|b| matches!(b, Batch::Data(_)))
        .take(phases.config.probe_edits)
        .cloned()
        .collect();
    probe.extend((1..=phases.config.probe_specs).map(fixture::spec_batch));
    phases.commit_all(&mut stack.author, &probe, report);
}

/// `author`: the script alone, then more spec commits, the served site
/// checked against a fresh weave, then the read probe.
fn author<H, F>(phases: &mut Phases, stack: &mut Stack, make: &F, report: &mut Report)
where
    H: Handler + 'static,
    F: Fn(Arc<ShardedSiteStore>) -> H,
{
    let script = phases.script[..phases.config.author_commits].to_vec();
    phases.commit_all(&mut stack.author, &script, report);
    // The script holds one spec edit per 25 batches (9 at `--seconds 15`),
    // too few for a steady median: carry on flipping the spec documents
    // where the script left them.
    let done = script
        .iter()
        .filter(|b| !matches!(b, Batch::Data(_)))
        .count();
    let specs: Vec<Batch> = (done + 1..=done + phases.config.probe_specs)
        .map(fixture::spec_batch)
        .collect();
    phases.commit_all(&mut stack.author, &specs, report);
    match weave_separated(stack.author.publisher.sources()) {
        Ok(fresh) => {
            if let Err(e) = assert_site_equivalent(&stack.store.to_site(), &fresh.site) {
                report.violate(format!("served site differs from a fresh weave: {e}"));
            }
        }
        Err(e) => report.violate(format!("fresh weave of the final sources: {e}")),
    }
    // Spec edits may have rewoven the links the sessions follow.
    stack.links = Links::of(&stack.store, &phases.museum.painter_pages, CSS_PATH);
    let reads = phases.read(stack, phases.config.read_probe, report);
    phases.trace_serve(stack, &reads, make, report);
}
