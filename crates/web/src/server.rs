//! Serving a site: the handler trait and a concurrent worker pool.
//!
//! The pool exists to make the substrate honest as a *web* tier: requests
//! are served concurrently from worker threads over one shared handler —
//! usually a [`ShardedSiteHandler`](crate::ShardedSiteHandler), whose
//! epoch-published store lets publishes (re-weaves) swap content while
//! reads continue. A bounded `crossbeam` channel moves requests in.
//!
//! ## Overload and failure contract
//!
//! [`ServerPool`] has two entry points: [`ServerPool::submit`] answers
//! through a callback and never blocks (the event-loop listener's path),
//! and [`ServerPool::request_sync`] submits and waits for the answer. Both
//! share one contract, hardened for overload and worker failure:
//!
//! * the request queue is **bounded** ([`PoolConfig::queue_capacity`]);
//!   a request that finds it full is **shed** with a **503** carrying
//!   [`RETRY_AFTER_HEADER`] (and [`SHED_HEADER`] naming the reason);
//! * an optional **per-request deadline** ([`PoolConfig::deadline`]) sheds
//!   requests that waited in the queue longer than the deadline, again as
//!   503 + retry-after;
//! * a worker whose handler **panics** answers that request with a 500,
//!   exits, and is **respawned** by the pool supervisor — the pool keeps
//!   serving after any number of absorbed panics;
//! * [`ServerPool::shutdown`] is **graceful**: in-flight requests complete,
//!   queued-but-unstarted ones are shed with a 503, and every accepted
//!   request is answered before shutdown returns.

use crate::http::{Request, Response};
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Header on every 503: how long the client should wait before retrying,
/// in milliseconds (custom header, hence not the RFC seconds granularity).
pub const RETRY_AFTER_HEADER: &str = "x-navsep-retry-after";

/// Header on every 503 naming why the request was shed: `queue-full`,
/// `deadline`, `draining`, or `reply-dropped` (a reply channel closed
/// without an answer — degraded to a shed instead of a client panic).
pub const SHED_HEADER: &str = "x-navsep-shed";

/// Anything that can answer requests.
pub trait Handler: Send + Sync {
    /// Produces the response for `request`.
    fn handle(&self, request: &Request) -> Response;
}

impl<H: Handler + ?Sized> Handler for Arc<H> {
    fn handle(&self, request: &Request) -> Response {
        (**self).handle(request)
    }
}

/// Sizing and robustness knobs for a [`ServerPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Worker thread count (must be nonzero).
    pub workers: usize,
    /// Bound on queued-but-unstarted requests; the pool sheds beyond it.
    pub queue_capacity: usize,
    /// If set, a request that waited in the queue longer than this is shed
    /// with a 503 instead of being handled.
    pub deadline: Option<Duration>,
    /// Advertised in [`RETRY_AFTER_HEADER`] on every shed response.
    pub retry_after: Duration,
}

impl PoolConfig {
    /// Defaults for `workers` threads: a `workers * 64` queue, no
    /// deadline, 50ms advertised retry.
    pub fn new(workers: usize) -> Self {
        PoolConfig {
            workers,
            queue_capacity: workers.max(1) * 64,
            deadline: None,
            retry_after: Duration::from_millis(50),
        }
    }

    /// Sets the queue bound (builder style).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the per-request queue deadline (builder style).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the advertised retry-after (builder style).
    pub fn retry_after(mut self, retry_after: Duration) -> Self {
        self.retry_after = retry_after;
        self
    }
}

struct Job {
    request: Request,
    enqueued: Instant,
    /// Always run exactly once: it is how an event-loop connection learns
    /// it can progress, and how [`ServerPool::request_sync`] wakes up.
    reply: Box<dyn FnOnce(Response) + Send>,
}

enum Event {
    /// A worker absorbed a handler panic and exited; spawn a replacement.
    WorkerExited,
    /// The pool is shutting down.
    Stop,
}

struct PoolShared {
    handler: Arc<dyn Handler>,
    events: Sender<Event>,
    draining: AtomicBool,
    deadline: Option<Duration>,
    retry_after_ms: u64,
    panics_absorbed: AtomicU64,
    requests_shed: AtomicU64,
    requests_timed_out: AtomicU64,
    workers_spawned: AtomicU64,
}

impl PoolShared {
    fn shed_response(&self, reason: &str) -> Response {
        Response::unavailable(reason)
            .with_header(RETRY_AFTER_HEADER, self.retry_after_ms.to_string())
            .with_header(SHED_HEADER, reason)
    }

    /// Answers `job` with a 503 shed response, counting it as shed.
    fn shed(&self, job: Job, reason: &str) {
        self.requests_shed.fetch_add(1, Ordering::SeqCst);
        (job.reply)(self.shed_response(reason));
    }
}

fn spawn_worker(id: u64, shared: Arc<PoolShared>, jobs: Receiver<Job>) -> JoinHandle<()> {
    shared.workers_spawned.fetch_add(1, Ordering::SeqCst);
    std::thread::Builder::new()
        .name(format!("navsep-worker-{id}"))
        .spawn(move || {
            while let Ok(job) = jobs.recv() {
                if shared.draining.load(Ordering::SeqCst) {
                    shared.shed(job, "draining");
                    continue;
                }
                if let Some(deadline) = shared.deadline {
                    if job.enqueued.elapsed() > deadline {
                        shared.requests_timed_out.fetch_add(1, Ordering::SeqCst);
                        (job.reply)(shared.shed_response("deadline"));
                        continue;
                    }
                }
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| shared.handler.handle(&job.request)));
                match outcome {
                    Ok(response) => (job.reply)(response),
                    Err(_) => {
                        // The request that took the worker down still gets an
                        // explicit answer, then the worker exits and the
                        // supervisor replaces it (a fresh thread is the only
                        // state we can vouch for after a panic).
                        shared.panics_absorbed.fetch_add(1, Ordering::SeqCst);
                        (job.reply)(
                            Response::server_error("request handler panicked")
                                .with_header(RETRY_AFTER_HEADER, shared.retry_after_ms.to_string()),
                        );
                        let _ = shared.events.send(Event::WorkerExited);
                        return;
                    }
                }
            }
        })
        .expect("failed to spawn worker thread")
}

/// A fixed-size worker pool dispatching requests to a shared [`Handler`],
/// with bounded queueing, load shedding, deadlines, panic respawn, and
/// graceful shutdown (see the [module docs](self) for the contract).
///
/// # Examples
///
/// ```
/// use navsep_web::{Request, ServerPool, ShardedSiteHandler, ShardedSiteStore, Site};
/// use navsep_xml::Document;
/// use std::sync::Arc;
///
/// let mut site = Site::new();
/// site.put_document("a.xml", Document::parse("<a/>")?);
/// let store = Arc::new(ShardedSiteStore::from_site(1, &site));
/// let pool = ServerPool::start(Arc::new(ShardedSiteHandler::new(store)), 4);
/// let response = pool.request_sync(Request::get("a.xml"));
/// assert!(response.status().is_success());
/// pool.shutdown();
/// # Ok::<(), navsep_xml::ParseXmlError>(())
/// ```
pub struct ServerPool {
    jobs: Option<Sender<Job>>,
    supervisor: Option<JoinHandle<()>>,
    shared: Arc<PoolShared>,
    workers: usize,
}

impl std::fmt::Debug for ServerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl ServerPool {
    /// Starts `workers` threads serving through `handler`, with
    /// [`PoolConfig::new`] defaults.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn start<H: Handler + 'static>(handler: Arc<H>, workers: usize) -> Self {
        Self::start_with(handler, PoolConfig::new(workers))
    }

    /// Starts a pool with explicit sizing/robustness knobs.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` is zero.
    pub fn start_with<H: Handler + 'static>(handler: Arc<H>, config: PoolConfig) -> Self {
        assert!(
            config.workers > 0,
            "a server pool needs at least one worker"
        );
        let (jobs_tx, jobs_rx) = channel::bounded::<Job>(config.queue_capacity.max(1));
        let (events_tx, events_rx) = channel::unbounded::<Event>();
        let shared = Arc::new(PoolShared {
            handler: handler as Arc<dyn Handler>,
            events: events_tx,
            draining: AtomicBool::new(false),
            deadline: config.deadline,
            retry_after_ms: config.retry_after.as_millis() as u64,
            panics_absorbed: AtomicU64::new(0),
            requests_shed: AtomicU64::new(0),
            requests_timed_out: AtomicU64::new(0),
            workers_spawned: AtomicU64::new(0),
        });

        let supervisor = {
            let shared = Arc::clone(&shared);
            let jobs_rx = jobs_rx.clone();
            let workers = config.workers;
            std::thread::Builder::new()
                .name("navsep-pool-supervisor".to_string())
                .spawn(move || {
                    let mut next_id: u64 = 0;
                    let mut handles: Vec<JoinHandle<()>> = Vec::with_capacity(workers);
                    for _ in 0..workers {
                        handles.push(spawn_worker(next_id, Arc::clone(&shared), jobs_rx.clone()));
                        next_id += 1;
                    }
                    while let Ok(event) = events_rx.recv() {
                        match event {
                            Event::WorkerExited => {
                                if shared.draining.load(Ordering::SeqCst) {
                                    continue;
                                }
                                handles.push(spawn_worker(
                                    next_id,
                                    Arc::clone(&shared),
                                    jobs_rx.clone(),
                                ));
                                next_id += 1;
                            }
                            Event::Stop => break,
                        }
                    }
                    // Graceful drain: workers exit once the (now
                    // disconnected) queue is empty.
                    for handle in handles {
                        let _ = handle.join();
                    }
                    // If every worker panicked away during the drain, queued
                    // jobs may remain; answer them so no client ever hangs.
                    while let Ok(job) = jobs_rx.try_recv() {
                        shared.shed(job, "draining");
                    }
                })
                .expect("failed to spawn pool supervisor")
        };

        ServerPool {
            jobs: Some(jobs_tx),
            supervisor: Some(supervisor),
            shared,
            workers: config.workers,
        }
    }

    /// Submits a request whose answer arrives via `on_reply`, for callers
    /// that must not park a thread (the event-loop listener).
    ///
    /// Never blocks: a full queue or a draining pool invokes `on_reply`
    /// immediately (on the calling thread) with the 503 +
    /// [`RETRY_AFTER_HEADER`] shed response; otherwise `on_reply` runs
    /// later on a worker thread. Exactly one invocation either way — the
    /// callback is how a connection learns it can progress, so it is never
    /// dropped unrun.
    pub fn submit(&self, request: Request, on_reply: impl FnOnce(Response) + Send + 'static) {
        let job = Job {
            request,
            enqueued: Instant::now(),
            reply: Box::new(on_reply),
        };
        let Some(jobs) = &self.jobs else {
            self.shared.shed(job, "draining");
            return;
        };
        match jobs.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(job)) => self.shared.shed(job, "queue-full"),
            Err(TrySendError::Disconnected(job)) => self.shared.shed(job, "draining"),
        }
    }

    /// Convenience: [`submit`](Self::submit) and wait for the answer, with
    /// the same shed contract (a full queue answers 503 at once).
    ///
    /// The pool contract is that every accepted request is answered, but a
    /// client must not be able to *panic* on a contract violation — if the
    /// reply is ever dropped without being sent (a pool bug, or a future
    /// refactor missing a path), the caller gets an explicit 503 shed
    /// response ([`SHED_HEADER`]` : reply-dropped`) instead.
    pub fn request_sync(&self, request: Request) -> Response {
        let (tx, rx) = channel::bounded(1);
        self.submit(request, move |response| {
            let _ = tx.send(response);
        });
        rx.recv()
            .unwrap_or_else(|_| self.shared.shed_response("reply-dropped"))
    }

    /// Number of worker threads the pool was configured with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Handler panics absorbed (each cost one worker, since respawned).
    pub fn panics_absorbed(&self) -> u64 {
        self.shared.panics_absorbed.load(Ordering::SeqCst)
    }

    /// Requests shed with a 503 (queue-full or draining; excludes
    /// deadline timeouts).
    pub fn requests_shed(&self) -> u64 {
        self.shared.requests_shed.load(Ordering::SeqCst)
    }

    /// Requests shed because they out-waited the configured deadline.
    pub fn requests_timed_out(&self) -> u64 {
        self.shared.requests_timed_out.load(Ordering::SeqCst)
    }

    /// Total worker threads ever spawned (initial + respawns).
    pub fn workers_spawned(&self) -> u64 {
        self.shared.workers_spawned.load(Ordering::SeqCst)
    }

    /// Gracefully stops the pool: in-flight requests complete, queued ones
    /// are shed with a 503, and all threads are joined before returning.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Disconnect the queue so workers exit once it is drained.
        drop(self.jobs.take());
        let _ = self.shared.events.send(Event::Stop);
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
    }
}

impl Drop for ServerPool {
    fn drop(&mut self) {
        // Same graceful teardown when shutdown() was not called explicitly.
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Site;
    use crate::store::test_support::serve;
    use crate::store::ShardedSiteHandler;
    use navsep_xml::Document;

    fn site() -> Site {
        let mut s = Site::new();
        s.put_document("a.xml", Document::parse("<a>hello</a>").unwrap());
        s.put_css("style.css", "a { x: y }");
        s
    }

    fn handler() -> Arc<ShardedSiteHandler> {
        Arc::new(serve(&site()))
    }

    #[test]
    fn dropped_reply_channel_degrades_to_shed_not_panic() {
        let mut pool = ServerPool::start(handler(), 1);
        // Simulate the contract violation directly: a queue whose consumer
        // drops the job without ever running its reply.
        let (tx, rx) = channel::bounded::<Job>(1);
        pool.jobs = Some(tx);
        let response = std::thread::scope(|scope| {
            scope.spawn(|| drop(rx.recv()));
            pool.request_sync(Request::get("a.xml"))
        });
        assert_eq!(response.status().code(), 503);
        assert_eq!(response.header_value(SHED_HEADER), Some("reply-dropped"));
        assert!(response.header_value(RETRY_AFTER_HEADER).is_some());
        pool.shutdown();
    }

    #[test]
    fn submit_delivers_through_the_callback() {
        let pool = ServerPool::start(handler(), 2);
        let (tx, rx) = channel::bounded(1);
        pool.submit(Request::get("a.xml"), move |response| {
            tx.send(response).unwrap();
        });
        let response = rx.recv().unwrap();
        assert!(response.status().is_success());
        pool.shutdown();
    }

    #[test]
    fn submit_while_draining_sheds_through_the_callback() {
        let pool = ServerPool::start(handler(), 1);
        pool.shared.draining.store(true, Ordering::SeqCst);
        let (tx, rx) = channel::bounded(1);
        pool.submit(Request::get("a.xml"), move |response| {
            tx.send(response).unwrap();
        });
        let response = rx.recv().expect("callback always runs");
        assert_eq!(response.status().code(), 503);
        assert_eq!(response.header_value(SHED_HEADER), Some("draining"));
        pool.shutdown();
    }

    #[test]
    fn pool_serves_concurrently() {
        let pool = ServerPool::start(handler(), 4);
        assert_eq!(pool.workers(), 4);
        let (tx, rx) = channel::unbounded();
        for i in 0..64 {
            let path = if i % 2 == 0 { "a.xml" } else { "style.css" };
            let tx = tx.clone();
            pool.submit(Request::get(path), move |response| {
                tx.send(response).unwrap();
            });
        }
        drop(tx);
        let responses: Vec<Response> = rx.iter().collect();
        assert_eq!(responses.len(), 64);
        assert!(responses.iter().all(|r| r.status().is_success()));
        pool.shutdown();
    }

    #[test]
    fn pool_request_sync() {
        let pool = ServerPool::start(handler(), 2);
        let r = pool.request_sync(Request::get("style.css"));
        assert_eq!(r.content_type(), Some("text/css"));
        // Drop without explicit shutdown must not hang.
    }

    #[test]
    fn publish_under_load_is_safe() {
        let handler = handler();
        let pool = ServerPool::start(Arc::clone(&handler), 4);
        for i in 0..32 {
            if i % 8 == 0 {
                let mut s = site();
                s.put_text("version.txt", format!("v{i}"));
                handler.store().publish_incremental(&s);
            }
            let r = pool.request_sync(Request::get("a.xml"));
            assert!(r.status().is_success());
        }
        pool.shutdown();
        assert!(handler.requests_served() >= 32);
    }
}
