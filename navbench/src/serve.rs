//! The serve path, driven over loopback: closed-loop navigation sessions
//! against an [`HttpListener`], the checks on every response, and the
//! traced-run instruments (handler spans, in-process wire replay, a bare
//! echo socket for the machine's floor).

use crate::stats::us;
use bytes::Bytes;
use navsep_web::wire::{read_response, serialize_request, serialize_response, RequestParser};
use navsep_web::{
    links_of, resolve_href, Handler, HttpListener, ListenerConfig, Request, Response,
    ShardedSiteStore, WireLimits, WireResponse, AT_GENERATION_HEADER, DEGRADED_HEADER,
    GENERATION_HEADER, IF_GENERATION_HEADER, SHED_HEADER,
};
use navsep_xml::Document;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One request in `HEAD_ONE_IN` is a `HEAD`.
const HEAD_ONE_IN: u32 = 10;
/// One request in `JUMP_ONE_IN` jumps to a random painter page.
const JUMP_ONE_IN: u32 = 20;
/// Requests per session (after its start page and stylesheet).
const SESSION_LEN: std::ops::Range<u32> = 20..60;
/// Requests each client thread keeps for the in-process wire replay.
const RECORDED_PER_THREAD: usize = 20_000;
/// A read phase is cut into this many equal windows of time.
pub const WINDOWS: usize = 10;

/// Binds `handler` on an ephemeral loopback port.
///
/// # Panics
///
/// Panics if loopback cannot be bound.
pub fn bind<H: Handler + 'static>(handler: Arc<H>, config: ListenerConfig) -> HttpListener {
    HttpListener::bind("127.0.0.1:0", handler, config).expect("bind a loopback listener")
}

/// The site's paths and the woven links on each page, read from the
/// published bodies, with each request's wire bytes prepared once.
#[derive(Debug)]
pub struct Links {
    /// Every published path.
    pub paths: Vec<String>,
    /// For each path, the pages its woven `<a href>` links lead to.
    out: Vec<Vec<usize>>,
    painters: Vec<usize>,
    css: usize,
    get_bytes: Vec<Vec<u8>>,
    head_bytes: Vec<Vec<u8>>,
}

impl Links {
    /// Reads the links of every page `store` serves now.
    ///
    /// # Panics
    ///
    /// Panics if a page is not well-formed or a painter page is missing:
    /// the set-up has already checked the site against a fresh weave.
    pub fn of(store: &ShardedSiteStore, painter_pages: &[String], css: &str) -> Links {
        let paths = store.paths();
        let index: HashMap<String, usize> = paths
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i))
            .collect();
        let out = paths
            .iter()
            .map(|path| {
                if !path.ends_with(".html") {
                    return Vec::new();
                }
                let body = store.get(path).expect("listed path is served").body();
                let text = std::str::from_utf8(&body).expect("pages are UTF-8");
                let doc = Document::parse(text).expect("served pages are well-formed");
                let mut targets: Vec<usize> = links_of(&doc)
                    .expect("woven links are well-formed")
                    .iter()
                    .filter_map(|l| index.get(&resolve_href(&l.href, path)).copied())
                    .filter(|&t| paths[t].ends_with(".html"))
                    .collect();
                targets.sort_unstable();
                targets.dedup();
                targets
            })
            .collect();
        let painters = painter_pages
            .iter()
            .map(|p| *index.get(p).expect("painter pages are served"))
            .collect();
        let css = *index.get(css).expect("the stylesheet is served");
        let get_bytes = paths
            .iter()
            .map(|p| serialize_request(&Request::get(p.as_str())))
            .collect();
        let head_bytes = paths
            .iter()
            .map(|p| serialize_request(&Request::head(p.as_str())))
            .collect();
        Links {
            paths,
            out,
            painters,
            css,
            get_bytes,
            head_bytes,
        }
    }

    fn random_painter(&self, rng: &mut StdRng) -> usize {
        self.painters[rng.gen_range(0..self.painters.len())]
    }
}

/// How the read phase behaves.
#[derive(Debug, Clone, Copy)]
pub struct ReadPlan {
    /// Keep-alive connections, one client thread each.
    pub connections: usize,
    /// How long the sessions run.
    pub duration: Duration,
    /// Seed for start pages and link choices.
    pub seed: u64,
}

/// Everything the client side of a read phase saw.
#[derive(Debug, Default)]
pub struct Reads {
    /// Requests sent.
    pub sent: u64,
    /// Requests that got any HTTP response.
    pub answered: u64,
    /// Reads that failed: non-2xx, connection error or body mismatch.
    pub failed: u64,
    /// `400` responses seen.
    pub bad_requests: u64,
    /// `503` responses carrying the shed header.
    pub shed: u64,
    /// Send-to-end-of-response latency of each successful read, in µs,
    /// by the window of the phase the request was sent in.
    pub windows: Vec<Vec<f64>>,
    /// Wall time of the phase.
    pub elapsed: Duration,
    /// Check failures, described.
    pub violations: Vec<String>,
    /// Requests kept for the in-process wire replay: bytes and whether it
    /// was a `HEAD`.
    pub recorded: Vec<(Vec<u8>, bool)>,
    /// (path, generation) of successful `GET`s, for the time-travel
    /// replay of a traced run.
    pub history: Vec<(usize, u64)>,
}

impl Reads {
    fn merge(&mut self, other: Reads) {
        self.sent += other.sent;
        self.answered += other.answered;
        self.failed += other.failed;
        self.bad_requests += other.bad_requests;
        self.shed += other.shed;
        self.windows
            .resize(other.windows.len().max(self.windows.len()), Vec::new());
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.extend(theirs);
        }
        self.violations.extend(other.violations);
        self.recorded.extend(other.recorded);
        self.history.extend(other.history);
    }

    /// Every successful read's latency, in µs.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.windows.concat()
    }

    fn violate(&mut self, what: String) {
        self.failed += 1;
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }
}

/// One keep-alive client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request and reads its response: the exchange every read
    /// latency and the echo floor time.
    fn exchange(&mut self, request: &[u8], head: bool) -> io::Result<WireResponse> {
        self.writer.write_all(request)?;
        read_response(&mut self.reader, head)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))
    }
}

/// What a session asks for next.
struct Step {
    path: usize,
    head: bool,
}

/// A reader's navigation session: a painter page, the stylesheet once,
/// then the woven links of each page received.
#[derive(Default)]
struct Session {
    at: usize,
    left: u32,
    css_due: bool,
}

impl Session {
    fn next(&mut self, rng: &mut StdRng, links: &Links) -> Step {
        let plain = |path| Step { path, head: false };
        if self.left == 0 {
            self.at = links.random_painter(rng);
            self.left = rng.gen_range(SESSION_LEN);
            self.css_due = true;
            return plain(self.at);
        }
        self.left -= 1;
        if self.css_due {
            self.css_due = false;
            return plain(links.css);
        }
        let head = rng.gen_range(0..HEAD_ONE_IN) == 0;
        let out = &links.out[self.at];
        self.at = if out.is_empty() || rng.gen_range(0..JUMP_ONE_IN) == 0 {
            links.random_painter(rng)
        } else {
            out[rng.gen_range(0..out.len())]
        };
        Step {
            path: self.at,
            head,
        }
    }
}

/// Runs `plan.connections` closed-loop clients against `addr` until
/// `plan.duration` has passed. Nobody publishes to `store` during the
/// phase, so every `GET` body must equal `store.get(path).body()` and every
/// `HEAD`'s content-length its length; each response is checked as it
/// arrives.
pub fn run_sessions(
    addr: SocketAddr,
    plan: &ReadPlan,
    links: &Links,
    store: &ShardedSiteStore,
) -> Reads {
    let start = Instant::now();
    let deadline = start + plan.duration;
    let mut reads = Reads::default();
    let parts: Vec<Reads> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.connections)
            .map(|t| {
                let seed = plan.seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                scope.spawn(move || client_thread(addr, seed, plan, links, store, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    for part in parts {
        reads.merge(part);
    }
    reads.elapsed = start.elapsed();
    reads
}

fn client_thread(
    addr: SocketAddr,
    seed: u64,
    plan: &ReadPlan,
    links: &Links,
    store: &ShardedSiteStore,
    deadline: Instant,
) -> Reads {
    let mut reads = Reads {
        windows: vec![Vec::new(); WINDOWS],
        ..Reads::default()
    };
    let window = plan.duration.as_secs_f64() / WINDOWS as f64;
    let phase_start = deadline - plan.duration;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut client = None;
    let mut session = Session::default();
    while Instant::now() < deadline {
        let step = session.next(&mut rng, links);
        let request = if step.head {
            &links.head_bytes[step.path]
        } else {
            &links.get_bytes[step.path]
        };
        if reads.recorded.len() < RECORDED_PER_THREAD {
            reads.recorded.push((request.clone(), step.head));
        }
        reads.sent += 1;
        let conn = match client.as_mut() {
            Some(conn) => conn,
            None => match Client::connect(addr) {
                Ok(conn) => client.insert(conn),
                Err(e) => {
                    reads.violate(format!("connect: {e}"));
                    continue;
                }
            },
        };
        let start = Instant::now();
        let result = conn.exchange(request, step.head);
        let latency = us(start.elapsed());
        let response = match result {
            Ok(response) => response,
            Err(e) => {
                reads.violate(format!("{}: connection error: {e}", links.paths[step.path]));
                client = None;
                session = Session::default();
                continue;
            }
        };
        reads.answered += 1;
        if !(200..300).contains(&response.status) {
            reads.bad_requests += u64::from(response.status == 400);
            reads.shed +=
                u64::from(response.status == 503 && response.header_value(SHED_HEADER).is_some());
            reads.violate(format!(
                "{}: status {}",
                links.paths[step.path], response.status
            ));
            continue;
        }
        let generation = response
            .header_value(GENERATION_HEADER)
            .and_then(|g| g.parse::<u64>().ok());
        let Some(generation) = generation else {
            reads.violate(format!("{}: no generation stamp", links.paths[step.path]));
            continue;
        };
        let want = store
            .get(&links.paths[step.path])
            .map(|r| r.body())
            .unwrap_or_default();
        let ok = if step.head {
            response
                .header_value("content-length")
                .and_then(|l| l.parse::<usize>().ok())
                == Some(want.len())
        } else {
            response.body[..] == want[..]
        };
        if !ok {
            reads.violate(format!(
                "{}: {} differs from the store's body",
                links.paths[step.path],
                if step.head {
                    "HEAD content-length"
                } else {
                    "body"
                }
            ));
            continue;
        }
        if !step.head && reads.history.len() < RECORDED_PER_THREAD {
            reads.history.push((step.path, generation));
        }
        let at = (start - phase_start).as_secs_f64() / window;
        reads.windows[(at as usize).min(WINDOWS - 1)].push(latency);
    }
    reads
}

/// Fetches every path once over one connection: the serve path's warm-up.
/// Returns the paths that did not answer 2xx.
pub fn warm_up(addr: SocketAddr, links: &Links) -> Vec<String> {
    let mut failed = Vec::new();
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => return vec![format!("connect: {e}")],
    };
    for (i, path) in links.paths.iter().enumerate() {
        match client.exchange(&links.get_bytes[i], false) {
            Ok(r) if (200..300).contains(&r.status) => {}
            Ok(r) => failed.push(format!("{path}: status {}", r.status)),
            Err(e) => failed.push(format!("{path}: {e}")),
        }
    }
    failed
}

/// Handle spans recorded in situ by [`TimedHandler`], in µs.
#[derive(Debug, Default)]
pub struct Spans {
    /// Requests without `x-navsep-at-generation`.
    pub plain: Mutex<Vec<f64>>,
    /// Time-travel requests.
    pub at: Mutex<Vec<f64>>,
}

impl Spans {
    /// Drops every recorded span.
    pub fn clear(&self) {
        self.take_plain();
        self.take_at();
    }

    /// Takes the spans of requests without `x-navsep-at-generation`.
    pub fn take_plain(&self) -> Vec<f64> {
        std::mem::take(&mut *self.plain.lock().expect("no span recorder panics"))
    }

    /// Takes the spans of time-travel requests.
    pub fn take_at(&self) -> Vec<f64> {
        std::mem::take(&mut *self.at.lock().expect("no span recorder panics"))
    }
}

/// Times every call into the wrapped handler. Spans are kept in memory.
#[derive(Debug)]
pub struct TimedHandler<H> {
    inner: H,
    spans: Arc<Spans>,
}

impl<H> TimedHandler<H> {
    /// Wraps `inner`, recording into `spans`.
    pub fn new(inner: H, spans: Arc<Spans>) -> Self {
        TimedHandler { inner, spans }
    }
}

impl<H: Handler> Handler for TimedHandler<H> {
    fn handle(&self, request: &Request) -> Response {
        let start = Instant::now();
        let response = self.inner.handle(request);
        let span = us(start.elapsed());
        let into = if request.header_value(AT_GENERATION_HEADER).is_some() {
            &self.spans.at
        } else {
            &self.spans.plain
        };
        into.lock().expect("no span recorder panics").push(span);
        response
    }
}

/// Per-request costs of the wire layer, from replaying recorded requests
/// in process through the calls a connection makes.
#[derive(Debug, Default)]
pub struct WireCosts {
    /// `RequestParser::push` + `next_request` + `to_request`, µs each.
    pub parse_us: Vec<f64>,
    /// `serialize_response`, µs each.
    pub serialize_us: Vec<f64>,
    /// Serialized response sizes.
    pub resp_bytes: Vec<f64>,
}

/// Replays `recorded` requests through the parser, `handler` and the
/// response serializer, timing parse and serialize.
///
/// # Errors
///
/// A recorded request that does not parse back.
pub fn replay_wire<H: Handler>(
    recorded: &[(Vec<u8>, bool)],
    handler: &H,
) -> Result<WireCosts, String> {
    let mut costs = WireCosts::default();
    let mut parser = RequestParser::new(WireLimits::default());
    for (bytes, head) in recorded {
        let start = Instant::now();
        parser.push(bytes);
        let parsed = parser.next_request();
        let request = match &parsed {
            Ok(Some(wire)) => wire.to_request(),
            other => return Err(format!("recorded request did not parse back: {other:?}")),
        };
        costs.parse_us.push(us(start.elapsed()));
        let response = handler.handle(&request);
        let start = Instant::now();
        let out = std::hint::black_box(serialize_response(&response, *head, true));
        costs.serialize_us.push(us(start.elapsed()));
        costs.resp_bytes.push(out.len() as f64);
    }
    Ok(costs)
}

/// Replays history entries `(path, generation)` as time-travel `GET`s
/// through `handler` in process; returns how many came back degraded.
pub fn replay_history<H: Handler>(history: &[(usize, u64)], links: &Links, handler: &H) -> u64 {
    let mut degraded = 0;
    for &(path, generation) in history {
        let response = handler.handle(
            &Request::get(links.paths[path].as_str())
                .header(AT_GENERATION_HEADER, generation.to_string())
                .header(IF_GENERATION_HEADER, generation.to_string()),
        );
        degraded += u64::from(response.header_value(DEGRADED_HEADER).is_some());
    }
    degraded
}

/// Raw latency samples, in µs, of the client exchange against a bare socket
/// that answers every request head with `reply`: loopback plus wake-ups,
/// none of the program's layers.
///
/// # Errors
///
/// Any socket error.
pub fn echo_floor(request: &[u8], reply: Bytes, duration: Duration) -> io::Result<Vec<f64>> {
    let socket = TcpListener::bind("127.0.0.1:0")?;
    let addr = socket.local_addr()?;
    std::thread::scope(|scope| {
        let server = scope.spawn(move || -> io::Result<()> {
            let (stream, _) = socket.accept()?;
            stream.set_nodelay(true)?;
            let mut writer = stream.try_clone()?;
            let mut reader = BufReader::new(stream);
            let mut line = Vec::new();
            loop {
                // A request head ends with an empty line.
                line.clear();
                if reader.read_until(b'\n', &mut line)? == 0 {
                    return Ok(());
                }
                if line == b"\r\n" {
                    writer.write_all(&reply)?;
                }
            }
        });
        let mut samples = Vec::new();
        let result = (|| {
            let mut client = Client::connect(addr)?;
            let deadline = Instant::now() + duration;
            while Instant::now() < deadline {
                let start = Instant::now();
                client.exchange(request, false)?;
                samples.push(us(start.elapsed()));
            }
            client.writer.shutdown(std::net::Shutdown::Both)?;
            // Drain so the server sees EOF rather than a reset.
            let _ = client.reader.read_to_end(&mut Vec::new());
            Ok::<(), io::Error>(())
        })();
        let served = server.join().expect("echo server thread does not panic");
        result.and(served).map(|()| samples)
    })
}

/// The canned reply [`echo_floor`] sends: `body` served the way the
/// listener would serve it.
pub fn canned_reply(body: Bytes) -> Bytes {
    Bytes::from(serialize_response(
        &Response::ok("text/html", body),
        false,
        true,
    ))
}
