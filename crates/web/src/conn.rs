//! Per-connection state machine for the event-loop listener.
//!
//! A [`Conn`] owns one nonblocking socket and everything in flight on it:
//! the resumable [`RequestParser`] (partial reads resume across readiness
//! events), an ordered pipeline of response slots (HTTP/1.1 pipelining:
//! responses go out in request order even when the pool finishes them out
//! of order), and a partially written output position (vectored writes,
//! short-write aware).
//!
//! The machine is driven from outside by [`event_loop`](crate::event_loop):
//! readable events feed [`Conn::on_readable`], pool completions land via
//! [`Conn::on_reply`], writable events flush through [`Conn::flush`], and
//! every entry point returns a [`ConnDirective`] telling the loop whether
//! to keep the connection registered (and with what interest) or close it.

use crate::http::Response;
use crate::wire::{serialize_response, RequestParser, WireLimits, WireRequest};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// What the event loop should do with the connection after an entry point
/// ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnDirective {
    /// Keep serving; re-arm with [`Conn::interest`].
    Continue,
    /// Close now: deregister, drop the socket, free the slot.
    Close,
}

/// One pipelined exchange: the response slot for the `seq`-th request
/// parsed off this connection. Slots complete out of order (the pool is
/// concurrent) but transmit strictly in order.
struct PipelineSlot {
    seq: u64,
    /// HEAD requests serialize without body bytes.
    head: bool,
    /// Whether the serialized response advertises keep-alive.
    keep_alive: bool,
    /// The serialized response, once the pool answered.
    bytes: Option<Vec<u8>>,
}

/// A connection owned by one event loop.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    /// Unique per listener; guards against slot-reuse races (a stale
    /// completion for a previous occupant of this slot must not write
    /// into the new connection).
    pub(crate) id: u64,
    parser: RequestParser,
    slots: VecDeque<PipelineSlot>,
    next_seq: u64,
    /// Bytes of the front slot already written (short writes resume here).
    front_written: usize,
    /// No more requests will be read: EOF, `connection: close`, a parse
    /// error, or drain.
    read_closed: bool,
    /// Close once every queued response is flushed.
    close_after_flush: bool,
    /// Reading is paused because the pipeline is at capacity.
    read_paused: bool,
    /// The peer half-closed (read returned 0). Settled lazily so a
    /// pipeline-full pause can drain buffered requests first.
    eof: bool,
    /// When this connection, if still idle, should be reaped.
    pub(crate) idle_deadline: Instant,
    /// Requests parsed on this connection (listener stats).
    pub(crate) requests_parsed: u64,
    /// Parse errors on this connection (0 or 1 — errors are terminal).
    pub(crate) parse_errors: u64,
}

/// What [`Conn::on_readable`] extracted: requests to submit to the pool,
/// plus the stats the listener needs to account for.
pub(crate) struct ParsedBatch {
    /// `(seq, request)` pairs, in arrival order.
    pub(crate) requests: Vec<(u64, WireRequest)>,
    pub(crate) directive: ConnDirective,
    /// A parse error occurred (counts toward `bad_requests`).
    pub(crate) bad_request: bool,
    /// The parse error was answered with a queued 400 (counts toward
    /// `requests_served`, matching the blocking path's accounting).
    pub(crate) answered_bad_request: bool,
}

impl ParsedBatch {
    fn empty(directive: ConnDirective) -> ParsedBatch {
        ParsedBatch {
            requests: Vec::new(),
            directive,
            bad_request: false,
            answered_bad_request: false,
        }
    }
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, id: u64, now: Instant) -> Conn {
        Conn {
            stream,
            id,
            parser: RequestParser::new(WireLimits::default()),
            slots: VecDeque::new(),
            next_seq: 0,
            front_written: 0,
            read_closed: false,
            close_after_flush: false,
            read_paused: false,
            eof: false,
            idle_deadline: now,
            requests_parsed: 0,
            parse_errors: 0,
        }
    }

    /// The readiness interest this connection currently needs: readable
    /// while accepting requests (and not pipeline-paused), writable while
    /// queued bytes remain.
    pub(crate) fn interest(&self) -> polling::Interest {
        polling::Interest {
            readable: !self.read_closed && !self.read_paused,
            writable: self.has_pending_output(),
        }
    }

    /// Whether any response bytes are queued (ready or awaited).
    fn has_pending_output(&self) -> bool {
        self.slots.iter().any(|slot| slot.bytes.is_some())
    }

    /// Whether the connection is fully idle: no outstanding requests, no
    /// unwritten output, parser at a request boundary.
    pub(crate) fn is_idle(&self) -> bool {
        self.slots.is_empty() && self.parser.is_idle()
    }

    /// Drains the socket and the parser: reads until `WouldBlock` (or
    /// EOF), then extracts every complete request up to `max_pipeline`
    /// outstanding. Parse errors enqueue their 400 (when the error merits
    /// one) as a final response and mark the connection closing.
    pub(crate) fn on_readable(
        &mut self,
        max_pipeline: usize,
        draining: bool,
        now: Instant,
        keep_alive_timeout: std::time::Duration,
    ) -> ParsedBatch {
        let mut buf = [0u8; 16 * 1024];
        while !self.read_closed && !self.eof {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.parser.push(&buf[..n]);
                    self.idle_deadline = now + keep_alive_timeout;
                    // Keep reading until the socket runs dry — level
                    // triggering would re-wake us anyway, but one pass is
                    // cheaper.
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    // Transport failure: nothing to answer, nothing left
                    // to flush to a broken peer.
                    return ParsedBatch::empty(ConnDirective::Close);
                }
            }
        }
        let mut batch = self.extract_requests(max_pipeline, draining);
        self.settle_eof(&mut batch);
        batch
    }

    /// Re-runs request extraction without touching the socket — used after
    /// a pipeline-full pause lifts, since buffered parser data generates
    /// no further readiness events.
    pub(crate) fn resume(&mut self, max_pipeline: usize, draining: bool) -> ParsedBatch {
        if self.read_closed || self.read_paused {
            return ParsedBatch::empty(ConnDirective::Continue);
        }
        let mut batch = self.extract_requests(max_pipeline, draining);
        self.settle_eof(&mut batch);
        batch
    }

    /// Applies a seen EOF once extraction can make no further progress.
    /// A paused pipeline defers settlement — the buffered requests it
    /// holds are not "truncated"; they just haven't been admitted yet.
    fn settle_eof(&mut self, batch: &mut ParsedBatch) {
        if !self.eof || self.read_closed || self.read_paused {
            return;
        }
        if !self.parser.is_idle() {
            // EOF mid-request: the blocking path answers 400 "truncated
            // request" before closing (the peer may have only shut its
            // write half), so we do too.
            self.parse_errors += 1;
            batch.bad_request = true;
            batch.answered_bad_request = true;
            let seq = self.next_seq;
            self.next_seq += 1;
            self.slots.push_back(PipelineSlot {
                seq,
                head: false,
                keep_alive: false,
                bytes: Some(serialize_response(
                    &crate::wire::WireError::Truncated
                        .response()
                        .expect("truncation answers 400"),
                    false,
                    false,
                )),
            });
        }
        self.read_closed = true;
        if self.slots.is_empty() {
            // Clean close at a request boundary: no one left to serve.
            batch.directive = ConnDirective::Close;
        } else {
            // EOF with responses still owed: finish writing, then close.
            self.close_after_flush = true;
        }
    }

    /// Pulls complete requests out of the parser, reserving a pipeline
    /// slot per request. Stops at `max_pipeline` outstanding (reading
    /// pauses — bounded memory per connection; resumes as responses
    /// flush).
    fn extract_requests(&mut self, max_pipeline: usize, draining: bool) -> ParsedBatch {
        let mut requests = Vec::new();
        let mut bad_request = false;
        let mut answered_bad_request = false;
        while !self.read_closed {
            if self.slots.len() >= max_pipeline {
                self.read_paused = true;
                break;
            }
            match self.parser.next_request() {
                Ok(None) => break,
                Ok(Some(request)) => {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.requests_parsed += 1;
                    let keep_alive = request.wants_keep_alive() && !draining;
                    self.slots.push_back(PipelineSlot {
                        seq,
                        head: request.method() == crate::http::Method::Head,
                        keep_alive,
                        bytes: None,
                    });
                    if !keep_alive {
                        // `connection: close` (or drain): this is the
                        // final exchange; bytes after it are ignored.
                        self.read_closed = true;
                        self.close_after_flush = true;
                    }
                    requests.push((seq, request));
                }
                Err(error) => {
                    self.parse_errors += 1;
                    self.read_closed = true;
                    self.close_after_flush = true;
                    bad_request = true;
                    match error.response() {
                        Some(response) => {
                            // The 400 takes a slot like any response so it
                            // transmits after the answers it pipelined in
                            // behind.
                            answered_bad_request = true;
                            let seq = self.next_seq;
                            self.next_seq += 1;
                            self.slots.push_back(PipelineSlot {
                                seq,
                                head: false,
                                keep_alive: false,
                                bytes: Some(serialize_response(&response, false, false)),
                            });
                        }
                        None => {
                            if self.slots.is_empty() {
                                return ParsedBatch {
                                    requests,
                                    directive: ConnDirective::Close,
                                    bad_request,
                                    answered_bad_request,
                                };
                            }
                        }
                    }
                    break;
                }
            }
        }
        ParsedBatch {
            requests,
            directive: ConnDirective::Continue,
            bad_request,
            answered_bad_request,
        }
    }

    /// Installs the pool's answer for request `seq` and serializes it with
    /// the keep-alive/HEAD framing decided at parse time. Unknown `seq`s
    /// (a slot already abandoned) are ignored.
    pub(crate) fn on_reply(&mut self, seq: u64, response: &Response) {
        if let Some(slot) = self.slots.iter_mut().find(|slot| slot.seq == seq) {
            if slot.bytes.is_none() {
                slot.bytes = Some(serialize_response(response, slot.head, slot.keep_alive));
            }
        }
    }

    /// Writes as much queued output as the socket accepts: consecutive
    /// ready responses go out in one vectored write; short writes leave
    /// `front_written` pointing at the resume position. Returns `Close`
    /// when the final response is flushed on a closing connection, or on
    /// transport failure.
    pub(crate) fn flush(
        &mut self,
        now: Instant,
        keep_alive_timeout: std::time::Duration,
    ) -> ConnDirective {
        loop {
            self.pop_flushed();
            if self.slots.is_empty() {
                if self.read_closed || self.close_after_flush {
                    return ConnDirective::Close;
                }
                self.idle_deadline = now + keep_alive_timeout;
                return ConnDirective::Continue;
            }
            // Gather the contiguous ready prefix of the pipeline.
            let mut ready: Vec<IoSlice<'_>> = Vec::new();
            for (i, slot) in self.slots.iter().enumerate() {
                match &slot.bytes {
                    Some(bytes) => {
                        let skip = if i == 0 { self.front_written } else { 0 };
                        ready.push(IoSlice::new(&bytes[skip..]));
                    }
                    // The front (or a later slot) still awaits its pool
                    // answer — responses never overtake request order.
                    None => break,
                }
            }
            if ready.is_empty() {
                return ConnDirective::Continue;
            }
            match self.stream.write_vectored(&ready) {
                Ok(0) => return ConnDirective::Close,
                Ok(written) => {
                    self.advance_written(written);
                    self.idle_deadline = now + keep_alive_timeout;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return ConnDirective::Continue;
                }
                Err(_) => return ConnDirective::Close,
            }
        }
    }

    /// Advances the write position by `written`, popping every slot that
    /// completed (a vectored write can finish several at once).
    fn advance_written(&mut self, mut written: usize) {
        while written > 0 {
            let Some(front) = self.slots.front() else {
                break;
            };
            let Some(bytes) = &front.bytes else { break };
            let remaining = bytes.len() - self.front_written;
            if written >= remaining {
                written -= remaining;
                self.front_written = 0;
                self.slots.pop_front();
                self.read_paused = false;
            } else {
                self.front_written += written;
                written = 0;
            }
        }
    }

    /// Pops front slots that are fully written.
    fn pop_flushed(&mut self) {
        while let Some(front) = self.slots.front() {
            match &front.bytes {
                Some(bytes) if self.front_written >= bytes.len() => {
                    self.front_written = 0;
                    self.slots.pop_front();
                    self.read_paused = false;
                }
                _ => break,
            }
        }
    }

    /// Marks the connection for drain: no new requests; close once the
    /// in-flight pipeline is flushed. `grace_deadline` bounds how long a
    /// stalled peer can hold the drain open.
    pub(crate) fn begin_drain(&mut self, grace_deadline: Instant) {
        self.read_closed = true;
        self.close_after_flush = true;
        self.idle_deadline = grace_deadline;
    }
}
