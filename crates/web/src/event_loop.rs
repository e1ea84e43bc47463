//! Readiness-driven connection multiplexing: a small fixed set of loop
//! threads, each owning a [`polling::Poller`], a slab of nonblocking
//! connections, and a timer wheel for idle keep-alive deadlines.
//!
//! Loop 0 additionally owns the accept socket: new connections are
//! admitted against the hard [`max_connections`](crate::ListenerConfig)
//! cap (over-cap peers get a best-effort 503 and an immediate close — the
//! listener sheds, it never queues connections) and round-robin assigned
//! across loops via each loop's [`Mailbox`].
//!
//! Pool completions arrive the same way: [`ServerPool::submit`] callbacks
//! capture the owning loop's mailbox and push a [`Msg::Reply`], waking the
//! loop through [`Poller::notify`] — no thread ever parks waiting for a
//! response, so thread count stays `loops + pool workers` no matter how
//! many sockets are open.
//!
//! [`ServerPool::submit`]: crate::server::ServerPool::submit
//! [`Poller::notify`]: polling::Poller::notify

use crate::conn::{Conn, ConnDirective, ParsedBatch};
use crate::http::Response;
use crate::listener::ListenerShared;
use crate::server::SHED_HEADER;
use crate::wire::serialize_response;
use polling::{Event, Interest, Poller};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Poller key reserved for the accept socket (loop 0 only).
/// `polling::NOTIFY_KEY` (`usize::MAX`) is reserved by the poller itself.
const ACCEPT_KEY: usize = usize::MAX - 1;

/// How long a draining loop lets a stalled peer hold its connection open
/// before force-closing it.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Timer wheel bucket width. Idle timeouts are coarse by design: a
/// deadline fires at most one granule late, and never wakes the loop per
/// connection.
const WHEEL_GRANULARITY: Duration = Duration::from_millis(50);

/// Timer wheel size: deadlines past `WHEEL_SLOTS * GRANULARITY` (~12.8s)
/// clamp to the last bucket and cascade on revalidation.
const WHEEL_SLOTS: usize = 256;

/// Cross-thread message box for one event loop. Pushing wakes the loop.
pub(crate) struct Mailbox {
    queue: Mutex<Vec<Msg>>,
    pub(crate) poller: Poller,
}

/// Work delivered to a loop from outside its thread.
pub(crate) enum Msg {
    /// A freshly accepted connection assigned to this loop.
    Accept(TcpStream),
    /// A pool completion for request `seq` on the connection at `slot`.
    /// `conn_id` guards against slot reuse: a reply for a previous
    /// occupant must not be written into the current one.
    Reply {
        slot: usize,
        conn_id: u64,
        seq: u64,
        response: Response,
    },
}

impl Mailbox {
    pub(crate) fn new() -> io::Result<Mailbox> {
        Ok(Mailbox {
            queue: Mutex::new(Vec::new()),
            poller: Poller::new()?,
        })
    }

    /// Enqueues `msg` and wakes the owning loop.
    pub(crate) fn push(&self, msg: Msg) {
        self.queue.lock().expect("mailbox lock").push(msg);
        let _ = self.poller.notify();
    }

    fn drain(&self) -> Vec<Msg> {
        std::mem::take(&mut *self.queue.lock().expect("mailbox lock"))
    }
}

/// A hashed timer wheel: O(1) schedule, one scan per wait to find the next
/// deadline, zero per-connection wakeups. Entries are lazily cancelled —
/// the loop revalidates `(slot, conn_id)` against the live connection's
/// actual deadline when a bucket fires, so bumping a deadline is just a
/// field write.
struct TimerWheel {
    buckets: Vec<Vec<(usize, u64)>>,
    cursor: usize,
    /// Start of the cursor bucket's time span.
    cursor_time: Instant,
    len: usize,
}

impl TimerWheel {
    fn new(now: Instant) -> TimerWheel {
        TimerWheel {
            buckets: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            cursor_time: now,
            len: 0,
        }
    }

    fn schedule(&mut self, now: Instant, deadline: Instant, slot: usize, conn_id: u64) {
        if self.len == 0 {
            // Nothing pending: resync so a long idle stretch does not
            // leave the cursor far in the past.
            self.cursor_time = now;
        }
        let offset = deadline.saturating_duration_since(self.cursor_time);
        let ticks = (offset.as_millis() / WHEEL_GRANULARITY.as_millis()) as usize;
        let bucket = (self.cursor + ticks.min(WHEEL_SLOTS - 1)) % WHEEL_SLOTS;
        self.buckets[bucket].push((slot, conn_id));
        self.len += 1;
    }

    /// Advances the cursor through every bucket whose span has fully
    /// passed, appending their entries (which the caller revalidates).
    fn expire(&mut self, now: Instant, out: &mut Vec<(usize, u64)>) {
        while now.saturating_duration_since(self.cursor_time) >= WHEEL_GRANULARITY {
            self.len -= self.buckets[self.cursor].len();
            out.append(&mut self.buckets[self.cursor]);
            self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
            self.cursor_time += WHEEL_GRANULARITY;
        }
    }

    /// Time until the nearest non-empty bucket fires, or `None` when no
    /// timers are pending (the wait then blocks until a notify).
    fn next_timeout(&self, now: Instant) -> Option<Duration> {
        if self.len == 0 {
            return None;
        }
        for i in 0..WHEEL_SLOTS {
            let bucket = (self.cursor + i) % WHEEL_SLOTS;
            if !self.buckets[bucket].is_empty() {
                let fire_at = self.cursor_time + WHEEL_GRANULARITY * (i as u32 + 1);
                return Some(fire_at.saturating_duration_since(now));
            }
        }
        None
    }
}

/// Everything one loop thread owns.
pub(crate) struct EventLoop {
    index: usize,
    mailbox: Arc<Mailbox>,
    /// Every loop's mailbox (round-robin accept assignment; loop 0 only).
    peers: Vec<Arc<Mailbox>>,
    shared: Arc<ListenerShared>,
    /// The accept socket (loop 0 only), nonblocking, registered under
    /// [`ACCEPT_KEY`].
    listener: Option<TcpListener>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    wheel: TimerWheel,
    draining: bool,
    next_rr: usize,
}

impl EventLoop {
    pub(crate) fn new(
        index: usize,
        listener: Option<TcpListener>,
        mailbox: Arc<Mailbox>,
        peers: Vec<Arc<Mailbox>>,
        shared: Arc<ListenerShared>,
    ) -> io::Result<EventLoop> {
        if let Some(listener) = &listener {
            listener.set_nonblocking(true)?;
            mailbox
                .poller
                .add(listener.as_raw_fd(), ACCEPT_KEY, Interest::READABLE)?;
        }
        Ok(EventLoop {
            index,
            mailbox,
            peers,
            shared,
            listener,
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            wheel: TimerWheel::new(Instant::now()),
            draining: false,
            next_rr: 0,
        })
    }

    /// The loop body: wait for readiness/notify/timers, then service the
    /// mailbox, socket events, and expired deadlines. Exits when draining
    /// and the last connection is gone.
    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut expired: Vec<(usize, u64)> = Vec::new();
        loop {
            if self.shared.stop.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if self.draining && self.live == 0 {
                break;
            }
            let timeout = self.wheel.next_timeout(Instant::now());
            events.clear();
            if self.mailbox.poller.wait(&mut events, timeout).is_err() {
                // A broken poller is unrecoverable; drop every connection
                // rather than spin.
                break;
            }
            for msg in self.mailbox.drain() {
                match msg {
                    Msg::Accept(stream) => self.adopt(stream),
                    Msg::Reply {
                        slot,
                        conn_id,
                        seq,
                        response,
                    } => self.on_reply(slot, conn_id, seq, response),
                }
            }
            for i in 0..events.len() {
                let event = events[i];
                if event.key == ACCEPT_KEY {
                    self.accept_burst();
                } else {
                    self.on_socket_event(event);
                }
            }
            expired.clear();
            self.wheel.expire(Instant::now(), &mut expired);
            for (slot, conn_id) in expired.drain(..) {
                self.on_deadline(slot, conn_id);
            }
        }
        self.teardown();
    }

    /// Accepts until the socket runs dry, admitting against the hard cap.
    fn accept_burst(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            let max = self.shared.max_connections;
            let admitted =
                self.shared
                    .open_now
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |open| {
                        if (open as usize) < max {
                            Some(open + 1)
                        } else {
                            None
                        }
                    });
            match admitted {
                Ok(open_before) => {
                    self.shared
                        .connections_accepted
                        .fetch_add(1, Ordering::SeqCst);
                    self.shared
                        .peak_open
                        .fetch_max(open_before + 1, Ordering::SeqCst);
                    let target = self.next_rr % self.peers.len();
                    self.next_rr = self.next_rr.wrapping_add(1);
                    if target == self.index {
                        self.adopt(stream);
                    } else {
                        self.peers[target].push(Msg::Accept(stream));
                    }
                }
                Err(_) => {
                    // At the cap: shed at accept time. Best-effort 503 —
                    // the buffer is empty so the write almost always
                    // lands — then close. Never queue the connection.
                    self.shared.shed_at_accept.fetch_add(1, Ordering::SeqCst);
                    let shed = Response::unavailable("connections-full")
                        .with_header(SHED_HEADER, "connections-full");
                    let mut stream = stream;
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.write(&serialize_response(&shed, false, false));
                }
            }
        }
    }

    /// Installs an admitted connection into the slab and the poller.
    fn adopt(&mut self, stream: TcpStream) {
        if self.draining {
            self.shared.open_now.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            self.shared.open_now.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let id = self.shared.next_conn_id.fetch_add(1, Ordering::SeqCst);
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        let now = Instant::now();
        let mut conn = Conn::new(stream, id, now);
        conn.idle_deadline = now + self.shared.keep_alive_timeout;
        if self
            .mailbox
            .poller
            .add(conn.stream.as_raw_fd(), slot, Interest::READABLE)
            .is_err()
        {
            self.free.push(slot);
            self.shared.open_now.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        self.wheel.schedule(now, conn.idle_deadline, slot, id);
        self.conns[slot] = Some(conn);
        self.live += 1;
    }

    /// A pool completion: install the response (staleness-guarded by
    /// `conn_id`), then try to push bytes out immediately.
    fn on_reply(&mut self, slot: usize, conn_id: u64, seq: u64, response: Response) {
        // Counted unconditionally: the pool answered, matching the
        // blocking path's accounting even if the peer vanished meanwhile.
        self.shared.requests_served.fetch_add(1, Ordering::SeqCst);
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.id != conn_id {
            return;
        }
        conn.on_reply(seq, &response);
        self.settle(slot);
    }

    /// A readiness event on a connection socket.
    fn on_socket_event(&mut self, event: Event) {
        let slot = event.key;
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if event.readable && conn.interest().readable {
            let now = Instant::now();
            let batch = conn.on_readable(
                self.shared.max_pipeline,
                self.draining,
                now,
                self.shared.keep_alive_timeout,
            );
            if self.dispatch(slot, batch) == ConnDirective::Close {
                self.close(slot);
                return;
            }
        }
        self.settle(slot);
    }

    /// Accounts a parsed batch and submits its requests to the pool, each
    /// completion routed back to this loop's mailbox.
    fn dispatch(&mut self, slot: usize, batch: ParsedBatch) -> ConnDirective {
        if batch.bad_request {
            self.shared.bad_requests.fetch_add(1, Ordering::SeqCst);
        }
        if batch.answered_bad_request {
            self.shared.requests_served.fetch_add(1, Ordering::SeqCst);
        }
        let conn_id = match self.conns.get(slot).and_then(Option::as_ref) {
            Some(conn) => conn.id,
            None => return ConnDirective::Close,
        };
        for (seq, request) in batch.requests {
            let mailbox = Arc::clone(&self.mailbox);
            self.shared
                .pool
                .submit(request.to_request(), move |response| {
                    mailbox.push(Msg::Reply {
                        slot,
                        conn_id,
                        seq,
                        response,
                    });
                });
        }
        batch.directive
    }

    /// Flushes queued output, resumes parsing if a pipeline-full pause
    /// lifted, and re-arms the poller with the connection's current
    /// interest. Closes on flush completion of a closing connection.
    fn settle(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            let now = Instant::now();
            if conn.flush(now, self.shared.keep_alive_timeout) == ConnDirective::Close {
                self.close(slot);
                return;
            }
            let batch = conn.resume(self.shared.max_pipeline, self.draining);
            let progressed = !batch.requests.is_empty() || batch.answered_bad_request;
            if self.dispatch(slot, batch) == ConnDirective::Close {
                self.close(slot);
                return;
            }
            if !progressed {
                break;
            }
        }
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let interest = conn.interest();
        let _ = self
            .mailbox
            .poller
            .modify(conn.stream.as_raw_fd(), slot, interest);
    }

    /// A timer bucket fired for `(slot, conn_id)`: revalidate lazily.
    fn on_deadline(&mut self, slot: usize, conn_id: u64) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.id != conn_id {
            return;
        }
        let now = Instant::now();
        if now < conn.idle_deadline {
            // Activity pushed the deadline out since this entry was
            // scheduled: re-arm at the real deadline.
            let deadline = conn.idle_deadline;
            self.wheel.schedule(now, deadline, slot, conn_id);
            return;
        }
        if conn.is_idle() || self.draining {
            // Idle past its keep-alive deadline (or out of drain grace):
            // reap it.
            self.close(slot);
        } else {
            // Busy: requests are in flight or mid-parse. The deadline
            // extends — only *idle* connections are reaped.
            let deadline = now + self.shared.keep_alive_timeout;
            conn.idle_deadline = deadline;
            self.wheel.schedule(now, deadline, slot, conn_id);
        }
    }

    /// Stops accepting and marks every connection for drain: idle ones
    /// close now, busy ones flush their pipeline under a grace deadline.
    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.mailbox.poller.delete(listener.as_raw_fd());
        }
        let now = Instant::now();
        let grace = now + DRAIN_GRACE;
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if conn.is_idle() {
                self.close(slot);
            } else {
                let conn_id = conn.id;
                conn.begin_drain(grace);
                self.wheel.schedule(now, grace, slot, conn_id);
                self.settle(slot);
            }
        }
    }

    /// Deregisters and drops the connection, freeing its slot.
    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) {
            let _ = self.mailbox.poller.delete(conn.stream.as_raw_fd());
            drop(conn);
            self.free.push(slot);
            self.live -= 1;
            self.shared.open_now.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn teardown(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.mailbox.poller.delete(listener.as_raw_fd());
        }
        for slot in 0..self.conns.len() {
            self.close(slot);
        }
    }
}
