//! The server's connection front end: one thread, an epoll/poll
//! readiness loop ([`crate::sys`]), and per-connection state machines.
//!
//! *All* connections share the one loop thread, so hundreds of
//! keep-alive clients cost buffers, not stacks, and never fight the
//! worker pool that runs the dynamics; workers stay the only compute
//! parallelism. Concretely:
//!
//! * **reads** are non-blocking: bytes accumulate per connection and
//!   [`crate::http::parse_request`] retries until a request completes
//!   — a slow-loris client trickling bytes costs one buffer, not a
//!   thread, and a per-request read deadline culls it;
//! * **writes** are interest-driven: responses and stream chunks queue
//!   on a per-connection write buffer; write interest is registered
//!   only while bytes are pending, so level-triggered readiness never
//!   spins on idle sockets, and a stalled reader backpressures only
//!   its own connection (the stream fill stops at a high-water mark);
//! * **streams** follow jobs via [`LineBuffer`] wakers
//!   ([`crate::stream::Waker`]): a worker pushing a record (or closing
//!   the buffer) marks the connection's token pending and nudges the
//!   loop over a loopback wake socket — no thread ever parks on a
//!   condvar per connection;
//! * **keep-alive**: after each response the connection returns to
//!   idle and parses the next (possibly already pipelined) request
//!   from its buffer, with responses strictly in request order.
//!
//! Drain (`/shutdown` or [`ServerHandle::shutdown`]) closes the
//! listener, lets every in-flight response and stream finish (abort
//! mode cancels jobs, which closes their buffers and so ends their
//! streams), force-closes idle connections, and exits the loop when
//! the last connection is gone — so `join()` still guarantees every
//! accepted request got its bytes.
//!
//! [`LineBuffer`]: crate::stream::LineBuffer
//! [`ServerHandle::shutdown`]: crate::server::ServerHandle::shutdown

#![cfg(unix)]

use crate::http::{self, ParseStatus};
use crate::job::Job;
use crate::server::{render_job_report, route_request, Routed, Shared};
use crate::sys::{Interest, Poller};
use bbncg_obs::{Counter, Histogram};
use std::collections::{HashMap, HashSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Registration token of the accept listener.
const TOKEN_LISTENER: u64 = 0;
/// Registration token of the wake-socket read end.
const TOKEN_WAKE: u64 = 1;
/// First connection token.
const TOKEN_FIRST_CONN: u64 = 2;

/// Stop pulling stream lines into a connection's write buffer beyond
/// this many pending bytes; readiness refills once the client drains.
const HIGH_WATER: usize = 256 * 1024;
/// Lines per [`LineBuffer::read_from`] pull (bounds per-pull cloning).
const PULL_BATCH: usize = 1024;
/// Loop tick in ms: the cadence of deadline culling and the drain
/// fallback when no readiness or wake arrives.
const TICK_MS: i32 = 500;

/// Cross-thread nudge: workers (via stream wakers) mark a connection
/// token pending and poke the loop's wake socket so its `wait` returns.
pub(crate) struct LoopWaker {
    pending: Mutex<HashSet<u64>>,
    writer: Mutex<TcpStream>,
}

impl LoopWaker {
    /// Mark `token` pending and nudge the loop. Deduplicated: a token
    /// already pending writes no second wake byte.
    fn wake(&self, token: u64) {
        let fresh = self.pending.lock().expect("waker poisoned").insert(token);
        if fresh {
            // Non-blocking best effort: a full pipe means wake bytes
            // are already in flight, so the loop is waking anyway.
            let _ = self.writer.lock().expect("waker poisoned").write(&[1]);
        }
    }

    fn drain(&self) -> Vec<u64> {
        self.pending
            .lock()
            .expect("waker poisoned")
            .drain()
            .collect()
    }
}

/// The loopback wake channel: a connected TCP pair on 127.0.0.1 (the
/// no-dependency stand-in for a pipe — std exposes no `pipe(2)`).
fn wake_channel() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let writer = TcpStream::connect(listener.local_addr()?)?;
    let (reader, _) = listener.accept()?;
    reader.set_nonblocking(true)?;
    writer.set_nonblocking(true)?;
    let _ = writer.set_nodelay(true);
    Ok((reader, writer))
}

/// What a connection is currently doing between readiness events.
enum ConnState {
    /// Waiting for (or mid-parse of) the next request.
    Idle,
    /// Following a job's line buffer as a chunked stream; `next` is the
    /// first line index not yet queued on the write buffer.
    Streaming { job: Arc<Job>, next: usize },
    /// Waiting for a job to reach a terminal status to render its
    /// report (woken by the buffer's on-close waker).
    AwaitReport { job: Arc<Job> },
}

struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    state: ConnState,
    /// The in-flight request's keep-alive decision.
    keep_alive: bool,
    /// Close once the write buffer drains and the state is idle.
    close_after: bool,
    /// The peer sent EOF; no further requests can arrive.
    peer_closed: bool,
    reqs_served: u64,
    last_read: Instant,
    /// Request start + latency histogram, observed when the response
    /// (or stream trailer) is queued.
    t0: Option<(Instant, Histogram)>,
    /// Write interest currently registered with the poller.
    write_interest: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            state: ConnState::Idle,
            keep_alive: false,
            close_after: false,
            peer_closed: false,
            reqs_served: 0,
            last_read: Instant::now(),
            t0: None,
            write_interest: false,
        }
    }

    fn has_pending_write(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }
}

enum Flush {
    Drained,
    Blocked,
    Fatal,
}

fn flush_writes(conn: &mut Conn) -> Flush {
    while conn.has_pending_write() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return Flush::Fatal,
            Ok(n) => conn.write_pos += n,
            Err(ref e) if e.kind() == ErrorKind::WouldBlock => return Flush::Blocked,
            Err(ref e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Flush::Fatal,
        }
    }
    Flush::Drained
}

/// Drain the socket into the connection's read buffer. Sets
/// `peer_closed` on EOF or a read error (either way, no more requests
/// are coming).
fn read_some(conn: &mut Conn) {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.peer_closed = true;
                return;
            }
            Ok(n) => {
                conn.read_buf.extend_from_slice(&chunk[..n]);
                conn.last_read = Instant::now();
            }
            Err(ref e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(ref e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.peer_closed = true;
                return;
            }
        }
    }
}

/// Close out the in-flight request: observe its latency, reset the
/// read deadline for the next one, and schedule a close if the request
/// asked for it.
fn finish_request(conn: &mut Conn) {
    if let Some((t0, hist)) = conn.t0.take() {
        bbncg_obs::observe(hist, t0.elapsed().as_micros() as u64);
    }
    conn.last_read = Instant::now();
    if !conn.keep_alive {
        conn.close_after = true;
    }
}

/// Register the loop as a waker on `job`'s line buffer. `false` means
/// the buffer is already closed — the caller can act on final state
/// immediately (and no waker was retained).
fn register_job_waker(job: &Job, waker: &Arc<LoopWaker>, token: u64) -> bool {
    let w = Arc::clone(waker);
    job.lines.register_waker(Arc::new(move || w.wake(token)))
}

/// Drive one connection's state machine as far as it will go without
/// blocking. Returns `false` when the connection should be dropped.
fn drive(shared: &Arc<Shared>, conn: &mut Conn, token: u64, waker: &Arc<LoopWaker>) -> bool {
    loop {
        match flush_writes(conn) {
            Flush::Fatal => return false,
            Flush::Blocked => return true,
            Flush::Drained => {}
        }
        conn.write_buf.clear();
        conn.write_pos = 0;
        match std::mem::replace(&mut conn.state, ConnState::Idle) {
            ConnState::Idle => {
                if conn.close_after {
                    return false;
                }
                if conn.read_buf.is_empty() {
                    return !conn.peer_closed;
                }
                match http::parse_request(&conn.read_buf, shared.cfg.max_body) {
                    Ok(ParseStatus::Partial) => return !conn.peer_closed,
                    Ok(ParseStatus::Complete(req, used)) => {
                        conn.read_buf.drain(..used);
                        conn.reqs_served += 1;
                        if conn.reqs_served > 1 {
                            bbncg_obs::counter_inc(Counter::HttpKeepaliveReuses);
                        }
                        conn.keep_alive = req.keep_alive;
                        conn.t0 = Some((Instant::now(), Histogram::HttpOtherMicros));
                        let (routed, hist) = route_request(shared, &req);
                        conn.t0 = Some((conn.t0.take().expect("t0 set").0, hist));
                        match routed {
                            Routed::Full {
                                status,
                                reason,
                                content_type,
                                body,
                            } => {
                                conn.write_buf = http::response_bytes(
                                    status,
                                    reason,
                                    content_type,
                                    &body,
                                    conn.keep_alive,
                                );
                                finish_request(conn);
                            }
                            Routed::Stream { job } => {
                                conn.write_buf = http::chunked_head_bytes(
                                    200,
                                    "OK",
                                    "application/x-ndjson",
                                    conn.keep_alive,
                                );
                                // Register *before* the first pull so a
                                // line landing in between cannot be a
                                // lost wakeup (worst case: one spurious
                                // wake). A refused registration means
                                // the buffer is closed — the pull will
                                // see it and finish straight away.
                                let _ = register_job_waker(&job, waker, token);
                                conn.state = ConnState::Streaming { job, next: 0 };
                            }
                            Routed::Report { job } => {
                                // set_status publishes the terminal
                                // status *before* closing the buffer,
                                // so: registration refused ⇒ status is
                                // already terminal ⇒ render now; else
                                // the on-close waker fires after the
                                // status is readable.
                                if register_job_waker(&job, waker, token) {
                                    conn.state = ConnState::AwaitReport { job };
                                } else {
                                    let (status, reason, ct, body) = render_job_report(&job);
                                    conn.write_buf = http::response_bytes(
                                        status,
                                        reason,
                                        ct,
                                        &body,
                                        conn.keep_alive,
                                    );
                                    finish_request(conn);
                                }
                            }
                        }
                    }
                    Err(e) => {
                        let (status, reason) = e.status();
                        let body = format!("{{\"error\":\"{}\"}}", http::json_escape(e.detail()));
                        conn.write_buf = http::response_bytes(
                            status,
                            reason,
                            "application/json",
                            body.as_bytes(),
                            false,
                        );
                        // The buffer is poisoned by the malformed
                        // request — nothing after it can be trusted.
                        conn.read_buf.clear();
                        conn.close_after = true;
                    }
                }
            }
            ConnState::Streaming { job, mut next } => {
                let mut finished = false;
                while conn.write_buf.len() < HIGH_WATER {
                    let (lines, closed) = job.lines.read_from(next, PULL_BATCH);
                    if lines.is_empty() {
                        if closed {
                            conn.write_buf.extend_from_slice(http::CHUNKED_TRAILER);
                            finished = true;
                        }
                        break;
                    }
                    for line in lines {
                        next += 1;
                        let mut data = line.into_bytes();
                        data.push(b'\n');
                        conn.write_buf.extend_from_slice(&http::chunk_bytes(&data));
                    }
                }
                if finished {
                    finish_request(conn);
                } else {
                    let waiting = conn.write_buf.is_empty();
                    conn.state = ConnState::Streaming { job, next };
                    if waiting {
                        // Nothing new and not closed: the registered
                        // waker will bring us back.
                        return true;
                    }
                }
            }
            ConnState::AwaitReport { job } => {
                if job.status().is_terminal() {
                    let (status, reason, ct, body) = render_job_report(&job);
                    conn.write_buf =
                        http::response_bytes(status, reason, ct, &body, conn.keep_alive);
                    finish_request(conn);
                } else {
                    conn.state = ConnState::AwaitReport { job };
                    return true;
                }
            }
        }
    }
}

/// The readiness loop. Runs on the server's accept thread until drain
/// completes; owns every connection.
pub(crate) fn run(shared: Arc<Shared>, listener: TcpListener, mut poller: Poller) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let listener_fd = listener.as_raw_fd();
    if poller
        .register(listener_fd, TOKEN_LISTENER, Interest::READ)
        .is_err()
    {
        return;
    }
    let Ok((wake_reader, wake_writer)) = wake_channel() else {
        return;
    };
    let wake_fd = wake_reader.as_raw_fd();
    if poller
        .register(wake_fd, TOKEN_WAKE, Interest::READ)
        .is_err()
    {
        return;
    }
    let waker = Arc::new(LoopWaker {
        pending: Mutex::new(HashSet::new()),
        writer: Mutex::new(wake_writer),
    });

    let mut listener = Some(listener);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = TOKEN_FIRST_CONN;
    let mut events = Vec::new();
    let mut wake_reader = wake_reader;

    loop {
        if shared.draining.load(Ordering::SeqCst) {
            if listener.is_some() {
                let _ = poller.deregister(listener_fd);
                listener = None; // drop closes: no further accepts
            }
            // Idle connections with nothing in flight close now; the
            // rest finish their current response/stream and then
            // close (keep-alive revoked).
            conns.retain(|_, c| {
                let droppable = matches!(c.state, ConnState::Idle) && !c.has_pending_write();
                if droppable {
                    let _ = poller.deregister(c.stream.as_raw_fd());
                }
                !droppable
            });
            for c in conns.values_mut() {
                c.keep_alive = false;
                c.close_after = true;
            }
            if conns.is_empty() {
                return;
            }
        }

        events.clear();
        if poller.wait(&mut events, TICK_MS).is_err() {
            // A broken poller cannot recover; bail rather than spin.
            return;
        }

        let mut touched: Vec<u64> = Vec::new();
        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => {
                    let Some(l) = listener.as_ref() else { continue };
                    loop {
                        match l.accept() {
                            Ok((stream, _)) => {
                                if shared.draining.load(Ordering::SeqCst) {
                                    continue; // dropped: refused at the door
                                }
                                if stream.set_nonblocking(true).is_err() {
                                    continue;
                                }
                                let _ = stream.set_nodelay(true);
                                let token = next_token;
                                next_token += 1;
                                if poller
                                    .register(stream.as_raw_fd(), token, Interest::READ)
                                    .is_ok()
                                {
                                    conns.insert(token, Conn::new(stream));
                                }
                            }
                            Err(ref e) if e.kind() == ErrorKind::WouldBlock => break,
                            Err(ref e) if e.kind() == ErrorKind::Interrupted => continue,
                            Err(_) => break,
                        }
                    }
                }
                TOKEN_WAKE => {
                    let mut sink = [0u8; 64];
                    while matches!(wake_reader.read(&mut sink), Ok(n) if n > 0) {}
                    touched.extend(waker.drain());
                }
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        if ev.readable || ev.error {
                            read_some(conn);
                        }
                        touched.push(token);
                    }
                }
            }
        }

        for token in touched {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            if drive(&shared, conn, token, &waker) {
                // Re-register write interest only while bytes wait.
                let want_write = conn.has_pending_write();
                if want_write != conn.write_interest {
                    conn.write_interest = want_write;
                    let interest = if want_write {
                        Interest::READ_WRITE
                    } else {
                        Interest::READ
                    };
                    let _ = poller.modify(conn.stream.as_raw_fd(), token, interest);
                }
            } else {
                let _ = poller.deregister(conn.stream.as_raw_fd());
                conns.remove(&token);
            }
        }

        // Slow-loris sweep: an idle connection that has not delivered
        // a byte within the read deadline is culled. In-flight
        // responses and streams are exempt — their pace is the job's
        // and the client's to negotiate.
        let deadline = shared.cfg.read_timeout;
        conns.retain(|_, c| {
            let expired = matches!(c.state, ConnState::Idle)
                && !c.has_pending_write()
                && c.last_read.elapsed() > deadline;
            if expired {
                let _ = poller.deregister(c.stream.as_raw_fd());
            }
            !expired
        });
    }
}
