//! The front end `flm-serve` and `flm-router` share: the listener, every
//! client connection's state machine, and the reactor's run loop.
//!
//! A [`Front`] owns the poller, the nonblocking listener and every client
//! connection. Each connection accumulates bytes into a read buffer that
//! is parsed incrementally with [`Frame::decode`] (a `Truncated` result
//! just means "wait for more bytes"), hands every complete frame to its
//! [`Service`], and writes responses through a write buffer in strict
//! request order: each request owns a slot, and a slot's bytes leave only
//! once every earlier slot's have. Readiness is level-triggered, so a
//! connection at its pipeline cap simply stops being read — TCP
//! backpressure does the rest — and epoll interest is re-derived from
//! connection state after every read, flush and fill.
//!
//! What differs between the two reactors is the [`Service`]: the server
//! runs requests inline or on its worker pool, the router forwards them to
//! shard backends. Everything a client can observe about framing —
//! hostile-input answers, pipelining, idle timeouts, connection shedding,
//! the shutdown drain — lives here once.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::frame::{Frame, FrameError};
use crate::rpc::{ErrorCode, Request, Response};
use crate::sys::{self, Event, Interest, Poller, Waker};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
/// The first token a [`Service`] may register its own descriptors under;
/// client connections are numbered from the `first_conn_token` given to
/// [`Front::bind`].
pub(crate) const FIRST_SERVICE_TOKEN: u64 = 2;

/// Pending connections the listener queues. A 1000-socket connect wave
/// overflows std's backlog of 128; the kernel clamps this to `somaxconn`.
const LISTEN_BACKLOG: i32 = 4096;

/// Bytes of unparseable input discarded after a framing violation before
/// the connection is closed anyway (so the close sends FIN, not a RST that
/// could destroy the typed error frame in flight).
const DISCARD_BUDGET: usize = 64 * 1024;

/// How long the shutdown drain waits for in-flight requests to complete
/// and flush before the reactor exits regardless.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// The per-connection limits both reactors configure.
pub(crate) struct Limits {
    /// Connections held at once; accepts beyond this are answered
    /// [`Response::Overloaded`] and closed.
    pub max_connections: usize,
    /// Unanswered requests one connection may have in flight before its
    /// socket stops being read.
    pub max_pipelined: usize,
    /// Frame-body byte cap, enforced before any allocation.
    pub max_body_bytes: usize,
    /// A connection with nothing awaited and no IO past this is closed.
    pub idle_timeout: Duration,
}

/// The front's counters, shared with the owning reactor's Stats snapshot.
#[derive(Default)]
pub(crate) struct Counters {
    pub connections_accepted: AtomicU64,
    pub connections_shed: AtomicU64,
    pub responses_error: AtomicU64,
    pub malformed_frames: AtomicU64,
}

/// What a reactor adds to the front: how requests are answered, plus hooks
/// into the run loop for its own descriptors and periodic work.
pub(crate) trait Service {
    /// State kept per connection beside the front's own.
    type ConnState: Default;

    /// True once the owner asked the reactor to stop.
    fn shutting_down(&self) -> bool;

    /// One complete frame arrived on `token`. The service answers through
    /// [`Front::reply`], or [`Front::open_slot`] now and [`Front::fill`]
    /// later; the front flushes once the parse is done.
    fn frame(&mut self, front: &mut Front<Self::ConnState>, token: u64, frame: Frame);

    /// Readiness on a descriptor the service registered itself, under a
    /// token in `FIRST_SERVICE_TOKEN..first_conn_token`.
    fn event(&mut self, _front: &mut Front<Self::ConnState>, _event: &Event) {}

    /// After every batch of events.
    fn after_events(&mut self, _front: &mut Front<Self::ConnState>) {}

    /// Once before serving, then about once a second before idle
    /// connections are swept.
    fn sweep(&mut self, _front: &mut Front<Self::ConnState>) {}

    /// Shutdown began: the front stopped accepting and parsing, so
    /// [`Service::frame`] will not be called again.
    fn drain_started(&mut self) {}

    /// A connection closed; later fills addressed to it are dropped.
    fn closed(&mut self, _token: u64) {}
}

/// One pending request on a connection: its sequence number and, once
/// produced, the encoded response frame.
struct Slot {
    seq: u64,
    response: Option<Vec<u8>>,
}

struct Conn<S> {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    inflight: VecDeque<Slot>,
    next_seq: u64,
    interest: Interest,
    /// Peer sent FIN: no more requests will arrive.
    eof: bool,
    /// Close as soon as the write buffer flushes (framing violation, a
    /// service's request, or shutdown).
    closing: bool,
    /// After a framing violation: keep reading (and discarding) up to
    /// [`DISCARD_BUDGET`] bytes so the peer's in-flight bytes do not turn
    /// the close into a RST.
    discarding: usize,
    last_activity: Instant,
    state: S,
}

impl<S> Conn<S> {
    /// True when nothing is pending: no queued responses, no unflushed
    /// bytes.
    fn idle(&self) -> bool {
        self.inflight.is_empty() && self.write_buf.is_empty()
    }

    /// True while a slot waits on work outside the reactor thread (a
    /// worker or a backend): such a connection is busy, not idle.
    fn awaiting(&self) -> bool {
        self.inflight.iter().any(|s| s.response.is_none())
    }

    fn wants_read(&self, max_pipelined: usize) -> bool {
        self.discarding > 0 || (!self.eof && !self.closing && self.inflight.len() < max_pipelined)
    }
}

/// Writes as much of `buf` as `stream` accepts, draining what was written.
/// `Ok` means empty or would-block; an error means the peer is gone.
pub(crate) fn write_out(mut stream: &TcpStream, buf: &mut Vec<u8>) -> io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                buf.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The listener, the poller, and every client connection of one reactor.
pub(crate) struct Front<S> {
    poller: Poller,
    listener: TcpListener,
    wake_rx: UnixStream,
    limits: Limits,
    counters: Arc<Counters>,
    conns: HashMap<u64, Conn<S>>,
    first_conn_token: u64,
    next_token: u64,
    accepting: bool,
    /// Tokens closed since the service was last told.
    closed: Vec<u64>,
}

impl<S: Default> Front<S> {
    /// Binds `addr` with an explicit listen backlog and builds the poller.
    /// Returns the front and the [`Waker`] other threads use to interrupt
    /// its wait.
    ///
    /// # Errors
    ///
    /// Propagates bind, listen and poller-creation failures.
    pub(crate) fn bind(
        addr: &str,
        limits: Limits,
        counters: Arc<Counters>,
        first_conn_token: u64,
    ) -> io::Result<(Front<S>, Waker)> {
        let listener = TcpListener::bind(addr)?;
        sys::set_listen_backlog(&listener, LISTEN_BACKLOG)?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let (waker, wake_rx) = sys::wake_channel()?;
        poller.register(listener.as_fd(), TOKEN_LISTENER, Interest::READABLE)?;
        poller.register(wake_rx.as_fd(), TOKEN_WAKER, Interest::READABLE)?;
        let front = Front {
            poller,
            listener,
            wake_rx,
            limits,
            counters,
            conns: HashMap::new(),
            first_conn_token,
            next_token: first_conn_token,
            accepting: true,
            closed: Vec::new(),
        };
        Ok((front, waker))
    }

    /// The bound address.
    pub(crate) fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The poller, for services that register descriptors of their own.
    pub(crate) fn poller(&self) -> &Poller {
        &self.poller
    }

    /// Runs the reactor until the service reports shutdown and every
    /// connection has drained (or [`DRAIN_TIMEOUT`] passed).
    pub(crate) fn run<V: Service<ConnState = S>>(mut self, service: &mut V) {
        let mut events = Vec::new();
        service.sweep(&mut self);
        let mut last_sweep = Instant::now();
        let mut drain_started: Option<Instant> = None;
        loop {
            if self
                .poller
                .wait(&mut events, Some(Duration::from_millis(250)))
                .is_err()
            {
                continue;
            }
            let shutting_down = service.shutting_down();
            if shutting_down && self.accepting {
                // Stop accepting, then stop parsing, and only then tell the
                // service: from here no new request can reach it.
                let _ = self.poller.deregister(self.listener.as_fd());
                self.accepting = false;
                for conn in self.conns.values_mut() {
                    conn.closing = true;
                }
                service.drain_started();
                drain_started = Some(Instant::now());
            }
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => sys::drain_wakes(&self.wake_rx),
                    t if t < self.first_conn_token => service.event(&mut self, ev),
                    t => self.conn_event(t, ev, service),
                }
            }
            service.after_events(&mut self);
            let now = Instant::now();
            if now.duration_since(last_sweep) >= Duration::from_secs(1) {
                last_sweep = now;
                service.sweep(&mut self);
                self.sweep_idle(now);
            }
            if shutting_down {
                // Close everything with no pending work; connections still
                // awaiting a response drain first.
                let idle: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| c.idle())
                    .map(|(&t, _)| t)
                    .collect();
                for token in idle {
                    self.close(token);
                }
            }
            for token in std::mem::take(&mut self.closed) {
                service.closed(token);
            }
            let drained = self.conns.is_empty()
                || drain_started.is_some_and(|t| now.duration_since(t) > DRAIN_TIMEOUT);
            if shutting_down && drained {
                return;
            }
        }
    }

    fn accept_ready(&mut self) {
        while self.accepting {
            let (stream, _) = match self.listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            let _ = stream.set_nodelay(true);
            if self.conns.len() >= self.limits.max_connections {
                self.shed(stream);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poller
                .register(stream.as_fd(), token, Interest::READABLE)
                .is_err()
            {
                continue;
            }
            self.counters
                .connections_accepted
                .fetch_add(1, Ordering::Relaxed);
            self.conns.insert(
                token,
                Conn {
                    stream,
                    read_buf: Vec::new(),
                    write_buf: Vec::new(),
                    inflight: VecDeque::new(),
                    next_seq: 0,
                    interest: Interest::READABLE,
                    eof: false,
                    closing: false,
                    discarding: 0,
                    last_activity: Instant::now(),
                    state: S::default(),
                },
            );
        }
    }

    /// Answers a connection the reactor cannot hold with a typed Overloaded
    /// frame, then closes it: clients always learn *why* it ended.
    fn shed(&self, mut stream: TcpStream) {
        self.counters
            .connections_shed
            .fetch_add(1, Ordering::Relaxed);
        let response = Response::Overloaded {
            queued: self.conns.len() as u32,
            detail: format!(
                "serving {} connections (cap {}); retry later",
                self.conns.len(),
                self.limits.max_connections
            ),
        };
        // The socket is fresh, so this tiny frame lands in the empty send
        // buffer; a 1s timeout bounds the pathological case.
        let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
        if let Ok(bytes) = response.to_frame().encode() {
            let _ = stream.write_all(&bytes);
        }
    }

    fn conn_event<V: Service<ConnState = S>>(&mut self, token: u64, ev: &Event, service: &mut V) {
        // Stale event for a connection closed earlier in this batch.
        if !self.conns.contains_key(&token) {
            return;
        }
        if ev.hangup {
            self.close(token);
            return;
        }
        if ev.writable && !self.flush(token) {
            return;
        }
        if ev.readable {
            self.readable(token, service);
        }
    }

    /// Reads everything available, handing complete frames to the service
    /// as they arrive.
    fn readable<V: Service<ConnState = S>>(&mut self, token: u64, service: &mut V) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            // Respect the pipeline cap *before* reading: level-triggered
            // readiness will re-report the bytes once responses drain.
            if !conn.wants_read(self.limits.max_pipelined) {
                break;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.eof = true;
                    // No more bytes will ever arrive; any discard budget is
                    // moot and must not hold the connection open.
                    conn.discarding = 0;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    if conn.discarding > 0 {
                        conn.discarding = conn.discarding.saturating_sub(n);
                        continue;
                    }
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    if !self.parse(token, service) {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        self.advance(token, service);
    }

    /// Settles a connection after IO or after a service filled one of its
    /// slots: parse anything the pipeline cap deferred, resolve EOF, flush.
    pub(crate) fn advance<V: Service<ConnState = S>>(&mut self, token: u64, service: &mut V) {
        if !self.parse(token, service) {
            return;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.eof && !conn.closing {
            if conn.read_buf.is_empty() {
                if conn.idle() {
                    self.close(token);
                    return;
                }
                // Serve out the pipeline, then close.
                conn.closing = true;
            } else if conn.inflight.len() < self.limits.max_pipelined {
                // The parser stopped on Truncated (not on the pipeline cap)
                // and no more bytes can ever arrive: the peer half-closed
                // mid-frame. A framing violation, answered like any other.
                conn.read_buf.clear();
                conn.closing = true;
                self.malformed(token, &FrameError::Truncated.to_string());
            }
            // Else: complete frames may still sit behind the cap; a later
            // fill re-enters here and re-parses them.
        }
        self.flush(token);
    }

    /// Hands every complete frame in the read buffer to the service.
    /// Returns false when the connection was closed.
    fn parse<V: Service<ConnState = S>>(&mut self, token: u64, service: &mut V) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            if conn.closing || conn.inflight.len() >= self.limits.max_pipelined {
                return true;
            }
            match Frame::decode(&conn.read_buf, self.limits.max_body_bytes) {
                Ok((frame, n)) => {
                    // Consumed before the service runs, so a service that
                    // re-enters `advance` on this connection never sees the
                    // frame twice.
                    conn.read_buf.drain(..n);
                    conn.last_activity = Instant::now();
                    service.frame(self, token, frame);
                }
                Err(FrameError::Truncated) => return true,
                Err(e) => {
                    // The bytes are not a frame: typed error, then close —
                    // after a framing violation the stream offset can no
                    // longer be trusted. Discard what the peer already sent
                    // so the close sends FIN, not RST.
                    conn.read_buf.clear();
                    conn.closing = true;
                    conn.discarding = DISCARD_BUDGET;
                    self.malformed(token, &e.to_string());
                    return true;
                }
            }
        }
    }

    /// The service's per-connection state, while the connection is open.
    pub(crate) fn state_mut(&mut self, token: u64) -> Option<&mut S> {
        self.conns.get_mut(&token).map(|c| &mut c.state)
    }

    /// Asks for the connection to close once its responses have flushed.
    pub(crate) fn close_when_flushed(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.closing = true;
        }
    }

    /// Reserves the next response slot on a connection; `None` when it is
    /// closed.
    pub(crate) fn open_slot(&mut self, token: u64) -> Option<u64> {
        let conn = self.conns.get_mut(&token)?;
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.inflight.push_back(Slot {
            seq,
            response: None,
        });
        Some(seq)
    }

    /// Answers in a fresh slot.
    pub(crate) fn reply(&mut self, token: u64, response: &Response) {
        if let Some(seq) = self.open_slot(token) {
            self.fill(token, seq, response);
        }
    }

    /// Decodes a request body; an undecodable one is answered with a typed
    /// error and the connection kept (framing is still in sync).
    pub(crate) fn decode_request(&mut self, token: u64, frame: &Frame) -> Option<Request> {
        match Request::from_frame(frame) {
            Ok(request) => Some(request),
            Err(e) => {
                self.malformed(token, &e.to_string());
                None
            }
        }
    }

    fn malformed(&mut self, token: u64, detail: &str) {
        self.counters
            .malformed_frames
            .fetch_add(1, Ordering::Relaxed);
        let response = Response::Error {
            code: ErrorCode::MalformedFrame,
            detail: detail.into(),
        };
        self.reply(token, &response);
    }

    /// Encodes a response into its slot.
    pub(crate) fn fill(&mut self, token: u64, seq: u64, response: &Response) {
        if matches!(response, Response::Error { .. }) {
            self.counters
                .responses_error
                .fetch_add(1, Ordering::Relaxed);
        }
        match response.to_frame().encode() {
            Ok(bytes) => self.fill_bytes(token, seq, bytes),
            // A response too large for the frame format (>4 GiB) cannot be
            // sent; the only sound recovery is a fresh connection.
            Err(_) => self.close(token),
        }
    }

    /// Delivers encoded response bytes into their slot, then moves every
    /// response now at the head of the pipeline into the write buffer.
    pub(crate) fn fill_bytes(&mut self, token: u64, seq: u64, bytes: Vec<u8>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if let Some(slot) = conn.inflight.iter_mut().find(|s| s.seq == seq) {
            slot.response = Some(bytes);
        }
        while let Some(head) = conn.inflight.front_mut() {
            match head.response.take() {
                Some(bytes) => {
                    conn.write_buf.extend_from_slice(&bytes);
                    conn.inflight.pop_front();
                }
                None => break,
            }
        }
    }

    /// Writes as much of the write buffer as the socket accepts, closes a
    /// finished connection, and re-derives epoll interest. Returns false
    /// when the connection was closed.
    fn flush(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let before = conn.write_buf.len();
        let written = write_out(&conn.stream, &mut conn.write_buf);
        if conn.write_buf.len() < before {
            conn.last_activity = Instant::now();
        }
        if written.is_err() || (conn.closing && conn.idle() && conn.discarding == 0) {
            self.close(token);
            return false;
        }
        let wanted = Interest {
            readable: conn.wants_read(self.limits.max_pipelined),
            writable: !conn.write_buf.is_empty(),
        };
        if wanted != conn.interest {
            if self
                .poller
                .modify(conn.stream.as_fd(), token, wanted)
                .is_err()
            {
                self.close(token);
                return false;
            }
            conn.interest = wanted;
        }
        true
    }

    /// Closes connections that made no IO progress past the idle timeout.
    /// One still awaiting a response is never timed out — slow work is
    /// not idleness — but an idle or write-stuck peer cannot pin a
    /// connection slot forever.
    fn sweep_idle(&mut self, now: Instant) {
        let timeout = self.limits.idle_timeout;
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.awaiting() && now.duration_since(c.last_activity) > timeout)
            .map(|(&t, _)| t)
            .collect();
        for token in stale {
            self.close(token);
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            // Dropping the stream closes the fd, which also removes it from
            // the epoll set; the explicit deregister covers the (benign)
            // case of the kernel delaying that removal.
            let _ = self.poller.deregister(conn.stream.as_fd());
            self.closed.push(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_drops_writable_interest_once_the_buffer_drains() {
        let limits = Limits {
            max_connections: 1,
            max_pipelined: 1,
            max_body_bytes: 1024,
            idle_timeout: Duration::from_secs(60),
        };
        let (mut front, _waker) =
            Front::<()>::bind("127.0.0.1:0", limits, Arc::default(), FIRST_SERVICE_TOKEN).unwrap();
        let mut peer = TcpStream::connect(front.local_addr().unwrap()).unwrap();
        // connect() returns after the handshake: the connection is queued.
        front.accept_ready();
        let token = FIRST_SERVICE_TOKEN;
        // More than any socket buffer holds, so the first flush must stop on
        // WouldBlock; then drain the peer between flushes until all is sent.
        front.conns.get_mut(&token).unwrap().write_buf = vec![7; 16 << 20];
        assert!(front.flush(token));
        assert!(
            front.conns[&token].interest.writable,
            "blocked, yet no EPOLLOUT"
        );
        let mut buf = vec![0u8; 1 << 20];
        while !front.conns[&token].write_buf.is_empty() {
            assert!(peer.read(&mut buf).unwrap() > 0);
            assert!(front.flush(token));
        }
        assert!(
            !front.conns[&token].interest.writable,
            "drained, still EPOLLOUT"
        );
        // The registration changed, not just the cached field.
        let mut events = Vec::new();
        front
            .poller
            .wait(&mut events, Some(Duration::ZERO))
            .unwrap();
        assert!(
            events.iter().all(|e| e.token != token || !e.writable),
            "{events:?}"
        );
    }
}
