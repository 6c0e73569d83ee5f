//! The `flm-router` front: a second reactor on [`crate::sys`] that fans a
//! sharded cluster out behind one address.
//!
//! # Architecture
//!
//! One nonblocking thread owns the front listener, every front connection,
//! and one persistent pipelined connection per shard. A front request is
//! parsed just enough to route: keyed requests (Refute by
//! [`crate::shard::routing_key`], Verify/Audit by certificate fingerprint,
//! FetchCert/PutCert by their key bytes) are forwarded verbatim to the
//! owning shard's connection; Ping is answered locally (the router echoes
//! with zero hold — liveness of the router, not of a shard); Stats fans
//! out to every shard and aggregates the answers into one
//! [`Response::ClusterStats`] view alongside the router's own counters.
//!
//! Because each shard answers its connection in strict request order (the
//! serve plane's pipelining contract), a per-backend FIFO of pending
//! entries is all the correlation the router needs: the k-th response
//! frame on a backend belongs to the k-th unanswered request the router
//! wrote to it. Front connections run on the front end the server uses
//! too (the crate's `front` module), so framing, pipelining and the
//! hostile-input answers are the same code on both.
//!
//! # Failure semantics
//!
//! A backend that refuses connections or drops mid-stream is marked down:
//! every request pending on it — and every new request routed to it — is
//! answered with a typed [`Response::ShardDown`] naming the shard, so one
//! dead shard degrades exactly its key range while every other range keeps
//! serving warm. The router retries the connect on a timer (bounded
//! blocking connect, so a dead shard costs milliseconds per sweep, not a
//! wedged reactor) and the range heals the moment the shard is back.
//!
//! # Shedding
//!
//! Two levels, both answered and typed, mirroring the server: a front
//! accept past `max_connections` is answered [`Response::Overloaded`] and
//! closed; a request for a backend whose pending queue is at
//! `backend_pending_cap` is answered `Overloaded` with the connection kept
//! open — per-shard backpressure, not per-router.

use std::collections::{HashMap, VecDeque};
use std::io::Read as _;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::frame::{Frame, FrameError, DEFAULT_MAX_BODY_BYTES};
use crate::front::{self, Front, Limits, Service, FIRST_SERVICE_TOKEN};
use crate::rpc::{
    ClusterStatsReport, ErrorCode, Request, Response, RouterStatsReport, ShardStatus,
};
use crate::shard::{self, ShardMap};
use crate::sys::{self, Event, Interest};

/// Router configuration. [`RouterConfig::new`] sizes every knob for the
/// loopback quickstart.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Front bind address, e.g. `127.0.0.1:7415` or `127.0.0.1:0`.
    pub addr: String,
    /// The shard topology — must be byte-identical to what every shard was
    /// started with, or ownership checks will disagree.
    pub shards: ShardMap,
    /// Frame-body byte cap on both front and backend frames.
    pub max_body_bytes: usize,
    /// Front connections held at once; accepts beyond this are answered
    /// [`Response::Overloaded`] and closed.
    pub max_connections: usize,
    /// Unanswered pipelined requests one front connection may have in
    /// flight before the router stops reading it.
    pub max_pipelined: usize,
    /// Unanswered requests one backend may carry before further requests
    /// for that shard are shed with [`Response::Overloaded`].
    pub backend_pending_cap: usize,
    /// How often a down backend's connect is retried.
    pub reconnect_interval: Duration,
    /// Idle front connections past this are closed.
    pub idle_timeout: Duration,
}

impl RouterConfig {
    /// A quickstart configuration fronting `shards`.
    pub fn new(addr: impl Into<String>, shards: ShardMap) -> RouterConfig {
        RouterConfig {
            addr: addr.into(),
            shards,
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
            max_connections: 2048,
            max_pipelined: 32,
            backend_pending_cap: 256,
            reconnect_interval: Duration::from_secs(1),
            idle_timeout: Duration::from_secs(10),
        }
    }
}

/// Router counters, shared with the handle for observability.
#[derive(Default)]
struct Counters {
    front: Arc<front::Counters>,
    requests_routed: AtomicU64,
    requests_local: AtomicU64,
    requests_shed: AtomicU64,
    shard_down_answers: AtomicU64,
    backend_reconnects: AtomicU64,
}

/// Per-shard observability shared with the handle.
struct ShardGauge {
    routed: AtomicU64,
    up: AtomicBool,
}

struct Shared {
    config: RouterConfig,
    counters: Counters,
    gauges: Vec<ShardGauge>,
    shutdown: AtomicBool,
    waker: sys::Waker,
}

impl Shared {
    fn snapshot(&self) -> RouterStatsReport {
        let c = &self.counters;
        RouterStatsReport {
            connections_accepted: c.front.connections_accepted.load(Ordering::Relaxed),
            connections_shed: c.front.connections_shed.load(Ordering::Relaxed),
            requests_routed: c.requests_routed.load(Ordering::Relaxed),
            requests_local: c.requests_local.load(Ordering::Relaxed),
            requests_shed: c.requests_shed.load(Ordering::Relaxed),
            responses_error: c.front.responses_error.load(Ordering::Relaxed),
            malformed_frames: c.front.malformed_frames.load(Ordering::Relaxed),
            shard_down_answers: c.shard_down_answers.load(Ordering::Relaxed),
            backend_reconnects: c.backend_reconnects.load(Ordering::Relaxed),
        }
    }
}

/// A running router. Like [`crate::server::Server`]: `shutdown` for a
/// clean join, `wait` to park a binary on it.
pub struct Router {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds the front listener, connects to every reachable shard, and
    /// spawns the reactor. Shards that are not yet up are fine — their
    /// ranges answer [`Response::ShardDown`] until the reconnect sweep
    /// finds them.
    ///
    /// # Errors
    ///
    /// Propagates bind and poller-creation failures only; backend connects
    /// are retried, never fatal.
    pub fn start(config: RouterConfig) -> std::io::Result<Router> {
        let counters = Counters::default();
        let limits = Limits {
            max_connections: config.max_connections,
            max_pipelined: config.max_pipelined,
            max_body_bytes: config.max_body_bytes,
            idle_timeout: config.idle_timeout,
        };
        let (front, waker) = Front::bind(
            &config.addr,
            limits,
            Arc::clone(&counters.front),
            FIRST_SERVICE_TOKEN + u64::from(config.shards.count()),
        )?;
        let local_addr = front.local_addr()?;
        let gauges = (0..config.shards.count())
            .map(|_| ShardGauge {
                routed: AtomicU64::new(0),
                up: AtomicBool::new(false),
            })
            .collect();
        let shared = Arc::new(Shared {
            config,
            counters,
            gauges,
            shutdown: AtomicBool::new(false),
            waker,
        });
        let reactor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || front.run(&mut Reactor::new(shared)))
        };
        Ok(Router {
            local_addr,
            shared,
            reactor: Some(reactor),
        })
    }

    /// The bound front address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time copy of the router's own counters.
    pub fn stats(&self) -> RouterStatsReport {
        self.shared.snapshot()
    }

    /// Shards the router currently holds a live connection to.
    pub fn shards_up(&self) -> u32 {
        self.shared
            .gauges
            .iter()
            .filter(|g| g.up.load(Ordering::Relaxed))
            .count() as u32
    }

    /// Blocks until shutdown; the `flm-router` binary parks here.
    pub fn wait(mut self) {
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
    }

    /// Stops accepting, flushes what can be flushed, and joins the reactor.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
    }
}

/// Bounded blocking connect for backends: a dead shard costs at most this
/// per reconnect attempt, on the reactor thread by design (the sweep runs
/// at 1 Hz, so worst case is `250ms × dead shards` per second).
const BACKEND_CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// Who is waiting for the next response frame on a backend. FIFO per
/// backend is sound because shards answer in strict request order.
enum Pending {
    /// A forwarded front request: the response frame passes through
    /// verbatim into this front slot.
    Front { conn: u64, seq: u64 },
    /// One leg of a Stats fan-out.
    Stats { agg: u64 },
}

/// One shard's connection (or the absence of one).
struct Backend {
    shard: u32,
    stream: Option<TcpStream>,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    pending: VecDeque<Pending>,
    interest: Interest,
    last_attempt: Option<Instant>,
}

impl Backend {
    /// Backend tokens are fixed at `FIRST_SERVICE_TOKEN..+shard_count`;
    /// front connection tokens start above them.
    fn token(&self) -> u64 {
        FIRST_SERVICE_TOKEN + u64::from(self.shard)
    }
}

/// A Stats fan-out in flight: the front slot it answers, the router's own
/// report (snapshotted at fan-out time), and the per-shard rows being
/// filled as answers arrive.
struct StatsAgg {
    conn: u64,
    seq: u64,
    router: RouterStatsReport,
    shards: Vec<Option<ShardStatus>>,
    outstanding: usize,
}

/// The router's half of the reactor: shard backends, forwarding, typed
/// `ShardDown` answers and Stats aggregation. Front connections — framing,
/// pipelining, idle timeouts, the shutdown drain — are [`Front`]'s.
struct Reactor {
    shared: Arc<Shared>,
    backends: Vec<Backend>,
    aggs: HashMap<u64, StatsAgg>,
    next_agg: u64,
}

impl Service for Reactor {
    type ConnState = ();

    fn shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Routes one well-framed front request: decode just enough to pick the
    /// shard, then forward the frame bytes verbatim — the shard's encoder
    /// and the client's agree because they are the same code.
    fn frame(&mut self, front: &mut Front<()>, token: u64, frame: Frame) {
        let Some(request) = front.decode_request(token, &frame) else {
            return;
        };
        let Some(seq) = front.open_slot(token) else {
            return;
        };
        let shared = Arc::clone(&self.shared);
        let c = &shared.counters;
        let count = shared.config.shards.count();
        let shard = match request {
            Request::Ping { payload, .. } => {
                // The router answers pings itself, with zero hold: a pong
                // through the router proves the router, not a shard.
                c.requests_local.fetch_add(1, Ordering::Relaxed);
                front.fill(token, seq, &Response::Pong { payload });
                return;
            }
            Request::Stats => {
                c.requests_local.fetch_add(1, Ordering::Relaxed);
                self.start_stats(front, token, seq);
                return;
            }
            Request::Refute(params) => match shard::routing_key(&params) {
                Ok(key) => shard::owner_for_count(count, key.fingerprint()),
                Err(e) => {
                    let response = Response::Error {
                        code: ErrorCode::BadRequest,
                        detail: e.to_string(),
                    };
                    front.fill(token, seq, &response);
                    return;
                }
            },
            // Any shard can verify or audit; fingerprint-of-bytes routing
            // spreads the CPU deterministically.
            Request::Verify { cert } | Request::Audit { cert } => {
                shard::owner_for_count(count, flm_sim::runcache::fingerprint(&cert))
            }
            Request::FetchCert { key } | Request::PutCert { key, .. } => {
                shard::owner_for_count(count, flm_sim::runcache::fingerprint(&key))
            }
        };
        let Ok(bytes) = frame.encode() else {
            let response = Response::Error {
                code: ErrorCode::Internal,
                detail: "request frame failed to re-encode".into(),
            };
            front.fill(token, seq, &response);
            return;
        };
        match self.forward(front, shard, &bytes, Pending::Front { conn: token, seq }) {
            ForwardOutcome::Sent => {
                c.requests_routed.fetch_add(1, Ordering::Relaxed);
            }
            ForwardOutcome::Down => {
                c.shard_down_answers.fetch_add(1, Ordering::Relaxed);
                let response = Response::ShardDown {
                    shard,
                    detail: format!(
                        "shard {shard} at {} is unreachable; its key range is degraded",
                        shared.config.shards.addr(shard)
                    ),
                };
                front.fill(token, seq, &response);
            }
            ForwardOutcome::Saturated => {
                c.requests_shed.fetch_add(1, Ordering::Relaxed);
                let pending = self.backends[shard as usize].pending.len() as u32;
                let response = Response::Overloaded {
                    queued: pending,
                    detail: format!(
                        "shard {shard} has {pending} requests in flight (cap {}); retry later",
                        shared.config.backend_pending_cap
                    ),
                };
                front.fill(token, seq, &response);
            }
        }
    }

    fn event(&mut self, front: &mut Front<()>, event: &Event) {
        let shard = (event.token - FIRST_SERVICE_TOKEN) as u32;
        if self.backends[shard as usize].stream.is_none() {
            return;
        }
        if event.writable && !self.flush_backend(front, shard) {
            return;
        }
        self.backend_readable(front, shard);
    }

    /// Reconnects down backends; the pass before serving means a cluster
    /// whose shards are already up routes from the first request.
    fn sweep(&mut self, front: &mut Front<()>) {
        for shard in 0..self.backends.len() as u32 {
            self.try_connect(front, shard);
        }
    }

    /// Drops any stats aggregation whose asker is gone: answer legs still
    /// in backend FIFOs will find the aggregation missing and no-op.
    fn closed(&mut self, token: u64) {
        self.aggs.retain(|_, agg| agg.conn != token);
    }
}

impl Reactor {
    fn new(shared: Arc<Shared>) -> Reactor {
        let backends = (0..shared.config.shards.count())
            .map(|shard| Backend {
                shard,
                stream: None,
                read_buf: Vec::new(),
                write_buf: Vec::new(),
                pending: VecDeque::new(),
                interest: Interest::READABLE,
                last_attempt: None,
            })
            .collect();
        Reactor {
            shared,
            backends,
            aggs: HashMap::new(),
            next_agg: 0,
        }
    }

    // ---- backends ----------------------------------------------------

    /// Attempts one bounded connect to a down backend whose retry timer
    /// has expired.
    fn try_connect(&mut self, front: &Front<()>, shard: u32) {
        let addr = self.shared.config.shards.addr(shard).to_owned();
        let backend = &mut self.backends[shard as usize];
        let now = Instant::now();
        let due = backend
            .last_attempt
            .is_none_or(|t| now.duration_since(t) >= self.shared.config.reconnect_interval);
        if backend.stream.is_some() || !due {
            return;
        }
        backend.last_attempt = Some(now);
        let Some(sockaddr) = resolve_first(&addr) else {
            return;
        };
        let Ok(stream) = TcpStream::connect_timeout(&sockaddr, BACKEND_CONNECT_TIMEOUT) else {
            return;
        };
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        let token = backend.token();
        if front
            .poller()
            .register(stream.as_fd(), token, Interest::READABLE)
            .is_err()
        {
            return;
        }
        backend.stream = Some(stream);
        backend.read_buf.clear();
        backend.write_buf.clear();
        backend.interest = Interest::READABLE;
        self.shared
            .counters
            .backend_reconnects
            .fetch_add(1, Ordering::Relaxed);
        self.shared.gauges[shard as usize]
            .up
            .store(true, Ordering::Relaxed);
    }

    /// Tears a backend down and answers everything pending on it: forwarded
    /// requests become typed `ShardDown`, stats legs report the shard down.
    fn fail_backend(&mut self, front: &mut Front<()>, shard: u32, why: &str) {
        let backend = &mut self.backends[shard as usize];
        if let Some(stream) = backend.stream.take() {
            let _ = front.poller().deregister(stream.as_fd());
        }
        backend.read_buf.clear();
        backend.write_buf.clear();
        backend.last_attempt = Some(Instant::now());
        let pending = std::mem::take(&mut backend.pending);
        self.shared.gauges[shard as usize]
            .up
            .store(false, Ordering::Relaxed);
        let detail = format!("shard {shard} connection failed: {why}");
        for entry in pending {
            match entry {
                Pending::Front { conn, seq } => {
                    self.shared
                        .counters
                        .shard_down_answers
                        .fetch_add(1, Ordering::Relaxed);
                    let response = Response::ShardDown {
                        shard,
                        detail: detail.clone(),
                    };
                    front.fill(conn, seq, &response);
                    front.advance(conn, self);
                }
                Pending::Stats { agg } => self.stats_leg_answered(front, agg, shard, None),
            }
        }
    }

    fn backend_readable(&mut self, front: &mut Front<()>, shard: u32) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let backend = &mut self.backends[shard as usize];
            let Some(stream) = backend.stream.as_mut() else {
                return;
            };
            match stream.read(&mut chunk) {
                Ok(0) => {
                    self.fail_backend(front, shard, "peer closed");
                    return;
                }
                Ok(n) => {
                    backend.read_buf.extend_from_slice(&chunk[..n]);
                    if !self.parse_backend(front, shard) {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    let why = e.to_string();
                    self.fail_backend(front, shard, &why);
                    return;
                }
            }
        }
        self.update_backend_interest(front, shard);
    }

    /// Parses complete response frames off a backend, pairing each with the
    /// front of its FIFO. Returns false when the backend was failed.
    fn parse_backend(&mut self, front: &mut Front<()>, shard: u32) -> bool {
        let max_body = self.shared.config.max_body_bytes;
        loop {
            let backend = &mut self.backends[shard as usize];
            let frame = match Frame::decode(&backend.read_buf, max_body) {
                Ok((frame, n)) => {
                    // Consumed before anyone is answered: an answer can
                    // re-enter this backend (a front's next request is
                    // forwarded, and a failed write clears the buffer).
                    backend.read_buf.drain(..n);
                    frame
                }
                Err(FrameError::Truncated) => return true,
                Err(_) => {
                    self.fail_backend(front, shard, "malformed response frame");
                    return false;
                }
            };
            let Some(entry) = backend.pending.pop_front() else {
                // A response with no matching request: the backend broke
                // the pipelining contract. Drop it.
                self.fail_backend(front, shard, "unsolicited response frame");
                return false;
            };
            match entry {
                Pending::Front { conn, seq } => {
                    // Pass-through: the shard's bytes are the answer,
                    // re-encoded verbatim.
                    if let Ok(bytes) = frame.encode() {
                        front.fill_bytes(conn, seq, bytes);
                    }
                    front.advance(conn, self);
                }
                Pending::Stats { agg } => {
                    let report = match Response::from_frame(&frame) {
                        Ok(Response::Stats(report)) => Some(report),
                        _ => None,
                    };
                    self.stats_leg_answered(front, agg, shard, report);
                }
            }
        }
    }

    /// Returns false when the backend was failed.
    fn flush_backend(&mut self, front: &mut Front<()>, shard: u32) -> bool {
        let backend = &mut self.backends[shard as usize];
        let Some(stream) = &backend.stream else {
            return false;
        };
        if let Err(e) = front::write_out(stream, &mut backend.write_buf) {
            let why = e.to_string();
            self.fail_backend(front, shard, &why);
            return false;
        }
        self.update_backend_interest(front, shard);
        true
    }

    fn update_backend_interest(&mut self, front: &mut Front<()>, shard: u32) {
        let backend = &mut self.backends[shard as usize];
        let Some(stream) = &backend.stream else {
            return;
        };
        let wanted = Interest {
            readable: true,
            writable: !backend.write_buf.is_empty(),
        };
        if wanted != backend.interest {
            if front
                .poller()
                .modify(stream.as_fd(), backend.token(), wanted)
                .is_ok()
            {
                backend.interest = wanted;
            } else {
                self.fail_backend(front, shard, "poller modify failed");
            }
        }
    }

    /// Queues a request on a backend (connecting lazily if the retry timer
    /// allows) and records who is waiting. Reports `Down` or `Saturated`
    /// when the shard cannot take it — the caller answers typed.
    fn forward(
        &mut self,
        front: &mut Front<()>,
        shard: u32,
        frame_bytes: &[u8],
        entry: Pending,
    ) -> ForwardOutcome {
        self.try_connect(front, shard);
        let cap = self.shared.config.backend_pending_cap;
        let backend = &mut self.backends[shard as usize];
        if backend.stream.is_none() {
            return ForwardOutcome::Down;
        }
        if backend.pending.len() >= cap {
            return ForwardOutcome::Saturated;
        }
        backend.write_buf.extend_from_slice(frame_bytes);
        backend.pending.push_back(entry);
        self.shared.gauges[shard as usize]
            .routed
            .fetch_add(1, Ordering::Relaxed);
        // A write that tears the connection down has already answered
        // every pending entry, this one included.
        self.flush_backend(front, shard);
        ForwardOutcome::Sent
    }

    // ---- stats fan-out ------------------------------------------------

    /// Starts a Stats aggregation for one front slot: snapshot the router,
    /// fan a Stats request out to every shard, mark down shards instantly.
    fn start_stats(&mut self, front: &mut Front<()>, conn: u64, seq: u64) {
        let count = self.shared.config.shards.count();
        let agg_id = self.next_agg;
        self.next_agg += 1;
        self.aggs.insert(
            agg_id,
            StatsAgg {
                conn,
                seq,
                router: self.shared.snapshot(),
                shards: (0..count).map(|_| None).collect(),
                outstanding: count as usize,
            },
        );
        let stats_frame = Request::Stats
            .to_frame()
            .encode()
            .expect("a Stats frame always encodes");
        for shard in 0..count {
            match self.forward(front, shard, &stats_frame, Pending::Stats { agg: agg_id }) {
                ForwardOutcome::Sent => {}
                ForwardOutcome::Down | ForwardOutcome::Saturated => {
                    self.stats_leg_answered(front, agg_id, shard, None);
                }
            }
        }
    }

    /// Records one shard's row (`None`: the shard is down) and answers the
    /// front slot once every row is in.
    fn stats_leg_answered(
        &mut self,
        front: &mut Front<()>,
        agg_id: u64,
        shard: u32,
        report: Option<crate::rpc::StatsReport>,
    ) {
        let routed = self.shared.gauges[shard as usize]
            .routed
            .load(Ordering::Relaxed);
        let addr = self.shared.config.shards.addr(shard).to_owned();
        let Some(agg) = self.aggs.get_mut(&agg_id) else {
            return;
        };
        agg.shards[shard as usize] = Some(ShardStatus {
            shard,
            addr,
            up: report.is_some(),
            routed,
            report,
        });
        agg.outstanding -= 1;
        if agg.outstanding > 0 {
            return;
        }
        let Some(agg) = self.aggs.remove(&agg_id) else {
            return;
        };
        let report = ClusterStatsReport {
            router: agg.router,
            shards: agg.shards.into_iter().flatten().collect(),
        };
        front.fill(agg.conn, agg.seq, &Response::ClusterStats(report));
        front.advance(agg.conn, self);
    }
}

/// What [`Reactor::forward`] did with a request.
enum ForwardOutcome {
    /// Queued on a live backend (or the backend failed mid-write, in which
    /// case the entry was already answered `ShardDown`).
    Sent,
    /// The shard is down and the retry timer says not yet.
    Down,
    /// The shard's pending queue is at capacity.
    Saturated,
}

fn resolve_first(addr: &str) -> Option<SocketAddr> {
    use std::net::ToSocketAddrs as _;
    addr.to_socket_addrs().ok()?.next()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_of(addrs: &[&str]) -> ShardMap {
        ShardMap::new(addrs.iter().map(|s| (*s).to_owned()).collect()).unwrap()
    }

    #[test]
    fn router_starts_with_no_shards_up_and_answers_pings() {
        // Point at ports nothing listens on: the router must still bind,
        // answer pings locally, and report zero shards up.
        let config = RouterConfig::new("127.0.0.1:0", map_of(&["127.0.0.1:1", "127.0.0.1:2"]));
        let router = Router::start(config).unwrap();
        let mut client = crate::client::Client::connect(router.local_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(client.ping(b"hello", 0).unwrap(), b"hello");
        assert_eq!(router.shards_up(), 0);
        let stats = router.stats();
        assert_eq!(stats.requests_local, 1);
        router.shutdown();
    }

    #[test]
    fn keyed_request_to_a_dead_shard_is_typed_shard_down() {
        let config = RouterConfig::new("127.0.0.1:0", map_of(&["127.0.0.1:1"]));
        let router = Router::start(config).unwrap();
        let mut client = crate::client::Client::connect(router.local_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        match client.refute("ba-nodes", None, None, 1, None) {
            Err(crate::client::ClientError::ShardDown { shard: 0, .. }) => {}
            other => panic!("expected ShardDown, got {other:?}"),
        }
        assert_eq!(router.stats().shard_down_answers, 1);
        router.shutdown();
    }

    #[test]
    fn stats_with_every_shard_down_is_answered_once() {
        // Every Stats leg is answered "down" while the request is still
        // being routed, so the aggregation completes inside its own parse.
        let config = RouterConfig::new("127.0.0.1:0", map_of(&["127.0.0.1:1"]));
        let router = Router::start(config).unwrap();
        let mut client = crate::client::Client::connect(router.local_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        match client.stats_view().unwrap() {
            crate::client::StatsView::Cluster(view) => assert_eq!(view.shards_up(), 0),
            other => panic!("expected a cluster view, got {other:?}"),
        }
        assert_eq!(client.ping(b"after", 0).unwrap(), b"after");
        router.shutdown();
    }
}
