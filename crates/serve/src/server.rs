//! The `flm-serve` server: an event-driven FLMC-RPC server — one reactor
//! thread multiplexing every connection over epoll, a small worker pool for
//! CPU-bound refutation work, and one answer cache for certificates.
//!
//! # Architecture
//!
//! The reactor thread runs the front end it shares with the router (the
//! crate's `front` module): the listener, every connection's framing,
//! pipelining and write buffer, idle timeouts and the shutdown drain.
//! What is the server's own is how a decoded request is answered: inline
//! on the reactor (zero-hold pings, stats snapshots, memory-warm refutes)
//! or as a job for the worker pool (refutes that missed memory, verify,
//! audit, held pings), whose completions return through a wake channel.
//! For every refute the reactor runs the refute prelude — ownership check,
//! theorem parse, policy clamp, canonical key, memory tier — and only a
//! miss crosses to a worker, carrying its key. Responses leave in strict
//! request order no matter which worker finishes first, so one process
//! serves thousands of pipelining sockets with `workers` threads.
//!
//! # Shedding
//!
//! Load is shed with an answer, never a silently dropped socket, at two
//! points. Per *request*: a worker-bound request arriving while every
//! worker is busy and the job queue is full is answered with a typed
//! [`Response::Overloaded`] frame and the connection stays open (counted
//! as `requests_shed`; inline requests still serve, so a saturated server
//! remains observable, and a memory-warm refute is never shed). Per
//! *connection*: an accept beyond `max_connections` is answered with
//! `Overloaded` and closed (counted as `connections_shed`).
//!
//! # Budgets
//!
//! Per-connection hostile-input budgets reuse the hardening from the
//! certificate layer: a frame-body byte cap (checked before allocation), an
//! idle timeout (an idle peer cannot pin a connection slot forever), a
//! per-connection request budget, a pipeline depth cap, and a server-side
//! [`RunPolicy`] ceiling clamped onto every refutation request.
//!
//! # Caching
//!
//! Every refutation takes one path through the server's [`CertStore`]:
//! canonical key → memory (on the reactor) → disk (with
//! [`ServeConfig::store_dir`]) → peer shards (when sharded) → simulate (on
//! a worker), and the answer is remembered. A warm answer is therefore a
//! byte lookup with or without a directory; the directory only decides
//! whether warmth survives a restart. A disk hit stays on a worker: it is
//! a blocking read plus a decode-and-re-encode verify, which would stall
//! every connection the reactor serves. Each answered refute counts in
//! exactly one of the store's memory-hit, disk-hit and miss counters.
//! Caching is sound because a hit requires the full canonical query key to
//! match byte-for-byte, and under the determinism axiom that key fixes the
//! certificate. The [`Request::Stats`] RPC exposes every counter.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use flm_sim::RunPolicy;

use flm_sim::runcache::RunKey;

use crate::audit;
use crate::client::Client;
use crate::frame::{Frame, DEFAULT_MAX_BODY_BYTES};
use crate::front::{self, Front, Limits, Service};
use crate::query::{self, Theorem};
use crate::rpc::{ErrorCode, RefuteParams, Request, Response, StatsReport};
use crate::shard::{self, ShardMap};
use crate::store::{self, CertStore};
use crate::sys;

/// Server configuration. [`ServeConfig::default`] is sized for the loopback
/// quickstart; production deployments tune every knob.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7115` or `127.0.0.1:0` (ephemeral).
    pub addr: String,
    /// Worker threads for CPU-bound work (refute/verify/audit/held pings).
    /// Refutations themselves additionally fan out on the process-wide
    /// `flm-par` pool.
    pub workers: usize,
    /// Worker-bound requests allowed to wait in the job queue before
    /// further worker-bound requests are shed with a typed answer.
    pub queue_depth: usize,
    /// Frame-body byte cap, enforced before any allocation.
    pub max_body_bytes: usize,
    /// Idle timeout: a connection with no in-flight work and no unread
    /// bytes past this is closed. (Under the old blocking server this was
    /// the per-frame read timeout; the event loop needs no read deadline.)
    pub read_timeout: Duration,
    /// Requests one connection may issue before it is asked to reconnect
    /// (answered with a typed `connection-budget` error).
    pub max_requests_per_conn: u64,
    /// Cap on [`Request::Ping`] worker holds, milliseconds.
    pub max_hold_ms: u32,
    /// Ceiling clamped onto every requested [`RunPolicy`]: a query may
    /// tighten the simulation budget, never raise it past this.
    pub policy_ceiling: RunPolicy,
    /// Root directory for the certificate store's disk tier; `None` keeps
    /// the memory tier only (warm answers are still byte lookups, but
    /// warmth dies with the process and `PutCert` is refused).
    pub store_dir: Option<PathBuf>,
    /// Concurrent connections the reactor will hold; accepts beyond this
    /// are answered with [`Response::Overloaded`] and closed.
    pub max_connections: usize,
    /// Unanswered pipelined requests one connection may have in flight
    /// before the reactor stops reading its socket (TCP backpressure).
    pub max_pipelined: usize,
    /// This process's place in a sharded cluster; `None` serves unsharded
    /// (every key is owned locally, no ownership checks).
    pub shard: Option<ShardRole>,
}

/// A shard's identity in the cluster: its id plus the full topology every
/// peer and the router agree on byte-for-byte ([`ShardMap::encode`]).
#[derive(Debug, Clone)]
pub struct ShardRole {
    /// This process's shard id — an index into `map`.
    pub id: u32,
    /// The cluster topology.
    pub map: ShardMap,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 32,
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
            read_timeout: Duration::from_secs(10),
            max_requests_per_conn: 4096,
            max_hold_ms: 100,
            policy_ceiling: RunPolicy::default(),
            store_dir: None,
            max_connections: 2048,
            max_pipelined: 32,
            shard: None,
        }
    }
}

/// Monotonic service counters, shared across threads and surfaced by the
/// Stats RPC.
#[derive(Default)]
struct Counters {
    front: Arc<front::Counters>,
    requests_ping: AtomicU64,
    requests_refute: AtomicU64,
    requests_verify: AtomicU64,
    requests_audit: AtomicU64,
    requests_stats: AtomicU64,
    requests_shed: AtomicU64,
    requests_fetch: AtomicU64,
    requests_put: AtomicU64,
    wrong_shard: AtomicU64,
    peer_fetches: AtomicU64,
    async_refutes: AtomicU64,
}

impl Counters {
    /// Counts one answered refute; `theorem` is `None` when the request
    /// was answered before its theorem parsed.
    fn refute_answered(&self, theorem: Option<Theorem>) {
        self.requests_refute.fetch_add(1, Ordering::Relaxed);
        if theorem == Some(Theorem::FlpAsync) {
            self.async_refutes.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One unit of CPU-bound work handed from the reactor to the pool.
struct Job {
    conn: u64,
    seq: u64,
    work: Work,
}

/// What a worker runs for one job.
enum Work {
    /// A request the reactor does not answer: verify, audit, a held ping,
    /// the shard-transfer RPCs.
    Request(Request),
    /// A refute whose prelude ran on the reactor and missed memory.
    Refute(ColdRefute),
}

/// An owned, well-formed refute that missed the memory tier, with its
/// canonical key, computed once by [`refute_prelude`].
struct ColdRefute {
    theorem: Theorem,
    params: RefuteParams,
    policy: RunPolicy,
    key: RunKey,
}

/// How [`refute_prelude`] left a refute.
enum Prelude {
    /// Answered: wrong shard, bad request, or a memory-tier hit.
    Answered(Response),
    /// Continues on a worker: the store again, then peers, then simulation.
    Cold(ColdRefute),
}

/// A finished job on its way back to the reactor.
struct Completion {
    conn: u64,
    seq: u64,
    response: Response,
}

struct Shared {
    config: ServeConfig,
    counters: Counters,
    store: CertStore,
    jobs: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    completions: Mutex<Vec<Completion>>,
    waker: sys::Waker,
    busy_workers: AtomicUsize,
    shutdown: AtomicBool,
    /// Set by the reactor once it has stopped parsing requests: the job
    /// queue can only shrink from here, so a worker observing this flag
    /// and an empty queue may exit without orphaning a connection.
    jobs_closed: AtomicBool,
}

fn relock<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn snapshot(&self) -> StatsReport {
        let c = &self.counters;
        let cache = flm_sim::runcache::stats();
        let async_stats = flm_core::refute::async_search_stats();
        let store = self.store.stats();
        StatsReport {
            connections_accepted: c.front.connections_accepted.load(Ordering::Relaxed),
            connections_shed: c.front.connections_shed.load(Ordering::Relaxed),
            requests_ping: c.requests_ping.load(Ordering::Relaxed),
            requests_refute: c.requests_refute.load(Ordering::Relaxed),
            requests_verify: c.requests_verify.load(Ordering::Relaxed),
            requests_audit: c.requests_audit.load(Ordering::Relaxed),
            requests_stats: c.requests_stats.load(Ordering::Relaxed),
            requests_shed: c.requests_shed.load(Ordering::Relaxed),
            responses_error: c.front.responses_error.load(Ordering::Relaxed),
            malformed_frames: c.front.malformed_frames.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_entries: cache.entries as u64,
            cache_bytes_saved: cache.bytes_saved,
            store_mem_hits: store.mem_hits,
            store_disk_hits: store.disk_hits,
            store_misses: store.misses,
            store_stores: store.stores,
            store_quarantined: store.quarantined,
            store_mem_evictions: store.evictions,
            requests_fetch: c.requests_fetch.load(Ordering::Relaxed),
            requests_put: c.requests_put.load(Ordering::Relaxed),
            wrong_shard: c.wrong_shard.load(Ordering::Relaxed),
            peer_fetches: c.peer_fetches.load(Ordering::Relaxed),
            async_refutes: c.async_refutes.load(Ordering::Relaxed),
            async_schedules_explored: async_stats.0,
            async_bivalent_forks: async_stats.1,
            shard_id: self.config.shard.as_ref().map_or(0, |r| u64::from(r.id)),
            shard_count: self
                .config
                .shard
                .as_ref()
                .map_or(0, |r| u64::from(r.map.count())),
            profile: if flm_core::profile::enabled() {
                flm_core::profile::report()
            } else {
                String::new()
            },
        }
    }
}

/// A running FLMC-RPC server. Dropping without [`Server::shutdown`] leaves
/// the threads serving until the process exits (the `flm-serve` binary's
/// mode); tests call `shutdown` for a clean join.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, builds the poller and the certificate store, and
    /// spawns the reactor and worker threads.
    ///
    /// # Errors
    ///
    /// Propagates bind, poller-creation, and store-open failures.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let counters = Counters::default();
        let limits = Limits {
            max_connections: config.max_connections,
            max_pipelined: config.max_pipelined,
            max_body_bytes: config.max_body_bytes,
            idle_timeout: config.read_timeout,
        };
        let (front, waker) = Front::bind(
            &config.addr,
            limits,
            Arc::clone(&counters.front),
            front::FIRST_SERVICE_TOKEN,
        )?;
        let local_addr = front.local_addr()?;
        let workers = config.workers.max(1);
        let store = match &config.store_dir {
            Some(dir) => {
                CertStore::open(dir.clone()).map_err(|e| std::io::Error::other(e.to_string()))?
            }
            None => CertStore::default(),
        };

        let shared = Arc::new(Shared {
            config: ServeConfig { workers, ..config },
            counters,
            store,
            jobs: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            waker,
            busy_workers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            jobs_closed: AtomicBool::new(false),
        });

        let worker_handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let reactor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || front.run(&mut Reactor { shared }))
        };

        Ok(Server {
            local_addr,
            shared,
            reactor: Some(reactor),
            workers: worker_handles,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time copy of the service counters and cache statistics —
    /// the same report the Stats RPC returns, without a connection.
    pub fn stats(&self) -> StatsReport {
        self.shared.snapshot()
    }

    /// Workers currently executing a job. The saturation tests use this to
    /// wait for the pool to be provably busy before expecting
    /// [`Response::Overloaded`].
    pub fn busy_workers(&self) -> usize {
        self.shared.busy_workers.load(Ordering::SeqCst)
    }

    /// Drops the certificate store's in-memory layer, forcing the next
    /// lookup back to disk, or to a fresh simulation without a store
    /// directory. Benches use this to isolate the disk-warm and cold paths
    /// from the memory-warm one.
    pub fn drop_store_memory(&self) {
        self.shared.store.clear_memory();
    }

    /// Blocks until the server is shut down (never, unless another thread
    /// holds a handle). The `flm-serve` binary parks here.
    pub fn wait(mut self) {
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Stops accepting, lets in-flight requests complete and flush, and
    /// joins every thread.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        self.shared.job_ready.notify_all();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        self.shared.job_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Best-effort: stop the threads without joining (join may deadlock
        // if drop runs on a panic path). `shutdown` is the clean way.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        self.shared.job_ready.notify_all();
    }
}

/// The server's half of the reactor: per-connection request budgets,
/// inline vs worker dispatch, request-level shedding, and completions.
/// Framing, pipelining and connection lifetime are [`Front`]'s.
struct Reactor {
    shared: Arc<Shared>,
}

impl Reactor {
    /// Hands `work` to the pool, or sheds it with a typed answer when every
    /// worker is busy and the job queue is full.
    fn enqueue(&self, front: &mut Front<u64>, token: u64, seq: u64, work: Work) {
        let config = &self.shared.config;
        let mut jobs = relock(self.shared.jobs.lock());
        let busy = self.shared.busy_workers.load(Ordering::SeqCst);
        if busy >= config.workers && jobs.len() >= config.queue_depth {
            let queued = jobs.len() as u32;
            drop(jobs);
            self.shared
                .counters
                .requests_shed
                .fetch_add(1, Ordering::Relaxed);
            let response = Response::Overloaded {
                queued,
                detail: format!(
                    "all {} workers busy and {} requests queued; retry later",
                    config.workers, queued
                ),
            };
            front.fill(token, seq, &response);
            return;
        }
        jobs.push_back(Job {
            conn: token,
            seq,
            work,
        });
        drop(jobs);
        self.shared.job_ready.notify_one();
    }
}

impl Service for Reactor {
    /// Requests the connection has issued, against
    /// [`ServeConfig::max_requests_per_conn`].
    type ConnState = u64;

    fn shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// The front has stopped parsing, so the job queue can only shrink from
    /// here: a worker seeing `jobs_closed` and an empty queue may exit
    /// without orphaning a connection mid-pipeline.
    fn drain_started(&mut self) {
        self.shared.jobs_closed.store(true, Ordering::SeqCst);
        self.shared.job_ready.notify_all();
    }

    /// Routes one well-framed request: budget check, decode, then inline
    /// execution, worker hand-off, or request-level shed.
    fn frame(&mut self, front: &mut Front<u64>, token: u64, frame: Frame) {
        let config = &self.shared.config;
        let Some(served) = front.state_mut(token) else {
            return;
        };
        if *served >= config.max_requests_per_conn {
            let response = Response::Error {
                code: ErrorCode::ConnectionBudget,
                detail: format!(
                    "connection exhausted its {}-request budget; reconnect",
                    config.max_requests_per_conn
                ),
            };
            front.reply(token, &response);
            front.close_when_flushed(token);
            return;
        }
        *served += 1;
        let Some(request) = front.decode_request(token, &frame) else {
            return;
        };
        let Some(seq) = front.open_slot(token) else {
            return;
        };

        let c = &self.shared.counters;
        match request {
            // Zero-hold pings, stats snapshots and memory-warm refutes are
            // reactor-inline: they cost microseconds and must keep
            // answering while the worker pool is saturated (that is what
            // makes saturation observable).
            Request::Ping { payload, hold_ms } if hold_ms.min(config.max_hold_ms) == 0 => {
                c.requests_ping.fetch_add(1, Ordering::Relaxed);
                front.fill(token, seq, &Response::Pong { payload });
            }
            Request::Stats => {
                c.requests_stats.fetch_add(1, Ordering::Relaxed);
                front.fill(token, seq, &Response::Stats(self.shared.snapshot()));
            }
            Request::Refute(params) => match refute_prelude(&self.shared, params) {
                Prelude::Answered(response) => front.fill(token, seq, &response),
                Prelude::Cold(cold) => self.enqueue(front, token, seq, Work::Refute(cold)),
            },
            request => self.enqueue(front, token, seq, Work::Request(request)),
        }
    }

    /// Drains the completion queue: fill slots, then settle each touched
    /// connection (which also re-parses frames the pipeline cap deferred).
    fn after_events(&mut self, front: &mut Front<u64>) {
        let done = std::mem::take(&mut *relock(self.shared.completions.lock()));
        for completion in done {
            front.fill(completion.conn, completion.seq, &completion.response);
            front.advance(completion.conn, self);
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut jobs = relock(shared.jobs.lock());
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                // Exit only once the reactor has promised no more jobs
                // (`jobs_closed`), not on the shutdown flag alone — a
                // worker that quits while the reactor is still parsing
                // would orphan a connection mid-pipeline.
                if shared.jobs_closed.load(Ordering::SeqCst) {
                    return;
                }
                jobs = relock(shared.job_ready.wait(jobs));
            }
        };
        shared.busy_workers.fetch_add(1, Ordering::SeqCst);
        let response = match job.work {
            Work::Request(request) => dispatch(request, shared),
            Work::Refute(cold) => refute_cold(cold, shared),
        };
        shared.busy_workers.fetch_sub(1, Ordering::SeqCst);
        relock(shared.completions.lock()).push(Completion {
            conn: job.conn,
            seq: job.seq,
            response,
        });
        shared.waker.wake();
    }
}

/// Executes one CPU-bound request. Inline kinds (zero-hold pings, stats)
/// and refutes (queued as [`Work::Refute`] after their prelude) normally
/// never reach here, but the handling is kept complete so a job is a job
/// regardless of routing.
fn dispatch(request: Request, shared: &Shared) -> Response {
    let c = &shared.counters;
    match request {
        Request::Ping { payload, hold_ms } => {
            c.requests_ping.fetch_add(1, Ordering::Relaxed);
            let hold = hold_ms.min(shared.config.max_hold_ms);
            if hold > 0 {
                std::thread::sleep(Duration::from_millis(u64::from(hold)));
            }
            Response::Pong { payload }
        }
        Request::Refute(params) => match refute_prelude(shared, params) {
            Prelude::Answered(response) => response,
            Prelude::Cold(cold) => refute_cold(cold, shared),
        },
        Request::Verify { cert } => {
            c.requests_verify.fetch_add(1, Ordering::Relaxed);
            let (verdict, detail) = audit::verify_bytes(&cert);
            Response::Verify { verdict, detail }
        }
        Request::Audit { cert } => {
            c.requests_audit.fetch_add(1, Ordering::Relaxed);
            let report = audit::audit_bytes(&cert, false);
            Response::Audit {
                exit_code: report.exit_code,
                report: report.report,
                diagnostics: report.diagnostics,
            }
        }
        Request::Stats => {
            c.requests_stats.fetch_add(1, Ordering::Relaxed);
            Response::Stats(shared.snapshot())
        }
        Request::FetchCert { key } => {
            c.requests_fetch.fetch_add(1, Ordering::Relaxed);
            // Deliberately *not* ownership-checked: the caller is a shard
            // that owns this key now and is asking the previous owner.
            let cert = shared.store.lookup(&RunKey::from_bytes(key));
            Response::FetchCert { cert }
        }
        Request::PutCert { key, cert } => {
            c.requests_put.fetch_add(1, Ordering::Relaxed);
            // Ownership-checked: certificates are shipped *to* their owner.
            if let Some(role) = &shared.config.shard {
                let owner = role.map.owner_of_bytes(&key);
                if owner != role.id {
                    c.wrong_shard.fetch_add(1, Ordering::Relaxed);
                    return Response::WrongShard {
                        owner,
                        addr: role.map.addr(owner).to_owned(),
                    };
                }
            }
            // A shipped certificate is the receiver's to keep durably: the
            // sender deletes its copy after a successful ship, so a
            // memory-only receiver would lose it on restart.
            if shared.store.dir().is_none() {
                return Response::Error {
                    code: ErrorCode::BadRequest,
                    detail: "this server has no store directory; nowhere to keep the certificate"
                        .into(),
                };
            }
            // Ship-verify-then-own: shipped bytes pass the same decode +
            // canonical re-encode gate a disk load does before this store
            // will ever serve them.
            if !store::verified_cert_bytes(&cert) {
                return Response::Error {
                    code: ErrorCode::BadRequest,
                    detail: "shipped bytes are not a canonically-encoded FLMC certificate".into(),
                };
            }
            shared.store.store(&RunKey::from_bytes(key), &cert);
            Response::PutCert
        }
    }
}

/// The refute prelude, run by the reactor for every Refute: ownership
/// check, theorem parse, policy clamp, canonical key, then the store's
/// memory tier. A hit is answered here; a miss carries its key on to
/// [`refute_cold`], so the key is computed once either way.
fn refute_prelude(shared: &Shared, params: RefuteParams) -> Prelude {
    let c = &shared.counters;
    let bad_request = |detail: String| {
        c.refute_answered(None);
        Prelude::Answered(Response::Error {
            code: ErrorCode::BadRequest,
            detail,
        })
    };
    // Sharded: an off-owner request is answered with the owner's address,
    // never silently double-simulated, and before any store traffic. The
    // routing key hashes the request as sent (requested-or-default policy),
    // exactly what the router hashes — agreement by construction.
    if let Some(role) = &shared.config.shard {
        match shard::routing_key(&params) {
            Ok(rkey) => {
                let owner = role.map.owner_of(&rkey);
                if owner != role.id {
                    c.refute_answered(None);
                    c.wrong_shard.fetch_add(1, Ordering::Relaxed);
                    return Prelude::Answered(Response::WrongShard {
                        owner,
                        addr: role.map.addr(owner).to_owned(),
                    });
                }
            }
            Err(e) => return bad_request(e.to_string()),
        }
    }
    let theorem = match Theorem::parse(&params.theorem) {
        Ok(theorem) => theorem,
        Err(e) => return bad_request(e.to_string()),
    };
    let policy = clamp_policy(params.policy, shared.config.policy_ceiling);
    let key = query::canonical_query_key(
        theorem,
        params.protocol.as_deref(),
        params.graph.as_ref(),
        params.f as usize,
        &policy,
    );
    // A cached hit is byte-identical to a fresh run of the same canonical
    // key (determinism axiom), so which layer answered is invisible to the
    // client.
    match shared.store.lookup_memory(&key) {
        Some(bytes) => {
            c.refute_answered(Some(theorem));
            Prelude::Answered(Response::Certificate { bytes })
        }
        None => Prelude::Cold(ColdRefute {
            theorem,
            params,
            policy,
            key,
        }),
    }
}

/// The worker half of a refute that missed memory: the store again (disk,
/// if any), then peer shards (when sharded), then a fresh simulation,
/// remembered.
fn refute_cold(cold: ColdRefute, shared: &Shared) -> Response {
    let ColdRefute {
        theorem,
        params,
        policy,
        key,
    } = cold;
    shared.counters.refute_answered(Some(theorem));
    // The full lookup, memory included: a job queued behind another for
    // the same key finds the certificate that job just remembered instead
    // of paying a second disk read or simulation.
    if let Some(bytes) = shared.store.lookup(&key) {
        return Response::Certificate { bytes };
    }
    // Owned key, cold cache: before paying for a simulation, ask the peer
    // shards — after a topology change the previous owner still holds the
    // certificate.
    if let Some(bytes) = fetch_from_peers(shared, &key) {
        shared.store.store(&key, &bytes);
        return Response::Certificate { bytes };
    }
    match query::refute_to_bytes(
        theorem,
        params.protocol.as_deref(),
        params.graph.as_ref(),
        params.f as usize,
        policy,
    ) {
        Ok(bytes) => {
            shared.store.store(&key, &bytes);
            Response::Certificate { bytes }
        }
        Err(e @ query::QueryError::BadRequest { .. })
        | Err(e @ query::QueryError::UnknownTheorem { .. }) => Response::Error {
            code: ErrorCode::BadRequest,
            detail: e.to_string(),
        },
        Err(e @ query::QueryError::Refute { .. }) => Response::Error {
            code: ErrorCode::RefuteFailed,
            detail: e.to_string(),
        },
        Err(e @ query::QueryError::SelfCheck { .. }) => Response::Error {
            code: ErrorCode::Internal,
            detail: e.to_string(),
        },
    }
}

/// Peer-connect budget for fetch-on-miss: a down peer costs at most this
/// long before the shard falls back to simulating.
const PEER_CONNECT_TIMEOUT: Duration = Duration::from_millis(200);
/// Peer-read budget for fetch-on-miss: a lookup is a cache read, not a
/// simulation, so a healthy peer answers in microseconds.
const PEER_READ_TIMEOUT: Duration = Duration::from_secs(2);

/// After a local cache miss on an owned key, asks each peer shard's cache
/// for the certificate (the pull half of topology-change recovery).
/// Received bytes are adopted only after the ship-verify-then-own gate.
fn fetch_from_peers(shared: &Shared, key: &RunKey) -> Option<Vec<u8>> {
    let role = shared.config.shard.as_ref()?;
    for (peer, addr) in role.map.addrs().iter().enumerate() {
        if peer as u32 == role.id {
            continue;
        }
        let Ok(mut client) = Client::connect_timeout(addr, PEER_CONNECT_TIMEOUT) else {
            continue;
        };
        if client.set_read_timeout(Some(PEER_READ_TIMEOUT)).is_err() {
            continue;
        }
        let Ok(Some(bytes)) = client.fetch_cert(key.bytes()) else {
            continue;
        };
        if store::verified_cert_bytes(&bytes) {
            shared.counters.peer_fetches.fetch_add(1, Ordering::Relaxed);
            return Some(bytes);
        }
    }
    None
}

/// Writes a bound address to a port file atomically — temp file in the
/// same directory, then rename, the `CertStore` discipline — so a
/// concurrently polling reader (the shard-spawning scripts and tests) sees
/// either no file or a complete `host:port\n`, never a half-written one.
///
/// # Errors
///
/// Propagates filesystem failures; the temp file is removed on error.
pub fn write_port_file(path: &Path, addr: SocketAddr) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let tmp = dir.join(format!(
        ".port-tmp-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, format!("{addr}\n"))?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Clamps a requested policy to the server's ceiling, fieldwise: queries may
/// tighten their simulation budget but never exceed the operator's.
fn clamp_policy(requested: Option<RunPolicy>, ceiling: RunPolicy) -> RunPolicy {
    match requested {
        None => ceiling,
        Some(p) => RunPolicy {
            max_payload_bytes: p.max_payload_bytes.min(ceiling.max_payload_bytes),
            max_ticks: p.max_ticks.min(ceiling.max_ticks),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_clamp_is_fieldwise_min() {
        let ceiling = RunPolicy {
            max_payload_bytes: 1000,
            max_ticks: 50,
        };
        assert_eq!(clamp_policy(None, ceiling), ceiling);
        let clamped = clamp_policy(
            Some(RunPolicy {
                max_payload_bytes: 4000,
                max_ticks: 10,
            }),
            ceiling,
        );
        assert_eq!(clamped.max_payload_bytes, 1000);
        assert_eq!(clamped.max_ticks, 10);
    }

    #[test]
    fn port_file_write_is_atomic_under_a_concurrent_reader() {
        let dir = std::env::temp_dir().join(format!(
            "flm-portfile-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("port");
        let addr: SocketAddr = "127.0.0.1:7415".parse().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let (path, stop) = (path.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                // Poll like the shard-spawning scripts do: any observed
                // content must be a complete address, never a prefix.
                while !stop.load(Ordering::SeqCst) {
                    if let Ok(text) = std::fs::read_to_string(&path) {
                        assert_eq!(text, "127.0.0.1:7415\n", "partial port file observed");
                    }
                }
            })
        };
        for _ in 0..200 {
            write_port_file(&path, addr).unwrap();
        }
        stop.store(true, Ordering::SeqCst);
        reader.join().unwrap();
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with(".port-tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn server_binds_ephemeral_and_shuts_down() {
        let server = Server::start(ServeConfig {
            workers: 2,
            read_timeout: Duration::from_millis(200),
            ..ServeConfig::default()
        })
        .unwrap();
        assert_ne!(server.local_addr().port(), 0);
        assert_eq!(server.stats().requests_served(), 0);
        server.shutdown();
    }
}
