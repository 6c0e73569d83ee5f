//! Load generation: `N` client connections firing a deterministic mix of
//! refute/verify/audit requests at a server, with retry-on-overload.
//!
//! This is both a CLI feature (`flm-client load`) and the machinery behind
//! the `BENCH_serve.json` throughput rows. The request schedule is a pure
//! function of the mix and the connection index, so two runs against the
//! same server issue byte-identical request streams — warm-cache behavior
//! is reproducible.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flm_sim::RunPolicy;

use crate::client::{Client, ClientError, StatsView};
use crate::query::{self, Theorem};
use crate::rpc::{RefuteParams, Verdict};
use crate::shard;

/// Relative weights of the request kinds in the generated stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Weight of refute requests.
    pub refute: u32,
    /// Weight of verify requests.
    pub verify: u32,
    /// Weight of audit requests.
    pub audit: u32,
}

impl Default for Mix {
    fn default() -> Self {
        Mix {
            refute: 1,
            verify: 1,
            audit: 1,
        }
    }
}

impl Mix {
    /// Parses a `refute:verify:audit` weight triple, e.g. `2:1:1`.
    ///
    /// # Errors
    ///
    /// Returns a message when the string is not three `:`-separated
    /// non-negative integers with a positive sum.
    pub fn parse(s: &str) -> Result<Mix, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 3 {
            return Err(format!("--mix wants REFUTE:VERIFY:AUDIT, got {s:?}"));
        }
        let parse = |p: &str| -> Result<u32, String> {
            p.parse().map_err(|_| format!("--mix: bad weight {p:?}"))
        };
        let mix = Mix {
            refute: parse(parts[0])?,
            verify: parse(parts[1])?,
            audit: parse(parts[2])?,
        };
        if mix.refute + mix.verify + mix.audit == 0 {
            return Err("--mix: at least one weight must be positive".into());
        }
        Ok(mix)
    }

    /// The deterministic request schedule: one kind per slot, weights
    /// interleaved round-robin (`2:1:1` yields `R R V A R R V A …`).
    fn schedule(&self, len: usize) -> Vec<Kind> {
        let mut pattern = Vec::new();
        for _ in 0..self.refute {
            pattern.push(Kind::Refute);
        }
        for _ in 0..self.verify {
            pattern.push(Kind::Verify);
        }
        for _ in 0..self.audit {
            pattern.push(Kind::Audit);
        }
        (0..len).map(|i| pattern[i % pattern.len()]).collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Refute,
    Verify,
    Audit,
}

/// What one load run observed, aggregated over every connection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Connections driven.
    pub connections: usize,
    /// Requests attempted (including retried ones once each).
    pub requests: u64,
    /// Requests answered successfully.
    pub ok: u64,
    /// Overloaded answers observed (each is followed by a reconnect and a
    /// retry; an overload is shed load, not an error).
    pub overloaded: u64,
    /// Typed error responses.
    pub errors: u64,
    /// Transport failures (connection reset, timeout) — real *dropped*
    /// connections, which a healthy load-shedding server never produces.
    pub transport_errors: u64,
    /// Requests abandoned after exhausting retries.
    pub abandoned: u64,
    /// Response payload bytes received.
    pub bytes_received: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
}

impl LoadReport {
    /// Successful requests per wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.ok as f64 / secs
        }
    }
}

impl fmt::Display for LoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} connections, {} requests in {:.3}s ({:.0} req/s)",
            self.connections,
            self.requests,
            self.elapsed.as_secs_f64(),
            self.throughput_rps(),
        )?;
        write!(
            f,
            "ok {}, overloaded {}, errors {}, transport errors {}, abandoned {}, {} KiB received",
            self.ok,
            self.overloaded,
            self.errors,
            self.transport_errors,
            self.abandoned,
            self.bytes_received / 1024,
        )
    }
}

/// Retries per logical request before counting it abandoned.
const MAX_ATTEMPTS: u32 = 5;

/// Drives `connections` concurrent clients, each issuing `requests_per_conn`
/// requests drawn from `mix` against `addr`. Refute requests query
/// `theorem`'s canonical defaults; verify/audit requests carry a locally
/// pre-built certificate for the same query, so the server's answer stream
/// exercises all three code paths. Overloaded answers reconnect and retry
/// with linear backoff.
///
/// # Errors
///
/// Returns a message when the local certificate pre-build fails (the server
/// is never contacted in that case).
pub fn run(
    addr: &str,
    connections: usize,
    requests_per_conn: usize,
    mix: Mix,
    theorem: Theorem,
) -> Result<LoadReport, String> {
    // Verify/audit payloads are built locally, once: the same bytes the
    // server would serve for this query (byte-determinism is the whole
    // point), so the load stream needs no warm-up request.
    let cert: Arc<Vec<u8>> = Arc::new(
        query::refute_to_bytes(theorem, None, None, 1, RunPolicy::default())
            .map_err(|e| format!("pre-building the verify/audit payload: {e}"))?,
    );
    let start = Instant::now();
    let worker = |conn_index: usize| -> LoadReport {
        let mut report = LoadReport::default();
        let schedule = mix.schedule(requests_per_conn);
        // Stagger each connection's schedule so simultaneous connections
        // don't issue identical request sequences in lock-step.
        let offset = conn_index % schedule.len().max(1);
        let mut client = None;
        for slot in 0..schedule.len() {
            let kind = schedule[(slot + offset) % schedule.len()];
            report.requests += 1;
            let mut done = false;
            for attempt in 0..MAX_ATTEMPTS {
                let c = match client.as_mut() {
                    Some(c) => c,
                    None => match Client::connect(addr) {
                        // `Option::insert` hands back the borrow directly —
                        // the `.expect("just inserted")` it replaces could
                        // panic the whole campaign instead of counting the
                        // failure like every other path here.
                        Ok(c) => client.insert(c),
                        Err(_) => {
                            report.transport_errors += 1;
                            std::thread::sleep(Duration::from_millis(u64::from(attempt) + 1));
                            continue;
                        }
                    },
                };
                let outcome = match kind {
                    Kind::Refute => c
                        .refute(theorem.name(), None, None, 1, None)
                        .map(|bytes| bytes.len()),
                    Kind::Verify => c.verify(&cert).map(|(verdict, detail)| {
                        if verdict == Verdict::Verified {
                            detail.len()
                        } else {
                            0
                        }
                    }),
                    Kind::Audit => c
                        .audit(&cert)
                        .map(|(_, report, diagnostics)| report.len() + diagnostics.len()),
                };
                match outcome {
                    Ok(bytes) => {
                        report.ok += 1;
                        report.bytes_received += bytes as u64;
                        done = true;
                        break;
                    }
                    Err(ClientError::Overloaded { .. }) => {
                        // Shed: the server answered and closed. Reconnect
                        // with a linear backoff and retry the same request.
                        report.overloaded += 1;
                        client = None;
                        std::thread::sleep(Duration::from_millis(u64::from(attempt) * 2 + 1));
                    }
                    Err(ClientError::ErrorResponse { .. }) => {
                        report.errors += 1;
                        done = true;
                        break;
                    }
                    Err(_) => {
                        report.transport_errors += 1;
                        client = None;
                        std::thread::sleep(Duration::from_millis(u64::from(attempt) + 1));
                    }
                }
            }
            if !done {
                report.abandoned += 1;
            }
        }
        report
    };
    let reports: Vec<LoadReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|i| scope.spawn(move || worker(i)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut total = LoadReport {
        connections,
        elapsed: start.elapsed(),
        ..LoadReport::default()
    };
    for r in reports {
        total.requests += r.requests;
        total.ok += r.ok;
        total.overloaded += r.overloaded;
        total.errors += r.errors;
        total.transport_errors += r.transport_errors;
        total.abandoned += r.abandoned;
        total.bytes_received += r.bytes_received;
    }
    Ok(total)
}

/// One key range's traffic in a router run. A "range" is the slice of the
/// key space one shard owns; the theorem families landing in it are listed
/// so the numbers are attributable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeReport {
    /// The owning shard.
    pub shard: u32,
    /// Theorem families whose canonical default query lands in this range.
    pub families: Vec<&'static str>,
    /// Refute requests this run sent into the range.
    pub requests: u64,
    /// Requests answered with certificate bytes.
    pub ok: u64,
    /// Typed `ShardDown` answers (the range's shard was unreachable).
    pub shard_down: u64,
    /// Certificate-store hits (memory + disk tiers) the range's shard
    /// gained during the run, from the before/after cluster stats delta.
    /// Store hits are per *request* — a request either came off the store
    /// or paid a simulation — unlike run-cache hits, which count memoized
    /// sub-runs inside a search and can exceed the request count.
    pub warm_hits_gained: u64,
}

impl RangeReport {
    /// Store hits per answered request — 1.0 means the range served the
    /// whole run off its certificate store without simulating once. Every
    /// shard has the store's memory tier, so a shard without a store
    /// directory reports its warm repeats here too.
    pub fn hit_rate(&self) -> f64 {
        if self.ok == 0 {
            0.0
        } else {
            self.warm_hits_gained as f64 / self.ok as f64
        }
    }
}

/// What one router-mode load run observed: the flat totals plus a
/// per-key-range breakdown from the cluster-stats delta.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouterLoadReport {
    /// The flat request totals, same semantics as [`run`].
    pub totals: LoadReport,
    /// Shards the router reported up when the run started.
    pub shards_up: u32,
    /// Shards in the topology.
    pub shard_count: u32,
    /// One row per key range (= per shard), in shard order.
    pub ranges: Vec<RangeReport>,
}

impl fmt::Display for RouterLoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.totals)?;
        writeln!(
            f,
            "cluster: {}/{} shards up at start",
            self.shards_up, self.shard_count
        )?;
        writeln!(
            f,
            "{:>5}  {:>8}  {:>6}  {:>10}  {:>8}  families",
            "range", "requests", "ok", "store hits", "hit rate"
        )?;
        for range in &self.ranges {
            writeln!(
                f,
                "{:>5}  {:>8}  {:>6}  {:>10}  {:>7.0}%  {}",
                range.shard,
                range.requests,
                range.ok,
                range.warm_hits_gained,
                range.hit_rate() * 100.0,
                if range.families.is_empty() {
                    "-".to_owned()
                } else {
                    range.families.join(",")
                }
            )?;
        }
        Ok(())
    }
}

/// Router-mode load: drives refute requests for *all seven* theorem
/// families (at canonical defaults) through a router, then reports per-key
/// range — requests, successes, typed `ShardDown` answers, and the store
/// hits each shard gained, read from the router's cluster-stats delta.
///
/// # Errors
///
/// Returns a message when `addr` does not answer Stats with a cluster view
/// (i.e. it is a plain shard, not a router).
pub fn run_router(
    addr: &str,
    connections: usize,
    requests_per_conn: usize,
) -> Result<RouterLoadReport, String> {
    let before = cluster_snapshot(addr)?;
    let shard_count = before.shards.len() as u32;
    // Which range does each family's canonical default query land in?
    let owners: Vec<u32> = Theorem::ALL
        .iter()
        .map(|t| {
            let params = RefuteParams {
                theorem: t.name().into(),
                protocol: None,
                graph: None,
                f: 1,
                policy: None,
            };
            let key = shard::routing_key(&params).expect("canonical family names parse");
            shard::owner_for_count(shard_count.max(1), key.fingerprint())
        })
        .collect();

    let start = Instant::now();
    let worker = |conn_index: usize| -> (LoadReport, Vec<RangeReport>) {
        let mut report = LoadReport::default();
        let mut ranges: Vec<RangeReport> = (0..shard_count)
            .map(|shard| RangeReport {
                shard,
                ..RangeReport::default()
            })
            .collect();
        let offset = conn_index % Theorem::ALL.len();
        let mut client = None;
        for slot in 0..requests_per_conn {
            let family = (slot + offset) % Theorem::ALL.len();
            let theorem = Theorem::ALL[family];
            let range = &mut ranges[owners[family] as usize];
            report.requests += 1;
            range.requests += 1;
            let mut done = false;
            for attempt in 0..MAX_ATTEMPTS {
                let c = match client.as_mut() {
                    Some(c) => c,
                    None => match Client::connect(addr) {
                        Ok(c) => client.insert(c),
                        Err(_) => {
                            report.transport_errors += 1;
                            std::thread::sleep(Duration::from_millis(u64::from(attempt) + 1));
                            continue;
                        }
                    },
                };
                match c.refute(theorem.name(), None, None, 1, None) {
                    Ok(bytes) => {
                        report.ok += 1;
                        report.bytes_received += bytes.len() as u64;
                        range.ok += 1;
                        done = true;
                        break;
                    }
                    Err(ClientError::ShardDown { .. }) => {
                        // The range is degraded; retrying on this
                        // connection is correct (the router heals it).
                        range.shard_down += 1;
                        report.errors += 1;
                        done = true;
                        break;
                    }
                    Err(ClientError::Overloaded { .. }) => {
                        report.overloaded += 1;
                        client = None;
                        std::thread::sleep(Duration::from_millis(u64::from(attempt) * 2 + 1));
                    }
                    Err(ClientError::ErrorResponse { .. } | ClientError::WrongShard { .. }) => {
                        report.errors += 1;
                        done = true;
                        break;
                    }
                    Err(_) => {
                        report.transport_errors += 1;
                        client = None;
                        std::thread::sleep(Duration::from_millis(u64::from(attempt) + 1));
                    }
                }
            }
            if !done {
                report.abandoned += 1;
            }
        }
        (report, ranges)
    };
    let results: Vec<(LoadReport, Vec<RangeReport>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|i| scope.spawn(move || worker(i)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut totals = LoadReport {
        connections,
        elapsed: start.elapsed(),
        ..LoadReport::default()
    };
    let mut ranges: Vec<RangeReport> = (0..shard_count)
        .map(|shard| RangeReport {
            shard,
            families: Theorem::ALL
                .iter()
                .zip(&owners)
                .filter(|(_, &o)| o == shard)
                .map(|(t, _)| t.name())
                .collect(),
            ..RangeReport::default()
        })
        .collect();
    for (r, conn_ranges) in results {
        totals.requests += r.requests;
        totals.ok += r.ok;
        totals.overloaded += r.overloaded;
        totals.errors += r.errors;
        totals.transport_errors += r.transport_errors;
        totals.abandoned += r.abandoned;
        totals.bytes_received += r.bytes_received;
        for (total_range, conn_range) in ranges.iter_mut().zip(conn_ranges) {
            total_range.requests += conn_range.requests;
            total_range.ok += conn_range.ok;
            total_range.shard_down += conn_range.shard_down;
        }
    }
    let after = cluster_snapshot(addr)?;
    for range in &mut ranges {
        let warm = |snap: &crate::rpc::ClusterStatsReport| {
            snap.shards
                .iter()
                .find(|s| s.shard == range.shard)
                .and_then(|s| s.report.as_ref())
                .map_or(0, crate::rpc::StatsReport::warm_hits)
        };
        range.warm_hits_gained = warm(&after).saturating_sub(warm(&before));
    }
    Ok(RouterLoadReport {
        totals,
        shards_up: before.shards_up() as u32,
        shard_count,
        ranges,
    })
}

fn cluster_snapshot(addr: &str) -> Result<crate::rpc::ClusterStatsReport, String> {
    let mut client =
        Client::connect(addr).map_err(|e| format!("connecting to router {addr}: {e}"))?;
    match client.stats_view().map_err(|e| e.to_string())? {
        StatsView::Cluster(report) => Ok(report),
        StatsView::Single(_) => Err(format!(
            "{addr} answered single-server stats; --router mode needs an flm-router address"
        )),
    }
}

/// What one simultaneous-ping wave observed (see [`ping_wave`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PingWaveReport {
    /// Sockets the wave tried to open.
    pub connections: usize,
    /// Pings answered with a correctly echoed pong.
    pub ok: u64,
    /// Typed `Overloaded` answers (shed load, not dropped sockets).
    pub overloaded: u64,
    /// Connect failures, write failures, read failures, or wrong answers —
    /// anything a healthy server must not produce.
    pub transport_errors: u64,
    /// Wall-clock duration of the whole wave.
    pub elapsed: Duration,
}

impl fmt::Display for PingWaveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} simultaneous connections in {:.3}s: ok {}, overloaded {}, transport errors {}",
            self.connections,
            self.elapsed.as_secs_f64(),
            self.ok,
            self.overloaded,
            self.transport_errors,
        )
    }
}

/// Opens `connections` sockets *simultaneously*, writes one zero-hold ping
/// on every socket, then collects every pong. All sockets are held open
/// until the last response arrives, so a server passing this with `ok ==
/// connections` demonstrably served that many concurrent connections
/// without dropping one. The single-threaded write-all-then-read-all shape
/// is sound because ping frames and pongs are tiny: the kernel's socket
/// buffers absorb the whole wave on both sides.
pub fn ping_wave(addr: &str, connections: usize) -> PingWaveReport {
    use crate::frame::{read_frame, write_frame, DEFAULT_MAX_BODY_BYTES};
    use crate::rpc::{Request, Response};

    let start = Instant::now();
    let mut report = PingWaveReport {
        connections,
        ..PingWaveReport::default()
    };
    // Phase 1: connect everything. A slot that never connects (even after
    // linear-backoff retries against a transient accept-backlog overflow)
    // is a counted transport error, not a panic.
    let mut socks: Vec<Option<std::net::TcpStream>> = Vec::with_capacity(connections);
    for _ in 0..connections {
        let mut sock = None;
        for attempt in 0..MAX_ATTEMPTS {
            match std::net::TcpStream::connect(addr) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
                    sock = Some(s);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(u64::from(attempt) + 1)),
            }
        }
        if sock.is_none() {
            report.transport_errors += 1;
        }
        socks.push(sock);
    }
    // Phase 2: one ping per socket, all written before any response is read.
    for (i, sock) in socks.iter_mut().enumerate() {
        let Some(s) = sock.as_mut() else { continue };
        let request = Request::Ping {
            payload: (i as u32).to_le_bytes().to_vec(),
            hold_ms: 0,
        };
        if write_frame(s, &request.to_frame()).is_err() {
            report.transport_errors += 1;
            *sock = None;
        }
    }
    // Phase 3: collect every pong; the sockets stay open until all arrive.
    for (i, sock) in socks.iter_mut().enumerate() {
        let Some(s) = sock.as_mut() else { continue };
        let response = read_frame(s, DEFAULT_MAX_BODY_BYTES)
            .ok()
            .and_then(|frame| Response::from_frame(&frame).ok());
        match response {
            Some(Response::Pong { payload }) if payload == (i as u32).to_le_bytes() => {
                report.ok += 1;
            }
            Some(Response::Overloaded { .. }) => report.overloaded += 1,
            _ => report.transport_errors += 1,
        }
    }
    report.elapsed = start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_parses_and_rejects() {
        assert_eq!(
            Mix::parse("2:1:1").unwrap(),
            Mix {
                refute: 2,
                verify: 1,
                audit: 1
            }
        );
        assert!(Mix::parse("1:1").is_err());
        assert!(Mix::parse("0:0:0").is_err());
        assert!(Mix::parse("a:1:1").is_err());
    }

    #[test]
    fn schedule_is_deterministic_and_weighted() {
        let mix = Mix {
            refute: 2,
            verify: 1,
            audit: 1,
        };
        let s = mix.schedule(8);
        assert_eq!(s.len(), 8);
        assert_eq!(s.iter().filter(|k| **k == Kind::Refute).count(), 4);
        assert_eq!(s.iter().filter(|k| **k == Kind::Verify).count(), 2);
        assert_eq!(s.iter().filter(|k| **k == Kind::Audit).count(), 2);
        assert_eq!(s, mix.schedule(8));
    }

    /// Regression for the reconnect path: a server that is never reachable
    /// must yield a report full of counted transport errors and abandoned
    /// requests — the `.expect("just inserted")` this pins against panicked
    /// the generator mid-campaign instead.
    #[test]
    fn unreachable_server_is_counted_not_a_panic() {
        // Port 1 on loopback: nothing listens there, so every connect is
        // refused immediately.
        let report = run("127.0.0.1:1", 2, 2, Mix::default(), Theorem::BaNodes).unwrap();
        assert_eq!(report.ok, 0);
        assert_eq!(report.abandoned, 4, "{report}");
        assert_eq!(
            report.transport_errors,
            u64::from(MAX_ATTEMPTS) * 4,
            "{report}"
        );
    }

    #[test]
    fn report_renders_throughput() {
        let report = LoadReport {
            connections: 2,
            requests: 10,
            ok: 10,
            elapsed: Duration::from_secs(2),
            ..LoadReport::default()
        };
        assert!((report.throughput_rps() - 5.0).abs() < 1e-9);
        assert!(report.to_string().contains("2 connections"));
    }
}
