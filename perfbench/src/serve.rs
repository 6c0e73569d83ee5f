//! `serve_hot`: two closed-loop connections against
//! `flm-serve --workers 2 --store-dir DIR`.
//!
//! The set-up writes the certificates of the 1024-key working set into
//! the store directory and starts the server over it, as after a restart.
//! The connections send Zipf-popular refutes: every answer is a memory or
//! a disk hit of the certificate store.
//!
//! After the timed phase every distinct certificate served is checked
//! against a fresh in-process refutation and audit. The traced run then
//! replays the recorded request stream through the public functions of
//! each serve layer.

use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::process::Stdio;
use std::time::{Duration, Instant};

use flm_core::codec;
use flm_serve::audit;
use flm_serve::client::{Client, ClientError};
use flm_serve::frame::{Frame, DEFAULT_MAX_BODY_BYTES};
use flm_serve::query::{self, Theorem};
use flm_serve::rpc::{RefuteParams, Request, Response, StatsReport};
use flm_serve::server::ServeConfig;
use flm_serve::store::{self, CertStore};
use flm_sim::runcache::RunKey;
use flm_sim::RunPolicy;

use crate::gen::{self, ColdStream, HotStream, Query};
use crate::proc::{self, mean, median, percentile, ratio, sorted, timed, us, Reaper};
use crate::{Ctx, Report, SETUP_BATCH};

/// Client connections (and client threads): at most `nproc` = 2.
const CONNECTIONS: usize = 2;
/// Untimed load before the timed phase, which fills the memory tier.
const WARMUP_S: f64 = 2.0;
/// Requests of connection 0 the traced run replays in-process.
const REPLAY: usize = 20_000;
/// Store lookups of absent keys timed by the hot traced run.
const MISS_PROBES: u64 = 1_000;
/// Pings timed for the socket round-trip floor.
const PINGS: usize = 2_000;

/// What one connection saw in the timed phase.
#[derive(Default)]
struct ConnLog {
    /// (completion second, latency) of each answered request.
    done: Vec<(f64, f64)>,
    /// Latency by family, in [`Theorem::ALL`] order.
    by_family: [Vec<f64>; 8],
    ok: u64,
    failures: Vec<String>,
    /// Working-set rank → the bytes first served for it.
    served: HashMap<usize, Vec<u8>>,
    /// Ranks in send order (capped), for the traced replay.
    order: Vec<usize>,
}

/// What the check of one distinct certificate measured.
struct Checked {
    theorem: Theorem,
    refute_us: f64,
    audit_us: f64,
    decode_us: f64,
    encode_us: f64,
}

struct Server {
    reaper: Reaper,
    addr: String,
}

/// What one server start cost.
struct Setup {
    /// CPU time of the server process from spawn to its first answer.
    cpu_s: f64,
    /// Spawn to the first answered Ping.
    wall_s: f64,
}

fn start_server(ctx: &Ctx, store_dir: &Path) -> Result<(Server, Setup), String> {
    let port_file = ctx.work.join("port");
    let _ = fs::remove_file(&port_file);
    let err_log = fs::File::create(ctx.work.join("flm-serve.err"))
        .map_err(|e| format!("creating the server log: {e}"))?;
    let start = Instant::now();
    let child = ctx
        .bin("flm-serve")
        .args(["--addr", "127.0.0.1:0", "--workers", "2"])
        // The default 4096-request connection budget would answer the
        // long-lived load connections with typed errors.
        .args(["--max-requests", "1000000000"])
        .arg("--store-dir")
        .arg(store_dir)
        .arg("--port-file")
        .arg(&port_file)
        .stdout(Stdio::null())
        .stderr(err_log)
        .spawn()
        .map_err(|e| format!("spawning flm-serve: {e}"))?;
    let mut reaper = Reaper(child);
    let deadline = start + Duration::from_secs(30);
    let addr = loop {
        if let Ok(text) = fs::read_to_string(&port_file) {
            break text.trim().to_owned();
        }
        if let Ok(Some(status)) = reaper.0.try_wait() {
            return Err(format!("flm-serve exited during start-up ({status})"));
        }
        if Instant::now() > deadline {
            return Err("flm-serve wrote no port file within 30 s".into());
        }
        std::thread::sleep(Duration::from_micros(50));
    };
    loop {
        match Client::connect(addr.as_str()).and_then(|mut c| c.ping(b"", 0)) {
            Ok(_) => break,
            Err(e) if Instant::now() > deadline => {
                return Err(format!("flm-serve at {addr} never answered a ping: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_micros(50)),
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = proc::cpu_s(reaper.0.id()).ok_or("cannot read the server's CPU time")?;
    Ok((Server { reaper, addr }, Setup { cpu_s, wall_s }))
}

fn stats(addr: &str) -> Result<StatsReport, String> {
    Client::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("Stats RPC: {e}"))
}

/// Writes the certificates of the hot working set into `dir`, two
/// threads; returns the time of each `CertStore::store` call, in us.
fn fill_store(dir: &Path, set: &[Query], policy: RunPolicy) -> Result<Vec<f64>, String> {
    let store = CertStore::open(dir).map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|t| {
                let store = &store;
                scope.spawn(move || -> Result<Vec<f64>, String> {
                    let mut writes = Vec::new();
                    for q in set.iter().skip(t).step_by(CONNECTIONS) {
                        let bytes = q.refute(policy).map_err(|e| format!("{q:?}: {e}"))?;
                        let key = q.key(&policy);
                        writes.push(timed(|| store.store(&key, &bytes)).1);
                    }
                    Ok(writes)
                })
            })
            .collect();
        let mut writes = Vec::new();
        for h in handles {
            writes.extend(h.join().expect("store filler panicked")?);
        }
        Ok(writes)
    })
}

/// One load connection's state, kept across the warm-up and timed phases.
struct Conn {
    hot: HotStream,
    client: Option<Client>,
}

/// Runs every connection closed-loop (send, wait for the answer, repeat)
/// on its own thread until `deadline`.
fn drive(
    conns: &mut [Conn],
    addr: &str,
    hot_set: &[Query],
    (start, deadline): (Instant, Instant),
) -> Vec<ConnLog> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                scope.spawn(move || drive_connection(conn, addr, hot_set, (start, deadline)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection panicked"))
            .collect()
    })
}

fn drive_connection(
    conn: &mut Conn,
    addr: &str,
    hot_set: &[Query],
    (start, deadline): (Instant, Instant),
) -> ConnLog {
    let mut log = ConnLog::default();
    while Instant::now() < deadline {
        let rank = conn.hot.next_rank();
        let q = &hot_set[rank];
        if log.order.len() < REPLAY {
            log.order.push(rank);
        }
        let c = match conn.client.as_mut() {
            Some(c) => c,
            None => match Client::connect(addr) {
                Ok(c) => conn.client.insert(c),
                Err(e) => {
                    log.failures.push(format!("connect: {e}"));
                    continue;
                }
            },
        };
        let sent = Instant::now();
        let answer = c.refute(
            q.theorem.name(),
            Some(&q.protocol),
            None,
            gen::F as u32,
            None,
        );
        let latency = us(sent.elapsed());
        match answer {
            Ok(bytes) => {
                log.done
                    .push(((sent - start).as_secs_f64() + latency / 1e6, latency));
                log.by_family[gen::family_index(q.theorem)].push(latency);
                match log.served.get(&rank) {
                    Some(first) if *first != bytes => {
                        log.failures.push(format!("{q:?}: answers differ"));
                        continue;
                    }
                    Some(_) => {}
                    None => {
                        log.served.insert(rank, bytes);
                    }
                }
                log.ok += 1;
            }
            Err(e) => {
                if matches!(e, ClientError::Io(_) | ClientError::Protocol(_)) {
                    conn.client = None;
                }
                log.failures.push(format!("{q:?}: {e}"));
            }
        }
    }
    log
}

/// Re-derives every distinct served certificate in-process (two threads)
/// and checks the served bytes against it and against the audit.
fn check_served(
    served: &[(Query, Vec<u8>)],
    policy: RunPolicy,
    report: &mut Report,
) -> Vec<Checked> {
    let results: Vec<Vec<Result<Checked, String>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|t| {
                scope.spawn(move || {
                    served
                        .iter()
                        .skip(t)
                        .step_by(CONNECTIONS)
                        .map(|(q, bytes)| check_one(q, bytes, policy))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker panicked"))
            .collect()
    });
    let mut checked = Vec::new();
    for r in results.into_iter().flatten() {
        report.attempted += 1;
        match r {
            Ok(c) => checked.push(c),
            Err(problem) => report.fail(problem),
        }
    }
    checked
}

fn check_one(q: &Query, served: &[u8], policy: RunPolicy) -> Result<Checked, String> {
    let (expected, refute_us) = timed(|| q.refute(policy));
    let expected = expected.map_err(|e| format!("{q:?}: in-process refute failed: {e}"))?;
    if expected != served {
        return Err(format!("{q:?}: served bytes differ from refute_to_bytes"));
    }
    let (audit, audit_us) = timed(|| audit::audit_bytes(&expected, false));
    if audit.exit_code != audit::EXIT_VERIFIED {
        return Err(format!("{q:?}: audit exit code {}", audit.exit_code));
    }
    let (decoded, decode_us) = timed(|| codec::decode_any(&expected));
    let decoded = decoded.map_err(|e| format!("{q:?}: decode: {e}"))?;
    let (again, encode_us) = timed(|| decoded.to_bytes());
    if again != expected {
        return Err(format!("{q:?}: re-encoding is not canonical"));
    }
    Ok(Checked {
        theorem: q.theorem,
        refute_us,
        audit_us,
        decode_us,
        encode_us,
    })
}

/// Per-request layer times of the in-process replay, in microseconds.
#[derive(Default)]
struct Replay {
    decode: Vec<f64>,
    key: Vec<f64>,
    lookup_mem: Vec<f64>,
    lookup_disk: Vec<f64>,
    encode: Vec<f64>,
}

/// Replays refutes through decode → key → store lookup → encode, the
/// public functions the server's refute path calls, against `store`.
fn replay(
    store: &CertStore,
    requests: &[&Query],
    policy: RunPolicy,
    report: &mut Report,
) -> Replay {
    let mut r = Replay::default();
    for q in requests {
        let wire = Request::Refute(RefuteParams {
            theorem: q.theorem.name().into(),
            protocol: Some(q.protocol.clone()),
            graph: None,
            f: gen::F as u32,
            policy: None,
        })
        .to_frame()
        .encode()
        .expect("a refute request frames");
        let (request, t_decode) = timed(|| {
            let (frame, _) = Frame::decode(&wire, DEFAULT_MAX_BODY_BYTES).ok()?;
            Request::from_frame(&frame).ok()
        });
        let Some(Request::Refute(p)) = request else {
            report.fail(format!("{q:?}: replayed request did not decode"));
            continue;
        };
        let (key, t_key) = timed(|| -> Option<RunKey> {
            let theorem = Theorem::parse(&p.theorem).ok()?;
            let protocol = p.protocol.as_deref();
            let f = p.f as usize;
            Some(query::canonical_query_key(
                theorem,
                protocol,
                p.graph.as_ref(),
                f,
                &policy,
            ))
        });
        let key = key.expect("generated theorem names parse");
        let before = store.stats();
        let (hit, t_lookup) = timed(|| store.lookup(&key));
        let after = store.stats();
        let Some(bytes) = hit else {
            report.fail(format!("{q:?}: replayed lookup missed"));
            continue;
        };
        if after.mem_hits > before.mem_hits {
            r.lookup_mem.push(t_lookup);
        } else {
            r.lookup_disk.push(t_lookup);
        }
        r.decode.push(t_decode);
        r.key.push(t_key);
        let response = Response::Certificate { bytes };
        r.encode.push(timed(|| response.to_frame().encode()).1);
    }
    r
}

/// Starts the server `SETUP_BATCH` times over `store_dir`, adding each
/// start's CPU and wall time to `setup`; returns the last server.
fn setup_batch(
    ctx: &Ctx,
    store_dir: &Path,
    setup: &mut (Vec<f64>, Vec<f64>),
) -> Result<Server, String> {
    let mut server = None;
    for _ in 0..SETUP_BATCH {
        drop(server.take());
        let (s, start) = start_server(ctx, store_dir)?;
        setup.0.push(start.cpu_s);
        setup.1.push(start.wall_s);
        server = Some(s);
    }
    Ok(server.expect("a set-up batch starts the server at least once"))
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let policy = ServeConfig::default().policy_ceiling;
    let store_dir = ctx.work.join("store");
    let hot_set = gen::hot_working_set(ctx.seed);
    let (filled, t) = timed(|| fill_store(&store_dir, &hot_set, policy));
    let fill_writes = filled?;
    println!(
        "working set {} keys over 8 families (store memory tier {} entries); store written in {:.2} s",
        hot_set.len(),
        store::default_memory_capacity(),
        t / 1e6
    );
    proc::flush_disk();

    // Set-up: a batch of server starts now (the last one serves), and one
    // each after the timed phase and after the correctness check.
    let mut setup = (Vec::new(), Vec::new());
    let server = setup_batch(ctx, &store_dir, &mut setup)?;

    // Warm-up, then the timed phase, on the same connections and streams.
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|index| Conn {
            hot: HotStream::new(ctx.seed, index),
            client: None,
        })
        .collect();
    let addr = server.addr.as_str();
    let warm_start = Instant::now();
    let warm_end = warm_start + Duration::from_secs_f64(WARMUP_S);
    let warm_logs = drive(&mut conns, addr, &hot_set, (warm_start, warm_end));
    let server_pid = server.reaper.0.id();
    let before = stats(addr)?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let windows = proc::Windows::count(ctx.seconds);
    let (logs, cpu_marks) = std::thread::scope(|scope| {
        let width = ctx.seconds / windows as f64;
        let sampler = scope.spawn(move || proc::sample_cpu(server_pid, start, windows, width));
        let logs = drive(&mut conns, addr, &hot_set, (start, deadline));
        (logs, sampler.join().expect("CPU sampler panicked"))
    });
    let cpu_marks = cpu_marks.ok_or("cannot read the server's CPU time")?;
    let elapsed = start.elapsed().as_secs_f64();
    let after = stats(addr)?;

    let mut ping_us = Vec::new();
    if ctx.trace {
        let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
        for _ in 0..PINGS {
            let t = Instant::now();
            c.ping(b"", 0).map_err(|e| format!("ping: {e}"))?;
            ping_us.push(us(t.elapsed()));
        }
    }
    let peak_kb = proc::vm_hwm_kb(server_pid).unwrap_or(0);
    drop(conns);
    drop(server);
    drop(setup_batch(ctx, &store_dir, &mut setup)?);

    // End-to-end metrics.
    let mut done = Vec::new();
    let mut ok = 0;
    let mut served: HashMap<usize, Vec<u8>> = HashMap::new();
    for (i, log) in warm_logs.iter().chain(&logs).enumerate() {
        if i >= warm_logs.len() {
            done.extend_from_slice(&log.done);
            ok += log.ok;
        }
        report.attempted += log.ok + log.failures.len() as u64;
        for problem in &log.failures {
            report.fail(problem.clone());
        }
        for (rank, bytes) in &log.served {
            match served.get(rank) {
                Some(first) if first != bytes => report.fail(format!(
                    "rank {rank}: connections were served different bytes"
                )),
                Some(_) => {}
                None => {
                    served.insert(*rank, bytes.clone());
                }
            }
        }
    }
    let latencies = sorted(done.iter().map(|&(_, l)| l).collect());
    let windows = proc::Windows::new(&done, ctx.seconds);
    let keep = windows.fastest_quarter();
    let fast = sorted(
        keep.iter()
            .flat_map(|&i| windows.latencies[i].iter().copied())
            .collect(),
    );
    let fast_rps = fast.len() as f64 / (keep.len() as f64 * windows.width);
    let fast_cpu_s: f64 = keep.iter().map(|&i| cpu_marks[i + 1] - cpu_marks[i]).sum();
    let families: Vec<String> = Theorem::ALL
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let v: Vec<f64> = logs
                .iter()
                .flat_map(|l| l.by_family[i].iter().copied())
                .collect();
            format!("{t} {} x {:.0}/{:.0}", v.len(), median(&v), mean(&v))
        })
        .collect();
    println!(
        "latency by family (count x median/mean us): {}",
        families.join(", ")
    );
    report.set("e2e.ok_rps", fast_rps);
    report.set("p50_us", percentile(&fast, 0.5));
    report.set("e2e.p90_us", percentile(&fast, 0.9));
    report.set("peak_rss_mb", peak_kb as f64 / 1024.0);
    report.set("cpu_us_per_op", ratio(fast_cpu_s * 1e6, fast.len() as f64));

    // Store accounting for the timed phase.
    let d = |f: fn(&StatsReport) -> u64| f(&after) - f(&before);
    let (mem, disk, misses) = (
        d(|s| s.store_mem_hits),
        d(|s| s.store_disk_hits),
        d(|s| s.store_misses),
    );
    println!(
        "timed phase: {ok} answers in {elapsed:.2} s over {CONNECTIONS} connections: {:.1}/s, \
         p50 {:.1} us, p90 {:.1} us; fastest quarter {} samples; \
         store {mem} memory hits, {disk} disk hits, {misses} misses, {} stored, {} distinct keys",
        ok as f64 / elapsed,
        percentile(&latencies, 0.5),
        percentile(&latencies, 0.9),
        fast.len(),
        d(|s| s.store_stores),
        served.len()
    );
    report.attempted += 1;
    if misses != 0 || mem == 0 || disk == 0 {
        report.fail(format!(
            "serve_hot wants 0 store misses and both memory and disk hits; saw {misses} misses, \
             {mem} memory hits, {disk} disk hits"
        ));
    }

    // Correctness: every distinct certificate served, checked outside the
    // timing.
    let mut served: Vec<(usize, Vec<u8>)> = served.into_iter().collect();
    served.sort_by_key(|(rank, _)| *rank);
    let served: Vec<(Query, Vec<u8>)> = served
        .into_iter()
        .map(|(rank, bytes)| (hot_set[rank].clone(), bytes))
        .collect();
    let checked = check_served(&served, policy, &mut report);
    drop(setup_batch(ctx, &store_dir, &mut setup)?);
    report.set("setup_s", median(&setup.0));
    println!(
        "set-up: {} server starts in 3 batches, median {:.2} ms of CPU, {:.2} ms from spawn to first Ping answer",
        setup.0.len(),
        median(&setup.0) * 1e3,
        median(&setup.1) * 1e3
    );
    if !ctx.trace {
        return Ok(report);
    }

    // Traced run: per-layer metrics.
    report.set("rpc.p99_us", percentile(&latencies, 0.99));
    report.set("net.ping_us", median(&ping_us));
    report.set(
        "server.shed",
        d(|s| s.requests_shed + s.connections_shed) as f64,
    );
    // Every answer is a store hit, so the server runs no refuter and its
    // run cache is never consulted: this reads 0 by design.
    let (cache_hits, cache_misses) = (d(|s| s.cache_hits), d(|s| s.cache_misses));
    report.set(
        "runcache.hit_ratio",
        ratio(cache_hits as f64, (cache_hits + cache_misses) as f64),
    );
    let mem_ratio = ratio(mem as f64, (mem + disk + misses) as f64);
    report.set("store.mem_hit_ratio", mem_ratio);
    for t in Theorem::ALL {
        let v: Vec<f64> = checked
            .iter()
            .filter(|c| c.theorem == t)
            .map(|c| c.refute_us)
            .collect();
        report.set(REFUTE_METRICS[gen::family_index(t)], mean(&v));
    }
    let of = |f: fn(&Checked) -> f64| mean(&checked.iter().map(f).collect::<Vec<_>>());
    report.set("audit.audit_us", of(|c| c.audit_us));
    report.set("codec.decode_us", of(|c| c.decode_us));
    report.set("codec.encode_us", of(|c| c.encode_us));

    let store = CertStore::open(&store_dir).map_err(|e| e.to_string())?;
    let requests: Vec<&Query> = logs[0].order.iter().map(|&rank| &hot_set[rank]).collect();
    let r = replay(&store, &requests, policy, &mut report);
    report.set("frame.decode_us", mean(&r.decode));
    report.set("rpc.encode_us", mean(&r.encode));
    report.set("query.key_us", mean(&r.key));
    report.set("store.lookup_mem_us", mean(&r.lookup_mem));
    report.set("store.lookup_disk_us", mean(&r.lookup_disk));
    // The workload never misses or writes: time those store paths on the
    // same directory, with fresh keys and the set-up's writes.
    let cold = ColdStream::new(ctx.seed);
    let misses_us: Vec<f64> = (0..MISS_PROBES)
        .map(|i| {
            let key = cold.query(i).key(&policy);
            let (hit, t) = timed(|| store.lookup(&key));
            if hit.is_some() {
                report.fail(format!("cold key {i} hit the hot store"));
            }
            t
        })
        .collect();
    report.set("store.lookup_miss_us", mean(&misses_us));
    report.set("store.write_us", mean(&fill_writes));

    // Layer accounting: what one request costs inside the layers, against
    // what the client saw.
    let sum = mean(&r.decode)
        + mean(&r.key)
        + mem_ratio * mean(&r.lookup_mem)
        + (1.0 - mem_ratio) * mean(&r.lookup_disk)
        + mean(&r.encode);
    let e2e = mean(&latencies);
    report.set("layers.e2e_us", e2e);
    report.set("layers.sum_us", sum);
    report.set("layers.residual_us", e2e - sum);
    report.set("server.overhead_us", e2e - sum);
    println!(
        "layer accounting: end-to-end mean {e2e:.1} us = layers {sum:.1} us + residual {:.1} us \
         (traced run's own ok_rps {fast_rps:.1}, p50 {:.1} us; replayed {} requests)",
        e2e - sum,
        percentile(&fast, 0.5),
        requests.len()
    );
    Ok(report)
}

/// `query.refute_us.<family>`, in [`Theorem::ALL`] order.
pub const REFUTE_METRICS: [&str; 8] = [
    "query.refute_us.ba-nodes",
    "query.refute_us.ba-connectivity",
    "query.refute_us.weak-agreement",
    "query.refute_us.firing-squad",
    "query.refute_us.simple-approx",
    "query.refute_us.eps-delta-gamma",
    "query.refute_us.clock-sync",
    "query.refute_us.flp-async",
];
