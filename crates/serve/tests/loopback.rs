//! End-to-end loopback tests: an in-process server driven by real TCP
//! clients.
//!
//! The load-bearing assertion is *byte identity*: a certificate served over
//! the wire is exactly the bytes the library path produces for the same
//! query, for all eight theorem families (the asynchronous FLP family
//! included), even under concurrent clients.
//! That is what makes `flm-serve` a transport for the proofs rather than a
//! second implementation of them.

use std::time::{Duration, Instant};

use flm_serve::audit::{audit_bytes, EXIT_VERIFIED};
use flm_serve::client::{Client, ClientError};
use flm_serve::query::{canonical_query_key, refute_to_bytes, Theorem};
use flm_serve::rpc::Verdict;
use flm_serve::server::{ServeConfig, Server};
use flm_serve::store::MEMORY_ENTRIES;
use flm_sim::RunPolicy;

/// ≥8 simultaneous clients, each sweeping all 8 theorem families: every
/// wire certificate is byte-identical to the library path, re-verifies over
/// the Verify RPC, and audits clean over the Audit RPC.
#[test]
fn concurrent_clients_get_byte_identical_certificates_across_all_families() {
    const CLIENTS: usize = 8;
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    // The library-path reference bytes, computed once up front.
    let reference: Vec<(Theorem, Vec<u8>)> = Theorem::ALL
        .into_iter()
        .map(|t| {
            let bytes = refute_to_bytes(t, None, None, 1, RunPolicy::default())
                .unwrap_or_else(|e| panic!("library refutation for {t} failed: {e}"));
            (t, bytes)
        })
        .collect();

    std::thread::scope(|scope| {
        for client_index in 0..CLIENTS {
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // Stagger the family order per client so different families
                // are in flight simultaneously.
                for i in 0..reference.len() {
                    let (theorem, expected) = &reference[(i + client_index) % reference.len()];
                    let wire = client
                        .refute(theorem.name(), None, None, 1, None)
                        .unwrap_or_else(|e| panic!("wire refutation for {theorem} failed: {e}"));
                    assert_eq!(
                        &wire, expected,
                        "wire certificate for {theorem} differs from the library path"
                    );
                    let (verdict, _) = client.verify(&wire).unwrap();
                    assert_eq!(verdict, Verdict::Verified, "verify RPC for {theorem}");
                    let (exit_code, report, diagnostics) = client.audit(&wire).unwrap();
                    assert_eq!(
                        exit_code, EXIT_VERIFIED,
                        "audit RPC for {theorem}: {diagnostics}"
                    );
                    assert!(report.contains("VERIFIED"), "audit report for {theorem}");
                }
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.requests_refute, (CLIENTS * Theorem::ALL.len()) as u64);
    assert_eq!(stats.requests_verify, (CLIENTS * Theorem::ALL.len()) as u64);
    assert_eq!(stats.requests_audit, (CLIENTS * Theorem::ALL.len()) as u64);
    assert_eq!(stats.connections_shed, 0, "default config must not shed");
    server.shutdown();
}

/// Wire certificates also satisfy the *local* audit entry point — the same
/// function behind the `flm-audit` binary — closing the loop with PR 3's
/// certificate tooling.
#[test]
fn wire_certificates_pass_local_audit() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for theorem in Theorem::ALL {
        let wire = client.refute(theorem.name(), None, None, 1, None).unwrap();
        let outcome = audit_bytes(&wire, false);
        assert_eq!(
            outcome.exit_code, EXIT_VERIFIED,
            "local audit of wire cert for {theorem}: {}",
            outcome.diagnostics
        );
    }
    server.shutdown();
}

/// A saturated worker pool sheds *requests* with a typed `Overloaded`
/// answer — the connection stays open, inline requests keep serving (so a
/// saturated server remains observable), and worker-bound traffic recovers
/// once the load clears.
#[test]
fn saturated_pool_sheds_with_a_typed_answer_then_recovers() {
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_depth: 0,
        // Let the ping hold long enough to provably saturate the one worker.
        max_hold_ms: 10_000,
        read_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    // Warm one key before the pool saturates.
    let warm = refute_to_bytes(Theorem::BaNodes, None, None, 1, RunPolicy::default()).unwrap();
    let mut warm_client = Client::connect(addr).unwrap();
    assert_eq!(
        warm_client.refute("ba-nodes", None, None, 1, None).unwrap(),
        warm
    );

    // Occupy the only worker with a long-held ping.
    let holder = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.ping(b"hold", 2_000).unwrap()
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.busy_workers() == 0 {
        assert!(Instant::now() < deadline, "worker never became busy");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The pool is provably saturated (1 busy worker, queue depth 0): the
    // next worker-bound request (a held ping) must be answered with a typed
    // Overloaded frame.
    let mut shed_client = Client::connect(addr).unwrap();
    shed_client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match shed_client.ping(b"shed me", 1) {
        Err(ClientError::Overloaded { detail, .. }) => {
            assert!(detail.contains("busy"), "detail: {detail}");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // A memory-warm refute is answered on the reactor, so saturation never
    // sheds it: the same bytes come back. A cold key needs a worker and is
    // shed like any other worker-bound request.
    assert_eq!(
        shed_client.refute("ba-nodes", None, None, 1, None).unwrap(),
        warm
    );
    match shed_client.refute("weak-agreement", None, None, 1, None) {
        Err(ClientError::Overloaded { detail, .. }) => {
            assert!(detail.contains("busy"), "detail: {detail}");
        }
        other => panic!("expected Overloaded for a cold key, got {other:?}"),
    }

    // Request-level shedding keeps the connection open, and reactor-inline
    // requests still serve while the pool is saturated: the same client
    // answers a zero-hold ping and a stats snapshot.
    assert_eq!(shed_client.ping(b"inline", 0).unwrap(), b"inline");
    let stats = shed_client.stats().unwrap();
    assert_eq!(stats.requests_shed, 2, "stats: {stats:?}");
    assert_eq!(stats.connections_shed, 0, "stats: {stats:?}");
    // A shed refute is not an answered one, and touched no store tier.
    assert_eq!(stats.requests_refute, 2, "stats: {stats:?}");
    assert_eq!(
        (stats.store_misses, stats.store_mem_hits),
        (1, 1),
        "stats: {stats:?}"
    );

    // The held ping still completes: shedding one request never disturbs an
    // in-flight one.
    assert_eq!(holder.join().unwrap(), b"hold");

    // And once the worker frees up, worker-bound requests are served again.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.busy_workers() != 0 {
        assert!(Instant::now() < deadline, "worker never freed");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(shed_client.ping(b"back", 1).unwrap(), b"back");
    server.shutdown();
}

/// Pipelining: many frames written back to back on one connection, mixing
/// reactor-inline requests (zero-hold pings, stats) with worker-bound ones
/// (held pings), come back as one response per request in strict request
/// order — even though inline responses are produced before earlier
/// worker-bound ones finish.
#[test]
fn pipelined_requests_answer_in_request_order() {
    use flm_serve::frame::{read_frame, DEFAULT_MAX_BODY_BYTES};
    use flm_serve::rpc::{Request, Response};
    use std::io::Write as _;

    let server = Server::start(ServeConfig::default()).unwrap();
    let mut sock = std::net::TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    const BATCH: u32 = 12;
    let mut blob = Vec::new();
    for i in 0..BATCH {
        let request = if i == 5 {
            Request::Stats
        } else {
            Request::Ping {
                payload: i.to_le_bytes().to_vec(),
                // Every third request routes through the worker pool; the
                // rest answer inline on the reactor.
                hold_ms: u32::from(i % 3 == 0),
            }
        };
        blob.extend_from_slice(&request.to_frame().encode().unwrap());
    }
    sock.write_all(&blob).unwrap();

    for i in 0..BATCH {
        let frame = read_frame(&mut sock, DEFAULT_MAX_BODY_BYTES)
            .unwrap_or_else(|e| panic!("response {i}: {e}"));
        let response = Response::from_frame(&frame).unwrap();
        if i == 5 {
            assert!(matches!(response, Response::Stats(_)), "response {i}");
        } else {
            match response {
                Response::Pong { payload } => {
                    assert_eq!(
                        payload,
                        i.to_le_bytes().to_vec(),
                        "response {i} out of order"
                    );
                }
                other => panic!("response {i}: expected Pong, got {other:?}"),
            }
        }
    }
    let stats = server.stats();
    assert_eq!(stats.requests_ping, u64::from(BATCH) - 1);
    server.shutdown();
}

/// One reactor holds many simultaneous sockets: a wave of concurrent
/// connections, each pinging once, all come back answered with zero
/// transport errors and zero sheds.
#[test]
fn ping_wave_serves_many_simultaneous_connections() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let report = flm_serve::loadgen::ping_wave(&server.local_addr().to_string(), 64);
    assert_eq!(report.ok, 64, "{report}");
    assert_eq!(report.overloaded, 0, "{report}");
    assert_eq!(report.transport_errors, 0, "{report}");
    let stats = server.stats();
    assert_eq!(stats.connections_shed, 0);
    assert_eq!(stats.requests_ping, 64);
    server.shutdown();
}

/// The Stats RPC reports the counters the server actually incremented, and
/// a repeated identical refutation is a memory hit in the answer cache even
/// without a store directory.
#[test]
fn stats_rpc_reflects_served_requests() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let first = client.refute("ba-nodes", None, None, 1, None).unwrap();
    let second = client.refute("ba-nodes", None, None, 1, None).unwrap();
    assert_eq!(
        first, second,
        "identical queries must serve identical bytes"
    );
    client.verify(&first).unwrap();

    let stats = client.stats().unwrap();
    assert_eq!(stats.requests_refute, 2);
    assert_eq!(stats.requests_verify, 1);
    assert_eq!(stats.requests_stats, 1);
    assert_eq!(stats.connections_accepted, 1);
    assert_eq!(stats.connections_shed, 0);
    assert_eq!(stats.requests_shed, 0);
    // The run cache is process-global (other tests in this binary also
    // feed it), so only a monotone claim is safe: traffic exists.
    assert!(stats.cache_hits + stats.cache_misses > 0);
    // One simulation, one byte lookup, nothing persisted (no directory).
    assert_eq!(stats.store_misses, 1);
    assert_eq!(stats.store_mem_hits, 1);
    assert_eq!(stats.store_stores, 0);
    server.shutdown();
}

/// Every answered refute counts in exactly one store tier, whether the
/// reactor answered it from memory or a worker from disk or a simulation,
/// and each `flp-async` request counts once.
#[test]
fn every_answered_refute_counts_in_exactly_one_store_tier() {
    let dir = std::env::temp_dir().join(format!("flm-loopback-tiers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeConfig {
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let protocol = |i: usize| format!("Table({i})");

    // More distinct keys than the memory tier holds: the first few are
    // evicted to disk.
    let distinct = MEMORY_ENTRIES + 8;
    let mut served = Vec::new();
    for i in 0..distinct {
        let bytes = client
            .refute("ba-nodes", Some(&protocol(i)), None, 1, None)
            .unwrap();
        served.push(bytes);
    }
    let async_cert = client.refute("flp-async", None, None, 1, None).unwrap();
    // Repeats: the newest keys and the async one from memory, then the
    // evicted oldest keys from disk. Each is the bytes first served.
    let repeats: Vec<usize> = (distinct - 4..distinct).chain(0..4).collect();
    for &i in &repeats {
        let bytes = client
            .refute("ba-nodes", Some(&protocol(i)), None, 1, None)
            .unwrap();
        assert_eq!(bytes, served[i], "key {i}");
    }
    assert_eq!(
        client.refute("flp-async", None, None, 1, None).unwrap(),
        async_cert
    );

    let stats = client.stats().unwrap();
    let sent = (distinct + 1 + repeats.len() + 1) as u64;
    assert_eq!(stats.requests_refute, sent, "stats: {stats:?}");
    assert_eq!(
        stats.store_mem_hits + stats.store_disk_hits + stats.store_misses,
        stats.requests_refute,
        "stats: {stats:?}"
    );
    assert_eq!(
        (
            stats.store_misses,
            stats.store_mem_hits,
            stats.store_disk_hits
        ),
        (distinct as u64 + 1, 5, 4),
        "stats: {stats:?}"
    );
    assert_eq!(stats.async_refutes, 2, "stats: {stats:?}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A server without a store directory still answers FetchCert from its
/// answer cache, but refuses PutCert: the shipping side deletes its copy
/// after a successful ship, so the receiver must keep it durably.
#[test]
fn storeless_server_fetches_from_memory_but_refuses_put_cert() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let served = client.refute("ba-nodes", None, None, 1, None).unwrap();
    let key = canonical_query_key(Theorem::BaNodes, None, None, 1, &RunPolicy::default());
    assert_eq!(
        client.fetch_cert(key.bytes()).unwrap(),
        Some(served.clone())
    );

    match client.put_cert(key.bytes(), &served) {
        Err(ClientError::ErrorResponse { code, detail }) => {
            assert_eq!(code, flm_serve::rpc::ErrorCode::BadRequest);
            assert!(detail.contains("no store directory"), "detail: {detail}");
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
    server.shutdown();
}

/// A connection that exhausts its request budget is told so with a typed
/// error, and a fresh connection keeps working.
#[test]
fn connection_budget_is_a_typed_error() {
    let server = Server::start(ServeConfig {
        max_requests_per_conn: 3,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for _ in 0..3 {
        client.ping(b"x", 0).unwrap();
    }
    match client.ping(b"one too many", 0) {
        Err(ClientError::ErrorResponse { code, detail }) => {
            assert_eq!(code, flm_serve::rpc::ErrorCode::ConnectionBudget);
            assert!(detail.contains("reconnect"), "detail: {detail}");
        }
        other => panic!("expected ConnectionBudget, got {other:?}"),
    }
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    assert_eq!(fresh.ping(b"fresh", 0).unwrap(), b"fresh");
    server.shutdown();
}

/// Refute requests with explicit protocol/graph/f round-trip, and bad
/// requests come back as typed errors rather than closed sockets.
#[test]
fn explicit_query_parameters_and_typed_failures() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Explicit parameters matching the ba-connectivity defaults.
    let graph = flm_graph::builders::cycle(4);
    let wire = client
        .refute(
            "ba-connectivity",
            Some("NaiveMajority"),
            Some(&graph),
            1,
            None,
        )
        .unwrap();
    let expected = refute_to_bytes(
        Theorem::BaConnectivity,
        Some("NaiveMajority"),
        Some(&graph),
        1,
        RunPolicy::default(),
    )
    .unwrap();
    assert_eq!(wire, expected);

    // Unknown theorem and unresolvable protocol are BadRequest.
    for (theorem, protocol) in [("no-such-theorem", None), ("ba-nodes", Some("Nope(f=1)"))] {
        match client.refute(theorem, protocol, None, 1, None) {
            Err(ClientError::ErrorResponse { code, .. }) => {
                assert_eq!(code, flm_serve::rpc::ErrorCode::BadRequest);
            }
            other => panic!("expected BadRequest for {theorem}/{protocol:?}, got {other:?}"),
        }
    }
    // The connection survived both rejections.
    assert_eq!(client.ping(b"alive", 0).unwrap(), b"alive");
    server.shutdown();
}
