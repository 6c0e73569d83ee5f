//! End-to-end sharded-cluster tests: three in-process shard servers plus a
//! router, driven over real loopback TCP.
//!
//! The load-bearing assertions, in order of importance:
//!
//! 1. **Byte identity through the router** — a certificate fetched through
//!    the router is exactly the bytes the library path produces for the
//!    same query, for all seven theorem families. Sharding is a transport
//!    arrangement; it must be invisible in the bytes.
//! 2. **Deterministic routing** — the same key lands on the same shard
//!    across router restarts, because ownership is a pure function of
//!    `(shard count, key bytes)`, not of sockets or state.
//! 3. **Typed degradation** — off-owner requests answer `WrongShard` with
//!    the owner's address; a dead shard answers `ShardDown` for exactly
//!    its key range while the other ranges keep serving.
//! 4. **Rebalance ships sound certificates** — a store full of misplaced
//!    entries ends up on the owners, and every shipped certificate still
//!    audits at exit 0.

use std::net::TcpListener;
use std::path::PathBuf;
use std::time::Duration;

use flm_serve::audit::{audit_bytes, EXIT_VERIFIED};
use flm_serve::client::{Client, ClientError};
use flm_serve::query::{canonical_query_key, refute_to_bytes, Theorem};
use flm_serve::router::{Router, RouterConfig};
use flm_serve::server::{ServeConfig, Server, ShardRole};
use flm_serve::shard::{self, ShardMap};
use flm_serve::store;
use flm_sim::RunPolicy;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "flm-shard-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Reserves `n` loopback ports: bind ephemeral, note, drop. The tiny race
/// (something else grabbing the port before the shard rebinds) is accepted
/// for tests; the shard map needs concrete addresses before any shard is
/// up.
fn reserve_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect()
}

/// A 3-shard cluster plus router, each shard with its own store directory.
struct Cluster {
    map: ShardMap,
    dirs: Vec<PathBuf>,
    shards: Vec<Option<Server>>,
    router: Router,
}

impl Cluster {
    fn start(tag: &str) -> Cluster {
        let ports = reserve_ports(3);
        let addrs: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
        let map = ShardMap::new(addrs).unwrap();
        let dirs: Vec<PathBuf> = (0..3).map(|i| temp_dir(&format!("{tag}-s{i}"))).collect();
        let shards = (0..3u32)
            .map(|id| Some(start_shard(&map, id, &dirs[id as usize])))
            .collect();
        let router = Router::start(RouterConfig::new("127.0.0.1:0", map.clone())).unwrap();
        Cluster {
            map,
            dirs,
            shards,
            router,
        }
    }

    fn client(&self) -> Client {
        let mut client = Client::connect(self.router.local_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        client
    }

    fn shutdown(mut self) {
        for shard in self.shards.iter_mut().filter_map(Option::take) {
            shard.shutdown();
        }
        self.router.shutdown();
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn start_shard(map: &ShardMap, id: u32, dir: &std::path::Path) -> Server {
    Server::start(ServeConfig {
        addr: map.addr(id).to_owned(),
        workers: 2,
        store_dir: Some(dir.to_path_buf()),
        shard: Some(ShardRole {
            id,
            map: map.clone(),
        }),
        ..ServeConfig::default()
    })
    .unwrap()
}

/// The canonical default-policy store key for a family at f=1 — what the
/// shards index their stores by for the queries these tests issue.
fn default_key(theorem: Theorem) -> Vec<u8> {
    canonical_query_key(theorem, None, None, 1, &RunPolicy::default())
        .bytes()
        .to_vec()
}

#[test]
fn certificates_through_the_router_are_byte_identical_for_all_families() {
    let cluster = Cluster::start("bytes");
    let mut client = cluster.client();
    let mut owners_seen = std::collections::HashSet::new();
    for theorem in Theorem::ALL {
        let expected = refute_to_bytes(theorem, None, None, 1, RunPolicy::default()).unwrap();
        let via_router = client
            .refute(theorem.name(), None, None, 1, None)
            .unwrap_or_else(|e| panic!("{} through router: {e}", theorem.name()));
        assert_eq!(
            via_router,
            expected,
            "{} certificate differs through the router",
            theorem.name()
        );
        // And again from a *different* front connection: same bytes, and a
        // warm answer regardless of which connection asked.
        let mut second = cluster.client();
        assert_eq!(
            second.refute(theorem.name(), None, None, 1, None).unwrap(),
            expected
        );
        owners_seen.insert(cluster.map.owner_of_bytes(&default_key(theorem)));
    }
    // Sanity: the 7 families actually spread over more than one shard, or
    // this test exercises no routing at all.
    assert!(
        owners_seen.len() > 1,
        "all families landed on one shard: {owners_seen:?}"
    );
    cluster.shutdown();
}

#[test]
fn routing_is_deterministic_across_router_restarts() {
    let cluster = Cluster::start("determinism");
    // Warm one family through the first router and note who owns it.
    let theorem = Theorem::BaNodes;
    let key = default_key(theorem);
    let owner = cluster.map.owner_of_bytes(&key);
    let mut client = cluster.client();
    let bytes = client.refute(theorem.name(), None, None, 1, None).unwrap();
    let before = cluster.shards[owner as usize]
        .as_ref()
        .unwrap()
        .stats()
        .requests_refute;
    assert_eq!(before, 1, "the owner should have served the refutation");

    // A *second* router over the same map (fresh ephemeral front port —
    // addresses differ, topology bytes agree) must route the same key to
    // the same shard.
    let router2 = Router::start(RouterConfig::new("127.0.0.1:0", cluster.map.clone())).unwrap();
    let mut client2 = Client::connect(router2.local_addr()).unwrap();
    client2
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    assert_eq!(
        client2.refute(theorem.name(), None, None, 1, None).unwrap(),
        bytes
    );
    let after = cluster.shards[owner as usize]
        .as_ref()
        .unwrap()
        .stats()
        .requests_refute;
    assert_eq!(after, 2, "the same shard must own the key under router 2");
    router2.shutdown();
    cluster.shutdown();
}

#[test]
fn off_owner_requests_answer_typed_wrong_shard_with_the_owner_hint() {
    let cluster = Cluster::start("wrongshard");
    let theorem = Theorem::BaNodes;
    let key = default_key(theorem);
    let owner = cluster.map.owner_of_bytes(&key);
    let not_owner = (0..3u32).find(|&s| s != owner).unwrap();
    // Direct to a non-owner, bypassing the router.
    let mut direct = Client::connect(cluster.map.addr(not_owner)).unwrap();
    direct
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    match direct.refute(theorem.name(), None, None, 1, None) {
        Err(ClientError::WrongShard {
            owner: hinted,
            addr,
        }) => {
            assert_eq!(hinted, owner);
            assert_eq!(addr, cluster.map.addr(owner));
        }
        other => panic!("expected WrongShard, got {other:?}"),
    }
    // The rejection is counted and the shard never consulted any store tier
    // or simulated: ownership is checked before the memory lookup (the run
    // cache is process-global in this test binary, so the per-server store
    // counters are the isolation-safe signal).
    let stats = cluster.shards[not_owner as usize].as_ref().unwrap().stats();
    assert_eq!(stats.wrong_shard, 1);
    assert_eq!(
        stats.store_mem_hits + stats.store_disk_hits + stats.store_misses + stats.store_stores,
        0
    );
    cluster.shutdown();
}

#[test]
fn killing_one_shard_degrades_only_its_key_range() {
    let mut cluster = Cluster::start("degrade");
    let mut client = cluster.client();
    // Warm every family so the survivors can answer from their stores.
    for theorem in Theorem::ALL {
        client.refute(theorem.name(), None, None, 1, None).unwrap();
    }
    // Kill one shard that owns at least one family.
    let victim = cluster.map.owner_of_bytes(&default_key(Theorem::BaNodes));
    cluster.shards[victim as usize].take().unwrap().shutdown();
    // Give the router one read against the dead backend to notice.
    std::thread::sleep(Duration::from_millis(100));

    let mut degraded = 0u32;
    let mut served = 0u32;
    let mut client = cluster.client();
    for theorem in Theorem::ALL {
        let owner = cluster.map.owner_of_bytes(&default_key(theorem));
        match client.refute(theorem.name(), None, None, 1, None) {
            Ok(bytes) => {
                assert_ne!(
                    owner,
                    victim,
                    "{} is owned by the dead shard yet served",
                    theorem.name()
                );
                let expected =
                    refute_to_bytes(theorem, None, None, 1, RunPolicy::default()).unwrap();
                assert_eq!(bytes, expected);
                served += 1;
            }
            Err(ClientError::ShardDown { shard, .. }) => {
                assert_eq!(
                    shard,
                    victim,
                    "{} answered ShardDown for the wrong shard",
                    theorem.name()
                );
                assert_eq!(owner, victim);
                degraded += 1;
            }
            Err(other) => panic!("{}: neither served nor typed-down: {other}", theorem.name()),
        }
    }
    assert!(
        degraded >= 1,
        "the victim owned no family — pick a bigger victim"
    );
    assert!(served >= 1, "every range went down, not just the victim's");

    // Restart the victim on the same address: its range heals (the router
    // reconnects on its sweep; allow a few).
    cluster.shards[victim as usize] = Some(start_shard(
        &cluster.map,
        victim,
        &cluster.dirs[victim as usize],
    ));
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    let healed = loop {
        let mut probe = cluster.client();
        match probe.refute(Theorem::BaNodes.name(), None, None, 1, None) {
            Ok(bytes) => break Some(bytes),
            Err(ClientError::ShardDown { .. }) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(e) => panic!("healing probe failed hard: {e}"),
        }
    };
    let expected = refute_to_bytes(Theorem::BaNodes, None, None, 1, RunPolicy::default()).unwrap();
    assert_eq!(
        healed.unwrap(),
        expected,
        "healed answer must be byte-identical"
    );
    cluster.shutdown();
}

#[test]
fn rebalance_ships_misplaced_certificates_that_still_audit_clean() {
    // A "previous topology" store: every family's certificate piled into
    // one directory, as if a single unsharded server had been serving.
    let legacy_dir = temp_dir("rebalance-legacy");
    let legacy = store::CertStore::open(&legacy_dir).unwrap();
    let mut expected: Vec<(Theorem, Vec<u8>, Vec<u8>)> = Vec::new();
    for theorem in Theorem::ALL {
        let bytes = refute_to_bytes(theorem, None, None, 1, RunPolicy::default()).unwrap();
        let key = canonical_query_key(theorem, None, None, 1, &RunPolicy::default());
        legacy.store(&key, &bytes);
        expected.push((theorem, key.bytes().to_vec(), bytes));
    }

    let cluster = Cluster::start("rebalance");
    // Ship from the legacy directory as if it were shard 0's store.
    let report = shard::rebalance(&legacy_dir, &cluster.map, 0, true).unwrap();
    let families = Theorem::ALL.len() as u64;
    assert_eq!(report.examined, families, "{report}");
    let misplaced: u64 = expected
        .iter()
        .filter(|(_, key, _)| cluster.map.owner_of_bytes(key) != 0)
        .count() as u64;
    assert_eq!(report.shipped, misplaced, "{report}");
    assert_eq!(report.failed, 0, "{report}");
    assert_eq!(report.owned, families - misplaced, "{report}");
    assert_eq!(report.removed, misplaced, "{report}");

    // Every shipped certificate now sits in its owner's store, fetchable
    // and byte-identical — and still audits at exit 0.
    for (theorem, key, bytes) in &expected {
        let owner = cluster.map.owner_of_bytes(key);
        if owner == 0 {
            continue;
        }
        let mut direct = Client::connect(cluster.map.addr(owner)).unwrap();
        direct
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let fetched = direct
            .fetch_cert(key)
            .unwrap()
            .unwrap_or_else(|| panic!("{} missing from shard {owner}", theorem.name()));
        assert_eq!(&fetched, bytes, "{} shipped bytes differ", theorem.name());
        let audit = audit_bytes(&fetched, false);
        assert_eq!(
            audit.exit_code,
            EXIT_VERIFIED,
            "{} shipped cert failed audit: {}",
            theorem.name(),
            audit.diagnostics
        );
    }
    // Shipping to the wrong owner is refused, typed: pick a key owned by
    // some shard and ship it to a different one.
    let (_, key, bytes) = &expected[0];
    let owner = cluster.map.owner_of_bytes(key);
    let wrong = (0..3u32).find(|&s| s != owner).unwrap();
    let mut direct = Client::connect(cluster.map.addr(wrong)).unwrap();
    direct
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    match direct.put_cert(key, bytes) {
        Err(ClientError::WrongShard { owner: hinted, .. }) => assert_eq!(hinted, owner),
        other => panic!("expected WrongShard on misdirected put, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&legacy_dir);
    cluster.shutdown();
}

#[test]
fn peer_fetch_recovers_a_reassigned_key_without_resimulating() {
    // Simulate a topology change: warm a certificate into shard A's store
    // under a 3-shard map, then restart the *owning* shard with an empty
    // store while a peer still holds the bytes. The owner must serve the
    // certificate via FetchCert from the peer, not a fresh simulation —
    // observable through peer_fetches and byte identity.
    let cluster = Cluster::start("peerfetch");
    let theorem = Theorem::BaNodes;
    let key = default_key(theorem);
    let owner = cluster.map.owner_of_bytes(&key);
    let peer = (0..3u32).find(|&s| s != owner).unwrap();
    let expected = refute_to_bytes(theorem, None, None, 1, RunPolicy::default()).unwrap();

    // Plant the certificate in the *peer's* store directly (as if it owned
    // the key under an older topology).
    let peer_store = store::CertStore::open(&cluster.dirs[peer as usize]).unwrap();
    let run_key = canonical_query_key(theorem, None, None, 1, &RunPolicy::default());
    peer_store.store(&run_key, &expected);

    let mut client = cluster.client();
    let bytes = client.refute(theorem.name(), None, None, 1, None).unwrap();
    assert_eq!(bytes, expected);
    let stats = cluster.shards[owner as usize].as_ref().unwrap().stats();
    assert_eq!(
        stats.peer_fetches, 1,
        "the owner should have pulled from the peer: {stats}"
    );
    assert_eq!(stats.store_stores, 1, "the fetched cert must be adopted");
    cluster.shutdown();
}
