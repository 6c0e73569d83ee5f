//! Whole-run memoization for deterministic systems.
//!
//! The model's determinism axiom — a system has exactly one behavior — is
//! what makes the refuters sound, and it is also a perf lever: a run's
//! behavior is a pure function of the graph, the devices installed (named
//! through the protocol registry), the wiring, the inputs, the run policy,
//! and the horizon. This module caches behaviors keyed by a canonical byte
//! encoding of exactly those ingredients, so re-executions that are
//! byte-identical to a run already performed (chain links sharing one
//! covering run, `flm-audit --timeline` replaying the link it just
//! verified, the clock refuter's verify pass re-running its own ring) cost
//! a lookup instead of a simulation.
//!
//! # Soundness
//!
//! A cache hit returns the behavior of *some* earlier run whose full
//! canonical key — every input of the run function — was byte-identical
//! (fingerprints are only an index; the stored key bytes are compared on
//! every probe, so FNV collisions cannot alias two different runs). Under
//! the determinism axiom that earlier behavior *is* this run's behavior.
//! The one representation choice is that devices enter the key by their
//! protocol's registry name rather than by code identity; that is the
//! registry's standing contract (one name, one device family), the same
//! contract `flm-audit` already relies on to rebuild devices from a
//! certificate's protocol string.
//!
//! Every run-level check downstream of a memoized run (scenario matching,
//! degradation accounting, decision comparison) still executes on every
//! call — the cache replaces the simulation, never the checking.
//!
//! # Controls
//!
//! * [`bypass`] disables the cache for the current thread while a closure
//!   runs — the differential tests and the cold legs of the bench suites
//!   use it.
//! * The store is bounded ([`MAX_ENTRIES`] entries and [`MAX_VALUE_BYTES`])
//!   with least-recently-used eviction, so long sweeps cannot grow memory without bound while
//!   hot behaviors (a covering run shared by every link of a chain) stay
//!   resident.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::async_sched::AsyncRun;
use crate::behavior::SystemBehavior;
use crate::clock::ClockBehavior;

/// Maximum number of cached behaviors before LRU eviction.
pub const MAX_ENTRIES: usize = 512;

/// Maximum total approximate value bytes held before LRU eviction.
pub const MAX_VALUE_BYTES: u64 = 64 << 20;

/// A canonical cache key: the full encoded run ingredients plus their
/// FNV-1a fingerprint (an index, not a proof of equality — probes compare
/// the full bytes).
#[derive(Debug, Clone)]
pub struct RunKey {
    bytes: Vec<u8>,
    fp: u64,
}

impl RunKey {
    /// Builds a key from a domain tag (which run function this is, e.g.
    /// `"cover"` or `"link"`) and the canonical encoding of every input of
    /// that run function.
    pub fn new(domain: &str, payload: Vec<u8>) -> RunKey {
        let mut bytes = Vec::with_capacity(domain.len() + 1 + payload.len());
        bytes.extend_from_slice(domain.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&payload);
        let fp = fingerprint(&bytes);
        RunKey { bytes, fp }
    }

    /// Reconstitutes a key from its full canonical bytes (the exact slice
    /// [`RunKey::bytes`] returned, e.g. read back from a durable sidecar or
    /// received over the wire). The fingerprint is recomputed, so a key
    /// round-trips byte-for-byte: `RunKey::from_bytes(k.bytes().to_vec())`
    /// is `k`.
    pub fn from_bytes(bytes: Vec<u8>) -> RunKey {
        let fp = fingerprint(&bytes);
        RunKey { bytes, fp }
    }

    /// The FNV-1a fingerprint of the key bytes.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// The full canonical key bytes (domain tag, NUL, payload). Durable
    /// caches persist these next to each entry so a probe can compare the
    /// whole key, exactly as the in-memory buckets do — fingerprints index,
    /// bytes decide.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// FNV-1a, 64-bit: tiny, dependency-free, and good enough as a bucket
/// index when full keys are compared on every probe.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Clone)]
enum CachedValue {
    Discrete(Arc<SystemBehavior>),
    Clock(Arc<ClockBehavior>),
    Async(Arc<AsyncRun>),
}

struct Entry {
    seq: u64,
    key: Vec<u8>,
    value: CachedValue,
    approx_bytes: u64,
}

#[derive(Default)]
struct Store {
    buckets: HashMap<u64, Vec<Entry>>,
    /// Recency queue of `(fingerprint, seq)` pairs. A hit re-stamps the
    /// entry's `seq` and pushes a fresh pair, so pairs whose `seq` no longer
    /// matches any entry are stale and skipped during eviction — that skip
    /// is exactly what turns the FIFO queue into an LRU.
    order: VecDeque<(u64, u64)>,
    next_seq: u64,
    entry_count: usize,
    total_bytes: u64,
}

impl Store {
    fn lookup_touch(&mut self, key: &RunKey) -> Option<(CachedValue, u64)> {
        let bucket = self.buckets.get_mut(&key.fp)?;
        let entry = bucket.iter_mut().find(|e| e.key == key.bytes)?;
        let seq = self.next_seq;
        self.next_seq += 1;
        entry.seq = seq;
        let found = (entry.value.clone(), entry.approx_bytes);
        self.order.push_back((key.fp, seq));
        // Hits grow `order` with stale pairs; compact occasionally so it
        // stays proportional to the live entry count.
        if self.order.len() > self.entry_count * 2 + 64 {
            let live: std::collections::HashSet<(u64, u64)> = self
                .buckets
                .iter()
                .flat_map(|(&fp, b)| b.iter().map(move |e| (fp, e.seq)))
                .collect();
            self.order.retain(|pair| live.contains(pair));
        }
        Some(found)
    }

    fn insert(&mut self, key: &RunKey, value: CachedValue, approx_bytes: u64) {
        let bucket = self.buckets.entry(key.fp).or_default();
        if bucket.iter().any(|e| e.key == key.bytes) {
            return; // another thread raced us to the same run
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        bucket.push(Entry {
            seq,
            key: key.bytes.clone(),
            value,
            approx_bytes,
        });
        self.order.push_back((key.fp, seq));
        self.entry_count += 1;
        self.total_bytes += approx_bytes;
        while self.entry_count > MAX_ENTRIES || self.total_bytes > MAX_VALUE_BYTES {
            let Some((fp, old_seq)) = self.order.pop_front() else {
                break;
            };
            if let Some(bucket) = self.buckets.get_mut(&fp) {
                if let Some(i) = bucket.iter().position(|e| e.seq == old_seq) {
                    let evicted = bucket.swap_remove(i);
                    self.total_bytes -= evicted.approx_bytes;
                    self.entry_count -= 1;
                    EVICTIONS.fetch_add(1, Ordering::Relaxed);
                }
                if bucket.is_empty() {
                    self.buckets.remove(&fp);
                }
            }
        }
    }
}

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Store::default()))
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);
static BYTES_SAVED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static BYPASS: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the cache bypassed on *this thread* (nested scopes
/// included): lookups miss, results are not stored, and no counters move.
/// The reference mode for differential tests and cold-path benches.
pub fn bypass<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            BYPASS.with(|c| c.set(self.0));
        }
    }
    let previous = BYPASS.with(|c| c.replace(true));
    let _restore = Restore(previous);
    f()
}

/// True when the current thread is inside a [`bypass`] scope.
pub fn is_bypassed() -> bool {
    BYPASS.with(Cell::get)
}

/// Returns the cached behavior for `key`, or executes `run`, stores its
/// success, and returns it. The error path is never cached.
///
/// # Errors
///
/// Whatever `run` returns; a cache hit never errors.
pub fn memoize_discrete<E>(
    key: &RunKey,
    run: impl FnOnce() -> Result<SystemBehavior, E>,
) -> Result<Arc<SystemBehavior>, E> {
    if is_bypassed() {
        return run().map(Arc::new);
    }
    {
        let mut store = store().lock().expect("run cache poisoned");
        if let Some((CachedValue::Discrete(b), approx)) = store.lookup_touch(key) {
            HITS.fetch_add(1, Ordering::Relaxed);
            BYTES_SAVED.fetch_add(approx, Ordering::Relaxed);
            return Ok(b);
        }
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let behavior = Arc::new(run()?);
    let approx = behavior.approx_bytes();
    store().lock().expect("run cache poisoned").insert(
        key,
        CachedValue::Discrete(Arc::clone(&behavior)),
        approx,
    );
    Ok(behavior)
}

/// [`memoize_discrete`] for clock-system runs.
///
/// # Errors
///
/// Whatever `run` returns; a cache hit never errors.
pub fn memoize_clock<E>(
    key: &RunKey,
    run: impl FnOnce() -> Result<ClockBehavior, E>,
) -> Result<Arc<ClockBehavior>, E> {
    if is_bypassed() {
        return run().map(Arc::new);
    }
    {
        let mut store = store().lock().expect("run cache poisoned");
        if let Some((CachedValue::Clock(b), approx)) = store.lookup_touch(key) {
            HITS.fetch_add(1, Ordering::Relaxed);
            BYTES_SAVED.fetch_add(approx, Ordering::Relaxed);
            return Ok(b);
        }
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let behavior = Arc::new(run()?);
    let approx = behavior.approx_bytes();
    store().lock().expect("run cache poisoned").insert(
        key,
        CachedValue::Clock(Arc::clone(&behavior)),
        approx,
    );
    Ok(behavior)
}

/// [`memoize_discrete`] for asynchronous runs. Callers key these under the
/// dedicated `"async"` domain (see [`RunKey::new`]), so an asynchronous
/// run can never alias a synchronous one even for an identical assembly:
/// the domain tag is part of the compared key bytes, and the cached value
/// type differs besides.
///
/// # Errors
///
/// Whatever `run` returns; a cache hit never errors.
pub fn memoize_async<E>(
    key: &RunKey,
    run: impl FnOnce() -> Result<AsyncRun, E>,
) -> Result<Arc<AsyncRun>, E> {
    if is_bypassed() {
        return run().map(Arc::new);
    }
    {
        let mut store = store().lock().expect("run cache poisoned");
        if let Some((CachedValue::Async(b), approx)) = store.lookup_touch(key) {
            HITS.fetch_add(1, Ordering::Relaxed);
            BYTES_SAVED.fetch_add(approx, Ordering::Relaxed);
            return Ok(b);
        }
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let outcome = Arc::new(run()?);
    let approx = outcome.approx_bytes();
    store().lock().expect("run cache poisoned").insert(
        key,
        CachedValue::Async(Arc::clone(&outcome)),
        approx,
    );
    Ok(outcome)
}

/// Drops every cached behavior (counters are kept; see [`reset_stats`]).
pub fn clear() {
    let mut store = store().lock().expect("run cache poisoned");
    *store = Store::default();
}

/// Zeroes the hit/miss/eviction/bytes-saved counters.
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    EVICTIONS.store(0, Ordering::Relaxed);
    BYTES_SAVED.store(0, Ordering::Relaxed);
}

/// A snapshot of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a stored behavior.
    pub hits: u64,
    /// Lookups that fell through to a real run.
    pub misses: u64,
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
    /// Approximate behavior bytes served from the cache instead of being
    /// rebuilt by a run.
    pub bytes_saved: u64,
    /// Behaviors currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Reads the current counters and entry count.
pub fn stats() -> CacheStats {
    let entries = store().lock().expect("run cache poisoned").entry_count;
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        bytes_saved: BYTES_SAVED.load(Ordering::Relaxed),
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Input;
    use crate::{RunPolicy, System};
    use flm_graph::builders;

    fn run_triangle(seed: u64) -> Result<SystemBehavior, crate::system::SystemError> {
        let g = builders::triangle();
        let mut sys = System::new(g.clone());
        for v in g.nodes() {
            sys.assign(
                v,
                Box::new(crate::devices::TableDevice::new(seed ^ u64::from(v.0), 6)),
                Input::Bool(v.0 == 0),
            );
        }
        sys.run_contained(5, &RunPolicy::default())
    }

    /// The store is process-global and the tests below run on parallel
    /// threads; serialize the ones that clear or count it so one test's
    /// `clear()` or inserts cannot race another's assertions.
    static STORE_LOCK: Mutex<()> = Mutex::new(());

    fn store_lock() -> std::sync::MutexGuard<'static, ()> {
        STORE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn key(tag: u64) -> RunKey {
        let mut w = crate::wire::Writer::new();
        w.u64(tag);
        RunKey::new("test", w.finish())
    }

    #[test]
    fn run_key_round_trips_through_its_bytes() {
        let original = key(42);
        let back = RunKey::from_bytes(original.bytes().to_vec());
        assert_eq!(back.bytes(), original.bytes());
        assert_eq!(back.fingerprint(), original.fingerprint());
    }

    #[test]
    fn fingerprint_is_fnv1a() {
        // Known FNV-1a vectors.
        assert_eq!(fingerprint(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn hit_returns_the_same_arc_and_counts() {
        let _guard = store_lock();
        clear();
        let k = key(0xA11CE);
        let first = memoize_discrete(&k, || run_triangle(1)).unwrap();
        let again = memoize_discrete::<&str>(&k, || panic!("must not re-run")).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        let s = stats();
        assert!(s.hits >= 1 && s.bytes_saved > 0);
    }

    #[test]
    fn different_keys_do_not_alias() {
        let _guard = store_lock();
        clear();
        let a = memoize_discrete(&key(1), || run_triangle(1)).unwrap();
        let b = memoize_discrete(&key(2), || run_triangle(2)).unwrap();
        assert_ne!(a.edges(), b.edges());
    }

    #[test]
    fn colliding_fingerprints_fall_back_to_full_key_compare() {
        let _guard = store_lock();
        clear();
        // Two keys forced into the same bucket: identical fingerprint field
        // can only arise from distinct bytes via a real FNV collision, which
        // we simulate by inserting both and checking the probe compares
        // bytes, not fingerprints (same domain, different payload ⇒ distinct
        // bytes; equal-fp is the worst case the byte compare must survive).
        let k1 = key(7);
        let k2 = key(8);
        let a = memoize_discrete(&k1, || run_triangle(7)).unwrap();
        let b = memoize_discrete(&k2, || run_triangle(8)).unwrap();
        assert_ne!(a.edges(), b.edges());
        let a2 = memoize_discrete::<&str>(&k1, || panic!("hit expected")).unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        drop(b);
    }

    #[test]
    fn bypass_scope_never_touches_the_store() {
        let _guard = store_lock();
        clear();
        reset_stats();
        let k = key(0xB1);
        let _ = bypass(|| memoize_discrete(&k, || run_triangle(3))).unwrap();
        assert!(!is_bypassed());
        assert_eq!(stats().entries, 0);
        // A later cached call must re-run (no entry was stored).
        let _ = memoize_discrete(&k, || run_triangle(3)).unwrap();
        assert_eq!(stats().entries, 1);
    }

    #[test]
    fn error_paths_are_not_cached() {
        let _guard = store_lock();
        clear();
        let k = key(0xE0);
        let r: Result<_, &str> = memoize_discrete(&k, || Err("boom"));
        assert!(r.is_err());
        assert_eq!(stats().entries, 0);
    }

    #[test]
    fn lru_eviction_bounds_the_store() {
        let _guard = store_lock();
        clear();
        for i in 0..(MAX_ENTRIES as u64 + 40) {
            let _ = memoize_discrete(&key(0x1_0000 + i), || run_triangle(1)).unwrap();
        }
        let s = stats();
        assert!(s.entries <= MAX_ENTRIES);
        assert!(s.evictions >= 40);
        clear();
    }

    #[test]
    fn recently_hit_entries_survive_eviction_pressure() {
        // Direct `Store` test (no global state): fill to the cap, touch the
        // oldest entry, then push past the cap — the refreshed recency must
        // protect it while strictly older untouched entries go first.
        let mut store = Store::default();
        let value = CachedValue::Discrete(Arc::new(run_triangle(1).unwrap()));
        let hot = key(0x2_0000);
        store.insert(&hot, value.clone(), 1);
        for i in 1..MAX_ENTRIES as u64 {
            store.insert(&key(0x2_0000 + i), value.clone(), 1);
        }
        assert!(store.lookup_touch(&hot).is_some());
        for i in 0..32 {
            store.insert(&key(0x3_0000 + i), value.clone(), 1);
        }
        assert!(store.lookup_touch(&hot).is_some(), "hot entry was evicted");
        assert!(store.entry_count <= MAX_ENTRIES);
    }

    #[test]
    fn cached_behavior_is_byte_identical_to_a_fresh_run() {
        let _guard = store_lock();
        clear();
        let k = key(0xD1FF);
        let cached = memoize_discrete(&k, || run_triangle(9)).unwrap();
        let fresh = run_triangle(9).unwrap();
        assert_eq!(cached.edges(), fresh.edges());
        for v in fresh.graph().nodes() {
            assert_eq!(cached.node(v), fresh.node(v));
        }
    }
}
