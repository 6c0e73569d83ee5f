//! Seeded input generators. Every request the program under test sees is
//! produced here from the run's `--seed`; the same seed gives the same
//! inputs, a different seed a different key set.

use flm_serve::query::{self, QueryError, Theorem};
use flm_sim::runcache::RunKey;
use flm_sim::RunPolicy;

/// Fault budget every generated query names (graphs are the family
/// defaults, so the protocol name alone keeps keys distinct).
pub const F: usize = 1;

/// Size of the `serve_hot` working set: 4× the store's default
/// 256-entry memory tier, so answers split between memory and disk.
pub const HOT_WORKING_SET: usize = 1024;

/// Zipf exponent of `serve_hot` popularity over the working set.
pub const ZIPF_S: f64 = 1.0;

/// SplitMix64: tiny, seedable, and good enough to draw workloads from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One refutation query as the benchmark sends it: a family and a
/// protocol name whose parameter makes the canonical key distinct
/// (`Table(seed)`, or `AveragingClockSync(period=p)` for clock sync).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    /// Theorem family.
    pub theorem: Theorem,
    /// Registry protocol name.
    pub protocol: String,
}

impl Query {
    /// The query of `theorem` with parameter `param`. Distinct parameters
    /// give distinct names as long as they lie within a window of 4·10⁶.
    pub fn new(theorem: Theorem, param: u64) -> Query {
        let protocol = if theorem == Theorem::ClockSync {
            format!(
                "AveragingClockSync(period={}.{:06})",
                2 + param % 4,
                (param / 4) % 1_000_000
            )
        } else {
            format!("Table({param})")
        };
        Query { theorem, protocol }
    }

    /// The server's canonical store key for this query under `policy`.
    pub fn key(&self, policy: &RunPolicy) -> RunKey {
        query::canonical_query_key(self.theorem, Some(&self.protocol), None, F, policy)
    }

    /// The reference certificate: the one refutation code path.
    pub fn refute(&self, policy: RunPolicy) -> Result<Vec<u8>, QueryError> {
        query::refute_to_bytes(self.theorem, Some(&self.protocol), None, F, policy)
    }
}

/// Index of `theorem` in [`Theorem::ALL`].
pub fn family_index(theorem: Theorem) -> usize {
    Theorem::ALL
        .iter()
        .position(|&t| t == theorem)
        .expect("every theorem is in Theorem::ALL")
}

/// The `serve_hot` working set in popularity order (index = Zipf rank).
/// Rank `r` belongs to family `Theorem::ALL[r % 8]` on every seed, so the
/// per-family share of traffic is fixed; the seed picks the parameters.
pub fn hot_working_set(seed: u64) -> Vec<Query> {
    let base = Rng::new(seed, 1).next_u64() >> 24;
    (0..HOT_WORKING_SET)
        .map(|rank| {
            let theorem = Theorem::ALL[rank % Theorem::ALL.len()];
            Query::new(theorem, base + (rank / Theorem::ALL.len()) as u64)
        })
        .collect()
}

/// Zipf-distributed ranks over the hot working set, one stream per
/// connection.
#[derive(Debug, Clone)]
pub struct HotStream {
    rng: Rng,
    cdf: Vec<f64>,
}

impl HotStream {
    /// Connection `conn`'s request stream for `seed`.
    pub fn new(seed: u64, conn: usize) -> HotStream {
        let weights: Vec<f64> = (0..HOT_WORKING_SET)
            .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        HotStream {
            rng: Rng::new(seed, 100 + conn as u64),
            cdf,
        }
    }

    /// The next working-set index to request.
    pub fn next_rank(&mut self) -> usize {
        let u = self.rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(HOT_WORKING_SET - 1)
    }
}

/// A stream of queries no earlier request of the stream has named and
/// that lie outside the hot working set: the store lookups `serve_hot`
/// times for misses. Families take turns in [`Theorem::ALL`] order.
#[derive(Debug, Clone)]
pub struct ColdStream {
    base: u64,
}

impl ColdStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> ColdStream {
        ColdStream {
            base: Rng::new(seed, 2).next_u64() >> 24,
        }
    }

    /// Query `i` of the stream.
    pub fn query(&self, i: u64) -> Query {
        let theorem = Theorem::ALL[(i % Theorem::ALL.len() as u64) as usize];
        Query::new(theorem, self.base + i)
    }
}

/// The `campaign_audit` seed list: `count` campaign seeds drawn from the
/// run seed.
pub fn campaign_seeds(seed: u64, count: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, 3);
    (0..count).map(|_| rng.next_u64() >> 16).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn policy() -> RunPolicy {
        flm_serve::server::ServeConfig::default().policy_ceiling
    }

    fn hot_requests(seed: u64, conn: usize, n: usize) -> Vec<usize> {
        let mut stream = HotStream::new(seed, conn);
        (0..n).map(|_| stream.next_rank()).collect()
    }

    #[test]
    fn same_seed_same_streams() {
        assert_eq!(hot_working_set(7), hot_working_set(7));
        assert_eq!(hot_requests(7, 0, 5000), hot_requests(7, 0, 5000));
        let (a, b) = (ColdStream::new(7), ColdStream::new(7));
        for i in 0..5000 {
            assert_eq!(a.query(i), b.query(i));
        }
        assert_eq!(campaign_seeds(7, 4), campaign_seeds(7, 4));
    }

    #[test]
    fn different_seed_different_keys() {
        let p = policy();
        let keys = |set: Vec<Query>| -> HashSet<Vec<u8>> {
            set.iter().map(|q| q.key(&p).bytes().to_vec()).collect()
        };
        let (a, b) = (keys(hot_working_set(1)), keys(hot_working_set(2)));
        assert_eq!(a.len(), HOT_WORKING_SET);
        assert!(a.is_disjoint(&b));
        let cold = |seed| -> HashSet<Vec<u8>> {
            let s = ColdStream::new(seed);
            (0..1000)
                .map(|i| s.query(i).key(&p).bytes().to_vec())
                .collect()
        };
        assert!(cold(1).is_disjoint(&cold(2)));
        assert_ne!(hot_requests(1, 0, 100), hot_requests(2, 0, 100));
        assert_ne!(hot_requests(1, 0, 100), hot_requests(1, 1, 100));
        assert_ne!(campaign_seeds(1, 4), campaign_seeds(2, 4));
    }

    #[test]
    fn cold_stream_never_repeats_a_canonical_key() {
        let p = policy();
        let stream = ColdStream::new(42);
        let mut seen: HashSet<Vec<u8>> = hot_working_set(42)
            .iter()
            .map(|q| q.key(&p).bytes().to_vec())
            .collect();
        for i in 0..50_000 {
            assert!(
                seen.insert(stream.query(i).key(&p).bytes().to_vec()),
                "request {i} repeats a key or names one of the hot set"
            );
        }
    }

    #[test]
    fn hot_set_spans_every_family_and_overflows_the_memory_tier() {
        let set = hot_working_set(5);
        for t in Theorem::ALL {
            assert_eq!(
                set.iter().filter(|q| q.theorem == t).count(),
                HOT_WORKING_SET / 8
            );
        }
        assert_eq!(HOT_WORKING_SET, 4 * flm_serve::store::MEMORY_ENTRIES);
        // Zipf: the head is hot, yet the tail beyond the memory tier is
        // still requested.
        let ranks = hot_requests(5, 0, 20_000);
        assert!(ranks.iter().filter(|&&r| r == 0).count() > 1000);
        assert!(ranks.iter().any(|&r| r >= 4 * HOT_WORKING_SET / 5));
    }

    #[test]
    fn generated_queries_refute() {
        let p = policy();
        let stream = ColdStream::new(9);
        for i in 0..64 {
            let q = stream.query(i);
            if q.theorem != Theorem::FlpAsync {
                q.refute(p).unwrap_or_else(|e| panic!("{q:?}: {e}"));
            }
        }
    }
}
