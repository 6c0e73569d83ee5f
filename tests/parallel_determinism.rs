//! The byte-determinism guarantee of the parallel refutation engine: every
//! refuter must produce *identical* certificates — same chain, same
//! decisions, same violation, same rendering — whether its transplants and
//! validity pins run on the `flm-par` worker pool or inline under
//! [`flm_par::sequential`]. The theorems are about executions, not
//! schedules; parallelism must be unobservable in the output.

use flm_core::refute;
use flm_graph::{builders, Graph, NodeId};
use flm_sim::device::{snapshot, Device, NodeCtx, Payload};
use flm_sim::devices::TableDevice;
use flm_sim::{Protocol, Tick};

/// A seed-indexed protocol family: deterministic table devices with the
/// same seed at every node, so covering-fiber copies agree.
struct Table {
    seed: u64,
}

impl Protocol for Table {
    fn name(&self) -> String {
        format!("table#{:x}", self.seed)
    }
    fn device(&self, _g: &Graph, _v: NodeId) -> Box<dyn Device> {
        Box::new(TableDevice::new(self.seed, 3))
    }
    fn horizon(&self, _g: &Graph) -> u32 {
        6
    }
}

/// Runs `refuter` once inline and once on the worker pool and demands the
/// rendered results match byte for byte.
fn assert_schedule_invariant<R: std::fmt::Debug>(label: &str, refuter: impl Fn() -> R) {
    let sequential = flm_par::sequential(&refuter);
    let parallel = refuter();
    assert!(
        !flm_par::is_sequential(),
        "sequential scope must not leak out of its closure"
    );
    assert_eq!(
        format!("{sequential:?}"),
        format!("{parallel:?}"),
        "{label}: parallel certificate differs from the sequential one"
    );
}

#[test]
fn certificates_are_schedule_invariant_across_seeds() {
    flm_prop::cases_par(12, 0x9A11E1, |rng| {
        let proto = Table { seed: rng.u64() };
        let tri = builders::triangle();
        assert_schedule_invariant("ba_nodes", || refute::ba_nodes(&proto, &tri, 1));
        assert_schedule_invariant("weak_agreement", || refute::weak_agreement(&proto, &tri, 1));
        assert_schedule_invariant("firing_squad", || refute::firing_squad(&proto, &tri, 1));
        let cyc = builders::cycle(4);
        assert_schedule_invariant("ba_connectivity", || {
            refute::ba_connectivity(&proto, &cyc, 1)
        });
    });
}

/// The approximate-agreement and clock-synchronization families, through
/// the one refutation path the server and `regen` share: their certificate
/// bytes must not depend on whether the pool ran the work. The run cache is
/// cleared before each leg so both legs simulate.
#[test]
fn approximate_and_clock_certificates_are_schedule_invariant() {
    use flm_serve::query::{refute_to_bytes, Theorem};
    for theorem in [
        Theorem::SimpleApprox,
        Theorem::EpsDeltaGamma,
        Theorem::ClockSync,
    ] {
        let refute = || {
            flm_sim::runcache::clear();
            refute_to_bytes(theorem, None, None, 1, flm_sim::RunPolicy::default())
                .unwrap_or_else(|e| panic!("{theorem}: {e}"))
        };
        let sequential = flm_par::sequential(refute);
        let parallel = refute();
        assert!(
            sequential == parallel,
            "{theorem}: parallel certificate bytes differ from the sequential ones"
        );
    }
}

#[test]
fn parallel_certificates_still_verify() {
    let proto = Table { seed: 0x51DE_CA11 };
    let cert = refute::ba_nodes(&proto, &builders::triangle(), 1).unwrap();
    cert.verify(&proto).unwrap();
    let seq = flm_par::sequential(|| refute::ba_nodes(&proto, &builders::triangle(), 1).unwrap());
    assert_eq!(format!("{cert:?}"), format!("{seq:?}"));
}

/// A weak-agreement candidate that stays silent and decides its own input
/// only at tick 8, forcing the ring refuter to unroll a cover with
/// `4·next_k(8) = 36 ≥ 32` nodes — a long-ring scaling smoke for the dense
/// message plane and the parallel pin runs.
struct LateDecider {
    input: bool,
    decided: Option<bool>,
}

impl Device for LateDecider {
    fn name(&self) -> &'static str {
        "LateDecider"
    }
    fn init(&mut self, ctx: &NodeCtx) {
        self.input = ctx.input.as_bool().unwrap_or(false);
    }
    fn step(&mut self, t: Tick, inbox: &[Option<Payload>]) -> Vec<Option<Payload>> {
        if t.0 == 8 && self.decided.is_none() {
            self.decided = Some(self.input);
        }
        inbox.iter().map(|_| None).collect()
    }
    fn snapshot(&self) -> Vec<u8> {
        match self.decided {
            Some(b) => snapshot::decided_bool(b, &[]),
            None => snapshot::undecided(&[]),
        }
    }
}

struct LateProtocol;

impl Protocol for LateProtocol {
    fn name(&self) -> String {
        "LateDecider".into()
    }
    fn device(&self, _g: &Graph, _v: NodeId) -> Box<dyn Device> {
        Box::new(LateDecider {
            input: false,
            decided: None,
        })
    }
    fn horizon(&self, _g: &Graph) -> u32 {
        10
    }
}

#[test]
fn long_ring_cover_is_schedule_invariant() {
    let tri = builders::triangle();
    let run = || refute::weak_agreement(&LateProtocol, &tri, 1);
    let cert = run().expect("late decider must be refuted");
    // Decision at tick 8 ⇒ k = 9 ⇒ a 36-node ring cover (≥ 32).
    assert!(
        cert.covering.contains("36-node ring"),
        "expected a 36-node ring cover, got: {}",
        cert.covering
    );
    cert.verify(&LateProtocol).unwrap();
    assert_schedule_invariant("weak_agreement long ring", run);
}
