//! The soundness contract of *rebuilding* a refutation's runs at the
//! certificate level: once the whole-run cache is emptied, re-refuting and
//! re-verifying must re-execute every run and land on the same FLMC bytes
//! as the first cold refutation. This is the re-execution path a
//! prefix-sharing layer would serve by forking stored mid-run snapshots;
//! the simulator keeps no such layer, so every rebuild here runs from tick
//! 0, and the test names keep the term "prefix forking" for that path.
//!
//! Complements `tests/runcache_determinism.rs`, which pins cold, warm,
//! bypassed and sequential modes without a rebuild in between.

use flm_core::refute;
use flm_graph::builders;
use flm_protocols::{resolve, resolve_clock};
use flm_sim::clock::TimeFn;
use flm_sim::runcache;

/// The run cache is process-global and every test below clears it;
/// serialize so one test's `clear()` cannot race another's assertions.
static CACHE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn cache_lock() -> std::sync::MutexGuard<'static, ()> {
    CACHE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Encodes one refutation under five execution modes and demands the FLMC
/// bytes match exactly. The load-bearing mode is `rebuilt`: the whole-run
/// cache is cleared after the cold and warm runs, so every run re-executes
/// in a process that has already simulated it once.
fn assert_rebuild_modes_agree(label: &str, run: impl Fn() -> Vec<u8>) {
    runcache::clear();
    let cold = run();
    let warm = run();
    runcache::clear();
    let rebuilt = run();
    runcache::clear();
    let bypassed = runcache::bypass(&run);
    let sequential = flm_par::sequential(|| runcache::bypass(&run));
    for (mode, bytes) in [
        ("whole-run warm", &warm),
        ("rebuilt", &rebuilt),
        ("bypassed", &bypassed),
        ("sequential + bypassed", &sequential),
    ] {
        assert_eq!(
            &cold, bytes,
            "{label}: {mode} certificate differs from the cold one"
        );
    }
}

#[test]
fn discrete_theorem_families_encode_identically_with_prefix_forking() {
    let _guard = cache_lock();
    let tri = builders::triangle();
    let cyc4 = builders::cycle(4);

    let eig = resolve("EIG(f=1)").unwrap();
    assert_rebuild_modes_agree("ba_nodes", || {
        refute::ba_nodes(&*eig, &tri, 1).unwrap().to_bytes()
    });

    let maj = resolve("NaiveMajority").unwrap();
    assert_rebuild_modes_agree("ba_connectivity", || {
        refute::ba_connectivity(&*maj, &cyc4, 1).unwrap().to_bytes()
    });

    let weak = resolve("WeakViaBA(EIG(f=1))").unwrap();
    assert_rebuild_modes_agree("weak_agreement", || {
        refute::weak_agreement(&*weak, &tri, 1).unwrap().to_bytes()
    });

    let squad = resolve("FiringSquadViaBA(f=1)").unwrap();
    assert_rebuild_modes_agree("firing_squad", || {
        refute::firing_squad(&*squad, &tri, 1).unwrap().to_bytes()
    });

    let dlpsw = resolve("DLPSW(f=1, R=4)").unwrap();
    assert_rebuild_modes_agree("simple_approx", || {
        refute::simple_approx(&*dlpsw, &tri, 1).unwrap().to_bytes()
    });
    assert_rebuild_modes_agree("eps_delta_gamma", || {
        refute::eps_delta_gamma(&*dlpsw, &tri, 1, 0.25, 1.0, 1.0)
            .unwrap()
            .to_bytes()
    });
}

#[test]
fn clock_sync_encodes_identically_with_prefix_forking() {
    // Clock refuters memoize through `memoize_clock`: dense real-time runs
    // have no tick-aligned prefix structure, so a rebuild re-executes the
    // whole run and must reproduce it exactly.
    let _guard = cache_lock();
    let protocol = resolve_clock("TrivialClockSync").unwrap();
    let claim = flm_core::problems::ClockSyncClaim {
        p: TimeFn::identity(),
        q: TimeFn::linear(2.0),
        l: TimeFn::identity(),
        u: TimeFn::affine(2.0, 8.0),
        alpha: 2.0,
        t_prime: 1.0,
    };
    let tri = builders::triangle();
    assert_rebuild_modes_agree("clock_sync", || {
        refute::clock_sync(&*protocol, &tri, 1, &claim)
            .unwrap()
            .to_bytes()
    });
}

#[test]
fn certificates_verify_after_prefix_forked_rebuilds() {
    let _guard = cache_lock();
    let maj = resolve("NaiveMajority").unwrap();
    let cyc4 = builders::cycle(4);
    runcache::clear();
    let cert = refute::ba_connectivity(&*maj, &cyc4, 1).unwrap();
    // Verify with the whole-run cache emptied: the rebuild re-executes the
    // violating link from scratch.
    runcache::clear();
    cert.verify(&*maj).expect("rebuilt verify");
    // Rebuilding twice in a row, and rebuilding on the inline-sequential
    // scheduler with the cache bypassed, must verify just the same.
    runcache::clear();
    cert.verify(&*maj).expect("second rebuilt verify");
    flm_par::sequential(|| runcache::bypass(|| cert.verify(&*maj)))
        .expect("sequential bypassed verify");
}
