//! The soundness contract of the run-reuse engine: memoization and
//! adaptive dispatch are *performance* layers — neither may be observable
//! in the output. Every theorem family must produce byte-identical FLMC
//! certificate encodings whether its runs are served cold, warm from the
//! cache, with the cache bypassed, or bypassed under the inline-sequential
//! scheduler; and the simulator's kernel must produce byte-identical
//! behaviors to the reference delivery loop.

use flm_core::refute;
use flm_graph::builders;
use flm_protocols::{resolve, resolve_clock};
use flm_sim::clock::TimeFn;
use flm_sim::devices::TableDevice;
use flm_sim::{runcache, Input, System};

/// The run cache is process-global and several tests below clear it;
/// serialize them so one test's `clear()` cannot race another's assertions.
static CACHE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn cache_lock() -> std::sync::MutexGuard<'static, ()> {
    CACHE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Encodes one refutation run to FLMC bytes under each execution mode and
/// demands they match byte for byte.
fn assert_modes_agree(label: &str, run: impl Fn() -> Vec<u8>) {
    runcache::clear();
    let cold = run();
    let warm = run();
    let bypassed = runcache::bypass(&run);
    let sequential = flm_par::sequential(|| runcache::bypass(&run));
    for (mode, bytes) in [
        ("warm cache", &warm),
        ("cache bypassed", &bypassed),
        ("sequential + bypassed", &sequential),
    ] {
        assert_eq!(
            &cold, bytes,
            "{label}: {mode} certificate differs from the cold-cache one"
        );
    }
}

#[test]
fn discrete_theorem_families_encode_identically_across_modes() {
    let _guard = cache_lock();
    let tri = builders::triangle();
    let cyc4 = builders::cycle(4);

    let eig = resolve("EIG(f=1)").unwrap();
    assert_modes_agree("ba_nodes", || {
        refute::ba_nodes(&*eig, &tri, 1).unwrap().to_bytes()
    });

    let maj = resolve("NaiveMajority").unwrap();
    assert_modes_agree("ba_connectivity", || {
        refute::ba_connectivity(&*maj, &cyc4, 1).unwrap().to_bytes()
    });

    let weak = resolve("WeakViaBA(EIG(f=1))").unwrap();
    assert_modes_agree("weak_agreement", || {
        refute::weak_agreement(&*weak, &tri, 1).unwrap().to_bytes()
    });

    let squad = resolve("FiringSquadViaBA(f=1)").unwrap();
    assert_modes_agree("firing_squad", || {
        refute::firing_squad(&*squad, &tri, 1).unwrap().to_bytes()
    });

    let dlpsw = resolve("DLPSW(f=1, R=4)").unwrap();
    assert_modes_agree("simple_approx", || {
        refute::simple_approx(&*dlpsw, &tri, 1).unwrap().to_bytes()
    });
    assert_modes_agree("eps_delta_gamma", || {
        refute::eps_delta_gamma(&*dlpsw, &tri, 1, 0.25, 1.0, 1.0)
            .unwrap()
            .to_bytes()
    });
}

#[test]
fn clock_sync_encodes_identically_across_modes() {
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
    assert_modes_agree("clock_sync", || {
        refute::clock_sync(&*protocol, &tri, 1, &claim)
            .unwrap()
            .to_bytes()
    });
}

#[test]
fn fresh_certificates_verify_in_every_mode() {
    let _guard = cache_lock();
    // Verification replays through the same cache; a warm hit must verify
    // exactly like a cold re-execution.
    let eig = resolve("EIG(f=1)").unwrap();
    let tri = builders::triangle();
    runcache::clear();
    let cert = refute::ba_nodes(&*eig, &tri, 1).unwrap();
    cert.verify(&*eig).expect("warm verify");
    runcache::clear();
    cert.verify(&*eig).expect("cold verify");
    runcache::bypass(|| cert.verify(&*eig)).expect("bypassed verify");

    // A connectivity certificate rebuilds its violating link on a 4-cycle
    // base rather than the triangle: same contract.
    let maj = resolve("NaiveMajority").unwrap();
    let cyc4 = builders::cycle(4);
    runcache::clear();
    let cert = refute::ba_connectivity(&*maj, &cyc4, 1).unwrap();
    cert.verify(&*maj).expect("warm verify");
    runcache::clear();
    cert.verify(&*maj).expect("cold verify");
    runcache::bypass(|| cert.verify(&*maj)).expect("bypassed verify");
}

#[test]
fn fresh_runs_match_reference_runs() {
    let g = builders::complete(8);
    let build = |seed: u64| {
        let mut sys = System::new(g.clone());
        for v in g.nodes() {
            sys.assign(
                v,
                Box::new(TableDevice::new(seed ^ u64::from(v.0), 40)),
                Input::Bool(v.0.is_multiple_of(2)),
            );
        }
        sys
    };
    for seed in 0..12u64 {
        let fresh = build(seed).try_run(15).unwrap();
        let reference = build(seed).run_reference(15).unwrap();
        assert_eq!(
            format!("{fresh:?}"),
            format!("{reference:?}"),
            "seed {seed}: dense run diverged from the reference loop"
        );
    }
}

#[test]
fn cache_stats_observe_the_expected_hits() {
    let _guard = cache_lock();
    let eig = resolve("EIG(f=1)").unwrap();
    let tri = builders::triangle();
    runcache::clear();
    runcache::reset_stats();
    let cert = refute::ba_nodes(&*eig, &tri, 1).unwrap();
    let after_refute = runcache::stats();
    assert!(
        after_refute.misses >= 4,
        "cold refutation must miss for the cover and each chain link, got {after_refute:?}"
    );
    cert.verify(&*eig).unwrap();
    let after_verify = runcache::stats();
    assert!(
        after_verify.hits > after_refute.hits,
        "in-process verify must replay the violating link from the cache, got {after_verify:?}"
    );
}
