//! Property-based tests for the simulator: the structural guarantees every
//! refutation rests on, quantified over randomized devices and graphs.

use std::collections::BTreeSet;

use flm_graph::covering::Covering;
use flm_graph::{builders, NodeId};
use flm_sim::behavior::EdgeBehavior;
use flm_sim::devices::TableDevice;
use flm_sim::replay::ReplayDevice;
use flm_sim::{Input, System};

fn build_table_system(g: &flm_graph::Graph, seed: u64, inputs_mask: u32) -> System {
    let mut sys = System::new(g.clone());
    for v in g.nodes() {
        sys.assign(
            v,
            Box::new(TableDevice::new(seed ^ u64::from(v.0), 4)),
            Input::Bool((inputs_mask >> (v.0 % 31)) & 1 == 1),
        );
    }
    sys
}

/// "A system has exactly one behavior": running twice gives identical
/// node and edge traces.
#[test]
fn runs_are_deterministic() {
    flm_prop::cases(48, 0x51A1, |rng| {
        let n = rng.usize(3..8);
        let extra = rng.usize(0..5);
        let gseed = rng.range_u64(0..200);
        let seed = rng.u64();
        let mask = rng.u32();
        let g = builders::random_connected(n, extra, gseed);
        let a = build_table_system(&g, seed, mask).run(6);
        let b = build_table_system(&g, seed, mask).run(6);
        for v in g.nodes() {
            assert_eq!(a.node(v), b.node(v));
        }
        assert_eq!(a.edges(), b.edges());
    });
}

/// Installing devices along a covering's lifts makes each fiber node's
/// behavior depend only on its base node — in the cyclic cover with
/// *uniform inputs*, all nodes of a fiber behave identically.
#[test]
fn fibers_behave_identically_under_uniform_inputs() {
    flm_prop::cases(48, 0x51A2, |rng| {
        let m = rng.usize(2..6);
        let seed = rng.u64();
        let input = rng.bool();
        let cov = Covering::cyclic_cover(3, m).unwrap();
        let mut sys = System::new(cov.cover().clone());
        for s in cov.cover().nodes() {
            // Device depends only on the *base* node identity.
            let dev = TableDevice::new(seed ^ u64::from(cov.project(s).0), 4);
            sys.assign_lifted(&cov, s, Box::new(dev), Input::Bool(input))
                .unwrap();
        }
        let b = sys.run(6);
        for base in cov.base().nodes() {
            let fiber = cov.fiber(base);
            let first = b.node(fiber[0]);
            for &s in &fiber[1..] {
                assert_eq!(first, b.node(s), "fiber of {base} diverged");
            }
        }
    });
}

/// The Fault axiom: a replay device reproduces arbitrary traces exactly,
/// in any system.
#[test]
fn replay_reproduces_arbitrary_traces() {
    flm_prop::cases(48, 0x51A3, |rng| {
        let n = rng.usize(3..7);
        let gseed = rng.range_u64(0..100);
        let seed = rng.u64();
        let g = builders::random_connected(n, 3, gseed);
        let node = NodeId((seed % n as u64) as u32);
        let horizon = 5u32;
        let traces: Vec<EdgeBehavior> = (0..g.degree(node))
            .map(|p| {
                (0..horizon as usize)
                    .map(|t| {
                        let h = flm_sim::auth::mix64(seed ^ ((p as u64) << 8) ^ t as u64);
                        (!h.is_multiple_of(4)).then(|| vec![h as u8].into())
                    })
                    .collect()
            })
            .collect();
        let mut sys = System::new(g.clone());
        sys.assign(
            node,
            Box::new(ReplayDevice::masquerade(traces.clone())),
            Input::None,
        );
        for v in g.nodes() {
            if v != node {
                sys.assign(
                    v,
                    Box::new(TableDevice::new(seed ^ u64::from(v.0), 3)),
                    Input::Bool(v.0 % 2 == 0),
                );
            }
        }
        let b = sys.run(horizon);
        for (p, w) in g.neighbors(node).enumerate() {
            assert_eq!(b.edge(node, w), &traces[p]);
        }
    });
}

/// Scenario extraction is self-consistent: the scenario of the full node
/// set contains every edge as internal and nothing as border, and
/// matching a scenario against itself under the identity succeeds.
#[test]
fn scenario_extraction_is_consistent() {
    flm_prop::cases(48, 0x51A4, |rng| {
        let n = rng.usize(3..7);
        let gseed = rng.range_u64(0..100);
        let seed = rng.u64();
        let mask = rng.u32();
        let g = builders::random_connected(n, 2, gseed);
        let b = build_table_system(&g, seed, mask).run(5);
        let all: BTreeSet<NodeId> = g.nodes().collect();
        let full = b.scenario(&all);
        assert!(full.border.is_empty());
        assert_eq!(full.internal.len(), 2 * g.link_count());
        let identity: std::collections::BTreeMap<NodeId, NodeId> =
            all.iter().map(|&v| (v, v)).collect();
        assert!(full.matches(&full, &identity).is_ok());

        // A proper subset has a non-empty border on a connected graph.
        let u: BTreeSet<NodeId> = [NodeId(0)].into();
        let part = b.scenario(&u);
        assert_eq!(part.border.len(), g.degree(NodeId(0)));
    });
}

/// Decisions are a function of the behavior: two nodes with identical
/// snapshot traces decide identically (read via NodeBehavior, never via
/// live devices).
#[test]
fn decisions_are_behavior_functions() {
    flm_prop::cases(48, 0x51A5, |rng| {
        let n_half = rng.usize(2..5);
        let input = rng.bool();
        // Symmetric ring with identical (node-id-agnostic) devices and
        // inputs: all nodes have identical behaviors, hence identical
        // decisions.
        let g = builders::cycle(2 * n_half);
        let mut sys = System::new(g.clone());
        for v in g.nodes() {
            sys.assign(
                v,
                Box::new(flm_sim::devices::NaiveMajorityDevice::new()),
                Input::Bool(input),
            );
        }
        let b = sys.run(5);
        let first = b.node(NodeId(0));
        for v in g.nodes() {
            assert_eq!(&first.snaps, &b.node(v).snaps);
            assert_eq!(first.decision(), b.node(v).decision());
        }
    });
}

/// The strict kernel matches the map-per-delivery reference loop on a
/// link-shaped system: seeded table devices around one replay node that
/// masquerades with synthetic traces (payloads varying by port and tick,
/// silences sprinkled in).
#[test]
fn strict_kernel_matches_reference_loop_with_scripted_nodes() {
    let g = builders::complete(4);
    let scripted = NodeId(1);
    let seed = 3u64;
    let horizon = 10u32;
    let traces: Vec<EdgeBehavior> = g
        .neighbors(scripted)
        .enumerate()
        .map(|(p, _)| {
            (0..horizon)
                .map(|t| {
                    if (t as u64 + p as u64 + seed).is_multiple_of(4) {
                        None
                    } else {
                        Some(vec![seed as u8, p as u8, t as u8].into())
                    }
                })
                .collect()
        })
        .collect();
    let link_system = || {
        let mut sys = System::new(g.clone());
        for v in g.nodes() {
            if v == scripted {
                sys.assign(
                    v,
                    Box::new(ReplayDevice::masquerade(traces.clone())),
                    Input::Bool(false),
                );
            } else {
                sys.assign(
                    v,
                    Box::new(TableDevice::new(seed ^ u64::from(v.0), 64)),
                    Input::Bool(v.0.is_multiple_of(2)),
                );
            }
        }
        sys
    };
    let dense = link_system().try_run(horizon).unwrap();
    let reference = link_system().run_reference(horizon).unwrap();
    assert_eq!(
        format!("{dense:?}"),
        format!("{reference:?}"),
        "kernel and reference loop diverged"
    );
}
