//! Systems and the deterministic run loop.
//!
//! A [`System`] is a communication graph with a device and input assigned to
//! every node (FLM §2). Devices address neighbors through *ports* whose
//! meaning is fixed by the base graph the device was written for; the
//! system's *wiring* maps each port to a physical neighbor. Installing
//! devices in a covering graph is just a different wiring — see
//! [`System::assign_lifted`].

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use flm_graph::covering::Covering;
use flm_graph::{Graph, NodeId};

use crate::behavior::{NodeBehavior, SystemBehavior};
use crate::device::{Device, Input, NodeCtx, Payload};
use crate::Tick;

/// Errors from system assembly and runs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SystemError {
    /// A node was not assigned a device before `run`.
    Unassigned {
        /// The unassigned node.
        node: NodeId,
    },
    /// A wiring was not a bijection onto the node's physical neighbors.
    BadWiring {
        /// The node whose wiring is invalid.
        node: NodeId,
        /// Description of the defect.
        reason: String,
    },
    /// A device returned the wrong number of outputs from `step`.
    PortMismatch {
        /// The offending node.
        node: NodeId,
        /// Expected number of ports.
        expected: usize,
        /// Number of outputs actually returned.
        got: usize,
    },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Unassigned { node } => write!(f, "no device assigned to {node}"),
            SystemError::BadWiring { node, reason } => {
                write!(f, "invalid wiring at {node}: {reason}")
            }
            SystemError::PortMismatch {
                node,
                expected,
                got,
            } => write!(
                f,
                "device at {node} returned {got} outputs for {expected} ports"
            ),
        }
    }
}

impl std::error::Error for SystemError {}

/// Resource limits for a contained run ([`System::run_contained`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPolicy {
    /// Largest payload a device may emit on one port in one tick; larger
    /// payloads are recorded as [`MisbehaviorKind::OversizedPayload`] and
    /// the node is quarantined.
    pub max_payload_bytes: usize,
    /// Hard cap on the number of ticks a single run may execute; a horizon
    /// above the cap is truncated (visible as `SystemBehavior::horizon`).
    pub max_ticks: u32,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            max_payload_bytes: 1 << 16,
            max_ticks: 1 << 14,
        }
    }
}

impl RunPolicy {
    /// Appends this policy to a wire writer (`max_payload_bytes` as `u64`,
    /// then `max_ticks`). Certificates record the policy their refuter ran
    /// under so verification replays with the same budgets.
    pub fn encode(&self, w: &mut crate::wire::Writer) {
        w.u64(self.max_payload_bytes as u64).u32(self.max_ticks);
    }

    /// Reads a policy written by [`RunPolicy::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::wire::DecodeError`] on truncation or a payload
    /// limit that does not fit in `usize`.
    pub fn decode(r: &mut crate::wire::Reader<'_>) -> Result<Self, crate::wire::DecodeError> {
        let max_payload_bytes = usize::try_from(r.u64()?).map_err(|_| crate::wire::DecodeError)?;
        let max_ticks = r.u32()?;
        Ok(RunPolicy {
            max_payload_bytes,
            max_ticks,
        })
    }
}

thread_local! {
    /// True while a contained run is executing a device step — tells the
    /// quiet panic hook to swallow the report (the panic is caught, recorded
    /// as misbehavior, and must not spam stderr).
    pub(crate) static CONTAINING: Cell<bool> = const { Cell::new(false) };
}

/// Installs, once per process, a panic hook that defers to the previous hook
/// except while a contained run is catching device panics.
pub(crate) fn install_quiet_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !CONTAINING.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Runs `f` with the same panic containment a contained run gives device
/// steps: a panic is caught and returned as its rendered message, and the
/// quiet hook keeps it off stderr.
///
/// The certificate audit path uses this around `Protocol::device`
/// construction — device constructors may assert graph-shape invariants
/// (completeness, minimum size) that a hostile or corrupted certificate's
/// base graph violates, and the auditor must turn that into a structured
/// error rather than abort.
///
/// # Errors
///
/// Returns the panic payload rendered as a string if `f` panicked.
pub fn contain_panics<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    install_quiet_panic_hook();
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            CONTAINING.with(|c| c.set(self.0));
        }
    }
    let previous = CONTAINING.with(|c| c.replace(true));
    let _restore = Restore(previous);
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(panic_message)
}

/// Renders a caught panic payload as a message string.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

pub(crate) struct Slot {
    pub(crate) device: Box<dyn Device>,
    pub(crate) ctx: NodeCtx,
    /// `wiring[p]` = the physical neighbor connected to port `p`, when it
    /// differs from the identity; `None` means port `p` is wired to
    /// `ctx.ports[p]` itself, so identity assignments don't hold a second
    /// copy of the neighbor list.
    wiring: Option<Vec<NodeId>>,
}

impl Slot {
    pub(crate) fn wiring(&self) -> &[NodeId] {
        self.wiring.as_deref().unwrap_or(&self.ctx.ports)
    }
}

/// A communication graph with devices and inputs at its nodes.
pub struct System {
    graph: Arc<Graph>,
    slots: Vec<Option<Slot>>,
}

impl System {
    /// Creates a system over `graph` with no devices assigned yet.
    ///
    /// Accepts either a `Graph` or an `Arc<Graph>`; passing an `Arc` lets
    /// many systems (e.g. the parallel refuter's transplants) share one
    /// graph allocation.
    pub fn new(graph: impl Into<Arc<Graph>>) -> Self {
        let graph = graph.into();
        let n = graph.node_count();
        System {
            graph,
            slots: (0..n).map(|_| None).collect(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Assigns `device` with `input` to node `v`, with the identity wiring:
    /// the device's ports are `v`'s sorted neighbors in this graph.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn assign(&mut self, v: NodeId, mut device: Box<dyn Device>, input: Input) {
        let ctx = NodeCtx {
            node: v,
            ports: self.graph.neighbors(v).collect(),
            input,
        };
        device.init(&ctx);
        self.slots[v.index()] = Some(Slot {
            device,
            ctx,
            wiring: None,
        });
    }

    /// Assigns a device *written for base node* `base_node` (with base
    /// neighbor list `base_ports`) to physical node `v`, wiring port `p` to
    /// physical neighbor `wiring[p]`.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::BadWiring`] unless `wiring` is a bijection
    /// onto the physical neighbors of `v` with the same length as
    /// `base_ports`.
    pub fn assign_wired(
        &mut self,
        v: NodeId,
        mut device: Box<dyn Device>,
        input: Input,
        base_node: NodeId,
        base_ports: Vec<NodeId>,
        wiring: Vec<NodeId>,
    ) -> Result<(), SystemError> {
        if wiring.len() != base_ports.len() {
            return Err(SystemError::BadWiring {
                node: v,
                reason: format!("{} ports but {} wires", base_ports.len(), wiring.len()),
            });
        }
        let provided: BTreeSet<NodeId> = wiring.iter().copied().collect();
        if provided.len() != wiring.len() || !provided.iter().copied().eq(self.graph.neighbors(v)) {
            return Err(SystemError::BadWiring {
                node: v,
                reason: format!(
                    "wiring {provided:?} is not the neighbor set {:?}",
                    self.graph.neighbors(v).collect::<BTreeSet<_>>()
                ),
            });
        }
        let ctx = NodeCtx {
            node: base_node,
            ports: base_ports,
            input,
        };
        device.init(&ctx);
        self.slots[v.index()] = Some(Slot {
            device,
            ctx,
            wiring: Some(wiring),
        });
        Ok(())
    }

    /// Assigns to cover node `s` the device written for its base projection
    /// φ(s), wiring each port along the covering's edge lifts. This is the
    /// paper's "install the devices in the covering graph".
    ///
    /// # Errors
    ///
    /// Propagates [`SystemError::BadWiring`] (impossible for a validated
    /// covering, but surfaced rather than asserted).
    ///
    /// # Panics
    ///
    /// Panics if this system's graph is not the covering's cover graph.
    pub fn assign_lifted(
        &mut self,
        cov: &Covering,
        s: NodeId,
        device: Box<dyn Device>,
        input: Input,
    ) -> Result<(), SystemError> {
        assert_eq!(
            self.graph.as_ref(),
            cov.cover(),
            "system graph must be the covering's cover graph"
        );
        let base_node = cov.project(s);
        let base_ports: Vec<NodeId> = cov.base().neighbors(base_node).collect();
        let wiring: Vec<NodeId> = base_ports
            .iter()
            .map(|&t| cov.lift_neighbor(s, t))
            .collect();
        self.assign_wired(s, device, input, base_node, base_ports, wiring)
    }

    /// The input assigned to `v`, if a device has been assigned.
    pub fn input(&self, v: NodeId) -> Option<Input> {
        self.slots[v.index()].as_ref().map(|s| s.ctx.input)
    }

    /// Runs the system for `horizon` ticks and returns its behavior.
    ///
    /// Tick 0 steps every device with an empty inbox; at every later tick
    /// each device receives exactly the payloads sent to it one tick
    /// earlier (minimum delay δ = 1, the Bounded-Delay Locality axiom).
    ///
    /// # Panics
    ///
    /// Panics (with [`SystemError`] context) if any node is unassigned or a
    /// device violates the port discipline — both are programming errors in
    /// the caller or the device, not runtime conditions.
    pub fn run(mut self, horizon: u32) -> SystemBehavior {
        self.try_run(horizon).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`System::run`].
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Unassigned`] or [`SystemError::PortMismatch`].
    pub fn try_run(&mut self, horizon: u32) -> Result<SystemBehavior, SystemError> {
        crate::kernel::run(&self.graph, &mut self.slots, horizon, None)
    }

    /// Runs the system with every device step *contained*: a device that
    /// panics, returns the wrong number of outputs, or emits a payload over
    /// `policy.max_payload_bytes` does not abort the run. Instead the
    /// incident is recorded as a [`DeviceMisbehavior`] in the returned
    /// behavior and the node is quarantined — silent on every outedge and
    /// frozen at a `"quarantined"` snapshot from the incident tick on.
    ///
    /// Quarantine keeps contained runs deterministic: the same devices and
    /// inputs misbehave at the same tick in every run, so behaviors remain
    /// functions of the system and scenario matching stays sound.
    ///
    /// The horizon is capped at `policy.max_ticks`; truncation is visible as
    /// the returned behavior's `horizon()`.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Unassigned`] if a node has no device — an
    /// assembly error of the caller, not device misbehavior.
    pub fn run_contained(
        &mut self,
        horizon: u32,
        policy: &RunPolicy,
    ) -> Result<SystemBehavior, SystemError> {
        crate::kernel::run(
            &self.graph,
            &mut self.slots,
            horizon.min(policy.max_ticks),
            Some(policy),
        )
    }

    /// Runs the system with the pre-zero-copy loop: a `BTreeMap`-keyed edge
    /// plane, fresh inbox allocations every tick, and a deep byte copy for
    /// every delivered payload.
    ///
    /// No production path uses this — it is kept as the differential
    /// reference for the dense zero-copy plane: tests assert
    /// [`System::try_run`] produces byte-identical behaviors, and
    /// `crates/bench` measures the dense loop's speedup against it.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Unassigned`] or [`SystemError::PortMismatch`]
    /// exactly like [`System::try_run`]; containment is not replicated.
    pub fn run_reference(&mut self, horizon: u32) -> Result<SystemBehavior, SystemError> {
        let n = self.graph.node_count();
        for v in self.graph.nodes() {
            if self.slots[v.index()].is_none() {
                return Err(SystemError::Unassigned { node: v });
            }
        }
        let mut edges: BTreeMap<(NodeId, NodeId), Vec<Option<Payload>>> = self
            .graph
            .directed_edges()
            .into_iter()
            .map(|e| (e, Vec::with_capacity(horizon as usize)))
            .collect();
        let mut snaps: Vec<Vec<Vec<u8>>> = vec![Vec::with_capacity(horizon as usize); n];

        for t in 0..horizon {
            let tick = Tick(t);
            let mut inboxes: Vec<Vec<Option<Payload>>> = Vec::with_capacity(n);
            for v in self.graph.nodes() {
                let slot = self.slots[v.index()]
                    .as_ref()
                    .expect("run_reference is only reached after every node is assigned");
                let inbox = slot
                    .wiring()
                    .iter()
                    .map(|&w| {
                        if t == 0 {
                            None
                        } else {
                            // Deliberate deep copy — the cost the zero-copy
                            // plane removed.
                            edges[&(w, v)][t as usize - 1]
                                .as_ref()
                                .map(|m| Payload::from(m.to_vec()))
                        }
                    })
                    .collect();
                inboxes.push(inbox);
            }
            for v in self.graph.nodes() {
                let slot = self.slots[v.index()]
                    .as_mut()
                    .expect("run_reference is only reached after every node is assigned");
                let ports = slot.wiring().len();
                let out = slot.device.step(tick, &inboxes[v.index()]);
                if out.len() != ports {
                    return Err(SystemError::PortMismatch {
                        node: v,
                        expected: ports,
                        got: out.len(),
                    });
                }
                for (p, payload) in out.into_iter().enumerate() {
                    let w = slot.wiring()[p];
                    edges
                        .get_mut(&(v, w))
                        .expect("edge traces were pre-created for every wiring entry")
                        .push(payload);
                }
                snaps[v.index()].push(slot.device.snapshot());
            }
        }

        let nodes = self
            .graph
            .nodes()
            .map(|v| {
                let slot = self.slots[v.index()]
                    .as_ref()
                    .expect("run_reference is only reached after every node is assigned");
                NodeBehavior {
                    device_name: slot.device.name().to_string(),
                    input: slot.ctx.input,
                    snaps: std::mem::take(&mut snaps[v.index()]),
                }
            })
            .collect();
        Ok(SystemBehavior::new(
            Arc::clone(&self.graph),
            nodes,
            edges,
            horizon,
            Vec::new(),
        ))
    }
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "System(n={}, assigned={})",
            self.graph.node_count(),
            self.slots.iter().filter(|s| s.is_some()).count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{snapshot, Payload};
    use flm_graph::builders;

    /// Sends its node id on every port every tick; snapshot = count of
    /// messages received so far.
    struct Counter {
        me: u32,
        received: u32,
    }

    impl Device for Counter {
        fn name(&self) -> &'static str {
            "Counter"
        }
        fn init(&mut self, ctx: &NodeCtx) {
            self.me = ctx.node.0;
        }
        fn step(&mut self, _t: Tick, inbox: &[Option<Payload>]) -> Vec<Option<Payload>> {
            self.received += inbox.iter().flatten().count() as u32;
            inbox
                .iter()
                .map(|_| Some(vec![self.me as u8].into()))
                .collect()
        }
        fn snapshot(&self) -> Vec<u8> {
            snapshot::undecided(&self.received.to_be_bytes())
        }
    }

    fn counter() -> Box<dyn Device> {
        Box::new(Counter { me: 0, received: 0 })
    }

    #[test]
    fn messages_take_one_tick() {
        let g = builders::path(2);
        let mut sys = System::new(g);
        sys.assign(NodeId(0), counter(), Input::None);
        sys.assign(NodeId(1), counter(), Input::None);
        let b = sys.run(3);
        // Nothing received at tick 0; one message per tick thereafter.
        assert_eq!(
            b.node(NodeId(0)).snaps[0],
            snapshot::undecided(&0u32.to_be_bytes())
        );
        assert_eq!(
            b.node(NodeId(0)).snaps[1],
            snapshot::undecided(&1u32.to_be_bytes())
        );
        assert_eq!(
            b.node(NodeId(0)).snaps[2],
            snapshot::undecided(&2u32.to_be_bytes())
        );
        // Edge traces record the sends.
        assert_eq!(b.edge(NodeId(0), NodeId(1)).len(), 3);
        assert_eq!(b.edge(NodeId(0), NodeId(1))[0], Some(vec![0].into()));
    }

    #[test]
    fn unassigned_node_is_an_error() {
        let g = builders::path(2);
        let mut sys = System::new(g);
        sys.assign(NodeId(0), counter(), Input::None);
        assert_eq!(
            sys.try_run(1).unwrap_err(),
            SystemError::Unassigned { node: NodeId(1) }
        );
    }

    #[test]
    fn bad_wiring_is_rejected() {
        let g = builders::triangle();
        let mut sys = System::new(g);
        let err = sys
            .assign_wired(
                NodeId(0),
                counter(),
                Input::None,
                NodeId(0),
                vec![NodeId(1), NodeId(2)],
                vec![NodeId(1), NodeId(1)],
            )
            .unwrap_err();
        assert!(matches!(err, SystemError::BadWiring { .. }));
    }

    #[test]
    fn identical_systems_have_identical_behaviors() {
        // Determinism: the model's "a system has exactly one behavior".
        let run = || {
            let mut sys = System::new(builders::triangle());
            for v in sys.graph().nodes() {
                sys.assign(v, counter(), Input::Bool(v.0 == 0));
            }
            sys.run(5)
        };
        let (a, b) = (run(), run());
        for v in a.graph().nodes() {
            assert_eq!(a.node(v), b.node(v));
        }
        assert_eq!(a.edges(), b.edges());
    }

    /// Misbehaves on command: panics, returns the wrong port count, or
    /// emits an oversized payload at `at`.
    struct Hostile {
        at: Tick,
        mode: u8,
    }

    impl Device for Hostile {
        fn name(&self) -> &'static str {
            "Hostile"
        }
        fn init(&mut self, _ctx: &NodeCtx) {}
        fn step(&mut self, t: Tick, inbox: &[Option<Payload>]) -> Vec<Option<Payload>> {
            if t >= self.at {
                match self.mode {
                    0 => panic!("hostile device detonated"),
                    1 => return vec![None; inbox.len() + 3],
                    _ => return vec![Some(vec![0xAB; 64].into()); inbox.len()],
                }
            }
            inbox.iter().map(|_| Some(vec![7].into())).collect()
        }
        fn snapshot(&self) -> Vec<u8> {
            snapshot::undecided(b"hostile")
        }
    }

    fn contained_run(mode: u8) -> SystemBehavior {
        let g = builders::triangle();
        let mut sys = System::new(g);
        sys.assign(
            NodeId(0),
            Box::new(Hostile { at: Tick(1), mode }),
            Input::None,
        );
        sys.assign(NodeId(1), counter(), Input::None);
        sys.assign(NodeId(2), counter(), Input::None);
        let policy = RunPolicy {
            max_payload_bytes: 16,
            ..RunPolicy::default()
        };
        sys.run_contained(4, &policy).unwrap()
    }

    #[test]
    fn contained_run_records_panics_and_quarantines() {
        let b = contained_run(0);
        assert_eq!(b.misbehavior().len(), 1);
        let m = &b.misbehavior()[0];
        assert_eq!(m.node, NodeId(0));
        assert_eq!(m.tick, Tick(1));
        assert!(
            matches!(&m.kind, crate::behavior::MisbehaviorKind::Panic(msg) if msg.contains("detonated"))
        );
        // Quarantined: silent from the incident on, marker snapshot.
        assert!(b.edge(NodeId(0), NodeId(1))[0].is_some());
        assert!(b.edge(NodeId(0), NodeId(1))[1..]
            .iter()
            .all(Option::is_none));
        assert_eq!(
            b.node(NodeId(0)).snaps[1],
            snapshot::undecided(b"quarantined")
        );
        assert_eq!(
            b.node(NodeId(0)).snaps[3],
            snapshot::undecided(b"quarantined")
        );
        // Honest nodes keep running.
        assert!(b.edge(NodeId(1), NodeId(2))[3].is_some());
    }

    #[test]
    fn contained_run_records_port_mismatch() {
        let b = contained_run(1);
        assert!(matches!(
            b.misbehavior()[0].kind,
            crate::behavior::MisbehaviorKind::PortMismatch {
                expected: 2,
                got: 5
            }
        ));
        assert_eq!(
            b.misbehaving_nodes().into_iter().collect::<Vec<_>>(),
            vec![NodeId(0)]
        );
    }

    #[test]
    fn contained_run_records_oversized_payload() {
        let b = contained_run(2);
        assert!(matches!(
            b.misbehavior()[0].kind,
            crate::behavior::MisbehaviorKind::OversizedPayload {
                port: 0,
                len: 64,
                limit: 16
            }
        ));
        // The oversized payload never reaches the wire.
        assert!(b.edge(NodeId(0), NodeId(1))[1..]
            .iter()
            .all(Option::is_none));
    }

    #[test]
    fn contained_runs_are_deterministic() {
        let (a, b) = (contained_run(0), contained_run(0));
        assert_eq!(a.edges(), b.edges());
        assert_eq!(a.misbehavior(), b.misbehavior());
        for v in a.graph().nodes() {
            assert_eq!(a.node(v), b.node(v));
        }
    }

    #[test]
    fn contained_run_caps_ticks_at_the_policy_budget() {
        let mut sys = System::new(builders::path(2));
        sys.assign(NodeId(0), counter(), Input::None);
        sys.assign(NodeId(1), counter(), Input::None);
        let policy = RunPolicy {
            max_ticks: 3,
            ..RunPolicy::default()
        };
        let b = sys.run_contained(1000, &policy).unwrap();
        assert_eq!(b.horizon(), 3);
    }

    #[test]
    fn well_behaved_contained_run_matches_strict_run() {
        let build = || {
            let mut sys = System::new(builders::triangle());
            for v in sys.graph().nodes() {
                sys.assign(v, counter(), Input::Bool(v.0 == 0));
            }
            sys
        };
        let strict = build().try_run(5).unwrap();
        let contained = build().run_contained(5, &RunPolicy::default()).unwrap();
        assert!(contained.misbehavior().is_empty());
        assert_eq!(strict.edges(), contained.edges());
        for v in strict.graph().nodes() {
            assert_eq!(strict.node(v), contained.node(v));
        }
    }

    #[test]
    fn dense_plane_matches_reference_loop() {
        // The zero-copy dense plane must be byte-identical to the seed's
        // copy-per-delivery loop on every observable.
        use crate::devices::TableDevice;
        for (seed, g) in [
            (1u64, builders::triangle()),
            (2, builders::complete(5)),
            (3, builders::cycle(9)),
            (4, builders::path(4)),
        ] {
            let build = || {
                let mut sys = System::new(g.clone());
                for v in g.nodes() {
                    sys.assign(
                        v,
                        Box::new(TableDevice::new(seed ^ u64::from(v.0), 6)),
                        Input::Bool(v.0.is_multiple_of(2)),
                    );
                }
                sys
            };
            let dense = build().try_run(8).unwrap();
            let reference = build().run_reference(8).unwrap();
            assert_eq!(dense.edges(), reference.edges());
            for v in g.nodes() {
                assert_eq!(dense.node(v), reference.node(v));
            }
        }
    }

    #[test]
    fn lifted_assignment_runs_on_cover() {
        use flm_graph::covering::Covering;
        use std::collections::BTreeSet;
        let tri = builders::triangle();
        let a: BTreeSet<NodeId> = [NodeId(0)].into();
        let c: BTreeSet<NodeId> = [NodeId(2)].into();
        let cov = Covering::double_cover_crossing(&tri, &a, &c).unwrap();
        let mut sys = System::new(cov.cover().clone());
        for s in cov.cover().nodes() {
            sys.assign_lifted(&cov, s, counter(), Input::None).unwrap();
        }
        let b = sys.run(4);
        // Every node eventually counts messages from both ports.
        for s in b.graph().nodes() {
            assert_eq!(b.node(s).snaps[3], snapshot::undecided(&6u32.to_be_bytes()));
        }
    }
}
