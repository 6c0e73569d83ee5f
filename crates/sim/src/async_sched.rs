//! Asynchronous execution: a scheduling adversary over per-edge FIFO
//! channels.
//!
//! The synchronous kernel delivers every message exactly one tick after it
//! is sent (δ = 1). This module drops that guarantee: messages sit in a
//! per-directed-edge FIFO until a *scheduler* — an adversary — picks one
//! pending edge to deliver from next. The sequence of choices is the
//! [`AsyncRun::schedule`], a `Vec<u32>` over [`Graph::directed_edges`]
//! indices, and it is the whole witness: [`AsyncSystem::replay`] re-executes
//! a recorded schedule byte-for-byte, which is what the FLP-style
//! certificates in `flm-core` rest their soundness on.
//!
//! # Execution model
//!
//! * **Bootstrap.** Every device is initialized and stepped once at its
//!   local tick 0 with an empty inbox (exactly the synchronous kernel's
//!   tick 0); its sends seed the channels.
//! * **Delivery step.** The scheduler picks a pending directed edge
//!   `(u, v)`; the oldest message queued on it is handed to `v`, which
//!   steps at its *local* tick (its own step count) with an inbox that is
//!   empty except for `u`'s port. New sends append to the channels.
//! * **Termination.** The run ends when no messages are pending
//!   (quiescence), when the scheduler declines to deliver (starvation —
//!   the withheld messages stay pending as evidence), or when the
//!   fairness budget ([`RunPolicy::max_ticks`], counted in deliveries) is
//!   exhausted. Every ending is structured: [`AsyncRun`] records what was
//!   still pending and whether the budget ran out.
//!
//! Misbehavior (panics, port mismatches, oversized payloads) is contained
//! exactly as in the synchronous kernel: the node is quarantined, the
//! incident is recorded, and the run continues — an async probe never
//! crashes the process.
//!
//! Asynchronous runs are memoized in [`crate::runcache`] under the
//! dedicated `"async"` key domain, so they can never alias a synchronous
//! run (whose domains are `"link"`, `"cover"`, …).

use std::collections::VecDeque;
use std::sync::Arc;

use flm_graph::{Graph, NodeId};

use crate::auth::mix64;
use crate::behavior::{DeviceMisbehavior, MisbehaviorKind};
use crate::device::{snapshot, Decision, Device, Input, NodeCtx, Payload};
use crate::system::RunPolicy;
use crate::Tick;

/// How the scheduling adversary picks the next delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Round-robin over the directed-edge index space: the first pending
    /// edge at or after a rotating cursor. Every pending message is
    /// eventually delivered — the "fair" baseline a correct asynchronous
    /// protocol must decide under.
    Fair,
    /// Seeded-uniform choice among the pending edges. Deterministic for a
    /// fixed seed; a different flavor of fair-in-the-limit scheduling.
    Random {
        /// Seed for the per-step [`mix64`] draw.
        seed: u64,
    },
    /// The starvation / bivalence-seeking adversary: messages addressed to
    /// `victim` are withheld for as long as anything else is pending, and
    /// among the rest the chooser prefers (via one-step-forward /
    /// one-step-back [`Device::fork`] look-ahead) deliveries that do *not*
    /// make the receiver decide. When only victim-bound messages remain
    /// the adversary stops delivering entirely — the run ends with those
    /// messages pending, which is the starvation evidence.
    Adversarial {
        /// Seed rotating the preference order among equivalent choices.
        seed: u64,
        /// The node being starved.
        victim: NodeId,
    },
}

impl Strategy {
    /// A canonical rendering for certificates and reports, e.g.
    /// `fair`, `random(seed=0x2a)`, `starve(node=3, seed=0x1)`.
    pub fn describe(&self) -> String {
        match *self {
            Strategy::Fair => "fair".into(),
            Strategy::Random { seed } => format!("random(seed={seed:#x})"),
            Strategy::Adversarial { seed, victim } => {
                format!("starve(node={}, seed={seed:#x})", victim.0)
            }
        }
    }

    /// Encodes the strategy into a cache-key writer (deterministic, wire
    /// module canonical form).
    pub fn encode(&self, w: &mut crate::wire::Writer) {
        match *self {
            Strategy::Fair => {
                w.u8(0);
            }
            Strategy::Random { seed } => {
                w.u8(1).u64(seed);
            }
            Strategy::Adversarial { seed, victim } => {
                w.u8(2).u64(seed).u32(victim.0);
            }
        }
    }
}

/// Why an asynchronous run could not even start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsyncError {
    /// A node was never assigned a device.
    Unassigned {
        /// The unassigned node.
        node: NodeId,
    },
}

impl std::fmt::Display for AsyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsyncError::Unassigned { node } => {
                write!(f, "node {node} has no device assigned")
            }
        }
    }
}

impl std::error::Error for AsyncError {}

/// A recorded schedule failed to replay: the schedule names a delivery the
/// execution state cannot perform. Every variant is a structured forgery
/// diagnosis — replay never panics on hostile schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The system itself was malformed (unassigned node).
    System(AsyncError),
    /// A schedule entry names a directed-edge index outside the graph.
    EdgeOutOfRange {
        /// Position in the schedule.
        index: usize,
        /// The offending edge index.
        edge: u32,
        /// Number of directed edges the graph actually has.
        edges: u32,
    },
    /// A schedule entry delivers from an edge whose channel is empty —
    /// the message was already delivered (or never sent).
    NothingPending {
        /// Position in the schedule.
        index: usize,
        /// The edge with an empty channel.
        edge: u32,
    },
    /// The schedule is longer than the fairness budget it claims to have
    /// run under.
    BudgetMismatch {
        /// Schedule length.
        len: usize,
        /// The policy's delivery budget.
        budget: u32,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::System(e) => write!(f, "{e}"),
            ReplayError::EdgeOutOfRange { index, edge, edges } => write!(
                f,
                "schedule[{index}] names edge {edge}, but the graph has only {edges} directed edges"
            ),
            ReplayError::NothingPending { index, edge } => write!(
                f,
                "schedule[{index}] delivers from edge {edge}, but nothing is pending there"
            ),
            ReplayError::BudgetMismatch { len, budget } => write!(
                f,
                "schedule has {len} deliveries but the policy budgets only {budget}"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// The observable outcome of an asynchronous execution: the schedule that
/// was taken and everything a certificate needs to re-check a violation.
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncRun {
    /// The delivery choices, as [`Graph::directed_edges`] indices, in
    /// order. Replaying this schedule reproduces the run exactly.
    pub schedule: Vec<u32>,
    /// Each node's decision latch: the first decision its snapshot ever
    /// showed, or `None` if it never decided.
    pub decisions: Vec<Option<Decision>>,
    /// Each node's local step count (bootstrap included).
    pub steps: Vec<u32>,
    /// Messages still pending per directed edge when the run ended, in
    /// edge-index order (sparse: only non-empty channels are listed).
    pub pending: Vec<(u32, u32)>,
    /// True when the run stopped because the delivery budget ran out
    /// rather than by quiescence or scheduler starvation.
    pub budget_exhausted: bool,
    /// Contained incidents, in delivery order.
    pub misbehavior: Vec<DeviceMisbehavior>,
    /// `Device::fork` look-aheads the scheduler performed (the bivalence
    /// probe counter; zero for fair/random strategies).
    pub lookahead_forks: u64,
}

impl AsyncRun {
    /// Total messages still pending when the run ended.
    pub fn pending_total(&self) -> u32 {
        self.pending.iter().map(|&(_, k)| k).sum()
    }

    /// Nodes whose decision latch is empty, ascending.
    pub fn undecided(&self) -> Vec<NodeId> {
        self.decisions
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_none())
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Approximate retained bytes, for the run cache's byte accounting.
    pub fn approx_bytes(&self) -> u64 {
        (self.schedule.len() * 4
            + self.decisions.len() * 16
            + self.steps.len() * 4
            + self.pending.len() * 8
            + self.misbehavior.len() * 48
            + 64) as u64
    }
}

/// An asynchronous system under assembly: a graph plus one device and
/// input per node, mirroring [`crate::System`]'s `assign` surface.
pub struct AsyncSystem {
    graph: Arc<Graph>,
    slots: Vec<Option<(Box<dyn Device>, Input)>>,
}

impl AsyncSystem {
    /// A system over `graph` with no devices assigned yet.
    pub fn new(graph: Graph) -> AsyncSystem {
        let n = graph.node_count();
        AsyncSystem {
            graph: Arc::new(graph),
            slots: (0..n).map(|_| None).collect(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Assigns `device` (with `input`) to node `v`, replacing any previous
    /// assignment.
    pub fn assign(&mut self, v: NodeId, device: Box<dyn Device>, input: Input) {
        self.slots[v.index()] = Some((device, input));
    }

    /// Runs under `strategy`, recording the schedule it takes.
    ///
    /// # Errors
    ///
    /// [`AsyncError::Unassigned`] if any node has no device. Device
    /// misbehavior does not error — it is contained and recorded.
    pub fn run(self, strategy: &Strategy, policy: &RunPolicy) -> Result<AsyncRun, AsyncError> {
        let mut exec = Exec::assemble(self, policy).map_err(|e| match e {
            ReplayError::System(e) => e,
            _ => unreachable!("assemble only raises system errors"),
        })?;
        let budget = policy.max_ticks;
        let mut chooser = Chooser::new(*strategy);
        while (exec.schedule.len() as u32) < budget {
            let Some(edge) = chooser.pick(&mut exec) else {
                // Quiescent or deliberately starved: both end the run with
                // the channel state as evidence.
                return Ok(exec.finish(false));
            };
            exec.deliver(edge);
        }
        let quiescent = exec.pending_edges().is_empty();
        Ok(exec.finish(!quiescent))
    }

    /// Replays a recorded `schedule` exactly, validating every entry
    /// against the evolving channel state.
    ///
    /// # Errors
    ///
    /// A structured [`ReplayError`] for any schedule the execution state
    /// cannot perform — hostile schedules are diagnosed, never panicked
    /// on.
    pub fn replay(self, schedule: &[u32], policy: &RunPolicy) -> Result<AsyncRun, ReplayError> {
        if schedule.len() as u64 > u64::from(policy.max_ticks) {
            return Err(ReplayError::BudgetMismatch {
                len: schedule.len(),
                budget: policy.max_ticks,
            });
        }
        let mut exec = Exec::assemble(self, policy)?;
        let edges = exec.edge_count as u32;
        for (index, &edge) in schedule.iter().enumerate() {
            if edge >= edges {
                return Err(ReplayError::EdgeOutOfRange { index, edge, edges });
            }
            if exec.queues[edge as usize].is_empty() {
                return Err(ReplayError::NothingPending { index, edge });
            }
            exec.deliver(edge);
        }
        let budget_exhausted =
            schedule.len() as u32 == policy.max_ticks && !exec.pending_edges().is_empty();
        Ok(exec.finish(budget_exhausted))
    }
}

/// The live execution state shared by recording runs and replay.
struct Exec {
    edge_count: usize,
    /// Directed edges in lex order — the schedule's index space.
    edge_list: Vec<(NodeId, NodeId)>,
    /// Per directed edge: the FIFO channel.
    queues: Vec<VecDeque<Payload>>,
    /// Receiver-side port index per directed edge `(u, v)`: `u`'s position
    /// among `v`'s sorted neighbors.
    in_port: Vec<usize>,
    /// Sender-side edge index per `(node, port)`: flat, offset by
    /// `port_off`.
    out_edges: Vec<u32>,
    port_off: Vec<usize>,
    devices: Vec<Box<dyn Device>>,
    quarantined: Vec<bool>,
    steps: Vec<u32>,
    decisions: Vec<Option<Decision>>,
    schedule: Vec<u32>,
    misbehavior: Vec<DeviceMisbehavior>,
    lookahead_forks: u64,
    max_payload_bytes: usize,
}

impl Exec {
    /// Builds the port tables, initializes every device, and performs the
    /// bootstrap step (local tick 0, empty inbox) for every node.
    fn assemble(sys: AsyncSystem, policy: &RunPolicy) -> Result<Exec, ReplayError> {
        let graph = sys.graph;
        let n = graph.node_count();
        for v in graph.nodes() {
            if sys.slots[v.index()].is_none() {
                return Err(ReplayError::System(AsyncError::Unassigned { node: v }));
            }
        }
        crate::system::install_quiet_panic_hook();
        let edge_list = graph.directed_edges();
        let edge_count = edge_list.len();
        let mut in_port = vec![0usize; edge_count];
        let mut out_edges = Vec::new();
        let mut port_off = Vec::with_capacity(n + 1);
        port_off.push(0usize);
        for v in graph.nodes() {
            for (p, w) in graph.neighbors(v).enumerate() {
                let out = edge_list
                    .binary_search(&(v, w))
                    .expect("neighbors are directed edges by construction");
                out_edges.push(out as u32);
                let inc = edge_list
                    .binary_search(&(w, v))
                    .expect("links are symmetric");
                in_port[inc] = p;
            }
            port_off.push(out_edges.len());
        }
        let mut exec = Exec {
            edge_count,
            queues: (0..edge_count).map(|_| VecDeque::new()).collect(),
            edge_list,
            in_port,
            out_edges,
            port_off,
            devices: Vec::with_capacity(n),
            quarantined: vec![false; n],
            steps: vec![0; n],
            decisions: vec![None; n],
            schedule: Vec::new(),
            misbehavior: Vec::new(),
            lookahead_forks: 0,
            max_payload_bytes: policy.max_payload_bytes,
        };
        let mut slots = sys.slots;
        for v in graph.nodes() {
            let (mut device, input) = slots[v.index()].take().expect("checked above");
            let ctx = NodeCtx {
                node: v,
                ports: graph.neighbors(v).collect(),
                input,
            };
            let ports = ctx.port_count();
            if let Err(msg) = crate::contain_panics(|| device.init(&ctx)) {
                exec.quarantine(v, MisbehaviorKind::Panic(msg));
            }
            exec.devices.push(device);
            // Bootstrap: the empty-inbox step every node takes before any
            // delivery, mirroring the synchronous kernel's tick 0.
            let inbox = vec![None; ports];
            exec.step_node(v, &inbox);
        }
        Ok(exec)
    }

    fn quarantine(&mut self, v: NodeId, kind: MisbehaviorKind) {
        self.misbehavior.push(DeviceMisbehavior {
            node: v,
            tick: Tick(self.steps[v.index()]),
            kind,
        });
        self.quarantined[v.index()] = true;
    }

    /// Steps node `v` with `inbox`, containing panics, validating the
    /// output shape, enqueueing its sends, and updating its decision
    /// latch.
    fn step_node(&mut self, v: NodeId, inbox: &[Option<Payload>]) {
        let i = v.index();
        if self.quarantined[i] {
            return;
        }
        let ports = self.port_off[i + 1] - self.port_off[i];
        let tick = Tick(self.steps[i]);
        let device = &mut self.devices[i];
        let out = match crate::contain_panics(|| device.step(tick, inbox)) {
            Err(msg) => {
                self.quarantine(v, MisbehaviorKind::Panic(msg));
                return;
            }
            Ok(out) if out.len() != ports => {
                let got = out.len();
                self.quarantine(
                    v,
                    MisbehaviorKind::PortMismatch {
                        expected: ports,
                        got,
                    },
                );
                return;
            }
            Ok(out) => out,
        };
        if let Some((port, len)) = out.iter().enumerate().find_map(|(p, m)| {
            m.as_ref()
                .filter(|m| m.len() > self.max_payload_bytes)
                .map(|m| (p, m.len()))
        }) {
            self.quarantine(
                v,
                MisbehaviorKind::OversizedPayload {
                    port,
                    len,
                    limit: self.max_payload_bytes,
                },
            );
            return;
        }
        self.steps[i] += 1;
        for (p, payload) in out.into_iter().enumerate() {
            if let Some(payload) = payload {
                let e = self.out_edges[self.port_off[i] + p] as usize;
                self.queues[e].push_back(payload);
            }
        }
        if self.decisions[i].is_none() {
            self.decisions[i] = snapshot::decision_in(&self.devices[i].snapshot());
        }
    }

    /// Delivers the oldest message on directed edge `e` (which must be
    /// pending) and records the choice in the schedule.
    fn deliver(&mut self, e: u32) {
        let payload = self.queues[e as usize]
            .pop_front()
            .expect("deliver is only called on pending edges");
        self.schedule.push(e);
        let (_, v) = self.edge_endpoints(e);
        let i = v.index();
        let ports = self.port_off[i + 1] - self.port_off[i];
        // A quarantined receiver consumes the message silently: the channel
        // drains, the state is untouched.
        if self.quarantined[i] {
            return;
        }
        let mut inbox = vec![None; ports];
        inbox[self.in_port[e as usize]] = Some(payload);
        self.step_node(v, &inbox);
    }

    /// The endpoints of directed edge `e` (lex position in
    /// [`Graph::directed_edges`]).
    fn edge_endpoints(&self, e: u32) -> (NodeId, NodeId) {
        self.edge_list[e as usize]
    }

    /// Indices of edges with at least one pending message, ascending.
    fn pending_edges(&self) -> Vec<u32> {
        (0..self.edge_count as u32)
            .filter(|&e| !self.queues[e as usize].is_empty())
            .collect()
    }

    /// One-step-forward / one-step-back probe: would delivering the head
    /// of edge `e` make its receiver decide? Forks the receiver, delivers
    /// to the fork, inspects its snapshot, and discards the fork. `None`
    /// when the device cannot fork.
    fn delivery_decides(&mut self, e: u32) -> Option<bool> {
        let (_, v) = self.edge_endpoints(e);
        let i = v.index();
        if self.quarantined[i] || self.decisions[i].is_some() {
            return Some(self.decisions[i].is_some());
        }
        let mut fork = self.devices[i].fork()?;
        self.lookahead_forks += 1;
        let payload = self.queues[e as usize].front()?.clone();
        let ports = self.port_off[i + 1] - self.port_off[i];
        let mut inbox = vec![None; ports];
        inbox[self.in_port[e as usize]] = Some(payload);
        let tick = Tick(self.steps[i]);
        let snap = crate::contain_panics(move || {
            fork.step(tick, &inbox);
            fork.snapshot()
        })
        .ok()?;
        Some(snapshot::decision_in(&snap).is_some())
    }

    fn finish(self, budget_exhausted: bool) -> AsyncRun {
        let pending = (0..self.edge_count as u32)
            .filter_map(|e| {
                let k = self.queues[e as usize].len() as u32;
                (k > 0).then_some((e, k))
            })
            .collect();
        AsyncRun {
            schedule: self.schedule,
            decisions: self.decisions,
            steps: self.steps,
            pending,
            budget_exhausted,
            misbehavior: self.misbehavior,
            lookahead_forks: self.lookahead_forks,
        }
    }
}

/// The scheduling adversary: one `pick` per delivery.
struct Chooser {
    strategy: Strategy,
    cursor: u32,
    draws: u64,
}

impl Chooser {
    fn new(strategy: Strategy) -> Chooser {
        Chooser {
            strategy,
            cursor: 0,
            draws: 0,
        }
    }

    /// Picks the next edge to deliver from, or `None` to end the run
    /// (quiescence, or deliberate starvation for the adversarial
    /// strategy).
    fn pick(&mut self, exec: &mut Exec) -> Option<u32> {
        let pending = exec.pending_edges();
        if pending.is_empty() {
            return None;
        }
        match self.strategy {
            Strategy::Fair => {
                let chosen = pending
                    .iter()
                    .copied()
                    .find(|&e| e >= self.cursor)
                    .unwrap_or(pending[0]);
                self.cursor = chosen + 1;
                Some(chosen)
            }
            Strategy::Random { seed } => {
                let i = mix64(seed ^ self.draws.wrapping_mul(0x9E37)) % pending.len() as u64;
                self.draws += 1;
                Some(pending[i as usize])
            }
            Strategy::Adversarial { seed, victim } => {
                let candidates: Vec<u32> = pending
                    .iter()
                    .copied()
                    .filter(|&e| exec.edge_endpoints(e).1 != victim)
                    .collect();
                if candidates.is_empty() {
                    // Only victim-bound messages remain: withhold them all.
                    return None;
                }
                // Rotate the preference order by the seed so distinct seeds
                // explore distinct schedules, then take the first candidate
                // whose delivery keeps its receiver undecided (one step
                // forward, one step back). If every delivery decides — or
                // look-ahead is unavailable — the rotation's head stands.
                let rot = (mix64(seed ^ self.draws) % candidates.len() as u64) as usize;
                self.draws += 1;
                let chosen = (0..candidates.len())
                    .map(|k| candidates[(rot + k) % candidates.len()])
                    .find(|&e| exec.delivery_decides(e) == Some(false))
                    .unwrap_or(candidates[rot]);
                Some(chosen)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::ConstantDevice;
    use flm_graph::builders;

    /// A device that broadcasts its boolean input once, then decides the
    /// OR of everything it has heard as soon as every port has reported.
    #[derive(Clone)]
    struct WaitAll {
        my: bool,
        heard: Vec<bool>,
        acc: bool,
        decided: Option<bool>,
    }

    impl WaitAll {
        fn new() -> WaitAll {
            WaitAll {
                my: false,
                heard: Vec::new(),
                acc: false,
                decided: None,
            }
        }
    }

    impl Device for WaitAll {
        fn name(&self) -> &'static str {
            "test-wait-all"
        }
        fn init(&mut self, ctx: &NodeCtx) {
            self.my = matches!(ctx.input, Input::Bool(true));
            self.heard = vec![false; ctx.port_count()];
        }
        fn step(&mut self, t: Tick, inbox: &[Option<Payload>]) -> Vec<Option<Payload>> {
            for (p, m) in inbox.iter().enumerate() {
                if let Some(m) = m {
                    self.heard[p] = true;
                    self.acc |= m.as_bytes() == [1];
                }
            }
            if self.decided.is_none() && self.heard.iter().all(|&h| h) {
                self.decided = Some(self.acc || self.my);
            }
            if t.0 == 0 {
                vec![Some(Payload::new(vec![u8::from(self.my)])); inbox.len()]
            } else {
                vec![None; inbox.len()]
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            match self.decided {
                Some(b) => snapshot::decided_bool(b, &[]),
                None => snapshot::undecided(&[]),
            }
        }
        fn fork(&self) -> Option<Box<dyn Device>> {
            Some(Box::new(self.clone()))
        }
    }

    fn wait_all_system() -> AsyncSystem {
        let g = builders::triangle();
        let mut sys = AsyncSystem::new(g);
        for v in sys.graph().nodes() {
            sys.assign(v, Box::new(WaitAll::new()), Input::Bool(v.0 == 0));
        }
        sys
    }

    #[test]
    fn fair_schedule_delivers_everything_and_decides() {
        let run = wait_all_system()
            .run(&Strategy::Fair, &RunPolicy::default())
            .unwrap();
        assert!(run.pending.is_empty(), "fair runs drain the channels");
        assert!(!run.budget_exhausted);
        assert_eq!(run.undecided(), Vec::<NodeId>::new());
        for d in &run.decisions {
            assert_eq!(*d, Some(Decision::Bool(true)));
        }
        // Triangle, 3 broadcasts of 2 messages each: 6 deliveries.
        assert_eq!(run.schedule.len(), 6);
    }

    #[test]
    fn adversary_starves_the_victim_into_non_decision() {
        let victim = NodeId(2);
        let run = wait_all_system()
            .run(
                &Strategy::Adversarial { seed: 1, victim },
                &RunPolicy::default(),
            )
            .unwrap();
        assert_eq!(run.undecided(), vec![victim]);
        assert!(!run.budget_exhausted, "starvation ends the run, not budget");
        assert!(
            run.pending_total() > 0,
            "withheld victim-bound messages stay pending"
        );
        for &(e, _) in &run.pending {
            let g = builders::triangle();
            let (_, to) = (
                g.directed_edges()[e as usize].0,
                g.directed_edges()[e as usize].1,
            );
            assert_eq!(to, victim, "only victim-bound messages are withheld");
        }
    }

    #[test]
    fn replay_reproduces_a_recorded_run_exactly() {
        for strategy in [
            Strategy::Fair,
            Strategy::Random { seed: 7 },
            Strategy::Adversarial {
                seed: 3,
                victim: NodeId(0),
            },
        ] {
            let policy = RunPolicy::default();
            let run = wait_all_system().run(&strategy, &policy).unwrap();
            let replayed = wait_all_system().replay(&run.schedule, &policy).unwrap();
            assert_eq!(run.schedule, replayed.schedule);
            assert_eq!(run.decisions, replayed.decisions);
            assert_eq!(run.steps, replayed.steps);
            assert_eq!(run.pending, replayed.pending);
            assert_eq!(run.budget_exhausted, replayed.budget_exhausted);
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        for strategy in [
            Strategy::Random { seed: 99 },
            Strategy::Adversarial {
                seed: 99,
                victim: NodeId(1),
            },
        ] {
            let a = wait_all_system()
                .run(&strategy, &RunPolicy::default())
                .unwrap();
            let b = wait_all_system()
                .run(&strategy, &RunPolicy::default())
                .unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn forged_schedules_are_structured_errors() {
        let policy = RunPolicy::default();
        let run = wait_all_system().run(&Strategy::Fair, &policy).unwrap();

        // Out-of-range edge.
        let mut forged = run.schedule.clone();
        forged[0] = 999;
        match wait_all_system().replay(&forged, &policy) {
            Err(ReplayError::EdgeOutOfRange {
                index: 0,
                edge: 999,
                ..
            }) => {}
            other => panic!("expected EdgeOutOfRange, got {other:?}"),
        }

        // Replayed-after-delivered: duplicate the first delivery after the
        // channel has fully drained.
        let mut doubled = run.schedule.clone();
        doubled.push(run.schedule[0]);
        match wait_all_system().replay(&doubled, &policy) {
            Err(ReplayError::NothingPending { .. }) => {}
            other => panic!("expected NothingPending, got {other:?}"),
        }

        // Budget mismatch.
        let tight = RunPolicy {
            max_ticks: 2,
            ..RunPolicy::default()
        };
        match wait_all_system().replay(&run.schedule, &tight) {
            Err(ReplayError::BudgetMismatch { .. }) => {}
            other => panic!("expected BudgetMismatch, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // A chatty device that always has something in flight would need
        // an unbounded schedule; WaitAll quiesces, so instead cap the
        // budget below the 6 deliveries a fair run needs.
        let policy = RunPolicy {
            max_ticks: 3,
            ..RunPolicy::default()
        };
        let run = wait_all_system().run(&Strategy::Fair, &policy).unwrap();
        assert_eq!(run.schedule.len(), 3);
        assert!(run.budget_exhausted);
        assert!(run.pending_total() > 0);
    }

    #[test]
    fn misbehaving_devices_are_quarantined_not_crashed() {
        struct Bomb;
        impl Device for Bomb {
            fn name(&self) -> &'static str {
                "bomb"
            }
            fn init(&mut self, _ctx: &NodeCtx) {}
            fn step(&mut self, t: Tick, inbox: &[Option<Payload>]) -> Vec<Option<Payload>> {
                if t.0 == 0 {
                    vec![Some(Payload::new(vec![1])); inbox.len()]
                } else {
                    panic!("boom on delivery");
                }
            }
            fn snapshot(&self) -> Vec<u8> {
                snapshot::undecided(&[])
            }
        }
        let g = builders::triangle();
        let mut sys = AsyncSystem::new(g);
        sys.assign(NodeId(0), Box::new(Bomb), Input::None);
        sys.assign(NodeId(1), Box::new(WaitAll::new()), Input::Bool(true));
        sys.assign(NodeId(2), Box::new(WaitAll::new()), Input::Bool(false));
        let run = sys.run(&Strategy::Fair, &RunPolicy::default()).unwrap();
        assert_eq!(run.misbehavior.len(), 1);
        assert_eq!(run.misbehavior[0].node, NodeId(0));
        assert!(matches!(run.misbehavior[0].kind, MisbehaviorKind::Panic(_)));
        // The run still completes; the other nodes decide.
        assert!(run.decisions[1].is_some());
        assert!(run.decisions[2].is_some());
    }

    #[test]
    fn constant_devices_quiesce_immediately() {
        let g = builders::triangle();
        let mut sys = AsyncSystem::new(g);
        for v in sys.graph().nodes() {
            sys.assign(v, Box::new(ConstantDevice::new()), Input::Bool(false));
        }
        let run = sys.run(&Strategy::Fair, &RunPolicy::default()).unwrap();
        // ConstantDevice sends nothing: no deliveries at all.
        assert!(run.schedule.is_empty());
        assert!(run.pending.is_empty());
    }
}
