//! The chaos-campaign driver: sweep, probe, shrink, emit.
//!
//! A campaign takes a [`CampaignConfig`] (see [`flm_sim::campaign`] for the
//! sweep grammar), probes every cell of the protocol × topology ×
//! fault-plan cross-product in parallel, and turns what it finds into two
//! artifacts:
//!
//! * **certificates** — every violation is shrunk by greedy delta-debugging
//!   ([`flm_core::shrink`]) and emitted as a portable `FLMC` file that
//!   passes `flm-audit` exit 0;
//! * **a report** — deterministic JSON recording the seed, the sweep, run
//!   and incident counts, and per-violation shrink ratios.
//!
//! Every probe runs under [`System::run_contained`], so a panicking device,
//! an oversized payload, or a blown tick budget becomes a structured
//! [`Incident`], never a crash. The whole campaign is a pure function of
//! its config: the same seed reproduces byte-identical certificates and
//! report, which is asserted by the integration tests and the
//! `check.sh --campaign-smoke` gate.
//!
//! # Anatomy of a probe
//!
//! 1. Build the topology from its seeded family; resolve the protocol.
//! 2. Run the system with the spec's fault plan wrapped around the faulty
//!    senders (the *faulted run*), and harvest the faulty nodes' outedge
//!    traces.
//! 3. Re-run with correct nodes afresh and the faulty nodes *replaying*
//!    the harvested traces ([`ReplayDevice::masquerade`]) — exactly the
//!    behavior [`Certificate::verify`] will later reconstruct, which is
//!    what makes the certificate reproduce bit-for-bit.
//! 4. Check the spec's agreement condition over the correct nodes minus
//!    any the degradation policy reclassified; if the faulty + degraded
//!    set exceeds the budget `f`, the probe is an incident (the finding
//!    would be outside the claimed fault model), not a violation.
//! 5. Wrap a violation as a single-link [`Certificate`] and self-verify
//!    it before reporting anything.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use flm_core::certificate::{Certificate, ChainLink, Theorem, Violation};
use flm_core::problems;
use flm_core::refute::AsyncCertificate;
use flm_core::shrink;
use flm_graph::{Graph, NodeId};
use flm_protocols::registry;
use flm_sim::async_sched::Strategy;
use flm_sim::campaign::{
    CampaignConfig, CampaignReport, GraphFamily, Incident, ProblemKind, RunSpec, ScenarioDims,
    SchedulerKind, ViolationRecord,
};
use flm_sim::replay::ReplayDevice;
use flm_sim::system::System;
use flm_sim::{
    contain_panics, EdgeBehavior, FaultPlan, Input, Protocol, RunPolicy, SystemBehavior,
};

/// Shrink-probe budget per violation: generous enough to walk a ring down
/// from hundreds of nodes (halving), small enough to bound campaign time.
const MAX_SHRINK_ATTEMPTS: usize = 64;

/// A concrete probed scenario: the topology (by family + seed, so it can
/// shrink within the family), the fault plan, and the run horizon.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Topology family.
    pub family: GraphFamily,
    /// Seed the family is built under.
    pub graph_seed: u64,
    /// The fault plan injected.
    pub plan: FaultPlan,
    /// Ticks the system runs.
    pub horizon: u32,
}

impl Scenario {
    /// The scenario's size in the shrinker's partial order.
    pub fn dims(&self) -> ScenarioDims {
        ScenarioDims {
            nodes: self.family.node_count(),
            rules: self.plan.rules().len(),
            horizon: self.horizon,
        }
    }
}

/// A concrete asynchronous probed scenario: the topology and the fairness
/// budget (deliveries) the scheduling adversary gets. There is no fault
/// plan — the adversary *is* the fault — so the shrinker's axes are the
/// graph family and the budget, and shrinking the budget shrinks the
/// witness schedule with it (a schedule never exceeds its budget).
#[derive(Debug, Clone)]
pub struct AsyncScenario {
    /// Topology family.
    pub family: GraphFamily,
    /// Seed the family is built under.
    pub graph_seed: u64,
    /// Which asynchronous chooser drives delivery.
    pub scheduler: SchedulerKind,
    /// Fairness budget in deliveries (`RunPolicy::max_ticks`).
    pub budget: u32,
}

impl AsyncScenario {
    /// The scenario's size in the shrinker's partial order: the budget
    /// rides in the `horizon` slot.
    pub fn dims(&self) -> ScenarioDims {
        ScenarioDims {
            nodes: self.family.node_count(),
            rules: 0,
            horizon: self.budget,
        }
    }
}

/// The strategy subset a scheduler kind probes: just the fair chooser, or
/// just the starvation adversaries from the refuter's default ladder.
fn async_strategies(scheduler: SchedulerKind, g: &Graph) -> Vec<Strategy> {
    match scheduler {
        SchedulerKind::Sync => unreachable!("sync cells never reach the async prober"),
        SchedulerKind::AsyncFair => vec![Strategy::Fair],
        SchedulerKind::AsyncAdversarial => flm_core::refute::default_strategies(g)
            .into_iter()
            .filter(|s| matches!(s, Strategy::Adversarial { .. }))
            .collect(),
    }
}

/// Probes one asynchronous scenario. `Ok(Some(cert))` is a self-verified
/// [`AsyncCertificate`]; `Ok(None)` means every explored schedule decided
/// and agreed; `Err((stage, detail))` is incident material.
pub fn probe_async(
    protocol: &dyn flm_sim::Protocol,
    scenario: &AsyncScenario,
    policy: &RunPolicy,
) -> Result<Option<AsyncCertificate>, (String, String)> {
    let g = scenario
        .family
        .build(scenario.graph_seed)
        .map_err(|e| ("build".to_string(), e.to_string()))?;
    let mut policy = *policy;
    policy.max_ticks = scenario.budget;
    let strategies = async_strategies(scenario.scheduler, &g);
    match flm_core::with_policy(policy, || {
        flm_core::refute::flp_async_under(protocol, &g, &strategies)
    }) {
        Ok(cert) => {
            cert.verify(protocol)
                .map_err(|e| ("self-check".to_string(), e.to_string()))?;
            Ok(Some(cert))
        }
        Err(flm_core::refute::RefuteError::Unrefuted { .. }) => Ok(None),
        Err(e) => Err(("async".to_string(), e.to_string())),
    }
}

/// Strictly smaller async candidates: shrink the graph within its family,
/// halve or decrement the fairness budget.
fn async_shrink_candidates(s: &AsyncScenario) -> Vec<(AsyncScenario, ScenarioDims)> {
    let mut out = Vec::new();
    for family in s.family.shrink_candidates() {
        let cand = AsyncScenario {
            family,
            ..s.clone()
        };
        let dims = cand.dims();
        out.push((cand, dims));
    }
    if s.budget > 1 {
        for b in [s.budget / 2, s.budget - 1] {
            if b >= 1 && b < s.budget {
                let cand = AsyncScenario {
                    budget: b,
                    ..s.clone()
                };
                let dims = cand.dims();
                out.push((cand, dims));
            }
        }
    }
    out
}

/// Shrinks an asynchronous violation to a local minimum that still refutes
/// the same condition — same [`shrink::greedy`] loop as the synchronous
/// path, generic over the certificate type. A smaller budget forces a
/// shorter witness schedule, so the emitted certificate's schedule shrinks
/// along with the scenario.
pub fn shrink_async_violation(
    protocol: &dyn flm_sim::Protocol,
    scenario: AsyncScenario,
    certificate: AsyncCertificate,
    policy: &RunPolicy,
) -> shrink::ShrinkOutcome<AsyncScenario, AsyncCertificate> {
    let original = certificate.condition;
    let dims = scenario.dims();
    shrink::greedy(
        scenario,
        certificate,
        dims,
        async_shrink_candidates,
        |cand| {
            let cert = probe_async(protocol, cand, policy).ok()??;
            if cert.condition != original {
                return None;
            }
            Some(cert)
        },
        MAX_SHRINK_ATTEMPTS,
    )
}

/// The FLM theorem family a campaign certificate is filed under.
fn theorem_for(problem: ProblemKind) -> Theorem {
    match problem {
        ProblemKind::ByzantineAgreement => Theorem::BaNodes,
        ProblemKind::WeakAgreement => Theorem::WeakAgreement,
        ProblemKind::FiringSquad => Theorem::FiringSquad,
        ProblemKind::ApproxAgreement => Theorem::SimpleApprox,
    }
}

/// The campaign's fixed input pattern per problem kind (deterministic, so
/// certificates reproduce): split boolean inputs for the agreement
/// problems, a stimulus at node 0 for the firing squad, evenly spread
/// reals for approximate agreement.
fn input_for(problem: ProblemKind, v: NodeId, n: usize) -> Input {
    match problem {
        ProblemKind::ByzantineAgreement | ProblemKind::WeakAgreement => {
            Input::Bool(v.0.is_multiple_of(2))
        }
        ProblemKind::FiringSquad => Input::Bool(v.0 == 0),
        ProblemKind::ApproxAgreement => Input::Real(f64::from(v.0) / n.max(1) as f64),
    }
}

/// Builds the system for a run: correct nodes get fresh protocol devices
/// (wrapped by the plan where it names them as senders), every device
/// construction contained.
fn faulted_system(
    protocol: &dyn Protocol,
    g: &Graph,
    plan: &FaultPlan,
    problem: ProblemKind,
) -> Result<System, String> {
    let n = g.node_count();
    let mut sys = System::new(g.clone());
    for v in g.nodes() {
        let device = contain_panics(|| protocol.device(g, v))
            .map_err(|msg| format!("device construction for {v} panicked: {msg}"))?;
        sys.assign(v, plan.wrap(v, device), input_for(problem, v, n));
    }
    Ok(sys)
}

/// Whole-run cache key for the faulted run: the problem's input pattern,
/// the protocol, the topology, the fault plan (seed and every rule), the
/// policy, and the horizon.
fn faulted_key(
    problem: ProblemKind,
    protocol: &dyn Protocol,
    g: &Graph,
    scenario: &Scenario,
    policy: &RunPolicy,
) -> flm_sim::runcache::RunKey {
    use flm_sim::faults::FaultAction;
    let mut w = flm_sim::wire::Writer::new();
    w.str("campaignfaulted");
    w.u8(match problem {
        ProblemKind::ByzantineAgreement => 0,
        ProblemKind::WeakAgreement => 1,
        ProblemKind::FiringSquad => 2,
        ProblemKind::ApproxAgreement => 3,
    });
    w.str(&protocol.name());
    w.bytes(&g.to_bytes());
    w.u64(scenario.plan.seed());
    let rules = scenario.plan.rules();
    w.u32(rules.len() as u32);
    for r in rules {
        w.u32(r.from.0);
        match r.to {
            None => {
                w.u8(0);
            }
            Some(v) => {
                w.u8(1).u32(v.0);
            }
        }
        w.u32(r.from_tick).u32(r.until_tick);
        match r.action {
            FaultAction::Drop => {
                w.u8(0);
            }
            FaultAction::Corrupt => {
                w.u8(1);
            }
            FaultAction::Equivocate => {
                w.u8(2);
            }
            FaultAction::Delay(d) => {
                w.u8(3).u32(d);
            }
        }
    }
    policy.encode(&mut w);
    let mut payload = w.finish();
    payload.extend_from_slice(&scenario.horizon.to_le_bytes());
    flm_sim::runcache::RunKey::new("campaignfaulted", payload)
}

/// Probes one scenario. `Ok(Some(cert))` is a self-verified violation
/// certificate; `Ok(None)` means the protocol survived; `Err((stage,
/// detail))` is incident material.
pub fn probe(
    problem: ProblemKind,
    protocol: &dyn Protocol,
    scenario: &Scenario,
    f: usize,
    policy: &RunPolicy,
) -> Result<Option<Certificate>, (String, String)> {
    let stage = |s: &'static str| move |detail: String| (s.to_string(), detail);
    let g = scenario
        .family
        .build(scenario.graph_seed)
        .map_err(|e| ("build".into(), e.to_string()))?;

    // Faulted run: the plan's injectors distort what the faulty senders
    // put on the wire; harvest those distorted outedge traces. Memoized in
    // the whole-run cache.
    let key = faulted_key(problem, protocol, &g, scenario, policy);
    let faulted = flm_sim::runcache::memoize_discrete(&key, || {
        faulted_system(protocol, &g, &scenario.plan, problem)
            .map_err(stage("run"))?
            .run_contained(scenario.horizon, policy)
            .map_err(|e| ("run".into(), e.to_string()))
    })?;
    let faulty: BTreeSet<NodeId> = scenario
        .plan
        .faulty_nodes()
        .into_iter()
        .filter(|v| v.index() < g.node_count())
        .collect();
    let correct: Vec<NodeId> = g.nodes().filter(|v| !faulty.contains(v)).collect();
    let masquerade: Vec<(NodeId, Vec<EdgeBehavior>)> = faulty
        .iter()
        .map(|&v| {
            let traces: Vec<EdgeBehavior> =
                g.neighbors(v).map(|w| faulted.edge(v, w).clone()).collect();
            (v, traces)
        })
        .collect();

    // Replay run: fresh correct devices, faulty nodes masquerading — the
    // exact behavior `Certificate::verify` reconstructs. Routed through the
    // shared link-run memoizer, so a violation's self-check rebuild is a
    // whole-run cache hit instead of a third simulation.
    let n = g.node_count();
    let replay_inputs: Vec<Input> = (0..n)
        .map(|i| input_for(problem, NodeId(i as u32), n))
        .collect();
    let behavior = flm_core::refute::memoize_link_run(
        &protocol.name(),
        &g,
        &correct,
        &masquerade,
        &replay_inputs,
        scenario.horizon,
        policy,
        || {
            let mut sys = System::new(g.clone());
            for &v in &correct {
                let device = contain_panics(|| protocol.device(&g, v))
                    .map_err(|msg| ("replay".into(), format!("device for {v} panicked: {msg}")))?;
                sys.assign(v, device, input_for(problem, v, n));
            }
            for (v, traces) in &masquerade {
                sys.assign(
                    *v,
                    Box::new(ReplayDevice::masquerade(traces.clone())),
                    input_for(problem, *v, n),
                );
            }
            Ok(sys)
        },
        |e| ("replay".into(), e.to_string()),
    )?;

    // Degradation accounting: nodes the containment policy quarantined
    // count against the fault budget. Blowing the budget means any
    // violation would sit outside the claimed fault model — incident.
    let degraded: Vec<NodeId> = behavior
        .misbehaving_nodes()
        .into_iter()
        .filter(|v| !faulty.contains(v))
        .collect();
    if faulty.len() + degraded.len() > f {
        return Err((
            "budget".into(),
            format!(
                "{} planned faulty + {} degraded nodes exceed f={f}",
                faulty.len(),
                degraded.len()
            ),
        ));
    }
    let effective: BTreeSet<NodeId> = correct
        .iter()
        .copied()
        .filter(|v| !degraded.contains(v))
        .collect();
    if effective.is_empty() {
        return Err(("budget".into(), "no effective correct nodes left".into()));
    }
    let all_correct = faulty.is_empty() && degraded.is_empty();

    let violation = match check(problem, &behavior, &effective, all_correct) {
        Ok(()) => return Ok(None),
        Err(v) => v,
    };

    let cert = Certificate {
        theorem: theorem_for(problem),
        protocol: protocol.name(),
        base: g,
        f,
        covering: format!(
            "chaos campaign: {} under {} fault rules (plan seed {:#x}); the faulted run's \
             outedge traces are the masquerade, so the Fault axiom licenses this behavior \
             directly — no covering transplant involved",
            scenario.family.name(),
            scenario.plan.rules().len(),
            scenario.plan.seed(),
        ),
        chain: vec![ChainLink {
            correct,
            masquerade,
            inputs: replay_inputs,
            scenario_matched: true,
            decisions: behavior.decisions(),
            horizon: scenario.horizon,
            misbehavior: behavior.misbehavior().to_vec(),
            degraded,
        }],
        policy: *policy,
        violation,
    };
    // Self-check before reporting anything: a certificate the audit path
    // would reject is a campaign bug, not a finding.
    cert.verify(protocol)
        .map_err(|e| ("self-check".into(), e.to_string()))?;
    Ok(Some(cert))
}

/// Runs the problem's condition checker over the effective correct set.
fn check(
    problem: ProblemKind,
    behavior: &SystemBehavior,
    effective: &BTreeSet<NodeId>,
    all_correct: bool,
) -> Result<(), Violation> {
    match problem {
        ProblemKind::ByzantineAgreement => problems::byzantine_agreement(behavior, effective, 0),
        ProblemKind::WeakAgreement => problems::weak_agreement(behavior, effective, all_correct, 0),
        ProblemKind::FiringSquad => problems::firing_squad(behavior, effective, all_correct, 0),
        ProblemKind::ApproxAgreement => problems::simple_approx(behavior, effective, 0),
    }
}

/// Strictly smaller scenario candidates, in the deterministic order the
/// shrinker probes them: drop one fault rule (each index), shrink the
/// graph within its family (restricting the plan to surviving edges),
/// halve or decrement the horizon.
fn shrink_candidates(s: &Scenario) -> Vec<(Scenario, ScenarioDims)> {
    let mut out = Vec::new();
    for i in 0..s.plan.rules().len() {
        let cand = Scenario {
            plan: s.plan.clone().without_rule(i),
            ..s.clone()
        };
        let dims = cand.dims();
        out.push((cand, dims));
    }
    for family in s.family.shrink_candidates() {
        if let Ok(g) = family.build(s.graph_seed) {
            let cand = Scenario {
                family,
                graph_seed: s.graph_seed,
                plan: s.plan.clone().restricted_to(&g),
                horizon: s.horizon,
            };
            let dims = cand.dims();
            out.push((cand, dims));
        }
    }
    if s.horizon > 1 {
        for h in [s.horizon / 2, s.horizon - 1] {
            if h >= 1 && h < s.horizon {
                let cand = Scenario {
                    horizon: h,
                    ..s.clone()
                };
                let dims = cand.dims();
                out.push((cand, dims));
            }
        }
    }
    out
}

/// Shrinks a violating scenario to a local minimum that still refutes the
/// *same condition* through the full verify path.
pub fn shrink_violation(
    problem: ProblemKind,
    protocol: &dyn Protocol,
    scenario: Scenario,
    certificate: Certificate,
    f: usize,
    policy: &RunPolicy,
) -> shrink::ShrinkOutcome<Scenario> {
    let original = certificate.violation.condition;
    let dims = scenario.dims();
    shrink::greedy(
        scenario,
        certificate,
        dims,
        shrink_candidates,
        |cand| {
            let cert = probe(problem, protocol, cand, f, policy).ok()??;
            shrink::reverify_same_condition(&cert, protocol, original).ok()?;
            Some(cert)
        },
        MAX_SHRINK_ATTEMPTS,
    )
}

/// What a campaign produced: the report plus the shrunk certificates as
/// `(file name, FLMC bytes)` pairs, in spec order. Pure data — writing to
/// disk is [`write_campaign`]'s job, so tests can assert byte-identity
/// without touching the filesystem.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// The deterministic campaign report.
    pub report: CampaignReport,
    /// Certificate files: deterministic names, portable FLMC bytes.
    pub certs: Vec<(String, Vec<u8>)>,
}

enum ProbeResult {
    Clean,
    Violation(Box<(Scenario, Certificate)>),
    AsyncViolation(Box<(AsyncScenario, AsyncCertificate)>),
    Incident(Incident),
}

/// Runs the full campaign: probe every spec in parallel (input-ordered,
/// so parallelism never perturbs the output), shrink every violation,
/// emit certificates and the report.
pub fn run_campaign(config: &CampaignConfig) -> CampaignOutcome {
    let specs = config.specs();
    let runs = specs.len();
    let results: Vec<(RunSpec, ProbeResult)> = flm_par::par_map(specs, |spec| {
        let result = probe_spec(&spec, config);
        (spec, result)
    });

    let mut incidents = Vec::new();
    let mut found: Vec<(RunSpec, Scenario, Certificate)> = Vec::new();
    let mut found_async: Vec<(RunSpec, AsyncScenario, AsyncCertificate)> = Vec::new();
    for (spec, result) in results {
        match result {
            ProbeResult::Clean => {}
            ProbeResult::Incident(incident) => incidents.push(incident),
            ProbeResult::Violation(boxed) => {
                let (scenario, cert) = *boxed;
                found.push((spec, scenario, cert));
            }
            ProbeResult::AsyncViolation(boxed) => {
                let (scenario, cert) = *boxed;
                found_async.push((spec, scenario, cert));
            }
        }
    }

    let shrunk: Vec<Option<(RunSpec, Scenario, shrink::ShrinkOutcome<Scenario>)>> =
        flm_par::par_map(found, |(spec, scenario, cert)| {
            let protocol = match flm_protocols::resolve(&spec.protocol) {
                Ok(p) => p,
                Err(_) => return None,
            };
            let original = scenario.clone();
            let outcome = shrink_violation(
                spec.problem,
                &*protocol,
                scenario,
                cert,
                spec.f,
                &config.policy,
            );
            Some((spec, original, outcome))
        });
    type ShrunkAsync = (
        RunSpec,
        AsyncScenario,
        shrink::ShrinkOutcome<AsyncScenario, AsyncCertificate>,
    );
    let shrunk_async: Vec<Option<ShrunkAsync>> =
        flm_par::par_map(found_async, |(spec, scenario, cert)| {
            let protocol = match flm_protocols::resolve(&spec.protocol) {
                Ok(p) => p,
                Err(_) => return None,
            };
            let original = scenario.clone();
            let outcome = shrink_async_violation(&*protocol, scenario, cert, &config.policy);
            Some((spec, original, outcome))
        });

    let mut violations = Vec::new();
    let mut certs = Vec::new();
    for (spec, original, outcome) in shrunk.into_iter().flatten() {
        let cert_file = format!("c{:03}-{}.flmc", spec.index, spec.problem.name());
        violations.push(ViolationRecord {
            spec: spec.index,
            problem: spec.problem.name().into(),
            protocol: spec.protocol.clone(),
            graph: original.family.name(),
            scheduler: spec.scheduler.name().into(),
            condition: outcome.certificate.violation.condition.to_string(),
            original: original.dims(),
            shrunk: outcome.dims,
            shrink_attempts: outcome.attempts,
            shrink_accepted: outcome.accepted,
            cert_file: cert_file.clone(),
        });
        certs.push((cert_file, outcome.certificate.to_bytes()));
    }
    for (spec, original, outcome) in shrunk_async.into_iter().flatten() {
        let cert_file = format!("c{:03}-flp-async.flmc", spec.index);
        violations.push(ViolationRecord {
            spec: spec.index,
            problem: spec.problem.name().into(),
            protocol: spec.protocol.clone(),
            graph: original.family.name(),
            scheduler: spec.scheduler.name().into(),
            condition: outcome.certificate.condition.to_string(),
            original: original.dims(),
            shrunk: outcome.dims,
            shrink_attempts: outcome.attempts,
            shrink_accepted: outcome.accepted,
            cert_file: cert_file.clone(),
        });
        certs.push((cert_file, outcome.certificate.to_bytes()));
    }
    // Interleaved probes finish in input order per pass; merging the two
    // passes by spec index keeps the report and file list deterministic.
    violations.sort_by_key(|v| v.spec);
    certs.sort();

    CampaignOutcome {
        report: CampaignReport {
            seed: config.seed,
            protocols: config.protocols.len(),
            graphs: config.graphs.len(),
            rule_counts: config.rule_counts.len(),
            schedulers: config.schedulers.len(),
            runs,
            violations,
            incidents,
        },
        certs,
    }
}

/// Probes one spec end to end, folding every failure into an incident.
fn probe_spec(spec: &RunSpec, config: &CampaignConfig) -> ProbeResult {
    let incident = |stage: &str, detail: String| {
        ProbeResult::Incident(Incident {
            spec: spec.index,
            stage: stage.into(),
            detail,
        })
    };
    let protocol = match flm_protocols::resolve(&spec.protocol) {
        Ok(p) => p,
        Err(e) => return incident("resolve", e.to_string()),
    };
    if spec.scheduler != SchedulerKind::Sync {
        let scenario = AsyncScenario {
            family: spec.graph,
            graph_seed: spec.graph_seed,
            scheduler: spec.scheduler,
            budget: config.policy.max_ticks.max(1),
        };
        return match probe_async(&*protocol, &scenario, &config.policy) {
            Ok(Some(cert)) => ProbeResult::AsyncViolation(Box::new((scenario, cert))),
            Ok(None) => ProbeResult::Clean,
            Err((stage, detail)) => incident(&stage, detail),
        };
    }
    let g = match spec.graph.build(spec.graph_seed) {
        Ok(g) => g,
        Err(e) => return incident("build", e.to_string()),
    };
    let horizon = protocol
        .horizon(&g)
        .clamp(1, config.policy.max_ticks.max(1));
    let scenario = Scenario {
        family: spec.graph,
        graph_seed: spec.graph_seed,
        plan: spec.plan(&g, horizon),
        horizon,
    };
    match probe(spec.problem, &*protocol, &scenario, spec.f, &config.policy) {
        Ok(Some(cert)) => ProbeResult::Violation(Box::new((scenario, cert))),
        Ok(None) => ProbeResult::Clean,
        Err((stage, detail)) => incident(&stage, detail),
    }
}

/// The fixed smoke campaign `check.sh --campaign-smoke` and the
/// integration tests run: the full protocol zoo over four small topology
/// families, fault-free and 2-rule plans, `f = 1`.
pub fn smoke_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        protocols: registry::zoo(1),
        graphs: vec![
            GraphFamily::Ring { n: 6 },
            GraphFamily::Complete { n: 4 },
            GraphFamily::RandomRegular { n: 8, d: 3 },
            GraphFamily::Expander { n: 8 },
        ],
        rule_counts: vec![0, 2],
        schedulers: vec![SchedulerKind::Sync],
        f: 1,
        policy: RunPolicy::default(),
    }
}

/// The default full campaign `regen --campaign` runs: the smoke families
/// plus larger seeded graphs, a giant 1200-node covering ring, and deeper
/// fault plans.
pub fn full_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        protocols: registry::zoo(1),
        graphs: vec![
            GraphFamily::Ring { n: 6 },
            GraphFamily::Complete { n: 4 },
            GraphFamily::Complete { n: 7 },
            GraphFamily::RandomRegular { n: 12, d: 3 },
            GraphFamily::Expander { n: 16 },
            GraphFamily::RingCover {
                base: 3,
                weight: 400,
            },
            GraphFamily::RingCover { base: 4, weight: 4 },
        ],
        rule_counts: vec![0, 2, 4],
        schedulers: vec![SchedulerKind::Sync],
        f: 1,
        policy: RunPolicy::default(),
    }
}

/// Widens a config's scheduler axis and — when an async kind joins the
/// sweep — folds the registry's asynchronous prey into the protocol list,
/// so the axis has something the scheduling adversary can actually starve.
/// The sync axis alone leaves the config byte-for-byte compatible with the
/// classic campaign (same specs, same certificates).
pub fn with_schedulers(
    mut config: CampaignConfig,
    schedulers: Vec<SchedulerKind>,
) -> CampaignConfig {
    if schedulers.iter().any(|&k| k != SchedulerKind::Sync) {
        for (problem, name) in registry::async_zoo(config.f) {
            if !config.protocols.iter().any(|(_, p)| *p == name) {
                config.protocols.push((problem, name));
            }
        }
    }
    config.schedulers = schedulers;
    config
}

/// Writes a campaign's certificates and `campaign_report.json` under
/// `dir` (created if absent) and returns the report path.
///
/// # Errors
///
/// Any I/O failure creating the directory or writing a file.
pub fn write_campaign(outcome: &CampaignOutcome, dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    for (name, bytes) in &outcome.certs {
        std::fs::write(dir.join(name), bytes)?;
    }
    let report_path = dir.join("campaign_report.json");
    std::fs::write(&report_path, outcome.report.to_json())?;
    Ok(report_path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_finds_table_protocol_breaking_agreement() {
        let protocol = flm_protocols::resolve("Table(7)").unwrap();
        let scenario = Scenario {
            family: GraphFamily::Ring { n: 6 },
            graph_seed: 1,
            plan: FaultPlan::new(1),
            horizon: protocol.horizon(&GraphFamily::Ring { n: 6 }.build(1).unwrap()),
        };
        let cert = probe(
            ProblemKind::ByzantineAgreement,
            &*protocol,
            &scenario,
            1,
            &RunPolicy::default(),
        )
        .unwrap()
        .expect("a random decision table must break agreement on 6 nodes");
        assert!(cert.verify(&*protocol).is_ok());
    }

    #[test]
    fn shrink_reduces_the_table_scenario() {
        let protocol = flm_protocols::resolve("Table(7)").unwrap();
        let family = GraphFamily::Ring { n: 6 };
        let g = family.build(1).unwrap();
        let horizon = protocol.horizon(&g);
        let scenario = Scenario {
            family,
            graph_seed: 1,
            plan: FaultPlan::new(1),
            horizon,
        };
        let cert = probe(
            ProblemKind::ByzantineAgreement,
            &*protocol,
            &scenario,
            1,
            &RunPolicy::default(),
        )
        .unwrap()
        .unwrap();
        let outcome = shrink_violation(
            ProblemKind::ByzantineAgreement,
            &*protocol,
            scenario.clone(),
            cert,
            1,
            &RunPolicy::default(),
        );
        assert!(
            outcome.dims.nodes < scenario.dims().nodes || outcome.dims.horizon < scenario.horizon,
            "a table violation on ring6 should shrink, got {:?}",
            outcome.dims
        );
        assert!(outcome.certificate.verify(&*protocol).is_ok());
    }

    #[test]
    fn async_probe_starves_the_prey_and_shrinks_the_budget() {
        let protocol = flm_protocols::resolve("WaitForAll").unwrap();
        let scenario = AsyncScenario {
            family: GraphFamily::Complete { n: 4 },
            graph_seed: 0,
            scheduler: SchedulerKind::AsyncAdversarial,
            budget: RunPolicy::default().max_ticks.max(1),
        };
        let cert = probe_async(&*protocol, &scenario, &RunPolicy::default())
            .unwrap()
            .expect("the starvation adversary must starve WaitForAll on K4");
        let outcome =
            shrink_async_violation(&*protocol, scenario.clone(), cert, &RunPolicy::default());
        assert!(
            outcome.dims.horizon < scenario.budget || outcome.dims.nodes < 4,
            "an async violation should shrink, got {:?}",
            outcome.dims
        );
        assert!(
            outcome.certificate.schedule.len() as u64 <= u64::from(outcome.dims.horizon),
            "the witness schedule must fit the shrunk budget"
        );
        assert!(outcome.certificate.verify(&*protocol).is_ok());
    }

    #[test]
    fn async_campaign_cells_report_their_scheduler() {
        // A one-protocol async-only campaign: the prey on two small graphs,
        // fair + adversarial axes. Deterministic end to end.
        let config = CampaignConfig {
            seed: 7,
            protocols: vec![(ProblemKind::ByzantineAgreement, "WaitForAll".into())],
            graphs: vec![
                GraphFamily::Complete { n: 3 },
                GraphFamily::Complete { n: 4 },
            ],
            rule_counts: vec![0],
            schedulers: vec![SchedulerKind::AsyncFair, SchedulerKind::AsyncAdversarial],
            f: 1,
            policy: RunPolicy::default(),
        };
        let outcome = run_campaign(&config);
        assert!(outcome.report.incidents.is_empty(), "{:?}", outcome.report);
        assert!(
            outcome
                .report
                .violations
                .iter()
                .any(|v| v.scheduler == "async-adversarial"),
            "the adversarial axis must starve the prey: {:?}",
            outcome.report.violations
        );
        for v in &outcome.report.violations {
            assert!(v.cert_file.contains("flp-async"), "{}", v.cert_file);
        }
        // Same seed, same campaign — byte-identical certificates.
        assert_eq!(run_campaign(&config), outcome);
        // Every emitted certificate decodes as a kind-2 FLMC image.
        for (_, bytes) in &outcome.certs {
            assert!(matches!(
                flm_core::codec::decode_any(bytes).unwrap(),
                flm_core::codec::AnyCertificate::Async(_)
            ));
        }
    }

    #[test]
    fn with_schedulers_folds_in_the_async_prey_only_when_asked() {
        let sync = with_schedulers(smoke_config(1), vec![SchedulerKind::Sync]);
        assert!(!sync.protocols.iter().any(|(_, p)| p == "WaitForAll"));
        let both = with_schedulers(
            smoke_config(1),
            vec![SchedulerKind::Sync, SchedulerKind::AsyncAdversarial],
        );
        assert!(both.protocols.iter().any(|(_, p)| p == "WaitForAll"));
        // NaiveMajority is already in the zoo; folding must not duplicate it.
        let majority = both
            .protocols
            .iter()
            .filter(|(_, p)| p == "NaiveMajority")
            .count();
        assert_eq!(majority, 1);
    }

    #[test]
    fn adequate_protocol_survives_its_home_graph() {
        // EIG(f=1) on K4 is the positive control: the campaign must NOT
        // report a violation for a correct protocol on an adequate graph
        // with no faults.
        let protocol = flm_protocols::resolve("EIG(f=1)").unwrap();
        let family = GraphFamily::Complete { n: 4 };
        let g = family.build(0).unwrap();
        let scenario = Scenario {
            family,
            graph_seed: 0,
            plan: FaultPlan::new(0),
            horizon: protocol.horizon(&g),
        };
        let result = probe(
            ProblemKind::ByzantineAgreement,
            &*protocol,
            &scenario,
            1,
            &RunPolicy::default(),
        );
        assert!(matches!(result, Ok(None)), "EIG on K4 must survive");
    }
}
