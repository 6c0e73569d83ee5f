//! Campaign acceptance tests: a fixed-seed campaign over the protocol zoo
//! (4 problem families) × 4 graph families must find violations, shrink
//! them strictly, emit certificates that pass the audit path with exit 0,
//! and reproduce byte-identically from the same seed.

use flm_bench::campaign::{run_campaign, smoke_config};
use flm_serve::audit::{audit_bytes, EXIT_VERIFIED};

#[test]
fn fixed_seed_campaign_finds_shrinks_audits_and_reproduces() {
    let config = smoke_config(0xF1A);
    // The sweep is wide enough for the acceptance bar: ≥ 3 protocol
    // families × ≥ 3 graph families.
    let problem_kinds: std::collections::BTreeSet<_> =
        config.protocols.iter().map(|(k, _)| *k).collect();
    assert!(problem_kinds.len() >= 3, "need ≥ 3 protocol families");
    assert!(config.graphs.len() >= 3, "need ≥ 3 graph families");

    let outcome = run_campaign(&config);
    assert_eq!(
        outcome.report.runs,
        config.protocols.len() * config.graphs.len() * config.rule_counts.len()
    );

    // Finds at least one violation (random-table and naive protocols are
    // guaranteed prey), and every probe ended structurally: violation,
    // clean, or incident — the campaign itself never crashed to get here.
    assert!(
        !outcome.report.violations.is_empty(),
        "campaign found no violations"
    );
    assert_eq!(outcome.certs.len(), outcome.report.violations.len());

    // Shrinking: never grows, and at least one violation got strictly
    // smaller in nodes or fault-plan entries.
    for v in &outcome.report.violations {
        assert!(v.shrunk.nodes <= v.original.nodes, "{v:?} grew in nodes");
        assert!(v.shrunk.rules <= v.original.rules, "{v:?} grew in rules");
        assert!(
            v.shrunk.horizon <= v.original.horizon,
            "{v:?} grew in horizon"
        );
    }
    assert!(
        outcome
            .report
            .violations
            .iter()
            .any(|v| v.shrunk.nodes < v.original.nodes || v.shrunk.rules < v.original.rules),
        "no violation shrank in nodes or rules: {:#?}",
        outcome.report.violations
    );
    assert!(outcome.report.mean_shrink_ratio() > 1.0);

    // Every emitted certificate passes the audit path with exit 0 — the
    // same verdict logic `flm-audit` runs on the file.
    for (name, bytes) in &outcome.certs {
        let audit = audit_bytes(bytes, false);
        assert_eq!(
            audit.exit_code, EXIT_VERIFIED,
            "{name} failed audit: {}",
            audit.diagnostics
        );
    }

    // Same seed ⇒ byte-identical certificates and report.
    let again = run_campaign(&config);
    assert_eq!(
        outcome.report.to_json(),
        again.report.to_json(),
        "report not reproducible"
    );
    assert_eq!(outcome.certs, again.certs, "certificates not reproducible");

    // A different seed changes derived plans/graphs — the sweep actually
    // depends on its seed.
    let other = run_campaign(&smoke_config(0xBEE));
    assert_ne!(outcome.report.to_json(), other.report.to_json());
}

#[test]
fn campaign_incidents_are_structured_not_crashes() {
    // A degenerate graph family in the sweep must surface as a `build`
    // incident while the rest of the campaign proceeds normally.
    let mut config = smoke_config(3);
    config
        .graphs
        .push(flm_sim::campaign::GraphFamily::RandomRegular { n: 5, d: 3 });
    let outcome = run_campaign(&config);
    assert!(
        outcome.report.incidents.iter().any(|i| i.stage == "build"),
        "degenerate builder parameters should be build incidents: {:?}",
        outcome.report.incidents
    );
    assert!(!outcome.report.violations.is_empty());
}

#[test]
fn campaign_is_byte_identical_sequential_and_parallel() {
    // Same seed, once inline under `flm_par::sequential` and once on the
    // pool: thread count must be invisible in the report and the
    // certificates. The run cache is cleared so both legs simulate.
    let config = smoke_config(0x5EC);
    flm_sim::runcache::clear();
    let sequential = flm_par::sequential(|| run_campaign(&config));
    flm_sim::runcache::clear();
    let parallel = run_campaign(&config);
    assert!(!sequential.certs.is_empty(), "campaign found no violations");
    assert_eq!(
        sequential.report.to_json(),
        parallel.report.to_json(),
        "report differs between sequential and parallel runs"
    );
    assert_eq!(
        sequential.certs, parallel.certs,
        "certificates differ between sequential and parallel runs"
    );
}
