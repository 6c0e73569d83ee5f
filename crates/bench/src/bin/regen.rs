//! Regenerates the tables recorded in EXPERIMENTS.md, and — with `--bench` —
//! the machine-readable perf snapshots `BENCH_substrate.json`,
//! `BENCH_refuters.json`, `BENCH_runcache.json`, `BENCH_serve.json`, and
//! `BENCH_campaign.json`.
//! With `--refute`, runs one refuter and writes the resulting certificate to
//! disk in the portable `FLMC` format, where `flm-audit` can re-verify it
//! independently.
//!
//! Run with:
//!
//! With `--campaign`, runs a seed-deterministic chaos campaign over the
//! protocol zoo × graph families × fault plans, shrinks every violation,
//! and writes the certificates plus `campaign_report.json` to a directory
//! (`flm-audit --batch DIR` checks the lot).
//!
//! ```text
//! cargo run -p flm-bench --bin regen                    # markdown tables
//! cargo run -p flm-bench --bin regen -- --bench substrate [--samples N] [--out FILE]
//! cargo run -p flm-bench --bin regen -- --bench refuters  [--samples N] [--out FILE]
//! cargo run -p flm-bench --bin regen -- --refute THEOREM --emit-cert FILE \
//!     [--protocol NAME] [--f N] [--graph GRAPH] \
//!     [--max-ticks N] [--max-payload-bytes N]
//! cargo run -p flm-bench --bin regen -- --campaign --out-dir DIR \
//!     [--seed N] [--scale smoke|full] \
//!     [--scheduler sync|async-fair|async-adversarial]...
//! ```
//!
//! `THEOREM` is one of `ba-nodes`, `ba-connectivity`, `weak-agreement`,
//! `firing-squad`, `simple-approx`, `eps-delta-gamma`, `clock-sync`,
//! `flp-async`;
//! `GRAPH` is `triangle`, `cycleN`, `completeN`, or `pathN`. The protocol
//! name is resolved through the `flm-protocols` registry, so anything the
//! registry accepts can be refuted; defaults are canonical per theorem.
//! The `--max-*` flags tighten the run policy recorded in the certificate.
//!
//! The theorem/graph grammar and the refutation code path live in
//! `flm_serve::query` — the same module the `flm-serve` RPC handler runs —
//! so a certificate written here is byte-identical to one served over the
//! wire for the same query.

use flm_bench::{campaign, experiments, suites};
use flm_core::codec::AnyCertificate;
use flm_serve::query::{self, Theorem};
use flm_sim::campaign::SchedulerKind;
use flm_sim::RunPolicy;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Mode::Tables) => print_tables(),
        Ok(Mode::Bench(bench)) => run_bench(&bench),
        Ok(Mode::Refute(refute)) => {
            if let Err(msg) = run_refute(&refute) {
                eprintln!("regen: {msg}");
                std::process::exit(1);
            }
        }
        Ok(Mode::Campaign(campaign)) => {
            if let Err(msg) = run_campaign_cli(&campaign) {
                eprintln!("regen: {msg}");
                std::process::exit(1);
            }
        }
        Err(msg) => {
            eprintln!("regen: {msg}");
            eprintln!(
                "usage: regen [--bench substrate|refuters|runcache|serve|campaign] [--samples N] [--out FILE]\n\
                 \x20      regen --refute THEOREM --emit-cert FILE [--protocol NAME] [--f N] \
                 [--graph GRAPH] [--max-ticks N] [--max-payload-bytes N]\n\
                 \x20      regen --campaign --out-dir DIR [--seed N] [--scale smoke|full] \
                 [--scheduler sync|async-fair|async-adversarial]..."
            );
            std::process::exit(2);
        }
    }
}

enum Mode {
    Tables,
    Bench(BenchArgs),
    Refute(RefuteArgs),
    Campaign(CampaignArgs),
}

struct CampaignArgs {
    out_dir: String,
    seed: u64,
    scale: String,
    schedulers: Vec<SchedulerKind>,
}

struct BenchArgs {
    suite: String,
    samples: usize,
    out: Option<String>,
}

struct RefuteArgs {
    theorem: String,
    emit_cert: String,
    protocol: Option<String>,
    f: usize,
    graph: Option<String>,
    max_ticks: Option<u32>,
    max_payload_bytes: Option<usize>,
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut suite = None;
    let mut samples = 15usize;
    let mut out = None;
    let mut theorem = None;
    let mut emit_cert = None;
    let mut protocol = None;
    let mut f = 1usize;
    let mut graph = None;
    let mut max_ticks = None;
    let mut max_payload_bytes = None;
    let mut campaign_mode = false;
    let mut out_dir = None;
    let mut seed = 0xF1Au64;
    let mut seed_given = false;
    let mut scale = "full".to_string();
    let mut scale_given = false;
    let mut schedulers: Vec<SchedulerKind> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = |it: &mut std::slice::Iter<String>| {
            it.next().cloned().ok_or(format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--bench" => {
                let s = value(&mut it)?;
                if !["substrate", "refuters", "runcache", "serve", "campaign"].contains(&s.as_str())
                {
                    return Err(format!(
                        "unknown suite {s:?} (want substrate, refuters, runcache, serve, \
                         or campaign)"
                    ));
                }
                suite = Some(s);
            }
            "--campaign" => campaign_mode = true,
            "--out-dir" => out_dir = Some(value(&mut it)?),
            "--seed" => {
                let raw = value(&mut it)?;
                // Accept both decimal and the 0x-prefixed hex the campaign
                // report prints, so a seed can be pasted back verbatim.
                seed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => raw.parse(),
                }
                .map_err(|e| format!("--seed {raw:?}: {e}"))?;
                seed_given = true;
            }
            "--scale" => {
                scale = value(&mut it)?;
                if scale != "smoke" && scale != "full" {
                    return Err(format!("unknown scale {scale:?} (want smoke or full)"));
                }
                scale_given = true;
            }
            "--scheduler" => {
                let kind = SchedulerKind::parse(&value(&mut it)?)?;
                if !schedulers.contains(&kind) {
                    schedulers.push(kind);
                }
            }
            "--samples" => {
                samples = value(&mut it)?
                    .parse()
                    .map_err(|e| format!("--samples: {e}"))?;
                if samples == 0 {
                    return Err("--samples must be positive".into());
                }
            }
            "--out" => out = Some(value(&mut it)?),
            "--refute" => theorem = Some(value(&mut it)?),
            "--emit-cert" => emit_cert = Some(value(&mut it)?),
            "--protocol" => protocol = Some(value(&mut it)?),
            "--f" => {
                f = value(&mut it)?.parse().map_err(|e| format!("--f: {e}"))?;
                if f == 0 {
                    return Err("--f must be positive".into());
                }
            }
            "--graph" => graph = Some(value(&mut it)?),
            "--max-ticks" => {
                max_ticks = Some(
                    value(&mut it)?
                        .parse()
                        .map_err(|e| format!("--max-ticks: {e}"))?,
                );
            }
            "--max-payload-bytes" => {
                max_payload_bytes = Some(
                    value(&mut it)?
                        .parse()
                        .map_err(|e| format!("--max-payload-bytes: {e}"))?,
                );
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if campaign_mode {
        if theorem.is_some() || suite.is_some() || out.is_some() || emit_cert.is_some() {
            return Err("--refute/--bench/--out/--emit-cert do not apply with --campaign".into());
        }
        let out_dir = out_dir.ok_or("--campaign needs --out-dir DIR")?;
        if schedulers.is_empty() {
            schedulers.push(SchedulerKind::Sync);
        }
        return Ok(Mode::Campaign(CampaignArgs {
            out_dir,
            seed,
            scale,
            schedulers,
        }));
    }
    if out_dir.is_some() || seed_given || scale_given || !schedulers.is_empty() {
        return Err("--out-dir/--seed/--scale/--scheduler only apply with --campaign".into());
    }
    if let Some(theorem) = theorem {
        if suite.is_some() || out.is_some() {
            return Err("--bench/--out do not apply with --refute".into());
        }
        let emit_cert = emit_cert.ok_or("--refute needs --emit-cert FILE")?;
        return Ok(Mode::Refute(RefuteArgs {
            theorem,
            emit_cert,
            protocol,
            f,
            graph,
            max_ticks,
            max_payload_bytes,
        }));
    }
    if emit_cert.is_some() || protocol.is_some() || graph.is_some() {
        return Err("--emit-cert/--protocol/--graph only apply with --refute".into());
    }
    match suite {
        Some(suite) => Ok(Mode::Bench(BenchArgs {
            suite,
            samples,
            out,
        })),
        None if samples != 15 || out.is_some() => {
            Err("--samples/--out only apply with --bench".into())
        }
        None => Ok(Mode::Tables),
    }
}

fn run_refute(args: &RefuteArgs) -> Result<(), String> {
    let mut policy = RunPolicy::default();
    if let Some(t) = args.max_ticks {
        policy.max_ticks = t;
    }
    if let Some(b) = args.max_payload_bytes {
        policy.max_payload_bytes = b;
    }
    let theorem = Theorem::parse(&args.theorem).map_err(|e| e.to_string())?;
    let graph = match &args.graph {
        Some(name) => Some(query::parse_graph(name).map_err(|e| e.to_string())?),
        None => None,
    };
    let bytes = query::refute_to_bytes(
        theorem,
        args.protocol.as_deref(),
        graph.as_ref(),
        args.f,
        policy,
    )
    .map_err(|e| e.to_string())?;
    std::fs::write(&args.emit_cert, &bytes)
        .map_err(|e| format!("writing {}: {e}", args.emit_cert))?;
    match flm_core::codec::decode_any(&bytes).map_err(|e| e.to_string())? {
        AnyCertificate::Discrete(cert) => eprintln!(
            "wrote {} ({}, {} chain links)",
            args.emit_cert,
            cert.protocol,
            cert.chain.len()
        ),
        AnyCertificate::Clock(cert) => eprintln!("wrote {} ({})", args.emit_cert, cert.protocol),
        AnyCertificate::Async(cert) => eprintln!(
            "wrote {} ({}, {} scheduled deliveries, strategy {})",
            args.emit_cert,
            cert.protocol,
            cert.schedule.len(),
            cert.strategy
        ),
    }
    print_profile();
    Ok(())
}

/// With `FLM_PROFILE=1`, prints the per-phase timing and run-cache summary
/// accumulated over the refutation (and its verification) to stderr.
fn print_profile() {
    if flm_core::profile::enabled() {
        eprint!("{}", flm_core::profile::report());
    }
}

fn run_campaign_cli(args: &CampaignArgs) -> Result<(), String> {
    let config = match args.scale.as_str() {
        "smoke" => campaign::smoke_config(args.seed),
        _ => campaign::full_config(args.seed),
    };
    let config = campaign::with_schedulers(config, args.schedulers.clone());
    let outcome = campaign::run_campaign(&config);
    let report_path = campaign::write_campaign(&outcome, std::path::Path::new(&args.out_dir))
        .map_err(|e| format!("writing {}: {e}", args.out_dir))?;
    eprintln!(
        "campaign seed {:#x} ({} scale): {} runs, {} violations (mean shrink ratio {:.2}x in \
         nodes), {} incidents",
        outcome.report.seed,
        args.scale,
        outcome.report.runs,
        outcome.report.violations.len(),
        outcome.report.mean_shrink_ratio(),
        outcome.report.incidents.len(),
    );
    eprintln!(
        "wrote {} certificates and {}",
        outcome.certs.len(),
        report_path.display()
    );
    print_profile();
    Ok(())
}

fn run_bench(args: &BenchArgs) {
    let suite = match args.suite.as_str() {
        "substrate" => suites::substrate_suite(args.samples),
        "runcache" => suites::runcache_suite(args.samples),
        "serve" => suites::serve_suite(args.samples),
        "campaign" => suites::campaign_suite(args.samples),
        _ => suites::refuter_suite(args.samples),
    };
    let json = suites::to_json(&args.suite, &suite);
    match &args.out {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            for (label, ratio) in &suite.speedups {
                eprintln!("{label}: {ratio:.2}x");
            }
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
}

fn print_tables() {
    println!("# FLM experiment tables (regenerated)\n");

    println!("## E9 — adequacy frontier\n");
    println!("| graph | n | κ | f | adequate | outcome |");
    println!("|---|---|---|---|---|---|");
    for r in experiments::frontier_rows(false) {
        let outcome = match r.outcome {
            experiments::FrontierOutcome::Refuted { bound } => {
                format!("refuted ({bound} bound), certificate verified")
            }
            experiments::FrontierOutcome::ProtocolWins => "protocol succeeds".into(),
        };
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            r.graph, r.n, r.kappa, r.f, r.adequate, outcome
        );
    }

    println!("\n## E11 — protocol costs (honest mixed-input runs)\n");
    println!("| protocol | graph | f | ticks | bytes on wire |");
    println!("|---|---|---|---|---|");
    for r in experiments::protocol_cost_rows() {
        println!(
            "| {} | {} | {} | {} | {} |",
            r.protocol, r.graph, r.f, r.rounds, r.bytes
        );
    }

    println!("\n## E6/E11 — DLPSW convergence on K4, one random Byzantine node\n");
    println!("| rounds | measured spread | guaranteed bound Δ/2^R |");
    println!("|---|---|---|");
    for r in experiments::approx_convergence_rows(6, 3) {
        println!("| {} | {:.6} | {:.6} |", r.rounds, r.spread, r.bound);
    }

    println!("\n## E3/E6/E7 — refutation apparatus sizes\n");
    println!("| construction | parameter | cover nodes | chain length |");
    println!("|---|---|---|---|");
    let mut rows = vec![experiments::weak_ring_row()];
    rows.extend(experiments::general_ring_rows());
    rows.extend(experiments::eps_ring_rows());
    rows.extend(experiments::clock_ring_rows());
    for r in rows {
        println!(
            "| {} | {} | {} | {} |",
            r.construction, r.parameter, r.cover_nodes, r.chain
        );
    }
}
