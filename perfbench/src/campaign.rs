//! `campaign_audit`: the batch user, with no network. One operation is a
//! `regen --campaign --scale full` process over one seed of the run's seed
//! list, then `flm-audit --batch` over the directory it wrote. Each seed's
//! output must be byte-identical every time it is produced, in these
//! processes and in-process.
//!
//! The traced run times the campaign's public layers in-process: `probe`,
//! `shrink_violation`, `run_campaign`, `write_campaign` and
//! `audit::audit_dir`, plus the campaign at one worker against two
//! (`FLM_PAR_THREADS`). The run cache and the refuters' other caches are
//! process-global, so `probe`/`shrink_violation` and `run_campaign` each
//! run in a fresh child process of the benchmark ([`child`]), as one
//! `regen` process does: nothing another seed or the correctness check
//! left in a cache counts.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use flm_bench::campaign::{self, Scenario};
use flm_core::codec;
use flm_serve::audit;
use flm_sim::campaign::SchedulerKind;

use crate::gen;
use crate::proc::{self, mean, median, percentile, ratio, sorted, timed, Finished};
use crate::{Ctx, Report, SETUP_BATCH};

/// Campaign seeds per run; the timed phase cycles through them.
const SEEDS: usize = 4;
/// First argument that runs the benchmark as a [`child`].
pub const CHILD_FLAG: &str = "--campaign-child";

/// A directory's files, sorted by name, with their bytes.
type Snapshot = Vec<(String, Vec<u8>)>;

fn snapshot(dir: &Path) -> Result<Snapshot, String> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let bytes = fs::read(entry.path()).map_err(|e| format!("reading {name}: {e}"))?;
        files.push((name, bytes));
    }
    files.sort();
    Ok(files)
}

fn quiet(mut cmd: Command, err_log: &Path) -> Result<Command, String> {
    let log = fs::File::create(err_log).map_err(|e| format!("creating a log: {e}"))?;
    cmd.stdout(Stdio::null()).stderr(log);
    Ok(cmd)
}

fn campaign_cmd(ctx: &Ctx, seed: u64, out: &Path) -> Result<Command, String> {
    let mut cmd = ctx.bin("regen");
    cmd.args(["--campaign", "--scale", "full", "--seed", &seed.to_string()])
        .arg("--out-dir")
        .arg(out);
    quiet(cmd, &ctx.work.join("regen.err"))
}

fn audit_cmd(ctx: &Ctx, dir: &Path) -> Result<Command, String> {
    let mut cmd = ctx.bin("flm-audit");
    cmd.arg("--batch").arg(dir).arg("--quiet");
    quiet(cmd, &ctx.work.join("flm-audit.err"))
}

fn spawn(mut cmd: Command) -> Result<Finished, String> {
    proc::run(&mut cmd).map_err(|e| format!("spawning {:?}: {e}", cmd.get_program()))
}

fn count_certs(snap: &Snapshot) -> usize {
    snap.iter().filter(|(n, _)| n.ends_with(".flmc")).count()
}

/// One batch of set-ups: the smallest complete use of the batch tools,
/// one refute written by `regen` and accepted by `flm-audit`. Adds each
/// set-up's CPU and wall time to `setup`.
fn setup_batch(
    ctx: &Ctx,
    setup: &mut (Vec<f64>, Vec<f64>),
    report: &mut Report,
) -> Result<(), String> {
    let cert = ctx.work.join("setup.flmc");
    for _ in 0..SETUP_BATCH {
        let mut refute = ctx.bin("regen");
        refute
            .args(["--refute", "ba-nodes", "--emit-cert"])
            .arg(&cert);
        let mut check = ctx.bin("flm-audit");
        check.arg(&cert).arg("--quiet");
        let start = Instant::now();
        let a = spawn(quiet(refute, &ctx.work.join("setup.err"))?)?;
        let b = spawn(quiet(check, &ctx.work.join("setup.err"))?)?;
        setup.1.push(start.elapsed().as_secs_f64());
        setup.0.push((a.cpu_us + b.cpu_us) / 1e6);
        report.attempted += 1;
        if !(a.ok() && b.ok()) {
            report.fail(format!(
                "set-up refute/audit exit codes {:?}/{:?}",
                a.code, b.code
            ));
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let seeds = gen::campaign_seeds(ctx.seed, SEEDS);
    println!("campaign seeds {seeds:?}: full scale, sync scheduler");

    // Set-up: one batch now, and one each after the timed phase and after
    // the correctness check.
    let mut setup = (Vec::new(), Vec::new());
    setup_batch(ctx, &mut setup, &mut report)?;

    // Timed phase.
    proc::flush_disk();
    let mut refs: HashMap<u64, (PathBuf, Snapshot)> = HashMap::new();
    // (seed, latency us, peak RSS KiB, CPU us) of each good operation.
    let mut ops: Vec<(u64, f64, u64, f64)> = Vec::new();
    let (mut campaign_ms, mut audit_s, mut certs_audited) = (Vec::new(), 0.0, 0usize);
    let start = Instant::now();
    let mut k = 0usize;
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let seed = seeds[k % SEEDS];
        let dir = ctx.work.join(format!("op{k}"));
        k += 1;
        report.attempted += 1;
        let made = spawn(campaign_cmd(ctx, seed, &dir)?)?;
        let audited = spawn(audit_cmd(ctx, &dir)?)?;
        if !(made.ok() && audited.ok()) {
            report.fail(format!(
                "seed {seed}: regen exit {:?}, flm-audit --batch exit {:?}",
                made.code, audited.code
            ));
            continue;
        }
        let snap = snapshot(&dir)?;
        match refs.get(&seed) {
            Some((_, first)) => {
                fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
                if *first != snap {
                    report.fail(format!("seed {seed}: campaign output differs between runs"));
                    continue;
                }
            }
            None => {
                refs.insert(seed, (dir, snap.clone()));
            }
        }
        let peak_kb = made.peak_rss_kb.max(audited.peak_rss_kb);
        let cpu = made.cpu_us + audited.cpu_us;
        ops.push((seed, proc::us(made.wall + audited.wall), peak_kb, cpu));
        campaign_ms.push(made.wall.as_secs_f64() * 1e3);
        audit_s += audited.wall.as_secs_f64();
        certs_audited += count_certs(&snap);
    }
    // The end-to-end figures take each seed's fastest quarter of
    // operations (see proc::Windows::fastest_quarter for why).
    let mut fast_ops: Vec<(f64, f64)> = Vec::new();
    for seed in &seeds {
        let mut mine: Vec<(f64, f64)> = ops
            .iter()
            .filter(|o| o.0 == *seed)
            .map(|o| (o.1, o.3))
            .collect();
        mine.sort_by(|a, b| a.0.total_cmp(&b.0));
        mine.truncate(mine.len().div_ceil(4));
        fast_ops.extend(mine);
    }
    let fast = sorted(fast_ops.iter().map(|o| o.0).collect());
    let latencies = sorted(ops.iter().map(|o| o.1).collect());
    let ok = ops.len();
    let busy_s = latencies.iter().sum::<f64>() / 1e6;
    report.set(
        "e2e.ok_rps",
        ratio(fast.len() as f64, fast.iter().sum::<f64>() / 1e6),
    );
    report.set("p50_us", percentile(&fast, 0.5));
    report.set("e2e.p90_us", percentile(&fast, 0.9));
    let peaks: Vec<f64> = ops.iter().map(|o| o.2 as f64 / 1024.0).collect();
    report.set("peak_rss_mb", median(&peaks));
    report.set(
        "cpu_us_per_op",
        mean(&fast_ops.iter().map(|o| o.1).collect::<Vec<_>>()),
    );
    println!(
        "timed phase: {ok} campaigns + batch audits in {:.2} s: {:.3}/s, p50 {:.0} us, p90 {:.0} us; \
         fastest quarter {} samples; {certs_audited} certificates audited",
        start.elapsed().as_secs_f64(),
        ratio(ok as f64, busy_s),
        percentile(&latencies, 0.5),
        percentile(&latencies, 0.9),
        fast.len(),
    );
    setup_batch(ctx, &mut setup, &mut report)?;

    // Correctness: each seed's output, re-made in-process, is the same
    // bytes the processes wrote.
    let mut outcomes = Vec::new();
    for seed in &seeds {
        let Some((dir, snap)) = refs.get(seed) else {
            continue;
        };
        report.attempted += 1;
        let outcome = campaign::run_campaign(&campaign::full_config(*seed));
        let mut expected: Snapshot = outcome.certs.clone();
        expected.push((
            "campaign_report.json".into(),
            outcome.report.to_json().into_bytes(),
        ));
        expected.sort();
        println!(
            "seed {seed}: {} runs, {} violations, {} incidents, {} certificates",
            outcome.report.runs,
            outcome.report.violations.len(),
            outcome.report.incidents.len(),
            count_certs(snap)
        );
        if expected != *snap {
            report.fail(format!(
                "seed {seed}: regen's output differs from the in-process campaign"
            ));
        }
        outcomes.push((*seed, dir.clone(), outcome));
    }
    setup_batch(ctx, &mut setup, &mut report)?;
    report.set("setup_s", median(&setup.0));
    println!(
        "set-up: {} refute+audit pairs in 3 batches, median {:.2} ms of CPU, {:.2} ms wall",
        setup.0.len(),
        median(&setup.0) * 1e3,
        median(&setup.1) * 1e3
    );
    if !ctx.trace {
        return Ok(report);
    }

    // Traced run: per-layer metrics.
    report.set("campaign_ms", median(&campaign_ms));
    report.set("audit_certs_per_s", ratio(certs_audited as f64, audit_s));
    let (mut run_ms, mut probe_ms, mut shrink_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut lookups, mut attempts, mut accepted) = (0.0, 0.0, 0.0, 0.0);
    for (seed, _, _) in &outcomes {
        let [p, s, att, acc] = run_child("replay", *seed)?;
        probe_ms.push(p);
        shrink_ms.push(s);
        attempts += att;
        accepted += acc;
        let [t, h, m] = run_child("run", *seed)?;
        run_ms.push(t);
        hits += h;
        lookups += h + m;
    }
    report.set("runcache.hit_ratio", ratio(hits, lookups));
    report.set("campaign.probe_ms", mean(&probe_ms));
    report.set("campaign.shrink_ms", mean(&shrink_ms));
    report.set("shrink.accept_ratio", ratio(accepted, attempts));

    let (mut write_ms, mut batch_ms) = (Vec::new(), Vec::new());
    let (mut audit_us, mut decode_us, mut encode_us) = (Vec::new(), Vec::new(), Vec::new());
    for (seed, dir, outcome) in &outcomes {
        let out = ctx.work.join(format!("write-{seed}"));
        let (written, t) = timed(|| campaign::write_campaign(outcome, &out));
        written.map_err(|e| format!("write_campaign: {e}"))?;
        write_ms.push(t / 1e3);
        let (entries, t) = timed(|| audit::audit_dir(dir));
        let entries = entries?;
        report.attempted += 1;
        if audit::batch_exit_code(&entries) != audit::EXIT_VERIFIED {
            report.fail(format!("seed {seed}: audit_dir rejected a certificate"));
        }
        batch_ms.push(t / 1e3);
        audit_us.push(t / entries.len() as f64);
        for (_, bytes) in &outcome.certs {
            let (decoded, t) = timed(|| codec::decode_any(bytes));
            decode_us.push(t);
            let decoded = decoded.map_err(|e| format!("decode: {e}"))?;
            encode_us.push(timed(|| decoded.to_bytes()).1);
        }
    }
    report.set("campaign.write_ms", mean(&write_ms));
    report.set("audit.batch_ms", mean(&batch_ms));
    report.set("audit.audit_us", mean(&audit_us));
    report.set("codec.decode_us", mean(&decode_us));
    report.set("codec.encode_us", mean(&encode_us));

    // flm-par: the same campaigns at one worker and at two.
    let mut walls = [0.0f64; 2];
    for (seed, _, _) in &outcomes {
        for (slot, threads) in ["1", "2"].into_iter().enumerate() {
            let out = ctx.work.join(format!("par{threads}-{seed}"));
            let mut cmd = campaign_cmd(ctx, *seed, &out)?;
            cmd.env("FLM_PAR_THREADS", threads);
            let done = spawn(cmd)?;
            report.attempted += 1;
            if !done.ok() {
                report.fail(format!(
                    "seed {seed}: regen at {threads} workers exit {:?}",
                    done.code
                ));
            }
            walls[slot] += done.wall.as_secs_f64();
        }
    }
    let scaling = ratio(walls[0], walls[1]);
    report.set("par.scaling_2v1", scaling);

    // Layer accounting per operation: the whole in-process campaign (its
    // probes and shrinks on flm-par's workers, in a fresh process),
    // writing it, and the batch audit. The residual is process start-up
    // and exit.
    report.set("campaign.run_ms", mean(&run_ms));
    let sum_us = (mean(&run_ms) + mean(&write_ms) + mean(&batch_ms)) * 1e3;
    let e2e = mean(&latencies);
    report.set("layers.e2e_us", e2e);
    report.set("layers.sum_us", sum_us);
    report.set("layers.residual_us", e2e - sum_us);
    println!(
        "layer accounting: end-to-end mean {e2e:.0} us = layers {sum_us:.0} us + residual {:.0} us \
         (traced run's own ok_rps {:.3}, p50 {:.0} us)",
        e2e - sum_us,
        ratio(fast.len() as f64, fast.iter().sum::<f64>() / 1e6),
        percentile(&fast, 0.5)
    );
    Ok(report)
}

/// Runs the benchmark as a child process doing `part` of `seed`'s
/// campaign in-process (see [`child`]); returns the numbers it printed.
fn run_child<const N: usize>(part: &str, seed: u64) -> Result<[f64; N], String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args([CHILD_FLAG, part, &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {part} child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let values: Vec<f64> = text
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{part} child of seed {seed} printed {text:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{part} child of seed {seed} failed ({})",
            out.status
        ));
    }
    values
        .try_into()
        .map_err(|v: Vec<f64>| format!("{part} child of seed {seed} printed {} numbers", v.len()))
}

/// `perfbench --campaign-child run|replay SEED`: one part of a seed's
/// campaign in a fresh process, whose caches start empty as `regen`'s do.
/// `run` prints the `run_campaign` wall time (ms) and the run cache's hits
/// and misses during it; `replay` prints [`replay_campaign`]'s numbers.
pub fn child(args: &[String]) -> ExitCode {
    let seed = args.get(1).and_then(|s| s.parse::<u64>().ok());
    match (args.first().map(String::as_str), seed) {
        (Some("run"), Some(seed)) => {
            let before = flm_sim::runcache::stats();
            let (_, t) = timed(|| campaign::run_campaign(&campaign::full_config(seed)));
            let after = flm_sim::runcache::stats();
            println!(
                "{} {} {}",
                t / 1e3,
                after.hits - before.hits,
                after.misses - before.misses
            );
        }
        (Some("replay"), Some(seed)) => {
            let (p, s, attempts, accepted) = replay_campaign(seed);
            println!("{p} {s} {attempts} {accepted}");
        }
        _ => {
            eprintln!("perfbench: usage: {CHILD_FLAG} run|replay SEED");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

/// Probes every cell of seed's full campaign and shrinks each violation,
/// one at a time; returns (probe ms, shrink ms, shrink attempts, accepted).
fn replay_campaign(seed: u64) -> (f64, f64, usize, usize) {
    let config = campaign::full_config(seed);
    let (mut probe_us, mut shrink_us) = (0.0, 0.0);
    let (mut attempts, mut accepted) = (0, 0);
    for spec in config.specs() {
        if spec.scheduler != SchedulerKind::Sync {
            continue;
        }
        let Ok(protocol) = flm_protocols::resolve(&spec.protocol) else {
            continue;
        };
        let Ok(g) = spec.graph.build(spec.graph_seed) else {
            continue;
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
        let (found, t) =
            timed(|| campaign::probe(spec.problem, &*protocol, &scenario, spec.f, &config.policy));
        probe_us += t;
        if let Ok(Some(cert)) = found {
            let (outcome, t) = timed(|| {
                campaign::shrink_violation(
                    spec.problem,
                    &*protocol,
                    scenario,
                    cert,
                    spec.f,
                    &config.policy,
                )
            });
            shrink_us += t;
            attempts += outcome.attempts;
            accepted += outcome.accepted;
        }
    }
    (probe_us / 1e3, shrink_us / 1e3, attempts, accepted)
}
