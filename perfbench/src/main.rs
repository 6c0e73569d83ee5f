//! The repository benchmark: drives the certificate path end to end —
//! `flm-serve` serving and auditing certificates, `regen --campaign`
//! producing them, `flm-audit --batch` re-checking them — from outside the
//! program, then (with `--trace 1`) times the public functions of each
//! layer on the same inputs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot|campaign_audit --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and the metrics (end-to-end with `--trace 0`,
//! per-layer with `--trace 1`). Any correctness failure exits with code 1.
//! README.md documents the workloads and every metric.

mod campaign;
mod gen;
mod proc;
mod serve;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("cpu_us_per_op", "us"),
    ("p50_us", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by the traced run. A layer a workload does
/// not reach reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("e2e.ok_rps", "1/s"),
    ("e2e.p90_us", "us"),
    ("frame.decode_us", "us"),
    ("rpc.encode_us", "us"),
    ("rpc.p99_us", "us"),
    ("net.ping_us", "us"),
    ("server.overhead_us", "us"),
    ("server.shed", "count"),
    ("query.key_us", "us"),
    ("query.refute_us.ba-nodes", "us"),
    ("query.refute_us.ba-connectivity", "us"),
    ("query.refute_us.weak-agreement", "us"),
    ("query.refute_us.firing-squad", "us"),
    ("query.refute_us.simple-approx", "us"),
    ("query.refute_us.eps-delta-gamma", "us"),
    ("query.refute_us.clock-sync", "us"),
    ("query.refute_us.flp-async", "us"),
    ("store.lookup_mem_us", "us"),
    ("store.lookup_disk_us", "us"),
    ("store.lookup_miss_us", "us"),
    ("store.mem_hit_ratio", "ratio"),
    ("store.write_us", "us"),
    ("audit.audit_us", "us"),
    ("audit.batch_ms", "ms"),
    ("codec.decode_us", "us"),
    ("codec.encode_us", "us"),
    ("runcache.hit_ratio", "ratio"),
    ("campaign_ms", "ms"),
    ("audit_certs_per_s", "1/s"),
    ("campaign.run_ms", "ms"),
    ("campaign.probe_ms", "ms"),
    ("campaign.shrink_ms", "ms"),
    ("shrink.accept_ratio", "ratio"),
    ("campaign.write_ms", "ms"),
    ("par.scaling_2v1", "x"),
    ("layers.e2e_us", "us"),
    ("layers.sum_us", "us"),
    ("layers.residual_us", "us"),
];

/// Set-ups per batch. Each run sets up in three batches, at different
/// points of the run, and reports the median of all of them as `setup_s`,
/// so one slow stretch of a shared host weighs on a third of the samples.
pub const SETUP_BATCH: usize = 21;

/// What a workload needs to run.
pub struct Ctx {
    /// Directory holding the release binaries.
    pub bins: PathBuf,
    /// Scratch directory of this run (removed at exit).
    pub work: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Whether to run the traced (per-layer) phase.
    pub trace: bool,
}

impl Ctx {
    /// A command for release binary `name`.
    pub fn bin(&self, name: &str) -> Command {
        Command::new(self.bins.join(name))
    }
}

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (timed operations plus correctness checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// A description of each failure (the first few are printed).
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} wants a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds wants a number in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["serve_hot", "campaign_audit"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (want serve_hot or campaign_audit)"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Builds the release binaries the workloads drive, into the target
/// directory this benchmark was built in, and returns its `release` dir.
fn build_binaries(root: &Path) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let release = exe
        .parent()
        .ok_or("the benchmark binary has no directory")?
        .to_path_buf();
    let target = release
        .parent()
        .ok_or("the release directory has no parent")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .env("CARGO_TARGET_DIR", target)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "flm-serve", "-p", "flm-bench", "--bins"])
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the workspace binaries failed ({status})"));
    }
    Ok(release)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(campaign::CHILD_FLAG) {
        return campaign::child(&args[1..]);
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a subdirectory of the repository")
        .to_path_buf();
    let bins = match build_binaries(&root) {
        Ok(b) => b,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    // One run at a time per target directory: clear what a killed run
    // left behind.
    let work_root = bins.join("perfbench-work");
    let _ = std::fs::remove_dir_all(&work_root);
    let work = work_root.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: creating {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        bins,
        work,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let report = match args.workload.as_str() {
        "serve_hot" => serve::run(&ctx),
        _ => campaign::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    proc::flush_disk();
    let report = match report {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    ExitCode::from(print_report(&report, args.trace))
}

/// Prints every metric by name with its unit, then the JSON result line;
/// returns the exit code.
fn print_report(report: &Report, trace: bool) -> u8 {
    let fail_ratio = proc::ratio(report.failed as f64, report.attempted as f64);
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        if let Some(v) = report.metrics.get(name) {
            println!("  {name:<34} {v:>18.6} {unit}");
        }
    }
    println!(
        "  {:<34} {:>18.6} ratio ({} failed of {} attempted)",
        "fail_ratio", fail_ratio, report.failed, report.attempted
    );
    for problem in report.problems.iter().take(10) {
        println!("  FAILED: {problem}");
    }
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = match report.metrics.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in super::END_TO_END.iter().chain(&super::PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name} ({unit}) is not in BENCHMARK.json"
            );
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            super::END_TO_END.len() + super::PER_LAYER.len() + 2,
            "BENCHMARK.json lists a metric the benchmark does not report"
        );
    }
}
