//! Child processes and the small statistics the workloads share.

use std::io;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sync();
}

/// Flushes every dirty page to disk, so writeback left over from earlier
/// set-up or an earlier run does not land inside a timed phase.
pub fn flush_disk() {
    // SAFETY: sync(2) takes no arguments and cannot fail.
    unsafe { sync() }
}

/// A child process that ran to completion.
#[derive(Debug, Clone, Copy)]
pub struct Finished {
    /// Exit code; `None` when a signal ended it.
    pub code: Option<i32>,
    /// Spawn to exit.
    pub wall: Duration,
    /// The child's peak resident set, KiB.
    pub peak_rss_kb: u64,
    /// CPU time (user + system) the child used, microseconds.
    pub cpu_us: f64,
}

impl Finished {
    /// Exited with code 0.
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }
}

/// Spawns `cmd`, waits for it, and reports its exit code, wall time, peak
/// RSS and CPU time (from `wait4`, so the figures are the child's own).
pub fn run(cmd: &mut Command) -> io::Result<Finished> {
    let start = Instant::now();
    let child = cmd.spawn()?;
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable, and laid out as
        // glibc's `int` and `struct rusage` for this target; `pid` is our
        // own unreaped child, which `Child` never waits for once dropped.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall = start.elapsed();
    drop(child);
    let code = if status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    };
    let timeval_us = |t: [i64; 2]| t[0] as f64 * 1e6 + t[1] as f64;
    Ok(Finished {
        code,
        wall,
        peak_rss_kb: u64::try_from(usage.maxrss_kb).unwrap_or(0),
        cpu_us: timeval_us(usage.utime) + timeval_us(usage.stime),
    })
}

/// CPU time a live process's threads have run so far, in seconds, from
/// `/proc/<pid>/task/*/schedstat` (nanoseconds; time the hypervisor
/// stole from the vCPU is not counted).
pub fn cpu_s(pid: u32) -> Option<f64> {
    let mut ns = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let stat = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
        ns += stat.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(ns as f64 / 1e9)
}

/// `VmHWM` (peak resident set, KiB) of a live process.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Kills and reaps a child when dropped, so no early return leaks it.
pub struct Reaper(pub Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The timed phase is cut into windows of about this length.
pub const WINDOW_S: f64 = 1.0;

/// A timed phase cut into windows of about [`WINDOW_S`].
pub struct Windows {
    /// Window length, seconds.
    pub width: f64,
    /// Latencies of the operations completed in each window.
    pub latencies: Vec<Vec<f64>>,
}

impl Windows {
    /// Windows in a timed phase of `seconds`.
    pub fn count(seconds: f64) -> usize {
        ((seconds / WINDOW_S).round() as usize).max(1)
    }

    /// Cuts a timed phase of `seconds`; `done` holds each operation's
    /// (completion second, latency). Prints each window's rate.
    pub fn new(done: &[(f64, f64)], seconds: f64) -> Windows {
        let count = Windows::count(seconds);
        let width = seconds / count as f64;
        let mut latencies = vec![Vec::new(); count];
        for &(t, latency) in done {
            if let Some(window) = latencies.get_mut((t / width) as usize) {
                window.push(latency);
            }
        }
        let rates: Vec<String> = latencies
            .iter()
            .map(|w| format!("{:.0}", w.len() as f64 / width))
            .collect();
        println!("ops/s per window, in time order: {}", rates.join(" "));
        Windows { width, latencies }
    }

    /// The fastest quarter: the quarter of windows that completed the
    /// most operations. The speed of a small shared host drifts by 2-5x
    /// for tens of seconds at a time; the fastest quarter tracks what the
    /// program itself costs.
    pub fn fastest_quarter(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.latencies.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.latencies[i].len()));
        order.truncate(order.len().div_ceil(4));
        order
    }
}

/// Reads `pid`'s CPU time ([`cpu_s`]) at `start` and at the end of each
/// of `count` windows of `width` seconds.
pub fn sample_cpu(pid: u32, start: Instant, count: usize, width: f64) -> Option<Vec<f64>> {
    (0..=count)
        .map(|k| {
            let at = start + Duration::from_secs_f64(k as f64 * width);
            if let Some(wait) = at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            cpu_s(pid)
        })
        .collect()
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `v` ascending (NaN-free input).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Microseconds in `d`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f` and returns its result with its duration in microseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = std::hint::black_box(f());
    (r, us(start.elapsed()))
}
