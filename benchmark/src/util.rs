//! Shared helpers: order statistics, process memory, host facts, the CLI
//! entry point and the result record every workload returns.

use std::time::{Duration, Instant};

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced: its metrics plus the operation ledger.
/// A failed operation is any output mismatch, aborted cell, typed error or
/// shed; every one also clears `correct`.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (sample counts,
    /// bases of ratios, the first mismatch seen).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Count one operation; a failed check also records why, once.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            if self.failed == 0 {
                self.notes.push(format!("FIRST FAILURE: {}", what()));
            }
            self.failed += 1;
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of a non-empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One line with a latency sample's size and upper percentiles.
pub fn tail(class: &str, xs: &[f64]) -> String {
    format!(
        "{class} latency ms over {} samples: p50 {:.3} p90 {:.3} p99 {:.3} p99.9 {:.3} max {:.3}",
        xs.len(),
        percentile(xs, 50.0),
        percentile(xs, 90.0),
        percentile(xs, 99.0),
        percentile(xs, 99.9),
        max(xs)
    )
}

/// One line with a set-up sample's size and spread, in milliseconds.
pub fn setup_note(what: &str, secs: &[f64]) -> String {
    let ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
    format!(
        "setup over {} {what}: min {:.3} median {:.3} max {:.3} ms",
        ms.len(),
        ms.iter().copied().fold(f64::INFINITY, f64::min),
        median(&ms),
        max(&ms)
    )
}

pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The clock every timing in this package reads. The repository's rules
/// against reading the clock guard simulation paths; wall time is what a
/// benchmark measures, and no simulated value depends on it.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    // fcn-allow: DET-TIME the benchmark's clock (see above)
    Instant::now()
}

/// Run `f` and return its result with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = now();
    let out = f();
    (out, t0.elapsed())
}

/// Peak resident set of this process in MiB (`VmHWM`, Linux).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Total and stolen CPU time of the host so far, in clock ticks (Linux
/// `/proc/stat`). On a virtual machine, stolen time is when the hypervisor
/// ran someone else on this machine's CPUs; it is the main source of
/// multi-millisecond stalls in the latency tails.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// The share of CPU time stolen since `before`, as a note line.
pub fn steal_note(before: Option<(u64, u64)>) -> String {
    match (before, cpu_ticks()) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => format!(
            "cpu time stolen by the hypervisor during the run: {:.1}%",
            100.0 * (s1 - s0) as f64 / (t1 - t0) as f64
        ),
        _ => "cpu time stolen by the hypervisor during the run: unknown".into(),
    }
}

/// `fcnemu <argv>` in process: the exit code and the captured stdout.
/// Telemetry is switched off first, as a fresh `fcnemu` process has it
/// (a daemon started earlier in this process switched it on).
pub fn run_cli(argv: &[String]) -> (i32, String) {
    fcn_telemetry::global().set_enabled(false);
    let mut out = Vec::new();
    let code = fcn_cli::run(argv, &mut out);
    (code, String::from_utf8_lossy(&out).into_owned())
}

/// Run this binary again with `args` and return the child's output. The
/// child times its own work, so process start-up is not counted.
pub fn run_child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("child {args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child {args:?} failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

pub fn argv(words: &[&str]) -> Vec<String> {
    words.iter().map(|w| w.to_string()).collect()
}

/// The number after `label` on the report line that starts with it, e.g.
/// `measured β̂    : 111.836 (mean 110.360)` → 111.836.
pub fn report_value(report: &str, label: &str) -> Option<f64> {
    let line = report.lines().find(|l| l.starts_with(label))?;
    let rest = line.split_once(':')?.1.trim_start();
    rest.split_whitespace().next()?.parse().ok()
}

/// A β report is sound when its measured β̂ does not exceed the certified
/// flux bound printed beside it.
pub fn beta_within_flux(report: &str) -> bool {
    match (
        report_value(report, "measured β̂"),
        report_value(report, "flux bound"),
    ) {
        (Some(beta), Some(flux)) => beta > 0.0 && beta <= flux,
        _ => false,
    }
}

/// Host facts printed with every result: hardware threads, CPU model, the
/// commit (when run from a git checkout), a digest of the measured sources
/// (which identifies the code even without git) and the build profile.
pub fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "host: nproc={nproc} cpu={cpu:?} commit={} source_digest={:016x} profile={profile}",
        git_commit().unwrap_or_else(|| "none (not a git checkout)".into()),
        source_digest()
    )
}

fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// FNV-1a over the paths and bytes of every file under `crates/` plus the
/// root manifest and lock file, in sorted path order.
fn source_digest() -> u64 {
    let mut files = vec![
        std::path::PathBuf::from("Cargo.toml"),
        std::path::PathBuf::from("Cargo.lock"),
    ];
    collect_files(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn collect_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}
