//! What a result was measured on: provenance lines, and the process
//! counters read from `/proc`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use optpower_workload::fnv1a_64;

/// Where the benchmark writes what a run leaves behind: the cargo
/// target directory it was built into.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target.join("perfbench")
}

/// Host cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `key=value` provenance pairs: commit, source fingerprint, cores,
/// compiler and build profile.
pub fn provenance() -> Vec<(&'static str, String)> {
    let first_line = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unavailable".to_string())
    };
    vec![
        ("git_commit", first_line("git", &["rev-parse", "HEAD"])),
        ("source_fnv", source_fingerprint()),
        ("nproc", nproc().to_string()),
        ("rustc", first_line("rustc", &["--version"])),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
    ]
}

/// FNV-1a over the path and bytes of every source file the benchmark
/// builds from — the commit's stand-in in a checkout without `.git`.
fn source_fingerprint() -> String {
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src", "shims"] {
        collect(Path::new(root), &mut files);
    }
    for extra in [
        "Cargo.toml",
        "Cargo.lock",
        "perfbench/Cargo.toml",
        "perfbench/Cargo.lock",
        "perfbench/batch_cold.json",
    ] {
        files.push(PathBuf::from(extra));
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", fnv1a_64(&bytes))
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml" | "md")
        ) {
            out.push(path);
        }
    }
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn rss_peak_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(f64::NAN)
}

/// Process CPU over `window` ÷ (window × cores), from a
/// [`cpu_seconds`] reading taken when the window opened.
pub fn pool_util(cpu_at_start: f64, window: Duration) -> f64 {
    (cpu_seconds() - cpu_at_start) / (window.as_secs_f64() * nproc() as f64)
}

/// User + system CPU time of this process so far, seconds (from
/// `/proc/self/stat`, at the kernel's usual 100 ticks per second).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse().ok())
        .collect();
    ticks.iter().sum::<f64>() / 100.0
}
