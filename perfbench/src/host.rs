//! The run header's host facts and the process counters the benchmark
//! samples (peak RSS, CPU time).

use std::path::Path;

/// Logical CPUs the process may use.
pub fn nproc() -> usize {
    tcast_pool::default_parallelism()
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Last-level (L3) cache size in bytes, from sysfs; 0 when unknown.
pub fn l3_bytes() -> u64 {
    let Ok(text) = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size") else {
        return 0;
    };
    let text = text.trim();
    let (digits, scale) = match text.strip_suffix('K') {
        Some(d) => (d, 1024),
        None => match text.strip_suffix('M') {
            Some(d) => (d, 1024 * 1024),
            None => (text, 1),
        },
    };
    digits.parse::<u64>().map_or(0, |v| v * scale)
}

/// The commit the benchmark was built from: `.git/HEAD` resolved through
/// loose or packed refs, or "unknown" outside a git checkout.
pub fn git_sha(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

fn status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// User plus system CPU time of every thread of this process, in seconds
/// (`/proc/self/stat`, clock ticks at the kernel's usual 100 Hz).
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_S
}
