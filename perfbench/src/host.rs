//! Host descriptor and process memory, read from the OS.

use std::fmt::Write as _;

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the peak-RSS count from the current RSS, so that the peak
/// covers what follows (Linux `clear_refs` value 5; a no-op elsewhere).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The cgroup CPU quota as `quota/period` (v2 `cpu.max` or v1
/// `cfs_quota_us/cfs_period_us`), or `unknown`.
fn cpu_quota() -> String {
    if let Ok(s) = std::fs::read_to_string("/sys/fs/cgroup/cpu.max") {
        return s.trim().replace(' ', "/");
    }
    let read = |f: &str| std::fs::read_to_string(format!("/sys/fs/cgroup/cpu/{f}")).ok();
    match (read("cpu.cfs_quota_us"), read("cpu.cfs_period_us")) {
        (Some(q), Some(p)) => format!("{}/{}", q.trim(), p.trim()),
        _ => "unknown".to_string(),
    }
}

/// JSON string literal (the descriptor's values are plain ASCII, but a
/// quote or backslash in a tool's version string must not break the line).
fn quoted(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One-line JSON host descriptor recorded with every result.
pub fn descriptor(rustc: &str, commit: &str, workload: &str, seed: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_quota\": {}, \"rustc\": {}, \"commit\": {}, \
         \"workload\": {}, \"seed\": {seed}, \"trace\": {trace}}}",
        quoted(&cpu_quota()),
        quoted(rustc),
        quoted(commit),
        quoted(workload)
    )
}
