//! The host fingerprint recorded with every result, and peak memory.

use std::fs;

fn json_str(s: &str) -> String {
    let clean: String = s.chars().filter(|c| !c.is_control()).collect();
    format!("\"{}\"", clean.replace('\\', "\\\\").replace('"', "\\\""))
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size of the highest-level cache cpu0 reports, as sysfs prints it.
fn last_level_cache() -> String {
    let mut best: Option<(u32, String)> = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let level = fs::read_to_string(format!("{dir}/level"))
            .ok()
            .and_then(|s| s.trim().parse::<u32>().ok());
        let size = fs::read_to_string(format!("{dir}/size")).ok();
        if let (Some(level), Some(size)) = (level, size) {
            if best.as_ref().is_none_or(|(l, _)| level > *l) {
                best = Some((level, format!("L{level} {}", size.trim())));
            }
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, s)| s)
}

/// The commit of the checkout, when it is a git work tree.
fn git_rev() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".to_string(),
    }
}

/// The fingerprint as a JSON object. `calibration_s` is the median time
/// of the workload's warm-up, a fixed job that does not depend on the
/// seed, so it tracks the host's speed for this workload's kind of work.
pub fn fingerprint(calibration_s: f64) -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"available_parallelism\": {threads}, \"cpu_model\": {}, \"last_level_cache\": {}, \"rustc\": {}, \"git_rev\": {}, \"calibration_s\": {calibration_s}}}",
        json_str(&cpu_model()),
        json_str(&last_level_cache()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&git_rev())
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
