//! Counters read from outside the program: `/proc/self` process counters
//! and walks of the checkpoint trees it produced. Standard library only.

use std::hash::Hasher;
use std::path::{Path, PathBuf};

/// Kernel clock ticks per second of `/proc/self/stat` CPU times (USER_HZ,
/// fixed at 100 on Linux).
const CLOCK_TICKS: f64 = 100.0;

/// One reading of the process counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// Bytes this process caused to be sent to the storage layer
    /// (`/proc/self/io` `write_bytes`).
    pub write_bytes: u64,
    /// User + system CPU seconds (`/proc/self/stat` utime + stime).
    pub cpu_s: f64,
}

impl ProcSample {
    /// Read the current counters (zeros where a file is unreadable).
    pub fn now() -> ProcSample {
        let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
        let write_bytes = io
            .lines()
            .find_map(|l| l.strip_prefix("write_bytes:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        ProcSample {
            write_bytes,
            cpu_s: parse_stat_cpu_ticks(&stat) as f64 / CLOCK_TICKS,
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            write_bytes: self.write_bytes.saturating_sub(earlier.write_bytes),
            cpu_s: (self.cpu_s - earlier.cpu_s).max(0.0),
        }
    }
}

/// utime + stime (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name in field 2 may hold spaces, so fields are counted from
/// the closing parenthesis.
fn parse_stat_cpu_ticks(stat: &str) -> u64 {
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so utime is index 14 - 3.
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    field(11) + field(12)
}

/// Peak resident set size in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset the peak RSS to the current RSS, so each workload of a
/// multi-workload invocation reports its own peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Regular files under `dir`, sorted by path.
pub fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            match entry.file_type() {
                Ok(t) if t.is_dir() => stack.push(path),
                Ok(t) if t.is_file() => out.push(path),
                _ => {}
            }
        }
    }
    out.sort();
    out
}

/// File count and total bytes under `dir`.
pub fn tree_size(dir: &Path) -> (u64, u64) {
    let files = files_under(dir);
    let bytes = files
        .iter()
        .filter_map(|f| std::fs::metadata(f).ok())
        .map(|m| m.len())
        .sum();
    (files.len() as u64, bytes)
}

/// Content hash of a tree: relative paths and file bytes, in path order.
pub fn tree_hash(dir: &Path) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for f in files_under(dir) {
        h.write(
            f.strip_prefix(dir)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes(),
        );
        h.write(&std::fs::read(&f).unwrap_or_default());
    }
    h.finish()
}

/// Flush the filesystem holding `dir` (`sync -f`), so one phase's dirty
/// pages are not written back inside the next phase's timed region.
pub fn sync_fs(dir: &Path) {
    let _ = std::process::Command::new("sync")
        .arg("-f")
        .arg(dir)
        .status();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_ticks_skip_a_command_name_with_spaces() {
        let line = "42 (my (odd) name) S 1 42 42 0 -1 4194560 100 0 0 0 250 75 0 0 20 0 3";
        assert_eq!(parse_stat_cpu_ticks(line), 325);
        assert_eq!(parse_stat_cpu_ticks("garbage"), 0);
    }

    #[test]
    fn own_counters_are_readable() {
        let a = ProcSample::now();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        assert!(x != 1);
        let d = ProcSample::now().since(&a);
        assert!(d.cpu_s >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
