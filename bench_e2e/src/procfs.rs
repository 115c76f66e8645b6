//! Process resource readings from `/proc/self` (Linux). Absent files
//! read as zero, so the benchmark degrades instead of failing.

/// Clock ticks per second of `utime`/`stime` in `/proc/self/stat`
/// (`CLK_TCK` is 100 on every mainstream Linux configuration).
const TICKS_PER_SEC: f64 = 100.0;

/// Accumulated `(user, system)` CPU seconds of the whole process.
pub fn cpu_seconds() -> (f64, f64) {
    parse_cpu(&std::fs::read_to_string("/proc/self/stat").unwrap_or_default()).unwrap_or((0.0, 0.0))
}

fn parse_cpu(stat: &str) -> Option<(f64, f64)> {
    // The command name is parenthesized and may contain spaces; utime
    // and stime are the 12th and 13th fields after the closing paren.
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / TICKS_PER_SEC, stime / TICKS_PER_SEC))
}

fn status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_kb(&status, "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Current number of threads in the process.
pub fn threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_kb(&status, "Threads:").unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_comm() {
        let stat = "42 (bench e2e) S 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 9 0 100 0 0";
        assert_eq!(parse_cpu(stat), Some((2.5, 0.5)));
        assert_eq!(parse_cpu("garbage"), None);
    }

    #[test]
    fn parses_status_fields() {
        let status = "Name:\tx\nVmHWM:\t  20480 kB\nThreads:\t9\n";
        assert_eq!(status_kb(status, "VmHWM:"), Some(20480));
        assert_eq!(status_kb(status, "Threads:"), Some(9));
        assert_eq!(status_kb(status, "VmRSS:"), None);
    }
}
