//! Process facts read from `/proc/self` (Linux).

/// Clock ticks per second of `/proc/*/stat` times (USER_HZ; 100 on every
/// mainstream Linux configuration).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) used so far by this process, exited
/// threads included.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_stat_cpu(&stat)
}

/// utime + stime of a `/proc/*/stat` line, in seconds.
pub fn parse_stat_cpu(stat: &str) -> f64 {
    // The command field may hold spaces and parentheses; fields after
    // the last ')' start at field 3 (state).
    let Some(rest) = stat.rsplit(')').next() else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    if f.len() < 13 {
        return 0.0;
    }
    let tick = |s: &str| s.parse::<f64>().unwrap_or(0.0);
    (tick(f[11]) + tick(f[12])) / USER_HZ
}

/// A `Key:   value kB`-style field of `/proc/self/status`.
fn status_field(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_field(&status, key)
}

/// The first number after `key:` in a `/proc/*/status` text.
pub fn parse_status_field(status: &str, key: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size so far, MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").map_or(0.0, |kb| kb / 1024.0)
}

/// Threads the process has right now.
pub fn threads() -> u64 {
    status_field("Threads").map_or(0, |t| t as u64)
}

/// Kernel release string.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_odd_command() {
        let line = "42 (a (b) c) S 1 1 1 0 -1 4194560 10 0 0 0 250 150 0 0 20 0 4 0 9 0 0";
        assert!((parse_stat_cpu(line) - 4.0).abs() < 1e-12);
        assert_eq!(parse_stat_cpu("garbage"), 0.0);
    }

    #[test]
    fn parses_status_fields() {
        let s = "Name:\tx\nVmHWM:\t  2048 kB\nThreads:\t7\n";
        assert_eq!(parse_status_field(s, "VmHWM"), Some(2048.0));
        assert_eq!(parse_status_field(s, "Threads"), Some(7.0));
        assert_eq!(parse_status_field(s, "VmRSS"), None);
    }

    #[test]
    fn live_process_reads() {
        assert!(peak_rss_mb() > 0.0);
        assert!(threads() >= 1);
    }
}
