//! CPU time, threads and memory read from `/proc` (Linux only).

use std::collections::BTreeMap;
use std::fs;

/// Kernel clock ticks per second of `utime`/`stime` (`USER_HZ`, 100 on
/// every Linux architecture the standard library targets).
pub const TICKS_PER_S: f64 = 100.0;

/// CPU ticks as microseconds.
pub fn cpu_us(ticks: u64) -> f64 {
    ticks as f64 / TICKS_PER_S * 1e6
}

/// `(comm, utime + stime)` from the text of a `stat` file. The command
/// name sits in parentheses and may itself hold spaces or parentheses,
/// so fields are counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<(String, u64)> {
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let comm = text.get(open + 1..close)?.to_string();
    // Fields after the comm start at field 3 (`state`); utime and
    // stime are fields 14 and 15.
    let rest: Vec<&str> = text.get(close + 1..)?.split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

fn read_stat(path: &str) -> Result<(String, u64), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_stat(&text).ok_or_else(|| format!("unparseable {path}"))
}

/// CPU ticks of the whole process, live and exited threads alike.
pub fn process_ticks() -> Result<u64, String> {
    read_stat("/proc/self/stat").map(|(_, t)| t)
}

/// CPU ticks of the calling thread.
pub fn thread_ticks() -> Result<u64, String> {
    read_stat("/proc/thread-self/stat").map(|(_, t)| t)
}

/// Every live thread of the process: tid → `(comm, ticks)`. A thread
/// that exits between listing and reading is skipped.
pub fn threads() -> Result<BTreeMap<u32, (String, u64)>, String> {
    let dir = fs::read_dir("/proc/self/task").map_err(|e| format!("listing threads: {e}"))?;
    let mut out = BTreeMap::new();
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        if let Ok(stat) = read_stat(&format!("/proc/self/task/{tid}/stat")) {
            out.insert(tid, stat);
        }
    }
    Ok(out)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("reading status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_odd_command_names() {
        let line = "4242 (a) b (c) S 1 2 3 4 5 6 7 8 9 10 250 31 0 0 20 0 1 0";
        assert_eq!(parse_stat(line), Some(("a) b (c".to_string(), 281)));
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn live_counters_read() {
        assert!(process_ticks().is_ok());
        assert!(thread_ticks().is_ok());
        assert!(!threads().unwrap().is_empty());
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
