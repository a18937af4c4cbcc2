//! What the harness reads from the operating system: CPU time, peak
//! memory, core count, and CPU pinning through `taskset`.

use std::process::{Command, Stdio};

/// CPU time (user + system, all threads, exited ones included) this
/// process has used, in seconds.
pub fn self_cpu_secs() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which points at a live, correctly laid out (two 64-bit fields on
    // 64-bit Linux) local; it keeps no reference after returning.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time (user + system) of process `pid` in seconds, from
/// `/proc/<pid>/stat` at the kernel's 100 Hz tick; `None` once the
/// process is gone.
pub fn pid_cpu_secs(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_stat_cpu_ticks(&stat).map(|ticks| ticks as f64 / 100.0)
}

/// utime + stime (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may hold spaces, so fields are counted from
/// the closing parenthesis.
fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3; utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process for `None`,
/// in megabytes.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    parse_status_kb(&status, "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The last CPU of this process's allowed list — the core the serve
/// workloads pin generator and server to.
pub fn last_allowed_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    parse_last_cpu(list.trim())
}

fn parse_last_cpu(list: &str) -> Option<u32> {
    let last = list.rsplit(',').next()?;
    last.rsplit('-').next()?.trim().parse().ok()
}

/// Pin the calling thread of this process to `cpu` through
/// `taskset -cp`; `false` when `taskset` is missing or refuses.
pub fn pin_self(cpu: u32) -> bool {
    Command::new("taskset")
        .args(["-cp", &cpu.to_string(), &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_the_command_name() {
        let line = "1234 (dhdl serve (x)) S 1 1234 1234 0 -1 4194560 100 0 0 0 \
                    250 75 0 0 20 0 3 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(line), Some(325));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_fields() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t   20480 kB\nThreads:\t1\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(20480));
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
    }

    #[test]
    fn cpu_lists() {
        assert_eq!(parse_last_cpu("0-1"), Some(1));
        assert_eq!(parse_last_cpu("0,2-3,7"), Some(7));
        assert_eq!(parse_last_cpu("5"), Some(5));
        assert_eq!(parse_last_cpu(""), None);
    }

    #[test]
    fn own_cpu_time_and_memory_are_readable() {
        let before = self_cpu_secs();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(self_cpu_secs() > before);
        assert!(pid_cpu_secs(std::process::id()).is_some());
        assert!(peak_rss_mb(None).unwrap() > 0.1);
    }
}
