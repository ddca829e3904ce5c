//! `/proc` readers: CPU, page-fault and memory accounting for the benchmark's
//! own process, and the host record printed with every run.
//!
//! On-CPU time comes from `schedstat` (nanoseconds, per thread) rather than
//! `stat`'s `utime`/`stime` (10 ms ticks): a serve op is ~6 ms.

use std::fs;
use std::io;

/// Counters from one line of `/proc/<pid>/stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatSample {
    /// Minor page faults (field 10).
    pub minflt: u64,
    /// User time in clock ticks (field 14).
    pub utime_ticks: u64,
    /// System time in clock ticks (field 15).
    pub stime_ticks: u64,
}

/// Parse a `/proc/<pid>/stat` line. The `comm` field (2) is parenthesised
/// and may itself hold spaces and parentheses, so fields are counted from
/// the last `)`.
pub fn parse_stat(text: &str) -> Option<StatSample> {
    let rest = text.get(text.rfind(')')? + 1..)?;
    let f: Vec<&str> = rest.split_whitespace().collect();
    // f[0] is field 3 (state)
    Some(StatSample {
        minflt: f.get(7)?.parse().ok()?,
        utime_ticks: f.get(11)?.parse().ok()?,
        stime_ticks: f.get(12)?.parse().ok()?,
    })
}

/// On-CPU nanoseconds from a `schedstat` line (`<on-cpu ns> <wait ns> <slices>`).
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `VmHWM` (peak resident set) in kB from `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// CPU attributable to the system under test: the whole process minus the
/// load-generator thread. Saturates at zero (the two reads are not atomic).
pub fn sut_cpu_ns(process_ns: u64, generator_ns: u64) -> u64 {
    process_ns.saturating_sub(generator_ns)
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("cannot parse {what}"))
}

/// `/proc/self/stat` counters.
pub fn self_stat() -> io::Result<StatSample> {
    parse_stat(&fs::read_to_string("/proc/self/stat")?).ok_or_else(|| bad("/proc/self/stat"))
}

/// On-CPU nanoseconds summed over every live thread of this process.
pub fn process_cpu_ns() -> io::Result<u64> {
    let mut total = 0u64;
    for entry in fs::read_dir("/proc/self/task")? {
        let path = entry?.path().join("schedstat");
        match fs::read_to_string(&path) {
            Ok(text) => total += parse_schedstat(&text).ok_or_else(|| bad("schedstat"))?,
            // a thread that exited between readdir and read
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    Ok(total)
}

/// On-CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> io::Result<u64> {
    parse_schedstat(&fs::read_to_string("/proc/thread-self/schedstat")?)
        .ok_or_else(|| bad("/proc/thread-self/schedstat"))
}

/// Peak resident set of this process in MB.
pub fn rss_peak_mb() -> io::Result<f64> {
    let kb = parse_vm_hwm_kb(&fs::read_to_string("/proc/self/status")?)
        .ok_or_else(|| bad("VmHWM in /proc/self/status"))?;
    Ok(kb as f64 / 1024.0)
}

/// Where the numbers were taken: printed with every run, because a result
/// that depends on cores means nothing without the core count.
pub fn host_record() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    format!("nproc={nproc} kernel={} cpu=\"{model}\"", kernel.trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "7870 (harp) bench)) R 7863 7870 7863 0 -1 4194304 79 5 2 1 31 17 0 0 20 0 3 0 \
                        4208076 2703360 287 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 0 0 0 0 0 0";

    #[test]
    fn stat_fields_survive_a_hostile_comm() {
        let s = parse_stat(STAT).expect("parses");
        assert_eq!(
            s,
            StatSample {
                minflt: 79,
                utime_ticks: 31,
                stime_ticks: 17
            }
        );
        assert_eq!(parse_stat("1 (x) R 2 3"), None);
        assert_eq!(parse_stat("no parens"), None);
    }

    #[test]
    fn schedstat_and_status() {
        assert_eq!(parse_schedstat("686756 58695 2\n"), Some(686_756));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
        let status = "Name:\tx\nVmPeak:\t  99 kB\nVmHWM:\t    1808 kB\nVmRSS:\t 1700 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1808));
        assert_eq!(parse_vm_hwm_kb("VmRSS: 1 kB"), None);
    }

    #[test]
    fn generator_cpu_is_subtracted_and_saturates() {
        assert_eq!(sut_cpu_ns(1_000, 250), 750);
        assert_eq!(sut_cpu_ns(100, 250), 0);
    }

    #[test]
    fn live_readers_see_this_process() {
        // burn CPU across a few scheduler ticks so every counter is non-zero
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 30 {
            std::hint::spin_loop();
        }
        let me = thread_cpu_ns().expect("thread schedstat");
        let all = process_cpu_ns().expect("process schedstat");
        assert!(me > 0 && all >= me);
        assert!(self_stat().expect("stat").minflt > 0);
        assert!(rss_peak_mb().expect("status") > 0.0);
        assert!(host_record().contains("nproc="));
    }
}
