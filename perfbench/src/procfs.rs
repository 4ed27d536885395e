//! Parsers for the few `/proc` files the run record needs: process CPU
//! time, peak resident set, and host-wide CPU (steal) accounting.

use std::time::Instant;

/// Kernel clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on
/// every mainstream Linux configuration).
const USER_HZ: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name may contain spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // after the command: state is field 3, utime 14, stime 15
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in kB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(text: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Host-wide CPU time counters from the aggregate `cpu` line of
/// `/proc/stat`, in ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCpu {
    /// user + nice + system + idle + iowait + irq + softirq + steal
    /// (guest time is already inside user).
    pub total: u64,
    /// idle + iowait.
    pub idle: u64,
    /// Time the hypervisor ran something else while a vCPU wanted to run.
    pub steal: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat`.
pub fn parse_proc_stat(text: &str) -> Option<HostCpu> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if v.len() < 8 {
        return None;
    }
    Some(HostCpu {
        total: v[..8].iter().sum(),
        idle: v[3] + v[4],
        steal: v[7],
    })
}

/// Number of per-CPU `cpuN` lines in `/proc/stat` text: the host's CPUs,
/// whatever this process's affinity.
pub fn parse_host_cpus(text: &str) -> usize {
    text.lines()
        .filter(|l| {
            l.strip_prefix("cpu")
                .is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit()))
        })
        .count()
}

/// `model name` of the first processor in `/proc/cpuinfo` text.
pub fn parse_cpu_model(text: &str) -> Option<String> {
    text.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// This process's CPU time (all threads), in seconds.
pub fn process_cpu_s() -> f64 {
    parse_stat_cpu_ticks(&read("/proc/self/stat")).map_or(f64::NAN, |t| t as f64 / USER_HZ)
}

/// This process's peak resident set, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    parse_vm_hwm_kb(&read("/proc/self/status")).map_or(f64::NAN, |kb| kb as f64 * 1024.0 / 1e6)
}

/// Host CPU counters now.
pub fn host_cpu() -> HostCpu {
    parse_proc_stat(&read("/proc/stat")).unwrap_or_default()
}

/// CPUs of this host.
pub fn host_cpus() -> usize {
    parse_host_cpus(&read("/proc/stat"))
}

/// CPU model of this host.
pub fn cpu_model() -> String {
    parse_cpu_model(&read("/proc/cpuinfo")).unwrap_or_else(|| "unknown".into())
}

/// Wall time, process CPU time and host CPU counters over one measured
/// phase.
pub struct Window {
    wall: Instant,
    cpu_s: f64,
    host: HostCpu,
}

/// What a [`Window`] measured.
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    /// Wall time, s.
    pub wall_s: f64,
    /// Process CPU time (utime + stime), s.
    pub cpu_s: f64,
    /// Host steal over the window, % of host CPU time.
    pub steal_pct: f64,
    /// Host busy time over the window, % of host CPU time.
    pub host_util_pct: f64,
}

impl Window {
    /// Starts a window.
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
            host: host_cpu(),
        }
    }

    /// Closes the window.
    pub fn stop(&self) -> WindowStats {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let host = host_cpu();
        let total = host.total.saturating_sub(self.host.total).max(1) as f64;
        let idle = host.idle.saturating_sub(self.host.idle) as f64;
        let steal = host.steal.saturating_sub(self.host.steal) as f64;
        WindowStats {
            wall_s,
            cpu_s: process_cpu_s() - self.cpu_s,
            steal_pct: steal / total * 100.0,
            host_util_pct: (total - idle) / total * 100.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_counted_after_the_command() {
        let text = "4242 (my (odd) bench) R 1 4242 4242 0 -1 4194304 5000 0 3 0 \
                    1234 56 0 0 20 0 3 0 100 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(text), Some(1234 + 56));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_from_status() {
        let text = "Name:\tperfbench\nVmPeak:\t  400000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(text), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }

    #[test]
    fn proc_stat_aggregate_line() {
        let text = "cpu  100 5 50 800 20 1 2 30 7 0\ncpu0 50 2 25 400 10 0 1 15 3 0\nintr 1\n";
        let c = parse_proc_stat(text).unwrap();
        assert_eq!(c.total, 100 + 5 + 50 + 800 + 20 + 1 + 2 + 30);
        assert_eq!(c.idle, 820);
        assert_eq!(c.steal, 30);
        assert_eq!(parse_host_cpus(text), 1);
        assert_eq!(parse_proc_stat("cpu0 1 2 3\n"), None);
        assert_eq!(parse_proc_stat("cpu  1 2 3\n"), None);
    }

    #[test]
    fn cpu_model_first_processor() {
        let text = "processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\nprocessor\t: 1\n\
                    model name\t: Other\n";
        assert_eq!(
            parse_cpu_model(text).as_deref(),
            Some("Example CPU @ 2.0GHz")
        );
        assert_eq!(parse_cpu_model(""), None);
    }
}
