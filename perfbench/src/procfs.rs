//! Per-thread CPU time, peak memory and machine facts from `/proc`.
//!
//! CPU comes from `/proc/self/task/<tid>/schedstat`, whose first field is
//! the thread's run time in nanoseconds. `/proc/self/stat` counts clock
//! ticks (10 ms), which quantises a per-job figure to a few fixed values.

use std::collections::HashMap;

/// Thread groups the benchmark reports CPU for, keyed by thread name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Group {
    /// `gateway-reactor-*`: the HTTP event loops.
    Reactor,
    /// `tuner-worker-*`: the solver pool.
    Worker,
    /// `tuner-supervisor` (`tuner-superviso` after the kernel's 15-byte cut).
    Supervisor,
    /// `store-writer`: the write-behind store thread.
    StoreWriter,
    /// `loadgen-*`: the benchmark's own load-generator threads.
    Client,
    /// Anything else (the benchmark's main thread, helpers).
    Other,
}

impl Group {
    /// Classifies a thread by its `comm` name.
    pub fn of(comm: &str) -> Group {
        if comm.starts_with("gateway-reactor") {
            Group::Reactor
        } else if comm.starts_with("tuner-worker") {
            Group::Worker
        } else if comm.starts_with("tuner-superviso") {
            Group::Supervisor
        } else if comm == "store-writer" {
            Group::StoreWriter
        } else if comm.starts_with("loadgen") {
            Group::Client
        } else {
            Group::Other
        }
    }

    /// Whether the thread belongs to the service (gateway, pool, store).
    pub fn is_server(self) -> bool {
        matches!(
            self,
            Group::Reactor | Group::Worker | Group::Supervisor | Group::StoreWriter
        )
    }
}

/// Run time in nanoseconds: the first field of a `schedstat` file.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `VmHWM` (peak resident set) in KiB from a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The first `model name` of a `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|line| line.starts_with("model name"))?
        .split_once(':')
        .map(|(_, model)| model.trim().to_owned())
}

/// Run time of every live thread of this process: tid → (group, ns).
pub type CpuSnapshot = HashMap<u64, (Group, u64)>;

/// Reads every thread's name and run time. Threads that exit between two
/// snapshots take their time with them; the service's threads all live
/// through a timed phase.
pub fn cpu_snapshot() -> CpuSnapshot {
    let mut snapshot = HashMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return snapshot;
    };
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = task.path();
        let (Ok(comm), Ok(stat)) = (
            std::fs::read_to_string(path.join("comm")),
            std::fs::read_to_string(path.join("schedstat")),
        ) else {
            continue; // exited while we looked
        };
        if let Some(ns) = parse_schedstat(&stat) {
            snapshot.insert(tid, (Group::of(comm.trim_end()), ns));
        }
    }
    snapshot
}

/// CPU nanoseconds each group spent between two snapshots. A thread born
/// after `before` counts from zero.
pub fn cpu_between(before: &CpuSnapshot, after: &CpuSnapshot) -> HashMap<Group, u64> {
    let mut by_group = HashMap::new();
    for (tid, (group, ns)) in after {
        let base = before.get(tid).map_or(0, |(_, ns)| *ns);
        *by_group.entry(*group).or_insert(0) += ns.saturating_sub(base);
    }
    by_group
}

/// Run time of the calling thread in nanoseconds. Load-generator threads
/// read it themselves: they exit before the phase-end snapshot.
pub fn this_thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|text| parse_schedstat(&text))
        .unwrap_or(0)
}

/// Steal ticks (USER_HZ) from the aggregate `cpu` line of `/proc/stat`:
/// time the hypervisor ran something else while this machine's vCPUs had
/// work.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|line| line.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// This machine's steal ticks so far.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| parse_steal_ticks(&stat))
        .unwrap_or(0)
}

/// Peak resident set of this process in KiB.
pub fn vm_hwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vm_hwm_kib(&status))
        .unwrap_or(0)
}

/// `nproc`: the CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One line naming the machine a result was measured on.
pub fn machine() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| parse_cpu_model(&text))
        .unwrap_or_else(|| "unknown".to_owned());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned());
    format!("nproc={} cpu=\"{model}\" kernel={kernel}", nproc())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_first_field_is_run_time() {
        assert_eq!(parse_schedstat("349467325 2054308 22\n"), Some(349_467_325));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_from_status() {
        let status = "Name:\tperf\nVmPeak:\t  9000 kB\nVmHWM:\t    1696 kB\nVmRSS:\t 1500 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(1696));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t1 kB\n"), None);
    }

    #[test]
    fn cpu_model_is_the_first_model_name() {
        let info =
            "processor\t: 0\nmodel name\t: Intel(R) Xeon(R)\nprocessor\t: 1\nmodel name\t: other\n";
        assert_eq!(parse_cpu_model(info).as_deref(), Some("Intel(R) Xeon(R)"));
    }

    #[test]
    fn threads_group_by_name() {
        assert_eq!(Group::of("gateway-reactor-0"), Group::Reactor);
        assert_eq!(Group::of("tuner-worker-1"), Group::Worker);
        assert_eq!(Group::of("tuner-superviso"), Group::Supervisor);
        assert_eq!(Group::of("store-writer"), Group::StoreWriter);
        assert_eq!(Group::of("loadgen-0"), Group::Client);
        assert_eq!(Group::of("crowdtune-perfb"), Group::Other);
        assert!(Group::Supervisor.is_server() && !Group::Client.is_server());
    }

    #[test]
    fn cpu_between_diffs_per_thread_and_counts_new_threads_from_zero() {
        let before: CpuSnapshot = [(1, (Group::Worker, 100)), (2, (Group::Client, 50))].into();
        let after: CpuSnapshot = [
            (1, (Group::Worker, 400)),
            (2, (Group::Client, 80)),
            (3, (Group::Worker, 25)),
        ]
        .into();
        let diff = cpu_between(&before, &after);
        assert_eq!(diff[&Group::Worker], 325);
        assert_eq!(diff[&Group::Client], 30);
    }

    #[test]
    fn this_process_reports_its_own_threads() {
        let snapshot = cpu_snapshot();
        assert!(!snapshot.is_empty());
        assert!(vm_hwm_kib() > 0);
    }
}
