//! Outside-in OS accounting: per-thread CPU time, runqueue wait,
//! read/write syscalls, context switches and bytes written from
//! `/proc/self/task/*`, grouped by thread name.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Thread groups, by the names the program and the benchmark give them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Group {
    Reactor,
    Accept,
    WalFlush,
    Driver,
    Other,
}

impl Group {
    fn of(comm: &str) -> Group {
        // `comm` is cut to 15 bytes by the kernel.
        if comm.starts_with("communix-reac") {
            Group::Reactor
        } else if comm.starts_with("communix-accep") {
            Group::Accept
        } else if comm.starts_with("communix-wal") {
            Group::WalFlush
        } else if comm.starts_with(crate::harness::DRIVER_THREAD_PREFIX) {
            Group::Driver
        } else {
            Group::Other
        }
    }
}

/// Cumulative counters of one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    pub cpu_ns: u64,
    pub wait_ns: u64,
    /// Read/write-family syscalls (`syscr + syscw`). Socket `recv` and
    /// `send` are not in this accounting; file reads and writes are.
    pub syscalls: u64,
    /// Voluntary plus involuntary context switches.
    pub switches: u64,
    pub write_bytes: u64,
}

impl Usage {
    fn minus(self, before: Usage) -> Usage {
        Usage {
            cpu_ns: self.cpu_ns.saturating_sub(before.cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(before.wait_ns),
            syscalls: self.syscalls.saturating_sub(before.syscalls),
            switches: self.switches.saturating_sub(before.switches),
            write_bytes: self.write_bytes.saturating_sub(before.write_bytes),
        }
    }

    pub fn add(&mut self, other: Usage) {
        self.cpu_ns += other.cpu_ns;
        self.wait_ns += other.wait_ns;
        self.syscalls += other.syscalls;
        self.switches += other.switches;
        self.write_bytes += other.write_bytes;
    }
}

/// Every live thread's counters at one instant, keyed by thread id.
#[derive(Debug, Default)]
pub struct Sample(BTreeMap<u32, (Group, Usage)>);

fn field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

fn read_usage(dir: &Path) -> Option<(String, Usage)> {
    let comm = fs::read_to_string(dir.join("comm")).ok()?;
    let sched = fs::read_to_string(dir.join("schedstat")).ok()?;
    let mut sched = sched.split_whitespace().map(|v| v.parse().unwrap_or(0));
    let io = fs::read_to_string(dir.join("io")).unwrap_or_default();
    let status = fs::read_to_string(dir.join("status")).unwrap_or_default();
    let usage = Usage {
        cpu_ns: sched.next().unwrap_or(0),
        wait_ns: sched.next().unwrap_or(0),
        syscalls: field(&io, "syscr:") + field(&io, "syscw:"),
        switches: field(&status, "voluntary_ctxt_switches:")
            + field(&status, "nonvoluntary_ctxt_switches:"),
        write_bytes: field(&io, "write_bytes:"),
    };
    Some((comm.trim().to_string(), usage))
}

/// The calling thread's counters since it started.
pub fn this_thread() -> Usage {
    read_usage(Path::new("/proc/thread-self")).map_or(Usage::default(), |(_, u)| u)
}

/// Reads `/proc/self/task/*/{comm,schedstat,io}`. Threads that exit
/// while being read are skipped.
pub fn sample() -> Sample {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Sample(out);
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        if let Some((comm, usage)) = read_usage(&entry.path()) {
            out.insert(tid, (Group::of(&comm), usage));
        }
    }
    Sample(out)
}

/// Per-group usage between two samples. A thread absent from `before`
/// started in between and counts from zero.
pub fn delta(before: &Sample, after: &Sample) -> BTreeMap<Group, Usage> {
    let mut groups = BTreeMap::new();
    for (tid, (group, usage)) in &after.0 {
        let base = before.0.get(tid).map_or(Usage::default(), |(_, u)| *u);
        groups
            .entry(*group)
            .or_insert_with(Usage::default)
            .add(usage.minus(base));
    }
    groups
}

/// Machine-wide CPU clock ticks so far from `/proc/stat`: busy (user,
/// nice, system, irq, softirq) and steal (wanted by this VM, run by the
/// hypervisor for someone else).
pub fn cpu_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let t: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().unwrap_or(0))
        .collect();
    let at = |i: usize| t.get(i).copied().unwrap_or(0);
    (at(0) + at(1) + at(2) + at(5) + at(6), at(7))
}

/// Share of the CPU time the VM wanted between two [`cpu_ticks`] that
/// the hypervisor withheld: steal over busy plus steal.
pub fn stolen_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let busy = after.0.saturating_sub(before.0);
    let steal = after.1.saturating_sub(before.1);
    steal as f64 / (busy + steal).max(1) as f64
}

/// Resets this process's peak resident set size to its current size.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`] (or its start), in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    field(&status, "VmHWM:").max(1) as f64 / 1024.0
}
