//! Process and per-thread CPU, read from outside the program under test:
//! `getrusage` for the process, `/proc/self/task/*/{comm,schedstat}` for
//! threads. Where `/proc` is missing every per-thread figure is `None`
//! (reported as absent, never as zero).

use std::collections::BTreeMap;

/// CPU time, run-queue wait and timeslices of one thread, cumulative.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Time on a CPU, ns.
    pub cpu_ns: u64,
    /// Time runnable but waiting for a CPU, ns.
    pub wait_ns: u64,
    /// Timeslices run.
    pub slices: u64,
}

impl SchedStat {
    fn parse(text: &str) -> Option<Self> {
        let mut fields = text.split_whitespace().map(str::parse::<u64>);
        Some(Self {
            cpu_ns: fields.next()?.ok()?,
            wait_ns: fields.next()?.ok()?,
            slices: fields.next()?.ok()?,
        })
    }

    fn since(self, earlier: Self) -> Self {
        Self {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            slices: self.slices.saturating_sub(earlier.slices),
        }
    }

    fn add(&mut self, other: Self) {
        self.cpu_ns += other.cpu_ns;
        self.wait_ns += other.wait_ns;
        self.slices += other.slices;
    }
}

/// One reading of every live thread: tid → (name, counters).
#[derive(Debug, Clone, Default)]
pub struct ThreadSample {
    threads: BTreeMap<u32, (String, SchedStat)>,
}

/// Reads every thread of this process, or `None` without `/proc`.
#[must_use]
pub fn sample_threads() -> Option<ThreadSample> {
    let mut threads = BTreeMap::new();
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let Ok(entry) = entry else { continue };
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let path = entry.path();
        // A thread may exit between listing and reading: skip it.
        let (Ok(comm), Ok(stat)) = (
            std::fs::read_to_string(path.join("comm")),
            std::fs::read_to_string(path.join("schedstat")),
        ) else {
            continue;
        };
        if let Some(stat) = SchedStat::parse(&stat) {
            threads.insert(tid, (comm.trim().to_string(), stat));
        }
    }
    Some(ThreadSample { threads })
}

/// Host-wide CPU ticks from `/proc/stat`: `(stolen, total)`. Steal is
/// time the hypervisor ran something else while this machine's CPUs had
/// work: interference from outside the benchmark.
#[must_use]
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of host CPU time stolen between two [`host_ticks`] readings.
#[must_use]
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| s1.saturating_sub(s0) as f64 / (t1 - t0) as f64)
}

/// The calling thread's id, from `/proc/thread-self`.
#[must_use]
pub fn current_tid() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// The thread groups the benchmark reports on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Group {
    /// The benchmark's generator thread.
    Driver,
    /// `dataflasks-sock-io-*`: socket reactors.
    SockIo,
    /// `dataflasks-sock-worker-*`: socket-backend node workers.
    SockWorker,
    /// `dataflasks-sock-timer`: socket-backend timer wheel.
    SockTimer,
    /// `dataflasks-worker-*`: in-memory backend node workers.
    MemWorker,
    /// `dataflasks-timer-wheel`: in-memory backend timer wheel.
    MemTimer,
    /// Anything else.
    Other,
}

/// Names thread roles. The kernel keeps only 15 bytes of a thread name, so
/// the socket backend's three roles all read `dataflasks-sock`; they are
/// told apart by creation order (the cluster starts its workers, then its
/// reactors, then its timer, and thread ids grow), given the counts the
/// cluster was configured with.
#[derive(Debug, Clone, Default)]
pub struct Roles {
    driver: Option<u32>,
    sock: Vec<(u32, Group)>,
}

impl Roles {
    /// Roles for a run whose generator thread is `driver`.
    #[must_use]
    pub fn new(driver: Option<u32>) -> Self {
        Self {
            driver,
            sock: Vec::new(),
        }
    }

    /// Assigns the socket threads of `sample` (taken right after the
    /// cluster started): the lowest `workers` ids are workers, the next
    /// `io` are reactors, the last is the timer. Returns false (and assigns
    /// nothing) if the thread count does not match.
    pub fn assign_socket_threads(
        &mut self,
        sample: &ThreadSample,
        workers: usize,
        io: usize,
    ) -> bool {
        let tids: Vec<u32> = sample
            .threads
            .iter()
            .filter(|(_, (name, _))| name.starts_with("dataflasks-sock"))
            .map(|(&tid, _)| tid)
            .collect();
        if tids.len() != workers + io + 1 {
            return false;
        }
        self.sock = tids
            .iter()
            .enumerate()
            .map(|(rank, &tid)| {
                let group = if rank < workers {
                    Group::SockWorker
                } else if rank < workers + io {
                    Group::SockIo
                } else {
                    Group::SockTimer
                };
                (tid, group)
            })
            .collect();
        true
    }

    fn group_of(&self, tid: u32, name: &str) -> Group {
        if Some(tid) == self.driver {
            return Group::Driver;
        }
        if let Some(&(_, group)) = self.sock.iter().find(|(t, _)| *t == tid) {
            return group;
        }
        // Full names where the kernel kept enough of them.
        if name.starts_with("dataflasks-sock-io") {
            Group::SockIo
        } else if name.starts_with("dataflasks-sock-worker") {
            Group::SockWorker
        } else if name.starts_with("dataflasks-sock-timer") {
            Group::SockTimer
        } else if name.starts_with("dataflasks-work") {
            Group::MemWorker
        } else if name.starts_with("dataflasks-time") {
            Group::MemTimer
        } else {
            Group::Other
        }
    }

    /// Per group, what its threads did between two samples. Threads that
    /// started after `before` count from zero; threads that exited are lost
    /// (their time still shows in [`process_cpu_ns`]).
    #[must_use]
    pub fn delta(&self, before: &ThreadSample, after: &ThreadSample) -> BTreeMap<Group, SchedStat> {
        let mut groups: BTreeMap<Group, SchedStat> = BTreeMap::new();
        for (tid, (name, stat)) in &after.threads {
            let earlier = before
                .threads
                .get(tid)
                .map_or_else(SchedStat::default, |(_, stat)| *stat);
            groups
                .entry(self.group_of(*tid, name))
                .or_default()
                .add(stat.since(earlier));
        }
        groups
    }
}

#[cfg(target_os = "linux")]
mod rusage {
    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss_kb: i64,
        rest: [i64; 13],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    const RUSAGE_SELF: i32 = 0;

    pub fn read() -> Option<(u64, u64)> {
        let mut usage = Rusage::default();
        // SAFETY: `usage` is a valid, writable `struct rusage` for the
        // duration of the call.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
        if rc != 0 {
            return None;
        }
        let ns = |t: &Timeval| t.sec as u64 * 1_000_000_000 + t.usec as u64 * 1_000;
        Some((ns(&usage.utime) + ns(&usage.stime), usage.maxrss_kb as u64))
    }
}

#[cfg(not(target_os = "linux"))]
mod rusage {
    pub fn read() -> Option<(u64, u64)> {
        None
    }
}

/// User + system CPU of the whole process so far, ns (`getrusage`).
#[must_use]
pub fn process_cpu_ns() -> Option<u64> {
    rusage::read().map(|(cpu, _)| cpu)
}

/// Peak resident set of the process, MB (`getrusage` high-water mark).
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    rusage::read().map(|(_, kb)| kb as f64 / 1024.0)
}

/// Where a result was measured: `(name, value)` pairs.
#[must_use]
pub fn provenance() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                line.strip_prefix("model name")?
                    .split(':')
                    .nth(1)
                    .map(|m| m.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("kernel", kernel),
        ("cpu_model", cpu),
        (
            "git_commit",
            git_commit().unwrap_or_else(|| "unknown".to_string()),
        ),
    ]
}

/// The commit checked out in the repository the benchmark was built from,
/// read from `.git` without running git (absent outside a git checkout).
fn git_commit() -> Option<String> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()?
        .join(".git");
    let head = std::fs::read_to_string(root.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(root.join(reference)) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(root.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (commit, name) = line.split_once(' ')?;
        (name == reference).then(|| commit.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_parses_and_subtracts() {
        let a = SchedStat::parse("100 20 3\n").unwrap();
        let b = SchedStat::parse("250 25 7").unwrap();
        assert_eq!(
            b.since(a),
            SchedStat {
                cpu_ns: 150,
                wait_ns: 5,
                slices: 4
            }
        );
        assert!(SchedStat::parse("garbage").is_none());
    }

    #[test]
    fn socket_roles_follow_creation_order() {
        let mut sample = ThreadSample::default();
        for (tid, name) in [
            (10, "main"),
            (21, "dataflasks-sock"),
            (22, "dataflasks-sock"),
            (23, "dataflasks-sock"),
        ] {
            sample
                .threads
                .insert(tid, (name.to_string(), SchedStat::default()));
        }
        let mut roles = Roles::new(Some(10));
        assert!(roles.assign_socket_threads(&sample, 1, 1));
        assert_eq!(roles.group_of(10, "main"), Group::Driver);
        assert_eq!(roles.group_of(21, "dataflasks-sock"), Group::SockWorker);
        assert_eq!(roles.group_of(22, "dataflasks-sock"), Group::SockIo);
        assert_eq!(roles.group_of(23, "dataflasks-sock"), Group::SockTimer);
        assert!(!Roles::new(None).assign_socket_threads(&sample, 2, 1));
        assert_eq!(roles.group_of(30, "dataflasks-work"), Group::MemWorker);
        assert_eq!(roles.group_of(31, "dataflasks-time"), Group::MemTimer);
    }

    #[test]
    fn this_process_is_measurable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(process_cpu_ns().is_some());
            assert!(peak_rss_mb().unwrap() > 0.0);
            let sample = sample_threads().unwrap();
            assert!(sample.threads.contains_key(&current_tid().unwrap()));
        }
    }
}
