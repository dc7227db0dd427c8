//! Clocks, memory, percentiles and digests: the instruments every workload
//! and micro-cell reads, none of which touch the program under test.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// `struct timespec` as the C library lays it out on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `struct rlimit` on 64-bit Linux.
#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RLIMIT_NOFILE: i32 = 7;

/// `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// CPU seconds (user + system, every thread, in-process servers included)
/// this process has consumed. Nanosecond-granular, unlike the tick-sampled
/// `utime`/`stime` of `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of the
    // call, and CLOCK_PROCESS_CPUTIME_ID is a clock every Linux has.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Raises the soft open-file limit to the hard limit and returns the
/// resulting soft limit, so a conservative shell default (1024) does not
/// fail the 1 000-idle-connection workload on a host that allows more.
pub fn raise_fd_limit() -> u64 {
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid, writable `rlimit`.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 0;
    }
    if lim.cur < lim.max {
        let raised = Rlimit { cur: lim.max, max: lim.max };
        // SAFETY: `raised` is a valid `rlimit`; raising the soft limit to
        // the hard limit needs no privilege.
        if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } == 0 {
            return raised.cur;
        }
    }
    lim.cur
}

/// Runs `spawn` with the calling thread confined to the first CPU it may
/// run on, then restores the thread's previous affinity. Threads created
/// inside `spawn` inherit the confinement and keep it. Returns that CPU with
/// `spawn`'s result, or an error where the kernel refuses.
pub fn spawn_pinned<R>(spawn: impl FnOnce() -> R) -> Result<(R, usize), String> {
    let mut previous: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `previous` is valid and writable for `size` bytes for the
    // duration of the call; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut previous) } < 0 {
        return Err("sched_getaffinity failed".to_string());
    }
    let word = previous.iter().position(|w| *w != 0).ok_or("empty CPU affinity mask")?;
    let cpu = word * 64 + previous[word].trailing_zeros() as usize;
    let mut only: CpuSet = [0; 16];
    only[word] = 1 << (cpu % 64);
    // SAFETY: `only` is valid for `size` bytes for the duration of the call.
    if unsafe { sched_setaffinity(0, size, &only) } != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    let out = spawn();
    // SAFETY: as above; `previous` was filled in by the kernel.
    if unsafe { sched_setaffinity(0, size, &previous) } != 0 {
        return Err("restoring the CPU affinity failed".to_string());
    }
    Ok((out, cpu))
}

/// Ids of this process's threads.
pub fn thread_ids() -> BTreeSet<u32> {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect::<BTreeSet<u32>>()
        })
        .unwrap_or_default()
}

/// CPUs thread `tid` may run on, as the kernel lists them (`0`, `0-1`);
/// `None` once the thread has exited.
pub fn allowed_cpus(tid: u32) -> Option<String> {
    let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).ok()?;
    status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:")).map(|v| v.trim().to_string())
}

/// Peak resident set (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the numbers were measured on; printed with every result because
/// every thread count in the benchmark is sized for this shape of host.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub fd_limit: u64,
    pub commit: String,
}

impl Host {
    pub fn probe(fd_limit: u64) -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .unwrap_or_default()
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string());
        // The driver's checkout is not a git repository; "unknown" there.
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            );
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            fd_limit,
            commit,
        }
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`); 0 for
/// an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (lower median for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// FNV-1a folded a 32-bit word at a time: the delivered tensors are
/// ~29 M floats per epoch, and byte-at-a-time folding would cost more
/// than the epoch it checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn fold_f32s(&mut self, values: &[f32]) {
        let mut h = self.0;
        for v in values {
            h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// Calls `op` in bursts of `burst` until `budget` has elapsed and returns
/// seconds per call. `burst` keeps the clock reads out of nanosecond cells.
pub fn seconds_per_call(budget: Duration, burst: usize, mut op: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0usize;
    loop {
        for _ in 0..burst {
            op();
        }
        calls += burst;
        let elapsed = started.elapsed();
        if elapsed >= budget {
            return elapsed.as_secs_f64() / calls as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
    }

    #[test]
    fn threads_spawned_while_pinned_stay_on_one_cpu() {
        let before = thread_ids();
        let (gate, cpu) = spawn_pinned(|| {
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            (tx, std::thread::spawn(move || rx.recv().ok()))
        })
        .unwrap();
        let spawned: Vec<u32> = thread_ids().difference(&before).copied().collect();
        assert!(spawned.iter().any(|t| allowed_cpus(*t) == Some(cpu.to_string())), "{spawned:?}");
        drop(gate.0);
        gate.1.join().unwrap();
    }

    #[test]
    fn digest_depends_on_order() {
        let mut a = Fnv::new();
        a.fold_f32s(&[1.0, 2.0]);
        let mut b = Fnv::new();
        b.fold_f32s(&[2.0, 1.0]);
        assert_ne!(a, b);
    }
}
