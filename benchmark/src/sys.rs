//! Process-level measurements: CPU time and peak resident memory.

use std::time::Duration;

/// `struct rusage` of x86-64/aarch64 Linux: two `timeval`s followed by
/// fourteen `long`s the harness does not read.
#[repr(C)]
struct RUsage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    rest: [i64; 14],
}

/// A `cpu_set_t`: 1024 CPUs as a bit set.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU time this process has consumed so far.
pub fn process_cpu() -> Duration {
    let mut usage = RUsage {
        utime_sec: 0,
        utime_usec: 0,
        stime_sec: 0,
        stime_usec: 0,
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout
    // the kernel fills for RUSAGE_SELF; the call touches nothing else.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    Duration::new((usage.utime_sec + usage.stime_sec) as u64, 0)
        + Duration::from_micros((usage.utime_usec + usage.stime_usec) as u64)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// OS threads currently alive in this process.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// Restrict the calling thread, and every thread it starts from now on,
/// to the first CPU it is currently allowed on.
///
/// The two latency-bound workloads hand each request from thread to
/// thread with every thread otherwise asleep. On the 2-vCPU reference VM
/// a wake-up that crosses vCPUs costs a VM exit, and whether the kernel
/// puts both ends of a hand-off on one vCPU is settled run by run: unpinned
/// runs came in two modes (service `lat_us_p50` 85 vs 146 µs,
/// `cpu_us_per_parcel` 38 vs 78 µs). On one CPU there is one mode. The two
/// flood workloads keep both CPUs busy and are not pinned.
pub fn pin_to_one_cpu() {
    let mut set: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `set` is a live, writable buffer of `size` bytes, which is
    // all sched_getaffinity writes; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size, &mut set) };
    assert!(rc == 0, "sched_getaffinity failed");
    let word = set
        .iter()
        .position(|w| *w != 0)
        .expect("at least one allowed CPU");
    let lowest = set[word] & set[word].wrapping_neg();
    set = [0; 16];
    set[word] = lowest;
    // SAFETY: `set` is a live buffer of `size` bytes that the call only
    // reads; it names a CPU the thread was already allowed on.
    let rc = unsafe { sched_setaffinity(0, size, &set) };
    assert!(rc == 0, "sched_setaffinity failed");
}
