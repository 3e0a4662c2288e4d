//! Process-level readings: CPU time, peak RSS, core count, scratch space.

use std::path::PathBuf;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    #[cfg(target_env = "gnu")]
    fn mallopt(param: i32, value: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of this process (all threads), in nanoseconds.
/// `/proc/self/stat` carries the same number at 10 ms granularity, too
/// coarse for the per-call CPU rungs.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which is valid and exclusively borrowed for the call; on
    // 64-bit Linux that struct is two 64-bit signed integers, as declared
    // above, and CLOCK_PROCESS_CPUTIME_ID (2) is always available.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Restricts this thread — and every thread spawned after the call, which
/// inherit the mask — to the highest-numbered CPU it may run on. Returns
/// that CPU, or `None` if the kernel refused (the run then goes unpinned).
///
/// Why: on the 2-vCPU reference VM a wake-up that crosses vCPUs costs more
/// than the work it hands over, and whether the scheduler crosses or not
/// flips between modes for seconds at a time (append throughput 6K..13K
/// ops/s for identical rounds). On one CPU every wake-up is a plain context
/// switch: rounds repeat, and the numbers are CPU costs of the code.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: both calls read or write at most `bytes` bytes through a
    // pointer to `mask`, which is exactly that large and lives across the
    // calls; pid 0 names the calling thread.
    unsafe {
        if sched_getaffinity(0, bytes, mask.as_mut_ptr()) != 0 {
            return None;
        }
        let word = mask.iter().rposition(|w| *w != 0)?;
        let bit = 63 - mask[word].leading_zeros() as usize;
        mask = [0; 16];
        mask[word] = 1 << bit;
        (sched_setaffinity(0, bytes, mask.as_ptr()) == 0).then_some(word * 64 + bit)
    }
}

/// Tells glibc's allocator to use one arena for every thread (a no-op on
/// other C libraries). Must run before the first thread is spawned.
///
/// Why: with per-thread arenas, which arena a freed page returns to depends
/// on which of ~50 short-lived server threads happened to free it, and peak
/// RSS of identical `append_tcp` runs ranged 40–54 MiB; with one arena it is
/// 30.2–30.8 MiB at the same speed (nothing runs in parallel on one CPU).
pub fn one_malloc_arena() {
    #[cfg(target_env = "gnu")]
    {
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` only stores an integer tunable inside the
        // allocator; it takes no pointers and is called before any other
        // thread exists.
        unsafe { mallopt(M_ARENA_MAX, 1) };
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A scratch directory next to the running executable — inside the build's
/// target directory, so inside the checkout and never in the git tree.
/// Removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(label: &str) -> std::io::Result<Self> {
        let dir = scratch_root()?.join(format!("ledger-tmp-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The directory the executable lives in.
pub fn scratch_root() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    Ok(exe.parent().map(PathBuf::from).unwrap_or_default())
}
