//! Host measurements and the per-run scratch directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process CPU clock (user + system, every thread, including threads that
/// already exited). A direct `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` FFI
/// call: std links libc on Linux, so no dependency is needed. The
/// hand-written `Timespec { i64, i64 }` matches the C ABI only where
/// `time_t` and `long` are 64-bit, hence the gate.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod cputime {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }

    pub fn process_cpu_ns() -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable Timespec matching the libc ABI
        // on 64-bit Linux; clock_gettime only writes through the pointer.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        if rc != 0 {
            return 0;
        }
        u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000
            + u64::try_from(ts.tv_nsec).unwrap_or(0)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod cputime {
    pub fn process_cpu_ns() -> u64 {
        0
    }
}

pub use cputime::process_cpu_ns;

/// CPU affinity of the calling thread, through `sched_getaffinity` and
/// `sched_setaffinity` (libc, linked by std). The mask is a `cpu_set_t` of
/// 1024 bits. Other platforms report no CPUs and pinning does nothing.
#[cfg(target_os = "linux")]
mod affinity {
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn allowed_cpus() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    pub fn set(cpus: &[usize]) {
        let mut mask = [0u64; WORDS];
        for &c in cpus.iter().filter(|&&c| c < WORDS * 64) {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread. A failure leaves the affinity as
        // it was, which only costs measurement stability.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    pub fn set(_cpus: &[usize]) {}
}

/// Rotates single-threaded work across the CPUs this process may use.
///
/// On a shared host the CPUs run at different and drifting speeds; a
/// thread left on one of them measures that CPU's luck. Moving each
/// operation to the next CPU makes every pass sample all of them.
pub struct CpuRotation {
    cpus: Vec<usize>,
}

impl CpuRotation {
    #[must_use]
    pub fn new() -> Self {
        Self {
            cpus: affinity::allowed_cpus(),
        }
    }

    /// Number of CPUs rotated over.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cpus.len()
    }

    /// Pin the calling thread to CPU number `k` (modulo the CPU count).
    pub fn pin(&self, k: usize) {
        if self.cpus.len() > 1 {
            affinity::set(&[self.cpus[k % self.cpus.len()]]);
        }
    }

    /// Let the calling thread run on every allowed CPU again.
    pub fn release(&self) {
        if self.cpus.len() > 1 {
            affinity::set(&self.cpus);
        }
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
///
/// # Errors
/// `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A scratch directory owned by one benchmark run and removed when dropped.
///
/// Names carry the pid, the workload and a process-wide counter, so two
/// runs (or two directories of one run) never share a path.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Create `<root>/<pid>-<workload>-<counter>`.
    ///
    /// # Errors
    /// The directory cannot be created.
    pub fn create(root: &Path, workload: &str) -> Result<Self, String> {
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("{}-{workload}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(Self { path })
    }

    /// A fresh, not yet existing path inside this directory.
    pub fn fresh(&self, stem: &str) -> PathBuf {
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        self.path.join(format!("{stem}-{n}"))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total size of the regular files directly inside `dir`, bytes.
///
/// # Errors
/// The directory cannot be listed.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("listing {}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("listing {}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_dirs_are_distinct_and_removed_on_drop() {
        let root = std::env::temp_dir().join(format!("perfbench-sys-test-{}", std::process::id()));
        let a = RunDir::create(&root, "w").unwrap();
        let b = RunDir::create(&root, "w").unwrap();
        assert_ne!(a.path, b.path);
        assert_ne!(a.fresh("x"), a.fresh("x"));
        assert_eq!(a.fresh("x").parent(), Some(a.path.as_path()));
        let kept = a.path.clone();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path.exists());
        drop(b);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn process_clock_advances_under_work() {
        let before = process_cpu_ns();
        let mut acc = 0u64;
        for i in 0..3_000_000u64 {
            acc = std::hint::black_box(acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        assert!(process_cpu_ns() > before);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
