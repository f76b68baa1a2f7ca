//! Pinning every thread of the process to a set of CPUs (Linux only).
//!
//! A new thread inherits its creator's CPU set, so pinning every thread
//! that exists also pins the threads they start later: the server's
//! connection threads come from its accept thread, the benchmark's client
//! threads from the main thread.

use std::fs;

/// CPU-set bytes handed to the kernel (`cpu_set_t`, 1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// A set of CPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; MASK_WORDS]);

impl CpuSet {
    /// The CPUs the calling thread may run on; `None` where that cannot
    /// be read.
    pub fn current() -> Option<CpuSet> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) };
        (rc == 0).then_some(CpuSet(mask))
    }

    /// The CPUs in the set, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..MASK_WORDS * 64)
            .filter(|&c| self.0[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    /// The set holding only `cpu`.
    pub fn only(cpu: usize) -> CpuSet {
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        CpuSet(mask)
    }

    /// Restricts every thread of the process to the set, as far as the
    /// kernel allows: a thread that cannot be pinned (or has just ended)
    /// keeps running where it may, which costs steadiness, not
    /// correctness.
    pub fn apply_to_process(&self) {
        let Ok(tasks) = fs::read_dir("/proc/self/task") else {
            return;
        };
        for task in tasks.flatten() {
            let Some(tid) = task
                .file_name()
                .to_str()
                .and_then(|t| t.parse::<i32>().ok())
            else {
                continue;
            };
            // SAFETY: the mask is a readable buffer of exactly the size
            // passed; the kernel copies it.
            unsafe { sched_setaffinity(tid, MASK_WORDS * 8, self.0.as_ptr()) };
        }
    }
}
