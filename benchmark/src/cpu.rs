//! CPU placement for the serving workloads: the load generator on one
//! CPU, the server on the others.
//!
//! Left alone, the kernel keeps a connection's server thread wherever it
//! last ran: beside its client thread or on the other core, for the whole
//! run. A round trip between cores costs 55 µs more than one within a core
//! on the 2-core reference box, so a push's median read 0.17 or 0.28 ms
//! from one run of the same inputs to the next: in a third of the runs of
//! `serve_mixed`, whose open-loop generator sleeps and lets cores idle, and
//! in one of fifty of `serve_churn`. Keeping generator and server apart
//! fixes the placement, and keeps the generator's own CPU use off the
//! server's cores.

use std::sync::OnceLock;

/// `cpu_set_t` of glibc and musl: 1024 bits.
const WORDS: usize = 16;

pub struct CpuSet([u64; WORDS]);

impl CpuSet {
    pub fn cpus(&self) -> Vec<usize> {
        (0..WORDS * 64)
            .filter(|c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    fn of(cpus: &[usize]) -> CpuSet {
        let mut set = CpuSet([0; WORDS]);
        for c in cpus {
            set.0[c / 64] |= 1 << (c % 64);
        }
        set
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{CpuSet, WORDS};

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn allowed() -> Option<CpuSet> {
        let mut set = CpuSet([0; WORDS]);
        // SAFETY: `mask` points to `WORDS` writable u64s and the size passed
        // is their size in bytes; pid 0 is the calling thread.
        let r = unsafe { sched_getaffinity(0, WORDS * 8, set.0.as_mut_ptr()) };
        (r == 0).then_some(set)
    }

    pub fn confine(set: &CpuSet) -> bool {
        // SAFETY: `mask` points to `WORDS` readable u64s and the size passed
        // is their size in bytes; pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, WORDS * 8, set.0.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::CpuSet;

    pub fn allowed() -> Option<CpuSet> {
        None
    }

    pub fn confine(_: &CpuSet) -> bool {
        false
    }
}

/// Confine the calling thread, and every thread it spawns from now on, to
/// `set`. False if the kernel refused (the run then goes on unpinned).
pub fn confine(set: &CpuSet) -> bool {
    sys::confine(set)
}

pub struct Placement {
    /// The first CPU this process may use.
    pub generator: CpuSet,
    /// The other CPUs.
    pub server: CpuSet,
}

/// None where the process has fewer than two CPUs, or no way to ask.
/// Worked out once, from the CPUs the process started with: a thread that
/// [`confine`]d itself since would see only its own.
pub fn apart() -> Option<&'static Placement> {
    static PLACEMENT: OnceLock<Option<Placement>> = OnceLock::new();
    PLACEMENT
        .get_or_init(|| {
            let cpus = sys::allowed()?.cpus();
            (cpus.len() >= 2).then(|| Placement {
                generator: CpuSet::of(&cpus[..1]),
                server: CpuSet::of(&cpus[1..]),
            })
        })
        .as_ref()
}
