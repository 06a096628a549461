//! Cross-run reuse of kernel allocations.
//!
//! A parameter sweep runs thousands of short simulations per worker
//! thread; building each [`crate::Sim`] from nothing means reallocating
//! the event-queue buckets, the process table and the RNG table every
//! time. The arena is a thread-local parking spot for those buffers:
//! dropping a `Sim` returns its (emptied) structures here, and the next
//! `Sim::new` on the same thread adopts them, so steady-state sweep
//! workers stop touching the allocator between points. Together with the
//! thread-local payload slot pool ([`crate::payload`]) this makes whole
//! sweep points allocation-free after warm-up.
//!
//! Reuse is invisible to the simulation: the queue is recycled to an
//! empty, time-zero state (its ring has one fixed shape, so a recycled
//! queue differs from a new one only in the capacity its buckets keep),
//! and tables come back empty. Digest determinism across fresh/recycled
//! sims is pinned by `recycled_sim_runs_identically` in the kernel tests.
//!
//! The arena also fixes the process's allocator policy once, on the first
//! `Sim` (see `pin_heap_thresholds`): buffers built by the caller before
//! `Sim::new` cannot be recycled here, but they can be kept off freshly
//! faulted pages.

use crate::event::EventQueue;
use crate::kernel::Process;
use crate::resource::Resource;
use rand::rngs::SmallRng;
use std::cell::{Cell, RefCell};

/// The buffers a [`crate::Sim`] can adopt from a previous run.
#[derive(Default)]
pub(crate) struct Parts {
    pub queue: EventQueue,
    pub procs: Vec<Option<Box<dyn Process>>>,
    pub rngs: Vec<SmallRng>,
    pub resources: Vec<Resource>,
}

std::thread_local! {
    static ARENA: RefCell<Option<Parts>> = const { RefCell::new(None) };
    static HITS: Cell<u64> = const { Cell::new(0) };
}

/// Pin glibc's heap thresholds, once per process.
///
/// By default glibc sets its trim threshold to twice the largest mmapped
/// block freed so far (128 KiB before any), and returns the top of the
/// main heap to the OS whenever more than that is free there. Back-to-back jobs (a sweep worker, a
/// benchmark loop) then pay for every teardown twice: a small job frees
/// its block lists and DataCutter queues, glibc trims the heap top, and
/// the next job's setup, which the caller runs before `Sim::new`, faults
/// the same pages in again. On the fig7 guarantee pipeline at 1–2 KiB
/// blocks that refault raised per-job setup time by 12–43 % (perfbench
/// `viz_guarantee` `setup_s`, seeds 7 and 90210, 2-vCPU x86-64 host).
/// A fixed 64 MiB trim threshold keeps the heap top resident. Fixing any
/// threshold also stops glibc adapting the mmap threshold, which would
/// stay at 128 KiB and give every larger per-job buffer a fresh mapping,
/// so it is raised to 32 MiB, the largest glibc accepts on 64-bit.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_heap_thresholds() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    // <malloc.h> parameter numbers.
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        // SAFETY: `mallopt` only changes allocator tunables; glibc takes
        // its arena lock, so concurrent allocation on other threads is
        // safe. It returns 1 on success.
        let ok = unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 64 << 20) == 1
        };
        debug_assert!(ok, "glibc rejected the heap thresholds");
    });
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_heap_thresholds() {}

/// Adopt the parked buffers, if any; otherwise build fresh ones.
pub(crate) fn take() -> Parts {
    pin_heap_thresholds();
    let parked = ARENA.try_with(|a| a.borrow_mut().take()).ok().flatten();
    match parked {
        Some(parts) => {
            HITS.with(|h| h.set(h.get() + 1));
            parts
        }
        None => Parts::default(),
    }
}

/// Park buffers for the next `Sim` on this thread. Contents are cleared
/// here (dropping any live processes/events); allocations are kept.
pub(crate) fn put(mut parts: Parts) {
    parts.queue.recycle();
    parts.procs.clear();
    parts.rngs.clear();
    parts.resources.clear();
    let _ = ARENA.try_with(|a| {
        let mut slot = a.borrow_mut();
        // Keep the roomier process table if two sims raced a slot.
        if slot
            .as_ref()
            .map_or(true, |old| old.procs.capacity() < parts.procs.capacity())
        {
            *slot = Some(parts);
        }
    });
}

/// How many times a `Sim` on this thread adopted recycled buffers.
pub fn reuse_hits() -> u64 {
    HITS.with(|h| h.get())
}

/// Drop this thread's parked buffers and payload slot pool (e.g. at the
/// end of a sweep worker's life).
pub fn trim() {
    let _ = ARENA.try_with(|a| a.borrow_mut().take());
    crate::payload::trim_pool();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_round_trip_and_count() {
        let before = reuse_hits();
        let mut parts = take();
        parts.procs.reserve(32);
        put(parts);
        let parts = take();
        assert!(parts.procs.capacity() >= 32, "capacity survives the park");
        assert!(parts.procs.is_empty() && parts.rngs.is_empty());
        assert_eq!(reuse_hits(), before + 1);
        put(parts);
        trim();
        // After trim the next take builds fresh parts.
        let parts = take();
        assert_eq!(reuse_hits(), before + 1);
        put(parts);
    }
}
