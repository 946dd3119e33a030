//! Waits and signal writes allocate nothing: the heap allocations of a run
//! do not depend on how often its processes wait and write.
//!
//! A counting global allocator keeps a count per thread. Async processes
//! are polled on the thread that calls `run`, so that thread's count
//! covers the whole run, and tests running in parallel cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use shiptlm_kernel::prelude::*;

thread_local! {
    /// Allocations and reallocations made on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the count is a
// const-initialised thread-local without a destructor, so updating it
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The allocations of one run in which a process goes `iterations` times
/// through a signal write that changes the value, `wait`, `wait_any` on two
/// events, a `wait_any_for` that times out and `wait_for`, while a second
/// process waits on the signal and notifies one of those events.
fn run_allocations(iterations: u64) -> u64 {
    let sim = Simulation::new();
    let sig = sim.signal("sig", 0u64);
    let (tick, never) = (sim.event("tick"), sim.event("never"));
    {
        let (h, sig, tick) = (sim.handle(), sig.clone(), tick.clone());
        sim.spawn_async("looper", async move {
            let changed = sig.changed_event();
            for i in 1..=iterations {
                sig.write(i);
                h.wait(&changed).await;
                assert_eq!(h.wait_any(&[&changed, &tick]).await, 1);
                let timed_out = h.wait_any_for(&[&never, &tick], SimDur::ns(1)).await;
                assert_eq!(timed_out, None);
                h.wait_for(SimDur::ns(1)).await;
            }
        });
    }
    let h = sim.handle();
    sim.spawn_async("ticker", async move {
        let changed = sig.changed_event();
        loop {
            h.wait(&changed).await;
            tick.notify_delta();
        }
    });
    let before = ALLOCS.get();
    let r = sim.run();
    let allocs = ALLOCS.get() - before;
    assert_eq!(r.reason, StopReason::Starved);
    assert_eq!(r.time, SimTime::ZERO + SimDur::ns(2 * iterations));
    allocs
}

#[test]
fn waits_and_signal_writes_allocate_nothing() {
    let (short, long) = (run_allocations(100), run_allocations(1_000));
    assert_eq!(
        short, long,
        "100 iterations allocate {short} times, 1 000 iterations {long} times"
    );
}
