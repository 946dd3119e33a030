//! Randomized tests of scheduler invariants: timed events always fire in
//! timestamp order, FIFOs never reorder or drop, signals obey
//! last-write-wins, and simulated time never runs backwards.
//!
//! Inputs are generated from a deterministic seeded [`Rng`], so every case
//! is reproducible from its iteration index.

use std::sync::{Arc, Mutex};

use shiptlm_kernel::prelude::*;
use shiptlm_kernel::rng::Rng;

const CASES: u64 = 64;

/// Whatever order timed notifications are scheduled in, waiters observe
/// them in non-decreasing timestamp order.
#[test]
fn timed_events_fire_in_time_order() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x7131_0000 + case);
        let n = rng.gen_range_usize(1, 20);
        let delays: Vec<u64> = (0..n).map(|_| rng.gen_range_u64(1, 10_000)).collect();

        let sim = Simulation::new();
        let fired = Arc::new(Mutex::new(Vec::new()));
        for (i, d) in delays.iter().enumerate() {
            let ev = sim.event(&format!("e{i}"));
            let fired = Arc::clone(&fired);
            let ev2 = ev.clone();
            sim.spawn_thread(&format!("w{i}"), move |ctx| {
                ctx.wait(&ev2);
                fired.lock().unwrap().push(ctx.now().as_ps());
            });
            ev.notify_after(SimDur::ns(*d));
        }
        sim.run();
        let fired = fired.lock().unwrap();
        assert_eq!(fired.len(), delays.len(), "case {case}");
        assert!(fired.windows(2).all(|w| w[0] <= w[1]), "case {case}");
        let mut expected: Vec<u64> = delays.iter().map(|d| d * 1_000).collect();
        expected.sort_unstable();
        assert_eq!(&*fired, &expected, "case {case}");
    }
}

/// A FIFO delivers every item exactly once, in order, regardless of
/// capacity and producer/consumer pacing.
#[test]
fn fifo_preserves_order_and_content() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x7131_1000 + case);
        let cap = rng.gen_range_usize(1, 8);
        let n = rng.gen_range_usize(1, 50);
        let items: Vec<u32> = (0..n).map(|_| rng.next_u32()).collect();
        let prod_gap = rng.gen_range_u64(0, 50);
        let cons_gap = rng.gen_range_u64(0, 50);

        let sim = Simulation::new();
        let f = sim.fifo::<u32>("f", cap);
        let (tx, rx) = (f.clone(), f);
        let received = Arc::new(Mutex::new(Vec::new()));
        let sent = items.clone();
        sim.spawn_thread("p", move |ctx| {
            for v in sent {
                ctx.block_on(tx.write(v));
                if prod_gap > 0 {
                    ctx.wait_for(SimDur::ps(prod_gap));
                }
            }
        });
        {
            let received = Arc::clone(&received);
            let n = items.len();
            sim.spawn_thread("c", move |ctx| {
                for _ in 0..n {
                    if cons_gap > 0 {
                        ctx.wait_for(SimDur::ps(cons_gap));
                    }
                    received.lock().unwrap().push(ctx.block_on(rx.read()));
                }
            });
        }
        let r = sim.run();
        assert_eq!(r.reason, StopReason::Starved, "case {case}");
        assert_eq!(&*received.lock().unwrap(), &items, "case {case}");
    }
}

/// The last write in an evaluate phase wins; intermediate values are
/// never observable in later phases.
#[test]
fn signal_last_write_wins() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x7131_2000 + case);
        let n = rng.gen_range_usize(1, 20);
        let writes: Vec<u16> = (0..n).map(|_| rng.next_u16()).collect();

        let sim = Simulation::new();
        let sig = sim.signal("s", 0u16);
        let last = *writes.last().unwrap();
        let s2 = sig.clone();
        sim.spawn_thread("w", move |ctx| {
            for v in &writes {
                s2.write(*v);
            }
            ctx.wait_delta();
            assert_eq!(s2.read(), last);
        });
        sim.run();
        assert_eq!(sig.read(), last, "case {case}");
    }
}

/// `wait_for` sequences accumulate exactly.
#[test]
fn wait_for_accumulates() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x7131_3000 + case);
        let n = rng.gen_range_usize(1, 20);
        let delays: Vec<u64> = (0..n).map(|_| rng.gen_range_u64(0, 1_000)).collect();

        let sim = Simulation::new();
        let total: u64 = delays.iter().sum();
        sim.spawn_thread("p", move |ctx| {
            for d in &delays {
                ctx.wait_for(SimDur::ps(*d));
            }
        });
        let r = sim.run();
        assert_eq!(r.time.as_ps(), total, "case {case}");
    }
}

/// Semaphores never go negative and serve every acquirer under random
/// contention.
#[test]
fn semaphore_conserves_permits() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x7131_4000 + case);
        let procs = rng.gen_range_usize(1, 6);
        let permits = rng.gen_range_usize(1, 4);
        let hold_ns = rng.gen_range_u64(1, 100);

        let sim = Simulation::new();
        let sem = SimSemaphore::new(&sim.handle(), "s", permits);
        let active = Arc::new(Mutex::new((0usize, 0usize))); // (current, peak)
        for i in 0..procs {
            let sem = sem.clone();
            let active = Arc::clone(&active);
            let h = sim.handle();
            sim.spawn_async(&format!("p{i}"), async move {
                sem.acquire(&h).await;
                {
                    let mut g = active.lock().unwrap();
                    g.0 += 1;
                    g.1 = g.1.max(g.0);
                }
                h.wait_for(SimDur::ns(hold_ns)).await;
                active.lock().unwrap().0 -= 1;
                sem.release();
            });
        }
        let r = sim.run();
        assert_eq!(r.reason, StopReason::Starved, "case {case}");
        let g = active.lock().unwrap();
        assert_eq!(g.0, 0, "case {case}");
        assert!(g.1 <= permits, "case {case}");
        assert_eq!(sem.available(), permits, "case {case}");
    }
}
