//! Scheduler-semantics tests: delta cycles, notification flavors, process
//! interleaving, signals, FIFOs, clocks and run control.
//!
//! The dispatch-order, panic and teardown tests run every process body on
//! both process kinds: a body is written once as a future over a
//! [`SimHandle`], which an async process is and a thread process runs with
//! `block_on`. Both kinds must give the same result.

use std::future::Future;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use shiptlm_kernel::prelude::*;

/// A process kind.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Thread,
    Async,
}

const KINDS: [Kind; 2] = [Kind::Thread, Kind::Async];

/// Spawns `body`, built from a handle on `sim`, as a process of `kind`.
fn spawn<Fut>(sim: &SimHandle, kind: Kind, name: &str, body: impl FnOnce(SimHandle) -> Fut)
where
    Fut: Future<Output = ()> + Send + 'static,
{
    let body = body(sim.clone());
    match kind {
        Kind::Thread => sim.spawn_thread(name, move |ctx| ctx.block_on(body)),
        Kind::Async => sim.spawn_async(name, body),
    };
}

fn shared_log() -> (
    Arc<Mutex<Vec<String>>>,
    impl Fn(&str) + Clone + Send + 'static,
) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let l = Arc::clone(&log);
    (log, move |s: &str| l.lock().unwrap().push(s.to_string()))
}

#[test]
fn empty_simulation_starves_at_zero() {
    let sim = Simulation::new();
    let r = sim.run();
    assert_eq!(r.reason, StopReason::Starved);
    assert_eq!(r.time, SimTime::ZERO);
}

#[test]
fn timed_wait_advances_time() {
    let sim = Simulation::new();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let s = Arc::clone(&seen);
    sim.spawn_thread("t", move |ctx| {
        for _ in 0..3 {
            ctx.wait_for(SimDur::ns(7));
            s.lock().unwrap().push(ctx.now().as_ps());
        }
    });
    let r = sim.run();
    assert_eq!(*seen.lock().unwrap(), vec![7_000, 14_000, 21_000]);
    assert_eq!(r.time, SimTime::from_ps(21_000));
}

#[test]
fn delta_notification_wakes_next_delta_same_time() {
    let sim = Simulation::new();
    let ev = sim.event("e");
    let (log, push) = shared_log();
    {
        let ev = ev.clone();
        let push = push.clone();
        sim.spawn_thread("waiter", move |ctx| {
            ctx.wait(&ev);
            push(&format!("woken@{}", ctx.now().as_ps()));
        });
    }
    {
        let push = push.clone();
        sim.spawn_thread("notifier", move |ctx| {
            ev.notify_delta();
            push("notified");
            ctx.wait_for(SimDur::ns(1));
        });
    }
    sim.run();
    assert_eq!(*log.lock().unwrap(), vec!["notified", "woken@0"]);
}

#[test]
fn immediate_notification_wakes_same_evaluate_phase() {
    // Waiter registers first (spawn order), notifier fires immediately; the
    // waiter must wake without any time or delta advance observable to it.
    let sim = Simulation::new();
    let ev = sim.event("e");
    let deltas = Arc::new(AtomicU64::new(0));
    {
        let ev = ev.clone();
        sim.spawn_thread("waiter", move |ctx| {
            ctx.wait(&ev);
            assert_eq!(ctx.now(), SimTime::ZERO);
        });
    }
    {
        let d = Arc::clone(&deltas);
        sim.spawn_thread("notifier", move |_ctx| {
            ev.notify();
            d.store(1, Ordering::SeqCst);
        });
    }
    let r = sim.run();
    assert_eq!(r.reason, StopReason::Starved);
    assert_eq!(deltas.load(Ordering::SeqCst), 1);
}

#[test]
fn timed_notifications_fire_in_order_and_batch_same_time() {
    let sim = Simulation::new();
    let (log, push) = shared_log();
    let e1 = sim.event("e1");
    let e2 = sim.event("e2");
    {
        let (e1, push) = (e1.clone(), push.clone());
        sim.spawn_thread("w1", move |ctx| {
            ctx.wait(&e1);
            push(&format!("w1@{}", ctx.now().as_ps()));
        });
    }
    {
        let (e2, push) = (e2.clone(), push.clone());
        sim.spawn_thread("w2", move |ctx| {
            ctx.wait(&e2);
            push(&format!("w2@{}", ctx.now().as_ps()));
        });
    }
    e2.notify_after(SimDur::ns(5));
    e1.notify_after(SimDur::ns(5));
    sim.run();
    let log = log.lock().unwrap();
    // Both fire at 5 ns; order follows notification sequence (e2 first).
    assert_eq!(*log, vec!["w2@5000", "w1@5000"]);
}

#[test]
fn earlier_notification_overrides_later() {
    let sim = Simulation::new();
    let ev = sim.event("e");
    let woke_at = Arc::new(Mutex::new(None));
    {
        let (ev, woke_at) = (ev.clone(), Arc::clone(&woke_at));
        sim.spawn_thread("w", move |ctx| {
            ctx.wait(&ev);
            *woke_at.lock().unwrap() = Some(ctx.now().as_ps());
        });
    }
    ev.notify_after(SimDur::ns(100));
    ev.notify_after(SimDur::ns(10)); // earlier wins
    sim.run();
    assert_eq!(*woke_at.lock().unwrap(), Some(10_000));
}

#[test]
fn cancel_removes_pending_notification() {
    let sim = Simulation::new();
    let ev = sim.event("e");
    let woke = Arc::new(AtomicU64::new(0));
    {
        let (ev, woke) = (ev.clone(), Arc::clone(&woke));
        sim.spawn_thread("w", move |ctx| {
            ctx.wait(&ev);
            woke.store(1, Ordering::SeqCst);
        });
    }
    ev.notify_after(SimDur::ns(10));
    ev.cancel();
    let r = sim.run();
    assert_eq!(r.reason, StopReason::Starved);
    assert_eq!(woke.load(Ordering::SeqCst), 0);
    assert_eq!(r.time, SimTime::ZERO);
}

#[test]
fn wait_any_reports_the_cause() {
    let sim = Simulation::new();
    let a = sim.event("a");
    let b = sim.event("b");
    let which = Arc::new(AtomicU64::new(99));
    {
        let (a, b, which) = (a.clone(), b.clone(), Arc::clone(&which));
        sim.spawn_thread("w", move |ctx| {
            let idx = ctx.wait_any(&[&a, &b]);
            which.store(idx as u64, Ordering::SeqCst);
            assert_eq!(ctx.now().as_ps(), 3_000);
        });
    }
    b.notify_after(SimDur::ns(3));
    a.notify_after(SimDur::ns(8));
    sim.run();
    assert_eq!(which.load(Ordering::SeqCst), 1);
}

#[test]
fn wait_any_deregisters_losers() {
    // After waking on `b`, a later `a` must not wake the process again
    // from a stale registration.
    let sim = Simulation::new();
    let a = sim.event("a");
    let b = sim.event("b");
    let wakes = Arc::new(AtomicU64::new(0));
    {
        let (a, b, wakes) = (a.clone(), b.clone(), Arc::clone(&wakes));
        sim.spawn_thread("w", move |ctx| {
            ctx.wait_any(&[&a, &b]);
            wakes.fetch_add(1, Ordering::SeqCst);
            ctx.wait_for(SimDur::ns(100));
            wakes.fetch_add(10, Ordering::SeqCst);
        });
    }
    b.notify_after(SimDur::ns(1));
    a.notify_after(SimDur::ns(2));
    sim.run();
    assert_eq!(wakes.load(Ordering::SeqCst), 11);
}

#[test]
fn signal_write_visible_next_delta_only() {
    let sim = Simulation::new();
    let sig = sim.signal("s", 0u32);
    let s2 = sig.clone();
    sim.spawn_thread("w", move |ctx| {
        s2.write(42);
        assert_eq!(s2.read(), 0, "write must not be visible in same phase");
        ctx.wait_delta();
        assert_eq!(s2.read(), 42);
    });
    sim.run();
    assert_eq!(sig.read(), 42);
}

#[test]
fn signal_changed_event_fires_only_on_change() {
    let sim = Simulation::new();
    let sig = sim.signal("s", 5u32);
    let changes = Arc::new(AtomicU64::new(0));
    {
        let (ev, changes, h) = (sig.changed_event(), Arc::clone(&changes), sim.handle());
        sim.spawn_async("mon", async move {
            loop {
                h.wait(&ev).await;
                changes.fetch_add(1, Ordering::SeqCst);
            }
        });
    }
    {
        let sig = sig.clone();
        sim.spawn_thread("w", move |ctx| {
            sig.write(5); // same value: no event
            ctx.wait_for(SimDur::ns(1));
            sig.write(6); // change: event
            ctx.wait_for(SimDur::ns(1));
            sig.write(6); // same: no event
            ctx.wait_for(SimDur::ns(1));
        });
    }
    sim.run();
    assert_eq!(changes.load(Ordering::SeqCst), 1);
}

#[test]
fn signal_last_write_wins_within_phase() {
    let sim = Simulation::new();
    let sig = sim.signal("s", 0u8);
    let s2 = sig.clone();
    sim.spawn_thread("w", move |ctx| {
        s2.write(1);
        s2.write(2);
        s2.write(3);
        ctx.wait_delta();
        assert_eq!(s2.read(), 3);
    });
    sim.run();
}

#[test]
fn fifo_blocks_reader_until_write() {
    let sim = Simulation::new();
    let f = sim.fifo::<u32>("f", 2);
    let (tx, rx) = (f.clone(), f);
    let got = Arc::new(Mutex::new(Vec::new()));
    {
        let got = Arc::clone(&got);
        sim.spawn_thread("rx", move |ctx| {
            for _ in 0..3 {
                let v = ctx.block_on(rx.read());
                got.lock().unwrap().push((v, ctx.now().as_ps()));
            }
        });
    }
    sim.spawn_thread("tx", move |ctx| {
        ctx.wait_for(SimDur::ns(10));
        ctx.block_on(tx.write(7));
        ctx.wait_for(SimDur::ns(10));
        ctx.block_on(tx.write(8));
        ctx.block_on(tx.write(9));
    });
    sim.run();
    let got = got.lock().unwrap();
    assert_eq!(got[0], (7, 10_000));
    assert_eq!(got[1], (8, 20_000));
    assert_eq!(got[2].0, 9);
}

#[test]
fn fifo_blocks_writer_when_full() {
    let sim = Simulation::new();
    let f = sim.fifo::<u32>("f", 1);
    let (tx, rx) = (f.clone(), f);
    let write_times = Arc::new(Mutex::new(Vec::new()));
    {
        let wt = Arc::clone(&write_times);
        sim.spawn_thread("tx", move |ctx| {
            for i in 0..3 {
                ctx.block_on(tx.write(i));
                wt.lock().unwrap().push(ctx.now().as_ps());
            }
        });
    }
    sim.spawn_thread("rx", move |ctx| {
        for _ in 0..3 {
            ctx.wait_for(SimDur::ns(100));
            let _ = ctx.block_on(rx.read());
        }
    });
    sim.run();
    let wt = write_times.lock().unwrap();
    assert_eq!(wt[0], 0); // fits in buffer
    assert_eq!(wt[1], 100_000); // waits for first read
    assert_eq!(wt[2], 200_000);
}

#[test]
fn fifo_nonblocking_variants() {
    let sim = Simulation::new();
    let f = sim.fifo::<u8>("f", 2);
    assert!(f.is_empty());
    assert_eq!(f.try_read(), None);
    assert_eq!(f.try_write(1), Ok(()));
    assert_eq!(f.try_write(2), Ok(()));
    assert_eq!(f.try_write(3), Err(3));
    assert_eq!(f.len(), 2);
    assert_eq!(f.try_read(), Some(1));
    assert_eq!(f.capacity(), 2);
}

#[test]
fn clock_edges_and_cycle_count() {
    let sim = Simulation::new();
    let clk = sim.clock("clk", SimDur::ns(10));
    let edges = Arc::new(Mutex::new(Vec::new()));
    {
        let e = Arc::clone(&edges);
        let pos = clk.posedge().clone();
        sim.spawn_thread("mon", move |ctx| {
            for _ in 0..3 {
                ctx.wait(&pos);
                e.lock().unwrap().push(ctx.now().as_ps());
            }
        });
    }
    sim.run_until(SimTime::from_ps(100_000));
    // First rising edge at half period (5 ns), then every 10 ns.
    assert_eq!(*edges.lock().unwrap(), vec![5_000, 15_000, 25_000]);
    assert_eq!(clk.freq_hz(), 100_000_000);
    assert!(clk.cycle_count() >= 9);
}

#[test]
fn wait_cycles_counts_posedges() {
    let sim = Simulation::new();
    let clk = sim.clock("clk", SimDur::ns(4));
    let t_end = Arc::new(Mutex::new(SimTime::ZERO));
    {
        let (t, h) = (Arc::clone(&t_end), sim.handle());
        sim.spawn_async("p", async move {
            // Align to first edge then count 5 more.
            clk.wait_cycles(&h, 1).await;
            let start = h.now();
            clk.wait_cycles(&h, 5).await;
            *t.lock().unwrap() = h.now();
            assert_eq!(h.now().since(start), SimDur::ns(20));
        });
    }
    sim.run_until(SimTime::ZERO + SimDur::ns(100));
    assert_eq!(*t_end.lock().unwrap(), SimTime::from_ps(2_000 + 20_000));
}

#[test]
fn run_until_pauses_and_resumes() {
    let sim = Simulation::new();
    let hits = Arc::new(AtomicU64::new(0));
    {
        let hits = Arc::clone(&hits);
        sim.spawn_thread("p", move |ctx| loop {
            ctx.wait_for(SimDur::ns(10));
            hits.fetch_add(1, Ordering::SeqCst);
        });
    }
    let r1 = sim.run_until(SimTime::ZERO + SimDur::ns(35));
    assert_eq!(r1.reason, StopReason::TimeLimit);
    assert_eq!(hits.load(Ordering::SeqCst), 3);
    let r2 = sim.run_for(SimDur::ns(20));
    assert_eq!(r2.time, SimTime::ZERO + SimDur::ns(55));
    assert_eq!(hits.load(Ordering::SeqCst), 5);
}

#[test]
fn stop_from_process() {
    let sim = Simulation::new();
    sim.spawn_thread("p", move |ctx| {
        ctx.wait_for(SimDur::ns(42));
        ctx.stop();
        ctx.wait_for(SimDur::ns(1000)); // never completes
    });
    let r = sim.run();
    assert_eq!(r.reason, StopReason::Stopped);
    assert_eq!(r.time, SimTime::ZERO + SimDur::ns(42));
}

/// `stop()` takes effect at the end of the current delta cycle, even in a
/// model whose every delta wakes the next one.
#[test]
fn stop_ends_a_run_that_never_runs_out_of_deltas() {
    for kind in KINDS {
        let sim = Simulation::new();
        let again = sim.event("again");
        spawn(&sim.handle(), kind, "spinner", |h| async move {
            loop {
                again.notify_delta();
                h.wait(&again).await;
            }
        });
        spawn(&sim.handle(), kind, "stopper", |h| async move {
            h.wait_delta().await;
            h.stop();
        });
        // Bounds the run if `stop()` is ignored.
        sim.set_watchdog(Some(std::time::Duration::from_millis(500)));
        let r = sim.run();
        assert_eq!(r.reason, StopReason::Stopped, "{kind:?}");
        assert_eq!(r.time, SimTime::ZERO, "{kind:?}");
        assert!(
            sim.delta_count() <= 3,
            "{kind:?}: stopped after {} deltas",
            sim.delta_count()
        );
    }
}

/// A run's reported end time is the kernel's current time whatever stopped
/// it — a process stop with a free-running clock still ticking, the time
/// limit, or starvation — so runners may report either.
#[test]
fn run_result_time_is_now_on_every_stop_reason() {
    let sim = Simulation::new();
    let _clk = sim.clock("clk", SimDur::ns(10));
    sim.spawn_thread("p", |ctx| {
        ctx.wait_for(SimDur::ns(42));
        ctx.stop();
    });
    let r = sim.run();
    assert_eq!(r.reason, StopReason::Stopped);
    assert_eq!(r.time, sim.now());

    let sim = Simulation::new();
    let _clk = sim.clock("clk", SimDur::ns(10));
    let r = sim.run_until(SimTime::ZERO + SimDur::ns(95));
    assert_eq!(r.reason, StopReason::TimeLimit);
    assert_eq!(r.time, sim.now());

    let sim = Simulation::new();
    sim.spawn_thread("p", |ctx| ctx.wait_for(SimDur::ns(7)));
    let r = sim.run();
    assert_eq!(r.reason, StopReason::Starved);
    assert_eq!(r.time, sim.now());
}

#[test]
fn dynamic_spawn_during_run() {
    let sim = Simulation::new();
    let count = Arc::new(AtomicU64::new(0));
    {
        let count = Arc::clone(&count);
        sim.spawn_thread("parent", move |ctx| {
            ctx.wait_for(SimDur::ns(5));
            let child_count = Arc::clone(&count);
            ctx.sim().spawn_thread("child", move |cctx| {
                cctx.wait_for(SimDur::ns(5));
                child_count.fetch_add(1, Ordering::SeqCst);
            });
        });
    }
    let r = sim.run();
    assert_eq!(count.load(Ordering::SeqCst), 1);
    assert_eq!(r.time, SimTime::ZERO + SimDur::ns(10));
}

#[test]
#[should_panic(expected = "process 'boom' panicked")]
fn process_panic_propagates_to_run() {
    // Both kinds raise the same panic from `run`; the async one ends the
    // test.
    let [thread, async_] = KINDS.map(|kind| {
        let sim = Simulation::new();
        spawn(&sim.handle(), kind, "boom", |h| async move {
            h.wait_for(SimDur::ns(1)).await;
            panic!("kaboom");
        });
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
            .expect_err("the panic must surface from Simulation::run")
    });
    assert_eq!(payload_text(&*thread), payload_text(&*async_));
    std::panic::resume_unwind(async_);
}

#[test]
fn drop_with_blocked_processes_does_not_hang() {
    for kind in KINDS {
        let sim = Simulation::new();
        let ev = sim.event("never");
        for i in 0..4 {
            let ev = ev.clone();
            spawn(
                &sim.handle(),
                kind,
                &format!("blocked{i}"),
                |h| async move {
                    h.wait(&ev).await;
                },
            );
        }
        sim.run(); // starves with blocked processes
        drop(sim); // must join all threads without deadlock
    }
}

#[test]
fn delta_count_tracks_activity() {
    let sim = Simulation::new();
    sim.spawn_thread("p", |ctx| {
        for _ in 0..10 {
            ctx.wait_delta();
        }
    });
    sim.run();
    assert!(sim.delta_count() >= 10);
}

#[test]
fn two_processes_rendezvous_deterministically() {
    // A classic ping-pong over two events; ordering must be stable.
    let sim = Simulation::new();
    let ping = sim.event("ping");
    let pong = sim.event("pong");
    let (log, push) = shared_log();
    {
        let (ping, pong, push) = (ping.clone(), pong.clone(), push.clone());
        sim.spawn_thread("a", move |ctx| {
            for _ in 0..3 {
                ping.notify_delta();
                push("a:ping");
                ctx.wait(&pong);
            }
        });
    }
    {
        let push = push.clone();
        sim.spawn_thread("b", move |ctx| {
            for _ in 0..3 {
                ctx.wait(&ping);
                push("b:pong");
                pong.notify_delta();
            }
        });
    }
    sim.run();
    assert_eq!(
        *log.lock().unwrap(),
        vec!["a:ping", "b:pong", "a:ping", "b:pong", "a:ping", "b:pong"]
    );
}

#[test]
fn vcd_trace_written() {
    let dir = std::env::temp_dir().join("shiptlm_kernel_vcd_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wave.vcd");
    let sim = Simulation::new();
    sim.trace_vcd(&path).unwrap();
    let sig = sim.signal("data", 0u8);
    sig.trace("top.data");
    {
        let sig = sig.clone();
        sim.spawn_thread("w", move |ctx| {
            for i in 1..=3u8 {
                sig.write(i * 16);
                ctx.wait_for(SimDur::ns(10));
            }
        });
    }
    sim.run();
    sim.flush_trace().unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("top.data"));
    assert!(text.contains("#10000"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drop_without_run_does_not_hang() {
    let sim = Simulation::new();
    let ev = sim.event("never");
    for i in 0..3 {
        let ev = ev.clone();
        sim.spawn_thread(&format!("parked{i}"), move |ctx| {
            ctx.wait(&ev);
        });
    }
    drop(sim); // threads still parked at their initial resume
}

#[test]
fn watchdog_stops_a_livelocked_model() {
    let sim = Simulation::new();
    let ping = sim.event("ping");
    let pong = sim.event("pong");
    {
        let (ping, pong) = (ping.clone(), pong.clone());
        sim.spawn_thread("a", move |ctx| loop {
            ping.notify_delta();
            ctx.wait(&pong);
        });
    }
    sim.spawn_thread("b", move |ctx| loop {
        pong.notify_delta();
        ctx.wait(&ping);
    });
    sim.set_watchdog(Some(std::time::Duration::from_millis(50)));
    let r = sim.run();
    assert_eq!(r.reason, StopReason::Watchdog);
    // Diagnosis still works after a watchdog stop (nobody is in a cycle —
    // the model livelocks rather than deadlocks).
    let _ = sim.diagnose();
}

#[test]
fn timed_notification_near_u64_max_saturates() {
    // A notification that would overflow SimTime lands on SimTime::MAX (the
    // infinite horizon) instead of panicking, so it never fires within any
    // finite run and the simulation simply starves.
    let sim = Simulation::new();
    let ev = sim.event("far_future");
    let seen = Arc::new(AtomicU64::new(0));
    {
        let (ev, seen) = (ev.clone(), Arc::clone(&seen));
        sim.spawn_thread("astronomer", move |ctx| {
            ctx.wait_for(SimDur::ns(5));
            ev.notify_after(SimDur::ps(u64::MAX));
            ctx.wait(&ev);
            seen.store(1, Ordering::SeqCst);
        });
    }
    let r = sim.run_until(SimTime::from_ps(1_000_000));
    assert_eq!(r.reason, StopReason::TimeLimit);
    assert_eq!(seen.load(Ordering::SeqCst), 0);
}

#[test]
fn run_for_near_u64_max_saturates() {
    let sim = Simulation::new();
    sim.spawn_thread("ticker", |ctx| {
        ctx.wait_for(SimDur::ns(3));
    });
    // Run once so `now` is non-zero, then ask for more time than the
    // SimTime domain has left: the limit saturates to SimTime::MAX instead
    // of panicking and the run ends normally.
    let r = sim.run_for(SimDur::ps(u64::MAX - 10));
    assert_eq!(r.reason, StopReason::Starved);
    assert_eq!(r.time, SimTime::ZERO + SimDur::ns(3));
    let r = sim.run_for(SimDur::ps(u64::MAX));
    assert_eq!(r.reason, StopReason::Starved);
}

#[test]
fn flush_trace_surfaces_io_errors() {
    // VcdTracer::flush re-creates the file at its recorded path; removing
    // the parent directory makes that fail, and flush_trace must report it
    // rather than swallow it.
    let dir = std::env::temp_dir().join("shiptlm_kernel_vcd_unwritable");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wave.vcd");
    let sim = Simulation::new();
    sim.trace_vcd(&path).unwrap();
    let sig = sim.signal("data", 0u8);
    sig.trace("top.data");
    sim.run();
    std::fs::remove_dir_all(&dir).unwrap();
    let err = sim
        .flush_trace()
        .expect_err("flush into a removed directory");
    assert!(
        err.to_string().contains("wave.vcd"),
        "error names the path: {err}"
    );
}

#[test]
fn process_panic_message_reaches_the_driving_thread() {
    // Regression: the kernel used to coerce the panic payload *Box* itself
    // to `&dyn Any`, so every process panic surfaced as "unknown panic
    // payload" instead of the original message.
    for kind in KINDS {
        let sim = Simulation::new();
        spawn(&sim.handle(), kind, "crasher", |_h| async move {
            // Panic via `unwrap` on purpose — the exact path model PEs take.
            #[allow(clippy::unnecessary_literal_unwrap)]
            let () = Err::<(), String>("original cause".into()).unwrap();
        });
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
            .expect_err("process panic must re-raise on the driving thread");
        let msg = payload
            .downcast_ref::<String>()
            .expect("re-raised panic carries a String");
        assert!(
            msg.contains("process 'crasher' panicked") && msg.contains("original cause"),
            "{kind:?}: driving-thread panic must carry the original message, got: {msg}"
        );
    }
}

/// Simulated time in whole nanoseconds, for compact activation logs.
fn ns(t: SimTime) -> u64 {
    t.as_ps() / 1_000
}

#[test]
fn dispatch_order_is_pinned() {
    // Every process activation, in order. Covers immediate, delta and
    // timed notifications, a process resuming itself after `wait_delta`, a
    // dynamic spawn, and a `run_until` that pauses the run while processes
    // are mid-flight and then resumes it. `m` re-registers on `delta`
    // before `b` does at 10 and 20 ns (`b` woke on `imm` in between), and a
    // fire wakes its waiters in registration order.
    for kind in KINDS {
        assert_eq!(
            dispatch_log(kind),
            vec![
                "a0@0",
                "m.init@0",
                "a0.delta@0",
                "b.delta@0",
                "m.delta@0",
                "m.timed@5",
                "a1@10",
                "b.imm@10",
                "a1.delta@10",
                "m.delta@10",
                "b.delta@10",
                "spawner@12",
                "child@12",
                "b.imm@12",
                "spawner.end@12",
                "child.delta@12",
                "m.timed@15",
                "child.end@15",
                "pause.TimeLimit@15 deltas=9",
                "a2@20",
                "b.imm@20",
                "a2.delta@20",
                "m.delta@20",
                "b.delta@20",
                "m.timed@25",
                "a.end@30",
                "end.Starved@30 deltas=14",
            ],
            "{kind:?}"
        );
    }
}

/// The activation log of the dispatch-order model with its processes of
/// `kind`.
fn dispatch_log(kind: Kind) -> Vec<String> {
    let sim = Simulation::new();
    let h = sim.handle();
    let (log, push) = shared_log();
    let imm = sim.event("imm");
    let delta = sim.event("delta");
    let timed = sim.event("timed");
    {
        let (imm, delta, timed, push) = (imm.clone(), delta.clone(), timed.clone(), push.clone());
        spawn(&h, kind, "a", |h| async move {
            for i in 0..3 {
                push(&format!("a{i}@{}", ns(h.now())));
                imm.notify();
                h.wait_delta().await;
                push(&format!("a{i}.delta@{}", ns(h.now())));
                delta.notify_delta();
                timed.notify_after(SimDur::ns(5));
                h.wait_for(SimDur::ns(10)).await;
            }
            push(&format!("a.end@{}", ns(h.now())));
        });
    }
    {
        let (imm, delta, push) = (imm.clone(), delta.clone(), push.clone());
        spawn(&h, kind, "b", |h| async move {
            loop {
                let which = h.wait_any(&[&imm, &delta]).await;
                push(&format!("b.{}@{}", ["imm", "delta"][which], ns(h.now())));
            }
        });
    }
    {
        let push = push.clone();
        spawn(&h, kind, "m", |h| async move {
            push(&format!("m.init@{}", ns(h.now())));
            loop {
                let which = h.wait_any(&[&delta, &timed]).await;
                push(&format!("m.{}@{}", ["delta", "timed"][which], ns(h.now())));
            }
        });
    }
    {
        let (imm, push) = (imm.clone(), push.clone());
        spawn(&h, kind, "spawner", |h| async move {
            h.wait_for(SimDur::ns(12)).await;
            push(&format!("spawner@{}", ns(h.now())));
            let child_push = push.clone();
            spawn(&h, kind, "child", |h| async move {
                child_push(&format!("child@{}", ns(h.now())));
                h.wait_delta().await;
                child_push(&format!("child.delta@{}", ns(h.now())));
                h.wait_for(SimDur::ns(3)).await;
                child_push(&format!("child.end@{}", ns(h.now())));
            });
            imm.notify();
            h.wait_delta().await;
            push(&format!("spawner.end@{}", ns(h.now())));
        });
    }
    let r = sim.run_until(SimTime::ZERO + SimDur::ns(15));
    push(&format!(
        "pause.{:?}@{} deltas={}",
        r.reason,
        ns(r.time),
        sim.delta_count()
    ));
    let r = sim.run();
    push(&format!(
        "end.{:?}@{} deltas={}",
        r.reason,
        ns(r.time),
        sim.delta_count()
    ));
    let log = log.lock().unwrap().clone();
    log
}

/// The message a panic payload carries (`panic!` with a literal yields a
/// `&str`, a formatted one a `String`).
fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_string(),
        None => payload
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is a string"),
    }
}

/// Runs `sim` expecting a panic, and returns its message.
fn run_expecting_panic(sim: &Simulation) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
        .expect_err("the panic must surface from Simulation::run");
    payload_text(&*payload)
}

/// A process of `kind` that wakes at 1 ns, calls `act`, then finishes at
/// 2 ns; `done` counts the finishes.
fn spawn_two_step(
    sim: &Simulation,
    kind: Kind,
    done: &Arc<AtomicU64>,
    act: impl FnOnce() + Send + 'static,
) {
    let done = Arc::clone(done);
    spawn(&sim.handle(), kind, "stepper", |h| async move {
        h.wait_for(SimDur::ns(1)).await;
        act();
        h.wait_for(SimDur::ns(1)).await;
        done.fetch_add(1, Ordering::SeqCst);
    });
}

/// After a panicked run the simulation resumes where it stopped: the
/// stepper finishes at 2 ns. A stale end-of-run message would end this run
/// early instead.
fn assert_resumes_to_completion(sim: &Simulation, done: &AtomicU64) {
    let r = sim.run();
    assert_eq!(r.reason, StopReason::Starved);
    assert_eq!(r.time, SimTime::ZERO + SimDur::ns(2));
    assert_eq!(done.load(Ordering::SeqCst), 1);
}

/// A signal value whose comparison panics on 13: the update phase compares
/// the written value with the current one.
#[derive(Clone, Debug)]
struct Touchy(u32);

impl PartialEq for Touchy {
    fn eq(&self, other: &Self) -> bool {
        assert!(self.0 != 13 && other.0 != 13, "update boom");
        self.0 == other.0
    }
}

#[test]
fn update_panic_after_a_thread_yield_surfaces_with_its_payload() {
    for kind in KINDS {
        let sim = Simulation::new();
        let sig = sim.signal("touchy", Touchy(0));
        let done = Arc::new(AtomicU64::new(0));
        spawn_two_step(&sim, kind, &done, move || sig.write(Touchy(13)));
        assert_eq!(run_expecting_panic(&sim), "update boom", "{kind:?}");
        assert_resumes_to_completion(&sim, &done);
    }
}

#[test]
fn process_panic_resumed_by_another_process_names_the_process() {
    // Every pairing of kinds: the process that passes control to the one
    // that panics may be a thread or an async process.
    for stepper in KINDS {
        for kind in KINDS {
            let sim = Simulation::new();
            let done = Arc::new(AtomicU64::new(0));
            spawn_two_step(&sim, stepper, &done, || {});
            spawn(&sim.handle(), kind, "boom", |h| async move {
                h.wait_for(SimDur::ns(1)).await;
                panic!("kaboom");
            });
            assert_eq!(
                run_expecting_panic(&sim),
                "process 'boom' panicked: kaboom",
                "{stepper:?} then {kind:?}"
            );
            assert_resumes_to_completion(&sim, &done);
        }
    }
}

#[test]
fn drop_releases_the_methods_of_a_clocked_model() {
    // A process body that captures an event refers back to the kernel
    // through it (every clock's generator does); dropping the simulation
    // must still drop it, whatever its kind.
    for kind in KINDS {
        let sim = Simulation::new();
        let clk = sim.clock("clk", SimDur::ns(10));
        let marker = Arc::new(());
        let released = Arc::downgrade(&marker);
        {
            let (marker, posedge, h) = (Arc::clone(&marker), clk.posedge().clone(), sim.handle());
            sim.spawn_async("edges", async move {
                loop {
                    h.wait(&posedge).await;
                    let _ = &marker;
                }
            });
        }
        let posedge = clk.posedge().clone();
        spawn(&sim.handle(), kind, "edge_waiter", |h| async move {
            loop {
                h.wait(&posedge).await;
                let _ = &marker;
            }
        });
        sim.run_until(SimTime::ZERO + SimDur::ns(50));
        drop(clk);
        drop(sim);
        assert!(
            released.upgrade().is_none(),
            "{kind:?}: a process body outlived its simulation"
        );
    }
}

#[test]
fn drop_releases_pending_signal_updates() {
    // An update callback holds its signal, and through it the kernel; so
    // does a suspended process that writes the signal.
    for kind in KINDS {
        let sim = Simulation::new();
        let marker = Arc::new(0u8);
        let released = Arc::downgrade(&marker);
        let sig = sim.signal("s", Arc::new(1u8));
        let never = sim.event("never");
        {
            let (sig, marker) = (sig.clone(), Arc::clone(&marker));
            spawn(&sim.handle(), kind, "writer", |h| async move {
                h.wait(&never).await;
                sig.write(marker);
            });
        }
        sim.run();
        sig.write(marker);
        drop(sig);
        drop(sim);
        assert!(
            released.upgrade().is_none(),
            "{kind:?}: the pending update or the suspended writer outlived its simulation"
        );
    }
}

#[test]
fn a_wait_completes_across_process_kinds() {
    // A thread `block_on`s a wait that an async process completes, and the
    // reverse. The waiter is dispatched twice and the notifier twice, and
    // only the thread's dispatches resume an OS thread.
    for (waiter, notifier) in [(Kind::Thread, Kind::Async), (Kind::Async, Kind::Thread)] {
        let sim = Simulation::new();
        let ev = sim.event("ev");
        let woke = Arc::new(Mutex::new(None));
        {
            let (ev, woke) = (ev.clone(), Arc::clone(&woke));
            spawn(&sim.handle(), waiter, "waiter", |h| async move {
                h.wait(&ev).await;
                *woke.lock().unwrap() = Some(h.now());
            });
        }
        spawn(&sim.handle(), notifier, "notifier", |h| async move {
            h.wait_for(SimDur::ns(5)).await;
            ev.notify_delta();
        });
        let r = sim.run();
        assert_eq!(r.time, SimTime::ZERO + SimDur::ns(5), "{waiter:?}");
        assert_eq!(*woke.lock().unwrap(), Some(r.time), "{waiter:?}");
        let a = sim.activations();
        assert_eq!((a.threads, a.inline), (2, 2), "{waiter:?}");
    }
}

#[test]
fn async_wait_any_for_cancels_its_timer_when_an_event_wins() {
    // The pending timeout would otherwise end the next wait on the same
    // private timer at 100 ns, and hold the run open until then.
    let sim = Simulation::new();
    let ev = sim.event("ev");
    let seen = Arc::new(Mutex::new(Vec::new()));
    {
        let (ev, seen, h) = (ev.clone(), Arc::clone(&seen), sim.handle());
        sim.spawn_async("w", async move {
            let won = h.wait_any_for(&[&ev], SimDur::ns(100)).await;
            seen.lock().unwrap().push((won, ns(h.now())));
            h.wait_for(SimDur::ns(200)).await;
            seen.lock().unwrap().push((None, ns(h.now())));
        });
    }
    ev.notify_after(SimDur::ns(10));
    let r = sim.run();
    assert_eq!(*seen.lock().unwrap(), vec![(Some(0), 10), (None, 210)]);
    assert_eq!(r.time, SimTime::ZERO + SimDur::ns(210));
}

#[test]
fn diagnose_names_a_blocked_async_process_and_its_wait() {
    let sim = Simulation::new();
    let never = sim.event("never");
    let h = sim.handle();
    h.annotate_wait(&never, "recv (awaiting a message)", None);
    sim.spawn_async("stuck", async move { h.wait(&never).await });
    assert_eq!(sim.run().reason, StopReason::Starved);
    let report = sim.diagnose();
    let stuck = report
        .blocked
        .iter()
        .find(|b| b.name == "stuck")
        .expect("the blocked async process is reported");
    assert_eq!(stuck.waits.len(), 1);
    assert_eq!(stuck.waits[0].event, "never");
    assert_eq!(
        stuck.waits[0].description.as_deref(),
        Some("recv (awaiting a message)")
    );
    assert!(report.to_string().contains("stuck"), "{report}");
}

#[test]
fn odd_clock_period_makes_one_rising_edge_per_period() {
    // The low phase is period / 2 and the high phase the rest, so a 3 ps
    // clock rises at 1, 4, 7, … ps: ten edges in 30 ps, as many cycles as
    // `Clock::period` counts.
    let sim = Simulation::new();
    let clk = sim.clock("clk", SimDur::ps(3));
    let edges = Arc::new(Mutex::new(Vec::new()));
    {
        let edges = Arc::clone(&edges);
        let pos = clk.posedge().clone();
        sim.spawn_thread("mon", move |ctx| loop {
            ctx.wait(&pos);
            edges.lock().unwrap().push(ctx.now().as_ps());
        });
    }
    sim.run_until(SimTime::from_ps(30));
    assert_eq!(
        *edges.lock().unwrap(),
        vec![1, 4, 7, 10, 13, 16, 19, 22, 25, 28]
    );
    assert_eq!(clk.cycle_count(), 10);
    assert_eq!(clk.cycles_between(SimTime::ZERO, SimTime::from_ps(30)), 10);
}

#[test]
fn block_on_disqualifies_a_direct_run_only_when_the_future_suspends() {
    // On the direct backend a future that completes on its first poll
    // runs normally; one that suspends on a kernel wait disqualifies the
    // run, as a blocking event wait does.
    let sim = DirectSim::new();
    sim.spawn_thread("ready", |ctx| {
        let fifo = ctx.sim().fifo::<u8>("f", 1);
        fifo.try_write(7).unwrap();
        assert_eq!(ctx.block_on(fifo.read()), 7);
    });
    assert!(matches!(sim.run(), DirectOutcome::Completed));

    let sim = DirectSim::new();
    sim.spawn_thread("reader", |ctx| {
        let fifo = ctx.sim().fifo::<u8>("f", 1);
        ctx.block_on(fifo.read());
    });
    match sim.run() {
        DirectOutcome::Disqualified(d) => {
            assert_eq!(d.construct, Construct::EventWait);
            assert_eq!(d.process, "reader");
        }
        other => panic!("expected a disqualification, got {other:?}"),
    }
}
