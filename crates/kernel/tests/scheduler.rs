//! Scheduler-semantics tests: delta cycles, notification flavors, process
//! interleaving, signals, FIFOs, clocks and run control.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use shiptlm_kernel::prelude::*;

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
        let ev = sig.changed_event();
        let changes = Arc::clone(&changes);
        sim.spawn_method_no_init("mon", &[&ev], move |_| {
            changes.fetch_add(1, Ordering::SeqCst);
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
                let v = rx.read(ctx);
                got.lock().unwrap().push((v, ctx.now().as_ps()));
            }
        });
    }
    sim.spawn_thread("tx", move |ctx| {
        ctx.wait_for(SimDur::ns(10));
        tx.write(ctx, 7);
        ctx.wait_for(SimDur::ns(10));
        tx.write(ctx, 8);
        tx.write(ctx, 9);
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
                tx.write(ctx, i);
                wt.lock().unwrap().push(ctx.now().as_ps());
            }
        });
    }
    sim.spawn_thread("rx", move |ctx| {
        for _ in 0..3 {
            ctx.wait_for(SimDur::ns(100));
            let _ = rx.read(ctx);
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
        let t = Arc::clone(&t_end);
        let pos = clk.posedge().clone();
        sim.spawn_thread("p", move |ctx| {
            // Align to first edge then count 5 more.
            ctx.wait(&pos);
            let start = ctx.now();
            for _ in 0..5 {
                ctx.wait(&pos);
            }
            *t.lock().unwrap() = ctx.now();
            assert_eq!(ctx.now().since(start), SimDur::ns(20));
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
fn method_process_triggers_on_static_sensitivity() {
    let sim = Simulation::new();
    let ev = sim.event("tick");
    let count = Arc::new(AtomicU64::new(0));
    {
        let count = Arc::clone(&count);
        sim.spawn_method_no_init("m", &[&ev], move |_api| {
            count.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let ev = ev.clone();
        sim.spawn_thread("driver", move |ctx| {
            for _ in 0..4 {
                ev.notify_delta();
                ctx.wait_for(SimDur::ns(1));
            }
        });
    }
    sim.run();
    assert_eq!(count.load(Ordering::SeqCst), 4);
}

#[test]
fn method_initialization_call_runs_once() {
    let sim = Simulation::new();
    let ev = sim.event("never");
    let count = Arc::new(AtomicU64::new(0));
    {
        let count = Arc::clone(&count);
        sim.spawn_method("m", &[&ev], move |api| {
            assert!(api.cause().is_none());
            count.fetch_add(1, Ordering::SeqCst);
        });
    }
    sim.run();
    assert_eq!(count.load(Ordering::SeqCst), 1);
}

#[test]
#[should_panic(expected = "process 'boom' panicked")]
fn process_panic_propagates_to_run() {
    let sim = Simulation::new();
    sim.spawn_thread("boom", |ctx| {
        ctx.wait_for(SimDur::ns(1));
        panic!("kaboom");
    });
    sim.run();
}

#[test]
fn drop_with_blocked_processes_does_not_hang() {
    let sim = Simulation::new();
    let ev = sim.event("never");
    for i in 0..4 {
        let ev = ev.clone();
        sim.spawn_thread(&format!("blocked{i}"), move |ctx| {
            ctx.wait(&ev);
        });
    }
    sim.run(); // starves with blocked processes
    drop(sim); // must join all threads without deadlock
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
    let sim = Simulation::new();
    sim.spawn_thread("crasher", |_ctx| {
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
        "driving-thread panic must carry the original message, got: {msg}"
    );
}

/// Simulated time in whole nanoseconds, for compact activation logs.
fn ns(t: SimTime) -> u64 {
    t.as_ps() / 1_000
}

#[test]
fn dispatch_order_is_pinned() {
    // Every thread and method activation, in order. Covers immediate,
    // delta and timed notifications, a thread resuming itself after
    // `wait_delta`, a dynamic spawn, and a `run_until` that pauses the run
    // while processes are mid-flight and then resumes it.
    let sim = Simulation::new();
    let (log, push) = shared_log();
    let imm = sim.event("imm");
    let delta = sim.event("delta");
    let timed = sim.event("timed");
    {
        let (imm, delta, timed, push) = (imm.clone(), delta.clone(), timed.clone(), push.clone());
        sim.spawn_thread("a", move |ctx| {
            for i in 0..3 {
                push(&format!("a{i}@{}", ns(ctx.now())));
                imm.notify();
                ctx.wait_delta();
                push(&format!("a{i}.delta@{}", ns(ctx.now())));
                delta.notify_delta();
                timed.notify_after(SimDur::ns(5));
                ctx.wait_for(SimDur::ns(10));
            }
            push(&format!("a.end@{}", ns(ctx.now())));
        });
    }
    {
        let (imm, delta, push) = (imm.clone(), delta.clone(), push.clone());
        sim.spawn_thread("b", move |ctx| loop {
            let which = ctx.wait_any(&[&imm, &delta]);
            push(&format!("b.{}@{}", ["imm", "delta"][which], ns(ctx.now())));
        });
    }
    {
        let (delta_id, push) = (delta.id(), push.clone());
        sim.spawn_method("m", &[&delta, &timed], move |api| {
            let cause = match api.cause() {
                None => "init",
                Some(c) if c == delta_id => "delta",
                Some(_) => "timed",
            };
            push(&format!("m.{cause}@{}", ns(api.now())));
        });
    }
    {
        let (imm, push) = (imm.clone(), push.clone());
        sim.spawn_thread("spawner", move |ctx| {
            ctx.wait_for(SimDur::ns(12));
            push(&format!("spawner@{}", ns(ctx.now())));
            let child_push = push.clone();
            ctx.sim().spawn_thread("child", move |cctx| {
                child_push(&format!("child@{}", ns(cctx.now())));
                cctx.wait_delta();
                child_push(&format!("child.delta@{}", ns(cctx.now())));
                cctx.wait_for(SimDur::ns(3));
                child_push(&format!("child.end@{}", ns(cctx.now())));
            });
            imm.notify();
            ctx.wait_delta();
            push(&format!("spawner.end@{}", ns(ctx.now())));
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
    assert_eq!(
        *log.lock().unwrap(),
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
            "b.delta@10",
            "m.delta@10",
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
            "b.delta@20",
            "m.delta@20",
            "m.timed@25",
            "a.end@30",
            "end.Starved@30 deltas=14",
        ]
    );
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

/// A thread that wakes at 1 ns, calls `act`, then finishes at 2 ns; `done`
/// counts the finishes.
fn spawn_two_step(sim: &Simulation, done: &Arc<AtomicU64>, act: impl FnOnce() + Send + 'static) {
    let done = Arc::clone(done);
    sim.spawn_thread("stepper", move |ctx| {
        ctx.wait_for(SimDur::ns(1));
        act();
        ctx.wait_for(SimDur::ns(1));
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

#[test]
fn method_panic_after_a_thread_yield_surfaces_with_its_payload() {
    let sim = Simulation::new();
    let kick = sim.event("kick");
    let done = Arc::new(AtomicU64::new(0));
    {
        let kick = kick.clone();
        spawn_two_step(&sim, &done, move || kick.notify_delta());
    }
    sim.spawn_method_no_init("m", &[&kick], |_| panic!("method boom"));
    assert_eq!(run_expecting_panic(&sim), "method boom");
    assert_resumes_to_completion(&sim, &done);
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
    let sim = Simulation::new();
    let sig = sim.signal("touchy", Touchy(0));
    let done = Arc::new(AtomicU64::new(0));
    spawn_two_step(&sim, &done, move || sig.write(Touchy(13)));
    assert_eq!(run_expecting_panic(&sim), "update boom");
    assert_resumes_to_completion(&sim, &done);
}

#[test]
fn process_panic_resumed_by_another_process_names_the_process() {
    let sim = Simulation::new();
    let done = Arc::new(AtomicU64::new(0));
    spawn_two_step(&sim, &done, || {});
    sim.spawn_thread("boom", |ctx| {
        ctx.wait_for(SimDur::ns(1));
        panic!("kaboom");
    });
    assert_eq!(run_expecting_panic(&sim), "process 'boom' panicked: kaboom");
    assert_resumes_to_completion(&sim, &done);
}

#[test]
fn drop_releases_the_methods_of_a_clocked_model() {
    // A method closure that captures an event refers back to the kernel
    // through it (every clock's generator does); dropping the simulation
    // must still drop the closure.
    let sim = Simulation::new();
    let clk = sim.clock("clk", SimDur::ns(10));
    let marker = Arc::new(());
    let released = Arc::downgrade(&marker);
    let posedge = clk.posedge().clone();
    sim.spawn_method_no_init("edges", &[clk.posedge()], move |_| {
        let _ = (&marker, &posedge);
    });
    sim.run_until(SimTime::ZERO + SimDur::ns(50));
    drop(clk);
    drop(sim);
    assert!(
        released.upgrade().is_none(),
        "the method closure outlived its simulation"
    );
}

#[test]
fn drop_releases_pending_signal_updates() {
    // An update callback holds its signal, and through it the kernel.
    let sim = Simulation::new();
    let marker = Arc::new(0u8);
    let released = Arc::downgrade(&marker);
    let sig = sim.signal("s", Arc::new(1u8));
    sig.write(marker);
    drop(sig);
    drop(sim);
    assert!(
        released.upgrade().is_none(),
        "the pending update outlived its simulation"
    );
}
