//! Pin-accurate OCP: master FSM ↔ slave FSM over the signal bundle, checked
//! by the protocol monitor, against a memory backend.

use std::sync::{Arc, Mutex};

use shiptlm_kernel::prelude::*;
use shiptlm_ocp::prelude::*;

struct Bench {
    sim: Simulation,
    mem: Arc<Memory>,
    port: OcpMasterPort,
    monitor: ViolationLog,
}

fn bench(wait_states: u64) -> Bench {
    let sim = Simulation::new();
    let h = sim.handle();
    let clk = sim.clock("clk", SimDur::ns(10));
    let pins = OcpPins::new(&h, "ocp");
    let mem = Arc::new(Memory::new("ram", 4096));
    let master = PinOcpMaster::new(&h, "m0", pins.clone(), &clk);
    PinOcpSlave::spawn(
        &h,
        "s0",
        pins.clone(),
        &clk,
        mem.clone(),
        wait_states,
        MasterId(0),
    );
    let monitor = OcpMonitor::spawn(&h, "mon", pins, &clk);
    let port = OcpMasterPort::bind(MasterId(0), master);
    Bench {
        sim,
        mem,
        port,
        monitor,
    }
}

#[test]
fn single_word_write_and_read() {
    let b = bench(0);
    let port = b.port.clone();
    b.sim.spawn_thread("pe", move |ctx| {
        port.write(ctx, 0x100, vec![0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4])
            .unwrap();
        let got = port.read(ctx, 0x100, 8).unwrap();
        assert_eq!(got, vec![0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4]);
        ctx.stop();
    });
    b.sim.run();
    assert_eq!(b.mem.peek(0x100, 4).unwrap(), vec![0xDE, 0xAD, 0xBE, 0xEF]);
    assert!(b.monitor.is_empty(), "violations: {:?}", b.monitor.to_vec());
}

#[test]
fn burst_transfer_roundtrip() {
    let b = bench(0);
    let port = b.port.clone();
    let payload: Vec<u8> = (0..64u8).collect();
    let expected = payload.clone();
    b.sim.spawn_thread("pe", move |ctx| {
        port.write(ctx, 0, payload.clone()).unwrap();
        assert_eq!(port.read(ctx, 0, 64).unwrap(), expected);
        ctx.stop();
    });
    b.sim.run();
    assert!(b.monitor.is_empty(), "violations: {:?}", b.monitor.to_vec());
}

#[test]
fn partial_trailing_word_is_preserved() {
    let b = bench(0);
    let port = b.port.clone();
    b.sim.spawn_thread("pe", move |ctx| {
        // 11 bytes: one full word plus a 3-byte tail.
        port.write(ctx, 8, (1..=11u8).collect()).unwrap();
        assert_eq!(
            port.read(ctx, 8, 11).unwrap(),
            (1..=11).collect::<Vec<u8>>()
        );
        ctx.stop();
    });
    b.sim.run();
    assert!(b.monitor.is_empty());
}

#[test]
fn wait_states_slow_the_transaction_down() {
    let run = |ws: u64| {
        let b = bench(ws);
        let port = b.port.clone();
        let cycles = Arc::new(Mutex::new(0u64));
        {
            let cycles = Arc::clone(&cycles);
            b.sim.spawn_thread("pe", move |ctx| {
                let resp = port
                    .transact(ctx, OcpRequest::write(0, vec![0xFF; 32]))
                    .unwrap();
                *cycles.lock().unwrap() = resp.timing.total_cycles;
                ctx.stop();
            });
        }
        b.sim.run();
        assert!(b.monitor.is_empty());
        let c = *cycles.lock().unwrap();
        c
    };
    let fast = run(0);
    let slow = run(3);
    assert!(
        slow >= fast + 3 * 4,
        "3 wait states per beat over 4 beats must add >= 12 cycles (fast={fast}, slow={slow})"
    );
}

#[test]
fn timing_annotation_reports_cycles() {
    let b = bench(0);
    let port = b.port.clone();
    let timing = Arc::new(Mutex::new(TxTiming::default()));
    {
        let timing = Arc::clone(&timing);
        b.sim.spawn_thread("pe", move |ctx| {
            let resp = port.transact(ctx, OcpRequest::read(0, 32)).unwrap();
            *timing.lock().unwrap() = resp.timing;
            ctx.stop();
        });
    }
    b.sim.run();
    let t = timing.lock().unwrap();
    // 4 beats request + backend + 4 data cycles: at least 8 bus cycles.
    assert!(t.total_cycles >= 8, "got {} cycles", t.total_cycles);
    assert!(t.end > t.start);
}

#[test]
fn back_to_back_transactions_do_not_interfere() {
    let b = bench(0);
    let port = b.port.clone();
    b.sim.spawn_thread("pe", move |ctx| {
        for i in 0..10u64 {
            let addr = i * 8;
            port.write(ctx, addr, (i as u8..i as u8 + 8).collect())
                .unwrap();
        }
        for i in 0..10u64 {
            let addr = i * 8;
            assert_eq!(
                port.read(ctx, addr, 8).unwrap(),
                (i as u8..i as u8 + 8).collect::<Vec<u8>>()
            );
        }
        ctx.stop();
    });
    b.sim.run();
    assert!(b.monitor.is_empty(), "violations: {:?}", b.monitor.to_vec());
}

#[test]
fn pin_level_is_slower_than_tl_for_the_same_work() {
    // The same 10 writes directly against the memory (TL) vs through the pin
    // FSMs: the pin path must consume simulated cycles, the TL path none
    // (zero-latency memory).
    let tl_time = {
        let sim = Simulation::new();
        let mem = Arc::new(Memory::new("ram", 4096));
        let port = OcpMasterPort::bind(MasterId(0), mem);
        sim.spawn_thread("pe", move |ctx| {
            for i in 0..10u64 {
                port.write(ctx, i * 8, vec![0; 8]).unwrap();
            }
        });
        sim.run().time
    };
    let pin_time = {
        let b = bench(0);
        let port = b.port.clone();
        b.sim.spawn_thread("pe", move |ctx| {
            for i in 0..10u64 {
                port.write(ctx, i * 8, vec![0; 8]).unwrap();
            }
            ctx.stop();
        });
        b.sim.run().time
    };
    assert_eq!(tl_time, SimTime::ZERO);
    assert!(pin_time >= SimTime::ZERO + SimDur::ns(100));
}

#[test]
fn dropping_a_pin_level_simulation_frees_it() {
    // When the run stops, the master FSM, the slave FSM and the monitor are
    // suspended async processes whose futures hold pins, events and the
    // backend, and through them the kernel. Dropping the simulation drops
    // those futures, so both the backend and the kernel are freed.
    let b = bench(0);
    let port = b.port.clone();
    b.sim.spawn_thread("pe", move |ctx| {
        port.write(ctx, 0, vec![1; 16]).unwrap();
        ctx.stop();
    });
    b.sim.run();
    // An event's interned name is held by the kernel alone.
    let kernel = Arc::downgrade(&b.sim.event("probe").name());
    let backend = Arc::downgrade(&b.mem);
    drop(b);
    assert!(
        backend.upgrade().is_none(),
        "the slave FSM outlived its simulation"
    );
    assert!(kernel.upgrade().is_none(), "the simulation was not freed");
}
