//! The full HW/SW communication path (paper §4): an eSW task on the RTOS
//! talks to hardware PEs through the device driver, bus and mailbox adapter
//! — with the *same PE source* used on both sides of the partition.

use std::sync::{Arc, Mutex};

use shiptlm_cam::prelude::*;
use shiptlm_hwsw::prelude::*;
use shiptlm_kernel::prelude::*;
use shiptlm_ocp::prelude::*;
use shiptlm_ship::prelude::*;

const ACC_BASE: u64 = 0x1000_0000;

/// The accelerator PE behaviour — written once, used in HW and SW tests.
async fn accelerator_pe(h: SimHandle, ports: Vec<ShipPort>) {
    let port = &ports[0];
    loop {
        let Ok(data) = port.recv_async::<Vec<u8>>(&h).await else {
            return;
        };
        if data.is_empty() {
            return; // poison pill
        }
        // "Encrypt": xor with a rolling key.
        let out: Vec<u8> = data
            .iter()
            .enumerate()
            .map(|(i, b)| b ^ (i as u8).wrapping_mul(31).wrapping_add(7))
            .collect();
        port.reply_async(&h, &out).await.unwrap();
    }
}

/// The control PE behaviour — also written once.
async fn control_pe(
    blocks: u32,
    results: Arc<Mutex<Vec<Vec<u8>>>>,
    h: SimHandle,
    ports: Vec<ShipPort>,
) {
    let port = &ports[0];
    for i in 0..blocks {
        let data: Vec<u8> = (0..64u8).map(|b| b.wrapping_add(i as u8)).collect();
        // request/reply is two logical ops: the accelerator receives the
        // request via recv and answers via reply.
        let enc: Vec<u8> = port.request_async(&h, &data).await.unwrap();
        results.lock().unwrap().push(enc);
    }
    let _ = port.send_async(&h, &Vec::<u8>::new()).await; // poison pill
}

/// Builds the HW side: PLB bus + mailbox adapter + HW accelerator PE.
fn build_hw_side(sim: &Simulation, sideband: Option<Signal<bool>>) -> (Arc<CcatbBus>, ShipPort) {
    let h = sim.handle();
    let mut bus = CcatbBus::new(&h, BusConfig::plb("plb"));
    let pending = map_channel(
        &h,
        "ctl2acc",
        ACC_BASE,
        WrapperConfig::default(),
        ("ctl", "acc"),
    );
    if let Some(sb) = sideband {
        pending.adapter.attach_sideband(sb);
    }
    bus.map_slave(
        ACC_BASE..ACC_BASE + ADAPTER_SIZE,
        pending.adapter.clone(),
        true,
    );
    let bus = Arc::new(bus);
    (bus, pending.slave_port.clone())
}

fn reference_encryption(blocks: u32) -> Vec<Vec<u8>> {
    (0..blocks)
        .map(|i| {
            (0..64u8)
                .map(|b| b.wrapping_add(i as u8))
                .enumerate()
                .map(|(j, b)| b ^ (j as u8).wrapping_mul(31).wrapping_add(7))
                .collect()
        })
        .collect()
}

#[test]
fn sw_master_to_hw_slave_polling() {
    let sim = Simulation::new();
    let (bus, acc_port) = build_hw_side(&sim, None);
    // HW accelerator PE runs as a plain kernel process.
    sim.spawn_async("acc", accelerator_pe(sim.handle(), vec![acc_port]));
    // SW control task on the CPU with a polling driver.
    let cpu = Cpu::new(&sim.handle(), "cpu0", bus.master_port(MasterId(0)));
    let results = Arc::new(Mutex::new(Vec::new()));
    let results2 = Arc::clone(&results);
    cpu.spawn_sw_pe(
        "ctl",
        3,
        vec![SwChannelBinding::master_polling(
            "ctl2acc",
            "ctl",
            ACC_BASE,
            SimDur::us(1),
        )],
        move |h, ports| control_pe(4, results2, h, ports),
    );
    let r = sim.run();
    assert_eq!(r.reason, StopReason::Starved);
    assert_eq!(*results.lock().unwrap(), reference_encryption(4));
    assert!(
        bus.stats().transactions > 20,
        "driver must generate bus traffic"
    );
}

#[test]
fn sw_master_to_hw_slave_irq_driven() {
    let sim = Simulation::new();
    let h = sim.handle();
    let sideband = sim.signal("irq_line", false);
    let (bus, acc_port) = build_hw_side(&sim, Some(sideband.clone()));
    sim.spawn_async("acc", accelerator_pe(sim.handle(), vec![acc_port]));

    let mut cpu = Cpu::new(&h, "cpu0", bus.master_port(MasterId(0)));
    cpu.attach_irq_line(sideband, SimDur::ns(500));
    let sem = cpu.irq_semaphore("acc_irq");
    let results = Arc::new(Mutex::new(Vec::new()));
    let results2 = Arc::clone(&results);
    cpu.spawn_sw_pe(
        "ctl",
        3,
        vec![SwChannelBinding::master_irq(
            "ctl2acc", "ctl", ACC_BASE, sem,
        )],
        move |h, ports| control_pe(4, results2, h, ports),
    );
    let r = sim.run();
    assert_eq!(r.reason, StopReason::Starved);
    assert_eq!(*results.lock().unwrap(), reference_encryption(4));
    assert!(
        cpu.irq().unwrap().count() >= 1,
        "the sideband must have interrupted the CPU"
    );
}

#[test]
fn irq_driver_is_not_slower_than_coarse_polling() {
    // With a coarse polling interval, IRQ-driven wakeups should complete the
    // workload at least as fast (they wake exactly on reply-ready).
    // A slow accelerator (30 us per block) makes the wakeup policy matter:
    // a coarse poller oversleeps, the IRQ path wakes exactly on reply-ready.
    async fn slow_accelerator(h: SimHandle, port: ShipPort) {
        loop {
            let Ok(data) = port.recv_async::<Vec<u8>>(&h).await else {
                return;
            };
            if data.is_empty() {
                return;
            }
            h.wait_for(SimDur::us(30)).await;
            let out: Vec<u8> = data
                .iter()
                .enumerate()
                .map(|(i, b)| b ^ (i as u8).wrapping_mul(31).wrapping_add(7))
                .collect();
            port.reply_async(&h, &out).await.unwrap();
        }
    }
    let run = |binding: fn(&Cpu) -> SwChannelBinding, wire_irq: bool| {
        let sim = Simulation::new();
        let h = sim.handle();
        let sideband = sim.signal("irq_line", false);
        let (bus, acc_port) = build_hw_side(&sim, wire_irq.then(|| sideband.clone()));
        sim.spawn_async("acc", slow_accelerator(h.clone(), acc_port));
        let mut cpu = Cpu::new(&h, "cpu0", bus.master_port(MasterId(0)));
        if wire_irq {
            cpu.attach_irq_line(sideband, SimDur::ns(500));
        }
        let results = Arc::new(Mutex::new(Vec::new()));
        let b = binding(&cpu);
        let results2 = Arc::clone(&results);
        cpu.spawn_sw_pe("ctl", 3, vec![b], move |h, ports| {
            control_pe(8, results2, h, ports)
        });
        let r = sim.run();
        assert_eq!(results.lock().unwrap().len(), 8);
        r.time
    };
    let poll_time = run(
        |_cpu| SwChannelBinding::master_polling("ctl2acc", "ctl", ACC_BASE, SimDur::us(50)),
        false,
    );
    let irq_time = run(
        |cpu| SwChannelBinding::master_irq("ctl2acc", "ctl", ACC_BASE, cpu.irq_semaphore("s")),
        true,
    );
    assert!(
        irq_time <= poll_time,
        "irq {irq_time} should beat coarse polling {poll_time}"
    );
}

#[test]
fn hw_master_to_sw_slave() {
    // Reverse partition: a HW producer sends blocks; the SW task receives
    // and replies — exercising the RX drain and reply staging paths.
    let sim = Simulation::new();
    let h = sim.handle();
    let mut bus = CcatbBus::new(&h, BusConfig::plb("plb"));
    let pending = map_channel(
        &h,
        "hw2sw",
        ACC_BASE,
        WrapperConfig::default(),
        ("hwp", "swc"),
    );
    bus.map_slave(
        ACC_BASE..ACC_BASE + ADAPTER_SIZE,
        pending.adapter.clone(),
        true,
    );
    let bus = Arc::new(bus);

    // HW producer drives the master wrapper over the bus.
    let hw_port = pending.bind(&bus.master_port(MasterId(0)));
    sim.spawn_thread("hwp", move |ctx| {
        for i in 0..5u32 {
            let doubled: u32 = hw_port.request(ctx, &i).unwrap();
            assert_eq!(doubled, i * 2);
        }
    });

    // SW consumer drains the *same adapter* through the bus from the CPU.
    let cpu = Cpu::new(&h, "cpu0", bus.master_port(MasterId(1)));
    cpu.spawn_sw_pe(
        "swc",
        3,
        vec![SwChannelBinding::slave_polling(
            "hw2sw",
            "swc",
            ACC_BASE,
            SimDur::us(1),
        )],
        |h, ports| async move {
            let port = &ports[0];
            for _ in 0..5 {
                let q: u32 = port.recv_async(&h).await.unwrap();
                port.reply_async(&h, &(q * 2)).await.unwrap();
            }
        },
    );
    let r = sim.run();
    assert_eq!(r.reason, StopReason::Starved);
}

#[test]
fn hw_sw_logs_are_content_equivalent_to_pure_hw() {
    // The design-flow claim: moving a PE from HW to SW must not change the
    // transaction content. Run control+accelerator (a) as two HW PEs over a
    // mapped channel and (b) with control as eSW; compare logs.
    let run_hw = || {
        let sim = Simulation::new();
        let (bus, acc_port) = build_hw_side(&sim, None);
        let log = TransactionLog::new();
        acc_port.attach_recorder(log.clone());
        sim.spawn_async("acc", accelerator_pe(sim.handle(), vec![acc_port]));
        // HW control: master wrapper endpoint over the same bus/adapter.
        let ctl_port = ShipPort::from_endpoint(
            ShipBusMasterEndpoint::new(
                bus.master_port(MasterId(0)),
                ACC_BASE,
                WrapperConfig::default(),
            ),
            "ctl2acc",
            "ctl",
        );
        ctl_port.attach_recorder(log.clone());
        let results = Arc::new(Mutex::new(Vec::new()));
        let behavior = control_pe(3, Arc::clone(&results), sim.handle(), vec![ctl_port]);
        sim.spawn_async("ctl", behavior);
        sim.run();
        (log, results)
    };
    let run_sw = || {
        let sim = Simulation::new();
        let (bus, acc_port) = build_hw_side(&sim, None);
        let log = TransactionLog::new();
        acc_port.attach_recorder(log.clone());
        sim.spawn_async("acc", accelerator_pe(sim.handle(), vec![acc_port]));
        let cpu = Cpu::new(&sim.handle(), "cpu0", bus.master_port(MasterId(0)));
        let results = Arc::new(Mutex::new(Vec::new()));
        let results2 = Arc::clone(&results);
        // Recorder on the SW port: spawn_sw_pe builds ports internally, so
        // wrap the behaviour to attach the recorder first.
        let log2 = log.clone();
        cpu.spawn_sw_pe(
            "ctl",
            3,
            vec![SwChannelBinding::master_polling(
                "ctl2acc",
                "ctl",
                ACC_BASE,
                SimDur::us(1),
            )],
            move |h, ports| {
                ports[0].attach_recorder(log2);
                control_pe(3, results2, h, ports)
            },
        );
        sim.run();
        (log, results)
    };
    let (log_hw, res_hw) = run_hw();
    let (log_sw, res_sw) = run_sw();
    assert_eq!(*res_hw.lock().unwrap(), *res_sw.lock().unwrap());
    assert!(log_hw.content_equivalent(&log_sw).is_ok());
}
