//! A two-bus "automotive gateway" scenario assembled by hand: fast PEs on a
//! PLB, a slow peripheral behind a PLB→OPB bridge and SHIP channels mapped
//! on both sides — the kind of heterogeneous platform the paper's flow
//! targets.

use std::sync::{Arc, Mutex};

use shiptlm::prelude::*;

const FAST_CH_BASE: u64 = 0x1000_0000; // adapter on the PLB
const SLOW_CH_BASE: u64 = 0x4000_0000; // adapter behind the bridge, on the OPB
const RAM_BASE: u64 = 0x0;

#[test]
fn bridged_two_bus_system_with_mapped_channels() {
    let sim = Simulation::new();
    let h = sim.handle();

    // --- OPB with the slow channel adapter -------------------------------
    let mut opb = CcatbBus::new(&h, BusConfig::opb("opb"));
    let slow_pending = map_channel(
        &h,
        "gw2sensor",
        SLOW_CH_BASE,
        WrapperConfig::default(),
        ("gateway", "sensor"),
    );
    opb.map_slave(
        SLOW_CH_BASE..SLOW_CH_BASE + ADAPTER_SIZE,
        slow_pending.adapter.clone(),
        true,
    );
    let opb = Arc::new(opb);

    // --- PLB with RAM, the fast channel adapter and the bridge ------------
    let mut plb = CcatbBus::new(&h, BusConfig::plb("plb"));
    plb.map_slave(
        RAM_BASE..0x1_0000,
        Arc::new(Memory::new("ram", 0x1_0000)),
        true,
    );
    let fast_pending = map_channel(
        &h,
        "ecu2gw",
        FAST_CH_BASE,
        WrapperConfig::default(),
        ("ecu", "gateway"),
    );
    plb.map_slave(
        FAST_CH_BASE..FAST_CH_BASE + ADAPTER_SIZE,
        fast_pending.adapter.clone(),
        true,
    );
    plb.map_slave(
        SLOW_CH_BASE..SLOW_CH_BASE + ADAPTER_SIZE,
        Arc::new(Bridge::new(
            "plb2opb",
            SimDur::ns(60),
            opb.clone(),
            MasterId(0),
        )),
        false,
    );
    let plb = Arc::new(plb);

    // --- PEs ---------------------------------------------------------------
    // ECU floods frames to the gateway over the fast channel.
    let ecu_port = fast_pending.bind(&plb.master_port(MasterId(0)));
    sim.spawn_thread("ecu", move |ctx| {
        for i in 0..20u32 {
            let frame: Vec<u8> = (0..48).map(|k| (k as u32 ^ i) as u8).collect();
            ecu_port.send(ctx, &(i, frame)).unwrap();
        }
    });

    // Gateway: receives frames on the PLB side, forwards a digest across the
    // bridge to the slow sensor channel, RPC-style.
    let gw_in = fast_pending.slave_port.clone();
    let gw_out = slow_pending.bind(&plb.master_port(MasterId(1)));
    let digests = Arc::new(Mutex::new(Vec::new()));
    {
        let digests = Arc::clone(&digests);
        sim.spawn_thread("gateway", move |ctx| {
            for _ in 0..20 {
                let (i, frame): (u32, Vec<u8>) = gw_in.recv(ctx).unwrap();
                let digest: u32 = frame.iter().map(|b| u32::from(*b)).sum::<u32>() ^ i;
                let ack: u32 = gw_out.request(ctx, &digest).unwrap();
                digests.lock().unwrap().push((digest, ack));
            }
        });
    }

    // Sensor node behind the OPB: acknowledges digests.
    let sensor_port = slow_pending.slave_port.clone();
    sim.spawn_thread("sensor", move |ctx| {
        for _ in 0..20 {
            let d: u32 = sensor_port.recv(ctx).unwrap();
            sensor_port.reply(ctx, &(d.wrapping_add(1))).unwrap();
        }
    });

    let r = sim.run();
    assert_eq!(r.reason, StopReason::Starved);
    let digests = digests.lock().unwrap();
    assert_eq!(digests.len(), 20);
    assert!(digests.iter().all(|(d, a)| *a == d.wrapping_add(1)));
    // Traffic crossed both buses.
    assert!(plb.stats().transactions > 40);
    assert!(opb.stats().transactions > 20);
    // The bridged path shows up as OPB master 0 (the bridge's identity).
    assert!(opb.stats().per_master.contains_key(&0));
}
