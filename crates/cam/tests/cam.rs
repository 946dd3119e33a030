//! CAM behaviour: CCATB bus timing, arbitration policies, crossbar
//! parallelism, bridging, SHIP channel mapping and pin-level accessors.

use std::sync::{Arc, Mutex};

use shiptlm_cam::prelude::*;
use shiptlm_kernel::prelude::*;
use shiptlm_ocp::prelude::*;
use shiptlm_ship::prelude::*;

fn plb_with_ram(sim: &Simulation, arb: ArbPolicy) -> Arc<CcatbBus> {
    let mut bus = CcatbBus::new(&sim.handle(), BusConfig::plb("plb").with_arb(arb));
    bus.map_slave(0..0x10000, Arc::new(Memory::new("ram", 0x10000)), true);
    Arc::new(bus)
}

#[test]
fn single_master_transaction_timing_is_cycle_accurate() {
    // PLB: arb 1 + addr 1 + 4 beats (32B / 8B) = 6 cycles of 10 ns.
    let sim = Simulation::new();
    let bus = plb_with_ram(&sim, ArbPolicy::FixedPriority);
    let port = bus.master_port(MasterId(0));
    let timing = Arc::new(Mutex::new(TxTiming::default()));
    {
        let timing = Arc::clone(&timing);
        sim.spawn_thread("m", move |ctx| {
            let r = port
                .transact(ctx, OcpRequest::write(0, vec![0; 32]))
                .unwrap();
            *timing.lock().unwrap() = r.timing;
        });
    }
    sim.run();
    let t = timing.lock().unwrap();
    assert_eq!(t.total_cycles, 6);
    assert_eq!(t.wait_cycles, 0);
}

#[test]
fn contention_serializes_masters_and_charges_wait() {
    let sim = Simulation::new();
    let bus = plb_with_ram(&sim, ArbPolicy::FixedPriority);
    let done: Arc<Mutex<Vec<(usize, u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    for m in 0..3 {
        let port = bus.master_port(MasterId(m));
        let done = Arc::clone(&done);
        sim.spawn_thread(&format!("m{m}"), move |ctx| {
            let r = port
                .transact(ctx, OcpRequest::write(0, vec![0; 64]))
                .unwrap();
            done.lock()
                .unwrap()
                .push((m, r.timing.wait_cycles, r.timing.total_cycles));
        });
    }
    sim.run();
    let done = done.lock().unwrap();
    // Fixed priority: master 0 first (no wait), others wait in id order.
    let by_master: std::collections::BTreeMap<usize, (u64, u64)> =
        done.iter().map(|(m, w, t)| (*m, (*w, *t))).collect();
    assert_eq!(by_master[&0].0, 0);
    assert!(by_master[&1].0 > 0);
    assert!(by_master[&2].0 > by_master[&1].0);
    let stats = bus.stats();
    assert_eq!(stats.transactions, 3);
    assert_eq!(stats.bytes, 192);
}

#[test]
fn pipelined_bus_overlaps_address_phase_on_back_to_back() {
    // Same workload on a pipelined and a non-pipelined PLB; the pipelined
    // one must finish strictly earlier.
    let run = |pipelined: bool| {
        let sim = Simulation::new();
        let mut cfg = BusConfig::plb("plb");
        cfg.pipelined = pipelined;
        let mut bus = CcatbBus::new(&sim.handle(), cfg);
        bus.map_slave(0..0x10000, Arc::new(Memory::new("ram", 0x10000)), true);
        let bus = Arc::new(bus);
        for m in 0..2 {
            let port = bus.master_port(MasterId(m));
            sim.spawn_thread(&format!("m{m}"), move |ctx| {
                for i in 0..16u64 {
                    port.write(ctx, i * 64, vec![0; 64]).unwrap();
                }
            });
        }
        sim.run().time
    };
    let piped = run(true);
    let flat = run(false);
    assert!(piped < flat, "pipelined {piped} !< flat {flat}");
}

#[test]
fn round_robin_alternates_between_contenders() {
    let sim = Simulation::new();
    let bus = plb_with_ram(&sim, ArbPolicy::RoundRobin);
    let order = Arc::new(Mutex::new(Vec::new()));
    for m in 0..2 {
        let port = bus.master_port(MasterId(m));
        let order = Arc::clone(&order);
        sim.spawn_thread(&format!("m{m}"), move |ctx| {
            for _ in 0..4 {
                port.write(ctx, 0, vec![0; 64]).unwrap();
                order.lock().unwrap().push(m);
            }
        });
    }
    sim.run();
    let order = order.lock().unwrap();
    assert_eq!(order.len(), 8);
    // Under round-robin with saturated masters, grants alternate.
    let mut alternations = 0;
    for w in order.windows(2) {
        if w[0] != w[1] {
            alternations += 1;
        }
    }
    assert!(
        alternations >= 5,
        "expected mostly alternating grants, got {order:?}"
    );
}

#[test]
fn fixed_priority_starves_low_priority_under_load() {
    let sim = Simulation::new();
    let bus = plb_with_ram(&sim, ArbPolicy::FixedPriority);
    let finish: Arc<Mutex<Vec<(usize, SimTime)>>> = Arc::new(Mutex::new(Vec::new()));
    for m in 0..2 {
        let port = bus.master_port(MasterId(m));
        let finish = Arc::clone(&finish);
        sim.spawn_thread(&format!("m{m}"), move |ctx| {
            for _ in 0..8 {
                port.write(ctx, 0, vec![0; 128]).unwrap();
            }
            finish.lock().unwrap().push((m, ctx.now()));
        });
    }
    sim.run();
    let finish = finish.lock().unwrap();
    let t0 = finish.iter().find(|(m, _)| *m == 0).unwrap().1;
    let t1 = finish.iter().find(|(m, _)| *m == 1).unwrap().1;
    assert!(
        t0 < t1,
        "high priority must finish first (t0={t0}, t1={t1})"
    );
}

#[test]
fn tdma_bounds_access_to_own_slot() {
    let sim = Simulation::new();
    let slot = SimDur::ns(200);
    let bus = plb_with_ram(&sim, ArbPolicy::Tdma { slot, slots: 2 });
    // Only master 1 requests, at t=0 (slot 0 belongs to master 0): it must
    // wait for its slot at 200 ns.
    let port = bus.master_port(MasterId(1));
    let started = Arc::new(Mutex::new(SimTime::ZERO));
    {
        let started = Arc::clone(&started);
        sim.spawn_thread("m1", move |ctx| {
            let r = port
                .transact(ctx, OcpRequest::write(0, vec![0; 8]))
                .unwrap();
            *started.lock().unwrap() = r.timing.start + SimDur::ps(0);
            assert!(
                r.timing.wait_cycles >= 20,
                "must wait ~200ns = 20 cycles, waited {}",
                r.timing.wait_cycles
            );
        });
    }
    sim.run();
}

#[test]
fn opb_is_slower_than_plb_for_the_same_workload() {
    let run = |cfg: BusConfig| {
        let sim = Simulation::new();
        let mut bus = CcatbBus::new(&sim.handle(), cfg);
        bus.map_slave(0..0x10000, Arc::new(Memory::new("ram", 0x10000)), true);
        let bus = Arc::new(bus);
        let port = bus.master_port(MasterId(0));
        sim.spawn_thread("m", move |ctx| {
            for i in 0..32u64 {
                port.write(ctx, i * 64, vec![0; 64]).unwrap();
            }
        });
        sim.run().time
    };
    let plb = run(BusConfig::plb("plb"));
    let opb = run(BusConfig::opb("opb"));
    // OPB: narrower, slower clock, 2 cycles/beat, no pipelining.
    assert!(
        opb.as_ps() > plb.as_ps() * 4,
        "opb {opb} should be >4x slower than plb {plb}"
    );
}

#[test]
fn crossbar_parallelizes_disjoint_targets() {
    // Two masters to two different slaves: crossbar time ~ single-master
    // time; shared bus time ~ 2x.
    let crossbar_time = {
        let sim = Simulation::new();
        let mut xbar = Crossbar::new(&sim.handle(), CrossbarConfig::default_64bit("x"));
        xbar.map_slave(0..0x1000, Arc::new(Memory::new("a", 0x1000)), true);
        xbar.map_slave(0x1000..0x2000, Arc::new(Memory::new("b", 0x1000)), true);
        let xbar = Arc::new(xbar);
        for m in 0..2u64 {
            let port = xbar.master_port(MasterId(m as usize));
            sim.spawn_thread(&format!("m{m}"), move |ctx| {
                for i in 0..16u64 {
                    port.write(ctx, m * 0x1000 + i * 64, vec![0; 64]).unwrap();
                }
            });
        }
        sim.run().time
    };
    let bus_time = {
        let sim = Simulation::new();
        let mut bus = CcatbBus::new(&sim.handle(), BusConfig::plb("plb"));
        bus.map_slave(0..0x1000, Arc::new(Memory::new("a", 0x1000)), true);
        bus.map_slave(0x1000..0x2000, Arc::new(Memory::new("b", 0x1000)), true);
        let bus = Arc::new(bus);
        for m in 0..2u64 {
            let port = bus.master_port(MasterId(m as usize));
            sim.spawn_thread(&format!("m{m}"), move |ctx| {
                for i in 0..16u64 {
                    port.write(ctx, m * 0x1000 + i * 64, vec![0; 64]).unwrap();
                }
            });
        }
        sim.run().time
    };
    assert!(
        crossbar_time.as_ps() * 3 < bus_time.as_ps() * 2,
        "crossbar {crossbar_time} should be well under shared bus {bus_time}"
    );
}

#[test]
fn crossbar_serializes_same_target() {
    let sim = Simulation::new();
    let mut xbar = Crossbar::new(&sim.handle(), CrossbarConfig::default_64bit("x"));
    xbar.map_slave(0..0x1000, Arc::new(Memory::new("a", 0x1000)), true);
    let xbar = Arc::new(xbar);
    let waits = Arc::new(Mutex::new(Vec::new()));
    for m in 0..2 {
        let port = xbar.master_port(MasterId(m));
        let waits = Arc::clone(&waits);
        sim.spawn_thread(&format!("m{m}"), move |ctx| {
            let r = port
                .transact(ctx, OcpRequest::write(0, vec![0; 256]))
                .unwrap();
            waits.lock().unwrap().push(r.timing.wait_cycles);
        });
    }
    sim.run();
    let waits = waits.lock().unwrap();
    assert!(waits.iter().any(|w| *w > 0), "one master must have waited");
}

/// Address decoding on the shared bus, the crossbar and the NoC: an
/// unmapped address is an `AddressDecode` error and a burst past the end of
/// its mapping a `BadRequest`. The bus decodes after arbitration, so both
/// failures take bus time and count as errors; the crossbar and the NoC
/// decode before arbitration, so a rejected request takes no time.
#[test]
fn decode_errors_are_reported_on_every_family() {
    let ram = || Arc::new(Memory::new("ram", 0x100));
    let sim = Simulation::new();
    let mut bus = CcatbBus::new(&sim.handle(), BusConfig::plb("plb"));
    bus.map_slave(0x1000..0x1100, ram(), true);
    let mut xbar = Crossbar::new(&sim.handle(), CrossbarConfig::default_64bit("xbar"));
    xbar.map_slave(0x1000..0x1100, ram(), true);
    let mut noc = MeshNoc::new(&sim.handle(), NocConfig::mesh("noc", 2, 2));
    noc.map_slave(0x1000..0x1100, ram(), true);
    let (bus, xbar, noc) = (Arc::new(bus), Arc::new(xbar), Arc::new(noc));
    let ports = [
        bus.master_port(MasterId(0)),
        xbar.master_port(MasterId(0)),
        noc.master_port(MasterId(0)),
    ];
    let got = Arc::new(Mutex::new(Vec::new()));
    {
        let got = Arc::clone(&got);
        sim.spawn_thread("m", move |ctx| {
            for port in &ports {
                let t0 = ctx.now();
                let unmapped = port.read(ctx, 0x2000, 4);
                let crossing = port.write(ctx, 0x10F0, vec![0; 32]);
                got.lock()
                    .unwrap()
                    .push((unmapped, crossing, ctx.now().since(t0)));
            }
        });
    }
    sim.run();
    let got = got.lock().unwrap();
    for (unmapped, crossing, _) in got.iter() {
        assert_eq!(*unmapped, Err(OcpError::AddressDecode { addr: 0x2000 }));
        assert!(
            matches!(crossing, Err(OcpError::BadRequest(_))),
            "{crossing:?}"
        );
    }
    assert!(got[0].2 > SimDur::ZERO);
    assert_eq!(bus.stats().errors, 2);
    assert_eq!(bus.stats().transactions, 0);
    for (family, elapsed, stats) in [
        ("xbar", got[1].2, xbar.stats()),
        ("noc", got[2].2, noc.stats()),
    ] {
        assert_eq!(elapsed, SimDur::ZERO, "{family}");
        assert_eq!(stats.transactions, 0, "{family}");
    }
}

/// Every family reports a transaction the same way: reads are counted, and
/// the recorder sees a `grant` span and then a `read`/`write` span on the
/// interconnect.
#[test]
fn every_family_counts_reads_and_records_bus_spans() {
    type Build = fn(&SimHandle, Arc<Memory>) -> (Arc<dyn OcpTarget>, Box<dyn Fn() -> BusStats>);
    let families: [(&str, Build); 4] = [
        ("plb", |h, ram| {
            let mut bus = CcatbBus::new(h, BusConfig::plb("plb"));
            bus.map_slave(0..0x1000, ram, true);
            let bus = Arc::new(bus);
            (bus.clone(), Box::new(move || bus.stats()))
        }),
        ("ahb", |h, ram| {
            let mut bus = CcatbBus::new(h, BusConfig::ahb("ahb").with_split(true));
            bus.map_slave(0..0x1000, ram, true);
            let bus = Arc::new(bus);
            (bus.clone(), Box::new(move || bus.stats()))
        }),
        ("xbar", |h, ram| {
            let mut xbar = Crossbar::new(h, CrossbarConfig::default_64bit("xbar"));
            xbar.map_slave(0..0x1000, ram, true);
            let xbar = Arc::new(xbar);
            (xbar.clone(), Box::new(move || xbar.stats()))
        }),
        ("noc", |h, ram| {
            let mut noc = MeshNoc::new(h, NocConfig::mesh("noc", 2, 2));
            noc.map_slave(0..0x1000, ram, true);
            let noc = Arc::new(noc);
            (noc.clone(), Box::new(move || noc.stats()))
        }),
    ];
    for (name, build) in families {
        let sim = Simulation::new();
        sim.record_transactions(1024);
        let (target, stats) = build(&sim.handle(), Arc::new(Memory::new("ram", 0x1000)));
        let port = OcpMasterPort::bind(MasterId(1), target);
        sim.spawn_thread("m", move |ctx| {
            port.write(ctx, 0, vec![7; 16]).unwrap();
            port.read(ctx, 0, 16).unwrap();
            port.read(ctx, 8, 8).unwrap();
        });
        sim.run();
        let stats = stats();
        assert_eq!((stats.transactions, stats.reads), (3, 2), "{name}");
        let trace = sim.txn_trace();
        let spans: Vec<(&str, &str)> = trace
            .events()
            .iter()
            .filter(|e| e.level == TxnLevel::Bus)
            .map(|e| (&*e.resource, e.op))
            .collect();
        let ops = ["grant", "write", "grant", "read", "grant", "read"];
        assert_eq!(spans, ops.map(|op| (name, op)), "{name}");
    }
}

#[test]
fn bridge_adds_latency_and_routes_downstream() {
    let sim = Simulation::new();
    // OPB with a peripheral memory.
    let mut opb = CcatbBus::new(&sim.handle(), BusConfig::opb("opb"));
    opb.map_slave(
        0x4000_0000..0x4000_1000,
        Arc::new(Memory::new("per", 0x1000)),
        true,
    );
    let opb = Arc::new(opb);
    // PLB with RAM and the bridge to OPB.
    let mut plb = CcatbBus::new(&sim.handle(), BusConfig::plb("plb"));
    plb.map_slave(0..0x1000, Arc::new(Memory::new("ram", 0x1000)), true);
    plb.map_slave(
        0x4000_0000..0x4000_1000,
        Arc::new(Bridge::new(
            "plb2opb",
            SimDur::ns(40),
            opb.clone(),
            MasterId(0),
        )),
        false,
    );
    let plb = Arc::new(plb);
    let port = plb.master_port(MasterId(0));
    let times = Arc::new(Mutex::new((SimDur::ZERO, SimDur::ZERO)));
    {
        let times = Arc::clone(&times);
        sim.spawn_thread("cpu", move |ctx| {
            let t0 = ctx.now();
            port.write(ctx, 0x100, vec![1; 8]).unwrap();
            let local = ctx.now().since(t0);
            let t1 = ctx.now();
            port.write(ctx, 0x4000_0100, vec![2; 8]).unwrap();
            let remote = ctx.now().since(t1);
            *times.lock().unwrap() = (local, remote);
        });
    }
    sim.run();
    let (local, remote) = *times.lock().unwrap();
    assert!(
        remote > local + SimDur::ns(40),
        "bridged access ({remote}) must exceed local ({local}) + bridge latency"
    );
    assert_eq!(opb.stats().transactions, 1);
}

#[test]
fn mapped_ship_channel_preserves_content() {
    let sim = Simulation::new();
    let h = sim.handle();
    let mut bus = CcatbBus::new(&h, BusConfig::plb("plb"));
    let pending = map_channel(
        &h,
        "ch0",
        0x1000_0000,
        WrapperConfig::default(),
        ("producer", "consumer"),
    );
    bus.map_slave(
        0x1000_0000..0x1000_0000 + ADAPTER_SIZE,
        pending.adapter.clone(),
        true,
    );
    let bus = Arc::new(bus);
    let master_port = pending.bind(&bus.master_port(MasterId(0)));
    let slave_port = pending.slave_port.clone();

    let log = TransactionLog::new();
    master_port.attach_recorder(log.clone());
    slave_port.attach_recorder(log.clone());

    sim.spawn_thread("producer", move |ctx| {
        for i in 0..10u32 {
            master_port
                .send(ctx, &(i, vec![i as u8; (i as usize + 1) * 10]))
                .unwrap();
        }
        let sum: u64 = master_port.request(ctx, &123u64).unwrap();
        assert_eq!(sum, 123 * 2);
    });
    sim.spawn_thread("consumer", move |ctx| {
        for i in 0..10u32 {
            let (n, data): (u32, Vec<u8>) = slave_port.recv(ctx).unwrap();
            assert_eq!(n, i);
            assert_eq!(data.len(), (i as usize + 1) * 10);
            assert!(data.iter().all(|b| *b == i as u8));
        }
        let q: u64 = slave_port.recv(ctx).unwrap();
        slave_port.reply(ctx, &(q * 2)).unwrap();
    });
    let r = sim.run();
    assert_eq!(r.reason, StopReason::Starved);
    // Mapping must generate real bus traffic.
    let stats = bus.stats();
    assert!(
        stats.transactions > 30,
        "got {} bus transactions",
        stats.transactions
    );
    // Roles must come out master/slave.
    assert_eq!(pending.slave_port.observed_role(), RoleObservation::Slave);
    assert_eq!(log.to_vec().len(), 23); // 10 send + 10 recv + 1 req + 1 recv + 1 reply
}

#[test]
fn mapped_channel_log_matches_unmapped_channel_log() {
    // The same PE behaviour over (a) an abstract SHIP channel and (b) a
    // bus-mapped channel must produce content-equivalent transaction logs —
    // the refinement-correctness claim of the design flow.
    let workload_master = |port: ShipPort| {
        move |ctx: &mut ThreadCtx| {
            for i in 0..5u32 {
                port.send(ctx, &vec![i as u8; 32]).unwrap();
            }
            let _: u32 = port.request(ctx, &7u32).unwrap();
        }
    };
    let workload_slave = |port: ShipPort| {
        move |ctx: &mut ThreadCtx| {
            for _ in 0..5 {
                let _: Vec<u8> = port.recv(ctx).unwrap();
            }
            let q: u32 = port.recv(ctx).unwrap();
            port.reply(ctx, &(q + 1)).unwrap();
        }
    };

    // (a) abstract channel.
    let log_a = {
        let sim = Simulation::new();
        let ch = ShipChannel::new(&sim.handle(), "ch", ShipConfig::default());
        let (m, s) = ch.ports("p", "c");
        let log = TransactionLog::new();
        m.attach_recorder(log.clone());
        s.attach_recorder(log.clone());
        sim.spawn_thread("p", workload_master(m));
        sim.spawn_thread("c", workload_slave(s));
        sim.run();
        log
    };

    // (b) mapped onto a PLB.
    let log_b = {
        let sim = Simulation::new();
        let h = sim.handle();
        let mut bus = CcatbBus::new(&h, BusConfig::plb("plb"));
        let pending = map_channel(&h, "ch", 0, WrapperConfig::default(), ("p", "c"));
        bus.map_slave(0..ADAPTER_SIZE, pending.adapter.clone(), true);
        let bus = Arc::new(bus);
        let m = pending.bind(&bus.master_port(MasterId(0)));
        let s = pending.slave_port.clone();
        let log = TransactionLog::new();
        m.attach_recorder(log.clone());
        s.attach_recorder(log.clone());
        sim.spawn_thread("p", workload_master(m));
        sim.spawn_thread("c", workload_slave(s));
        sim.run();
        log
    };

    assert!(log_a.content_equivalent(&log_b).is_ok());
}

#[test]
fn accessor_attaches_pe_via_pins_and_is_protocol_clean() {
    let sim = Simulation::new();
    let h = sim.handle();
    let clk = sim.clock("clk", SimDur::ns(10));
    let mut bus = CcatbBus::new(&h, BusConfig::plb("plb"));
    bus.map_slave(0..0x10000, Arc::new(Memory::new("ram", 0x10000)), true);
    let bus = Arc::new(bus);
    let acc = Accessor::attach(&h, "acc0", &clk, bus.clone(), MasterId(0), true);
    let port = acc.port().clone();
    sim.spawn_thread("pe", move |ctx| {
        for i in 0..8u64 {
            port.write(ctx, i * 32, vec![i as u8; 32]).unwrap();
            assert_eq!(port.read(ctx, i * 32, 32).unwrap(), vec![i as u8; 32]);
        }
        ctx.stop();
    });
    sim.run();
    assert!(acc.violations().unwrap().is_empty());
    assert_eq!(bus.stats().transactions, 16);
}

#[test]
fn accessor_path_is_slower_than_direct_bus_path() {
    let direct = {
        let sim = Simulation::new();
        let bus = plb_with_ram(&sim, ArbPolicy::FixedPriority);
        let port = bus.master_port(MasterId(0));
        sim.spawn_thread("pe", move |ctx| {
            for i in 0..8u64 {
                port.write(ctx, i * 32, vec![0; 32]).unwrap();
            }
        });
        sim.run().time
    };
    let via_pins = {
        let sim = Simulation::new();
        let h = sim.handle();
        let clk = sim.clock("clk", SimDur::ns(10));
        let bus = plb_with_ram(&sim, ArbPolicy::FixedPriority);
        let acc = Accessor::attach(&h, "acc0", &clk, bus, MasterId(0), false);
        let port = acc.port().clone();
        sim.spawn_thread("pe", move |ctx| {
            for i in 0..8u64 {
                port.write(ctx, i * 32, vec![0; 32]).unwrap();
            }
            ctx.stop();
        });
        sim.run().time
    };
    assert!(
        via_pins > direct,
        "pin path {via_pins} must be slower than direct {direct}"
    );
}

#[test]
fn default_bus_stats_track_min_and_max_from_first_sample() {
    // Regression: `BusStats::default()` used to derive `RunningStats`'s
    // Default, whose zeroed min/max swallowed the first real sample.
    let mut stats = BusStats::default();
    stats.latency_cycles.record(7.0);
    assert_eq!(stats.latency_cycles.min(), Some(7.0));
    assert_eq!(stats.latency_cycles.max(), Some(7.0));
    assert_eq!(stats.latency_cycles.count(), 1);

    // Merging a default accumulator into a populated one is a no-op.
    let empty = BusStats::default();
    let mut merged = stats.latency_cycles;
    merged.merge(&empty.latency_cycles);
    assert_eq!(merged.min(), Some(7.0));
    assert_eq!(merged.max(), Some(7.0));
    assert_eq!(merged.count(), 1);
}

#[test]
fn utilization_of_zero_elapsed_run_is_zero_not_nan() {
    // Regression guard: a sweep candidate whose run ends at t=0 (e.g. an
    // immediate error) must rank as 0.0 utilization, not NaN — NaN poisons
    // every comparison-based ranking downstream.
    let stats = BusStats {
        busy: SimDur::ns(40),
        ..BusStats::default()
    };
    let u = stats.utilization(SimDur::ZERO);
    assert_eq!(u, 0.0);
    assert!(!u.is_nan());
    assert_eq!(stats.throughput_bps(SimDur::ZERO), 0.0);

    // Sanity: the normal case still divides.
    assert!((stats.utilization(SimDur::ns(80)) - 0.5).abs() < 1e-12);
}
