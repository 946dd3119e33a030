//! Arbitration stress suite for the AHB and mesh-NoC interconnect
//! families: SPLIT storms, wrap-burst address math, XY-routing
//! determinism across serial and parallel sweeps, and deadlock-freedom
//! of the mesh under hotspot traffic.

use std::sync::Arc;

use shiptlm::prelude::*;

/// Every master SPLITs simultaneously: eight masters hit a SPLIT-capable
/// slave in the same delta, so each one is parked, releases the bus, and
/// must be re-granted before its data phase. All transfers must complete
/// with the memory intact, and every transaction must have gone through
/// exactly one park/re-grant pair.
#[test]
fn split_storm_all_masters_complete() {
    const MASTERS: usize = 8;
    const TXNS: u64 = 4;
    const BYTES: usize = 64; // 16 beats on the 4-byte AHB data path

    let sim = Simulation::new();
    let mut bus = CcatbBus::new(&sim.handle(), BusConfig::ahb("ahb").with_split(true));
    let mem = Arc::new(Memory::new("ram", MASTERS * TXNS as usize * BYTES));
    bus.map_slave(0..(MASTERS * TXNS as usize * BYTES) as u64, mem.clone(), true);
    let bus = Arc::new(bus);

    for m in 0..MASTERS {
        let port = bus.master_port(MasterId(m));
        sim.spawn_thread(&format!("m{m}"), move |ctx| {
            for t in 0..TXNS {
                let base = (m as u64 * TXNS + t) * BYTES as u64;
                let data: Vec<u8> = (0..BYTES).map(|i| (m * 31 + i) as u8).collect();
                port.write(ctx, base, data).unwrap();
            }
        });
    }
    let result = sim.run();
    assert_eq!(result.reason, StopReason::Starved, "storm must drain");
    let diag = sim.diagnose();
    assert!(diag.blocked.is_empty(), "no master may stay parked: {diag}");
    assert!(!diag.has_cycle(), "{diag}");

    let stats = bus.stats();
    let ahb = bus.ahb_stats();
    assert_eq!(stats.transactions, MASTERS as u64 * TXNS);
    assert_eq!(
        ahb.splits,
        stats.transactions,
        "every transfer on a split bus must be parked exactly once"
    );
    assert_eq!(
        ahb.split_regrants, ahb.splits,
        "every SPLIT must be followed by a re-grant"
    );
    // With split slaves the bus is free during the off-bus access, so the
    // arbiter saw real contention: masters waited on the gate.
    assert!(stats.wait_cycles.count() > 0);

    // The storm didn't corrupt anything: each master's words landed.
    for m in 0..MASTERS {
        for t in 0..TXNS {
            let base = (m as u64 * TXNS + t) * BYTES as u64;
            let expected: Vec<u8> = (0..BYTES).map(|i| (m * 31 + i) as u8).collect();
            assert_eq!(mem.peek(base, BYTES), Some(expected), "m{m} txn {t}");
        }
    }
}

/// Wrapping-burst address sequences at power-of-two boundaries: the burst
/// wraps inside its `beats * width` aligned block, covers the block
/// exactly once, and classification follows the HBURST encoding.
#[test]
fn wrap_burst_address_math_at_boundaries() {
    // WRAP4 of 4-byte beats starting at 0x38: block is [0x30, 0x40).
    assert_eq!(wrap_addresses(0x38, 4, 4), vec![0x38, 0x3C, 0x30, 0x34]);
    // WRAP8 starting exactly on its boundary never actually wraps.
    assert_eq!(
        wrap_addresses(0x100, 8, 4),
        (0..8).map(|i| 0x100 + 4 * i).collect::<Vec<u64>>()
    );
    // WRAP16 straddling a 64-byte block at the top of a 4 KiB page stays
    // inside the block — it must NOT cross into the next page.
    let addrs = wrap_addresses(0xFF8, 16, 4);
    assert_eq!(addrs.len(), 16);
    assert_eq!(addrs[0], 0xFF8);
    assert!(
        addrs.iter().all(|a| (0xFC0..0x1000).contains(a)),
        "WRAP16 leaked out of its aligned block: {addrs:x?}"
    );
    let mut sorted = addrs.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 16, "each beat address must be distinct");

    // HBURST classification.
    assert_eq!(burst_kind(1, true), AhbBurst::Single);
    assert_eq!(burst_kind(4, true), AhbBurst::Wrap4);
    assert_eq!(burst_kind(8, true), AhbBurst::Wrap8);
    assert_eq!(burst_kind(16, true), AhbBurst::Wrap16);
    assert_eq!(burst_kind(5, true), AhbBurst::Incr);
    assert_eq!(burst_kind(16, false), AhbBurst::Incr);
}

/// A long burst is chopped at the grant boundary (RETRY / early burst
/// termination) and re-arbitrated segment by segment, so a competing
/// master is never starved behind it.
#[test]
fn long_bursts_are_retried_at_the_grant_boundary() {
    let sim = Simulation::new();
    let mut bus = CcatbBus::new(&sim.handle(), BusConfig::ahb("ahb"));
    bus.map_slave(0..0x1000, Arc::new(Memory::new("ram", 0x1000)), true);
    let bus = Arc::new(bus);

    // 256 bytes = 64 beats = 4 grant segments of 16 beats each.
    let port = bus.master_port(MasterId(0));
    sim.spawn_thread("hog", move |ctx| {
        port.write(ctx, 0, vec![0xAA; 256]).unwrap();
    });
    let rival = bus.master_port(MasterId(1));
    sim.spawn_thread("rival", move |ctx| {
        for _ in 0..4 {
            rival.write(ctx, 0x800, vec![1, 2, 3, 4]).unwrap();
        }
    });
    assert_eq!(sim.run().reason, StopReason::Starved);

    let ahb = bus.ahb_stats();
    assert_eq!(
        ahb.retries, 3,
        "a 64-beat burst must re-arbitrate 3 times past the 16-beat grant"
    );
}

/// XY routing is a pure function of (source, destination): routes are
/// X-first then Y, their length is the Manhattan distance, and an 8-thread
/// parallel sweep over NoC architectures produces a byte-identical report
/// to the serial sweep.
#[test]
fn xy_routing_is_deterministic_across_serial_and_parallel_sweeps() {
    // Route shape, straight from the model.
    let sim = Simulation::new();
    let noc = MeshNoc::new(&sim.handle(), NocConfig::mesh("noc", 4, 4));
    assert_eq!(noc.route(1, 11), vec![1, 2, 3, 7, 11]);
    assert_eq!(noc.route(12, 0), vec![12, 8, 4, 0]);
    assert_eq!(noc.route(5, 5), vec![5]);

    // Sweep determinism: the same NoC candidates through the serial and
    // the 8-thread pool paths must render the exact same report.
    let app = || workload::uniform_traffic(6, 4, 48, 0xD15C);
    let archs = vec![
        ArchSpec::noc(2, 2),
        ArchSpec::noc(4, 4),
        ArchSpec::noc(4, 2),
        ArchSpec::noc(4, 4).with_arb(ArbPolicy::FixedPriority),
        ArchSpec::noc(4, 4).with_clock(SimDur::ns(2)),
        ArchSpec::ahb(),
        ArchSpec::ahb().with_split(true),
        ArchSpec::plb(),
    ];
    let serial = Sweep::new(app()).archs(archs.clone()).run().expect("serial");
    let parallel = Sweep::new(app())
        .archs(archs)
        .run_parallel(8)
        .expect("parallel");
    assert_eq!(
        serial.to_string(),
        parallel.to_string(),
        "XY-routed sweep rows must not depend on worker scheduling"
    );
}

/// Hotspot traffic — every master hammering one ejection port — must
/// drain without a wait cycle: the XY mesh holds at most one link gate
/// per in-flight transfer, so `sim.diagnose()` finds nothing.
#[test]
fn mesh_is_deadlock_free_under_hotspot_traffic() {
    let sim = Simulation::new();
    let mut noc = MeshNoc::new(&sim.handle(), NocConfig::mesh("noc", 4, 4));
    let mem = Arc::new(Memory::new("hot", 0x1000).with_latency(SimDur::ns(20), SimDur::ns(5)));
    noc.map_slave_at(0..0x1000, mem, true, 0); // everyone ejects at node 0
    let noc = Arc::new(noc);

    for m in 0..16 {
        let port = noc.master_port(MasterId(m));
        sim.spawn_thread(&format!("pe{m}"), move |ctx| {
            for t in 0..4u64 {
                let base = (m as u64 * 4 + t) * 16 % 0x1000;
                port.write(ctx, base, vec![m as u8; 16]).unwrap();
                let _ = port.read(ctx, base, 16).unwrap();
            }
        });
    }
    let result = sim.run();
    assert_eq!(result.reason, StopReason::Starved, "hotspot must drain");
    let diag = sim.diagnose();
    assert!(!diag.has_cycle(), "XY routing must be deadlock-free: {diag}");
    assert!(diag.blocked.is_empty(), "{diag}");

    let stats = noc.stats();
    assert_eq!(stats.transactions, 16 * 8);
    assert!(noc.noc_stats().flits > 0);

    // The same pattern through the full mapped flow, end to end.
    let app = workload::hotspot_traffic(8, 6, 32, 75, 0x1107);
    let ca = run_component_assembly(&app).expect("untimed hotspot");
    let mapped = run_mapped(&app, &ca.roles, &ArchSpec::noc(4, 4)).expect("mapped hotspot");
    ca.output
        .log
        .content_equivalent(&mapped.output.log)
        .expect("hotspot content must survive the mesh");
}

/// The mesh scales to 16×16 (256 PEs): elaboration stays cheap, corner to
/// opposite-corner transfers take the Manhattan number of hops, and the
/// flit counters move.
#[test]
fn mesh_scales_to_16x16() {
    let sim = Simulation::new();
    let mut noc = MeshNoc::new(&sim.handle(), NocConfig::mesh("noc", 16, 16));
    assert_eq!(noc.config().nodes(), 256);
    let mem = Arc::new(Memory::new("far", 0x1000));
    noc.map_slave_at(0..0x1000, mem, true, 255); // bottom-right corner
    let noc = Arc::new(noc);

    // Corner-to-corner route is the full 30-hop Manhattan path.
    assert_eq!(noc.route(0, 255).len(), 31);

    for m in [0usize, 15, 240] {
        let port = noc.master_port(MasterId(m));
        sim.spawn_thread(&format!("pe{m}"), move |ctx| {
            port.write(ctx, (m as u64) * 8, vec![m as u8; 8]).unwrap();
        });
    }
    assert_eq!(sim.run().reason, StopReason::Starved);
    let stats = noc.noc_stats();
    assert!(stats.flits > 0);
    // Hops per transfer (links traversed plus the ejection port): node
    // 0 → 255 is 30+1, nodes 15 and 240 → 255 are 15+1 each; the mean
    // must sit exactly at 21.
    assert_eq!(stats.hops.count(), 3);
    assert!((stats.hops.mean() - 21.0).abs() < 1e-9, "{}", stats.hops.mean());
}

/// The traffic generators are pure functions of their seed: the same seed
/// produces identical per-PE request streams on the DE kernel and under
/// `Backend::Auto` (which compiles the untimed model for direct
/// execution), and a different seed produces different traffic.
#[test]
fn traffic_generators_are_deterministic_across_backends() {
    type Gen = fn(u64) -> AppSpec;
    let gens: [(&str, Gen); 3] = [
        ("uniform", |s| workload::uniform_traffic(6, 5, 40, s)),
        ("hotspot", |s| workload::hotspot_traffic(6, 5, 40, 80, s)),
        ("bursty", |s| workload::bursty_traffic(6, 8, 40, 4, s)),
    ];
    for (name, gen) in gens {
        let de = run_component_assembly_with(
            &gen(7),
            &RunOptions::default().with_backend(Backend::De),
        )
        .unwrap_or_else(|e| panic!("{name} DE run: {e}"));
        let auto = run_component_assembly_with(
            &gen(7),
            &RunOptions::default().with_backend(Backend::Auto),
        )
        .unwrap_or_else(|e| panic!("{name} auto run: {e}"));
        assert_eq!(
            auto.backend.used,
            Backend::Direct,
            "{name} traffic is untimed and must qualify for direct execution"
        );
        de.output
            .log
            .content_equivalent(&auto.output.log)
            .unwrap_or_else(|e| panic!("{name}: same seed must match across backends: {e}"));

        // A different seed reshuffles destinations and payloads.
        let other = run_component_assembly_with(
            &gen(8),
            &RunOptions::default().with_backend(Backend::De),
        )
        .unwrap_or_else(|e| panic!("{name} reseeded run: {e}"));
        assert!(
            de.output.log.content_equivalent(&other.output.log).is_err(),
            "{name}: different seeds must produce different traffic"
        );
    }
}
