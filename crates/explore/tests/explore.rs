//! Exploration flow: role detection, automatic mapping, sweeps and
//! cross-level equivalence.

use shiptlm_cam::arb::ArbPolicy;
use shiptlm_explore::prelude::*;
use shiptlm_kernel::time::SimDur;

#[test]
fn role_detection_on_pipeline() {
    let app = workload::pipeline(4, 4, 64, SimDur::ZERO);
    let ca = run_component_assembly(&app).unwrap();
    // source → stage0 → stage1 → sink: the upstream end masters each hop.
    assert_eq!(ca.roles.master_of["ch0"], "source");
    assert_eq!(ca.roles.master_of["ch1"], "stage0");
    assert_eq!(ca.roles.master_of["ch2"], "stage1");
    assert_eq!(ca.output.log.len() as u64, 3 * 4 * 2); // send+recv per hop per block
}

#[test]
fn role_detection_direction_independent_of_declaration() {
    // Declare the channel "backwards" (consumer first): detection must still
    // find the real master.
    let mut app = AppSpec::new("reversed");
    app.add_pe("consumer", move |h, ports| async move {
        let _: u32 = ports[0].recv_async(&h).await.unwrap();
    });
    app.add_pe("producer", move |h, ports| async move {
        ports[0].send_async(&h, &5u32).await.unwrap();
    });
    app.connect("c", "consumer", "producer");
    let ca = run_component_assembly(&app).unwrap();
    assert_eq!(ca.roles.master_of["c"], "producer");
}

#[test]
fn unused_channel_is_a_mapping_error() {
    let mut app = AppSpec::new("dead");
    app.add_pe("a", |_, _| async {});
    app.add_pe("b", |_, _| async {});
    app.connect("never", "a", "b");
    assert!(matches!(
        run_component_assembly(&app),
        Err(MapError::Unused { .. })
    ));
}

#[test]
fn inconsistent_usage_is_a_mapping_error() {
    let mut app = AppSpec::new("mixed");
    app.add_pe("x", move |h, ports| async move {
        ports[0].send_async(&h, &1u8).await.unwrap();
        let _: u8 = ports[0].recv_async(&h).await.unwrap();
    });
    app.add_pe("y", move |h, ports| async move {
        let _: u8 = ports[0].recv_async(&h).await.unwrap();
        ports[0].send_async(&h, &2u8).await.unwrap();
    });
    app.connect("c", "x", "y");
    assert!(matches!(
        run_component_assembly(&app),
        Err(MapError::Inconsistent { .. })
    ));
}

#[test]
fn mapped_run_is_content_equivalent_to_untimed() {
    let app = workload::pipeline(4, 8, 128, SimDur::ZERO);
    verify_equivalence(
        &app,
        &[ArchSpec::plb(), ArchSpec::opb(), ArchSpec::crossbar()],
    )
    .unwrap();
}

#[test]
fn rpc_workload_equivalence_across_arbitration() {
    let app = workload::rpc(2, 4, 96, SimDur::ns(500));
    verify_equivalence(
        &app,
        &[
            ArchSpec::plb().with_arb(ArbPolicy::FixedPriority),
            ArchSpec::plb().with_arb(ArbPolicy::RoundRobin),
        ],
    )
    .unwrap();
}

#[test]
fn mapped_run_takes_nonzero_time_and_generates_bus_traffic() {
    let app = workload::pipeline(3, 8, 64, SimDur::ZERO);
    let (ca, mapped) = explore_one(&app, &ArchSpec::plb()).unwrap();
    assert!(ca.output.sim_time.is_zero()); // untimed: no time passes
    assert!(!mapped.output.sim_time.is_zero());
    assert!(mapped.bus.transactions > 0);
    assert!(mapped.bus.bytes > 0);
}

#[test]
fn crossbar_outperforms_shared_bus_on_parallel_streams() {
    let app = workload::parallel_streams(4, 16, 256);
    let report = Sweep::new(app)
        .arch(ArchSpec::plb())
        .arch(ArchSpec::crossbar())
        .run()
        .unwrap();
    let rows = report.rows();
    let plb = rows.iter().find(|r| r.label.starts_with("plb")).unwrap();
    let xbar = rows.iter().find(|r| r.label.starts_with("xbar")).unwrap();
    assert!(
        xbar.sim_time < plb.sim_time,
        "crossbar ({}) must beat shared bus ({}) on disjoint streams",
        xbar.sim_time,
        plb.sim_time
    );
}

#[test]
fn opb_is_the_slowest_architecture() {
    let app = workload::pipeline(3, 16, 256, SimDur::ZERO);
    let report = Sweep::new(app)
        .arch(ArchSpec::plb())
        .arch(ArchSpec::opb())
        .arch(ArchSpec::crossbar())
        .run()
        .unwrap();
    let time_of = |prefix: &str| {
        report
            .rows()
            .iter()
            .find(|r| r.label.starts_with(prefix))
            .unwrap()
            .sim_time
    };
    assert!(time_of("opb") > time_of("plb"));
    assert!(time_of("opb") > time_of("xbar"));
}

#[test]
fn bigger_bursts_speed_up_bulk_transfer() {
    let app = workload::pipeline(3, 8, 1024, SimDur::ZERO);
    let report = Sweep::new(app)
        .arch(ArchSpec::plb().with_burst(16))
        .arch(ArchSpec::plb().with_burst(256))
        .run()
        .unwrap();
    let rows = report.rows();
    assert!(
        rows[1].sim_time < rows[0].sim_time,
        "256B bursts ({}) must beat 16B bursts ({})",
        rows[1].sim_time,
        rows[0].sim_time
    );
}

#[test]
fn untimed_baseline_row_appears() {
    let app = workload::pipeline(3, 4, 64, SimDur::ZERO);
    let report = Sweep::new(app)
        .with_untimed_baseline()
        .arch(ArchSpec::plb())
        .run()
        .unwrap();
    assert_eq!(report.rows().len(), 2);
    assert_eq!(report.rows()[0].label, "untimed");
    assert!(report.rows()[0].bus.is_none());
    assert!(report.rows()[1].bus.is_some());
}

#[test]
fn report_renders_table_and_csv() {
    let app = workload::rpc(1, 2, 64, SimDur::ZERO);
    let report = Sweep::new(app).arch(ArchSpec::plb()).run().unwrap();
    let table = report.to_string();
    assert!(table.contains("config"));
    assert!(table.contains("plb/priority/b64"));
    let csv = report.to_csv();
    assert!(csv.starts_with("config,"));
    assert_eq!(csv.lines().count(), 2);
}

#[test]
fn tdma_reduces_worst_case_wait_variance_vs_priority() {
    // Asymmetric hotspot load: under fixed priority the low-priority master
    // sees much larger waits than the high-priority one; TDMA evens the
    // service out. Compare the spread of per-master mean waits.
    let spread = |policy: ArbPolicy| {
        let app = workload::hotspot(3, 8, 256);
        let report = Sweep::new(app)
            .arch(ArchSpec::plb().with_arb(policy))
            .run()
            .unwrap();
        let bus = report.rows()[0].bus.clone().unwrap();
        let means: Vec<f64> = bus
            .per_master
            .values()
            .map(|m| m.wait_cycles.mean())
            .collect();
        let max = means.iter().cloned().fold(f64::MIN, f64::max);
        let min = means.iter().cloned().fold(f64::MAX, f64::min);
        max - min
    };
    let prio_spread = spread(ArbPolicy::FixedPriority);
    let rr_spread = spread(ArbPolicy::RoundRobin);
    assert!(
        rr_spread <= prio_spread,
        "round-robin spread {rr_spread} must not exceed priority spread {prio_spread}"
    );
}

#[test]
fn pe_and_channel_validation() {
    let mut app = AppSpec::new("v");
    app.add_pe("a", |_, _| async {});
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        app.connect("c", "a", "ghost");
    }));
    assert!(result.is_err());
}

#[test]
fn missing_role_is_a_mapping_error_not_a_panic() {
    let app = workload::pipeline(2, 2, 16, SimDur::ZERO);
    // A hand-built role map that misses every channel.
    let empty = RoleMap::default();
    let err = run_mapped(&app, &empty, &ArchSpec::plb()).unwrap_err();
    assert!(matches!(err, MapError::Missing { ref channel } if channel == "ch0"));
    assert!(err.to_string().contains("role map misses channel 'ch0'"));
    let err = run_pin_accurate(&app, &empty, &ArchSpec::plb()).unwrap_err();
    assert!(matches!(err, MapError::Missing { .. }));
}

#[test]
fn an_app_without_pes_ends_at_once_on_every_level() {
    // The pin level's free-running clock stops when the last PE returns,
    // so with no PE at all nothing used to stop it. The watchdog turns a
    // regression into a failure instead of a hang.
    let app = AppSpec::new("empty");
    let opts = RunOptions::default().with_watchdog(std::time::Duration::from_secs(2));
    let ca = run_component_assembly_with(&app, &opts).expect("untimed run");
    let arch = ArchSpec::plb();
    let ccatb = run_mapped_with(&app, &ca.roles, &arch, &opts).expect("ccatb run");
    let pin = run_pin_accurate_with(&app, &ca.roles, &arch, &opts).expect("pin run");
    for out in [&ca.output, &ccatb.output, &pin.output] {
        assert_eq!(out.reason, shiptlm_kernel::StopReason::Starved);
        assert_eq!(out.sim_time, SimDur::ZERO);
    }
}
