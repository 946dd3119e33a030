//! HW/SW partitioning through the flow: automatic eSW generation with
//! unchanged PE source, content equivalence against the pure-HW mapping,
//! and the overhead ordering of the HW/SW path.

use shiptlm::prelude::*;

#[test]
fn sw_partition_preserves_content_vs_hw_mapping() {
    let app = workload::rpc(1, 4, 64, SimDur::ns(300));
    let ca = run_component_assembly(&app).unwrap();
    let hw = run_mapped(&app, &ca.roles, &ArchSpec::plb()).unwrap();
    let sw = run_partitioned(
        &app,
        &ca.roles,
        &ArchSpec::plb(),
        &Partition::software(["client0"]),
    )
    .unwrap();
    assert!(hw
        .output
        .log
        .content_equivalent(&sw.mapped.output.log)
        .is_ok());
    assert!(
        ca.output
            .log
            .content_equivalent(&sw.mapped.output.log)
            .is_ok(),
        "eSW run must match the component-assembly reference"
    );
}

#[test]
fn hwsw_path_costs_more_than_hw_path() {
    let app = workload::rpc(1, 6, 128, SimDur::ZERO);
    let ca = run_component_assembly(&app).unwrap();
    let hw = run_mapped(&app, &ca.roles, &ArchSpec::plb()).unwrap();
    let sw = run_partitioned(
        &app,
        &ca.roles,
        &ArchSpec::plb(),
        &Partition::software(["client0"]),
    )
    .unwrap();
    assert!(
        sw.mapped.output.sim_time > hw.output.sim_time,
        "HW/SW ({}) must exceed pure HW ({})",
        sw.mapped.output.sim_time,
        hw.output.sim_time
    );
    assert!(sw.rtos.ctx_switches > 0, "the RTOS must have scheduled");
}

#[test]
fn sw_slave_partition_works() {
    // Move the *server* into software: HW master drives the mailbox, the SW
    // task drains it through the driver's RX path.
    let app = workload::rpc(1, 3, 48, SimDur::ZERO);
    let ca = run_component_assembly(&app).unwrap();
    let sw = run_partitioned(
        &app,
        &ca.roles,
        &ArchSpec::plb(),
        &Partition::software(["server0"]),
    )
    .unwrap();
    assert!(ca
        .output
        .log
        .content_equivalent(&sw.mapped.output.log)
        .is_ok());
}

#[test]
fn multiple_sw_tasks_share_the_cpu() {
    // Both clients in software: two RTOS tasks on one CPU, two HW servers.
    let app = workload::rpc(2, 3, 48, SimDur::ns(200));
    let ca = run_component_assembly(&app).unwrap();
    let sw = run_partitioned(
        &app,
        &ca.roles,
        &ArchSpec::plb(),
        &Partition::software(["client0", "client1"]),
    )
    .unwrap();
    assert!(ca
        .output
        .log
        .content_equivalent(&sw.mapped.output.log)
        .is_ok());
    assert!(sw.rtos.ctx_switches >= 2);
}

#[test]
fn unknown_pe_in_partition_is_rejected() {
    let app = workload::rpc(1, 1, 16, SimDur::ZERO);
    let ca = run_component_assembly(&app).unwrap();
    assert!(matches!(
        run_partitioned(
            &app,
            &ca.roles,
            &ArchSpec::plb(),
            &Partition::software(["ghost"]),
        ),
        Err(PartitionError::UnknownPe(_))
    ));
}

#[test]
fn pipeline_with_sw_middle_stage() {
    // A pipeline whose middle stage is software: slave on the input channel,
    // master on the output channel — both driver paths in one task.
    let app = workload::pipeline(3, 4, 64, SimDur::ZERO);
    let ca = run_component_assembly(&app).unwrap();
    let sw = run_partitioned(
        &app,
        &ca.roles,
        &ArchSpec::plb(),
        &Partition::software(["stage0"]),
    )
    .unwrap();
    assert!(ca
        .output
        .log
        .content_equivalent(&sw.mapped.output.log)
        .is_ok());
}

#[test]
fn finer_polling_reduces_hwsw_latency() {
    let run = |poll: SimDur| {
        let app = workload::rpc(1, 4, 64, SimDur::us(20));
        let ca = run_component_assembly(&app).unwrap();
        run_partitioned(
            &app,
            &ca.roles,
            &ArchSpec::plb(),
            &Partition::software(["client0"]).with_poll_interval(poll),
        )
        .unwrap()
        .mapped
        .output
        .sim_time
    };
    let coarse = run(SimDur::us(50));
    let fine = run(SimDur::us(1));
    assert!(
        fine < coarse,
        "fine polling {fine} must beat coarse {coarse}"
    );
}

#[test]
fn missing_role_is_a_partition_error_not_a_panic() {
    let app = workload::rpc(1, 2, 16, SimDur::ZERO);
    let err = run_partitioned(
        &app,
        &RoleMap::default(),
        &ArchSpec::plb(),
        &Partition::software(["server0"]),
    )
    .unwrap_err();
    assert!(matches!(err, PartitionError::Roles(_)));
    assert!(err.to_string().contains("role map misses channel"));
}

#[test]
fn more_sw_pes_than_priority_levels_run_to_completion() {
    // Every SW task past `base_priority` runs at priority 0, however many
    // there are: the runner's `u8` task counter must not overflow at the
    // 257th.
    let names: Vec<String> = (0..257).map(|i| format!("pe{i}")).collect();
    let mut app = AppSpec::new("many_sw");
    for name in &names {
        app.add_pe(name, |_h, _ports| async {});
    }
    let sw = run_partitioned(
        &app,
        &RoleMap::default(),
        &ArchSpec::plb(),
        &Partition::software(&names),
    )
    .unwrap();
    assert_eq!(sw.mapped.output.sim_time, SimDur::ZERO);
    assert_eq!(sw.rtos.ctx_switches, 257);
}
