//! End-to-end checks of the time-resolved metrics registry and host-time
//! profiler: instrumented layers must show up in the windowed series, the
//! exports must parse (via the `shiptlm-testkit` Prometheus/folded
//! parsers), windowed series must be bit-identical between serial and
//! parallel sweeps, and turning observability on must never perturb the
//! simulation itself.

use shiptlm::prelude::*;
use shiptlm_testkit::prelude::{parse_folded, PromKind, PromText};

// ---------------------------------------------------------------------------
// The quickstart producer/consumer topology.
// ---------------------------------------------------------------------------

fn quickstart_app(messages: u32) -> AppSpec {
    let mut app = AppSpec::new("quickstart");
    app.add_pe("producer", move |h, ports| async move {
        for i in 0..messages {
            let payload: Vec<u8> = (0..64).map(|b| (b as u32 ^ i) as u8).collect();
            ports[0].send_async(&h, &(i, payload)).await.unwrap();
        }
    });
    app.add_pe("consumer", move |h, ports| async move {
        for i in 0..messages {
            let (n, payload): (u32, Vec<u8>) = ports[0].recv_async(&h).await.unwrap();
            assert_eq!(n, i);
            assert_eq!(payload.len(), 64);
        }
    });
    app.connect("stream", "producer", "consumer");
    app
}

// ---------------------------------------------------------------------------
// Coverage: every instrumented layer reports series.
// ---------------------------------------------------------------------------

#[test]
fn metrics_cover_ship_bus_and_ocp_layers() {
    let run = DesignFlow::new(quickstart_app(16), ArchSpec::plb())
        .with_pin_level()
        .with_metrics(SimDur::us(1))
        .run()
        .unwrap();

    // Untimed reference: SHIP families only (no bus elaborated).
    let ca = run.component_assembly.output.metrics.as_ref().unwrap();
    assert_eq!(ca.counter_total("ship.messages", "stream"), 32); // 16 sends + 16 recvs
    assert!(ca.counter_total("ship.bytes", "stream") > 0);

    // CCATB: SHIP + bus + OCP all report against the same windows.
    let snap = run.ccatb.output.metrics.as_ref().unwrap();
    assert_eq!(snap.window, SimDur::us(1));
    let families: Vec<&str> = snap.series.iter().map(|s| s.family).collect();
    for family in [
        "ship.messages",
        "ship.bytes",
        "ship.blocked",
        "bus.txns",
        "bus.bytes",
        "bus.busy",
        "bus.queue_depth",
        "bus.grant_wait_ns",
        "ocp.txns",
        "ocp.bytes",
    ] {
        assert!(families.contains(&family), "{family} missing: {families:?}");
    }
    assert!(snap.counter_total("bus.txns", "plb") > 0);
    assert_eq!(
        snap.counter_total("bus.bytes", "plb"),
        snap.counter_total("ocp.bytes", "plb"),
        "every bus byte arrives through the OCP master port"
    );

    // Busy fractions are well-formed: in (0, 1] for a single bus.
    let fractions = snap.busy_fractions("bus.busy", "plb");
    assert!(!fractions.is_empty());
    for (start, f) in &fractions {
        assert!(
            *f > 0.0 && *f <= 1.0,
            "window at {start} has busy fraction {f}"
        );
    }

    // Pin-accurate runs instrument the same families through the accessors.
    let pin = run
        .pin_accurate
        .as_ref()
        .unwrap()
        .output
        .metrics
        .as_ref()
        .unwrap();
    assert!(pin.counter_total("bus.txns", "plb") > 0);
}

#[test]
fn partitioned_run_reports_doorbell_and_mailbox_series() {
    // A throttled producer, so the SW consumer actually blocks in the
    // driver (wait loops only count when they really wait).
    let mut app = AppSpec::new("throttled");
    app.add_pe("producer", move |h, ports| async move {
        for i in 0..8u32 {
            ports[0].send_async(&h, &i).await.unwrap();
            h.wait_for(SimDur::us(5)).await;
        }
    });
    app.add_pe("consumer", move |h, ports| async move {
        for i in 0..8u32 {
            assert_eq!(ports[0].recv_async::<u32>(&h).await.unwrap(), i);
        }
    });
    app.connect("stream", "producer", "consumer");

    let ca = run_component_assembly(&app).unwrap();
    let opts = RunOptions::default().with_metrics(SimDur::us(1));
    let sw = run_partitioned_with(
        &app,
        &ca.roles,
        &ArchSpec::plb(),
        &Partition::software(["consumer"]),
        &opts,
    )
    .unwrap();

    let snap = sw.mapped.output.metrics.as_ref().expect("metrics enabled");
    let families: Vec<&str> = snap.series.iter().map(|s| s.family).collect();
    for family in ["hwsw.doorbells", "mbox.occupancy", "drv.doorbells"] {
        assert!(families.contains(&family), "{family} missing: {families:?}");
    }
    // Driver status waits show up as polls or IRQ waits, depending on the
    // synthesized notification mode.
    assert!(
        families.contains(&"drv.polls") || families.contains(&"drv.irq_waits"),
        "no driver wait series: {families:?}"
    );
}

// ---------------------------------------------------------------------------
// Export validation through the testkit parsers.
// ---------------------------------------------------------------------------

#[test]
fn prometheus_export_parses_and_declares_types() {
    let run = DesignFlow::new(quickstart_app(16), ArchSpec::plb())
        .with_metrics(SimDur::us(1))
        .run()
        .unwrap();
    let snap = run.ccatb.output.metrics.as_ref().unwrap();
    let text = snap.to_prometheus();
    let parsed = PromText::parse(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));

    // The 0.0.4 text format declares counters under their full sample name.
    assert_eq!(
        parsed.types.get("shiptlm_ship_messages_total"),
        Some(&PromKind::Counter)
    );
    assert_eq!(
        parsed.types.get("shiptlm_bus_queue_depth"),
        Some(&PromKind::Gauge)
    );
    assert_eq!(
        parsed.types.get("shiptlm_bus_grant_wait_ns"),
        Some(&PromKind::Histogram)
    );
    let msgs = parsed
        .sample("shiptlm_ship_messages_total", "resource", "stream")
        .expect("stream counter sample");
    assert_eq!(msgs.value, 32.0);

    // Histogram +Inf bucket equals its _count.
    let count = parsed
        .sample("shiptlm_bus_grant_wait_ns_count", "resource", "plb")
        .unwrap()
        .value;
    let inf = parsed
        .samples_named("shiptlm_bus_grant_wait_ns_bucket")
        .find(|s| s.label("resource") == Some("plb") && s.label("le") == Some("+Inf"))
        .unwrap()
        .value;
    assert_eq!(count, inf);
}

#[test]
fn profiler_folded_export_parses_and_nests_processes_under_evaluate() {
    let sim = Simulation::new();
    sim.enable_profiler();
    let channel = ShipChannel::new(&sim.handle(), "link", ShipConfig::default());
    let (tx, rx) = channel.ports("producer", "consumer");
    sim.spawn_thread("producer", move |ctx| {
        for i in 0..64u32 {
            tx.send(ctx, &i).unwrap();
        }
    });
    sim.spawn_thread("consumer", move |ctx| {
        for _ in 0..64u32 {
            rx.recv::<u32>(ctx).unwrap();
        }
    });
    sim.run();

    let profile = sim.host_profile();
    let stacks = parse_folded(&profile.to_folded()).unwrap();
    assert!(!stacks.is_empty());
    for s in &stacks {
        assert_eq!(s.frames[0], "kernel", "all stacks root at kernel: {s:?}");
    }
    assert!(
        stacks
            .iter()
            .any(|s| s.frames.len() == 3 && s.frames[1] == "evaluate"),
        "process dispatch frames missing: {stacks:?}"
    );
}

/// CI hook: when `SHIPTLM_METRICS_FILE` / `SHIPTLM_FOLDED_FILE` point at
/// artifacts written by the observability example, validate them with the
/// same parsers. A no-op in normal test runs.
#[test]
fn validates_artifacts_from_env() {
    if let Ok(path) = std::env::var("SHIPTLM_METRICS_FILE") {
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = PromText::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(!parsed.samples.is_empty(), "{path} has no samples");
    }
    if let Ok(path) = std::env::var("SHIPTLM_FOLDED_FILE") {
        let text = std::fs::read_to_string(&path).unwrap();
        let stacks = parse_folded(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(!stacks.is_empty(), "{path} has no stacks");
    }
}

// ---------------------------------------------------------------------------
// Determinism: parallel sweeps and observability itself must be inert.
// ---------------------------------------------------------------------------

#[test]
fn parallel_sweep_series_are_identical_to_serial() {
    let archs = || {
        vec![
            ArchSpec::plb(),
            ArchSpec::opb(),
            ArchSpec::crossbar(),
            ArchSpec::plb().with_burst(64),
        ]
    };
    let run = |threads: usize| {
        Sweep::new(quickstart_app(12))
            .archs(archs())
            .with_metrics(SimDur::ns(500))
            .run_parallel(threads)
            .unwrap()
    };
    let serial = run(1);
    let two = run(2);
    let eight = run(8);
    for parallel in [&two, &eight] {
        assert_eq!(serial.rows().len(), parallel.rows().len());
        for (s, p) in serial.rows().iter().zip(parallel.rows()) {
            assert_eq!(s.label, p.label);
            assert_eq!(
                s.metrics, p.metrics,
                "windowed series diverged for '{}'",
                s.label
            );
        }
    }
    assert_eq!(serial.timeseries_csv(), eight.timeseries_csv());
}

#[test]
fn enabling_observability_does_not_perturb_the_simulation() {
    let base = DesignFlow::new(quickstart_app(16), ArchSpec::plb())
        .run()
        .unwrap();
    let observed = DesignFlow::new(quickstart_app(16), ArchSpec::plb())
        .with_recorder(65_536)
        .with_metrics(SimDur::us(1))
        .run()
        .unwrap();

    for (plain, instrumented) in [
        (
            &base.component_assembly.output,
            &observed.component_assembly.output,
        ),
        (&base.ccatb.output, &observed.ccatb.output),
    ] {
        plain
            .log
            .content_equivalent(&instrumented.log)
            .expect("same payload streams");
        assert_eq!(plain.sim_time, instrumented.sim_time);
        assert_eq!(plain.delta_cycles, instrumented.delta_cycles);
    }
}

#[test]
fn direct_backend_fires_trace_and_metrics_like_de() {
    // The direct backend must drive the same instrumentation as the DE
    // kernel: identical SHIP counter totals and transaction-span counts.
    let run = |backend| {
        run_component_assembly_with(
            &quickstart_app(16),
            &RunOptions::with_recorder(65_536)
                .with_metrics(SimDur::us(1))
                .with_backend(backend),
        )
        .unwrap()
    };
    let de = run(Backend::De);
    let fast = run(Backend::Direct);
    assert_eq!(fast.backend.used, Backend::Direct);

    let (dm, fm) = (
        de.output.metrics.as_ref().unwrap(),
        fast.output.metrics.as_ref().unwrap(),
    );
    for family in ["ship.messages", "ship.bytes"] {
        assert_eq!(
            dm.counter_total(family, "stream"),
            fm.counter_total(family, "stream"),
            "{family} totals diverge between backends"
        );
    }
    assert_eq!(fm.counter_total("ship.messages", "stream"), 32);

    let (dt, ft) = (
        de.output.txn.as_ref().unwrap(),
        fast.output.txn.as_ref().unwrap(),
    );
    let (ds, fs) = (
        dt.resource_stats(TxnLevel::Ship, "stream").unwrap(),
        ft.resource_stats(TxnLevel::Ship, "stream").unwrap(),
    );
    assert_eq!(ds.count, fs.count, "span counts diverge between backends");
    assert_eq!(ds.errors, fs.errors);
    assert_eq!(ft.dropped(), 0);
}

#[test]
fn direct_backend_observability_is_inert() {
    // Recorder + metrics on or off, the direct path must deliver the same
    // payload streams and detect the same roles.
    let run = |opts: &RunOptions| run_component_assembly_with(&quickstart_app(16), opts).unwrap();
    let plain = run(&RunOptions::default().with_backend(Backend::Direct));
    let observed = run(&RunOptions::with_recorder(65_536)
        .with_metrics(SimDur::us(1))
        .with_backend(Backend::Direct));
    assert_eq!(plain.backend.used, Backend::Direct);
    assert_eq!(observed.backend.used, Backend::Direct);
    plain
        .output
        .log
        .content_equivalent(&observed.output.log)
        .expect("same payload streams");
    assert_eq!(plain.roles, observed.roles);
    assert!(plain.output.txn.is_none());
    assert!(observed.output.txn.is_some());
}

// ---------------------------------------------------------------------------
// CSV escaping (report exporters share the RFC-4180 helper).
// ---------------------------------------------------------------------------

#[test]
fn report_csv_exports_escape_embedded_commas_and_quotes() {
    let mut app = AppSpec::new("escapes");
    app.add_pe("producer", move |h, ports| async move {
        for i in 0..4u32 {
            ports[0].send_async(&h, &i).await.unwrap();
        }
    });
    app.add_pe("consumer", move |h, ports| async move {
        for _ in 0..4u32 {
            ports[0].recv_async::<u32>(&h).await.unwrap();
        }
    });
    // A channel name with a comma and a quote must not shift CSV columns.
    app.connect("stream,\"v2\"", "producer", "consumer");

    let report = Sweep::new(app)
        .arch(ArchSpec::plb())
        .with_metrics(SimDur::us(1))
        .run()
        .unwrap();

    let latency = report.channel_latency_csv();
    assert!(
        latency.contains("\"stream,\"\"v2\"\"\""),
        "channel column not escaped:\n{latency}"
    );
    // Every data row still has exactly 6 columns once quotes are honoured.
    for line in latency.lines().skip(1) {
        assert_eq!(csv_columns(line), 6, "bad row: {line}");
    }

    let series = report.timeseries_csv();
    assert!(!series.is_empty());
    for line in series.lines().skip(1) {
        assert_eq!(csv_columns(line), 9, "bad row: {line}");
    }
}

/// Counts RFC-4180 columns (commas outside quoted fields + 1).
fn csv_columns(line: &str) -> usize {
    let mut cols = 1;
    let mut in_quotes = false;
    for c in line.chars() {
        match c {
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => cols += 1,
            _ => {}
        }
    }
    cols
}
