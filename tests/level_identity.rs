//! Exact-timing identity of the refined levels.
//!
//! Every refined runner (CCATB, pin-accurate, HW/SW-partitioned) elaborates
//! the same channel mapping; process ids and event order follow from the
//! elaboration order, so any reordering of that step shows up as a changed
//! simulated time or delta count. This suite pins the observable figures of
//! one seeded generated model on every interconnect family: PLB, OPB, AHB
//! (with SPLIT, and with 128-byte bursts that exceed its 16-beat grant
//! budget and so take the RETRY path), the crossbar and the mesh NoC.

use shiptlm::prelude::*;
use shiptlm_testkit::prelude::*;

/// `(sim_time_ps, delta_cycles, messages, bytes, bus.transactions)`.
type Figures = (u64, u64, u64, u64, u64);

fn figures(out: &MappedRun) -> Figures {
    let m = RunMetrics::from_log(
        "level",
        &out.output.log,
        out.output.sim_time,
        None,
        out.output.delta_cycles,
        0.0,
    );
    (
        out.output.sim_time.as_ps(),
        out.output.delta_cycles,
        m.messages,
        m.bytes,
        out.bus.transactions,
    )
}

/// The recorded figures of `(ccatb, pin-accurate, partitioned)` on `arch`.
fn run_levels(arch: &ArchSpec) -> [Figures; 3] {
    let cfg = GenConfig {
        motifs: (3, 3),
        ..GenConfig::default()
    };
    let spec = ModelSpec::random(13, &cfg);
    let app = spec.to_app();
    let ca = run_component_assembly(&app).expect("roles detected");
    let ccatb = run_mapped(&app, &ca.roles, arch).expect("ccatb run");
    let pin = run_pin_accurate(&app, &ca.roles, arch).expect("pin-accurate run");
    let sw = run_partitioned(
        &app,
        &ca.roles,
        arch,
        &Partition::software(spec.sw_candidates()),
    )
    .expect("partitioned run");
    for log in [&ccatb.output.log, &pin.output.log, &sw.mapped.output.log] {
        ca.output
            .log
            .content_equivalent(log)
            .expect("refined level matches the reference");
    }
    [figures(&ccatb), figures(&pin), figures(&sw.mapped)]
}

#[test]
fn plb_levels_keep_their_timing() {
    assert_eq!(
        run_levels(&ArchSpec::plb()),
        [
            (5_973_000, 284, 13, 2980, 95),
            (9_395_000, 3009, 13, 2980, 95),
            (10_860_000, 344, 13, 2980, 96),
        ]
    );
}

#[test]
fn plb_ignores_the_split_axis() {
    // SPLIT is an AHB-only axis (`BusKind::supports_split`).
    assert_eq!(
        run_levels(&ArchSpec::plb().with_split(true)),
        run_levels(&ArchSpec::plb())
    );
}

#[test]
fn opb_levels_keep_their_timing() {
    assert_eq!(
        run_levels(&ArchSpec::opb()),
        [
            (37_040_000, 384, 13, 2980, 95),
            (43_250_000, 6678, 13, 2980, 95),
            (40_880_000, 369, 13, 2980, 95),
        ]
    );
}

#[test]
fn ahb_split_levels_keep_their_timing() {
    assert_eq!(
        run_levels(&ArchSpec::ahb().with_split(true)),
        [
            (12_120_000, 552, 13, 2980, 95),
            (15_345_000, 4794, 13, 2980, 95),
            (16_830_000, 537, 13, 2980, 96),
        ]
    );
}

#[test]
fn ahb_retry_levels_keep_their_timing() {
    // A 128-byte burst is 32 beats on AHB's 4-byte data path, twice its
    // 16-beat grant budget: every full burst is RETRY-terminated once.
    assert_eq!(
        run_levels(&ArchSpec::ahb().with_burst(128)),
        [
            (9_773_000, 284, 13, 2980, 70),
            (12_955_000, 4027, 13, 2980, 70),
            (13_880_000, 297, 13, 2980, 71),
        ]
    );
}

#[test]
fn crossbar_levels_keep_their_timing() {
    assert_eq!(
        run_levels(&ArchSpec::crossbar()),
        [
            (4_900_000, 179, 13, 2980, 95),
            (9_095_000, 2901, 13, 2980, 95),
            (10_120_000, 274, 13, 2980, 95),
        ]
    );
}

#[test]
fn noc_4x4_levels_keep_their_timing() {
    assert_eq!(
        run_levels(&ArchSpec::noc(4, 4)),
        [
            (6_375_000, 270, 13, 2980, 95),
            (8_472_500, 5266, 13, 2980, 95),
            (27_285_000, 745, 13, 2980, 95),
        ]
    );
}
