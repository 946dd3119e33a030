//! Exact-timing identity of the untimed and refined levels.
//!
//! Each row starts with the untimed component-assembly level on the
//! delta-cycle kernel, whose schedule no interconnect changes: it pins the
//! order the PE behaviours run in. Every refined runner (CCATB,
//! pin-accurate, HW/SW-partitioned) elaborates
//! the same channel mapping; process ids and event order follow from the
//! elaboration order, so any reordering of that step shows up as a changed
//! simulated time or delta count. This suite pins the observable figures of
//! one seeded generated model on every interconnect family: PLB, OPB, AHB
//! (with SPLIT, and with 128-byte bursts that exceed its 16-beat grant
//! budget and so take the RETRY path), the crossbar and the mesh NoC.
//!
//! Totals can hide two masters swapping grant order inside one delta, so
//! each level also pins an FNV-1a digest of its whole transaction trace:
//! every span's level, op, resource, process, start, end, bytes and outcome,
//! in recording order.

use shiptlm::prelude::*;
use shiptlm_testkit::prelude::*;

/// `(sim_time_ps, delta_cycles, messages, bytes, bus.transactions,
/// txn_digest)`; the untimed level has no bus, so its transaction count
/// is 0.
type Figures = (u64, u64, u64, u64, u64, u64);

/// Ring capacity of the recorder: large enough that no span is dropped.
const TXN_RING: usize = 1 << 16;

/// FNV-1a over every span of `trace`, in recording order.
fn txn_digest(trace: &TxnTrace) -> u64 {
    assert_eq!(trace.dropped(), 0, "the recorder ring overflowed");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator, so adjacent strings cannot trade bytes.
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for e in trace.events() {
        feed(format!("{:?}", e.level).as_bytes());
        feed(e.op.as_bytes());
        feed(e.resource.as_bytes());
        feed(e.process.as_bytes());
        feed(&e.start.as_ps().to_le_bytes());
        feed(&e.end.as_ps().to_le_bytes());
        feed(&(e.bytes as u64).to_le_bytes());
        feed(format!("{:?}", e.outcome).as_bytes());
    }
    h
}

fn figures(out: &RunOutput, transactions: u64) -> Figures {
    let m = RunMetrics::from_log("level", &out.log, out.sim_time, None, out.delta_cycles, 0.0);
    (
        out.sim_time.as_ps(),
        out.delta_cycles,
        m.messages,
        m.bytes,
        transactions,
        txn_digest(out.txn.as_ref().expect("the recorder was on")),
    )
}

/// The seeded model every row runs.
fn model() -> ModelSpec {
    let cfg = GenConfig {
        motifs: (3, 3),
        ..GenConfig::default()
    };
    ModelSpec::random(13, &cfg)
}

/// The recorded figures of `(untimed, ccatb, pin-accurate, partitioned)`
/// on `arch`; the untimed level runs on the delta-cycle kernel.
fn run_levels(arch: &ArchSpec) -> [Figures; 4] {
    let spec = model();
    let app = spec.to_app();
    let opts = RunOptions::with_recorder(TXN_RING);
    let ca = run_component_assembly_with(&app, &opts).expect("roles detected");
    assert_eq!(ca.backend.used, Backend::De);
    let ccatb = run_mapped_with(&app, &ca.roles, arch, &opts).expect("ccatb run");
    let pin = run_pin_accurate_with(&app, &ca.roles, arch, &opts).expect("pin-accurate run");
    let sw = run_partitioned_with(
        &app,
        &ca.roles,
        arch,
        &Partition::software(sw_candidates(&spec)),
        &opts,
    )
    .expect("partitioned run");
    for log in [&ccatb.output.log, &pin.output.log, &sw.mapped.output.log] {
        ca.output
            .log
            .content_equivalent(log)
            .expect("refined level matches the reference");
    }
    let refined = |run: &MappedRun| figures(&run.output, run.bus.transactions);
    [
        figures(&ca.output, 0),
        refined(&ccatb),
        refined(&pin),
        refined(&sw.mapped),
    ]
}

/// The untimed level's figures: the same on every row, since no
/// interconnect exists at that level.
const UNTIMED: Figures = (1_183_000, 2, 13, 2980, 0, 0xa84f02366c513aa9);

#[test]
fn plb_levels_keep_their_timing() {
    assert_eq!(
        run_levels(&ArchSpec::plb()),
        [
            UNTIMED,
            (5_973_000, 284, 13, 2980, 95, 0x18942bd3ed22081b),
            (9_395_000, 3009, 13, 2980, 95, 0x70c8f870c2fc1d5c),
            (10_860_000, 344, 13, 2980, 96, 0x7c85bdd3a7eccf57),
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
            UNTIMED,
            (37_040_000, 384, 13, 2980, 95, 0x5146fc376513f5fa),
            (43_250_000, 6678, 13, 2980, 95, 0xacc3f9c56bce8d28),
            (40_880_000, 369, 13, 2980, 95, 0x79f0711949a031a3),
        ]
    );
}

#[test]
fn ahb_split_levels_keep_their_timing() {
    assert_eq!(
        run_levels(&ArchSpec::ahb().with_split(true)),
        [
            UNTIMED,
            (12_120_000, 552, 13, 2980, 95, 0xdc51e7d1c4188822),
            (15_345_000, 4794, 13, 2980, 95, 0xd137bfc3e49ac6ff),
            (16_830_000, 537, 13, 2980, 96, 0x996fc7806849549d),
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
            UNTIMED,
            (9_773_000, 284, 13, 2980, 70, 0xc06ae0be6f2957b1),
            (12_955_000, 4027, 13, 2980, 70, 0xf6538616ce4dc329),
            (13_880_000, 297, 13, 2980, 71, 0x1036b4d2dd575b7d),
        ]
    );
}

#[test]
fn crossbar_levels_keep_their_timing() {
    assert_eq!(
        run_levels(&ArchSpec::crossbar()),
        [
            UNTIMED,
            (4_900_000, 179, 13, 2980, 95, 0x6afd798c09eb5f76),
            (9_095_000, 2901, 13, 2980, 95, 0x2b3d785cc81bb229),
            (10_120_000, 274, 13, 2980, 95, 0xb65609f4868d81ab),
        ]
    );
}

#[test]
fn noc_4x4_levels_keep_their_timing() {
    assert_eq!(
        run_levels(&ArchSpec::noc(4, 4)),
        [
            UNTIMED,
            (6_375_000, 270, 13, 2980, 95, 0x229784930eea073f),
            (8_472_500, 5266, 13, 2980, 95, 0xe4c0d0b70b4e17ed),
            (27_285_000, 745, 13, 2980, 95, 0x0a2a8fc01e242163),
        ]
    );
}

/// Process activations on PLB, as counted while the PE behaviours were
/// still thread processes: the pin level, the CCATB level and the
/// partitioned run of the level-identity model, and a `sweep-grid`
/// candidate. The partitioned run's count is that of the run whose RTOS
/// tasks were thread processes.
const PLB_PIN_ACTIVATIONS: u64 = 5849;
const PLB_CCATB_ACTIVATIONS: u64 = 361;
const PLB_PARTITIONED_ACTIVATIONS: u64 = 351;
const PLB_GRID_CANDIDATE_ACTIVATIONS: u64 = 167;

/// Asserts that no activation of a run resumed an OS thread and that the
/// run made `total` activations. These are counts of scheduler dispatches,
/// not wall-clock figures, so they cannot flake on a loaded host: the PE
/// behaviours, the clock, the pin FSMs and the CAM transactions are all
/// polled inline, and so are the RTOS tasks the SW PEs run as; the schedule
/// is the one the thread processes ran.
fn assert_all_inline(a: Activations, total: u64) {
    assert_eq!(a.threads, 0, "{a:?}");
    assert_eq!(a.threads + a.inline, total, "{a:?}");
}

#[test]
fn pin_level_fsms_never_resume_an_os_thread() {
    let app = model().to_app();
    let ca = run_component_assembly(&app).expect("roles detected");
    let pin = run_pin_accurate(&app, &ca.roles, &ArchSpec::plb()).expect("pin-accurate run");
    assert_all_inline(pin.output.activations, PLB_PIN_ACTIVATIONS);
}

#[test]
fn ccatb_pes_never_resume_an_os_thread() {
    let app = model().to_app();
    let ca = run_component_assembly(&app).expect("roles detected");
    let ccatb = run_mapped(&app, &ca.roles, &ArchSpec::plb()).expect("ccatb run");
    assert_all_inline(ccatb.output.activations, PLB_CCATB_ACTIVATIONS);
}

#[test]
fn a_partitioned_run_never_resumes_an_os_thread() {
    let spec = model();
    let app = spec.to_app();
    let ca = run_component_assembly(&app).expect("roles detected");
    let partition = Partition::software(sw_candidates(&spec));
    let sw =
        run_partitioned(&app, &ca.roles, &ArchSpec::plb(), &partition).expect("partitioned run");
    assert_all_inline(sw.mapped.output.activations, PLB_PARTITIONED_ACTIVATIONS);
}

#[test]
fn a_sweep_grid_candidate_never_resumes_an_os_thread() {
    let app = workload::parallel_streams(2, 6, 64);
    let ca = run_component_assembly(&app).expect("roles detected");
    let candidate = run_mapped(&app, &ca.roles, &ArchSpec::plb()).expect("ccatb run");
    assert_all_inline(candidate.output.activations, PLB_GRID_CANDIDATE_ACTIVATIONS);
}
