//! Performance regression guard for the E1 claim ("very high simulation
//! speeds become feasible"): the abstraction ladder must keep its cost
//! ordering — untimed ≪ CCATB ≪ pin-accurate.
//!
//! Kernel delta cycles are the primary, fully deterministic proxy for host
//! cost (each delta is a scheduler round trip); a very generous wall-clock
//! assertion backs it up without inviting flakes on loaded CI runners.

use std::time::{Duration, Instant};

use shiptlm::prelude::*;

/// The median of interleaved timings: a burst of host load lands on both
/// sides of a comparison instead of skewing one of them.
fn median(times: &mut [Duration]) -> Duration {
    times.sort_unstable();
    times[times.len() / 2]
}

fn the_app() -> AppSpec {
    workload::pipeline(6, 16, 256, SimDur::ZERO)
}

#[test]
fn abstraction_ladder_keeps_its_cost_ordering() {
    let app = the_app();
    let ca = run_component_assembly(&app).expect("untimed run");
    let ccatb = run_mapped(&app, &ca.roles, &ArchSpec::plb()).expect("ccatb run");
    let pin = run_pin_accurate(&app, &ca.roles, &ArchSpec::plb()).expect("pin run");

    let ca_deltas = ca.output.delta_cycles;
    let ccatb_deltas = ccatb.output.delta_cycles;
    let pin_deltas = pin.output.delta_cycles;

    // Deterministic ordering: each refinement step must cost markedly more
    // scheduler work than the last (measured ratios are ~35x and ~15x; the
    // guard only demands 2x so legitimate timing-model changes don't trip it).
    assert!(
        ccatb_deltas > ca_deltas.max(1) * 2,
        "CCATB ({ccatb_deltas} deltas) should cost well over the untimed model ({ca_deltas})"
    );
    assert!(
        pin_deltas > ccatb_deltas * 2,
        "pin-accurate ({pin_deltas} deltas) should cost well over CCATB ({ccatb_deltas})"
    );

    // All three levels still deliver the same content.
    ca.output
        .log
        .content_equivalent(&ccatb.output.log)
        .expect("ccatb content-equivalent to untimed");
    ca.output
        .log
        .content_equivalent(&pin.output.log)
        .expect("pin content-equivalent to untimed");

    // Generous wall-clock backstop: the untimed model runs hundreds of times
    // faster than the pin-accurate one, so even a heavily loaded runner
    // leaves a wide margin around this 2x bound.
    assert!(
        ca.output.wall_seconds <= pin.output.wall_seconds * 2.0,
        "untimed run ({:.4}s) should not be slower than 2x the pin-accurate run ({:.4}s)",
        ca.output.wall_seconds,
        pin.output.wall_seconds
    );
}

#[test]
fn ahb_model_keeps_untimed_far_cheaper_than_ccatb() {
    // Same E1 ordering for the AHB family: SPLIT/RETRY add arbitration
    // round trips on top of the plain shared bus, so the untimed model
    // must stay far cheaper than the AHB CCATB — and content-identical.
    let app = workload::uniform_traffic(6, 8, 128, 0xE1);
    let ca = run_component_assembly(&app).expect("untimed run");
    let ahb = run_mapped(&app, &ca.roles, &ArchSpec::ahb().with_split(true)).expect("ahb run");

    let ca_deltas = ca.output.delta_cycles;
    let ahb_deltas = ahb.output.delta_cycles;
    assert!(
        ahb_deltas > ca_deltas.max(1) * 2,
        "AHB CCATB ({ahb_deltas} deltas) should cost well over the untimed model ({ca_deltas})"
    );
    ca.output
        .log
        .content_equivalent(&ahb.output.log)
        .expect("AHB CCATB content-equivalent to untimed");
}

#[test]
fn sweep_throughput_stays_interactive() {
    // A whole 8-candidate sweep of a small workload must stay interactive
    // (E2: "fast ... exploration"). The bound is enormous relative to the
    // measured cost (tens of milliseconds in release builds) so it only
    // catches order-of-magnitude regressions, not scheduler noise.
    let app = workload::parallel_streams(3, 12, 256);
    let archs = vec![
        ArchSpec::plb(),
        ArchSpec::plb().with_burst(16),
        ArchSpec::plb().with_burst(128),
        ArchSpec::opb(),
        ArchSpec::opb().with_burst(16),
        ArchSpec::crossbar(),
        ArchSpec::crossbar().with_burst(16),
        ArchSpec::crossbar().with_burst(128),
    ];
    let t0 = std::time::Instant::now();
    let report = Sweep::new(app).archs(archs).run().expect("sweep");
    let elapsed = t0.elapsed();
    assert_eq!(report.rows().len(), 8);
    assert!(
        elapsed < std::time::Duration::from_secs(60),
        "8-candidate sweep took {elapsed:?} — exploration is no longer interactive"
    );
}

#[test]
fn direct_backend_beats_de_kernel_on_untimed_pipeline() {
    // ROADMAP-2 guard: the compiled direct-execution backend must beat the
    // delta-cycle kernel on the untimed pipeline in end-to-end msgs/host-sec.
    // Timing is external (`Instant` around the whole call) because that is
    // what a sweep pays: it includes elaboration, thread spawn and teardown,
    // not just the portion a backend chooses to count in `wall_seconds`.
    //
    // Like `large_sweep_parallel_beats_serial`, the bound is tiered by host
    // cores: the direct backend's free-running threads only show their full
    // advantage when they can actually run in parallel, while the DE kernel
    // serializes every rendezvous through the scheduler regardless. Below
    // four cores the tier flips to "not much slower": under contention
    // (other test binaries, a parallel sweep) direct ≈ DE, so what it pins
    // there is that the direct path never *regresses* exploration
    // throughput.
    //
    // The two backends run interleaved and are compared by their median
    // run.
    let app = || workload::pipeline(6, 64, 256, SimDur::ZERO);
    let run = |backend: Backend| {
        let opts = RunOptions::default().with_backend(backend);
        let t0 = std::time::Instant::now();
        let out = run_component_assembly_with(&app(), &opts).expect("run");
        (t0.elapsed(), out)
    };
    // Warm-up runs, also the correctness probe: the requested backend must
    // actually be used, and content must match the DE reference.
    let (_, de) = run(Backend::De);
    let (_, direct) = run(Backend::Direct);
    assert_eq!(de.backend.used, Backend::De, "probe fell back");
    assert_eq!(direct.backend.used, Backend::Direct, "probe fell back");
    assert!(!de.output.log.is_empty());
    direct
        .output
        .log
        .content_equivalent(&de.output.log)
        .expect("direct backend must stay content-equivalent to the DE kernel");

    let (mut de_times, mut direct_times) = (Vec::new(), Vec::new());
    for _ in 0..9 {
        de_times.push(run(Backend::De).0);
        direct_times.push(run(Backend::Direct).0);
    }
    let (de_time, direct_time) = (median(&mut de_times), median(&mut direct_times));

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let min_speedup = match cores {
        n if n >= 8 => 5.0,
        n if n >= 4 => 2.0,
        _ => 1.0 / 1.35,
    };
    let speedup = de_time.as_secs_f64() / direct_time.as_secs_f64();
    assert!(
        speedup >= min_speedup,
        "untimed pipeline: DE kernel {de_time:?}/run, direct backend {direct_time:?}/run \
         (median speedup {speedup:.2}x, required {min_speedup:.2}x on {cores} cores)"
    );
}

#[test]
fn large_sweep_parallel_beats_serial() {
    // The ROADMAP-1 scaling guard: on a 1k-candidate sweep the 8-thread
    // persistent-pool path must beat the serial path by a margin that grows
    // with the cores actually available. The margins are conservative
    // (measured speedups are well above them) so scheduler noise on loaded
    // CI runners does not flake the build; what they pin down is the *bug*
    // this guard was written against — a parallel sweep that is SLOWER than
    // serial because per-sweep thread churn dominates cheap candidates.
    //
    // Like the direct-vs-DE guard, three serial/parallel pairs run
    // interleaved and are compared by their median run.
    let archs = ArchGrid::exploration_default().generate_n(1024);
    let app = || workload::parallel_streams(2, 4, 64);

    // Warm up the global pool and the allocator so neither run pays
    // first-use costs the other doesn't.
    Sweep::new(app())
        .archs(archs.iter().take(32).cloned().collect::<Vec<_>>())
        .run_parallel(8)
        .expect("warm-up sweep");

    let run = |threads: usize| {
        let sweep = Sweep::new(app()).archs(archs.clone());
        let t0 = Instant::now();
        let report = if threads == 1 {
            sweep.run()
        } else {
            sweep.run_parallel(threads)
        };
        (t0.elapsed(), report.expect("sweep"))
    };
    let (mut serial_times, mut parallel_times) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let (serial_time, serial) = run(1);
        let (parallel_time, parallel) = run(8);
        serial_times.push(serial_time);
        parallel_times.push(parallel_time);
        assert_eq!(serial.rows().len(), 1024);
        assert_eq!(
            serial.to_string(),
            parallel.to_string(),
            "parallel report must stay byte-identical to serial"
        );
    }
    let (serial_time, parallel_time) = (median(&mut serial_times), median(&mut parallel_times));

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Required speedup (serial_time / parallel_time), scaled to the host:
    // ≥ 8 cores must show real scaling; a single-core host can only show
    // that pool overhead is small, so the bound flips to "not much slower".
    let min_speedup = match cores {
        n if n >= 8 => 2.5,
        n if n >= 4 => 1.8,
        2 | 3 => 1.2,
        _ => 1.0 / 1.35,
    };
    let speedup = serial_time.as_secs_f64() / parallel_time.as_secs_f64();
    assert!(
        speedup >= min_speedup,
        "1024-candidate sweep: serial {serial_time:?}/run, 8 threads {parallel_time:?}/run \
         (median speedup {speedup:.2}x, required {min_speedup:.2}x on {cores} cores)"
    );
}
