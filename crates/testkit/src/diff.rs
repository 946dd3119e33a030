//! The cross-level differential conformance check.
//!
//! One [`ModelSpec`] is elaborated and run at up to seven targets — the
//! untimed component-assembly reference, the same untimed model on the
//! direct-execution backend, CCATB runs on an AHB SPLIT/RETRY bus and a
//! 4×4 mesh NoC, the CCATB model on the configured architecture, the
//! pin-accurate prototype, and a HW/SW-partitioned run — and the checker
//! asserts:
//!
//! 1. **Content equivalence**: every refined level's per-(channel, port)
//!    stream of `(op, len, digest)` triples equals the reference's
//!    ([`TransactionLog::content_equivalent`]).
//! 2. **Latency monotonicity**: timing refinement only *adds* time over
//!    the untimed reference — `untimed ≤ CCATB` and `untimed ≤
//!    pin-accurate` total simulated time. The two timed levels are not
//!    mutually ordered: CCATB estimates bus occupancy at burst granularity
//!    and may legitimately over- or under-shoot the pin-accurate schedule.
//! 3. **No silent hangs**: a run that ends on its simulated-time bound or
//!    with a PE still blocked in a kernel wait is a conformance failure
//!    with the kernel's deadlock diagnosis attached, never a quiet pass.
//!
//! PE behaviours may panic (in-app content asserts, `unwrap` on
//! [`ShipError::Timeout`](shiptlm_ship::error::ShipError)); the kernel
//! re-raises those on the driving thread, and the checker converts them
//! into classified [`Failure`]s instead of aborting the whole harness.

use std::panic::{self, AssertUnwindSafe};

use shiptlm::partition::{run_partitioned_with, Partition};
use shiptlm_explore::arch::{ArchSpec, BusKind};
use shiptlm_explore::mapper::{
    run_component_assembly_with, run_mapped_with, run_pin_accurate_with, Backend, RoleMap,
    RunOptions, RunOutput,
};
use shiptlm_explore::model::{ModelSpec, Motif};
use shiptlm_kernel::time::SimDur;
use shiptlm_kernel::StopReason;
use shiptlm_ship::record::TransactionLog;

use crate::faults::FaultPlan;

/// One execution target of the differential checker, in refinement order.
/// [`Failure::level`] and [`PassReport::times`] use these targets' labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// The untimed component-assembly reference on the DE kernel.
    ComponentAssembly,
    /// The untimed model (compute delays stripped) on the direct-execution
    /// backend — same abstraction level as the reference, different
    /// scheduler, so its content streams must match exactly.
    DirectCA,
    /// The model mapped onto an AHB bus with SPLIT-capable slaves
    /// (CCATB granularity), exercising bus-release/re-grant arbitration.
    AhbCA,
    /// The model mapped onto a 4×4 mesh NoC (CCATB granularity),
    /// exercising XY routing and per-link arbitration.
    NocCA,
    /// The CCATB mapped level.
    Ccatb,
    /// The pin-accurate prototype level.
    PinAccurate,
    /// The HW/SW-partitioned target.
    Partitioned,
}

impl Target {
    /// The level label used in failures and pass reports.
    pub fn label(self) -> &'static str {
        match self {
            Target::ComponentAssembly => "component-assembly",
            Target::DirectCA => "direct-ca",
            Target::AhbCA => "ahb-ca",
            Target::NocCA => "noc-ca",
            Target::Ccatb => "ccatb",
            Target::PinAccurate => "pin-accurate",
            Target::Partitioned => "partitioned",
        }
    }
}

/// How to run one conformance check.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Target architecture for the mapped levels.
    pub arch: ArchSpec,
    /// Also run the pin-accurate prototype level.
    pub pin_level: bool,
    /// Also run the untimed model on the direct-execution backend
    /// ([`Target::DirectCA`]) and require content equivalence with the DE
    /// reference. Uses [`Backend::Auto`]: a model a fault hook re-timed
    /// falls back to the DE kernel instead of failing spuriously;
    /// [`PassReport::direct_used`] records whether direct actually ran.
    pub direct_ca: bool,
    /// Also run the model mapped onto an AHB bus with SPLIT-capable slaves
    /// ([`Target::AhbCA`]). The leg reuses this config's wrapper knobs
    /// (burst, mailbox depth, polling, arbitration) so a corpus case tunes
    /// its replay cost, but pins the topology to
    /// [`BusKind::Ahb`] + split.
    pub ahb_ca: bool,
    /// Also run the model mapped onto a 4×4 mesh NoC ([`Target::NocCA`]);
    /// wrapper knobs are reused the same way as for the AHB leg.
    pub noc_ca: bool,
    /// Also run a HW/SW-partitioned target (one master PE per motif moved
    /// to software).
    pub partition: bool,
    /// Fault to inject, if any.
    pub fault: Option<FaultPlan>,
    /// SHIP call timeout at the component-assembly level; converts
    /// would-be infinite blocking into `ShipError::Timeout`.
    pub ship_timeout: SimDur,
    /// Simulated-time bound for every run; mapped-level polling loops keep
    /// simulated time advancing forever under a dropped message, so hangs
    /// terminate here with [`StopReason::TimeLimit`].
    pub time_limit: SimDur,
    /// Record transaction traces ([`RunOptions::record_txns`]) during the
    /// runs.
    pub record: bool,
}

impl CheckConfig {
    /// A conformance check against `arch` with defaults sized for
    /// generated models: CCATB always, a 100 ms simulated-time bound and a
    /// 10 ms SHIP call timeout (orders of magnitude above any healthy
    /// generated model's runtime).
    pub fn new(arch: ArchSpec) -> Self {
        CheckConfig {
            arch,
            pin_level: true,
            direct_ca: true,
            ahb_ca: true,
            noc_ca: true,
            partition: false,
            fault: None,
            ship_timeout: SimDur::ms(10),
            time_limit: SimDur::ms(100),
            record: false,
        }
    }

    fn options(&self) -> RunOptions {
        let mut opts = RunOptions::default()
            .with_ship_timeout(self.ship_timeout)
            .with_time_limit(self.time_limit);
        if self.record {
            opts.record_txns = Some(1 << 16);
        }
        if let Some(fault) = &self.fault {
            opts = opts.with_port_hook(fault.hook());
        }
        opts
    }

    /// The architecture the [`Target::AhbCA`] leg maps onto: this config's
    /// wrapper knobs on an AHB bus with SPLIT-capable slaves and the preset
    /// clock.
    pub fn ahb_leg_arch(&self) -> ArchSpec {
        let mut arch = self.arch.clone();
        arch.bus = BusKind::Ahb;
        arch.split_slaves = true;
        arch.clock = None;
        arch
    }

    /// The architecture the [`Target::NocCA`] leg maps onto: this config's
    /// wrapper knobs on a 4×4 mesh NoC with the preset link clock.
    pub fn noc_leg_arch(&self) -> ArchSpec {
        let mut arch = self.arch.clone();
        arch.bus = BusKind::Noc { cols: 4, rows: 4 };
        arch.split_slaves = false;
        arch.clock = None;
        arch
    }
}

/// Conformance failure classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Role detection / channel mapping failed.
    Map,
    /// A PE behaviour panicked (bad content observed in-app, protocol
    /// violation, …).
    Behavior,
    /// A SHIP call timed out (the bounded surface of a dropped message at
    /// the component-assembly level).
    Timeout,
    /// A refined level's content streams diverged from the reference.
    Divergence,
    /// Simulated time shrank under refinement.
    LatencyOrder,
    /// The run hit its simulated-time bound or left a PE blocked in a
    /// kernel wait.
    Hang,
}

/// One conformance failure, tagged with the level it was observed at.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Classification.
    pub kind: FailureKind,
    /// Level label: `component-assembly`, `ccatb`, `pin-accurate` or
    /// `partitioned`.
    pub level: &'static str,
    /// Human-readable details (equivalence error, panic message, deadlock
    /// diagnosis, …).
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:?} @ {}] {}", self.kind, self.level, self.detail)
    }
}

/// Evidence from a passing conformance check.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// SHIP operations recorded at the reference level (sends + recvs +
    /// requests + replies over all channels).
    pub ship_ops: usize,
    /// Number of targets run (reference + refined levels).
    pub levels: usize,
    /// Simulated times per level, in refinement order.
    pub times: Vec<(&'static str, SimDur)>,
    /// `true` when the [`Target::DirectCA`] leg ran on the direct backend
    /// (rather than being disabled or falling back to the DE kernel).
    pub direct_used: bool,
}

fn classify_panic(level: &'static str, payload: Box<dyn std::any::Any + Send>) -> Failure {
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "unknown panic payload".to_string());
    let kind = if msg.contains("Timeout") || msg.contains("timed out") {
        FailureKind::Timeout
    } else {
        FailureKind::Behavior
    };
    Failure {
        kind,
        level,
        detail: msg,
    }
}

/// Checks one level's [`RunOutput`] for hangs: a time-limit / watchdog stop
/// is always a hang, and so is any liveness diagnosis naming a PE of the
/// model (infrastructure processes such as clocks or the RTOS idle loop are
/// ignored).
fn check_liveness(
    level: &'static str,
    out: &RunOutput,
    pe_names: &[String],
) -> Result<(), Failure> {
    if matches!(out.reason, StopReason::TimeLimit | StopReason::Watchdog) {
        let diag = out
            .diagnosis
            .as_ref()
            .map(|d| format!("\n{d}"))
            .unwrap_or_default();
        return Err(Failure {
            kind: FailureKind::Hang,
            level,
            detail: format!("run cut off by {}{diag}", out.reason),
        });
    }
    if let Some(diag) = &out.diagnosis {
        let stuck: Vec<&str> = diag
            .blocked
            .iter()
            .filter(|b| pe_names.iter().any(|pe| pe == &b.name))
            .map(|b| b.name.as_str())
            .collect();
        if !stuck.is_empty() {
            return Err(Failure {
                kind: FailureKind::Hang,
                level,
                detail: format!("PEs {stuck:?} left blocked:\n{diag}"),
            });
        }
    }
    Ok(())
}

fn check_equivalence(
    level: &'static str,
    reference: &TransactionLog,
    refined: &TransactionLog,
) -> Result<(), Failure> {
    refined.content_equivalent(reference).map_err(|e| Failure {
        kind: FailureKind::Divergence,
        level,
        detail: e.to_string(),
    })
}

/// Runs one target and checks it: a panic is classified, a mapping error
/// is a [`FailureKind::Map`] failure, and the output must be live and —
/// for refined levels — content-equivalent to `reference`. A passing
/// level's simulated time is appended to `times`.
fn run_level<E: std::fmt::Display>(
    level: &'static str,
    reference: Option<&TransactionLog>,
    pe_names: &[String],
    times: &mut Vec<(&'static str, SimDur)>,
    run: impl FnOnce() -> Result<RunOutput, E>,
) -> Result<RunOutput, Failure> {
    let out = panic::catch_unwind(AssertUnwindSafe(run))
        .map_err(|p| classify_panic(level, p))?
        .map_err(|e| Failure {
            kind: FailureKind::Map,
            level,
            detail: e.to_string(),
        })?;
    check_liveness(level, &out, pe_names)?;
    if let Some(reference) = reference {
        check_equivalence(level, reference, &out.log)?;
    }
    times.push((level, out.sim_time));
    Ok(out)
}

/// `spec` with every compute delay stripped. Compute delays are
/// timing-only — per-(channel, port) content streams at the untimed level
/// do not depend on them — so the stripped model is the natural input for
/// the direct-execution differential target, which rejects timed waits.
pub fn untimed(spec: &ModelSpec) -> ModelSpec {
    let mut spec = spec.clone();
    for motif in &mut spec.motifs {
        match motif {
            Motif::Pipeline { compute_ns, .. } | Motif::Rpc { compute_ns, .. } => {
                *compute_ns = 0;
            }
            Motif::Stream { .. } | Motif::FanOut { .. } | Motif::FanIn { .. } => {}
        }
    }
    spec
}

/// The SW-partition candidates for HW/SW conformance runs: one master-side
/// PE per motif of `spec` (masters map onto the CPU's polling driver).
pub fn sw_candidates(spec: &ModelSpec) -> Vec<String> {
    spec.motifs
        .iter()
        .enumerate()
        .map(|(i, m)| match m {
            Motif::Pipeline { .. } => format!("m{i}.p0"),
            Motif::Stream { .. } => format!("m{i}.prod"),
            Motif::Rpc { .. } => format!("m{i}.client"),
            Motif::FanOut { .. } => format!("m{i}.src"),
            Motif::FanIn { .. } => format!("m{i}.src0"),
        })
        .collect()
}

/// Runs `spec` through every configured target and checks conformance.
///
/// # Errors
///
/// Returns the first [`Failure`] observed, in refinement order (reference
/// level first).
pub fn check_model(spec: &ModelSpec, cfg: &CheckConfig) -> Result<PassReport, Failure> {
    let pe_names = spec.pe_names();
    let mut times = Vec::new();

    // Reference: untimed component assembly, also yields channel roles.
    // Every level gets fresh options: the fault hook carries a per-run
    // send counter, which must restart from zero at every level.
    let app = spec.to_app();
    let opts = cfg.options();
    let mut roles = RoleMap::default();
    let ca = run_level(
        Target::ComponentAssembly.label(),
        None,
        &pe_names,
        &mut times,
        || {
            run_component_assembly_with(&app, &opts).map(|ca| {
                roles = ca.roles;
                ca.output
            })
        },
    )?;
    let reference = Some(&ca.log);

    // Direct-execution differential: the same untimed level, scheduled by
    // free-running threads instead of the delta-cycle event queue, must
    // deliver the exact same per-(channel, port) streams.
    let mut direct_used = false;
    if cfg.direct_ca {
        let app = untimed(spec).to_app();
        let opts = cfg.options().with_backend(Backend::Auto);
        run_level(
            Target::DirectCA.label(),
            reference,
            &pe_names,
            &mut times,
            || {
                run_component_assembly_with(&app, &opts).map(|dca| {
                    direct_used = dca.backend.used == Backend::Direct;
                    dca.output
                })
            },
        )?;
    }

    // New-interconnect differential legs: the same model at CCATB
    // granularity, mapped once onto an AHB bus with SPLIT-capable slaves
    // and once onto a 4×4 mesh NoC. These run *before* the configured-arch
    // CCATB leg so a fault at the mapped site classifies at the first
    // refined level that sees it.
    let mut timed = Vec::new();
    for (enabled, target, arch) in [
        (cfg.ahb_ca, Target::AhbCA, cfg.ahb_leg_arch()),
        (cfg.noc_ca, Target::NocCA, cfg.noc_leg_arch()),
    ] {
        if enabled {
            let (app, opts) = (spec.to_app(), cfg.options());
            let out = run_level(target.label(), reference, &pe_names, &mut times, || {
                run_mapped_with(&app, &roles, &arch, &opts).map(|r| r.output)
            })?;
            timed.push((target.label(), out.sim_time));
        }
    }

    // CCATB.
    let (app, opts) = (spec.to_app(), cfg.options());
    let ccatb = run_level(
        Target::Ccatb.label(),
        reference,
        &pe_names,
        &mut times,
        || run_mapped_with(&app, &roles, &cfg.arch, &opts).map(|r| r.output),
    )?;
    // The CCATB level's latency check reports before the families'.
    timed.insert(0, (Target::Ccatb.label(), ccatb.sim_time));

    // Pin-accurate prototype.
    if cfg.pin_level {
        let (app, opts) = (spec.to_app(), cfg.options());
        let pin = run_level(
            Target::PinAccurate.label(),
            reference,
            &pe_names,
            &mut times,
            || run_pin_accurate_with(&app, &roles, &cfg.arch, &opts).map(|r| r.output),
        )?;
        timed.push((Target::PinAccurate.label(), pin.sim_time));
    }

    // HW/SW-partitioned target: same roles, one master PE per motif in SW.
    if cfg.partition {
        let (app, opts) = (spec.to_app(), cfg.options());
        let partition = Partition::software(sw_candidates(spec));
        run_level(
            Target::Partitioned.label(),
            reference,
            &pe_names,
            &mut times,
            || {
                run_partitioned_with(&app, &roles, &cfg.arch, &partition, &opts)
                    .map(|r| r.mapped.output)
            },
        )?;
    }

    // Latency monotonicity (only meaningful without injected timing
    // faults, which may legitimately reorder level timings): every timed
    // level must be at least as slow as the untimed reference. The timed
    // levels are not ordered against *each other* — CCATB's burst-granular
    // bus estimate may land on either side of the cycle-true pin schedule,
    // and an AHB split bus and a mesh have incomparable schedules.
    if cfg.fault.is_none() {
        if let Some((level, t)) = timed.into_iter().find(|(_, t)| *t < ca.sim_time) {
            return Err(Failure {
                kind: FailureKind::LatencyOrder,
                level,
                detail: format!(
                    "{level} finished at {t} before the untimed reference's {}",
                    ca.sim_time
                ),
            });
        }
    }

    Ok(PassReport {
        ship_ops: ca.log.len(),
        levels: times.len(),
        times,
        direct_used,
    })
}
