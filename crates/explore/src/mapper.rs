//! Automatic mapping of the communication part of a system onto a target
//! architecture (paper §1: "a methodology for automatic mapping of the
//! communication part of a system to a given architecture").
//!
//! The flow is two-phase, mirroring Figure 1:
//!
//! 1. [`run_component_assembly`] elaborates the app with abstract SHIP
//!    channels, runs it, and **detects master/slave roles** from observed
//!    call usage (paper §2).
//! 2. [`run_mapped`] re-elaborates the same app (same PE source) with every
//!    channel replaced by a mailbox adapter on the chosen interconnect plus
//!    SHIP↔OCP wrappers, oriented by the detected roles.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use shiptlm_cam::accessor::Accessor;
use shiptlm_cam::wrapper::{map_channel, PendingMapping, WrapperConfig, ADAPTER_SIZE};
use shiptlm_kernel::clock::Clock;
use shiptlm_kernel::direct::{DirectOutcome, DirectSim, Disqualified};
use shiptlm_kernel::liveness::DeadlockReport;
use shiptlm_kernel::metrics::MetricsSnapshot;
use shiptlm_kernel::sim::{SimHandle, Simulation};
use shiptlm_kernel::time::{SimDur, SimTime};
use shiptlm_kernel::txn::TxnTrace;
use shiptlm_kernel::{Activations, RunResult, StopReason};
use shiptlm_ocp::tl::{MasterId, OcpMasterPort, OcpTarget};
use shiptlm_ship::channel::{ShipChannel, ShipConfig, ShipPort};
use shiptlm_ship::direct::DirectChannel;
use shiptlm_ship::record::TransactionLog;
use shiptlm_ship::role::RoleObservation;

use crate::app::AppSpec;
use crate::arch::{build_interconnect, ArchSpec, Interconnect};

/// Base bus address of the first channel adapter.
pub const MAP_BASE: u64 = 0x1000_0000;

/// Which execution backend runs the untimed component-assembly level.
///
/// Mapped levels (CCATB, pin-accurate) always use the delta-cycle kernel —
/// they model time, which the direct backend deliberately does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The delta-cycle (discrete-event) kernel. The default.
    #[default]
    De,
    /// Direct execution (see [`shiptlm_kernel::direct`]): free-running
    /// threads with mutex/condvar rendezvous, no event queue. Models that
    /// use a disqualifying construct fail with [`MapError::Backend`].
    Direct,
    /// Try direct execution; when the model disqualifies, transparently
    /// re-elaborate and run on the DE kernel. The fallback reason lands in
    /// [`BackendReport::fallback`].
    ///
    /// Behaviours must be elaboration-idempotent (the standing contract of
    /// the multi-level design flow): a disqualified probe partially runs
    /// the model before the DE retry.
    Auto,
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Backend::De => "de",
            Backend::Direct => "direct",
            Backend::Auto => "auto",
        })
    }
}

/// How the component-assembly run was actually executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendReport {
    /// The backend requested via [`RunOptions::with_backend`].
    pub requested: Backend,
    /// The backend that produced the output ([`Backend::De`] or
    /// [`Backend::Direct`], never [`Backend::Auto`]).
    pub used: Backend,
    /// Why [`Backend::Auto`] fell back to the DE kernel, when it did —
    /// log-friendly, e.g. `process 'dct' used timed wait (wait_for/
    /// wait_any_for); model requires the DE kernel`.
    pub fallback: Option<String>,
}

/// Which end of each channel initiates, as detected from usage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoleMap {
    /// channel name → master PE name.
    pub master_of: BTreeMap<String, String>,
}

impl RoleMap {
    /// The master PE of `channel`.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::Missing`] when the map does not cover `channel`
    /// (e.g. a hand-built map, or an app grown after role detection).
    pub fn master_pe(&self, channel: &str) -> Result<&String, MapError> {
        self.master_of
            .get(channel)
            .ok_or_else(|| MapError::Missing {
                channel: channel.to_string(),
            })
    }
}

/// Failure to derive a consistent mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// An endpoint used both master and slave calls.
    Inconsistent {
        /// Channel in question.
        channel: String,
        /// Observations at (end A, end B).
        observed: (RoleObservation, RoleObservation),
    },
    /// A channel carried no traffic, so no roles could be derived.
    Unused {
        /// Channel in question.
        channel: String,
    },
    /// The supplied role map does not cover a channel of the app.
    Missing {
        /// Channel in question.
        channel: String,
    },
    /// The model cannot run on the requested execution backend
    /// ([`Backend::Direct`] forced on a model that needs the DE kernel).
    Backend {
        /// Human-readable disqualification reason.
        reason: String,
    },
    /// The architecture spec cannot be elaborated into an interconnect
    /// (e.g. a zero-sized NoC mesh drawn by a random spec generator).
    Arch {
        /// Human-readable reason.
        detail: String,
    },
    /// The sweep was cancelled before this candidate was simulated (see
    /// [`CancelToken`](crate::pool::CancelToken)); candidates already
    /// finished are discarded with the run.
    Cancelled,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Inconsistent { channel, observed } => write!(
                f,
                "channel '{channel}' has no unique master/slave split (observed {} / {})",
                observed.0, observed.1
            ),
            MapError::Unused { channel } => {
                write!(f, "channel '{channel}' was never used; cannot derive roles")
            }
            MapError::Missing { channel } => {
                write!(f, "role map misses channel '{channel}'")
            }
            MapError::Backend { reason } => {
                write!(f, "model disqualified from direct execution: {reason}")
            }
            MapError::Arch { detail } => {
                write!(f, "invalid architecture: {detail}")
            }
            MapError::Cancelled => write!(f, "sweep cancelled before completion"),
        }
    }
}

impl Error for MapError {}

/// Where a [`ShipPort`] handed to PE code sits in the elaborated model.
///
/// Passed to [`RunOptions::port_hook`] so a harness can interpose on exactly
/// the boundary it targets (e.g. one channel's master wrapper at the mapped
/// levels) while leaving every other port untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortSite<'a> {
    /// The channel the port belongs to.
    pub channel: &'a str,
    /// The PE the port is handed to (the port's label).
    pub pe: &'a str,
    /// `true` when the port is backed by a mapped bus wrapper (CCATB or
    /// pin-accurate level) rather than an abstract SHIP channel.
    pub mapped: bool,
}

/// A port-interposition hook: receives every PE-facing port right before it
/// is handed to PE code and may replace it (typically via
/// [`ShipPort::map_endpoint`] with a fault-injecting proxy).
pub type PortHook = Arc<dyn Fn(PortSite<'_>, ShipPort) -> ShipPort + Send + Sync>;

/// Optional knobs for a single elaboration + run.
#[derive(Clone, Default)]
pub struct RunOptions {
    /// Enable the kernel transaction recorder with this ring capacity; the
    /// resulting [`TxnTrace`] lands in [`RunOutput::txn`].
    pub record_txns: Option<usize>,
    /// Timeout applied to every blocking SHIP call at the
    /// component-assembly level (see
    /// [`ShipConfig::timeout`](shiptlm_ship::channel::ShipConfig)); a call
    /// that would block past the budget returns
    /// [`ShipError::Timeout`](shiptlm_ship::error::ShipError) instead of
    /// hanging the simulation. Mapped levels bound hangs with
    /// [`time_limit`](Self::time_limit) instead.
    pub ship_timeout: Option<SimDur>,
    /// Bound on *simulated* time: the run uses
    /// [`Simulation::run_until`] instead of running to starvation, so a
    /// model stuck in a polling livelock still terminates (with
    /// [`StopReason::TimeLimit`]).
    pub time_limit: Option<SimDur>,
    /// Wall-clock watchdog for the run (see [`Simulation::set_watchdog`]);
    /// the last line of defence when a fault makes simulated time itself
    /// stop advancing.
    pub watchdog: Option<std::time::Duration>,
    /// Port-interposition hook applied to every PE-facing port (fault
    /// injection seam).
    pub port_hook: Option<PortHook>,
    /// Enable the time-resolved metrics registry with this sim-time
    /// sampling window; the resulting [`MetricsSnapshot`] lands in
    /// [`RunOutput::metrics`].
    pub metrics: Option<SimDur>,
    /// Execution backend for the component-assembly level (mapped levels
    /// always use the DE kernel).
    pub backend: Backend,
}

impl fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunOptions")
            .field("record_txns", &self.record_txns)
            .field("ship_timeout", &self.ship_timeout)
            .field("time_limit", &self.time_limit)
            .field("watchdog", &self.watchdog)
            .field("port_hook", &self.port_hook.as_ref().map(|_| "<hook>"))
            .field("metrics", &self.metrics)
            .field("backend", &self.backend)
            .finish()
    }
}

impl RunOptions {
    /// Options with the transaction recorder enabled (`capacity` events).
    pub fn with_recorder(capacity: usize) -> Self {
        RunOptions {
            record_txns: Some(capacity),
            ..RunOptions::default()
        }
    }

    /// Sets the component-assembly SHIP call timeout.
    pub fn with_ship_timeout(mut self, t: SimDur) -> Self {
        self.ship_timeout = Some(t);
        self
    }

    /// Sets the simulated-time bound.
    pub fn with_time_limit(mut self, d: SimDur) -> Self {
        self.time_limit = Some(d);
        self
    }

    /// Sets the wall-clock watchdog budget.
    pub fn with_watchdog(mut self, budget: std::time::Duration) -> Self {
        self.watchdog = Some(budget);
        self
    }

    /// Sets the port-interposition hook.
    pub fn with_port_hook(mut self, hook: PortHook) -> Self {
        self.port_hook = Some(hook);
        self
    }

    /// Enables the time-resolved metrics registry with the given sim-time
    /// sampling window.
    pub fn with_metrics(mut self, window: SimDur) -> Self {
        self.metrics = Some(window);
        self
    }

    /// Selects the execution backend for the component-assembly level.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Arms a fresh simulation according to these options (recorder +
    /// metrics + watchdog). Called by every level runner, including
    /// `shiptlm::partition`.
    pub fn arm(&self, sim: &Simulation) {
        if let Some(cap) = self.record_txns {
            sim.record_transactions(cap);
        }
        if let Some(window) = self.metrics {
            sim.enable_metrics(window);
        }
        sim.set_watchdog(self.watchdog);
    }

    /// Runs `sim` honouring [`time_limit`](Self::time_limit).
    pub fn execute(&self, sim: &Simulation) -> RunResult {
        match self.time_limit {
            Some(d) => sim.run_until(SimTime::ZERO + d),
            None => sim.run(),
        }
    }

    /// Applies the port hook (when set) to a PE-facing port.
    pub fn hook_port(&self, channel: &str, pe: &str, mapped: bool, port: ShipPort) -> ShipPort {
        match &self.port_hook {
            Some(hook) => hook(
                PortSite {
                    channel,
                    pe,
                    mapped,
                },
                port,
            ),
            None => port,
        }
    }

    /// Snapshots the transaction trace when recording was requested.
    pub fn collect(&self, sim: &Simulation) -> Option<TxnTrace> {
        self.record_txns.map(|_| sim.txn_trace())
    }

    /// Snapshots the metric series when metrics were requested.
    pub fn collect_metrics(&self, sim: &Simulation) -> Option<MetricsSnapshot> {
        self.metrics.map(|_| sim.metrics_snapshot())
    }

    /// Post-run liveness diagnosis: `Some` when the run left processes
    /// blocked in kernel waits (deadlock, starved PEs, or processes cut off
    /// by a time limit / watchdog), `None` after a clean finish.
    pub fn diagnose_blocked(sim: &Simulation) -> Option<DeadlockReport> {
        let report = sim.diagnose();
        if report.blocked.is_empty() {
            None
        } else {
            Some(report)
        }
    }
}

/// Result of one elaboration + run.
#[derive(Debug)]
pub struct RunOutput {
    /// Transaction log over all ports.
    pub log: TransactionLog,
    /// Total simulated time.
    pub sim_time: SimDur,
    /// Kernel delta cycles executed (simulation effort proxy).
    pub delta_cycles: u64,
    /// Host wall-clock seconds spent simulating.
    pub wall_seconds: f64,
    /// Transaction-level trace, when recording was requested via
    /// [`RunOptions::record_txns`].
    pub txn: Option<TxnTrace>,
    /// Time-resolved metric series, when requested via
    /// [`RunOptions::metrics`].
    pub metrics: Option<MetricsSnapshot>,
    /// Why the simulation stopped. A healthy run ends in
    /// [`StopReason::Starved`] (nothing left to do) or
    /// [`StopReason::Stopped`]; [`StopReason::TimeLimit`] /
    /// [`StopReason::Watchdog`] indicate the run was cut off by
    /// [`RunOptions::time_limit`] / [`RunOptions::watchdog`].
    pub reason: StopReason,
    /// Liveness diagnosis, present whenever the run ended with processes
    /// still blocked in kernel waits. Conformance harnesses treat a
    /// diagnosis naming a PE process as a hang; infrastructure processes
    /// (clocks, RTOS idle loops) may legitimately appear here.
    pub diagnosis: Option<DeadlockReport>,
    /// Kernel process activations, split into thread activations (OS
    /// handoffs) and inline ones (method calls and async polls); zero on
    /// the direct backend.
    pub activations: Activations,
}

impl RunOutput {
    /// Packages a finished delta-cycle-kernel run: `result` comes from
    /// [`RunOptions::execute`] on `sim`, `started` marks the start of
    /// elaboration, and `opts` says which trace and metrics to collect.
    pub fn from_run(
        sim: &Simulation,
        opts: &RunOptions,
        started: Instant,
        log: TransactionLog,
        result: RunResult,
    ) -> Self {
        RunOutput {
            log,
            sim_time: result.time.saturating_since(SimTime::ZERO),
            delta_cycles: sim.delta_count(),
            wall_seconds: started.elapsed().as_secs_f64(),
            txn: opts.collect(sim),
            metrics: opts.collect_metrics(sim),
            reason: result.reason,
            diagnosis: RunOptions::diagnose_blocked(sim),
            activations: sim.activations(),
        }
    }
}

/// Output of the component-assembly run: functional results plus detected
/// roles.
#[derive(Debug)]
pub struct CaRun {
    /// The run output.
    pub output: RunOutput,
    /// Detected master end per channel.
    pub roles: RoleMap,
    /// Which execution backend produced this run.
    pub backend: BackendReport,
}

/// Runs the untimed component-assembly model and detects roles.
///
/// # Errors
///
/// Returns a [`MapError`] when any channel's usage does not yield a unique
/// master/slave split.
pub fn run_component_assembly(app: &AppSpec) -> Result<CaRun, MapError> {
    run_component_assembly_with(app, &RunOptions::default())
}

/// [`run_component_assembly`] with explicit [`RunOptions`] (e.g. the
/// transaction recorder or a non-default [`Backend`]).
///
/// # Errors
///
/// Returns a [`MapError`] when any channel's usage does not yield a unique
/// master/slave split, or [`MapError::Backend`] when [`Backend::Direct`]
/// was forced on a model that needs the DE kernel.
pub fn run_component_assembly_with(app: &AppSpec, opts: &RunOptions) -> Result<CaRun, MapError> {
    match opts.backend {
        Backend::De => run_component_assembly_de(
            app,
            opts,
            BackendReport {
                requested: Backend::De,
                used: Backend::De,
                fallback: None,
            },
        ),
        Backend::Direct => match run_component_assembly_direct(app, opts)? {
            Ok(ca) => Ok(ca),
            Err(disq) => Err(MapError::Backend {
                reason: disq.to_string(),
            }),
        },
        Backend::Auto => match run_component_assembly_direct(app, opts)? {
            Ok(mut ca) => {
                ca.backend.requested = Backend::Auto;
                Ok(ca)
            }
            Err(disq) => run_component_assembly_de(
                app,
                opts,
                BackendReport {
                    requested: Backend::Auto,
                    used: Backend::De,
                    fallback: Some(disq.to_string()),
                },
            ),
        },
    }
}

/// The delta-cycle-kernel component-assembly runner.
fn run_component_assembly_de(
    app: &AppSpec,
    opts: &RunOptions,
    backend: BackendReport,
) -> Result<CaRun, MapError> {
    let started = Instant::now();
    let sim = Simulation::new();
    opts.arm(&sim);
    let h = sim.handle();
    let log = TransactionLog::new();

    // Build all channels and distribute port ends per PE.
    let config = ShipConfig {
        timeout: opts.ship_timeout,
        ..ShipConfig::default()
    };
    let mut channels = Vec::new();
    let mut pe_ports: BTreeMap<String, Vec<ShipPort>> = BTreeMap::new();
    for c in app.channels() {
        let ch = ShipChannel::new(&h, &c.name, config.clone());
        let (pa, pb) = ch.ports(&c.a, &c.b);
        let ends = [(&c.a, pa), (&c.b, pb)];
        hand_out(&mut pe_ports, &log, opts, &c.name, false, ends);
        channels.push(ch);
    }
    spawn_pes(&sim, app, pe_ports);
    let result = opts.execute(&sim);
    let roles = derive_roles(app, channels.iter().map(ShipChannel::observed_roles))?;
    Ok(CaRun {
        output: RunOutput::from_run(&sim, opts, started, log, result),
        roles,
        backend,
    })
}

/// Derives the master end of every channel of `app` from the per-channel
/// `(end A, end B)` usage observed by an untimed run, in channel order.
///
/// # Errors
///
/// Returns [`MapError::Unused`] for a channel that carried no traffic and
/// [`MapError::Inconsistent`] for one without a unique master/slave split.
fn derive_roles(
    app: &AppSpec,
    observed: impl IntoIterator<Item = (RoleObservation, RoleObservation)>,
) -> Result<RoleMap, MapError> {
    let mut roles = RoleMap::default();
    for (spec, observed) in app.channels().iter().zip(observed) {
        let master = match observed {
            (RoleObservation::Master, RoleObservation::Slave) => &spec.a,
            (RoleObservation::Slave, RoleObservation::Master) => &spec.b,
            (RoleObservation::Unused, RoleObservation::Unused) => {
                return Err(MapError::Unused {
                    channel: spec.name.clone(),
                })
            }
            _ => {
                return Err(MapError::Inconsistent {
                    channel: spec.name.clone(),
                    observed,
                })
            }
        };
        roles.master_of.insert(spec.name.clone(), master.clone());
    }
    Ok(roles)
}

/// Spawns every PE of `app` in declaration order as a kernel thread that
/// runs its behaviour on its ports from `pe_ports`.
fn spawn_pes(sim: &Simulation, app: &AppSpec, mut pe_ports: BTreeMap<String, Vec<ShipPort>>) {
    for pe in app.pes() {
        let ports = pe_ports.remove(&pe.name).unwrap_or_default();
        let behavior = app.behavior(&pe.name);
        sim.spawn_thread(&pe.name, move |ctx| behavior(ctx, ports));
    }
}

/// Spawn order for the direct backend: producers before consumers so the
/// first scheduling pass already finds data flowing (Kahn's algorithm over
/// the channel graph's `a → b` edges, declaration order as tie-break; any
/// cyclic remainder is appended in declaration order).
fn wake_order(app: &AppSpec) -> Vec<String> {
    let pes = app.pes();
    let index_of: BTreeMap<&str, usize> = pes
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.as_str(), i))
        .collect();
    let mut indegree = vec![0usize; pes.len()];
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); pes.len()];
    for c in app.channels() {
        if let (Some(&a), Some(&b)) = (index_of.get(c.a.as_str()), index_of.get(c.b.as_str())) {
            if a != b {
                edges[a].push(b);
                indegree[b] += 1;
            }
        }
    }
    let mut order = Vec::with_capacity(pes.len());
    let mut placed = vec![false; pes.len()];
    while let Some(next) = (0..pes.len()).find(|&i| !placed[i] && indegree[i] == 0) {
        placed[next] = true;
        order.push(pes[next].name.clone());
        for &succ in &edges[next] {
            indegree[succ] -= 1;
        }
    }
    // Cycles leave every member with indegree > 0; append them as declared.
    for (i, pe) in pes.iter().enumerate() {
        if !placed[i] {
            order.push(pe.name.clone());
        }
    }
    order
}

/// The direct-execution component-assembly runner.
///
/// `Ok(Err(d))` means the model disqualified — either at elaboration (a
/// timed channel) or at runtime (a process touched a DE-only construct);
/// the caller decides between falling back ([`Backend::Auto`]) and erroring
/// ([`Backend::Direct`]). `Err` carries role-detection failures, which are
/// properties of the model rather than the backend and thus never trigger a
/// fallback.
fn run_component_assembly_direct(
    app: &AppSpec,
    opts: &RunOptions,
) -> Result<Result<CaRun, Disqualified>, MapError> {
    let started = Instant::now();
    let sim = DirectSim::new();
    if let Some(cap) = opts.record_txns {
        sim.record_transactions(cap);
    }
    if let Some(window) = opts.metrics {
        sim.enable_metrics(window);
    }
    sim.set_watchdog(opts.watchdog);
    let log = TransactionLog::new();

    let config = ShipConfig {
        timeout: opts.ship_timeout,
        ..ShipConfig::default()
    };
    let mut channels = Vec::new();
    let mut pe_ports: BTreeMap<String, Vec<ShipPort>> = BTreeMap::new();
    for c in app.channels() {
        let ch = match DirectChannel::new(sim.core(), &c.name, config.clone()) {
            Ok(ch) => ch,
            Err(d) => return Ok(Err(d)),
        };
        let (pa, pb) = ch.ports(&c.a, &c.b);
        let ends = [(&c.a, pa), (&c.b, pb)];
        hand_out(&mut pe_ports, &log, opts, &c.name, false, ends);
        channels.push(ch);
    }
    for pe in wake_order(app) {
        let ports = pe_ports.remove(&pe).unwrap_or_default();
        let behavior = app.behavior(&pe);
        sim.spawn_thread(&pe, move |ctx| behavior(ctx, ports));
    }
    // `time_limit` bounds *simulated* time, which the direct backend never
    // advances — an untimed model under `run_until` behaves identically.
    let (reason, diagnosis) = match sim.run() {
        DirectOutcome::Completed => (StopReason::Starved, None),
        DirectOutcome::Deadlock(report) => (StopReason::Starved, Some(report)),
        DirectOutcome::Watchdog(report) => (StopReason::Watchdog, Some(report)),
        DirectOutcome::Disqualified(d) => return Ok(Err(d)),
    };
    let roles = derive_roles(app, channels.iter().map(DirectChannel::observed_roles))?;
    Ok(Ok(CaRun {
        output: RunOutput {
            log,
            sim_time: SimDur::ZERO,
            delta_cycles: 0,
            wall_seconds: started.elapsed().as_secs_f64(),
            txn: opts.record_txns.map(|_| sim.txn_trace()),
            metrics: opts.metrics.map(|_| sim.metrics_snapshot()),
            reason,
            diagnosis,
            activations: Activations::default(),
        },
        roles,
        backend: BackendReport {
            requested: Backend::Direct,
            used: Backend::Direct,
            fallback: None,
        },
    }))
}

/// Output of a mapped (CCATB) run.
#[derive(Debug)]
pub struct MappedRun {
    /// The run output.
    pub output: RunOutput,
    /// Interconnect statistics.
    pub bus: shiptlm_cam::bus::BusStats,
}

/// One channel of a [`map_communication`] result, oriented by the role map.
#[derive(Debug)]
pub struct ChannelMapping {
    /// The channel name.
    pub name: String,
    /// The channel's mailbox adapter (already mapped into the interconnect)
    /// and slave port; [`PendingMapping::bind`] completes the master end.
    pub pending: PendingMapping,
    /// The PE that initiates on this channel.
    pub master_pe: String,
    /// The PE that serves this channel.
    pub slave_pe: String,
    /// The master PE's bus identity: its index in PE declaration order, so
    /// fixed-priority arbitration follows PE declaration order.
    pub master_id: MasterId,
}

/// Maps the communication part of `app` onto `arch`: the one elaboration
/// step every refined level (CCATB, pin-accurate, HW/SW-partitioned)
/// shares.
///
/// Channel `k` becomes a mailbox adapter at `MAP_BASE + k·ADAPTER_SIZE`
/// with SHIP↔OCP wrappers configured from `arch` and oriented by `roles`;
/// the adapters are then mapped into the interconnect. Callers bind the
/// master ends (see [`PendingMapping::bind`]) and spawn the PEs. Process ids
/// and event order follow from elaboration order, so the order is fixed:
/// one `map_channel` per channel in declaration order, then the
/// interconnect.
///
/// # Errors
///
/// Returns [`MapError::Missing`] if `roles` does not cover every channel of
/// `app`, and [`MapError::Arch`] if `arch` cannot be elaborated.
pub fn map_communication(
    h: &SimHandle,
    app: &AppSpec,
    roles: &RoleMap,
    arch: &ArchSpec,
) -> Result<(Interconnect, Vec<ChannelMapping>), MapError> {
    let cfg = WrapperConfig {
        burst_bytes: arch.burst_bytes,
        poll_interval: arch.poll_interval,
        rx_capacity: arch.rx_capacity,
    };
    let master_id_of: BTreeMap<&str, MasterId> = app
        .pes()
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.as_str(), MasterId(i)))
        .collect();
    let mut channels = Vec::with_capacity(app.channels().len());
    let mut slaves: Vec<(Range<u64>, Arc<dyn OcpTarget>)> = Vec::new();
    for (k, c) in app.channels().iter().enumerate() {
        let base = MAP_BASE + k as u64 * ADAPTER_SIZE;
        let master_pe = roles.master_pe(&c.name)?;
        let slave_pe = if master_pe == &c.a { &c.b } else { &c.a };
        let pending = map_channel(h, &c.name, base, cfg.clone(), (master_pe, slave_pe));
        slaves.push((base..base + ADAPTER_SIZE, pending.adapter.clone() as _));
        channels.push(ChannelMapping {
            name: c.name.clone(),
            pending,
            master_pe: master_pe.clone(),
            slave_pe: slave_pe.clone(),
            master_id: master_id_of[master_pe.as_str()],
        });
    }
    Ok((build_interconnect(h, arch, slaves)?, channels))
}

/// Binds both ends of every mapped channel for PE code, channel by channel
/// (the master end through `bus_port`, the slave end off the adapter), and
/// returns each PE's ports.
fn bind_ports(
    channels: &[ChannelMapping],
    log: &TransactionLog,
    opts: &RunOptions,
    bus_port: impl Fn(&ChannelMapping) -> OcpMasterPort,
) -> BTreeMap<String, Vec<ShipPort>> {
    let mut pe_ports: BTreeMap<String, Vec<ShipPort>> = BTreeMap::new();
    for ch in channels {
        let mport = ch.pending.bind(&bus_port(ch));
        let sport = ch.pending.slave_port.clone();
        let ends = [(&ch.master_pe, mport), (&ch.slave_pe, sport)];
        hand_out(&mut pe_ports, log, opts, &ch.name, true, ends);
    }
    pe_ports
}

/// Hands both ends of one channel to PE code: each port is recorded into
/// `log`, passed through the port hook and appended to its PE's ports, so
/// every PE sees its ports in channel order (the order
/// `AppSpec::channels_of` lists them).
fn hand_out(
    pe_ports: &mut BTreeMap<String, Vec<ShipPort>>,
    log: &TransactionLog,
    opts: &RunOptions,
    channel: &str,
    mapped: bool,
    ends: [(&String, ShipPort); 2],
) {
    for (pe, port) in ends {
        port.attach_recorder(log.clone());
        let port = opts.hook_port(channel, pe, mapped, port);
        pe_ports.entry(pe.clone()).or_default().push(port);
    }
}

/// Re-elaborates `app` with channels mapped onto `arch` per `roles`, runs
/// it, and returns log + interconnect statistics.
///
/// PE source is reused verbatim; master PEs bind straight to their bus
/// ports (see [`map_communication`]).
///
/// # Errors
///
/// Returns [`MapError::Missing`] if `roles` does not cover every channel of
/// `app`.
pub fn run_mapped(app: &AppSpec, roles: &RoleMap, arch: &ArchSpec) -> Result<MappedRun, MapError> {
    run_mapped_with(app, roles, arch, &RunOptions::default())
}

/// [`run_mapped`] with explicit [`RunOptions`] (e.g. the transaction
/// recorder).
///
/// # Errors
///
/// Returns [`MapError::Missing`] if `roles` does not cover every channel of
/// `app`.
pub fn run_mapped_with(
    app: &AppSpec,
    roles: &RoleMap,
    arch: &ArchSpec,
    opts: &RunOptions,
) -> Result<MappedRun, MapError> {
    let started = Instant::now();
    let sim = Simulation::new();
    opts.arm(&sim);
    let log = TransactionLog::new();
    let (interconnect, channels) = map_communication(&sim.handle(), app, roles, arch)?;
    let pe_ports = bind_ports(&channels, &log, opts, |ch| {
        interconnect.master_port(ch.master_id)
    });
    spawn_pes(&sim, app, pe_ports);
    let result = opts.execute(&sim);
    Ok(MappedRun {
        output: RunOutput::from_run(&sim, opts, started, log, result),
        bus: interconnect.stats(),
    })
}

/// Re-elaborates `app` at the **pin-accurate prototype level**: channels are
/// mapped as in [`run_mapped`], and every master PE additionally reaches the
/// interconnect through a pin-level OCP [`Accessor`] — request and response
/// cross real signal pins cycle by cycle (paper §3's synthesizable
/// prototype path).
///
/// # Errors
///
/// Returns [`MapError::Missing`] if `roles` does not cover every channel of
/// `app`, and [`MapError::Arch`] if the interconnect clock is shorter than
/// [`Clock::MIN_PERIOD`].
pub fn run_pin_accurate(
    app: &AppSpec,
    roles: &RoleMap,
    arch: &ArchSpec,
) -> Result<MappedRun, MapError> {
    run_pin_accurate_with(app, roles, arch, &RunOptions::default())
}

/// [`run_pin_accurate`] with explicit [`RunOptions`] (e.g. the transaction
/// recorder).
///
/// # Errors
///
/// As [`run_pin_accurate`].
pub fn run_pin_accurate_with(
    app: &AppSpec,
    roles: &RoleMap,
    arch: &ArchSpec,
    opts: &RunOptions,
) -> Result<MappedRun, MapError> {
    let started = Instant::now();
    let sim = Simulation::new();
    opts.arm(&sim);
    let h = sim.handle();
    let log = TransactionLog::new();
    let (interconnect, channels) = map_communication(&h, app, roles, arch)?;
    let period = interconnect.clock_period();
    if period < Clock::MIN_PERIOD {
        return Err(MapError::Arch {
            detail: format!(
                "interconnect clock {period} is below the {} toggle resolution of the pin level",
                Clock::MIN_PERIOD
            ),
        });
    }
    let clk = sim.clock("clk", period);

    // One pin-level accessor per master PE, attached in order of the
    // master's first channel.
    let mut accessor_port_of: BTreeMap<&str, OcpMasterPort> = BTreeMap::new();
    for ch in &channels {
        accessor_port_of.entry(&ch.master_pe).or_insert_with(|| {
            let name = format!("{}.acc", ch.master_pe);
            let target = interconnect.as_target();
            Accessor::attach(&h, &name, &clk, target, ch.master_id, false)
                .port()
                .clone()
        });
    }
    let mut pe_ports = bind_ports(&channels, &log, opts, |ch| {
        accessor_port_of[ch.master_pe.as_str()].clone()
    });

    // The free-running clock would keep the simulation alive forever, so
    // stop exactly when the last PE behaviour returns (all transactions are
    // blocking, hence complete by then).
    let remaining = Arc::new(AtomicUsize::new(app.pes().len()));
    for pe in app.pes() {
        let ports = pe_ports.remove(&pe.name).unwrap_or_default();
        let behavior = app.behavior(&pe.name);
        let remaining = Arc::clone(&remaining);
        sim.spawn_thread(&pe.name, move |ctx| {
            behavior(ctx, ports);
            if remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                ctx.stop();
            }
        });
    }
    let result = opts.execute(&sim);
    Ok(MappedRun {
        output: RunOutput::from_run(&sim, opts, started, log, result),
        bus: interconnect.stats(),
    })
}

/// Convenience: detect roles then map in one call.
///
/// # Errors
///
/// Returns a [`MapError`] from the role-detection phase.
pub fn explore_one(app: &AppSpec, arch: &ArchSpec) -> Result<(CaRun, MappedRun), MapError> {
    let ca = run_component_assembly(app)?;
    let mapped = run_mapped(app, &ca.roles, arch)?;
    Ok((ca, mapped))
}
