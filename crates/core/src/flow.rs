//! The systematic design flow of the paper's Figure 1.
//!
//! One application specification is refined through three models, each bound
//! to its predetermined communication protocol:
//!
//! 1. **Component-assembly model** — abstract SHIP channels, untimed;
//!    master/slave roles are detected here.
//! 2. **CCATB model** — channels mapped onto a communication architecture
//!    model (CAM) via SHIP↔OCP wrappers; cycle-count-accurate boundary
//!    timing.
//! 3. **Pin-accurate model** — master PEs attach through pin-level OCP
//!    accessors; every transaction crosses real signal pins.
//!
//! PE source code is reused verbatim at every level, and transaction logs
//! are checked for content equivalence across levels.

use std::error::Error;
use std::fmt;

use shiptlm_explore::app::AppSpec;
use shiptlm_explore::arch::ArchSpec;
use shiptlm_explore::mapper::{
    run_component_assembly_with, run_mapped_with, run_pin_accurate_with, CaRun, MapError,
    MappedRun, RunOptions,
};
use shiptlm_explore::metrics::{Report, RunMetrics};
use shiptlm_explore::pool::WorkerPool;
use shiptlm_ship::record::EquivalenceError;

/// The three abstraction levels of the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Untimed SHIP channels.
    ComponentAssembly,
    /// Wrappers + CAM, cycle-count accurate at transaction boundaries.
    Ccatb,
    /// Pin-level OCP accessors in front of the CAM.
    PinAccurate,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Level::ComponentAssembly => "component-assembly",
            Level::Ccatb => "ccatb",
            Level::PinAccurate => "pin-accurate",
        })
    }
}

/// Failure of a flow run.
#[derive(Debug)]
pub enum FlowError {
    /// Role detection / mapping failed.
    Map(MapError),
    /// A refined level diverged from the component-assembly reference.
    Equivalence {
        /// The diverging level.
        level: Level,
        /// The divergence details.
        source: EquivalenceError,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Map(e) => write!(f, "mapping failed: {e}"),
            FlowError::Equivalence { level, source } => {
                write!(f, "{level} model diverged from the reference: {source}")
            }
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Map(e) => Some(e),
            FlowError::Equivalence { source, .. } => Some(source),
        }
    }
}

impl From<MapError> for FlowError {
    fn from(e: MapError) -> Self {
        FlowError::Map(e)
    }
}

/// Results of running the full flow.
#[derive(Debug)]
pub struct FlowRun {
    /// The component-assembly run (reference) with detected roles.
    pub component_assembly: CaRun,
    /// The CCATB run.
    pub ccatb: MappedRun,
    /// The pin-accurate run, when requested.
    pub pin_accurate: Option<MappedRun>,
}

impl FlowRun {
    /// Per-level metrics as a comparison table.
    pub fn report(&self) -> Report {
        let mut report = Report::new();
        let ca = &self.component_assembly.output;
        let mut row = RunMetrics::from_log(
            "component-assembly",
            &ca.log,
            ca.sim_time,
            None,
            ca.delta_cycles,
            ca.wall_seconds,
        );
        row.metrics = ca.metrics.clone();
        report.push(row);
        let mut row = RunMetrics::from_log(
            "ccatb",
            &self.ccatb.output.log,
            self.ccatb.output.sim_time,
            Some(self.ccatb.bus.clone()),
            self.ccatb.output.delta_cycles,
            self.ccatb.output.wall_seconds,
        );
        row.metrics = self.ccatb.output.metrics.clone();
        report.push(row);
        if let Some(pin) = &self.pin_accurate {
            let mut row = RunMetrics::from_log(
                "pin-accurate",
                &pin.output.log,
                pin.output.sim_time,
                Some(pin.bus.clone()),
                pin.output.delta_cycles,
                pin.output.wall_seconds,
            );
            row.metrics = pin.output.metrics.clone();
            report.push(row);
        }
        report
    }
}

/// Drives one application through the whole design flow.
///
/// ```
/// use shiptlm::flow::DesignFlow;
/// use shiptlm_explore::arch::ArchSpec;
/// use shiptlm_explore::workload;
/// use shiptlm_kernel::time::SimDur;
///
/// # fn main() -> Result<(), shiptlm::flow::FlowError> {
/// let app = workload::pipeline(3, 4, 64, SimDur::ZERO);
/// let run = DesignFlow::new(app, ArchSpec::plb()).run()?;
/// assert!(run.ccatb.bus.transactions > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DesignFlow {
    app: AppSpec,
    arch: ArchSpec,
    with_pin_level: bool,
    opts: RunOptions,
}

impl DesignFlow {
    /// Creates a flow for `app` targeting `arch`.
    ///
    /// The untimed role-detection run defaults to
    /// [`Backend::Auto`](shiptlm_explore::mapper::Backend): direct execution
    /// when the model qualifies, transparent DE fallback otherwise. Override
    /// with [`with_options`](Self::with_options).
    pub fn new(app: AppSpec, arch: ArchSpec) -> Self {
        DesignFlow {
            app,
            arch,
            with_pin_level: false,
            opts: RunOptions::default().with_backend(shiptlm_explore::mapper::Backend::Auto),
        }
    }

    /// Also elaborates and verifies the pin-accurate prototype level
    /// (slower to simulate).
    pub fn with_pin_level(mut self) -> Self {
        self.with_pin_level = true;
        self
    }

    /// Enables the transaction recorder on every level (`capacity` events
    /// per run); each run's trace is available as `output.txn` on the
    /// [`FlowRun`] members.
    pub fn with_recorder(mut self, capacity: usize) -> Self {
        self.opts.record_txns = Some(capacity);
        self
    }

    /// Enables the time-resolved metrics registry on every level with the
    /// given sim-time sampling window; each run's snapshot is available as
    /// `output.metrics` on the [`FlowRun`] members and rides along in
    /// [`FlowRun::report`] rows.
    pub fn with_metrics(mut self, window: shiptlm_kernel::time::SimDur) -> Self {
        self.opts.metrics = Some(window);
        self
    }

    /// Replaces the per-level [`RunOptions`] wholesale (timeouts, time
    /// limits, port hooks). Conformance harnesses use this to bound and
    /// instrument every level uniformly.
    pub fn with_options(mut self, opts: RunOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Runs every level and checks cross-level content equivalence.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Map`] when role detection fails and
    /// [`FlowError::Equivalence`] when a refined level's transaction log
    /// diverges from the component-assembly reference.
    pub fn run(&self) -> Result<FlowRun, FlowError> {
        let ca = run_component_assembly_with(&self.app, &self.opts)?;
        let ccatb = run_mapped_with(&self.app, &ca.roles, &self.arch, &self.opts)?;
        Self::check(&ca, Level::Ccatb, &ccatb)?;
        let pin_accurate = if self.with_pin_level {
            let pin = run_pin_accurate_with(&self.app, &ca.roles, &self.arch, &self.opts)?;
            Self::check(&ca, Level::PinAccurate, &pin)?;
            Some(pin)
        } else {
            None
        };
        Ok(FlowRun {
            component_assembly: ca,
            ccatb,
            pin_accurate,
        })
    }

    /// Like [`DesignFlow::run`], but simulates the CCATB and pin-accurate
    /// levels concurrently on `pool` (the same persistent worker pool sweeps
    /// use — e.g. [`WorkerPool::global`]). The refined levels only depend on
    /// the component-assembly reference, never on each other, so
    /// overlapping them is free parallelism when the pin level is enabled;
    /// without it this is equivalent to [`DesignFlow::run`].
    ///
    /// # Errors
    ///
    /// As [`DesignFlow::run`]; on concurrent failures the CCATB level's
    /// error wins, matching the serial order.
    pub fn run_on(&self, pool: &WorkerPool) -> Result<FlowRun, FlowError> {
        if !self.with_pin_level {
            return self.run();
        }
        let ca = run_component_assembly_with(&self.app, &self.opts)?;
        let mut runs = pool.run_fallible(2, 2, 1, |i| {
            if i == 0 {
                run_mapped_with(&self.app, &ca.roles, &self.arch, &self.opts)
            } else {
                run_pin_accurate_with(&self.app, &ca.roles, &self.arch, &self.opts)
            }
        })?;
        let pin = runs.pop().expect("pin-accurate level ran");
        let ccatb = runs.pop().expect("ccatb level ran");
        Self::check(&ca, Level::Ccatb, &ccatb)?;
        Self::check(&ca, Level::PinAccurate, &pin)?;
        Ok(FlowRun {
            component_assembly: ca,
            ccatb,
            pin_accurate: Some(pin),
        })
    }

    /// Checks one refined level's log against the component-assembly
    /// reference.
    fn check(ca: &CaRun, level: Level, run: &MappedRun) -> Result<(), FlowError> {
        ca.output
            .log
            .content_equivalent(&run.output.log)
            .map_err(|source| FlowError::Equivalence { level, source })
    }
}
