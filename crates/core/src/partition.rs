//! HW/SW partitioning and automatic eSW generation (paper §4).
//!
//! "The ultimate goal of the proposed design methodology is to use SystemC
//! as a unifying system specification language and, after HW/SW
//! partitioning, to generate eSW automatically from the SystemC code.
//! Moreover, HW/SW communication should be established without requiring any
//! changes to the source code."
//!
//! [`run_partitioned`] re-elaborates an application with a subset of PEs
//! moved into software: those PEs run as RTOS tasks on a simulated CPU, and
//! their SHIP ports are backed by the device driver + communication library
//! (the SW adapter), while the mailbox adapters on the bus form the HW
//! adapter. PE behaviour source is reused verbatim — the two constraints of
//! §4 are checked instead:
//!
//! 1. partitioning happens on the component-assembly model (roles come from
//!    [`run_component_assembly`](shiptlm_explore::mapper::run_component_assembly));
//! 2. eSW PEs communicate exclusively through SHIP channels (true by
//!    construction of [`AppSpec`]).

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::time::Instant;

use shiptlm_explore::app::AppSpec;
use shiptlm_explore::arch::ArchSpec;
use shiptlm_explore::mapper::{map_communication, MappedRun, RoleMap, RunOptions, RunOutput};
use shiptlm_hwsw::cpu::{Cpu, SwChannelBinding};
use shiptlm_hwsw::rtos::RtosStats;
use shiptlm_kernel::sim::Simulation;
use shiptlm_kernel::time::SimDur;
use shiptlm_ocp::tl::MasterId;
use shiptlm_ship::channel::ShipPort;
use shiptlm_ship::record::TransactionLog;

/// Which PEs become embedded software.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Partition {
    /// Names of PEs implemented as eSW tasks on the CPU.
    pub sw: BTreeSet<String>,
    /// Status polling interval of the SW drivers.
    pub poll_interval: SimDur,
    /// Priority assigned to the first SW task; later ones get lower values.
    pub base_priority: u8,
}

impl Partition {
    /// Moves the named PEs to software with a 1 µs polling driver.
    pub fn software<I, S>(pes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Partition {
            sw: pes.into_iter().map(Into::into).collect(),
            poll_interval: SimDur::us(1),
            base_priority: 32,
        }
    }

    /// Overrides the driver polling interval.
    pub fn with_poll_interval(mut self, d: SimDur) -> Self {
        self.poll_interval = d;
        self
    }
}

/// Partitioning validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// A PE named in the partition does not exist in the app.
    UnknownPe(String),
    /// The role map does not cover every channel of the app.
    Roles(shiptlm_explore::mapper::MapError),
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::UnknownPe(p) => write!(f, "partition names unknown PE '{p}'"),
            PartitionError::Roles(e) => write!(f, "partitioning failed: {e}"),
        }
    }
}

impl Error for PartitionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PartitionError::UnknownPe(_) => None,
            PartitionError::Roles(e) => Some(e),
        }
    }
}

impl From<shiptlm_explore::mapper::MapError> for PartitionError {
    fn from(e: shiptlm_explore::mapper::MapError) -> Self {
        PartitionError::Roles(e)
    }
}

/// Result of a partitioned run: the mapped-run artifacts plus RTOS counters.
#[derive(Debug)]
pub struct PartitionedRun {
    /// Log, timing and interconnect statistics.
    pub mapped: MappedRun,
    /// CPU scheduler counters.
    pub rtos: RtosStats,
}

/// Re-elaborates `app` with `partition.sw` PEs generated as eSW tasks, the
/// rest staying hardware; channels are mapped onto `arch` as usual.
///
/// # Errors
///
/// Returns a [`PartitionError`] when the partition names an unknown PE or
/// `roles` does not cover every channel of `app`.
pub fn run_partitioned(
    app: &AppSpec,
    roles: &RoleMap,
    arch: &ArchSpec,
    partition: &Partition,
) -> Result<PartitionedRun, PartitionError> {
    run_partitioned_with(app, roles, arch, partition, &RunOptions::default())
}

/// [`run_partitioned`] with explicit [`RunOptions`] (e.g. the transaction
/// recorder, which captures the SW driver doorbell/IRQ spans).
///
/// # Errors
///
/// Returns a [`PartitionError`] when the partition names an unknown PE or
/// `roles` does not cover every channel of `app`.
pub fn run_partitioned_with(
    app: &AppSpec,
    roles: &RoleMap,
    arch: &ArchSpec,
    partition: &Partition,
    opts: &RunOptions,
) -> Result<PartitionedRun, PartitionError> {
    for pe in &partition.sw {
        if app.pe(pe).is_none() {
            return Err(PartitionError::UnknownPe(pe.clone()));
        }
    }
    let started = Instant::now();
    let sim = Simulation::new();
    opts.arm(&sim);
    let h = sim.handle();
    let log = TransactionLog::new();

    // The mailbox adapters are the HW adapters, and also the HW half of
    // every HW/SW interface.
    let (interconnect, channels) = map_communication(&h, app, roles, arch)?;

    // The CPU is one more bus master, after all HW PEs.
    let cpu = Cpu::new(
        &h,
        "cpu0",
        interconnect.master_port(MasterId(app.pes().len())),
    );

    // HW PEs get wrapper/adapter ports; SW PEs get driver bindings.
    let mut hw_ports: BTreeMap<String, Vec<ShipPort>> = BTreeMap::new();
    let mut sw_bindings: BTreeMap<String, Vec<SwChannelBinding>> = BTreeMap::new();
    for ch in &channels {
        let base = ch.pending.base();
        // Master end.
        if partition.sw.contains(&ch.master_pe) {
            sw_bindings.entry(ch.master_pe.clone()).or_default().push(
                SwChannelBinding::master_polling(
                    &ch.name,
                    &ch.master_pe,
                    base,
                    partition.poll_interval,
                )
                .with_burst(arch.burst_bytes),
            );
        } else {
            let mport = ch.pending.bind(&interconnect.master_port(ch.master_id));
            mport.attach_recorder(log.clone());
            let mport = opts.hook_port(&ch.name, &ch.master_pe, true, mport);
            hw_ports
                .entry(ch.master_pe.clone())
                .or_default()
                .push(mport);
        }
        // Slave end.
        if partition.sw.contains(&ch.slave_pe) {
            sw_bindings.entry(ch.slave_pe.clone()).or_default().push(
                SwChannelBinding::slave_polling(
                    &ch.name,
                    &ch.slave_pe,
                    base,
                    partition.poll_interval,
                )
                .with_burst(arch.burst_bytes),
            );
        } else {
            let sport = ch.pending.slave_port.clone();
            sport.attach_recorder(log.clone());
            let sport = opts.hook_port(&ch.name, &ch.slave_pe, true, sport);
            hw_ports.entry(ch.slave_pe.clone()).or_default().push(sport);
        }
    }

    // Spawn HW PEs as async processes, SW PEs as RTOS tasks.
    let mut sw_index = 0u8;
    for pe in app.pes() {
        let behavior = app.behavior(&pe.name);
        if partition.sw.contains(&pe.name) {
            let bindings = sw_bindings.remove(&pe.name).unwrap_or_default();
            let prio = partition.base_priority.saturating_sub(sw_index);
            sw_index += 1;
            let log = log.clone();
            cpu.spawn_sw_pe(&pe.name, prio, bindings, move |h, ports| {
                for p in &ports {
                    p.attach_recorder(log.clone());
                }
                behavior(h, ports)
            });
        } else {
            let ports = hw_ports.remove(&pe.name).unwrap_or_default();
            sim.spawn_async(&pe.name, behavior(h.clone(), ports));
        }
    }
    let result = opts.execute(&sim);

    Ok(PartitionedRun {
        mapped: MappedRun {
            output: RunOutput::from_run(&sim, opts, started, log, result),
            bus: interconnect.stats(),
        },
        rtos: cpu.rtos.stats(),
    })
}
