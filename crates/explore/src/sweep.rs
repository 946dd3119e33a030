//! Parameter sweeps over candidate architectures — the paper's "fast
//! communication architecture exploration".
//!
//! Candidate simulations are fully independent [`Simulation`] instances, so
//! a sweep fans them out over the persistent [`WorkerPool`]
//! ([`Sweep::run_parallel`] uses [`WorkerPool::global`]; [`Sweep::run_on`]
//! takes any pool). Role detection still runs exactly once and is shared
//! immutably; results are collected in candidate order, so the [`Report`]
//! is identical to a serial run regardless of thread count.
//!
//! For large design grids (see [`ArchGrid`](crate::arch::ArchGrid)) a sweep
//! can additionally run in Pareto-guided pruning mode
//! ([`Sweep::with_pruning`]): finished candidates stream their cost vectors
//! into an incremental non-dominated archive, and queued candidates whose
//! *lower bound* is already dominated are skipped without being simulated.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use shiptlm_kernel::causal::{
    spans_from_txn, track_for_candidate, CausalSpan, SpanSink, TraceCtx, TRACK_HOST,
};
use shiptlm_kernel::sim::Simulation;
use shiptlm_ship::record::{Label, ShipOp, TransactionLog};

use crate::app::AppSpec;
use crate::arch::ArchSpec;
use crate::mapper::{
    run_component_assembly, run_component_assembly_with, run_mapped, run_mapped_with, MapError,
    MappedRun, RoleMap, RunOptions,
};
use crate::metrics::{Report, RunMetrics};
use crate::pareto::ParetoSet;
use crate::pool::{CancelToken, WorkerPool};

// Compile-time guarantee that sweep workers are safely isolated: every piece
// of state a worker thread touches must be Send (and the shared inputs Sync).
// A hidden global or thread-affine handle anywhere in the kernel/ship/cam
// stack would surface here as a build failure, not a data race.
const fn assert_send<T: Send>() {}
const fn assert_sync<T: Sync>() {}
const _: () = {
    assert_send::<Simulation>();
    assert_sync::<AppSpec>();
    assert_sync::<RoleMap>();
    assert_sync::<ArchSpec>();
    assert_send::<MappedRun>();
    assert_send::<RunMetrics>();
    assert_send::<Report>();
    assert_send::<MapError>();
    assert_send::<shiptlm_kernel::txn::TxnTrace>();
    assert_send::<shiptlm_kernel::metrics::MetricsSnapshot>();
    assert_sync::<RunOptions>();
    assert_sync::<WorkerPool>();
    assert_sync::<PruneConfig>();
    assert_send::<ParetoSet>();
};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Application facts extracted from the untimed reference run, available to
/// pruning lower-bound estimators (see [`PruneConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneContext {
    /// Largest total payload delivered over any single channel, in bytes.
    /// Those bytes cross one adapter of the candidate interconnect
    /// *serially*, which makes
    /// [`ArchSpec::min_transfer_time`] of this figure an admissible
    /// simulated-time floor.
    pub max_channel_bytes: u64,
    /// Total payload bytes delivered across all channels.
    pub total_bytes: u64,
}

impl PruneContext {
    /// Extracts the context from the component-assembly run's log.
    pub fn from_log(log: &TransactionLog) -> Self {
        log.with_records(|records| {
            let mut per_channel: BTreeMap<Label, u64> = BTreeMap::new();
            let mut total = 0u64;
            for r in records {
                if r.op == ShipOp::Recv {
                    *per_channel.entry(r.channel.clone()).or_default() += r.len as u64;
                    total += r.len as u64;
                }
            }
            PruneContext {
                max_channel_bytes: per_channel.values().copied().max().unwrap_or(0),
                total_bytes: total,
            }
        })
    }
}

/// Configuration for Pareto-guided pruning: which cost vector a finished
/// candidate contributes, and an **admissible lower bound** on that vector
/// for a candidate that has not been simulated yet.
///
/// Soundness: the bound must satisfy `lower_bound(a, ctx) ≤ objectives(row)`
/// component-wise for every candidate `a`. Then a candidate whose bound is
/// already dominated by an achieved cost vector cannot itself be
/// non-dominated, so skipping it never removes a point from the Pareto front
/// *under these objectives* — the front of a pruned sweep equals the front
/// of the full sweep. Fronts over other objectives (e.g.
/// [`report_front`](crate::pareto::report_front)'s throughput axis) carry no
/// such guarantee.
#[derive(Clone)]
pub struct PruneConfig {
    objectives: Arc<ObjectiveFn>,
    lower_bound: Arc<LowerBoundFn>,
}

/// Cost vector of a finished candidate (see [`PruneConfig`]).
type ObjectiveFn = dyn Fn(&RunMetrics) -> Vec<f64> + Send + Sync;
/// Admissible cost floor of an unsimulated candidate (see [`PruneConfig`]).
type LowerBoundFn = dyn Fn(&ArchSpec, &PruneContext) -> Vec<f64> + Send + Sync;

impl fmt::Debug for PruneConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PruneConfig").finish_non_exhaustive()
    }
}

impl PruneConfig {
    /// The built-in single-objective policy: minimize simulated time.
    ///
    /// The lower bound is pure link bandwidth — the busiest channel's bytes
    /// at one data beat per interconnect clock
    /// ([`ArchSpec::min_transfer_time`]). Every real run also pays
    /// arbitration, wrapper protocol and polling, so the bound is always
    /// admissible.
    pub fn sim_time() -> Self {
        PruneConfig {
            objectives: Arc::new(|row| vec![row.sim_time.as_ps() as f64]),
            lower_bound: Arc::new(|arch, ctx| {
                vec![arch.min_transfer_time(ctx.max_channel_bytes).as_ps() as f64]
            }),
        }
    }

    /// A custom policy. The caller is responsible for admissibility of
    /// `lower_bound` (see the type-level soundness note); an inadmissible
    /// bound can prune candidates that would have been on the front.
    pub fn custom(
        objectives: impl Fn(&RunMetrics) -> Vec<f64> + Send + Sync + 'static,
        lower_bound: impl Fn(&ArchSpec, &PruneContext) -> Vec<f64> + Send + Sync + 'static,
    ) -> Self {
        PruneConfig {
            objectives: Arc::new(objectives),
            lower_bound: Arc::new(lower_bound),
        }
    }
}

/// Live pruning state shared by all runners of one sweep.
struct PruneState {
    cfg: PruneConfig,
    ctx: PruneContext,
    front: Mutex<ParetoSet>,
}

/// A live progress sample of a running sweep, handed to the callback armed
/// with [`Sweep::with_progress`].
///
/// Every field is a pure function of the *set of candidates completed so
/// far*: a serial sweep therefore emits a byte-deterministic progress
/// sequence run-to-run, and a parallel sweep's samples differ only in
/// which prefix of candidates they summarize (pacing and interleaving are
/// excluded from the determinism contract; the final sample always reports
/// the full sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepProgress {
    /// Candidates simulated to completion so far.
    pub done: usize,
    /// Total candidates in the sweep.
    pub total: usize,
    /// Candidates skipped by Pareto pruning so far.
    pub pruned: usize,
    /// Estimated *simulated* picoseconds still to run: the mean simulated
    /// time of completed candidates times the number of remaining ones.
    /// Zero until the first candidate completes. Deliberately a simulated-
    /// time figure, not wall clock, so the hint itself stays deterministic.
    pub eta_hint_ps: u64,
}

type ProgressFn = dyn Fn(SweepProgress) + Send + Sync;

/// Debug-opaque wrapper so `Sweep` can keep deriving `Debug`.
#[derive(Clone)]
struct ProgressHook(Arc<ProgressFn>);

impl fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgressHook").finish_non_exhaustive()
    }
}

/// Shared progress counters, updated by every runner and summarized at
/// emission points (after each candidate serially; at chunk boundaries in
/// parallel).
struct ProgressState {
    done: AtomicUsize,
    pruned: AtomicUsize,
    sim_ps: AtomicU64,
    total: usize,
    cb: ProgressHook,
}

impl ProgressState {
    fn sample(&self) -> SweepProgress {
        let done = self.done.load(Ordering::Relaxed);
        let pruned = self.pruned.load(Ordering::Relaxed);
        let sim_ps = self.sim_ps.load(Ordering::Relaxed);
        let remaining = self.total.saturating_sub(done + pruned) as u64;
        let eta_hint_ps = if done == 0 {
            0
        } else {
            (sim_ps / done as u64).saturating_mul(remaining)
        };
        SweepProgress {
            done,
            total: self.total,
            pruned,
            eta_hint_ps,
        }
    }

    fn emit(&self) {
        (self.cb.0)(self.sample());
    }
}

/// Shared causal-tracing state of one sweep: the context spans attach
/// under, the sink they land in, and the wall-clock epoch host spans are
/// timed against.
struct CausalState {
    ctx: TraceCtx,
    sink: SpanSink,
    epoch: Instant,
}

impl CausalState {
    fn ns_since_epoch(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }
}

/// Runs one application across many candidate architectures.
#[derive(Debug)]
pub struct Sweep {
    app: AppSpec,
    archs: Vec<ArchSpec>,
    include_untimed: bool,
    opts: RunOptions,
    prune: Option<PruneConfig>,
    cancel: Option<CancelToken>,
    progress: Option<ProgressHook>,
    causal: Option<(TraceCtx, SpanSink)>,
}

impl Sweep {
    /// Creates a sweep over `app`.
    ///
    /// The untimed role-detection run defaults to
    /// [`Backend::Auto`](crate::mapper::Backend): direct execution when the
    /// model qualifies, transparent DE fallback otherwise. Override with
    /// [`with_options`](Self::with_options).
    pub fn new(app: AppSpec) -> Self {
        Sweep {
            app,
            archs: Vec::new(),
            include_untimed: false,
            opts: RunOptions::default().with_backend(crate::mapper::Backend::Auto),
            prune: None,
            cancel: None,
            progress: None,
            causal: None,
        }
    }

    /// Adds one candidate architecture.
    pub fn arch(mut self, a: ArchSpec) -> Self {
        self.archs.push(a);
        self
    }

    /// Adds many candidate architectures.
    pub fn archs<I: IntoIterator<Item = ArchSpec>>(mut self, it: I) -> Self {
        self.archs.extend(it);
        self
    }

    /// Also reports the untimed component-assembly run as a baseline row.
    pub fn with_untimed_baseline(mut self) -> Self {
        self.include_untimed = true;
        self
    }

    /// Enables the transaction recorder (`capacity` events per candidate);
    /// each report row then carries its run's [`TxnTrace`]
    /// (`RunMetrics::txn`).
    ///
    /// [`TxnTrace`]: shiptlm_kernel::txn::TxnTrace
    pub fn with_recorder(mut self, capacity: usize) -> Self {
        self.opts.record_txns = Some(capacity);
        self
    }

    /// Enables the time-resolved metrics registry with the given sim-time
    /// sampling window; each report row then carries its run's
    /// [`MetricsSnapshot`] (`RunMetrics::metrics`).
    ///
    /// [`MetricsSnapshot`]: shiptlm_kernel::metrics::MetricsSnapshot
    pub fn with_metrics(mut self, window: shiptlm_kernel::time::SimDur) -> Self {
        self.opts.metrics = Some(window);
        self
    }

    /// Replaces the run options wholesale (e.g. to force a specific
    /// [`Backend`](crate::mapper::Backend) or arm a port hook).
    pub fn with_options(mut self, opts: RunOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Enables Pareto-guided pruning: candidates whose cost lower bound is
    /// already dominated by an achieved cost vector are skipped without
    /// being simulated. Skipped candidates are listed in
    /// [`Report::pruned`] instead of appearing as rows.
    ///
    /// In a serial sweep the pruned set is deterministic. In a parallel
    /// sweep it depends on candidate completion order, but every reported
    /// row is still bit-identical to its serial counterpart, every pruned
    /// candidate is provably dominated, and the Pareto front under the
    /// pruning objectives is preserved exactly (see [`PruneConfig`]).
    pub fn with_pruning(mut self, cfg: PruneConfig) -> Self {
        self.prune = Some(cfg);
        self
    }

    /// Arms cooperative cancellation: once `token` is cancelled, candidates
    /// not yet simulating are skipped and the sweep returns
    /// [`MapError::Cancelled`]. Candidates already mid-simulation finish
    /// (they are milliseconds each); their rows are discarded with the run.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Arms a live progress callback: `cb` fires with a [`SweepProgress`]
    /// sample after every candidate (serial sweep) or at every completed
    /// worker chunk (parallel sweep), from whichever thread finished the
    /// work. A parallel sweep's full sample fires last, from the calling
    /// thread once every worker is done. See [`SweepProgress`] for the
    /// determinism contract.
    pub fn with_progress(mut self, cb: impl Fn(SweepProgress) + Send + Sync + 'static) -> Self {
        self.progress = Some(ProgressHook(Arc::new(cb)));
        self
    }

    /// Arms request-scoped causal tracing: the sweep records role-detection
    /// (with the Auto backend probe/fallback decision), worker-pool chunk,
    /// per-candidate and pruned-candidate spans into `sink`, parented under
    /// `ctx.parent_span` within `ctx.trace_id`. When the transaction
    /// recorder is also enabled ([`with_recorder`](Self::with_recorder)),
    /// each candidate's kernel txn events are stitched in as child spans on
    /// that candidate's simulated-time track — the full client-to-kernel
    /// causality chain. Costs nothing when not armed (one `Option` check
    /// per decision point).
    pub fn with_causal(mut self, ctx: TraceCtx, sink: SpanSink) -> Self {
        self.causal = Some((ctx, sink));
        self
    }

    /// Executes the sweep serially.
    ///
    /// Role detection runs once (on the untimed model); every candidate is
    /// then mapped and simulated with identical PE source.
    ///
    /// # Errors
    ///
    /// Returns a [`MapError`] when role detection fails.
    pub fn run(self) -> Result<Report, MapError> {
        self.execute(WorkerPool::global(), 1)
    }

    /// Executes the sweep with up to `threads` candidates simulating
    /// concurrently on the process-wide [`WorkerPool::global`] pool.
    ///
    /// The report is identical to [`Sweep::run`] (rows in candidate order,
    /// same simulated times and metrics) — only host wall-clock differs.
    /// `threads` is clamped to at least 1; passing 1 is exactly the serial
    /// path. The calling thread always participates, so at most
    /// `threads - 1` pool workers are used (and none are spawned for a
    /// serial run).
    ///
    /// # Errors
    ///
    /// Returns a [`MapError`] when role detection or any candidate mapping
    /// fails. On a candidate failure the error of the earliest failing
    /// candidate (in list order) is returned, matching the serial run;
    /// candidates queued behind the failure are cancelled, not simulated.
    pub fn run_parallel(self, threads: usize) -> Result<Report, MapError> {
        self.execute(WorkerPool::global(), threads.max(1))
    }

    /// Like [`Sweep::run_parallel`], but on an explicit pool — for callers
    /// that want worker isolation or share one pool across sweeps and
    /// [`DesignFlow`] runs themselves.
    ///
    /// # Errors
    ///
    /// As [`Sweep::run_parallel`].
    ///
    /// [`DesignFlow`]: https://docs.rs/shiptlm "shiptlm::flow::DesignFlow"
    pub fn run_on(self, pool: &WorkerPool, threads: usize) -> Result<Report, MapError> {
        self.execute(pool, threads.max(1))
    }

    fn execute(self, pool: &WorkerPool, threads: usize) -> Result<Report, MapError> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Err(MapError::Cancelled);
        }
        let causal = self.causal.as_ref().map(|(ctx, sink)| CausalState {
            ctx: *ctx,
            sink: sink.clone(),
            epoch: Instant::now(),
        });
        let detect_t0 = Instant::now();
        let ca = run_component_assembly_with(&self.app, &self.opts)?;
        if let Some(c) = &causal {
            // Role detection runs once per sweep; its span carries the Auto
            // backend probe/fallback decision.
            let mut span = CausalSpan::new(c.ctx, "role-detect", self.app.name(), TRACK_HOST)
                .at(
                    c.ns_since_epoch(detect_t0),
                    detect_t0.elapsed().as_nanos() as u64,
                )
                .arg("backend_requested", format!("{:?}", ca.backend.requested))
                .arg("backend_used", format!("{:?}", ca.backend.used));
            if let Some(reason) = &ca.backend.fallback {
                span = span.arg("backend_fallback", reason.clone());
            }
            c.sink.push(span);
        }
        let mut report = Report::new();
        if self.include_untimed {
            let mut row = RunMetrics::from_log(
                "untimed",
                &ca.output.log,
                ca.output.sim_time,
                None,
                ca.output.delta_cycles,
                ca.output.wall_seconds,
            );
            row.txn = ca.output.txn;
            row.metrics = ca.output.metrics;
            report.push(row);
        }
        let prune = self.prune.map(|cfg| PruneState {
            ctx: PruneContext::from_log(&ca.output.log),
            cfg,
            front: Mutex::new(ParetoSet::new()),
        });
        let total = self.archs.len();
        let cancel = self.cancel.as_ref();
        let progress = self.progress.as_ref().map(|cb| ProgressState {
            done: AtomicUsize::new(0),
            pruned: AtomicUsize::new(0),
            sim_ps: AtomicU64::new(0),
            total,
            cb: cb.clone(),
        });
        let causal_ref = causal.as_ref();
        let progress_ref = progress.as_ref();
        let outcomes = if threads <= 1 || total <= 1 {
            let mut outcomes = Vec::with_capacity(total);
            for (i, arch) in self.archs.iter().enumerate() {
                outcomes.push(run_candidate(
                    &self.app,
                    &ca.roles,
                    arch,
                    &self.opts,
                    prune.as_ref(),
                    cancel,
                    i,
                    causal_ref,
                    progress_ref,
                )?);
                if let Some(p) = progress_ref {
                    p.emit();
                }
            }
            outcomes
        } else {
            let observer = |done: crate::pool::ChunkDone| {
                if let Some(c) = causal_ref {
                    let ts = c
                        .ns_since_epoch(Instant::now())
                        .saturating_sub(done.elapsed.as_nanos() as u64);
                    c.sink.push(
                        CausalSpan::new(
                            c.ctx,
                            "chunk",
                            format!("{}..{}", done.start, done.end),
                            TRACK_HOST,
                        )
                        .at(ts, done.elapsed.as_nanos() as u64),
                    );
                }
                // Observers run concurrently, so a sample may arrive after a
                // later one; the full sweep's is left to the caller below,
                // which emits after every observer has returned.
                if let Some(p) = progress_ref {
                    let sample = p.sample();
                    if sample.done + sample.pruned < sample.total {
                        (p.cb.0)(sample);
                    }
                }
            };
            let on_chunk: Option<&(dyn Fn(crate::pool::ChunkDone) + Send + Sync)> =
                if causal.is_some() || progress.is_some() {
                    Some(&observer)
                } else {
                    None
                };
            let outcomes = pool.run_fallible_observed(
                threads,
                total,
                WorkerPool::chunk_for(threads, total),
                |i| {
                    run_candidate(
                        &self.app,
                        &ca.roles,
                        &self.archs[i],
                        &self.opts,
                        prune.as_ref(),
                        cancel,
                        i,
                        causal_ref,
                        progress_ref,
                    )
                },
                on_chunk,
            )?;
            if let Some(p) = progress_ref {
                p.emit();
            }
            outcomes
        };
        for (arch, outcome) in self.archs.iter().zip(outcomes) {
            match outcome {
                Some(row) => report.push(row),
                None => report.note_pruned(arch.label()),
            }
        }
        Ok(report)
    }
}

/// Runs one candidate through the optional pruning gate: bound-check, then
/// map + simulate, then publish the achieved cost vector to the shared
/// archive. `Ok(None)` means the candidate was pruned.
///
/// Observability side channels, both optional and branch-free when absent:
/// `causal` records a `candidate` span (zero-duration with `pruned=true`
/// for skipped candidates) and stitches the run's txn events underneath;
/// `progress` keeps the shared done/pruned/sim-time counters current.
#[allow(clippy::too_many_arguments)]
fn run_candidate(
    app: &AppSpec,
    roles: &RoleMap,
    arch: &ArchSpec,
    opts: &RunOptions,
    prune: Option<&PruneState>,
    cancel: Option<&CancelToken>,
    index: usize,
    causal: Option<&CausalState>,
    progress: Option<&ProgressState>,
) -> Result<Option<RunMetrics>, MapError> {
    if cancel.is_some_and(|c| c.is_cancelled()) {
        return Err(MapError::Cancelled);
    }
    if let Some(p) = prune {
        let bound = (p.cfg.lower_bound)(arch, &p.ctx);
        if lock(&p.front).is_dominated(&bound) {
            if let Some(c) = causal {
                c.sink.push(
                    CausalSpan::new(c.ctx, "candidate", arch.label(), TRACK_HOST)
                        .at(c.ns_since_epoch(Instant::now()), 0)
                        .arg("index", index.to_string())
                        .arg("pruned", "true"),
                );
            }
            if let Some(p) = progress {
                p.pruned.fetch_add(1, Ordering::Relaxed);
            }
            return Ok(None);
        }
    }
    let t0 = Instant::now();
    let row = candidate_row(app, roles, arch, opts)?;
    if let Some(p) = prune {
        let costs = (p.cfg.objectives)(&row);
        lock(&p.front).insert(costs);
    }
    if let Some(c) = causal {
        let span = CausalSpan::new(c.ctx, "candidate", arch.label(), TRACK_HOST)
            .at(c.ns_since_epoch(t0), t0.elapsed().as_nanos() as u64)
            .arg("index", index.to_string())
            .arg("sim_time_ps", row.sim_time.as_ps().to_string());
        let child_ctx = c.ctx.child(span.span_id);
        c.sink.push(span);
        if let Some(txn) = &row.txn {
            c.sink
                .extend(spans_from_txn(txn, child_ctx, track_for_candidate(index)));
        }
    }
    if let Some(p) = progress {
        p.done.fetch_add(1, Ordering::Relaxed);
        p.sim_ps.fetch_add(row.sim_time.as_ps(), Ordering::Relaxed);
    }
    Ok(Some(row))
}

/// Maps and simulates one candidate, turning its artifacts into a report
/// row. The interconnect statistics are moved into the row, not cloned.
fn candidate_row(
    app: &AppSpec,
    roles: &RoleMap,
    arch: &ArchSpec,
    opts: &RunOptions,
) -> Result<RunMetrics, MapError> {
    let MappedRun { output, bus } = run_mapped_with(app, roles, arch, opts)?;
    let mut row = RunMetrics::from_log(
        &arch.label(),
        &output.log,
        output.sim_time,
        Some(bus),
        output.delta_cycles,
        output.wall_seconds,
    );
    row.txn = output.txn;
    row.metrics = output.metrics;
    Ok(row)
}

/// One-call exploration: sweep `app` over `archs` on up to `threads` worker
/// threads (1 = serial). Equivalent to
/// `Sweep::new(app).archs(archs).run_parallel(threads)`.
///
/// # Errors
///
/// Returns a [`MapError`] when role detection or any candidate mapping
/// fails.
pub fn sweep<I: IntoIterator<Item = ArchSpec>>(
    app: AppSpec,
    archs: I,
    threads: usize,
) -> Result<Report, MapError> {
    Sweep::new(app).archs(archs).run_parallel(threads)
}

/// Verifies that every mapped run of a sweep stays content-equivalent to the
/// untimed reference — the refinement-correctness check of the design flow.
///
/// Role detection runs once; each candidate reuses the detected roles
/// instead of re-running the component assembly.
///
/// # Errors
///
/// Returns a string describing the first divergence or mapping failure.
pub fn verify_equivalence(app: &AppSpec, archs: &[ArchSpec]) -> Result<(), String> {
    let ca = run_component_assembly(app).map_err(|e| e.to_string())?;
    for arch in archs {
        let mapped = run_mapped(app, &ca.roles, arch).map_err(|e| e.to_string())?;
        ca.output
            .log
            .content_equivalent(&mapped.output.log)
            .map_err(|e| format!("{}: {e}", arch.label()))?;
    }
    Ok(())
}

impl fmt::Display for Sweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sweep of '{}' over {} architectures",
            self.app.name(),
            self.archs.len()
        )
    }
}
