//! # nupea — the complete NUPEA compile-and-simulate pipeline
//!
//! This crate ties the reproduction together (see DESIGN.md at the repo
//! root):
//!
//! * build a workload ([`nupea_kernels`]) — kernel + inputs + validator;
//! * compile it onto a fabric ([`nupea_pnr`]) with one of the three
//!   placement heuristics of Fig. 12;
//! * simulate cycle-accurately ([`nupea_sim`]) under any memory model of §6
//!   (NUPEA / UPEA-n / NUMA-UPEA-n / Ideal);
//! * validate results against the reference implementation.
//!
//! The [`runner`] module holds the parallel experiment runner the benchmark
//! harness uses to regenerate every figure of the paper; [`experiments`]
//! holds the shared model/heuristic selections and table rendering.
//!
//! # Example
//!
//! ```
//! use nupea::SystemConfig;
//! use nupea_kernels::workloads::{sparse, Scale};
//! use nupea_pnr::Heuristic;
//! use nupea_sim::MemoryModel;
//!
//! let workload = sparse::spmv(Scale::Test, 1);
//! let mut sys = SystemConfig::monaco_12x12();
//! sys.seed = 7;
//! let compiled = sys.compile(&workload, Heuristic::CriticalityAware)?;
//! let stats = compiled.simulate(MemoryModel::Nupea)?;
//! assert!(stats.cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod campaign;
pub mod experiments;
pub mod jsonl;
pub mod runner;
pub mod shard;

pub use cache::{config_hash, config_key, ArtifactCache, CacheStats};
pub use campaign::{
    CampaignConfig, CampaignJob, CampaignReport, FaultCampaign, InjectionRecord, OutcomeClass,
    RecoveryOutcome,
};
pub use nupea_fabric::{Fabric, PeId, TopologyKind};
pub use nupea_kernels::workloads::{
    all_workloads, table1_workloads, wave2_workloads, workload_preset, Scale, ValidationError,
    Workload, WorkloadSpec, PRESET_NAMES,
};
pub use nupea_pnr::{Heuristic, Placed, PnrError};
pub use nupea_sim::{
    ConfigError, EnergyBreakdown, EnergyParams, FaultClasses, FaultConfig, FaultContext, FaultKind,
    FaultPlan, MemoryModel, PerturbConfig, RunStats, SimError, SimMemory, StallReport, TraceBuffer,
    TraceConfig,
};
pub use runner::{
    ExperimentRunner, RetryPolicy, RunErrorKind, RunRecord, RunnerReport, SystemHandle,
    WorkloadHandle,
};
pub use shard::{ShardCtx, ShardOptions, WorkerStats};

use nupea_pnr::{pnr, PlaceConfig, PnrConfig};
use nupea_sim::{Engine, MemParams, SimConfig};
use std::fmt;
use std::sync::Arc;

/// The machine and how to compile for it: the fabric, its memory and
/// buffering, and the place-and-route knobs. Settings of a single run
/// (memory model, tracing, fault arming, cycle budget) live in
/// [`SimOptions`] instead, so a cached [`Compiled`] artifact never
/// carries them into another request's run.
///
/// Construct via [`SystemConfig::monaco_12x12`] or
/// [`SystemConfig::with_fabric`], then set fields directly.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SystemConfig {
    /// The fabric (topology, domains, tracks, timing calibration).
    pub fabric: Fabric,
    /// Memory geometry and latencies.
    pub mem: MemParams,
    /// Token FIFO depth per operand.
    pub fifo_depth: usize,
    /// Max outstanding requests per load-store instruction.
    pub max_outstanding: usize,
    /// PnR seed.
    pub seed: u64,
    /// Annealing effort (moves ≈ effort × cells).
    pub effort: u32,
    /// Fixed fabric clock divider for model comparisons (§6: "we set
    /// Monaco's fabric clock divider to 2"). `None` uses the PnR-derived
    /// divider (the right choice for the topology-scaling studies of
    /// Figs. 16–17).
    pub divider_override: Option<u64>,
    /// PEs the placer must not map anything onto (failed resources during
    /// degraded-mode recovery). Empty by default.
    pub avoid: Vec<PeId>,
    /// Watchdog quiescence window in system cycles (0 disables): a run
    /// with no firing, delivery, or completion for this long aborts as
    /// [`SimError::Stalled`]. Fault campaigns shrink it per injected run
    /// ([`SimOptions::stall_window`]) so hangs are detected quickly
    /// instead of spinning to the cycle cap.
    pub stall_window: u64,
}

impl SystemConfig {
    /// The evaluated Monaco configuration: 12×12 fabric, 3 NoC tracks,
    /// 8 MB memory with a 256 KB shared cache banked 32× (§4, §6).
    pub fn monaco_12x12() -> Self {
        SystemConfig::with_fabric(
            Fabric::monaco(12, 12, Fabric::DEFAULT_TRACKS).expect("12x12 monaco is valid"),
        )
    }

    /// A configuration around an arbitrary fabric.
    pub fn with_fabric(fabric: Fabric) -> Self {
        SystemConfig {
            fabric,
            mem: MemParams::default(),
            // Shallow PE buffering, as on an energy-minimal SDA: two-deep
            // LS request queues make load latency a first-order effect
            // (calibrated against the paper's Fig. 11/14 shapes).
            fifo_depth: 4,
            max_outstanding: 2,
            seed: 0xC0FFEE,
            effort: 200,
            divider_override: Some(2),
            avoid: Vec::new(),
            stall_window: 1_000_000,
        }
    }

    /// Compile a workload onto this system's fabric with a placement
    /// heuristic. PnR quality and routability are seed-sensitive, so this
    /// runs a few seeds and keeps the best-timing result (smallest divider,
    /// then shortest max path), as multi-seed production flows do.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Pnr`] when the kernel does not fit or
    /// cannot be routed — the auto-parallelizer's stop signal.
    pub fn compile(
        &self,
        workload: &Workload,
        heuristic: Heuristic,
    ) -> Result<Compiled, PipelineError> {
        compile_impl(
            &Arc::new(workload.clone()),
            &Arc::new(self.clone()),
            heuristic,
        )
    }

    /// Reject degenerate configurations (`fifo_depth == 0`,
    /// `max_outstanding == 0`, `divider_override == Some(0)`, bad memory
    /// geometry) with a typed error instead of a deep-in-the-engine panic.
    /// Called automatically at the start of [`SystemConfig::compile`].
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] naming the first bad knob.
    pub fn validate(&self) -> Result<(), PipelineError> {
        if self.fifo_depth == 0 {
            return Err(ConfigError::ZeroFifoDepth.into());
        }
        if self.max_outstanding == 0 {
            return Err(ConfigError::ZeroMaxOutstanding.into());
        }
        if self.divider_override == Some(0) {
            return Err(ConfigError::ZeroDivider.into());
        }
        if self.fabric.num_domains() == 0 {
            return Err(ConfigError::ZeroDomains.into());
        }
        self.mem.validate()?;
        Ok(())
    }
}

/// Per-run simulation options, consumed by [`Compiled::simulate_with`] —
/// the single simulation entry point and the only home of a single run's
/// settings: memory model, tracing, cycle budget, fault arming, watchdog
/// window and reference validation, as one chainable struct:
///
/// ```
/// use nupea::{MemoryModel, Scale, SimOptions, SystemConfig};
/// use nupea_kernels::workloads::sparse;
/// use nupea_pnr::Heuristic;
///
/// let w = sparse::spmv(Scale::Test, 1);
/// let sys = SystemConfig::monaco_12x12();
/// let compiled = sys.compile(&w, Heuristic::CriticalityAware)?;
/// let out = compiled.simulate_with(&SimOptions::new(MemoryModel::Nupea).trace())?;
/// assert!(out.stats.cycles > 0 && out.trace.is_some());
/// // The final memory image always comes back, storing only the words
/// // the run allocated or wrote.
/// assert!(out.memory.stored() <= w.mem.used());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SimOptions {
    /// Memory model to simulate under (§6: NUPEA / UPEA-n / NUMA-UPEA-n /
    /// Ideal).
    pub model: MemoryModel,
    /// Cycle budget replacing the default runaway cap
    /// ([`DEFAULT_MAX_CYCLES`]). Used by the fault-tolerant runner to
    /// bound wall-clock per sweep point.
    pub max_cycles: Option<u64>,
    /// Fault injection for this run (`None` runs fault-free). The
    /// campaign primitive: arm exactly one fault on a shared artifact.
    pub fault: Option<FaultConfig>,
    /// Watchdog quiescence-window override in system cycles (`None`
    /// keeps [`SystemConfig::stall_window`]; `Some(0)` disables the
    /// watchdog).
    pub stall_window: Option<u64>,
    /// Record events with [`TraceConfig::on`] and return the
    /// [`TraceBuffer`] in [`SimOutcome::trace`]. Timing is identical to
    /// an untraced run.
    pub trace: bool,
    /// Validate results against the workload's reference implementation
    /// (default `true`). Fault campaigns turn this off: an injected run's
    /// outputs are compared differentially against a golden fault-free
    /// run, not against the reference — a mismatch is an SDC, not a
    /// validation error.
    pub validate: bool,
}

impl SimOptions {
    /// Defaults for one validated, untraced run under `model` — exactly
    /// what [`Compiled::simulate`] does.
    #[must_use]
    pub fn new(model: MemoryModel) -> Self {
        SimOptions {
            model,
            max_cycles: None,
            fault: None,
            stall_window: None,
            trace: false,
            validate: true,
        }
    }

    /// Replace the default runaway cap with an explicit cycle budget.
    #[must_use]
    pub fn max_cycles(mut self, cap: u64) -> Self {
        self.max_cycles = Some(cap);
        self
    }

    /// Arm fault injection for this run.
    #[must_use]
    pub fn fault(mut self, fault: FaultConfig) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Override the watchdog quiescence window for this run.
    #[must_use]
    pub fn stall_window(mut self, window: u64) -> Self {
        self.stall_window = Some(window);
        self
    }

    /// Record an event trace and return it in [`SimOutcome::trace`].
    #[must_use]
    pub fn trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Skip reference validation (differential/fault-campaign runs).
    #[must_use]
    pub fn no_validate(mut self) -> Self {
        self.validate = false;
        self
    }
}

/// Everything one simulation run produced. The trace is present exactly
/// when [`SimOptions::trace`] requested it; the final memory image always
/// is.
#[derive(Debug)]
#[non_exhaustive]
pub struct SimOutcome {
    /// Cycle counts, sink streams, energy, and every other aggregate.
    pub stats: RunStats,
    /// The recorded event trace, when [`SimOptions::trace`] was set.
    pub trace: Option<TraceBuffer>,
    /// The final memory image, for differential comparison against a
    /// golden run. It stores only the words the run allocated or wrote
    /// (see [`SimMemory`]), not the whole 8 MB capacity.
    pub memory: SimMemory,
}

/// A compiled workload: placement, routing, timing, plus shared handles to
/// the workload and system it was compiled for, so it can be simulated
/// directly via [`Compiled::simulate`] / [`Compiled::simulate_with`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Compiled {
    /// PnR output.
    pub placed: Placed,
    /// Heuristic used.
    pub heuristic: Heuristic,
    workload: Arc<Workload>,
    sys: Arc<SystemConfig>,
}

impl Compiled {
    /// The workload this artifact was compiled from.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The system configuration this artifact was compiled for.
    pub fn system(&self) -> &SystemConfig {
        &self.sys
    }

    /// Simulate under a memory model, validating results against the
    /// workload's reference implementation. The compile is reused: calling
    /// this for several models performs PnR exactly once. Thin default
    /// over [`Compiled::simulate_with`].
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Sim`] on simulator faults and
    /// [`PipelineError::Validation`] when outputs mismatch the reference.
    pub fn simulate(&self, model: MemoryModel) -> Result<RunStats, PipelineError> {
        self.simulate_with(&SimOptions::new(model)).map(|o| o.stats)
    }

    /// Simulate one run under explicit [`SimOptions`] — the single
    /// simulation entry point; every per-run knob (model, tracing,
    /// budgets, fault arming, validation) rides in `opts`, and the
    /// machine is the one this artifact was compiled for.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Sim`] on simulator faults (including
    /// [`SimError::CycleLimit`] when a [`SimOptions::max_cycles`] budget
    /// is exhausted), [`PipelineError::Validation`] when validation is on
    /// and outputs mismatch the reference, and
    /// [`PipelineError::InvalidConfig`] for degenerate knobs.
    pub fn simulate_with(&self, opts: &SimOptions) -> Result<SimOutcome, PipelineError> {
        let mut cfg = sim_config(&self.sys, opts.model, self.placed.timing.divider);
        if let Some(cap) = opts.max_cycles {
            cfg.max_cycles = cap;
        }
        if let Some(fault) = opts.fault {
            cfg.fault = fault;
        }
        if let Some(window) = opts.stall_window {
            cfg.stall_window = window;
        }
        if opts.trace {
            cfg.trace = TraceConfig::on();
        }
        run_engine(
            &self.workload,
            &self.sys.fabric,
            &self.placed.pe_of,
            cfg,
            opts.validate,
        )
    }

    /// Serialize to a bitstream (see [`nupea_pnr::bitstream`]) for caching
    /// or inspection.
    pub fn bitstream(&self) -> String {
        nupea_pnr::write_bitstream(self.workload.kernel.dfg(), &self.sys.fabric, &self.placed)
    }
}

/// Errors from the end-to-end pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum PipelineError {
    /// Place-and-route failed (capacity or congestion).
    Pnr(PnrError),
    /// Simulation failed.
    Sim(SimError),
    /// The run finished but outputs did not match the reference.
    Validation(ValidationError),
    /// A bitstream could not be parsed or does not match the workload.
    Bitstream {
        /// What went wrong.
        reason: String,
    },
    /// A degenerate configuration was rejected before reaching the engine.
    InvalidConfig(ConfigError),
    /// A compile or simulate step panicked; the payload message is
    /// preserved. Produced by the fault-tolerant runner, which converts
    /// panics into error records instead of aborting the sweep.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The artifact cache's circuit breaker fast-failed this config:
    /// it has failed to compile repeatedly, so the request was refused
    /// without re-running place-and-route. The serve frontend maps this
    /// to a typed `422`. See [`cache`](crate::cache).
    FastFailed {
        /// Consecutive compile failures recorded for this config.
        failures: u32,
        /// The most recent underlying compile error, as text.
        message: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Pnr(e) => write!(f, "pnr: {e}"),
            PipelineError::Sim(e) => write!(f, "sim: {e}"),
            PipelineError::Validation(e) => write!(f, "validation: {e}"),
            PipelineError::Bitstream { reason } => write!(f, "bitstream: {reason}"),
            PipelineError::InvalidConfig(e) => write!(f, "invalid config: {e}"),
            PipelineError::Panicked { message } => write!(f, "panicked: {message}"),
            PipelineError::FastFailed { failures, message } => write!(
                f,
                "fast-failed after {failures} consecutive compile failures (last: {message})"
            ),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Pnr(e) => Some(e),
            PipelineError::Sim(e) => Some(e),
            PipelineError::Validation(e) => Some(e),
            PipelineError::InvalidConfig(e) => Some(e),
            PipelineError::Bitstream { .. }
            | PipelineError::Panicked { .. }
            | PipelineError::FastFailed { .. } => None,
        }
    }
}

impl From<ConfigError> for PipelineError {
    fn from(e: ConfigError) -> Self {
        PipelineError::InvalidConfig(e)
    }
}

impl From<PnrError> for PipelineError {
    fn from(e: PnrError) -> Self {
        PipelineError::Pnr(e)
    }
}

impl From<SimError> for PipelineError {
    fn from(e: SimError) -> Self {
        PipelineError::Sim(e)
    }
}

impl From<ValidationError> for PipelineError {
    fn from(e: ValidationError) -> Self {
        PipelineError::Validation(e)
    }
}

/// Shared compile path: multi-seed best-of PnR over shared handles, so the
/// runner can compile once and fan the artifact out across memory models
/// without cloning workload memory images.
fn compile_impl(
    workload: &Arc<Workload>,
    sys: &Arc<SystemConfig>,
    heuristic: Heuristic,
) -> Result<Compiled, PipelineError> {
    sys.validate()?;
    let mut best: Option<Placed> = None;
    let mut last_err = None;
    for attempt in 0..3u64 {
        let cfg = PnrConfig {
            place: PlaceConfig {
                heuristic,
                seed: sys.seed.wrapping_add(attempt.wrapping_mul(0x9E37_79B9)),
                effort: sys.effort,
                avoid: sys.avoid.clone(),
            },
        };
        match pnr(workload.kernel.dfg(), &sys.fabric, &cfg) {
            Ok(placed) => {
                let better = best.as_ref().is_none_or(|b| {
                    (placed.timing.divider, placed.timing.max_hops)
                        < (b.timing.divider, b.timing.max_hops)
                });
                if better {
                    best = Some(placed);
                }
            }
            Err(e @ PnrError::Unplaceable(_)) => return Err(e.into()),
            Err(e) => last_err = Some(e),
        }
    }
    match best {
        Some(placed) => Ok(Compiled {
            placed,
            heuristic,
            workload: Arc::clone(workload),
            sys: Arc::clone(sys),
        }),
        None => Err(last_err.expect("at least one attempt ran").into()),
    }
}

/// Default runaway guard for pipeline simulations, in system cycles. The
/// runner's per-point cycle budget (when set) replaces this cap.
pub const DEFAULT_MAX_CYCLES: u64 = 2_000_000_000;

/// Build the cycle-accurate simulator configuration for one run.
fn sim_config(sys: &SystemConfig, model: MemoryModel, divider_src: u32) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.model = model;
    cfg.mem = sys.mem;
    cfg.divider = sys.divider_override.unwrap_or(u64::from(divider_src));
    cfg.fifo_depth = sys.fifo_depth;
    cfg.max_outstanding = sys.max_outstanding;
    cfg.numa_seed = sys.seed ^ 0x1234;
    cfg.max_cycles = DEFAULT_MAX_CYCLES;
    cfg.stall_window = sys.stall_window;
    cfg
}

/// Shared engine-run path: a fresh copy of the workload's memory image,
/// engine setup and bindings, the run, and (when `validate` is set) the
/// reference check. The outcome carries whatever trace `cfg` recorded.
fn run_engine(
    workload: &Workload,
    fabric: &Fabric,
    pe_of: &[PeId],
    cfg: SimConfig,
    validate: bool,
) -> Result<SimOutcome, PipelineError> {
    cfg.validate()?;
    let mut memory = workload.mem.clone();
    let mut engine = Engine::new(workload.kernel.dfg(), fabric, pe_of, cfg);
    for (pid, v) in workload.kernel.bindings(&[]) {
        engine.bind(pid, v);
    }
    let stats = engine.run(&mut memory)?;
    if validate {
        workload.validate(&memory, &stats.sinks)?;
    }
    Ok(SimOutcome {
        stats,
        trace: engine.take_trace(),
        memory,
    })
}

/// Results of a multi-region (staged) run.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct StagedRunStats {
    /// Total execution time, including reconfiguration between regions.
    pub total_cycles: u64,
    /// Per-stage run statistics.
    pub per_stage: Vec<RunStats>,
    /// Cycles spent loading bitstreams (reconfig × number of stages).
    pub reconfig_cycles: u64,
}

/// Compile every region of a staged workload.
///
/// # Errors
///
/// Returns the first region's PnR failure.
pub fn compile_staged(
    staged: &nupea_kernels::workloads::staged::StagedWorkload,
    sys: &SystemConfig,
    heuristic: Heuristic,
) -> Result<Vec<Compiled>, PipelineError> {
    let sys = Arc::new(sys.clone());
    staged
        .stages
        .iter()
        .map(|stage| {
            let shim = Arc::new(Workload {
                name: staged.name,
                kernel: stage.clone(),
                mem: staged.mem.clone(),
                checks: vec![],
                par: staged.par,
            });
            compile_impl(&shim, &sys, heuristic)
        })
        .collect()
}

/// Execute a staged workload: regions run sequentially over shared memory,
/// separated by a bitstream-reconfiguration delay (§5: effcc "splits
/// programs into regions that fit on Monaco's fabric"). Results are
/// validated against the reference at the end.
///
/// # Errors
///
/// Simulation or validation failures from any region.
pub fn simulate_staged(
    staged: &nupea_kernels::workloads::staged::StagedWorkload,
    compiled: &[Compiled],
    sys: &SystemConfig,
    model: MemoryModel,
    reconfig_cycles: u64,
) -> Result<StagedRunStats, PipelineError> {
    assert_eq!(
        compiled.len(),
        staged.stages.len(),
        "one artifact per region"
    );
    let mut mem = staged.fresh_mem();
    let mut per_stage = Vec::with_capacity(staged.stages.len());
    let mut total = 0u64;
    for (stage, art) in staged.stages.iter().zip(compiled) {
        let cfg = sim_config(sys, model, art.placed.timing.divider);
        let mut engine = Engine::new(stage.dfg(), &sys.fabric, &art.placed.pe_of, cfg);
        for (pid, v) in stage.bindings(&[]) {
            engine.bind(pid, v);
        }
        let stats = engine.run(&mut mem)?;
        total += stats.cycles + reconfig_cycles;
        per_stage.push(stats);
    }
    staged.validate(&mem)?;
    Ok(StagedRunStats {
        total_cycles: total,
        reconfig_cycles: reconfig_cycles * staged.stages.len() as u64,
        per_stage,
    })
}

/// Simulate a workload from a previously saved bitstream, skipping PnR.
///
/// # Errors
///
/// Returns [`PipelineError::Bitstream`] if the bitstream does not parse or
/// does not match the workload/fabric, plus the usual simulation and
/// validation errors.
pub fn simulate_bitstream(
    workload: &Workload,
    sys: &SystemConfig,
    bitstream_text: &str,
    model: MemoryModel,
) -> Result<RunStats, PipelineError> {
    let bs = nupea_pnr::parse_bitstream(bitstream_text).map_err(|e| PipelineError::Bitstream {
        reason: e.to_string(),
    })?;
    if !bs.matches(workload.kernel.dfg(), &sys.fabric) {
        return Err(PipelineError::Bitstream {
            reason: "bitstream does not match this workload/fabric".into(),
        });
    }
    let cfg = sim_config(sys, model, bs.divider);
    run_engine(workload, &sys.fabric, &bs.pe_of, cfg, true).map(|out| out.stats)
}

/// Auto-parallelization (§5): grow the parallelism degree until PnR fails,
/// then pick the degree "that achieved optimal performance" (§6) by
/// simulating every successful candidate under the Monaco memory model.
/// More parallelism is not always faster: a wider design can route only
/// with long detours, inflating the clock divider — exactly the effect the
/// topology-scaling study measures.
///
/// # Errors
///
/// Returns the PnR error if even `par = 1` does not fit.
pub fn auto_parallelize(
    spec: &WorkloadSpec,
    scale: Scale,
    sys: &SystemConfig,
    heuristic: Heuristic,
) -> Result<(Workload, Compiled), PipelineError> {
    let sys_arc = Arc::new(sys.clone());
    let mut candidates: Vec<(Workload, Compiled)> = Vec::new();
    let mut par = 1usize;
    loop {
        let w = Arc::new((spec.build)(scale, par));
        match compile_impl(&w, &sys_arc, heuristic) {
            Ok(c) => {
                candidates.push(((*w).clone(), c));
                par *= 2;
                if par > 64 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    if candidates.is_empty() {
        return Err(PipelineError::Pnr(PnrError::Unplaceable(
            "workload does not fit at parallelism 1".into(),
        )));
    }
    let mut best: Option<(u64, usize)> = None;
    for (i, (_, c)) in candidates.iter().enumerate() {
        let Ok(stats) = c.simulate(MemoryModel::Nupea) else {
            continue;
        };
        if best.is_none_or(|(cyc, _)| stats.cycles < cyc) {
            best = Some((stats.cycles, i));
        }
    }
    let (_, idx) = best.ok_or(PipelineError::Pnr(PnrError::Unplaceable(
        "no parallelization candidate simulated successfully".into(),
    )))?;
    Ok(candidates.swap_remove(idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nupea_kernels::workloads::sparse;

    #[test]
    fn end_to_end_spmv_validates_on_all_models() {
        let w = sparse::spmv(Scale::Test, 2);
        let sys = SystemConfig::monaco_12x12();
        let monaco = sys.compile(&w, Heuristic::CriticalityAware).unwrap();
        let baseline = sys.compile(&w, Heuristic::DomainUnaware).unwrap();
        for (compiled, model) in [
            (&monaco, MemoryModel::Nupea),
            (&baseline, MemoryModel::IDEAL),
            (&baseline, MemoryModel::Upea(2)),
            (&baseline, MemoryModel::NumaUpea(2)),
        ] {
            let stats = compiled.simulate(model).unwrap();
            assert!(stats.cycles > 0, "{model}: must take time");
            assert_eq!(stats.residual_tokens, 0, "{model}: balanced");
        }
    }

    #[test]
    fn traced_run_is_timing_identical_and_aggregates_exactly() {
        let w = sparse::spmv(Scale::Test, 1);
        let sys = SystemConfig::monaco_12x12();
        let c = sys.compile(&w, Heuristic::CriticalityAware).unwrap();
        let plain = c.simulate(MemoryModel::Nupea).unwrap();
        let out = c
            .simulate_with(&SimOptions::new(MemoryModel::Nupea).trace())
            .unwrap();
        let trace = out.trace.expect("trace was requested");
        assert_eq!(
            out.stats.cycles, plain.cycles,
            "tracing must not change timing"
        );
        assert_eq!(out.stats.firings, plain.firings);
        assert_eq!(trace.dropped, 0, "default capacity must hold a Test run");
        assert_eq!(
            trace.load_latency_by_domain(),
            out.stats.load_latency_by_domain
        );
        nupea_sim::validate_chrome_trace(&trace.to_chrome_json()).unwrap();
    }

    #[test]
    fn validate_rejects_degenerate_knobs_with_typed_errors() {
        let check = |mutate: fn(&mut SystemConfig), want: ConfigError| {
            let mut sys = SystemConfig::monaco_12x12();
            mutate(&mut sys);
            match sys.validate() {
                Err(PipelineError::InvalidConfig(got)) => assert_eq!(got, want),
                other => panic!("expected InvalidConfig({want}), got {other:?}"),
            }
            let w = sparse::spmv(Scale::Test, 1);
            assert!(
                sys.compile(&w, Heuristic::CriticalityAware).is_err(),
                "compile must refuse what validate refuses"
            );
        };
        check(|s| s.fifo_depth = 0, ConfigError::ZeroFifoDepth);
        check(|s| s.max_outstanding = 0, ConfigError::ZeroMaxOutstanding);
        check(|s| s.divider_override = Some(0), ConfigError::ZeroDivider);
        check(|s| s.mem.banks = 0, ConfigError::ZeroBanks);

        // ZeroDomains is defense-in-depth: every public fabric constructor
        // carries at least one memory domain (the engine no longer repairs
        // a zero silently with `.max(1)`), so assert the invariant the
        // validation backstops plus the typed error's rendering.
        for fabric in [
            Fabric::monaco(12, 12, 3).unwrap(),
            Fabric::monaco_with_domains(4, 8, 2, 1, 2).unwrap(),
            Fabric::clustered_single(4, 8, 2).unwrap(),
            Fabric::clustered_double(4, 8, 2).unwrap(),
        ] {
            assert!(fabric.num_domains() >= 1, "constructors guarantee domains");
        }
        assert_eq!(
            ConfigError::ZeroDomains.to_string(),
            "fabric must define at least one memory domain"
        );
        assert!(matches!(
            PipelineError::from(ConfigError::ZeroDomains),
            PipelineError::InvalidConfig(ConfigError::ZeroDomains)
        ));
    }

    #[test]
    fn upea_sweep_is_monotone_end_to_end() {
        let w = sparse::spmspv(Scale::Test, 1);
        let sys = SystemConfig::monaco_12x12();
        let c = sys.compile(&w, Heuristic::DomainUnaware).unwrap();
        let mut prev = 0;
        for n in 0..=4 {
            let stats = c.simulate(MemoryModel::Upea(n)).unwrap();
            assert!(
                stats.cycles >= prev,
                "UPEA{n} ({}) regressed under UPEA{} ({prev})",
                stats.cycles,
                n.saturating_sub(1)
            );
            prev = stats.cycles;
        }
    }

    #[test]
    fn sim_options_cover_the_old_entry_points() {
        let w = sparse::spmv(Scale::Test, 1);
        let sys = SystemConfig::monaco_12x12();
        let c = sys.compile(&w, Heuristic::CriticalityAware).unwrap();
        let plain = c.simulate(MemoryModel::Nupea).unwrap();

        // Defaults agree with the thin wrapper: no trace, and a final
        // memory image that passes the reference check.
        let out = c
            .simulate_with(&SimOptions::new(MemoryModel::Nupea))
            .unwrap();
        assert_eq!(out.stats.cycles, plain.cycles);
        assert!(out.trace.is_none());
        w.validate(&out.memory, &out.stats.sinks).unwrap();

        // Raw differential run: no validation changes nothing, final
        // memory included.
        let raw = c
            .simulate_with(&SimOptions::new(MemoryModel::Nupea).no_validate())
            .unwrap();
        assert_eq!(raw.stats.cycles, plain.cycles);
        assert_eq!(raw.memory, out.memory);

        // A one-cycle budget must hit the cycle limit, as
        // simulate_budgeted did.
        let err = c
            .simulate_with(&SimOptions::new(MemoryModel::Nupea).max_cycles(1))
            .unwrap_err();
        assert!(matches!(
            err,
            PipelineError::Sim(SimError::CycleLimit { .. })
        ));

        // Repeat runs are identical, not stale: the second run sees a
        // fresh image, not the first run's output.
        let again = c.simulate(MemoryModel::Nupea).unwrap();
        assert_eq!(again.cycles, plain.cycles);
        assert_eq!(again.sinks, plain.sinks);
    }

    #[test]
    fn pipeline_errors_chain_their_sources() {
        use std::error::Error as _;
        let w = sparse::spmv(Scale::Test, 1);
        let sys = SystemConfig::monaco_12x12();
        let err = PipelineError::from(PnrError::Unplaceable("too big".into()));
        assert!(err.source().is_some());
        // A wrong-workload bitstream is a Bitstream error with no source.
        let c = sys.compile(&w, Heuristic::CriticalityAware).unwrap();
        let text = c.bitstream();
        let other = sparse::spmspv(Scale::Test, 1);
        let e = simulate_bitstream(&other, &sys, &text, MemoryModel::Nupea).unwrap_err();
        assert!(matches!(e, PipelineError::Bitstream { .. }));
        assert!(e.source().is_none());
    }

    #[test]
    fn staged_program_runs_and_validates() {
        let sw = nupea_kernels::workloads::staged::ad_staged(Scale::Test, 1);
        let sys = SystemConfig::monaco_12x12();
        let arts = compile_staged(&sw, &sys, Heuristic::CriticalityAware).unwrap();
        let stats = simulate_staged(&sw, &arts, &sys, MemoryModel::Nupea, 500).unwrap();
        assert_eq!(stats.per_stage.len(), 4);
        assert_eq!(stats.reconfig_cycles, 2000);
        let sum: u64 = stats.per_stage.iter().map(|s| s.cycles).sum();
        assert_eq!(stats.total_cycles, sum + stats.reconfig_cycles);
        // Staged result must equal the monolithic kernel's result — both
        // validate against the same reference.
        let mono = nupea_kernels::workloads::nn::ad(Scale::Test, 1);
        let c = sys.compile(&mono, Heuristic::CriticalityAware).unwrap();
        c.simulate(MemoryModel::Nupea).unwrap();
    }

    #[test]
    fn bitstream_round_trip_reproduces_the_run() {
        let w = sparse::spmv(Scale::Test, 1);
        let sys = SystemConfig::monaco_12x12();
        let c = sys.compile(&w, Heuristic::CriticalityAware).unwrap();
        let direct = c.simulate(MemoryModel::Nupea).unwrap();
        let text = c.bitstream();
        let via_bs = simulate_bitstream(&w, &sys, &text, MemoryModel::Nupea).unwrap();
        assert_eq!(direct.cycles, via_bs.cycles);
        assert_eq!(direct.firings, via_bs.firings);
    }

    #[test]
    fn auto_parallelize_grows_until_fabric_full() {
        let spec = nupea_kernels::workloads::workload_by_name("dmv").unwrap();
        let sys = SystemConfig::monaco_12x12();
        let (w, c) =
            auto_parallelize(&spec, Scale::Test, &sys, Heuristic::CriticalityAware).unwrap();
        assert!(w.par >= 2, "dmv should parallelize beyond 1 on 12x12");
        let stats = c.simulate(MemoryModel::Nupea).unwrap();
        assert_eq!(stats.residual_tokens, 0);
    }
}
