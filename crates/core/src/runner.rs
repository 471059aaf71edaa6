//! Parallel experiment runner with compile-artifact caching.
//!
//! Every figure and ablation in the paper is a sweep: a cross product of
//! workloads × system configurations × placement heuristics × memory
//! models. Compiling (place-and-route with annealing) dominates the cost
//! of a sweep point, but it depends only on `(workload, system,
//! heuristic)` — the memory model is a simulation-time knob. The
//! [`ExperimentRunner`] therefore:
//!
//! 1. deduplicates sweep points into unique compile keys and runs PnR
//!    once per key, fanned out across a scoped thread pool;
//! 2. simulates every sweep point in parallel, sharing the compiled
//!    artifacts (`Arc`-backed, no re-clone of workload memory images);
//! 3. emits one structured [`RunRecord`] per point, in declaration order
//!    regardless of thread interleaving, with hand-rolled JSON and CSV
//!    export.
//!
//! Results are bit-identical for any thread count: compilation and
//! simulation are deterministic per point, and record order is fixed by
//! point declaration order, not completion order.
//!
//! ```no_run
//! use nupea::runner::ExperimentRunner;
//! use nupea::{MemoryModel, Scale, SystemConfig};
//!
//! let mut r = ExperimentRunner::new();
//! let sys = r.system(SystemConfig::monaco_12x12());
//! for spec in nupea::all_workloads() {
//!     let w = r.workload(spec.build_default(Scale::Test));
//!     r.model_sweep(w, sys, &[MemoryModel::IDEAL, MemoryModel::Nupea]);
//! }
//! let report = r.run();
//! println!("{}", report.to_csv());
//! ```

use crate::experiments::heuristic_for;
use crate::jsonl::{escape, format_f64};
use crate::{Compiled, PipelineError, SimOptions, SystemConfig, Workload};
use nupea_pnr::Heuristic;
use nupea_sim::{DomainLatency, EnergyBreakdown, MemoryModel, RunStats, SimError, TraceBuffer};
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Handle to a workload registered with an [`ExperimentRunner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadHandle(usize);

/// Handle to a system configuration registered with an
/// [`ExperimentRunner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemHandle(usize);

/// What must be recompiled: everything except the memory model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CompileKey {
    workload: usize,
    sys: usize,
    heuristic: Heuristic,
}

/// One declared sweep point.
#[derive(Debug, Clone, Copy)]
struct Point {
    workload: usize,
    sys: usize,
    heuristic: Heuristic,
    model: MemoryModel,
}

/// Coarse, machine-filterable classification of a failed sweep point,
/// derived from the underlying [`PipelineError`]. Exported alongside the
/// full error string in JSON/CSV so sweep post-processing can count
/// deadlocks, panics, and infeasible configs without string matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunErrorKind {
    /// Place-and-route failed (capacity or congestion).
    Pnr,
    /// The engine diagnosed a deadlock ([`SimError::Deadlock`]).
    Deadlock,
    /// The stall watchdog fired ([`SimError::Stalled`]).
    Stalled,
    /// The cycle cap / budget was exhausted.
    CycleLimit,
    /// A memory access faulted.
    MemoryFault,
    /// A param node had no bound value.
    UnboundParam,
    /// Another simulator error.
    Sim,
    /// Outputs did not match the reference.
    Validation,
    /// A bitstream failed to parse or match.
    Bitstream,
    /// A degenerate configuration was rejected up front.
    InvalidConfig,
    /// The point panicked and was isolated by the runner.
    Panic,
    /// The artifact cache's circuit breaker refused the compile.
    FastFailed,
}

impl RunErrorKind {
    /// Classify a pipeline error.
    #[must_use]
    pub fn of(e: &PipelineError) -> Self {
        match e {
            PipelineError::Pnr(_) => RunErrorKind::Pnr,
            PipelineError::Sim(SimError::Deadlock(_)) => RunErrorKind::Deadlock,
            PipelineError::Sim(SimError::Stalled { .. }) => RunErrorKind::Stalled,
            PipelineError::Sim(SimError::CycleLimit { .. }) => RunErrorKind::CycleLimit,
            PipelineError::Sim(SimError::Fault { .. }) => RunErrorKind::MemoryFault,
            PipelineError::Sim(SimError::UnboundParam(_)) => RunErrorKind::UnboundParam,
            PipelineError::Sim(_) => RunErrorKind::Sim,
            PipelineError::Validation(_) => RunErrorKind::Validation,
            PipelineError::Bitstream { .. } => RunErrorKind::Bitstream,
            PipelineError::InvalidConfig(_) => RunErrorKind::InvalidConfig,
            PipelineError::Panicked { .. } => RunErrorKind::Panic,
            PipelineError::FastFailed { .. } => RunErrorKind::FastFailed,
        }
    }

    /// The stable kebab-case label used in JSON and CSV exports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            RunErrorKind::Pnr => "pnr",
            RunErrorKind::Deadlock => "deadlock",
            RunErrorKind::Stalled => "stalled",
            RunErrorKind::CycleLimit => "cycle-limit",
            RunErrorKind::MemoryFault => "memory-fault",
            RunErrorKind::UnboundParam => "unbound-param",
            RunErrorKind::Sim => "sim",
            RunErrorKind::Validation => "validation",
            RunErrorKind::Bitstream => "bitstream",
            RunErrorKind::InvalidConfig => "invalid-config",
            RunErrorKind::Panic => "panicked",
            RunErrorKind::FastFailed => "fast-failed",
        }
    }

    /// Parse an exported label back into a kind (the inverse of
    /// [`RunErrorKind::label`]).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "pnr" => RunErrorKind::Pnr,
            "deadlock" => RunErrorKind::Deadlock,
            "stalled" => RunErrorKind::Stalled,
            "cycle-limit" => RunErrorKind::CycleLimit,
            "memory-fault" => RunErrorKind::MemoryFault,
            "unbound-param" => RunErrorKind::UnboundParam,
            "sim" => RunErrorKind::Sim,
            "validation" => RunErrorKind::Validation,
            "bitstream" => RunErrorKind::Bitstream,
            "invalid-config" => RunErrorKind::InvalidConfig,
            "panicked" => RunErrorKind::Panic,
            "fast-failed" => RunErrorKind::FastFailed,
            _ => return None,
        })
    }
}

impl fmt::Display for RunErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The structured result of one sweep point.
///
/// `compile_micros` / `sim_micros` are wall-clock and therefore vary run
/// to run; the default JSON/CSV exports exclude them so output is
/// bit-identical across thread counts and machines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct RunRecord {
    /// Workload name (Table 1).
    pub workload: String,
    /// Parallelism degree the workload was built with.
    pub par: usize,
    /// Placement heuristic used for this point's compile.
    pub heuristic: Heuristic,
    /// Memory model simulated.
    pub model: MemoryModel,
    /// Completion time in system cycles (0 when `error` is set).
    pub cycles: u64,
    /// Completion time in fabric cycles.
    pub fabric_cycles: u64,
    /// Clock divider used.
    pub divider: u64,
    /// Total instruction firings.
    pub firings: u64,
    /// Mean completed-load latency in system cycles, over all domains.
    pub mean_load_latency: f64,
    /// Load latency aggregated by the issuing PE's NUPEA domain.
    pub load_latency_by_domain: Vec<DomainLatency>,
    /// Cache hit rate.
    pub cache_hit_rate: f64,
    /// Memory requests issued.
    pub mem_requests: u64,
    /// Requests forwarded by the per-domain arbiters.
    pub arbiter_forwards: u64,
    /// Cycles requests spent waiting on busy banks.
    pub bank_wait_cycles: u64,
    /// Tokens left buffered at quiescence.
    pub residual_tokens: usize,
    /// PEs that fired at least one instruction.
    pub active_pes: usize,
    /// Mean firings per active PE per fabric cycle (0 when nothing ran).
    pub mean_pe_utilization: f64,
    /// Tokens carried by the single busiest NoC link.
    pub peak_link_tokens: u64,
    /// Energy consumed, by component (all zero when `error` is set).
    /// Exported in JSON/CSV so DSE objectives and sweep reports share one
    /// code path with the simulator's accounting.
    pub energy: EnergyBreakdown,
    /// Whether this point reused another point's compile artifact.
    pub compile_cached: bool,
    /// Whether the point exhausted its cycle budget and was re-run once at
    /// the raised cap.
    pub retried: bool,
    /// Path of this point's Chrome trace-event JSON, when the runner was
    /// given a trace directory ([`ExperimentRunner::trace_dir`]).
    pub trace_path: Option<String>,
    /// Wall-clock compile time of the shared artifact (µs).
    pub compile_micros: u64,
    /// Wall-clock simulation time of this point (µs).
    pub sim_micros: u64,
    /// Machine-filterable classification of `error`.
    pub error_kind: Option<RunErrorKind>,
    /// Pipeline failure, if the point did not complete.
    pub error: Option<String>,
}

impl RunRecord {
    fn failed(
        p: &Point,
        workload: &Workload,
        compile_micros: u64,
        cached: bool,
        err: &PipelineError,
    ) -> Self {
        RunRecord {
            workload: workload.name.to_string(),
            par: workload.par,
            heuristic: p.heuristic,
            model: p.model,
            cycles: 0,
            fabric_cycles: 0,
            divider: 0,
            firings: 0,
            mean_load_latency: 0.0,
            load_latency_by_domain: Vec::new(),
            cache_hit_rate: 0.0,
            mem_requests: 0,
            arbiter_forwards: 0,
            bank_wait_cycles: 0,
            residual_tokens: 0,
            active_pes: 0,
            mean_pe_utilization: 0.0,
            peak_link_tokens: 0,
            energy: EnergyBreakdown::default(),
            compile_cached: cached,
            retried: false,
            trace_path: None,
            compile_micros,
            sim_micros: 0,
            error_kind: Some(RunErrorKind::of(err)),
            error: Some(err.to_string()),
        }
    }

    fn completed(
        p: &Point,
        workload: &Workload,
        compile_micros: u64,
        cached: bool,
        stats: &RunStats,
        sim_micros: u64,
    ) -> Self {
        let (total, count) = stats
            .load_latency_by_domain
            .iter()
            .fold((0u64, 0u64), |(t, c), d| (t + d.total_latency, c + d.count));
        RunRecord {
            workload: workload.name.to_string(),
            par: workload.par,
            heuristic: p.heuristic,
            model: p.model,
            cycles: stats.cycles,
            fabric_cycles: stats.fabric_cycles,
            divider: stats.divider,
            firings: stats.firings,
            mean_load_latency: if count == 0 {
                0.0
            } else {
                total as f64 / count as f64
            },
            load_latency_by_domain: stats.load_latency_by_domain.clone(),
            cache_hit_rate: stats.cache_hit_rate,
            mem_requests: stats.mem.requests,
            arbiter_forwards: stats.mem.arbiter_forwards,
            bank_wait_cycles: stats.mem.bank_wait_cycles,
            residual_tokens: stats.residual_tokens,
            active_pes: stats.active_pes(),
            mean_pe_utilization: stats.mean_pe_utilization(),
            peak_link_tokens: stats.peak_link_tokens(),
            energy: stats.energy,
            compile_cached: cached,
            retried: false,
            trace_path: None,
            compile_micros,
            sim_micros,
            error_kind: None,
            error: None,
        }
    }
}

/// Results of an [`ExperimentRunner::run`]: one record per declared point
/// (in declaration order) plus compile-cache accounting.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RunnerReport {
    /// One record per declared sweep point, in declaration order.
    pub records: Vec<RunRecord>,
    /// Unique `(workload, system, heuristic)` compiles performed.
    pub pnr_compiles: usize,
    /// Sweep points that reused a cached compile artifact.
    pub cache_hits: usize,
    /// End-to-end wall-clock time of `run()`.
    pub wall: Duration,
}

impl RunnerReport {
    /// Deterministic JSON export (excludes wall-clock timing fields).
    #[must_use]
    pub fn to_json(&self) -> String {
        records_to_json(&self.records, false)
    }

    /// Deterministic CSV export (excludes wall-clock timing fields).
    #[must_use]
    pub fn to_csv(&self) -> String {
        records_to_csv(&self.records, false)
    }
}

/// A declarative sweep executor: register workloads and systems, declare
/// points, call [`ExperimentRunner::run`].
///
/// See the [module docs](self) for the execution model.
///
/// Execution is fault-tolerant: every compile and simulate runs under
/// `catch_unwind`, so a panicking point becomes an error record
/// ([`RunErrorKind::Panic`]) instead of aborting the sweep.
#[derive(Debug, Default)]
pub struct ExperimentRunner {
    workloads: Vec<Arc<Workload>>,
    systems: Vec<Arc<SystemConfig>>,
    points: Vec<Point>,
    threads: usize,
    cycle_budget: Option<u64>,
    retry: RetryPolicy,
    trace_dir: Option<PathBuf>,
}

/// How a point that exhausts its [`ExperimentRunner::cycle_budget`] is
/// retried before being recorded as a cycle-limit failure. No effect
/// without a cycle budget (the default runaway cap is never retried).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RetryPolicy {
    /// Record the cycle-limit failure immediately.
    None,
    /// Re-run once at `budget × factor` — the historical behavior and
    /// the default (with `factor` 64). A `factor <= 1` never retries.
    OneShot {
        /// Cap multiplier for the single retry.
        factor: u64,
    },
    /// Capped exponential backoff: re-run up to `max_retries` times,
    /// multiplying the cap by `factor` each time. Fault campaigns use
    /// this for hang re-checks — a genuinely hung injection keeps hitting
    /// the (cheap, watchdog-bounded) limit, while a merely slow one gets
    /// room to finish.
    Backoff {
        /// Cap multiplier per retry (`<= 1` never retries).
        factor: u64,
        /// Retries after the first run.
        max_retries: u32,
    },
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::OneShot { factor: 64 }
    }
}

impl RetryPolicy {
    /// Retries allowed after the first attempt under this policy (zero
    /// when the factor can't raise the cap, so callers never loop on a
    /// policy that re-runs at an unchanged limit).
    #[must_use]
    pub fn max_retries(&self) -> u32 {
        match *self {
            RetryPolicy::None => 0,
            RetryPolicy::OneShot { factor } => u32::from(factor > 1),
            RetryPolicy::Backoff {
                factor,
                max_retries,
            } => {
                if factor > 1 {
                    max_retries
                } else {
                    0
                }
            }
        }
    }

    /// The capped-exponential value for attempt `attempt` starting from
    /// `base` (attempt 0 = `base` itself, attempt n = `base × factorⁿ`).
    /// All arithmetic saturates, so arbitrarily high attempt counts
    /// plateau at `u64::MAX` instead of overflowing. Used for the raised
    /// cycle caps of budget re-runs (sweep points and the fault
    /// campaign's hang re-checks).
    #[must_use]
    pub fn backoff_cap(&self, base: u64, attempt: u32) -> u64 {
        let factor = match *self {
            RetryPolicy::None => 1,
            RetryPolicy::OneShot { factor } | RetryPolicy::Backoff { factor, .. } => factor,
        };
        base.saturating_mul(factor.max(1).saturating_pow(attempt))
    }
}

impl ExperimentRunner {
    /// An empty runner. Thread count defaults to the machine's available
    /// parallelism.
    #[must_use]
    pub fn new() -> Self {
        ExperimentRunner::default()
    }

    /// Set the worker thread count (`0` = available parallelism).
    pub fn threads(&mut self, n: usize) -> &mut Self {
        self.threads = n;
        self
    }

    /// Bound each point's simulation to `budget` system cycles instead of
    /// the default 2-billion-cycle runaway cap. A point that exhausts the
    /// budget is re-run at raised caps under the
    /// [`ExperimentRunner::retry_policy`] (by default once, at 64× the
    /// budget) before being recorded as a cycle-limit failure, so one
    /// slow outlier costs bounded wall clock but a mis-sized budget does
    /// not silently drop results.
    pub fn cycle_budget(&mut self, budget: u64) -> &mut Self {
        self.cycle_budget = Some(budget);
        self
    }

    /// Retry policy for budget-limited points (see [`RetryPolicy`];
    /// default [`RetryPolicy::OneShot`] with factor 64). Has no effect
    /// without [`ExperimentRunner::cycle_budget`].
    pub fn retry_policy(&mut self, policy: RetryPolicy) -> &mut Self {
        self.retry = policy;
        self
    }

    /// Write one Chrome trace-event JSON per completed point into `dir`
    /// (created on demand); each record's
    /// [`trace_path`](RunRecord::trace_path) then names its file, e.g.
    /// `spmspv-par2-effcc-nupea.trace.json`, loadable in ui.perfetto.dev.
    /// Tracing is forced on for the simulations but does not change
    /// timing, so exported cycle counts stay bit-identical to an untraced
    /// sweep.
    pub fn trace_dir(&mut self, dir: impl Into<PathBuf>) -> &mut Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Register a workload; the handle is valid for this runner only.
    pub fn workload(&mut self, w: Workload) -> WorkloadHandle {
        self.shared_workload(Arc::new(w))
    }

    /// Register an already-shared workload without cloning it.
    pub fn shared_workload(&mut self, w: Arc<Workload>) -> WorkloadHandle {
        self.workloads.push(w);
        WorkloadHandle(self.workloads.len() - 1)
    }

    /// Register a system configuration.
    pub fn system(&mut self, sys: SystemConfig) -> SystemHandle {
        self.shared_system(Arc::new(sys))
    }

    /// Register an already-shared system configuration without cloning it.
    pub fn shared_system(&mut self, sys: Arc<SystemConfig>) -> SystemHandle {
        self.systems.push(sys);
        SystemHandle(self.systems.len() - 1)
    }

    /// Declare one sweep point.
    pub fn point(
        &mut self,
        w: WorkloadHandle,
        s: SystemHandle,
        heuristic: Heuristic,
        model: MemoryModel,
    ) -> &mut Self {
        assert!(w.0 < self.workloads.len(), "unknown workload handle");
        assert!(s.0 < self.systems.len(), "unknown system handle");
        self.points.push(Point {
            workload: w.0,
            sys: s.0,
            heuristic,
            model,
        });
        self
    }

    /// Declare one point per memory model, using the paper's heuristic
    /// pairing ([`heuristic_for`]: effcc under NUPEA, domain-unaware
    /// under the uniform baselines). All points with the same heuristic
    /// share a single compile.
    pub fn model_sweep(
        &mut self,
        w: WorkloadHandle,
        s: SystemHandle,
        models: &[MemoryModel],
    ) -> &mut Self {
        for &m in models {
            self.point(w, s, heuristic_for(m), m);
        }
        self
    }

    /// Declare one point per heuristic under a fixed memory model
    /// (the Fig. 12 ablation shape).
    pub fn heuristic_sweep(
        &mut self,
        w: WorkloadHandle,
        s: SystemHandle,
        heuristics: &[Heuristic],
        model: MemoryModel,
    ) -> &mut Self {
        for &h in heuristics {
            self.point(w, s, h, model);
        }
        self
    }

    /// Number of declared sweep points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether any points have been declared.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    fn effective_threads(&self, work: usize) -> usize {
        let n = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        };
        n.min(work).max(1)
    }

    /// Execute every declared point and return records in declaration
    /// order. Failed points produce records with `error` set rather than
    /// aborting the sweep.
    #[must_use]
    pub fn run(&self) -> RunnerReport {
        let t_start = Instant::now();

        // Deduplicate points into compile keys; remember which point first
        // declared each key (that point is charged the compile, the rest
        // are cache hits).
        let mut keys: Vec<CompileKey> = Vec::new();
        let mut first_point: Vec<usize> = Vec::new();
        let mut key_of_point: Vec<usize> = Vec::with_capacity(self.points.len());
        for (pi, p) in self.points.iter().enumerate() {
            let k = CompileKey {
                workload: p.workload,
                sys: p.sys,
                heuristic: p.heuristic,
            };
            let ki = keys.iter().position(|&e| e == k).unwrap_or_else(|| {
                keys.push(k);
                first_point.push(pi);
                keys.len() - 1
            });
            key_of_point.push(ki);
        }

        // Phase 1: compile each unique key once, in parallel.
        let artifacts: Vec<(Result<Compiled, PipelineError>, u64)> =
            parallel_map(self.effective_threads(keys.len()), keys.len(), |i| {
                let k = keys[i];
                let t0 = Instant::now();
                // Panic isolation: a panicking compile becomes an error
                // artifact shared by its points, not a crash.
                let r = catch_unwind(AssertUnwindSafe(|| {
                    crate::compile_impl(
                        &self.workloads[k.workload],
                        &self.systems[k.sys],
                        k.heuristic,
                    )
                }))
                .unwrap_or_else(|payload| {
                    Err(PipelineError::Panicked {
                        message: panic_message(payload.as_ref()),
                    })
                });
                (r, t0.elapsed().as_micros() as u64)
            });

        // Phase 2: simulate every point in parallel against the shared
        // artifacts. The trace directory is created once up front; if that
        // fails the sweep still runs, records just carry no trace_path.
        let trace_dir: Option<&Path> = self
            .trace_dir
            .as_deref()
            .filter(|d| std::fs::create_dir_all(d).is_ok());
        let records: Vec<RunRecord> = parallel_map(
            self.effective_threads(self.points.len()),
            self.points.len(),
            |i| {
                let p = &self.points[i];
                let ki = key_of_point[i];
                let cached = first_point[ki] != i;
                let (artifact, compile_micros) = &artifacts[ki];
                let workload = &self.workloads[p.workload];
                match artifact {
                    Err(e) => RunRecord::failed(p, workload, *compile_micros, cached, e),
                    Ok(c) => {
                        let t0 = Instant::now();
                        let (out, retried) = simulate_point(
                            c,
                            p.model,
                            self.cycle_budget,
                            self.retry,
                            trace_dir.is_some(),
                        );
                        let sim_micros = t0.elapsed().as_micros() as u64;
                        let mut r = match out {
                            Ok((stats, trace)) => {
                                let mut r = RunRecord::completed(
                                    p,
                                    workload,
                                    *compile_micros,
                                    cached,
                                    &stats,
                                    sim_micros,
                                );
                                if let (Some(dir), Some(trace)) = (trace_dir, trace) {
                                    let path = dir.join(trace_file_name(&r));
                                    if std::fs::write(&path, trace.to_chrome_json()).is_ok() {
                                        r.trace_path = Some(path.to_string_lossy().into_owned());
                                    }
                                }
                                r
                            }
                            Err(e) => {
                                let mut r =
                                    RunRecord::failed(p, workload, *compile_micros, cached, &e);
                                r.sim_micros = sim_micros;
                                r
                            }
                        };
                        r.retried = retried;
                        r
                    }
                }
            },
        );

        RunnerReport {
            records,
            pnr_compiles: keys.len(),
            cache_hits: self.points.len() - keys.len(),
            wall: t_start.elapsed(),
        }
    }
}

/// Run `f(0)..f(n-1)` across up to `threads` scoped workers, returning
/// results in index order. Workers pull indices off a shared atomic
/// counter and fill fixed slots, so the output order (and everything
/// downstream) is independent of scheduling. This is the runner's fan-out
/// engine, shared with the fault campaign's injection sweep and the
/// serve frontend's batch executor.
pub fn parallel_map<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    let nthreads = threads.min(n).max(1);
    std::thread::scope(|sc| {
        for _ in 0..nthreads {
            sc.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                slots.lock().expect("parallel_map worker panicked")[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .expect("parallel_map worker panicked")
        .into_iter()
        .map(|s| s.expect("every index mapped"))
        .collect()
}

/// Extract a human-readable message from a panic payload (the payload is
/// a `&str` or `String` for every `panic!`/`assert!`-style panic).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// The deterministic trace file name of one completed point:
/// `<workload>-par<par>-<heuristic>-<model>.trace.json`, with every
/// component slugged down to `[a-z0-9-]`.
fn trace_file_name(r: &RunRecord) -> String {
    let slug = |s: &str| -> String {
        s.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect()
    };
    format!(
        "{}-par{}-{}-{}.trace.json",
        slug(&r.workload),
        r.par,
        slug(&r.heuristic.to_string()),
        slug(r.model.label().as_str())
    )
}

/// Run one sweep point with panic isolation and the optional cycle
/// budget. Returns the outcome (with the recorded trace when `want_trace`)
/// and whether any budget retry ran (i.e. the point re-ran at a raised
/// cap). The retry policy only applies to budget-limited runs.
fn simulate_point(
    c: &Compiled,
    model: MemoryModel,
    budget: Option<u64>,
    retry: RetryPolicy,
    want_trace: bool,
) -> (SimResult, bool) {
    let (base, retry) = match budget {
        Some(budget) => (budget, retry),
        None => (crate::DEFAULT_MAX_CYCLES, RetryPolicy::None),
    };
    rerun_on_cycle_limit(base, retry, |cap| catch_sim(c, model, cap, want_trace))
}

/// Run `attempt` at cycle cap `base`, then re-run it at the raised caps
/// of `policy` ([`RetryPolicy::backoff_cap`]) for as long as it hits the
/// cycle limit. Returns the last outcome and whether any re-run happened.
/// The one budget-retry rule, shared by sweep points and the fault
/// campaign's hang re-checks.
pub(crate) fn rerun_on_cycle_limit<T>(
    base: u64,
    policy: RetryPolicy,
    mut attempt: impl FnMut(u64) -> Result<T, PipelineError>,
) -> (Result<T, PipelineError>, bool) {
    let mut out = attempt(base);
    let mut retried = false;
    for n in 1..=policy.max_retries() {
        if !matches!(out, Err(PipelineError::Sim(SimError::CycleLimit { .. }))) {
            break;
        }
        out = attempt(policy.backoff_cap(base, n));
        retried = true;
    }
    (out, retried)
}

/// Simulate one already-compiled artifact and produce the same
/// [`RunRecord`] a declared sweep point would — the runner's record
/// constructors and retry/budget semantics behind a single-artifact
/// entry point, used by the serve frontend so its per-request responses
/// are byte-identical ([`records_to_json`]) to a batch sweep of the same
/// config. `compile_micros` is recorded as 0 and `compile_cached` as
/// `false`; callers that know better (the artifact cache) overwrite
/// them. The recorded trace is returned alongside when `want_trace`.
#[must_use]
pub fn run_compiled(
    c: &Compiled,
    model: MemoryModel,
    budget: Option<u64>,
    retry: RetryPolicy,
    want_trace: bool,
) -> (RunRecord, Option<TraceBuffer>) {
    let p = Point {
        workload: 0,
        sys: 0,
        heuristic: c.heuristic,
        model,
    };
    let t0 = Instant::now();
    let (out, retried) = simulate_point(c, model, budget, retry, want_trace);
    let sim_micros = t0.elapsed().as_micros() as u64;
    let (mut rec, trace) = match out {
        Ok((stats, trace)) => (
            RunRecord::completed(&p, c.workload(), 0, false, &stats, sim_micros),
            trace,
        ),
        Err(e) => {
            let mut r = RunRecord::failed(&p, c.workload(), 0, false, &e);
            r.sim_micros = sim_micros;
            (r, None)
        }
    };
    rec.retried = retried;
    (rec, trace)
}

type SimResult = Result<(RunStats, Option<TraceBuffer>), PipelineError>;

/// One simulate call under `catch_unwind`.
fn catch_sim(c: &Compiled, model: MemoryModel, cap: u64, want_trace: bool) -> SimResult {
    catch_unwind(AssertUnwindSafe(|| {
        let mut opts = SimOptions::new(model).max_cycles(cap);
        if want_trace {
            opts = opts.trace();
        }
        c.simulate_with(&opts).map(|out| (out.stats, out.trace))
    }))
    .unwrap_or_else(|payload| {
        Err(PipelineError::Panicked {
            message: panic_message(payload.as_ref()),
        })
    })
}

/// Serialize records to a JSON array (one object per record), hand-rolled
/// so the workspace stays dependency-free. With `timing` false the
/// wall-clock fields are omitted and the output is deterministic.
#[must_use]
pub fn records_to_json(records: &[RunRecord], timing: bool) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let domains: Vec<String> = r
            .load_latency_by_domain
            .iter()
            .map(|d| {
                format!(
                    "{{\"total_latency\":{},\"count\":{}}}",
                    d.total_latency, d.count
                )
            })
            .collect();
        let error = r
            .error
            .as_ref()
            .map_or_else(|| "null".to_string(), |e| format!("\"{}\"", escape(e)));
        out.push_str(&format!(
            "  {{\"workload\":\"{}\",\"par\":{},\"heuristic\":\"{}\",\"model\":\"{}\",\
             \"cycles\":{},\"fabric_cycles\":{},\"divider\":{},\"firings\":{},\
             \"mean_load_latency\":{},\"load_latency_by_domain\":[{}],\
             \"cache_hit_rate\":{},\"mem_requests\":{},\"arbiter_forwards\":{},\
             \"bank_wait_cycles\":{},\"residual_tokens\":{},\"active_pes\":{},\
             \"mean_pe_utilization\":{},\"peak_link_tokens\":{},\
             \"energy\":{{\"alu\":{},\"control\":{},\"mem_issue\":{},\"noc\":{},\
             \"fmnoc\":{},\"memory\":{},\"total\":{}}},\"compile_cached\":{}",
            escape(&r.workload),
            r.par,
            r.heuristic,
            r.model.label(),
            r.cycles,
            r.fabric_cycles,
            r.divider,
            r.firings,
            format_f64(r.mean_load_latency),
            domains.join(","),
            format_f64(r.cache_hit_rate),
            r.mem_requests,
            r.arbiter_forwards,
            r.bank_wait_cycles,
            r.residual_tokens,
            r.active_pes,
            format_f64(r.mean_pe_utilization),
            r.peak_link_tokens,
            format_f64(r.energy.alu),
            format_f64(r.energy.control),
            format_f64(r.energy.mem_issue),
            format_f64(r.energy.noc),
            format_f64(r.energy.fmnoc),
            format_f64(r.energy.memory),
            format_f64(r.energy.total()),
            r.compile_cached,
        ));
        out.push_str(&format!(",\"retried\":{}", r.retried));
        let trace_path = r
            .trace_path
            .as_ref()
            .map_or_else(|| "null".to_string(), |p| format!("\"{}\"", escape(p)));
        out.push_str(&format!(",\"trace_path\":{trace_path}"));
        if timing {
            out.push_str(&format!(
                ",\"compile_micros\":{},\"sim_micros\":{}",
                r.compile_micros, r.sim_micros
            ));
        }
        let error_kind = r
            .error_kind
            .map_or_else(|| "null".to_string(), |k| format!("\"{}\"", k.label()));
        out.push_str(&format!(",\"error_kind\":{error_kind},\"error\":{error}}}"));
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

/// Quote a CSV cell if it contains a delimiter, quote, or newline.
fn csv_cell(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Serialize records to CSV with a header row. Per-domain latency is
/// packed into one cell as `total:count` pairs joined by `|`. With
/// `timing` false the wall-clock columns are omitted and the output is
/// deterministic.
#[must_use]
pub fn records_to_csv(records: &[RunRecord], timing: bool) -> String {
    let mut out = String::from(
        "workload,par,heuristic,model,cycles,fabric_cycles,divider,firings,\
         mean_load_latency,cache_hit_rate,mem_requests,arbiter_forwards,\
         bank_wait_cycles,residual_tokens,active_pes,mean_pe_utilization,\
         peak_link_tokens,energy_alu,energy_control,energy_mem_issue,energy_noc,\
         energy_fmnoc,energy_memory,energy_total,load_latency_by_domain,\
         compile_cached,retried,trace_path",
    );
    if timing {
        out.push_str(",compile_micros,sim_micros");
    }
    out.push_str(",error_kind,error\n");
    for r in records {
        let domains: Vec<String> = r
            .load_latency_by_domain
            .iter()
            .map(|d| format!("{}:{}", d.total_latency, d.count))
            .collect();
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            csv_cell(&r.workload),
            r.par,
            r.heuristic,
            csv_cell(r.model.label().as_str()),
            r.cycles,
            r.fabric_cycles,
            r.divider,
            r.firings,
            format_f64(r.mean_load_latency),
            format_f64(r.cache_hit_rate),
            r.mem_requests,
            r.arbiter_forwards,
            r.bank_wait_cycles,
            r.residual_tokens,
            r.active_pes,
            format_f64(r.mean_pe_utilization),
            r.peak_link_tokens,
            format_f64(r.energy.alu),
            format_f64(r.energy.control),
            format_f64(r.energy.mem_issue),
            format_f64(r.energy.noc),
            format_f64(r.energy.fmnoc),
            format_f64(r.energy.memory),
            format_f64(r.energy.total()),
            csv_cell(&domains.join("|")),
            r.compile_cached,
        ));
        out.push_str(&format!(",{}", r.retried));
        out.push(',');
        out.push_str(&csv_cell(r.trace_path.as_deref().unwrap_or("")));
        if timing {
            out.push_str(&format!(",{},{}", r.compile_micros, r.sim_micros));
        }
        out.push(',');
        out.push_str(r.error_kind.map_or("", |k| k.label()));
        out.push(',');
        out.push_str(&csv_cell(r.error.as_deref().unwrap_or("")));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> RunRecord {
        RunRecord {
            workload: "spmv".to_string(),
            par: 2,
            heuristic: Heuristic::CriticalityAware,
            model: MemoryModel::Nupea,
            cycles: 1234,
            fabric_cycles: 617,
            divider: 2,
            firings: 999,
            mean_load_latency: 12.5,
            load_latency_by_domain: vec![
                DomainLatency {
                    total_latency: 80,
                    count: 8,
                },
                DomainLatency {
                    total_latency: 20,
                    count: 1,
                },
            ],
            cache_hit_rate: 0.75,
            mem_requests: 40,
            arbiter_forwards: 11,
            bank_wait_cycles: 7,
            residual_tokens: 0,
            active_pes: 3,
            mean_pe_utilization: 0.5,
            peak_link_tokens: 42,
            energy: EnergyBreakdown {
                alu: 10.0,
                control: 1.5,
                mem_issue: 20.0,
                noc: 6.0,
                fmnoc: 2.5,
                memory: 60.0,
            },
            compile_cached: false,
            retried: false,
            trace_path: None,
            compile_micros: 5000,
            sim_micros: 300,
            error_kind: None,
            error: None,
        }
    }

    #[test]
    fn json_golden_matches() {
        let want = "[\n  {\"workload\":\"spmv\",\"par\":2,\"heuristic\":\"effcc\",\
                    \"model\":\"NUPEA\",\"cycles\":1234,\"fabric_cycles\":617,\
                    \"divider\":2,\"firings\":999,\"mean_load_latency\":12.5,\
                    \"load_latency_by_domain\":[{\"total_latency\":80,\"count\":8},\
                    {\"total_latency\":20,\"count\":1}],\"cache_hit_rate\":0.75,\
                    \"mem_requests\":40,\"arbiter_forwards\":11,\"bank_wait_cycles\":7,\
                    \"residual_tokens\":0,\"active_pes\":3,\"mean_pe_utilization\":0.5,\
                    \"peak_link_tokens\":42,\"energy\":{\"alu\":10,\"control\":1.5,\
                    \"mem_issue\":20,\"noc\":6,\"fmnoc\":2.5,\"memory\":60,\"total\":100},\
                    \"compile_cached\":false,\"retried\":false,\
                    \"trace_path\":null,\"error_kind\":null,\"error\":null}\n]";
        assert_eq!(records_to_json(&[sample_record()], false), want);
    }

    #[test]
    fn json_timing_adds_wall_clock_fields() {
        let with = records_to_json(&[sample_record()], true);
        assert!(with.contains("\"compile_micros\":5000"));
        assert!(with.contains("\"sim_micros\":300"));
        assert!(!records_to_json(&[sample_record()], false).contains("micros"));
    }

    #[test]
    fn csv_golden_matches() {
        let want = "workload,par,heuristic,model,cycles,fabric_cycles,divider,firings,\
             mean_load_latency,cache_hit_rate,mem_requests,arbiter_forwards,\
             bank_wait_cycles,residual_tokens,active_pes,mean_pe_utilization,\
             peak_link_tokens,energy_alu,energy_control,energy_mem_issue,energy_noc,\
             energy_fmnoc,energy_memory,energy_total,load_latency_by_domain,\
             compile_cached,retried,trace_path,error_kind,error\n\
             spmv,2,effcc,NUPEA,1234,617,2,999,12.5,0.75,40,11,7,0,3,0.5,42,\
             10,1.5,20,6,2.5,60,100,80:8|20:1,false,false,,,\n";
        assert_eq!(records_to_csv(&[sample_record()], false), want);
    }

    #[test]
    fn retry_policy_defaults_to_one_shot_and_is_settable() {
        let mut runner = ExperimentRunner::new();
        assert_eq!(runner.retry, RetryPolicy::OneShot { factor: 64 });
        runner.retry_policy(RetryPolicy::Backoff {
            factor: 4,
            max_retries: 3,
        });
        assert_eq!(
            runner.retry,
            RetryPolicy::Backoff {
                factor: 4,
                max_retries: 3
            }
        );
    }

    #[test]
    fn retry_policies_govern_budget_limited_reruns() {
        let w = nupea_kernels::workloads::sparse::spmv(crate::Scale::Test, 1);
        let sys = SystemConfig::monaco_12x12();
        let c = sys.compile(&w, Heuristic::CriticalityAware).unwrap();
        // A 10-cycle budget cannot complete spmv.
        let (out, retried) =
            simulate_point(&c, MemoryModel::Nupea, Some(10), RetryPolicy::None, false);
        assert!(
            matches!(out, Err(PipelineError::Sim(SimError::CycleLimit { .. }))),
            "None records the limit immediately"
        );
        assert!(!retried);
        // Backoff with a big enough factor climbs to a workable cap.
        let (out, retried) = simulate_point(
            &c,
            MemoryModel::Nupea,
            Some(10),
            RetryPolicy::Backoff {
                factor: 100,
                max_retries: 4,
            },
            false,
        );
        assert!(out.is_ok(), "10 * 100^4 cycles is plenty for Test spmv");
        assert!(retried, "the backoff path must mark the record retried");
        // Without a budget the policy never applies: the default runaway
        // cap is never retried.
        let (out, retried) = simulate_point(
            &c,
            MemoryModel::Nupea,
            None,
            RetryPolicy::Backoff {
                factor: 100,
                max_retries: 4,
            },
            false,
        );
        assert!(out.is_ok());
        assert!(!retried);
    }

    #[test]
    fn error_kind_labels_round_trip() {
        let kinds = [
            RunErrorKind::Pnr,
            RunErrorKind::Deadlock,
            RunErrorKind::Stalled,
            RunErrorKind::CycleLimit,
            RunErrorKind::MemoryFault,
            RunErrorKind::UnboundParam,
            RunErrorKind::Sim,
            RunErrorKind::Validation,
            RunErrorKind::Bitstream,
            RunErrorKind::InvalidConfig,
            RunErrorKind::Panic,
        ];
        for k in kinds {
            assert_eq!(RunErrorKind::parse(k.label()), Some(k), "{k}");
        }
        assert_eq!(RunErrorKind::parse("nonsense"), None);
    }

    #[test]
    fn error_kind_round_trips_through_csv_and_json() {
        let mut r = sample_record();
        r.cycles = 0;
        r.retried = true;
        r.error_kind = Some(RunErrorKind::Deadlock);
        r.error = Some("deadlock at cycle 42: 2 stalled node(s)".to_string());

        let json = records_to_json(&[r.clone()], false);
        assert!(json.contains("\"error_kind\":\"deadlock\""), "{json}");
        assert!(json.contains("\"retried\":true"), "{json}");

        let csv = records_to_csv(&[r], false);
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        let kind_col = header.iter().position(|&h| h == "error_kind").unwrap();
        let retried_col = header.iter().position(|&h| h == "retried").unwrap();
        let row: Vec<&str> = lines.next().unwrap().split(',').collect();
        assert_eq!(
            RunErrorKind::parse(row[kind_col]),
            Some(RunErrorKind::Deadlock)
        );
        assert_eq!(row[retried_col], "true");
    }

    #[test]
    fn error_kind_classifies_pipeline_errors() {
        use nupea_sim::ConfigError;
        let e = PipelineError::Panicked {
            message: "boom".to_string(),
        };
        assert_eq!(RunErrorKind::of(&e), RunErrorKind::Panic);
        let e = PipelineError::InvalidConfig(ConfigError::ZeroFifoDepth);
        assert_eq!(RunErrorKind::of(&e), RunErrorKind::InvalidConfig);
        let e = PipelineError::Sim(SimError::CycleLimit { limit: 5 });
        assert_eq!(RunErrorKind::of(&e), RunErrorKind::CycleLimit);
    }

    #[test]
    fn trace_dir_writes_chrome_traces_and_records_paths() {
        let dir = std::env::temp_dir().join(format!("nupea-runner-trace-{}", std::process::id()));
        let mut runner = ExperimentRunner::new();
        let sys = runner.system(SystemConfig::monaco_12x12());
        let w = runner.workload(nupea_kernels::workloads::sparse::spmv(
            crate::Scale::Test,
            1,
        ));
        runner.model_sweep(w, sys, &[MemoryModel::Nupea]);
        runner.trace_dir(&dir);
        let report = runner.run();
        let rec = &report.records[0];
        assert!(rec.error.is_none(), "{:?}", rec.error);
        assert!(rec.active_pes > 0);
        assert!(rec.mean_pe_utilization > 0.0);
        assert!(rec.energy.total() > 0.0, "runner surfaces energy");
        let path = rec.trace_path.as_ref().expect("trace file recorded");
        assert!(path.ends_with("spmv-par1-effcc-nupea.trace.json"), "{path}");
        let text = std::fs::read_to_string(path).unwrap();
        nupea_sim::validate_chrome_trace(&text).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_quotes_cells_with_delimiters() {
        let mut r = sample_record();
        r.error = Some("bad, \"quoted\" thing".to_string());
        let csv = records_to_csv(&[r], false);
        assert!(csv.ends_with(",\"bad, \"\"quoted\"\" thing\"\n"));
    }

    /// A minimal RFC-4180 reader for the round-trip tests: handles
    /// quoted cells with embedded commas, doubled quotes, and newlines.
    fn parse_csv(text: &str) -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        let mut row = Vec::new();
        let mut cell = String::new();
        let mut in_quotes = false;
        let mut chars = text.chars().peekable();
        while let Some(c) = chars.next() {
            if in_quotes {
                if c == '"' {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cell.push('"');
                    } else {
                        in_quotes = false;
                    }
                } else {
                    cell.push(c);
                }
            } else {
                match c {
                    '"' => in_quotes = true,
                    ',' => row.push(std::mem::take(&mut cell)),
                    '\n' => {
                        row.push(std::mem::take(&mut cell));
                        rows.push(std::mem::take(&mut row));
                    }
                    '\r' => {}
                    _ => cell.push(c),
                }
            }
        }
        if !cell.is_empty() || !row.is_empty() {
            row.push(cell);
            rows.push(row);
        }
        rows
    }

    #[test]
    fn csv_round_trips_hostile_error_strings_field_by_field() {
        let mut r = sample_record();
        r.cycles = 0;
        r.error_kind = Some(RunErrorKind::Panic);
        r.error = Some("line one,\nline two with \"quotes\", a comma, and\r\na CRLF".to_string());
        r.trace_path = Some("/tmp/traces/spmv,par2 \"x\".trace.json".to_string());
        let clean = sample_record();

        let csv = records_to_csv(&[r.clone(), clean.clone()], false);
        let rows = parse_csv(&csv);
        assert_eq!(
            rows.len(),
            3,
            "header + 2 records despite embedded newlines"
        );
        let header = &rows[0];
        let col = |name: &str| {
            header
                .iter()
                .position(|h| h == name)
                .unwrap_or_else(|| panic!("column {name}"))
        };

        // Hostile record: every escaped cell comes back verbatim.
        let row = &rows[1];
        assert_eq!(row.len(), header.len());
        assert_eq!(row[col("workload")], r.workload);
        assert_eq!(row[col("error")], r.error.as_deref().unwrap());
        assert_eq!(row[col("trace_path")], r.trace_path.as_deref().unwrap());
        assert_eq!(row[col("error_kind")], "panicked");
        assert_eq!(row[col("cycles")], "0");
        assert_eq!(row[col("par")], "2");
        assert_eq!(row[col("model")], "NUPEA");
        assert_eq!(row[col("load_latency_by_domain")], "80:8|20:1");

        // Clean record: empty optionals stay empty, numbers unharmed.
        let row = &rows[2];
        assert_eq!(row.len(), header.len());
        assert_eq!(row[col("error")], "");
        assert_eq!(row[col("error_kind")], "");
        assert_eq!(row[col("trace_path")], "");
        assert_eq!(row[col("cycles")], "1234");
        assert_eq!(row[col("energy_total")], "100");
        assert_eq!(row[col("compile_cached")], "false");
    }

    #[test]
    fn csv_cell_quotes_exactly_the_hostile_cells() {
        assert_eq!(csv_cell("plain"), "plain");
        assert_eq!(csv_cell(""), "");
        assert_eq!(csv_cell("a,b"), "\"a,b\"");
        assert_eq!(csv_cell("a\"b"), "\"a\"\"b\"");
        assert_eq!(csv_cell("a\nb"), "\"a\nb\"");
        assert_eq!(csv_cell("a\rb"), "\"a\rb\"");
        for s in ["a,b", "he said \"no\"", "x\ny", "mix,\"of\"\nall\r"] {
            let parsed = parse_csv(&format!("{}\n", csv_cell(s)));
            assert_eq!(parsed[0][0], s, "round-trip of {s:?}");
        }
    }

    #[test]
    fn run_compiled_matches_the_batch_runner_record() {
        let w = nupea_kernels::workloads::sparse::spmv(crate::Scale::Test, 1);
        let sys = SystemConfig::monaco_12x12();
        let c = sys.compile(&w, Heuristic::CriticalityAware).unwrap();
        let (rec, trace) = run_compiled(&c, MemoryModel::Nupea, None, RetryPolicy::None, false);
        assert!(trace.is_none());

        let mut runner = ExperimentRunner::new();
        let sh = runner.system(sys);
        let wh = runner.workload(w);
        runner.point(wh, sh, Heuristic::CriticalityAware, MemoryModel::Nupea);
        let batch = runner.run().records.into_iter().next().unwrap();

        // The deterministic export (which excludes wall-clock micros)
        // must agree byte for byte — the serve frontend's contract.
        assert_eq!(
            records_to_json(&[rec], false),
            records_to_json(&[batch], false)
        );
    }

    #[test]
    fn backoff_cap_saturates_at_high_attempt_counts() {
        let p = RetryPolicy::Backoff {
            factor: 4,
            max_retries: u32::MAX,
        };
        assert_eq!(p.backoff_cap(1_000, 0), 1_000);
        assert_eq!(p.backoff_cap(1_000, 1), 4_000);
        assert_eq!(p.backoff_cap(1_000, 3), 64_000);
        // 4^32 overflows u64; the cap must plateau, not wrap or panic —
        // a lease-contention loop can legitimately reach huge attempts.
        assert_eq!(p.backoff_cap(1_000, 32), u64::MAX);
        assert_eq!(p.backoff_cap(1_000, 10_000), u64::MAX);
        assert_eq!(p.backoff_cap(u64::MAX, 1), u64::MAX);
        assert_eq!(p.backoff_cap(0, 10_000), 0);
    }

    #[test]
    fn backoff_cap_degenerate_policies() {
        assert_eq!(RetryPolicy::None.backoff_cap(500, 7), 500);
        assert_eq!(RetryPolicy::None.max_retries(), 0);
        let one = RetryPolicy::OneShot { factor: 64 };
        assert_eq!(one.max_retries(), 1);
        assert_eq!(one.backoff_cap(10, 1), 640);
        // factor <= 1 can't raise the cap: no retries, identity cap.
        let flat = RetryPolicy::Backoff {
            factor: 1,
            max_retries: 9,
        };
        assert_eq!(flat.max_retries(), 0);
        assert_eq!(flat.backoff_cap(10, 10_000), 10);
        assert_eq!(RetryPolicy::OneShot { factor: 0 }.max_retries(), 0);
        assert_eq!(RetryPolicy::OneShot { factor: 0 }.backoff_cap(10, 3), 10);
    }
}
