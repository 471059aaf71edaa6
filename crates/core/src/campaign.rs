//! Fault-injection campaigns with graceful degradation (DESIGN.md §9).
//!
//! A [`FaultCampaign`] closes the resilience loop that PR 2's detection
//! machinery opened: it samples hundreds of seeded injections from a
//! [`FaultPlan`], runs each against the compiled workload, classifies
//! what the system did about it, and — for detected resource faults —
//! exercises **spare-PE recovery**: the failed resources become a
//! [`crate::SystemConfig::avoid`] set, placement re-runs around them
//! (critical loads keep their NUPEA domain when spare slots exist, and
//! fall back to the next-best domain with a logged criticality
//! downgrade), and the recovered run's degraded-mode slowdown is
//! measured against the fault-free golden run.
//!
//! Outcome classes, per injection:
//!
//! - [`OutcomeClass::Masked`] — the injected run completed and its sink
//!   streams *and* final memory are bit-identical to the golden run.
//! - [`OutcomeClass::Recovered`] — the fault was detected (watchdog
//!   stall, deadlock, memory fault, exhausted cycle budget, or a
//!   differential output mismatch) and recovery produced golden-identical
//!   outputs: re-place-and-route around the avoid-set for resource
//!   faults, plain re-execution for transients.
//! - [`OutcomeClass::Hang`] — detected but not recovered: the avoid-set
//!   does not fit ([`nupea_pnr::PnrError::Unplaceable`]), the recovered
//!   run still mismatched, or the fault has no spare resource (a failed
//!   memory bank).
//! - [`OutcomeClass::Sdc`] — silent data corruption: a *transient* fault
//!   completed with no error signal but wrong outputs, caught only by
//!   the campaign's differential sink/memory comparison. Resource faults
//!   that complete with wrong outputs are *detected* by that same
//!   comparison (it is one of the deployment-side detectors), so only
//!   transients can land here — which is why the PE-failures-only smoke
//!   preset asserts zero SDCs.
//!
//! Determinism: the injection set is a pure function of `(seed,
//! workload, index)` and every simulation is deterministic, so the same
//! seed and plan reproduce a byte-identical resilience report. Campaigns
//! journal per-injection records through [`crate::jsonl`], making long
//! sweeps kill-and-resume safe exactly like DSE searches. As a
//! [`CampaignJob`], a campaign also runs sharded across worker processes
//! through [`crate::shard`].

use crate::jsonl::{self, JsonlFile};
use crate::runner::{parallel_map, rerun_on_cycle_limit, RetryPolicy, RunErrorKind};
use crate::shard::{Incomplete, ShardJob};
use crate::{Compiled, Heuristic, PipelineError, SimOptions, SystemConfig};
use nupea_fabric::{DomainId, Fabric, PeId};
use nupea_kernels::workloads::{all_workloads, Scale, Workload};
use nupea_sim::{
    FaultClasses, FaultConfig, FaultContext, FaultKind, FaultPlan, MemoryModel, RunStats, SimMemory,
};
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;

/// What the system did about one injected fault (see the
/// [module docs](self) for the full semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutcomeClass {
    /// Completed with golden-identical outputs.
    Masked,
    /// Detected, and recovery reproduced the golden outputs.
    Recovered,
    /// Detected, but not recovered.
    Hang,
    /// Completed silently with wrong outputs (transient corruption).
    Sdc,
}

impl OutcomeClass {
    /// All classes, in report order.
    pub const ALL: [OutcomeClass; 4] = [
        OutcomeClass::Masked,
        OutcomeClass::Recovered,
        OutcomeClass::Hang,
        OutcomeClass::Sdc,
    ];

    /// Stable journal/CSV label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            OutcomeClass::Masked => "masked",
            OutcomeClass::Recovered => "recovered",
            OutcomeClass::Hang => "hang",
            OutcomeClass::Sdc => "sdc",
        }
    }

    /// Inverse of [`OutcomeClass::label`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        OutcomeClass::ALL.into_iter().find(|c| c.label() == s)
    }
}

impl fmt::Display for OutcomeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How the recovery attempt for one detected fault went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryOutcome {
    /// No recovery was attempted (masked or silent outcomes, or a fault
    /// with no spare resource to fall back on).
    NotApplicable,
    /// Re-placed around the avoid-set; outputs matched golden.
    Replaced,
    /// Transient fault; plain re-execution matched golden.
    Retried,
    /// The avoid-set exhausted fabric capacity
    /// ([`nupea_pnr::PnrError::Unplaceable`]).
    Unplaceable,
    /// Recovery ran but its outputs still mismatched golden.
    StillWrong,
}

impl RecoveryOutcome {
    /// All outcomes, in a stable order.
    pub const ALL: [RecoveryOutcome; 5] = [
        RecoveryOutcome::NotApplicable,
        RecoveryOutcome::Replaced,
        RecoveryOutcome::Retried,
        RecoveryOutcome::Unplaceable,
        RecoveryOutcome::StillWrong,
    ];

    /// Stable journal/CSV label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryOutcome::NotApplicable => "none",
            RecoveryOutcome::Replaced => "replaced",
            RecoveryOutcome::Retried => "retried",
            RecoveryOutcome::Unplaceable => "unplaceable",
            RecoveryOutcome::StillWrong => "still-wrong",
        }
    }

    /// Inverse of [`RecoveryOutcome::label`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        RecoveryOutcome::ALL.into_iter().find(|r| r.label() == s)
    }
}

impl fmt::Display for RecoveryOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Campaign parameters. Start from [`CampaignConfig::smoke`] or
/// [`CampaignConfig::full`] and adjust fields directly.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CampaignConfig {
    /// Master seed for the [`FaultPlan`] (and the journal guard).
    pub seed: u64,
    /// Fault classes the plan samples from.
    pub classes: FaultClasses,
    /// Injections per workload.
    pub injections: u32,
    /// Placement heuristic for golden compiles and recovery re-places.
    pub heuristic: Heuristic,
    /// Memory model for every run.
    pub model: MemoryModel,
    /// Workload scale (campaigns default to `Scale::Test`).
    pub scale: Scale,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Journal path for kill-and-resume campaigns (None = in-memory).
    pub journal: Option<PathBuf>,
}

impl CampaignConfig {
    /// The CI smoke preset: PE failures only (always detectable, always
    /// placement-recoverable, never an SDC), one injection per workload,
    /// fixed seed.
    #[must_use]
    pub fn smoke() -> Self {
        CampaignConfig {
            seed: 0xFA_017,
            classes: FaultClasses::PE_FAILURES,
            injections: 1,
            heuristic: Heuristic::CriticalityAware,
            model: MemoryModel::Nupea,
            scale: Scale::Test,
            threads: 0,
            journal: None,
        }
    }

    /// The full preset: every fault class, a couple dozen injections per
    /// workload — hundreds of seeded injections across Table 1.
    #[must_use]
    pub fn full() -> Self {
        CampaignConfig {
            classes: FaultClasses::ALL,
            injections: 24,
            ..CampaignConfig::smoke()
        }
    }
}

/// Watchdog quiescence window for *injected* runs — small, so hangs are
/// detected quickly instead of spinning to the cycle budget.
const STALL_WINDOW: u64 = 20_000;
/// Injected-run cycle budget as a multiple of the golden run's cycles
/// (plus one stall window of slack).
const BUDGET_FACTOR: u64 = 4;
/// Capped-backoff re-checks when an injected run exhausts its budget
/// (each re-check multiplies the budget by 4): distinguishes "very slow
/// but alive" from a genuine hang.
const MAX_RECHECKS: u32 = 2;

/// One classified injection. Every field is journal-stable (labels and
/// integers only, no free-text error strings), so a journal-resumed
/// campaign reproduces a byte-identical report.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionRecord {
    /// Workload name.
    pub workload: String,
    /// Injection index within the workload (plan input).
    pub index: u32,
    /// The injected fault.
    pub fault: FaultKind,
    /// Classified outcome.
    pub outcome: OutcomeClass,
    /// The detection signal's error kind, when detection was an error
    /// (None for masked/SDC outcomes and differential-mismatch
    /// detections).
    pub error: Option<RunErrorKind>,
    /// How the recovery attempt went.
    pub recovery: RecoveryOutcome,
    /// Fault-free golden completion time (system cycles).
    pub golden_cycles: u64,
    /// Injected-run completion time, when it completed.
    pub injected_cycles: Option<u64>,
    /// Recovered-run completion time, for recovered outcomes.
    pub recovered_cycles: Option<u64>,
    /// Critical loads whose recovered placement landed in a slower
    /// NUPEA domain than the original (logged criticality downgrades).
    pub downgrades: u32,
}

impl InjectionRecord {
    /// Degraded-mode cycle ratio vs the golden run: recovered/golden for
    /// recovered outcomes, injected/golden for runs that completed,
    /// None for hangs.
    #[must_use]
    pub fn slowdown(&self) -> Option<f64> {
        let num = match self.outcome {
            OutcomeClass::Recovered => self.recovered_cycles?,
            OutcomeClass::Masked | OutcomeClass::Sdc => self.injected_cycles?,
            OutcomeClass::Hang => return None,
        };
        // golden_cycles > 0 for any run that produced work.
        Some(num as f64 / self.golden_cycles.max(1) as f64)
    }

    /// One flat JSON object, also the journal line format. `seed` guards
    /// journal replay against stale files from a different plan.
    #[must_use]
    pub fn to_line(&self, seed: u64) -> String {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |x| x.to_string());
        format!(
            concat!(
                "{{\"workload\":\"{}\",\"index\":{},\"seed\":{},\"fault\":\"{}\",",
                "\"outcome\":\"{}\",\"error\":{},\"recovery\":\"{}\",",
                "\"golden_cycles\":{},\"injected_cycles\":{},\"recovered_cycles\":{},",
                "\"downgrades\":{}}}"
            ),
            self.workload,
            self.index,
            seed,
            self.fault.desc(),
            self.outcome.label(),
            self.error
                .map_or_else(|| "null".to_string(), |e| format!("\"{}\"", e.label())),
            self.recovery.label(),
            self.golden_cycles,
            opt(self.injected_cycles),
            opt(self.recovered_cycles),
            self.downgrades,
        )
    }

    /// Parse a journal line back into `(seed, record)`. None for
    /// anything malformed (torn tails must not be fatal).
    #[must_use]
    pub fn parse_line(line: &str) -> Option<(u64, InjectionRecord)> {
        let seed = jsonl::u64_field(line, "seed")?;
        let opt = |k: &str| -> Option<Option<u64>> {
            match jsonl::field(line, k)?.as_str() {
                "null" => Some(None),
                v => Some(Some(v.parse().ok()?)),
            }
        };
        let error = match jsonl::field(line, "error")?.as_str() {
            "null" => None,
            _ => Some(RunErrorKind::parse(&jsonl::string_field(line, "error")?)?),
        };
        Some((
            seed,
            InjectionRecord {
                workload: jsonl::string_field(line, "workload")?,
                index: u32::try_from(jsonl::u64_field(line, "index")?).ok()?,
                fault: FaultKind::parse_desc(&jsonl::string_field(line, "fault")?)?,
                outcome: OutcomeClass::parse(&jsonl::string_field(line, "outcome")?)?,
                error,
                recovery: RecoveryOutcome::parse(&jsonl::string_field(line, "recovery")?)?,
                golden_cycles: jsonl::u64_field(line, "golden_cycles")?,
                injected_cycles: opt("injected_cycles")?,
                recovered_cycles: opt("recovered_cycles")?,
                downgrades: u32::try_from(jsonl::u64_field(line, "downgrades")?).ok()?,
            },
        ))
    }
}

/// The resilience report: every classified injection plus aggregates.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The plan seed the campaign ran with.
    pub seed: u64,
    /// Classified injections, in (workload, index) order.
    pub records: Vec<InjectionRecord>,
}

impl CampaignReport {
    /// Number of injections classified as `class`.
    #[must_use]
    pub fn count(&self, class: OutcomeClass) -> usize {
        self.records.iter().filter(|r| r.outcome == class).count()
    }

    /// Mean degraded-mode slowdown over recovered injections (None when
    /// nothing recovered).
    #[must_use]
    pub fn mean_degraded_slowdown(&self) -> Option<f64> {
        let s: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.outcome == OutcomeClass::Recovered)
            .filter_map(InjectionRecord::slowdown)
            .collect();
        if s.is_empty() {
            None
        } else {
            Some(s.iter().sum::<f64>() / s.len() as f64)
        }
    }

    /// Worst degraded-mode slowdown over recovered injections.
    #[must_use]
    pub fn max_degraded_slowdown(&self) -> Option<f64> {
        self.records
            .iter()
            .filter(|r| r.outcome == OutcomeClass::Recovered)
            .filter_map(InjectionRecord::slowdown)
            .fold(None, |m, x| Some(m.map_or(x, |m: f64| m.max(x))))
    }

    /// The whole report as one JSON document (deterministic bytes for a
    /// given seed + plan — the CI smoke job compares two runs with
    /// `cmp`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let fmt_opt = |v: Option<f64>| v.map_or_else(|| "null".to_string(), jsonl::format_f64);
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!(
            "  \"counts\": {{\"masked\": {}, \"recovered\": {}, \"hang\": {}, \"sdc\": {}}},\n",
            self.count(OutcomeClass::Masked),
            self.count(OutcomeClass::Recovered),
            self.count(OutcomeClass::Hang),
            self.count(OutcomeClass::Sdc),
        ));
        out.push_str(&format!(
            "  \"mean_degraded_slowdown\": {},\n",
            fmt_opt(self.mean_degraded_slowdown())
        ));
        out.push_str(&format!(
            "  \"max_degraded_slowdown\": {},\n",
            fmt_opt(self.max_degraded_slowdown())
        ));
        out.push_str("  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let comma = if i + 1 == self.records.len() { "" } else { "," };
            out.push_str(&format!("    {}{comma}\n", r.to_line(self.seed)));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// CSV export, one row per injection.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "workload,index,fault,outcome,error,recovery,golden_cycles,\
             injected_cycles,recovered_cycles,slowdown,downgrades\n",
        );
        let opt = |v: Option<u64>| v.map_or_else(String::new, |x| x.to_string());
        for r in &self.records {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{}\n",
                r.workload,
                r.index,
                r.fault.desc(),
                r.outcome.label(),
                r.error.map_or("", |e| e.label()),
                r.recovery.label(),
                r.golden_cycles,
                opt(r.injected_cycles),
                opt(r.recovered_cycles),
                r.slowdown().map_or_else(String::new, |s| format!("{s:.4}")),
                r.downgrades,
            ));
        }
        out
    }

    /// Human-readable summary table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fault campaign: {} injections, seed {:#x}\n",
            self.records.len(),
            self.seed
        ));
        out.push_str(&format!(
            "{:<10} {:>7} {:>9} {:>5} {:>4}  worst-slowdown\n",
            "workload", "masked", "recovered", "hang", "sdc"
        ));
        let mut names: Vec<&str> = Vec::new();
        for r in &self.records {
            if !names.contains(&r.workload.as_str()) {
                names.push(&r.workload);
            }
        }
        for name in names {
            let rows: Vec<&InjectionRecord> =
                self.records.iter().filter(|r| r.workload == name).collect();
            let n = |c: OutcomeClass| rows.iter().filter(|r| r.outcome == c).count();
            let worst = rows
                .iter()
                .filter(|r| r.outcome == OutcomeClass::Recovered)
                .filter_map(|r| r.slowdown())
                .fold(None::<f64>, |m, x| Some(m.map_or(x, |m| m.max(x))));
            out.push_str(&format!(
                "{name:<10} {:>7} {:>9} {:>5} {:>4}  {}\n",
                n(OutcomeClass::Masked),
                n(OutcomeClass::Recovered),
                n(OutcomeClass::Hang),
                n(OutcomeClass::Sdc),
                worst.map_or_else(|| "-".to_string(), |w| format!("{w:.2}x")),
            ));
        }
        out.push_str(&format!(
            "total: {} masked, {} recovered, {} hang, {} sdc\n",
            self.count(OutcomeClass::Masked),
            self.count(OutcomeClass::Recovered),
            self.count(OutcomeClass::Hang),
            self.count(OutcomeClass::Sdc),
        ));
        out
    }
}

/// Campaign failures. Per-injection problems never abort a campaign
/// (they classify as outcomes); only a broken golden baseline or journal
/// I/O does.
#[derive(Debug)]
pub enum CampaignError {
    /// A workload's fault-free golden compile or run failed — there is
    /// no baseline to classify against.
    Golden {
        /// The workload that failed.
        workload: String,
        /// What went wrong.
        error: PipelineError,
    },
    /// Journal I/O failed.
    Io(std::io::Error),
    /// A sharded merge found no record for an injection — the shard set
    /// was merged before every shard finished (see [`crate::shard::merge`]).
    Incomplete(Incomplete),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Golden { workload, error } => {
                write!(f, "golden run failed for {workload}: {error}")
            }
            CampaignError::Io(e) => write!(f, "journal i/o: {e}"),
            CampaignError::Incomplete(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Golden { error, .. } => Some(error),
            CampaignError::Io(e) => Some(e),
            CampaignError::Incomplete(_) => None,
        }
    }
}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> Self {
        CampaignError::Io(e)
    }
}

impl From<Incomplete> for CampaignError {
    fn from(e: Incomplete) -> Self {
        CampaignError::Incomplete(e)
    }
}

/// A workload's fault-free baseline: the artifact, its golden outputs,
/// and the resource context the plan samples against.
struct Golden {
    workload: Workload,
    compiled: Compiled,
    stats: RunStats,
    mem: SimMemory,
    ctx: FaultContext,
}

/// The campaign runner: samples, injects, classifies, recovers.
pub struct FaultCampaign {
    cfg: CampaignConfig,
    sys: SystemConfig,
    workloads: Vec<Workload>,
}

impl FaultCampaign {
    /// A campaign over the Monaco 12×12 system. With no explicit
    /// [`FaultCampaign::workload`] calls, [`FaultCampaign::run`] covers
    /// all 13 Table 1 workloads at the configured scale.
    #[must_use]
    pub fn new(cfg: CampaignConfig) -> Self {
        FaultCampaign {
            cfg,
            sys: SystemConfig::monaco_12x12(),
            workloads: Vec::new(),
        }
    }

    /// Replace the base system configuration (golden runs use it as-is;
    /// injected runs override `fault` and `stall_window`).
    #[must_use]
    pub fn with_system(mut self, sys: SystemConfig) -> Self {
        self.sys = sys;
        self
    }

    /// Add one workload (default: all 13 of Table 1).
    pub fn workload(&mut self, w: Workload) -> &mut Self {
        self.workloads.push(w);
        self
    }

    /// Run the whole campaign: golden baselines in parallel, then every
    /// injection in parallel, journaling each as it classifies.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Golden`] when a fault-free baseline fails,
    /// [`CampaignError::Io`] on journal I/O errors.
    pub fn run(&self) -> Result<CampaignReport, CampaignError> {
        let workloads = self.resolved_workloads();
        let threads = if self.cfg.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.cfg.threads
        };

        // Phase 1: fault-free goldens, one per workload.
        let goldens = parallel_map(threads, workloads.len(), |i| self.golden(&workloads[i]));
        let mut baselines = Vec::with_capacity(goldens.len());
        for g in goldens {
            baselines.push(g?);
        }

        // Journal replay: records keyed (workload, index), guarded by
        // seed and by the planned fault (a stale journal from a
        // different plan must not poison the report).
        let plan = FaultPlan::new(self.cfg.seed, self.cfg.classes);
        let (journal, lines) = match &self.cfg.journal {
            Some(path) => JsonlFile::open(path)?,
            None => (JsonlFile::in_memory(), Vec::new()),
        };
        let mut replayed: HashMap<(String, u32), InjectionRecord> = HashMap::new();
        for line in &lines {
            if let Some((seed, rec)) = InjectionRecord::parse_line(line) {
                if seed == self.cfg.seed {
                    replayed.insert((rec.workload.clone(), rec.index), rec);
                }
            }
        }

        // Phase 2: fan every (workload, index) injection out. Fresh
        // records journal from inside the workers — kill-and-resume
        // loses at most the in-flight injections, and replay is keyed,
        // so the unordered interleaving is harmless.
        let mut jobs: Vec<(usize, u32, FaultKind)> = Vec::new();
        for (wi, g) in baselines.iter().enumerate() {
            for index in 0..self.cfg.injections {
                jobs.push((wi, index, plan.sample(g.workload.name, index, &g.ctx)));
            }
        }
        let journal = Mutex::new(journal);
        let records = parallel_map(threads, jobs.len(), |j| {
            let (wi, index, kind) = jobs[j];
            let g = &baselines[wi];
            if let Some(rec) = replayed.get(&(g.workload.name.to_string(), index)) {
                if rec.fault == kind {
                    return rec.clone();
                }
            }
            let rec = self.classify(g, index, kind);
            let line = rec.to_line(self.cfg.seed);
            journal
                .lock()
                .expect("journal lock poisoned")
                .append(&line)
                .ok();
            rec
        });
        Ok(CampaignReport {
            seed: self.cfg.seed,
            records,
        })
    }

    /// The campaign's workload set (explicit, or all 13 of Table 1).
    fn resolved_workloads(&self) -> Vec<Workload> {
        if self.workloads.is_empty() {
            all_workloads()
                .iter()
                .map(|spec| spec.build_default(self.cfg.scale))
                .collect()
        } else {
            self.workloads.clone()
        }
    }

    /// Compile and run one workload fault-free; derive the plan context
    /// from what the run actually used.
    fn golden(&self, w: &Workload) -> Result<Golden, CampaignError> {
        let fail = |error| CampaignError::Golden {
            workload: w.name.to_string(),
            error,
        };
        let compiled = self.sys.compile(w, self.cfg.heuristic).map_err(fail)?;
        let out = compiled
            .simulate_with(&SimOptions::new(self.cfg.model).no_validate())
            .map_err(fail)?;
        let (stats, mem) = (out.stats, out.memory);
        let mut used_pes: Vec<u32> = compiled.placed.pe_of.iter().map(|pe| pe.0).collect();
        used_pes.sort_unstable();
        used_pes.dedup();
        let ctx = FaultContext {
            used_pes,
            links: stats
                .link_traffic
                .iter()
                .map(|l| (l.src_pe, l.dst_pe))
                .collect(),
            tokens: stats.link_traffic.iter().map(|l| l.tokens).sum(),
            banks: self.sys.mem.banks as u32,
            horizon: stats.cycles,
        };
        Ok(Golden {
            workload: w.clone(),
            compiled,
            stats,
            mem,
            ctx,
        })
    }

    /// Inject one fault, classify the outcome, and attempt recovery for
    /// detected faults.
    fn classify(&self, g: &Golden, index: u32, kind: FaultKind) -> InjectionRecord {
        let golden_cycles = g.stats.cycles;
        let mut rec = InjectionRecord {
            workload: g.workload.name.to_string(),
            index,
            fault: kind,
            outcome: OutcomeClass::Hang,
            error: None,
            recovery: RecoveryOutcome::NotApplicable,
            golden_cycles,
            injected_cycles: None,
            recovered_cycles: None,
            downgrades: 0,
        };

        let inj_opts = SimOptions::new(self.cfg.model)
            .fault(FaultConfig::inject(kind))
            .stall_window(STALL_WINDOW)
            .no_validate();
        let budget = golden_cycles
            .saturating_mul(BUDGET_FACTOR)
            .saturating_add(STALL_WINDOW);
        // Capped exponential backoff on the budget before calling a run
        // hung.
        let policy = RetryPolicy::Backoff {
            factor: 4,
            max_retries: MAX_RECHECKS,
        };
        let (result, _) = rerun_on_cycle_limit(budget, policy, |cap| {
            g.compiled.simulate_with(&inj_opts.clone().max_cycles(cap))
        });

        match result {
            Ok(out) => {
                rec.injected_cycles = Some(out.stats.cycles);
                if out.stats.sinks == g.stats.sinks && out.memory == g.mem {
                    rec.outcome = OutcomeClass::Masked;
                } else if kind.is_transient() {
                    // No error signal and wrong outputs: the corruption
                    // escaped silently. Only the campaign's differential
                    // oracle sees it.
                    rec.outcome = OutcomeClass::Sdc;
                } else {
                    // A resource fault that completed with wrong outputs
                    // is *detected* by the differential comparison —
                    // recovery proceeds exactly as for an error signal.
                    self.recover(g, kind, &mut rec);
                }
            }
            Err(e) => {
                rec.error = Some(RunErrorKind::of(&e));
                self.recover(g, kind, &mut rec);
            }
        }
        rec
    }

    /// Recovery for a detected fault: spare-PE re-place for resource
    /// faults, re-execution for transients, nothing for bank failures.
    fn recover(&self, g: &Golden, kind: FaultKind, rec: &mut InjectionRecord) {
        if kind.is_transient() {
            // Deterministic engine: a fault-free re-execution is the
            // golden run, bit for bit. Recovery costs one clean re-run.
            rec.outcome = OutcomeClass::Recovered;
            rec.recovery = RecoveryOutcome::Retried;
            rec.recovered_cycles = Some(g.stats.cycles);
            return;
        }
        let Some(avoid) = kind.avoid_pes() else {
            // A failed memory bank has no spare resource to re-place
            // onto: detected, not recoverable.
            rec.outcome = OutcomeClass::Hang;
            return;
        };
        let mut rec_sys = self.sys.clone();
        rec_sys.avoid = avoid.into_iter().map(PeId).collect();
        let recompiled = match rec_sys.compile(&g.workload, self.cfg.heuristic) {
            Ok(c) => c,
            Err(_) => {
                rec.outcome = OutcomeClass::Hang;
                rec.recovery = RecoveryOutcome::Unplaceable;
                return;
            }
        };
        match recompiled.simulate_with(&SimOptions::new(self.cfg.model).no_validate()) {
            Ok(out) if out.stats.sinks == g.stats.sinks && out.memory == g.mem => {
                rec.outcome = OutcomeClass::Recovered;
                rec.recovery = RecoveryOutcome::Replaced;
                rec.recovered_cycles = Some(out.stats.cycles);
                rec.downgrades = criticality_downgrades(
                    &g.workload,
                    &self.sys.fabric,
                    &g.compiled.placed.pe_of,
                    &recompiled.placed.pe_of,
                );
            }
            _ => {
                rec.outcome = OutcomeClass::Hang;
                rec.recovery = RecoveryOutcome::StillWrong;
            }
        }
    }
}

/// A [`FaultCampaign`] as a sharded job ([`crate::shard`]): one item per
/// `(workload, injection index)`, in report order, with one journal row
/// each. An item's shard key is `"{workload};i{index};s{seed}"`, and
/// rows from another seed are not the job's. Goldens are computed
/// lazily per workload, so a worker that finds every shard done — or
/// only replays journaled rows — performs zero simulation. A shard
/// directory belongs to one campaign configuration.
pub struct CampaignJob {
    campaign: FaultCampaign,
    workloads: Vec<Workload>,
    plan: FaultPlan,
    goldens: Vec<Option<Golden>>,
}

impl CampaignJob {
    /// The sharded job of `campaign`.
    #[must_use]
    pub fn new(campaign: FaultCampaign) -> Self {
        let workloads = campaign.resolved_workloads();
        CampaignJob {
            plan: FaultPlan::new(campaign.cfg.seed, campaign.cfg.classes),
            goldens: workloads.iter().map(|_| None).collect(),
            workloads,
            campaign,
        }
    }
}

impl ShardJob for CampaignJob {
    /// Workload position and injection index.
    type Item = (usize, u32);
    type Report = CampaignReport;
    type Error = CampaignError;

    fn items(&self) -> Vec<(usize, u32)> {
        let injections = self.campaign.cfg.injections;
        (0..self.workloads.len())
            .flat_map(|w| (0..injections).map(move |index| (w, index)))
            .collect()
    }

    fn shard_key(&self, &(w, index): &(usize, u32)) -> String {
        let seed = self.campaign.cfg.seed;
        format!("{};i{index};s{seed}", self.workloads[w].name)
    }

    fn row_key(&self, row: &str) -> Option<(usize, u32)> {
        let (seed, rec) = InjectionRecord::parse_line(row)?;
        let w = self.workloads.iter().position(|w| w.name == rec.workload)?;
        (seed == self.campaign.cfg.seed).then_some((w, rec.index))
    }

    /// Goldens first, one per workload the batch needs and not yet
    /// computed, then the injections, each phase over the campaign's
    /// threads as in [`FaultCampaign::run`].
    fn evaluate(&mut self, items: &[(usize, u32)]) -> Result<Vec<String>, CampaignError> {
        let threads = match self.campaign.cfg.threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        };
        let mut missing: Vec<usize> = items.iter().map(|&(w, _)| w).collect();
        missing.sort_unstable();
        missing.dedup();
        missing.retain(|&w| self.goldens[w].is_none());
        let (campaign, workloads) = (&self.campaign, &self.workloads);
        let fresh = parallel_map(threads, missing.len(), |i| {
            campaign.golden(&workloads[missing[i]])
        });
        for (&w, g) in missing.iter().zip(fresh) {
            self.goldens[w] = Some(g?);
        }
        let (plan, goldens, seed) = (&self.plan, &self.goldens, self.campaign.cfg.seed);
        Ok(parallel_map(threads, items.len(), |i| {
            let (w, index) = items[i];
            let g = goldens[w].as_ref().expect("golden computed above");
            let kind = plan.sample(g.workload.name, index, &g.ctx);
            campaign.classify(g, index, kind).to_line(seed)
        }))
    }

    fn fold(&self, rows: Vec<String>) -> Result<CampaignReport, CampaignError> {
        let record = |row: &String| {
            InjectionRecord::parse_line(row)
                .expect("keyed rows parse")
                .1
        };
        let records = rows.iter().map(record).collect();
        Ok(CampaignReport {
            seed: self.campaign.cfg.seed,
            records,
        })
    }
}

/// Critical loads whose recovered placement sits in a slower NUPEA
/// domain than their original one (the fallback-to-next-best-domain the
/// avoid-set can force; the domain id *is* the arbitration hop count).
fn criticality_downgrades(
    workload: &Workload,
    fabric: &Fabric,
    old_pe_of: &[PeId],
    new_pe_of: &[PeId],
) -> u32 {
    let rank = |pe: PeId| fabric.domain(pe).map_or(u8::MAX, |DomainId(d)| d);
    workload
        .kernel
        .critical_loads()
        .into_iter()
        .filter(|id| rank(new_pe_of[id.index()]) > rank(old_pe_of[id.index()]))
        .count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use nupea_kernels::workloads::sparse;

    fn record(outcome: OutcomeClass) -> InjectionRecord {
        InjectionRecord {
            workload: "spmv".to_string(),
            index: 3,
            fault: FaultKind::PeFail { pe: 17, at: 0 },
            outcome,
            error: Some(RunErrorKind::Stalled),
            recovery: RecoveryOutcome::Replaced,
            golden_cycles: 1000,
            injected_cycles: None,
            recovered_cycles: Some(1250),
            downgrades: 1,
        }
    }

    #[test]
    fn labels_round_trip() {
        for c in OutcomeClass::ALL {
            assert_eq!(OutcomeClass::parse(c.label()), Some(c));
        }
        for r in RecoveryOutcome::ALL {
            assert_eq!(RecoveryOutcome::parse(r.label()), Some(r));
        }
        assert_eq!(OutcomeClass::parse("warp-core"), None);
        assert_eq!(RecoveryOutcome::parse(""), None);
    }

    #[test]
    fn record_lines_round_trip() {
        let mut r = record(OutcomeClass::Recovered);
        assert_eq!(
            InjectionRecord::parse_line(&r.to_line(7)),
            Some((7, r.clone()))
        );
        r.error = None;
        r.injected_cycles = Some(4000);
        r.recovered_cycles = None;
        assert_eq!(InjectionRecord::parse_line(&r.to_line(9)), Some((9, r)));
        assert_eq!(InjectionRecord::parse_line("{\"a\":1"), None);
        assert_eq!(InjectionRecord::parse_line(""), None);
    }

    #[test]
    fn slowdown_follows_the_outcome_class() {
        let mut r = record(OutcomeClass::Recovered);
        assert_eq!(r.slowdown(), Some(1.25));
        r.outcome = OutcomeClass::Hang;
        assert_eq!(r.slowdown(), None);
        r.outcome = OutcomeClass::Masked;
        r.injected_cycles = Some(1000);
        assert_eq!(r.slowdown(), Some(1.0));
    }

    #[test]
    fn report_aggregates_and_exports() {
        let mut masked = record(OutcomeClass::Masked);
        masked.injected_cycles = Some(1000);
        masked.error = None;
        masked.recovery = RecoveryOutcome::NotApplicable;
        let report = CampaignReport {
            seed: 42,
            records: vec![masked, record(OutcomeClass::Recovered)],
        };
        assert_eq!(report.count(OutcomeClass::Masked), 1);
        assert_eq!(report.count(OutcomeClass::Recovered), 1);
        assert_eq!(report.count(OutcomeClass::Sdc), 0);
        assert_eq!(report.mean_degraded_slowdown(), Some(1.25));
        assert_eq!(report.max_degraded_slowdown(), Some(1.25));
        let json = report.to_json();
        assert!(json.contains("\"recovered\": 1"));
        assert_eq!(json, report.to_json(), "export is deterministic");
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.lines().nth(2).unwrap().contains("pe-fail:17@0"));
        assert!(report.render().contains("spmv"));
    }

    #[test]
    fn single_workload_campaign_classifies_and_replays_identically() {
        let mut campaign = FaultCampaign::new(CampaignConfig::smoke());
        campaign.workload(sparse::spmv(Scale::Test, 1));
        let a = campaign.run().unwrap();
        let b = campaign.run().unwrap();
        assert_eq!(a.to_json(), b.to_json(), "same seed, same report bytes");
        assert_eq!(a.records.len(), 1);
        let r = &a.records[0];
        // A PE-failure injection on a used PE is never silent.
        assert_ne!(r.outcome, OutcomeClass::Sdc);
        if r.outcome == OutcomeClass::Recovered {
            assert_eq!(r.recovery, RecoveryOutcome::Replaced);
            assert!(r.recovered_cycles.is_some());
            assert!(r.slowdown().is_some());
        }
    }
}
