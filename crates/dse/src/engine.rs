//! The search engine: strategy rounds → successive-halving rungs →
//! journal-first evaluation → parallel simulation through
//! [`ExperimentRunner`] → per-workload Pareto frontiers.

use crate::journal::{Budget, Journal, JournalEntry, Outcome};
use crate::pareto::{FrontierPoint, ParetoFrontier, Score};
use crate::space::{config_hash, Candidate, SearchSpace};
use crate::strategy::{Evaluation, GridSearch, SearchStrategy};
use nupea::shard::ShardJob;
use nupea::{ExperimentRunner, RunRecord, SystemHandle, Workload};
use nupea_sim::MemoryModel;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Successive-halving schedule: candidates first run under
/// `base_budget` system cycles; the best `1/eta` fraction of each rung is
/// promoted to an `eta×` larger budget, for `rungs` capped rungs, and
/// rung survivors get the full (uncapped) evaluation. Eliminated
/// candidates keep their capped measurements in the history but never
/// reach the frontier.
#[derive(Debug, Clone)]
pub struct HalvingConfig {
    /// Cycle budget of the first rung.
    pub base_budget: u64,
    /// Promotion fraction denominator and budget multiplier (≥ 2).
    pub eta: usize,
    /// Number of capped rungs before the full evaluation.
    pub rungs: usize,
}

impl HalvingConfig {
    /// A sensible default: one 10k-cycle screening rung, promote the top
    /// third.
    #[must_use]
    pub fn screening() -> Self {
        HalvingConfig {
            base_budget: 10_000,
            eta: 3,
            rungs: 1,
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct DseConfig {
    /// Worker threads for compile/simulate fan-out (`0` = available
    /// parallelism).
    pub threads: usize,
    /// Memory model every candidate is scored under.
    pub model: MemoryModel,
    /// Optional early stopping.
    pub halving: Option<HalvingConfig>,
}

impl Default for DseConfig {
    fn default() -> Self {
        DseConfig {
            threads: 0,
            model: MemoryModel::Nupea,
            halving: None,
        }
    }
}

/// One workload's Pareto frontier.
#[derive(Debug, Clone)]
pub struct WorkloadFrontier {
    /// Workload name.
    pub workload: String,
    /// Its frontier.
    pub frontier: ParetoFrontier,
}

/// The result of a search.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct DseReport {
    /// Strategy name.
    pub strategy: &'static str,
    /// Per-workload frontiers, in workload declaration order.
    pub frontiers: Vec<WorkloadFrontier>,
    /// Every evaluation, in engine order.
    pub history: Vec<Evaluation>,
    /// `(workload, candidate, budget)` evaluations requested.
    pub evaluated: usize,
    /// Evaluations that went to the simulator (journal misses).
    pub simulated: usize,
    /// Evaluations served from the journal.
    pub journal_hits: usize,
}

impl DseReport {
    /// Deterministic JSON export: same seed + same space ⇒ byte-identical
    /// output, independent of thread count or resume state.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"strategy\":\"{}\",\"evaluated\":{},\"frontiers\":[",
            self.strategy, self.evaluated
        );
        for (fi, wf) in self.frontiers.iter().enumerate() {
            if fi > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"workload\":\"{}\",\"points\":[", wf.workload));
            for (pi, p) in wf.frontier.points().iter().enumerate() {
                if pi > 0 {
                    out.push(',');
                }
                let c = &p.candidate;
                out.push_str(&format!(
                    "{{\"hash\":{},\"domain_cols\":{},\"d0_cols\":{},\
                     \"cache_words\":{},\"banks\":{},\"divider\":{},\
                     \"heuristic\":\"{}\",\"place_seed\":{},\"cycles\":{},\
                     \"energy\":{},\"pes\":{}}}",
                    p.hash,
                    c.domain_cols,
                    c.d0_cols,
                    c.cache_words,
                    c.banks,
                    c.divider
                        .map_or_else(|| "null".to_string(), |d| d.to_string()),
                    c.heuristic,
                    c.place_seed,
                    p.score.cycles,
                    p.score.energy,
                    p.score.pes,
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Render the frontiers as human-readable tables.
    #[must_use]
    pub fn render(&self) -> String {
        let headers: Vec<String> = ["cycles", "energy", "pes", "heuristic", "config"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let mut out = String::new();
        for wf in &self.frontiers {
            let rows: Vec<(String, Vec<String>)> = wf
                .frontier
                .points()
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    (
                        format!("#{i}"),
                        vec![
                            p.score.cycles.to_string(),
                            format!("{:.1}", p.score.energy),
                            p.score.pes.to_string(),
                            p.candidate.heuristic.to_string(),
                            p.candidate.key(),
                        ],
                    )
                })
                .collect();
            out.push_str(&nupea::experiments::render_table(
                &format!(
                    "Pareto frontier — {} ({} points, {} evaluated, {} simulated, {} journal hits)",
                    wf.workload,
                    wf.frontier.len(),
                    self.evaluated,
                    self.simulated,
                    self.journal_hits
                ),
                &headers,
                &rows,
            ));
            out.push('\n');
        }
        out
    }

    /// Best full-budget cycle count achieved for `workload` by candidates
    /// using `heuristic` — the Fig. 12 comparison the CLI `--check` makes.
    #[must_use]
    pub fn best_cycles(&self, workload: &str, heuristic: nupea::Heuristic) -> Option<u64> {
        self.history
            .iter()
            .filter(|e| e.full && e.candidate.heuristic == heuristic)
            .filter_map(|e| {
                e.scores
                    .iter()
                    .find(|(w, _)| w == workload)
                    .and_then(|(_, s)| s.as_ref().map(|s| s.cycles))
            })
            .min()
    }
}

/// The DSE engine: owns the space, the workloads under optimization, the
/// journal, and the evaluation counters.
#[derive(Debug)]
pub struct DseEngine {
    space: SearchSpace,
    cfg: DseConfig,
    workloads: Vec<Arc<Workload>>,
    journal: Journal,
    evaluated: usize,
    simulated: usize,
    journal_hits: usize,
}

impl DseEngine {
    /// An engine over `space` with an in-memory journal.
    #[must_use]
    pub fn new(space: SearchSpace, cfg: DseConfig) -> Self {
        DseEngine {
            space,
            cfg,
            workloads: Vec::new(),
            journal: Journal::in_memory(),
            evaluated: 0,
            simulated: 0,
            journal_hits: 0,
        }
    }

    /// Attach a journal (typically [`Journal::open`] on a JSONL path) so
    /// the search records every evaluation and resumes past ones.
    #[must_use]
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.journal = journal;
        self
    }

    /// Add a workload to optimize for. With several workloads, scalar
    /// strategies optimize geometric-mean cycles; frontiers stay
    /// per-workload.
    pub fn add_workload(&mut self, w: Workload) -> &mut Self {
        self.workloads.push(Arc::new(w));
        self
    }

    /// The search space.
    #[must_use]
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// Evaluations that actually went to the simulator so far (a resumed
    /// search that replays completely keeps this at zero).
    #[must_use]
    pub fn simulated(&self) -> usize {
        self.simulated
    }

    /// Run a strategy to completion.
    ///
    /// # Errors
    ///
    /// Journal I/O errors. Candidate failures (infeasible geometry, PnR
    /// overflow, deadlock, budget exhaustion) are recorded outcomes, not
    /// errors.
    ///
    /// # Panics
    ///
    /// Panics if no workload was added.
    pub fn run(&mut self, strategy: &mut dyn SearchStrategy) -> io::Result<DseReport> {
        assert!(
            !self.workloads.is_empty(),
            "add_workload before running a search"
        );
        let mut history: Vec<Evaluation> = Vec::new();
        let mut frontiers: Vec<WorkloadFrontier> = self
            .workloads
            .iter()
            .map(|w| WorkloadFrontier {
                workload: w.name.to_string(),
                frontier: ParetoFrontier::new(),
            })
            .collect();
        loop {
            let batch = strategy.next_batch(&self.space, &history);
            if batch.is_empty() {
                break;
            }
            let evals = self.evaluate_batch(&batch)?;
            for e in &evals {
                if e.full {
                    for (wi, (_, score)) in e.scores.iter().enumerate() {
                        if let Some(score) = score {
                            frontiers[wi].frontier.insert(FrontierPoint {
                                candidate: e.candidate.clone(),
                                score: *score,
                                hash: config_hash(&self.workloads[wi], &e.candidate),
                            });
                        }
                    }
                }
            }
            history.extend(evals);
        }
        debug_assert!(frontiers.iter().all(|f| f.frontier.is_non_dominated()));
        Ok(DseReport {
            strategy: strategy.name(),
            frontiers,
            history,
            evaluated: self.evaluated,
            simulated: self.simulated,
            journal_hits: self.journal_hits,
        })
    }

    /// Re-simulate every frontier point with tracing on, writing one
    /// Chrome trace JSON per point into `dir` (PR 3 plumbing). Returns the
    /// recorded trace paths.
    ///
    /// # Errors
    ///
    /// Journal I/O never applies here; only trace-directory I/O inside the
    /// runner, which degrades to records without paths — so this only
    /// returns the paths that were actually written.
    #[must_use]
    pub fn emit_frontier_traces(&self, report: &DseReport, dir: &Path) -> Vec<String> {
        let mut runner = ExperimentRunner::new();
        runner.threads(self.cfg.threads).trace_dir(dir);
        let mut any = false;
        for (wi, wf) in report.frontiers.iter().enumerate() {
            let wh = runner.shared_workload(Arc::clone(&self.workloads[wi]));
            for p in wf.frontier.points() {
                if let Ok(sys) = p.candidate.system(&self.space) {
                    let sh = runner.system(sys);
                    runner.point(wh, sh, p.candidate.heuristic, self.cfg.model);
                    any = true;
                }
            }
        }
        if !any {
            return Vec::new();
        }
        runner
            .run()
            .records
            .iter()
            .filter_map(|r| r.trace_path.clone())
            .collect()
    }

    /// Evaluate one strategy batch, applying the halving schedule.
    fn evaluate_batch(&mut self, batch: &[Candidate]) -> io::Result<Vec<Evaluation>> {
        let halving = match &self.cfg.halving {
            Some(h) if batch.len() > 1 && h.rungs > 0 => h.clone(),
            _ => return self.eval_rung(batch, &Budget::Full, true),
        };
        let mut out: Vec<Option<Evaluation>> = vec![None; batch.len()];
        let mut alive: Vec<usize> = (0..batch.len()).collect();
        let mut budget = halving.base_budget.max(1);
        for _ in 0..halving.rungs {
            if alive.len() <= 1 {
                break;
            }
            let cands: Vec<Candidate> = alive.iter().map(|&i| batch[i].clone()).collect();
            let evals = self.eval_rung(&cands, &Budget::Capped(budget), false)?;
            // Rank survivors: successes by fitness then key (deterministic
            // under ties); failures — including budget exhaustion — drop.
            let mut ranked: Vec<(f64, String, usize)> = Vec::new();
            for (j, e) in evals.iter().enumerate() {
                if let Some(fit) = e.mean_cycles() {
                    ranked.push((fit, e.candidate.key(), alive[j]));
                }
                out[alive[j]] = Some(evals[j].clone());
            }
            ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let keep = alive.len().div_ceil(halving.eta).max(1);
            alive = ranked.into_iter().take(keep).map(|(_, _, i)| i).collect();
            budget = budget.saturating_mul(halving.eta.max(2) as u64);
        }
        if !alive.is_empty() {
            let cands: Vec<Candidate> = alive.iter().map(|&i| batch[i].clone()).collect();
            let evals = self.eval_rung(&cands, &Budget::Full, true)?;
            for (j, e) in evals.into_iter().enumerate() {
                out[alive[j]] = Some(e);
            }
        }
        Ok(out
            .into_iter()
            .map(|o| o.expect("every candidate evaluated at some rung"))
            .collect())
    }

    /// Evaluate candidates at one budget: journal first, then one
    /// [`ExperimentRunner`] sweep for the misses (scoped-thread parallel
    /// compile + simulate with compile-artifact sharing), recording every
    /// fresh result to the journal.
    fn eval_rung(
        &mut self,
        cands: &[Candidate],
        budget: &Budget,
        full: bool,
    ) -> io::Result<Vec<Evaluation>> {
        self.evaluated += cands.len() * self.workloads.len();

        // Partition into journal hits and to-simulate tasks, deduping
        // repeated candidates within the batch by config hash.
        struct Task {
            cand: usize,
            workload: usize,
            hash: u64,
        }
        let mut to_sim: Vec<Task> = Vec::new();
        let mut pending: Vec<u64> = Vec::new();
        for (ci, c) in cands.iter().enumerate() {
            for (wi, w) in self.workloads.iter().enumerate() {
                let hash = config_hash(w, c);
                if self.journal.lookup(hash, budget).is_some() {
                    self.journal_hits += 1;
                } else if pending.contains(&hash) {
                    // A repeat within this batch: served from the journal
                    // once the first occurrence's record lands.
                    self.journal_hits += 1;
                } else {
                    pending.push(hash);
                    to_sim.push(Task {
                        cand: ci,
                        workload: wi,
                        hash,
                    });
                }
            }
        }

        if !to_sim.is_empty() {
            let mut runner = ExperimentRunner::new();
            runner.threads(self.cfg.threads);
            if let Budget::Capped(b) = budget {
                // Strict rung budget: exhausting it is elimination, so the
                // runner's one-shot retry is disabled here.
                runner.cycle_budget(*b).retry_factor(1);
            }
            let whandles: Vec<_> = self
                .workloads
                .iter()
                .map(|w| runner.shared_workload(Arc::clone(w)))
                .collect();
            // One registered system per unique hardware configuration.
            let mut sys_of: HashMap<String, Result<SystemHandle, String>> = HashMap::new();
            let mut pointed: Vec<Task> = Vec::new();
            for t in to_sim {
                let c = &cands[t.cand];
                let sys = sys_of
                    .entry(c.key())
                    .or_insert_with(|| c.system(&self.space).map(|s| runner.system(s)));
                match sys {
                    Err(_) => {
                        // Degenerate geometry: recorded as infeasible, never
                        // simulated.
                        self.journal.record(JournalEntry {
                            hash: t.hash,
                            workload: self.workloads[t.workload].name.to_string(),
                            budget: budget.clone(),
                            candidate: c.clone(),
                            outcome: Outcome::Failed("invalid-config".into()),
                        })?;
                    }
                    Ok(sh) => {
                        runner.point(whandles[t.workload], *sh, c.heuristic, self.cfg.model);
                        pointed.push(t);
                    }
                }
            }
            if !pointed.is_empty() {
                let report = runner.run();
                self.simulated += pointed.len();
                for (rec, t) in report.records.iter().zip(&pointed) {
                    self.journal.record(JournalEntry {
                        hash: t.hash,
                        workload: self.workloads[t.workload].name.to_string(),
                        budget: budget.clone(),
                        candidate: cands[t.cand].clone(),
                        outcome: outcome_of(rec),
                    })?;
                }
            }
        }

        // Assemble evaluations — everything is now in the journal.
        Ok(cands
            .iter()
            .map(|c| Evaluation {
                candidate: c.clone(),
                scores: self
                    .workloads
                    .iter()
                    .map(|w| {
                        let e = self
                            .journal
                            .lookup(config_hash(w, c), budget)
                            .expect("recorded above");
                        let score = match &e.outcome {
                            Outcome::Done(s) => Some(*s),
                            Outcome::Failed(_) => None,
                        };
                        (w.name.to_string(), score)
                    })
                    .collect(),
                full,
            })
            .collect())
    }
}

/// A full-budget grid search over a [`SearchSpace`] as a sharded job
/// ([`nupea::shard`]): one item per `(candidate, workload)` pair, in grid
/// order, with one journal row each. A candidate's pairs share its shard
/// (shard key `candidate.key()`), so the compile cache stays effective
/// within a shard. The halving schedule is ignored: its capped rungs
/// rank candidates globally, which would couple shards to each other.
/// The merged report is the one a grid search over the merged journal
/// produces.
#[derive(Debug)]
pub struct GridJob {
    /// Evaluates items journal-first against an in-memory journal that
    /// starts from the shard's held rows, so a candidate's missing
    /// workloads simulate together once.
    engine: DseEngine,
}

impl GridJob {
    /// The grid search of `space` over `workloads`.
    #[must_use]
    pub fn new(space: SearchSpace, cfg: DseConfig, workloads: &[Workload]) -> Self {
        let cfg = DseConfig {
            halving: None,
            ..cfg
        };
        let mut engine = DseEngine::new(space, cfg);
        for w in workloads {
            engine.add_workload(w.clone());
        }
        GridJob { engine }
    }
}

impl ShardJob for GridJob {
    /// The candidate and the workload's position.
    type Item = (Candidate, usize);
    type Report = DseReport;
    type Error = io::Error;

    fn items(&self) -> Vec<(Candidate, usize)> {
        let (space, workloads) = (&self.engine.space, self.engine.workloads.len());
        (0..space.len())
            .flat_map(|i| (0..workloads).map(move |w| (space.nth(i), w)))
            .collect()
    }

    fn shard_key(&self, (c, _): &(Candidate, usize)) -> String {
        c.key()
    }

    fn row_key(&self, row: &str) -> Option<(Candidate, usize)> {
        let e = JournalEntry::parse_line(row)?;
        let w = self
            .engine
            .workloads
            .iter()
            .position(|w| config_hash(w, &e.candidate) == e.hash)?;
        (e.budget == Budget::Full).then_some((e.candidate, w))
    }

    /// The rows the shard's journal holds become the engine's journal,
    /// so the workloads a candidate already has rows for are not
    /// simulated again.
    fn replay(&mut self, rows: &[String]) {
        self.engine.journal = Journal::from_lines(rows.iter().cloned());
    }

    /// The batch's candidates in one journal-first sweep against every
    /// workload.
    fn evaluate(&mut self, items: &[(Candidate, usize)]) -> io::Result<Vec<String>> {
        let mut cands: Vec<Candidate> = items.iter().map(|(c, _)| c.clone()).collect();
        cands.dedup();
        self.engine.eval_rung(&cands, &Budget::Full, true)?;
        let row = |(c, w): &(Candidate, usize)| {
            let hash = config_hash(&self.engine.workloads[*w], c);
            let entry = self.engine.journal.lookup(hash, &Budget::Full);
            entry.expect("evaluated above").to_line()
        };
        Ok(items.iter().map(row).collect())
    }

    fn fold(&self, rows: Vec<String>) -> io::Result<DseReport> {
        let mut engine = DseEngine::new(self.engine.space.clone(), self.engine.cfg.clone())
            .with_journal(Journal::from_lines(rows));
        engine.workloads = self.engine.workloads.clone();
        engine.run(&mut GridSearch::new(self.engine.space.len().max(1)))
    }
}

/// Map a runner record to a journal outcome.
fn outcome_of(rec: &RunRecord) -> Outcome {
    match rec.error_kind {
        None => Outcome::Done(Score {
            cycles: rec.cycles,
            energy: rec.energy.total(),
            pes: rec.active_pes,
        }),
        Some(kind) => Outcome::Failed(kind.label().to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nupea::{Heuristic, Scale};
    use nupea_kernels::workloads::workload_by_name;

    #[test]
    fn grid_job_simulates_only_the_workloads_a_shard_lacks() {
        let space = SearchSpace {
            domain_cols: vec![3],
            d0_cols: vec![2],
            cache_words: vec![64 * 1024],
            heuristics: vec![Heuristic::CriticalityAware],
            effort: 32,
            ..SearchSpace::default()
        };
        let workloads: Vec<Workload> = ["spmv", "spmspv"]
            .iter()
            .map(|n| workload_by_name(n).unwrap().build_default(Scale::Test))
            .collect();
        let c = space.nth(0);
        let items = [(c.clone(), 0), (c, 1)];
        let mut first = GridJob::new(space.clone(), DseConfig::default(), &workloads);
        let rows = first.evaluate(&items).unwrap();
        assert_eq!(first.engine.simulated, 2, "one sweep, both workloads");

        // A worker was killed after journaling the candidate's first
        // workload: the shard's next owner simulates only the second.
        let mut next = GridJob::new(space, DseConfig::default(), &workloads);
        next.replay(&rows[..1]);
        assert_eq!(next.evaluate(&items[1..]).unwrap(), rows[1..]);
        assert_eq!(
            next.engine.simulated, 1,
            "the held row is not simulated again"
        );
    }
}
