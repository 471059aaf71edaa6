//! Journaled design-space exploration over the joint hardware/compiler
//! space (`nupea-dse`), replacing the one-axis-at-a-time hand sweeps.
//!
//!     cargo bench -p nupea-bench --bench dse -- [PRESET] [FLAGS]
//!
//! Presets (first positional argument):
//!
//! * `domains` (default) — spmspv over the domain-count sensitivity grid:
//!   domain widths × direct-port shares × all three placement heuristics.
//! * `cache`   — spmspv over cache capacities × heuristics at shipping
//!   Monaco geometry (the Fig. 15-style capacity curve).
//! * `fig12`   — the PnR-heuristic ablation (Fig. 12) on spmspv/dmv/fft
//!   at fixed Monaco geometry, via the frontier report.
//! * `smoke`   — tiny test-scale grid for CI: one workload, six points.
//!
//! Flags:
//!
//! * `--workload NAME`    override the preset's workload list with any
//!   registry entry (repeatable) — e.g. `--workload bfs --workload histogram`
//! * `--journal PATH`     append-only JSONL journal; re-invoking with the
//!   same journal resumes — completed points replay with zero simulation.
//! * `--strategy S`       `grid` (default) | `random` | `anneal`
//! * `--samples N`        random-search draws (default 16)
//! * `--steps N`          annealing proposals (default 24)
//! * `--seed N`           strategy seed (default 0xC0FFEE)
//! * `--budget N`         enable successive halving with base budget N
//! * `--rungs N`          capped halving rungs (default 1)
//! * `--eta N`            halving promotion fraction (default 3)
//! * `--threads N`        runner worker threads (0 = all cores)
//! * `--scale S`          `test` | `bench` (preset default otherwise)
//! * `--json PATH`        write the deterministic report JSON
//! * `--trace-dir DIR`    re-simulate frontier points with tracing on
//! * `--check`            assert: non-empty frontier, fully parseable
//!   journal, and effcc at least matching domain-unaware on best cycles
//! * `--expect-no-sim`    assert the whole run was served from the
//!   journal (resume verification; implies a prior completed run)

use nupea::experiments::render_table;
use nupea::{Heuristic, Scale};
use nupea_bench::{flag_value, parse_flag};
use nupea_dse::{
    Annealing, Budget, DseConfig, DseEngine, DseReport, GridSearch, HalvingConfig, Journal,
    RandomSearch, SearchSpace, SearchStrategy,
};
use nupea_kernels::workloads::workload_by_name;
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    preset: String,
    workloads: Vec<String>,
    journal: Option<PathBuf>,
    strategy: String,
    samples: usize,
    steps: usize,
    seed: u64,
    budget: Option<u64>,
    rungs: usize,
    eta: usize,
    threads: usize,
    scale: Option<Scale>,
    json: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    check: bool,
    expect_no_sim: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        preset: "domains".into(),
        workloads: Vec::new(),
        journal: None,
        strategy: "grid".into(),
        samples: 16,
        steps: 24,
        seed: 0xC0FFEE,
        budget: None,
        rungs: 1,
        eta: 3,
        threads: 0,
        scale: None,
        json: None,
        trace_dir: None,
        check: false,
        expect_no_sim: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => opts.workloads.push(flag_value(&mut args, &a)?),
            "--journal" => opts.journal = Some(flag_value(&mut args, &a)?.into()),
            "--strategy" => opts.strategy = flag_value(&mut args, &a)?,
            "--samples" => opts.samples = parse_flag(&mut args, &a)?,
            "--steps" => opts.steps = parse_flag(&mut args, &a)?,
            "--seed" => opts.seed = parse_flag(&mut args, &a)?,
            "--budget" => opts.budget = Some(parse_flag(&mut args, &a)?),
            "--rungs" => opts.rungs = parse_flag(&mut args, &a)?,
            "--eta" => opts.eta = parse_flag(&mut args, &a)?,
            "--threads" => opts.threads = parse_flag(&mut args, &a)?,
            "--scale" => {
                opts.scale = Some(match flag_value(&mut args, &a)?.as_str() {
                    "test" => Scale::Test,
                    "bench" => Scale::Bench,
                    s => return Err(format!("--scale: unknown scale {s:?}")),
                });
            }
            "--json" => opts.json = Some(flag_value(&mut args, &a)?.into()),
            "--trace-dir" => opts.trace_dir = Some(flag_value(&mut args, &a)?.into()),
            "--check" => opts.check = true,
            "--expect-no-sim" => opts.expect_no_sim = true,
            // Ignore flags cargo's bench harness forwards (e.g. --bench).
            s if s.starts_with("--") => {}
            s => opts.preset = s.to_string(),
        }
    }
    Ok(opts)
}

/// Preset → (search space, workload names, default scale).
fn preset(name: &str) -> Result<(SearchSpace, Vec<&'static str>, Scale), String> {
    let mut space = SearchSpace::default();
    Ok(match name {
        "domains" => {
            space.cache_words = vec![64 * 1024];
            (space, vec!["spmspv"], Scale::Bench)
        }
        "cache" => {
            space.domain_cols = vec![3];
            space.d0_cols = vec![3];
            space.cache_words = vec![4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024];
            (space, vec!["spmspv"], Scale::Bench)
        }
        "fig12" => {
            space.domain_cols = vec![3];
            space.d0_cols = vec![3];
            space.cache_words = vec![64 * 1024];
            let names = nupea_kernels::workloads::workload_preset("ablation-core")
                .expect("preset exists")
                .iter()
                .map(|s| s.name)
                .collect();
            (space, names, Scale::Bench)
        }
        "smoke" => {
            space.domain_cols = vec![3];
            space.d0_cols = vec![2, 3];
            space.cache_words = vec![64 * 1024];
            space.effort = 64;
            (space, vec!["spmspv"], Scale::Test)
        }
        s => return Err(format!("unknown preset {s:?} (domains|cache|fig12|smoke)")),
    })
}

/// The Fig. 12-style summary: best full-budget cycles per heuristic and
/// the speedup over the Domain-Unaware baseline.
fn heuristic_summary(report: &DseReport, workloads: &[&str]) -> String {
    let heuristics = [
        Heuristic::DomainUnaware,
        Heuristic::OnlyDomainAware,
        Heuristic::CriticalityAware,
    ];
    let headers: Vec<String> = heuristics.iter().map(ToString::to_string).collect();
    let rows: Vec<(String, Vec<String>)> = workloads
        .iter()
        .map(|w| {
            let base = report.best_cycles(w, Heuristic::DomainUnaware);
            let cells = heuristics
                .iter()
                .map(|&h| match (report.best_cycles(w, h), base) {
                    (Some(c), Some(b)) => format!("{c} cyc ({:.2}x)", b as f64 / c as f64),
                    (Some(c), None) => format!("{c} cyc"),
                    (None, _) => "n/a".to_string(),
                })
                .collect();
            ((*w).to_string(), cells)
        })
        .collect();
    render_table(
        "Best cycles per heuristic (speedup vs domain-unaware)",
        &headers,
        &rows,
    )
}

fn run() -> Result<(), String> {
    let opts = parse_opts()?;
    let (space, preset_names, default_scale) = preset(&opts.preset)?;
    let scale = opts.scale.unwrap_or(default_scale);
    // `--workload` overrides the preset's list with any registry entries,
    // so new kernels are explorable without a dedicated preset.
    let workload_names: Vec<&str> = if opts.workloads.is_empty() {
        preset_names
    } else {
        opts.workloads.iter().map(String::as_str).collect()
    };

    let cfg = DseConfig {
        threads: opts.threads,
        halving: opts.budget.map(|base_budget| HalvingConfig {
            base_budget,
            eta: opts.eta.max(2),
            rungs: opts.rungs,
        }),
        ..DseConfig::default()
    };
    let mut engine = DseEngine::new(space.clone(), cfg);
    if let Some(path) = &opts.journal {
        let journal = Journal::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "journal {}: {} entries replayed, {} corrupt lines skipped",
            path.display(),
            journal.replayed,
            journal.skipped
        );
        engine = engine.with_journal(journal);
    }
    for name in &workload_names {
        let spec = workload_by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        engine.add_workload(spec.build_default(scale));
    }

    let mut strategy: Box<dyn SearchStrategy> = match opts.strategy.as_str() {
        "grid" => Box::new(GridSearch::new(8)),
        "random" => Box::new(RandomSearch::new(opts.seed, opts.samples, 8)),
        "anneal" => Box::new(Annealing::with_defaults(opts.seed, opts.steps)),
        s => return Err(format!("unknown strategy {s:?} (grid|random|anneal)")),
    };
    let report = engine.run(strategy.as_mut()).map_err(|e| e.to_string())?;

    print!("{}", report.render());
    println!("{}", heuristic_summary(&report, &workload_names));
    if let Some(path) = &opts.json {
        std::fs::write(path, report.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("report json -> {}", path.display());
    }
    if let Some(dir) = &opts.trace_dir {
        let traces = engine.emit_frontier_traces(&report, dir);
        println!("{} frontier traces -> {}", traces.len(), dir.display());
    }

    if opts.expect_no_sim && engine.simulated() != 0 {
        return Err(format!(
            "--expect-no-sim: {} points were re-simulated instead of replaying from the journal",
            engine.simulated()
        ));
    }
    if opts.check {
        check(&opts, &report, &workload_names)?;
        println!("check: ok");
    }
    Ok(())
}

/// `--check`: the acceptance gates the CI smoke job relies on.
fn check(opts: &Opts, report: &DseReport, workloads: &[&str]) -> Result<(), String> {
    for wf in &report.frontiers {
        if wf.frontier.is_empty() {
            return Err(format!("check: empty frontier for {}", wf.workload));
        }
        if !wf.frontier.is_non_dominated() {
            return Err(format!(
                "check: frontier for {} contains a dominated point",
                wf.workload
            ));
        }
    }
    if let Some(path) = &opts.journal {
        let journal = Journal::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        if journal.replayed == 0 {
            return Err("check: journal has no parseable entries".into());
        }
        if journal.skipped != 0 {
            return Err(format!(
                "check: journal has {} unparseable lines",
                journal.skipped
            ));
        }
        // Every full-budget frontier point must be present in the journal.
        for wf in &report.frontiers {
            for p in wf.frontier.points() {
                if journal.lookup(p.hash, &Budget::Full).is_none() {
                    return Err(format!(
                        "check: frontier point {:#x} missing from journal",
                        p.hash
                    ));
                }
            }
        }
    }
    for w in workloads {
        if let (Some(effcc), Some(unaware)) = (
            report.best_cycles(w, Heuristic::CriticalityAware),
            report.best_cycles(w, Heuristic::DomainUnaware),
        ) {
            if effcc > unaware {
                return Err(format!(
                    "check: {w}: effcc best ({effcc} cyc) is slower than domain-unaware ({unaware} cyc)"
                ));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dse: {e}");
            ExitCode::FAILURE
        }
    }
}
