//! Shared machinery for the figure-regeneration benches.
//!
//! Every `benches/figNN_*.rs` target is a `harness = false` binary that
//! prints the same rows/series the corresponding figure of the paper
//! reports, normalized the same way (execution time relative to Monaco,
//! speedup over the Domain-Unaware heuristic, ...). EXPERIMENTS.md records
//! paper-vs-measured values for each.
//!
//! The sweeps are declared against [`nupea::runner::ExperimentRunner`], so
//! one PnR compile is shared across all memory models of a row and points
//! execute in parallel. Every bench accepts:
//!
//! * `--threads N` — worker threads (0 or absent = all cores);
//! * `--json PATH` / `--csv PATH` — structured export of every sweep
//!   point alongside the printed table;
//! * `--trace-dir DIR` — write one Chrome trace-event JSON per point
//!   (loadable in ui.perfetto.dev) and append an observability section
//!   with per-domain load-latency breakdowns and PE utilization.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use nupea::experiments::{geomean, heuristic_for, render_table};
use nupea::runner::{ExperimentRunner, RunRecord, RunnerReport};
use nupea::{auto_parallelize, Heuristic, MemoryModel, Scale, SystemConfig, TopologyKind};
use nupea_fabric::Fabric;
use nupea_kernels::workloads::all_workloads;
use std::path::PathBuf;

/// Command-line options shared by every bench binary.
#[derive(Debug, Clone, Default)]
pub struct BenchOpts {
    /// Worker threads for the experiment runner (0 = all cores).
    pub threads: usize,
    /// Write the sweep's records as JSON here.
    pub json: Option<PathBuf>,
    /// Write the sweep's records as CSV here.
    pub csv: Option<PathBuf>,
    /// Write one Chrome trace-event JSON per sweep point into this
    /// directory and print the observability section.
    pub trace_dir: Option<PathBuf>,
}

impl BenchOpts {
    /// Parse `--threads N`, `--json PATH`, `--csv PATH`, `--trace-dir
    /// DIR` from the process arguments, exiting with status 2 on a
    /// missing or malformed value. Unknown arguments (e.g. flags cargo
    /// forwards) are ignored.
    #[must_use]
    pub fn from_env() -> Self {
        BenchOpts::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// [`BenchOpts::from_env`] over explicit arguments.
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = BenchOpts::default();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--threads" => opts.threads = parse_flag(&mut args, &a)?,
                "--json" => opts.json = Some(flag_value(&mut args, &a)?.into()),
                "--csv" => opts.csv = Some(flag_value(&mut args, &a)?.into()),
                "--trace-dir" => opts.trace_dir = Some(flag_value(&mut args, &a)?.into()),
                _ => {}
            }
        }
        Ok(opts)
    }

    /// Apply the runner-level options (threads, trace directory) to a
    /// fresh runner.
    pub fn configure(&self, runner: &mut ExperimentRunner) {
        runner.threads(self.threads);
        if let Some(dir) = &self.trace_dir {
            runner.trace_dir(dir.clone());
        }
    }

    /// Write the requested JSON/CSV exports, print the observability
    /// section when tracing was on, and print the runner's compile-cache
    /// accounting.
    pub fn finish(&self, report: &RunnerReport) {
        if self.trace_dir.is_some() {
            print!("{}", render_trace_section(&report.records));
        }
        if let Some(p) = &self.json {
            std::fs::write(p, report.to_json()).expect("write JSON export");
            println!("wrote {}", p.display());
        }
        if let Some(p) = &self.csv {
            std::fs::write(p, report.to_csv()).expect("write CSV export");
            println!("wrote {}", p.display());
        }
        println!(
            "({} points, {} PnR compiles, {} cache hits, {:.1}s wall)\n",
            report.records.len(),
            report.pnr_compiles,
            report.cache_hits,
            report.wall.as_secs_f64()
        );
    }
}

/// The value following `flag` in a bench target's arguments. The error
/// names the flag, so every target reports a missing or malformed value
/// the same way.
///
/// # Errors
///
/// `"{flag} needs a value"` when the arguments end first.
pub fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// The value following `flag`, parsed.
///
/// # Errors
///
/// As [`flag_value`], or `"{flag}: {error}"` when it does not parse.
pub fn parse_flag<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let value = flag_value(args, flag)?;
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// The observability section printed when a sweep ran with
/// `--trace-dir`: per-domain mean load latency, PE utilization, and the
/// busiest-link token count of every traced point, followed by the trace
/// file paths (open them in ui.perfetto.dev). The per-domain numbers are
/// aggregated from the same event stream the trace files carry, so the
/// table and the timelines agree exactly.
#[must_use]
pub fn render_trace_section(records: &[RunRecord]) -> String {
    let traced: Vec<&RunRecord> = records.iter().filter(|r| r.trace_path.is_some()).collect();
    if traced.is_empty() {
        return String::new();
    }
    let ndom = traced
        .iter()
        .map(|r| r.load_latency_by_domain.len())
        .max()
        .unwrap_or(0);
    let mut headers: Vec<String> = (0..ndom).map(|d| format!("D{d} lat")).collect();
    headers.push("util".to_string());
    headers.push("peak link".to_string());
    let mut rows = Vec::new();
    for r in &traced {
        let mut cells: Vec<String> = (0..ndom)
            .map(|d| match r.load_latency_by_domain.get(d) {
                Some(dl) if dl.count > 0 => format!(
                    "{:.1} ({})",
                    dl.total_latency as f64 / dl.count as f64,
                    dl.count
                ),
                _ => "-".to_string(),
            })
            .collect();
        cells.push(format!("{:.3}", r.mean_pe_utilization));
        cells.push(format!("{}", r.peak_link_tokens));
        rows.push((format!("{} {}", r.workload, r.model.label()), cells));
    }
    let mut out = render_table(
        "per-domain load latency from traces: mean cycles (loads)",
        &headers,
        &rows,
    );
    out.push_str("traces (open in ui.perfetto.dev):\n");
    for r in &traced {
        out.push_str(&format!("  {}\n", r.trace_path.as_deref().unwrap_or("")));
    }
    out.push('\n');
    out
}

/// Declare all 13 bench-scale workloads × `models` on a fresh runner and
/// execute it. Records come back grouped per workload, `models.len()`
/// records per group, in registry order.
fn sweep_all_workloads(opts: &BenchOpts, models: &[MemoryModel]) -> RunnerReport {
    let mut runner = ExperimentRunner::new();
    opts.configure(&mut runner);
    let sys = runner.system(SystemConfig::monaco_12x12());
    for spec in all_workloads() {
        let w = runner.workload(spec.build_default(Scale::Bench));
        runner.model_sweep(w, sys, models);
    }
    runner.run()
}

/// A table cell for one record: the normalized metric, or the error.
fn norm_cell(r: &RunRecord, base: f64, col: &mut Vec<f64>) -> String {
    match &r.error {
        Some(e) => format!("error: {e}"),
        None => {
            let norm = r.cycles as f64 / base;
            col.push(norm);
            format!("{norm:.3}")
        }
    }
}

/// Run all 13 bench-scale workloads across `models`, printing execution
/// time normalized to the `baseline` label (lower is better), plus
/// geomeans — the format of Figs. 11/14/15.
pub fn model_sweep(title: &str, models: &[MemoryModel], baseline: &str, paper_note: &str) {
    let opts = BenchOpts::from_env();
    let report = sweep_all_workloads(&opts, models);
    let headers: Vec<String> = models.iter().map(|m| m.label()).collect();
    let mut rows = Vec::new();
    let mut norm_cols: Vec<Vec<f64>> = vec![Vec::new(); models.len()];
    for group in report.records.chunks(models.len()) {
        let base = group
            .iter()
            .find(|r| r.error.is_none() && r.model.label() == baseline)
            .map(|r| r.cycles as f64);
        let cells: Vec<String> = match base {
            Some(base) => group
                .iter()
                .zip(&mut norm_cols)
                .map(|(r, col)| norm_cell(r, base, col))
                .collect(),
            None => vec![format!(
                "error: {}",
                group[0].error.as_deref().unwrap_or("baseline missing")
            )],
        };
        rows.push((group[0].workload.clone(), cells));
    }
    let geo: Vec<String> = norm_cols
        .iter()
        .map(|c| format!("{:.3}", geomean(c)))
        .collect();
    rows.push(("geomean".to_string(), geo));
    println!("{}", render_table(title, &headers, &rows));
    println!("{paper_note}\n");
    opts.finish(&report);
}

/// Fig. 12-style PnR-heuristic ablation over all workloads, every point
/// on the Monaco memory model. Prints speedup over Domain-Unaware
/// (higher is better).
pub fn heuristic_ablation(title: &str, paper_note: &str) {
    let opts = BenchOpts::from_env();
    let hs = [
        Heuristic::DomainUnaware,
        Heuristic::OnlyDomainAware,
        Heuristic::CriticalityAware,
    ];
    let mut runner = ExperimentRunner::new();
    opts.configure(&mut runner);
    let sys = runner.system(SystemConfig::monaco_12x12());
    for spec in all_workloads() {
        let w = runner.workload(spec.build_default(Scale::Bench));
        runner.heuristic_sweep(w, sys, &hs, MemoryModel::Nupea);
    }
    let report = runner.run();

    let headers: Vec<String> = hs.iter().map(|h| h.to_string()).collect();
    let mut rows = Vec::new();
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); hs.len()];
    for group in report.records.chunks(hs.len()) {
        let cells: Vec<String> = match &group[0].error {
            None => {
                let base = group[0].cycles as f64;
                group
                    .iter()
                    .zip(&mut speedups)
                    .map(|(r, col)| match &r.error {
                        Some(e) => format!("error: {e}"),
                        None => {
                            let s = base / r.cycles as f64;
                            col.push(s);
                            format!("{s:.3}")
                        }
                    })
                    .collect()
            }
            Some(e) => vec![format!("error: {e}")],
        };
        rows.push((group[0].workload.clone(), cells));
    }
    let geo: Vec<String> = speedups
        .iter()
        .map(|c| format!("{:.3}", geomean(c)))
        .collect();
    rows.push(("geomean".to_string(), geo));
    println!("{}", render_table(title, &headers, &rows));
    println!("{paper_note}\n");
    opts.finish(&report);
}

/// One measured point of the Figs. 16/17 topology sweep.
#[derive(Debug, Clone)]
pub struct TopoPoint {
    /// Fabric layout.
    pub topology: TopologyKind,
    /// Fabric side (rows = cols).
    pub size: usize,
    /// Data-NoC tracks.
    pub tracks: u32,
    /// Auto-chosen parallelism degree.
    pub par: usize,
    /// Simulated execution time (system cycles); `None` if PnR failed at
    /// every parallelism degree.
    pub cycles: Option<u64>,
    /// Maximum routed path (hops) from PnR.
    pub max_hops: u32,
    /// PnR-chosen clock divider.
    pub divider: u32,
}

/// The fabric-scaling study of §7.2: spmspv (smaller input), auto-
/// parallelized onto Monaco / Clustered-Single / Clustered-Double at
/// 8×8, 16×16, 24×24 with 2 vs 7 NoC tracks. The PnR-chosen divider is
/// used (no override) — fabric timing is the point of the study. The
/// auto-parallelizer's compile-until-failure loop is inherently serial,
/// so this study does not route through the experiment runner.
pub fn topology_sweep() -> Vec<TopoPoint> {
    let mut out = Vec::new();
    for &tracks in &[2u32, 7] {
        for &size in &[8usize, 16, 24] {
            for &topo in &[
                TopologyKind::Monaco,
                TopologyKind::ClusteredSingle,
                TopologyKind::ClusteredDouble,
            ] {
                let fabric =
                    Fabric::of_kind(topo, size, size, tracks).expect("valid scaled fabric");
                // Track-constrained routing rewards placement quality:
                // spend extra annealing effort, as a real flow would for a
                // congested target.
                let mut sys = SystemConfig::with_fabric(fabric);
                sys.divider_override = None;
                sys.effort = 600;
                let spec = nupea_kernels::workloads::WorkloadSpec {
                    name: "spmspv",
                    build: |_, par| nupea_kernels::workloads::sparse::spmspv_custom(96, 0.9, par),
                    default_par: 1,
                };
                match auto_parallelize(&spec, Scale::Bench, &sys, Heuristic::CriticalityAware) {
                    Ok((w, compiled)) => {
                        let cycles = compiled.simulate(MemoryModel::Nupea).ok().map(|s| s.cycles);
                        out.push(TopoPoint {
                            topology: topo,
                            size,
                            tracks,
                            par: w.par,
                            cycles,
                            max_hops: compiled.placed.timing.max_hops,
                            divider: compiled.placed.timing.divider,
                        });
                    }
                    Err(_) => out.push(TopoPoint {
                        topology: topo,
                        size,
                        tracks,
                        par: 0,
                        cycles: None,
                        max_hops: 0,
                        divider: 0,
                    }),
                }
            }
        }
    }
    out
}

/// Render the topology sweep with a caller-chosen metric per point.
pub fn render_topo_table(
    title: &str,
    points: &[TopoPoint],
    metric: impl Fn(&TopoPoint) -> String,
) -> String {
    let headers: Vec<String> = ["monaco", "clustered-single", "clustered-double"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for &tracks in &[2u32, 7] {
        for &size in &[8usize, 16, 24] {
            let cells: Vec<String> = [
                TopologyKind::Monaco,
                TopologyKind::ClusteredSingle,
                TopologyKind::ClusteredDouble,
            ]
            .iter()
            .map(|&t| {
                points
                    .iter()
                    .find(|p| p.topology == t && p.size == size && p.tracks == tracks)
                    .map(&metric)
                    .unwrap_or_else(|| "-".to_string())
            })
            .collect();
            rows.push((format!("{size}x{size} tracks={tracks}"), cells));
        }
    }
    render_table(title, &headers, &rows)
}

/// Compile-and-run helper for the ablation benches: one workload, one
/// config, one model.
///
/// # Errors
///
/// Returns the pipeline error as a string.
pub fn run_once(
    workload: &nupea::Workload,
    sys: &SystemConfig,
    model: MemoryModel,
) -> Result<u64, String> {
    sys.compile(workload, heuristic_for(model))
        .and_then(|c| c.simulate(model))
        .map(|s| s.cycles)
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> impl Iterator<Item = String> + '_ {
        line.split_whitespace().map(String::from)
    }

    #[test]
    fn bench_opts_parse_every_flag_and_reject_malformed_values() {
        let opts = BenchOpts::parse(args(
            "--bench --threads 3 --json a.json --csv b.csv --trace-dir t",
        ))
        .unwrap();
        assert_eq!(opts.threads, 3);
        assert_eq!(opts.json, Some(PathBuf::from("a.json")));
        assert_eq!(opts.csv, Some(PathBuf::from("b.csv")));
        assert_eq!(opts.trace_dir, Some(PathBuf::from("t")));
        assert_eq!(BenchOpts::parse(args("")).unwrap().threads, 0);

        let err = BenchOpts::parse(args("--threads banana")).unwrap_err();
        assert!(err.starts_with("--threads: "), "{err}");
        assert_eq!(
            BenchOpts::parse(args("--json")).unwrap_err(),
            "--json needs a value"
        );
    }
}
