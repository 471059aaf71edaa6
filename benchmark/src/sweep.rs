//! `sweep`: rounds of the Fig. 11 sweep through `ExperimentRunner` —
//! every kernel at Bench scale under the four primary memory models, one
//! fresh runner and one PnR seed per round.

use crate::layers::{ns_to, print_self_times, Layers};
use crate::probe;
use crate::report::{metric, Outcome};
use crate::spans::{durations, Recorder};
use crate::{alloc, build_kernels, median_of_setups, stats, timed, Ctx, MIN_ROUNDS, THREADS};
use nupea::experiments::{geomean, heuristic_for, primary_models};
use nupea::runner::{records_to_json, RunErrorKind, RunRecord, RunnerReport};
use nupea::{ExperimentRunner, MemoryModel, Scale, SystemConfig, Workload};
use std::sync::Arc;
use std::time::Instant;

/// One sweep round over `ws` with PnR seed `seed`.
fn round(ws: &[Arc<Workload>], seed: u64) -> RunnerReport {
    let mut sys = SystemConfig::monaco_12x12();
    sys.seed = seed;
    let mut runner = ExperimentRunner::new();
    runner.threads(THREADS);
    let s = runner.system(sys);
    for w in ws {
        let h = runner.shared_workload(Arc::clone(w));
        runner.model_sweep(h, s, &primary_models());
    }
    runner.run()
}

fn completed(records: &[RunRecord]) -> impl Iterator<Item = &RunRecord> {
    records.iter().filter(|r| r.error.is_none())
}

/// Run the workload.
///
/// # Errors
///
/// Never; failures are reported in the outcome.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut build_s = Vec::new();
    // Set-up builds the inputs and runs round 0 once: that warms the
    // process and gives the bytes round 0 must reproduce in the window.
    let (setup_s, (ws, first)) = median_of_setups(
        || {
            let (ws, s) = build_kernels(Scale::Bench);
            build_s.push(s);
            let ws: Vec<Arc<Workload>> = ws.into_iter().map(Arc::new).collect();
            let first = round(&ws, ctx.derive("pnr", 0));
            Ok((ws, first))
        },
        drop,
    )?;
    let first_json = records_to_json(&first.records, false);

    let rec = Recorder::new(ctx.trace);
    let mut layers = Layers {
        kernels_build_s: stats::median(&build_s),
        ..Layers::default()
    };
    let (cpu0, allocs0, faults0, t0) = (
        alloc::cpu_seconds(),
        alloc::allocs(),
        alloc::minor_faults(),
        Instant::now(),
    );
    let mut walls_ms = Vec::new();
    let mut firings = 0u64;
    for r in 0u64.. {
        if walls_ms.len() >= MIN_ROUNDS && t0.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        let (report, wall) = rec.span("runner.run", 0, r, |_| {
            timed(|| round(&ws, ctx.derive("pnr", r)))
        });
        walls_ms.push(wall * 1e3);
        let (json, ser) = rec.span("runner.serialize", 0, r, |_| {
            timed(|| records_to_json(&report.records, false))
        });
        layers.serialize_us.push(ser * 1e6);
        if r == 0 && json != first_json {
            out.error("round 0 is not byte-identical to its set-up run");
        }
        for p in &report.records {
            out.attempted += 1;
            match p.error_kind {
                None => {
                    layers.sim_ms.push(p.sim_micros as f64 / 1e3);
                    firings += p.firings;
                }
                Some(RunErrorKind::Pnr) => {
                    out.failed += 1;
                    println!(
                        "failed: round {r} {} {}: {}",
                        p.workload,
                        p.model.label(),
                        p.error.as_deref().unwrap_or("")
                    );
                }
                Some(kind) => out.error(format!(
                    "{} {}: {kind}: {}",
                    p.workload,
                    p.model.label(),
                    p.error.as_deref().unwrap_or("")
                )),
            }
            if !p.compile_cached {
                if p.error_kind == Some(RunErrorKind::Pnr) {
                    layers.compile_failed += 1;
                } else {
                    layers.compile_ms.push(p.compile_micros as f64 / 1e3);
                }
            }
        }
    }
    let window_s = t0.elapsed().as_secs_f64();
    let peak_mb = alloc::peak_mb();
    layers.parallel_util = (alloc::cpu_seconds() - cpu0) / (THREADS as f64 * window_s);
    layers.allocs = alloc::allocs() - allocs0;
    layers.minor_faults = alloc::minor_faults() - faults0;
    layers.ns_per_firing = layers.sim_ms.iter().sum::<f64>() * 1e6 / firings.max(1) as f64;

    let cycles: Vec<f64> = completed(&first.records).map(|r| r.cycles as f64).collect();
    out.end_to_end = vec![
        metric("setup_s", setup_s, "s"),
        metric("op_p50_ms", stats::median(&walls_ms), "ms"),
        metric(
            "op_tail_ms",
            stats::percentile(&walls_ms, stats::tail_percentile(walls_ms.len())),
            "ms",
        ),
        metric("peak_mem_mb", peak_mb, "MB"),
        metric("sim_cycles_geomean", geomean(&cycles), "cycles"),
    ];
    if ctx.trace {
        traced(ctx, &mut out, &mut layers, &ws, &first, &rec)?;
    }
    Ok(out)
}

/// The traced run's extra measurements: tracing overhead, the probe of
/// round 0's compile keys, deterministic counters from round 0.
fn traced(
    ctx: &Ctx,
    out: &mut Outcome,
    layers: &mut Layers,
    ws: &[Arc<Workload>],
    first: &RunnerReport,
    rec: &Recorder,
) -> Result<(), String> {
    for p in completed(&first.records) {
        layers.count_run(p);
    }
    let cycles_of = |name: &str, model: MemoryModel| {
        completed(&first.records)
            .find(|r| r.workload == name && r.model == model)
            .map(|r| r.cycles as f64)
    };
    let speedups: Vec<f64> = ws
        .iter()
        .filter_map(|w| {
            Some(cycles_of(w.name, MemoryModel::Upea(2))? / cycles_of(w.name, MemoryModel::Nupea)?)
        })
        .collect();
    layers.speedup_upea2_geomean = geomean(&speedups);
    println!(
        "model: UPEA2 / NUPEA cycles geomean {:.3} (paper: 1.28)",
        layers.speedup_upea2_geomean
    );

    let seed = ctx.derive("pnr", 0);
    layers.trace_overhead_pct =
        crate::overhead_pct(|r| r.span("runner.run", 0, 0, |_| timed(|| round(ws, seed)).1));

    let mut sys = SystemConfig::monaco_12x12();
    sys.seed = seed;
    let sys = Arc::new(sys);
    let mut configs = Vec::new();
    for w in ws {
        for model in [MemoryModel::Nupea, MemoryModel::Upea(2)] {
            configs.push(probe::Config {
                workload: Arc::clone(w),
                sys: Arc::clone(&sys),
                heuristic: heuristic_for(model),
                model,
            });
        }
    }
    rec.span("probe", 0, 0, |id| probe::configs(&configs, rec, id))
        .map_err(|e| format!("probe: {e}"))?;
    let spans = rec.spans();
    layers.add_pnr_split(&spans);
    layers.first_run_ms = ns_to(durations(&spans, "engine.first_run"), 1e6);
    print_self_times(&spans);
    crate::write_trace("sweep", &spans)?;
    out.layers = layers.metrics();
    Ok(())
}
