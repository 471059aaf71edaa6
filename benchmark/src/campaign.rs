//! `campaign`: rounds of a fault campaign over every kernel at Test
//! scale with all fault classes; each round draws its fault plan and PnR
//! seed from the run's seed.

use crate::layers::{ns_to, print_self_times, Layers};
use crate::probe;
use crate::report::{metric, Outcome};
use crate::spans::{durations, Recorder};
use crate::{
    alloc, build_kernels, kernels, median_of_setups, stats, timed, Ctx, MIN_ROUNDS, THREADS,
};
use nupea::campaign::CampaignError;
use nupea::experiments::geomean;
use nupea::{
    CampaignConfig, CampaignReport, FaultCampaign, Heuristic, MemoryModel, OutcomeClass,
    PipelineError, Scale, SystemConfig,
};
use std::sync::Arc;
use std::time::Instant;

/// Injections per kernel per round: enough rounds fit a run for a
/// median, and each round still covers every fault class.
const INJECTIONS: u32 = 8;

fn config(ctx: &Ctx, round: u64, injections: u32) -> (CampaignConfig, SystemConfig) {
    let mut cfg = CampaignConfig::full();
    cfg.seed = ctx.derive("plan", round);
    cfg.injections = injections;
    cfg.threads = THREADS;
    let mut sys = SystemConfig::monaco_12x12();
    sys.seed = ctx.derive("pnr", round);
    (cfg, sys)
}

/// One campaign round; the kernels are built inside it, as a campaign
/// over the registry does.
fn round(ctx: &Ctx, round: u64, injections: u32) -> Result<CampaignReport, CampaignError> {
    let (cfg, sys) = config(ctx, round, injections);
    let mut campaign = FaultCampaign::new(cfg).with_system(sys);
    for w in build_kernels(Scale::Test).0 {
        campaign.workload(w);
    }
    campaign.run()
}

/// Run the workload.
///
/// # Errors
///
/// A campaign that fails for any reason but a typed PnR failure of a
/// golden compile.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut build_s = Vec::new();
    // Set-up runs round 0 once: that warms the process and gives the
    // report round 0 must reproduce in the window.
    let (setup_s, first) = median_of_setups(
        || {
            build_s.push(build_kernels(Scale::Test).1);
            round(ctx, 0, INJECTIONS).map_err(|e| format!("set-up round: {e}"))
        },
        drop,
    )?;
    let first_json = first.to_json();

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
    let planned = (kernels().len() as u64) * u64::from(INJECTIONS);
    for r in 0u64.. {
        if walls_ms.len() >= MIN_ROUNDS && t0.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        let (result, wall) = rec.span("campaign.run", 0, r, |_| {
            timed(|| round(ctx, r, INJECTIONS))
        });
        walls_ms.push(wall * 1e3);
        out.attempted += planned;
        let report = match result {
            Ok(report) => report,
            Err(CampaignError::Golden {
                error: PipelineError::Pnr(_),
                ..
            }) => {
                out.failed += planned;
                continue;
            }
            Err(e) => return Err(format!("round {r}: {e}")),
        };
        let (json, ser) = rec.span("runner.serialize", 0, r, |_| timed(|| report.to_json()));
        layers.serialize_us.push(ser * 1e6);
        if r == 0 && json != first_json {
            out.error("round 0's report is not byte-identical to its set-up run");
        }
        if report.records.len() as u64 != planned {
            out.error(format!(
                "round {r} classified {} of {planned} injections",
                report.records.len()
            ));
        }
    }
    let window_s = t0.elapsed().as_secs_f64();
    let peak_mb = alloc::peak_mb();
    layers.parallel_util = (alloc::cpu_seconds() - cpu0) / (THREADS as f64 * window_s);
    layers.allocs = alloc::allocs() - allocs0;
    layers.minor_faults = alloc::minor_faults() - faults0;

    // One golden run per kernel; its cycles are the fault-free result.
    let mut golden: Vec<(&str, f64)> = first
        .records
        .iter()
        .map(|r| (r.workload.as_str(), r.golden_cycles as f64))
        .collect();
    golden.dedup();
    let cycles: Vec<f64> = golden.iter().map(|g| g.1).collect();
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
        let median_round_s = stats::median(&walls_ms) / 1e3;
        traced(ctx, &mut out, &mut layers, &first, median_round_s, &rec)?;
    }
    Ok(out)
}

fn traced(
    ctx: &Ctx,
    out: &mut Outcome,
    layers: &mut Layers,
    first: &CampaignReport,
    median_round_s: f64,
    rec: &Recorder,
) -> Result<(), String> {
    layers.campaign = [
        first.count(OutcomeClass::Masked) as u64,
        first.count(OutcomeClass::Recovered) as u64,
        first.count(OutcomeClass::Hang) as u64,
        first.count(OutcomeClass::Sdc) as u64,
        first.records.iter().filter_map(|r| r.injected_cycles).sum(),
    ];
    // The golden phase alone: the same round with no injections.
    let golden_s = rec
        .span("campaign.golden", 0, 0, |_| timed(|| round(ctx, 0, 0)))
        .1;
    out.extra.push(metric("campaign.golden_s", golden_s, "s"));
    out.extra
        .push(metric("campaign.inject_s", median_round_s - golden_s, "s"));
    layers.trace_overhead_pct = crate::overhead_pct(|r| {
        r.span("campaign.run", 0, 0, |_| {
            timed(|| round(ctx, 0, INJECTIONS)).1
        })
    });

    let (_, sys) = config(ctx, 0, INJECTIONS);
    let sys = Arc::new(sys);
    let configs: Vec<probe::Config> = build_kernels(Scale::Test)
        .0
        .into_iter()
        .map(|w| probe::Config {
            workload: Arc::new(w),
            sys: Arc::clone(&sys),
            heuristic: Heuristic::CriticalityAware,
            model: MemoryModel::Nupea,
        })
        .collect();
    let counts = rec
        .span("probe", 0, 0, |id| probe::configs(&configs, rec, id))
        .map_err(|e| format!("probe: {e}"))?;
    layers.engine_counts = counts;
    let spans = rec.spans();
    layers.add_pnr_split(&spans);
    // The campaign compiles and simulates inside `FaultCampaign::run`, so
    // the compile and engine samples come from the probe of its goldens.
    let ms = |name| ns_to(durations(&spans, name), 1e6);
    layers.compile_ms = ms("pnr.compile");
    layers.sim_ms = ms("engine.run");
    layers.first_run_ms = ms("engine.first_run");
    layers.ns_per_firing = layers.sim_ms.iter().sum::<f64>() * 1e6 / counts[0].max(1) as f64;
    print_self_times(&spans);
    crate::write_trace("campaign", &spans)?;
    out.layers = layers.metrics();
    Ok(())
}
