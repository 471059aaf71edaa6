//! Layer probes run after the measured window of a traced run: the
//! place-and-route split of a compiled configuration and the engine's
//! first and steady-state runs of an artifact.

use crate::spans::Recorder;
use nupea::{ArtifactCache, Heuristic, MemoryModel, SimOptions, SystemConfig, Workload};
use nupea_pnr::{place, route, timing, Netlist, PlaceConfig, PnrError, Timing};
use std::sync::Arc;

/// Replay the compile of `workload` on `sys` as the pipeline performs
/// it — the netlist, then place, route and timing for each of its three
/// seeds — inside `pnr.*` spans, and check that the best
/// `(divider, max_hops)` equals the artifact's timing `real`.
///
/// # Errors
///
/// A message when the replay picks a different timing than the artifact.
pub fn pnr_split(
    workload: &Workload,
    sys: &SystemConfig,
    heuristic: Heuristic,
    real: Timing,
    rec: &Recorder,
    parent: u64,
    req: u64,
) -> Result<(), String> {
    let netlist = rec.span("pnr.netlist", parent, req, |_| {
        Netlist::from_dfg(workload.kernel.dfg())
    });
    let mut best: Option<(u32, u32)> = None;
    // The seed schedule of the pipeline's multi-seed compile.
    for attempt in 0..3u64 {
        let cfg = PlaceConfig {
            heuristic,
            seed: sys.seed.wrapping_add(attempt.wrapping_mul(0x9E37_79B9)),
            effort: sys.effort,
            avoid: sys.avoid.clone(),
        };
        let placement = match rec.span("pnr.place", parent, req, |_| {
            place::place(&sys.fabric, &netlist, &cfg)
        }) {
            Ok(p) => p,
            Err(e @ PnrError::Unplaceable(_)) => {
                return Err(format!("replay of a compiled config is {e}"))
            }
            Err(_) => continue,
        };
        let Ok(routing) = rec.span("pnr.route", parent, req, |_| {
            route(&sys.fabric, &netlist, &placement.pe_of)
        }) else {
            continue;
        };
        let t = rec.span("pnr.timing", parent, req, |_| {
            timing::analyze(&sys.fabric, routing.max_hops)
        });
        if best.is_none_or(|b| (t.divider, t.max_hops) < b) {
            best = Some((t.divider, t.max_hops));
        }
    }
    let real = (real.divider, real.max_hops);
    if best == Some(real) {
        Ok(())
    } else {
        Err(format!(
            "{}: pnr replay picked (divider, max_hops) {best:?}, the artifact has {real:?}",
            workload.name
        ))
    }
}

/// One configuration to probe.
pub struct Config {
    /// The workload.
    pub workload: Arc<Workload>,
    /// The system, carrying the PnR seed.
    pub sys: Arc<SystemConfig>,
    /// Placement heuristic.
    pub heuristic: Heuristic,
    /// Memory model to simulate.
    pub model: MemoryModel,
}

/// Compile each configuration (`pnr.compile`), replay its PnR split,
/// and simulate it twice (`engine.first_run`, which builds the lazy
/// input image, then `engine.run`), all inside spans under `parent`.
/// Returns the steady-state runs' firings, cycles, memory requests and
/// bank-wait cycles, each summed.
///
/// # Errors
///
/// Compile, simulation or PnR-replay failures.
pub fn configs(configs: &[Config], rec: &Recorder, parent: u64) -> Result<[u64; 4], String> {
    let cache = ArtifactCache::new(1);
    let mut sums = [0u64; 4];
    for (i, cfg) in configs.iter().enumerate() {
        let req = i as u64;
        let hash = nupea::config_hash(&cfg.workload, &cfg.sys, cfg.heuristic);
        let (compiled, _) = rec.span("pnr.compile", parent, req, |_| {
            cache.get_or_compile(hash, &cfg.workload, &cfg.sys, cfg.heuristic)
        });
        let compiled = compiled.map_err(|e| format!("{}: {e}", cfg.workload.name))?;
        pnr_split(
            &cfg.workload,
            &cfg.sys,
            cfg.heuristic,
            compiled.placed.timing,
            rec,
            parent,
            req,
        )?;
        let opts = SimOptions::new(cfg.model);
        for name in ["engine.first_run", "engine.run"] {
            let out = rec
                .span(name, parent, req, |_| compiled.simulate_with(&opts))
                .map_err(|e| format!("{}: {e}", cfg.workload.name))?;
            if name == "engine.run" {
                let s = &out.stats;
                for (sum, v) in sums.iter_mut().zip([
                    s.firings,
                    s.cycles,
                    s.mem.requests,
                    s.mem.bank_wait_cycles,
                ]) {
                    *sum += v;
                }
            }
        }
    }
    Ok(sums)
}
