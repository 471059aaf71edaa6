//! Latency-perturbation fuzzing (schedule fuzzing): every workload must
//! produce bit-identical sinks and final memory when seeded random extra
//! latency is injected into NoC deliveries and memory completions.
//!
//! The timed engine's correctness must come from its dataflow ordering
//! rules (operand FIFOs, credit backpressure, in-issue-order memory
//! responses), never from incidental timing coincidences. Jitter shakes
//! the schedule hard; only cycle counts may move.

use nupea::Scale;
use nupea_fabric::Fabric;
use nupea_kernels::workloads::{all_workloads, Workload};
use nupea_pnr::{place::place, Netlist, PlaceConfig};
use nupea_sim::{Engine, MemoryModel, PerturbConfig, RunStats, SimConfig, SimMemory};

/// Place a workload kernel through the real PnR placer (criticality-aware,
/// default seed) — the one placement code path shared with `nupea::compile`.
fn placed(w: &Workload, fabric: &Fabric) -> Vec<nupea_fabric::PeId> {
    let netlist = Netlist::from_dfg(w.kernel.dfg());
    place(fabric, &netlist, &PlaceConfig::default())
        .unwrap_or_else(|e| panic!("{}: placement failed: {e}", w.name))
        .pe_of
}

fn run_once(
    w: &Workload,
    fabric: &Fabric,
    pe_of: &[nupea_fabric::PeId],
    model: MemoryModel,
    perturb: PerturbConfig,
) -> (RunStats, SimMemory) {
    let mut cfg = SimConfig::default();
    cfg.model = model;
    cfg.perturb = perturb;
    let mut mem = w.fresh_mem();
    let mut engine = Engine::new(w.kernel.dfg(), fabric, pe_of, cfg);
    for (pid, v) in w.kernel.bindings(&[]) {
        engine.bind(pid, v);
    }
    let stats = engine
        .run(&mut mem)
        .unwrap_or_else(|e| panic!("{} (seed {}): {e}", w.name, perturb.seed));
    (stats, mem)
}

/// All workloads, all perturbation seeds: identical results, only timing
/// moves. Release CI runs the full seed set; debug keeps the suite fast.
#[test]
fn all_workloads_are_schedule_invariant_under_perturbation() {
    let fabric = Fabric::monaco(12, 12, 3).expect("monaco fabric");
    let seeds: &[u64] = if cfg!(debug_assertions) {
        &[0xA11CE, 0xB0B]
    } else {
        &[0xA11CE, 0xB0B, 0xC0FFEE, 0x5EED]
    };
    // One deliberately heavy configuration beyond the default jitter caps.
    let heavy = PerturbConfig {
        seed: 0xFEED,
        max_noc_jitter: 9,
        max_mem_jitter: 23,
    };

    for spec in all_workloads() {
        let w = spec.build_default(Scale::Test);
        let pe_of = placed(&w, &fabric);
        let (base, base_mem) =
            run_once(&w, &fabric, &pe_of, MemoryModel::Nupea, PerturbConfig::OFF);
        w.validate(&base_mem, &base.sinks)
            .unwrap_or_else(|e| panic!("{}: baseline invalid: {e}", w.name));

        let configs = seeds
            .iter()
            .map(|&s| PerturbConfig::with_seed(s))
            .chain(std::iter::once(heavy));
        for p in configs {
            let (stats, mem) = run_once(&w, &fabric, &pe_of, MemoryModel::Nupea, p);
            assert_eq!(
                stats.sinks, base.sinks,
                "{}: sinks diverged under perturbation seed {}",
                w.name, p.seed
            );
            assert_eq!(
                mem, base_mem,
                "{}: final memory diverged under perturbation seed {}",
                w.name, p.seed
            );
            assert_eq!(
                stats.residual_tokens, base.residual_tokens,
                "{}: token balance changed under perturbation seed {}",
                w.name, p.seed
            );
        }
    }
}

/// Perturbation is deterministic in its seed: the same seed reproduces
/// the exact same cycle count, so fuzz failures can be replayed.
#[test]
fn perturbed_runs_replay_deterministically() {
    let fabric = Fabric::monaco(12, 12, 3).expect("monaco fabric");
    let spec = all_workloads()
        .into_iter()
        .find(|s| s.name == "spmv")
        .expect("spmv registered");
    let w = spec.build_default(Scale::Test);
    let pe_of = placed(&w, &fabric);
    let p = PerturbConfig::with_seed(0xA11CE);
    let (a, _) = run_once(&w, &fabric, &pe_of, MemoryModel::Nupea, p);
    let (b, _) = run_once(&w, &fabric, &pe_of, MemoryModel::Nupea, p);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.firings, b.firings);
}
