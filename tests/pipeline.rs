//! Cross-crate integration tests: every workload, compiled with every
//! heuristic, simulated under every memory model, validated end to end
//! against its reference implementation in the *timed* simulator.

use nupea::experiments::{heuristic_for, primary_models};
use nupea::runner::ExperimentRunner;
use nupea::{auto_parallelize, Heuristic, MemoryModel, Scale, SimOptions, SystemConfig};
use nupea_kernels::workloads::{all_workloads, workload_by_name};

#[test]
fn all_workloads_validate_on_all_primary_models_test_scale() {
    let mut runner = ExperimentRunner::new();
    let sys = runner.system(SystemConfig::monaco_12x12());
    for spec in all_workloads() {
        let w = runner.workload(spec.build_default(Scale::Test));
        runner.model_sweep(w, sys, &primary_models());
    }
    let report = runner.run();
    assert_eq!(report.records.len(), all_workloads().len() * 4);
    for r in &report.records {
        assert!(
            r.error.is_none(),
            "{}/{}: {:?}",
            r.workload,
            r.model.label(),
            r.error
        );
        assert!(r.cycles > 0, "{}/{}", r.workload, r.model.label());
    }
    // One compile per (workload, heuristic): effcc for NUPEA plus one
    // shared domain-unaware compile for the three uniform baselines.
    assert_eq!(report.pnr_compiles, all_workloads().len() * 2);
    assert_eq!(report.cache_hits, all_workloads().len() * 2);
}

#[test]
fn all_workloads_validate_at_bench_scale_on_monaco() {
    let sys = SystemConfig::monaco_12x12();
    for spec in all_workloads() {
        let w = spec.build_default(Scale::Bench);
        let compiled = sys
            .compile(&w, Heuristic::CriticalityAware)
            .unwrap_or_else(|e| panic!("{}: pnr failed: {e}", spec.name));
        let out = compiled
            .simulate_with(&SimOptions::new(MemoryModel::Nupea))
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(out.stats.residual_tokens, 0, "{}: unbalanced", spec.name);
        // Footprint: the built and final images store only allocated words.
        for (which, mem) in [("built", &w.mem), ("final", &out.memory)] {
            assert!(
                mem.stored() <= w.mem.used(),
                "{}: {which} image stores {} words, {} allocated",
                spec.name,
                mem.stored(),
                w.mem.used()
            );
        }
    }
}

#[test]
fn all_heuristics_produce_correct_results() {
    let sys = SystemConfig::monaco_12x12();
    for name in ["spmspv", "dmv", "fft"] {
        let w = workload_by_name(name).unwrap().build_default(Scale::Test);
        for h in [
            Heuristic::DomainUnaware,
            Heuristic::OnlyDomainAware,
            Heuristic::CriticalityAware,
        ] {
            let c = sys.compile(&w, h).unwrap();
            c.simulate(MemoryModel::Nupea)
                .unwrap_or_else(|e| panic!("{name}/{h}: {e}"));
        }
    }
}

#[test]
fn upea_and_numa_sweeps_are_monotone_on_geomean() {
    // The headline scalability claim (Figs. 14/15): more uniform latency,
    // more time — on average across a few representative workloads.
    let sys = SystemConfig::monaco_12x12();
    for mk in [
        MemoryModel::Upea as fn(u32) -> MemoryModel,
        MemoryModel::NumaUpea as fn(u32) -> MemoryModel,
    ] {
        let mut prev = 0.0f64;
        for lat in [0u32, 2, 4] {
            let mut product = 1.0f64;
            let mut count = 0u32;
            for name in ["spmspv", "spadd", "tc"] {
                let w = workload_by_name(name).unwrap().build_default(Scale::Test);
                let c = sys.compile(&w, heuristic_for(mk(lat))).unwrap();
                let stats = c.simulate(mk(lat)).unwrap();
                product *= stats.cycles as f64;
                count += 1;
            }
            let geo = product.powf(1.0 / f64::from(count));
            assert!(
                geo >= prev,
                "latency {lat}: geomean {geo} regressed below {prev}"
            );
            prev = geo;
        }
    }
}

#[test]
fn monaco_beats_upea2_on_the_sparse_flagships() {
    // The paper's core result, at test scale, end to end.
    let sys = SystemConfig::monaco_12x12();
    for name in ["spmspv", "spmspm"] {
        let w = workload_by_name(name).unwrap().build_default(Scale::Bench);
        let monaco = sys.compile(&w, Heuristic::CriticalityAware).unwrap();
        let baseline = sys.compile(&w, Heuristic::DomainUnaware).unwrap();
        let nupea = monaco.simulate(MemoryModel::Nupea).unwrap();
        let upea2 = baseline.simulate(MemoryModel::Upea(2)).unwrap();
        assert!(
            (upea2.cycles as f64) > (nupea.cycles as f64) * 1.1,
            "{name}: NUPEA {} vs UPEA2 {} — expected >10% gap",
            nupea.cycles,
            upea2.cycles
        );
    }
}

#[test]
fn auto_parallelize_picks_a_performant_fit() {
    let spec = workload_by_name("spmv").unwrap();
    let sys = SystemConfig::monaco_12x12();
    let (w, c) = auto_parallelize(&spec, Scale::Test, &sys, Heuristic::CriticalityAware).unwrap();
    assert!(w.par >= 1);
    let chosen = c.simulate(MemoryModel::Nupea).unwrap();
    // The chosen degree must not lose to the trivial par=1 design (the
    // auto-parallelizer selects by simulated performance, §6).
    let base = (spec.build)(Scale::Test, 1);
    let base_c = sys.compile(&base, Heuristic::CriticalityAware).unwrap();
    let base_stats = base_c.simulate(MemoryModel::Nupea).unwrap();
    assert!(
        chosen.cycles <= base_stats.cycles,
        "auto-par chose {} ({} cyc) but par 1 runs in {} cyc",
        w.par,
        chosen.cycles,
        base_stats.cycles
    );
}

#[test]
fn determinism_same_seed_same_cycles() {
    let sys = SystemConfig::monaco_12x12();
    let w = workload_by_name("tc").unwrap().build_default(Scale::Test);
    let run = || {
        let c = sys.compile(&w, Heuristic::CriticalityAware).unwrap();
        c.simulate(MemoryModel::Nupea).unwrap().cycles
    };
    assert_eq!(run(), run(), "same seed must reproduce exactly");
}

#[test]
fn critical_loads_reach_fast_domains_across_workloads() {
    use nupea_ir::graph::Criticality;
    let sys = SystemConfig::monaco_12x12();
    for name in ["spmspv", "spmspm", "tc"] {
        let w = workload_by_name(name).unwrap().build_default(Scale::Bench);
        let c = sys.compile(&w, Heuristic::CriticalityAware).unwrap();
        let hist =
            c.placed
                .domain_histogram_for(w.kernel.dfg(), &sys.fabric, Criticality::Critical);
        let total: usize = hist.iter().sum();
        if total == 0 {
            continue;
        }
        assert!(
            hist[0] * 2 >= total,
            "{name}: most critical loads should sit in D0, got {hist:?}"
        );
    }
}
