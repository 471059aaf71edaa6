//! Fault-injection acceptance (DESIGN.md §9):
//!
//! 1. **Zero overhead when disabled** — a build with the fault hooks but
//!    `FaultConfig::OFF` is bit-identical, cycle counts included, to one
//!    without them, for every workload in the registry (the
//!    `trace_identity.rs`-style differential).
//! 2. **Recovery end-to-end** — a hard PE failure is detected, the
//!    avoid-set re-place succeeds, and the recovered run's sinks and
//!    final memory are bit-identical to the fault-free golden run.
//! 3. **Campaign determinism** — the same seed and plan produce a
//!    byte-identical resilience report across two runs.

use nupea::{
    CampaignConfig, FaultCampaign, Heuristic, OutcomeClass, PeId, RecoveryOutcome, SimOptions,
    SystemConfig,
};
use nupea::{FaultConfig, FaultKind, MemoryModel, Scale};
use nupea_fabric::Fabric;
use nupea_kernels::workloads::{all_workloads, workload_by_name, Workload};
use nupea_pnr::{place::place, Netlist, PlaceConfig};
use nupea_sim::{Engine, RunStats, SimConfig, SimMemory};

fn run_once(
    w: &Workload,
    fabric: &Fabric,
    pe_of: &[PeId],
    fault: FaultConfig,
) -> (RunStats, SimMemory) {
    let mut cfg = SimConfig::default();
    cfg.model = MemoryModel::Nupea;
    cfg.fault = fault;
    let mut mem = w.fresh_mem();
    let mut engine = Engine::new(w.kernel.dfg(), fabric, pe_of, cfg);
    for (pid, v) in w.kernel.bindings(&[]) {
        engine.bind(pid, v);
    }
    let stats = engine
        .run(&mut mem)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    (stats, mem)
}

/// All 13 workloads: a run with `FaultConfig::OFF` is identical in every
/// architectural observable — cycles, firings, sinks, final memory,
/// per-domain latency, per-PE firings, link traffic — to the default
/// configuration (which predates the fault hooks).
#[test]
fn disabled_fault_hooks_are_invisible_to_every_workload() {
    let fabric = Fabric::monaco(12, 12, 3).expect("monaco fabric");
    for spec in all_workloads() {
        let w = spec.build_default(Scale::Test);
        let netlist = Netlist::from_dfg(w.kernel.dfg());
        let pe_of = place(&fabric, &netlist, &PlaceConfig::default())
            .unwrap_or_else(|e| panic!("{}: placement failed: {e}", w.name))
            .pe_of;
        let (base, base_mem) = {
            let mut cfg = SimConfig::default();
            cfg.model = MemoryModel::Nupea;
            assert!(!cfg.fault.enabled(), "fault hooks must default off");
            let mut mem = w.fresh_mem();
            let mut engine = Engine::new(w.kernel.dfg(), &fabric, &pe_of, cfg);
            for (pid, v) in w.kernel.bindings(&[]) {
                engine.bind(pid, v);
            }
            let stats = engine
                .run(&mut mem)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            (stats, mem)
        };
        let (off, off_mem) = run_once(&w, &fabric, &pe_of, FaultConfig::OFF);

        assert_eq!(off.cycles, base.cycles, "{}: cycles moved", w.name);
        assert_eq!(off.fabric_cycles, base.fabric_cycles, "{}", w.name);
        assert_eq!(off.firings, base.firings, "{}: firings moved", w.name);
        assert_eq!(off.sinks, base.sinks, "{}: sinks moved", w.name);
        assert_eq!(off_mem, base_mem, "{}: memory moved", w.name);
        assert_eq!(
            off.load_latency_by_domain, base.load_latency_by_domain,
            "{}: latency stats moved",
            w.name
        );
        assert_eq!(off.firings_per_pe, base.firings_per_pe, "{}", w.name);
        assert_eq!(off.link_traffic, base.link_traffic, "{}", w.name);
    }
}

/// The tentpole scenario end-to-end, without the campaign wrapper: kill a
/// PE the golden placement uses, watch the run fail, re-place around the
/// avoid-set, and get golden-identical outputs back at a measurable
/// degraded-mode cost.
#[test]
fn pe_failure_recovers_via_avoid_set_replace() {
    let spec = workload_by_name("spmv").expect("spmv registered");
    let w = spec.build_default(Scale::Test);
    let sys = SystemConfig::monaco_12x12();
    let golden_compiled = sys
        .compile(&w, Heuristic::CriticalityAware)
        .expect("golden");
    let golden_out = golden_compiled
        .simulate_with(&SimOptions::new(MemoryModel::Nupea).no_validate())
        .expect("golden runs");
    let (golden, golden_mem) = (golden_out.stats, golden_out.memory);

    // Fail the busiest PE of the golden placement from reset — spmv
    // cannot complete without it.
    let dead = golden
        .firings_per_pe
        .iter()
        .enumerate()
        .max_by_key(|(_, &f)| f)
        .map(|(pe, _)| pe as u32)
        .expect("some PE fired");
    let kind = FaultKind::PeFail { pe: dead, at: 0 };

    let budget = golden.cycles * 4 + 20_000;
    let injected = golden_compiled.simulate_with(
        &SimOptions::new(MemoryModel::Nupea)
            .fault(FaultConfig::inject(kind))
            .stall_window(20_000)
            .max_cycles(budget)
            .no_validate(),
    );
    let detected = match injected {
        Err(_) => true,
        Ok(ref out) => out.stats.sinks != golden.sinks || out.memory != golden_mem,
    };
    assert!(detected, "killing the busiest PE must be detectable");

    // Recovery: avoid the failed PE and re-place.
    let mut rec_sys = sys.clone();
    rec_sys.avoid = vec![PeId(dead)];
    let recovered_compiled = rec_sys
        .compile(&w, Heuristic::CriticalityAware)
        .expect("the 12x12 fabric has spare PEs for spmv");
    assert!(
        !recovered_compiled.placed.pe_of.contains(&PeId(dead)),
        "re-place must not use the failed PE"
    );
    let recovered_out = recovered_compiled
        .simulate_with(&SimOptions::new(MemoryModel::Nupea).no_validate())
        .expect("recovered run completes");
    let (recovered, recovered_mem) = (recovered_out.stats, recovered_out.memory);
    assert_eq!(
        recovered.sinks, golden.sinks,
        "recovered sinks must be bit-identical to golden"
    );
    assert_eq!(
        recovered_mem, golden_mem,
        "recovered memory must be bit-identical to golden"
    );
    assert!(recovered.cycles > 0);
}

/// Same seed + same plan → byte-identical resilience report (JSON and
/// CSV), across two fresh campaign runs over several workloads.
#[test]
fn campaign_reports_are_byte_identical_across_runs() {
    let run = || {
        let mut cfg = CampaignConfig::smoke();
        cfg.injections = 2;
        let mut campaign = FaultCampaign::new(cfg);
        for name in ["spmv", "dmv"] {
            let spec = workload_by_name(name).unwrap();
            campaign.workload(spec.build_default(Scale::Test));
        }
        campaign.run().expect("campaign runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.to_json(), b.to_json(), "JSON reports must be identical");
    assert_eq!(a.to_csv(), b.to_csv(), "CSV reports must be identical");
    assert_eq!(a.records.len(), 4);
    assert_eq!(a.count(OutcomeClass::Sdc), 0, "PE failures are never SDCs");
    for r in &a.records {
        if r.outcome == OutcomeClass::Hang {
            assert_eq!(
                r.recovery,
                RecoveryOutcome::Unplaceable,
                "{}#{}: a PE-failure hang is only acceptable on exhausted capacity",
                r.workload,
                r.index
            );
        }
    }
}
