//! Tracing must be an observer, never a participant: a run with the
//! event recorder on must be cycle-for-cycle identical to a run with it
//! off, for every workload in the registry. And the trace must be a
//! faithful log — aggregating its memory-delivery events reproduces the
//! engine's own per-domain latency statistics exactly.

use nupea::Scale;
use nupea_fabric::Fabric;
use nupea_kernels::workloads::{all_workloads, Workload};
use nupea_pnr::{place::place, Netlist, PlaceConfig};
use nupea_sim::{Engine, MemoryModel, RunStats, SimConfig, SimMemory, TraceBuffer, TraceConfig};

fn run_once(
    w: &Workload,
    fabric: &Fabric,
    pe_of: &[nupea_fabric::PeId],
    model: MemoryModel,
    trace: TraceConfig,
) -> (RunStats, SimMemory, Option<TraceBuffer>) {
    let mut cfg = SimConfig::default();
    cfg.model = model;
    cfg.trace = trace;
    let mut mem = w.fresh_mem();
    let mut engine = Engine::new(w.kernel.dfg(), fabric, pe_of, cfg);
    for (pid, v) in w.kernel.bindings(&[]) {
        engine.bind(pid, v);
    }
    let stats = engine
        .run(&mut mem)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let trace = engine.take_trace();
    (stats, mem, trace)
}

/// All 13 workloads: trace-on and trace-off runs are identical in every
/// architectural observable — cycles, firings, sinks, final memory,
/// per-domain latency — and the recorded trace agrees with the stats.
#[test]
fn tracing_is_invisible_to_every_workload() {
    let fabric = Fabric::monaco(12, 12, 3).expect("monaco fabric");
    for spec in all_workloads() {
        let w = spec.build_default(Scale::Test);
        let netlist = Netlist::from_dfg(w.kernel.dfg());
        let pe_of = place(&fabric, &netlist, &PlaceConfig::default())
            .unwrap_or_else(|e| panic!("{}: placement failed: {e}", w.name))
            .pe_of;
        let (off, off_mem, no_trace) =
            run_once(&w, &fabric, &pe_of, MemoryModel::Nupea, TraceConfig::OFF);
        assert!(
            no_trace.is_none(),
            "{}: trace-off must record nothing",
            w.name
        );
        let (on, on_mem, trace) =
            run_once(&w, &fabric, &pe_of, MemoryModel::Nupea, TraceConfig::on());
        let trace = trace.unwrap_or_else(|| panic!("{}: trace-on must record", w.name));

        assert_eq!(on.cycles, off.cycles, "{}: cycles moved", w.name);
        assert_eq!(on.fabric_cycles, off.fabric_cycles, "{}", w.name);
        assert_eq!(on.firings, off.firings, "{}: firings moved", w.name);
        assert_eq!(on.sinks, off.sinks, "{}: sinks moved", w.name);
        assert_eq!(on_mem, off_mem, "{}: memory moved", w.name);
        assert_eq!(
            on.load_latency_by_domain, off.load_latency_by_domain,
            "{}: latency stats moved",
            w.name
        );
        assert_eq!(on.firings_per_pe, off.firings_per_pe, "{}", w.name);
        assert_eq!(on.link_traffic, off.link_traffic, "{}", w.name);

        // Faithfulness: nothing dropped at Test scale, and the trace's
        // own aggregation equals the engine's.
        assert_eq!(
            trace.dropped, 0,
            "{}: ring overflowed at Test scale",
            w.name
        );
        assert_eq!(
            trace.load_latency_by_domain(),
            on.load_latency_by_domain,
            "{}: trace aggregation diverged from RunStats",
            w.name
        );
    }
}

/// The acceptance scenario: spmspv compiled and simulated through the
/// full pipeline under NUPEA vs UPEA-2. Both traces must validate as
/// Chrome trace JSON and reproduce `RunStats::load_latency_by_domain`
/// exactly; NUPEA must beat UPEA-2 on mean critical-path load latency.
#[test]
fn spmspv_nupea_vs_upea_traces_match_stats_exactly() {
    use nupea::{Heuristic, SystemConfig};
    let spec = all_workloads()
        .into_iter()
        .find(|s| s.name == "spmspv")
        .expect("spmspv registered");
    let w = spec.build_default(Scale::Test);
    let sys = SystemConfig::monaco_12x12();

    let mean = |model, heuristic| {
        let compiled = sys.compile(&w, heuristic).expect("spmspv compiles");
        let out = compiled
            .simulate_with(&nupea::SimOptions::new(model).trace())
            .expect("spmspv runs");
        let (stats, trace) = (out.stats, out.trace.expect("trace was requested"));
        assert_eq!(trace.dropped, 0);
        assert_eq!(
            trace.load_latency_by_domain(),
            stats.load_latency_by_domain,
            "{model}: trace aggregation must equal RunStats exactly"
        );
        let json = trace.to_chrome_json();
        let summary = nupea_sim::validate_chrome_trace(&json)
            .unwrap_or_else(|e| panic!("{model}: invalid Chrome trace: {e}"));
        assert!(summary.complete > 0, "{model}: no fire slices");
        let (total, count) = stats
            .load_latency_by_domain
            .iter()
            .fold((0u64, 0u64), |(t, c), d| (t + d.total_latency, c + d.count));
        assert!(count > 0, "{model}: no loads completed");
        total as f64 / count as f64
    };

    let nupea = mean(MemoryModel::Nupea, Heuristic::CriticalityAware);
    let upea = mean(MemoryModel::Upea(2), Heuristic::DomainUnaware);
    assert!(
        nupea < upea,
        "NUPEA mean load latency ({nupea:.2}) should beat UPEA-2 ({upea:.2})"
    );
}
