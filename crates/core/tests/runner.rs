//! Integration tests for the parallel experiment runner: deterministic
//! output across thread counts, compile-artifact cache accounting, failed
//! points, and CSV/JSON round-tripping against the in-memory records.

use nupea::experiments::primary_models;
use nupea::runner::ExperimentRunner;
use nupea::{Fabric, Heuristic, MemoryModel, RetryPolicy, Scale, SystemConfig};
use nupea_kernels::workloads::workload_by_name;

fn declare_small_sweep(runner: &mut ExperimentRunner) {
    let sys = runner.system(SystemConfig::monaco_12x12());
    for name in ["spmv", "spmspv"] {
        let w = runner.workload(workload_by_name(name).unwrap().build_default(Scale::Test));
        runner.model_sweep(w, sys, &primary_models());
    }
}

#[test]
fn output_is_bit_identical_across_thread_counts() {
    let mut serial = ExperimentRunner::new();
    serial.threads(1);
    declare_small_sweep(&mut serial);
    let a = serial.run();

    let mut parallel = ExperimentRunner::new();
    parallel.threads(4);
    declare_small_sweep(&mut parallel);
    let b = parallel.run();

    // Wall-clock timing differs between runs; everything else — including
    // record order — must be identical.
    let strip = |r: &nupea::RunRecord| {
        let mut r = r.clone();
        r.compile_micros = 0;
        r.sim_micros = 0;
        r
    };
    let a_stripped: Vec<_> = a.records.iter().map(strip).collect();
    let b_stripped: Vec<_> = b.records.iter().map(strip).collect();
    assert_eq!(a_stripped, b_stripped);
    // The default exports exclude timing, so they are byte-identical.
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.to_csv(), b.to_csv());
    assert_eq!(a.pnr_compiles, b.pnr_compiles);
    assert_eq!(a.cache_hits, b.cache_hits);
}

#[test]
fn model_sweep_compiles_once_per_heuristic() {
    let mut runner = ExperimentRunner::new();
    let sys = runner.system(SystemConfig::monaco_12x12());
    let w = runner.workload(workload_by_name("spmv").unwrap().build_default(Scale::Test));
    runner.model_sweep(w, sys, &primary_models());
    let report = runner.run();

    // Four models, two heuristics (effcc for NUPEA, domain-unaware shared
    // by Ideal/UPEA2/NUMA-UPEA2): exactly two PnR invocations.
    assert_eq!(report.records.len(), 4);
    assert_eq!(report.pnr_compiles, 2);
    assert_eq!(report.cache_hits, 2);
    let cached: Vec<bool> = report.records.iter().map(|r| r.compile_cached).collect();
    // Declaration order is Ideal, NUPEA, UPEA2, NUMA-UPEA2: the first
    // domain-unaware point (Ideal) and the effcc point (NUPEA) compile;
    // UPEA2 and NUMA-UPEA2 hit the cache.
    assert_eq!(cached, vec![false, false, true, true]);
    for r in &report.records {
        assert!(r.error.is_none(), "{}: {:?}", r.model.label(), r.error);
        assert!(r.cycles > 0);
    }
    // Cached points share the artifact, so they report the same compile
    // wall-clock as the point that paid for it.
    assert_eq!(
        report.records[0].compile_micros,
        report.records[2].compile_micros
    );
}

#[test]
fn failed_points_produce_error_records_and_do_not_abort() {
    let mut runner = ExperimentRunner::new();
    // An 8-PE fabric: far too small for spmv, so PnR must fail...
    let tiny = runner.system(SystemConfig::with_fabric(
        Fabric::monaco(2, 4, 3).expect("valid tiny fabric"),
    ));
    // ...while the same workload still succeeds on the full fabric.
    let full = runner.system(SystemConfig::monaco_12x12());
    let w = runner.workload(workload_by_name("spmv").unwrap().build_default(Scale::Test));
    runner.point(w, tiny, Heuristic::CriticalityAware, MemoryModel::Nupea);
    runner.point(w, full, Heuristic::CriticalityAware, MemoryModel::Nupea);
    let report = runner.run();

    assert_eq!(report.records.len(), 2);
    let failed = &report.records[0];
    assert!(failed.error.as_deref().unwrap_or("").contains("pnr"));
    assert_eq!(failed.cycles, 0);
    let ok = &report.records[1];
    assert!(ok.error.is_none());
    assert!(ok.cycles > 0);
    // The two points use different systems, so no cache sharing.
    assert_eq!(report.pnr_compiles, 2);
    assert_eq!(report.cache_hits, 0);
}

#[test]
fn csv_round_trips_the_records() {
    let mut runner = ExperimentRunner::new();
    declare_small_sweep(&mut runner);
    let report = runner.run();
    let csv = report.to_csv();
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let col = |name: &str| {
        header
            .iter()
            .position(|h| *h == name)
            .unwrap_or_else(|| panic!("column {name}"))
    };
    let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
    assert_eq!(rows.len(), report.records.len());
    for (row, rec) in rows.iter().zip(&report.records) {
        assert_eq!(row[col("workload")], rec.workload);
        assert_eq!(row[col("model")], rec.model.label());
        assert_eq!(row[col("heuristic")], rec.heuristic.to_string());
        assert_eq!(row[col("cycles")], rec.cycles.to_string());
        assert_eq!(row[col("divider")], rec.divider.to_string());
        assert_eq!(row[col("compile_cached")], rec.compile_cached.to_string());
    }
}

#[test]
fn json_export_lists_every_point_in_order() {
    let mut runner = ExperimentRunner::new();
    declare_small_sweep(&mut runner);
    let report = runner.run();
    let json = report.to_json();
    // One object per record, ordered as declared.
    let mut cursor = 0;
    for rec in &report.records {
        let needle = format!(
            "\"workload\":\"{}\",\"par\":{},\"heuristic\":\"{}\",\"model\":\"{}\",\"cycles\":{}",
            rec.workload,
            rec.par,
            rec.heuristic,
            rec.model.label(),
            rec.cycles
        );
        let pos = json[cursor..].find(&needle).unwrap_or_else(|| {
            panic!(
                "record for {}/{} missing or out of order",
                rec.workload,
                rec.model.label()
            )
        });
        cursor += pos + needle.len();
    }
    assert!(
        !json.contains("micros"),
        "default export must stay deterministic"
    );
}

/// A point that panics mid-simulation must not take the sweep down: it
/// becomes one structured error record (kind `panicked`, payload message
/// preserved) and every other point still completes.
#[test]
fn panicking_point_is_isolated_to_one_error_record() {
    use nupea_kernels::workloads::Check;

    // A workload whose post-run validation slices far past the end of
    // simulated memory: `SimMemory::slice` panics, exercising the panic
    // path rather than a typed error path.
    let mut bomb = workload_by_name("spmv").unwrap().build_default(Scale::Test);
    bomb.checks = vec![Check::Mem {
        label: "out-of-range reference slice",
        base: i64::MAX / 2,
        expected: vec![0],
    }];

    let mut runner = ExperimentRunner::new();
    let sys = runner.system(SystemConfig::monaco_12x12());
    let b = runner.workload(bomb);
    let ok = runner.workload(workload_by_name("spmv").unwrap().build_default(Scale::Test));
    runner.point(b, sys, Heuristic::CriticalityAware, MemoryModel::Nupea);
    runner.model_sweep(ok, sys, &primary_models());
    let report = runner.run();

    assert_eq!(report.records.len(), 5);
    let failed = &report.records[0];
    assert_eq!(failed.error_kind, Some(nupea::RunErrorKind::Panic));
    assert!(
        failed.error.as_deref().unwrap_or("").contains("panicked"),
        "error is {:?}",
        failed.error
    );
    assert_eq!(failed.cycles, 0);
    for r in &report.records[1..] {
        assert!(r.error.is_none(), "{}: {:?}", r.model.label(), r.error);
        assert!(r.cycles > 0);
    }
    // The structured kind also lands in both export formats.
    assert!(report.to_json().contains("\"error_kind\":\"panicked\""));
    assert!(report.to_csv().contains(",panicked,"));
}

/// A per-point cycle budget that is too small fails the first attempt,
/// and the one-shot retry at `budget * factor` rescues the point,
/// marking the record `retried`. With retry disabled the same budget is a
/// hard `cycle-limit` failure.
#[test]
fn cycle_budget_retry_rescues_slow_points() {
    let declare = |runner: &mut ExperimentRunner| {
        let sys = runner.system(SystemConfig::monaco_12x12());
        let w = runner.workload(workload_by_name("spmv").unwrap().build_default(Scale::Test));
        runner.point(w, sys, Heuristic::CriticalityAware, MemoryModel::Nupea);
    };

    let mut with_retry = ExperimentRunner::new();
    with_retry
        .cycle_budget(100)
        .retry_policy(RetryPolicy::OneShot { factor: 1_000_000 });
    declare(&mut with_retry);
    let report = with_retry.run();
    let r = &report.records[0];
    assert!(r.error.is_none(), "{:?}", r.error);
    assert!(r.retried, "the raised cap must be recorded");
    assert!(r.cycles > 100, "spmv cannot fit in 100 cycles");

    let mut no_retry = ExperimentRunner::new();
    no_retry.cycle_budget(100).retry_policy(RetryPolicy::None);
    declare(&mut no_retry);
    let report = no_retry.run();
    let r = &report.records[0];
    assert_eq!(r.error_kind, Some(nupea::RunErrorKind::CycleLimit));
    assert!(!r.retried);

    // An ample budget never retries.
    let mut ample = ExperimentRunner::new();
    ample.cycle_budget(2_000_000_000);
    declare(&mut ample);
    let r = &ample.run().records[0];
    assert!(r.error.is_none());
    assert!(!r.retried);
}

/// Degenerate system configurations are rejected up front with a typed
/// `invalid-config` record instead of wedging or panicking deep in the
/// engine.
#[test]
fn invalid_config_becomes_typed_error_record() {
    let mut sys = SystemConfig::monaco_12x12();
    sys.fifo_depth = 0;
    assert!(matches!(
        sys.validate(),
        Err(nupea::PipelineError::InvalidConfig(
            nupea::ConfigError::ZeroFifoDepth
        ))
    ));

    let mut runner = ExperimentRunner::new();
    let bad = runner.system(sys);
    let w = runner.workload(workload_by_name("spmv").unwrap().build_default(Scale::Test));
    runner.point(w, bad, Heuristic::CriticalityAware, MemoryModel::Nupea);
    let report = runner.run();

    let r = &report.records[0];
    assert_eq!(r.error_kind, Some(nupea::RunErrorKind::InvalidConfig));
    assert!(
        r.error.as_deref().unwrap_or("").contains("fifo"),
        "error is {:?}",
        r.error
    );
}

#[test]
fn empty_runner_yields_empty_report() {
    let runner = ExperimentRunner::new();
    let report = runner.run();
    assert!(report.records.is_empty());
    assert_eq!(report.pnr_compiles, 0);
    assert_eq!(report.cache_hits, 0);
    assert_eq!(report.to_csv().lines().count(), 1, "header only");
}
