//! Quickstart: build a kernel, compile it onto Monaco, simulate it under
//! the NUPEA memory model, and inspect where the compiler placed the
//! memory instructions.
//!
//! This walkthrough uses the low-level builder API to show the raw
//! steer/carry/invariant lowering; for authoring real kernels prefer the
//! `nupea-lang` eDSL front end (`examples/lang_kernel.rs`, DESIGN.md §13).
//!
//!     cargo run --release --example quickstart

use nupea::{Heuristic, MemoryModel, SystemConfig};
use nupea_kernels::builder::Kernel;
use nupea_kernels::workloads::{Check, Workload};
use nupea_sim::{MemParams, SimMemory};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Some input data in simulated memory: a little array to reduce.
    let mut mem = SimMemory::new(&MemParams::default());
    let data: Vec<i64> = (0..64).map(|i| (i * 37) % 101 - 50).collect();
    let base = mem.alloc_init(&data);
    let out = mem.alloc(1);

    // 2. A kernel in the structured builder DSL: sum = Σ data[i].
    //    The builder lowers this to steer/carry/invariant dataflow gates —
    //    the execution model of a spatial dataflow architecture.
    let n = data.len() as i64;
    let kernel = Kernel::build("sum64", |c| {
        let zero = c.imm(0);
        let sums = c.for_range(0, n, 1, &[zero], &[], |c, i, acc, _| {
            let addr = c.add(i, base);
            let v = c.load(addr);
            vec![c.add(acc[0], v)]
        });
        let addr = c.stream_const(out);
        c.store(addr, sums[0]);
        c.sink(sums[0], "sum");
    });
    println!(
        "kernel: {} dataflow nodes, {} memory ops",
        kernel.dfg().len(),
        kernel.dfg().num_memory_ops()
    );

    // 3. Wrap it as a workload with a validation check.
    let expected: i64 = data.iter().sum();
    let workload = Workload {
        name: "sum64",
        kernel,
        mem,
        checks: vec![Check::Mem {
            label: "sum",
            base: out,
            expected: vec![expected],
        }],
        par: 1,
    };

    // 4. Compile with effcc's criticality-aware place-and-route.
    let sys = SystemConfig::monaco_12x12();
    let compiled = sys.compile(&workload, Heuristic::CriticalityAware)?;
    println!(
        "pnr: max routed path {} hops, clock divider {}",
        compiled.placed.timing.max_hops, compiled.placed.timing.divider
    );
    let hist = compiled
        .placed
        .domain_histogram(workload.kernel.dfg(), &sys.fabric);
    println!("memory instructions per NUPEA domain (D0 fastest): {hist:?}");
    println!(
        "placement map (memory on the right edge; m/M = memory op, a = arith, c = control):\n{}",
        nupea_pnr::render_placement(workload.kernel.dfg(), &sys.fabric, &compiled.placed)
    );

    // 5. Simulate cycle-accurately; results are validated automatically.
    for model in [MemoryModel::Nupea, MemoryModel::Upea(2), MemoryModel::IDEAL] {
        let stats = compiled.simulate(model)?;
        println!(
            "{:<10} {:>6} system cycles  ({} firings, {:.0}% cache hits)",
            model.label(),
            stats.cycles,
            stats.firings,
            stats.cache_hit_rate * 100.0
        );
    }
    println!("reference sum = {expected} — validated on every run");
    Ok(())
}
