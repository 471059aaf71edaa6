//! Design-space exploration: compare fabric topologies, track budgets, and
//! fabric sizes for one workload — the §7.2 study in miniature.
//!
//!     cargo run --release --example topology_explorer

use nupea::{auto_parallelize, Heuristic, MemoryModel, Scale, SystemConfig};
use nupea_fabric::{Fabric, TopologyKind};
use nupea_kernels::workloads::{sparse, WorkloadSpec};

fn main() {
    println!("spmspv (96x96, 90% sparse) across fabrics — auto-parallelized\n");
    println!(
        "{:<18} {:>6} {:>7} {:>5} {:>10} {:>9} {:>4}",
        "fabric", "tracks", "LS PEs", "par", "cycles", "max hops", "div"
    );
    for topo in [
        TopologyKind::Monaco,
        TopologyKind::ClusteredSingle,
        TopologyKind::ClusteredDouble,
    ] {
        for size in [8usize, 12, 16] {
            for tracks in [2u32, 3, 7] {
                let Ok(fabric) = Fabric::of_kind(topo, size, size, tracks) else {
                    continue;
                };
                let ls = fabric.num_ls_pes();
                let mut sys = SystemConfig::with_fabric(fabric);
                sys.divider_override = None;
                let spec = WorkloadSpec {
                    name: "spmspv",
                    build: |_, par| sparse::spmspv_custom(96, 0.9, par),
                    default_par: 1,
                };
                let label = format!("{topo} {size}x{size}");
                match auto_parallelize(&spec, Scale::Bench, &sys, Heuristic::CriticalityAware) {
                    Ok((w, compiled)) => {
                        let cycles = compiled
                            .simulate(MemoryModel::Nupea)
                            .map(|s| s.cycles.to_string())
                            .unwrap_or_else(|e| format!("sim err {e}"));
                        println!(
                            "{label:<18} {tracks:>6} {ls:>7} {:>5} {cycles:>10} {:>9} {:>4}",
                            w.par, compiled.placed.timing.max_hops, compiled.placed.timing.divider
                        );
                    }
                    Err(e) => println!("{label:<18} {tracks:>6} {ls:>7}  does not fit: {e}"),
                }
            }
        }
    }
}
