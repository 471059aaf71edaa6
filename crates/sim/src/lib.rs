//! # nupea-sim — cycle-level simulator for NUPEA spatial dataflow fabrics
//!
//! Simulates a placed dataflow graph on a [`Fabric`](nupea_fabric::Fabric)
//! with Monaco's microarchitectural model (§4/§6 of the paper):
//!
//! * [`engine`] — the timed ordered-dataflow engine: per-operand token
//!   FIFOs, credit-based backpressure, one-cycle arithmetic, combinational
//!   control flow, clock-divided fabric vs. full-rate memory system.
//! * [`memsys`] — the fabric-memory NoC with per-row hierarchical
//!   arbitration (NUPEA), plus the UPEA-n / NUMA-UPEA-n / Ideal baseline
//!   models of §6.
//! * [`memory`] — word-addressed memory, bump allocator, banked shared
//!   memory-side cache.
//!
//! The simulator executes *real data*: kernels allocate inputs in
//! [`SimMemory`], and results are validated against reference
//! implementations and against the untimed interpreter of `nupea-ir`.
//!
//! # Example
//!
//! ```
//! use nupea_fabric::Fabric;
//! use nupea_ir::graph::Dfg;
//! use nupea_ir::op::Op;
//! use nupea_pnr::{place::place, Netlist, PlaceConfig};
//! use nupea_sim::{Engine, MemParams, MemoryModel, SimConfig, SimMemory};
//!
//! // addr -> load -> sink
//! let mut g = Dfg::new("demo");
//! let (p, pp) = g.add_param("addr");
//! let ld = g.add_node(Op::Load);
//! g.connect(p, 0, ld, Op::LOAD_ADDR);
//! let (s, _) = g.add_sink("v");
//! g.connect(ld, Op::OUT_VALUE, s, 0);
//!
//! let fabric = Fabric::monaco(8, 8, 3)?;
//! let netlist = Netlist::from_dfg(&g);
//! let pe_of = place(&fabric, &netlist, &PlaceConfig::default())?.pe_of;
//! let params = MemParams::tiny();
//! let mut mem = SimMemory::new(&params);
//! mem.write(3, 99);
//!
//! let mut cfg = SimConfig::default();
//! cfg.mem = params;
//! cfg.model = MemoryModel::Nupea;
//! let mut engine = Engine::new(&g, &fabric, &pe_of, cfg);
//! engine.bind(pp, 3);
//! let stats = engine.run(&mut mem)?;
//! assert_eq!(stats.sinks[0], vec![99]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod energy;
pub mod engine;
pub mod fault;
pub mod memory;
pub mod memsys;
pub mod perturb;
pub mod trace;
pub mod watchdog;

pub use energy::{EnergyBreakdown, EnergyParams};
pub use engine::{ConfigError, DomainLatency, Engine, LinkTraffic, RunStats, SimConfig, SimError};
pub use fault::{FaultClasses, FaultConfig, FaultContext, FaultKind, FaultPlan, STUCK_DELAY};
pub use memory::{Cache, MemParams, SimMemory};
pub use memsys::{Completion, MemRequest, MemSys, MemSysStats, MemoryModel};
pub use perturb::PerturbConfig;
pub use trace::{
    validate_chrome_trace, ChromeTraceSummary, RingRecorder, TraceBuffer, TraceConfig, TraceEvent,
    TraceMeta,
};
pub use watchdog::{PortOccupancy, StallKind, StallReport, StalledNode};

#[cfg(test)]
use nupea_fabric::{Fabric, PeId, PeKind};
#[cfg(test)]
use nupea_ir::graph::Dfg;

/// A deliberately simple placement for simulator-internal tests that
/// bypass PnR: memory operations go onto LS PEs (fastest domains first
/// when `fast`, slowest first otherwise), everything else fills remaining
/// PEs row-major.
///
/// Test-only on purpose: real flows go through `nupea_pnr::place` (or the
/// full `nupea_pnr::pnr` pipeline), which enforces slot capacities,
/// returns typed errors past capacity, and understands placement
/// heuristics. This helper survives because latency-model tests need a
/// *controlled* fast-vs-slow-domain placement the annealer would never
/// produce (e.g. "slow placement costs more fabric-memory NoC energy").
#[cfg(test)]
pub(crate) fn simple_placement(dfg: &Dfg, fabric: &Fabric, fast: bool) -> Vec<PeId> {
    let mut ls_order = fabric.ls_pref_order();
    if !fast {
        ls_order.reverse();
    }
    let mut ls_iter = ls_order.into_iter().cycle();
    let all_pes: Vec<PeId> = fabric.pes().collect();
    let mut others = all_pes.into_iter().cycle();
    dfg.iter()
        .map(|(_, n)| {
            if n.op.is_memory() {
                ls_iter.next().expect("fabric has LS PEs")
            } else {
                others.next().expect("fabric has PEs")
            }
        })
        .collect()
}

/// Sanity check a [`simple_placement`]: memory ops on LS PEs, length
/// matches. (Placements from `nupea_pnr::place` are validated at
/// construction and never need this.)
#[cfg(test)]
pub(crate) fn check_placement(dfg: &Dfg, fabric: &Fabric, pe_of: &[PeId]) -> bool {
    pe_of.len() == dfg.len()
        && dfg
            .iter()
            .all(|(id, n)| !n.op.is_memory() || fabric.kind(pe_of[id.index()]) == PeKind::LoadStore)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nupea_ir::interp::Interp;
    use nupea_ir::op::{BinOpKind, CmpKind, Op, SteerPolarity};
    use nupea_ir::ParamId;

    /// `for i in 0..n { out[i] = in[i] * 3 }`, returning (graph, params).
    fn scale_kernel() -> (Dfg, ParamId, ParamId, ParamId) {
        let mut g = Dfg::new("scale");
        let (n_p, n_pid) = g.add_param("n");
        let (src_p, src_pid) = g.add_param("src");
        let (dst_p, dst_pid) = g.add_param("dst");
        let (zero_p, _) = g.add_param("zero");

        let i_carry = g.add_node(Op::Carry);
        g.connect(zero_p, 0, i_carry, Op::CARRY_INIT);
        let n_inv = g.add_node(Op::Invariant);
        g.connect(n_p, 0, n_inv, Op::INV_VALUE);
        let cond = g.add_node(Op::Cmp(CmpKind::Lt));
        g.connect(i_carry, 0, cond, 0);
        g.connect(n_inv, 0, cond, 1);
        g.connect(cond, 0, i_carry, Op::CARRY_DECIDER);
        g.connect(cond, 0, n_inv, Op::INV_DECIDER);

        let src_inv = g.add_node(Op::Invariant);
        g.connect(src_p, 0, src_inv, Op::INV_VALUE);
        g.connect(cond, 0, src_inv, Op::INV_DECIDER);
        let dst_inv = g.add_node(Op::Invariant);
        g.connect(dst_p, 0, dst_inv, Op::INV_VALUE);
        g.connect(cond, 0, dst_inv, Op::INV_DECIDER);

        let i_body = g.add_node(Op::Steer(SteerPolarity::OnTrue));
        g.connect(cond, 0, i_body, 0);
        g.connect(i_carry, 0, i_body, 1);
        let src_body = g.add_node(Op::Steer(SteerPolarity::OnTrue));
        g.connect(cond, 0, src_body, 0);
        g.connect(src_inv, 0, src_body, 1);
        let dst_body = g.add_node(Op::Steer(SteerPolarity::OnTrue));
        g.connect(cond, 0, dst_body, 0);
        g.connect(dst_inv, 0, dst_body, 1);

        let i_next = g.add_node(Op::BinOp(BinOpKind::Add));
        g.connect(i_body, 0, i_next, 0);
        g.set_imm(i_next, 1, 1);
        g.connect(i_next, 0, i_carry, Op::CARRY_BACK);

        let raddr = g.add_node(Op::BinOp(BinOpKind::Add));
        g.connect(src_body, 0, raddr, 0);
        g.connect(i_body, 0, raddr, 1);
        let ld = g.add_node(Op::Load);
        g.connect(raddr, 0, ld, Op::LOAD_ADDR);
        let scaled = g.add_node(Op::BinOp(BinOpKind::Mul));
        g.connect(ld, Op::OUT_VALUE, scaled, 0);
        g.set_imm(scaled, 1, 3);
        let waddr = g.add_node(Op::BinOp(BinOpKind::Add));
        g.connect(dst_body, 0, waddr, 0);
        g.connect(i_body, 0, waddr, 1);
        let st = g.add_node(Op::Store);
        g.connect(waddr, 0, st, Op::STORE_ADDR);
        g.connect(scaled, 0, st, Op::STORE_VALUE);

        g.validate().expect("valid kernel");
        (g, n_pid, src_pid, dst_pid)
    }

    fn bind_all(engine: &mut Engine<'_>, g: &Dfg, n: i64, src: i64, dst: i64) {
        for (pid, name) in g.params() {
            let v = match name.as_str() {
                "n" => n,
                "src" => src,
                "dst" => dst,
                _ => 0,
            };
            engine.bind(*pid, v);
        }
    }

    fn run_model(model: MemoryModel, divider: u64, n: i64, fast: bool) -> (RunStats, Vec<i64>) {
        let (g, _, _, _) = scale_kernel();
        let fabric = Fabric::monaco(12, 12, 3).unwrap();
        let pe_of = simple_placement(&g, &fabric, fast);
        assert!(check_placement(&g, &fabric, &pe_of));
        let params = MemParams::tiny();
        let mut mem = SimMemory::new(&params);
        let src = mem.alloc_init(&(0..n).map(|i| i * 7 + 1).collect::<Vec<_>>());
        let dst = mem.alloc(n as usize);
        let cfg = SimConfig {
            mem: params,
            model,
            divider,
            ..SimConfig::default()
        };
        let mut engine = Engine::new(&g, &fabric, &pe_of, cfg);
        bind_all(&mut engine, &g, n, src, dst);
        let stats = engine.run(&mut mem).expect("run ok");
        let out = mem.slice(dst, n as usize).to_vec();
        (stats, out)
    }

    #[test]
    fn timed_run_matches_reference_output() {
        for n in [0i64, 1, 5, 33] {
            let (stats, out) = run_model(MemoryModel::Nupea, 2, n, true);
            let expected: Vec<i64> = (0..n).map(|i| (i * 7 + 1) * 3).collect();
            assert_eq!(out, expected, "n={n}");
            assert_eq!(stats.residual_tokens, 0, "balanced at n={n}");
        }
    }

    #[test]
    fn timed_engine_agrees_with_untimed_interp() {
        let (g, n_pid, src_pid, dst_pid) = scale_kernel();
        let n = 17i64;
        // Untimed.
        let params = MemParams::tiny();
        let mut mem_a = SimMemory::new(&params);
        let src = mem_a.alloc_init(&(0..n).map(|i| i * i).collect::<Vec<_>>());
        let dst = mem_a.alloc(n as usize);
        let mem_b_init = mem_a.clone();
        let mut it = Interp::new(&g);
        for (pid, _) in g.params() {
            it.bind(*pid, 0);
        }
        it.bind(n_pid, n).bind(src_pid, src).bind(dst_pid, dst);
        let r = it.run(mem_a.words_mut()).unwrap();
        assert!(r.is_balanced());
        // Timed.
        let fabric = Fabric::monaco(12, 12, 3).unwrap();
        let pe_of = simple_placement(&g, &fabric, true);
        let mut mem_b = mem_b_init;
        let mut engine = Engine::new(
            &g,
            &fabric,
            &pe_of,
            SimConfig {
                mem: params,
                ..SimConfig::default()
            },
        );
        bind_all(&mut engine, &g, n, src, dst);
        let stats = engine.run(&mut mem_b).unwrap();
        assert_eq!(mem_a, mem_b, "final memory must agree");
        assert_eq!(stats.residual_tokens, 0);
    }

    #[test]
    fn fast_domain_placement_beats_slow_placement() {
        let n = 48;
        let (fast, _) = run_model(MemoryModel::Nupea, 2, n, true);
        let (slow, _) = run_model(MemoryModel::Nupea, 2, n, false);
        assert!(
            fast.cycles < slow.cycles,
            "D0 placement ({}) must beat far-domain placement ({})",
            fast.cycles,
            slow.cycles
        );
    }

    #[test]
    fn upea_latency_sweep_is_monotone() {
        let n = 48;
        let mut prev = 0;
        for lat in 0..=4 {
            let (stats, out) = run_model(MemoryModel::Upea(lat), 2, n, true);
            let expected: Vec<i64> = (0..n).map(|i| (i * 7 + 1) * 3).collect();
            assert_eq!(out, expected);
            assert!(
                stats.cycles >= prev,
                "UPEA{lat} ({}) regressed below UPEA{} ({prev})",
                stats.cycles,
                lat - 1
            );
            prev = stats.cycles;
        }
    }

    #[test]
    fn numa_beats_pure_upea_on_average() {
        let n = 64;
        let (upea, _) = run_model(MemoryModel::Upea(3), 2, n, true);
        let (numa, _) = run_model(MemoryModel::NumaUpea(3), 2, n, true);
        assert!(
            numa.cycles <= upea.cycles,
            "NUMA ({}) should not lose to UPEA ({}): local hits skip delay",
            numa.cycles,
            upea.cycles
        );
    }

    #[test]
    fn divider_two_is_slower_in_system_cycles() {
        let n = 32;
        let (d1, _) = run_model(MemoryModel::Nupea, 1, n, true);
        let (d2, _) = run_model(MemoryModel::Nupea, 2, n, true);
        assert!(d2.cycles > d1.cycles);
        // But not 2x: memory runs at full rate under divider 2 (§6).
        assert!(
            d2.cycles < d1.cycles * 2,
            "memory at full rate should soften the divider: d1={} d2={}",
            d1.cycles,
            d2.cycles
        );
    }

    #[test]
    fn tiny_fifos_still_produce_correct_results() {
        let (g, n_pid, src_pid, dst_pid) = scale_kernel();
        let n = 12i64;
        let fabric = Fabric::monaco(12, 12, 3).unwrap();
        let pe_of = simple_placement(&g, &fabric, true);
        let params = MemParams::tiny();
        let mut mem = SimMemory::new(&params);
        let src = mem.alloc_init(&(0..n).collect::<Vec<_>>());
        let dst = mem.alloc(n as usize);
        let mut engine = Engine::new(
            &g,
            &fabric,
            &pe_of,
            SimConfig {
                mem: params,
                fifo_depth: 1,
                max_outstanding: 1,
                ..SimConfig::default()
            },
        );
        for (pid, _) in g.params() {
            engine.bind(*pid, 0);
        }
        engine.bind(n_pid, n).bind(src_pid, src).bind(dst_pid, dst);
        let stats = engine.run(&mut mem).unwrap();
        let expected: Vec<i64> = (0..n).map(|i| i * 3).collect();
        assert_eq!(mem.slice(dst, n as usize), &expected[..]);
        assert_eq!(stats.residual_tokens, 0);
    }

    #[test]
    fn deeper_fifos_do_not_hurt_performance() {
        let n = 48;
        let shallow = {
            let (g, n_pid, src_pid, dst_pid) = scale_kernel();
            let fabric = Fabric::monaco(12, 12, 3).unwrap();
            let pe_of = simple_placement(&g, &fabric, true);
            let params = MemParams::tiny();
            let mut mem = SimMemory::new(&params);
            let src = mem.alloc_init(&(0..n).collect::<Vec<_>>());
            let dst = mem.alloc(n as usize);
            let mut e = Engine::new(
                &g,
                &fabric,
                &pe_of,
                SimConfig {
                    mem: params,
                    fifo_depth: 2,
                    ..SimConfig::default()
                },
            );
            for (pid, _) in g.params() {
                e.bind(*pid, 0);
            }
            e.bind(n_pid, n).bind(src_pid, src).bind(dst_pid, dst);
            e.run(&mut mem).unwrap().cycles
        };
        let (deep, _) = run_model(MemoryModel::Nupea, 2, n, true);
        assert!(
            deep.cycles <= shallow,
            "deep fifos should not slow things down: deep={} shallow={shallow}",
            deep.cycles
        );
    }

    #[test]
    fn unbound_param_errors() {
        let (g, _, _, _) = scale_kernel();
        let fabric = Fabric::monaco(8, 8, 3).unwrap();
        let pe_of = simple_placement(&g, &fabric, true);
        let params = MemParams::tiny();
        let mut mem = SimMemory::new(&params);
        let mut engine = Engine::new(
            &g,
            &fabric,
            &pe_of,
            SimConfig {
                mem: params,
                ..SimConfig::default()
            },
        );
        assert!(matches!(
            engine.run(&mut mem),
            Err(SimError::UnboundParam(_))
        ));
    }

    #[test]
    fn oob_access_faults() {
        let mut g = Dfg::new("oob");
        let (p, pp) = g.add_param("addr");
        let ld = g.add_node(Op::Load);
        g.connect(p, 0, ld, Op::LOAD_ADDR);
        let (s, _) = g.add_sink("v");
        g.connect(ld, 0, s, 0);
        let fabric = Fabric::monaco(8, 8, 3).unwrap();
        let pe_of = simple_placement(&g, &fabric, true);
        let params = MemParams::tiny();
        let mut mem = SimMemory::new(&params);
        let mut engine = Engine::new(
            &g,
            &fabric,
            &pe_of,
            SimConfig {
                mem: params,
                ..SimConfig::default()
            },
        );
        engine.bind(pp, -1);
        assert!(matches!(engine.run(&mut mem), Err(SimError::Fault { .. })));
    }

    #[test]
    fn energy_breakdown_is_populated_and_consistent() {
        let (stats, _) = run_model(MemoryModel::Nupea, 2, 24, true);
        let e = stats.energy;
        assert!(e.alu > 0.0, "arith fired");
        assert!(e.control > 0.0, "gates fired");
        assert!(e.mem_issue > 0.0, "memory issued");
        assert!(e.noc > 0.0, "tokens moved");
        assert!(e.memory > 0.0, "banks accessed");
        assert!(e.total() >= e.alu + e.memory);
        assert!(e.data_movement_fraction() > 0.0 && e.data_movement_fraction() < 1.0);
        // Far-domain placement must cost more FM-NoC energy than D0.
        let (slow, _) = run_model(MemoryModel::Nupea, 2, 24, false);
        assert!(
            slow.energy.fmnoc > stats.energy.fmnoc,
            "far domains pay arbitration energy: {} vs {}",
            slow.energy.fmnoc,
            stats.energy.fmnoc
        );
    }

    #[test]
    fn stats_count_firings_and_loads() {
        let (stats, _) = run_model(MemoryModel::Nupea, 2, 10, true);
        assert!(stats.firings > 50);
        assert_eq!(stats.mem.requests, 20, "10 loads + 10 stores");
        let loads: u64 = stats.load_latency_by_domain.iter().map(|d| d.count).sum();
        assert_eq!(loads, 10);
        assert!(stats.cache_hit_rate > 0.0);
    }
}
