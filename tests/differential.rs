//! Property-based differential testing: randomized structured programs are
//! lowered through the kernel builder and executed on (a) the untimed
//! reference interpreter and (b) the timed cycle-level engine under several
//! memory models and buffering configurations. Final memory, sink streams,
//! and token balance must agree exactly.
//!
//! This is the deepest correctness net in the repository: it exercises the
//! steer/carry/invariant lowering, backpressure, reordering in the memory
//! system, and in-order response delivery all at once.

use nupea_fabric::Fabric;
use nupea_ir::interp::Interp;
use nupea_kernels::builder::{Ctx, Kernel, Val};
use nupea_kernels::workloads::Workload;
use nupea_pnr::{place::place, Heuristic, Netlist, PlaceConfig};
use nupea_rng::Xoshiro256;
use nupea_sim::{Engine, MemParams, MemoryModel, SimConfig, SimMemory};
use std::cell::Cell;

/// A randomized structured program over a read-only input region and
/// per-statement disjoint output blocks (no cross-node races, so timed and
/// untimed execution must agree bit-for-bit).
#[derive(Debug, Clone)]
enum Stmt {
    /// acc = op(acc, load(input + (acc & 63)))
    LoadMix(u8),
    /// acc = op(acc, k)
    Arith(u8, i8),
    /// store(out_block(id) + (acc & 63), acc)
    Store,
    /// for i in 0..trips { body }, acc carried
    Loop(u8, Vec<Stmt>),
    /// if acc & 1 { then } else { else }, acc carried through both
    Branch(Vec<Stmt>, Vec<Stmt>),
}

/// Generate one random statement with bounded nesting, mirroring the old
/// proptest strategy: leaves are load-mix / arith / store; interior nodes
/// are short loops and branches.
fn random_stmt(rng: &mut Xoshiro256, depth: u32) -> Stmt {
    let interior = depth > 0 && rng.chance(0.4);
    if !interior {
        return match rng.index(3) {
            0 => Stmt::LoadMix(rng.next_u64() as u8),
            1 => Stmt::Arith(rng.next_u64() as u8, rng.next_u64() as i8),
            _ => Stmt::Store,
        };
    }
    if rng.next_bool() {
        let trips = rng.range_i64(1, 4) as u8;
        let body = random_stmts(rng, depth - 1, 1, 3);
        Stmt::Loop(trips, body)
    } else {
        let then = random_stmts(rng, depth - 1, 1, 2);
        let els = random_stmts(rng, depth - 1, 0, 2);
        Stmt::Branch(then, els)
    }
}

fn random_stmts(rng: &mut Xoshiro256, depth: u32, min: usize, max: usize) -> Vec<Stmt> {
    let n = rng.range_usize(min, max);
    (0..n).map(|_| random_stmt(rng, depth)).collect()
}

/// Emit a statement list; returns the new accumulator. `store_id` hands
/// each Store statement a disjoint 64-word output block.
fn emit(
    c: &mut Ctx,
    stmts: &[Stmt],
    mut acc: Val,
    input: i64,
    out: i64,
    store_id: &Cell<i64>,
) -> Val {
    for s in stmts {
        match s {
            Stmt::LoadMix(op) => {
                let masked = c.and(acc, 63);
                let addr = c.add(masked, input);
                let v = c.load(addr);
                acc = mix(c, *op, acc, v);
            }
            Stmt::Arith(op, k) => {
                let kv = c.imm(i64::from(*k));
                acc = mix(c, *op, acc, kv);
            }
            Stmt::Store => {
                let block = out + store_id.get() * 64;
                store_id.set(store_id.get() + 1);
                let masked = c.and(acc, 63);
                let addr = c.add(masked, block);
                c.store(addr, acc);
            }
            Stmt::Loop(trips, body) => {
                let exits = c.for_range(0, i64::from(*trips), 1, &[acc], &[], |c, i, vars, _| {
                    let a = c.add(vars[0], i);
                    vec![emit_boxed(c, body, a, input, out, store_id)]
                });
                acc = exits[0];
            }
            Stmt::Branch(t, e) => {
                let odd = c.and(acc, 1);
                let cnd = c.ne(odd, 0);
                let merged = c.if_else(
                    cnd,
                    &[acc],
                    |c, ins| vec![emit_boxed(c, t, ins[0], input, out, store_id)],
                    |c, ins| vec![emit_boxed(c, e, ins[0], input, out, store_id)],
                );
                acc = merged[0];
            }
        }
    }
    acc
}

/// Indirection so the recursive closure types stay finite.
fn emit_boxed(
    c: &mut Ctx,
    stmts: &[Stmt],
    acc: Val,
    input: i64,
    out: i64,
    store_id: &Cell<i64>,
) -> Val {
    emit(c, stmts, acc, input, out, store_id)
}

fn mix(c: &mut Ctx, op: u8, a: Val, b: Val) -> Val {
    match op % 6 {
        0 => c.add(a, b),
        1 => c.sub(a, b),
        2 => c.xor(a, b),
        3 => {
            let m = c.mul(a, b);
            c.and(m, 0xFFFF)
        }
        4 => c.min(a, b),
        _ => {
            let s = c.add(a, b);
            c.shr(s, 1)
        }
    }
}

/// Count Store statements so the output region can be sized.
fn count_stores(stmts: &[Stmt]) -> i64 {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Store => 1,
            Stmt::Loop(_, b) => count_stores(b),
            Stmt::Branch(t, e) => count_stores(t) + count_stores(e),
            _ => 0,
        })
        .sum()
}

fn build_program(stmts: &[Stmt]) -> (Workload, i64) {
    let params = MemParams::tiny();
    let mut mem = SimMemory::new(&params);
    let input_data: Vec<i64> = (0..64)
        .map(|i| (i * 2654435761u64 as i64) % 997 - 498)
        .collect();
    let input = mem.alloc_init(&input_data);
    let nstores = count_stores(stmts).max(1);
    let out = mem.alloc((nstores * 64) as usize);
    let stmts = stmts.to_vec();
    let kernel = Kernel::build("prop", move |c| {
        let acc0 = c.stream_const(7);
        let store_id = Cell::new(0i64);
        let acc = emit(c, &stmts, acc0, input, out, &store_id);
        c.sink(acc, "acc");
    });
    let w = Workload {
        name: "prop",
        kernel,
        mem,
        checks: vec![],
        par: 1,
    };
    (w, out)
}

#[test]
fn timed_engine_matches_interpreter() {
    let mut rng = Xoshiro256::seed_from_u64(0xD1FF);
    for _case in 0..48 {
        let stmts = random_stmts(&mut rng, 3, 1, 4);
        let fifo_depth = rng.range_usize(1, 5);
        let max_outstanding = rng.range_usize(1, 3);
        let model_pick = rng.index(4) as u8;
        // Vary the placement too: random heuristic and annealing seed, so
        // correctness is checked across genuinely different layouts.
        let heuristic = match rng.index(3) {
            0 => Heuristic::DomainUnaware,
            1 => Heuristic::OnlyDomainAware,
            _ => Heuristic::CriticalityAware,
        };
        let place_seed = rng.next_u64();

        let (w, _out) = build_program(&stmts);
        // Reference: untimed interpreter.
        let mut ref_mem = w.fresh_mem();
        let mut it = Interp::new(w.kernel.dfg());
        for (pid, v) in w.kernel.bindings(&[]) {
            it.bind(pid, v);
        }
        let ref_result = it.run(ref_mem.words_mut()).expect("interp runs");
        assert!(ref_result.is_balanced(), "lowering must be token-balanced");

        // Timed engine under a random configuration.
        let model = match model_pick {
            0 => MemoryModel::Nupea,
            1 => MemoryModel::Upea(0),
            2 => MemoryModel::Upea(3),
            _ => MemoryModel::NumaUpea(2),
        };
        let fabric = Fabric::monaco(12, 12, 3).expect("fabric");
        let netlist = Netlist::from_dfg(w.kernel.dfg());
        let place_cfg = PlaceConfig {
            heuristic,
            seed: place_seed,
            effort: 64,
            ..PlaceConfig::default()
        };
        let pe_of = place(&fabric, &netlist, &place_cfg)
            .expect("random programs fit the 12x12 fabric")
            .pe_of;
        let mut cfg = SimConfig::default();
        cfg.model = model;
        cfg.mem = MemParams::tiny();
        cfg.divider = 2;
        cfg.fifo_depth = fifo_depth;
        cfg.max_outstanding = max_outstanding;
        cfg.numa_seed = 11;
        cfg.max_cycles = 50_000_000;
        let mut mem = w.fresh_mem();
        let mut engine = Engine::new(w.kernel.dfg(), &fabric, &pe_of, cfg);
        for (pid, v) in w.kernel.bindings(&[]) {
            engine.bind(pid, v);
        }
        let stats = engine.run(&mut mem).expect("engine runs");
        assert_eq!(stats.residual_tokens, 0, "timed run must drain");
        assert_eq!(&stats.sinks, &ref_result.sinks, "sink streams must agree");
        assert_eq!(
            mem, ref_mem,
            "final memory must agree (model {model}, fifo {fifo_depth}, outstanding {max_outstanding})"
        );
    }
}

#[test]
fn differential_regression_fixed_programs() {
    // A few hand-picked shapes that stressed past bugs: zero-trip loops,
    // branch-in-loop, store bursts.
    let programs: Vec<Vec<Stmt>> = vec![
        vec![Stmt::Loop(4, vec![Stmt::LoadMix(0), Stmt::Store])],
        vec![Stmt::Loop(
            3,
            vec![Stmt::Branch(
                vec![Stmt::Store, Stmt::Arith(1, 5)],
                vec![Stmt::LoadMix(2)],
            )],
        )],
        vec![
            Stmt::Arith(0, 63),
            Stmt::Loop(2, vec![Stmt::Loop(3, vec![Stmt::LoadMix(3), Stmt::Store])]),
            Stmt::Store,
        ],
        vec![Stmt::Branch(vec![], vec![Stmt::Loop(2, vec![Stmt::Store])])],
    ];
    for (i, p) in programs.iter().enumerate() {
        let (w, _) = build_program(p);
        let mut ref_mem = w.fresh_mem();
        let mut it = Interp::new(w.kernel.dfg());
        for (pid, v) in w.kernel.bindings(&[]) {
            it.bind(pid, v);
        }
        let r = it.run(ref_mem.words_mut()).unwrap();
        assert!(r.is_balanced(), "program {i}");

        let fabric = Fabric::monaco(8, 8, 3).unwrap();
        let netlist = Netlist::from_dfg(w.kernel.dfg());
        let pe_of = place(&fabric, &netlist, &PlaceConfig::default())
            .unwrap()
            .pe_of;
        let mut mem = w.fresh_mem();
        let mut cfg = SimConfig::default();
        cfg.mem = MemParams::tiny();
        cfg.fifo_depth = 2;
        cfg.max_outstanding = 1;
        let mut e = Engine::new(w.kernel.dfg(), &fabric, &pe_of, cfg);
        for (pid, v) in w.kernel.bindings(&[]) {
            e.bind(pid, v);
        }
        let stats = e.run(&mut mem).unwrap();
        assert_eq!(stats.sinks, r.sinks, "program {i}");
        assert_eq!(mem, ref_mem, "program {i}");
    }
}
