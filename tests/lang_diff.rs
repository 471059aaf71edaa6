//! Three-way differential suite for the `nupea-lang` eDSL (the tentpole
//! acceptance gate): every program is executed under
//!
//! 1. the **scalar reference interpreter** on the AST
//!    ([`nupea_lang::Program::interpret`]),
//! 2. the **untimed IR interpreter** on the lowered dataflow graph
//!    ([`nupea_ir::interp::Interp`]), and
//! 3. the **timed cycle-level engine** on a placed-and-routed fabric,
//!
//! over ≥ 8 seeds per program with randomized memory images and engine
//! configurations. Sink streams and final memory must be byte-identical
//! across all three, and every lowering must be token-balanced.

use nupea_fabric::Fabric;
use nupea_ir::interp::Interp;
use nupea_lang::{kernel, Program};
use nupea_pnr::{place::place, Heuristic, Netlist, PlaceConfig};
use nupea_rng::Xoshiro256;
use nupea_sim::{Engine, MemParams, MemoryModel, SimConfig, SimMemory};

const SEEDS_PER_PROGRAM: u64 = 8;

/// Run the lowered kernel on the timed engine under a seed-derived
/// random configuration (model, buffering, heuristic, placement seed).
fn run_engine(
    p: &Program,
    mem: &mut SimMemory,
    params: &[(&str, i64)],
    rng: &mut Xoshiro256,
) -> Vec<Vec<i64>> {
    let k = p.lower().expect("lowers");
    let model = match rng.index(4) {
        0 => MemoryModel::Nupea,
        1 => MemoryModel::Upea(0),
        2 => MemoryModel::Upea(3),
        _ => MemoryModel::NumaUpea(2),
    };
    let heuristic = match rng.index(3) {
        0 => Heuristic::DomainUnaware,
        1 => Heuristic::OnlyDomainAware,
        _ => Heuristic::CriticalityAware,
    };
    let fabric = Fabric::monaco(12, 12, 3).expect("fabric");
    let netlist = Netlist::from_dfg(k.dfg());
    let place_cfg = PlaceConfig {
        heuristic,
        seed: rng.next_u64(),
        effort: 64,
        ..PlaceConfig::default()
    };
    let pe_of = place(&fabric, &netlist, &place_cfg)
        .expect("programs fit the 12x12 fabric")
        .pe_of;
    let mut cfg = SimConfig::default();
    cfg.model = model;
    cfg.mem = MemParams::tiny();
    cfg.divider = 2;
    cfg.fifo_depth = rng.range_usize(1, 5);
    cfg.max_outstanding = rng.range_usize(1, 3);
    cfg.numa_seed = 11;
    cfg.max_cycles = 50_000_000;
    let mut engine = Engine::new(k.dfg(), &fabric, &pe_of, cfg);
    for (pid, v) in k.bindings(params) {
        engine.bind(pid, v);
    }
    let stats = engine.run(mem).expect("engine runs");
    assert_eq!(
        stats.residual_tokens,
        0,
        "{}: timed run must drain",
        p.name()
    );
    stats.sinks
}

/// Assert the three executions agree on sinks and final memory.
fn three_way(p: &Program, mem0: &SimMemory, params: &[(&str, i64)], rng: &mut Xoshiro256) {
    // Leg 1: scalar AST interpreter (ground truth).
    let mut m_scalar = mem0.clone();
    let scalar = p
        .interpret(m_scalar.words_mut(), params)
        .unwrap_or_else(|e| panic!("{}: scalar interp failed: {e}", p.name()));

    // Leg 2: untimed IR interpreter on the lowered graph.
    let k = p.lower().expect("lowers");
    let mut m_ir = mem0.clone();
    let mut it = Interp::new(k.dfg());
    for (pid, v) in k.bindings(params) {
        it.bind(pid, v);
    }
    let ir = it.run(m_ir.words_mut()).expect("ir interp runs");
    assert!(ir.is_balanced(), "{}: not token-balanced", p.name());

    // Leg 3: timed engine on a placed fabric.
    let mut m_engine = mem0.clone();
    let engine_sinks = run_engine(p, &mut m_engine, params, rng);

    assert_eq!(scalar.sinks, ir.sinks, "{}: scalar vs ir sinks", p.name());
    assert_eq!(
        scalar.sinks,
        engine_sinks,
        "{}: scalar vs engine sinks",
        p.name()
    );
    assert_eq!(m_scalar, m_ir, "{}: scalar vs ir memory", p.name());
    assert_eq!(m_scalar, m_engine, "{}: scalar vs engine memory", p.name());
}

/// Fresh memory with a seeded data region at `base..base+len`, values in
/// `lo..=hi` (pass bounds that keep derived addresses in range).
fn seeded_mem(seed: u64, len: usize, lo: i64, hi: i64) -> (SimMemory, i64) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let data: Vec<i64> = (0..len).map(|_| rng.range_i64(lo, hi)).collect();
    let mut mem = SimMemory::new(&MemParams::tiny());
    let base = mem.alloc_init(&data);
    (mem, base)
}

#[test]
fn gather_scale_three_way() {
    for seed in 0..SEEDS_PER_PROGRAM {
        let mut rng = Xoshiro256::seed_from_u64(0xA001 + seed);
        let (mut mem, x) = seeded_mem(0x100 + seed, 32, -40, 40);
        let y = mem.alloc_init(&vec![3i64; 32]);
        let out = mem.alloc(32);
        let p = kernel! {
            name: "axpy";
            param n;
            for i in range(0, n) {
                st(out + i, ld(x + i) * 7 + ld(y + i));
            }
        }
        .expect("valid");
        three_way(&p, &mem, &[("n", 32)], &mut rng);
    }
}

#[test]
fn conditional_accumulate_three_way() {
    for seed in 0..SEEDS_PER_PROGRAM {
        let mut rng = Xoshiro256::seed_from_u64(0xA002 + seed);
        let (mem, d) = seeded_mem(0x200 + seed, 48, -25, 25);
        let p = kernel! {
            name: "cond-acc";
            param n;
            let mut pos = stream(0);
            let mut neg = stream(0);
            for i in range(0, n) {
                let v = ld(d + i);
                if (v.ge(0)) {
                    pos = pos + v;
                } else {
                    neg = neg - v;
                }
            }
            sink "pos" = pos;
            sink "neg" = neg;
        }
        .expect("valid");
        three_way(&p, &mem, &[("n", 48)], &mut rng);
    }
}

#[test]
fn seq_histogram_three_way() {
    for seed in 0..SEEDS_PER_PROGRAM {
        let mut rng = Xoshiro256::seed_from_u64(0xA003 + seed);
        let (mut mem, d) = seeded_mem(0x300 + seed, 24, 0, 7);
        let bins = mem.alloc(8);
        let p = kernel! {
            name: "seq-hist";
            param n;
            for i in range(0, n) seq {
                let b = ld(d + i) + bins;
                st(b, ld_crit(b) + 1);
            }
        }
        .expect("valid");
        three_way(&p, &mem, &[("n", 24)], &mut rng);
    }
}

#[test]
fn chained_seq_loops_three_way() {
    for seed in 0..SEEDS_PER_PROGRAM {
        let mut rng = Xoshiro256::seed_from_u64(0xA004 + seed);
        let (mut mem, d) = seeded_mem(0x400 + seed, 16, -99, 99);
        let mid = mem.alloc(16);
        let p = kernel! {
            name: "build-probe";
            for i in range(0, 16) seq {
                st(mid + i, ld(d + i) * 2 + 1);
            }
            let mut total = stream(0);
            for i in range(0, 16) seq {
                total = total + ld(mid + i);
            }
            sink "total" = total;
        }
        .expect("valid");
        three_way(&p, &mem, &[], &mut rng);
    }
}

#[test]
fn while_pointer_chase_three_way() {
    for seed in 0..SEEDS_PER_PROGRAM {
        let mut rng = Xoshiro256::seed_from_u64(0xA005 + seed);
        // A random permutation cycle: next[i] is a shuffle of 0..16.
        let mut next: Vec<i64> = (0..16).collect();
        let mut shuffler = Xoshiro256::seed_from_u64(0x500 + seed);
        shuffler.shuffle(&mut next);
        let mut mem = SimMemory::new(&MemParams::tiny());
        let nb = mem.alloc_init(&next);
        let p = kernel! {
            name: "chase";
            param hops;
            let mut cur = stream(0);
            let mut seen = stream(0);
            let mut k = stream(0);
            while (k.lt(hops)) {
                seen = seen + cur;
                cur = ld_crit(cur + nb);
                k = k + 1;
            }
            sink "seen" = seen;
        }
        .expect("valid");
        three_way(&p, &mem, &[("hops", 12)], &mut rng);
    }
}

#[test]
fn par_replication_three_way() {
    for seed in 0..SEEDS_PER_PROGRAM {
        let mut rng = Xoshiro256::seed_from_u64(0xA006 + seed);
        let (mut mem, d) = seeded_mem(0x600 + seed, 24, -50, 50);
        let out = mem.alloc(24);
        let p = kernel! {
            name: "par-scale";
            for i in range(0, 24) par(4) {
                st(out + i, ld(d + i) * 5 - 1);
            }
        }
        .expect("valid");
        three_way(&p, &mem, &[], &mut rng);
    }
}

#[test]
fn nested_reduction_three_way() {
    for seed in 0..SEEDS_PER_PROGRAM {
        let mut rng = Xoshiro256::seed_from_u64(0xA007 + seed);
        let (mut mem, a) = seeded_mem(0x700 + seed, 36, -9, 9);
        let out = mem.alloc(6);
        // Row sums of a 6x6 matrix: nested counted loops with an inner
        // accumulator, the canonical dense-kernel shape.
        let p = kernel! {
            name: "rowsum";
            for r in range(0, 6) {
                let mut s = stream(0);
                for c in range(0, 6) {
                    s = s + ld(a + r * 6 + c);
                }
                st(out + r, s);
            }
        }
        .expect("valid");
        three_way(&p, &mem, &[], &mut rng);
    }
}

#[test]
fn select_and_shifts_three_way() {
    for seed in 0..SEEDS_PER_PROGRAM {
        let mut rng = Xoshiro256::seed_from_u64(0xA008 + seed);
        let (mem, d) = seeded_mem(0x800 + seed, 32, -64, 63);
        let p = kernel! {
            name: "bits";
            param n;
            let mut acc = stream(0);
            for i in range(0, n) {
                let v = ld(d + i);
                let abs = select(v.lt(0), 0 - v, v);
                acc = acc + ((abs << 1) ^ (abs >> 2)) % 257;
            }
            sink "acc" = acc;
        }
        .expect("valid");
        three_way(&p, &mem, &[("n", 32)], &mut rng);
    }
}
