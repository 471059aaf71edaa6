//! Edge-case tests for the timed engine: RAW ordering through memory
//! tokens under contention, eager/lazy conditionals, cycle-limit guard,
//! and clock-divider arithmetic.

use nupea_fabric::Fabric;
use nupea_ir::graph::Dfg;
use nupea_ir::op::{BinOpKind, CmpKind, Op, SteerPolarity};
use nupea_pnr::{place::place, Netlist, PlaceConfig};
use nupea_sim::{
    ConfigError, Engine, MemParams, MemoryModel, PerturbConfig, SimConfig, SimError, SimMemory,
    StallKind,
};

fn cfg_tiny() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.mem = MemParams::tiny();
    cfg
}

fn run(
    g: &Dfg,
    mem: &mut SimMemory,
    binds: &[(nupea_ir::ParamId, i64)],
    cfg: SimConfig,
) -> Result<nupea_sim::RunStats, SimError> {
    let fabric = Fabric::monaco(8, 8, 3).unwrap();
    let netlist = Netlist::from_dfg(g);
    let pe_of = place(&fabric, &netlist, &PlaceConfig::default())
        .expect("edge-case graphs fit the 8x8 fabric")
        .pe_of;
    let mut e = Engine::new(g, &fabric, &pe_of, cfg);
    for &(p, v) in binds {
        e.bind(p, v);
    }
    e.run(mem)
}

/// store(addr, 42) -> ordered load(addr): the load must observe the store
/// even when the store's bank is kept busy by background traffic.
#[test]
fn raw_ordering_holds_under_bank_contention() {
    let mut g = Dfg::new("raw");
    let (a, ap) = g.add_param("addr");
    let st = g.add_node(Op::Store);
    g.connect(a, 0, st, Op::STORE_ADDR);
    g.set_imm(st, Op::STORE_VALUE, 42);
    // Background loads to the same bank (same line) to create contention.
    for i in 0..3 {
        let (p, _) = g.add_param(format!("bg{i}"));
        let ld = g.add_node(Op::Load);
        g.connect(p, 0, ld, Op::LOAD_ADDR);
        let (s, _) = g.add_sink(format!("bg_out{i}"));
        g.connect(ld, 0, s, 0);
    }
    // The ordered load.
    let (a2, ap2) = g.add_param("addr2");
    let ld = g.add_node(Op::Load);
    g.connect(a2, 0, ld, Op::LOAD_ADDR);
    g.connect(st, 0, ld, Op::LOAD_ORDER);
    let (s, _) = g.add_sink("value");
    g.connect(ld, Op::OUT_VALUE, s, 0);

    let params = MemParams::tiny();
    let mut mem = SimMemory::new(&params);
    let addr = 5i64;
    let mut binds = vec![(ap, addr), (ap2, addr)];
    for (pid, name) in g.params() {
        if name.starts_with('b') || name.starts_with('p') {
            binds.push((*pid, addr + 1)); // same line, same bank
        }
    }
    let stats = run(&g, &mut mem, &binds, cfg_tiny()).unwrap();
    assert_eq!(
        stats.sinks.last().unwrap(),
        &vec![42],
        "load must see the store"
    );
    assert_eq!(mem.read(addr as usize), 42);
}

/// Eager Select and gated Mux agree in the timed engine, as in the interp.
#[test]
fn timed_select_and_mux_agree() {
    for d in [0i64, 1] {
        let mut results = Vec::new();
        for lazy in [false, true] {
            let mut g = Dfg::new("sel");
            let (dp, dpi) = g.add_param("d");
            let (tp, tpi) = g.add_param("t");
            let (fp, fpi) = g.add_param("f");
            let n = if lazy {
                let ts = g.add_node(Op::Steer(SteerPolarity::OnTrue));
                g.connect(dp, 0, ts, 0);
                g.connect(tp, 0, ts, 1);
                let fs = g.add_node(Op::Steer(SteerPolarity::OnFalse));
                g.connect(dp, 0, fs, 0);
                g.connect(fp, 0, fs, 1);
                let m = g.add_node(Op::Mux);
                g.connect(dp, 0, m, 0);
                g.connect(ts, 0, m, 1);
                g.connect(fs, 0, m, 2);
                m
            } else {
                let sel = g.add_node(Op::Select);
                g.connect(dp, 0, sel, 0);
                g.connect(tp, 0, sel, 1);
                g.connect(fp, 0, sel, 2);
                sel
            };
            let (s, _) = g.add_sink("out");
            g.connect(n, 0, s, 0);
            let mut mem = SimMemory::new(&MemParams::tiny());
            let stats = run(
                &g,
                &mut mem,
                &[(dpi, d), (tpi, 100), (fpi, 200)],
                cfg_tiny(),
            )
            .unwrap();
            assert_eq!(stats.residual_tokens, 0);
            results.push(stats.sinks[0][0]);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], if d != 0 { 100 } else { 200 });
    }
}

/// The cycle cap turns a runaway loop into an error instead of a hang.
#[test]
fn cycle_limit_stops_infinite_loops() {
    let mut g = Dfg::new("inf");
    let (z, zp) = g.add_param("z");
    let c = g.add_node(Op::Carry);
    g.connect(z, 0, c, Op::CARRY_INIT);
    let inc = g.add_node(Op::BinOp(BinOpKind::Add));
    g.connect(c, 0, inc, 0);
    g.set_imm(inc, 1, 1);
    g.connect(inc, 0, c, Op::CARRY_BACK);
    // Condition is always true: x >= 0 starting from 0 counting up...
    let cond = g.add_node(Op::Cmp(CmpKind::Ge));
    g.connect(inc, 0, cond, 0);
    g.set_imm(cond, 1, 0);
    g.connect(cond, 0, c, Op::CARRY_DECIDER);

    let mut mem = SimMemory::new(&MemParams::tiny());
    let mut cfg = cfg_tiny();
    cfg.max_cycles = 10_000;
    match run(&g, &mut mem, &[(zp, 0)], cfg) {
        Err(SimError::CycleLimit { limit }) => assert_eq!(limit, 10_000),
        other => panic!("expected CycleLimit, got {other:?}"),
    }
}

/// Divider arithmetic: cycles at divider d are strictly less than d× the
/// divider-1 time (memory runs at full rate), but at least the divider-1
/// time itself.
#[test]
fn divider_scaling_is_bounded() {
    // Small accumulation loop with loads.
    let mut g = Dfg::new("loop");
    let (z, zp) = g.add_param("z");
    let carry = g.add_node(Op::Carry);
    g.connect(z, 0, carry, Op::CARRY_INIT);
    let cond = g.add_node(Op::Cmp(CmpKind::Lt));
    g.connect(carry, 0, cond, 0);
    g.set_imm(cond, 1, 32);
    g.connect(cond, 0, carry, Op::CARRY_DECIDER);
    let body = g.add_node(Op::Steer(SteerPolarity::OnTrue));
    g.connect(cond, 0, body, 0);
    g.connect(carry, 0, body, 1);
    let ld = g.add_node(Op::Load);
    g.connect(body, 0, ld, Op::LOAD_ADDR);
    let inc = g.add_node(Op::BinOp(BinOpKind::Add));
    g.connect(body, 0, inc, 0);
    g.set_imm(inc, 1, 1);
    g.connect(inc, 0, carry, Op::CARRY_BACK);
    let (s, _) = g.add_sink("v");
    g.connect(ld, 0, s, 0);

    let mut cycles = Vec::new();
    for d in [1u64, 2, 4] {
        let mut mem = SimMemory::new(&MemParams::tiny());
        let mut cfg = cfg_tiny();
        cfg.divider = d;
        let stats = run(&g, &mut mem, &[(zp, 0)], cfg).unwrap();
        assert_eq!(stats.sinks[0].len(), 32);
        cycles.push(stats.cycles);
    }
    assert!(cycles[1] > cycles[0] && cycles[2] > cycles[1]);
    assert!(
        cycles[1] < cycles[0] * 2 && cycles[2] < cycles[0] * 4,
        "full-rate memory must soften the divider: {cycles:?}"
    );
}

/// All memory models agree on results for a store/load mix.
#[test]
fn models_agree_on_final_memory() {
    let mut g = Dfg::new("mix");
    // i loop storing i*i to out+i then reading back into a sink.
    let (z, zp) = g.add_param("z");
    let carry = g.add_node(Op::Carry);
    g.connect(z, 0, carry, Op::CARRY_INIT);
    let cond = g.add_node(Op::Cmp(CmpKind::Lt));
    g.connect(carry, 0, cond, 0);
    g.set_imm(cond, 1, 16);
    g.connect(cond, 0, carry, Op::CARRY_DECIDER);
    let body = g.add_node(Op::Steer(SteerPolarity::OnTrue));
    g.connect(cond, 0, body, 0);
    g.connect(carry, 0, body, 1);
    let sq = g.add_node(Op::BinOp(BinOpKind::Mul));
    g.connect(body, 0, sq, 0);
    g.connect(body, 0, sq, 1);
    let addr = g.add_node(Op::BinOp(BinOpKind::Add));
    g.connect(body, 0, addr, 0);
    g.set_imm(addr, 1, 64);
    let st = g.add_node(Op::Store);
    g.connect(addr, 0, st, Op::STORE_ADDR);
    g.connect(sq, 0, st, Op::STORE_VALUE);
    let inc = g.add_node(Op::BinOp(BinOpKind::Add));
    g.connect(body, 0, inc, 0);
    g.set_imm(inc, 1, 1);
    g.connect(inc, 0, carry, Op::CARRY_BACK);

    let mut images = Vec::new();
    for model in [
        MemoryModel::Nupea,
        MemoryModel::IDEAL,
        MemoryModel::Upea(3),
        MemoryModel::NumaUpea(2),
    ] {
        let mut mem = SimMemory::new(&MemParams::tiny());
        let mut cfg = cfg_tiny();
        cfg.model = model;
        run(&g, &mut mem, &[(zp, 0)], cfg).unwrap();
        images.push(mem);
    }
    for w in images.windows(2) {
        assert_eq!(w[0], w[1], "models must agree on final memory");
    }
    assert_eq!(images[0].read(64 + 5), 25);
}

/// A credit-starved loop must terminate with a diagnosed `Deadlock` in a
/// handful of cycles, not quiesce silently or spin to `max_cycles`: a
/// counter loop feeds an adder whose second operand comes from a filter
/// that never forwards, so with `fifo_depth = 1` the adder's first input
/// FIFO fills and backpressure wedges the whole loop.
#[test]
fn credit_starved_graph_deadlocks_with_diagnostics() {
    let mut g = Dfg::new("wedge");
    let (z, zp) = g.add_param("z");
    let carry = g.add_node(Op::Carry);
    g.connect(z, 0, carry, Op::CARRY_INIT);
    let cond = g.add_node(Op::Cmp(CmpKind::Lt));
    g.connect(carry, 0, cond, 0);
    g.set_imm(cond, 1, 1_000_000);
    g.connect(cond, 0, carry, Op::CARRY_DECIDER);
    let body = g.add_node(Op::Steer(SteerPolarity::OnTrue));
    g.connect(cond, 0, body, 0);
    g.connect(carry, 0, body, 1);
    let inc = g.add_node(Op::BinOp(BinOpKind::Add));
    g.connect(body, 0, inc, 0);
    g.set_imm(inc, 1, 1);
    g.connect(inc, 0, carry, Op::CARRY_BACK);
    // The wedge: `never` filters on the inverted loop condition, so it
    // consumes every iteration but forwards nothing, and `sum` can never
    // fire. Its port-0 FIFO (fed by `body`) fills at depth 1.
    let never = g.add_node(Op::Steer(SteerPolarity::OnFalse));
    g.connect(cond, 0, never, 0);
    g.connect(carry, 0, never, 1);
    let sum = g.add_node(Op::BinOp(BinOpKind::Add));
    g.connect(body, 0, sum, 0);
    g.connect(never, 0, sum, 1);
    let (s, _) = g.add_sink("out");
    g.connect(sum, 0, s, 0);

    let mut mem = SimMemory::new(&MemParams::tiny());
    let mut cfg = cfg_tiny();
    cfg.fifo_depth = 1;
    match run(&g, &mut mem, &[(zp, 0)], cfg) {
        Err(SimError::Deadlock(report)) => {
            assert!(!report.nodes.is_empty(), "report must name stalled nodes");
            assert!(
                report.cycle < 10_000,
                "deadlock must be detected promptly, not at cycle {}",
                report.cycle
            );
            assert!(report.residual_tokens > 0, "tokens are trapped");
            // The steer is the node actually held by backpressure, and the
            // report must say who holds its credit.
            let steer = report
                .nodes
                .iter()
                .find(|n| n.node == body.0)
                .expect("the credit-starved steer must be in the report");
            assert_eq!(steer.kind, StallKind::NoConsumerCredit);
            assert!(
                steer.blocked_on.contains(&sum.0),
                "steer must be blocked on the adder, got {:?}",
                steer.blocked_on
            );
            // The adder itself is waiting on the operand that never comes.
            let adder = report
                .nodes
                .iter()
                .find(|n| n.node == sum.0)
                .expect("the starved adder must be in the report");
            assert_eq!(adder.kind, StallKind::WaitingOperand);
            assert!(adder.missing_ports.contains(&1));
            // The Display form is a usable diagnostic.
            let text = report.to_string();
            assert!(text.contains("no-consumer-credit"), "{text}");
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

/// Unbalanced-but-acyclic residue (a token produced for a branch that
/// never executes) stays a normal completion with `residual_tokens > 0` —
/// the deadlock detector must not fire on plain imbalance.
#[test]
fn unbalanced_kernel_still_completes_with_residual() {
    let mut g = Dfg::new("imbalance");
    let (d, dp) = g.add_param("d");
    let (t, tp) = g.add_param("t");
    let (f, fp) = g.add_param("f");
    let m = g.add_node(Op::Mux);
    g.connect(d, 0, m, 0);
    g.connect(t, 0, m, 1);
    g.connect(f, 0, m, 2);
    let (s, _) = g.add_sink("out");
    g.connect(m, 0, s, 0);

    let mut mem = SimMemory::new(&MemParams::tiny());
    // d = 1 takes the `t` branch; `f`'s token is never consumed.
    let stats = run(&g, &mut mem, &[(dp, 1), (tp, 5), (fp, 9)], cfg_tiny()).unwrap();
    assert_eq!(stats.sinks[0], vec![5]);
    assert_eq!(stats.residual_tokens, 1, "the untaken branch token remains");
}

/// The quiescence-window watchdog converts a hang into a diagnosed
/// `Stalled` error. Two loads contend for the same bank, so the second
/// request sits queued behind the busy bank for the full miss latency —
/// with `stall_window = 1` those completion-free busy cycles trip the
/// watchdog, and the report classifies the wait as memory-outstanding.
#[test]
fn stall_watchdog_reports_memory_wait() {
    let mut g = Dfg::new("slow");
    for i in 0..2 {
        let (a, _) = g.add_param(format!("addr{i}"));
        let ld = g.add_node(Op::Load);
        g.connect(a, 0, ld, Op::LOAD_ADDR);
        let (s, _) = g.add_sink(format!("v{i}"));
        g.connect(ld, Op::OUT_VALUE, s, 0);
    }
    let binds: Vec<_> = g.params().iter().map(|(p, _)| (*p, 7i64)).collect();

    let mut mem = SimMemory::new(&MemParams::tiny());
    let mut cfg = cfg_tiny();
    cfg.stall_window = 1;
    match run(&g, &mut mem, &binds, cfg) {
        Err(SimError::Stalled { window, report }) => {
            assert_eq!(window, 1);
            let load = report
                .nodes
                .iter()
                .find(|n| n.kind == StallKind::MemoryOutstanding)
                .expect("the queued load must be in the report");
            assert_eq!(load.outstanding, 1);
            assert!(load.op.contains("Load"), "op is {:?}", load.op);
        }
        other => panic!("expected Stalled, got {other:?}"),
    }

    // The default window is far larger than any memory round-trip: the
    // same kernel completes untouched.
    let mut mem = SimMemory::new(&MemParams::tiny());
    let stats = run(&g, &mut mem, &binds, cfg_tiny()).unwrap();
    assert_eq!(stats.sinks.len(), 2);
}

/// Latency perturbation changes the schedule but never the results: the
/// loop kernel produces identical sinks and memory under heavy jitter,
/// while taking (weakly) longer.
#[test]
fn perturbation_changes_timing_but_not_results() {
    let mut g = Dfg::new("ploop");
    let (z, zp) = g.add_param("z");
    let carry = g.add_node(Op::Carry);
    g.connect(z, 0, carry, Op::CARRY_INIT);
    let cond = g.add_node(Op::Cmp(CmpKind::Lt));
    g.connect(carry, 0, cond, 0);
    g.set_imm(cond, 1, 24);
    g.connect(cond, 0, carry, Op::CARRY_DECIDER);
    let body = g.add_node(Op::Steer(SteerPolarity::OnTrue));
    g.connect(cond, 0, body, 0);
    g.connect(carry, 0, body, 1);
    let ld = g.add_node(Op::Load);
    g.connect(body, 0, ld, Op::LOAD_ADDR);
    let inc = g.add_node(Op::BinOp(BinOpKind::Add));
    g.connect(body, 0, inc, 0);
    g.set_imm(inc, 1, 1);
    g.connect(inc, 0, carry, Op::CARRY_BACK);
    let (s, _) = g.add_sink("v");
    g.connect(ld, 0, s, 0);

    let mut base_mem = SimMemory::new(&MemParams::tiny());
    let base = run(&g, &mut base_mem, &[(zp, 0)], cfg_tiny()).unwrap();
    assert_eq!(base.sinks[0].len(), 24);

    let mut saw_slower = false;
    for seed in [1u64, 2, 3] {
        let mut cfg = cfg_tiny();
        cfg.perturb = PerturbConfig {
            seed,
            max_noc_jitter: 7,
            max_mem_jitter: 15,
        };
        let mut mem = SimMemory::new(&MemParams::tiny());
        let stats = run(&g, &mut mem, &[(zp, 0)], cfg).unwrap();
        assert_eq!(stats.sinks, base.sinks, "seed {seed}: sinks must match");
        assert_eq!(mem, base_mem, "seed {seed}: memory must match");
        assert_eq!(stats.residual_tokens, 0);
        assert!(stats.cycles >= base.cycles, "jitter only adds latency");
        saw_slower |= stats.cycles > base.cycles;
    }
    assert!(
        saw_slower,
        "heavy jitter must actually perturb the schedule"
    );
}

/// Degenerate configurations are rejected with typed errors instead of
/// silent repair (the old `divider.max(1)`) or deep-in-the-engine panics.
#[test]
fn degenerate_configs_are_rejected_by_validate() {
    assert!(SimConfig::default().validate().is_ok());
    assert!(MemParams::tiny().validate().is_ok());

    let mut cfg = SimConfig::default();
    cfg.divider = 0;
    assert_eq!(cfg.validate(), Err(ConfigError::ZeroDivider));

    let mut cfg = SimConfig::default();
    cfg.fifo_depth = 0;
    assert_eq!(cfg.validate(), Err(ConfigError::ZeroFifoDepth));

    let mut cfg = SimConfig::default();
    cfg.max_outstanding = 0;
    assert_eq!(cfg.validate(), Err(ConfigError::ZeroMaxOutstanding));

    let mut cfg = SimConfig::default();
    cfg.mem.banks = 0;
    assert_eq!(cfg.validate(), Err(ConfigError::ZeroBanks));

    let mut mp = MemParams::tiny();
    mp.line_words = 0;
    assert_eq!(mp.validate(), Err(ConfigError::ZeroLineWords));
    let mut mp = MemParams::tiny();
    mp.ways = 0;
    assert_eq!(mp.validate(), Err(ConfigError::ZeroWays));
    let mut mp = MemParams::tiny();
    mp.mem_words = 0;
    assert_eq!(mp.validate(), Err(ConfigError::ZeroMemWords));

    // Each error renders a distinct human-readable message.
    let msgs: Vec<String> = [
        ConfigError::ZeroDivider,
        ConfigError::ZeroFifoDepth,
        ConfigError::ZeroMaxOutstanding,
        ConfigError::ZeroBanks,
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    for w in msgs.windows(2) {
        assert_ne!(w[0], w[1]);
    }
}
