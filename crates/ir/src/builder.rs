//! Structured kernel builder: lowers loops, conditionals, and memory
//! accesses to token-balanced ordered dataflow.
//!
//! This module plays the role of effcc's dataflow lowering (§5 of the
//! paper): structured control flow becomes steer/carry/invariant gates in
//! the style of RipTide — the execution model Monaco implements.
//!
//! # Token discipline
//!
//! Every value ([`Val`]) is tagged with the **region** that produced it:
//! the top level, a loop header (one token per iteration *attempt*), a loop
//! body (one per iteration), or an `if` branch (one per taken iteration).
//! Mixing values from different regions is a token-imbalance bug — the
//! builder panics at graph-construction time instead of deadlocking at
//! simulation time. Values cross regions only through the lowering
//! primitives: carried variables, declared invariants, branch inputs, and
//! loop exits.
//!
//! The resulting graphs satisfy a strong invariant, enforced by tests all
//! over this repository: after execution, **no tokens remain buffered
//! anywhere** and every gate is back in its fresh state.

use crate::graph::{Criticality, Dfg, NodeId};
use crate::op::{BinOpKind, CmpKind, Op, ParamId, SinkId, SteerPolarity, UnOpKind};
use std::collections::HashMap;

/// A value handle: an immediate or a node output, tagged with its region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Val {
    kind: ValKind,
    region: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ValKind {
    Imm(i64),
    Node(u32, u8),
}

impl Val {
    /// True if this is an immediate constant.
    pub fn is_imm(&self) -> bool {
        matches!(self.kind, ValKind::Imm(_))
    }

    /// The immediate value, if any.
    pub fn as_imm(&self) -> Option<i64> {
        match self.kind {
            ValKind::Imm(v) => Some(v),
            ValKind::Node(..) => None,
        }
    }
}

impl From<i64> for Val {
    fn from(v: i64) -> Self {
        Val {
            kind: ValKind::Imm(v),
            region: u32::MAX, // immediates are region-free
        }
    }
}

#[derive(Debug)]
struct Region {
    /// A stream carrying exactly one token per activation of this region,
    /// used to materialize constants as token streams.
    activation: Option<Val>,
    /// Loop nesting depth of the region (for criticality metadata).
    depth: u32,
    /// Set when a loop is created inside this region (leaf-loop tracking).
    has_inner_loop: bool,
    /// Memory nodes created directly in this region.
    mem_nodes: Vec<NodeId>,
    /// True if this region is a loop body (depth counts it).
    is_loop: bool,
    /// Parent region index in the builder's region arena.
    parent: Option<usize>,
}

/// The kernel construction context.
///
/// Obtain one through [`Kernel::build`]; all graph construction goes
/// through its methods.
#[derive(Debug)]
pub struct Ctx {
    g: Dfg,
    regions: Vec<Region>,
    cur: usize,
    fixed: Vec<(ParamId, i64)>,
    named: HashMap<String, ParamId>,
    imm_cache: HashMap<(u32, i64), Val>,
}

impl Ctx {
    fn new(name: &str) -> Self {
        let mut g = Dfg::new(name);
        // Hidden activation token for the top level.
        let (act_node, act_pid) = g.add_param("__act");
        let mut ctx = Ctx {
            g,
            regions: vec![Region {
                activation: None,
                depth: 0,
                has_inner_loop: false,
                mem_nodes: Vec::new(),
                is_loop: false,
                parent: None,
            }],
            cur: 0,
            fixed: vec![(act_pid, 1)],
            named: HashMap::new(),
            imm_cache: HashMap::new(),
        };
        ctx.regions[0].activation = Some(ctx.val(act_node, 0));
        ctx
    }

    fn val(&self, node: NodeId, port: u8) -> Val {
        Val {
            kind: ValKind::Node(node.0, port),
            region: self.cur as u32,
        }
    }

    fn val_in(&self, node: NodeId, port: u8, region: usize) -> Val {
        Val {
            kind: ValKind::Node(node.0, port),
            region: region as u32,
        }
    }

    #[track_caller]
    fn check_region(&self, v: Val) {
        if let ValKind::Node(n, _) = v.kind {
            assert_eq!(
                v.region, self.cur as u32,
                "value from node n{n} (region {}) used in region {}: tokens \
                 must cross regions via carried vars, invariants, branch \
                 inputs, or loop exits",
                v.region, self.cur
            );
        }
    }

    fn new_node(&mut self, op: Op) -> NodeId {
        let id = self.g.add_node(op);
        let depth = self.regions[self.cur].depth;
        let meta = self.g.meta_mut(id);
        meta.loop_depth = depth;
        if op.is_memory() {
            self.regions[self.cur].mem_nodes.push(id);
        }
        id
    }

    /// Wire a Val into a node input port.
    fn attach(&mut self, v: Val, dst: NodeId, port: usize) {
        match v.kind {
            ValKind::Imm(c) => self.g.set_imm(dst, port, c),
            ValKind::Node(n, p) => self.g.connect(NodeId(n), p as usize, dst, port),
        }
    }

    // ----- constants and params ------------------------------------------

    /// An immediate constant (usable as any operand except token-stream
    /// ports, where [`Ctx::stream_const`] materializes it).
    pub fn imm(&self, v: i64) -> Val {
        Val::from(v)
    }

    /// A named runtime parameter (bound at run time). Top-level region.
    ///
    /// # Panics
    ///
    /// Panics when called outside the top-level region or with a duplicate
    /// name.
    pub fn param(&mut self, name: &str) -> Val {
        assert_eq!(self.cur, 0, "params must be declared at top level");
        assert!(
            !self.named.contains_key(name),
            "duplicate param name {name}"
        );
        let (node, pid) = self.g.add_param(name);
        self.named.insert(name.to_string(), pid);
        self.val(node, 0)
    }

    /// A compile-time constant delivered as a real token stream (one token
    /// per activation of the current region). Needed wherever a consumable
    /// token is required, e.g. carry inits. Cached per (region, value).
    pub fn stream_const(&mut self, v: i64) -> Val {
        let key = (self.cur as u32, v);
        if let Some(&cached) = self.imm_cache.get(&key) {
            return cached;
        }
        let act = self.regions[self.cur]
            .activation
            .expect("region has an activation stream");
        // act & 0 = 0 ; 0 | v = v — two single-cycle ops per constant.
        let zero = self.new_node(Op::BinOp(BinOpKind::And));
        self.attach(act, zero, 0);
        self.g.set_imm(zero, 1, 0);
        let out = if v == 0 {
            self.val(zero, 0)
        } else {
            let or = self.new_node(Op::BinOp(BinOpKind::Or));
            let zv = self.val(zero, 0);
            self.attach(zv, or, 0);
            self.g.set_imm(or, 1, v);
            self.val(or, 0)
        };
        self.imm_cache.insert(key, out);
        out
    }

    /// Turn a Val into a guaranteed token stream in the current region
    /// (materializing immediates via [`Ctx::stream_const`]).
    pub fn as_stream(&mut self, v: Val) -> Val {
        match v.kind {
            ValKind::Imm(c) => self.stream_const(c),
            ValKind::Node(..) => {
                self.check_region(v);
                v
            }
        }
    }

    // ----- arithmetic ------------------------------------------------------

    /// Binary arithmetic/logic operation.
    pub fn bin(&mut self, k: BinOpKind, a: Val, b: Val) -> Val {
        if let (Some(x), Some(y)) = (a.as_imm(), b.as_imm()) {
            return self.imm(k.eval(x, y)); // constant-fold
        }
        self.check_region(a);
        self.check_region(b);
        let id = self.new_node(Op::BinOp(k));
        self.attach(a, id, 0);
        self.attach(b, id, 1);
        self.val(id, 0)
    }

    /// Comparison returning 0/1.
    pub fn cmp(&mut self, k: CmpKind, a: Val, b: Val) -> Val {
        if let (Some(x), Some(y)) = (a.as_imm(), b.as_imm()) {
            return self.imm(k.eval(x, y));
        }
        self.check_region(a);
        self.check_region(b);
        let id = self.new_node(Op::Cmp(k));
        self.attach(a, id, 0);
        self.attach(b, id, 1);
        self.val(id, 0)
    }

    /// Unary operation.
    pub fn un(&mut self, k: UnOpKind, a: Val) -> Val {
        if let Some(x) = a.as_imm() {
            return self.imm(k.eval(x));
        }
        self.check_region(a);
        let id = self.new_node(Op::UnOp(k));
        self.attach(a, id, 0);
        self.val(id, 0)
    }

    /// `a + b`.
    pub fn add(&mut self, a: impl Into<Val>, b: impl Into<Val>) -> Val {
        self.bin(BinOpKind::Add, a.into(), b.into())
    }
    /// `a - b`.
    pub fn sub(&mut self, a: impl Into<Val>, b: impl Into<Val>) -> Val {
        self.bin(BinOpKind::Sub, a.into(), b.into())
    }
    /// `a * b`.
    pub fn mul(&mut self, a: impl Into<Val>, b: impl Into<Val>) -> Val {
        self.bin(BinOpKind::Mul, a.into(), b.into())
    }
    /// `a / b` (0 on division by zero).
    pub fn div(&mut self, a: impl Into<Val>, b: impl Into<Val>) -> Val {
        self.bin(BinOpKind::Div, a.into(), b.into())
    }
    /// `a % b` (0 on division by zero).
    pub fn rem(&mut self, a: impl Into<Val>, b: impl Into<Val>) -> Val {
        self.bin(BinOpKind::Rem, a.into(), b.into())
    }
    /// `a & b`.
    pub fn and(&mut self, a: impl Into<Val>, b: impl Into<Val>) -> Val {
        self.bin(BinOpKind::And, a.into(), b.into())
    }
    /// `a | b`.
    pub fn or(&mut self, a: impl Into<Val>, b: impl Into<Val>) -> Val {
        self.bin(BinOpKind::Or, a.into(), b.into())
    }
    /// `a ^ b`.
    pub fn xor(&mut self, a: impl Into<Val>, b: impl Into<Val>) -> Val {
        self.bin(BinOpKind::Xor, a.into(), b.into())
    }
    /// `a << b`.
    pub fn shl(&mut self, a: impl Into<Val>, b: impl Into<Val>) -> Val {
        self.bin(BinOpKind::Shl, a.into(), b.into())
    }
    /// `a >> b` (arithmetic).
    pub fn shr(&mut self, a: impl Into<Val>, b: impl Into<Val>) -> Val {
        self.bin(BinOpKind::Shr, a.into(), b.into())
    }
    /// `min(a, b)`.
    pub fn min(&mut self, a: impl Into<Val>, b: impl Into<Val>) -> Val {
        self.bin(BinOpKind::Min, a.into(), b.into())
    }
    /// `max(a, b)`.
    pub fn max(&mut self, a: impl Into<Val>, b: impl Into<Val>) -> Val {
        self.bin(BinOpKind::Max, a.into(), b.into())
    }
    /// `a < b`.
    pub fn lt(&mut self, a: impl Into<Val>, b: impl Into<Val>) -> Val {
        self.cmp(CmpKind::Lt, a.into(), b.into())
    }
    /// `a <= b`.
    pub fn le(&mut self, a: impl Into<Val>, b: impl Into<Val>) -> Val {
        self.cmp(CmpKind::Le, a.into(), b.into())
    }
    /// `a > b`.
    pub fn gt(&mut self, a: impl Into<Val>, b: impl Into<Val>) -> Val {
        self.cmp(CmpKind::Gt, a.into(), b.into())
    }
    /// `a >= b`.
    pub fn ge(&mut self, a: impl Into<Val>, b: impl Into<Val>) -> Val {
        self.cmp(CmpKind::Ge, a.into(), b.into())
    }
    /// `a == b`.
    pub fn eq(&mut self, a: impl Into<Val>, b: impl Into<Val>) -> Val {
        self.cmp(CmpKind::Eq, a.into(), b.into())
    }
    /// `a != b`.
    pub fn ne(&mut self, a: impl Into<Val>, b: impl Into<Val>) -> Val {
        self.cmp(CmpKind::Ne, a.into(), b.into())
    }
    /// Eager conditional `if c { t } else { f }` — both sides are computed
    /// every iteration (arithmetic only; for conditional memory use
    /// [`Ctx::if_else`]).
    pub fn select(&mut self, c: Val, t: impl Into<Val>, f: impl Into<Val>) -> Val {
        let (t, f) = (t.into(), f.into());
        self.check_region(c);
        let t = self.as_stream(t);
        let f = self.as_stream(f);
        let id = self.new_node(Op::Select);
        self.attach(c, id, 0);
        self.attach(t, id, 1);
        self.attach(f, id, 2);
        self.val(id, 0)
    }

    // ----- memory ----------------------------------------------------------

    /// Load from `addr`.
    pub fn load(&mut self, addr: Val) -> Val {
        self.check_region(addr);
        let id = self.new_node(Op::Load);
        self.attach(addr, id, Op::LOAD_ADDR);
        self.val(id, Op::OUT_VALUE as u8)
    }

    /// Load from `addr`, asserting that the criticality classifier will
    /// mark it [`Criticality::Critical`] (i.e. it sits on a
    /// loop-governing recurrence). The assertion is checked after the
    /// kernel is built — see [`Kernel::criticality_hint_violations`].
    pub fn load_expect_critical(&mut self, addr: Val) -> Val {
        let v = self.load(addr);
        self.mark_last_expect_critical();
        v
    }

    /// Ordered variant of [`Ctx::load_expect_critical`].
    pub fn load_ordered_expect_critical(&mut self, addr: Val, order: Val) -> (Val, Val) {
        let v = self.load_ordered(addr, order);
        self.mark_last_expect_critical();
        v
    }

    /// Flag the most recently created node (a load, by construction of the
    /// two callers above) as expected-critical.
    fn mark_last_expect_critical(&mut self) {
        let id = NodeId(self.g.len() as u32 - 1);
        self.g.meta_mut(id).expect_critical = true;
    }

    /// Load gated on a memory-ordering token; returns `(value, order_out)`.
    pub fn load_ordered(&mut self, addr: Val, order: Val) -> (Val, Val) {
        self.check_region(addr);
        self.check_region(order);
        let id = self.new_node(Op::Load);
        self.attach(addr, id, Op::LOAD_ADDR);
        self.attach(order, id, Op::LOAD_ORDER);
        (
            self.val(id, Op::OUT_VALUE as u8),
            self.val(id, Op::LOAD_OUT_ORDER as u8),
        )
    }

    /// Store `value` to `addr`; returns the completion/order token.
    pub fn store(&mut self, addr: Val, value: Val) -> Val {
        self.check_region(addr);
        let value = self.as_stream(value);
        let id = self.new_node(Op::Store);
        self.attach(addr, id, Op::STORE_ADDR);
        self.attach(value, id, Op::STORE_VALUE);
        self.val(id, 0)
    }

    /// Store gated on a memory-ordering token; returns the order-out token.
    pub fn store_ordered(&mut self, addr: Val, value: Val, order: Val) -> Val {
        self.check_region(addr);
        self.check_region(order);
        let value = self.as_stream(value);
        let id = self.new_node(Op::Store);
        self.attach(addr, id, Op::STORE_ADDR);
        self.attach(value, id, Op::STORE_VALUE);
        self.attach(order, id, Op::STORE_ORDER);
        self.val(id, 0)
    }

    /// Join several ordering tokens into one (a tree of OR gates).
    ///
    /// # Panics
    ///
    /// Panics on an empty token list.
    pub fn join_order(&mut self, tokens: &[Val]) -> Val {
        assert!(!tokens.is_empty(), "join_order needs at least one token");
        let mut level: Vec<Val> = tokens.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    next.push(self.or(pair[0], pair[1]));
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        level[0]
    }

    /// Record a value stream into a named sink (for validation).
    pub fn sink(&mut self, v: Val, name: &str) -> SinkId {
        self.check_region(v);
        let v = self.as_stream(v);
        let (id, sid) = self.g.add_sink(name);
        self.attach(v, id, 0);
        sid
    }

    // ----- control flow ----------------------------------------------------

    /// General while loop.
    ///
    /// * `carried` — loop-carried variables (their current-region values
    ///   are the initial values). Must be non-empty.
    /// * `invariants` — values from the current region needed inside the
    ///   loop (header and/or body).
    /// * `cond(ctx, carried, invariants) -> Val` — evaluated once per
    ///   iteration attempt in the **header** region.
    /// * `body(ctx, carried, invariants) -> Vec<Val>` — produces the next
    ///   value of every carried variable, in order, in the **body** region.
    ///
    /// Returns the exit values of the carried variables (current region).
    ///
    /// # Panics
    ///
    /// Panics if `carried` is empty, if `body` returns the wrong number of
    /// values, or on region violations.
    pub fn while_loop(
        &mut self,
        carried: &[Val],
        invariants: &[Val],
        cond: impl FnOnce(&mut Ctx, &[Val], &[Val]) -> Val,
        body: impl FnOnce(&mut Ctx, &[Val], &[Val]) -> Vec<Val>,
    ) -> Vec<Val> {
        assert!(!carried.is_empty(), "while_loop needs a carried variable");
        let parent = self.cur;
        self.regions[parent].has_inner_loop = true;

        // Materialize inits and invariant streams in the parent region.
        let inits: Vec<Val> = carried.iter().map(|&v| self.as_stream(v)).collect();
        let inv_streams: Vec<Val> = invariants.iter().map(|&v| self.as_stream(v)).collect();

        // Gates.
        let carries: Vec<NodeId> = inits
            .iter()
            .map(|&init| {
                let c = self.new_node(Op::Carry);
                self.attach(init, c, Op::CARRY_INIT);
                c
            })
            .collect();
        let invs: Vec<NodeId> = inv_streams
            .iter()
            .map(|&v| {
                let i = self.new_node(Op::Invariant);
                self.attach(v, i, Op::INV_VALUE);
                i
            })
            .collect();

        // Header region.
        let depth = self.regions[parent].depth + 1;
        let header = self.push_region(depth, true, parent);
        let hdr_carried: Vec<Val> = carries.iter().map(|&c| self.val(c, 0)).collect();
        let hdr_invs: Vec<Val> = invs.iter().map(|&i| self.val(i, 0)).collect();
        self.regions[header].activation = Some(hdr_carried[0]);
        let d = cond(self, &hdr_carried, &hdr_invs);
        self.check_region(d);
        assert!(!d.is_imm(), "loop condition must be a computed value");
        self.pop_region(parent);

        // Wire the decider.
        for &c in &carries {
            self.attach_raw(d, c, Op::CARRY_DECIDER);
        }
        for &i in &invs {
            self.attach_raw(d, i, Op::INV_DECIDER);
        }

        // Body region: steered copies.
        let body_region = self.push_region(depth, true, parent);
        let body_carried: Vec<Val> = carries
            .iter()
            .map(|&c| {
                let s = self.new_node(Op::Steer(SteerPolarity::OnTrue));
                self.attach_raw(d, s, Op::DECIDER);
                self.g.connect(c, 0, s, Op::STEER_VALUE);
                self.val(s, 0)
            })
            .collect();
        let body_invs: Vec<Val> = invs
            .iter()
            .map(|&i| {
                let s = self.new_node(Op::Steer(SteerPolarity::OnTrue));
                self.attach_raw(d, s, Op::DECIDER);
                self.g.connect(i, 0, s, Op::STEER_VALUE);
                self.val(s, 0)
            })
            .collect();
        self.regions[body_region].activation = Some(body_carried[0]);
        let nexts = body(self, &body_carried, &body_invs);
        assert_eq!(
            nexts.len(),
            carries.len(),
            "body must return one next value per carried variable"
        );
        let nexts: Vec<Val> = nexts.iter().map(|&v| self.as_stream(v)).collect();
        self.pop_region(parent);
        for (&c, &next) in carries.iter().zip(&nexts) {
            self.attach_raw(next, c, Op::CARRY_BACK);
        }

        // Exit steers (parent region).
        carries
            .iter()
            .map(|&c| {
                let s = self.new_node(Op::Steer(SteerPolarity::OnFalse));
                self.attach_raw(d, s, Op::DECIDER);
                self.g.connect(c, 0, s, Op::STEER_VALUE);
                self.val_in(s, 0, parent)
            })
            .collect()
    }

    /// Counted loop `for i in (lo..hi).step_by(step)` with extra carried
    /// variables. The body returns the next values of the extra carried
    /// variables; the exit values of those variables are returned.
    ///
    /// # Panics
    ///
    /// Panics if `step <= 0` or on region violations.
    pub fn for_range(
        &mut self,
        lo: impl Into<Val>,
        hi: impl Into<Val>,
        step: i64,
        carried: &[Val],
        invariants: &[Val],
        body: impl FnOnce(&mut Ctx, Val, &[Val], &[Val]) -> Vec<Val>,
    ) -> Vec<Val> {
        assert!(step > 0, "for_range requires a positive step");
        let (lo, hi) = (lo.into(), hi.into());
        let mut all_carried = vec![lo];
        all_carried.extend_from_slice(carried);
        let mut all_invs = vec![hi];
        all_invs.extend_from_slice(invariants);
        let mut exits = self.while_loop(
            &all_carried,
            &all_invs,
            |c, vars, invs| c.lt(vars[0], invs[0]),
            |c, vars, invs| {
                let i = vars[0];
                let i_next = c.add(i, step);
                let mut nexts = body(c, i, &vars[1..], &invs[1..]);
                nexts.insert(0, i_next);
                nexts
            },
        );
        exits.remove(0); // drop the induction variable's exit
        exits
    }

    /// Conditional with possibly effectful branches. `inputs` are values
    /// the branches need; each branch receives gated copies and must return
    /// the same number of result values, merged with lazy muxes.
    ///
    /// # Panics
    ///
    /// Panics if the branches return different result counts or on region
    /// violations.
    pub fn if_else(
        &mut self,
        c: Val,
        inputs: &[Val],
        then_b: impl FnOnce(&mut Ctx, &[Val]) -> Vec<Val>,
        else_b: impl FnOnce(&mut Ctx, &[Val]) -> Vec<Val>,
    ) -> Vec<Val> {
        self.check_region(c);
        assert!(!c.is_imm(), "if_else condition must be a computed value");
        let parent = self.cur;
        let inputs: Vec<Val> = inputs.iter().map(|&v| self.as_stream(v)).collect();
        let depth = self.regions[parent].depth;

        type BranchBody<'a> = Box<dyn FnOnce(&mut Ctx, &[Val]) -> Vec<Val> + 'a>;
        let run_branch = |ctx: &mut Ctx, pol: SteerPolarity, f: BranchBody<'_>| -> Vec<Val> {
            let region = ctx.push_region(depth, false, parent);
            let gated: Vec<Val> = inputs
                .iter()
                .map(|&v| {
                    let s = ctx.new_node(Op::Steer(pol));
                    ctx.attach_raw(c, s, Op::DECIDER);
                    ctx.attach_raw(v, s, Op::STEER_VALUE);
                    ctx.val(s, 0)
                })
                .collect();
            ctx.regions[region].activation = gated.first().copied();
            let out = f(ctx, &gated);
            let out: Vec<Val> = out.iter().map(|&v| ctx.as_stream(v)).collect();
            ctx.pop_region(parent);
            out
        };

        let t_out = run_branch(self, SteerPolarity::OnTrue, Box::new(then_b));
        let e_out = run_branch(self, SteerPolarity::OnFalse, Box::new(else_b));
        assert_eq!(
            t_out.len(),
            e_out.len(),
            "both branches must return the same number of values"
        );
        t_out
            .iter()
            .zip(&e_out)
            .map(|(&t, &e)| {
                let m = self.new_node(Op::Mux);
                self.attach_raw(c, m, 0);
                self.attach_raw(t, m, 1);
                self.attach_raw(e, m, 2);
                self.val(m, 0)
            })
            .collect()
    }

    /// Attach without region checking (builder-internal cross-region wiring).
    fn attach_raw(&mut self, v: Val, dst: NodeId, port: usize) {
        match v.kind {
            ValKind::Imm(c) => self.g.set_imm(dst, port, c),
            ValKind::Node(n, p) => self.g.connect(NodeId(n), p as usize, dst, port),
        }
    }

    fn push_region(&mut self, depth: u32, is_loop: bool, parent: usize) -> usize {
        self.regions.push(Region {
            activation: None,
            depth,
            has_inner_loop: false,
            mem_nodes: Vec::new(),
            is_loop,
            parent: Some(parent),
        });
        self.cur = self.regions.len() - 1;
        self.cur
    }

    fn pop_region(&mut self, parent: usize) {
        // Propagate "has inner loop" from loop regions to their parents.
        let r = self.cur;
        if self.regions[r].is_loop || self.regions[r].has_inner_loop {
            let had_loop = self.regions[r].has_inner_loop;
            if let Some(p) = self.regions[r].parent {
                // A branch region with loops inside still means the parent
                // contains a loop.
                if had_loop || self.regions[r].is_loop {
                    self.regions[p].has_inner_loop = true;
                }
            }
        }
        self.cur = parent;
    }
}

/// A finished kernel: dataflow graph + fixed and named parameter bindings.
#[derive(Debug, Clone)]
pub struct Kernel {
    dfg: Dfg,
    fixed: Vec<(ParamId, i64)>,
    named: HashMap<String, ParamId>,
}

impl Kernel {
    /// Build a kernel by running `f` over a fresh context, then finishing:
    /// dead-code elimination, leaf-loop marking, criticality
    /// classification, and validation.
    ///
    /// # Panics
    ///
    /// Panics if the resulting graph fails validation (a builder bug).
    pub fn build(name: &str, f: impl FnOnce(&mut Ctx)) -> Kernel {
        let mut ctx = Ctx::new(name);
        f(&mut ctx);
        // Leaf-loop marking: a memory node is in a leaf loop when its
        // nearest enclosing loop region (the region itself, or an ancestor
        // for `if` branches) contains no nested loop.
        let mut to_mark: Vec<NodeId> = Vec::new();
        for (ri, r) in ctx.regions.iter().enumerate() {
            let mut cur = Some(ri);
            let mut leaf = false;
            while let Some(i) = cur {
                if ctx.regions[i].is_loop {
                    leaf = !ctx.regions[i].has_inner_loop;
                    break;
                }
                cur = ctx.regions[i].parent;
            }
            if leaf {
                to_mark.extend_from_slice(&r.mem_nodes);
            }
        }
        for m in to_mark {
            ctx.g.meta_mut(m).in_leaf_loop = true;
        }
        let dfg = dce(&cse(&ctx.g));
        dfg.validate().unwrap_or_else(|errs| {
            panic!("kernel {name} failed validation: {errs:?}\n{dfg}");
        });
        let mut k = Kernel {
            dfg,
            fixed: ctx.fixed,
            named: ctx.named,
        };
        crate::criticality::classify(&mut k.dfg);
        k
    }

    /// The kernel's dataflow graph.
    pub fn dfg(&self) -> &Dfg {
        &self.dfg
    }

    /// Kernel name.
    pub fn name(&self) -> &str {
        self.dfg.name()
    }

    /// All parameter bindings: fixed internals plus `user` values for named
    /// params, in a form ready to feed an interpreter or engine.
    ///
    /// # Panics
    ///
    /// Panics if a named param is missing from `user`.
    pub fn bindings(&self, user: &[(&str, i64)]) -> Vec<(ParamId, i64)> {
        let mut out = self.fixed.clone();
        let map: HashMap<&str, i64> = user.iter().copied().collect();
        for (name, pid) in &self.named {
            let v = map
                .get(name.as_str())
                .unwrap_or_else(|| panic!("missing binding for param {name}"));
            out.push((*pid, *v));
        }
        out
    }

    /// The loads classified critical by [`crate::criticality`] — the
    /// nodes NUPEA promotes toward near domains, and the first rows to
    /// inspect in a trace (their fire slices carry the `critical`
    /// category in the Chrome export). Node-id order.
    pub fn critical_loads(&self) -> Vec<NodeId> {
        self.dfg
            .iter()
            .filter(|(_, n)| {
                matches!(n.op, Op::Load) && n.meta.criticality == Some(Criticality::Critical)
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// Nodes annotated [`Ctx::load_expect_critical`] that the classifier
    /// did *not* mark [`Criticality::Critical`]. An empty list means every
    /// front-end criticality annotation was vindicated; a non-empty list is
    /// an authoring error the front end should surface (the load is
    /// pipelinable and must not be pinned to the near domain).
    pub fn criticality_hint_violations(&self) -> Vec<NodeId> {
        self.dfg
            .iter()
            .filter(|(_, n)| {
                n.meta.expect_critical && n.meta.criticality != Some(Criticality::Critical)
            })
            .map(|(id, _)| id)
            .collect()
    }
}

/// Common-subexpression elimination: pure single-output ops (arithmetic,
/// comparisons, unary ops) with identical inputs compute identical token
/// streams, so duplicates can share one PE. Merging is token-safe: output
/// ports broadcast, so redirecting consumers to the surviving node leaves
/// every consumer's token count unchanged, and the duplicate (now
/// fanout-free) is dropped by the following DCE pass. Gates, memory ops,
/// params, and sinks are never merged (they carry state or effects).
///
/// Merging is capped by output fanout: a shared node becomes one physical
/// broadcast wire, and unbounded sharing creates high-fanout nets that
/// congest track-constrained fabrics. Above [`CSE_FANOUT_CAP`] consumers,
/// keeping the duplicate (the hardware analogue of register duplication)
/// routes better than sharing.
///
/// Runs to a fixpoint so chains of duplicated expressions collapse.
const CSE_FANOUT_CAP: usize = 4;

fn cse(g: &Dfg) -> Dfg {
    use crate::graph::InPort;
    use std::collections::HashMap as Map;

    // representative[i] = the node index i's value is redirected to.
    let mut repr: Vec<u32> = (0..g.len() as u32).collect();
    let mut fanout: Vec<usize> = g.node_ids().map(|id| g.outs(id).len()).collect();
    let resolve = |repr: &[u32], mut i: u32| -> u32 {
        while repr[i as usize] != i {
            i = repr[i as usize];
        }
        i
    };
    type CseKey = (String, Vec<(u8, i64, u32, u8)>);
    loop {
        let mut seen: Map<CseKey, u32> = Map::new();
        let mut changed = false;
        for (id, n) in g.iter() {
            if !n.op.is_arith() {
                continue;
            }
            // Key: op mnemonic + canonicalized inputs (through current reprs).
            let key_inputs: Vec<(u8, i64, u32, u8)> = n
                .inputs
                .iter()
                .map(|ip| match ip {
                    InPort::Imm(v) => (0u8, *v, 0, 0),
                    InPort::Wire { src, src_port } => (1, 0, resolve(&repr, src.0), *src_port),
                    InPort::Unconnected => (2, 0, 0, 0),
                })
                .collect();
            let key = (n.op.mnemonic(), key_inputs);
            let me = resolve(&repr, id.0);
            match seen.get(&key) {
                Some(&other)
                    if other != me
                        && fanout[other as usize] + fanout[me as usize] <= CSE_FANOUT_CAP =>
                {
                    fanout[other as usize] += fanout[me as usize];
                    repr[me as usize] = other;
                    changed = true;
                }
                Some(_) => {}
                None => {
                    seen.insert(key, me);
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Rebuild with redirected wires; duplicates become fanout-free and DCE
    // removes them.
    let mut out = Dfg::new(g.name());
    let mut ids = Vec::with_capacity(g.len());
    for (_, n) in g.iter() {
        let nid = out.add_node(n.op);
        *out.meta_mut(nid) = n.meta.clone();
        ids.push(nid);
    }
    for (id, n) in g.iter() {
        for (port, ip) in n.inputs.iter().enumerate() {
            match ip {
                crate::graph::InPort::Imm(v) => out.set_imm(ids[id.index()], port, *v),
                crate::graph::InPort::Wire { src, src_port } => {
                    let s = resolve(&repr, src.0);
                    out.connect(ids[s as usize], *src_port as usize, ids[id.index()], port);
                }
                crate::graph::InPort::Unconnected => {}
            }
        }
    }
    out
}

/// Dead-code elimination: keep only nodes reachable backwards from stores,
/// sinks, and params (params are kept unconditionally so `ParamId`s stay
/// valid). Dropping a dead node only removes a broadcast consumer, which
/// never unbalances the remaining graph.
fn dce(g: &Dfg) -> Dfg {
    let mut live = vec![false; g.len()];
    let mut stack: Vec<NodeId> = Vec::new();
    for (id, n) in g.iter() {
        if matches!(n.op, Op::Store | Op::Sink(_) | Op::Param(_)) {
            live[id.index()] = true;
            stack.push(id);
        }
    }
    while let Some(id) = stack.pop() {
        for ip in &g.node(id).inputs {
            if let crate::graph::InPort::Wire { src, .. } = ip {
                if !live[src.index()] {
                    live[src.index()] = true;
                    stack.push(*src);
                }
            }
        }
    }
    // Rebuild with remapped ids.
    let mut remap = vec![u32::MAX; g.len()];
    let mut out = Dfg::new(g.name());
    for (id, n) in g.iter() {
        if live[id.index()] {
            let nid = out.add_node(n.op);
            *out.meta_mut(nid) = n.meta.clone();
            remap[id.index()] = nid.0;
        }
    }
    for (id, n) in g.iter() {
        if !live[id.index()] {
            continue;
        }
        let nid = NodeId(remap[id.index()]);
        for (port, ip) in n.inputs.iter().enumerate() {
            match ip {
                crate::graph::InPort::Imm(v) => out.set_imm(nid, port, *v),
                crate::graph::InPort::Wire { src, src_port } => {
                    out.connect(NodeId(remap[src.index()]), *src_port as usize, nid, port);
                }
                crate::graph::InPort::Unconnected => {}
            }
        }
    }
    out
}
