//! The timed ordered-dataflow engine.
//!
//! Executes a placed DFG cycle-accurately (§6 of the paper's methodology):
//!
//! * Time is counted in **system cycles**; the fabric evaluates only on
//!   ticks of the PnR-chosen clock **divider** (§4.2), while the memory
//!   system and fabric-memory NoC run every system cycle — so a divided
//!   fabric sees relatively faster memory, exactly as the paper models it.
//! * Each PE input operand has a bounded token FIFO; a node fires when all
//!   required operand heads are present *and* every connected consumer FIFO
//!   has a free (unreserved) slot — credit-based backpressure.
//! * Arithmetic fires at most once per fabric cycle with one-cycle latency;
//!   control-flow gates are combinational (tokens can traverse a chain of
//!   distinct gates within one tick); loads/stores issue requests to the
//!   [`MemSys`](crate::memsys::MemSys) and deliver responses **in issue
//!   order** (ordered dataflow) when they return.
//!
//! The engine executes real data: its sink values and final memory contents
//! are differentially tested against the untimed interpreter in `nupea-ir`.

use crate::energy::{EnergyBreakdown, EnergyParams};
use crate::fault::{FaultConfig, FaultState, LinkFault, STUCK_DELAY};
use crate::memory::{MemParams, SimMemory};
use crate::memsys::{Completion, MemRequest, MemSys, MemSysStats, MemoryModel};
use crate::perturb::{Perturb, PerturbConfig};
use crate::trace::{RingRecorder, TraceBuffer, TraceConfig, TraceEvent, TraceMeta, NO_DOMAIN};
use crate::watchdog::{PortOccupancy, StallKind, StallReport, StalledNode};
use nupea_fabric::{Fabric, PeId};
use nupea_ir::graph::{Criticality, Dfg, InPort, NodeId};
use nupea_ir::op::{Op, ParamId, SteerPolarity};
use std::collections::BinaryHeap;
use std::fmt;

/// Simulator configuration.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SimConfig {
    /// Memory model (NUPEA, UPEA-n, NUMA-UPEA-n).
    pub model: MemoryModel,
    /// Memory geometry and latencies.
    pub mem: MemParams,
    /// Fabric clock divider (from PnR timing).
    pub divider: u64,
    /// Token FIFO depth per input operand.
    pub fifo_depth: usize,
    /// Maximum outstanding memory requests per load-store instruction
    /// (LS-PE request queue depth).
    pub max_outstanding: usize,
    /// Seed for the NUMA-domain assignment of LS PEs.
    pub numa_seed: u64,
    /// Hard cap on simulated system cycles (runaway guard).
    pub max_cycles: u64,
    /// Watchdog quiescence window: if this many system cycles elapse with
    /// no firing, delivery, or memory completion while the simulation is
    /// still active, the run is aborted with [`SimError::Stalled`]. Must
    /// comfortably exceed the worst memory round-trip (plus any configured
    /// perturbation jitter); `0` disables the watchdog.
    pub stall_window: u64,
    /// Latency-perturbation fuzzing (off by default; see
    /// [`PerturbConfig`]).
    pub perturb: PerturbConfig,
    /// Fault injection (off by default; see [`FaultConfig`]). When armed,
    /// exactly one concrete fault is injected into the run; a disabled
    /// config is bit-identical to a build without the fault module.
    pub fault: FaultConfig,
    /// Per-event energy weights.
    pub energy: EnergyParams,
    /// Event tracing (off by default; see [`TraceConfig`]). When enabled,
    /// retrieve the recorded events with [`Engine::take_trace`] after the
    /// run.
    pub trace: TraceConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            model: MemoryModel::Nupea,
            mem: MemParams::default(),
            divider: 2,
            fifo_depth: 8,
            max_outstanding: 8,
            numa_seed: 0xA55A,
            max_cycles: 2_000_000_000,
            stall_window: 1_000_000,
            perturb: PerturbConfig::OFF,
            fault: FaultConfig::OFF,
            energy: EnergyParams::default(),
            trace: TraceConfig::OFF,
        }
    }
}

impl SimConfig {
    /// Reject degenerate configurations before they reach the engine,
    /// where they would deadlock (`fifo_depth == 0`), never fire a memory
    /// op (`max_outstanding == 0`), or divide by zero (`divider == 0`).
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.divider == 0 {
            return Err(ConfigError::ZeroDivider);
        }
        if self.fifo_depth == 0 {
            return Err(ConfigError::ZeroFifoDepth);
        }
        if self.max_outstanding == 0 {
            return Err(ConfigError::ZeroMaxOutstanding);
        }
        self.mem.validate()
    }
}

/// A degenerate simulator or memory configuration, caught by
/// [`SimConfig::validate`] / [`MemParams::validate`] instead of panicking
/// (or being silently repaired) deep inside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `divider == 0`: the fabric clock cannot be divided by zero.
    ZeroDivider,
    /// `fifo_depth == 0`: no token could ever be delivered.
    ZeroFifoDepth,
    /// `max_outstanding == 0`: no memory op could ever issue.
    ZeroMaxOutstanding,
    /// `banks == 0`: the memory system needs at least one bank.
    ZeroBanks,
    /// `line_words == 0`: cache lines must hold at least one word.
    ZeroLineWords,
    /// `ways == 0`: the cache needs at least one way.
    ZeroWays,
    /// `mem_words == 0`: the memory must hold at least one word.
    ZeroMemWords,
    /// The fabric defines no memory domain (no load-store columns):
    /// nothing could ever be placed near memory, and every per-domain
    /// aggregate would be empty. Previously repaired silently with
    /// `num_domains().max(1)`.
    ZeroDomains,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroDivider => write!(f, "divider must be >= 1"),
            ConfigError::ZeroFifoDepth => write!(f, "fifo_depth must be >= 1"),
            ConfigError::ZeroMaxOutstanding => write!(f, "max_outstanding must be >= 1"),
            ConfigError::ZeroBanks => write!(f, "memory banks must be >= 1"),
            ConfigError::ZeroLineWords => write!(f, "cache line_words must be >= 1"),
            ConfigError::ZeroWays => write!(f, "cache ways must be >= 1"),
            ConfigError::ZeroMemWords => write!(f, "mem_words must be >= 1"),
            ConfigError::ZeroDomains => {
                write!(f, "fabric must define at least one memory domain")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Simulation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A memory access faulted (out of bounds).
    Fault {
        /// Issuing node.
        node: NodeId,
    },
    /// The cycle cap was reached.
    CycleLimit {
        /// The configured cap.
        limit: u64,
    },
    /// A param node has no bound value.
    UnboundParam(ParamId),
    /// A node tried to consume from an unconnected input port — a
    /// malformed graph/bitstream, reported structurally instead of
    /// panicking (panics would defeat the runner's panic isolation).
    UnconnectedPort {
        /// The consuming node.
        node: NodeId,
        /// The unconnected input port.
        port: u8,
    },
    /// No further progress is possible: tokens are trapped behind full
    /// FIFOs or a blocking cycle. The report names every stalled node.
    Deadlock(Box<StallReport>),
    /// Nothing progressed for [`SimConfig::stall_window`] cycles while the
    /// simulation was still active (livelock / lost-wakeup watchdog).
    Stalled {
        /// The configured quiescence window.
        window: u64,
        /// Snapshot of every stalled node at detection time.
        report: Box<StallReport>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Fault { node } => write!(f, "memory fault at {node}"),
            SimError::CycleLimit { limit } => write!(f, "cycle limit {limit} reached"),
            SimError::UnboundParam(p) => write!(f, "param {} unbound", p.0),
            SimError::UnconnectedPort { node, port } => {
                write!(f, "consume on unconnected port {port} of {node}")
            }
            SimError::Deadlock(r) => {
                write!(f, "deadlock at cycle {}: {}", r.cycle, r.summary())
            }
            SimError::Stalled { window, report } => write!(
                f,
                "no progress for {window} cycles (at cycle {}): {}",
                report.cycle,
                report.summary()
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Per-domain load-latency aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DomainLatency {
    /// Total system-cycle latency of completed loads issued from the domain.
    pub total_latency: u64,
    /// Completed loads issued from the domain.
    pub count: u64,
}

impl DomainLatency {
    /// Mean latency (0 when no loads completed).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.count as f64
        }
    }
}

/// Aggregate data-NoC traffic on one producer-PE → consumer-PE link
/// (heatmap source; only links that carried tokens are reported).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTraffic {
    /// Producer PE index.
    pub src_pe: u32,
    /// Consumer PE index.
    pub dst_pe: u32,
    /// Tokens carried over the run.
    pub tokens: u64,
    /// Manhattan hop distance of the link.
    pub hops: u16,
}

/// Results of a timed run.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RunStats {
    /// Completion time in system cycles.
    pub cycles: u64,
    /// Completion time in fabric cycles (`cycles / divider`, rounded up).
    pub fabric_cycles: u64,
    /// Clock divider used.
    pub divider: u64,
    /// Total instruction firings.
    pub firings: u64,
    /// Firings per node.
    pub firings_per_node: Vec<u64>,
    /// Firings per PE (indexed by PE index; utilization heatmap source —
    /// a PE's utilization is its firings over `fabric_cycles`).
    pub firings_per_pe: Vec<u64>,
    /// Data-NoC traffic per used producer→consumer PE link, sorted by
    /// (src, dst).
    pub link_traffic: Vec<LinkTraffic>,
    /// Values collected by each sink, in arrival order.
    pub sinks: Vec<Vec<i64>>,
    /// Memory-system statistics.
    pub mem: MemSysStats,
    /// Cache hit rate.
    pub cache_hit_rate: f64,
    /// Load latency aggregated by the issuing PE's NUPEA domain.
    pub load_latency_by_domain: Vec<DomainLatency>,
    /// Tokens left buffered at quiescence (0 for balanced kernels).
    pub residual_tokens: usize,
    /// Energy consumed, by component.
    pub energy: EnergyBreakdown,
}

impl RunStats {
    /// PEs that fired at least once.
    #[must_use]
    pub fn active_pes(&self) -> usize {
        self.firings_per_pe.iter().filter(|&&f| f > 0).count()
    }

    /// Mean utilization (firings / fabric cycles) over the PEs that fired
    /// at least once; 0 when nothing fired.
    #[must_use]
    pub fn mean_pe_utilization(&self) -> f64 {
        let active = self.active_pes();
        if active == 0 || self.fabric_cycles == 0 {
            return 0.0;
        }
        let total: u64 = self.firings_per_pe.iter().sum();
        total as f64 / (active as f64 * self.fabric_cycles as f64)
    }

    /// Heaviest data-NoC link load (tokens on the busiest link).
    #[must_use]
    pub fn peak_link_tokens(&self) -> u64 {
        self.link_traffic
            .iter()
            .map(|l| l.tokens)
            .max()
            .unwrap_or(0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GateState {
    Fresh,
    Looping,
    Holding(i64),
}

/// One output edge of the fan-out CSR, with everything the per-firing hot
/// path needs precomputed at construction: the consumer FIFO's flat index,
/// the PE→PE link index into the token heatmap, the hop distance (clamped
/// for the trace), and the NoC energy of one token on this edge.
#[derive(Debug, Clone, Copy)]
struct PortState {
    /// Ring head slot.
    head: u16,
    /// Buffered tokens.
    len: u16,
    /// In-flight tokens with a reserved slot.
    reserved: u16,
}

#[derive(Debug, Clone, Copy)]
struct FanEdge {
    /// Consumer node.
    dst: u32,
    /// Consumer input port.
    dst_port: u8,
    /// Manhattan hop distance (clamped to `u16::MAX` for the trace).
    hops: u16,
    /// Flat index of the consumer FIFO (`port_base[dst] + dst_port`).
    fifo_idx: u32,
    /// `src_pe * num_pes + dst_pe` into the link-token matrix.
    link_idx: u32,
    /// `hops * energy.noc_hop`, the per-token data-NoC energy.
    hop_energy: f64,
}

/// Where a flat input port's tokens come from (dense mirror of
/// [`InPort`], indexed by `port_base[node] + port`).
#[derive(Debug, Clone, Copy)]
enum PortSrc {
    /// Constant operand: always present, never consumed.
    Imm(i64),
    /// Wired operand fed by the producer node's FIFO slot here.
    Wire(u32),
    /// Unconnected: never fires.
    Unconnected,
}

/// A scheduled token delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Delivery {
    time: u64,
    seq: u64,
    dst: u32,
    port: u8,
    value: i64,
}

impl Ord for Delivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by (time, seq) via reversal at the call sites.
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Delivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Calendar-wheel slot count. Nearly every delivery lands within one
/// clock-divider period of its emission (plus small perturb jitter), so a
/// 256-cycle horizon covers the fast path with room to spare.
const WHEEL_SLOTS: usize = 256;

/// Pending-delivery queue: a calendar wheel for the common near-future
/// case plus a binary-heap overflow for far-future events (stuck-link
/// faults schedule `STUCK_DELAY` ≈ 1e9 cycles out; unbounded perturb
/// jitter can too).
///
/// Pop order is exactly ascending `(time, seq)`, bit-identical to the
/// binary heap this replaces: `seq` is globally monotonic at push time, so
/// FIFO order within one wheel slot *is* seq order, and slots are drained
/// in ascending time. The wheel slot of an event is its absolute time
/// modulo [`WHEEL_SLOTS`]; `floor` (the engine's current cycle, advanced
/// every main-loop iteration) guarantees all near events live in
/// `[floor, floor + WHEEL_SLOTS)`, so distinct queued times never share a
/// slot and every slot holds tokens of a single delivery time.
struct EventWheel {
    slots: Vec<std::collections::VecDeque<Delivery>>,
    /// Occupancy bitmap over `slots` (one bit per slot).
    occ: [u64; WHEEL_SLOTS / 64],
    /// Events currently in the wheel.
    near: usize,
    /// Lower bound on every queued delivery time (= current engine cycle).
    floor: u64,
    /// Earliest queued wheel-event time (`u64::MAX` when the wheel is
    /// empty). Maintained incrementally: a push takes the min, a pop that
    /// empties its slot triggers one bitmap rescan — so peeking the queue
    /// is O(1) instead of a scan per main-loop iteration.
    next_cache: u64,
    /// Far-future overflow, min-ordered by `(time, seq)`.
    far: BinaryHeap<std::cmp::Reverse<Delivery>>,
}

impl EventWheel {
    fn new() -> Self {
        EventWheel {
            slots: (0..WHEEL_SLOTS)
                .map(|_| std::collections::VecDeque::new())
                .collect(),
            occ: [0; WHEEL_SLOTS / 64],
            near: 0,
            floor: 0,
            next_cache: u64::MAX,
            far: BinaryHeap::new(),
        }
    }

    /// Advance the wheel floor to the engine's current cycle. Must be
    /// called before any push or pop at cycle `t`; all queued events are
    /// `>= t` (the main loop never jumps past a pending delivery).
    #[inline]
    fn advance(&mut self, t: u64) {
        self.floor = t;
    }

    #[inline]
    fn push(&mut self, d: Delivery) {
        debug_assert!(d.time >= self.floor, "delivery scheduled in the past");
        if d.time - self.floor < WHEEL_SLOTS as u64 {
            let s = (d.time as usize) & (WHEEL_SLOTS - 1);
            if self.slots[s].is_empty() {
                self.occ[s >> 6] |= 1 << (s & 63);
            }
            self.slots[s].push_back(d);
            self.near += 1;
            self.next_cache = self.next_cache.min(d.time);
        } else {
            self.far.push(std::cmp::Reverse(d));
        }
    }

    /// Earliest queued delivery time in the wheel, or `u64::MAX`.
    /// Bitmap rescan — only called when a pop empties its slot.
    fn scan_near(&self) -> u64 {
        if self.near == 0 {
            return u64::MAX;
        }
        // Circular scan of the occupancy bitmap from the floor slot.
        let s0 = (self.floor as usize) & (WHEEL_SLOTS - 1);
        let words = WHEEL_SLOTS / 64;
        let (base_w, base_b) = (s0 >> 6, s0 & 63);
        for i in 0..=words {
            let w = (base_w + i) % words;
            let mut bits = self.occ[w];
            if i == 0 {
                bits &= !0u64 << base_b;
            } else if i == words {
                bits &= (1u64 << base_b) - 1;
            }
            if bits != 0 {
                let slot = (w << 6) | bits.trailing_zeros() as usize;
                let dist = (slot + WHEEL_SLOTS - s0) & (WHEEL_SLOTS - 1);
                return self.floor + dist as u64;
            }
        }
        unreachable!("near > 0 but occupancy bitmap empty");
    }

    /// Earliest queued delivery time overall, or `u64::MAX` when empty.
    #[inline]
    fn next_time(&self) -> u64 {
        let far = self.far.peek().map_or(u64::MAX, |r| r.0.time);
        self.next_cache.min(far)
    }

    /// Pop the earliest `(time, seq)` delivery if it is due at `t`.
    fn pop_due(&mut self, t: u64) -> Option<Delivery> {
        let nt = self.next_cache;
        let ft = self.far.peek().map_or(u64::MAX, |r| r.0.time);
        let time = nt.min(ft);
        if time > t {
            return None;
        }
        // Same-time tie between wheel and overflow: lower seq first.
        let use_far = ft < nt
            || (ft == nt && {
                let s = (nt as usize) & (WHEEL_SLOTS - 1);
                let near_seq = self.slots[s].front().expect("occupied slot").seq;
                self.far.peek().expect("ft < MAX").0.seq < near_seq
            });
        if use_far {
            return Some(self.far.pop().expect("peeked above").0);
        }
        let s = (time as usize) & (WHEEL_SLOTS - 1);
        let d = self.slots[s].pop_front().expect("occupied slot");
        self.near -= 1;
        if self.slots[s].is_empty() {
            self.occ[s >> 6] &= !(1 << (s & 63));
            self.next_cache = self.scan_near();
        }
        Some(d)
    }
}

/// The timed simulator for one placed DFG.
pub struct Engine<'g> {
    dfg: &'g Dfg,
    fabric: &'g Fabric,
    pe_of: &'g [PeId],
    cfg: SimConfig,

    /// Flat token-FIFO arena: `fifo_depth` contiguous slots per input
    /// port, addressed by flat port index × depth. Ring arithmetic uses
    /// if-subtract (depth is rarely a power of two).
    fifo_buf: Vec<i64>,
    /// Per-port ring state — head, occupancy, and in-flight reservation
    /// count packed into one 6-byte record so the hot FIFO paths touch a
    /// single array element (one bounds check, one cache line) instead of
    /// three parallel arrays.
    ports: Vec<PortState>,
    /// Flat index base per node into the port arrays (`len() + 1` entries;
    /// the last is the total port count).
    port_base: Vec<u32>,
    /// Per-port operand source (dense mirror of the graph's `InPort`s).
    port_src: Vec<PortSrc>,
    /// Per-node opcode (dense mirror; avoids graph chasing per firing).
    ops: Vec<Op>,
    /// Fan-out CSR: node `n`'s port-`p` edges are
    /// `fan[fan_start[out_base[n] + p] .. fan_start[out_base[n] + p + 1]]`.
    /// `out_base` has `len() + 1` entries; a node with `P` used output
    /// ports owns `P + 1` consecutive boundaries in `fan_start`.
    out_base: Vec<u32>,
    fan_start: Vec<u32>,
    fan: Vec<FanEdge>,

    state: Vec<GateState>,
    param_emitted: Vec<bool>,
    /// Param bindings, dense by `ParamId` (ids are allocated 0..n).
    bindings: Vec<Option<i64>>,
    last_fired_tick: Vec<u64>,

    events: EventWheel,
    event_seq: u64,
    dirty_now: Vec<u32>,
    dirty_next: Vec<u32>,
    in_now: Vec<bool>,
    in_next: Vec<bool>,

    /// Outstanding-memory rings, `max_outstanding` slots per node at base
    /// `node * max_outstanding`: issue sequence numbers in issue order,
    /// with the matching completion parked in `mo_done` until it reaches
    /// the head (ordered dataflow drains strictly in issue order).
    mo_seq: Vec<u64>,
    mo_done: Vec<Option<Completion>>,
    mo_head: Vec<u32>,
    mo_len: Vec<u32>,
    /// Last scheduled response-delivery time per node: ordered dataflow
    /// requires responses to leave the PE in issue order even when a later,
    /// faster request (cache hit / idle bank) completes first.
    last_resp_time: Vec<u64>,
    next_seq: u64,

    sinks: Vec<Vec<i64>>,
    firings: Vec<u64>,
    total_firings: u64,
    load_lat: Vec<DomainLatency>,

    /// Event recorder (None when tracing is disabled: every record site is
    /// a single branch on the discriminant — zero cost when off).
    tracer: Option<RingRecorder>,
    /// Always-on per-PE firing counts (utilization heatmap).
    pe_firings: Vec<u64>,
    /// Always-on per-link token counts, flat `src_pe * num_pes + dst_pe`
    /// (O(1) increment per token; sparsified into `RunStats` at run end).
    link_tokens: Vec<u64>,
    /// Per-fan-edge token counts, parallel to `fan`. The hot emit paths
    /// bump these (contiguous per node, cache-resident) instead of the
    /// 144x144 `link_tokens` matrix, whose scattered per-token increments
    /// showed up as a measurable cache cost; folded into `link_tokens` at
    /// run end, which is a sum reassociation over exact u64 counters.
    edge_tokens: Vec<u64>,

    energy: EnergyBreakdown,

    /// Seeded latency jitter (None when fuzzing is off).
    perturb: Option<Perturb>,
    /// Per-FIFO monotonic clamp on perturbed delivery times: jitter must
    /// never reorder tokens within one FIFO.
    last_delivery: Vec<u64>,
    /// Armed fault (None when injection is off: every site is a single
    /// branch on the discriminant — zero cost when off).
    fault: Option<FaultState>,

    /// Cached [`MemSys::next_event_at`] result: the earliest cycle at
    /// which stepping the memory system can do anything beyond busy-bank
    /// wait accounting. Lowered to `t + 1` on every issue; recomputed
    /// after every real step.
    mem_next: u64,
    /// Last cycle the memory system was actually stepped; the quiescent
    /// stretch since then is accounted via [`MemSys::skip_to`] right
    /// before the next real step.
    mem_last: u64,

    memsys: MemSys,
    /// Reusable completion-drain buffer (swapped with the memory system's
    /// internal one each batch, so neither side allocates in steady state).
    comp_scratch: Vec<Completion>,
}

impl<'g> Engine<'g> {
    /// Create an engine for a placed graph.
    pub fn new(dfg: &'g Dfg, fabric: &'g Fabric, pe_of: &'g [PeId], cfg: SimConfig) -> Self {
        assert_eq!(pe_of.len(), dfg.len(), "placement must cover every node");
        debug_assert!(
            cfg.validate().is_ok(),
            "degenerate SimConfig (call SimConfig::validate): {:?}",
            cfg.validate()
        );
        let mut port_base = Vec::with_capacity(dfg.len() + 1);
        let mut port_src = Vec::new();
        let mut nports = 0u32;
        for (_, n) in dfg.iter() {
            port_base.push(nports);
            nports += n.inputs.len() as u32;
            for inp in &n.inputs {
                port_src.push(match *inp {
                    InPort::Imm(v) => PortSrc::Imm(v),
                    InPort::Wire { src, .. } => PortSrc::Wire(src.0),
                    InPort::Unconnected => PortSrc::Unconnected,
                });
            }
        }
        port_base.push(nports);
        // Fan-out CSR with per-edge hop distance, link index, and energy
        // precomputed: the per-firing hot path never touches the graph or
        // the fabric's distance function again. Edge order within each
        // (node, port) range matches the graph's `outs` order, which the
        // event sequence numbering depends on.
        let num_pes = fabric.num_pes();
        let mut out_base = Vec::with_capacity(dfg.len() + 1);
        let mut fan_start = Vec::new();
        let mut fan: Vec<FanEdge> = Vec::new();
        for (id, _) in dfg.iter() {
            out_base.push(fan_start.len() as u32);
            let outs = dfg.outs(id);
            let used_ports = outs.iter().map(|e| e.src_port as usize + 1).max();
            let src_pe = pe_of[id.index()];
            for p in 0..used_ports.unwrap_or(0) {
                fan_start.push(fan.len() as u32);
                for e in outs.iter().filter(|e| e.src_port as usize == p) {
                    let dst_pe = pe_of[e.dst.index()];
                    let hops = fabric.dist(src_pe, dst_pe);
                    fan.push(FanEdge {
                        dst: e.dst.0,
                        dst_port: e.dst_port,
                        hops: hops.min(u32::from(u16::MAX)) as u16,
                        fifo_idx: port_base[e.dst.index()] + u32::from(e.dst_port),
                        link_idx: (src_pe.index() * num_pes + dst_pe.index()) as u32,
                        hop_energy: f64::from(hops) * cfg.energy.noc_hop,
                    });
                }
            }
            fan_start.push(fan.len() as u32);
        }
        out_base.push(fan_start.len() as u32);
        let fan_len = fan.len();
        let memsys = MemSys::new(fabric, cfg.model, cfg.mem, cfg.divider, cfg.numa_seed);
        // A zero-domain fabric is rejected by `SystemConfig::validate`
        // (ConfigError::ZeroDomains) instead of being silently repaired
        // here; the per-domain aggregates stay honestly empty.
        let num_domains = usize::from(fabric.num_domains());
        Engine {
            dfg,
            fabric,
            pe_of,
            fifo_buf: vec![0; nports as usize * cfg.fifo_depth],
            ports: vec![
                PortState {
                    head: 0,
                    len: 0,
                    reserved: 0
                };
                nports as usize
            ],
            port_base,
            port_src,
            ops: dfg.iter().map(|(_, n)| n.op).collect(),
            out_base,
            fan_start,
            fan,
            state: vec![GateState::Fresh; dfg.len()],
            param_emitted: vec![false; dfg.len()],
            bindings: Vec::new(),
            last_fired_tick: vec![u64::MAX; dfg.len()],
            events: EventWheel::new(),
            event_seq: 0,
            dirty_now: Vec::new(),
            dirty_next: Vec::new(),
            in_now: vec![false; dfg.len()],
            in_next: vec![false; dfg.len()],
            mo_seq: vec![0; dfg.len() * cfg.max_outstanding],
            mo_done: vec![None; dfg.len() * cfg.max_outstanding],
            mo_head: vec![0; dfg.len()],
            mo_len: vec![0; dfg.len()],
            last_resp_time: vec![0; dfg.len()],
            next_seq: 0,
            sinks: vec![Vec::new(); dfg.sinks().len()],
            firings: vec![0; dfg.len()],
            total_firings: 0,
            load_lat: vec![DomainLatency::default(); num_domains],
            tracer: cfg
                .trace
                .enabled
                .then(|| RingRecorder::new(cfg.trace.capacity)),
            pe_firings: vec![0; fabric.num_pes()],
            link_tokens: vec![0; fabric.num_pes() * fabric.num_pes()],
            edge_tokens: vec![0; fan_len],
            energy: EnergyBreakdown::default(),
            perturb: Perturb::from_config(cfg.perturb),
            last_delivery: vec![0; nports as usize],
            fault: FaultState::from_config(&cfg.fault),
            memsys,
            comp_scratch: Vec::new(),
            mem_next: 0,
            mem_last: 0,
            cfg,
        }
    }

    /// Take the recorded trace (None when tracing was disabled or already
    /// taken). Call after [`Engine::run`]; the returned buffer carries
    /// node/PE/domain/criticality metadata so it can be exported with
    /// [`TraceBuffer::to_chrome_json`] and opened in `ui.perfetto.dev`.
    pub fn take_trace(&mut self) -> Option<TraceBuffer> {
        let rec = self.tracer.take()?;
        let meta = TraceMeta {
            name: format!("{} on {}", self.dfg.name(), self.cfg.model),
            divider: self.cfg.divider,
            node_op: self
                .dfg
                .iter()
                .map(|(_, n)| format!("{:?}", n.op))
                .collect(),
            node_pe: self.pe_of.iter().map(|pe| pe.0).collect(),
            node_domain: self
                .pe_of
                .iter()
                .map(|&pe| self.fabric.domain(pe).map_or(NO_DOMAIN, |d| d.0))
                .collect(),
            node_critical: self
                .dfg
                .iter()
                .map(|(_, n)| n.meta.criticality == Some(Criticality::Critical))
                .collect(),
            num_domains: self.fabric.num_domains(),
        };
        Some(rec.into_buffer(meta))
    }

    /// Bind a param value.
    pub fn bind(&mut self, param: ParamId, value: i64) -> &mut Self {
        let i = param.0 as usize;
        if i >= self.bindings.len() {
            self.bindings.resize(i + 1, None);
        }
        self.bindings[i] = Some(value);
        self
    }

    #[inline]
    fn fifo_idx(&self, node: usize, port: usize) -> usize {
        (self.port_base[node] + port as u32) as usize
    }

    #[inline]
    fn fifo_front(&self, idx: usize) -> Option<i64> {
        let p = self.ports[idx];
        if p.len == 0 {
            None
        } else {
            Some(self.fifo_buf[idx * self.cfg.fifo_depth + usize::from(p.head)])
        }
    }

    #[inline]
    fn fifo_push_back(&mut self, idx: usize, v: i64) {
        let depth = self.cfg.fifo_depth as u32;
        let p = self.ports[idx];
        debug_assert!(u32::from(p.len) < depth, "FIFO overflow past reservation");
        let mut pos = u32::from(p.head) + u32::from(p.len);
        if pos >= depth {
            pos -= depth;
        }
        self.fifo_buf[idx * self.cfg.fifo_depth + pos as usize] = v;
        self.ports[idx].len = p.len + 1;
    }

    #[inline]
    fn fifo_pop_front(&mut self, idx: usize) -> i64 {
        let p = self.ports[idx];
        debug_assert!(p.len > 0, "consume without token");
        let v = self.fifo_buf[idx * self.cfg.fifo_depth + usize::from(p.head)];
        let mut nh = u32::from(p.head) + 1;
        if nh >= self.cfg.fifo_depth as u32 {
            nh = 0;
        }
        self.ports[idx].head = nh as u16;
        self.ports[idx].len = p.len - 1;
        v
    }

    /// Fan-out edges of (`node`, output `port`) as a range into `fan`
    /// (empty for ports beyond the node's used output ports).
    #[inline]
    fn fan_range(&self, node: usize, port: usize) -> std::ops::Range<usize> {
        let b = self.out_base[node] as usize;
        let nb = self.out_base[node + 1] as usize;
        if port + 1 >= nb - b {
            return 0..0;
        }
        self.fan_start[b + port] as usize..self.fan_start[b + port + 1] as usize
    }

    #[inline]
    fn peek(&self, node: usize, port: usize) -> Option<i64> {
        self.peek_idx(self.fifo_idx(node, port))
    }

    #[inline]
    fn peek_idx(&self, idx: usize) -> Option<i64> {
        match self.port_src[idx] {
            PortSrc::Imm(v) => Some(v),
            PortSrc::Wire(_) => self.fifo_front(idx),
            PortSrc::Unconnected => None,
        }
    }

    /// [`Engine::consume`] for a port whose value was already peeked (so
    /// the `Unconnected` error path is unreachable and the token value
    /// need not be re-read). Takes the precomputed FIFO index so the hot
    /// `try_fire` arms resolve `port_base` once per node.
    #[inline]
    fn consume_peeked(&mut self, idx: usize, node: usize, port: usize, tick: u64) {
        if let PortSrc::Wire(src) = self.port_src[idx] {
            // Same conditional producer wake as `consume` — see there.
            let full = {
                let p = self.ports[idx];
                u32::from(p.len) + u32::from(p.reserved) >= self.cfg.fifo_depth as u32
            };
            self.fifo_pop_front(idx);
            if full || self.fault.is_some() {
                self.mark_dirty(src as usize, tick);
            }
            if let Some(tr) = self.tracer.as_mut() {
                tr.record(
                    tick * self.cfg.divider,
                    TraceEvent::FifoPop {
                        node: node as u32,
                        port: port as u8,
                        occupancy: self.ports[idx].len.min(u16::from(u8::MAX)) as u8,
                    },
                );
            }
        }
    }

    /// Checked consume. The fire arms all peek before consuming and use
    /// [`Engine::consume_peeked`]; this full-checked form is retained as
    /// the defense-in-depth path for malformed graphs (exercised by the
    /// `unconnected_consume_is_a_typed_error_not_a_panic` unit test).
    #[cfg_attr(not(test), allow(dead_code))]
    #[inline]
    fn consume(&mut self, node: usize, port: usize, tick: u64) -> Result<i64, SimError> {
        let idx = self.fifo_idx(node, port);
        match self.port_src[idx] {
            PortSrc::Imm(v) => Ok(v),
            PortSrc::Wire(src) => {
                // Space freed: the producer may be stalled on backpressure —
                // but only a pop from a *full* FIFO (counting in-flight
                // reservations) can flip a producer's `space_on` from false
                // to true, so non-full pops skip the wake. A spuriously
                // woken node fails `try_fire` with zero side effects, so
                // the successful-firing sequence — and with it every
                // observable stat — is unchanged; this just prunes dead
                // dirty-list work (~60% of all wakes). Fault injection is
                // the one exception: the link-drop path releases a
                // reservation without a wake and relies on later pops to
                // re-examine the producer, so keep the unconditional wake
                // whenever faults are armed.
                let p = self.ports[idx];
                let full = u32::from(p.len) + u32::from(p.reserved) >= self.cfg.fifo_depth as u32;
                let v = self.fifo_pop_front(idx);
                if full || self.fault.is_some() {
                    self.mark_dirty(src as usize, tick);
                }
                if let Some(tr) = self.tracer.as_mut() {
                    tr.record(
                        tick * self.cfg.divider,
                        TraceEvent::FifoPop {
                            node: node as u32,
                            port: port as u8,
                            occupancy: self.ports[idx].len.min(u16::from(u8::MAX)) as u8,
                        },
                    );
                }
                Ok(v)
            }
            // A malformed graph/bitstream: every `try_fire` arm peeks its
            // operands first, so a well-formed graph never reaches this —
            // but a graph wired with a required port left unconnected must
            // surface as a structured error, not a panic.
            PortSrc::Unconnected => Err(SimError::UnconnectedPort {
                node: NodeId(node as u32),
                port: port as u8,
            }),
        }
    }

    #[inline]
    fn order_wired(&self, node: usize, port: usize) -> bool {
        matches!(self.port_src[self.fifo_idx(node, port)], PortSrc::Wire(_))
    }

    /// True if every consumer FIFO of `node`'s output `port` can take one
    /// more (unreserved) token.
    fn space_on(&self, node: usize, port: usize) -> bool {
        for i in self.fan_range(node, port) {
            let idx = self.fan[i].fifo_idx as usize;
            let p = self.ports[idx];
            if usize::from(p.len) + usize::from(p.reserved) >= self.cfg.fifo_depth {
                return false;
            }
        }
        true
    }

    /// Reserve one slot in every consumer FIFO of (`node`, `port`).
    fn reserve(&mut self, node: usize, port: usize) {
        for i in self.fan_range(node, port) {
            self.ports[self.fan[i].fifo_idx as usize].reserved += 1;
        }
    }

    /// Schedule deliveries of `value` from (`node`, `port`) at `time`
    /// (consumer slots must already be reserved).
    fn schedule_emit(&mut self, node: usize, port: usize, value: i64, time: u64) {
        self.emit_scheduled::<false>(node, port, value, time);
    }

    /// [`Engine::reserve`] + [`Engine::schedule_emit`] fused into one fan
    /// walk — the common fire-time pair, saving a second edge pass. The
    /// per-edge interleaving is unobservable: nothing in the walk reads
    /// `reserved` (the link-drop release acts on the same edge's own
    /// reservation), and RNG draw order per edge is unchanged.
    fn reserve_emit(&mut self, node: usize, port: usize, value: i64, time: u64) {
        self.emit_scheduled::<true>(node, port, value, time);
    }

    fn emit_scheduled<const RESERVE: bool>(
        &mut self,
        node: usize,
        port: usize,
        value: i64,
        time: u64,
    ) {
        for i in self.fan_range(node, port) {
            let e = self.fan[i];
            if RESERVE {
                self.ports[e.fifo_idx as usize].reserved += 1;
            }
            self.event_seq += 1;
            self.energy.noc += e.hop_energy;
            self.edge_tokens[i] += 1;
            if let Some(tr) = self.tracer.as_mut() {
                tr.record(
                    time,
                    TraceEvent::NocSend {
                        src: node as u32,
                        dst: e.dst,
                        hops: e.hops,
                    },
                );
            }
            let mut value = value;
            let mut at = time;
            if let Some(fs) = self.fault.as_mut() {
                if let Some(xor) = fs.corrupt_token() {
                    // Single-event upset: flip payload bits once, in flight.
                    value ^= xor as i64;
                }
                match fs.link_fault(self.pe_of[node].0, self.pe_of[e.dst as usize].0, time) {
                    Some(LinkFault::Drop) => {
                        // The token left the producer (hop charged above)
                        // but never arrives; release the consumer's slot so
                        // the loss is silent at the link level and surfaces
                        // only as starvation downstream.
                        let idx = e.fifo_idx as usize;
                        debug_assert!(self.ports[idx].reserved > 0, "drop without reservation");
                        self.ports[idx].reserved -= 1;
                        continue;
                    }
                    Some(LinkFault::Stuck) => at += STUCK_DELAY,
                    None => {}
                }
            }
            if let Some(p) = self.perturb.as_mut() {
                // Fuzzing: jitter the NoC delivery, clamped so tokens
                // within one FIFO are never reordered.
                let idx = e.fifo_idx as usize;
                at = (at + p.noc_jitter()).max(self.last_delivery[idx]);
                self.last_delivery[idx] = at;
            }
            self.events.push(Delivery {
                time: at,
                seq: self.event_seq,
                dst: e.dst,
                port: e.dst_port,
                value,
            });
        }
    }

    /// Immediately push `value` into consumer FIFOs (combinational CF emit;
    /// space must have been checked).
    fn emit_now(&mut self, node: usize, port: usize, value: i64, tick: u64) {
        let ts = tick * self.cfg.divider;
        for i in self.fan_range(node, port) {
            let e = self.fan[i];
            self.energy.noc += e.hop_energy;
            self.edge_tokens[i] += 1;
            if let Some(tr) = self.tracer.as_mut() {
                tr.record(
                    ts,
                    TraceEvent::NocSend {
                        src: node as u32,
                        dst: e.dst,
                        hops: e.hops,
                    },
                );
            }
            let mut value = value;
            if let Some(fs) = self.fault.as_mut() {
                // Combinational forwards still move a token on the NoC, so
                // they count toward (and can be hit by) the nth-token
                // corruption — the counter tracks link-traffic totals.
                if let Some(xor) = fs.corrupt_token() {
                    value ^= xor as i64;
                }
            }
            let idx = e.fifo_idx as usize;
            self.fifo_push_back(idx, value);
            if let Some(tr) = self.tracer.as_mut() {
                tr.record(
                    ts,
                    TraceEvent::FifoPush {
                        node: e.dst,
                        port: e.dst_port,
                        occupancy: self.ports[idx].len.min(u16::from(u8::MAX)) as u8,
                    },
                );
            }
            self.mark_dirty(e.dst as usize, tick);
        }
    }

    fn mark_dirty(&mut self, node: usize, tick: u64) {
        if self.last_fired_tick[node] == tick {
            if !self.in_next[node] {
                self.in_next[node] = true;
                self.dirty_next.push(node as u32);
            }
        } else if !self.in_now[node] {
            self.in_now[node] = true;
            self.dirty_now.push(node as u32);
        }
    }

    fn mark_dirty_next(&mut self, node: usize) {
        if !self.in_next[node] {
            self.in_next[node] = true;
            self.dirty_next.push(node as u32);
        }
    }

    /// Run to quiescence.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on memory faults, unbound params, or when the
    /// cycle cap is hit.
    pub fn run(&mut self, mem: &mut SimMemory) -> Result<RunStats, SimError> {
        for (pid, _) in self.dfg.params() {
            if self
                .bindings
                .get(pid.0 as usize)
                .copied()
                .flatten()
                .is_none()
            {
                return Err(SimError::UnboundParam(*pid));
            }
        }
        // Seed params as deliveries at t=0.
        for n in 0..self.ops.len() {
            if let Op::Param(p) = self.ops[n] {
                if self
                    .fault
                    .as_ref()
                    .is_some_and(|fs| fs.pe_dead(self.pe_of[n].0, 0))
                {
                    // A PE dead from reset never emits its param.
                    continue;
                }
                let v = self.bindings[p.0 as usize].expect("params checked above");
                self.param_emitted[n] = true;
                self.firings[n] += 1;
                self.total_firings += 1;
                self.pe_firings[self.pe_of[n].index()] += 1;
                if let Some(tr) = self.tracer.as_mut() {
                    tr.record(0, TraceEvent::Fire { node: n as u32 });
                }
                self.reserve_emit(n, 0, v, 0);
            }
        }

        // `SimConfig::validate` rejects divider == 0 up front; the engine
        // no longer silently repairs it.
        debug_assert!(self.cfg.divider >= 1, "divider must be >= 1 (validate)");
        let divider = self.cfg.divider;
        let mut t: u64 = 0;
        let mut last_time: u64 = 0;
        // Last cycle on which anything global happened: a firing, a token
        // delivery, or a memory completion. Drives the stall watchdog.
        let mut last_progress: u64 = 0;
        loop {
            if t > self.cfg.max_cycles {
                return Err(SimError::CycleLimit {
                    limit: self.cfg.max_cycles,
                });
            }
            // 1. Deliveries due now.
            let tick = t / divider;
            self.events.advance(t);
            while let Some(d) = self.events.pop_due(t) {
                let idx = self.fifo_idx(d.dst as usize, d.port as usize);
                debug_assert!(self.ports[idx].reserved > 0, "delivery without reservation");
                self.ports[idx].reserved -= 1;
                self.fifo_push_back(idx, d.value);
                if let Some(tr) = self.tracer.as_mut() {
                    tr.record(
                        t,
                        TraceEvent::FifoPush {
                            node: d.dst,
                            port: d.port,
                            occupancy: self.ports[idx].len.min(u16::from(u8::MAX)) as u8,
                        },
                    );
                }
                // Deliveries precede this tick's evaluation, so the consumer
                // can still fire this tick.
                self.mark_dirty(d.dst as usize, tick);
                last_time = last_time.max(t);
                last_progress = t;
            }
            // 2. Fabric tick (`t` is a tick boundary iff the division above
            // was exact — one division per iteration, not three).
            if t == tick * divider {
                let fired_before = self.total_firings;
                self.fabric_tick(t, tick)?;
                last_time = last_time.max(t);
                if self.total_firings > fired_before {
                    last_progress = t;
                }
            }
            // 3. Memory system — stepped lazily. A step at a cycle before
            // the cached next-event time does nothing but busy-bank wait
            // accounting, which `skip_to` reproduces in bulk, so quiet
            // cycles (whether visited for fabric work or jumped entirely)
            // skip the five-stage pipeline walk altogether.
            if self.memsys.busy() && t >= self.mem_next {
                self.memsys.skip_to(self.mem_last, t);
                self.memsys.step(t, mem);
                self.mem_last = t;
                self.mem_next = self.memsys.next_event_at(t);
                if self.process_completions(t, divider)? {
                    last_progress = t;
                }
            }
            // Watchdog: the simulation is still active but nothing has
            // fired, been delivered, or completed for a full window —
            // diagnose the livelock instead of spinning to `max_cycles`.
            if self.cfg.stall_window > 0 && t.saturating_sub(last_progress) > self.cfg.stall_window
            {
                // Flush deferred wait accounting so the report's memory
                // stats match an eagerly-stepped run.
                self.memsys.skip_to(self.mem_last, t + 1);
                self.mem_last = t;
                let report = Box::new(self.stall_report(t));
                self.record_stall(t, &report);
                return Err(SimError::Stalled {
                    window: self.cfg.stall_window,
                    report,
                });
            }
            // 4. Advance. A busy memory system no longer forces `t + 1`
            // single-stepping: jump straight to its next head-ready/bank-
            // free cycle, clamped so the watchdog still observes exactly
            // `last_progress + stall_window + 1` and the cycle cap exactly
            // `max_cycles + 1` (both provably > `t` here: the watchdog
            // check above passed and the loop-top cap check passed).
            let mut next = u64::MAX;
            if self.memsys.busy() {
                // `mem_next` is exact here: a step this cycle would have
                // recomputed it, and issues since then lowered it to at
                // most `t + 1`.
                next = self.mem_next;
                if self.cfg.stall_window > 0 {
                    next = next.min(last_progress + self.cfg.stall_window + 1);
                }
                next = next.min(self.cfg.max_cycles.saturating_add(1));
            }
            next = next.min(self.events.next_time());
            if !self.dirty_now.is_empty() || !self.dirty_next.is_empty() {
                next = next.min((tick + 1) * divider);
            }
            if next == u64::MAX {
                break;
            }
            debug_assert!(next > t, "time must advance");
            t = next;
        }

        // Quiescence. If tokens are trapped behind full consumer FIFOs or
        // a blocking cycle, no future event can ever free them: that is a
        // deadlock, not a completed run. Acyclic waiting-operand residue
        // (an unbalanced kernel) stays a normal completion and is reported
        // via `residual_tokens`.
        let residual_tokens: usize = self.ports.iter().map(|p| usize::from(p.len)).sum();
        if residual_tokens > 0 {
            let report = self.stall_report(t);
            if report.is_deadlock() {
                self.record_stall(t, &report);
                return Err(SimError::Deadlock(Box::new(report)));
            }
        }

        self.memsys.sync_cache_stats();
        let ep = self.cfg.energy;
        self.energy.fmnoc = self.memsys.stats.arbiter_forwards as f64 * ep.fmnoc_arbiter;
        self.energy.memory = self.memsys.stats.cache_hits as f64 * ep.cache_hit
            + self.memsys.stats.cache_misses as f64 * (ep.cache_hit + ep.mem_access);
        // Fold the per-edge counters into the per-link matrix (edges of a
        // PE pair may share a link; u64 sums are exact, so totals match
        // per-token increments bit for bit), then sparsify it.
        for (i, e) in self.fan.iter().enumerate() {
            self.link_tokens[e.link_idx as usize] += self.edge_tokens[i];
        }
        self.edge_tokens.fill(0);
        // Sparsify the flat link-token matrix into the heatmap list.
        let num_pes = self.pe_firings.len();
        let link_traffic: Vec<LinkTraffic> = self
            .link_tokens
            .iter()
            .enumerate()
            .filter(|&(_, &tokens)| tokens > 0)
            .map(|(i, &tokens)| {
                let (src, dst) = ((i / num_pes) as u32, (i % num_pes) as u32);
                LinkTraffic {
                    src_pe: src,
                    dst_pe: dst,
                    tokens,
                    hops: self
                        .fabric
                        .dist(PeId(src), PeId(dst))
                        .min(u32::from(u16::MAX)) as u16,
                }
            })
            .collect();
        Ok(RunStats {
            cycles: last_time,
            fabric_cycles: last_time.div_ceil(divider),
            divider,
            firings: self.total_firings,
            firings_per_node: self.firings.clone(),
            firings_per_pe: self.pe_firings.clone(),
            link_traffic,
            sinks: self.sinks.clone(),
            mem: self.memsys.stats,
            cache_hit_rate: self.memsys.cache().hit_rate(),
            load_latency_by_domain: self.load_lat.clone(),
            residual_tokens,
            energy: self.energy,
        })
    }

    fn fabric_tick(&mut self, t: u64, tick: u64) -> Result<(), SimError> {
        // Wake deferred nodes. Drained in place (the loop body never pushes
        // to `dirty_next`; re-deferrals only happen in the `dirty_now` loop
        // below, after the clear) so the buffer's capacity is reused
        // instead of being freed and re-grown every tick.
        for i in 0..self.dirty_next.len() {
            let n = self.dirty_next[i];
            self.in_next[n as usize] = false;
            if !self.in_now[n as usize] {
                self.in_now[n as usize] = true;
                self.dirty_now.push(n);
            }
        }
        self.dirty_next.clear();
        while let Some(n) = self.dirty_now.pop() {
            let n = n as usize;
            self.in_now[n] = false;
            if self.last_fired_tick[n] == tick {
                self.mark_dirty_next(n);
                continue;
            }
            if self
                .fault
                .as_ref()
                .is_some_and(|fs| fs.pe_dead(self.pe_of[n].0, t))
            {
                // Fail-stop: a dead PE never fires again. Tokens already in
                // flight (and outstanding memory responses) still drain —
                // the failure boundary is the issue point.
                continue;
            }
            if self.try_fire(n, t, tick)? {
                self.last_fired_tick[n] = tick;
                self.firings[n] += 1;
                self.total_firings += 1;
                self.pe_firings[self.pe_of[n].index()] += 1;
                if let Some(tr) = self.tracer.as_mut() {
                    tr.record(t, TraceEvent::Fire { node: n as u32 });
                }
                let op = self.ops[n];
                if op.is_arith() {
                    self.energy.alu += self.cfg.energy.alu_op;
                } else if op.is_control() {
                    self.energy.control += self.cfg.energy.control_op;
                } else if op.is_memory() {
                    self.energy.mem_issue += self.cfg.energy.mem_issue;
                }
                // More queued work? Retry next tick.
                if self.has_pending_input(n) {
                    self.mark_dirty_next(n);
                }
            }
        }
        Ok(())
    }

    /// Rough check whether a node has any buffered token left (cheap wake
    /// heuristic; a spurious wake just fails `try_fire` once).
    fn has_pending_input(&self, node: usize) -> bool {
        let s = self.port_base[node] as usize;
        let e = self.port_base[node + 1] as usize;
        self.ports[s..e].iter().any(|p| p.len > 0)
    }

    /// Drain memory completions and schedule their response deliveries.
    /// Returns whether any completion was drained (progress, for the
    /// watchdog).
    fn process_completions(&mut self, t: u64, divider: u64) -> Result<bool, SimError> {
        let mut completions = std::mem::take(&mut self.comp_scratch);
        self.memsys.drain_completions_into(&mut completions);
        let progress = !completions.is_empty();
        let cap = self.cfg.max_outstanding;
        for &c in &completions {
            if c.fault {
                return Err(SimError::Fault {
                    node: NodeId(c.node),
                });
            }
            let node = c.node as usize;
            let is_store = matches!(self.ops[node], Op::Store);
            let domain = self.fabric.domain(self.pe_of[node]);
            // Domain-bucketed load latency.
            if !is_store {
                if let Some(d) = domain {
                    let slot = &mut self.load_lat[usize::from(d.0)];
                    slot.total_latency += c.latency;
                    slot.count += 1;
                }
            }
            if let Some(tr) = self.tracer.as_mut() {
                // Back-annotated lifecycle: the bank-service event uses the
                // bank's own timestamp, the delivery uses the completion
                // time. The delivery event carries the same (domain,
                // latency) pair fed into `load_latency_by_domain` above, so
                // trace-side aggregation reproduces RunStats exactly.
                tr.record(
                    c.bank_at,
                    TraceEvent::MemBank {
                        node: c.node,
                        seq: c.seq,
                        bank: c.bank,
                        hit: c.hit,
                    },
                );
                tr.record(
                    c.time,
                    TraceEvent::MemDeliver {
                        node: c.node,
                        seq: c.seq,
                        is_store,
                        domain: domain.map_or(NO_DOMAIN, |d| d.0),
                        resp_hops: c.resp_hops,
                        latency: c.latency,
                    },
                );
            }
            // Park the completion in its issue-order ring slot. Sequence
            // numbers are globally unique, so the scan over the live
            // window cannot alias a stale slot.
            let ring = node * cap;
            let mut found = false;
            for i in 0..self.mo_len[node] as usize {
                let mut pos = self.mo_head[node] as usize + i;
                if pos >= cap {
                    pos -= cap;
                }
                if self.mo_seq[ring + pos] == c.seq {
                    self.mo_done[ring + pos] = Some(c);
                    found = true;
                    break;
                }
            }
            debug_assert!(found, "completion for unknown sequence number");
            // The freed outstanding slot may unblock the node's next
            // request even if no token arrives to wake it.
            self.mark_dirty_next(node);
            // Deliver in issue order.
            while self.mo_len[node] > 0 {
                let head = self.mo_head[node] as usize;
                let Some(done) = self.mo_done[ring + head].take() else {
                    break;
                };
                let mut nh = head + 1;
                if nh >= cap {
                    nh = 0;
                }
                self.mo_head[node] = nh as u32;
                self.mo_len[node] -= 1;
                // Fuzzing: jitter the completion before the issue-order
                // clamp below, so perturbed responses still leave the PE
                // in issue order.
                let jitter = self.perturb.as_mut().map_or(0, Perturb::mem_jitter);
                // Align delivery to the next fabric tick strictly after now,
                // never earlier than a previously scheduled response.
                let base = (done.time + jitter)
                    .max(t + 1)
                    .max(self.last_resp_time[node]);
                let tick_time = base.div_ceil(divider) * divider;
                self.last_resp_time[node] = tick_time;
                match self.ops[node] {
                    Op::Load => {
                        self.schedule_emit(node, Op::OUT_VALUE, done.value, tick_time);
                        self.schedule_emit(node, Op::LOAD_OUT_ORDER, 0, tick_time);
                    }
                    Op::Store => {
                        self.schedule_emit(node, 0, 0, tick_time);
                    }
                    _ => unreachable!("completion for non-memory node"),
                }
            }
        }
        completions.clear();
        self.comp_scratch = completions;
        Ok(progress)
    }

    /// Attempt one firing at fabric time `t` (tick index `tick`).
    fn try_fire(&mut self, n: usize, t: u64, tick: u64) -> Result<bool, SimError> {
        match self.ops[n] {
            Op::Sink(s) => {
                let i0 = self.fifo_idx(n, 0);
                let Some(v) = self.peek_idx(i0) else {
                    return Ok(false);
                };
                self.consume_peeked(i0, n, 0, tick);
                self.sinks[s.0 as usize].push(v);
                Ok(true)
            }
            Op::BinOp(k) => {
                let i0 = self.fifo_idx(n, 0);
                let Some(a) = self.peek_idx(i0) else {
                    return Ok(false);
                };
                let Some(b) = self.peek_idx(i0 + 1) else {
                    return Ok(false);
                };
                if !self.space_on(n, 0) {
                    return Ok(false);
                }
                self.consume_peeked(i0, n, 0, tick);
                self.consume_peeked(i0 + 1, n, 1, tick);
                self.reserve_emit(n, 0, k.eval(a, b), t + self.cfg.divider);
                Ok(true)
            }
            Op::Cmp(k) => {
                let i0 = self.fifo_idx(n, 0);
                let Some(a) = self.peek_idx(i0) else {
                    return Ok(false);
                };
                let Some(b) = self.peek_idx(i0 + 1) else {
                    return Ok(false);
                };
                if !self.space_on(n, 0) {
                    return Ok(false);
                }
                self.consume_peeked(i0, n, 0, tick);
                self.consume_peeked(i0 + 1, n, 1, tick);
                self.reserve_emit(n, 0, k.eval(a, b), t + self.cfg.divider);
                Ok(true)
            }
            Op::UnOp(k) => {
                let i0 = self.fifo_idx(n, 0);
                let Some(a) = self.peek_idx(i0) else {
                    return Ok(false);
                };
                if !self.space_on(n, 0) {
                    return Ok(false);
                }
                self.consume_peeked(i0, n, 0, tick);
                self.reserve_emit(n, 0, k.eval(a), t + self.cfg.divider);
                Ok(true)
            }
            Op::Steer(pol) => {
                let i0 = self.fifo_idx(n, 0);
                let Some(d) = self.peek_idx(i0) else {
                    return Ok(false);
                };
                let Some(v) = self.peek_idx(i0 + 1) else {
                    return Ok(false);
                };
                let forward = match pol {
                    SteerPolarity::OnTrue => d != 0,
                    SteerPolarity::OnFalse => d == 0,
                };
                if forward && !self.space_on(n, 0) {
                    return Ok(false);
                }
                self.consume_peeked(i0, n, 0, tick);
                self.consume_peeked(i0 + 1, n, 1, tick);
                if forward {
                    self.emit_now(n, 0, v, tick);
                }
                Ok(true)
            }
            Op::Carry => match self.state[n] {
                GateState::Fresh => {
                    let ii = self.fifo_idx(n, Op::CARRY_INIT);
                    let Some(v) = self.peek_idx(ii) else {
                        return Ok(false);
                    };
                    if !self.space_on(n, 0) {
                        return Ok(false);
                    }
                    self.consume_peeked(ii, n, Op::CARRY_INIT, tick);
                    self.state[n] = GateState::Looping;
                    self.emit_now(n, 0, v, tick);
                    Ok(true)
                }
                GateState::Looping => {
                    let id = self.fifo_idx(n, Op::CARRY_DECIDER);
                    let Some(d) = self.peek_idx(id) else {
                        return Ok(false);
                    };
                    if d != 0 {
                        let ib = self.fifo_idx(n, Op::CARRY_BACK);
                        let Some(v) = self.peek_idx(ib) else {
                            return Ok(false);
                        };
                        if !self.space_on(n, 0) {
                            return Ok(false);
                        }
                        self.consume_peeked(id, n, Op::CARRY_DECIDER, tick);
                        self.consume_peeked(ib, n, Op::CARRY_BACK, tick);
                        self.emit_now(n, 0, v, tick);
                    } else {
                        self.consume_peeked(id, n, Op::CARRY_DECIDER, tick);
                        self.state[n] = GateState::Fresh;
                    }
                    Ok(true)
                }
                GateState::Holding(_) => unreachable!("carry never holds"),
            },
            Op::Invariant => match self.state[n] {
                GateState::Fresh => {
                    let iv = self.fifo_idx(n, Op::INV_VALUE);
                    let Some(v) = self.peek_idx(iv) else {
                        return Ok(false);
                    };
                    if !self.space_on(n, 0) {
                        return Ok(false);
                    }
                    self.consume_peeked(iv, n, Op::INV_VALUE, tick);
                    self.state[n] = GateState::Holding(v);
                    self.emit_now(n, 0, v, tick);
                    Ok(true)
                }
                GateState::Holding(v) => {
                    let id = self.fifo_idx(n, Op::INV_DECIDER);
                    let Some(d) = self.peek_idx(id) else {
                        return Ok(false);
                    };
                    if d != 0 && !self.space_on(n, 0) {
                        return Ok(false);
                    }
                    self.consume_peeked(id, n, Op::INV_DECIDER, tick);
                    if d != 0 {
                        self.emit_now(n, 0, v, tick);
                    } else {
                        self.state[n] = GateState::Fresh;
                    }
                    Ok(true)
                }
                GateState::Looping => unreachable!("invariant never loops"),
            },
            Op::Select => {
                let i0 = self.fifo_idx(n, 0);
                let Some(d) = self.peek_idx(i0) else {
                    return Ok(false);
                };
                let Some(a) = self.peek_idx(i0 + 1) else {
                    return Ok(false);
                };
                let Some(b) = self.peek_idx(i0 + 2) else {
                    return Ok(false);
                };
                if !self.space_on(n, 0) {
                    return Ok(false);
                }
                self.consume_peeked(i0, n, 0, tick);
                self.consume_peeked(i0 + 1, n, 1, tick);
                self.consume_peeked(i0 + 2, n, 2, tick);
                self.emit_now(n, 0, if d != 0 { a } else { b }, tick);
                Ok(true)
            }
            Op::Mux => {
                let i0 = self.fifo_idx(n, 0);
                let Some(d) = self.peek_idx(i0) else {
                    return Ok(false);
                };
                let taken = if d != 0 { 1 } else { 2 };
                let Some(v) = self.peek_idx(i0 + taken) else {
                    return Ok(false);
                };
                if !self.space_on(n, 0) {
                    return Ok(false);
                }
                self.consume_peeked(i0, n, 0, tick);
                self.consume_peeked(i0 + taken, n, taken, tick);
                self.emit_now(n, 0, v, tick);
                Ok(true)
            }
            Op::Load => {
                let ia = self.fifo_idx(n, Op::LOAD_ADDR);
                let Some(addr) = self.peek_idx(ia) else {
                    return Ok(false);
                };
                let io = self.fifo_idx(n, Op::LOAD_ORDER);
                let order_wired = matches!(self.port_src[io], PortSrc::Wire(_));
                if order_wired && self.peek_idx(io).is_none() {
                    return Ok(false);
                }
                if self.mo_len[n] as usize >= self.cfg.max_outstanding
                    || !self.space_on(n, Op::OUT_VALUE)
                    || !self.space_on(n, Op::LOAD_OUT_ORDER)
                {
                    return Ok(false);
                }
                self.consume_peeked(ia, n, Op::LOAD_ADDR, tick);
                if order_wired {
                    self.consume_peeked(io, n, Op::LOAD_ORDER, tick);
                }
                self.reserve(n, Op::OUT_VALUE);
                self.reserve(n, Op::LOAD_OUT_ORDER);
                self.issue_mem(n, false, addr, 0, t);
                Ok(true)
            }
            Op::Store => {
                let ia = self.fifo_idx(n, Op::STORE_ADDR);
                let iv = self.fifo_idx(n, Op::STORE_VALUE);
                let (Some(addr), Some(value)) = (self.peek_idx(ia), self.peek_idx(iv)) else {
                    return Ok(false);
                };
                let io = self.fifo_idx(n, Op::STORE_ORDER);
                let order_wired = matches!(self.port_src[io], PortSrc::Wire(_));
                if order_wired && self.peek_idx(io).is_none() {
                    return Ok(false);
                }
                if self.mo_len[n] as usize >= self.cfg.max_outstanding || !self.space_on(n, 0) {
                    return Ok(false);
                }
                self.consume_peeked(ia, n, Op::STORE_ADDR, tick);
                self.consume_peeked(iv, n, Op::STORE_VALUE, tick);
                if order_wired {
                    self.consume_peeked(io, n, Op::STORE_ORDER, tick);
                }
                self.reserve(n, 0);
                self.issue_mem(n, true, addr, value, t);
                Ok(true)
            }
            Op::Param(_) => Ok(false),
        }
    }

    /// Consumer nodes of (`node`, output `port`) whose input FIFO has no
    /// free slot (the nodes holding this one's credit).
    fn credit_blockers(&self, node: usize, port: usize) -> Vec<u32> {
        let mut out = Vec::new();
        for i in self.fan_range(node, port) {
            let e = &self.fan[i];
            let idx = e.fifo_idx as usize;
            let p = self.ports[idx];
            if usize::from(p.len) + usize::from(p.reserved) >= self.cfg.fifo_depth {
                out.push(e.dst);
            }
        }
        out
    }

    /// Read-only diagnosis of why node `n` cannot fire, mirroring the
    /// requirements `try_fire` checks. Returns `None` for idle nodes —
    /// nothing buffered, reserved, or outstanding — which is the normal
    /// state after completion.
    fn classify_stall(&self, n: usize) -> Option<StalledNode> {
        let node = self.dfg.node(NodeId(n as u32));
        let op = node.op;

        let mut ports = Vec::new();
        let mut buffered = 0usize;
        let mut reserved_total = 0usize;
        for p in 0..node.inputs.len() {
            let idx = self.fifo_idx(n, p);
            let ps = self.ports[idx];
            let (len, res) = (usize::from(ps.len), ps.reserved);
            if len > 0 || res > 0 {
                ports.push(PortOccupancy {
                    port: p as u8,
                    buffered: len,
                    reserved: res,
                });
            }
            buffered += len;
            reserved_total += res as usize;
        }
        let outstanding = self.mo_len[n] as usize;

        // Which input ports must hold a token, and which output ports need
        // consumer credit, for the node to fire in its current state.
        let mut need: Vec<usize> = Vec::new();
        let mut out_ports: Vec<usize> = Vec::new();
        let mut is_mem = false;
        match op {
            Op::Param(_) => return None,
            Op::Sink(_) => need.push(0),
            Op::BinOp(_) | Op::Cmp(_) => {
                need.extend([0, 1]);
                out_ports.push(0);
            }
            Op::UnOp(_) => {
                need.push(0);
                out_ports.push(0);
            }
            Op::Steer(pol) => {
                need.extend([0, 1]);
                if let Some(d) = self.peek(n, 0) {
                    let forward = match pol {
                        SteerPolarity::OnTrue => d != 0,
                        SteerPolarity::OnFalse => d == 0,
                    };
                    if forward {
                        out_ports.push(0);
                    }
                }
            }
            Op::Carry => match self.state[n] {
                GateState::Fresh => {
                    need.push(Op::CARRY_INIT);
                    out_ports.push(0);
                }
                GateState::Looping => {
                    need.push(Op::CARRY_DECIDER);
                    if self.peek(n, Op::CARRY_DECIDER).is_some_and(|d| d != 0) {
                        need.push(Op::CARRY_BACK);
                        out_ports.push(0);
                    }
                }
                GateState::Holding(_) => {}
            },
            Op::Invariant => match self.state[n] {
                GateState::Fresh => {
                    need.push(Op::INV_VALUE);
                    out_ports.push(0);
                }
                GateState::Holding(_) => {
                    need.push(Op::INV_DECIDER);
                    if self.peek(n, Op::INV_DECIDER).is_some_and(|d| d != 0) {
                        out_ports.push(0);
                    }
                }
                GateState::Looping => {}
            },
            Op::Select => {
                need.extend([0, 1, 2]);
                out_ports.push(0);
            }
            Op::Mux => {
                need.push(0);
                if let Some(d) = self.peek(n, 0) {
                    need.push(if d != 0 { 1 } else { 2 });
                }
                out_ports.push(0);
            }
            Op::Load => {
                is_mem = true;
                need.push(Op::LOAD_ADDR);
                if self.order_wired(n, Op::LOAD_ORDER) {
                    need.push(Op::LOAD_ORDER);
                }
                out_ports.extend([Op::OUT_VALUE, Op::LOAD_OUT_ORDER]);
            }
            Op::Store => {
                is_mem = true;
                need.extend([Op::STORE_ADDR, Op::STORE_VALUE]);
                if self.order_wired(n, Op::STORE_ORDER) {
                    need.push(Op::STORE_ORDER);
                }
                out_ports.push(0);
            }
        }

        let missing: Vec<u8> = need
            .iter()
            .filter(|&&p| self.peek(n, p).is_none())
            .map(|&p| p as u8)
            .collect();

        let (kind, blocked_on) = if is_mem && outstanding > 0 {
            // A memory op with requests in flight is waiting on the memory
            // system regardless of its operand state.
            (StallKind::MemoryOutstanding, Vec::new())
        } else if !missing.is_empty() {
            if buffered == 0 && reserved_total == 0 && outstanding == 0 {
                return None; // idle, nothing trapped
            }
            let producers = missing
                .iter()
                .filter_map(|&p| match node.inputs[p as usize] {
                    InPort::Wire { src, .. } => Some(src.0),
                    _ => None,
                })
                .collect();
            (StallKind::WaitingOperand, producers)
        } else if is_mem && outstanding >= self.cfg.max_outstanding {
            (StallKind::MemoryOutstanding, Vec::new())
        } else {
            let blockers: Vec<u32> = out_ports
                .iter()
                .flat_map(|&p| self.credit_blockers(n, p))
                .collect();
            if blockers.is_empty() {
                if need.is_empty() && buffered == 0 && reserved_total == 0 && outstanding == 0 {
                    return None; // dormant gate state with nothing queued
                }
                (StallKind::ReadyNotScheduled, Vec::new())
            } else {
                (StallKind::NoConsumerCredit, blockers)
            }
        };

        Some(StalledNode {
            node: n as u32,
            op: format!("{op:?}"),
            kind,
            ports,
            outstanding,
            missing_ports: missing,
            blocked_on,
        })
    }

    /// Record a watchdog/deadlock snapshot into the trace.
    fn record_stall(&mut self, t: u64, report: &StallReport) {
        if let Some(tr) = self.tracer.as_mut() {
            tr.record(
                t,
                TraceEvent::StallSnapshot {
                    stalled_nodes: report.nodes.len().min(u32::MAX as usize) as u32,
                    residual_tokens: report.residual_tokens.min(u32::MAX as usize) as u32,
                },
            );
        }
    }

    /// Snapshot every stalled node into a [`StallReport`] at cycle `t`.
    fn stall_report(&self, t: u64) -> StallReport {
        let nodes: Vec<StalledNode> = (0..self.dfg.len())
            .filter_map(|n| self.classify_stall(n))
            .collect();
        let residual: usize = self.ports.iter().map(|p| usize::from(p.len)).sum();
        StallReport::new(t, nodes, residual)
    }

    fn issue_mem(&mut self, n: usize, is_store: bool, addr: i64, value: i64, t: u64) {
        let mut addr = addr;
        if let Some(fs) = self.fault.as_ref() {
            if addr >= 0 && fs.bank_dead(self.cfg.mem.bank_of(addr as usize) as u32, t) {
                // A failed bank faults every request addressed to it: reuse
                // the memory system's out-of-bounds fault path so the run
                // aborts with a typed `SimError::Fault` at this node.
                addr = -1;
            }
        }
        self.next_seq += 1;
        let seq = self.next_seq;
        let cap = self.cfg.max_outstanding;
        debug_assert!((self.mo_len[n] as usize) < cap, "outstanding ring overflow");
        let mut pos = self.mo_head[n] as usize + self.mo_len[n] as usize;
        if pos >= cap {
            pos -= cap;
        }
        self.mo_seq[n * cap + pos] = seq;
        self.mo_done[n * cap + pos] = None;
        self.mo_len[n] += 1;
        if let Some(tr) = self.tracer.as_mut() {
            tr.record(
                t,
                TraceEvent::MemIssue {
                    node: n as u32,
                    seq,
                    is_store,
                },
            );
        }
        // Flush deferred wait accounting for the quiet cycles before this
        // issue while the queues still hold their pre-issue state (UPEA
        // models enqueue straight into a bank here, and back-dating that
        // occupancy would over-count waits). The issue cycle itself is
        // left to the next flush/step, which sees the post-issue state —
        // exactly what an eager per-cycle step would have seen, since the
        // fabric tick precedes the memory step within a cycle.
        self.memsys.skip_to(self.mem_last, t);
        self.mem_last = self.mem_last.max(t.saturating_sub(1));
        self.memsys.issue(
            MemRequest {
                node: n as u32,
                seq,
                is_store,
                addr,
                value,
                pe: self.pe_of[n],
                issued_at: t,
            },
            t,
        );
        // The new request becomes actionable next cycle at the earliest;
        // pull the cached next-event time forward so the lazy memsys
        // stepping in `run` wakes up for it.
        self.mem_next = self.mem_next.min(t + 1);
    }
}

#[cfg(test)]
// Unit tests use the test-only placement helper: they exercise the engine
// on hand-built graphs where the placement shape is irrelevant and pulling
// in the annealer would only add noise.
mod tests {
    use super::*;
    use crate::simple_placement;
    use nupea_ir::op::UnOpKind;

    /// addr-param -> load -> sink, with trace enabled when asked.
    fn load_graph() -> (Dfg, ParamId) {
        let mut g = Dfg::new("trace-unit");
        let (p, pp) = g.add_param("addr");
        let ld = g.add_node(Op::Load);
        g.connect(p, 0, ld, Op::LOAD_ADDR);
        let (s, _) = g.add_sink("v");
        g.connect(ld, Op::OUT_VALUE, s, 0);
        (g, pp)
    }

    #[test]
    fn unconnected_consume_is_a_typed_error_not_a_panic() {
        // A UnOp with its input left unconnected: `try_fire` never reaches
        // consume (peek returns None), so drive consume directly — the
        // defense-in-depth path must yield a structured SimError, because a
        // panic here would defeat the runner's panic isolation.
        let mut g = Dfg::new("malformed");
        let n = g.add_node(Op::UnOp(UnOpKind::Neg));
        let fabric = Fabric::monaco(8, 8, 3).unwrap();
        let pe_of = simple_placement(&g, &fabric, true);
        let mut engine = Engine::new(&g, &fabric, &pe_of, SimConfig::default());
        let err = engine.consume(n.index(), 0, 0).unwrap_err();
        assert_eq!(
            err,
            SimError::UnconnectedPort { node: n, port: 0 },
            "typed error, stable across catch_unwind boundaries"
        );
        assert!(err.to_string().contains("unconnected"));
    }

    #[test]
    fn trace_off_allocates_no_recorder_and_take_trace_is_none() {
        let (g, pp) = load_graph();
        let fabric = Fabric::monaco(8, 8, 3).unwrap();
        let pe_of = simple_placement(&g, &fabric, true);
        let params = MemParams::tiny();
        let mut mem = SimMemory::new(&params);
        let cfg = SimConfig {
            mem: params,
            ..SimConfig::default()
        };
        let mut engine = Engine::new(&g, &fabric, &pe_of, cfg);
        engine.bind(pp, 3);
        engine.run(&mut mem).unwrap();
        assert!(engine.take_trace().is_none(), "no tracer when disabled");
    }

    #[test]
    fn trace_aggregation_matches_runstats_and_exports_valid_json() {
        let (g, pp) = load_graph();
        let fabric = Fabric::monaco(8, 8, 3).unwrap();
        let pe_of = simple_placement(&g, &fabric, true);
        let params = MemParams::tiny();
        let mut mem = SimMemory::new(&params);
        mem.write(3, 99);
        let cfg = SimConfig {
            mem: params,
            trace: TraceConfig::on(),
            ..SimConfig::default()
        };
        let mut engine = Engine::new(&g, &fabric, &pe_of, cfg);
        engine.bind(pp, 3);
        let stats = engine.run(&mut mem).unwrap();
        let trace = engine.take_trace().expect("tracer enabled");
        assert_eq!(trace.dropped, 0, "tiny run fits the ring");

        // Per-domain latency derived from MemDeliver events matches the
        // engine's own aggregation exactly.
        assert_eq!(
            trace.load_latency_by_domain(),
            stats.load_latency_by_domain,
            "trace-side aggregation must reproduce RunStats"
        );
        // Firings in the trace match the firing counters.
        let fire_count = trace
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::Fire { .. }))
            .count() as u64;
        assert_eq!(fire_count, stats.firings);
        let per_pe_sum: u64 = stats.firings_per_pe.iter().sum();
        assert_eq!(per_pe_sum, stats.firings);
        assert!(stats.active_pes() >= 3, "param, load, sink placed apart");
        assert!(!stats.link_traffic.is_empty(), "tokens moved on the NoC");

        // The exporter emits schema-valid Chrome trace JSON.
        let json = trace.to_chrome_json();
        let summary = crate::trace::validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(
            summary.complete as u64, stats.firings,
            "one slice per firing"
        );
        assert!(summary.asyncs >= 2, "mem lifecycle recorded");
    }

    #[test]
    fn tracing_does_not_change_timing() {
        let (g, pp) = load_graph();
        let fabric = Fabric::monaco(8, 8, 3).unwrap();
        let pe_of = simple_placement(&g, &fabric, true);
        let params = MemParams::tiny();
        let run = |trace: TraceConfig| {
            let mut mem = SimMemory::new(&params);
            mem.write(3, 42);
            let cfg = SimConfig {
                mem: params,
                trace,
                ..SimConfig::default()
            };
            let mut engine = Engine::new(&g, &fabric, &pe_of, cfg);
            engine.bind(pp, 3);
            engine.run(&mut mem).unwrap()
        };
        let off = run(TraceConfig::OFF);
        let on = run(TraceConfig::on());
        assert_eq!(off.cycles, on.cycles);
        assert_eq!(off.firings, on.firings);
        assert_eq!(off.sinks, on.sinks);
    }
}
