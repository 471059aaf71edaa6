//! The memory system: fabric-memory NoC arbitration, ports, banks, cache,
//! and the baseline memory models (§4.2, §6 of the paper).
//!
//! Three models are simulated:
//!
//! * [`MemoryModel::Nupea`] — Monaco's hierarchical FM-NoC. Requests from a
//!   domain-`k` LS PE traverse `k` arbiters (one forward per system cycle
//!   each, so contention queues), reach a memory port (one accept per
//!   cycle), and are serviced by the addressed bank behind the shared
//!   cache. Responses traverse a mirrored response network.
//! * [`MemoryModel::Upea`]`(n)` — uniform PE access: every request is
//!   delayed by `n` *fabric* cycles, then goes straight to the banks — no
//!   port arbitration, so baselines enjoy higher bandwidth than Monaco,
//!   exactly as §6 specifies. `Upea(0)` is the paper's **Ideal**.
//! * [`MemoryModel::NumaUpea`]`(n)` — LS PEs are randomly assigned to four
//!   NUMA domains and the address space is interleaved across them; local
//!   accesses skip the UPEA delay.
//!
//! Queues are FIFO per stage; the paper's per-input round-robin arbiters
//! are approximated by arrival order, which provides the same fairness
//! under sustained load.

use crate::memory::{Cache, MemParams, SimMemory};
use nupea_fabric::{ArbSink, Fabric, MemAccess, PeId};
use std::collections::VecDeque;

/// Which memory model to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryModel {
    /// Monaco's NUPEA fabric-memory NoC.
    Nupea,
    /// Uniform PE access with the given latency in fabric cycles.
    Upea(u32),
    /// NUMA over UPEA: remote accesses pay the UPEA latency, local ones
    /// don't. Four NUMA domains, random LS-PE assignment, line-interleaved
    /// addresses.
    NumaUpea(u32),
}

impl MemoryModel {
    /// The paper's "Ideal" baseline: uniform zero-delay PE access.
    pub const IDEAL: MemoryModel = MemoryModel::Upea(0);

    /// Short label used in experiment tables.
    pub fn label(&self) -> String {
        match self {
            MemoryModel::Nupea => "NUPEA".to_string(),
            MemoryModel::Upea(0) => "Ideal".to_string(),
            MemoryModel::Upea(n) => format!("UPEA{n}"),
            MemoryModel::NumaUpea(n) => format!("NUMA-UPEA{n}"),
        }
    }
}

impl std::fmt::Display for MemoryModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A memory request from the fabric.
#[derive(Debug, Clone, Copy)]
pub struct MemRequest {
    /// Issuing DFG node (dense index).
    pub node: u32,
    /// Per-node sequence number for in-order delivery.
    pub seq: u64,
    /// Store (true) or load (false).
    pub is_store: bool,
    /// Word address.
    pub addr: i64,
    /// Value to store (ignored for loads).
    pub value: i64,
    /// Issuing PE.
    pub pe: PeId,
    /// Fabric-tick time of issue (system cycles).
    pub issued_at: u64,
}

/// A completed memory operation.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Issuing node.
    pub node: u32,
    /// Sequence number.
    pub seq: u64,
    /// Loaded value (0 for stores).
    pub value: i64,
    /// System-cycle completion time (response delivered at the PE).
    pub time: u64,
    /// True if the access was out of bounds.
    pub fault: bool,
    /// Total latency in system cycles (completion − issue).
    pub latency: u64,
    /// Bank that serviced the request ([`FAULT_BANK`] on the fault path,
    /// which never touches a bank).
    pub bank: u16,
    /// Whether the access hit in the shared cache (false for faults).
    pub hit: bool,
    /// System cycle at which the bank started servicing the request.
    pub bank_at: u64,
    /// Response-network arbiter hops the reply traversed back to the PE.
    pub resp_hops: u16,
}

/// [`Completion::bank`] value for faulting accesses, which bypass the
/// banks entirely.
pub const FAULT_BANK: u16 = u16::MAX;

#[derive(Debug, Clone, Copy)]
struct ReqItem {
    req: MemRequest,
    ready_at: u64,
}

#[derive(Debug, Clone, Copy)]
struct RespItem {
    req: MemRequest,
    value: i64,
    fault: bool,
    /// Remaining response-arbiter hops (the PE's arbiter chain, walked from
    /// memory outward); delivered to the PE when it reaches zero.
    hops_left: u32,
    ready_at: u64,
    /// Servicing bank (for the completion record).
    bank: u16,
    /// Cache hit at the bank.
    hit: bool,
    /// Bank service start time.
    bank_at: u64,
}

#[derive(Debug, Clone, Default)]
struct Bank {
    queue: VecDeque<ReqItem>,
    busy_until: u64,
}

/// Bitset over the queues of one pipeline stage, tracking which are
/// non-empty. Arbitration batches over set bits in ascending index order —
/// the same order as the dense scan it replaces — so only occupied queues
/// are visited each cycle.
#[derive(Debug, Clone, Default)]
struct OccSet {
    words: Vec<u64>,
}

impl OccSet {
    fn new(len: usize) -> Self {
        OccSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Visit every set bit in ascending order (read-only walk).
    #[inline]
    fn for_each(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// Push onto queue `i`, maintaining the stage's occupancy bit.
#[inline]
fn occ_push<T>(qs: &mut [VecDeque<T>], occ: &mut OccSet, i: usize, item: T) {
    if qs[i].is_empty() {
        occ.set(i);
    }
    qs[i].push_back(item);
}

/// Pop the head of queue `i` (must be occupied), maintaining occupancy.
#[inline]
fn occ_pop<T>(qs: &mut [VecDeque<T>], occ: &mut OccSet, i: usize) -> T {
    let item = qs[i].pop_front().expect("occupied queue");
    if qs[i].is_empty() {
        occ.clear(i);
    }
    item
}

/// Aggregate memory-system statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct MemSysStats {
    /// Requests issued.
    pub requests: u64,
    /// Total arbiter forwards (request + response networks).
    pub arbiter_forwards: u64,
    /// Cycles requests spent queued at banks (conflict pressure).
    pub bank_wait_cycles: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
}

/// The timed memory system.
#[derive(Debug)]
pub struct MemSys {
    model: MemoryModel,
    params: MemParams,
    cache: Cache,
    banks: Vec<Bank>,
    /// Per-arbiter request queues (parallel to `fabric.fmnoc().arbiters`).
    arb_req: Vec<VecDeque<ReqItem>>,
    /// Per-port request queues.
    port_req: Vec<VecDeque<ReqItem>>,
    /// Per-port response queues (responses reuse the port, 1 per cycle).
    port_resp: Vec<VecDeque<RespItem>>,
    /// Per-arbiter response queues (mirrored network).
    arb_resp: Vec<VecDeque<RespItem>>,
    /// Occupancy bitsets, one per stage (plus one over bank queues), so
    /// per-cycle arbitration touches only non-empty queues.
    occ_arb_req: OccSet,
    occ_port_req: OccSet,
    occ_port_resp: OccSet,
    occ_arb_resp: OccSet,
    occ_banks: OccSet,
    /// Per-stage earliest-ready caches: a conservative lower bound on the
    /// earliest cycle at which any head in the stage becomes actionable
    /// (`u64::MAX` when the stage is empty). Each stage walk is skipped
    /// O(1) while its cache lies in the future; pushes min-update the
    /// target stage's cache, and a walk recomputes it exactly from the
    /// surviving heads. A bound that is too *small* merely causes one
    /// no-op walk; it can never skip real work, so timing is unaffected.
    /// Banks carry no cache — their walk also accrues the per-cycle
    /// `bank_wait_cycles` and must run whenever `step` does.
    next_arb_req: u64,
    next_port_req: u64,
    next_port_resp: u64,
    next_arb_resp: u64,
    /// Per-PE: arbiter chain from the PE towards memory (empty for D0).
    chain_of: Vec<Vec<u32>>,
    /// Per-PE: the port requests drain into.
    port_of: Vec<u32>,
    /// Per-PE NUMA domain (NUMA model only).
    numa_of: Vec<Option<u8>>,
    numa_domains: u8,
    /// Out-of-bounds requests, completing on a dedicated path that never
    /// touches arbiters, ports, banks, or the cache — faults must not
    /// alias onto bank 0 / domain 0 and pollute conflict statistics.
    fault_q: VecDeque<ReqItem>,
    /// Fabric clock divider (converts UPEA fabric-cycle delays to system
    /// cycles).
    divider: u64,
    done: Vec<Completion>,
    /// Statistics.
    pub stats: MemSysStats,
    queued_items: usize,
}

impl MemSys {
    /// Build the memory system for a fabric + model.
    pub fn new(
        fabric: &Fabric,
        model: MemoryModel,
        params: MemParams,
        divider: u64,
        numa_seed: u64,
    ) -> Self {
        // Rejected by `SimConfig::validate`; no silent repair here.
        debug_assert!(divider >= 1, "divider must be >= 1 (validate)");
        let noc = fabric.fmnoc();
        let mut chain_of = vec![Vec::new(); fabric.num_pes()];
        let mut port_of = vec![u32::MAX; fabric.num_pes()];
        for pe in fabric.ls_pes() {
            let mut chain = Vec::new();
            let mut cur = noc.access[pe.index()].expect("LS PE has access");
            loop {
                match cur {
                    MemAccess::Direct(p) => {
                        port_of[pe.index()] = p.0;
                        break;
                    }
                    MemAccess::ViaArbiter(a) => {
                        chain.push(a.0);
                        match noc.arbiters[a.index()].downstream {
                            ArbSink::Arbiter(next) => cur = MemAccess::ViaArbiter(next),
                            ArbSink::Port(p) => {
                                port_of[pe.index()] = p.0;
                                break;
                            }
                        }
                    }
                }
            }
            chain_of[pe.index()] = chain;
        }
        MemSys {
            model,
            params,
            cache: Cache::new(&params),
            banks: vec![Bank::default(); params.banks],
            arb_req: vec![VecDeque::new(); noc.arbiters.len()],
            port_req: vec![VecDeque::new(); noc.ports.len()],
            port_resp: vec![VecDeque::new(); noc.ports.len()],
            arb_resp: vec![VecDeque::new(); noc.arbiters.len()],
            occ_arb_req: OccSet::new(noc.arbiters.len()),
            occ_port_req: OccSet::new(noc.ports.len()),
            occ_port_resp: OccSet::new(noc.ports.len()),
            occ_arb_resp: OccSet::new(noc.arbiters.len()),
            occ_banks: OccSet::new(params.banks),
            next_arb_req: u64::MAX,
            next_port_req: u64::MAX,
            next_port_resp: u64::MAX,
            next_arb_resp: u64::MAX,
            chain_of,
            port_of,
            numa_of: fabric.numa_assignment(numa_seed, 4),
            numa_domains: 4,
            fault_q: VecDeque::new(),
            divider,
            done: Vec::new(),
            stats: MemSysStats::default(),
            queued_items: 0,
        }
    }

    /// The memory model being simulated.
    pub fn model(&self) -> MemoryModel {
        self.model
    }

    /// Cache statistics source.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Inject a request (called at a fabric tick).
    pub fn issue(&mut self, req: MemRequest, now: u64) {
        self.stats.requests += 1;
        self.queued_items += 1;
        // Out-of-bounds addresses never enter the memory pipeline: they
        // complete as faults one cycle later without touching arbiters,
        // banks, or the cache, so bank-conflict and domain-latency stats
        // only ever describe real accesses.
        if req.addr < 0 || req.addr as usize >= self.params.mem_words {
            self.fault_q.push_back(ReqItem {
                req,
                ready_at: now + 1,
            });
            return;
        }
        match self.model {
            MemoryModel::Nupea => {
                let chain = &self.chain_of[req.pe.index()];
                let item = ReqItem {
                    req,
                    ready_at: now + 1,
                };
                match chain.first() {
                    Some(&a) => {
                        occ_push(&mut self.arb_req, &mut self.occ_arb_req, a as usize, item);
                        self.next_arb_req = self.next_arb_req.min(item.ready_at);
                    }
                    // D0 LS PEs connect directly to their memory port: no
                    // arbitration hops (§6), but the port still accepts one
                    // request per system cycle — the fast domain offers high
                    // bandwidth, not infinite bandwidth.
                    None => {
                        occ_push(
                            &mut self.port_req,
                            &mut self.occ_port_req,
                            self.port_of[req.pe.index()] as usize,
                            item,
                        );
                        self.next_port_req = self.next_port_req.min(item.ready_at);
                    }
                }
            }
            MemoryModel::Upea(n) => {
                let delay = u64::from(n) * self.divider;
                self.enqueue_bank(ReqItem {
                    req,
                    ready_at: now + 1 + delay,
                });
            }
            MemoryModel::NumaUpea(n) => {
                let local =
                    self.numa_of[req.pe.index()] == Some(self.numa_domain_of_addr(req.addr));
                let delay = if local {
                    0
                } else {
                    u64::from(n) * self.divider
                };
                self.enqueue_bank(ReqItem {
                    req,
                    ready_at: now + 1 + delay,
                });
            }
        }
    }

    fn numa_domain_of_addr(&self, addr: i64) -> u8 {
        debug_assert!(addr >= 0, "faults are filtered at issue");
        let line = (addr as usize) / self.params.line_words;
        (line % usize::from(self.numa_domains)) as u8
    }

    fn enqueue_bank(&mut self, item: ReqItem) {
        debug_assert!(item.req.addr >= 0, "faults are filtered at issue");
        let bank = self.params.bank_of(item.req.addr as usize);
        if self.banks[bank].queue.is_empty() {
            self.occ_banks.set(bank);
        }
        self.banks[bank].queue.push_back(item);
    }

    /// Advance one system cycle.
    pub fn step(&mut self, now: u64, mem: &mut SimMemory) {
        if self.queued_items == 0 {
            return;
        }
        // Faulting requests complete on their own path, bypassing the
        // entire pipeline.
        while let Some(&head) = self.fault_q.front() {
            if head.ready_at > now {
                break;
            }
            self.fault_q.pop_front();
            self.complete(head.req, 0, true, now, FAULT_BANK, false, now, 0);
        }
        match self.model {
            MemoryModel::Nupea => {
                self.step_arbiters_req(now);
                self.step_ports_req(now);
                self.step_banks(now, mem);
                self.step_ports_resp(now);
                self.step_arbiters_resp(now);
            }
            MemoryModel::Upea(_) | MemoryModel::NumaUpea(_) => {
                self.step_banks(now, mem);
            }
        }
    }

    fn step_arbiters_req(&mut self, now: u64) {
        if self.next_arb_req > now {
            return;
        }
        // Chain forwards re-enter `arb_req` mid-walk and min-update the
        // cache at their push sites, so reset it before the walk and fold
        // the surviving heads back in afterwards.
        self.next_arb_req = u64::MAX;
        let mut nxt = u64::MAX;
        // Word-at-a-time batch over the occupied arbiters, ascending (the
        // same visit order as the dense scan). The snapshot is safe under
        // same-cycle pushes: anything entering a queue this cycle carries
        // `ready_at = now + 1` and would be skipped anyway.
        for w in 0..self.occ_arb_req.words.len() {
            let mut bits = self.occ_arb_req.words[w];
            while bits != 0 {
                let a = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let head = *self.arb_req[a].front().expect("occupied queue");
                if head.ready_at > now {
                    nxt = nxt.min(head.ready_at);
                    continue;
                }
                occ_pop(&mut self.arb_req, &mut self.occ_arb_req, a);
                if !self.arb_req[a].is_empty() {
                    // One forward per arbiter per cycle: the backlog's head
                    // becomes eligible next cycle.
                    nxt = nxt.min(now + 1);
                }
                self.stats.arbiter_forwards += 1;
                let item = ReqItem {
                    req: head.req,
                    ready_at: now + 1,
                };
                // Forward one hop down this PE's chain.
                let chain = &self.chain_of[head.req.pe.index()];
                let pos = chain
                    .iter()
                    .position(|&x| x == a as u32)
                    .expect("request is on its own chain");
                match chain.get(pos + 1) {
                    Some(&next) => {
                        occ_push(
                            &mut self.arb_req,
                            &mut self.occ_arb_req,
                            next as usize,
                            item,
                        );
                        self.next_arb_req = self.next_arb_req.min(item.ready_at);
                    }
                    None => {
                        occ_push(
                            &mut self.port_req,
                            &mut self.occ_port_req,
                            self.port_of[head.req.pe.index()] as usize,
                            item,
                        );
                        self.next_port_req = self.next_port_req.min(item.ready_at);
                    }
                }
            }
        }
        self.next_arb_req = self.next_arb_req.min(nxt);
    }

    fn step_ports_req(&mut self, now: u64) {
        if self.next_port_req > now {
            return;
        }
        self.next_port_req = u64::MAX;
        let mut nxt = u64::MAX;
        for w in 0..self.occ_port_req.words.len() {
            let mut bits = self.occ_port_req.words[w];
            while bits != 0 {
                let p = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let head = *self.port_req[p].front().expect("occupied queue");
                if head.ready_at > now {
                    nxt = nxt.min(head.ready_at);
                    continue;
                }
                occ_pop(&mut self.port_req, &mut self.occ_port_req, p);
                if !self.port_req[p].is_empty() {
                    nxt = nxt.min(now + 1);
                }
                // Ports feed banks combinationally (banks step after ports in
                // the same cycle), so D0 sees no added hop latency.
                self.enqueue_bank(ReqItem {
                    req: head.req,
                    ready_at: now,
                });
            }
        }
        self.next_port_req = self.next_port_req.min(nxt);
    }

    fn step_banks(&mut self, now: u64, mem: &mut SimMemory) {
        for w in 0..self.occ_banks.words.len() {
            let mut bits = self.occ_banks.words[w];
            while bits != 0 {
                let b = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.step_one_bank(b, now, mem);
            }
        }
    }

    fn step_one_bank(&mut self, b: usize, now: u64, mem: &mut SimMemory) {
        if self.banks[b].busy_until > now {
            // Occupied by construction: work is queued behind the busy
            // bank this cycle.
            self.stats.bank_wait_cycles += 1;
            return;
        }
        let head = *self.banks[b].queue.front().expect("occupied queue");
        if head.ready_at > now {
            return;
        }
        self.banks[b].queue.pop_front();
        if self.banks[b].queue.is_empty() {
            self.occ_banks.clear(b);
        }
        let req = head.req;
        // Out-of-bounds requests were diverted to the fault path at
        // issue; everything reaching a bank is a real access. (The
        // checked read/write stays as defense in depth should a
        // caller hand `step` a memory smaller than `params`.)
        debug_assert!(req.addr >= 0, "faults are filtered at issue");
        let (value, fault) = if req.is_store {
            let ok = mem.try_write(req.addr, req.value);
            (0, !ok)
        } else {
            match mem.try_read(req.addr) {
                Some(v) => (v, false),
                None => (0, true),
            }
        };
        // Cache counters are the single source of truth for hit/miss
        // statistics; `sync_cache_stats` mirrors them into the stats
        // block (satellite fix: the old per-bank `stats.cache_hits`
        // increments silently diverged from `cache.hits` on faults).
        let hit = !fault && self.cache.access(req.addr as usize, now);
        let latency = if hit || fault {
            self.params.hit_latency
        } else {
            self.params.hit_latency + self.params.miss_latency
        };
        self.banks[b].busy_until = now + latency;
        let done_at = now + latency;
        match self.model {
            MemoryModel::Nupea if !self.chain_of[req.pe.index()].is_empty() => {
                let hops = self.chain_of[req.pe.index()].len() as u32;
                let port = self.port_of[req.pe.index()] as usize;
                occ_push(
                    &mut self.port_resp,
                    &mut self.occ_port_resp,
                    port,
                    RespItem {
                        req,
                        value,
                        fault,
                        hops_left: hops,
                        ready_at: done_at,
                        bank: b as u16,
                        hit,
                        bank_at: now,
                    },
                );
                self.next_port_resp = self.next_port_resp.min(done_at);
            }
            // D0 responses bypass the response network too.
            MemoryModel::Nupea | MemoryModel::Upea(_) | MemoryModel::NumaUpea(_) => {
                self.complete(req, value, fault, done_at, b as u16, hit, now, 0);
            }
        }
    }

    fn step_ports_resp(&mut self, now: u64) {
        if self.next_port_resp > now {
            return;
        }
        self.next_port_resp = u64::MAX;
        let mut nxt = u64::MAX;
        for w in 0..self.occ_port_resp.words.len() {
            let mut bits = self.occ_port_resp.words[w];
            while bits != 0 {
                let p = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let head = *self.port_resp[p].front().expect("occupied queue");
                if head.ready_at > now {
                    nxt = nxt.min(head.ready_at);
                    continue;
                }
                occ_pop(&mut self.port_resp, &mut self.occ_port_resp, p);
                if !self.port_resp[p].is_empty() {
                    nxt = nxt.min(now + 1);
                }
                if head.hops_left == 0 {
                    // Direct D0 response: one cycle from port to PE.
                    self.complete(
                        head.req,
                        head.value,
                        head.fault,
                        now + 1,
                        head.bank,
                        head.hit,
                        head.bank_at,
                        0,
                    );
                } else {
                    // Enter the response-arbiter chain at the memory end: the
                    // chain stored per-PE runs PE→memory, so the response walks
                    // it from the back (nearest-memory arbiter first).
                    let chain = &self.chain_of[head.req.pe.index()];
                    let entry = chain[chain.len() - 1];
                    occ_push(
                        &mut self.arb_resp,
                        &mut self.occ_arb_resp,
                        entry as usize,
                        RespItem {
                            ready_at: now + 1,
                            ..head
                        },
                    );
                    self.next_arb_resp = self.next_arb_resp.min(now + 1);
                }
            }
        }
        self.next_port_resp = self.next_port_resp.min(nxt);
    }

    fn step_arbiters_resp(&mut self, now: u64) {
        if self.next_arb_resp > now {
            return;
        }
        // Hop forwards re-enter `arb_resp` mid-walk (push sites min-update),
        // so reset before the walk, fold survivors back in at the end.
        self.next_arb_resp = u64::MAX;
        let mut nxt = u64::MAX;
        for w in 0..self.occ_arb_resp.words.len() {
            let mut bits = self.occ_arb_resp.words[w];
            while bits != 0 {
                let a = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let head = *self.arb_resp[a].front().expect("occupied queue");
                if head.ready_at > now {
                    nxt = nxt.min(head.ready_at);
                    continue;
                }
                occ_pop(&mut self.arb_resp, &mut self.occ_arb_resp, a);
                if !self.arb_resp[a].is_empty() {
                    nxt = nxt.min(now + 1);
                }
                self.stats.arbiter_forwards += 1;
                let chain = &self.chain_of[head.req.pe.index()];
                let pos = chain
                    .iter()
                    .position(|&x| x == a as u32)
                    .expect("response is on its own chain");
                if pos == 0 {
                    // Arrived at the PE's own arbiter stage: deliver.
                    let hops = chain.len() as u16;
                    self.complete(
                        head.req,
                        head.value,
                        head.fault,
                        now + 1,
                        head.bank,
                        head.hit,
                        head.bank_at,
                        hops,
                    );
                } else {
                    occ_push(
                        &mut self.arb_resp,
                        &mut self.occ_arb_resp,
                        chain[pos - 1] as usize,
                        RespItem {
                            ready_at: now + 1,
                            hops_left: head.hops_left - 1,
                            ..head
                        },
                    );
                    self.next_arb_resp = self.next_arb_resp.min(now + 1);
                }
            }
        }
        self.next_arb_resp = self.next_arb_resp.min(nxt);
    }

    #[allow(clippy::too_many_arguments)] // private lifecycle plumbing
    fn complete(
        &mut self,
        req: MemRequest,
        value: i64,
        fault: bool,
        time: u64,
        bank: u16,
        hit: bool,
        bank_at: u64,
        resp_hops: u16,
    ) {
        self.queued_items -= 1;
        self.done.push(Completion {
            node: req.node,
            seq: req.seq,
            value,
            time,
            fault,
            latency: time.saturating_sub(req.issued_at),
            bank,
            hit,
            bank_at,
            resp_hops,
        });
    }

    /// Drain completions into `out` (cleared first), swapping buffers so
    /// both sides keep their capacity — the engine's per-batch drain
    /// allocates nothing in steady state.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        self.sync_cache_stats();
        out.clear();
        std::mem::swap(&mut self.done, out);
    }

    /// True while requests are in flight (excluding drained completions).
    pub fn busy(&self) -> bool {
        self.queued_items > 0
    }

    /// Earliest cycle > `now` at which any queued item can make progress,
    /// or `u64::MAX` when nothing is in flight. A `step` at every cycle in
    /// `(now, next_event_at(now))` exclusive is a no-op apart from the
    /// busy-bank wait accounting that [`MemSys::skip_to`] reproduces, so
    /// the engine may jump straight to the returned cycle.
    pub fn next_event_at(&self, now: u64) -> u64 {
        if self.queued_items == 0 {
            return u64::MAX;
        }
        // The four NoC stages are covered by their earliest-ready caches —
        // conservative lower bounds, so the returned cycle may undershoot
        // the true next event. An early `step` is harmless: the stage walks
        // skip, and the bank walk accrues exactly the wait cycles that
        // `skip_to` would otherwise have accounted for that cycle.
        let mut next = self
            .next_arb_req
            .min(self.next_port_req)
            .min(self.next_port_resp)
            .min(self.next_arb_resp);
        if let Some(h) = self.fault_q.front() {
            next = next.min(h.ready_at);
        }
        self.occ_banks.for_each(|b| {
            let h = self.banks[b].queue.front().expect("occupied queue");
            next = next.min(self.banks[b].busy_until.max(h.ready_at));
        });
        next.max(now + 1)
    }

    /// Account for the cycles in `(from, to)` exclusive that the engine
    /// skipped instead of stepping. The only per-cycle side effect of a
    /// quiescent `step` is `bank_wait_cycles += 1` for each occupied bank
    /// still busy that cycle; everything else is gated on a head's
    /// `ready_at`, which [`MemSys::next_event_at`] guarantees lies at or
    /// beyond `to`.
    pub fn skip_to(&mut self, from: u64, to: u64) {
        if self.queued_items == 0 || to <= from + 1 {
            return;
        }
        for w in 0..self.occ_banks.words.len() {
            let mut bits = self.occ_banks.words[w];
            while bits != 0 {
                let b = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.stats.bank_wait_cycles +=
                    self.banks[b].busy_until.min(to).saturating_sub(from + 1);
            }
        }
    }

    /// Mirror the cache's hit/miss counters into the stats block. The
    /// [`Cache`] counters are the single source of truth; this snapshot
    /// exists so `MemSysStats` is self-contained once exported. Called
    /// automatically by [`MemSys::drain_completions_into`], so the stats
    /// block is never stale by more than one in-flight batch.
    pub fn sync_cache_stats(&mut self) {
        self.stats.cache_hits = self.cache.hits;
        self.stats.cache_misses = self.cache.misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> Fabric {
        Fabric::monaco(12, 12, 3).unwrap()
    }

    fn run_until_complete(ms: &mut MemSys, mem: &mut SimMemory, start: u64) -> Vec<Completion> {
        let (mut out, mut batch) = (Vec::new(), Vec::new());
        let mut t = start;
        while ms.busy() {
            ms.step(t, mem);
            ms.drain_completions_into(&mut batch);
            out.append(&mut batch);
            t += 1;
            assert!(t < start + 10_000, "memory system livelock");
        }
        out
    }

    #[test]
    fn d0_load_is_fast_and_far_domain_is_slower() {
        let f = fabric();
        let p = MemParams::tiny();
        let mut mem = SimMemory::new(&p);
        mem.write(5, 77);

        let latency_from = |pe: PeId| {
            let mut ms = MemSys::new(&f, MemoryModel::Nupea, p, 1, 0);
            let mut m = mem.clone();
            ms.issue(
                MemRequest {
                    node: 0,
                    seq: 0,
                    is_store: false,
                    addr: 5,
                    value: 0,
                    pe,
                    issued_at: 0,
                },
                0,
            );
            let done = run_until_complete(&mut ms, &mut m, 0);
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].value, 77);
            assert!(!done[0].fault);
            done[0].latency
        };

        let d0 = latency_from(f.at(1, 11));
        let d1 = latency_from(f.at(1, 8));
        let d3 = latency_from(f.at(1, 0));
        assert!(d0 < d1, "D0 ({d0}) must beat D1 ({d1})");
        assert!(d1 < d3, "D1 ({d1}) must beat D3 ({d3})");
        // D0 sees no fabric-memory NoC delay at all (§6): inject + miss.
        assert_eq!(d0, 1 + p.hit_latency + p.miss_latency);
        // Each farther domain adds arbitration on both request and response
        // paths; D3 pays at least 6 more cycles than D0.
        assert!(d3 - d0 >= 6, "d3={d3} d0={d0}");
    }

    #[test]
    fn upea_delay_scales_with_n_and_divider() {
        let f = fabric();
        let p = MemParams::tiny();
        let lat = |n: u32, divider: u64| {
            let mut ms = MemSys::new(&f, MemoryModel::Upea(n), p, divider, 0);
            let mut mem = SimMemory::new(&p);
            ms.issue(
                MemRequest {
                    node: 0,
                    seq: 0,
                    is_store: false,
                    addr: 0,
                    value: 0,
                    pe: f.at(1, 0),
                    issued_at: 0,
                },
                0,
            );
            run_until_complete(&mut ms, &mut mem, 0)[0].latency
        };
        assert_eq!(lat(2, 1) - lat(0, 1), 2, "2 fabric cycles at divider 1");
        assert_eq!(lat(2, 2) - lat(0, 2), 4, "2 fabric cycles at divider 2");
        assert_eq!(lat(4, 1) - lat(0, 1), 4);
    }

    #[test]
    fn numa_local_access_skips_delay() {
        let f = fabric();
        let p = MemParams::tiny();
        let mut ms = MemSys::new(&f, MemoryModel::NumaUpea(4), p, 1, 42);
        let pe = f.at(1, 0);
        let pe_domain = ms.numa_of[pe.index()].unwrap();
        // Find a local and a remote address (line-granular interleave).
        let local_addr = (0..64)
            .map(|l| (l * p.line_words) as i64)
            .find(|&a| ms.numa_domain_of_addr(a) == pe_domain)
            .unwrap();
        let remote_addr = (0..64)
            .map(|l| (l * p.line_words) as i64)
            .find(|&a| ms.numa_domain_of_addr(a) != pe_domain)
            .unwrap();
        let mut mem = SimMemory::new(&p);
        ms.issue(
            MemRequest {
                node: 0,
                seq: 0,
                is_store: false,
                addr: local_addr,
                value: 0,
                pe,
                issued_at: 0,
            },
            0,
        );
        let local_lat = run_until_complete(&mut ms, &mut mem, 0)[0].latency;
        ms.issue(
            MemRequest {
                node: 0,
                seq: 1,
                is_store: false,
                addr: remote_addr,
                value: 0,
                pe,
                issued_at: 100,
            },
            100,
        );
        let remote_lat = run_until_complete(&mut ms, &mut mem, 100)[0].latency;
        assert_eq!(remote_lat - local_lat, 4, "remote pays 4 fabric cycles");
    }

    #[test]
    fn stores_write_memory_and_complete() {
        let f = fabric();
        let p = MemParams::tiny();
        let mut ms = MemSys::new(&f, MemoryModel::Nupea, p, 1, 0);
        let mut mem = SimMemory::new(&p);
        ms.issue(
            MemRequest {
                node: 3,
                seq: 0,
                is_store: true,
                addr: 9,
                value: 123,
                pe: f.at(1, 11),
                issued_at: 0,
            },
            0,
        );
        let done = run_until_complete(&mut ms, &mut mem, 0);
        assert_eq!(done.len(), 1);
        assert_eq!(mem.read(9), 123);
    }

    #[test]
    fn out_of_bounds_faults() {
        let f = fabric();
        let p = MemParams::tiny();
        let mut ms = MemSys::new(&f, MemoryModel::IDEAL, p, 1, 0);
        let mut mem = SimMemory::new(&p);
        ms.issue(
            MemRequest {
                node: 0,
                seq: 0,
                is_store: false,
                addr: -3,
                value: 0,
                pe: f.at(1, 11),
                issued_at: 0,
            },
            0,
        );
        let done = run_until_complete(&mut ms, &mut mem, 0);
        assert!(done[0].fault);
        assert_eq!(done[0].bank, FAULT_BANK, "faults never touch a bank");
    }

    /// Faulting accesses (negative and past-the-end, loads and stores,
    /// under every model) must bypass arbiters, banks, and the cache
    /// entirely — they used to clamp onto bank 0 / NUMA domain 0 and
    /// pollute conflict statistics.
    #[test]
    fn faults_bypass_banks_and_leave_stats_clean() {
        let f = fabric();
        let p = MemParams::tiny();
        for model in [
            MemoryModel::Nupea,
            MemoryModel::IDEAL,
            MemoryModel::Upea(3),
            MemoryModel::NumaUpea(2),
        ] {
            let mut ms = MemSys::new(&f, model, p, 1, 0);
            let mut mem = SimMemory::new(&p);
            // A far-domain PE so a real NUPEA request would pay arbiter
            // forwards — a fault must not.
            let pe = f.at(1, 0);
            for (seq, (addr, is_store)) in [
                (-3i64, false),
                (p.mem_words as i64, false),
                (-1, true),
                (i64::MAX, true),
            ]
            .into_iter()
            .enumerate()
            {
                ms.issue(
                    MemRequest {
                        node: 0,
                        seq: seq as u64,
                        is_store,
                        addr,
                        value: 1,
                        pe,
                        issued_at: 0,
                    },
                    0,
                );
            }
            let done = run_until_complete(&mut ms, &mut mem, 0);
            assert_eq!(done.len(), 4, "{model}: all faults complete");
            for c in &done {
                assert!(c.fault, "{model}");
                assert_eq!(c.bank, FAULT_BANK, "{model}");
                assert!(!c.hit, "{model}");
            }
            assert_eq!(
                ms.stats.requests, 4,
                "{model}: faults still count as requests"
            );
            assert_eq!(ms.stats.arbiter_forwards, 0, "{model}: no arbitration");
            assert_eq!(ms.stats.bank_wait_cycles, 0, "{model}: no bank queueing");
            assert_eq!(
                ms.cache().hits + ms.cache().misses,
                0,
                "{model}: no cache access"
            );
            assert_eq!(ms.stats.cache_hits + ms.stats.cache_misses, 0, "{model}");
        }
    }

    /// The cache counters are the single source of truth: after any mix of
    /// faulting and real accesses, the stats block exactly mirrors them
    /// (the old dual accounting diverged on fault-path accesses).
    #[test]
    fn cache_stats_never_diverge_from_cache_counters() {
        let f = fabric();
        let p = MemParams::tiny();
        let mut ms = MemSys::new(&f, MemoryModel::Nupea, p, 1, 0);
        let mut mem = SimMemory::new(&p);
        let pe = f.at(1, 11);
        // Interleave real accesses (some hitting, some missing) and faults.
        let addrs: &[i64] = &[0, 1, -5, p.line_words as i64, 0, -1, 1, 4096];
        for (seq, &addr) in addrs.iter().enumerate() {
            ms.issue(
                MemRequest {
                    node: 0,
                    seq: seq as u64,
                    is_store: seq % 3 == 0,
                    addr,
                    value: 7,
                    pe,
                    issued_at: seq as u64 * 40,
                },
                seq as u64 * 40,
            );
            let done = run_until_complete(&mut ms, &mut mem, seq as u64 * 40);
            assert_eq!(done.len(), 1);
            // After every drain the mirrored stats match the live counters.
            assert_eq!(ms.stats.cache_hits, ms.cache().hits, "after {addr}");
            assert_eq!(ms.stats.cache_misses, ms.cache().misses, "after {addr}");
        }
        let faults = addrs
            .iter()
            .filter(|&&a| a < 0 || a as usize >= p.mem_words)
            .count() as u64;
        assert_eq!(
            ms.cache().hits + ms.cache().misses,
            addrs.len() as u64 - faults,
            "every non-faulting access touches the cache exactly once"
        );
        // Per-completion hit flags agree with the aggregate too.
        assert!(ms.stats.cache_hits > 0 && ms.stats.cache_misses > 0);
    }

    #[test]
    fn arbiter_contention_serializes_requests() {
        // Two D3 PEs in the same row share the D3 arbiter: their requests
        // cannot both advance in the same cycle.
        let f = fabric();
        let p = MemParams::tiny();
        let mut ms = MemSys::new(&f, MemoryModel::Nupea, p, 1, 0);
        let mut mem = SimMemory::new(&p);
        for (i, col) in [0usize, 1].into_iter().enumerate() {
            ms.issue(
                MemRequest {
                    node: i as u32,
                    seq: 0,
                    is_store: false,
                    addr: (i * p.line_words * p.banks) as i64, // distinct banks? same bank class — distinct lines anyway
                    value: 0,
                    pe: f.at(1, col),
                    issued_at: 0,
                },
                0,
            );
        }
        let done = run_until_complete(&mut ms, &mut mem, 0);
        assert_eq!(done.len(), 2);
        let mut lats: Vec<u64> = done.iter().map(|c| c.latency).collect();
        lats.sort_unstable();
        assert!(
            lats[1] > lats[0],
            "second request must queue behind the first: {lats:?}"
        );
    }

    #[test]
    fn d0_ports_serialize_but_do_not_add_latency() {
        // Two D0 PEs on the same row use different direct ports: their
        // single requests proceed independently. Two requests from the SAME
        // PE in the same cycle are impossible (one issue per tick), but two
        // PEs sharing one port (D0 shared with the D1 arbiter) serialize.
        let f = fabric();
        let p = MemParams::tiny();
        let mut ms = MemSys::new(&f, MemoryModel::Nupea, p, 1, 0);
        let mut mem = SimMemory::new(&p);
        // D0 PE at col 9 shares its port with D1's arbiter; issue one from
        // each and check both complete, the D1 one strictly later.
        let d0_pe = f.at(1, 9);
        let d1_pe = f.at(1, 8);
        assert_eq!(f.fmnoc().port_of(d0_pe), f.fmnoc().port_of(d1_pe));
        for (i, pe) in [d0_pe, d1_pe].into_iter().enumerate() {
            ms.issue(
                MemRequest {
                    node: i as u32,
                    seq: i as u64,
                    is_store: false,
                    addr: (i * p.line_words) as i64,
                    value: 0,
                    pe,
                    issued_at: 0,
                },
                0,
            );
        }
        let done = run_until_complete(&mut ms, &mut mem, 0);
        assert_eq!(done.len(), 2);
        let d0_lat = done.iter().find(|c| c.node == 0).unwrap().latency;
        let d1_lat = done.iter().find(|c| c.node == 1).unwrap().latency;
        assert!(d1_lat > d0_lat, "D1 pays arbitration: {d0_lat} vs {d1_lat}");
    }

    #[test]
    fn bank_conflicts_serialize_same_bank_requests() {
        let f = fabric();
        let p = MemParams::tiny();
        let mut ms = MemSys::new(&f, MemoryModel::IDEAL, p, 1, 0);
        let mut mem = SimMemory::new(&p);
        // Same line => same bank; issue 4 requests at once from 4 D0 PEs.
        for i in 0..4u32 {
            ms.issue(
                MemRequest {
                    node: i,
                    seq: u64::from(i),
                    is_store: false,
                    addr: i64::from(i), // same line, same bank
                    value: 0,
                    pe: f.at(1 + 2 * (i as usize % 3), 11),
                    issued_at: 0,
                },
                0,
            );
        }
        let done = run_until_complete(&mut ms, &mut mem, 0);
        let mut lats: Vec<u64> = done.iter().map(|c| c.latency).collect();
        lats.sort_unstable();
        // First is a miss (hit+miss latency), later ones queue behind the
        // busy bank but hit in the cache.
        assert_eq!(lats[0], 1 + p.hit_latency + p.miss_latency);
        assert!(lats[3] > lats[0], "bank conflicts must queue: {lats:?}");
    }

    #[test]
    fn different_banks_proceed_in_parallel() {
        let f = fabric();
        let p = MemParams::tiny();
        let mut ms = MemSys::new(&f, MemoryModel::IDEAL, p, 1, 0);
        let mut mem = SimMemory::new(&p);
        for i in 0..4u32 {
            ms.issue(
                MemRequest {
                    node: i,
                    seq: u64::from(i),
                    is_store: false,
                    addr: (i as usize * p.line_words) as i64, // distinct banks
                    value: 0,
                    pe: f.at(1, 11),
                    issued_at: 0,
                },
                0,
            );
        }
        let done = run_until_complete(&mut ms, &mut mem, 0);
        let lats: Vec<u64> = done.iter().map(|c| c.latency).collect();
        let expect = 1 + p.hit_latency + p.miss_latency;
        assert!(
            lats.iter().all(|&l| l == expect),
            "independent banks must not queue: {lats:?}"
        );
    }

    #[test]
    fn numa_assignment_spreads_addresses() {
        let f = fabric();
        let p = MemParams::tiny();
        let ms = MemSys::new(&f, MemoryModel::NumaUpea(2), p, 1, 3);
        let mut per_domain = [0usize; 4];
        for line in 0..256 {
            let addr = (line * p.line_words) as i64;
            per_domain[ms.numa_domain_of_addr(addr) as usize] += 1;
        }
        assert_eq!(per_domain.iter().sum::<usize>(), 256);
        for (d, &n) in per_domain.iter().enumerate() {
            assert_eq!(n, 64, "line-interleave must be uniform (domain {d})");
        }
    }

    #[test]
    fn cache_hit_is_faster_than_miss() {
        let f = fabric();
        let p = MemParams::tiny();
        let mut ms = MemSys::new(&f, MemoryModel::IDEAL, p, 1, 0);
        let mut mem = SimMemory::new(&p);
        let pe = f.at(1, 11);
        ms.issue(
            MemRequest {
                node: 0,
                seq: 0,
                is_store: false,
                addr: 0,
                value: 0,
                pe,
                issued_at: 0,
            },
            0,
        );
        let miss = run_until_complete(&mut ms, &mut mem, 0)[0].latency;
        ms.issue(
            MemRequest {
                node: 0,
                seq: 1,
                is_store: false,
                addr: 1,
                value: 0,
                pe,
                issued_at: 50,
            },
            50,
        );
        let hit = run_until_complete(&mut ms, &mut mem, 50)[0].latency;
        assert_eq!(miss - hit, p.miss_latency);
        assert_eq!(ms.cache().hits, 1);
        assert_eq!(ms.cache().misses, 1);
    }
}
