//! Time-resolved tracing: a zero-cost-when-disabled event recorder with a
//! Chrome trace-event / Perfetto JSON exporter.
//!
//! End-of-run totals ([`RunStats`](crate::engine::RunStats)) explain *how
//! much* happened; they cannot explain *when*. Mapping decisions — which
//! NUPEA domain a critical load landed in, which bank serializes a burst,
//! where backpressure originates — are only explainable with time-resolved
//! utilization data. This module records the simulator's microarchitectural
//! events into a bounded ring buffer:
//!
//! * PE firings (one span per instruction firing, tagged with the node's
//!   criticality class),
//! * token FIFO occupancy samples on every push and pop,
//! * data-NoC sends with hop counts,
//! * memory-request lifecycles (issue → bank dequeue → response-chain
//!   hops → delivery at the PE),
//! * watchdog stall snapshots.
//!
//! Recording is off by default ([`TraceConfig::OFF`]); when disabled the
//! engine's tracer is `None` and every record site reduces to one branch
//! on a discriminant — no allocation, no event construction. When enabled,
//! the ring keeps the most recent [`TraceConfig::capacity`] events and
//! counts what it dropped, so a runaway run cannot exhaust memory.
//!
//! Export with [`TraceBuffer::to_chrome_json`] and open the file in
//! `ui.perfetto.dev` (or `chrome://tracing`): PE firings appear as slices
//! on one track per PE, FIFO occupancy as counter tracks, and memory
//! lifecycles as async spans correlated by sequence number.

use crate::engine::DomainLatency;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Tracing configuration, carried in
/// [`SimConfig`](crate::engine::SimConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record events at all. Off by default; the engine allocates no
    /// tracer when disabled.
    pub enabled: bool,
    /// Ring-buffer capacity in events. When the ring is full the oldest
    /// event is dropped (and counted in [`TraceBuffer::dropped`]).
    pub capacity: usize,
}

impl TraceConfig {
    /// Tracing disabled (the default).
    pub const OFF: TraceConfig = TraceConfig {
        enabled: false,
        capacity: 0,
    };

    /// Tracing enabled with the default ring capacity (1 Mi events).
    #[must_use]
    pub fn on() -> Self {
        TraceConfig {
            enabled: true,
            capacity: 1 << 20,
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::OFF
    }
}

/// Sentinel for "the issuing PE has no NUPEA domain" in
/// [`TraceEvent::MemDeliver`].
pub const NO_DOMAIN: u8 = u8::MAX;

/// One microarchitectural event. Timestamps (system cycles) are carried
/// alongside the event in the buffer, not inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// A node fired at a fabric tick.
    Fire {
        /// DFG node index.
        node: u32,
    },
    /// A token was delivered into an input FIFO.
    FifoPush {
        /// Consumer node.
        node: u32,
        /// Input port.
        port: u8,
        /// Occupancy after the push (saturated at 255).
        occupancy: u8,
    },
    /// A token was consumed from an input FIFO.
    FifoPop {
        /// Consumer node.
        node: u32,
        /// Input port.
        port: u8,
        /// Occupancy after the pop (saturated at 255).
        occupancy: u8,
    },
    /// A token left `src` for `dst` over the data NoC.
    NocSend {
        /// Producer node.
        src: u32,
        /// Consumer node.
        dst: u32,
        /// Manhattan hop count between the two PEs.
        hops: u16,
    },
    /// A memory request was issued by a load/store node.
    MemIssue {
        /// Issuing node.
        node: u32,
        /// Per-node sequence number (correlates the lifecycle).
        seq: u64,
        /// Store (true) or load (false).
        is_store: bool,
    },
    /// The request was dequeued and serviced by a bank.
    MemBank {
        /// Issuing node.
        node: u32,
        /// Sequence number.
        seq: u64,
        /// Servicing bank (`u16::MAX` = fault path, no bank touched).
        bank: u16,
        /// Cache hit?
        hit: bool,
    },
    /// The response was delivered back at the issuing PE.
    MemDeliver {
        /// Issuing node.
        node: u32,
        /// Sequence number.
        seq: u64,
        /// Store (true) or load (false).
        is_store: bool,
        /// NUPEA domain of the issuing PE ([`NO_DOMAIN`] when none).
        domain: u8,
        /// Response-network arbiter hops the response traversed.
        resp_hops: u16,
        /// End-to-end latency in system cycles.
        latency: u64,
    },
    /// A watchdog / deadlock stall snapshot was taken.
    StallSnapshot {
        /// Number of stalled nodes in the report.
        stalled_nodes: u32,
        /// Residual buffered tokens.
        residual_tokens: u32,
    },
}

/// Bounded ring-buffered recorder: keeps the most recent `capacity`
/// events, dropping the oldest on overflow. The engine drives it at every
/// instrumented point.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    buf: VecDeque<(u64, TraceEvent)>,
    capacity: usize,
    dropped: u64,
    total: u64,
}

impl RingRecorder {
    /// A recorder holding at most `capacity` events (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingRecorder {
            buf: VecDeque::with_capacity(capacity.min(1 << 16)),
            capacity,
            dropped: 0,
            total: 0,
        }
    }

    /// Record `ev` at system-cycle `ts`.
    #[inline]
    pub fn record(&mut self, ts: u64, ev: TraceEvent) {
        self.total += 1;
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back((ts, ev));
    }

    /// Events currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or everything was dropped).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events dropped to overflow so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Finish recording: attach run metadata and return the buffer.
    #[must_use]
    pub fn into_buffer(self, meta: TraceMeta) -> TraceBuffer {
        TraceBuffer {
            meta,
            events: self.buf.into_iter().collect(),
            dropped: self.dropped,
            total: self.total,
        }
    }
}

/// Static per-run metadata the exporter needs to label tracks: one entry
/// per DFG node.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct TraceMeta {
    /// Trace name (workload + memory model, free-form).
    pub name: String,
    /// Fabric clock divider (one fabric tick = `divider` system cycles).
    pub divider: u64,
    /// Per-node op label (`Debug` form).
    pub node_op: Vec<String>,
    /// Per-node placed PE index.
    pub node_pe: Vec<u32>,
    /// Per-node NUPEA domain of the placed PE ([`NO_DOMAIN`] when none).
    pub node_domain: Vec<u8>,
    /// Per-node criticality annotation: true for loads/stores classified
    /// `Critical` by the kernel's criticality analysis.
    pub node_critical: Vec<bool>,
    /// Number of NUPEA domains on the fabric.
    pub num_domains: u8,
}

/// A finished trace: recorded events (in record order) plus metadata and
/// overflow accounting.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TraceBuffer {
    /// Run metadata (node labels, placement, criticality).
    pub meta: TraceMeta,
    events: Vec<(u64, TraceEvent)>,
    /// Events dropped to ring overflow. When non-zero, aggregations over
    /// this buffer are partial.
    pub dropped: u64,
    /// Events recorded in total (buffered + dropped).
    pub total: u64,
}

impl TraceBuffer {
    /// The surviving events as `(system_cycle, event)`, in record order.
    /// Record order is non-decreasing in time for same-site events;
    /// lifecycle back-annotations (e.g. [`TraceEvent::MemBank`], recorded
    /// when the completion drains) may be locally out of order, which the
    /// exporter handles by sorting.
    #[must_use]
    pub fn events(&self) -> &[(u64, TraceEvent)] {
        &self.events
    }

    /// Aggregate completed-load latency by the issuing PE's NUPEA domain,
    /// purely from [`TraceEvent::MemDeliver`] events — the time-resolved
    /// counterpart of `RunStats::load_latency_by_domain`. When no events
    /// were dropped, the two agree exactly.
    #[must_use]
    pub fn load_latency_by_domain(&self) -> Vec<DomainLatency> {
        let n = usize::from(self.meta.num_domains).max(1);
        let mut out = vec![DomainLatency::default(); n];
        for &(_, ev) in &self.events {
            if let TraceEvent::MemDeliver {
                is_store: false,
                domain,
                latency,
                ..
            } = ev
            {
                if domain != NO_DOMAIN && usize::from(domain) < n {
                    let slot = &mut out[usize::from(domain)];
                    slot.total_latency += latency;
                    slot.count += 1;
                }
            }
        }
        out
    }

    /// Per-PE firing counts derived from [`TraceEvent::Fire`] events
    /// (keyed by PE index; PEs that never fired are absent).
    #[must_use]
    pub fn firings_per_pe(&self) -> Vec<(u32, u64)> {
        let mut map: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for &(_, ev) in &self.events {
            if let TraceEvent::Fire { node } = ev {
                if let Some(&pe) = self.meta.node_pe.get(node as usize) {
                    *map.entry(pe).or_default() += 1;
                }
            }
        }
        map.into_iter().collect()
    }

    fn node_label(&self, node: u32) -> String {
        let op = self
            .meta
            .node_op
            .get(node as usize)
            .map_or("?", String::as_str);
        format!("{op} n{node}")
    }

    /// Export as Chrome trace-event JSON (the "JSON Object Format"), which
    /// both `chrome://tracing` and `ui.perfetto.dev` open directly.
    ///
    /// Layout: pid 0 = the fabric (one tid per PE; firings are `X` slices
    /// of one fabric tick, NoC sends are `i` instants); pid 1 = the memory
    /// system (lifecycles are `b`/`n`/`e` async spans correlated by
    /// `node:seq`); FIFO occupancy is exported as `C` counter events;
    /// stall snapshots as global `i` instants. Timestamps are system
    /// cycles reported as microseconds (1 cycle = 1 µs in the UI).
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut evs: Vec<(u64, usize, &TraceEvent)> = self
            .events
            .iter()
            .enumerate()
            .map(|(i, (ts, ev))| (*ts, i, ev))
            .collect();
        // Stable order: timestamp first, record order as the tiebreak.
        evs.sort_by_key(|&(ts, i, _)| (ts, i));

        let mut out = String::with_capacity(evs.len() * 96 + 4096);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
        let _ = write!(
            out,
            "\"trace\":\"{}\",\"divider\":{},\"events_recorded\":{},\"events_dropped\":{}",
            escape(&self.meta.name),
            self.meta.divider,
            self.total,
            self.dropped
        );
        out.push_str("},\"traceEvents\":[\n");

        let mut first = true;
        let mut push = |line: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        };

        // Process/thread naming metadata so Perfetto shows readable tracks.
        push(
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"fabric\"}}"
                .to_string(),
            &mut out,
        );
        push(
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"memory\"}}"
                .to_string(),
            &mut out,
        );
        let mut named_pes: Vec<u32> = self.meta.node_pe.clone();
        named_pes.sort_unstable();
        named_pes.dedup();
        for pe in named_pes {
            let domain = self
                .meta
                .node_pe
                .iter()
                .position(|&p| p == pe)
                .map_or(NO_DOMAIN, |i| self.meta.node_domain[i]);
            let dlabel = if domain == NO_DOMAIN {
                String::new()
            } else {
                format!(" D{domain}")
            };
            push(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{pe},\
                     \"args\":{{\"name\":\"PE {pe}{dlabel}\"}}}}"
                ),
                &mut out,
            );
        }

        let divider = self.meta.divider.max(1);
        for (ts, _, ev) in evs {
            let line = match *ev {
                TraceEvent::Fire { node } => {
                    let pe = self.meta.node_pe.get(node as usize).copied().unwrap_or(0);
                    let crit = self
                        .meta
                        .node_critical
                        .get(node as usize)
                        .copied()
                        .unwrap_or(false);
                    let cat = if crit { "fire,critical" } else { "fire" };
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{ts},\
                         \"dur\":{divider},\"pid\":0,\"tid\":{pe}}}",
                        escape(&self.node_label(node)),
                    )
                }
                TraceEvent::FifoPush {
                    node,
                    port,
                    occupancy,
                }
                | TraceEvent::FifoPop {
                    node,
                    port,
                    occupancy,
                } => {
                    let pe = self.meta.node_pe.get(node as usize).copied().unwrap_or(0);
                    format!(
                        "{{\"name\":\"fifo n{node}p{port}\",\"cat\":\"fifo\",\"ph\":\"C\",\
                         \"ts\":{ts},\"pid\":0,\"tid\":{pe},\
                         \"args\":{{\"occupancy\":{occupancy}}}}}"
                    )
                }
                TraceEvent::NocSend { src, dst, hops } => {
                    let pe = self.meta.node_pe.get(src as usize).copied().unwrap_or(0);
                    format!(
                        "{{\"name\":\"noc {src}->{dst}\",\"cat\":\"noc\",\"ph\":\"i\",\
                         \"ts\":{ts},\"pid\":0,\"tid\":{pe},\"s\":\"t\",\
                         \"args\":{{\"hops\":{hops}}}}}"
                    )
                }
                TraceEvent::MemIssue {
                    node,
                    seq,
                    is_store,
                } => {
                    let kind = if is_store { "store" } else { "load" };
                    format!(
                        "{{\"name\":\"{kind} {}\",\"cat\":\"mem\",\"ph\":\"b\",\"ts\":{ts},\
                         \"pid\":1,\"tid\":{node},\"id\":\"{node}:{seq}\"}}",
                        escape(&self.node_label(node)),
                    )
                }
                TraceEvent::MemBank {
                    node,
                    seq,
                    bank,
                    hit,
                } => {
                    format!(
                        "{{\"name\":\"bank\",\"cat\":\"mem\",\"ph\":\"n\",\"ts\":{ts},\
                         \"pid\":1,\"tid\":{node},\"id\":\"{node}:{seq}\",\
                         \"args\":{{\"bank\":{bank},\"hit\":{hit}}}}}"
                    )
                }
                TraceEvent::MemDeliver {
                    node,
                    seq,
                    is_store,
                    domain,
                    resp_hops,
                    latency,
                } => {
                    let kind = if is_store { "store" } else { "load" };
                    format!(
                        "{{\"name\":\"{kind} {}\",\"cat\":\"mem\",\"ph\":\"e\",\"ts\":{ts},\
                         \"pid\":1,\"tid\":{node},\"id\":\"{node}:{seq}\",\
                         \"args\":{{\"domain\":{domain},\"resp_hops\":{resp_hops},\
                         \"latency\":{latency}}}}}",
                        escape(&self.node_label(node)),
                    )
                }
                TraceEvent::StallSnapshot {
                    stalled_nodes,
                    residual_tokens,
                } => {
                    format!(
                        "{{\"name\":\"stall\",\"cat\":\"watchdog\",\"ph\":\"i\",\"ts\":{ts},\
                         \"pid\":0,\"tid\":0,\"s\":\"g\",\
                         \"args\":{{\"stalled_nodes\":{stalled_nodes},\
                         \"residual_tokens\":{residual_tokens}}}}}"
                    )
                }
            };
            push(line, &mut out);
        }
        out.push_str("\n]}");
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Chrome trace-event schema validation (used by tests and the
// `trace_check` CI binary). A minimal JSON parser lives here so the
// workspace stays dependency-free.
// ---------------------------------------------------------------------------

/// Summary of a validated Chrome trace-event JSON document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ChromeTraceSummary {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Complete (`X`) duration events.
    pub complete: usize,
    /// Counter (`C`) events.
    pub counters: usize,
    /// Instant (`i`) events.
    pub instants: usize,
    /// Async begin/instant/end (`b`/`n`/`e`) events.
    pub asyncs: usize,
    /// Metadata (`M`) events.
    pub metadata: usize,
}

/// Validate a Chrome trace-event JSON document (object format): a top
/// level object with a `traceEvents` array whose entries each carry the
/// keys the schema requires for their phase (`name`/`ph` strings, numeric
/// `ts`/`pid`/`tid` on non-metadata events, an `id` on async events, an
/// `args.occupancy`-style object where present).
///
/// # Errors
///
/// Returns a description of the first schema violation (or JSON syntax
/// error) found.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceSummary, String> {
    let value = json::parse(text)?;
    let json::Value::Object(top) = &value else {
        return Err("top level must be a JSON object".into());
    };
    let events = top
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .ok_or("missing \"traceEvents\" key")?;
    let json::Value::Array(items) = events else {
        return Err("\"traceEvents\" must be an array".into());
    };
    let mut summary = ChromeTraceSummary {
        events: items.len(),
        ..ChromeTraceSummary::default()
    };
    for (i, item) in items.iter().enumerate() {
        let json::Value::Object(ev) = item else {
            return Err(format!("event {i}: not an object"));
        };
        let get = |key: &str| ev.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let ph = match get("ph") {
            Some(json::Value::String(s)) if s.chars().count() == 1 => s.clone(),
            Some(_) => return Err(format!("event {i}: \"ph\" must be a 1-char string")),
            None => return Err(format!("event {i}: missing \"ph\"")),
        };
        match get("name") {
            Some(json::Value::String(_)) => {}
            _ => return Err(format!("event {i}: missing string \"name\"")),
        }
        let want_num = |key: &str| match get(key) {
            Some(json::Value::Number(x)) if x.is_finite() => Ok(()),
            _ => Err(format!("event {i} (ph {ph}): missing numeric \"{key}\"")),
        };
        match ph.as_str() {
            "M" => summary.metadata += 1,
            "X" => {
                want_num("ts")?;
                want_num("dur")?;
                want_num("pid")?;
                want_num("tid")?;
                summary.complete += 1;
            }
            "C" => {
                want_num("ts")?;
                want_num("pid")?;
                match get("args") {
                    Some(json::Value::Object(_)) => {}
                    _ => return Err(format!("event {i}: counter needs an \"args\" object")),
                }
                summary.counters += 1;
            }
            "i" | "I" => {
                want_num("ts")?;
                want_num("pid")?;
                want_num("tid")?;
                summary.instants += 1;
            }
            "b" | "n" | "e" => {
                want_num("ts")?;
                want_num("pid")?;
                if get("id").is_none() {
                    return Err(format!("event {i}: async event (ph {ph}) needs an \"id\""));
                }
                summary.asyncs += 1;
            }
            other => return Err(format!("event {i}: unknown phase \"{other}\"")),
        }
    }
    Ok(summary)
}

/// Minimal recursive-descent JSON parser (strings, numbers, bools, null,
/// arrays, objects) — just enough to validate exported traces without an
/// external dependency.
mod json {
    pub enum Value {
        Null,
        /// The validator never needs the truth value, only the type.
        Bool,
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, *pos))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => Ok(Value::String(string(b, pos)?)),
            Some(b't') => lit(b, pos, b"true").map(|()| Value::Bool),
            Some(b'f') => lit(b, pos, b"false").map(|()| Value::Bool),
            Some(b'n') => lit(b, pos, b"null").map(|()| Value::Null),
            Some(_) => number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn lit(b: &[u8], pos: &mut usize, want: &[u8]) -> Result<(), String> {
        if b.len() - *pos >= want.len() && &b[*pos..*pos + want.len()] == want {
            *pos += want.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", *pos))
        }
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                c if c < 0x20 => return Err(format!("raw control char at byte {}", *pos)),
                _ => {
                    // Bulk-copy the run of unescaped bytes. The delimiters
                    // (quote, backslash, control chars) are all ASCII, so a
                    // run bounded by them within a `&str` is valid UTF-8.
                    let start = *pos;
                    while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\' | 0x00..=0x1f) {
                        *pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&b[start..*pos])
                            .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
                    );
                }
            }
        }
        Err("unterminated string".into())
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }

    fn object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = string(b, pos)?;
            expect(b, pos, b':')?;
            let v = value(b, pos)?;
            fields.push((key, v));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(nodes: usize) -> TraceMeta {
        TraceMeta {
            name: "unit".to_string(),
            divider: 2,
            node_op: (0..nodes).map(|i| format!("Op{i}")).collect(),
            node_pe: (0..nodes as u32).collect(),
            node_domain: vec![0; nodes],
            node_critical: vec![false; nodes],
            num_domains: 4,
        }
    }

    #[test]
    fn ring_preserves_record_order() {
        let mut r = RingRecorder::new(16);
        for t in 0..10u64 {
            r.record(t, TraceEvent::Fire { node: t as u32 });
        }
        let buf = r.into_buffer(meta(10));
        let times: Vec<u64> = buf.events().iter().map(|&(t, _)| t).collect();
        assert_eq!(times, (0..10).collect::<Vec<_>>());
        assert_eq!(buf.dropped, 0);
        assert_eq!(buf.total, 10);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let mut r = RingRecorder::new(4);
        for t in 0..10u64 {
            r.record(t, TraceEvent::Fire { node: t as u32 });
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let buf = r.into_buffer(meta(10));
        let times: Vec<u64> = buf.events().iter().map(|&(t, _)| t).collect();
        assert_eq!(times, vec![6, 7, 8, 9], "most recent events survive");
        assert_eq!(buf.total, 10);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut r = RingRecorder::new(0);
        r.record(1, TraceEvent::Fire { node: 0 });
        r.record(2, TraceEvent::Fire { node: 1 });
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn domain_aggregation_counts_loads_only() {
        let mut r = RingRecorder::new(64);
        for (seq, (domain, latency, is_store)) in [
            (0u8, 10u64, false),
            (1, 20, false),
            (0, 30, false),
            (2, 99, true),
        ]
        .into_iter()
        .enumerate()
        {
            r.record(
                100 + seq as u64,
                TraceEvent::MemDeliver {
                    node: 0,
                    seq: seq as u64,
                    is_store,
                    domain,
                    resp_hops: 0,
                    latency,
                },
            );
        }
        // A delivery with no domain must be skipped too.
        r.record(
            200,
            TraceEvent::MemDeliver {
                node: 0,
                seq: 9,
                is_store: false,
                domain: NO_DOMAIN,
                resp_hops: 0,
                latency: 1,
            },
        );
        let buf = r.into_buffer(meta(1));
        let agg = buf.load_latency_by_domain();
        assert_eq!(agg.len(), 4);
        assert_eq!((agg[0].total_latency, agg[0].count), (40, 2));
        assert_eq!((agg[1].total_latency, agg[1].count), (20, 1));
        assert_eq!(
            (agg[2].total_latency, agg[2].count),
            (0, 0),
            "stores skipped"
        );
    }

    #[test]
    fn chrome_export_sorts_by_timestamp_and_validates() {
        let mut r = RingRecorder::new(64);
        // Back-annotated event with an earlier timestamp than the previous
        // record: the exporter must sort it into place.
        r.record(5, TraceEvent::Fire { node: 0 });
        r.record(
            3,
            TraceEvent::MemBank {
                node: 1,
                seq: 1,
                bank: 2,
                hit: true,
            },
        );
        r.record(
            2,
            TraceEvent::MemIssue {
                node: 1,
                seq: 1,
                is_store: false,
            },
        );
        r.record(
            7,
            TraceEvent::MemDeliver {
                node: 1,
                seq: 1,
                is_store: false,
                domain: 0,
                resp_hops: 2,
                latency: 5,
            },
        );
        r.record(
            4,
            TraceEvent::NocSend {
                src: 0,
                dst: 1,
                hops: 3,
            },
        );
        r.record(
            4,
            TraceEvent::FifoPush {
                node: 1,
                port: 0,
                occupancy: 1,
            },
        );
        r.record(
            9,
            TraceEvent::StallSnapshot {
                stalled_nodes: 1,
                residual_tokens: 2,
            },
        );
        let json = r.into_buffer(meta(2)).to_chrome_json();
        let summary = validate_chrome_trace(&json).expect("schema-valid");
        assert_eq!(summary.complete, 1);
        assert_eq!(summary.asyncs, 3);
        assert_eq!(summary.counters, 1);
        assert_eq!(summary.instants, 2, "noc send + stall snapshot");
        assert!(summary.metadata >= 2, "process names present");
        // Timestamps of non-metadata events are non-decreasing.
        let mut last = 0.0f64;
        for part in json.split("\"ts\":").skip(1) {
            let ts: f64 = part.split([',', '}']).next().unwrap().parse().unwrap();
            assert!(ts >= last, "export must be time-sorted: {ts} after {last}");
            last = ts;
        }
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("[]").is_err(), "top must be object");
        assert!(
            validate_chrome_trace("{\"foo\":1}").is_err(),
            "no traceEvents"
        );
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err(),
            "missing ph"
        );
        assert!(
            validate_chrome_trace(
                "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":1,\"pid\":0,\"tid\":0}]}"
            )
            .is_err(),
            "complete event needs dur"
        );
        assert!(
            validate_chrome_trace(
                "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"b\",\"ts\":1,\"pid\":0,\"tid\":0}]}"
            )
            .is_err(),
            "async event needs id"
        );
        assert!(
            validate_chrome_trace("{\"traceEvents\":").is_err(),
            "syntax"
        );
        let ok = "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":1,\"dur\":2,\
                  \"pid\":0,\"tid\":3}]}";
        assert_eq!(validate_chrome_trace(ok).unwrap().complete, 1);
    }
}
