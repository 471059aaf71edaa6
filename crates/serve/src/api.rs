//! The serve API's request schema: one flat JSON object describing a
//! `(workload, system, heuristic, model)` point, shared by every POST
//! endpoint and by the `nupea_batch` CLI — one parser, so a served
//! `simulate` response and the batch CLI's record for the same config
//! are byte-identical by construction.
//!
//! ```json
//! {"workload":"spmv","par":2,"scale":"test","heuristic":"effcc",
//!  "model":"nupea","seed":7,"effort":100,"cycle_budget":1000000}
//! ```
//!
//! Parsing uses the repo's own [`nupea::jsonl`] field helpers (flat
//! objects, string and integer values), keeping the workspace
//! dependency-free. Unknown fields are ignored; unknown *values* for
//! known fields are errors, and so is a numeric field that is not a
//! non-negative integer in range (`-5`, `1.5`, `"7"`). A `null` field
//! counts as absent.

use nupea::jsonl;
use nupea::{Heuristic, MemoryModel, Scale, SystemConfig, Workload};
use nupea_kernels::workloads::workload_by_name;
use std::sync::Arc;

/// Request criticality tier — the serving-layer analogue of the
/// paper's critical-load classification. Under overload the bounded
/// queue sheds the lowest tier first, so latency-critical requests
/// keep flowing while bulk work absorbs the 429s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Latency-critical: shed last, dequeued first.
    Critical,
    /// The default tier for interactive requests.
    #[default]
    Normal,
    /// Bulk/best-effort: first to be shed under pressure.
    Batch,
}

impl Priority {
    /// Number of tiers (array dimension for per-tier accounting).
    pub const COUNT: usize = 3;

    /// Tier index: 0 = critical (highest) … 2 = batch (lowest).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Priority::Critical => 0,
            Priority::Normal => 1,
            Priority::Batch => 2,
        }
    }

    /// The tier at `index` (inverse of [`Priority::index`]).
    #[must_use]
    pub fn from_index(i: usize) -> Priority {
        match i {
            0 => Priority::Critical,
            1 => Priority::Normal,
            _ => Priority::Batch,
        }
    }

    /// The wire name (`critical`, `normal`, `batch`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Priority::Critical => "critical",
            Priority::Normal => "normal",
            Priority::Batch => "batch",
        }
    }

    /// Parse a wire name (case-insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<Priority> {
        match s.to_ascii_lowercase().as_str() {
            "critical" => Some(Priority::Critical),
            "normal" => Some(Priority::Normal),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }
}

/// A parsed request config with every field optional except the
/// workload; [`ConfigRequest::build`] resolves the defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigRequest {
    /// Workload name (Table 1), e.g. `"spmv"`.
    pub workload: String,
    /// Parallelism degree (default: 1 at test scale, the workload's
    /// hand-optimized degree at bench scale).
    pub par: Option<usize>,
    /// Input scale (default test).
    pub scale: Scale,
    /// Placement heuristic (default effcc / criticality-aware).
    pub heuristic: Heuristic,
    /// Memory model (default NUPEA).
    pub model: MemoryModel,
    /// PnR seed override.
    pub seed: Option<u64>,
    /// Annealing effort override.
    pub effort: Option<u32>,
    /// Token FIFO depth override.
    pub fifo_depth: Option<usize>,
    /// Max outstanding loads override.
    pub max_outstanding: Option<usize>,
    /// Per-request cycle budget (replaces the 2G runaway cap).
    pub cycle_budget: Option<u64>,
    /// Retry cap multiplier for budget-limited runs (default: no retry).
    pub retry_factor: Option<u64>,
    /// Fault injections for `/campaign` (default: the smoke preset's).
    pub injections: Option<u32>,
    /// End-to-end deadline in milliseconds, measured from request
    /// parse. Expired requests are answered `504` at batch-dequeue time
    /// without consuming a simulation slot, and the remaining deadline
    /// bounds `SimOptions::max_cycles` via the server's calibrated
    /// cycles-per-ms estimate.
    pub deadline_ms: Option<u64>,
    /// Criticality tier for admission control (default normal).
    pub priority: Priority,
    /// Chaos-testing hook (`"panic"` panics the worker job, proving
    /// `catch_unwind` isolation; `"sleep:MS"` stalls the job). Parsed by
    /// every consumer of the schema but only honored by the server's
    /// simulate path — and only when the server opted in
    /// (`ServeOptions::chaos_hooks` / `--chaos-hooks`; `403` otherwise);
    /// `nupea_batch` ignores it.
    pub x_chaos: Option<String>,
}

/// Parse a memory-model name: `nupea`, `ideal`, `upea<n>`,
/// `numa-upea<n>` (case-insensitive, matching [`MemoryModel::label`]).
#[must_use]
pub fn parse_model(s: &str) -> Option<MemoryModel> {
    let s = s.to_ascii_lowercase();
    if s == "nupea" {
        return Some(MemoryModel::Nupea);
    }
    if s == "ideal" {
        return Some(MemoryModel::IDEAL);
    }
    if let Some(n) = s.strip_prefix("numa-upea") {
        return n.parse().ok().map(MemoryModel::NumaUpea);
    }
    if let Some(n) = s.strip_prefix("upea") {
        return n.parse().ok().map(MemoryModel::Upea);
    }
    None
}

/// Parse a heuristic name as rendered by its `Display` impl:
/// `domain-unaware`, `only-domain-aware`, `effcc`.
#[must_use]
pub fn parse_heuristic(s: &str) -> Option<Heuristic> {
    match s.to_ascii_lowercase().as_str() {
        "domain-unaware" => Some(Heuristic::DomainUnaware),
        "only-domain-aware" => Some(Heuristic::OnlyDomainAware),
        "effcc" | "criticality-aware" => Some(Heuristic::CriticalityAware),
        _ => None,
    }
}

/// Drop all whitespace outside string literals, turning arbitrarily
/// formatted JSON into the compact single-line form the [`jsonl`] field
/// scanners expect. String contents (including escaped quotes) pass
/// through untouched.
fn compact(body: &str) -> String {
    let mut out = String::with_capacity(body.len());
    let mut in_str = false;
    let mut escaped = false;
    for c in body.chars() {
        if in_str {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
        } else if c == '"' {
            in_str = true;
            out.push(c);
        } else if !c.is_whitespace() {
            out.push(c);
        }
    }
    out
}

/// Numeric field `key` of a compact object: `None` when absent or `null`,
/// an error naming the field when present but not a `T`.
fn number<T: std::str::FromStr>(line: &str, key: &str) -> Result<Option<T>, String> {
    match jsonl::field(line, key).filter(|raw| raw != "null") {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid {key}: {raw}")),
    }
}

impl ConfigRequest {
    /// Parse a request body.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the missing or invalid field.
    pub fn parse(body: &str) -> Result<Self, String> {
        // The jsonl helpers expect compact one-line objects; strip
        // whitespace outside string values so pretty-printed client
        // JSON still parses.
        let line = compact(body);
        let workload =
            jsonl::string_field(&line, "workload").ok_or("missing required field: workload")?;
        let scale = match jsonl::string_field(&line, "scale").as_deref() {
            None | Some("test") => Scale::Test,
            Some("bench") => Scale::Bench,
            Some(other) => return Err(format!("unknown scale: {other}")),
        };
        let heuristic = match jsonl::string_field(&line, "heuristic") {
            None => Heuristic::CriticalityAware,
            Some(h) => parse_heuristic(&h).ok_or_else(|| format!("unknown heuristic: {h}"))?,
        };
        let model = match jsonl::string_field(&line, "model") {
            None => MemoryModel::Nupea,
            Some(m) => parse_model(&m).ok_or_else(|| format!("unknown model: {m}"))?,
        };
        let priority = match jsonl::string_field(&line, "priority") {
            None => Priority::Normal,
            Some(p) => Priority::parse(&p).ok_or_else(|| format!("unknown priority: {p}"))?,
        };
        Ok(ConfigRequest {
            workload,
            par: number(&line, "par")?,
            scale,
            heuristic,
            model,
            seed: number(&line, "seed")?,
            effort: number(&line, "effort")?,
            fifo_depth: number(&line, "fifo_depth")?,
            max_outstanding: number(&line, "max_outstanding")?,
            cycle_budget: number(&line, "cycle_budget")?,
            retry_factor: number(&line, "retry_factor")?,
            injections: number(&line, "injections")?,
            deadline_ms: number(&line, "deadline_ms")?,
            priority,
            x_chaos: jsonl::string_field(&line, "x_chaos"),
        })
    }

    /// Resolve the config into a concrete workload and system.
    ///
    /// # Errors
    ///
    /// A message naming an unknown workload.
    pub fn build(&self) -> Result<(Arc<Workload>, Arc<SystemConfig>), String> {
        let spec = workload_by_name(&self.workload).ok_or_else(|| {
            let known: Vec<&str> = nupea_kernels::workloads::all_workloads()
                .iter()
                .map(|w| w.name)
                .collect();
            format!(
                "unknown workload: {} (known: {})",
                self.workload,
                known.join(", ")
            )
        })?;
        let workload = match self.par {
            Some(par) => (spec.build)(self.scale, par),
            None => spec.build_default(self.scale),
        };
        let mut sys = SystemConfig::monaco_12x12();
        if let Some(seed) = self.seed {
            sys.seed = seed;
        }
        if let Some(effort) = self.effort {
            sys.effort = effort;
        }
        if let Some(depth) = self.fifo_depth {
            sys.fifo_depth = depth;
        }
        if let Some(n) = self.max_outstanding {
            sys.max_outstanding = n;
        }
        Ok((Arc::new(workload), Arc::new(sys)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_and_minimal_bodies() {
        let full = ConfigRequest::parse(
            "{\"workload\":\"spmv\",\"par\":2,\"scale\":\"bench\",\
             \"heuristic\":\"domain-unaware\",\"model\":\"upea2\",\"seed\":7,\
             \"effort\":50,\"fifo_depth\":8,\"max_outstanding\":4,\
             \"cycle_budget\":1000,\"retry_factor\":64,\"injections\":3}",
        )
        .unwrap();
        assert_eq!(full.workload, "spmv");
        assert_eq!(full.par, Some(2));
        assert_eq!(full.scale, Scale::Bench);
        assert_eq!(full.heuristic, Heuristic::DomainUnaware);
        assert_eq!(full.model, MemoryModel::Upea(2));
        assert_eq!(full.seed, Some(7));
        assert_eq!(full.effort, Some(50));
        assert_eq!(full.fifo_depth, Some(8));
        assert_eq!(full.max_outstanding, Some(4));
        assert_eq!(full.cycle_budget, Some(1000));
        assert_eq!(full.retry_factor, Some(64));
        assert_eq!(full.injections, Some(3));

        let minimal = ConfigRequest::parse("{\"workload\":\"spmspv\"}").unwrap();
        assert_eq!(minimal.workload, "spmspv");
        assert_eq!(minimal.par, None);
        assert_eq!(minimal.scale, Scale::Test);
        assert_eq!(minimal.heuristic, Heuristic::CriticalityAware);
        assert_eq!(minimal.model, MemoryModel::Nupea);

        // Pretty-printed JSON still parses (fields flattened onto one line).
        let pretty = ConfigRequest::parse("{\n  \"workload\": \"spmv\",\n  \"par\": 4\n}").unwrap();
        assert_eq!(pretty.workload, "spmv");
        assert_eq!(pretty.par, Some(4));
    }

    #[test]
    fn rejects_missing_and_unknown_values() {
        assert!(ConfigRequest::parse("{}").unwrap_err().contains("workload"));
        assert!(
            ConfigRequest::parse("{\"workload\":\"spmv\",\"scale\":\"huge\"}")
                .unwrap_err()
                .contains("scale")
        );
        assert!(
            ConfigRequest::parse("{\"workload\":\"spmv\",\"heuristic\":\"magic\"}")
                .unwrap_err()
                .contains("heuristic")
        );
        assert!(
            ConfigRequest::parse("{\"workload\":\"spmv\",\"model\":\"dram\"}")
                .unwrap_err()
                .contains("model")
        );
        let unknown = ConfigRequest::parse("{\"workload\":\"not-a-workload\"}").unwrap();
        assert!(unknown.build().unwrap_err().contains("unknown workload"));

        // A numeric field that is present but malformed is an error naming
        // it, never silently treated as absent.
        for (field, value) in [
            ("deadline_ms", "-5"),
            ("deadline_ms", "1.5"),
            ("cycle_budget", "\"100\""),
            ("seed", "\"7\""),
            ("effort", "99999999999"),
            ("par", "\"two\""),
        ] {
            let body = format!("{{\"workload\":\"spmv\",\"{field}\":{value}}}");
            let err = ConfigRequest::parse(&body).unwrap_err();
            assert!(err.contains(field), "{body}: {err}");
        }
        // null still reads as absent.
        let null = ConfigRequest::parse("{\"workload\":\"spmv\",\"seed\":null}").unwrap();
        assert_eq!(null.seed, None);
    }

    #[test]
    fn priority_deadline_and_chaos_fields_parse() {
        let cfg = ConfigRequest::parse(
            "{\"workload\":\"spmv\",\"priority\":\"critical\",\"deadline_ms\":250,\
             \"x_chaos\":\"panic\"}",
        )
        .unwrap();
        assert_eq!(cfg.priority, Priority::Critical);
        assert_eq!(cfg.deadline_ms, Some(250));
        assert_eq!(cfg.x_chaos.as_deref(), Some("panic"));

        let plain = ConfigRequest::parse("{\"workload\":\"spmv\"}").unwrap();
        assert_eq!(plain.priority, Priority::Normal, "default tier is normal");
        assert_eq!(plain.deadline_ms, None);
        assert_eq!(plain.x_chaos, None);

        assert!(
            ConfigRequest::parse("{\"workload\":\"spmv\",\"priority\":\"vip\"}")
                .unwrap_err()
                .contains("priority")
        );

        // Tier names, indices, and ordering round-trip; critical orders
        // before batch (shed-lowest-first relies on this).
        for i in 0..Priority::COUNT {
            let p = Priority::from_index(i);
            assert_eq!(p.index(), i);
            assert_eq!(Priority::parse(p.name()), Some(p));
        }
        assert!(Priority::Critical < Priority::Normal);
        assert!(Priority::Normal < Priority::Batch);
    }

    #[test]
    fn model_and_heuristic_labels_round_trip() {
        for model in [
            MemoryModel::Nupea,
            MemoryModel::IDEAL,
            MemoryModel::Upea(2),
            MemoryModel::Upea(7),
            MemoryModel::NumaUpea(4),
        ] {
            assert_eq!(
                parse_model(&model.label()),
                Some(model),
                "label {} parses back",
                model.label()
            );
        }
        for h in [
            Heuristic::DomainUnaware,
            Heuristic::OnlyDomainAware,
            Heuristic::CriticalityAware,
        ] {
            assert_eq!(parse_heuristic(&h.to_string()), Some(h));
        }
        assert_eq!(parse_model("dram"), None);
        assert_eq!(parse_heuristic("random"), None);
    }

    #[test]
    fn build_applies_system_overrides() {
        let cfg = ConfigRequest::parse(
            "{\"workload\":\"spmv\",\"seed\":99,\"effort\":33,\"fifo_depth\":6}",
        )
        .unwrap();
        let (w, sys) = cfg.build().unwrap();
        assert_eq!(w.name, "spmv");
        assert_eq!(w.par, 1, "test scale defaults par to 1");
        assert_eq!(sys.seed, 99);
        assert_eq!(sys.effort, 33);
        assert_eq!(sys.fifo_depth, 6);
        let defaults = SystemConfig::monaco_12x12();
        assert_eq!(sys.max_outstanding, defaults.max_outstanding);
    }
}
