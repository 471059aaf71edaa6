//! Metric names, units and bounds from `BENCHMARK.json`, and the output
//! of one run: `name value unit` lines, an optional results file with
//! one flat JSON object per metric, and a final JSON result line.

use nupea::jsonl;
use std::io::Write as _;
use std::path::Path;

/// The benchmark definition, compiled in so the names the program emits
/// and the names the file lists cannot drift apart.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One entry of a `BENCHMARK.json` section.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Metric or workload name.
    pub name: String,
    /// Unit (empty for workloads).
    pub unit: String,
    /// Whether a higher value is better.
    pub higher_better: bool,
    /// Allowed worsening as a share of the base median (end-to-end only).
    pub bound: Option<f64>,
}

/// The entries of section `section` (`workloads`, `end_to_end` or
/// `per_layer`). Each entry sits on one line as a compact flat object,
/// so the repository's `jsonl` field scanners read it.
#[must_use]
pub fn specs(section: &str) -> Vec<Spec> {
    let mut out = Vec::new();
    let mut current = "";
    for line in BENCHMARK_JSON.lines() {
        let t = line.trim();
        if let Some(key) = t.strip_prefix('"').and_then(|r| r.split_once('"')) {
            if key.1.trim_start().starts_with(':') {
                current = key.0;
                continue;
            }
        }
        if current != section || !t.starts_with('{') {
            continue;
        }
        let Some(name) = jsonl::string_field(t, "name") else {
            continue;
        };
        out.push(Spec {
            name,
            unit: jsonl::string_field(t, "unit").unwrap_or_default(),
            higher_better: jsonl::string_field(t, "better").as_deref() == Some("higher"),
            bound: jsonl::field(t, "bound").and_then(|b| b.parse().ok()),
        });
    }
    out
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json` (or a printed-only extra).
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
#[must_use]
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed (typed compile failures, refused or
    /// failed requests).
    pub failed: u64,
    /// Correctness violations; any makes the run incorrect.
    pub errors: Vec<String>,
    /// End-to-end metrics (tracing off).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics listed in `BENCHMARK.json` (traced run).
    pub layers: Vec<Metric>,
    /// Per-layer metrics of layers only some workloads use; printed and
    /// written to the results file, not part of the result line.
    pub extra: Vec<Metric>,
}

impl Outcome {
    /// Whether every output check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Record a correctness violation.
    pub fn error(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    /// Share of attempted operations that failed.
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metrics the result line carries: every end-to-end metric
    /// untraced, every per-layer metric traced.
    fn reported(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.layers
        } else {
            &self.end_to_end
        }
    }

    /// Check the reported metrics against `BENCHMARK.json`: the same
    /// names, once each, with the listed units.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch.
    pub fn check_names(&self, trace: bool) -> Result<(), String> {
        let section = if trace { "per_layer" } else { "end_to_end" };
        let want = specs(section);
        let got = self.reported(trace);
        for spec in &want {
            match got.iter().filter(|m| m.name == spec.name).count() {
                1 => {}
                n => return Err(format!("{section} metric {} emitted {n} times", spec.name)),
            }
        }
        for m in got {
            let Some(spec) = want.iter().find(|s| s.name == m.name) else {
                return Err(format!("{} is not a {section} metric", m.name));
            };
            if spec.unit != m.unit {
                return Err(format!(
                    "{} has unit {}, BENCHMARK.json says {}",
                    m.name, m.unit, spec.unit
                ));
            }
        }
        Ok(())
    }

    /// Print `name value unit` lines, append the results file, and print
    /// the result line last.
    ///
    /// # Errors
    ///
    /// I/O errors writing the results file.
    pub fn emit(
        &self,
        workload: &str,
        seed: u64,
        trace: bool,
        json: Option<&Path>,
    ) -> std::io::Result<()> {
        let mut printed: Vec<Metric> = self.reported(trace).to_vec();
        if trace {
            printed.extend(self.extra.iter().cloned());
        }
        printed.push(metric("failed_frac", self.failed_frac(), "ratio"));
        for m in &printed {
            println!("{} {} {}", m.name, m.value, m.unit);
        }
        println!("attempted {}\nfailed {}", self.attempted, self.failed);
        for e in &self.errors {
            println!("check failed: {e}");
        }
        if let Some(path) = json {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            let mut lines = String::new();
            for m in &printed {
                lines.push_str(&format!(
                    "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{},\"metric\":\"{}\",\
                     \"value\":{},\"unit\":\"{}\"}}\n",
                    u8::from(trace),
                    m.name,
                    jsonl::format_f64(m.value),
                    m.unit
                ));
            }
            f.write_all(lines.as_bytes())?;
            f.flush()?;
        }
        let body: Vec<String> = self
            .reported(trace)
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    jsonl::format_f64(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_well_formed_sections() {
        let workloads = specs("workloads");
        let names: Vec<&str> = workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, crate::WORKLOADS);
        let e2e = specs("end_to_end");
        assert!(!e2e.is_empty() && e2e.len() <= 16);
        for s in &e2e {
            let bound = s.bound.unwrap_or_else(|| panic!("{} has no bound", s.name));
            assert!((0.0..=0.25).contains(&bound), "{}: bound {bound}", s.name);
        }
        let setup = e2e
            .iter()
            .find(|s| s.name == "setup_s")
            .expect("setup_s listed");
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_better);
        let largest = e2e.iter().filter_map(|s| s.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
        let layers = specs("per_layer");
        assert!(!layers.is_empty() && layers.len() <= 128);
        assert!(layers
            .iter()
            .all(|s| s.bound.is_none() && !s.unit.is_empty()));
        let mut all: Vec<&str> = e2e.iter().chain(&layers).map(|s| s.name.as_str()).collect();
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before, "metric names are unique");
    }

    #[test]
    fn name_check_catches_missing_duplicate_and_mislabelled_metrics() {
        let full: Vec<Metric> = specs("end_to_end")
            .iter()
            .map(|s| Metric {
                name: Box::leak(s.name.clone().into_boxed_str()),
                value: 1.0,
                unit: Box::leak(s.unit.clone().into_boxed_str()),
            })
            .collect();
        let mut out = Outcome {
            end_to_end: full.clone(),
            ..Outcome::default()
        };
        assert_eq!(out.check_names(false), Ok(()));
        out.end_to_end.pop();
        assert!(out.check_names(false).is_err());
        out.end_to_end = full.clone();
        out.end_to_end.push(full[0].clone());
        assert!(out.check_names(false).is_err());
        out.end_to_end = full;
        out.end_to_end[0].unit = "furlongs";
        assert!(out.check_names(false).is_err());
    }
}
