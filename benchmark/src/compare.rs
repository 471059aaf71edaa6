//! `--compare BASE.json CHANGE.json`: a verdict per end-to-end metric
//! and workload from two results files, with the bounds `BENCHMARK.json`
//! fixes.

use crate::report::{specs, Spec};
use crate::stats::{median, spread};
use nupea::jsonl;
use std::collections::BTreeMap;

/// How the change's runs compare with the base's on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Wins nine tenths of all run pairs, and the medians differ by more
    /// than the base's own spread.
    Better,
    /// Within the bound, and not clearly better.
    Same,
    /// The median is worse than the base's by more than the bound.
    Worse,
    /// The run-to-run spread exceeds the bound and the change does not
    /// beat every base run, or a side has a single run.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `change` against `base` (one value per run). `bound` is the
/// share of the base median by which the change may be worse; a bound of
/// 0 marks an exact metric, compared by its medians alone.
#[must_use]
pub fn verdict(base: &[f64], change: &[f64], bound: f64, higher_better: bool) -> Verdict {
    if base.is_empty() || change.is_empty() {
        return Verdict::Unresolved;
    }
    let (mb, mc) = (median(base), median(change));
    // Positive: the change is worse, as a share of the base median.
    let worse_by = if mb == mc {
        0.0
    } else if higher_better {
        (mb - mc) / mb.abs()
    } else {
        (mc - mb) / mb.abs()
    };
    if bound == 0.0 {
        return if worse_by > 0.0 {
            Verdict::Worse
        } else if worse_by < 0.0 {
            Verdict::Better
        } else {
            Verdict::Same
        };
    }
    // One run on a side gives no spread to judge a difference against.
    if base.len() < 2 || change.len() < 2 {
        return Verdict::Unresolved;
    }
    let beats = |c: f64, b: f64| if higher_better { c > b } else { c < b };
    let dominates = change.iter().all(|&c| base.iter().all(|&b| beats(c, b)));
    let noise = match (spread(base), spread(change)) {
        (Some(a), Some(b)) => a.max(b),
        _ => f64::INFINITY,
    };
    if noise > bound {
        return if dominates {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        return Verdict::Worse;
    }
    let pairs = (base.len() * change.len()) as f64;
    let wins = change
        .iter()
        .map(|&c| base.iter().filter(|&&b| beats(c, b)).count())
        .sum::<usize>() as f64;
    let base_noise = spread(base).unwrap_or(f64::INFINITY);
    if wins >= 0.9 * pairs && -worse_by > base_noise {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Untraced values per `(metric, workload)` in a results file.
fn load(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let parsed = (|| {
            let traced = jsonl::u64_field(line, "trace")? != 0;
            let workload = jsonl::string_field(line, "workload")?;
            let metric = jsonl::string_field(line, "metric")?;
            let value: f64 = match jsonl::field(line, "value")?.as_str() {
                "null" => f64::INFINITY,
                v => v.parse().ok()?,
            };
            Some((traced, workload, metric, value))
        })();
        let Some((traced, workload, metric, value)) = parsed else {
            return Err(format!("{path}: not a results line: {line}"));
        };
        if !traced {
            out.entry((metric, workload)).or_default().push(value);
        }
    }
    Ok(out)
}

/// Print one row per end-to-end metric and workload; returns whether
/// any row is `worse`.
///
/// # Errors
///
/// Unreadable or malformed results files.
pub fn run(base_path: &str, change_path: &str) -> Result<bool, String> {
    let base = load(base_path)?;
    let change = load(change_path)?;
    let mut metrics: Vec<Spec> = specs("end_to_end");
    // Failures are compared exactly: any increase is a regression.
    metrics.push(Spec {
        name: "failed_frac".to_string(),
        unit: "ratio".to_string(),
        higher_better: false,
        bound: Some(0.0),
    });
    let workloads: Vec<String> = specs("workloads").into_iter().map(|w| w.name).collect();
    println!(
        "{:<20} {:<11} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "metric", "workload", "base", "change", "delta%", "spread%", "bound%"
    );
    let mut any_worse = false;
    for spec in &metrics {
        let bound = spec.bound.unwrap_or(0.0);
        for w in &workloads {
            let key = (spec.name.clone(), w.clone());
            let (Some(b), Some(c)) = (base.get(&key), change.get(&key)) else {
                continue;
            };
            let v = verdict(b, c, bound, spec.higher_better);
            any_worse |= v == Verdict::Worse;
            let (mb, mc) = (median(b), median(c));
            let delta = if mb == 0.0 {
                0.0
            } else {
                (mc - mb) / mb.abs() * 100.0
            };
            let noise = match (spread(b), spread(c)) {
                (Some(x), Some(y)) if x.max(y).is_finite() => format!("{:.2}", x.max(y) * 100.0),
                _ => "-".to_string(),
            };
            println!(
                "{:<20} {:<11} {:>14.4} {:>14.4} {:>8.2} {:>8} {:>6.1}  {}",
                spec.name,
                w,
                mb,
                mc,
                delta,
                noise,
                bound * 100.0,
                v.label()
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
    ];

    fn scaled(k: f64) -> Vec<f64> {
        BASE.iter().map(|x| x * k).collect()
    }

    #[test]
    fn clear_gain_is_better_and_regression_past_the_bound_is_worse() {
        assert_eq!(verdict(&BASE, &scaled(0.8), 0.1, false), Verdict::Better);
        assert_eq!(verdict(&BASE, &scaled(1.2), 0.1, false), Verdict::Worse);
        // For a higher-is-better metric the same moves flip.
        assert_eq!(verdict(&BASE, &scaled(1.2), 0.1, true), Verdict::Better);
        assert_eq!(verdict(&BASE, &scaled(0.8), 0.1, true), Verdict::Worse);
    }

    #[test]
    fn small_moves_inside_the_bound_are_same() {
        assert_eq!(verdict(&BASE, &scaled(1.05), 0.1, false), Verdict::Same);
        assert_eq!(verdict(&BASE, &BASE, 0.1, false), Verdict::Same);
        // A gain smaller than the base's own spread is not claimed.
        assert_eq!(verdict(&BASE, &scaled(0.999), 0.1, false), Verdict::Same);
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved_unless_dominated() {
        let noisy = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(verdict(&noisy, &BASE, 0.1, false), Verdict::Unresolved);
        let all_faster: Vec<f64> = noisy.iter().map(|x| x / 10.0).collect();
        assert_eq!(verdict(&noisy, &all_faster, 0.1, false), Verdict::Better);
        // One run on a side: no spread is known, whichever way it moved.
        assert_eq!(verdict(&[1.0], &[1.01], 0.1, false), Verdict::Unresolved);
        assert_eq!(verdict(&[1.0], &[0.5], 0.1, false), Verdict::Unresolved);
        assert_eq!(verdict(&BASE, &[50.0], 0.1, false), Verdict::Unresolved);
        assert_eq!(verdict(&[], &[1.0], 0.1, false), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_compare_medians_only() {
        assert_eq!(verdict(&[0.0, 0.0], &[0.0, 0.0], 0.0, false), Verdict::Same);
        assert_eq!(
            verdict(&[0.0, 0.0], &[0.01, 0.01], 0.0, false),
            Verdict::Worse
        );
        assert_eq!(verdict(&[5.0], &[4.0], 0.0, false), Verdict::Better);
    }
}
