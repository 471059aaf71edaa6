//! Shared experiment machinery for the benchmark harness: the memory-model
//! matrix of §6, normalization, geometric means, and table rendering.

use nupea_pnr::Heuristic;
use nupea_sim::MemoryModel;

/// Geometric mean of a slice (1.0 for empty input).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The baselines of Fig. 11: Ideal, UPEA2, NUMA-UPEA2 (plus Monaco itself).
pub fn primary_models() -> Vec<MemoryModel> {
    vec![
        MemoryModel::IDEAL,
        MemoryModel::Nupea,
        MemoryModel::Upea(2),
        MemoryModel::NumaUpea(2),
    ]
}

/// Compile a workload for a memory model: Monaco uses the
/// criticality-aware heuristic (effcc); UPEA/NUMA baselines have no
/// domains to exploit, so they compile domain-unaware (§6).
pub fn heuristic_for(model: MemoryModel) -> Heuristic {
    match model {
        MemoryModel::Nupea => Heuristic::CriticalityAware,
        MemoryModel::Upea(_) | MemoryModel::NumaUpea(_) => Heuristic::DomainUnaware,
    }
}

/// Render an aligned text table; `rows` are (label, cells).
pub fn render_table(title: &str, headers: &[String], rows: &[(String, Vec<String>)]) -> String {
    use std::fmt::Write;
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    let label_w = rows
        .iter()
        .map(|(l, _)| l.len())
        .chain([8])
        .max()
        .unwrap_or(8);
    for (_, cells) in rows {
        for (i, cell) in cells.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut s = String::new();
    let _ = writeln!(s, "== {title} ==");
    let _ = write!(s, "{:label_w$}", "");
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(s, "  {h:>w$}");
    }
    let _ = writeln!(s);
    for (label, cells) in rows {
        let _ = write!(s, "{label:label_w$}");
        for (cell, w) in cells.iter().zip(&widths) {
            let _ = write!(s, "  {cell:>w$}");
        }
        let _ = writeln!(s);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn heuristic_mapping_matches_paper() {
        assert_eq!(
            heuristic_for(MemoryModel::Nupea),
            Heuristic::CriticalityAware
        );
        assert_eq!(
            heuristic_for(MemoryModel::Upea(2)),
            Heuristic::DomainUnaware
        );
        assert_eq!(
            heuristic_for(MemoryModel::NumaUpea(3)),
            Heuristic::DomainUnaware
        );
    }

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            "demo",
            &["a".into(), "longheader".into()],
            &[("row1".into(), vec!["1".into(), "2".into()])],
        );
        assert!(t.contains("demo"));
        assert!(t.contains("longheader"));
    }
}
