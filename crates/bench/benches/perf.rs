//! Engine performance trajectory: wall-clock, cycles/sec, and peak RSS for
//! the full 13-workload suite plus the micro-component benches, written as
//! one `BENCH_*.json` snapshot per PR (see README "Performance").
//!
//! ```text
//! cargo bench -p nupea-bench --bench perf -- --json target/perf/BENCH.json \
//!     [--baseline BENCH_006.json] [--gate 1.10] [--repeats 3]
//! ```
//!
//! With `--baseline`, the run compares its geomean suite wall-clock against
//! the committed snapshot and exits non-zero when it regresses by more than
//! the gate factor (the `perf-gate` CI job).

use nupea::experiments::{geomean, heuristic_for};
use nupea::{Heuristic, MemoryModel, Scale, SystemConfig};
use nupea_bench::{flag_value, parse_flag};
use nupea_kernels::interp_kernel;
use nupea_kernels::workloads::{all_workloads, workload_by_name};
use std::fmt::Write as _;
use std::time::Instant;

struct Entry {
    name: String,
    wall_ms: f64,
    cycles: u64,
    cycles_per_sec: f64,
    peak_rss_kb: u64,
}

/// Reset the kernel's RSS high-water mark (`VmHWM`) to the current RSS
/// so the next [`peak_rss_kb`] reading covers only the phase since this
/// call. Without the reset `VmHWM` is monotone over the process
/// lifetime, so every workload after the hungriest one silently
/// inherited its peak (BENCH_006 reported 53504 kB → 86180 kB for
/// *every* suite entry past the first few). Linux-only; a no-op where
/// `/proc/self/clear_refs` is unavailable or unwritable.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Process high-water RSS from /proc/self/status (kB); 0 where unsupported.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Best-of-`repeats` wall-clock of `f`, which returns the simulated cycle
/// count (0 for micro benches without one).
fn time_best(repeats: u32, mut f: impl FnMut() -> u64) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut cycles = 0;
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        cycles = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best * 1e3, cycles)
}

fn entry(name: &str, repeats: u32, f: impl FnMut() -> u64) -> Entry {
    reset_peak_rss();
    let (wall_ms, cycles) = time_best(repeats, f);
    let secs = wall_ms / 1e3;
    Entry {
        name: name.to_string(),
        wall_ms,
        cycles,
        cycles_per_sec: if secs > 0.0 {
            cycles as f64 / secs
        } else {
            0.0
        },
        peak_rss_kb: peak_rss_kb(),
    }
}

fn entries_json(entries: &[Entry]) -> String {
    let mut s = String::new();
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let _ = write!(
            s,
            "    {{\"name\":\"{}\",\"wall_ms\":{:.3},\"cycles\":{},\
             \"cycles_per_sec\":{:.0},\"peak_rss_kb\":{}}}",
            e.name, e.wall_ms, e.cycles, e.cycles_per_sec, e.peak_rss_kb
        );
    }
    s
}

/// Pull a numeric top-level field out of a previous snapshot (the files are
/// hand-rolled flat-ish JSON; no serde in the workspace).
fn baseline_geomean(text: &str) -> Option<f64> {
    let pat = "\"geomean_wall_ms\":";
    let start = text.find(pat)? + pat.len();
    let rest = text[start..].trim_start();
    let end = rest.find([',', '}', '\n'])?;
    rest[..end].trim().parse().ok()
}

fn main() {
    let (mut json_path, mut baseline_path, mut gate, mut repeats) = (None, None, 1.10_f64, 3_u32);
    let mut args = std::env::args().skip(1);
    let mut parse = || -> Result<(), String> {
        while let Some(a) = args.next() {
            match a.as_str() {
                "--json" => json_path = Some(flag_value(&mut args, &a)?),
                "--baseline" => baseline_path = Some(flag_value(&mut args, &a)?),
                "--gate" => gate = parse_flag(&mut args, &a)?,
                "--repeats" => repeats = parse_flag(&mut args, &a)?,
                _ => {}
            }
        }
        Ok(())
    };
    parse().unwrap_or_else(|e| panic!("perf: {e}"));

    let sys = SystemConfig::monaco_12x12();

    // The 13-workload suite at bench scale: compile once per workload
    // (PnR excluded from the timing — the trajectory tracks the engine),
    // then time the simulation under the Monaco model.
    let mut suite = Vec::new();
    for spec in all_workloads() {
        let w = spec.build_default(Scale::Bench);
        let compiled = sys
            .compile(&w, heuristic_for(MemoryModel::Nupea))
            .unwrap_or_else(|e| panic!("{}: pnr failed: {e}", spec.name));
        let e = entry(spec.name, repeats, || {
            let stats = compiled
                .simulate(MemoryModel::Nupea)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            stats.cycles
        });
        println!(
            "suite/{:<10} {:>9.2} ms  {:>12.0} cyc/s  rss {:>7} kB",
            e.name, e.wall_ms, e.cycles_per_sec, e.peak_rss_kb
        );
        suite.push(e);
    }
    let geomean_wall_ms = geomean(&suite.iter().map(|e| e.wall_ms).collect::<Vec<_>>());
    println!("suite geomean {geomean_wall_ms:.3} ms");

    // Micro-component benches: engine on a Test-scale kernel (dominated by
    // per-event overhead rather than memory latency), the same kernel under
    // UPEA-2, and the untimed interpreter as the floor.
    let mut micro = Vec::new();
    let w = workload_by_name("spmspv")
        .unwrap()
        .build_default(Scale::Test);
    let monaco = sys.compile(&w, Heuristic::CriticalityAware).unwrap();
    let uniform = sys.compile(&w, Heuristic::DomainUnaware).unwrap();
    micro.push(entry("engine/spmspv-test-nupea", repeats.max(5), || {
        monaco.simulate(MemoryModel::Nupea).unwrap().cycles
    }));
    micro.push(entry("engine/spmspv-test-upea2", repeats.max(5), || {
        uniform.simulate(MemoryModel::Upea(2)).unwrap().cycles
    }));
    micro.push(entry("interp/spmspv-test", repeats.max(5), || {
        let mut mem = w.fresh_mem();
        interp_kernel(&w.kernel, mem.words_mut(), &[]).unwrap();
        0
    }));
    for e in &micro {
        println!(
            "micro/{:<24} {:>9.3} ms  rss {:>7} kB",
            e.name, e.wall_ms, e.peak_rss_kb
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"perf\",\n  \"scale\": \"Bench\",\n  \"model\": \"NUPEA\",\n  \
         \"repeats\": {repeats},\n  \"geomean_wall_ms\": {geomean_wall_ms:.3},\n  \
         \"suite\": [\n{}\n  ],\n  \"micro\": [\n{}\n  ]\n}}\n",
        entries_json(&suite),
        entries_json(&micro)
    );
    if let Some(path) = json_path {
        if let Some(parent) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(parent).ok();
        }
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }

    if let Some(path) = baseline_path {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let base = baseline_geomean(&text)
            .unwrap_or_else(|| panic!("baseline {path} has no geomean_wall_ms field"));
        let ratio = geomean_wall_ms / base;
        println!(
            "perf-gate: geomean {geomean_wall_ms:.3} ms vs baseline {base:.3} ms \
             (ratio {ratio:.3}, gate {gate:.2})"
        );
        if ratio > gate {
            eprintln!("perf-gate: FAIL — suite wall-clock regressed beyond the gate");
            std::process::exit(1);
        }
        println!("perf-gate: ok");
    }
}
