//! Golden cycle-count identity: every workload in the registry, compiled
//! with its standard heuristic and simulated under every primary memory
//! model, must reproduce the committed cycle counts, sink streams, and
//! `RunStats` aggregates exactly. Along the way it checks that every
//! built and final memory image stores no more words than the workload
//! allocated: the 8 MB capacity is an address range, not an allocation.
//!
//! This file is the safety net for engine rewrites: any change to firing
//! order, event scheduling, memory arbitration, or energy accounting shows
//! up as a byte-level diff against `tests/golden_cycles.json`. The golden
//! file was generated with the pre-rewrite hybrid-tick engine, so passing
//! this test means the event-driven kernel is bit-identical to it.
//!
//! Regenerate (only when an intentional timing change lands) with:
//!
//! ```text
//! NUPEA_REGEN_GOLDEN=1 cargo test --release --test cycle_identity
//! ```

use nupea::experiments::{heuristic_for, primary_models};
use nupea::{Scale, SimOptions, SystemConfig};
use nupea_kernels::workloads::all_workloads;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = "tests/golden_cycles.json";

/// FNV-1a over the sink streams (stream boundaries included), so the full
/// output data is locked without committing megabytes of values.
fn sink_hash(sinks: &[Vec<i64>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for stream in sinks {
        mix(&(stream.len() as u64).to_le_bytes());
        for &v in stream {
            mix(&v.to_le_bytes());
        }
    }
    h
}

/// One JSON object per (workload, model), every field exact.
fn golden_text() -> String {
    let sys = SystemConfig::monaco_12x12();
    let mut out = String::from("[\n");
    let mut first = true;
    for spec in all_workloads() {
        let w = spec.build_default(Scale::Test);
        for model in primary_models() {
            let compiled = sys
                .compile(&w, heuristic_for(model))
                .unwrap_or_else(|e| panic!("{}: pnr failed: {e}", spec.name));
            let run = compiled
                .simulate_with(&SimOptions::new(model))
                .unwrap_or_else(|e| panic!("{}/{}: {e}", spec.name, model.label()));
            // Footprint: the built and final images store only allocated words.
            for (which, mem) in [("built", &w.mem), ("final", &run.memory)] {
                assert!(
                    mem.stored() <= w.mem.used(),
                    "{}/{}: {which} image stores {} words, {} allocated",
                    spec.name,
                    model.label(),
                    mem.stored(),
                    w.mem.used()
                );
            }
            let s = run.stats;
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let lat: Vec<String> = s
                .load_latency_by_domain
                .iter()
                .map(|d| format!("[{},{}]", d.total_latency, d.count))
                .collect();
            let sink_values: usize = s.sinks.iter().map(Vec::len).sum();
            let _ = write!(
                out,
                "{{\"workload\":\"{}\",\"model\":\"{}\",\
                 \"cycles\":{},\"fabric_cycles\":{},\"divider\":{},\
                 \"firings\":{},\"active_pes\":{},\
                 \"sink_streams\":{},\"sink_values\":{},\"sink_hash\":\"{:016x}\",\
                 \"residual_tokens\":{},\
                 \"mem_requests\":{},\"arbiter_forwards\":{},\"bank_wait_cycles\":{},\
                 \"cache_hits\":{},\"cache_misses\":{},\
                 \"load_latency\":[{}],\
                 \"energy_alu\":{},\"energy_control\":{},\"energy_noc\":{},\
                 \"energy_mem_issue\":{},\"energy_fmnoc\":{},\"energy_memory\":{}}}",
                spec.name,
                model.label(),
                s.cycles,
                s.fabric_cycles,
                s.divider,
                s.firings,
                s.active_pes(),
                s.sinks.len(),
                sink_values,
                sink_hash(&s.sinks),
                s.residual_tokens,
                s.mem.requests,
                s.mem.arbiter_forwards,
                s.mem.bank_wait_cycles,
                s.mem.cache_hits,
                s.mem.cache_misses,
                lat.join(","),
                s.energy.alu,
                s.energy.control,
                s.energy.noc,
                s.energy.mem_issue,
                s.energy.fmnoc,
                s.energy.memory,
            );
        }
    }
    out.push_str("\n]\n");
    out
}

#[test]
fn all_workloads_match_golden_cycle_counts() {
    let current = golden_text();
    if std::env::var_os("NUPEA_REGEN_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &current).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("tests/golden_cycles.json missing — regenerate with NUPEA_REGEN_GOLDEN=1");
    if golden != current {
        // Line-level diff so the failing (workload, model, field) is
        // readable without external tooling.
        for (g, c) in golden.lines().zip(current.lines()) {
            if g != c {
                panic!(
                    "cycle identity diverged from golden:\n  golden:  {g}\n  current: {c}\n\
                     (regenerate only for intentional timing changes: \
                     NUPEA_REGEN_GOLDEN=1 cargo test --test cycle_identity)"
                );
            }
        }
        panic!("cycle identity diverged from golden (line count changed)");
    }
}
