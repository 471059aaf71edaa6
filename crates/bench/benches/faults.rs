//! Fault-injection campaigns with graceful degradation (DESIGN.md §9).
//!
//!     cargo bench -p nupea-bench --bench faults -- [PRESET] [FLAGS]
//!
//! Presets (first positional argument):
//!
//! * `smoke` (default) — PE failures only, one injection per workload,
//!   fixed seed, all 13 Table 1 workloads at test scale. The CI job runs
//!   this twice and byte-compares the JSON reports.
//! * `full` — every fault class (PE, link drop/stuck, token corruption,
//!   bank failure), 24 injections per workload: hundreds of seeded
//!   injections across Table 1.
//!
//! Flags:
//!
//! * `--workload W`    restrict to one Table 1 workload (repeatable)
//! * `--injections N`  override injections per workload
//! * `--seed N`        campaign seed (presets pin one)
//! * `--threads N`     worker threads (0 = all cores)
//! * `--journal PATH`  append-only JSONL journal; re-invoking with the
//!   same journal resumes — classified injections replay with zero
//!   simulation
//! * `--json PATH`     write the deterministic resilience report JSON
//! * `--csv PATH`      write the per-injection CSV
//! * `--check`         assert the smoke acceptance gates: zero SDCs, and
//!   every detected PE failure either recovered with golden-identical
//!   outputs or hit typed `Unplaceable`

use nupea::{CampaignConfig, CampaignReport, FaultCampaign, OutcomeClass, RecoveryOutcome};
use nupea_bench::{flag_value, parse_flag};
use nupea_kernels::workloads::workload_by_name;
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    preset: String,
    workloads: Vec<String>,
    injections: Option<u32>,
    seed: Option<u64>,
    threads: usize,
    journal: Option<PathBuf>,
    json: Option<PathBuf>,
    csv: Option<PathBuf>,
    check: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        preset: "smoke".into(),
        workloads: Vec::new(),
        injections: None,
        seed: None,
        threads: 0,
        journal: None,
        json: None,
        csv: None,
        check: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => opts.workloads.push(flag_value(&mut args, &a)?),
            "--injections" => opts.injections = Some(parse_flag(&mut args, &a)?),
            "--seed" => opts.seed = Some(parse_flag(&mut args, &a)?),
            "--threads" => opts.threads = parse_flag(&mut args, &a)?,
            "--journal" => opts.journal = Some(flag_value(&mut args, &a)?.into()),
            "--json" => opts.json = Some(flag_value(&mut args, &a)?.into()),
            "--csv" => opts.csv = Some(flag_value(&mut args, &a)?.into()),
            "--check" => opts.check = true,
            // Ignore flags cargo's bench harness forwards (e.g. --bench).
            s if s.starts_with("--") => {}
            s => opts.preset = s.to_string(),
        }
    }
    Ok(opts)
}

fn run() -> Result<(), String> {
    let opts = parse_opts()?;
    let mut cfg = match opts.preset.as_str() {
        "smoke" => CampaignConfig::smoke(),
        "full" => CampaignConfig::full(),
        s => return Err(format!("unknown preset {s:?} (smoke|full)")),
    };
    if let Some(n) = opts.injections {
        cfg.injections = n;
    }
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    cfg.threads = opts.threads;
    cfg.journal = opts.journal.clone();

    let scale = cfg.scale;
    let mut campaign = FaultCampaign::new(cfg);
    for name in &opts.workloads {
        let spec = workload_by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        campaign.workload(spec.build_default(scale));
    }
    let report = campaign.run().map_err(|e| e.to_string())?;

    print!("{}", report.render());
    if let Some(path) = &opts.json {
        std::fs::write(path, report.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("report json -> {}", path.display());
    }
    if let Some(path) = &opts.csv {
        std::fs::write(path, report.to_csv()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("report csv -> {}", path.display());
    }
    if opts.check {
        check(&report)?;
        println!("check: ok");
    }
    Ok(())
}

/// `--check`: the acceptance gates the CI fault-smoke job relies on.
fn check(report: &CampaignReport) -> Result<(), String> {
    if report.records.is_empty() {
        return Err("check: campaign produced no records".into());
    }
    let sdc = report.count(OutcomeClass::Sdc);
    if sdc != 0 {
        return Err(format!("check: {sdc} silent data corruptions"));
    }
    for r in &report.records {
        match r.outcome {
            OutcomeClass::Masked => {}
            OutcomeClass::Recovered => {
                if r.recovered_cycles.is_none() || r.slowdown().is_none() {
                    return Err(format!(
                        "check: {}#{} recovered without a degraded slowdown",
                        r.workload, r.index
                    ));
                }
            }
            // Detected-but-unrecovered is acceptable only when capacity
            // was genuinely exhausted (typed Unplaceable) — a PE failure
            // must otherwise re-place around the avoid-set.
            OutcomeClass::Hang => {
                if r.recovery != RecoveryOutcome::Unplaceable {
                    return Err(format!(
                        "check: {}#{} ({}) hung with recovery {}",
                        r.workload,
                        r.index,
                        r.fault.desc(),
                        r.recovery
                    ));
                }
            }
            OutcomeClass::Sdc => unreachable!("zero-SDC gate already checked"),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("faults: {e}");
            ExitCode::FAILURE
        }
    }
}
