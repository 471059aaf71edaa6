//! Crash-tolerant multi-process campaign execution (DESIGN.md §11).
//!
//!     cargo bench -p nupea-bench --bench shard -- [MODE] [FLAGS]
//!
//! Modes (first positional argument):
//!
//! * `faults` (default) — the smoke fault campaign (all 13 Table 1
//!   workloads at test scale) sharded across worker processes.
//! * `dse` — the smoke DSE grid (spmspv, six candidates) sharded across
//!   worker processes.
//!
//! Both modes run through the one shard driver (`nupea::shard`); the
//! mode only picks the job. The harness spawns `--workers` copies of
//! itself (via the hidden `--worker ID` flag); each claims shards
//! through the lease journal in `--dir`, so killing any subset of them
//! mid-run loses no work: the survivors steal the expired leases. With
//! `--chaos K` the harness itself SIGKILLs K workers mid-run to prove
//! it, each one right after it appended a seeded-random next claim to
//! the lease journal, so it dies holding a lease. After the run a fresh
//! worker finishes any remainder, the harness merges the per-shard
//! journals, and (with `--check`) asserts that another fresh worker
//! claims nothing — zero re-simulation — that the merged report is
//! byte-identical to the single-process report, and that `--chaos K > 0`
//! killed at least one live worker. The single-process report comes
//! from outside the shard driver: `FaultCampaign::run` in `faults` mode,
//! a plain `DseEngine` grid search in `dse` mode.
//!
//! Flags:
//!
//! * `--dir PATH`         coordination + shard journal directory (required
//!   for multi-process runs; a temp dir is used when omitted)
//! * `--shards N`         shard count (default 13; 1 = single-process,
//!   journaled in `--dir` with no leases)
//! * `--workers N`        worker subprocesses to spawn (default 4)
//! * `--chaos K`          SIGKILL K workers mid-run (default 0; at most
//!   `--workers` - 1)
//! * `--seed N`           chaos schedule seed (default 817669 = 0xC7A05)
//! * `--ttl-ms N`         lease time-to-live (default 1500)
//! * `--heartbeat-ms N`   lease renewal period (default 150)
//! * `--json PATH`        write the merged report JSON
//! * `--single-json PATH` also compute the single-process report and
//!   write its JSON
//! * `--check`            assert zero re-simulation on resume, merged
//!   bytes == single-process bytes, and that chaos killed a live worker

use nupea::shard::{self, ShardJob, ShardOptions};
use nupea::{jsonl, CampaignConfig, CampaignJob, FaultCampaign, Scale, Workload};
use nupea_bench::{flag_value, parse_flag};
use nupea_dse::{DseConfig, DseEngine, DseReport, GridJob, GridSearch, SearchSpace};
use nupea_kernels::workloads::workload_by_name;
use nupea_rng::Xoshiro256;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::Duration;

struct Opts {
    mode: String,
    dir: Option<PathBuf>,
    shards: u32,
    workers: u32,
    chaos: u32,
    seed: u64,
    ttl_ms: u64,
    heartbeat_ms: u64,
    json: Option<PathBuf>,
    single_json: Option<PathBuf>,
    check: bool,
    /// Hidden: run as one worker process of the fleet instead of as the
    /// orchestrating parent.
    worker: Option<String>,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        mode: "faults".into(),
        dir: None,
        shards: 13,
        workers: 4,
        chaos: 0,
        seed: 0xC7A05,
        ttl_ms: 1_500,
        heartbeat_ms: 150,
        json: None,
        single_json: None,
        check: false,
        worker: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--dir" => opts.dir = Some(flag_value(&mut args, &a)?.into()),
            "--shards" => opts.shards = parse_flag(&mut args, &a)?,
            "--workers" => opts.workers = parse_flag(&mut args, &a)?,
            "--chaos" => opts.chaos = parse_flag(&mut args, &a)?,
            "--seed" => opts.seed = parse_flag(&mut args, &a)?,
            "--ttl-ms" => opts.ttl_ms = parse_flag(&mut args, &a)?,
            "--heartbeat-ms" => opts.heartbeat_ms = parse_flag(&mut args, &a)?,
            "--json" => opts.json = Some(flag_value(&mut args, &a)?.into()),
            "--single-json" => opts.single_json = Some(flag_value(&mut args, &a)?.into()),
            "--check" => opts.check = true,
            "--worker" => opts.worker = Some(flag_value(&mut args, &a)?),
            // Ignore flags cargo's bench harness forwards (e.g. --bench).
            s if s.starts_with("--") => {}
            s => opts.mode = s.to_string(),
        }
    }
    Ok(opts)
}

/// The search space every process of a `dse` run agrees on (the dse
/// bench's smoke preset), searched over spmspv.
fn space() -> SearchSpace {
    SearchSpace {
        domain_cols: vec![3],
        d0_cols: vec![2, 3],
        cache_words: vec![64 * 1024],
        effort: 64,
        ..SearchSpace::default()
    }
}

fn spmspv() -> Workload {
    workload_by_name("spmspv")
        .expect("spmspv exists")
        .build_default(Scale::Test)
}

/// The single-process `dse` report: a plain grid search.
fn grid_search() -> std::io::Result<DseReport> {
    let mut engine = DseEngine::new(space(), DseConfig::default());
    engine.add_workload(spmspv());
    engine.run(&mut GridSearch::new(space().len()))
}

/// Spawn one worker copy of this binary, forwarding the run config.
fn spawn_worker(opts: &Opts, dir: &Path, id: &str) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Command::new(exe)
        .args([
            opts.mode.as_str(),
            "--worker",
            id,
            "--dir",
            dir.to_str().ok_or("--dir must be valid UTF-8")?,
            "--shards",
            &opts.shards.to_string(),
            "--ttl-ms",
            &opts.ttl_ms.to_string(),
            "--heartbeat-ms",
            &opts.heartbeat_ms.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn worker {id}: {e}"))
}

/// Spawn the fleet and SIGKILL `--chaos` of its members mid-run. Each
/// kill waits for one or two (seeded) further shard claims in the
/// coordination journal and kills the worker that made the last of
/// them, so it dies holding a fresh lease; pacing by the run's own
/// progress means no engine speed can outrun the schedule. Survivors
/// must exit cleanly. Returns how many victims were still running when
/// killed.
fn run_fleet(opts: &Opts, dir: &Path) -> Result<u32, String> {
    let mut children: Vec<(String, Child)> = (0..opts.workers)
        .map(|i| {
            let id = format!("w{i}");
            spawn_worker(opts, dir, &id).map(|c| (id, c))
        })
        .collect::<Result<_, _>>()?;
    let mut rng = Xoshiro256::seed_from_u64(opts.seed);
    let kills = opts.chaos.min(opts.workers.saturating_sub(1)) as usize;
    let (mut victims, mut claim, mut killed) = (Vec::new(), 0, 0);
    while victims.len() < kills {
        claim += 1 + rng.below(2) as usize;
        let victim = loop {
            if let Some(id) = shard::claimers(dir).get(claim - 1) {
                break Some(id.clone());
            }
            if children
                .iter_mut()
                .all(|(_, c)| matches!(c.try_wait(), Ok(Some(_))))
            {
                break None; // the run ended before this claim
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let Some(victim) = victim else { break };
        let v = children
            .iter()
            .position(|(id, _)| *id == victim)
            .ok_or_else(|| format!("claim by unknown worker {victim}"))?;
        let (id, child) = &mut children[v];
        if child.try_wait().map_err(|e| e.to_string())?.is_none() {
            child.kill().map_err(|e| format!("kill {id}: {e}"))?;
            killed += 1;
            println!("chaos: killed {id} mid-run after claim {claim}");
        }
        victims.push(v);
    }
    for (i, (id, child)) in children.into_iter().enumerate() {
        let out = child.wait_with_output().map_err(|e| e.to_string())?;
        if victims.contains(&i) {
            continue;
        }
        if !out.status.success() {
            return Err(format!("worker {id} failed ({})", out.status));
        }
        print!("{id}: {}", String::from_utf8_lossy(&out.stdout));
    }
    Ok(killed)
}

/// One more worker over the finished run: returns its claim count, which
/// must be zero when every shard is already done.
fn resume_claims(opts: &Opts, dir: &Path, id: &str) -> Result<u64, String> {
    let out = spawn_worker(opts, dir, id)?
        .wait_with_output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("resume worker failed ({})", out.status));
    }
    let stats = String::from_utf8_lossy(&out.stdout);
    jsonl::u64_field(&stats, "claimed").ok_or_else(|| format!("bad resume stats: {stats}"))
}

fn write(path: &Path, text: &str, what: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{what} json -> {}", path.display());
    Ok(())
}

/// The harness over one job: every process builds its own copy with
/// `job`, `single` computes the single-process report without the shard
/// driver, so a driver fault cannot hide on both sides of `--check`, and
/// reports render with `json`.
fn drive<J: ShardJob>(
    opts: &Opts,
    dir: &Path,
    job: impl Fn() -> J,
    single: impl FnOnce() -> Result<J::Report, J::Error>,
    json: fn(&J::Report) -> String,
) -> Result<(), String>
where
    J::Error: Display,
{
    if let Some(id) = &opts.worker {
        let sopts = ShardOptions {
            shards: opts.shards,
            worker: id.clone(),
            ttl_ms: opts.ttl_ms,
            heartbeat_ms: opts.heartbeat_ms,
        };
        let stats = shard::work(&mut job(), dir, &sopts).map_err(|e| e.to_string())?;
        println!(
            "{{\"claimed\":{},\"completed\":{},\"stolen\":{},\"fenced\":{}}}",
            stats.claimed, stats.completed, stats.stolen, stats.fenced
        );
        return Ok(());
    }
    if opts.shards <= 1 {
        // One process fills one journal: no fleet, no coordination journal.
        let report = shard::run_sharded(&mut job(), dir, &ShardOptions::with_shards(1))
            .map(|r| json(&r))
            .map_err(|e| e.to_string())?;
        if let Some(path) = &opts.json {
            write(path, &report, "report")?;
        }
        println!("shards=1: single-process run complete");
        return Ok(());
    }

    println!(
        "mode={} shards={} workers={} chaos={} dir={}",
        opts.mode,
        opts.shards,
        opts.workers,
        opts.chaos,
        dir.display()
    );
    let killed = run_fleet(opts, dir)?;
    // Finish any remainder (e.g. every worker was a chaos victim) and
    // measure how much a resumed worker re-claims.
    let claimed = resume_claims(opts, dir, "resume")?;
    println!("resume: claimed {claimed} shards");

    let merged = shard::merge(&job(), dir, opts.shards)
        .map(|r| json(&r))
        .map_err(|e| e.to_string())?;
    if let Some(path) = &opts.json {
        write(path, &merged, "merged")?;
    }
    if opts.single_json.is_some() || opts.check {
        let single = single().map(|r| json(&r)).map_err(|e| e.to_string())?;
        if let Some(path) = &opts.single_json {
            write(path, &single, "single-process")?;
        }
        if opts.check {
            if merged != single {
                return Err("check: merged report differs from single-process report".into());
            }
            if opts.chaos > 0 && killed == 0 {
                return Err(format!(
                    "check: --chaos {} killed no live worker",
                    opts.chaos
                ));
            }
            // `resume` ran after the fleet drained the queue (and finished
            // any chaos remainder itself), so it must have claimed nothing.
            let again = resume_claims(opts, dir, "resume2")?;
            if again != 0 {
                return Err(format!("check: resumed worker re-claimed {again} shards"));
            }
            println!("check: ok");
        }
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let opts = parse_opts()?;
    let scratch;
    let dir: &Path = match &opts.dir {
        Some(d) => d,
        None => {
            scratch = std::env::temp_dir().join(format!("nupea-shard-{}", std::process::id()));
            std::fs::remove_dir_all(&scratch).ok();
            &scratch
        }
    };
    match opts.mode.as_str() {
        "faults" => {
            let campaign = || FaultCampaign::new(CampaignConfig::smoke());
            let job = || CampaignJob::new(campaign());
            drive(&opts, dir, job, || campaign().run(), |r| r.to_json())
        }
        "dse" => {
            let job = || GridJob::new(space(), DseConfig::default(), &[spmspv()]);
            drive(&opts, dir, job, grid_search, |r| r.to_json())
        }
        m => Err(format!("unknown mode {m:?} (faults|dse)")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("shard: {e}");
            ExitCode::FAILURE
        }
    }
}
