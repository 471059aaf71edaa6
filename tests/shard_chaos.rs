//! Chaos test for crash-tolerant distributed campaign execution (the
//! sharding PR's acceptance gate): spawn real worker subprocesses,
//! SIGKILL several at seeded-random points mid-run (paced by the shard
//! claims they append, not by wall clock), and assert that
//!
//! 1. the survivors steal the dead workers' shards and finish the run,
//! 2. a resumed worker performs **zero** work (all shards done — no
//!    re-simulation of completed shards), and
//! 3. the merged resilience report / Pareto frontier is **byte-identical**
//!    to the single-process (`shards = 1`) output for the same seed.
//!
//! The worker binary is `src/bin/shard_worker.rs`; its campaign/search
//! configurations are duplicated here and must stay in sync.

use nupea::campaign::{CampaignConfig, CampaignJob, FaultCampaign};
use nupea::shard::{self, ShardOptions};
use nupea::{jsonl, Scale};
use nupea_dse::{DseConfig, DseEngine, GridJob, GridSearch, SearchSpace};
use nupea_kernels::workloads::workload_by_name;
use nupea_rng::Xoshiro256;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_shard_worker");
const TTL_MS: u64 = 1_500;
const HEARTBEAT_MS: u64 = 150;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nupea-chaos-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Must match `shard_worker`'s `chaos_campaign`.
fn chaos_campaign() -> FaultCampaign {
    let mut cfg = CampaignConfig::smoke();
    cfg.injections = 2;
    cfg.threads = 2;
    let mut campaign = FaultCampaign::new(cfg);
    for name in ["spmv", "spmspv"] {
        campaign.workload(workload_by_name(name).unwrap().build_default(Scale::Test));
    }
    campaign
}

/// Must match `shard_worker`'s `chaos_space`.
fn chaos_space() -> SearchSpace {
    SearchSpace {
        domain_cols: vec![3],
        d0_cols: vec![2, 3],
        cache_words: vec![64 * 1024],
        effort: 32,
        ..SearchSpace::default()
    }
}

fn spawn_worker(mode: &str, dir: &Path, shards: u32, id: &str) -> Child {
    Command::new(WORKER_BIN)
        .args([
            mode,
            dir.to_str().unwrap(),
            &shards.to_string(),
            id,
            &TTL_MS.to_string(),
            &HEARTBEAT_MS.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn shard_worker")
}

/// Run one worker to completion and return its printed stats line.
fn run_worker_to_completion(mode: &str, dir: &Path, shards: u32, id: &str) -> String {
    let out = spawn_worker(mode, dir, shards, id)
        .wait_with_output()
        .expect("wait worker");
    assert!(out.status.success(), "worker {id} failed");
    String::from_utf8(out.stdout).expect("stats are utf-8")
}

/// The chaos schedule: spawn `workers`, then SIGKILL `kills` of them
/// mid-run. Each kill waits for one to `spread` (seeded) further shard
/// claims to appear in the coordination journal and kills the worker
/// that made the last of them, so it dies holding a fresh lease. The
/// schedule follows the run's own progress, so no engine speed can
/// outrun it. Lets the survivors finish and returns how many victims were
/// killed while still running.
fn run_chaos(
    mode: &str,
    dir: &Path,
    shards: u32,
    workers: u32,
    kills: usize,
    spread: u64,
    seed: u64,
) -> usize {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut children: Vec<(String, Child)> = (0..workers)
        .map(|i| {
            let id = format!("{mode}-w{i}");
            (id.clone(), spawn_worker(mode, dir, shards, &id))
        })
        .collect();
    let mut victims: Vec<usize> = Vec::new();
    let mut claim = 0;
    let mut killed_live = 0;
    while victims.len() < kills {
        claim += 1 + rng.below(spread) as usize;
        let victim = loop {
            if let Some(id) = shard::claimers(dir).get(claim - 1) {
                break Some(id.clone());
            }
            if children
                .iter_mut()
                .all(|(_, c)| c.try_wait().expect("try_wait").is_some())
            {
                break None; // the run ended before this claim
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let Some(victim) = victim else { break };
        let v = children
            .iter()
            .position(|(id, _)| *id == victim)
            .expect("claims come from spawned workers");
        let (id, child) = &mut children[v];
        match child.try_wait().expect("try_wait") {
            Some(_) => {} // finished before the bullet landed
            None => {
                child.kill().expect("SIGKILL victim");
                killed_live += 1;
                eprintln!("chaos: killed {id} mid-run after claim {claim}");
            }
        }
        victims.push(v);
    }
    for (i, (id, child)) in children.into_iter().enumerate() {
        let out = child.wait_with_output().expect("wait child");
        if victims.contains(&i) {
            continue; // killed (or raced to success) — either is fine
        }
        assert!(out.status.success(), "survivor {id} must finish the queue");
    }
    killed_live
}

#[test]
fn killed_fault_campaign_workers_are_stolen_and_merge_is_byte_identical() {
    let single = chaos_campaign().run().unwrap().to_json();

    let dir = scratch("faults");
    let shards = 6;
    let killed = run_chaos("faults", &dir, shards, 4, 2, 2, 0xC7A0_5001);
    eprintln!("chaos: {killed} of 2 victims were killed while live");
    assert!(
        killed >= 1,
        "no victim was killed mid-run: chaos exercised nothing"
    );

    // Any surviving worker drains the whole queue, so the run is complete
    // here. A resumed worker must find nothing: zero claims, hence zero
    // re-simulation of completed shards.
    let stats = run_worker_to_completion("faults", &dir, shards, "resume");
    assert_eq!(
        jsonl::u64_field(&stats, "claimed"),
        Some(0),
        "resumed worker re-ran work: {stats}"
    );

    // The merged resilience report is byte-identical to shards=1.
    let merged = shard::merge(&CampaignJob::new(chaos_campaign()), &dir, shards).unwrap();
    assert_eq!(merged.to_json(), single);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_dse_workers_are_stolen_and_frontier_is_byte_identical() {
    let spmspv = || {
        workload_by_name("spmspv")
            .unwrap()
            .build_default(Scale::Test)
    };
    let job = || GridJob::new(chaos_space(), DseConfig::default(), &[spmspv()]);
    // The baseline is a plain grid search, outside the shard driver.
    let mut engine = DseEngine::new(chaos_space(), DseConfig::default());
    engine.add_workload(spmspv());
    let single = engine
        .run(&mut GridSearch::new(chaos_space().len()))
        .unwrap()
        .to_json();
    // The driver's one-shard path, one batch in one process, agrees.
    let single_dir = scratch("dse-single");
    let one_shard = shard::run_sharded(&mut job(), &single_dir, &ShardOptions::with_shards(1));
    assert_eq!(
        one_shard.unwrap().to_json(),
        single,
        "shards=1 == grid search"
    );
    std::fs::remove_dir_all(&single_dir).ok();

    let dir = scratch("dse");
    let shards = 5;
    let killed = run_chaos("dse", &dir, shards, 3, 1, 2, 0xC7A0_5002);
    eprintln!("chaos: {killed} of 1 victims were killed while live");

    let stats = run_worker_to_completion("dse", &dir, shards, "resume");
    assert_eq!(
        jsonl::u64_field(&stats, "claimed"),
        Some(0),
        "resumed worker re-ran work: {stats}"
    );

    let merged = shard::merge(&job(), &dir, shards).unwrap();
    assert_eq!(
        merged.to_json(),
        single,
        "merged Pareto frontier == shards=1"
    );
    std::fs::remove_dir_all(&dir).ok();
}
