//! Integration tests for the shard coordination layer: concurrent
//! in-process workers draining one queue, and sharded fault campaigns
//! merging byte-identical to the single-process run.

use nupea::campaign::{CampaignConfig, CampaignError, CampaignJob, FaultCampaign};
use nupea::shard::{self, ShardOptions};
use nupea::Scale;
use nupea_kernels::workloads::workload_by_name;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nupea-shard-it-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn concurrent_workers_drain_the_queue_exactly_once() {
    let dir = scratch("concurrent");
    let coord = shard::coord_path(&dir);
    const SHARDS: u32 = 12;
    let runs = AtomicU32::new(0);
    let stats = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|wi| {
                let coord = &coord;
                let runs = &runs;
                scope.spawn(move || {
                    let opts = ShardOptions {
                        shards: SHARDS,
                        worker: format!("t{wi}"),
                        ttl_ms: 60_000, // generous: no false steals under load
                        heartbeat_ms: 5,
                    };
                    shard::run_worker(coord.as_path(), &opts, |ctx| {
                        runs.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        assert!(ctx.checkpoint()?);
                        Ok(())
                    })
                    .unwrap()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    // Generous TTLs mean no lease ever expired: every shard ran its body
    // exactly once, and completions across workers sum to the shard count.
    assert_eq!(runs.load(Ordering::SeqCst), SHARDS);
    assert_eq!(stats.iter().map(|s| s.completed).sum::<u32>(), SHARDS);
    assert_eq!(stats.iter().map(|s| s.stolen).sum::<u32>(), 0);
    assert_eq!(stats.iter().map(|s| s.fenced).sum::<u32>(), 0);
    // A late worker finds nothing to do.
    let opts = ShardOptions {
        shards: SHARDS,
        worker: "late".into(),
        ..ShardOptions::default()
    };
    let late = shard::run_worker(&coord, &opts, |_| panic!("queue is drained")).unwrap();
    assert_eq!(late.claimed, 0);
    std::fs::remove_dir_all(&dir).ok();
}

fn small_campaign() -> FaultCampaign {
    let mut cfg = CampaignConfig::smoke();
    cfg.injections = 2;
    cfg.threads = 2;
    let mut campaign = FaultCampaign::new(cfg);
    for name in ["spmv", "spmspv"] {
        campaign.workload(workload_by_name(name).unwrap().build_default(Scale::Test));
    }
    campaign
}

#[test]
fn sharded_campaign_merges_byte_identical_to_single_process() {
    let single = small_campaign().run().unwrap().to_json();

    let dir = scratch("campaign");
    let mut job = CampaignJob::new(small_campaign());
    let opts = ShardOptions {
        shards: 3,
        worker: "w-main".into(),
        ..ShardOptions::default()
    };
    let merged = shard::run_sharded(&mut job, &dir, &opts).unwrap();
    assert_eq!(merged.to_json(), single, "merged report == shards=1 report");

    // Resume over the finished run: zero claims, zero simulation, and the
    // merge alone reproduces the same bytes.
    let stats = shard::work(&mut job, &dir, &opts).unwrap();
    assert_eq!(stats.claimed, 0, "nothing left to claim on resume");
    let remerged = shard::merge(&job, &dir, opts.shards).unwrap();
    assert_eq!(remerged.to_json(), single);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_row_fails_the_merge_as_corruption_not_incomplete() {
    let dir = scratch("corrupt");
    let mut job = CampaignJob::new(small_campaign());
    let opts = ShardOptions {
        shards: 3,
        worker: "w-main".into(),
        ..ShardOptions::default()
    };
    shard::run_sharded(&mut job, &dir, &opts).unwrap();

    // Change one digit of the first row of the first non-empty shard
    // journal: its checksum no longer matches.
    let path = (0..opts.shards)
        .map(|s| shard::shard_journal(&dir, s))
        .find(|p| std::fs::metadata(p).is_ok_and(|m| m.len() > 0))
        .expect("some shard journal holds rows");
    let text = std::fs::read_to_string(&path).unwrap();
    let at = text.find("\"golden_cycles\":").unwrap() + "\"golden_cycles\":".len();
    let flipped = char::from(text.as_bytes()[at] ^ 1); // another digit
    let mut bad = text.clone();
    bad.replace_range(at..=at, &flipped.to_string());
    std::fs::write(&path, bad).unwrap();

    let err = shard::merge(&job, &dir, opts.shards).unwrap_err();
    let CampaignError::Io(io) = &err else {
        panic!("corruption must not read as an unfinished shard: {err}");
    };
    assert_eq!(io.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let want = format!("{}: 1 corrupt row(s), first at line 1", path.display());
    assert!(err.to_string().contains(&want), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_campaign_degrades_to_single_process_at_one_shard() {
    let dir = scratch("degrade");
    let mut job = CampaignJob::new(small_campaign());
    let one = ShardOptions::with_shards(1);
    let report = shard::run_sharded(&mut job, &dir, &one).unwrap();
    assert_eq!(report.to_json(), small_campaign().run().unwrap().to_json());
    assert!(
        !shard::coord_path(&dir).exists(),
        "shards=1 never creates a coordination journal"
    );

    // The process journaled every row in shard 0's file, so a rerun over
    // the same directory evaluates nothing: the journal does not grow.
    let journal = std::fs::read(shard::shard_journal(&dir, 0)).unwrap();
    assert!(!journal.is_empty(), "shards=1 journals in shard-0000.jsonl");
    let again = shard::run_sharded(&mut CampaignJob::new(small_campaign()), &dir, &one).unwrap();
    assert_eq!(again.to_json(), report.to_json());
    assert_eq!(
        std::fs::read(shard::shard_journal(&dir, 0)).unwrap(),
        journal
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_of_unfinished_shards_reports_incomplete() {
    let dir = scratch("incomplete");
    let job = CampaignJob::new(small_campaign());
    let err = shard::merge(&job, &dir, 3).unwrap_err();
    assert!(
        matches!(err, nupea::campaign::CampaignError::Incomplete { .. }),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
