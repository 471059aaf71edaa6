//! Deterministic-merge property coverage (satellite of the sharding PR):
//! merging per-shard DSE journals in any permutation — with duplicated
//! rows from a stolen-and-reexecuted shard and a fenced stale row —
//! yields a Pareto frontier byte-identical to the single-process run on
//! the full 13-workload suite.
//!
//! The journals are synthetic (scores derived from the stable config
//! hash), so the property runs over all 13 workloads without a single
//! simulation: the engine assembles frontiers purely from journal
//! replay in both the sharded and the single-process path.

use nupea::jsonl::{fnv1a, JsonlFile};
use nupea::shard::{self, shard_journal, shard_of, tag_line, ShardOptions};
use nupea::{all_workloads, Scale, Workload};
use nupea_dse::{
    config_hash, Budget, Candidate, DseConfig, DseEngine, GridJob, GridSearch, Journal,
    JournalEntry, Outcome, Score, SearchSpace,
};
use std::path::PathBuf;

const SHARDS: u32 = 5;

/// The shard a candidate's rows belong to.
fn candidate_shard(c: &Candidate) -> u32 {
    shard_of(fnv1a(c.key().as_bytes()), SHARDS)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nupea-merge-det-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn suite() -> Vec<Workload> {
    all_workloads()
        .iter()
        .map(|s| s.build_default(Scale::Test))
        .collect()
}

fn small_space() -> SearchSpace {
    SearchSpace {
        domain_cols: vec![2, 3],
        d0_cols: vec![2, 3],
        cache_words: vec![64 * 1024],
        effort: 16,
        ..SearchSpace::default()
    }
}

/// The synthetic truth: one full-budget entry per (workload, candidate),
/// scores a pure function of the config hash. One pair is a failure so
/// the frontier path over `None` scores is exercised too.
fn truth_entries(space: &SearchSpace, workloads: &[Workload]) -> Vec<JournalEntry> {
    let mut out = Vec::new();
    for i in 0..space.len() {
        let c = space.nth(i);
        for (wi, w) in workloads.iter().enumerate() {
            let hash = config_hash(w, &c);
            let outcome = if i == 1 && wi == 0 {
                Outcome::Failed("deadlock".into())
            } else {
                Outcome::Done(Score {
                    cycles: 1_000 + hash % 50_000,
                    // Eighths are exact in binary: formatting stays stable.
                    energy: ((hash >> 8) % 10_000) as f64 / 8.0,
                    pes: 1 + (hash % 64) as usize,
                })
            };
            out.push(JournalEntry {
                hash,
                workload: w.name.to_string(),
                budget: Budget::Full,
                candidate: c.clone(),
                outcome,
            });
        }
    }
    out
}

/// The single-process baseline: every truth line (untagged) in shard 0's
/// journal, replayed by a plain grid search outside the shard driver —
/// zero simulation because the journal is complete. The driver's
/// `shards = 1` path over the same journal must agree.
fn single_process_json(space: &SearchSpace, workloads: &[Workload]) -> String {
    let dir = scratch("single");
    let (mut jf, _) = JsonlFile::open(shard_journal(&dir, 0)).unwrap();
    for e in truth_entries(space, workloads) {
        jf.append(&e.to_line()).unwrap();
    }
    let journal = Journal::open(shard_journal(&dir, 0)).unwrap();
    let mut engine = DseEngine::new(space.clone(), DseConfig::default()).with_journal(journal);
    for w in workloads {
        engine.add_workload(w.clone());
    }
    let grid = engine.run(&mut GridSearch::new(space.len())).unwrap();
    assert_eq!(grid.simulated, 0, "the journal is complete");
    let mut job = GridJob::new(space.clone(), DseConfig::default(), workloads);
    let one_shard = shard::run_sharded(&mut job, &dir, &ShardOptions::with_shards(1)).unwrap();
    assert_eq!(
        one_shard.to_json(),
        grid.to_json(),
        "shards=1 == grid search"
    );
    std::fs::remove_dir_all(&dir).ok();
    grid.to_json()
}

/// Deterministic permutation `p` of `lines` (rotations, reversals, and
/// stride shuffles — no RNG so the test is reproducible byte-for-byte).
fn permute(lines: &mut Vec<String>, p: usize) {
    match p % 4 {
        0 => {}
        1 => lines.reverse(),
        2 => {
            let n = lines.len().max(1);
            lines.rotate_left(p % n);
        }
        _ => {
            let stride = 3;
            let mut out = Vec::with_capacity(lines.len());
            for start in 0..stride {
                out.extend(lines.iter().skip(start).step_by(stride).cloned());
            }
            *lines = out;
        }
    }
}

#[test]
fn permuted_duplicated_shard_journals_merge_byte_identical() {
    let space = small_space();
    let workloads = suite();
    let single = single_process_json(&space, &workloads);
    let truth = truth_entries(&space, &workloads);

    for p in 0..4 {
        let dir = scratch(&format!("perm{p}"));
        // Shard 0 was "stolen and re-executed": its rows appear at epoch 1
        // AND again (identical content) at epoch 2, plus one divergent
        // stale epoch-1 row whose truth exists only at epoch 2 — the merge
        // must fence the stale row out by epoch.
        let mut per_shard: Vec<Vec<String>> = vec![Vec::new(); SHARDS as usize];
        let mut stolen_truth_skipped = false;
        for e in &truth {
            let s = candidate_shard(&e.candidate);
            let line = e.to_line();
            if s == 0 {
                if !stolen_truth_skipped {
                    // The divergent stale attempt: wrong content at epoch 1,
                    // truth only at epoch 2 (the thief's re-execution).
                    let divergent = line.replace("\"cycles\":", "\"cycles\":9");
                    assert_ne!(divergent, line);
                    per_shard[0].push(tag_line(&divergent, 0, 1));
                    per_shard[0].push(tag_line(&line, 0, 2));
                    stolen_truth_skipped = true;
                } else {
                    per_shard[0].push(tag_line(&line, 0, 1));
                    per_shard[0].push(tag_line(&line, 0, 2)); // duplicate row
                }
            } else {
                per_shard[s as usize].push(tag_line(&line, s, 1));
            }
        }
        assert!(stolen_truth_skipped, "shard 0 owns at least one candidate");
        // Permutation 3 additionally scatters lines across the *wrong*
        // shard files: the merge is global, so file assignment must not
        // matter either.
        if p == 3 {
            let mut all: Vec<String> = per_shard.concat();
            permute(&mut all, p);
            per_shard = vec![Vec::new(); SHARDS as usize];
            for (i, line) in all.into_iter().enumerate() {
                per_shard[i % SHARDS as usize].push(line);
            }
        }
        for (s, mut lines) in per_shard.into_iter().enumerate() {
            permute(&mut lines, p + s);
            let (mut jf, _) = JsonlFile::open(shard_journal(&dir, s as u32)).unwrap();
            for line in &lines {
                jf.append(line).unwrap();
            }
        }
        let job = GridJob::new(space.clone(), DseConfig::default(), &workloads);
        let report =
            shard::merge(&job, &dir, SHARDS).unwrap_or_else(|e| panic!("permutation {p}: {e}"));
        assert_eq!(
            report.to_json(),
            single,
            "permutation {p}: merged frontier must be byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn merge_of_incomplete_shards_is_a_typed_error_not_a_simulation() {
    let space = small_space();
    let workloads = suite();
    let dir = scratch("gap");
    // Every shard journal except shard 0's.
    for e in truth_entries(&space, &workloads) {
        let s = candidate_shard(&e.candidate);
        if s == 0 {
            continue;
        }
        let (mut jf, _) = JsonlFile::open(shard_journal(&dir, s)).unwrap();
        jf.append(&tag_line(&e.to_line(), s, 1)).unwrap();
    }
    let job = GridJob::new(space, DseConfig::default(), &workloads);
    let err = shard::merge(&job, &dir, SHARDS).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
