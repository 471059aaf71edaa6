//! Crash-tolerant multi-process sharding over the JSONL journals.
//!
//! A [`ShardJob`] is a list of work items, each evaluated into one
//! journal row. This module is its one driver: [`work`] turns the
//! per-shard journals into a lease-based work queue that any number of
//! worker processes drain concurrently, with work stealing when a worker
//! dies; [`merge`] folds the journals into the job's report; and
//! [`run_sharded`] does both, or fills one journal itself at
//! `shards <= 1`. Fault campaigns ([`crate::campaign::CampaignJob`]) and
//! full-grid DSE searches (`nupea_dse::GridJob`) are the two jobs; they
//! supply only their items, keys, evaluation and report.
//!
//! # Protocol
//!
//! The unit of work is a **shard**: a stable partition of the work-item
//! space by FNV-1a hash ([`shard_of`]). Workers coordinate exclusively
//! through an append-only **coordination journal** of lease records:
//!
//! - `claim(shard, epoch, worker, deadline)` — a worker proposes to own
//!   `shard` at `epoch`. The fold accepts a claim iff its epoch is
//!   strictly greater than the shard's current epoch; when two workers
//!   race to the same epoch, **file order** decides (the journal is
//!   `O_APPEND`, so concurrent appends serialize), and the loser observes
//!   it lost on re-read.
//! - `renew(shard, epoch, worker, deadline)` — heartbeat: extends the
//!   lease deadline. Accepted iff the epoch *and* worker match the
//!   shard's current owner — a stale worker's late renew is ignored
//!   (**epoch fencing**).
//! - `done(shard, epoch, worker)` — the shard's results are fully
//!   journaled. Same fencing rule; a done shard ignores all later
//!   records.
//!
//! A shard is **claimable** when it is not done and either was never
//! claimed or its lease deadline has passed — so a SIGKILLed worker's
//! shards are stolen one TTL after its last heartbeat, at a higher
//! epoch. The stale worker (if merely stalled, not dead) discovers the
//! fence on its next [`ShardCtx::checkpoint`] and abandons the shard.
//! Rows go to the shard's journal `shard-NNNN.jsonl`. The job learns the
//! rows the journal already holds ([`ShardJob::replay`]) and is never
//! asked for them again, so a resumed or stolen shard only evaluates
//! what is missing.
//!
//! Claims and dones are written with [`JsonlFile::append_durable`]
//! (fsync before visible): a claim another worker may act on must
//! survive a host crash, or two workers could both believe they own a
//! shard after recovery.
//!
//! # Merge determinism
//!
//! Result-journal lines are tagged with their shard and epoch
//! ([`tag_line`]) and checksummed. The merge folds any multiset
//! of per-shard journal lines into one winner per key: highest epoch
//! wins, ties go to the lexicographically smallest line. That rule is a
//! pure function of the *set* of records — permutation-invariant and
//! duplicate-proof — so a stolen-and-reexecuted shard (same rows twice,
//! possibly at two epochs) merges to exactly what a single-process run
//! produces, regardless of worker count, death order, or steal
//! interleaving. [`merge`] then folds the winners in the job's item
//! order, which makes the merged reports byte-identical to the
//! `shards = 1` outputs. A corrupt row fails the merge as corruption; an
//! item with no row fails it as [`Incomplete`].
//!
//! See `DESIGN.md` §11 for the full protocol rationale and timing rules.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::jsonl::{self, JsonlFile};

/// Base of the delay after lost claim races, in milliseconds: the n-th
/// race lost in a row sleeps `CLAIM_BACKOFF_MS · 2ⁿ` (4 ms after the
/// first loss), capped at one heartbeat.
const CLAIM_BACKOFF_MS: u64 = 2;

/// Milliseconds since the Unix epoch — the protocol's wall clock. Lease
/// deadlines compare wall-clock times across processes on one host;
/// sub-second skew is absorbed by the TTL.
#[must_use]
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

/// The two clocks the lease protocol needs, kept deliberately separate:
///
/// * **wall** milliseconds go into journal records (claim/renew
///   deadlines), because deadlines are compared *across processes* and a
///   file is the only shared medium;
/// * **monotonic** milliseconds drive *local* elapsed-interval decisions
///   (the heartbeat cadence in [`ShardCtx::checkpoint`]).
///
/// Using the wall clock for the local decisions was a bug: a backwards
/// NTP step made `now - last_beat` saturate to zero, silently suppressing
/// renewals until the wall clock caught back up — long enough for the
/// lease to expire and a live shard to be spuriously stolen. Injectable
/// for tests; live code uses [`SystemClock`].
pub trait LeaseClock: std::fmt::Debug {
    /// Milliseconds since the Unix epoch (journal deadlines only).
    fn wall_ms(&self) -> u64;
    /// Milliseconds on a monotonic, never-backwards clock (local
    /// elapsed-interval decisions only). The origin is arbitrary.
    fn mono_ms(&self) -> u64;
}

/// The live clock: `SystemTime` for wall time, `Instant` for monotonic.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose monotonic origin is now.
    #[must_use]
    pub fn new() -> Self {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl LeaseClock for SystemClock {
    fn wall_ms(&self) -> u64 {
        now_ms()
    }

    fn mono_ms(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

/// The shard a work item with stable hash `hash` belongs to.
#[must_use]
pub fn shard_of(hash: u64, shards: u32) -> u32 {
    let n = u64::from(shards.max(1));
    u32::try_from(hash % n).expect("shard index < shards fits u32")
}

/// The coordination journal of a sharded run rooted at `dir`.
#[must_use]
pub fn coord_path(dir: &Path) -> PathBuf {
    dir.join("coord.jsonl")
}

/// The workers that appended shard claims to the coordination journal of
/// the run rooted at `dir`, in file order, lost races included. A torn
/// tail line is not counted yet. Chaos harnesses pace their kills by it.
#[must_use]
pub fn claimers(dir: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(coord_path(dir)).unwrap_or_default();
    text.lines()
        .filter(|line| jsonl::string_field(line, "rec").as_deref() == Some("claim"))
        .filter_map(|line| jsonl::string_field(line, "worker"))
        .collect()
}

/// Shard `shard`'s result journal in a sharded run rooted at `dir`.
#[must_use]
pub fn shard_journal(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("shard-{shard:04}.jsonl"))
}

/// Tag a result-journal line with the shard and epoch that produced it
/// and append a checksum. Parsers ignore the extra fields; the merge
/// layer ([`merge`]) uses the epoch to fence out stale writers.
#[must_use]
pub fn tag_line(line: &str, shard: u32, epoch: u64) -> String {
    let Some(body) = line.strip_suffix('}') else {
        return line.to_string();
    };
    jsonl::with_checksum(&format!("{body},\"shard\":{shard},\"epoch\":{epoch}}}"))
}

/// The epoch a journal line was written at (0 for untagged lines, which
/// sorts below every real epoch — single-process journals merge fine).
fn line_epoch(line: &str) -> u64 {
    jsonl::u64_field(line, "epoch").unwrap_or(0)
}

/// Fold journal lines (from any number of shard journals, in any order,
/// with duplicates) into one winning line per key: highest epoch wins,
/// ties go to the lexicographically smallest line. Pure function of the
/// line multiset — permutation-invariant, so merged outputs cannot
/// depend on worker count or death order. Lines `key_of` cannot key
/// (torn tails, foreign records) are skipped.
fn merge_by_key<K: Hash + Eq>(
    lines: impl IntoIterator<Item = String>,
    mut key_of: impl FnMut(&str) -> Option<K>,
) -> HashMap<K, String> {
    let mut best: HashMap<K, String> = HashMap::new();
    for line in lines {
        let Some(key) = key_of(&line) else { continue };
        match best.entry(key) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(line);
            }
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let (have, new) = (line_epoch(o.get()), line_epoch(&line));
                if new > have || (new == have && line.as_str() < o.get().as_str()) {
                    o.insert(line);
                }
            }
        }
    }
    best
}

/// Knobs for a sharded run: how the space is partitioned and how leases
/// are timed. The defaults suit multi-minute shards on one host; tests
/// and the chaos harness shrink the TTL to keep steal latency low.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Number of shards the work-item space is partitioned into.
    /// At `shards <= 1`, [`run_sharded`] fills `shard-0000.jsonl` in
    /// process, with no coordination journal at all.
    pub shards: u32,
    /// Unique worker id (unique per *live* process — the protocol fences
    /// by `(worker, epoch)`, so a reused id from a dead worker is safe,
    /// but two live workers must never share one). The CLIs derive it
    /// from the pid.
    pub worker: String,
    /// Lease time-to-live: a shard whose lease is this old (since the
    /// last heartbeat) is considered abandoned and may be stolen.
    pub ttl_ms: u64,
    /// Heartbeat interval — how often a running worker renews its lease
    /// via [`ShardCtx::checkpoint`]. Keep well under `ttl_ms`.
    pub heartbeat_ms: u64,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            shards: 1,
            worker: format!("w{}", std::process::id()),
            ttl_ms: 10_000,
            heartbeat_ms: 2_500,
        }
    }
}

impl ShardOptions {
    /// Options for an `n`-shard run with default lease timing.
    #[must_use]
    pub fn with_shards(n: u32) -> Self {
        ShardOptions {
            shards: n,
            ..ShardOptions::default()
        }
    }
}

/// Folded coordination state of one shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ShardState {
    /// Highest accepted claim epoch (0 = never claimed).
    epoch: u64,
    /// Worker holding the current lease.
    owner: String,
    /// Lease deadline (ms since epoch); past it the shard is stealable.
    deadline_ms: u64,
    /// The shard's results are fully journaled.
    done: bool,
}

/// A lease one worker holds on one shard at one epoch. Rows appended to
/// the shard's result journal are tagged `tag_line(line, shard, epoch)`
/// so the merge can fence out records written after the lease was lost.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Lease {
    /// The leased shard.
    shard: u32,
    /// The claim epoch — strictly increases across steals.
    epoch: u64,
    /// The holder's worker id.
    worker: String,
}

/// The coordination journal plus its folded per-shard state. All methods
/// that consult deadlines take an explicit `now_ms` so the protocol is
/// unit-testable with a synthetic clock; live callers pass [`now_ms`]`()`.
#[derive(Debug)]
struct Coordinator {
    path: PathBuf,
    file: JsonlFile,
    shards: u32,
    states: Vec<ShardState>,
}

impl Coordinator {
    /// Open (or create) the coordination journal at `path` for an
    /// `shards`-way partition and fold the existing records.
    fn open(path: impl Into<PathBuf>, shards: u32) -> io::Result<Self> {
        let path = path.into();
        let mut c = Coordinator {
            path,
            file: JsonlFile::in_memory(),
            shards: shards.max(1),
            states: Vec::new(),
        };
        c.reload()?;
        Ok(c)
    }

    /// Re-read the journal and re-fold all shard states. Call before any
    /// decision that depends on other workers' appends.
    fn reload(&mut self) -> io::Result<()> {
        let (file, lines) = JsonlFile::open(&self.path)?;
        self.file = file;
        self.states = vec![ShardState::default(); self.shards as usize];
        for line in &lines {
            self.fold(line);
        }
        Ok(())
    }

    /// Apply one lease record to the folded state (file order = arrival
    /// order; see the module docs for the acceptance rules).
    fn fold(&mut self, line: &str) {
        let Some(rec) = jsonl::string_field(line, "rec") else {
            return; // torn tail or foreign line
        };
        let Some(shard) = jsonl::u64_field(line, "shard") else {
            return;
        };
        let Some(st) = self.states.get_mut(shard as usize) else {
            return; // out-of-range shard (journal from a different split)
        };
        let (Some(epoch), Some(worker)) = (
            jsonl::u64_field(line, "epoch"),
            jsonl::string_field(line, "worker"),
        ) else {
            return;
        };
        if st.done {
            return; // a done shard ignores everything after
        }
        match rec.as_str() {
            "claim" if epoch > st.epoch => {
                st.epoch = epoch;
                st.owner = worker;
                st.deadline_ms = jsonl::u64_field(line, "deadline").unwrap_or(0);
            }
            "renew" if epoch == st.epoch && worker == st.owner => {
                st.deadline_ms = jsonl::u64_field(line, "deadline").unwrap_or(st.deadline_ms);
            }
            "done" if epoch == st.epoch && worker == st.owner => {
                st.done = true;
            }
            _ => {} // fenced (stale epoch / usurped owner) or unknown rec
        }
    }

    /// Every shard is done (as of the last reload).
    #[must_use]
    fn all_done(&self) -> bool {
        self.states.iter().all(|s| s.done)
    }

    /// `shard` may be claimed at `now`: not done, and never claimed or
    /// lease-expired.
    #[must_use]
    fn claimable(&self, shard: u32, now: u64) -> bool {
        let st = &self.states[shard as usize];
        !st.done && (st.epoch == 0 || now > st.deadline_ms)
    }

    /// Attempt to claim `shard` for `worker` with a `ttl_ms` lease.
    /// Durably appends a claim at the next epoch, then re-reads to see
    /// who won the race (file order decides). Returns the lease on win,
    /// `None` on a lost race or a shard that stopped being claimable.
    fn try_claim(
        &mut self,
        shard: u32,
        worker: &str,
        ttl_ms: u64,
        now: u64,
    ) -> io::Result<Option<Lease>> {
        self.reload()?;
        if !self.claimable(shard, now) {
            return Ok(None);
        }
        let epoch = self.states[shard as usize].epoch + 1;
        let deadline = now.saturating_add(ttl_ms);
        self.append_record("claim", shard, epoch, worker, Some(deadline))?;
        self.reload()?;
        let st = &self.states[shard as usize];
        if st.epoch == epoch && st.owner == worker {
            Ok(Some(Lease {
                shard,
                epoch,
                worker: worker.to_string(),
            }))
        } else {
            Ok(None)
        }
    }

    /// Renew `lease` with a fresh `ttl_ms` deadline. Returns `false` —
    /// without appending — when the lease has been fenced (another
    /// worker claimed a higher epoch): the caller must abandon the shard.
    fn renew(&mut self, lease: &Lease, ttl_ms: u64, now: u64) -> io::Result<bool> {
        self.reload()?;
        if !self.holds(lease) {
            return Ok(false);
        }
        let deadline = now.saturating_add(ttl_ms);
        self.append_record(
            "renew",
            lease.shard,
            lease.epoch,
            &lease.worker,
            Some(deadline),
        )?;
        self.reload()?;
        Ok(true)
    }

    /// Record `lease`'s shard as done (its results are fully journaled
    /// and synced). Returns `false` when the lease was fenced first — the
    /// usurper owns the shard now and will finish it itself.
    fn mark_done(&mut self, lease: &Lease) -> io::Result<bool> {
        self.reload()?;
        if !self.holds(lease) {
            return Ok(false);
        }
        self.append_record("done", lease.shard, lease.epoch, &lease.worker, None)?;
        self.reload()?;
        Ok(true)
    }

    /// `lease` still matches the folded owner/epoch of its shard.
    fn holds(&self, lease: &Lease) -> bool {
        let st = &self.states[lease.shard as usize];
        !st.done && st.epoch == lease.epoch && st.owner == lease.worker
    }

    fn append_record(
        &mut self,
        rec: &str,
        shard: u32,
        epoch: u64,
        worker: &str,
        deadline: Option<u64>,
    ) -> io::Result<()> {
        let deadline = deadline.map_or(String::new(), |d| format!(",\"deadline\":{d}"));
        let line = format!(
            "{{\"rec\":\"{rec}\",\"shard\":{shard},\"epoch\":{epoch},\"worker\":\"{}\"{deadline}}}",
            jsonl::escape(worker)
        );
        // Durability before visibility: another worker acting on this
        // record must never outlive it across a crash.
        self.file.append_durable(&jsonl::with_checksum(&line))
    }
}

/// What one [`run_worker`] invocation did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Leases won (first claims and steals).
    pub claimed: u32,
    /// Shards run to completion and marked done.
    pub completed: u32,
    /// Claims at epoch > 1 — shards stolen from a dead or stalled worker.
    pub stolen: u32,
    /// Shards abandoned mid-run because the lease was fenced.
    pub fenced: u32,
    /// Claim races lost to another worker.
    pub lost_races: u32,
}

/// Handle a shard body uses to heartbeat while it works. Call
/// [`ShardCtx::checkpoint`] at every convenient boundary (per work item);
/// it renews the lease when a heartbeat is due and reports fencing.
#[derive(Debug)]
pub struct ShardCtx<'a> {
    coord: &'a mut Coordinator,
    clock: &'a dyn LeaseClock,
    lease: Lease,
    ttl_ms: u64,
    heartbeat_ms: u64,
    /// Monotonic time of the last renewal — compared against `mono_ms`,
    /// never against wall time, so NTP steps can't stretch or shrink the
    /// heartbeat cadence.
    last_beat_mono: u64,
    fenced: bool,
}

impl ShardCtx<'_> {
    /// The leased shard index.
    #[must_use]
    pub fn shard(&self) -> u32 {
        self.lease.shard
    }

    /// The lease epoch — tag every result-journal line with it
    /// ([`tag_line`]).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.lease.epoch
    }

    /// Renew the lease if a heartbeat interval has elapsed. Returns
    /// `false` once the lease is fenced — the body must stop writing for
    /// this shard and return (its tagged records will lose the merge).
    ///
    /// # Errors
    ///
    /// I/O errors renewing the lease.
    pub fn checkpoint(&mut self) -> io::Result<bool> {
        if self.fenced {
            return Ok(false);
        }
        // Elapsed-interval decision on the monotonic clock; only the
        // journaled deadline uses wall time.
        let mono = self.clock.mono_ms();
        if mono.saturating_sub(self.last_beat_mono) < self.heartbeat_ms {
            return Ok(true);
        }
        let held = self
            .coord
            .renew(&self.lease, self.ttl_ms, self.clock.wall_ms())?;
        self.fenced = !held;
        self.last_beat_mono = mono;
        Ok(held)
    }
}

/// Drain the shard queue: repeatedly claim a claimable shard, run `body`
/// on it, and mark it done, until every shard is done. Blocks (sleeping
/// one heartbeat between scans) while other live workers hold unfinished
/// shards, and steals their shards if their leases expire. Returns when
/// every shard is done — so any single surviving worker finishes the
/// whole queue. `shards: 0` is treated as 1, as [`shard_of`] does.
///
/// `body` receives a [`ShardCtx`] and must: replay/append the shard's
/// result journal idempotently, call [`ShardCtx::checkpoint`] between
/// work items, and return early (Ok) if checkpoint reports fencing.
/// [`work`] is this loop with the body every [`ShardJob`] shares.
///
/// # Errors
///
/// I/O errors from the coordination journal, or the first error `body`
/// returns.
pub fn run_worker(
    coord_path: &Path,
    opts: &ShardOptions,
    mut body: impl FnMut(&mut ShardCtx) -> io::Result<()>,
) -> io::Result<WorkerStats> {
    let shards = opts.shards.max(1);
    let mut coord = Coordinator::open(coord_path, shards)?;
    let clock = SystemClock::new();
    let mut stats = WorkerStats::default();
    // Start the scan at a worker-dependent offset so a fleet starting
    // simultaneously doesn't stampede shard 0.
    let offset = shard_of(jsonl::fnv1a(opts.worker.as_bytes()), shards);
    let mut contention: u32 = 0;
    loop {
        coord.reload()?;
        if coord.all_done() {
            return Ok(stats);
        }
        let now = clock.wall_ms();
        let claimable = (0..shards)
            .map(|i| (i + offset) % shards)
            .find(|&s| coord.claimable(s, now));
        let Some(shard) = claimable else {
            // Other workers hold every unfinished shard: wait for one to
            // finish or for a lease to expire.
            std::thread::sleep(Duration::from_millis(opts.heartbeat_ms.max(1)));
            continue;
        };
        let Some(lease) = coord.try_claim(shard, &opts.worker, opts.ttl_ms, now)? else {
            // Lost the race: back off (capped at one heartbeat) and rescan.
            stats.lost_races += 1;
            contention = contention.saturating_add(1);
            let delay = CLAIM_BACKOFF_MS
                .saturating_mul(2u64.saturating_pow(contention))
                .min(opts.heartbeat_ms);
            std::thread::sleep(Duration::from_millis(delay.max(1)));
            continue;
        };
        contention = 0;
        stats.claimed += 1;
        if lease.epoch > 1 {
            stats.stolen += 1;
        }
        let mut ctx = ShardCtx {
            coord: &mut coord,
            clock: &clock,
            lease: lease.clone(),
            ttl_ms: opts.ttl_ms,
            heartbeat_ms: opts.heartbeat_ms,
            last_beat_mono: clock.mono_ms(),
            fenced: false,
        };
        body(&mut ctx)?;
        let fenced = ctx.fenced;
        if fenced {
            stats.fenced += 1;
            continue;
        }
        if coord.mark_done(&lease)? {
            stats.completed += 1;
        } else {
            stats.fenced += 1;
        }
    }
}

/// A job the shard driver runs ([`run_sharded`], [`work`], [`merge`]).
/// The job supplies only what differs between jobs — its items, their
/// keys, how to evaluate them, and how to report — while the driver owns
/// the journals, leases, fencing and merge rules of DESIGN.md §11.
pub trait ShardJob {
    /// A work item. It is also the merge key of the one result row it
    /// evaluates to.
    type Item: Hash + Eq;
    /// What the merged rows fold into.
    type Report;
    /// The job's error; journal I/O errors and incomplete merges
    /// convert into it.
    type Error: From<io::Error> + From<Incomplete>;

    /// Every item, in report order.
    fn items(&self) -> Vec<Self::Item>;

    /// The string whose FNV-1a hash picks `item`'s shard. Journals
    /// written under one shard key only resume under the same one.
    fn shard_key(&self, item: &Self::Item) -> String;

    /// The item a journal row is the result of, or `None` for a row this
    /// job does not own (a torn tail, another seed or search space).
    fn row_key(&self, row: &str) -> Option<Self::Item>;

    /// Learn the rows a shard's journal already holds, before the
    /// shard's missing items are evaluated. A job that evaluates several
    /// items together (a DSE candidate against every workload) keeps
    /// them, so it does not evaluate a held item again along with a
    /// missing one. The default ignores them.
    fn replay(&mut self, _rows: &[String]) {}

    /// Evaluate a batch of items into one result row each, in order;
    /// a row is a flat JSON object. A `shards <= 1` run passes every
    /// missing item in one batch, so the job may evaluate them in
    /// parallel; a sharded worker passes one item at a time and
    /// heartbeats in between.
    ///
    /// # Errors
    ///
    /// Failures that stop the whole job; an item's own failure belongs
    /// in its row.
    fn evaluate(&mut self, items: &[Self::Item]) -> Result<Vec<String>, Self::Error>;

    /// Fold the winning rows, one per item in [`ShardJob::items`] order,
    /// into the report.
    ///
    /// # Errors
    ///
    /// The job's own reporting failures.
    fn fold(&self, rows: Vec<String>) -> Result<Self::Report, Self::Error>;
}

/// A merge found an item with no result row: its shard has not finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incomplete {
    /// The item's shard key ([`ShardJob::shard_key`]).
    pub item: String,
    /// The shard that owes the row.
    pub shard: u32,
}

impl fmt::Display for Incomplete {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sharded merge incomplete: no row for {} (shard {})",
            self.item, self.shard
        )
    }
}

impl std::error::Error for Incomplete {}

impl From<Incomplete> for io::Error {
    fn from(e: Incomplete) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// The shard of `item` in a `shards`-way split.
fn item_shard<J: ShardJob>(job: &J, item: &J::Item, shards: u32) -> u32 {
    shard_of(jsonl::fnv1a(job.shard_key(item).as_bytes()), shards)
}

/// Evaluate into `shard`'s journal every item of that shard the journal
/// does not hold yet, `batch` items per [`ShardJob::evaluate`] call, and
/// tag each row with `(shard, epoch)`. `held` is asked after every
/// batch; once it reports the lease fenced, the rest is left to the new
/// owner. A finished shard's journal is synced before this returns, so
/// its `done` record never covers unsynced rows.
fn fill<J: ShardJob>(
    job: &mut J,
    dir: &Path,
    shard: u32,
    shards: u32,
    epoch: u64,
    batch: usize,
    mut held: impl FnMut() -> io::Result<bool>,
) -> Result<(), J::Error> {
    let (mut journal, rows) = JsonlFile::open(shard_journal(dir, shard))?;
    let have: HashSet<J::Item> = rows.iter().filter_map(|row| job.row_key(row)).collect();
    job.replay(&rows);
    let todo: Vec<J::Item> = job
        .items()
        .into_iter()
        .filter(|item| item_shard(job, item, shards) == shard && !have.contains(item))
        .collect();
    for items in todo.chunks(batch.max(1)) {
        for row in job.evaluate(items)? {
            journal.append(&tag_line(&row, shard, epoch))?;
        }
        if !held()? {
            // Fenced: another worker owns this shard now, and our
            // stale-epoch rows lose the merge. Stop writing.
            return Ok(());
        }
    }
    Ok(journal.sync()?)
}

/// Work as one worker of a sharded run of `job` rooted at `dir` (the
/// coordination journal plus one result journal per shard): claim
/// shards, fill each, and return once every shard is done — including
/// shards other workers finish. Any number of processes may call this
/// concurrently with the same job and distinct [`ShardOptions::worker`]
/// ids; a worker that finds every shard done evaluates nothing.
///
/// # Errors
///
/// The first error `job` returns, or journal I/O errors.
pub fn work<J: ShardJob>(
    job: &mut J,
    dir: &Path,
    opts: &ShardOptions,
) -> Result<WorkerStats, J::Error> {
    let shards = opts.shards.max(1);
    let mut failed = None;
    let stats = run_worker(&coord_path(dir), opts, |ctx| {
        let (shard, epoch) = (ctx.shard(), ctx.epoch());
        fill(job, dir, shard, shards, epoch, 1, || ctx.checkpoint()).map_err(|e| {
            failed = Some(e);
            io::Error::other("sharded job failed")
        })
    });
    stats.map_err(|e| failed.unwrap_or_else(|| e.into()))
}

/// Merge the result journals of a `shards`-way run rooted at `dir` into
/// `job`'s report. Per item the highest-epoch row wins, and the winners
/// fold in item order, so the report is byte-identical to a
/// single-process run however the rows were written. Pure journal I/O:
/// nothing is evaluated.
///
/// # Errors
///
/// `InvalidData` naming the journal and its first corrupt line when a
/// row fails its checksum; [`Incomplete`] when an item has no row; other
/// journal I/O errors; and the errors of [`ShardJob::fold`].
pub fn merge<J: ShardJob>(job: &J, dir: &Path, shards: u32) -> Result<J::Report, J::Error> {
    let shards = shards.max(1);
    let mut rows = Vec::new();
    for shard in 0..shards {
        let path = shard_journal(dir, shard);
        let (file, lines) = JsonlFile::open(&path)?;
        if let Some(c) = file.corruption() {
            let msg = format!(
                "{}: {} corrupt row(s), first at line {}",
                path.display(),
                c.count,
                c.first_line
            );
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg).into());
        }
        rows.extend(lines);
    }
    let mut winners = merge_by_key(rows, |row| job.row_key(row));
    let mut report_rows = Vec::new();
    for item in job.items() {
        let Some(row) = winners.remove(&item) else {
            return Err(Incomplete {
                shard: item_shard(job, &item, shards),
                item: job.shard_key(&item),
            }
            .into());
        };
        report_rows.push(row);
    }
    job.fold(report_rows)
}

/// Run `job` to its report over the run directory `dir`. At
/// `opts.shards <= 1` the process fills `shard-0000.jsonl` itself, in one
/// batch and with no leases and no coordination journal; otherwise it
/// [`work`]s as one worker until every shard is done, joining or
/// resuming any workers already running on `dir`. Either way a rerun over the same `dir`
/// evaluates nothing, and the report comes from [`merge`].
///
/// # Errors
///
/// As [`work`] and [`merge`].
pub fn run_sharded<J: ShardJob>(
    job: &mut J,
    dir: &Path,
    opts: &ShardOptions,
) -> Result<J::Report, J::Error> {
    if opts.shards <= 1 {
        fill(job, dir, 0, 1, 0, usize::MAX, || Ok(true))?;
    } else {
        work(job, dir, opts)?;
    }
    merge(job, dir, opts.shards)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Coordinator {
        /// Folded state of `shard` (as of the last reload).
        fn state(&self, shard: u32) -> &ShardState {
            &self.states[shard as usize]
        }

        /// Shards not yet done (as of the last reload).
        fn remaining(&self) -> u32 {
            u32::try_from(self.states.iter().filter(|s| !s.done).count()).unwrap_or(u32::MAX)
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nupea-shard-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn shard_of_partitions_stably() {
        assert_eq!(shard_of(10, 4), 2);
        assert_eq!(shard_of(10, 1), 0);
        assert_eq!(shard_of(10, 0), 0, "0 shards treated as 1");
        let h = jsonl::fnv1a(b"spmv;i3;s64");
        assert_eq!(shard_of(h, 13), shard_of(h, 13), "deterministic");
    }

    #[test]
    fn tag_line_round_trips_epoch_and_stays_parseable() {
        let tagged = tag_line("{\"k\":1,\"v\":2}", 3, 7);
        assert_eq!(jsonl::u64_field(&tagged, "k"), Some(1));
        assert_eq!(jsonl::u64_field(&tagged, "shard"), Some(3));
        assert_eq!(line_epoch(&tagged), 7);
        assert_eq!(jsonl::verify_checksum(&tagged), jsonl::Integrity::Valid);
        assert_eq!(line_epoch("{\"k\":1}"), 0, "untagged lines are epoch 0");
    }

    #[test]
    fn merge_by_key_is_permutation_invariant_and_epoch_fenced() {
        let a = tag_line("{\"k\":1,\"v\":10}", 0, 1); // stale epoch, divergent
        let b = tag_line("{\"k\":1,\"v\":11}", 0, 2); // winner: higher epoch
        let c = tag_line("{\"k\":2,\"v\":20}", 1, 1);
        let dup = c.clone(); // stolen-and-reexecuted duplicate row
        let torn = "{\"k\":".to_string(); // unkeyable (torn before the value)
        let perms: [Vec<&String>; 3] = [
            vec![&a, &b, &c, &dup, &torn],
            vec![&torn, &dup, &c, &b, &a],
            vec![&b, &dup, &a, &torn, &c],
        ];
        for p in perms {
            let merged = merge_by_key(p.into_iter().cloned(), |l| jsonl::u64_field(l, "k"));
            assert_eq!(merged.len(), 2);
            assert_eq!(merged[&1], b, "higher epoch wins over stale divergent");
            assert_eq!(merged[&2], c);
        }
        // Same epoch, divergent content: lexicographically smallest wins,
        // independent of encounter order.
        let x = tag_line("{\"k\":9,\"v\":1}", 0, 3);
        let y = tag_line("{\"k\":9,\"v\":2}", 0, 3);
        let w = x.clone().min(y.clone());
        for pair in [[&x, &y], [&y, &x]] {
            let merged = merge_by_key(pair.into_iter().cloned(), |l| jsonl::u64_field(l, "k"));
            assert_eq!(merged[&9], w);
        }
    }

    #[test]
    fn claim_renew_done_fold_with_synthetic_clock() {
        let dir = scratch("fold");
        let path = dir.join("coord.jsonl");
        let mut c = Coordinator::open(&path, 2).unwrap();
        assert!(c.claimable(0, 100), "fresh shard is claimable");
        assert!(!c.all_done());

        let lease = c.try_claim(0, "w1", 1_000, 100).unwrap().expect("won");
        assert_eq!(lease.epoch, 1);
        assert!(!c.claimable(0, 500), "leased and in TTL");
        assert!(c.claimable(0, 1_101), "past deadline: stealable");
        assert!(c.claimable(1, 0), "other shard untouched");

        assert!(c.renew(&lease, 1_000, 900).unwrap());
        assert!(!c.claimable(0, 1_500), "renew extended the deadline");

        assert!(c.mark_done(&lease).unwrap());
        assert!(c.state(0).done);
        assert!(!c.claimable(0, u64::MAX), "done shards are never claimable");
        assert_eq!(c.remaining(), 1);

        // A second coordinator over the same file folds identically.
        let c2 = Coordinator::open(&path, 2).unwrap();
        assert_eq!(c2.state(0), c.state(0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn steal_fences_the_stale_worker() {
        let dir = scratch("fence");
        let path = dir.join("coord.jsonl");
        let mut c = Coordinator::open(&path, 1).unwrap();
        let stale = c.try_claim(0, "w1", 1_000, 0).unwrap().expect("w1 claims");

        // w1 stalls past its deadline; w2 steals at epoch 2.
        let thief = c.try_claim(0, "w2", 1_000, 2_000).unwrap().expect("steal");
        assert_eq!(thief.epoch, 2);
        assert_eq!(c.state(0).owner, "w2");

        // w1 wakes up: its renew and done are fenced, without appending.
        assert!(!c.renew(&stale, 1_000, 2_100).unwrap());
        assert!(!c.mark_done(&stale).unwrap());
        assert!(!c.state(0).done, "stale done was ignored");

        // And even a *directly appended* stale record is ignored at fold
        // (the late-append case: w1 raced its record in before noticing).
        c.append_record("renew", 0, 1, "w1", Some(9_999_999))
            .unwrap();
        c.reload().unwrap();
        assert_eq!(c.state(0).deadline_ms, 3_000, "stale renew fenced");

        assert!(c.mark_done(&thief).unwrap());
        assert!(c.state(0).done);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn claim_race_is_decided_by_file_order() {
        let dir = scratch("race");
        let path = dir.join("coord.jsonl");
        let mut a = Coordinator::open(&path, 1).unwrap();
        let mut b = Coordinator::open(&path, 1).unwrap();
        // Both see the shard claimable and append claims at epoch 1; the
        // coordinator that appended first wins, the other observes loss.
        a.append_record("claim", 0, 1, "wa", Some(1_000)).unwrap();
        let lost = b.try_claim(0, "wb", 1_000, 0).unwrap();
        assert!(lost.is_none(), "wb's same-epoch claim is fenced");
        a.reload().unwrap();
        assert_eq!(a.state(0).owner, "wa");
        // A same-epoch claim that was appended second loses at fold, but
        // still counts as a claim in file order.
        b.append_record("claim", 0, 1, "wb", Some(1_000)).unwrap();
        a.reload().unwrap();
        assert_eq!(a.state(0).owner, "wa");
        assert_eq!(claimers(&dir), ["wa", "wb"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_worker_drains_all_shards_single_process() {
        let dir = scratch("drain");
        let path = dir.join("coord.jsonl");
        let opts = ShardOptions {
            shards: 5,
            worker: "solo".into(),
            ttl_ms: 5_000,
            heartbeat_ms: 1,
        };
        let mut seen = Vec::new();
        let stats = run_worker(&path, &opts, |ctx| {
            seen.push(ctx.shard());
            assert!(ctx.checkpoint().unwrap(), "solo worker is never fenced");
            Ok(())
        })
        .unwrap();
        assert_eq!(stats.claimed, 5);
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.stolen, 0);
        assert_eq!(stats.fenced, 0);
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        // A second worker over the finished queue does nothing.
        let stats2 = run_worker(&path, &opts, |_| panic!("no work left")).unwrap();
        assert_eq!(stats2.claimed, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_shard_worker_runs_one_shard_and_returns() {
        let dir = scratch("zero");
        let opts = ShardOptions {
            shards: 0,
            worker: "solo".into(),
            heartbeat_ms: 1,
            ..ShardOptions::default()
        };
        let stats = run_worker(&dir.join("coord.jsonl"), &opts, |ctx| {
            assert_eq!(ctx.shard(), 0);
            Ok(())
        })
        .unwrap();
        assert_eq!(stats.completed, 1, "0 shards is one shard, as in shard_of");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_worker_steals_expired_leases() {
        let dir = scratch("steal");
        let path = dir.join("coord.jsonl");
        // A "dead" worker claimed shard 0 long ago and never heartbeat:
        // fabricate an expired lease.
        {
            let mut c = Coordinator::open(&path, 2).unwrap();
            c.append_record("claim", 0, 1, "dead", Some(0)).unwrap();
        }
        let opts = ShardOptions {
            shards: 2,
            worker: "live".into(),
            ttl_ms: 5_000,
            heartbeat_ms: 1,
        };
        let stats = run_worker(&path, &opts, |ctx| {
            if ctx.shard() == 0 {
                assert_eq!(ctx.epoch(), 2, "steal bumps the epoch");
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.stolen, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Test clock whose wall and monotonic readings are set directly.
    #[derive(Debug)]
    struct FakeClock {
        wall: std::cell::Cell<u64>,
        mono: std::cell::Cell<u64>,
    }

    impl LeaseClock for FakeClock {
        fn wall_ms(&self) -> u64 {
            self.wall.get()
        }
        fn mono_ms(&self) -> u64 {
            self.mono.get()
        }
    }

    #[test]
    fn heartbeats_survive_backwards_wall_clock_steps() {
        let dir = scratch("ntp");
        let path = dir.join("coord.jsonl");
        let mut coord = Coordinator::open(&path, 1).unwrap();
        let clock = FakeClock {
            wall: std::cell::Cell::new(100_000),
            mono: std::cell::Cell::new(50),
        };
        let lease = coord
            .try_claim(0, "w1", 1_000, clock.wall_ms())
            .unwrap()
            .expect("w1 claims");
        let mut ctx = ShardCtx {
            coord: &mut coord,
            clock: &clock,
            lease,
            ttl_ms: 1_000,
            heartbeat_ms: 100,
            last_beat_mono: clock.mono_ms(),
            fenced: false,
        };

        // Within a heartbeat interval: no renewal due.
        clock.mono.set(100);
        assert!(ctx.checkpoint().unwrap());
        assert_eq!(ctx.coord.state(0).deadline_ms, 101_000, "no renew yet");

        // NTP steps the wall clock back 30s while the monotonic clock
        // crosses the heartbeat interval. The old wall-clock cadence
        // (`wall - last_beat` saturating to 0) would suppress this
        // renewal — and every subsequent one for 30s, letting the 1s TTL
        // lapse and the live shard be stolen. The monotonic cadence must
        // renew on schedule.
        clock.wall.set(70_000);
        clock.mono.set(151);
        assert!(ctx.checkpoint().unwrap());
        assert_eq!(
            ctx.coord.state(0).deadline_ms,
            71_000,
            "renewed: journal deadline follows the (stepped) wall clock"
        );

        // Cadence stays monotonic after the step: the next beat is due
        // one interval of *monotonic* time later, not when the wall
        // clock recovers.
        clock.mono.set(200);
        assert!(ctx.checkpoint().unwrap());
        assert_eq!(ctx.coord.state(0).deadline_ms, 71_000, "within interval");
        clock.wall.set(70_001);
        clock.mono.set(252);
        assert!(ctx.checkpoint().unwrap());
        assert_eq!(ctx.coord.state(0).deadline_ms, 71_001, "renewed again");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_ids_with_quotes_survive_the_journal() {
        let dir = scratch("quote");
        let path = dir.join("coord.jsonl");
        let worker = "host\"a\",1";
        let mut c = Coordinator::open(&path, 1).unwrap();
        let lease = c.try_claim(0, worker, 1_000, 0).unwrap().expect("claims");
        assert_eq!(c.state(0).owner, worker);
        assert!(c.renew(&lease, 1_000, 10).unwrap());
        let c2 = Coordinator::open(&path, 1).unwrap();
        assert_eq!(c2.state(0).owner, worker);
        std::fs::remove_dir_all(&dir).ok();
    }
}
