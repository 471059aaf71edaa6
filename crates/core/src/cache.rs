//! Shared content-addressed compile-artifact cache.
//!
//! Compiling (multi-seed place-and-route) dominates the cost of a
//! request, but depends only on `(workload, system, heuristic)` — the
//! same observation the [`crate::runner`] exploits *within* one sweep.
//! This cache extends the reuse *across* independent requests (the serve
//! frontend, repeated CLI invocations in one process): artifacts are
//! keyed by the FNV-1a hash of a canonical config string
//! ([`config_key`] / [`config_hash`] — the same [`jsonl::fnv1a`] the DSE
//! and shard journals use for content addressing), shared as
//! [`Arc<Compiled>`], and evicted least-recently-used past a fixed
//! capacity.
//!
//! Concurrent requests for the same key are **single-flighted**: the
//! first takes a pending slot and compiles outside the lock; the rest
//! block on a condvar and receive the shared artifact, so a burst of
//! identical requests costs one PnR, not N. Failed compiles are *not*
//! cached (errors are config-dependent but cheap to rediscover relative
//! to the risk of pinning a transient failure), and every waiter of a
//! failed flight retries the compile itself.
//!
//! A per-key **circuit breaker** contains configs that fail compile
//! repeatedly: after [`BREAKER_THRESHOLD`] consecutive failures the key
//! is *open* and lookups fast-fail with a typed
//! [`PipelineError::FastFailed`] (the serve frontend's `422`) instead of
//! re-running PnR under single-flight — without it, a hostile or buggy
//! client replaying one bad config would burn a full multi-seed PnR per
//! request. The breaker is counter-based (deterministic, no wall
//! clock): every [`BREAKER_PROBE_EVERY`] fast-fails one probe compile is
//! let through (half-open); a success closes the breaker, a failure
//! re-opens it.

use crate::jsonl;
use crate::{Compiled, Heuristic, PipelineError, SystemConfig, Workload};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// Canonical, human-readable config string an artifact is addressed by.
/// Every knob that can change the compile result, or the runs of the
/// cached artifact (which simulate under the [`SystemConfig`] that
/// compiled it), is included; the workload is identified structurally
/// (name, parallelism, graph size, memory allocation watermark) so the
/// same kernel at different scales — identical graph, bigger input
/// image — keys differently.
#[must_use]
pub fn config_key(workload: &Workload, sys: &SystemConfig, heuristic: Heuristic) -> String {
    let dfg = workload.kernel.dfg();
    format!(
        "w={};par={};nodes={};edges={};memused={};fab={}x{}x{}t;topo={:?};domains={};\
         mem={},{},{},{},{},{},{};fifo={};outst={};seed={};effort={};div={:?};\
         stall={};avoid={:?};h={heuristic}",
        workload.name,
        workload.par,
        dfg.len(),
        dfg.num_edges(),
        workload.mem.used(),
        sys.fabric.rows(),
        sys.fabric.cols(),
        sys.fabric.tracks,
        sys.fabric.topology(),
        sys.fabric.num_domains(),
        sys.mem.mem_words,
        sys.mem.cache_words,
        sys.mem.line_words,
        sys.mem.ways,
        sys.mem.banks,
        sys.mem.hit_latency,
        sys.mem.miss_latency,
        sys.fifo_depth,
        sys.max_outstanding,
        sys.seed,
        sys.effort,
        sys.divider_override,
        sys.stall_window,
        sys.avoid,
    )
}

/// FNV-1a hash of [`config_key`] — the cache address of one artifact.
#[must_use]
pub fn config_hash(workload: &Workload, sys: &SystemConfig, heuristic: Heuristic) -> u64 {
    jsonl::fnv1a(config_key(workload, sys, heuristic).as_bytes())
}

/// Consecutive compile failures that open a key's circuit breaker.
pub const BREAKER_THRESHOLD: u32 = 3;
/// Fast-fails between half-open probe compiles on an open breaker.
pub const BREAKER_PROBE_EVERY: u64 = 32;

/// Counters describing the cache's life so far (reported at `/stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Lookups answered from a cached artifact (including waiters that
    /// received a single-flighted compile another request started).
    pub hits: u64,
    /// Lookups that found no artifact and triggered (or joined a failed)
    /// compile.
    pub misses: u64,
    /// Place-and-route runs actually performed.
    pub compiles: u64,
    /// Artifacts evicted by the LRU cap.
    pub evictions: u64,
    /// Artifacts currently resident.
    pub entries: usize,
    /// Lookups refused by an open circuit breaker without compiling.
    pub fast_fails: u64,
    /// Keys whose breaker is currently open.
    pub open_breakers: usize,
}

#[derive(Debug)]
struct Slot {
    artifact: Arc<Compiled>,
    last_used: u64,
}

/// Consecutive-failure record for one key (the circuit breaker).
#[derive(Debug, Default)]
struct FailState {
    /// Consecutive compile failures; the breaker is open at
    /// [`BREAKER_THRESHOLD`].
    consecutive: u32,
    /// Fast-fails since the last half-open probe.
    since_probe: u64,
    /// The most recent failure, preserved for fast-fail messages.
    last_error: String,
}

#[derive(Debug, Default)]
struct Inner {
    slots: HashMap<u64, Slot>,
    /// Keys with a compile in flight; waiters sleep on the condvar.
    pending: Vec<u64>,
    /// Logical LRU clock, bumped per lookup.
    tick: u64,
    /// Per-key consecutive-failure records (the circuit breakers).
    failures: HashMap<u64, FailState>,
    stats: CacheStats,
}

/// A bounded, thread-safe artifact cache. See the [module docs](self).
#[derive(Debug)]
pub struct ArtifactCache {
    inner: Mutex<Inner>,
    flight_done: Condvar,
    cap: usize,
}

impl ArtifactCache {
    /// A cache holding at most `cap` artifacts (minimum 1).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        ArtifactCache {
            inner: Mutex::new(Inner::default()),
            flight_done: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Look up the artifact for `hash` (from [`config_hash`]), compiling
    /// `(workload, sys, heuristic)` on a miss. Returns the artifact plus
    /// whether it was served from cache. Concurrent misses on one key
    /// are single-flighted; see the [module docs](self).
    ///
    /// # Errors
    ///
    /// Returns the [`PipelineError`] of a failed compile. Failures are
    /// never cached.
    pub fn get_or_compile(
        &self,
        hash: u64,
        workload: &Arc<Workload>,
        sys: &Arc<SystemConfig>,
        heuristic: Heuristic,
    ) -> (Result<Arc<Compiled>, PipelineError>, bool) {
        let mut inner = self.inner.lock().expect("artifact cache poisoned");
        loop {
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(slot) = inner.slots.get_mut(&hash) {
                slot.last_used = tick;
                let artifact = Arc::clone(&slot.artifact);
                inner.stats.hits += 1;
                return (Ok(artifact), true);
            }
            if inner.pending.contains(&hash) {
                // Another request is compiling this key: wait for it and
                // re-check (a hit if it succeeded, our own flight if not).
                inner = self
                    .flight_done
                    .wait(inner)
                    .expect("artifact cache poisoned");
                continue;
            }
            // Circuit breaker: a key with BREAKER_THRESHOLD consecutive
            // compile failures fast-fails instead of re-running PnR,
            // except for one half-open probe every BREAKER_PROBE_EVERY
            // refusals.
            if let Some(fail) = inner.failures.get_mut(&hash) {
                if fail.consecutive >= BREAKER_THRESHOLD {
                    if fail.since_probe < BREAKER_PROBE_EVERY {
                        fail.since_probe += 1;
                        let err = PipelineError::FastFailed {
                            failures: fail.consecutive,
                            message: fail.last_error.clone(),
                        };
                        inner.stats.fast_fails += 1;
                        return (Err(err), false);
                    }
                    // Probe slot: fall through to a real compile.
                    fail.since_probe = 0;
                }
            }
            inner.stats.misses += 1;
            inner.pending.push(hash);
            drop(inner);
            let result = crate::compile_impl(workload, sys, heuristic);
            let mut inner = self.inner.lock().expect("artifact cache poisoned");
            inner.pending.retain(|&k| k != hash);
            let out = match result {
                Ok(compiled) => {
                    inner.stats.compiles += 1;
                    inner.failures.remove(&hash); // breaker closes on success
                    let artifact = Arc::new(compiled);
                    let tick = inner.tick;
                    inner.slots.insert(
                        hash,
                        Slot {
                            artifact: Arc::clone(&artifact),
                            last_used: tick,
                        },
                    );
                    self.evict_past_cap(&mut inner);
                    Ok(artifact)
                }
                Err(e) => {
                    let fail = inner.failures.entry(hash).or_default();
                    fail.consecutive = fail.consecutive.saturating_add(1);
                    fail.since_probe = 0;
                    fail.last_error = e.to_string();
                    Err(e)
                }
            };
            self.flight_done.notify_all();
            return (out, false);
        }
    }

    /// Drop least-recently-used slots until at most `cap` remain.
    fn evict_past_cap(&self, inner: &mut Inner) {
        while inner.slots.len() > self.cap {
            let Some((&victim, _)) = inner.slots.iter().min_by_key(|(_, s)| s.last_used) else {
                return;
            };
            inner.slots.remove(&victim);
            inner.stats.evictions += 1;
        }
    }

    /// A snapshot of the cache counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("artifact cache poisoned");
        CacheStats {
            entries: inner.slots.len(),
            open_breakers: inner
                .failures
                .values()
                .filter(|f| f.consecutive >= BREAKER_THRESHOLD)
                .count(),
            ..inner.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PeId, Scale};
    use nupea_kernels::workloads::sparse;

    fn fixture(par: usize, seed: u64) -> (Arc<Workload>, Arc<SystemConfig>) {
        let mut sys = SystemConfig::monaco_12x12();
        sys.seed = seed;
        sys.effort = 20;
        (Arc::new(sparse::spmv(Scale::Test, par)), Arc::new(sys))
    }

    /// A degenerate config that fails validation inside `compile_impl`.
    fn zero_fifo() -> Arc<SystemConfig> {
        let mut sys = SystemConfig::monaco_12x12();
        sys.fifo_depth = 0;
        Arc::new(sys)
    }

    #[test]
    fn config_key_separates_every_axis() {
        let (w1, s1) = fixture(1, 7);
        let (w2, s2) = fixture(2, 8);
        let h = Heuristic::CriticalityAware;
        assert_eq!(config_key(&w1, &s1, h), config_key(&w1, &s1, h));
        let base = config_hash(&w1, &s1, h);
        assert_ne!(base, config_hash(&w2, &s1, h), "par must key");
        assert_ne!(base, config_hash(&w1, &s2, h), "seed must key");
        assert_ne!(
            base,
            config_hash(&w1, &s1, Heuristic::DomainUnaware),
            "heuristic must key"
        );
        let big = Arc::new(sparse::spmv(Scale::Bench, 1));
        assert_ne!(base, config_hash(&big, &s1, h), "scale must key");

        // Every remaining SystemConfig field changes the compile or the
        // runs of a cached artifact, so every one must key.
        let key = config_key(&w1, &s1, h);
        let must_key = |name: &str, mutate: fn(&mut SystemConfig)| {
            let mut sys = (*s1).clone();
            mutate(&mut sys);
            assert_ne!(key, config_key(&w1, &sys, h), "{name} must key");
        };
        must_key("mem.mem_words", |s| s.mem.mem_words *= 2);
        must_key("mem.cache_words", |s| s.mem.cache_words *= 2);
        must_key("mem.line_words", |s| s.mem.line_words *= 2);
        must_key("mem.ways", |s| s.mem.ways *= 2);
        must_key("mem.banks", |s| s.mem.banks *= 2);
        must_key("mem.hit_latency", |s| s.mem.hit_latency += 1);
        must_key("mem.miss_latency", |s| s.mem.miss_latency += 1);
        must_key("fifo_depth", |s| s.fifo_depth += 1);
        must_key("max_outstanding", |s| s.max_outstanding += 1);
        must_key("effort", |s| s.effort += 1);
        must_key("divider_override", |s| s.divider_override = None);
        must_key("stall_window", |s| s.stall_window += 1);
        must_key("avoid", |s| s.avoid.push(PeId(0)));
    }

    #[test]
    fn hit_miss_and_lru_eviction_accounting() {
        let cache = ArtifactCache::new(2);
        let (w, sys) = fixture(1, 1);
        let h = Heuristic::DomainUnaware;
        let k1 = config_hash(&w, &sys, h);

        let (a, cached) = cache.get_or_compile(k1, &w, &sys, h);
        assert!(a.is_ok() && !cached, "first lookup compiles");
        let (b, cached) = cache.get_or_compile(k1, &w, &sys, h);
        assert!(cached, "second lookup hits");
        assert!(
            Arc::ptr_eq(&a.unwrap(), &b.unwrap()),
            "hits share one artifact"
        );
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                compiles: 1,
                evictions: 0,
                entries: 1,
                fast_fails: 0,
                open_breakers: 0,
            }
        );

        // Two more distinct keys overflow cap 2; k1 (least recently
        // used after we touch k2) is evicted.
        let (w2, sys2) = fixture(1, 2);
        let k2 = config_hash(&w2, &sys2, h);
        let _ = cache.get_or_compile(k2, &w2, &sys2, h);
        let _ = cache.get_or_compile(k1, &w, &sys, h); // k1 now most recent
        let (w3, sys3) = fixture(1, 3);
        let k3 = config_hash(&w3, &sys3, h);
        let _ = cache.get_or_compile(k3, &w3, &sys3, h);
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        let (_, k1_cached) = cache.get_or_compile(k1, &w, &sys, h);
        assert!(k1_cached, "recently-used key survived eviction");
        let (_, k2_cached) = cache.get_or_compile(k2, &w2, &sys2, h);
        assert!(!k2_cached, "LRU key was the victim");
    }

    #[test]
    fn failed_compiles_are_not_cached() {
        let cache = ArtifactCache::new(4);
        let (w, _) = fixture(1, 1);
        let bad = zero_fifo();
        let h = Heuristic::DomainUnaware;
        let k = config_hash(&w, &bad, h);
        let (r, cached) = cache.get_or_compile(k, &w, &bad, h);
        assert!(r.is_err() && !cached);
        let (r, cached) = cache.get_or_compile(k, &w, &bad, h);
        assert!(r.is_err() && !cached, "failure was not pinned");
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.compiles, 0, "only successful PnR counts");
    }

    #[test]
    fn breaker_opens_after_repeated_failures_and_probes_half_open() {
        let cache = ArtifactCache::new(4);
        let (w, _) = fixture(1, 1);
        let bad = zero_fifo();
        let h = Heuristic::DomainUnaware;
        let k = config_hash(&w, &bad, h);

        // Below the threshold every lookup really compiles (and fails).
        for i in 0..BREAKER_THRESHOLD {
            let (r, _) = cache.get_or_compile(k, &w, &bad, h);
            assert!(
                !matches!(r, Err(PipelineError::FastFailed { .. })),
                "attempt {i} still compiles"
            );
        }
        assert_eq!(cache.stats().open_breakers, 1, "breaker open at threshold");

        // Open: lookups fast-fail with the typed error, zero PnR cost.
        let misses_before = cache.stats().misses;
        let (r, cached) = cache.get_or_compile(k, &w, &bad, h);
        assert!(!cached);
        match r {
            Err(PipelineError::FastFailed { failures, message }) => {
                assert_eq!(failures, BREAKER_THRESHOLD);
                assert!(!message.is_empty(), "carries the last compile error");
            }
            other => panic!("expected FastFailed, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!(stats.fast_fails, 1);
        assert_eq!(stats.misses, misses_before, "no compile was attempted");

        // After BREAKER_PROBE_EVERY refusals one probe compile runs
        // (still failing here, so the breaker stays open).
        for _ in 1..BREAKER_PROBE_EVERY {
            let (r, _) = cache.get_or_compile(k, &w, &bad, h);
            assert!(matches!(r, Err(PipelineError::FastFailed { .. })));
        }
        let (probe, _) = cache.get_or_compile(k, &w, &bad, h);
        assert!(
            !matches!(probe, Err(PipelineError::FastFailed { .. })),
            "probe slot reaches the real compile"
        );
        assert_eq!(cache.stats().open_breakers, 1, "failed probe re-opens");

        // A success on a *different* key is unaffected, and success
        // closes that key's breaker state entirely.
        let (w2, good) = fixture(1, 2);
        let k2 = config_hash(&w2, &good, h);
        let (r, _) = cache.get_or_compile(k2, &w2, &good, h);
        assert!(r.is_ok(), "healthy keys bypass the breaker");
        assert_eq!(cache.stats().open_breakers, 1, "only the bad key is open");
    }

    #[test]
    fn concurrent_identical_requests_compile_once() {
        let cache = Arc::new(ArtifactCache::new(4));
        let (w, sys) = fixture(1, 5);
        let h = Heuristic::CriticalityAware;
        let k = config_hash(&w, &sys, h);
        std::thread::scope(|sc| {
            for _ in 0..8 {
                let (cache, w, sys) = (Arc::clone(&cache), Arc::clone(&w), Arc::clone(&sys));
                sc.spawn(move || {
                    let (r, _) = cache.get_or_compile(k, &w, &sys, h);
                    assert!(r.is_ok());
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.compiles, 1, "burst single-flighted into one PnR");
        assert_eq!(stats.hits + stats.misses, 8);
        assert_eq!(stats.entries, 1);
    }
}
