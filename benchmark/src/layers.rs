//! The per-layer metrics every workload reports from its traced run,
//! gathered as samples and reduced to the names `BENCHMARK.json` lists.
//! Counters of layers a workload does not use stay 0.

use crate::report::{metric, Metric};
use crate::spans::{self, Span};
use crate::stats::percentile;

/// Samples and counts behind the per-layer metrics.
#[derive(Debug, Default)]
pub struct Layers {
    /// Median time to build the workload's kernels and inputs.
    pub kernels_build_s: f64,
    /// Compile (multi-seed place and route) times, ms.
    pub compile_ms: Vec<f64>,
    /// Compiles that failed with a typed PnR error.
    pub compile_failed: u64,
    /// Placement times from the PnR split, ms.
    pub place_ms: Vec<f64>,
    /// Routing times from the PnR split, ms.
    pub route_ms: Vec<f64>,
    /// Timing-analysis times from the PnR split, µs.
    pub timing_us: Vec<f64>,
    /// Steady-state simulation times, ms.
    pub sim_ms: Vec<f64>,
    /// First simulations of an artifact (which build its input image), ms.
    pub first_run_ms: Vec<f64>,
    /// Host ns per instruction firing over the simulations in `sim_ms`.
    pub ns_per_firing: f64,
    /// Deterministic engine counters: firings, simulated cycles, memory
    /// requests, bank-wait cycles.
    pub engine_counts: [u64; 4],
    /// Result serialization times, µs.
    pub serialize_us: Vec<f64>,
    /// Process CPU time over the window per core-second available.
    pub parallel_util: f64,
    /// Allocations in the window.
    pub allocs: u64,
    /// Minor page faults in the window.
    pub minor_faults: u64,
    /// Traced minus untraced op time, as a percentage of untraced.
    pub trace_overhead_pct: f64,
    /// Requests the load generator sent.
    pub loadgen_sent: u64,
    /// Artifact-cache hits over lookups in the window.
    pub cache_hit_ratio: f64,
    /// Artifact-cache compiles in the window.
    pub cache_compiles: u64,
    /// Artifact-cache evictions in the window.
    pub cache_evictions: u64,
    /// Fault-campaign outcome counts (masked, recovered, hang, sdc) and
    /// the injected runs' summed cycles.
    pub campaign: [u64; 5],
    /// Geomean of UPEA2 cycles over NUPEA cycles (0 without UPEA2 runs).
    pub speedup_upea2_geomean: f64,
}

impl Layers {
    /// Add one run's engine counters to the deterministic counts.
    pub fn count_run(&mut self, r: &nupea::RunRecord) {
        for (sum, v) in self.engine_counts.iter_mut().zip([
            r.firings,
            r.cycles,
            r.mem_requests,
            r.bank_wait_cycles,
        ]) {
            *sum += v;
        }
    }

    /// Take the PnR split's samples from `spans`.
    pub fn add_pnr_split(&mut self, spans: &[Span]) {
        self.place_ms = ns_to(spans::durations(spans, "pnr.place"), 1e6);
        self.route_ms = ns_to(spans::durations(spans, "pnr.route"), 1e6);
        self.timing_us = ns_to(spans::durations(spans, "pnr.timing"), 1e3);
    }

    /// The metrics, in `BENCHMARK.json` order.
    #[must_use]
    pub fn metrics(&self) -> Vec<Metric> {
        let p = percentile_or_zero;
        let compiles = self.compile_ms.len() as u64 + self.compile_failed;
        let [firings, cycles, requests, bank_wait] = self.engine_counts;
        let [masked, recovered, hang, sdc, injected_cycles] = self.campaign;
        vec![
            metric("kernels.build_s", self.kernels_build_s, "s"),
            metric("pnr.compile_ms_p50", p(&self.compile_ms, 50.0), "ms"),
            metric("pnr.compile_ms_p95", p(&self.compile_ms, 95.0), "ms"),
            metric("pnr.place_ms_p50", p(&self.place_ms, 50.0), "ms"),
            metric("pnr.route_ms_p50", p(&self.route_ms, 50.0), "ms"),
            metric("pnr.route_ms_p95", p(&self.route_ms, 95.0), "ms"),
            metric("pnr.timing_us_p50", p(&self.timing_us, 50.0), "us"),
            metric("pnr.busy_s", self.compile_ms.iter().sum::<f64>() / 1e3, "s"),
            metric(
                "pnr.failed_ratio",
                self.compile_failed as f64 / compiles.max(1) as f64,
                "ratio",
            ),
            metric("engine.sim_ms_p50", p(&self.sim_ms, 50.0), "ms"),
            metric("engine.sim_ms_p99", p(&self.sim_ms, 99.0), "ms"),
            metric("engine.first_run_ms_p50", p(&self.first_run_ms, 50.0), "ms"),
            metric("engine.busy_s", self.sim_ms.iter().sum::<f64>() / 1e3, "s"),
            metric("engine.ns_per_firing", self.ns_per_firing, "ns"),
            metric("engine.firings", firings as f64, "count"),
            metric("engine.cycles", cycles as f64, "cycles"),
            metric("engine.mem_requests", requests as f64, "count"),
            metric("engine.bank_wait_cycles", bank_wait as f64, "cycles"),
            metric("runner.serialize_us_p50", p(&self.serialize_us, 50.0), "us"),
            metric("runner.parallel_util", self.parallel_util, "ratio"),
            metric("alloc.allocs", self.allocs as f64, "count"),
            metric("alloc.minor_faults", self.minor_faults as f64, "count"),
            metric("alloc.rss_peak_mb", crate::alloc::rss_peak_mb(), "MB"),
            metric("trace.overhead_pct", self.trace_overhead_pct, "%"),
            metric("loadgen.sent", self.loadgen_sent as f64, "count"),
            metric("cache.hit_ratio", self.cache_hit_ratio, "ratio"),
            metric("cache.compiles", self.cache_compiles as f64, "count"),
            metric("cache.evictions", self.cache_evictions as f64, "count"),
            metric("campaign.masked", masked as f64, "count"),
            metric("campaign.recovered", recovered as f64, "count"),
            metric("campaign.hang", hang as f64, "count"),
            metric("campaign.sdc", sdc as f64, "count"),
            metric("campaign.injected_cycles", injected_cycles as f64, "cycles"),
            metric(
                "model.speedup_upea2_geomean",
                self.speedup_upea2_geomean,
                "x",
            ),
        ]
    }
}

/// Percentile `q` of `xs`, or 0 for a layer that took no samples.
#[must_use]
pub fn percentile_or_zero(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        percentile(xs, q)
    }
}

/// Nanosecond durations divided by `per` (1e3 for µs, 1e6 for ms).
#[must_use]
pub fn ns_to(ns: Vec<u64>, per: f64) -> Vec<f64> {
    ns.into_iter().map(|v| v as f64 / per).collect()
}

/// Print each span name's self time: count, p50 and p99 in µs, and the
/// total in ms.
pub fn print_self_times(spans: &[Span]) {
    println!("self-time by span (count, p50 us, p99 us, total ms):");
    for (name, own) in spans::self_times(spans) {
        let us = ns_to(own, 1e3);
        println!(
            "  {name:<20} {:>7} {:>12.1} {:>12.1} {:>12.1}",
            us.len(),
            percentile(&us, 50.0),
            percentile(&us, 99.0),
            us.iter().sum::<f64>() / 1e3
        );
    }
}
