//! `serve_warm` and `serve_cold`: open-loop `/simulate` traffic against
//! an in-process `nupea-serve` with default options.
//!
//! - `serve_warm` sends every kernel under NUPEA and UPEA2 with one PnR
//!   seed, so after set-up every request hits the artifact cache and the
//!   front-end layers (parse, build, hash, batching, serialize) dominate.
//! - `serve_cold` gives every request a fresh PnR seed, so every lookup
//!   misses and a compile dominates each request.
//!
//! The traced run replays the same request stream on the same schedule
//! in-process through the public layer calls, once with spans and once
//! without, to split each request into its layers.

use crate::layers::{ns_to, percentile_or_zero, print_self_times, Layers};
use crate::loadgen::{open_loop, Shot};
use crate::report::{metric, Metric, Outcome};
use crate::spans::{durations, Recorder};
use crate::{alloc, build_kernels, kernels, median_of_setups, probe, stats, Ctx, THREADS};
use nupea::experiments::geomean;
use nupea::jsonl;
use nupea::runner::{parallel_map, records_to_json, run_compiled, RunRecord};
use nupea::{ArtifactCache, Heuristic, RetryPolicy, Scale};
use nupea_pnr::Timing;
use nupea_rng::Xoshiro256;
use nupea_serve::api::{ConfigRequest, Priority};
use nupea_serve::batch::Batcher;
use nupea_serve::client;
use nupea_serve::http::Response;
use nupea_serve::{ServeOptions, Server};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every request hits the artifact cache.
    Warm,
    /// Every request misses it.
    Cold,
}

/// The memory models requests ask for.
const MODELS: [&str; 2] = ["nupea", "upea2"];

/// The request stream: set-up requests, then the measured schedule.
struct Plan {
    rate: f64,
    /// Sent one at a time during set-up.
    warmup: Vec<String>,
    /// The measured window's request bodies, in due order.
    schedule: Vec<String>,
}

fn body(kernel: &str, model: &str, seed: u64) -> String {
    format!("{{\"workload\":\"{kernel}\",\"model\":\"{model}\",\"seed\":{seed}}}")
}

/// Back-to-back shuffled passes over `items`, as many as `rate` per
/// second fills in `seconds` (at least one), so every item is sent
/// equally often.
fn passes<T: Clone>(items: &[T], rate: f64, seconds: f64, rng: &mut Xoshiro256) -> Vec<T> {
    let count = ((rate * seconds / items.len() as f64).round() as usize).max(1);
    let mut out = Vec::with_capacity(count * items.len());
    for _ in 0..count {
        let mut pass = items.to_vec();
        rng.shuffle(&mut pass);
        out.extend(pass);
    }
    out
}

fn plan(ctx: &Ctx, kind: Kind) -> Plan {
    let names: Vec<&str> = kernels().iter().map(|s| s.name).collect();
    let pairs: Vec<(&str, &str)> = names
        .iter()
        .flat_map(|&k| MODELS.iter().map(move |&m| (k, m)))
        .collect();
    let mut rng = Xoshiro256::seed_from_u64(ctx.derive("order", 0));
    match kind {
        Kind::Warm => {
            let rate = 100.0;
            let seed = ctx.derive("pnr", 0);
            let configs: Vec<String> = pairs.iter().map(|&(k, m)| body(k, m, seed)).collect();
            Plan {
                rate,
                schedule: passes(&configs, rate, ctx.seconds, &mut rng),
                warmup: configs,
            }
        }
        Kind::Cold => {
            let rate = 20.0;
            let warmup = names
                .iter()
                .enumerate()
                .map(|(i, k)| body(k, MODELS[0], ctx.derive("warmup", i as u64)))
                .collect();
            let schedule = passes(&pairs, rate, ctx.seconds, &mut rng)
                .into_iter()
                .enumerate()
                .map(|(i, (k, m))| body(k, m, ctx.derive("cold", i as u64)))
                .collect();
            Plan {
                rate,
                warmup,
                schedule,
            }
        }
    }
}

/// What the in-process pipeline answers for `body` through `cache`,
/// exactly as the server and the `nupea_batch` CLI compute it.
fn reference(body: &str, cache: &ArtifactCache) -> Result<RunRecord, String> {
    let cfg = ConfigRequest::parse(body)?;
    let (workload, sys) = cfg.build()?;
    let hash = nupea::config_hash(&workload, &sys, cfg.heuristic);
    let (compiled, cached) = cache.get_or_compile(hash, &workload, &sys, cfg.heuristic);
    let compiled = compiled.map_err(|e| format!("{body}: {e}"))?;
    let (mut record, _) = run_compiled(
        &compiled,
        cfg.model,
        cfg.cycle_budget,
        RetryPolicy::None,
        false,
    );
    record.compile_cached = cached;
    Ok(record)
}

fn json_of(mut record: RunRecord, cached: bool) -> String {
    record.compile_cached = cached;
    records_to_json(&[record], false)
}

/// A `/stats` counter: `key` inside the object that follows `section`.
fn stat(stats: &str, section: &str, key: &str) -> u64 {
    stats
        .find(&format!("\"{section}\":"))
        .and_then(|i| jsonl::u64_field(&stats[i..], key))
        .unwrap_or(0)
}

fn get_stats(addr: SocketAddr) -> Result<String, String> {
    let resp =
        client::request(addr, "GET", "/stats", "").map_err(|e| format!("GET /stats: {e}"))?;
    Ok(resp.body_str())
}

fn stop(server: Server) {
    server.shutdown();
    server.wait();
}

/// Compiles a traced replay performed: the request body, the heuristic
/// and the artifact's timing, for the PnR split afterwards (keeping the
/// artifacts themselves would hold every input image in memory).
type CompileLog = Arc<Mutex<Vec<(String, Heuristic, Timing)>>>;

/// How one response counts.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Answer {
    /// 200 with a record whose bytes are to be checked.
    Ok(Vec<u8>),
    /// A typed compile failure, or a refused or dropped request.
    Failed,
    /// Anything else: a correctness violation.
    Wrong(String),
}

fn classify(resp: std::io::Result<client::ClientResponse>) -> Answer {
    match resp {
        Ok(r) if r.status == 200 => Answer::Ok(r.body),
        Ok(r) if r.status == 500 && r.body_str().contains("pnr: ") => Answer::Failed,
        Ok(r) if matches!(r.status, 429 | 503 | 504) => Answer::Failed,
        Ok(r) => Answer::Wrong(format!("status {}: {}", r.status, r.body_str())),
        Err(_) => Answer::Failed,
    }
}

/// Run one serve workload.
///
/// # Errors
///
/// Set-up failures: the server does not start or a set-up request fails.
pub fn run(ctx: &Ctx, kind: Kind) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let plan = plan(ctx, kind);
    let opts = ServeOptions::default();
    // Set-up starts a server and sends each set-up request once: on
    // serve_warm that compiles every artifact and builds its input image,
    // on serve_cold it warms the process but not the measured configs.
    let mut build_s = Vec::new();
    let (setup_s, (server, firsts)) = median_of_setups(
        || {
            build_s.push(build_kernels(Scale::Test).1);
            let server = Server::start(&opts).map_err(|e| format!("start server: {e}"))?;
            let mut firsts = Vec::new();
            for b in &plan.warmup {
                match classify(client::post(server.addr(), "/simulate", b)) {
                    Answer::Ok(bytes) => firsts.push(bytes),
                    other => {
                        stop(server);
                        return Err(format!("set-up request {b}: {other:?}"));
                    }
                }
            }
            Ok((server, firsts))
        },
        |(server, _)| stop(server),
    )?;
    let addr = server.addr();

    let before = get_stats(addr)?;
    let (cpu0, allocs0, faults0, t0) = (
        alloc::cpu_seconds(),
        alloc::allocs(),
        alloc::minor_faults(),
        std::time::Instant::now(),
    );
    let answers: Vec<Mutex<Option<Answer>>> =
        plan.schedule.iter().map(|_| Mutex::new(None)).collect();
    let shots = open_loop(plan.schedule.len(), plan.rate, THREADS, |i| {
        let answer = classify(client::post(addr, "/simulate", &plan.schedule[i]));
        let ok = matches!(answer, Answer::Ok(_));
        *answers[i].lock().expect("answer slot poisoned") = Some(answer);
        ok
    });
    let window_s = t0.elapsed().as_secs_f64();
    let peak_mb = alloc::peak_mb();
    let cpu = alloc::cpu_seconds() - cpu0;
    let allocs = alloc::allocs() - allocs0;
    let minor_faults = alloc::minor_faults() - faults0;
    let after = get_stats(addr)?;
    stop(server);

    // Check every answer against the in-process pipeline.
    let mut expected: HashMap<&str, (RunRecord, String)> = HashMap::new();
    let setup_cache = ArtifactCache::new(opts.cache_cap);
    for (b, got) in plan.warmup.iter().zip(&firsts) {
        let record = reference(b, &setup_cache)?;
        let first = records_to_json(std::slice::from_ref(&record), false);
        if got.as_slice() != first.as_bytes() {
            out.error(format!(
                "first response for {b} differs from the in-process record"
            ));
        }
        expected.insert(b.as_str(), (record.clone(), json_of(record, true)));
    }
    drop(setup_cache);
    if kind == Kind::Cold {
        let records = parallel_map(THREADS, plan.schedule.len(), |i| {
            reference(&plan.schedule[i], &ArtifactCache::new(1))
        });
        for (b, record) in plan.schedule.iter().zip(records) {
            let record = record?;
            let json = json_of(record.clone(), false);
            expected.insert(b.as_str(), (record, json));
        }
    }
    for (i, b) in plan.schedule.iter().enumerate() {
        out.attempted += 1;
        let answer = answers[i].lock().expect("answer slot poisoned").take();
        match answer {
            Some(Answer::Ok(bytes)) => {
                if jsonl::field(&String::from_utf8_lossy(&bytes), "error")
                    .is_none_or(|e| e != "null")
                {
                    out.error(format!("request {i} ({b}): 200 without \"error\":null"));
                } else if expected
                    .get(b.as_str())
                    .is_none_or(|e| e.1.as_bytes() != bytes.as_slice())
                {
                    out.error(format!(
                        "request {i} ({b}): response differs from the in-process record"
                    ));
                }
            }
            Some(Answer::Failed) => out.failed += 1,
            Some(Answer::Wrong(why)) => out.error(format!("request {i} ({b}): {why}")),
            None => out.error(format!("request {i} was never answered")),
        }
    }

    let latency: Vec<f64> = shots.iter().map(Shot::latency_ms).collect();
    let service: Vec<f64> = shots.iter().map(Shot::service_ms).collect();
    let late: Vec<f64> = shots.iter().map(Shot::late_ms).collect();
    let tail = stats::tail_percentile(shots.len());
    let late_p99 = stats::percentile(&late, 99.0);
    // Due-time latency already charges lateness to the system; a
    // generator late by more than a whole service-time tail was not
    // offering the scheduled load, so the run says nothing about it.
    let service_tail = stats::percentile(&service, tail);
    if late_p99 > service_tail {
        out.error(format!(
            "load generator fell behind: p99 lateness {late_p99:.2} ms exceeds the p{tail} service time {service_tail:.2} ms"
        ));
    }
    let window_records: Vec<&RunRecord> = plan
        .schedule
        .iter()
        .filter_map(|b| expected.get(b.as_str()).map(|e| &e.0))
        .collect();
    let cycles: Vec<f64> = window_records.iter().map(|r| r.cycles as f64).collect();
    out.end_to_end = vec![
        metric("setup_s", setup_s, "s"),
        metric("op_p50_ms", stats::median(&latency), "ms"),
        metric("op_tail_ms", stats::percentile(&latency, tail), "ms"),
        metric("peak_mem_mb", peak_mb, "MB"),
        metric("sim_cycles_geomean", geomean(&cycles), "cycles"),
    ];
    if !ctx.trace {
        return Ok(out);
    }

    let delta = |key: &str| stat(&after, "cache", key).saturating_sub(stat(&before, "cache", key));
    let (hits, misses) = (delta("hits"), delta("misses"));
    let mut layers = Layers {
        kernels_build_s: stats::median(&build_s),
        parallel_util: cpu / (THREADS as f64 * window_s),
        allocs,
        minor_faults,
        loadgen_sent: shots.len() as u64,
        cache_hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
        cache_compiles: delta("compiles"),
        cache_evictions: delta("evictions"),
        ..Layers::default()
    };
    for r in &window_records {
        layers.count_run(r);
    }
    let model_geomean = |label: &str| {
        geomean(
            &window_records
                .iter()
                .filter(|r| r.model.label().eq_ignore_ascii_case(label))
                .map(|r| r.cycles as f64)
                .collect::<Vec<_>>(),
        )
    };
    layers.speedup_upea2_geomean = model_geomean("upea2") / model_geomean("nupea");
    out.extra
        .push(metric("loadgen.late_ms_p99", late_p99, "ms"));
    out.extra.push(metric(
        "http.server_ms_p50",
        stat(&after, "simulate", "p50_us") as f64 / 1e3,
        "ms",
    ));

    // The replays: with spans, then without, on a fresh copy of the
    // set-up state each.
    let rec = Arc::new(Recorder::new(true));
    let log = CompileLog::default();
    let traced = replay(&plan, &opts, &rec, &log, &expected, &mut out)?;
    let untraced = replay(
        &plan,
        &opts,
        &Arc::new(Recorder::new(false)),
        &CompileLog::default(),
        &expected,
        &mut out,
    )?;
    let p50 =
        |shots: &[Shot]| stats::median(&shots.iter().map(Shot::service_ms).collect::<Vec<_>>());
    layers.trace_overhead_pct = (p50(&traced) - p50(&untraced)) / p50(&untraced) * 100.0;
    out.extra.push(metric(
        "http.overhead_ms_p50",
        stats::median(&service) - p50(&untraced),
        "ms",
    ));

    let compiles = std::mem::take(&mut *log.lock().expect("compile log poisoned"));
    rec.span("probe", 0, 0, |id| {
        compiles
            .iter()
            .enumerate()
            .try_for_each(|(i, (b, heuristic, timing))| {
                let (workload, sys) = ConfigRequest::parse(b)?.build()?;
                probe::pnr_split(&workload, &sys, *heuristic, *timing, &rec, id, i as u64)
            })
    })?;
    let spans = rec.spans();
    let ms = |name| ns_to(durations(&spans, name), 1e6);
    let us = |name| ns_to(durations(&spans, name), 1e3);
    layers.add_pnr_split(&spans);
    layers.compile_ms = ms("cache.compile");
    layers.compile_failed = traced.iter().filter(|s| !s.ok).count() as u64;
    layers.first_run_ms = ms("engine.first_run");
    layers.sim_ms = ms("engine.run");
    layers.serialize_us = us("runner.serialize");
    layers.ns_per_firing =
        layers.sim_ms.iter().sum::<f64>() * 1e6 / layers.engine_counts[0].max(1) as f64;
    let p = percentile_or_zero;
    let (parse, build, hash, hit, wait) = (
        us("api.parse"),
        ms("api.build"),
        us("cache.hash"),
        us("cache.hit"),
        ms("batch.queue_wait"),
    );
    let extra: [Metric; 7] = [
        metric("api.parse_us_p50", p(&parse, 50.0), "us"),
        metric("api.build_ms_p50", p(&build, 50.0), "ms"),
        metric("api.build_ms_p99", p(&build, 99.0), "ms"),
        metric("cache.hash_us_p50", p(&hash, 50.0), "us"),
        metric("cache.hit_us_p50", p(&hit, 50.0), "us"),
        metric("batch.queue_wait_ms_p50", p(&wait, 50.0), "ms"),
        metric("batch.queue_wait_ms_p99", p(&wait, 99.0), "ms"),
    ];
    out.extra.extend(extra);
    print_self_times(&spans);
    crate::write_trace(
        if kind == Kind::Warm {
            "serve_warm"
        } else {
            "serve_cold"
        },
        &spans,
    )?;
    out.layers = layers.metrics();
    Ok(out)
}

/// Replay the set-up requests, then the schedule, in-process: parse,
/// build and hash on the sender thread, then `Batcher::submit` of a job
/// that looks the artifact up, simulates and serializes. Responses are
/// checked against `expected`.
fn replay(
    plan: &Plan,
    opts: &ServeOptions,
    rec: &Arc<Recorder>,
    log: &CompileLog,
    expected: &HashMap<&str, (RunRecord, String)>,
    out: &mut Outcome,
) -> Result<Vec<Shot>, String> {
    let cache = Arc::new(ArtifactCache::new(opts.cache_cap));
    rec.span("replay.setup", 0, 0, |root| -> Result<(), String> {
        for (i, b) in plan.warmup.iter().enumerate() {
            let i = i as u64;
            let cfg = ConfigRequest::parse(b)?;
            let (workload, sys) = cfg.build()?;
            let hash = nupea::config_hash(&workload, &sys, cfg.heuristic);
            let t = rec.now();
            let (c, cached) = cache.get_or_compile(hash, &workload, &sys, cfg.heuristic);
            let c = c.map_err(|e| format!("{b}: {e}"))?;
            if !cached {
                rec.record("cache.compile", root, i, t, rec.now());
                log.lock().expect("compile log poisoned").push((
                    b.clone(),
                    c.heuristic,
                    c.placed.timing,
                ));
            }
            let name = if cached {
                "engine.setup_run"
            } else {
                "engine.first_run"
            };
            let (record, _) = rec.span(name, root, i, |_| {
                run_compiled(&c, cfg.model, None, RetryPolicy::None, false)
            });
            if let Some(e) = record.error {
                return Err(format!("replay set-up {b}: {e}"));
            }
        }
        Ok(())
    })?;
    let batcher = Batcher::new(
        opts.queue_cap,
        opts.batch_max,
        opts.batch_wait_ms,
        opts.sim_threads,
    );
    let mismatches = Mutex::new(Vec::new());
    let shots = std::thread::scope(|scope| {
        scope.spawn(|| batcher.run_executor());
        let shots = open_loop(plan.schedule.len(), plan.rate, THREADS, |i| {
            let b = plan.schedule[i].as_str();
            let req = i as u64;
            let resp = rec.span("serve.request", 0, req, |root| -> Option<Response> {
                let cfg = rec
                    .span("api.parse", root, req, |_| ConfigRequest::parse(b))
                    .ok()?;
                let (workload, sys) = rec.span("api.build", root, req, |_| cfg.build()).ok()?;
                let hash = rec.span("cache.hash", root, req, |_| {
                    nupea::config_hash(&workload, &sys, cfg.heuristic)
                });
                rec.span("batch.submit", root, req, |submit| {
                    let submitted = rec.now();
                    let (rec, cache, log, body) = (
                        Arc::clone(rec),
                        Arc::clone(&cache),
                        Arc::clone(log),
                        b.to_string(),
                    );
                    let (heuristic, model) = (cfg.heuristic, cfg.model);
                    let job = Box::new(move || {
                        rec.record("batch.queue_wait", submit, req, submitted, rec.now());
                        rec.span("batch.job", submit, req, |job| {
                            let t = rec.now();
                            let (c, cached) =
                                cache.get_or_compile(hash, &workload, &sys, heuristic);
                            let name = if cached { "cache.hit" } else { "cache.compile" };
                            rec.record(name, job, req, t, rec.now());
                            let c = match c {
                                Ok(c) => c,
                                Err(e) => return Response::error(500, &e.to_string()),
                            };
                            if !cached && rec.is_on() {
                                log.lock().expect("compile log poisoned").push((
                                    body,
                                    c.heuristic,
                                    c.placed.timing,
                                ));
                            }
                            let (mut record, _) = rec.span("engine.run", job, req, |_| {
                                run_compiled(&c, model, None, RetryPolicy::None, false)
                            });
                            record.compile_cached = cached;
                            Response::json(rec.span("runner.serialize", job, req, |_| {
                                records_to_json(&[record], false)
                            }))
                        })
                    });
                    batcher.submit(job, Priority::Normal, None).ok()
                })
            });
            let ok = resp.as_ref().is_some_and(|r| r.status == 200);
            if ok
                && resp.as_ref().map(|r| r.body.as_slice())
                    != expected.get(b).map(|e| e.1.as_bytes())
            {
                mismatches.lock().expect("mismatch log poisoned").push(i);
            }
            ok
        });
        batcher.stop(Duration::ZERO);
        shots
    });
    for i in mismatches.into_inner().expect("mismatch log poisoned") {
        out.error(format!(
            "replayed request {i} differs from the in-process record"
        ));
    }
    Ok(shots)
}
