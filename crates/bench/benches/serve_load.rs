//! Open-loop load test for `nupea-serve`: boots an in-process server,
//! fires `/simulate` requests on a fixed schedule (open loop — arrival
//! times never wait for responses, so queueing delay is measured, not
//! hidden), and reports the latency distribution and throughput, per
//! criticality tier.
//!
//! ```text
//! cargo bench -p nupea-bench --bench serve_load -- \
//!     [--rate 100] [--duration-secs 2] [--clients 4] \
//!     [--workloads spmv,spmspv] [--queue-cap 64] [--tier-mix 1,2,1] \
//!     [--chaos-seed 7] [--slow-loris N] [--panics N] \
//!     [--deadline-storm N] [--disconnects N] [--json PATH]
//! ```
//!
//! Latencies are aggregated in the same hdrhist-style log-bucketed
//! histogram the server itself reports at `/stats`, so client-observed
//! and server-observed percentiles are directly comparable. Requests
//! carry a `priority` tier in a `--tier-mix` weighted round-robin;
//! `429` responses are split into *shed* (evicted by a higher tier) and
//! *refused* (full queue, nothing lower to shed) — under deliberate
//! overload a healthy run sheds batch-tier load first while critical
//! goodput holds.
//!
//! With any chaos flag set, a seeded [`nupea_serve::chaos`] storm
//! (slow-loris, disconnects, injected panics, deadline storms) runs
//! concurrently with the measured window; the run fails if the server
//! does not contain it.

use nupea_bench::{flag_value, parse_flag};
use nupea_serve::chaos::{self, ChaosConfig};
use nupea_serve::hist::Hist;
use nupea_serve::{client, ServeOptions, Server};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const TIERS: [&str; 3] = ["critical", "normal", "batch"];

struct Shot {
    latency_us: u64,
    status: u16,
    tier: usize,
    shed: bool,
}

struct Opts {
    rate: f64,
    duration_s: f64,
    clients: usize,
    workloads: String,
    queue_cap: usize,
    tier_mix: String,
    json_path: Option<String>,
    chaos: ChaosConfig,
}

fn parse_opts() -> Result<Opts, String> {
    // Chaos knobs: any non-zero count arms the concurrent storm.
    let mut chaos = ChaosConfig::default();
    chaos.slow_loris = 0;
    chaos.panics = 0;
    chaos.deadline_storm = 0;
    chaos.disconnects = 0;
    let mut opts = Opts {
        rate: 100.0,
        duration_s: 2.0,
        clients: 4,
        workloads: "spmv".to_string(),
        queue_cap: 64,
        tier_mix: "1,2,1".to_string(),
        json_path: None,
        chaos,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--rate" => opts.rate = parse_flag(&mut args, &a)?,
            "--duration-secs" => opts.duration_s = parse_flag(&mut args, &a)?,
            "--clients" => opts.clients = parse_flag(&mut args, &a)?,
            "--workloads" => opts.workloads = flag_value(&mut args, &a)?,
            "--queue-cap" => opts.queue_cap = parse_flag(&mut args, &a)?,
            "--tier-mix" => opts.tier_mix = flag_value(&mut args, &a)?,
            "--json" => opts.json_path = Some(flag_value(&mut args, &a)?),
            "--chaos-seed" => opts.chaos.seed = parse_flag(&mut args, &a)?,
            "--slow-loris" => opts.chaos.slow_loris = parse_flag(&mut args, &a)?,
            "--panics" => opts.chaos.panics = parse_flag(&mut args, &a)?,
            "--deadline-storm" => opts.chaos.deadline_storm = parse_flag(&mut args, &a)?,
            "--disconnects" => opts.chaos.disconnects = parse_flag(&mut args, &a)?,
            // Ignore flags cargo's bench harness forwards (e.g. --bench).
            _ => {}
        }
    }
    Ok(opts)
}

fn main() {
    let Opts {
        rate,
        duration_s,
        clients,
        workloads,
        queue_cap,
        tier_mix,
        json_path,
        chaos: chaos_cfg,
    } = parse_opts().unwrap_or_else(|e| {
        eprintln!("serve_load: {e}");
        std::process::exit(2)
    });
    let chaos_on =
        chaos_cfg.slow_loris + chaos_cfg.panics + chaos_cfg.deadline_storm + chaos_cfg.disconnects
            > 0;

    // Weighted round-robin tier pattern, e.g. "1,2,1" => C N N B.
    let weights: Vec<usize> = tier_mix
        .split(',')
        .map(|w| w.parse().expect("--tier-mix takes WC,WN,WB"))
        .collect();
    assert_eq!(weights.len(), 3, "--tier-mix takes three weights");
    let pattern: Vec<usize> = (0..3)
        .flat_map(|t| std::iter::repeat_n(t, weights[t]))
        .collect();
    assert!(!pattern.is_empty(), "--tier-mix must admit something");

    let mut opts = ServeOptions::default();
    opts.queue_cap = queue_cap;
    if chaos_on {
        // Cut slow-loris connections quickly so the storm resolves
        // within the measured window (1s is still generous on loopback).
        opts.read_timeout_ms = 1_000;
        // The storm's injected panics ride the x_chaos hook, which the
        // server refuses (403) unless explicitly opted in.
        opts.chaos_hooks = true;
    }
    let server = Server::start(&opts).expect("bind load-test server");
    let addr = server.addr();

    // Pre-compile every workload so the measured window exercises the
    // steady state (cache hits + simulation), not one-off PnR.
    let names: Vec<&str> = workloads.split(',').filter(|w| !w.is_empty()).collect();
    assert!(!names.is_empty(), "--workloads must name at least one");
    for name in &names {
        let body = format!("{{\"workload\":\"{name}\",\"effort\":0}}");
        let resp = client::post(addr, "/compile", &body).expect("warmup compile");
        assert_eq!(resp.status, 200, "warmup: {}", resp.body_str());
    }
    // One body per workload × tier.
    let bodies: Vec<Vec<String>> = names
        .iter()
        .map(|name| {
            TIERS
                .iter()
                .map(|tier| {
                    format!("{{\"workload\":\"{name}\",\"effort\":0,\"priority\":\"{tier}\"}}")
                })
                .collect()
        })
        .collect();

    let chaos_thread = chaos_on.then(|| {
        let cfg = chaos_cfg.clone();
        std::thread::spawn(move || chaos::run(addr, &cfg))
    });

    // Open-loop schedule: request i is due at t0 + i/rate, interleaved
    // across client threads; a slow response delays only its own
    // client's next shot, and the deficit shows up as queueing latency.
    let total = (rate * duration_s).ceil().max(1.0) as usize;
    let t0 = Instant::now();
    let shots: Vec<Shot> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|c| {
                let bodies = &bodies;
                let pattern = &pattern;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for i in (c..total).step_by(clients.max(1)) {
                        let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let tier = pattern[i % pattern.len()];
                        let body = &bodies[i % bodies.len()][tier];
                        let sent = Instant::now();
                        let (status, shed) = client::post(addr, "/simulate", body)
                            .map_or((0, false), |r| {
                                (r.status, r.body_str().contains("\"shed\":true"))
                            });
                        out.push(Shot {
                            latency_us: u64::try_from(sent.elapsed().as_micros())
                                .unwrap_or(u64::MAX),
                            status,
                            tier,
                            shed,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed_s = t0.elapsed().as_secs_f64();
    let chaos_report = chaos_thread.map(|t| t.join().expect("chaos thread"));

    let mut hist = Hist::new();
    let mut tier_hists = [Hist::new(), Hist::new(), Hist::new()];
    let (mut ok, mut errors) = (0u64, 0u64);
    let mut tier_ok = [0u64; 3];
    let mut tier_shed = [0u64; 3];
    let mut tier_refused = [0u64; 3];
    for shot in &shots {
        match shot.status {
            200 => {
                ok += 1;
                tier_ok[shot.tier] += 1;
                hist.record(shot.latency_us);
                tier_hists[shot.tier].record(shot.latency_us);
            }
            429 if shot.shed => tier_shed[shot.tier] += 1,
            429 => tier_refused[shot.tier] += 1,
            _ => errors += 1,
        }
    }
    let throttled: u64 = tier_shed.iter().chain(tier_refused.iter()).sum();
    let throughput = ok as f64 / elapsed_s;

    println!(
        "serve-load: {} requests over {elapsed_s:.2}s ({rate:.0} rps offered, {clients} clients, mix {tier_mix})",
        shots.len()
    );
    println!("  ok {ok}  throttled(429) {throttled}  errors {errors}  goodput {throughput:.1} rps");
    println!(
        "  latency p50 {} us  p90 {} us  p99 {} us  max {} us",
        hist.percentile(50.0),
        hist.percentile(90.0),
        hist.percentile(99.0),
        hist.max()
    );
    for (t, name) in TIERS.iter().enumerate() {
        println!(
            "  tier {name}: ok {} shed {} refused {} goodput {:.1} rps  p99 {} us",
            tier_ok[t],
            tier_shed[t],
            tier_refused[t],
            tier_ok[t] as f64 / elapsed_s,
            tier_hists[t].percentile(99.0),
        );
    }
    if let Some(report) = &chaos_report {
        println!("  chaos: {}", report.to_json());
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"serve_load\",\n  \"offered_rps\": {rate},\n  \
         \"duration_s\": {elapsed_s:.3},\n  \"clients\": {clients},\n  \
         \"queue_cap\": {queue_cap},\n  \"workloads\": \"{workloads}\",\n  \
         \"tier_mix\": \"{tier_mix}\",\n  \
         \"requests\": {},\n  \"ok\": {ok},\n  \"throttled\": {throttled},\n  \
         \"errors\": {errors},\n  \"goodput_rps\": {throughput:.1},\n  \
         \"latency\": {},\n  \"tiers\": {{",
        shots.len(),
        hist.to_json()
    );
    for (t, name) in TIERS.iter().enumerate() {
        let _ = write!(
            json,
            "{}\n    \"{name}\": {{\"ok\": {}, \"shed\": {}, \"refused\": {}, \
             \"goodput_rps\": {:.1}, \"p99_us\": {}, \"latency\": {}}}",
            if t > 0 { "," } else { "" },
            tier_ok[t],
            tier_shed[t],
            tier_refused[t],
            tier_ok[t] as f64 / elapsed_s,
            tier_hists[t].percentile(99.0),
            tier_hists[t].to_json(),
        );
    }
    let _ = write!(
        json,
        "\n  }},\n  \"chaos\": {}\n}}\n",
        chaos_report
            .as_ref()
            .map_or("null".to_string(), |r| r.to_json())
    );
    if let Some(path) = json_path {
        if let Some(parent) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(parent).ok();
        }
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }

    server.shutdown();
    let final_stats = server.wait();
    println!("server stats: {final_stats}");
    assert_eq!(errors, 0, "load test saw non-200/429 responses");
    if let Some(report) = &chaos_report {
        assert!(report.contained(), "chaos was not contained: {report:?}");
    }
}
