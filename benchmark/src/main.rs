//! The repository's benchmark: end-to-end and per-layer metrics of the
//! NUPEA pipeline on four workloads. See `README.md` beside this package.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload sweep|serve_warm|serve_cold|campaign|all \
//!     [--seed 1] [--seconds 20] [--trace 0|1] [--json OUT]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --compare BASE CHANGE
//! ```

mod alloc;
mod campaign;
mod compare;
mod layers;
mod loadgen;
mod probe;
mod report;
mod serve;
mod spans;
mod stats;
mod sweep;

use nupea::{Scale, Workload, WorkloadSpec};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["sweep", "serve_warm", "serve_cold", "campaign"];

/// Worker threads for sweeps and campaigns, and load-generator senders.
pub const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Rounds a round-based workload runs even past its time budget.
pub const MIN_ROUNDS: usize = 3;

/// Kernels whose effcc compile is unroutable for some PnR seeds at the
/// default effort: vww for 17 of 250 seeds at Test scale and 5 of 40 at
/// Bench scale, ic for 1 of 250 and 1 of 120. Every workload draws fresh
/// seeds, so with them in, whether a run counts a failure would be luck.
const EXCLUDED: [&str; 2] = ["ic", "vww"];

/// The registry's kernels minus [`EXCLUDED`].
#[must_use]
pub fn kernels() -> Vec<WorkloadSpec> {
    nupea::all_workloads()
        .into_iter()
        .filter(|s| !EXCLUDED.contains(&s.name))
        .collect()
}

/// Build every kernel of [`kernels`] at `scale`; returns them and the
/// seconds it took.
#[must_use]
pub fn build_kernels(scale: Scale) -> (Vec<Workload>, f64) {
    timed(|| kernels().iter().map(|s| s.build_default(scale)).collect())
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Drives every random draw: PnR seeds, fault plans, request order.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

impl Ctx {
    /// A seed for draw `index` of stream `stream`, fixed by the run seed.
    #[must_use]
    pub fn derive(&self, stream: &str, index: u64) -> u64 {
        nupea::jsonl::fnv1a(format!("{}/{stream}/{index}", self.seed).as_bytes())
    }
}

/// Run `f`, returning its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Run `setup` [`SETUP_REPS`] times, tearing each result down before
/// the next set-up starts; returns the median time and the last result.
///
/// # Errors
///
/// The first set-up error.
pub fn median_of_setups<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let (result, s) = timed(&mut setup);
        times.push(s);
        last = Some(result?);
    }
    Ok((
        stats::median(&times),
        last.expect("at least one set-up ran"),
    ))
}

/// Tracing overhead of `op`: its time (as `op` returns it) with a
/// recording tracer minus with a disabled one, as a percentage of the
/// latter, each the mean of two alternating runs.
pub fn overhead_pct(mut op: impl FnMut(&spans::Recorder) -> f64) -> f64 {
    let (off, on) = (spans::Recorder::new(false), spans::Recorder::new(true));
    let (mut untraced, mut traced) = (0.0, 0.0);
    for _ in 0..2 {
        untraced += op(&off);
        traced += op(&on);
    }
    (traced - untraced) / untraced * 100.0
}

/// Write `spans` as `<workload>.trace.json` in a `traces` directory next
/// to the executable, after checking the document against the Chrome
/// trace-event schema.
///
/// # Errors
///
/// An invalid document or an I/O error.
pub fn write_trace(workload: &str, spans: &[spans::Span]) -> Result<(), String> {
    let json = spans::chrome_json(spans, workload);
    let summary =
        nupea_sim::trace::validate_chrome_trace(&json).map_err(|e| format!("trace: {e}"))?;
    let dir = std::env::current_exe()
        .map_err(|e| format!("locate executable: {e}"))?
        .with_file_name("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("trace: {} ({} spans)", path.display(), summary.complete);
    Ok(())
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    ctx: Ctx,
    json: Option<PathBuf>,
    compare: Option<(String, String)>,
}

const USAGE: &str = "usage: benchmark --workload sweep|serve_warm|serve_cold|campaign|all \
                     [--seed N] [--seconds N] [--trace 0|1] [--json OUT]\n       \
                     benchmark --compare BASE.json CHANGE.json";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        ctx: Ctx {
            seed: 1,
            seconds: 20.0,
            trace: false,
        },
        json: None,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => out.ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.ctx.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.ctx.seconds > 0.0 && out.ctx.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                out.ctx.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--json" => out.json = Some(PathBuf::from(value()?)),
            "--compare" => out.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.compare.is_none()
        && !(out.workload == "all" || WORKLOADS.contains(&out.workload.as_str()))
    {
        return Err(format!("unknown workload {:?}", out.workload));
    }
    Ok(out)
}

/// glibc's malloc decides at run time, per process, whether the 16 MB
/// memory images that simulations and requests allocate come from
/// recycled memory or from fresh pages the kernel must fault in: it moves
/// its mmap and trim thresholds as it goes, spreads threads over arenas,
/// and trims or deletes heaps once they empty. Identical work then
/// differed up to 2x between processes — a sweep run took 1.0 or 4.0
/// million minor faults, a campaign run 3.5 to 7.3 million, and in 4 of
/// 10 serve_warm processes a quarter of the requests took 13-20 ms
/// instead of 5. One arena that never returns memory, with a fixed mmap
/// threshold, makes every process recycle alike.
const MALLOC_TUNABLES: &str = "glibc.malloc.arena_max=1:glibc.malloc.mmap_threshold=33554432:\
                               glibc.malloc.trim_threshold=68719476736";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if std::env::var_os("GLIBC_TUNABLES").is_none() {
        // The tunables are read at process start: run again with them.
        let status = std::env::current_exe().and_then(|exe| {
            Command::new(exe)
                .args(&argv)
                .env("GLIBC_TUNABLES", MALLOC_TUNABLES)
                .status()
        });
        return match status {
            Ok(s) => s
                .code()
                .and_then(|c| u8::try_from(c).ok())
                .map_or(ExitCode::FAILURE, ExitCode::from),
            Err(e) => {
                eprintln!("re-run with pinned malloc thresholds: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, change)) = &args.compare {
        return match compare::run(base, change) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    if args.workload == "all" {
        // One process per workload, so each gets its own memory figures.
        let mut ok = true;
        for w in WORKLOADS {
            let mut child_args = argv.clone();
            let i = child_args
                .iter()
                .position(|a| a == "--workload")
                .expect("parsed above");
            child_args[i + 1] = w.to_string();
            let status = std::env::current_exe()
                .and_then(|exe| Command::new(exe).args(&child_args).status());
            match status {
                Ok(s) if s.success() => {}
                other => {
                    eprintln!("workload {w} failed: {other:?}");
                    ok = false;
                }
            }
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let ctx = &args.ctx;
    let result = match args.workload.as_str() {
        "sweep" => sweep::run(ctx),
        "serve_warm" => serve::run(ctx, serve::Kind::Warm),
        "serve_cold" => serve::run(ctx, serve::Kind::Cold),
        _ => campaign::run(ctx),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = outcome.check_names(ctx.trace) {
        eprintln!("benchmark bug: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = outcome.emit(&args.workload, ctx.seed, ctx.trace, args.json.as_deref()) {
        eprintln!("write results: {e}");
        return ExitCode::FAILURE;
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload serve_cold --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, "serve_cold");
        assert_eq!(a.ctx.seed, 7);
        assert_eq!(a.ctx.seconds, 12.0);
        assert!(a.ctx.trace);
        assert!(args("--workload nope").is_err());
        assert!(args("--workload sweep --trace 2").is_err());
        assert!(args("--workload sweep --seconds 0").is_err());
        assert!(args("--workload sweep --seed").is_err());
        assert!(args("--compare a.json b.json").unwrap().compare.is_some());
    }

    #[test]
    fn derived_seeds_depend_on_run_seed_stream_and_index() {
        let ctx = |seed| Ctx {
            seed,
            seconds: 1.0,
            trace: false,
        };
        assert_eq!(ctx(1).derive("pnr", 0), ctx(1).derive("pnr", 0));
        assert_ne!(ctx(1).derive("pnr", 0), ctx(2).derive("pnr", 0));
        assert_ne!(ctx(1).derive("pnr", 0), ctx(1).derive("pnr", 1));
        assert_ne!(ctx(1).derive("pnr", 0), ctx(1).derive("plan", 0));
    }

    #[test]
    fn excluded_kernels_are_registry_names() {
        let all: Vec<&str> = nupea::all_workloads().iter().map(|s| s.name).collect();
        assert!(EXCLUDED.iter().all(|e| all.contains(e)));
        assert_eq!(kernels().len(), all.len() - EXCLUDED.len());
    }
}
