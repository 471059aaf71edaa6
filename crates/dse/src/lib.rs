//! Seeded design-space exploration for NUPEA systems.
//!
//! The paper fixes one design point per figure — Monaco's 12×12 fabric
//! with a 3-column direct-port region, three far domains, a 64 K-word
//! cache — and sweeps one axis at a time by hand. This crate turns those
//! sweeps into a subsystem: a [`SearchSpace`] describes the joint
//! hardware/compiler space (domain geometry, cache capacity and banking,
//! clock divider, placement heuristic and seed), pluggable
//! [`SearchStrategy`] implementations walk it, and a [`DseEngine`] scores
//! every candidate through the parallel [`ExperimentRunner`] pipeline
//! (shared compile cache, scoped threads, budget enforcement).
//!
//! Three properties the subsystem maintains:
//!
//! - **Determinism.** All randomness flows through
//!   [`nupea_rng::Xoshiro256`]; a search's trajectory — and its rendered
//!   report — is a pure function of its seed.
//! - **Non-domination.** Reported [`ParetoFrontier`] points are mutually
//!   non-dominated on (cycles, energy, active PEs); dominated points are
//!   evicted incrementally on insert.
//! - **Resumability.** Every evaluation is appended to a JSONL
//!   [`Journal`] keyed by a stable FNV-1a config hash and cycle budget.
//!   Killing a search and re-running it replays journal entries instead
//!   of re-simulating; a completed search resumes with zero simulator
//!   invocations.
//!
//! ```no_run
//! use nupea_dse::{DseConfig, DseEngine, GridSearch, SearchSpace};
//! use nupea::{all_workloads, Scale};
//!
//! let mut engine = DseEngine::new(SearchSpace::default(), DseConfig::default());
//! let spmspv = all_workloads().into_iter().find(|w| w.name == "spmspv").unwrap();
//! engine.add_workload(spmspv.build_default(Scale::Test));
//! let report = engine.run(&mut GridSearch::new(8)).unwrap();
//! println!("{}", report.render());
//! ```
//!
//! [`ExperimentRunner`]: nupea::ExperimentRunner

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod journal;
pub mod pareto;
pub mod space;
pub mod strategy;

pub use engine::{DseConfig, DseEngine, DseReport, GridJob, HalvingConfig, WorkloadFrontier};
pub use journal::{Budget, Journal, JournalEntry, Outcome};
pub use pareto::{FrontierPoint, ParetoFrontier, Score};
pub use space::{config_hash, fnv1a, heuristic_from_label, Candidate, SearchSpace};
pub use strategy::{Annealing, Evaluation, GridSearch, RandomSearch, SearchStrategy};
