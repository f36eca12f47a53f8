//! # pts-mkp — parallel cooperative tabu search for the 0–1 MKP
//!
//! Facade over the workspace crates reproducing **Niar & Fréville, “A
//! Parallel Tabu Search Algorithm For The 0-1 Multidimensional Knapsack
//! Problem” (IPPS 1997)**:
//!
//! * [`mkp`] — problem model, benchmark generators, bounds, heuristics;
//! * [`simplex_lp`] — bounded-variable LP solver (relaxation bounds);
//! * [`mkp_exact`] — certifying branch & bound, DP oracle, variable fixing;
//! * [`mkp_tabu`] — the sequential tabu-search engine (paper Fig. 1);
//! * [`pvm_lite`] — PVM-style message passing over threads;
//! * [`parallel_tabu`] — the paper's contribution: master/slave cooperative
//!   search with dynamic strategy tuning (SEQ/ITS/CTS1/CTS2 + async ATS).
//!
//! ```
//! use pts_mkp::prelude::*;
//!
//! let inst = gk_instance("demo", GkSpec { n: 50, m: 5, tightness: 0.5, seed: 1 });
//! let cfg = RunConfig { p: 2, rounds: 3, ..RunConfig::new(50_000, 7) };
//! let report = run_mode(&inst, Mode::CooperativeAdaptive, &cfg);
//! assert!(report.best.is_feasible(&inst));
//! ```

#![warn(missing_docs)]

pub use mkp;
pub use mkp_exact;
pub use mkp_tabu;
pub use parallel_tabu;
pub use pvm_lite;
pub use simplex_lp;

/// The most common imports in one place.
pub mod prelude {
    pub use mkp::eval::Ratios;
    pub use mkp::generate::{
        fp_instance, fp_suite, gk_instance, large_instance, large_suite, mk_suite, table1_suite,
        uncorrelated_instance, GkSpec, LargeSpec,
    };
    pub use mkp::greedy::{greedy, randomized_greedy};
    pub use mkp::{BitVec, Instance, Solution, Xoshiro256};
    pub use mkp_exact::{solve as solve_exact, solve_with_incumbent, BbConfig};
    pub use mkp_tabu::search::{run as run_tabu, Budget, TsConfig};
    pub use mkp_tabu::{Strategy, StrategyBounds};
    pub use parallel_tabu::{
        attach_job, serve, submit_job, Journal, JournalError, NetFaultPlan, NetFaultState,
        ServeBackend, ServeConfig, ServeStats, SubmitEvent, SubmitOutcome, SubmitSpec,
    };
    pub use parallel_tabu::{
        fault_at_round, run_mode, CheckpointCfg, CoopPolicy, Engine, EngineError, FaultAction,
        FaultPlan, IspConfig, LossCause, Mode, ModeReport, Resurrection, RunConfig, SgpConfig,
        Snapshot, SnapshotError, WorkerLoss,
    };
    pub use parallel_tabu::{
        parse_metrics_json, validate_metrics_json, Counter, EventKind, SpanKind, Telemetry,
        TelemetrySnapshot, METRICS_SCHEMA,
    };
    pub use parallel_tabu::{run_remote, serve_slave, Endpoint, ServeOutcome};
}
